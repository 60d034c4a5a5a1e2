//! Pauli-frame sampling of tableau jobs against per-shot trajectories.
//!
//! * On the distance-3 surface-code memory circuit under the
//!   IBM-Brisbane-like profile (depolarizing, idle and readout noise),
//!   frame-sampled counts must match a per-shot stabilizer trajectory loop
//!   built here from public `StabilizerSim` and `NoiseModel::sample_*`
//!   calls: every clbit marginal and the decoded logical error rate agree
//!   within 5σ binomial bounds at 20k shots each.
//! * Frame counts are bit-identical for 1–4 threads and between the batch
//!   and single-job paths.
//! * A noiseless 49-qubit GHZ state only ever reads all-0 or all-1.

use qugen::qcir::circuit::{Circuit, Op};
use qugen::qec::memory::logical_failures;
use qugen::qec::SurfaceCode;
use qugen::qsim::backend::BackendChoice;
use qugen::qsim::dist::Counts;
use qugen::qsim::exec::ExecutorConfig;
use qugen::qsim::job::JobSpec;
use qugen::qsim::noise::NoiseModel;
use qugen::qsim::profiles;
use qugen::qsim::stabilizer::StabilizerSim;
use qugen::qsim::word::OutcomeWord;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// One stabilizer trajectory per shot, noise injected exactly as the
/// `NoiseModel` samplers describe it.
fn trajectory_counts(circuit: &Circuit, noise: &NoiseModel, shots: u64, seed: u64) -> Counts {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sim = StabilizerSim::new(circuit.num_qubits());
    let mut counts = Counts::new(circuit.num_clbits());
    let mut word = OutcomeWord::zero();
    for _ in 0..shots {
        sim.reinit();
        word.clear();
        for op in circuit.ops() {
            let errors = match op {
                Op::Gate { gate, qubits } => {
                    sim.apply_gate(*gate, qubits);
                    noise.sample_gate_errors(gate, qubits, &mut rng)
                }
                Op::CondGate {
                    gate,
                    qubits,
                    clbit,
                    value,
                } => {
                    if word.bit(*clbit) != *value {
                        continue;
                    }
                    sim.apply_gate(*gate, qubits);
                    noise.sample_gate_errors(gate, qubits, &mut rng)
                }
                Op::Measure { qubit, clbit } => {
                    let raw = sim.measure(*qubit, &mut rng);
                    word.set_bit(*clbit, noise.sample_readout(raw, &mut rng));
                    continue;
                }
                Op::Reset { qubit } => {
                    sim.reset(*qubit, &mut rng);
                    continue;
                }
                Op::Barrier { .. } => noise.sample_idle_errors(circuit.num_qubits(), &mut rng),
            };
            for (q, pauli) in errors {
                sim.apply_gate(pauli.gate(), &[q]);
            }
        }
        counts.record_word(&word);
    }
    counts
}

/// `|a - b| ≤ 5σ` for two independent binomial frequencies over `n`
/// trials each, σ from the pooled rate.
fn within_5_sigma(a: f64, b: f64, n: f64) -> bool {
    let p = (a + b) / 2.0;
    (a - b).abs() <= 5.0 * (2.0 * p * (1.0 - p) / n).sqrt()
}

fn tableau(noise: NoiseModel) -> ExecutorConfig {
    ExecutorConfig::new()
        .noise(noise)
        .backend(BackendChoice::Tableau)
}

#[test]
fn frames_match_per_shot_trajectories_on_the_d3_memory_circuit() {
    let code = SurfaceCode::new(3);
    let mem = code.memory_circuit(2);
    let noise = profiles::ibm_brisbane_like();
    let shots = 20_000u64;
    let frames = tableau(noise.clone())
        .build()
        .try_run(&mem.circuit, shots, 41)
        .unwrap();
    let trajectories = trajectory_counts(&mem.circuit, &noise, shots, 42);
    assert_eq!(frames.shots(), shots);
    let n = shots as f64;
    let marginal = |counts: &Counts, c: usize| {
        counts
            .iter()
            .filter(|(word, _)| word.bit(c))
            .map(|(_, k)| k)
            .sum::<u64>() as f64
            / n
    };
    for c in 0..mem.circuit.num_clbits() {
        let (f, t) = (marginal(&frames, c), marginal(&trajectories, c));
        assert!(
            within_5_sigma(f, t, n),
            "clbit {c}: frames {f}, trajectories {t}"
        );
    }
    let p_frames = logical_failures(&code, &mem, &frames) as f64 / n;
    let p_traj = logical_failures(&code, &mem, &trajectories) as f64 / n;
    assert!(
        p_frames > 0.0,
        "brisbane-like noise must cause logical errors"
    );
    assert!(
        within_5_sigma(p_frames, p_traj, n),
        "p_logical: frames {p_frames}, trajectories {p_traj}"
    );
}

#[test]
fn frame_counts_are_thread_and_batch_independent() {
    // 3000 shots span three 1024-shot chunks.
    let circuit = Arc::new(SurfaceCode::new(5).memory_circuit(2).circuit);
    let noise = profiles::ibm_brisbane_like();
    let serial = tableau(noise.clone())
        .build()
        .try_run(&circuit, 3000, 17)
        .unwrap();
    assert_eq!(serial.shots(), 3000);
    assert!(serial.distinct_outcomes() > 1);
    for threads in 2..=4 {
        let exec = tableau(noise.clone()).threads(threads).build();
        assert_eq!(
            exec.try_run(&circuit, 3000, 17).unwrap(),
            serial,
            "{threads} threads"
        );
        let batch = exec.try_run_batch(&[
            JobSpec::new(Arc::clone(&circuit), 3000, 17),
            JobSpec::new(Arc::clone(&circuit), 500, 18),
        ]);
        assert_eq!(
            batch[0].as_ref().unwrap(),
            &serial,
            "batch, {threads} threads"
        );
        assert_eq!(
            batch[1].as_ref().unwrap(),
            &tableau(noise.clone())
                .build()
                .try_run(&circuit, 500, 18)
                .unwrap()
        );
    }
}

#[test]
fn noiseless_ghz49_frames_read_all_zeros_or_all_ones() {
    let n = 49;
    let mut ghz = Circuit::new(n, n);
    ghz.h(0);
    for q in 0..n - 1 {
        ghz.cx(q, q + 1);
    }
    ghz.measure_all();
    let shots = 4096u64;
    // Auto dispatch sends 49 Clifford qubits to the tableau.
    let counts = ExecutorConfig::new()
        .build()
        .try_run(&ghz, shots, 5)
        .unwrap();
    let all_ones = (1u64 << n) - 1;
    assert_eq!(counts.count(0) + counts.count(all_ones), shots, "{counts}");
    let p = counts.probability(all_ones);
    assert!(
        (p - 0.5).abs() <= 5.0 * (0.25 / shots as f64).sqrt(),
        "p(all ones) = {p}"
    );
}
