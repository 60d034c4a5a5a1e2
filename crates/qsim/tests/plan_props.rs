//! Property tests for the compile step: a fused [`CircuitPlan`] agrees
//! with the unfused per-gate kernel path to 1e-12 on random circuits —
//! including fusion across diagonal/dense/permutation tier boundaries —
//! and cached-plan executor runs are bit-identical to cold-plan runs.

use proptest::prelude::*;
use qcir::circuit::Circuit;
use qcir::gate::Gate;
use qsim::exec::{ExecutorConfig, PlanCacheMode};
use qsim::noise::NoiseModel;
use qsim::plan::{CircuitPlan, PlannedOp};
use qsim::state::StateVector;

/// Strategy: an arbitrary gate covering every dispatch tier, so fused
/// blocks routinely straddle diagonal (T/Z/RZ/CZ/CP), dense (H/U/CH) and
/// permutation (X/CX/SWAP/CCX) boundaries.
fn arb_gate() -> impl Strategy<Value = Gate> {
    prop_oneof![
        Just(Gate::Id),
        Just(Gate::H),
        Just(Gate::X),
        Just(Gate::Y),
        Just(Gate::Z),
        Just(Gate::S),
        Just(Gate::Sdg),
        Just(Gate::T),
        Just(Gate::Tdg),
        Just(Gate::SX),
        (-6.3f64..6.3).prop_map(Gate::RX),
        (-6.3f64..6.3).prop_map(Gate::RY),
        (-6.3f64..6.3).prop_map(Gate::RZ),
        (-6.3f64..6.3).prop_map(Gate::P),
        (-3.2f64..3.2, -3.2f64..3.2, -3.2f64..3.2).prop_map(|(t, p, l)| Gate::U(t, p, l)),
        Just(Gate::CX),
        Just(Gate::CY),
        Just(Gate::CZ),
        Just(Gate::CH),
        Just(Gate::SWAP),
        (-6.3f64..6.3).prop_map(Gate::CRX),
        (-6.3f64..6.3).prop_map(Gate::CRY),
        (-6.3f64..6.3).prop_map(Gate::CRZ),
        (-6.3f64..6.3).prop_map(Gate::CP),
        Just(Gate::CCX),
        Just(Gate::CSWAP),
    ]
}

/// Strategy: a gate list with raw operand draws (made distinct later).
fn arb_ops(max_len: usize) -> impl Strategy<Value = Vec<(Gate, Vec<usize>)>> {
    prop::collection::vec(
        (arb_gate(), prop::collection::vec(0..usize::MAX, 3)),
        0..max_len,
    )
}

/// Builds distinct operand qubits on `n` wires from the raw draw, wrapping
/// duplicates to the next free qubit so every draw is a valid operand list.
fn distinct_operands(raw: &[usize], arity: usize, n: usize) -> Vec<usize> {
    let mut qubits: Vec<usize> = Vec::with_capacity(arity);
    for &r in raw.iter().take(arity) {
        let mut q = r % n;
        while qubits.contains(&q) {
            q = (q + 1) % n;
        }
        qubits.push(q);
    }
    qubits
}

/// Builds the circuit a raw draw describes on `n` qubits.
fn build_circuit(n: usize, ops: &[(Gate, Vec<usize>)]) -> Circuit {
    let mut qc = Circuit::new(n, n);
    for (gate, raw) in ops {
        qc.push_gate(*gate, &distinct_operands(raw, gate.num_qubits(), n));
    }
    qc
}

/// Strategy: a diagonal-tier gate (Z/S/T/RZ/P and their controlled kin) —
/// circuits built only from these must never densify under the cost model.
fn arb_diag_gate() -> impl Strategy<Value = Gate> {
    prop_oneof![
        Just(Gate::Z),
        Just(Gate::S),
        Just(Gate::Sdg),
        Just(Gate::T),
        Just(Gate::Tdg),
        (-6.3f64..6.3).prop_map(Gate::RZ),
        (-6.3f64..6.3).prop_map(Gate::P),
        Just(Gate::CZ),
        (-6.3f64..6.3).prop_map(Gate::CRZ),
        (-6.3f64..6.3).prop_map(Gate::CP),
    ]
}

/// A rotation brickwork circuit: per-layer random 1q rotations followed by
/// alternating nearest-neighbour CX bricks — the deep-circuit shape whose
/// qubit triples the fuser collapses into `Dense3` superblocks.
fn brickwork(n: usize, layers: usize, angles: &[f64]) -> Circuit {
    let mut qc = Circuit::new(n, n);
    let mut a = angles.iter().cycle();
    for layer in 0..layers {
        for q in 0..n {
            qc.rx(*a.next().unwrap(), q).rz(*a.next().unwrap(), q);
        }
        let start = layer % 2;
        for q in (start..n - 1).step_by(2) {
            qc.cx(q, q + 1);
        }
    }
    qc
}

/// Applies every unitary gate of `qc` through the per-gate kernel path.
fn apply_unfused(qc: &Circuit, sv: &mut StateVector) {
    for op in qc.ops() {
        if let qcir::circuit::Op::Gate { gate, qubits } = op {
            sv.apply_gate(*gate, qubits);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The tentpole invariant: the fused plan and the unfused per-gate
    /// kernel path produce identical amplitudes (1e-12) for random
    /// circuits up to 12 qubits, from multiple starting basis states.
    #[test]
    fn fused_plans_agree_with_unfused_kernels(
        n in 3usize..=12,
        ops in arb_ops(24),
    ) {
        let qc = build_circuit(n, &ops);
        let plan = CircuitPlan::compile(&qc);
        prop_assert!(plan.fused_unitaries() <= plan.source_gate_ops());
        for basis in [0usize, (1 << n) - 1, 1] {
            let mut fused = StateVector::basis(n, basis);
            plan.apply_unitary(&mut fused);
            let mut unfused = StateVector::basis(n, basis);
            for op in qc.ops() {
                if let qcir::circuit::Op::Gate { gate, qubits } = op {
                    unfused.apply_gate(*gate, qubits);
                }
            }
            for (i, (a, b)) in fused
                .amplitudes()
                .iter()
                .zip(unfused.amplitudes())
                .enumerate()
            {
                prop_assert!(
                    a.approx_eq(*b, 1e-12),
                    "{n} qubits, basis {basis}, amplitude {i} diverged: {a} vs {b}"
                );
            }
        }
    }

    /// Rotation brickwork forms `Dense3` superblocks, and the fused plan —
    /// including those 8x8 blocks — agrees with the unfused kernel path.
    #[test]
    fn dense3_superblocks_form_and_agree(
        n in 4usize..=9,
        layers in 3usize..=6,
        angles in prop::collection::vec(-3.2f64..3.2, 8),
    ) {
        let qc = brickwork(n, layers, &angles);
        let plan = CircuitPlan::compile(&qc);
        prop_assert!(
            plan.ops().iter().any(|op| matches!(op, PlannedOp::Dense3 { .. })),
            "{n}q x{layers} brickwork compiled without any Dense3 superblock"
        );
        for basis in [0usize, 1, (1 << n) - 1] {
            let mut fused = StateVector::basis(n, basis);
            plan.apply_unitary(&mut fused);
            let mut unfused = StateVector::basis(n, basis);
            apply_unfused(&qc, &mut unfused);
            for (i, (a, b)) in fused
                .amplitudes()
                .iter()
                .zip(unfused.amplitudes())
                .enumerate()
            {
                prop_assert!(
                    a.approx_eq(*b, 1e-12),
                    "{n}q x{layers}, basis {basis}, amplitude {i}: {a} vs {b}"
                );
            }
        }
    }

    /// Cost-model guardrail: circuits built purely from diagonal-tier
    /// gates never densify — every fused block stays `Diag1`/`Diag2` —
    /// and the (possibly decline-heavy) plan still agrees with the
    /// unfused path.
    #[test]
    fn diagonal_runs_stay_diagonal_under_the_cost_model(
        n in 3usize..=8,
        ops in prop::collection::vec(
            (arb_diag_gate(), prop::collection::vec(0..usize::MAX, 3)),
            1..24,
        ),
    ) {
        let qc = build_circuit(n, &ops);
        let plan = CircuitPlan::compile(&qc);
        for op in plan.ops() {
            prop_assert!(
                !matches!(
                    op,
                    PlannedOp::Dense1 { .. }
                        | PlannedOp::Dense2 { .. }
                        | PlannedOp::Dense3 { .. }
                ),
                "diagonal-only circuit densified into {op:?}"
            );
        }
        let mut fused = StateVector::basis(n, 1);
        let mut h_layer = Circuit::new(n, n);
        for q in 0..n {
            h_layer.h(q);
        }
        apply_unfused(&h_layer, &mut fused); // diagonal plans need superpositions
        let mut unfused = fused.clone();
        plan.apply_unitary(&mut fused);
        apply_unfused(&qc, &mut unfused);
        for (a, b) in fused.amplitudes().iter().zip(unfused.amplitudes()) {
            prop_assert!(a.approx_eq(*b, 1e-12), "{a} vs {b}");
        }
    }

    /// Compilation is deterministic: compiling the same circuit twice
    /// yields structurally equal plans with equal fingerprints, and a
    /// warm-cache executor run is bit-identical to the cold-cache run.
    #[test]
    fn cached_plan_runs_are_bit_identical_to_cold_runs(
        n in 3usize..=8,
        ops in arb_ops(16),
        seed in 0u64..1000,
    ) {
        let mut qc = build_circuit(n, &ops);
        qc.measure_all();
        let a = CircuitPlan::compile(&qc);
        let b = CircuitPlan::compile(&qc);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.fingerprint(), b.fingerprint());

        let cold = ExecutorConfig::new()
            .plan_cache(PlanCacheMode::Private)
            .build()
            .try_run(&qc, 256, seed)
            .unwrap();
        let exec = ExecutorConfig::new()
            .plan_cache(PlanCacheMode::Private)
            .build();
        let _ = exec.plan_for(&qc); // pre-warm the cache
        let warm = exec.try_run(&qc, 256, seed).unwrap();
        prop_assert_eq!(cold, warm);
    }
}

proptest! {
    // Fewer cases: each case runs three full noisy Monte-Carlo batches
    // (2100 shots each, so every run spans multiple RNG chunks and the
    // thread-count comparison genuinely exercises the chunk merge).
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Noisy replay determinism: under a fully live noise model the
    /// replay path's counts are bit-identical across thread counts.
    #[test]
    fn noisy_replay_is_bit_identical_across_thread_counts(
        n in 2usize..=5,
        ops in arb_ops(10),
        seed in 0u64..1000,
    ) {
        let mut qc = build_circuit(n, &ops);
        qc.measure_all();
        let mut noise = NoiseModel::uniform_depolarizing(0.03);
        noise.idle_error = 0.01;
        noise.readout_error = 0.02;
        let run = |threads: usize| {
            ExecutorConfig::new()
                .noise(noise.clone())
                .threads(threads)
                .plan_cache(PlanCacheMode::Private)
                .build()
                .try_run(&qc, 2100, seed)
                .unwrap()
        };
        let serial = run(1);
        prop_assert_eq!(&serial, &run(3));
        prop_assert_eq!(&serial, &run(4));
    }

    /// The same property on the circuits that stay on noisy replay:
    /// measure-at-end circuits now take the exact density path, so a
    /// mid-circuit measurement and a conditional gate are spliced into
    /// the same random circuits to keep replay's determinism covered.
    #[test]
    fn dynamic_noisy_replay_is_bit_identical_across_thread_counts(
        n in 2usize..=5,
        ops in arb_ops(10),
        split in 0usize..=10,
        seed in 0u64..1000,
    ) {
        let split = split.min(ops.len());
        let mut qc = build_circuit(n, &ops[..split]);
        qc.h(0).measure(0, 0);
        qc.cond_gate(Gate::X, &[n - 1], 0, true);
        for (gate, raw) in &ops[split..] {
            qc.push_gate(*gate, &distinct_operands(raw, gate.num_qubits(), n));
        }
        qc.measure_all();
        let mut noise = NoiseModel::uniform_depolarizing(0.03);
        noise.idle_error = 0.01;
        noise.readout_error = 0.02;
        let run = |threads: usize| {
            ExecutorConfig::new()
                .noise(noise.clone())
                .threads(threads)
                .plan_cache(PlanCacheMode::Private)
                .build()
                .try_run(&qc, 2100, seed)
                .unwrap()
        };
        let serial = run(1);
        prop_assert_eq!(serial.shots(), 2100);
        prop_assert_eq!(&serial, &run(3));
        prop_assert_eq!(&serial, &run(4));
    }
}
