//! Exact noisy outcome distributions for small dense circuits: one
//! density matrix evolved through the plan kernels.
//!
//! Every channel in [`NoiseModel`] is a Pauli channel — depolarizing after
//! gates, biased X/Z idle noise at barriers, classical readout flips — so
//! a noisy measure-at-end circuit has an exact outcome distribution that
//! one density-matrix evolution computes (operator-sum form, Nielsen &
//! Chuang §8.3). At `4^n ≤` [`BRANCH_AMPLITUDE_BUDGET`] (n ≤ 7) that is
//! far less work than the thousands of noisy trajectories a sampled
//! estimate needs.
//!
//! * **Representation.** ρ is a `2n`-qubit [`StateVector`] with index
//!   `ket | bra << n`, i.e. entry `ρ[i][j]` at `i | j << n`.
//! * **Gates.** `UρU†` is the gate lowered by the plan layer onto the ket
//!   qubits, followed by its complex conjugate on the bra qubits `q + n`.
//! * **Noise.** Each per-qubit channel is a real 4×4
//!   [`PlannedOp::Dense2`] on the pair `(q + n, q)`, mirroring
//!   [`NoiseModel::sample_gate_errors`] (gates of three or more qubits use
//!   the two-qubit rate) and [`NoiseModel::sample_idle_errors`] (idle
//!   noise is 0.75 Z / 0.25 X on every qubit at every barrier).
//! * **Fusion.** Gates and channels go through the plan's fusion pass, so
//!   a run of one-qubit gates and their noise on one qubit becomes a
//!   single 4×4 sweep. Everything executes on the one [`PlannedOp`]
//!   kernel table.
//! * **Readout.** `diag(ρ)` is read through the measurement map (last
//!   writer wins on a shared clbit), and readout error folds in as an
//!   independent flip of each written clbit.
//!
//! [`DensityProgram::compile`] declines (returns `None`) outside that
//! rule: circuits with mid-circuit measurement, resets or conditionals,
//! circuits whose `4^n` (or `2^k` for `k` written clbits) exceeds the
//! budget, and circuits with a barrier carrying live idle noise between two
//! measurements. The executor runs those on noisy trajectory replay
//! ([`crate::replay`]).

use crate::dist::Distribution;
use crate::noise::NoiseModel;
use crate::plan::{apply_unitary_op, lower_gate_solo, Fuser, PlannedOp, BRANCH_AMPLITUDE_BUDGET};
use crate::state::StateVector;
use crate::word::OutcomeWord;
use qcir::circuit::{Circuit, Op};
use qcir::math::C64;

/// Outcome probabilities at or below this are dropped from the readout:
/// rounding residue, as in [`crate::plan::CircuitPlan::branch_distribution`].
const READOUT_FLOOR: f64 = 1e-15;

/// A noisy measure-at-end circuit lowered to a density-matrix program:
/// fused ops over `2n` qubits plus the readout. Compiled per run and never
/// cached (it depends on the noise rates, not just the circuit).
#[derive(Debug, Clone, PartialEq)]
pub struct DensityProgram {
    num_qubits: usize,
    num_clbits: usize,
    ops: Vec<PlannedOp>,
    /// The distinct clbits the measurements write, in first-write order.
    written: Vec<usize>,
    /// `(qubit, slot)` per measurement in program order, where `slot`
    /// indexes `written`.
    readout: Vec<(usize, usize)>,
    readout_error: f64,
}

impl DensityProgram {
    /// Lowers `circuit` under `noise` (see the module docs), or `None`
    /// when the circuit is outside the exact path's rule.
    pub fn compile(circuit: &Circuit, noise: &NoiseModel) -> Option<DensityProgram> {
        let n = circuit.num_qubits();
        if 1usize.checked_shl(2 * n as u32)? > BRANCH_AMPLITUDE_BUDGET {
            return None;
        }
        let mut fuser = Fuser::new(2 * n);
        let mut written: Vec<usize> = Vec::new();
        let mut readout: Vec<(usize, usize)> = Vec::new();
        // A barrier after a measurement draws idle noise that a later
        // measurement would see: outside the rule.
        let mut idle_after_measure = false;
        for op in circuit.ops() {
            match op {
                Op::Gate { .. } | Op::CondGate { .. } | Op::Reset { .. } if !readout.is_empty() => {
                    return None
                }
                Op::CondGate { .. } | Op::Reset { .. } => return None,
                Op::Gate { gate, qubits } => {
                    if let Some(ket) = lower_gate_solo(*gate, qubits) {
                        let bra = ket.conj_shifted(n);
                        fuser.push_op(ket);
                        fuser.push_op(bra);
                    }
                    let p = match gate.num_qubits() {
                        1 => noise.one_qubit_depol,
                        _ => noise.two_qubit_depol,
                    };
                    if p != 0.0 {
                        for &q in qubits {
                            fuser.push_op(pauli_channel(q, n, [p / 3.0, p / 3.0, p / 3.0]));
                        }
                    }
                }
                Op::Barrier { .. } if noise.idle_error == 0.0 => {}
                Op::Barrier { .. } if !readout.is_empty() => idle_after_measure = true,
                Op::Barrier { .. } => {
                    let e = noise.idle_error;
                    for q in 0..n {
                        fuser.push_op(pauli_channel(q, n, [0.25 * e, 0.0, 0.75 * e]));
                    }
                }
                Op::Measure { .. } if idle_after_measure => return None,
                Op::Measure { qubit, clbit } => {
                    let slot = written
                        .iter()
                        .position(|&c| c == *clbit)
                        .unwrap_or_else(|| {
                            written.push(*clbit);
                            written.len() - 1
                        });
                    readout.push((*qubit, slot));
                }
            }
        }
        if 1usize.checked_shl(written.len() as u32)? > BRANCH_AMPLITUDE_BUDGET {
            return None;
        }
        Some(DensityProgram {
            num_qubits: n,
            num_clbits: circuit.num_clbits(),
            ops: fuser.finish(),
            written,
            readout,
            readout_error: noise.readout_error,
        })
    }

    /// The fused op list over the `2n` density qubits, in execution order.
    pub fn ops(&self) -> &[PlannedOp] {
        &self.ops
    }

    /// Evolves ρ from `|0⟩⟨0|` and reads out the exact distribution over
    /// classical words, readout error included.
    pub fn distribution(&self) -> Distribution {
        let n = self.num_qubits;
        let mut rho = StateVector::zero(2 * n);
        for op in &self.ops {
            apply_unitary_op(&mut rho, op);
        }
        // Probabilities indexed by the written clbits' values (bit `j` of
        // the index is clbit `written[j]`); later measurements overwrite.
        let written = &self.written;
        let mut table = vec![0.0f64; 1 << written.len()];
        let amps = rho.amplitudes();
        for basis in 0..1usize << n {
            let mut idx = 0usize;
            for &(q, j) in &self.readout {
                idx = (idx & !(1 << j)) | (((basis >> q) & 1) << j);
            }
            table[idx] += amps[basis | basis << n].re;
        }
        let r = self.readout_error;
        if r > 0.0 {
            for j in 0..written.len() {
                for idx in (0..table.len()).filter(|i| i & (1 << j) == 0) {
                    let (a, b) = (table[idx], table[idx | 1 << j]);
                    table[idx] = (1.0 - r) * a + r * b;
                    table[idx | 1 << j] = r * a + (1.0 - r) * b;
                }
            }
        }
        let mut dist = Distribution::new(self.num_clbits);
        for (idx, &p) in table.iter().enumerate() {
            if p <= READOUT_FLOOR {
                continue;
            }
            let mut word = OutcomeWord::zero();
            for (j, &c) in written.iter().enumerate() {
                word.set_bit(c, (idx >> j) & 1 == 1);
            }
            dist.set(word, p);
        }
        dist
    }
}

/// The Pauli channel `ρ ↦ (1 − px − py − pz)ρ + px·XρX + py·YρY + pz·ZρZ`
/// on qubit `q` of an `n`-qubit ρ, as a real 4×4 on `(hi, lo) = (q + n, q)`
/// over the index `bra << 1 | ket`: populations exchange with weight
/// `px + py`, coherences `ρ01`/`ρ10` scale by `1 − px − py − 2pz` and mix
/// with weight `px − py` (Y carries a sign X lacks).
fn pauli_channel(q: usize, n: usize, [px, py, pz]: [f64; 3]) -> PlannedOp {
    let flip = px + py;
    let keep = 1.0 - px - py - 2.0 * pz;
    let mix = px - py;
    let mut m = [C64::ZERO; 16];
    m[0] = C64::real(1.0 - flip);
    m[3] = C64::real(flip);
    m[12] = C64::real(flip);
    m[15] = C64::real(1.0 - flip);
    m[5] = C64::real(keep);
    m[6] = C64::real(mix);
    m[9] = C64::real(mix);
    m[10] = C64::real(keep);
    PlannedOp::Dense2 {
        hi: q + n,
        lo: q,
        m: Box::new(m),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Executor, ExecutorConfig};
    use crate::plan::CircuitPlan;
    use qcir::gate::Gate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model(one: f64, two: f64, readout: f64, idle: f64) -> NoiseModel {
        NoiseModel {
            one_qubit_depol: one,
            two_qubit_depol: two,
            readout_error: readout,
            idle_error: idle,
            label: "test".into(),
        }
    }

    fn exact(qc: &Circuit, noise: &NoiseModel) -> Distribution {
        DensityProgram::compile(qc, noise)
            .expect("inside the exact path's rule")
            .distribution()
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn single_qubit_channels_match_their_closed_forms() {
        let p = 0.09;
        let depol = model(p, 0.0, 0.0, 0.0);
        // H on |0⟩ then the channel: populations stay 1/2 (depolarizing
        // only shrinks the coherence), for any p.
        let mut h = Circuit::new(1, 1);
        h.h(0).measure(0, 0);
        let d = exact(&h, &depol);
        assert!(close(d.get(0u64), 0.5) && close(d.get(1u64), 0.5), "{d:?}");
        // X then the channel: X and Y errors (2p/3) flip the bit back.
        let mut x = Circuit::new(1, 1);
        x.x(0).measure(0, 0);
        assert!(close(exact(&x, &depol).get(0u64), 2.0 * p / 3.0));
        // H·H: the first channel shrinks the coherence by 1 − 4p/3, which
        // the second H turns into a population; the second channel then
        // exchanges populations with weight 2p/3.
        let mut hh = Circuit::new(1, 1);
        hh.h(0).h(0).measure(0, 0);
        let p1 = 0.5 - 0.5 * (1.0 - 4.0 * p / 3.0);
        let want = (1.0 - 2.0 * p / 3.0) * p1 + 2.0 * p / 3.0 * (1.0 - p1);
        assert!(close(exact(&hh, &depol).get(1u64), want));
        // Readout r on |1⟩.
        let r = 0.07;
        assert!(close(exact(&x, &model(0.0, 0.0, r, 0.0)).get(0u64), r));
        // Idle e on |0⟩: only the X quarter of the channel flips the bit.
        let e = 0.2;
        let mut idle = Circuit::new(1, 1);
        idle.barrier_all().measure(0, 0);
        assert!(close(
            exact(&idle, &model(0.0, 0.0, 0.0, e)).get(1u64),
            0.25 * e
        ));
    }

    #[test]
    fn three_qubit_gates_use_the_two_qubit_rate_and_id_gates_draw_noise() {
        let p = 0.12;
        // CCX on |110⟩ → |111⟩, then each of its three qubits flips back
        // with probability 2p/3 under the two-qubit rate.
        let mut ccx = Circuit::new(3, 3);
        ccx.x(0).x(1).ccx(0, 1, 2).measure_all();
        let d = exact(&ccx, &model(0.0, p, 0.0, 0.0));
        assert!(
            close(d.get(0b111u64), (1.0 - 2.0 * p / 3.0).powi(3)),
            "{d:?}"
        );
        // An identity gate is still a noise site.
        let mut id = Circuit::new(1, 1);
        id.push_gate(Gate::Id, &[0]);
        id.measure(0, 0);
        assert!(close(
            exact(&id, &model(p, 0.0, 0.0, 0.0)).get(1u64),
            2.0 * p / 3.0
        ));
    }

    #[test]
    fn readout_flips_the_last_write_of_each_clbit_once() {
        // q0 = 1 is written to c0 and then overwritten by q1 = 0; q0 is
        // also written to c1. Each written clbit flips independently.
        let r = 0.1;
        let mut qc = Circuit::new(2, 3);
        qc.x(0).measure(0, 0).measure(1, 0).measure(0, 1);
        let d = exact(&qc, &model(0.0, 0.0, r, 0.0));
        assert!(close(d.get(0b010u64), (1.0 - r) * (1.0 - r)));
        assert!(close(d.get(0b011u64), r * (1.0 - r)));
        assert!(close(d.get(0b000u64), r * (1.0 - r)));
        assert!(close(d.get(0b001u64), r * r));
        assert!(close(d.total_mass(), 1.0));
    }

    #[test]
    fn circuits_outside_the_rule_are_declined() {
        let noise = model(0.01, 0.02, 0.03, 0.04);
        let mut mid = Circuit::new(2, 2);
        mid.h(0).measure(0, 0).cx(0, 1).measure(1, 1);
        let mut cond = Circuit::new(2, 2);
        cond.h(0).measure(0, 0);
        cond.cond_gate(Gate::X, &[1], 0, true);
        let mut reset = Circuit::new(2, 2);
        reset.h(0).reset(0);
        reset.measure_all();
        let mut idle_between = Circuit::new(2, 2);
        idle_between.h(0).measure(0, 0).barrier_all().measure(1, 1);
        let mut wide = Circuit::new(8, 8);
        wide.h(0).measure_all();
        for qc in [&mid, &cond, &reset, &idle_between, &wide] {
            assert!(DensityProgram::compile(qc, &noise).is_none(), "{qc:?}");
        }
        // A barrier between measurements is fine when idle noise is dead,
        // and one after the last measurement never matters.
        let no_idle = model(0.01, 0.02, 0.03, 0.0);
        assert!(DensityProgram::compile(&idle_between, &no_idle).is_some());
        let mut idle_after = Circuit::new(2, 2);
        idle_after.h(0).measure_all().barrier_all();
        assert!(DensityProgram::compile(&idle_after, &noise).is_some());
        let mut seven = Circuit::new(7, 7);
        seven.h(0).measure_all();
        assert!(DensityProgram::compile(&seven, &noise).is_some());
    }

    #[test]
    fn one_qubit_runs_and_their_noise_fuse_into_one_sweep() {
        let mut qc = Circuit::new(1, 1);
        qc.h(0).t(0).rx(0.3, 0).s(0).measure(0, 0);
        let program = DensityProgram::compile(&qc, &model(0.01, 0.0, 0.0, 0.0)).unwrap();
        assert_eq!(program.ops().len(), 1, "{:?}", program.ops());
    }

    /// A gate from a small code: every lowering tier, both operand
    /// orientations of the two-qubit gates, and the three-qubit gates.
    fn gate_of(code: u8, angle: f64) -> Gate {
        match code % 22 {
            0 => Gate::H,
            1 => Gate::T,
            2 => Gate::S,
            3 => Gate::Sdg,
            4 => Gate::SX,
            5 => Gate::Y,
            6 => Gate::X,
            7 => Gate::RX(angle),
            8 => Gate::RY(angle),
            9 => Gate::RZ(angle),
            10 => Gate::U(angle, 0.3, -angle),
            11 => Gate::Id,
            12 => Gate::CX,
            13 => Gate::CY,
            14 => Gate::CZ,
            15 => Gate::CH,
            16 => Gate::SWAP,
            17 => Gate::CRX(angle),
            18 => Gate::CP(angle),
            19 => Gate::CRY(angle),
            20 => Gate::CCX,
            _ => Gate::CSWAP,
        }
    }

    /// Builds a measure-at-end circuit on `n` qubits from raw draws; code
    /// 255 is a barrier. Gates wider than `n` are skipped.
    fn build(n: usize, ops: &[(u8, f64, Vec<usize>)]) -> Circuit {
        let mut qc = Circuit::new(n, n);
        for (code, angle, raw) in ops {
            if *code == 255 {
                qc.barrier_all();
                continue;
            }
            let gate = gate_of(*code, *angle);
            let arity = gate.num_qubits();
            if arity > n {
                continue;
            }
            let mut qubits: Vec<usize> = Vec::with_capacity(arity);
            for &r in raw.iter().take(arity) {
                let mut q = r % n;
                while qubits.contains(&q) {
                    q = (q + 1) % n;
                }
                qubits.push(q);
            }
            qc.push_gate(gate, &qubits);
        }
        qc.barrier_all();
        qc.measure_all();
        qc
    }

    fn arb_ops() -> impl proptest::Strategy<Value = Vec<(u8, f64, Vec<usize>)>> {
        use proptest::prelude::*;
        prop::collection::vec(
            (
                prop_oneof![0u8..22, Just(255u8)],
                -3.2f64..3.2,
                prop::collection::vec(0..usize::MAX, 3),
            ),
            0..14,
        )
    }

    /// One noisy trajectory through the public per-gate API: the semantics
    /// the density program must reproduce in distribution.
    fn trajectory(qc: &Circuit, noise: &NoiseModel, rng: &mut StdRng) -> OutcomeWord {
        let mut sv = StateVector::zero(qc.num_qubits());
        let mut word = OutcomeWord::zero();
        for op in qc.ops() {
            match op {
                Op::Gate { gate, qubits } => {
                    sv.apply_gate(*gate, qubits);
                    for (q, pauli) in noise.sample_gate_errors(gate, qubits, rng) {
                        sv.apply_pauli(q, pauli);
                    }
                }
                Op::Barrier { .. } => {
                    for (q, pauli) in noise.sample_idle_errors(qc.num_qubits(), rng) {
                        sv.apply_pauli(q, pauli);
                    }
                }
                Op::Measure { qubit, clbit } => {
                    let raw = sv.measure(*qubit, rng);
                    word.set_bit(*clbit, noise.sample_readout(raw, rng));
                }
                _ => unreachable!("measure-at-end circuits only"),
            }
        }
        word
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// With every rate zero the density program reproduces the
        /// noiseless plan's exact distribution to 1e-12, mass included —
        /// which pins the conjugated bra copy of every lowering tier.
        #[test]
        fn zero_rate_programs_match_the_exact_noiseless_distribution(
            n in 1usize..=7,
            ops in arb_ops(),
        ) {
            let qc = build(n, &ops);
            let density = exact(&qc, &NoiseModel::ideal());
            let reference = CircuitPlan::compile(&qc).branch_distribution().unwrap();
            proptest::prop_assert!(close(density.total_mass(), 1.0), "mass {}", density.total_mass());
            for (word, _) in density.iter().chain(reference.iter()) {
                let (a, b) = (density.get_word(word), reference.get_word(word));
                proptest::prop_assert!(close(a, b), "{word:?}: density {a} vs exact {b}");
            }
            let via_executor = Executor::exact_distribution(&qc).unwrap();
            proptest::prop_assert!(density.tvd(&via_executor) < 1e-12);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(12))]

        /// With all four channels live, every outcome's exact probability
        /// lies within 5σ (plus one count of discreteness) of a 20k-shot
        /// per-gate trajectory estimate built from the public
        /// `NoiseModel::sample_*` calls.
        #[test]
        fn noisy_programs_match_per_gate_trajectories(
            n in 1usize..=5,
            ops in arb_ops(),
            seed in 0u64..1000,
        ) {
            let qc = build(n, &ops);
            let noise = model(0.04, 0.08, 0.03, 0.06);
            let dist = exact(&qc, &noise);
            proptest::prop_assert!(close(dist.total_mass(), 1.0), "mass {}", dist.total_mass());
            let shots = 20_000u64;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut counts = crate::dist::Counts::new(n);
            for _ in 0..shots {
                counts.record_word(&trajectory(&qc, &noise, &mut rng));
            }
            let n_f = shots as f64;
            let mut outcomes: Vec<OutcomeWord> = dist.iter().map(|(w, _)| w.clone()).collect();
            outcomes.extend(counts.iter().map(|(w, _)| w.clone()));
            for word in outcomes {
                let p = dist.get_word(&word);
                let f = counts.count_word(&word) as f64 / n_f;
                let bound = 5.0 * (p * (1.0 - p) / n_f).sqrt() + 1.0 / n_f;
                proptest::prop_assert!((p - f).abs() <= bound, "{word:?}: exact {p} vs sampled {f}");
            }
        }
    }

    #[test]
    fn density_counts_are_bit_identical_across_thread_counts() {
        let mut qc = Circuit::new(4, 4);
        qc.h(0)
            .cx(0, 1)
            .ry(0.7, 2)
            .barrier_all()
            .ccx(0, 1, 3)
            .cz(2, 3);
        qc.measure_all();
        let noise = model(0.02, 0.05, 0.03, 0.01);
        assert!(DensityProgram::compile(&qc, &noise).is_some());
        let run = |threads: usize| {
            ExecutorConfig::new()
                .noise(noise.clone())
                .threads(threads)
                .build()
                .try_run(&qc, 3 * 1024 + 17, 0xD15EA5E)
                .unwrap()
        };
        let serial = run(1);
        assert_eq!(serial.shots(), 3 * 1024 + 17);
        assert_eq!(serial, run(3));
        assert_eq!(serial, run(4));
    }
}
