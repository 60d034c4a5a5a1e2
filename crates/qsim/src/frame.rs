//! Pauli-frame batch sampling for Clifford circuits.
//!
//! A per-shot tableau trajectory costs `O(n^2)` per measurement. Frame
//! sampling pays that price once per job instead: [`FramePlan::new`] runs
//! the circuit once, noiselessly, on the [`StabilizerSim`] to get a
//! *reference sample*, and every shot is then described by the Pauli
//! operator (its *frame*) separating its state from the reference's. A
//! frame is two bits per qubit, so 64 shots travel together as one `u64`
//! per qubit per Pauli component, and each gate costs a few word
//! operations for all 64 lanes:
//!
//! * frames start with `x = 0` and a random `z` — a uniformly random
//!   stabilizer of |0…0>, which later makes random measurements flip with
//!   probability ½ relative to the reference;
//! * Clifford gates conjugate the frame (H swaps x and z, S and S† do
//!   `z ^= x`, SX does `x ^= z`, CX/CZ/CY/SWAP their symplectic updates);
//!   Paulis leave it unchanged up to a phase;
//! * depolarizing, idle and readout noise are sampled per lane with the
//!   [`NoiseModel`] rates and XORed into the frame;
//! * a measurement records `flip[clbit] = x[q]` (plus readout flips) and
//!   randomizes `z[q]`; a reset clears `x[q]` and randomizes `z[q]`;
//! * a classically conditioned Pauli is XORed into the lanes whose
//!   recorded bit differs from the reference's, and its gate noise is
//!   sampled only on the lanes where the condition holds;
//! * each shot's outcome is the reference word XOR its lane's flips.
//!
//! This reproduces the per-shot trajectory distribution exactly for
//! Clifford circuits under Pauli noise. A conditional *non-Pauli* gate
//! would make the frame depend on the lane's quantum state rather than
//! only its classical record, so [`FramePlan::new`] refuses such circuits
//! and the executor keeps per-shot tableau trajectories for them.
//!
//! Reference: C. Gidney, "Stim: a fast stabilizer circuit simulator",
//! Quantum 5, 497 (2021), arXiv:2103.02202.

use crate::dist::Counts;
use crate::noise::{NoiseModel, Pauli};
use crate::stabilizer::StabilizerSim;
use crate::word::OutcomeWord;
use qcir::circuit::{Circuit, Op};
use qcir::gate::Gate;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shots propagated together: one lane per bit of a `u64`.
const LANES: u64 = 64;

/// How a gate conjugates a Pauli frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Conj {
    /// Paulis and the identity commute with the frame up to a phase.
    None,
    H,
    /// S and S† (they differ by a Z, which the frame ignores).
    S,
    SX,
    CX,
    CZ,
    CY,
    Swap,
}

impl Conj {
    /// # Panics
    ///
    /// Panics on non-Clifford gates.
    fn of(gate: Gate) -> Conj {
        match gate {
            Gate::Id | Gate::X | Gate::Y | Gate::Z => Conj::None,
            Gate::H => Conj::H,
            Gate::S | Gate::Sdg => Conj::S,
            Gate::SX => Conj::SX,
            Gate::CX => Conj::CX,
            Gate::CZ => Conj::CZ,
            Gate::CY => Conj::CY,
            Gate::SWAP => Conj::Swap,
            other => panic!("gate {other} is not Clifford"),
        }
    }
}

/// One compiled circuit operation.
#[derive(Debug, Clone, PartialEq)]
enum FrameOp {
    /// A gate: conjugate, then depolarize its `arity` qubits.
    Gate {
        conj: Conj,
        qubits: [usize; 2],
        arity: usize,
    },
    /// A classically conditioned Pauli with `(x, z)` components;
    /// `reference` is the conditioned clbit's value in the reference run
    /// when the gate was reached.
    CondPauli {
        x: bool,
        z: bool,
        qubit: usize,
        clbit: usize,
        value: bool,
        reference: bool,
    },
    Measure {
        qubit: usize,
        clbit: usize,
    },
    Reset {
        qubit: usize,
    },
    /// A barrier: one moment of idle noise on every qubit.
    Idle,
}

/// A Clifford circuit compiled for frame sampling, with its noiseless
/// reference sample.
#[derive(Debug, Clone, PartialEq)]
pub struct FramePlan {
    ops: Vec<FrameOp>,
    reference: OutcomeWord,
    num_qubits: usize,
    num_clbits: usize,
}

/// Per-worker frame buffers, reused across chunks so sampling does not
/// allocate once the counts table has seen every outcome.
#[derive(Debug, Clone)]
pub struct FrameScratch {
    x: Vec<u64>,
    z: Vec<u64>,
    flips: Vec<u64>,
    lane_words: Vec<u64>,
    word: OutcomeWord,
}

impl FramePlan {
    /// Compiles `circuit` and runs its noiseless reference sample on the
    /// tableau, with conditionals applied from the reference's own clbits
    /// and random measurement outcomes drawn from an RNG seeded with
    /// `seed` alone.
    ///
    /// Returns `None` when a conditional gate is not a Pauli (or the
    /// identity): such circuits need per-shot tableau trajectories.
    ///
    /// # Panics
    ///
    /// Panics on non-Clifford gates; validate with
    /// [`crate::backend::first_non_clifford`] first.
    pub fn new(circuit: &Circuit, seed: u64) -> Option<FramePlan> {
        let pauli_conditionals = circuit.ops().iter().all(|op| match op {
            Op::CondGate { gate, .. } => matches!(gate, Gate::Id | Gate::X | Gate::Y | Gate::Z),
            _ => true,
        });
        if !pauli_conditionals {
            return None;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sim = StabilizerSim::new(circuit.num_qubits());
        let mut reference = OutcomeWord::zero();
        let mut ops = Vec::with_capacity(circuit.ops().len());
        for op in circuit.ops() {
            match op {
                Op::Gate { gate, qubits } => {
                    sim.apply_gate(*gate, qubits);
                    ops.push(FrameOp::Gate {
                        conj: Conj::of(*gate),
                        qubits: [qubits[0], qubits.get(1).copied().unwrap_or(qubits[0])],
                        arity: qubits.len(),
                    });
                }
                Op::CondGate {
                    gate,
                    qubits,
                    clbit,
                    value,
                } => {
                    let held = reference.bit(*clbit);
                    if held == *value {
                        sim.apply_gate(*gate, qubits);
                    }
                    ops.push(FrameOp::CondPauli {
                        x: matches!(gate, Gate::X | Gate::Y),
                        z: matches!(gate, Gate::Z | Gate::Y),
                        qubit: qubits[0],
                        clbit: *clbit,
                        value: *value,
                        reference: held,
                    });
                }
                Op::Measure { qubit, clbit } => {
                    reference.set_bit(*clbit, sim.measure(*qubit, &mut rng));
                    ops.push(FrameOp::Measure {
                        qubit: *qubit,
                        clbit: *clbit,
                    });
                }
                Op::Reset { qubit } => {
                    sim.reset(*qubit, &mut rng);
                    ops.push(FrameOp::Reset { qubit: *qubit });
                }
                Op::Barrier { .. } => ops.push(FrameOp::Idle),
            }
        }
        Some(FramePlan {
            ops,
            reference,
            num_qubits: circuit.num_qubits(),
            num_clbits: circuit.num_clbits(),
        })
    }

    /// Number of compiled frame ops (gates, measurements, resets,
    /// conditionals and live noise sites) each chunk walks.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Fresh frame buffers sized for this plan.
    pub fn scratch(&self) -> FrameScratch {
        let blocks = self.num_clbits.div_ceil(64).max(1);
        FrameScratch {
            x: vec![0; self.num_qubits],
            z: vec![0; self.num_qubits],
            flips: vec![0; self.num_clbits],
            lane_words: vec![0; blocks],
            word: OutcomeWord::zero(),
        }
    }

    /// Samples `shots` shots under `noise`, 64 lanes at a time, and
    /// records their outcomes into `counts`. The RNG is consumed only for
    /// the lanes in use, so the result depends on `(shots, rng)` alone.
    pub fn sample_into(
        &self,
        noise: &NoiseModel,
        scratch: &mut FrameScratch,
        shots: u64,
        rng: &mut impl Rng,
        counts: &mut Counts,
    ) {
        let mut left = shots;
        while left > 0 {
            let lanes = left.min(LANES);
            let active = if lanes == LANES {
                u64::MAX
            } else {
                (1u64 << lanes) - 1
            };
            self.propagate(noise, scratch, active, rng);
            self.record(scratch, active, counts);
            left -= lanes;
        }
    }

    /// Runs one word of lanes through the circuit, leaving each lane's
    /// measurement flips in `scratch.flips`.
    fn propagate(&self, noise: &NoiseModel, s: &mut FrameScratch, active: u64, rng: &mut impl Rng) {
        s.x.fill(0);
        for z in &mut s.z {
            *z = rng.next_u64() & active;
        }
        s.flips.fill(0);
        for op in &self.ops {
            match *op {
                FrameOp::Gate {
                    conj,
                    qubits: [a, b],
                    arity,
                } => {
                    conjugate(conj, &mut s.x, &mut s.z, a, b);
                    let p = if arity == 1 {
                        noise.one_qubit_depol
                    } else {
                        noise.two_qubit_depol
                    };
                    if p > 0.0 {
                        depolarize(p, active, &mut s.x[a], &mut s.z[a], rng);
                        if arity == 2 {
                            depolarize(p, active, &mut s.x[b], &mut s.z[b], rng);
                        }
                    }
                }
                FrameOp::CondPauli {
                    x,
                    z,
                    qubit,
                    clbit,
                    value,
                    reference,
                } => {
                    let differs = s.flips[clbit];
                    if x {
                        s.x[qubit] ^= differs;
                    }
                    if z {
                        s.z[qubit] ^= differs;
                    }
                    if noise.one_qubit_depol > 0.0 {
                        let held = if reference == value {
                            !differs & active
                        } else {
                            differs
                        };
                        let (xq, zq) = (&mut s.x[qubit], &mut s.z[qubit]);
                        depolarize(noise.one_qubit_depol, held, xq, zq, rng);
                    }
                }
                FrameOp::Measure { qubit, clbit } => {
                    let mut flip = s.x[qubit];
                    if noise.readout_error > 0.0 {
                        flip ^= bernoulli_lanes(noise.readout_error, active, rng);
                    }
                    s.flips[clbit] = flip;
                    s.z[qubit] ^= rng.next_u64() & active;
                }
                FrameOp::Reset { qubit } => {
                    s.x[qubit] = 0;
                    s.z[qubit] = rng.next_u64() & active;
                }
                FrameOp::Idle => {
                    if noise.idle_error > 0.0 {
                        for q in 0..self.num_qubits {
                            idle(noise.idle_error, active, &mut s.x[q], &mut s.z[q], rng);
                        }
                    }
                }
            }
        }
    }

    /// Records every active lane's outcome: the reference word XOR the
    /// lane's flips.
    fn record(&self, s: &mut FrameScratch, active: u64, counts: &mut Counts) {
        let mut lanes = active;
        while lanes != 0 {
            let lane = lanes.trailing_zeros();
            lanes &= lanes - 1;
            for (block, out) in s.lane_words.iter_mut().enumerate() {
                let mut bits = 0u64;
                for (i, flip) in s.flips.iter().skip(64 * block).take(64).enumerate() {
                    bits |= ((flip >> lane) & 1) << i;
                }
                *out = self.reference.word(block) ^ bits;
            }
            s.word.assign_words(&s.lane_words);
            counts.record_word(&s.word);
        }
    }
}

/// Conjugates the frame through one Clifford gate on `a` (and `b`).
#[inline]
fn conjugate(conj: Conj, x: &mut [u64], z: &mut [u64], a: usize, b: usize) {
    match conj {
        Conj::None => {}
        Conj::H => std::mem::swap(&mut x[a], &mut z[a]),
        Conj::S => z[a] ^= x[a],
        Conj::SX => x[a] ^= z[a],
        Conj::CX => {
            x[b] ^= x[a];
            z[a] ^= z[b];
        }
        Conj::CZ => {
            z[a] ^= x[b];
            z[b] ^= x[a];
        }
        // CY = S(b) · CX · S†(b).
        Conj::CY => {
            z[a] ^= z[b] ^ x[b];
            x[b] ^= x[a];
            z[b] ^= x[a];
        }
        Conj::Swap => {
            x.swap(a, b);
            z.swap(a, b);
        }
    }
}

/// Calls `hit(lane_bit, rng)` for each lane of `lanes` whose Bernoulli
/// draw at probability `p` comes up, drawing lanes in ascending order.
#[inline]
fn for_each_hit<R: Rng>(p: f64, lanes: u64, rng: &mut R, mut hit: impl FnMut(u64, &mut R)) {
    let mut rest = lanes;
    while rest != 0 {
        let bit = rest & rest.wrapping_neg();
        rest ^= bit;
        if rng.gen_bool(p) {
            hit(bit, rng);
        }
    }
}

/// A mask with each lane of `lanes` set independently with probability `p`.
fn bernoulli_lanes(p: f64, lanes: u64, rng: &mut impl Rng) -> u64 {
    let mut hits = 0;
    for_each_hit(p, lanes, rng, |bit, _| hits |= bit);
    hits
}

/// The depolarizing channel of [`NoiseModel::sample_gate_errors`] on one
/// qubit's frame: each lane of `lanes` gets a uniformly random
/// non-identity Pauli with probability `p`.
fn depolarize(p: f64, lanes: u64, x: &mut u64, z: &mut u64, rng: &mut impl Rng) {
    for_each_hit(p, lanes, rng, |bit, rng| match Pauli::random(rng) {
        Pauli::X => *x ^= bit,
        Pauli::Y => {
            *x ^= bit;
            *z ^= bit;
        }
        Pauli::Z => *z ^= bit,
    });
}

/// The idle channel of [`NoiseModel::sample_idle_errors`] on one qubit's
/// frame: Z-biased (3:1) errors at rate `p` per lane.
fn idle(p: f64, lanes: u64, x: &mut u64, z: &mut u64, rng: &mut impl Rng) {
    for_each_hit(p, lanes, rng, |bit, rng| {
        if rng.gen_bool(0.75) {
            *z ^= bit;
        } else {
            *x ^= bit;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcir::math::Matrix;

    fn sample(qc: &Circuit, noise: &NoiseModel, shots: u64, seed: u64) -> Counts {
        let plan = FramePlan::new(qc, seed).expect("Pauli-only conditionals");
        let mut scratch = plan.scratch();
        let mut counts = Counts::new(qc.num_clbits());
        let mut rng = StdRng::seed_from_u64(seed ^ 1);
        plan.sample_into(noise, &mut scratch, shots, &mut rng, &mut counts);
        counts
    }

    /// The single-qubit Pauli with frame bits `(x, z)`, up to phase.
    fn pauli_matrix(x: bool, z: bool) -> Matrix {
        let gate = match (x, z) {
            (false, false) => Gate::Id,
            (true, false) => Gate::X,
            (false, true) => Gate::Z,
            (true, true) => Gate::Y,
        };
        gate.matrix()
    }

    #[test]
    fn conjugation_matches_the_gate_matrices() {
        // For every Clifford gate G and every frame P on its qubits, the
        // frame update must produce G P G† up to a phase.
        let gates = [
            Gate::Id,
            Gate::H,
            Gate::S,
            Gate::Sdg,
            Gate::SX,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::CX,
            Gate::CZ,
            Gate::CY,
            Gate::SWAP,
        ];
        for gate in gates {
            let arity = gate.num_qubits();
            let g = gate.matrix();
            for bits in 0..1usize << (2 * arity) {
                let mut x: Vec<u64> = (0..arity).map(|q| (bits >> q) as u64 & 1).collect();
                let mut z: Vec<u64> = (0..arity)
                    .map(|q| (bits >> (arity + q)) as u64 & 1)
                    .collect();
                // Qubit 0 is the most significant factor of the gate matrix.
                let frame = |x: &[u64], z: &[u64]| {
                    (1..arity).fold(pauli_matrix(x[0] == 1, z[0] == 1), |m, q| {
                        m.kron(&pauli_matrix(x[q] == 1, z[q] == 1))
                    })
                };
                let expected = g.matmul(&frame(&x, &z)).matmul(&g.dagger());
                conjugate(Conj::of(gate), &mut x, &mut z, 0, arity - 1);
                assert!(
                    frame(&x, &z).approx_eq_up_to_phase(&expected, 1e-12),
                    "{gate}: frame bits {bits:#b}"
                );
            }
        }
    }

    #[test]
    fn noiseless_bell_pairs_stay_correlated_and_balanced() {
        let mut qc = Circuit::new(2, 2);
        qc.h(0).cx(0, 1).measure_all();
        let counts = sample(&qc, &NoiseModel::ideal(), 4000, 3);
        assert_eq!(counts.count(0b01) + counts.count(0b10), 0);
        let p = counts.probability(0b11);
        assert!(
            (p - 0.5).abs() < 5.0 * (0.25f64 / 4000.0).sqrt(),
            "p11 = {p}"
        );
    }

    #[test]
    fn conditional_paulis_follow_each_lanes_own_record() {
        // Teleport-like: a random bit steers an X onto q1, so c1 always
        // copies c0, whatever the reference drew.
        let mut qc = Circuit::new(2, 2);
        qc.h(0).measure(0, 0);
        qc.cond_gate(Gate::X, &[1], 0, true);
        qc.measure(1, 1);
        let counts = sample(&qc, &NoiseModel::ideal(), 2000, 9);
        assert_eq!(counts.count(0b00) + counts.count(0b11), 2000, "{counts}");
        assert!(counts.count(0b11) > 800 && counts.count(0b00) > 800);
        // A non-Pauli conditional refuses frame sampling.
        let mut h = Circuit::new(2, 2);
        h.h(0).measure(0, 0);
        h.cond_gate(Gate::H, &[1], 0, true);
        assert!(FramePlan::new(&h, 1).is_none());
    }

    #[test]
    fn reset_and_readout_noise_act_per_lane() {
        let mut qc = Circuit::new(1, 1);
        qc.h(0).reset(0).measure(0, 0);
        assert_eq!(sample(&qc, &NoiseModel::ideal(), 500, 2).count(0), 500);
        let mut noise = NoiseModel::ideal();
        noise.readout_error = 0.2;
        let p = sample(&qc, &noise, 20_000, 4).probability(1);
        assert!(
            (p - 0.2).abs() < 5.0 * (0.16f64 / 20_000.0).sqrt(),
            "p = {p}"
        );
    }

    #[test]
    fn remeasuring_in_another_basis_is_random_again() {
        // The first outcome collapses q0; after H the second is a fresh
        // coin flip, independent of the first.
        let mut qc = Circuit::new(1, 2);
        qc.h(0).measure(0, 0).h(0).measure(0, 1);
        let counts = sample(&qc, &NoiseModel::ideal(), 8000, 12);
        for outcome in 0..4u64 {
            let p = counts.probability(outcome);
            assert!(
                (p - 0.25).abs() < 5.0 * (0.1875f64 / 8000.0).sqrt(),
                "{counts}"
            );
        }
    }

    /// Random Clifford op stream over 4 qubits and 4 clbits.
    type CliffordOp = (u8, usize, usize, u8);

    fn random_clifford(ops: &[CliffordOp]) -> Circuit {
        let mut qc = Circuit::new(4, 4);
        for &(kind, a, off, value) in ops {
            let b = (a + off) % 4;
            match kind {
                0 => qc.push_gate(Gate::H, &[a]),
                1 => qc.push_gate(Gate::S, &[a]),
                2 => qc.push_gate(Gate::SX, &[a]),
                3 => qc.push_gate(Gate::CX, &[a, b]),
                4 => qc.push_gate(Gate::CZ, &[a, b]),
                5 => qc.push_gate(Gate::CY, &[a, b]),
                6 => qc.push_gate(Gate::SWAP, &[a, b]),
                7 => qc.measure(a, b),
                8 => qc.reset(a),
                _ => {
                    let pauli = [Gate::X, Gate::Y, Gate::Z][off % 3];
                    qc.cond_gate(pauli, &[a], b, value == 1)
                }
            };
        }
        qc.measure_all();
        qc
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        /// Noiseless frame sampling reproduces the exact distribution of
        /// random dynamic Clifford circuits: every outcome within 5σ (plus
        /// one count) of the dense branch enumeration.
        #[test]
        fn frames_match_exact_distributions_of_random_dynamic_cliffords(
            ops in proptest::prop::collection::vec((0u8..10, 0usize..4, 1usize..4, 0u8..2), 1..24),
            seed in 0u64..1000,
        ) {
            let qc = random_clifford(&ops);
            let exact = crate::exec::Executor::exact_distribution(&qc).expect("4 qubits");
            let shots = 8192u64;
            let counts = sample(&qc, &NoiseModel::ideal(), shots, seed);
            let n = shots as f64;
            for word in exact.iter().map(|(w, _)| w).chain(counts.iter().map(|(w, _)| w)) {
                let p = exact.get_word(word);
                let f = counts.count_word(word) as f64 / n;
                let bound = 5.0 * (p * (1.0 - p) / n).sqrt() + 1.0 / n;
                proptest::prop_assert!((f - p).abs() <= bound, "{qc:?}: {word:?} exact {p} frames {f}");
            }
        }
    }

    #[test]
    fn wide_registers_record_every_block() {
        let mut qc = Circuit::new(3, 130);
        qc.x(0).h(1).cx(1, 2);
        qc.measure(0, 129).measure(1, 64).measure(2, 0);
        let counts = sample(&qc, &NoiseModel::ideal(), 300, 6);
        assert_eq!(counts.shots(), 300);
        for (word, _) in counts.iter() {
            assert!(word.bit(129));
            assert_eq!(word.bit(64), word.bit(0));
        }
        assert_eq!(counts.distinct_outcomes(), 2);
    }
}
