//! Noisy-path replay plans: per-gate kernels precompiled once, replayed
//! in segments between noise insertion points.
//!
//! Replay now serves only the noisy dense circuits the exact density path
//! ([`crate::density`]) declines: dynamic circuits (mid-circuit
//! measurement, resets, conditionals), circuits whose density matrix is
//! over [`crate::plan::BRANCH_AMPLITUDE_BUDGET`], and circuits with a
//! barrier carrying live idle noise between two measurements. Every other
//! noisy dense job samples whole words from an exact distribution.
//!
//! The compiled plans in [`crate::plan`] encode noiseless semantics —
//! fusion reassociates exactly the per-gate boundaries that Pauli noise
//! channels attach to. That used to leave every noisy dense trajectory on
//! [`StateVector::apply_gate`]'s per-gate path, re-deriving trig-heavy
//! matrix entries and kernel selection on every gate of every shot. A
//! [`NoisyPlan`] keeps the per-gate *boundaries* (so the RNG stream is
//! untouched) while hoisting classification and matrix synthesis to
//! compile time:
//!
//! * Gates whose arity-class depolarizing rate is zero draw no
//!   randomness, so consecutive runs of them compile into one
//!   [`NoisyOp::Segment`] — a warm replay of precompiled kernels with no
//!   noise bookkeeping at all.
//! * Gates that do attach noise become [`NoisyOp::NoisyGate`]: the same
//!   precompiled kernel, followed by exactly the per-qubit draws
//!   [`NoiseModel::sample_gate_errors`] makes.
//!
//! **Bit-identity is the contract**, asserted in the executor's tests and
//! the plan proptests: every [`ReplayKernel`] variant mirrors one
//! [`StateVector::apply_gate`] dispatch arm — same kernel, same operand
//! handling — and never lowers through the plan layer's reclassification
//! (multiplying by an exact complex `1` can still flip the sign bit of a
//! `-0.0`, so even mathematically identity-preserving rewrites are not
//! bitwise safe). Rate *values* are read live at replay time; only the
//! structural signature — which channels draw randomness, see
//! [`noise_signature`] — shapes the plan, so sweeping a rate reuses one
//! compiled plan.

use crate::kernels;
use crate::noise::{NoiseModel, Pauli};
use crate::state::StateVector;
use crate::word::OutcomeWord;
use qcir::circuit::{Circuit, Op};
use qcir::gate::{Gate, GateKind};
use qcir::math::{Matrix, C64};
use rand::Rng;

/// Which noise channels are structurally live (rate ≠ 0): bit 0 =
/// one-qubit depolarizing, bit 1 = two-qubit depolarizing, bit 2 = idle.
/// This is the part of a [`NoiseModel`] that changes *where* a trajectory
/// draws randomness; readout error attaches only to measurements, which
/// are explicit ops already, so it does not shape the plan.
pub fn noise_signature(noise: &NoiseModel) -> u8 {
    u8::from(noise.one_qubit_depol != 0.0)
        | (u8::from(noise.two_qubit_depol != 0.0) << 1)
        | (u8::from(noise.idle_error != 0.0) << 2)
}

/// One precompiled gate application, mirroring one
/// [`StateVector::apply_gate`] dispatch arm exactly (same kernel, same
/// operand handling) so replay is bit-identical to per-gate dispatch.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayKernel {
    /// [`GateKind::Identity`]: no state change (the gate still exists as
    /// a noise attachment point when its rate is live).
    Noop,
    /// [`GateKind::Diagonal1`].
    Diag1 {
        /// Target qubit.
        qubit: usize,
        /// Diagonal entry for the `|0>` component.
        d0: C64,
        /// Diagonal entry for the `|1>` component.
        d1: C64,
    },
    /// [`GateKind::FlipX`].
    FlipX {
        /// Target qubit.
        qubit: usize,
    },
    /// [`GateKind::Dense1`].
    Dense1 {
        /// Target qubit.
        qubit: usize,
        /// Row-major 2×2 entries.
        m: [C64; 4],
    },
    /// [`GateKind::ControlledDiagonal1`].
    CDiag1 {
        /// Control qubit.
        control: usize,
        /// Target qubit.
        target: usize,
        /// Diagonal entry for the target's `|0>` component.
        d0: C64,
        /// Diagonal entry for the target's `|1>` component.
        d1: C64,
    },
    /// [`GateKind::ControlledFlipX`].
    CFlipX {
        /// Control qubit.
        control: usize,
        /// Target qubit.
        target: usize,
    },
    /// [`GateKind::ControlledDense1`].
    CDense1 {
        /// Control qubit.
        control: usize,
        /// Target qubit.
        target: usize,
        /// Row-major 2×2 entries of the controlled block.
        m: [C64; 4],
    },
    /// [`GateKind::Swap`].
    Swap {
        /// First qubit.
        a: usize,
        /// Second qubit.
        b: usize,
    },
    /// [`GateKind::DoublyControlledFlipX`].
    Ccx {
        /// First control.
        c0: usize,
        /// Second control.
        c1: usize,
        /// Target qubit.
        target: usize,
    },
    /// [`GateKind::ControlledSwap`].
    CSwap {
        /// Control qubit.
        control: usize,
        /// First exchanged qubit.
        a: usize,
        /// Second exchanged qubit.
        b: usize,
    },
    /// [`GateKind::General`]: the matrix precomputed once, applied through
    /// the same scatter/gather kernel.
    DenseK {
        /// Gate operands (big-endian: first is the matrix MSB).
        qubits: Vec<usize>,
        /// The gate's dense unitary.
        matrix: Matrix,
    },
}

impl ReplayKernel {
    /// Precompiles one gate: the same match [`StateVector::apply_gate`]
    /// performs per call, done once per plan instead.
    fn compile(gate: Gate, qubits: &[usize]) -> ReplayKernel {
        match gate.kind() {
            GateKind::Identity => ReplayKernel::Noop,
            GateKind::Diagonal1 { d0, d1 } => ReplayKernel::Diag1 {
                qubit: qubits[0],
                d0,
                d1,
            },
            GateKind::FlipX => ReplayKernel::FlipX { qubit: qubits[0] },
            GateKind::Dense1 { m } => ReplayKernel::Dense1 {
                qubit: qubits[0],
                m,
            },
            GateKind::ControlledDiagonal1 { d0, d1 } => ReplayKernel::CDiag1 {
                control: qubits[0],
                target: qubits[1],
                d0,
                d1,
            },
            GateKind::ControlledFlipX => ReplayKernel::CFlipX {
                control: qubits[0],
                target: qubits[1],
            },
            GateKind::ControlledDense1 { m } => ReplayKernel::CDense1 {
                control: qubits[0],
                target: qubits[1],
                m,
            },
            GateKind::Swap => ReplayKernel::Swap {
                a: qubits[0],
                b: qubits[1],
            },
            GateKind::DoublyControlledFlipX => ReplayKernel::Ccx {
                c0: qubits[0],
                c1: qubits[1],
                target: qubits[2],
            },
            GateKind::ControlledSwap => ReplayKernel::CSwap {
                control: qubits[0],
                a: qubits[1],
                b: qubits[2],
            },
            GateKind::General => ReplayKernel::DenseK {
                qubits: qubits.to_vec(),
                matrix: gate.matrix(),
            },
        }
    }

    /// Applies the kernel — the exact call the matching
    /// [`StateVector::apply_gate`] arm makes.
    fn apply(&self, sv: &mut StateVector) {
        match self {
            ReplayKernel::Noop => {}
            ReplayKernel::Diag1 { qubit, d0, d1 } => {
                kernels::apply_diag1(sv.amps_mut(), *qubit, *d0, *d1);
            }
            ReplayKernel::FlipX { qubit } => kernels::apply_x(sv.amps_mut(), *qubit),
            ReplayKernel::Dense1 { qubit, m } => kernels::apply_1q(sv.amps_mut(), *qubit, m),
            ReplayKernel::CDiag1 {
                control,
                target,
                d0,
                d1,
            } => {
                kernels::apply_controlled_diag1(sv.amps_mut(), *control, *target, *d0, *d1);
            }
            ReplayKernel::CFlipX { control, target } => {
                kernels::apply_cx(sv.amps_mut(), *control, *target);
            }
            ReplayKernel::CDense1 { control, target, m } => {
                kernels::apply_controlled_1q(sv.amps_mut(), *control, *target, m);
            }
            ReplayKernel::Swap { a, b } => kernels::apply_swap(sv.amps_mut(), *a, *b),
            ReplayKernel::Ccx { c0, c1, target } => {
                kernels::apply_ccx(sv.amps_mut(), *c0, *c1, *target);
            }
            ReplayKernel::CSwap { control, a, b } => {
                kernels::apply_cswap(sv.amps_mut(), *control, *a, *b);
            }
            ReplayKernel::DenseK { qubits, matrix } => sv.apply_matrix(matrix, qubits),
        }
    }
}

/// One step of a [`NoisyPlan`] trajectory.
#[derive(Debug, Clone, PartialEq)]
pub enum NoisyOp {
    /// A maximal run of gates that draw no randomness, replayed warm.
    Segment(Vec<ReplayKernel>),
    /// A gate whose arity-class depolarizing rate is live: the kernel,
    /// then per-qubit error draws in operand order (exactly what
    /// [`NoiseModel::sample_gate_errors`] does).
    NoisyGate {
        /// The precompiled gate kernel.
        kernel: ReplayKernel,
        /// The gate's operands, in gate order (the draw order).
        qubits: Vec<usize>,
        /// `true` for one-qubit gates (selects `one_qubit_depol`).
        one_q: bool,
    },
    /// Computational-basis measurement, with readout error applied.
    Measure {
        /// Measured qubit.
        qubit: usize,
        /// Destination classical bit.
        clbit: usize,
    },
    /// Reset a qubit to `|0>`.
    Reset {
        /// Reset qubit.
        qubit: usize,
    },
    /// A classically conditioned gate; noise samples only when it fires,
    /// mirroring the per-gate path.
    Cond {
        /// The precompiled gate kernel.
        kernel: ReplayKernel,
        /// The gate's operands, in gate order.
        qubits: Vec<usize>,
        /// `true` for one-qubit gates.
        one_q: bool,
        /// Classical bit the condition reads.
        clbit: usize,
        /// Value the bit must hold for the gate to apply.
        value: bool,
    },
    /// A barrier moment with idle noise live: per-qubit idle draws
    /// (exactly [`NoiseModel::sample_idle_errors`]).
    Idle,
}

/// A compiled noisy trajectory program for the dense backend: per-gate
/// kernels with classification hoisted to compile time, segmented at the
/// points where the noise model draws randomness. Immutable once compiled
/// — cache and share freely across threads.
#[derive(Debug, Clone, PartialEq)]
pub struct NoisyPlan {
    num_qubits: usize,
    num_clbits: usize,
    ops: Vec<NoisyOp>,
    signature: u8,
}

impl NoisyPlan {
    /// Compiles `circuit` against `noise`'s structural signature (rate
    /// values do not matter — see [`noise_signature`]).
    pub fn compile(circuit: &Circuit, noise: &NoiseModel) -> NoisyPlan {
        let signature = noise_signature(noise);
        let one_q_live = signature & 1 != 0;
        let two_q_live = signature & 2 != 0;
        let idle_live = signature & 4 != 0;
        let mut ops: Vec<NoisyOp> = Vec::new();
        let mut segment: Vec<ReplayKernel> = Vec::new();
        let flush = |ops: &mut Vec<NoisyOp>, segment: &mut Vec<ReplayKernel>| {
            if !segment.is_empty() {
                ops.push(NoisyOp::Segment(std::mem::take(segment)));
            }
        };
        for op in circuit.ops() {
            match op {
                Op::Gate { gate, qubits } => {
                    let one_q = gate.num_qubits() == 1;
                    if if one_q { one_q_live } else { two_q_live } {
                        flush(&mut ops, &mut segment);
                        ops.push(NoisyOp::NoisyGate {
                            kernel: ReplayKernel::compile(*gate, qubits),
                            qubits: qubits.to_vec(),
                            one_q,
                        });
                    } else {
                        // The sampler early-returns on a zero rate — no
                        // randomness attaches, so the gate joins the warm
                        // run. An identity drops entirely (applies
                        // nothing and, with a dead rate, draws nothing).
                        let kernel = ReplayKernel::compile(*gate, qubits);
                        if kernel != ReplayKernel::Noop {
                            segment.push(kernel);
                        }
                    }
                }
                Op::CondGate {
                    gate,
                    qubits,
                    clbit,
                    value,
                } => {
                    flush(&mut ops, &mut segment);
                    ops.push(NoisyOp::Cond {
                        kernel: ReplayKernel::compile(*gate, qubits),
                        qubits: qubits.to_vec(),
                        one_q: gate.num_qubits() == 1,
                        clbit: *clbit,
                        value: *value,
                    });
                }
                Op::Measure { qubit, clbit } => {
                    flush(&mut ops, &mut segment);
                    ops.push(NoisyOp::Measure {
                        qubit: *qubit,
                        clbit: *clbit,
                    });
                }
                Op::Reset { qubit } => {
                    flush(&mut ops, &mut segment);
                    ops.push(NoisyOp::Reset { qubit: *qubit });
                }
                // With idle noise dead the sampler draws nothing and a
                // barrier is invisible to the replay.
                Op::Barrier { .. } => {
                    if idle_live {
                        flush(&mut ops, &mut segment);
                        ops.push(NoisyOp::Idle);
                    }
                }
            }
        }
        flush(&mut ops, &mut segment);
        NoisyPlan {
            num_qubits: circuit.num_qubits(),
            num_clbits: circuit.num_clbits(),
            ops,
            signature,
        }
    }

    /// Number of qubits the plan addresses.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Width of the classical register.
    pub fn num_clbits(&self) -> usize {
        self.num_clbits
    }

    /// The compiled step list, in execution order.
    pub fn ops(&self) -> &[NoisyOp] {
        &self.ops
    }

    /// The structural noise signature this plan was compiled against.
    pub fn signature(&self) -> u8 {
        self.signature
    }

    /// Runs one full noisy Monte-Carlo trajectory — bit-identical (final
    /// state, classical bits, and RNG stream) to the executor's per-gate
    /// dispatch loop on the dense backend, for any noise model matching
    /// this plan's signature.
    pub fn run_trajectory(
        &self,
        sv: &mut StateVector,
        noise: &NoiseModel,
        rng: &mut impl Rng,
        clbits: &mut OutcomeWord,
    ) {
        debug_assert_eq!(
            noise_signature(noise),
            self.signature,
            "replay plan compiled for a different noise signature"
        );
        sv.reinit();
        clbits.clear();
        for op in &self.ops {
            match op {
                NoisyOp::Segment(run) => {
                    for kernel in run {
                        kernel.apply(sv);
                    }
                }
                NoisyOp::NoisyGate {
                    kernel,
                    qubits,
                    one_q,
                } => {
                    kernel.apply(sv);
                    depolarize(sv, noise, rng, qubits, *one_q);
                }
                NoisyOp::Measure { qubit, clbit } => {
                    let raw = sv.measure(*qubit, rng);
                    let reported = noise.sample_readout(raw, rng);
                    clbits.set_bit(*clbit, reported);
                }
                NoisyOp::Reset { qubit } => sv.reset(*qubit, rng),
                NoisyOp::Cond {
                    kernel,
                    qubits,
                    one_q,
                    clbit,
                    value,
                } => {
                    if clbits.bit(*clbit) == *value {
                        kernel.apply(sv);
                        depolarize(sv, noise, rng, qubits, *one_q);
                    }
                }
                NoisyOp::Idle => {
                    for (q, pauli) in noise.sample_idle_errors(self.num_qubits, rng) {
                        sv.apply_pauli(q, pauli);
                    }
                }
            }
        }
    }
}

/// Post-gate depolarizing draws, matching
/// [`NoiseModel::sample_gate_errors`]'s stream exactly: same rate choice,
/// same per-qubit order, same draws. Errors apply inline instead of being
/// collected first — a Pauli application reads no randomness, so the
/// interleaving cannot perturb the stream.
fn depolarize(
    sv: &mut StateVector,
    noise: &NoiseModel,
    rng: &mut impl Rng,
    qubits: &[usize],
    one_q: bool,
) {
    let p = if one_q {
        noise.one_qubit_depol
    } else {
        noise.two_qubit_depol
    };
    if p == 0.0 {
        return;
    }
    for &q in qubits {
        if rng.gen_bool(p) {
            sv.apply_pauli(q, Pauli::random(rng));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The executor's per-gate noisy trajectory loop, replicated through
    /// public APIs — the reference the replay must match bit for bit.
    fn reference_trajectory(
        circuit: &Circuit,
        noise: &NoiseModel,
        sv: &mut StateVector,
        rng: &mut StdRng,
        clbits: &mut OutcomeWord,
    ) {
        sv.reinit();
        clbits.clear();
        for op in circuit.ops() {
            match op {
                Op::Gate { gate, qubits } => {
                    sv.apply_gate(*gate, qubits);
                    for (q, pauli) in noise.sample_gate_errors(gate, qubits, rng) {
                        sv.apply_pauli(q, pauli);
                    }
                }
                Op::CondGate {
                    gate,
                    qubits,
                    clbit,
                    value,
                } => {
                    if clbits.bit(*clbit) == *value {
                        sv.apply_gate(*gate, qubits);
                        for (q, pauli) in noise.sample_gate_errors(gate, qubits, rng) {
                            sv.apply_pauli(q, pauli);
                        }
                    }
                }
                Op::Measure { qubit, clbit } => {
                    let raw = sv.measure(*qubit, rng);
                    clbits.set_bit(*clbit, noise.sample_readout(raw, rng));
                }
                Op::Reset { qubit } => sv.reset(*qubit, rng),
                Op::Barrier { .. } => {
                    for (q, pauli) in noise.sample_idle_errors(sv.num_qubits(), rng) {
                        sv.apply_pauli(q, pauli);
                    }
                }
            }
        }
    }

    fn busy_circuit() -> Circuit {
        let mut qc = Circuit::new(3, 3);
        qc.h(0).cx(0, 1).t(2).rz(0.37, 1);
        qc.barrier_all();
        qc.swap(1, 2).ccx(0, 1, 2).push_gate(Gate::Id, &[0]);
        qc.measure(0, 0);
        qc.cond_gate(Gate::X, &[2], 0, true);
        qc.reset(1);
        qc.h(1).cz(1, 2);
        qc.measure(1, 1);
        qc.measure(2, 2);
        qc
    }

    #[test]
    fn segments_split_exactly_at_live_noise_sites() {
        let qc = busy_circuit();
        // Two-qubit noise only: 1q gates stay in warm segments, every
        // 2q/3q gate becomes a noisy step.
        let noise = NoiseModel {
            one_qubit_depol: 0.0,
            two_qubit_depol: 0.05,
            readout_error: 0.0,
            idle_error: 0.0,
            label: "2q-only".into(),
        };
        let plan = NoisyPlan::compile(&qc, &noise);
        let noisy_gates = plan
            .ops()
            .iter()
            .filter(|op| matches!(op, NoisyOp::NoisyGate { .. }))
            .count();
        let segments = plan
            .ops()
            .iter()
            .filter(|op| matches!(op, NoisyOp::Segment(_)))
            .count();
        assert_eq!(noisy_gates, 4, "CX, SWAP, CCX and CZ attach noise");
        assert!(segments >= 2, "1q runs stay warm: {:?}", plan.ops());
        // The dead idle channel erases the barrier entirely.
        assert!(plan.ops().iter().all(|op| !matches!(op, NoisyOp::Idle)));
        // A fully dead gate-noise signature folds everything unitary into
        // segments.
        let readout_only = NoiseModel {
            one_qubit_depol: 0.0,
            two_qubit_depol: 0.0,
            readout_error: 0.1,
            idle_error: 0.0,
            label: "readout-only".into(),
        };
        let plan = NoisyPlan::compile(&qc, &readout_only);
        assert!(plan
            .ops()
            .iter()
            .all(|op| !matches!(op, NoisyOp::NoisyGate { .. })));
        assert_eq!(plan.signature(), 0);
    }

    #[test]
    fn replay_is_bit_identical_to_per_gate_dispatch() {
        let qc = busy_circuit();
        let models = [
            NoiseModel::uniform_depolarizing(0.05),
            NoiseModel {
                one_qubit_depol: 0.02,
                two_qubit_depol: 0.0,
                readout_error: 0.1,
                idle_error: 0.03,
                label: "mixed".into(),
            },
            NoiseModel {
                one_qubit_depol: 0.0,
                two_qubit_depol: 0.07,
                readout_error: 0.0,
                idle_error: 0.0,
                label: "2q-only".into(),
            },
            NoiseModel::ideal(),
        ];
        for noise in models {
            let plan = NoisyPlan::compile(&qc, &noise);
            for seed in 0..25u64 {
                let mut rng_a = StdRng::seed_from_u64(seed);
                let mut rng_b = StdRng::seed_from_u64(seed);
                let mut sv_a = StateVector::zero(3);
                let mut sv_b = StateVector::zero(3);
                let mut word_a = OutcomeWord::zero();
                let mut word_b = OutcomeWord::zero();
                plan.run_trajectory(&mut sv_a, &noise, &mut rng_a, &mut word_a);
                reference_trajectory(&qc, &noise, &mut sv_b, &mut rng_b, &mut word_b);
                for (i, (a, b)) in sv_a.amplitudes().iter().zip(sv_b.amplitudes()).enumerate() {
                    assert_eq!(
                        (a.re.to_bits(), a.im.to_bits()),
                        (b.re.to_bits(), b.im.to_bits()),
                        "noise {} seed {seed} amp {i}: {a:?} vs {b:?}",
                        noise.label
                    );
                }
                assert_eq!(word_a, word_b, "noise {} seed {seed}", noise.label);
                // The RNG streams advanced identically too.
                assert_eq!(
                    rng_a.gen::<u64>(),
                    rng_b.gen::<u64>(),
                    "noise {} seed {seed}: RNG streams diverged",
                    noise.label
                );
            }
        }
    }
}
