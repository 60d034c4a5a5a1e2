//! Compiled circuit plans: lower a [`Circuit`] once, execute it many times.
//!
//! PR 2's kernel layer dispatches gate-by-gate off [`Gate::kind`] at apply
//! time — re-deriving trig-heavy matrix entries and kernel selection on
//! every shot, every trajectory, and every repeat of the grader's
//! candidate/reference runs. This module adds the missing compile step:
//!
//! * [`CircuitPlan::compile`] lowers a circuit into a flat
//!   `Vec<`[`PlannedOp`]`>` where every op carries its **precomputed**
//!   2×2/4×4 matrix entries (or a diagonal/permutation tag), so execution
//!   is a data-driven walk with no classification and no trigonometry.
//! * A **fusion pass** folds runs of single-qubit gates on the same qubit
//!   into one 2×2 block, folds neighboring 1q/2q gates into 4×4
//!   superblocks executed by the one-pass [`crate::kernels::apply_dense2`]
//!   kernel, and — when the cost model approves — merges an overlapping
//!   pair of two-qubit blocks into an 8×8 [`PlannedOp::Dense3`] triple
//!   ([`crate::kernels::apply_dense3`]): one sweep over the state where
//!   the unfused circuit paid several.
//! * [`CircuitPlan::branch_distribution`] evolves a plan once into the
//!   exact outcome distribution of a noiseless circuit with mid-circuit
//!   measurement, resets or classical conditionals, branching the state on
//!   each mid-circuit outcome (bounded by [`BRANCH_AMPLITUDE_BUDGET`]).
//! * [`PlanCache`] memoizes plans in an LRU keyed by [`fingerprint`]
//!   (a 128-bit content hash of the circuit), so the executor's repeated
//!   runs of identical circuits — the grader's candidate/reference pairs,
//!   `try_run_batch` suites, REPL loops — stop re-analyzing them. All
//!   [`crate::exec::Executor`]s share one process-wide cache by default
//!   ([`shared_cache`]).
//!
//! # Fusion legality
//!
//! The pass only ever reorders operations with **disjoint qubit support**
//! (which commute exactly) and composes matrices of operations on the
//! *same* support (matrix multiplication is exactly their sequential
//! action). Concretely, a pending block on qubit(s) `S` stays open —
//! accumulating later gates on `S` — until an operation whose support
//! intersects `S` but is not absorbable arrives; then the block is emitted
//! *before* that operation. Measurements, resets and classically
//! conditioned gates are fusion barriers **on their own qubits only**:
//! blocks on disjoint qubits legally commute past them. Fused blocks are
//! never reclassified by approximate comparison — structural tags
//! (diagonal / permutation / controlled) are only recovered through
//! *exact* entry comparisons, so a block that is "almost" diagonal runs as
//! a dense superblock rather than risking drift.
//!
//! # Cost model
//!
//! Densifying is not always a win: a long diagonal run executes as cheap
//! phase sweeps, and replacing two permutation sweeps with one dense 8×8
//! trades a little traffic for a lot of arithmetic. Before *changing an
//! op's tier* the fuser therefore consults a small calibration table (the
//! `COST_*` constants behind the fuser's decisions, derived from the
//! kernel bench rows): pending 1q blocks are absorbed into a 2q
//! superblock only when the merged sweep is cheaper than the parts, and a
//! `Dense3` triple forms only when one 8×8 sweep undercuts the cheapest
//! two-sweep split it replaces. Same-support composition is always free
//! and never declined. Each rejected densification bumps the
//! `plan.fusion_declined` counter, surfaced per plan through
//! [`CircuitPlan::fusion_declined`] and per cache through
//! [`PlanCacheStats::fusion_declined`].
//!
//! Plans encode **noiseless** semantics. Noisy measure-at-end circuits get
//! their own fused program over a `2n`-qubit density matrix
//! ([`crate::density`]), built from the same lowering, fusion pass and
//! kernels, with each noise channel a 4×4 op. Noisy circuits that path
//! declines (dynamic ones, or ρ over the budget) run per-shot
//! trajectories through [`crate::replay`]: per-gate kernels precompiled
//! once and replayed in segments between noise insertion points,
//! bit-identical to classified per-gate dispatch. The [`PlanCache`]
//! memoizes replay plans too ([`PlanCache::get_or_compile_noisy`]);
//! density programs depend on the noise rates and are never cached.
//!
//! # Cache keying and invalidation
//!
//! Plans are keyed by a 128-bit FNV-1a hash over the circuit's full
//! content: register sizes and every op's tag, gate name, exact parameter
//! bits (`f64::to_bits`), and operand indices. Editing a circuit therefore
//! *is* invalidation — the edited circuit hashes to a new key and compiles
//! fresh, while the old entry ages out of the LRU ([`PLAN_CACHE_CAPACITY`]
//! entries).

use crate::dist::Distribution;
use crate::kernels;
use crate::noise::NoiseModel;
use crate::replay::{noise_signature, NoisyPlan};
use crate::state::StateVector;
use crate::word::OutcomeWord;
use qcir::circuit::{Circuit, Op};
use qcir::gate::{Gate, GateKind};
use qcir::math::C64;
use qugen_telemetry::metrics::Counter;
use qugen_telemetry::{metrics, trace};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Interned registry handles for the plan layer: cache traffic and the
/// fusion ratio (`plan.fused_unitaries / plan.source_gates`, fewer is
/// better) accumulate process-wide.
struct PlanMetrics {
    cache_hits: &'static Counter,
    cache_misses: &'static Counter,
    cache_evictions: &'static Counter,
    compiles: &'static Counter,
    source_gates: &'static Counter,
    fused_unitaries: &'static Counter,
    fusion_declined: &'static Counter,
}

fn plan_metrics() -> &'static PlanMetrics {
    static METRICS: OnceLock<PlanMetrics> = OnceLock::new();
    METRICS.get_or_init(|| PlanMetrics {
        cache_hits: metrics::counter("plan.cache_hits"),
        cache_misses: metrics::counter("plan.cache_misses"),
        cache_evictions: metrics::counter("plan.cache_evictions"),
        compiles: metrics::counter("plan.compiles"),
        source_gates: metrics::counter("plan.source_gates"),
        fused_unitaries: metrics::counter("plan.fused_unitaries"),
        fusion_declined: metrics::counter("plan.fusion_declined"),
    })
}

/// Default capacity of the process-wide [`shared_cache`] (and of private
/// executor caches unless [`crate::exec::ExecutorConfig`] overrides it):
/// enough for a grading suite's working set of reference + candidate
/// circuits. Override at runtime with the `QUGEN_PLAN_CACHE` environment
/// variable.
pub const PLAN_CACHE_CAPACITY: usize = 64;

/// Why a `QUGEN_PLAN_CACHE` value failed to parse as a cache capacity
/// (what [`try_capacity_from_env`] reports).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanCacheParseError {
    /// The value was not an unsigned integer.
    NotAnInteger {
        /// The offending (trimmed) input.
        value: String,
    },
    /// The value parsed to zero; a cache that holds nothing cannot serve.
    ZeroCapacity,
}

impl std::fmt::Display for PlanCacheParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanCacheParseError::NotAnInteger { value } => {
                write!(
                    f,
                    "invalid plan-cache capacity `{value}` (expected a positive integer)"
                )
            }
            PlanCacheParseError::ZeroCapacity => {
                f.write_str("plan-cache capacity must be at least 1")
            }
        }
    }
}

impl std::error::Error for PlanCacheParseError {}

/// Parses a plan-cache capacity (the `QUGEN_PLAN_CACHE` grammar): a
/// positive integer. Surrounding whitespace is ignored — env values often
/// pick up stray spaces or a trailing newline from shell interpolation.
pub fn parse_capacity(s: &str) -> Result<usize, PlanCacheParseError> {
    let trimmed = s.trim();
    let cap: usize = trimmed
        .parse()
        .map_err(|_| PlanCacheParseError::NotAnInteger {
            value: trimmed.to_string(),
        })?;
    if cap == 0 {
        return Err(PlanCacheParseError::ZeroCapacity);
    }
    Ok(cap)
}

/// The plan-cache capacity the `QUGEN_PLAN_CACHE` environment variable
/// requests, or [`PLAN_CACHE_CAPACITY`] when unset.
///
/// Returns the typed [`PlanCacheParseError`] on a malformed value; callers
/// that would rather fail a CI job than fall back can `expect` it.
pub fn try_capacity_from_env() -> Result<usize, PlanCacheParseError> {
    match std::env::var("QUGEN_PLAN_CACHE") {
        Ok(v) => parse_capacity(&v),
        Err(_) => Ok(PLAN_CACHE_CAPACITY),
    }
}

/// [`try_capacity_from_env`] with a non-aborting fallback: a malformed
/// `QUGEN_PLAN_CACHE` logs a warning to stderr and resolves to
/// [`PLAN_CACHE_CAPACITY`], so a typo in the environment cannot abort a
/// long batch run half-way through.
pub fn capacity_from_env() -> usize {
    try_capacity_from_env().unwrap_or_else(|e| {
        eprintln!("warning: QUGEN_PLAN_CACHE: {e}; keeping {PLAN_CACHE_CAPACITY}");
        PLAN_CACHE_CAPACITY
    })
}

/// One lowered operation: kernel selection and matrix entries resolved at
/// compile time, so execution never consults [`Gate::kind`].
///
/// Two-qubit matrix conventions: `hi` is the **most significant** bit of
/// the 4×4 row/column index and diagonal entries are indexed
/// `(hi_bit << 1) | lo_bit`, matching [`crate::kernels::apply_dense2`] /
/// [`crate::kernels::apply_diag2`].
#[derive(Debug, Clone, PartialEq)]
pub enum PlannedOp {
    /// `diag(d[0], d[1])` on one qubit.
    Diag1 {
        /// Target qubit.
        qubit: usize,
        /// Diagonal entries for the `|0>` / `|1>` components.
        d: [C64; 2],
    },
    /// Pauli-X (index permutation) on one qubit.
    FlipX {
        /// Target qubit.
        qubit: usize,
    },
    /// A dense 2×2 block (row-major), possibly the fusion of many gates.
    Dense1 {
        /// Target qubit.
        qubit: usize,
        /// Row-major matrix entries.
        m: [C64; 4],
    },
    /// A two-qubit diagonal; entries exactly 1 are skipped at apply time.
    Diag2 {
        /// Most significant matrix bit.
        hi: usize,
        /// Least significant matrix bit.
        lo: usize,
        /// Diagonal entries indexed `(hi_bit << 1) | lo_bit`.
        d: [C64; 4],
    },
    /// CX: flips `target` where `control` is set.
    CFlipX {
        /// Control qubit.
        control: usize,
        /// Target qubit.
        target: usize,
    },
    /// A dense 2×2 on `target` applied where `control` is set.
    CDense1 {
        /// Control qubit.
        control: usize,
        /// Target qubit.
        target: usize,
        /// Row-major 2×2 entries of the controlled block.
        m: [C64; 4],
    },
    /// Exchanges the amplitudes of `a` and `b`.
    Swap {
        /// First qubit.
        a: usize,
        /// Second qubit.
        b: usize,
    },
    /// A dense 4×4 superblock — the fusion workhorse.
    Dense2 {
        /// Most significant matrix bit.
        hi: usize,
        /// Least significant matrix bit.
        lo: usize,
        /// Row-major 4×4 entries (boxed to keep the op slim).
        m: Box<[C64; 16]>,
    },
    /// A dense 8×8 superblock over a qubit triple — formed only when the
    /// cost model says one 8×8 sweep beats the sweeps it would replace
    /// (see the module docs).
    Dense3 {
        /// Most significant matrix bit (`q2 > q1 > q0`).
        q2: usize,
        /// Middle matrix bit.
        q1: usize,
        /// Least significant matrix bit.
        q0: usize,
        /// Row-major 8×8 entries (boxed to keep the op slim).
        m: Box<[C64; 64]>,
    },
    /// Toffoli (fused only into a pending triple on exactly its operands;
    /// otherwise a flush barrier, emitted as this cheap permutation).
    Ccx {
        /// First control.
        c0: usize,
        /// Second control.
        c1: usize,
        /// Target qubit.
        target: usize,
    },
    /// Fredkin (never fused).
    CSwap {
        /// Control qubit.
        control: usize,
        /// First exchanged qubit.
        a: usize,
        /// Second exchanged qubit.
        b: usize,
    },
    /// Totality fallback for [`GateKind::General`]: a precomputed dense
    /// matrix applied through the general scatter/gather kernel.
    DenseK {
        /// Gate operands (big-endian: first is the matrix MSB).
        qubits: Vec<usize>,
        /// The gate's dense unitary.
        matrix: qcir::math::Matrix,
    },
    /// Computational-basis measurement into a classical bit.
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
    /// A classically conditioned op: applied iff `clbit` last read `value`.
    /// The inner op is precompiled but never fused (its application is only
    /// known per measurement branch).
    Cond {
        /// The precompiled conditional operation.
        op: Box<PlannedOp>,
        /// Classical bit the condition reads.
        clbit: usize,
        /// Value the bit must hold for the op to apply.
        value: bool,
    },
}

impl PlannedOp {
    /// Calls `f` on every qubit the op acts on (a `Cond` reports its inner
    /// op's qubits).
    fn for_each_qubit(&self, mut f: impl FnMut(usize)) {
        match self {
            PlannedOp::Diag1 { qubit, .. }
            | PlannedOp::FlipX { qubit }
            | PlannedOp::Dense1 { qubit, .. }
            | PlannedOp::Measure { qubit, .. }
            | PlannedOp::Reset { qubit } => f(*qubit),
            PlannedOp::Diag2 { hi, lo, .. } | PlannedOp::Dense2 { hi, lo, .. } => {
                f(*hi);
                f(*lo);
            }
            PlannedOp::CFlipX { control, target }
            | PlannedOp::CDense1 {
                control, target, ..
            } => {
                f(*control);
                f(*target);
            }
            PlannedOp::Swap { a, b } => {
                f(*a);
                f(*b);
            }
            PlannedOp::Dense3 { q2, q1, q0, .. } => {
                f(*q2);
                f(*q1);
                f(*q0);
            }
            PlannedOp::Ccx { c0, c1, target } => {
                f(*c0);
                f(*c1);
                f(*target);
            }
            PlannedOp::CSwap { control, a, b } => {
                f(*control);
                f(*a);
                f(*b);
            }
            PlannedOp::DenseK { qubits, .. } => qubits.iter().copied().for_each(f),
            PlannedOp::Cond { op, .. } => op.for_each_qubit(f),
        }
    }

    /// The element-wise complex conjugate of a unitary op, moved up by
    /// `shift` qubits: `U ↦ U*` on qubits `q + shift`. A density matrix
    /// stored as a `2n`-qubit vector (ket bits low, bra bits high) evolves
    /// under `U` as the ket op followed by this copy with `shift = n`
    /// (see [`crate::density`]).
    ///
    /// # Panics
    ///
    /// Panics on `Measure`, `Reset` and `Cond`, which have no unitary
    /// conjugate.
    pub(crate) fn conj_shifted(&self, shift: usize) -> PlannedOp {
        match self {
            PlannedOp::Diag1 { qubit, d } => PlannedOp::Diag1 {
                qubit: qubit + shift,
                d: d.map(C64::conj),
            },
            PlannedOp::FlipX { qubit } => PlannedOp::FlipX {
                qubit: qubit + shift,
            },
            PlannedOp::Dense1 { qubit, m } => PlannedOp::Dense1 {
                qubit: qubit + shift,
                m: m.map(C64::conj),
            },
            PlannedOp::Diag2 { hi, lo, d } => PlannedOp::Diag2 {
                hi: hi + shift,
                lo: lo + shift,
                d: d.map(C64::conj),
            },
            PlannedOp::CFlipX { control, target } => PlannedOp::CFlipX {
                control: control + shift,
                target: target + shift,
            },
            PlannedOp::CDense1 { control, target, m } => PlannedOp::CDense1 {
                control: control + shift,
                target: target + shift,
                m: m.map(C64::conj),
            },
            PlannedOp::Swap { a, b } => PlannedOp::Swap {
                a: a + shift,
                b: b + shift,
            },
            PlannedOp::Dense2 { hi, lo, m } => PlannedOp::Dense2 {
                hi: hi + shift,
                lo: lo + shift,
                m: Box::new(m.map(C64::conj)),
            },
            PlannedOp::Dense3 { q2, q1, q0, m } => PlannedOp::Dense3 {
                q2: q2 + shift,
                q1: q1 + shift,
                q0: q0 + shift,
                m: Box::new(m.map(C64::conj)),
            },
            PlannedOp::Ccx { c0, c1, target } => PlannedOp::Ccx {
                c0: c0 + shift,
                c1: c1 + shift,
                target: target + shift,
            },
            PlannedOp::CSwap { control, a, b } => PlannedOp::CSwap {
                control: control + shift,
                a: a + shift,
                b: b + shift,
            },
            PlannedOp::DenseK { qubits, matrix } => {
                let dim = matrix.dim();
                let entries: Vec<C64> = (0..dim * dim)
                    .map(|k| matrix.get(k / dim, k % dim).conj())
                    .collect();
                PlannedOp::DenseK {
                    qubits: qubits.iter().map(|q| q + shift).collect(),
                    matrix: qcir::math::Matrix::from_rows(dim, &entries),
                }
            }
            PlannedOp::Measure { .. } | PlannedOp::Reset { .. } | PlannedOp::Cond { .. } => {
                unreachable!("only unitary ops have a conjugate")
            }
        }
    }

    /// The row-major 4×4 of a two-qubit op, oriented `hi = max`, `lo =
    /// min` (the fusion pass's convention); `None` for every other arity.
    fn dense4(&self) -> Option<(usize, usize, [C64; 16])> {
        let mut m = [C64::ZERO; 16];
        let (hi, lo) = match self {
            PlannedOp::Dense2 { hi, lo, m } => return Some((*hi, *lo, **m)),
            PlannedOp::Diag2 { hi, lo, d } => {
                for (k, &x) in d.iter().enumerate() {
                    m[k * 5] = x;
                }
                (*hi, *lo)
            }
            PlannedOp::Swap { a, b } => {
                m[0] = o();
                m[6] = o();
                m[9] = o();
                m[15] = o();
                (*a.max(b), *a.min(b))
            }
            PlannedOp::CFlipX { control, target } => {
                return PlannedOp::CDense1 {
                    control: *control,
                    target: *target,
                    m: [z(), o(), o(), z()],
                }
                .dense4();
            }
            PlannedOp::CDense1 {
                control,
                target,
                m: sub,
            } => {
                // Indices whose control bit is clear are untouched; the
                // control-set pair carries `sub` on the target bit.
                let (cbit, tbit) = if control > target { (2, 1) } else { (1, 2) };
                for i in 0..4 {
                    if i & cbit == 0 {
                        m[i * 5] = o();
                    }
                }
                for r in 0..2 {
                    for c in 0..2 {
                        m[(cbit | (r * tbit)) * 4 + (cbit | (c * tbit))] = sub[r * 2 + c];
                    }
                }
                (*control.max(target), *control.min(target))
            }
            _ => return None,
        };
        Some((hi, lo, m))
    }
}

/// An executable lowering of one circuit: flat op list, precomputed
/// matrices, fused superblocks. Immutable once compiled — cache and share
/// freely across threads.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitPlan {
    num_qubits: usize,
    num_clbits: usize,
    ops: Vec<PlannedOp>,
    measure_map: Vec<(usize, usize)>,
    source_gate_ops: usize,
    fusion_declined: usize,
    fingerprint: u128,
}

impl CircuitPlan {
    /// Lowers and fuses `circuit` (see the module docs for the fusion
    /// rules). Deterministic: equal circuits compile to equal plans.
    pub fn compile(circuit: &Circuit) -> CircuitPlan {
        let mut fuser = Fuser::new(circuit.num_qubits());
        let mut measure_map = Vec::new();
        let mut source_gate_ops = 0usize;
        for op in circuit.ops() {
            match op {
                Op::Gate { gate, qubits } => {
                    source_gate_ops += 1;
                    fuser.push_gate(*gate, qubits);
                }
                Op::Measure { qubit, clbit } => {
                    fuser.flush_qubit(*qubit);
                    measure_map.push((*qubit, *clbit));
                    fuser.emitted.push(PlannedOp::Measure {
                        qubit: *qubit,
                        clbit: *clbit,
                    });
                }
                Op::Reset { qubit } => {
                    fuser.flush_qubit(*qubit);
                    fuser.emitted.push(PlannedOp::Reset { qubit: *qubit });
                }
                Op::CondGate {
                    gate,
                    qubits,
                    clbit,
                    value,
                } => {
                    source_gate_ops += 1;
                    for &q in qubits {
                        fuser.flush_qubit(q);
                    }
                    if let Some(inner) = lower_gate_solo(*gate, qubits) {
                        fuser.emitted.push(PlannedOp::Cond {
                            op: Box::new(inner),
                            clbit: *clbit,
                            value: *value,
                        });
                    }
                }
                // Barriers are no-ops under the plan's noiseless semantics
                // (idle noise attaches to them only on the unfused path).
                Op::Barrier { .. } => {}
            }
        }
        fuser.flush_all();
        let fusion_declined = fuser.declined;
        let plan = CircuitPlan {
            num_qubits: circuit.num_qubits(),
            num_clbits: circuit.num_clbits(),
            ops: fuser.emitted,
            measure_map,
            source_gate_ops,
            fusion_declined,
            fingerprint: fingerprint(circuit),
        };
        let fused = plan.fused_unitaries();
        let m = plan_metrics();
        m.compiles.inc();
        m.source_gates.add(source_gate_ops as u64);
        m.fused_unitaries.add(fused as u64);
        m.fusion_declined.add(fusion_declined as u64);
        trace::event(
            "plan",
            "compile",
            &[
                ("qubits", plan.num_qubits as i128),
                ("source_gates", source_gate_ops as i128),
                ("fused_unitaries", fused as i128),
                ("fusion_declined", fusion_declined as i128),
            ],
        );
        plan
    }

    /// Number of qubits the plan addresses.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Width of the classical register.
    pub fn num_clbits(&self) -> usize {
        self.num_clbits
    }

    /// The lowered op list, in execution order.
    pub fn ops(&self) -> &[PlannedOp] {
        &self.ops
    }

    /// `(qubit, clbit)` pairs of every measurement, in program order (the
    /// sampling fast path's measurement map).
    pub fn measure_map(&self) -> &[(usize, usize)] {
        &self.measure_map
    }

    /// Gate ops in the source circuit (conditional gates included) — the
    /// denominator of the fusion ratio.
    pub fn source_gate_ops(&self) -> usize {
        self.source_gate_ops
    }

    /// Unitary ops that survived fusion (the numerator: fewer is better).
    pub fn fused_unitaries(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| {
                !matches!(
                    op,
                    PlannedOp::Measure { .. } | PlannedOp::Reset { .. } | PlannedOp::Cond { .. }
                )
            })
            .count()
    }

    /// Densifications the cost model declined during compilation: fusion
    /// opportunities whose parts were cheaper left as parts (see the
    /// module docs on the cost model).
    pub fn fusion_declined(&self) -> usize {
        self.fusion_declined
    }

    /// The 128-bit content hash of the source circuit (the cache key).
    pub fn fingerprint(&self) -> u128 {
        self.fingerprint
    }

    /// Applies every unitary op to `sv`, skipping measurements — the
    /// sampling fast path's prefix evolution for measure-at-end circuits.
    ///
    /// # Panics
    ///
    /// Panics on plans containing resets or conditional gates (their
    /// semantics branch on measurement outcomes; use
    /// [`CircuitPlan::branch_distribution`]).
    pub fn apply_unitary(&self, sv: &mut StateVector) {
        for op in &self.ops {
            match op {
                PlannedOp::Measure { .. } => {}
                PlannedOp::Reset { .. } | PlannedOp::Cond { .. } => {
                    panic!("apply_unitary requires a reset- and conditional-free plan")
                }
                unitary => apply_unitary_op(sv, unitary),
            }
        }
    }

    /// The exact noiseless outcome distribution over classical words, by
    /// branch enumeration (the principle of deferred measurement, Nielsen &
    /// Chuang §4.4).
    ///
    /// The plan is evolved once. Each mid-circuit `Measure` or `Reset`
    /// splits every live branch into its two outcomes, weighted by
    /// [`StateVector::prob_one`]; branches of (numerically) zero weight are
    /// dropped, so deterministic measurements never split. A `Cond` op
    /// applies only on branches whose classical word matches. Terminal
    /// measurements — those whose qubit no later op touches and whose
    /// clbit nothing later reads or rewrites — are read out from each
    /// branch's final probabilities, so measure-at-end circuits are a
    /// single branch. Every clbit write is last-writer-wins, as on the
    /// trajectory engines.
    ///
    /// Returns `None` when a split would leave more than
    /// [`BRANCH_AMPLITUDE_BUDGET`] live amplitudes (branches × `2^n`); a
    /// single unsplit branch is always allowed.
    pub fn branch_distribution(&self) -> Option<Distribution> {
        self.enumerate_branches().map(|(dist, _)| dist)
    }

    /// [`CircuitPlan::branch_distribution`] plus the number of branches
    /// alive at the final readout.
    pub(crate) fn enumerate_branches(&self) -> Option<(Distribution, usize)> {
        let terminal = self.terminal_measures();
        let dim = 1usize << self.num_qubits;
        let mut branches = vec![Branch {
            sv: StateVector::zero(self.num_qubits),
            weight: 1.0,
            word: OutcomeWord::zero(),
        }];
        for (op, &deferred) in self.ops.iter().zip(&terminal) {
            match op {
                PlannedOp::Measure { .. } if deferred => {}
                PlannedOp::Measure { qubit, clbit } => {
                    branches = split_branches(branches, *qubit, Some(*clbit), dim)?;
                }
                PlannedOp::Reset { qubit } => {
                    branches = split_branches(branches, *qubit, None, dim)?;
                }
                PlannedOp::Cond { op, clbit, value } => {
                    for b in branches.iter_mut().filter(|b| b.word.bit(*clbit) == *value) {
                        apply_unitary_op(&mut b.sv, op);
                    }
                }
                unitary => {
                    for b in &mut branches {
                        apply_unitary_op(&mut b.sv, unitary);
                    }
                }
            }
        }
        let readout: Vec<(usize, usize)> = self
            .ops
            .iter()
            .zip(&terminal)
            .filter_map(|(op, &deferred)| match op {
                PlannedOp::Measure { qubit, clbit } if deferred => Some((*qubit, *clbit)),
                _ => None,
            })
            .collect();
        let mut dist = Distribution::new(self.num_clbits);
        let mut word = OutcomeWord::zero();
        for b in &branches {
            for (basis, amp) in b.sv.amplitudes().iter().enumerate() {
                let p = b.weight * amp.norm_sqr();
                if p <= 1e-15 {
                    continue;
                }
                word.clone_from(&b.word);
                for &(q, c) in &readout {
                    word.set_bit(c, (basis >> q) & 1 == 1);
                }
                let existing = dist.get_word(&word);
                dist.set(word.clone(), existing + p);
            }
        }
        Some((dist, branches.len()))
    }

    /// Per op: `true` for a terminal measurement, which
    /// [`CircuitPlan::branch_distribution`] reads out at the end instead of
    /// branching on. A measurement is terminal when no later op other than
    /// a measurement acts on its qubit, no later `Cond` reads its clbit,
    /// and no later non-terminal measurement writes its clbit.
    fn terminal_measures(&self) -> Vec<bool> {
        let mut touched = vec![false; self.num_qubits];
        let mut read = vec![false; self.num_clbits];
        let mut rewritten = vec![false; self.num_clbits];
        let mut terminal = vec![false; self.ops.len()];
        for (i, op) in self.ops.iter().enumerate().rev() {
            match op {
                PlannedOp::Measure { qubit, clbit } => {
                    terminal[i] = !touched[*qubit] && !read[*clbit] && !rewritten[*clbit];
                    rewritten[*clbit] |= !terminal[i];
                }
                PlannedOp::Cond { op, clbit, .. } => {
                    read[*clbit] = true;
                    op.for_each_qubit(|q| touched[q] = true);
                }
                other => other.for_each_qubit(|q| touched[q] = true),
            }
        }
        terminal
    }
}

/// Live-amplitude budget for [`CircuitPlan::branch_distribution`]: 2^14
/// complex amplitudes (256 KiB). A fixed constant, so branch enumeration
/// never holds more memory than this beyond one ordinary state vector.
pub const BRANCH_AMPLITUDE_BUDGET: usize = 1 << 14;

/// Outcome probabilities at or below this weight are dropped when a branch
/// splits: they are floating-point residue of a deterministic outcome
/// (squared rounding errors, ~1e-32), never a real branch.
const BRANCH_PRUNE_WEIGHT: f64 = 1e-20;

/// One branch of [`CircuitPlan::branch_distribution`]: a normalized state,
/// its probability, and the classical word written so far.
struct Branch {
    sv: StateVector,
    weight: f64,
    word: OutcomeWord,
}

/// Splits every branch on the Z outcome of `qubit`: each outcome of
/// non-negligible weight becomes a collapsed child. `clbit` records a
/// measurement's outcome; `None` is a reset, which flips outcome-1 children
/// back to `|0>`. Returns `None` when the children would exceed
/// [`BRANCH_AMPLITUDE_BUDGET`].
fn split_branches(
    branches: Vec<Branch>,
    qubit: usize,
    clbit: Option<usize>,
    dim: usize,
) -> Option<Vec<Branch>> {
    let p_one: Vec<f64> = branches
        .iter()
        .map(|b| b.sv.prob_one(qubit).clamp(0.0, 1.0))
        .collect();
    let keep = |w: f64| w > BRANCH_PRUNE_WEIGHT;
    let children: usize = branches
        .iter()
        .zip(&p_one)
        .map(|(b, &p1)| keep(b.weight * (1.0 - p1)) as usize + keep(b.weight * p1) as usize)
        .sum();
    if children > 1 && children.saturating_mul(dim) > BRANCH_AMPLITUDE_BUDGET {
        return None;
    }
    let settle = |mut child: Branch, weight: f64, outcome: bool| {
        child.weight = weight;
        child.sv.collapse(qubit, outcome);
        match clbit {
            Some(c) => child.word.set_bit(c, outcome),
            None if outcome => kernels::apply_x(child.sv.amps_mut(), qubit),
            None => {}
        }
        child
    };
    let mut next = Vec::with_capacity(children);
    for (b, p1) in branches.into_iter().zip(p_one) {
        let (w0, w1) = (b.weight * (1.0 - p1), b.weight * p1);
        match (keep(w0), keep(w1)) {
            (true, true) => {
                let one = Branch {
                    sv: b.sv.clone(),
                    weight: w1,
                    word: b.word.clone(),
                };
                next.push(settle(b, w0, false));
                next.push(settle(one, w1, true));
            }
            (true, false) => next.push(settle(b, w0, false)),
            (false, true) => next.push(settle(b, w1, true)),
            (false, false) => {}
        }
    }
    Some(next)
}

/// Applies one unitary planned op to the state via the kernel layer.
///
/// # Panics
///
/// Panics (in the match) when handed `Measure`/`Reset`/`Cond`; callers
/// route those through branch logic.
pub(crate) fn apply_unitary_op(sv: &mut StateVector, op: &PlannedOp) {
    match op {
        PlannedOp::DenseK { qubits, matrix } => sv.apply_matrix(matrix, qubits),
        PlannedOp::Diag1 { qubit, d } => {
            kernels::apply_diag1(sv.amps_mut(), *qubit, d[0], d[1]);
        }
        PlannedOp::FlipX { qubit } => kernels::apply_x(sv.amps_mut(), *qubit),
        PlannedOp::Dense1 { qubit, m } => kernels::apply_1q(sv.amps_mut(), *qubit, m),
        PlannedOp::Diag2 { hi, lo, d } => kernels::apply_diag2(sv.amps_mut(), *hi, *lo, d),
        PlannedOp::CFlipX { control, target } => {
            kernels::apply_cx(sv.amps_mut(), *control, *target);
        }
        PlannedOp::CDense1 { control, target, m } => {
            kernels::apply_controlled_1q(sv.amps_mut(), *control, *target, m);
        }
        PlannedOp::Swap { a, b } => kernels::apply_swap(sv.amps_mut(), *a, *b),
        PlannedOp::Dense2 { hi, lo, m } => kernels::apply_dense2(sv.amps_mut(), *hi, *lo, m),
        PlannedOp::Dense3 { q2, q1, q0, m } => {
            kernels::apply_dense3(sv.amps_mut(), *q2, *q1, *q0, m);
        }
        PlannedOp::Ccx { c0, c1, target } => {
            kernels::apply_ccx(sv.amps_mut(), *c0, *c1, *target);
        }
        PlannedOp::CSwap { control, a, b } => {
            kernels::apply_cswap(sv.amps_mut(), *control, *a, *b);
        }
        PlannedOp::Measure { .. } | PlannedOp::Reset { .. } | PlannedOp::Cond { .. } => {
            unreachable!("non-unitary op routed to apply_unitary_op")
        }
    }
}

// ---------------------------------------------------------------------------
// Fusion pass
// ---------------------------------------------------------------------------

/// A pending fusion block: gates accumulated but not yet emitted.
enum Block {
    /// A 2×2 accumulator on one qubit.
    One { qubit: usize, m: [C64; 4] },
    /// A 4×4 accumulator on an (unordered) qubit pair, oriented
    /// `hi = max, lo = min`.
    Two { hi: usize, lo: usize, m: [C64; 16] },
    /// An 8×8 accumulator on a qubit triple, oriented `q2 > q1 > q0`
    /// (`q2` is the matrix MSB). Only formed when the cost model approves.
    Three {
        q2: usize,
        q1: usize,
        q0: usize,
        m: Box<[C64; 64]>,
    },
}

impl Block {
    /// Visits every qubit the block owns (for owner-table release).
    fn for_each_qubit(&self, mut f: impl FnMut(usize)) {
        match self {
            Block::One { qubit, .. } => f(*qubit),
            Block::Two { hi, lo, .. } => {
                f(*hi);
                f(*lo);
            }
            Block::Three { q2, q1, q0, .. } => {
                f(*q2);
                f(*q1);
                f(*q0);
            }
        }
    }
}

/// The fusion pass state: per-qubit ownership of pending blocks plus the
/// emitted tail.
pub(crate) struct Fuser {
    emitted: Vec<PlannedOp>,
    /// `owner[q]` = arena index of the pending block holding qubit `q`.
    owner: Vec<Option<usize>>,
    /// Block arena; `None` marks flushed/absorbed slots. Indices are never
    /// reused, so ascending index is creation order (deterministic flush
    /// ordering).
    blocks: Vec<Option<Block>>,
    /// Densifications the cost model rejected (see the module docs).
    declined: usize,
}

impl Fuser {
    pub(crate) fn new(num_qubits: usize) -> Self {
        Fuser {
            emitted: Vec::new(),
            owner: vec![None; num_qubits],
            blocks: Vec::new(),
            declined: 0,
        }
    }

    /// Routes one gate op into the pending blocks.
    fn push_gate(&mut self, gate: Gate, qubits: &[usize]) {
        match gate.kind() {
            GateKind::Identity => {}
            GateKind::Diagonal1 { d0, d1 } => self.push_1q(qubits[0], [d0, z(), z(), d1]),
            GateKind::FlipX => self.push_1q(qubits[0], [z(), o(), o(), z()]),
            GateKind::Dense1 { m } => self.push_1q(qubits[0], m),
            GateKind::ControlledDiagonal1 { .. }
            | GateKind::ControlledFlipX
            | GateKind::ControlledDense1 { .. }
            | GateKind::Swap => {
                let g = gate4_oriented(gate, qubits[0], qubits[1]);
                self.push_2q(qubits[0], qubits[1], g);
            }
            GateKind::DoublyControlledFlipX => {
                if !self.compose_perm3(qubits, ccx8) {
                    self.flush_qubits(qubits);
                    self.emitted.push(PlannedOp::Ccx {
                        c0: qubits[0],
                        c1: qubits[1],
                        target: qubits[2],
                    });
                }
            }
            GateKind::ControlledSwap => {
                if !self.compose_perm3(qubits, cswap8) {
                    self.flush_qubits(qubits);
                    self.emitted.push(PlannedOp::CSwap {
                        control: qubits[0],
                        a: qubits[1],
                        b: qubits[2],
                    });
                }
            }
            GateKind::General => {
                self.flush_qubits(qubits);
                self.emitted.push(PlannedOp::DenseK {
                    qubits: qubits.to_vec(),
                    matrix: gate.matrix(),
                });
            }
        }
    }

    /// Routes one already-lowered op into the pending blocks: one- and
    /// two-qubit ops fuse like gates (their matrices need not be unitary,
    /// so density-matrix channels fuse too), a Toffoli or Fredkin composes
    /// onto a pending triple on exactly its operands, and anything else
    /// flushes its qubits and is emitted as-is.
    pub(crate) fn push_op(&mut self, op: PlannedOp) {
        match op {
            PlannedOp::Diag1 { qubit, d } => self.push_1q(qubit, [d[0], z(), z(), d[1]]),
            PlannedOp::FlipX { qubit } => self.push_1q(qubit, [z(), o(), o(), z()]),
            PlannedOp::Dense1 { qubit, m } => self.push_1q(qubit, m),
            PlannedOp::Ccx { c0, c1, target } if self.compose_perm3(&[c0, c1, target], ccx8) => {}
            PlannedOp::CSwap { control, a, b } if self.compose_perm3(&[control, a, b], cswap8) => {}
            other => match other.dense4() {
                Some((hi, lo, m)) => self.push_2q(hi, lo, m),
                None => {
                    other.for_each_qubit(|q| self.flush_qubit(q));
                    self.emitted.push(other);
                }
            },
        }
    }

    /// Accumulates a 2×2 onto `q`'s pending block (left-multiplying: later
    /// gates compose on the left).
    fn push_1q(&mut self, q: usize, g: [C64; 4]) {
        match self.owner[q] {
            Some(idx) => match self.blocks[idx].as_mut().expect("owned blocks are live") {
                Block::One { m, .. } => *m = mul2(&g, m),
                Block::Two { hi, lo, m } => {
                    let expanded = if q == *hi {
                        expand_hi(&g)
                    } else {
                        debug_assert_eq!(q, *lo);
                        expand_lo(&g)
                    };
                    *m = mul4(&expanded, m);
                }
                Block::Three { q2, q1, q0, m } => {
                    let expanded = expand2_to8(&g, pos_in3(*q2, *q1, *q0, q));
                    **m = mul8(&expanded, m);
                }
            },
            None => self.alloc(Block::One { qubit: q, m: g }, &[q]),
        }
    }

    /// Accumulates a 4×4 (already oriented `hi = max(a, b)`) onto the
    /// pending blocks. Same-support composition is free; everything that
    /// would *change a tier* — absorbing pending 1q blocks into the
    /// superblock, or merging with a neighboring 2q block into a `Dense3`
    /// triple — goes through the cost model (see the module docs), and a
    /// rejected densification counts as declined.
    fn push_2q(&mut self, a: usize, b: usize, g: [C64; 16]) {
        let (hi, lo) = (a.max(b), a.min(b));
        // Same-support block already open: one sweep strictly replaces
        // two, so composing in place needs no cost check.
        if let (Some(ia), Some(ib)) = (self.owner[a], self.owner[b]) {
            if ia == ib {
                match self.blocks[ia].as_mut().expect("owned blocks are live") {
                    Block::Two { m, .. } => *m = mul4(&g, m),
                    Block::Three { q2, q1, q0, m } => {
                        let expanded =
                            expand4_to8(&g, pos_in3(*q2, *q1, *q0, hi), pos_in3(*q2, *q1, *q0, lo));
                        **m = mul8(&expanded, m);
                    }
                    Block::One { .. } => unreachable!("One blocks hold a single qubit"),
                }
                return;
            }
        }
        // A Three sharing only part of the support cannot absorb the gate
        // (the union would exceed three qubits): flush it. Legality, not a
        // cost decision, so it is not counted declined.
        for &q in &[a, b] {
            if let Some(idx) = self.owner[q] {
                if matches!(
                    self.blocks[idx].as_ref().expect("owned blocks are live"),
                    Block::Three { .. }
                ) {
                    self.flush_block(idx);
                }
            }
        }
        // Foreign Two blocks (one operand here, one outside) are Dense3
        // candidates. Two distinct ones union to four qubits, so both
        // flush (again legality, not cost).
        let cand = match (self.foreign_two(a), self.foreign_two(b)) {
            (Some(ia), Some(ib)) => {
                self.flush_block(ia);
                self.flush_block(ib);
                None
            }
            (one, other) => one.or(other),
        };
        // Pending One blocks on the operands: fold them into `g_eff` and
        // cost the absorbed form against keeping the parts.
        let mut ones: Vec<usize> = Vec::new();
        let mut g_eff = g;
        let mut ones_cost = 0.0;
        for &q in &[a, b] {
            if let Some(idx) = self.owner[q] {
                if let Some(Block::One { m, .. }) = self.blocks[idx].as_ref() {
                    let expanded = if q == hi { expand_hi(m) } else { expand_lo(m) };
                    g_eff = mul4(&g_eff, &expanded);
                    ones_cost += sweep_cost(classify_1q(q, m).as_ref());
                    ones.push(idx);
                }
            }
        }
        let gate_cost = sweep_cost(classify_2q(hi, lo, &g).as_ref());
        let absorb_cost = if ones.is_empty() {
            gate_cost
        } else {
            sweep_cost(classify_2q(hi, lo, &g_eff).as_ref())
        };
        let split_cost = ones_cost + gate_cost;
        // The candidate Two plus this gate (with its Ones folded in) spans
        // exactly three qubits: form a Dense3 iff the single 8×8 sweep
        // beats the cheapest two-sweep split.
        if let Some(cand_idx) = cand {
            let (chi, clo, cm) = match self.blocks[cand_idx]
                .as_ref()
                .expect("owned blocks are live")
            {
                Block::Two { hi, lo, m } => (*hi, *lo, *m),
                _ => unreachable!("candidates are Two blocks"),
            };
            let cand_cost = sweep_cost(classify_2q(chi, clo, &cm).as_ref());
            if COST_DENSE3 < cand_cost + absorb_cost.min(split_cost) {
                let third = if chi == hi || chi == lo { clo } else { chi };
                let mut t = [hi, lo, third];
                t.sort_unstable();
                let (q0, q1, q2) = (t[0], t[1], t[2]);
                // The candidate precedes the gate in program order; the
                // absorbed Ones are disjoint from the candidate's support,
                // so commuting them up to the gate is exact.
                let m8 = mul8(
                    &expand4_to8(&g_eff, pos_in3(q2, q1, q0, hi), pos_in3(q2, q1, q0, lo)),
                    &expand4_to8(&cm, pos_in3(q2, q1, q0, chi), pos_in3(q2, q1, q0, clo)),
                );
                self.consume(cand_idx);
                for &idx in &ones {
                    self.consume(idx);
                }
                self.alloc(
                    Block::Three {
                        q2,
                        q1,
                        q0,
                        m: Box::new(m8),
                    },
                    &[q2, q1, q0],
                );
                return;
            }
            // The parts are cheaper: decline the triple and emit the
            // candidate as-is.
            self.declined += 1;
            self.flush_block(cand_idx);
        }
        if !ones.is_empty() && absorb_cost >= split_cost {
            // Keeping the 1q sweeps separate is at least as cheap as
            // densifying them into the superblock: decline, emit them.
            self.declined += 1;
            for &idx in &ones {
                self.flush_block(idx);
            }
            self.alloc(Block::Two { hi, lo, m: g }, &[hi, lo]);
            return;
        }
        for &idx in &ones {
            self.consume(idx);
        }
        self.alloc(Block::Two { hi, lo, m: g_eff }, &[hi, lo]);
    }

    /// The arena index of a `Two` block owning `q` (necessarily foreign
    /// once same-support composition has been ruled out).
    fn foreign_two(&self, q: usize) -> Option<usize> {
        let idx = self.owner[q]?;
        match self.blocks[idx].as_ref().expect("owned blocks are live") {
            Block::Two { .. } => Some(idx),
            _ => None,
        }
    }

    /// Composes a 3q permutation gate onto a pending `Three` holding
    /// exactly its operands (free: the sweep count is unchanged). Returns
    /// `false` when no such block is open — the caller flushes and emits
    /// the specialized permutation op as before.
    fn compose_perm3(
        &mut self,
        qubits: &[usize],
        perm: impl Fn(usize, usize, usize) -> [C64; 64],
    ) -> bool {
        let (Some(i0), Some(i1), Some(i2)) = (
            self.owner[qubits[0]],
            self.owner[qubits[1]],
            self.owner[qubits[2]],
        ) else {
            return false;
        };
        if i0 != i1 || i0 != i2 {
            return false;
        }
        let Some(Block::Three { q2, q1, q0, m }) = self.blocks[i0].as_mut() else {
            return false;
        };
        let p = perm(
            pos_in3(*q2, *q1, *q0, qubits[0]),
            pos_in3(*q2, *q1, *q0, qubits[1]),
            pos_in3(*q2, *q1, *q0, qubits[2]),
        );
        **m = mul8(&p, m);
        true
    }

    /// Removes a pending block from the arena without emitting it (its
    /// content has been folded into another block).
    fn consume(&mut self, idx: usize) {
        let block = self.blocks[idx].take().expect("consumed block is live");
        block.for_each_qubit(|q| self.owner[q] = None);
    }

    fn alloc(&mut self, block: Block, qubits: &[usize]) {
        let idx = self.blocks.len();
        self.blocks.push(Some(block));
        for &q in qubits {
            self.owner[q] = Some(idx);
        }
    }

    /// Emits the pending block holding `q`, if any.
    fn flush_qubit(&mut self, q: usize) {
        if let Some(idx) = self.owner[q] {
            self.flush_block(idx);
        }
    }

    fn flush_qubits(&mut self, qubits: &[usize]) {
        for &q in qubits {
            self.flush_qubit(q);
        }
    }

    /// Emits every pending block in creation order.
    fn flush_all(&mut self) {
        for idx in 0..self.blocks.len() {
            if self.blocks[idx].is_some() {
                self.flush_block(idx);
            }
        }
    }

    /// Flushes every pending block and returns the emitted op list.
    pub(crate) fn finish(mut self) -> Vec<PlannedOp> {
        self.flush_all();
        self.emitted
    }

    /// Classifies and emits one pending block, releasing its qubits.
    fn flush_block(&mut self, idx: usize) {
        let block = self.blocks[idx].take().expect("flushed block is live");
        block.for_each_qubit(|q| self.owner[q] = None);
        let op = match block {
            Block::One { qubit, m } => classify_1q(qubit, &m),
            Block::Two { hi, lo, m } => classify_2q(hi, lo, &m),
            Block::Three { q2, q1, q0, m } => classify_3q(q2, q1, q0, m),
        };
        if let Some(op) = op {
            self.emitted.push(op);
        }
    }
}

/// Classifies a fused 2×2 block into the cheapest exact kernel tier.
/// Returns `None` for the exact identity (fused gates that cancelled).
fn classify_1q(qubit: usize, m: &[C64; 4]) -> Option<PlannedOp> {
    if m[1] == z() && m[2] == z() {
        if m[0] == o() && m[3] == o() {
            return None;
        }
        return Some(PlannedOp::Diag1 {
            qubit,
            d: [m[0], m[3]],
        });
    }
    if m[0] == z() && m[3] == z() && m[1] == o() && m[2] == o() {
        return Some(PlannedOp::FlipX { qubit });
    }
    Some(PlannedOp::Dense1 { qubit, m: *m })
}

/// Classifies a fused 4×4 block: diagonal, controlled, swap and identity
/// structure are recovered through exact entry comparisons; anything else
/// runs as a dense superblock.
fn classify_2q(hi: usize, lo: usize, m: &[C64; 16]) -> Option<PlannedOp> {
    let off_diag_zero = (0..4).all(|r| (0..4).all(|c| r == c || m[r * 4 + c] == z()));
    if off_diag_zero {
        let d = [m[0], m[5], m[10], m[15]];
        if d.iter().all(|&x| x == o()) {
            return None;
        }
        // Product-form diagonals drop back to a cheaper 1q pass.
        if d[0] == d[1] && d[2] == d[3] {
            return Some(PlannedOp::Diag1 {
                qubit: hi,
                d: [d[0], d[2]],
            });
        }
        if d[0] == d[2] && d[1] == d[3] {
            return Some(PlannedOp::Diag1 {
                qubit: lo,
                d: [d[0], d[1]],
            });
        }
        return Some(PlannedOp::Diag2 { hi, lo, d });
    }
    // Controlled on `hi`: the hi=0 subspace (indices 0, 1) is identity and
    // decoupled from the hi=1 subspace.
    let zeros_hi = [1, 2, 3, 4, 6, 7, 8, 12, 9, 13];
    if m[0] == o() && m[5] == o() && zeros_hi.iter().all(|&k| m[k] == z()) {
        return Some(controlled_op(hi, lo, [m[10], m[11], m[14], m[15]]));
    }
    // Controlled on `lo`: the lo=0 subspace (indices 0, 2) is identity.
    let zeros_lo = [1, 2, 3, 4, 6, 8, 9, 11, 12, 14];
    if m[0] == o() && m[10] == o() && zeros_lo.iter().all(|&k| m[k] == z()) {
        return Some(controlled_op(lo, hi, [m[5], m[7], m[13], m[15]]));
    }
    // Exact SWAP.
    let swap_ones = [6, 9]; // rows 1->2 and 2->1, i.e. m[1*4+2] and m[2*4+1]
    if m[0] == o()
        && m[15] == o()
        && swap_ones.iter().all(|&k| m[k] == o())
        && (0..16).all(|k| k == 0 || k == 6 || k == 9 || k == 15 || m[k] == z())
    {
        return Some(PlannedOp::Swap { a: hi, b: lo });
    }
    Some(PlannedOp::Dense2 {
        hi,
        lo,
        m: Box::new(*m),
    })
}

/// Classifies a fused 8×8 block: the exact identity (gates that
/// cancelled) vanishes; everything else runs dense. No finer structure is
/// recovered — a triple only forms when the cost model already proved the
/// dense sweep cheapest against the block's parts.
fn classify_3q(q2: usize, q1: usize, q0: usize, m: Box<[C64; 64]>) -> Option<PlannedOp> {
    let identity = (0..8).all(|r| (0..8).all(|c| m[r * 8 + c] == if r == c { o() } else { z() }));
    if identity {
        return None;
    }
    Some(PlannedOp::Dense3 { q2, q1, q0, m })
}

/// The cheapest controlled-form op for a controlled 2×2 sub-block.
fn controlled_op(control: usize, target: usize, sub: [C64; 4]) -> PlannedOp {
    if sub[0] == z() && sub[3] == z() && sub[1] == o() && sub[2] == o() {
        return PlannedOp::CFlipX { control, target };
    }
    PlannedOp::CDense1 {
        control,
        target,
        m: sub,
    }
}

/// Lowers one gate to a single planned op without fusion (the conditional-
/// gate path). Returns `None` for the identity.
pub(crate) fn lower_gate_solo(gate: Gate, qubits: &[usize]) -> Option<PlannedOp> {
    match gate.kind() {
        GateKind::Identity => None,
        GateKind::Diagonal1 { d0, d1 } => Some(PlannedOp::Diag1 {
            qubit: qubits[0],
            d: [d0, d1],
        }),
        GateKind::FlipX => Some(PlannedOp::FlipX { qubit: qubits[0] }),
        GateKind::Dense1 { m } => Some(PlannedOp::Dense1 {
            qubit: qubits[0],
            m,
        }),
        GateKind::ControlledDiagonal1 { .. }
        | GateKind::ControlledFlipX
        | GateKind::ControlledDense1 { .. }
        | GateKind::Swap => {
            let (hi, lo) = (qubits[0].max(qubits[1]), qubits[0].min(qubits[1]));
            classify_2q(hi, lo, &gate4_oriented(gate, qubits[0], qubits[1]))
        }
        GateKind::DoublyControlledFlipX => Some(PlannedOp::Ccx {
            c0: qubits[0],
            c1: qubits[1],
            target: qubits[2],
        }),
        GateKind::ControlledSwap => Some(PlannedOp::CSwap {
            control: qubits[0],
            a: qubits[1],
            b: qubits[2],
        }),
        GateKind::General => Some(PlannedOp::DenseK {
            qubits: qubits.to_vec(),
            matrix: gate.matrix(),
        }),
    }
}

// ---------------------------------------------------------------------------
// Fusion cost model
// ---------------------------------------------------------------------------

/// Relative cost of one full-state sweep, per kernel tier (see the module
/// docs): every tier pays the same memory-traffic base — at depth each
/// sweep streams the whole state, making traffic the binding cost — plus
/// an arithmetic term calibrated against the kernel bench rows
/// (`BENCH_sim_kernels.json`). Only the ratios matter; values are rounded
/// to quarter units so the thresholds stay stable across machines.
const COST_TRAFFIC: f64 = 2.0;
/// Pure index permutations (X, CX, SWAP): moves, no math.
const COST_PERM: f64 = COST_TRAFFIC + 0.25;
/// Diagonals: at most one phase multiply per amplitude.
const COST_DIAG: f64 = COST_TRAFFIC + 0.5;
/// Controlled dense 2×2: the butterfly on half the state.
const COST_CDENSE1: f64 = COST_TRAFFIC + 1.0;
/// Dense 2×2 butterfly: four complex MACs per pair.
const COST_DENSE1: f64 = COST_TRAFFIC + 2.0;
/// Dense 4×4: sixteen complex MACs per quad.
const COST_DENSE2: f64 = COST_TRAFFIC + 4.0;
/// Dense 8×8: sixty-four complex MACs per octet — the bar a triple fusion
/// must clear against the two sweeps it would replace.
const COST_DENSE3: f64 = COST_TRAFFIC + 8.0;

/// The modeled cost of executing a classified block as one sweep (`None`
/// — the exact identity — costs nothing).
fn sweep_cost(op: Option<&PlannedOp>) -> f64 {
    match op {
        None => 0.0,
        Some(PlannedOp::Diag1 { .. } | PlannedOp::Diag2 { .. }) => COST_DIAG,
        Some(PlannedOp::FlipX { .. } | PlannedOp::CFlipX { .. } | PlannedOp::Swap { .. }) => {
            COST_PERM
        }
        Some(PlannedOp::CDense1 { .. }) => COST_CDENSE1,
        Some(PlannedOp::Dense1 { .. }) => COST_DENSE1,
        Some(PlannedOp::Dense2 { .. }) => COST_DENSE2,
        // Block classification never yields the remaining variants; cost
        // anything unexpected as fully dense.
        Some(_) => COST_DENSE3,
    }
}

// ---------------------------------------------------------------------------
// Small exact matrix algebra (compile-time only)
// ---------------------------------------------------------------------------

#[inline]
fn z() -> C64 {
    C64::ZERO
}

#[inline]
fn o() -> C64 {
    C64::ONE
}

/// `a · b` for row-major 2×2 matrices.
fn mul2(a: &[C64; 4], b: &[C64; 4]) -> [C64; 4] {
    [
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    ]
}

/// `a · b` for row-major 4×4 matrices, skipping exact-zero terms so
/// structural zeros survive composition exactly.
fn mul4(a: &[C64; 16], b: &[C64; 16]) -> [C64; 16] {
    let mut out = [C64::ZERO; 16];
    for r in 0..4 {
        for k in 0..4 {
            let ark = a[r * 4 + k];
            if ark == C64::ZERO {
                continue;
            }
            for c in 0..4 {
                let bkc = b[k * 4 + c];
                if bkc != C64::ZERO {
                    out[r * 4 + c] += ark * bkc;
                }
            }
        }
    }
    out
}

/// `m ⊗ I`: the 2×2 acting on the `hi` bit of a 4×4.
fn expand_hi(m: &[C64; 4]) -> [C64; 16] {
    let mut out = [C64::ZERO; 16];
    for r in 0..2 {
        for c in 0..2 {
            out[(r * 2) * 4 + c * 2] = m[r * 2 + c];
            out[(r * 2 + 1) * 4 + c * 2 + 1] = m[r * 2 + c];
        }
    }
    out
}

/// `I ⊗ m`: the 2×2 acting on the `lo` bit of a 4×4.
fn expand_lo(m: &[C64; 4]) -> [C64; 16] {
    let mut out = [C64::ZERO; 16];
    for r in 0..2 {
        for c in 0..2 {
            out[r * 4 + c] = m[r * 2 + c];
            out[(r + 2) * 4 + c + 2] = m[r * 2 + c];
        }
    }
    out
}

/// The gate's 4×4 oriented so `max(q0, q1)` is the matrix MSB. Gate
/// matrices put operand 0 in the MSB, so when operand 0 is the *smaller*
/// qubit the two bit roles are transposed (an exact entry permutation).
fn gate4_oriented(gate: Gate, q0: usize, q1: usize) -> [C64; 16] {
    let matrix = gate.matrix();
    debug_assert_eq!(matrix.dim(), 4);
    let mut m = [C64::ZERO; 16];
    let permute = q0 < q1;
    for r in 0..4 {
        for c in 0..4 {
            let (pr, pc) = if permute {
                (swap_bits2(r), swap_bits2(c))
            } else {
                (r, c)
            };
            m[pr * 4 + pc] = matrix.get(r, c);
        }
    }
    m
}

/// Swaps the two bits of a 2-bit index.
#[inline]
fn swap_bits2(i: usize) -> usize {
    ((i & 1) << 1) | (i >> 1)
}

/// `a · b` for row-major 8×8 matrices, skipping exact-zero terms so
/// structural zeros survive composition exactly.
fn mul8(a: &[C64; 64], b: &[C64; 64]) -> [C64; 64] {
    let mut out = [C64::ZERO; 64];
    for r in 0..8 {
        for k in 0..8 {
            let ark = a[r * 8 + k];
            if ark == C64::ZERO {
                continue;
            }
            for c in 0..8 {
                let bkc = b[k * 8 + c];
                if bkc != C64::ZERO {
                    out[r * 8 + c] += ark * bkc;
                }
            }
        }
    }
    out
}

/// The bit position (2 = MSB) of `q` within the sorted triple
/// `q2 > q1 > q0`.
#[inline]
fn pos_in3(q2: usize, q1: usize, q0: usize, q: usize) -> usize {
    if q == q2 {
        2
    } else if q == q1 {
        1
    } else {
        debug_assert_eq!(q, q0);
        0
    }
}

/// The 2×2 `m` acting on bit `pos` (0 = LSB) of an 8×8.
fn expand2_to8(m: &[C64; 4], pos: usize) -> [C64; 64] {
    let mut out = [C64::ZERO; 64];
    for r in 0..8 {
        for c in 0..8 {
            if (r & !(1 << pos)) != (c & !(1 << pos)) {
                continue;
            }
            out[r * 8 + c] = m[((r >> pos) & 1) * 2 + ((c >> pos) & 1)];
        }
    }
    out
}

/// The 4×4 `m` acting on bits `pos_hi` (its MSB) and `pos_lo` (its LSB)
/// of an 8×8; the remaining bit is untouched.
fn expand4_to8(m: &[C64; 16], pos_hi: usize, pos_lo: usize) -> [C64; 64] {
    debug_assert_ne!(pos_hi, pos_lo);
    let keep = !((1usize << pos_hi) | (1 << pos_lo)) & 0b111;
    let mut out = [C64::ZERO; 64];
    for r in 0..8 {
        for c in 0..8 {
            if (r & keep) != (c & keep) {
                continue;
            }
            let ri = (((r >> pos_hi) & 1) << 1) | ((r >> pos_lo) & 1);
            let ci = (((c >> pos_hi) & 1) << 1) | ((c >> pos_lo) & 1);
            out[r * 8 + c] = m[ri * 4 + ci];
        }
    }
    out
}

/// The 8×8 permutation of a Toffoli with controls at bit positions
/// `pc0`/`pc1` and target at `pt` (positions within a sorted triple).
fn ccx8(pc0: usize, pc1: usize, pt: usize) -> [C64; 64] {
    let mut out = [C64::ZERO; 64];
    for i in 0..8 {
        let j = if (i >> pc0) & 1 == 1 && (i >> pc1) & 1 == 1 {
            i ^ (1 << pt)
        } else {
            i
        };
        out[j * 8 + i] = C64::ONE;
    }
    out
}

/// The 8×8 permutation of a Fredkin with control at bit position `pc`
/// exchanging bits `pa` and `pb`.
fn cswap8(pc: usize, pa: usize, pb: usize) -> [C64; 64] {
    let mut out = [C64::ZERO; 64];
    for i in 0..8 {
        let j = if (i >> pc) & 1 == 1 && ((i >> pa) & 1) != ((i >> pb) & 1) {
            i ^ (1 << pa) ^ (1 << pb)
        } else {
            i
        };
        out[j * 8 + i] = C64::ONE;
    }
    out
}

// ---------------------------------------------------------------------------
// Fingerprinting and the plan cache
// ---------------------------------------------------------------------------

/// 128-bit FNV-1a content hash of a circuit: register sizes plus every
/// op's tag, gate name, exact parameter bits and operand indices. Equal
/// circuits hash equal; at 128 bits, accidental collisions are out of
/// reach for any realistic workload.
pub fn fingerprint(circuit: &Circuit) -> u128 {
    let mut h = Fnv128::new();
    h.write_usize(circuit.num_qubits());
    h.write_usize(circuit.num_clbits());
    for op in circuit.ops() {
        match op {
            Op::Gate { gate, qubits } => {
                h.write_u8(1);
                h.write_gate(gate);
                h.write_indices(qubits);
            }
            Op::Measure { qubit, clbit } => {
                h.write_u8(2);
                h.write_usize(*qubit);
                h.write_usize(*clbit);
            }
            Op::Reset { qubit } => {
                h.write_u8(3);
                h.write_usize(*qubit);
            }
            Op::Barrier { qubits } => {
                h.write_u8(4);
                h.write_indices(qubits);
            }
            Op::CondGate {
                gate,
                qubits,
                clbit,
                value,
            } => {
                h.write_u8(5);
                h.write_gate(gate);
                h.write_indices(qubits);
                h.write_usize(*clbit);
                h.write_u8(u8::from(*value));
            }
        }
    }
    h.finish()
}

struct Fnv128(u128);

impl Fnv128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;

    fn new() -> Self {
        Fnv128(Self::OFFSET)
    }

    #[inline]
    fn write_u8(&mut self, b: u8) {
        self.0 = (self.0 ^ u128::from(b)).wrapping_mul(Self::PRIME);
    }

    fn write_usize(&mut self, x: usize) {
        for b in (x as u64).to_le_bytes() {
            self.write_u8(b);
        }
    }

    fn write_indices(&mut self, xs: &[usize]) {
        self.write_usize(xs.len());
        for &x in xs {
            self.write_usize(x);
        }
    }

    fn write_gate(&mut self, gate: &Gate) {
        for b in gate.name().bytes() {
            self.write_u8(b);
        }
        for p in gate.params() {
            for b in p.to_bits().to_le_bytes() {
                self.write_u8(b);
            }
        }
    }

    fn finish(&self) -> u128 {
        self.0
    }
}

/// An LRU of compiled plans keyed by [`fingerprint`]. Wrap it in a mutex
/// and share it (the executor does, via [`shared_cache`] by default): hits
/// return the `Arc` without touching the circuit again.
#[derive(Debug)]
pub struct PlanCache {
    cap: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    fusion_declined: u64,
    map: HashMap<u128, (u64, Arc<CircuitPlan>)>,
    /// Noisy replay plans, keyed by circuit fingerprint plus the noise
    /// model's structural signature (which channels draw randomness).
    noisy: HashMap<(u128, u8), (u64, Arc<NoisyPlan>)>,
}

impl PlanCache {
    /// An empty cache evicting least-recently-used entries past `cap`
    /// (clamped to ≥ 1).
    pub fn new(cap: usize) -> Self {
        PlanCache {
            cap: cap.max(1),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            fusion_declined: 0,
            map: HashMap::new(),
            noisy: HashMap::new(),
        }
    }

    /// The cached plan for `circuit`, compiling and inserting on miss.
    /// Traffic is double-counted on purpose: into this cache's own
    /// [`PlanCacheStats`] and into the process-wide registry
    /// (`plan.cache_hits` / `plan.cache_misses` / `plan.cache_evictions`),
    /// which aggregates over every cache in the process.
    pub fn get_or_compile(&mut self, circuit: &Circuit) -> Arc<CircuitPlan> {
        let key = fingerprint(circuit);
        self.tick += 1;
        if let Some((last_used, plan)) = self.map.get_mut(&key) {
            *last_used = self.tick;
            self.hits += 1;
            plan_metrics().cache_hits.inc();
            return Arc::clone(plan);
        }
        self.misses += 1;
        plan_metrics().cache_misses.inc();
        let plan = Arc::new(CircuitPlan::compile(circuit));
        self.fusion_declined += plan.fusion_declined() as u64;
        if self.map.len() >= self.cap {
            if let Some(&oldest) = self.map.iter().min_by_key(|(_, (t, _))| *t).map(|(k, _)| k) {
                self.map.remove(&oldest);
                self.evictions += 1;
                plan_metrics().cache_evictions.inc();
            }
        }
        self.map.insert(key, (self.tick, Arc::clone(&plan)));
        plan
    }

    /// The cached noisy replay plan for `circuit` under `noise`'s channel
    /// signature, compiling and inserting on miss. Shares this cache's
    /// counters; the noisy map has its own `cap`-entry LRU budget. Rate
    /// *values* are not part of the key — replay reads them live — so
    /// sweeping a rate reuses one compiled plan.
    pub fn get_or_compile_noisy(
        &mut self,
        circuit: &Circuit,
        noise: &NoiseModel,
    ) -> Arc<NoisyPlan> {
        let key = (fingerprint(circuit), noise_signature(noise));
        self.tick += 1;
        if let Some((last_used, plan)) = self.noisy.get_mut(&key) {
            *last_used = self.tick;
            self.hits += 1;
            plan_metrics().cache_hits.inc();
            return Arc::clone(plan);
        }
        self.misses += 1;
        plan_metrics().cache_misses.inc();
        let plan = Arc::new(NoisyPlan::compile(circuit, noise));
        if self.noisy.len() >= self.cap {
            if let Some(&oldest) = self
                .noisy
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(k, _)| k)
            {
                self.noisy.remove(&oldest);
                self.evictions += 1;
                plan_metrics().cache_evictions.inc();
            }
        }
        self.noisy.insert(key, (self.tick, Arc::clone(&plan)));
        plan
    }

    /// The eviction threshold this cache was built with.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Cached plan count (noiseless and noisy replay plans).
    pub fn len(&self) -> usize {
        self.map.len() + self.noisy.len()
    }

    /// `true` when no plan is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty() && self.noisy.is_empty()
    }

    /// Lookup hits since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup misses (compiles) since construction.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// LRU evictions since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Every counter and size in one copy — what
    /// [`crate::exec::Executor::plan_cache_stats`] and the serve `stats`
    /// op surface.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            fusion_declined: self.fusion_declined,
            len: self.len(),
            capacity: self.cap,
        }
    }
}

/// A point-in-time copy of one [`PlanCache`]'s counters and size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookup hits since construction.
    pub hits: u64,
    /// Lookup misses (compiles) since construction.
    pub misses: u64,
    /// LRU evictions since construction.
    pub evictions: u64,
    /// Densifications the cost model declined across this cache's
    /// compiles (see the module docs on the cost model).
    pub fusion_declined: u64,
    /// Cached plan count (noiseless and noisy replay plans).
    pub len: usize,
    /// The eviction threshold.
    pub capacity: usize,
}

/// The process-wide plan cache every [`crate::exec::Executor`] uses unless
/// given a private one — so the grader's fresh per-call executors still
/// share compiled plans across repeated candidate/reference runs.
///
/// Its capacity is read from `QUGEN_PLAN_CACHE` (via [`capacity_from_env`])
/// exactly once, at first use; later changes to the variable only affect
/// private caches built through [`crate::exec::ExecutorConfig::from_env`].
pub fn shared_cache() -> Arc<Mutex<PlanCache>> {
    static SHARED: OnceLock<Arc<Mutex<PlanCache>>> = OnceLock::new();
    Arc::clone(SHARED.get_or_init(|| Arc::new(Mutex::new(PlanCache::new(capacity_from_env())))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcir::math::Matrix;

    /// Applies the plan and the unfused per-gate path to the same basis
    /// states and requires identical final states to 1e-12.
    fn assert_plan_matches(circuit: &Circuit) {
        let plan = CircuitPlan::compile(circuit);
        let n = circuit.num_qubits();
        for basis in [0usize, (1 << n) - 1, 1] {
            let mut fused = StateVector::basis(n, basis);
            plan.apply_unitary(&mut fused);
            let mut unfused = StateVector::basis(n, basis);
            for op in circuit.ops() {
                if let Op::Gate { gate, qubits } = op {
                    unfused.apply_gate(*gate, qubits);
                }
            }
            for (i, (a, b)) in fused
                .amplitudes()
                .iter()
                .zip(unfused.amplitudes())
                .enumerate()
            {
                assert!(a.approx_eq(*b, 1e-12), "basis {basis}, amp {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn capacity_parsing_is_typed_and_trims() {
        assert_eq!(parse_capacity("128"), Ok(128));
        assert_eq!(parse_capacity(" 16\n"), Ok(16));
        assert_eq!(parse_capacity("0"), Err(PlanCacheParseError::ZeroCapacity));
        assert_eq!(
            parse_capacity("lots"),
            Err(PlanCacheParseError::NotAnInteger {
                value: "lots".into()
            })
        );
        assert_eq!(
            parse_capacity("-4"),
            Err(PlanCacheParseError::NotAnInteger { value: "-4".into() })
        );
        // Display carries the offending value for the warning line.
        let shown = PlanCacheParseError::NotAnInteger {
            value: "lots".into(),
        }
        .to_string();
        assert!(shown.contains("`lots`"), "{shown}");
        // The env reader resolves to the default when the variable is
        // unset (mutating process-global env from a test would race; the
        // exec-level env test exercises the set/garbage paths serially).
        if std::env::var("QUGEN_PLAN_CACHE").is_err() {
            assert_eq!(try_capacity_from_env(), Ok(PLAN_CACHE_CAPACITY));
            assert_eq!(capacity_from_env(), PLAN_CACHE_CAPACITY);
        }
    }

    #[test]
    fn cache_reports_its_capacity() {
        assert_eq!(PlanCache::new(7).capacity(), 7);
        // Clamped to ≥ 1, matching the constructor contract.
        assert_eq!(PlanCache::new(0).capacity(), 1);
    }

    #[test]
    fn adjacent_1q_runs_fuse_to_one_block() {
        let mut qc = Circuit::new(2, 0);
        qc.h(0).t(0).push_gate(Gate::SX, &[0]).rz(0.3, 0).h(1);
        let plan = CircuitPlan::compile(&qc);
        // Qubit 0's four gates fuse to one block; qubit 1 keeps its H.
        assert_eq!(plan.fused_unitaries(), 2);
        assert_eq!(plan.source_gate_ops(), 5);
        assert_plan_matches(&qc);
    }

    #[test]
    fn disjoint_gates_commute_through_the_pending_blocks() {
        // H(0), H(1), T(0): the T must fuse with qubit 0's H even though a
        // gate on qubit 1 sits between them in program order.
        let mut qc = Circuit::new(2, 0);
        qc.h(0).h(1).t(0);
        let plan = CircuitPlan::compile(&qc);
        assert_eq!(plan.fused_unitaries(), 2);
        assert_plan_matches(&qc);
    }

    #[test]
    fn one_q_gates_fold_into_2q_superblocks() {
        let mut qc = Circuit::new(2, 0);
        qc.h(0).t(1).cx(0, 1).h(1);
        let plan = CircuitPlan::compile(&qc);
        // H(0) and T(1) absorb into the CX superblock; H(1) rides on top.
        assert_eq!(plan.fused_unitaries(), 1);
        assert!(matches!(plan.ops()[0], PlannedOp::Dense2 { .. }));
        assert_plan_matches(&qc);
    }

    #[test]
    fn cancelling_gates_vanish() {
        let mut qc = Circuit::new(1, 0);
        qc.x(0).x(0);
        assert_eq!(CircuitPlan::compile(&qc).fused_unitaries(), 0);
        let mut qc = Circuit::new(1, 0);
        qc.t(0).tdg(0);
        assert_eq!(CircuitPlan::compile(&qc).fused_unitaries(), 0);
    }

    #[test]
    fn unfused_gates_keep_their_specialized_tiers() {
        let mut qc = Circuit::new(3, 0);
        qc.t(0).x(1).cx(0, 1).cz(1, 2).swap(0, 2).ccx(0, 1, 2);
        // Force no fusion by interleaving a flushing 3q gate first.
        let plan = CircuitPlan::compile(&qc);
        assert_plan_matches(&qc);
        // A lone CZ (diagonal) emitted from a plan must stay diagonal-tier:
        let mut qc = Circuit::new(2, 0);
        qc.cz(0, 1);
        let plan2 = CircuitPlan::compile(&qc);
        assert!(matches!(plan2.ops()[0], PlannedOp::Diag2 { .. }));
        // A lone CX keeps the permutation tier.
        let mut qc = Circuit::new(2, 0);
        qc.cx(1, 0);
        let plan3 = CircuitPlan::compile(&qc);
        assert!(matches!(
            plan3.ops()[0],
            PlannedOp::CFlipX {
                control: 1,
                target: 0
            }
        ));
        // A lone SWAP keeps the swap tier.
        let mut qc = Circuit::new(2, 0);
        qc.swap(0, 1);
        assert!(matches!(
            CircuitPlan::compile(&qc).ops()[0],
            PlannedOp::Swap { .. }
        ));
        // A lone CH keeps the controlled-dense tier (control below target).
        let mut qc = Circuit::new(2, 0);
        qc.ch(0, 1);
        assert!(matches!(
            CircuitPlan::compile(&qc).ops()[0],
            PlannedOp::CDense1 {
                control: 0,
                target: 1,
                ..
            }
        ));
        let _ = plan;
    }

    #[test]
    fn rotation_brickwork_forms_dense3_triples() {
        // Dense rotation layers make the fused pair blocks dense enough
        // that one 8×8 sweep beats the two-sweep split, so the fuser
        // forms Dense3 triples (the deep-circuit bench shape).
        let mut qc = Circuit::new(4, 0);
        for layer in 0..4usize {
            for q in 0..4 {
                qc.rx(0.3 + 0.1 * (q + layer) as f64, q);
                qc.rz(0.7 - 0.2 * q as f64, q);
            }
            if layer % 2 == 0 {
                qc.cx(0, 1).cx(2, 3);
            } else {
                qc.cx(1, 2);
            }
        }
        let plan = CircuitPlan::compile(&qc);
        assert!(
            plan.ops()
                .iter()
                .any(|op| matches!(op, PlannedOp::Dense3 { .. })),
            "expected a Dense3 superblock in {:?}",
            plan.ops()
        );
        assert!(plan.fused_unitaries() < plan.source_gate_ops());
        assert_plan_matches(&qc);
    }

    #[test]
    fn cost_model_declines_cheap_parts() {
        // A CX-only chain never densifies: two permutation sweeps are
        // cheaper than one 8×8, so every triple opportunity is declined.
        let mut qc = Circuit::new(3, 0);
        qc.cx(0, 1).cx(1, 2).cx(0, 1);
        let plan = CircuitPlan::compile(&qc);
        assert!(
            plan.ops()
                .iter()
                .all(|op| !matches!(op, PlannedOp::Dense3 { .. })),
            "{:?}",
            plan.ops()
        );
        assert!(plan.fusion_declined() > 0);
        assert_plan_matches(&qc);
        // A 1q diagonal beside a 2q diagonal still absorbs (the merged
        // block stays in the diagonal tier) with nothing declined.
        let mut qc = Circuit::new(2, 0);
        qc.t(0).cz(0, 1).s(1);
        let plan = CircuitPlan::compile(&qc);
        assert_eq!(plan.fusion_declined(), 0);
        assert_eq!(plan.fused_unitaries(), 1);
        assert!(matches!(plan.ops()[0], PlannedOp::Diag2 { .. }));
        assert_plan_matches(&qc);
        // An X beside a CZ stays two cheap sweeps instead of densifying
        // into one Dense2.
        let mut qc = Circuit::new(2, 0);
        qc.x(0).cz(0, 1);
        let plan = CircuitPlan::compile(&qc);
        assert_eq!(plan.fusion_declined(), 1);
        assert_eq!(plan.fused_unitaries(), 2);
        assert!(
            plan.ops()
                .iter()
                .all(|op| !matches!(op, PlannedOp::Dense2 { .. })),
            "{:?}",
            plan.ops()
        );
        assert_plan_matches(&qc);
    }

    #[test]
    fn toffoli_composes_onto_an_open_triple() {
        // Once a Dense3 triple is open on exactly the Toffoli's operands,
        // the 3q permutation composes into it instead of flushing it.
        let mut qc = Circuit::new(3, 0);
        for q in 0..3 {
            qc.h(q).t(q);
        }
        qc.cx(0, 1).cx(1, 2).ccx(0, 1, 2).cswap(2, 0, 1);
        let plan = CircuitPlan::compile(&qc);
        assert_eq!(plan.fused_unitaries(), 1, "{:?}", plan.ops());
        assert!(matches!(plan.ops()[0], PlannedOp::Dense3 { .. }));
        assert_plan_matches(&qc);
    }

    #[test]
    fn same_pair_2q_gates_fuse() {
        let mut qc = Circuit::new(2, 0);
        qc.cx(0, 1).cx(1, 0).cx(0, 1); // = SWAP, exactly (permutation entries)
        let plan = CircuitPlan::compile(&qc);
        assert_eq!(plan.fused_unitaries(), 1);
        assert!(matches!(plan.ops()[0], PlannedOp::Swap { .. }));
        assert_plan_matches(&qc);
    }

    #[test]
    fn measure_flushes_only_its_own_qubit() {
        let mut qc = Circuit::new(2, 2);
        qc.h(0).h(1);
        qc.measure(0, 0);
        qc.t(1); // must still fuse with H(1) across the measurement
        let plan = CircuitPlan::compile(&qc);
        let fused: Vec<_> = plan
            .ops()
            .iter()
            .filter(|op| !matches!(op, PlannedOp::Measure { .. }))
            .collect();
        assert_eq!(fused.len(), 2, "H(0) flushed, H·T fused on qubit 1");
        assert_eq!(plan.measure_map(), &[(0, 0)]);
    }

    #[test]
    fn trajectory_semantics_cover_measure_reset_cond() {
        let mut qc = Circuit::new(2, 2);
        qc.x(0).measure(0, 0);
        qc.cond_gate(Gate::X, &[1], 0, true);
        qc.measure(1, 1);
        qc.reset(0);
        let plan = CircuitPlan::compile(&qc);
        let (dist, branches) = plan.enumerate_branches().expect("2 qubits fit the budget");
        assert_eq!(branches, 1, "deterministic outcomes never split");
        let outcomes: Vec<(String, f64)> = dist.iter().map(|(w, p)| (w.bitstring(2), p)).collect();
        assert_eq!(outcomes.len(), 1, "{outcomes:?}");
        assert_eq!(outcomes[0].0, "11");
        assert!((outcomes[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn terminal_measurements_read_out_without_branching() {
        // H(2) is emitted after Measure(0) by the fuser, but touches
        // another qubit: the measure stays terminal and nothing splits.
        let mut qc = Circuit::new(3, 2);
        qc.h(0).h(2).measure(0, 0).h(1).measure(1, 1);
        let (dist, branches) = CircuitPlan::compile(&qc).enumerate_branches().unwrap();
        assert_eq!(branches, 1);
        for w in 0..4u64 {
            assert!((dist.get(w) - 0.25).abs() < 1e-12);
        }
        // A measured qubit that is rotated again must split.
        let mut mid = Circuit::new(1, 2);
        mid.h(0).measure(0, 0).h(0).measure(0, 1);
        let (dist, branches) = CircuitPlan::compile(&mid).enumerate_branches().unwrap();
        assert_eq!(branches, 2);
        for w in 0..4u64 {
            assert!((dist.get(w) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn branches_past_the_amplitude_budget_return_none() {
        // Each split doubles the live branches: 13 qubits hold 2 branches
        // (2^14 amplitudes) but not 4.
        let mut qc = Circuit::new(13, 2);
        qc.h(0).measure(0, 0).h(0);
        assert!(CircuitPlan::compile(&qc).branch_distribution().is_some());
        qc.measure(0, 1).h(0).reset(0);
        assert!(CircuitPlan::compile(&qc).branch_distribution().is_none());
        // A single unsplit branch is always allowed.
        let mut wide = Circuit::new(16, 16);
        wide.h(0).measure_all();
        let dist = CircuitPlan::compile(&wide).branch_distribution().unwrap();
        assert!((dist.get(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fingerprint_distinguishes_circuits_and_params() {
        let mut a = Circuit::new(2, 2);
        a.h(0).cx(0, 1);
        let mut b = Circuit::new(2, 2);
        b.h(0).cx(0, 1);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        b.rz(0.5, 1);
        assert_ne!(fingerprint(&a), fingerprint(&b));
        let mut c = Circuit::new(2, 2);
        c.h(0).cx(0, 1);
        c.rz(0.5000001, 1);
        assert_ne!(fingerprint(&b), fingerprint(&c));
        // Operand order matters.
        let mut d = Circuit::new(2, 2);
        d.h(0).cx(1, 0);
        assert_ne!(fingerprint(&a), fingerprint(&d));
    }

    #[test]
    fn plan_cache_hits_and_evicts() {
        let mut cache = PlanCache::new(2);
        let mut a = Circuit::new(1, 0);
        a.h(0);
        let mut b = Circuit::new(1, 0);
        b.x(0);
        let mut c = Circuit::new(1, 0);
        c.t(0);
        let pa = cache.get_or_compile(&a);
        assert!(Arc::ptr_eq(&pa, &cache.get_or_compile(&a)));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        cache.get_or_compile(&b);
        cache.get_or_compile(&c); // evicts `a` (least recently used)
        assert_eq!(cache.len(), 2);
        cache.get_or_compile(&a);
        assert_eq!(cache.misses(), 4, "evicted plan recompiles");
        assert_eq!(cache.evictions(), 2, "b's insert and a's return each evict");
        let stats = cache.stats();
        assert_eq!(
            (
                stats.hits,
                stats.misses,
                stats.evictions,
                stats.len,
                stats.capacity
            ),
            (1, 4, 2, 2, 2)
        );
    }

    #[test]
    fn oriented_gate_matrices_match_the_reference_unitary() {
        // Both operand orders of every 2q kind against Gate::matrix through
        // the dense oracle.
        for gate in [
            Gate::CX,
            Gate::CZ,
            Gate::CH,
            Gate::CY,
            Gate::SWAP,
            Gate::CRX(0.7),
            Gate::CRZ(-0.4),
            Gate::CP(1.1),
        ] {
            for (q0, q1) in [(0usize, 1usize), (1, 0), (0, 2), (2, 0)] {
                let m = gate4_oriented(gate, q0, q1);
                let (hi, lo) = (q0.max(q1), q0.min(q1));
                let mut via_plan = StateVector::basis(3, 0b101);
                via_plan.apply_gate(Gate::H, &[0]);
                via_plan.apply_gate(Gate::T, &[1]);
                let mut via_gate = via_plan.clone();
                kernels::apply_dense2(via_plan.amps_mut(), hi, lo, &m);
                via_gate.apply_gate(gate, &[q0, q1]);
                for (a, b) in via_plan.amplitudes().iter().zip(via_gate.amplitudes()) {
                    assert!(a.approx_eq(*b, 1e-12), "{gate:?} on ({q0},{q1})");
                }
            }
        }
    }

    #[test]
    fn general_fallback_is_total() {
        // No built-in gate classifies as General, but the solo path and the
        // DenseK op must still execute one if a future gate does.
        let op = PlannedOp::DenseK {
            qubits: vec![0],
            matrix: Matrix::identity(2),
        };
        let mut sv = StateVector::zero(1);
        apply_unitary_op(&mut sv, &op);
        assert!((sv.norm_sqr() - 1.0).abs() < 1e-12);
    }
}
