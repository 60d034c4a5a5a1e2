//! # qsim — quantum circuit simulators with noise
//!
//! Three complementary backends behind one dispatch layer, plus the noise
//! machinery the QEC experiments need:
//!
//! * [`backend`] — the unified simulation-backend layer: circuit
//!   classification (Clifford / general), the [`backend::Backend`] /
//!   [`backend::BackendState`] traits, auto-dispatch rules and the typed
//!   [`backend::SimError`] the fallible execution APIs return.
//! * [`state`] — a dense state-vector simulator (practical to ~20 qubits)
//!   used for semantic grading and the Deutsch–Jozsa noise experiments.
//! * [`kernels`] — the specialized gate-application kernels behind
//!   [`state::StateVector::apply_gate`]: strided base-index enumeration,
//!   diagonal/permutation fast paths, butterfly single-qubit updates, and a
//!   scratch-reusing general dense fallback.
//! * [`stabilizer`] — an Aaronson–Gottesman CHP tableau simulator for
//!   Clifford circuits, used for surface-code syndrome extraction at
//!   distances where the dense simulator is infeasible.
//! * [`frame`] — Pauli-frame batch sampling on top of it: one noiseless
//!   tableau reference run per job, then Pauli error frames propagated
//!   64 shots per `u64` word (Gidney's Stim method).
//! * [`mps`] — a matrix-product-state simulator with bounded bond
//!   dimension χ and truncated-SVD two-site updates, for low-entanglement
//!   *non-Clifford* circuits past the dense qubit cap.
//! * [`noise`] — Pauli/readout noise channels (applied exactly on a
//!   density matrix or sampled per trajectory) and the
//!   [`noise::NoiseModel`] aggregate.
//! * [`profiles`] — named noise profiles, including the IBM-Brisbane-like
//!   profile used by the Figure 4 reproduction.
//! * [`plan`] — the compile step: lowers a circuit once into a fused,
//!   matrix-precomputed [`plan::CircuitPlan`] (cost-model-gated up to 8×8
//!   superblocks), cached in a process-wide LRU keyed by circuit content
//!   hash, so repeated runs skip gate classification entirely. Plans also
//!   enumerate measurement branches
//!   ([`plan::CircuitPlan::branch_distribution`]): the exact outcome
//!   distribution of a noiseless circuit with mid-circuit measurement,
//!   resets or classical conditionals, from one evolution.
//! * [`density`] — exact noisy distributions for small dense circuits:
//!   one density matrix, stored as a `2n`-qubit state vector, evolved
//!   through the plan's fusion pass and kernels, with every noise channel
//!   a 4×4 Pauli channel op.
//! * [`replay`] — noisy per-shot trajectories for the dense circuits the
//!   density path declines (dynamic ones, or ρ past the budget): per-gate
//!   kernels precompiled once and replayed in segments between noise
//!   insertion points, bit-identical to per-gate dispatch.
//! * [`exec`] — the circuit executor, configured through the typed
//!   [`exec::ExecutorConfig`]. Dense circuits sample shots from an exact
//!   distribution computed once — from the cached plan when noiseless
//!   (dynamic ones included), from a density-matrix evolution when noisy
//!   and measured only at the end; other noisy dense circuits replay
//!   precompiled segments per shot; tableau runs sample Pauli frames
//!   against one reference run; noisy MPS runs, dynamic circuits past the
//!   branch budget and tableau circuits with a non-Pauli conditional gate
//!   run one engine trajectory per shot.
//! * [`job`] — the typed job vocabulary ([`job::JobSpec`] /
//!   [`job::JobStatus`] / [`job::JobResult`]) shared by in-process batch
//!   calls, the `qugen-serve` daemon and future shard coordinators, with
//!   the [`job::JobKey`] cache identity.
//! * [`dist`] — measurement-outcome distributions and distance metrics.
//! * [`word`] — the packed multi-word [`word::OutcomeWord`] classical
//!   registers those distributions are keyed on: allocation-free inline up
//!   to 64 bits, spilling to `[u64]` words beyond, so >64-clbit circuits
//!   (distance-7 QEC memory) record outcomes without a cap.
//!
//! # Example
//!
//! ```
//! use qcir::circuit::Circuit;
//! use qsim::exec::Executor;
//!
//! let mut bell = Circuit::new(2, 2);
//! bell.h(0).cx(0, 1).measure_all();
//!
//! let counts = Executor::ideal()
//!     .try_run(&bell, 4096, 7)
//!     .expect("2-qubit circuits always fit the dense backend");
//! // Only |00> and |11> appear.
//! assert_eq!(counts.distinct_outcomes(), 2);
//! ```

pub mod backend;
pub mod density;
pub mod dist;
pub mod exec;
pub mod frame;
pub mod job;
pub mod kernels;
pub mod mps;
pub mod noise;
pub mod observable;
pub mod plan;
pub mod profiles;
pub mod replay;
pub mod stabilizer;
pub mod state;
pub mod word;

pub use backend::{BackendChoice, SimError};
pub use dist::Counts;
pub use exec::{Executor, ExecutorConfig};
pub use job::{JobKey, JobResult, JobSpec, JobStatus};
pub use noise::NoiseModel;
pub use state::StateVector;
pub use word::OutcomeWord;
