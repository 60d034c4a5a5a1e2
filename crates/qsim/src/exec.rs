//! Circuit execution: shots, trajectories, conditionals, backend dispatch
//! and multi-threaded shot batching.
//!
//! # Execution paths
//!
//! [`Executor`] prepares each job once and then runs its shot chunks on
//! one of four paths (the `path` label of its `executor/job` trace span):
//!
//! * `sampling` — noiseless dense and MPS circuits, and noisy dense
//!   circuits that measure only at the end and fit the amplitude budget:
//!   whole outcome words drawn from an exact distribution computed once
//!   (for noisy circuits, from one density-matrix evolution,
//!   [`crate::density`]);
//! * `frames` — every tableau job: one noiseless reference run, then
//!   Pauli frames propagated 64 shots per word ([`crate::frame`]);
//! * `noisy_replay` — noisy dense circuits that are dynamic or over the
//!   budget: precompiled kernel segments replayed per shot;
//! * `trajectory` — one engine trajectory per shot, for noisy MPS runs,
//!   dynamic dense circuits past the branch budget and tableau circuits
//!   with a non-Pauli conditional gate.
//!
//! # Shot chunking and determinism
//!
//! Shots are partitioned into fixed [`SHOT_CHUNK`]-sized chunks; chunk `i`
//! draws from its own RNG seeded with [`derive_seed`]`(seed, i)`, each
//! worker records its chunks into one local [`Counts`] table, and the
//! tables are merged by commutative outcome-wise addition.
//! Because the partition and the seeds depend only on `(shots, seed)` —
//! never on thread scheduling or merge order — a run with
//! [`ExecutorConfig::threads`]`(n)` is bit-identical to the
//! single-threaded run for every `n`.

use crate::backend::{self, BackendChoice, BackendKind, BackendState, SimError};
use crate::density::DensityProgram;
use crate::dist::{Counts, Distribution, WordSampler};
use crate::frame::{FramePlan, FrameScratch};
use crate::job::JobSpec;
use crate::mps::{MpsSampler, MpsState};
use crate::noise::NoiseModel;
use crate::plan::{self, CircuitPlan, PlanCache, PlanCacheStats};
use crate::replay::NoisyPlan;
use crate::state::StateVector;
use crate::word::OutcomeWord;
use qcir::circuit::{Circuit, Op};
use qugen_telemetry::metrics::{self as tmetrics, Counter, Histogram};
use qugen_telemetry::trace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Interned registry handles for the executor layer: per-job wall time by
/// resolved backend, shot/chunk volume, and truncation-budget consumption.
struct ExecMetrics {
    jobs: &'static Counter,
    job_failures: &'static Counter,
    shots: &'static Counter,
    chunks: &'static Counter,
    batches: &'static Counter,
    /// Exact distribution computations (measure-at-end readouts, branch
    /// enumerations and noisy density evolutions); sampled fallbacks
    /// count as ordinary jobs.
    distributions: &'static Counter,
    /// Noiseless dense circuits whose branch enumeration exceeded
    /// [`plan::BRANCH_AMPLITUDE_BUDGET`] and fell back to sampling.
    branch_fallbacks: &'static Counter,
    job_us_dense: &'static Histogram,
    job_us_tableau: &'static Histogram,
    job_us_mps: &'static Histogram,
    /// Worst observed truncation error as ‰ of the budget (only finite
    /// positive budgets record; >1000 means the budget was blown).
    truncation_permille: &'static Histogram,
    truncation_exceeded: &'static Counter,
}

impl ExecMetrics {
    fn job_us(&self, kind: BackendKind) -> &'static Histogram {
        match kind {
            BackendKind::Dense => self.job_us_dense,
            BackendKind::Tableau => self.job_us_tableau,
            BackendKind::Mps { .. } => self.job_us_mps,
        }
    }
}

fn exec_metrics() -> &'static ExecMetrics {
    static METRICS: OnceLock<ExecMetrics> = OnceLock::new();
    METRICS.get_or_init(|| ExecMetrics {
        jobs: tmetrics::counter("exec.jobs"),
        job_failures: tmetrics::counter("exec.job_failures"),
        shots: tmetrics::counter("exec.shots"),
        chunks: tmetrics::counter("exec.chunks"),
        batches: tmetrics::counter("exec.batches"),
        distributions: tmetrics::counter("exec.distributions"),
        branch_fallbacks: tmetrics::counter("exec.branch_fallbacks"),
        job_us_dense: tmetrics::histogram("exec.job_us.dense"),
        job_us_tableau: tmetrics::histogram("exec.job_us.tableau"),
        job_us_mps: tmetrics::histogram("exec.job_us.mps"),
        truncation_permille: tmetrics::histogram("exec.truncation_permille"),
        truncation_exceeded: tmetrics::counter("exec.truncation_exceeded"),
    })
}

/// Shots per RNG chunk (see the module docs on determinism).
pub const SHOT_CHUNK: u64 = 1024;

/// Minimum shot chunks per worker when drawing from a word table. A chunk
/// of 1024 draws takes ~10 µs, less than spawning a worker: on a 2-core
/// x86-64 host, 32768-shot jobs ran faster on one thread than on two, and
/// 262144-shot jobs faster on two.
const WORD_CHUNKS_PER_WORKER: usize = 32;

/// Default cap on the truncation error an MPS run may accumulate before
/// the executor refuses its counts with
/// [`SimError::TruncationBudgetExceeded`]. The gated quantity is the
/// rigorous per-trajectory infidelity bound `(Σ√(2δ))²` over the
/// trajectory's discarded weights δ, so counts that pass the default are
/// genuinely high-fidelity; override with
/// [`ExecutorConfig::truncation_budget`] (e.g. `f64::INFINITY` for
/// best-effort runs) or per job with [`JobSpec::with_budget`].
pub const DEFAULT_TRUNCATION_BUDGET: f64 = 1e-2;

/// Shots used by the sampled [`Executor::ideal_distribution`] fallback
/// (large Clifford circuits, and dense circuits whose branch enumeration
/// exceeds [`plan::BRANCH_AMPLITUDE_BUDGET`]).
const DISTRIBUTION_SHOTS: u64 = 16_384;

/// A reasonable worker count for parallel shot execution on this host.
///
/// Results never depend on the thread count (see the module docs), so this
/// is purely a throughput knob.
pub fn recommended_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// How an executor sources its compiled-plan cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanCacheMode {
    /// Share the process-wide [`plan::shared_cache`] (the default): even
    /// short-lived executors — the grader builds a fresh one per call —
    /// reuse warm plans.
    #[default]
    Shared,
    /// A private LRU per built executor, for benchmarks and tests that
    /// need cold-start compile behavior on demand.
    Private,
}

/// Typed executor configuration: every knob in one place, replacing the
/// accreting `with_*` builder chain on [`Executor`] itself.
///
/// All fields are public and `Default` matches [`Executor::ideal`], so
/// struct-update syntax, the chainable setters, and
/// [`ExecutorConfig::from_env`] all compose:
///
/// ```
/// use qsim::backend::BackendChoice;
/// use qsim::exec::ExecutorConfig;
///
/// let exec = ExecutorConfig::new()
///     .backend(BackendChoice::Dense)
///     .threads(4)
///     .build();
/// assert_eq!(exec.threads(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Noise model applied per gate/idle/readout (default: ideal).
    pub noise: NoiseModel,
    /// Backend dispatch choice (default: [`BackendChoice::Auto`]). Jobs
    /// may override it per spec ([`JobSpec::with_backend`]).
    pub backend: BackendChoice,
    /// Worker threads for shot execution (clamped to ≥ 1 at build time).
    /// Results never depend on this; see the module docs.
    pub threads: usize,
    /// MPS truncation budget: the worst rigorous truncation-infidelity
    /// bound any trajectory may reach before the run fails with
    /// [`SimError::TruncationBudgetExceeded`]. Default
    /// [`DEFAULT_TRUNCATION_BUDGET`]; `f64::INFINITY` means best-effort.
    /// Jobs may override it per spec ([`JobSpec::with_budget`]).
    pub truncation_budget: f64,
    /// Compiled-plan cache mode (default: the shared process-wide LRU).
    pub plan_cache: PlanCacheMode,
    /// Capacity of a [`PlanCacheMode::Private`] cache, clamped to ≥ 1 at
    /// build time (default: [`plan::PLAN_CACHE_CAPACITY`]). The shared
    /// cache sizes itself once from `QUGEN_PLAN_CACHE` at first use
    /// instead; see [`plan::shared_cache`].
    pub plan_cache_capacity: usize,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            noise: NoiseModel::ideal(),
            backend: BackendChoice::Auto,
            threads: 1,
            truncation_budget: DEFAULT_TRUNCATION_BUDGET,
            plan_cache: PlanCacheMode::Shared,
            plan_cache_capacity: plan::PLAN_CACHE_CAPACITY,
        }
    }
}

impl ExecutorConfig {
    /// The default configuration (ideal noise, auto backend, one thread).
    pub fn new() -> Self {
        ExecutorConfig::default()
    }

    /// Reads the execution environment in one place: `QUGEN_BACKEND`
    /// (`auto|dense|tableau|mps[:χ]`), `QUGEN_THREADS` (positive integer),
    /// `QUGEN_TRUNCATION_BUDGET` (`f64`; `inf` for best-effort), and
    /// `QUGEN_PLAN_CACHE` (positive integer). Malformed values warn to
    /// stderr and keep the default, so a typo in a deployment environment
    /// cannot abort a long batch run.
    pub fn from_env() -> Self {
        let mut config = ExecutorConfig::new();
        config.backend = backend::choice_from_env();
        config.plan_cache_capacity = plan::capacity_from_env();
        if let Ok(raw) = std::env::var("QUGEN_THREADS") {
            match raw.trim().parse::<usize>() {
                Ok(n) if n >= 1 => config.threads = n,
                _ => eprintln!(
                    "warning: QUGEN_THREADS: `{raw}` is not a positive integer; keeping {}",
                    config.threads
                ),
            }
        }
        if let Ok(raw) = std::env::var("QUGEN_TRUNCATION_BUDGET") {
            match raw.trim().parse::<f64>() {
                Ok(b) if b >= 0.0 => config.truncation_budget = b,
                _ => eprintln!(
                    "warning: QUGEN_TRUNCATION_BUDGET: `{raw}` is not a non-negative float; \
                     keeping {}",
                    config.truncation_budget
                ),
            }
        }
        config
    }

    /// Sets the noise model.
    pub fn noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Sets the backend dispatch choice.
    pub fn backend(mut self, backend: BackendChoice) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the worker-thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the MPS truncation budget.
    pub fn truncation_budget(mut self, budget: f64) -> Self {
        self.truncation_budget = budget;
        self
    }

    /// Sets the compiled-plan cache mode.
    pub fn plan_cache(mut self, mode: PlanCacheMode) -> Self {
        self.plan_cache = mode;
        self
    }

    /// Sets the capacity used when [`PlanCacheMode::Private`] builds its
    /// cache (clamped to ≥ 1 at build time).
    pub fn plan_cache_capacity(mut self, capacity: usize) -> Self {
        self.plan_cache_capacity = capacity;
        self
    }

    /// Builds the executor.
    pub fn build(self) -> Executor {
        Executor::new(self)
    }
}

/// Executes circuits against a noise model on an automatically or
/// explicitly chosen simulation backend.
///
/// For noiseless circuits on the dense backend, the executor evolves the
/// state once and samples outcomes from the exact distribution: basis
/// states of the final state vector when measurements all come last, and
/// whole classical words of the [`CircuitPlan::branch_distribution`] when
/// the circuit measures mid-circuit, resets or branches on classical bits.
/// Noisy circuits, and dynamic circuits whose branches exceed
/// [`plan::BRANCH_AMPLITUDE_BUDGET`], run one Monte-Carlo trajectory per
/// shot. Clifford circuits dispatch to the stabilizer tableau per the
/// rules in [`crate::backend`], which keeps large QEC workloads polynomial;
/// there one noiseless reference run plus Pauli frames for 64 shots per
/// word ([`crate::frame`]) replace per-shot trajectories, except for
/// circuits with a non-Pauli conditional gate.
#[derive(Debug, Clone)]
pub struct Executor {
    config: ExecutorConfig,
    /// Compiled-plan LRU driving the noiseless dense paths. Under
    /// [`PlanCacheMode::Shared`] this is the process-wide
    /// [`plan::shared_cache`]; clones share the same cache either way.
    plan_cache: Arc<Mutex<PlanCache>>,
}

impl Default for Executor {
    fn default() -> Self {
        Executor::ideal()
    }
}

impl Executor {
    /// Builds an executor from a typed configuration (the threads field is
    /// clamped to ≥ 1).
    pub fn new(mut config: ExecutorConfig) -> Self {
        config.threads = config.threads.max(1);
        let plan_cache = match config.plan_cache {
            PlanCacheMode::Shared => plan::shared_cache(),
            PlanCacheMode::Private => {
                Arc::new(Mutex::new(PlanCache::new(config.plan_cache_capacity)))
            }
        };
        Executor { config, plan_cache }
    }

    /// A noiseless executor (auto backend, single-threaded) — shorthand
    /// for `ExecutorConfig::new().build()`.
    pub fn ideal() -> Self {
        ExecutorConfig::new().build()
    }

    /// An executor with the given noise model — shorthand for
    /// `ExecutorConfig::new().noise(noise).build()`.
    pub fn with_noise(noise: NoiseModel) -> Self {
        ExecutorConfig::new().noise(noise).build()
    }

    /// The active configuration.
    pub fn config(&self) -> &ExecutorConfig {
        &self.config
    }

    /// The active noise model.
    pub fn noise(&self) -> &NoiseModel {
        &self.config.noise
    }

    /// The configured backend choice.
    pub fn backend_choice(&self) -> BackendChoice {
        self.config.backend
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.config.threads
    }

    /// The configured MPS truncation budget.
    pub fn truncation_budget(&self) -> f64 {
        self.config.truncation_budget
    }

    /// The cached compiled plan for `circuit` (compiling on first sight).
    pub fn plan_for(&self, circuit: &Circuit) -> Arc<CircuitPlan> {
        self.plan_cache
            .lock()
            .expect("plan cache poisoned")
            .get_or_compile(circuit)
    }

    /// The cached noisy replay plan for `circuit` under this executor's
    /// noise model (compiling on first sight).
    fn noisy_plan_for(&self, circuit: &Circuit) -> Arc<NoisyPlan> {
        self.plan_cache
            .lock()
            .expect("plan cache poisoned")
            .get_or_compile_noisy(circuit, &self.config.noise)
    }

    /// The exact outcome distribution of `circuit` under this executor's
    /// noise model, from one density-matrix evolution, plus the density
    /// program's op count; `None` outside [`DensityProgram::compile`]'s
    /// rule. The program depends on the noise rates, so it is compiled
    /// per call and never cached.
    fn noisy_distribution(&self, circuit: &Circuit) -> Option<(Distribution, usize)> {
        let program = DensityProgram::compile(circuit, &self.config.noise)?;
        let span = trace::span("executor", "distribution")
            .label("path", "density")
            .int("qubits", circuit.num_qubits() as i128)
            .int("ops", program.ops().len() as i128);
        let dist = program.distribution();
        if tmetrics::enabled() {
            exec_metrics().distributions.inc();
        }
        span.int("ok", 1).finish();
        Some((dist, program.ops().len()))
    }

    /// A snapshot of this executor's plan cache counters. With
    /// [`PlanCacheMode::Shared`] (the default) these cover every sharing
    /// executor in the process, not just this one.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.lock().expect("plan cache poisoned").stats()
    }

    /// Runs `shots` shots with a deterministic seed.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] when no admissible backend can run the
    /// circuit (qubit caps, or non-Clifford gates on a forced tableau) —
    /// conditions the pre-backend-layer API turned into panics — or when
    /// an MPS run truncates past the configured
    /// [`ExecutorConfig::truncation_budget`]. Classical-register width is
    /// unbounded: outcomes are multi-word.
    pub fn try_run(&self, circuit: &Circuit, shots: u64, seed: u64) -> Result<Counts, SimError> {
        // Same two phases as the batch path, for a batch of one: the
        // backend/fast-path dispatch rule lives in `prepare` alone.
        let task = self.prepare(
            circuit,
            shots,
            seed,
            self.config.backend,
            self.config.truncation_budget,
        )?;
        self.run_task_timed(&task)
    }

    /// Runs one [`JobSpec`], honoring its per-job backend and truncation-
    /// budget overrides (falling back to this executor's configuration).
    /// Equivalent to [`Executor::try_run`] when the spec carries no
    /// overrides.
    pub fn try_run_job(&self, spec: &JobSpec) -> Result<Counts, SimError> {
        let task = self.prepare(
            spec.circuit(),
            spec.shots(),
            spec.seed(),
            spec.effective_backend(self.config.backend),
            spec.effective_budget(self.config.truncation_budget),
        )?;
        self.run_task_timed(&task)
    }

    /// Runs a batch of [`JobSpec`]s, resolving each job's backend once and
    /// driving every job's shot chunks through one shared worker pool — so
    /// a suite of small jobs amortizes thread spin-up instead of paying it
    /// per circuit, and a straggler job keeps all workers busy rather than
    /// serializing behind it. Per-job backend and budget overrides are
    /// honored, so heterogeneous batches (the grader's candidate/reference
    /// pairs) share one pool.
    ///
    /// Each job's counts are bit-identical to running
    /// [`Executor::try_run_job`] on it alone, for every thread count: chunk
    /// seeds depend only on the job's own `(seed, chunk index)` and merges
    /// are commutative.
    pub fn try_run_batch(&self, tasks: &[JobSpec]) -> Vec<Result<Counts, SimError>> {
        if self.config.threads <= 1 || tasks.len() <= 1 {
            return tasks.iter().map(|spec| self.try_run_job(spec)).collect();
        }
        // Pooled jobs share the worker pool, so per-job wall time is
        // meaningless; the batch gets one span covering prepare + execute
        // and per-job volume counters at fold time instead.
        exec_metrics().batches.inc();
        let _batch_span = trace::span("executor", "batch").int("jobs", tasks.len() as i128);
        // Phase 1: resolve every backend and evolve every fast-path prefix
        // exactly once per task. Prefix evolution is the dominant cost for
        // sampling-path tasks (one full dense/MPS pass over the circuit),
        // so tasks prepare on the worker pool too; each prepare is
        // deterministic in isolation, keeping results thread-independent.
        let prepared: Vec<Result<BatchTask, SimError>> = {
            let slots: Vec<Mutex<Option<Result<BatchTask, SimError>>>> =
                tasks.iter().map(|_| Mutex::new(None)).collect();
            let next = AtomicUsize::new(0);
            let prep_threads = self.config.threads.min(tasks.len());
            std::thread::scope(|scope| {
                for _ in 0..prep_threads {
                    scope.spawn(|| loop {
                        let t = next.fetch_add(1, Ordering::Relaxed);
                        if t >= tasks.len() {
                            break;
                        }
                        let spec = &tasks[t];
                        *slots[t].lock().expect("prepare slot poisoned") = Some(self.prepare(
                            spec.circuit(),
                            spec.shots(),
                            spec.seed(),
                            spec.effective_backend(self.config.backend),
                            spec.effective_budget(self.config.truncation_budget),
                        ));
                    });
                }
            });
            slots
                .into_iter()
                .map(|slot| {
                    slot.into_inner()
                        .expect("prepare slot poisoned")
                        .expect("every task index was claimed by a worker")
                })
                .collect()
        };
        // Phase 2 (parallel): one global queue of (task, chunk) items.
        let items: Vec<(usize, usize)> = prepared
            .iter()
            .enumerate()
            .filter_map(|(t, p)| p.as_ref().ok().map(|p| (t, p.shots)))
            .flat_map(|(t, shots)| (0..shots.div_ceil(SHOT_CHUNK) as usize).map(move |c| (t, c)))
            .collect();
        let slots: Vec<Mutex<Option<Counts>>> = tasks.iter().map(|_| Mutex::new(None)).collect();
        let worst_truncation: Vec<Mutex<f64>> = tasks.iter().map(|_| Mutex::new(0.0)).collect();
        // Per-task early-abort flags: once one worker's state blows the
        // truncation budget, the whole task is doomed to return the typed
        // error, so remaining chunks are skipped instead of burning the
        // rest of the shot budget. Successful tasks never set their flag,
        // keeping results bit-identical to the serial path.
        let cancelled: Vec<AtomicBool> = tasks.iter().map(|_| AtomicBool::new(false)).collect();
        let next = AtomicUsize::new(0);
        let threads = self.config.threads.min(items.len().max(1));
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let mut states: Vec<Option<WorkerCtx>> = tasks.iter().map(|_| None).collect();
                    let mut locals: Vec<Option<Counts>> = tasks.iter().map(|_| None).collect();
                    loop {
                        let w = next.fetch_add(1, Ordering::Relaxed);
                        if w >= items.len() {
                            break;
                        }
                        let (t, chunk) = items[w];
                        if cancelled[t].load(Ordering::Relaxed) {
                            continue;
                        }
                        let task = prepared[t].as_ref().expect("only Ok tasks enqueue items");
                        let chunk_shots = (task.shots - chunk as u64 * SHOT_CHUNK).min(SHOT_CHUNK);
                        let mut rng = StdRng::seed_from_u64(derive_seed(task.seed, chunk as u64));
                        let counts = locals[t].get_or_insert_with(|| Counts::new(task.num_clbits));
                        match &task.plan {
                            BatchPlan::Sampling(sampler) => {
                                let ctx =
                                    states[t].get_or_insert_with(|| WorkerCtx::Tally(Vec::new()));
                                let WorkerCtx::Tally(tally) = ctx else {
                                    unreachable!("sampling tasks only build tally contexts")
                                };
                                sample_chunk(sampler, tally, chunk_shots, &mut rng, counts)
                            }
                            BatchPlan::Frames(plan) => {
                                let ctx = states[t]
                                    .get_or_insert_with(|| WorkerCtx::Frame(plan.scratch()));
                                let WorkerCtx::Frame(scratch) = ctx else {
                                    unreachable!("frame tasks only build frame contexts")
                                };
                                plan.sample_into(
                                    &self.config.noise,
                                    scratch,
                                    chunk_shots,
                                    &mut rng,
                                    counts,
                                );
                            }
                            BatchPlan::NoisyReplay { plan } => {
                                let ctx = states[t].get_or_insert_with(|| {
                                    WorkerCtx::Dense(StateVector::zero(plan.num_qubits()))
                                });
                                let WorkerCtx::Dense(sv) = ctx else {
                                    unreachable!("replay tasks only build dense contexts")
                                };
                                noisy_replay_chunk(
                                    plan,
                                    &self.config.noise,
                                    sv,
                                    chunk_shots,
                                    &mut rng,
                                    counts,
                                );
                            }
                            BatchPlan::Trajectory { kind, circuit } => {
                                let ctx = states[t].get_or_insert_with(|| {
                                    WorkerCtx::Engine(
                                        kind.build()
                                            .init(circuit.num_qubits())
                                            .expect("backend capacity pre-validated by resolve()"),
                                    )
                                });
                                let WorkerCtx::Engine(state) = ctx else {
                                    unreachable!("trajectory tasks only build engine contexts")
                                };
                                self.trajectory_chunk(
                                    circuit,
                                    state.as_mut(),
                                    chunk_shots,
                                    &mut rng,
                                    counts,
                                );
                                if state.truncation_error() > task.budget {
                                    cancelled[t].store(true, Ordering::Relaxed);
                                }
                            }
                        }
                    }
                    // Retire: fold local counts and truncation high-water
                    // marks into the shared per-task slots.
                    for (t, local) in locals.into_iter().enumerate() {
                        if let Some(local) = local {
                            let mut slot = slots[t].lock().expect("batch slot poisoned");
                            match slot.as_mut() {
                                Some(existing) => existing.merge(&local),
                                None => *slot = Some(local),
                            }
                        }
                    }
                    for (t, state) in states.into_iter().enumerate() {
                        if let Some(WorkerCtx::Engine(state)) = state {
                            let mut w = worst_truncation[t]
                                .lock()
                                .expect("truncation slot poisoned");
                            *w = w.max(state.truncation_error());
                        }
                    }
                });
            }
        });
        prepared
            .into_iter()
            .enumerate()
            .map(|(t, p)| {
                let m = exec_metrics();
                m.jobs.inc();
                let result = (|| {
                    let task = p?;
                    m.shots.add(task.shots);
                    m.chunks.add(task.shots.div_ceil(SHOT_CHUNK));
                    if let BatchPlan::Trajectory {
                        kind: BackendKind::Mps { max_bond },
                        ..
                    } = task.plan
                    {
                        let worst = *worst_truncation[t]
                            .lock()
                            .expect("truncation slot poisoned");
                        check_truncation(task.budget, max_bond, worst)?;
                    }
                    let counts = slots[t]
                        .lock()
                        .expect("batch slot poisoned")
                        .take()
                        .unwrap_or_else(|| Counts::new(task.num_clbits));
                    Ok(counts)
                })();
                if result.is_err() {
                    m.job_failures.inc();
                }
                result
            })
            .collect()
    }

    /// Resolves one batch task's backend and evolves its fast-path prefix.
    /// `choice` and `budget` are the task's *effective* backend choice and
    /// truncation budget (per-job overrides already folded in).
    fn prepare<'c>(
        &self,
        circuit: &'c Circuit,
        shots: u64,
        seed: u64,
        choice: BackendChoice,
        budget: f64,
    ) -> Result<BatchTask<'c>, SimError> {
        let kind = backend::resolve(choice, circuit)?;
        let sampling_ok = !self.config.noise.is_noisy() && measures_only_at_end(circuit);
        let (plan, ops) = match kind {
            BackendKind::Dense if sampling_ok => {
                let plan = self.plan_for(circuit);
                let mut sv = StateVector::zero(circuit.num_qubits());
                plan.apply_unitary(&mut sv);
                let sampler = Sampler::Dense {
                    sv,
                    measure_map: plan.measure_map().to_vec(),
                };
                (BatchPlan::Sampling(sampler), plan.ops().len())
            }
            // Noiseless dense circuits with mid-circuit measurement,
            // conditionals or resets: whole classical words drawn from the
            // exact branch distribution, or per-shot engine trajectories
            // when the branches exceed the amplitude budget.
            BackendKind::Dense if !self.config.noise.is_noisy() => {
                let plan = self.plan_for(circuit);
                match plan.branch_distribution() {
                    Some(dist) => (
                        BatchPlan::Sampling(Sampler::Words(WordSampler::new(&dist))),
                        plan.ops().len(),
                    ),
                    None => {
                        exec_metrics().branch_fallbacks.inc();
                        (BatchPlan::Trajectory { kind, circuit }, circuit.len())
                    }
                }
            }
            // Noisy dense circuits: whole classical words drawn from the
            // exact noisy distribution of one density-matrix evolution
            // when the circuit measures only at the end and ρ fits the
            // amplitude budget (see `crate::density`). Dynamic circuits
            // and circuits past the budget replay precompiled kernel
            // segments per shot, split at the live noise sites —
            // bit-identical (state, clbits, RNG stream) to per-gate
            // dispatch.
            BackendKind::Dense => match self.noisy_distribution(circuit) {
                Some((dist, ops)) => (
                    BatchPlan::Sampling(Sampler::Words(WordSampler::new(&dist))),
                    ops,
                ),
                None => {
                    let plan = self.noisy_plan_for(circuit);
                    let ops = plan.ops().len();
                    (BatchPlan::NoisyReplay { plan }, ops)
                }
            },
            // Basis words are multi-word `OutcomeWord`s, so measure-at-end
            // MPS circuits keep the O(n·χ²)-per-shot sampling fast path at
            // any width (the old sampler packed a `u64` and fell back to
            // per-shot trajectory replay past 64 qubits).
            BackendKind::Mps { max_bond } if sampling_ok => {
                let (state, measure_map) = evolve_mps_prefix(circuit, max_bond);
                check_truncation(budget, max_bond, state.truncation_error())?;
                let sampler = Sampler::Mps {
                    mps: state.into_sampler(),
                    measure_map,
                };
                (BatchPlan::Sampling(sampler), circuit.len())
            }
            // Clifford circuits on the tableau: one noiseless reference
            // run, then Pauli frames for 64 shots per word — unless a
            // conditional gate is not a Pauli, which needs per-shot
            // trajectories (see `crate::frame`).
            BackendKind::Tableau => match FramePlan::new(circuit, seed) {
                Some(plan) => {
                    let ops = plan.num_ops();
                    (BatchPlan::Frames(plan), ops)
                }
                None => (BatchPlan::Trajectory { kind, circuit }, circuit.len()),
            },
            _ => (BatchPlan::Trajectory { kind, circuit }, circuit.len()),
        };
        Ok(BatchTask {
            plan,
            kind,
            ops,
            num_qubits: circuit.num_qubits(),
            num_clbits: circuit.num_clbits(),
            shots,
            seed,
            budget,
        })
    }

    /// Executes one prepared task through its plan (the single-task twin
    /// of the batch worker loop; both paths share the chunk partition and
    /// seeding, so their counts are bit-identical).
    fn run_task(&self, task: &BatchTask) -> Result<Counts, SimError> {
        match &task.plan {
            // Word tables give each worker at least `WORD_CHUNKS_PER_WORKER`
            // chunks, so jobs under 2 × 32 chunks draw on the calling
            // thread. The thread count never changes counts.
            BatchPlan::Sampling(sampler) => Ok(self.chunked_counts(
                match sampler {
                    Sampler::Words(_) => {
                        let chunks = task.shots.div_ceil(SHOT_CHUNK) as usize;
                        (chunks / WORD_CHUNKS_PER_WORKER).clamp(1, self.config.threads.max(1))
                    }
                    _ => self.config.threads,
                },
                task.num_clbits,
                task.shots,
                task.seed,
                Vec::new,
                |tally, chunk_shots, rng, counts| {
                    sample_chunk(sampler, tally, chunk_shots, rng, counts)
                },
                |_| {},
                &AtomicBool::new(false),
            )),
            BatchPlan::Frames(plan) => Ok(self.chunked_counts(
                self.config.threads,
                task.num_clbits,
                task.shots,
                task.seed,
                || plan.scratch(),
                |scratch, chunk_shots, rng, counts| {
                    plan.sample_into(&self.config.noise, scratch, chunk_shots, rng, counts)
                },
                |_| {},
                &AtomicBool::new(false),
            )),
            BatchPlan::NoisyReplay { plan } => Ok(self.chunked_counts(
                self.config.threads,
                task.num_clbits,
                task.shots,
                task.seed,
                || StateVector::zero(plan.num_qubits()),
                |sv, chunk_shots, rng, counts| {
                    noisy_replay_chunk(plan, &self.config.noise, sv, chunk_shots, rng, counts)
                },
                |_| {},
                &AtomicBool::new(false),
            )),
            BatchPlan::Trajectory { kind, circuit } => {
                self.run_trajectories(*kind, circuit, task.shots, task.seed, task.budget)
            }
        }
    }

    /// [`Executor::run_task`] wrapped in telemetry: per-job wall time into
    /// the backend's `exec.job_us.*` histogram, shot/chunk volume, and one
    /// `executor`-layer trace span. With metrics and tracing both off this
    /// is two relaxed atomic loads and a tail call — no clock read.
    fn run_task_timed(&self, task: &BatchTask) -> Result<Counts, SimError> {
        if !tmetrics::enabled() && !trace::enabled() {
            return self.run_task(task);
        }
        let chunks = task.shots.div_ceil(SHOT_CHUNK);
        let span = trace::span("executor", "job")
            .label("backend", task.kind.name())
            .label("path", task.plan.path())
            .int("qubits", task.num_qubits as i128)
            .int("ops", task.ops as i128)
            .int("shots", task.shots as i128)
            .int("chunks", chunks as i128);
        let start = Instant::now();
        let result = self.run_task(task);
        let dur_us = start.elapsed().as_micros() as u64;
        let m = exec_metrics();
        m.jobs.inc();
        m.shots.add(task.shots);
        m.chunks.add(chunks);
        m.job_us(task.kind).record(dur_us);
        if result.is_err() {
            m.job_failures.inc();
        }
        span.int("ok", result.is_ok() as i128).finish();
        result
    }

    /// Monte-Carlo path: one trajectory per shot on the resolved backend.
    ///
    /// When a worker's state blows the MPS truncation budget mid-run the
    /// shared cancel flag aborts the remaining chunks: the run is already
    /// doomed to the typed error, so finishing the shot budget would only
    /// burn `~shots×` the cost for the same refusal. Runs within budget
    /// never set the flag and stay bit-identical for every thread count.
    fn run_trajectories(
        &self,
        kind: BackendKind,
        circuit: &Circuit,
        shots: u64,
        seed: u64,
        budget: f64,
    ) -> Result<Counts, SimError> {
        let engine = kind.build();
        let engine = &engine;
        let worst_truncation = Mutex::new(0.0f64);
        let cancel = AtomicBool::new(false);
        let counts = self.chunked_counts(
            self.config.threads,
            circuit.num_clbits(),
            shots,
            seed,
            || {
                engine
                    .init(circuit.num_qubits())
                    .expect("backend capacity pre-validated by resolve()")
            },
            |state, chunk_shots, rng, counts| {
                self.trajectory_chunk(circuit, state.as_mut(), chunk_shots, rng, counts);
                if state.truncation_error() > budget {
                    cancel.store(true, Ordering::Relaxed);
                }
            },
            |state| {
                let e = state.truncation_error();
                let mut w = worst_truncation.lock().expect("truncation slot poisoned");
                *w = w.max(e);
            },
            &cancel,
        );
        if let BackendKind::Mps { max_bond } = kind {
            let worst = worst_truncation
                .into_inner()
                .expect("truncation slot poisoned");
            check_truncation(budget, max_bond, worst)?;
        }
        Ok(counts)
    }

    /// One chunk of Monte-Carlo trajectories on a reusable state, recorded
    /// into `counts`; the outcome scratch word is reused across the chunk's
    /// shots, so ≤ 64-bit registers record without heap allocation.
    fn trajectory_chunk(
        &self,
        circuit: &Circuit,
        state: &mut dyn BackendState,
        chunk_shots: u64,
        rng: &mut StdRng,
        counts: &mut Counts,
    ) {
        let mut word = OutcomeWord::zero();
        for _ in 0..chunk_shots {
            self.trajectory(circuit, state, rng, &mut word);
            counts.record_word(&word);
        }
    }

    /// Partitions `shots` into [`SHOT_CHUNK`]-sized chunks and runs them on
    /// up to `threads` workers. `make_ctx` builds one reusable
    /// per-worker context (e.g. a simulator state), `run_chunk` executes one
    /// chunk with a chunk-seeded RNG and records its shots into the
    /// worker's counts table, and `retire` observes each context
    /// after its worker finishes (so callers can fold per-state metadata
    /// like the MPS truncation ledger).
    ///
    /// Each chunk's RNG depends only on `(seed, chunk index)` and
    /// [`Counts::merge`] is commutative outcome-wise addition, so workers
    /// accumulate locally and the final merge order does not matter — the
    /// result is bit-identical to the serial loop with only `threads` (not
    /// `num_chunks`) counts tables alive.
    ///
    /// `cancel` is an early-abort flag: once set (by a `run_chunk` closure
    /// that has concluded the run cannot succeed, e.g. an exceeded MPS
    /// truncation budget), remaining chunks are skipped. The returned
    /// counts are then partial, which is fine because the caller turns a
    /// set flag into an error and discards them; runs that never set the
    /// flag are unaffected.
    #[allow(clippy::too_many_arguments)]
    fn chunked_counts<C, M, F, R>(
        &self,
        threads: usize,
        num_clbits: usize,
        shots: u64,
        seed: u64,
        make_ctx: M,
        run_chunk: F,
        retire: R,
        cancel: &AtomicBool,
    ) -> Counts
    where
        M: Fn() -> C + Sync,
        F: Fn(&mut C, u64, &mut StdRng, &mut Counts) + Sync,
        R: Fn(C) + Sync,
    {
        let num_chunks = shots.div_ceil(SHOT_CHUNK) as usize;
        let chunk_shots = |i: usize| (shots - i as u64 * SHOT_CHUNK).min(SHOT_CHUNK);
        let mut merged = Counts::new(num_clbits);
        let threads = threads.min(num_chunks);
        if threads <= 1 {
            let mut ctx = make_ctx();
            for i in 0..num_chunks {
                if cancel.load(Ordering::Relaxed) {
                    break;
                }
                let mut rng = StdRng::seed_from_u64(derive_seed(seed, i as u64));
                run_chunk(&mut ctx, chunk_shots(i), &mut rng, &mut merged);
            }
            retire(ctx);
            return merged;
        }
        let next = AtomicUsize::new(0);
        let partials: Mutex<Vec<Counts>> = Mutex::new(Vec::with_capacity(threads));
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let mut ctx = make_ctx();
                    let mut local = Counts::new(num_clbits);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= num_chunks || cancel.load(Ordering::Relaxed) {
                            break;
                        }
                        let mut rng = StdRng::seed_from_u64(derive_seed(seed, i as u64));
                        run_chunk(&mut ctx, chunk_shots(i), &mut rng, &mut local);
                    }
                    retire(ctx);
                    partials
                        .lock()
                        .expect("partial counts poisoned")
                        .push(local);
                });
            }
        });
        for partial in partials.into_inner().expect("partial counts poisoned") {
            merged.merge(&partial);
        }
        merged
    }

    /// One full Monte-Carlo trajectory, writing the classical outcome into
    /// the caller's scratch word (cleared first; any register width).
    fn trajectory(
        &self,
        circuit: &Circuit,
        state: &mut dyn BackendState,
        rng: &mut StdRng,
        clbits: &mut OutcomeWord,
    ) {
        state.reinit();
        clbits.clear();
        for op in circuit.ops() {
            match op {
                Op::Gate { gate, qubits } => {
                    state.apply_gate(*gate, qubits);
                    for (q, pauli) in self.config.noise.sample_gate_errors(gate, qubits, rng) {
                        state.apply_pauli(q, pauli);
                    }
                }
                Op::CondGate {
                    gate,
                    qubits,
                    clbit,
                    value,
                } => {
                    if clbits.bit(*clbit) == *value {
                        state.apply_gate(*gate, qubits);
                        for (q, pauli) in self.config.noise.sample_gate_errors(gate, qubits, rng) {
                            state.apply_pauli(q, pauli);
                        }
                    }
                }
                Op::Measure { qubit, clbit } => {
                    let raw = state.measure(*qubit, rng);
                    let reported = self.config.noise.sample_readout(raw, rng);
                    clbits.set_bit(*clbit, reported);
                }
                Op::Reset { qubit } => {
                    state.reset(*qubit, rng);
                }
                Op::Barrier { .. } => {
                    for (q, pauli) in self
                        .config
                        .noise
                        .sample_idle_errors(state.num_qubits(), rng)
                    {
                        state.apply_pauli(q, pauli);
                    }
                }
            }
        }
    }

    /// The noiseless outcome distribution: exact for dense-sized circuits
    /// (see [`Executor::exact_distribution`]), estimated from 16384
    /// auto-dispatched shots otherwise (Clifford circuits past the dense
    /// cap, and dynamic circuits whose branches exceed
    /// [`plan::BRANCH_AMPLITUDE_BUDGET`]). The sampled fallback runs
    /// single-threaded; pass a worker count through
    /// [`Executor::try_ideal_distribution_threaded`] when the fallback
    /// workload is large.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] when no backend can run the circuit.
    pub fn try_ideal_distribution(circuit: &Circuit, seed: u64) -> Result<Distribution, SimError> {
        Self::try_ideal_distribution_threaded(circuit, seed, 1)
    }

    /// [`Executor::try_ideal_distribution`] with a worker-thread count for
    /// the sampled fallback (results are thread-count independent; see the
    /// module docs).
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] when no backend can run the circuit.
    pub fn try_ideal_distribution_threaded(
        circuit: &Circuit,
        seed: u64,
        threads: usize,
    ) -> Result<Distribution, SimError> {
        if let Some(dist) = Self::exact_distribution(circuit) {
            return Ok(dist);
        }
        let span = (tmetrics::enabled() || trace::enabled()).then(|| {
            trace::span("executor", "distribution")
                .label("path", "sampled")
                .int("qubits", circuit.num_qubits() as i128)
        });
        let result = ExecutorConfig::new()
            .threads(threads)
            .build()
            .try_run(circuit, DISTRIBUTION_SHOTS, seed)
            .map(|counts| counts.to_distribution());
        if let Some(span) = span {
            span.int("ok", result.is_ok() as i128).finish();
        }
        result
    }

    /// The exact noiseless outcome distribution of a dense-sized circuit,
    /// from one evolution of its cached plan
    /// ([`CircuitPlan::branch_distribution`]): a single readout for
    /// measure-at-end circuits, branch enumeration for circuits with
    /// mid-circuit measurement, resets or conditionals.
    ///
    /// Returns `None` past [`backend::DENSE_QUBIT_CAP`] or when the
    /// branches exceed [`plan::BRANCH_AMPLITUDE_BUDGET`].
    pub fn exact_distribution(circuit: &Circuit) -> Option<Distribution> {
        if circuit.num_qubits() > backend::DENSE_QUBIT_CAP {
            return None;
        }
        let traced = tmetrics::enabled() || trace::enabled();
        let span = traced.then(|| {
            let path = if measures_only_at_end(circuit) {
                "exact"
            } else {
                "branch"
            };
            trace::span("executor", "distribution")
                .label("path", path)
                .int("qubits", circuit.num_qubits() as i128)
        });
        let plan = plan::shared_cache()
            .lock()
            .expect("plan cache poisoned")
            .get_or_compile(circuit);
        let enumerated = plan.enumerate_branches();
        if traced {
            let m = exec_metrics();
            match enumerated {
                Some(_) => m.distributions.inc(),
                None => m.branch_fallbacks.inc(),
            }
        }
        if let Some(span) = span {
            let branches = enumerated.as_ref().map_or(0, |(_, n)| *n);
            span.int("branches", branches as i128)
                .int("ok", enumerated.is_some() as i128)
                .finish();
        }
        enumerated.map(|(dist, _)| dist)
    }

    /// Panicking wrapper around [`Executor::try_ideal_distribution`].
    ///
    /// # Panics
    ///
    /// Panics when the circuit cannot be simulated.
    pub fn ideal_distribution(circuit: &Circuit, seed: u64) -> Distribution {
        match Self::try_ideal_distribution(circuit, seed) {
            Ok(dist) => dist,
            Err(e) => panic!("simulation failed: {e}"),
        }
    }

    /// Runs the unitary portion only and returns the final state.
    ///
    /// # Panics
    ///
    /// Panics when the circuit contains measurements, resets or conditional
    /// gates.
    pub fn statevector(circuit: &Circuit) -> StateVector {
        assert!(
            circuit.is_unitary_only(),
            "statevector() requires a measurement-free circuit"
        );
        let mut sv = StateVector::zero(circuit.num_qubits());
        for op in circuit.ops() {
            if let Op::Gate { gate, qubits } = op {
                sv.apply_gate(*gate, qubits);
            }
        }
        sv
    }
}

/// One prepared batch task: how its chunks execute.
enum BatchPlan<'c> {
    /// Sampling fast path: the exact distribution prepared once, shared
    /// read-only; chunks draw whole words from the [`Sampler`].
    Sampling(Sampler),
    /// Pauli-frame sampling on the tableau: the noiseless reference sample
    /// taken once, shared read-only; chunks propagate 64 shots per word.
    Frames(FramePlan),
    /// Monte-Carlo path on a noisy replay plan: noisy dense circuits the
    /// exact density path declines (dynamic, or over the budget) replay
    /// precompiled kernel segments between noise insertion points,
    /// bit-identical to per-gate dispatch.
    NoisyReplay { plan: Arc<NoisyPlan> },
    /// Monte-Carlo path: each worker lazily builds its own state per task.
    Trajectory {
        kind: BackendKind,
        circuit: &'c Circuit,
    },
}

/// A frozen exact distribution the sampling fast path draws shots from —
/// the single seam the dense, MPS and branch-enumerated paths share, so
/// the executor has one sampling arm instead of per-engine copies.
enum Sampler {
    /// Dense state vector of a measure-at-end prefix: exact index sampling
    /// from `2^n` probabilities, read out through the `(qubit, clbit)`
    /// measurement map.
    Dense {
        sv: StateVector,
        measure_map: Vec<(usize, usize)>,
    },
    /// MPS train with precomputed right environments: `O(n·χ²)` per shot,
    /// read out through the measurement map.
    Mps {
        mps: MpsSampler,
        measure_map: Vec<(usize, usize)>,
    },
    /// Classical words drawn whole from an exact distribution over
    /// them: a noiseless dynamic circuit's
    /// [`CircuitPlan::branch_distribution`], or a noisy measure-at-end
    /// circuit's [`DensityProgram::distribution`].
    Words(WordSampler),
}

impl BatchPlan<'_> {
    /// The execution path's trace label.
    fn path(&self) -> &'static str {
        match self {
            BatchPlan::Sampling(_) => "sampling",
            BatchPlan::Frames(_) => "frames",
            BatchPlan::NoisyReplay { .. } => "noisy_replay",
            BatchPlan::Trajectory { .. } => "trajectory",
        }
    }
}

/// A batch task with its execution plan and shot bookkeeping.
struct BatchTask<'c> {
    plan: BatchPlan<'c>,
    /// The resolved backend (telemetry keys per-job wall time by it).
    kind: BackendKind,
    /// Ops in the job's compiled program (plan, density program, frame
    /// plan or replay plan; source ops for engine trajectories).
    ops: usize,
    num_qubits: usize,
    num_clbits: usize,
    shots: u64,
    seed: u64,
    /// Effective MPS truncation budget (per-job override or executor
    /// default, folded in at `prepare` time).
    budget: f64,
}

/// The truncation budget check MPS runs pass through: `error_bound` is the
/// worst per-trajectory rigorous infidelity bound observed.
fn check_truncation(budget: f64, max_bond: usize, error_bound: f64) -> Result<(), SimError> {
    // Budget consumption in ‰ — how close MPS runs sail to their budget
    // is invisible from pass/fail alone. Unbounded budgets record nothing
    // (consumption of an infinite budget is always 0).
    if tmetrics::enabled() && budget > 0.0 && budget.is_finite() {
        let permille = (error_bound / budget * 1000.0).min(u64::MAX as f64) as u64;
        exec_metrics().truncation_permille.record(permille);
    }
    if error_bound > budget {
        exec_metrics().truncation_exceeded.inc();
        Err(SimError::TruncationBudgetExceeded {
            max_bond,
            error_bound,
            budget,
        })
    } else {
        Ok(())
    }
}

/// Per-worker reusable simulation context in the batch loop: a boxed
/// backend engine for engine trajectories, a bare state vector for noisy
/// replays, frame buffers for frame sampling, or the per-outcome tally
/// of word sampling.
enum WorkerCtx {
    Engine(Box<dyn BackendState>),
    Dense(StateVector),
    Frame(FrameScratch),
    Tally(Vec<u64>),
}

/// One chunk of noisy replay trajectories on a reusable state vector: the
/// precompiled twin of the per-gate `trajectory_chunk`, sharing its RNG
/// consumption order exactly (see [`crate::replay`] for the bit-identity
/// contract).
fn noisy_replay_chunk(
    plan: &NoisyPlan,
    noise: &NoiseModel,
    sv: &mut StateVector,
    chunk_shots: u64,
    rng: &mut StdRng,
    counts: &mut Counts,
) {
    let mut word = OutcomeWord::zero();
    for _ in 0..chunk_shots {
        plan.run_trajectory(sv, noise, rng, &mut word);
        counts.record_word(&word);
    }
}

/// Evolves a measure-at-end circuit's unitary prefix on the MPS engine.
fn evolve_mps_prefix(circuit: &Circuit, max_bond: usize) -> (MpsState, Vec<(usize, usize)>) {
    let mut state = MpsState::new(circuit.num_qubits(), max_bond);
    let mut measure_map: Vec<(usize, usize)> = Vec::new();
    for op in circuit.ops() {
        match op {
            Op::Gate { gate, qubits } => state.apply_gate(*gate, qubits),
            Op::Measure { qubit, clbit } => measure_map.push((*qubit, *clbit)),
            Op::Barrier { .. } => {}
            _ => unreachable!("fast path precondition violated"),
        }
    }
    (state, measure_map)
}

/// Draws one chunk of shots from `sampler` into `counts`. Basis words
/// (bit `i` = qubit `i`) are packed into classical words through the
/// measurement map, last writer winning when two measurements share a
/// clbit; word-table draws are tallied per outcome in the worker's
/// reusable `tally` and recorded once per distinct word. Both scratch
/// words are reused across the chunk's shots, keeping ≤ 64-bit registers
/// allocation-free.
fn sample_chunk(
    sampler: &Sampler,
    tally: &mut Vec<u64>,
    chunk_shots: u64,
    rng: &mut StdRng,
    counts: &mut Counts,
) {
    let measure_map = match sampler {
        Sampler::Words(table) => return table.sample_into(chunk_shots, rng, tally, counts),
        Sampler::Dense { measure_map, .. } | Sampler::Mps { measure_map, .. } => measure_map,
    };
    let mut basis = OutcomeWord::zero();
    let mut word = OutcomeWord::zero();
    for _ in 0..chunk_shots {
        match sampler {
            Sampler::Dense { sv, .. } => basis.assign_u64(sv.sample(rng) as u64),
            Sampler::Mps { mps, .. } => mps.sample_into(rng, &mut basis),
            Sampler::Words(_) => unreachable!("word tables returned above"),
        }
        word.clear();
        for &(q, c) in measure_map {
            word.set_bit(c, basis.bit(q));
        }
        counts.record_word(&word);
    }
}

/// `true` when the circuit has no conditionals/resets and every measurement
/// comes after the last gate.
pub fn measures_only_at_end(circuit: &Circuit) -> bool {
    let mut seen_measure = false;
    for op in circuit.ops() {
        match op {
            Op::CondGate { .. } | Op::Reset { .. } => return false,
            Op::Measure { .. } => seen_measure = true,
            Op::Gate { .. } => {
                if seen_measure {
                    return false;
                }
            }
            Op::Barrier { .. } => {}
        }
    }
    true
}

/// Convenience: sample a random `u64` stream deterministically from a seed
/// plus an index (used by the shot chunking and by benches to decorrelate
/// sweeps).
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    // SplitMix64 step.
    let mut z = seed.wrapping_add(index.wrapping_mul(0x9E3779B97F4A7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Samples `n` outcomes from an arbitrary discrete distribution (utility for
/// synthetic workloads).
pub fn sample_distribution(dist: &Distribution, n: u64, seed: u64) -> Counts {
    let mut counts = Counts::new(dist.num_clbits());
    if n == 0 || dist.iter().next().is_none() {
        return counts;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    WordSampler::new(dist).sample_into(n, &mut rng, &mut Vec::new(), &mut counts);
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;
    use qcir::gate::Gate;

    fn bell() -> Circuit {
        let mut qc = Circuit::new(2, 2);
        qc.h(0).cx(0, 1).measure_all();
        qc
    }

    fn ghz(n: usize) -> Circuit {
        let mut qc = Circuit::new(n, n);
        qc.h(0);
        for q in 0..n - 1 {
            qc.cx(q, q + 1);
        }
        qc.measure_all();
        qc
    }

    /// Forced-backend executor shorthand for the tests below.
    fn on_backend(choice: BackendChoice) -> Executor {
        ExecutorConfig::new().backend(choice).build()
    }

    #[test]
    fn ideal_bell_is_correlated() {
        let counts = Executor::ideal().try_run(&bell(), 2000, 9).unwrap();
        assert_eq!(counts.shots(), 2000);
        assert_eq!(counts.count(0b01) + counts.count(0b10), 0);
        let p00 = counts.probability(0b00);
        assert!((p00 - 0.5).abs() < 0.05, "p00 = {p00}");
    }

    #[test]
    fn fast_and_trajectory_paths_agree() {
        let qc = bell();
        let fast = Executor::ideal()
            .try_run(&qc, 4000, 1)
            .unwrap()
            .to_distribution();
        // Force the noisy replay path with a zero-rate "noisy" model.
        let mut zero = NoiseModel::uniform_depolarizing(0.0);
        zero.idle_error = 0.0;
        zero.readout_error = 1e-300; // non-zero flag, negligible effect
        let slow = Executor::with_noise(zero)
            .try_run(&qc, 4000, 1)
            .unwrap()
            .to_distribution();
        assert!(fast.tvd(&slow) < 0.05);
    }

    #[test]
    fn ideal_distribution_is_exact() {
        let dist = Executor::ideal_distribution(&bell(), 0);
        assert!((dist.get(0b00) - 0.5).abs() < 1e-12);
        assert!((dist.get(0b11) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Executor::ideal().try_run(&bell(), 100, 42).unwrap();
        let b = Executor::ideal().try_run(&bell(), 100, 42).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn readout_noise_pollutes_deterministic_circuit() {
        let mut qc = Circuit::new(1, 1);
        qc.x(0).measure(0, 0);
        let nm = NoiseModel {
            one_qubit_depol: 0.0,
            two_qubit_depol: 0.0,
            readout_error: 0.2,
            idle_error: 0.0,
            label: "ro".into(),
        };
        let counts = Executor::with_noise(nm).try_run(&qc, 20_000, 5).unwrap();
        let p_wrong = counts.probability(0b0);
        assert!((p_wrong - 0.2).abs() < 0.02, "p_wrong = {p_wrong}");
    }

    #[test]
    fn conditional_teleport_like_correction_works() {
        // Prepare |1> on q0, measure into c0, then conditionally flip q1.
        let mut qc = Circuit::new(2, 2);
        qc.x(0).measure(0, 0);
        qc.cond_gate(Gate::X, &[1], 0, true);
        qc.measure(1, 1);
        let counts = Executor::ideal().try_run(&qc, 200, 3).unwrap();
        assert_eq!(counts.count(0b11), 200);
    }

    #[test]
    fn reset_mid_circuit() {
        let mut qc = Circuit::new(1, 1);
        qc.x(0).reset(0).measure(0, 0);
        let counts = Executor::ideal().try_run(&qc, 100, 4).unwrap();
        assert_eq!(counts.count(0), 100);
    }

    #[test]
    fn depolarizing_noise_reduces_fidelity() {
        let qc = bell();
        let noisy = Executor::with_noise(profiles::noisy_nisq())
            .try_run(&qc, 5000, 6)
            .unwrap();
        let ideal = Executor::ideal_distribution(&qc, 0);
        let tvd = noisy.to_distribution().tvd(&ideal);
        assert!(tvd > 0.02, "noise should be visible, tvd = {tvd}");
        assert!(tvd < 0.6, "noise should not destroy the state, tvd = {tvd}");
    }

    #[test]
    fn measures_only_at_end_detection() {
        assert!(measures_only_at_end(&bell()));
        let mut mid = Circuit::new(2, 2);
        mid.h(0).measure(0, 0).x(1).measure(1, 1);
        assert!(!measures_only_at_end(&mid));
        let mut cond = Circuit::new(1, 1);
        cond.measure(0, 0);
        cond.cond_gate(Gate::X, &[0], 0, true);
        assert!(!measures_only_at_end(&cond));
    }

    #[test]
    fn derive_seed_decorrelates() {
        let a = derive_seed(1, 0);
        let b = derive_seed(1, 1);
        assert_ne!(a, b);
        assert_eq!(derive_seed(1, 0), a);
    }

    #[test]
    fn sample_distribution_matches_probabilities() {
        let mut d = Distribution::new(1);
        d.set(0, 0.25);
        d.set(1, 0.75);
        let counts = sample_distribution(&d, 20_000, 8);
        assert!((counts.probability(1) - 0.75).abs() < 0.02);
    }

    #[test]
    fn forced_backends_agree_on_bell() {
        let dense = on_backend(BackendChoice::Dense)
            .try_run(&bell(), 4000, 11)
            .unwrap()
            .to_distribution();
        let tableau = on_backend(BackendChoice::Tableau)
            .try_run(&bell(), 4000, 11)
            .unwrap()
            .to_distribution();
        assert!(dense.tvd(&tableau) < 0.05);
    }

    #[test]
    fn auto_dispatch_runs_large_clifford_circuits() {
        // 49 qubits: far past the dense cap, fine on the tableau.
        let counts = Executor::ideal().try_run(&ghz(49), 256, 13).unwrap();
        assert_eq!(counts.shots(), 256);
        assert_eq!(counts.distinct_outcomes(), 2);
        let all_ones = (1u64 << 49) - 1;
        assert_eq!(counts.count(0) + counts.count(all_ones), 256);
    }

    #[test]
    fn try_run_returns_typed_errors() {
        // Non-Clifford AND long-range past the dense cap: no backend can
        // run it (short-range circuits would dispatch to the MPS engine).
        let mut big = Circuit::new(30, 30);
        big.h(0).t(0).cp(0.4, 0, 29).measure(0, 0);
        assert!(matches!(
            Executor::ideal().try_run(&big, 16, 0),
            Err(SimError::QubitCapExceeded {
                backend: "dense",
                ..
            })
        ));
        // Forced tableau on a T gate.
        let mut t = Circuit::new(1, 1);
        t.t(0).measure(0, 0);
        assert!(matches!(
            on_backend(BackendChoice::Tableau).try_run(&t, 16, 0),
            Err(SimError::NonCliffordGate { gate: Gate::T })
        ));
    }

    #[test]
    fn wide_classical_registers_execute_end_to_end() {
        // 70 clbits: past the old one-word cap. The trajectory path writes
        // and conditions on spilled bits, and counts merge across chunks.
        let mut qc = Circuit::new(2, 70);
        qc.x(0).measure(0, 69);
        qc.cond_gate(Gate::X, &[1], 69, true);
        qc.measure(1, 0);
        let counts = Executor::ideal().try_run(&qc, 300, 3).unwrap();
        assert_eq!(counts.shots(), 300);
        let mut expected = OutcomeWord::from(1u64);
        expected.set_bit(69, true);
        assert_eq!(counts.count_word(&expected), 300);
        // Parallel chunking stays bit-identical on wide registers.
        let parallel = ExecutorConfig::new()
            .threads(4)
            .build()
            .try_run(&qc, 3000, 9)
            .unwrap();
        let serial = Executor::ideal().try_run(&qc, 3000, 9).unwrap();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn parallel_shots_are_bit_identical_to_serial() {
        let qc = ghz(8);
        let noisy = profiles::noisy_nisq();
        for threads in [2usize, 4, 7] {
            let serial = Executor::with_noise(noisy.clone())
                .try_run(&qc, 5000, 21)
                .unwrap();
            let parallel = ExecutorConfig::new()
                .noise(noisy.clone())
                .threads(threads)
                .build()
                .try_run(&qc, 5000, 21)
                .unwrap();
            assert_eq!(serial, parallel, "threads = {threads}");
        }
        // Also on the dense sampling fast path and the tableau path.
        let fast_serial = Executor::ideal().try_run(&qc, 5000, 22).unwrap();
        let fast_parallel = ExecutorConfig::new()
            .threads(4)
            .build()
            .try_run(&qc, 5000, 22)
            .unwrap();
        assert_eq!(fast_serial, fast_parallel);
        let tab = ExecutorConfig::new().backend(BackendChoice::Tableau);
        assert_eq!(
            tab.clone().build().try_run(&qc, 3000, 23).unwrap(),
            tab.threads(3).build().try_run(&qc, 3000, 23).unwrap()
        );
    }

    #[test]
    fn shot_totals_survive_chunking() {
        // Shot counts that are not multiples of SHOT_CHUNK partition cleanly.
        let exec = ExecutorConfig::new().threads(4).build();
        for shots in [0u64, 1, SHOT_CHUNK - 1, SHOT_CHUNK, SHOT_CHUNK + 1, 2500] {
            let counts = exec.try_run(&bell(), shots, 30).unwrap();
            assert_eq!(counts.shots(), shots);
        }
    }

    #[test]
    fn try_ideal_distribution_handles_large_clifford() {
        let dist = Executor::try_ideal_distribution(&ghz(30), 2).unwrap();
        let all_ones = (1u64 << 30) - 1;
        assert!((dist.get(0) - 0.5).abs() < 0.05);
        assert!((dist.get(all_ones) - 0.5).abs() < 0.05);
        let mut big = Circuit::new(30, 30);
        big.h(0).t(0).cp(0.4, 0, 29).measure(0, 0);
        assert!(Executor::try_ideal_distribution(&big, 2).is_err());
    }

    #[test]
    fn forced_mps_agrees_with_dense_on_bell() {
        let dense = on_backend(BackendChoice::Dense)
            .try_run(&bell(), 4000, 11)
            .unwrap()
            .to_distribution();
        let mps = on_backend(BackendChoice::Mps { max_bond: 4 })
            .try_run(&bell(), 4000, 12)
            .unwrap()
            .to_distribution();
        assert!(dense.tvd(&mps) < 0.05);
    }

    #[test]
    fn auto_runs_short_range_general_circuits_past_the_dense_cap() {
        // 30 qubits of nearest-neighbor T+CX: refused outright before the
        // MPS backend existed.
        let n = 30;
        let mut qc = Circuit::new(n, n);
        for q in 0..n {
            qc.h(q);
        }
        for q in 0..n - 1 {
            qc.t(q);
            qc.cx(q, q + 1);
        }
        qc.measure_all();
        let counts = Executor::ideal().try_run(&qc, 128, 17).unwrap();
        assert_eq!(counts.shots(), 128);
    }

    #[test]
    fn mps_trajectory_path_handles_midcircuit_measurement() {
        // Teleport-like conditional on the forced MPS engine.
        let mut qc = Circuit::new(2, 2);
        qc.x(0).t(0).measure(0, 0);
        qc.cond_gate(Gate::X, &[1], 0, true);
        qc.measure(1, 1);
        let counts = on_backend(BackendChoice::Mps { max_bond: 4 })
            .try_run(&qc, 200, 3)
            .unwrap();
        assert_eq!(counts.count(0b11), 200);
    }

    #[test]
    fn truncation_budget_is_enforced_and_typed() {
        // χ = 1 cannot hold a Bell pair: the run must refuse, not lie.
        let exec = on_backend(BackendChoice::Mps { max_bond: 1 });
        assert!(matches!(
            exec.try_run(&bell(), 100, 5),
            Err(SimError::TruncationBudgetExceeded { max_bond: 1, .. })
        ));
        // An explicit infinite budget lets the truncated run through.
        let counts = ExecutorConfig::new()
            .backend(BackendChoice::Mps { max_bond: 1 })
            .truncation_budget(f64::INFINITY)
            .build()
            .try_run(&bell(), 100, 5)
            .unwrap();
        assert_eq!(counts.shots(), 100);
        // The budget also applies on the per-shot trajectory path.
        let mut mid = Circuit::new(2, 2);
        mid.h(0).cx(0, 1).measure(0, 0).measure(1, 1).reset(0);
        assert!(matches!(
            exec.try_run(&mid, 50, 5),
            Err(SimError::TruncationBudgetExceeded { .. })
        ));
    }

    #[test]
    fn doomed_mps_trajectory_runs_abort_early_with_the_typed_error() {
        // χ = 1 blows the budget on the very first trajectory; with many
        // chunks queued, the cancel flag lets the run refuse without
        // replaying the whole shot budget. The refusal stays typed on both
        // the serial and the parallel chunk loop, and on the batch path.
        let mut mid = Circuit::new(2, 2);
        mid.h(0).cx(0, 1).measure(0, 0).measure(1, 1).reset(0);
        let exec = on_backend(BackendChoice::Mps { max_bond: 1 });
        let shots = 16 * SHOT_CHUNK;
        assert!(matches!(
            exec.try_run(&mid, shots, 5),
            Err(SimError::TruncationBudgetExceeded { max_bond: 1, .. })
        ));
        let parallel = ExecutorConfig::new()
            .backend(BackendChoice::Mps { max_bond: 1 })
            .threads(4)
            .build();
        assert!(matches!(
            parallel.try_run(&mid, shots, 5),
            Err(SimError::TruncationBudgetExceeded { max_bond: 1, .. })
        ));
        let mid = Arc::new(mid);
        let batch = parallel.try_run_batch(&[
            JobSpec::new(Arc::clone(&mid), shots, 5),
            JobSpec::new(Arc::clone(&mid), shots, 6),
        ]);
        for result in batch {
            assert!(matches!(
                result,
                Err(SimError::TruncationBudgetExceeded { max_bond: 1, .. })
            ));
        }
    }

    #[test]
    fn mps_parallel_sampling_is_deterministic() {
        let mut qc = Circuit::new(6, 6);
        for q in 0..6 {
            qc.h(q);
            qc.t(q);
        }
        for q in 0..5 {
            qc.cx(q, q + 1);
        }
        qc.measure_all();
        let serial = on_backend(BackendChoice::Mps { max_bond: 8 })
            .try_run(&qc, 5000, 21)
            .unwrap();
        let parallel = ExecutorConfig::new()
            .backend(BackendChoice::Mps { max_bond: 8 })
            .threads(4)
            .build()
            .try_run(&qc, 5000, 21)
            .unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn branch_sampling_matches_the_unfused_engine_path() {
        // Noiseless dense with mid-circuit measurement: samples whole words
        // from the branch distribution. A zero-rate "noisy" model forces
        // the same circuit down the unfused noisy replay path; the
        // distributions must agree.
        let mut qc = Circuit::new(3, 3);
        qc.h(0).t(0).measure(0, 0);
        qc.cond_gate(Gate::X, &[1], 0, true);
        qc.h(2).cx(2, 1).measure(1, 1).measure(2, 2).reset(2);
        let planned = Executor::ideal()
            .try_run(&qc, 6000, 31)
            .unwrap()
            .to_distribution();
        let mut zero = NoiseModel::uniform_depolarizing(0.0);
        zero.idle_error = 0.0;
        zero.readout_error = 1e-300;
        let unfused = Executor::with_noise(zero)
            .try_run(&qc, 6000, 31)
            .unwrap()
            .to_distribution();
        assert!(planned.tvd(&unfused) < 0.05);
        // The branch-sampling path stays bit-identical across thread
        // counts, on the single-job and the batch path.
        let serial = Executor::ideal().try_run(&qc, 5000, 32).unwrap();
        for threads in [2usize, 4] {
            let exec = ExecutorConfig::new().threads(threads).build();
            assert_eq!(
                exec.try_run(&qc, 5000, 32).unwrap(),
                serial,
                "{threads} threads"
            );
            let batch = exec.try_run_batch(&[
                JobSpec::new(qc.clone(), 5000, 32),
                JobSpec::new(bell(), 100, 1),
            ]);
            assert_eq!(
                batch[0].as_ref().unwrap(),
                &serial,
                "batch, {threads} threads"
            );
        }
    }

    #[test]
    fn warm_cached_plan_runs_are_bit_identical_to_cold_runs() {
        let mut qc = Circuit::new(4, 4);
        qc.h(0).t(1).cx(0, 1).measure(0, 0);
        qc.cond_gate(Gate::X, &[2], 0, true);
        qc.cx(1, 2).h(3).cx(2, 3).measure_all();
        // Cold: fresh private cache compiles the plan during the run.
        let private = || {
            ExecutorConfig::new()
                .plan_cache(PlanCacheMode::Private)
                .build()
        };
        let cold = private().try_run(&qc, 3000, 77).unwrap();
        // Warm: the plan is compiled and cached before the run starts.
        let exec = private();
        let _ = exec.plan_for(&qc);
        let warm = exec.try_run(&qc, 3000, 77).unwrap();
        assert_eq!(cold, warm);
        // Both cold and warm runs on the sampling fast path, too.
        let mut end = Circuit::new(3, 3);
        end.h(0).cx(0, 1).t(1).cx(1, 2).measure_all();
        let cold = private().try_run(&end, 3000, 78).unwrap();
        let exec = private();
        let _ = exec.plan_for(&end);
        assert_eq!(cold, exec.try_run(&end, 3000, 78).unwrap());
    }

    #[test]
    fn batch_matches_individual_runs_for_every_thread_count() {
        let qc_bell = bell();
        let qc_ghz = ghz(8);
        let mut qc_mid = Circuit::new(3, 3);
        qc_mid.h(0).measure(0, 0);
        qc_mid.cond_gate(Gate::X, &[1], 0, true);
        qc_mid.measure(1, 1).measure(2, 2);
        let mut qc_mps = Circuit::new(5, 5);
        for q in 0..5 {
            qc_mps.h(q);
            qc_mps.t(q);
        }
        for q in 0..4 {
            qc_mps.cx(q, q + 1);
        }
        qc_mps.measure_all();
        let mut qc_bad = Circuit::new(30, 30);
        qc_bad.h(0).t(0).cp(0.4, 0, 29).measure(0, 0);
        let qc_bell = Arc::new(qc_bell);
        let tasks: Vec<JobSpec> = vec![
            JobSpec::new(Arc::clone(&qc_bell), 3000, 1),
            JobSpec::new(qc_ghz, 2500, 2),
            JobSpec::new(qc_mid, 1500, 3),
            JobSpec::new(qc_mps, 2000, 4),
            JobSpec::new(qc_bad, 100, 5),
            JobSpec::new(qc_bell, 0, 6),
        ];
        for (noise, threads) in [
            (NoiseModel::ideal(), 1usize),
            (NoiseModel::ideal(), 4),
            (profiles::noisy_nisq(), 3),
        ] {
            let exec = ExecutorConfig::new().noise(noise).threads(threads).build();
            let batch = exec.try_run_batch(&tasks);
            for (i, spec) in tasks.iter().enumerate() {
                let single = exec.try_run_job(spec);
                assert_eq!(batch[i], single, "task {i}, threads {threads}");
            }
            assert!(matches!(batch[4], Err(SimError::QubitCapExceeded { .. })));
        }
    }

    #[test]
    fn per_job_overrides_beat_the_executor_config_in_batches() {
        // One executor, heterogeneous backends: the bell job forced onto
        // the tableau must match a tableau-configured executor exactly,
        // while its neighbor inherits the executor's dense default.
        let qc = Arc::new(bell());
        let exec = ExecutorConfig::new()
            .backend(BackendChoice::Dense)
            .threads(4)
            .build();
        let batch = exec.try_run_batch(&[
            JobSpec::new(Arc::clone(&qc), 3000, 7).with_backend(BackendChoice::Tableau),
            JobSpec::new(Arc::clone(&qc), 3000, 7),
        ]);
        let tableau = on_backend(BackendChoice::Tableau)
            .try_run(&qc, 3000, 7)
            .unwrap();
        let dense = on_backend(BackendChoice::Dense)
            .try_run(&qc, 3000, 7)
            .unwrap();
        assert_eq!(batch[0].as_ref().unwrap(), &tableau);
        assert_eq!(batch[1].as_ref().unwrap(), &dense);
        // A per-job budget override rescues an otherwise-refused MPS job.
        let exec = on_backend(BackendChoice::Mps { max_bond: 1 });
        assert!(exec
            .try_run_job(&JobSpec::new(Arc::clone(&qc), 100, 5))
            .is_err());
        let rescued = exec
            .try_run_job(&JobSpec::new(Arc::clone(&qc), 100, 5).with_budget(f64::INFINITY))
            .unwrap();
        assert_eq!(rescued.shots(), 100);
    }

    #[test]
    fn executor_config_from_env_parses_and_survives_garbage() {
        // Env-var tests share process state: one test covers all cases
        // sequentially rather than racing parallel test threads.
        let keys = [
            "QUGEN_BACKEND",
            "QUGEN_THREADS",
            "QUGEN_TRUNCATION_BUDGET",
            "QUGEN_PLAN_CACHE",
        ];
        let saved: Vec<_> = keys.iter().map(|k| std::env::var(k).ok()).collect();
        std::env::set_var("QUGEN_BACKEND", "mps:32");
        std::env::set_var("QUGEN_THREADS", "8");
        std::env::set_var("QUGEN_TRUNCATION_BUDGET", "0.5");
        std::env::set_var("QUGEN_PLAN_CACHE", "128");
        let config = ExecutorConfig::from_env();
        assert_eq!(config.backend, BackendChoice::Mps { max_bond: 32 });
        assert_eq!(config.threads, 8);
        assert_eq!(config.truncation_budget, 0.5);
        assert_eq!(config.plan_cache_capacity, 128);
        // The configured capacity reaches a private cache verbatim.
        let exec = config.plan_cache(PlanCacheMode::Private).build();
        assert_eq!(
            exec.plan_cache.lock().unwrap().capacity(),
            128,
            "private cache must be sized from the config"
        );
        std::env::set_var("QUGEN_THREADS", "zero");
        std::env::set_var("QUGEN_TRUNCATION_BUDGET", "-3");
        std::env::set_var("QUGEN_PLAN_CACHE", "many");
        let config = ExecutorConfig::from_env();
        assert_eq!(config.threads, 1, "garbage keeps the default");
        assert_eq!(config.truncation_budget, DEFAULT_TRUNCATION_BUDGET);
        assert_eq!(config.plan_cache_capacity, plan::PLAN_CACHE_CAPACITY);
        std::env::set_var("QUGEN_PLAN_CACHE", "0");
        assert_eq!(
            plan::try_capacity_from_env(),
            Err(plan::PlanCacheParseError::ZeroCapacity)
        );
        assert_eq!(
            ExecutorConfig::from_env().plan_cache_capacity,
            plan::PLAN_CACHE_CAPACITY,
            "zero warns and keeps the default"
        );
        std::env::set_var("QUGEN_TRUNCATION_BUDGET", "inf");
        assert_eq!(ExecutorConfig::from_env().truncation_budget, f64::INFINITY);
        for (k, v) in keys.iter().zip(saved) {
            match v {
                Some(v) => std::env::set_var(k, v),
                None => std::env::remove_var(k),
            }
        }
    }

    #[test]
    fn noisy_replay_matches_per_gate_dispatch_across_thread_counts() {
        // The noisy dense path replays precompiled kernel segments; this
        // pins its counts bit-identically to a hand-rolled per-gate
        // reference that replicates the old dispatch loop (same chunk
        // partition, same derived seeds, same RNG consumption order).
        let mut c = Circuit::new(3, 3);
        c.h(0).cx(0, 1).t(1).rz(0.4, 2).barrier_all();
        c.swap(1, 2).ccx(0, 1, 2).measure(0, 0);
        c.cond_gate(Gate::X, &[2], 0, true);
        c.reset(0);
        c.h(0).cz(0, 2).measure(1, 1).measure(2, 2);

        let mut noise = NoiseModel::ideal();
        noise.one_qubit_depol = 0.02;
        noise.two_qubit_depol = 0.05;
        noise.idle_error = 0.01;
        noise.readout_error = 0.03;

        let shots = 3 * SHOT_CHUNK + 17; // force multiple chunks + a ragged tail
        let seed = 0xD15EA5E;

        // Per-gate reference: the same chunk partition and seed derivation
        // the executor uses, but each trajectory dispatched gate by gate.
        let reference_exec = ExecutorConfig::new().noise(noise.clone()).build();
        let mut expected = Counts::new(c.num_clbits());
        let chunks = shots.div_ceil(SHOT_CHUNK);
        let mut state = BackendKind::Dense
            .build()
            .init(c.num_qubits())
            .expect("3 qubits fit the dense backend");
        let mut word = OutcomeWord::zero();
        for chunk in 0..chunks {
            let chunk_shots = (shots - chunk * SHOT_CHUNK).min(SHOT_CHUNK);
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, chunk));
            for _ in 0..chunk_shots {
                reference_exec.trajectory(&c, state.as_mut(), &mut rng, &mut word);
                expected.record_word(&word);
            }
        }

        for threads in [1usize, 4] {
            let counts = ExecutorConfig::new()
                .noise(noise.clone())
                .threads(threads)
                .build()
                .try_run(&c, shots, seed)
                .unwrap();
            assert_eq!(
                counts, expected,
                "noisy replay must be bit-identical at {threads} thread(s)"
            );
        }
    }

    /// `x q0; measure q0 -> c0; measure q1 -> c0`: the second write to c0
    /// must win (it reads `q1 = 0`).
    fn overwritten_clbit() -> Circuit {
        let mut qc = Circuit::new(2, 1);
        qc.x(0).measure(0, 0).measure(1, 0);
        qc
    }

    #[test]
    fn a_rewritten_clbit_keeps_its_last_write_on_every_path() {
        let qc = overwritten_clbit();
        let exact = Executor::try_ideal_distribution(&qc, 0).unwrap();
        assert!((exact.get(0) - 1.0).abs() < 1e-12, "exact: {exact:?}");
        let mut zero = NoiseModel::uniform_depolarizing(0.0);
        zero.idle_error = 0.0;
        zero.readout_error = 1e-300;
        let runs = [
            ("sampling", Executor::ideal()),
            (
                "mps sampling",
                on_backend(BackendChoice::Mps { max_bond: 4 }),
            ),
            ("trajectory", Executor::with_noise(zero)),
            ("tableau", on_backend(BackendChoice::Tableau)),
        ];
        for (path, exec) in runs {
            let counts = exec.try_run(&qc, 1000, 5).unwrap();
            assert_eq!(counts.count(0), 1000, "{path}: {counts}");
        }
        // The engine trajectory path, forced directly.
        let counts = Executor::ideal()
            .run_trajectories(BackendKind::Dense, &qc, 1000, 5, f64::INFINITY)
            .unwrap();
        assert_eq!(counts.count(0), 1000, "engine trajectory: {counts}");
        // A rewrite after a mid-circuit measurement that a condition reads.
        let mut dynamic = Circuit::new(2, 1);
        dynamic.x(0).measure(0, 0);
        dynamic.cond_gate(Gate::X, &[1], 0, true);
        dynamic.x(1).measure(1, 0);
        let exact = Executor::try_ideal_distribution(&dynamic, 0).unwrap();
        assert!((exact.get(0) - 1.0).abs() < 1e-12, "exact: {exact:?}");
        assert_eq!(
            Executor::ideal()
                .try_run(&dynamic, 500, 6)
                .unwrap()
                .count(0),
            500
        );
    }

    #[test]
    fn over_budget_dynamic_circuits_fall_back_to_engine_trajectories() {
        // 8 qubits and seven genuine mid-circuit splits: 2^7 branches x
        // 2^8 amplitudes is past the branch budget, so the run takes the
        // per-shot engine path and the exact distribution falls back to
        // sampling.
        let n = 8;
        let mut qc = Circuit::new(n, 3);
        qc.x(0).t(3); // T keeps it off the tableau
        for _ in 0..7 {
            qc.h(1).measure(1, 1);
        }
        qc.cond_gate(Gate::X, &[2], 1, true);
        for q in 3..n {
            qc.h(q);
        }
        qc.measure(0, 0).measure(2, 2);
        assert!(CircuitPlan::compile(&qc).branch_distribution().is_none());
        let before = exec_metrics().branch_fallbacks.get();
        let counts = Executor::ideal().try_run(&qc, 600, 3).unwrap();
        assert_eq!(counts.shots(), 600);
        // c0 is always 1 and c2 always copies c1.
        assert_eq!(counts.count(0b001) + counts.count(0b111), 600, "{counts}");
        let ones = counts.count(0b111) as f64 / 600.0;
        assert!(
            (ones - 0.5).abs() < 5.0 * (0.25f64 / 600.0).sqrt(),
            "p(c1) = {ones}"
        );
        let dist = Executor::try_ideal_distribution(&qc, 4).unwrap();
        assert!((dist.get(0b001) + dist.get(0b111) - 1.0).abs() < 1e-12);
        assert!((dist.get(0b111) - 0.5).abs() < 0.05);
        if tmetrics::enabled() {
            assert!(exec_metrics().branch_fallbacks.get() >= before + 2);
        }
    }

    /// A teleport-like Clifford circuit whose correction is `gate`,
    /// conditioned on a random mid-circuit bit.
    fn conditional_clifford(gate: Gate) -> Circuit {
        let mut qc = Circuit::new(3, 3);
        qc.h(0).cx(0, 2).measure(0, 0);
        qc.cond_gate(gate, &[1], 0, true);
        qc.s(1).cx(1, 2).h(2).measure_all();
        qc
    }

    #[test]
    fn tableau_jobs_sample_frames_unless_a_conditional_is_not_a_pauli() {
        let exec = on_backend(BackendChoice::Tableau);
        let path = |qc: &Circuit| {
            exec.prepare(qc, 100, 1, BackendChoice::Tableau, f64::INFINITY)
                .unwrap()
                .plan
                .path()
        };
        assert_eq!(path(&ghz(5)), "frames");
        assert_eq!(path(&conditional_clifford(Gate::X)), "frames");
        assert_eq!(path(&conditional_clifford(Gate::Y)), "frames");
        assert_eq!(path(&conditional_clifford(Gate::H)), "trajectory");
        // Both tableau paths reproduce the exact dense distribution within
        // 5σ per outcome.
        for gate in [Gate::X, Gate::Y, Gate::H] {
            let qc = conditional_clifford(gate);
            let exact = Executor::exact_distribution(&qc).unwrap();
            let shots = 20_000u64;
            let counts = exec.try_run(&qc, shots, 9).unwrap();
            let n = shots as f64;
            for word in exact
                .iter()
                .map(|(w, _)| w)
                .chain(counts.iter().map(|(w, _)| w))
            {
                let p = exact.get_word(word);
                let f = counts.count_word(word) as f64 / n;
                let bound = 5.0 * (p * (1.0 - p) / n).sqrt() + 1.0 / n;
                assert!(
                    (f - p).abs() <= bound,
                    "{gate}: {word:?} exact {p} sampled {f}"
                );
            }
        }
    }

    #[test]
    fn job_spans_carry_the_path_and_qubit_count() {
        // Shot counts no other test uses pick this test's spans out of a
        // process-wide capture.
        let buffer = trace::install_capture();
        let tableau = on_backend(BackendChoice::Tableau);
        tableau.try_run(&ghz(13), 1031, 1).unwrap();
        tableau
            .try_run(&conditional_clifford(Gate::H), 1033, 1)
            .unwrap();
        Executor::ideal().try_run(&ghz(3), 1037, 1).unwrap();
        // Noisy dense jobs: measure-at-end circuits sample the exact
        // density-matrix distribution, dynamic ones replay per shot.
        let noisy = Executor::with_noise(crate::profiles::ibm_brisbane_like());
        noisy.try_run(&ghz(5), 1039, 1).unwrap();
        let mut dynamic = Circuit::new(2, 2);
        dynamic.h(0).t(0).measure(0, 0);
        dynamic.cond_gate(Gate::X, &[1], 0, true);
        dynamic.measure(1, 1);
        noisy.try_run(&dynamic, 1049, 1).unwrap();
        trace::disable();
        let lines = buffer.lock().unwrap().clone();
        let job = |shots: &str| {
            lines
                .iter()
                .find(|l| l.contains("\"name\":\"job\"") && l.contains(shots))
                .unwrap_or_else(|| panic!("no job span with {shots}"))
                .clone()
        };
        for shots in [1031, 1033, 1037, 1039, 1049] {
            let span = job(&format!("\"shots\":{shots}"));
            assert!(span.contains("\"ops\":"), "{span}");
        }
        let density = job("\"shots\":1039");
        assert!(density.contains("\"path\":\"sampling\""), "{density}");
        assert!(
            lines.iter().any(|l| l.contains("\"name\":\"distribution\"")
                && l.contains("\"path\":\"density\"")
                && l.contains("\"qubits\":5")),
            "no density distribution span"
        );
        let replay = job("\"shots\":1049");
        assert!(replay.contains("\"path\":\"noisy_replay\""), "{replay}");
        let frames = job("\"shots\":1031");
        assert!(frames.contains("\"path\":\"frames\""), "{frames}");
        assert!(frames.contains("\"qubits\":13"), "{frames}");
        let fallback = job("\"shots\":1033");
        assert!(fallback.contains("\"path\":\"trajectory\""), "{fallback}");
        assert!(fallback.contains("\"qubits\":3"), "{fallback}");
        let sampling = job("\"shots\":1037");
        assert!(sampling.contains("\"path\":\"sampling\""), "{sampling}");
        assert!(sampling.contains("\"qubits\":3"), "{sampling}");
    }

    /// Raw draw for one op of a random dynamic circuit: (kind, gate,
    /// angle, operand draws, clbit draw, condition value).
    type DynamicOp = (u8, u8, f64, Vec<usize>, usize, u8);

    /// Builds the noiseless dynamic circuit a raw draw describes on `n`
    /// qubits (and `n` clbits, so clbits collide and get rewritten), ending
    /// with a full measurement. Conditions read the clbit the latest
    /// measurement wrote, when there is one, as in teleportation.
    fn build_dynamic(n: usize, ops: &[DynamicOp]) -> Circuit {
        let mut qc = Circuit::new(n, n);
        let mut written: Vec<usize> = Vec::new();
        for (kind, gate, angle, raw, clbit, value) in ops {
            let gate = match gate {
                0 => Gate::H,
                1 => Gate::T,
                2 => Gate::RY(*angle),
                3 => Gate::U(*angle, 0.3, -*angle),
                4 if n > 1 => Gate::CX,
                5 if n > 1 => Gate::CRY(*angle),
                _ => Gate::SX,
            };
            let a = raw[0] % n;
            let b = (a + 1 + raw[1] % (n - 1).max(1)) % n;
            let qubits: Vec<usize> = if gate.num_qubits() == 2 {
                vec![a, b]
            } else {
                vec![a]
            };
            match kind {
                0 | 1 => {
                    qc.measure(a, clbit % n);
                    written.push(clbit % n);
                }
                2 => {
                    qc.reset(a);
                }
                3 => {
                    let read = written.last().copied().unwrap_or(clbit % n);
                    qc.cond_gate(gate, &qubits, read, *value == 1);
                }
                4 => {
                    // Teleport motif: rotate `a` off the Z axis, measure it,
                    // correct `b` on the outcome.
                    qc.ry(*angle, a).measure(a, clbit % n);
                    written.push(clbit % n);
                    qc.cond_gate(Gate::X, &[b], clbit % n, *value == 1);
                }
                _ => {
                    qc.push_gate(gate, &qubits);
                }
            }
        }
        qc.measure_all();
        qc
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// Branch enumeration is exact: its mass is 1, and every outcome's
        /// probability lies within a 5σ binomial bound (plus one count of
        /// discreteness) of a 20k-shot forced-dense engine trajectory run.
        #[test]
        fn branch_distributions_match_engine_trajectories(
            n in 1usize..=5,
            ops in proptest::prop::collection::vec(
                (
                    0u8..10,
                    0u8..7,
                    -3.2f64..3.2,
                    proptest::prop::collection::vec(0..usize::MAX, 2),
                    0..usize::MAX,
                    0u8..2,
                ),
                1..14,
            ),
            seed in 0u64..1000,
        ) {
            let qc = build_dynamic(n, &ops);
            let exact = CircuitPlan::compile(&qc)
                .branch_distribution()
                .expect("5 qubits stay far inside the branch budget");
            proptest::prop_assert!((exact.total_mass() - 1.0).abs() < 1e-12, "mass {}", exact.total_mass());
            let shots = 20_000u64;
            let sampled = Executor::ideal()
                .run_trajectories(BackendKind::Dense, &qc, shots, seed, f64::INFINITY)
                .unwrap();
            let n_f = shots as f64;
            let mut outcomes: Vec<OutcomeWord> = exact.iter().map(|(w, _)| w.clone()).collect();
            outcomes.extend(sampled.iter().map(|(w, _)| w.clone()));
            for word in outcomes {
                let p = exact.get_word(&word);
                let f = sampled.count_word(&word) as f64 / n_f;
                let bound = 5.0 * (p * (1.0 - p) / n_f).sqrt() + 1.0 / n_f;
                proptest::prop_assert!(
                    (f - p).abs() <= bound,
                    "{qc:?}: outcome {word:?} exact {p} sampled {f} (bound {bound})"
                );
            }
        }
    }
}
