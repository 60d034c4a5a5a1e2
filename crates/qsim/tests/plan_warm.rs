//! Regression tests: warm cached-plan execution stays off the slow paths.
//!
//! Two properties of the compile step are pinned here, via a counting
//! global allocator and the debug-only [`Gate::kind`] call counter:
//!
//! 1. **Zero `kind()` calls on warm runs.** Gate classification (which
//!    recomputes `sin`/`cos`/`exp` matrix entries) happens once at plan
//!    compile time; replaying a cached plan performs no classification at
//!    all.
//! 2. **Zero heap allocations in the per-shot sampling loop** for ≤ 64-clbit
//!    registers: a noiseless dynamic circuit is enumerated once into an
//!    exact branch table, and each warm shot is one uniform draw, a binary
//!    search and a record of the borrowed inline outcome word.
//!
//! Kept as its own integration binary (single test) so no concurrent test
//! thread can allocate — or classify gates — while the counters are read.

use qcir::circuit::Circuit;
use qcir::gate::Gate;
use qsim::dist::{Counts, WordSampler};
use qsim::exec::{ExecutorConfig, PlanCacheMode};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Wraps the system allocator and counts allocation calls.
struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// A mid-circuit-measurement workload (so executor runs take the branch
/// enumeration path, not the measure-at-end sampling path) mixing every
/// kernel tier.
fn workload() -> Circuit {
    let mut qc = Circuit::new(6, 6);
    qc.h(0).t(0).cx(0, 1).cz(1, 2).swap(2, 3);
    qc.rz(0.37, 3).push_gate(Gate::CH, &[3, 4]).ccx(0, 1, 5);
    qc.measure(0, 0);
    qc.cond_gate(Gate::X, &[1], 0, true);
    qc.h(4).cx(4, 5);
    for q in 0..6 {
        qc.measure(q, q);
    }
    qc
}

#[test]
fn warm_cached_plan_runs_skip_classification_and_allocation() {
    // Telemetry fully on — metrics recording AND an active trace sink —
    // so the zero-allocation assertion below also pins the observability
    // layer's hot-path contract: kernel tier counters are relaxed
    // `fetch_add`s on preallocated atomics, and the shot loop contains
    // no span, so even a live sink costs it nothing.
    qugen_telemetry::metrics::set_enabled(true);
    let _trace_buffer = qugen_telemetry::trace::install_capture();

    let qc = workload();
    let exec = ExecutorConfig::new()
        .plan_cache(PlanCacheMode::Private)
        .build();

    // Cold: compiles the plan (classifying each gate exactly once there).
    let cold = exec.try_run(&qc, 64, 5).unwrap();
    assert_eq!(cold.shots(), 64);

    // Warm executor runs perform zero `Gate::kind` calls: every matrix and
    // kernel choice was frozen into the cached plan. (The counter only
    // exists in debug builds; release builds compile the shim out.)
    #[cfg(debug_assertions)]
    {
        qcir::gate::kind_stats::reset();
        let warm = exec.try_run(&qc, 64, 6).unwrap();
        assert_eq!(warm.shots(), 64);
        assert_eq!(
            qcir::gate::kind_stats::calls(),
            0,
            "a warm cached-plan run re-classified gates"
        );
    }

    // The per-shot sampling loop — draw a word from the branch table,
    // record it — allocates nothing once the table, RNG chunk and counts
    // table are warm. Drive the loop exactly as the executor's
    // `sample_chunk` does, with the executor-owned pieces preallocated.
    let plan = exec.plan_for(&qc);
    let dist = plan
        .branch_distribution()
        .expect("6 qubits fit the branch budget");
    let table = WordSampler::new(&dist);
    let mut counts = Counts::new(qc.num_clbits());
    let mut rng = StdRng::seed_from_u64(11);
    // Warm every outcome's counts-table node.
    for (word, _) in dist.iter() {
        counts.record_word(word);
    }

    // The harness's own runtime occasionally allocates on another thread
    // while we measure, so take the minimum over several attempts: the
    // loop is deterministic, so if ANY attempt observes zero allocations
    // the hot path itself is allocation-free.
    let mut min_allocs = usize::MAX;
    for _attempt in 0..8 {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for _ in 0..64 {
            counts.record_word(table.draw(&mut rng));
        }
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        min_allocs = min_allocs.min(after - before);
    }
    assert_eq!(
        min_allocs, 0,
        "warm cached-plan shots allocated {min_allocs} time(s) with telemetry enabled"
    );
    assert!(
        dist.iter().all(|(word, _)| word.num_words() == 1),
        "inline outcome representation in play"
    );

    // The instrumentation was genuinely live, not compiled away: the
    // kernel dispatch-tier counters moved while the warm runs enumerated
    // the branches.
    let tier_counts: u64 = [
        "kernels.butterfly1_avx2",
        "kernels.butterfly1_scalar",
        "kernels.dense2_avx2",
        "kernels.dense2_scalar",
    ]
    .iter()
    .map(|name| qugen_telemetry::metrics::counter(name).get())
    .sum::<u64>();
    assert!(tier_counts > 0, "kernel tier counters never advanced");
    qugen_telemetry::trace::disable();
}
