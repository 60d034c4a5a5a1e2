//! Regression tests: recording shots into a ≤ 64-clbit `Counts` table is
//! allocation-free on the warm path, and so is every chunk of a
//! Pauli-frame tableau run after the first — via a counting global
//! allocator.
//!
//! The multi-word `OutcomeWord` keeps one-word registers on an inline
//! representation whose spill tail is an empty, never-allocated `Vec`, so
//! the executor's per-shot record loop — clear the scratch word, set
//! measurement bits, `record_word` into the table — performs zero heap
//! allocations once every distinct outcome has its table node. This test
//! pins that property so a future refactor of the outcome-register layer
//! cannot quietly put an allocation back on the shot hot path.
//!
//! Kept as its own integration binary, with the tests serialized on one
//! lock, so no concurrent test thread can allocate while the counter is
//! being read.

use qcir::circuit::Circuit;
use qcir::gate::Gate;
use qsim::backend::BackendChoice;
use qsim::dist::Counts;
use qsim::exec::{ExecutorConfig, SHOT_CHUNK};
use qsim::word::OutcomeWord;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

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

/// Serializes the tests of this binary.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Allocations `f` performs, minimized over several attempts: the harness
/// occasionally allocates on another thread while we measure, and `f` is
/// deterministic, so the minimum is `f`'s own count.
fn min_allocations(mut f: impl FnMut()) -> usize {
    (0..8)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            f();
            ALLOCATIONS.load(Ordering::SeqCst) - before
        })
        .min()
        .expect("at least one attempt")
}

/// One synthetic "shot": writes a 64-bit-wide outcome into the scratch
/// word exactly the way the trajectory loop does (clear, then per-bit
/// `set_bit` including explicit false writes for measured zeros).
fn write_shot(word: &mut OutcomeWord, shot: u64) {
    word.clear();
    for bit in 0..64usize {
        word.set_bit(bit, (shot >> (bit % 8)) & 1 == 1);
    }
}

#[test]
fn recording_64bit_shots_allocates_nothing_after_warmup() {
    let _serial = serial();
    let mut counts = Counts::new(64);
    let mut word = OutcomeWord::zero();

    // Warm up: every distinct outcome gets its table node, and the
    // fixed-seed `record(u64)` path is exercised once too.
    for shot in 0..256u64 {
        write_shot(&mut word, shot);
        counts.record_word(&word);
        counts.record(shot);
    }

    // The harness's own runtime occasionally allocates on another thread
    // while we measure, so take the minimum over several attempts: the
    // record loop is deterministic, so if ANY attempt observes zero
    // allocations the hot path itself is allocation-free.
    let mut min_allocs = usize::MAX;
    for _attempt in 0..8 {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for _round in 0..10 {
            for shot in 0..256u64 {
                write_shot(&mut word, shot);
                counts.record_word(&word);
                counts.record(shot);
            }
        }
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        min_allocs = min_allocs.min(after - before);
    }

    assert_eq!(
        min_allocs, 0,
        "≤64-clbit shot recording allocated {min_allocs} time(s) on the warm path"
    );
    assert_eq!(counts.shots(), 256 * 2 + 8 * 10 * 256 * 2);
    // Sanity: the inline representation really was in play (no spill).
    assert_eq!(word.num_words(), 1);
}

#[test]
fn frame_chunks_after_the_first_allocate_nothing() {
    let _serial = serial();
    // A single-outcome Clifford circuit with a mid-circuit measurement, a
    // conditional Pauli and a reset: every frame path, one counts node.
    let mut qc = Circuit::new(24, 24);
    qc.x(0).h(5).h(5).measure(0, 0);
    qc.cond_gate(Gate::X, &[1], 0, true);
    for q in 1..23 {
        qc.cx(q, q + 1);
    }
    qc.reset(3).measure_all();
    let exec = ExecutorConfig::new()
        .backend(BackendChoice::Tableau)
        .build();
    let run = |shots: u64| {
        let counts = exec.try_run(&qc, shots, 7).expect("Clifford circuit");
        assert_eq!(counts.distinct_outcomes(), 1);
        assert_eq!(counts.shots(), shots);
    };
    run(64);
    let one_word = min_allocations(|| run(64));
    let four_chunks = min_allocations(|| run(4 * SHOT_CHUNK));
    assert_eq!(
        one_word, four_chunks,
        "a 4-chunk frame run allocated {four_chunks} times, a 64-shot run {one_word}"
    );
}
