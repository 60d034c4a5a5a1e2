//! Peak resident memory through `getrusage(2)`.

/// `struct rusage` on Linux: two `timeval`s, then 14 `long`s; `ru_maxrss`
/// (KiB) is the first of those.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

fn maxrss_kib(who: i32) -> u64 {
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        longs: [0; 14],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage` for this target.
    let rc = unsafe { getrusage(who, &mut usage) };
    if rc == 0 {
        usage.longs[0].max(0) as u64
    } else {
        0
    }
}

/// Peak RSS in MiB of this process plus `concurrent` children at the size
/// of the largest child waited for so far (a daemon, or shard workers that
/// ran side by side).
pub fn peak_rss_mb(concurrent: u64) -> f64 {
    let own = maxrss_kib(RUSAGE_SELF);
    let child = maxrss_kib(RUSAGE_CHILDREN);
    (own + concurrent * child) as f64 / 1024.0
}
