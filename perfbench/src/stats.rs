//! The benchmark's own arithmetic: medians, the tail-percentile rule,
//! percentiles read from `qugen-telemetry` log2 histograms, and the
//! failure tally.

use qugen_telemetry::metrics::HistogramSnapshot;

/// Fewest samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The percentile the tail metric reports for `n` samples: p99 when at
/// least [`TAIL_MIN_BEYOND`] samples lie beyond it, otherwise the highest
/// whole percentile that still leaves that many beyond it, and never less
/// than the median.
pub fn tail_percentile(n: usize) -> u32 {
    if n == 0 {
        return 50;
    }
    let beyond = TAIL_MIN_BEYOND.min(n);
    let q = (100 * (n - beyond)) / n;
    (q as u32).clamp(50, 99)
}

/// The `q`-th percentile (nearest rank) of `values`; `values` need not
/// be sorted. Returns `None` for an empty slice.
pub fn percentile(values: &[f64], q: u32) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q as f64 / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `values` (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Value range `[lo, hi]` of log2 histogram bucket `i` (bucket `i` holds
/// values of bit length `i`; bucket 0 holds zero).
fn bucket_bounds(i: usize) -> (f64, f64) {
    if i == 0 {
        (0.0, 0.0)
    } else {
        let lo = (1u128 << (i - 1)) as f64;
        let hi = ((1u128 << i) - 1) as f64;
        (lo, hi)
    }
}

/// Observations recorded between two snapshots of one histogram.
pub fn histogram_delta(before: &HistogramSnapshot, after: &HistogramSnapshot) -> HistogramSnapshot {
    let len = after.buckets.len().max(before.buckets.len());
    let at = |v: &[u64], i: usize| v.get(i).copied().unwrap_or(0);
    HistogramSnapshot {
        count: after.count.saturating_sub(before.count),
        sum: after.sum.saturating_sub(before.sum),
        buckets: (0..len)
            .map(|i| at(&after.buckets, i).saturating_sub(at(&before.buckets, i)))
            .collect(),
    }
}

/// The `q`-th percentile of a log2 histogram: finds the bucket holding
/// the nearest-rank observation and interpolates linearly inside the
/// bucket's value range. `None` when the histogram is empty.
pub fn histogram_percentile(h: &HistogramSnapshot, q: u32) -> Option<f64> {
    let total: u64 = h.buckets.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = ((q as f64 / 100.0) * total as f64).ceil().max(1.0) as u64;
    let mut below = 0u64;
    for (i, &n) in h.buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        if below + n >= rank {
            let (lo, hi) = bucket_bounds(i);
            let frac = (rank - below) as f64 / n as f64;
            return Some(lo + (hi - lo) * frac);
        }
        below += n;
    }
    None
}

/// Attempted and failed operations of one run. A failure is an operation
/// that errored, was refused (any typed error reply counts) or produced a
/// wrong answer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Failed over attempted; 0 for an empty tally.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Latency samples where a failed operation also counts as missing any
/// latency limit: it enters the percentile as `+inf`.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    pub ms: Vec<f64>,
}

impl Latencies {
    pub fn ok(&mut self, ms: f64) {
        self.ms.push(ms);
    }

    pub fn failed(&mut self) {
        self.ms.push(f64::INFINITY);
    }

    /// `(p50, tail, tail percentile, sample count)`.
    pub fn summary(&self) -> (f64, f64, u32, usize) {
        let q = tail_percentile(self.ms.len());
        (
            percentile(&self.ms, 50).unwrap_or(0.0),
            percentile(&self.ms, q).unwrap_or(0.0),
            q,
            self.ms.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_p99_once_ten_samples_lie_beyond_it() {
        assert_eq!(tail_percentile(1000), 99);
        assert_eq!(tail_percentile(5000), 99);
        // 999 samples: p99 would leave only 9.99 beyond, so p98.
        assert_eq!(tail_percentile(999), 98);
        assert_eq!(tail_percentile(230), 95);
        assert_eq!(tail_percentile(100), 90);
        // Too few samples for any tail: the median.
        assert_eq!(tail_percentile(15), 50);
        assert_eq!(tail_percentile(0), 50);
    }

    #[test]
    fn tail_percentile_leaves_at_least_ten_samples_beyond() {
        for n in 20..3000usize {
            let q = tail_percentile(n) as usize;
            let rank = (q * n).div_ceil(100);
            assert!(n - rank >= TAIL_MIN_BEYOND, "n {n} q {q}");
            // And it is the highest such whole percentile below the caps.
            if (51..99).contains(&q) {
                let next = ((q + 1) * n).div_ceil(100);
                assert!(n - next < TAIL_MIN_BEYOND, "n {n} q {q}");
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), Some(50.0));
        assert_eq!(percentile(&v, 99), Some(99.0));
        assert_eq!(percentile(&v, 100), Some(100.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50), Some(2.0));
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn failures_count_as_missing_the_latency_limit() {
        let mut l = Latencies::default();
        for _ in 0..95 {
            l.ok(1.0);
        }
        for _ in 0..25 {
            l.failed();
        }
        let (p50, tail, q, n) = l.summary();
        assert_eq!(n, 120);
        assert_eq!(q, 91);
        assert_eq!(p50, 1.0);
        assert!(tail.is_infinite());
    }

    fn snapshot_of(values: &[u64]) -> HistogramSnapshot {
        let h = qugen_telemetry::metrics::Histogram::new();
        qugen_telemetry::metrics::set_enabled(true);
        for &v in values {
            h.record(v);
        }
        h.snapshot()
    }

    #[test]
    fn histogram_percentiles_land_in_the_right_bucket() {
        // 90 observations of 100 (bucket 7: 64..=127) and 10 of 5000
        // (bucket 13: 4096..=8191).
        let mut values = vec![100u64; 90];
        values.extend(std::iter::repeat_n(5000, 10));
        let snap = snapshot_of(&values);
        let p50 = histogram_percentile(&snap, 50).unwrap();
        assert!((64.0..=127.0).contains(&p50), "{p50}");
        let p95 = histogram_percentile(&snap, 95).unwrap();
        assert!((4096.0..=8191.0).contains(&p95), "{p95}");
        // The top rank of a bucket reads its upper bound.
        assert_eq!(histogram_percentile(&snap, 90), Some(127.0));
        assert_eq!(histogram_percentile(&snap, 100), Some(8191.0));
    }

    #[test]
    fn histogram_zero_bucket_and_empty() {
        let snap = snapshot_of(&[0, 0, 0, 1]);
        assert_eq!(histogram_percentile(&snap, 50), Some(0.0));
        assert_eq!(histogram_percentile(&snap, 100), Some(1.0));
        let empty = snapshot_of(&[]);
        assert_eq!(histogram_percentile(&empty, 50), None);
    }

    #[test]
    fn histogram_deltas_isolate_a_window() {
        let before = snapshot_of(&[1000; 50]);
        let mut after = before.clone();
        let later = snapshot_of(&[3; 10]);
        after.count += later.count;
        after.sum += later.sum;
        for (i, n) in later.buckets.iter().enumerate() {
            after.buckets[i] += n;
        }
        let delta = histogram_delta(&before, &after);
        assert_eq!(delta.count, 10);
        assert_eq!(delta.sum, 30);
        // Value 3 sits in bucket 2 (2..=3); the median rank is halfway in.
        assert_eq!(histogram_percentile(&delta, 50), Some(2.5));
        assert_eq!(histogram_percentile(&delta, 100), Some(3.0));
    }

    #[test]
    fn refusals_and_wrong_answers_count_as_failures() {
        let mut t = Tally::default();
        for ok in [true, true, false, true] {
            t.record(ok);
        }
        // A refused request (say `queue_full`) is one more failed attempt.
        t.record(false);
        assert_eq!((t.attempted, t.failed), (5, 2));
        assert!((t.failed_frac() - 0.4).abs() < 1e-12);
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }
}
