//! Shared machinery of traced runs: spans with timing, the in-memory
//! capture, program counter deltas and the per-layer fold report.

use crate::fold;
use crate::Outcome;
use qugen_telemetry::metrics::{self as tmetrics, MetricValue};
use qugen_telemetry::trace;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Runs `f` inside a `layer/name` span tagged with the benchmark thread
/// `tid`, adding its wall time in ms to `acc`.
pub fn timed<T>(
    tid: u64,
    layer: &'static str,
    name: &'static str,
    acc: &mut f64,
    f: impl FnOnce() -> T,
) -> T {
    let span = trace::span(layer, name).int("tid", tid as i128);
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed().as_secs_f64() * 1e3;
    span.finish();
    out
}

/// The in-memory span capture of a traced window.
pub struct Capture {
    buffer: Arc<Mutex<Vec<String>>>,
}

impl Capture {
    /// Starts capturing (metrics recording is forced on as well, so the
    /// counter deltas below are live).
    pub fn start() -> Capture {
        tmetrics::set_enabled(true);
        Capture {
            buffer: trace::install_capture(),
        }
    }

    /// Stops tracing and returns the captured lines.
    pub fn stop(self) -> Vec<String> {
        trace::disable();
        std::mem::take(&mut *self.buffer.lock().expect("capture poisoned"))
    }
}

/// Every counter in the process registry, by name.
pub fn counters() -> BTreeMap<String, u64> {
    tmetrics::snapshot()
        .into_iter()
        .filter_map(|(name, value)| match value {
            MetricValue::Counter(n) => Some((name.to_string(), n)),
            _ => None,
        })
        .collect()
}

/// `after - before`, counter by counter, accumulated into `into`.
pub fn add_delta(
    into: &mut BTreeMap<String, u64>,
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
) {
    for (name, &n) in after {
        let d = n.saturating_sub(before.get(name).copied().unwrap_or(0));
        *into.entry(name.clone()).or_insert(0) += d;
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Sets the `qsim.*` counter metrics from executor, plan-cache and
/// kernel counter deltas, per operation.
pub fn qsim_counters(out: &mut Outcome, delta: &BTreeMap<String, u64>, ops: f64) {
    let get = |k: &str| delta.get(k).copied().unwrap_or(0) as f64;
    out.set("qsim.exec.shots", ratio(get("exec.shots"), ops));
    out.set("qsim.exec.jobs", ratio(get("exec.jobs"), ops));
    out.set(
        "qsim.exec.distributions",
        ratio(get("exec.distributions"), ops),
    );
    out.set("qsim.plan.compiles", ratio(get("plan.compiles"), ops));
    let hits = get("plan.cache_hits");
    out.set(
        "qsim.plan.cache_hit_ratio",
        ratio(hits, hits + get("plan.cache_misses")),
    );
    let kernel = |suffix: &str| -> f64 {
        delta
            .iter()
            .filter(|(k, _)| k.starts_with("kernels.") && k.ends_with(suffix))
            .map(|(_, &v)| v as f64)
            .sum()
    };
    let avx2 = kernel("_avx2");
    out.set(
        "qsim.kernels.avx2_share",
        ratio(avx2, avx2 + kernel("_scalar")),
    );
}

/// The layers the fold reports, each as `fold.<layer>_self_ms`.
const LAYERS: [(&str, &str); 8] = [
    ("qlm", "fold.qlm_self_ms"),
    ("qagents", "fold.qagents_self_ms"),
    ("qcir", "fold.qcir_self_ms"),
    ("qsim", "fold.qsim_self_ms"),
    ("qec", "fold.qec_self_ms"),
    ("shard", "fold.shard_self_ms"),
    ("serve", "fold.serve_self_ms"),
    ("wire", "fold.wire_self_ms"),
];

/// Folds captured spans into per-layer self time and sets the `fold.*`
/// metrics per operation. `thread_wall_ms` is the traced window summed
/// over benchmark threads; whatever no span covers is `other`. Returns
/// `false` when a span names an unknown layer or the layers claim more
/// time than the window held. The lines are kept in `out` to be written
/// out when the run ends.
pub fn fold_report(out: &mut Outcome, lines: Vec<String>, thread_wall_ms: f64, ops: f64) -> bool {
    let spans = fold::spans_from_lines(&lines);
    out.trace_lines = lines;
    let mut selfs = fold::self_time(&spans);
    let mut covered = 0.0;
    for (layer, name) in LAYERS {
        let ms = selfs.remove(layer).unwrap_or(0) as f64 / 1e3;
        covered += ms;
        out.set(name, ratio(ms, ops));
    }
    let other = thread_wall_ms - covered;
    out.set("fold.wall_ms", ratio(thread_wall_ms, ops));
    out.set("fold.other_self_ms", ratio(other.max(0.0), ops));
    eprintln!(
        "perfbench: fold: {} spans, layers cover {covered:.1} of {thread_wall_ms:.1} ms",
        spans.len()
    );
    // 1 ms of slack per thread-second for µs rounding of span bounds.
    selfs.is_empty() && other >= -(thread_wall_ms / 1000.0).max(1.0)
}
