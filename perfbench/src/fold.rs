//! Folds captured trace spans into self time per layer.
//!
//! A span's self time is its duration minus the time its direct children
//! cover. Spans nest by time containment within one benchmark thread: the
//! benchmark tags each of its spans with a `tid` field, and the program's
//! own `executor` spans (always emitted on the calling thread) inherit
//! thread 0. Other program spans (for instance the shard coordinator's
//! per-range spans, emitted from supervisor threads while a benchmark
//! span covers the whole call) are left out so threads never overlap.

use qugen_telemetry::trace::TraceEvent;
use qugen_wire::Json;
use std::collections::BTreeMap;

/// One closed span, reduced to what the fold needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    pub tid: u64,
    pub start_us: u64,
    pub dur_us: u64,
    pub layer: String,
}

/// Maps a program trace layer onto the benchmark's layer names.
fn layer_of(event: &TraceEvent) -> Option<String> {
    let has_tid = event.ints.iter().any(|(k, _)| k == "tid");
    match event.layer.as_str() {
        "executor" => Some("qsim".to_string()),
        other if has_tid => Some(other.to_string()),
        _ => None,
    }
}

/// Parses captured JSONL lines into the spans the fold uses.
pub fn spans_from_lines(lines: &[String]) -> Vec<SpanRec> {
    lines
        .iter()
        .filter_map(|line| Json::parse(line).ok())
        .filter_map(|json| TraceEvent::from_json(&json).ok())
        .filter(|event| event.is_span)
        .filter_map(|event| {
            let layer = layer_of(&event)?;
            let tid = event
                .ints
                .iter()
                .find(|(k, _)| k == "tid")
                .map_or(0, |(_, v)| *v as u64);
            Some(SpanRec {
                tid,
                start_us: event.ts_us,
                dur_us: event.dur_us.unwrap_or(0),
                layer,
            })
        })
        .collect()
}

/// Self time per layer in µs: each span's duration minus the part of it
/// its direct children cover.
pub fn self_time(spans: &[SpanRec]) -> BTreeMap<String, u64> {
    let mut order: Vec<&SpanRec> = spans.iter().collect();
    // Parents before children: earlier start first, longer first on ties.
    order.sort_by(|a, b| {
        (a.tid, a.start_us, std::cmp::Reverse(a.dur_us)).cmp(&(
            b.tid,
            b.start_us,
            std::cmp::Reverse(b.dur_us),
        ))
    });
    let end = |s: &SpanRec| s.start_us + s.dur_us;
    let mut covered = vec![0u64; order.len()];
    // Stack of indices into `order` whose spans are still open.
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..order.len() {
        let span = order[i];
        while let Some(&top) = stack.last() {
            let open = order[top];
            if open.tid == span.tid && span.start_us < end(open) {
                break;
            }
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            let overlap = end(span).min(end(order[parent])) - span.start_us;
            covered[parent] += overlap;
        }
        stack.push(i);
    }
    let mut out = BTreeMap::new();
    for (span, cover) in order.iter().zip(covered) {
        *out.entry(span.layer.clone()).or_insert(0) += span.dur_us.saturating_sub(cover);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(tid: u64, start_us: u64, dur_us: u64, layer: &str) -> SpanRec {
        SpanRec {
            tid,
            start_us,
            dur_us,
            layer: layer.to_string(),
        }
    }

    #[test]
    fn self_time_is_span_minus_covered_children() {
        // analyze [0, 100) with two executor children of 30 and 20.
        let spans = [
            rec(0, 0, 100, "qagents"),
            rec(0, 10, 30, "qsim"),
            rec(0, 50, 20, "qsim"),
        ];
        let fold = self_time(&spans);
        assert_eq!(fold["qagents"], 50);
        assert_eq!(fold["qsim"], 50);
    }

    #[test]
    fn only_direct_children_are_subtracted() {
        // compare [0, 100) > noisy run [10, 70) > job [20, 60).
        let spans = [
            rec(0, 20, 40, "qsim"),
            rec(0, 0, 100, "qagents"),
            rec(0, 10, 60, "qsim"),
        ];
        let fold = self_time(&spans);
        assert_eq!(fold["qagents"], 40);
        // 60 - 40 covered + 40 own = 60: the chain sums to the root.
        assert_eq!(fold["qsim"], 60);
        assert_eq!(fold.values().sum::<u64>(), 100);
    }

    #[test]
    fn siblings_and_threads_do_not_nest() {
        let spans = [
            rec(0, 0, 10, "qlm"),
            rec(0, 10, 10, "qagents"),
            // Same interval on another thread: not a child.
            rec(1, 0, 20, "wire"),
        ];
        let fold = self_time(&spans);
        assert_eq!(fold["qlm"], 10);
        assert_eq!(fold["qagents"], 10);
        assert_eq!(fold["wire"], 20);
    }

    #[test]
    fn a_child_overhanging_its_parent_is_clamped() {
        // Microsecond rounding can push a child's end past its parent's.
        let spans = [rec(0, 0, 10, "qagents"), rec(0, 5, 7, "qsim")];
        let fold = self_time(&spans);
        assert_eq!(fold["qagents"], 5);
        assert_eq!(fold["qsim"], 7);
    }

    #[test]
    fn lines_map_executor_spans_and_drop_untagged_program_spans() {
        let lines = vec![
            "{\"dur_us\":90,\"layer\":\"qagents\",\"name\":\"analyze\",\"pid\":1,\"tid\":0,\"ts_us\":0,\"type\":\"span\"}".to_string(),
            "{\"dur_us\":40,\"layer\":\"executor\",\"name\":\"job\",\"pid\":1,\"ts_us\":10,\"type\":\"span\"}".to_string(),
            "{\"dur_us\":80,\"layer\":\"shard\",\"name\":\"range\",\"pid\":1,\"ts_us\":5,\"type\":\"span\"}".to_string(),
            "{\"layer\":\"plan\",\"name\":\"compile\",\"pid\":1,\"ts_us\":12,\"type\":\"event\"}".to_string(),
        ];
        let spans = spans_from_lines(&lines);
        assert_eq!(spans.len(), 2);
        let fold = self_time(&spans);
        assert_eq!(fold["qagents"], 50);
        assert_eq!(fold["qsim"], 40);
    }
}
