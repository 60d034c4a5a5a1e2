//! The repository benchmark: runs one paper workload for a fixed time,
//! checks its outputs and prints one JSON result line.
//!
//! ```text
//! perfbench --workload <suite_agents|ft_pipeline|qec_sweep|serve_stream>
//!           --seed N --seconds S --trace <0|1>
//!           --serve-bin PATH --shard-bin PATH [--trace-dir DIR]
//! ```
//!
//! With `--trace 0` the result carries the end-to-end metrics; with
//! `--trace 1` the per-layer metrics (see `BENCHMARK.json`). Human-readable
//! detail (sample counts, the tail percentile used, check outcomes) goes to
//! stderr. `perfbench/run.py` builds everything and calls this binary.

mod agents;
mod fold;
mod serve;
mod stats;
mod sweep;
mod sys;
mod traced;

use qugen_wire::{obj, Json};
use stats::Tally;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: PathBuf,
    pub shard_bin: PathBuf,
    /// Where a traced run writes its captured spans (JSONL).
    pub trace_dir: Option<PathBuf>,
}

impl Args {
    /// The timed window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("units_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: every traced run reports each of them, with 0 for
/// layers its workload does not touch. `/op` units are per workload
/// operation (pipeline run, sweep or serve job).
pub const PER_LAYER: [(&str, &str); 47] = [
    ("qlm.generate_ms", "ms/op"),
    ("qlm.repair_ms", "ms/op"),
    ("qagents.analyze_ms", "ms/op"),
    ("qagents.passes_per_sample", "count/op"),
    ("qagents.repair_fix_ratio", "ratio"),
    ("qagents.qec_compare_ms", "ms/op"),
    ("qcir.parse_ms", "ms/op"),
    ("qcir.check_ms", "ms/op"),
    ("qcir.syntactic_ok_ratio", "ratio"),
    ("qeval.grade_exact_ms", "ms/op"),
    ("qeval.grade_sampled_ms", "ms/op"),
    ("qeval.grade_sampled_calls", "count/op"),
    ("qsim.exec.shots", "count/op"),
    ("qsim.exec.jobs", "count/op"),
    ("qsim.exec.distributions", "count/op"),
    ("qsim.plan.compiles", "count/op"),
    ("qsim.plan.cache_hit_ratio", "ratio"),
    ("qsim.kernels.avx2_share", "ratio"),
    ("qsim.ideal_dist_ms", "ms/op"),
    ("qsim.noisy_run_ms", "ms/op"),
    ("qsim.tableau_run_ms", "ms/op"),
    ("qec.synthesize_ms", "ms/op"),
    ("qec.detection_events_ms", "ms/op"),
    ("qec.decode_ms", "ms/op"),
    ("qec.decode_calls", "count/op"),
    ("qec.distinct_word_ratio", "ratio"),
    ("shard.worker_busy_ratio", "ratio"),
    ("shard.overhead_ms", "ms/op"),
    ("shard.requeues", "count/op"),
    ("serve.submit_handle_us_p50", "us"),
    ("serve.result_handle_us_p50", "us"),
    ("serve.transport_gap_ms_p50", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.worker_busy_ratio", "ratio"),
    ("wire.encode_us", "us/op"),
    ("wire.decode_us", "us/op"),
    ("trace_overhead_frac", "ratio"),
    ("fold.wall_ms", "ms/op"),
    ("fold.qlm_self_ms", "ms/op"),
    ("fold.qagents_self_ms", "ms/op"),
    ("fold.qcir_self_ms", "ms/op"),
    ("fold.qsim_self_ms", "ms/op"),
    ("fold.qec_self_ms", "ms/op"),
    ("fold.shard_self_ms", "ms/op"),
    ("fold.serve_self_ms", "ms/op"),
    ("fold.wire_self_ms", "ms/op"),
    ("fold.other_self_ms", "ms/op"),
];

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations and output checks; any failure marks the run incorrect.
    pub tally: Tally,
    /// Metric values by name (units come from the tables above).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Spans captured by a traced run.
    pub trace_lines: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records one output check: a failure counts in `failed` and is
    /// reported on stderr.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.tally.record(ok);
        if !ok {
            eprintln!("perfbench: check failed: {what}");
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    let mut shard_bin = None;
    let mut trace_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--shard-bin" => shard_bin = Some(PathBuf::from(value)),
            "--trace-dir" => trace_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
        shard_bin: shard_bin.ok_or("--shard-bin is required")?,
        trace_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "suite_agents" => agents::run(&args, agents::Kind::Suite),
        "ft_pipeline" => agents::run(&args, agents::Kind::FaultTolerant),
        "qec_sweep" => sweep::run(&args),
        "serve_stream" => serve::run(&args),
        other => Err(format!("unknown workload `{other}`")),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Some(dir) = args.trace_dir.as_ref().filter(|_| args.trace) {
        let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        let mut text = outcome.trace_lines.join("\n");
        text.push('\n');
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text)) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("perfbench: spans written to {}", path.display());
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = BTreeMap::new();
    for &(name, unit) in table {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { f64::MAX };
        metrics.insert(
            name.to_string(),
            obj([
                ("value", Json::Float(value)),
                ("unit", Json::Str(unit.into())),
            ]),
        );
    }
    let tally = outcome.tally;
    eprintln!(
        "perfbench: {} attempted {} failed {} (failed_frac {:.6})",
        args.workload,
        tally.attempted,
        tally.failed,
        tally.failed_frac()
    );
    let line = obj([
        (
            "correct",
            Json::Bool(tally.failed == 0 && tally.attempted > 0),
        ),
        ("attempted", Json::Int(tally.attempted as i128)),
        ("failed", Json::Int(tally.failed as i128)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.encode());
    ExitCode::SUCCESS
}
