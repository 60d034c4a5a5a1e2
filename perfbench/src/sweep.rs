//! `qec_sweep`: surface-code memory ladders at d5 and d7 through
//! `run_sharded_with_stats` with two `qugen-shard` worker processes.
//!
//! One operation is one sweep: the d5 ladder, then the d7 ladder. Inputs
//! are a pure function of the seed, so every sweep must produce the same
//! report, and after the timed window each report must encode to the same
//! bytes as `WorkloadSpec::run_serial`. The traced run composes the memory
//! experiment from `memory_circuit` → `try_run` → `detection_events` →
//! `decode` in-process and requires its `p_logical` bits to equal the
//! sharded report's.

use crate::stats::{median, Latencies};
use crate::traced::{self, timed, Capture};
use crate::{Args, Outcome};
use qec::decoder::{Decoder, DecodingGraph, GreedyMatchingDecoder};
use qec::SurfaceCode;
use qsim::backend::BackendChoice;
use qsim::exec::{derive_seed, ExecutorConfig};
use qsim::noise::NoiseModel;
use qugen_shard::{run_sharded_with_stats, ShardConfig, ShardReport, ShardStats, WorkloadSpec};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const DISTANCES: [usize; 2] = [5, 7];
const ROUNDS: usize = 2;
const POINTS: usize = 6;
/// Monte-Carlo trials per ladder point.
const TRIALS: u64 = 120;
const WORKERS: usize = 2;
const SETUPS: usize = 5;
/// Seed of the warm-up sweep, the same for every run seed.
const WARMUP_SEED: u64 = 0x5157_4545_5053;

fn specs(seed: u64, trials: u64) -> Vec<WorkloadSpec> {
    DISTANCES
        .iter()
        .map(|&distance| WorkloadSpec::QecSweep {
            distance,
            rounds: ROUNDS,
            trials,
            seed: derive_seed(seed, distance as u64),
            points: POINTS,
        })
        .collect()
}

fn config(args: &Args) -> ShardConfig {
    ShardConfig {
        workers: WORKERS,
        range_size: 1,
        timeout: Duration::from_secs(120),
        worker_binary: Some(args.shard_bin.clone()),
        worker_env: Vec::new(),
    }
}

fn sweep(
    specs: &[WorkloadSpec],
    config: &ShardConfig,
) -> Result<Vec<(ShardReport, ShardStats, f64)>, String> {
    specs
        .iter()
        .map(|spec| {
            let start = Instant::now();
            let (report, stats) =
                run_sharded_with_stats(spec, config).map_err(|e| e.to_string())?;
            Ok((report, stats, start.elapsed().as_secs_f64() * 1e3))
        })
        .collect()
}

fn encoded(reports: &[(ShardReport, ShardStats, f64)]) -> Vec<String> {
    reports
        .iter()
        .map(|(r, _, _)| r.to_json().encode())
        .collect()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    if !args.shard_bin.is_file() {
        return Err(format!("no worker binary at {}", args.shard_bin.display()));
    }
    let mut out = Outcome::default();
    let config = config(args);
    // Set-up: spawn a worker pool on a small warm-up sweep whose seeds the
    // timed window never uses.
    let mut setup_s = Vec::new();
    for _ in 0..SETUPS {
        let start = Instant::now();
        sweep(&specs(WARMUP_SEED, 8), &config)?;
        setup_s.push(start.elapsed().as_secs_f64());
    }
    out.set("setup_s", median(&setup_s).unwrap_or(0.0));

    let specs = specs(args.seed, TRIALS);
    let trials_per_sweep = (DISTANCES.len() * POINTS) as f64 * TRIALS as f64;
    let window = args.window();
    let untraced_until = if args.trace { window / 2 } else { window };
    let begin = Instant::now();
    let mut latencies = Latencies::default();
    let mut rates = Vec::new();
    let mut first: Option<Vec<(ShardReport, ShardStats, f64)>> = None;
    let mut stable = true;
    let mut busy_us = 0u64;
    let mut overhead_ms = 0.0;
    let mut requeues = 0u64;
    let mut ladder_ms = 0.0;
    while first.is_none() || begin.elapsed() < untraced_until {
        if begin.elapsed() > window * 3 {
            return Err("sharded sweeps keep failing".into());
        }
        let start = Instant::now();
        let result = sweep(&specs, &config);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        out.tally.record(result.is_ok());
        let reports = match result {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: sharded sweep failed: {e}");
                latencies.failed();
                continue;
            }
        };
        latencies.ok(ms);
        rates.push(trials_per_sweep / (ms / 1e3));
        for (_, stats, wall) in &reports {
            let per_worker: Vec<u64> = stats.per_worker.iter().map(|w| w.total_us).collect();
            busy_us += per_worker.iter().sum::<u64>();
            overhead_ms += wall - per_worker.iter().copied().max().unwrap_or(0) as f64 / 1e3;
            requeues += stats.requeues;
            ladder_ms += wall;
        }
        match &first {
            None => first = Some(reports),
            Some(f) => stable &= encoded(f) == encoded(&reports),
        }
    }
    let first = first.expect("one sweep ran");
    let sweeps = rates.len() as f64;
    out.check(stable, "sweep reports differ between iterations");
    eprintln!(
        "perfbench: {} sweeps of {trials_per_sweep} trials",
        rates.len()
    );

    if args.trace {
        out.set(
            "shard.worker_busy_ratio",
            busy_us as f64 / 1e3 / (WORKERS as f64 * ladder_ms),
        );
        out.set("shard.overhead_ms", overhead_ms / sweeps);
        out.set("shard.requeues", requeues as f64 / sweeps);
        traced_half(
            args,
            &specs,
            &config,
            &first,
            ladder_ms / sweeps,
            begin,
            &mut out,
        )?;
    } else {
        out.set("units_per_s", median(&rates).unwrap_or(0.0));
        let (p50, tail, q, n) = latencies.summary();
        out.set("op_p50_ms", p50);
        out.set("op_tail_ms", tail);
        eprintln!("perfbench: sweep p50 {p50:.1} ms, tail p{q} {tail:.1} ms over {n} sweeps");
    }

    // Output check outside the timed window: the sharded reports encode
    // to the same bytes as the single-process reference.
    for (spec, (report, _, _)) in specs.iter().zip(&first) {
        let serial = spec.run_serial().map_err(|e| e.to_string())?;
        out.check(
            serial.to_json().encode() == report.to_json().encode(),
            "sharded report differs from run_serial",
        );
    }
    out.set("peak_rss_mb", crate::sys::peak_rss_mb(WORKERS as u64));
    Ok(out)
}

/// Per-layer accumulators of the traced sweeps.
#[derive(Default)]
struct Layers {
    tableau_ms: f64,
    events_ms: f64,
    decode_ms: f64,
    decode_calls: u64,
    trials: u64,
    shard_ms: f64,
}

/// The circuit-level memory experiment composed from its public parts;
/// returns `p_logical`.
fn composed_point(spec: &WorkloadSpec, point: usize, l: &mut Layers) -> Result<f64, String> {
    let WorkloadSpec::QecSweep {
        distance,
        rounds,
        trials,
        seed,
        points,
    } = *spec
    else {
        return Err("not a QEC sweep".into());
    };
    let noise = NoiseModel::uniform_depolarizing(spec.qec_rate(point, points));
    let code = SurfaceCode::new(distance);
    let mem = code.memory_circuit(rounds);
    let counts = timed(0, "qsim", "tableau_run", &mut l.tableau_ms, || {
        ExecutorConfig::new()
            .noise(noise)
            .backend(BackendChoice::Tableau)
            .threads(1)
            .build()
            .try_run(&mem.circuit, trials, derive_seed(seed, point as u64))
    })
    .map_err(|e| e.to_string())?;
    let events: Vec<_> = timed(0, "qec", "detection_events", &mut l.events_ms, || {
        counts
            .iter()
            .map(|(word, n)| (mem.detection_events(&code, word), word, n))
            .collect()
    });
    let failures = timed(0, "qec", "decode", &mut l.decode_ms, || {
        let decoder = GreedyMatchingDecoder::new(DecodingGraph::spacetime_x(&code, rounds + 1));
        let mut failures = 0u64;
        for (flagged, word, n) in &events {
            let correction = decoder.decode(flagged);
            let mut residual = mem.data_readout(word);
            correction.apply(&mut residual);
            if code.is_logical_x_flip(&residual) {
                failures += n;
            }
        }
        failures
    });
    l.decode_calls += events.len() as u64;
    l.trials += trials;
    Ok(failures as f64 / counts.shots().max(1) as f64)
}

fn traced_half(
    args: &Args,
    specs: &[WorkloadSpec],
    config: &ShardConfig,
    program: &[(ShardReport, ShardStats, f64)],
    untraced_sweep_ms: f64,
    begin: Instant,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut l = Layers::default();
    let mut delta = BTreeMap::new();
    let mut lines = Vec::new();
    let mut sweeps = 0u64;
    let mut identical = true;
    let mut wall_ms = 0.0;
    while sweeps == 0 || begin.elapsed() < args.window() {
        let before = traced::counters();
        let capture = Capture::start();
        let start = Instant::now();
        // The sharded call under one span, then the composed replay.
        let reports = timed(0, "shard", "run_sharded", &mut l.shard_ms, || {
            sweep(specs, config)
        });
        let reports = reports?;
        for (spec, (report, _, _)) in specs.iter().zip(&reports) {
            let ShardReport::Qec(points) = report else {
                return Err("sharded QEC sweep returned another report kind".into());
            };
            for (i, point) in points.iter().enumerate() {
                let p = composed_point(spec, i, &mut l)?;
                identical &= p.to_bits() == point.p_logical.to_bits();
            }
        }
        identical &= encoded(program) == encoded(&reports);
        wall_ms += start.elapsed().as_secs_f64() * 1e3;
        lines.extend(capture.stop());
        traced::add_delta(&mut delta, &before, &traced::counters());
        sweeps += 1;
    }
    out.check(
        identical,
        "composed memory experiment differs from the sharded p_logical",
    );
    let ops = sweeps as f64;
    out.set("qsim.tableau_run_ms", l.tableau_ms / ops);
    out.set("qec.detection_events_ms", l.events_ms / ops);
    out.set("qec.decode_ms", l.decode_ms / ops);
    out.set("qec.decode_calls", l.decode_calls as f64 / ops);
    out.set(
        "qec.distinct_word_ratio",
        l.decode_calls as f64 / l.trials.max(1) as f64,
    );
    traced::qsim_counters(out, &delta, ops);
    // The composed replay is extra work: overhead compares the traced
    // sharded call with the untraced one.
    out.set(
        "trace_overhead_frac",
        l.shard_ms / ops / untraced_sweep_ms - 1.0,
    );
    let folded = traced::fold_report(out, lines, wall_ms, ops);
    out.check(folded, "layer self times exceed the traced wall time");
    Ok(())
}
