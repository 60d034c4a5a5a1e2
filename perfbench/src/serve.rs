//! `serve_stream`: a closed loop of two TCP clients against
//! `qugen-serve --listen`.
//!
//! Each job is a `submit` followed by a `result` with `wait: true`, one
//! request per line written in a single write, never pipelined. The mix
//! is the 34 suite tasks' gold sources at 2048 shots; every fourth job
//! repeats the (source, seed) pair of a finished earlier job, so result
//! cache hits run beside misses. Any typed error reply is a failed job.
//! After the timed window every job's counts must equal a local
//! `Executor::try_run_job` of the same `JobSpec`.

use crate::stats::{histogram_delta, histogram_percentile, median, Latencies};
use crate::traced::{self, Capture};
use crate::{Args, Outcome};
use qcir::circuit::Circuit;
use qsim::exec::{derive_seed, ExecutorConfig};
use qsim::job::JobSpec;
use qugen_telemetry::metrics::HistogramSnapshot;
use qugen_telemetry::trace;
use qugen_wire::{obj, Json};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHOTS: u64 = 2048;
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
const SETUPS: usize = 3;
/// Every `REPEAT_EVERY`-th job repeats an earlier job's pair.
const REPEAT_EVERY: u64 = 4;
const WARMUP_JOBS: u64 = 4;
/// Seed of the warm-up jobs, the same for every run seed.
const WARMUP_SEED: u64 = 0x5345_5256_4557;

/// The daemon process; killed and reaped if still running on drop.
struct Daemon {
    child: Child,
    port: u16,
}

impl Daemon {
    fn spawn(bin: &std::path::Path) -> Result<Daemon, String> {
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("no free port: {e}"))?
            .port();
        let mut cmd = Command::new(bin);
        cmd.args(["--listen", &format!("127.0.0.1:{port}")])
            .args(["--workers", &WORKERS.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        for var in [
            "QUGEN_TRACE",
            "QUGEN_TELEMETRY",
            "QUGEN_BACKEND",
            "QUGEN_THREADS",
            "QUGEN_TRUNCATION_BUDGET",
            "QUGEN_PLAN_CACHE",
        ] {
            cmd.env_remove(var);
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        Ok(Daemon { child, port })
    }

    fn connect(&self) -> Result<Client, String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match TcpStream::connect(("127.0.0.1", self.port)) {
                Ok(stream) => return Client::new(stream),
                Err(e) if Instant::now() > deadline => return Err(format!("connect: {e}")),
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    /// Asks the daemon to drain and exit, then reaps it.
    fn shutdown(mut self, client: &mut Client) {
        let _ = client.call(&obj([("op", Json::Str("shutdown".into()))]));
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One connection: one request line per write, one reply line per read.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Client {
    fn new(stream: TcpStream) -> Result<Client, String> {
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            reader,
            writer: stream,
            line: String::new(),
        })
    }

    /// Writes `request` as one line in one write and reads the reply line.
    fn send_line(&mut self, request: &str) -> Result<&str, String> {
        self.writer
            .write_all(request.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => Ok(self.line.trim_end()),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    fn call(&mut self, request: &Json) -> Result<Json, String> {
        let line = format!("{}\n", request.encode());
        let reply = self.send_line(&line)?;
        Json::parse(reply).map_err(|e| format!("bad reply: {e}"))
    }

    /// The daemon's telemetry registry.
    fn metrics(&mut self) -> Result<Json, String> {
        let reply = self.call(&obj([("op", Json::Str("metrics".into()))]))?;
        reply
            .get("metrics")
            .cloned()
            .ok_or_else(|| "metrics reply without metrics".into())
    }
}

/// The (task, seed) pair of job `k`.
fn job_pair(seed: u64, k: u64, tasks: usize) -> (usize, u64) {
    if k >= 2 * REPEAT_EVERY && k % REPEAT_EVERY == REPEAT_EVERY - 1 {
        // Repeat a job at least two back: with two closed-loop clients it
        // has finished before this one is submitted.
        let back = 2 + derive_seed(seed, k) % (k - 2).min(32);
        return job_pair(seed, k - back, tasks);
    }
    let task = (derive_seed(seed ^ 0x7A5C, k) % tasks as u64) as usize;
    (task, derive_seed(seed, k))
}

/// What one client saw over a window.
#[derive(Default)]
struct ClientLog {
    latencies: Latencies,
    ok: u64,
    failed: u64,
    /// `(task, seed, encoded counts)` of every completed job.
    results: Vec<(usize, u64, String)>,
    encode_us: f64,
    decode_us: f64,
    last_end: Option<Instant>,
}

/// Runs jobs from the shared counter until `until`.
fn client_loop(
    client: &mut Client,
    tid: u64,
    next: &AtomicU64,
    seed: u64,
    sources: &[String],
    begin: Instant,
    until: Duration,
) -> ClientLog {
    let mut log = ClientLog::default();
    while begin.elapsed() < until {
        let k = next.fetch_add(1, Ordering::Relaxed);
        let (task, job_seed) = job_pair(seed, k, sources.len());
        match one_job(client, tid, &sources[task], job_seed, &mut log) {
            Ok((ms, counts)) => {
                log.ok += 1;
                log.latencies.ok(ms);
                log.results.push((task, job_seed, counts));
            }
            Err(e) => {
                eprintln!("perfbench: job {k} failed: {e}");
                log.failed += 1;
                log.latencies.failed();
            }
        }
        log.last_end = Some(Instant::now());
    }
    log
}

/// One submit + wait-for-result job; returns its latency in ms and the
/// canonical encoding of its counts.
fn one_job(
    client: &mut Client,
    tid: u64,
    source: &str,
    seed: u64,
    log: &mut ClientLog,
) -> Result<(f64, String), String> {
    let span = |name| trace::span("wire", name).int("tid", tid as i128);
    let encode = |log: &mut ClientLog, req: Json| {
        let _s = span("encode");
        let t = Instant::now();
        let line = format!("{}\n", req.encode());
        log.encode_us += t.elapsed().as_secs_f64() * 1e6;
        line
    };
    let decode = |log: &mut ClientLog, reply: &str| -> Result<Json, String> {
        let _s = span("decode");
        let t = Instant::now();
        let json = Json::parse(reply).map_err(|e| format!("bad reply: {e}"));
        log.decode_us += t.elapsed().as_secs_f64() * 1e6;
        let json = json?;
        match json.get("error") {
            None => Ok(json),
            Some(code) => Err(format!("refused: {}", code.encode())),
        }
    };
    let submit = encode(
        log,
        obj([
            ("op", Json::Str("submit".into())),
            ("source", Json::Str(source.to_string())),
            ("shots", Json::Int(SHOTS as i128)),
            ("seed", Json::Int(seed as i128)),
        ]),
    );
    let start = Instant::now();
    let reply = {
        let _s = trace::span("serve", "submit").int("tid", tid as i128);
        client.send_line(&submit)?.to_string()
    };
    let job = decode(log, &reply)?
        .get("job")
        .and_then(Json::as_u64)
        .ok_or("submit reply without a job id")?;
    let result = encode(
        log,
        obj([
            ("op", Json::Str("result".into())),
            ("job", Json::Int(job as i128)),
            ("wait", Json::Bool(true)),
        ]),
    );
    let reply = {
        let _s = trace::span("serve", "result").int("tid", tid as i128);
        client.send_line(&result)?.to_string()
    };
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let json = decode(log, &reply)?;
    if json.get("status").and_then(Json::as_str) != Some("done")
        || json.get("shots").and_then(Json::as_u64) != Some(SHOTS)
    {
        return Err(format!("job {job} did not finish: {reply}"));
    }
    let counts = json.get("counts").ok_or("result without counts")?.encode();
    Ok((ms, counts))
}

/// Spawns a daemon, connects the clients and runs the warm-up jobs.
fn setup(args: &Args, sources: &[String]) -> Result<(Daemon, Vec<Client>), String> {
    let daemon = Daemon::spawn(&args.serve_bin)?;
    let mut clients = (0..CLIENTS)
        .map(|_| daemon.connect())
        .collect::<Result<Vec<_>, _>>()?;
    for (tid, client) in clients.iter_mut().enumerate() {
        for k in 0..WARMUP_JOBS {
            let (task, seed) =
                job_pair(WARMUP_SEED, k * CLIENTS as u64 + tid as u64, sources.len());
            one_job(
                client,
                tid as u64,
                &sources[task],
                seed,
                &mut ClientLog::default(),
            )
            .map_err(|e| format!("warm-up job failed: {e}"))?;
        }
    }
    Ok((daemon, clients))
}

/// Runs both clients from `begin` until `until` has elapsed.
fn window(
    clients: Vec<Client>,
    next: &Arc<AtomicU64>,
    seed: u64,
    sources: &Arc<Vec<String>>,
    begin: Instant,
    until: Duration,
) -> Vec<(Client, ClientLog)> {
    let handles: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(tid, mut client)| {
            let next = Arc::clone(next);
            let sources = Arc::clone(sources);
            std::thread::spawn(move || {
                let log = client_loop(&mut client, tid as u64, &next, seed, &sources, begin, until);
                (client, log)
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("client thread panicked"))
        .collect()
}

struct Summary {
    jobs: u64,
    failed: u64,
    secs: f64,
    latencies: Latencies,
    encode_us: f64,
    decode_us: f64,
    results: Vec<(usize, u64, String)>,
}

fn summarize(logs: &mut [(Client, ClientLog)], start: Instant) -> Summary {
    let mut s = Summary {
        jobs: 0,
        failed: 0,
        secs: 0.0,
        latencies: Latencies::default(),
        encode_us: 0.0,
        decode_us: 0.0,
        results: Vec::new(),
    };
    for (_, log) in logs.iter_mut() {
        s.jobs += log.ok + log.failed;
        s.failed += log.failed;
        s.latencies.ms.extend(&log.latencies.ms);
        s.encode_us += log.encode_us;
        s.decode_us += log.decode_us;
        s.results.append(&mut log.results);
        if let Some(end) = log.last_end {
            s.secs = s.secs.max(end.duration_since(start).as_secs_f64());
        }
    }
    s
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    if !args.serve_bin.is_file() {
        return Err(format!("no daemon binary at {}", args.serve_bin.display()));
    }
    let mut out = Outcome::default();
    let tasks = qeval::suite::test_suite();
    let sources: Arc<Vec<String>> = Arc::new(
        tasks
            .iter()
            .map(|t| qlm::template::gold_source(&t.spec))
            .collect(),
    );
    let mut setup_s = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let start = Instant::now();
        let (daemon, mut clients) = setup(args, &sources)?;
        setup_s.push(start.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            daemon.shutdown(&mut clients[0]);
        } else {
            kept = Some((daemon, clients));
        }
    }
    out.set("setup_s", median(&setup_s).unwrap_or(0.0));
    let (daemon, clients) = kept.expect("one setup kept");

    let next = Arc::new(AtomicU64::new(0));
    let full = args.window();
    let untraced_until = if args.trace { full / 2 } else { full };
    let begin = Instant::now();
    let mut logs = window(clients, &next, args.seed, &sources, begin, untraced_until);
    let untraced = summarize(&mut logs, begin);
    out.tally.attempted += untraced.jobs;
    out.tally.failed += untraced.failed;
    let mut all_results = untraced.results;

    if args.trace {
        let mut clients: Vec<Client> = logs.into_iter().map(|(c, _)| c).collect();
        let before = clients[0].metrics()?;
        let capture = Capture::start();
        let t_begin = Instant::now();
        let mut logs = window(
            clients,
            &next,
            args.seed,
            &sources,
            t_begin,
            full - untraced_until,
        );
        let lines = capture.stop();
        let traced = summarize(&mut logs, t_begin);
        clients = logs.into_iter().map(|(c, _)| c).collect();
        let after = clients[0].metrics()?;
        out.tally.attempted += traced.jobs;
        out.tally.failed += traced.failed;
        let untraced_rate = untraced.jobs as f64 / untraced.secs;
        let traced_rate = traced.jobs as f64 / traced.secs;
        out.set("trace_overhead_frac", untraced_rate / traced_rate - 1.0);
        let ok = layer_metrics(&mut out, &before, &after, &traced, lines);
        out.check(ok, "layer self times exceed the traced wall time");
        all_results.extend(traced.results);
        daemon.shutdown(&mut clients[0]);
    } else {
        let secs = untraced.secs;
        out.set("units_per_s", untraced.jobs as f64 / secs);
        let (p50, tail, q, n) = untraced.latencies.summary();
        out.set("op_p50_ms", p50);
        out.set("op_tail_ms", tail);
        eprintln!("perfbench: {n} jobs in {secs:.2} s, p50 {p50:.2} ms, tail p{q} {tail:.2} ms");
        let mut clients: Vec<Client> = logs.into_iter().map(|(c, _)| c).collect();
        daemon.shutdown(&mut clients[0]);
    }

    // Output check outside the timed window: counts equal a local run of
    // the same job.
    let exec = ExecutorConfig::new().build();
    let mut circuits: BTreeMap<usize, Circuit> = BTreeMap::new();
    let mut local: BTreeMap<(usize, u64), String> = BTreeMap::new();
    let mut mismatches = 0usize;
    for (task, seed, counts) in &all_results {
        let expected = local.entry((*task, *seed)).or_insert_with(|| {
            let circuit = circuits.entry(*task).or_insert_with(|| {
                let program = qcir::dsl::parse(&sources[*task]).expect("gold source parses");
                qcir::check::lower(&program).expect("gold source lowers")
            });
            match exec.try_run_job(&JobSpec::new(circuit.clone(), SHOTS, *seed)) {
                Ok(c) => qugen_serve::proto::counts_to_json(&c).encode(),
                Err(e) => format!("error: {e}"),
            }
        });
        mismatches += (expected != counts) as usize;
    }
    out.check(
        mismatches == 0,
        &format!("{mismatches} serve results differ from local runs"),
    );
    out.set("peak_rss_mb", crate::sys::peak_rss_mb(1));
    Ok(out)
}

fn hist(metrics: &Json, name: &str) -> HistogramSnapshot {
    let h = metrics.get(name);
    let int = |k: &str| h.and_then(|h| h.get(k)).and_then(Json::as_u64).unwrap_or(0);
    let buckets = match h.and_then(|h| h.get("buckets")) {
        Some(Json::Arr(items)) => items.iter().map(|b| b.as_u64().unwrap_or(0)).collect(),
        _ => Vec::new(),
    };
    HistogramSnapshot {
        count: int("count"),
        sum: int("sum"),
        buckets,
    }
}

/// Per-layer metrics of the traced half, from the daemon's registry
/// deltas and the client spans.
fn layer_metrics(
    out: &mut Outcome,
    before: &Json,
    after: &Json,
    t: &Summary,
    lines: Vec<String>,
) -> bool {
    let jobs = t.jobs.max(1) as f64;
    let delta = |name: &str| hist(after, name).sum.saturating_sub(hist(before, name).sum);
    let p50_us = |name: &str| {
        histogram_percentile(
            &histogram_delta(&hist(before, name), &hist(after, name)),
            50,
        )
        .unwrap_or(0.0)
    };
    let submit_us = p50_us("serve.submit_us");
    let result_us = p50_us("serve.result_us");
    out.set("serve.submit_handle_us_p50", submit_us);
    out.set("serve.result_handle_us_p50", result_us);
    let (client_p50, _, _, _) = t.latencies.summary();
    out.set(
        "serve.transport_gap_ms_p50",
        client_p50 - (submit_us + result_us) / 1e3,
    );
    let counter = |m: &Json, name: &str| m.get(name).and_then(Json::as_u64).unwrap_or(0);
    let counter_delta = |name: &str| counter(after, name).saturating_sub(counter(before, name));
    let hits = counter_delta("serve.cache_hits") as f64;
    let misses = counter_delta("serve.cache_misses") as f64;
    out.set("serve.cache_hit_ratio", hits / (hits + misses).max(1.0));
    let busy_us = (delta("exec.job_us.dense")
        + delta("exec.job_us.tableau")
        + delta("exec.job_us.mps")) as f64;
    out.set(
        "serve.worker_busy_ratio",
        busy_us / 1e6 / (WORKERS as f64 * t.secs),
    );
    out.set("wire.encode_us", t.encode_us / jobs);
    out.set("wire.decode_us", t.decode_us / jobs);
    let counters = |m: &Json| -> BTreeMap<String, u64> {
        let Some(map) = m.as_obj() else {
            return BTreeMap::new();
        };
        map.iter()
            .filter_map(|(k, v)| v.as_u64().map(|n| (k.clone(), n)))
            .collect()
    };
    let mut counter_deltas = BTreeMap::new();
    traced::add_delta(&mut counter_deltas, &counters(before), &counters(after));
    traced::qsim_counters(out, &counter_deltas, jobs);
    traced::fold_report(out, lines, t.secs * 1e3 * CLIENTS as f64, jobs)
}
