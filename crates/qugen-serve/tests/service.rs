//! Service-level tests: the acceptance criteria of the serve subsystem.
//!
//! * ≥ 64 concurrently submitted jobs come back bit-identical to running
//!   the same [`JobSpec`]s directly on an [`Executor`] — the service adds
//!   no nondeterminism on top of the determinism contract.
//! * A repeated submission is served from the result cache without
//!   re-execution (the `executed` gauge does not move).
//! * A full queue refuses promptly with a typed `queue_full` error —
//!   backpressure is load shedding, never a hang.
//! * A request whose bytes arrive over TCP with a pause longer than the
//!   connection's read timeout is still read whole.

use qsim::exec::ExecutorConfig;
use qsim::job::JobSpec;
use qugen_serve::codec::Json;
use qugen_serve::proto::counts_to_json;
use qugen_serve::server::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A ladder of entangling + rotation layers: non-Clifford so it runs on
/// the dense engine, parameterized by `layers` so specs differ.
fn ladder_source(layers: usize) -> String {
    let mut src = String::from("import qasmlite 2.1;\nqreg q[4];\ncreg c[4];\n");
    for l in 0..layers {
        src.push_str("h q[0];\ncx q[0], q[1];\ncx q[1], q[2];\ncx q[2], q[3];\n");
        src.push_str(&format!("rz({}) q[{}];\n", 0.1 + 0.05 * l as f64, l % 4));
    }
    src.push_str("measure q -> c;\n");
    src
}

/// The same circuit, lowered the way the server lowers it.
fn ladder_circuit(layers: usize) -> qcir::circuit::Circuit {
    let program = qcir::dsl::parse(&ladder_source(layers)).expect("ladder parses");
    qcir::check::lower(&program).expect("ladder checks")
}

fn submit_line(layers: usize, shots: u64, seed: u64) -> String {
    format!(
        "{{\"op\":\"submit\",\"source\":{},\"shots\":{shots},\"seed\":{seed}}}",
        Json::Str(ladder_source(layers)).encode()
    )
}

fn parse(response: &str) -> Json {
    Json::parse(response).expect("response is valid JSON")
}

#[test]
fn sixty_four_concurrent_jobs_match_the_executor_bit_for_bit() {
    const JOBS: usize = 64;
    let server = Arc::new(Server::new(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    }));

    // 64 client threads submit concurrently and block on their results.
    let responses: Vec<(usize, Json)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..JOBS)
            .map(|i| {
                let server = Arc::clone(&server);
                scope.spawn(move || {
                    let layers = 1 + i % 8;
                    let shots = 128 + (i as u64 % 3) * 64;
                    let seed = i as u64 * 0x9E37;
                    let reply = parse(&server.handle_line(&submit_line(layers, shots, seed)));
                    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "job {i}");
                    let id = reply.get("job").unwrap().as_u64().unwrap();
                    let result =
                        parse(&server.handle_line(&format!(
                            "{{\"op\":\"result\",\"job\":{id},\"wait\":true}}"
                        )));
                    assert_eq!(
                        result.get("status").unwrap().as_str(),
                        Some("done"),
                        "job {i}"
                    );
                    (i, result)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Ground truth: the same specs on a plain executor, any thread count.
    let exec = ExecutorConfig::new().threads(2).build();
    for (i, result) in responses {
        let layers = 1 + i % 8;
        let shots = 128 + (i as u64 % 3) * 64;
        let seed = i as u64 * 0x9E37;
        let direct = exec
            .try_run_job(&JobSpec::new(ladder_circuit(layers), shots, seed))
            .expect("direct run succeeds");
        assert_eq!(
            result.get("counts").unwrap().encode(),
            counts_to_json(&direct).encode(),
            "job {i}: service counts differ from direct execution"
        );
    }
}

#[test]
fn repeat_submissions_hit_the_cache_instead_of_executing() {
    let server = Server::new(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let first = parse(&server.handle_line(&submit_line(3, 512, 41)));
    let id = first.get("job").unwrap().as_u64().unwrap();
    let first_result =
        parse(&server.handle_line(&format!("{{\"op\":\"result\",\"job\":{id},\"wait\":true}}")));
    let executed_after_first = parse(&server.handle_line("{\"op\":\"stats\"}"))
        .get("executed")
        .unwrap()
        .as_u64()
        .unwrap();
    assert_eq!(executed_after_first, 1);

    for _ in 0..5 {
        let repeat = parse(&server.handle_line(&submit_line(3, 512, 41)));
        assert_eq!(repeat.get("status").unwrap().as_str(), Some("done"));
        assert_eq!(repeat.get("cached"), Some(&Json::Bool(true)));
        let rid = repeat.get("job").unwrap().as_u64().unwrap();
        let result = parse(&server.handle_line(&format!("{{\"op\":\"result\",\"job\":{rid}}}")));
        assert_eq!(result.get("counts"), first_result.get("counts"));
        assert_eq!(result.get("cached"), Some(&Json::Bool(true)));
    }

    let stats = parse(&server.handle_line("{\"op\":\"stats\"}"));
    assert_eq!(
        stats.get("executed").unwrap().as_u64(),
        Some(1),
        "cache hits must not re-execute"
    );
    assert_eq!(stats.get("cache_hits").unwrap().as_u64(), Some(5));
    // A different seed is a different key: it executes.
    let other = parse(&server.handle_line(&submit_line(3, 512, 42)));
    assert_eq!(other.get("cached"), Some(&Json::Bool(false)));
}

#[test]
fn backpressure_is_a_prompt_typed_refusal_not_a_hang() {
    // Zero workers freeze the queue at whatever fills it.
    let server = Server::new(ServerConfig {
        workers: 0,
        queue_capacity: 4,
        ..ServerConfig::default()
    });
    for seed in 0..4 {
        let reply = parse(&server.handle_line(&submit_line(1, 64, seed)));
        assert_eq!(reply.get("status").unwrap().as_str(), Some("queued"));
    }
    let start = Instant::now();
    let refused = parse(&server.handle_line(&submit_line(1, 64, 999)));
    let elapsed = start.elapsed();
    assert_eq!(refused.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(refused.get("error").unwrap().as_str(), Some("queue_full"));
    assert_eq!(refused.get("capacity").unwrap().as_u64(), Some(4));
    assert!(
        elapsed < Duration::from_secs(2),
        "refusal took {elapsed:?}; submission must never block on a full queue"
    );
    // Queued (non-terminal) jobs still answer status queries.
    let status = parse(&server.handle_line("{\"op\":\"status\",\"job\":1}"));
    assert_eq!(status.get("status").unwrap().as_str(), Some("queued"));
}

#[test]
fn per_job_backend_overrides_ride_the_wire() {
    let server = Server::new(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    // A 30-qubit GHZ is over the dense cap but fine on tableau — only the
    // per-job override makes it runnable when forced away from auto.
    let mut src = String::from("import qasmlite 2.1;\nqreg q[30];\ncreg c[30];\nh q[0];\n");
    for i in 0..29 {
        src.push_str(&format!("cx q[{i}], q[{}];\n", i + 1));
    }
    src.push_str("measure q -> c;\n");
    let line = format!(
        "{{\"op\":\"submit\",\"source\":{},\"shots\":64,\"seed\":5,\"backend\":\"tableau\"}}",
        Json::Str(src.clone()).encode()
    );
    let reply = parse(&server.handle_line(&line));
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));
    let id = reply.get("job").unwrap().as_u64().unwrap();
    let result =
        parse(&server.handle_line(&format!("{{\"op\":\"result\",\"job\":{id},\"wait\":true}}")));
    assert_eq!(result.get("status").unwrap().as_str(), Some("done"));
    assert_eq!(result.get("backend").unwrap().as_str(), Some("tableau"));
    // Forcing dense instead is refused at submit time with the dense cap.
    let dense_line = format!(
        "{{\"op\":\"submit\",\"source\":{},\"shots\":64,\"seed\":5,\"backend\":\"dense\"}}",
        Json::Str(src).encode()
    );
    let refused = parse(&server.handle_line(&dense_line));
    assert_eq!(refused.get("error").unwrap().as_str(), Some("sim"));
    assert_eq!(
        refused.get("sim").unwrap().get("code").unwrap().as_str(),
        Some("qubit_cap")
    );
}

#[test]
fn a_request_split_across_a_slow_write_is_read_whole() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let server = Arc::new(Server::new(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    }));
    let accept_loop = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve_tcp(listener))
    };
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    // Half a submit, then a pause past the server's 100 ms read timeout,
    // then the rest.
    let submit = submit_line(1, 64, 3);
    let (head, tail) = submit.split_at(submit.len() / 2);
    stream.write_all(head.as_bytes()).expect("write head");
    stream.flush().expect("flush head");
    std::thread::sleep(Duration::from_millis(350));
    writeln!(stream, "{tail}").expect("write tail");
    stream.flush().expect("flush tail");
    let mut response = String::new();
    reader.read_line(&mut response).expect("read response");
    let response = parse(response.trim_end());
    assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{response:?}");
    writeln!(stream, "{{\"op\":\"shutdown\"}}").expect("write shutdown");
    stream.flush().expect("flush shutdown");
    let mut bye = String::new();
    reader.read_line(&mut bye).expect("read shutdown reply");
    drop(stream);
    accept_loop
        .join()
        .expect("accept loop exits")
        .expect("accept loop ok");
}
