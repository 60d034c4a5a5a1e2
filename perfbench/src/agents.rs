//! `suite_agents` and `ft_pipeline`: the Figure 1 pipeline
//! (`Orchestrator::run_task`) over the 34-task suite.
//!
//! * `suite_agents` — no QEC stage, 3 passes, the five Figure 3
//!   techniques; one operation is one `run_task` call.
//! * `ft_pipeline` — the default QEC stage, SCoT only.
//!
//! One iteration runs the whole input list, which is a pure function of
//! the seed, so every iteration must produce the same pass and syntactic
//! counts. The traced run alternates with untraced iterations: it composes
//! `run_task` from `CodeGenAgent::generate`/`repair`,
//! `SemanticAnalyzerAgent::analyze` and (for the QEC stage) the calls
//! `QecAgent::compare` makes, and requires the composition to equal the
//! program's own result.

use crate::stats::{median, Latencies};
use crate::traced::{self, timed, Capture};
use crate::{Args, Outcome};
use qagents::codegen::CodeGenAgent;
use qagents::multipass::{MultiPassResult, PassRecord};
use qagents::orchestrator::QecStage;
use qagents::qec_agent::{QecAgent, QecComparison};
use qagents::semantic::SemanticAnalyzerAgent;
use qagents::{Orchestrator, PipelineConfig};
use qcir::api::ApiRegistry;
use qcir::circuit::Circuit;
use qeval::grade::{grade_source, grading_backend, GRADING_DENSE_QUBIT_CAP};
use qeval::suite::{test_suite, Task};
use qlm::model::{CodeLlm, GenConfig};
use qsim::exec::{derive_seed, measures_only_at_end, Executor, ExecutorConfig};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Suite,
    FaultTolerant,
}

/// Seed of the warm-up inputs (timed inputs use seeds derived from the
/// run seed).
const WARMUP_SEED: u64 = 0x5741_524D_5550;
/// Set-ups per run; the median is reported.
const SETUPS: usize = 5;

struct Item {
    task: usize,
    tech: usize,
    seed: u64,
}

/// Per-item outcome compared across iterations.
#[derive(Clone, PartialEq, Eq, Debug)]
struct Verdict {
    passed: bool,
    syntactic_ok: bool,
    passes: usize,
    qec: bool,
}

struct Setup {
    tasks: Vec<Task>,
    references: Vec<Circuit>,
    orchestrators: Vec<Orchestrator>,
    codegens: Vec<CodeGenAgent>,
    analyzer: SemanticAnalyzerAgent,
    registry: ApiRegistry,
    qec: Option<QecStage>,
}

fn techniques(kind: Kind) -> Vec<GenConfig> {
    match kind {
        Kind::Suite => vec![
            GenConfig::base(),
            GenConfig::fine_tuned(),
            GenConfig::with_rag(),
            GenConfig::with_cot(),
            GenConfig::with_scot(),
        ],
        Kind::FaultTolerant => vec![GenConfig::with_scot()],
    }
}

/// Seeds per (task, technique) pair in one iteration: enough samples that
/// the seed-dependent share of costly sampled grades evens out.
fn samples_per_pair(kind: Kind) -> usize {
    match kind {
        Kind::Suite => 40,
        Kind::FaultTolerant => 20,
    }
}

fn items(kind: Kind, seed: u64, tasks: usize) -> Vec<Item> {
    let techs = techniques(kind).len();
    let pairs = tasks * techs;
    (0..pairs * samples_per_pair(kind))
        .map(|i| Item {
            task: (i % pairs) / techs,
            tech: i % techs,
            seed: derive_seed(seed, i as u64),
        })
        .collect()
}

fn setup(kind: Kind) -> Setup {
    let llm = CodeLlm::new();
    let tasks = test_suite();
    let qec = (kind == Kind::FaultTolerant).then(QecStage::default);
    let configs = techniques(kind);
    let orchestrators = configs
        .iter()
        .map(|gen| {
            Orchestrator::with_llm(
                llm.clone(),
                PipelineConfig {
                    gen: gen.clone(),
                    max_passes: 3,
                    qec: qec.clone(),
                },
            )
        })
        .collect();
    let codegens = configs
        .iter()
        .map(|gen| CodeGenAgent::new(llm.clone(), gen.clone()))
        .collect();
    let setup = Setup {
        references: tasks.iter().map(|t| t.spec.reference_circuit()).collect(),
        tasks,
        orchestrators,
        codegens,
        analyzer: SemanticAnalyzerAgent::new(),
        registry: ApiRegistry::standard(),
        qec,
    };
    // Untimed warm-up on inputs the timed window never uses, the same for
    // every seed: each technique generates once and every gold source is
    // analyzed (and, with the QEC stage, compared once).
    for (i, task) in setup.tasks.iter().enumerate() {
        let codegen = &setup.codegens[i % setup.codegens.len()];
        let _ = codegen.generate(&task.spec, WARMUP_SEED);
        let gold = qlm::template::gold_source(&task.spec);
        let _ = setup.analyzer.analyze(&gold, &task.spec);
    }
    if let Some(stage) = &setup.qec {
        let agent = QecAgent::new(stage.topology.clone(), stage.physical_rate);
        let _ = agent.compare(&setup.references[0], &stage.noise, stage.shots, WARMUP_SEED);
    }
    setup
}

fn verdict(report: &qagents::PipelineReport) -> Verdict {
    Verdict {
        passed: report.passed(),
        syntactic_ok: report.multipass.last().analysis.detail.syntactic_ok,
        passes: report.multipass.passes_used(),
        qec: report.qec.is_some(),
    }
}

/// A QEC stage that did not attach a comparison to compiling code is a
/// failed operation (the comparison errored).
fn op_ok(v: &Verdict, qec_stage: bool) -> bool {
    !qec_stage || !v.syntactic_ok || v.qec
}

/// Per-layer accumulators of the traced iterations.
#[derive(Default)]
struct Layers {
    generate_ms: f64,
    repair_ms: f64,
    analyze_ms: f64,
    compare_ms: f64,
    parse_ms: f64,
    check_ms: f64,
    lower_ms: f64,
    exact_ms: f64,
    sampled_ms: f64,
    sampled_calls: u64,
    replays: u64,
    replay_syntactic: u64,
    passes: u64,
    repairs: u64,
    repair_fixes: u64,
    synth_ms: f64,
    ideal_ms: f64,
    noisy_ms: f64,
    replay_mismatch: u64,
}

/// The grading path `grade_source` takes for a syntactically valid
/// circuit, decided with grade's own public predicates.
enum Path {
    Exact,
    Sampled,
    NoSimulation,
}

fn grading_path(circuit: &Circuit, reference: &Circuit) -> Path {
    if circuit.num_clbits() != reference.num_clbits()
        || (circuit.num_measurements() == 0 && reference.num_measurements() > 0)
        || grading_backend(circuit).is_err()
        || grading_backend(reference).is_err()
    {
        return Path::NoSimulation;
    }
    let small = circuit.num_qubits() <= GRADING_DENSE_QUBIT_CAP
        && reference.num_qubits() <= GRADING_DENSE_QUBIT_CAP;
    if small && measures_only_at_end(circuit) && measures_only_at_end(reference) {
        Path::Exact
    } else {
        Path::Sampled
    }
}

impl Setup {
    /// `run_task` composed from the agents' public calls, every call in a
    /// span. Returns the multipass history and the QEC comparison.
    fn composed(&self, item: &Item, l: &mut Layers) -> (MultiPassResult, Option<QecComparison>) {
        let task = &self.tasks[item.task];
        let spec = &task.spec;
        let codegen = &self.codegens[item.tech];
        let _run = qugen_telemetry::trace::span("qagents", "run_task").int("tid", 0);
        let max_passes = 3;
        let mut history: Vec<PassRecord> = Vec::with_capacity(max_passes);
        let mut generation = timed(0, "qlm", "generate", &mut l.generate_ms, || {
            codegen.generate(spec, item.seed)
        });
        for pass in 1..=max_passes {
            let mut analyze_ms = 0.0;
            let analysis = timed(0, "qagents", "analyze", &mut analyze_ms, || {
                self.analyzer.analyze(&generation.source, spec)
            });
            l.analyze_ms += analyze_ms;
            l.passes += 1;
            if pass > 1 {
                l.repairs += 1;
                l.repair_fixes += analysis.passed() as u64;
            }
            // Replay parse + check on the analyzed source.
            l.replays += 1;
            let program = timed(0, "qcir", "parse", &mut l.parse_ms, || {
                qcir::dsl::parse(&generation.source)
            });
            let circuit = program.ok().and_then(|p| {
                timed(0, "qcir", "check", &mut l.check_ms, || {
                    qcir::check::check(&p, &self.registry)
                })
                .circuit
            });
            if circuit.is_some() != analysis.detail.syntactic_ok {
                l.replay_mismatch += 1;
            }
            if let Some(c) = &circuit {
                l.replay_syntactic += 1;
                match grading_path(c, &self.references[item.task]) {
                    Path::Exact => l.exact_ms += analyze_ms,
                    Path::Sampled => {
                        l.sampled_ms += analyze_ms;
                        l.sampled_calls += 1;
                    }
                    Path::NoSimulation => {}
                }
            }
            let passed = analysis.passed();
            history.push(PassRecord {
                pass,
                generation: generation.clone(),
                analysis,
            });
            if passed || pass == max_passes {
                break;
            }
            let last = history.last().expect("just pushed");
            generation = timed(0, "qlm", "repair", &mut l.repair_ms, || {
                codegen.repair(
                    spec,
                    &last.generation,
                    &last.analysis.trace_codes,
                    last.analysis.semantic_feedback,
                    item.seed.wrapping_add(pass as u64 * 0x9E37),
                )
            });
        }
        let result = MultiPassResult { history };
        let qec = match (&self.qec, result.last().analysis.detail.syntactic_ok) {
            (Some(stage), true) => {
                let source = &result.last().generation.source;
                let circuit = timed(0, "qcir", "lower", &mut l.lower_ms, || {
                    qcir::dsl::parse(source)
                        .ok()
                        .and_then(|p| qcir::check::lower(&p).ok())
                });
                circuit.and_then(|c| {
                    let mut compare_ms = 0.0;
                    let cmp = timed(0, "qagents", "qec_compare", &mut compare_ms, || {
                        self.composed_compare(stage, &c, item.seed, l)
                    });
                    l.compare_ms += compare_ms;
                    cmp
                })
            }
            _ => None,
        };
        (result, qec)
    }

    /// `QecAgent::compare` from its decoder synthesis and three executor
    /// calls.
    fn composed_compare(
        &self,
        stage: &QecStage,
        c: &Circuit,
        seed: u64,
        l: &mut Layers,
    ) -> Option<QecComparison> {
        let agent = QecAgent::new(stage.topology.clone(), stage.physical_rate);
        let spec = timed(0, "qec", "synthesize", &mut l.synth_ms, || {
            agent.synthesize_decoder(seed)
        })
        .ok()?;
        let threads = qsim::exec::recommended_threads();
        let ideal = timed(0, "qsim", "ideal_distribution", &mut l.ideal_ms, || {
            Executor::try_ideal_distribution_threaded(c, seed, threads)
        })
        .ok()?;
        let noisy = timed(0, "qsim", "noisy_run", &mut l.noisy_ms, || {
            ExecutorConfig::new()
                .noise(stage.noise.clone())
                .threads(threads)
                .build()
                .try_run(c, stage.shots, seed)
        })
        .ok()?;
        let corrected_noise = stage.noise.scaled(spec.noise_reduction_factor());
        let corrected = timed(0, "qsim", "noisy_run", &mut l.noisy_ms, || {
            ExecutorConfig::new()
                .noise(corrected_noise)
                .threads(threads)
                .build()
                .try_run(c, stage.shots, seed ^ 0xC0DE)
        })
        .ok()?;
        Some(QecComparison {
            spec,
            ideal,
            noisy,
            corrected,
        })
    }
}

pub fn run(args: &Args, kind: Kind) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut s = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        s = Some(setup(kind));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let s = s.expect("at least one setup");
    out.set("setup_s", median(&setup_s).unwrap_or(0.0));
    let list = items(kind, args.seed, s.tasks.len());
    let qec_stage = s.qec.is_some();

    // Timed window. In a traced run the first half is untraced program
    // calls and the second half traced compositions of the same inputs.
    let window = args.window();
    let untraced_until = if args.trace { window / 2 } else { window };
    let begin = Instant::now();
    let mut latencies = Latencies::default();
    let mut iter_rates = Vec::new();
    let mut reference: Option<Vec<Verdict>> = None;
    let mut program_results: Vec<(MultiPassResult, Option<QecComparison>)> = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut determinism_ok = true;
    while reference.is_none() || begin.elapsed() < untraced_until {
        let iter_start = Instant::now();
        let mut verdicts = Vec::with_capacity(list.len());
        let keep = program_results.is_empty() && args.trace;
        for item in &list {
            let t = Instant::now();
            let report = s.orchestrators[item.tech].run_task(&s.tasks[item.task], item.seed);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let v = verdict(&report);
            let ok = op_ok(&v, qec_stage);
            out.tally.record(ok);
            if ok {
                latencies.ok(ms);
            } else {
                latencies.failed();
            }
            verdicts.push(v);
            if keep {
                program_results.push((report.multipass, report.qec));
            }
        }
        let iter_s = iter_start.elapsed().as_secs_f64();
        untraced_ms.push(iter_s * 1e3);
        iter_rates.push(list.len() as f64 / iter_s);
        match &reference {
            None => reference = Some(verdicts),
            Some(r) => determinism_ok &= *r == verdicts,
        }
    }
    let reference = reference.expect("one iteration ran");
    out.check(
        determinism_ok,
        "pass/syntactic counts differ between iterations",
    );
    let passed = reference.iter().filter(|v| v.passed).count();
    let syntactic = reference.iter().filter(|v| v.syntactic_ok).count();
    eprintln!(
        "perfbench: {} runs per iteration, {} iterations, passed {passed}, syntactic {syntactic}",
        list.len(),
        iter_rates.len()
    );

    if args.trace {
        traced_half(
            args,
            &s,
            &list,
            &program_results,
            &untraced_ms,
            begin,
            &mut out,
        );
    } else {
        out.set("units_per_s", median(&iter_rates).unwrap_or(0.0));
        let (p50, tail, q, n) = latencies.summary();
        out.set("op_p50_ms", p50);
        out.set("op_tail_ms", tail);
        eprintln!("perfbench: latency p50 {p50:.3} ms, tail p{q} {tail:.3} ms over {n} runs");
    }

    // Output check outside the timed window: every gold source grades as
    // passed.
    for task in &s.tasks {
        let gold = qlm::template::gold_source(&task.spec);
        let ok = grade_source(&gold, &task.spec).passed();
        out.check(
            ok,
            &format!("gold source of {} does not grade as passed", task.id),
        );
    }
    out.set("peak_rss_mb", crate::sys::peak_rss_mb(0));
    Ok(out)
}

fn traced_half(
    args: &Args,
    s: &Setup,
    list: &[Item],
    program: &[(MultiPassResult, Option<QecComparison>)],
    untraced_ms: &[f64],
    begin: Instant,
    out: &mut Outcome,
) {
    let mut l = Layers::default();
    let mut delta = BTreeMap::new();
    let mut traced_ms = Vec::new();
    let mut lines = Vec::new();
    let mut identical = true;
    while traced_ms.is_empty() || begin.elapsed() < args.window() {
        let before = traced::counters();
        let capture = Capture::start();
        let start = Instant::now();
        let replay_before = l.parse_ms + l.check_ms;
        for (item, (multipass, qec)) in list.iter().zip(program) {
            let (m, q) = s.composed(item, &mut l);
            identical &= m == *multipass && q == *qec;
        }
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        lines.extend(capture.stop());
        traced::add_delta(&mut delta, &before, &traced::counters());
        // The parse/check replays are extra work; the overhead compares
        // the rest with the untraced program calls.
        traced_ms.push(wall_ms - (l.parse_ms + l.check_ms - replay_before));
    }
    out.check(
        identical,
        "composed run_task differs from the program's result",
    );
    out.check(
        l.replay_mismatch == 0,
        "parse/check replay disagrees with the analyzer",
    );
    let iters = traced_ms.len() as f64;
    let ops = iters * list.len() as f64;
    let per_op = |ms: f64| ms / ops;
    out.set("qlm.generate_ms", per_op(l.generate_ms));
    out.set("qlm.repair_ms", per_op(l.repair_ms));
    out.set("qagents.analyze_ms", per_op(l.analyze_ms));
    out.set("qagents.passes_per_sample", l.passes as f64 / ops);
    out.set(
        "qagents.repair_fix_ratio",
        if l.repairs > 0 {
            l.repair_fixes as f64 / l.repairs as f64
        } else {
            0.0
        },
    );
    out.set("qagents.qec_compare_ms", per_op(l.compare_ms));
    out.set("qcir.parse_ms", per_op(l.parse_ms));
    out.set("qcir.check_ms", per_op(l.check_ms));
    out.set(
        "qcir.syntactic_ok_ratio",
        l.replay_syntactic as f64 / l.replays.max(1) as f64,
    );
    out.set("qeval.grade_exact_ms", per_op(l.exact_ms));
    out.set("qeval.grade_sampled_ms", per_op(l.sampled_ms));
    out.set("qeval.grade_sampled_calls", l.sampled_calls as f64 / ops);
    out.set("qsim.ideal_dist_ms", per_op(l.ideal_ms));
    out.set("qsim.noisy_run_ms", per_op(l.noisy_ms));
    out.set("qec.synthesize_ms", per_op(l.synth_ms));
    traced::qsim_counters(out, &delta, ops);
    let traced_total: f64 = traced_ms.iter().sum::<f64>() / traced_ms.len() as f64;
    let untraced_mean: f64 = untraced_ms.iter().sum::<f64>() / untraced_ms.len() as f64;
    out.set("trace_overhead_frac", traced_total / untraced_mean - 1.0);
    let wall_ms = traced_ms.iter().sum::<f64>() + l.parse_ms + l.check_ms;
    let folded = traced::fold_report(out, lines, wall_ms, ops);
    out.check(folded, "layer self times exceed the traced wall time");
}
