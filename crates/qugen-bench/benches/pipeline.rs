//! Criterion microbenches: end-to-end pipeline cost.

use criterion::{criterion_group, criterion_main, Criterion};
use qagents::orchestrator::{Orchestrator, PipelineConfig};
use qeval::suite::test_suite;
use qlm::model::{CodeLlm, GenConfig};

fn bench_generation(c: &mut Criterion) {
    let llm = CodeLlm::new();
    let config = GenConfig::with_scot();
    let spec = qlm::spec::TaskSpec::Grover { n: 3, marked: 5 };
    let mut seed = 0u64;
    c.bench_function("llm_generate_grover", |b| {
        b.iter(|| {
            seed += 1;
            std::hint::black_box(llm.generate(&spec, &config, seed))
        })
    });
}

fn bench_pipeline(c: &mut Criterion) {
    let orchestrator = Orchestrator::new(PipelineConfig::default());
    let task = test_suite().into_iter().next().expect("bell task");
    let mut seed = 0u64;
    c.bench_function("pipeline_bell_3_passes", |b| {
        b.iter(|| {
            seed += 1;
            std::hint::black_box(orchestrator.run_task(&task, seed))
        })
    });
}

fn bench_qec_synthesis(c: &mut Criterion) {
    use qagents::qec_agent::QecAgent;
    use qec::topology::Topology;
    let agent = QecAgent::new(Topology::grid(7, 7), 0.02);
    c.bench_function("qec_decoder_synthesis_grid7", |b| {
        b.iter(|| std::hint::black_box(agent.synthesize_decoder(1).expect("synthesis")))
    });
}

criterion_group!(
    benches,
    bench_generation,
    bench_pipeline,
    bench_qec_synthesis
);
criterion_main!(benches);
