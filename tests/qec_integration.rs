//! Cross-crate integration tests for the QEC stack: stabilizer simulation,
//! surface codes, decoders and the agent interface.

use qugen::qagents::qec_agent::QecAgent;
use qugen::qec::agent_iface::{synthesize, CodeFamily};
use qugen::qec::decoder::{Decoder, DecodingGraph, GreedyMatchingDecoder, UnionFindDecoder};
use qugen::qec::memory::{code_capacity_experiment, DecoderKind};
use qugen::qec::surface::SurfaceCode;
use qugen::qec::topology::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn stabilizer_sim_agrees_with_surface_code_algebra() {
    // Prepare the surface-code stabilizer measurement circuit on the CHP
    // simulator and confirm a deterministic round on |0...0>: all Z
    // stabilizers read +1 (Z-type checks of the all-zeros state).
    let code = SurfaceCode::new(3);
    let n = code.num_data();
    let z_stabs = code.z_stabilizers();
    let mut sim = qugen::qsim::stabilizer::StabilizerSim::new(n + z_stabs.len());
    let mut rng = StdRng::seed_from_u64(1);
    // Measure each Z stabilizer via an ancilla: CX data -> ancilla.
    for (i, stab) in z_stabs.iter().enumerate() {
        let anc = n + i;
        for &q in &stab.support {
            sim.cx(q, anc);
        }
        assert!(!sim.measure(anc, &mut rng), "stabilizer {i} should read 0");
    }
}

#[test]
fn injected_error_is_caught_by_ancilla_readout() {
    let code = SurfaceCode::new(3);
    let n = code.num_data();
    let z_stabs = code.z_stabilizers();
    let victim = code.data_at(1, 1);
    let mut sim = qugen::qsim::stabilizer::StabilizerSim::new(n + z_stabs.len());
    let mut rng = StdRng::seed_from_u64(2);
    sim.x_gate(victim);
    let mut flagged = Vec::new();
    for (i, stab) in z_stabs.iter().enumerate() {
        let anc = n + i;
        for &q in &stab.support {
            sim.cx(q, anc);
        }
        if sim.measure(anc, &mut rng) {
            flagged.push(i);
        }
    }
    // Must match the algebraic syndrome.
    let mut errors = vec![false; n];
    errors[victim] = true;
    let expected: Vec<usize> = code
        .z_syndrome(&errors)
        .into_iter()
        .enumerate()
        .filter_map(|(i, b)| b.then_some(i))
        .collect();
    assert_eq!(flagged, expected);
}

#[test]
fn decoders_correct_random_low_weight_errors_d5() {
    let code = SurfaceCode::new(5);
    let graph = DecodingGraph::code_capacity_x(&code);
    let greedy = GreedyMatchingDecoder::new(graph.clone());
    let uf = UnionFindDecoder::new(graph.clone());
    let mut rng = StdRng::seed_from_u64(3);
    let mut greedy_fail = 0;
    let mut uf_fail = 0;
    let trials = 300;
    for _ in 0..trials {
        let mut errors = vec![false; code.num_data()];
        // Weight-2 random error (always correctable by MWPM at d=5).
        for _ in 0..2 {
            errors[rng.gen_range(0..code.num_data())] = true;
        }
        let flagged = graph.syndrome_of(&errors);
        for (dec, fails) in [
            (&greedy as &dyn Decoder, &mut greedy_fail),
            (&uf as &dyn Decoder, &mut uf_fail),
        ] {
            let mut e = errors.clone();
            dec.decode(&flagged).apply(&mut e);
            assert!(code.z_syndrome(&e).iter().all(|&b| !b));
            if code.is_logical_x_flip(&e) {
                *fails += 1;
            }
        }
    }
    assert_eq!(greedy_fail, 0, "exact matching fails weight-2 errors");
    assert!(
        uf_fail * 10 <= trials,
        "UF failure rate too high: {uf_fail}/{trials}"
    );
}

#[test]
fn agent_synthesis_matches_memory_experiment() {
    let device = Topology::grid(7, 7);
    let spec = synthesize(&device, 0.02, 3).expect("synthesis");
    let CodeFamily::Surface { distance } = spec.family else {
        panic!("grid must host a surface code");
    };
    let direct = code_capacity_experiment(distance, 0.02, spec.decoder, 3000, 5);
    // The agent's exact estimate and a Monte-Carlo run of the same
    // experiment must agree that QEC helps at this rate.
    assert!(spec.estimated_lifetime_extension > 1.0);
    assert!(direct.lifetime_extension() > 1.0);
}

#[test]
fn heavy_hex_device_triggers_the_papers_topology_caveat() {
    // The paper: "requiring the devices to follow a fully-connected
    // lattice design" — heavy-hex forces SWAP embedding.
    let brisbane = Topology::ibm_brisbane_like();
    let spec = synthesize(&brisbane, 0.02, 3).expect("synthesis");
    assert!(!spec.native_layout);
}

#[test]
fn synthesis_estimates_are_pinned() {
    // The estimates come from exact failure-count tables, so they hold to
    // the bit and do not depend on the agent's seed.
    let grid_pin: f64 = 7.39191218471545;
    let brisbane_pin: f64 = 3.0048933103093245;
    let spec = synthesize(&Topology::grid(7, 7), 0.02, 5).expect("grid synthesis");
    assert_eq!(spec.family, CodeFamily::Surface { distance: 5 });
    assert_eq!(spec.decoder, DecoderKind::UnionFind);
    assert_eq!(
        spec.estimated_lifetime_extension.to_bits(),
        grid_pin.to_bits(),
        "grid: {}",
        spec.estimated_lifetime_extension
    );
    let brisbane = Topology::ibm_brisbane_like();
    let spec = synthesize(&brisbane, 0.02, 3).expect("brisbane synthesis");
    assert_eq!(spec.family, CodeFamily::Surface { distance: 3 });
    assert_eq!(spec.decoder, DecoderKind::Lookup);
    assert_eq!(
        spec.estimated_lifetime_extension.to_bits(),
        brisbane_pin.to_bits(),
        "brisbane: {}",
        spec.estimated_lifetime_extension
    );
    let agent = QecAgent::new(Topology::grid(7, 7), 0.02);
    for seed in 0..5u64 {
        let spec = agent.synthesize_decoder(seed).expect("agent synthesis");
        assert_eq!(
            spec.estimated_lifetime_extension.to_bits(),
            grid_pin.to_bits(),
            "agent seed {seed}: {}",
            spec.estimated_lifetime_extension
        );
    }
}
