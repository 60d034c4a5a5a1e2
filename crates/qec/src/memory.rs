//! Logical memory experiments: logical error rate vs physical rate and
//! distance, and the qubit-lifetime-extension factor the QEC agent reports.
//!
//! Three noise regimes, in increasing fidelity to hardware:
//! [`code_capacity_experiment`] (i.i.d. data errors, perfect syndrome;
//! its exact, seed-free counterpart for `d ≤ 5` is [`FailureTable`]),
//! [`phenomenological_experiment`] (noisy syndrome rounds, classical
//! sampling), and [`circuit_level_experiment`] — which lowers the code to
//! an executable Clifford circuit ([`SurfaceCode::memory_circuit`]) and
//! runs it through `qsim`'s [`qsim::exec::Executor`] on the
//! stabilizer-tableau backend — one noiseless reference run, then Pauli
//! frames for 64 shots per word ([`qsim::frame`]) — so gate-level
//! depolarizing noise propagates through the actual extraction circuit.
//! That path is polynomial in the distance, and
//! outcome words are multi-word, which together make distance-5 (49-qubit)
//! and distance-7 (97-qubit, 97-classical-bit) memory experiments
//! routine where dense simulation — or a one-word classical register — is
//! impossible.

use crate::decoder::{
    Correction, Decoder, DecodingGraph, GreedyMatchingDecoder, LookupDecoder, UnionFindDecoder,
};
use crate::surface::{MemoryCircuit, SurfaceCode};
use crate::syndrome;
use qsim::backend::{BackendChoice, SimError};
use qsim::dist::Counts;
use qsim::exec::ExecutorConfig;
use qsim::noise::NoiseModel;
use qugen_telemetry::trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Which decoder implementation to use in an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecoderKind {
    /// Exact lookup (d = 3 only).
    Lookup,
    /// Greedy minimum-weight matching.
    Greedy,
    /// Union-find cluster decoder.
    UnionFind,
}

impl DecoderKind {
    /// All kinds, for sweeps.
    pub const ALL: [DecoderKind; 3] = [
        DecoderKind::Lookup,
        DecoderKind::Greedy,
        DecoderKind::UnionFind,
    ];

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            DecoderKind::Lookup => "lookup-exact",
            DecoderKind::Greedy => "greedy-matching",
            DecoderKind::UnionFind => "union-find",
        }
    }

    /// Instantiates the decoder for `code` over `graph`.
    ///
    /// # Panics
    ///
    /// Panics when `Lookup` is requested for `d != 3`.
    pub fn build(&self, code: &SurfaceCode, graph: DecodingGraph) -> Box<dyn Decoder> {
        match self {
            DecoderKind::Lookup => Box::new(LookupDecoder::new(code)),
            DecoderKind::Greedy => Box::new(GreedyMatchingDecoder::new(graph)),
            DecoderKind::UnionFind => Box::new(UnionFindDecoder::new(graph)),
        }
    }
}

/// Result of a logical-memory experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryResult {
    /// Code distance.
    pub distance: usize,
    /// Physical error probability per qubit (per round, if multi-round).
    pub p_physical: f64,
    /// Measured logical error probability.
    pub p_logical: f64,
    /// Number of Monte-Carlo trials.
    pub trials: usize,
    /// Decoder used.
    pub decoder: &'static str,
}

impl MemoryResult {
    /// The lifetime-extension factor: how much longer the logical qubit
    /// survives than a bare physical qubit at the same rate (ratio of
    /// error probabilities; >1 means QEC helps).
    pub fn lifetime_extension(&self) -> f64 {
        if self.p_logical <= 0.0 {
            // No observed failures: report the resolution limit.
            return self.p_physical * self.trials as f64;
        }
        self.p_physical / self.p_logical
    }
}

/// Code-capacity experiment: i.i.d. X errors with probability `p`, one
/// perfect syndrome measurement, decode, count logical X flips.
///
/// Each trial makes exactly `num_data` `rng.gen_bool(p)` draws, one per
/// data qubit in qubit order, so a seed fixes the error patterns. The
/// trial loop touches only the flipped qubits: their graph endpoints give
/// the syndrome, and each distinct syndrome is decoded once per call (the
/// empty one before the loop, the rest on first sight). A trial fails
/// when the flipped qubits and the correction together overlap the
/// logical Z support an odd number of times.
pub fn code_capacity_experiment(
    d: usize,
    p: f64,
    kind: DecoderKind,
    trials: usize,
    seed: u64,
) -> MemoryResult {
    let span = trace::span("qec", "code_capacity")
        .int("distance", d as i128)
        .int("trials", trials as i128);
    let code = SurfaceCode::new(d);
    let graph = DecodingGraph::code_capacity_x(&code);
    let decoder = kind.build(&code, graph.clone());
    let n = code.num_data();
    // One edge per data qubit: the code-capacity graph has no others.
    debug_assert_eq!(graph.edges().len(), n);
    let mut endpoints = vec![(0, None); n];
    for e in graph.edges() {
        if let Some(q) = e.qubit {
            endpoints[q] = (e.a, e.b);
        }
    }
    let mut on_logical = vec![false; n];
    for q in code.logical_z() {
        on_logical[q] = true;
    }
    let odd_on_logical =
        |qubits: &[usize]| qubits.iter().filter(|&&q| on_logical[q]).count() % 2 == 1;
    let empty = decoder.decode(&[]);
    debug_assert!(clears_syndrome(&code, &[], &empty));
    let empty_odd = odd_on_logical(&empty.qubit_flips);
    let mut memo: HashMap<Vec<usize>, Correction> = HashMap::new();
    let mut flipped: Vec<usize> = Vec::new();
    let mut flagged: Vec<usize> = Vec::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut failures = 0usize;
    for _ in 0..trials {
        flipped.clear();
        flagged.clear();
        for (q, &(a, b)) in endpoints.iter().enumerate() {
            if rng.gen_bool(p) {
                flipped.push(q);
                toggle_sorted(&mut flagged, a);
                if let Some(b) = b {
                    toggle_sorted(&mut flagged, b);
                }
            }
        }
        let correction_odd = if flagged.is_empty() {
            empty_odd
        } else if let Some(correction) = memo.get(flagged.as_slice()) {
            odd_on_logical(&correction.qubit_flips)
        } else {
            let correction = decoder.decode(&flagged);
            debug_assert!(clears_syndrome(&code, &flipped, &correction));
            let odd = odd_on_logical(&correction.qubit_flips);
            memo.insert(flagged.clone(), correction);
            odd
        };
        if odd_on_logical(&flipped) != correction_odd {
            failures += 1;
        }
    }
    span.int("decodes", memo.len() as i128)
        .int("failures", failures as i128)
        .finish();
    MemoryResult {
        distance: d,
        p_physical: p,
        p_logical: failures as f64 / trials as f64,
        trials,
        decoder: kind.name(),
    }
}

/// The largest distance [`FailureTable`] supports: `d^2` data qubits must
/// fit an exhaustive `2^(d^2)`-pattern walk.
pub const MAX_EXACT_DISTANCE: usize = 5;

/// Qubits whose patterns [`FailureTable`] enumerates once, grouped by
/// weight, and joins with each pattern of the rest.
const LOW_QUBITS: usize = 12;

/// Exact code-capacity failure counts of one decoder: `counts()[w]` is
/// `F_w`, the number of weight-`w` X-error patterns on the `n` data qubits
/// that the decoder turns into a logical X flip.
///
/// `F_w` depends only on `(d, decoder)`, so the logical error rate under
/// i.i.d. flips with probability `p` is the polynomial
/// `P_L(p) = Σ_w F_w · p^w · (1 − p)^(n − w)` — the low-weight failure
/// counting of Fowler, "Analytic asymptotic performance of topological
/// codes" (PRA 87, 040301, 2013), done here over every weight, so there is
/// no tail to bound and no seed.
#[derive(Debug, PartialEq, Eq)]
pub struct FailureTable {
    counts: Vec<u64>,
}

impl FailureTable {
    /// The table for `(d, kind)`, built on first use and then shared by
    /// the whole process. `None` unless `d` is 3 or 5
    /// ([`MAX_EXACT_DISTANCE`]), with `Lookup` at `d = 3` only.
    pub fn get(d: usize, kind: DecoderKind) -> Option<&'static FailureTable> {
        static TABLES: [OnceLock<FailureTable>; 6] = [const { OnceLock::new() }; 6];
        let slot = match (d, kind) {
            (3, _) => kind as usize,
            (5, DecoderKind::Greedy | DecoderKind::UnionFind) => 3 + kind as usize,
            _ => return None,
        };
        Some(TABLES[slot].get_or_init(|| FailureTable::build(d, kind)))
    }

    /// Decodes each of the `2^m` syndromes once, keeping one bit per
    /// syndrome (does its correction flip the logical?), then visits all
    /// `2^n` patterns. A pattern fails when its logical parity differs
    /// from its syndrome's bit. The visit splits the qubits: the patterns
    /// of the first [`LOW_QUBITS`] are listed once, grouped by weight,
    /// and the rest walk in Gray-code order, one qubit's syndrome mask and
    /// parity per step; each step counts the failures of its join with
    /// every low pattern, one weight group at a time.
    fn build(d: usize, kind: DecoderKind) -> FailureTable {
        let code = SurfaceCode::new(d);
        let n = code.num_data();
        let m = code.z_stabilizers().len();
        let span = trace::span("qec", "failure_table")
            .int("distance", d as i128)
            .label("decoder", kind.name())
            .int("syndromes", 1 << m)
            .int("patterns", 1 << n);
        // Z stabilizer i is graph node i, the decoders' flagged index.
        let qubit_masks = code.z_syndrome_masks();
        let mut on_logical = vec![false; n];
        for q in code.logical_z() {
            on_logical[q] = true;
        }
        let decoder = kind.build(&code, DecodingGraph::code_capacity_x(&code));
        let mut flagged = Vec::with_capacity(m);
        let flips_logical: Vec<bool> = (0..1u32 << m)
            .map(|syndrome| {
                flagged.clear();
                flagged.extend((0..m).filter(|&i| syndrome >> i & 1 == 1));
                let correction = decoder.decode(&flagged);
                let (mask, odd) = correction
                    .qubit_flips
                    .iter()
                    .fold((0, false), |(mask, odd), &q| {
                        (mask ^ qubit_masks[q], odd ^ on_logical[q])
                    });
                debug_assert_eq!(
                    mask,
                    syndrome,
                    "{} correction does not clear syndrome {syndrome:#x}",
                    kind.name()
                );
                odd
            })
            .collect();
        // The low `k` qubits' patterns, grouped by weight: (syndrome,
        // logical parity) of each.
        let k = n.min(LOW_QUBITS);
        let mut low_by_weight = vec![Vec::new(); k + 1];
        for low in 0u32..1 << k {
            let (mut syndrome, mut parity) = (0u32, false);
            for q in (0..k).filter(|&q| low >> q & 1 == 1) {
                syndrome ^= qubit_masks[q];
                parity ^= on_logical[q];
            }
            low_by_weight[low.count_ones() as usize].push((syndrome, parity));
        }
        // The high qubits walk in Gray-code order; each high pattern joins
        // every low one.
        let mut counts = vec![0u64; n + 1];
        let (mut syndrome, mut parity) = (0u32, false);
        for i in 0u32..1 << (n - k) {
            if i > 0 {
                // Step i of the Gray code flips bit `trailing_zeros(i)`.
                let q = k + i.trailing_zeros() as usize;
                syndrome ^= qubit_masks[q];
                parity ^= on_logical[q];
            }
            let high_weight = (i ^ (i >> 1)).count_ones() as usize;
            for (low_weight, group) in low_by_weight.iter().enumerate() {
                let failures = group
                    .iter()
                    .filter(|&&(s, p)| p ^ parity != flips_logical[(s ^ syndrome) as usize])
                    .count();
                counts[high_weight + low_weight] += failures as u64;
            }
        }
        span.finish();
        FailureTable { counts }
    }

    /// `F_w` for `w = 0..=n`.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Exact logical error rate at physical rate `p`, summed in ascending
    /// weight so the value is the same to the bit on every call.
    pub fn logical_error_rate(&self, p: f64) -> f64 {
        let n = self.counts.len() as i32 - 1;
        self.counts
            .iter()
            .zip(0..)
            .map(|(&f, w)| f as f64 * p.powi(w) * (1.0 - p).powi(n - w))
            .sum()
    }
}

/// Toggles `node` in the sorted set `nodes`.
fn toggle_sorted(nodes: &mut Vec<usize>, node: usize) {
    match nodes.binary_search(&node) {
        Ok(i) => {
            nodes.remove(i);
        }
        Err(i) => nodes.insert(i, node),
    }
}

/// Whether `correction` clears the Z syndrome of X errors on `flipped`.
fn clears_syndrome(code: &SurfaceCode, flipped: &[usize], correction: &Correction) -> bool {
    let mut residual = vec![false; code.num_data()];
    for &q in flipped {
        residual[q] = true;
    }
    correction.apply(&mut residual);
    code.z_syndrome(&residual).iter().all(|&b| !b)
}

/// Phenomenological experiment: `rounds` rounds of noisy syndrome
/// extraction (data rate `p`, measurement rate `q`), space-time decoding,
/// then a logical-flip check against the final perfect round.
pub fn phenomenological_experiment(
    d: usize,
    p: f64,
    q: f64,
    rounds: usize,
    trials: usize,
    seed: u64,
) -> MemoryResult {
    let code = SurfaceCode::new(d);
    // +1 node layer for the final perfect round.
    let graph = DecodingGraph::spacetime_x(&code, rounds + 1);
    let decoder = GreedyMatchingDecoder::new(graph);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut failures = 0usize;
    for _ in 0..trials {
        let history = syndrome::extract(&code, p, q, rounds, &mut rng);
        let events = history.detection_events();
        let correction = decoder.decode(&events);
        let mut errors = history.final_errors.clone();
        correction.apply(&mut errors);
        if code.is_logical_x_flip(&errors) {
            failures += 1;
        }
    }
    MemoryResult {
        distance: d,
        p_physical: p,
        p_logical: failures as f64 / trials as f64,
        trials,
        decoder: "greedy-matching(spacetime)",
    }
}

/// Circuit-level experiment: lowers the code to its syndrome-extraction
/// circuit, executes `trials` shots on the tableau backend under the given
/// gate-level noise model, and space-time-decodes each distinct outcome
/// word (decoding is deduplicated across identical shots).
///
/// The reported `p_physical` is the model's two-qubit depolarizing rate,
/// the dominant channel in the extraction circuit.
///
/// # Errors
///
/// Propagates [`SimError`] when the circuit cannot run on the tableau
/// backend (it always can for circuits produced by
/// [`SurfaceCode::memory_circuit`]; classical registers of any width are
/// recorded, so distance-7 and beyond work like distance-3).
pub fn circuit_level_experiment(
    d: usize,
    noise: &NoiseModel,
    rounds: usize,
    trials: u64,
    seed: u64,
) -> Result<MemoryResult, SimError> {
    circuit_level_experiment_threaded(
        d,
        noise,
        rounds,
        trials,
        seed,
        qsim::exec::recommended_threads(),
    )
}

/// [`circuit_level_experiment`] with an explicit simulator thread count.
///
/// Results are thread-count independent (the executor's determinism
/// contract); the knob exists so multi-process drivers like `qugen-shard`
/// can run each worker single-threaded and let process fan-out be the only
/// parallelism, instead of nesting a full-width shot pool per worker.
pub fn circuit_level_experiment_threaded(
    d: usize,
    noise: &NoiseModel,
    rounds: usize,
    trials: u64,
    seed: u64,
    threads: usize,
) -> Result<MemoryResult, SimError> {
    let code = SurfaceCode::new(d);
    let mem = code.memory_circuit(rounds);
    let counts = ExecutorConfig::new()
        .noise(noise.clone())
        .backend(BackendChoice::Tableau)
        .threads(threads.max(1))
        .build()
        .try_run(&mem.circuit, trials, seed)?;
    Ok(MemoryResult {
        distance: d,
        p_physical: noise.two_qubit_depol,
        p_logical: logical_failures(&code, &mem, &counts) as f64 / counts.shots().max(1) as f64,
        trials: trials as usize,
        decoder: "greedy-matching(circuit-level)",
    })
}

/// How many shots of `counts` — outcomes of `mem.circuit` — end in a
/// logical X flip after space-time greedy-matching decoding of their
/// detection events (the numerator of the circuit-level `p_logical`).
pub fn logical_failures(code: &SurfaceCode, mem: &MemoryCircuit, counts: &Counts) -> u64 {
    let decoder = GreedyMatchingDecoder::new(DecodingGraph::spacetime_x(code, mem.rounds + 1));
    counts
        .iter()
        .filter(|(word, _)| {
            let correction = decoder.decode(&mem.detection_events(code, word));
            let mut residual = mem.data_readout(word);
            correction.apply(&mut residual);
            code.is_logical_x_flip(&residual)
        })
        .map(|(_, count)| count)
        .sum()
}

/// Applies a decoder end-to-end to one explicit error pattern (exposed for
/// the Figure 2 bench, which wants the per-piece artifacts).
pub fn decode_once(code: &SurfaceCode, kind: DecoderKind, errors: &[bool]) -> Correction {
    let graph = DecodingGraph::code_capacity_x(code);
    let decoder = kind.build(code, graph.clone());
    let flagged = graph.syndrome_of(errors);
    decoder.decode(&flagged)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference oracle: a dense error vector, a full syndrome scan and a
    /// fresh decode every trial, from the same RNG stream.
    fn reference_code_capacity(
        d: usize,
        p: f64,
        kind: DecoderKind,
        trials: usize,
        seed: u64,
    ) -> MemoryResult {
        let code = SurfaceCode::new(d);
        let graph = DecodingGraph::code_capacity_x(&code);
        let decoder = kind.build(&code, graph.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut failures = 0usize;
        for _ in 0..trials {
            let mut errors = vec![false; code.num_data()];
            for e in errors.iter_mut() {
                if rng.gen_bool(p) {
                    *e = true;
                }
            }
            let flagged = graph.syndrome_of(&errors);
            let correction = decoder.decode(&flagged);
            correction.apply(&mut errors);
            assert!(code.z_syndrome(&errors).iter().all(|&b| !b));
            if code.is_logical_x_flip(&errors) {
                failures += 1;
            }
        }
        MemoryResult {
            distance: d,
            p_physical: p,
            p_logical: failures as f64 / trials as f64,
            trials,
            decoder: kind.name(),
        }
    }

    #[test]
    fn memoized_loop_is_bit_identical_to_the_per_trial_reference() {
        for d in [3, 5, 7, 9] {
            for kind in DecoderKind::ALL {
                if kind == DecoderKind::Lookup && d != 3 {
                    continue;
                }
                for p in [0.0, 1e-3, 0.02, 0.1, 0.35] {
                    for seed in 0..4 {
                        let fast = code_capacity_experiment(d, p, kind, 800, seed);
                        let slow = reference_code_capacity(d, p, kind, 800, seed);
                        assert_eq!(
                            fast.p_logical.to_bits(),
                            slow.p_logical.to_bits(),
                            "d={d} {} p={p} seed={seed}",
                            kind.name()
                        );
                        assert_eq!(fast, slow);
                    }
                }
            }
        }
    }

    /// Serializes the tests that capture the process-wide trace sink.
    static TRACE_SINK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn code_capacity_span_reports_decodes_and_failures() {
        let _sink = TRACE_SINK.lock().unwrap();
        // A trial count no other test uses picks this call's span out of
        // the process-wide capture.
        let buffer = trace::install_capture();
        let r = code_capacity_experiment(5, 0.02, DecoderKind::UnionFind, 3001, 1);
        trace::disable();
        let lines = buffer.lock().unwrap().clone();
        let span = lines
            .iter()
            .find(|l| l.contains("\"name\":\"code_capacity\"") && l.contains("\"trials\":3001"))
            .expect("no code_capacity span");
        let failures = (r.p_logical * 3001.0).round() as i128;
        assert!(span.contains("\"layer\":\"qec\""), "{span}");
        assert!(span.contains("\"distance\":5"), "{span}");
        assert!(span.contains(&format!("\"failures\":{failures}")), "{span}");
        let decodes: i128 = span
            .split("\"decodes\":")
            .nth(1)
            .and_then(|rest| rest.split([',', '}']).next())
            .and_then(|n| n.parse().ok())
            .expect("decodes field");
        // Distinct non-empty syndromes: at least one at this rate, and far
        // fewer than the ~1200 trials that see an error.
        assert!(decodes > 0 && decodes < 600, "{span}");
    }

    /// Every `(d, kind)` pair [`FailureTable::get`] supports, with its
    /// table.
    fn supported_tables() -> Vec<(usize, DecoderKind, &'static FailureTable)> {
        let mut tables = Vec::new();
        for d in [3, 5] {
            for kind in DecoderKind::ALL {
                if let Some(table) = FailureTable::get(d, kind) {
                    tables.push((d, kind, table));
                }
            }
        }
        tables
    }

    #[test]
    fn failure_tables_cover_exactly_the_supported_pairs() {
        let pairs: Vec<_> = supported_tables()
            .iter()
            .map(|&(d, kind, _)| (d, kind))
            .collect();
        assert_eq!(
            pairs,
            [
                (3, DecoderKind::Lookup),
                (3, DecoderKind::Greedy),
                (3, DecoderKind::UnionFind),
                (5, DecoderKind::Greedy),
                (5, DecoderKind::UnionFind),
            ]
        );
        assert!(FailureTable::get(7, DecoderKind::UnionFind).is_none());
        assert!(FailureTable::get(4, DecoderKind::Greedy).is_none());
    }

    #[test]
    fn d3_tables_match_decoding_every_pattern_from_scratch() {
        let code = SurfaceCode::new(3);
        let graph = DecodingGraph::code_capacity_x(&code);
        for kind in DecoderKind::ALL {
            let decoder = kind.build(&code, graph.clone());
            let mut counts = vec![0u64; 10];
            for pattern in 0u32..1 << 9 {
                let mut errors: Vec<bool> = (0..9).map(|q| pattern >> q & 1 == 1).collect();
                decoder
                    .decode(&graph.syndrome_of(&errors))
                    .apply(&mut errors);
                assert!(code.z_syndrome(&errors).iter().all(|&b| !b));
                if code.is_logical_x_flip(&errors) {
                    counts[pattern.count_ones() as usize] += 1;
                }
            }
            let table = FailureTable::get(3, kind).unwrap();
            assert_eq!(table.counts(), counts, "{}", kind.name());
        }
    }

    #[test]
    fn exactly_half_of_all_patterns_fail() {
        // `e` and `e ⊕ X_L` share a syndrome, hence a correction, and
        // differ in logical parity: exactly one of each pair fails.
        for (d, kind, table) in supported_tables() {
            let n = table.counts().len() - 1;
            assert_eq!(n, d * d);
            assert_eq!(
                table.counts().iter().sum::<u64>(),
                1 << (n - 1),
                "d={d} {}",
                kind.name()
            );
            // At p = 1/2 every pattern is equally likely.
            assert_eq!(table.logical_error_rate(0.5), 0.5);
            assert_eq!(table.logical_error_rate(1.0), table.counts()[n] as f64);
        }
    }

    #[test]
    fn correctable_weights_never_fail_and_counts_fit_their_weight_class() {
        for (d, kind, table) in supported_tables() {
            let n = table.counts().len() - 1;
            let mut binomial = 1u64; // C(n, w), updated per weight
            for (w, &f) in table.counts().iter().enumerate() {
                if w > 0 {
                    binomial = binomial * (n - w + 1) as u64 / w as u64;
                }
                let name = kind.name();
                assert!(f <= binomial, "d={d} {name} F_{w}={f}");
                if w < d.div_ceil(2) {
                    assert_eq!(f, 0, "d={d} {name} fails weight {w}");
                }
            }
        }
    }

    #[test]
    fn d5_union_find_low_weight_counts_are_pinned() {
        let table = FailureTable::get(5, DecoderKind::UnionFind).unwrap();
        assert_eq!(table.counts()[..6], [0, 0, 0, 414, 4985, 26320]);
        assert_eq!(table.logical_error_rate(0.0), 0.0);
    }

    #[test]
    fn exact_rate_lies_within_five_sigma_of_a_200k_trial_monte_carlo() {
        const TRIALS: usize = 200_000;
        for (d, kind) in [(3, DecoderKind::Lookup), (5, DecoderKind::UnionFind)] {
            let table = FailureTable::get(d, kind).unwrap();
            for (seed, p) in [0.01, 0.02, 0.05].into_iter().enumerate() {
                let exact = table.logical_error_rate(p);
                let sampled = code_capacity_experiment(d, p, kind, TRIALS, seed as u64).p_logical;
                let sigma = (exact * (1.0 - exact) / TRIALS as f64).sqrt();
                assert!(
                    (sampled - exact).abs() <= 5.0 * sigma,
                    "d={d} {} p={p}: exact {exact}, sampled {sampled}, sigma {sigma}",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn failure_table_span_reports_its_size() {
        let _sink = TRACE_SINK.lock().unwrap();
        // The shared tables may already be built by other tests, so build a
        // private one under the capture.
        let buffer = trace::install_capture();
        let table = FailureTable::build(3, DecoderKind::Greedy);
        trace::disable();
        assert_eq!(Some(&table), FailureTable::get(3, DecoderKind::Greedy));
        let lines = buffer.lock().unwrap().clone();
        let span = lines
            .iter()
            .find(|l| l.contains("\"name\":\"failure_table\"") && l.contains("\"greedy-matching\""))
            .expect("no failure_table span");
        assert!(span.contains("\"layer\":\"qec\""), "{span}");
        assert!(span.contains("\"distance\":3"), "{span}");
        assert!(span.contains("\"syndromes\":16"), "{span}");
        assert!(span.contains("\"patterns\":512"), "{span}");
    }

    #[test]
    fn below_threshold_logical_beats_physical() {
        let r = code_capacity_experiment(3, 0.03, DecoderKind::Lookup, 4000, 42);
        assert!(
            r.p_logical < r.p_physical,
            "p_L = {} should beat p = {}",
            r.p_logical,
            r.p_physical
        );
        assert!(r.lifetime_extension() > 1.0);
    }

    #[test]
    fn larger_distance_helps_below_threshold() {
        let d3 = code_capacity_experiment(3, 0.02, DecoderKind::UnionFind, 6000, 1);
        let d5 = code_capacity_experiment(5, 0.02, DecoderKind::UnionFind, 6000, 2);
        assert!(
            d5.p_logical <= d3.p_logical,
            "d5 ({}) should not exceed d3 ({})",
            d5.p_logical,
            d3.p_logical
        );
    }

    #[test]
    fn above_threshold_qec_hurts() {
        // Far above threshold the code amplifies errors.
        let r = code_capacity_experiment(3, 0.4, DecoderKind::Lookup, 3000, 3);
        assert!(r.p_logical > r.p_physical * 0.5, "p_L = {}", r.p_logical);
    }

    #[test]
    fn decoders_agree_on_low_rates() {
        let lookup = code_capacity_experiment(3, 0.01, DecoderKind::Lookup, 5000, 7);
        let greedy = code_capacity_experiment(3, 0.01, DecoderKind::Greedy, 5000, 7);
        let uf = code_capacity_experiment(3, 0.01, DecoderKind::UnionFind, 5000, 7);
        for r in [&greedy, &uf] {
            assert!(
                (r.p_logical - lookup.p_logical).abs() < 0.01,
                "{}: {} vs lookup {}",
                r.decoder,
                r.p_logical,
                lookup.p_logical
            );
        }
    }

    #[test]
    fn phenomenological_below_physical_at_low_noise() {
        let r = phenomenological_experiment(3, 0.004, 0.004, 3, 2000, 9);
        // Accumulated physical rate over the experiment is roughly
        // p * rounds; the decoder must do better than that.
        let accumulated = 0.004 * 3.0;
        assert!(
            r.p_logical < accumulated,
            "p_L = {} vs accumulated physical {}",
            r.p_logical,
            accumulated
        );
    }

    #[test]
    fn zero_noise_never_fails() {
        let r = code_capacity_experiment(3, 0.0, DecoderKind::Greedy, 500, 5);
        assert_eq!(r.p_logical, 0.0);
        let r2 = phenomenological_experiment(3, 0.0, 0.0, 4, 200, 6);
        assert_eq!(r2.p_logical, 0.0);
    }

    #[test]
    fn circuit_level_zero_noise_never_fails() {
        // Noiseless: every shot's detection events are empty and the data
        // readout carries no logical flip, whatever the stabilizer
        // randomness of the X-type projections.
        let r = circuit_level_experiment(3, &NoiseModel::ideal(), 2, 300, 7).unwrap();
        assert_eq!(r.p_logical, 0.0);
        assert_eq!(r.trials, 300);
    }

    #[test]
    fn circuit_level_low_noise_is_mostly_correctable() {
        let noise = NoiseModel::uniform_depolarizing(0.001);
        let r = circuit_level_experiment(3, &noise, 2, 2000, 8).unwrap();
        assert!(
            r.p_logical < 0.05,
            "p_L = {} at p = 0.001 should be small",
            r.p_logical
        );
    }

    #[test]
    fn circuit_level_distance7_crosses_the_word_boundary() {
        // 97 qubits and 97 classical bits at two rounds: the register
        // spans two outcome words, so this end-to-end run (tableau
        // execution, multi-threaded chunk merge, space-time decoding of
        // spilled syndrome bits) is the proof the multi-word register
        // layer works. It was refused outright at the 64-clbit cap.
        let code = SurfaceCode::new(7);
        let mem = code.memory_circuit(2);
        assert!(mem.circuit.num_clbits() > 64);
        let noise = NoiseModel::uniform_depolarizing(0.001);
        let r = circuit_level_experiment(7, &noise, 2, 300, 11).unwrap();
        assert_eq!(r.distance, 7);
        assert_eq!(r.trials, 300);
        assert!(r.p_logical < 0.1, "p_L = {}", r.p_logical);
        // Noiseless distance-7 never fails, whatever the word width.
        let clean = circuit_level_experiment(7, &NoiseModel::ideal(), 2, 100, 12).unwrap();
        assert_eq!(clean.p_logical, 0.0);
    }

    #[test]
    fn circuit_level_distance5_runs_on_the_tableau() {
        // 49 qubits: impossible on the dense backend (2^49 amplitudes), so
        // this test exercising Executor end-to-end is itself the proof that
        // the tableau dispatch works.
        let noise = NoiseModel::uniform_depolarizing(0.001);
        let r = circuit_level_experiment(5, &noise, 2, 400, 9).unwrap();
        assert_eq!(r.distance, 5);
        assert_eq!(r.trials, 400);
        assert!(r.p_logical < 0.1, "p_L = {}", r.p_logical);
    }
}
