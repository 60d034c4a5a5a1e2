//! Aaronson–Gottesman CHP stabilizer tableau simulator.
//!
//! Simulates Clifford circuits (H, S, CX and Paulis) plus computational
//! basis measurement in `O(n^2)` per operation, which is what makes
//! distance-5/7 surface-code syndrome extraction tractable where the dense
//! simulator is not. Rows are packed 64 qubits per word, and
//! measurement updates rows in place, so a run allocates only its
//! tableau.
//!
//! The executor runs each tableau job through this simulator once, as the
//! noiseless reference sample of [`crate::frame`]'s Pauli-frame sampler;
//! one full trajectory per shot is left only for circuits with a
//! non-Pauli classically conditioned gate.
//!
//! Reference: S. Aaronson and D. Gottesman, "Improved simulation of
//! stabilizer circuits", Phys. Rev. A 70, 052328 (2004).

use crate::backend::SimError;
use crate::word::OutcomeWord;
use qcir::circuit::{Circuit, Op};
use qcir::gate::Gate;
use rand::Rng;

/// Stabilizer state of `n` qubits, represented as a tableau of `2n`
/// generators (destabilizers then stabilizers) plus one scratch row.
#[derive(Debug, Clone, PartialEq)]
pub struct StabilizerSim {
    n: usize,
    words: usize,
    /// X bit-matrix: rows `0..2n+1`, columns packed into `words` u64s.
    xs: Vec<Vec<u64>>,
    /// Z bit-matrix.
    zs: Vec<Vec<u64>>,
    /// Phase bits (0 => +1, 1 => -1).
    rs: Vec<u8>,
}

impl StabilizerSim {
    /// The |0...0> state on `n` qubits.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        let rows = 2 * n + 1;
        let mut sim = StabilizerSim {
            n,
            words,
            xs: vec![vec![0u64; words]; rows],
            zs: vec![vec![0u64; words]; rows],
            rs: vec![0u8; rows],
        };
        for i in 0..n {
            sim.set_x(i, i, true); // destabilizer i = X_i
            sim.set_z(n + i, i, true); // stabilizer i = Z_i
        }
        sim
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Resets the tableau to |0…0> in place, reusing the allocation (the
    /// trajectory executor calls this once per shot).
    pub fn reinit(&mut self) {
        for row in 0..2 * self.n + 1 {
            self.xs[row].iter_mut().for_each(|w| *w = 0);
            self.zs[row].iter_mut().for_each(|w| *w = 0);
            self.rs[row] = 0;
        }
        for i in 0..self.n {
            self.set_x(i, i, true);
            self.set_z(self.n + i, i, true);
        }
    }

    #[inline]
    fn x(&self, row: usize, col: usize) -> bool {
        (self.xs[row][col / 64] >> (col % 64)) & 1 == 1
    }

    #[inline]
    fn z(&self, row: usize, col: usize) -> bool {
        (self.zs[row][col / 64] >> (col % 64)) & 1 == 1
    }

    #[inline]
    fn set_x(&mut self, row: usize, col: usize, v: bool) {
        let w = col / 64;
        let b = col % 64;
        if v {
            self.xs[row][w] |= 1 << b;
        } else {
            self.xs[row][w] &= !(1 << b);
        }
    }

    #[inline]
    fn set_z(&mut self, row: usize, col: usize, v: bool) {
        let w = col / 64;
        let b = col % 64;
        if v {
            self.zs[row][w] |= 1 << b;
        } else {
            self.zs[row][w] &= !(1 << b);
        }
    }

    /// Hadamard on `q`.
    pub fn h(&mut self, q: usize) {
        for row in 0..2 * self.n {
            let x = self.x(row, q);
            let z = self.z(row, q);
            if x && z {
                self.rs[row] ^= 1;
            }
            self.set_x(row, q, z);
            self.set_z(row, q, x);
        }
    }

    /// Phase gate S on `q`.
    pub fn s(&mut self, q: usize) {
        for row in 0..2 * self.n {
            let x = self.x(row, q);
            let z = self.z(row, q);
            if x && z {
                self.rs[row] ^= 1;
            }
            self.set_z(row, q, z ^ x);
        }
    }

    /// S-dagger on `q` (three applications of S).
    pub fn sdg(&mut self, q: usize) {
        self.s(q);
        self.s(q);
        self.s(q);
    }

    /// CNOT with control `a`, target `b`.
    ///
    /// # Panics
    ///
    /// Panics when `a == b`.
    pub fn cx(&mut self, a: usize, b: usize) {
        assert_ne!(a, b, "cx control and target must differ");
        for row in 0..2 * self.n {
            let xa = self.x(row, a);
            let xb = self.x(row, b);
            let za = self.z(row, a);
            let zb = self.z(row, b);
            if xa && zb && (xb == za) {
                self.rs[row] ^= 1;
            }
            self.set_x(row, b, xb ^ xa);
            self.set_z(row, a, za ^ zb);
        }
    }

    /// Controlled-Z via `H(b); CX(a,b); H(b)`.
    pub fn cz(&mut self, a: usize, b: usize) {
        self.h(b);
        self.cx(a, b);
        self.h(b);
    }

    /// Swap via three CNOTs.
    pub fn swap(&mut self, a: usize, b: usize) {
        self.cx(a, b);
        self.cx(b, a);
        self.cx(a, b);
    }

    /// Pauli-X on `q`.
    pub fn x_gate(&mut self, q: usize) {
        for row in 0..2 * self.n {
            if self.z(row, q) {
                self.rs[row] ^= 1;
            }
        }
    }

    /// Pauli-Z on `q`.
    pub fn z_gate(&mut self, q: usize) {
        for row in 0..2 * self.n {
            if self.x(row, q) {
                self.rs[row] ^= 1;
            }
        }
    }

    /// Pauli-Y on `q`.
    pub fn y_gate(&mut self, q: usize) {
        for row in 0..2 * self.n {
            if self.x(row, q) ^ self.z(row, q) {
                self.rs[row] ^= 1;
            }
        }
    }

    /// Row `h` *= row `i` (Pauli product with phase tracking).
    ///
    /// The phase is the Aaronson–Gottesman sum of per-qubit contributions
    /// `g ∈ {-1, 0, +1}` of multiplying row `i`'s Pauli into row `h`'s,
    /// evaluated 64 qubits per word: `plus` and `minus` mark the qubits
    /// contributing +1 and −1 (Y·Z, X·Y, Z·X and the reverse orders).
    fn rowsum(&mut self, h: usize, i: usize) {
        let mut sum = 2 * (self.rs[h] as i64) + 2 * (self.rs[i] as i64);
        for w in 0..self.words {
            let (x1, z1) = (self.xs[i][w], self.zs[i][w]);
            let (x2, z2) = (self.xs[h][w], self.zs[h][w]);
            let plus = (x1 & z1 & z2 & !x2) | (x1 & !z1 & z2 & x2) | (!x1 & z1 & x2 & !z2);
            let minus = (x1 & z1 & x2 & !z2) | (x1 & !z1 & z2 & !x2) | (!x1 & z1 & x2 & z2);
            sum += plus.count_ones() as i64 - minus.count_ones() as i64;
            self.xs[h][w] ^= x1;
            self.zs[h][w] ^= z1;
        }
        let phase = sum.rem_euclid(4);
        debug_assert!(phase == 0 || phase == 2, "rowsum produced odd phase");
        self.rs[h] = (phase == 2) as u8;
    }

    /// Returns `Some(v)` when a Z-measurement of `q` is deterministic.
    pub fn measure_determined(&mut self, q: usize) -> Option<bool> {
        let n = self.n;
        if (n..2 * n).any(|row| self.x(row, q)) {
            return None;
        }
        // Deterministic: accumulate into the scratch row.
        let scratch = 2 * n;
        self.xs[scratch].iter_mut().for_each(|w| *w = 0);
        self.zs[scratch].iter_mut().for_each(|w| *w = 0);
        self.rs[scratch] = 0;
        for i in 0..n {
            if self.x(i, q) {
                self.rowsum(scratch, i + n);
            }
        }
        Some(self.rs[scratch] == 1)
    }

    /// Measures qubit `q` in the Z basis, collapsing the state.
    pub fn measure(&mut self, q: usize, rng: &mut impl Rng) -> bool {
        if let Some(v) = self.measure_determined(q) {
            return v;
        }
        let n = self.n;
        // Random outcome: find the first stabilizer anticommuting with Z_q.
        let p = (n..2 * n)
            .find(|&row| self.x(row, q))
            .expect("non-deterministic measurement must have such a row");
        // Aaronson–Gottesman step: rowsum every anticommuting row EXCEPT
        // `p` and `p - n`. Including `p - n` is tempting (it is overwritten
        // two lines below anyway) but wrong: its product with row `p` can
        // carry an imaginary phase, which violates the rowsum invariant.
        for row in 0..2 * n {
            if row != p && row != p - n && self.x(row, q) {
                self.rowsum(row, p);
            }
        }
        // Destabilizer p-n <- old stabilizer p, copied in place.
        let (lo, hi) = self.xs.split_at_mut(p);
        lo[p - n].copy_from_slice(&hi[0]);
        let (lo, hi) = self.zs.split_at_mut(p);
        lo[p - n].copy_from_slice(&hi[0]);
        self.rs[p - n] = self.rs[p];
        // New stabilizer p = +/- Z_q with random sign.
        let outcome = rng.gen_bool(0.5);
        self.xs[p].iter_mut().for_each(|w| *w = 0);
        self.zs[p].iter_mut().for_each(|w| *w = 0);
        self.set_z(p, q, true);
        self.rs[p] = outcome as u8;
        outcome
    }

    /// Resets `q` to |0> (measure, then X if the result was 1).
    pub fn reset(&mut self, q: usize, rng: &mut impl Rng) {
        if self.measure(q, rng) {
            self.x_gate(q);
        }
    }

    /// Applies a Clifford gate from the shared gate set.
    ///
    /// # Panics
    ///
    /// Panics on non-Clifford gates.
    pub fn apply_gate(&mut self, gate: Gate, qubits: &[usize]) {
        match gate {
            Gate::Id => {}
            Gate::H => self.h(qubits[0]),
            Gate::S => self.s(qubits[0]),
            Gate::Sdg => self.sdg(qubits[0]),
            Gate::X => self.x_gate(qubits[0]),
            Gate::Y => self.y_gate(qubits[0]),
            Gate::Z => self.z_gate(qubits[0]),
            // SX = H S H up to global phase (phase is unobservable here).
            Gate::SX => {
                self.h(qubits[0]);
                self.s(qubits[0]);
                self.h(qubits[0]);
            }
            Gate::CX => self.cx(qubits[0], qubits[1]),
            Gate::CZ => self.cz(qubits[0], qubits[1]),
            // CY = Sdg(t); CX; S(t).
            Gate::CY => {
                self.sdg(qubits[1]);
                self.cx(qubits[0], qubits[1]);
                self.s(qubits[1]);
            }
            Gate::SWAP => self.swap(qubits[0], qubits[1]),
            other => panic!("gate {other} is not Clifford"),
        }
    }

    /// Runs a full Clifford circuit, returning the classical outcome word.
    ///
    /// Outcomes are packed [`OutcomeWord`]s (classical bit `i` in bit `i`),
    /// matching [`crate::dist::Counts`]; the register width is unbounded —
    /// measurement bits past 64 spill into multi-word outcomes, which is
    /// what lets distance-7 surface-code memory circuits (97+ classical
    /// bits) run at all. (Before the multi-word register layer this method
    /// refused >64-clbit circuits outright.)
    ///
    /// # Errors
    ///
    /// [`SimError::NonCliffordGate`] on the first non-Clifford gate.
    pub fn try_run_circuit(circuit: &Circuit, rng: &mut impl Rng) -> Result<OutcomeWord, SimError> {
        if let Some(gate) = crate::backend::first_non_clifford(circuit) {
            return Err(SimError::NonCliffordGate { gate });
        }
        let mut sim = StabilizerSim::new(circuit.num_qubits());
        let mut clbits = OutcomeWord::zero();
        sim.run_circuit_into(circuit, rng, &mut clbits);
        Ok(clbits)
    }

    /// One trajectory of a pre-validated Clifford circuit, writing
    /// measurement results into `clbits`. Both the tableau and the outcome
    /// word are reset first, so calling this in a shot loop is safe without
    /// further ceremony (the allocations are reused either way).
    ///
    /// # Panics
    ///
    /// Panics on non-Clifford gates; validate with
    /// [`crate::backend::first_non_clifford`] first.
    pub fn run_circuit_into(
        &mut self,
        circuit: &Circuit,
        rng: &mut impl Rng,
        clbits: &mut OutcomeWord,
    ) {
        self.reinit();
        clbits.clear();
        for op in circuit.ops() {
            match op {
                Op::Gate { gate, qubits } => self.apply_gate(*gate, qubits),
                Op::CondGate {
                    gate,
                    qubits,
                    clbit,
                    value,
                } => {
                    if clbits.bit(*clbit) == *value {
                        self.apply_gate(*gate, qubits);
                    }
                }
                Op::Measure { qubit, clbit } => {
                    let outcome = self.measure(*qubit, rng);
                    clbits.set_bit(*clbit, outcome);
                }
                Op::Reset { qubit } => self.reset(*qubit, rng),
                Op::Barrier { .. } => {}
            }
        }
    }

    /// Panicking wrapper around [`StabilizerSim::try_run_circuit`].
    ///
    /// # Panics
    ///
    /// Panics when the circuit contains non-Clifford gates.
    pub fn run_circuit(circuit: &Circuit, rng: &mut impl Rng) -> OutcomeWord {
        match Self::try_run_circuit(circuit, rng) {
            Ok(word) => word,
            Err(e) => panic!("stabilizer simulation failed: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fresh_state_measures_zero() {
        let mut sim = StabilizerSim::new(4);
        let mut rng = StdRng::seed_from_u64(0);
        for q in 0..4 {
            assert_eq!(sim.measure_determined(q), Some(false));
            assert!(!sim.measure(q, &mut rng));
        }
    }

    #[test]
    fn x_flips_measurement() {
        let mut sim = StabilizerSim::new(2);
        let mut rng = StdRng::seed_from_u64(1);
        sim.x_gate(1);
        assert!(!sim.measure(0, &mut rng));
        assert!(sim.measure(1, &mut rng));
    }

    #[test]
    fn h_gives_random_outcomes_then_collapses() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut ones = 0;
        for _ in 0..200 {
            let mut sim = StabilizerSim::new(1);
            sim.h(0);
            assert_eq!(sim.measure_determined(0), None);
            let first = sim.measure(0, &mut rng);
            // Second measurement must repeat the first.
            assert_eq!(sim.measure_determined(0), Some(first));
            ones += first as usize;
        }
        assert!((50..150).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn bell_pair_correlates() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let mut sim = StabilizerSim::new(2);
            sim.h(0);
            sim.cx(0, 1);
            let a = sim.measure(0, &mut rng);
            let b = sim.measure(1, &mut rng);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn ghz_three_way_correlation() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..50 {
            let mut sim = StabilizerSim::new(3);
            sim.h(0);
            sim.cx(0, 1);
            sim.cx(1, 2);
            let a = sim.measure(0, &mut rng);
            assert_eq!(sim.measure(1, &mut rng), a);
            assert_eq!(sim.measure(2, &mut rng), a);
        }
    }

    #[test]
    fn z_error_detected_by_x_basis() {
        // |+> with a Z error measures |-> in the X basis: H then measure = 1.
        let mut rng = StdRng::seed_from_u64(5);
        let mut sim = StabilizerSim::new(1);
        sim.h(0); // |+>
        sim.z_gate(0); // |->
        sim.h(0); // |1>
        assert!(sim.measure(0, &mut rng));
    }

    #[test]
    fn s_gate_squared_is_z() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut sim = StabilizerSim::new(1);
        sim.h(0);
        sim.s(0);
        sim.s(0); // = Z|+> = |->
        sim.h(0);
        assert!(sim.measure(0, &mut rng));
    }

    #[test]
    fn sdg_inverts_s() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut sim = StabilizerSim::new(1);
        sim.h(0);
        sim.s(0);
        sim.sdg(0);
        sim.h(0);
        assert!(!sim.measure(0, &mut rng));
    }

    #[test]
    fn cz_phase_kickback() {
        // CZ between |+>|1> gives |->|1>.
        let mut rng = StdRng::seed_from_u64(8);
        let mut sim = StabilizerSim::new(2);
        sim.h(0);
        sim.x_gate(1);
        sim.cz(0, 1);
        sim.h(0);
        assert!(sim.measure(0, &mut rng));
    }

    #[test]
    fn swap_moves_excitation() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut sim = StabilizerSim::new(2);
        sim.x_gate(0);
        sim.swap(0, 1);
        assert!(!sim.measure(0, &mut rng));
        assert!(sim.measure(1, &mut rng));
    }

    #[test]
    fn reset_clears_qubit() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut sim = StabilizerSim::new(1);
        sim.h(0);
        sim.reset(0, &mut rng);
        assert_eq!(sim.measure_determined(0), Some(false));
    }

    #[test]
    fn agrees_with_state_vector_on_random_clifford_circuits() {
        use crate::state::StateVector;
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..25 {
            // Build a random 4-qubit Clifford circuit (unitary portion).
            let mut qc = Circuit::new(4, 4);
            for _ in 0..20 {
                match rng.gen_range(0..5) {
                    0 => {
                        qc.h(rng.gen_range(0..4));
                    }
                    1 => {
                        qc.s(rng.gen_range(0..4));
                    }
                    2 => {
                        let a = rng.gen_range(0..4);
                        let b = (a + rng.gen_range(1..4)) % 4;
                        qc.cx(a, b);
                    }
                    3 => {
                        qc.x(rng.gen_range(0..4));
                    }
                    _ => {
                        qc.z(rng.gen_range(0..4));
                    }
                }
            }
            // Compare marginal probabilities of each qubit being 1.
            let mut sv = StateVector::zero(4);
            for op in qc.ops() {
                if let Op::Gate { gate, qubits } = op {
                    sv.apply_gate(*gate, qubits);
                }
            }
            for q in 0..4 {
                let p1 = sv.prob_one(q);
                let mut sim = StabilizerSim::new(4);
                for op in qc.ops() {
                    if let Op::Gate { gate, qubits } = op {
                        sim.apply_gate(*gate, qubits);
                    }
                }
                match sim.measure_determined(q) {
                    Some(v) => {
                        let expected = if v { 1.0 } else { 0.0 };
                        assert!(
                            (p1 - expected).abs() < 1e-9,
                            "trial {trial} qubit {q}: sv={p1}, tableau={expected}"
                        );
                    }
                    None => {
                        assert!(
                            (p1 - 0.5).abs() < 1e-9,
                            "trial {trial} qubit {q}: sv={p1}, tableau=random"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn run_circuit_handles_conditionals() {
        let mut qc = Circuit::new(2, 2);
        qc.x(0).measure(0, 0);
        qc.cond_gate(Gate::X, &[1], 0, true);
        qc.measure(1, 1);
        let mut rng = StdRng::seed_from_u64(12);
        assert_eq!(StabilizerSim::run_circuit(&qc, &mut rng), 0b11);
    }

    #[test]
    #[should_panic(expected = "not Clifford")]
    fn rejects_t_gate() {
        let mut sim = StabilizerSim::new(1);
        sim.apply_gate(Gate::T, &[0]);
    }

    #[test]
    fn try_run_circuit_records_past_64_clbits() {
        // 65 clbits: bit 64 of a u64 word does not exist, so before the
        // multi-word register layer this circuit was refused outright. Now
        // the outcome spills into a second word.
        let mut qc = Circuit::new(2, 65);
        qc.x(0).measure(0, 64).measure(1, 0);
        let mut rng = StdRng::seed_from_u64(20);
        let word = StabilizerSim::try_run_circuit(&qc, &mut rng).unwrap();
        assert!(word.bit(64));
        assert!(!word.bit(0));
        assert_eq!(word, OutcomeWord::from_words(&[0, 1]));
        // Conditionals read the spilled bits too.
        let mut qc = Circuit::new(2, 70);
        qc.x(0).measure(0, 69);
        qc.cond_gate(Gate::X, &[1], 69, true);
        qc.measure(1, 0);
        let word = StabilizerSim::try_run_circuit(&qc, &mut rng).unwrap();
        assert!(word.bit(69));
        assert!(word.bit(0));
    }

    #[test]
    fn try_run_circuit_rejects_non_clifford() {
        let mut qc = Circuit::new(1, 1);
        qc.t(0).measure(0, 0);
        let mut rng = StdRng::seed_from_u64(21);
        assert_eq!(
            StabilizerSim::try_run_circuit(&qc, &mut rng),
            Err(SimError::NonCliffordGate { gate: Gate::T })
        );
    }

    #[test]
    fn forced_tableau_runs_match_bell_statistics() {
        use crate::backend::BackendChoice;
        use crate::exec::ExecutorConfig;
        let mut qc = Circuit::new(2, 2);
        qc.h(0).cx(0, 1).measure_all();
        let counts = ExecutorConfig::new()
            .backend(BackendChoice::Tableau)
            .build()
            .try_run(&qc, 2000, 22)
            .unwrap();
        assert_eq!(counts.shots(), 2000);
        assert_eq!(counts.count(0b01) + counts.count(0b10), 0);
        let p00 = counts.probability(0b00);
        assert!((p00 - 0.5).abs() < 0.05, "p00 = {p00}");
    }

    #[test]
    fn measurement_preserves_phase_invariant_with_y_and_sx() {
        // Regression: Y;SX leaves the destabilizer with a sign such that
        // rowsum-ing row p-n during measurement produced an imaginary
        // intermediate phase (debug assert). The AG update must skip p-n.
        let mut rng = StdRng::seed_from_u64(19);
        let mut sim = StabilizerSim::new(1);
        sim.y_gate(0);
        sim.apply_gate(Gate::SX, &[0]);
        // SX Y |0> measures deterministically after collapse; the first
        // measurement is random and must not panic.
        let first = sim.measure(0, &mut rng);
        assert_eq!(sim.measure_determined(0), Some(first));
    }

    #[test]
    fn reinit_restores_the_zero_state() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut sim = StabilizerSim::new(3);
        sim.h(0);
        sim.cx(0, 1);
        sim.x_gate(2);
        sim.measure(0, &mut rng);
        sim.reinit();
        assert_eq!(sim, StabilizerSim::new(3));
        for q in 0..3 {
            assert_eq!(sim.measure_determined(q), Some(false));
        }
    }

    #[test]
    fn large_tableau_smoke() {
        // 150 qubits crosses the one-word boundary (>64 columns).
        let mut rng = StdRng::seed_from_u64(13);
        let mut sim = StabilizerSim::new(150);
        sim.h(0);
        for q in 0..149 {
            sim.cx(q, q + 1);
        }
        let first = sim.measure(0, &mut rng);
        assert_eq!(sim.measure(149, &mut rng), first);
    }
}
