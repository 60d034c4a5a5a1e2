//! Measurement-outcome distributions.

use crate::word::OutcomeWord;
use rand::Rng;
use std::collections::BTreeMap;
use std::fmt;

/// Shot counts over classical-register outcomes.
///
/// Outcomes are [`OutcomeWord`]s — arbitrary-width packed registers with
/// classical bit `i` at bit `i` (bit `i % 64` of little-endian 64-bit word
/// `i / 64`). [`Counts::bitstring`] renders them most-significant-bit
/// first, matching Qiskit's display convention, so classical bit 0 is the
/// *rightmost* character whatever the register width.
///
/// # The ≤ 64-bit fast path
///
/// Registers of up to 64 classical bits stay on the [`OutcomeWord`] inline
/// representation: recording a shot through [`Counts::record`] or
/// [`Counts::record_word`] performs no heap allocation beyond the counts
/// table's own node for a *newly seen* outcome (pinned by the
/// counting-allocator test `crates/qsim/tests/alloc_counts.rs`). Wider
/// registers — distance-7 surface-code memory needs 97+ bits — spill into
/// multi-word outcomes transparently; every `Counts` operation, including
/// the executor's deterministic parallel chunk [`Counts::merge`], is
/// width-agnostic.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Counts {
    num_clbits: usize,
    shots: u64,
    table: BTreeMap<OutcomeWord, u64>,
}

impl Counts {
    /// Creates an empty counts table for `num_clbits` classical bits.
    pub fn new(num_clbits: usize) -> Self {
        Counts {
            num_clbits,
            shots: 0,
            table: BTreeMap::new(),
        }
    }

    /// Records one shot with the given outcome word.
    pub fn record(&mut self, outcome: impl Into<OutcomeWord>) {
        *self.table.entry(outcome.into()).or_insert(0) += 1;
        self.shots += 1;
    }

    /// Records one shot from a borrowed outcome word, cloning only when the
    /// outcome has not been seen before — the shot-loop hot path, letting
    /// callers reuse one scratch word across a whole trajectory chunk.
    pub fn record_word(&mut self, outcome: &OutcomeWord) {
        self.record_word_n(outcome, 1);
    }

    /// Records `n` shots of one borrowed outcome word (cloning it only
    /// when it has not been seen before); `n = 0` records nothing.
    pub fn record_word_n(&mut self, outcome: &OutcomeWord, n: u64) {
        if n == 0 {
            return;
        }
        match self.table.get_mut(outcome) {
            Some(count) => *count += n,
            None => {
                self.table.insert(outcome.clone(), n);
            }
        }
        self.shots += n;
    }

    /// Total shots recorded.
    pub fn shots(&self) -> u64 {
        self.shots
    }

    /// Number of classical bits per outcome.
    pub fn num_clbits(&self) -> usize {
        self.num_clbits
    }

    /// Number of distinct outcomes observed.
    pub fn distinct_outcomes(&self) -> usize {
        self.table.len()
    }

    /// Raw count for an outcome word.
    pub fn count(&self, outcome: impl Into<OutcomeWord>) -> u64 {
        self.count_word(&outcome.into())
    }

    /// Raw count for a borrowed outcome word.
    pub fn count_word(&self, outcome: &OutcomeWord) -> u64 {
        self.table.get(outcome).copied().unwrap_or(0)
    }

    /// Empirical probability of an outcome word.
    pub fn probability(&self, outcome: impl Into<OutcomeWord>) -> f64 {
        self.probability_word(&outcome.into())
    }

    /// Empirical probability of a borrowed outcome word.
    pub fn probability_word(&self, outcome: &OutcomeWord) -> f64 {
        if self.shots == 0 {
            0.0
        } else {
            self.count_word(outcome) as f64 / self.shots as f64
        }
    }

    /// Empirical probability of a bitstring like `"011"` (MSB-first).
    ///
    /// # Panics
    ///
    /// Panics when the string length differs from `num_clbits` or contains
    /// non-binary characters.
    pub fn probability_of_str(&self, bits: &str) -> f64 {
        self.probability_word(&parse_bitstring(bits, self.num_clbits))
    }

    /// The most frequent outcome, or `None` when empty.
    pub fn most_likely(&self) -> Option<&OutcomeWord> {
        self.table
            .iter()
            .max_by_key(|(_, &c)| c)
            .map(|(outcome, _)| outcome)
    }

    /// Renders an outcome word as an MSB-first bitstring of `num_clbits`
    /// characters.
    pub fn bitstring(&self, outcome: &OutcomeWord) -> String {
        outcome.bitstring(self.num_clbits)
    }

    /// Iterates over `(outcome, count)` pairs in outcome order.
    pub fn iter(&self) -> impl Iterator<Item = (&OutcomeWord, u64)> + '_ {
        self.table.iter().map(|(o, &c)| (o, c))
    }

    /// Merges another counts table into this one (outcome-wise addition).
    ///
    /// Merging is commutative and associative, which is what lets the
    /// parallel executor's workers accumulate seed-derived chunks in any
    /// order and still produce results bit-identical to a single-threaded
    /// run — for registers of any width.
    ///
    /// # Panics
    ///
    /// Panics when the classical-register widths differ.
    pub fn merge(&mut self, other: &Counts) {
        assert_eq!(
            self.num_clbits, other.num_clbits,
            "cannot merge counts over different classical registers"
        );
        for (outcome, count) in other.iter() {
            match self.table.get_mut(outcome) {
                Some(existing) => *existing += count,
                None => {
                    self.table.insert(outcome.clone(), count);
                }
            }
        }
        self.shots += other.shots;
    }

    /// Converts to a normalized probability map.
    pub fn to_distribution(&self) -> Distribution {
        let mut d = Distribution::new(self.num_clbits);
        if self.shots == 0 {
            return d;
        }
        for (outcome, &count) in &self.table {
            d.set(outcome.clone(), count as f64 / self.shots as f64);
        }
        d
    }
}

impl fmt::Display for Counts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} shots over {} bit(s):", self.shots, self.num_clbits)?;
        for (outcome, &count) in &self.table {
            writeln!(
                f,
                "  {} : {:>8}  ({:.4})",
                self.bitstring(outcome),
                count,
                count as f64 / self.shots.max(1) as f64
            )?;
        }
        Ok(())
    }
}

impl FromIterator<u64> for Counts {
    /// Collects one-word outcomes; `num_clbits` is set to the minimum width
    /// that holds the largest outcome.
    fn from_iter<T: IntoIterator<Item = u64>>(iter: T) -> Self {
        iter.into_iter().map(OutcomeWord::from).collect()
    }
}

impl FromIterator<OutcomeWord> for Counts {
    /// Collects outcome words; `num_clbits` is set to the minimum width
    /// that holds the largest outcome.
    fn from_iter<T: IntoIterator<Item = OutcomeWord>>(iter: T) -> Self {
        let mut table: BTreeMap<OutcomeWord, u64> = BTreeMap::new();
        let mut shots = 0;
        let mut width = 1usize;
        for outcome in iter {
            width = width.max(outcome.bit_len());
            *table.entry(outcome).or_insert(0) += 1;
            shots += 1;
        }
        Counts {
            num_clbits: width,
            shots,
            table,
        }
    }
}

/// A normalized probability distribution over outcome words.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Distribution {
    num_clbits: usize,
    probs: BTreeMap<OutcomeWord, f64>,
}

impl Distribution {
    /// An empty distribution over `num_clbits` bits.
    pub fn new(num_clbits: usize) -> Self {
        Distribution {
            num_clbits,
            probs: BTreeMap::new(),
        }
    }

    /// Builds a distribution from state-vector probabilities (index = word).
    pub fn from_probabilities(num_clbits: usize, probs: &[f64]) -> Self {
        let mut d = Distribution::new(num_clbits);
        for (i, &p) in probs.iter().enumerate() {
            if p > 0.0 {
                d.set(i as u64, p);
            }
        }
        d
    }

    /// Sets the probability of an outcome.
    pub fn set(&mut self, outcome: impl Into<OutcomeWord>, p: f64) {
        let outcome = outcome.into();
        if p > 0.0 {
            self.probs.insert(outcome, p);
        } else {
            self.probs.remove(&outcome);
        }
    }

    /// Probability of an outcome (0 when absent).
    pub fn get(&self, outcome: impl Into<OutcomeWord>) -> f64 {
        self.get_word(&outcome.into())
    }

    /// Probability of a borrowed outcome word (0 when absent).
    pub fn get_word(&self, outcome: &OutcomeWord) -> f64 {
        self.probs.get(outcome).copied().unwrap_or(0.0)
    }

    /// Number of classical bits.
    pub fn num_clbits(&self) -> usize {
        self.num_clbits
    }

    /// Iterates over `(outcome, probability)` pairs in outcome order.
    pub fn iter(&self) -> impl Iterator<Item = (&OutcomeWord, f64)> + '_ {
        self.probs.iter().map(|(o, &p)| (o, p))
    }

    /// Total probability mass (should be ~1 for complete distributions).
    pub fn total_mass(&self) -> f64 {
        self.probs.values().sum()
    }

    /// Folds `f` over the union of both distributions' outcomes with each
    /// side's probability (0 where absent), by merge-walking the two sorted
    /// tables — no key collection or cloning.
    fn fold_joint(&self, other: &Distribution, mut f: impl FnMut(f64, f64)) {
        let mut a = self.probs.iter().peekable();
        let mut b = other.probs.iter().peekable();
        loop {
            match (a.peek(), b.peek()) {
                (Some(&(ka, &pa)), Some(&(kb, &pb))) => match ka.cmp(kb) {
                    std::cmp::Ordering::Less => {
                        f(pa, 0.0);
                        a.next();
                    }
                    std::cmp::Ordering::Greater => {
                        f(0.0, pb);
                        b.next();
                    }
                    std::cmp::Ordering::Equal => {
                        f(pa, pb);
                        a.next();
                        b.next();
                    }
                },
                (Some(&(_, &pa)), None) => {
                    f(pa, 0.0);
                    a.next();
                }
                (None, Some(&(_, &pb))) => {
                    f(0.0, pb);
                    b.next();
                }
                (None, None) => break,
            }
        }
    }

    /// Total-variation distance to another distribution.
    pub fn tvd(&self, other: &Distribution) -> f64 {
        let mut sum = 0.0;
        self.fold_joint(other, |pa, pb| sum += (pa - pb).abs());
        0.5 * sum
    }

    /// Hellinger distance to another distribution.
    pub fn hellinger(&self, other: &Distribution) -> f64 {
        let mut bc = 0.0;
        self.fold_joint(other, |pa, pb| bc += (pa * pb).sqrt());
        (1.0 - bc.min(1.0)).sqrt()
    }
}

/// A frozen [`Distribution`] prepared for repeated sampling: outcomes in
/// table order with their cumulative probabilities, so each draw is one
/// uniform variate and a binary search. Drawing borrows the stored word,
/// so recording a shot into [`Counts::record_word`] stays allocation-free
/// for ≤ 64-bit registers.
#[derive(Debug, Clone)]
pub struct WordSampler {
    words: Vec<OutcomeWord>,
    cumulative: Vec<f64>,
}

impl WordSampler {
    /// Builds the cumulative table of `dist`.
    ///
    /// # Panics
    ///
    /// Panics when `dist` is empty.
    pub fn new(dist: &Distribution) -> Self {
        assert!(
            !dist.probs.is_empty(),
            "cannot sample an empty distribution"
        );
        let mut acc = 0.0;
        let (words, cumulative) = dist
            .iter()
            .map(|(word, p)| {
                acc += p;
                (word.clone(), acc)
            })
            .unzip();
        WordSampler { words, cumulative }
    }

    /// Draws one outcome. The variate is scaled by the table's total mass,
    /// so distributions that sum to slightly less than 1 sample without
    /// bias toward the last outcome.
    pub fn draw(&self, rng: &mut impl Rng) -> &OutcomeWord {
        &self.words[self.draw_index(rng)]
    }

    /// The table index of one draw (the same variate [`WordSampler::draw`]
    /// consumes).
    fn draw_index(&self, rng: &mut impl Rng) -> usize {
        let total = self.cumulative[self.cumulative.len() - 1];
        let r = rng.gen::<f64>() * total;
        let i = self.cumulative.partition_point(|&c| c <= r);
        i.min(self.words.len() - 1)
    }

    /// Draws `shots` outcomes into `counts` — the same draws, in the same
    /// order, as `shots` calls of [`WordSampler::draw`] — tallied per table
    /// entry first, so the counts table takes one update per distinct
    /// outcome instead of one per shot. `tally` is caller-owned scratch,
    /// reused across calls.
    pub fn sample_into(
        &self,
        shots: u64,
        rng: &mut impl Rng,
        tally: &mut Vec<u64>,
        counts: &mut Counts,
    ) {
        tally.clear();
        tally.resize(self.words.len(), 0);
        for _ in 0..shots {
            tally[self.draw_index(rng)] += 1;
        }
        for (word, &n) in self.words.iter().zip(tally.iter()) {
            counts.record_word_n(word, n);
        }
    }
}

/// Parses an MSB-first bitstring into an outcome word.
///
/// # Panics
///
/// Panics when `bits.len() != width` or a character is not `0`/`1`.
pub fn parse_bitstring(bits: &str, width: usize) -> OutcomeWord {
    assert_eq!(bits.len(), width, "bitstring width mismatch");
    OutcomeWord::parse(bits)
}

/// Renders an outcome word as an MSB-first bitstring of `width` characters.
pub fn render_bitstring(outcome: &OutcomeWord, width: usize) -> String {
    outcome.bitstring(width)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut c = Counts::new(2);
        c.record(0b00u64);
        c.record(0b11u64);
        c.record(0b11u64);
        assert_eq!(c.shots(), 3);
        assert_eq!(c.count(0b11u64), 2);
        assert_eq!(c.most_likely(), Some(&OutcomeWord::from(0b11u64)));
        assert!((c.probability(0b00u64) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn record_word_reuses_a_scratch_word() {
        let mut c = Counts::new(70);
        let mut scratch = OutcomeWord::zero();
        for shot in 0..6 {
            scratch.clear();
            scratch.set_bit(shot % 2 * 69, true);
            c.record_word(&scratch);
        }
        assert_eq!(c.shots(), 6);
        assert_eq!(c.count(1u64), 3);
        let mut wide = OutcomeWord::zero();
        wide.set_bit(69, true);
        assert_eq!(c.count_word(&wide), 3);
    }

    #[test]
    fn merge_adds_outcome_wise() {
        let mut a = Counts::new(2);
        a.record(0b00u64);
        a.record(0b11u64);
        let mut b = Counts::new(2);
        b.record(0b11u64);
        b.record(0b01u64);
        a.merge(&b);
        assert_eq!(a.shots(), 4);
        assert_eq!(a.count(0b11u64), 2);
        assert_eq!(a.count(0b01u64), 1);
    }

    #[test]
    fn merge_handles_multi_word_outcomes() {
        let mut a = Counts::new(130);
        let mut b = Counts::new(130);
        let wide = OutcomeWord::from_words(&[1, 0, 3]);
        a.record(wide.clone());
        a.record(7u64);
        b.record(wide.clone());
        a.merge(&b);
        assert_eq!(a.shots(), 3);
        assert_eq!(a.count_word(&wide), 2);
        assert_eq!(a.count(7u64), 1);
    }

    #[test]
    #[should_panic(expected = "different classical registers")]
    fn merge_checks_widths() {
        let mut a = Counts::new(2);
        a.merge(&Counts::new(3));
    }

    #[test]
    fn bitstring_round_trip() {
        assert_eq!(parse_bitstring("011", 3), OutcomeWord::from(0b011u64));
        assert_eq!(render_bitstring(&OutcomeWord::from(0b011u64), 3), "011");
        assert_eq!(parse_bitstring("100", 3), OutcomeWord::from(0b100u64));
        assert_eq!(render_bitstring(&OutcomeWord::from(5u64), 4), "0101");
    }

    #[test]
    fn probability_of_str_uses_msb_first() {
        let mut c = Counts::new(3);
        c.record(0b001u64); // clbit 0 = 1
        assert!((c.probability_of_str("001") - 1.0).abs() < 1e-12);
        assert_eq!(c.probability_of_str("100"), 0.0);
    }

    #[test]
    fn tvd_of_identical_is_zero() {
        let mut a = Distribution::new(2);
        a.set(0u64, 0.5);
        a.set(3u64, 0.5);
        assert!(a.tvd(&a.clone()) < 1e-12);
    }

    #[test]
    fn tvd_of_disjoint_is_one() {
        let mut a = Distribution::new(1);
        a.set(0u64, 1.0);
        let mut b = Distribution::new(1);
        b.set(1u64, 1.0);
        assert!((a.tvd(&b) - 1.0).abs() < 1e-12);
        assert!((a.hellinger(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn distances_span_the_64_bit_boundary() {
        // One outcome inline, one spilled: the merge-walk must interleave
        // them in numeric order and see all four mass points.
        let mut wide = OutcomeWord::zero();
        wide.set_bit(64, true);
        let mut a = Distribution::new(65);
        a.set(0u64, 0.5);
        a.set(wide.clone(), 0.5);
        let mut b = Distribution::new(65);
        b.set(1u64, 0.5);
        b.set(wide, 0.5);
        assert!((a.tvd(&b) - 0.5).abs() < 1e-12);
        assert!(a.tvd(&a.clone()) < 1e-12);
    }

    #[test]
    fn counts_to_distribution_normalizes() {
        let mut c = Counts::new(1);
        for _ in 0..3 {
            c.record(0u64);
        }
        c.record(1u64);
        let d = c.to_distribution();
        assert!((d.get(0u64) - 0.75).abs() < 1e-12);
        assert!((d.total_mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_iterator_infers_width() {
        let c: Counts = vec![0u64, 5, 2].into_iter().collect();
        assert_eq!(c.num_clbits(), 3);
        assert_eq!(c.shots(), 3);
        let wide: Counts = vec![OutcomeWord::from_words(&[0, 1])].into_iter().collect();
        assert_eq!(wide.num_clbits(), 65);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn parse_checks_width() {
        parse_bitstring("01", 3);
    }
}
