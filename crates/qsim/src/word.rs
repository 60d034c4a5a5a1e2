//! Packed multi-word classical-outcome registers.
//!
//! [`OutcomeWord`] is the currency every simulation layer exchanges: the
//! stabilizer/dense/MPS trajectory loops write measurement bits into one,
//! [`crate::dist::Counts`] tallies them, the executor's parallel shot
//! chunks merge them, and `qec`'s space-time decoder unpacks them. It packs
//! classical bit `i` into bit `i % 64` of 64-bit word `i / 64`:
//!
//! * **Inline fast path** — registers of up to 64 bits live entirely in one
//!   inline `u64` (`rest` stays an empty, never-allocated `Vec`), so the
//!   ≤ 64-clbit shot-recording hot path is allocation-free (pinned by
//!   `crates/qsim/tests/alloc_counts.rs`).
//! * **Spill** — wider registers spill the bits past 64 into a little-endian
//!   `Vec<u64>` tail, which is what lets distance-7 surface-code memory
//!   circuits (97+ classical bits) record outcomes at all.
//!
//! The representation is *normalized*: the spill tail never ends in a zero
//! word. That makes the derived `Eq`/`Hash` agree with numeric equality and
//! lets [`Ord`] compare by tail length first — two properties the
//! `BTreeMap`-backed counts tables rely on.

use std::fmt;

/// A classical measurement-outcome register of arbitrary width.
///
/// Semantically an unsigned integer with classical bit `i` at bit `i`
/// (and therefore no intrinsic width: leading zero bits are not stored).
/// Display width is supplied at render time — see
/// [`OutcomeWord::bitstring`] and [`crate::dist::Counts::bitstring`], which
/// render most-significant-bit first, matching Qiskit's convention.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct OutcomeWord {
    /// Bits 0..64.
    head: u64,
    /// Bits 64.. in little-endian 64-bit words; invariant: no trailing
    /// zero word (so values ≤ 64 bits never allocate).
    rest: Vec<u64>,
}

impl OutcomeWord {
    /// The all-zero outcome.
    pub fn zero() -> Self {
        OutcomeWord::default()
    }

    /// Builds from a `u128` (handy for tests straddling the 64-bit
    /// boundary; kept off the `From` impls so unsuffixed integer literals
    /// at `Counts` call sites keep inferring `u64`).
    pub fn from_u128(value: u128) -> Self {
        OutcomeWord::from_words(&[value as u64, (value >> 64) as u64])
    }

    /// Builds from little-endian 64-bit words (word 0 = bits 0..64).
    pub fn from_words(words: &[u64]) -> Self {
        let mut w = OutcomeWord::zero();
        w.assign_words(words);
        w
    }

    /// `true` when no bit is set.
    pub fn is_zero(&self) -> bool {
        self.head == 0 && self.rest.is_empty()
    }

    /// The value of classical bit `i` (false past the stored width).
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        if i < 64 {
            (self.head >> i) & 1 == 1
        } else {
            self.rest
                .get(i / 64 - 1)
                .is_some_and(|w| (w >> (i % 64)) & 1 == 1)
        }
    }

    /// Sets classical bit `i` to `v`, spilling past 64 bits on demand.
    ///
    /// Clearing a bit re-trims the spill tail, so the normalized-form
    /// invariant (and with it `Eq`/`Hash`/`Ord` consistency) holds after
    /// every mutation. Clearing never shrinks the tail's *capacity*: a
    /// scratch word reused across trajectory shots settles at the widest
    /// register it has seen and stops allocating.
    #[inline]
    pub fn set_bit(&mut self, i: usize, v: bool) {
        if i < 64 {
            if v {
                self.head |= 1 << i;
            } else {
                self.head &= !(1 << i);
            }
            return;
        }
        let idx = i / 64 - 1;
        if v {
            if idx >= self.rest.len() {
                self.rest.resize(idx + 1, 0);
            }
            self.rest[idx] |= 1 << (i % 64);
        } else if let Some(w) = self.rest.get_mut(idx) {
            *w &= !(1 << (i % 64));
            self.trim();
        }
    }

    /// Clears every bit, keeping the spill tail's capacity (so a reused
    /// scratch word stays allocation-free across shots).
    pub fn clear(&mut self) {
        self.head = 0;
        self.rest.clear();
    }

    /// Overwrites the value with a one-word integer, keeping the spill
    /// tail's capacity (scratch-word twin of `From<u64>`).
    #[inline]
    pub fn assign_u64(&mut self, value: u64) {
        self.head = value;
        self.rest.clear();
    }

    /// Overwrites the value with little-endian 64-bit words, keeping the
    /// spill tail's capacity (scratch-word twin of
    /// [`OutcomeWord::from_words`]).
    pub fn assign_words(&mut self, words: &[u64]) {
        self.head = words.first().copied().unwrap_or(0);
        self.rest.clear();
        self.rest.extend_from_slice(words.get(1..).unwrap_or(&[]));
        self.trim();
    }

    /// The low 64 bits. For registers known to fit one word this *is* the
    /// value; prefer [`OutcomeWord::as_u64`] when that needs checking.
    #[inline]
    pub fn low64(&self) -> u64 {
        self.head
    }

    /// The full value when it fits 64 bits, else `None`.
    pub fn as_u64(&self) -> Option<u64> {
        self.rest.is_empty().then_some(self.head)
    }

    /// Number of stored 64-bit words (≥ 1; leading zero words trimmed).
    pub fn num_words(&self) -> usize {
        1 + self.rest.len()
    }

    /// Little-endian 64-bit word `j` (0 past the stored width).
    pub fn word(&self, j: usize) -> u64 {
        if j == 0 {
            self.head
        } else {
            self.rest.get(j - 1).copied().unwrap_or(0)
        }
    }

    /// Position of the highest set bit plus one (0 for the zero word).
    pub fn bit_len(&self) -> usize {
        match self.rest.last() {
            Some(&top) => 64 * self.rest.len() + 64 - top.leading_zeros() as usize,
            None => 64 - self.head.leading_zeros() as usize,
        }
    }

    /// Renders as an MSB-first bitstring of exactly `width` characters.
    ///
    /// # Panics
    ///
    /// Panics when the value does not fit `width` bits (that would silently
    /// drop set bits from the rendering).
    pub fn bitstring(&self, width: usize) -> String {
        assert!(
            self.bit_len() <= width,
            "outcome needs {} bits, rendering width is {width}",
            self.bit_len()
        );
        (0..width)
            .rev()
            .map(|i| if self.bit(i) { '1' } else { '0' })
            .collect()
    }

    /// Parses an MSB-first bitstring (width = string length).
    ///
    /// # Panics
    ///
    /// Panics on characters other than `0`/`1`.
    pub fn parse(bits: &str) -> Self {
        let width = bits.len();
        let mut word = OutcomeWord::zero();
        for (i, ch) in bits.chars().enumerate() {
            match ch {
                '0' => {}
                '1' => word.set_bit(width - 1 - i, true),
                other => panic!("invalid bitstring character `{other}`"),
            }
        }
        word
    }

    /// Drops trailing zero spill words (restores the normalized form).
    fn trim(&mut self) {
        while self.rest.last() == Some(&0) {
            self.rest.pop();
        }
    }
}

impl From<u64> for OutcomeWord {
    fn from(value: u64) -> Self {
        OutcomeWord {
            head: value,
            rest: Vec::new(),
        }
    }
}

// Deliberately NOT `From<u128>`: a second integer `From` impl would make
// unsuffixed literals at `Counts::record(0b11)`-style call sites ambiguous.

impl From<&OutcomeWord> for OutcomeWord {
    fn from(value: &OutcomeWord) -> Self {
        value.clone()
    }
}

impl PartialEq<u64> for OutcomeWord {
    fn eq(&self, other: &u64) -> bool {
        self.rest.is_empty() && self.head == *other
    }
}

impl PartialEq<OutcomeWord> for u64 {
    fn eq(&self, other: &OutcomeWord) -> bool {
        other == self
    }
}

impl Ord for OutcomeWord {
    /// Numeric order. Thanks to the no-trailing-zero invariant a longer
    /// spill tail always means a larger value; equal-length words compare
    /// most-significant-word down.
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Inline-vs-inline is the counts-table hot path (every ≤ 64-clbit
        // shot recording walks a `BTreeMap<OutcomeWord, _>`): one integer
        // compare, no iterator machinery.
        if self.rest.is_empty() && other.rest.is_empty() {
            return self.head.cmp(&other.head);
        }
        self.rest
            .len()
            .cmp(&other.rest.len())
            .then_with(|| self.rest.iter().rev().cmp(other.rest.iter().rev()))
            .then_with(|| self.head.cmp(&other.head))
    }
}

impl PartialOrd for OutcomeWord {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for OutcomeWord {
    /// Renders at the value's own minimum width (at least one digit);
    /// fixed-width contexts should use [`OutcomeWord::bitstring`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.bitstring(self.bit_len().max(1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_words_never_spill() {
        let mut w = OutcomeWord::from(u64::MAX);
        assert_eq!(w.num_words(), 1);
        assert_eq!(w.as_u64(), Some(u64::MAX));
        w.set_bit(63, false);
        assert_eq!(w, u64::MAX >> 1);
        assert_eq!(w.bit_len(), 63);
    }

    #[test]
    fn spill_and_retrim_across_the_64_bit_boundary() {
        let mut w = OutcomeWord::zero();
        w.set_bit(64, true);
        assert_eq!(w.num_words(), 2);
        assert!(w.bit(64));
        assert!(!w.bit(63));
        assert_eq!(w.as_u64(), None);
        assert_eq!(w.bit_len(), 65);
        // Clearing the only spilled bit restores the inline form.
        w.set_bit(64, false);
        assert!(w.is_zero());
        assert_eq!(w.num_words(), 1);
        assert_eq!(w, OutcomeWord::zero());
    }

    #[test]
    fn from_words_normalizes() {
        let w = OutcomeWord::from_words(&[5, 0, 0]);
        assert_eq!(w, 5u64);
        assert_eq!(w.num_words(), 1);
        assert_eq!(OutcomeWord::from_words(&[]), 0u64);
        let wide = OutcomeWord::from_words(&[1, 0, 7]);
        assert_eq!(wide.num_words(), 3);
        assert_eq!(wide.word(2), 7);
        assert_eq!(wide.word(9), 0);
    }

    #[test]
    fn ordering_is_numeric_across_representations() {
        let small = OutcomeWord::from(u64::MAX);
        let mut just_over = OutcomeWord::zero();
        just_over.set_bit(64, true);
        let big = OutcomeWord::from_u128(0x1_0000_0000_0000_0000_0000);
        assert!(small < just_over);
        assert!(just_over < big);
        let three = OutcomeWord::from(3u64);
        let two = OutcomeWord::from(2u64);
        assert!(three > two);
        // Same tail length: most-significant word dominates.
        let a = OutcomeWord::from_words(&[u64::MAX, 1]);
        let b = OutcomeWord::from_words(&[0, 2]);
        assert!(a < b);
    }

    #[test]
    fn u128_round_trips() {
        let v: u128 = 0xDEAD_BEEF_0123_4567_89AB_CDEF;
        let w = OutcomeWord::from_u128(v);
        assert_eq!(w.word(0), v as u64);
        assert_eq!(w.word(1), (v >> 64) as u64);
        for i in 0..128 {
            assert_eq!(w.bit(i), (v >> i) & 1 == 1, "bit {i}");
        }
    }

    #[test]
    fn bitstring_round_trips_msb_first() {
        let w = OutcomeWord::parse(
            "100000000000000000000000000000000000000000000000000000000000000001",
        );
        assert_eq!(w.bit_len(), 66);
        assert!(w.bit(0));
        assert!(w.bit(65));
        assert_eq!(OutcomeWord::parse(&w.bitstring(66)), w);
        assert_eq!(OutcomeWord::from(0b101u64).bitstring(5), "00101");
    }

    #[test]
    #[should_panic(expected = "rendering width")]
    fn bitstring_refuses_to_drop_bits() {
        OutcomeWord::from(0b100u64).bitstring(2);
    }

    #[test]
    fn display_uses_minimum_width() {
        assert_eq!(OutcomeWord::zero().to_string(), "0");
        assert_eq!(OutcomeWord::from(0b1010u64).to_string(), "1010");
    }

    #[test]
    fn clear_keeps_capacity_but_zeroes_value() {
        let mut w = OutcomeWord::from_u128(0x8000_0000_0000_0000_0000);
        w.clear();
        assert!(w.is_zero());
        assert_eq!(w, OutcomeWord::zero());
    }
}
