//! Exact minimum-weight lookup decoder for distance 3.
//!
//! Enumerates all `2^9` X-error patterns of the d=3 rotated code and keeps
//! the minimum-weight representative per syndrome: true maximum-likelihood
//! decoding under i.i.d. X noise, used as the accuracy ceiling in the
//! decoder-comparison benches.

use super::{Correction, Decoder};
use crate::surface::SurfaceCode;
use std::collections::HashMap;

/// Table-driven exact decoder (distance 3 only).
#[derive(Debug, Clone)]
pub struct LookupDecoder {
    /// syndrome bitmask (over Z stabilizers) -> minimal error pattern mask.
    table: HashMap<u32, u32>,
    num_data: usize,
}

impl LookupDecoder {
    /// Builds the table for a distance-3 code.
    ///
    /// # Panics
    ///
    /// Panics when `code.distance() != 3`.
    pub fn new(code: &SurfaceCode) -> Self {
        assert_eq!(code.distance(), 3, "lookup decoder supports d=3 only");
        let n = code.num_data();
        let qubit_masks = code.z_syndrome_masks();
        let mut table: HashMap<u32, u32> = HashMap::new();
        for pattern in 0u32..(1 << n) {
            let mut mask = 0u32;
            let mut rest = pattern;
            while rest != 0 {
                mask ^= qubit_masks[rest.trailing_zeros() as usize];
                rest &= rest - 1;
            }
            let entry = table.entry(mask).or_insert(pattern);
            if pattern.count_ones() < entry.count_ones() {
                *entry = pattern;
            }
        }
        LookupDecoder { table, num_data: n }
    }

    /// Number of distinct syndromes in the table.
    pub fn table_size(&self) -> usize {
        self.table.len()
    }
}

impl Decoder for LookupDecoder {
    fn decode(&self, flagged: &[usize]) -> Correction {
        let mut mask = 0u32;
        for &f in flagged {
            mask |= 1 << f;
        }
        let pattern = self.table.get(&mask).copied().unwrap_or(0);
        let flips: Vec<usize> = (0..self.num_data)
            .filter(|q| (pattern >> q) & 1 == 1)
            .collect();
        Correction { qubit_flips: flips }
    }

    fn name(&self) -> &'static str {
        "lookup-exact"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::graph::DecodingGraph;

    /// Reference oracle: the table from one `SurfaceCode::z_syndrome`
    /// vector per pattern.
    fn reference_table(code: &SurfaceCode) -> HashMap<u32, u32> {
        let n = code.num_data();
        let mut table: HashMap<u32, u32> = HashMap::new();
        for pattern in 0u32..(1 << n) {
            let errors: Vec<bool> = (0..n).map(|q| (pattern >> q) & 1 == 1).collect();
            let syndrome = code.z_syndrome(&errors);
            let mut mask = 0u32;
            for (i, &bit) in syndrome.iter().enumerate() {
                if bit {
                    mask |= 1 << i;
                }
            }
            let entry = table.entry(mask).or_insert(pattern);
            if pattern.count_ones() < entry.count_ones() {
                *entry = pattern;
            }
        }
        table
    }

    #[test]
    fn mask_table_equals_the_syndrome_vector_construction() {
        let code = SurfaceCode::new(3);
        assert_eq!(LookupDecoder::new(&code).table, reference_table(&code));
    }

    #[test]
    fn table_covers_every_syndrome() {
        let code = SurfaceCode::new(3);
        let dec = LookupDecoder::new(&code);
        // 4 Z stabilizers -> 16 syndromes, all realizable.
        assert_eq!(dec.table_size(), 16);
    }

    #[test]
    fn corrects_all_single_errors_without_logical_flips() {
        let code = SurfaceCode::new(3);
        let dec = LookupDecoder::new(&code);
        let graph = DecodingGraph::code_capacity_x(&code);
        for q in 0..code.num_data() {
            let mut errors = vec![false; code.num_data()];
            errors[q] = true;
            let flagged = graph.syndrome_of(&errors);
            let c = dec.decode(&flagged);
            c.apply(&mut errors);
            assert!(code.z_syndrome(&errors).iter().all(|&b| !b), "qubit {q}");
            assert!(!code.is_logical_x_flip(&errors), "qubit {q}");
        }
    }

    #[test]
    fn corrections_are_minimum_weight() {
        let code = SurfaceCode::new(3);
        let dec = LookupDecoder::new(&code);
        let graph = DecodingGraph::code_capacity_x(&code);
        // For every single error, the correction weight must be 1 (it can
        // correct with the same single qubit or an equivalent one).
        for q in 0..code.num_data() {
            let mut errors = vec![false; code.num_data()];
            errors[q] = true;
            let flagged = graph.syndrome_of(&errors);
            let c = dec.decode(&flagged);
            assert!(c.weight() <= 1, "qubit {q}: weight {}", c.weight());
        }
    }

    #[test]
    fn always_returns_to_codespace() {
        let code = SurfaceCode::new(3);
        let dec = LookupDecoder::new(&code);
        let graph = DecodingGraph::code_capacity_x(&code);
        for pattern in 0u32..(1 << 9) {
            let mut errors: Vec<bool> = (0..9).map(|q| (pattern >> q) & 1 == 1).collect();
            let flagged = graph.syndrome_of(&errors);
            let c = dec.decode(&flagged);
            c.apply(&mut errors);
            assert!(
                code.z_syndrome(&errors).iter().all(|&b| !b),
                "pattern {pattern:#011b}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "d=3 only")]
    fn rejects_distance_five() {
        LookupDecoder::new(&SurfaceCode::new(5));
    }
}
