//! Property vectors (Section III-D1, Fig 6) and Algorithm 1.
//!
//! Each LLC set has one *property bit* per tracked relocation-set
//! property (`Invalid`, `NotInPrC`, `LRUNotInPrC`, ...). The property
//! bits of all sets in a bank form the **property vector (PV)**. A
//! `nextRS` register points to the next round-robin set whose bit is 1 —
//! the next relocation set — and an `emptyPV` bit short-circuits scans of
//! all-zero vectors.
//!
//! The `nextRS` computation is the paper's **Algorithm 1**, which
//! isolates the next set bit after the current position using the
//! two's-complement identity `x & (~x + 1) == lowest set bit of x`. We
//! run it on the PV's 64-bit words in place and allocate nothing. A wide
//! add carries only through words that are all ones, so each carry
//! settles inside the one word where it stops: the mask of positions
//! above `current_rs` is zero below that position's word, one in-word
//! complement-plus-one inside it, and all ones above it; the isolated
//! bit is `w & w.wrapping_neg()` of the first nonzero word. The unit
//! tests check it against a naive scanning implementation.

use std::cmp::Ordering;
use ziv_common::ids::SetIdx;

/// One property vector over the sets of an LLC bank, with its `nextRS`
/// round-robin register and `emptyPV` bit.
#[derive(Debug, Clone)]
pub struct PropertyVector {
    sets: u32,
    words: Vec<u64>,
    ones: u32,
    /// Position last returned as a relocation set (the "decoded RS" input
    /// of Algorithm 1). Starts at the last set so the first selection
    /// wraps to the lowest set bit.
    current_rs: u32,
}

impl PropertyVector {
    /// Creates an all-zero PV over `sets` sets.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero.
    pub fn new(sets: u32) -> Self {
        assert!(sets > 0, "a property vector needs at least one set");
        let words = vec![0u64; sets.div_ceil(64) as usize];
        PropertyVector {
            sets,
            words,
            ones: 0,
            current_rs: sets - 1,
        }
    }

    /// Number of sets covered.
    pub fn sets(&self) -> u32 {
        self.sets
    }

    /// The `emptyPV` bit: true when no set satisfies the property.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ones == 0
    }

    /// Number of sets currently satisfying the property.
    pub fn count_ones(&self) -> u32 {
        self.ones
    }

    /// Reads the property bit of `set`.
    #[inline]
    pub fn get(&self, set: SetIdx) -> bool {
        debug_assert!(set < self.sets);
        self.words[(set / 64) as usize] >> (set % 64) & 1 == 1
    }

    /// Writes the property bit of `set`, updating `emptyPV` bookkeeping.
    #[inline]
    pub fn set(&mut self, set: SetIdx, value: bool) {
        debug_assert!(set < self.sets);
        let w = (set / 64) as usize;
        let bit = 1u64 << (set % 64);
        let was = self.words[w] & bit != 0;
        if value && !was {
            self.words[w] |= bit;
            self.ones += 1;
        } else if !value && was {
            self.words[w] &= !bit;
            self.ones -= 1;
        }
    }

    /// **Algorithm 1**: computes the decoded `nextRS` — the position of
    /// the next set bit after `current_rs` in round-robin order — without
    /// consuming it. Returns `None` when the PV is empty.
    pub fn peek_next_rs(&self) -> Option<SetIdx> {
        if self.is_empty() {
            return None;
        }
        let rs_word = (self.current_rs / 64) as usize;
        let decoded_rs = 1u64 << (self.current_rs % 64);
        // mask <- ((~decoded_RS) + 1) & (~decoded_RS): every position
        // strictly above current_rs. Below current_rs's word the
        // complement is all ones, so the +1 ripples through those words
        // (leaving zeros) into this one, where it stops at the decoded
        // bit; the words above see no carry and stay all ones.
        let mask = |i: usize| match i.cmp(&rs_word) {
            Ordering::Less => 0,
            Ordering::Equal => (!decoded_rs).wrapping_add(1) & !decoded_rs,
            Ordering::Greater => u64::MAX,
        };
        // decoded_nextRS <- x & ((~x) + 1) on upperPV = PV & mask, or on
        // lowerPV = PV & ~mask when upperPV is zero. The lowest set bit
        // lies in x's first nonzero word; the +1 ripples through the
        // all-zero words below it and stops inside it.
        let isolate = |i: usize, x: u64| {
            (x != 0).then(|| i as u32 * 64 + (x & x.wrapping_neg()).trailing_zeros())
        };
        let w = &self.words;
        (rs_word..w.len())
            .find_map(|i| isolate(i, w[i] & mask(i)))
            .or_else(|| (0..=rs_word).find_map(|i| isolate(i, w[i] & !mask(i))))
    }

    /// Consumes the current `nextRS`: returns the next relocation set in
    /// round-robin order and advances the register. `None` if empty.
    pub fn take_next_rs(&mut self) -> Option<SetIdx> {
        let next = self.peek_next_rs()?;
        self.current_rs = next;
        Some(next)
    }

    /// Naive reference implementation of the round-robin selection, used
    /// by tests to validate Algorithm 1.
    #[doc(hidden)]
    pub fn reference_next_rs(&self) -> Option<SetIdx> {
        if self.is_empty() {
            return None;
        }
        for d in 1..=self.sets {
            let pos = (self.current_rs + d) % self.sets;
            if self.get(pos) {
                return Some(pos);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ziv_common::SimRng;

    #[test]
    fn empty_pv_yields_none() {
        let mut pv = PropertyVector::new(100);
        assert!(pv.is_empty());
        assert_eq!(pv.take_next_rs(), None);
    }

    #[test]
    fn single_bit_is_selected_repeatedly() {
        let mut pv = PropertyVector::new(100);
        pv.set(37, true);
        assert_eq!(pv.take_next_rs(), Some(37));
        assert_eq!(pv.take_next_rs(), Some(37));
    }

    #[test]
    fn round_robin_over_multiple_bits() {
        let mut pv = PropertyVector::new(256);
        for s in [3u32, 64, 65, 200] {
            pv.set(s, true);
        }
        let picks: Vec<_> = (0..8).map(|_| pv.take_next_rs().unwrap()).collect();
        assert_eq!(picks, vec![3, 64, 65, 200, 3, 64, 65, 200]);
    }

    #[test]
    fn clearing_bits_updates_empty_pv() {
        let mut pv = PropertyVector::new(64);
        pv.set(5, true);
        assert!(!pv.is_empty());
        pv.set(5, false);
        assert!(pv.is_empty());
        assert_eq!(pv.count_ones(), 0);
    }

    #[test]
    fn idempotent_set_does_not_corrupt_count() {
        let mut pv = PropertyVector::new(64);
        pv.set(1, true);
        pv.set(1, true);
        assert_eq!(pv.count_ones(), 1);
        pv.set(1, false);
        pv.set(1, false);
        assert_eq!(pv.count_ones(), 0);
    }

    #[test]
    fn works_at_word_boundaries() {
        let mut pv = PropertyVector::new(128);
        pv.set(63, true);
        pv.set(64, true);
        pv.set(127, true);
        assert_eq!(pv.take_next_rs(), Some(63));
        assert_eq!(pv.take_next_rs(), Some(64));
        assert_eq!(pv.take_next_rs(), Some(127));
        assert_eq!(pv.take_next_rs(), Some(63));
    }

    #[test]
    fn non_multiple_of_64_sets() {
        let mut pv = PropertyVector::new(100);
        pv.set(99, true);
        pv.set(0, true);
        assert_eq!(pv.take_next_rs(), Some(0));
        assert_eq!(pv.take_next_rs(), Some(99));
        assert_eq!(pv.take_next_rs(), Some(0));
    }

    #[test]
    fn selection_distributes_uniformly() {
        // The paper motivates round-robin selection as spreading the
        // relocation load across eligible sets.
        let mut pv = PropertyVector::new(32);
        for s in 0..32 {
            pv.set(s, true);
        }
        let mut counts = [0u32; 32];
        for _ in 0..320 {
            counts[pv.take_next_rs().unwrap() as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 10), "{counts:?}");
    }

    // Seeded randomized model checks against naive reference
    // implementations.
    #[test]
    fn algorithm1_matches_reference() {
        let mut rng = SimRng::seed_from_u64(0xA160);
        for _ in 0..200 {
            let sets = rng.range(1, 300) as u32;
            let mut pv = PropertyVector::new(sets);
            for _ in 0..rng.below(40) {
                pv.set(rng.below(300) as u32 % sets, true);
            }
            for _ in 0..rng.below(10) {
                assert_eq!(pv.peek_next_rs(), pv.reference_next_rs());
                let _ = pv.take_next_rs();
            }
            assert_eq!(pv.peek_next_rs(), pv.reference_next_rs());
        }
    }

    #[test]
    fn count_ones_matches_popcount() {
        let mut rng = SimRng::seed_from_u64(0xC047);
        for _ in 0..200 {
            let mut pv = PropertyVector::new(128);
            let mut model = std::collections::HashSet::new();
            for _ in 0..rng.below(100) {
                let (s, v) = (rng.below(128) as u32, rng.chance(0.5));
                pv.set(s, v);
                if v {
                    model.insert(s);
                } else {
                    model.remove(&s);
                }
            }
            assert_eq!(pv.count_ones() as usize, model.len());
            assert_eq!(pv.is_empty(), model.is_empty());
        }
    }
}
