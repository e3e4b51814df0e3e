//! One LLC bank: the tag/data array with ZIV block state, its
//! replacement policy, its property vectors (ZIV banks only), and its
//! relocation-interval histogram.

use crate::llc::{GradedKind, ZivProperty};
use ziv_cache::{PropertyVector, SetAssocArray};
use ziv_char::GroupId;
use ziv_common::ids::{SetIdx, WayIdx};
use ziv_common::stats::Log2Histogram;
use ziv_common::{CacheGeometry, Cycle, LineAddr};
use ziv_replacement::{AccessCtx, ReplacementPolicy, RRPV_MAX};

/// Per-LLC-block state (Sections III-C and III-D): the `Relocated`,
/// `NotInPrC`, and `LikelyDead` state bits, the dirty bit, plus the
/// bookkeeping our simulator carries in place of raw tag bits (the full
/// line address, standing in for the paper's tag-encoded directory
/// pointer) and CHAR's recall-attribution group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcState {
    /// The line actually cached here. For a relocated block this is the
    /// block's original address — functionally what the paper recovers
    /// by storing the sparse-directory entry location in the (otherwise
    /// unused) tag of a relocated block (Section III-C3).
    pub line: LineAddr,
    /// Dirty bit.
    pub dirty: bool,
    /// The ZIV `Relocated` state: this block lives outside its home set
    /// and is reachable only through the sparse directory.
    pub relocated: bool,
    /// Set when no private cache holds a copy (Section III-D3).
    pub not_in_prc: bool,
    /// CHAR-inferred dead bit (Section III-D6).
    pub likely_dead: bool,
    /// `(core, group)` recorded at the last private eviction notice, for
    /// CHAR recall counting.
    pub evict_group: Option<(u16, GroupId)>,
}

impl Default for LlcState {
    fn default() -> Self {
        LlcState {
            line: LineAddr::new(0),
            dirty: false,
            relocated: false,
            not_in_prc: false,
            likely_dead: false,
            evict_group: None,
        }
    }
}

/// A block evicted from the LLC by a fill or relocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedBlock {
    /// The departing line.
    pub line: LineAddr,
    /// Whether the LLC copy was dirty (needs a memory writeback).
    pub dirty: bool,
    /// Whether the block was in the ZIV `Relocated` state.
    pub was_relocated: bool,
}

/// One LLC bank.
#[derive(Debug)]
pub struct LlcBank {
    /// Tag/state array.
    pub array: SetAssocArray<LlcState>,
    /// The bank's replacement policy (baseline LLC policy).
    pub policy: Box<dyn ReplacementPolicy>,
    /// The ZIV relocation-set property vectors; `None` in every non-ZIV
    /// mode, where nothing reads them.
    pub pvs: Option<PropertyVectors>,
    /// Cycle of the last relocation in this bank (Fig 18 intervals).
    pub last_relocation: Option<Cycle>,
    /// Histogram of relocation intervals (log2 cycles) — Fig 18.
    pub relocation_intervals: Log2Histogram,
}

/// The four property vectors of a ZIV bank (Section III-D1) and the
/// flavor of its graded one.
#[derive(Debug)]
pub struct PropertyVectors {
    /// `Invalid` property vector.
    pub invalid: PropertyVector,
    /// `NotInPrC` property vector.
    pub not_in_prc: PropertyVector,
    /// Graded property vector (`LRUNotInPrC` or `MaxRRPVNotInPrC`);
    /// all clear when the bank's property reads none.
    pub graded: PropertyVector,
    /// `LikelyDeadNotInPrC` property vector.
    pub likely_dead: PropertyVector,
    graded_kind: Option<GradedKind>,
}

impl PropertyVectors {
    /// The vectors of an empty bank of `sets` sets: every set has an
    /// invalid way, and no set has any other property.
    fn new(sets: u32, graded_kind: Option<GradedKind>) -> Self {
        let mut invalid = PropertyVector::new(sets);
        for s in 0..sets {
            invalid.set(s, true);
        }
        PropertyVectors {
            invalid,
            not_in_prc: PropertyVector::new(sets),
            graded: PropertyVector::new(sets),
            likely_dead: PropertyVector::new(sets),
            graded_kind,
        }
    }

    /// Whether `set` satisfies the property at `level` (used for the
    /// "check the original set first" rule of Sections III-D4..7).
    pub fn set_satisfies(&self, set: SetIdx, level: PropertyLevel) -> bool {
        match level {
            PropertyLevel::Invalid => self.invalid.get(set),
            PropertyLevel::Graded => self.graded.get(set),
            PropertyLevel::LikelyDead => self.likely_dead.get(set),
            PropertyLevel::NotInPrC => self.not_in_prc.get(set),
        }
    }

    /// The PV for `level`.
    pub fn pv_mut(&mut self, level: PropertyLevel) -> &mut PropertyVector {
        match level {
            PropertyLevel::Invalid => &mut self.invalid,
            PropertyLevel::Graded => &mut self.graded,
            PropertyLevel::LikelyDead => &mut self.likely_dead,
            PropertyLevel::NotInPrC => &mut self.not_in_prc,
        }
    }
}

impl LlcBank {
    /// Creates a bank with the given geometry and policy. A ZIV bank
    /// passes its property and gets property vectors; every other bank
    /// passes `None` and has none.
    pub fn new(
        geom: CacheGeometry,
        policy: Box<dyn ReplacementPolicy>,
        property: Option<ZivProperty>,
    ) -> Self {
        LlcBank {
            array: SetAssocArray::new(geom),
            policy,
            pvs: property.map(|p| PropertyVectors::new(geom.sets, p.graded())),
            last_relocation: None,
            relocation_intervals: Log2Histogram::new(),
        }
    }

    /// Recomputes every property bit of `set` from block and policy
    /// state. Called after any mutation of the set; does nothing on a
    /// bank without property vectors. One O(ways) walk, no sort.
    pub fn refresh_set(&mut self, set: SetIdx) {
        let Some(pvs) = self.pvs.as_mut() else {
            return;
        };
        // One walk derives the Invalid, NotInPrC, LikelyDeadNotInPrC and
        // MaxRRPVNotInPrC bits together (an invalid way exists iff fewer
        // than `ways` slots are valid).
        let averse_graded = pvs.graded_kind == Some(GradedKind::MaxRrpv);
        let mut valid_ways = 0usize;
        let mut any_nip = false;
        let mut any_dead_nip = false;
        let mut any_averse_nip = false;
        for w in self.array.iter_set(set) {
            valid_ways += 1;
            if !w.state.relocated && w.state.not_in_prc {
                any_nip = true;
                any_dead_nip |= w.state.likely_dead;
                // A cache-averse (RRPV = 7) block that is not privately
                // cached (Section III-D5).
                if averse_graded && !any_averse_nip {
                    any_averse_nip = self.policy.rrpv(set, w.way) == Some(RRPV_MAX);
                }
            }
        }
        let graded = match pvs.graded_kind {
            Some(GradedKind::LruPos) => {
                // The block in the LRU position — the policy's victim,
                // the way with the highest eviction key — has NotInPrC
                // set (Section III-D4).
                let w = self.policy.victim(set, &neutral_ctx());
                self.array.is_valid(set, w) && {
                    let s = self.array.state(set, w);
                    !s.relocated && s.not_in_prc
                }
            }
            Some(GradedKind::MaxRrpv) => any_averse_nip,
            None => false,
        };
        pvs.invalid
            .set(set, valid_ways < self.array.geometry().ways as usize);
        pvs.not_in_prc.set(set, any_nip);
        pvs.likely_dead.set(set, any_dead_nip);
        pvs.graded.set(set, graded);
    }

    /// Selects the victim within a relocation set, following the
    /// property-specific priority of Section III-E: the first level of
    /// [`ZivProperty::levels`] some way of `set` satisfies picks its most
    /// evictable such way (the policy's key realizes "closest to LRU" /
    /// "as high an RRPV as possible").
    pub fn relocation_victim(&self, set: SetIdx, property: ZivProperty) -> Option<WayIdx> {
        let ctx = neutral_ctx();
        // `Invalid` is every property's first level, so past it every way
        // is valid.
        let level_holds = |w, level| {
            let s = self.array.state(set, w);
            !s.relocated
                && s.not_in_prc
                && match level {
                    PropertyLevel::LikelyDead => s.likely_dead,
                    PropertyLevel::Graded => match property.graded() {
                        Some(GradedKind::LruPos) => w == self.policy.victim(set, &ctx),
                        Some(GradedKind::MaxRrpv) => self.policy.rrpv(set, w) == Some(RRPV_MAX),
                        None => false,
                    },
                    PropertyLevel::Invalid | PropertyLevel::NotInPrC => true,
                }
        };
        property.levels().iter().find_map(|&level| match level {
            PropertyLevel::Invalid => self.array.invalid_way(set),
            _ => self
                .policy
                .victim_where(set, &ctx, &mut |w| level_holds(w, level)),
        })
    }

    /// Records a relocation in this bank at `now` (Fig 18 statistics).
    pub fn record_relocation(&mut self, now: Cycle) {
        if let Some(prev) = self.last_relocation {
            self.relocation_intervals
                .record(now.saturating_sub(prev).max(1));
        }
        self.last_relocation = Some(now);
    }
}

/// The property-priority levels of the relocation-set search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropertyLevel {
    /// An invalid way exists (always the highest priority).
    Invalid,
    /// The graded property (`LRUNotInPrC` / `MaxRRPVNotInPrC`).
    Graded,
    /// `LikelyDeadNotInPrC`.
    LikelyDead,
    /// Plain `NotInPrC` (always the last resort).
    NotInPrC,
}

/// Neutral policy context for victim queries outside a demand access.
pub(crate) fn neutral_ctx() -> AccessCtx {
    AccessCtx::demand(LineAddr::new(0), 0, ziv_common::CoreId::new(0), 0, u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ziv_replacement::{Lru, Srrip};

    fn bank_lru() -> LlcBank {
        let geom = CacheGeometry::new(8, 4);
        LlcBank::new(
            geom,
            Box::new(Lru::new(geom)),
            Some(ZivProperty::LruNotInPrC),
        )
    }

    fn bank_rrpv() -> LlcBank {
        let geom = CacheGeometry::new(8, 4);
        LlcBank::new(
            geom,
            Box::new(Srrip::new(geom)),
            Some(ZivProperty::MaxRrpvNotInPrC),
        )
    }

    fn pvs(bank: &LlcBank) -> &PropertyVectors {
        bank.pvs.as_ref().expect("a ZIV bank has property vectors")
    }

    fn fill(bank: &mut LlcBank, set: SetIdx, way: WayIdx, line: u64, nip: bool) {
        let l = LineAddr::new(line);
        bank.array.fill(
            set,
            way,
            line,
            LlcState {
                line: l,
                not_in_prc: nip,
                ..Default::default()
            },
        );
        bank.policy.on_fill(
            set,
            way,
            &AccessCtx::demand(l, 0x40, ziv_common::CoreId::new(0), 0, 0),
        );
        bank.refresh_set(set);
    }

    #[test]
    fn empty_bank_has_all_invalid_bits() {
        let b = bank_lru();
        assert_eq!(pvs(&b).invalid.count_ones(), 8);
        assert!(pvs(&b).not_in_prc.is_empty());
    }

    #[test]
    fn non_ziv_bank_has_no_property_vectors() {
        let geom = CacheGeometry::new(8, 4);
        let mut b = LlcBank::new(geom, Box::new(Lru::new(geom)), None);
        fill(&mut b, 0, 0, 10, true);
        assert!(b.pvs.is_none());
    }

    #[test]
    fn invalid_bit_clears_when_set_fills() {
        let mut b = bank_lru();
        for w in 0..4 {
            fill(&mut b, 2, w, 100 + w as u64, false);
        }
        assert!(!pvs(&b).invalid.get(2));
        assert!(pvs(&b).invalid.get(3));
    }

    #[test]
    fn not_in_prc_pv_tracks_state() {
        let mut b = bank_lru();
        fill(&mut b, 1, 0, 50, true);
        assert!(pvs(&b).not_in_prc.get(1));
        b.array.state_mut(1, 0).not_in_prc = false;
        b.refresh_set(1);
        assert!(!pvs(&b).not_in_prc.get(1));
    }

    #[test]
    fn relocated_blocks_never_satisfy_not_in_prc() {
        let mut b = bank_lru();
        fill(&mut b, 1, 0, 50, true);
        b.array.state_mut(1, 0).relocated = true;
        b.refresh_set(1);
        assert!(!pvs(&b).not_in_prc.get(1));
    }

    #[test]
    fn lru_graded_bit_requires_lru_position() {
        let mut b = bank_lru();
        for w in 0..4 {
            fill(&mut b, 0, w, 10 + w as u64, false);
        }
        // Way 0 is LRU; mark way 3 (MRU) NotInPrC -> graded bit off.
        b.array.state_mut(0, 3).not_in_prc = true;
        b.refresh_set(0);
        assert!(!pvs(&b).graded.get(0));
        assert!(pvs(&b).not_in_prc.get(0));
        // Mark way 0 (LRU) NotInPrC -> graded bit on.
        b.array.state_mut(0, 0).not_in_prc = true;
        b.refresh_set(0);
        assert!(pvs(&b).graded.get(0));
    }

    #[test]
    fn graded_bit_is_kept_only_for_properties_that_read_it() {
        use ZivProperty::*;
        for p in [
            NotInPrC,
            LruNotInPrC,
            MaxRrpvNotInPrC,
            LikelyDead,
            MaxRrpvLikelyDead,
        ] {
            assert_eq!(
                p.graded().is_some(),
                p.levels().contains(&PropertyLevel::Graded),
                "{}",
                p.label()
            );
        }
        let geom = CacheGeometry::new(8, 4);
        let mut b = LlcBank::new(geom, Box::new(Lru::new(geom)), Some(LikelyDead));
        for w in 0..4 {
            fill(&mut b, 0, w, 10 + w as u64, true);
        }
        assert!(pvs(&b).not_in_prc.get(0));
        assert!(pvs(&b).graded.is_empty(), "the LRU way is NotInPrC");
    }

    #[test]
    fn max_rrpv_graded_bit_requires_averse_block() {
        let mut b = bank_rrpv();
        for w in 0..4 {
            fill(&mut b, 0, w, 10 + w as u64, true);
        }
        // SRRIP fills at RRPV_MAX-1: no averse block yet.
        assert!(!pvs(&b).graded.get(0));
        b.policy.on_evict(0, 2); // forces way 2 to RRPV_MAX
        b.array.state_mut(0, 2).not_in_prc = true;
        b.refresh_set(0);
        assert!(pvs(&b).graded.get(0));
    }

    #[test]
    fn relocation_victim_prefers_invalid() {
        let mut b = bank_lru();
        fill(&mut b, 0, 0, 10, true);
        assert_eq!(b.relocation_victim(0, ZivProperty::NotInPrC), Some(1));
    }

    #[test]
    fn relocation_victim_picks_nip_closest_to_lru() {
        let mut b = bank_lru();
        for w in 0..4 {
            fill(&mut b, 0, w, 10 + w as u64, false);
        }
        // LRU order is 0,1,2,3; mark ways 2 and 1 NotInPrC.
        b.array.state_mut(0, 2).not_in_prc = true;
        b.array.state_mut(0, 1).not_in_prc = true;
        b.refresh_set(0);
        assert_eq!(b.relocation_victim(0, ZivProperty::NotInPrC), Some(1));
    }

    #[test]
    fn relocation_victim_likely_dead_priority() {
        let mut b = bank_lru();
        for w in 0..4 {
            fill(&mut b, 0, w, 10 + w as u64, true);
        }
        // Way 3 is MRU but LikelyDead: LikelyDead level beats position.
        b.array.state_mut(0, 3).likely_dead = true;
        b.refresh_set(0);
        assert_eq!(b.relocation_victim(0, ZivProperty::LikelyDead), Some(3));
        // Without any LikelyDead, falls back to NotInPrC closest to LRU.
        b.array.state_mut(0, 3).likely_dead = false;
        b.refresh_set(0);
        assert_eq!(b.relocation_victim(0, ZivProperty::LikelyDead), Some(0));
    }

    #[test]
    fn relocation_victim_none_when_all_cached() {
        let mut b = bank_lru();
        for w in 0..4 {
            fill(&mut b, 0, w, 10 + w as u64, false);
        }
        assert_eq!(b.relocation_victim(0, ZivProperty::NotInPrC), None);
    }

    #[test]
    fn relocation_intervals_recorded() {
        let mut b = bank_lru();
        b.record_relocation(100);
        b.record_relocation(228);
        assert_eq!(b.relocation_intervals.total(), 1);
        assert_eq!(b.relocation_intervals.count_in_bucket(7), 1); // 128 cycles
    }
}
