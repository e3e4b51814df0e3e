//! The per-core private cache hierarchy: L1 instruction, L1 data, and a
//! unified private L2, kept **non-inclusive** among themselves (the
//! paper's footnote 3). The hierarchy emits a dataless *eviction notice*
//! (or a writeback, when dirty) exactly when a block leaves the core's
//! last private copy — the protocol that keeps the sparse directory
//! up-to-date (Section III-A).

use ziv_cache::SetAssocArray;
use ziv_char::L2BlockMeta;
use ziv_common::{CacheGeometry, CoreId, LineAddr};
use ziv_replacement::{AccessCtx, Lru, ReplacementPolicy};

/// Result of a private-hierarchy lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrivLookup {
    /// Hit in the L1 (instruction or data).
    L1Hit,
    /// Miss in L1, hit in the private L2.
    L2Hit,
    /// Miss in both; the shared LLC must be consulted.
    Miss,
}

/// A block has left the core's private hierarchy entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictionNotice {
    /// The departing block.
    pub line: LineAddr,
    /// Whether the departing copy is dirty (notice becomes a writeback).
    pub dirty: bool,
    /// CHAR metadata accumulated while the block lived in the L2.
    pub meta: L2BlockMeta,
}

#[derive(Debug, Clone, Copy, Default)]
struct L1State {
    dirty: bool,
    /// CHAR metadata of the line's L2 copy, handed over when that copy
    /// was evicted while this L1 still held the line: the eviction
    /// notice is deferred until the last L1 copy leaves, and carries it.
    deferred: Option<L2BlockMeta>,
}

#[derive(Debug, Clone, Copy, Default)]
struct L2State {
    dirty: bool,
    meta: L2BlockMeta,
}

#[derive(Debug)]
struct Level<S> {
    array: SetAssocArray<S>,
    lru: Lru,
    geom: CacheGeometry,
}

impl<S: Default + Clone> Level<S> {
    fn new(geom: CacheGeometry) -> Self {
        Level {
            array: SetAssocArray::new(geom),
            lru: Lru::new(geom),
            geom,
        }
    }

    fn lookup(&self, line: LineAddr) -> Option<u8> {
        self.array
            .lookup(self.geom.set_of(line), self.geom.tag_of(line))
    }

    fn touch(&mut self, line: LineAddr, way: u8) {
        let ctx = AccessCtx::demand(line, 0, CoreId::new(0), 0, 0);
        self.lru.on_hit(self.geom.set_of(line), way, &ctx);
    }

    /// Fills `line`, evicting if needed; returns `(evicted_line, state)`.
    fn fill(&mut self, line: LineAddr, state: S) -> Option<(LineAddr, S)> {
        let set = self.geom.set_of(line);
        let ctx = AccessCtx::demand(line, 0, CoreId::new(0), 0, 0);
        let way = match self.array.invalid_way(set) {
            Some(w) => w,
            None => {
                let w = self.lru.victim(set, &ctx);
                self.lru.on_evict(set, w);
                w
            }
        };
        let old = self.array.fill(set, way, self.geom.tag_of(line), state);
        self.lru.on_fill(set, way, &ctx);
        old.map(|(tag, s)| (self.geom.line_of(tag, set), s))
    }

    fn invalidate(&mut self, line: LineAddr) -> Option<S> {
        let set = self.geom.set_of(line);
        let way = self.array.lookup(set, self.geom.tag_of(line))?;
        self.lru.on_evict(set, way);
        self.array.invalidate(set, way).map(|(_, s)| s)
    }

    fn state_mut(&mut self, line: LineAddr) -> Option<&mut S> {
        let set = self.geom.set_of(line);
        let way = self.array.lookup(set, self.geom.tag_of(line))?;
        Some(self.array.state_mut(set, way))
    }

    fn occupancy(&self) -> usize {
        self.array.total_valid()
    }
}

impl Level<L1State> {
    /// Hands an evicted L2 copy's metadata (and dirty data, if `dirty`)
    /// to this L1's copy of `line`; `false` if this L1 does not hold it.
    fn defer(&mut self, line: LineAddr, meta: L2BlockMeta, dirty: bool) -> bool {
        let Some(s) = self.state_mut(line) else {
            return false;
        };
        s.dirty |= dirty;
        s.deferred = Some(meta);
        true
    }
}

/// One core's private L1I + L1D + L2.
#[derive(Debug)]
pub struct PrivateHierarchy {
    l1i: Level<L1State>,
    l1d: Level<L1State>,
    l2: Level<L2State>,
}

impl PrivateHierarchy {
    /// Builds the hierarchy from the system configuration's geometries.
    pub fn new(l1i: CacheGeometry, l1d: CacheGeometry, l2: CacheGeometry) -> Self {
        PrivateHierarchy {
            l1i: Level::new(l1i),
            l1d: Level::new(l1d),
            l2: Level::new(l2),
        }
    }

    /// Whether the core holds `line` in any private cache — the
    /// presence the sparse directory tracks.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.l1d.lookup(line).is_some()
            || self.l2.lookup(line).is_some()
            || self.l1i.lookup(line).is_some()
    }

    /// Whether the core holds a dirty copy of `line`.
    pub fn is_dirty(&self, line: LineAddr) -> bool {
        let in_l1 = self
            .l1d
            .lookup(line)
            .map(|w| self.l1d.array.state(self.l1d.geom.set_of(line), w).dirty);
        let in_l2 = self
            .l2
            .lookup(line)
            .map(|w| self.l2.array.state(self.l2.geom.set_of(line), w).dirty);
        in_l1.unwrap_or(false) || in_l2.unwrap_or(false)
    }

    /// Clears dirty state (the core supplied data and was downgraded).
    pub fn clean(&mut self, line: LineAddr) {
        if let Some(s) = self.l1d.state_mut(line) {
            s.dirty = false;
        }
        if let Some(s) = self.l2.state_mut(line) {
            s.dirty = false;
        }
    }

    /// Performs a demand access. Fills the L1 on an L2 hit. Any blocks
    /// leaving the hierarchy are appended to `notices`.
    pub fn access(
        &mut self,
        line: LineAddr,
        is_instr: bool,
        is_write: bool,
        notices: &mut Vec<EvictionNotice>,
    ) -> PrivLookup {
        debug_assert!(!(is_instr && is_write), "instruction fetches cannot write");
        let l1 = if is_instr {
            &mut self.l1i
        } else {
            &mut self.l1d
        };
        if let Some(way) = l1.lookup(line) {
            l1.touch(line, way);
            if is_write {
                l1.array.state_mut(l1.geom.set_of(line), way).dirty = true;
            }
            return PrivLookup::L1Hit;
        }
        if let Some(way) = self.l2.lookup(line) {
            self.l2.touch(line, way);
            let set = self.l2.geom.set_of(line);
            self.l2.array.state_mut(set, way).meta.on_reuse();
            self.fill_l1(line, is_instr, is_write, notices);
            return PrivLookup::L2Hit;
        }
        PrivLookup::Miss
    }

    /// Fills `line` after it was fetched from the LLC or memory.
    /// `from_llc_hit` feeds CHAR's fill-source attribute.
    pub fn fill_from_shared(
        &mut self,
        line: LineAddr,
        is_instr: bool,
        is_write: bool,
        from_llc_hit: bool,
        notices: &mut Vec<EvictionNotice>,
    ) {
        let state = L2State {
            dirty: false,
            meta: L2BlockMeta::filled(from_llc_hit),
        };
        if let Some((ev_line, ev_state)) = self.l2.fill(line, state) {
            self.handle_l2_eviction(ev_line, ev_state, notices);
        }
        self.fill_l1(line, is_instr, is_write, notices);
    }

    /// Fills `line` into the L2 **only** (a prefetch: the L1 is not
    /// polluted). CHAR metadata records the prefetch attribute.
    pub fn prefetch_fill(
        &mut self,
        line: LineAddr,
        from_llc_hit: bool,
        notices: &mut Vec<EvictionNotice>,
    ) {
        if self.contains(line) {
            return;
        }
        let state = L2State {
            dirty: false,
            meta: L2BlockMeta::prefetched(from_llc_hit),
        };
        if let Some((ev_line, ev_state)) = self.l2.fill(line, state) {
            self.handle_l2_eviction(ev_line, ev_state, notices);
        }
    }

    fn fill_l1(
        &mut self,
        line: LineAddr,
        is_instr: bool,
        is_write: bool,
        notices: &mut Vec<EvictionNotice>,
    ) {
        let l1 = if is_instr {
            &mut self.l1i
        } else {
            &mut self.l1d
        };
        let state = L1State {
            dirty: is_write,
            deferred: None,
        };
        if let Some((ev_line, ev_state)) = l1.fill(line, state) {
            self.handle_l1_eviction(ev_line, ev_state, is_instr, notices);
        }
    }

    fn handle_l2_eviction(
        &mut self,
        line: LineAddr,
        state: L2State,
        notices: &mut Vec<EvictionNotice>,
    ) {
        // The block survives in an L1 (non-inclusive L1/L2): defer the
        // notice. Every L1 copy takes the metadata; the L1D copy also
        // keeps the freshest dirty state (instruction lines are never
        // written).
        let in_l1d = self.l1d.defer(line, state.meta, state.dirty);
        let in_l1i = self.l1i.defer(line, state.meta, false);
        if in_l1d || in_l1i {
            return;
        }
        notices.push(EvictionNotice {
            line,
            dirty: state.dirty,
            meta: state.meta,
        });
    }

    /// `line` left the L1I if `from_l1i`, else the L1D.
    fn handle_l1_eviction(
        &mut self,
        line: LineAddr,
        state: L1State,
        from_l1i: bool,
        notices: &mut Vec<EvictionNotice>,
    ) {
        if let Some(s) = self.l2.state_mut(line) {
            // Still in the L2: merge dirty data down, no notice.
            s.dirty |= state.dirty;
            return;
        }
        let other = if from_l1i { &self.l1d } else { &self.l1i };
        if let Some(way) = other.lookup(line) {
            // Rare: the same line in the other L1; presence persists.
            // That copy was handed the same metadata when the L2 copy
            // left, since both L1s held the line then.
            debug_assert_eq!(
                other.array.state(other.geom.set_of(line), way).deferred,
                state.deferred
            );
            return;
        }
        notices.push(EvictionNotice {
            line,
            dirty: state.dirty,
            meta: state.deferred.unwrap_or_default(),
        });
    }

    /// Forcefully invalidates every private copy of `line` (a
    /// back-invalidation or coherence invalidation). Returns
    /// `Some(dirty)` if any copy existed.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
        let a = self.l1i.invalidate(line).map(|s| s.dirty);
        let b = self.l1d.invalidate(line).map(|s| s.dirty);
        let c = self.l2.invalidate(line).map(|s| s.dirty);
        match (a, b, c) {
            (None, None, None) => None,
            _ => Some(a.unwrap_or(false) | b.unwrap_or(false) | c.unwrap_or(false)),
        }
    }

    /// Valid blocks across the three arrays (diagnostics).
    pub fn occupancy(&self) -> usize {
        self.l1i.occupancy() + self.l1d.occupancy() + self.l2.occupancy()
    }

    /// Iterates over every line currently present in the hierarchy
    /// (tests and inclusion-invariant checks; O(capacity)).
    pub fn resident_lines(&self) -> Vec<LineAddr> {
        let mut lines = Vec::new();
        for level_lines in [
            collect_lines(&self.l1i.array, self.l1i.geom),
            collect_lines(&self.l1d.array, self.l1d.geom),
            collect_lines_l2(&self.l2.array, self.l2.geom),
        ] {
            lines.extend(level_lines);
        }
        lines.sort_unstable();
        lines.dedup();
        lines
    }
}

fn collect_lines(array: &SetAssocArray<L1State>, geom: CacheGeometry) -> Vec<LineAddr> {
    let mut out = Vec::new();
    for set in 0..geom.sets {
        for w in array.iter_set(set) {
            out.push(geom.line_of(w.tag, set));
        }
    }
    out
}

fn collect_lines_l2(array: &SetAssocArray<L2State>, geom: CacheGeometry) -> Vec<LineAddr> {
    let mut out = Vec::new();
    for set in 0..geom.sets {
        for w in array.iter_set(set) {
            out.push(geom.line_of(w.tag, set));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> PrivateHierarchy {
        // Tiny caches: 2-set 2-way L1s, 4-set 2-way L2.
        PrivateHierarchy::new(
            CacheGeometry::new(2, 2),
            CacheGeometry::new(2, 2),
            CacheGeometry::new(4, 2),
        )
    }

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn miss_then_fill_then_hits() {
        let mut h = hierarchy();
        let mut n = Vec::new();
        assert_eq!(h.access(line(1), false, false, &mut n), PrivLookup::Miss);
        h.fill_from_shared(line(1), false, false, true, &mut n);
        assert_eq!(h.access(line(1), false, false, &mut n), PrivLookup::L1Hit);
        assert!(h.contains(line(1)));
        assert!(n.is_empty());
    }

    #[test]
    fn l2_hit_refills_l1() {
        let mut h = hierarchy();
        let mut n = Vec::new();
        h.fill_from_shared(line(1), false, false, false, &mut n);
        // Evict line 1 from L1D (2 sets x 2 ways; lines 1,3,5 share set 1).
        for l in [3u64, 5] {
            h.fill_from_shared(line(l), false, false, false, &mut n);
        }
        assert_eq!(h.access(line(1), false, false, &mut n), PrivLookup::L2Hit);
        assert_eq!(h.access(line(1), false, false, &mut n), PrivLookup::L1Hit);
    }

    #[test]
    fn notice_sent_when_block_leaves_entirely() {
        let mut h = hierarchy();
        let mut n = Vec::new();
        // L2 set 1 holds lines {1, 5}; L1 set 1 holds {1, 3? no: 3 maps
        // to L1 set 1 too}. Fill 1, 5, 9: all map to L2 set 1.
        h.fill_from_shared(line(1), false, false, false, &mut n);
        h.fill_from_shared(line(5), false, false, false, &mut n);
        h.fill_from_shared(line(9), false, false, false, &mut n);
        // L2 evicted line 1; L1D set 1 saw fills 1,5,9 -> line 1 evicted
        // there too. Eventually a notice for line 1 must exist.
        assert!(n.iter().any(|e| e.line == line(1)), "{n:?}");
        assert!(!h.contains(line(1)));
    }

    #[test]
    fn deferred_notice_when_l2_evicts_but_l1_holds() {
        let mut h = hierarchy();
        let mut n = Vec::new();
        // L1D: 2 sets x 2 ways. Lines 1 and 9 land in L1 set 1 and stay.
        h.fill_from_shared(line(1), false, false, false, &mut n);
        h.fill_from_shared(line(9), false, false, false, &mut n);
        // Push line 1 out of L2 (L2 set 1: {1,5,9,13...}).
        h.fill_from_shared(line(5), false, false, false, &mut n);
        h.fill_from_shared(line(13), false, false, false, &mut n);
        // Line 1 may leave L2, but if it survives in L1D there is no
        // notice yet and contains() stays true.
        if h.contains(line(1)) {
            assert!(!n.iter().any(|e| e.line == line(1)));
        }
    }

    #[test]
    fn write_makes_block_dirty_and_notice_carries_it() {
        let mut h = hierarchy();
        let mut n = Vec::new();
        h.fill_from_shared(line(1), false, true, false, &mut n);
        assert!(h.is_dirty(line(1)));
        let inv = h.invalidate(line(1));
        assert_eq!(inv, Some(true));
        assert!(!h.contains(line(1)));
    }

    #[test]
    fn invalidate_absent_line_is_none() {
        let mut h = hierarchy();
        assert_eq!(h.invalidate(line(7)), None);
    }

    #[test]
    fn clean_clears_dirty() {
        let mut h = hierarchy();
        let mut n = Vec::new();
        h.fill_from_shared(line(1), false, true, false, &mut n);
        h.clean(line(1));
        assert!(!h.is_dirty(line(1)));
    }

    #[test]
    fn instruction_fetches_use_l1i() {
        let mut h = hierarchy();
        let mut n = Vec::new();
        h.fill_from_shared(line(2), true, false, false, &mut n);
        assert_eq!(h.access(line(2), true, false, &mut n), PrivLookup::L1Hit);
        // A data access to the same line misses L1D but hits L2.
        assert_eq!(h.access(line(2), false, false, &mut n), PrivLookup::L2Hit);
    }

    #[test]
    fn char_meta_counts_l2_reuses() {
        let mut h = hierarchy();
        let mut n = Vec::new();
        h.fill_from_shared(line(1), false, false, true, &mut n);
        // Evict from L1D, then L2-hit twice.
        for l in [3u64, 5] {
            h.fill_from_shared(line(l), false, false, false, &mut n);
        }
        assert_eq!(h.access(line(1), false, false, &mut n), PrivLookup::L2Hit);
        for l in [3u64, 5] {
            let _ = h.access(line(l), false, false, &mut n);
        }
        assert_eq!(h.access(line(1), false, false, &mut n), PrivLookup::L2Hit);
        // Force line 1 fully out and inspect its notice metadata.
        n.clear();
        h.invalidate(line(3));
        h.invalidate(line(5));
        for l in [5u64, 9, 13, 17] {
            h.fill_from_shared(line(l), false, false, false, &mut n);
        }
        let notice = n.iter().find(|e| e.line == line(1));
        if let Some(e) = notice {
            assert!(e.meta.filled_from_llc_hit);
            assert!(e.meta.reuses >= 2, "L2 reuses recorded: {:?}", e.meta);
        } else {
            // Line 1 must be gone by now.
            assert!(!h.contains(line(1)), "line 1 neither resident nor noticed");
        }
    }

    #[test]
    fn resident_lines_reports_presence() {
        let mut h = hierarchy();
        let mut n = Vec::new();
        h.fill_from_shared(line(1), false, false, false, &mut n);
        h.fill_from_shared(line(2), true, false, false, &mut n);
        let lines = h.resident_lines();
        assert!(lines.contains(&line(1)));
        assert!(lines.contains(&line(2)));
        assert!(h.occupancy() >= 2);
    }
}
