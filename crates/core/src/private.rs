//! The per-core private cache hierarchy: L1 instruction, L1 data, and a
//! unified private L2, kept **non-inclusive** among themselves (the
//! paper's footnote 3). The hierarchy emits a dataless *eviction notice*
//! (or a writeback, when dirty) exactly when a block leaves the core's
//! last private copy — the protocol that keeps the sparse directory
//! up-to-date (Section III-A).

use ziv_char::L2BlockMeta;
use ziv_common::{CacheGeometry, LineAddr};

/// Result of a private-hierarchy lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrivLookup {
    /// Hit in the L1 (instruction or data).
    L1Hit {
        /// The L1 copy was dirty before this access.
        owned: bool,
    },
    /// Miss in L1, hit in the private L2.
    L2Hit {
        /// The L2 copy was dirty before this access.
        owned: bool,
    },
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

/// One true-LRU private cache. Each set keeps its valid lines in
/// recency order, most recently used first: a hit moves its line to the
/// front, a fill shifts the set down one slot and writes at the front (a
/// full set gives up its last line, the least recently filled or hit),
/// and an invalidation closes the gap.
#[derive(Debug)]
struct Level<S> {
    /// Set `s` owns slots `s * ways .. (s + 1) * ways`; the first
    /// `len[s]` of them hold its lines' whole addresses.
    lines: Vec<u64>,
    /// The state of the line in the same slot.
    states: Vec<S>,
    /// Valid lines per set.
    len: Vec<u8>,
    ways: usize,
    set_mask: u64,
}

impl<S: Copy + Default> Level<S> {
    fn new(geom: CacheGeometry) -> Self {
        let slots = geom.blocks() as usize;
        Level {
            lines: vec![0; slots],
            states: vec![S::default(); slots],
            len: vec![0; geom.sets as usize],
            ways: geom.ways as usize,
            set_mask: geom.sets as u64 - 1,
        }
    }

    /// `line`'s set index and its first slot.
    #[inline]
    fn set_of(&self, line: u64) -> (usize, usize) {
        let set = (line & self.set_mask) as usize;
        (set, set * self.ways)
    }

    /// The slot holding `line`, if this level holds it.
    #[inline]
    fn find(&self, line: LineAddr) -> Option<usize> {
        let (set, base) = self.set_of(line.raw());
        let valid = &self.lines[base..base + self.len[set] as usize];
        valid
            .iter()
            .position(|&l| l == line.raw())
            .map(|i| base + i)
    }

    /// A demand hit: moves `line` to the front of its set and returns its
    /// state; `None` on a miss.
    #[inline]
    fn touch(&mut self, line: LineAddr) -> Option<&mut S> {
        let slot = self.find(line)?;
        let (_, base) = self.set_of(line.raw());
        let state = self.states[slot];
        push_front(&mut self.lines[base..=slot], line.raw());
        push_front(&mut self.states[base..=slot], state);
        Some(&mut self.states[base])
    }

    /// Fills `line`, which this level does not hold, at the front of its
    /// set; returns the line a full set gave up, with its state.
    fn fill(&mut self, line: LineAddr, state: S) -> Option<(LineAddr, S)> {
        debug_assert!(self.find(line).is_none(), "{line} filled twice");
        let (set, base) = self.set_of(line.raw());
        let len = self.len[set] as usize;
        let end = base + (len + 1).min(self.ways);
        let last_line = push_front(&mut self.lines[base..end], line.raw());
        let last_state = push_front(&mut self.states[base..end], state);
        self.len[set] = (end - base) as u8;
        (len == self.ways).then(|| (LineAddr::new(last_line), last_state))
    }

    fn invalidate(&mut self, line: LineAddr) -> Option<S> {
        let slot = self.find(line)?;
        let (set, base) = self.set_of(line.raw());
        let end = base + self.len[set] as usize;
        let state = self.states[slot];
        self.lines.copy_within(slot + 1..end, slot);
        self.states.copy_within(slot + 1..end, slot);
        self.len[set] -= 1;
        Some(state)
    }

    fn state(&self, line: LineAddr) -> Option<&S> {
        self.find(line).map(|slot| &self.states[slot])
    }

    fn state_mut(&mut self, line: LineAddr) -> Option<&mut S> {
        self.find(line).map(|slot| &mut self.states[slot])
    }

    fn occupancy(&self) -> usize {
        self.len.iter().map(|&n| n as usize).sum()
    }

    /// Every line this level holds, set by set.
    fn resident(&self) -> impl Iterator<Item = LineAddr> + '_ {
        let ways = self.ways;
        self.len.iter().enumerate().flat_map(move |(set, &n)| {
            let base = set * ways;
            self.lines[base..base + n as usize]
                .iter()
                .map(|&l| LineAddr::new(l))
        })
    }
}

/// Writes `x` into the front of `slots`, moving every slot down one;
/// returns the value moved out of the last slot. One pass that carries
/// each value in a register: a set holds a few ways, too few for a
/// `memmove` call to pay.
#[inline(always)]
fn push_front<T: Copy>(slots: &mut [T], x: T) -> T {
    slots
        .iter_mut()
        .fold(x, |carry, slot| std::mem::replace(slot, carry))
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
        self.l1d.find(line).is_some()
            || self.l2.find(line).is_some()
            || self.l1i.find(line).is_some()
    }

    /// Whether the core holds a dirty copy of `line`.
    pub fn is_dirty(&self, line: LineAddr) -> bool {
        self.l1d.state(line).is_some_and(|s| s.dirty)
            || self.l2.state(line).is_some_and(|s| s.dirty)
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
    /// leaving the hierarchy are appended to `notices`. A hit reports
    /// whether the copy that hit was dirty before the access.
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
        if let Some(s) = l1.touch(line) {
            let owned = s.dirty;
            s.dirty |= is_write;
            return PrivLookup::L1Hit { owned };
        }
        if let Some(s) = self.l2.touch(line) {
            let owned = s.dirty;
            s.meta.on_reuse();
            self.fill_l1(line, is_instr, is_write, notices);
            return PrivLookup::L2Hit { owned };
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
        if let Some(s) = other.state(line) {
            // Rare: the same line in the other L1; presence persists.
            // That copy was handed the same metadata when the L2 copy
            // left, since both L1s held the line then.
            debug_assert_eq!(s.deferred, state.deferred);
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

    /// Every line currently present in the hierarchy, ascending and
    /// without duplicates (tests and inclusion-invariant checks;
    /// O(capacity)).
    pub fn resident_lines(&self) -> Vec<LineAddr> {
        let mut lines: Vec<LineAddr> = self
            .l1i
            .resident()
            .chain(self.l1d.resident())
            .chain(self.l2.resident())
            .collect();
        lines.sort_unstable();
        lines.dedup();
        lines
    }
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
        assert_eq!(
            h.access(line(1), false, false, &mut n),
            PrivLookup::L1Hit { owned: false }
        );
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
        assert_eq!(
            h.access(line(1), false, false, &mut n),
            PrivLookup::L2Hit { owned: false }
        );
        assert_eq!(
            h.access(line(1), false, false, &mut n),
            PrivLookup::L1Hit { owned: false }
        );
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
        assert_eq!(
            h.access(line(2), true, false, &mut n),
            PrivLookup::L1Hit { owned: false }
        );
        // A data access to the same line misses L1D but hits L2.
        assert_eq!(
            h.access(line(2), false, false, &mut n),
            PrivLookup::L2Hit { owned: false }
        );
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
        assert_eq!(
            h.access(line(1), false, false, &mut n),
            PrivLookup::L2Hit { owned: false }
        );
        for l in [3u64, 5] {
            let _ = h.access(line(l), false, false, &mut n);
        }
        assert_eq!(
            h.access(line(1), false, false, &mut n),
            PrivLookup::L2Hit { owned: false }
        );
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
