//! One sparse-directory slice: the tagged set-associative structure
//! co-located with an LLC bank, tracking every privately cached block
//! whose home is that bank.

use crate::entry::DirEntryState;
use ziv_cache::{ProbeOutcome, SetAssocArray};
use ziv_common::ids::{SetIdx, WayIdx};
use ziv_common::{CacheGeometry, LineAddr};
use ziv_replacement::{AccessCtx, Nru, ReplacementPolicy};

/// A directory slice with Table I's 1-bit NRU replacement.
#[derive(Debug)]
pub struct DirectorySlice {
    array: SetAssocArray<DirEntryState>,
    nru: Nru,
    /// Right-shift applied to line addresses before set indexing (the
    /// bank-interleaving bits, which are constant within a slice).
    bank_shift: u32,
}

/// Neutral context for the NRU hooks (NRU ignores everything but the
/// touched way).
fn nru_ctx() -> AccessCtx {
    AccessCtx::demand(LineAddr::new(0), 0, ziv_common::CoreId::new(0), 0, 0)
}

impl DirectorySlice {
    /// Creates an empty slice of the given geometry; `bank_shift` is
    /// log2 of the LLC bank count.
    pub fn new(geom: CacheGeometry, bank_shift: u32) -> Self {
        DirectorySlice {
            array: SetAssocArray::new(geom),
            nru: Nru::new(geom),
            bank_shift,
        }
    }

    /// The slice's geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.array.geometry()
    }

    #[inline]
    fn set_of(&self, line: LineAddr) -> SetIdx {
        let within = line.raw() >> self.bank_shift;
        (within & (self.geometry().sets as u64 - 1)) as SetIdx
    }

    #[inline]
    fn tag_of(&self, line: LineAddr) -> u64 {
        (line.raw() >> self.bank_shift) >> self.geometry().sets.trailing_zeros()
    }

    /// Reconstructs the line tracked at `(set, way)`.
    pub fn line_at(&self, set: SetIdx, way: WayIdx, bank_index: u64) -> LineAddr {
        let tag = self.array.tag(set, way);
        let within = (tag << self.geometry().sets.trailing_zeros()) | set as u64;
        LineAddr::new((within << self.bank_shift) | bank_index)
    }

    /// Looks up the entry tracking `line` without touching NRU state
    /// (pure query — used by presence checks on behalf of QBS/SHARP/ZIV
    /// properties).
    pub fn probe(&self, line: LineAddr) -> Option<(SetIdx, WayIdx)> {
        let set = self.set_of(line);
        self.array.lookup(set, self.tag_of(line)).map(|w| (set, w))
    }

    /// One walk of `line`'s set: its set, the way of the entry tracking
    /// it (if any), and the set's first invalid way (if any) — for
    /// [`DirectorySlice::install`] when it is not tracked.
    pub(crate) fn probe_or_invalid(&self, line: LineAddr) -> (SetIdx, ProbeOutcome) {
        let set = self.set_of(line);
        (set, self.array.lookup_or_invalid(set, self.tag_of(line)))
    }

    /// Looks up `line` and touches the entry's NRU bit (a demand lookup).
    pub fn lookup(&mut self, line: LineAddr) -> Option<(SetIdx, WayIdx)> {
        let hit = self.probe(line);
        if let Some((set, way)) = hit {
            self.nru.on_hit(set, way, &nru_ctx());
        }
        hit
    }

    /// State of the entry at `(set, way)`.
    pub fn state(&self, set: SetIdx, way: WayIdx) -> &DirEntryState {
        self.array.state(set, way)
    }

    /// Mutable state of the entry at `(set, way)`.
    pub fn state_mut(&mut self, set: SetIdx, way: WayIdx) -> &mut DirEntryState {
        self.array.state_mut(set, way)
    }

    /// Allocates an entry for `line`. If the target set is full, the
    /// NRU victim is evicted and returned as
    /// `(victim_line_within_slice_tag_bits, victim_state)` — the caller
    /// owns the consequences (back-invalidation, or ZeroDEV spill).
    ///
    /// Returns `(set, way, evicted)`.
    ///
    /// # Panics
    ///
    /// Panics if `line` already has an entry (callers must check first).
    pub fn allocate(
        &mut self,
        line: LineAddr,
        state: DirEntryState,
        bank_index: u64,
    ) -> (SetIdx, WayIdx, Option<(LineAddr, DirEntryState)>) {
        // Fused walk: the duplicate-entry check and the invalid-way scan
        // share one O(ways) pass over the set.
        let (set, probe) = self.probe_or_invalid(line);
        assert!(
            probe.hit.is_none(),
            "allocate() on a line that already has a directory entry"
        );
        self.install(line, set, probe.invalid, state, bank_index)
    }

    /// Installs an entry for the untracked `line` in its `set`, as
    /// [`DirectorySlice::allocate`] does, given the set's first invalid
    /// way from [`DirectorySlice::probe_or_invalid`].
    pub(crate) fn install(
        &mut self,
        line: LineAddr,
        set: SetIdx,
        invalid: Option<WayIdx>,
        state: DirEntryState,
        bank_index: u64,
    ) -> (SetIdx, WayIdx, Option<(LineAddr, DirEntryState)>) {
        let tag = self.tag_of(line);
        if let Some(way) = invalid {
            self.array.fill(set, way, tag, state);
            self.nru.on_fill(set, way, &nru_ctx());
            return (set, way, None);
        }
        let victim = self.nru.victim(set, &nru_ctx());
        let evicted_line = self.line_at(set, victim, bank_index);
        let (_, old_state) = self
            .array
            .fill(set, victim, tag, state)
            .expect("victim was valid");
        self.nru.on_evict(set, victim);
        self.nru.on_fill(set, victim, &nru_ctx());
        (set, victim, Some((evicted_line, old_state)))
    }

    /// Frees the entry tracking `line`; returns its state.
    pub fn free(&mut self, line: LineAddr) -> Option<DirEntryState> {
        let (set, way) = self.probe(line)?;
        self.free_at(set, way)
    }

    /// Frees the entry at `(set, way)`, as found by a probe; returns its
    /// state.
    pub(crate) fn free_at(&mut self, set: SetIdx, way: WayIdx) -> Option<DirEntryState> {
        self.nru.on_evict(set, way);
        self.array.invalidate(set, way).map(|(_, s)| s)
    }

    /// Number of valid entries (for occupancy stats and tests).
    pub fn occupancy(&self) -> usize {
        self.array.total_valid()
    }

    /// Every valid entry in the slice as `(tracked line, state)` — the
    /// audit walk. `bank_index` is needed to reconstruct full line
    /// addresses from stored tags.
    pub fn entries(&self, bank_index: u64) -> Vec<(LineAddr, DirEntryState)> {
        let mut out = Vec::with_capacity(self.array.total_valid());
        for set in 0..self.geometry().sets {
            for w in self.array.iter_set(set) {
                out.push((self.line_at(set, w.way, bank_index), *w.state));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ziv_common::CoreId;

    fn slice() -> DirectorySlice {
        // 4 sets x 2 ways, 8 banks (shift 3).
        DirectorySlice::new(CacheGeometry::new(4, 2), 3)
    }

    /// A line homed at bank 0 whose slice set is `set` and tag is `tag`.
    fn line_for(set: u64, tag: u64) -> LineAddr {
        LineAddr::new((tag << 2 | set) << 3)
    }

    #[test]
    fn allocate_then_probe() {
        let mut s = slice();
        let l = line_for(1, 7);
        let (set, way, ev) = s.allocate(l, DirEntryState::for_fill(CoreId::new(0)), 0);
        assert!(ev.is_none());
        assert_eq!(s.probe(l), Some((set, way)));
        assert_eq!(s.occupancy(), 1);
    }

    #[test]
    fn line_at_reconstructs_address() {
        let mut s = slice();
        let l = line_for(2, 5);
        let (set, way, _) = s.allocate(l, DirEntryState::default(), 0);
        assert_eq!(s.line_at(set, way, 0), l);
    }

    #[test]
    fn full_set_evicts_nru_victim() {
        let mut s = slice();
        let a = line_for(1, 1);
        let b = line_for(1, 2);
        let c = line_for(1, 3);
        s.allocate(a, DirEntryState::default(), 0);
        s.allocate(b, DirEntryState::default(), 0);
        // Touch b so a becomes the NRU victim.
        s.lookup(b);
        let (_, _, ev) = s.allocate(c, DirEntryState::default(), 0);
        let (ev_line, _) = ev.expect("must evict");
        assert_eq!(ev_line, a);
        assert_eq!(s.probe(a), None);
        assert!(s.probe(b).is_some());
        assert!(s.probe(c).is_some());
    }

    #[test]
    fn free_removes_entry() {
        let mut s = slice();
        let l = line_for(0, 9);
        s.allocate(l, DirEntryState::for_fill(CoreId::new(1)), 0);
        let st = s.free(l).unwrap();
        assert!(st.sharers.contains(CoreId::new(1)));
        assert_eq!(s.probe(l), None);
        assert!(s.free(l).is_none());
    }

    #[test]
    #[should_panic(expected = "already has a directory entry")]
    fn double_allocate_panics() {
        let mut s = slice();
        let l = line_for(0, 1);
        s.allocate(l, DirEntryState::default(), 0);
        s.allocate(l, DirEntryState::default(), 0);
    }
}
