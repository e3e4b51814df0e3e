//! The full sparse directory: one slice per LLC bank, plus the ZeroDEV
//! spill mode and the update protocol the cache hierarchy drives.

use crate::entry::{DirEntryState, LlcLocation};
use crate::slice::DirectorySlice;
use std::collections::HashMap;
use ziv_common::config::SystemConfig;
use ziv_common::{BankId, CoreId, LineAddr};

/// Directory eviction handling mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DirectoryMode {
    /// Traditional protocol: a directory eviction back-invalidates the
    /// privately cached copies of the tracked block (Section III-F).
    Mesi,
    /// ZeroDEV integration: evicted entries continue to be tracked, so no
    /// directory-eviction back-invalidations are generated. Functionally
    /// modeled with an unbounded spill map (see DESIGN.md §5.4).
    ZeroDev,
}

/// An entry evicted from the finite directory structure under
/// [`DirectoryMode::Mesi`]; the cache hierarchy must back-invalidate its
/// sharers and, if it tracked a relocated block, invalidate that block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedEntry {
    /// The block the entry was tracking.
    pub line: LineAddr,
    /// The entry's final state.
    pub state: DirEntryState,
}

/// Aggregate directory statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirectoryStats {
    /// Entries allocated.
    pub allocations: u64,
    /// Entries evicted from the finite structure (MESI mode).
    pub evictions: u64,
    /// Entries spilled (ZeroDEV mode).
    pub spills: u64,
    /// Entries freed because the last private copy left.
    pub frees: u64,
}

/// Outcome of removing a core from a block's sharer set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemovalOutcome {
    /// The block had no directory entry (e.g. already back-invalidated).
    NotTracked,
    /// Other cores still hold the block.
    StillShared,
    /// `core` held the last private copy; the entry has been freed and
    /// its final state is returned (the ZIV controller checks
    /// `state.relocated` to invalidate the relocated LLC block,
    /// Section III-C2).
    LastCopy(DirEntryState),
}

/// The sparse directory: per-bank slices plus mode handling.
#[derive(Debug)]
pub struct SparseDirectory {
    slices: Vec<DirectorySlice>,
    mode: DirectoryMode,
    /// ZeroDEV's conceptual unbounded tracking of entries evicted from
    /// the finite structure.
    spill: HashMap<LineAddr, DirEntryState>,
    banks: usize,
    stats: DirectoryStats,
}

impl SparseDirectory {
    /// Builds the directory for a system configuration (geometry per
    /// Section III-A / [`SystemConfig::dir_slice_geometry`]).
    pub fn new(cfg: &SystemConfig, mode: DirectoryMode) -> Self {
        let geom = cfg.dir_slice_geometry();
        let bank_shift = cfg.llc.banks.trailing_zeros();
        let slices = (0..cfg.llc.banks)
            .map(|_| DirectorySlice::new(geom, bank_shift))
            .collect();
        SparseDirectory {
            slices,
            mode,
            spill: HashMap::new(),
            banks: cfg.llc.banks,
            stats: DirectoryStats::default(),
        }
    }

    /// The configured mode.
    pub fn mode(&self) -> DirectoryMode {
        self.mode
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> DirectoryStats {
        self.stats
    }

    #[inline]
    fn bank_of(&self, line: LineAddr) -> BankId {
        BankId::new((line.raw() & (self.banks as u64 - 1)) as usize)
    }

    /// Read-only lookup of the state tracking `line` (slice, then spill).
    pub fn probe(&self, line: LineAddr) -> Option<&DirEntryState> {
        let bank = self.bank_of(line);
        if let Some((set, way)) = self.slices[bank.index()].probe(line) {
            return Some(self.slices[bank.index()].state(set, way));
        }
        self.spill.get(&line)
    }

    /// Mutable lookup of the state tracking `line`.
    pub fn probe_mut(&mut self, line: LineAddr) -> Option<&mut DirEntryState> {
        let bank = self.bank_of(line);
        if let Some((set, way)) = self.slices[bank.index()].probe(line) {
            return Some(self.slices[bank.index()].state_mut(set, way));
        }
        self.spill.get_mut(&line)
    }

    /// The central question of every proposal in the paper: is this block
    /// resident in any private cache? Exact, because the directory is
    /// kept up-to-date by eviction notices.
    #[inline]
    pub fn is_privately_cached(&self, line: LineAddr) -> bool {
        self.probe(line).is_some_and(|s| !s.sharers.is_empty())
    }

    /// Where `line`'s relocated LLC copy lives, if it is relocated.
    pub fn relocated_location(&self, line: LineAddr) -> Option<LlcLocation> {
        self.probe(line).and_then(|s| s.relocated)
    }

    /// Records a fill of `line` into `core`'s private caches: adds the
    /// sharer to an existing entry, or allocates a new one. A new
    /// allocation may evict another entry (MESI mode), which the caller
    /// must back-invalidate. One walk of the line's slice set answers
    /// both the lookup and where a new entry goes.
    pub fn record_fill(&mut self, line: LineAddr, core: CoreId) -> Option<EvictedEntry> {
        let bank = self.bank_of(line);
        let slice = &mut self.slices[bank.index()];
        let (set, probe) = slice.probe_or_invalid(line);
        if let Some(way) = probe.hit {
            slice.state_mut(set, way).sharers.insert(core);
            return None;
        }
        if let Some(state) = self.spill.get_mut(&line) {
            state.sharers.insert(core);
            return None;
        }
        self.stats.allocations += 1;
        let (_, _, evicted) = slice.install(
            line,
            set,
            probe.invalid,
            DirEntryState::for_fill(core),
            bank.index() as u64,
        );
        let (ev_line, ev_state) = evicted?;
        match self.mode {
            DirectoryMode::Mesi => {
                self.stats.evictions += 1;
                Some(EvictedEntry {
                    line: ev_line,
                    state: ev_state,
                })
            }
            DirectoryMode::ZeroDev => {
                self.stats.spills += 1;
                self.spill.insert(ev_line, ev_state);
                None
            }
        }
    }

    /// Allocates a fresh entry for `line` filled by `core`.
    ///
    /// # Panics
    ///
    /// Panics if `line` is already tracked (use
    /// [`SparseDirectory::record_fill`] for the general path).
    pub fn allocate(&mut self, line: LineAddr, core: CoreId) -> Option<EvictedEntry> {
        assert!(self.probe(line).is_none(), "allocate() on a tracked line");
        self.record_fill(line, core)
    }

    /// Removes `core` from `line`'s sharer set (a private-cache eviction
    /// notice or writeback reached the home slice). Frees the entry when
    /// the last copy leaves, per Section III-C2.
    pub fn remove_sharer(&mut self, line: LineAddr, core: CoreId) -> RemovalOutcome {
        let bank = self.bank_of(line);
        let slice = &mut self.slices[bank.index()];
        if let Some((set, way)) = slice.probe(line) {
            let state = slice.state_mut(set, way);
            if state.remove_core(core) {
                let final_state = *state;
                slice.free_at(set, way);
                self.stats.frees += 1;
                return RemovalOutcome::LastCopy(final_state);
            }
            return RemovalOutcome::StillShared;
        }
        if let Some(state) = self.spill.get_mut(&line) {
            if state.remove_core(core) {
                let final_state = *state;
                self.spill.remove(&line);
                self.stats.frees += 1;
                return RemovalOutcome::LastCopy(final_state);
            }
            return RemovalOutcome::StillShared;
        }
        RemovalOutcome::NotTracked
    }

    /// Frees the entry tracking `line` regardless of its sharer count —
    /// the back-invalidation path, where every private copy has just been
    /// forcefully invalidated. Returns the entry's final state.
    pub fn free_line(&mut self, line: LineAddr) -> Option<DirEntryState> {
        let bank = self.bank_of(line);
        if let Some(state) = self.slices[bank.index()].free(line) {
            self.stats.frees += 1;
            return Some(state);
        }
        let state = self.spill.remove(&line);
        if state.is_some() {
            self.stats.frees += 1;
        }
        state
    }

    /// Marks `line` as relocated to `loc` (or clears it with `None`).
    ///
    /// # Panics
    ///
    /// Panics if `line` has no directory entry: only privately cached
    /// blocks are ever relocated (the ZIV invariant).
    pub fn set_relocated(&mut self, line: LineAddr, loc: Option<LlcLocation>) {
        let state = self
            .probe_mut(line)
            .expect("relocating a block that is not privately cached");
        state.relocated = loc;
    }

    /// Every tracked block and its state — finite slices plus the
    /// ZeroDEV spill. This is the directory side of the audit walk
    /// (directory → private-cache consistency); order is deterministic
    /// for the slices and unspecified for the spill.
    pub fn iter_entries(&self) -> Vec<(LineAddr, DirEntryState)> {
        let mut out = Vec::with_capacity(self.occupancy());
        for (b, slice) in self.slices.iter().enumerate() {
            out.extend(slice.entries(b as u64));
        }
        out.extend(self.spill.iter().map(|(l, s)| (*l, *s)));
        out
    }

    /// Number of tracked blocks (finite structure + spill).
    pub fn occupancy(&self) -> usize {
        self.slices.iter().map(|s| s.occupancy()).sum::<usize>() + self.spill.len()
    }

    /// Number of spilled entries (ZeroDEV diagnostics).
    pub fn spill_occupancy(&self) -> usize {
        self.spill.len()
    }

    /// Per-bank occupancy of the finite structure (spill excluded) —
    /// the observability layer's end-of-run directory-pressure summary.
    pub fn slice_occupancies(&self) -> Vec<usize> {
        self.slices.iter().map(|s| s.occupancy()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ziv_common::config::DirRatio;

    fn small_cfg() -> SystemConfig {
        // Tiny directory so eviction paths are easy to trigger.
        SystemConfig::scaled().with_dir_ratio(DirRatio::Quarter)
    }

    fn c(i: usize) -> CoreId {
        CoreId::new(i)
    }

    #[test]
    fn fill_then_presence() {
        let mut d = SparseDirectory::new(&small_cfg(), DirectoryMode::Mesi);
        let l = LineAddr::new(0x40);
        assert!(!d.is_privately_cached(l));
        assert!(d.record_fill(l, c(0)).is_none());
        assert!(d.is_privately_cached(l));
        assert_eq!(d.occupancy(), 1);
    }

    #[test]
    fn second_sharer_reuses_entry() {
        let mut d = SparseDirectory::new(&small_cfg(), DirectoryMode::Mesi);
        let l = LineAddr::new(0x40);
        d.record_fill(l, c(0));
        d.record_fill(l, c(1));
        assert_eq!(d.occupancy(), 1);
        assert_eq!(d.probe(l).unwrap().sharers.count(), 2);
    }

    #[test]
    fn last_copy_frees_entry() {
        let mut d = SparseDirectory::new(&small_cfg(), DirectoryMode::Mesi);
        let l = LineAddr::new(0x40);
        d.record_fill(l, c(0));
        d.record_fill(l, c(1));
        assert_eq!(d.remove_sharer(l, c(0)), RemovalOutcome::StillShared);
        assert!(matches!(
            d.remove_sharer(l, c(1)),
            RemovalOutcome::LastCopy(_)
        ));
        assert!(!d.is_privately_cached(l));
        assert_eq!(d.stats().frees, 1);
    }

    #[test]
    fn untracked_removal_reports_not_tracked() {
        let mut d = SparseDirectory::new(&small_cfg(), DirectoryMode::Mesi);
        assert_eq!(
            d.remove_sharer(LineAddr::new(1), c(0)),
            RemovalOutcome::NotTracked
        );
    }

    #[test]
    fn mesi_mode_reports_evictions() {
        let cfg = small_cfg();
        let mut d = SparseDirectory::new(&cfg, DirectoryMode::Mesi);
        let geom = cfg.dir_slice_geometry();
        // Flood one slice set: lines homed at bank 0 mapping to slice set 0.
        let mut evicted = 0;
        for i in 0..(geom.ways as u64 + 4) {
            let line = LineAddr::new(i * (geom.sets as u64) * cfg.llc.banks as u64);
            if d.record_fill(line, c(0)).is_some() {
                evicted += 1;
            }
        }
        assert_eq!(evicted, 4);
        assert_eq!(d.stats().evictions, 4);
    }

    #[test]
    fn zerodev_mode_spills_instead_of_evicting() {
        let cfg = small_cfg();
        let mut d = SparseDirectory::new(&cfg, DirectoryMode::ZeroDev);
        let geom = cfg.dir_slice_geometry();
        for i in 0..(geom.ways as u64 + 4) {
            let line = LineAddr::new(i * (geom.sets as u64) * cfg.llc.banks as u64);
            assert!(
                d.record_fill(line, c(0)).is_none(),
                "ZeroDEV never back-invalidates"
            );
        }
        assert_eq!(d.stats().spills, 4);
        assert_eq!(d.spill_occupancy(), 4);
        // Spilled entries are still tracked.
        let first = LineAddr::new(0);
        assert!(d.is_privately_cached(first));
        assert!(matches!(
            d.remove_sharer(first, c(0)),
            RemovalOutcome::LastCopy(_)
        ));
    }

    #[test]
    fn relocated_state_round_trips() {
        let mut d = SparseDirectory::new(&small_cfg(), DirectoryMode::Mesi);
        let l = LineAddr::new(0x99);
        d.record_fill(l, c(3));
        let loc = LlcLocation {
            bank: ziv_common::BankId::new(1),
            set: 7,
            way: 2,
        };
        d.set_relocated(l, Some(loc));
        assert_eq!(d.relocated_location(l), Some(loc));
        d.set_relocated(l, None);
        assert_eq!(d.relocated_location(l), None);
    }

    #[test]
    #[should_panic(expected = "not privately cached")]
    fn relocating_untracked_line_panics() {
        let mut d = SparseDirectory::new(&small_cfg(), DirectoryMode::Mesi);
        d.set_relocated(LineAddr::new(5), None);
    }

    #[test]
    fn slice_occupancies_sum_to_finite_occupancy() {
        let mut d = SparseDirectory::new(&small_cfg(), DirectoryMode::Mesi);
        // Lines 0 and 1 land in different banks (low-order interleave).
        d.record_fill(LineAddr::new(0), c(0));
        d.record_fill(LineAddr::new(1), c(1));
        let per_bank = d.slice_occupancies();
        assert_eq!(per_bank.len(), small_cfg().llc.banks);
        assert_eq!(per_bank.iter().sum::<usize>(), d.occupancy());
        assert_eq!(per_bank.iter().filter(|&&o| o > 0).count(), 2);
    }

    #[test]
    fn dirty_ownership_cleared_on_owner_eviction() {
        let mut d = SparseDirectory::new(&small_cfg(), DirectoryMode::Mesi);
        let l = LineAddr::new(0x123);
        d.record_fill(l, c(0));
        d.probe_mut(l).unwrap().set_dirty_owner(c(0));
        d.record_fill(l, c(1));
        assert_eq!(d.remove_sharer(l, c(0)), RemovalOutcome::StillShared);
        assert_eq!(d.probe(l).unwrap().dirty_owner, None);
    }
}
