//! Directory entry state: sharer sets, dirty ownership, and the ZIV
//! `Relocated` pointer.

use ziv_common::ids::{SetIdx, WayIdx};
use ziv_common::{BankId, CoreId};

/// A set of sharing cores, stored as a 128-bit vector (the paper's
/// largest evaluated machine is the 128-core TPC-E configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct SharerSet(u128);

impl SharerSet {
    /// The empty sharer set.
    pub const EMPTY: SharerSet = SharerSet(0);

    /// A set containing exactly one core.
    pub fn single(core: CoreId) -> Self {
        SharerSet(1u128 << core.index())
    }

    /// Whether `core` is in the set.
    #[inline]
    pub fn contains(&self, core: CoreId) -> bool {
        self.0 >> core.index() & 1 == 1
    }

    /// Adds a core; returns whether it was newly added.
    #[inline]
    pub fn insert(&mut self, core: CoreId) -> bool {
        let bit = 1u128 << core.index();
        let added = self.0 & bit == 0;
        self.0 |= bit;
        added
    }

    /// Removes a core; returns whether it was present.
    #[inline]
    pub fn remove(&mut self, core: CoreId) -> bool {
        let bit = 1u128 << core.index();
        let present = self.0 & bit != 0;
        self.0 &= !bit;
        present
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Number of sharers.
    #[inline]
    pub fn count(&self) -> u32 {
        self.0.count_ones()
    }

    /// Iterates over the cores in the set, lowest index first. Visits
    /// only the set bits: each step takes the lowest one and clears it.
    pub fn iter(&self) -> impl Iterator<Item = CoreId> + '_ {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let core = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(CoreId::new(core))
        })
    }

    /// Whether `core` is the *only* sharer.
    pub fn is_sole_sharer(&self, core: CoreId) -> bool {
        self.0 == 1u128 << core.index()
    }
}

/// The `<bank id, set id, way id>` tuple recording where a relocated
/// block currently lives in the LLC (Section III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct LlcLocation {
    /// Bank holding the relocated block.
    pub bank: BankId,
    /// Set within the bank.
    pub set: SetIdx,
    /// Way within the set.
    pub way: WayIdx,
}

/// State of one sparse-directory entry.
///
/// The paper's Section III-C4 storage analysis: a baseline entry holds a
/// sharer bitvector plus 2–3 protocol state bits; the ZIV design widens
/// it with a `Relocated` bit and an 18-bit LLC location (28/29 bits total
/// for the 8-core machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DirEntryState {
    /// Cores holding a copy of the block.
    pub sharers: SharerSet,
    /// The core holding the block modified (M state), if any. Invariant:
    /// a dirty owner is always a member of `sharers` and is unique.
    pub dirty_owner: Option<CoreId>,
    /// ZIV `Relocated` state: where the (relocated) LLC copy lives.
    pub relocated: Option<LlcLocation>,
}

impl DirEntryState {
    /// A fresh entry for a block just filled into `core`'s private
    /// caches.
    pub fn for_fill(core: CoreId) -> Self {
        DirEntryState {
            sharers: SharerSet::single(core),
            ..Default::default()
        }
    }

    /// Marks `core` as holding the block modified.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `core` is not a sharer.
    pub fn set_dirty_owner(&mut self, core: CoreId) {
        debug_assert!(
            self.sharers.contains(core),
            "dirty owner must share the block"
        );
        self.dirty_owner = Some(core);
    }

    /// Removes `core` from the entry, clearing dirty ownership if `core`
    /// owned the block. Returns whether the entry is now empty (and
    /// should be freed).
    pub fn remove_core(&mut self, core: CoreId) -> bool {
        self.sharers.remove(core);
        if self.dirty_owner == Some(core) {
            self.dirty_owner = None;
        }
        self.sharers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: usize) -> CoreId {
        CoreId::new(i)
    }

    #[test]
    fn sharer_set_insert_remove() {
        let mut s = SharerSet::EMPTY;
        assert!(s.insert(c(3)));
        assert!(!s.insert(c(3)), "duplicate insert reports false");
        assert!(s.contains(c(3)));
        assert_eq!(s.count(), 1);
        assert!(s.remove(c(3)));
        assert!(!s.remove(c(3)));
        assert!(s.is_empty());
    }

    #[test]
    fn sharer_set_supports_128_cores() {
        let mut s = SharerSet::EMPTY;
        s.insert(c(127));
        assert!(s.contains(c(127)));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![c(127)]);
    }

    #[test]
    fn sole_sharer_detection() {
        let mut s = SharerSet::single(c(5));
        assert!(s.is_sole_sharer(c(5)));
        assert!(!s.is_sole_sharer(c(4)));
        s.insert(c(6));
        assert!(!s.is_sole_sharer(c(5)));
    }

    #[test]
    fn iter_is_sorted() {
        let mut s = SharerSet::EMPTY;
        for i in [9usize, 2, 64] {
            s.insert(c(i));
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![c(2), c(9), c(64)]);
    }

    #[test]
    fn entry_for_fill_has_single_sharer() {
        let e = DirEntryState::for_fill(c(2));
        assert!(e.sharers.is_sole_sharer(c(2)));
        assert_eq!(e.dirty_owner, None);
        assert_eq!(e.relocated, None);
    }

    #[test]
    fn remove_core_clears_ownership() {
        let mut e = DirEntryState::for_fill(c(1));
        e.set_dirty_owner(c(1));
        assert!(e.remove_core(c(1)), "entry becomes empty");
        assert_eq!(e.dirty_owner, None);
    }

    #[test]
    fn remove_core_keeps_other_sharers() {
        let mut e = DirEntryState::for_fill(c(1));
        e.sharers.insert(c(2));
        assert!(!e.remove_core(c(1)));
        assert!(e.sharers.contains(c(2)));
    }
}
