//! # ziv-replacement
//!
//! Replacement policies for the ZIV LLC reproduction.
//!
//! The paper evaluates LLC replacement with **LRU** and **Hawkeye**
//! (Jain & Lin, ISCA 2016), uses an offline **Belady MIN** oracle for its
//! motivation study (Fig 2), and relies on **NRU** for the sparse
//! directory and **RRPV** machinery (SRRIP, Jaleel et al., ISCA 2010) for
//! the Hawkeye-side ZIV properties. All of these are implemented here
//! behind one [`ReplacementPolicy`] trait.
//!
//! Each policy gives one per-way
//! [`eviction_key`](ReplacementPolicy::eviction_key): the way with the
//! highest key is evicted, and ties go to the lower way. That key is what
//! makes every proposal in the paper composable with every baseline
//! policy. Each proposal's victim is the policy's most evictable block
//! that passes the proposal's test, found by one filtered scan
//! ([`victim_where`](ReplacementPolicy::victim_where)): QBS's candidates
//! without private copies, SHARP's steps, and the ZIV relocation-set
//! replacement's "NotInPrC block closest to the LRU position" or "with as
//! high an RRPV as possible".
//!
//! # Examples
//!
//! ```
//! use ziv_replacement::{PolicyKind, ReplacementPolicy, AccessCtx};
//! use ziv_common::{CacheGeometry, LineAddr};
//!
//! let geom = CacheGeometry::new(16, 4);
//! let mut lru = PolicyKind::Lru.build(geom, 1);
//! let ctx = AccessCtx::demand(LineAddr::new(7), 0x400, ziv_common::CoreId::new(0), 0, 0);
//! lru.on_fill(3, 0, &ctx);
//! assert_eq!(lru.victim(3, &ctx), 1); // untouched ways are older than way 0
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod ctx;
mod drrip;
mod hawkeye;
mod kind;
mod lru;
mod min;
mod nru;
mod ship;
mod srrip;

pub use ctx::{AccessCtx, FutureKnowledge, PrecomputedFuture};
pub use drrip::Drrip;
pub use hawkeye::{pc_signature, Hawkeye, HawkeyeConfig, OccupancyPredictor, OptGen, PcSig};
pub use kind::PolicyKind;
pub use lru::Lru;
pub use min::MinOracle;
pub use nru::Nru;
pub use ship::Ship;
pub use srrip::Srrip;

use ziv_common::ids::{SetIdx, WayIdx};

/// Maximum RRPV value used by the 3-bit RRIP policies (the "cache-averse"
/// mark in Hawkeye's classification).
pub const RRPV_MAX: u8 = 7;

/// A per-bank replacement policy over a set-associative structure.
///
/// One policy instance manages the replacement state for *all* sets of a
/// single cache bank. Implementations are deterministic.
pub trait ReplacementPolicy: std::fmt::Debug {
    /// Records a demand fill of `(set, way)`.
    fn on_fill(&mut self, set: SetIdx, way: WayIdx, ctx: &AccessCtx);

    /// Records a demand hit on `(set, way)`.
    fn on_hit(&mut self, set: SetIdx, way: WayIdx, ctx: &AccessCtx);

    /// Records that `(set, way)` was evicted or invalidated. Policies that
    /// learn from evictions (Hawkeye's detraining) hook this.
    fn on_evict(&mut self, set: SetIdx, way: WayIdx);

    /// Records a **relocation insertion** into `(set, way)` (ZIV moving a
    /// block into a relocation set). Like a fill for aging purposes but
    /// must not train access-stream predictors, because no demand access
    /// occurred. Default: treated as a fill.
    fn on_relocate_in(&mut self, set: SetIdx, way: WayIdx, ctx: &AccessCtx) {
        self.on_fill(set, way, ctx);
    }

    /// The associativity of the sets the policy manages.
    fn ways(&self) -> WayIdx;

    /// How evictable `(set, way)` is, assuming every way is valid: the
    /// way with the highest key is evicted, and ties go to the lower way
    /// (e.g. the oldest stamp, or the highest RRPV). Invalid-way
    /// preference is handled by the cache controller, which is also where
    /// the paper puts it: the `Invalid` property has top priority.
    fn eviction_key(&self, set: SetIdx, way: WayIdx, ctx: &AccessCtx) -> u64;

    /// The way the policy would evict from `set`: the first way with the
    /// highest [`eviction_key`](ReplacementPolicy::eviction_key).
    fn victim(&self, set: SetIdx, ctx: &AccessCtx) -> WayIdx {
        first_max(self.ways(), |w| self.eviction_key(set, w, ctx), |_| true)
            .expect("a set has at least one way")
    }

    /// The way the policy would evict from `set` among the ways `admit`
    /// accepts, or `None` if it accepts none. `admit` is asked only about
    /// a way whose key beats every accepted way before it, so it must not
    /// have side effects.
    fn victim_where(
        &self,
        set: SetIdx,
        ctx: &AccessCtx,
        admit: &mut dyn FnMut(WayIdx) -> bool,
    ) -> Option<WayIdx> {
        first_max(self.ways(), |w| self.eviction_key(set, w, ctx), admit)
    }

    /// Writes the ways of `set` into `out` ordered evict-first →
    /// evict-last: a stable sort by key, highest first. The reference the
    /// scans are tested against; no access path calls it.
    fn rank(&self, set: SetIdx, ctx: &AccessCtx, out: &mut Vec<WayIdx>) {
        out.clear();
        out.extend(0..self.ways());
        out.sort_by_key(|&w| std::cmp::Reverse(self.eviction_key(set, w, ctx)));
    }

    /// The RRPV of `(set, way)` if this is an RRPV-graded policy
    /// (Section III-D5 keys the `MaxRRPVNotInPrC` property off this).
    fn rrpv(&self, _set: SetIdx, _way: WayIdx) -> Option<u8> {
        None
    }

    /// Moves `(set, way)` away from eviction (QBS "move to MRU position";
    /// RRPV policies set RRPV to 0).
    fn protect(&mut self, set: SetIdx, way: WayIdx);

    /// Human-readable policy name.
    fn name(&self) -> &'static str;
}

/// The first way below `ways` with the highest `key` among those `admit`
/// accepts: the one scan behind [`ReplacementPolicy::victim`] and
/// [`ReplacementPolicy::victim_where`].
#[inline(always)]
fn first_max(
    ways: WayIdx,
    key: impl Fn(WayIdx) -> u64,
    mut admit: impl FnMut(WayIdx) -> bool,
) -> Option<WayIdx> {
    let mut best = None;
    let mut best_key = 0;
    for way in 0..ways {
        let k = key(way);
        if (best.is_none() || k > best_key) && admit(way) {
            best = Some(way);
            best_key = k;
        }
    }
    best
}

/// Asserts the basic contract every policy must satisfy; shared by the
/// per-policy test modules.
#[cfg(test)]
pub(crate) fn check_policy_contract(
    policy: &mut dyn ReplacementPolicy,
    sets: SetIdx,
    ways: WayIdx,
) {
    use ziv_common::{CoreId, LineAddr};
    let ctx = AccessCtx::demand(LineAddr::new(1), 0x400, CoreId::new(0), 0, 0);
    for set in 0..sets {
        for way in 0..ways {
            policy.on_fill(set, way, &ctx);
        }
        let mut order = Vec::new();
        policy.rank(set, &ctx, &mut order);
        assert_eq!(order.len(), ways as usize, "rank must cover all ways");
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..ways).collect::<Vec<_>>(),
            "rank must be a permutation"
        );
        let v = policy.victim(set, &ctx);
        assert_eq!(v, order[0], "victim must be the first-ranked way");
    }
}
