//! True LRU replacement (Table I's baseline LLC and private-cache policy).

use crate::{AccessCtx, ReplacementPolicy};
use ziv_common::ids::{SetIdx, WayIdx};
use ziv_common::CacheGeometry;

/// Per-set true-LRU state, implemented with monotonically increasing
/// per-way use stamps (one u64 counter per set).
#[derive(Debug, Clone)]
pub struct Lru {
    ways: usize,
    /// stamp[set * ways + way]; 0 means "never touched" (oldest).
    stamps: Vec<u64>,
    /// Per-set stamp counter.
    clocks: Vec<u64>,
}

impl Lru {
    /// Creates LRU state for a structure of the given geometry.
    pub fn new(geom: CacheGeometry) -> Self {
        let sets = geom.sets as usize;
        let ways = geom.ways as usize;
        Lru {
            ways,
            stamps: vec![0; sets * ways],
            clocks: vec![0; sets],
        }
    }

    #[inline]
    fn touch(&mut self, set: SetIdx, way: WayIdx) {
        let s = set as usize;
        self.clocks[s] += 1;
        self.stamps[s * self.ways + way as usize] = self.clocks[s];
    }

    /// The use stamp of a way (exposed for tests; larger = more recent).
    #[inline]
    pub fn stamp(&self, set: SetIdx, way: WayIdx) -> u64 {
        self.stamps[set as usize * self.ways + way as usize]
    }
}

impl ReplacementPolicy for Lru {
    fn on_fill(&mut self, set: SetIdx, way: WayIdx, _ctx: &AccessCtx) {
        self.touch(set, way);
    }

    fn on_hit(&mut self, set: SetIdx, way: WayIdx, _ctx: &AccessCtx) {
        self.touch(set, way);
    }

    fn on_evict(&mut self, set: SetIdx, way: WayIdx) {
        self.stamps[set as usize * self.ways + way as usize] = 0;
    }

    fn ways(&self) -> WayIdx {
        self.ways as WayIdx
    }

    /// The older the stamp, the higher the key.
    #[inline]
    fn eviction_key(&self, set: SetIdx, way: WayIdx, _ctx: &AccessCtx) -> u64 {
        !self.stamp(set, way)
    }

    fn protect(&mut self, set: SetIdx, way: WayIdx) {
        self.touch(set, way);
    }

    fn name(&self) -> &'static str {
        "LRU"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ziv_common::{CoreId, LineAddr};

    fn ctx() -> AccessCtx {
        AccessCtx::demand(LineAddr::new(0), 0, CoreId::new(0), 0, 0)
    }

    fn lru4() -> Lru {
        Lru::new(CacheGeometry::new(4, 4))
    }

    #[test]
    fn satisfies_policy_contract() {
        crate::check_policy_contract(&mut lru4(), 4, 4);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut p = lru4();
        let c = ctx();
        for w in 0..4 {
            p.on_fill(0, w, &c);
        }
        p.on_hit(0, 0, &c); // way 0 becomes MRU, way 1 is now LRU
        assert_eq!(p.victim(0, &c), 1);
        p.on_hit(0, 1, &c);
        assert_eq!(p.victim(0, &c), 2);
    }

    #[test]
    fn rank_orders_lru_to_mru() {
        let mut p = lru4();
        let c = ctx();
        for w in [2u8, 0, 3, 1] {
            p.on_fill(0, w, &c);
        }
        let mut order = Vec::new();
        p.rank(0, &c, &mut order);
        assert_eq!(order, vec![2, 0, 3, 1]);
    }

    #[test]
    fn protect_moves_to_mru() {
        let mut p = lru4();
        let c = ctx();
        for w in 0..4 {
            p.on_fill(0, w, &c);
        }
        p.protect(0, 0);
        assert_eq!(p.victim(0, &c), 1);
        let mut order = Vec::new();
        p.rank(0, &c, &mut order);
        assert_eq!(*order.last().unwrap(), 0);
    }

    #[test]
    fn eviction_makes_way_oldest() {
        let mut p = lru4();
        let c = ctx();
        for w in 0..4 {
            p.on_fill(0, w, &c);
        }
        p.on_evict(0, 3);
        assert_eq!(p.victim(0, &c), 3);
    }

    #[test]
    fn sets_are_independent() {
        let mut p = lru4();
        let c = ctx();
        for set in 0..4 {
            for w in 0..4 {
                p.on_fill(set, w, &c);
            }
        }
        p.on_hit(2, 0, &c);
        assert_eq!(p.victim(0, &c), 0); // set 0 unaffected
        assert_eq!(p.victim(2, &c), 1);
    }
}
