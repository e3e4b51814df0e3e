//! Not-recently-used (NRU) replacement with one reference bit per way —
//! the policy Table I assigns to the sparse directory ("1-bit NRU").

use crate::{AccessCtx, ReplacementPolicy};
use ziv_common::ids::{SetIdx, WayIdx};
use ziv_common::CacheGeometry;

/// 1-bit NRU: a reference bit is set on every touch; the victim is the
/// first way (lowest index) with a clear bit. When every bit in the set
/// is set, all bits except the just-touched way's are cleared.
#[derive(Debug, Clone)]
pub struct Nru {
    ways: usize,
    ref_bits: Vec<bool>,
}

impl Nru {
    /// Creates NRU state for the given geometry.
    pub fn new(geom: CacheGeometry) -> Self {
        Nru {
            ways: geom.ways as usize,
            ref_bits: vec![false; geom.sets as usize * geom.ways as usize],
        }
    }

    fn touch(&mut self, set: SetIdx, way: WayIdx) {
        let base = set as usize * self.ways;
        self.ref_bits[base + way as usize] = true;
        if self.ref_bits[base..base + self.ways].iter().all(|&b| b) {
            for (w, bit) in self.ref_bits[base..base + self.ways].iter_mut().enumerate() {
                *bit = w == way as usize;
            }
        }
    }

    /// Whether the reference bit of `(set, way)` is currently set.
    pub fn referenced(&self, set: SetIdx, way: WayIdx) -> bool {
        self.ref_bits[set as usize * self.ways + way as usize]
    }
}

impl ReplacementPolicy for Nru {
    fn on_fill(&mut self, set: SetIdx, way: WayIdx, _ctx: &AccessCtx) {
        self.touch(set, way);
    }

    fn on_hit(&mut self, set: SetIdx, way: WayIdx, _ctx: &AccessCtx) {
        self.touch(set, way);
    }

    fn on_evict(&mut self, set: SetIdx, way: WayIdx) {
        self.ref_bits[set as usize * self.ways + way as usize] = false;
    }

    fn ways(&self) -> WayIdx {
        self.ways as WayIdx
    }

    /// A clear reference bit is higher than a set one.
    #[inline]
    fn eviction_key(&self, set: SetIdx, way: WayIdx, _ctx: &AccessCtx) -> u64 {
        u64::from(!self.referenced(set, way))
    }

    fn protect(&mut self, set: SetIdx, way: WayIdx) {
        self.touch(set, way);
    }

    fn name(&self) -> &'static str {
        "NRU"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ziv_common::{CoreId, LineAddr};

    fn ctx() -> AccessCtx {
        AccessCtx::demand(LineAddr::new(0), 0, CoreId::new(0), 0, 0)
    }

    #[test]
    fn satisfies_policy_contract() {
        // After filling all ways, the last fill resets the other bits, so
        // the contract's victim==rank[0] still holds.
        crate::check_policy_contract(&mut Nru::new(CacheGeometry::new(4, 4)), 4, 4);
    }

    #[test]
    fn victim_prefers_unreferenced() {
        let mut p = Nru::new(CacheGeometry::new(1, 4));
        let c = ctx();
        p.on_fill(0, 0, &c);
        p.on_fill(0, 1, &c);
        assert_eq!(p.victim(0, &c), 2);
    }

    #[test]
    fn saturation_clears_all_but_last() {
        let mut p = Nru::new(CacheGeometry::new(1, 3));
        let c = ctx();
        p.on_fill(0, 0, &c);
        p.on_fill(0, 1, &c);
        p.on_fill(0, 2, &c); // saturates: clears bits of ways 0 and 1
        assert!(!p.referenced(0, 0));
        assert!(!p.referenced(0, 1));
        assert!(p.referenced(0, 2));
        assert_eq!(p.victim(0, &c), 0);
    }

    #[test]
    fn eviction_clears_bit() {
        let mut p = Nru::new(CacheGeometry::new(1, 4));
        let c = ctx();
        p.on_fill(0, 0, &c);
        p.on_evict(0, 0);
        assert!(!p.referenced(0, 0));
        assert_eq!(p.victim(0, &c), 0);
    }

    #[test]
    fn rank_puts_unreferenced_first() {
        let mut p = Nru::new(CacheGeometry::new(1, 4));
        let c = ctx();
        p.on_hit(0, 1, &c);
        p.on_hit(0, 3, &c);
        let mut order = Vec::new();
        p.rank(0, &c, &mut order);
        assert_eq!(order, vec![0, 2, 1, 3]);
    }
}
