//! Static re-reference interval prediction (SRRIP, Jaleel et al., ISCA
//! 2010): the RRPV-graded policy family the paper's `MaxRRPVNotInPrC`
//! property builds on (Section III-D5 notes the property "can also be
//! used with other LLC replacement policies that employ RRPVs").

use crate::{AccessCtx, ReplacementPolicy, RRPV_MAX};
use ziv_common::ids::{SetIdx, WayIdx};
use ziv_common::CacheGeometry;

/// 3-bit SRRIP with hit-priority (RRPV=0 on hit) and long-interval
/// insertion (RRPV = max-1 on fill).
#[derive(Debug, Clone)]
pub struct Srrip {
    ways: usize,
    rrpvs: Vec<u8>,
}

impl Srrip {
    /// Creates SRRIP state for the given geometry; all ways start at the
    /// distant value `RRPV_MAX` so cold sets evict way 0 first.
    pub fn new(geom: CacheGeometry) -> Self {
        Srrip {
            ways: geom.ways as usize,
            rrpvs: vec![RRPV_MAX; geom.sets as usize * geom.ways as usize],
        }
    }

    #[inline]
    fn idx(&self, set: SetIdx, way: WayIdx) -> usize {
        set as usize * self.ways + way as usize
    }
}

impl ReplacementPolicy for Srrip {
    fn on_fill(&mut self, set: SetIdx, way: WayIdx, _ctx: &AccessCtx) {
        let i = self.idx(set, way);
        self.rrpvs[i] = RRPV_MAX - 1;
    }

    fn on_hit(&mut self, set: SetIdx, way: WayIdx, _ctx: &AccessCtx) {
        let i = self.idx(set, way);
        self.rrpvs[i] = 0;
    }

    fn on_evict(&mut self, set: SetIdx, way: WayIdx) {
        let i = self.idx(set, way);
        self.rrpvs[i] = RRPV_MAX;
    }

    fn ways(&self) -> WayIdx {
        self.ways as WayIdx
    }

    /// The RRPV.
    #[inline]
    fn eviction_key(&self, set: SetIdx, way: WayIdx, _ctx: &AccessCtx) -> u64 {
        u64::from(self.rrpvs[self.idx(set, way)])
    }

    fn rrpv(&self, set: SetIdx, way: WayIdx) -> Option<u8> {
        Some(self.rrpvs[self.idx(set, way)])
    }

    fn protect(&mut self, set: SetIdx, way: WayIdx) {
        let i = self.idx(set, way);
        self.rrpvs[i] = 0;
    }

    fn name(&self) -> &'static str {
        "SRRIP"
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
        crate::check_policy_contract(&mut Srrip::new(CacheGeometry::new(4, 4)), 4, 4);
    }

    #[test]
    fn fill_inserts_with_long_interval() {
        let mut p = Srrip::new(CacheGeometry::new(1, 4));
        p.on_fill(0, 1, &ctx());
        assert_eq!(p.rrpv(0, 1), Some(RRPV_MAX - 1));
    }

    #[test]
    fn hit_promotes_to_zero() {
        let mut p = Srrip::new(CacheGeometry::new(1, 4));
        p.on_fill(0, 1, &ctx());
        p.on_hit(0, 1, &ctx());
        assert_eq!(p.rrpv(0, 1), Some(0));
    }

    #[test]
    fn victim_is_highest_rrpv() {
        let mut p = Srrip::new(CacheGeometry::new(1, 4));
        for w in 0..4 {
            p.on_fill(0, w, &ctx());
        }
        p.on_hit(0, 0, &ctx());
        p.on_hit(0, 2, &ctx());
        // ways 1 and 3 at RRPV_MAX-1; lowest index wins.
        assert_eq!(p.victim(0, &ctx()), 1);
    }

    #[test]
    fn rank_is_rrpv_descending() {
        let mut p = Srrip::new(CacheGeometry::new(1, 3));
        for w in 0..3 {
            p.on_fill(0, w, &ctx());
        }
        p.on_hit(0, 1, &ctx());
        let mut order = Vec::new();
        p.rank(0, &ctx(), &mut order);
        assert_eq!(order, vec![0, 2, 1]);
    }
}
