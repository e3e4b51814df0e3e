//! Dynamic re-reference interval prediction (DRRIP, Jaleel et al.,
//! ISCA 2010): set-dueling between SRRIP insertion and bimodal (BRRIP)
//! insertion. An RRPV-graded policy, so the ZIV `MaxRRPVNotInPrC`
//! property composes with it (the paper's Section III-D5 notes the
//! property applies to any RRPV-graded policy).

use crate::{AccessCtx, ReplacementPolicy, RRPV_MAX};
use ziv_common::ids::{SetIdx, WayIdx};
use ziv_common::{CacheGeometry, SimRng};

/// Sets with `set % DUEL_MODULUS == SRRIP_LEADER` always insert SRRIP-
/// style; `== BRRIP_LEADER` always BRRIP-style; the rest follow PSEL.
const DUEL_MODULUS: u32 = 32;
const SRRIP_LEADER: u32 = 0;
const BRRIP_LEADER: u32 = 1;
/// BRRIP inserts "long" (RRPV_MAX-1) with probability 1/32, else
/// "distant" (RRPV_MAX).
const BRRIP_LONG_ONE_IN: u64 = 32;
const PSEL_MAX: i32 = 1023;

/// DRRIP for one cache bank.
#[derive(Debug)]
pub struct Drrip {
    ways: usize,
    rrpvs: Vec<u8>,
    /// Policy-selection counter: positive values favor BRRIP (SRRIP
    /// leaders missing increments it), negative favor SRRIP.
    psel: i32,
    rng: SimRng,
}

impl Drrip {
    /// Creates DRRIP state for the given geometry.
    pub fn new(geom: CacheGeometry, seed: u64) -> Self {
        Drrip {
            ways: geom.ways as usize,
            rrpvs: vec![RRPV_MAX; geom.sets as usize * geom.ways as usize],
            psel: 0,
            rng: SimRng::seed_from_u64(seed ^ 0xD881),
        }
    }

    #[inline]
    fn idx(&self, set: SetIdx, way: WayIdx) -> usize {
        set as usize * self.ways + way as usize
    }

    fn insertion_rrpv(&mut self, set: SetIdx) -> u8 {
        let srrip_style = match set % DUEL_MODULUS {
            SRRIP_LEADER => true,
            BRRIP_LEADER => false,
            _ => self.psel <= 0,
        };
        if srrip_style || self.rng.below(BRRIP_LONG_ONE_IN) == 0 {
            RRPV_MAX - 1
        } else {
            RRPV_MAX
        }
    }

    fn duel_on_miss(&mut self, set: SetIdx) {
        match set % DUEL_MODULUS {
            SRRIP_LEADER => self.psel = (self.psel + 1).min(PSEL_MAX),
            BRRIP_LEADER => self.psel = (self.psel - 1).max(-PSEL_MAX),
            _ => {}
        }
    }

    /// Current PSEL value (diagnostics).
    pub fn psel(&self) -> i32 {
        self.psel
    }
}

impl ReplacementPolicy for Drrip {
    fn on_fill(&mut self, set: SetIdx, way: WayIdx, _ctx: &AccessCtx) {
        self.duel_on_miss(set);
        let r = self.insertion_rrpv(set);
        let i = self.idx(set, way);
        self.rrpvs[i] = r;
    }

    fn on_hit(&mut self, set: SetIdx, way: WayIdx, _ctx: &AccessCtx) {
        let i = self.idx(set, way);
        self.rrpvs[i] = 0;
    }

    fn on_evict(&mut self, set: SetIdx, way: WayIdx) {
        let i = self.idx(set, way);
        self.rrpvs[i] = RRPV_MAX;
    }

    fn on_relocate_in(&mut self, set: SetIdx, way: WayIdx, _ctx: &AccessCtx) {
        // Relocated blocks insert distant-but-not-averse, without
        // training the duel (no demand miss occurred).
        let i = self.idx(set, way);
        self.rrpvs[i] = RRPV_MAX - 1;
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
        "DRRIP"
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
        // Use non-leader sets so insertion is deterministic enough for
        // the shared contract (victim == rank[0] always holds anyway).
        crate::check_policy_contract(&mut Drrip::new(CacheGeometry::new(64, 4), 1), 64, 4);
    }

    #[test]
    fn srrip_leader_inserts_long() {
        let mut d = Drrip::new(CacheGeometry::new(64, 4), 1);
        d.on_fill(SRRIP_LEADER, 0, &ctx());
        assert_eq!(d.rrpv(SRRIP_LEADER, 0), Some(RRPV_MAX - 1));
    }

    #[test]
    fn brrip_leader_mostly_inserts_distant() {
        let mut d = Drrip::new(CacheGeometry::new(64, 4), 1);
        let mut distant = 0;
        for _ in 0..64 {
            d.on_fill(BRRIP_LEADER, 0, &ctx());
            if d.rrpv(BRRIP_LEADER, 0) == Some(RRPV_MAX) {
                distant += 1;
            }
        }
        assert!(
            distant > 48,
            "BRRIP insertions should be mostly distant: {distant}/64"
        );
    }

    #[test]
    fn dueling_moves_psel() {
        let mut d = Drrip::new(CacheGeometry::new(64, 4), 1);
        for _ in 0..10 {
            d.on_fill(SRRIP_LEADER, 0, &ctx());
        }
        assert!(d.psel() > 0, "SRRIP-leader misses push PSEL toward BRRIP");
        for _ in 0..30 {
            d.on_fill(BRRIP_LEADER, 0, &ctx());
        }
        assert!(d.psel() < 10);
    }

    #[test]
    fn hit_resets_rrpv() {
        let mut d = Drrip::new(CacheGeometry::new(64, 4), 1);
        d.on_fill(5, 2, &ctx());
        d.on_hit(5, 2, &ctx());
        assert_eq!(d.rrpv(5, 2), Some(0));
    }
}
