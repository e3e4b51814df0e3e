//! SHiP: signature-based hit prediction (Wu et al., MICRO 2011) — the
//! paper's reference [59] for RRPV-graded LLC policies. A per-PC
//! signature history counter table (SHCT) learns whether blocks filled
//! by a signature are reused; unreused signatures insert at distant
//! RRPV.

use crate::hawkeye::{pc_signature, PcSig};
use crate::{AccessCtx, ReplacementPolicy, RRPV_MAX};
use ziv_common::ids::{SetIdx, WayIdx};
use ziv_common::CacheGeometry;

const SHCT_BITS: u32 = 13;
const SHCT_MAX: u8 = 3;

#[derive(Debug, Clone, Copy, Default)]
struct WayMeta {
    rrpv: u8,
    sig: PcSig,
    reused: bool,
    valid_meta: bool,
}

/// SHiP-PC for one cache bank.
#[derive(Debug)]
pub struct Ship {
    ways: usize,
    meta: Vec<WayMeta>,
    shct: Vec<u8>,
}

impl Ship {
    /// Creates SHiP state for the given geometry.
    pub fn new(geom: CacheGeometry) -> Self {
        Ship {
            ways: geom.ways as usize,
            meta: vec![
                WayMeta {
                    rrpv: RRPV_MAX,
                    ..Default::default()
                };
                geom.sets as usize * geom.ways as usize
            ],
            // Weakly reused so cold signatures are given a chance.
            shct: vec![1; 1 << SHCT_BITS],
        }
    }

    #[inline]
    fn idx(&self, set: SetIdx, way: WayIdx) -> usize {
        set as usize * self.ways + way as usize
    }

    #[inline]
    fn shct_idx(sig: PcSig) -> usize {
        sig as usize & ((1 << SHCT_BITS) - 1)
    }

    /// SHCT counter for a signature (diagnostics / tests).
    pub fn counter(&self, sig: PcSig) -> u8 {
        self.shct[Self::shct_idx(sig)]
    }

    fn train_eviction(&mut self, i: usize) {
        let m = self.meta[i];
        if m.valid_meta && !m.reused {
            let c = &mut self.shct[Self::shct_idx(m.sig)];
            *c = c.saturating_sub(1);
        }
    }
}

impl ReplacementPolicy for Ship {
    fn on_fill(&mut self, set: SetIdx, way: WayIdx, ctx: &AccessCtx) {
        let sig = pc_signature(ctx.pc);
        let predicted_reused = self.shct[Self::shct_idx(sig)] > 0;
        let i = self.idx(set, way);
        self.meta[i] = WayMeta {
            rrpv: if predicted_reused {
                RRPV_MAX - 1
            } else {
                RRPV_MAX
            },
            sig,
            reused: false,
            valid_meta: true,
        };
    }

    fn on_hit(&mut self, set: SetIdx, way: WayIdx, _ctx: &AccessCtx) {
        let i = self.idx(set, way);
        let sig = self.meta[i].sig;
        if !self.meta[i].reused {
            let c = &mut self.shct[Self::shct_idx(sig)];
            if *c < SHCT_MAX {
                *c += 1;
            }
        }
        let m = &mut self.meta[i];
        m.reused = true;
        m.rrpv = 0;
    }

    fn on_evict(&mut self, set: SetIdx, way: WayIdx) {
        let i = self.idx(set, way);
        self.train_eviction(i);
        self.meta[i] = WayMeta {
            rrpv: RRPV_MAX,
            ..Default::default()
        };
    }

    fn on_relocate_in(&mut self, set: SetIdx, way: WayIdx, _ctx: &AccessCtx) {
        let i = self.idx(set, way);
        self.meta[i] = WayMeta {
            rrpv: RRPV_MAX - 1,
            sig: 0,
            reused: true, // do not detrain on the relocated copy's death
            valid_meta: false,
        };
    }

    fn ways(&self) -> WayIdx {
        self.ways as WayIdx
    }

    /// The RRPV.
    #[inline]
    fn eviction_key(&self, set: SetIdx, way: WayIdx, _ctx: &AccessCtx) -> u64 {
        u64::from(self.meta[self.idx(set, way)].rrpv)
    }

    fn rrpv(&self, set: SetIdx, way: WayIdx) -> Option<u8> {
        Some(self.meta[self.idx(set, way)].rrpv)
    }

    fn protect(&mut self, set: SetIdx, way: WayIdx) {
        let i = self.idx(set, way);
        self.meta[i].rrpv = 0;
    }

    fn name(&self) -> &'static str {
        "SHiP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ziv_common::{CoreId, LineAddr};

    fn ctx(pc: u64) -> AccessCtx {
        AccessCtx::demand(LineAddr::new(1), pc, CoreId::new(0), 0, 0)
    }

    #[test]
    fn satisfies_policy_contract() {
        crate::check_policy_contract(&mut Ship::new(CacheGeometry::new(4, 4)), 4, 4);
    }

    #[test]
    fn unreused_signature_becomes_distant() {
        let mut s = Ship::new(CacheGeometry::new(4, 4));
        let pc = 0x900;
        // Fill and evict without reuse: SHCT decays to 0.
        s.on_fill(0, 0, &ctx(pc));
        s.on_evict(0, 0);
        assert_eq!(s.counter(pc_signature(pc)), 0);
        // Next fill by the same PC inserts at distant RRPV.
        s.on_fill(0, 1, &ctx(pc));
        assert_eq!(s.rrpv(0, 1), Some(RRPV_MAX));
    }

    #[test]
    fn reused_signature_stays_long() {
        let mut s = Ship::new(CacheGeometry::new(4, 4));
        let pc = 0xa00;
        s.on_fill(0, 0, &ctx(pc));
        s.on_hit(0, 0, &ctx(pc));
        s.on_evict(0, 0);
        assert!(s.counter(pc_signature(pc)) > 0);
        s.on_fill(0, 1, &ctx(pc));
        assert_eq!(s.rrpv(0, 1), Some(RRPV_MAX - 1));
    }

    #[test]
    fn reuse_trains_once_per_generation() {
        let mut s = Ship::new(CacheGeometry::new(4, 4));
        let pc = 0xb00;
        s.on_fill(0, 0, &ctx(pc));
        for _ in 0..10 {
            s.on_hit(0, 0, &ctx(pc));
        }
        assert!(
            s.counter(pc_signature(pc)) <= 2,
            "repeated hits train SHCT once"
        );
    }

    #[test]
    fn relocated_insertion_does_not_detrain() {
        let mut s = Ship::new(CacheGeometry::new(4, 4));
        let before = s.counter(0);
        s.on_relocate_in(0, 2, &ctx(0));
        s.on_evict(0, 2);
        assert_eq!(s.counter(0), before);
    }
}
