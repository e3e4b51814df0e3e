//! The Hawkeye replacement policy (Jain & Lin, "Back to the Future:
//! Leveraging Belady's Algorithm for Improved Cache Replacement",
//! ISCA 2016) — the paper's second baseline LLC policy.
//!
//! Hawkeye learns, per load PC, whether Belady's MIN would have kept the
//! blocks that PC loads. A sampled subset of sets feeds OPTgen (a
//! reconstruction of MIN over the set's access stream); OPTgen's verdicts
//! train a PC-indexed predictor; the predictor classifies every fill as
//! *cache-friendly* (inserted at RRPV 0) or *cache-averse* (inserted at
//! RRPV 7). Victims are cache-averse blocks when available; otherwise the
//! oldest friendly block is evicted and its PC detrained.
//!
//! The paper's ZIV property `MaxRRPVNotInPrC` keys directly off this
//! module's RRPV grading (Section III-D5).

mod optgen;
mod predictor;

pub use optgen::OptGen;
pub use predictor::{pc_signature, OccupancyPredictor, PcSig};

use crate::{AccessCtx, ReplacementPolicy, RRPV_MAX};
use std::collections::HashMap;
use ziv_common::ids::{SetIdx, WayIdx};
use ziv_common::CacheGeometry;

/// Tuning knobs for Hawkeye.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HawkeyeConfig {
    /// Every `sample_stride`-th set is a sampled set feeding OPTgen.
    pub sample_stride: u32,
    /// OPTgen history window as a multiple of associativity.
    pub history_per_way: usize,
    /// log2 of the predictor table size.
    pub predictor_index_bits: u32,
}

impl Default for HawkeyeConfig {
    fn default() -> Self {
        HawkeyeConfig {
            sample_stride: 8,
            history_per_way: 8,
            predictor_index_bits: 12,
        }
    }
}

/// Per-way metadata Hawkeye maintains.
#[derive(Debug, Clone, Copy, Default)]
struct WayState {
    rrpv: u8,
    sig: PcSig,
    friendly: bool,
}

/// One sampled set's training state.
#[derive(Debug)]
struct SampledSet {
    optgen: OptGen,
    /// line-address → (last access time in this set's OPTgen clock, sig).
    history: HashMap<u64, (u64, PcSig)>,
    cap: usize,
}

impl SampledSet {
    fn new(ways: u8, history_per_way: usize) -> Self {
        let window = ways as usize * history_per_way;
        SampledSet {
            optgen: OptGen::new(ways, window),
            history: HashMap::new(),
            cap: 2 * window,
        }
    }

    /// Records an access; returns `(prev_sig, opt_hit)` when the line had
    /// a tracked previous access.
    fn access(&mut self, line_raw: u64, sig: PcSig) -> Option<(PcSig, bool)> {
        let verdict = self
            .history
            .get(&line_raw)
            .copied()
            .map(|(prev_t, prev_sig)| (prev_sig, self.optgen.would_hit(prev_t)));
        let t = self.optgen.add_access();
        if self.history.len() >= self.cap && !self.history.contains_key(&line_raw) {
            // Bound the sampler: drop the stalest entry.
            if let Some((&oldest, _)) = self.history.iter().min_by_key(|(_, (t, _))| *t) {
                self.history.remove(&oldest);
            }
        }
        self.history.insert(line_raw, (t, sig));
        verdict
    }
}

/// The Hawkeye policy for one cache bank.
#[derive(Debug)]
pub struct Hawkeye {
    ways: usize,
    cfg: HawkeyeConfig,
    state: Vec<WayState>,
    predictor: OccupancyPredictor,
    sampled: HashMap<SetIdx, SampledSet>,
    geom: CacheGeometry,
}

impl Hawkeye {
    /// Creates Hawkeye state for the given geometry with default tuning.
    pub fn new(geom: CacheGeometry) -> Self {
        Self::with_config(geom, HawkeyeConfig::default())
    }

    /// Creates Hawkeye state with explicit tuning.
    pub fn with_config(geom: CacheGeometry, cfg: HawkeyeConfig) -> Self {
        Hawkeye {
            ways: geom.ways as usize,
            cfg,
            state: vec![WayState::default(); geom.sets as usize * geom.ways as usize],
            predictor: OccupancyPredictor::new(cfg.predictor_index_bits),
            sampled: HashMap::new(),
            geom,
        }
    }

    #[inline]
    fn idx(&self, set: SetIdx, way: WayIdx) -> usize {
        set as usize * self.ways + way as usize
    }

    fn is_sampled(&self, set: SetIdx) -> bool {
        set.is_multiple_of(self.cfg.sample_stride)
    }

    /// Trains OPTgen/predictor for an access to a sampled set.
    fn train(&mut self, set: SetIdx, ctx: &AccessCtx) {
        if !self.is_sampled(set) {
            return;
        }
        let ways = self.geom.ways;
        let hpw = self.cfg.history_per_way;
        let entry = self
            .sampled
            .entry(set)
            .or_insert_with(|| SampledSet::new(ways, hpw));
        let sig = pc_signature(ctx.pc);
        if let Some((prev_sig, opt_hit)) = entry.access(ctx.line.raw(), sig) {
            if opt_hit {
                self.predictor.train_hit(prev_sig);
            } else {
                self.predictor.train_miss(prev_sig);
            }
        }
    }

    /// Applies the RRIP update Hawkeye performs on every demand access.
    fn rrip_update(&mut self, set: SetIdx, way: WayIdx, ctx: &AccessCtx, is_fill: bool) {
        let sig = pc_signature(ctx.pc);
        let friendly = self.predictor.is_friendly(sig);
        if friendly && is_fill {
            // Age the other cache-friendly blocks (saturating below max,
            // so averse blocks stay distinguishable at RRPV 7).
            let base = set as usize * self.ways;
            for w in 0..self.ways {
                if w != way as usize {
                    let st = &mut self.state[base + w];
                    if st.friendly && st.rrpv < RRPV_MAX - 1 {
                        st.rrpv += 1;
                    }
                }
            }
        }
        let i = self.idx(set, way);
        let st = &mut self.state[i];
        st.sig = sig;
        st.friendly = friendly;
        st.rrpv = if friendly { 0 } else { RRPV_MAX };
    }

    /// Access to the predictor (for tests and diagnostics).
    pub fn predictor(&self) -> &OccupancyPredictor {
        &self.predictor
    }

    /// Whether the block in `(set, way)` is currently classified as
    /// cache-averse (RRPV = 7). This is what the paper's
    /// `MaxRRPVNotInPrC` property tests.
    pub fn is_cache_averse(&self, set: SetIdx, way: WayIdx) -> bool {
        self.state[self.idx(set, way)].rrpv == RRPV_MAX
    }
}

impl ReplacementPolicy for Hawkeye {
    fn on_fill(&mut self, set: SetIdx, way: WayIdx, ctx: &AccessCtx) {
        self.train(set, ctx);
        self.rrip_update(set, way, ctx, true);
    }

    fn on_hit(&mut self, set: SetIdx, way: WayIdx, ctx: &AccessCtx) {
        self.train(set, ctx);
        self.rrip_update(set, way, ctx, false);
    }

    fn on_evict(&mut self, set: SetIdx, way: WayIdx) {
        let st = self.state[self.idx(set, way)];
        if st.friendly {
            // Evicting a block the predictor promised was friendly:
            // detrain its PC (Hawkeye's feedback path).
            self.predictor.train_miss(st.sig);
        }
        let i = self.idx(set, way);
        self.state[i] = WayState {
            rrpv: RRPV_MAX,
            sig: 0,
            friendly: false,
        };
    }

    fn on_relocate_in(&mut self, set: SetIdx, way: WayIdx, _ctx: &AccessCtx) {
        // A ZIV relocation inserts the block without a demand access: no
        // OPTgen training and no predictor consultation (the original
        // load PC is not available at the relocation datapath). The block
        // is graded distant-but-not-averse so it neither displaces the
        // set's working set nor becomes the immediate next victim (which
        // would trigger a re-relocation storm), and it is marked
        // non-friendly so its eventual eviction detrains nothing.
        let i = self.idx(set, way);
        self.state[i] = WayState {
            rrpv: RRPV_MAX - 1,
            sig: 0,
            friendly: false,
        };
    }

    fn ways(&self) -> WayIdx {
        self.ways as WayIdx
    }

    /// The RRPV: a cache-averse block (RRPV 7) goes first, otherwise the
    /// oldest (highest-RRPV) friendly block.
    #[inline]
    fn eviction_key(&self, set: SetIdx, way: WayIdx, _ctx: &AccessCtx) -> u64 {
        u64::from(self.state[self.idx(set, way)].rrpv)
    }

    fn rrpv(&self, set: SetIdx, way: WayIdx) -> Option<u8> {
        Some(self.state[self.idx(set, way)].rrpv)
    }

    fn protect(&mut self, set: SetIdx, way: WayIdx) {
        let i = self.idx(set, way);
        self.state[i].rrpv = 0;
    }

    fn name(&self) -> &'static str {
        "Hawkeye"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ziv_common::{CoreId, LineAddr};

    fn ctx(line: u64, pc: u64) -> AccessCtx {
        AccessCtx::demand(LineAddr::new(line), pc, CoreId::new(0), 0, 0)
    }

    fn hawkeye(sets: u32, ways: u8) -> Hawkeye {
        Hawkeye::new(CacheGeometry::new(sets, ways))
    }

    #[test]
    fn satisfies_policy_contract() {
        crate::check_policy_contract(&mut hawkeye(8, 4), 8, 4);
    }

    #[test]
    fn cold_fills_are_friendly_rrpv_zero() {
        let mut h = hawkeye(8, 4);
        h.on_fill(1, 0, &ctx(100, 0x400));
        assert_eq!(h.rrpv(1, 0), Some(0));
        assert!(!h.is_cache_averse(1, 0));
    }

    #[test]
    fn friendly_insertion_ages_other_friendly_blocks() {
        let mut h = hawkeye(8, 4);
        h.on_fill(1, 0, &ctx(100, 0x400));
        h.on_fill(1, 1, &ctx(101, 0x404));
        assert_eq!(h.rrpv(1, 0), Some(1), "way 0 aged by way 1's friendly fill");
        assert_eq!(h.rrpv(1, 1), Some(0));
    }

    #[test]
    fn averse_pc_inserts_at_max_rrpv() {
        let mut h = hawkeye(8, 4);
        let pc = 0x500;
        let sig = pc_signature(pc);
        for _ in 0..8 {
            h.predictor.train_miss(sig);
        }
        h.on_fill(1, 2, &ctx(200, pc));
        assert!(h.is_cache_averse(1, 2));
        assert_eq!(h.victim(1, &ctx(0, 0)), 2);
    }

    #[test]
    fn evicting_friendly_block_detrains_its_pc() {
        let mut h = hawkeye(8, 4);
        let pc = 0x600;
        let sig = pc_signature(pc);
        let before = h.predictor.counter(sig);
        h.on_fill(1, 0, &ctx(300, pc));
        h.on_evict(1, 0);
        assert_eq!(h.predictor.counter(sig), before - 1);
    }

    #[test]
    fn streaming_pc_on_sampled_set_becomes_averse() {
        // A PC that streams through far more lines than the set holds
        // never reuses within OPTgen's window -> predictor learns averse.
        let mut h = hawkeye(8, 4);
        let pc = 0x700;
        let set: SetIdx = 0; // sampled (stride 8)
                             // Two passes over 64 lines: the second pass produces OPTgen
                             // misses (reuse distance far beyond the window).
        for _pass in 0..2 {
            for i in 0..64u64 {
                let way = (i % 4) as WayIdx;
                h.on_fill(set, way, &ctx(i * 8, pc));
            }
        }
        assert!(!h.predictor.is_friendly(pc_signature(pc)));
    }

    #[test]
    fn tight_reuse_on_sampled_set_stays_friendly() {
        let mut h = hawkeye(8, 4);
        let pc = 0x800;
        for _ in 0..50 {
            for i in 0..2u64 {
                h.on_hit(0, i as WayIdx, &ctx(i * 8, pc));
            }
        }
        assert!(h.predictor.is_friendly(pc_signature(pc)));
    }

    #[test]
    fn relocate_in_does_not_train_optgen() {
        let mut h = hawkeye(8, 4);
        let pc = 0x900;
        let sig = pc_signature(pc);
        let before = h.predictor.counter(sig);
        // Repeated relocation insertions of the same line into a sampled
        // set would corrupt the predictor if they trained OPTgen.
        for _ in 0..10 {
            h.on_relocate_in(0, 0, &ctx(42, pc));
        }
        assert_eq!(h.predictor.counter(sig), before);
    }

    #[test]
    fn protect_clears_rrpv() {
        let mut h = hawkeye(8, 4);
        let pc = 0xa00;
        let sig = pc_signature(pc);
        for _ in 0..8 {
            h.predictor.train_miss(sig);
        }
        h.on_fill(1, 1, &ctx(123, pc));
        assert_eq!(h.rrpv(1, 1), Some(RRPV_MAX));
        h.protect(1, 1);
        assert_eq!(h.rrpv(1, 1), Some(0));
    }
}
