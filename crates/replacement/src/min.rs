//! Belady's MIN as an offline LLC replacement oracle (the `I-MIN`
//! configuration of the paper's Fig 2).
//!
//! Per the paper's footnote 2, MIN is driven by the **global L1 access
//! stream** (which is independent of LLC victim choices), not the
//! LLC-filtered stream. The oracle therefore consults a
//! [`FutureKnowledge`] precomputed from the full trace: the victim is the
//! resident block whose next use in the global stream is furthest away
//! (never-used-again blocks are furthest of all).

use crate::{AccessCtx, FutureKnowledge, ReplacementPolicy};
use std::rc::Rc;
use ziv_common::ids::{SetIdx, WayIdx};
use ziv_common::{CacheGeometry, LineAddr};

/// Offline MIN oracle for one cache bank.
#[derive(Debug)]
pub struct MinOracle {
    ways: usize,
    /// Line resident in each way (the oracle tracks contents itself so it
    /// can ask the future about them).
    lines: Vec<Option<LineAddr>>,
    future: Rc<dyn FutureKnowledge>,
}

impl MinOracle {
    /// Creates a MIN oracle with the given future knowledge.
    pub fn new(geom: CacheGeometry, future: Rc<dyn FutureKnowledge>) -> Self {
        MinOracle {
            ways: geom.ways as usize,
            lines: vec![None; geom.sets as usize * geom.ways as usize],
            future,
        }
    }

    #[inline]
    fn idx(&self, set: SetIdx, way: WayIdx) -> usize {
        set as usize * self.ways + way as usize
    }

    /// Sort key: distance to next use, with "never again" = MAX.
    fn next_use_key(&self, way_line: Option<LineAddr>, seq: u64) -> u64 {
        match way_line {
            None => u64::MAX, // empty ways should never be ranked but are maximally evictable
            Some(line) => self.future.next_use(line, seq).unwrap_or(u64::MAX),
        }
    }
}

impl ReplacementPolicy for MinOracle {
    fn on_fill(&mut self, set: SetIdx, way: WayIdx, ctx: &AccessCtx) {
        let i = self.idx(set, way);
        self.lines[i] = Some(ctx.line);
    }

    fn on_hit(&mut self, _set: SetIdx, _way: WayIdx, _ctx: &AccessCtx) {
        // MIN needs no recency state: the future is already known.
    }

    fn on_evict(&mut self, set: SetIdx, way: WayIdx) {
        let i = self.idx(set, way);
        self.lines[i] = None;
    }

    fn on_relocate_in(&mut self, set: SetIdx, way: WayIdx, ctx: &AccessCtx) {
        let i = self.idx(set, way);
        self.lines[i] = Some(ctx.line);
    }

    fn ways(&self) -> WayIdx {
        self.ways as WayIdx
    }

    /// The distance to the next use in the global stream.
    fn eviction_key(&self, set: SetIdx, way: WayIdx, ctx: &AccessCtx) -> u64 {
        self.next_use_key(self.lines[self.idx(set, way)], ctx.seq)
    }

    fn protect(&mut self, _set: SetIdx, _way: WayIdx) {
        // The oracle cannot be overridden by QBS-style promotion; MIN is
        // only used as a standalone baseline (I-MIN in Fig 2).
    }

    fn name(&self) -> &'static str {
        "MIN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PrecomputedFuture;
    use ziv_common::CoreId;

    fn ctx(line: u64, seq: u64) -> AccessCtx {
        AccessCtx::demand(LineAddr::new(line), 0, CoreId::new(0), 0, seq)
    }

    fn oracle(stream: &[(u64, u64)]) -> MinOracle {
        let future =
            PrecomputedFuture::from_stream(stream.iter().map(|&(s, l)| (s, LineAddr::new(l))));
        MinOracle::new(CacheGeometry::new(1, 2), Rc::new(future))
    }

    #[test]
    fn evicts_furthest_next_use() {
        // Stream: A@0 B@1 A@2 B@10  -> at seq=1, B (next use 10) is
        // further than A (next use 2).
        let mut m = oracle(&[(0, 1), (1, 2), (2, 1), (10, 2)]);
        m.on_fill(0, 0, &ctx(1, 0));
        m.on_fill(0, 1, &ctx(2, 1));
        assert_eq!(m.victim(0, &ctx(0, 1)), 1);
    }

    #[test]
    fn never_used_again_is_evicted_first() {
        let mut m = oracle(&[(0, 1), (1, 2), (5, 1)]);
        m.on_fill(0, 0, &ctx(1, 0));
        m.on_fill(0, 1, &ctx(2, 1)); // line 2 never accessed after seq 1
        assert_eq!(m.victim(0, &ctx(0, 2)), 1);
    }

    #[test]
    fn circular_pattern_victimizes_most_recent_fill() {
        // The paper's Section I observation: in a circular pattern
        // (B1 B2 B3 B1 B2 B3 ...) over a 2-way set, the most recently
        // accessed block has the furthest reuse, so MIN victimizes it.
        let stream: Vec<(u64, u64)> = (0..30).map(|s| (s, 1 + s % 3)).collect();
        let mut m = oracle(&stream);
        m.on_fill(0, 0, &ctx(1, 0)); // B1 at seq 0
        m.on_fill(0, 1, &ctx(2, 1)); // B2 at seq 1
                                     // At seq 2 (B3 arrives): B2's next use (seq 4) is after B1's
                                     // (seq 3) -> MIN evicts B2, the most recently filled block.
        assert_eq!(m.victim(0, &ctx(3, 2)), 1);
    }

    #[test]
    fn rank_orders_by_distance() {
        let mut m = oracle(&[(0, 1), (1, 2), (3, 2), (9, 1)]);
        m.on_fill(0, 0, &ctx(1, 0));
        m.on_fill(0, 1, &ctx(2, 1));
        let mut order = Vec::new();
        m.rank(0, &ctx(0, 1), &mut order);
        assert_eq!(
            order,
            vec![0, 1],
            "line 1 (next use 9) before line 2 (next use 3)"
        );
    }

    #[test]
    fn eviction_clears_tracking() {
        let mut m = oracle(&[(0, 1), (100, 1)]);
        m.on_fill(0, 0, &ctx(1, 0));
        m.on_evict(0, 0);
        // Empty way has maximal key and would be picked first.
        assert_eq!(m.victim(0, &ctx(0, 1)), 0);
    }
}
