//! Seeded checks of the contracts the access path's bookkeeping walks
//! rest on (DESIGN.md §8), on the case runner in `support`.
//!
//! 1. `ReplacementPolicy::victim` is the first way of `rank`, and
//!    `victim_where` the first way of `rank` its predicate accepts, for
//!    every set after every kind of policy update, for every policy the
//!    LLC can run — every victim chooser scans with them, and no access
//!    path sorts a set with `rank`.
//! 2. `SharerSet::iter` yields exactly the cores in the set, ascending,
//!    as many as `count()` — every coherence fan-out walks it.

mod support;

use std::rc::Rc;
use support::{property, NO_OPS};
use ziv::common::ids::{SetIdx, WayIdx};
use ziv::common::{CacheGeometry, CoreId, LineAddr, SimRng};
use ziv::directory::SharerSet;
use ziv::replacement::{
    AccessCtx, Drrip, Hawkeye, Lru, MinOracle, Nru, PrecomputedFuture, ReplacementPolicy, Ship,
    Srrip,
};

const SETS: SetIdx = 16;
const WAYS: WayIdx = 16;

#[derive(Debug, Clone, Copy)]
enum Update {
    Fill,
    Hit,
    Evict,
    RelocateIn,
    Protect,
}

#[derive(Debug, Clone, Copy)]
struct Op {
    update: Update,
    set: SetIdx,
    way: WayIdx,
    ctx: AccessCtx,
}

/// A random update sequence over a small pool of lines and PCs, so lines
/// recur (MIN sees reuse) and PCs train Hawkeye's predictor both ways.
fn ops(rng: &mut SimRng, n: usize) -> Vec<Op> {
    (0..n as u64)
        .map(|seq| {
            let update = match rng.below(5) {
                0 => Update::Fill,
                1 => Update::Hit,
                2 => Update::Evict,
                3 => Update::RelocateIn,
                _ => Update::Protect,
            };
            let line = LineAddr::new(rng.below(96));
            let pc = 0x400 + 4 * rng.below(6);
            Op {
                update,
                set: rng.below(u64::from(SETS)) as SetIdx,
                way: rng.below(u64::from(WAYS)) as WayIdx,
                ctx: AccessCtx::demand(line, pc, CoreId::new(0), seq, seq),
            }
        })
        .collect()
}

/// Every policy the LLC can run; MIN knows the future of `ops`.
fn policies(drrip_seed: u64, ops: &[Op]) -> Vec<Box<dyn ReplacementPolicy>> {
    let geom = CacheGeometry::new(SETS, WAYS);
    let future = PrecomputedFuture::from_stream(
        ops.iter()
            .filter(|op| matches!(op.update, Update::Fill | Update::Hit))
            .map(|op| (op.ctx.seq, op.ctx.line)),
    );
    vec![
        Box::new(Lru::new(geom)),
        Box::new(Nru::new(geom)),
        Box::new(Srrip::new(geom)),
        Box::new(Drrip::new(geom, drrip_seed)),
        Box::new(Ship::new(geom)),
        Box::new(Hawkeye::new(geom)),
        Box::new(MinOracle::new(geom, Rc::new(future))),
    ]
}

#[test]
fn victim_is_the_first_ranked_way_after_every_update() {
    // The context `refresh_set` queries with, next to each update's own.
    let neutral = AccessCtx::demand(LineAddr::new(0), 0, CoreId::new(0), 0, u64::MAX);
    let mut order = Vec::new();
    property(
        "victim_is_the_first_ranked_way_after_every_update",
        24,
        |rng| {
            // Way masks for `victim_where`: none, one way, and two random
            // sets of ways.
            let masks = [
                0,
                1 << rng.below(u64::from(WAYS)),
                rng.below(1 << WAYS),
                rng.below(1 << WAYS),
            ];
            ((rng.next_u64(), masks), ops(rng, 300))
        },
        |&(drrip_seed, masks), ops| {
            for mut policy in policies(drrip_seed, ops) {
                let name = policy.name();
                for (step, op) in ops.iter().enumerate() {
                    match op.update {
                        Update::Fill => policy.on_fill(op.set, op.way, &op.ctx),
                        Update::Hit => policy.on_hit(op.set, op.way, &op.ctx),
                        Update::Evict => policy.on_evict(op.set, op.way),
                        Update::RelocateIn => policy.on_relocate_in(op.set, op.way, &op.ctx),
                        Update::Protect => policy.protect(op.set, op.way),
                    }
                    for ctx in [&op.ctx, &neutral] {
                        for set in 0..SETS {
                            policy.rank(set, ctx, &mut order);
                            assert_eq!(
                                order.len(),
                                WAYS as usize,
                                "{name}, step {step}: rank must cover every way"
                            );
                            assert_eq!(
                                policy.victim(set, ctx),
                                order[0],
                                "{name}, step {step} ({:?} of set {} way {}), set {set}, \
                                 seq {}: victim is not the first-ranked way",
                                op.update,
                                op.set,
                                op.way,
                                ctx.seq
                            );
                            for mask in masks {
                                let admitted = |w: WayIdx| mask >> w & 1 == 1;
                                assert_eq!(
                                    policy.victim_where(set, ctx, &mut |w| admitted(w)),
                                    order.iter().copied().find(|&w| admitted(w)),
                                    "{name}, step {step} ({:?} of set {} way {}), set {set}, \
                                     seq {}, mask {mask:#06x}: victim_where is not the first \
                                     ranked way in the mask",
                                    op.update,
                                    op.set,
                                    op.way,
                                    ctx.seq
                                );
                            }
                        }
                    }
                }
            }
        },
    );
}

/// The sharer set holding exactly the cores whose bits are set in `bits`.
fn sharers(bits: u128) -> SharerSet {
    let mut s = SharerSet::EMPTY;
    for core in 0..128 {
        if bits >> core & 1 == 1 {
            s.insert(CoreId::new(core));
        }
    }
    s
}

fn check_sharers(bits: u128, case: &str) {
    let set = sharers(bits);
    let got: Vec<usize> = set.iter().map(CoreId::index).collect();
    let want: Vec<usize> = (0..128).filter(|&i| bits >> i & 1 == 1).collect();
    assert_eq!(got, want, "{case}: bits {bits:#034x}");
    assert_eq!(got.len(), set.count() as usize, "{case}: bits {bits:#034x}");
}

#[test]
fn sharer_iter_yields_exactly_the_set_bits_ascending() {
    let edges = [
        0,
        1,
        1 << 63,
        1 << 64,
        1 << 127,
        1 | 1 << 63 | 1 << 64 | 1 << 127,
        u128::MAX,
    ];
    for bits in edges {
        check_sharers(bits, "edge case");
    }
    let random = |rng: &mut SimRng| u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64());
    property(
        "sharer_iter_yields_exactly_the_set_bits_ascending",
        2_000,
        |rng| {
            // Dense (about half the bits), then sparse (about one in eight).
            let dense = random(rng);
            ((dense, dense & random(rng) & random(rng)), NO_OPS)
        },
        |&(dense, sparse), _| {
            check_sharers(dense, "dense");
            check_sharers(sparse, "sparse");
        },
    );
}
