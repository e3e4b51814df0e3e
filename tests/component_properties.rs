//! Properties of the hierarchy's components, each on its own: the
//! set-associative array and the sparse directory against hash-map
//! reference models, the replacement policies (the LRU stack property,
//! rank-order consistency, and the MIN oracle's optimality against
//! brute force on one set), the DRAM timing model, and the cancel
//! token's deadline and first-reason rules.

mod support;

use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use support::{property, NO_OPS};
use ziv::cache::SetAssocArray;
use ziv::common::config::DramParams;
use ziv::common::{CacheGeometry, CoreId, LineAddr, SimRng};
use ziv::core::CancelToken;
use ziv::directory::{RemovalOutcome, SparseDirectory};
use ziv::dram::DramModel;
use ziv::prelude::*;
use ziv::replacement::{
    AccessCtx, Lru, MinOracle, Nru, PrecomputedFuture, ReplacementPolicy, Srrip,
};

#[derive(Debug, Clone, Copy)]
enum ArrayOp {
    Fill { set: u32, way: u8, tag: u64 },
    Invalidate { set: u32, way: u8 },
    Lookup { set: u32, tag: u64 },
    SetTag { set: u32, way: u8, tag: u64 },
}

fn array_op(rng: &mut SimRng) -> ArrayOp {
    let (set, way, tag) = (rng.below(8) as u32, rng.below(4) as u8, rng.below(32));
    match rng.below(4) {
        0 => ArrayOp::Fill { set, way, tag },
        1 => ArrayOp::Invalidate { set, way },
        2 => ArrayOp::Lookup { set, tag },
        _ => ArrayOp::SetTag { set, way, tag },
    }
}

#[test]
fn array_matches_reference_model() {
    property(
        "array_matches_reference_model",
        256,
        |rng| ((), (0..rng.below(300)).map(|_| array_op(rng)).collect()),
        |_, ops| {
            let mut arr: SetAssocArray<u32> = SetAssocArray::new(CacheGeometry::new(8, 4));
            // Model: (set, way) -> tag for valid slots.
            let mut model: HashMap<(u32, u8), u64> = HashMap::new();
            let mut counter = 0u32;
            for (i, &op) in ops.iter().enumerate() {
                match op {
                    ArrayOp::Fill { set, way, tag } => {
                        counter += 1;
                        let old = arr.fill(set, way, tag, counter);
                        let model_old = model.insert((set, way), tag);
                        assert_eq!(old.map(|(t, _)| t), model_old, "op {i}");
                    }
                    ArrayOp::Invalidate { set, way } => {
                        let out = arr.invalidate(set, way);
                        let model_out = model.remove(&(set, way));
                        assert_eq!(out.map(|(t, _)| t), model_out, "op {i}");
                    }
                    ArrayOp::Lookup { set, tag } => {
                        let got = arr.lookup(set, tag);
                        // The model may hold duplicate tags in a set (the
                        // array permits it; the LLC controller never creates
                        // them for non-relocated blocks). Compare membership.
                        let expected = model.iter().any(|(&(s, _), &t)| s == set && t == tag);
                        assert_eq!(got.is_some(), expected, "op {i}");
                        if let Some(w) = got {
                            assert_eq!(model.get(&(set, w)), Some(&tag), "op {i}");
                        }
                    }
                    ArrayOp::SetTag { set, way, tag } => {
                        if model.contains_key(&(set, way)) {
                            arr.set_tag(set, way, tag);
                            model.insert((set, way), tag);
                        }
                    }
                }
                // Global occupancy always agrees.
                assert_eq!(arr.total_valid(), model.len(), "op {i}");
            }
        },
    );
}

#[derive(Debug, Clone, Copy)]
enum DirOp {
    Fill { line: u64, core: usize },
    Remove { line: u64, core: usize },
    Probe { line: u64 },
}

fn dir_ops(rng: &mut SimRng) -> Vec<DirOp> {
    (0..rng.below(400))
        .map(|_| {
            let (line, core) = (rng.below(200), rng.below_usize(4));
            match rng.below(3) {
                0 => DirOp::Fill { line, core },
                1 => DirOp::Remove { line, core },
                _ => DirOp::Probe { line },
            }
        })
        .collect()
}

/// A directory small enough that evictions occur.
fn small_directory(mode: DirectoryMode) -> SparseDirectory {
    SparseDirectory::new(
        &SystemConfig::scaled().with_dir_ratio(DirRatio::Quarter),
        mode,
    )
}

/// Under ZeroDEV (no eviction ever escapes tracking) the directory
/// agrees exactly with a reference sharer model.
#[test]
fn zerodev_matches_reference_model() {
    property(
        "zerodev_matches_reference_model",
        48,
        |rng| ((), dir_ops(rng)),
        |_, ops| {
            let mut dir = small_directory(DirectoryMode::ZeroDev);
            let mut model: HashMap<u64, HashSet<usize>> = HashMap::new();
            for (i, &op) in ops.iter().enumerate() {
                match op {
                    DirOp::Fill { line, core } => {
                        let ev = dir.record_fill(LineAddr::new(line), CoreId::new(core));
                        assert!(ev.is_none(), "op {i}: ZeroDEV never evicts");
                        model.entry(line).or_default().insert(core);
                    }
                    DirOp::Remove { line, core } => {
                        let out = dir.remove_sharer(LineAddr::new(line), CoreId::new(core));
                        let expected = match model.get_mut(&line) {
                            None => "not tracked",
                            Some(s) => {
                                // The directory removes the core even if it
                                // was not a sharer; mirror that.
                                s.remove(&core);
                                if s.is_empty() {
                                    model.remove(&line);
                                    "last copy"
                                } else {
                                    "still shared"
                                }
                            }
                        };
                        let got = match out {
                            RemovalOutcome::NotTracked => "not tracked",
                            RemovalOutcome::StillShared => "still shared",
                            RemovalOutcome::LastCopy(_) => "last copy",
                        };
                        assert_eq!(got, expected, "op {i}");
                    }
                    DirOp::Probe { line } => {
                        let tracked = dir.is_privately_cached(LineAddr::new(line));
                        assert_eq!(tracked, model.contains_key(&line), "op {i}");
                        if let Some(sharers) = model.get(&line) {
                            let st = dir.probe(LineAddr::new(line)).unwrap();
                            assert_eq!(st.sharers.count() as usize, sharers.len(), "op {i}");
                            for &c in sharers {
                                assert!(st.sharers.contains(CoreId::new(c)), "op {i}");
                            }
                        }
                    }
                }
                assert_eq!(dir.occupancy(), model.len(), "op {i}");
            }
        },
    );
}

/// Under MESI, evictions may drop entries: the directory's tracked set
/// is always a subset of the reference model's.
#[test]
fn mesi_is_a_subset_of_reference_model() {
    property(
        "mesi_is_a_subset_of_reference_model",
        48,
        |rng| ((), dir_ops(rng)),
        |_, ops| {
            let mut dir = small_directory(DirectoryMode::Mesi);
            let mut model: HashMap<u64, HashSet<usize>> = HashMap::new();
            for (i, &op) in ops.iter().enumerate() {
                match op {
                    DirOp::Fill { line, core } => {
                        if let Some(ev) = dir.record_fill(LineAddr::new(line), CoreId::new(core)) {
                            // The evicted entry's block leaves the model too
                            // (its sharers would be back-invalidated).
                            model.remove(&ev.line.raw());
                        }
                        model.entry(line).or_default().insert(core);
                    }
                    DirOp::Remove { line, core } => {
                        let out = dir.remove_sharer(LineAddr::new(line), CoreId::new(core));
                        if let Some(s) = model.get_mut(&line) {
                            s.remove(&core);
                            if s.is_empty() {
                                model.remove(&line);
                            }
                        }
                        // A NotTracked outcome for a modeled line means it
                        // was silently evicted earlier; drop it.
                        if matches!(out, RemovalOutcome::NotTracked) {
                            model.remove(&line);
                        }
                    }
                    DirOp::Probe { line } => {
                        if dir.is_privately_cached(LineAddr::new(line)) {
                            assert!(
                                model.contains_key(&line),
                                "op {i}: directory tracks a line the model does not"
                            );
                        }
                    }
                }
                assert!(dir.occupancy() <= model.len(), "op {i}");
            }
        },
    );
}

fn ctx(line: u64, seq: u64) -> AccessCtx {
    AccessCtx::demand(
        LineAddr::new(line),
        0x400 + line % 7,
        CoreId::new(0),
        0,
        seq,
    )
}

/// Simulates a single fully-associative set of `ways` under a policy,
/// returning the miss count for an access sequence.
fn misses_under(policy: &mut dyn ReplacementPolicy, ways: u8, seq: &[u64]) -> usize {
    let mut resident: Vec<Option<u64>> = vec![None; ways as usize];
    let mut misses = 0;
    for (i, &line) in seq.iter().enumerate() {
        let c = ctx(line, i as u64);
        if let Some(way) = resident.iter().position(|&r| r == Some(line)) {
            policy.on_hit(0, way as u8, &c);
        } else {
            misses += 1;
            let way = match resident.iter().position(|r| r.is_none()) {
                Some(w) => w as u8,
                None => {
                    let v = policy.victim(0, &c);
                    policy.on_evict(0, v);
                    v
                }
            };
            resident[way as usize] = Some(line);
            policy.on_fill(0, way, &c);
        }
    }
    misses
}

/// Belady's optimal miss count on a single set, computed by brute force.
fn optimal_misses(ways: usize, seq: &[u64]) -> usize {
    let mut resident: Vec<u64> = Vec::new();
    let mut misses = 0;
    for (i, &line) in seq.iter().enumerate() {
        if resident.contains(&line) {
            continue;
        }
        misses += 1;
        if resident.len() < ways {
            resident.push(line);
        } else {
            // Evict the resident line with the furthest next use.
            let victim_idx = (0..resident.len())
                .max_by_key(|&ri| {
                    seq[i + 1..]
                        .iter()
                        .position(|&l| l == resident[ri])
                        .map(|d| d as u64)
                        .unwrap_or(u64::MAX)
                })
                .unwrap();
            resident[victim_idx] = line;
        }
    }
    misses
}

/// `lo..hi` lines (the count drawn uniformly), each below `lines`.
fn line_seq(rng: &mut SimRng, lines: u64, lo: u64, hi: u64) -> Vec<u64> {
    (0..rng.range(lo, hi)).map(|_| rng.below(lines)).collect()
}

/// LRU stack property: with identical access sequences, a larger LRU
/// cache never misses more than a smaller one.
#[test]
fn lru_has_the_stack_property() {
    property(
        "lru_has_the_stack_property",
        256,
        |rng| ((), line_seq(rng, 24, 1, 400)),
        |_, seq| {
            let m4 = misses_under(&mut Lru::new(CacheGeometry::new(1, 4)), 4, seq);
            let m8 = misses_under(&mut Lru::new(CacheGeometry::new(1, 8)), 8, seq);
            assert!(m8 <= m4, "8-way {m8} > 4-way {m4}");
        },
    );
}

/// The MIN oracle achieves exactly Belady's optimal miss count when
/// given the set's own access stream as its future.
#[test]
fn min_oracle_is_optimal_on_a_single_set() {
    property(
        "min_oracle_is_optimal_on_a_single_set",
        256,
        |rng| ((), line_seq(rng, 16, 1, 200)),
        |_, seq| {
            let future = PrecomputedFuture::from_stream(
                seq.iter()
                    .enumerate()
                    .map(|(i, &l)| (i as u64, LineAddr::new(l))),
            );
            let mut min = MinOracle::new(CacheGeometry::new(1, 4), Rc::new(future));
            assert_eq!(misses_under(&mut min, 4, seq), optimal_misses(4, seq));
        },
    );
}

/// No online policy beats MIN.
#[test]
fn no_policy_beats_min() {
    property(
        "no_policy_beats_min",
        256,
        |rng| (rng.below(3), line_seq(rng, 16, 1, 200)),
        |&kind, seq| {
            let optimal = optimal_misses(4, seq);
            let geom = CacheGeometry::new(1, 4);
            let mut policy: Box<dyn ReplacementPolicy> = match kind {
                0 => Box::new(Lru::new(geom)),
                1 => Box::new(Nru::new(geom)),
                _ => Box::new(Srrip::new(geom)),
            };
            let got = misses_under(policy.as_mut(), 4, seq);
            assert!(
                got >= optimal,
                "{} got {got} < optimal {optimal}",
                policy.name()
            );
        },
    );
}

/// Every policy's rank is always a permutation with the victim first.
#[test]
fn rank_is_a_permutation_with_victim_first() {
    const KINDS: [PolicyKind; 4] = [
        PolicyKind::Lru,
        PolicyKind::Nru,
        PolicyKind::Srrip,
        PolicyKind::Hawkeye,
    ];
    property(
        "rank_is_a_permutation_with_victim_first",
        256,
        |rng| {
            let touches = (0..rng.range(1, 100))
                .map(|_| (rng.below(4) as u32, rng.below(4) as u8))
                .collect();
            (KINDS[rng.below_usize(4)], touches)
        },
        |kind, touches| {
            let geom = CacheGeometry::new(4, 4);
            let mut policy = kind.build(geom, 0);
            for (i, &(set, way)) in touches.iter().enumerate() {
                let c = ctx((set * 4 + way as u32) as u64, i as u64);
                if i % 3 == 0 {
                    policy.on_fill(set, way, &c);
                } else {
                    policy.on_hit(set, way, &c);
                }
                let mut order = Vec::new();
                policy.rank(set, &c, &mut order);
                let mut sorted = order.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, vec![0u8, 1, 2, 3], "touch {i}");
                assert_eq!(order[0], policy.victim(set, &c), "touch {i}");
            }
        },
    );
}

/// After filling `fills` into one 4-way set, QBS-style protection moves
/// the victim off the victim slot, or (RRPV ties at 0) gives it the
/// most-protected grade.
fn protect_moves_the_victim(kind: PolicyKind, fills: &[u8]) {
    let mut policy = kind.build(CacheGeometry::new(1, 4), 0);
    for (i, &way) in fills.iter().enumerate() {
        policy.on_fill(0, way, &ctx(way as u64, i as u64));
    }
    let c = ctx(0, 1000);
    let victim = policy.victim(0, &c);
    policy.protect(0, victim);
    let new_victim = policy.victim(0, &c);
    assert!(
        new_victim != victim || policy.rrpv(0, victim) == Some(0),
        "{}: protect({victim}) left it an unprotected victim",
        policy.name()
    );
}

#[test]
fn protect_removes_block_from_victim_position() {
    const KINDS: [PolicyKind; 3] = [PolicyKind::Lru, PolicyKind::Srrip, PolicyKind::Hawkeye];
    property(
        "protect_removes_block_from_victim_position",
        256,
        |rng| {
            let fills = (0..rng.range(4, 20)).map(|_| rng.below(4) as u8).collect();
            (KINDS[rng.below_usize(3)], fills)
        },
        |&kind, fills| protect_moves_the_victim(kind, fills),
    );
}

/// The one failing case the property has ever found, kept as a fixed
/// case.
#[test]
fn protect_removes_hawkeyes_victim_after_fills_0_3_3_3() {
    protect_moves_the_victim(PolicyKind::Hawkeye, &[0, 3, 3, 3]);
}

#[test]
fn lru_equals_opt_when_working_set_fits() {
    let seq: Vec<u64> = (0..4u64).cycle().take(100).collect();
    let m = misses_under(&mut Lru::new(CacheGeometry::new(1, 4)), 4, &seq);
    assert_eq!(m, 4, "only cold misses");
    assert_eq!(optimal_misses(4, &seq), 4);
}

#[test]
fn lru_thrashes_on_circular_overflow_but_min_does_not() {
    // The classic: 5 blocks circulating in a 4-way set.
    let seq: Vec<u64> = (0..5u64).cycle().take(200).collect();
    let lru = misses_under(&mut Lru::new(CacheGeometry::new(1, 4)), 4, &seq);
    assert_eq!(lru, 200, "LRU misses every access");
    let optimal = optimal_misses(4, &seq);
    assert!(optimal < 60, "MIN salvages most accesses: {optimal}");
}

/// Ready times never precede the request, and per-channel data-bus
/// occupancy makes same-channel completions strictly ordered.
#[test]
fn ready_times_are_causal_and_serialized() {
    property(
        "ready_times_are_causal_and_serialized",
        256,
        |rng| {
            let reqs = (0..rng.range(1, 200))
                .map(|_| (rng.below(4096), rng.below(50), rng.chance(0.5)))
                .collect();
            ((), reqs)
        },
        |_, reqs| {
            let mut m = DramModel::new(DramParams::ddr3_2133());
            let mut now = 0u64;
            let mut last_ready_per_channel = [0u64; 2];
            for (i, &(line, delta, write)) in reqs.iter().enumerate() {
                now += delta;
                let r = m.access(LineAddr::new(line), now, write);
                assert!(r.ready_at > now, "request {i}: data ready at issue time");
                let ch = (line % 2) as usize;
                assert!(
                    r.ready_at > last_ready_per_channel[ch],
                    "request {i}: same-channel bursts must serialize"
                );
                last_ready_per_channel[ch] = r.ready_at;
            }
        },
    );
}

/// The model is deterministic.
#[test]
fn model_is_deterministic() {
    property(
        "model_is_deterministic",
        256,
        |rng| {
            let reqs = (0..rng.range(1, 100))
                .map(|_| (rng.below(1024), rng.chance(0.5)))
                .collect();
            ((), reqs)
        },
        |_, reqs| {
            let mut a = DramModel::new(DramParams::ddr3_2133());
            let mut b = DramModel::new(DramParams::ddr3_2133());
            for (i, &(line, write)) in reqs.iter().enumerate() {
                let ra = a.access(LineAddr::new(line), i as u64 * 10, write);
                let rb = b.access(LineAddr::new(line), i as u64 * 10, write);
                assert_eq!(ra.ready_at, rb.ready_at, "request {i}");
                assert_eq!(ra.row_hit, rb.row_hit, "request {i}");
            }
            assert_eq!(a.total_energy_pj(), b.total_energy_pj());
        },
    );
}

/// A sequential stream hits the row buffer more often than a random
/// one.
#[test]
fn sequential_streams_hit_the_row_buffer_more() {
    property(
        "sequential_streams_hit_the_row_buffer_more",
        256,
        |rng| (rng.below(1000), NO_OPS),
        |&seed, _| {
            let mut seq_model = DramModel::new(DramParams::ddr3_2133());
            let mut rnd_model = DramModel::new(DramParams::ddr3_2133());
            let mut rng = SimRng::seed_from_u64(seed);
            let mut now = 0u64;
            for i in 0..400u64 {
                now += 100;
                seq_model.access(LineAddr::new(i), now, false);
                rnd_model.access(LineAddr::new(rng.below(1 << 20)), now, false);
            }
            assert!(seq_model.row_hits() > rnd_model.row_hits());
        },
    );
}

/// Energy accumulates monotonically.
#[test]
fn energy_accumulates_monotonically() {
    property(
        "energy_accumulates_monotonically",
        256,
        |rng| ((), line_seq(rng, 256, 1, 100)),
        |_, lines| {
            let mut m = DramModel::new(DramParams::ddr3_2133());
            let mut last = 0.0f64;
            for (i, &line) in lines.iter().enumerate() {
                m.access(LineAddr::new(line), i as u64 * 50, false);
                let e = m.total_energy_pj();
                assert!(e > last, "request {i}: energy {e} after {last}");
                last = e;
            }
        },
    );
}

/// An access-deadline token never fires early and always fires at or
/// after the deadline.
#[test]
fn cancel_token_fires_exactly_at_its_deadline() {
    property(
        "cancel_token_fires_exactly_at_its_deadline",
        256,
        |rng| {
            let mut draw = || rng.below(1_000_000);
            ((draw(), draw(), draw()), NO_OPS)
        },
        |&(deadline, below, at_or_above), _| {
            let t = CancelToken::with_access_deadline(deadline);
            if below < deadline {
                assert!(t.fired(below).is_none(), "fired before the deadline");
            }
            let issued = deadline.saturating_add(at_or_above);
            assert!(t.fired(issued).is_some(), "must fire at/after the deadline");
        },
    );
}

/// The first cancellation reason wins and sticks, no matter how many
/// follow.
#[test]
fn cancel_reason_is_sticky_first_wins() {
    property(
        "cancel_reason_is_sticky_first_wins",
        256,
        |rng| {
            let reasons = (0..rng.range(1, 6))
                .map(|_| {
                    (0..rng.range(1, 13))
                        .map(|_| (b'a' + rng.below(26) as u8) as char)
                        .collect::<String>()
                })
                .collect();
            (rng.next_u64(), reasons)
        },
        |&issued, reasons| {
            let t = CancelToken::new();
            for r in reasons {
                t.cancel(r.clone());
            }
            let fired = t.fired(issued).expect("cancelled token always fires");
            assert_eq!(fired, reasons[0]);
        },
    );
}
