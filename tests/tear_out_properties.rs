//! Seeded properties of the tear-out path: the sharer-set fan-out edge
//! cases (a back-invalidation reaching every sharer of a fully shared
//! line, an ECI early invalidation tearing out a single sharer, the
//! empty-set no-op) and, under arbitrary access interleavings, the
//! agreement of every observer's account of the inclusion victims.
//!
//! Each property runs on the seeded case runner in `support`: a failing
//! case names its seed, and replays exactly from it.

mod support;

use support::{property, steps, Clock, Step, NO_OPS};
use ziv::core::observe::{FlightRecorder, Observations, ObserveConfig};
use ziv::core::LeakageObservatory;
use ziv::directory::SharerSet;
use ziv::prelude::*;

/// Flat LLC sets of the tiny machine: 2 banks × 16 sets.
const FLAT_SETS: u64 = 32;

fn hierarchy(cores: usize, mode: LlcMode) -> CacheHierarchy {
    let cfg = HierarchyConfig::new(support::tiny(cores, 128, DirRatio::X2))
        .with_mode(mode)
        .with_policy(PolicyKind::Lru);
    CacheHierarchy::new(&cfg)
}

fn privately_cached(h: &CacheHierarchy, line: u64) -> bool {
    h.directory()
        .is_privately_cached(Addr::new(line * 64).line())
}

#[test]
fn sharer_set_membership_algebra() {
    // The operations are the members, distinct, in insertion order.
    property(
        "sharer_set_membership_algebra",
        48,
        |rng| {
            let mut cores: Vec<usize> = (0..rng.below_usize(16))
                .map(|_| rng.below_usize(128))
                .collect();
            cores.sort_unstable();
            cores.dedup();
            rng.shuffle(&mut cores);
            ((), cores)
        },
        |_, insert_order| {
            let mut cores = insert_order.to_vec();
            cores.sort_unstable();
            let mut s = SharerSet::EMPTY;
            assert_eq!(s.iter().count(), 0, "empty set fans out to nobody");
            for &c in insert_order {
                assert!(s.insert(CoreId::new(c)), "first insert is new");
                assert!(!s.insert(CoreId::new(c)), "re-insert is a no-op");
            }
            assert_eq!(s.count() as usize, cores.len());
            let fanned: Vec<usize> = s.iter().map(|c| c.index()).collect();
            assert_eq!(fanned, cores, "fan-out = members, in order");
            for &c in insert_order {
                assert!(s.remove(CoreId::new(c)));
                assert!(!s.remove(CoreId::new(c)), "double remove");
            }
            assert!(s.is_empty());
        },
    );
}

/// When a line cached by every non-filler core leaves the inclusive
/// LLC, the back-invalidation tears it out of each sharer exactly once.
#[test]
fn full_sharer_eviction_tears_out_every_sharer_once() {
    property(
        "full_sharer_eviction_tears_out_every_sharer_once",
        48,
        |rng| ((3 + rng.below_usize(5), rng.below(512)), NO_OPS),
        |&(cores, line), _| {
            let mut h = hierarchy(cores, LlcMode::Inclusive);
            let mut clock = Clock::default();
            let filler = cores - 1;
            for c in 0..filler {
                clock.read(&mut h, c, line);
            }
            let entry = h.directory().probe(Addr::new(line * 64).line());
            assert_eq!(
                entry.map(|e| e.sharers.count() as usize),
                Some(filler),
                "every reader registered as a sharer"
            );
            // The filler floods the line's LLC set (4 ways) from its own
            // congruent region until the shared line is the LRU victim.
            for k in 1..=4u64 {
                clock.read(&mut h, filler, line + k * FLAT_SETS);
            }
            let m = h.metrics();
            for c in 0..filler {
                assert_eq!(
                    m.per_core[c].inclusion_victims_suffered, 1,
                    "sharer {c} torn out exactly once"
                );
            }
            assert!(m.inclusion_victims >= filler as u64);
            assert!(!privately_cached(&h, line), "entry freed");
            assert_eq!(h.verify_invariants(), Ok(()));
        },
    );
}

/// When the fill that evicts core 0's LRU line also ranks core 0's
/// other (still privately cached) line as the next victim, ECI tears
/// out exactly that single sharer: core 0 suffers once through the
/// back-invalidation and once through the early invalidation.
#[test]
fn eci_tears_out_the_single_sharer() {
    property(
        "eci_tears_out_the_single_sharer",
        48,
        |rng| (rng.below(512), NO_OPS),
        |&line, _| {
            let mut h = hierarchy(2, LlcMode::Eci);
            let mut clock = Clock::default();
            // Core 0 holds two congruent lines; both fit its 2-way private
            // sets, so both stay privately cached.
            clock.read(&mut h, 0, line);
            clock.read(&mut h, 0, line + FLAT_SETS);
            // Core 1 fills the remaining 2 ways, then overflows the set.
            for k in 2..=4u64 {
                clock.read(&mut h, 1, line + k * FLAT_SETS);
            }
            let m = h.metrics();
            assert_eq!(m.eci_early_invalidations, 1, "ECI fired once");
            assert!(
                m.inclusion_victims >= m.eci_early_invalidations,
                "every ECI invalidation is an inclusion victim"
            );
            assert_eq!(m.per_core[0].inclusion_victims_suffered, 2);
            assert_eq!(
                m.per_core[1].inclusion_victims_suffered, 0,
                "the flooding core never suffers"
            );
            assert_eq!(h.verify_invariants(), Ok(()));
        },
    );
}

/// Once the owner's private copy has been walked out of its own caches
/// (same private sets, different LLC set), the line's later LLC
/// eviction finds no sharer and tears out nothing.
#[test]
fn evicting_a_line_no_core_holds_is_a_no_op() {
    property(
        "evicting_a_line_no_core_holds_is_a_no_op",
        48,
        |rng| (rng.below(512), NO_OPS),
        |&line, _| {
            let mut h = hierarchy(2, LlcMode::Inclusive);
            let mut clock = Clock::default();
            clock.read(&mut h, 0, line);
            // Stride 4 keeps the L1 set (2 sets) and L2 set (4 sets) but
            // moves the LLC set; j stops before 8, where stride 4 wraps
            // back into `line`'s flat set.
            for j in 1..=4u64 {
                clock.read(&mut h, 0, line + j * 4);
            }
            assert!(!privately_cached(&h, line), "flushed");
            let before = h.metrics().inclusion_victims;
            for k in 1..=4u64 {
                clock.read(&mut h, 1, line + k * FLAT_SETS);
            }
            assert_eq!(
                h.metrics().inclusion_victims,
                before,
                "evicting an unshared line reaches into no core"
            );
            assert_eq!(h.verify_invariants(), Ok(()));
        },
    );
}

/// A miss is checked against the lines torn out of its core before its
/// own fill runs: here core 0's refetch of `a` fills over `b`, which
/// core 0 also holds and whose victim-table slot is `a`'s, so a lookup
/// after the fill would find `b` and miss the refetch.
#[test]
fn refetch_is_found_before_the_fill_reuses_its_slot() {
    property(
        "refetch_is_found_before_the_fill_reuses_its_slot",
        16,
        |rng| (rng.below(512), NO_OPS),
        |&a, _| {
            let sys = support::tiny(2, 128, DirRatio::X2);
            let (banks, sets) = (sys.llc.banks, sys.llc.bank_geometry.sets as usize);
            let mut h = hierarchy(2, LlcMode::Inclusive);
            let observe = ObserveConfig {
                latency: true,
                forensics: true,
                ..ObserveConfig::disabled()
            };
            h.attach_recorder(FlightRecorder::new(&observe, 2, banks, sets).expect("on"));
            let mut clock = Clock::default();
            let b = a + 1024; // same LLC set and victim-table slot as `a`
            clock.read(&mut h, 0, a);
            clock.read(&mut h, 0, b);
            // Core 1 fills the set; its third line evicts `a`, the LRU.
            for k in 1..=3u64 {
                clock.read(&mut h, 1, a + k * FLAT_SETS);
            }
            assert_eq!(h.metrics().per_core[0].inclusion_victims_suffered, 1);
            clock.read(&mut h, 0, a); // the refetch; its fill evicts `b`
            assert_eq!(h.metrics().per_core[0].inclusion_victims_suffered, 2);
            let rec = h.take_recorder().expect("attached").finish();
            let latency = rec.latency.expect("latency on");
            let refetches = latency.class_total(ziv::sim::AccessClass::InclusionVictimRefetch);
            assert_eq!(refetches.count, 1, "refetch of `a` missed");
            assert_eq!(rec.forensics.expect("forensics on").total_refetches(), 1);
        },
    );
}

/// Runs `steps` by 3 cores with every observer attached; returns the
/// victim count and the recorder's observations.
fn run_observed(mode: LlcMode, steps: &[Step]) -> (u64, Observations) {
    let sys = support::tiny(3, 128, DirRatio::X2);
    let (banks, sets) = (sys.llc.banks, sys.llc.bank_geometry.sets as usize);
    let mut h = CacheHierarchy::new(&HierarchyConfig::new(sys).with_mode(mode));
    let observe = ObserveConfig {
        latency: true,
        leakage: true,
        forensics: true,
        ..ObserveConfig::disabled()
    };
    let mut rec = FlightRecorder::new(&observe, 3, banks, sets).expect("recorder on");
    rec.attach_leakage(LeakageObservatory::new(3, banks, sets, &[0], &[1], &[]));
    h.attach_recorder(rec);
    let mut clock = Clock::default();
    for s in steps {
        clock.access(&mut h, s.core, s.line, s.write);
    }
    let victims = h.metrics().inclusion_victims;
    (victims, h.take_recorder().expect("attached").finish())
}

#[test]
fn every_observer_counts_the_same_tear_outs() {
    for mode in [
        LlcMode::Inclusive,
        LlcMode::Qbs,
        LlcMode::Sharp,
        LlcMode::CharOnBase,
        LlcMode::Eci,
        LlcMode::Ric,
    ] {
        let mut victims_seen = 0;
        property(
            &format!(
                "every_observer_counts_the_same_tear_outs ({})",
                mode.label()
            ),
            64,
            |rng| ((), steps(rng, 3, 400, 200, 1200)),
            |_, steps| {
                let (victims, rec) = run_observed(mode, steps);
                let forensics = rec.forensics.expect("forensics on");
                let latency = rec.latency.expect("latency on");
                let leakage = rec.leakage.expect("leakage attached");
                assert_eq!(forensics.total_victims(), victims, "blame");
                assert_eq!(leakage.total_back_invalidations(), victims, "leakage");
                assert_eq!(
                    forensics.total_refetch_cycles(),
                    latency.inclusion_victim_refetch_cycles(),
                    "refetch cycles"
                );
                victims_seen += victims;
            },
        );
        assert!(
            victims_seen > 0,
            "{}: no interleaving tore anything out",
            mode.label()
        );
    }
}

#[test]
fn ziv_records_no_chains_under_any_interleaving() {
    for ziv in [
        ZivProperty::NotInPrC,
        ZivProperty::LruNotInPrC,
        ZivProperty::LikelyDead,
    ] {
        property(
            &format!("ziv_records_no_chains_under_any_interleaving ({ziv:?})"),
            24,
            |rng| ((), steps(rng, 3, 400, 200, 1200)),
            |_, steps| {
                let (victims, rec) = run_observed(LlcMode::Ziv(ziv), steps);
                let forensics = rec.forensics.expect("forensics on");
                assert_eq!(victims, 0);
                assert_eq!(forensics.chains_recorded, 0);
                assert!(forensics.chains.is_empty());
            },
        );
    }
}
