//! Seeded properties of the tear-out path: the sharer-set fan-out edge
//! cases (a back-invalidation reaching every sharer of a fully shared
//! line, an ECI early invalidation tearing out a single sharer, the
//! empty-set no-op) and, under arbitrary access interleavings, the
//! agreement of every observer's account of the inclusion victims.
//!
//! Each property runs a fixed set of seeds through `ziv_common::rng`;
//! a failing case names its seed in the assertion message, and the
//! case replays exactly from that seed.

use ziv::common::config::{CacheGeometry, DramParams, LlcConfig, NocParams};
use ziv::common::SimRng;
use ziv::core::observe::{FlightRecorder, ObserveConfig, Recording};
use ziv::core::LeakageObservatory;
use ziv::directory::SharerSet;
use ziv::prelude::*;

/// A machine small enough that a few hundred accesses overflow every
/// level: 2-way L1s and L2, a 2-bank × 16-set × 4-way LLC.
fn tiny(cores: usize) -> SystemConfig {
    SystemConfig {
        cores,
        l1i: CacheGeometry::new(2, 2),
        l1d: CacheGeometry::new(2, 2),
        l1_latency: 0,
        l2: CacheGeometry::new(4, 2),
        l2_latency: 4,
        llc: LlcConfig::from_total_capacity(128 * 64, 4, 2),
        dir_ratio: DirRatio::X2,
        dir_base_ways: 8,
        noc: NocParams::table1(),
        dram: DramParams::ddr3_2133(),
        base_cpi: 0.25,
        scale_denominator: 1,
    }
}

/// Flat LLC sets of the `tiny` machine: 2 banks × 16 sets.
const FLAT_SETS: u64 = 32;

/// Runs `check` once per seed.
fn for_seeds(cases: u64, mut check: impl FnMut(u64, &mut SimRng)) {
    for case in 0..cases {
        let seed = 0x7ea2_0000 + case;
        check(seed, &mut SimRng::seed_from_u64(seed));
    }
}

fn hierarchy(cores: usize, mode: LlcMode) -> CacheHierarchy {
    let cfg = HierarchyConfig::new(tiny(cores))
        .with_mode(mode)
        .with_policy(PolicyKind::Lru);
    CacheHierarchy::new(&cfg)
}

/// A driver clock: each access starts after the previous one ends.
#[derive(Default)]
struct Clock {
    now: u64,
    seq: u64,
}

impl Clock {
    fn access(&mut self, h: &mut CacheHierarchy, core: usize, line: u64, write: bool) {
        let addr = Addr::new(line * 64);
        let pc = 0x400 + line % 32;
        let a = if write {
            Access::write(CoreId::new(core), addr, pc)
        } else {
            Access::read(CoreId::new(core), addr, pc)
        };
        self.now += 1 + h.access(&a, self.now, self.seq);
        self.seq += 1;
    }

    fn read(&mut self, h: &mut CacheHierarchy, core: usize, line: u64) {
        self.access(h, core, line, false);
    }
}

fn privately_cached(h: &CacheHierarchy, line: u64) -> bool {
    h.directory()
        .is_privately_cached(Addr::new(line * 64).line())
}

#[test]
fn sharer_set_membership_algebra() {
    for_seeds(48, |seed, rng| {
        let mut cores: Vec<usize> = (0..rng.below_usize(16))
            .map(|_| rng.below_usize(128))
            .collect();
        cores.sort_unstable();
        cores.dedup();
        let mut s = SharerSet::EMPTY;
        assert_eq!(
            s.iter().count(),
            0,
            "seed {seed:#x}: empty set fans out to nobody"
        );
        let mut insert_order = cores.clone();
        rng.shuffle(&mut insert_order);
        for &c in &insert_order {
            assert!(
                s.insert(CoreId::new(c)),
                "seed {seed:#x}: first insert is new"
            );
            assert!(
                !s.insert(CoreId::new(c)),
                "seed {seed:#x}: re-insert is a no-op"
            );
        }
        assert_eq!(s.count() as usize, cores.len(), "seed {seed:#x}");
        let fanned: Vec<usize> = s.iter().map(|c| c.index()).collect();
        assert_eq!(fanned, cores, "seed {seed:#x}: fan-out = members, in order");
        for &c in &insert_order {
            assert!(s.remove(CoreId::new(c)), "seed {seed:#x}");
            assert!(!s.remove(CoreId::new(c)), "seed {seed:#x}: double remove");
        }
        assert!(s.is_empty(), "seed {seed:#x}");
    });
}

/// When a line cached by every non-filler core leaves the inclusive
/// LLC, the back-invalidation tears it out of each sharer exactly once.
#[test]
fn full_sharer_eviction_tears_out_every_sharer_once() {
    for_seeds(48, |seed, rng| {
        let cores = 3 + rng.below_usize(5);
        let line = rng.below(512);
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
            "seed {seed:#x}: every reader registered as a sharer"
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
                "seed {seed:#x}: sharer {c} torn out exactly once"
            );
        }
        assert!(m.inclusion_victims >= filler as u64, "seed {seed:#x}");
        assert!(!privately_cached(&h, line), "seed {seed:#x}: entry freed");
        assert_eq!(h.verify_invariants(), Ok(()), "seed {seed:#x}");
    });
}

/// When the fill that evicts core 0's LRU line also ranks core 0's
/// other (still privately cached) line as the next victim, ECI tears
/// out exactly that single sharer: core 0 suffers once through the
/// back-invalidation and once through the early invalidation.
#[test]
fn eci_tears_out_the_single_sharer() {
    for_seeds(48, |seed, rng| {
        let line = rng.below(512);
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
        assert_eq!(
            m.eci_early_invalidations, 1,
            "seed {seed:#x}: ECI fired once"
        );
        assert!(
            m.inclusion_victims >= m.eci_early_invalidations,
            "seed {seed:#x}: every ECI invalidation is an inclusion victim"
        );
        assert_eq!(
            m.per_core[0].inclusion_victims_suffered, 2,
            "seed {seed:#x}"
        );
        assert_eq!(
            m.per_core[1].inclusion_victims_suffered, 0,
            "seed {seed:#x}: the flooding core never suffers"
        );
        assert_eq!(h.verify_invariants(), Ok(()), "seed {seed:#x}");
    });
}

/// Once the owner's private copy has been walked out of its own caches
/// (same private sets, different LLC set), the line's later LLC
/// eviction finds no sharer and tears out nothing.
#[test]
fn evicting_a_line_no_core_holds_is_a_no_op() {
    for_seeds(48, |seed, rng| {
        let line = rng.below(512);
        let mut h = hierarchy(2, LlcMode::Inclusive);
        let mut clock = Clock::default();
        clock.read(&mut h, 0, line);
        // Stride 4 keeps the L1 set (2 sets) and L2 set (4 sets) but
        // moves the LLC set; j stops before 8, where stride 4 wraps
        // back into `line`'s flat set.
        for j in 1..=4u64 {
            clock.read(&mut h, 0, line + j * 4);
        }
        assert!(!privately_cached(&h, line), "seed {seed:#x}: flushed");
        let before = h.metrics().inclusion_victims;
        for k in 1..=4u64 {
            clock.read(&mut h, 1, line + k * FLAT_SETS);
        }
        assert_eq!(
            h.metrics().inclusion_victims,
            before,
            "seed {seed:#x}: evicting an unshared line reaches into no core"
        );
        assert_eq!(h.verify_invariants(), Ok(()), "seed {seed:#x}");
    });
}

/// A miss is checked against the lines torn out of its core before its
/// own fill runs: here core 0's refetch of `a` fills over `b`, which
/// core 0 also holds and whose victim-table slot is `a`'s, so a lookup
/// after the fill would find `b` and miss the refetch.
#[test]
fn refetch_is_found_before_the_fill_reuses_its_slot() {
    for_seeds(16, |seed, rng| {
        let sys = tiny(2);
        let (banks, sets) = (sys.llc.banks, sys.llc.bank_geometry.sets as usize);
        let mut h = hierarchy(2, LlcMode::Inclusive);
        let observe = ObserveConfig {
            latency: true,
            forensics: true,
            ..ObserveConfig::disabled()
        };
        h.attach_recorder(FlightRecorder::new(&observe, 2, banks, sets).expect("on"));
        let mut clock = Clock::default();
        let a = rng.below(512);
        let b = a + 1024; // same LLC set and victim-table slot as `a`
        clock.read(&mut h, 0, a);
        clock.read(&mut h, 0, b);
        // Core 1 fills the set; its third line evicts `a`, the LRU.
        for k in 1..=3u64 {
            clock.read(&mut h, 1, a + k * FLAT_SETS);
        }
        assert_eq!(
            h.metrics().per_core[0].inclusion_victims_suffered,
            1,
            "seed {seed:#x}"
        );
        clock.read(&mut h, 0, a); // the refetch; its fill evicts `b`
        assert_eq!(
            h.metrics().per_core[0].inclusion_victims_suffered,
            2,
            "seed {seed:#x}"
        );
        let rec = h.take_recorder().expect("attached").finish();
        let latency = rec.latency.expect("latency on");
        let refetches = latency.class_total(ziv::sim::AccessClass::InclusionVictimRefetch);
        assert_eq!(refetches.count, 1, "seed {seed:#x}: refetch of `a` missed");
        assert_eq!(rec.forensics.expect("forensics on").total_refetches(), 1);
    });
}

/// Runs a seeded interleaving of 200–1199 accesses by 3 cores over 400
/// lines with every observer attached; returns the victim count and
/// the recording.
fn run_observed(mode: LlcMode, rng: &mut SimRng) -> (u64, Recording) {
    let sys = tiny(3);
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
    for _ in 0..rng.range(200, 1200) {
        let core = rng.below_usize(3);
        clock.access(&mut h, core, rng.below(400), rng.chance(0.5));
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
        for_seeds(64, |seed, rng| {
            let (victims, rec) = run_observed(mode, rng);
            let forensics = rec.forensics.expect("forensics on");
            let latency = rec.latency.expect("latency on");
            let leakage = rec.leakage.expect("leakage attached");
            let label = format!("{} seed {seed:#x}", mode.label());
            assert_eq!(forensics.total_victims(), victims, "{label}: blame");
            assert_eq!(
                leakage.total_back_invalidations(),
                victims,
                "{label}: leakage"
            );
            assert_eq!(
                forensics.total_refetch_cycles(),
                latency.inclusion_victim_refetch_cycles(),
                "{label}: refetch cycles"
            );
            victims_seen += victims;
        });
        assert!(
            victims_seen > 0,
            "{}: no interleaving tore anything out",
            mode.label()
        );
    }
}

#[test]
fn ziv_records_no_chains_under_any_interleaving() {
    for property in [
        ZivProperty::NotInPrC,
        ZivProperty::LruNotInPrC,
        ZivProperty::LikelyDead,
    ] {
        for_seeds(24, |seed, rng| {
            let (victims, rec) = run_observed(LlcMode::Ziv(property), rng);
            let forensics = rec.forensics.expect("forensics on");
            let label = format!("{property:?} seed {seed:#x}");
            assert_eq!(victims, 0, "{label}");
            assert_eq!(forensics.chains_recorded, 0, "{label}");
            assert!(forensics.chains.is_empty(), "{label}");
        });
    }
}
