//! Cross-crate pipeline tests: the MIN oracle's optimality on thrashing
//! patterns, the experiment grid end-to-end, and the side-channel
//! isolation property from the paper's security motivation.

mod support;

use ziv::prelude::*;

/// Builds a single-core circular workload over `n` lines.
fn circular_workload(n: u64, laps: usize) -> Workload {
    let records = (0..n as usize * laps)
        .map(|i| ziv::workloads::TraceRecord {
            addr: Addr::new((i as u64 % n) * 64),
            pc: 0x400,
            is_write: false,
            gap: 2,
        })
        .collect();
    Workload {
        name: format!("circular-{n}"),
        traces: vec![ziv::workloads::CoreTrace {
            records,
            overlap: 0.3,
            app_name: "circ",
        }],
        attack: None,
    }
}

#[test]
fn min_beats_lru_on_thrashing_circular_pattern() {
    // 192 lines circulating through a 128-block LLC: LRU thrashes
    // (every access misses once private caches are exceeded), while
    // Belady's MIN retains a resident prefix.
    let wl = circular_workload(192, 12);
    let lru = ziv::sim::run_one(
        &RunSpec::new("NI-LRU", support::tiny(1, 128, DirRatio::X2))
            .with_mode(LlcMode::NonInclusive),
        &wl,
    );
    let min = ziv::sim::run_one(
        &RunSpec::new("NI-MIN", support::tiny(1, 128, DirRatio::X2))
            .with_mode(LlcMode::NonInclusive)
            .with_policy(PolicyKind::Min),
        &wl,
    );
    assert!(
        (min.metrics.llc_misses as f64) < 0.9 * lru.metrics.llc_misses as f64,
        "MIN {} vs LRU {}",
        min.metrics.llc_misses,
        lru.metrics.llc_misses
    );
}

#[test]
fn min_inclusive_victimizes_recently_used_blocks() {
    // The paper's Section I analysis: on circular patterns MIN evicts
    // the most-recently-used block, which is exactly the privately
    // cached one — so I-MIN generates far more inclusion victims than
    // I-LRU. Use a single-LLC-set circular pattern (B1..B6 B1..B6 ...,
    // 6 > 4 ways) so MIN's most-recent victim is still in the L1.
    let n = 6u64;
    let records = (0..(n as usize) * 40)
        .map(|i| ziv::workloads::TraceRecord {
            addr: Addr::new((i as u64 % n) * 32 * 64), // stride 32 lines = same (bank, set)
            pc: 0x400,
            is_write: false,
            gap: 2,
        })
        .collect();
    let wl = Workload {
        name: "circular-set".into(),
        traces: vec![ziv::workloads::CoreTrace {
            records,
            overlap: 0.3,
            app_name: "circ",
        }],
        attack: None,
    };
    let lru = ziv::sim::run_one(
        &RunSpec::new("I-LRU", support::tiny(1, 128, DirRatio::X2)),
        &wl,
    );
    let min = ziv::sim::run_one(
        &RunSpec::new("I-MIN", support::tiny(1, 128, DirRatio::X2)).with_policy(PolicyKind::Min),
        &wl,
    );
    assert!(
        min.metrics.inclusion_victims > lru.metrics.inclusion_victims,
        "I-MIN {} vs I-LRU {}",
        min.metrics.inclusion_victims,
        lru.metrics.inclusion_victims
    );
}

#[test]
fn grid_pipeline_produces_consistent_reports() {
    let sys = SystemConfig::scaled();
    let scale = ScaleParams::from_system(&sys);
    let wls: Vec<Workload> = (0..2)
        .map(|i| mixes::heterogeneous(i, 4, 2_000, 7, scale))
        .collect();
    let specs = vec![
        RunSpec::new("I-LRU", sys.clone()),
        RunSpec::new("ZIV", sys).with_mode(LlcMode::Ziv(ZivProperty::LikelyDead)),
    ];
    let grid = run_grid(&specs, &wls, 2);
    assert_eq!(grid.len(), 4);
    let rows = ziv::sim::speedup_summary(&grid, specs.len(), 0);
    assert!((rows.rows[0].1.gmean - 1.0).abs() < 1e-9);
    assert!(rows.rows[1].1.gmean > 0.0);
    // The ZIV runs must be victim-free.
    for cell in &grid {
        if cell.spec_index == 1 {
            assert_eq!(cell.result.metrics.inclusion_victims, 0);
        }
    }
}

/// FNV-1a digest of the grid CSV of a 2-spec × 2-workload grid,
/// generated before the grid runner moved onto the supervised pool.
const GRID_CSV_DIGEST: u64 = 0xea72_969d_3aff_3284;

#[test]
fn grid_csv_is_pinned_at_every_thread_count() {
    let sys = SystemConfig::scaled();
    let scale = ScaleParams::from_system(&sys);
    let wls: Vec<Workload> = (0..2)
        .map(|i| mixes::heterogeneous(i, 4, 2_000, 7, scale))
        .collect();
    let specs = vec![
        RunSpec::new("I-LRU", sys.clone()),
        RunSpec::new("ZIV", sys).with_mode(LlcMode::Ziv(ZivProperty::LikelyDead)),
    ];
    for threads in [1, 4] {
        let mut csv = Vec::new();
        ziv::sim::grid_to_csv(&run_grid(&specs, &wls, threads), &mut csv).unwrap();
        let mut h = ziv::common::digest::Fnv1a::new();
        h.write_bytes(&csv);
        assert_eq!(
            h.finish(),
            GRID_CSV_DIGEST,
            "grid.csv digest at {threads} thread(s) moved"
        );
    }
}

#[test]
fn attacker_cannot_flush_victim_private_caches_under_ziv() {
    // A condensed version of examples/side_channel.rs as a regression
    // test: after an attacker floods every LLC set, the victim's secret
    // working set must still hit in its private caches under ZIV.
    for (mode, expect_isolated) in [
        (LlcMode::Inclusive, false),
        (LlcMode::Ziv(ZivProperty::NotInPrC), true),
    ] {
        let cfg = HierarchyConfig::new(support::tiny(2, 128, DirRatio::X2)).with_mode(mode);
        let mut h = CacheHierarchy::new(&cfg);
        let mut now = 0u64;
        let mut seq = 0u64;
        let go = |h: &mut CacheHierarchy, core: usize, line: u64, now: &mut u64, seq: &mut u64| {
            let a = Access::read(CoreId::new(core), Addr::new(line * 64), 0x400);
            let lat = h.access(&a, *now, *seq);
            *now += 1 + lat;
            *seq += 1;
            lat
        };
        let secret: Vec<u64> = (0..6).map(|i| 3 + i * 5).collect();
        for _ in 0..4 {
            for &l in &secret {
                go(&mut h, 0, l, &mut now, &mut seq);
            }
        }
        for l in 0..256u64 {
            go(&mut h, 1, (1 << 20) + l, &mut now, &mut seq);
        }
        let slow = secret
            .iter()
            .filter(|&&l| go(&mut h, 0, l, &mut now, &mut seq) > 4)
            .count();
        if expect_isolated {
            assert_eq!(slow, 0, "{}: victim must be isolated", mode.label());
            assert_eq!(h.metrics().inclusion_victims, 0);
        } else {
            assert!(
                slow > 0,
                "{}: attacker must observe something",
                mode.label()
            );
        }
    }
}

#[test]
fn tpce_scale_128_cores_holds_invariants() {
    let sys = SystemConfig::server_128(8);
    let scale = ScaleParams::from_system(&sys);
    let wl = multithreaded::tpce(128, 300, 11, scale);
    for mode in [LlcMode::Inclusive, LlcMode::Ziv(ZivProperty::LikelyDead)] {
        let r = ziv::sim::run_one(
            &RunSpec::new(mode.label(), sys.clone()).with_mode(mode),
            &wl,
        );
        if mode.is_ziv() {
            assert_eq!(r.metrics.inclusion_victims, 0);
        }
        assert!(r.total_instructions() > 0);
    }
}
