//! Differential determinism checks for the allocation-free access hot
//! path (DESIGN.md §8): rewriting the sharer-iteration, victim-selection,
//! and fused tag-probe paths must leave simulation behavior
//! bit-for-bit unchanged. Two guards:
//!
//! 1. every LLC mode, run twice under the every-access invariant
//!    auditor, produces identical [`ziv::sim::RunResult`]s (metrics,
//!    per-core stats, everything `PartialEq` covers);
//! 2. the smoke campaign, run twice from scratch, writes byte-identical
//!    ledgers and grid CSVs — the cell digests and serialized metrics
//!    the resumable runner trusts for caching;
//! 3. every mode, plus the (mode, policy) pairs that route victim
//!    selection through each replacement policy, reproduces a pinned
//!    digest of its [`ziv::sim::RunResult`] — so a rewrite is checked
//!    against the results the code produced before it, not only
//!    against a second run of itself. A few more pinned cells move the
//!    counters those pairs leave at zero, so every `Metrics` counter is
//!    nonzero in some pinned cell and a change that stopped counting
//!    one would break a pin.

use std::fs;
use std::path::PathBuf;
use ziv::common::config::LlcConfig;
use ziv::common::digest::Fnv1a;
use ziv::core::observe::{
    core_metrics_scalars, metrics_scalars, CORE_METRICS_COLUMNS, METRICS_COLUMNS,
};
use ziv::core::prefetch::PrefetchConfig;
use ziv::core::AuditCadence;
use ziv::harness::{campaigns, run_campaign, CampaignParams, NullSink, RunnerConfig};
use ziv::prelude::*;
use ziv::sim::{run_one_checked, RunOptions};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("ziv-hotpath-it")
        .join(format!("{name}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

/// Every LLC mode the CLI exposes — the hot-path rewrite touched
/// mode-shared code (directory iteration, victim scans, fused probes),
/// so every mode must be re-proven deterministic, not just the ZIV
/// ones. The MaxRrpv properties require an RRPV-graded policy, so each
/// mode carries the policy it runs under.
fn all_modes() -> Vec<(LlcMode, PolicyKind)> {
    use ZivProperty::*;
    vec![
        (LlcMode::Inclusive, PolicyKind::Lru),
        (LlcMode::NonInclusive, PolicyKind::Lru),
        (LlcMode::Qbs, PolicyKind::Lru),
        (LlcMode::Sharp, PolicyKind::Lru),
        (LlcMode::CharOnBase, PolicyKind::Lru),
        (LlcMode::Tlh { hint_one_in: 8 }, PolicyKind::Lru),
        (LlcMode::Eci, PolicyKind::Lru),
        (LlcMode::Ric, PolicyKind::Lru),
        (LlcMode::WayPartitioned, PolicyKind::Lru),
        (LlcMode::Ziv(NotInPrC), PolicyKind::Lru),
        (LlcMode::Ziv(LruNotInPrC), PolicyKind::Lru),
        (LlcMode::Ziv(LikelyDead), PolicyKind::Lru),
        (LlcMode::Ziv(MaxRrpvNotInPrC), PolicyKind::Srrip),
        (LlcMode::Ziv(MaxRrpvLikelyDead), PolicyKind::Hawkeye),
    ]
}

#[test]
fn every_mode_is_deterministic_under_every_access_audit() {
    let sys = SystemConfig::scaled();
    let scale = ScaleParams::from_system(&sys);
    // Small trace: the every-access auditor walks the whole hierarchy
    // per access, and this runs twice per mode (28 audited runs).
    let wl = mixes::heterogeneous(0, 2, 150, 0x2026, scale);
    let opts = RunOptions {
        audit: AuditCadence::EveryAccess,
        budget: None,
        ..RunOptions::default()
    };
    for (mode, policy) in all_modes() {
        let spec = RunSpec::new(mode.label(), sys.clone())
            .with_mode(mode)
            .with_policy(policy);
        let a = run_one_checked(&spec, &wl, &opts)
            .unwrap_or_else(|e| panic!("{}: first run failed: {e}", spec.label));
        let b = run_one_checked(&spec, &wl, &opts)
            .unwrap_or_else(|e| panic!("{}: second run failed: {e}", spec.label));
        assert_eq!(a, b, "{} diverged across identical runs", spec.label);
        assert_eq!(a.metrics, b.metrics);
    }
}

#[test]
fn smoke_campaign_ledger_is_byte_identical_across_runs() {
    let params = CampaignParams::tiny();
    let campaign = campaigns::by_name("smoke", &params).expect("smoke campaign is registered");
    let run_pass = |name: &str| {
        let dir = temp_dir(name);
        let cfg = RunnerConfig {
            threads: 1, // deterministic ledger append order
            audit: AuditCadence::EveryAccess,
            params: Some(params),
            ..RunnerConfig::new(dir.clone())
        };
        let outcome = run_campaign(&campaign, &cfg, &NullSink).expect("campaign runs");
        assert!(outcome.failures.is_empty(), "no cell may fail");
        let ledger = fs::read_to_string(&outcome.ledger_path).expect("ledger exists");
        let grid_csv = fs::read(&outcome.grid_csv).expect("grid csv exists");
        fs::remove_dir_all(&dir).ok();
        (ledger, grid_csv, outcome)
    };
    let (ledger_a, grid_a, out_a) = run_pass("pass-a");
    let (ledger_b, grid_b, out_b) = run_pass("pass-b");
    assert!(!ledger_a.is_empty());
    assert_eq!(
        ledger_a, ledger_b,
        "campaign ledgers (cell digests + serialized metrics) must be byte-identical"
    );
    assert_eq!(grid_a, grid_b, "grid CSVs must be byte-identical");
    assert_eq!(out_a.grid.len(), campaign.total_cells());
    for (a, b) in out_a.grid.iter().zip(out_b.grid.iter()) {
        assert_eq!(
            a.result.metrics, b.result.metrics,
            "{} × {} metrics diverged",
            a.result.label, a.result.workload
        );
    }
}

/// The machine the pinned cells run on: the Fig 14 configuration at
/// 1/64 scale (16 KB L2s next to a 256 KB LLC, so privately cached
/// blocks are a large share of the LLC), with the LLC regrouped into two
/// 128-set banks so every property vector spans two 64-bit words.
fn pin_system() -> SystemConfig {
    let mut sys = SystemConfig::big_llc(64);
    sys.llc = LlcConfig::from_total_capacity(sys.llc.total_capacity_bytes(), 16, 2);
    sys
}

/// Two cores whose hot sets live in their L2s while two streaming cores
/// push the LLC copies of those sets to the eviction end: inclusive
/// cells back-invalidate them, ZIV cells relocate them.
fn hot_vs_stream(sys: &SystemConfig) -> Workload {
    let sc = ScaleParams::from_system(sys);
    let hot = mixes::homogeneous(apps::app_by_name("hotl2").unwrap(), 2, 4_000, 3, sc);
    let stream = mixes::homogeneous(apps::app_by_name("stream").unwrap(), 4, 4_000, 5, sc);
    let mut traces = hot.traces;
    traces.extend(stream.traces.into_iter().skip(2));
    Workload {
        name: "hot-vs-stream".into(),
        traces,
        attack: None,
    }
}

/// [`all_modes`] plus the pairs that send victim selection and the
/// graded property bit through every other replacement policy, and each
/// filtering chooser (QBS, SHARP, ECI, way partitioning, CHARonBase)
/// through an RRPV policy, where ways tie on their key; QBS also runs
/// under NRU, whose `protect` can clear the other ways' bits.
fn pinned_pairs() -> Vec<(LlcMode, PolicyKind)> {
    use ZivProperty::*;
    let mut pairs = all_modes();
    pairs.extend([
        (LlcMode::Ziv(LikelyDead), PolicyKind::Hawkeye),
        (LlcMode::Ziv(LruNotInPrC), PolicyKind::Nru),
        (LlcMode::Ziv(NotInPrC), PolicyKind::Min),
        (LlcMode::Ziv(MaxRrpvNotInPrC), PolicyKind::Drrip),
        (LlcMode::Ziv(MaxRrpvNotInPrC), PolicyKind::Ship),
        (LlcMode::QbsBounded(2), PolicyKind::Lru),
        (LlcMode::Inclusive, PolicyKind::Hawkeye),
        (LlcMode::Qbs, PolicyKind::Nru),
        (LlcMode::Qbs, PolicyKind::Hawkeye),
        (LlcMode::QbsBounded(2), PolicyKind::Hawkeye),
        (LlcMode::Sharp, PolicyKind::Hawkeye),
        (LlcMode::Eci, PolicyKind::Hawkeye),
        (LlcMode::WayPartitioned, PolicyKind::Hawkeye),
        (LlcMode::CharOnBase, PolicyKind::Hawkeye),
    ]);
    pairs
}

/// A pinned cell outside [`pinned_pairs`]: its spec, its workload and
/// the counters it is pinned for, each of which it must move.
type CounterCell = (RunSpec, Workload, &'static [&'static str]);

/// The cells that move the counters every pair of [`pinned_pairs`]
/// leaves at zero on the pinned mix:
///
/// - stride prefetching moves the three prefetch counters;
/// - canneal's shared writes invalidate other cores' copies, and a
///   quarter-size directory evicts entries that still have sharers;
/// - applu's new sharers hit relocated blocks under ZIV, and its
///   never-written lines take RIC's relaxed eviction;
/// - SHARP runs out of unshared and own-core victims next to 1 MB L2s;
/// - with 1 MB L2s on the 8 MB-class LLC the private caches outgrow the
///   LLC, so ZIV relocates across banks and, finding no block outside
///   the private caches, falls back to inclusive evictions. It is the
///   one cell where the fallback is expected.
fn counter_cells(sys: &SystemConfig, wl: &Workload) -> Vec<CounterCell> {
    use ZivProperty::*;
    let sc = ScaleParams::from_system(sys);
    let m1 = SystemConfig::scaled_with_l2(L2Size::M1);
    let m1_sc = ScaleParams::from_system(&m1);
    let applu = multithreaded::applu(8, 6_000, 7, sc);
    let spec = |label: &str, sys: &SystemConfig| RunSpec::new(label, sys.clone());
    vec![
        (
            spec("I-LRU prefetch", sys).with_prefetch(PrefetchConfig::default()),
            wl.clone(),
            &["prefetches_issued", "prefetch_fills", "prefetch_drops"],
        ),
        (
            spec("I-LRU canneal", sys),
            multithreaded::canneal(4, 4_000, 7, sc),
            &["coherence_invalidations"],
        ),
        (
            spec(
                "I-LRU dir/4",
                &sys.clone().with_dir_ratio(DirRatio::Quarter),
            ),
            wl.clone(),
            &["directory_back_invalidations"],
        ),
        (
            spec("ZIV-NotInPrC-LRU applu", sys).with_mode(LlcMode::Ziv(NotInPrC)),
            applu.clone(),
            &["relocated_hits"],
        ),
        (
            spec("RIC-LRU applu", sys).with_mode(LlcMode::Ric),
            applu,
            &["ric_relaxations"],
        ),
        (
            spec("SHARP-LRU 1MB hetero-0", &m1).with_mode(LlcMode::Sharp),
            mixes::heterogeneous(0, 8, 6_000, 3, m1_sc),
            &["sharp_alarms"],
        ),
        (
            spec("ZIV-LikelyDead-LRU 1MB vips", &m1).with_mode(LlcMode::Ziv(LikelyDead)),
            multithreaded::vips(8, 6_000, 7, m1_sc),
            &["cross_bank_relocations", "ziv_guarantee_fallbacks"],
        ),
    ]
}

/// FNV-1a of a result's `Debug` rendering (the benchmark's result
/// digest).
fn result_digest(r: &ziv::sim::RunResult) -> u64 {
    let mut h = Fnv1a::new();
    h.write_str(&format!("{r:?}"));
    h.finish()
}

#[rustfmt::skip]
const PINS: &[(&str, u64)] = &[
    ("I-LRU", 0x7781cc46f465096b),
    ("NI-LRU", 0x47c50796b5fc411b),
    ("QBS-LRU", 0x7572d708be928b65),
    ("SHARP-LRU", 0x4c64a5fb7b6fb3d1),
    ("CHARonBase-LRU", 0x661d6f0630077e7a),
    ("TLH/8-LRU", 0x681b6ce8076421c4),
    ("ECI-LRU", 0x2cdcaba76d32c4e8),
    ("RIC-LRU", 0xb0465990fa704980),
    ("WayPart-LRU", 0x040ae5934970aac6),
    ("ZIV-NotInPrC-LRU", 0xab799364476afbee),
    ("ZIV-LRUNotInPrC-LRU", 0x212b44e53e7d5a32),
    ("ZIV-LikelyDead-LRU", 0x0e18845cb234cb91),
    ("ZIV-MRNotInPrC-SRRIP", 0x00c9d2aa920eec8f),
    ("ZIV-MRLikelyDead-Hawkeye", 0x044091bce8439be7),
    ("ZIV-LikelyDead-Hawkeye", 0xd8f7be846b3f33f3),
    ("ZIV-LRUNotInPrC-NRU", 0x1cd8fa2d60cdc9b0),
    ("ZIV-NotInPrC-MIN", 0xa25ea16ccf77ca54),
    ("ZIV-MRNotInPrC-DRRIP", 0xb6bd8040de385206),
    ("ZIV-MRNotInPrC-SHiP", 0xaa58716b915c25f1),
    ("QBS2-LRU", 0x64d25737c8c01a53),
    ("I-Hawkeye", 0x52b36454fe92f6a4),
    ("QBS-NRU", 0x733817ad0fe5eee4),
    ("QBS-Hawkeye", 0x8ca2ef8b054098c4),
    ("QBS2-Hawkeye", 0x7fff2991d3191d3b),
    ("SHARP-Hawkeye", 0x9d54f4e89f7432cc),
    ("ECI-Hawkeye", 0xedf6ce9e6273e7b5),
    ("WayPart-Hawkeye", 0xea3e713e12e88b78),
    ("CHARonBase-Hawkeye", 0x3ba2bc6b83cf7223),
    ("I-LRU prefetch", 0x2375c052ae153b91),
    ("I-LRU canneal", 0x9e9b3a951f1128f1),
    ("I-LRU dir/4", 0x03ea63569530461a),
    ("ZIV-NotInPrC-LRU applu", 0xa8b0168d73f66085),
    ("RIC-LRU applu", 0x42f4384664e971ae),
    ("SHARP-LRU 1MB hetero-0", 0x5057be56842dcbc0),
    ("ZIV-LikelyDead-LRU 1MB vips", 0xbf0983c8131f3d76),
];

#[test]
fn every_mode_matches_its_pinned_digest() {
    let sys = pin_system();
    let wl = hot_vs_stream(&sys);
    let mut computed = Vec::new();
    let mut inclusive_victims = Vec::new();
    let mut counters = vec![0u64; METRICS_COLUMNS.len()];
    let mut core_counters = vec![0u64; CORE_METRICS_COLUMNS.len()];
    let pairs = pinned_pairs().into_iter().map(|(mode, policy)| {
        let label = format!("{}-{}", mode.label(), policy.label());
        let spec = RunSpec::new(&label, sys.clone())
            .with_mode(mode)
            .with_policy(policy);
        (spec, wl.clone(), &[][..])
    });
    for (spec, cell_wl, moves) in pairs.chain(counter_cells(&sys, &wl)) {
        let (label, mode, policy) = (spec.label.clone(), spec.mode, spec.policy);
        let r = run_one_checked(&spec, &cell_wl, &RunOptions::default())
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        computed.push((label.clone(), result_digest(&r)));
        let scalars = metrics_scalars(&r.metrics);
        for (total, v) in counters.iter_mut().zip(&scalars) {
            *total += v;
        }
        for core in &r.metrics.per_core {
            for (total, v) in core_counters.iter_mut().zip(core_metrics_scalars(core)) {
                *total += v;
            }
        }
        // ZIV's defensive fallback is taken only where it is pinned.
        let fallbacks = r.metrics.ziv_guarantee_fallbacks;
        assert_eq!(
            fallbacks > 0,
            moves.contains(&"ziv_guarantee_fallbacks"),
            "{label}: {fallbacks} ZIV guarantee fallback(s)"
        );
        if !moves.is_empty() {
            for &name in moves {
                let i = METRICS_COLUMNS.iter().position(|&c| c == name).unwrap();
                assert!(scalars[i] > 0, "{label}: no {name}");
            }
            continue;
        }
        // No pin may pass vacuously: inclusive cells must back-invalidate
        // and ZIV cells must relocate.
        if mode == LlcMode::Inclusive {
            assert!(r.metrics.inclusion_victims > 0, "{label}: no victims");
            inclusive_victims.push((policy, r.metrics.inclusion_victims));
        }
        if mode.is_ziv() {
            assert!(r.metrics.relocations > 0, "{label}: no relocations");
        }
        // Every other chooser must move the count it exists for: QBS
        // queries, ECI early invalidations, or fewer inclusion victims
        // than the inclusive cell of the same policy (SHARP raises no
        // alarm on this workload: its first two steps always find a
        // victim).
        match mode {
            LlcMode::Qbs | LlcMode::QbsBounded(_) => {
                assert!(r.metrics.qbs_queries > 0, "{label}: no QBS queries");
            }
            LlcMode::Eci => {
                assert!(
                    r.metrics.eci_early_invalidations > 0,
                    "{label}: no early invalidations"
                );
            }
            LlcMode::Sharp | LlcMode::CharOnBase | LlcMode::WayPartitioned => {
                let (_, inclusive) = inclusive_victims
                    .iter()
                    .find(|&&(p, _)| p == policy)
                    .expect("each policy's inclusive cell is pinned before its choosers");
                assert!(
                    r.metrics.inclusion_victims < *inclusive,
                    "{label}: no fewer inclusion victims than the inclusive cell"
                );
            }
            _ => {}
        }
    }
    let table: String = computed
        .iter()
        .map(|(label, d)| format!("    (\"{label}\", {d:#018x}),\n"))
        .collect();
    assert_eq!(
        computed.len(),
        PINS.len(),
        "pin table out of date; computed:\n{table}"
    );
    for ((label, got), (pin_label, want)) in computed.iter().zip(PINS) {
        assert_eq!(label, pin_label, "cell order changed; computed:\n{table}");
        assert_eq!(got, want, "{label}: result changed; computed:\n{table}");
    }
    // Every counter moves in some pinned cell, so no pin passes with a
    // counter that stopped counting.
    for (name, total) in METRICS_COLUMNS.iter().zip(&counters) {
        assert!(*total > 0, "no pinned cell moves `{name}`");
    }
    for (name, total) in CORE_METRICS_COLUMNS.iter().zip(&core_counters) {
        assert!(*total > 0, "no pinned cell moves per-core `{name}`");
    }
}
