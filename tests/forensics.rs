//! End-to-end tests of the causal forensics observatory (DESIGN.md
//! §"Causal forensics"): exact conservation of the blame matrix against
//! `Metrics::inclusion_victims` and of its refetch-cycle account against
//! the latency observatory for every LLC mode, the zero-chain guarantee
//! under ZIV, byte-identity of results and campaign artifacts with the
//! observatory (and the Perfetto exporter) on, and determinism of the
//! forensics exports across campaign thread counts.

use std::fs;
use std::path::PathBuf;
use ziv::harness::{campaigns, run_campaign, CampaignParams, NullSink, RunnerConfig};
use ziv::prelude::*;
use ziv::sim::{run_one_traced, ForensicsReport, ObserveConfig, RunOptions};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("ziv-forensics-it")
        .join(format!("{name}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

fn read(path: &std::path::Path) -> Vec<u8> {
    fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn forensics_opts() -> RunOptions {
    RunOptions {
        observe: ObserveConfig {
            latency: true,
            forensics: true,
            ..ObserveConfig::disabled()
        },
        ..RunOptions::default()
    }
}

/// Every LLC mode the CLI exposes, paired with a policy that supports
/// it — the same roster `latency_attribution` proves conservation over.
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

/// Inclusion-victim-heavy mix: private-cache-resident hot sets whose
/// LLC copies decay to LRU, plus streaming cores that keep evicting
/// them — the same recipe `latency_attribution` uses to guarantee a
/// nonzero refetch account under inclusion.
fn victim_heavy_workload(sys: &SystemConfig) -> Workload {
    let sc = ScaleParams::from_system(sys);
    let hot = mixes::homogeneous(apps::app_by_name("hotl2").unwrap(), 2, 60_000, 3, sc);
    let stream = mixes::homogeneous(apps::app_by_name("stream").unwrap(), 4, 10_000, 5, sc);
    let mut traces = hot.traces;
    traces.extend(stream.traces.into_iter().skip(2));
    Workload {
        name: "hot-vs-stream".into(),
        traces,
        attack: None,
    }
}

/// The two conservation laws the blame matrix owes the rest of the
/// simulator: its victim total is exactly the driver's
/// `inclusion_victims` counter, and its refetch-cycle total is exactly
/// the latency observatory's independent
/// `inclusion_victim_refetch_cycles()` account. Plus internal
/// consistency: the per-set and per-phase rollups partition the same
/// victim population the matrix holds.
fn assert_conservation(report: &ForensicsReport, victims: u64, refetch_cycles: u64, label: &str) {
    assert_eq!(
        report.total_victims(),
        victims,
        "{label}: blame matrix does not conserve against inclusion_victims"
    );
    assert_eq!(
        report.total_refetch_cycles(),
        refetch_cycles,
        "{label}: refetch cycles do not conserve against the latency observatory"
    );
    let by_set: u64 = report.set_victims.iter().sum();
    assert_eq!(
        by_set, victims,
        "{label}: per-set rollup does not partition the victim population"
    );
    let by_phase: u64 = report.phase_victims.iter().sum();
    assert_eq!(
        by_phase, victims,
        "{label}: per-phase rollup does not partition the victim population"
    );
    // Chains only exist because a private copy was torn out, so every
    // retained chain must carry at least one victim.
    for c in &report.chains {
        assert!(
            c.victim_count > 0,
            "{label}: victimless chain {} recorded",
            c.seq
        );
    }
}

#[test]
fn blame_matrix_conserves_exactly_for_every_mode() {
    let sys = SystemConfig::scaled();
    let scale = ScaleParams::from_system(&sys);
    // Small trace — this runs once per mode (14 runs).
    let wl = mixes::heterogeneous(0, 2, 150, 0x2026, scale);
    let opts = forensics_opts();
    for (mode, policy) in all_modes() {
        let spec = RunSpec::new(mode.label(), sys.clone())
            .with_mode(mode)
            .with_policy(policy)
            .with_seed(9);
        let (result, obs) = run_one_traced(&spec, &wl, &opts);
        let result = result.unwrap_or_else(|e| panic!("{}: {e}", mode.label()));
        let obs = obs.expect("observatory was on");
        let latency = obs.latency.as_ref().expect("latency observatory on");
        let report = obs.forensics.as_ref().expect("forensics observatory on");
        assert!(
            report.fills_stamped > 0,
            "{}: a real run stamps provenance",
            mode.label()
        );
        assert_conservation(
            report,
            result.metrics.inclusion_victims,
            latency.inclusion_victim_refetch_cycles(),
            &mode.label(),
        );
        if matches!(mode, LlcMode::Ziv(_)) {
            assert_eq!(
                (report.chains_recorded, report.total_victims()),
                (0, 0),
                "{}: ZIV must never open a causal chain",
                mode.label()
            );
        }
    }
}

#[test]
fn inclusive_chains_account_for_every_victim_and_refetch_cycle() {
    let sys = SystemConfig::scaled();
    let wl = victim_heavy_workload(&sys);
    let spec = RunSpec::new("I-LRU", sys);
    let (result, obs) = run_one_traced(&spec, &wl, &forensics_opts());
    let result = result.unwrap();
    let obs = obs.expect("observatory on");
    let latency = obs.latency.as_ref().unwrap();
    let report = obs.forensics.as_ref().unwrap();

    assert!(
        result.metrics.inclusion_victims > 0,
        "the mix must create inclusion victims under inclusion"
    );
    assert_conservation(
        report,
        result.metrics.inclusion_victims,
        latency.inclusion_victim_refetch_cycles(),
        "I-LRU",
    );
    assert!(report.chains_recorded > 0);
    assert!(report.inclusive_chains > 0);
    assert_eq!(report.eci_chains, 0, "no ECI tear-outs under Inclusive");
    assert!(
        report.total_refetch_cycles() > 0,
        "the hot cores come back for their victimized lines"
    );

    // top_chains ranks by damage: refetch cycles, then victim count.
    let top = report.top_chains(8);
    for pair in top.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        assert!(
            (a.refetch_cycles, a.victim_count) >= (b.refetch_cycles, b.victim_count),
            "top_chains must be sorted by damage"
        );
    }

    // The retained ring is the *last* K chains: strictly increasing
    // seq, ending at the final chain recorded.
    for pair in report.chains.windows(2) {
        assert!(pair[0].seq < pair[1].seq);
    }
}

#[test]
fn ziv_reports_zero_chains_on_the_victim_heavy_mix() {
    // The all-modes test proves the guarantee on a small trace; this
    // one re-proves it under real inclusion-victim pressure.
    let sys = SystemConfig::scaled();
    let wl = victim_heavy_workload(&sys);
    for property in [ZivProperty::NotInPrC, ZivProperty::LikelyDead] {
        let spec = RunSpec::new("ZIV", sys.clone()).with_mode(LlcMode::Ziv(property));
        let (result, obs) = run_one_traced(&spec, &wl, &forensics_opts());
        let result = result.unwrap();
        let obs = obs.expect("observatory on");
        let report = obs.forensics.as_ref().unwrap();
        assert_eq!(result.metrics.inclusion_victims, 0);
        assert_eq!(report.chains_recorded, 0, "{property:?}: zero chains");
        assert_eq!(report.total_victims(), 0);
        assert_eq!(report.total_refetch_cycles(), 0);
        assert!(report.chains.is_empty());
        assert!(
            report.fills_stamped > 0,
            "provenance stamping is mode-independent"
        );
    }
}

#[test]
fn forensics_never_perturbs_results_and_replays_deterministically() {
    let sys = SystemConfig::scaled();
    let scale = ScaleParams::from_system(&sys);
    let wl = mixes::heterogeneous(1, 4, 4_000, 0x51AB, scale);
    let spec = RunSpec::new("I-LRU", sys);

    let plain = ziv::sim::run_one(&spec, &wl);
    let (observed, obs) = run_one_traced(&spec, &wl, &forensics_opts());
    let observed = observed.unwrap();
    assert_eq!(
        plain, observed,
        "the forensics observatory must never change a result"
    );

    // Same spec, same trace → bit-identical forensics. The observatory
    // hangs off the (deterministic) hierarchy, so this is the single-
    // run half of the cross-thread determinism guarantee.
    let (_, obs2) = run_one_traced(&spec, &wl, &forensics_opts());
    assert_eq!(
        obs.expect("observatory on").forensics,
        obs2.expect("observatory on").forensics,
        "forensics must replay bit-identically"
    );
}

#[test]
fn campaign_blame_and_trace_exports_are_identical_across_thread_counts() {
    let base = temp_dir("threads");
    let params = CampaignParams::tiny();
    let campaign = campaigns::by_name("smoke", &params).expect("smoke exists");

    let outcome_of = |threads: usize, dir: &str| {
        let cfg = RunnerConfig {
            threads,
            observe: ObserveConfig {
                forensics: true,
                ..ObserveConfig::disabled()
            },
            perfetto: true,
            ..RunnerConfig::new(base.join(dir))
        };
        run_campaign(&campaign, &cfg, &NullSink).expect("campaign runs")
    };
    let one = outcome_of(1, "t1");
    let two = outcome_of(2, "t2");
    assert!(one.failures.is_empty() && two.failures.is_empty());

    let blame_1 = one.blame_csv.as_deref().expect("blame.csv exported");
    let blame_2 = two.blame_csv.as_deref().expect("blame.csv exported");
    assert_eq!(
        read(blame_1),
        read(blame_2),
        "blame.csv must not depend on the thread count"
    );
    let trace_1 = one.trace_json.as_deref().expect("trace.json exported");
    let trace_2 = two.trace_json.as_deref().expect("trace.json exported");
    assert_eq!(
        read(trace_1),
        read(trace_2),
        "trace.json must not depend on the thread count"
    );

    // The export is one valid JSON document in Chrome trace-event
    // shape, and blame.csv leads with the documented header.
    let doc = ziv::common::json::parse(&String::from_utf8(read(trace_1)).unwrap())
        .expect("trace.json parses");
    assert!(doc.get("traceEvents").is_some());
    let blame = String::from_utf8(read(blame_1)).unwrap();
    assert_eq!(
        blame.lines().next().expect("blame.csv header"),
        ziv::sim::BLAME_COLUMNS.join(",")
    );
    fs::remove_dir_all(&base).ok();
}

#[test]
fn campaign_artifacts_are_byte_identical_with_forensics_and_perfetto_on() {
    let base = temp_dir("byte-identity");
    let params = CampaignParams::tiny();
    let campaign = campaigns::by_name("smoke", &params).expect("smoke exists");

    // Single-threaded on both sides: ledger entries append in cell
    // *completion* order, so only a deterministic claim order makes a
    // byte-for-byte ledger comparison meaningful.
    let plain_cfg = RunnerConfig {
        threads: 1,
        ..RunnerConfig::new(base.join("plain"))
    };
    let plain = run_campaign(&campaign, &plain_cfg, &NullSink).expect("plain campaign");
    assert!(plain.failures.is_empty());
    assert!(plain.blame_csv.is_none());
    assert!(plain.trace_json.is_none());

    let observed_cfg = RunnerConfig {
        threads: 1,
        observe: ObserveConfig {
            forensics: true,
            ..ObserveConfig::disabled()
        },
        perfetto: true,
        ..RunnerConfig::new(base.join("observed"))
    };
    let observed = run_campaign(&campaign, &observed_cfg, &NullSink).expect("observed campaign");
    assert!(observed.failures.is_empty());

    // Neither the forensics observatory nor the Perfetto exporter may
    // leak into any result artifact.
    for (plain_path, observed_path, what) in [
        (&plain.ledger_path, &observed.ledger_path, "ledger"),
        (&plain.grid_csv, &observed.grid_csv, "grid.csv"),
        (&plain.summary_csv, &observed.summary_csv, "summary.csv"),
    ] {
        assert_eq!(
            read(plain_path),
            read(observed_path),
            "{what} differs with forensics + perfetto on"
        );
    }
    assert!(observed.blame_csv.is_some());
    assert!(observed.trace_json.is_some());
    fs::remove_dir_all(&base).ok();
}
