//! End-to-end tests of the latency attribution observatory (DESIGN.md
//! §"Observability"): exact conservation of the per-component breakdown
//! against the aggregate `access_latency_cycles` for every LLC mode,
//! the inclusion-victim refetch account (exactly zero under ZIV),
//! byte-identity of campaign artifacts with the observatory and the
//! self-profiler on, the sampled self-profiler's counts and estimates,
//! and strict `--events` validation at the CLI.

use std::fs;
use std::path::PathBuf;
use ziv::common::json::JsonValue;
use ziv::core::profile::SAMPLE_PERIOD;
use ziv::core::{AuditCadence, ProfileReport, ProfileSection, SelfProfiler};
use ziv::harness::{campaigns, run_campaign, CampaignParams, NullSink, RunnerConfig};
use ziv::prelude::*;
use ziv::sim::{run_one_instrumented, AccessClass, LatencyReport, ObserveConfig, RunOptions};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("ziv-latency-it")
        .join(format!("{name}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

fn latency_opts(audit: AuditCadence) -> RunOptions {
    RunOptions {
        audit,
        observe: ObserveConfig {
            latency: true,
            ..ObserveConfig::disabled()
        },
        ..RunOptions::default()
    }
}

/// Every LLC mode the CLI exposes, paired with a policy that supports
/// it (the MaxRrpv properties need an RRPV-graded policy) — the same
/// roster `hotpath_determinism` re-proves determinism over.
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

/// The observatory's books must balance exactly, at every granularity:
/// each `(core, class)` cell's component columns sum to its cycle
/// total, each class histogram holds exactly that class's accesses, and
/// the grand total equals the driver's aggregate
/// `Metrics::access_latency_cycles` — which accumulates whether or not
/// the observatory is attached.
fn assert_conservation(report: &LatencyReport, aggregate: u64, label: &str) {
    for (core, classes) in report.per_core.iter().enumerate() {
        for (cells, class) in classes.iter().zip(AccessClass::ALL) {
            let component_sum: u64 = cells.components.iter().sum();
            assert_eq!(
                component_sum,
                cells.cycles,
                "{label}: core {core} class {} components do not sum to its cycles",
                class.label()
            );
        }
    }
    for class in AccessClass::ALL {
        assert_eq!(
            report.histogram(class).total(),
            report.class_total(class).count,
            "{label}: class {} histogram holds a different population",
            class.label()
        );
    }
    assert_eq!(
        report.total_cycles(),
        aggregate,
        "{label}: attribution does not conserve against access_latency_cycles"
    );
}

#[test]
fn attribution_conserves_exactly_for_every_mode_under_audit() {
    let sys = SystemConfig::scaled();
    let scale = ScaleParams::from_system(&sys);
    // Small trace: the every-access auditor walks the whole hierarchy
    // per access, and this runs once per mode (14 audited runs).
    let wl = mixes::heterogeneous(0, 2, 150, 0x2026, scale);
    let opts = latency_opts(AuditCadence::EveryAccess);
    for (mode, policy) in all_modes() {
        let spec = RunSpec::new(mode.label(), sys.clone())
            .with_mode(mode)
            .with_policy(policy)
            .with_seed(9);
        let (result, obs) = run_one_instrumented(&spec, &wl, &opts, None, None);
        let result = result.unwrap_or_else(|e| panic!("{}: {e}", mode.label()));
        let report = obs
            .and_then(|o| o.latency)
            .expect("latency observatory was on");
        assert!(
            result.metrics.access_latency_cycles > 0,
            "{}: a real run accumulates latency",
            mode.label()
        );
        assert_conservation(&report, result.metrics.access_latency_cycles, &mode.label());
        // Class counts cover every access that reached the hierarchy.
        let classified: u64 = AccessClass::ALL
            .iter()
            .map(|&c| report.class_total(c).count)
            .sum();
        let issued: u64 = result.metrics.per_core.iter().map(|c| c.accesses).sum();
        assert!(
            classified >= issued,
            "{}: {} classified < {} per-core accesses after lap rewind",
            mode.label(),
            classified,
            issued
        );
    }
}

#[test]
fn ziv_reports_zero_inclusion_victim_refetch_cost() {
    // Inclusion-victim-heavy mix under LRU: private-cache-resident hot
    // sets (whose LLC copies decay to LRU) plus streaming cores that
    // keep evicting them from the LLC. The hot traces are much longer
    // than the streams so the hot cores are still issuing (the driver
    // parks a core after LAP_CAP laps) when the streams' LLC pressure
    // finally reaches the hot lines — a victimized line only becomes a
    // *refetch* if its core comes back for it.
    let sys = SystemConfig::scaled();
    let sc = ScaleParams::from_system(&sys);
    let hot = mixes::homogeneous(apps::app_by_name("hotl2").unwrap(), 2, 60_000, 3, sc);
    let stream = mixes::homogeneous(apps::app_by_name("stream").unwrap(), 4, 10_000, 5, sc);
    let mut traces = hot.traces;
    traces.extend(stream.traces.into_iter().skip(2));
    let wl = Workload {
        name: "hot-vs-stream".into(),
        traces,
        attack: None,
    };
    let opts = latency_opts(AuditCadence::Off);

    let ziv = RunSpec::new("ZIV", sys.clone()).with_mode(LlcMode::Ziv(ZivProperty::NotInPrC));
    let (rz, oz) = run_one_instrumented(&ziv, &wl, &opts, None, None);
    let rz = rz.unwrap();
    let report_z = oz.and_then(|o| o.latency).expect("observatory on");
    assert_eq!(rz.metrics.inclusion_victims, 0);
    let refetch_z = report_z.class_total(AccessClass::InclusionVictimRefetch);
    assert_eq!((refetch_z.count, refetch_z.cycles), (0, 0));
    assert_eq!(report_z.inclusion_victim_refetch_cycles(), 0);

    let incl = RunSpec::new("I", sys);
    let (ri, oi) = run_one_instrumented(&incl, &wl, &opts, None, None);
    let ri = ri.unwrap();
    let report_i = oi.and_then(|o| o.latency).expect("observatory on");
    assert!(
        ri.metrics.inclusion_victims > 0,
        "the mix must create inclusion victims under inclusion"
    );
    let refetch_i = report_i.class_total(AccessClass::InclusionVictimRefetch);
    assert!(
        refetch_i.count > 0 && refetch_i.cycles > 0,
        "re-misses on back-invalidated lines must be attributed \
         (count {}, cycles {})",
        refetch_i.count,
        refetch_i.cycles
    );
    assert_conservation(&report_i, ri.metrics.access_latency_cycles, "I");
    // The refetch account is a *reclassification*, never extra cycles:
    // both runs still conserve, and the inclusive run's refetch cost is
    // bounded by its total miss-class cycles.
    assert!(refetch_i.cycles <= report_i.total_cycles());
}

fn read(path: &std::path::Path) -> Vec<u8> {
    fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn campaign_artifacts_are_byte_identical_with_the_observatory_on() {
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
    assert!(plain.latency_csv.is_none());
    assert!(plain.profile_json.is_none());

    let observed_cfg = RunnerConfig {
        threads: 1,
        observe: ObserveConfig {
            latency: true,
            profile: true,
            ..ObserveConfig::disabled()
        },
        ..RunnerConfig::new(base.join("observed"))
    };
    let observed = run_campaign(&campaign, &observed_cfg, &NullSink).expect("observed campaign");
    assert!(observed.failures.is_empty());

    // Neither the observatory nor the wall-clock profiler may leak into
    // any result artifact.
    assert_eq!(
        read(&plain.ledger_path),
        read(&observed.ledger_path),
        "ledger differs with the latency observatory on"
    );
    assert_eq!(
        read(&plain.grid_csv),
        read(&observed.grid_csv),
        "grid.csv differs with the latency observatory on"
    );
    assert_eq!(
        read(&plain.summary_csv),
        read(&observed.summary_csv),
        "summary.csv differs with the latency observatory on"
    );

    // ... while the observatory exports appear only on the observed run.
    let latency_csv = observed.latency_csv.as_deref().expect("latency.csv");
    let latency = String::from_utf8(read(latency_csv)).unwrap();
    let header = latency.lines().next().expect("latency.csv header");
    assert_eq!(header, ziv::sim::LATENCY_COLUMNS.join(","));
    assert!(
        latency.lines().any(|l| l.contains(",all,l1_hit,")),
        "latency.csv carries per-class aggregate rows"
    );
    let profile_json = observed.profile_json.as_deref().expect("profile.json");
    let profile = String::from_utf8(read(profile_json)).unwrap();
    let doc = ziv::common::json::parse(&profile).expect("profile.json parses");
    let cells = doc
        .get("cells")
        .and_then(JsonValue::as_array)
        .expect("profile.json has cells");
    assert!(!cells.is_empty());
    for cell in cells {
        assert_profile_json_sections(cell.get("sections").expect("cell sections"));
    }
    assert_profile_json_sections(doc.get("total").expect("profile.json has a total"));
    fs::remove_dir_all(&base).ok();
}

/// A `profile.json` sections object: `hierarchy` counted and timed, and
/// no less than the three access-path sections nested in it.
fn assert_profile_json_sections(sections: &JsonValue) {
    let field = |section: &str, key: &str| {
        sections
            .get(section)
            .and_then(|s| s.get(key))
            .and_then(JsonValue::as_u64)
            .unwrap_or_else(|| panic!("profile.json lacks {section}.{key}: {sections}"))
    };
    assert!(field("hierarchy", "calls") > 0, "{sections}");
    assert!(field("hierarchy", "nanos") > 0, "{sections}");
    let nested: u64 = ["replacement", "directory", "dram"]
        .iter()
        .map(|s| field(s, "nanos"))
        .sum();
    assert!(field("hierarchy", "nanos") >= nested, "{sections}");
}

/// The report's `hierarchy` estimate is timed and inclusive of the
/// three access-path sections nested in it.
fn assert_hierarchy_inclusive(p: &ProfileReport, label: &str) {
    let nested = p.nanos(ProfileSection::Replacement)
        + p.nanos(ProfileSection::Directory)
        + p.nanos(ProfileSection::Dram);
    assert!(p.nanos(ProfileSection::Hierarchy) > 0, "{label}: {p:?}");
    assert!(
        p.nanos(ProfileSection::Hierarchy) >= nested,
        "{label}: hierarchy {} ns < nested {nested} ns",
        p.nanos(ProfileSection::Hierarchy)
    );
}

fn profile_opts(epoch: Option<u64>) -> RunOptions {
    RunOptions {
        observe: ObserveConfig {
            profile: true,
            epoch,
            ..ObserveConfig::disabled()
        },
        ..RunOptions::default()
    }
}

#[test]
fn profiler_counts_every_issued_access_and_stays_inclusive() {
    let sys = SystemConfig::scaled();
    let scale = ScaleParams::from_system(&sys);
    // Four cores of different speeds: the fast ones restart their traces
    // while the slowest finishes, so the run issues more accesses than
    // the traces hold.
    let wl = mixes::heterogeneous(0, 4, 3_000, 0x2026, scale);
    let mut merged = ProfileReport::default();
    for (mode, policy) in [
        (LlcMode::Inclusive, PolicyKind::Lru),
        (LlcMode::Ziv(ZivProperty::LikelyDead), PolicyKind::Lru),
    ] {
        let spec = RunSpec::new(mode.label(), sys.clone())
            .with_mode(mode)
            .with_policy(policy);
        let (result, obs) = run_one_instrumented(&spec, &wl, &profile_opts(Some(500)), None, None);
        result.unwrap_or_else(|e| panic!("{}: {e}", mode.label()));
        let obs = obs.expect("observations were on");
        let issued = obs.epochs.last().expect("epoch samples").end_access;
        assert!(
            issued > wl.total_accesses(),
            "{}: no trace restarted ({issued} issued)",
            mode.label()
        );
        let p = obs.profile.expect("profiler was on");
        assert_eq!(
            p.calls(ProfileSection::Hierarchy),
            issued,
            "{}",
            mode.label()
        );
        assert!(p.calls(ProfileSection::Replacement) > 0, "{}", mode.label());
        assert_hierarchy_inclusive(&p, &mode.label());
        merged.merge(&p);
    }
    assert_hierarchy_inclusive(&merged, "merged");
}

#[test]
fn a_profiled_run_shorter_than_the_sample_period_reports_time() {
    let sys = SystemConfig::scaled();
    let accesses = SAMPLE_PERIOD as usize / 2;
    let wl = mixes::heterogeneous(0, 1, accesses, 7, ScaleParams::from_system(&sys));
    let spec = RunSpec::new("I-LRU", sys);
    let (result, obs) = run_one_instrumented(&spec, &wl, &profile_opts(None), None, None);
    result.expect("run");
    let p = obs.and_then(|o| o.profile).expect("profiler was on");
    assert_eq!(p.calls(ProfileSection::Hierarchy), accesses as u64);
    assert_hierarchy_inclusive(&p, "short run");
}

/// The benchmark's per-spec fill cost drives `CacheHierarchy::access`
/// directly, with a profiler attached and no driver: the hierarchy
/// itself must pick the timed accesses.
#[test]
fn a_direct_access_loop_with_a_profiler_times_its_fills() {
    let sys = SystemConfig::scaled();
    let wl = mixes::heterogeneous(0, 2, 2_000, 3, ScaleParams::from_system(&sys));
    let spec = RunSpec::new("ZIV-LikelyDead", sys)
        .with_mode(LlcMode::Ziv(ZivProperty::LikelyDead))
        .with_policy(PolicyKind::Lru);
    let mut h = CacheHierarchy::new(&spec.build_hierarchy_config(&wl));
    h.attach_profiler(Box::new(SelfProfiler::new()));
    let mut seq = 0;
    for (c, trace) in wl.traces.iter().enumerate() {
        for r in &trace.records {
            let a = Access::read(CoreId::new(c), r.addr, r.pc);
            h.access(&a, seq * 4, seq);
            seq += 1;
        }
    }
    let p = h.take_profiler().expect("attached above").report();
    assert_eq!(p.calls(ProfileSection::Hierarchy), seq);
    assert!(p.calls(ProfileSection::Replacement) > 0);
    assert!(p.nanos(ProfileSection::Replacement) > 0, "{p:?}");
    assert_hierarchy_inclusive(&p, "direct loop");
}

#[test]
fn cli_rejects_unknown_event_tokens_naming_the_accepted_set() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_zivsim"))
        .args(["campaign", "smoke", "--events", "fill,bogus-kind"])
        .output()
        .expect("zivsim runs");
    assert!(
        !out.status.success(),
        "an unknown --events token must be a hard error"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown event kind 'bogus-kind'"),
        "stderr must name the offending token, got: {stderr}"
    );
    assert!(
        stderr.contains("back_invalidation") && stderr.contains("relocation"),
        "stderr must list the accepted kinds, got: {stderr}"
    );
}
