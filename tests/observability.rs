//! End-to-end tests of the flight recorder (DESIGN.md
//! §"Observability"): epoch-slicing edge cases, delta conservation
//! against the aggregate metrics, heatmap totals, byte-identity of
//! campaign artifacts with observability on vs off, event capture in
//! failure repro records, and the `zivsim trace` / `--out` CLI paths.

use ziv::core::observe::{core_metrics_scalars, metrics_scalars, METRICS_COLUMNS};
use ziv::core::FaultInjection;
use ziv::harness::{
    campaigns, run_campaign, CampaignParams, FailureRecord, NullSink, RunnerConfig,
};
use ziv::prelude::*;
use ziv::sim::{
    run_one, run_one_instrumented, EventKind, EventTraceConfig, Observations, ObserveConfig,
    RunOptions,
};

fn workload_of(cores: usize, accesses: usize) -> Workload {
    let sys = SystemConfig::scaled();
    mixes::homogeneous(
        apps::app_by_name("circset").expect("known app"),
        cores,
        accesses,
        7,
        ScaleParams::from_system(&sys),
    )
}

fn ziv_spec(label: &str) -> RunSpec {
    RunSpec::new(label, SystemConfig::scaled()).with_mode(LlcMode::Ziv(ZivProperty::LikelyDead))
}

fn traced_opts(observe: ObserveConfig) -> RunOptions {
    RunOptions {
        observe,
        ..RunOptions::default()
    }
}

/// Every global column and every per-core column of the epoch series
/// must telescope exactly to the final aggregate metrics — the
/// acceptance bar for `timeseries.csv`.
fn assert_conservation(obs: &Observations, result: &ziv::sim::RunResult) {
    let finals = metrics_scalars(&result.metrics);
    for (col, name) in METRICS_COLUMNS.iter().enumerate() {
        let sum: i64 = obs.epochs.iter().map(|e| e.global[col]).sum();
        assert_eq!(
            sum, finals[col] as i64,
            "global column '{name}' does not telescope to the aggregate"
        );
    }
    // Epoch samples carry deltas for the workload's cores only; the
    // aggregate `per_core` is sized for the whole system, with the
    // unused tail all-zero.
    let cores = obs
        .epochs
        .iter()
        .map(|e| e.per_core.len())
        .max()
        .unwrap_or(0);
    for (core, cm) in result.metrics.per_core.iter().enumerate().take(cores) {
        let finals = core_metrics_scalars(cm);
        for (col, total) in finals.iter().enumerate() {
            let sum: i64 = obs.epochs.iter().map(|e| e.per_core[core][col]).sum();
            assert_eq!(
                sum, *total as i64,
                "core {core} column {col} does not telescope to the aggregate"
            );
        }
    }
}

#[test]
fn epoch_boundary_exactly_at_end_of_trace() {
    // One core → no restart laps: exactly 1000 accesses issue, and 250
    // divides them, so the final boundary lands on the last access.
    let wl = workload_of(1, 1000);
    let opts = traced_opts(ObserveConfig {
        epoch: Some(250),
        ..ObserveConfig::disabled()
    });
    let (result, obs) = run_one_instrumented(&ziv_spec("Z"), &wl, &opts, None, None);
    let result = result.unwrap();
    let obs = obs.expect("epoch slicing was on");

    let epochs = &obs.epochs;
    assert!(
        epochs.len() >= 4,
        "expected ≥4 epochs, got {}",
        epochs.len()
    );
    for (i, e) in epochs.iter().enumerate() {
        assert_eq!(e.index, i as u64);
        assert!(e.end_access <= 1000);
        // Only a closing sample (emitted after the end-of-run rewind)
        // may be empty-ranged, and it can only be the last one.
        if e.start_access == e.end_access {
            assert_eq!(i, epochs.len() - 1, "empty-range sample mid-series");
        } else {
            assert!(e.end_access - e.start_access <= 250);
        }
    }
    assert_eq!(epochs[3].end_access, 1000, "4th boundary is the trace end");
    assert_eq!(epochs.last().unwrap().end_access, 1000);
    assert_conservation(&obs, &result);
}

#[test]
fn epoch_longer_than_the_trace_yields_one_closing_sample() {
    let wl = workload_of(2, 500);
    let opts = traced_opts(ObserveConfig {
        epoch: Some(10_000_000),
        ..ObserveConfig::disabled()
    });
    let (result, obs) = run_one_instrumented(&ziv_spec("Z"), &wl, &opts, None, None);
    let result = result.unwrap();
    let obs = obs.expect("epoch slicing was on");
    assert_eq!(
        obs.epochs.len(),
        1,
        "an epoch longer than the run collapses to one closing sample"
    );
    assert_eq!(obs.epochs[0].start_access, 0);
    assert!(
        obs.epochs[0].end_access >= 1000,
        "covers every issued access"
    );
    assert_conservation(&obs, &result);
}

#[test]
fn epoch_deltas_survive_multicore_lap_rewind() {
    // Four cores restart their traces at different speeds, so the
    // end-of-run rewind shrinks per-core counters: the closing sample
    // must carry the (negative) correction for sums to stay exact.
    let wl = workload_of(4, 600);
    let opts = traced_opts(ObserveConfig {
        epoch: Some(128),
        ..ObserveConfig::disabled()
    });
    let (result, obs) = run_one_instrumented(&ziv_spec("Z"), &wl, &opts, None, None);
    let result = result.unwrap();
    let obs = obs.expect("epoch slicing was on");
    assert!(obs.epochs.len() > 4);
    assert_conservation(&obs, &result);
}

#[test]
fn recorder_does_not_perturb_results_and_heatmaps_match_metrics() {
    let wl = workload_of(2, 1200);
    let spec = ziv_spec("Z");
    let untraced = run_one(&spec, &wl);
    let opts = traced_opts(ObserveConfig {
        epoch: Some(200),
        events: Some(EventTraceConfig::default()),
        heatmap: true,
        ..ObserveConfig::disabled()
    });
    let (traced, obs) = run_one_instrumented(&spec, &wl, &opts, None, None);
    let traced = traced.unwrap();
    assert_eq!(
        traced.metrics, untraced.metrics,
        "recording changed results"
    );
    assert_eq!(traced.cores, untraced.cores);

    let obs = obs.expect("recorder was on");
    let hm = obs.heatmap.as_ref().expect("heatmap was on");
    assert_eq!(
        hm.accesses.total(),
        traced.metrics.llc_accesses,
        "heatmap access grid must count every LLC access"
    );
    assert_eq!(
        hm.relocations.total(),
        traced.metrics.relocations,
        "heatmap relocation grid must count every relocation"
    );
    assert!(obs.events_recorded > 0, "a real run produces events");
    assert!(!obs.events.is_empty());
    let relocation_events = obs
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Relocation)
        .count();
    if obs.events_recorded <= obs.events.len() as u64 {
        // Nothing overwritten: the retained ring holds every event, so
        // kind counts line up with the metrics too.
        assert_eq!(relocation_events as u64, traced.metrics.relocations);
    }
    assert!(!obs.dir_slice_occupancy.is_empty());
}

fn read(path: &std::path::Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn campaign_artifacts_are_byte_identical_with_observability_on() {
    let base = std::env::temp_dir().join(format!("ziv-observability-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
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
    assert!(plain.timeseries_csv.is_none());
    assert!(plain.heatmap_csv.is_none());

    let traced_cfg = RunnerConfig {
        threads: 1,
        observe: ObserveConfig {
            epoch: Some(200),
            events: Some(EventTraceConfig::default()),
            heatmap: true,
            leakage: true,
            ..ObserveConfig::disabled()
        },
        ..RunnerConfig::new(base.join("traced"))
    };
    let traced = run_campaign(&campaign, &traced_cfg, &NullSink).expect("traced campaign");
    assert!(traced.failures.is_empty());

    // The flight recorder must not leak into any result artifact.
    assert_eq!(
        read(&plain.ledger_path),
        read(&traced.ledger_path),
        "ledger differs with observability on"
    );
    assert_eq!(
        read(&plain.grid_csv),
        read(&traced.grid_csv),
        "grid.csv differs with observability on"
    );
    assert_eq!(
        read(&plain.summary_csv),
        read(&traced.summary_csv),
        "summary.csv differs with observability on"
    );

    // ... while the observability exports appear only on the traced run.
    // The smoke campaign has no attack workloads, so the leakage flag
    // yields a header-only CSV — the flag alone must not perturb
    // anything (the attack-path twin lives in attack_leakage.rs).
    let leak_path = traced.leakage_csv.as_deref().expect("leakage.csv");
    let leak = String::from_utf8(read(leak_path)).unwrap();
    assert_eq!(leak.lines().count(), 1, "non-attack cells emit no rows");
    let ts_path = traced.timeseries_csv.as_deref().expect("timeseries.csv");
    let hm_path = traced.heatmap_csv.as_deref().expect("heatmap.csv");
    let ts = String::from_utf8(read(ts_path)).unwrap();
    assert!(!String::from_utf8(read(hm_path)).unwrap().is_empty());

    // Acceptance check: per-epoch deltas in timeseries.csv sum exactly
    // to the aggregate metrics of every cell in the grid.
    let mut lines = ts.lines();
    let header: Vec<&str> = lines.next().expect("header").split(',').collect();
    let col = |name: &str| {
        header
            .iter()
            .position(|h| *h == name)
            .unwrap_or_else(|| panic!("column '{name}' missing"))
    };
    for cell in &traced.grid {
        let finals = metrics_scalars(&cell.result.metrics);
        for (i, name) in METRICS_COLUMNS.iter().enumerate() {
            let sum: i64 = ts
                .lines()
                .skip(1)
                .map(|l| l.split(',').collect::<Vec<_>>())
                .filter(|f| {
                    f[col("config")] == cell.result.label
                        && f[col("workload")] == cell.result.workload
                })
                .map(|f| f[col(name)].parse::<i64>().expect("integer delta"))
                .sum();
            assert_eq!(
                sum, finals[i] as i64,
                "{} × {}: column '{name}' does not sum to the aggregate",
                cell.result.label, cell.result.workload
            );
        }
    }
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn failure_records_carry_flight_recorder_events() {
    let base = std::env::temp_dir().join(format!("ziv-obs-failure-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let params = CampaignParams::tiny();
    let mut campaign = campaigns::by_name("smoke", &params).expect("smoke exists");
    campaign.specs[0] = campaign.specs[0]
        .clone()
        .with_fault(FaultInjection::CorruptDirectory { at_access: 300 });

    // Tracing OFF: the runner must re-run the failed cell once with the
    // tracer on to capture events for the record (the deterministic
    // retrace path).
    let cfg = RunnerConfig {
        threads: 1,
        audit: ziv::core::AuditCadence::EveryAccess,
        params: Some(params),
        ..RunnerConfig::new(&base)
    };
    let outcome = run_campaign(&campaign, &cfg, &NullSink).expect("campaign I/O");
    assert_eq!(outcome.failures.len(), 2, "both faulted-spec cells fail");
    for failure in &outcome.failures {
        let path = failure.record_path.as_deref().expect("record written");
        let record = FailureRecord::load(path).expect("record parses");
        assert!(
            !record.events.is_empty(),
            "record must carry flight-recorder events"
        );
        assert_eq!(
            record.events.last().unwrap().kind,
            EventKind::AuditViolation,
            "the violation itself is the final recorded event"
        );
    }
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn trace_cli_emits_parseable_jsonl_and_creates_parent_dirs() {
    let base = std::env::temp_dir().join(format!("ziv-obs-cli-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    // Deliberately nested, not-yet-existing output paths: both `trace
    // --out` and `profile --out` must create parents.
    let events_path = base.join("deep/nested/events.jsonl");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_zivsim"))
        .args([
            "trace",
            "ziv-likelydead",
            "--workload",
            "homo:circset",
            "--accesses",
            "400",
            "--cores",
            "2",
            "--last",
            "16",
            "--epoch",
            "100",
            "--out",
        ])
        .arg(&events_path)
        .output()
        .expect("zivsim trace runs");
    assert!(
        out.status.success(),
        "trace failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let jsonl = std::fs::read_to_string(&events_path).expect("events.jsonl written");
    let lines: Vec<&str> = jsonl.lines().collect();
    assert!(
        !lines.is_empty() && lines.len() <= 16,
        "ring capacity bounds"
    );
    for line in lines {
        let v = ziv::common::json::parse(line).expect("each line is one JSON event");
        assert!(v.get("kind").is_some());
        assert!(v.get("access").is_some());
        assert!(v.get("cycle").is_some());
    }

    let profile_path = base.join("also/new/profile.json");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_zivsim"))
        .args([
            "profile",
            "ziv-likelydead",
            "--workload",
            "homo:circset",
            "--accesses",
            "400",
            "--cores",
            "2",
            "--out",
        ])
        .arg(&profile_path)
        .output()
        .expect("zivsim profile runs");
    assert!(
        out.status.success(),
        "profile failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = std::fs::read_to_string(&profile_path).expect("profile report written");
    ziv::common::json::parse(&report).expect("report is valid JSON");
    std::fs::remove_dir_all(&base).ok();
}

/// The event ring is a *last-K* window, not a first-K one: once it
/// overflows, what survives is exactly the tail of the full event
/// stream. Proven by running the same deterministic workload twice —
/// once with a ring big enough to hold everything, once with a tiny
/// one — and comparing the tiny ring against the big run's tail.
#[test]
fn event_ring_overflow_keeps_exactly_the_last_k_events() {
    let wl = workload_of(2, 2_000);
    let spec = RunSpec::new("I", SystemConfig::scaled()); // inclusive default: rich event mix
    let ring_of = |capacity: usize| {
        let opts = traced_opts(ObserveConfig {
            events: Some(EventTraceConfig {
                capacity,
                ..EventTraceConfig::default()
            }),
            ..ObserveConfig::disabled()
        });
        let (result, obs) = run_one_instrumented(&spec, &wl, &opts, None, None);
        result.unwrap();
        obs.expect("recorder on").events
    };
    let full = ring_of(1 << 16);
    assert!(
        full.len() > 32,
        "the workload must overflow the small ring ({} events)",
        full.len()
    );
    let small = ring_of(32);
    assert_eq!(small.len(), 32, "an overflowed ring reports exactly K");
    assert_eq!(
        small,
        full[full.len() - 32..],
        "the retained window must be the last K events, oldest first"
    );
}

/// `--last` beyond the ring limit clamps (with a stderr warning) rather
/// than erroring or allocating unboundedly.
#[test]
fn trace_cli_clamps_oversized_last_with_a_warning() {
    let cap = ziv::core::observe::MAX_EVENT_CAPACITY;
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_zivsim"))
        .args([
            "trace",
            "inclusive",
            "--workload",
            "homo:circset",
            "--accesses",
            "200",
            "--cores",
            "2",
            "--last",
            &(cap + 1).to_string(),
            "--out",
        ])
        .arg(std::env::temp_dir().join(format!("ziv-obs-clamp-{}.jsonl", std::process::id())))
        .output()
        .expect("zivsim trace runs");
    assert!(
        out.status.success(),
        "oversized --last must clamp, not fail: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("clamping") && stderr.contains(&cap.to_string()),
        "stderr must warn about the clamp and name the limit, got: {stderr}"
    );
}
