//! Differential tests of the statistical sampling engine (DESIGN.md
//! §"Statistical sampling"): functional warmup is provably
//! timing-metric-silent, a sampled campaign pass leaves the full
//! campaign's ledger and CSVs byte-identical, the sampled IPC
//! estimates track the full-run values on the smoke grid, a panicking
//! cell in a sampled pass is isolated like one in a full campaign, the
//! `zivsim sample` command reports a paired verdict end-to-end, and
//! sampled results reproduce pinned digests.

mod support;

use std::fs;
use std::path::PathBuf;
use ziv::common::digest::Fnv1a;
use ziv::core::{AuditCadence, FaultInjection};
use ziv::harness::{
    campaigns, run_campaign, run_campaign_sampled, CampaignParams, NullSink, RunnerConfig,
};
use ziv::prelude::*;
use ziv::sim::{
    run_one_sampled, run_paired_sampled_instrumented, Confidence, RunOptions, RunSpec,
    SamplingPlan, StopReason,
};
use ziv::workloads::{apps, mixes, ScaleParams};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("ziv-sampling-it")
        .join(format!("{name}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

fn read(path: &std::path::Path) -> Vec<u8> {
    fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn plan(interval: u64, gap: u64, warmup_per_mille: u16) -> SamplingPlan {
    SamplingPlan {
        interval,
        gap,
        warmup_per_mille,
        window: 1,
        head: 0,
        confidence: Confidence::P95,
        max_intervals: 0,
    }
}

/// The warmup scope's contract: warm accesses update cache/directory/
/// replacement state (they flow through `CacheHierarchy::access`), but
/// the timing metrics admit only the timed accesses. The per-core
/// demand counter makes that observable: it increments once per
/// hierarchy access, so metric silence means it equals exactly the
/// timed count — at every warmup fraction, including warm-the-whole-gap.
#[test]
fn functional_warmup_is_timing_metric_silent() {
    let sys = SystemConfig::scaled();
    let wl = mixes::homogeneous(apps::APPS[4], 2, 6_000, 3, ScaleParams::from_system(&sys));
    let spec = RunSpec::new("I-LRU", sys);
    for warm_pm in [0u16, 500, 1000] {
        let run = run_one_sampled(&spec, &wl, &RunOptions::default(), plan(64, 448, warm_pm))
            .expect("sampled run");
        let p = &run.profile;
        assert_eq!(
            p.timed_accesses + p.warm_accesses + p.skipped_accesses,
            wl.total_accesses(),
            "every access lands in exactly one phase (w={warm_pm}‰)"
        );
        let counted: u64 = run.result.metrics.per_core.iter().map(|c| c.accesses).sum();
        assert_eq!(
            counted, p.timed_accesses,
            "warmup (w={warm_pm}‰) leaked into the demand counters"
        );
        assert!(run.result.metrics.llc_accesses <= p.timed_accesses);
        match warm_pm {
            0 => assert_eq!(p.warm_accesses, 0),
            1000 => {
                assert_eq!(
                    p.skipped_accesses, 0,
                    "warming the whole gap leaves no skip"
                );
                assert!(p.warm_accesses > 0);
            }
            _ => assert!(p.warm_accesses > 0 && p.skipped_accesses > 0),
        }
    }
}

/// The two halves of the acceptance criteria in one campaign: with
/// sampling off nothing changes (a validated sampled pass embeds a full
/// campaign whose ledger and CSVs are byte-identical to a plain run),
/// and the sampled estimates it produces track the full-run IPC.
#[test]
fn sampled_campaign_leaves_full_artifacts_identical_and_tracks_ipc() {
    let base = temp_dir("sampled-campaign");
    let params = CampaignParams::tiny();
    let campaign = campaigns::by_name("smoke", &params).expect("smoke exists");

    // Single-threaded on both sides so the ledgers append in the same
    // deterministic completion order.
    let plain_cfg = RunnerConfig {
        threads: 1,
        ..RunnerConfig::new(base.join("plain"))
    };
    let plain = run_campaign(&campaign, &plain_cfg, &NullSink).expect("plain campaign");
    assert!(plain.failures.is_empty());

    let sampled_cfg = RunnerConfig {
        threads: 1,
        ..RunnerConfig::new(base.join("sampled"))
    };
    let outcome = run_campaign_sampled(
        &campaign,
        &sampled_cfg,
        SamplingPlan::auto(),
        true,
        &NullSink,
    )
    .expect("sampled campaign");
    assert!(outcome.failures.is_empty());
    let validation = outcome
        .validation
        .as_ref()
        .expect("validate=true attaches one");

    // Sampling must not perturb the full-fidelity artifacts: the
    // embedded full campaign's ledger and CSVs are byte-identical to a
    // plain run's, and no sampled estimate reaches the ledger.
    assert_eq!(
        read(&plain.ledger_path),
        read(&validation.full.ledger_path),
        "ledger differs when a sampled pass rides along"
    );
    assert_eq!(read(&plain.grid_csv), read(&validation.full.grid_csv));
    assert_eq!(read(&plain.summary_csv), read(&validation.full.summary_csv));

    // sampling.csv: the documented header, one row per interval.
    let sampling = String::from_utf8(read(&outcome.sampling_csv)).unwrap();
    assert_eq!(
        sampling.lines().next().unwrap(),
        ziv::sim::SAMPLING_COLUMNS.join(",")
    );
    let interval_rows: usize = outcome
        .cells
        .iter()
        .map(|c| c.sampled.intervals.len())
        .sum();
    assert_eq!(sampling.lines().count() - 1, interval_rows);

    // validation.csv exists with its documented header.
    let vcsv = String::from_utf8(read(&validation.validation_csv)).unwrap();
    assert_eq!(
        vcsv.lines().next().unwrap(),
        ziv::sim::VALIDATION_COLUMNS.join(",")
    );

    // Every cell is compared, and each sampled estimate tracks the
    // full-run IPC: inside its own confidence interval, or within 10%.
    assert_eq!(validation.rows.len(), outcome.cells.len());
    assert!(!validation.rows.is_empty());
    for row in &validation.rows {
        assert!(
            row.within_ci() || row.rel_error() < 0.10,
            "{} × {}: sampled {} vs full {} (CI {:?})",
            row.config,
            row.workload,
            row.sampled_ipc,
            row.full_ipc,
            row.ipc_ci,
        );
    }
    assert_eq!(
        validation.cells_within_ci,
        validation.rows.iter().filter(|r| r.within_ci()).count()
    );

    // The tiny grid's traces are far shorter than the LLC's warm
    // horizon, so the auto resolver must have fallen back to
    // warm-everything: no access is ever skipped (fast-but-wrong
    // estimates are worse than slow-and-right ones out of regime).
    for cell in &outcome.cells {
        assert_eq!(
            cell.sampled.profile.skipped_accesses, 0,
            "{} × {} skipped out of regime",
            cell.label, cell.workload
        );
        assert!(
            cell.sampled.intervals.len() >= 2,
            "enough intervals for a CI"
        );
    }
    fs::remove_dir_all(&base).ok();
}

/// A panic deep in one sampled cell is contained: the pass completes,
/// the faulted spec's cells come back as `internal` failures, the
/// healthy cells' estimates still reach `sampling.csv`, and the CLI
/// classifies the run as isolated cell failures (exit 3).
#[test]
fn panicking_sampled_cell_is_isolated() {
    let base = temp_dir("sampled-panic");
    let params = CampaignParams::tiny();
    let mut campaign = campaigns::by_name("smoke", &params).expect("smoke exists");
    campaign.specs[0] = campaign.specs[0]
        .clone()
        .with_fault(FaultInjection::PanicCore { at_access: 50 });
    let cfg = RunnerConfig::new(base.join("lib"));
    let outcome = run_campaign_sampled(&campaign, &cfg, SamplingPlan::auto(), false, &NullSink)
        .expect("a panicking cell does not abort the sampled pass");

    let recipes = campaign.recipes.len();
    assert_eq!(
        outcome.failures.len(),
        recipes,
        "one failure per faulted cell"
    );
    for f in &outcome.failures {
        assert_eq!(f.spec_index, 0, "only the faulted spec fails");
        assert_eq!(f.error.kind_tag(), "internal", "{}", f.error);
    }
    assert_eq!(outcome.cells.len(), campaign.total_cells() - recipes);
    let sampling = String::from_utf8(read(&outcome.sampling_csv)).unwrap();
    let rows: usize = outcome
        .cells
        .iter()
        .map(|c| c.sampled.intervals.len())
        .sum();
    assert!(rows > 0, "healthy cells keep their estimates");
    assert_eq!(sampling.lines().count() - 1, rows);
    for cell in &outcome.cells {
        assert_ne!(cell.spec_index, 0);
        let prefix = format!("{},{},", cell.label, cell.workload);
        assert!(
            sampling.lines().any(|l| l.starts_with(&prefix)),
            "no sampling.csv row for {prefix}"
        );
    }

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_zivsim"))
        .args(["campaign", "smoke", "--cores", "2", "--threads", "1"])
        .args(["--sampling", "auto", "--inject-fault", "0:0:panic-core:50"])
        .arg("--results-dir")
        .arg(base.join("cli"))
        .env("ZIV_FAST", "1")
        .output()
        .expect("spawn zivsim");
    assert_eq!(
        out.status.code(),
        Some(3),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    fs::remove_dir_all(&base).ok();
}

/// The smoke campaign over `CampaignParams::tiny()` with `fault` armed
/// in spec 0, so both of spec 0's cells fail and the other two run.
fn faulted_smoke(fault: FaultInjection) -> ziv::harness::Campaign {
    let mut campaign = campaigns::by_name("smoke", &CampaignParams::tiny()).expect("smoke exists");
    campaign.specs[0] = campaign.specs[0].clone().with_fault(fault);
    campaign
}

/// Sampled cells run under the pool's wall-clock deadline: a cell past
/// its budget is cancelled and reported as a timeout, and the cells
/// that fit it are sampled. The plan skips 5 accesses in every 100, so
/// the deadline is checked after each fast-forward as well, and a
/// large cell is nearly as slow as a full one.
#[test]
fn hung_sampled_cell_is_cancelled_by_the_watchdog() {
    let base = temp_dir("sampled-deadline");
    let (campaign, large_accesses) = support::deadline_campaign();
    let cfg = RunnerConfig {
        cell_timeout: Some(support::CELL_BUDGET),
        ..RunnerConfig::new(base.join("lib"))
    };
    let outcome = run_campaign_sampled(&campaign, &cfg, plan(50, 50, 900), false, &NullSink)
        .expect("a timed-out cell does not abort the sampled pass");
    assert_eq!(outcome.failures.len(), campaign.specs.len());
    for f in &outcome.failures {
        assert_eq!(f.workload_index, 0, "a small cell failed: {}", f.error);
        assert_eq!(f.error.kind_tag(), "timeout", "{}", f.error);
        assert!(
            f.error
                .to_string()
                .contains("wall-clock budget 50ms exceeded"),
            "the timeout names the budget: {}",
            f.error
        );
        let stopped_at = f.error.access_index().expect("a timeout has an access");
        assert!(stopped_at < large_accesses, "{}", f.error);
    }
    assert_eq!(outcome.cells.len(), campaign.specs.len());

    // The same through the CLI, with every supervision flag given:
    // full-size smoke cells cannot finish in 1 ms.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_zivsim"))
        .args(["campaign", "smoke", "--sampling", "auto"])
        .args(["--cell-timeout", "1", "--strict"])
        .args(["--threads", "2", "--results-dir"])
        .arg(base.join("cli"))
        .env("ZIV_FULL", "1")
        .env_remove("ZIV_FAST")
        .output()
        .expect("spawn zivsim");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "stderr: {stderr}");
    assert!(
        stderr.contains("wall-clock budget 1ms exceeded"),
        "the timeout is reported: {stderr}"
    );
    fs::remove_dir_all(&base).ok();
}

/// `strict` stops a sampled pass claiming cells after the first
/// failure, as it does a full pass.
#[test]
fn strict_sampled_pass_stops_after_the_first_failure() {
    let base = temp_dir("sampled-strict");
    let campaign = faulted_smoke(FaultInjection::PanicCore { at_access: 50 });
    let cfg = RunnerConfig {
        strict: true,
        threads: 1,
        ..RunnerConfig::new(base.clone())
    };
    let outcome =
        run_campaign_sampled(&campaign, &cfg, SamplingPlan::auto(), false, &NullSink).unwrap();
    assert_eq!(outcome.failures.len(), 1, "{:?}", outcome.failures);
    assert_eq!(
        (
            outcome.failures[0].spec_index,
            outcome.failures[0].workload_index
        ),
        (0, 0)
    );
    assert!(outcome.cells.is_empty(), "no cell is claimed after it");
    fs::remove_dir_all(&base).ok();
}

/// In the sampling regime proper — a trace several LLC warm horizons
/// long — the auto plan must genuinely skip (that is the speedup) while
/// the estimate still tracks a full run of the same cell, because each
/// timed window is preceded by a capacity-sized functional warm span.
#[test]
fn in_regime_sampling_skips_and_tracks_the_full_run() {
    let sys = SystemConfig::scaled();
    let scale = ScaleParams::from_system(&sys);
    for app in ["circset", "hotl2"] {
        let wl = mixes::homogeneous(
            apps::app_by_name(app).expect("known app"),
            2,
            60_000,
            7,
            scale,
        );
        let spec = RunSpec::new("I-LRU", sys.clone());
        let full = ziv::sim::run_one(&spec, &wl);
        let run = run_one_sampled(&spec, &wl, &RunOptions::default(), SamplingPlan::auto())
            .expect("sampled run");
        let p = &run.profile;
        assert!(p.skipped_accesses > 0, "{app}: in-regime plans skip");
        assert!(
            p.simulated_fraction() < 0.4,
            "{app}: simulated {:.0}%",
            p.simulated_fraction() * 100.0
        );
        assert!(
            run.intervals.len() >= 4,
            "{app}: {} intervals",
            run.intervals.len()
        );
        let window = full.cores.iter().map(|c| c.cycles).max().unwrap_or(0);
        let full_ipc = full.total_instructions() as f64 / window.max(1) as f64;
        let ci = run.ipc_ci().expect("enough intervals");
        let rel = (ci.mean - full_ipc).abs() / full_ipc;
        assert!(
            ci.contains(full_ipc) || rel < 0.10,
            "{app}: sampled {} vs full {full_ipc} (CI ±{}, rel {rel:.3})",
            ci.mean,
            ci.half_width
        );
    }
}

/// `zivsim sample` end-to-end: the paired baseline-vs-target run
/// completes, prints its interval table and a verdict, and exits 0.
#[test]
fn cli_sample_reports_a_paired_verdict() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_zivsim"))
        .args([
            "sample",
            "--cores",
            "2",
            "--accesses",
            "4000",
            "--sampling",
            "interval=64,gap=448",
        ])
        .env("ZIV_FAST", "1")
        .output()
        .expect("spawn zivsim");
    assert!(
        out.status.success(),
        "zivsim sample failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("interval"),
        "missing interval table:\n{stdout}"
    );
    assert!(
        stdout.contains("delta") || stdout.contains("Δ"),
        "missing paired delta:\n{stdout}"
    );
}

/// FNV-1a of a value's `Debug` rendering (the digest
/// `tests/hotpath_determinism.rs` pins full-run results with).
fn debug_digest(value: &impl std::fmt::Debug) -> u64 {
    let mut h = Fnv1a::new();
    h.write_str(&format!("{value:?}"));
    h.finish()
}

/// Two cores whose hot sets live in their L2s next to two streaming
/// cores that push the LLC copies of those sets out: inclusive runs
/// back-invalidate them, ZIV runs relocate them.
fn hot_vs_stream(scale: ScaleParams, accesses: usize) -> Workload {
    let hot = mixes::homogeneous(apps::app_by_name("hotl2").unwrap(), 2, accesses, 3, scale);
    let stream = mixes::homogeneous(apps::app_by_name("stream").unwrap(), 4, accesses, 5, scale);
    let mut traces = hot.traces;
    traces.extend(stream.traces.into_iter().skip(2));
    Workload {
        name: "hot-vs-stream".into(),
        traces,
        attack: None,
    }
}

#[rustfmt::skip]
const SAMPLED_PINS: &[(&str, u64)] = &[
    ("auto-in-regime", 0xd94cfdb7ea9f0adc),
    ("warmup-0", 0x5bf1d91ae7c7ea6f),
    ("warmup-100", 0x05e1bc08d9eb3781),
    ("max-intervals", 0x410e4e24d1eab056),
    ("ziv-relocating", 0xfcdd9c4f79ed4602),
    ("every-access-audit", 0x4b01264e65aa20d5),
];

/// The paired `I-LRU` vs `I-Hawkeye` report on a cyclic working set.
const PAIRED_PIN: u64 = 0xc0ba27f4276f8c6c;

/// `sampling.csv` of the sampled `smoke` pass over `CampaignParams::tiny()`.
const SAMPLING_CSV_PIN: u64 = 0xf5caccd903362301;

/// Every sampled path reproduces the result it produced when pinned:
/// the auto plan in regime (skip spans and a head census), explicit
/// plans at both warmup extremes, an interval cap, a relocating ZIV
/// mode, the every-access auditor, the paired auto-stop, and a sampled
/// campaign's `sampling.csv` at one and two threads. Each case first
/// asserts the path it is meant to exercise, so no pin passes
/// vacuously.
#[test]
fn sampled_runs_match_their_pinned_digests() {
    let sys = SystemConfig::scaled();
    let scale = ScaleParams::from_system(&sys);
    let opts = RunOptions::default();
    let inclusive = RunSpec::new("I-LRU", sys.clone());
    let ziv = RunSpec::new("ZIV-LikelyDead-LRU", sys.clone())
        .with_mode(LlcMode::Ziv(ZivProperty::LikelyDead));
    let short = mixes::homogeneous(apps::APPS[4], 2, 3_000, 5, scale);
    let mut computed = Vec::new();

    // Four warm horizons of stream: the auto plan is in regime.
    let per_core = 2 * scale.llc_lines as usize + 1_000;
    let long = mixes::homogeneous(apps::app_by_name("circset").unwrap(), 2, per_core, 7, scale);
    let run = run_one_sampled(&inclusive, &long, &opts, SamplingPlan::auto()).unwrap();
    let head = run.profile.plan.head;
    assert!(run.profile.skipped_accesses > 0, "in-regime plans skip");
    assert!(head > 0, "in-regime plans census the head");
    assert!(run.intervals.iter().any(|iv| iv.start_access < head));
    computed.push(("auto-in-regime", debug_digest(&run)));

    let run = run_one_sampled(&inclusive, &short, &opts, plan(64, 448, 0)).unwrap();
    assert_eq!(run.profile.warm_accesses, 0);
    assert!(run.profile.skipped_accesses > 0);
    computed.push(("warmup-0", debug_digest(&run)));

    let run = run_one_sampled(&inclusive, &short, &opts, plan(64, 448, 1000)).unwrap();
    assert_eq!(run.profile.skipped_accesses, 0);
    assert!(run.profile.warm_accesses > 0);
    computed.push(("warmup-100", debug_digest(&run)));

    let capped = SamplingPlan {
        max_intervals: 3,
        ..plan(64, 448, 250)
    };
    let run = run_one_sampled(&inclusive, &short, &opts, capped).unwrap();
    assert_eq!(run.profile.stop, StopReason::MaxIntervals);
    assert_eq!(run.intervals.len(), 3);
    computed.push(("max-intervals", debug_digest(&run)));

    // A 256 KB LLC next to 16 KB L2s: privately cached blocks are a
    // large share of the LLC, so ZIV keeps relocating them.
    let small = SystemConfig::big_llc(64);
    let small_inclusive = RunSpec::new("I-LRU", small.clone());
    let small_ziv = RunSpec::new("ZIV-LikelyDead-LRU", small.clone())
        .with_mode(LlcMode::Ziv(ZivProperty::LikelyDead));
    let small_scale = ScaleParams::from_system(&small);
    let mixed = hot_vs_stream(small_scale, 4_000);
    let run = run_one_sampled(&small_ziv, &mixed, &opts, plan(128, 384, 500)).unwrap();
    assert!(
        run.result.metrics.relocations > 0,
        "ZIV relocates inside its timed windows"
    );
    computed.push(("ziv-relocating", debug_digest(&run)));

    let audited = RunOptions {
        audit: AuditCadence::EveryAccess,
        ..RunOptions::default()
    };
    let tiny = mixes::homogeneous(apps::APPS[4], 2, 400, 9, scale);
    let run = run_one_sampled(&ziv, &tiny, &audited, plan(32, 96, 500)).unwrap();
    assert!(run.profile.timed_accesses > 0);
    computed.push(("every-access-audit", debug_digest(&run)));

    let table: String = computed
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n"))
        .collect();
    assert_eq!(computed.len(), SAMPLED_PINS.len(), "computed:\n{table}");
    for ((name, got), (pin_name, want)) in computed.iter().zip(SAMPLED_PINS) {
        assert_eq!(name, pin_name, "case order changed; computed:\n{table}");
        assert_eq!(
            got, want,
            "{name}: sampled result changed; computed:\n{table}"
        );
    }

    // Hawkeye keeps part of a cyclic working set that LRU thrashes, so
    // the paired delta resolves well before the trace ends.
    let hawkeye = RunSpec::new("I-Hawkeye", small).with_policy(PolicyKind::Hawkeye);
    let cyclic = mixes::homogeneous(
        apps::app_by_name("circset").unwrap(),
        2,
        3_000,
        3,
        small_scale,
    );
    let report = run_paired_sampled_instrumented(
        &small_inclusive,
        &hawkeye,
        &cyclic,
        &opts,
        plan(64, 192, 500),
        None,
    )
    .unwrap();
    assert_eq!(report.target.profile.stop, StopReason::DeltaResolved);
    assert_eq!(
        debug_digest(&report),
        PAIRED_PIN,
        "paired report changed: {:#018x}",
        debug_digest(&report)
    );

    let campaign = campaigns::by_name("smoke", &CampaignParams::tiny()).expect("smoke exists");
    let base = temp_dir("sampled-pin");
    for threads in [1, 2] {
        let cfg = RunnerConfig {
            threads,
            ..RunnerConfig::new(base.join(format!("t{threads}")))
        };
        let outcome =
            run_campaign_sampled(&campaign, &cfg, SamplingPlan::auto(), false, &NullSink).unwrap();
        assert!(outcome.failures.is_empty());
        let mut h = Fnv1a::new();
        h.write_bytes(&read(&outcome.sampling_csv));
        assert_eq!(
            h.finish(),
            SAMPLING_CSV_PIN,
            "sampling.csv digest at {threads} thread(s) moved: {:#018x}",
            h.finish()
        );
    }
    fs::remove_dir_all(&base).ok();
}
