//! End-to-end drills of the supervised campaign runner and the
//! `zivsim` exit-code contract: a deliberately hung cell is cancelled
//! within its budget and ledgered as a timeout, an injected panic is
//! contained per-worker, a ledger torn mid-append is recovered with a
//! warning (and `--resume` re-runs exactly the lost cell), and the CLI
//! classifies every outcome as 0 / 1 / 2 / 3 / 4.

use std::sync::Mutex;
use std::time::{Duration, Instant};
use ziv::core::FaultInjection;
use ziv::harness::{
    campaigns, replay, run_campaign, CampaignParams, FailureRecord, NullSink, ProgressSink,
    RunnerConfig,
};

fn temp_dir(name: &str) -> std::path::PathBuf {
    std::env::temp_dir()
        .join("ziv-supervision-it")
        .join(format!("{name}-{}", std::process::id()))
}

/// A sink that records the campaign's out-of-band warnings.
#[derive(Default)]
struct WarningSink(Mutex<Vec<String>>);

impl ProgressSink for WarningSink {
    fn warning(&self, message: &str) {
        self.0.lock().unwrap().push(message.to_string());
    }
}

#[test]
fn hung_cell_is_cancelled_within_budget_and_ledgered_as_timeout() {
    let dir = temp_dir("hang");
    std::fs::remove_dir_all(&dir).ok();
    let params = CampaignParams::tiny();
    let mut campaign = campaigns::by_name("smoke", &params).expect("smoke campaign");
    campaign.specs[0] = campaign.specs[0]
        .clone()
        .with_fault(FaultInjection::HangCore { at_access: 100 });

    let cfg = RunnerConfig {
        threads: 2,
        params: Some(params),
        // A generous wall clock plus a tight stall window: the hung
        // cells must be felled by the *stall* detector, long before the
        // wall-clock backstop.
        cell_timeout: Some(Duration::from_secs(120)),
        stall_window: Some(Duration::from_millis(500)),
        ..RunnerConfig::new(dir.clone())
    };
    let started = Instant::now();
    let outcome = run_campaign(&campaign, &cfg, &NullSink).expect("campaign completes");
    let elapsed = started.elapsed();

    assert!(
        !outcome.failures.is_empty(),
        "the hung spec must fail at least one cell"
    );
    for f in &outcome.failures {
        assert_eq!(f.spec_index, 0, "only the faulted spec may fail");
        assert_eq!(
            f.error.kind_tag(),
            "timeout",
            "a cancelled hang ledgered as {}: {}",
            f.error.kind_tag(),
            f.error
        );
        assert!(
            f.error.to_string().contains("no forward progress"),
            "the timeout must name the stall, got: {}",
            f.error
        );
        let record = f.record_path.as_ref().expect("repro record written");
        assert!(record.is_file(), "repro record exists on disk");
    }
    // Every healthy spec's cell still completed and was exported.
    let healthy = campaign.specs.len() - 1;
    assert!(
        outcome.grid.len() >= healthy,
        "healthy specs survive the hung neighbor"
    );
    // The watchdog, not the wall clock, ended the hangs: the whole
    // campaign settles in a few stall windows, nowhere near the 120 s
    // wall budget per hung cell.
    assert!(
        elapsed < Duration::from_secs(60),
        "campaign took {elapsed:?}; the stall detector should cancel hangs in ~500ms each"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_panic_is_contained_and_ledgered_as_internal() {
    let dir = temp_dir("panic");
    std::fs::remove_dir_all(&dir).ok();
    let params = CampaignParams::tiny();
    let mut campaign = campaigns::by_name("smoke", &params).expect("smoke campaign");
    campaign.specs[0] = campaign.specs[0]
        .clone()
        .with_fault(FaultInjection::PanicCore { at_access: 50 });

    // No watchdog at all: panic containment is unconditional, not a
    // supervision opt-in.
    let cfg = RunnerConfig {
        threads: 2,
        params: Some(params),
        ..RunnerConfig::new(dir.clone())
    };
    let outcome = run_campaign(&campaign, &cfg, &NullSink).expect("campaign completes");
    assert!(!outcome.failures.is_empty());
    for f in &outcome.failures {
        assert_eq!(f.spec_index, 0);
        assert_eq!(f.error.kind_tag(), "internal");
        assert!(
            f.error.to_string().contains("injected panic-core fault"),
            "the ledgered error must carry the panic message, got: {}",
            f.error
        );
        assert!(f.record_path.is_some(), "panic cells still leave a record");
    }
    let healthy = campaign.specs.len() - 1;
    assert!(outcome.grid.len() >= healthy);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replayed_panic_record_reproduces_as_internal() {
    let dir = temp_dir("panic-replay");
    std::fs::remove_dir_all(&dir).ok();
    let params = CampaignParams::tiny();
    let mut campaign = campaigns::by_name("smoke", &params).expect("smoke campaign");
    // One cell is enough: replay rebuilds the full campaign from its
    // name and params, and cell (0, 0) addresses the same cell there.
    campaign.specs.truncate(1);
    campaign.recipes.truncate(1);
    campaign.specs[0] = campaign.specs[0]
        .clone()
        .with_fault(FaultInjection::PanicCore { at_access: 50 });
    let cfg = RunnerConfig {
        params: Some(params),
        ..RunnerConfig::new(dir.clone())
    };
    let outcome = run_campaign(&campaign, &cfg, &NullSink).expect("campaign completes");
    let path = outcome.failures[0]
        .record_path
        .as_ref()
        .expect("a panic cell leaves a repro record");
    let record = FailureRecord::load(path).expect("record loads");
    assert_eq!(record.error_kind, "internal");

    let report = replay(&record).expect("the record is rebuildable");
    assert!(report.reproduced, "{}", report.note);
    assert_eq!(
        report.error.as_ref().map(|e| e.kind_tag()),
        Some("internal")
    );
    assert!(
        report.note.contains("failure REPRODUCED"),
        "{}",
        report.note
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_ledger_tail_is_dropped_with_a_warning_and_resume_reruns_only_the_lost_cell() {
    let dir = temp_dir("torn");
    std::fs::remove_dir_all(&dir).ok();
    let params = CampaignParams::tiny();
    let campaign = campaigns::by_name("smoke", &params).expect("smoke campaign");
    let cfg = RunnerConfig {
        threads: 2,
        params: Some(params),
        ..RunnerConfig::new(dir.clone())
    };
    let clean = run_campaign(&campaign, &cfg, &NullSink).expect("clean campaign");
    assert!(clean.failures.is_empty(), "smoke runs clean");
    assert!(!clean.recovery.was_damaged(), "fresh ledger is undamaged");
    let grid_before = std::fs::read(&clean.grid_csv).unwrap();

    // Tear the tail mid-record: the kill -9-during-append footprint.
    let ledger = std::fs::read(&clean.ledger_path).unwrap();
    std::fs::write(&clean.ledger_path, &ledger[..ledger.len() - 10]).unwrap();

    let resume_cfg = RunnerConfig {
        resume: true,
        ..cfg
    };
    let sink = WarningSink::default();
    let resumed = run_campaign(&campaign, &resume_cfg, &sink).expect("resume completes");
    assert!(resumed.recovery.torn_tail, "the torn tail must be detected");
    assert_eq!(
        resumed.recovery.dropped_lines, 1,
        "only the torn record is dropped"
    );
    assert_eq!(
        resumed.telemetry.executed_cells, 1,
        "exactly the lost cell re-runs; every intact entry is reused"
    );
    let warnings = sink.0.lock().unwrap();
    assert!(
        warnings.iter().any(|w| w.contains("torn tail")),
        "recovery surfaces a warning naming the torn tail, got: {warnings:?}"
    );
    assert_eq!(
        std::fs::read(&resumed.grid_csv).unwrap(),
        grid_before,
        "recovery reproduces grid.csv byte-for-byte"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn oversubscribed_but_progressing_pool_is_not_cancelled() {
    // Regression for the stall-watchdog false positive: a pool with far
    // more workers than hardware threads time-slices its cells, so each
    // one advances in bursts separated by scheduling gaps. An
    // uncontended stall budget misreads those gaps as hangs; the
    // oversubscription-scaled default must ride them out. Every cell
    // here makes genuine forward progress, so *any* failure is a false
    // stall.
    use ziv::harness::{
        default_stall_window, run_cells_supervised, NoopSuperviseObserver, SuperviseConfig,
    };
    use ziv::sim::{run_one_instrumented, RunOptions, RunSpec};
    use ziv::workloads::{apps, mixes, ScaleParams};

    let sys = ziv::common::config::SystemConfig::scaled();
    let workload = mixes::homogeneous(apps::APPS[4], 2, 4_000, 7, ScaleParams::from_system(&sys));
    let specs = vec![RunSpec::new("I-LRU", sys)];
    let workloads = vec![workload];
    // 16 workers on a small CI host is heavily oversubscribed; each
    // runs the same healthy cell.
    let workers = 16;
    let cells: Vec<(usize, usize)> = (0..workers).map(|_| (0, 0)).collect();
    let sup = SuperviseConfig {
        stall_window: Some(default_stall_window(Duration::from_millis(250), workers)),
        ..SuperviseConfig::default()
    };
    let runs = run_cells_supervised(
        &specs,
        &workloads,
        &cells,
        workers,
        |spec, workload, cancel, probe| {
            run_one_instrumented(spec, workload, &RunOptions::default(), cancel, probe)
        },
        &sup,
        &NoopSuperviseObserver,
        None,
    );
    assert_eq!(runs.len(), workers);
    for run in &runs {
        let result = run
            .outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("progressing cell cancelled as a false stall: {e}"));
        assert!(result.total_instructions() > 0);
    }
}

// ---------------------------------------------------------------------
// The CLI exit-code contract (documented in the zivsim header and the
// README): 0 clean, 2 usage, 3 isolated cell failures, 4 internal.
// ---------------------------------------------------------------------

fn zivsim(args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_zivsim"))
        .args(args)
        .env("ZIV_FAST", "1")
        .output()
        .expect("zivsim runs")
}

#[test]
fn cli_exit_code_0_for_clean_commands() {
    let out = zivsim(&["list"]);
    assert_eq!(out.status.code(), Some(0));
    let out = zivsim(&["help"]);
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn cli_exit_code_2_for_usage_errors() {
    for bad in [
        vec!["frobnicate"],
        vec!["run", "--frobnicate"],
        vec!["run", "--mode", "bogus"],
        vec!["campaign", "no-such-campaign"],
        vec!["campaign"],
        vec!["campaign", "smoke", "--cell-timeout", "0"],
        vec!["campaign", "smoke", "--inject-fault", "0:0:nope:5"],
        // A known flag the subcommand does not read.
        vec!["campaign", "smoke", "--accesses", "10"],
        // An unknown name, wherever it is given.
        vec!["trace", "bogusmode"],
        vec!["run", "--workload", "homo:nope"],
        vec!["run", "--workload", "bogus"],
        vec!["attack", "nope"],
    ] {
        let out = zivsim(&bad);
        assert_eq!(
            out.status.code(),
            Some(2),
            "expected usage exit for {bad:?}, stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn cli_sampled_campaign_rejects_observer_flags_without_validate() {
    for (flag, value) in [
        ("--epoch", Some("500")),
        ("--events", Some("all")),
        ("--last", Some("8")),
        ("--heatmap", None),
        ("--latency", None),
        ("--profile", None),
        ("--leakage", None),
        ("--forensics", None),
        ("--perfetto", None),
    ] {
        let mut args = vec!["campaign", "smoke", "--sampling", "auto", flag];
        args.extend(value);
        let out = zivsim(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "the error names {flag}: {stderr}");
    }
}

/// A failed write of the trace file is an error, not a silent success.
#[cfg(target_os = "linux")]
#[test]
fn cli_export_reports_a_failed_write() {
    let out = zivsim(&[
        "export",
        "/dev/full",
        "--workload",
        "homo:circset",
        "--accesses",
        "20",
        "--cores",
        "1",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("/dev/full"),
        "the error names the path: {stderr}"
    );
}

/// An exported trace runs exactly like the workload it was made from.
#[test]
fn cli_export_round_trips_through_a_file_workload() {
    let dir = temp_dir("cli-export");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("circset.trace");
    let workload = [
        "--workload",
        "homo:circset",
        "--accesses",
        "300",
        "--cores",
        "2",
    ];
    let mut export = vec!["export", path.to_str().unwrap()];
    export.extend(workload);
    assert_eq!(zivsim(&export).status.code(), Some(0));
    let file = format!("file:{}", path.display());
    let from_file = zivsim(&["run", "--workload", &file]);
    let mut generated = vec!["run"];
    generated.extend(workload);
    let generated = zivsim(&generated);
    assert_eq!(from_file.status.code(), Some(0));
    assert_eq!(generated.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&from_file.stdout),
        String::from_utf8_lossy(&generated.stdout)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_exit_code_3_for_isolated_cell_failures() {
    let dir = temp_dir("cli-exit3");
    std::fs::remove_dir_all(&dir).ok();
    let out = zivsim(&[
        "campaign",
        "smoke",
        "--cores",
        "2",
        "--threads",
        "1",
        "--inject-fault",
        "0:0:panic-core:50",
        "--results-dir",
        dir.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(3),
        "isolated cell failures must exit 3, stderr: {stderr}"
    );
    assert!(
        stderr.contains("FAILED") && stderr.contains("repro: zivsim replay"),
        "stderr names the failures and their repro records: {stderr}"
    );
    assert!(
        stderr.contains("all isolated"),
        "the verdict states the failures were isolated: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_exit_code_3_with_hang_cancelled_by_the_watchdog() {
    let dir = temp_dir("cli-hang");
    std::fs::remove_dir_all(&dir).ok();
    let out = zivsim(&[
        "campaign",
        "smoke",
        "--cores",
        "2",
        "--threads",
        "1",
        "--inject-fault",
        "0:0:hang-core:100",
        "--stall-window",
        "600",
        "--results-dir",
        dir.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(3),
        "a watchdog-cancelled campaign still classifies as isolated failures: {stderr}"
    );
    assert!(
        stderr.contains("no forward progress"),
        "the ledgered timeout names the stall: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_exit_code_4_for_infrastructure_failures() {
    // A results dir nested under a regular file: the runner cannot
    // create it, which is an internal (infrastructure) failure, not a
    // cell failure and not a usage error.
    let blocker = temp_dir("cli-exit4-blocker");
    std::fs::create_dir_all(blocker.parent().unwrap()).unwrap();
    std::fs::write(&blocker, b"a file, not a directory").unwrap();
    let nested = blocker.join("sub");
    let out = zivsim(&[
        "campaign",
        "smoke",
        "--cores",
        "2",
        "--results-dir",
        nested.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(4),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("internal error"),
        "internal failures are labelled as such"
    );
    std::fs::remove_file(&blocker).ok();
}
