//! End-to-end drills of the supervised campaign runner and the
//! `zivsim` exit-code contract: a cell past its wall-clock budget is
//! cancelled and ledgered as a timeout, an injected panic is
//! contained per-worker, a ledger torn mid-append is recovered with a
//! warning (and `--resume` re-runs exactly the lost cell), and the CLI
//! classifies every outcome as 0 / 1 / 2 / 3 / 4.

mod support;

use std::sync::Mutex;
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

/// A cell that outruns its wall-clock budget, as a hung cell would, is
/// cancelled at its deadline and ledgered as a timeout with a repro
/// record; the cells that fit the budget still complete and are
/// exported.
#[test]
fn hung_cell_is_cancelled_within_budget_and_ledgered_as_timeout() {
    let dir = temp_dir("deadline");
    std::fs::remove_dir_all(&dir).ok();
    let (campaign, large_accesses) = support::deadline_campaign();
    let cfg = RunnerConfig {
        threads: 2,
        params: Some(CampaignParams::tiny()),
        cell_timeout: Some(support::CELL_BUDGET),
        ..RunnerConfig::new(dir.clone())
    };
    let outcome = run_campaign(&campaign, &cfg, &NullSink).expect("campaign completes");

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
        let record = f.record_path.as_ref().expect("repro record written");
        assert!(record.is_file(), "repro record exists on disk");
    }
    assert_eq!(outcome.grid.len(), campaign.specs.len());
    assert!(outcome.grid.iter().all(|g| g.workload_index == 1));
    let grid = std::fs::read_to_string(&outcome.grid_csv).unwrap();
    assert_eq!(grid.lines().count(), 1 + campaign.specs.len(), "{grid}");
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

    // No wall-clock budget at all: panic containment is unconditional,
    // not a supervision opt-in.
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
        // A flag no command reads any more.
        vec!["campaign", "smoke", "--stall-window", "750"],
        vec!["campaign", "smoke", "--inject-fault", "0:0:nope:5"],
        // A known flag the subcommand does not read.
        vec!["campaign", "smoke", "--accesses", "10"],
        // An unknown name, wherever it is given.
        vec!["trace", "bogusmode"],
        vec!["run", "--workload", "homo:nope"],
        vec!["run", "--workload", "bogus"],
        vec!["attack", "nope"],
        // Values a run cannot honour: more cores than the system has,
        // too few for an attacker and a victim, nothing to simulate, or
        // a sampled run told not to sample.
        vec!["run", "--cores", "9"],
        vec!["sample", "--cores", "9"],
        vec!["compare", "--cores", "9"],
        vec!["campaign", "smoke", "--cores", "9"],
        vec!["attack", "--cores", "1"],
        vec!["run", "--cores", "0"],
        vec!["run", "--accesses", "0"],
        vec!["campaign", "smoke", "--cores", "0"],
        vec!["sample", "--sampling", "off"],
        // A watchdog budget no cell can meet.
        vec!["campaign", "smoke", "--cores", "2", "--cell-budget", "0"],
        vec![
            "run",
            "--cores",
            "2",
            "--accesses",
            "400",
            "--cell-budget",
            "0",
        ],
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

/// A trace file wider than the system is an error naming the file, not
/// a panic.
#[test]
fn cli_run_rejects_a_trace_wider_than_the_system() {
    use ziv::prelude::*;
    let dir = temp_dir("cli-wide-trace");
    let path = dir.join("nine-cores.trace");
    let scale = ScaleParams::from_system(&SystemConfig::scaled());
    let wide = mixes::heterogeneous(0, 9, 20, 1, scale);
    ziv::workloads::trace_io::write_trace_file(&path, &wide).unwrap();
    let out = zivsim(&["run", "--workload", &format!("file:{}", path.display())]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("nine-cores.trace") && !stderr.contains("panic"),
        "the error names the file: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `run` and `compare` check the exact-zero guarantees the way
/// `campaign` does: with 1 MB L2s on the 8 MB-class LLC the private
/// caches hold more lines than the LLC, ZIV falls back to evicting
/// privately cached blocks, and the broken guarantee names the cell and
/// exits 1 after the results are printed.
#[test]
fn cli_run_and_compare_exit_1_for_a_broken_ziv_guarantee() {
    let oversubscribed = [
        "--l2",
        "1024",
        "--workload",
        "mt:vips",
        "--accesses",
        "6000",
    ];
    let run = [&["run", "--mode", "ziv-likelydead"][..], &oversubscribed].concat();
    let compare = [&["compare"][..], &oversubscribed].concat();
    for (args, cell) in [
        (run, "ZIV-LikelyDead-LRU × vips"),
        (compare, "ZIV-LikelyDead × vips"),
    ] {
        let out = zivsim(&args);
        let (stdout, stderr) = (
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("{cell}: 2439 inclusion victim(s) in a ZIV cell"))
                && stderr.contains(&format!("{cell}: 2439 ZIV guarantee fallback(s)")),
            "{args:?} names the cell: {stderr}"
        );
        assert!(stdout.contains("2439"), "{args:?} prints its results first");
    }
}

/// `export` creates the trace file's missing parent directories, like
/// every `--out`.
#[test]
fn cli_export_creates_parent_dirs() {
    let dir = temp_dir("cli-export-parents");
    std::fs::remove_dir_all(&dir).ok();
    let path = dir.join("new/sub/x.trace");
    let out = zivsim(&[
        "export",
        path.to_str().unwrap(),
        "--accesses",
        "20",
        "--cores",
        "2",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(std::fs::metadata(&path).unwrap().len() > 0);
    std::fs::remove_dir_all(&dir).ok();
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

/// `--cell-timeout` through the binary: full-size smoke cells cannot
/// finish in 1 ms, so every cell fails as a timeout naming the budget
/// and the campaign exits 3.
#[test]
fn cli_exit_code_3_with_hang_cancelled_by_the_watchdog() {
    let dir = temp_dir("cli-deadline");
    std::fs::remove_dir_all(&dir).ok();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_zivsim"))
        .args(["campaign", "smoke", "--threads", "1", "--cell-timeout", "1"])
        .arg("--results-dir")
        .arg(&dir)
        .env("ZIV_FULL", "1")
        .env_remove("ZIV_FAST")
        .output()
        .expect("zivsim runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(3),
        "a campaign of timed-out cells still classifies as isolated failures: {stderr}"
    );
    assert!(
        stderr.contains("wall-clock budget 1ms exceeded"),
        "the ledgered timeout names the budget: {stderr}"
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
