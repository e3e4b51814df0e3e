//! End-to-end campaign cache semantics: resume executes zero new
//! cells, an interrupted campaign completes from its ledger, and the
//! exported CSVs are byte-identical across passes and thread counts.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;
use ziv_harness::{
    campaigns, run_campaign, CampaignParams, CellTiming, NullSink, ProgressSink, RunnerConfig,
};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("ziv-harness-it")
        .join(format!("{name}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

fn params() -> CampaignParams {
    CampaignParams::tiny()
}

/// Counts executed cells without printing anything.
#[derive(Default)]
struct CountingSink {
    cells: AtomicUsize,
}

impl ProgressSink for CountingSink {
    fn cell_finished(&self, _timing: &CellTiming, _done: usize, _total: usize) {
        self.cells.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn resume_executes_zero_new_cells_and_reexports_identical_csvs() {
    let campaign = campaigns::by_name("smoke", &params()).unwrap();
    let dir = temp_dir("resume-zero");
    let cfg = RunnerConfig {
        threads: 2,
        ..RunnerConfig::new(dir.clone())
    };

    let first = run_campaign(&campaign, &cfg, &NullSink).unwrap();
    assert_eq!(first.telemetry.executed_cells, campaign.total_cells());
    assert_eq!(first.telemetry.cached_cells, 0);
    assert_eq!(first.grid.len(), campaign.total_cells());
    let grid_csv = fs::read(&first.grid_csv).unwrap();
    let summary_csv = fs::read(&first.summary_csv).unwrap();
    assert!(!grid_csv.is_empty());

    // Second pass with --resume: every cell is served from the ledger.
    let sink = CountingSink::default();
    let cfg = RunnerConfig {
        resume: true,
        ..cfg
    };
    let second = run_campaign(&campaign, &cfg, &sink).unwrap();
    assert_eq!(
        second.telemetry.executed_cells, 0,
        "resume must run nothing"
    );
    assert_eq!(sink.cells.load(Ordering::Relaxed), 0);
    assert_eq!(second.telemetry.cached_cells, campaign.total_cells());
    assert_eq!(fs::read(&second.grid_csv).unwrap(), grid_csv);
    assert_eq!(fs::read(&second.summary_csv).unwrap(), summary_csv);

    // Without --resume the ledger is discarded and everything reruns.
    let cfg = RunnerConfig {
        resume: false,
        ..cfg
    };
    let third = run_campaign(&campaign, &cfg, &NullSink).unwrap();
    assert_eq!(third.telemetry.executed_cells, campaign.total_cells());
    assert_eq!(fs::read(&third.grid_csv).unwrap(), grid_csv);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn interrupted_campaign_resumes_to_byte_identical_csvs() {
    let campaign = campaigns::by_name("smoke", &params()).unwrap();
    let total = campaign.total_cells();
    assert!(total >= 4, "test needs a few cells to interrupt between");

    // Reference: uninterrupted single pass, single-threaded.
    let ref_dir = temp_dir("interrupt-ref");
    let ref_cfg = RunnerConfig::new(ref_dir.clone());
    let reference = run_campaign(&campaign, &ref_cfg, &NullSink).unwrap();
    let ref_grid = fs::read(&reference.grid_csv).unwrap();
    let ref_summary = fs::read(&reference.summary_csv).unwrap();

    // "Interrupted" run: complete it once, then cut the ledger down to
    // two complete lines plus half of a third — exactly what a process
    // killed mid-append leaves behind.
    let dir = temp_dir("interrupt-cut");
    let cfg = RunnerConfig {
        threads: 4,
        ..RunnerConfig::new(dir.clone())
    };
    let full = run_campaign(&campaign, &cfg, &NullSink).unwrap();
    let ledger_text = fs::read_to_string(&full.ledger_path).unwrap();
    let lines: Vec<&str> = ledger_text.lines().collect();
    assert_eq!(lines.len(), total);
    let half = &lines[2][..lines[2].len() / 2];
    fs::write(
        &full.ledger_path,
        format!("{}\n{}\n{half}", lines[0], lines[1]),
    )
    .unwrap();

    // Relaunch with --resume at a different thread count: only the
    // unfinished cells run, and the exports match the reference byte
    // for byte.
    let sink = CountingSink::default();
    let cfg = RunnerConfig {
        resume: true,
        ..cfg
    };
    let resumed = run_campaign(&campaign, &cfg, &sink).unwrap();
    assert_eq!(resumed.telemetry.cached_cells, 2);
    assert_eq!(resumed.telemetry.executed_cells, total - 2);
    assert_eq!(sink.cells.load(Ordering::Relaxed), total - 2);
    assert_eq!(fs::read(&resumed.grid_csv).unwrap(), ref_grid);
    assert_eq!(fs::read(&resumed.summary_csv).unwrap(), ref_summary);

    // The repaired ledger now covers the full grid again.
    let reloaded = ziv_harness::Ledger::load(&resumed.ledger_path).unwrap();
    assert_eq!(reloaded.len(), total);
    fs::remove_dir_all(&ref_dir).ok();
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn thread_count_does_not_change_exports_or_digests() {
    let campaign = campaigns::by_name("smoke", &params()).unwrap();
    let mut grids = Vec::new();
    let mut dirs = Vec::new();
    // A wall-clock budget no cell comes near changes nothing either.
    let budget = Some(Duration::from_secs(60));
    for (threads, cell_timeout) in [(1, None), (4, None), (2, budget)] {
        let dir = temp_dir(&format!("threads-{threads}"));
        let cfg = RunnerConfig {
            threads,
            cell_timeout,
            ..RunnerConfig::new(dir.clone())
        };
        let out = run_campaign(&campaign, &cfg, &NullSink).unwrap();
        grids.push(fs::read(&out.grid_csv).unwrap());
        dirs.push(dir);
    }
    assert_eq!(grids[0], grids[1], "grid.csv must not depend on --threads");
    assert_eq!(
        grids[0], grids[2],
        "grid.csv must not depend on --cell-timeout"
    );

    // Cross-"process" cache sharing: a ledger written by one run is a
    // full cache for a separately constructed (but equal-params)
    // campaign — digests depend only on semantic cell content.
    let rebuilt = campaigns::by_name("smoke", &params()).unwrap();
    let cfg = RunnerConfig {
        threads: 2,
        resume: true,
        ..RunnerConfig::new(dirs[1].clone())
    };
    let out = run_campaign(&rebuilt, &cfg, &NullSink).unwrap();
    assert_eq!(out.telemetry.executed_cells, 0);
    for dir in dirs {
        fs::remove_dir_all(&dir).ok();
    }
}
