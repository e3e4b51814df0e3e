//! The deterministic chaos-soak drill behind `zivsim soak`.
//!
//! [`run_soak`] proves the supervision stack end-to-end, in four acts:
//!
//! 1. **Fault-free pass.** The `soak` campaign runs clean into
//!    `<dir>/baseline`; any failure here is a real defect, not chaos.
//! 2. **Chaos pass.** [`campaigns::soak_chaos`] arms one injected fault
//!    on each of four specs (seeded, deterministic) and the same grid
//!    runs into `<dir>/chaos` under sampled invariant auditing, the
//!    derived cycle budget and panic containment.
//! 3. **Isolation audit.** Every injected fault must land as a ledgered
//!    failure of the *expected kind* with a replayable repro record —
//!    and every cell that still succeeded (healthy specs, or a fault
//!    whose trigger never fired) must export a `grid.csv` row
//!    byte-identical to the fault-free pass. A fault that silently
//!    corrupted a "successful" cell cannot pass this gate.
//! 4. **Crash-recovery drill.** The chaos ledger is truncated
//!    mid-record — the kill -9 footprint — and the campaign re-runs
//!    with `--resume`. Recovery must detect the torn tail, re-run only
//!    the lost and failed cells, and reproduce `grid.csv` /
//!    `summary.csv` byte-for-byte.
//!
//! The report's [`SoakReport::violations`] list is the verdict: empty
//! means every fault was isolated and every guarantee held.

use crate::campaign::{campaigns, CampaignParams};
use crate::runner::{run_campaign, RunnerConfig};
use crate::telemetry::ProgressSink;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use ziv_common::SimError;
use ziv_core::{AuditCadence, FaultInjection};

/// How to run the soak drill.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Directory receiving the `baseline/` and `chaos/` result trees.
    pub results_dir: PathBuf,
    /// Worker threads for both passes.
    pub threads: usize,
    /// Campaign parameters (seed drives the chaos schedule too).
    pub params: CampaignParams,
    /// Publish the live telemetry segment for each pass
    /// (`--telemetry on`). Each pass writes its own
    /// `telemetry.shm` under its pass directory (`baseline/`,
    /// `chaos/`), so `zivsim watch` follows whichever pass is running.
    pub telemetry: bool,
    /// Emit JSONL heartbeat lines to stderr (`--progress jsonl`).
    pub progress_jsonl: bool,
}

impl SoakConfig {
    /// Defaults: 2 threads, env-sized params.
    pub fn new(results_dir: impl Into<PathBuf>) -> Self {
        SoakConfig {
            results_dir: results_dir.into(),
            threads: 2,
            params: CampaignParams::from_env(),
            telemetry: false,
            progress_jsonl: false,
        }
    }
}

/// What the soak drill observed.
#[derive(Debug)]
pub struct SoakReport {
    /// Cells per pass.
    pub total_cells: usize,
    /// Failures the chaos pass isolated.
    pub chaos_failures: usize,
    /// The seeded fault plan: `(spec label, fault kind, trigger access)`.
    pub fault_plan: Vec<(String, String, u64)>,
    /// Chaos-pass cells whose `grid.csv` rows matched the fault-free
    /// pass byte-for-byte (healthy cells plus unfired faults).
    pub identical_rows: usize,
    /// Whether the crash-recovery drill detected the torn tail.
    pub torn_tail_detected: bool,
    /// Cells the resume pass re-simulated (lost + failed cells only).
    pub resumed_cells: usize,
    /// Every broken guarantee, human-readable. Empty = drill passed.
    pub violations: Vec<String>,
}

impl SoakReport {
    /// Whether every supervision guarantee held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The [`SimError::kind_tag`] each injector must produce when it fires
/// under sampled auditing and the derived cycle budget.
fn expected_kind(fault: &FaultInjection) -> &'static str {
    match fault {
        FaultInjection::CorruptDirectory { .. } => "audit",
        FaultInjection::SkipBackInvalidation { .. } => "audit",
        FaultInjection::StallCore { .. } => "budget-exceeded",
        FaultInjection::PanicCore { .. } => "internal",
    }
}

/// `grid.csv` rows keyed by their `(config, workload)` prefix.
fn grid_rows(path: &Path) -> Result<BTreeMap<String, String>, SimError> {
    let text = std::fs::read_to_string(path).map_err(|e| SimError::io("read grid csv", path, e))?;
    Ok(text
        .lines()
        .skip(1)
        .map(|line| {
            let key = line.splitn(3, ',').take(2).collect::<Vec<_>>().join(",");
            (key, line.to_string())
        })
        .collect())
}

/// Runs the full chaos-soak drill (see the module docs). The result is
/// a report, not an error: injected faults failing their cells is the
/// *expected* outcome, and broken guarantees are returned in
/// [`SoakReport::violations`] for the caller to turn into an exit code.
///
/// # Errors
///
/// Returns [`SimError::Io`] only for infrastructure failures (results
/// directory, ledger, CSV I/O) — never for isolated cell failures.
pub fn run_soak(cfg: &SoakConfig, sink: &dyn ProgressSink) -> Result<SoakReport, SimError> {
    let mut violations = Vec::new();
    let baseline_campaign =
        campaigns::by_name("soak", &cfg.params).expect("soak campaign is registered");
    let (chaos_campaign, faults) = campaigns::soak_chaos(&cfg.params);
    let faulted: BTreeMap<usize, FaultInjection> =
        faults.iter().map(|f| (f.spec_index, f.fault)).collect();

    // Act 1: the fault-free pass. Supervised identically to the chaos
    // pass (same audit, same cycle budget) so the two passes differ
    // only in the injected faults.
    // Sampled auditing: detection lands within one sample interval of
    // the injected corruption (deterministically — the cadence clock is
    // per-cell), at a per-access cost far below every-access auditing.
    let pass_cfg = |dir: PathBuf| RunnerConfig {
        threads: cfg.threads,
        audit: AuditCadence::Sampled { one_in: 64 },
        params: Some(cfg.params),
        telemetry: cfg.telemetry,
        progress_jsonl: cfg.progress_jsonl,
        ..RunnerConfig::new(dir)
    };
    let baseline_cfg = pass_cfg(cfg.results_dir.join("baseline"));
    let baseline = run_campaign(&baseline_campaign, &baseline_cfg, sink)?;
    for f in &baseline.failures {
        violations.push(format!(
            "fault-free pass failed cell [{} / {}]: {}",
            f.label, f.workload, f.error
        ));
    }

    // Act 2: the chaos pass.
    let chaos_cfg = pass_cfg(cfg.results_dir.join("chaos"));
    let chaos = run_campaign(&chaos_campaign, &chaos_cfg, sink)?;

    // Act 3: the isolation audit.
    let mut fired_specs = BTreeSet::new();
    for f in &chaos.failures {
        match faulted.get(&f.spec_index) {
            None => violations.push(format!(
                "healthy spec [{}] failed under chaos: {}",
                f.label, f.error
            )),
            Some(fault) => {
                fired_specs.insert(f.spec_index);
                let expected = expected_kind(fault);
                if f.error.kind_tag() != expected {
                    violations.push(format!(
                        "fault {} on [{}] ledgered as '{}' (expected '{}')",
                        fault.kind_str(),
                        f.label,
                        f.error.kind_tag(),
                        expected
                    ));
                }
                match &f.record_path {
                    Some(path) if path.is_file() => {}
                    _ => violations.push(format!(
                        "fault {} on [{} / {}] left no replayable repro record",
                        fault.kind_str(),
                        f.label,
                        f.workload
                    )),
                }
            }
        }
    }
    for (spec_index, fault) in &faulted {
        if !fired_specs.contains(spec_index) {
            violations.push(format!(
                "injected fault {} on [{}] never fired in any cell",
                fault.kind_str(),
                chaos_campaign.specs[*spec_index].label
            ));
        }
    }
    let baseline_rows = grid_rows(&baseline.grid_csv)?;
    let chaos_rows = grid_rows(&chaos.grid_csv)?;
    let mut identical_rows = 0;
    for (key, row) in &chaos_rows {
        match baseline_rows.get(key) {
            Some(b) if b == row => identical_rows += 1,
            Some(_) => violations.push(format!(
                "surviving chaos cell [{key}] diverged from the fault-free pass \
                 (a fault corrupted a 'successful' result)"
            )),
            None => violations.push(format!("chaos cell [{key}] has no fault-free counterpart")),
        }
    }

    // Act 4: the crash-recovery drill. Tear the chaos ledger's tail
    // mid-record (what kill -9 during an append leaves behind), resume,
    // and require byte-identical exports.
    let grid_before = std::fs::read(&chaos.grid_csv)
        .map_err(|e| SimError::io("read grid csv", &chaos.grid_csv, e))?;
    let summary_before = std::fs::read(&chaos.summary_csv)
        .map_err(|e| SimError::io("read summary csv", &chaos.summary_csv, e))?;
    let ledger_bytes = std::fs::read(&chaos.ledger_path)
        .map_err(|e| SimError::io("read ledger", &chaos.ledger_path, e))?;
    let torn_len = ledger_bytes.len().saturating_sub(10);
    std::fs::write(&chaos.ledger_path, &ledger_bytes[..torn_len])
        .map_err(|e| SimError::io("tear ledger tail", &chaos.ledger_path, e))?;
    let resume_cfg = RunnerConfig {
        resume: true,
        ..chaos_cfg
    };
    let resumed = run_campaign(&chaos_campaign, &resume_cfg, sink)?;
    if !resumed.recovery.torn_tail {
        violations.push("resume after mid-append kill did not detect the torn tail".into());
    }
    // Only the torn-off cell (if it was a success line) plus the failed
    // cells — which never satisfy the ledger — may re-run.
    let resumed_cells = resumed.telemetry.executed_cells + resumed.failures.len();
    let max_rerun = chaos.failures.len() + 1;
    if resumed_cells > max_rerun {
        violations.push(format!(
            "resume re-ran {resumed_cells} cells; only the {} failed cells plus the torn-off \
             entry should re-run",
            chaos.failures.len()
        ));
    }
    let grid_after = std::fs::read(&resumed.grid_csv)
        .map_err(|e| SimError::io("read grid csv", &resumed.grid_csv, e))?;
    let summary_after = std::fs::read(&resumed.summary_csv)
        .map_err(|e| SimError::io("read summary csv", &resumed.summary_csv, e))?;
    if grid_after != grid_before {
        violations.push("grid.csv changed across the crash-recovery resume".into());
    }
    if summary_after != summary_before {
        violations.push("summary.csv changed across the crash-recovery resume".into());
    }

    Ok(SoakReport {
        total_cells: chaos_campaign.total_cells(),
        chaos_failures: chaos.failures.len(),
        fault_plan: faults
            .iter()
            .map(|f| {
                (
                    chaos_campaign.specs[f.spec_index].label.clone(),
                    f.fault.kind_str().to_string(),
                    f.fault.at_access(),
                )
            })
            .collect(),
        identical_rows,
        torn_tail_detected: resumed.recovery.torn_tail,
        resumed_cells,
        violations,
    })
}
