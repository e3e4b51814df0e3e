//! # ziv-harness
//!
//! The experiment-campaign subsystem: resumable, cached, observable
//! execution of the paper's figure-style sweeps.
//!
//! Every paper figure is a sweep over `(mode × policy × L2 size) ×
//! workload` cells. This crate turns such a sweep into a **campaign**
//! — data, not code — and runs it through a **content-addressed result
//! cache** so that:
//!
//! - re-running a campaign skips every already-computed cell;
//! - an interrupted campaign resumes where it stopped (`--resume`);
//! - different campaigns sharing cells share each other's results.
//!
//! The pieces:
//!
//! - [`Campaign`]: a named `(spec list × workload-recipe list)` grid,
//!   reproducible from `(seed, effort, system config)`.
//! - [`campaigns`]: the registry, one table of entries
//!   ([`campaigns::ENTRIES`]). Each entry builds one campaign and lists
//!   the [`View`]s it prints: one table each, under the [`Heading`] of
//!   the paper figure, ablation or extension it reproduces. Figures
//!   that read one grid are views of one entry (Figs 1, 3 and 4 are
//!   `fig01-incl-vs-nonincl`). [`campaigns::Entry::report`] prints an
//!   entry for both `zivsim campaign` and the `figures` bench, and
//!   checks every cell against the exact-zero guarantees.
//! - [`Ledger`]: the persistent cache — one JSON line per completed
//!   cell in `<results-dir>/ledger.jsonl`, keyed by [`CellDigest`]
//!   (a stable FNV-1a digest of the cell's semantic fields; see
//!   `DESIGN.md` for what is and is not digested). Hand-rolled JSON
//!   (`ziv_common::json`) keeps the build dependency-free.
//! - [`run_campaign`]: the runner — partitions cells into cached and
//!   missing, executes the missing ones on the worker pool
//!   ([`run_cells_supervised`]: watchdog-cancelled hangs and contained
//!   panics, each cell run once), appends each finished cell to the
//!   ledger as it completes, and exports `grid.csv` / `summary.csv`
//!   assembled from cached + fresh results. The final CSVs are byte-identical whether the campaign
//!   ran in one pass or across any number of interruptions, at any
//!   thread count.
//! - [`ProgressSink`] / [`Telemetry`]: the observability layer —
//!   per-cell wall-clock timing, a live progress line, and a
//!   worker-utilization summary.
//! - [`CampaignBus`]: the live telemetry bus — a seqlock shared-memory
//!   segment (`results/<name>/telemetry.shm`) that `zivsim watch`
//!   tails while the campaign runs, plus `--progress jsonl` heartbeat
//!   lines for CI log scraping. Off by default and provably zero-cost
//!   when off.
//! - [`run_grid`]: a plain `spec × workload` grid through the same
//!   pool, for `zivsim compare`.
//! - [`FailureRecord`] / [`replay`]: the robustness layer — a failing
//!   cell (invariant-audit violation, watchdog trip) is isolated,
//!   recorded as a ledger error entry that `--resume` runs again, and
//!   dumped as a minimized repro record that `zivsim replay`
//!   re-executes deterministically.
//!
//! # Examples
//!
//! ```
//! use ziv_harness::{campaigns, run_campaign, CampaignParams, NullSink, RunnerConfig};
//!
//! let mut params = CampaignParams::tiny(); // doc-test sizes
//! params.seed = 7;
//! let campaign = campaigns::by_name("smoke", &params).unwrap();
//! let dir = std::env::temp_dir().join("ziv-harness-doc");
//! let cfg = RunnerConfig { threads: 2, ..RunnerConfig::new(dir.clone()) };
//! let first = run_campaign(&campaign, &cfg, &NullSink).unwrap();
//! assert_eq!(first.telemetry.executed_cells, first.telemetry.total_cells);
//! assert!(first.failures.is_empty());
//!
//! // Immediately resuming recomputes nothing and exports identical CSVs.
//! let cfg = RunnerConfig { resume: true, ..cfg };
//! let again = run_campaign(&campaign, &cfg, &NullSink).unwrap();
//! assert_eq!(again.telemetry.executed_cells, 0);
//! # std::fs::remove_dir_all(dir).ok();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bus;
mod campaign;
mod failure;
mod ledger;
mod runner;
mod soak;
mod supervise;
mod telemetry;
mod view;

pub use bus::{BusOptions, CampaignBus, WorkerProbe};
pub use campaign::{campaigns, Campaign, CampaignParams, CellDigest, CELL_SCHEMA_VERSION};
pub use failure::{replay, FailureRecord, ReplayReport, FAILURE_SCHEMA_VERSION};
pub use ledger::{FailedCell, Ledger, LedgerRecovery, LedgerWriter};
pub use runner::{
    run_campaign, run_campaign_sampled, CampaignOutcome, CellFailure, RunnerConfig,
    SampledCampaignOutcome, SampledCellResult, SampledValidation,
};
pub use soak::{run_soak, SoakConfig, SoakReport};
pub use supervise::{
    default_stall_window, oversubscription_factor, run_cells_supervised, run_grid,
    NoopSuperviseObserver, SuperviseConfig, SuperviseObserver, SupervisedRun,
};
pub use telemetry::{CellTiming, EtaEstimator, NullSink, ProgressSink, StderrProgress, Telemetry};
pub use view::{check_guarantees, Heading, Metric, Table, View};
