//! # ziv-sim
//!
//! Runs one cell: feeds a workload's traces through a
//! [`ziv_core::CacheHierarchy`] under one [`RunSpec`], models per-core
//! timing (base CPI + exposed miss latency under a per-workload
//! memory-level-parallelism factor), and aggregates the paper's
//! reporting metrics (weighted speedup, normalized miss counts,
//! relocation statistics, EPI). Each run kind has one general entry
//! point and one result-only shortcut: [`run_one_instrumented`] /
//! [`run_one`] (with [`run_one_checked`] for audited runs),
//! [`run_one_sampled_instrumented`] / [`run_one_sampled`], and
//! [`run_paired_sampled_instrumented`]. Grids and campaigns of cells
//! run in `ziv-harness`, through its one worker pool.
//!
//! # Examples
//!
//! ```
//! use ziv_sim::{RunSpec, run_one, Effort};
//! use ziv_workloads::{mixes, ScaleParams};
//! use ziv_common::config::SystemConfig;
//! use ziv_core::LlcMode;
//!
//! let sys = SystemConfig::scaled();
//! let wl = mixes::homogeneous(
//!     ziv_workloads::apps::APPS[4], 2, 2_000, 1, ScaleParams::from_system(&sys));
//! let spec = RunSpec::new("I-LRU", sys).with_mode(LlcMode::Inclusive);
//! let result = run_one(&spec, &wl);
//! assert!(result.total_instructions() > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod csv;
mod driver;
mod effort;
mod perfetto;
mod report;
mod sampling;
mod spec;

pub use csv::{
    blame_to_csv, grid_to_csv, heatmap_to_csv, latency_to_csv, leakage_to_csv, sampling_to_csv,
    summary_to_csv, timeseries_to_csv, validation_to_csv, ObservedCell, SampledCell, ValidationRow,
    BLAME_COLUMNS, GRID_COLUMNS, LATENCY_COLUMNS, LEAKAGE_COLUMNS, SAMPLING_COLUMNS,
    VALIDATION_COLUMNS,
};
pub use driver::{
    derived_budget, run_one, run_one_checked, run_one_instrumented, CellBudget, CoreRunStats,
    RunOptions, RunResult,
};
pub use effort::Effort;
pub use perfetto::perfetto_to_json;
pub use report::{normalized_metric, speedup_summary, NormalizedRows};
pub use sampling::{
    run_one_sampled, run_one_sampled_instrumented, run_paired_sampled_instrumented,
    IntervalEstimate, PairedSampleReport, SampledRun, SamplingPlan, SamplingProfile, StopReason,
};
pub use spec::{GridResult, RunSpec};
// The types of `RunSpec`'s CHAR and directory fields.
pub use ziv_char::CharConfig;
pub use ziv_common::stats::{Confidence, ConfidenceInterval, RunningMoments};
pub use ziv_core::observe::{
    EventFilter, EventKind, EventTraceConfig, Observations, ObserveConfig, ProbeSnapshot,
    SamplingProgress, TelemetryProbe, TraceEvent,
};
pub use ziv_core::{
    AccessClass, CancelToken, CausalChain, ChainKind, CoreLeakage, ForensicsReport,
    LatencyBreakdown, LatencyComponent, LatencyReport, LeakageReport, ProfileReport,
    ProfileSection, VictimReason,
};
pub use ziv_directory::DirectoryMode;
