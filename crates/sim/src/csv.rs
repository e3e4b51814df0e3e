//! CSV export of experiment grids, for external plotting pipelines
//! (matplotlib / gnuplot / spreadsheets).
//!
//! Six layouts are provided:
//!
//! - [`grid_to_csv`]: one row per `(config, workload)` cell with the
//!   full metric set — the raw data behind every figure.
//! - [`summary_to_csv`]: one row per config with the geomean/min/max
//!   summary (the paper's bar+range format).
//! - [`timeseries_to_csv`]: one row per `(config, workload, epoch)`
//!   with the signed per-epoch counter deltas (the flight recorder's
//!   time-series; DESIGN.md §"Observability").
//! - [`heatmap_to_csv`]: bank × set occupancy grids (one row per
//!   `(config, workload, counter, bank)`).
//! - [`latency_to_csv`]: the latency observatory's attribution matrix
//!   (one row per `(config, workload, core, class)` plus a `core=all`
//!   summary row per class carrying the percentile columns).
//! - [`leakage_to_csv`]: the leakage observatory's per-cell summary
//!   (attacker-observable signal vs noise, probe distinguishability,
//!   SHARP alarm rates; DESIGN.md §"Security evaluation").
//! - [`sampling_to_csv`] / [`validation_to_csv`]: the statistical
//!   sampling engine's per-interval estimates with confidence
//!   intervals, and the sampled-vs-full validation report behind the
//!   CI speedup/accuracy gate (DESIGN.md §"Statistical sampling").

use crate::driver::RunResult;
use crate::report::NormalizedRows;
use crate::spec::GridResult;
use std::io::Write;
use std::path::Path;
use ziv_common::fsutil::create_parent_dirs;
use ziv_common::SimError;
use ziv_core::latency::AccessClass;
use ziv_core::observe::{Observations, CORE_METRICS_COLUMNS, METRICS_COLUMNS};

/// Escapes a CSV field (quotes fields containing commas or quotes).
fn esc(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// The per-cell metric columns exported by [`grid_to_csv`].
pub const GRID_COLUMNS: [&str; 16] = [
    "config",
    "workload",
    "weighted_ipc_sum",
    "instructions",
    "llc_accesses",
    "llc_hits",
    "relocated_hits",
    "llc_misses",
    "l2_misses",
    "inclusion_victims",
    "coherence_invalidations",
    "directory_back_invalidations",
    "relocations",
    "cross_bank_relocations",
    "dram_accesses",
    "relocation_epi_pj",
];

fn cell_row(r: &RunResult) -> Vec<String> {
    let m = &r.metrics;
    let ipc_sum: f64 = r.cores.iter().map(|c| c.ipc()).sum();
    vec![
        r.label.clone(),
        r.workload.clone(),
        format!("{ipc_sum:.6}"),
        r.total_instructions().to_string(),
        m.llc_accesses.to_string(),
        m.llc_hits.to_string(),
        m.relocated_hits.to_string(),
        m.llc_misses.to_string(),
        m.total_l2_misses().to_string(),
        m.inclusion_victims.to_string(),
        m.coherence_invalidations.to_string(),
        m.directory_back_invalidations.to_string(),
        m.relocations.to_string(),
        m.cross_bank_relocations.to_string(),
        m.dram_accesses.to_string(),
        format!("{:.4}", m.relocation_epi_pj()),
    ]
}

/// Writes one CSV row per grid cell.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
///
/// # Examples
///
/// ```
/// use ziv_sim::{run_grid, RunSpec, grid_to_csv};
/// use ziv_common::config::SystemConfig;
/// use ziv_workloads::{apps, mixes, ScaleParams};
///
/// let sys = SystemConfig::scaled();
/// let wl = mixes::homogeneous(
///     apps::APPS[4], 2, 500, 1, ScaleParams::from_system(&sys));
/// let grid = run_grid(&[RunSpec::new("I-LRU", sys)], &[wl], 1);
/// let mut out = Vec::new();
/// grid_to_csv(&grid, &mut out).unwrap();
/// let text = String::from_utf8(out).unwrap();
/// assert!(text.starts_with("config,workload,"));
/// assert!(text.contains("I-LRU"));
/// ```
pub fn grid_to_csv<W: Write>(grid: &[GridResult], mut out: W) -> std::io::Result<()> {
    writeln!(out, "{}", GRID_COLUMNS.join(","))?;
    for cell in grid {
        let row = cell_row(&cell.result);
        writeln!(
            out,
            "{}",
            row.iter().map(|f| esc(f)).collect::<Vec<_>>().join(",")
        )?;
    }
    Ok(())
}

/// Writes one CSV row per configuration from a summary
/// ([`crate::speedup_summary`] / [`crate::normalized_metric`] output).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn summary_to_csv<W: Write>(
    rows: &NormalizedRows,
    value_name: &str,
    mut out: W,
) -> std::io::Result<()> {
    writeln!(out, "config,{value_name},min,max,n")?;
    for (label, s) in &rows.rows {
        writeln!(
            out,
            "{},{:.6},{:.6},{:.6},{}",
            esc(label),
            s.gmean,
            s.min,
            s.max,
            s.count
        )?;
    }
    Ok(())
}

/// One cell's observations labelled for CSV export.
#[derive(Debug, Clone, Copy)]
pub struct ObservedCell<'a> {
    /// Configuration label.
    pub config: &'a str,
    /// Workload name.
    pub workload: &'a str,
    /// The cell's flight-recorder payload.
    pub observations: &'a Observations,
}

/// Writes the epoch time-series: one row per `(config, workload,
/// epoch)` carrying the **signed** deltas of every scalar counter
/// (global, then per-core with a derived `c{i}_ipc` column). Column
/// order follows [`METRICS_COLUMNS`] / [`CORE_METRICS_COLUMNS`], so
/// summing a column over a cell's rows reproduces the aggregate
/// `Metrics` value exactly.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn timeseries_to_csv<W: Write>(cells: &[ObservedCell<'_>], mut out: W) -> std::io::Result<()> {
    let cores = cells
        .iter()
        .flat_map(|c| c.observations.epochs.iter())
        .map(|e| e.per_core.len())
        .max()
        .unwrap_or(0);
    let mut header: Vec<String> = ["config", "workload", "epoch", "start_access", "end_access"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    header.extend(METRICS_COLUMNS.iter().map(|c| c.to_string()));
    for c in 0..cores {
        for col in CORE_METRICS_COLUMNS {
            header.push(format!("c{c}_{col}"));
        }
        header.push(format!("c{c}_ipc"));
    }
    writeln!(out, "{}", header.join(","))?;
    for cell in cells {
        for e in &cell.observations.epochs {
            let mut row = vec![
                esc(cell.config),
                esc(cell.workload),
                e.index.to_string(),
                e.start_access.to_string(),
                e.end_access.to_string(),
            ];
            row.extend(e.global.iter().map(|v| v.to_string()));
            for c in 0..cores {
                match e.per_core.get(c) {
                    Some(pc) => {
                        row.extend(pc.iter().map(|v| v.to_string()));
                        row.push(format!("{:.6}", e.core_ipc(c)));
                    }
                    None => {
                        // Cells with fewer cores pad with zero deltas so
                        // every row has the full column set.
                        row.extend(std::iter::repeat_n(
                            "0".to_string(),
                            CORE_METRICS_COLUMNS.len() + 1,
                        ));
                    }
                }
            }
            writeln!(out, "{}", row.join(","))?;
        }
    }
    Ok(())
}

/// The columns exported by [`latency_to_csv`]: identity, the cell's
/// count/cycles, one column per [`ziv_core::latency::LatencyComponent`],
/// and the latency percentiles (filled only on the `core=all` rows,
/// where the per-class histogram lives).
pub const LATENCY_COLUMNS: [&str; 17] = [
    "config",
    "workload",
    "core",
    "class",
    "count",
    "cycles",
    "l1",
    "l2",
    "llc_tag",
    "llc_data",
    "directory",
    "noc",
    "dram",
    "p50",
    "p95",
    "p99",
    "p999",
];

/// Writes the latency attribution matrix: for every cell with an
/// attached [`ziv_core::latency::LatencyReport`], one row per
/// `(core, class)` pair with a
/// nonzero count (component columns sum to `cycles` exactly), then one
/// `core=all` row per class — always emitted, so conservation checks can
/// sum a fixed row set — carrying the class histogram's interpolated
/// p50/p95/p99/p999 (empty when the class saw no accesses).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn latency_to_csv<W: Write>(cells: &[ObservedCell<'_>], mut out: W) -> std::io::Result<()> {
    writeln!(out, "{}", LATENCY_COLUMNS.join(","))?;
    for cell in cells {
        let Some(report) = cell.observations.latency.as_ref() else {
            continue;
        };
        for (core, classes) in report.per_core.iter().enumerate() {
            for (cells_for_class, class) in classes.iter().zip(AccessClass::ALL) {
                if cells_for_class.count == 0 {
                    continue;
                }
                write_latency_row(
                    &mut out,
                    cell,
                    &core.to_string(),
                    class,
                    cells_for_class,
                    None,
                )?;
            }
        }
        for class in AccessClass::ALL {
            let total = report.class_total(class);
            write_latency_row(
                &mut out,
                cell,
                "all",
                class,
                &total,
                Some(report.histogram(class)),
            )?;
        }
    }
    Ok(())
}

fn write_latency_row<W: Write>(
    out: &mut W,
    cell: &ObservedCell<'_>,
    core: &str,
    class: AccessClass,
    cells: &ziv_core::latency::ClassCells,
    hist: Option<&ziv_common::stats::Log2Histogram>,
) -> std::io::Result<()> {
    let mut row = vec![
        esc(cell.config),
        esc(cell.workload),
        core.to_string(),
        class.label().to_string(),
        cells.count.to_string(),
        cells.cycles.to_string(),
    ];
    row.extend(cells.components.iter().map(|v| v.to_string()));
    for q in [0.50, 0.95, 0.99, 0.999] {
        row.push(
            hist.and_then(|h| h.percentile(q))
                .map_or_else(String::new, |p| format!("{p:.3}")),
        );
    }
    writeln!(out, "{}", row.join(","))
}

/// The columns exported by [`leakage_to_csv`].
pub const LEAKAGE_COLUMNS: [&str; 13] = [
    "config",
    "workload",
    "cycles",
    "probed_sets",
    "signal_evictions",
    "noise_evictions",
    "signal_per_mcycle",
    "probe_hits",
    "probe_evictions_seen",
    "probe_eviction_rate",
    "sharp_alarms",
    "sharp_alarms_per_mcycle",
    "total_back_invalidations",
];

/// Writes the leakage summary: one row per cell with an attached
/// [`ziv_core::LeakageReport`] — the attacker-observable **signal**
/// (victim lines back-invalidated out of attacker-probed sets, raw and
/// per million cycles of co-run), the indistinguishable **noise**, the
/// attacker's probe-latency distinguishability split, and SHARP's alarm
/// rate. This is the `leakage.csv` the `attack-eval` campaign exports;
/// a defense with the zero-inclusion-victim property shows
/// `signal_evictions = 0` exactly.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn leakage_to_csv<W: Write>(cells: &[ObservedCell<'_>], mut out: W) -> std::io::Result<()> {
    writeln!(out, "{}", LEAKAGE_COLUMNS.join(","))?;
    for cell in cells {
        let Some(r) = cell.observations.leakage.as_ref() else {
            continue;
        };
        let alarms_per_mcycle = if r.cycles == 0 {
            0.0
        } else {
            r.sharp_alarms as f64 * 1e6 / r.cycles as f64
        };
        let row = vec![
            esc(cell.config),
            esc(cell.workload),
            r.cycles.to_string(),
            r.probed_sets.to_string(),
            r.observable_victim_evictions().to_string(),
            r.noise_evictions().to_string(),
            format!("{:.6}", r.observable_per_mcycle()),
            r.probe_hits().to_string(),
            r.probe_evictions_seen().to_string(),
            format!("{:.6}", r.probe_eviction_rate()),
            r.sharp_alarms.to_string(),
            format!("{alarms_per_mcycle:.6}"),
            r.total_back_invalidations().to_string(),
        ];
        writeln!(out, "{}", row.join(","))?;
    }
    Ok(())
}

/// The columns exported by [`blame_to_csv`].
pub const BLAME_COLUMNS: [&str; 7] = [
    "config",
    "workload",
    "instigator_core",
    "victim_core",
    "victims",
    "refetches",
    "refetch_cycles",
];

/// Writes the forensics blame matrix: for each cell with an attached
/// [`ziv_core::ForensicsReport`], one row per (instigator, victim) core
/// pair — **including all-zero cells**, so a ZIV run's provable absence
/// of inclusion victims shows up as explicit zero rows rather than
/// missing data (the ci.sh conservation gate sums the `victims` column
/// per cell and checks it against the grid's `inclusion_victims`).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn blame_to_csv<W: Write>(cells: &[ObservedCell<'_>], mut out: W) -> std::io::Result<()> {
    writeln!(out, "{}", BLAME_COLUMNS.join(","))?;
    for cell in cells {
        let Some(r) = cell.observations.forensics.as_ref() else {
            continue;
        };
        for instigator in 0..r.cores {
            for victim in 0..r.cores {
                let row = [
                    esc(cell.config),
                    esc(cell.workload),
                    instigator.to_string(),
                    victim.to_string(),
                    r.victims(instigator, victim).to_string(),
                    r.refetches(instigator, victim).to_string(),
                    r.refetch_cycles(instigator, victim).to_string(),
                ];
                writeln!(out, "{}", row.join(","))?;
            }
        }
    }
    Ok(())
}

/// Writes the occupancy heatmaps as CSV grids: for each cell and each
/// counter (`accesses`, `evictions`, `relocations`), one row per bank
/// with one column per set.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn heatmap_to_csv<W: Write>(cells: &[ObservedCell<'_>], mut out: W) -> std::io::Result<()> {
    let sets = cells
        .iter()
        .filter_map(|c| c.observations.heatmap.as_ref())
        .map(ziv_core::observe::Heatmap::sets)
        .max()
        .unwrap_or(0);
    let mut header: Vec<String> = ["config", "workload", "counter", "bank"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    header.extend((0..sets).map(|s| format!("set_{s}")));
    writeln!(out, "{}", header.join(","))?;
    for cell in cells {
        let Some(hm) = cell.observations.heatmap.as_ref() else {
            continue;
        };
        let counters = [
            ("accesses", &hm.accesses),
            ("evictions", &hm.evictions),
            ("relocations", &hm.relocations),
        ];
        for (name, grid) in counters {
            for bank in 0..grid.rows() {
                let mut row = vec![
                    esc(cell.config),
                    esc(cell.workload),
                    name.to_string(),
                    bank.to_string(),
                ];
                row.extend((0..sets).map(|s| grid.get(bank, s).to_string()));
                writeln!(out, "{}", row.join(","))?;
            }
        }
    }
    Ok(())
}

/// Writes the epoch time-series CSV to `path`, creating missing parent
/// directories first.
///
/// # Errors
///
/// Returns [`SimError::Io`] naming `path` and the failing operation.
pub fn write_timeseries_csv(path: &Path, cells: &[ObservedCell<'_>]) -> Result<(), SimError> {
    create_parent_dirs(path)?;
    let file =
        std::fs::File::create(path).map_err(|e| SimError::io("create timeseries CSV", path, e))?;
    let mut w = std::io::BufWriter::new(file);
    timeseries_to_csv(cells, &mut w).map_err(|e| SimError::io("write timeseries CSV", path, e))?;
    w.flush()
        .map_err(|e| SimError::io("flush timeseries CSV", path, e))
}

/// Writes the heatmap CSV to `path`, creating missing parent
/// directories first.
///
/// # Errors
///
/// Returns [`SimError::Io`] naming `path` and the failing operation.
pub fn write_heatmap_csv(path: &Path, cells: &[ObservedCell<'_>]) -> Result<(), SimError> {
    create_parent_dirs(path)?;
    let file =
        std::fs::File::create(path).map_err(|e| SimError::io("create heatmap CSV", path, e))?;
    let mut w = std::io::BufWriter::new(file);
    heatmap_to_csv(cells, &mut w).map_err(|e| SimError::io("write heatmap CSV", path, e))?;
    w.flush()
        .map_err(|e| SimError::io("flush heatmap CSV", path, e))
}

/// Writes the latency attribution CSV to `path`, creating missing
/// parent directories first.
///
/// # Errors
///
/// Returns [`SimError::Io`] naming `path` and the failing operation.
pub fn write_latency_csv(path: &Path, cells: &[ObservedCell<'_>]) -> Result<(), SimError> {
    create_parent_dirs(path)?;
    let file =
        std::fs::File::create(path).map_err(|e| SimError::io("create latency CSV", path, e))?;
    let mut w = std::io::BufWriter::new(file);
    latency_to_csv(cells, &mut w).map_err(|e| SimError::io("write latency CSV", path, e))?;
    w.flush()
        .map_err(|e| SimError::io("flush latency CSV", path, e))
}

/// Writes the leakage summary CSV to `path`, creating missing parent
/// directories first.
///
/// # Errors
///
/// Returns [`SimError::Io`] naming `path` and the failing operation.
pub fn write_leakage_csv(path: &Path, cells: &[ObservedCell<'_>]) -> Result<(), SimError> {
    create_parent_dirs(path)?;
    let file =
        std::fs::File::create(path).map_err(|e| SimError::io("create leakage CSV", path, e))?;
    let mut w = std::io::BufWriter::new(file);
    leakage_to_csv(cells, &mut w).map_err(|e| SimError::io("write leakage CSV", path, e))?;
    w.flush()
        .map_err(|e| SimError::io("flush leakage CSV", path, e))
}

/// Writes the blame matrix CSV to `path`, creating missing parent
/// directories first.
///
/// # Errors
///
/// Returns [`SimError::Io`] naming `path` and the failing operation.
pub fn write_blame_csv(path: &Path, cells: &[ObservedCell<'_>]) -> Result<(), SimError> {
    create_parent_dirs(path)?;
    let file =
        std::fs::File::create(path).map_err(|e| SimError::io("create blame CSV", path, e))?;
    let mut w = std::io::BufWriter::new(file);
    blame_to_csv(cells, &mut w).map_err(|e| SimError::io("write blame CSV", path, e))?;
    w.flush()
        .map_err(|e| SimError::io("flush blame CSV", path, e))
}

/// Writes the grid CSV to `path`, with the file path attached to any
/// failure (create or write) as a [`SimError::Io`].
///
/// # Errors
///
/// Returns [`SimError::Io`] naming `path` and the failing operation.
pub fn write_grid_csv(path: &Path, grid: &[GridResult]) -> Result<(), SimError> {
    create_parent_dirs(path)?;
    let file = std::fs::File::create(path).map_err(|e| SimError::io("create grid CSV", path, e))?;
    let mut w = std::io::BufWriter::new(file);
    grid_to_csv(grid, &mut w).map_err(|e| SimError::io("write grid CSV", path, e))?;
    w.flush()
        .map_err(|e| SimError::io("flush grid CSV", path, e))
}

/// One sampled cell ready for [`sampling_to_csv`]: the `(config,
/// workload)` naming plus the sampled run whose intervals it exports.
#[derive(Debug)]
pub struct SampledCell<'a> {
    /// Spec label.
    pub config: &'a str,
    /// Workload name.
    pub workload: &'a str,
    /// The cell's sampled run.
    pub sampled: &'a crate::sampling::SampledRun,
}

/// The columns exported by [`sampling_to_csv`]: per-interval estimates
/// plus the cell-level aggregate (mean, confidence interval, coverage)
/// repeated on every row so each line is self-describing.
pub const SAMPLING_COLUMNS: [&str; 16] = [
    "config",
    "workload",
    "interval",
    "start_access",
    "accesses",
    "instructions",
    "cycles",
    "ipc",
    "llc_miss_rate",
    "inclusion_victims",
    "ipc_mean",
    "ipc_ci_low",
    "ipc_ci_high",
    "confidence",
    "simulated_fraction",
    "stop_reason",
];

/// Writes the statistical-sampling export: one row per measured
/// interval of each sampled cell, carrying the interval's own
/// estimators (IPC, LLC miss rate, inclusion victims) and the cell's
/// Student-t aggregate. Cells that closed no full interval (trace
/// shorter than one sampling period) emit no rows.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn sampling_to_csv<W: Write>(cells: &[SampledCell<'_>], mut out: W) -> std::io::Result<()> {
    writeln!(out, "{}", SAMPLING_COLUMNS.join(","))?;
    for cell in cells {
        let run = cell.sampled;
        let (mean, lo, hi) = match run.ipc_ci() {
            Some(ci) => (
                format!("{:.6}", ci.mean),
                format!("{:.6}", ci.low()),
                format!("{:.6}", ci.high()),
            ),
            None => {
                let mean = run
                    .ipc_estimate()
                    .map_or_else(String::new, |m| format!("{m:.6}"));
                (mean, String::new(), String::new())
            }
        };
        for iv in &run.intervals {
            let row = vec![
                esc(cell.config),
                esc(cell.workload),
                iv.index.to_string(),
                iv.start_access.to_string(),
                iv.accesses.to_string(),
                iv.instructions.to_string(),
                iv.cycles.to_string(),
                format!("{:.6}", iv.ipc),
                format!("{:.6}", iv.llc_miss_rate),
                iv.inclusion_victims.to_string(),
                mean.clone(),
                lo.clone(),
                hi.clone(),
                run.profile.plan.confidence.to_string(),
                format!("{:.6}", run.profile.simulated_fraction()),
                run.profile.stop.tag().to_string(),
            ];
            writeln!(out, "{}", row.join(","))?;
        }
    }
    Ok(())
}

/// Writes the per-interval sampling CSV to `path`, creating missing
/// parent directories first.
///
/// # Errors
///
/// Returns [`SimError::Io`] naming `path` and the failing operation.
pub fn write_sampling_csv(path: &Path, cells: &[SampledCell<'_>]) -> Result<(), SimError> {
    create_parent_dirs(path)?;
    let file =
        std::fs::File::create(path).map_err(|e| SimError::io("create sampling CSV", path, e))?;
    let mut w = std::io::BufWriter::new(file);
    sampling_to_csv(cells, &mut w).map_err(|e| SimError::io("write sampling CSV", path, e))?;
    w.flush()
        .map_err(|e| SimError::io("flush sampling CSV", path, e))
}

/// One row of the sampled-vs-full validation report.
#[derive(Debug, Clone)]
pub struct ValidationRow {
    /// Spec label.
    pub config: String,
    /// Workload name.
    pub workload: String,
    /// Aggregate IPC of the full (unsampled) run:
    /// `total instructions / final cycle window`.
    pub full_ipc: f64,
    /// The sampled estimator's mean per-interval IPC.
    pub sampled_ipc: f64,
    /// The sampled estimator's confidence interval, when ≥ 2 intervals
    /// closed.
    pub ipc_ci: Option<ziv_common::stats::ConfidenceInterval>,
    /// Full-run wall clock, milliseconds. 0 when the full result came
    /// from the ledger cache and was never timed this run.
    pub full_ms: f64,
    /// Sampled-run wall clock, milliseconds.
    pub sampled_ms: f64,
}

impl ValidationRow {
    /// Absolute IPC estimation error.
    pub fn abs_error(&self) -> f64 {
        (self.sampled_ipc - self.full_ipc).abs()
    }

    /// Relative IPC estimation error (0 when the full IPC is 0).
    pub fn rel_error(&self) -> f64 {
        if self.full_ipc == 0.0 {
            0.0
        } else {
            self.abs_error() / self.full_ipc
        }
    }

    /// Whether the full-run IPC lies inside the sampled estimate's
    /// confidence interval. `false` when no interval was reported.
    pub fn within_ci(&self) -> bool {
        self.ipc_ci
            .as_ref()
            .is_some_and(|ci| ci.low() <= self.full_ipc && self.full_ipc <= ci.high())
    }

    /// Wall-clock speedup of the sampled run over the full run (0 when
    /// either side was not timed).
    pub fn speedup(&self) -> f64 {
        if self.full_ms <= 0.0 || self.sampled_ms <= 0.0 {
            0.0
        } else {
            self.full_ms / self.sampled_ms
        }
    }
}

/// The columns exported by [`validation_to_csv`].
pub const VALIDATION_COLUMNS: [&str; 12] = [
    "config",
    "workload",
    "full_ipc",
    "sampled_ipc",
    "abs_error",
    "rel_error",
    "ci_low",
    "ci_high",
    "within_ci",
    "full_ms",
    "sampled_ms",
    "speedup",
];

/// Writes the sampled-vs-full validation report: one row per cell
/// comparing the sampled IPC estimate (and its confidence interval)
/// against the full run's aggregate IPC, plus wall-clock timings for
/// the speedup gate.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn validation_to_csv<W: Write>(rows: &[ValidationRow], mut out: W) -> std::io::Result<()> {
    writeln!(out, "{}", VALIDATION_COLUMNS.join(","))?;
    for r in rows {
        let (lo, hi) = match &r.ipc_ci {
            Some(ci) => (format!("{:.6}", ci.low()), format!("{:.6}", ci.high())),
            None => (String::new(), String::new()),
        };
        let row = vec![
            esc(&r.config),
            esc(&r.workload),
            format!("{:.6}", r.full_ipc),
            format!("{:.6}", r.sampled_ipc),
            format!("{:.6}", r.abs_error()),
            format!("{:.6}", r.rel_error()),
            lo,
            hi,
            if r.within_ci() { "1" } else { "0" }.to_string(),
            format!("{:.3}", r.full_ms),
            format!("{:.3}", r.sampled_ms),
            format!("{:.3}", r.speedup()),
        ];
        writeln!(out, "{}", row.join(","))?;
    }
    Ok(())
}

/// Writes the validation CSV to `path`, creating missing parent
/// directories first.
///
/// # Errors
///
/// Returns [`SimError::Io`] naming `path` and the failing operation.
pub fn write_validation_csv(path: &Path, rows: &[ValidationRow]) -> Result<(), SimError> {
    create_parent_dirs(path)?;
    let file =
        std::fs::File::create(path).map_err(|e| SimError::io("create validation CSV", path, e))?;
    let mut w = std::io::BufWriter::new(file);
    validation_to_csv(rows, &mut w).map_err(|e| SimError::io("write validation CSV", path, e))?;
    w.flush()
        .map_err(|e| SimError::io("flush validation CSV", path, e))
}

/// Writes the summary CSV to `path`, with the file path attached to any
/// failure as a [`SimError::Io`].
///
/// # Errors
///
/// Returns [`SimError::Io`] naming `path` and the failing operation.
pub fn write_summary_csv(
    path: &Path,
    rows: &NormalizedRows,
    value_name: &str,
) -> Result<(), SimError> {
    let file =
        std::fs::File::create(path).map_err(|e| SimError::io("create summary CSV", path, e))?;
    let mut w = std::io::BufWriter::new(file);
    summary_to_csv(rows, value_name, &mut w)
        .map_err(|e| SimError::io("write summary CSV", path, e))?;
    w.flush()
        .map_err(|e| SimError::io("flush summary CSV", path, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{run_grid, RunSpec};
    use ziv_common::config::SystemConfig;
    use ziv_workloads::{apps, mixes, ScaleParams};

    fn small_grid() -> Vec<GridResult> {
        let sys = SystemConfig::scaled();
        let wl = mixes::homogeneous(apps::APPS[4], 2, 500, 1, ScaleParams::from_system(&sys));
        run_grid(
            &[
                RunSpec::new("I-LRU", sys.clone()),
                RunSpec::new("with,comma", sys),
            ],
            &[wl],
            1,
        )
    }

    #[test]
    fn grid_csv_has_header_and_rows() {
        let grid = small_grid();
        let mut out = Vec::new();
        grid_to_csv(&grid, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].split(',').count(), GRID_COLUMNS.len());
        assert!(lines[1].starts_with("I-LRU,"));
    }

    #[test]
    fn fields_with_commas_are_quoted() {
        let grid = small_grid();
        let mut out = Vec::new();
        grid_to_csv(&grid, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"with,comma\""));
    }

    #[test]
    fn summary_csv_round_trips_values() {
        let grid = small_grid();
        let rows = crate::report::speedup_summary(&grid, 2, 0);
        let mut out = Vec::new();
        summary_to_csv(&rows, "speedup", &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("config,speedup,min,max,n"));
        assert!(
            text.contains("1.000000"),
            "baseline speedup is exactly 1: {text}"
        );
    }

    #[test]
    fn quote_escaping() {
        assert_eq!(esc("plain"), "plain");
        assert_eq!(esc("a,b"), "\"a,b\"");
        assert_eq!(esc("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    fn synthetic_observations() -> Observations {
        use ziv_core::observe::{EpochSample, Heatmap};
        let mut heatmap = Heatmap::new(2, 4);
        heatmap.accesses.add(0, 1, 5);
        heatmap.evictions.add(1, 3, 2);
        heatmap.relocations.add(1, 0, 1);
        Observations {
            epochs: vec![EpochSample {
                index: 0,
                start_access: 0,
                end_access: 10,
                global: vec![0; METRICS_COLUMNS.len()],
                per_core: vec![vec![1; CORE_METRICS_COLUMNS.len()]],
            }],
            events: Vec::new(),
            events_recorded: 0,
            heatmap: Some(heatmap),
            latency: None,
            leakage: None,
            forensics: None,
            profile: None,
            dir_slice_occupancy: Vec::new(),
        }
    }

    /// A 2-core recorder on a 2-bank × 4-set LLC, fed `events`.
    fn record(
        observe: ziv_core::ObserveConfig,
        events: &[ziv_core::observe::HierarchyEvent],
    ) -> ziv_core::observe::Recording {
        let mut rec = ziv_core::FlightRecorder::new(&observe, 2, 2, 4).expect("recorder on");
        if observe.leakage {
            rec.attach_leakage(ziv_core::LeakageObservatory::new(2, 2, 4, &[0], &[1], &[1]));
        }
        for &ev in events {
            rec.observe(7, 70, ev);
        }
        rec.finish()
    }

    /// Core 0's fill tears `line` out of core 1.
    fn tear_out(line: u64) -> ziv_core::observe::HierarchyEvent {
        use ziv_common::{CoreId, LineAddr};
        ziv_core::observe::HierarchyEvent::TearOut(ziv_core::observe::TearOut {
            kind: ziv_core::ChainKind::Inclusive,
            line: LineAddr::new(line),
            loc: None,
            instigator: CoreId::new(0),
            reason: ziv_core::VictimReason::Baseline,
            victims: ziv_directory::SharerSet::single(CoreId::new(1)),
        })
    }

    #[test]
    fn leakage_csv_emits_one_row_per_reporting_cell() {
        use ziv_core::observe::HierarchyEvent;
        let leakage = ziv_core::ObserveConfig {
            leakage: true,
            ..ziv_core::ObserveConfig::disabled()
        };
        // Line 1 homes at (bank 1, set 0) — the probed set.
        let events = [tear_out(1), HierarchyEvent::SharpAlarm];
        let mut report = record(leakage, &events).leakage.unwrap();
        report.cycles = 1_000_000;
        let mut with_leak = synthetic_observations();
        with_leak.leakage = Some(report);
        let without = synthetic_observations();
        let cells = [
            ObservedCell {
                config: "I-LRU",
                workload: "attack-pp",
                observations: &with_leak,
            },
            ObservedCell {
                config: "ZIV",
                workload: "attack-pp",
                observations: &without,
            },
        ];
        let mut out = Vec::new();
        leakage_to_csv(&cells, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], LEAKAGE_COLUMNS.join(","));
        assert_eq!(lines.len(), 2, "cells without a report are skipped");
        assert!(lines[1].starts_with("I-LRU,attack-pp,1000000,1,1,0,1.000000,"));
        assert!(lines[1].contains(",1,1.000000,1"), "sharp alarm columns");
    }

    #[test]
    fn blame_csv_emits_full_matrix_including_zero_rows() {
        let forensics = ziv_core::ObserveConfig {
            forensics: true,
            ..ziv_core::ObserveConfig::disabled()
        };
        let mut with_forensics = synthetic_observations();
        with_forensics.forensics = record(forensics, &[tear_out(0x33)]).forensics;
        let without = synthetic_observations();
        let cells = [
            ObservedCell {
                config: "I-LRU",
                workload: "mix0",
                observations: &with_forensics,
            },
            ObservedCell {
                config: "ZIV",
                workload: "mix0",
                observations: &without,
            },
        ];
        let mut out = Vec::new();
        blame_to_csv(&cells, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], BLAME_COLUMNS.join(","));
        // 2×2 matrix ⇒ 4 rows, zeros included; the report-less cell is
        // skipped entirely.
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[1], "I-LRU,mix0,0,0,0,0,0");
        assert_eq!(lines[2], "I-LRU,mix0,0,1,1,0,0");
        assert_eq!(lines[3], "I-LRU,mix0,1,0,0,0,0");
        assert_eq!(lines[4], "I-LRU,mix0,1,1,0,0,0");
    }

    #[test]
    fn latency_csv_emits_per_core_and_all_rows() {
        use ziv_common::{CoreId, LineAddr};
        use ziv_core::latency::LatencyBreakdown;
        use ziv_core::observe::HierarchyEvent;
        let access = |core, class, breakdown| HierarchyEvent::Access {
            core: CoreId::new(core),
            line: LineAddr::new(0x40),
            class,
            breakdown,
        };
        let l1 = LatencyBreakdown {
            l1: 3,
            ..LatencyBreakdown::default()
        };
        let dram = LatencyBreakdown {
            noc: 8,
            dram: 120,
            ..LatencyBreakdown::default()
        };
        let events = [
            access(0, AccessClass::L1Hit, l1),
            access(1, AccessClass::LlcMissDram, dram),
        ];
        let latency = ziv_core::ObserveConfig {
            latency: true,
            ..ziv_core::ObserveConfig::disabled()
        };
        let mut obs = synthetic_observations();
        obs.latency = record(latency, &events).latency;
        let cells = [ObservedCell {
            config: "I-LRU",
            workload: "w",
            observations: &obs,
        }];
        let mut out = Vec::new();
        latency_to_csv(&cells, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], LATENCY_COLUMNS.join(","));
        // 2 nonzero per-core rows + one `all` row per class.
        assert_eq!(lines.len(), 1 + 2 + AccessClass::ALL.len());
        assert!(lines.contains(&"I-LRU,w,0,l1_hit,1,3,3,0,0,0,0,0,0,,,,"));
        let dram_all = lines
            .iter()
            .find(|l| l.starts_with("I-LRU,w,all,llc_miss_dram,"))
            .expect("all-row present");
        assert!(dram_all.contains(",1,128,0,0,0,0,0,8,120,"));
        // Percentiles are filled on `all` rows with traffic...
        assert!(!dram_all.ends_with(",,,,"));
        // ...and empty on classes that saw none.
        assert!(lines.iter().any(
            |l| l.starts_with("I-LRU,w,all,inclusion_victim_refetch,0,0,") && l.ends_with(",,,,")
        ));
    }

    #[test]
    fn timeseries_csv_has_full_column_set() {
        let obs = synthetic_observations();
        let cells = [ObservedCell {
            config: "I-LRU",
            workload: "w",
            observations: &obs,
        }];
        let mut out = Vec::new();
        timeseries_to_csv(&cells, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let expected = 5 + METRICS_COLUMNS.len() + CORE_METRICS_COLUMNS.len() + 1;
        assert_eq!(lines[0].split(',').count(), expected);
        assert_eq!(lines[1].split(',').count(), expected);
        assert!(lines[0].ends_with("c0_ipc"));
        assert!(lines[1].starts_with("I-LRU,w,0,0,10,"));
    }

    #[test]
    fn heatmap_csv_grids_by_counter_and_bank() {
        let obs = synthetic_observations();
        let cells = [ObservedCell {
            config: "Z",
            workload: "w",
            observations: &obs,
        }];
        let mut out = Vec::new();
        heatmap_to_csv(&cells, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // Header + 3 counters × 2 banks.
        assert_eq!(lines.len(), 1 + 3 * 2);
        assert_eq!(
            lines[0],
            "config,workload,counter,bank,set_0,set_1,set_2,set_3"
        );
        assert!(lines.contains(&"Z,w,accesses,0,0,5,0,0"));
        assert!(lines.contains(&"Z,w,evictions,1,0,0,0,2"));
        assert!(lines.contains(&"Z,w,relocations,1,1,0,0,0"));
    }
}
