//! The campaign runner. [`run_campaign`] takes three steps: **plan**
//! (recover the ledger and partition the grid into cached and missing
//! cells), **execute** (the missing cells through the supervised pool,
//! each settled cell appended to the ledger, a repro record for each
//! failure) and **export** (`grid.csv`, `summary.csv` and the
//! observers' exports). [`run_campaign_sampled`] reuses the execute
//! step for its sampled cells, with no ledger, then writes
//! `sampling.csv`.

use crate::bus::{BusOptions, CampaignBus};
use crate::campaign::{Campaign, CampaignParams, CellDigest};
use crate::failure::FailureRecord;
use crate::ledger::{Ledger, LedgerRecovery, LedgerWriter};
use crate::supervise::{run_cells_supervised, SuperviseConfig, SuperviseObserver};
use crate::telemetry::{CellTiming, ProgressSink, Telemetry};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use ziv_common::fsutil::write_file;
use ziv_common::json::JsonValue;
use ziv_common::SimError;
use ziv_core::{AuditCadence, CancelToken};
use ziv_sim::{
    blame_to_csv, grid_to_csv, heatmap_to_csv, latency_to_csv, leakage_to_csv, perfetto_to_json,
    run_one_instrumented, run_one_sampled_instrumented, sampling_to_csv, speedup_summary,
    summary_to_csv, timeseries_to_csv, validation_to_csv, CellBudget, EventFilter,
    EventTraceConfig, GridResult, Observations, ObserveConfig, ObservedCell, ProfileReport,
    RunOptions, RunResult, RunSpec, SampledCell, SampledRun, SamplingPlan, TelemetryProbe,
    TraceEvent, ValidationRow,
};
use ziv_workloads::Workload;

/// How to run a campaign.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Directory receiving `ledger.jsonl`, `grid.csv`, `summary.csv`,
    /// and `failures/` repro records.
    pub results_dir: PathBuf,
    /// Worker threads for the missing cells.
    pub threads: usize,
    /// Reuse an existing ledger (`--resume`). When `false` any
    /// existing ledger is discarded and every cell recomputes.
    pub resume: bool,
    /// How often the invariant auditor walks the hierarchy during each
    /// cell (`--audit`). `Off` costs nothing measurable.
    pub audit: AuditCadence,
    /// Fail fast (`--strict`): stop claiming new cells after the first
    /// failure. Cells already in flight still settle.
    pub strict: bool,
    /// Explicit per-core cycle budget (`--cell-budget`); `None` uses a
    /// generous budget derived from each workload's size.
    pub cell_budget: Option<u64>,
    /// Campaign parameters for failure-repro records. When set, each
    /// failing cell dumps a replayable record to
    /// `<results-dir>/failures/<digest>.json`; when `None` (a
    /// hand-built campaign not reproducible from params), only the
    /// ledger error entry is written.
    pub params: Option<CampaignParams>,
    /// What the flight recorder captures while cells execute
    /// (`--epoch` / `--events` / `--heatmap`). Disabled by default;
    /// never digested, so it cannot perturb the ledger or the cached
    /// cell results.
    pub observe: ObserveConfig,
    /// Wall-clock budget per cell (`--cell-timeout`). When set, a
    /// watchdog thread cancels any cell that exceeds it; the cell is
    /// ledgered as a `timeout` failure. `None` disables the wall clock.
    /// When neither this nor `stall_window` is set, cells run without a
    /// cancellation token — the zero-cost path.
    pub cell_timeout: Option<Duration>,
    /// No-forward-progress budget per cell (`--stall-window`):
    /// a cell whose access counter stops advancing for this long is
    /// cancelled and ledgered as a `timeout` failure. Catches wedged
    /// cells in milliseconds where the wall clock must stay generous
    /// for legitimately slow cells.
    pub stall_window: Option<Duration>,
    /// Publish the live telemetry segment (`--telemetry on`):
    /// `<results-dir>/telemetry.shm`, the seqlock shared-memory bus
    /// that `zivsim watch` tails. Pure observability — never digested,
    /// and zero-cost when off (no thread, no mmap, no extra work on
    /// the simulation hot path).
    pub telemetry: bool,
    /// Emit one structured JSONL heartbeat line per ticker tick to
    /// stderr (`--progress jsonl`) for CI log scraping. Independent of
    /// `telemetry`; same zero-cost-when-off guarantee.
    pub progress_jsonl: bool,
    /// Export `<results-dir>/trace.json`, the Chrome trace-event /
    /// Perfetto rendering of the executed cells' observability payload
    /// (`--perfetto`). Ring events honor the `--events` filter; causal
    /// chains appear as flow events when `observe.forensics` is on.
    pub perfetto: bool,
}

impl RunnerConfig {
    /// A config with conservative defaults: single-threaded, no resume,
    /// auditing off, watchdog on its derived budget, not strict, no
    /// repro records.
    pub fn new(results_dir: impl Into<PathBuf>) -> Self {
        RunnerConfig {
            results_dir: results_dir.into(),
            threads: 1,
            resume: false,
            audit: AuditCadence::Off,
            strict: false,
            cell_budget: None,
            params: None,
            observe: ObserveConfig::disabled(),
            cell_timeout: None,
            stall_window: None,
            telemetry: false,
            progress_jsonl: false,
            perfetto: false,
        }
    }
}

/// One failed cell of a campaign run.
#[derive(Debug)]
pub struct CellFailure {
    /// Index of the cell's spec in the campaign.
    pub spec_index: usize,
    /// Index of the cell's recipe in the campaign.
    pub workload_index: usize,
    /// The cell's content digest.
    pub digest: CellDigest,
    /// Spec label.
    pub label: String,
    /// Workload name.
    pub workload: String,
    /// The typed error that felled the cell.
    pub error: SimError,
    /// Path of the replayable repro record, when one was written.
    pub record_path: Option<PathBuf>,
}

/// What a campaign run produced.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// The full grid, cached + fresh, sorted by `(spec, workload)`.
    /// Failed cells are absent.
    pub grid: Vec<GridResult>,
    /// Cells that failed this run (empty on a clean campaign).
    pub failures: Vec<CellFailure>,
    /// Execution summary.
    pub telemetry: Telemetry,
    /// Path of the per-cell CSV.
    pub grid_csv: PathBuf,
    /// Path of the per-config speedup summary CSV.
    pub summary_csv: PathBuf,
    /// Path of the result ledger.
    pub ledger_path: PathBuf,
    /// What loading the ledger found and repaired (all-zero for a
    /// clean or absent ledger). A resume after a mid-append kill shows
    /// up here as `torn_tail`.
    pub recovery: crate::ledger::LedgerRecovery,
    /// Path of the per-epoch time-series CSV, written when epoch
    /// slicing was on. Covers only the cells executed *this* run —
    /// cached cells are not re-simulated, so they contribute no epochs.
    pub timeseries_csv: Option<PathBuf>,
    /// Path of the occupancy-heatmap CSV, written when heatmaps were
    /// on. Same executed-cells-only caveat as the time series.
    pub heatmap_csv: Option<PathBuf>,
    /// Path of the latency-attribution CSV, written when the latency
    /// observatory was on (`--latency`). Same caveat.
    pub latency_csv: Option<PathBuf>,
    /// Path of the leakage summary CSV, written when the leakage
    /// observatory was on (`--leakage` / the `attack-eval` campaign).
    /// Same executed-cells-only caveat; cells whose workloads carry no
    /// attack plan contribute no rows.
    pub leakage_csv: Option<PathBuf>,
    /// Path of the self-profiler report, written when profiling was on
    /// (`--profile`). Wall-clock data: nondeterministic by nature, like
    /// the BENCH files, and never part of the ledgered results.
    pub profile_json: Option<PathBuf>,
    /// Path of the blame-matrix CSV, written when the forensics
    /// observatory was on (`--forensics` / `--perfetto`). Same
    /// executed-cells-only caveat as the time series.
    pub blame_csv: Option<PathBuf>,
    /// Path of the Perfetto / Chrome trace-event export, written when
    /// `--perfetto` was requested. Observability only — never digested.
    pub trace_json: Option<PathBuf>,
}

/// Forwards supervised-pool completions into the ledger (when the pass
/// has one), the progress sink and the live bus. Ledger I/O errors are
/// latched (observers cannot propagate) and re-raised after the grid
/// finishes.
struct CampaignObserver<'a> {
    campaign: &'a Campaign,
    cfg: &'a RunnerConfig,
    writer: Option<&'a LedgerWriter>,
    sink: &'a dyn ProgressSink,
    bus: Option<&'a CampaignBus>,
    done: AtomicUsize,
    failed: AtomicUsize,
    timings: Mutex<Vec<CellTiming>>,
    io_error: Mutex<Option<SimError>>,
}

impl CampaignObserver<'_> {
    fn latch(&self, context: &str, e: std::io::Error) {
        let e = SimError::io(context, self.cfg.results_dir.join("ledger.jsonl"), e);
        self.io_error.lock().unwrap().get_or_insert(e);
    }
}

impl<T: AsRef<RunResult>> SuperviseObserver<T> for CampaignObserver<'_> {
    fn cell_started(&self, _spec_index: usize, _workload_index: usize) {
        if let Some(bus) = self.bus {
            bus.cell_started();
        }
    }

    fn cell_finished(&self, spec_index: usize, workload_index: usize, result: &T, wall: Duration) {
        let result = result.as_ref();
        if let Some(writer) = self.writer {
            let digest = self.campaign.cell_digest(spec_index, workload_index);
            if let Err(e) = writer.append(digest, result) {
                self.latch("append ledger entry", e);
            }
        }
        let timing = CellTiming {
            spec_index,
            workload_index,
            label: result.label.clone(),
            workload: result.workload.clone(),
            wall,
        };
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        self.sink
            .cell_finished(&timing, done, self.campaign.total_cells());
        self.timings.lock().unwrap().push(timing);
        if let Some(bus) = self.bus {
            bus.cell_finished();
        }
    }

    fn cell_failed(
        &self,
        spec_index: usize,
        workload_index: usize,
        error: &SimError,
        _wall: Duration,
    ) {
        self.failed.fetch_add(1, Ordering::Relaxed);
        let label = &self.campaign.specs[spec_index].label;
        let workload = self.campaign.recipes[workload_index].workload_name();
        if let Some(writer) = self.writer {
            let digest = self.campaign.cell_digest(spec_index, workload_index);
            if let Err(e) = writer.append_error(digest, label, &workload, error) {
                self.latch("append ledger error entry", e);
            }
        }
        // Repro records are written after the grid settles (the runner
        // attaches flight-recorder events, which may need a re-run);
        // the streaming ledger error entry above survives a crash.
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        self.sink
            .cell_failed(label, &workload, error, done, self.campaign.total_cells());
        if let Some(bus) = self.bus {
            bus.cell_failed();
        }
    }

    fn should_abort(&self) -> bool {
        self.cfg.strict && self.failed.load(Ordering::Relaxed) > 0
    }
}

/// Runs `campaign` end-to-end: loads (or resets) the ledger under
/// `cfg.results_dir`, simulates only the cells the ledger does not
/// already hold, appends each as it completes, and writes `grid.csv`
/// plus `summary.csv` over the assembled grid. When `cfg.observe`
/// enables the flight recorder, `timeseries.csv` / `heatmap.csv` are
/// written beside them covering the cells executed this run.
///
/// The exported CSVs are byte-identical whether the campaign ran in a
/// single pass or was interrupted and resumed any number of times, at
/// any thread count: cell results are deterministic, cached cells
/// round-trip their `u64` counters exactly, and the grid is assembled
/// in `(spec, workload)` order with the campaign's current labels.
///
/// **Fault isolation**: a cell that fails its invariant audit or trips
/// the watchdog does not take the campaign down. It is recorded as an
/// error entry in the ledger (so `--resume` re-runs exactly that cell),
/// dumped as a replayable repro record when `cfg.params` is set, and
/// reported in [`CampaignOutcome::failures`]; the remaining cells still
/// run — unless `cfg.strict`, which stops claiming new cells after the
/// first failure.
///
/// # Errors
///
/// Returns [`SimError::Io`] for results-directory, ledger, or CSV I/O
/// failures. Cell failures are **not** errors here; they come back in
/// the outcome.
pub fn run_campaign(
    campaign: &Campaign,
    cfg: &RunnerConfig,
    sink: &dyn ProgressSink,
) -> Result<CampaignOutcome, SimError> {
    let (ledger_path, recovery, mut grid, missing) = plan(campaign, cfg, sink)?;
    let cached = grid.len();
    let pass = execute(
        campaign,
        cfg,
        sink,
        &missing,
        cached,
        Some(&ledger_path),
        run_one_instrumented,
    )?;
    grid.extend(pass.done.into_iter().map(|(s, w, result)| GridResult {
        spec_index: s,
        workload_index: w,
        result,
    }));
    grid.sort_by_key(|g| (g.spec_index, g.workload_index));
    let mut outcome = CampaignOutcome {
        grid,
        failures: pass.failures,
        telemetry: pass.telemetry,
        grid_csv: cfg.results_dir.join("grid.csv"),
        summary_csv: cfg.results_dir.join("summary.csv"),
        ledger_path,
        recovery,
        timeseries_csv: None,
        heatmap_csv: None,
        latency_csv: None,
        leakage_csv: None,
        profile_json: None,
        blame_csv: None,
        trace_json: None,
    };
    export(campaign, cfg, pass.observed, &mut outcome)?;
    finish(pass.bus, &outcome.telemetry, sink);
    Ok(outcome)
}

/// The plan step's partition of a campaign: the ledger's path, what
/// loading it repaired, the cached cells, and the cells to simulate.
type Plan = (
    PathBuf,
    LedgerRecovery,
    Vec<GridResult>,
    Vec<(usize, usize)>,
);

/// The plan step: loads (or resets) the ledger and partitions the grid
/// against it. Cached cells take the campaign's *current* label and
/// workload name (the digest ignores labels, so a relabel must not leak
/// stale names into the CSVs). Cells whose latest ledger line is an
/// error entry run again.
fn plan(
    campaign: &Campaign,
    cfg: &RunnerConfig,
    sink: &dyn ProgressSink,
) -> Result<Plan, SimError> {
    std::fs::create_dir_all(&cfg.results_dir)
        .map_err(|e| SimError::io("create results dir", &cfg.results_dir, e))?;
    let ledger_path = cfg.results_dir.join("ledger.jsonl");
    if !cfg.resume && ledger_path.exists() {
        std::fs::remove_file(&ledger_path)
            .map_err(|e| SimError::io("reset ledger", &ledger_path, e))?;
    }
    let (ledger, recovery) = Ledger::recover(&ledger_path)?;
    if recovery.was_damaged() {
        sink.warning(&format!(
            "recovered damaged ledger {}{}: dropped {} unparseable line(s) ({} bytes); \
             cells without an intact entry will re-run",
            ledger_path.display(),
            if recovery.torn_tail {
                " (torn tail: interrupted mid-append)"
            } else {
                ""
            },
            recovery.dropped_lines,
            recovery.dropped_bytes,
        ));
    }
    let mut grid = Vec::with_capacity(campaign.total_cells());
    let mut missing = Vec::new();
    for (s, w) in campaign.cells() {
        match ledger.get(campaign.cell_digest(s, w)) {
            Some(cached) => {
                let mut result = cached.clone();
                result.label = campaign.specs[s].label.clone();
                result.workload = campaign.recipes[w].workload_name();
                grid.push(GridResult {
                    spec_index: s,
                    workload_index: w,
                    result,
                });
            }
            None => missing.push((s, w)),
        }
    }
    Ok((ledger_path, recovery, grid, missing))
}

/// What one pass of cells through the pool produced.
struct Pass<T> {
    /// The live bus, to finish once every artifact is on disk.
    bus: Option<CampaignBus>,
    telemetry: Telemetry,
    /// Each successful cell as `(spec, workload, result)`, sorted.
    done: Vec<(usize, usize, T)>,
    /// Failed cells, sorted.
    failures: Vec<CellFailure>,
    /// Non-empty observation payloads, sorted.
    observed: Vec<(usize, usize, Box<Observations>)>,
}

/// The execute step: runs `cells` through the pool under `cfg`'s
/// threads, watchdog and strictness, each cell one call of `run`,
/// reporting to `sink` and the live bus. With a `ledger`, every
/// settled cell is appended to it and each failure gets a repro record
/// when `cfg.params` is set; without one, the pass writes neither.
/// `cached` counts the campaign's cells already done.
fn execute<T: AsRef<RunResult> + Send>(
    campaign: &Campaign,
    cfg: &RunnerConfig,
    sink: &dyn ProgressSink,
    cells: &[(usize, usize)],
    cached: usize,
    ledger: Option<&Path>,
    run: impl Fn(
            &RunSpec,
            &Workload,
            &RunOptions,
            Option<&CancelToken>,
            Option<&dyn TelemetryProbe>,
        ) -> (Result<T, SimError>, Option<Box<Observations>>)
        + Sync,
) -> Result<Pass<T>, SimError> {
    sink.campaign_started(&campaign.name, campaign.total_cells(), cached);
    let workers = cfg.threads.max(1).min(cells.len().max(1));
    // The live bus starts even when every cell is cached, so a watcher
    // attached to an instant resume still sees a finished segment
    // instead of nothing.
    let bus = CampaignBus::start(
        &cfg.results_dir,
        workers,
        campaign.total_cells(),
        cached,
        &BusOptions {
            telemetry: cfg.telemetry,
            progress_jsonl: cfg.progress_jsonl,
            ..BusOptions::default()
        },
    )?;
    let started = Instant::now();
    let mut done = Vec::new();
    let mut failures = Vec::new();
    let mut observed = Vec::new();
    let mut timings = Vec::new();
    if !cells.is_empty() {
        // Workloads are only regenerated when something runs.
        let workloads: Vec<Workload> = campaign.recipes.iter().map(|r| r.build()).collect();
        let budget = match cfg.cell_budget {
            Some(cycles) => CellBudget::Cycles(cycles),
            None => CellBudget::Derived,
        };
        let opts = RunOptions {
            audit: cfg.audit,
            budget: Some(budget),
            observe: cfg.observe,
        };
        let writer = match ledger {
            Some(path) => Some(
                LedgerWriter::append_to(path)
                    .map_err(|e| SimError::io("open ledger for append", path, e))?,
            ),
            None => None,
        };
        let observer = CampaignObserver {
            campaign,
            cfg,
            writer: writer.as_ref(),
            sink,
            bus: bus.as_ref(),
            done: AtomicUsize::new(cached),
            failed: AtomicUsize::new(0),
            timings: Mutex::new(Vec::with_capacity(cells.len())),
            io_error: Mutex::new(None),
        };
        let sup = SuperviseConfig {
            cell_timeout: cfg.cell_timeout,
            stall_window: cfg.stall_window,
        };
        let probes = bus.as_ref().and_then(|b| b.worker_probes());
        let runs = run_cells_supervised(
            &campaign.specs,
            &workloads,
            cells,
            cfg.threads,
            |spec, workload, cancel, probe| run(spec, workload, &opts, cancel, probe),
            &sup,
            &observer,
            probes.as_deref(),
        );
        if let Some(e) = observer.io_error.into_inner().unwrap() {
            return Err(e);
        }
        timings = observer.timings.into_inner().unwrap();
        for run in runs {
            let (s, w) = (run.spec_index, run.workload_index);
            match run.outcome {
                Ok(result) => done.push((s, w, result)),
                Err(error) => {
                    let record_path = match (ledger, cfg.params) {
                        (Some(_), Some(params)) => {
                            let spec = &campaign.specs[s];
                            let record = FailureRecord {
                                campaign: campaign.name.clone(),
                                params,
                                spec_index: s,
                                workload_index: w,
                                digest: campaign.cell_digest(s, w),
                                label: spec.label.clone(),
                                workload: campaign.recipes[w].workload_name(),
                                audit: cfg.audit.label(),
                                budget_cycles: budget.cycles_for(&workloads[w]),
                                error_kind: error.kind_tag().to_string(),
                                error_message: error.to_string(),
                                violation: error
                                    .violation()
                                    .map(|v| (v.kind.as_str().to_string(), v.access_index)),
                                fault: spec
                                    .fault
                                    .map(|f| (f.kind_str().to_string(), f.at_access())),
                                events: failure_events(
                                    run.observations.as_deref(),
                                    spec,
                                    &workloads[w],
                                    &opts,
                                    &error,
                                ),
                            };
                            Some(record.save(&cfg.results_dir.join("failures"))?)
                        }
                        _ => None,
                    };
                    failures.push(CellFailure {
                        spec_index: s,
                        workload_index: w,
                        digest: campaign.cell_digest(s, w),
                        label: campaign.specs[s].label.clone(),
                        workload: campaign.recipes[w].workload_name(),
                        error,
                        record_path,
                    });
                }
            }
            if let Some(obs) = run.observations.filter(|o| !o.is_empty()) {
                observed.push((s, w, obs));
            }
        }
    }
    timings.sort_by_key(|t| (t.spec_index, t.workload_index));
    let telemetry = Telemetry {
        campaign: campaign.name.clone(),
        total_cells: campaign.total_cells(),
        cached_cells: cached,
        executed_cells: done.len(),
        failed_cells: failures.len(),
        workers: if cells.is_empty() { 0 } else { workers },
        wall: started.elapsed(),
        busy: timings.iter().map(|t| t.wall).sum(),
        cells: timings,
    };
    if telemetry.is_overcommitted() {
        sink.warning(&format!(
            "per-cell timers sum to {:.2}s busy but the pool had only {:.2}s × {} workers \
             of wall capacity; utilization clamped to 100% (timer skew?)",
            telemetry.busy.as_secs_f64(),
            telemetry.wall.as_secs_f64(),
            telemetry.workers,
        ));
    }
    Ok(Pass {
        bus,
        telemetry,
        done,
        failures,
        observed,
    })
}

/// The export step: writes `grid.csv` and `summary.csv` over the
/// outcome's grid and, for each capture `cfg.observe` enabled, its
/// export over the `observed` cells, recording the paths in `outcome`.
/// The observer exports are written even header-only when every cell
/// came from the ledger, so downstream tooling can rely on the file
/// existing.
fn export(
    campaign: &Campaign,
    cfg: &RunnerConfig,
    observed: Vec<(usize, usize, Box<Observations>)>,
    outcome: &mut CampaignOutcome,
) -> Result<(), SimError> {
    write_file(&outcome.grid_csv, "grid CSV", |w| {
        grid_to_csv(&outcome.grid, w)
    })?;
    let rows = speedup_summary(&outcome.grid, campaign.specs.len(), campaign.baseline_spec);
    write_file(&outcome.summary_csv, "summary CSV", |w| {
        summary_to_csv(&rows, "weighted_speedup", w)
    })?;
    let observe = cfg.observe;
    if !observe.is_enabled() {
        return Ok(());
    }
    let names: Vec<(String, String)> = observed
        .iter()
        .map(|(s, w, _)| {
            (
                campaign.specs[*s].label.clone(),
                campaign.recipes[*w].workload_name(),
            )
        })
        .collect();
    let cells: Vec<ObservedCell<'_>> = observed
        .iter()
        .zip(&names)
        .map(|((_, _, obs), (label, workload))| ObservedCell {
            config: label,
            workload,
            observations: obs,
        })
        .collect();
    let cells = &cells[..];
    let write = |on: bool, name: &str, what: &str, f: &dyn Fn(&mut dyn Write) -> io::Result<()>| {
        let path = cfg.results_dir.join(name);
        on.then(|| write_file(&path, what, f).map(|()| path))
            .transpose()
    };
    outcome.timeseries_csv = write(
        observe.epoch.is_some(),
        "timeseries.csv",
        "timeseries CSV",
        &|w| timeseries_to_csv(cells, w),
    )?;
    outcome.heatmap_csv = write(observe.heatmap, "heatmap.csv", "heatmap CSV", &|w| {
        heatmap_to_csv(cells, w)
    })?;
    outcome.latency_csv = write(observe.latency, "latency.csv", "latency CSV", &|w| {
        latency_to_csv(cells, w)
    })?;
    outcome.leakage_csv = write(observe.leakage, "leakage.csv", "leakage CSV", &|w| {
        leakage_to_csv(cells, w)
    })?;
    outcome.profile_json = write(observe.profile, "profile.json", "profile report", &|w| {
        writeln!(w, "{}", profile_json(cells))
    })?;
    outcome.blame_csv = write(observe.forensics, "blame.csv", "blame CSV", &|w| {
        blame_to_csv(cells, w)
    })?;
    let filter = observe
        .events
        .map(|e| e.filter)
        .unwrap_or_else(EventFilter::all);
    outcome.trace_json = write(cfg.perfetto, "trace.json", "perfetto trace", &|w| {
        writeln!(w, "{}", perfetto_to_json(cells, filter))
    })?;
    Ok(())
}

/// Publishes the pass's final state and summary. Call after every
/// artifact is on disk, so a watcher exiting on the finished flag can
/// trust them.
fn finish(bus: Option<CampaignBus>, telemetry: &Telemetry, sink: &dyn ProgressSink) {
    if let Some(bus) = bus {
        bus.finish();
    }
    sink.campaign_finished(telemetry);
}

/// One cell of a sampled campaign pass.
#[derive(Debug)]
pub struct SampledCellResult {
    /// Index of the cell's spec in the campaign.
    pub spec_index: usize,
    /// Index of the cell's recipe in the campaign.
    pub workload_index: usize,
    /// Spec label.
    pub label: String,
    /// Workload name.
    pub workload: String,
    /// The sampled run: per-interval estimates, aggregate CI, coverage.
    pub sampled: SampledRun,
    /// Wall clock of the sampled run.
    pub wall: Duration,
}

/// The sampled-vs-full comparison of a validated sampled campaign.
#[derive(Debug)]
pub struct SampledValidation {
    /// The full (ledgered) campaign the sampled pass was checked
    /// against.
    pub full: CampaignOutcome,
    /// One comparison row per cell present in both passes.
    pub rows: Vec<ValidationRow>,
    /// Path of the exported `validation.csv`.
    pub validation_csv: PathBuf,
    /// Cells whose full-run IPC fell inside the sampled estimate's
    /// confidence interval.
    pub cells_within_ci: usize,
    /// Aggregate wall-clock speedup: Σ full ms / Σ sampled ms over the
    /// cells timed in both passes (0 when none were).
    pub speedup: f64,
}

/// What a sampled campaign pass produced.
#[derive(Debug)]
pub struct SampledCampaignOutcome {
    /// Successfully sampled cells, sorted by `(spec, workload)`.
    pub cells: Vec<SampledCellResult>,
    /// Cells whose sampled run failed.
    pub failures: Vec<CellFailure>,
    /// Path of the exported per-interval `sampling.csv`.
    pub sampling_csv: PathBuf,
    /// The sampled-vs-full comparison, when validation was requested.
    pub validation: Option<SampledValidation>,
}

/// Aggregate IPC of a full run: total instructions over the final
/// cycle window (the latest per-core clock) — the same window the
/// sampled per-interval estimator differences, so the two are
/// comparable.
fn aggregate_ipc(r: &RunResult) -> f64 {
    let window = r.cores.iter().map(|c| c.cycles).max().unwrap_or(0);
    if window == 0 {
        0.0
    } else {
        r.total_instructions() as f64 / window as f64
    }
}

/// Runs `campaign` through the statistical sampling engine: every cell
/// executes under `plan`'s interval-sampling schedule (timed windows +
/// functional-warmup fast-forward) and the per-interval estimates land
/// in `<results-dir>/sampling.csv`.
///
/// Sampled estimates are **never** written to the result ledger — the
/// content-addressed cache stores only full-fidelity results — so a
/// sampled pass cannot poison later full campaigns, and it writes no
/// repro records. Otherwise the sampled cells run like a full pass's:
/// through the pool under `cfg`'s threads, watchdog and strictness,
/// reporting to `sink` and the live bus. Observation is off for the
/// sampled pass.
///
/// With `validate` set, the full campaign runs first via
/// [`run_campaign`] — ledgered, supervised, and exporting its standard
/// artifacts exactly as an unsampled invocation would — and the
/// outcome gains a [`SampledValidation`] comparing sampled IPC
/// estimates (and their confidence intervals) against the full-run
/// values, exported as `<results-dir>/validation.csv`. Full-run wall
/// clocks come from the campaign's own per-cell timers, so cells
/// served from a pre-existing ledger carry no timing and are excluded
/// from the speedup aggregate.
///
/// # Errors
///
/// Returns [`SimError::Io`] for results-directory or CSV I/O failures,
/// and propagates [`run_campaign`] errors in validation mode. Sampled
/// cell failures are reported in the outcome, not raised.
pub fn run_campaign_sampled(
    campaign: &Campaign,
    cfg: &RunnerConfig,
    plan: SamplingPlan,
    validate: bool,
    sink: &dyn ProgressSink,
) -> Result<SampledCampaignOutcome, SimError> {
    std::fs::create_dir_all(&cfg.results_dir)
        .map_err(|e| SimError::io("create results dir", &cfg.results_dir, e))?;
    let full = if validate {
        Some(run_campaign(campaign, cfg, sink)?)
    } else {
        None
    };

    // A flight recording of sampled intervals would cover only part of
    // the trace, so the pass runs with observation off.
    let sampled_cfg = RunnerConfig {
        observe: ObserveConfig::disabled(),
        perfetto: false,
        ..cfg.clone()
    };
    let all = campaign.cells();
    let pass = execute(
        campaign,
        &sampled_cfg,
        sink,
        &all,
        0,
        None,
        |spec, workload, opts, cancel, probe| {
            let sampled =
                run_one_sampled_instrumented(spec, workload, opts, plan, cancel, probe, |_| false);
            (sampled, None)
        },
    )?;
    // Both lists are sorted by cell, and only successful cells are
    // timed, so they pair up one to one.
    let cells: Vec<SampledCellResult> = pass
        .done
        .into_iter()
        .zip(&pass.telemetry.cells)
        .map(|((s, w, sampled), timing)| SampledCellResult {
            spec_index: s,
            workload_index: w,
            label: campaign.specs[s].label.clone(),
            workload: campaign.recipes[w].workload_name(),
            sampled,
            wall: timing.wall,
        })
        .collect();
    let failures = pass.failures;

    let sampling_csv = cfg.results_dir.join("sampling.csv");
    let export: Vec<SampledCell<'_>> = cells
        .iter()
        .map(|c| SampledCell {
            config: &c.label,
            workload: &c.workload,
            sampled: &c.sampled,
        })
        .collect();
    write_file(&sampling_csv, "sampling CSV", |w| {
        sampling_to_csv(&export, w)
    })?;

    let validation = match full {
        None => None,
        Some(full) => {
            let mut timing = std::collections::BTreeMap::new();
            for t in &full.telemetry.cells {
                timing.insert((t.spec_index, t.workload_index), t.wall);
            }
            let mut rows = Vec::new();
            for cell in &cells {
                let Some(grid) = full.grid.iter().find(|g| {
                    (g.spec_index, g.workload_index) == (cell.spec_index, cell.workload_index)
                }) else {
                    continue; // the full run failed this cell
                };
                rows.push(ValidationRow {
                    config: cell.label.clone(),
                    workload: cell.workload.clone(),
                    full_ipc: aggregate_ipc(&grid.result),
                    sampled_ipc: cell.sampled.ipc_estimate().unwrap_or(0.0),
                    ipc_ci: cell.sampled.ipc_ci(),
                    full_ms: timing
                        .get(&(cell.spec_index, cell.workload_index))
                        .map_or(0.0, |d| d.as_secs_f64() * 1e3),
                    sampled_ms: cell.wall.as_secs_f64() * 1e3,
                });
            }
            let validation_csv = cfg.results_dir.join("validation.csv");
            write_file(&validation_csv, "validation CSV", |w| {
                validation_to_csv(&rows, w)
            })?;
            let (full_ms, sampled_ms) = rows
                .iter()
                .filter(|r| r.full_ms > 0.0 && r.sampled_ms > 0.0)
                .fold((0.0, 0.0), |(f, s), r| (f + r.full_ms, s + r.sampled_ms));
            Some(SampledValidation {
                cells_within_ci: rows.iter().filter(|r| r.within_ci()).count(),
                speedup: if sampled_ms > 0.0 {
                    full_ms / sampled_ms
                } else {
                    0.0
                },
                rows,
                validation_csv,
                full,
            })
        }
    };

    finish(pass.bus, &pass.telemetry, sink);
    Ok(SampledCampaignOutcome {
        cells,
        failures,
        sampling_csv,
        validation,
    })
}

/// The campaign's self-profiler report: one entry per executed cell
/// plus a `total` aggregate, each a per-section `{nanos, calls}` map.
/// Wall-clock data — the one intentionally nondeterministic artifact,
/// kept out of the ledger and the CSVs it feeds.
fn profile_json(cells: &[ObservedCell<'_>]) -> JsonValue {
    let mut total = ProfileReport::default();
    let mut cell_entries = Vec::new();
    for cell in cells {
        let Some(report) = cell.observations.profile.as_ref() else {
            continue;
        };
        total.merge(report);
        cell_entries.push(JsonValue::Obj(vec![
            ("config".into(), JsonValue::str(cell.config)),
            ("workload".into(), JsonValue::str(cell.workload)),
            ("sections".into(), report.to_json()),
        ]));
    }
    JsonValue::Obj(vec![
        ("cells".into(), JsonValue::Arr(cell_entries)),
        ("total".into(), total.to_json()),
    ])
}

/// Events to attach to a failure record: the failing run's own trailing
/// ring when event tracing was on, otherwise one deterministic re-run
/// of the cell with the tracer enabled (and everything else unchanged,
/// so it fails identically). The common untraced-success path pays
/// nothing for this — only failing cells are ever re-run, and only for
/// failure kinds that terminate on their own (audit violations, cycle
/// budgets). A timed-out or panicking cell is never re-run here: the
/// unsupervised re-trace would hang the runner or kill the worker.
fn failure_events(
    observations: Option<&Observations>,
    spec: &RunSpec,
    workload: &Workload,
    opts: &RunOptions,
    error: &SimError,
) -> Vec<TraceEvent> {
    if let Some(obs) = observations {
        if !obs.events.is_empty() {
            return obs.events.clone();
        }
    }
    if !matches!(error, SimError::Audit(_) | SimError::BudgetExceeded { .. }) {
        return Vec::new();
    }
    let mut retrace = *opts;
    retrace.observe = ObserveConfig {
        events: Some(EventTraceConfig::default()),
        ..ObserveConfig::disabled()
    };
    let (_, obs) = run_one_instrumented(spec, workload, &retrace, None, None);
    obs.map(|o| o.events).unwrap_or_default()
}
