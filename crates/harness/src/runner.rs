//! The campaign runner: cache partition → parallel execution →
//! ledger append → CSV export, with per-cell fault isolation.

use crate::bus::{BusOptions, CampaignBus};
use crate::campaign::{Campaign, CampaignParams, CellDigest};
use crate::failure::FailureRecord;
use crate::ledger::{Ledger, LedgerWriter};
use crate::supervise::{contain_panic, run_cells_supervised, SuperviseConfig, SuperviseObserver};
use crate::telemetry::{CellTiming, ProgressSink, Telemetry};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use ziv_common::json::JsonValue;
use ziv_common::{RetryPolicy, SimError};
use ziv_core::AuditCadence;
use ziv_sim::{
    run_one_instrumented, run_one_sampled_instrumented, speedup_summary, write_blame_csv,
    write_grid_csv, write_heatmap_csv, write_latency_csv, write_leakage_csv, write_perfetto_json,
    write_sampling_csv, write_summary_csv, write_timeseries_csv, write_validation_csv, CellBudget,
    EventFilter, EventTraceConfig, GridResult, Observations, ObserveConfig, ObservedCell,
    ProfileReport, RunOptions, RunResult, RunSpec, SampledCell, SampledRun, SamplingPlan,
    TelemetryProbe, TraceEvent, ValidationRow,
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
    /// Wall-clock budget per cell attempt (`--cell-timeout`). When set,
    /// a watchdog thread cancels any cell that exceeds it; the cell is
    /// ledgered as a `timeout` failure. `None` disables the wall clock.
    /// When neither this nor `stall_window` is set, cells run without a
    /// cancellation token — the zero-cost path.
    pub cell_timeout: Option<Duration>,
    /// No-forward-progress budget per cell attempt (`--stall-window`):
    /// a cell whose access counter stops advancing for this long is
    /// cancelled and ledgered as a `timeout` failure. Catches wedged
    /// cells in milliseconds where the wall clock must stay generous
    /// for legitimately slow cells.
    pub stall_window: Option<Duration>,
    /// Extra attempts for transiently failing cells (`--retries`).
    /// Only errors with [`SimError::is_transient`] are retried, under a
    /// deterministic backoff schedule seeded from the campaign seed.
    pub retries: u32,
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
            retries: 0,
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
    /// Attempts made before giving up (1 = no retries were taken).
    pub attempts: u32,
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

/// Forwards supervised-pool completions into the ledger and the
/// progress sink. Ledger I/O errors are latched (observers cannot
/// propagate) and re-raised after the grid finishes.
struct CampaignObserver<'a> {
    campaign: &'a Campaign,
    cfg: &'a RunnerConfig,
    digests: &'a [Vec<CellDigest>],
    writer: &'a LedgerWriter,
    sink: &'a dyn ProgressSink,
    bus: Option<&'a CampaignBus>,
    done: AtomicUsize,
    failed: AtomicUsize,
    total: usize,
    timings: Mutex<Vec<CellTiming>>,
    io_error: Mutex<Option<SimError>>,
}

impl CampaignObserver<'_> {
    fn latch(&self, e: SimError) {
        self.io_error.lock().unwrap().get_or_insert(e);
    }
}

impl SuperviseObserver for CampaignObserver<'_> {
    fn cell_started(&self, _spec_index: usize, _workload_index: usize) {
        if let Some(bus) = self.bus {
            bus.cell_started();
        }
    }

    fn cell_finished(
        &self,
        spec_index: usize,
        workload_index: usize,
        result: &RunResult,
        attempts: u32,
        wall: Duration,
    ) {
        if let Err(e) =
            self.writer
                .append_attempted(self.digests[spec_index][workload_index], result, attempts)
        {
            self.latch(SimError::io(
                "append ledger entry",
                self.cfg.results_dir.join("ledger.jsonl"),
                e,
            ));
        }
        let timing = CellTiming {
            spec_index,
            workload_index,
            label: result.label.clone(),
            workload: result.workload.clone(),
            wall,
        };
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        self.sink.cell_finished(&timing, done, self.total);
        self.timings.lock().unwrap().push(timing);
        if let Some(bus) = self.bus {
            bus.cell_finished(attempts);
        }
    }

    fn cell_failed(
        &self,
        spec_index: usize,
        workload_index: usize,
        error: &SimError,
        attempts: u32,
        _wall: Duration,
    ) {
        self.failed.fetch_add(1, Ordering::Relaxed);
        let digest = self.digests[spec_index][workload_index];
        let label = &self.campaign.specs[spec_index].label;
        let workload = self.campaign.recipes[workload_index].workload_name();
        if let Err(e) = self
            .writer
            .append_error(digest, label, &workload, error, attempts)
        {
            self.latch(SimError::io(
                "append ledger error entry",
                self.cfg.results_dir.join("ledger.jsonl"),
                e,
            ));
        }
        // Repro records are written after the grid settles (the runner
        // attaches flight-recorder events, which may need a re-run);
        // the streaming ledger error entry above survives a crash.
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        self.sink
            .cell_failed(label, &workload, error, done, self.total);
        if let Some(bus) = self.bus {
            bus.cell_failed(attempts);
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
/// error entry in the ledger (so `--resume` retries exactly that cell),
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

    // Partition the grid against the ledger. Cached results take the
    // campaign's *current* label and workload name (the digest ignores
    // labels, so a relabel must not leak stale names into the CSVs).
    // Cells whose latest ledger line is an error entry are retried.
    let digests: Vec<Vec<CellDigest>> = (0..campaign.specs.len())
        .map(|s| {
            (0..campaign.recipes.len())
                .map(|w| campaign.cell_digest(s, w))
                .collect()
        })
        .collect();
    let mut grid: Vec<GridResult> = Vec::with_capacity(campaign.total_cells());
    let mut missing: Vec<(usize, usize)> = Vec::new();
    for (s, w) in campaign.cells() {
        match ledger.get(digests[s][w]) {
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
    let cached_cells = grid.len();
    sink.campaign_started(&campaign.name, campaign.total_cells(), cached_cells);

    // Simulate the missing cells, appending each to the ledger as it
    // completes. Workloads are only regenerated when something runs.
    let workers = cfg.threads.max(1).min(missing.len().max(1));
    // The live bus starts even when every cell is cached, so a watcher
    // attached to an instant resume still sees a finished segment
    // instead of nothing.
    let bus = CampaignBus::start(
        &cfg.results_dir,
        workers,
        campaign.total_cells(),
        cached_cells,
        &BusOptions {
            telemetry: cfg.telemetry,
            progress_jsonl: cfg.progress_jsonl,
            ..BusOptions::default()
        },
    )?;
    let started = Instant::now();
    let mut timings = Vec::new();
    let mut failures: Vec<CellFailure> = Vec::new();
    let mut observed: Vec<(usize, usize, Box<Observations>)> = Vec::new();
    let mut executed_cells = 0;
    if !missing.is_empty() {
        let workloads: Vec<Workload> = campaign.recipes.iter().map(|r| r.build()).collect();
        let budget = match cfg.cell_budget {
            Some(cycles) => CellBudget::Cycles(cycles),
            None => CellBudget::Derived,
        };
        let budgets: Vec<u64> = workloads.iter().map(|w| budget.cycles_for(w)).collect();
        let opts = RunOptions {
            audit: cfg.audit,
            budget: Some(budget),
            observe: cfg.observe,
        };
        let writer = LedgerWriter::append_to(&ledger_path)
            .map_err(|e| SimError::io("open ledger for append", &ledger_path, e))?;
        let observer = CampaignObserver {
            campaign,
            cfg,
            digests: &digests,
            writer: &writer,
            sink,
            bus: bus.as_ref(),
            done: AtomicUsize::new(cached_cells),
            failed: AtomicUsize::new(0),
            total: campaign.total_cells(),
            timings: Mutex::new(Vec::with_capacity(missing.len())),
            io_error: Mutex::new(None),
        };
        let sup = SuperviseConfig {
            cell_timeout: cfg.cell_timeout,
            stall_window: cfg.stall_window,
            retry: RetryPolicy::with_retries(cfg.retries, cfg.params.map_or(0x2026, |p| p.seed)),
            poll: Duration::from_millis(5),
        };
        let probes = bus.as_ref().and_then(|b| b.worker_probes());
        let runs = run_cells_supervised(
            &campaign.specs,
            &workloads,
            &missing,
            cfg.threads,
            &opts,
            &sup,
            &observer,
            probes.as_deref(),
        );
        if let Some(e) = observer.io_error.into_inner().unwrap() {
            return Err(e);
        }
        timings = observer.timings.into_inner().unwrap();
        for run in runs {
            let mut observations = run.observations;
            match run.outcome {
                Ok(result) => {
                    executed_cells += 1;
                    grid.push(GridResult {
                        spec_index: run.spec_index,
                        workload_index: run.workload_index,
                        result,
                    });
                }
                Err(error) => {
                    let record_path = match cfg.params {
                        Some(params) => {
                            let spec = &campaign.specs[run.spec_index];
                            let events = failure_events(
                                observations.as_deref(),
                                spec,
                                &workloads[run.workload_index],
                                &opts,
                                &error,
                            );
                            let record = FailureRecord {
                                campaign: campaign.name.clone(),
                                params,
                                spec_index: run.spec_index,
                                workload_index: run.workload_index,
                                digest: digests[run.spec_index][run.workload_index],
                                label: spec.label.clone(),
                                workload: campaign.recipes[run.workload_index].workload_name(),
                                audit: cfg.audit.label(),
                                budget_cycles: budgets[run.workload_index],
                                error_kind: error.kind_tag().to_string(),
                                error_message: error.to_string(),
                                violation: error
                                    .violation()
                                    .map(|v| (v.kind.as_str().to_string(), v.access_index)),
                                fault: spec
                                    .fault
                                    .map(|f| (f.kind_str().to_string(), f.at_access())),
                                events,
                            };
                            Some(record.save(&cfg.results_dir.join("failures"))?)
                        }
                        None => None,
                    };
                    failures.push(CellFailure {
                        spec_index: run.spec_index,
                        workload_index: run.workload_index,
                        digest: digests[run.spec_index][run.workload_index],
                        label: campaign.specs[run.spec_index].label.clone(),
                        workload: campaign.recipes[run.workload_index].workload_name(),
                        error,
                        attempts: run.attempts,
                        record_path,
                    });
                }
            }
            if let Some(obs) = observations.take() {
                if !obs.is_empty() {
                    observed.push((run.spec_index, run.workload_index, obs));
                }
            }
        }
    }
    let wall = started.elapsed();
    grid.sort_by_key(|g| (g.spec_index, g.workload_index));
    timings.sort_by_key(|t| (t.spec_index, t.workload_index));
    failures.sort_by_key(|f| (f.spec_index, f.workload_index));

    let telemetry = Telemetry {
        campaign: campaign.name.clone(),
        total_cells: campaign.total_cells(),
        cached_cells,
        executed_cells,
        failed_cells: failures.len(),
        workers: if missing.is_empty() { 0 } else { workers },
        wall,
        busy: timings.iter().map(|t| t.wall).sum(),
        cells: timings,
    };

    let grid_csv = cfg.results_dir.join("grid.csv");
    write_grid_csv(&grid_csv, &grid)?;
    let summary_csv = cfg.results_dir.join("summary.csv");
    let rows = speedup_summary(&grid, campaign.specs.len(), campaign.baseline_spec);
    write_summary_csv(&summary_csv, &rows, "weighted_speedup")?;

    // Flight-recorder exports live next to the grid CSVs. They are
    // written whenever the corresponding capture was enabled — even
    // header-only when every cell came from the ledger — so downstream
    // tooling can rely on the file existing.
    let mut timeseries_csv = None;
    let mut heatmap_csv = None;
    let mut latency_csv = None;
    let mut leakage_csv = None;
    let mut profile_json = None;
    let mut blame_csv = None;
    let mut trace_json = None;
    if cfg.observe.is_enabled() {
        observed.sort_by_key(|(s, w, _)| (*s, *w));
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
        if cfg.observe.epoch.is_some() {
            let path = cfg.results_dir.join("timeseries.csv");
            write_timeseries_csv(&path, &cells)?;
            timeseries_csv = Some(path);
        }
        if cfg.observe.heatmap {
            let path = cfg.results_dir.join("heatmap.csv");
            write_heatmap_csv(&path, &cells)?;
            heatmap_csv = Some(path);
        }
        if cfg.observe.latency {
            let path = cfg.results_dir.join("latency.csv");
            write_latency_csv(&path, &cells)?;
            latency_csv = Some(path);
        }
        if cfg.observe.leakage {
            let path = cfg.results_dir.join("leakage.csv");
            write_leakage_csv(&path, &cells)?;
            leakage_csv = Some(path);
        }
        if cfg.observe.profile {
            let path = cfg.results_dir.join("profile.json");
            write_profile_json(&path, &cells)?;
            profile_json = Some(path);
        }
        if cfg.observe.forensics {
            let path = cfg.results_dir.join("blame.csv");
            write_blame_csv(&path, &cells)?;
            blame_csv = Some(path);
        }
        if cfg.perfetto {
            let filter = cfg
                .observe
                .events
                .map(|e| e.filter)
                .unwrap_or_else(EventFilter::all);
            let path = cfg.results_dir.join("trace.json");
            write_perfetto_json(&path, &cells, filter)?;
            trace_json = Some(path);
        }
    }

    if telemetry.is_overcommitted() {
        sink.warning(&format!(
            "per-cell timers sum to {:.2}s busy but the pool had only {:.2}s × {} workers \
             of wall capacity; utilization clamped to 100% (timer skew?)",
            telemetry.busy.as_secs_f64(),
            telemetry.wall.as_secs_f64(),
            telemetry.workers,
        ));
    }
    // Final state goes out only after every artifact is on disk, so a
    // watcher exiting on the finished flag can trust the CSVs.
    if let Some(bus) = bus {
        bus.finish();
    }
    sink.campaign_finished(&telemetry);
    Ok(CampaignOutcome {
        grid,
        failures,
        telemetry,
        grid_csv,
        summary_csv,
        ledger_path,
        recovery,
        timeseries_csv,
        heatmap_csv,
        latency_csv,
        leakage_csv,
        profile_json,
        blame_csv,
        trace_json,
    })
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
/// sampled pass cannot poison later full campaigns. The sampled cells
/// run sequentially, outside the pool (each simulates only a fraction
/// of its trace; the wall-clock win comes from the fast-forward), but
/// under the pool's panic containment: a panicking cell is reported
/// as a [`SimError::Internal`] failure and the other cells still run.
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

    let workloads: Vec<Workload> = campaign.recipes.iter().map(|r| r.build()).collect();
    let budget = match cfg.cell_budget {
        Some(cycles) => CellBudget::Cycles(cycles),
        None => CellBudget::Derived,
    };
    let opts = RunOptions {
        audit: cfg.audit,
        budget: Some(budget),
        observe: ObserveConfig::disabled(),
    };
    // Sampled cells run sequentially, so the bus gets one worker slot
    // and the campaign's solo probe. In validation mode the full pass
    // above already published (and finished) its own session on the
    // same segment path; this re-creates it for the sampled pass.
    let bus = CampaignBus::start(
        &cfg.results_dir,
        1,
        campaign.total_cells(),
        0,
        &BusOptions {
            telemetry: cfg.telemetry,
            progress_jsonl: cfg.progress_jsonl,
            ..BusOptions::default()
        },
    )?;
    let solo = bus.as_ref().and_then(|b| b.solo_probe());
    let probe: Option<&dyn TelemetryProbe> = solo.as_ref().map(|p| p as &dyn TelemetryProbe);
    let mut cells = Vec::with_capacity(campaign.total_cells());
    let mut failures = Vec::new();
    for (s, w) in campaign.cells() {
        let started = Instant::now();
        if let Some(b) = &bus {
            b.cell_started();
        }
        if let Some(p) = probe {
            p.cell_begin(
                s as u64,
                w as u64,
                1,
                workloads[w].total_accesses(),
                &campaign.specs[s].label,
                &campaign.recipes[w].workload_name(),
            );
        }
        let outcome = contain_panic(|| {
            run_one_sampled_instrumented(
                &campaign.specs[s],
                &workloads[w],
                &opts,
                plan,
                None,
                probe,
                |_| false,
            )
        })
        .and_then(|sampled| sampled);
        if let Some(p) = probe {
            p.cell_end();
        }
        match outcome {
            Ok(sampled) => {
                if let Some(b) = &bus {
                    b.cell_finished(1);
                }
                cells.push(SampledCellResult {
                    spec_index: s,
                    workload_index: w,
                    label: campaign.specs[s].label.clone(),
                    workload: campaign.recipes[w].workload_name(),
                    sampled,
                    wall: started.elapsed(),
                });
            }
            Err(error) => {
                if let Some(b) = &bus {
                    b.cell_failed(1);
                }
                failures.push(CellFailure {
                    spec_index: s,
                    workload_index: w,
                    digest: campaign.cell_digest(s, w),
                    label: campaign.specs[s].label.clone(),
                    workload: campaign.recipes[w].workload_name(),
                    error,
                    attempts: 1,
                    record_path: None,
                });
            }
        }
    }

    let sampling_csv = cfg.results_dir.join("sampling.csv");
    let export: Vec<SampledCell<'_>> = cells
        .iter()
        .map(|c| SampledCell {
            config: &c.label,
            workload: &c.workload,
            sampled: &c.sampled,
        })
        .collect();
    write_sampling_csv(&sampling_csv, &export)?;

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
            write_validation_csv(&validation_csv, &rows)?;
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

    if let Some(bus) = bus {
        bus.finish();
    }
    Ok(SampledCampaignOutcome {
        cells,
        failures,
        sampling_csv,
        validation,
    })
}

/// Writes the campaign's self-profiler report: one entry per executed
/// cell plus a `total` aggregate, each a per-section `{nanos, calls}`
/// map. Wall-clock data — the one intentionally nondeterministic
/// artifact, kept out of the ledger and the CSVs it feeds.
fn write_profile_json(path: &std::path::Path, cells: &[ObservedCell<'_>]) -> Result<(), SimError> {
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
    let doc = JsonValue::Obj(vec![
        ("cells".into(), JsonValue::Arr(cell_entries)),
        ("total".into(), total.to_json()),
    ]);
    ziv_common::fsutil::create_parent_dirs(path)?;
    std::fs::write(path, format!("{doc}\n"))
        .map_err(|e| SimError::io("write profile report", path, e))
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
