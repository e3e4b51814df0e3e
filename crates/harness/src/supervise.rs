//! The worker pool: per-cell wall-clock deadlines and per-worker panic
//! containment.
//!
//! [`run_cells_supervised`] is the one pool every grid of cells runs
//! through: campaigns' full and sampled passes, [`run_grid`], and
//! `replay`'s single cell. Each cell is one call of the function the
//! caller passes — `ziv_sim::run_one_instrumented` for a full cell,
//! `ziv_sim::run_one_sampled_instrumented` for a sampled one; a failing
//! cell comes back as an `Err` outcome and never takes down its worker
//! or the other cells. On top of that the pool contains the two
//! failure modes a single run cannot:
//!
//! - **Runaway cells.** With a `cell_timeout`, each cell runs under a
//!   [`CancelToken`] whose deadline starts when the cell does. Both sim
//!   drivers check it every 256 accesses, so a cell past its budget
//!   stops within 256 accesses and is reported as
//!   [`SimError::Timeout`].
//! - **Panics.** Every cell runs inside `catch_unwind`: a panic deep
//!   in the model becomes one [`SimError::Internal`] failure for that
//!   cell instead of a dead worker and a wedged campaign.
//!
//! The pool runs each cell exactly once. A cell is a pure computation
//! over an in-memory trace, so a failure recurs identically on a
//! re-run; `--resume` is the way to run a failed cell again.
//!
//! Without a `cell_timeout` cells run without a cancellation token;
//! cell results are deterministic and independent of thread count and
//! claiming order. The pool starts no thread besides its workers.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use ziv_common::SimError;
use ziv_core::CancelToken;
use ziv_sim::{
    run_one_instrumented, GridResult, Observations, RunOptions, RunResult, RunSpec, TelemetryProbe,
};
use ziv_workloads::Workload;

/// Observer of cell execution in the pool, called from worker threads;
/// `T` is what a cell produces. The campaign runner hooks it to append
/// finished cells to its ledger and drive progress telemetry;
/// [`run_grid`] uses the no-op [`NoopSuperviseObserver`].
pub trait SuperviseObserver<T = RunResult>: Sync {
    /// A worker picked up cell `(spec_index, workload_index)`.
    fn cell_started(&self, spec_index: usize, workload_index: usize) {
        let _ = (spec_index, workload_index);
    }

    /// A cell completed.
    fn cell_finished(&self, spec_index: usize, workload_index: usize, result: &T, wall: Duration) {
        let _ = (spec_index, workload_index, result, wall);
    }

    /// A cell failed.
    fn cell_failed(
        &self,
        spec_index: usize,
        workload_index: usize,
        error: &SimError,
        wall: Duration,
    ) {
        let _ = (spec_index, workload_index, error, wall);
    }

    /// Polled before claiming the next cell; `true` stops the grid
    /// early (`--strict`). Cells in flight still settle.
    fn should_abort(&self) -> bool {
        false
    }
}

/// The do-nothing [`SuperviseObserver`].
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSuperviseObserver;

impl<T> SuperviseObserver<T> for NoopSuperviseObserver {}

/// One cell's outcome under the supervised pool.
#[derive(Debug)]
pub struct SupervisedRun<T = RunResult> {
    /// Index of the spec in the grid's spec list.
    pub spec_index: usize,
    /// Index of the workload in the grid's workload list.
    pub workload_index: usize,
    /// The run's results, or the error that felled it.
    pub outcome: Result<T, SimError>,
    /// Flight-recorder payload, when observing.
    pub observations: Option<Box<Observations>>,
}

/// Renders a `catch_unwind` payload into the human-readable fragment of
/// a [`SimError::Internal`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// What one cell returns: the outcome and, when the run observed, its
/// flight-recorder payload.
type CellOutcome<T> = (Result<T, SimError>, Option<Box<Observations>>);

/// One guarded run of a cell: a panic becomes one
/// [`SimError::Internal`] carrying the panic message; with a `timeout`
/// the cell runs under a token whose deadline starts now.
fn run_guarded<T>(
    run: impl FnOnce(Option<&CancelToken>) -> CellOutcome<T>,
    timeout: Option<Duration>,
) -> CellOutcome<T> {
    let token = timeout.map(CancelToken::with_budget);
    catch_unwind(AssertUnwindSafe(|| run(token.as_ref()))).unwrap_or_else(|payload| {
        (
            Err(SimError::Internal(panic_message(payload.as_ref()))),
            None,
        )
    })
}

/// The worker pool. Runs the listed `(spec_index, workload_index)`
/// cells across `threads` workers, each cell one call of
/// `run(spec, workload, cancel, probe)` guarded by panic containment
/// and, with `cell_timeout`, a wall-clock deadline (see the module
/// docs). `run` must poll `cancel` as the sim drivers do, or the
/// deadline cannot stop it. Results are sorted by `(spec_index,
/// workload_index)`; cells skipped by
/// [`SuperviseObserver::should_abort`] are absent.
///
/// With `probes`, worker slot `i` uses `probes[i]` for every cell it
/// claims, bracketing each cell with `cell_begin`/`cell_end`
/// and threading the probe into the sim driver's hot-loop publish site.
/// Probes observe, never steer — results are byte-identical with and
/// without them, and `probes == None` publishes nothing.
///
/// # Panics
///
/// Panics if a cell index is out of range for `specs` / `workloads`,
/// or if fewer probes are supplied than worker slots.
#[allow(clippy::too_many_arguments)]
pub fn run_cells_supervised<T: Send>(
    specs: &[RunSpec],
    workloads: &[Workload],
    cells: &[(usize, usize)],
    threads: usize,
    run: impl Fn(&RunSpec, &Workload, Option<&CancelToken>, Option<&dyn TelemetryProbe>) -> CellOutcome<T>
        + Sync,
    cell_timeout: Option<Duration>,
    observer: &dyn SuperviseObserver<T>,
    probes: Option<&[Box<dyn TelemetryProbe>]>,
) -> Vec<SupervisedRun<T>> {
    for &(s, w) in cells {
        assert!(s < specs.len(), "spec index {s} out of range");
        assert!(w < workloads.len(), "workload index {w} out of range");
    }
    let total = cells.len();
    let next = AtomicUsize::new(0);
    let aborted = AtomicBool::new(false);
    let results: Mutex<Vec<SupervisedRun<T>>> = Mutex::new(Vec::with_capacity(total));
    let workers = threads.max(1).min(total.max(1));
    if let Some(p) = probes {
        assert!(
            p.len() >= workers,
            "{} probes for {workers} worker slots",
            p.len()
        );
    }
    // Worker i owns probe i for the whole pool lifetime — the
    // segment's single-writer-per-record contract.
    let worker_probes: Vec<Option<&dyn TelemetryProbe>> = (0..workers)
        .map(|i| probes.map(|p| p[i].as_ref()))
        .collect();

    std::thread::scope(|scope| {
        for probe in &worker_probes {
            scope.spawn(|| {
                let probe = *probe;
                loop {
                    if aborted.load(Ordering::Relaxed) || observer.should_abort() {
                        aborted.store(true, Ordering::Relaxed);
                        break;
                    }
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= total {
                        break;
                    }
                    let (spec_index, workload_index) = cells[idx];
                    let (spec, workload) = (&specs[spec_index], &workloads[workload_index]);
                    observer.cell_started(spec_index, workload_index);
                    let started = Instant::now();
                    if let Some(p) = probe {
                        p.cell_begin(
                            spec_index as u64,
                            workload_index as u64,
                            workload.total_accesses(),
                            &spec.label,
                            &workload.name,
                        );
                    }
                    let (outcome, observations) =
                        run_guarded(|cancel| run(spec, workload, cancel, probe), cell_timeout);
                    if let Some(p) = probe {
                        p.cell_end();
                    }
                    let wall = started.elapsed();
                    match &outcome {
                        Ok(result) => {
                            observer.cell_finished(spec_index, workload_index, result, wall)
                        }
                        Err(error) => observer.cell_failed(spec_index, workload_index, error, wall),
                    }
                    results.lock().unwrap().push(SupervisedRun {
                        spec_index,
                        workload_index,
                        outcome,
                        observations,
                    });
                }
            });
        }
    });

    let mut out = results.into_inner().unwrap();
    out.sort_by_key(|g| (g.spec_index, g.workload_index));
    out
}

/// Runs every `spec × workload` cell through the pool, unsupervised,
/// and returns the results sorted by `(spec, workload)`.
///
/// Deterministic: results are identical regardless of thread count.
///
/// # Panics
///
/// Panics if any cell fails: with auditing, budget and deadline off, a
/// failure is a simulator bug.
pub fn run_grid(specs: &[RunSpec], workloads: &[Workload], threads: usize) -> Vec<GridResult> {
    let cells: Vec<(usize, usize)> = (0..specs.len())
        .flat_map(|s| (0..workloads.len()).map(move |w| (s, w)))
        .collect();
    run_cells_supervised(
        specs,
        workloads,
        &cells,
        threads,
        |spec, workload, cancel, probe| {
            run_one_instrumented(spec, workload, &RunOptions::default(), cancel, probe)
        },
        None,
        &NoopSuperviseObserver,
        None,
    )
    .into_iter()
    .map(|run| GridResult {
        spec_index: run.spec_index,
        workload_index: run.workload_index,
        result: run.outcome.unwrap_or_else(|e| {
            panic!(
                "grid cell ({}, {}) failed: {e}",
                run.spec_index, run.workload_index
            )
        }),
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ziv_common::config::SystemConfig;
    use ziv_core::LlcMode;
    use ziv_workloads::{apps, mixes, ScaleParams};

    fn workloads() -> Vec<Workload> {
        let sys = SystemConfig::scaled();
        let sc = ScaleParams::from_system(&sys);
        vec![
            mixes::homogeneous(apps::APPS[4], 2, 1_000, 1, sc),
            mixes::homogeneous(apps::APPS[0], 2, 1_000, 1, sc),
        ]
    }

    fn specs() -> Vec<RunSpec> {
        let sys = SystemConfig::scaled();
        vec![
            RunSpec::new("I-LRU", sys.clone()),
            RunSpec::new("NI-LRU", sys).with_mode(LlcMode::NonInclusive),
        ]
    }

    #[test]
    fn grid_covers_all_cells_in_order() {
        let grid = run_grid(&specs(), &workloads(), 4);
        assert_eq!(grid.len(), 4);
        let cells: Vec<_> = grid
            .iter()
            .map(|g| (g.spec_index, g.workload_index))
            .collect();
        assert_eq!(cells, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
    }

    #[test]
    fn run_cells_covers_only_requested_cells_and_notifies() {
        struct Counter {
            started: AtomicUsize,
            finished: AtomicUsize,
        }
        impl SuperviseObserver for Counter {
            fn cell_started(&self, _s: usize, _w: usize) {
                self.started.fetch_add(1, Ordering::Relaxed);
            }
            fn cell_finished(&self, _s: usize, _w: usize, result: &RunResult, wall: Duration) {
                assert!(result.metrics.llc_accesses > 0);
                assert!(wall > Duration::ZERO);
                self.finished.fetch_add(1, Ordering::Relaxed);
            }
        }
        let obs = Counter {
            started: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
        };
        let out = run_cells_supervised(
            &specs(),
            &workloads(),
            &[(1, 0), (0, 1)],
            2,
            |spec, workload, cancel, probe| {
                run_one_instrumented(spec, workload, &RunOptions::default(), cancel, probe)
            },
            None,
            &obs,
            None,
        );
        assert_eq!(obs.started.load(Ordering::Relaxed), 2);
        assert_eq!(obs.finished.load(Ordering::Relaxed), 2);
        // Sorted output, exactly the requested cells.
        let got: Vec<_> = out
            .iter()
            .map(|g| (g.spec_index, g.workload_index))
            .collect();
        assert_eq!(got, vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn grid_is_deterministic_across_thread_counts() {
        let specs = &specs()[..1];
        let wls = workloads();
        let a = run_grid(specs, &wls, 1);
        let b = run_grid(specs, &wls, 8);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.result.metrics.llc_misses, y.result.metrics.llc_misses);
            assert_eq!(x.result.cores[0].cycles, y.result.cores[0].cycles);
        }
    }

    #[test]
    fn panic_payloads_render() {
        let p = catch_unwind(|| panic!("boom {}", 7)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "boom 7");
        let p = catch_unwind(|| std::panic::panic_any(13u32)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "non-string panic payload");
    }
}
