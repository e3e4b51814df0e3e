//! The worker pool: watchdog-cancelled cells, per-worker panic
//! containment, and bounded deterministic retry.
//!
//! [`run_cells_supervised`] is the one pool every grid of cells runs
//! through: campaigns' full and sampled passes, [`run_grid`], and
//! `replay`'s single cell. Each cell is one call of the function the
//! caller passes — `ziv_sim::run_one_instrumented` for a full cell,
//! `ziv_sim::run_one_sampled_instrumented` for a sampled one; a failing
//! cell comes back as an `Err` outcome and never takes down its worker
//! or the other cells. On top of that the pool contains the three
//! failure modes a single run cannot:
//!
//! - **Hangs.** Each attempt runs under a [`CancelToken`] registered in
//!   a per-worker watch slot; a single watchdog thread scans the slots
//!   and cancels any cell past its wall-clock budget
//!   ([`SuperviseConfig::cell_timeout`]) or making no progress for
//!   [`SuperviseConfig::stall_window`]. Both sim drivers poll the token
//!   cooperatively, so a cancelled cell stops at the next access — even
//!   one wedged by an injected `hang-core` fault — and is reported as
//!   [`SimError::Timeout`].
//! - **Panics.** Every attempt runs inside `catch_unwind`: a panic deep
//!   in the model becomes one [`SimError::Internal`] failure for that
//!   cell instead of a dead worker and a wedged campaign.
//! - **Transient I/O.** A failed attempt whose error
//!   [`SimError::is_transient`] qualifies is retried under the
//!   deterministic [`RetryPolicy`] backoff schedule; the attempt count
//!   is reported to the observer so the ledger records it.
//!
//! With neither budget set ([`SuperviseConfig::unsupervised`]) cells
//! run without a cancellation token and no watchdog thread starts;
//! cell results are deterministic and independent of thread count and
//! claiming order.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use ziv_common::{RetryPolicy, SimError};
use ziv_core::CancelToken;
use ziv_sim::{
    run_one_instrumented, GridResult, Observations, RunOptions, RunResult, RunSpec, TelemetryProbe,
};
use ziv_workloads::Workload;

/// Supervision knobs for a campaign run.
#[derive(Debug, Clone, Copy)]
pub struct SuperviseConfig {
    /// Wall-clock budget per cell attempt (`--cell-timeout`). Bounds
    /// how long any cell — however slow — may run.
    pub cell_timeout: Option<Duration>,
    /// No-forward-progress budget per cell attempt (`--stall-window`):
    /// a cell whose access counter stops advancing for this long is
    /// cancelled. Catches a wedged cell in milliseconds where the
    /// wall-clock budget must stay generous enough for legitimately
    /// slow cells.
    pub stall_window: Option<Duration>,
    /// Retry policy for transient failures (`--retries`).
    pub retry: RetryPolicy,
    /// Watchdog scan interval. Only the cancellation *latency* depends
    /// on it; results never do.
    pub poll: Duration,
}

impl SuperviseConfig {
    /// No watchdog, no retries. With neither budget set, cells run
    /// without a cancellation token — the zero-cost unarmed path.
    pub fn unsupervised() -> Self {
        SuperviseConfig {
            cell_timeout: None,
            stall_window: None,
            retry: RetryPolicy::none(),
            poll: Duration::from_millis(5),
        }
    }

    /// Whether cells need a cancellation token and a watchdog thread.
    fn watched(&self) -> bool {
        self.cell_timeout.is_some() || self.stall_window.is_some()
    }
}

impl Default for SuperviseConfig {
    fn default() -> Self {
        Self::unsupervised()
    }
}

/// How many workers contend for each hardware thread:
/// `ceil(workers / available_parallelism)`, minimum 1.
///
/// On an oversubscribed host the OS time-slices the workers, so a cell
/// can sit unscheduled — making *no* forward progress — for several
/// scheduling quanta while being perfectly healthy. Any stall budget
/// chosen for the uncontended case must stretch by this factor.
pub fn oversubscription_factor(workers: usize) -> u32 {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let workers = workers.max(1);
    workers.div_ceil(cores).max(1) as u32
}

/// Derives a default stall window from an uncontended `base` budget by
/// scaling it with [`oversubscription_factor`]: `workers` pool threads
/// sharing one core get `workers ×` the base window before the
/// watchdog may call a progressing-but-starved cell stalled.
///
/// This is for *derived defaults* only — an explicit `--stall-window`
/// is authoritative and must not pass through here (an operator who
/// asked for 400 ms gets 400 ms).
pub fn default_stall_window(base: Duration, workers: usize) -> Duration {
    base * oversubscription_factor(workers)
}

/// Observer of cell execution in the pool, called from worker threads;
/// `T` is what a cell produces. The campaign runner hooks it to append
/// finished cells to its ledger and drive progress telemetry;
/// [`run_grid`] uses the no-op [`NoopSuperviseObserver`].
pub trait SuperviseObserver<T = RunResult>: Sync {
    /// A worker picked up cell `(spec_index, workload_index)`.
    fn cell_started(&self, spec_index: usize, workload_index: usize) {
        let _ = (spec_index, workload_index);
    }

    /// A cell completed after `attempts` attempts (1 = first try).
    fn cell_finished(
        &self,
        spec_index: usize,
        workload_index: usize,
        result: &T,
        attempts: u32,
        wall: Duration,
    ) {
        let _ = (spec_index, workload_index, result, attempts, wall);
    }

    /// A cell failed after `attempts` attempts (retries exhausted or
    /// the error was not transient).
    fn cell_failed(
        &self,
        spec_index: usize,
        workload_index: usize,
        error: &SimError,
        attempts: u32,
        wall: Duration,
    ) {
        let _ = (spec_index, workload_index, error, attempts, wall);
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
    /// The run's results, or the error of its final attempt.
    pub outcome: Result<T, SimError>,
    /// Flight-recorder payload of the final attempt, when observing.
    pub observations: Option<Box<Observations>>,
    /// Attempts made (1 = no retries were needed).
    pub attempts: u32,
}

/// A cell attempt currently under watch: its token, its wall-clock
/// deadline, and its progress history for stall detection.
struct Watch {
    token: CancelToken,
    deadline: Option<Instant>,
    timeout: Option<Duration>,
    last_progress: u64,
    last_advance: Instant,
}

impl Watch {
    fn new(token: CancelToken, timeout: Option<Duration>) -> Watch {
        let now = Instant::now();
        Watch {
            token,
            deadline: timeout.map(|t| now + t),
            timeout,
            last_progress: 0,
            last_advance: now,
        }
    }

    /// One watchdog scan over this attempt; cancels on a blown budget.
    fn check(&mut self, now: Instant, stall_window: Option<Duration>) {
        if self.token.is_cancelled() {
            return;
        }
        if let (Some(deadline), Some(timeout)) = (self.deadline, self.timeout) {
            if now >= deadline {
                self.token.cancel(format!(
                    "wall-clock budget {}ms exceeded ({} accesses issued)",
                    timeout.as_millis(),
                    self.token.progress()
                ));
                return;
            }
        }
        if let Some(window) = stall_window {
            let progress = self.token.progress();
            if progress != self.last_progress {
                self.last_progress = progress;
                self.last_advance = now;
            } else if now.duration_since(self.last_advance) >= window {
                self.token.cancel(format!(
                    "no forward progress for {}ms (stalled near access {progress})",
                    window.as_millis()
                ));
            }
        }
    }
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

/// Runs `attempt_fn` under `policy`, sleeping `sleep_ms` between
/// attempts. Returns the final outcome and the number of attempts made.
/// `attempt_fn` receives the 1-based attempt number.
fn execute_with_retry_with<T>(
    policy: &RetryPolicy,
    mut sleep_ms: impl FnMut(u64),
    mut attempt_fn: impl FnMut(u32) -> Result<T, SimError>,
) -> (Result<T, SimError>, u32) {
    let mut attempt = 1u32;
    loop {
        match attempt_fn(attempt) {
            Ok(v) => return (Ok(v), attempt),
            Err(e) if policy.should_retry(&e, attempt) => {
                sleep_ms(policy.backoff.delay_ms(attempt));
                attempt += 1;
            }
            Err(e) => return (Err(e), attempt),
        }
    }
}

/// Runs `attempt_fn` under `policy` with real backoff sleeps. See
/// [`RetryPolicy`]: only transient errors are retried, and the delay
/// schedule is deterministic per seed.
pub fn execute_with_retry<T>(
    policy: &RetryPolicy,
    attempt_fn: impl FnMut(u32) -> Result<T, SimError>,
) -> (Result<T, SimError>, u32) {
    execute_with_retry_with(
        policy,
        |ms| std::thread::sleep(Duration::from_millis(ms)),
        attempt_fn,
    )
}

/// What one cell attempt returns: the outcome and, when the run
/// observed, its flight-recorder payload.
type CellOutcome<T> = (Result<T, SimError>, Option<Box<Observations>>);

/// One guarded attempt of `run`: a panic becomes one
/// [`SimError::Internal`] carrying the panic message; a watchdog token is
/// registered in the given slot when `watch` is provided (the inner
/// `Option<Duration>` is the attempt's wall-clock budget).
fn run_attempt<T>(
    run: impl FnOnce(Option<&CancelToken>) -> CellOutcome<T>,
    watch: Option<(&Mutex<Option<Watch>>, Option<Duration>)>,
) -> CellOutcome<T> {
    let token = watch.map(|(slot, timeout)| {
        let token = CancelToken::new();
        *slot.lock().unwrap() = Some(Watch::new(token.clone(), timeout));
        token
    });
    let outcome = catch_unwind(AssertUnwindSafe(|| run(token.as_ref())));
    if let Some((slot, _)) = watch {
        *slot.lock().unwrap() = None;
    }
    outcome.unwrap_or_else(|payload| {
        (
            Err(SimError::Internal(panic_message(payload.as_ref()))),
            None,
        )
    })
}

/// The worker pool. Runs the listed `(spec_index, workload_index)`
/// cells across `threads` workers, each attempt a call of
/// `run(spec, workload, cancel, probe)` guarded by panic containment,
/// the optional watchdog, and the retry policy (see the module docs).
/// `run` must poll `cancel` as the sim drivers do, or the watchdog
/// cannot stop it. Results are sorted by `(spec_index,
/// workload_index)`; cells skipped by
/// [`SuperviseObserver::should_abort`] are absent.
///
/// With `probes`, worker slot `i` uses `probes[i]` for every cell it
/// claims, bracketing each retry attempt with `cell_begin`/`cell_end`
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
    sup: &SuperviseConfig,
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
    let active = AtomicUsize::new(workers);
    let slots: Vec<Mutex<Option<Watch>>> = (0..workers).map(|_| Mutex::new(None)).collect();
    // Worker i owns probe i for the whole pool lifetime — the
    // segment's single-writer-per-record contract.
    let worker_probes: Vec<Option<&dyn TelemetryProbe>> = (0..workers)
        .map(|i| probes.map(|p| p[i].as_ref()))
        .collect();

    std::thread::scope(|scope| {
        // One watchdog for the whole pool: scan the per-worker watch
        // slots and cancel anything past its wall-clock deadline or
        // stalled beyond the progress window. It exits when the last
        // worker retires, which the scope then joins.
        if sup.watched() {
            scope.spawn(|| {
                while active.load(Ordering::Acquire) > 0 {
                    for slot in &slots {
                        if let Some(watch) = slot.lock().unwrap().as_mut() {
                            watch.check(Instant::now(), sup.stall_window);
                        }
                    }
                    std::thread::sleep(sup.poll);
                }
            });
        }
        for (slot, probe) in slots.iter().zip(worker_probes.iter()) {
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
                    observer.cell_started(spec_index, workload_index);
                    let started = Instant::now();
                    let mut observations = None;
                    let (outcome, attempts) = execute_with_retry(&sup.retry, |attempt| {
                        if let Some(p) = probe {
                            p.cell_begin(
                                spec_index as u64,
                                workload_index as u64,
                                attempt as u64,
                                workloads[workload_index].total_accesses(),
                                &specs[spec_index].label,
                                &workloads[workload_index].name,
                            );
                        }
                        let (outcome, obs) = run_attempt(
                            |cancel| {
                                run(
                                    &specs[spec_index],
                                    &workloads[workload_index],
                                    cancel,
                                    probe,
                                )
                            },
                            sup.watched().then_some((slot, sup.cell_timeout)),
                        );
                        if let Some(p) = probe {
                            p.cell_end();
                        }
                        observations = obs;
                        outcome
                    });
                    match &outcome {
                        Ok(result) => observer.cell_finished(
                            spec_index,
                            workload_index,
                            result,
                            attempts,
                            started.elapsed(),
                        ),
                        Err(error) => observer.cell_failed(
                            spec_index,
                            workload_index,
                            error,
                            attempts,
                            started.elapsed(),
                        ),
                    }
                    results.lock().unwrap().push(SupervisedRun {
                        spec_index,
                        workload_index,
                        outcome,
                        observations,
                        attempts,
                    });
                }
                active.fetch_sub(1, Ordering::Release);
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
/// Panics if any cell fails: with auditing, budget and watchdog off, a
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
        &SuperviseConfig::unsupervised(),
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
    use ziv_common::BackoffSchedule;
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
            fn cell_finished(
                &self,
                _s: usize,
                _w: usize,
                result: &RunResult,
                attempts: u32,
                wall: Duration,
            ) {
                assert!(result.metrics.llc_accesses > 0);
                assert_eq!(attempts, 1);
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
            &SuperviseConfig::unsupervised(),
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

    fn transient() -> SimError {
        SimError::io("flaky append", "/tmp/x", std::io::Error::other("EIO"))
    }

    #[test]
    fn retry_succeeds_after_transient_failures() {
        let policy = RetryPolicy::with_retries(3, 0x2026);
        let mut slept = Vec::new();
        let mut calls = 0;
        let (out, attempts) = execute_with_retry_with(
            &policy,
            |ms| slept.push(ms),
            |attempt| {
                calls += 1;
                assert_eq!(attempt, calls);
                if calls < 3 {
                    Err(transient())
                } else {
                    Ok(42)
                }
            },
        );
        assert_eq!(out.unwrap(), 42);
        assert_eq!(attempts, 3);
        let sched = policy.backoff;
        assert_eq!(slept, vec![sched.delay_ms(1), sched.delay_ms(2)]);
    }

    #[test]
    fn retry_gives_up_at_the_attempt_cap() {
        let policy = RetryPolicy {
            max_attempts: 3,
            backoff: BackoffSchedule {
                base_ms: 1,
                max_ms: 1,
                seed: 0,
            },
        };
        let mut calls = 0u32;
        let (out, attempts) = execute_with_retry_with(
            &policy,
            |_| {},
            |_| {
                calls += 1;
                Err::<(), _>(transient())
            },
        );
        assert!(out.is_err());
        assert_eq!(attempts, 3);
        assert_eq!(calls, 3);
    }

    #[test]
    fn deterministic_errors_never_retry() {
        let policy = RetryPolicy::with_retries(5, 0);
        let mut calls = 0u32;
        let (out, attempts) = execute_with_retry_with(
            &policy,
            |_| panic!("must not sleep"),
            |_| {
                calls += 1;
                Err::<(), _>(SimError::Config("bad".into()))
            },
        );
        assert_eq!(out.unwrap_err().kind_tag(), "config");
        assert_eq!(attempts, 1);
        assert_eq!(calls, 1);
    }

    #[test]
    fn oversubscription_scales_the_default_stall_window() {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        // A pool no larger than the machine is not oversubscribed: the
        // base window passes through unchanged.
        assert_eq!(oversubscription_factor(1), 1);
        assert_eq!(oversubscription_factor(cores), 1);
        assert_eq!(
            default_stall_window(Duration::from_millis(750), cores),
            Duration::from_millis(750)
        );
        // Workers beyond the core count stretch the window by the
        // time-slicing factor, rounding up so a partial extra worker
        // still buys a full extra quantum.
        assert_eq!(oversubscription_factor(cores * 4), 4);
        assert_eq!(oversubscription_factor(cores * 4 + 1), 5);
        assert_eq!(
            default_stall_window(Duration::from_millis(200), cores * 4),
            Duration::from_millis(800)
        );
        // Degenerate pool sizes never collapse the window to zero.
        assert_eq!(oversubscription_factor(0), 1);
    }

    #[test]
    fn panic_payloads_render() {
        let p = catch_unwind(|| panic!("boom {}", 7)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "boom 7");
        let p = catch_unwind(|| std::panic::panic_any(13u32)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "non-string panic payload");
    }
}
