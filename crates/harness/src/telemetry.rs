//! Run telemetry: per-cell wall-clock timing, a pluggable progress
//! sink, and the campaign's worker-utilization summary.

use std::io::Write;
use std::time::Duration;
use ziv_common::SimError;

/// Timing record of one executed (not cached) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellTiming {
    /// Index of the cell's spec in the campaign.
    pub spec_index: usize,
    /// Index of the cell's recipe in the campaign.
    pub workload_index: usize,
    /// Spec label (e.g. `"I-LRU 256KB"`).
    pub label: String,
    /// Workload name (e.g. `"homo-circset"`).
    pub workload: String,
    /// Wall-clock cost of simulating the cell.
    pub wall: Duration,
}

/// End-of-campaign execution summary.
#[derive(Debug, Clone)]
pub struct Telemetry {
    /// Campaign name.
    pub campaign: String,
    /// Total cells in the grid.
    pub total_cells: usize,
    /// Cells satisfied from the ledger without running.
    pub cached_cells: usize,
    /// Cells actually simulated this run.
    pub executed_cells: usize,
    /// Cells that failed (audit violation, watchdog trip, I/O error).
    pub failed_cells: usize,
    /// Worker threads used for the executed cells.
    pub workers: usize,
    /// Wall clock of the execution phase.
    pub wall: Duration,
    /// Sum of per-cell wall clocks (total busy worker time).
    pub busy: Duration,
    /// Per-cell timings of the executed cells, sorted by
    /// `(spec_index, workload_index)`.
    pub cells: Vec<CellTiming>,
}

impl Telemetry {
    /// Fraction of available worker time spent simulating:
    /// `busy / (wall × workers)`. 0 when nothing was executed.
    ///
    /// Clamped to 1.0; [`Telemetry::is_overcommitted`] reports whether
    /// the clamp engaged so the runner can surface the timer skew
    /// instead of hiding it.
    pub fn utilization(&self) -> f64 {
        let capacity = self.wall.as_secs_f64() * self.workers as f64;
        if self.executed_cells == 0 || capacity <= 0.0 {
            0.0
        } else {
            (self.busy.as_secs_f64() / capacity).min(1.0)
        }
    }

    /// `true` when summed per-cell timers exceed the worker pool's
    /// wall-clock capacity (`busy > wall × workers`) — physically
    /// impossible, so the per-cell timers and the campaign wall clock
    /// disagree (clock skew, suspend/resume, or a mis-sized pool).
    pub fn is_overcommitted(&self) -> bool {
        self.executed_cells > 0
            && self.busy.as_secs_f64() > self.wall.as_secs_f64() * self.workers as f64
    }

    /// The most expensive executed cell, if any ran.
    pub fn slowest(&self) -> Option<&CellTiming> {
        self.cells.iter().max_by_key(|c| c.wall)
    }

    /// Human-readable summary lines (what [`StderrProgress`] prints).
    pub fn summary_lines(&self) -> Vec<String> {
        let failed = if self.failed_cells > 0 {
            format!(", {} FAILED", self.failed_cells)
        } else {
            String::new()
        };
        let mut lines = vec![format!(
            "campaign {}: {} cells ({} cached, {} executed{failed}) in {:.2}s",
            self.campaign,
            self.total_cells,
            self.cached_cells,
            self.executed_cells,
            self.wall.as_secs_f64(),
        )];
        if self.executed_cells > 0 {
            lines.push(format!(
                "workers: {}   busy {:.2}s of {:.2}s capacity ({:.0}% utilization)",
                self.workers,
                self.busy.as_secs_f64(),
                self.wall.as_secs_f64() * self.workers as f64,
                100.0 * self.utilization(),
            ));
            if let Some(s) = self.slowest() {
                lines.push(format!(
                    "slowest cell: {} × {} ({:.2}s)",
                    s.label,
                    s.workload,
                    s.wall.as_secs_f64(),
                ));
            }
        }
        lines
    }
}

/// Windowed-rate ETA estimator for campaign progress.
///
/// A naive ETA extrapolates from total elapsed time, which stays wrong
/// for the rest of the campaign after a slow head cell or a burst of
/// slow cells mid-campaign. This estimator instead keeps the completion
/// times of the last `window` cells and projects the remaining work at
/// the *recent* rate — `marks-in-window / (now - oldest mark)` — so the
/// estimate recovers as soon as the window rolls past an outlier.
///
/// Time is injected explicitly (durations since an arbitrary campaign
/// epoch), which keeps the estimator deterministic under test and free
/// of clock syscalls at the recording site.
#[derive(Debug, Clone)]
pub struct EtaEstimator {
    window: usize,
    marks: std::collections::VecDeque<Duration>,
}

impl EtaEstimator {
    /// Default window: recent-enough to forget a slow head quickly,
    /// wide enough to smooth worker-count granularity.
    pub const DEFAULT_WINDOW: usize = 16;

    /// Create an estimator averaging over the last `window` completions
    /// (at least 1).
    pub fn new(window: usize) -> Self {
        EtaEstimator {
            window: window.max(1),
            marks: std::collections::VecDeque::new(),
        }
    }

    /// Record a cell completion at `at` (time since the campaign epoch).
    pub fn record(&mut self, at: Duration) {
        if self.marks.len() == self.window {
            self.marks.pop_front();
        }
        self.marks.push_back(at);
    }

    /// Estimated time to finish `remaining` cells, judged at `now`.
    ///
    /// `None` until at least one completion has been recorded or when
    /// the window carries no elapsed time to rate against. With `k`
    /// marks in the window, the recent rate is `k / (now - oldest)`.
    pub fn eta(&self, now: Duration, remaining: usize) -> Option<Duration> {
        if remaining == 0 {
            return Some(Duration::ZERO);
        }
        let oldest = *self.marks.front()?;
        let span = now.checked_sub(oldest)?;
        if span.is_zero() {
            return None;
        }
        let rate = self.marks.len() as f64 / span.as_secs_f64();
        Some(Duration::from_secs_f64(remaining as f64 / rate))
    }
}

/// Receiver of campaign progress events. Called from worker threads;
/// implementations must be `Sync`. All methods default to no-ops so a
/// sink overrides only what it cares about.
pub trait ProgressSink: Sync {
    /// The campaign's cells have been partitioned; execution starts.
    fn campaign_started(&self, campaign: &str, total_cells: usize, cached_cells: usize) {
        let _ = (campaign, total_cells, cached_cells);
    }

    /// One cell finished simulating. `done` counts finished cells
    /// including the cached ones, out of `total`.
    fn cell_finished(&self, timing: &CellTiming, done: usize, total: usize) {
        let _ = (timing, done, total);
    }

    /// One cell failed (audit violation, watchdog trip). The campaign
    /// continues unless it runs `--strict`; `done` counts settled cells
    /// (finished or failed, including cached), out of `total`.
    fn cell_failed(
        &self,
        label: &str,
        workload: &str,
        error: &SimError,
        done: usize,
        total: usize,
    ) {
        let _ = (label, workload, error, done, total);
    }

    /// The campaign completed (CSVs written).
    fn campaign_finished(&self, telemetry: &Telemetry) {
        let _ = telemetry;
    }

    /// Out-of-band diagnostic the campaign wants surfaced (e.g. timer
    /// skew detected by [`Telemetry::is_overcommitted`]). Emitted after
    /// the cells settle, never from worker threads mid-line.
    fn warning(&self, message: &str) {
        let _ = message;
    }
}

/// The silent sink.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl ProgressSink for NullSink {}

/// Live progress on stderr: one rewriting `\r` status line while cells
/// execute, then the telemetry summary. Stdout is left untouched for
/// result tables.
#[derive(Debug, Default, Clone, Copy)]
pub struct StderrProgress;

impl ProgressSink for StderrProgress {
    fn campaign_started(&self, campaign: &str, total_cells: usize, cached_cells: usize) {
        eprintln!(
            "campaign {campaign}: {total_cells} cells, {cached_cells} cached, {} to run",
            total_cells - cached_cells
        );
    }

    fn cell_finished(&self, timing: &CellTiming, done: usize, total: usize) {
        let mut err = std::io::stderr().lock();
        let _ = write!(
            err,
            "\r[{done}/{total}] {} × {} ({:.2}s)\x1b[K",
            timing.label,
            timing.workload,
            timing.wall.as_secs_f64(),
        );
        let _ = err.flush();
    }

    fn cell_failed(
        &self,
        label: &str,
        workload: &str,
        error: &SimError,
        done: usize,
        total: usize,
    ) {
        let mut err = std::io::stderr().lock();
        // End the \r status line so the failure stays visible.
        let _ = writeln!(
            err,
            "\r[{done}/{total}] {label} × {workload} FAILED: {error}\x1b[K"
        );
        let _ = err.flush();
    }

    fn campaign_finished(&self, telemetry: &Telemetry) {
        let mut err = std::io::stderr().lock();
        if telemetry.executed_cells > 0 {
            let _ = writeln!(err); // end the \r status line
        }
        for line in telemetry.summary_lines() {
            let _ = writeln!(err, "{line}");
        }
    }

    fn warning(&self, message: &str) {
        eprintln!("warning: {message}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn telemetry(executed: usize, wall_ms: u64, busy_ms: u64, workers: usize) -> Telemetry {
        Telemetry {
            campaign: "t".into(),
            total_cells: executed + 3,
            cached_cells: 3,
            executed_cells: executed,
            failed_cells: 0,
            workers,
            wall: Duration::from_millis(wall_ms),
            busy: Duration::from_millis(busy_ms),
            cells: (0..executed)
                .map(|i| CellTiming {
                    spec_index: 0,
                    workload_index: i,
                    label: "L".into(),
                    workload: format!("w{i}"),
                    wall: Duration::from_millis(10 * (i as u64 + 1)),
                })
                .collect(),
        }
    }

    #[test]
    fn utilization_is_busy_over_capacity() {
        let t = telemetry(4, 100, 300, 4);
        assert!((t.utilization() - 0.75).abs() < 1e-9);
        // Clamped to 1 even with measurement jitter.
        assert_eq!(telemetry(4, 100, 900, 4).utilization(), 1.0);
        // Nothing executed → 0, never NaN.
        assert_eq!(telemetry(0, 0, 0, 0).utilization(), 0.0);
    }

    #[test]
    fn overcommit_is_detected_not_hidden() {
        // Healthy run: within capacity.
        assert!(!telemetry(4, 100, 300, 4).is_overcommitted());
        // busy > wall × workers: the clamp engages AND the skew is
        // reported, so callers can warn instead of silently showing
        // a flattering 100%.
        let skewed = telemetry(4, 100, 900, 4);
        assert_eq!(skewed.utilization(), 1.0);
        assert!(skewed.is_overcommitted());
        // Nothing executed: never overcommitted (capacity is 0).
        assert!(!telemetry(0, 0, 0, 0).is_overcommitted());
    }

    #[test]
    fn eta_starts_unknown_and_learns_a_rate() {
        let mut eta = EtaEstimator::new(4);
        assert_eq!(eta.eta(Duration::from_secs(5), 10), None);
        eta.record(Duration::from_secs(1));
        eta.record(Duration::from_secs(2));
        // 2 completions in the 2s window ending at t=3 → 1 cell/s.
        let e = eta.eta(Duration::from_secs(3), 6).unwrap();
        assert!((e.as_secs_f64() - 6.0).abs() < 1e-9, "{e:?}");
        // Zero remaining is always "done now".
        assert_eq!(eta.eta(Duration::from_secs(3), 0), Some(Duration::ZERO));
        // A window with no elapsed span can't rate anything.
        let mut flat = EtaEstimator::new(4);
        flat.record(Duration::from_secs(7));
        assert_eq!(flat.eta(Duration::from_secs(7), 3), None);
    }

    #[test]
    fn eta_window_forgets_slow_head_cells() {
        // One pathological 100s head cell, then steady 1s cells. A
        // total-elapsed extrapolation would still charge the head to
        // every remaining cell (~21s/cell here); the 4-wide window
        // must recover to the recent ~1s cadence once it rolls.
        let mut eta = EtaEstimator::new(4);
        eta.record(Duration::from_secs(100));
        for t in [101, 102, 103, 104] {
            eta.record(Duration::from_secs(t));
        }
        let now = Duration::from_secs(105);
        let e = eta.eta(now, 10).unwrap().as_secs_f64();
        // 4 marks over the [101s, 105s] window → 1 cell/s → ~10s.
        assert!((e - 10.0).abs() < 1e-9, "windowed eta was {e}s");
        let naive = now.as_secs_f64() / 5.0 * 10.0;
        assert!(naive > 200.0, "the naive estimate this guards against");

        // Slow cells mid-campaign slow the window; the estimate tracks it.
        let mut eta = EtaEstimator::new(2);
        for t in [1, 2, 10, 18] {
            eta.record(Duration::from_secs(t));
        }
        // Window is [10s, 18s]: 2 marks over 16s ending at t=26 → 8s/cell.
        let e = eta.eta(Duration::from_secs(26), 2).unwrap().as_secs_f64();
        assert!((e - 16.0).abs() < 1e-9, "{e}");
    }

    #[test]
    fn slowest_and_summary() {
        let t = telemetry(3, 100, 60, 2);
        assert_eq!(t.slowest().unwrap().workload, "w2");
        let lines = t.summary_lines();
        assert!(lines[0].contains("6 cells (3 cached, 3 executed)"));
        assert!(lines.iter().any(|l| l.contains("utilization")));
        assert!(lines.iter().any(|l| l.contains("slowest cell")));
        // Fully cached: just the one line.
        assert_eq!(telemetry(0, 0, 0, 0).summary_lines().len(), 1);
    }
}
