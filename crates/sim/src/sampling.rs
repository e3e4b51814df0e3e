//! The statistical sampling engine: interval simulation with
//! functional warmup and Student-t confidence intervals.
//!
//! Full simulation of every access is exact but slow; the paper-scale
//! grids need hours per cell. Following the interval-sampling recipe
//! (SMARTS-style periodic sampling, arXiv 2402.00649), a sampled run
//! meters the first warm-horizon of the stream exactly (the **head
//! census**) and then divides the rest into fixed periods of three
//! phases:
//!
//! ```text
//!   |- head census -|------- skip -------|-- warm --|- timed window -|
//!     (timed, once)                                  i₀ | i₁ | … | iₙ
//!                    `------------- one period, × k -----------------'
//! ```
//!
//! - **Timed** accesses run the full simulation path — hierarchy,
//!   latency, auditing — and feed the per-interval estimators. The
//!   window is sliced into [`SamplingPlan::window`] consecutive
//!   intervals so one warm span feeds several estimates.
//! - **Skipped** accesses never touch the hierarchy: only the trace
//!   cursors and instruction/cycle clocks advance (at base CPI, in
//!   bulk), which is what buys the speedup.
//! - **Warm** accesses (the tail of each gap) run through the
//!   hierarchy inside a
//!   [`CacheHierarchy::begin_warmup`](ziv_core::CacheHierarchy::begin_warmup) scope:
//!   caches, directory, and replacement state are re-warmed after the
//!   skip, but the timing [`Metrics`] are provably untouched and the
//!   auditor is silent.
//!
//! Cache state has a long history: a skipped span leaves the hierarchy
//! frozen at its pre-skip image, and a timed window opened on that
//! stale image reads nonsense (false hits against patterns that moved
//! on, false misses for working sets that were never allowed to fill).
//! The auto resolver therefore sizes each warm span to the **LLC's
//! line count** — the horizon after which every replacement stack has
//! been rebuilt from scratch — and, because that horizon is paid per
//! period, prefers few long periods with sliced timed windows
//! ([`SamplingPlan::resolve_for_stream`]). Traces shorter than a few
//! warm horizons are out of sampling's regime entirely; the resolver
//! falls back to warming every fast-forwarded access (exact state, no
//! skip) rather than producing fast-but-wrong estimates.
//!
//! Each interval yields one [`IntervalEstimate`] (IPC, LLC miss rate,
//! inclusion victims); [`SampledRun::ipc_ci`] turns the interval
//! population into a Student-t confidence interval on the aggregate
//! IPC (estimated in CPI space so phase-varying workloads don't bias
//! it high). The cold-start transient — compulsory misses while the
//! working set first becomes resident — carries a far-above-steady
//! share of the full run's cycles, so it can neither be warmed out of
//! the estimate (biased high) nor dropped into an equal-weight interval
//! mean (overweighted by `period / timed`). The head census resolves
//! this as a stratified estimator: the head's cycles are measured
//! exactly (a zero-variance stratum), the steady intervals are sampled,
//! and the two combine instruction-weighted —
//! `CPI ≈ (C_head + CPI_steady × I_steady) / I_total` — with only the
//! steady stratum contributing to the confidence width.
//!
//! [`run_paired_sampled_instrumented`] implements the auto-stop rule:
//! the baseline runs first, then the target stops as soon as the paired
//! per-interval IPC delta's confidence interval excludes zero (or its
//! interval budget is exhausted).

use crate::driver::{RunOptions, RunResult, Sim};
use crate::spec::RunSpec;
use ziv_common::stats::{Confidence, ConfidenceInterval, RunningMoments};
use ziv_common::SimError;
use ziv_core::observe::{SamplingProgress, TelemetryProbe};
use ziv_core::CancelToken;
use ziv_workloads::Workload;

/// How to sample a run: the period structure and the statistical
/// targets. Passed to the sampled entry points next to the
/// [`RunOptions`] a full run would take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingPlan {
    /// Timed accesses per interval (global stream count). `0` means
    /// **auto**: the driver sizes the period from the workload (see
    /// [`SamplingPlan::resolve_for_stream`]).
    pub interval: u64,
    /// Fast-forwarded accesses between timed windows (skip + warm).
    pub gap: u64,
    /// Fraction of the gap's **tail** that is functionally warmed, in
    /// per-mille (e.g. `250` = the last 25% of each gap).
    pub warmup_per_mille: u16,
    /// Consecutive intervals measured back-to-back after each gap (the
    /// timed window is `interval × window` accesses). Slicing one long
    /// timed window amortizes an expensive capacity-sized warm span
    /// over several estimates instead of paying it per estimate.
    pub window: u16,
    /// Head census: the first `head` accesses of the stream are timed
    /// (metered exactly, before the periodic structure begins), so the
    /// cold-start transient enters the aggregate estimate at its true
    /// instruction weight instead of being warmed out of it. `0` = no
    /// census (the periodic structure starts at access 0).
    pub head: u64,
    /// Confidence level for the reported intervals and the auto-stop
    /// rule.
    pub confidence: Confidence,
    /// Stop after this many completed intervals; `0` = run the whole
    /// trace.
    pub max_intervals: u32,
}

impl SamplingPlan {
    /// The auto-sized plan: period structure derived from the workload
    /// at run start, 95% confidence, no interval cap.
    pub fn auto() -> Self {
        SamplingPlan {
            interval: 0,
            gap: 0,
            warmup_per_mille: 250,
            window: 1,
            head: 0,
            confidence: Confidence::P95,
            max_intervals: 0,
        }
    }

    /// Whether this plan defers period sizing to the workload.
    pub fn is_auto(&self) -> bool {
        self.interval == 0
    }

    /// Resolves an auto plan against the stream it will sample.
    /// Explicit (non-auto) plans pass through unchanged.
    ///
    /// `warm_target` is the functional-warm horizon in accesses — how
    /// much of the stream must replay through the hierarchy after a
    /// skip before cache/directory/replacement state is re-established.
    /// The driver passes the LLC's line count: rebuilding every
    /// replacement stack after an arbitrary skip takes at most one fill
    /// per LLC line (the L2s refill on the way). That horizon is paid
    /// once per period, so the resolver prefers **few long periods**,
    /// slicing each period's timed window into several consecutive
    /// intervals ([`SamplingPlan::window`]) to keep the estimator
    /// population at ≥ 8:
    ///
    /// - **In regime** (`total ≥ 4 × warm_target`): a head census of
    ///   one warm horizon (the cold-start transient is metered exactly,
    ///   see [`SamplingPlan::head`]), then `k = total / (4 ×
    ///   warm_target) − 1` periods (1..=8) over the rest, ~1/32 of each
    ///   period timed, warm span = `warm_target`. The simulated
    ///   fraction lands near `(k + 1) / (total / warm_target)` — about
    ///   25–30% across the regime.
    /// - **Out of regime** (shorter traces): no skip span can be
    ///   re-warmed honestly, so every fast-forwarded access is warmed
    ///   instead (`warmup = 100%` of the gap) — estimates stay exact
    ///   and the speedup degrades toward 1×.
    ///
    /// The result is then de-aliased against the workload's phase
    /// period ([`Workload::phase_period`]): when the sampled period
    /// divides evenly into whole program phases, every timed window
    /// starts at the same phase offset and the estimators only ever see
    /// that slice of the program's behavior. Stretching the gap by a
    /// quarter phase makes consecutive windows rotate through phase
    /// offsets instead.
    ///
    /// # Panics
    ///
    /// Panics if `warm_target` is 0: every system has an LLC to warm.
    pub fn resolve_for_stream(
        &self,
        total_accesses: u64,
        phase_period: Option<u64>,
        warm_target: u64,
    ) -> SamplingPlan {
        if !self.is_auto() {
            return *self;
        }
        assert!(
            warm_target > 0,
            "the warm horizon must be at least one access"
        );
        let total = total_accesses.max(64);
        let mut plan = if total / (4 * warm_target) == 0 {
            // Out of regime: warm everything between timed windows.
            let period = (total / 8).max(64);
            let interval = (period / 8).max(8);
            SamplingPlan {
                interval,
                gap: period - interval,
                warmup_per_mille: 1000,
                window: 1,
                ..*self
            }
        } else {
            // In regime. Every warm-horizon-sized span simulated —
            // the head census plus one warm span per period — costs the
            // same, so the period count is the total span budget minus
            // the census: k = total / (4·warm_target) − 1, keeping the
            // simulated fraction near 25–30% across the whole regime.
            let steady = total - warm_target;
            let periods = (total / (4 * warm_target)).saturating_sub(1).clamp(1, 8);
            // Reserve a trace-tail margin the periods never tile into:
            // near the end of a single-pass run the cores park one by
            // one, and a timed window overlapping that drain would
            // meter the shrinking-concurrency regime a full run (whose
            // restart laps keep every core busy) never exhibits. The
            // margin lands in the trailing period's skip span.
            let usable = steady - steady / 16;
            let period = (usable / periods).max(64);
            let slices = 8u64.div_ceil(periods);
            let timed = (period / 32).max(8 * slices).min(period / 2);
            let interval = (timed / slices).max(8);
            let window = slices.min(u16::MAX as u64) as u16;
            let timed = interval * window as u64;
            let gap = period.saturating_sub(timed).max(1);
            let warm = warm_target.max(interval).min(gap);
            // Round up to a whole percent so the plan survives a
            // Display/parse round trip (the grammar speaks percent).
            let wpm = (warm * 100).div_ceil(gap).min(100) * 10;
            SamplingPlan {
                interval,
                gap,
                warmup_per_mille: wpm as u16,
                window,
                // About one warm horizon, in whole intervals so the
                // census closes on an interval boundary. Rounded down:
                // the periods were sized assuming a head of exactly
                // `warm_target`, so rounding up would push the last
                // timed window past the trace tail and lose it.
                head: interval * (warm_target / interval).max(1),
                ..*self
            }
        };
        if let Some(p) = phase_period.filter(|&p| p > 1) {
            if plan.period() % p == 0 {
                // (period + p/4) mod p = p/4 ≠ 0 for p ≥ 5, and the
                // max(1) nudge de-aliases p ∈ {2, 3, 4}.
                plan.gap += (p / 4).max(1);
            }
        }
        plan
    }

    /// Accesses per period (one gap plus one timed window).
    pub fn period(&self) -> u64 {
        self.gap + self.interval * self.window.max(1) as u64
    }

    /// Warm accesses per gap (the gap's tail).
    pub fn warm_len(&self) -> u64 {
        (self.gap.saturating_mul(self.warmup_per_mille as u64)) / 1000
    }

    /// Parses a `--sampling` spec.
    ///
    /// Grammar: `off` (sampling disabled, returns `Ok(None)`), `auto`,
    /// or a comma list of `key=value` pairs with keys
    /// `interval`/`i` (timed accesses), `gap`/`g` (fast-forward
    /// accesses), `warmup`/`w` (percent of the gap warmed),
    /// `window`/`x` (consecutive intervals per timed window, ≥ 1),
    /// `head`/`h` (accesses metered exactly at stream start),
    /// `confidence`/`c` (90, 95, or 99), `max`/`n` (interval cap).
    /// Unspecified keys take the auto plan's defaults; `interval` and
    /// `gap` must be given together.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] naming the offending token.
    pub fn parse(spec: &str) -> Result<Option<SamplingPlan>, SimError> {
        let spec = spec.trim();
        match spec {
            "off" => return Ok(None),
            "auto" | "" => return Ok(Some(SamplingPlan::auto())),
            _ => {}
        }
        let mut plan = SamplingPlan::auto();
        let mut saw_interval = false;
        let mut saw_gap = false;
        for part in spec.split(',') {
            let (key, value) = part.split_once('=').ok_or_else(|| {
                SimError::Config(format!(
                    "bad --sampling token '{part}': expected key=value \
                     (keys: interval/i, gap/g, warmup/w, window/x, head/h, \
                     confidence/c, max/n), 'auto', or 'off'"
                ))
            })?;
            let num: u64 = value.parse().map_err(|_| {
                SimError::Config(format!("bad --sampling value '{value}' for key '{key}'"))
            })?;
            match key {
                "interval" | "i" => {
                    if num == 0 {
                        return Err(SimError::Config(
                            "--sampling interval must be at least 1".into(),
                        ));
                    }
                    plan.interval = num;
                    saw_interval = true;
                }
                "gap" | "g" => {
                    plan.gap = num;
                    saw_gap = true;
                }
                "warmup" | "w" => {
                    if num > 100 {
                        return Err(SimError::Config(format!(
                            "--sampling warmup is a percentage of the gap; got {num}"
                        )));
                    }
                    plan.warmup_per_mille = (num * 10) as u16;
                }
                "window" | "x" => {
                    if num == 0 || num > u16::MAX as u64 {
                        return Err(SimError::Config(format!(
                            "--sampling window must be in 1..={}; got {num}",
                            u16::MAX
                        )));
                    }
                    plan.window = num as u16;
                }
                "head" | "h" => {
                    plan.head = num;
                }
                "confidence" | "c" => {
                    plan.confidence = u8::try_from(num)
                        .ok()
                        .and_then(Confidence::from_percent)
                        .ok_or_else(|| {
                            SimError::Config(format!(
                                "--sampling confidence must be 90, 95, or 99; got {num}"
                            ))
                        })?;
                }
                "max" | "n" => {
                    plan.max_intervals = num.min(u32::MAX as u64) as u32;
                }
                _ => {
                    return Err(SimError::Config(format!(
                        "unknown --sampling key '{key}' \
                         (keys: interval/i, gap/g, warmup/w, window/x, head/h, \
                         confidence/c, max/n)"
                    )));
                }
            }
        }
        if saw_interval != saw_gap {
            return Err(SimError::Config(
                "--sampling needs interval and gap together (or neither, for auto sizing)".into(),
            ));
        }
        Ok(Some(plan))
    }
}

/// Renders a plan back into the `--sampling` grammar.
impl std::fmt::Display for SamplingPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_auto() {
            write!(f, "auto")?;
        } else {
            write!(
                f,
                "interval={},gap={},warmup={}",
                self.interval,
                self.gap,
                self.warmup_per_mille / 10
            )?;
            if self.window > 1 {
                write!(f, ",window={}", self.window)?;
            }
            if self.head > 0 {
                write!(f, ",head={}", self.head)?;
            }
        }
        write!(f, ",confidence={}", self.confidence.percent())?;
        if self.max_intervals > 0 {
            write!(f, ",max={}", self.max_intervals)?;
        }
        Ok(())
    }
}

/// One timed interval's measurements — the sampling engine's unit of
/// statistical evidence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalEstimate {
    /// 0-based interval index.
    pub index: u32,
    /// Global access-stream position of the interval's first timed
    /// access.
    pub start_access: u64,
    /// Timed accesses measured.
    pub accesses: u64,
    /// Instructions retired across cores during the interval.
    pub instructions: u64,
    /// Advance of the slowest-core window (max per-core clock) during
    /// the interval.
    pub cycles: u64,
    /// Aggregate IPC over the interval (`instructions / cycles`).
    pub ipc: f64,
    /// LLC misses per LLC access during the interval (0 when the
    /// interval saw no LLC traffic).
    pub llc_miss_rate: f64,
    /// Inclusion victims suffered during the interval.
    pub inclusion_victims: u64,
}

/// Why a sampled run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Every core completed its trace.
    TraceEnd,
    /// The plan's `max_intervals` budget was reached.
    MaxIntervals,
    /// The caller's per-interval stop rule fired (the paired delta's
    /// confidence interval excluded zero).
    DeltaResolved,
}

impl StopReason {
    /// Short machine-readable tag (CSV/report column).
    pub fn tag(&self) -> &'static str {
        match self {
            StopReason::TraceEnd => "trace-end",
            StopReason::MaxIntervals => "max-intervals",
            StopReason::DeltaResolved => "delta-resolved",
        }
    }
}

/// Where each access of a sampled run went.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingProfile {
    /// The resolved plan the run actually used.
    pub plan: SamplingPlan,
    /// Accesses simulated on the full timed path.
    pub timed_accesses: u64,
    /// Accesses functionally warmed (state updated, metrics silent).
    pub warm_accesses: u64,
    /// Accesses skipped outright.
    pub skipped_accesses: u64,
    /// Completed intervals.
    pub intervals: u32,
    /// Why the run stopped.
    pub stop: StopReason,
}

impl SamplingProfile {
    /// Fraction of issued accesses that touched the hierarchy
    /// (timed + warm) — the cost model's proxy for sampled run time.
    pub fn simulated_fraction(&self) -> f64 {
        let total = self.timed_accesses + self.warm_accesses + self.skipped_accesses;
        if total == 0 {
            return 0.0;
        }
        (self.timed_accesses + self.warm_accesses) as f64 / total as f64
    }
}

/// A sampled run: the (estimate-grade) run result, the per-interval
/// evidence, and the phase accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledRun {
    /// Label/workload/core clocks as in a full run. **Caveat:** the
    /// hierarchy counters in `result.metrics` cover only the timed
    /// intervals, while the per-core instruction/cycle clocks cover
    /// the whole trace (including fast-forwarded spans) — use the
    /// interval estimators, not the raw counters, for reporting.
    pub result: RunResult,
    /// One estimate per completed interval, in stream order.
    pub intervals: Vec<IntervalEstimate>,
    /// Phase accounting and stop verdict.
    pub profile: SamplingProfile,
}

impl SampledRun {
    /// Running moments of the per-interval CPI population over the
    /// **steady** intervals (those past the head census) — the
    /// equal-instruction-weight domain where an interval mean is
    /// unbiased for the run's ratio-of-totals aggregate (intervals
    /// cover a fixed access count, so their instruction counts are
    /// near-equal).
    fn cpi_moments(&self) -> RunningMoments {
        let head = self.profile.plan.head;
        let mut m = RunningMoments::new();
        for iv in &self.intervals {
            if iv.start_access >= head && iv.instructions > 0 {
                m.push(iv.cycles as f64 / iv.instructions as f64);
            }
        }
        m
    }

    /// Exact instruction/cycle totals over the head-census intervals —
    /// the zero-variance stratum covering the cold-start transient.
    fn head_census(&self) -> (u64, u64) {
        let head = self.profile.plan.head;
        let mut instructions = 0u64;
        let mut cycles = 0u64;
        for iv in &self.intervals {
            if iv.start_access < head {
                instructions += iv.instructions;
                cycles += iv.cycles;
            }
        }
        (instructions, cycles)
    }

    /// Stratified aggregate: combines the head census (exact) with a
    /// steady-state CPI (sampled) at their instruction weights. Returns
    /// the aggregate CPI and the steady stratum's weight — the factor
    /// that scales the steady CPI's standard error down, since the
    /// census contributes none. With no head census this degenerates to
    /// `(steady_cpi, 1.0)`.
    fn census_weighted(&self, steady_cpi: f64) -> Option<(f64, f64)> {
        let total = self.result.total_instructions();
        if total == 0 {
            return None;
        }
        let (head_instr, head_cycles) = self.head_census();
        let steady_instr = total.saturating_sub(head_instr);
        let weight = steady_instr as f64 / total as f64;
        let aggregate = (head_cycles as f64 + steady_cpi * steady_instr as f64) / total as f64;
        Some((aggregate, weight))
    }

    /// The Student-t confidence interval on the run's aggregate IPC at
    /// the plan's confidence level; `None` with fewer than two
    /// intervals.
    ///
    /// Computed in CPI space and inverted (delta method:
    /// `SE_ipc ≈ SE_cpi / CPI²`): a plain arithmetic mean of interval
    /// IPCs would sit above the full run's instructions-over-cycles
    /// aggregate whenever IPC varies across intervals (Jensen), which
    /// is exactly the phase-varying case sampling exists for. When the
    /// plan carries a head census, the steady CPI mean is first folded
    /// into the stratified aggregate (see the module docs); only the
    /// sampled stratum's weight contributes to the half-width.
    pub fn ipc_ci(&self) -> Option<ConfidenceInterval> {
        let ci = self
            .cpi_moments()
            .confidence_interval(self.profile.plan.confidence)?;
        let (aggregate, weight) = self.census_weighted(ci.mean)?;
        if aggregate <= 0.0 {
            return None;
        }
        Some(ConfidenceInterval {
            mean: 1.0 / aggregate,
            half_width: ci.half_width * weight / (aggregate * aggregate),
            confidence: ci.confidence,
        })
    }

    /// Point estimate of the run's aggregate IPC: the head census and
    /// the mean steady-interval CPI combined at instruction weight,
    /// inverted (see [`SampledRun::ipc_ci`] for why not the arithmetic
    /// IPC mean); `None` when no steady interval completed.
    pub fn ipc_estimate(&self) -> Option<f64> {
        let cpi = self.cpi_moments().mean()?;
        let (aggregate, _) = self.census_weighted(cpi)?;
        if aggregate > 0.0 {
            Some(1.0 / aggregate)
        } else {
            None
        }
    }
}

/// The estimate-grade [`SampledRun::result`].
impl AsRef<RunResult> for SampledRun {
    fn as_ref(&self) -> &RunResult {
        &self.result
    }
}

/// The paired ZIV-vs-baseline auto-stop verdict from
/// [`run_paired_sampled_instrumented`].
#[derive(Debug, Clone, PartialEq)]
pub struct PairedSampleReport {
    /// The baseline's sampled run (always runs to its own stop rule).
    pub baseline: SampledRun,
    /// The target's sampled run (stops early once resolved).
    pub target: SampledRun,
    /// Confidence interval on the per-interval IPC delta
    /// (`target − baseline`), over the paired intervals; `None` with
    /// fewer than two pairs.
    pub delta_ci: Option<ConfidenceInterval>,
    /// Whether the delta's interval excluded zero (the auto-stop rule
    /// fired or the final interval resolved it).
    pub resolved: bool,
}

/// Which phase a global stream position falls in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Timed,
    Skip,
    Warm,
}

fn phase_of(pos_in_period: u64, plan: &SamplingPlan) -> Phase {
    let skip = plan.gap - plan.warm_len();
    if pos_in_period < skip {
        Phase::Skip
    } else if pos_in_period < plan.gap {
        Phase::Warm
    } else {
        Phase::Timed
    }
}

/// Telemetry stratum code for the current position (the values
/// `ziv-telemetry`'s layout documents: 1 head, 2 skip, 3 warm,
/// 4 timed; 0 is reserved for unsampled full runs).
fn stratum_code(in_head: bool, phase: Phase) -> u64 {
    if in_head {
        return 1;
    }
    match phase {
        Phase::Skip => 2,
        Phase::Warm => 3,
        Phase::Timed => 4,
    }
}

/// Resolves `plan` against the workload: auto plans are sized from the
/// stream length and de-aliased against the workload's phase period,
/// derived from `spec`'s cache capacities (the same scale the campaign
/// generators build footprints from).
fn resolve_plan(spec: &RunSpec, workload: &Workload, plan: SamplingPlan) -> SamplingPlan {
    let scale = ziv_workloads::ScaleParams::from_system(&spec.system);
    plan.resolve_for_stream(
        workload.total_accesses(),
        workload.phase_period(scale),
        scale.llc_lines,
    )
}

/// Snapshot of the estimator inputs at an interval boundary.
#[derive(Debug, Clone, Copy)]
struct IntervalOpen {
    start_access: u64,
    instructions: u64,
    window: u64,
    llc_accesses: u64,
    llc_misses: u64,
    inclusion_victims: u64,
}

/// Simulates `workload` under `spec` with the sampling `plan`, on the
/// current thread. See the module docs for the period structure.
/// `opts.audit` applies to timed accesses only — fast-forwarded spans
/// are audit-silent by construction. Observation is not supported: a
/// flight recording of the sampled intervals would cover only part of
/// the trace, so `opts.observe` must be disabled.
///
/// Unlike the full driver, a sampled run is single-pass: cores park
/// after their first trace completion instead of restarting (restart
/// laps exist to keep *contention* representative over a full co-run
/// window, which interval estimates re-weight anyway; DESIGN.md §12
/// lists the residual biases).
///
/// # Errors
///
/// - [`SimError::Config`] when `opts.observe` enables any observation.
/// - [`SimError::Audit`] / [`SimError::BudgetExceeded`] /
///   [`SimError::Timeout`] exactly as in the full driver, from timed
///   accesses.
///
/// # Panics
///
/// Panics if the workload's core count exceeds the system's.
pub fn run_one_sampled(
    spec: &RunSpec,
    workload: &Workload,
    opts: &RunOptions,
    plan: SamplingPlan,
) -> Result<SampledRun, SimError> {
    run_one_sampled_instrumented(spec, workload, opts, plan, None, None, |_| false)
}

/// [`run_one_sampled`] under an optional cooperative [`CancelToken`],
/// an optional live-telemetry probe, and a per-interval stop rule: the
/// general sampled entry point.
///
/// `cancel` and `probe` follow the contract of
/// [`run_one_instrumented`](crate::run_one_instrumented): every 256
/// accesses the loop polls the token and publishes a progress sample
/// carrying the current sampling stratum (head/skip/warm/timed), and
/// each closed interval publishes the running per-interval IPC mean and
/// confidence half-width so watchers can see CI convergence live. With
/// both `None` every poll and publish site is a single never-taken
/// branch. `on_interval` sees each completed interval and returns
/// `true` to stop the run ([`StopReason::DeltaResolved`]).
///
/// # Errors
///
/// As [`run_one_sampled`].
///
/// # Panics
///
/// Panics if the workload's core count exceeds the system's.
pub fn run_one_sampled_instrumented(
    spec: &RunSpec,
    workload: &Workload,
    opts: &RunOptions,
    plan: SamplingPlan,
    cancel: Option<&CancelToken>,
    probe: Option<&dyn TelemetryProbe>,
    on_interval: impl FnMut(&IntervalEstimate) -> bool,
) -> Result<SampledRun, SimError> {
    if opts.observe.is_enabled() {
        return Err(SimError::Config(
            "sampled runs do not support observation: a flight recording of \
             sampled intervals covers only part of the trace; run the full driver \
             to observe"
                .into(),
        ));
    }
    let plan = resolve_plan(spec, workload, plan);
    let mut sim = Sim::new(spec, workload, opts, cancel, probe);
    let (intervals, profile) = sample_intervals(&mut sim, plan, on_interval)?;
    if sim.h.is_warming() {
        sim.h.end_warmup();
    }
    Ok(SampledRun {
        result: sim.result(&spec.label),
        intervals,
        profile,
    })
}

/// The sampling engine's schedule over `sim`: the head census, then
/// periods of bulk skip, functional warmup and sliced timed windows
/// until every core has completed its trace once or a stop rule fires.
/// Returns the closed intervals and the phase accounting.
fn sample_intervals(
    sim: &mut Sim,
    plan: SamplingPlan,
    mut on_interval: impl FnMut(&IntervalEstimate) -> bool,
) -> Result<(Vec<IntervalEstimate>, SamplingProfile), SimError> {
    let period = plan.period();
    let ncores = sim.cursor.len();
    let mut completed = vec![false; ncores];
    let mut done = 0usize;
    let mut intervals: Vec<IntervalEstimate> = Vec::new();
    // Running per-interval IPC moments, published to the probe at each
    // interval close so watchers can see CI convergence live. Advisory
    // only: the rigorous stratified estimate stays in
    // [`SampledRun::ipc_ci`].
    let mut live_ipc = RunningMoments::new();
    let mut open: Option<IntervalOpen> = None;
    let mut timed_accesses = 0u64;
    let mut warm_accesses = 0u64;
    let mut skipped_accesses = 0u64;
    let mut stop = StopReason::TraceEnd;

    while done < ncores {
        // The head census is timed verbatim; the periodic structure
        // begins after it.
        let in_head = sim.issued < plan.head;
        let pos = if in_head {
            0
        } else {
            (sim.issued - plan.head) % period
        };
        let phase = if in_head {
            Phase::Timed
        } else {
            phase_of(pos, &plan)
        };
        sim.poll(stratum_code(in_head, phase))?;

        if phase == Phase::Skip {
            // Bulk fast-forward: skipped accesses never touch the
            // hierarchy, so the per-access lagging-core interleave is
            // unobservable — charge each core its records' base-CPI
            // work in one pass over the trace slices instead of paying
            // the core selection per access, then re-sort the core queue
            // once. The absolute clock skew this introduces cancels out
            // of every interval estimate (they are deltas).
            let mut left = (plan.gap - plan.warm_len()) - pos;
            while left > 0 && done < ncores {
                let active = ncores - done;
                let share = (left / active as u64).max(1);
                for c in 0..ncores {
                    if completed[c] || left == 0 {
                        continue;
                    }
                    let records = &sim.workload.traces[c].records;
                    let avail = (records.len() - sim.cursor[c]) as u64;
                    let take = share.min(avail).min(left) as usize;
                    let mut instr = 0u64;
                    for r in &records[sim.cursor[c]..sim.cursor[c] + take] {
                        instr += 1 + r.gap as u64;
                    }
                    sim.cursor[c] += take;
                    sim.instructions[c] += instr;
                    sim.cycles[c] += instr as f64 * sim.base_cpi;
                    sim.issued += take as u64;
                    skipped_accesses += take as u64;
                    left -= take as u64;
                    if sim.cursor[c] == records.len() {
                        completed[c] = true;
                        done += 1;
                        sim.retire(c);
                    }
                }
            }
            sim.resort();
            if let Some(tok) = sim.cancel {
                tok.note_progress(sim.issued);
            }
            continue;
        }

        // Phase transitions happen on the global stream, so the scope
        // handling below is strictly sequential: open the warmup scope at
        // the first warm access of a period, close it at the period
        // boundary, and open the interval estimator on the first timed
        // access.
        if phase == Phase::Timed && open.is_none() {
            if sim.h.is_warming() {
                sim.h.end_warmup();
            }
            let m = sim.h.metrics();
            open = Some(IntervalOpen {
                start_access: sim.issued,
                instructions: sim.instructions.iter().sum(),
                window: sim.window(),
                llc_accesses: m.llc_accesses,
                llc_misses: m.llc_misses,
                inclusion_victims: m.inclusion_victims,
            });
        }
        if phase == Phase::Warm && !sim.h.is_warming() {
            sim.h.begin_warmup();
        }

        // A sampled run is single-pass: a core that completed its trace
        // stops issuing.
        let Some(core) = sim.lagging() else {
            break;
        };
        let seq = (sim.cursor[core] * ncores + core) as u64;
        let finishing = sim.issue(core, seq)?;
        // Fast-forwarded spans are audit-silent by construction.
        if phase == Phase::Warm {
            warm_accesses += 1;
        } else {
            timed_accesses += 1;
            sim.check()?;
        }
        if finishing {
            completed[core] = true;
            done += 1;
            sim.retire(core);
        }

        // Close the interval when it completes — the access just issued
        // was its `interval`-th — or when the trace ran out mid-interval
        // (partial intervals are discarded: a short window would get
        // full weight in the mean; a partial *head* interval is kept,
        // because census intervals are summed at their true instruction
        // weight, never averaged). Timed positions sit at the end of
        // the period, so `pos + 1 - gap` is the count of timed accesses
        // issued this period; `issued` was just incremented, so inside
        // the head it is the count of census accesses issued.
        let issued = sim.issued;
        let interval_done = phase == Phase::Timed
            && if in_head {
                issued.is_multiple_of(plan.interval) || issued == plan.head
            } else {
                (pos + 1 - plan.gap).is_multiple_of(plan.interval)
            };
        let closing = open.is_some() && phase == Phase::Timed && (interval_done || done == ncores);
        if closing {
            let full_window = interval_done;
            let o = open.take().expect("interval is open");
            if full_window {
                let m = sim.h.metrics();
                let instr: u64 = sim.instructions.iter().sum::<u64>() - o.instructions;
                let window = sim.window().saturating_sub(o.window);
                let llc_acc = m.llc_accesses - o.llc_accesses;
                let llc_miss = m.llc_misses - o.llc_misses;
                let iv = IntervalEstimate {
                    index: intervals.len() as u32,
                    start_access: o.start_access,
                    accesses: issued - o.start_access,
                    instructions: instr,
                    cycles: window,
                    ipc: if window == 0 {
                        0.0
                    } else {
                        instr as f64 / window as f64
                    },
                    llc_miss_rate: if llc_acc == 0 {
                        0.0
                    } else {
                        llc_miss as f64 / llc_acc as f64
                    },
                    inclusion_victims: m.inclusion_victims - o.inclusion_victims,
                };
                intervals.push(iv);
                if let Some(p) = sim.probe {
                    live_ipc.push(iv.ipc);
                    let half = live_ipc
                        .confidence_interval(plan.confidence)
                        .map_or(0.0, |ci| (ci.high() - ci.low()) / 2.0);
                    p.publish_sampling(&SamplingProgress {
                        intervals: intervals.len() as u64,
                        ipc_mean: live_ipc.mean().unwrap_or(0.0),
                        ipc_half_width: half,
                    });
                }
                if plan.max_intervals > 0 && intervals.len() as u32 >= plan.max_intervals {
                    stop = StopReason::MaxIntervals;
                    break;
                }
                if on_interval(&iv) {
                    stop = StopReason::DeltaResolved;
                    break;
                }
            }
        }
    }

    let profile = SamplingProfile {
        plan,
        timed_accesses,
        warm_accesses,
        skipped_accesses,
        intervals: intervals.len() as u32,
        stop,
    };
    Ok((intervals, profile))
}

/// Runs `baseline` sampled to completion, then `target` sampled with
/// the auto-stop rule: after each completed target interval, pair it
/// with the same-index baseline interval and stop as soon as the
/// paired IPC delta's confidence interval (at the plan's level)
/// excludes zero.
///
/// The plan is resolved once, against the **baseline** spec, and both
/// runs use the resolved plan verbatim — index-pairing the interval
/// series requires an identical period structure even when the two
/// specs' cache scales would de-alias differently.
///
/// An optional live-telemetry probe sees `cell_begin`/`cell_end` around
/// each of the two runs (spec index 0 = baseline, 1 = target) and live
/// stratum/CI progress from inside them, so `zivsim watch` can follow a
/// paired sampling session like a two-cell campaign.
///
/// # Errors
///
/// As [`run_one_sampled`], for either run.
///
/// # Panics
///
/// Panics if the workload's core count exceeds either spec's system
/// core count.
pub fn run_paired_sampled_instrumented(
    baseline: &RunSpec,
    target: &RunSpec,
    workload: &Workload,
    opts: &RunOptions,
    plan: SamplingPlan,
    probe: Option<&dyn TelemetryProbe>,
) -> Result<PairedSampleReport, SimError> {
    let plan = resolve_plan(baseline, workload, plan);
    let expected = workload.total_accesses();
    if let Some(p) = probe {
        p.cell_begin(0, 0, expected, &baseline.label, &workload.name);
    }
    let base =
        run_one_sampled_instrumented(baseline, workload, opts, plan, None, probe, |_| false)?;
    let confidence = base.profile.plan.confidence;
    let base_ipcs: Vec<f64> = base.intervals.iter().map(|iv| iv.ipc).collect();
    let mut deltas = RunningMoments::new();
    if let Some(p) = probe {
        p.cell_end();
        p.cell_begin(1, 0, expected, &target.label, &workload.name);
    }
    let tgt = run_one_sampled_instrumented(target, workload, opts, plan, None, probe, |iv| {
        let Some(&b) = base_ipcs.get(iv.index as usize) else {
            return false;
        };
        deltas.push(iv.ipc - b);
        deltas
            .confidence_interval(confidence)
            .is_some_and(|ci| ci.excludes_zero())
    })?;
    if let Some(p) = probe {
        p.cell_end();
    }
    let delta_ci = deltas.confidence_interval(confidence);
    let resolved = delta_ci.is_some_and(|ci| ci.excludes_zero());
    Ok(PairedSampleReport {
        baseline: base,
        target: tgt,
        delta_ci,
        resolved,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ziv_common::config::SystemConfig;
    use ziv_core::{LlcMode, ZivProperty};
    use ziv_workloads::{apps, mixes, ScaleParams};

    fn wl(cores: usize, accesses: usize) -> Workload {
        let sys = SystemConfig::scaled();
        mixes::homogeneous(
            apps::APPS[4],
            cores,
            accesses,
            1,
            ScaleParams::from_system(&sys),
        )
    }

    #[test]
    fn parse_round_trips_and_rejects_garbage() {
        assert_eq!(SamplingPlan::parse("off").unwrap(), None);
        assert_eq!(
            SamplingPlan::parse("auto").unwrap(),
            Some(SamplingPlan::auto())
        );
        let p = SamplingPlan::parse(
            "interval=200,gap=1800,warmup=25,window=4,head=400,confidence=99,max=10",
        )
        .unwrap()
        .unwrap();
        assert_eq!(p.interval, 200);
        assert_eq!(p.gap, 1800);
        assert_eq!(p.warmup_per_mille, 250);
        assert_eq!(p.window, 4);
        assert_eq!(p.head, 400);
        assert_eq!(p.period(), 1800 + 4 * 200);
        assert_eq!(p.confidence, Confidence::P99);
        assert_eq!(p.max_intervals, 10);
        assert_eq!(SamplingPlan::parse(&p.to_string()).unwrap(), Some(p));
        for bad in [
            "interval=0,gap=10",
            "interval=10",
            "gap=10",
            "warmup=150",
            "window=0",
            "confidence=80",
            "junk",
            "i=abc,g=1",
            "zzz=1",
        ] {
            assert!(SamplingPlan::parse(bad).is_err(), "accepted '{bad}'");
        }
    }

    /// The scaled system's LLC lines: the warm horizon the driver passes.
    const LLC_LINES: u64 = 16_384;

    #[test]
    fn auto_plan_resolves_to_sane_periods() {
        let p = SamplingPlan::auto().resolve_for_stream(12_000, None, LLC_LINES);
        assert!(!p.is_auto());
        assert_eq!(p.period(), 1500);
        assert!(p.interval >= 8);
        assert!(p.warm_len() > 0);
        assert!(p.warm_len() <= p.gap);
        // Tiny workloads still get a usable period.
        let tiny = SamplingPlan::auto().resolve_for_stream(100, None, LLC_LINES);
        assert!(tiny.interval >= 8);
        assert!(tiny.period() >= 64);
        // Explicit plans pass through untouched.
        let explicit = SamplingPlan {
            interval: 7,
            gap: 13,
            warmup_per_mille: 100,
            window: 1,
            head: 0,
            confidence: Confidence::P90,
            max_intervals: 2,
        };
        assert_eq!(
            explicit.resolve_for_stream(1_000_000, Some(100), LLC_LINES),
            explicit
        );
    }

    #[test]
    fn capacity_aware_resolution_sizes_warm_spans_and_slices_windows() {
        // In regime: 160k accesses against a 16k-line LLC → a head
        // census of about one warm horizon, long periods with warm
        // spans ≥ the LLC, sliced timed windows, and an overall
        // simulated fraction low enough to be worth sampling.
        let p = SamplingPlan::auto().resolve_for_stream(160_000, None, 16_384);
        assert!(!p.is_auto());
        assert!(p.window > 1, "one warm span must feed several intervals");
        assert!(p.warm_len() >= 16_384, "warm span covers the LLC horizon");
        assert!(p.head > 0, "in-regime plans census the cold head");
        assert!(p.head <= 16_384, "the census never outgrows the horizon");
        assert_eq!(
            p.head % p.interval,
            0,
            "census closes on interval boundaries"
        );
        let timed = p.interval * p.window as u64;
        let periods = (160_000 - p.head) / p.period();
        let simulated = (p.head + periods * (timed + p.warm_len())) as f64 / 160_000_f64;
        assert!(simulated < 0.35, "simulated fraction {simulated} too high");
        assert!(
            periods * p.window as u64 >= 8,
            "at least 8 steady intervals over the stream"
        );
        // Out of regime: the trace is shorter than a few warm horizons,
        // so the resolver warms everything instead of skipping (and the
        // census is moot — everything is metered already).
        let f = SamplingPlan::auto().resolve_for_stream(12_000, None, 16_384);
        assert_eq!(f.warmup_per_mille, 1000, "short traces warm the whole gap");
        assert_eq!(f.warm_len(), f.gap);
        assert_eq!(f.window, 1);
        assert_eq!(f.head, 0);
        // Round-trip through the CLI grammar survives for both shapes.
        for plan in [p, f] {
            assert_eq!(SamplingPlan::parse(&plan.to_string()).unwrap(), Some(plan));
        }
    }

    #[test]
    fn auto_plans_dealias_against_phase_periods() {
        let resolve = |phase| SamplingPlan::auto().resolve_for_stream(12_000, phase, LLC_LINES);
        let plain = resolve(None); // period 1500
        let aliased = resolve(Some(750));
        assert_ne!(aliased.period() % 750, 0);
        assert_eq!(aliased.interval, plain.interval, "only the gap stretches");
        // Non-divisor phases pass through.
        assert_eq!(resolve(Some(700)), plain);
        // Tiny phases still de-alias (the max(1) nudge): 1500 is a
        // multiple of 2, 3 and 4.
        for p in [2, 3, 4] {
            assert_eq!(plain.period() % p, 0);
            assert_ne!(resolve(Some(p)).period() % p, 0, "phase {p}");
        }
        // In regime too: the nudge applies after the capacity sizing.
        let long = SamplingPlan::auto().resolve_for_stream(160_000, None, LLC_LINES);
        let phase = long.period() / 2;
        let nudged = SamplingPlan::auto().resolve_for_stream(160_000, Some(phase), LLC_LINES);
        assert_ne!(nudged.period() % phase, 0);
        assert_eq!(nudged.interval, long.interval);
        // Explicit plans are authoritative even when aliased.
        let explicit = SamplingPlan {
            interval: 10,
            gap: 90,
            ..SamplingPlan::auto()
        };
        assert_eq!(
            explicit.resolve_for_stream(12_000, Some(100), LLC_LINES),
            explicit
        );
    }

    #[test]
    fn phased_workloads_get_dealias_adjusted_periods() {
        let sys = SystemConfig::scaled();
        let scale = ScaleParams::from_system(&sys);
        let workload =
            mixes::homogeneous(apps::app_by_name("scanphase").unwrap(), 2, 24_000, 1, scale);
        let phase = workload.phase_period(scale).expect("scanphase is phased");
        assert_eq!(phase, 6_000);
        // 48k global accesses → auto period 6000, an exact phase
        // multiple: the phase-blind resolution aliases, the run must not.
        let llc_lines = scale.llc_lines;
        let blind = SamplingPlan::auto().resolve_for_stream(48_000, None, llc_lines);
        assert_eq!(blind.period() % phase, 0);
        let run = run_one_sampled(
            &RunSpec::new("I-LRU", sys),
            &workload,
            &RunOptions::default(),
            SamplingPlan::auto(),
        )
        .unwrap();
        assert_ne!(run.profile.plan.period() % phase, 0);
        assert!(run.intervals.len() >= 2);
    }

    #[test]
    fn sampled_run_partitions_every_access() {
        let workload = wl(2, 3_000);
        let spec = RunSpec::new("I-LRU", SystemConfig::scaled());
        let plan = SamplingPlan {
            interval: 64,
            gap: 448,
            ..SamplingPlan::auto()
        };
        let run = run_one_sampled(&spec, &workload, &RunOptions::default(), plan).unwrap();
        let p = &run.profile;
        assert_eq!(
            p.timed_accesses + p.warm_accesses + p.skipped_accesses,
            workload.total_accesses(),
            "single pass must issue every trace record exactly once"
        );
        assert!(p.skipped_accesses > p.timed_accesses, "this plan must skip");
        assert!(p.simulated_fraction() < 0.5);
        assert!(run.intervals.len() >= 4);
        assert_eq!(p.intervals as usize, run.intervals.len());
        assert_eq!(p.stop, StopReason::TraceEnd);
        let ci = run.ipc_ci().expect("enough intervals for a CI");
        assert!(ci.mean > 0.0);
        assert!(ci.half_width >= 0.0);
        for iv in &run.intervals {
            assert!(iv.ipc > 0.0);
            assert!(iv.accesses >= run.profile.plan.interval);
            assert!((0.0..=1.0).contains(&iv.llc_miss_rate));
        }
    }

    #[test]
    fn short_traces_resolve_to_warm_everything() {
        // 6k accesses against a 16k-line LLC: far below the sampling
        // regime, so the auto plan must warm every fast-forwarded
        // access instead of freezing state across skips.
        let workload = wl(2, 3_000);
        let spec = RunSpec::new("I-LRU", SystemConfig::scaled());
        let run = run_one_sampled(
            &spec,
            &workload,
            &RunOptions::default(),
            SamplingPlan::auto(),
        )
        .unwrap();
        let p = &run.profile;
        assert_eq!(p.skipped_accesses, 0, "out-of-regime plans never skip");
        assert_eq!(
            p.timed_accesses + p.warm_accesses,
            workload.total_accesses()
        );
        assert!((p.simulated_fraction() - 1.0).abs() < f64::EPSILON);
        assert!(run.intervals.len() >= 4);
    }

    #[test]
    fn sampled_runs_are_deterministic() {
        let workload = wl(2, 2_000);
        let spec = RunSpec::new("ZIV", SystemConfig::scaled())
            .with_mode(LlcMode::Ziv(ZivProperty::LikelyDead));
        let opts = RunOptions::default();
        let a = run_one_sampled(&spec, &workload, &opts, SamplingPlan::auto()).unwrap();
        let b = run_one_sampled(&spec, &workload, &opts, SamplingPlan::auto()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn max_intervals_stops_early() {
        let workload = wl(2, 3_000);
        let spec = RunSpec::new("I-LRU", SystemConfig::scaled());
        let plan = SamplingPlan {
            max_intervals: 2,
            ..SamplingPlan::auto()
        };
        let run = run_one_sampled(&spec, &workload, &RunOptions::default(), plan).unwrap();
        assert_eq!(run.intervals.len(), 2);
        assert_eq!(run.profile.stop, StopReason::MaxIntervals);
    }

    #[test]
    fn observing_a_sampled_run_is_a_config_error() {
        let workload = wl(2, 500);
        let spec = RunSpec::new("I-LRU", SystemConfig::scaled());
        let opts = RunOptions {
            observe: ziv_core::ObserveConfig {
                epoch: Some(100),
                ..ziv_core::ObserveConfig::disabled()
            },
            ..RunOptions::default()
        };
        let err = run_one_sampled(&spec, &workload, &opts, SamplingPlan::auto()).unwrap_err();
        assert_eq!(err.kind_tag(), "config");
        assert!(err.to_string().contains("observation"), "{err}");
    }

    #[test]
    fn paired_sampling_reports_a_delta() {
        let workload = wl(2, 3_000);
        let sys = SystemConfig::scaled();
        let base = RunSpec::new("I-LRU", sys.clone());
        let ziv = RunSpec::new("ZIV", sys).with_mode(LlcMode::Ziv(ZivProperty::LikelyDead));
        let rep = run_paired_sampled_instrumented(
            &base,
            &ziv,
            &workload,
            &RunOptions::default(),
            SamplingPlan::auto(),
            None,
        )
        .unwrap();
        assert!(!rep.baseline.intervals.is_empty());
        assert!(!rep.target.intervals.is_empty());
        assert!(
            rep.target.intervals.len() <= rep.baseline.intervals.len(),
            "target never outruns the baseline's interval series"
        );
        if rep.resolved {
            assert_eq!(rep.target.profile.stop, StopReason::DeltaResolved);
            assert!(rep.delta_ci.unwrap().excludes_zero());
        }
    }
}
