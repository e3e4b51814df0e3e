//! The per-run simulation driver.
//!
//! Cores advance in smallest-cycle-first order (deterministic global
//! interleaving); each access charges `(1 + gap) × base_cpi` for the
//! non-memory work plus the *exposed* fraction of its memory latency,
//! where the workload's `overlap` factor models the latency hiding an
//! out-of-order core with MLP achieves (DESIGN.md §5.1).

use crate::spec::RunSpec;
use ziv_common::SimError;
use ziv_core::observe::{
    EpochSlicer, FlightRecorder, Observations, ObserveConfig, ProbeSnapshot, TelemetryProbe,
};
use ziv_core::profile::{ProfileSection, SelfProfiler};
use ziv_core::{Access, AuditCadence, Auditor, CacheHierarchy, CancelToken, Metrics};
use ziv_workloads::Workload;

/// Per-cell cycle budget for the watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellBudget {
    /// Explicit per-core cycle cap (`--cell-budget`).
    Cycles(u64),
    /// Generous cap derived from the workload size (see
    /// [`derived_budget`]): orders of magnitude above any healthy run,
    /// tripped only by a livelocked or stalled model.
    Derived,
}

impl CellBudget {
    /// Resolves the budget, in per-core cycles, for `workload`.
    pub fn cycles_for(&self, workload: &Workload) -> u64 {
        match self {
            CellBudget::Cycles(c) => *c,
            CellBudget::Derived => derived_budget(workload),
        }
    }
}

/// The derived watchdog budget: every access can lap the trace
/// [`32`-fold under the issue cap] and still spend thousands of cycles
/// without coming near this, so only a genuinely stuck model trips it.
pub fn derived_budget(workload: &Workload) -> u64 {
    workload
        .total_accesses()
        .saturating_mul(50_000)
        .max(10_000_000)
}

/// Robustness and observability options for a run: audit cadence,
/// watchdog budget, and the flight-recorder configuration. The default
/// (`audit off`, no budget, observe nothing) makes [`run_one_checked`]
/// behave exactly like [`run_one`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// How often the auditor walks the hierarchy.
    pub audit: AuditCadence,
    /// Watchdog budget; `None` disables the watchdog.
    pub budget: Option<CellBudget>,
    /// What to observe (epoch slicing, event tracing, heatmaps).
    /// Never digested and never serialized into result ledgers:
    /// observing a run must not change its outcome. Full runs only:
    /// [`run_one_sampled`](crate::run_one_sampled) rejects any enabled
    /// observation with [`SimError::Config`].
    pub observe: ObserveConfig,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            audit: AuditCadence::Off,
            budget: None,
            observe: ObserveConfig::disabled(),
        }
    }
}

/// Per-core results of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreRunStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Cycles consumed.
    pub cycles: u64,
    /// Application driving the core.
    pub app_name: &'static str,
}

impl CoreRunStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.checked_ipc().unwrap_or(0.0)
    }

    /// Instructions per cycle, or `None` when the core recorded no
    /// cycles (a degenerate run that must not be used as a speedup
    /// denominator — dividing by a 0 IPC yields `inf`/`NaN` that
    /// silently poisons downstream geomeans).
    pub fn checked_ipc(&self) -> Option<f64> {
        if self.cycles == 0 {
            None
        } else {
            Some(self.instructions as f64 / self.cycles as f64)
        }
    }
}

/// Results of simulating one workload under one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Configuration label (e.g. `"I-LRU"`, `"ZIV-LikelyDead"`).
    pub label: String,
    /// Workload name.
    pub workload: String,
    /// Per-core statistics.
    pub cores: Vec<CoreRunStats>,
    /// Hierarchy statistics.
    pub metrics: Metrics,
}

impl RunResult {
    /// Total instructions across cores.
    pub fn total_instructions(&self) -> u64 {
        self.cores.iter().map(|c| c.instructions).sum()
    }

    /// Weighted speedup relative to a baseline run of the same workload:
    /// `(1/n) Σ_i IPC_i / IPC_i^base` — the standard multiprogrammed
    /// performance metric behind the paper's speedup figures.
    ///
    /// Cores whose *baseline* IPC is zero (a zero-cycle or zero-
    /// instruction baseline core) carry no speedup information and are
    /// excluded from the average rather than contributing `inf`/`NaN`;
    /// if every core is excluded the neutral speedup 1.0 is returned.
    ///
    /// # Panics
    ///
    /// Panics if the runs have different core counts.
    pub fn weighted_speedup(&self, baseline: &RunResult) -> f64 {
        assert_eq!(
            self.cores.len(),
            baseline.cores.len(),
            "core count mismatch"
        );
        let mut sum = 0.0;
        let mut n = 0usize;
        for (a, b) in self.cores.iter().zip(&baseline.cores) {
            if let Some(base_ipc) = b.checked_ipc().filter(|&v| v > 0.0) {
                sum += a.ipc() / base_ipc;
                n += 1;
            }
        }
        if n == 0 {
            1.0
        } else {
            sum / n as f64
        }
    }

    /// Throughput speedup for multithreaded workloads: baseline total
    /// time / this total time (all threads run the same total work).
    pub fn runtime_speedup(&self, baseline: &RunResult) -> f64 {
        let t_self = self.cores.iter().map(|c| c.cycles).max().unwrap_or(1) as f64;
        let t_base = baseline.cores.iter().map(|c| c.cycles).max().unwrap_or(1) as f64;
        t_base / t_self
    }
}

impl AsRef<RunResult> for RunResult {
    fn as_ref(&self) -> &RunResult {
        self
    }
}

/// Simulates `workload` under `spec` and returns the results.
///
/// # Panics
///
/// Panics if the workload's core count exceeds the system's.
pub fn run_one(spec: &RunSpec, workload: &Workload) -> RunResult {
    run_one_checked(spec, workload, &RunOptions::default())
        .expect("a run with auditing and watchdog disabled is infallible")
}

/// Simulates `workload` under `spec` with runtime invariant auditing and
/// an optional watchdog budget; audit violations and budget trips
/// propagate as [`SimError`] values instead of panics.
///
/// # Errors
///
/// - [`SimError::Audit`] when an audit walk (at `opts.audit` cadence)
///   finds an invariant violation — carrying the violation kind and the
///   0-based index of the access after which it was first observed.
/// - [`SimError::BudgetExceeded`] when any core's cycle clock crosses
///   the watchdog budget before its trace completes.
///
/// # Panics
///
/// Panics if the workload's core count exceeds the system's.
pub fn run_one_checked(
    spec: &RunSpec,
    workload: &Workload,
    opts: &RunOptions,
) -> Result<RunResult, SimError> {
    run_one_instrumented(spec, workload, opts, None, None).0
}

/// The machinery both drivers share: the hierarchy, each core's trace
/// cursor and clocks, the queue of cores still issuing, and the
/// per-access step with its checks. The full driver
/// ([`run_one_instrumented`]) and the sampling engine
/// ([`run_one_sampled_instrumented`](crate::run_one_sampled_instrumented))
/// keep only their own schedule on top: when a core retires, which
/// stream position an access takes, and what happens between accesses.
pub(crate) struct Sim<'a> {
    pub(crate) h: CacheHierarchy,
    pub(crate) workload: &'a Workload,
    pub(crate) base_cpi: f64,
    /// Index of each core's next trace record.
    pub(crate) cursor: Vec<usize>,
    /// Each core's clock, in cycles. A caller that moves clocks other
    /// than through [`Sim::issue`] re-sorts the queue ([`Sim::resort`]).
    pub(crate) cycles: Vec<f64>,
    /// The cores still issuing, ordered by (clock, core index): the
    /// front is the lagging core.
    queue: Vec<usize>,
    /// Instructions each core has retired.
    pub(crate) instructions: Vec<u64>,
    /// Accesses issued so far, over all cores.
    pub(crate) issued: u64,
    pub(crate) cancel: Option<&'a CancelToken>,
    pub(crate) probe: Option<&'a dyn TelemetryProbe>,
    auditor: Auditor,
    budget_cycles: Option<u64>,
    /// Whether the audit walk is timed into the attached profiler (the
    /// hierarchy times its own accesses).
    profiling: bool,
    /// The core that issued the last access and its clock before it.
    last: (usize, u64),
}

impl<'a> Sim<'a> {
    /// Builds `spec`'s hierarchy for `workload`, with every core at the
    /// start of its trace.
    ///
    /// # Panics
    ///
    /// Panics if the workload's core count exceeds the system's.
    pub(crate) fn new(
        spec: &RunSpec,
        workload: &'a Workload,
        opts: &RunOptions,
        cancel: Option<&'a CancelToken>,
        probe: Option<&'a dyn TelemetryProbe>,
    ) -> Self {
        let ncores = workload.cores();
        assert!(
            ncores <= spec.system.cores,
            "workload has {ncores} cores but the system has {}",
            spec.system.cores
        );
        Sim {
            h: CacheHierarchy::new(&spec.build_hierarchy_config(workload)),
            workload,
            base_cpi: spec.system.base_cpi,
            cursor: vec![0; ncores],
            cycles: vec![0.0; ncores],
            queue: (0..ncores).collect(),
            instructions: vec![0; ncores],
            issued: 0,
            cancel,
            probe,
            auditor: Auditor::new(opts.audit),
            budget_cycles: opts.budget.map(|b| b.cycles_for(workload)),
            profiling: opts.observe.profile,
            last: (0, 0),
        }
    }

    /// Every 256 accesses, checks the cancel token's deadline and
    /// publishes a [`ProbeSnapshot`] tagged with the sampling `stratum`
    /// (0 in a full run) to the probe; between those accesses it costs
    /// one never-taken branch.
    ///
    /// # Errors
    ///
    /// [`SimError::Timeout`] once the token has fired.
    #[inline]
    pub(crate) fn poll(&self, stratum: u64) -> Result<(), SimError> {
        let issued = self.issued;
        if issued & 0xFF != 0 {
            return Ok(());
        }
        self.check_deadline()?;
        if let Some(p) = self.probe {
            let m = self.h.metrics();
            p.publish_progress(&ProbeSnapshot {
                access_index: issued,
                instructions: self.instructions.iter().sum(),
                cycles: self.window(),
                llc_accesses: m.llc_accesses,
                llc_misses: m.llc_misses,
                inclusion_victims: m.inclusion_victims,
                relocations: m.relocations,
                stratum,
            });
        }
        Ok(())
    }

    /// Checks the cancel token's deadline now, whatever the access
    /// count: [`Sim::poll`] does every 256 accesses, and the sampling
    /// engine after each fast-forward, which can jump past them.
    ///
    /// # Errors
    ///
    /// [`SimError::Timeout`] once the token has fired.
    pub(crate) fn check_deadline(&self) -> Result<(), SimError> {
        match self.cancel.and_then(|tok| tok.fired(self.issued)) {
            Some(reason) => Err(SimError::Timeout {
                reason,
                access_index: self.issued,
            }),
            None => Ok(()),
        }
    }

    /// The lagging core: the issuing core with the smallest clock, the
    /// lowest index among equal clocks, or `None` once every core has
    /// retired. Advancing it next gives the deterministic
    /// smallest-cycle-first interleaving.
    #[inline]
    pub(crate) fn lagging(&self) -> Option<usize> {
        self.queue.first().copied()
    }

    /// Stops issuing from `core`.
    pub(crate) fn retire(&mut self, core: usize) {
        self.queue.retain(|&c| c != core);
    }

    /// Restores the queue's order after clocks moved in bulk. The key is
    /// unique, so an unstable sort gives the one order.
    pub(crate) fn resort(&mut self) {
        let cycles = &self.cycles;
        self.queue.sort_unstable_by(|&a, &b| {
            let by_clock = cycles[a].partial_cmp(&cycles[b]);
            by_clock.expect("clocks are never NaN").then(a.cmp(&b))
        });
    }

    /// Moves `core`, the only core whose clock moved, to its place in the
    /// queue with one insertion pass (a retired core stays retired).
    #[inline]
    fn requeue(&mut self, core: usize) {
        let (q, cycles) = (&mut self.queue, &self.cycles);
        let Some(mut i) = q.iter().position(|&c| c == core) else {
            return;
        };
        let before =
            |a: usize, b: usize| cycles[a] < cycles[b] || (cycles[a] == cycles[b] && a < b);
        while i + 1 < q.len() && before(q[i + 1], core) {
            q[i] = q[i + 1];
            i += 1;
        }
        while i > 0 && before(core, q[i - 1]) {
            q[i] = q[i - 1];
            i -= 1;
        }
        q[i] = core;
    }

    /// Issues `core`'s next trace record to the hierarchy at global
    /// stream position `seq` and charges the core's clock. Returns
    /// whether the record was the last of the core's trace; the cursor
    /// is left past it.
    #[inline]
    pub(crate) fn issue(&mut self, core: usize, seq: u64) -> bool {
        let trace = &self.workload.traces[core];
        let rec = trace.records[self.cursor[core]];
        self.cursor[core] += 1;
        let a = Access {
            core: ziv_common::CoreId::new(core),
            addr: rec.addr,
            pc: rec.pc,
            is_write: rec.is_write,
            is_instr: false,
        };
        let now = self.cycles[core] as u64;
        let lat = self.h.access(&a, now, seq);
        let exposed = lat as f64 * (1.0 - trace.overlap);
        self.cycles[core] += (1 + rec.gap as u64) as f64 * self.base_cpi + exposed;
        self.requeue(core);
        self.instructions[core] += 1 + rec.gap as u64;
        self.last = (core, now);
        self.issued += 1;
        self.cursor[core] == trace.records.len()
    }

    /// Checks the access [`Sim::issue`] made last: the invariant audit,
    /// when the cadence makes one due, and the issuing core's clock
    /// against the watchdog budget.
    ///
    /// # Errors
    ///
    /// [`SimError::Audit`] for an invariant violation (also noted in
    /// the flight recorder) and [`SimError::BudgetExceeded`] for a
    /// clock past the budget.
    #[inline]
    pub(crate) fn check(&mut self) -> Result<(), SimError> {
        let (core, now) = self.last;
        let access_index = self.issued - 1;
        if self.auditor.due() {
            let t0 = self.profiling.then(std::time::Instant::now);
            let verdict = Auditor::check(&self.h, access_index);
            if let Some(t0) = t0 {
                self.h.profile_add(ProfileSection::Audit, t0.elapsed());
            }
            if let Err(v) = verdict {
                self.h.record_audit_violation(&v, now);
                return Err(SimError::Audit(v));
            }
        }
        if let Some(budget) = self.budget_cycles {
            let cycles = self.cycles[core] as u64;
            if cycles > budget {
                return Err(SimError::BudgetExceeded {
                    budget_cycles: budget,
                    core,
                    cycles,
                    access_index,
                });
            }
        }
        Ok(())
    }

    /// The co-run window: the slowest core's clock.
    pub(crate) fn window(&self) -> u64 {
        self.cycles.iter().copied().fold(0f64, f64::max) as u64
    }

    /// Publishes the per-core instruction/cycle clocks into the
    /// hierarchy's metrics, so an epoch sample can report per-epoch
    /// IPC. Safe to do mid-run: nothing in the simulator reads these
    /// fields.
    pub(crate) fn publish_core_clocks(&mut self) {
        let clocks = self.instructions.iter().zip(&self.cycles);
        for (m, (&instructions, &cycles)) in self.h.metrics_mut().per_core.iter_mut().zip(clocks) {
            m.instructions = instructions;
            m.cycles = cycles as u64;
        }
    }

    /// Closes the run: publishes the per-core clocks, finalizes the
    /// hierarchy and returns its results under `label`.
    pub(crate) fn result(&mut self, label: &str) -> RunResult {
        self.publish_core_clocks();
        self.h.finalize();
        debug_assert!(
            self.h.verify_invariants().is_ok(),
            "{:?}",
            self.h.verify_invariants()
        );
        RunResult {
            label: label.to_string(),
            workload: self.workload.name.clone(),
            cores: (0..self.cursor.len())
                .map(|c| CoreRunStats {
                    instructions: self.instructions[c],
                    cycles: self.cycles[c] as u64,
                    app_name: self.workload.traces[c].app_name,
                })
                .collect(),
            metrics: self.h.metrics().clone(),
        }
    }
}

/// Simulates `workload` under `spec`: the general full-run entry point
/// behind [`run_one`] and [`run_one_checked`].
///
/// The second element carries the flight-recorder payload — the epoch
/// time-series, retained events, and heatmaps — when `opts.observe`
/// enables any of them, **even when the run fails**, so failure records
/// can embed the events leading up to the violation. `None` when
/// observability is disabled.
///
/// When `cancel` is `Some`, the access loop checks the token's
/// wall-clock deadline every 256 accesses; a spent budget stops the run
/// with [`SimError::Timeout`] carrying the reason and the access
/// position. When `probe` is `Some`, the loop publishes a
/// [`ProbeSnapshot`] at the same cadence. Probes observe, never steer.
/// Between those accesses the poll is one never-taken branch, so
/// unsupervised, unwatched runs stay byte-identical and add no
/// allocations or syscalls to the hot path — the property the
/// differential determinism tests pin.
///
/// # Errors
///
/// As [`run_one_checked`], plus [`SimError::Timeout`] from `cancel`.
///
/// # Panics
///
/// Panics if the workload's core count exceeds the system's.
pub fn run_one_instrumented(
    spec: &RunSpec,
    workload: &Workload,
    opts: &RunOptions,
    cancel: Option<&CancelToken>,
    probe: Option<&dyn TelemetryProbe>,
) -> (Result<RunResult, SimError>, Option<Box<Observations>>) {
    let mut sim = Sim::new(spec, workload, opts, cancel, probe);
    let ncores = workload.cores();
    let observing = opts.observe.is_enabled();
    if let Some(mut rec) = FlightRecorder::new(
        &opts.observe,
        ncores,
        spec.system.llc.banks,
        spec.system.llc.bank_geometry.sets as usize,
    ) {
        // The leakage observatory needs the workload's attack roles, so
        // the driver (not the recorder constructor) attaches it.
        if opts.observe.leakage {
            if let Some(plan) = workload.attack.as_ref() {
                rec.attach_leakage(ziv_core::LeakageObservatory::new(
                    ncores,
                    spec.system.llc.banks,
                    spec.system.llc.bank_geometry.sets as usize,
                    &plan.attacker_cores,
                    &plan.victim_cores,
                    &plan.probe_lines,
                ));
            }
        }
        sim.h.attach_recorder(rec);
    }
    if opts.observe.profile {
        sim.h.attach_profiler(Box::new(SelfProfiler::new()));
    }
    let mut slicer = opts.observe.epoch.map(|n| EpochSlicer::new(n, ncores));

    let outcome = run_laps(&mut sim, slicer.as_mut()).map(|()| sim.result(&spec.label));
    // Close the epoch series where the run ended: after the lap rewind
    // and finalize, so the epoch deltas sum exactly to the final
    // aggregate metrics (its per-core deltas may be negative), or at the
    // failure point, so partial samples still telescope to the
    // metrics-at-failure.
    if let Some(sl) = slicer.as_mut() {
        sim.publish_core_clocks();
        sl.finish(sim.issued, sim.h.metrics());
    }
    // Drain the recorder and add what the driver holds; the leakage
    // report takes the run's SHARP alarms and its co-run window.
    let window = sim.window();
    let observations = observing.then(|| {
        let h = &mut sim.h;
        let rec = h.take_recorder();
        let mut obs = rec.map_or_else(Observations::default, |r| r.finish());
        obs.epochs = slicer.map_or_else(Vec::new, EpochSlicer::into_samples);
        obs.profile = h.take_profiler().map(|p| p.report());
        obs.dir_slice_occupancy = h.directory().slice_occupancies();
        if let Some(leakage) = obs.leakage.as_mut() {
            leakage.sharp_alarms = h.metrics().sharp_alarms;
            leakage.cycles = window;
        }
        Box::new(obs)
    });
    (outcome, observations)
}

/// The full driver's schedule: the lagging core issues next until every
/// core has completed its trace. Early-finishing cores restart their
/// trace and keep running (the paper's protocol), so contention stays
/// representative until the last core completes its segment; each core
/// is then rewound to its last completed lap.
fn run_laps(sim: &mut Sim, mut slicer: Option<&mut EpochSlicer>) -> Result<(), SimError> {
    let ncores = sim.cursor.len();
    let mut snapshots = vec![None; ncores];
    let mut done = 0usize;
    // Restarted records get fresh, never-in-the-future sequence numbers
    // so the MIN oracle treats them as never-reused.
    let mut restart_seq = sim.workload.total_accesses() * ncores as u64;
    // Bound the restart inflation: a fast private-resident core
    // co-running with a slow streaming core could otherwise re-run its
    // trace a hundred times while the slowest finishes. A core parks
    // after LAP_CAP completed laps; parked cores keep their cache
    // presence but stop issuing, and the measured window for a fast
    // core is its LAP_CAP laps of co-run exposure.
    const LAP_CAP: u32 = 12;
    let mut laps = vec![0u32; ncores];
    let issue_cap = sim.workload.total_accesses().saturating_mul(32); // backstop

    while done < ncores && sim.issued < issue_cap {
        sim.poll(0)?;
        let Some(core) = sim.lagging() else {
            break; // everyone parked (cannot happen before done == ncores)
        };
        // The policy-independent global stream position (round-robin by
        // record index), shared with the MIN oracle's future knowledge.
        let seq = if laps[core] > 0 {
            restart_seq += 1;
            restart_seq
        } else {
            (sim.cursor[core] * ncores + core) as u64
        };
        let finishing = sim.issue(core, seq);
        sim.check()?;
        if let Some(sl) = slicer.as_deref_mut() {
            if sl.due(sim.issued) {
                sim.publish_core_clocks();
                sl.slice(sim.issued, sim.h.metrics());
            }
        }
        if finishing {
            sim.cursor[core] = 0;
            if laps[core] == 0 {
                done += 1;
            }
            laps[core] += 1;
            if laps[core] == LAP_CAP {
                sim.retire(core);
            }
            // Snapshot at every completed lap: the reported IPC then
            // covers (nearly) the whole co-run window, so repeated
            // inclusion-victim damage to fast cores is measured.
            snapshots[core] = Some((
                sim.instructions[core],
                sim.cycles[core],
                sim.h.metrics().per_core[core],
            ));
        }
    }
    // A core the issue cap stopped before it finished a lap keeps its
    // progress so far.
    for (c, snapshot) in snapshots.into_iter().enumerate() {
        if let Some((instructions, cycles, per_core)) = snapshot {
            sim.instructions[c] = instructions;
            sim.cycles[c] = cycles;
            sim.h.metrics_mut().per_core[c] = per_core;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::RunSpec;
    use ziv_common::config::SystemConfig;
    use ziv_core::{LlcMode, ZivProperty};
    use ziv_workloads::{apps, mixes, ScaleParams};

    fn small_workload(cores: usize) -> Workload {
        let sys = SystemConfig::scaled();
        mixes::homogeneous(
            apps::APPS[4],
            cores,
            3_000,
            1,
            ScaleParams::from_system(&sys),
        )
    }

    #[test]
    fn run_produces_cycles_and_instructions() {
        let spec = RunSpec::new("I-LRU", SystemConfig::scaled());
        let r = run_one(&spec, &small_workload(2));
        assert_eq!(r.cores.len(), 2);
        for c in &r.cores {
            assert!(c.instructions > 3_000);
            assert!(c.cycles > 0);
            assert!(c.ipc() > 0.0);
        }
    }

    #[test]
    fn weighted_speedup_of_self_is_one() {
        let spec = RunSpec::new("I-LRU", SystemConfig::scaled());
        let r = run_one(&spec, &small_workload(2));
        assert!((r.weighted_speedup(&r) - 1.0).abs() < 1e-12);
        assert!((r.runtime_speedup(&r) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn runs_are_deterministic() {
        let spec = RunSpec::new("ZIV", SystemConfig::scaled())
            .with_mode(LlcMode::Ziv(ZivProperty::LikelyDead));
        let wl = small_workload(2);
        let a = run_one(&spec, &wl);
        let b = run_one(&spec, &wl);
        assert_eq!(a.metrics.llc_misses, b.metrics.llc_misses);
        assert_eq!(a.cores[0].cycles, b.cores[0].cycles);
    }

    #[test]
    fn zero_cycle_baseline_core_does_not_poison_speedup() {
        let spec = RunSpec::new("I-LRU", SystemConfig::scaled());
        let mut base = run_one(&spec, &small_workload(2));
        let good = run_one(&spec, &small_workload(2));
        // A parked/degenerate baseline core: zero cycles, zero IPC.
        base.cores[1].cycles = 0;
        base.cores[1].instructions = 0;
        assert_eq!(base.cores[1].checked_ipc(), None);
        let s = good.weighted_speedup(&base);
        assert!(s.is_finite(), "speedup must stay finite, got {s}");
        assert!(s > 0.0);
        // All-degenerate baseline: neutral speedup, still finite.
        base.cores[0].cycles = 0;
        assert_eq!(good.weighted_speedup(&base), 1.0);
    }

    #[test]
    fn min_policy_runs_through_spec() {
        let spec = RunSpec::new("I-MIN", SystemConfig::scaled())
            .with_policy(ziv_replacement::PolicyKind::Min);
        let r = run_one(&spec, &small_workload(2));
        assert!(r.metrics.llc_accesses > 0);
    }

    /// The core queue's front is always the core a plain argmin over the
    /// issuing cores' clocks picks, the lowest index among equal clocks,
    /// through single moves, retirements and bulk re-sorts.
    #[test]
    fn the_core_queue_front_is_the_argmin() {
        let spec = RunSpec::new("I-LRU", SystemConfig::scaled());
        let wl = small_workload(8);
        let mut sim = Sim::new(&spec, &wl, &RunOptions::default(), None, None);
        let mut issuing = [true; 8];
        let argmin = |sim: &Sim, issuing: &[bool]| {
            let mut best: Option<usize> = None;
            for c in (0..issuing.len()).filter(|&c| issuing[c]) {
                if best.is_none_or(|b| sim.cycles[c] < sim.cycles[b]) {
                    best = Some(c);
                }
            }
            best
        };
        // Quarter-cycle steps keep the sums exact, so clocks tie often;
        // a few go back, as a hand-built trace with an overlap above 1
        // would make them.
        let steps = [0.0, 0.0, 0.25, 0.5, 1.0, 1.0, 2.75, -0.5];
        let mut rng = ziv_common::SimRng::seed_from_u64(0x0c10c);
        for step in 0..5_000 {
            // The front core moves, as in both drivers, and now and then
            // another one.
            let core = match sim.lagging() {
                Some(front) if rng.chance(0.8) => front,
                _ => loop {
                    let c = rng.below_usize(8);
                    if issuing[c] {
                        break c;
                    }
                },
            };
            sim.cycles[core] += *rng.pick(&steps);
            sim.requeue(core);
            if step % 97 == 96 {
                for c in (0..8).filter(|&c| issuing[c]) {
                    sim.cycles[c] += rng.below(4) as f64 * 0.25;
                }
                sim.resort();
            }
            if step % 700 == 699 {
                issuing[core] = false;
                sim.retire(core);
            }
            assert_eq!(sim.lagging(), argmin(&sim, &issuing), "step {step}");
        }
        assert_eq!(issuing.iter().filter(|&&i| i).count(), 1);
    }

    #[test]
    fn ziv_run_has_zero_inclusion_victims() {
        // Inclusion-victim-heavy mix under LRU: private-cache-resident
        // hot sets (whose LLC copies decay to LRU) plus streaming cores
        // that keep evicting them from the LLC.
        let sys = SystemConfig::scaled();
        let sc = ScaleParams::from_system(&sys);
        let hot = mixes::homogeneous(apps::app_by_name("hotl2").unwrap(), 2, 12_000, 3, sc);
        let stream = mixes::homogeneous(apps::app_by_name("stream").unwrap(), 4, 12_000, 5, sc);
        let mut traces = hot.traces;
        traces.extend(stream.traces.into_iter().skip(2));
        let wl = Workload {
            name: "hot-vs-stream".into(),
            traces,
            attack: None,
        };
        let ziv = RunSpec::new("ZIV", sys.clone()).with_mode(LlcMode::Ziv(ZivProperty::NotInPrC));
        let incl = RunSpec::new("I", sys);
        let rz = run_one(&ziv, &wl);
        let ri = run_one(&incl, &wl);
        assert_eq!(rz.metrics.inclusion_victims, 0);
        assert!(
            ri.metrics.inclusion_victims > 0,
            "circset must create inclusion victims"
        );
    }
}
