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

/// Robustness and observability options for a checked run: audit
/// cadence, watchdog budget, and the flight-recorder configuration.
/// The default (`audit off`, no budget, observe nothing) makes
/// [`run_one_checked`] behave exactly like [`run_one`].
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
    /// Statistical sampling plan, consumed by
    /// [`run_one_sampled`](crate::run_one_sampled)'s interval-sampling
    /// loop. The full-run entry points (`run_one*`) ignore it — callers
    /// route sampled runs explicitly — so `None` (the default) keeps
    /// every existing path byte-identical to pre-sampling builds.
    /// Sampled results are estimates and are never written to the
    /// content-addressed result ledger.
    pub sampling: Option<crate::sampling::SamplingPlan>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            audit: AuditCadence::Off,
            budget: None,
            observe: ObserveConfig::disabled(),
            sampling: None,
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
    run_one_traced(spec, workload, opts).0
}

/// Publishes the driver's live per-core instruction/cycle clocks into
/// the hierarchy's metrics so an epoch sample can report per-epoch IPC.
/// Safe to do mid-run: nothing in the simulator reads these fields, and
/// the end-of-run snapshot rewind overwrites them regardless.
pub(crate) fn publish_core_clocks(h: &mut CacheHierarchy, instructions: &[u64], cycles: &[f64]) {
    let per_core = &mut h.metrics_mut().per_core;
    for c in 0..instructions.len() {
        per_core[c].instructions = instructions[c];
        per_core[c].cycles = cycles[c] as u64;
    }
}

/// Drains the slicer and the hierarchy's recorder into the run's
/// observation payload; `None` when observability was disabled.
/// `window_cycles` is the co-run window length (the slowest core's
/// clock) stamped into the leakage report so its per-Mcycle rate is
/// well-defined.
pub(crate) fn collect_observations(
    h: &mut CacheHierarchy,
    slicer: Option<EpochSlicer>,
    observing: bool,
    window_cycles: u64,
) -> Option<Box<Observations>> {
    if !observing {
        return None;
    }
    let rec = h.take_recorder().map(|r| r.finish()).unwrap_or_default();
    let leakage = rec.leakage.map(|mut l| {
        l.cycles = window_cycles;
        l
    });
    let profile = h.take_profiler().map(|p| p.report());
    Some(Box::new(Observations {
        epochs: slicer.map_or_else(Vec::new, EpochSlicer::into_samples),
        events: rec.events,
        events_recorded: rec.events_recorded,
        heatmap: rec.heatmap,
        latency: rec.latency,
        leakage,
        forensics: rec.forensics,
        profile,
        dir_slice_occupancy: h.directory().slice_occupancies(),
    }))
}

/// Build a [`ProbeSnapshot`] from the driver's running state — a few
/// counter reads, no allocation. Shared with the sampling loop, which
/// passes its current phase as `stratum`.
pub(crate) fn probe_snapshot(
    h: &CacheHierarchy,
    instructions: &[u64],
    cycles: &[f64],
    issued: u64,
    stratum: u64,
) -> ProbeSnapshot {
    let m = h.metrics();
    ProbeSnapshot {
        access_index: issued,
        instructions: instructions.iter().sum(),
        cycles: cycles.iter().copied().fold(0f64, f64::max) as u64,
        llc_accesses: m.llc_accesses,
        llc_misses: m.llc_misses,
        inclusion_victims: m.inclusion_victims,
        relocations: m.relocations,
        stratum,
    }
}

/// [`run_one_checked`] plus the flight-recorder payload: the second
/// element carries the epoch time-series, retained events, and heatmaps
/// when `opts.observe` enables any of them — **even when the run
/// fails**, so failure records can embed the events leading up to the
/// violation. `None` when observability is disabled.
pub fn run_one_traced(
    spec: &RunSpec,
    workload: &Workload,
    opts: &RunOptions,
) -> (Result<RunResult, SimError>, Option<Box<Observations>>) {
    run_one_supervised(spec, workload, opts, None)
}

/// [`run_one_traced`] under an optional cooperative [`CancelToken`].
///
/// When `cancel` is `Some`, the access loop polls the token once per
/// access (one relaxed atomic load) and publishes coarse progress; a
/// fired token stops the run with [`SimError::Timeout`] carrying the
/// cancellation reason and the access position. When `cancel` is `None`
/// the poll site is a single never-taken branch, so unsupervised runs
/// stay byte-identical — the property the differential determinism
/// tests pin.
///
/// A hierarchy wedged by [`ziv_core::FaultInjection::HangCore`] parks
/// here, burning wall-clock time (not simulated cycles) until the token
/// fires; without a token the hang is converted into an immediate
/// [`SimError::Timeout`] rather than wedging the caller forever.
pub fn run_one_supervised(
    spec: &RunSpec,
    workload: &Workload,
    opts: &RunOptions,
    cancel: Option<&CancelToken>,
) -> (Result<RunResult, SimError>, Option<Box<Observations>>) {
    run_one_instrumented(spec, workload, opts, cancel, None)
}

/// [`run_one_supervised`] plus an optional live-telemetry probe.
///
/// The probe mirrors the cancel token's cost model: when `probe` is
/// `Some`, the access loop publishes a [`ProbeSnapshot`] every 256
/// accesses (the cadence the supervisor already polls at); when `None`
/// the publish site is a single never-taken branch, so unwatched runs
/// add zero allocations and no mmap or clock syscalls to the hot path.
/// Probes observe, never steer: results are byte-identical either way.
pub fn run_one_instrumented(
    spec: &RunSpec,
    workload: &Workload,
    opts: &RunOptions,
    cancel: Option<&CancelToken>,
    probe: Option<&dyn TelemetryProbe>,
) -> (Result<RunResult, SimError>, Option<Box<Observations>>) {
    let hier_cfg = spec.build_hierarchy_config(workload);
    let mut h = CacheHierarchy::new(&hier_cfg);
    let ncores = workload.cores();
    assert!(
        ncores <= spec.system.cores,
        "workload has {ncores} cores but the system has {}",
        spec.system.cores
    );
    let base_cpi = spec.system.base_cpi;

    // Per-core progress state. Early-finishing cores restart their
    // trace and keep running (the paper's protocol), so contention
    // stays representative until the last core completes its segment;
    // per-core statistics are snapshotted at each core's *first*
    // completion.
    let mut cursor = vec![0usize; ncores];
    let mut cycles = vec![0f64; ncores];
    let mut instructions = vec![0u64; ncores];
    let mut completed = vec![false; ncores];
    let mut snapshots: Vec<Option<(u64, u64, ziv_core::metrics::CoreMetrics)>> = vec![None; ncores];
    let mut done = 0usize;
    // Restarted records get fresh, never-in-the-future sequence numbers
    // so the MIN oracle treats them as never-reused.
    let total_seq = workload.total_accesses() * ncores as u64;
    let mut restart_seq = total_seq;
    // Bound the restart inflation: a fast private-resident core
    // co-running with a slow streaming core could otherwise re-run its
    // trace a hundred times while the slowest finishes. A core parks
    // after LAP_CAP completed laps; parked cores keep their cache
    // presence but stop issuing, and the measured window for a fast
    // core is its LAP_CAP laps of co-run exposure.
    const LAP_CAP: u32 = 12;
    let mut laps = vec![0u32; ncores];
    let mut issued = 0u64;
    let issue_cap = workload.total_accesses().saturating_mul(32); // backstop
    let mut auditor = Auditor::new(opts.audit);
    let budget_cycles = opts.budget.map(|b| b.cycles_for(workload));
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
        h.attach_recorder(rec);
    }
    let profiling = opts.observe.profile;
    if profiling {
        h.attach_profiler(Box::new(SelfProfiler::new()));
    }
    let mut slicer = opts.observe.epoch.map(|n| EpochSlicer::new(n, ncores));
    let mut failure: Option<SimError> = None;

    // Smallest-cycle-first global interleaving.
    'sim: while done < ncores && issued < issue_cap {
        if let Some(tok) = cancel {
            if let Some(reason) = tok.fired(issued) {
                failure = Some(SimError::Timeout {
                    reason,
                    access_index: issued,
                });
                break 'sim;
            }
            // Fine-grained enough (256 accesses) that a supervisor's
            // stall detector can tell a slow cell from a wedged one
            // even in unoptimized builds.
            if issued & 0xFF == 0 {
                tok.note_progress(issued);
            }
        }
        if let Some(p) = probe {
            if issued & 0xFF == 0 {
                p.publish_progress(&probe_snapshot(&h, &instructions, &cycles, issued, 0));
            }
        }
        // Find the lagging unparked core.
        let mut core = usize::MAX;
        let mut best = f64::INFINITY;
        for c in 0..ncores {
            if laps[c] < LAP_CAP && cycles[c] < best {
                best = cycles[c];
                core = c;
            }
        }
        if core == usize::MAX {
            break; // everyone parked (cannot happen before done == ncores)
        }
        let trace = &workload.traces[core];
        let rec = trace.records[cursor[core]];
        // The policy-independent global stream position (round-robin by
        // record index), shared with the MIN oracle's future knowledge.
        let seq = if completed[core] {
            restart_seq += 1;
            restart_seq
        } else {
            (cursor[core] * ncores + core) as u64
        };
        cursor[core] += 1;
        let finishing = cursor[core] == trace.records.len();
        if finishing {
            cursor[core] = 0;
        }

        let a = Access {
            core: ziv_common::CoreId::new(core),
            addr: rec.addr,
            pc: rec.pc,
            is_write: rec.is_write,
            is_instr: false,
        };
        let now = cycles[core] as u64;
        let t0 = profiling.then(std::time::Instant::now);
        let lat = h.access(&a, now, seq);
        if let Some(t0) = t0 {
            h.profile_add(ProfileSection::Hierarchy, t0.elapsed());
        }
        let exposed = lat as f64 * (1.0 - trace.overlap);
        cycles[core] += (1 + rec.gap as u64) as f64 * base_cpi + exposed;
        instructions[core] += 1 + rec.gap as u64;

        let access_index = issued;
        issued += 1;
        if h.is_hung() {
            // An injected hang wedged the model mid-access: no further
            // progress is possible. Park on wall-clock time (the real
            // hang signature) until the supervisor cancels us; without
            // a supervisor, fail immediately instead of wedging the
            // caller forever.
            let reason = match cancel {
                Some(tok) => loop {
                    if let Some(reason) = tok.fired(issued) {
                        break reason;
                    }
                    tok.note_progress(issued);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                },
                None => "model hung (hang-core fault) with no supervisor attached".into(),
            };
            failure = Some(SimError::Timeout {
                reason,
                access_index,
            });
            break 'sim;
        }
        if auditor.due() {
            let t0 = profiling.then(std::time::Instant::now);
            let verdict = Auditor::check(&h, access_index);
            if let Some(t0) = t0 {
                h.profile_add(ProfileSection::Audit, t0.elapsed());
            }
            if let Err(v) = verdict {
                h.record_audit_violation(&v, now);
                failure = Some(SimError::Audit(v));
                break 'sim;
            }
        }
        if let Some(budget) = budget_cycles {
            let c = cycles[core] as u64;
            if c > budget {
                failure = Some(SimError::BudgetExceeded {
                    budget_cycles: budget,
                    core,
                    cycles: c,
                    access_index,
                });
                break 'sim;
            }
        }
        if let Some(sl) = slicer.as_mut() {
            if sl.due(issued) {
                publish_core_clocks(&mut h, &instructions, &cycles);
                sl.slice(issued, h.metrics());
            }
        }
        if finishing {
            laps[core] += 1;
            if !completed[core] {
                completed[core] = true;
                done += 1;
            }
            // Snapshot at every completed lap: the reported IPC then
            // covers (nearly) the whole co-run window, so repeated
            // inclusion-victim damage to fast cores is measured.
            snapshots[core] = Some((
                instructions[core],
                cycles[core] as u64,
                h.metrics().per_core[core],
            ));
        }
    }

    if let Some(err) = failure {
        // Close the epoch series at the failure point so partial
        // samples still telescope to the metrics-at-failure.
        if let Some(sl) = slicer.as_mut() {
            publish_core_clocks(&mut h, &instructions, &cycles);
            sl.finish(issued, h.metrics());
        }
        let window = cycles.iter().copied().fold(0f64, f64::max) as u64;
        let obs = collect_observations(&mut h, slicer, observing, window);
        return (Err(err), obs);
    }

    for c in 0..ncores {
        if snapshots[c].is_none() {
            // Issue cap reached before this core finished: snapshot its
            // progress so far.
            snapshots[c] = Some((instructions[c], cycles[c] as u64, h.metrics().per_core[c]));
        }
        let (instr, cyc, mut per_core) = snapshots[c].expect("every core snapshotted");
        per_core.instructions = instr;
        per_core.cycles = cyc;
        h.metrics_mut().per_core[c] = per_core;
        instructions[c] = instr;
        cycles[c] = cyc as f64;
    }
    h.finalize();
    debug_assert!(h.verify_invariants().is_ok(), "{:?}", h.verify_invariants());
    // The closing sample is taken *after* the per-core lap rewind and
    // finalize() above, so the epoch deltas sum exactly to the final
    // aggregate metrics (its per-core deltas may be negative).
    if let Some(sl) = slicer.as_mut() {
        sl.finish(issued, h.metrics());
    }
    let window = cycles.iter().copied().fold(0f64, f64::max) as u64;
    let observations = collect_observations(&mut h, slicer, observing, window);

    let result = RunResult {
        label: spec.label.clone(),
        workload: workload.name.clone(),
        cores: (0..ncores)
            .map(|c| CoreRunStats {
                instructions: instructions[c],
                cycles: cycles[c] as u64,
                app_name: workload.traces[c].app_name,
            })
            .collect(),
        metrics: h.metrics().clone(),
    };
    (Ok(result), observations)
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
