//! The full CMP cache hierarchy: per-core private caches, the shared
//! LLC (in any of the seven modes), the sparse directory, the CHAR
//! engine, the mesh, and main memory — orchestrated access by access.

use crate::audit::FaultInjection;
use crate::forensics::ChainKind;
use crate::latency::{AccessClass, LatencyBreakdown};
use crate::llc::{EvictedBlock, FillOutcome, LlcMode, SharedLlc, VictimReason, ZivProperty};
use crate::metrics::Metrics;
use crate::observe::{FlightRecorder, HierarchyEvent, TearOut};
use crate::prefetch::{PrefetchConfig, StridePrefetcher};
use crate::private::{EvictionNotice, PrivLookup, PrivateHierarchy};
use crate::profile::{ProfileSection, SelfProfiler};
use std::rc::Rc;
use std::time::Instant;
use ziv_char::{CharConfig, CharEngine};
use ziv_common::config::SystemConfig;
use ziv_common::{Addr, CoreId, Cycle, LineAddr};
use ziv_directory::{
    DirectoryMode, EvictedEntry, LlcLocation, RemovalOutcome, SharerSet, SparseDirectory,
};
use ziv_dram::DramModel;
use ziv_noc::Mesh;
use ziv_replacement::{AccessCtx, FutureKnowledge, PolicyKind};

/// One demand access from a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Issuing core.
    pub core: CoreId,
    /// Byte address.
    pub addr: Addr,
    /// Program counter (feeds Hawkeye's predictor).
    pub pc: u64,
    /// Whether this is a store.
    pub is_write: bool,
    /// Whether this is an instruction fetch.
    pub is_instr: bool,
}

impl Access {
    /// A data read.
    pub fn read(core: CoreId, addr: Addr, pc: u64) -> Self {
        Access {
            core,
            addr,
            pc,
            is_write: false,
            is_instr: false,
        }
    }

    /// A data write.
    pub fn write(core: CoreId, addr: Addr, pc: u64) -> Self {
        Access {
            core,
            addr,
            pc,
            is_write: true,
            is_instr: false,
        }
    }
}

/// Configuration for building a [`CacheHierarchy`].
#[derive(Debug, Clone)]
pub struct HierarchyConfig {
    /// The machine (Table I).
    pub system: SystemConfig,
    /// LLC management mode.
    pub mode: LlcMode,
    /// Baseline LLC replacement policy.
    pub policy: PolicyKind,
    /// Sparse-directory eviction handling.
    pub dir_mode: DirectoryMode,
    /// CHAR tuning.
    pub char_cfg: CharConfig,
    /// Seed for the (rare) randomized choices (SHARP step 3).
    pub seed: u64,
    /// Future knowledge for the MIN oracle policy.
    pub future: Option<Rc<dyn FutureKnowledge>>,
    /// Optional per-core stride prefetcher (the prefetching × inclusion
    /// extension study; Table I's machine has none).
    pub prefetch: Option<PrefetchConfig>,
    /// Optional deliberate fault injection (mutation tests and campaign
    /// fault-isolation tests). `None` in every real experiment.
    pub fault: Option<FaultInjection>,
}

impl HierarchyConfig {
    /// Default configuration: inclusive LLC, LRU, MESI directory.
    pub fn new(system: SystemConfig) -> Self {
        HierarchyConfig {
            system,
            mode: LlcMode::Inclusive,
            policy: PolicyKind::Lru,
            dir_mode: DirectoryMode::Mesi,
            char_cfg: CharConfig::default(),
            seed: 0x5eed,
            future: None,
            prefetch: None,
            fault: None,
        }
    }

    /// Sets the LLC mode.
    pub fn with_mode(mut self, mode: LlcMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the baseline replacement policy.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the directory mode (Fig 15's ZeroDEV arm).
    pub fn with_dir_mode(mut self, dir_mode: DirectoryMode) -> Self {
        self.dir_mode = dir_mode;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Supplies future knowledge (required for [`PolicyKind::Min`]).
    pub fn with_future(mut self, future: Rc<dyn FutureKnowledge>) -> Self {
        self.future = Some(future);
        self
    }

    /// Sets CHAR tuning.
    pub fn with_char(mut self, char_cfg: CharConfig) -> Self {
        self.char_cfg = char_cfg;
        self
    }

    /// Enables per-core stride prefetching.
    pub fn with_prefetch(mut self, prefetch: PrefetchConfig) -> Self {
        self.prefetch = Some(prefetch);
        self
    }

    /// Arms a deliberate fault (see [`FaultInjection`]).
    pub fn with_fault(mut self, fault: FaultInjection) -> Self {
        self.fault = Some(fault);
        self
    }
}

/// The simulated cache hierarchy.
#[derive(Debug)]
pub struct CacheHierarchy {
    cfg: SystemConfig,
    mode: LlcMode,
    cores: Vec<PrivateHierarchy>,
    llc: SharedLlc,
    dir: SparseDirectory,
    char_engine: CharEngine,
    dram: DramModel,
    mesh: Mesh,
    metrics: Metrics,
    notice_buf: Vec<EvictionNotice>,
    prefetchers: Option<Vec<StridePrefetcher>>,
    /// Per-core private-hit counters for TLH hint sampling.
    tlh_counters: Vec<u32>,
    /// Armed fault injection; cleared once a one-shot fault is applied.
    fault: Option<FaultInjection>,
    /// Demand accesses performed (drives fault timing; also the access
    /// index reported by [`CacheHierarchy::verify_invariants`]).
    accesses_done: u64,
    /// When set, the next inclusive back-invalidation is "lost"
    /// ([`FaultInjection::SkipBackInvalidation`]).
    skip_next_back_invalidation: bool,
    /// Set when an injected [`FaultInjection::HangCore`] fires: the
    /// model is wedged and will make no further progress. The driver
    /// polls [`CacheHierarchy::is_hung`] and parks the cell until the
    /// supervisor cancels it.
    hung: bool,
    /// Attached flight recorder, the consumer of the hierarchy's
    /// [`HierarchyEvent`] stream after [`Metrics::count`]. `None` in
    /// every untraced run: each emission site pays its counters and one
    /// branch, keeping the hot path allocation-free.
    recorder: Option<Box<FlightRecorder>>,
    /// Attached wall-clock self-profiler (`--profile`). It counts every
    /// span and times one access in [`crate::profile::SAMPLE_PERIOD`].
    /// `None` in every unprofiled run: each span pays one branch and
    /// never reads the clock. Timing never perturbs simulation results.
    profiler: Option<Box<SelfProfiler>>,
    /// Set between [`CacheHierarchy::begin_warmup`] and
    /// [`CacheHierarchy::end_warmup`]: the metrics snapshot to restore
    /// plus the observability hooks parked for the duration, making
    /// functional warmup provably metric-silent.
    warmup: Option<Box<WarmupSnapshot>>,
}

/// State parked by [`CacheHierarchy::begin_warmup`].
#[derive(Debug)]
struct WarmupSnapshot {
    metrics: Metrics,
    recorder: Option<Box<FlightRecorder>>,
    profiler: Option<Box<SelfProfiler>>,
}

impl CacheHierarchy {
    /// Builds the hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.policy` is [`PolicyKind::Min`] and no future
    /// knowledge was supplied, or if a `MaxRRPV*` ZIV property is paired
    /// with a policy that has no RRPVs.
    pub fn new(cfg: &HierarchyConfig) -> Self {
        if let LlcMode::Ziv(p @ (ZivProperty::MaxRrpvNotInPrC | ZivProperty::MaxRrpvLikelyDead)) =
            cfg.mode
        {
            assert!(
                cfg.policy.is_rrpv_based(),
                "{} requires an RRPV-graded policy (SRRIP/Hawkeye)",
                p.label()
            );
        }
        let sys = &cfg.system;
        let cores = (0..sys.cores)
            .map(|_| PrivateHierarchy::new(sys.l1i, sys.l1d, sys.l2))
            .collect();
        let future = cfg.future.clone();
        let policy_kind = cfg.policy;
        let seed = cfg.seed;
        let llc = SharedLlc::new(
            sys.llc,
            cfg.mode,
            |b| {
                policy_kind.build_with_future(
                    sys.llc.bank_geometry,
                    seed ^ b as u64,
                    future.clone(),
                )
            },
            seed,
        );
        let mut h = CacheHierarchy {
            cfg: sys.clone(),
            mode: cfg.mode,
            cores,
            llc,
            dir: SparseDirectory::new(sys, cfg.dir_mode),
            char_engine: CharEngine::new(sys.cores, sys.llc.banks, cfg.char_cfg),
            dram: DramModel::new(sys.dram),
            mesh: Mesh::new(sys.cores, sys.llc.banks, sys.noc),
            metrics: Metrics::new(sys.cores),
            notice_buf: Vec::new(),
            prefetchers: cfg
                .prefetch
                .map(|p| (0..sys.cores).map(|_| StridePrefetcher::new(p)).collect()),
            tlh_counters: vec![0; sys.cores],
            fault: cfg.fault,
            accesses_done: 0,
            skip_next_back_invalidation: false,
            hung: false,
            recorder: None,
            profiler: None,
            warmup: None,
        };
        if let LlcMode::WayPartitioned = cfg.mode {
            let parts = sys.cores.min(sys.llc.bank_geometry.ways as usize);
            h.llc.set_partitions(parts);
        }
        h
    }

    /// The system configuration.
    pub fn system(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The LLC mode.
    pub fn mode(&self) -> LlcMode {
        self.mode
    }

    /// The accumulated statistics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable statistics (the driving simulator records instructions
    /// and cycles here).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Attaches a flight recorder; subsequent accesses emit events
    /// and/or heatmap counts into it. Recording never alters simulation
    /// behavior or metrics.
    pub fn attach_recorder(&mut self, recorder: Box<FlightRecorder>) {
        self.recorder = Some(recorder);
    }

    /// Detaches the flight recorder for draining, if one was attached.
    pub fn take_recorder(&mut self) -> Option<Box<FlightRecorder>> {
        self.recorder.take()
    }

    /// Attaches a wall-clock self-profiler; subsequent accesses count
    /// their spans into it, and the first and one in
    /// [`crate::profile::SAMPLE_PERIOD`] after it are timed. Profiling
    /// never alters simulation behavior or metrics.
    pub fn attach_profiler(&mut self, profiler: Box<SelfProfiler>) {
        self.profiler = Some(profiler);
    }

    /// Detaches the self-profiler for reporting, if one was attached.
    pub fn take_profiler(&mut self) -> Option<Box<SelfProfiler>> {
        self.profiler.take()
    }

    /// Enters **functional warmup**: subsequent [`CacheHierarchy::access`]
    /// calls update every piece of microarchitectural state (caches,
    /// directory, replacement, CHAR, DRAM row state) exactly as usual,
    /// but the timing [`Metrics`] are restored verbatim when
    /// [`CacheHierarchy::end_warmup`] closes the scope, and the flight
    /// recorder / self-profiler are parked so observability sees
    /// nothing. This is the sampling engine's fast-forward primitive:
    /// state gets warmed, statistics stay silent.
    ///
    /// # Panics
    ///
    /// Panics if a warmup scope is already open.
    pub fn begin_warmup(&mut self) {
        assert!(self.warmup.is_none(), "warmup scope is already open");
        self.warmup = Some(Box::new(WarmupSnapshot {
            metrics: self.metrics.clone(),
            recorder: self.recorder.take(),
            profiler: self.profiler.take(),
        }));
    }

    /// Leaves functional warmup: restores the [`Metrics`] snapshot taken
    /// by [`CacheHierarchy::begin_warmup`] and re-attaches any parked
    /// observability hooks. Microarchitectural state keeps everything
    /// the warm accesses taught it.
    ///
    /// # Panics
    ///
    /// Panics if no warmup scope is open.
    pub fn end_warmup(&mut self) {
        let snap = self.warmup.take().expect("no warmup scope is open");
        self.metrics = snap.metrics;
        self.recorder = snap.recorder;
        self.profiler = snap.profiler;
    }

    /// Whether a functional-warmup scope is currently open.
    pub fn is_warming(&self) -> bool {
        self.warmup.is_some()
    }

    /// Adds one span timed outside the access (the driver's audit
    /// walk); a no-op without a profiler.
    #[inline]
    pub fn profile_add(&mut self, section: ProfileSection, elapsed: std::time::Duration) {
        if let Some(p) = self.profiler.as_mut() {
            p.add(section, elapsed);
        }
    }

    /// Starts a span: reads the clock only in an access the attached
    /// profiler times.
    #[inline]
    fn span_start(&self) -> Option<Instant> {
        self.profiler.as_ref().and_then(|p| p.start())
    }

    /// Ends a span started by [`Self::span_start`]: the profiler counts
    /// it, and adds its time when it was timed.
    #[inline]
    fn span_end(&mut self, t0: Option<Instant>, section: ProfileSection) {
        if let Some(p) = self.profiler.as_mut() {
            p.end(section, t0);
        }
    }

    /// Records an audit violation into the attached recorder (no-op
    /// without one); the driver calls this before aborting a run so the
    /// ring retains the verdict alongside the events leading up to it.
    pub fn record_audit_violation(&mut self, v: &ziv_common::AuditViolation, now: Cycle) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.record_violation(v, now);
        }
    }

    /// Reports `ev`, which happened at `now` during the current access:
    /// [`Metrics::count`] counts it, always, then the attached recorder
    /// sees it. Force-inlined like `count` (DESIGN.md §8).
    #[inline(always)]
    fn observe(&mut self, now: Cycle, ev: HierarchyEvent) {
        self.metrics.count(&ev);
        if let Some(rec) = self.recorder.as_mut() {
            rec.observe(self.accesses_done.saturating_sub(1), now, ev);
        }
    }

    /// The DRAM model (energy/row-hit diagnostics).
    pub fn dram(&self) -> &DramModel {
        &self.dram
    }

    /// The CHAR engine (threshold diagnostics).
    pub fn char_engine(&self) -> &CharEngine {
        &self.char_engine
    }

    /// The sparse directory (occupancy diagnostics, tests).
    pub fn directory(&self) -> &SparseDirectory {
        &self.dir
    }

    /// The shared LLC (tests).
    pub fn llc(&self) -> &SharedLlc {
        &self.llc
    }

    /// The shared LLC, mutable (unit tests that corrupt its state).
    #[cfg(test)]
    pub(crate) fn llc_mut(&mut self) -> &mut SharedLlc {
        &mut self.llc
    }

    /// The sparse directory, mutable (unit tests that corrupt its state).
    #[cfg(test)]
    pub(crate) fn dir_mut(&mut self) -> &mut SparseDirectory {
        &mut self.dir
    }

    /// Merges per-bank relocation-interval histograms into the metrics
    /// (call once at end of simulation; Fig 18).
    pub fn finalize(&mut self) {
        for b in 0..self.llc.bank_count() {
            let hist = self
                .llc
                .bank(ziv_common::BankId::new(b))
                .relocation_intervals
                .clone();
            self.metrics.relocation_intervals.merge(&hist);
        }
        self.metrics.dram_energy_pj = self.dram.total_energy_pj();
    }

    /// Performs one demand access at cycle `now` with global stream
    /// position `seq`; returns the access latency in cycles.
    ///
    /// Every returned latency is the sum of a per-component
    /// [`LatencyBreakdown`], and the access's event carries that
    /// breakdown to [`Metrics::access_latency_cycles`] and the latency
    /// observatory alike. Injected fault stalls emit no access event:
    /// they count in neither.
    ///
    /// With a profiler attached, the whole access is its `hierarchy`
    /// span, and the profiler decides here whether this access and the
    /// spans nested in it are timed.
    pub fn access(&mut self, a: &Access, now: Cycle, seq: u64) -> Cycle {
        let t0 = self.profiler.as_mut().and_then(|p| p.start_access());
        let lat = self.serve(a, now, seq);
        self.span_end(t0, ProfileSection::Hierarchy);
        lat
    }

    /// The body of [`Self::access`], inside its profiler span.
    fn serve(&mut self, a: &Access, now: Cycle, seq: u64) -> Cycle {
        let access_index = self.accesses_done;
        self.accesses_done += 1;
        if self.fault.is_some() {
            if let Some(stall) = self.apply_fault(access_index, a.core) {
                return stall;
            }
        }
        let line = a.addr.line();
        let outcome =
            self.cores[a.core.index()].access(line, a.is_instr, a.is_write, &mut self.notice_buf);
        // A store to a copy the core already held dirty needs no upgrade:
        // a dirty private copy means the directory names this core as
        // dirty owner and only sharer (the auditor's `dirty-not-exclusive`
        // check), so `ensure_exclusive` would change nothing.
        let (breakdown, class) = match outcome {
            PrivLookup::L1Hit { owned } => {
                self.drain_notices(a.core, now);
                if a.is_write && !owned {
                    self.ensure_exclusive(line, a.core, now);
                }
                self.maybe_send_tlh_hint(a, line, now, seq);
                let b = LatencyBreakdown {
                    l1: self.cfg.l1_latency.max(1),
                    ..LatencyBreakdown::default()
                };
                (b, AccessClass::L1Hit)
            }
            PrivLookup::L2Hit { owned } => {
                self.drain_notices(a.core, now);
                if a.is_write && !owned {
                    self.ensure_exclusive(line, a.core, now);
                }
                self.maybe_send_tlh_hint(a, line, now, seq);
                self.issue_prefetches(a, line, now, seq);
                let b = LatencyBreakdown {
                    l2: self.cfg.l2_latency,
                    ..LatencyBreakdown::default()
                };
                (b, AccessClass::L2Hit)
            }
            PrivLookup::Miss => {
                // Reported before the LLC stage: a miss on a line torn
                // out of this core is an inclusion-victim refetch (Fig
                // 2's cost), and the stage's fill may tear out and note
                // other lines in the same victim-table slot.
                let core = a.core;
                self.observe(now, HierarchyEvent::LlcLookup { core, line });
                let (b, class) = self.llc_access(a, line, now, seq);
                self.issue_prefetches(a, line, now, seq);
                (b, class)
            }
        };
        self.observe(
            now,
            HierarchyEvent::Access {
                core: a.core,
                line,
                class,
                breakdown,
            },
        );
        breakdown.total()
    }

    /// TLH (Jaleel et al. MICRO 2010): every `hint_one_in`-th private-
    /// cache hit informs the LLC so the block's replacement state stays
    /// fresh despite the hit being invisible to the LLC.
    #[inline]
    fn maybe_send_tlh_hint(&mut self, a: &Access, line: LineAddr, now: Cycle, seq: u64) {
        let LlcMode::Tlh { hint_one_in } = self.mode else {
            return;
        };
        let ci = a.core.index();
        self.tlh_counters[ci] += 1;
        if self.tlh_counters[ci] < hint_one_in {
            return;
        }
        self.tlh_counters[ci] = 0;
        if let Some(loc) = self.llc.probe(line) {
            let ctx = AccessCtx {
                line,
                pc: a.pc,
                core: a.core,
                now,
                seq,
                is_write: false,
            };
            self.llc.on_hit(loc, &ctx);
            self.observe(now, HierarchyEvent::TlhHint);
        }
    }

    /// Trains the core's stride prefetcher on the L1-miss stream and
    /// performs the resulting prefetch fills (off the critical path: no
    /// latency is charged to the core).
    fn issue_prefetches(&mut self, a: &Access, line: LineAddr, now: Cycle, seq: u64) {
        let Some(prefetchers) = self.prefetchers.as_mut() else {
            return;
        };
        for cand in prefetchers[a.core.index()].train(a.pc, line) {
            self.prefetch_one(a.core, cand, a.pc, now, seq);
        }
    }

    /// Prefetches `line` into `core`'s L2 (and the LLC, per the paper's
    /// first inclusion action). Dropped when already resident or when a
    /// dirty remote owner would need downgrading. Every prefetch issued
    /// ends in one drop or one fill event.
    fn prefetch_one(&mut self, core: CoreId, line: LineAddr, pc: u64, now: Cycle, seq: u64) {
        if self.cores[core.index()].contains(line) {
            self.observe(now, HierarchyEvent::PrefetchDrop);
            return;
        }
        let entry = self.dir.probe(line).copied();
        if entry.is_some_and(|e| e.dirty_owner.is_some()) {
            self.observe(now, HierarchyEvent::PrefetchDrop);
            return;
        }
        let ctx = AccessCtx {
            line,
            pc,
            core,
            now,
            seq,
            is_write: false,
        };
        let from_llc = if let Some(loc) = self.llc.probe(line) {
            self.llc.on_hit(loc, &ctx);
            true
        } else if let Some(rloc) = entry.and_then(|e| e.relocated) {
            self.llc.on_relocated_hit(rloc, &ctx);
            true
        } else if entry.is_some_and(|e| !e.sharers.is_empty()) {
            // The non-inclusive fourth case: not worth a prefetch.
            self.observe(now, HierarchyEvent::PrefetchDrop);
            return;
        } else {
            let t0 = self.span_start();
            let fill = self.llc.fill(line, &ctx, &self.dir, core, now);
            self.span_end(t0, ProfileSection::Replacement);
            self.apply_fill_outcome(line, fill, core, now);
            let t0 = self.span_start();
            let _ = self.dram.access(line, now, false);
            self.span_end(t0, ProfileSection::Dram);
            false
        };
        let t0 = self.span_start();
        let dir_ev = self.dir.record_fill(line, core);
        self.span_end(t0, ProfileSection::Directory);
        if let Some(ev) = dir_ev {
            self.handle_dir_eviction(ev, now);
        }
        self.cores[core.index()].prefetch_fill(line, from_llc, &mut self.notice_buf);
        self.drain_notices(core, now);
        self.observe(now, HierarchyEvent::PrefetchFill { from_llc });
    }

    /// The LLC + directory stage of a private miss; returns the
    /// per-component latency breakdown and the access class it lands in,
    /// which decides what the access's event counts.
    fn llc_access(
        &mut self,
        a: &Access,
        line: LineAddr,
        now: Cycle,
        seq: u64,
    ) -> (LatencyBreakdown, AccessClass) {
        let ci = a.core.index();
        let home = self.cfg.home_bank(line);
        let mut b = LatencyBreakdown {
            noc: self.mesh.round_trip(a.core, home),
            llc_tag: self.cfg.llc.tag_latency,
            llc_data: self.cfg.llc.data_latency,
            ..LatencyBreakdown::default()
        };
        let base = b.total();
        let ctx = AccessCtx {
            line,
            pc: a.pc,
            core: a.core,
            now,
            seq,
            is_write: a.is_write,
        };

        // Case 1: hit on a non-relocated block.
        if let Some(loc) = self.llc.probe(line) {
            let extra = self.coherence_data_fetch(line, a.core, home, Some(loc));
            if a.is_write {
                self.ensure_exclusive(line, a.core, now);
            }
            if let Some((owner, group)) = self.llc.on_hit(loc, &ctx) {
                if owner as usize == ci {
                    self.char_engine.on_recall(ci, group);
                }
            }
            self.fill_private_and_dir(line, a, true, now);
            b.noc += extra;
            return (b, AccessClass::LlcHit);
        }

        // Cases 2 and 3 ask the directory about a line the LLC's own sets
        // miss; one lookup answers both.
        let entry = self.dir.probe(line).copied();

        // Case 2: hit on a relocated block, found through the directory
        // (Section III-C1: only ever reached by a new sharer core).
        if let Some(rloc) = entry.and_then(|e| e.relocated) {
            let extra = self.coherence_data_fetch(line, a.core, home, Some(rloc));
            if a.is_write {
                self.ensure_exclusive(line, a.core, now);
            }
            self.llc.on_relocated_hit(rloc, &ctx);
            self.fill_private_and_dir(line, a, true, now);
            // The relocated-access penalty is the directory indirection
            // (Section III-C1); the detour hops ride the NoC.
            b.directory += self.cfg.relocated_access_penalty();
            b.noc += 2 * self.mesh.detour(home, rloc.bank) + extra;
            return (b, AccessClass::LlcRelocatedHit);
        }

        // Case 3: directory hit but LLC miss — the "fourth case" that
        // only a non-inclusive hierarchy must handle (Section I-A).
        if let Some(e) = entry.filter(|e| !e.sharers.is_empty()) {
            debug_assert!(
                self.mode.allows_llc_miss_under_dir_hit(),
                "inclusive invariant violated: directory hit without an LLC copy for {line}"
            );
            // A special sharer supplies the data (extra protocol hop).
            let supplier = e.sharers.iter().next().unwrap_or(a.core);
            let owner_dirty = e.dirty_owner.is_some();
            let extra = self.mesh.round_trip(supplier, home);
            if let Some(owner) = e.dirty_owner {
                self.cores[owner.index()].clean(line);
                if let Some(e) = self.dir.probe_mut(line) {
                    e.dirty_owner = None;
                }
            }
            let t0 = self.span_start();
            let fill = self.llc.fill(line, &ctx, &self.dir, a.core, now);
            self.span_end(t0, ProfileSection::Replacement);
            self.apply_fill_outcome(line, fill, a.core, now);
            if owner_dirty {
                self.llc.update_state(fill.loc, |s| s.dirty = true);
            }
            if a.is_write {
                self.ensure_exclusive(line, a.core, now);
            }
            self.fill_private_and_dir(line, a, false, now);
            b.noc += extra;
            return (b, AccessClass::LlcMissSupplied);
        }

        // Case 4: miss everywhere — go to memory.
        let t0 = self.span_start();
        let fill = self.llc.fill(line, &ctx, &self.dir, a.core, now);
        self.span_end(t0, ProfileSection::Replacement);
        self.apply_fill_outcome(line, fill, a.core, now);
        let t0 = self.span_start();
        let mem = self.dram.access(line, now + base, false);
        self.span_end(t0, ProfileSection::Dram);
        self.fill_private_and_dir(line, a, false, now);
        b.dram = mem.ready_at - (now + base);
        (b, AccessClass::LlcMissDram)
    }

    /// If another core owns `line` dirty, fetch the data from it
    /// (downgrading the owner and refreshing the LLC copy). Returns the
    /// extra latency.
    fn coherence_data_fetch(
        &mut self,
        line: LineAddr,
        requester: CoreId,
        home: ziv_common::BankId,
        llc_loc: Option<ziv_directory::LlcLocation>,
    ) -> Cycle {
        let owner = match self.dir.probe(line).and_then(|s| s.dirty_owner) {
            Some(o) if o != requester => o,
            _ => return 0,
        };
        self.cores[owner.index()].clean(line);
        if let Some(loc) = llc_loc {
            self.llc.update_state(loc, |s| s.dirty = true);
        }
        if let Some(e) = self.dir.probe_mut(line) {
            e.dirty_owner = None;
        }
        self.mesh.round_trip(owner, home)
    }

    /// Invalidate every other sharer's private copy before a write
    /// (MESI upgrade). These are coherence invalidations, not inclusion
    /// victims.
    fn ensure_exclusive(&mut self, line: LineAddr, writer: CoreId, now: Cycle) {
        // One directory lookup: `e` borrows only `self.dir`, so the other
        // cores' copies can be invalidated while it is held. Sharer sets
        // are `Copy` (a u128 bitvector): iterate a snapshot of the other
        // sharers while `e.sharers` changes — no per-access
        // `Vec<CoreId>` (DESIGN.md §8).
        let Some(e) = self.dir.probe_mut(line) else {
            return;
        };
        let mut others = e.sharers;
        others.remove(writer);
        let (mut invalidated, mut any_dirty) = (SharerSet::EMPTY, false);
        for s in others.iter() {
            if let Some(dirty) = self.cores[s.index()].invalidate(line) {
                any_dirty |= dirty;
                invalidated.insert(s);
            }
        }
        if !others.is_empty() {
            for s in others.iter() {
                e.sharers.remove(s);
            }
            if e.dirty_owner.is_some_and(|o| o != writer) {
                e.dirty_owner = None;
            }
        }
        if e.sharers.contains(writer) {
            e.dirty_owner = Some(writer);
        }
        if any_dirty {
            // Merge the invalidated dirty data into the LLC copy.
            if let Some(loc) = self.llc.probe(line).or(e.relocated) {
                self.llc.update_state(loc, |s| s.dirty = true);
            } else {
                self.writeback_to_memory(line, false, now);
            }
        }
        if !invalidated.is_empty() {
            self.observe(now, HierarchyEvent::CoherenceInvalidation { invalidated });
        }
    }

    /// Reports a [`FillOutcome`] and applies its side effects: evictions
    /// (with back-invalidations where the mode demands them) and
    /// relocations. `core` is the core whose access performed the fill —
    /// the *instigator* any resulting inclusion victims are blamed on.
    fn apply_fill_outcome(&mut self, line: LineAddr, fill: FillOutcome, core: CoreId, now: Cycle) {
        self.observe(
            now,
            HierarchyEvent::Fill {
                line,
                core,
                outcome: fill,
            },
        );
        if fill.likely_dead_pv_empty {
            // Section III-D6: an empty LikelyDeadNotInPrC PV at
            // relocation time asks the bank to lower CHAR's threshold.
            let bank = self.cfg.home_bank(line);
            self.char_engine.request_lower_threshold(bank.index());
        }
        if let Some(candidate) = fill.eci_candidate {
            self.eci_early_invalidate(candidate, core, fill.victim_reason, now);
        }
        if let Some(rel) = fill.relocation {
            self.dir.set_relocated(rel.moved_line, Some(rel.to));
            if let Some(ev) = rel.evicted_from_rs {
                debug_assert!(!self.dir.is_privately_cached(ev.line));
                self.handle_llc_eviction(ev, rel.to, core, fill.victim_reason, now);
            }
        }
        if let Some(ev) = fill.evicted {
            self.handle_llc_eviction(ev, fill.loc, core, fill.victim_reason, now);
        }
    }

    /// ECI: invalidate the next victim candidate's private copies while
    /// its LLC copy stays, making its future reuse visible to the LLC.
    /// These forced invalidations are inclusion victims. `instigator` is
    /// the core whose fill surfaced the candidate; `reason` its
    /// victim-choice reason.
    fn eci_early_invalidate(
        &mut self,
        line: LineAddr,
        instigator: CoreId,
        reason: VictimReason,
        now: Cycle,
    ) {
        let sharers = match self.dir.probe(line) {
            Some(e) if !e.sharers.is_empty() => e.sharers,
            _ => return,
        };
        let loc = self.llc.probe(line);
        let any_dirty = self.tear_out(
            TearOut {
                kind: ChainKind::Eci,
                line,
                loc,
                instigator,
                reason,
                victims: sharers,
            },
            now,
        );
        if let Some(loc) = loc {
            self.llc.update_state(loc, |st| {
                st.not_in_prc = true;
                st.dirty |= any_dirty;
            });
        } else if any_dirty {
            self.writeback_to_memory(line, false, now);
        }
    }

    /// Invalidates `t.line` in every core of `t.victims` (never empty),
    /// frees its directory entry and reports `t`: the one place
    /// inclusion victims happen. `Metrics` and the observers count them
    /// from the one event. Returns whether any torn-out copy was dirty.
    fn tear_out(&mut self, t: TearOut, now: Cycle) -> bool {
        debug_assert!(!t.victims.is_empty(), "a tear-out needs a victim");
        let mut any_dirty = false;
        for s in t.victims.iter() {
            any_dirty |= self.cores[s.index()].invalidate(t.line).is_some_and(|d| d);
        }
        self.dir.free_line(t.line);
        self.observe(now, HierarchyEvent::TearOut(t));
        any_dirty
    }

    /// Handles a block leaving the LLC; `loc` is the (bank, set, way)
    /// the block occupied (the fill's target location, or the
    /// relocation destination for relocation-set evictions).
    /// `instigator` is the core whose fill forced the eviction and
    /// `reason` its victim-choice reason (forensics).
    fn handle_llc_eviction(
        &mut self,
        ev: EvictedBlock,
        loc: LlcLocation,
        instigator: CoreId,
        reason: VictimReason,
        now: Cycle,
    ) {
        let line = ev.line;
        self.observe(now, HierarchyEvent::Eviction { line, loc });
        if ev.was_relocated {
            // Only the defensive ZIV fallback can evict a relocated
            // block; drop its directory pointer before back-invalidating.
            self.dir.set_relocated(ev.line, None);
        }
        // One directory lookup answers presence, RIC's "written" test
        // and the sharers to back-invalidate.
        let entry = self.dir.probe(ev.line).copied();
        if let Some(entry) = entry.filter(|e| !e.sharers.is_empty()) {
            if self.mode == LlcMode::Ric {
                // Relaxed inclusion: never-written blocks skip the
                // back-invalidation (their private copies cannot diverge
                // from memory). "Never written" here: the LLC copy is
                // clean and no core owns the block dirty.
                let written = ev.dirty || entry.dirty_owner.is_some();
                if !written {
                    self.observe(now, HierarchyEvent::RicRelaxation);
                    return;
                }
            }
            if self.mode.is_inclusive() {
                // Back-invalidation: the inclusion victims of Fig 2. The
                // sharer bitvector is iterated straight off the directory
                // snapshot — the hot path allocates nothing.
                let sharers = entry.sharers;
                if self.skip_next_back_invalidation && !sharers.is_empty() {
                    // Injected fault: the back-invalidation message is
                    // "lost". The private copies and directory entry
                    // survive with no LLC copy — an inclusion hole the
                    // auditor must catch. Sharerless evictions don't
                    // consume the fault: there is no message to lose.
                    self.skip_next_back_invalidation = false;
                    self.fault = None;
                    return;
                }
                // The fault path above returns before the tear-out, so a
                // "lost" back-invalidation counts no victim.
                let tear_out = TearOut {
                    kind: ChainKind::Inclusive,
                    line,
                    loc: Some(loc),
                    instigator,
                    reason,
                    victims: sharers,
                };
                if self.tear_out(tear_out, now) | ev.dirty {
                    self.writeback_to_memory(line, false, now);
                }
                return;
            }
            // Non-inclusive: the LLC copy simply departs; the directory
            // keeps tracking the private copies.
        }
        if ev.dirty {
            self.writeback_to_memory(line, false, now);
        }
    }

    /// Writes `line` back to memory; `relocated` when the data is a
    /// relocated block's, which goes straight to the memory controller
    /// (Section III-C2).
    #[inline]
    fn writeback_to_memory(&mut self, line: LineAddr, relocated: bool, now: Cycle) {
        self.observe(now, HierarchyEvent::Writeback { relocated });
        let t0 = self.span_start();
        let _ = self.dram.access(line, now, true);
        self.span_end(t0, ProfileSection::Dram);
    }

    /// Records the fill into the requesting core's private caches and
    /// the directory, then drains any resulting eviction notices.
    fn fill_private_and_dir(&mut self, line: LineAddr, a: &Access, from_llc_hit: bool, now: Cycle) {
        let t0 = self.span_start();
        let dir_ev = self.dir.record_fill(line, a.core);
        self.span_end(t0, ProfileSection::Directory);
        if let Some(ev) = dir_ev {
            self.handle_dir_eviction(ev, now);
        }
        if a.is_write {
            if let Some(e) = self.dir.probe_mut(line) {
                e.set_dirty_owner(a.core);
            }
        }
        self.cores[a.core.index()].fill_from_shared(
            line,
            a.is_instr,
            a.is_write,
            from_llc_hit,
            &mut self.notice_buf,
        );
        self.drain_notices(a.core, now);
    }

    /// Handles a sparse-directory eviction (MESI mode): back-invalidate
    /// the tracked sharers; invalidate the relocated LLC block if the
    /// entry was tracking one (Section III-F).
    fn handle_dir_eviction(&mut self, ev: EvictedEntry, now: Cycle) {
        let (line, sharers) = (ev.line, ev.state.sharers);
        self.observe(now, HierarchyEvent::DirectoryVictim { line, sharers });
        let mut any_dirty = false;
        for s in sharers.iter() {
            any_dirty |= self.cores[s.index()].invalidate(line).is_some_and(|d| d);
        }
        if let Some(loc) = ev.state.relocated {
            if let Some(st) = self.llc.invalidate(loc) {
                debug_assert!(st.relocated);
                if st.dirty || any_dirty {
                    self.writeback_to_memory(line, true, now);
                }
            }
        } else if let Some(loc) = self.llc.probe(line) {
            self.llc.update_state(loc, |s| {
                s.not_in_prc = true;
                s.dirty |= any_dirty;
            });
        } else if any_dirty {
            self.writeback_to_memory(line, false, now);
        }
    }

    /// Drains pending private-cache eviction notices from `core`.
    fn drain_notices(&mut self, core: CoreId, now: Cycle) {
        while let Some(n) = self.notice_buf.pop() {
            self.process_notice(core, n, now);
        }
    }

    /// Processes one eviction notice / writeback at the home bank
    /// (Sections III-A, III-C2, III-D6).
    fn process_notice(&mut self, core: CoreId, n: EvictionNotice, now: Cycle) {
        let ci = core.index();
        let bank = self.cfg.home_bank(n.line);
        self.observe(now, HierarchyEvent::Notice { dirty: n.dirty });
        // CHAR: dead inference rides the notice; the ack may piggyback a
        // new threshold.
        let group = CharEngine::classify(&n.meta, n.dirty);
        let dead = self.char_engine.infer_dead(ci, group);
        if let Some(d) = self.char_engine.bank_notice(bank.index(), ci) {
            self.char_engine.core_receive_d(ci, d);
        }

        let t0 = self.span_start();
        let removal = self.dir.remove_sharer(n.line, core);
        self.span_end(t0, ProfileSection::Directory);
        match removal {
            RemovalOutcome::LastCopy(state) => {
                if let Some(loc) = state.relocated {
                    // The relocated block's life ends (Section III-C2);
                    // dirty data goes straight to the memory controller.
                    if let Some(st) = self.llc.invalidate(loc) {
                        debug_assert!(st.relocated);
                        if st.dirty || n.dirty {
                            self.writeback_to_memory(n.line, true, now);
                        }
                    }
                } else if let Some(loc) = self.llc.probe(n.line) {
                    let uses_char = matches!(self.mode, LlcMode::CharOnBase)
                        || matches!(self.mode, LlcMode::Ziv(p) if p.uses_char());
                    self.llc.update_state(loc, |s| {
                        s.not_in_prc = true;
                        s.dirty |= n.dirty;
                        s.likely_dead = dead && uses_char;
                        s.evict_group = Some((ci as u16, group));
                    });
                } else {
                    debug_assert!(self.mode.allows_llc_miss_under_dir_hit());
                    if n.dirty {
                        self.writeback_to_memory(n.line, false, now);
                    }
                }
            }
            RemovalOutcome::StillShared => {
                if n.dirty {
                    let in_llc = self.llc.probe(n.line);
                    if let Some(loc) = in_llc.or_else(|| self.dir.relocated_location(n.line)) {
                        self.llc.update_state(loc, |s| s.dirty = true);
                    } else {
                        self.writeback_to_memory(n.line, false, now);
                    }
                }
            }
            RemovalOutcome::NotTracked => {
                if n.dirty {
                    self.writeback_to_memory(n.line, false, now);
                }
            }
        }
    }

    /// The per-core private hierarchies (audit walks, tests).
    pub fn private_cores(&self) -> &[PrivateHierarchy] {
        &self.cores
    }

    /// Demand accesses performed so far (the auditor's access index).
    pub fn accesses_done(&self) -> u64 {
        self.accesses_done
    }

    /// Applies an armed fault at access `idx`. Returns a latency when
    /// the fault hijacks the access itself (`StallCore`).
    fn apply_fault(&mut self, idx: u64, requester: CoreId) -> Option<Cycle> {
        match self.fault? {
            FaultInjection::CorruptDirectory { at_access } if idx >= at_access => {
                // Clear one live sharer bit, preferring a line owned by a
                // core other than the requester (whose access this cycle
                // could otherwise coincidentally repair the damage).
                let mut target = None;
                for (ci, core) in self.cores.iter().enumerate() {
                    if ci == requester.index() {
                        continue;
                    }
                    if let Some(line) = core.resident_lines().into_iter().next() {
                        target = Some((ci, line));
                        break;
                    }
                }
                if target.is_none() {
                    target = self.cores[requester.index()]
                        .resident_lines()
                        .into_iter()
                        .next()
                        .map(|line| (requester.index(), line));
                }
                if let Some((ci, line)) = target {
                    if let Some(e) = self.dir.probe_mut(line) {
                        e.sharers.remove(CoreId::new(ci));
                        self.fault = None; // one-shot, applied
                    }
                }
                None
            }
            FaultInjection::SkipBackInvalidation { at_access } if idx >= at_access => {
                // Armed until an inclusive back-invalidation consumes it
                // (see handle_llc_eviction).
                self.skip_next_back_invalidation = true;
                None
            }
            FaultInjection::StallCore { at_access } if idx >= at_access => {
                // The livelock scenario: the access never completes in
                // any reasonable time. Modeled as an astronomical
                // latency so the per-cell watchdog budget trips.
                Some(1 << 32)
            }
            FaultInjection::HangCore { at_access } if idx >= at_access => {
                // The wall-clock hang scenario: the model wedges. The
                // driver sees `is_hung` after this access and parks the
                // cell; only the supervisor's cancellation token can
                // end it.
                self.hung = true;
                self.fault = None; // one-shot, applied
                Some(1)
            }
            FaultInjection::PanicCore { at_access } if idx >= at_access => {
                // The internal-bug scenario: a real defect would panic
                // deep inside the model, exactly like this.
                panic!(
                    "injected panic-core fault: simulated internal defect \
                     at access {idx}"
                );
            }
            _ => None,
        }
    }

    /// Whether an injected [`FaultInjection::HangCore`] has wedged the
    /// model. Once true, further accesses would make no progress; the
    /// driver must stop issuing and wait for supervision.
    pub fn is_hung(&self) -> bool {
        self.hung
    }

    /// Checks the hierarchy's structural invariants; returns a
    /// description of the first violation. Used by tests and debug runs.
    ///
    /// This is the [`crate::audit::Auditor`]'s structural walk
    /// (inclusion, directory ↔ LLC ↔ private consistency, the ZIV
    /// guarantee) rendered as a string; use
    /// [`crate::audit::Auditor::check_structure`] directly for the typed
    /// [`ziv_common::AuditViolation`].
    pub fn verify_invariants(&self) -> Result<(), String> {
        crate::audit::Auditor::check_structure(self, self.accesses_done).map_err(|v| v.to_string())
    }
}
