//! The flight recorder: epoch-sliced time-series counters, a typed
//! structured event trace, and per-bank/per-set occupancy heatmaps.
//!
//! The paper's evaluation is temporal — inclusion-victim pressure, ZIV
//! relocations, and directory back-invalidations all vary across program
//! phases — but [`Metrics`] only reports end-of-run
//! aggregates. This module adds the missing interval-resolved layer:
//!
//! * [`EpochSlicer`] — snapshots *delta* counters every N accesses into
//!   an ordered series of [`EpochSample`]s. Deltas are signed: the
//!   driver rewinds per-core counters to the last completed trace lap
//!   when a run finishes, so the closing sample can carry negative
//!   per-core deltas. By construction the column-wise sum of all
//!   samples equals the final aggregate `Metrics` exactly (the
//!   conservation property the tests pin).
//! * [`EventRing`] — a fixed-capacity ring buffer of typed
//!   [`TraceEvent`]s (fill, eviction, back-invalidation, relocation,
//!   directory victim, audit violation). The ring keeps the *last* K
//!   events, flight-recorder style, so a failed run retains the events
//!   leading up to the violation.
//! * [`Heatmap`] — per-(bank, set) access/eviction/relocation counts
//!   for spotting hot sets.
//!
//! The hierarchy reports through one typed stream of [`HierarchyEvent`]s.
//! `Metrics::count` consumes every event first, always: it is the only
//! place a counter moves. Then an attached [`FlightRecorder::observe`]
//! feeds the ring, the heatmaps and the latency, leakage and forensics
//! observatories from the same record. An inclusion victim is one
//! [`TearOut`] event, so every count of them agrees with
//! `Metrics::inclusion_victims` by construction.
//!
//! Everything here is opt-in via [`ObserveConfig`]; with the default
//! (disabled) config the hierarchy carries a `None` recorder and each
//! event pays the counters it moves plus a single branch.

use crate::forensics::{ChainKind, ForensicsObservatory, ForensicsReport, ProvenanceStamp};
use crate::latency::{AccessClass, LatencyBreakdown, LatencyObservatory, LatencyReport};
use crate::leakage::{LeakageObservatory, LeakageReport};
use crate::llc::{FillOutcome, VictimReason};
use crate::metrics::{core_metrics_u64_fields, metrics_u64_fields, CoreMetrics, Metrics};
use crate::profile::ProfileReport;
use ziv_common::json::JsonValue;
use ziv_common::stats::CountGrid;
use ziv_common::{AuditViolation, CoreId, Cycle, LineAddr, SimError};
use ziv_directory::{LlcLocation, SharerSet};

macro_rules! name_array {
    ($($f:ident),*) => { &[$(stringify!($f)),*] };
}

macro_rules! value_vec {
    ($src:expr => $($f:ident),*) => { vec![$(($src).$f),*] };
}

/// Column names of the global scalar counters, in the exact order
/// [`metrics_scalars`] (and every [`EpochSample::global`]) uses —
/// generated from the same macro as the ledger JSON serializer.
pub const METRICS_COLUMNS: &[&str] = metrics_u64_fields!(name_array!());

/// Column names of the per-core scalar counters, in the exact order
/// [`core_metrics_scalars`] (and every [`EpochSample::per_core`] row)
/// uses.
pub const CORE_METRICS_COLUMNS: &[&str] = core_metrics_u64_fields!(name_array!());

/// Every scalar `u64` counter of [`Metrics`], ordered as
/// [`METRICS_COLUMNS`].
pub fn metrics_scalars(m: &Metrics) -> Vec<u64> {
    metrics_u64_fields!(value_vec!(m =>))
}

/// Every scalar `u64` counter of [`CoreMetrics`], ordered as
/// [`CORE_METRICS_COLUMNS`].
pub fn core_metrics_scalars(c: &CoreMetrics) -> Vec<u64> {
    core_metrics_u64_fields!(value_vec!(c =>))
}

fn column_index(columns: &[&str], name: &str) -> usize {
    columns
        .iter()
        .position(|&c| c == name)
        .unwrap_or_else(|| panic!("unknown column '{name}'"))
}

// ---------------------------------------------------------------------------
// Epoch slicing
// ---------------------------------------------------------------------------

/// Counter deltas over one epoch (a half-open access-index interval
/// `start_access..end_access`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochSample {
    /// 0-based epoch number.
    pub index: u64,
    /// First access index covered (inclusive).
    pub start_access: u64,
    /// Last access index covered (exclusive). A closing sample emitted
    /// by [`EpochSlicer::finish`] may have `start_access ==
    /// end_access`: it carries the end-of-run lap rewind and
    /// finalization adjustments, not new accesses.
    pub end_access: u64,
    /// Signed deltas of the global scalar counters, ordered as
    /// [`METRICS_COLUMNS`].
    pub global: Vec<i64>,
    /// Signed per-core deltas, ordered as [`CORE_METRICS_COLUMNS`].
    /// Only the closing sample can go negative (the driver rewinds
    /// per-core counters to the last completed trace lap).
    pub per_core: Vec<Vec<i64>>,
}

impl EpochSample {
    /// Instructions-per-cycle for `core` over this epoch; zero when the
    /// epoch accumulated no cycles for the core.
    pub fn core_ipc(&self, core: usize) -> f64 {
        let instr_col = column_index(CORE_METRICS_COLUMNS, "instructions");
        let cycle_col = column_index(CORE_METRICS_COLUMNS, "cycles");
        let Some(row) = self.per_core.get(core) else {
            return 0.0;
        };
        let cycles = row[cycle_col];
        if cycles <= 0 {
            0.0
        } else {
            row[instr_col] as f64 / cycles as f64
        }
    }
}

/// Accumulates [`EpochSample`]s from successive metric snapshots.
///
/// The driver calls [`EpochSlicer::slice`] whenever
/// [`EpochSlicer::due`] reports a boundary, and
/// [`EpochSlicer::finish`] once after the run's end-of-trace rewind and
/// finalization, which closes the series so the samples telescope to
/// the final aggregate metrics.
#[derive(Debug)]
pub struct EpochSlicer {
    epoch_len: u64,
    next_boundary: u64,
    prev_global: Vec<u64>,
    prev_core: Vec<Vec<u64>>,
    last_end: u64,
    samples: Vec<EpochSample>,
}

impl EpochSlicer {
    /// Creates a slicer emitting one sample per `epoch_len` accesses
    /// (clamped to at least 1) for a `cores`-core run.
    pub fn new(epoch_len: u64, cores: usize) -> Self {
        let epoch_len = epoch_len.max(1);
        EpochSlicer {
            epoch_len,
            next_boundary: epoch_len,
            prev_global: vec![0; METRICS_COLUMNS.len()],
            prev_core: vec![vec![0; CORE_METRICS_COLUMNS.len()]; cores],
            last_end: 0,
            samples: Vec::new(),
        }
    }

    /// The configured epoch length in accesses.
    pub fn epoch_len(&self) -> u64 {
        self.epoch_len
    }

    /// True when `issued` accesses have crossed the next boundary.
    #[inline]
    pub fn due(&self, issued: u64) -> bool {
        issued >= self.next_boundary
    }

    /// Emits the sample covering `last boundary .. issued` and arms the
    /// next boundary.
    pub fn slice(&mut self, issued: u64, m: &Metrics) {
        self.push_sample(issued, m);
        self.next_boundary = issued.saturating_add(self.epoch_len);
    }

    /// Emits the closing sample after end-of-run adjustments (per-core
    /// lap rewind, finalization), unless nothing changed since the last
    /// boundary — e.g. the previous slice landed exactly at
    /// end-of-trace *and* no adjustment moved any counter.
    pub fn finish(&mut self, issued: u64, m: &Metrics) {
        let changed = issued > self.last_end
            || metrics_scalars(m) != self.prev_global
            || m.per_core
                .iter()
                .zip(&self.prev_core)
                .any(|(c, p)| core_metrics_scalars(c) != *p);
        if changed {
            self.push_sample(issued.max(self.last_end), m);
        }
    }

    fn push_sample(&mut self, end: u64, m: &Metrics) {
        let global_now = metrics_scalars(m);
        let global = global_now
            .iter()
            .zip(&self.prev_global)
            .map(|(&now, &prev)| now as i64 - prev as i64)
            .collect();
        let per_core = m
            .per_core
            .iter()
            .zip(&self.prev_core)
            .map(|(c, prev)| {
                core_metrics_scalars(c)
                    .iter()
                    .zip(prev)
                    .map(|(&now, &p)| now as i64 - p as i64)
                    .collect()
            })
            .collect();
        self.samples.push(EpochSample {
            index: self.samples.len() as u64,
            start_access: self.last_end,
            end_access: end,
            global,
            per_core,
        });
        self.prev_global = global_now;
        for (prev, c) in self.prev_core.iter_mut().zip(&m.per_core) {
            *prev = core_metrics_scalars(c);
        }
        self.last_end = end;
    }

    /// The samples emitted so far.
    pub fn samples(&self) -> &[EpochSample] {
        &self.samples
    }

    /// Consumes the slicer, yielding the sample series.
    pub fn into_samples(self) -> Vec<EpochSample> {
        self.samples
    }
}

// ---------------------------------------------------------------------------
// Structured events
// ---------------------------------------------------------------------------

/// The typed events the flight recorder understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// A block filled into the LLC (demand or prefetch).
    Fill = 0,
    /// A block evicted from the LLC (capacity or relocation-set).
    Eviction = 1,
    /// A private copy invalidated because its LLC copy was evicted —
    /// one event per victimized core (includes ECI early invalidations).
    BackInvalidation = 2,
    /// A ZIV relocation moved a block into a relocation set.
    Relocation = 3,
    /// A sparse-directory entry evicted from the finite structure
    /// (MESI mode), back-invalidating its sharers.
    DirectoryVictim = 4,
    /// The invariant auditor rejected the run.
    AuditViolation = 5,
}

impl EventKind {
    /// Every kind, in discriminant order.
    pub const ALL: [EventKind; 6] = [
        EventKind::Fill,
        EventKind::Eviction,
        EventKind::BackInvalidation,
        EventKind::Relocation,
        EventKind::DirectoryVictim,
        EventKind::AuditViolation,
    ];

    /// Stable lowercase label, used by the JSONL schema and the
    /// `--events` filter syntax.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Fill => "fill",
            EventKind::Eviction => "eviction",
            EventKind::BackInvalidation => "back_invalidation",
            EventKind::Relocation => "relocation",
            EventKind::DirectoryVictim => "directory_victim",
            EventKind::AuditViolation => "audit_violation",
        }
    }

    /// Parses a [`EventKind::label`] string (also accepts `-` for `_`).
    pub fn parse(s: &str) -> Option<EventKind> {
        let s = s.trim().replace('-', "_");
        EventKind::ALL.into_iter().find(|k| k.label() == s)
    }

    #[inline]
    fn bit(self) -> u8 {
        1 << (self as u8)
    }
}

/// A bitmask of [`EventKind`]s the recorder keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventFilter(u8);

impl EventFilter {
    /// Keeps every kind.
    pub const fn all() -> Self {
        EventFilter(0x3f)
    }

    /// Keeps nothing.
    pub const fn none() -> Self {
        EventFilter(0)
    }

    /// Returns a filter that also keeps `kind`.
    #[must_use]
    pub fn with(self, kind: EventKind) -> Self {
        EventFilter(self.0 | kind.bit())
    }

    /// True when `kind` passes the filter.
    #[inline]
    pub fn contains(self, kind: EventKind) -> bool {
        self.0 & kind.bit() != 0
    }

    /// Parses `"all"` or a comma-separated list of kind labels
    /// (e.g. `"fill,eviction,back_invalidation"`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] naming the first unknown kind and
    /// the accepted set, or rejecting an empty filter.
    pub fn parse(spec: &str) -> Result<Self, SimError> {
        if spec.trim() == "all" {
            return Ok(EventFilter::all());
        }
        let mut f = EventFilter::none();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let kind = EventKind::parse(part).ok_or_else(|| {
                SimError::Config(format!(
                    "unknown event kind '{part}' (expected one of: {})",
                    EventKind::ALL.map(EventKind::label).join(", ")
                ))
            })?;
            f = f.with(kind);
        }
        if f == EventFilter::none() {
            return Err(SimError::Config("empty event filter".into()));
        }
        Ok(f)
    }

    /// The filter rendered back into [`EventFilter::parse`] syntax.
    pub fn label(self) -> String {
        if self == EventFilter::all() {
            return "all".into();
        }
        EventKind::ALL
            .into_iter()
            .filter(|&k| self.contains(k))
            .map(EventKind::label)
            .collect::<Vec<_>>()
            .join(",")
    }
}

impl Default for EventFilter {
    fn default() -> Self {
        EventFilter::all()
    }
}

/// One recorded event. Location fields are `None` when they do not
/// apply to the kind (e.g. a directory victim has no LLC way).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// What happened.
    pub kind: EventKind,
    /// 0-based index of the access during which the event occurred.
    pub access_index: u64,
    /// Simulation clock at the event.
    pub cycle: Cycle,
    /// The cache line involved (raw line address).
    pub line: u64,
    /// The core affected (victim core for back-invalidations).
    pub core: Option<u16>,
    /// LLC / directory bank.
    pub bank: Option<u16>,
    /// LLC set within the bank.
    pub set: Option<u32>,
    /// LLC way within the set.
    pub way: Option<u8>,
}

impl TraceEvent {
    /// Serializes the event as a JSON object; `None` fields are
    /// omitted.
    pub fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            ("kind".to_string(), JsonValue::Str(self.kind.label().into())),
            ("access".to_string(), JsonValue::u64(self.access_index)),
            ("cycle".to_string(), JsonValue::u64(self.cycle)),
            ("line".to_string(), JsonValue::u64(self.line)),
        ];
        if let Some(c) = self.core {
            fields.push(("core".to_string(), JsonValue::u64(c as u64)));
        }
        if let Some(b) = self.bank {
            fields.push(("bank".to_string(), JsonValue::u64(b as u64)));
        }
        if let Some(s) = self.set {
            fields.push(("set".to_string(), JsonValue::u64(s as u64)));
        }
        if let Some(w) = self.way {
            fields.push(("way".to_string(), JsonValue::u64(w as u64)));
        }
        JsonValue::Obj(fields)
    }

    /// Rebuilds an event from [`TraceEvent::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or mistyped field.
    pub fn from_json(v: &JsonValue) -> Result<Self, String> {
        let kind_label = v
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or("missing string field 'kind'")?;
        let kind =
            EventKind::parse(kind_label).ok_or_else(|| format!("unknown kind '{kind_label}'"))?;
        let req = |key: &str| {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("missing u64 field '{key}'"))
        };
        let opt = |key: &str| v.get(key).and_then(JsonValue::as_u64);
        Ok(TraceEvent {
            kind,
            access_index: req("access")?,
            cycle: req("cycle")?,
            line: req("line")?,
            core: opt("core").map(|c| c as u16),
            bank: opt("bank").map(|b| b as u16),
            set: opt("set").map(|s| s as u32),
            way: opt("way").map(|w| w as u8),
        })
    }
}

/// Default ring capacity when tracing is enabled without an explicit
/// `--last K`.
pub const DEFAULT_EVENT_CAPACITY: usize = 256;

/// Largest ring capacity the CLI accepts for `--last K`. The ring is
/// allocated up front, so an absurd K would pin memory for the whole
/// run; the CLI clamps to this and warns on the sink.
pub const MAX_EVENT_CAPACITY: usize = 1 << 20;

/// A fixed-capacity ring buffer keeping the **last** `capacity` items
/// (trace events by default; the forensics observatory keeps its causal
/// chains in one too).
///
/// The buffer is allocated once at construction; pushes never allocate,
/// preserving the allocation-free hot path.
#[derive(Debug, Clone)]
pub struct EventRing<T = TraceEvent> {
    buf: Vec<T>,
    cap: usize,
    head: usize,
    recorded: u64,
}

impl<T: Clone> EventRing<T> {
    /// Creates an empty ring with room for `capacity` items (clamped
    /// to at least 1).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        EventRing {
            buf: Vec::with_capacity(cap),
            cap,
            head: 0,
            recorded: 0,
        }
    }

    /// Appends an item, overwriting the oldest once full.
    #[inline]
    pub fn push(&mut self, item: T) {
        if self.buf.len() < self.cap {
            self.buf.push(item);
        } else {
            self.buf[self.head] = item;
            self.head = (self.head + 1) % self.cap;
        }
        self.recorded += 1;
    }

    /// Total items ever pushed (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Items currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The retained items, in no particular order.
    pub(crate) fn iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.buf.iter_mut()
    }

    /// The retained items, oldest first.
    pub fn ordered(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

// ---------------------------------------------------------------------------
// Heatmaps
// ---------------------------------------------------------------------------

/// Per-(bank, set) occupancy counters: LLC accesses, evictions, and
/// relocations, each a `banks × sets` [`CountGrid`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Heatmap {
    /// LLC lookups homed at (bank, set).
    pub accesses: CountGrid,
    /// LLC evictions out of (bank, set).
    pub evictions: CountGrid,
    /// ZIV relocations into (bank, set).
    pub relocations: CountGrid,
}

impl Heatmap {
    /// Creates zeroed grids for a `banks`-bank LLC with `sets` sets per
    /// bank.
    pub fn new(banks: usize, sets: usize) -> Self {
        Heatmap {
            accesses: CountGrid::new(banks, sets),
            evictions: CountGrid::new(banks, sets),
            relocations: CountGrid::new(banks, sets),
        }
    }

    /// Number of LLC banks (grid rows).
    pub fn banks(&self) -> usize {
        self.accesses.rows()
    }

    /// Number of sets per bank (grid columns).
    pub fn sets(&self) -> usize {
        self.accesses.cols()
    }
}

/// The LLC's flat `(bank, set)` numbering, `bank * sets_per_bank + set`,
/// with a line's bank bits low and its set bits above them — the
/// mapping `LlcConfig::bank_of`/`set_of` use. The recorder places
/// heatmap lookups with it; leakage and forensics roll up by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FlatSets {
    pub(crate) banks: usize,
    pub(crate) sets_per_bank: usize,
}

impl FlatSets {
    /// The numbering of a `banks × sets_per_bank` LLC (both powers of
    /// two).
    pub(crate) fn new(banks: usize, sets_per_bank: usize) -> Self {
        debug_assert!(banks.is_power_of_two() && sets_per_bank.is_power_of_two());
        FlatSets {
            banks,
            sets_per_bank,
        }
    }

    /// Number of flat sets (`banks × sets_per_bank`).
    pub(crate) fn count(self) -> usize {
        self.banks * self.sets_per_bank
    }

    /// The home `(bank, set)` of `line`.
    #[inline]
    pub(crate) fn bank_set(self, line: LineAddr) -> (usize, usize) {
        let raw = line.raw();
        let bank = raw as usize & (self.banks - 1);
        let set = (raw >> self.banks.trailing_zeros()) as usize & (self.sets_per_bank - 1);
        (bank, set)
    }

    /// The flat index of `line`'s home set.
    #[inline]
    pub(crate) fn index(self, line: LineAddr) -> usize {
        let (bank, set) = self.bank_set(line);
        bank * self.sets_per_bank + set
    }
}

// ---------------------------------------------------------------------------
// Configuration and the recorder itself
// ---------------------------------------------------------------------------

/// Event-trace settings: how many trailing events to keep and which
/// kinds to keep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventTraceConfig {
    /// Ring capacity (`--last K`).
    pub capacity: usize,
    /// Which kinds to retain (`--events <filter>`).
    pub filter: EventFilter,
}

impl Default for EventTraceConfig {
    fn default() -> Self {
        EventTraceConfig {
            capacity: DEFAULT_EVENT_CAPACITY,
            filter: EventFilter::all(),
        }
    }
}

/// What to observe during a run. The default observes nothing and the
/// simulation hot path stays branch-only.
///
/// Observability settings never enter run-spec digests or the result
/// ledger: enabling any of this must not perturb simulation outcomes,
/// only record them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObserveConfig {
    /// Emit an [`EpochSample`] every this many accesses.
    pub epoch: Option<u64>,
    /// Record typed events into a ring buffer.
    pub events: Option<EventTraceConfig>,
    /// Accumulate per-(bank, set) occupancy heatmaps.
    pub heatmap: bool,
    /// Run the latency attribution observatory (`--latency`):
    /// per-core × per-class cycle breakdowns, per-class latency
    /// histograms, and inclusion-victim re-fetch tracking.
    pub latency: bool,
    /// Run the wall-clock self-profiler (`--profile`): per-subsystem
    /// simulator time.
    pub profile: bool,
    /// Run the leakage observatory (`--leakage`): attacker-observable
    /// back-invalidation and probe-distinguishability accounting.
    /// Only attack workloads (which carry role plans) produce a
    /// report; the flag is inert for every other workload.
    pub leakage: bool,
    /// Run the forensics observatory (`--forensics`): per-line
    /// allocation provenance, causal eviction chains, and the
    /// instigator × victim blame matrix.
    pub forensics: bool,
}

impl ObserveConfig {
    /// The default: observe nothing.
    pub const fn disabled() -> Self {
        ObserveConfig {
            epoch: None,
            events: None,
            heatmap: false,
            latency: false,
            profile: false,
            leakage: false,
            forensics: false,
        }
    }

    /// True when the hierarchy needs an attached [`FlightRecorder`]
    /// (events, heatmaps, latency attribution, leakage accounting, or
    /// forensics; epoch slicing and the self-profiler live in the
    /// driver).
    pub fn wants_recorder(&self) -> bool {
        self.events.is_some() || self.heatmap || self.latency || self.leakage || self.forensics
    }

    /// True when any observation is requested.
    pub fn is_enabled(&self) -> bool {
        self.epoch.is_some() || self.wants_recorder() || self.profile
    }
}

// ---------------------------------------------------------------------------
// The hierarchy's event stream and the recorder that consumes it
// ---------------------------------------------------------------------------

/// Private copies torn out of core caches to keep the LLC inclusive:
/// an inclusive eviction's back-invalidation or an ECI early
/// invalidation. One event per tear-out, carrying every core it reached
/// into — each one an inclusion victim (Fig 2). `Metrics::count`
/// counts `inclusion_victims` from the same `victims` set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TearOut {
    /// The mechanism.
    pub kind: ChainKind,
    /// The line whose private copies were invalidated.
    pub line: LineAddr,
    /// The line's LLC location (an ECI candidate may have none).
    pub loc: Option<LlcLocation>,
    /// The core whose fill instigated the tear-out.
    pub instigator: CoreId,
    /// The instigating fill's victim-choice reason.
    pub reason: VictimReason,
    /// The cores that lost a copy; never empty.
    pub victims: SharerSet,
}

/// One thing the hierarchy reports, handed to `Metrics::count` and
/// then to [`FlightRecorder::observe`] at the access and cycle it
/// happened; each variant's doc names what its fields hold. The tag is
/// explicit so the inlined `count` folds on each site's constant
/// variant (packed into a `FillOutcome` niche, a fill's tag was a load).
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum HierarchyEvent {
    /// `core`'s fill (demand or prefetch) installed `line` at
    /// `outcome.loc`. The outcome says why victim selection freed that
    /// way and what else the fill did: a relocation, a SHARP alarm, QBS
    /// queries, an in-set alternate or a ZIV fallback.
    Fill {
        line: LineAddr,
        core: CoreId,
        outcome: FillOutcome,
    },
    /// `core` missed `line` in its private caches and looks it up in the
    /// LLC. Comes before the LLC stage of the access, whose fill may
    /// tear out (and so re-note) other lines.
    LlcLookup { core: CoreId, line: LineAddr },
    /// `line` left the LLC from `loc`.
    Eviction { line: LineAddr, loc: LlcLocation },
    /// The sparse directory evicted `line`'s entry, back-invalidating
    /// its `sharers`.
    DirectoryVictim { line: LineAddr, sharers: SharerSet },
    /// Private copies were torn out (see [`TearOut`]).
    TearOut(TearOut),
    /// `core`'s access to `line` finished, served as `class` at the
    /// latency `breakdown` totals.
    Access {
        core: CoreId,
        line: LineAddr,
        class: AccessClass,
        breakdown: LatencyBreakdown,
    },
    /// A store invalidated the private copies the cores of
    /// `invalidated` held (never empty) to take the line exclusive.
    CoherenceInvalidation { invalidated: SharerSet },
    /// A TLH hint refreshed a line's LLC replacement state after a
    /// private hit.
    TlhHint,
    /// A prefetch was dropped: its line was resident, owned dirty
    /// elsewhere, or privately cached without an LLC copy.
    PrefetchDrop,
    /// A prefetch filled its line into the L2, from the LLC when
    /// `from_llc`, else from memory.
    PrefetchFill { from_llc: bool },
    /// RIC evicted a never-written line from the LLC without
    /// back-invalidating its sharers.
    RicRelaxation,
    /// A line was written back to memory; `relocated` when it was a
    /// relocated block's data (Section III-C2).
    Writeback { relocated: bool },
    /// A private cache let a line go and told its home bank; `dirty`
    /// when the notice carried data back.
    Notice { dirty: bool },
}

/// Slots in each core's recently-torn-out line table. Direct-mapped on
/// the line address's low bits; a collision overwrites the older entry
/// (the same bounded-memory spirit as the event ring), so refetch
/// attribution is a floor, never an overcount: every access classified
/// as a refetch really did lose its line to an inclusion victim.
pub const VICTIM_TABLE_SLOTS: usize = 1024;

/// One victim-table entry: a line torn out of a core's private caches,
/// with the instigating core and forensics chain a refetch is blamed on.
#[derive(Debug, Clone, Copy)]
struct VictimNote {
    line: u64,
    instigator: CoreId,
    chain_seq: u64,
}

const NO_VICTIM: VictimNote = VictimNote {
    line: u64::MAX,
    instigator: CoreId::new(0),
    chain_seq: 0,
};

/// `core`'s victim-table slot for `line`.
#[inline]
fn victim_slot(core: CoreId, line: LineAddr) -> usize {
    core.index() * VICTIM_TABLE_SLOTS + (line.raw() as usize & (VICTIM_TABLE_SLOTS - 1))
}

/// The in-flight recorder attached to a
/// [`CacheHierarchy`](crate::CacheHierarchy): after `Metrics::count`,
/// it consumes the hierarchy's [`HierarchyEvent`] stream into an event
/// ring, heatmap grids and the latency, leakage and forensics
/// observatories. Constructed only when enabled, so the disabled-mode
/// hierarchy carries `None` and pays one branch per emission site.
#[derive(Debug)]
pub struct FlightRecorder {
    filter: EventFilter,
    events: Option<EventRing>,
    heatmap: Option<Heatmap>,
    sets: FlatSets,
    /// Recently torn-out lines, [`VICTIM_TABLE_SLOTS`] per core; shared
    /// by latency attribution and forensics so both blame the same
    /// refetches, and empty unless one of them is on. A lookup clears
    /// its entry: one tear-out explains at most one refetch.
    victims: Vec<VictimNote>,
    /// The current access's torn-out line, taken at its LLC lookup and
    /// attributed when the access finishes.
    refetch: Option<VictimNote>,
    latency: Option<LatencyObservatory>,
    leakage: Option<LeakageObservatory>,
    forensics: Option<ForensicsObservatory>,
}

impl FlightRecorder {
    /// Builds a recorder per `cfg` for a `cores`-core system with a
    /// `banks × sets` LLC; `None` when `cfg` requests no recorder-side
    /// capture (see [`ObserveConfig::wants_recorder`]).
    pub fn new(
        cfg: &ObserveConfig,
        cores: usize,
        banks: usize,
        sets: usize,
    ) -> Option<Box<FlightRecorder>> {
        if !cfg.wants_recorder() {
            return None;
        }
        let flat_sets = FlatSets::new(banks, sets);
        let tracks_victims = cfg.latency || cfg.forensics;
        Some(Box::new(FlightRecorder {
            filter: cfg.events.map_or(EventFilter::none(), |e| e.filter),
            events: cfg.events.map(|e| EventRing::new(e.capacity)),
            heatmap: cfg.heatmap.then(|| Heatmap::new(banks, sets)),
            sets: flat_sets,
            victims: if tracks_victims {
                vec![NO_VICTIM; cores * VICTIM_TABLE_SLOTS]
            } else {
                Vec::new()
            },
            refetch: None,
            latency: cfg.latency.then(|| LatencyObservatory::new(cores)),
            // Leakage accounting needs the workload's attack roles, which
            // the recorder cannot know; the driver attaches it when the
            // flag is on *and* the workload carries an attack plan.
            leakage: None,
            forensics: cfg
                .forensics
                .then(|| ForensicsObservatory::new(cores, flat_sets)),
        }))
    }

    /// Attaches the leakage observatory (driver-side; see
    /// [`FlightRecorder::new`]).
    pub fn attach_leakage(&mut self, obs: LeakageObservatory) {
        self.leakage = Some(obs);
    }

    /// Records `ev` if event tracing is on and the filter keeps its
    /// kind.
    #[inline]
    fn record(&mut self, ev: TraceEvent) {
        if self.filter.contains(ev.kind) {
            if let Some(ring) = &mut self.events {
                ring.push(ev);
            }
        }
    }

    /// Records the auditor's verdict as a trace event.
    pub fn record_violation(&mut self, v: &AuditViolation, cycle: Cycle) {
        self.record(TraceEvent {
            kind: EventKind::AuditViolation,
            access_index: v.access_index,
            cycle,
            line: v.line.map_or(0, |l| l.raw()),
            core: None,
            bank: None,
            set: None,
            way: None,
        });
    }

    /// Feeds one hierarchy event, which happened during access
    /// `access_index` at `cycle`, to every attached capture. The single
    /// entry point of the stream: each observer derives its books from
    /// the same event, so their victim and refetch counts agree.
    pub fn observe(&mut self, access_index: u64, cycle: Cycle, ev: HierarchyEvent) {
        let event =
            |kind, line: LineAddr, core: Option<CoreId>, loc: Option<LlcLocation>| TraceEvent {
                kind,
                access_index,
                cycle,
                line: line.raw(),
                core: core.map(|c| c.index() as u16),
                bank: loc.map(|l| l.bank.index() as u16),
                set: loc.map(|l| l.set),
                way: loc.map(|l| l.way),
            };
        match ev {
            HierarchyEvent::Fill {
                line,
                core,
                outcome,
            } => {
                let loc = outcome.loc;
                self.record(event(EventKind::Fill, line, Some(core), Some(loc)));
                if let Some(f) = &mut self.forensics {
                    let (bank, set, way) = (loc.bank.index() as u16, loc.set, loc.way);
                    f.stamp_fill(
                        line,
                        ProvenanceStamp {
                            access_index,
                            cycle,
                            core,
                            bank,
                            set,
                            way,
                            reason: outcome.victim_reason,
                        },
                    );
                }
                if let Some(rel) = outcome.relocation {
                    let to = rel.to;
                    self.record(event(EventKind::Relocation, rel.moved_line, None, Some(to)));
                    if let Some(hm) = &mut self.heatmap {
                        hm.relocations.inc(to.bank.index(), to.set as usize);
                    }
                }
            }
            HierarchyEvent::LlcLookup { core, line } => {
                if let Some(hm) = &mut self.heatmap {
                    let (bank, set) = self.sets.bank_set(line);
                    hm.accesses.inc(bank, set);
                }
                self.refetch = self
                    .victims
                    .get_mut(victim_slot(core, line))
                    .filter(|note| note.line == line.raw())
                    .map(|note| std::mem::replace(note, NO_VICTIM));
            }
            HierarchyEvent::Eviction { line, loc } => {
                self.record(event(EventKind::Eviction, line, None, Some(loc)));
                if let Some(hm) = &mut self.heatmap {
                    hm.evictions.inc(loc.bank.index(), loc.set as usize);
                }
            }
            HierarchyEvent::DirectoryVictim { line, .. } => {
                let bank = Some(self.sets.bank_set(line).0 as u16);
                self.record(TraceEvent {
                    bank,
                    ..event(EventKind::DirectoryVictim, line, None, None)
                });
            }
            HierarchyEvent::TearOut(t) => {
                let chain_seq = (self.forensics.as_mut())
                    .map_or(0, |f| f.record_chain(&t, access_index, cycle));
                for victim in t.victims.iter() {
                    self.record(event(
                        EventKind::BackInvalidation,
                        t.line,
                        Some(victim),
                        t.loc,
                    ));
                    if let Some(note) = self.victims.get_mut(victim_slot(victim, t.line)) {
                        let instigator = t.instigator;
                        *note = VictimNote {
                            line: t.line.raw(),
                            instigator,
                            chain_seq,
                        };
                    }
                    if let Some(l) = &mut self.leakage {
                        l.note_back_invalidation(victim, t.line);
                    }
                }
            }
            HierarchyEvent::Access {
                core,
                line,
                class,
                breakdown,
            } => {
                let refetch = self.refetch.take();
                if let (Some(note), Some(f)) = (refetch, &mut self.forensics) {
                    f.record_refetch(note.instigator, core, note.chain_seq, breakdown.total());
                }
                // Latency attribution owns the refetch class; without it
                // every observer sees where the access was served from.
                let class = if refetch.is_some() && self.latency.is_some() {
                    AccessClass::InclusionVictimRefetch
                } else {
                    class
                };
                if let Some(lat) = &mut self.latency {
                    lat.record(core, class, &breakdown);
                }
                if let Some(l) = &mut self.leakage {
                    l.record_access(core, line, class);
                }
            }
            // The rest are counted by `Metrics` alone.
            _ => {}
        }
    }

    /// Drains the recorder into its part of an [`Observations`]: the
    /// events, heatmaps and observatory reports. The driver adds the
    /// epochs, the profile, the leakage report's window and SHARP alarms
    /// and the directory occupancy.
    pub fn finish(self) -> Observations {
        let (events, events_recorded) = match &self.events {
            Some(ring) => (ring.ordered(), ring.recorded()),
            None => (Vec::new(), 0),
        };
        Observations {
            events,
            events_recorded,
            heatmap: self.heatmap,
            latency: self.latency.map(LatencyObservatory::finish),
            leakage: self.leakage.map(LeakageObservatory::finish),
            forensics: self.forensics.map(ForensicsObservatory::finish),
            ..Observations::default()
        }
    }
}

/// Everything one traced run observed. Deliberately kept **out of**
/// `RunResult`: observations never enter the result ledger, so traced
/// and untraced campaigns stay byte-identical.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Observations {
    /// The epoch time-series (empty when epoch slicing was off).
    pub epochs: Vec<EpochSample>,
    /// Retained trailing events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Total events recorded, including ones the ring overwrote.
    pub events_recorded: u64,
    /// Occupancy heatmaps, when enabled.
    pub heatmap: Option<Heatmap>,
    /// The latency attribution report, when `--latency` was on.
    pub latency: Option<LatencyReport>,
    /// The self-profiler's per-subsystem wall time, when `--profile`
    /// was on.
    pub profile: Option<ProfileReport>,
    /// The leakage report, when `--leakage` was on and the workload
    /// carried an attack plan.
    pub leakage: Option<LeakageReport>,
    /// The forensics report (provenance, chains, blame matrix), when
    /// `--forensics` was on.
    pub forensics: Option<ForensicsReport>,
    /// End-of-run per-bank occupancy of the sparse directory's finite
    /// structure (spill entries excluded) — the directory-pressure
    /// summary printed by `zivsim trace`.
    pub dir_slice_occupancy: Vec<usize>,
}

impl Observations {
    /// True when nothing at all was observed (the end-of-run directory
    /// summary alone does not count — it is always captured).
    pub fn is_empty(&self) -> bool {
        self.epochs.is_empty()
            && self.events.is_empty()
            && self.heatmap.is_none()
            && self.latency.is_none()
            && self.profile.is_none()
            && self.leakage.is_none()
            && self.forensics.is_none()
    }
}

/// A point-in-time progress sample published from the driver's hot loop
/// to a [`TelemetryProbe`].
///
/// All values are cheap running totals the driver already maintains; the
/// probe implementation (the harness's shared-memory worker record)
/// stores them with relaxed atomics under a seqlock, so publishing costs
/// a handful of word stores — no locks, no allocation, no syscalls.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProbeSnapshot {
    /// 0-based global index of the access just issued.
    pub access_index: u64,
    /// Instructions retired, summed over cores.
    pub instructions: u64,
    /// Cycles elapsed (max over core clocks, rounded down).
    pub cycles: u64,
    /// LLC accesses so far.
    pub llc_accesses: u64,
    /// LLC misses so far.
    pub llc_misses: u64,
    /// Inclusion victims so far.
    pub inclusion_victims: u64,
    /// ZIV relocations so far.
    pub relocations: u64,
    /// Sampling stratum code (0 = full-detail run; the sampling driver
    /// publishes its phase: 1 head, 2 skip, 3 warm, 4 timed).
    pub stratum: u64,
}

/// Sampling-convergence state published at each interval close.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SamplingProgress {
    /// Closed measurement intervals so far.
    pub intervals: u64,
    /// Running mean of per-interval IPC.
    pub ipc_mean: f64,
    /// Half-width of the running IPC confidence interval (0 until at
    /// least two intervals have closed).
    pub ipc_half_width: f64,
}

/// Live-telemetry publication hook threaded through the sim driver.
///
/// Mirrors the [`CancelToken`](crate::CancelToken) pattern: the driver
/// takes an `Option<&dyn TelemetryProbe>` and consults it on the same
/// 256-access cadence as cancellation polling, so a `None` probe costs a
/// single never-taken branch and the unwatched hot path is unchanged.
/// Implementations must be cheap, lock-free, and allocation-free — they
/// run inside the access loop.
///
/// The probe's outputs are observability-only: they must never feed back
/// into simulation state, and nothing published through a probe may be
/// digested, so probed and unprobed runs stay byte-identical in every
/// recorded artifact.
pub trait TelemetryProbe: Sync {
    /// A cell is starting on this probe's worker.
    fn cell_begin(
        &self,
        _spec_index: u64,
        _workload_index: u64,
        _expected_accesses: u64,
        _label: &str,
        _workload: &str,
    ) {
    }

    /// Periodic progress sample from the access hot loop.
    fn publish_progress(&self, snap: &ProbeSnapshot);

    /// Sampling-interval convergence update (sampled runs only).
    fn publish_sampling(&self, _progress: &SamplingProgress) {}

    /// The current cell finished (successfully or not).
    fn cell_end(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, access: u64) -> TraceEvent {
        TraceEvent {
            kind,
            access_index: access,
            cycle: access * 10,
            line: 0x40 + access,
            core: Some(1),
            bank: Some(2),
            set: Some(3),
            way: Some(4),
        }
    }

    #[test]
    fn columns_match_metric_scalars() {
        let m = Metrics::new(2);
        assert_eq!(metrics_scalars(&m).len(), METRICS_COLUMNS.len());
        assert_eq!(
            core_metrics_scalars(&m.per_core[0]).len(),
            CORE_METRICS_COLUMNS.len()
        );
        // A couple of spot checks that names align with values.
        let mut m = Metrics::new(1);
        m.relocations = 7;
        let i = METRICS_COLUMNS
            .iter()
            .position(|&c| c == "relocations")
            .unwrap();
        assert_eq!(metrics_scalars(&m)[i], 7);
    }

    #[test]
    fn slicer_samples_telescope_to_aggregate() {
        let mut s = EpochSlicer::new(10, 1);
        let mut m = Metrics::new(1);
        m.llc_accesses = 8;
        m.per_core[0].accesses = 10;
        s.slice(10, &m);
        m.llc_accesses = 20;
        m.per_core[0].accesses = 20;
        s.slice(20, &m);
        // End-of-run rewind: per-core counter decreases.
        m.per_core[0].accesses = 17;
        m.per_core[0].cycles = 100;
        m.per_core[0].instructions = 50;
        s.finish(20, &m);
        let samples = s.into_samples();
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[2].start_access, samples[2].end_access);
        let acc_col = column_index(CORE_METRICS_COLUMNS, "accesses");
        assert_eq!(
            samples[2].per_core[0][acc_col], -3,
            "rewind delta is negative"
        );
        // Conservation: column sums equal the final aggregate.
        for (i, &name) in METRICS_COLUMNS.iter().enumerate() {
            let sum: i64 = samples.iter().map(|s| s.global[i]).sum();
            assert_eq!(sum, metrics_scalars(&m)[i] as i64, "column {name}");
        }
        for (i, &name) in CORE_METRICS_COLUMNS.iter().enumerate() {
            let sum: i64 = samples.iter().map(|s| s.per_core[0][i]).sum();
            assert_eq!(
                sum,
                core_metrics_scalars(&m.per_core[0])[i] as i64,
                "core column {name}"
            );
        }
        assert!((samples[2].core_ipc(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn slicer_finish_skips_noop_closing_sample() {
        let mut s = EpochSlicer::new(5, 1);
        let mut m = Metrics::new(1);
        m.llc_accesses = 5;
        s.slice(5, &m);
        s.finish(5, &m);
        assert_eq!(s.samples().len(), 1, "nothing changed after the boundary");
    }

    #[test]
    fn slicer_clamps_zero_epoch() {
        let s = EpochSlicer::new(0, 1);
        assert_eq!(s.epoch_len(), 1);
        assert!(s.due(1));
    }

    #[test]
    fn ring_keeps_last_k_in_order() {
        let mut r = EventRing::new(3);
        assert!(r.is_empty());
        for i in 0..5 {
            r.push(ev(EventKind::Fill, i));
        }
        assert_eq!(r.recorded(), 5);
        assert_eq!(r.len(), 3);
        let kept: Vec<u64> = r.ordered().iter().map(|e| e.access_index).collect();
        assert_eq!(kept, vec![2, 3, 4]);
    }

    #[test]
    fn filter_parse_round_trips() {
        assert_eq!(EventFilter::parse("all").unwrap(), EventFilter::all());
        let f = EventFilter::parse("fill, back-invalidation").unwrap();
        assert!(f.contains(EventKind::Fill));
        assert!(f.contains(EventKind::BackInvalidation));
        assert!(!f.contains(EventKind::Eviction));
        assert_eq!(EventFilter::parse(&f.label()).unwrap(), f);
        assert_eq!(EventFilter::all().label(), "all");
    }

    #[test]
    fn filter_parse_rejects_unknown_tokens_as_config_errors() {
        let err = EventFilter::parse("fill,bogus").unwrap_err();
        assert_eq!(err.kind_tag(), "config");
        let msg = err.to_string();
        assert!(msg.contains("'bogus'"), "names the bad token: {msg}");
        for kind in EventKind::ALL {
            assert!(msg.contains(kind.label()), "lists accepted set: {msg}");
        }
        let empty = EventFilter::parse("").unwrap_err();
        assert_eq!(empty.kind_tag(), "config");
    }

    #[test]
    fn event_json_round_trips() {
        for kind in EventKind::ALL {
            let e = ev(kind, 42);
            let back = TraceEvent::from_json(&e.to_json()).unwrap();
            assert_eq!(back, e);
        }
        // None fields are omitted and read back as None.
        let mut e = ev(EventKind::DirectoryVictim, 7);
        e.core = None;
        e.way = None;
        let text = e.to_json().to_string();
        assert!(!text.contains("\"way\""));
        let back = TraceEvent::from_json(&ziv_common::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn recorder_respects_filter_and_heatmap_flag() {
        let cfg = ObserveConfig {
            events: Some(EventTraceConfig {
                capacity: 8,
                filter: EventFilter::none().with(EventKind::Eviction),
            }),
            ..ObserveConfig::disabled()
        };
        let mut rec = FlightRecorder::new(&cfg, 2, 4, 16).unwrap();
        rec.record(ev(EventKind::Fill, 0));
        rec.record(ev(EventKind::Eviction, 1));
        let out = rec.finish();
        assert_eq!(out.events_recorded, 1);
        assert_eq!(out.events.len(), 1);
        assert_eq!(out.events[0].kind, EventKind::Eviction);
        assert!(out.heatmap.is_none());
        assert!(out.latency.is_none());
        assert!(out.leakage.is_none());
        assert!(out.forensics.is_none());
        assert!(FlightRecorder::new(&ObserveConfig::disabled(), 2, 4, 16).is_none());
    }

    #[test]
    fn observe_config_enablement() {
        assert!(!ObserveConfig::disabled().is_enabled());
        assert!(!ObserveConfig::default().is_enabled());
        let epoch_only = ObserveConfig {
            epoch: Some(100),
            ..ObserveConfig::disabled()
        };
        assert!(epoch_only.is_enabled() && !epoch_only.wants_recorder());
        let heat = ObserveConfig {
            heatmap: true,
            ..ObserveConfig::disabled()
        };
        assert!(heat.wants_recorder());
        let lat = ObserveConfig {
            latency: true,
            ..ObserveConfig::disabled()
        };
        assert!(lat.wants_recorder() && lat.is_enabled());
        let prof = ObserveConfig {
            profile: true,
            ..ObserveConfig::disabled()
        };
        assert!(prof.is_enabled() && !prof.wants_recorder());
        let leak = ObserveConfig {
            leakage: true,
            ..ObserveConfig::disabled()
        };
        assert!(leak.wants_recorder() && leak.is_enabled());
        let forensics = ObserveConfig {
            forensics: true,
            ..ObserveConfig::disabled()
        };
        assert!(forensics.wants_recorder() && forensics.is_enabled());
    }

    use crate::llc::VictimReason;

    fn line(raw: u64) -> LineAddr {
        LineAddr::new(raw)
    }

    fn tear_out(kind: ChainKind, raw: u64, victims: &[usize]) -> HierarchyEvent {
        let mut set = SharerSet::EMPTY;
        for &v in victims {
            set.insert(CoreId::new(v));
        }
        HierarchyEvent::TearOut(TearOut {
            kind,
            line: line(raw),
            loc: None,
            instigator: CoreId::new(0),
            reason: VictimReason::Baseline,
            victims: set,
        })
    }

    /// Core `core`'s private miss on `raw`, served from DRAM in `cycles`.
    fn miss(rec: &mut FlightRecorder, core: usize, raw: u64, cycles: Cycle) {
        let core = CoreId::new(core);
        rec.observe(
            9,
            0,
            HierarchyEvent::LlcLookup {
                core,
                line: line(raw),
            },
        );
        let breakdown = LatencyBreakdown {
            dram: cycles,
            ..LatencyBreakdown::default()
        };
        let class = AccessClass::LlcMissDram;
        rec.observe(
            9,
            0,
            HierarchyEvent::Access {
                core,
                line: line(raw),
                class,
                breakdown,
            },
        );
    }

    fn all_observers() -> ObserveConfig {
        ObserveConfig {
            events: Some(EventTraceConfig::default()),
            latency: true,
            leakage: true,
            forensics: true,
            ..ObserveConfig::disabled()
        }
    }

    #[test]
    fn one_tear_out_feeds_every_observer_once_per_victim() {
        let mut rec = FlightRecorder::new(&all_observers(), 3, 4, 16).unwrap();
        rec.attach_leakage(LeakageObservatory::new(3, 4, 16, &[0], &[1], &[0x41]));
        rec.observe(7, 70, tear_out(ChainKind::Inclusive, 0x41, &[1, 2]));
        let out = rec.finish();
        let kinds: Vec<_> = out.events.iter().map(|e| (e.kind, e.core)).collect();
        let back = EventKind::BackInvalidation;
        assert_eq!(kinds, vec![(back, Some(1)), (back, Some(2))]);
        let forensics = out.forensics.unwrap();
        assert_eq!(forensics.chains_recorded, 1);
        assert_eq!(forensics.total_victims(), 2);
        let leakage = out.leakage.unwrap();
        assert_eq!(leakage.total_back_invalidations(), 2);
        assert_eq!(leakage.observable_victim_evictions(), 1);
    }

    #[test]
    fn victim_table_attributes_one_refetch_per_tear_out() {
        let mut rec = FlightRecorder::new(&all_observers(), 2, 4, 16).unwrap();
        miss(&mut rec, 1, 0x40, 100); // nothing torn out yet
        rec.observe(1, 10, tear_out(ChainKind::Inclusive, 0x40, &[1]));
        miss(&mut rec, 0, 0x40, 100); // tables are per-core
        miss(&mut rec, 1, 0x40, 100); // the refetch
        miss(&mut rec, 1, 0x40, 100); // taking clears the entry
        let out = rec.finish();
        let latency = out.latency.unwrap();
        assert_eq!(
            latency
                .class_total(AccessClass::InclusionVictimRefetch)
                .count,
            1
        );
        assert_eq!(latency.inclusion_victim_refetch_cycles(), 100);
        let forensics = out.forensics.unwrap();
        assert_eq!(forensics.total_refetch_cycles(), 100);
        assert_eq!(forensics.chains[0].refetches, 1);
    }

    #[test]
    fn victim_table_collisions_overwrite() {
        let mut rec = FlightRecorder::new(&all_observers(), 1, 4, 16).unwrap();
        let (a, b) = (0x7, 0x7 + VICTIM_TABLE_SLOTS as u64);
        rec.observe(0, 0, tear_out(ChainKind::Inclusive, a, &[0]));
        rec.observe(1, 0, tear_out(ChainKind::Inclusive, b, &[0])); // same slot
        miss(&mut rec, 0, a, 5); // older colliding entry forgotten
        miss(&mut rec, 0, b, 7);
        let latency = rec.finish().latency.unwrap();
        assert_eq!(latency.inclusion_victim_refetch_cycles(), 7);
    }

    #[test]
    fn refetch_class_needs_latency_attribution() {
        // Leakage sees the reclassified refetch only when latency
        // attribution runs; forensics blames the refetch either way.
        for latency in [true, false] {
            let cfg = ObserveConfig {
                latency,
                ..all_observers()
            };
            let mut rec = FlightRecorder::new(&cfg, 2, 4, 16).unwrap();
            rec.attach_leakage(LeakageObservatory::new(2, 4, 16, &[1], &[0], &[0x40]));
            rec.observe(0, 0, tear_out(ChainKind::Eci, 0x40, &[1]));
            rec.observe(
                1,
                0,
                HierarchyEvent::LlcLookup {
                    core: CoreId::new(1),
                    line: line(0x40),
                },
            );
            let breakdown = LatencyBreakdown {
                llc_tag: 3,
                ..LatencyBreakdown::default()
            };
            let (core, class) = (CoreId::new(1), AccessClass::LlcHit);
            rec.observe(
                1,
                0,
                HierarchyEvent::Access {
                    core,
                    line: line(0x40),
                    class,
                    breakdown,
                },
            );
            let out = rec.finish();
            let leakage = out.leakage.unwrap();
            assert_eq!(leakage.probe_evictions_seen(), u64::from(latency));
            assert_eq!(leakage.probe_hits(), u64::from(!latency));
            assert_eq!(out.forensics.unwrap().total_refetch_cycles(), 3);
        }
    }

    /// Seeded scripts of tear-outs, each followed by its first victim's
    /// refetch, keep the forensics books balanced: the matrix holds the
    /// victims fed in, the ring keeps the last ≤256 chains in order, and
    /// one tear-out explains at most one refetch.
    #[test]
    fn chain_scripts_keep_the_books_balanced() {
        for seed in 0..64u64 {
            let mut rng = ziv_common::SimRng::seed_from_u64(seed);
            let mut rec = FlightRecorder::new(&all_observers(), 3, 2, 4).unwrap();
            let (mut victims, mut eci, mut cycles) = (0u64, 0u64, 0u64);
            let chains = 1 + rng.below(400);
            for i in 0..chains {
                let kind = if rng.chance(0.5) {
                    eci += 1;
                    ChainKind::Eci
                } else {
                    ChainKind::Inclusive
                };
                let raw = rng.below(96);
                let mask = 1 + rng.below_usize(7);
                let cores: Vec<usize> = (0..3).filter(|c| mask & (1 << c) != 0).collect();
                victims += cores.len() as u64;
                rec.observe(i, i * 10, tear_out(kind, raw, &cores));
                let refetch = rng.below(500);
                cycles += refetch;
                miss(&mut rec, cores[0], raw, refetch);
                miss(&mut rec, cores[0], raw, 1_000); // no second refetch
            }
            let out = rec.finish();
            let r = out.forensics.unwrap();
            assert_eq!(r.total_victims(), victims, "seed {seed}");
            assert_eq!(r.chains_recorded, chains, "seed {seed}");
            assert_eq!(r.eci_chains, eci, "seed {seed}");
            assert_eq!(r.inclusive_chains, chains - eci, "seed {seed}");
            assert_eq!(r.total_refetches(), chains, "seed {seed}");
            assert_eq!(r.total_refetch_cycles(), cycles, "seed {seed}");
            assert_eq!(
                out.latency.unwrap().inclusion_victim_refetch_cycles(),
                cycles
            );
            assert_eq!(r.chains.len() as u64, chains.min(256), "seed {seed}");
            assert!(
                r.chains.windows(2).all(|p| p[0].seq < p[1].seq),
                "seed {seed}"
            );
            assert_eq!(r.set_victims.iter().sum::<u64>(), victims, "seed {seed}");
            assert_eq!(r.phase_victims.iter().sum::<u64>(), victims, "seed {seed}");
        }
    }

    #[test]
    fn fills_stamp_provenance_and_heat_follows_the_stream() {
        let cfg = ObserveConfig {
            heatmap: true,
            forensics: true,
            ..ObserveConfig::disabled()
        };
        let mut rec = FlightRecorder::new(&cfg, 2, 4, 16).unwrap();
        let loc = LlcLocation {
            bank: ziv_common::BankId::new(1),
            set: 3,
            way: 2,
        };
        let (core, l) = (CoreId::new(1), line(0x0d)); // bank 1, set 3
        let relocation = crate::llc::RelocationOutcome {
            moved_line: line(0x2d),
            to: loc,
            evicted_from_rs: None,
            cross_bank: false,
        };
        let outcome = FillOutcome {
            loc,
            relocation: Some(relocation),
            ..FillOutcome::default()
        };
        rec.observe(
            4,
            40,
            HierarchyEvent::Fill {
                line: l,
                core,
                outcome,
            },
        );
        rec.observe(5, 50, HierarchyEvent::LlcLookup { core, line: l });
        rec.observe(6, 60, HierarchyEvent::Eviction { line: l, loc });
        rec.observe(6, 60, tear_out(ChainKind::Inclusive, 0x0d, &[1]));
        let out = rec.finish();
        let hm = out.heatmap.unwrap();
        assert_eq!(hm.accesses.get(1, 3), 1);
        assert_eq!(hm.evictions.get(1, 3), 1);
        assert_eq!(hm.relocations.get(1, 3), 1);
        let forensics = out.forensics.unwrap();
        assert_eq!(forensics.fills_stamped, 1);
        let alloc = forensics.chains[0].alloc.expect("stamp survived");
        assert_eq!((alloc.access_index, alloc.core, alloc.way), (4, core, 2));
    }
}
