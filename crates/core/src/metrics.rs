//! Simulation statistics and the on-chip energy model backing the
//! paper's figures (miss counts for Figs 2–4/10/13, inclusion victims
//! for Fig 2, relocation statistics for Fig 18, energy for Fig 19).

use crate::forensics::ChainKind;
use crate::latency::AccessClass;
use crate::observe::HierarchyEvent;
use ziv_common::json::JsonValue;
use ziv_common::stats::Log2Histogram;

/// Energy of one LLC data-array read (64 B, 1 MB-class bank, 22 nm),
/// in picojoules (CACTI-class constant; DESIGN.md §5.5).
pub const LLC_READ_PJ: f64 = 220.0;

/// Energy of one LLC data-array write, in picojoules.
pub const LLC_WRITE_PJ: f64 = 260.0;

/// Energy of one L2 access, in picojoules.
pub const L2_ACCESS_PJ: f64 = 60.0;

/// Energy of one sparse-directory lookup/update in the ZIV-widened
/// directory, in picojoules.
pub const DIR_ACCESS_PJ: f64 = 18.0;

/// Per-core counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoreMetrics {
    /// Demand accesses issued by the core.
    pub accesses: u64,
    /// L1 misses (instruction + data).
    pub l1_misses: u64,
    /// Private L2 misses.
    pub l2_misses: u64,
    /// LLC misses attributed to this core.
    pub llc_misses: u64,
    /// Private blocks of this core invalidated as inclusion victims.
    pub inclusion_victims_suffered: u64,
    /// Total cycles accumulated by the core's access stream (set by the
    /// driving simulator).
    pub cycles: u64,
    /// Instructions retired (set by the driving simulator).
    pub instructions: u64,
}

/// All counters for one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Per-core breakdown.
    pub per_core: Vec<CoreMetrics>,
    /// Total LLC lookups.
    pub llc_accesses: u64,
    /// Total LLC hits (including hits on relocated blocks).
    pub llc_hits: u64,
    /// Hits served from relocated blocks (pay the Section III-C1 delta).
    pub relocated_hits: u64,
    /// Total LLC misses.
    pub llc_misses: u64,
    /// LLC fills performed on the demand path. Every demand miss fills,
    /// so this equals `llc_misses` by construction: both count the same
    /// LLC-miss access events. The auditor still checks the law.
    pub llc_demand_fills: u64,
    /// Private cache blocks invalidated because their LLC copy was
    /// evicted — **the inclusion victims of Fig 2** (one count per core
    /// whose private hierarchy lost the block).
    pub inclusion_victims: u64,
    /// LLC evictions that generated at least one inclusion victim.
    pub inclusion_victim_events: u64,
    /// Private blocks invalidated by sparse-directory evictions
    /// (Fig 15's mechanism; zero under ZeroDEV).
    pub directory_back_invalidations: u64,
    /// Private copies invalidated by coherent writes (not inclusion
    /// victims).
    pub coherence_invalidations: u64,
    /// ZIV relocations performed.
    pub relocations: u64,
    /// Relocations that crossed banks (Section III-D1 fallback).
    pub cross_bank_relocations: u64,
    /// ZIV fills that found an alternate victim in the original set
    /// (no relocation needed).
    pub in_set_alternate_victims: u64,
    /// Inclusive-mode fallback evictions in ZIV mode when no
    /// `NotInPrC` block existed anywhere (impossible under the paper's
    /// capacity invariant; counted defensively).
    pub ziv_guarantee_fallbacks: u64,
    /// QBS directory queries issued.
    pub qbs_queries: u64,
    /// SHARP random-eviction alarms (step 3).
    pub sharp_alarms: u64,
    /// Writebacks from the LLC to memory.
    pub llc_writebacks: u64,
    /// Writebacks sent directly to memory for relocated blocks
    /// (Section III-C2).
    pub relocated_writebacks: u64,
    /// Dirty private evictions merged into the LLC.
    pub private_writebacks: u64,
    /// DRAM reads + writes.
    pub dram_accesses: u64,
    /// Prefetches issued by the (optional) stride prefetchers.
    pub prefetches_issued: u64,
    /// Prefetches that actually filled a new L2/LLC block.
    pub prefetch_fills: u64,
    /// Prefetches dropped (already resident, or coherence conflicts).
    pub prefetch_drops: u64,
    /// TLH temporal-locality hints delivered to the LLC.
    pub tlh_hints: u64,
    /// ECI early core invalidations performed.
    pub eci_early_invalidations: u64,
    /// RIC evictions that skipped back-invalidation (read-only blocks).
    pub ric_relaxations: u64,
    /// Total latency (cycles) returned by every demand access, summed
    /// across cores. The conservation anchor for the latency
    /// observatory: the per-component attribution must sum to exactly
    /// this value. Injected fault stalls are excluded (they are not
    /// access latency). Never rewound at end-of-run, unlike the
    /// per-core counters.
    pub access_latency_cycles: u64,
    /// Per-bank relocation-interval histogram (log2 cycles) — Fig 18.
    pub relocation_intervals: Log2Histogram,
    /// LLC data-array reads (energy accounting).
    pub llc_reads_energy_events: u64,
    /// LLC data-array writes (energy accounting).
    pub llc_writes_energy_events: u64,
    /// L2 accesses (energy accounting).
    pub l2_energy_events: u64,
    /// Directory accesses (energy accounting).
    pub dir_energy_events: u64,
    /// DRAM energy accumulated, picojoules.
    pub dram_energy_pj: f64,
}

impl Metrics {
    /// Creates metrics for `cores` cores.
    pub fn new(cores: usize) -> Self {
        Metrics {
            per_core: vec![CoreMetrics::default(); cores],
            ..Default::default()
        }
    }

    /// Counts one hierarchy event: the only place a counter moves while
    /// the hierarchy runs (the driver owns `cycles`, `instructions` and
    /// the lap rewinds; `CacheHierarchy::finalize` merges end-of-run
    /// totals). Force-inlined, so the event each call site builds folds
    /// into the counters it moves (DESIGN.md §8).
    #[inline(always)]
    pub(crate) fn count(&mut self, ev: &HierarchyEvent) {
        match *ev {
            HierarchyEvent::Access {
                core,
                class,
                breakdown,
                ..
            } => {
                let c = &mut self.per_core[core.index()];
                c.accesses += 1;
                self.access_latency_cycles += breakdown.total();
                if class == AccessClass::L1Hit {
                    return;
                }
                c.l1_misses += 1;
                self.l2_energy_events += 1;
                if class == AccessClass::L2Hit {
                    return;
                }
                // A private miss looks the line up in the LLC and directory.
                c.l2_misses += 1;
                self.llc_accesses += 1;
                self.dir_energy_events += 1;
                match class {
                    AccessClass::LlcHit | AccessClass::LlcRelocatedHit => {
                        self.llc_hits += 1;
                        self.relocated_hits += u64::from(class == AccessClass::LlcRelocatedHit);
                        self.llc_reads_energy_events += 1;
                    }
                    // An LLC miss; every demand miss fills (refetch is the recorder's).
                    _ => {
                        self.llc_misses += 1;
                        c.llc_misses += 1;
                        self.llc_demand_fills += 1;
                        self.dram_accesses += u64::from(class == AccessClass::LlcMissDram);
                    }
                }
            }
            HierarchyEvent::Fill { ref outcome, .. } => {
                self.llc_writes_energy_events += 1;
                self.qbs_queries += outcome.qbs_queries;
                self.sharp_alarms += u64::from(outcome.sharp_alarm);
                self.in_set_alternate_victims += u64::from(outcome.in_set_alternate);
                self.ziv_guarantee_fallbacks += u64::from(outcome.ziv_fallback);
                if let Some(rel) = outcome.relocation {
                    // Its new location goes into the widened directory.
                    self.relocations += 1;
                    self.cross_bank_relocations += u64::from(rel.cross_bank);
                    self.dir_energy_events += 1;
                }
            }
            HierarchyEvent::TearOut(ref t) => {
                let victims = u64::from(t.victims.count());
                for s in t.victims.iter() {
                    self.per_core[s.index()].inclusion_victims_suffered += 1;
                }
                self.inclusion_victims += victims;
                match t.kind {
                    ChainKind::Inclusive => self.inclusion_victim_events += 1,
                    ChainKind::Eci => self.eci_early_invalidations += victims,
                }
            }
            HierarchyEvent::DirectoryVictim { sharers, .. } => {
                self.directory_back_invalidations += u64::from(sharers.count());
            }
            HierarchyEvent::CoherenceInvalidation { invalidated } => {
                self.coherence_invalidations += u64::from(invalidated.count());
            }
            HierarchyEvent::TlhHint => self.tlh_hints += 1,
            HierarchyEvent::PrefetchDrop => {
                self.prefetches_issued += 1;
                self.prefetch_drops += 1;
            }
            HierarchyEvent::PrefetchFill { from_llc } => {
                self.prefetches_issued += 1;
                self.prefetch_fills += 1;
                self.dram_accesses += u64::from(!from_llc);
            }
            HierarchyEvent::RicRelaxation => self.ric_relaxations += 1,
            HierarchyEvent::Writeback { relocated } => {
                self.llc_writebacks += 1;
                self.relocated_writebacks += u64::from(relocated);
                self.dram_accesses += 1;
            }
            HierarchyEvent::Notice { dirty } => {
                self.dir_energy_events += 1;
                self.private_writebacks += u64::from(dirty);
            }
            HierarchyEvent::LlcLookup { .. } | HierarchyEvent::Eviction { .. } => {}
        }
    }

    /// Total instructions across cores.
    pub fn total_instructions(&self) -> u64 {
        self.per_core.iter().map(|c| c.instructions).sum()
    }

    /// Total L2 misses across cores (Figs 4/10/13 lower panels).
    pub fn total_l2_misses(&self) -> u64 {
        self.per_core.iter().map(|c| c.l2_misses).sum()
    }

    /// Energy spent on relocations, in picojoules: each relocation reads
    /// the block out of the LLC, writes it into the relocation set, and
    /// updates the widened sparse directory (Fig 19's primary component).
    pub fn relocation_energy_pj(&self) -> f64 {
        self.relocations as f64 * (LLC_READ_PJ + LLC_WRITE_PJ + DIR_ACCESS_PJ)
    }

    /// Relocation energy per instruction, in picojoules (Fig 19's
    /// y-axis). Returns 0 when no instructions were recorded.
    pub fn relocation_epi_pj(&self) -> f64 {
        let instr = self.total_instructions();
        if instr == 0 {
            0.0
        } else {
            self.relocation_energy_pj() / instr as f64
        }
    }

    /// Total on-chip + DRAM energy per instruction, picojoules
    /// (the Fig 19 comparison of costs vs savings).
    pub fn total_epi_pj(&self) -> f64 {
        let instr = self.total_instructions();
        if instr == 0 {
            return 0.0;
        }
        let on_chip = self.llc_reads_energy_events as f64 * LLC_READ_PJ
            + self.llc_writes_energy_events as f64 * LLC_WRITE_PJ
            + self.l2_energy_events as f64 * L2_ACCESS_PJ
            + self.dir_energy_events as f64 * DIR_ACCESS_PJ;
        (on_chip + self.dram_energy_pj) / instr as f64
    }

    /// Fraction of LLC misses that required a relocation (the paper
    /// reports 12% on average, max 33%, for ZIV-LikelyDead at 512 KB).
    pub fn relocation_rate(&self) -> f64 {
        if self.llc_misses == 0 {
            0.0
        } else {
            self.relocations as f64 / self.llc_misses as f64
        }
    }
}

/// Expands a macro over every scalar `u64` counter of [`CoreMetrics`].
macro_rules! core_metrics_u64_fields {
    ($mac:ident!($($extra:tt)*)) => {
        $mac!($($extra)* accesses, l1_misses, l2_misses, llc_misses,
              inclusion_victims_suffered, cycles, instructions)
    };
}

/// Expands a macro over every scalar `u64` counter of [`Metrics`], so
/// the JSON serializer and parser below cannot drift apart (adding a
/// counter without updating the ledger schema is a compile error in
/// exactly one place).
macro_rules! metrics_u64_fields {
    ($mac:ident!($($extra:tt)*)) => {
        $mac!($($extra)* llc_accesses, llc_hits, relocated_hits, llc_misses,
              llc_demand_fills, inclusion_victims, inclusion_victim_events,
              directory_back_invalidations, coherence_invalidations,
              relocations, cross_bank_relocations, in_set_alternate_victims,
              ziv_guarantee_fallbacks, qbs_queries, sharp_alarms,
              llc_writebacks, relocated_writebacks, private_writebacks,
              dram_accesses, prefetches_issued, prefetch_fills,
              prefetch_drops, tlh_hints, eci_early_invalidations,
              ric_relaxations, access_latency_cycles,
              llc_reads_energy_events, llc_writes_energy_events,
              l2_energy_events, dir_energy_events)
    };
}

// Shared with `crate::observe` so the epoch slicer's column names and
// delta extraction enumerate exactly the same fields as the ledger
// serializer — the time-series cannot drift from the JSON schema.
pub(crate) use core_metrics_u64_fields;
pub(crate) use metrics_u64_fields;

fn req_u64(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing u64 field '{key}'"))
}

impl CoreMetrics {
    /// Serializes the counters as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        let mut fields = Vec::new();
        macro_rules! put {
            ($($f:ident),*) => {
                $(fields.push((stringify!($f).to_string(), JsonValue::u64(self.$f)));)*
            };
        }
        core_metrics_u64_fields!(put!());
        JsonValue::Obj(fields)
    }

    /// Rebuilds the counters from [`CoreMetrics::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or mistyped field.
    pub fn from_json(v: &JsonValue) -> Result<Self, String> {
        let mut m = CoreMetrics::default();
        macro_rules! get {
            ($($f:ident),*) => {
                $(m.$f = req_u64(v, stringify!($f))?;)*
            };
        }
        core_metrics_u64_fields!(get!());
        Ok(m)
    }
}

impl Metrics {
    /// Serializes all counters (including the per-core breakdown and
    /// the relocation-interval histogram) as a JSON object that
    /// [`Metrics::from_json`] reverses exactly.
    pub fn to_json(&self) -> JsonValue {
        let mut fields = vec![(
            "per_core".to_string(),
            JsonValue::Arr(self.per_core.iter().map(CoreMetrics::to_json).collect()),
        )];
        macro_rules! put {
            ($($f:ident),*) => {
                $(fields.push((stringify!($f).to_string(), JsonValue::u64(self.$f)));)*
            };
        }
        metrics_u64_fields!(put!());
        let hist = self.relocation_intervals.buckets();
        let used = hist.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
        fields.push((
            "relocation_intervals".to_string(),
            JsonValue::Arr(hist[..used].iter().map(|&c| JsonValue::u64(c)).collect()),
        ));
        fields.push((
            "dram_energy_pj".to_string(),
            JsonValue::f64(self.dram_energy_pj),
        ));
        JsonValue::Obj(fields)
    }

    /// Rebuilds metrics from [`Metrics::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or mistyped field.
    pub fn from_json(v: &JsonValue) -> Result<Self, String> {
        let mut m = Metrics {
            per_core: v
                .get("per_core")
                .and_then(JsonValue::as_array)
                .ok_or("missing array field 'per_core'")?
                .iter()
                .map(CoreMetrics::from_json)
                .collect::<Result<_, _>>()?,
            ..Metrics::default()
        };
        macro_rules! get {
            ($($f:ident),*) => {
                $(m.$f = req_u64(v, stringify!($f))?;)*
            };
        }
        metrics_u64_fields!(get!());
        let buckets = v
            .get("relocation_intervals")
            .and_then(JsonValue::as_array)
            .ok_or("missing array field 'relocation_intervals'")?
            .iter()
            .map(|b| {
                b.as_u64()
                    .ok_or_else(|| "non-integer histogram bucket".to_string())
            })
            .collect::<Result<Vec<u64>, _>>()?;
        if buckets.len() > 64 {
            return Err("relocation_intervals has more than 64 buckets".into());
        }
        m.relocation_intervals = Log2Histogram::from_buckets(&buckets);
        m.dram_energy_pj = v
            .get("dram_energy_pj")
            .and_then(JsonValue::as_f64)
            .ok_or("missing f64 field 'dram_energy_pj'")?;
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sizes_per_core() {
        let m = Metrics::new(8);
        assert_eq!(m.per_core.len(), 8);
        assert_eq!(m.total_instructions(), 0);
    }

    #[test]
    fn relocation_energy_scales_with_count() {
        let mut m = Metrics::new(1);
        m.relocations = 10;
        m.per_core[0].instructions = 1000;
        let epi = m.relocation_epi_pj();
        assert!((epi - 10.0 * (LLC_READ_PJ + LLC_WRITE_PJ + DIR_ACCESS_PJ) / 1000.0).abs() < 1e-9);
    }

    #[test]
    fn epi_zero_without_instructions() {
        let m = Metrics::new(1);
        assert_eq!(m.relocation_epi_pj(), 0.0);
        assert_eq!(m.total_epi_pj(), 0.0);
    }

    #[test]
    fn relocation_rate_guards_division() {
        let mut m = Metrics::new(1);
        assert_eq!(m.relocation_rate(), 0.0);
        m.llc_misses = 100;
        m.relocations = 12;
        assert!((m.relocation_rate() - 0.12).abs() < 1e-12);
    }

    #[test]
    fn json_round_trip_preserves_every_field() {
        let mut m = Metrics::new(2);
        m.per_core[0].accesses = 10;
        m.per_core[0].l1_misses = 3;
        m.per_core[1].l2_misses = 4;
        m.per_core[1].cycles = u64::MAX; // exercise exact u64 range
        m.llc_accesses = 123;
        m.llc_hits = 100;
        m.relocated_hits = 7;
        m.llc_misses = 23;
        m.inclusion_victims = 5;
        m.relocations = 9;
        m.dram_energy_pj = 1234.5678e3;
        m.relocation_intervals.record(5);
        m.relocation_intervals.record(1024);
        let back = Metrics::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn json_parse_reports_missing_fields() {
        let mut m = Metrics::new(1);
        m.llc_hits = 2;
        let text = m.to_json().to_string().replace("\"llc_hits\":2,", "");
        let v = ziv_common::json::parse(&text).unwrap();
        let err = Metrics::from_json(&v).unwrap_err();
        assert!(err.contains("llc_hits"), "{err}");
    }

    #[test]
    fn total_l2_misses_sums_cores() {
        let mut m = Metrics::new(2);
        m.per_core[0].l2_misses = 3;
        m.per_core[1].l2_misses = 4;
        assert_eq!(m.total_l2_misses(), 7);
    }

    use crate::latency::LatencyBreakdown;
    use crate::llc::{FillOutcome, RelocationOutcome, VictimReason};
    use crate::observe::{
        core_metrics_scalars, metrics_scalars, TearOut, CORE_METRICS_COLUMNS, METRICS_COLUMNS,
    };
    use std::collections::BTreeMap;
    use ziv_common::{BankId, CoreId, LineAddr};
    use ziv_directory::{LlcLocation, SharerSet};

    const CLASSES: [AccessClass; 6] = [
        AccessClass::L1Hit,
        AccessClass::L2Hit,
        AccessClass::LlcHit,
        AccessClass::LlcRelocatedHit,
        AccessClass::LlcMissSupplied,
        AccessClass::LlcMissDram,
    ];

    fn access(core: usize, class: AccessClass, cycles: u64) -> HierarchyEvent {
        HierarchyEvent::Access {
            core: CoreId::new(core),
            line: LineAddr::new(0x40),
            class,
            breakdown: LatencyBreakdown {
                l2: cycles,
                ..LatencyBreakdown::default()
            },
        }
    }

    fn sharers(cores: &[usize]) -> SharerSet {
        let mut set = SharerSet::EMPTY;
        for &c in cores {
            set.insert(CoreId::new(c));
        }
        set
    }

    fn tear_out(kind: ChainKind, cores: &[usize]) -> HierarchyEvent {
        HierarchyEvent::TearOut(TearOut {
            kind,
            line: LineAddr::new(7),
            loc: None,
            instigator: CoreId::new(0),
            reason: VictimReason::Baseline,
            victims: sharers(cores),
        })
    }

    /// The counters one event moves on a fresh 3-core `Metrics`, by
    /// name; per-core counters of core `c` are named `c.<counter>`.
    fn moved(ev: HierarchyEvent) -> BTreeMap<String, u64> {
        let mut m = Metrics::new(3);
        m.count(&ev);
        let global = METRICS_COLUMNS
            .iter()
            .map(|c| c.to_string())
            .zip(metrics_scalars(&m));
        let per_core = m.per_core.iter().enumerate().flat_map(|(i, c)| {
            let names = CORE_METRICS_COLUMNS.iter().map(move |n| format!("{i}.{n}"));
            names.zip(core_metrics_scalars(c))
        });
        global.chain(per_core).filter(|&(_, v)| v > 0).collect()
    }

    fn counters(list: &[(&str, u64)]) -> BTreeMap<String, u64> {
        list.iter().map(|&(n, v)| (n.to_string(), v)).collect()
    }

    #[test]
    fn each_access_class_moves_exactly_its_own_counters() {
        let l1_hit = [("access_latency_cycles", 5), ("1.accesses", 1)];
        let l2_hit = [("l2_energy_events", 1), ("1.l1_misses", 1)];
        let llc = [
            ("llc_accesses", 1),
            ("dir_energy_events", 1),
            ("1.l2_misses", 1),
        ];
        let hit = [("llc_hits", 1), ("llc_reads_energy_events", 1)];
        let miss = [
            ("llc_misses", 1),
            ("llc_demand_fills", 1),
            ("1.llc_misses", 1),
        ];
        let expect = |parts: &[&[(&str, u64)]]| counters(&parts.concat());
        let cases = [
            (AccessClass::L1Hit, expect(&[&l1_hit])),
            (AccessClass::L2Hit, expect(&[&l1_hit, &l2_hit])),
            (AccessClass::LlcHit, expect(&[&l1_hit, &l2_hit, &llc, &hit])),
            (
                AccessClass::LlcRelocatedHit,
                expect(&[&l1_hit, &l2_hit, &llc, &hit, &[("relocated_hits", 1)]]),
            ),
            (
                AccessClass::LlcMissSupplied,
                expect(&[&l1_hit, &l2_hit, &llc, &miss]),
            ),
            (
                AccessClass::LlcMissDram,
                expect(&[&l1_hit, &l2_hit, &llc, &miss, &[("dram_accesses", 1)]]),
            ),
        ];
        for (class, want) in cases {
            assert_eq!(moved(access(1, class, 5)), want, "{class:?}");
        }
    }

    #[test]
    fn every_other_event_moves_exactly_its_own_counters() {
        let (core, line) = (CoreId::new(2), LineAddr::new(9));
        let loc = LlcLocation {
            bank: BankId::new(1),
            set: 3,
            way: 2,
        };
        let cases = [
            (HierarchyEvent::LlcLookup { core, line }, counters(&[])),
            (HierarchyEvent::Eviction { line, loc }, counters(&[])),
            (
                HierarchyEvent::DirectoryVictim {
                    line,
                    sharers: sharers(&[0, 2]),
                },
                counters(&[("directory_back_invalidations", 2)]),
            ),
            (
                HierarchyEvent::CoherenceInvalidation {
                    invalidated: sharers(&[0, 1]),
                },
                counters(&[("coherence_invalidations", 2)]),
            ),
            (HierarchyEvent::TlhHint, counters(&[("tlh_hints", 1)])),
            (
                HierarchyEvent::PrefetchDrop,
                counters(&[("prefetches_issued", 1), ("prefetch_drops", 1)]),
            ),
            (
                HierarchyEvent::PrefetchFill { from_llc: true },
                counters(&[("prefetches_issued", 1), ("prefetch_fills", 1)]),
            ),
            (
                HierarchyEvent::PrefetchFill { from_llc: false },
                counters(&[
                    ("prefetches_issued", 1),
                    ("prefetch_fills", 1),
                    ("dram_accesses", 1),
                ]),
            ),
            (
                HierarchyEvent::RicRelaxation,
                counters(&[("ric_relaxations", 1)]),
            ),
            (
                HierarchyEvent::Writeback { relocated: false },
                counters(&[("llc_writebacks", 1), ("dram_accesses", 1)]),
            ),
            (
                HierarchyEvent::Writeback { relocated: true },
                counters(&[
                    ("llc_writebacks", 1),
                    ("relocated_writebacks", 1),
                    ("dram_accesses", 1),
                ]),
            ),
            (
                HierarchyEvent::Notice { dirty: true },
                counters(&[("dir_energy_events", 1), ("private_writebacks", 1)]),
            ),
            (
                HierarchyEvent::Fill {
                    line,
                    core,
                    outcome: FillOutcome::default(),
                },
                counters(&[("llc_writes_energy_events", 1)]),
            ),
        ];
        for (ev, want) in cases {
            assert_eq!(moved(ev), want, "{ev:?}");
        }
    }

    #[test]
    fn a_fill_counts_its_cross_bank_relocation_and_its_alarm() {
        let loc = LlcLocation {
            bank: BankId::new(1),
            set: 3,
            way: 2,
        };
        let relocation = RelocationOutcome {
            moved_line: LineAddr::new(5),
            to: loc,
            evicted_from_rs: None,
            cross_bank: true,
        };
        let outcome = FillOutcome {
            relocation: Some(relocation),
            sharp_alarm: true,
            qbs_queries: 4,
            in_set_alternate: true,
            ziv_fallback: true,
            ..FillOutcome::default()
        };
        let fill = HierarchyEvent::Fill {
            line: LineAddr::new(9),
            core: CoreId::new(0),
            outcome,
        };
        let want = counters(&[
            ("llc_writes_energy_events", 1),
            ("relocations", 1),
            ("cross_bank_relocations", 1),
            ("dir_energy_events", 1),
            ("sharp_alarms", 1),
            ("qbs_queries", 4),
            ("in_set_alternate_victims", 1),
            ("ziv_guarantee_fallbacks", 1),
        ]);
        assert_eq!(moved(fill), want);
    }

    #[test]
    fn tear_outs_count_each_victim_in_total_and_per_core_split_by_kind() {
        let mut m = Metrics::new(3);
        m.count(&tear_out(ChainKind::Inclusive, &[1, 2]));
        m.count(&tear_out(ChainKind::Eci, &[2]));
        m.count(&tear_out(ChainKind::Inclusive, &[0, 1, 2]));
        assert_eq!(m.inclusion_victims, 6);
        assert_eq!(m.inclusion_victim_events, 2);
        assert_eq!(m.eci_early_invalidations, 1);
        let suffered: Vec<u64> = m
            .per_core
            .iter()
            .map(|c| c.inclusion_victims_suffered)
            .collect();
        assert_eq!(suffered, [1, 2, 3]);
    }

    /// Seeded sequences of access events keep the auditor's conservation
    /// laws after every event: LLC hits + misses = LLC accesses, demand
    /// fills = misses, the per-core L2 misses sum to the LLC accesses,
    /// and each core's accesses ≥ L1 misses ≥ L2 misses ≥ LLC misses,
    /// none of which ever decreases.
    #[test]
    fn seeded_access_sequences_conserve() {
        for seed in 0..64u64 {
            let mut rng = ziv_common::SimRng::seed_from_u64(seed);
            let mut m = Metrics::new(3);
            for _ in 0..rng.below(400) {
                let before = m.per_core.clone();
                let class = CLASSES[rng.below_usize(CLASSES.len())];
                m.count(&access(rng.below_usize(3), class, rng.below(300)));
                assert_eq!(m.llc_hits + m.llc_misses, m.llc_accesses, "seed {seed}");
                assert_eq!(m.llc_demand_fills, m.llc_misses, "seed {seed}");
                assert_eq!(m.total_l2_misses(), m.llc_accesses, "seed {seed}");
                for (c, b) in m.per_core.iter().zip(&before) {
                    assert!(
                        c.accesses >= c.l1_misses
                            && c.l1_misses >= c.l2_misses
                            && c.l2_misses >= c.llc_misses,
                        "seed {seed}: {c:?}"
                    );
                    let (now, was) = (core_metrics_scalars(c), core_metrics_scalars(b));
                    assert!(now.iter().zip(was).all(|(&n, w)| n >= w), "seed {seed}");
                }
            }
        }
    }
}
