//! The latency attribution observatory (DESIGN.md §"Observability").
//!
//! Decomposes the latency every [`crate::CacheHierarchy::access`] call
//! returns into per-component cycles (L1, L2, LLC tag/data, directory,
//! NoC, DRAM), accumulated per core × per access class, with a
//! [`Log2Histogram`] of total latency per class. Conservation is exact
//! and checked by tests: summed over every `(core, class)` cell, the
//! attributed cycles equal the aggregate
//! `Metrics::access_latency_cycles` counter bit-for-bit.
//!
//! The observatory also tracks **inclusion-victim cost** — the
//! phenomenon the ZIV paper eliminates. Lines torn out of a core's
//! private hierarchy by an inclusive LLC eviction (or an ECI early
//! invalidation) are remembered in the flight recorder's bounded
//! per-core victim table, which forensics shares; when that core next
//! misses on such a line, the miss's full latency lands in the
//! [`AccessClass::InclusionVictimRefetch`] class. ZIV modes generate
//! no inclusion victims, so they report exactly zero re-fetch cycles.

use ziv_common::stats::Log2Histogram;
use ziv_common::{CoreId, Cycle};

/// One architectural component an access's cycles can be attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyComponent {
    /// L1 lookup.
    L1,
    /// Private L2 lookup.
    L2,
    /// LLC tag array.
    LlcTag,
    /// LLC data array.
    LlcData,
    /// Sparse-directory indirection (relocated-block pointer chase).
    Directory,
    /// Network-on-chip hops (requester↔home round trips, detours,
    /// coherence forwards).
    Noc,
    /// DRAM service time beyond the on-chip path.
    Dram,
}

impl LatencyComponent {
    /// Every component, in the order the CSV columns use.
    pub const ALL: [LatencyComponent; 7] = [
        LatencyComponent::L1,
        LatencyComponent::L2,
        LatencyComponent::LlcTag,
        LatencyComponent::LlcData,
        LatencyComponent::Directory,
        LatencyComponent::Noc,
        LatencyComponent::Dram,
    ];

    /// Stable column-name form.
    pub fn label(self) -> &'static str {
        match self {
            LatencyComponent::L1 => "l1",
            LatencyComponent::L2 => "l2",
            LatencyComponent::LlcTag => "llc_tag",
            LatencyComponent::LlcData => "llc_data",
            LatencyComponent::Directory => "directory",
            LatencyComponent::Noc => "noc",
            LatencyComponent::Dram => "dram",
        }
    }

    fn index(self) -> usize {
        match self {
            LatencyComponent::L1 => 0,
            LatencyComponent::L2 => 1,
            LatencyComponent::LlcTag => 2,
            LatencyComponent::LlcData => 3,
            LatencyComponent::Directory => 4,
            LatencyComponent::Noc => 5,
            LatencyComponent::Dram => 6,
        }
    }
}

/// Where an access was ultimately served from — the class axis of the
/// attribution matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessClass {
    /// Served by the core's L1.
    L1Hit,
    /// Served by the core's private L2.
    L2Hit,
    /// Served by the LLC home bank (including coherence forwards).
    LlcHit,
    /// Served by a ZIV-relocated LLC block (pays the directory
    /// indirection plus detour hops).
    LlcRelocatedHit,
    /// LLC miss supplied by another core's private cache.
    LlcMissSupplied,
    /// LLC miss served from DRAM.
    LlcMissDram,
    /// A miss on a line recently back-invalidated out of this core's
    /// private hierarchy by an inclusive LLC eviction — the re-fetch
    /// cost of an inclusion victim, regardless of where the line was
    /// re-fetched from. Exactly zero under ZIV modes.
    InclusionVictimRefetch,
}

/// Number of access classes.
pub const NUM_CLASSES: usize = 7;

impl AccessClass {
    /// Every class, in the order the CSV rows use.
    pub const ALL: [AccessClass; NUM_CLASSES] = [
        AccessClass::L1Hit,
        AccessClass::L2Hit,
        AccessClass::LlcHit,
        AccessClass::LlcRelocatedHit,
        AccessClass::LlcMissSupplied,
        AccessClass::LlcMissDram,
        AccessClass::InclusionVictimRefetch,
    ];

    /// Stable row-name form.
    pub fn label(self) -> &'static str {
        match self {
            AccessClass::L1Hit => "l1_hit",
            AccessClass::L2Hit => "l2_hit",
            AccessClass::LlcHit => "llc_hit",
            AccessClass::LlcRelocatedHit => "llc_relocated_hit",
            AccessClass::LlcMissSupplied => "llc_miss_supplied",
            AccessClass::LlcMissDram => "llc_miss_dram",
            AccessClass::InclusionVictimRefetch => "inclusion_victim_refetch",
        }
    }

    fn index(self) -> usize {
        match self {
            AccessClass::L1Hit => 0,
            AccessClass::L2Hit => 1,
            AccessClass::LlcHit => 2,
            AccessClass::LlcRelocatedHit => 3,
            AccessClass::LlcMissSupplied => 4,
            AccessClass::LlcMissDram => 5,
            AccessClass::InclusionVictimRefetch => 6,
        }
    }
}

/// One access's latency split by component. Built unconditionally on
/// the hot path (it is seven `Copy` integers; the observatory itself is
/// the optional part), and its [`total`](LatencyBreakdown::total) *is*
/// the latency the hierarchy returns — the decomposition cannot drift
/// from the aggregate because the aggregate is derived from it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// L1 lookup cycles.
    pub l1: Cycle,
    /// L2 lookup cycles.
    pub l2: Cycle,
    /// LLC tag-array cycles.
    pub llc_tag: Cycle,
    /// LLC data-array cycles.
    pub llc_data: Cycle,
    /// Directory-indirection cycles.
    pub directory: Cycle,
    /// NoC hop cycles.
    pub noc: Cycle,
    /// DRAM cycles.
    pub dram: Cycle,
}

impl LatencyBreakdown {
    /// The access's total latency — the value `access()` returns.
    #[inline]
    pub fn total(&self) -> Cycle {
        self.l1 + self.l2 + self.llc_tag + self.llc_data + self.directory + self.noc + self.dram
    }

    /// One component's cycles.
    pub fn component(&self, c: LatencyComponent) -> Cycle {
        match c {
            LatencyComponent::L1 => self.l1,
            LatencyComponent::L2 => self.l2,
            LatencyComponent::LlcTag => self.llc_tag,
            LatencyComponent::LlcData => self.llc_data,
            LatencyComponent::Directory => self.directory,
            LatencyComponent::Noc => self.noc,
            LatencyComponent::Dram => self.dram,
        }
    }
}

/// The accumulated cells for one `(core, class)` pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCells {
    /// Accesses attributed to this class.
    pub count: u64,
    /// Total cycles attributed to this class.
    pub cycles: u64,
    /// Per-component cycles, indexed like [`LatencyComponent::ALL`].
    /// Invariant: sums to `cycles`.
    pub components: [u64; 7],
}

impl ClassCells {
    fn add(&mut self, b: &LatencyBreakdown) {
        self.count += 1;
        self.cycles += b.total();
        for (slot, c) in self.components.iter_mut().zip(LatencyComponent::ALL) {
            *slot += b.component(c);
        }
    }

    fn merge(&mut self, other: &ClassCells) {
        self.count += other.count;
        self.cycles += other.cycles;
        for (a, b) in self.components.iter_mut().zip(other.components) {
            *a += b;
        }
    }
}

/// The observatory: per-core × per-class attribution cells and
/// per-class latency histograms, fed by the flight recorder.
#[derive(Debug)]
pub struct LatencyObservatory {
    per_core: Vec<[ClassCells; NUM_CLASSES]>,
    histograms: Vec<Log2Histogram>,
    victims_noted: u64,
}

impl LatencyObservatory {
    /// Creates an empty observatory for `cores` cores.
    pub(crate) fn new(cores: usize) -> Self {
        LatencyObservatory {
            per_core: vec![[ClassCells::default(); NUM_CLASSES]; cores],
            histograms: (0..NUM_CLASSES).map(|_| Log2Histogram::new()).collect(),
            victims_noted: 0,
        }
    }

    /// Counts `n` lines torn out into the victim table.
    pub(crate) fn note_victims(&mut self, n: u64) {
        self.victims_noted += n;
    }

    /// Records one finished access.
    #[inline]
    pub(crate) fn record(&mut self, core: CoreId, class: AccessClass, b: &LatencyBreakdown) {
        self.per_core[core.index()][class.index()].add(b);
        self.histograms[class.index()].record(b.total());
    }

    /// Seals the observatory into its report.
    pub(crate) fn finish(self) -> LatencyReport {
        LatencyReport {
            per_core: self.per_core,
            histograms: self.histograms,
            victims_noted: self.victims_noted,
        }
    }
}

/// The observatory's final payload, carried in
/// [`crate::observe::Observations`].
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyReport {
    /// Attribution cells, indexed `[core][class]` (class order is
    /// [`AccessClass::ALL`]).
    pub per_core: Vec<[ClassCells; NUM_CLASSES]>,
    /// Per-class histograms of total access latency (global across
    /// cores), indexed like [`AccessClass::ALL`].
    pub histograms: Vec<Log2Histogram>,
    /// Lines torn out into the victim table (table collisions
    /// overwrite, so this can exceed the re-fetches seen).
    pub victims_noted: u64,
}

impl LatencyReport {
    /// One class's cells summed over every core.
    pub fn class_total(&self, class: AccessClass) -> ClassCells {
        let mut out = ClassCells::default();
        for core in &self.per_core {
            out.merge(&core[class.index()]);
        }
        out
    }

    /// Total attributed cycles across every `(core, class)` cell — must
    /// equal `Metrics::access_latency_cycles` exactly.
    pub fn total_cycles(&self) -> u64 {
        self.per_core
            .iter()
            .flat_map(|cells| cells.iter())
            .map(|c| c.cycles)
            .sum()
    }

    /// One component's cycles summed over every cell.
    pub fn component_total(&self, comp: LatencyComponent) -> u64 {
        let i = comp.index();
        self.per_core
            .iter()
            .flat_map(|cells| cells.iter())
            .map(|c| c.components[i])
            .sum()
    }

    /// Cycles attributed to inclusion-victim re-fetches — the cost the
    /// ZIV paper eliminates; zero under any ZIV mode.
    pub fn inclusion_victim_refetch_cycles(&self) -> u64 {
        self.class_total(AccessClass::InclusionVictimRefetch).cycles
    }

    /// The class's latency histogram.
    pub fn histogram(&self, class: AccessClass) -> &Log2Histogram {
        &self.histograms[class.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breakdown(l2: Cycle, noc: Cycle, dram: Cycle) -> LatencyBreakdown {
        LatencyBreakdown {
            l2,
            noc,
            dram,
            ..LatencyBreakdown::default()
        }
    }

    #[test]
    fn breakdown_total_sums_components() {
        let b = LatencyBreakdown {
            l1: 1,
            l2: 2,
            llc_tag: 3,
            llc_data: 4,
            directory: 5,
            noc: 6,
            dram: 7,
        };
        assert_eq!(b.total(), 28);
        let comp_sum: Cycle = LatencyComponent::ALL.iter().map(|&c| b.component(c)).sum();
        assert_eq!(comp_sum, b.total());
    }

    #[test]
    fn record_conserves_cycles_per_cell() {
        let mut obs = LatencyObservatory::new(2);
        obs.record(CoreId::new(0), AccessClass::L2Hit, &breakdown(9, 0, 0));
        obs.record(
            CoreId::new(1),
            AccessClass::LlcMissDram,
            &breakdown(0, 8, 100),
        );
        obs.record(
            CoreId::new(1),
            AccessClass::LlcMissDram,
            &breakdown(0, 8, 50),
        );
        let report = obs.finish();
        assert_eq!(report.total_cycles(), 9 + 108 + 58);
        let dram_cells = report.class_total(AccessClass::LlcMissDram);
        assert_eq!(dram_cells.count, 2);
        assert_eq!(dram_cells.cycles, 166);
        assert_eq!(dram_cells.components.iter().sum::<u64>(), 166);
        assert_eq!(report.component_total(LatencyComponent::Dram), 150);
        assert_eq!(report.histogram(AccessClass::LlcMissDram).total(), 2);
        assert_eq!(report.inclusion_victim_refetch_cycles(), 0);
    }

    #[test]
    fn labels_are_unique_and_stable() {
        let class_labels: Vec<&str> = AccessClass::ALL.iter().map(|c| c.label()).collect();
        let comp_labels: Vec<&str> = LatencyComponent::ALL.iter().map(|c| c.label()).collect();
        for labels in [&class_labels, &comp_labels] {
            for (i, l) in labels.iter().enumerate() {
                assert!(!labels[..i].contains(l), "duplicate label '{l}'");
            }
        }
        assert!(class_labels.contains(&"inclusion_victim_refetch"));
        assert_eq!(AccessClass::ALL.len(), NUM_CLASSES);
    }
}
