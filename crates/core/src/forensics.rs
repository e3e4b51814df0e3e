//! The forensics observatory: per-line provenance, causal chains, and
//! the instigator × victim blame matrix (DESIGN.md §15).
//!
//! The paper's argument is causal — an LLC replacement decision reaches
//! into a private cache and forces a victim that later pays a re-fetch —
//! but the other observatories only record *that* victims happen. This
//! module records *which allocating access caused them* and *who paid*:
//!
//! * a bounded, direct-mapped **provenance table** stamps each LLC line
//!   at fill time with its allocating access (access index, cycle, core,
//!   home location, and the replacement policy's
//!   [`VictimReason`]);
//! * every [`TearOut`] event — an inclusive back-invalidation or an ECI
//!   early invalidation, each victimizing at least one private copy —
//!   becomes one **causal chain**: instigator access → eviction
//!   decision → per-core victims → (through the victim table the
//!   recorder shares with latency attribution) the eventual re-fetch
//!   and its cycle cost;
//! * chains aggregate into a **blame matrix** (instigator core × victim
//!   core) plus per-set and per-phase rollups.
//!
//! Conservation holds by construction and tests still check it: the
//! matrix's victim total equals
//! [`Metrics::inclusion_victims`](crate::Metrics), because the
//! hierarchy counts that metric from the same tear-out event's victim
//! set; and the matrix's re-fetch cycle total equals
//! [`LatencyReport::inclusion_victim_refetch_cycles`](crate::latency::LatencyReport::inclusion_victim_refetch_cycles)
//! whenever both observatories run, because both are fed from one
//! victim-table lookup. ZIV modes never tear out a private copy, so
//! they report exactly zero chains.
//!
//! Like every observatory the forensics layer rides the
//! [`FlightRecorder`](crate::observe::FlightRecorder): never digested,
//! never in the result ledger, one never-taken branch per emission site
//! when off.

use crate::llc::VictimReason;
use crate::observe::{EventRing, FlatSets, TearOut};
use ziv_common::{CoreId, Cycle, LineAddr};

/// Slots in the direct-mapped provenance table. Like the victim table,
/// a collision overwrites the older stamp, so a chain's allocation
/// provenance is a floor: when present it is exact, when absent the
/// stamp was displaced by a congruent later fill.
pub const PROVENANCE_SLOTS: usize = 4096;

/// Causal chains retained per run, flight-recorder style (the *last* K
/// chains survive; aggregate counters are never dropped).
pub const CHAIN_RING_CAPACITY: usize = 256;

/// Accesses per workload-phase bucket in the per-phase victim rollup.
pub const PHASE_ACCESSES: u64 = 8192;

/// How a line came to be allocated: the fill-time stamp the provenance
/// table keeps per resident line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProvenanceStamp {
    /// 0-based index of the allocating access.
    pub access_index: u64,
    /// Simulation clock at the fill.
    pub cycle: Cycle,
    /// The core whose access filled the line.
    pub core: CoreId,
    /// Home LLC bank of the fill.
    pub bank: u16,
    /// Home set within the bank.
    pub set: u32,
    /// Way the line was installed into.
    pub way: u8,
    /// Why the victim-selection machinery freed that way.
    pub reason: VictimReason,
}

/// Which eviction mechanism triggered a chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainKind {
    /// An inclusive LLC eviction back-invalidated private copies.
    Inclusive,
    /// An ECI early invalidation tore private copies out ahead of the
    /// block's eviction.
    Eci,
}

impl ChainKind {
    /// Stable lowercase label (CSV / trace export).
    pub fn label(self) -> &'static str {
        match self {
            ChainKind::Inclusive => "inclusive",
            ChainKind::Eci => "eci",
        }
    }
}

/// One complete causal chain: instigator access → eviction decision →
/// private-copy victims → (eventually) their re-fetch cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CausalChain {
    /// 0-based chain sequence number (stable instigation order).
    pub seq: u64,
    /// The eviction mechanism.
    pub kind: ChainKind,
    /// The core whose fill instigated the eviction.
    pub instigator_core: CoreId,
    /// 0-based index of the instigating access.
    pub instigator_access: u64,
    /// Simulation clock at the eviction decision.
    pub cycle: Cycle,
    /// The line whose private copies were invalidated.
    pub line: LineAddr,
    /// Home bank of the victimized line.
    pub bank: u16,
    /// Home set of the victimized line.
    pub set: u32,
    /// The instigating fill's victim-choice reason.
    pub reason: VictimReason,
    /// How the victimized line was originally allocated, when its
    /// provenance stamp survived in the bounded table.
    pub alloc: Option<ProvenanceStamp>,
    /// Bitmask of victim cores (bit `c` set ⇔ core `c` lost a copy).
    pub victim_mask: u64,
    /// Private copies invalidated — one per sharer core.
    pub victim_count: u32,
    /// Re-fetches of this line so far attributed back to this chain.
    pub refetches: u32,
    /// Cycles those re-fetches cost (each one's full access latency).
    pub refetch_cycles: u64,
}

/// The live observatory, attached to the flight recorder.
#[derive(Debug)]
pub struct ForensicsObservatory {
    cores: usize,
    sets: FlatSets,
    /// Direct-mapped provenance stamps: `(line_raw, stamp)`.
    provenance: Vec<Option<(u64, ProvenanceStamp)>>,
    /// The last [`CHAIN_RING_CAPACITY`] chains; its push count numbers
    /// them.
    chains: EventRing<CausalChain>,
    /// Flat `cores × cores` victim counts, `[instigator * cores + victim]`.
    victim_matrix: Vec<u64>,
    /// Flat `cores × cores` re-fetch counts.
    refetch_matrix: Vec<u64>,
    /// Flat `cores × cores` re-fetch cycles.
    refetch_cycle_matrix: Vec<u64>,
    /// Per-(bank, set) victim counts, indexed by [`FlatSets`].
    set_victims: Vec<u64>,
    /// Victims per [`PHASE_ACCESSES`]-access phase of the run.
    phase_victims: Vec<u64>,
    fills_stamped: u64,
    inclusive_chains: u64,
    eci_chains: u64,
}

impl ForensicsObservatory {
    /// Creates an empty observatory for a `cores`-core system whose LLC
    /// sets are numbered by `sets`.
    pub(crate) fn new(cores: usize, sets: FlatSets) -> Self {
        debug_assert!(cores <= 64, "victim masks hold at most 64 cores");
        ForensicsObservatory {
            cores,
            sets,
            provenance: vec![None; PROVENANCE_SLOTS],
            chains: EventRing::new(CHAIN_RING_CAPACITY),
            victim_matrix: vec![0; cores * cores],
            refetch_matrix: vec![0; cores * cores],
            refetch_cycle_matrix: vec![0; cores * cores],
            set_victims: vec![0; sets.count()],
            phase_victims: Vec::new(),
            fills_stamped: 0,
            inclusive_chains: 0,
            eci_chains: 0,
        }
    }

    /// The provenance slot of `line`.
    fn provenance_slot(&mut self, line: LineAddr) -> &mut Option<(u64, ProvenanceStamp)> {
        &mut self.provenance[line.raw() as usize & (PROVENANCE_SLOTS - 1)]
    }

    /// Stamps a freshly filled line with its allocating access.
    #[inline]
    pub(crate) fn stamp_fill(&mut self, line: LineAddr, stamp: ProvenanceStamp) {
        *self.provenance_slot(line) = Some((line.raw(), stamp));
        self.fills_stamped += 1;
    }

    /// Records tear-out `t`, made during access `access_index` at
    /// `cycle`, as one complete chain; returns its sequence number. An
    /// inclusive eviction removes the line, so its provenance stamp is
    /// consumed; an ECI tear-out leaves the LLC copy resident and only
    /// peeks.
    pub(crate) fn record_chain(&mut self, t: &TearOut, access_index: u64, cycle: Cycle) -> u64 {
        debug_assert!(!t.victims.is_empty(), "a tear-out always has victims");
        let slot = self.provenance_slot(t.line);
        let alloc = match *slot {
            Some((raw, stamp)) if raw == t.line.raw() => {
                if t.kind == ChainKind::Inclusive {
                    *slot = None;
                }
                Some(stamp)
            }
            _ => None,
        };
        let victim_count = t.victims.count();
        let mut victim_mask = 0u64;
        for victim in t.victims.iter() {
            victim_mask |= 1 << victim.index().min(63);
            self.victim_matrix[t.instigator.index() * self.cores + victim.index()] += 1;
        }
        self.set_victims[self.sets.index(t.line)] += victim_count as u64;
        let phase = (access_index / PHASE_ACCESSES) as usize;
        if self.phase_victims.len() <= phase {
            self.phase_victims.resize(phase + 1, 0);
        }
        self.phase_victims[phase] += victim_count as u64;
        match t.kind {
            ChainKind::Inclusive => self.inclusive_chains += 1,
            ChainKind::Eci => self.eci_chains += 1,
        }
        let seq = self.chains.recorded();
        let (bank, set) = self.sets.bank_set(t.line);
        self.chains.push(CausalChain {
            seq,
            kind: t.kind,
            instigator_core: t.instigator,
            instigator_access: access_index,
            cycle,
            line: t.line,
            bank: bank as u16,
            set: set as u32,
            reason: t.reason,
            alloc,
            victim_mask,
            victim_count,
            refetches: 0,
            refetch_cycles: 0,
        });
        seq
    }

    /// Attributes one completed re-fetch (full access latency `cycles`)
    /// back to chain `seq`. The blame matrix is updated unconditionally;
    /// the chain record itself only if it still sits in the bounded
    /// ring.
    pub(crate) fn record_refetch(
        &mut self,
        instigator: CoreId,
        victim: CoreId,
        seq: u64,
        cycles: Cycle,
    ) {
        let cell = instigator.index() * self.cores + victim.index();
        self.refetch_matrix[cell] += 1;
        self.refetch_cycle_matrix[cell] += cycles;
        if let Some(chain) = self.chains.iter_mut().find(|c| c.seq == seq) {
            chain.refetches += 1;
            chain.refetch_cycles += cycles;
        }
    }

    /// Seals the observatory into its report.
    pub(crate) fn finish(self) -> ForensicsReport {
        ForensicsReport {
            cores: self.cores,
            banks: self.sets.banks,
            sets_per_bank: self.sets.sets_per_bank,
            victim_matrix: self.victim_matrix,
            refetch_matrix: self.refetch_matrix,
            refetch_cycle_matrix: self.refetch_cycle_matrix,
            set_victims: self.set_victims,
            phase_victims: self.phase_victims,
            chains: self.chains.ordered(),
            chains_recorded: self.chains.recorded(),
            inclusive_chains: self.inclusive_chains,
            eci_chains: self.eci_chains,
            fills_stamped: self.fills_stamped,
        }
    }
}

/// The end-of-run forensics payload, carried in
/// [`Observations`](crate::observe::Observations).
#[derive(Debug, Clone, PartialEq)]
pub struct ForensicsReport {
    /// Core count (matrix dimension).
    pub cores: usize,
    /// LLC banks (per-set rollup rows).
    pub banks: usize,
    /// Sets per bank (per-set rollup columns).
    pub sets_per_bank: usize,
    /// Flat `cores × cores` victim counts,
    /// `[instigator * cores + victim]`.
    pub victim_matrix: Vec<u64>,
    /// Flat `cores × cores` re-fetch counts.
    pub refetch_matrix: Vec<u64>,
    /// Flat `cores × cores` re-fetch cycles.
    pub refetch_cycle_matrix: Vec<u64>,
    /// Per-(bank, set) victim counts, flat `bank * sets + set`.
    pub set_victims: Vec<u64>,
    /// Victims per [`PHASE_ACCESSES`]-access phase.
    pub phase_victims: Vec<u64>,
    /// The last [`CHAIN_RING_CAPACITY`] chains, instigation order.
    pub chains: Vec<CausalChain>,
    /// Chains ever recorded (including ring-overwritten ones).
    pub chains_recorded: u64,
    /// Chains whose mechanism was an inclusive eviction.
    pub inclusive_chains: u64,
    /// Chains whose mechanism was an ECI early invalidation.
    pub eci_chains: u64,
    /// Fills stamped into the provenance table.
    pub fills_stamped: u64,
}

impl ForensicsReport {
    /// One blame cell's victim count.
    pub fn victims(&self, instigator: usize, victim: usize) -> u64 {
        self.victim_matrix[instigator * self.cores + victim]
    }

    /// One blame cell's re-fetch count.
    pub fn refetches(&self, instigator: usize, victim: usize) -> u64 {
        self.refetch_matrix[instigator * self.cores + victim]
    }

    /// One blame cell's re-fetch cycles.
    pub fn refetch_cycles(&self, instigator: usize, victim: usize) -> u64 {
        self.refetch_cycle_matrix[instigator * self.cores + victim]
    }

    /// Total victims across the matrix — conserves exactly against
    /// `Metrics::inclusion_victims`.
    pub fn total_victims(&self) -> u64 {
        self.victim_matrix.iter().sum()
    }

    /// Total attributed re-fetches.
    pub fn total_refetches(&self) -> u64 {
        self.refetch_matrix.iter().sum()
    }

    /// Total attributed re-fetch cycles — equals
    /// `LatencyReport::inclusion_victim_refetch_cycles()` when the
    /// latency observatory ran alongside.
    pub fn total_refetch_cycles(&self) -> u64 {
        self.refetch_cycle_matrix.iter().sum()
    }

    /// Victims instigated by `core` against *other* cores (the
    /// cross-core slice an isolation defense eliminates).
    pub fn cross_core_victims(&self, core: usize) -> u64 {
        (0..self.cores)
            .filter(|&v| v != core)
            .map(|v| self.victims(core, v))
            .sum()
    }

    /// The retained chains ordered most-damaging first: by victim
    /// count, then re-fetch cycles, then earliest sequence — a total
    /// order, so the `blame` table is deterministic across thread
    /// counts.
    pub fn top_chains(&self, k: usize) -> Vec<&CausalChain> {
        let mut ordered: Vec<&CausalChain> = self.chains.iter().collect();
        ordered.sort_by(|a, b| {
            b.victim_count
                .cmp(&a.victim_count)
                .then(b.refetch_cycles.cmp(&a.refetch_cycles))
                .then(a.seq.cmp(&b.seq))
        });
        ordered.truncate(k);
        ordered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ziv_directory::SharerSet;

    fn stamp(access: u64, core: usize) -> ProvenanceStamp {
        ProvenanceStamp {
            access_index: access,
            cycle: access * 10,
            core: CoreId::new(core),
            bank: 0,
            set: 1,
            way: 2,
            reason: VictimReason::Baseline,
        }
    }

    fn line(raw: u64) -> LineAddr {
        LineAddr::new(raw)
    }

    fn observatory(cores: usize) -> ForensicsObservatory {
        ForensicsObservatory::new(cores, FlatSets::new(4, 16))
    }

    /// Records one tear-out of `raw` instigated by core 0 at `access`.
    fn tear_out(
        f: &mut ForensicsObservatory,
        kind: ChainKind,
        access: u64,
        raw: u64,
        victims: &[usize],
    ) -> u64 {
        let mut set = SharerSet::EMPTY;
        for &v in victims {
            set.insert(CoreId::new(v));
        }
        let t = TearOut {
            kind,
            line: line(raw),
            loc: None,
            instigator: CoreId::new(0),
            reason: VictimReason::Baseline,
            victims: set,
        };
        f.record_chain(&t, access, access * 10)
    }

    #[test]
    fn chain_records_victims_and_provenance() {
        let mut f = observatory(4);
        f.stamp_fill(line(0x55), stamp(3, 2));
        tear_out(&mut f, ChainKind::Inclusive, 10, 0x55, &[1, 2]);
        let r = f.finish();
        assert_eq!(r.total_victims(), 2);
        assert_eq!(r.victims(0, 1), 1);
        assert_eq!(r.victims(0, 2), 1);
        assert_eq!(r.chains_recorded, 1);
        assert_eq!(r.inclusive_chains, 1);
        let c = &r.chains[0];
        assert_eq!(c.victim_count, 2);
        assert_eq!(c.victim_mask, 0b110);
        assert_eq!(c.alloc.unwrap().access_index, 3);
        assert_eq!(c.alloc.unwrap().core.index(), 2);
        assert_eq!(r.cross_core_victims(0), 2);
        assert_eq!(r.phase_victims, vec![2]);
    }

    #[test]
    fn inclusive_chain_consumes_provenance_eci_peeks() {
        let mut f = observatory(2);
        f.stamp_fill(line(0x20), stamp(1, 0));
        // ECI tear-out leaves the LLC copy (and its stamp) resident; the
        // later inclusive eviction still sees the stamp, then consumes
        // it.
        tear_out(&mut f, ChainKind::Eci, 5, 0x20, &[1]);
        tear_out(&mut f, ChainKind::Inclusive, 9, 0x20, &[1]);
        tear_out(&mut f, ChainKind::Inclusive, 12, 0x20, &[1]);
        let r = f.finish();
        assert_eq!(r.eci_chains, 1);
        assert_eq!(r.inclusive_chains, 2);
        assert!(r.chains[0].alloc.is_some());
        assert!(r.chains[1].alloc.is_some());
        assert!(r.chains[2].alloc.is_none(), "stamp already consumed");
    }

    #[test]
    fn refetches_land_on_their_chain_and_the_matrix() {
        let mut f = observatory(2);
        let seq = tear_out(&mut f, ChainKind::Inclusive, 0, 0x7, &[1]);
        f.record_refetch(CoreId::new(0), CoreId::new(1), seq, 123);
        let r = f.finish();
        assert_eq!(r.total_refetches(), 1);
        assert_eq!(r.total_refetch_cycles(), 123);
        assert_eq!(r.refetch_cycles(0, 1), 123);
        assert_eq!(r.chains[0].refetch_cycles, 123);
        assert_eq!(r.chains[0].refetches, 1);
    }

    #[test]
    fn chain_ring_keeps_last_k_but_counters_keep_everything() {
        let mut f = observatory(2);
        let n = CHAIN_RING_CAPACITY as u64 + 10;
        for i in 0..n {
            tear_out(&mut f, ChainKind::Inclusive, i, 0x40 + i, &[1]);
        }
        let r = f.finish();
        assert_eq!(r.chains_recorded, n);
        assert_eq!(r.total_victims(), n, "aggregates survive ring overwrite");
        assert_eq!(r.chains.len(), CHAIN_RING_CAPACITY);
        assert_eq!(r.chains[0].seq, 10, "oldest retained chain");
        assert_eq!(r.chains.last().unwrap().seq, n - 1);
    }

    #[test]
    fn top_chains_order_is_total_and_deterministic() {
        let mut f = observatory(4);
        for (i, victims) in [&[1, 2][..], &[1], &[1, 2]].iter().enumerate() {
            tear_out(
                &mut f,
                ChainKind::Inclusive,
                i as u64,
                0x100 + i as u64,
                victims,
            );
        }
        let r = f.finish();
        let top: Vec<u64> = r.top_chains(2).iter().map(|c| c.seq).collect();
        // Ties on victim count and cycles break by earliest sequence.
        assert_eq!(top, vec![0, 2]);
        assert_eq!(r.top_chains(10).len(), 3);
    }

    #[test]
    fn phase_rollup_buckets_by_instigator_access() {
        let mut f = observatory(2);
        for access in [0, PHASE_ACCESSES - 1, PHASE_ACCESSES * 2] {
            tear_out(&mut f, ChainKind::Inclusive, access, 0x40 + access, &[1]);
        }
        let r = f.finish();
        assert_eq!(r.phase_victims, vec![2, 0, 1]);
        assert_eq!(r.set_victims.iter().sum::<u64>(), r.total_victims());
    }
}
