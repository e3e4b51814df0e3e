//! The leakage observatory: attacker-observable signal accounting for
//! the side-channel attack evaluation (DESIGN.md §"Security
//! evaluation").
//!
//! Under an inclusive LLC, every cross-core back-invalidation is an
//! attacker-visible event: a prime+probe attacker that owns the LLC
//! sets a victim's lines map to learns, from its probe latencies, that
//! the victim touched those sets. This observatory counts exactly that
//! channel:
//!
//! - per-core **back-invalidations suffered**, split by whether the
//!   evicted line mapped to an attacker-probed set — the victim-core,
//!   probed-set slice is the attacker-observable *signal*, every other
//!   core's slice is *noise* the attacker cannot distinguish;
//! - the attacker's **probe depth distribution** (how many of its own
//!   accesses were still private-cache resident vs evicted), the
//!   latency-distinguishability side of the same channel;
//! - **SHARP alarm counts**, the defense-side detector.
//!
//! Like the latency observatory it rides the
//! [`FlightRecorder`](crate::observe::FlightRecorder): never digested,
//! never in the result ledger, and counting its back-invalidations from
//! the same tear-out events the hierarchy counts
//! [`Metrics::inclusion_victims`](crate::Metrics) from, so the two
//! agree by construction (the invariant tests still check it). ZIV
//! modes therefore report *exactly zero* leakage, not approximately
//! zero.

use crate::latency::AccessClass;
use crate::observe::FlatSets;
use ziv_common::{CoreId, LineAddr};

/// Per-core leakage counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoreLeakage {
    /// Inclusion-victim back-invalidations this core suffered.
    pub back_invalidations: u64,
    /// The subset whose line mapped to an attacker-probed LLC set.
    pub probed_back_invalidations: u64,
    /// Attacker-core accesses to probed sets whose latency showed the
    /// line still cached somewhere on chip (the "fast probe" outcome:
    /// nobody displaced it).
    pub probe_hits: u64,
    /// Attacker-core accesses to probed sets served from memory — the
    /// "slow probe" outcome the attacker keys on: the line was evicted
    /// since the attacker last touched it.
    pub probe_evictions_seen: u64,
}

/// Counts attacker-observable events during a run. Constructed from an
/// attack workload's `AttackPlan`-equivalent role lists by the
/// driver; the flight recorder feeds it from the hierarchy's event
/// stream, like the event ring and the latency observatory.
#[derive(Debug)]
pub struct LeakageObservatory {
    sets: FlatSets,
    attacker: Vec<bool>,
    victim: Vec<bool>,
    /// Flat `(bank, set)` membership of the probed sets.
    probed: Vec<bool>,
    per_core: Vec<CoreLeakage>,
    sharp_alarms: u64,
}

impl LeakageObservatory {
    /// Creates an observatory for a `cores`-core system with a
    /// `banks × sets_per_bank` LLC (both powers of two). `probe_lines`
    /// holds one representative raw line address per probed set; any
    /// line congruent to one of them (same home bank and set) counts
    /// as probed.
    pub fn new(
        cores: usize,
        banks: usize,
        sets_per_bank: usize,
        attacker_cores: &[usize],
        victim_cores: &[usize],
        probe_lines: &[u64],
    ) -> Self {
        let sets = FlatSets::new(banks, sets_per_bank);
        let mut obs = LeakageObservatory {
            sets,
            attacker: vec![false; cores],
            victim: vec![false; cores],
            probed: vec![false; sets.count()],
            per_core: vec![CoreLeakage::default(); cores],
            sharp_alarms: 0,
        };
        for &c in attacker_cores {
            if c < cores {
                obs.attacker[c] = true;
            }
        }
        for &c in victim_cores {
            if c < cores {
                obs.victim[c] = true;
            }
        }
        for &line in probe_lines {
            obs.probed[sets.index(LineAddr::new(line))] = true;
        }
        obs
    }

    /// Records one inclusion-victim back-invalidation of `line` out of
    /// `core`'s private caches (one per victim of each tear-out event).
    #[inline]
    pub(crate) fn note_back_invalidation(&mut self, core: CoreId, line: LineAddr) {
        let flat = self.sets.index(line);
        let c = &mut self.per_core[core.index()];
        c.back_invalidations += 1;
        if self.probed[flat] {
            c.probed_back_invalidations += 1;
        }
    }

    /// Records the service depth of one access. Only attacker-core
    /// accesses to *probed* sets accumulate (flusher and housekeeping
    /// traffic off the probed sets is the attacker's own, not a
    /// measurement). An access served from memory means the line was
    /// evicted since the attacker last touched it — the distinguishable
    /// "slow probe"; anything still on chip reads as fast.
    #[inline]
    pub(crate) fn record_access(&mut self, core: CoreId, line: LineAddr, class: AccessClass) {
        if !self.attacker[core.index()] {
            return;
        }
        if !self.probed[self.sets.index(line)] {
            return;
        }
        let c = &mut self.per_core[core.index()];
        match class {
            AccessClass::LlcMissSupplied
            | AccessClass::LlcMissDram
            | AccessClass::InclusionVictimRefetch => c.probe_evictions_seen += 1,
            _ => c.probe_hits += 1,
        }
    }

    /// Records one SHARP cross-core eviction alarm.
    #[inline]
    pub(crate) fn note_sharp_alarm(&mut self) {
        self.sharp_alarms += 1;
    }

    /// Drains the observatory into its report; `cycles` is filled in by
    /// the driver (the co-run window length).
    pub(crate) fn finish(self) -> LeakageReport {
        let attacker_cores = flags_to_indices(&self.attacker);
        let victim_cores = flags_to_indices(&self.victim);
        LeakageReport {
            per_core: self.per_core,
            attacker_cores,
            victim_cores,
            probed_sets: self.probed.iter().filter(|&&p| p).count(),
            sharp_alarms: self.sharp_alarms,
            cycles: 0,
        }
    }
}

fn flags_to_indices(flags: &[bool]) -> Vec<usize> {
    flags
        .iter()
        .enumerate()
        .filter_map(|(i, &f)| f.then_some(i))
        .collect()
}

/// The end-of-run leakage summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeakageReport {
    /// Per-core counters (indexed by core).
    pub per_core: Vec<CoreLeakage>,
    /// Cores that ran the attacker pattern.
    pub attacker_cores: Vec<usize>,
    /// Cores that ran the secret-dependent victim pattern.
    pub victim_cores: Vec<usize>,
    /// Number of distinct LLC sets the attacker probed.
    pub probed_sets: usize,
    /// SHARP cross-core eviction alarms raised during the run.
    pub sharp_alarms: u64,
    /// Co-run window length in cycles (the slowest core's clock),
    /// filled by the driver after the run completes.
    pub cycles: u64,
}

impl LeakageReport {
    /// Total back-invalidations across every core — conserves exactly
    /// against `Metrics::inclusion_victims`.
    pub fn total_back_invalidations(&self) -> u64 {
        self.per_core.iter().map(|c| c.back_invalidations).sum()
    }

    /// The **signal**: victim-core lines back-invalidated out of
    /// attacker-probed sets — each one an attacker-observable victim
    /// eviction.
    pub fn observable_victim_evictions(&self) -> u64 {
        self.victim_cores
            .iter()
            .map(|&c| self.per_core[c].probed_back_invalidations)
            .sum()
    }

    /// The **noise**: non-victim lines back-invalidated out of probed
    /// sets (background traffic the attacker cannot tell apart from
    /// the victim).
    pub fn noise_evictions(&self) -> u64 {
        self.per_core
            .iter()
            .enumerate()
            .filter(|(c, _)| !self.victim_cores.contains(c))
            .map(|(_, l)| l.probed_back_invalidations)
            .sum()
    }

    /// Attacker probed-set accesses served from memory — the line had
    /// been evicted since the last touch (summed over attacker cores).
    pub fn probe_evictions_seen(&self) -> u64 {
        self.attacker_cores
            .iter()
            .map(|&c| self.per_core[c].probe_evictions_seen)
            .sum()
    }

    /// Attacker probed-set accesses still served on chip.
    pub fn probe_hits(&self) -> u64 {
        self.attacker_cores
            .iter()
            .map(|&c| self.per_core[c].probe_hits)
            .sum()
    }

    /// Fraction of attacker probed-set accesses whose latency
    /// distinguished an eviction (0 when the attacker issued nothing).
    pub fn probe_eviction_rate(&self) -> f64 {
        let seen = self.probe_evictions_seen();
        let total = seen + self.probe_hits();
        if total == 0 {
            0.0
        } else {
            seen as f64 / total as f64
        }
    }

    /// The headline metric: attacker-observable victim evictions per
    /// million cycles of co-run (0 when the window is empty).
    pub fn observable_per_mcycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.observable_victim_evictions() as f64 * 1e6 / self.cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(bank: u64, set: u64, banks: u64, tag: u64) -> LineAddr {
        // Compose a line that homes at (bank, set): bank bits low, set
        // bits above, tag above those.
        ziv_common::Addr::new((bank | (set << banks.trailing_zeros()) | (tag << 40)) << 6).line()
    }

    fn obs() -> LeakageObservatory {
        // 4 banks × 16 sets; probe the set that line 5 homes at
        // (bank 1, set 1) and the one line 36 homes at (bank 0, set 9).
        LeakageObservatory::new(4, 4, 16, &[0], &[1], &[5, 36])
    }

    #[test]
    fn probed_membership_is_congruence_not_identity() {
        let mut o = obs();
        // Same (bank, set) as representative line 5, different tag.
        o.note_back_invalidation(CoreId::new(1), line(1, 1, 4, 7));
        // Unprobed set.
        o.note_back_invalidation(CoreId::new(1), line(2, 3, 4, 7));
        // Noise core in a probed set.
        o.note_back_invalidation(CoreId::new(2), line(0, 9, 4, 1));
        let r = o.finish();
        assert_eq!(r.total_back_invalidations(), 3);
        assert_eq!(r.observable_victim_evictions(), 1);
        assert_eq!(r.noise_evictions(), 1);
        assert_eq!(r.probed_sets, 2);
    }

    #[test]
    fn probe_depth_counts_only_attacker_accesses_to_probed_sets() {
        let mut o = obs();
        let probed = line(1, 1, 4, 7);
        let unprobed = line(2, 3, 4, 7);
        o.record_access(CoreId::new(0), probed, AccessClass::LlcHit);
        o.record_access(CoreId::new(0), probed, AccessClass::LlcMissDram);
        o.record_access(CoreId::new(0), probed, AccessClass::InclusionVictimRefetch);
        // Attacker traffic off the probed sets (flushers) is ignored.
        o.record_access(CoreId::new(0), unprobed, AccessClass::LlcMissDram);
        // Victim and noise accesses do not pollute the probe counters.
        o.record_access(CoreId::new(1), probed, AccessClass::LlcMissDram);
        o.record_access(CoreId::new(3), probed, AccessClass::L2Hit);
        let r = o.finish();
        assert_eq!(r.probe_hits(), 1);
        assert_eq!(r.probe_evictions_seen(), 2);
        assert!((r.probe_eviction_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn rate_metrics_handle_empty_windows() {
        let r = obs().finish();
        assert_eq!(r.observable_per_mcycle(), 0.0);
        assert_eq!(r.probe_eviction_rate(), 0.0);
        assert_eq!(r.sharp_alarms, 0);
        assert_eq!(r.attacker_cores, vec![0]);
        assert_eq!(r.victim_cores, vec![1]);
    }

    #[test]
    fn per_mcycle_uses_the_filled_window() {
        let mut o = obs();
        o.note_back_invalidation(CoreId::new(1), line(1, 1, 4, 2));
        o.note_sharp_alarm();
        let mut r = o.finish();
        r.cycles = 2_000_000;
        assert!((r.observable_per_mcycle() - 0.5).abs() < 1e-12);
        assert_eq!(r.sharp_alarms, 1);
    }
}
