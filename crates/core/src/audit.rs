//! Runtime invariant auditing and deliberate fault injection.
//!
//! The whole point of ZIV is a structural guarantee — an inclusive LLC
//! that never back-invalidates a live core-cache block — so the model
//! proves its own invariants as it runs instead of trusting scattered
//! `debug_assert!`s. [`Auditor`] walks the hierarchy at a configurable
//! cadence (`--audit off|sampled|every-access`) and checks:
//!
//! - **Inclusion**: under a strictly inclusive mode, every valid private
//!   L1/L2 line has a home LLC copy or a tracked `Relocated` copy.
//! - **Directory ↔ LLC ↔ private consistency**: sharer bitvectors match
//!   actual private contents in both directions, relocation pointers are
//!   never dangling (either direction), dirty owners are sharers, a
//!   dirty private copy's entry names its core as dirty owner and only
//!   sharer, and `NotInPrC` hints agree with the directory in both
//!   directions.
//! - **The zero-inclusion-victim guarantee**: in ZIV mode an inclusion
//!   victim may exist only if the defensive relocation-set-exhaustion
//!   fallback fired (and was counted).
//! - **Metric conservation**: hits + misses = accesses, demand fills =
//!   LLC misses, LLC accesses = Σ per-core L2 misses, and per-core miss
//!   monotonicity.
//!
//! [`FaultInjection`] is the adversarial half: seeded, deterministic
//! model corruptions (a cleared sharer bit, a skipped back-invalidation,
//! a stalled core) used by mutation tests and campaign fault-isolation
//! tests to prove the auditor actually detects what it claims to.

use crate::hierarchy::CacheHierarchy;
use std::collections::HashMap;
use ziv_common::{AuditViolation, CoreId, ViolationKind};

/// How often the auditor walks the hierarchy during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditCadence {
    /// Never audit (the default; zero overhead beyond one branch per
    /// access).
    Off,
    /// Audit every `one_in` accesses.
    Sampled {
        /// Audit interval in accesses (≥ 1).
        one_in: u32,
    },
    /// Audit after every single access — the replay/debug cadence that
    /// pins a violation to the exact access that introduced it.
    EveryAccess,
}

impl AuditCadence {
    /// The interval `--audit sampled` uses when no explicit interval is
    /// given.
    pub const DEFAULT_SAMPLE_INTERVAL: u32 = 1024;

    /// Parses `off`, `sampled`, `sampled:N`, or `every-access`.
    ///
    /// # Errors
    ///
    /// Returns a message describing the accepted forms.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "off" => Ok(AuditCadence::Off),
            "sampled" => Ok(AuditCadence::Sampled {
                one_in: Self::DEFAULT_SAMPLE_INTERVAL,
            }),
            "every-access" => Ok(AuditCadence::EveryAccess),
            other => {
                if let Some(n) = other.strip_prefix("sampled:") {
                    let one_in: u32 = n
                        .parse()
                        .map_err(|e| format!("bad sample interval '{n}': {e}"))?;
                    if one_in == 0 {
                        return Err("sample interval must be >= 1".into());
                    }
                    return Ok(AuditCadence::Sampled { one_in });
                }
                Err(format!(
                    "unknown audit cadence '{other}' \
                     (expected off, sampled, sampled:N, or every-access)"
                ))
            }
        }
    }

    /// Stable string form (inverse of [`AuditCadence::parse`]).
    pub fn label(&self) -> String {
        match self {
            AuditCadence::Off => "off".into(),
            AuditCadence::Sampled { one_in } if *one_in == Self::DEFAULT_SAMPLE_INTERVAL => {
                "sampled".into()
            }
            AuditCadence::Sampled { one_in } => format!("sampled:{one_in}"),
            AuditCadence::EveryAccess => "every-access".into(),
        }
    }

    /// Whether this cadence ever audits.
    pub fn is_enabled(&self) -> bool {
        !matches!(self, AuditCadence::Off)
    }
}

/// Cadence state for audit walks during a run.
///
/// The hot-path contract: [`Auditor::due`] is a single match (and for
/// `Off`, a single branch returning `false`), so `--audit off` costs
/// nothing measurable.
#[derive(Debug, Clone)]
pub struct Auditor {
    cadence: AuditCadence,
    countdown: u32,
}

impl Auditor {
    /// Creates an auditor with the given cadence.
    pub fn new(cadence: AuditCadence) -> Self {
        Auditor {
            cadence,
            countdown: 0,
        }
    }

    /// The configured cadence.
    pub fn cadence(&self) -> AuditCadence {
        self.cadence
    }

    /// Advances the cadence clock by one access and reports whether an
    /// audit walk is due now.
    #[inline]
    pub fn due(&mut self) -> bool {
        match self.cadence {
            AuditCadence::Off => false,
            AuditCadence::EveryAccess => true,
            AuditCadence::Sampled { one_in } => {
                self.countdown += 1;
                if self.countdown >= one_in {
                    self.countdown = 0;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Full audit walk: structural invariants plus metric conservation.
    /// `access_index` is the 0-based index of the access that just
    /// completed (recorded in any violation for deterministic replay).
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn check(h: &CacheHierarchy, access_index: u64) -> Result<(), AuditViolation> {
        Self::check_structure(h, access_index)?;
        Self::check_conservation(h, access_index)
    }

    /// Structural invariants only: inclusion, directory ↔ LLC ↔ private
    /// consistency, and the ZIV guarantee. Valid at any point between
    /// accesses, including after the driver's end-of-run statistics
    /// snapshotting (which breaks the *conservation* laws on purpose).
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn check_structure(h: &CacheHierarchy, access_index: u64) -> Result<(), AuditViolation> {
        let mode = h.mode();
        let dir = h.directory();
        let llc = h.llc();
        let strict_inclusive = mode.is_inclusive() && !mode.allows_llc_miss_under_dir_hit();
        let violation = |kind, line, detail: String| AuditViolation {
            kind,
            access_index,
            line: Some(line),
            detail,
        };

        // Private → directory (and the inclusion property itself).
        for (ci, core) in h.private_cores().iter().enumerate() {
            for line in core.resident_lines() {
                let Some(entry) = dir.probe(line) else {
                    return Err(violation(
                        ViolationKind::UntrackedPrivateLine,
                        line,
                        format!("core {ci} caches the block but the directory does not track it"),
                    ));
                };
                if !entry.sharers.contains(CoreId::new(ci)) {
                    return Err(violation(
                        ViolationKind::MissingSharerBit,
                        line,
                        format!("core {ci} caches the block but its sharer bit is clear"),
                    ));
                }
                if strict_inclusive && llc.probe(line).is_none() && entry.relocated.is_none() {
                    return Err(violation(
                        ViolationKind::InclusionHole,
                        line,
                        format!(
                            "core {ci} caches the block under {} but it has neither a home \
                             LLC copy nor a relocated copy",
                            mode.label()
                        ),
                    ));
                }
            }
        }

        // One pass over LLC residency, reused for both pointer directions.
        let resident: HashMap<_, _> = llc.resident_blocks().into_iter().collect();

        // Directory → private and directory → LLC (relocation pointers).
        for (line, entry) in dir.iter_entries() {
            for s in entry.sharers.iter() {
                if !h.private_cores()[s.index()].contains(line) {
                    return Err(violation(
                        ViolationKind::StaleSharerBit,
                        line,
                        format!(
                            "directory lists core {} as a sharer but its private caches \
                             do not hold the block",
                            s.index()
                        ),
                    ));
                }
            }
            if let Some(owner) = entry.dirty_owner {
                if !entry.sharers.contains(owner) {
                    return Err(violation(
                        ViolationKind::OwnerNotSharer,
                        line,
                        format!("dirty owner core {} is not a sharer", owner.index()),
                    ));
                }
            }
            if let Some(loc) = entry.relocated {
                match resident.get(&loc) {
                    Some(st) if st.relocated && st.line == line => {}
                    Some(st) => {
                        return Err(violation(
                            ViolationKind::DanglingRelocation,
                            line,
                            format!(
                                "directory relocation pointer lands on LLC block {} \
                                 (relocated={})",
                                st.line, st.relocated
                            ),
                        ));
                    }
                    None => {
                        return Err(violation(
                            ViolationKind::DanglingRelocation,
                            line,
                            "directory relocation pointer lands on an invalid LLC way".into(),
                        ));
                    }
                }
            }
        }

        // LLC → directory.
        for (loc, st) in &resident {
            if st.relocated && dir.relocated_location(st.line) != Some(*loc) {
                return Err(violation(
                    ViolationKind::DanglingRelocation,
                    st.line,
                    format!(
                        "LLC block is in relocated state but the directory points to {:?}",
                        dir.relocated_location(st.line)
                    ),
                ));
            }
            let cached = dir.is_privately_cached(st.line);
            if st.not_in_prc && cached {
                return Err(violation(
                    ViolationKind::NotInPrcMismatch,
                    st.line,
                    "LLC block is marked NotInPrC but the directory says it is privately \
                     cached"
                        .into(),
                ));
            }
            if !st.not_in_prc && !cached && !st.relocated {
                return Err(violation(
                    ViolationKind::NotInPrcMismatch,
                    st.line,
                    "LLC block is not marked NotInPrC but the directory says no private \
                     cache holds it"
                        .into(),
                ));
            }
        }

        // The zero-inclusion-victim guarantee (Section III): ZIV may only
        // create inclusion victims through the counted defensive fallback.
        let m = h.metrics();
        if mode.is_ziv() && m.inclusion_victims > 0 && m.ziv_guarantee_fallbacks == 0 {
            return Err(AuditViolation {
                kind: ViolationKind::ZivGuarantee,
                access_index,
                line: None,
                detail: format!(
                    "{} inclusion victims recorded in ZIV mode with no guarantee fallback",
                    m.inclusion_victims
                ),
            });
        }

        // A dirty private copy is exclusive: its entry names the core as
        // dirty owner and only sharer, which lets a store to it skip the
        // directory. Checked last, so a fault the checks above catch
        // keeps the kind they report.
        for (ci, core) in h.private_cores().iter().enumerate() {
            let c = CoreId::new(ci);
            let exclusive = |line| {
                dir.probe(line)
                    .is_some_and(|e| e.dirty_owner == Some(c) && e.sharers.is_sole_sharer(c))
            };
            for line in core.resident_lines() {
                if core.is_dirty(line) && !exclusive(line) {
                    return Err(violation(
                        ViolationKind::DirtyNotExclusive,
                        line,
                        format!(
                            "core {ci} holds the block dirty but its directory entry does \
                             not name it as dirty owner and only sharer"
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Metric conservation laws. Only valid *during* a run: the driver's
    /// end-of-run per-core snapshot restore deliberately rewinds per-core
    /// counters to each core's first trace completion, after which the
    /// global/per-core sums no longer balance.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn check_conservation(h: &CacheHierarchy, access_index: u64) -> Result<(), AuditViolation> {
        let m = h.metrics();
        let fail = |detail: String| {
            Err(AuditViolation {
                kind: ViolationKind::MetricConservation,
                access_index,
                line: None,
                detail,
            })
        };
        if m.llc_hits + m.llc_misses != m.llc_accesses {
            return fail(format!(
                "llc_hits ({}) + llc_misses ({}) != llc_accesses ({})",
                m.llc_hits, m.llc_misses, m.llc_accesses
            ));
        }
        if m.llc_demand_fills != m.llc_misses {
            return fail(format!(
                "llc_demand_fills ({}) != llc_misses ({}) — every demand miss must fill",
                m.llc_demand_fills, m.llc_misses
            ));
        }
        let l2_misses: u64 = m.per_core.iter().map(|c| c.l2_misses).sum();
        if l2_misses != m.llc_accesses {
            return fail(format!(
                "sum of per-core l2_misses ({l2_misses}) != llc_accesses ({})",
                m.llc_accesses
            ));
        }
        for (ci, c) in m.per_core.iter().enumerate() {
            if c.llc_misses > c.l2_misses || c.l2_misses > c.l1_misses || c.l1_misses > c.accesses {
                return fail(format!(
                    "core {ci} miss counters are not monotone: accesses {} >= l1_misses {} \
                     >= l2_misses {} >= llc_misses {} must hold",
                    c.accesses, c.l1_misses, c.l2_misses, c.llc_misses
                ));
            }
        }
        Ok(())
    }
}

/// A deliberate, deterministic model corruption, armed from a specific
/// access index. Used by mutation tests to prove the auditor detects
/// real damage, and by campaign tests to exercise per-cell fault
/// isolation end to end.
///
/// Faults are part of [`crate::HierarchyConfig`] (and of `RunSpec`, where
/// they participate in the cell digest), so an injected failure replays
/// bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultInjection {
    /// At access `at_access`, clear one live sharer bit in the sparse
    /// directory (preferring a line owned by a core other than the one
    /// issuing the access, so the very next audit sees the mismatch).
    /// Detected as [`ViolationKind::MissingSharerBit`].
    CorruptDirectory {
        /// 0-based access index at which the corruption is applied (or
        /// as soon after as a victim line exists).
        at_access: u64,
    },
    /// From access `at_access` on, skip the next inclusive-LLC
    /// back-invalidation: the LLC copy leaves but the private copies and
    /// directory entry survive. Detected as
    /// [`ViolationKind::InclusionHole`].
    SkipBackInvalidation {
        /// 0-based access index from which the next back-invalidation is
        /// skipped.
        at_access: u64,
    },
    /// From access `at_access` on, the issuing core stalls: every access
    /// returns an astronomical latency, so the core's clock blows
    /// through any sane cycle budget — the watchdog scenario.
    StallCore {
        /// 0-based access index from which accesses stall.
        at_access: u64,
    },
    /// At access `at_access`, the hierarchy wedges: the access never
    /// completes and the simulation makes no further progress (the
    /// `stall-core` loop variant). Unlike [`FaultInjection::StallCore`]
    /// — which burns simulated cycles and trips the in-loop cycle
    /// budget — a hang burns *wall-clock* time and can only be stopped
    /// by the supervisor's cancellation token.
    HangCore {
        /// 0-based access index at which the hang begins.
        at_access: u64,
    },
    /// At access `at_access`, the model panics (a simulated internal
    /// compiler-error-class bug). The supervisor's `catch_unwind`
    /// containment converts it into one ledgered
    /// `SimError::Internal` failure.
    PanicCore {
        /// 0-based access index at which the panic fires.
        at_access: u64,
    },
}

impl FaultInjection {
    /// Stable kind tag for failure-record serialization.
    pub fn kind_str(&self) -> &'static str {
        match self {
            FaultInjection::CorruptDirectory { .. } => "corrupt-directory",
            FaultInjection::SkipBackInvalidation { .. } => "skip-back-invalidation",
            FaultInjection::StallCore { .. } => "stall-core",
            FaultInjection::HangCore { .. } => "hang-core",
            FaultInjection::PanicCore { .. } => "panic-core",
        }
    }

    /// The access index the fault arms at.
    pub fn at_access(&self) -> u64 {
        match self {
            FaultInjection::CorruptDirectory { at_access }
            | FaultInjection::SkipBackInvalidation { at_access }
            | FaultInjection::StallCore { at_access }
            | FaultInjection::HangCore { at_access }
            | FaultInjection::PanicCore { at_access } => *at_access,
        }
    }

    /// Every kind of fault, armed at `at_access`, in
    /// [`FaultInjection::kind_str`] order.
    pub fn all(at_access: u64) -> [FaultInjection; 5] {
        [
            FaultInjection::CorruptDirectory { at_access },
            FaultInjection::SkipBackInvalidation { at_access },
            FaultInjection::StallCore { at_access },
            FaultInjection::HangCore { at_access },
            FaultInjection::PanicCore { at_access },
        ]
    }

    /// Rebuilds a fault from its `(kind_str, at_access)` serialized form.
    pub fn from_parts(kind: &str, at_access: u64) -> Option<Self> {
        Self::all(at_access)
            .into_iter()
            .find(|f| f.kind_str() == kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cadence_parse_round_trips() {
        for s in ["off", "sampled", "sampled:64", "every-access"] {
            let c = AuditCadence::parse(s).unwrap();
            assert_eq!(c.label(), s);
            assert_eq!(AuditCadence::parse(&c.label()).unwrap(), c);
        }
        assert!(AuditCadence::parse("sometimes").is_err());
        assert!(AuditCadence::parse("sampled:0").is_err());
        assert!(!AuditCadence::Off.is_enabled());
        assert!(AuditCadence::EveryAccess.is_enabled());
    }

    #[test]
    fn due_honors_cadence() {
        let mut off = Auditor::new(AuditCadence::Off);
        assert!((0..100).all(|_| !off.due()));
        let mut every = Auditor::new(AuditCadence::EveryAccess);
        assert!((0..100).all(|_| every.due()));
        let mut sampled = Auditor::new(AuditCadence::Sampled { one_in: 4 });
        let fired = (0..100).filter(|_| sampled.due()).count();
        assert_eq!(fired, 25);
    }

    /// A scaled inclusive hierarchy after core 0 streamed through more
    /// lines than its private caches hold: the early lines are in the
    /// LLC only (NotInPrC), the late ones privately cached as well.
    fn streamed() -> CacheHierarchy {
        let cfg = crate::HierarchyConfig::new(ziv_common::config::SystemConfig::scaled());
        let mut h = CacheHierarchy::new(&cfg);
        let core = CoreId::new(0);
        for (seq, line) in (0..2_000u64).enumerate() {
            let a = crate::Access::read(core, ziv_common::Addr::new(line * 64), 0x400);
            h.access(&a, seq as u64 * 10, seq as u64);
        }
        Auditor::check_structure(&h, 0).expect("a healthy hierarchy passes");
        h
    }

    /// Flips the NotInPrC bit of the first non-relocated LLC block whose
    /// bit is `from`, and returns the audit verdict.
    fn audit_after_flipping(from: bool) -> AuditViolation {
        let mut h = streamed();
        let (loc, _) = h
            .llc()
            .resident_blocks()
            .into_iter()
            .find(|(_, st)| !st.relocated && st.not_in_prc == from)
            .expect("the stream leaves blocks of both kinds");
        h.llc_mut().update_state(loc, |s| s.not_in_prc = !from);
        Auditor::check_structure(&h, 7).expect_err("the flipped bit is caught")
    }

    #[test]
    fn not_in_prc_on_a_privately_cached_block_is_a_mismatch() {
        let v = audit_after_flipping(false);
        assert_eq!(v.kind, ViolationKind::NotInPrcMismatch, "{v}");
        assert_eq!(v.access_index, 7);
    }

    #[test]
    fn clear_not_in_prc_on_a_block_no_core_holds_is_a_mismatch() {
        let v = audit_after_flipping(true);
        assert_eq!(v.kind, ViolationKind::NotInPrcMismatch, "{v}");
    }

    #[test]
    fn a_dirty_copy_its_entry_does_not_own_is_not_exclusive() {
        let cfg = crate::HierarchyConfig::new(ziv_common::config::SystemConfig::scaled());
        let mut h = CacheHierarchy::new(&cfg);
        let a = crate::Access::write(CoreId::new(1), ziv_common::Addr::new(0x4000), 0x400);
        h.access(&a, 0, 0);
        Auditor::check_structure(&h, 0).expect("a healthy hierarchy passes");
        let line = a.addr.line();
        h.dir_mut()
            .probe_mut(line)
            .expect("the store's line is tracked")
            .dirty_owner = None;
        let v = Auditor::check_structure(&h, 3).expect_err("the lost ownership is caught");
        assert_eq!(v.kind, ViolationKind::DirtyNotExclusive, "{v}");
        assert_eq!((v.line, v.access_index), (Some(line), 3));
    }

    #[test]
    fn fault_kinds_round_trip() {
        let faults = [
            FaultInjection::CorruptDirectory { at_access: 5 },
            FaultInjection::SkipBackInvalidation { at_access: 6 },
            FaultInjection::StallCore { at_access: 7 },
            FaultInjection::HangCore { at_access: 8 },
            FaultInjection::PanicCore { at_access: 9 },
        ];
        for f in faults {
            assert_eq!(
                FaultInjection::from_parts(f.kind_str(), f.at_access()),
                Some(f)
            );
        }
        assert_eq!(FaultInjection::from_parts("nope", 0), None);
    }
}
