//! Typed errors for the simulation run path.
//!
//! Everything that can go wrong while building, running, or persisting an
//! experiment is funneled into [`SimError`] so faults propagate as values
//! instead of panics: the campaign runner records a failing cell and keeps
//! going, and `zivsim replay` can reconstruct the exact failure later.
//!
//! [`AuditViolation`] lives here (rather than next to the auditor in
//! `ziv-core`) so that `SimError` can carry one without this crate growing
//! a dependency on the model.

use crate::LineAddr;
use std::fmt;
use std::path::{Path, PathBuf};

/// The category of invariant an audit walk found violated.
///
/// The discriminant names are stable strings (see
/// [`ViolationKind::as_str`]) because failure records serialize them to
/// JSON and `zivsim replay` compares them across processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ViolationKind {
    /// A valid private-cache line has no sparse-directory entry.
    UntrackedPrivateLine,
    /// A valid private-cache line's directory entry exists but the core's
    /// sharer bit is clear.
    MissingSharerBit,
    /// A directory entry claims a sharer whose private caches do not
    /// actually hold the block.
    StaleSharerBit,
    /// Under an inclusive mode, a privately cached block has neither a
    /// home LLC copy nor a tracked relocated copy (an inclusion hole).
    InclusionHole,
    /// A directory `Relocated` pointer does not land on an LLC block in
    /// relocated state for that line, or a relocated LLC block is not
    /// pointed at by its directory entry.
    DanglingRelocation,
    /// An LLC block's `not_in_prc` hint disagrees with the directory's
    /// private-residency answer.
    NotInPrcMismatch,
    /// A directory entry's dirty owner is not a member of its sharer set.
    OwnerNotSharer,
    /// A core holds a dirty private copy whose directory entry does not
    /// name that core as dirty owner and only sharer.
    DirtyNotExclusive,
    /// ZIV mode generated an inclusion victim without accounting for it
    /// as a relocation-set-exhaustion fallback — the zero-inclusion-victim
    /// guarantee was violated.
    ZivGuarantee,
    /// A metric conservation law failed (e.g. hits + misses != accesses).
    MetricConservation,
}

impl ViolationKind {
    /// Stable string form used in failure records and ledger entries.
    pub fn as_str(self) -> &'static str {
        match self {
            ViolationKind::UntrackedPrivateLine => "untracked-private-line",
            ViolationKind::MissingSharerBit => "missing-sharer-bit",
            ViolationKind::StaleSharerBit => "stale-sharer-bit",
            ViolationKind::InclusionHole => "inclusion-hole",
            ViolationKind::DanglingRelocation => "dangling-relocation",
            ViolationKind::NotInPrcMismatch => "not-in-prc-mismatch",
            ViolationKind::OwnerNotSharer => "owner-not-sharer",
            ViolationKind::DirtyNotExclusive => "dirty-not-exclusive",
            ViolationKind::ZivGuarantee => "ziv-guarantee",
            ViolationKind::MetricConservation => "metric-conservation",
        }
    }

    /// Parses the stable string form back (for replaying failure records).
    pub fn from_str_opt(s: &str) -> Option<Self> {
        Some(match s {
            "untracked-private-line" => ViolationKind::UntrackedPrivateLine,
            "missing-sharer-bit" => ViolationKind::MissingSharerBit,
            "stale-sharer-bit" => ViolationKind::StaleSharerBit,
            "inclusion-hole" => ViolationKind::InclusionHole,
            "dangling-relocation" => ViolationKind::DanglingRelocation,
            "not-in-prc-mismatch" => ViolationKind::NotInPrcMismatch,
            "owner-not-sharer" => ViolationKind::OwnerNotSharer,
            "dirty-not-exclusive" => ViolationKind::DirtyNotExclusive,
            "ziv-guarantee" => ViolationKind::ZivGuarantee,
            "metric-conservation" => ViolationKind::MetricConservation,
            _ => return None,
        })
    }
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A single invariant violation found by an audit walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditViolation {
    /// Which invariant failed.
    pub kind: ViolationKind,
    /// 0-based index of the access after which the violation was first
    /// observed (the auditor runs between accesses, so this is the index
    /// of the access that completed immediately before detection).
    pub access_index: u64,
    /// The block involved, when the violation is about a specific block.
    pub line: Option<LineAddr>,
    /// Human-readable description of the mismatch.
    pub detail: String,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "audit violation [{}] after access {}",
            self.kind, self.access_index
        )?;
        if let Some(line) = self.line {
            write!(f, " (line {:#x})", line.raw())?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Typed error for the simulation run path.
///
/// Carries enough context (paths, line numbers, access indices) that a
/// failing campaign cell can be recorded, reported, and deterministically
/// replayed without a debugger.
#[derive(Debug)]
#[non_exhaustive]
pub enum SimError {
    /// An I/O operation failed; `context` says what we were doing.
    Io {
        /// What operation failed (e.g. "create results dir").
        context: String,
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// A text input (trace file, ledger line, repro record) failed to
    /// parse.
    Parse {
        /// The file the input came from, when known.
        path: Option<PathBuf>,
        /// 1-based line number of the offending line (0 when the error is
        /// not tied to a line, e.g. "empty file").
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// An invalid configuration or CLI request.
    Config(String),
    /// An audit walk found the model in an inconsistent state.
    Audit(AuditViolation),
    /// A cell exceeded its cycle budget — the watchdog verdict for a
    /// livelocked or pathologically slow model.
    BudgetExceeded {
        /// The per-core cycle budget that was in force.
        budget_cycles: u64,
        /// The core whose clock crossed the budget.
        core: usize,
        /// That core's cycle count when the watchdog fired.
        cycles: u64,
        /// 0-based global index of the access that crossed the budget.
        access_index: u64,
    },
    /// A cell was cancelled by the supervisor — its wall-clock or
    /// access-count budget expired while the cell was still running.
    Timeout {
        /// Why the supervisor fired (e.g. "wall-clock budget 5000ms
        /// exceeded" or "access deadline 1000 reached").
        reason: String,
        /// 0-based global index of the last access the cell had issued
        /// when the cancellation was observed.
        access_index: u64,
    },
    /// The cell's worker panicked; the panic was contained by the
    /// supervisor and converted into this error instead of taking the
    /// whole campaign down.
    Internal(String),
}

impl SimError {
    /// Convenience constructor for I/O errors with path context.
    pub fn io(context: impl Into<String>, path: impl AsRef<Path>, source: std::io::Error) -> Self {
        SimError::Io {
            context: context.into(),
            path: path.as_ref().to_path_buf(),
            source,
        }
    }

    /// Convenience constructor for parse errors with file context.
    pub fn parse(path: Option<&Path>, line: usize, message: impl Into<String>) -> Self {
        SimError::Parse {
            path: path.map(Path::to_path_buf),
            line,
            message: message.into(),
        }
    }

    /// The audit violation carried by this error, if it is one.
    pub fn violation(&self) -> Option<&AuditViolation> {
        match self {
            SimError::Audit(v) => Some(v),
            _ => None,
        }
    }

    /// Short machine-readable tag for ledgers and failure records.
    pub fn kind_tag(&self) -> &'static str {
        match self {
            SimError::Io { .. } => "io",
            SimError::Parse { .. } => "parse",
            SimError::Config(_) => "config",
            SimError::Audit(_) => "audit",
            SimError::BudgetExceeded { .. } => "budget-exceeded",
            SimError::Timeout { .. } => "timeout",
            SimError::Internal(_) => "internal",
        }
    }

    /// The access index at which the failure was detected, when the
    /// failure is tied to one (audit violations and watchdog trips).
    pub fn access_index(&self) -> Option<u64> {
        match self {
            SimError::Audit(v) => Some(v.access_index),
            SimError::BudgetExceeded { access_index, .. } => Some(*access_index),
            SimError::Timeout { access_index, .. } => Some(*access_index),
            _ => None,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Io {
                context,
                path,
                source,
            } => write!(f, "{context} ({}): {source}", path.display()),
            SimError::Parse {
                path,
                line,
                message,
            } => {
                match path {
                    Some(p) => write!(f, "parse error in {}", p.display())?,
                    None => write!(f, "parse error")?,
                }
                if *line > 0 {
                    write!(f, " at line {line}")?;
                }
                write!(f, ": {message}")
            }
            SimError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            SimError::Audit(v) => v.fmt(f),
            SimError::BudgetExceeded {
                budget_cycles,
                core,
                cycles,
                access_index,
            } => write!(
                f,
                "cell budget exceeded: core {core} at {cycles} cycles \
                 (budget {budget_cycles}) after access {access_index} — \
                 livelocked or pathologically slow model"
            ),
            SimError::Timeout {
                reason,
                access_index,
            } => write!(
                f,
                "cell cancelled by supervisor after access {access_index}: {reason}"
            ),
            SimError::Internal(msg) => write!(f, "internal error (contained panic): {msg}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<AuditViolation> for SimError {
    fn from(v: AuditViolation) -> Self {
        SimError::Audit(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_kind_round_trips_through_strings() {
        let kinds = [
            ViolationKind::UntrackedPrivateLine,
            ViolationKind::MissingSharerBit,
            ViolationKind::StaleSharerBit,
            ViolationKind::InclusionHole,
            ViolationKind::DanglingRelocation,
            ViolationKind::NotInPrcMismatch,
            ViolationKind::OwnerNotSharer,
            ViolationKind::DirtyNotExclusive,
            ViolationKind::ZivGuarantee,
            ViolationKind::MetricConservation,
        ];
        for k in kinds {
            assert_eq!(ViolationKind::from_str_opt(k.as_str()), Some(k));
        }
        assert_eq!(ViolationKind::from_str_opt("nonsense"), None);
    }

    #[test]
    fn display_includes_context() {
        let v = AuditViolation {
            kind: ViolationKind::InclusionHole,
            access_index: 42,
            line: Some(LineAddr::new(0x40)),
            detail: "no LLC copy".into(),
        };
        let s = SimError::from(v).to_string();
        assert!(s.contains("inclusion-hole"), "{s}");
        assert!(s.contains("access 42"), "{s}");
        assert!(s.contains("0x40"), "{s}");

        let io = SimError::io(
            "open trace",
            "/tmp/t.trace",
            std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        );
        assert!(io.to_string().contains("/tmp/t.trace"));
        assert_eq!(io.kind_tag(), "io");

        let p = SimError::parse(Some(Path::new("x.csv")), 7, "bad field");
        assert!(p.to_string().contains("line 7"), "{p}");
    }

    #[test]
    fn access_index_is_surfaced_for_replayable_errors() {
        let v = AuditViolation {
            kind: ViolationKind::StaleSharerBit,
            access_index: 9,
            line: None,
            detail: String::new(),
        };
        assert_eq!(SimError::from(v).access_index(), Some(9));
        let b = SimError::BudgetExceeded {
            budget_cycles: 10,
            core: 1,
            cycles: 20,
            access_index: 3,
        };
        assert_eq!(b.access_index(), Some(3));
        assert_eq!(SimError::Config("x".into()).access_index(), None);
        let t = SimError::Timeout {
            reason: "wall-clock budget 10ms exceeded".into(),
            access_index: 17,
        };
        assert_eq!(t.access_index(), Some(17));
        assert_eq!(t.kind_tag(), "timeout");
        assert!(t.to_string().contains("access 17"), "{t}");
        let i = SimError::Internal("index out of bounds".into());
        assert_eq!(i.kind_tag(), "internal");
        assert_eq!(i.access_index(), None);
    }
}
