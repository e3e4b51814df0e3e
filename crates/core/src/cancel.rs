//! Cooperative cancellation for supervised simulation runs.
//!
//! A [`CancelToken`] is the one channel through which the harness's
//! watchdog reaches inside a running cell. The driver's access loop
//! polls [`CancelToken::fired`]; the watchdog thread (wall-clock
//! budgets) or the token's own *access deadline* (deterministic budgets
//! for tests) flips it. The token is deliberately dumb — two atomics
//! and an immutable deadline — so polling it costs one relaxed load and
//! the unarmed path (`Option::None` in the driver) costs nothing at
//! all.
//!
//! Semantics, checked by the cancel-token properties in
//! `tests/component_properties.rs`:
//!
//! - with an access deadline `d`, [`CancelToken::fired`] never reports
//!   cancellation for `issued < d` (unless externally cancelled) and
//!   always reports it for `issued >= d`;
//! - external [`CancelToken::cancel`] is sticky: once fired, always
//!   fired, and the first reason wins.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    reason: Mutex<Option<String>>,
    /// Cancel automatically once the cell has issued this many
    /// accesses. `u64::MAX` = no deadline.
    access_deadline: u64,
    /// Last progress report from the driver (accesses issued), for the
    /// watchdog's diagnostics.
    progress: AtomicU64,
}

/// A cloneable, thread-safe cancellation flag with an optional
/// deterministic access-count deadline.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token that fires only on an explicit [`CancelToken::cancel`].
    pub fn new() -> Self {
        Self::with_access_deadline(u64::MAX)
    }

    /// A token that additionally fires once the cell has issued
    /// `deadline` accesses — a deterministic budget independent of
    /// wall-clock time.
    pub fn with_access_deadline(deadline: u64) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                reason: Mutex::new(None),
                access_deadline: deadline,
                progress: AtomicU64::new(0),
            }),
        }
    }

    /// Fires the token. The first caller's reason is kept; later calls
    /// are no-ops.
    pub fn cancel(&self, reason: impl Into<String>) {
        let mut slot = self.inner.reason.lock().unwrap();
        if slot.is_none() {
            *slot = Some(reason.into());
        }
        drop(slot);
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Whether the token has been externally cancelled (does not
    /// consider the access deadline).
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// Polls the token at access position `issued`. Returns the
    /// cancellation reason when the token has fired — externally, or
    /// because `issued` reached the access deadline.
    pub fn fired(&self, issued: u64) -> Option<String> {
        if self.is_cancelled() {
            let slot = self.inner.reason.lock().unwrap();
            return Some(slot.clone().unwrap_or_else(|| "cancelled".into()));
        }
        if issued >= self.inner.access_deadline {
            return Some(format!(
                "access deadline {} reached",
                self.inner.access_deadline
            ));
        }
        None
    }

    /// Records the cell's progress (accesses issued) for watchdog
    /// diagnostics.
    pub fn note_progress(&self, issued: u64) {
        self.inner.progress.store(issued, Ordering::Relaxed);
    }

    /// The last progress report, in accesses issued.
    pub fn progress(&self) -> u64 {
        self.inner.progress.load(Ordering::Relaxed)
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_token_fires_exactly_at_deadline() {
        let t = CancelToken::with_access_deadline(100);
        for issued in 0..100 {
            assert!(t.fired(issued).is_none(), "fired early at {issued}");
        }
        for issued in [100, 101, u64::MAX] {
            let reason = t.fired(issued).expect("must fire at/after deadline");
            assert!(reason.contains("100"), "{reason}");
        }
        assert!(!t.is_cancelled(), "deadline firing is not external cancel");
    }

    #[test]
    fn external_cancel_is_sticky_and_first_reason_wins() {
        let t = CancelToken::new();
        assert!(t.fired(u64::MAX - 1).is_none());
        t.cancel("wall-clock budget 5ms exceeded");
        t.cancel("second reason");
        assert!(t.is_cancelled());
        let r = t.fired(0).unwrap();
        assert_eq!(r, "wall-clock budget 5ms exceeded");
    }

    #[test]
    fn clones_share_state() {
        let t = CancelToken::new();
        let c = t.clone();
        c.note_progress(42);
        assert_eq!(t.progress(), 42);
        t.cancel("stop");
        assert!(c.is_cancelled());
    }
}
