//! A supervised cell's wall-clock deadline.
//!
//! A [`CancelToken`] is the one channel through which the harness's
//! worker pool bounds a running cell: the pool starts the cell's clock
//! when it builds the token, and both sim drivers poll
//! [`CancelToken::fired`] every 256 accesses. The token is a plain
//! value — a budget and the instant it runs out — so a poll costs one
//! clock read, and the unarmed path (`Option::None` in the driver)
//! costs nothing at all.
//!
//! Semantics, checked by `cancel_token_fires_exactly_at_its_deadline`
//! in `tests/component_properties.rs`: [`CancelToken::new`] and a
//! budget too far out to reach never fire; a spent budget fires at
//! every check from then on, naming the budget.

use std::time::{Duration, Instant};

/// A cell's wall-clock budget and the instant it runs out.
#[derive(Debug, Clone, Copy, Default)]
pub struct CancelToken {
    /// The budget and its deadline; `None` never fires.
    deadline: Option<(Duration, Instant)>,
}

impl CancelToken {
    /// A token that never fires.
    pub fn new() -> Self {
        CancelToken { deadline: None }
    }

    /// A token that fires once `budget` of wall-clock time has passed
    /// from now. A budget too large to represent as an instant never
    /// fires.
    pub fn with_budget(budget: Duration) -> Self {
        CancelToken {
            deadline: Instant::now().checked_add(budget).map(|at| (budget, at)),
        }
    }

    /// Polls the token with `issued` accesses made. Returns the
    /// cancellation reason once the budget is spent.
    pub fn fired(&self, issued: u64) -> Option<String> {
        let (budget, at) = self.deadline?;
        (Instant::now() >= at).then(|| {
            format!(
                "wall-clock budget {}ms exceeded ({issued} accesses issued)",
                budget.as_millis()
            )
        })
    }
}
