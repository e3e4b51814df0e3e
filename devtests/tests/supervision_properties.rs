//! Property suites for the cooperative cancellation token (see
//! `ziv_core::cancel`): an access-deadline token never fires before its
//! deadline and always fires at or after it, and the first cancellation
//! reason wins and sticks.

use proptest::prelude::*;
use ziv_core::CancelToken;

proptest! {
    /// An access-deadline token never fires early and always fires at
    /// or after the deadline.
    #[test]
    fn cancel_token_fires_exactly_at_its_deadline(
        deadline in 0u64..1_000_000,
        below in 0u64..1_000_000,
        at_or_above in 0u64..1_000_000,
    ) {
        let t = CancelToken::with_access_deadline(deadline);
        if below < deadline {
            prop_assert!(t.fired(below).is_none(), "fired before the deadline");
        }
        let issued = deadline.saturating_add(at_or_above);
        prop_assert!(t.fired(issued).is_some(), "must fire at/after the deadline");
    }

    /// The first cancellation reason wins and sticks, no matter how
    /// many follow.
    #[test]
    fn cancel_reason_is_sticky_first_wins(
        reasons in prop::collection::vec("[a-z]{1,12}", 1..6),
        issued in any::<u64>(),
    ) {
        let t = CancelToken::new();
        for r in &reasons {
            t.cancel(r.clone());
        }
        let fired = t.fired(issued).expect("cancelled token always fires");
        prop_assert_eq!(fired, reasons[0].clone());
    }
}
