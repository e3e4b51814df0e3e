//! # ziv-cache
//!
//! Structural cache building blocks for the ZIV LLC reproduction:
//!
//! - [`SetAssocArray`]: a generic set-associative tag array with
//!   per-way user state, used for the private L1/L2 caches, the LLC
//!   banks, and (via `ziv-directory`) the sparse directory slices.
//! - [`PropertyVector`]: the per-bank, per-property bit vector of
//!   Section III-D with the paper's **Algorithm 1** (`nextRS`
//!   computation) implemented literally on a multi-word bit string,
//!   including the `emptyPV` shortcut bit.
//!
//! The paper's eight-entry relocation FIFO (Section III-D1) is not
//! modeled: the LLC performs each relocation at once, when it is
//! requested.
//!
//! # Examples
//!
//! ```
//! use ziv_cache::PropertyVector;
//!
//! let mut pv = PropertyVector::new(64);
//! pv.set(10, true);
//! pv.set(42, true);
//! assert_eq!(pv.take_next_rs(), Some(10));
//! assert_eq!(pv.take_next_rs(), Some(42)); // round-robin
//! assert_eq!(pv.take_next_rs(), Some(10)); // wraps
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod array;
mod pv;

pub use array::{ProbeOutcome, SetAssocArray, WayRef};
pub use pv::PropertyVector;
