//! # ziv-common
//!
//! Shared foundation types for the ZIV (Zero Inclusion Victim) LLC
//! reproduction: physical addresses and cache geometry, system
//! configuration (the paper's Table I, both at full scale and at the
//! default 1/8 scale), deterministic random number generation, and
//! statistics helpers used by the simulator and the benchmark harness.
//!
//! Everything in this crate is policy-free: it knows nothing about
//! replacement policies, coherence, or the ZIV mechanism itself.
//!
//! # Examples
//!
//! ```
//! use ziv_common::{config::SystemConfig, addr::LineAddr};
//!
//! let cfg = SystemConfig::scaled();
//! let line = LineAddr::new(0x4_2000 >> 6);
//! let bank = cfg.llc.bank_of(line);
//! assert!(bank.index() < cfg.llc.banks);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addr;
pub mod config;
pub mod digest;
pub mod error;
pub mod fsutil;
pub mod ids;
pub mod json;
pub mod rng;
pub mod seqlock;
pub mod stats;

pub use addr::{Addr, LineAddr};
pub use config::{CacheGeometry, L2Size, LlcConfig, SystemConfig};
pub use digest::Fnv1a;
pub use error::{AuditViolation, SimError, ViolationKind};
pub use ids::{BankId, CoreId, WayIdx};
pub use rng::{Geometric, SimRng};

/// A simulation clock value, in CPU cycles.
///
/// Kept as a plain alias (rather than a newtype) because cycle values are
/// combined arithmetically on the simulator's hottest paths.
pub type Cycle = u64;
