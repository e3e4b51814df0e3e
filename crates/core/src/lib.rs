//! # ziv-core
//!
//! The paper's contribution and its host cache hierarchy: a full
//! functional + timing model of a CMP with per-core private L1/L2 caches,
//! a banked shared LLC, and a sparse coherence directory — supporting
//! the complete set of LLC management designs the paper discusses:
//!
//! | Mode | Paper reference |
//! |------|-----------------|
//! | [`LlcMode::Inclusive`] | baseline inclusive LLC (Section I) |
//! | [`LlcMode::NonInclusive`] | baseline non-inclusive LLC (Section I) |
//! | [`LlcMode::Tlh`] | TLA temporal-locality hints, Jaleel et al. MICRO 2010 |
//! | [`LlcMode::Eci`] | TLA early core invalidation, Jaleel et al. MICRO 2010 |
//! | [`LlcMode::Qbs`] | TLA query-based selection, Jaleel et al. MICRO 2010 |
//! | [`LlcMode::Sharp`] | SHARP, Yan et al. ISCA 2017 |
//! | [`LlcMode::CharOnBase`] | the CHARonBase comparison point (Section V-A) |
//! | [`LlcMode::Ric`] | Relaxed Inclusion Caches, Kayaalp et al. DAC 2017 |
//! | [`LlcMode::WayPartitioned`] | way-partitioned isolation (\[26\]/\[31\]-class) |
//! | [`LlcMode::Ziv`] | **the Zero Inclusion Victim LLC** (Section III), with all five relocation-set properties |
//!
//! plus an optional per-core stride [`prefetch`]er (the reference-\[1\]
//! interplay study).
//!
//! The central artifact is [`CacheHierarchy`]: feed it a stream of
//! per-core accesses and it returns latencies while maintaining exact
//! inclusion/coherence state and the paper's statistics (inclusion
//! victims, misses per level, relocations and their intervals, energy).
//!
//! # Quick start
//!
//! ```
//! use ziv_core::{CacheHierarchy, HierarchyConfig, LlcMode, ZivProperty, Access};
//! use ziv_common::{config::SystemConfig, Addr, CoreId};
//!
//! let cfg = HierarchyConfig::new(SystemConfig::scaled())
//!     .with_mode(LlcMode::Ziv(ZivProperty::LikelyDead));
//! let mut h = CacheHierarchy::new(&cfg);
//! let access = Access::read(CoreId::new(0), Addr::new(0x4000), 0x400);
//! let lat = h.access(&access, 0, 0);
//! assert!(lat > 0, "cold miss goes to memory");
//! assert_eq!(h.metrics().inclusion_victims, 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod audit;
pub mod cancel;
pub mod forensics;
mod hierarchy;
pub mod latency;
pub mod leakage;
pub mod llc;
pub mod metrics;
pub mod observe;
pub mod prefetch;
pub mod private;
pub mod profile;

pub use audit::{AuditCadence, Auditor, FaultInjection};
pub use cancel::CancelToken;
pub use forensics::{
    CausalChain, ChainKind, ForensicsObservatory, ForensicsReport, ProvenanceStamp,
};
pub use hierarchy::{Access, CacheHierarchy, HierarchyConfig};
pub use latency::{AccessClass, LatencyBreakdown, LatencyComponent, LatencyReport};
pub use leakage::{CoreLeakage, LeakageObservatory, LeakageReport};
pub use llc::{LlcMode, VictimReason, ZivProperty};
pub use metrics::Metrics;
pub use observe::{
    EventFilter, EventKind, EventTraceConfig, FlightRecorder, Heatmap, HierarchyEvent,
    Observations, ObserveConfig, ProbeSnapshot, Recording, SamplingProgress, TearOut,
    TelemetryProbe, TraceEvent,
};
pub use profile::{ProfileReport, ProfileSection, SelfProfiler};
