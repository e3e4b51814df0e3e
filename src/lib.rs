//! # ziv — Zero Inclusion Victim LLC
//!
//! A from-scratch Rust reproduction of *"Zero Inclusion Victim:
//! Isolating Core Caches from Inclusive Last-level Cache Evictions"*
//! (Mainak Chaudhuri, ISCA 2021): an inclusive last-level cache design
//! that **guarantees freedom from inclusion victims** by relocating LLC
//! victims that are resident in private caches to globally selected
//! relocation sets, instead of back-invalidating them.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! - [`common`] — addresses, cache geometry, Table I configurations,
//!   deterministic RNG, statistics.
//! - [`replacement`] — LRU, NRU, SRRIP, Hawkeye (OPTgen + PC
//!   predictor), and the offline Belady MIN oracle.
//! - [`cache`] — set-associative arrays and the property-vector
//!   machinery with the paper's Algorithm 1. The relocation FIFO is not
//!   modeled: each relocation completes at once.
//! - [`directory`] — the sparse coherence directory with the ZIV
//!   `Relocated` pointer state and a ZeroDEV mode.
//! - [`dram`] / [`noc`] — DDR3-2133-like memory timing/energy and the
//!   2D-mesh interconnect model.
//! - [`char_engine`] — CHAR dead-block inference with the paper's
//!   dynamic-threshold adaptation.
//! - [`core`] — the cache hierarchy with every LLC mode `zivsim list`
//!   names: inclusive, non-inclusive, QBS, SHARP, CHARonBase, TLA's TLH
//!   and ECI, RIC, way partitioning, and ZIV with its five
//!   relocation-set properties — fourteen in all — plus the
//!   query-depth-bounded QBS ablation (`LlcMode::QbsBounded`).
//! - [`workloads`] — synthetic SPEC / PARSEC / TPC-E stand-ins.
//! - [`sim`] — runs one cell: the trace driver, interval sampling,
//!   reporting.
//! - [`harness`] — runs many cells through one worker pool: experiment
//!   grids and resumable campaigns with a content-addressed result
//!   cache and run telemetry.
//! - [`telemetry`] — the live telemetry bus: a seqlock shared-memory
//!   segment written by running campaigns and tailed by
//!   `zivsim watch`.
//! - [`bench`](mod@bench) — where the `figures` bench target, which
//!   prints every figure entry of the campaign registry, keeps its
//!   results.
//!
//! # Quick start
//!
//! ```
//! use ziv::prelude::*;
//!
//! let sys = SystemConfig::scaled();
//! let scale = ScaleParams::from_system(&sys);
//! let workload = mixes::heterogeneous(0, 8, 5_000, 42, scale);
//!
//! let baseline = run_one(&RunSpec::new("I-LRU", sys.clone()), &workload);
//! let ziv = run_one(
//!     &RunSpec::new("ZIV", sys).with_mode(LlcMode::Ziv(ZivProperty::LikelyDead)),
//!     &workload,
//! );
//! assert_eq!(ziv.metrics.inclusion_victims, 0); // the guarantee
//! # let _ = baseline;
//! ```

#![warn(missing_docs)]

pub use ziv_bench as bench;
pub use ziv_cache as cache;
pub use ziv_char as char_engine;
pub use ziv_common as common;
pub use ziv_core as core;
pub use ziv_directory as directory;
pub use ziv_dram as dram;
pub use ziv_harness as harness;
pub use ziv_noc as noc;
pub use ziv_replacement as replacement;
pub use ziv_sim as sim;
pub use ziv_telemetry as telemetry;
pub use ziv_workloads as workloads;

/// The most commonly used items, for `use ziv::prelude::*`.
pub mod prelude {
    pub use ziv_common::config::{DirRatio, L2Size, SystemConfig};
    pub use ziv_common::{Addr, CoreId, LineAddr};
    pub use ziv_core::{Access, CacheHierarchy, HierarchyConfig, LlcMode, ZivProperty};
    pub use ziv_directory::DirectoryMode;
    pub use ziv_harness::run_grid;
    pub use ziv_replacement::PolicyKind;
    pub use ziv_sim::{run_one, Effort, RunSpec};
    pub use ziv_workloads::{apps, mixes, multithreaded, ScaleParams, Workload};
}
