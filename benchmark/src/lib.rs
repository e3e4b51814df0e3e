//! # ziv-benchmark
//!
//! The repository benchmark: five workloads that time the ZIV simulator
//! end to end ([`measure`]) and per layer ([`layers`]), driving it only
//! through the simulator crates' public APIs, with every result checked
//! against pinned digests ([`check`]). `README.md` documents the
//! workloads, the metrics and their bounds.

#![warn(missing_docs)]

pub mod check;
pub mod layers;
pub mod measure;
pub mod plan;
pub mod refclock;
pub mod report;
pub mod stats;

pub use plan::{Plan, Sizes, WORKLOADS};
pub use report::{Metric, Report};
