//! # ziv-bench
//!
//! The paper's evaluation as two `harness = false` bench targets:
//! `figures` runs every figure, ablation and extension entry of the
//! `ziv-harness` campaign registry (or the entries named after `--`)
//! and prints each through its views; `table1_config` prints the
//! simulated machine.
//!
//! Run everything with `cargo bench -p ziv-bench`, or one entry with
//! e.g. `cargo bench -p ziv-bench --bench figures -- fig08-lru-perf`.
//! `ZIV_FAST=1` shrinks the workloads; `ZIV_FULL=1` enlarges them.

#![warn(missing_docs)]

use std::path::{Path, PathBuf};

/// Results directory of a registry entry: `$ZIV_RESULTS_DIR/<name>`,
/// defaulting to `results/<name>` at the workspace root, where
/// `zivsim campaign <name>` run from the root keeps it too, so the two
/// share one ledger. Cargo runs bench binaries from the package
/// directory, so the default cannot be a relative path.
pub fn campaign_results_dir(name: &str) -> PathBuf {
    std::env::var_os("ZIV_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(workspace_results)
        .join(name)
}

fn workspace_results() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels under the workspace root")
        .join("results")
}

#[cfg(test)]
mod tests {
    #[test]
    fn default_results_sit_at_the_workspace_root() {
        let results = super::workspace_results();
        assert!(results.ends_with("results"));
        assert!(results.parent().unwrap().join("Cargo.lock").is_file());
    }
}
