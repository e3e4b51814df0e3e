//! # ziv-bench
//!
//! Shared support for the figure-regeneration benches. Every table and
//! figure of the paper's evaluation has a `harness = false` bench target
//! in `benches/` that reruns the experiment and prints the same data
//! series the paper reports; this crate holds the common plumbing
//! (workload suites, spec construction, banners, assertions).
//!
//! Run everything with `cargo bench`, or one figure with e.g.
//! `cargo bench --bench fig08_lru_perf`. `ZIV_FAST=1` shrinks the
//! workloads; `ZIV_FULL=1` enlarges them.

#![warn(missing_docs)]

use ziv_common::config::{L2Size, SystemConfig};
use ziv_core::LlcMode;
use ziv_replacement::PolicyKind;
use ziv_sim::{Effort, RunSpec};
use ziv_workloads::{mixes, ScaleParams, Workload};

/// Builds the multiprogrammed workload suite (all homogeneous mixes plus
/// the effort's heterogeneous count). Footprints are sized against the
/// 256 KB-class machine so the *same traces* drive every configuration
/// of an L2-capacity sweep, as the paper's fixed SimPoint traces do.
pub fn mp_suite(effort: &Effort, cores: usize) -> Vec<Workload> {
    let scale = ScaleParams::from_system(&SystemConfig::scaled_with_l2(L2Size::K256));
    mixes::default_suite(
        effort.hetero_mixes,
        cores,
        effort.accesses_per_core,
        0x2026,
        scale,
    )
}

/// A compact suite (homogeneous mixes of the four most contention-
/// sensitive profiles + two heterogeneous) for the more expensive
/// sweeps (Fig 15's 24-configuration grid).
pub fn mp_suite_small(effort: &Effort, cores: usize) -> Vec<Workload> {
    let scale = ScaleParams::from_system(&SystemConfig::scaled_with_l2(L2Size::K256));
    let mut suite: Vec<Workload> = ["circset", "hotl2big", "zipfdb", "scanphase"]
        .iter()
        .map(|name| {
            mixes::homogeneous(
                ziv_workloads::apps::app_by_name(name).expect("known app"),
                cores,
                effort.accesses_per_core,
                0x2026,
                scale,
            )
        })
        .collect();
    suite.extend(mixes::all_heterogeneous(
        2,
        cores,
        effort.accesses_per_core,
        0x2026,
        scale,
    ));
    suite
}

/// Builds a spec for `(mode, policy)` on the scaled machine with the
/// given L2 option, labeled the way the paper's figures are.
pub fn spec(mode: LlcMode, policy: PolicyKind, l2: L2Size) -> RunSpec {
    let label = format!("{}-{} {}", mode.label(), policy.label(), l2.label());
    RunSpec::new(label, SystemConfig::scaled_with_l2(l2))
        .with_mode(mode)
        .with_policy(policy)
}

/// The LRU-baseline mode set of Fig 8 (leftmost-to-rightmost bars).
pub fn lru_modes() -> Vec<LlcMode> {
    use ziv_core::ZivProperty::*;
    vec![
        LlcMode::Inclusive,
        LlcMode::NonInclusive,
        LlcMode::Qbs,
        LlcMode::Sharp,
        LlcMode::Ziv(NotInPrC),
        LlcMode::Ziv(LruNotInPrC),
        LlcMode::Ziv(LikelyDead),
    ]
}

/// The Hawkeye-baseline mode set of Fig 11.
pub fn hawkeye_modes() -> Vec<LlcMode> {
    use ziv_core::ZivProperty::*;
    vec![
        LlcMode::Inclusive,
        LlcMode::NonInclusive,
        LlcMode::Qbs,
        LlcMode::Sharp,
        LlcMode::Ziv(MaxRrpvNotInPrC),
        LlcMode::Ziv(MaxRrpvLikelyDead),
    ]
}

/// Results directory for a campaign-backed figure bench:
/// `$ZIV_RESULTS_DIR/<name>`, defaulting to `results/<name>` under the
/// current directory. Reruns of a campaign bench reuse the ledger
/// there, so only cells missing from previous runs are simulated.
pub fn campaign_results_dir(name: &str) -> std::path::PathBuf {
    let base = std::env::var_os("ZIV_RESULTS_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("results"));
    base.join(name)
}

/// Runs a registered campaign with the figure benches' parameters
/// (seed `0x2026`, effort from the environment) through the resumable
/// cached runner, printing live progress to stderr.
///
/// # Panics
///
/// Panics if `name` is not a registered campaign or on results-dir I/O
/// errors.
pub fn run_figure_campaign(name: &str) -> (ziv_harness::Campaign, ziv_harness::CampaignOutcome) {
    use ziv_harness::{campaigns, run_campaign, CampaignParams, RunnerConfig, StderrProgress};
    let params = CampaignParams::from_env();
    let campaign = campaigns::by_name(name, &params)
        .unwrap_or_else(|| panic!("campaign '{name}' is not registered"));
    let cfg = RunnerConfig {
        threads: params.effort.threads,
        resume: true,
        params: Some(params),
        ..RunnerConfig::new(campaign_results_dir(name))
    };
    let outcome = run_campaign(&campaign, &cfg, &StderrProgress)
        .unwrap_or_else(|e| panic!("campaign '{name}' failed: {e}"));
    assert!(
        outcome.failures.is_empty(),
        "campaign '{name}': {} cell(s) failed — see {}/failures/",
        outcome.failures.len(),
        campaign_results_dir(name).display()
    );
    (campaign, outcome)
}

/// Prints the standard figure banner.
pub fn banner(figure: &str, title: &str, expectation: &str) {
    println!("==============================================================");
    println!("{figure}: {title}");
    println!("--------------------------------------------------------------");
    println!("paper-shape expectation: {expectation}");
    println!("==============================================================");
}

/// Prints a timing footer (so `cargo bench` output records run cost).
pub fn footer(started: std::time::Instant, runs: usize) {
    let dt = started.elapsed();
    println!(
        "\n[{} runs in {:.1}s — effort: {:?}]",
        runs,
        dt.as_secs_f64(),
        Effort::from_env()
    );
}

/// Asserts that every grid cell whose spec is a ZIV mode reports zero
/// inclusion victims — the guarantee every figure must uphold.
pub fn assert_ziv_guarantee(grid: &[ziv_sim::GridResult], specs: &[RunSpec]) {
    for cell in grid {
        if specs[cell.spec_index].mode.is_ziv() {
            assert_eq!(
                cell.result.metrics.inclusion_victims, 0,
                "{} on {} generated inclusion victims",
                cell.result.label, cell.result.workload
            );
            assert_eq!(
                cell.result.metrics.ziv_guarantee_fallbacks, 0,
                "{} on {} hit the defensive fallback",
                cell.result.label, cell.result.workload
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_are_nonempty() {
        let effort = Effort {
            accesses_per_core: 100,
            hetero_mixes: 1,
            mt_accesses_per_core: 100,
            tpce_accesses_per_core: 100,
            threads: 1,
        };
        assert!(mp_suite(&effort, 2).len() > 10);
        assert_eq!(mp_suite_small(&effort, 2).len(), 6);
    }

    #[test]
    fn spec_labels_match_figures() {
        let s = spec(LlcMode::Inclusive, PolicyKind::Lru, L2Size::K256);
        assert_eq!(s.label, "I-LRU 256KB");
    }

    #[test]
    fn mode_sets_match_paper() {
        assert_eq!(lru_modes().len(), 7);
        assert_eq!(hawkeye_modes().len(), 6);
    }
}
