//! Every campaign registry entry, end to end at a small size: each one
//! builds, runs through `run_campaign` without a failed cell, holds the
//! exact-zero guarantees (every ZIV cell and every non-inclusive cell
//! has no inclusion victim, no ZIV cell takes the defensive fallback,
//! and no ZeroDEV cell back-invalidates from the directory), and prints
//! one row per spec or mix each of its views names.

use ziv::harness::{
    campaigns, run_campaign, Campaign, CampaignParams, NullSink, RunnerConfig, Table, View,
};
use ziv::prelude::*;

/// The figure entries hold about 2,000 cells between them, so they run
/// at 120 accesses per core, small enough for seconds in a debug build
/// (their LLCs never fill at that size). An attack co-schedule needs
/// about 2,000 accesses per core before its eviction sets evict, so the
/// other grids (31 cells) run there; the soak grid sizes itself up to
/// at least 4 cores and 2,500 accesses per core.
fn params(figure: bool) -> CampaignParams {
    CampaignParams {
        seed: 0x2026,
        effort: Effort {
            accesses_per_core: if figure { 120 } else { 2_000 },
            hetero_mixes: 1,
            mt_accesses_per_core: 120,
            tpce_accesses_per_core: 8,
            threads: 2,
        },
        cores: 2,
    }
}

/// The row keys a view must print exactly once: spec labels, ZIV spec
/// labels for the energy table, mix names for the per-mix table.
fn row_keys(view: &View, campaign: &Campaign) -> Vec<String> {
    let labels = |ziv_only: bool| {
        campaign
            .specs
            .iter()
            .filter(|s| !ziv_only || s.mode.is_ziv())
            .map(|s| s.label.clone())
            .collect()
    };
    match view.table {
        Table::Speedup(_) | Table::Normalized(_) | Table::RuntimeMatrix => labels(false),
        Table::RelocationCdf => labels(false),
        Table::RelocationEnergy => labels(true),
        Table::PerMix { baseline, design } => {
            for label in [baseline, design] {
                assert!(
                    campaign.specs.iter().any(|s| s.label == label),
                    "{}: no spec labelled {label}",
                    campaign.name
                );
            }
            campaign.recipes.iter().map(|r| r.workload_name()).collect()
        }
    }
}

#[test]
fn every_entry_runs_holds_its_guarantees_and_prints_every_row() {
    let root = std::env::temp_dir().join(format!("ziv-registry-{}", std::process::id()));
    let (mut inclusive_victims, mut ziv_relocations) = (0, 0);
    for entry in campaigns::ENTRIES {
        let campaign = entry.build(&params(entry.is_figure()));
        let cfg = RunnerConfig {
            threads: 2,
            ..RunnerConfig::new(root.join(entry.name))
        };
        let outcome = run_campaign(&campaign, &cfg, &NullSink).expect("results dir is writable");
        assert!(
            outcome.failures.is_empty(),
            "{}: {} cell(s) failed",
            entry.name,
            outcome.failures.len()
        );
        assert_eq!(outcome.grid.len(), campaign.total_cells(), "{}", entry.name);
        let mut text = String::new();
        entry
            .report(&campaign, &outcome.grid, &mut text)
            .unwrap_or_else(|broken| panic!("{broken}"));
        for view in entry.views {
            let rendered = view.render(&campaign, &outcome.grid);
            assert!(
                text.contains(&rendered),
                "{}: report omits a view",
                entry.name
            );
            for key in row_keys(view, &campaign) {
                let rows = rendered
                    .lines()
                    .filter(|l| {
                        l.strip_prefix(key.as_str())
                            .is_some_and(|r| r.starts_with(' '))
                    })
                    .count();
                assert_eq!(
                    rows, 1,
                    "{}: {:?} prints {rows} rows for {key}",
                    entry.name, view.table
                );
            }
        }
        for cell in &outcome.grid {
            let mode = campaign.specs[cell.spec_index].mode;
            let m = &cell.result.metrics;
            if mode == LlcMode::Inclusive {
                inclusive_victims += m.inclusion_victims;
            }
            if mode.is_ziv() {
                ziv_relocations += m.relocations;
            }
        }
    }
    std::fs::remove_dir_all(&root).ok();
    // Not vacuous: the guarantees held on grids where inclusion victims
    // happen and ZIV relocates instead.
    assert!(
        inclusive_victims > 0,
        "no inclusive cell took an inclusion victim"
    );
    assert!(ziv_relocations > 0, "no ZIV cell relocated");
}
