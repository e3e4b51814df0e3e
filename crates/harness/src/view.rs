//! What a registry entry prints: each [`View`] is one table over the
//! entry's grid, under the paper heading of the figure it reproduces,
//! and every printed grid is checked against the exact-zero guarantees.
//!
//! Every view skips a cell missing from the grid (a failed cell under
//! the fault-isolated runner) instead of panicking.

use crate::Campaign;
use std::collections::HashMap;
use std::fmt::Write as _;
use ziv_common::stats::{Log2Histogram, Summary};
use ziv_core::LlcMode;
use ziv_sim::{normalized_metric, speedup_summary, DirectoryMode, GridResult, RunResult};

/// The paper heading a view prints above its table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Heading {
    /// The figure, table, ablation or extension (`"Fig 8"`).
    pub figure: &'static str,
    /// What the table shows.
    pub title: &'static str,
    /// The shape the paper reports, to read the table against.
    pub expectation: &'static str,
}

impl std::fmt::Display for Heading {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rule = "=".repeat(62);
        writeln!(f, "{rule}")?;
        writeln!(f, "{}: {}", self.figure, self.title)?;
        writeln!(f, "{}", "-".repeat(62))?;
        writeln!(f, "paper-shape expectation: {}", self.expectation)?;
        writeln!(f, "{rule}")
    }
}

/// A per-cell count normalised to the baseline spec's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Inclusion victims.
    InclusionVictims,
    /// Inclusion victims + 1, so zero-victim rows keep a finite ratio
    /// and their spread stays visible.
    InclusionVictimsPlusOne,
    /// LLC misses.
    LlcMisses,
    /// L2 misses, summed over cores.
    L2Misses,
}

impl Metric {
    /// The table's value column header.
    pub fn header(self) -> &'static str {
        match self {
            Metric::InclusionVictims => "incl.victims (norm)",
            Metric::InclusionVictimsPlusOne => "incl.victims+1 (norm)",
            Metric::LlcMisses => "LLC misses (norm)",
            Metric::L2Misses => "L2 misses (norm)",
        }
    }

    fn of(self, r: &RunResult) -> f64 {
        match self {
            Metric::InclusionVictims => r.metrics.inclusion_victims as f64,
            Metric::InclusionVictimsPlusOne => (r.metrics.inclusion_victims + 1) as f64,
            Metric::LlcMisses => r.metrics.llc_misses as f64,
            Metric::L2Misses => r.metrics.total_l2_misses() as f64,
        }
    }
}

/// The kinds of table an entry prints. Every table is over the
/// campaign's grid; "the baseline" is the campaign's baseline spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table {
    /// Weighted-speedup summary of every spec against the baseline,
    /// under the given value header.
    Speedup(&'static str),
    /// A metric normalised to the baseline, summarised per spec.
    Normalized(Metric),
    /// Per-mix weighted speedup of the `design` spec over the
    /// `baseline` spec (both named by label), with the design's
    /// relocation rate and count.
    PerMix {
        /// Label of the spec the speedups are over.
        baseline: &'static str,
        /// Label of the spec whose speedups are shown.
        design: &'static str,
    },
    /// Runtime speedup of every spec over the baseline, one column per
    /// application.
    RuntimeMatrix,
    /// CDF of relocation intervals per spec (log2 cycle buckets),
    /// merged over every workload.
    RelocationCdf,
    /// Relocation EPI and total EPI of every ZIV spec, against the
    /// inclusive spec with the same policy and machine.
    RelocationEnergy,
}

/// One table of an entry, under its paper heading (none for the
/// smoke, security and soak grids, which print a bare table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct View {
    /// Printed above the table.
    pub heading: Option<Heading>,
    /// The table.
    pub table: Table,
}

impl View {
    /// Renders the heading and the table over `grid`, the results of
    /// `campaign`'s cells.
    pub fn render(&self, campaign: &Campaign, grid: &[GridResult]) -> String {
        let mut out = self.heading.map(|h| h.to_string()).unwrap_or_default();
        let specs = campaign.specs.len();
        let base = campaign.baseline_spec;
        match self.table {
            Table::Speedup(header) => {
                out.push_str(&speedup_summary(grid, specs, base).to_table(header));
            }
            Table::Normalized(metric) => {
                let rows = normalized_metric(grid, specs, base, |r| metric.of(r));
                out.push_str(&rows.to_table(metric.header()));
            }
            Table::PerMix { baseline, design } => {
                per_mix(&mut out, campaign, grid, baseline, design)
            }
            Table::RuntimeMatrix => runtime_matrix(&mut out, campaign, grid),
            Table::RelocationCdf => relocation_cdf(&mut out, campaign, grid),
            Table::RelocationEnergy => relocation_energy(&mut out, campaign, grid),
        }
        out
    }
}

/// The results of spec `s`, keyed by workload index.
fn row(grid: &[GridResult], s: usize) -> HashMap<usize, &RunResult> {
    grid.iter()
        .filter(|g| g.spec_index == s)
        .map(|g| (g.workload_index, &g.result))
        .collect()
}

fn cells(grid: &[GridResult], s: usize) -> impl Iterator<Item = &RunResult> {
    grid.iter()
        .filter(move |g| g.spec_index == s)
        .map(|g| &g.result)
}

fn spec_named(campaign: &Campaign, label: &str) -> Option<usize> {
    campaign.specs.iter().position(|s| s.label == label)
}

fn per_mix(
    out: &mut String,
    campaign: &Campaign,
    grid: &[GridResult],
    baseline: &str,
    design: &str,
) {
    let _ = writeln!(
        out,
        "{:<16} {:>8} {:>14} {:>12}",
        "mix", "speedup", "reloc/LLCmiss", "relocations"
    );
    let (Some(b), Some(z)) = (spec_named(campaign, baseline), spec_named(campaign, design)) else {
        return;
    };
    let base = row(grid, b);
    let mut speedups = Vec::new();
    let mut max_rate = 0.0f64;
    for cell in grid.iter().filter(|g| g.spec_index == z) {
        let Some(b) = base.get(&cell.workload_index) else {
            continue;
        };
        let (r, s) = (&cell.result, cell.result.weighted_speedup(b));
        let rate = r.metrics.relocation_rate();
        max_rate = max_rate.max(rate);
        speedups.push(s);
        let _ = writeln!(
            out,
            "{:<16} {:>8.3} {:>13.1}% {:>12}",
            r.workload,
            s,
            100.0 * rate,
            r.metrics.relocations
        );
    }
    if let Some(summary) = Summary::of(&speedups) {
        let _ = writeln!(
            out,
            "\naverage {summary}   max relocation rate {:.1}%",
            100.0 * max_rate
        );
    }
}

fn runtime_matrix(out: &mut String, campaign: &Campaign, grid: &[GridResult]) {
    let names: String = campaign
        .recipes
        .iter()
        .map(|r| format!("{:>10}", r.workload_name()))
        .collect();
    let _ = writeln!(out, "{:<18} {names}", "config");
    let base = row(grid, campaign.baseline_spec);
    for (s, spec) in campaign.specs.iter().enumerate() {
        let results = row(grid, s);
        let _ = write!(out, "{:<18}", spec.label);
        for w in 0..campaign.recipes.len() {
            let _ = match (results.get(&w), base.get(&w)) {
                (Some(r), Some(b)) => write!(out, "{:>10.3}", r.runtime_speedup(b)),
                _ => write!(out, "{:>10}", "-"),
            };
        }
        out.push('\n');
    }
}

fn relocation_cdf(out: &mut String, campaign: &Campaign, grid: &[GridResult]) {
    let mut hists = vec![Log2Histogram::new(); campaign.specs.len()];
    for cell in grid {
        hists[cell.spec_index].merge(&cell.result.metrics.relocation_intervals);
    }
    let _ = write!(out, "{:<14}", "log2(cycles)");
    for spec in &campaign.specs {
        let column = match spec.mode {
            LlcMode::Ziv(p) => p.label().to_string(),
            other => other.label(),
        };
        let _ = write!(out, " {column:>16}");
    }
    out.push('\n');
    let max_bucket = hists
        .iter()
        .filter_map(|h| h.max_bucket())
        .max()
        .unwrap_or(0);
    for b in 0..=max_bucket {
        let _ = write!(out, "{b:<14}");
        for h in &hists {
            let _ = write!(out, " {:>16.4}", h.cdf_at(b));
        }
        out.push('\n');
    }
    for (h, spec) in hists.iter().zip(&campaign.specs) {
        let _ = writeln!(
            out,
            "{:<40} intervals<32cyc: {:.2}%  total relocations observed: {}",
            spec.label,
            100.0 * h.fraction_below_pow2(5),
            h.total()
        );
    }
}

/// The mean of `f` over spec `s`'s cells, `None` when it has none.
fn mean_over(grid: &[GridResult], s: usize, f: impl Fn(&RunResult) -> f64) -> Option<f64> {
    let n = cells(grid, s).count();
    (n > 0).then(|| cells(grid, s).map(f).sum::<f64>() / n as f64)
}

fn relocation_energy(out: &mut String, campaign: &Campaign, grid: &[GridResult]) {
    let _ = writeln!(
        out,
        "{:<34} {:>14} {:>14} {:>14}",
        "config", "reloc EPI (pJ)", "total EPI (pJ)", "dEPI vs I"
    );
    let specs = &campaign.specs;
    for (s, spec) in specs.iter().enumerate().filter(|(_, sp)| sp.mode.is_ziv()) {
        // The savings are against the inclusive LLC at the same L2
        // point under the same policy.
        let inclusive = specs.iter().position(|b| {
            b.mode == LlcMode::Inclusive && b.policy == spec.policy && b.system == spec.system
        });
        let total = |r: &RunResult| r.metrics.total_epi_pj();
        let (Some(reloc_epi), Some(total_epi), Some(base_epi)) = (
            mean_over(grid, s, |r| r.metrics.relocation_epi_pj()),
            mean_over(grid, s, total),
            inclusive.and_then(|b| mean_over(grid, b, total)),
        ) else {
            continue;
        };
        let _ = writeln!(
            out,
            "{:<34} {:>14.2} {:>14.1} {:>+14.1}",
            spec.label,
            reloc_epi,
            total_epi,
            total_epi - base_epi
        );
    }
}

/// Every exact-zero guarantee a cell of `grid` breaks, one line per
/// broken guarantee naming the cell:
///
/// - a ZIV cell has no inclusion victim and never takes the defensive
///   fallback;
/// - a non-inclusive cell has no inclusion victim;
/// - a ZeroDEV cell has no directory back-invalidation.
pub(crate) fn guarantee_violations(campaign: &Campaign, grid: &[GridResult]) -> Vec<String> {
    let mut broken = Vec::new();
    for cell in grid {
        let spec = &campaign.specs[cell.spec_index];
        let m = &cell.result.metrics;
        let mut check = |what: &str, count: u64| {
            if count != 0 {
                broken.push(format!(
                    "{} × {}: {count} {what}",
                    spec.label, cell.result.workload
                ));
            }
        };
        if spec.mode.is_ziv() {
            check("inclusion victim(s) in a ZIV cell", m.inclusion_victims);
            check("ZIV guarantee fallback(s)", m.ziv_guarantee_fallbacks);
        }
        if spec.mode == LlcMode::NonInclusive {
            check(
                "inclusion victim(s) in a non-inclusive cell",
                m.inclusion_victims,
            );
        }
        if spec.dir_mode == DirectoryMode::ZeroDev {
            check(
                "directory back-invalidation(s) under ZeroDEV",
                m.directory_back_invalidations,
            );
        }
    }
    broken
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{campaigns, CampaignParams};

    /// The smoke campaign at tiny size (I-LRU and ZIV-LikelyDead over
    /// two homogeneous mixes), with every cell run.
    fn smoke() -> (Campaign, Vec<GridResult>) {
        let campaign = campaigns::by_name("smoke", &CampaignParams::tiny()).unwrap();
        let workloads: Vec<_> = campaign.recipes.iter().map(|r| r.build()).collect();
        let grid = campaign
            .cells()
            .into_iter()
            .map(|(s, w)| GridResult {
                spec_index: s,
                workload_index: w,
                result: ziv_sim::run_one(&campaign.specs[s], &workloads[w]),
            })
            .collect();
        (campaign, grid)
    }

    #[test]
    fn guarantees_name_each_broken_cell() {
        let (mut campaign, mut grid) = smoke();
        assert!(guarantee_violations(&campaign, &grid).is_empty());
        // Cell (1, 0) is ZIV-LikelyDead on homo-circset.
        grid[2].result.metrics.inclusion_victims = 3;
        grid[2].result.metrics.ziv_guarantee_fallbacks = 1;
        // An inclusive cell may take inclusion victims.
        grid[0].result.metrics.inclusion_victims = 5;
        let broken = guarantee_violations(&campaign, &grid);
        assert_eq!(
            broken,
            [
                "ZIV-LikelyDead-LRU 256KB × homo-circset: 3 inclusion victim(s) in a ZIV cell",
                "ZIV-LikelyDead-LRU 256KB × homo-circset: 1 ZIV guarantee fallback(s)",
            ]
        );
        // The same counts break the non-inclusive and ZeroDEV rules.
        campaign.specs[0].mode = LlcMode::NonInclusive;
        campaign.specs[0].dir_mode = DirectoryMode::ZeroDev;
        grid[1].result.metrics.directory_back_invalidations = 2;
        let broken = guarantee_violations(&campaign, &grid);
        assert_eq!(broken.len(), 4, "{broken:?}");
        assert!(broken[0].ends_with("5 inclusion victim(s) in a non-inclusive cell"));
        assert!(broken[1].ends_with("2 directory back-invalidation(s) under ZeroDEV"));
        let entry = campaigns::entry("smoke").unwrap();
        let err = entry
            .report(&campaign, &grid, &mut String::new())
            .unwrap_err();
        assert!(err.contains("4 exact-zero guarantee(s) broken"), "{err}");
    }

    #[test]
    fn every_table_skips_a_missing_cell() {
        let (campaign, mut grid) = smoke();
        // Drop ZIV-LikelyDead on homo-hotl2, as a failed cell would be.
        grid.remove(3);
        let render = |table| {
            View {
                heading: None,
                table,
            }
            .render(&campaign, &grid)
        };
        let per_mix = render(Table::PerMix {
            baseline: "I-LRU 256KB",
            design: "ZIV-LikelyDead-LRU 256KB",
        });
        assert!(per_mix.contains("homo-circset"));
        assert!(!per_mix.contains("homo-hotl2"));
        assert!(per_mix.contains("(n=1)"), "{per_mix}");
        let matrix = render(Table::RuntimeMatrix);
        let ziv_row = matrix.lines().last().unwrap();
        assert!(ziv_row.ends_with("         -"), "{matrix}");
        for table in [
            Table::Speedup("speedup"),
            Table::Normalized(Metric::L2Misses),
            Table::RelocationCdf,
            Table::RelocationEnergy,
        ] {
            assert!(
                render(table).contains("ZIV-LikelyDead-LRU 256KB"),
                "{table:?}"
            );
        }
    }

    #[test]
    fn headings_print_the_figure_banner() {
        let heading = Heading {
            figure: "Fig 2",
            title: "normalized inclusion-victim counts",
            expectation: "MIN > LRU",
        };
        let banner = heading.to_string();
        let lines: Vec<&str> = banner.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[1], "Fig 2: normalized inclusion-victim counts");
        assert_eq!(lines[3], "paper-shape expectation: MIN > LRU");
    }
}
