//! Aggregation helpers turning grid results into the paper's figure
//! rows: geomean speedups with ranges, and baseline-normalized metric
//! series.

use crate::driver::RunResult;
use crate::spec::GridResult;
use std::collections::HashMap;
use ziv_common::stats::Summary;

/// Per-spec normalized rows: one summary per configuration, normalized
/// against a chosen baseline configuration, aggregated across workloads.
#[derive(Debug, Clone)]
pub struct NormalizedRows {
    /// `(label, summary)` per configuration, in spec order.
    pub rows: Vec<(String, Summary)>,
}

impl NormalizedRows {
    /// Renders the rows as an aligned table.
    pub fn to_table(&self, value_header: &str) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(label, s)| {
                vec![
                    label.clone(),
                    format!("{:.3}", s.gmean),
                    format!("{:.3}", s.min),
                    format!("{:.3}", s.max),
                ]
            })
            .collect();
        ziv_common::stats::render_table(&["config", value_header, "min", "max"], &rows)
    }
}

/// Baseline results keyed by workload index. A sparse map (rather than
/// a parallel vector) keeps the aggregators correct on grids with
/// holes: a failed cell under the fault-isolated campaign runner is
/// simply absent, and every pairing below skips workloads missing from
/// either side.
fn baseline_by_workload(grid: &[GridResult], spec: usize) -> HashMap<usize, &RunResult> {
    grid.iter()
        .filter(|g| g.spec_index == spec)
        .map(|g| (g.workload_index, &g.result))
        .collect()
}

/// Computes weighted-speedup summaries of every spec against the
/// baseline spec (paper figures normalize to `I-LRU` at 256 KB).
///
/// Cells are paired by workload index; a workload missing from either a
/// spec's row or the baseline row (a failed cell) is skipped for that
/// pairing. A spec with no comparable cells gets an all-zero summary.
pub fn speedup_summary(
    grid: &[GridResult],
    spec_count: usize,
    baseline_spec: usize,
) -> NormalizedRows {
    let base = baseline_by_workload(grid, baseline_spec);
    let mut rows = Vec::with_capacity(spec_count);
    for s in 0..spec_count {
        let speedups: Vec<f64> = grid
            .iter()
            .filter(|g| g.spec_index == s)
            .filter_map(|g| base.get(&g.workload_index).map(|b| (&g.result, *b)))
            .map(|(r, b)| {
                debug_assert_eq!(r.workload, b.workload);
                r.weighted_speedup(b)
            })
            .collect();
        let label = grid
            .iter()
            .find(|g| g.spec_index == s)
            .map(|g| g.result.label.clone())
            .unwrap_or_default();
        let summary = Summary::of(&speedups).unwrap_or(Summary {
            gmean: 0.0,
            min: 0.0,
            max: 0.0,
            count: 0,
        });
        rows.push((label, summary));
    }
    NormalizedRows { rows }
}

/// Computes baseline-normalized summaries of an arbitrary metric (LLC
/// misses, L2 misses, inclusion victims...). Workloads where the
/// baseline metric is zero are skipped for that ratio (and counted in
/// the summary's `count`ed denominator only when valid), as are
/// workloads missing from either side (failed cells).
pub fn normalized_metric(
    grid: &[GridResult],
    spec_count: usize,
    baseline_spec: usize,
    metric: impl Fn(&RunResult) -> f64,
) -> NormalizedRows {
    let base = baseline_by_workload(grid, baseline_spec);
    let mut rows = Vec::with_capacity(spec_count);
    for s in 0..spec_count {
        let ratios: Vec<f64> = grid
            .iter()
            .filter(|g| g.spec_index == s)
            .filter_map(|g| base.get(&g.workload_index).map(|b| (&g.result, *b)))
            .filter_map(|(r, b)| {
                let denom = metric(b);
                if denom > 0.0 {
                    // Clamp to a tiny positive value so all-zero
                    // numerators (e.g. ZIV inclusion victims) survive
                    // the geometric mean.
                    Some((metric(r) / denom).max(1e-6))
                } else {
                    None
                }
            })
            .collect();
        let label = grid
            .iter()
            .find(|g| g.spec_index == s)
            .map(|g| g.result.label.clone())
            .unwrap_or_default();
        let summary = Summary::of(&ratios).unwrap_or(Summary {
            gmean: 0.0,
            min: 0.0,
            max: 0.0,
            count: 0,
        });
        rows.push((label, summary));
    }
    NormalizedRows { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_one;
    use crate::spec::RunSpec;
    use ziv_common::config::SystemConfig;
    use ziv_core::LlcMode;
    use ziv_workloads::{apps, mixes, ScaleParams};

    fn grid() -> (Vec<GridResult>, usize) {
        let sys = SystemConfig::scaled();
        let sc = ScaleParams::from_system(&sys);
        let wls = [
            mixes::homogeneous(apps::app_by_name("circset").unwrap(), 2, 2_000, 1, sc),
            mixes::homogeneous(apps::app_by_name("hotl2").unwrap(), 2, 2_000, 1, sc),
        ];
        let specs = [
            RunSpec::new("I-LRU", sys.clone()),
            RunSpec::new("NI-LRU", sys).with_mode(LlcMode::NonInclusive),
        ];
        let mut grid = Vec::new();
        for (spec_index, spec) in specs.iter().enumerate() {
            for (workload_index, wl) in wls.iter().enumerate() {
                let result = run_one(spec, wl);
                grid.push(GridResult {
                    spec_index,
                    workload_index,
                    result,
                });
            }
        }
        (grid, specs.len())
    }

    #[test]
    fn baseline_speedup_is_one() {
        let (g, n) = grid();
        let rows = speedup_summary(&g, n, 0);
        assert_eq!(rows.rows.len(), 2);
        assert!((rows.rows[0].1.gmean - 1.0).abs() < 1e-9);
        assert_eq!(rows.rows[0].0, "I-LRU");
    }

    #[test]
    fn normalized_metric_baseline_is_one() {
        let (g, n) = grid();
        let rows = normalized_metric(&g, n, 0, |r| r.metrics.llc_misses as f64);
        assert!((rows.rows[0].1.gmean - 1.0).abs() < 1e-9);
        assert!(rows.rows[1].1.gmean > 0.0);
    }

    #[test]
    fn table_renders() {
        let (g, n) = grid();
        let rows = speedup_summary(&g, n, 0);
        let t = rows.to_table("speedup");
        assert!(t.contains("I-LRU"));
        assert!(t.contains("speedup"));
    }
}
