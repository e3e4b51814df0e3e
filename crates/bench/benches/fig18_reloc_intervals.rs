//! Fig 18: cumulative distribution of relocation intervals (in CPU
//! cycles, log2 x-axis) for three ZIV designs at 512 KB L2:
//! LikelyDead (LRU), MRNotInPrC (Hawkeye), MRLikelyDead (Hawkeye).
use std::time::Instant;
use ziv_bench::{assert_ziv_guarantee, banner, footer, mp_suite, spec};
use ziv_common::config::L2Size;
use ziv_core::{LlcMode, ZivProperty};
use ziv_harness::run_grid;
use ziv_replacement::PolicyKind;
use ziv_sim::Effort;

fn main() {
    let t0 = Instant::now();
    banner(
        "Fig 18",
        "CDF of relocation intervals (512KB L2)",
        "a vanishing fraction of intervals is under 5 cycles (the nextRS \
         logic latency of 3 cycles is covered); the Hawkeye-side designs \
         have a knee far to the left of LikelyDead (more frequent \
         relocations)",
    );
    let effort = Effort::from_env();
    let wls = mp_suite(&effort, 8);
    let specs = vec![
        spec(
            LlcMode::Ziv(ZivProperty::LikelyDead),
            PolicyKind::Lru,
            L2Size::K512,
        ),
        spec(
            LlcMode::Ziv(ZivProperty::MaxRrpvNotInPrC),
            PolicyKind::Hawkeye,
            L2Size::K512,
        ),
        spec(
            LlcMode::Ziv(ZivProperty::MaxRrpvLikelyDead),
            PolicyKind::Hawkeye,
            L2Size::K512,
        ),
    ];
    let grid = run_grid(&specs, &wls, effort.threads);
    assert_ziv_guarantee(&grid, &specs);

    // Merge histograms per spec across workloads.
    let mut hists = vec![ziv_common::stats::Log2Histogram::new(); specs.len()];
    for cell in &grid {
        hists[cell.spec_index].merge(&cell.result.metrics.relocation_intervals);
    }
    println!(
        "{:<14} {:>16} {:>16} {:>16}",
        "log2(cycles)", "LikelyDead", "MRNotInPrC", "MRLikelyDead"
    );
    let max_bucket = hists
        .iter()
        .filter_map(|h| h.max_bucket())
        .max()
        .unwrap_or(0);
    for b in 0..=max_bucket {
        println!(
            "{:<14} {:>16.4} {:>16.4} {:>16.4}",
            b,
            hists[0].cdf_at(b),
            hists[1].cdf_at(b),
            hists[2].cdf_at(b)
        );
    }
    for (h, s) in hists.iter().zip(&specs) {
        println!(
            "{:<40} intervals<32cyc: {:.2}%  total relocations observed: {}",
            s.label,
            100.0 * h.fraction_below_pow2(5),
            h.total()
        );
    }
    footer(t0, grid.len());
}
