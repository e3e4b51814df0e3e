//! Fig 9: per-mix speedup of the ZIV LLC with the LikelyDead property
//! at 512 KB L2 (vs I-LRU), plus the relocation rate the paper quotes
//! (12% of LLC misses on average, max 33%).
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
        "Fig 9",
        "per-mix speedup, ZIV-LikelyDead @ 512KB L2 (LRU baseline)",
        "heterogeneous mixes benefit more than homogeneous ones; a modest \
         fraction of LLC misses requires relocation",
    );
    let effort = Effort::from_env();
    let wls = mp_suite(&effort, 8);
    let specs = vec![
        spec(LlcMode::Inclusive, PolicyKind::Lru, L2Size::K512),
        spec(
            LlcMode::Ziv(ZivProperty::LikelyDead),
            PolicyKind::Lru,
            L2Size::K512,
        ),
    ];
    let grid = run_grid(&specs, &wls, effort.threads);
    assert_ziv_guarantee(&grid, &specs);
    println!(
        "{:<16} {:>8} {:>14} {:>12}",
        "mix", "speedup", "reloc/LLCmiss", "relocations"
    );
    let mut speedups = Vec::new();
    let mut max_rate = 0.0f64;
    for (b, z) in grid.iter().take(wls.len()).zip(grid.iter().skip(wls.len())) {
        let s = z.result.weighted_speedup(&b.result);
        let rate = z.result.metrics.relocation_rate();
        max_rate = max_rate.max(rate);
        speedups.push(s);
        println!(
            "{:<16} {:>8.3} {:>13.1}% {:>12}",
            z.result.workload,
            s,
            100.0 * rate,
            z.result.metrics.relocations
        );
    }
    let summary = ziv_common::stats::Summary::of(&speedups).unwrap();
    println!(
        "\naverage {summary}   max relocation rate {:.1}%",
        100.0 * max_rate
    );
    footer(t0, grid.len());
}
