//! Fig 12: per-mix speedup of the ZIV LLC with the MRLikelyDead
//! property at 512 KB L2 (Hawkeye baseline), normalized to I-LRU-256KB
//! equivalents (here: I-Hawkeye-512KB as the co-baseline column).
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
        "Fig 12",
        "per-mix speedup, ZIV-MRLikelyDead @ 512KB L2 (Hawkeye baseline)",
        "broad gains over the inclusive Hawkeye baseline; heterogeneous \
         mixes benefit most",
    );
    let effort = Effort::from_env();
    let wls = mp_suite(&effort, 8);
    let specs = vec![
        spec(LlcMode::Inclusive, PolicyKind::Hawkeye, L2Size::K512),
        spec(
            LlcMode::Ziv(ZivProperty::MaxRrpvLikelyDead),
            PolicyKind::Hawkeye,
            L2Size::K512,
        ),
    ];
    let grid = run_grid(&specs, &wls, effort.threads);
    assert_ziv_guarantee(&grid, &specs);
    println!("{:<16} {:>8} {:>12}", "mix", "speedup", "relocations");
    let mut speedups = Vec::new();
    for (b, z) in grid.iter().take(wls.len()).zip(grid.iter().skip(wls.len())) {
        let s = z.result.weighted_speedup(&b.result);
        speedups.push(s);
        println!(
            "{:<16} {:>8.3} {:>12}",
            z.result.workload, s, z.result.metrics.relocations
        );
    }
    println!(
        "\naverage {}",
        ziv_common::stats::Summary::of(&speedups).unwrap()
    );
    footer(t0, grid.len());
}
