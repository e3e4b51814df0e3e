//! Fig 13: normalized LLC misses (upper panel) and L2 misses (lower
//! panel) for the Fig 11 configurations (Hawkeye baseline).
use std::time::Instant;
use ziv_bench::{banner, footer, hawkeye_modes, mp_suite, spec};
use ziv_common::config::L2Size;
use ziv_harness::run_grid;
use ziv_replacement::PolicyKind;
use ziv_sim::{normalized_metric, Effort};

fn main() {
    let t0 = Instant::now();
    banner(
        "Fig 13",
        "normalized LLC and L2 misses, Hawkeye baseline",
        "LLC-miss trends follow the Fig 11 performance trends; the L2 \
         panel matches the LRU case",
    );
    let effort = Effort::from_env();
    let wls = mp_suite(&effort, 8);
    let mut specs = vec![spec(
        ziv_core::LlcMode::Inclusive,
        PolicyKind::Lru,
        L2Size::K256,
    )];
    for l2 in L2Size::TABLE1 {
        for mode in hawkeye_modes() {
            specs.push(spec(mode, PolicyKind::Hawkeye, l2));
        }
    }
    let grid = run_grid(&specs, &wls, effort.threads);
    println!("--- upper panel: LLC misses (normalized to I-LRU 256KB) ---");
    let rows = normalized_metric(&grid, specs.len(), 0, |r| r.metrics.llc_misses as f64);
    println!("{}", rows.to_table("LLC misses (norm)"));
    println!("--- lower panel: L2 misses (normalized to I-LRU 256KB) ---");
    let rows = normalized_metric(&grid, specs.len(), 0, |r| {
        r.metrics.total_l2_misses() as f64
    });
    println!("{}", rows.to_table("L2 misses (norm)"));
    footer(t0, grid.len());
}
