//! Fig 10: normalized LLC misses (upper panel) and L2 misses (lower
//! panel) for the Fig 8 configurations (LRU baseline).
use std::time::Instant;
use ziv_bench::{banner, footer, lru_modes, mp_suite, spec};
use ziv_common::config::L2Size;
use ziv_harness::run_grid;
use ziv_replacement::PolicyKind;
use ziv_sim::{normalized_metric, Effort};

fn main() {
    let t0 = Instant::now();
    banner(
        "Fig 10",
        "normalized LLC and L2 misses, LRU baseline",
        "QBS/SHARP/ZIV save nearly the same L2 misses as NI; \
         ZIV-LikelyDead saves the most LLC misses",
    );
    let effort = Effort::from_env();
    let wls = mp_suite(&effort, 8);
    let mut specs = Vec::new();
    for l2 in L2Size::TABLE1 {
        for mode in lru_modes() {
            specs.push(spec(mode, PolicyKind::Lru, l2));
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
