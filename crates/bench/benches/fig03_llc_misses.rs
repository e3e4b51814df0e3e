//! Fig 3: normalized LLC miss counts for inclusive and non-inclusive
//! LLCs under LRU and Hawkeye across L2 capacities.
use std::time::Instant;
use ziv_bench::{banner, footer, mp_suite, spec};
use ziv_common::config::L2Size;
use ziv_core::LlcMode;
use ziv_harness::run_grid;
use ziv_replacement::PolicyKind;
use ziv_sim::{normalized_metric, Effort};

fn main() {
    let t0 = Instant::now();
    banner(
        "Fig 3",
        "normalized LLC miss counts (I/NI x LRU/Hawkeye x L2 capacity)",
        "NI misses decrease slightly with L2 capacity; inclusive Hawkeye \
         loses its advantage to inclusion victims",
    );
    let effort = Effort::from_env();
    let wls = mp_suite(&effort, 8);
    let mut specs = Vec::new();
    for policy in [PolicyKind::Lru, PolicyKind::Hawkeye] {
        for l2 in L2Size::TABLE1 {
            for mode in [LlcMode::Inclusive, LlcMode::NonInclusive] {
                specs.push(spec(mode, policy, l2));
            }
        }
    }
    let grid = run_grid(&specs, &wls, effort.threads);
    let rows = normalized_metric(&grid, specs.len(), 0, |r| r.metrics.llc_misses as f64);
    println!("{}", rows.to_table("LLC misses (norm)"));
    footer(t0, grid.len());
}
