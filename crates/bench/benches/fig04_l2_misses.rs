//! Fig 4: normalized L2 miss counts. For a non-inclusive LLC the L2
//! miss count is independent of the LLC policy; inclusive LLCs inflate
//! it through inclusion victims.
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
        "Fig 4",
        "normalized L2 miss counts (I/NI x LRU/Hawkeye x L2 capacity)",
        "NI-LRU == NI-Hawkeye (policy-independent); I variants are higher, \
         tracking inclusion-victim volume; misses drop as L2 grows",
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
    let rows = normalized_metric(&grid, specs.len(), 0, |r| {
        r.metrics.total_l2_misses() as f64
    });
    println!("{}", rows.to_table("L2 misses (norm)"));
    footer(t0, grid.len());
}
