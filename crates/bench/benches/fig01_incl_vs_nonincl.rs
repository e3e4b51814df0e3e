//! Fig 1: performance of inclusive vs non-inclusive LLCs under LRU and
//! Hawkeye across the three Table I L2 capacities, normalized to
//! I-LRU-256KB.
use std::time::Instant;
use ziv_bench::{banner, footer, mp_suite, spec};
use ziv_common::config::L2Size;
use ziv_core::LlcMode;
use ziv_harness::run_grid;
use ziv_replacement::PolicyKind;
use ziv_sim::{speedup_summary, Effort};

fn main() {
    let t0 = Instant::now();
    banner(
        "Fig 1",
        "inclusive (I) vs non-inclusive (NI) x {LRU, Hawkeye} x L2 capacity",
        "NI > I at every point; the gap grows with Hawkeye and with L2 size; \
         I degrades slowly as L2 grows while NI improves",
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
    let rows = speedup_summary(&grid, specs.len(), 0);
    println!("{}", rows.to_table("speedup"));
    footer(t0, grid.len());
}
