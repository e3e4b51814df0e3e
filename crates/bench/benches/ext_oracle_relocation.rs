//! Extension: the paper's Section VI names as future work computing
//! "the optimal relocation victim from among the LLC blocks that are
//! not resident in the private caches". Pairing the ZIV design with the
//! offline MIN oracle realizes exactly that: the relocation-set victim
//! search scans MIN's eviction keys, so the NotInPrC block it picks is
//! the not-privately-cached block with the furthest reuse.
use std::time::Instant;
use ziv_bench::{assert_ziv_guarantee, banner, footer, mp_suite, spec};
use ziv_common::config::L2Size;
use ziv_core::{LlcMode, ZivProperty};
use ziv_harness::run_grid;
use ziv_replacement::PolicyKind;
use ziv_sim::{speedup_summary, Effort};

fn main() {
    let t0 = Instant::now();
    banner(
        "Extension: oracle relocation victims",
        "ZIV + MIN oracle vs the practical ZIV properties @ 512KB (Section VI)",
        "the oracle bounds how much better relocation-victim selection \
         could get; the LikelyDead heuristic should close part of the gap \
         from plain NotInPrC",
    );
    let effort = Effort::from_env();
    let wls = mp_suite(&effort, 8);
    let specs = vec![
        spec(LlcMode::Inclusive, PolicyKind::Lru, L2Size::K512),
        spec(LlcMode::NonInclusive, PolicyKind::Lru, L2Size::K512),
        spec(
            LlcMode::Ziv(ZivProperty::NotInPrC),
            PolicyKind::Lru,
            L2Size::K512,
        ),
        spec(
            LlcMode::Ziv(ZivProperty::LikelyDead),
            PolicyKind::Lru,
            L2Size::K512,
        ),
        // The oracle: baseline MIN + NotInPrC relocation = optimal
        // victims both in the home set and in relocation sets.
        spec(
            LlcMode::Ziv(ZivProperty::NotInPrC),
            PolicyKind::Min,
            L2Size::K512,
        ),
        spec(LlcMode::Inclusive, PolicyKind::Min, L2Size::K512),
    ];
    let grid = run_grid(&specs, &wls, effort.threads);
    assert_ziv_guarantee(&grid, &specs);
    let rows = speedup_summary(&grid, specs.len(), 0);
    println!("{}", rows.to_table("speedup vs I-LRU 512KB"));
    footer(t0, grid.len());
}
