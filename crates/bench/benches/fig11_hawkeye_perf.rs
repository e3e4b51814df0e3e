//! Fig 11: multiprogrammed performance with Hawkeye as the baseline LLC
//! policy — I, NI, QBS, SHARP, ZIV-MRNotInPrC, ZIV-MRLikelyDead per L2
//! capacity, normalized to I-LRU-256KB.
use std::time::Instant;
use ziv_bench::{assert_ziv_guarantee, banner, footer, hawkeye_modes, mp_suite, spec};
use ziv_common::config::L2Size;
use ziv_harness::run_grid;
use ziv_replacement::PolicyKind;
use ziv_sim::{speedup_summary, Effort};

fn main() {
    let t0 = Instant::now();
    banner(
        "Fig 11",
        "multiprogrammed performance, Hawkeye baseline",
        "MRLikelyDead best of the inclusive designs, close to NI at \
         256/512KB but never beating it (unlike the LRU case); \
         I-Hawkeye crippled by inclusion victims",
    );
    let effort = Effort::from_env();
    let wls = mp_suite(&effort, 8);
    // The normalization baseline is I-LRU 256KB (spec 0), as in every
    // paper figure.
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
    assert_ziv_guarantee(&grid, &specs);
    let rows = speedup_summary(&grid, specs.len(), 0);
    println!("{}", rows.to_table("speedup"));
    footer(t0, grid.len());
}
