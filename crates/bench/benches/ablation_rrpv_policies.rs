//! Extension ablation: the paper notes (Section III-D5) that the
//! `MaxRRPVNotInPrC` property "can also be used with other LLC
//! replacement policies that employ RRPVs to grade the blocks in a set"
//! [19], [59]. This bench runs the ZIV design over the whole RRPV
//! family: SRRIP, DRRIP, SHiP, and Hawkeye.
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
        "Ablation: RRPV policy family",
        "ZIV-MaxRRPVNotInPrC over SRRIP / DRRIP / SHiP / Hawkeye @ 512KB",
        "the ZIV guarantee and mechanism are policy-agnostic; better \
         baselines carry their advantage into the ZIV design",
    );
    let effort = Effort::from_env();
    let wls = mp_suite(&effort, 8);
    let mut specs = vec![spec(LlcMode::Inclusive, PolicyKind::Lru, L2Size::K512)];
    for policy in [
        PolicyKind::Srrip,
        PolicyKind::Drrip,
        PolicyKind::Ship,
        PolicyKind::Hawkeye,
    ] {
        specs.push(spec(LlcMode::Inclusive, policy, L2Size::K512));
        specs.push(spec(
            LlcMode::Ziv(ZivProperty::MaxRrpvNotInPrC),
            policy,
            L2Size::K512,
        ));
    }
    let grid = run_grid(&specs, &wls, effort.threads);
    assert_ziv_guarantee(&grid, &specs);
    let rows = speedup_summary(&grid, specs.len(), 0);
    println!("{}", rows.to_table("speedup vs I-LRU 512KB"));
    footer(t0, grid.len());
}
