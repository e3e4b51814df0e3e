//! Ablation: relocation-set property quality at 512 KB L2 — the
//! DESIGN.md-flagged design choice the paper calls "the primary
//! performance determinant of the ZIV LLC design" (Section III-G).
//! Every variant is inclusion-victim-free; only victim quality differs.
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
        "Ablation: ZIV properties",
        "all five relocation-set properties @ 512KB L2",
        "richer properties (LikelyDead / MRLikelyDead) beat plain NotInPrC; \
         graded properties sit in between",
    );
    let effort = Effort::from_env();
    let wls = mp_suite(&effort, 8);
    let mut specs = vec![spec(LlcMode::Inclusive, PolicyKind::Lru, L2Size::K512)];
    for p in [
        ZivProperty::NotInPrC,
        ZivProperty::LruNotInPrC,
        ZivProperty::LikelyDead,
    ] {
        specs.push(spec(LlcMode::Ziv(p), PolicyKind::Lru, L2Size::K512));
    }
    // The same NotInPrC/LikelyDead properties under Hawkeye, plus the
    // RRPV-graded ones.
    for p in [
        ZivProperty::NotInPrC,
        ZivProperty::LikelyDead,
        ZivProperty::MaxRrpvNotInPrC,
        ZivProperty::MaxRrpvLikelyDead,
    ] {
        specs.push(spec(LlcMode::Ziv(p), PolicyKind::Hawkeye, L2Size::K512));
    }
    let grid = run_grid(&specs, &wls, effort.threads);
    assert_ziv_guarantee(&grid, &specs);
    let rows = speedup_summary(&grid, specs.len(), 0);
    println!("{}", rows.to_table("speedup vs I-LRU 512KB"));
    footer(t0, grid.len());
}
