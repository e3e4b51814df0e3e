//! Ablation: CHAR's dead-block threshold. The paper adapts d (tau =
//! 1/2^d) dynamically, decrementing on relocation demand and resetting
//! periodically; this ablation pins d to static values.
use std::time::Instant;
use ziv_bench::{assert_ziv_guarantee, banner, footer, mp_suite, spec};
use ziv_char::CharConfig;
use ziv_common::config::L2Size;
use ziv_core::{LlcMode, ZivProperty};
use ziv_harness::run_grid;
use ziv_replacement::PolicyKind;
use ziv_sim::{speedup_summary, Effort};

fn static_d(d: u8) -> CharConfig {
    CharConfig {
        init_d: d,
        min_d: d,
        decrement_interval: u64::MAX,
        reset_interval: u64::MAX,
        ..CharConfig::default()
    }
}

fn main() {
    let t0 = Instant::now();
    banner(
        "Ablation: CHAR threshold",
        "static d in {1, 3, 6} vs the paper's dynamic d (ZIV-LikelyDead @ 512KB)",
        "a loose threshold (d=1) over-declares dead blocks; a tight one \
         (d=6) starves the LikelyDead PV; dynamic adaptation tracks demand",
    );
    let effort = Effort::from_env();
    let wls = mp_suite(&effort, 8);
    let mut specs = vec![spec(LlcMode::Inclusive, PolicyKind::Lru, L2Size::K512)];
    for d in [1u8, 3, 6] {
        let mut s = spec(
            LlcMode::Ziv(ZivProperty::LikelyDead),
            PolicyKind::Lru,
            L2Size::K512,
        );
        s.label = format!("ZIV-LikelyDead d={d} (static)");
        specs.push(s.with_char(static_d(d)));
    }
    let mut dynamic = spec(
        LlcMode::Ziv(ZivProperty::LikelyDead),
        PolicyKind::Lru,
        L2Size::K512,
    );
    dynamic.label = "ZIV-LikelyDead dynamic d".into();
    specs.push(dynamic);
    let grid = run_grid(&specs, &wls, effort.threads);
    assert_ziv_guarantee(&grid, &specs);
    let rows = speedup_summary(&grid, specs.len(), 0);
    println!("{}", rows.to_table("speedup vs I-LRU 512KB"));
    footer(t0, grid.len());
}
