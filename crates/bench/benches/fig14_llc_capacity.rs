//! Fig 14: sensitivity to LLC capacity — a 16 MB LLC with 1 MB per-core
//! L2 (capacity-scaled), LRU group and Hawkeye group, normalized to the
//! 8 MB I-LRU-256KB baseline.
use std::time::Instant;
use ziv_bench::{assert_ziv_guarantee, banner, footer, mp_suite, spec};
use ziv_common::config::{L2Size, SystemConfig};
use ziv_core::{LlcMode, ZivProperty};
use ziv_harness::run_grid;
use ziv_replacement::PolicyKind;
use ziv_sim::{speedup_summary, Effort, RunSpec};

fn big(label: &str, mode: LlcMode, policy: PolicyKind) -> RunSpec {
    RunSpec::new(format!("{label} 16MB/1MB"), SystemConfig::big_llc(8))
        .with_mode(mode)
        .with_policy(policy)
}

fn main() {
    let t0 = Instant::now();
    banner(
        "Fig 14",
        "16MB LLC + 1MB per-core L2 sensitivity",
        "LRU group: ZIV-LikelyDead continues to surpass NI; Hawkeye group: \
         MRNotInPrC / MRLikelyDead close to NI",
    );
    let effort = Effort::from_env();
    let wls = mp_suite(&effort, 8);
    let specs = vec![
        spec(LlcMode::Inclusive, PolicyKind::Lru, L2Size::K256), // baseline (8MB-class)
        big("I-LRU", LlcMode::Inclusive, PolicyKind::Lru),
        big("NI-LRU", LlcMode::NonInclusive, PolicyKind::Lru),
        big(
            "ZIV-LikelyDead-LRU",
            LlcMode::Ziv(ZivProperty::LikelyDead),
            PolicyKind::Lru,
        ),
        big("I-Hawkeye", LlcMode::Inclusive, PolicyKind::Hawkeye),
        big("NI-Hawkeye", LlcMode::NonInclusive, PolicyKind::Hawkeye),
        big(
            "ZIV-MRNotInPrC-Hawkeye",
            LlcMode::Ziv(ZivProperty::MaxRrpvNotInPrC),
            PolicyKind::Hawkeye,
        ),
        big(
            "ZIV-MRLikelyDead-Hawkeye",
            LlcMode::Ziv(ZivProperty::MaxRrpvLikelyDead),
            PolicyKind::Hawkeye,
        ),
    ];
    let grid = run_grid(&specs, &wls, effort.threads);
    assert_ziv_guarantee(&grid, &specs);
    let rows = speedup_summary(&grid, specs.len(), 0);
    println!("{}", rows.to_table("speedup"));
    footer(t0, grid.len());
}
