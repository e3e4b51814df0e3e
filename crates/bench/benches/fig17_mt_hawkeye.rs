//! Fig 17: multithreaded workloads with Hawkeye as the baseline LLC
//! policy, normalized per-application to I-LRU (the paper normalizes
//! both figures to the LRU baseline).
use std::time::Instant;
use ziv_bench::{assert_ziv_guarantee, banner, footer};
use ziv_common::config::{L2Size, SystemConfig};
use ziv_core::{LlcMode, ZivProperty};
use ziv_harness::run_grid;
use ziv_replacement::PolicyKind;
use ziv_sim::{Effort, RunSpec};
use ziv_workloads::{multithreaded, ScaleParams};

fn main() {
    let t0 = Instant::now();
    banner(
        "Fig 17",
        "multithreaded performance, Hawkeye baseline (normalized to I-LRU)",
        "both ZIV designs close to NI; QBS/SHARP lose on facesim/vips by \
         sacrificing LLC reuses to avoid (harmless) inclusion victims",
    );
    let effort = Effort::from_env();
    let sys = SystemConfig::scaled_with_l2(L2Size::K512);
    let wls = multithreaded::parsec_omp_suite(
        8,
        effort.mt_accesses_per_core,
        7,
        ScaleParams::from_system(&sys),
    );
    // Spec 0: the I-LRU normalization baseline.
    let mut specs = vec![RunSpec::new("I-LRU", sys.clone()).with_mode(LlcMode::Inclusive)];
    for (name, mode) in [
        ("I-Hawkeye", LlcMode::Inclusive),
        ("NI-Hawkeye", LlcMode::NonInclusive),
        ("QBS-Hawkeye", LlcMode::Qbs),
        ("SHARP-Hawkeye", LlcMode::Sharp),
        ("ZIV-MRNotInPrC", LlcMode::Ziv(ZivProperty::MaxRrpvNotInPrC)),
        (
            "ZIV-MRLikelyDead",
            LlcMode::Ziv(ZivProperty::MaxRrpvLikelyDead),
        ),
    ] {
        specs.push(
            RunSpec::new(name, sys.clone())
                .with_mode(mode)
                .with_policy(PolicyKind::Hawkeye),
        );
    }
    let grid = run_grid(&specs, &wls, effort.threads);
    assert_ziv_guarantee(&grid, &specs);
    println!(
        "{:<18} {}",
        "config",
        wls.iter()
            .map(|w| format!("{:>10}", w.name))
            .collect::<String>()
    );
    for s in 0..specs.len() {
        let mut line = format!("{:<18}", specs[s].label);
        for w in 0..wls.len() {
            let r = &grid[s * wls.len() + w].result;
            let b = &grid[w].result;
            line.push_str(&format!("{:>10.3}", r.runtime_speedup(b)));
        }
        println!("{line}");
    }
    footer(t0, grid.len());
}
