//! Fig 16: multithreaded workloads with LRU as the baseline LLC policy
//! (canneal, facesim, vips, 316.applu at 8 cores with 512KB-class L2;
//! TPC-E at 128 cores), normalized per-application to I-LRU.
use std::time::Instant;
use ziv_bench::{assert_ziv_guarantee, banner, footer};
use ziv_common::config::{L2Size, SystemConfig};
use ziv_core::{LlcMode, ZivProperty};
use ziv_harness::run_grid;
use ziv_replacement::PolicyKind;
use ziv_sim::{Effort, RunSpec};
use ziv_workloads::{multithreaded, ScaleParams};

fn modes() -> Vec<(&'static str, LlcMode)> {
    vec![
        ("I", LlcMode::Inclusive),
        ("NI", LlcMode::NonInclusive),
        ("QBS", LlcMode::Qbs),
        ("SHARP", LlcMode::Sharp),
        ("ZIV-NotInPrC", LlcMode::Ziv(ZivProperty::NotInPrC)),
        ("ZIV-LikelyDead", LlcMode::Ziv(ZivProperty::LikelyDead)),
    ]
}

fn main() {
    let t0 = Instant::now();
    banner(
        "Fig 16",
        "multithreaded performance, LRU baseline",
        "canneal/facesim/vips barely sensitive to inclusion victims; \
         applu and TPC-E favor ZIV-LikelyDead (>= NI)",
    );
    let effort = Effort::from_env();
    let policy = PolicyKind::Lru;
    let mut total_runs = 0;

    // PARSEC/OMP at 8 cores, 512KB-class L2 (the paper's configuration).
    let sys = SystemConfig::scaled_with_l2(L2Size::K512);
    let wls = multithreaded::parsec_omp_suite(
        8,
        effort.mt_accesses_per_core,
        7,
        ScaleParams::from_system(&sys),
    );
    let specs: Vec<RunSpec> = modes()
        .into_iter()
        .map(|(name, mode)| {
            RunSpec::new(name, sys.clone())
                .with_mode(mode)
                .with_policy(policy)
        })
        .collect();
    let grid = run_grid(&specs, &wls, effort.threads);
    assert_ziv_guarantee(&grid, &specs);
    total_runs += grid.len();
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
            let b = &grid[w].result; // spec 0 = I
            line.push_str(&format!("{:>10.3}", r.runtime_speedup(b)));
        }
        println!("{line}");
    }

    // TPC-E at 128 cores (32MB-class LLC, 128KB-class L2).
    let server = SystemConfig::server_128(8);
    let tpce = vec![multithreaded::tpce(
        128,
        effort.tpce_accesses_per_core,
        9,
        ScaleParams::from_system(&server),
    )];
    let tspecs: Vec<RunSpec> = modes()
        .into_iter()
        .map(|(name, mode)| {
            RunSpec::new(name, server.clone())
                .with_mode(mode)
                .with_policy(policy)
        })
        .collect();
    let tgrid = run_grid(&tspecs, &tpce, effort.threads);
    assert_ziv_guarantee(&tgrid, &tspecs);
    total_runs += tgrid.len();
    println!("\n{:<18} {:>10}", "config", "TPC-E");
    for (s, _) in tspecs.iter().enumerate() {
        let r = &tgrid[s].result;
        println!(
            "{:<18} {:>10.3}",
            tspecs[s].label,
            r.runtime_speedup(&tgrid[0].result)
        );
    }
    footer(t0, total_runs);
}
