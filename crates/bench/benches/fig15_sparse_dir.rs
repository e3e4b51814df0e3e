//! Fig 15: sensitivity to sparse-directory size (2x -> 1/4x) under the
//! traditional MESI protocol (left half) and ZeroDEV (right half), with
//! Hawkeye and 256 KB L2s.
use std::time::Instant;
use ziv_bench::{assert_ziv_guarantee, banner, footer, mp_suite_small};
use ziv_common::config::{DirRatio, L2Size, SystemConfig};
use ziv_core::{LlcMode, ZivProperty};
use ziv_directory::DirectoryMode;
use ziv_harness::run_grid;
use ziv_replacement::PolicyKind;
use ziv_sim::{speedup_summary, Effort, RunSpec};

fn main() {
    let t0 = Instant::now();
    banner(
        "Fig 15",
        "sparse-directory size sweep, MESI vs ZeroDEV (Hawkeye, 256KB L2)",
        "under MESI all designs degrade as the directory shrinks (NI loses \
         its lead to directory back-invalidations; ZIV tracks NI); under \
         ZeroDEV performance is nearly invariant",
    );
    let effort = Effort::from_env();
    let wls = mp_suite_small(&effort, 8);
    let mut specs = Vec::new();
    for dir_mode in [DirectoryMode::Mesi, DirectoryMode::ZeroDev] {
        for ratio in DirRatio::SWEEP {
            for (name, mode) in [
                ("I", LlcMode::Inclusive),
                ("NI", LlcMode::NonInclusive),
                (
                    "ZIV-MRLikelyDead",
                    LlcMode::Ziv(ZivProperty::MaxRrpvLikelyDead),
                ),
            ] {
                let label = format!("{name} {} {:?}", ratio.label(), dir_mode);
                specs.push(
                    RunSpec::new(
                        label,
                        SystemConfig::scaled_with_l2(L2Size::K256).with_dir_ratio(ratio),
                    )
                    .with_mode(mode)
                    .with_policy(PolicyKind::Hawkeye)
                    .with_dir_mode(dir_mode),
                );
            }
        }
    }
    let grid = run_grid(&specs, &wls, effort.threads);
    assert_ziv_guarantee(&grid, &specs);
    let rows = speedup_summary(&grid, specs.len(), 0);
    println!("{}", rows.to_table("speedup vs I-2x-MESI"));
    // ZeroDEV must generate zero directory back-invalidations.
    for cell in &grid {
        if cell.result.label.contains("ZeroDev") {
            assert_eq!(cell.result.metrics.directory_back_invalidations, 0);
        }
    }
    footer(t0, grid.len());
}
