//! Extension: the complete related-work landscape on one table — every
//! design the paper's Sections I/II discuss, at the 512 KB L2 point
//! under LRU: baselines (I, NI), the TLA trio (TLH, ECI, QBS), SHARP,
//! CHARonBase, RIC, way-partitioning, and the ZIV designs.
use std::time::Instant;
use ziv_bench::{banner, footer, mp_suite, spec};
use ziv_common::config::L2Size;
use ziv_core::{LlcMode, ZivProperty};
use ziv_harness::run_grid;
use ziv_replacement::PolicyKind;
use ziv_sim::{normalized_metric, speedup_summary, Effort};

fn main() {
    let t0 = Instant::now();
    banner(
        "Extension: related-design landscape",
        "every discussed design @ 512KB L2, LRU baseline",
        "only NI and the ZIV designs are inclusion-victim-free by \
         construction (NI by giving up inclusion; ZIV while keeping it); \
         TLH/ECI/QBS/SHARP/CHARonBase/RIC reduce victims without a \
         guarantee; partitioning trades capacity for isolation",
    );
    let effort = Effort::from_env();
    let wls = mp_suite(&effort, 8);
    let modes: Vec<LlcMode> = vec![
        LlcMode::Inclusive,
        LlcMode::NonInclusive,
        LlcMode::Tlh { hint_one_in: 8 },
        LlcMode::Eci,
        LlcMode::Qbs,
        LlcMode::Sharp,
        LlcMode::CharOnBase,
        LlcMode::Ric,
        LlcMode::WayPartitioned,
        LlcMode::Ziv(ZivProperty::NotInPrC),
        LlcMode::Ziv(ZivProperty::LikelyDead),
    ];
    let specs: Vec<_> = modes
        .into_iter()
        .map(|m| spec(m, PolicyKind::Lru, L2Size::K512))
        .collect();
    let grid = run_grid(&specs, &wls, effort.threads);
    let rows = speedup_summary(&grid, specs.len(), 0);
    println!("{}", rows.to_table("speedup vs I-LRU 512KB"));
    let rows = normalized_metric(&grid, specs.len(), 0, |r| {
        (r.metrics.inclusion_victims + 1) as f64
    });
    println!("{}", rows.to_table("incl.victims+1 (norm)"));
    // The guarantee rows.
    for cell in &grid {
        let m = &cell.result.metrics;
        if cell.result.label.starts_with("ZIV") || cell.result.label.starts_with("NI") {
            assert_eq!(m.inclusion_victims, 0, "{}", cell.result.label);
        }
    }
    footer(t0, grid.len());
}
