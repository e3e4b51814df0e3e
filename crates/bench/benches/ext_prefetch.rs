//! Extension: prefetching × inclusion (the paper's reference [1],
//! Backes & Jimenez MEMSYS 2019, studied in Section II). A stride
//! prefetcher raises LLC fill pressure, which multiplies inclusion
//! victims in the inclusive baseline — and leaves the ZIV guarantee
//! intact.
use std::time::Instant;
use ziv_bench::{assert_ziv_guarantee, banner, footer, mp_suite, spec};
use ziv_common::config::L2Size;
use ziv_core::prefetch::PrefetchConfig;
use ziv_core::{LlcMode, ZivProperty};
use ziv_harness::run_grid;
use ziv_replacement::PolicyKind;
use ziv_sim::{normalized_metric, speedup_summary, Effort};

fn main() {
    let t0 = Instant::now();
    banner(
        "Extension: prefetching x inclusion",
        "I / NI / ZIV-LikelyDead with and without a stride prefetcher @ 512KB",
        "prefetch fills raise LLC pressure and inclusion-victim volume in \
         the inclusive baseline; the ZIV design absorbs the pressure with \
         relocations and keeps its guarantee",
    );
    let effort = Effort::from_env();
    let wls = mp_suite(&effort, 8);
    let mut specs = Vec::new();
    for (pf, tag) in [(None, ""), (Some(PrefetchConfig::default()), "+PF")] {
        for (name, mode) in [
            ("I", LlcMode::Inclusive),
            ("NI", LlcMode::NonInclusive),
            ("ZIV-LikelyDead", LlcMode::Ziv(ZivProperty::LikelyDead)),
        ] {
            let mut s = spec(mode, PolicyKind::Lru, L2Size::K512);
            s.label = format!("{name}{tag} 512KB");
            if let Some(p) = pf {
                s = s.with_prefetch(p);
            }
            specs.push(s);
        }
    }
    let grid = run_grid(&specs, &wls, effort.threads);
    assert_ziv_guarantee(&grid, &specs);
    let rows = speedup_summary(&grid, specs.len(), 0);
    println!("{}", rows.to_table("speedup vs I (no PF)"));
    let rows = normalized_metric(&grid, specs.len(), 0, |r| {
        (r.metrics.inclusion_victims + 1) as f64
    });
    println!("{}", rows.to_table("incl.victims+1 (norm)"));
    footer(t0, grid.len());
}
