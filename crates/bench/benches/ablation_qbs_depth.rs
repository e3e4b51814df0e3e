//! Ablation: QBS query depth. The paper's QBS queries victim candidates
//! until it finds one not resident in the private caches (up to the
//! whole set); this ablation bounds the number of queries and shows how
//! the inclusion-victim count and performance respond.
use std::time::Instant;
use ziv_bench::{banner, footer, mp_suite, spec};
use ziv_common::config::L2Size;
use ziv_core::LlcMode;
use ziv_harness::run_grid;
use ziv_replacement::PolicyKind;
use ziv_sim::{normalized_metric, speedup_summary, Effort};

fn main() {
    let t0 = Instant::now();
    banner(
        "Ablation: QBS query depth",
        "QBS with 1/2/4/8/16 queries vs full-set QBS @ 512KB L2 (LRU)",
        "shallow query depths degenerate toward the inclusive baseline \
         (more inclusion victims); depth 16 == full QBS on a 16-way LLC",
    );
    let effort = Effort::from_env();
    let wls = mp_suite(&effort, 8);
    let mut specs = vec![spec(LlcMode::Inclusive, PolicyKind::Lru, L2Size::K512)];
    for n in [1u8, 2, 4, 8, 16] {
        specs.push(spec(LlcMode::QbsBounded(n), PolicyKind::Lru, L2Size::K512));
    }
    specs.push(spec(LlcMode::Qbs, PolicyKind::Lru, L2Size::K512));
    let grid = run_grid(&specs, &wls, effort.threads);
    let rows = speedup_summary(&grid, specs.len(), 0);
    println!("{}", rows.to_table("speedup vs I-LRU 512KB"));
    let rows = normalized_metric(&grid, specs.len(), 0, |r| {
        r.metrics.inclusion_victims as f64
    });
    println!("{}", rows.to_table("incl.victims (norm)"));
    footer(t0, grid.len());
}
