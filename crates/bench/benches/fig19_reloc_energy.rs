//! Fig 19: relocation energy as an addition to energy-per-instruction
//! (EPI) for the multiprogrammed workloads, per L2 capacity, for the
//! LikelyDead (LRU) and MRLikelyDead (Hawkeye) ZIV designs — plus the
//! paper's cost/benefit comparison against L2/LLC/DRAM EPI savings.
use std::time::Instant;
use ziv_bench::{assert_ziv_guarantee, banner, footer, mp_suite, spec};
use ziv_common::config::L2Size;
use ziv_core::{LlcMode, ZivProperty};
use ziv_harness::run_grid;
use ziv_replacement::PolicyKind;
use ziv_sim::Effort;

fn main() {
    let t0 = Instant::now();
    banner(
        "Fig 19",
        "relocation contribution to EPI (pJ/instruction)",
        "EPI contribution grows with L2 capacity (more relocations); the \
         Hawkeye-side design spends more; the cost stays small against \
         the DRAM EPI saved",
    );
    let effort = Effort::from_env();
    let wls = mp_suite(&effort, 8);
    let mut specs = Vec::new();
    for l2 in L2Size::TABLE1 {
        specs.push(spec(
            LlcMode::Ziv(ZivProperty::LikelyDead),
            PolicyKind::Lru,
            l2,
        ));
        specs.push(spec(
            LlcMode::Ziv(ZivProperty::MaxRrpvLikelyDead),
            PolicyKind::Hawkeye,
            l2,
        ));
        // The inclusive baseline at the same L2 point for the savings
        // comparison.
        specs.push(spec(LlcMode::Inclusive, PolicyKind::Lru, l2));
        specs.push(spec(LlcMode::Inclusive, PolicyKind::Hawkeye, l2));
    }
    let grid = run_grid(&specs, &wls, effort.threads);
    assert_ziv_guarantee(&grid, &specs);
    println!(
        "{:<34} {:>14} {:>14} {:>14}",
        "config", "reloc EPI (pJ)", "total EPI (pJ)", "dEPI vs I"
    );
    for (s, sp) in specs.iter().enumerate() {
        if !sp.mode.is_ziv() {
            continue;
        }
        let cells: Vec<_> = grid.iter().filter(|g| g.spec_index == s).collect();
        let reloc_epi: f64 = cells
            .iter()
            .map(|c| c.result.metrics.relocation_epi_pj())
            .sum::<f64>()
            / cells.len() as f64;
        let total_epi: f64 = cells
            .iter()
            .map(|c| c.result.metrics.total_epi_pj())
            .sum::<f64>()
            / cells.len() as f64;
        // Matching inclusive baseline: same L2, same policy family
        // (specs are laid out [ZIV-LRU, ZIV-Hawkeye, I-LRU, I-Hawkeye]
        // per L2 point, so the baseline sits two slots later).
        let base_idx = s + 2;
        let base_cells: Vec<_> = grid.iter().filter(|g| g.spec_index == base_idx).collect();
        let base_epi: f64 = base_cells
            .iter()
            .map(|c| c.result.metrics.total_epi_pj())
            .sum::<f64>()
            / base_cells.len() as f64;
        println!(
            "{:<34} {:>14.2} {:>14.1} {:>+14.1}",
            sp.label,
            reloc_epi,
            total_epi,
            total_epi - base_epi
        );
    }
    footer(t0, grid.len());
}
