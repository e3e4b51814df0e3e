//! Multiprogrammed mix composition, following the paper's Section IV
//! protocol: homogeneous mixes (one application replicated on every
//! core) and heterogeneous mixes (random draws with every application
//! represented an equal number of times across the mix set, to avoid
//! bias).

use crate::apps::{generate, AppSpec, APPS};
use crate::{ScaleParams, Workload};
use ziv_common::SimRng;

/// Line-address stride between per-core private address spaces
/// (2^30 lines = 64 GB regions: disjoint for any footprint we generate).
pub const CORE_REGION_LINES: u64 = 1 << 30;

/// A homogeneous mix: `cores` copies of `app`, each in its own address
/// space with its own seed (the paper's "multiple copies of the same
/// application").
pub fn homogeneous(
    app: AppSpec,
    cores: usize,
    accesses_per_core: usize,
    seed: u64,
    scale: ScaleParams,
) -> Workload {
    let traces = (0..cores)
        .map(|c| {
            generate(
                app,
                accesses_per_core,
                (c as u64 + 1) * CORE_REGION_LINES,
                seed.wrapping_add(c as u64 * 0x9E37),
                scale,
            )
        })
        .collect();
    Workload {
        name: format!("homo-{}", app.name),
        traces,
        attack: None,
    }
}

/// A heterogeneous mix: `cores` applications drawn from a rotation that
/// represents every application equally across consecutive mix indices
/// (the paper's anti-bias rule).
pub fn heterogeneous(
    mix_index: usize,
    cores: usize,
    accesses_per_core: usize,
    seed: u64,
    scale: ScaleParams,
) -> Workload {
    let n = APPS.len();
    // Deterministic balanced dealing: the draw sequence is a series of
    // independently shuffled copies of the application list, so every
    // application is represented equally across consecutive mixes (the
    // paper's anti-bias rule) while each mix stays random-looking.
    let deal = |position: usize| -> AppSpec {
        let block = position / n;
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = SimRng::seed_from_u64(seed ^ (block as u64).wrapping_mul(0xC0FFEE));
        rng.shuffle(&mut order);
        APPS[order[position % n]]
    };
    let traces = (0..cores)
        .map(|c| {
            let app = deal(mix_index * cores + c);
            generate(
                app,
                accesses_per_core,
                (c as u64 + 1) * CORE_REGION_LINES,
                seed.wrapping_add((mix_index * cores + c) as u64 * 0x51),
                scale,
            )
        })
        .collect();
    Workload {
        name: format!("hetero-{mix_index:02}"),
        traces,
        attack: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scale() -> ScaleParams {
        ScaleParams {
            llc_lines: 16 * 1024,
            l2_lines: 512,
        }
    }

    #[test]
    fn homogeneous_has_disjoint_address_spaces() {
        let wl = homogeneous(APPS[0], 4, 500, 1, scale());
        for (c, t) in wl.traces.iter().enumerate() {
            let base = (c as u64 + 1) * CORE_REGION_LINES;
            for r in &t.records {
                let l = r.addr.line().raw();
                assert!(l >= base && l < base + CORE_REGION_LINES);
            }
        }
    }

    #[test]
    fn homogeneous_cores_use_different_seeds() {
        let wl = homogeneous(
            crate::apps::app_by_name("hotl2").unwrap(),
            2,
            500,
            1,
            scale(),
        );
        let rel: Vec<Vec<u64>> = wl
            .traces
            .iter()
            .enumerate()
            .map(|(c, t)| {
                t.records
                    .iter()
                    .map(|r| r.addr.line().raw() - (c as u64 + 1) * CORE_REGION_LINES)
                    .collect()
            })
            .collect();
        assert_ne!(rel[0], rel[1]);
    }

    #[test]
    fn heterogeneous_is_deterministic() {
        let a = heterogeneous(3, 8, 200, 9, scale());
        let b = heterogeneous(3, 8, 200, 9, scale());
        assert_eq!(a.name, b.name);
        for (x, y) in a.traces.iter().zip(&b.traces) {
            assert_eq!(x.records, y.records);
        }
    }

    #[test]
    fn heterogeneous_mixes_differ() {
        let a = heterogeneous(0, 8, 200, 9, scale());
        let b = heterogeneous(1, 8, 200, 9, scale());
        let apps_a: Vec<_> = a.traces.iter().map(|t| t.app_name).collect();
        let apps_b: Vec<_> = b.traces.iter().map(|t| t.app_name).collect();
        assert_ne!(apps_a, apps_b);
    }

    #[test]
    fn rotation_represents_every_app_equally() {
        // Over APPS.len() consecutive 8-core mixes, each app appears the
        // same number of times (8 * 12 / 12 = 8).
        let mixes: Vec<Workload> = (0..APPS.len())
            .map(|i| heterogeneous(i, 8, 10, 5, scale()))
            .collect();
        let mut counts = std::collections::HashMap::new();
        for m in &mixes {
            for t in &m.traces {
                *counts.entry(t.app_name).or_insert(0) += 1;
            }
        }
        assert_eq!(counts.len(), APPS.len());
        assert!(counts.values().all(|&c| c == 8), "{counts:?}");
    }
}
