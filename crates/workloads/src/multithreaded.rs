//! Multithreaded workload generators: shared-address-space stand-ins
//! for the paper's PARSEC (canneal, facesim, vips), SPEC OMP
//! (316.applu), and TPC-E-on-MySQL workloads (Section IV).
//!
//! Sharing structure, not instruction fidelity, is what the evaluation
//! depends on: which blocks are core-private, which are read-shared,
//! which are write-shared, and how much LLC reuse each class sees.

use crate::{CoreTrace, ScaleParams, TraceRecord, Workload};
use ziv_common::{Addr, Geometric, SimRng};

/// Base line address of the shared heap.
const SHARED_BASE: u64 = 1 << 36;

fn record(line: u64, pc: u64, is_write: bool, gap: u8) -> TraceRecord {
    TraceRecord {
        addr: Addr::new(line << 6),
        pc,
        is_write,
        gap,
    }
}

/// canneal-like: random reads over a large shared graph (~2× LLC) with
/// occasional writes (the swap phase); very low locality, so little
/// sensitivity to inclusion victims but heavy memory traffic.
pub fn canneal(cores: usize, accesses_per_core: usize, seed: u64, scale: ScaleParams) -> Workload {
    let graph = (scale.llc_lines * 2).max(256);
    let gaps = Geometric::new(0.25, 255);
    let traces = (0..cores)
        .map(|c| {
            let mut rng = SimRng::seed_from_u64(seed ^ (c as u64 * 0xCA77EA1));
            let records = (0..accesses_per_core)
                .map(|_| {
                    let line = SHARED_BASE + rng.below(graph);
                    record(
                        line,
                        0x20_0000,
                        rng.chance(0.10),
                        gaps.sample(&mut rng) as u8,
                    )
                })
                .collect();
            CoreTrace {
                records,
                overlap: 0.30,
                app_name: "canneal",
            }
        })
        .collect();
    Workload {
        name: "canneal".into(),
        traces,
        attack: None,
    }
}

/// facesim-like: per-core blocked regions with heavy LLC reuse plus a
/// read-shared model region. The paper notes facesim has many LLC
/// reuses that QBS/SHARP sacrifice, hurting performance.
pub fn facesim(cores: usize, accesses_per_core: usize, seed: u64, scale: ScaleParams) -> Workload {
    let per_core = ((scale.llc_lines as f64 * 0.8 / cores as f64) as u64).max(64);
    let shared = (scale.llc_lines / 8).max(64);
    let gaps = Geometric::new(0.33, 255);
    let traces = (0..cores)
        .map(|c| {
            let mut rng = SimRng::seed_from_u64(seed ^ (c as u64 * 0xFACE));
            let base = SHARED_BASE + (c as u64 + 1) * (per_core * 4);
            let mut pos = 0u64;
            let records = (0..accesses_per_core)
                .map(|_| {
                    let gap = gaps.sample(&mut rng) as u8;
                    if rng.chance(0.15) {
                        // Read-shared model data.
                        record(SHARED_BASE + rng.below(shared), 0x21_0000, false, gap)
                    } else {
                        // Private blocked sweep with immediate reuse.
                        let l = base + pos;
                        pos = (pos + if rng.chance(0.5) { 0 } else { 1 }) % per_core;
                        record(l, 0x21_0004, rng.chance(0.25), gap)
                    }
                })
                .collect();
            CoreTrace {
                records,
                overlap: 0.50,
                app_name: "facesim",
            }
        })
        .collect();
    Workload {
        name: "facesim".into(),
        traces,
        attack: None,
    }
}

/// vips-like image pipeline: cores stream a read-shared input image and
/// write private output bands; moderate LLC reuse on shared tiles.
pub fn vips(cores: usize, accesses_per_core: usize, seed: u64, scale: ScaleParams) -> Workload {
    let image = (scale.llc_lines * 3 / 5).max(256);
    let band = (image / cores as u64).max(32);
    let gaps = Geometric::new(0.33, 255);
    let traces = (0..cores)
        .map(|c| {
            let mut rng = SimRng::seed_from_u64(seed ^ (c as u64 * 0x715));
            let out_base = SHARED_BASE + 8 * image + c as u64 * band * 2;
            let mut in_pos = c as u64 * band;
            let mut out_pos = 0u64;
            let records = (0..accesses_per_core)
                .map(|i| {
                    let gap = gaps.sample(&mut rng) as u8;
                    if i % 3 == 2 {
                        let l = out_base + out_pos;
                        out_pos = (out_pos + 1) % band;
                        record(l, 0x22_0008, true, gap)
                    } else {
                        let l = SHARED_BASE + (in_pos % image);
                        // Re-read neighborhoods (convolution window).
                        if i % 3 == 1 {
                            in_pos += 1;
                        }
                        record(l, 0x22_0000, false, gap)
                    }
                })
                .collect();
            CoreTrace {
                records,
                overlap: 0.60,
                app_name: "vips",
            }
        })
        .collect();
    Workload {
        name: "vips".into(),
        traces,
        attack: None,
    }
}

/// 316.applu-like: stencil sweeps over a block-partitioned shared grid
/// with boundary sharing between neighbor cores; the multithreaded
/// workload the paper finds most sensitive to inclusion victims.
pub fn applu(cores: usize, accesses_per_core: usize, seed: u64, scale: ScaleParams) -> Workload {
    let grid = (scale.llc_lines * 6 / 5).max(256);
    let part = grid / cores as u64;
    let hot = (scale.l2_lines / 2).max(8);
    let gaps = Geometric::new(0.33, 255);
    let traces = (0..cores)
        .map(|c| {
            let mut rng = SimRng::seed_from_u64(seed ^ (c as u64 * 0xAB1E));
            let lo = c as u64 * part;
            let mut pos = 0u64;
            let records = (0..accesses_per_core)
                .map(|i| {
                    let gap = gaps.sample(&mut rng) as u8;
                    match i % 5 {
                        // Hot per-core coefficients (private-cache
                        // resident: the inclusion-victim victim).
                        0 | 2 => record(
                            SHARED_BASE + 4 * grid + c as u64 * hot * 2 + rng.below(hot),
                            0x23_0000,
                            false,
                            gap,
                        ),
                        // Boundary exchange with the neighbor partition.
                        4 => {
                            let nb = (c + 1) % cores;
                            record(
                                SHARED_BASE + nb as u64 * part + rng.below(16),
                                0x23_0008,
                                false,
                                gap,
                            )
                        }
                        // Sweep over the own partition (writes update).
                        k => {
                            let l = SHARED_BASE + lo + pos;
                            if k == 3 {
                                pos = (pos + 1) % part;
                            }
                            record(l, 0x23_0004, k == 1, gap)
                        }
                    }
                })
                .collect();
            CoreTrace {
                records,
                overlap: 0.50,
                app_name: "applu",
            }
        })
        .collect();
    Workload {
        name: "316.applu".into(),
        traces,
        attack: None,
    }
}

/// TPC-E-like OLTP: zipf reads over a large shared database, per-core
/// private log writes, and a small hot read/write metadata region.
/// The paper runs this on a 128-core system.
pub fn tpce(cores: usize, accesses_per_core: usize, seed: u64, scale: ScaleParams) -> Workload {
    let db = (scale.llc_lines * 4).max(1024);
    let meta = 64u64;
    let gaps = Geometric::new(0.2, 255);
    // Zipf CDF over the database pages.
    let n = db as usize;
    let mut cdf = Vec::with_capacity(n);
    let mut total = 0.0f64;
    for i in 0..n {
        total += 1.0 / ((i + 1) as f64).powf(0.8);
        cdf.push(total);
    }
    let traces = (0..cores)
        .map(|c| {
            let mut rng = SimRng::seed_from_u64(seed ^ (c as u64 * 0x79CE));
            let log_base = SHARED_BASE + 8 * db + c as u64 * 256;
            let mut log_pos = 0u64;
            let records = (0..accesses_per_core)
                .map(|_| {
                    let gap = gaps.sample(&mut rng) as u8;
                    let r = rng.next_f64();
                    if r < 0.70 {
                        let u = rng.next_f64() * total;
                        let idx = cdf.partition_point(|&x| x < u).min(n - 1) as u64;
                        record(SHARED_BASE + idx, 0x24_0000, rng.chance(0.1), gap)
                    } else if r < 0.85 {
                        let l = log_base + log_pos;
                        log_pos = (log_pos + 1) % 256;
                        record(l, 0x24_0004, true, gap)
                    } else {
                        record(
                            SHARED_BASE + 16 * db + rng.below(meta),
                            0x24_0008,
                            rng.chance(0.3),
                            gap,
                        )
                    }
                })
                .collect();
            CoreTrace {
                records,
                overlap: 0.35,
                app_name: "tpce",
            }
        })
        .collect();
    Workload {
        name: "TPC-E".into(),
        traces,
        attack: None,
    }
}

/// The paper's Fig 16/17 multithreaded set at `cores` cores (canneal,
/// facesim, vips, 316.applu). TPC-E is separate (128 cores).
pub fn parsec_omp_suite(
    cores: usize,
    accesses_per_core: usize,
    seed: u64,
    scale: ScaleParams,
) -> Vec<Workload> {
    vec![
        canneal(cores, accesses_per_core, seed, scale),
        facesim(cores, accesses_per_core, seed, scale),
        vips(cores, accesses_per_core, seed, scale),
        applu(cores, accesses_per_core, seed, scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scale() -> ScaleParams {
        ScaleParams {
            llc_lines: 2048,
            l2_lines: 128,
        }
    }

    #[test]
    fn suite_generates_all_four() {
        let suite = parsec_omp_suite(4, 500, 1, scale());
        assert_eq!(suite.len(), 4);
        for wl in &suite {
            assert_eq!(wl.cores(), 4);
            assert_eq!(wl.total_accesses(), 2_000);
        }
    }

    #[test]
    fn canneal_shares_the_graph() {
        let wl = canneal(4, 2_000, 2, scale());
        // The same shared lines must appear in multiple cores' traces.
        let sets: Vec<std::collections::HashSet<u64>> = wl
            .traces
            .iter()
            .map(|t| t.records.iter().map(|r| r.addr.line().raw()).collect())
            .collect();
        let shared01 = sets[0].intersection(&sets[1]).count();
        assert!(
            shared01 > 10,
            "cores must share graph lines, got {shared01}"
        );
    }

    #[test]
    fn vips_output_bands_are_private() {
        let wl = vips(2, 3_000, 3, scale());
        let writes: Vec<std::collections::HashSet<u64>> = wl
            .traces
            .iter()
            .map(|t| {
                t.records
                    .iter()
                    .filter(|r| r.is_write)
                    .map(|r| r.addr.line().raw())
                    .collect()
            })
            .collect();
        assert_eq!(
            writes[0].intersection(&writes[1]).count(),
            0,
            "bands must not overlap"
        );
    }

    #[test]
    fn applu_has_neighbor_sharing() {
        let wl = applu(4, 5_000, 4, scale());
        let sets: Vec<std::collections::HashSet<u64>> = wl
            .traces
            .iter()
            .map(|t| t.records.iter().map(|r| r.addr.line().raw()).collect())
            .collect();
        assert!(
            sets[0].intersection(&sets[1]).count() > 0,
            "boundary lines shared"
        );
    }

    #[test]
    fn tpce_scales_to_many_cores() {
        let wl = tpce(32, 200, 5, scale());
        assert_eq!(wl.cores(), 32);
        // Hot metadata is accessed by many cores.
        let meta_base = SHARED_BASE + 16 * (scale().llc_lines * 4).max(1024);
        let cores_touching_meta = wl
            .traces
            .iter()
            .filter(|t| {
                t.records.iter().any(|r| {
                    let l = r.addr.line().raw();
                    l >= meta_base && l < meta_base + 64
                })
            })
            .count();
        assert!(cores_touching_meta > 16);
    }

    #[test]
    fn deterministic_generation() {
        let a = applu(2, 1_000, 7, scale());
        let b = applu(2, 1_000, 7, scale());
        assert_eq!(a.traces[0].records, b.traces[0].records);
    }
}
