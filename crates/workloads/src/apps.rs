//! Synthetic single-program applications: the SPEC-CPU-2017-class
//! pattern generators behind the multiprogrammed mixes.

use crate::{CoreTrace, ScaleParams, TraceRecord};
use ziv_common::{Addr, Geometric, SimRng};

/// LLC associativity assumed when constructing same-set conflict
/// patterns (all of the paper's configurations use a 16-way LLC).
pub const LLC_WAYS: u64 = 16;

/// Accesses spent in the private-hot phase of each
/// [`AppClass::PhasedScan`] cycle.
pub const PHASED_HOT_ACCESSES: u32 = 2000;

/// Accesses spent in the streaming-scan phase of each
/// [`AppClass::PhasedScan`] cycle.
pub const PHASED_STREAM_ACCESSES: u32 = 1000;

/// The access-pattern class of an application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AppClass {
    /// Sequential streaming over a footprint (× LLC capacity); no reuse
    /// within any cache. lbm/fotonik3d-class.
    Streaming {
        /// Footprint as a multiple of LLC capacity.
        footprint_x_llc: f64,
    },
    /// The paper's Section I pattern: per-LLC-set circular access over
    /// more blocks than the associativity, making the most recently
    /// used block the one with the furthest reuse. mcf/omnetpp-class.
    CircularSet {
        /// Blocks cycling within each covered set (> 16 to defeat the
        /// associativity).
        blocks_per_set: u32,
        /// Fraction of LLC sets covered.
        sets_covered: f64,
    },
    /// Global circular sweep over slightly more than the LLC capacity:
    /// LRU thrashes, MIN/Hawkeye salvage a resident prefix.
    CircularGlobal {
        /// Footprint as a multiple of LLC capacity.
        footprint_x_llc: f64,
    },
    /// Hot working set sized to the private L2 (× L2 capacity): the
    /// *victim* profile — its performance collapses under inclusion
    /// victims. exchange2/leela-class.
    HotPrivate {
        /// Footprint as a multiple of per-core L2 capacity.
        footprint_x_l2: f64,
    },
    /// Dependent random walk over a shuffled permutation cycle;
    /// latency-bound. mcf-pointer-class.
    PointerChase {
        /// Footprint as a multiple of LLC capacity.
        footprint_x_llc: f64,
    },
    /// Zipf-distributed accesses over a large footprint (database /
    /// server class).
    Zipf {
        /// Footprint as a multiple of LLC capacity.
        footprint_x_llc: f64,
        /// Zipf exponent (higher = more skew).
        exponent: f64,
    },
    /// Three-point stencil sweeps (neighbor reuse). applu-class.
    Stencil {
        /// Footprint as a multiple of LLC capacity.
        footprint_x_llc: f64,
    },
    /// Blocked/tiled kernel: each L2-sized tile is reused heavily
    /// before moving on. gemm-class.
    Tiled {
        /// Tile size as a multiple of L2 capacity.
        tile_x_l2: f64,
        /// Number of tiles in the footprint.
        tiles: u32,
        /// Sequential passes per tile before moving on.
        passes_per_tile: u32,
    },
    /// Alternating phases: a private-hot region, then a streaming scan
    /// (the mixed profile where QBS/SHARP-style promotions misfire).
    PhasedScan {
        /// Hot-region size as a multiple of L2 capacity.
        hot_x_l2: f64,
        /// Scan footprint as a multiple of LLC capacity.
        stream_x_llc: f64,
    },
}

/// A named application: class + intensity parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppSpec {
    /// Short name (used in mix names and figure output).
    pub name: &'static str,
    /// Pattern class.
    pub class: AppClass,
    /// Fraction of accesses that are stores.
    pub write_ratio: f64,
    /// Latency-hiding factor (see [`CoreTrace::overlap`]).
    pub overlap: f64,
    /// Mean non-memory instructions between accesses.
    pub gap_mean: f64,
}

/// The synthetic application suite (12 profiles spanning the behavior
/// classes the paper's 36 SPEC pairs cover).
pub const APPS: [AppSpec; 12] = [
    AppSpec {
        name: "stream",
        class: AppClass::Streaming {
            footprint_x_llc: 4.0,
        },
        write_ratio: 0.10,
        overlap: 0.75,
        gap_mean: 3.0,
    },
    AppSpec {
        name: "wstream",
        class: AppClass::Streaming {
            footprint_x_llc: 2.0,
        },
        write_ratio: 0.70,
        overlap: 0.70,
        gap_mean: 3.0,
    },
    AppSpec {
        name: "circset",
        class: AppClass::CircularSet {
            blocks_per_set: 24,
            sets_covered: 0.5,
        },
        write_ratio: 0.05,
        overlap: 0.35,
        gap_mean: 3.0,
    },
    AppSpec {
        name: "circbig",
        class: AppClass::CircularGlobal {
            footprint_x_llc: 1.5,
        },
        write_ratio: 0.05,
        overlap: 0.40,
        gap_mean: 3.0,
    },
    AppSpec {
        name: "hotl2",
        class: AppClass::HotPrivate {
            footprint_x_l2: 0.5,
        },
        write_ratio: 0.30,
        overlap: 0.25,
        gap_mean: 2.0,
    },
    AppSpec {
        name: "hotl2big",
        class: AppClass::HotPrivate {
            footprint_x_l2: 1.8,
        },
        write_ratio: 0.30,
        overlap: 0.25,
        gap_mean: 2.0,
    },
    AppSpec {
        name: "chase",
        class: AppClass::PointerChase {
            footprint_x_llc: 2.0,
        },
        write_ratio: 0.0,
        overlap: 0.10,
        gap_mean: 5.0,
    },
    AppSpec {
        name: "zipfdb",
        class: AppClass::Zipf {
            footprint_x_llc: 4.0,
            exponent: 0.85,
        },
        write_ratio: 0.15,
        overlap: 0.40,
        gap_mean: 4.0,
    },
    AppSpec {
        name: "stencil",
        class: AppClass::Stencil {
            footprint_x_llc: 2.0,
        },
        write_ratio: 0.33,
        overlap: 0.60,
        gap_mean: 2.0,
    },
    AppSpec {
        name: "tiles",
        class: AppClass::Tiled {
            tile_x_l2: 0.6,
            tiles: 16,
            passes_per_tile: 8,
        },
        write_ratio: 0.20,
        overlap: 0.50,
        gap_mean: 2.0,
    },
    AppSpec {
        name: "scanphase",
        class: AppClass::PhasedScan {
            hot_x_l2: 0.5,
            stream_x_llc: 2.0,
        },
        write_ratio: 0.20,
        overlap: 0.45,
        gap_mean: 3.0,
    },
    AppSpec {
        name: "zipfnear",
        class: AppClass::Zipf {
            footprint_x_llc: 0.25,
            exponent: 0.6,
        },
        write_ratio: 0.25,
        overlap: 0.30,
        gap_mean: 2.0,
    },
];

/// Looks up an application by name.
pub fn app_by_name(name: &str) -> Option<AppSpec> {
    APPS.iter().copied().find(|a| a.name == name)
}

impl AppClass {
    /// The class's deterministic phase period in accesses under
    /// `scale`, for classes whose behavior alternates in fixed-length
    /// segments: [`AppClass::PhasedScan`] repeats a hot+stream cycle
    /// every [`PHASED_HOT_ACCESSES`]` + `[`PHASED_STREAM_ACCESSES`]
    /// accesses, and [`AppClass::Tiled`] moves to a new tile every
    /// `tile lines × passes_per_tile` accesses. Classes whose locality
    /// drifts smoothly or randomly return `None` — there is no segment
    /// boundary for a sampler to alias against.
    pub fn phase_period(&self, scale: ScaleParams) -> Option<u64> {
        match *self {
            AppClass::PhasedScan { .. } => {
                Some((PHASED_HOT_ACCESSES + PHASED_STREAM_ACCESSES) as u64)
            }
            AppClass::Tiled {
                tile_x_l2,
                passes_per_tile,
                ..
            } if passes_per_tile > 0 => {
                Some(tile_lines(tile_x_l2, scale.l2_lines.max(16)) * passes_per_tile as u64)
            }
            _ => None,
        }
    }
}

impl AppSpec {
    /// [`AppClass::phase_period`] of this application's class.
    pub fn phase_period(&self, scale: ScaleParams) -> Option<u64> {
        self.class.phase_period(scale)
    }
}

/// Internal per-class generator state.
#[derive(Debug)]
enum GenState {
    Sequential {
        footprint: u64,
        pos: u64,
    },
    CircularSet {
        stride: u64,
        sets: u64,
        blocks: u64,
        set_cursor: u64,
        pointers: Vec<u32>,
    },
    HotRandom {
        footprint: u64,
    },
    Chase {
        perm: Vec<u32>,
        pos: u32,
    },
    Zipf {
        cdf: Vec<f64>,
        total: f64,
    },
    Stencil {
        footprint: u64,
        pos: u64,
        row: u64,
    },
    Tiled {
        tile: u64,
        tiles: u64,
        passes: u32,
        pos: u64,
        tile_idx: u64,
        pass: u32,
    },
    Phased {
        hot: u64,
        stream: u64,
        in_hot: bool,
        count: u32,
        pos: u64,
    },
}

/// Tile footprint of an [`AppClass::Tiled`] kernel in lines — shared
/// with [`AppClass::phase_period`] so the advertised segment length
/// always matches the generator's state.
fn tile_lines(tile_x_l2: f64, l2: u64) -> u64 {
    ((l2 as f64 * tile_x_l2) as u64).max(16)
}

fn build_state(class: AppClass, scale: ScaleParams, rng: &mut SimRng) -> GenState {
    let llc = scale.llc_lines.max(64);
    let l2 = scale.l2_lines.max(16);
    match class {
        AppClass::Streaming { footprint_x_llc } => GenState::Sequential {
            footprint: ((llc as f64 * footprint_x_llc) as u64).max(64),
            pos: 0,
        },
        AppClass::CircularSet {
            blocks_per_set,
            sets_covered,
        } => {
            // Lines spaced `llc_lines / ways` apart map to the same LLC
            // set (bank-interleaved modulo indexing, 16-way LLC).
            let stride = (llc / LLC_WAYS).max(1);
            let sets = ((stride as f64 * sets_covered) as u64).max(1);
            GenState::CircularSet {
                stride,
                sets,
                blocks: blocks_per_set as u64,
                set_cursor: 0,
                pointers: vec![0; sets as usize],
            }
        }
        AppClass::CircularGlobal { footprint_x_llc } => GenState::Sequential {
            footprint: ((llc as f64 * footprint_x_llc) as u64).max(64),
            pos: 0,
        },
        AppClass::HotPrivate { footprint_x_l2 } => GenState::HotRandom {
            footprint: ((l2 as f64 * footprint_x_l2) as u64).max(8),
        },
        AppClass::PointerChase { footprint_x_llc } => {
            let n = ((llc as f64 * footprint_x_llc) as u64).max(64) as u32;
            // Build a single Hamiltonian cycle (a random shuffle used as
            // a successor table would decompose into many short cycles).
            let mut order: Vec<u32> = (0..n).collect();
            rng.shuffle(&mut order);
            let mut perm = vec![0u32; n as usize];
            for i in 0..n as usize {
                perm[order[i] as usize] = order[(i + 1) % n as usize];
            }
            GenState::Chase { perm, pos: 0 }
        }
        AppClass::Zipf {
            footprint_x_llc,
            exponent,
        } => {
            let n = ((llc as f64 * footprint_x_llc) as u64).max(64) as usize;
            let mut cdf = Vec::with_capacity(n);
            let mut total = 0.0;
            for i in 0..n {
                total += 1.0 / ((i + 1) as f64).powf(exponent);
                cdf.push(total);
            }
            GenState::Zipf { cdf, total }
        }
        AppClass::Stencil { footprint_x_llc } => GenState::Stencil {
            footprint: ((llc as f64 * footprint_x_llc) as u64).max(256),
            pos: 0,
            row: (l2 / 2).max(16),
        },
        AppClass::Tiled {
            tile_x_l2,
            tiles,
            passes_per_tile,
        } => GenState::Tiled {
            tile: tile_lines(tile_x_l2, l2),
            tiles: tiles as u64,
            passes: passes_per_tile,
            pos: 0,
            tile_idx: 0,
            pass: 0,
        },
        AppClass::PhasedScan {
            hot_x_l2,
            stream_x_llc,
        } => GenState::Phased {
            hot: ((l2 as f64 * hot_x_l2) as u64).max(8),
            stream: ((llc as f64 * stream_x_llc) as u64).max(64),
            in_hot: true,
            count: 0,
            pos: 0,
        },
    }
}

/// Advances the state machine and returns `(relative_line, pc_index)`.
fn next_line(state: &mut GenState, rng: &mut SimRng) -> (u64, u64) {
    match state {
        GenState::Sequential { footprint, pos } => {
            let l = *pos;
            *pos = (*pos + 1) % *footprint;
            (l, 0)
        }
        GenState::CircularSet {
            stride,
            sets,
            blocks,
            set_cursor,
            pointers,
        } => {
            let s = *set_cursor;
            *set_cursor = (*set_cursor + 1) % *sets;
            let p = &mut pointers[s as usize];
            let l = s + (*p as u64) * *stride;
            *p = ((*p as u64 + 1) % *blocks) as u32;
            (l, 1)
        }
        GenState::HotRandom { footprint } => (rng.below(*footprint), 2),
        GenState::Chase { perm, pos } => {
            let l = *pos as u64;
            *pos = perm[*pos as usize];
            (l, 3)
        }
        GenState::Zipf { cdf, total } => {
            let u = rng.next_f64() * *total;
            let idx = cdf.partition_point(|&c| c < u);
            (idx.min(cdf.len() - 1) as u64, 4)
        }
        GenState::Stencil {
            footprint,
            pos,
            row,
        } => {
            // Emit center, then +row, then -row around a sweeping cursor.
            let phase = *pos % 3;
            let center = (*pos / 3) % *footprint;
            let l = match phase {
                0 => center,
                1 => (center + *row) % *footprint,
                _ => (center + *footprint - *row) % *footprint,
            };
            *pos += 1;
            (l, 5 + phase)
        }
        GenState::Tiled {
            tile,
            tiles,
            passes,
            pos,
            tile_idx,
            pass,
        } => {
            let base = *tile_idx * *tile;
            let l = base + *pos;
            *pos += 1;
            if *pos == *tile {
                *pos = 0;
                *pass += 1;
                if *pass == *passes {
                    *pass = 0;
                    *tile_idx = (*tile_idx + 1) % *tiles;
                }
            }
            (l, 8)
        }
        GenState::Phased {
            hot,
            stream,
            in_hot,
            count,
            pos,
        } => {
            *count += 1;

            if *in_hot {
                if *count >= PHASED_HOT_ACCESSES {
                    *in_hot = false;
                    *count = 0;
                }
                (rng.below(*hot), 9)
            } else {
                if *count >= PHASED_STREAM_ACCESSES {
                    *in_hot = true;
                    *count = 0;
                }
                let l = *hot + *pos;
                *pos = (*pos + 1) % *stream;
                (l, 10)
            }
        }
    }
}

/// Generates a core trace of `len` accesses for `spec`, with all lines
/// offset by `base_line` (multiprogrammed address-space isolation).
pub fn generate(
    spec: AppSpec,
    len: usize,
    base_line: u64,
    seed: u64,
    scale: ScaleParams,
) -> CoreTrace {
    let mut rng = SimRng::seed_from_u64(seed ^ x_app_seed(spec.name));
    let mut state = build_state(spec.class, scale, &mut rng);
    let gaps = Geometric::new(1.0 / (1.0 + spec.gap_mean), 255);
    let pc_base = pc_base(spec.name);
    let mut records = Vec::with_capacity(len);
    for _ in 0..len {
        let (rel, pc_idx) = next_line(&mut state, &mut rng);
        let line = base_line + rel;
        records.push(TraceRecord {
            addr: Addr::new(line << 6),
            pc: pc_base + pc_idx * 4,
            is_write: rng.chance(spec.write_ratio),
            gap: gaps.sample(&mut rng) as u8,
        });
    }
    CoreTrace {
        records,
        overlap: spec.overlap,
        app_name: spec.name,
    }
}

/// The first synthesized PC of `name`'s code region; `generate` adds
/// four bytes per pattern-site index.
fn pc_base(name: &str) -> u64 {
    0x10_0000 + 0x1000 * hash_name(name)
}

/// Stable per-app hash for PC-space separation.
fn hash_name(name: &str) -> u64 {
    name.bytes().fold(1469598103934665603u64, |h, b| {
        (h ^ b as u64).wrapping_mul(1099511628211)
    }) % 4096
}

/// Stable per-app seed salt.
fn x_app_seed(name: &str) -> u64 {
    hash_name(name).wrapping_mul(0x9E37_79B9_7F4A_7C15)
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
    fn all_apps_generate() {
        for app in APPS {
            let t = generate(app, 2_000, 0, 1, scale());
            assert_eq!(t.records.len(), 2_000, "{}", app.name);
            assert_eq!(t.app_name, app.name);
        }
    }

    #[test]
    fn phase_period_matches_the_generator_toggle_points() {
        let spec = app_by_name("scanphase").unwrap();
        let period = spec.phase_period(scale()).unwrap();
        assert_eq!(
            period,
            (PHASED_HOT_ACCESSES + PHASED_STREAM_ACCESSES) as u64
        );
        // The hot and stream phases emit distinct synthesized PCs
        // (pc_idx 9 vs 10), so the trace itself reveals which phase
        // each access came from — pin the advertised period to the
        // generator's actual alternation over two-plus cycles.
        let t = generate(spec, 2 * period as usize + 500, 0, 1, scale());
        let base_pc = pc_base(spec.name);
        for (i, r) in t.records.iter().enumerate() {
            let in_hot = (i as u64 % period) < PHASED_HOT_ACCESSES as u64;
            let expect = base_pc + if in_hot { 9 * 4 } else { 10 * 4 };
            assert_eq!(r.pc, expect, "access {i} in the wrong phase");
        }
    }

    #[test]
    fn phase_periods_cover_exactly_the_segmented_classes() {
        // Tiled: one tile visit = tile lines × passes per tile, derived
        // through the same helper the generator state uses.
        let tiles = app_by_name("tiles").unwrap();
        let expect = ((scale().l2_lines as f64 * 0.6) as u64).max(16) * 8;
        assert_eq!(tiles.phase_period(scale()), Some(expect));
        // Classes without fixed-length segments decline.
        for name in ["stream", "hotl2", "chase", "zipfdb", "stencil", "circset"] {
            assert_eq!(
                app_by_name(name).unwrap().phase_period(scale()),
                None,
                "{name}"
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(APPS[2], 1_000, 0, 7, scale());
        let b = generate(APPS[2], 1_000, 0, 7, scale());
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn different_seeds_differ_for_random_apps() {
        let a = generate(app_by_name("hotl2").unwrap(), 1_000, 0, 1, scale());
        let b = generate(app_by_name("hotl2").unwrap(), 1_000, 0, 2, scale());
        assert_ne!(a.records, b.records);
    }

    #[test]
    fn base_line_offsets_address_space() {
        let base = 1u64 << 30;
        let t = generate(APPS[0], 500, base, 1, scale());
        assert!(t.records.iter().all(|r| r.addr.line().raw() >= base));
    }

    #[test]
    fn write_ratio_is_respected() {
        let app = app_by_name("wstream").unwrap();
        let t = generate(app, 20_000, 0, 3, scale());
        let writes = t.records.iter().filter(|r| r.is_write).count();
        let ratio = writes as f64 / t.records.len() as f64;
        assert!((ratio - 0.70).abs() < 0.03, "ratio {ratio}");
    }

    #[test]
    fn circset_maps_to_few_llc_sets() {
        // All accesses of the circular-set pattern must land in the
        // covered (bank, set) pairs of a 16-way LLC.
        let app = app_by_name("circset").unwrap();
        let t = generate(app, 10_000, 0, 5, scale());
        let llc = ziv_common::config::LlcConfig::from_total_capacity(16 * 1024 * 64, 16, 8);
        let mut pairs = std::collections::HashSet::new();
        for r in &t.records {
            let line = r.addr.line();
            pairs.insert((llc.bank_of(line), llc.set_of(line)));
        }
        // Half the sets covered: 512 of 1024 (bank, set) pairs.
        assert!(pairs.len() <= 512, "covered {} set-pairs", pairs.len());
        // And the per-set circular depth exceeds the associativity:
        let mut per_set_lines: std::collections::HashMap<_, std::collections::HashSet<u64>> =
            std::collections::HashMap::new();
        for r in &t.records {
            let line = r.addr.line();
            per_set_lines
                .entry((llc.bank_of(line), llc.set_of(line)))
                .or_default()
                .insert(line.raw());
        }
        let max_depth = per_set_lines.values().map(|s| s.len()).max().unwrap();
        assert!(
            max_depth > 16,
            "max per-set depth {max_depth} must exceed associativity"
        );
    }

    #[test]
    fn hot_private_stays_within_l2_scale() {
        let app = app_by_name("hotl2").unwrap();
        let t = generate(app, 5_000, 0, 9, scale());
        let max = t.records.iter().map(|r| r.addr.line().raw()).max().unwrap();
        assert!(
            max < 256,
            "footprint must be half the 512-line L2, got {max}"
        );
    }

    #[test]
    fn zipf_is_skewed() {
        let app = app_by_name("zipfdb").unwrap();
        let t = generate(app, 50_000, 0, 11, scale());
        let mut counts = std::collections::HashMap::new();
        for r in &t.records {
            *counts.entry(r.addr.line().raw()).or_insert(0u64) += 1;
        }
        let mut freqs: Vec<u64> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u64 = freqs.iter().take(10).sum();
        assert!(
            top10 as f64 > 0.05 * t.records.len() as f64,
            "zipf head too flat: {top10}"
        );
    }

    #[test]
    fn chase_visits_whole_cycle() {
        let app = app_by_name("chase").unwrap();
        let small = ScaleParams {
            llc_lines: 64,
            l2_lines: 16,
        };
        let t = generate(app, 128, 0, 13, small);
        let distinct: std::collections::HashSet<u64> =
            t.records.iter().map(|r| r.addr.line().raw()).collect();
        assert_eq!(
            distinct.len(),
            128,
            "a permutation cycle visits every line once per lap"
        );
    }

    #[test]
    fn gap_mean_is_plausible() {
        let t = generate(APPS[0], 50_000, 0, 15, scale());
        let mean = t.records.iter().map(|r| r.gap as f64).sum::<f64>() / t.records.len() as f64;
        assert!((mean - 3.0).abs() < 0.3, "gap mean {mean}");
    }
}
