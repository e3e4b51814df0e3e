//! What the integration tests share: the tiny machine most of them run
//! on, a driver clock, the seeded case runner every property test uses,
//! and a campaign whose cells straddle a wall-clock budget.
//!
//! A test file takes it with `mod support;`. Each test binary compiles
//! its own copy and uses only part of it, hence the `dead_code` allow.

#![allow(dead_code)]

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;
use ziv::common::config::{CacheGeometry, DramParams, LlcConfig, NocParams};
use ziv::common::SimRng;
use ziv::harness::{campaigns, Campaign, CampaignParams};
use ziv::prelude::*;
use ziv::workloads::Recipe;

/// A machine small enough that a few hundred accesses overflow every
/// level: 2-way L1s of 2 sets, a 2-way L2 of 4 sets, and a 2-bank,
/// 4-way LLC of `llc_lines` lines.
pub fn tiny(cores: usize, llc_lines: u64, dir_ratio: DirRatio) -> SystemConfig {
    SystemConfig {
        cores,
        l1i: CacheGeometry::new(2, 2),
        l1d: CacheGeometry::new(2, 2),
        l1_latency: 0,
        l2: CacheGeometry::new(4, 2),
        l2_latency: 4,
        llc: LlcConfig::from_total_capacity(llc_lines * 64, 4, 2),
        dir_ratio,
        dir_base_ways: 8,
        noc: NocParams::table1(),
        dram: DramParams::ddr3_2133(),
        base_cpi: 0.25,
        scale_denominator: 1,
    }
}

/// A driver clock: each access starts after the previous one ends.
#[derive(Default)]
pub struct Clock {
    now: u64,
    seq: u64,
}

impl Clock {
    /// Issues `core`'s access to `line` from `pc`, a store when `write`
    /// and an instruction fetch when `instr`, and returns its latency.
    pub fn issue(
        &mut self,
        h: &mut CacheHierarchy,
        core: usize,
        line: u64,
        pc: u64,
        write: bool,
        instr: bool,
    ) -> u64 {
        let a = Access {
            core: CoreId::new(core),
            addr: Addr::new(line * 64),
            pc,
            is_write: write,
            is_instr: instr,
        };
        let lat = h.access(&a, self.now, self.seq);
        self.now += 1 + lat;
        self.seq += 1;
        lat
    }

    pub fn access(&mut self, h: &mut CacheHierarchy, core: usize, line: u64, write: bool) {
        self.issue(h, core, line, 0x400 + line % 32, write, false);
    }

    pub fn read(&mut self, h: &mut CacheHierarchy, core: usize, line: u64) {
        self.access(h, core, line, false);
    }
}

/// One access of an arbitrary interleaving.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    pub core: usize,
    pub line: u64,
    pub write: bool,
}

/// `lo..hi` accesses (the count drawn uniformly) by `cores` cores over
/// `lines` lines, half of them writes.
pub fn steps(rng: &mut SimRng, cores: usize, lines: u64, lo: u64, hi: u64) -> Vec<Step> {
    (0..rng.range(lo, hi))
        .map(|_| Step {
            core: rng.below_usize(cores),
            line: rng.below(lines),
            write: rng.chance(0.5),
        })
        .collect()
}

/// Seed of a property's case 0; case `i` runs seed `BASE_SEED + i`.
const BASE_SEED: u64 = 0x5eed_0000;

/// The operation list of a case that is its scalar parameters alone.
pub const NO_OPS: Vec<()> = Vec::new();

/// Runs `cases` seeded cases of the property `name`.
///
/// Case `i` draws its scalar parameters and its operation list from a
/// [`SimRng`] seeded with `BASE_SEED + i`, then runs `check`, which
/// panics when the property fails. A failing case shrinks by halving
/// its operation list: while the first or the second half still fails,
/// keep that half, and repeat. The parameters stay as drawn. The runner
/// then panics with the property, the seed, the original and shrunk
/// operation counts, the shrunk case's own failure, and the shrunk case.
pub fn property<P: Debug, O: Debug>(
    name: &str,
    cases: u64,
    draw: impl Fn(&mut SimRng) -> (P, Vec<O>),
    mut check: impl FnMut(&P, &[O]),
) {
    let mut fails = |params: &P, ops: &[O]| -> Option<String> {
        let payload = catch_unwind(AssertUnwindSafe(|| check(params, ops))).err()?;
        Some(match payload.downcast::<String>() {
            Ok(msg) => *msg,
            Err(payload) => payload
                .downcast_ref::<&str>()
                .map_or("a non-string panic", |s| s)
                .to_string(),
        })
    };
    for case in 0..cases {
        let seed = BASE_SEED + case;
        let (params, ops) = draw(&mut SimRng::seed_from_u64(seed));
        let Some(mut failure) = fails(&params, &ops) else {
            continue;
        };
        let mut shrunk = &ops[..];
        'halve: while shrunk.len() > 1 {
            let (first, second) = shrunk.split_at(shrunk.len() / 2);
            for half in [first, second] {
                if let Some(f) = fails(&params, half) {
                    (shrunk, failure) = (half, f);
                    continue 'halve;
                }
            }
            break;
        }
        panic!(
            "property {name} failed at seed {seed:#x} ({} ops, shrunk to {}): {failure}\n\
             shrunk case: {params:?} {shrunk:?}",
            ops.len(),
            shrunk.len()
        );
    }
}

/// The wall-clock budget [`deadline_campaign`]'s cells straddle.
pub const CELL_BUDGET: Duration = Duration::from_millis(50);

/// The smoke campaign's specs over two recipes: recipe 0 issues 2M
/// accesses, hundreds of milliseconds even in a release build, so its
/// cells outrun [`CELL_BUDGET`] many times over; recipe 1 issues about
/// 200, a few milliseconds even unoptimized. Returns the campaign and
/// recipe 0's access count.
pub fn deadline_campaign() -> (Campaign, u64) {
    let smoke = campaigns::by_name("smoke", &CampaignParams::tiny()).expect("smoke campaign");
    let recipe = |accesses_per_core| Recipe {
        accesses_per_core,
        ..smoke.recipes[0]
    };
    let large = recipe(1_000_000);
    let large_accesses = (large.cores * large.accesses_per_core) as u64;
    let campaign = Campaign {
        name: "deadline".into(),
        description: "one cell per spec outruns the wall-clock budget".into(),
        specs: smoke.specs,
        recipes: vec![large, recipe(100)],
        baseline_spec: 0,
    };
    (campaign, large_accesses)
}
