//! Pins the generated traces themselves, not only the results simulated
//! from them.
//!
//! The campaign ledger caches a cell by its recipe's inputs (see
//! `recipe.rs`), never by the trace those inputs generate, so a
//! generator whose output drifts would leave the ledger serving results
//! of traces it no longer builds. This test digests every field of
//! every record (and each trace's name, overlap and attack roles) that
//! `Recipe::build` returns for every recipe kind at two seeds, and
//! compares the digests with ones recorded before any generator was
//! optimised. A change to a generator that is meant to alter its traces
//! must regenerate this table in the same commit.

use ziv_common::Fnv1a;
use ziv_workloads::{AttackRecipe, MtApp, Recipe, ScaleParams, Workload};

const CORES: usize = 4;
const ACCESSES_PER_CORE: usize = 3_000;
const SEEDS: [u64; 2] = [0x2026, 1];

fn scale() -> ScaleParams {
    ScaleParams {
        llc_lines: 16 * 1024,
        l2_lines: 512,
    }
}

/// Every recipe kind: the 12 homogeneous applications, heterogeneous
/// mixes 0–3, the five multithreaded applications and both attack
/// scenarios.
fn recipes(seed: u64) -> Vec<Recipe> {
    let (n, s) = (ACCESSES_PER_CORE, scale());
    let mut all = Recipe::default_suite(4, CORES, n, seed, s);
    all.extend(
        MtApp::ALL
            .iter()
            .map(|&app| Recipe::multithreaded(app, CORES, n, seed, s)),
    );
    all.extend(
        [AttackRecipe::prime_probe(8), AttackRecipe::hammer(8)]
            .into_iter()
            .map(|a| Recipe::attack(a, CORES, n, seed, s)),
    );
    all
}

fn trace_digest(wl: &Workload) -> u64 {
    let mut h = Fnv1a::new();
    h.write_str(&wl.name);
    h.write_usize(wl.traces.len());
    for t in &wl.traces {
        h.write_str(t.app_name);
        h.write_f64(t.overlap);
        h.write_usize(t.records.len());
        for r in &t.records {
            h.write_u64(r.addr.raw());
            h.write_u64(r.pc);
            h.write_bool(r.is_write);
            h.write_bytes(&[r.gap]);
        }
    }
    match &wl.attack {
        None => h.write_bool(false),
        Some(plan) => {
            h.write_bool(true);
            for roles in [&plan.attacker_cores, &plan.victim_cores] {
                h.write_usize(roles.len());
                roles.iter().for_each(|&c| h.write_usize(c));
            }
            h.write_usize(plan.probe_lines.len());
            plan.probe_lines.iter().for_each(|&l| h.write_u64(l));
        }
    }
    h.finish()
}

/// `(seed, workload name, digest)`, in the order [`recipes`] lists them.
const PINS: &[(u64, &str, u64)] = &[
    (0x2026, "homo-stream", 0xe33f673786e8524c),
    (0x2026, "homo-wstream", 0x892273012573465e),
    (0x2026, "homo-circset", 0x5b67c9e06ff20265),
    (0x2026, "homo-circbig", 0x89afb5359ca1c30a),
    (0x2026, "homo-hotl2", 0x2354628af3063781),
    (0x2026, "homo-hotl2big", 0xf3e959a555deb8af),
    (0x2026, "homo-chase", 0x1b58a8ba67344c80),
    (0x2026, "homo-zipfdb", 0x15c1f1c12b587d31),
    (0x2026, "homo-stencil", 0x1cbd3a35959ef0c1),
    (0x2026, "homo-tiles", 0x100f005f2b631d43),
    (0x2026, "homo-scanphase", 0x0dea109d903c052a),
    (0x2026, "homo-zipfnear", 0x3b268479c29a8193),
    (0x2026, "hetero-00", 0xf9fbad043cc57791),
    (0x2026, "hetero-01", 0xd1b84580fa688dd5),
    (0x2026, "hetero-02", 0xcf56b93e0b549fd3),
    (0x2026, "hetero-03", 0x5cab64b756c42c49),
    (0x2026, "canneal", 0xcfc17275b5bf01ca),
    (0x2026, "facesim", 0x4c26a37b0bbf275f),
    (0x2026, "vips", 0x2e9fbbfe8bf1fdab),
    (0x2026, "316.applu", 0xd24f54c1d58b107f),
    (0x2026, "TPC-E", 0xe84c64b693c55f3b),
    (0x2026, "attack-primeprobe", 0xe9d42ccd70f8e063),
    (0x2026, "attack-hammer", 0xae07dbf4d542e516),
    (0x1, "homo-stream", 0x2eb8dbfebe6b1cb7),
    (0x1, "homo-wstream", 0x2ee9cc1c12308c99),
    (0x1, "homo-circset", 0x21248a6bbf756d3b),
    (0x1, "homo-circbig", 0xdca10797f3e3085c),
    (0x1, "homo-hotl2", 0x81fb2d62fa22d43b),
    (0x1, "homo-hotl2big", 0x1725de9596782a5d),
    (0x1, "homo-chase", 0xf68a994a3ebc1b32),
    (0x1, "homo-zipfdb", 0x580a8345842fe493),
    (0x1, "homo-stencil", 0xe4c5dc7e7ec93054),
    (0x1, "homo-tiles", 0x186daa6d72afb255),
    (0x1, "homo-scanphase", 0x4a63f924f61126e6),
    (0x1, "homo-zipfnear", 0xfb78a543b1888b56),
    (0x1, "hetero-00", 0x446b0abe131487f7),
    (0x1, "hetero-01", 0x59ba5b304de90919),
    (0x1, "hetero-02", 0x9f8cabd13e3cb5f7),
    (0x1, "hetero-03", 0xed82de5cd577ad24),
    (0x1, "canneal", 0x38752c9fbee30862),
    (0x1, "facesim", 0x1245592c50e2efce),
    (0x1, "vips", 0xeb2a32fd689464f9),
    (0x1, "316.applu", 0x50ae9fb81a283776),
    (0x1, "TPC-E", 0xa6e2cdd8fc1ea6d3),
    (0x1, "attack-primeprobe", 0xfb547038fd30bff6),
    (0x1, "attack-hammer", 0x16ce31963b12376e),
];

#[test]
fn every_recipe_kind_rebuilds_its_pinned_trace() {
    let got: Vec<(u64, String, u64)> = SEEDS
        .iter()
        .flat_map(|&seed| {
            recipes(seed).into_iter().map(move |r| {
                let wl = r.build();
                assert_eq!(wl.name, r.workload_name());
                (seed, wl.name.clone(), trace_digest(&wl))
            })
        })
        .collect();
    let pinned: Vec<(u64, String, u64)> = PINS
        .iter()
        .map(|&(seed, name, d)| (seed, name.to_string(), d))
        .collect();
    if got != pinned {
        let table: String = got
            .iter()
            .map(|(seed, name, d)| format!("    ({seed:#x}, {name:?}, {d:#018x}),\n"))
            .collect();
        panic!("generated traces drifted; they now digest to:\n{table}");
    }
}
