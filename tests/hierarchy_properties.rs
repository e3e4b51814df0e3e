//! Properties of the whole hierarchy under seeded access interleavings:
//! every ZIV variant is inclusion-victim-free, every mode keeps its
//! structural invariants, and the every-access auditor stays silent on
//! healthy hierarchies, so any report in a campaign is a model bug,
//! not auditor noise. On one core, cyclic loops miss at each level
//! exactly as the closed-form LRU model predicts.

mod support;

use support::{property, steps, Clock, Step};
use ziv::common::LineAddr;
use ziv::core::Auditor;
use ziv::prelude::*;

/// Runs `steps` on a fresh 3-core hierarchy, calling `after` after
/// every access with the access's index.
fn run_steps(
    mode: LlcMode,
    policy: PolicyKind,
    steps: &[Step],
    mut after: impl FnMut(&CacheHierarchy, u64),
) -> CacheHierarchy {
    let sys = support::tiny(3, 128, DirRatio::X2);
    let cfg = HierarchyConfig::new(sys)
        .with_mode(mode)
        .with_policy(policy);
    let mut h = CacheHierarchy::new(&cfg);
    let mut clock = Clock::default();
    for (i, s) in steps.iter().enumerate() {
        clock.access(&mut h, s.core, s.line, s.write);
        after(&h, i as u64);
    }
    h
}

/// Audits the full invariant set (structure and metric conservation)
/// after every access.
fn audit_every_access(mode: LlcMode, policy: PolicyKind, steps: &[Step]) {
    run_steps(mode, policy, steps, |h, i| {
        if let Err(v) = Auditor::check(h, i) {
            panic!("{} after access {i}: {v}", mode.label());
        }
    });
}

fn run_plain(mode: LlcMode, policy: PolicyKind, steps: &[Step]) -> CacheHierarchy {
    run_steps(mode, policy, steps, |_, _| {})
}

#[test]
fn every_access_audit_is_silent_on_healthy_lru_modes() {
    const MODES: [LlcMode; 8] = [
        LlcMode::Inclusive,
        LlcMode::NonInclusive,
        LlcMode::Qbs,
        LlcMode::Sharp,
        LlcMode::CharOnBase,
        LlcMode::Ziv(ZivProperty::NotInPrC),
        LlcMode::Ziv(ZivProperty::LruNotInPrC),
        LlcMode::Ziv(ZivProperty::LikelyDead),
    ];
    property(
        "every_access_audit_is_silent_on_healthy_lru_modes",
        16,
        |rng| (rng.below_usize(MODES.len()), steps(rng, 3, 400, 200, 800)),
        |&m, steps| audit_every_access(MODES[m], PolicyKind::Lru, steps),
    );
}

#[test]
fn every_access_audit_is_silent_on_healthy_rrpv_modes() {
    const MODES: [LlcMode; 2] = [
        LlcMode::Ziv(ZivProperty::MaxRrpvNotInPrC),
        LlcMode::Ziv(ZivProperty::MaxRrpvLikelyDead),
    ];
    property(
        "every_access_audit_is_silent_on_healthy_rrpv_modes",
        16,
        |rng| (rng.below_usize(MODES.len()), steps(rng, 3, 400, 200, 800)),
        |&m, steps| audit_every_access(MODES[m], PolicyKind::Hawkeye, steps),
    );
}

#[test]
fn ziv_modes_never_generate_inclusion_victims() {
    const PROPERTIES: [ZivProperty; 3] = [
        ZivProperty::NotInPrC,
        ZivProperty::LruNotInPrC,
        ZivProperty::LikelyDead,
    ];
    property(
        "ziv_modes_never_generate_inclusion_victims",
        24,
        |rng| (rng.below_usize(3), steps(rng, 3, 400, 200, 1200)),
        |&p, steps| {
            let h = run_plain(LlcMode::Ziv(PROPERTIES[p]), PolicyKind::Lru, steps);
            assert_eq!(h.metrics().inclusion_victims, 0, "inclusion victims");
            assert_eq!(h.metrics().ziv_guarantee_fallbacks, 0, "fallbacks");
            assert_eq!(h.verify_invariants(), Ok(()));
        },
    );
}

#[test]
fn ziv_hawkeye_modes_never_generate_inclusion_victims() {
    const PROPERTIES: [ZivProperty; 2] =
        [ZivProperty::MaxRrpvNotInPrC, ZivProperty::MaxRrpvLikelyDead];
    property(
        "ziv_hawkeye_modes_never_generate_inclusion_victims",
        24,
        |rng| (rng.below_usize(2), steps(rng, 3, 400, 200, 1000)),
        |&p, steps| {
            let h = run_plain(LlcMode::Ziv(PROPERTIES[p]), PolicyKind::Hawkeye, steps);
            assert_eq!(h.metrics().inclusion_victims, 0, "inclusion victims");
            assert_eq!(h.verify_invariants(), Ok(()));
        },
    );
}

#[test]
fn all_modes_preserve_structural_invariants() {
    const MODES: [LlcMode; 5] = [
        LlcMode::Inclusive,
        LlcMode::NonInclusive,
        LlcMode::Qbs,
        LlcMode::Sharp,
        LlcMode::CharOnBase,
    ];
    property(
        "all_modes_preserve_structural_invariants",
        24,
        |rng| (rng.below_usize(MODES.len()), steps(rng, 3, 400, 200, 800)),
        |&m, steps| {
            let h = run_plain(MODES[m], PolicyKind::Lru, steps);
            assert_eq!(h.verify_invariants(), Ok(()), "{}", MODES[m].label());
        },
    );
}

#[test]
fn noninclusive_mode_never_back_invalidates_on_llc_eviction() {
    property(
        "noninclusive_mode_never_back_invalidates_on_llc_eviction",
        24,
        |rng| ((), steps(rng, 2, 400, 200, 800)),
        |_, steps| {
            let h = run_plain(LlcMode::NonInclusive, PolicyKind::Lru, steps);
            assert_eq!(h.metrics().inclusion_victims, 0, "inclusion victims");
        },
    );
}

#[test]
fn zerodev_never_directory_back_invalidates() {
    property(
        "zerodev_never_directory_back_invalidates",
        24,
        |rng| ((), steps(rng, 3, 400, 200, 800)),
        |_, steps| {
            let sys = support::tiny(3, 128, DirRatio::Quarter);
            let cfg = HierarchyConfig::new(sys)
                .with_mode(LlcMode::Ziv(ZivProperty::NotInPrC))
                .with_dir_mode(DirectoryMode::ZeroDev);
            let mut h = CacheHierarchy::new(&cfg);
            let mut clock = Clock::default();
            for s in steps {
                clock.read(&mut h, s.core, s.line);
            }
            assert_eq!(
                h.metrics().directory_back_invalidations,
                0,
                "back-invalidations"
            );
            assert_eq!(h.metrics().inclusion_victims, 0, "inclusion victims");
            assert_eq!(h.verify_invariants(), Ok(()));
        },
    );
}

/// How many of a loop's lines `0..n` map to each set a level uses.
fn shares(n: u64, set_of: impl Fn(LineAddr) -> u64) -> Vec<u64> {
    let mut k = std::collections::BTreeMap::new();
    for line in 0..n {
        *k.entry(set_of(LineAddr::new(line))).or_insert(0) += 1;
    }
    k.into_values().collect()
}

/// The closed-form LRU miss count of a cyclic loop run for `laps` laps
/// (the analytic LRU review, arXiv 1307.6406): a set whose share `k`
/// of the loop fits its ways misses `k` times, cold, and a set the loop
/// overflows misses all `k × laps` of its accesses.
fn lru_loop_misses(shares: &[u64], ways: u64, laps: u64) -> u64 {
    shares
        .iter()
        .map(|&k| if k <= ways { k } else { k * laps })
        .sum()
}

/// Cyclic loops of `n` consecutive lines on the 1-core tiny machine:
/// the L1D, the L2 and the LLC each miss exactly as the closed form
/// predicts, in the inclusive, non-inclusive and ZIV-NotInPrC LLCs.
#[test]
fn cyclic_loops_miss_as_the_closed_form_lru_model_predicts() {
    const LAPS: u64 = 5;
    let sys = support::tiny(1, 128, DirRatio::X2);
    let (l1, l2, llc) = (sys.l1d, sys.l2, sys.llc);
    for n in [2, 4, 8, 12, 16, 64, 128, 129, 160, 256, 1000] {
        let levels = [
            (shares(n, |l| l1.set_of(l) as u64), l1.ways as u64),
            (shares(n, |l| l2.set_of(l) as u64), l2.ways as u64),
            (
                shares(n, |l| {
                    ((llc.bank_of(l).index() as u64) << 32) | llc.set_of(l) as u64
                }),
                llc.bank_geometry.ways as u64,
            ),
        ];
        // A level sees the whole loop, or only its first lap, only when
        // the level above it holds the loop or misses every access.
        for (k, ways) in &levels[..2] {
            assert!(
                k.iter().all(|k| k <= ways) || k.iter().all(|k| k > ways),
                "n = {n}: the closed form does not apply below a level the loop half fits"
            );
        }
        let want = levels.map(|(k, ways)| lru_loop_misses(&k, ways, LAPS));
        for mode in [
            LlcMode::Inclusive,
            LlcMode::NonInclusive,
            LlcMode::Ziv(ZivProperty::NotInPrC),
        ] {
            let cfg = HierarchyConfig::new(sys.clone())
                .with_mode(mode)
                .with_policy(PolicyKind::Lru);
            let mut h = CacheHierarchy::new(&cfg);
            let mut clock = Clock::default();
            for _ in 0..LAPS {
                for line in 0..n {
                    clock.read(&mut h, 0, line);
                }
            }
            let m = h.metrics();
            let got = [
                m.per_core[0].l1_misses,
                m.per_core[0].l2_misses,
                m.llc_misses,
            ];
            assert_eq!(got, want, "{} over a loop of {n} lines", mode.label());
        }
    }
}
