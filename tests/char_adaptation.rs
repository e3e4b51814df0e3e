//! End-to-end test of the Fig 7 CHAR adaptation loop: relocation demand
//! drains the LikelyDead PV, the LLC bank lowers `d`, the new threshold
//! rides eviction-notice acks to the L2 controllers, and dead-block
//! inference loosens.

mod support;

use ziv::prelude::*;
use ziv_char::CharConfig;

#[test]
fn relocation_pressure_lowers_the_char_threshold() {
    // Small decrement interval so the adaptation fires within the test.
    let char_cfg = CharConfig {
        decrement_interval: 64,
        ..CharConfig::default()
    };
    let cfg = HierarchyConfig::new(support::tiny(2, 64, DirRatio::X2))
        .with_mode(LlcMode::Ziv(ZivProperty::LikelyDead))
        .with_char(char_cfg);
    let mut h = CacheHierarchy::new(&cfg);
    assert_eq!(h.char_engine().bank_d(0), 6);

    // Drive a conflict-heavy pattern from both cores: privately cached
    // LLC victims force relocations, and with an empty LikelyDead PV the
    // banks must request lower thresholds.
    let mut rng = ziv::common::SimRng::seed_from_u64(1);
    let mut now = 0u64;
    for seq in 0..60_000u64 {
        let core = CoreId::new((seq % 2) as usize);
        // Mostly a hot set per core (stays privately cached) plus a
        // conflicting sweep.
        let line = if rng.chance(0.5) {
            rng.below(16)
        } else {
            16 + rng.below(512)
        };
        let a = Access::read(core, Addr::new(line * 64), 0x400 + line % 8);
        now += 1 + h.access(&a, now, seq);
    }
    h.verify_invariants().unwrap();
    assert_eq!(h.metrics().inclusion_victims, 0);
    assert!(h.metrics().relocations > 0, "pattern must relocate");

    let bank_ds: Vec<u8> = (0..2).map(|b| h.char_engine().bank_d(b)).collect();
    let core_ds: Vec<u8> = (0..2).map(|c| h.char_engine().core_d(c)).collect();
    assert!(
        bank_ds.iter().any(|&d| d < 6),
        "at least one bank must have lowered d: {bank_ds:?}"
    );
    assert!(
        core_ds.iter().any(|&d| d < 6),
        "the piggybacked d must reach the L2 controllers: {core_ds:?}"
    );
    assert!(h.char_engine().threshold_decrements() > 0);
}

#[test]
fn char_on_base_reduces_but_does_not_eliminate_victims() {
    // The Section V-A comparison point: CHARonBase reduces inclusion
    // victims relative to the baseline but offers no guarantee.
    let mut counts = Vec::new();
    for mode in [
        LlcMode::Inclusive,
        LlcMode::CharOnBase,
        LlcMode::Ziv(ZivProperty::LikelyDead),
    ] {
        let cfg = HierarchyConfig::new(support::tiny(2, 64, DirRatio::X2)).with_mode(mode);
        let mut h = CacheHierarchy::new(&cfg);
        let mut rng = ziv::common::SimRng::seed_from_u64(2);
        let mut now = 0u64;
        for seq in 0..40_000u64 {
            let core = CoreId::new((seq % 2) as usize);
            let line = if rng.chance(0.5) {
                rng.below(16)
            } else {
                16 + rng.below(512)
            };
            let a = Access::read(core, Addr::new(line * 64), 0x400 + line % 8);
            now += 1 + h.access(&a, now, seq);
        }
        counts.push((mode.label(), h.metrics().inclusion_victims));
    }
    let (_, inclusive) = counts[0].clone();
    let (_, char_on_base) = counts[1].clone();
    let (_, ziv) = counts[2].clone();
    assert!(inclusive > 0, "baseline must suffer victims: {counts:?}");
    assert!(char_on_base <= inclusive, "{counts:?}");
    assert_eq!(ziv, 0, "{counts:?}");
}
