//! Focused tests of the `SharedLlc` victim-selection modes, driving the
//! LLC and sparse directory directly (no private caches, no timing) for
//! precise control over which blocks are "privately cached".

use ziv_common::config::{LlcConfig, SystemConfig};
use ziv_common::{CoreId, LineAddr};
use ziv_core::llc::{LlcMode, SharedLlc, ZivProperty};
use ziv_directory::{DirectoryMode, SparseDirectory};
use ziv_replacement::{AccessCtx, PolicyKind};

/// 2 banks × 4 sets × 4 ways = 32 blocks.
fn llc(mode: LlcMode, policy: PolicyKind) -> SharedLlc {
    let cfg = LlcConfig::from_total_capacity(32 * 64, 4, 2);
    SharedLlc::new(cfg, mode, |b| policy.build(cfg.bank_geometry, b as u64), 7)
}

fn dir() -> SparseDirectory {
    // Geometry details are irrelevant here; any tracked line counts as
    // privately cached.
    SparseDirectory::new(&SystemConfig::scaled(), DirectoryMode::ZeroDev)
}

fn ctx(line: u64, seq: u64) -> AccessCtx {
    AccessCtx::demand(
        LineAddr::new(line),
        0x400 + line % 8,
        CoreId::new(0),
        seq,
        seq,
    )
}

/// Lines mapping to bank 0, set 0: multiples of 8.
fn l(i: u64) -> LineAddr {
    LineAddr::new(i * 8)
}

/// Fills bank 0 / set 0 with lines l(0)..l(4).
fn fill_set(llc: &mut SharedLlc, dir: &SparseDirectory, seq: &mut u64) {
    for i in 0..4u64 {
        let line = l(i);
        let out = llc.fill(line, &ctx(line.raw(), *seq), dir, CoreId::new(0), *seq);
        assert!(out.evicted.is_none(), "warm-up fills must use invalid ways");
        *seq += 1;
    }
}

#[test]
fn qbs_skips_privately_cached_candidates() {
    let mut c = llc(LlcMode::Qbs, PolicyKind::Lru);
    let mut d = dir();
    let mut seq = 0;
    fill_set(&mut c, &d, &mut seq);
    // LRU order is l(0), l(1), l(2), l(3). Mark l(0) and l(1) privately
    // cached: QBS must skip (and protect) them and evict l(2).
    d.record_fill(l(0), CoreId::new(1));
    d.record_fill(l(1), CoreId::new(1));
    let out = c.fill(l(9), &ctx(l(9).raw(), seq), &d, CoreId::new(0), seq);
    assert_eq!(out.evicted.unwrap().line, l(2));
    assert_eq!(out.qbs_queries, 3, "queried l(0), l(1), then found l(2)");
}

#[test]
fn qbs_falls_back_to_baseline_victim_when_all_cached() {
    let mut c = llc(LlcMode::Qbs, PolicyKind::Lru);
    let mut d = dir();
    let mut seq = 0;
    fill_set(&mut c, &d, &mut seq);
    for i in 0..4u64 {
        d.record_fill(l(i), CoreId::new(1));
    }
    let out = c.fill(l(9), &ctx(l(9).raw(), seq), &d, CoreId::new(0), seq);
    // Every candidate was privately cached: QBS victimizes the (pre-
    // promotion) LRU block, generating the inclusion victim the paper
    // says it cannot avoid.
    assert_eq!(out.evicted.unwrap().line, l(0));
    assert_eq!(out.qbs_queries, 4);
}

#[test]
fn sharp_step2_prefers_requesters_own_blocks() {
    let mut c = llc(LlcMode::Sharp, PolicyKind::Lru);
    let mut d = dir();
    let mut seq = 0;
    fill_set(&mut c, &d, &mut seq);
    // All blocks privately cached somewhere; l(2) only by the requester.
    d.record_fill(l(0), CoreId::new(1));
    d.record_fill(l(1), CoreId::new(1));
    d.record_fill(l(2), CoreId::new(0));
    d.record_fill(l(3), CoreId::new(1));
    let out = c.fill(l(9), &ctx(l(9).raw(), seq), &d, CoreId::new(0), seq);
    assert_eq!(
        out.evicted.unwrap().line,
        l(2),
        "step 2: requester-only block"
    );
    assert!(!out.sharp_alarm);
}

#[test]
fn sharp_step3_raises_alarm_when_everything_is_shared() {
    let mut c = llc(LlcMode::Sharp, PolicyKind::Lru);
    let mut d = dir();
    let mut seq = 0;
    fill_set(&mut c, &d, &mut seq);
    for i in 0..4u64 {
        d.record_fill(l(i), CoreId::new(1));
        d.record_fill(l(i), CoreId::new(2));
    }
    let out = c.fill(l(9), &ctx(l(9).raw(), seq), &d, CoreId::new(0), seq);
    assert!(out.sharp_alarm, "random step 3 must fire");
    assert!(out.evicted.is_some());
}

#[test]
fn ziv_in_set_alternate_picks_not_in_prc_block() {
    let mut c = llc(LlcMode::Ziv(ZivProperty::NotInPrC), PolicyKind::Lru);
    let mut d = dir();
    let mut seq = 0;
    // Fill EVERY set of both banks so the global Invalid PV is empty
    // (the paper gives "global set satisfying Invalid" priority over
    // "original set satisfying NotInPrC" — Section III-D4's order).
    for bank in 0..2u64 {
        for set in 0..4u64 {
            for way in 0..4u64 {
                let line = LineAddr::new(bank + set * 2 + way * 8);
                c.fill(line, &ctx(line.raw(), seq), &d, CoreId::new(0), seq);
                seq += 1;
            }
        }
    }
    // Refresh recency of set 0 so LRU order is l(0)..l(3) again.
    for i in 0..4u64 {
        c.on_hit(c.probe(l(i)).unwrap(), &ctx(l(i).raw(), seq));
        seq += 1;
    }
    // Baseline victim l(0) is privately cached; l(1)..l(3) are not.
    d.record_fill(l(0), CoreId::new(1));
    for i in 1..4u64 {
        let loc = c.probe(l(i)).unwrap();
        c.update_state(loc, |s| s.not_in_prc = true);
    }
    let out = c.fill(l(9), &ctx(l(9).raw(), seq), &d, CoreId::new(0), seq);
    assert!(
        out.relocation.is_none(),
        "in-set alternate needs no relocation"
    );
    assert!(out.in_set_alternate);
    assert_eq!(out.evicted.unwrap().line, l(1), "NotInPrC closest to LRU");
}

#[test]
fn ziv_relocates_to_another_set_when_own_set_exhausted() {
    let mut c = llc(LlcMode::Ziv(ZivProperty::NotInPrC), PolicyKind::Lru);
    let mut d = dir();
    let mut seq = 0;
    fill_set(&mut c, &d, &mut seq);
    // Every block in set 0 privately cached; set 1 of the same bank has
    // an invalid way -> global Invalid PV finds it.
    for i in 0..4u64 {
        d.record_fill(l(i), CoreId::new(1));
    }
    let out = c.fill(l(9), &ctx(l(9).raw(), seq), &d, CoreId::new(0), seq);
    let rel = out.relocation.expect("must relocate");
    assert_eq!(rel.moved_line, l(0), "the baseline victim moves");
    assert!(!rel.cross_bank);
    assert_ne!(rel.to.set, 0, "relocated into a different set");
    assert!(
        rel.evicted_from_rs.is_none(),
        "invalid way absorbed the move"
    );
    assert!(out.evicted.is_none());
    // The relocated block is findable only through its recorded
    // location; the home-set probe must miss.
    assert!(c.probe(l(0)).is_none());
    assert_eq!(c.state(rel.to).line, l(0));
    assert!(c.state(rel.to).relocated);
}

#[test]
fn ziv_crosses_banks_when_home_bank_is_all_private() {
    let mut c = llc(LlcMode::Ziv(ZivProperty::NotInPrC), PolicyKind::Lru);
    let mut d = dir();
    let mut seq = 0;
    // Fill ALL of bank 0 (sets 0..4, lines i*2 for even bank bit) and
    // mark everything privately cached.
    for set in 0..4u64 {
        for way in 0..4u64 {
            let line = LineAddr::new(set * 2 + way * 8);
            let out = c.fill(line, &ctx(line.raw(), seq), &d, CoreId::new(0), seq);
            assert!(out.evicted.is_none());
            d.record_fill(line, CoreId::new(1));
            seq += 1;
        }
    }
    // A new fill to bank 0 set 0: no Invalid or NotInPrC candidates in
    // the whole bank -> cross-bank relocation into bank 1.
    let newline = LineAddr::new(16 * 8); // bank 0, set 0
    let out = c.fill(newline, &ctx(newline.raw(), seq), &d, CoreId::new(0), seq);
    let rel = out.relocation.expect("must relocate across banks");
    assert!(rel.cross_bank);
    assert_eq!(rel.to.bank.index(), 1);
    assert!(!out.ziv_fallback);
}

#[test]
fn char_on_base_prefers_likely_dead_blocks() {
    let mut c = llc(LlcMode::CharOnBase, PolicyKind::Lru);
    let mut d = dir();
    let mut seq = 0;
    fill_set(&mut c, &d, &mut seq);
    d.record_fill(l(0), CoreId::new(1)); // baseline victim is cached
                                         // l(3) (MRU!) is likely dead and not cached.
    let loc = c.probe(l(3)).unwrap();
    c.update_state(loc, |s| {
        s.likely_dead = true;
        s.not_in_prc = true;
    });
    let out = c.fill(l(9), &ctx(l(9).raw(), seq), &d, CoreId::new(0), seq);
    assert_eq!(out.evicted.unwrap().line, l(3));
}

#[test]
fn relocation_spread_is_round_robin() {
    // The paper motivates round-robin nextRS selection as spreading the
    // relocation load across eligible sets.
    let mut c = llc(LlcMode::Ziv(ZivProperty::NotInPrC), PolicyKind::Lru);
    let mut d = dir();
    let mut seq = 0;
    // Fill sets 1..4 of bank 0 with NotInPrC blocks (relocation fodder).
    for set in 1..4u64 {
        for way in 0..4u64 {
            let line = LineAddr::new(set * 2 + way * 8);
            c.fill(line, &ctx(line.raw(), seq), &d, CoreId::new(0), seq);
            let loc = c.probe(line).unwrap();
            c.update_state(loc, |s| s.not_in_prc = true);
            seq += 1;
        }
    }
    // Set 0: all privately cached.
    fill_set(&mut c, &d, &mut seq);
    for i in 0..4u64 {
        d.record_fill(l(i), CoreId::new(1));
    }
    // Repeated conflicting fills to set 0: each relocates a victim; the
    // targets must rotate across the eligible sets.
    let mut targets = Vec::new();
    for k in 0..6u64 {
        let newline = l(10 + k);
        let out = c.fill(newline, &ctx(newline.raw(), seq), &d, CoreId::new(0), seq);
        seq += 1;
        if let Some(rel) = out.relocation {
            targets.push(rel.to.set);
            // Keep pressure: the newly filled line also becomes private.
            d.record_fill(newline, CoreId::new(1));
        }
    }
    assert!(
        targets.len() >= 3,
        "need several relocations, got {targets:?}"
    );
    let distinct: std::collections::HashSet<_> = targets.iter().collect();
    assert!(
        distinct.len() >= 2,
        "round-robin must use multiple sets: {targets:?}"
    );
}
