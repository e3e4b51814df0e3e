//! End-to-end exercise of the paper's Fig 5 functional flow: an LLC
//! fill whose victim is privately cached triggers a relocation; the
//! relocated block is reachable through the sparse directory, can be
//! re-relocated, and dies when its last private copy leaves.

mod support;

use ziv::prelude::*;

struct Driver {
    h: CacheHierarchy,
    clock: support::Clock,
}

impl Driver {
    fn new(mode: LlcMode) -> Driver {
        // A 2-bank × 4-set × 4-way LLC of 32 blocks, so set conflicts
        // are trivial to construct.
        let cfg = HierarchyConfig::new(support::tiny(2, 32, DirRatio::X2)).with_mode(mode);
        Driver {
            h: CacheHierarchy::new(&cfg),
            clock: support::Clock::default(),
        }
    }

    fn read(&mut self, core: usize, line: u64) -> u64 {
        let pc = 0x400 + line % 4;
        self.clock.issue(&mut self.h, core, line, pc, false, false)
    }
}

/// Lines mapping to LLC bank 0, set 0 in the tiny machine (bank = line
/// & 1, set = (line >> 1) & 3): multiples of 8.
fn conflict_line(i: u64) -> u64 {
    i * 8
}

#[test]
fn fill_relocate_access_rerelocate_invalidate() {
    let mut d = Driver::new(LlcMode::Ziv(ZivProperty::NotInPrC));

    // Step 1: core 0 loads a hot block B into its private caches.
    let b = conflict_line(1); // line 8: L1 set 0, L2 set 0
    d.read(0, b);
    d.read(0, b);

    // Step 2: fill the same LLC set with other blocks not kept privately
    // (they conflict with B in the LLC but also in core 0's private
    // caches, so they evict each other from L2 while B stays hot in L1).
    // Keep B hot between conflict fills.
    for i in 2..12u64 {
        d.read(0, conflict_line(i));
        d.read(0, b); // keep B's recency in the private caches
    }

    // B must never have been back-invalidated.
    assert_eq!(d.h.metrics().inclusion_victims, 0);
    d.h.verify_invariants().unwrap();

    // If a relocation happened, B (or another privately cached victim)
    // is in the Relocated state and reachable through the directory.
    let relocated: Vec<_> =
        d.h.llc()
            .resident_blocks()
            .into_iter()
            .filter(|(_, st)| st.relocated)
            .collect();
    assert!(
        d.h.metrics().relocations > 0,
        "conflict pattern must force at least one relocation; metrics: {:?}",
        d.h.metrics().relocations
    );
    for (loc, st) in &relocated {
        assert_eq!(d.h.directory().relocated_location(st.line), Some(*loc));
    }

    // Step 3: the other core accesses B. The home-set lookup misses but
    // the directory finds the relocated copy — it must NOT go to memory
    // (an LLC hit, counted as such).
    let hits_before = d.h.metrics().llc_hits;
    let relocated_hits_before = d.h.metrics().relocated_hits;
    if d.h
        .directory()
        .relocated_location(ziv::common::LineAddr::new(b))
        .is_some()
    {
        d.read(1, b);
        assert_eq!(d.h.metrics().llc_hits, hits_before + 1);
        assert_eq!(d.h.metrics().relocated_hits, relocated_hits_before + 1);
    }

    d.h.verify_invariants().unwrap();
}

#[test]
fn relocated_block_invalidated_when_last_copy_leaves() {
    let mut d = Driver::new(LlcMode::Ziv(ZivProperty::NotInPrC));
    let b = conflict_line(1);
    d.read(0, b);
    for i in 2..12u64 {
        d.read(0, conflict_line(i));
        d.read(0, b);
    }
    if d.h
        .directory()
        .relocated_location(ziv::common::LineAddr::new(b))
        .is_none()
    {
        // The pattern didn't relocate B itself this time; nothing to do.
        return;
    }
    // Now force B out of core 0's private caches by thrashing its L1/L2
    // sets with lines that map to *different* LLC sets where possible.
    // (L1 set 0 and L2 set 0 for B: lines = multiples of 4 with line%8
    // != 0 avoid B's LLC set half the time.)
    for i in 1..40u64 {
        d.read(0, 4 * i);
    }
    // B is gone from core 0's private caches; its relocated LLC copy
    // must be gone too (Section III-C2: the life of a relocated block
    // ends with its last private copy).
    assert_eq!(
        d.h.directory()
            .relocated_location(ziv::common::LineAddr::new(b)),
        None
    );
    let still_relocated =
        d.h.llc()
            .resident_blocks()
            .into_iter()
            .any(|(_, st)| st.relocated && st.line == ziv::common::LineAddr::new(b));
    assert!(!still_relocated, "relocated copy of B must be invalidated");
    assert_eq!(d.h.metrics().inclusion_victims, 0);
    d.h.verify_invariants().unwrap();
}

#[test]
fn all_properties_survive_the_conflict_pattern() {
    for prop in [
        ZivProperty::NotInPrC,
        ZivProperty::LruNotInPrC,
        ZivProperty::LikelyDead,
    ] {
        let mut d = Driver::new(LlcMode::Ziv(prop));
        for round in 0..40u64 {
            let b = conflict_line(1 + round % 2);
            d.read(0, b);
            d.read(1, conflict_line(2 + round % 10));
            d.read(0, b);
        }
        assert_eq!(d.h.metrics().inclusion_victims, 0, "{}", prop.label());
        d.h.verify_invariants().unwrap();
    }
}
