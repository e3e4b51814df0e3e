//! Edge-path tests for the least-traveled hierarchy flows: dirty data
//! through relocations, writes to relocated blocks, directory evictions
//! of relocated entries, and instruction-side traffic.

mod support;

use ziv::prelude::*;

struct D {
    h: CacheHierarchy,
    now: u64,
    seq: u64,
}

impl D {
    fn new(mode: LlcMode, ratio: DirRatio) -> D {
        let cfg = HierarchyConfig::new(support::tiny(2, 32, ratio)).with_mode(mode);
        D {
            h: CacheHierarchy::new(&cfg),
            now: 0,
            seq: 0,
        }
    }

    fn go(&mut self, core: usize, line: u64, write: bool, instr: bool) -> u64 {
        let addr = Addr::new(line * 64);
        let a = Access {
            core: CoreId::new(core),
            addr,
            pc: 0x400 + line % 8,
            is_write: write,
            is_instr: instr,
        };
        let lat = self.h.access(&a, self.now, self.seq);
        self.now += 1 + lat;
        self.seq += 1;
        lat
    }

    fn read(&mut self, core: usize, line: u64) -> u64 {
        self.go(core, line, false, false)
    }

    fn write(&mut self, core: usize, line: u64) -> u64 {
        self.go(core, line, true, false)
    }

    /// Forces a relocation of line `b` (kept hot privately by `core`)
    /// by streaming conflicting same-LLC-set lines.
    fn force_relocation(&mut self, core: usize, b: u64) -> bool {
        for i in 2..12u64 {
            self.read(core, i * 8);
            self.read(core, b);
            if self
                .h
                .directory()
                .relocated_location(LineAddr::new(b))
                .is_some()
            {
                return true;
            }
        }
        false
    }
}

#[test]
fn dirty_block_relocates_and_writes_back_to_memory_on_death() {
    let mut d = D::new(LlcMode::Ziv(ZivProperty::NotInPrC), DirRatio::X2);
    let b = 8u64;
    d.write(0, b); // dirty in core 0's L1
    assert!(d.force_relocation(0, b), "relocation must occur");
    d.h.verify_invariants().unwrap();

    // Kill all private copies: the relocated block dies and the dirty
    // data must reach memory (relocated writebacks go straight to the
    // memory controller, Section III-C2).
    let wb_before = d.h.metrics().relocated_writebacks;
    for i in 1..40u64 {
        d.read(0, i * 4 + 4096);
    }
    assert!(d
        .h
        .directory()
        .relocated_location(LineAddr::new(b))
        .is_none());
    assert!(
        d.h.metrics().relocated_writebacks > wb_before,
        "dirty relocated block must write back to memory"
    );
    assert_eq!(d.h.metrics().inclusion_victims, 0);
}

#[test]
fn write_to_relocated_block_keeps_coherence() {
    let mut d = D::new(LlcMode::Ziv(ZivProperty::NotInPrC), DirRatio::X2);
    let b = 8u64;
    d.read(0, b);
    assert!(d.force_relocation(0, b));
    // Core 1 *writes* B: it reaches the relocated copy through the
    // directory, and core 0's copy must be invalidated coherently.
    let lat = d.write(1, b);
    assert!(lat > 0);
    assert_eq!(d.h.metrics().coherence_invalidations, 1);
    assert_eq!(d.h.metrics().inclusion_victims, 0);
    d.h.verify_invariants().unwrap();
    // Core 1 is now the dirty owner; a read from core 0 fetches the
    // fresh data and cleans the owner.
    d.read(0, b);
    d.h.verify_invariants().unwrap();
}

#[test]
fn directory_eviction_invalidates_relocated_block() {
    // Quarter-sized directory: entries get evicted; an entry tracking a
    // relocated block must take the block with it (Section III-F).
    let mut d = D::new(LlcMode::Ziv(ZivProperty::NotInPrC), DirRatio::Quarter);
    let b = 8u64;
    d.read(0, b);
    let relocated = d.force_relocation(0, b);
    // Flood the directory from core 1 to force entry evictions.
    for i in 0..600u64 {
        d.read(1, (1 << 20) + i);
    }
    d.h.verify_invariants().unwrap();
    // Whether or not B's entry survived, every remaining relocated block
    // must still have a directory pointer (verify_invariants checks the
    // pointer equality; here we check no orphan Relocated blocks exist).
    for (loc, st) in d.h.llc().resident_blocks() {
        if st.relocated {
            assert_eq!(d.h.directory().relocated_location(st.line), Some(loc));
        }
    }
    let _ = relocated;
    assert_eq!(d.h.metrics().inclusion_victims, 0);
}

#[test]
fn instruction_fetches_participate_in_inclusion() {
    let mut d = D::new(LlcMode::Ziv(ZivProperty::NotInPrC), DirRatio::X2);
    let code = 8u64;
    d.go(0, code, false, true); // ifetch
    assert!(
        d.force_relocation(0, code),
        "code lines relocate like data lines"
    );
    assert_eq!(d.h.metrics().inclusion_victims, 0);
    d.h.verify_invariants().unwrap();
    // The code line is still an L1I hit.
    let lat = d.go(0, code, false, true);
    assert!(lat <= 1, "L1I must still hold the line: {lat}");
}

#[test]
fn inclusive_mode_flushes_dirty_inclusion_victims_to_memory() {
    let mut d = D::new(LlcMode::Inclusive, DirRatio::X2);
    let b = 8u64;
    d.write(0, b); // dirty private copy
    let wbs_before = d.h.metrics().llc_writebacks;
    // Stream the set so B's LLC copy is evicted -> back-invalidation of
    // the dirty private copy -> memory writeback.
    for i in 2..12u64 {
        d.read(0, i * 8);
        d.read(0, b);
        if d.h.metrics().inclusion_victims > 0 {
            break;
        }
    }
    assert!(
        d.h.metrics().inclusion_victims > 0,
        "inclusive mode must victimize"
    );
    assert!(
        d.h.metrics().llc_writebacks > wbs_before,
        "dirty victim data must survive"
    );
    d.h.verify_invariants().unwrap();
}

#[test]
fn shared_readers_then_writer_upgrade_on_relocated_line() {
    let mut d = D::new(LlcMode::Ziv(ZivProperty::LikelyDead), DirRatio::X2);
    let b = 8u64;
    d.read(0, b);
    d.read(1, b); // two sharers
    d.force_relocation(0, b);
    d.h.verify_invariants().unwrap();
    // Writer upgrade: the other sharer must be invalidated, dirty
    // ownership transferred, relocated state intact.
    d.write(0, b);
    assert_eq!(d.h.metrics().coherence_invalidations, 1);
    assert_eq!(d.h.metrics().inclusion_victims, 0);
    d.h.verify_invariants().unwrap();
}

#[test]
fn repeated_relocation_of_the_same_line_is_stable() {
    // Re-relocation (Section III-C3): force B to relocate, then make its
    // relocation set conflict-heavy so B gets relocated again.
    let mut d = D::new(LlcMode::Ziv(ZivProperty::NotInPrC), DirRatio::X2);
    let b = 8u64;
    d.read(0, b);
    assert!(d.force_relocation(0, b));
    let first =
        d.h.directory()
            .relocated_location(LineAddr::new(b))
            .unwrap();
    // Hammer every set with conflicting private-hot lines from core 1 so
    // relocation targets keep moving; B must stay reachable throughout.
    for round in 0..30u64 {
        for set_line in 0..8u64 {
            d.read(1, (1 << 16) + round * 8 + set_line);
        }
        d.read(0, b); // keep B privately hot for core 0
        d.h.verify_invariants().unwrap();
        assert!(
            d.h.directory()
                .relocated_location(LineAddr::new(b))
                .is_some()
                || d.h.llc().probe(LineAddr::new(b)).is_some(),
            "B must remain in the LLC (relocated or home) while privately cached"
        );
    }
    let _ = first;
    assert_eq!(d.h.metrics().inclusion_victims, 0);
}
