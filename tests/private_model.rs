//! One core's private hierarchy against a naive reference model, run
//! operation for operation.
//!
//! The model keeps each private cache (L1I, L1D and the unified L2) as
//! one most-recent-first `Vec` per set, and replays the non-inclusive
//! protocol on top of it: an L2 hit refills the L1, an L1 victim merges
//! its dirty data into the L2 copy, an L2 victim hands its CHAR metadata
//! (and dirty data) to the L1 copies, and a notice leaves only with the
//! last copy. So it predicts each lookup's outcome and each hit's
//! `owned` bit, every eviction notice and every invalidation, not just
//! which lines are present: an eviction that picks any line but the
//! least recently used one shows as a wrong notice.
//!
//! Each property runs on the seeded case runner in `support`: a failing
//! case names its seed and operation index, and replays exactly from
//! that seed.

mod support;

use support::property;
use ziv::char_engine::L2BlockMeta;
use ziv::common::{CacheGeometry, LineAddr, SimRng};
use ziv::core::private::{EvictionNotice, PrivLookup, PrivateHierarchy};

/// Lines the operations draw from: several times what the caches hold.
const LINES: u64 = 64;

/// `(L1I, L1D, L2)` geometries: the 2-way caches the property was first
/// written for, and 4-way ones whose sets hold a longer recency order.
fn geometries() -> [[CacheGeometry; 3]; 2] {
    [
        [
            CacheGeometry::new(2, 2),
            CacheGeometry::new(2, 2),
            CacheGeometry::new(4, 2),
        ],
        [
            CacheGeometry::new(2, 4),
            CacheGeometry::new(2, 4),
            CacheGeometry::new(4, 4),
        ],
    ]
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Access {
        line: u64,
        instr: bool,
        write: bool,
    },
    Fill {
        line: u64,
        instr: bool,
        write: bool,
        from_llc: bool,
    },
    Prefetch {
        line: u64,
        from_llc: bool,
    },
    Invalidate {
        line: u64,
    },
}

fn op(rng: &mut SimRng) -> Op {
    let line = rng.below(LINES);
    let (instr, write, from_llc) = (rng.chance(0.25), rng.chance(0.5), rng.chance(0.5));
    match rng.below(4) {
        0 => Op::Access {
            line,
            instr,
            write: write && !instr,
        },
        1 => Op::Fill {
            line,
            instr,
            write: write && !instr,
            from_llc,
        },
        2 => Op::Prefetch { line, from_llc },
        _ => Op::Invalidate { line },
    }
}

/// One cache: each set's lines, most recently used first.
struct Cache<S> {
    sets: Vec<Vec<(u64, S)>>,
    ways: usize,
}

impl<S: Copy> Cache<S> {
    fn new(geom: CacheGeometry) -> Self {
        Cache {
            sets: (0..geom.sets).map(|_| Vec::new()).collect(),
            ways: geom.ways as usize,
        }
    }

    fn set(&mut self, line: u64) -> &mut Vec<(u64, S)> {
        let n = self.sets.len() as u64;
        &mut self.sets[(line % n) as usize]
    }

    fn get(&mut self, line: u64) -> Option<&mut S> {
        self.set(line)
            .iter_mut()
            .find(|(l, _)| *l == line)
            .map(|(_, s)| s)
    }

    fn remove(&mut self, line: u64) -> Option<S> {
        let set = self.set(line);
        let i = set.iter().position(|(l, _)| *l == line)?;
        Some(set.remove(i).1)
    }

    /// A demand hit moves the line to the front.
    fn hit(&mut self, line: u64) -> Option<&mut S> {
        let state = self.remove(line)?;
        let set = self.set(line);
        set.insert(0, (line, state));
        Some(&mut set[0].1)
    }

    /// Fills at the front; a set over capacity gives up its last line.
    fn fill(&mut self, line: u64, state: S) -> Option<(u64, S)> {
        let ways = self.ways;
        let set = self.set(line);
        set.insert(0, (line, state));
        (set.len() > ways).then(|| set.pop().expect("the set is over capacity"))
    }

    fn lines(&self) -> impl Iterator<Item = u64> + '_ {
        self.sets.iter().flatten().map(|(l, _)| *l)
    }
}

#[derive(Debug, Clone, Copy)]
struct L1 {
    dirty: bool,
    deferred: Option<L2BlockMeta>,
}

#[derive(Debug, Clone, Copy)]
struct L2 {
    dirty: bool,
    meta: L2BlockMeta,
}

/// The reference model of one core's L1I + L1D + L2.
struct Model {
    l1i: Cache<L1>,
    l1d: Cache<L1>,
    l2: Cache<L2>,
    notices: Vec<EvictionNotice>,
}

impl Model {
    fn new([l1i, l1d, l2]: [CacheGeometry; 3]) -> Self {
        Model {
            l1i: Cache::new(l1i),
            l1d: Cache::new(l1d),
            l2: Cache::new(l2),
            notices: Vec::new(),
        }
    }

    fn l1(&mut self, instr: bool) -> &mut Cache<L1> {
        if instr {
            &mut self.l1i
        } else {
            &mut self.l1d
        }
    }

    fn access(&mut self, line: u64, instr: bool, write: bool) -> PrivLookup {
        if let Some(s) = self.l1(instr).hit(line) {
            let owned = s.dirty;
            s.dirty |= write;
            return PrivLookup::L1Hit { owned };
        }
        if let Some(s) = self.l2.hit(line) {
            let owned = s.dirty;
            s.meta.on_reuse();
            self.fill_l1(line, instr, write);
            return PrivLookup::L2Hit { owned };
        }
        PrivLookup::Miss
    }

    fn fill_l2(&mut self, line: u64, meta: L2BlockMeta) {
        let evicted = self.l2.fill(line, L2 { dirty: false, meta });
        if let Some((gone, s)) = evicted {
            // The L1 copies take the metadata; the L1D copy also the
            // dirty data. The notice waits for the last L1 copy.
            let in_l1d = self.l1d.get(gone).map(|c| {
                c.dirty |= s.dirty;
                c.deferred = Some(s.meta);
            });
            let in_l1i = self.l1i.get(gone).map(|c| c.deferred = Some(s.meta));
            if in_l1d.is_none() && in_l1i.is_none() {
                self.notice(gone, s.dirty, s.meta);
            }
        }
    }

    fn fill_l1(&mut self, line: u64, instr: bool, write: bool) {
        let state = L1 {
            dirty: write,
            deferred: None,
        };
        let Some((gone, s)) = self.l1(instr).fill(line, state) else {
            return;
        };
        if let Some(c) = self.l2.get(gone) {
            c.dirty |= s.dirty;
        } else if self.l1(!instr).get(gone).is_none() {
            self.notice(gone, s.dirty, s.deferred.unwrap_or_default());
        }
    }

    fn fill_from_shared(&mut self, line: u64, instr: bool, write: bool, from_llc: bool) {
        self.fill_l2(line, L2BlockMeta::filled(from_llc));
        self.fill_l1(line, instr, write);
    }

    fn prefetch_fill(&mut self, line: u64, from_llc: bool) {
        if !self.holds(line) {
            self.fill_l2(line, L2BlockMeta::prefetched(from_llc));
        }
    }

    fn invalidate(&mut self, line: u64) -> Option<bool> {
        let copies = [
            self.l1i.remove(line).map(|s| s.dirty),
            self.l1d.remove(line).map(|s| s.dirty),
            self.l2.remove(line).map(|s| s.dirty),
        ];
        copies.into_iter().flatten().reduce(|a, b| a | b)
    }

    fn notice(&mut self, line: u64, dirty: bool, meta: L2BlockMeta) {
        self.notices.push(EvictionNotice {
            line: LineAddr::new(line),
            dirty,
            meta,
        });
    }

    fn holds(&mut self, line: u64) -> bool {
        self.l1i.get(line).is_some() || self.l1d.get(line).is_some() || self.l2.get(line).is_some()
    }

    fn is_dirty(&mut self, line: u64) -> bool {
        self.l1d.get(line).is_some_and(|s| s.dirty) || self.l2.get(line).is_some_and(|s| s.dirty)
    }

    /// Every held line, ascending, each once.
    fn resident(&self) -> Vec<LineAddr> {
        let mut lines: Vec<u64> = self
            .l1i
            .lines()
            .chain(self.l1d.lines())
            .chain(self.l2.lines())
            .collect();
        lines.sort_unstable();
        lines.dedup();
        lines.into_iter().map(LineAddr::new).collect()
    }

    fn occupancy(&self) -> usize {
        self.l1i.lines().count() + self.l1d.lines().count() + self.l2.lines().count()
    }
}

/// Every lookup outcome (with its `owned` bit), eviction notice and
/// invalidation agrees with the exact-LRU model, and after every step so
/// do the resident lines, the occupancy and each line's dirty state.
#[test]
fn hierarchy_matches_the_exact_lru_model() {
    for geoms in geometries() {
        property(
            &format!("hierarchy_matches_the_exact_lru_model ({geoms:?})"),
            64,
            |rng| ((), (0..rng.range(1, 500)).map(|_| op(rng)).collect()),
            |_, ops| {
                let [l1i, l1d, l2] = geoms;
                let mut h = PrivateHierarchy::new(l1i, l1d, l2);
                let mut model = Model::new(geoms);
                let mut notices = Vec::new();
                for (i, &op) in ops.iter().enumerate() {
                    let at = format!("op {i} ({op:?})");
                    match op {
                        Op::Access { line, instr, write } => {
                            let got = h.access(LineAddr::new(line), instr, write, &mut notices);
                            assert_eq!(got, model.access(line, instr, write), "{at}");
                        }
                        Op::Fill {
                            line,
                            instr,
                            write,
                            from_llc,
                        } => {
                            // Only a lookup that missed fills.
                            let missed =
                                model.l1(instr).get(line).is_none() && model.l2.get(line).is_none();
                            if missed {
                                let l = LineAddr::new(line);
                                h.fill_from_shared(l, instr, write, from_llc, &mut notices);
                                model.fill_from_shared(line, instr, write, from_llc);
                            }
                        }
                        Op::Prefetch { line, from_llc } => {
                            h.prefetch_fill(LineAddr::new(line), from_llc, &mut notices);
                            model.prefetch_fill(line, from_llc);
                        }
                        Op::Invalidate { line } => {
                            let got = h.invalidate(LineAddr::new(line));
                            assert_eq!(got, model.invalidate(line), "invalidation, {at}");
                        }
                    }
                    assert_eq!(notices, model.notices, "notices, {at}");
                    notices.clear();
                    model.notices.clear();
                    assert_eq!(h.resident_lines(), model.resident(), "resident lines, {at}");
                    assert_eq!(h.occupancy(), model.occupancy(), "occupancy, {at}");
                    for line in 0..LINES {
                        let l = LineAddr::new(line);
                        assert_eq!(h.contains(l), model.holds(line), "line {line}, {at}");
                        assert_eq!(h.is_dirty(l), model.is_dirty(line), "line {line}, {at}");
                    }
                }
            },
        );
    }
}

/// Dirty data never vanishes silently: a line written and then forced
/// out leaves as a dirty notice or a dirty invalidation.
#[test]
fn dirty_data_always_leaves_loudly() {
    property(
        "dirty_data_always_leaves_loudly",
        64,
        |rng| {
            let fills = (0..rng.range(1, 200))
                .map(|_| (rng.below(32), rng.chance(0.5)))
                .collect();
            ((), fills)
        },
        |_, fills| {
            let [l1i, l1d, l2] = geometries()[0];
            let mut h = PrivateHierarchy::new(l1i, l1d, l2);
            let mut dirty_in = std::collections::BTreeSet::new();
            let mut notices = Vec::new();
            for (i, &(line, write)) in fills.iter().enumerate() {
                let l = LineAddr::new(line);
                if !h.contains(l) {
                    h.fill_from_shared(l, false, write, false, &mut notices);
                    if write {
                        dirty_in.insert(line);
                    }
                } else if write {
                    let _ = h.access(l, false, true, &mut notices);
                    dirty_in.insert(line);
                }
                for n in notices.drain(..) {
                    if dirty_in.remove(&n.line.raw()) {
                        assert!(n.dirty, "fill {i}: dirty line {} left clean", n.line);
                    }
                }
            }
            for line in 0..32u64 {
                if let Some(was_dirty) = h.invalidate(LineAddr::new(line)) {
                    if dirty_in.remove(&line) {
                        assert!(was_dirty, "dirty line {line} invalidated clean");
                    }
                }
            }
            assert!(
                dirty_in.is_empty(),
                "dirty lines unaccounted for: {dirty_in:?}"
            );
        },
    );
}
