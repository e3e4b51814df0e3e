//! The steady-state access path allocates nothing (DESIGN.md §8).
//!
//! A counting global allocator wraps `System` and counts, per thread,
//! every allocation and reallocation. Each cell drives
//! `CacheHierarchy::access` directly, lap after lap over one workload,
//! until a lap leaves every table at its final size; one more lap must
//! then allocate nothing. The cells are the inclusive baseline, each
//! filtering victim chooser (QBS, SHARP, ECI, way partitioning and
//! CHARonBase) under LRU, a ZIV cell that relocates during the counted
//! lap, so the relocation path (Algorithm 1, relocation victims, the
//! Fig 18 interval histogram; the relocation FIFO is not modeled) is
//! covered, and an inclusive cell with stride
//! prefetchers that issue and fill prefetches during the counted lap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use ziv::common::config::LlcConfig;
use ziv::core::prefetch::PrefetchConfig;
use ziv::prelude::*;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is
// a const-initialized thread local without a destructor, so touching it
// never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Warm-up laps allowed before the tables must have stopped growing.
const MAX_WARM_LAPS: usize = 4;

/// A 1/64-scale machine with 16 KB L2s and a 256 KB LLC in two 128-set
/// banks (the pinned machine of `tests/hotpath_determinism.rs`).
fn system() -> SystemConfig {
    let mut sys = SystemConfig::big_llc(64);
    sys.llc = LlcConfig::from_total_capacity(sys.llc.total_capacity_bytes(), 16, 2);
    sys
}

/// Two cores with L2-resident hot sets and two streaming cores, so the
/// inclusive cell back-invalidates and the ZIV cell relocates.
fn hot_vs_stream(sys: &SystemConfig) -> Workload {
    let sc = ScaleParams::from_system(sys);
    let hot = mixes::homogeneous(apps::app_by_name("hotl2").unwrap(), 2, 3_000, 3, sc);
    let stream = mixes::homogeneous(apps::app_by_name("stream").unwrap(), 4, 3_000, 5, sc);
    let mut traces = hot.traces;
    traces.extend(stream.traces.into_iter().skip(2));
    Workload {
        name: "hot-vs-stream".into(),
        traces,
        attack: None,
    }
}

/// Where each core is: its clock and its position in its trace.
struct Cores {
    cycles: Vec<f64>,
    cursor: Vec<usize>,
}

/// Issues one lap of every core's trace in the driver's order (the core
/// with the smallest cycle count goes next), continuing the clocks and
/// the global sequence from earlier laps.
fn lap(h: &mut CacheHierarchy, wl: &Workload, base_cpi: f64, st: &mut Cores, lap: usize) {
    let cores = wl.cores();
    let Cores { cycles, cursor } = st;
    cursor.fill(0);
    loop {
        let mut core = usize::MAX;
        let mut best = f64::INFINITY;
        for c in 0..cores {
            if cursor[c] < wl.traces[c].records.len() && cycles[c] < best {
                best = cycles[c];
                core = c;
            }
        }
        if core == usize::MAX {
            return;
        }
        let trace = &wl.traces[core];
        let rec = trace.records[cursor[core]];
        let seq = ((lap * trace.records.len() + cursor[core]) * cores + core) as u64;
        cursor[core] += 1;
        let a = Access {
            core: CoreId::new(core),
            addr: rec.addr,
            pc: rec.pc,
            is_write: rec.is_write,
            is_instr: false,
        };
        let lat = h.access(&a, cycles[core] as u64, seq);
        cycles[core] +=
            (1 + u64::from(rec.gap)) as f64 * base_cpi + lat as f64 * (1.0 - trace.overlap);
    }
}

/// The counts the cells' choosers move, in the order inclusion victims,
/// relocations, QBS queries, ECI early invalidations, LLC demand fills
/// and prefetch fills.
fn counts(h: &CacheHierarchy) -> [u64; 6] {
    let m = h.metrics();
    [
        m.inclusion_victims,
        m.relocations,
        m.qbs_queries,
        m.eci_early_invalidations,
        m.llc_demand_fills,
        m.prefetch_fills,
    ]
}

#[test]
fn steady_state_access_path_allocates_nothing() {
    let sys = system();
    let wl = hot_vs_stream(&sys);
    let prefetch = Some(PrefetchConfig::default());
    let cells = [
        (LlcMode::Inclusive, PolicyKind::Lru, None),
        (LlcMode::Qbs, PolicyKind::Lru, None),
        (LlcMode::Sharp, PolicyKind::Lru, None),
        (LlcMode::Eci, PolicyKind::Lru, None),
        (LlcMode::WayPartitioned, PolicyKind::Lru, None),
        (LlcMode::CharOnBase, PolicyKind::Lru, None),
        (
            LlcMode::Ziv(ZivProperty::MaxRrpvLikelyDead),
            PolicyKind::Hawkeye,
            None,
        ),
        (LlcMode::Inclusive, PolicyKind::Lru, prefetch),
    ];
    let mut inclusive_victims = 0;
    for (mode, policy, prefetch) in cells {
        let prefetching = prefetch.map_or("", |_| " prefetching");
        let label = format!("{}-{}{prefetching}", mode.label(), policy.label());
        let mut spec = RunSpec::new(&label, sys.clone())
            .with_mode(mode)
            .with_policy(policy);
        spec.prefetch = prefetch;
        let mut h = CacheHierarchy::new(&spec.build_hierarchy_config(&wl));
        let mut st = Cores {
            cycles: vec![0.0; wl.cores()],
            cursor: vec![0; wl.cores()],
        };
        let mut laps = 0;
        let mut warm_allocations = Vec::new();
        loop {
            let before = allocations();
            lap(&mut h, &wl, sys.base_cpi, &mut st, laps);
            laps += 1;
            warm_allocations.push(allocations() - before);
            if warm_allocations.last() == Some(&0) || laps == MAX_WARM_LAPS {
                break;
            }
        }
        let counts_before = counts(&h);
        let before = allocations();
        lap(&mut h, &wl, sys.base_cpi, &mut st, laps);
        let made = allocations() - before;
        assert_eq!(
            made, 0,
            "{label}: the counted lap allocated {made} time(s); \
             warm-up laps allocated {warm_allocations:?}"
        );
        let counts_after = counts(&h);
        let [victims, relocations, queries, early, fills, prefetched] =
            std::array::from_fn(|i| counts_after[i] - counts_before[i]);
        // The counted lap must show that it ran the cell's chooser, or
        // its prefetchers.
        let ran = match mode {
            _ if prefetch.is_some() => prefetched > 0,
            LlcMode::Inclusive => {
                inclusive_victims = victims;
                victims > 0
            }
            LlcMode::Ziv(_) => relocations > 0,
            LlcMode::Qbs => queries > 0,
            LlcMode::Eci => early > 0,
            // SHARP, way partitioning and CHARonBase must fill the LLC and
            // steer clear of victims the inclusive lap took.
            _ => fills > 0 && victims < inclusive_victims,
        };
        assert!(
            ran,
            "{label}: the counted lap did not run its chooser: {victims} inclusion \
             victim(s), {relocations} relocation(s), {queries} QBS queries, \
             {early} early invalidation(s), {fills} fill(s), {prefetched} prefetch \
             fill(s)"
        );
    }
}
