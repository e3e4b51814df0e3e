//! The traced run: what each layer of the simulator costs, measured by
//! spans in this file around calls into each layer's public API.
//!
//! Three parts. The *hierarchy replay* drives `CacheHierarchy::access`
//! over one lap of every core's trace, times each call and classifies it
//! by the counters it moved, next to an untimed twin that prices the
//! tracing itself. The *layer replays* feed the access streams that
//! replay captured into each layer standalone (private caches,
//! directory, tag array, property vectors, replacement policies, DRAM,
//! NoC), plus the ported microbenchmark cases. The *observer overhead*
//! runs the workload's cells with each of the seven hooks alone against
//! all hooks off.

use crate::check::{pinned, Checker};
use crate::plan::{result_digest, spec, system, Hooks, Plan, Sizes, SPECS};
use crate::report::{Metric, Report};
use crate::stats::{nearest_rank, Summary};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use ziv_cache::{PropertyVector, SetAssocArray};
use ziv_common::{Addr, CacheGeometry, CoreId, Cycle, LineAddr, SimRng};
use ziv_core::private::{PrivLookup, PrivateHierarchy};
use ziv_core::{
    Access, CacheHierarchy, HierarchyConfig, LlcMode, Metrics, ProfileSection, SelfProfiler,
    ZivProperty,
};
use ziv_directory::{DirectoryMode, SparseDirectory};
use ziv_dram::DramModel;
use ziv_harness::{CellDigest, LedgerWriter};
use ziv_noc::Mesh;
use ziv_replacement::{AccessCtx, Hawkeye, Lru, ReplacementPolicy};
use ziv_sim::RunSpec;
use ziv_workloads::Workload;

/// What one access did, judged by the counters it moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Served by the L1.
    L1Hit,
    /// Missed the L1, served by the private L2.
    L2Hit,
    /// Missed the private caches, hit the LLC.
    LlcHit,
    /// Missed the LLC; the fill neither relocated nor back-invalidated.
    LlcMiss,
    /// Missed the LLC; the fill relocated a block (ZIV).
    Relocation,
    /// Missed the LLC; the fill back-invalidated private copies.
    BackInval,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 6] = [
        Class::L1Hit,
        Class::L2Hit,
        Class::LlcHit,
        Class::LlcMiss,
        Class::Relocation,
        Class::BackInval,
    ];

    /// Metric-name stem.
    pub fn name(self) -> &'static str {
        match self {
            Class::L1Hit => "l1_hit",
            Class::L2Hit => "l2_hit",
            Class::LlcHit => "llc_hit",
            Class::LlcMiss => "llc_miss",
            Class::Relocation => "relocation",
            Class::BackInval => "back_inval",
        }
    }

    /// Whether the access missed the private caches.
    fn private_miss(self) -> bool {
        !matches!(self, Class::L1Hit | Class::L2Hit)
    }

    /// Whether the access missed the LLC (and so filled it).
    fn llc_miss(self) -> bool {
        matches!(self, Class::LlcMiss | Class::Relocation | Class::BackInval)
    }
}

/// The counters an access's class is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counters {
    l1_misses: u64,
    l2_misses: u64,
    llc_hits: u64,
    relocations: u64,
    inclusion_victims: u64,
}

impl Counters {
    fn read(m: &Metrics, core: usize) -> Counters {
        Counters {
            l1_misses: m.per_core[core].l1_misses,
            l2_misses: m.per_core[core].l2_misses,
            llc_hits: m.llc_hits,
            relocations: m.relocations,
            inclusion_victims: m.inclusion_victims,
        }
    }

    fn class_since(&self, before: &Counters) -> Class {
        if self.l1_misses == before.l1_misses {
            Class::L1Hit
        } else if self.l2_misses == before.l2_misses {
            Class::L2Hit
        } else if self.relocations != before.relocations {
            Class::Relocation
        } else if self.inclusion_victims != before.inclusion_victims {
            Class::BackInval
        } else if self.llc_hits != before.llc_hits {
            Class::LlcHit
        } else {
            Class::LlcMiss
        }
    }
}

/// Drives `h` over one lap of every core's trace in `ziv_sim`'s
/// smallest-cycle-first order and timing model, calling `step`
/// for each access; returns the accesses issued.
fn replay(
    h: &mut CacheHierarchy,
    spec: &RunSpec,
    wl: &Workload,
    mut step: impl FnMut(&mut CacheHierarchy, &Access, Cycle, u64) -> Cycle,
) -> u64 {
    let cores = wl.cores();
    let mut cursor = vec![0usize; cores];
    let mut cycles = vec![0f64; cores];
    let mut issued = 0u64;
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
            return issued;
        }
        let trace = &wl.traces[core];
        let rec = trace.records[cursor[core]];
        let seq = (cursor[core] * cores + core) as u64;
        cursor[core] += 1;
        let a = Access {
            core: CoreId::new(core),
            addr: rec.addr,
            pc: rec.pc,
            is_write: rec.is_write,
            is_instr: false,
        };
        let lat = step(h, &a, cycles[core] as Cycle, seq);
        cycles[core] += (1 + u64::from(rec.gap)) as f64 * spec.system.base_cpi
            + lat as f64 * (1.0 - trace.overlap);
        issued += 1;
    }
}

/// One timed hierarchy replay.
#[derive(Debug)]
pub struct TracedReplay {
    /// Per-call wall time in ns, per [`Class`] (indexed like
    /// [`Class::ALL`]).
    pub times: [Vec<u32>; 6],
    /// Accesses issued.
    pub accesses: u64,
    /// The hierarchy's counters after the replay.
    pub metrics: Metrics,
    /// Every private-cache miss, in issue order.
    pub private_misses: Vec<AccessCtx>,
    /// Every LLC miss, in issue order.
    pub llc_misses: Vec<AccessCtx>,
}

/// Replays `wl` under `spec`, timing and classifying every access and
/// capturing the private-miss and LLC-miss streams.
pub fn traced_replay(spec: &RunSpec, wl: &Workload) -> TracedReplay {
    let mut h = CacheHierarchy::new(&spec.build_hierarchy_config(wl));
    let mut times: [Vec<u32>; 6] = Default::default();
    let mut private_misses = Vec::new();
    let mut llc_misses = Vec::new();
    let accesses = replay(&mut h, spec, wl, |h, a, now, seq| {
        let core = a.core.index();
        let before = Counters::read(h.metrics(), core);
        let t0 = Instant::now();
        let lat = h.access(a, now, seq);
        let ns = u32::try_from(t0.elapsed().as_nanos()).unwrap_or(u32::MAX);
        let class = Counters::read(h.metrics(), core).class_since(&before);
        times[class as usize].push(ns);
        if class.private_miss() {
            let ctx = AccessCtx {
                line: a.addr.line(),
                pc: a.pc,
                core: a.core,
                now,
                seq,
                is_write: a.is_write,
            };
            private_misses.push(ctx);
            if class.llc_miss() {
                llc_misses.push(ctx);
            }
        }
        lat
    });
    TracedReplay {
        times,
        accesses,
        metrics: h.metrics().clone(),
        private_misses,
        llc_misses,
    }
}

/// Mean duration an empty span (`Instant::now` then `elapsed`) reports,
/// in ns: subtracted from every per-call timing so those report the
/// call alone.
fn span_overhead_ns() -> f64 {
    const N: u32 = 200_000;
    let total: u128 = (0..N)
        .map(|_| black_box(Instant::now()).elapsed().as_nanos())
        .sum();
    total as f64 / f64::from(N)
}

/// Wall time per operation in ns: the median of three batches, each
/// repeating `pass` (which performs `ops` operations) until it covers
/// `min`.
fn ns_per_op(ops: usize, min: Duration, mut pass: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let mut passes = 0u32;
            loop {
                pass();
                passes += 1;
                if t0.elapsed() >= min {
                    break;
                }
            }
            t0.elapsed().as_nanos() as f64 / (f64::from(passes) * ops.max(1) as f64)
        })
        .collect();
    Summary::of(&samples).value
}

/// Measures `plan`'s per-layer costs; `scratch` is a private directory.
pub fn per_layer(plan: &Plan, seed: u64, sizes: &Sizes, scratch: &Path) -> Report {
    let min = Duration::from_millis(sizes.layer_batch_ms);
    let span = span_overhead_ns();
    let mut out = Vec::new();
    let mut put = |name: String, unit: &str, value: f64, n: usize| {
        out.push(Metric::new(name, unit, Summary::counted(value, n)));
    };
    let mut last = Instant::now();
    let mut stage = |what: &str| {
        eprintln!(
            "  {} {what}: {:.1} s",
            plan.name,
            last.elapsed().as_secs_f64()
        );
        last = Instant::now();
    };

    let records: usize = plan
        .recipes
        .iter()
        .map(|r| r.cores * r.accesses_per_core)
        .sum();
    let gen_ns = ns_per_op(records, min, || {
        black_box(plan.build());
    });
    put("workloads.gen_ns_per_access".into(), "ns", gen_ns, records);
    let workloads = plan.build();
    stage("input generation");

    // The untraced results: the correctness pass and the exact counts.
    let mut checker = Checker::new(plan, pinned(plan, seed, sizes));
    let results = plan.run_cells(&workloads, Hooks::OFF);
    checker.reference(&results);
    let ok: Vec<_> = results.iter().flatten().collect();
    let sum = |f: fn(&Metrics) -> u64| ok.iter().map(|r| f(&r.metrics)).sum::<u64>() as f64;
    let cells = plan.cells.len();
    let served = ok.iter().map(|r| crate::plan::accesses(r) as f64).sum();
    put("sim.accesses".into(), "count", served, cells);
    put(
        "sim.llc_misses".into(),
        "count",
        sum(|m| m.llc_misses),
        cells,
    );
    put(
        "sim.relocations".into(),
        "count",
        sum(|m| m.relocations),
        cells,
    );
    put(
        "sim.inclusion_victims".into(),
        "count",
        sum(|m| m.inclusion_victims),
        cells,
    );
    put(
        "sim.directory_back_invalidations".into(),
        "count",
        sum(|m| m.directory_back_invalidations),
        cells,
    );
    put(
        "sim.private_writebacks".into(),
        "count",
        sum(|m| m.private_writebacks),
        cells,
    );
    stage("untraced pass");

    // Part 1: the hierarchy replay, timed per call, and its untimed twin.
    let mut times: [Vec<u32>; 6] = Default::default();
    let mut streams = None;
    let (mut traced, mut untimed) = (0.0, 0.0);
    for c in &plan.cells {
        let wl = &workloads[c.recipe];
        let t0 = Instant::now();
        let mut r = traced_replay(&c.spec, wl);
        traced += t0.elapsed().as_secs_f64();
        for (all, cell) in times.iter_mut().zip(&mut r.times) {
            all.append(cell);
        }
        streams.get_or_insert(r);
        let t0 = Instant::now();
        let mut h = CacheHierarchy::new(&c.spec.build_hierarchy_config(wl));
        replay(&mut h, &c.spec, wl, |h, a, now, seq| h.access(a, now, seq));
        untimed += t0.elapsed().as_secs_f64();
    }
    for (class, t) in Class::ALL.iter().zip(&mut times) {
        let stem = format!("hierarchy.{}", class.name());
        let (p50, p99) = if t.is_empty() {
            (0.0, 0.0)
        } else {
            (
                f64::from(nearest_rank(t, 0.5)) - span,
                f64::from(nearest_rank(t, 0.99)) - span,
            )
        };
        put(format!("{stem}.ns_p50"), "ns", p50, t.len());
        put(format!("{stem}.ns_p99"), "ns", p99, t.len());
        put(format!("{stem}.count"), "count", t.len() as f64, t.len());
    }
    put(
        "trace.overhead_pct".into(),
        "%",
        (traced / untimed - 1.0) * 100.0,
        cells,
    );
    let streams = streams.expect("every workload has at least one cell");
    stage("hierarchy replay");

    // Part 2: each layer standalone over the captured streams.
    victim_fills(plan, &workloads, span, &mut put);
    stage("victim fills");
    layer_replays(&workloads[plan.cells[0].recipe], &streams, min, &mut put);
    microbenchmarks(min, &mut put);
    let ledger = scratch.join("ledger.jsonl");
    if let Ok(writer) = LedgerWriter::append_to(&ledger) {
        let us = ns_per_op(ok.len(), min, || {
            for r in &ok {
                if let Err(e) = writer.append(CellDigest(result_digest(r)), r) {
                    eprintln!("ledger append failed: {e}");
                }
            }
        }) / 1e3;
        put("harness.ledger_append_us".into(), "us", us, ok.len());
    }
    let _ = std::fs::remove_file(&ledger);

    stage("layer replays");

    // Part 3: every hook alone against all hooks off, on one cell per
    // input — the first configuration that runs it, always an inclusive
    // one, where tear-outs give the observers the most to record. Runs
    // alternate off, on, on, off so drift in the host's speed cancels,
    // and each side keeps its faster run: interference only ever slows.
    let firsts: Vec<usize> = (0..plan.recipes.len())
        .filter_map(|r| plan.cells.iter().position(|c| c.recipe == r))
        .collect();
    for (name, hooks) in Hooks::each() {
        let (mut off, mut on) = (0.0, 0.0);
        for &i in &firsts {
            let c = &plan.cells[i];
            let wl = &workloads[c.recipe];
            let (mut best_off, mut best_on) = (f64::INFINITY, f64::INFINITY);
            for pass in [Hooks::OFF, hooks, hooks, Hooks::OFF] {
                let t0 = Instant::now();
                let result = pass.run(&c.spec, wl);
                let wall = t0.elapsed().as_secs_f64();
                if pass == Hooks::OFF {
                    best_off = best_off.min(wall);
                } else {
                    best_on = best_on.min(wall);
                    checker.same_as_reference_cell(&format!("{name} hook on"), i, &result);
                }
            }
            off += best_off;
            on += best_on;
        }
        put(
            format!("observe.{name}.overhead_pct"),
            "%",
            (on / off - 1.0) * 100.0,
            firsts.len(),
        );
    }
    stage("observer overhead");

    Report {
        workload: plan.name.to_string(),
        seed,
        traced: true,
        attempted: checker.attempted(),
        failures: checker.failures(),
        metrics: out,
    }
}

/// `victim.<spec>.fill_ns`: mean wall time of `SharedLlc::fill` (victim
/// selection per mode, relocation, install) under each benchmark spec,
/// over a replay of the workload's first input. The fill cannot be
/// replayed standalone faithfully — its choices read private-cache and
/// directory state — so these spans are the self-profiler's, taken
/// inside the hierarchy, less the empty-span cost.
fn victim_fills(
    plan: &Plan,
    workloads: &[Workload],
    span: f64,
    put: &mut impl FnMut(String, &str, f64, usize),
) {
    let wl = &workloads[plan.cells[0].recipe];
    for label in SPECS {
        let spec = spec(label);
        let mut h = CacheHierarchy::new(&spec.build_hierarchy_config(wl));
        h.attach_profiler(Box::new(SelfProfiler::new()));
        replay(&mut h, &spec, wl, |h, a, now, seq| h.access(a, now, seq));
        let report = h.take_profiler().expect("attached above").report();
        let calls = report.calls(ProfileSection::Replacement);
        let ns = if calls == 0 {
            0.0
        } else {
            report.nanos(ProfileSection::Replacement) as f64 / calls as f64 - span
        };
        put(
            format!("victim.{}.fill_ns", label.to_lowercase()),
            "ns",
            ns,
            calls as usize,
        );
    }
}

/// Feeds the captured streams into each layer's API, standalone.
fn layer_replays(
    wl: &Workload,
    streams: &TracedReplay,
    min: Duration,
    put: &mut impl FnMut(String, &str, f64, usize),
) {
    let sys = system();
    let llc = sys.llc;
    let misses = &streams.llc_misses;
    let n = misses.len();

    // Private L1/L2: every core's trace, miss fills included.
    let records: usize = wl.traces.iter().map(|t| t.records.len()).sum();
    let mut cores: Vec<PrivateHierarchy> = (0..wl.cores())
        .map(|_| PrivateHierarchy::new(sys.l1i, sys.l1d, sys.l2))
        .collect();
    let mut notices = Vec::new();
    let ns = ns_per_op(records, min, || {
        for (ph, trace) in cores.iter_mut().zip(&wl.traces) {
            for r in &trace.records {
                let line = r.addr.line();
                if ph.access(line, false, r.is_write, &mut notices) == PrivLookup::Miss {
                    ph.fill_from_shared(line, false, r.is_write, false, &mut notices);
                }
                notices.clear();
            }
        }
    });
    put("private.access_ns".into(), "ns", ns, records);

    // Sparse directory over the private-miss stream.
    let pm = &streams.private_misses;
    let mut dir = SparseDirectory::new(&sys, DirectoryMode::Mesi);
    let ns = ns_per_op(pm.len(), min, || {
        for c in pm {
            black_box(dir.record_fill(c.line, c.core));
        }
    });
    put("directory.record_fill_ns".into(), "ns", ns, pm.len());
    let ns = ns_per_op(pm.len(), min, || {
        for c in pm {
            black_box(dir.probe(c.line).is_some());
        }
    });
    put("directory.probe_ns".into(), "ns", ns, pm.len());

    // One LLC bank's tag array, property vector and policies, over the
    // LLC-miss stream's (set, tag) pairs.
    let geom = llc.bank_geometry;
    let keys: Vec<(u32, u64)> = misses
        .iter()
        .map(|c| (llc.set_of(c.line), llc.tag_of(c.line)))
        .collect();
    let mut array: SetAssocArray<u8> = SetAssocArray::new(geom);
    for &(set, tag) in &keys {
        let probe = array.lookup_or_invalid(set, tag);
        if probe.hit.is_none() {
            let way = probe.invalid.unwrap_or((tag % u64::from(geom.ways)) as u8);
            array.fill(set, way, tag, 0);
        }
    }
    let ns = ns_per_op(n, min, || {
        for &(set, tag) in &keys {
            black_box(array.lookup_or_invalid(set, tag));
        }
    });
    put("array.lookup_or_invalid_ns".into(), "ns", ns, n);

    let mut pv = PropertyVector::new(geom.sets);
    let ns = ns_per_op(n, min, || {
        for &(set, tag) in &keys {
            pv.set(set, tag & 1 == 1);
        }
    });
    put("pv.set_ns".into(), "ns", ns, n);
    pv.set(0, true);
    let ns = ns_per_op(n, min, || {
        for _ in &keys {
            black_box(pv.take_next_rs());
        }
    });
    put("pv.take_next_rs_ns".into(), "ns", ns, n);

    let way_of = |tag: u64| (tag % u64::from(geom.ways)) as u8;
    let mut policies: [(&str, Box<dyn ReplacementPolicy>); 2] = [
        ("lru", Box::new(Lru::new(geom))),
        ("hawkeye", Box::new(Hawkeye::new(geom))),
    ];
    for (name, p) in &mut policies {
        let warm = AccessCtx::demand(LineAddr::new(0), 0, CoreId::new(0), 0, 0);
        for set in 0..geom.sets {
            for way in 0..geom.ways {
                p.on_fill(set, way, &warm);
            }
        }
        let ns = ns_per_op(n, min, || {
            for (c, &(set, _)) in misses.iter().zip(&keys) {
                black_box(p.victim(set, c));
            }
        });
        put(format!("replacement.{name}.victim_ns"), "ns", ns, n);
        let ns = ns_per_op(n, min, || {
            for (c, &(set, tag)) in misses.iter().zip(&keys) {
                p.on_evict(set, way_of(tag));
                p.on_fill(set, way_of(tag), c);
            }
        });
        put(format!("replacement.{name}.update_ns"), "ns", ns, n);
        if *name == "lru" {
            let mut order = Vec::with_capacity(geom.ways as usize);
            let ns = ns_per_op(n, min, || {
                for (c, &(set, _)) in misses.iter().zip(&keys) {
                    p.rank(set, c, &mut order);
                    black_box(&order);
                }
            });
            put("replacement.lru.rank_ns".into(), "ns", ns, n);
        }
    }

    let mut dram = DramModel::new(sys.dram);
    let ns = ns_per_op(n, min, || {
        for c in misses {
            black_box(dram.access(c.line, c.now, false));
        }
    });
    put("dram.access_ns".into(), "ns", ns, n);

    let mesh = Mesh::new(sys.cores, llc.banks, sys.noc);
    let ns = ns_per_op(n, min, || {
        for c in misses {
            black_box(mesh.round_trip(black_box(c.core), llc.bank_of(c.line)));
        }
    });
    put("noc.round_trip_ns".into(), "ns", ns, n);
}

/// The property-vector, tag-array and hierarchy microbenchmark cases,
/// on fixed synthetic inputs independent of the workload.
fn microbenchmarks(min: Duration, put: &mut impl FnMut(String, &str, f64, usize)) {
    const OPS: usize = 4096;
    for sets in [128u32, 1024] {
        let mut pv = PropertyVector::new(sets);
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..sets / 4 {
            pv.set(rng.below(u64::from(sets)) as u32, true);
        }
        let ns = ns_per_op(OPS, min, || {
            for _ in 0..OPS {
                black_box(pv.take_next_rs());
            }
        });
        put(format!("pv.algorithm1_next_rs_{sets}_ns"), "ns", ns, OPS);
        let mut i = 0u32;
        let ns = ns_per_op(OPS, min, || {
            for _ in 0..OPS {
                i = (i + 7) % sets;
                pv.set(black_box(i), i.is_multiple_of(2));
            }
        });
        put(format!("pv.set_bit_{sets}_ns"), "ns", ns, OPS);
    }

    let geom = CacheGeometry::new(1024, 16);
    let mut arr: SetAssocArray<u64> = SetAssocArray::new(geom);
    let mut rng = SimRng::seed_from_u64(2);
    for set in 0..geom.sets {
        for way in 0..geom.ways {
            arr.fill(set, way, rng.next_u64() & 0xffff, 0);
        }
    }
    let mut i = 0u64;
    let ns = ns_per_op(OPS, min, || {
        for _ in 0..OPS {
            i += 1;
            black_box(arr.lookup((i % 1024) as u32, i & 0xffff));
        }
    });
    put("array.lookup_16way_ns".into(), "ns", ns, OPS);

    let mut h = CacheHierarchy::new(&HierarchyConfig::new(system()));
    let a = Access::read(CoreId::new(0), Addr::new(0x4000), 0x400);
    h.access(&a, 0, 0);
    let mut now = 1u64;
    let ns = ns_per_op(OPS, min, || {
        for _ in 0..OPS {
            now += 1;
            black_box(h.access(&a, now, now));
        }
    });
    put("hierarchy.micro.l1_hit_ns".into(), "ns", ns, OPS);

    let cfg = HierarchyConfig::new(system()).with_mode(LlcMode::Ziv(ZivProperty::LikelyDead));
    let mut h = CacheHierarchy::new(&cfg);
    let (mut line, mut now) = (0u64, 0u64);
    let ns = ns_per_op(OPS, min, || {
        for _ in 0..OPS {
            line += 1;
            now += 50;
            let a = Access::read(CoreId::new(0), Addr::new(line * 64), 0x400);
            black_box(h.access(&a, now, line));
        }
    });
    put(
        "hierarchy.micro.ziv_streaming_miss_ns".into(),
        "ns",
        ns,
        OPS,
    );
}
