//! Offline tests of the benchmark at tiny input sizes.

use std::path::PathBuf;
use ziv_benchmark::check::{pinned, Checker};
use ziv_benchmark::layers::{traced_replay, Class};
use ziv_benchmark::plan::{accesses, result_digest, Hooks};
use ziv_benchmark::report::{agree, parse_bounds, parse_results_file, results_file, Bound};
use ziv_benchmark::stats::Summary;
use ziv_benchmark::{layers, measure, Metric, Plan, Report, Sizes, WORKLOADS};
use ziv_common::json::{self, JsonValue};
use ziv_core::FaultInjection;

const TINY: Sizes = Sizes {
    shrink: 200,
    setup_sample_ms: 1,
    layer_batch_ms: 1,
    min_timed_reps: 2,
};

const SEED: u64 = 0x2026;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

fn plan(name: &str) -> Plan {
    Plan::new(name, SEED, &TINY).expect("known workload")
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json");
    let doc = json::parse(&text).expect("valid JSON");
    doc.get(key)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn assert_emits(report: &Report, names: &[(String, String)]) {
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    for (name, unit) in names {
        let m = report
            .metric(name)
            .unwrap_or_else(|| panic!("{}: {name} missing", report.workload));
        assert_eq!(&m.unit, unit, "{}: {name}", report.workload);
        let s = m.summary;
        for v in [s.value, s.q1, s.q3] {
            assert!(v.is_finite(), "{}: {name} = {v}", report.workload);
        }
    }
    assert_eq!(report.metrics.len(), names.len(), "{}", report.workload);
}

#[test]
fn every_declared_metric_is_emitted_finite_and_unit_tagged() {
    let (e2e, per_layer) = (declared("end_to_end"), declared("per_layer"));
    let workloads: Vec<String> = {
        let text = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json");
        let doc = json::parse(&text).expect("valid JSON");
        doc.get("workloads")
            .and_then(JsonValue::as_array)
            .expect("workload list")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(JsonValue::as_str)
                    .expect("name")
                    .into()
            })
            .collect()
    };
    assert_eq!(workloads, WORKLOADS);
    for w in WORKLOADS {
        let p = plan(w);
        let dir = scratch(&format!("emit-{w}"));
        let r = measure::end_to_end(&p, SEED, 0.0, &TINY, &dir);
        assert_emits(&r, &e2e);
        let rate = r.metric("accesses_per_s").unwrap().summary;
        assert_eq!(rate.n, TINY.min_timed_reps);
        assert!(rate.q1 <= rate.q3 && rate.value > 0.0);
        assert_emits(&layers::per_layer(&p, SEED, &TINY, &dir), &per_layer);
    }
}

#[test]
fn traced_class_counts_sum_to_the_replay_and_match_the_metrics() {
    for w in ["llc-thrash", "private-hot", "mt-shared-writes", "observed"] {
        let p = plan(w);
        let workloads = p.build();
        for c in &p.cells {
            let wl = &workloads[c.recipe];
            let r = traced_replay(&c.spec, wl);
            let count = |k: Class| r.times[k as usize].len() as u64;
            let m = &r.metrics;
            let total: u64 = Class::ALL.iter().map(|&k| count(k)).sum();
            assert_eq!(total, r.accesses);
            assert_eq!(r.accesses, wl.total_accesses());
            let sum = |f: fn(&ziv_core::metrics::CoreMetrics) -> u64| -> u64 {
                m.per_core.iter().map(f).sum()
            };
            let (acc, l1m, l2m) = (
                sum(|c| c.accesses),
                sum(|c| c.l1_misses),
                sum(|c| c.l2_misses),
            );
            assert_eq!(acc, r.accesses);
            assert_eq!(count(Class::L1Hit), acc - l1m);
            assert_eq!(count(Class::L2Hit), l1m - l2m);
            assert_eq!(count(Class::LlcHit), m.llc_hits);
            let misses = count(Class::LlcMiss) + count(Class::Relocation) + count(Class::BackInval);
            assert_eq!(misses, m.llc_misses);
            assert_eq!(count(Class::Relocation), m.relocations);
            assert!(count(Class::BackInval) <= m.inclusion_victim_events);
            assert_eq!(count(Class::BackInval) > 0, m.inclusion_victims > 0);
            assert_eq!(r.private_misses.len() as u64, l2m);
            assert_eq!(r.llc_misses.len() as u64, m.llc_misses);
        }
    }
}

#[test]
fn digests_are_stable_across_runs_and_execution_paths() {
    for w in WORKLOADS {
        let p = plan(w);
        let digests = |results: Vec<Result<ziv_sim::RunResult, String>>| -> Vec<u64> {
            results
                .iter()
                .map(|r| result_digest(r.as_ref().expect("tiny cells run")))
                .collect()
        };
        let first = digests(p.execute(&p.build(), &scratch(&format!("digest-{w}-1"))));
        let again = plan(w);
        let second = digests(again.execute(&again.build(), &scratch(&format!("digest-{w}-2"))));
        assert_eq!(first, second, "{w}: two runs disagree");
        // Every execution path (campaign runner, observer hooks) reproduces the
        // plain hooks-off run exactly.
        let plain = digests(p.run_cells(&p.build(), Hooks::OFF));
        assert_eq!(first, plain, "{w}: execution path changes results");
        let other = Plan::new(w, SEED + 1, &TINY).unwrap();
        let reseeded = digests(other.run_cells(&other.build(), Hooks::OFF));
        assert_ne!(first, reseeded, "{w}: the seed must reach the inputs");
    }
}

#[test]
fn every_cell_is_pinned_for_the_default_and_the_held_out_seed() {
    for seed in [0x2026, 1] {
        for w in WORKLOADS {
            let p = Plan::new(w, seed, &Sizes::FULL).unwrap();
            let pins = pinned(&p, seed, &Sizes::FULL);
            for (i, pin) in pins.iter().enumerate() {
                assert!(pin.is_some(), "{seed:#x} {w} {} unpinned", p.cell_id(i));
            }
        }
    }
    // Shrunken inputs are never checked against full-size pins.
    let p = plan("llc-thrash");
    assert!(pinned(&p, SEED, &TINY).iter().all(Option::is_none));
}

#[test]
fn a_panicking_cell_fails_alone_and_is_named() {
    let mut p = plan("llc-thrash");
    p.cells[1].spec.fault = Some(FaultInjection::PanicCore { at_access: 10 });
    let r = measure::end_to_end(&p, SEED, 0.0, &TINY, &scratch("panic"));
    assert_eq!(r.attempted, p.cells.len());
    assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
    assert!(
        r.failures[0].starts_with(&p.cell_id(1)) && r.failures[0].contains("panicked"),
        "{:?}",
        r.failures
    );
}

#[test]
fn checker_names_each_failed_cell() {
    let p = plan("llc-thrash");
    let results = p.run_cells(&p.build(), Hooks::OFF);
    let ziv = p.cells.iter().position(|c| c.spec.mode.is_ziv()).unwrap();
    let mut pins = vec![None; p.cells.len()];
    pins[0] = Some(0xdead_beef);
    let mut checker = Checker::new(&p, pins);
    let mut doctored = results.clone();
    if let Ok(r) = &mut doctored[ziv] {
        r.metrics.inclusion_victims = 1;
    }
    checker.reference(&doctored);
    let mut rerun = results.clone();
    rerun[1] = Err("injected".into());
    checker.same_as_reference("rerun", &rerun);
    let failures = checker.failures();
    assert_eq!(failures.len(), 3, "{failures:?}");
    assert!(failures[0].starts_with(&p.cell_id(0)) && failures[0].contains("pinned"));
    assert!(failures
        .iter()
        .any(|f| f.starts_with(&p.cell_id(1)) && f.contains("injected")));
    assert!(failures
        .iter()
        .any(|f| f.starts_with(&p.cell_id(ziv)) && f.contains("inclusion victim")));
    assert!(accesses(results[0].as_ref().unwrap()) > 0);
}

fn report(workload: &str, rate: Summary) -> Report {
    Report {
        workload: workload.into(),
        seed: SEED,
        traced: false,
        attempted: 4,
        failures: vec![],
        metrics: vec![
            Metric::new("accesses_per_s", "1/s", rate),
            Metric::new("setup_s", "s", Summary::of(&[0.10, 0.11, 0.12])),
        ],
    }
}

#[test]
fn agree_accepts_matching_sets_and_rejects_a_doctored_file() {
    let bounds = vec![
        Bound {
            name: "accesses_per_s".into(),
            bound: 0.1,
        },
        Bound {
            name: "setup_s".into(),
            bound: 0.25,
        },
    ];
    let a = vec![report("llc-thrash", Summary::of(&[1.00e6, 1.01e6, 1.02e6]))];
    let b = vec![report("llc-thrash", Summary::of(&[1.02e6, 1.03e6, 1.04e6]))];
    // Round trip through the result-file format first.
    let b = parse_results_file(&results_file(&b)).expect("round trip");
    let (_, failed) = agree(&a, &b, &bounds);
    assert!(failed.is_empty(), "{failed:?}");

    let mut doctored = b.clone();
    doctored[0].metrics[0].summary.value *= 1.5;
    let (table, failed) = agree(&a, &doctored, &bounds);
    assert_eq!(failed.len(), 1, "{table}");
    assert!(
        failed[0].contains("llc-thrash accesses_per_s"),
        "{failed:?}"
    );

    // A spread wider than the bound cannot be judged: unresolved, not failed.
    let noisy = vec![report("llc-thrash", Summary::of(&[0.5e6, 1.5e6, 2.5e6]))];
    let (table, failed) = agree(&a, &noisy, &bounds);
    assert!(failed.is_empty() && table.contains("unresolved"), "{table}");

    // A row missing from one side fails.
    let mut missing = b.clone();
    missing[0].metrics.remove(1);
    let (_, failed) = agree(&a, &missing, &bounds);
    assert_eq!(failed.len(), 1);
    assert!(failed[0].contains("setup_s"));

    // Any difference in failed cells fails, whatever the timings.
    let mut broken = b.clone();
    broken[0].failures.push("I-LRU/circset: injected".into());
    let (_, failed) = agree(&a, &broken, &bounds);
    assert_eq!(failed.len(), 1);
    assert!(failed[0].contains("llc-thrash failed_frac"), "{failed:?}");

    let declared = std::fs::read_to_string("../BENCHMARK.json").unwrap();
    let parsed = parse_bounds(&declared).expect("BENCHMARK.json bounds");
    assert_eq!(parsed.len(), 3);
}
