//! The side-channel acceptance gate (DESIGN.md §"Security
//! evaluation"): under an inclusive LLC the attack workloads produce a
//! *nonzero* attacker-observable signal — victim lines back-invalidated
//! out of attacker-probed sets — while every ZIV mode reports **exactly
//! zero**, the observatory's books conserve against the aggregate
//! metrics, and the leakage capture never perturbs results.

use ziv::harness::{campaigns, run_campaign, CampaignParams, NullSink, RunnerConfig};
use ziv::prelude::*;
use ziv::sim::{
    run_one, run_one_instrumented, LeakageReport, ObserveConfig, RunOptions, RunResult,
};
use ziv::workloads::attack::{self, AttackRecipe};
use ziv::workloads::{mixes, AttackPlan};

fn attack_workload(recipe: AttackRecipe, cores: usize, accesses: usize, seed: u64) -> Workload {
    let sys = SystemConfig::scaled();
    attack::generate(
        recipe,
        cores,
        accesses,
        seed,
        ScaleParams::from_system(&sys),
    )
}

fn leakage_run(spec: &RunSpec, wl: &Workload) -> (RunResult, LeakageReport) {
    let opts = RunOptions {
        observe: ObserveConfig {
            leakage: true,
            ..ObserveConfig::disabled()
        },
        ..RunOptions::default()
    };
    let (result, obs) = run_one_instrumented(spec, wl, &opts, None, None);
    let result = result.expect("attack run completes");
    let report = obs
        .expect("observatory was on")
        .leakage
        .expect("attack plan attaches the leakage observatory");
    (result, report)
}

fn spec(label: &str, mode: LlcMode) -> RunSpec {
    RunSpec::new(label, SystemConfig::scaled()).with_mode(mode)
}

/// The paper's security claim, end to end: the inclusive baseline
/// leaks (nonzero observable victim evictions per Mcycle) and both ZIV
/// properties are *exactly* silent — for both attack scenarios — while
/// the observatory conserves against `Metrics::inclusion_victims`.
#[test]
fn inclusive_leaks_and_ziv_is_exactly_silent() {
    for recipe in [AttackRecipe::prime_probe(8), AttackRecipe::hammer(8)] {
        let wl = attack_workload(recipe, 4, 2_000, 7);
        let grid = [
            ("I-LRU", LlcMode::Inclusive, true),
            ("ZIV-NotInPrC", LlcMode::Ziv(ZivProperty::NotInPrC), false),
            (
                "ZIV-LikelyDead",
                LlcMode::Ziv(ZivProperty::LikelyDead),
                false,
            ),
        ];
        for (label, mode, leaks) in grid {
            let (result, report) = leakage_run(&spec(label, mode), &wl);
            // Conservation: the observatory's total equals the metric,
            // for every mode — the books balance exactly.
            assert_eq!(
                report.total_back_invalidations(),
                result.metrics.inclusion_victims,
                "{label} × {}: leakage books do not balance",
                wl.name
            );
            assert!(report.cycles > 0, "driver fills the co-run window");
            if leaks {
                assert!(
                    report.observable_victim_evictions() > 0,
                    "{label} × {}: the inclusive channel must be observable",
                    wl.name
                );
                assert!(report.observable_per_mcycle() > 0.0);
            } else {
                assert_eq!(
                    report.observable_victim_evictions(),
                    0,
                    "{label} × {}: ZIV must close the channel exactly",
                    wl.name
                );
                assert_eq!(report.total_back_invalidations(), 0);
                assert_eq!(result.metrics.inclusion_victims, 0);
            }
        }
    }
}

/// Attack workload generation is a pure function of its arguments, and
/// the leakage observatory is a pure observer: running with the
/// observatory on must not change a single metric.
#[test]
fn leakage_capture_does_not_perturb_results() {
    let wl = attack_workload(AttackRecipe::prime_probe(8), 2, 1_500, 11);
    for mode in [
        LlcMode::Inclusive,
        LlcMode::Qbs,
        LlcMode::Sharp,
        LlcMode::Ziv(ZivProperty::NotInPrC),
    ] {
        let s = spec("cmp", mode);
        let plain = run_one(&s, &wl);
        let (observed, _) = leakage_run(&s, &wl);
        assert_eq!(
            plain.metrics, observed.metrics,
            "leakage observatory perturbed {mode:?}"
        );
        assert_eq!(plain.cores, observed.cores);
    }
}

/// The attack-eval campaign end to end, including the cross-thread
/// determinism the content-addressed cache depends on: the grid and
/// leakage exports are byte-identical at any thread count, the
/// inclusive rows show signal, and every ZIV row is zero.
#[test]
fn attack_eval_campaign_is_thread_deterministic_and_gated() {
    let base = std::env::temp_dir().join(format!("ziv-attack-eval-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let params = CampaignParams::tiny();
    let campaign = campaigns::by_name("attack-eval", &params).expect("attack-eval exists");

    let run = |dir: &str, threads: usize| {
        let cfg = RunnerConfig {
            threads,
            params: Some(params),
            observe: ObserveConfig {
                leakage: true,
                ..ObserveConfig::disabled()
            },
            ..RunnerConfig::new(base.join(dir))
        };
        run_campaign(&campaign, &cfg, &NullSink).expect("campaign runs")
    };
    let one = run("t1", 1);
    let two = run("t2", 2);
    assert!(one.failures.is_empty() && two.failures.is_empty());

    let read = |p: &std::path::Path| std::fs::read(p).expect("artifact exists");
    assert_eq!(
        read(&one.grid_csv),
        read(&two.grid_csv),
        "grid.csv differs across thread counts"
    );
    let leak_1 = one.leakage_csv.as_deref().expect("leakage.csv written");
    let leak_2 = two.leakage_csv.as_deref().expect("leakage.csv written");
    assert_eq!(
        read(leak_1),
        read(leak_2),
        "leakage.csv differs across thread counts"
    );

    // Gate on the CSV the campaign ships: inclusive leaks, ZIV doesn't.
    let text = String::from_utf8(read(leak_1)).unwrap();
    let mut lines = text.lines();
    let header: Vec<&str> = lines.next().expect("header").split(',').collect();
    let signal_col = header
        .iter()
        .position(|h| *h == "signal_evictions")
        .expect("signal column");
    let mut inclusive_rows = 0;
    let mut ziv_rows = 0;
    for line in lines {
        let fields: Vec<&str> = line.split(',').collect();
        let signal: u64 = fields[signal_col].parse().expect("integer signal");
        if fields[0].starts_with("I-") {
            inclusive_rows += 1;
            assert!(signal > 0, "inclusive row without signal: {line}");
        } else if fields[0].starts_with("ZIV-") {
            ziv_rows += 1;
            assert_eq!(signal, 0, "ZIV row with signal: {line}");
        }
    }
    assert_eq!(inclusive_rows, 2, "both scenarios ran under I-LRU");
    assert_eq!(ziv_rows, 4, "both scenarios ran under both ZIV modes");
    std::fs::remove_dir_all(&base).ok();
}

/// The leakage report carries the run's SHARP alarms, which the driver
/// copies from `Metrics::sharp_alarms`. The attack co-schedules raise
/// none, so the plan rides on a mix whose 1 MB L2s hold whole LLC sets,
/// where SHARP has to evict another core's block.
#[test]
fn leakage_report_carries_every_sharp_alarm() {
    let sys = SystemConfig::scaled_with_l2(L2Size::M1);
    let mut wl = mixes::heterogeneous(0, 8, 6_000, 3, ScaleParams::from_system(&sys));
    wl.attack = Some(AttackPlan {
        attacker_cores: vec![0],
        victim_cores: vec![1],
        probe_lines: vec![0],
    });
    let sharp = RunSpec::new("SHARP-LRU", sys).with_mode(LlcMode::Sharp);
    let (result, report) = leakage_run(&sharp, &wl);
    assert!(result.metrics.sharp_alarms > 0, "the cell raises alarms");
    assert_eq!(report.sharp_alarms, result.metrics.sharp_alarms);
}
