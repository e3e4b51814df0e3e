//! The end-to-end run: one untimed warm-up repetition that is also the
//! correctness pass, then timed repetitions filling the measuring
//! window, each preceded by one set-up sample. Every hook stays off
//! except on `observed`. Both timings are in reference seconds
//! ([`RefClock`]), so that they follow the program and not the host's
//! other tenants.

use crate::check::{pinned, Checker};
use crate::plan::{accesses, Execution, Hooks, Plan, Sizes};
use crate::refclock::RefClock;
use crate::report::{Metric, Report};
use crate::stats::Summary;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use ziv_core::CacheHierarchy;

/// Measures `plan` end to end for about `seconds` of timed repetitions,
/// and at least `sizes.min_timed_reps`; `scratch` is a private
/// directory for campaign results.
pub fn end_to_end(plan: &Plan, seed: u64, seconds: f64, sizes: &Sizes, scratch: &Path) -> Report {
    let workloads = plan.build();
    let mut checker = Checker::new(plan, pinned(plan, seed, sizes));
    let rep_dir = |rep: usize| scratch.join(format!("rep-{rep}"));

    let warm = plan.execute(&workloads, &rep_dir(0));
    checker.reference(&warm);
    if plan.execution == Execution::Observed {
        let twin = plan.run_cells(&workloads, Hooks::OFF);
        checker.same_as_reference("hooks-off twin", &twin);
    }
    let served = warm.iter().flatten().map(accesses).sum::<u64>() as f64;
    // Read before the set-up samples below build a second copy of the
    // inputs beside the first.
    let rss = peak_rss_mib();
    let mut clock = RefClock::new();

    // `reps[r][u]`: reference seconds of timed unit `u` in repetition `r`.
    let (mut reps, mut setup) = (Vec::<Vec<f64>>::new(), Vec::new());
    let window = Instant::now();
    let mut last = Duration::ZERO;
    // A repetition that would end past the window is not started.
    while reps.len() < sizes.min_timed_reps || (window.elapsed() + last).as_secs_f64() <= seconds {
        let t0 = Instant::now();
        // Spread over the window, the set-up samples see the same host
        // conditions as the repetitions, not only those of its start.
        let (steps, setup_seconds) = clock.time(|| setup_steps(plan, sizes));
        setup.push(setup_seconds / f64::from(steps));
        let dir = rep_dir(reps.len() + 1);
        let (results, times) = plan.execute_timed(&workloads, &dir, &mut clock);
        eprintln!(
            "  {} rep {}: {:.3} reference s",
            plan.name,
            reps.len() + 1,
            times.iter().sum::<f64>()
        );
        checker.same_as_reference("timed repetition", &results);
        // Campaign result directories are only inspected by the checker
        // above; a failed removal leaves files behind but no wrong answer.
        let _ = std::fs::remove_dir_all(&dir);
        reps.push(times);
        last = t0.elapsed();
    }
    let _ = std::fs::remove_dir_all(rep_dir(0));

    let rate = |reps: &[Vec<f64>]| served / rep_seconds(reps);
    Report {
        workload: plan.name.to_string(),
        seed,
        traced: false,
        attempted: checker.attempted(),
        failures: checker.failures(),
        metrics: vec![
            Metric::new("accesses_per_s", "1/s", Summary::bootstrap(&reps, rate)),
            Metric::new("setup_s", "s", Summary::bootstrap(&setup, median)),
            Metric::new("peak_rss_mib", "MiB", Summary::single(rss)),
        ],
    }
}

/// One repetition's duration: each timed unit's median over `reps`,
/// summed.
fn rep_seconds(reps: &[Vec<f64>]) -> f64 {
    (0..reps[0].len())
        .map(|u| median(&reps.iter().map(|r| r[u]).collect::<Vec<_>>()))
        .sum()
}

fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).value
}

/// The set-up step, repeated until it covers `sizes.setup_sample_ms`, so
/// timer resolution and one-off stalls wash out; returns how often it
/// ran. The step generates the workload's inputs from their recipes and
/// builds one hierarchy per cell.
fn setup_steps(plan: &Plan, sizes: &Sizes) -> u32 {
    let min = Duration::from_millis(sizes.setup_sample_ms);
    let t0 = Instant::now();
    let mut steps = 0u32;
    loop {
        let workloads = plan.build();
        for c in &plan.cells {
            let cfg = c.spec.build_hierarchy_config(&workloads[c.recipe]);
            black_box(CacheHierarchy::new(&cfg));
        }
        black_box(&workloads);
        steps += 1;
        if t0.elapsed() >= min {
            break;
        }
    }
    steps
}

/// This process's peak resident set (`VmHWM`), in MiB; 0 where the
/// kernel does not report it.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
