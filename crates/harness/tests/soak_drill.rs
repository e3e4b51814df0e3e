//! End-to-end drill of the chaos soak: every injected fault isolated,
//! surviving cells byte-identical to the fault-free pass, crash
//! recovery proven. This is the library-level twin of `zivsim soak`.

use ziv_harness::{campaigns, run_soak, CampaignParams, NullSink, SoakConfig};

fn temp_dir(name: &str) -> std::path::PathBuf {
    std::env::temp_dir()
        .join("ziv-harness-soak-it")
        .join(format!("{name}-{}", std::process::id()))
}

#[test]
fn chaos_soak_isolates_every_fault_and_survives_a_torn_ledger() {
    let dir = temp_dir("drill");
    std::fs::remove_dir_all(&dir).ok();
    let cfg = SoakConfig {
        threads: 2,
        params: CampaignParams::tiny(),
        ..SoakConfig::new(dir.clone())
    };
    let report = run_soak(&cfg, &NullSink).expect("soak infrastructure must not fail");
    assert!(report.passed(), "soak violations: {:#?}", report.violations);
    // Four armed injectors, each ledgered at least once; the grid is
    // 7 specs × 3 workloads and the healthy rows all survive.
    assert_eq!(report.fault_plan.len(), 4);
    assert_eq!(report.total_cells, 21);
    assert!(
        report.chaos_failures >= 4,
        "expected every injector to fell at least one cell, got {}",
        report.chaos_failures
    );
    assert_eq!(
        report.identical_rows,
        report.total_cells - report.chaos_failures,
        "every surviving cell must match the fault-free pass byte-for-byte"
    );
    assert!(report.torn_tail_detected);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_schedule_is_deterministic_per_seed() {
    let params = CampaignParams::tiny();
    let (a, faults_a) = campaigns::soak_chaos(&params);
    let (_, faults_b) = campaigns::soak_chaos(&params);
    assert_eq!(faults_a, faults_b);
    // Spec 0 (baseline) and the last two specs are never faulted; the
    // back-invalidation fault sits on an inclusive spec.
    assert!(faults_a.iter().all(|f| f.spec_index != 0));
    assert!(faults_a.iter().all(|f| f.spec_index < a.specs.len() - 2));
    let skip = faults_a
        .iter()
        .find(|f| f.fault.kind_str() == "skip-back-invalidation")
        .expect("schedule includes the back-invalidation fault");
    assert_eq!(skip.spec_index, 1, "pinned to I-Hawkeye (inclusive)");

    let mut other = params;
    other.seed ^= 0xdead_beef;
    let (_, faults_c) = campaigns::soak_chaos(&other);
    assert_ne!(
        faults_a, faults_c,
        "different seeds must draw different chaos schedules"
    );
}
