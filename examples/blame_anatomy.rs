//! Anatomy of the blame matrix: run one inclusion-victim-heavy mix
//! under the baseline inclusive LLC and under ZIV with the causal
//! forensics observatory on, print the worst causal chains (instigator
//! access → eviction decision → victimized cores → refetch cost) and
//! the instigator × victim blame matrix, and verify both conservation
//! laws on the spot.
//!
//! Run with `cargo run --release --example blame_anatomy`.

use ziv_common::config::SystemConfig;
use ziv_core::{LlcMode, ZivProperty};
use ziv_sim::{run_one_instrumented, ObserveConfig, RunOptions, RunSpec};
use ziv_workloads::{apps, mixes, ScaleParams, Workload};

fn main() {
    let sys = SystemConfig::scaled();
    let sc = ScaleParams::from_system(&sys);
    // Hot cores keep private-resident sets whose LLC copies age out;
    // streaming cores supply the eviction pressure that reaches them.
    let hot = mixes::homogeneous(apps::app_by_name("hotl2").unwrap(), 2, 60_000, 3, sc);
    let stream = mixes::homogeneous(apps::app_by_name("stream").unwrap(), 4, 10_000, 5, sc);
    let mut traces = hot.traces;
    traces.extend(stream.traces.into_iter().skip(2));
    let wl = Workload {
        name: "hot-vs-stream".into(),
        traces,
        attack: None,
    };
    let opts = RunOptions {
        observe: ObserveConfig {
            forensics: true,
            latency: true, // the independent refetch-cycle account
            ..ObserveConfig::disabled()
        },
        ..RunOptions::default()
    };

    for (label, mode) in [
        ("I-LRU", LlcMode::Inclusive),
        ("ZIV-LikelyDead", LlcMode::Ziv(ZivProperty::LikelyDead)),
    ] {
        let spec = RunSpec::new(label, sys.clone()).with_mode(mode);
        let (result, obs) = run_one_instrumented(&spec, &wl, &opts, None, None);
        let result = result.expect("run succeeds");
        let obs = obs.expect("observatory on");
        let latency = obs.latency.as_ref().unwrap();
        let f = obs.forensics.as_ref().unwrap();

        println!("=== {label} ===");
        println!(
            "chains: {} ({} inclusive, {} ECI); victims {}; refetches {} costing {} cycles",
            f.chains_recorded,
            f.inclusive_chains,
            f.eci_chains,
            f.total_victims(),
            f.total_refetches(),
            f.total_refetch_cycles(),
        );
        // The two conservation laws, checked live.
        assert_eq!(f.total_victims(), result.metrics.inclusion_victims);
        assert_eq!(
            f.total_refetch_cycles(),
            latency.inclusion_victim_refetch_cycles()
        );
        println!(
            "conserved: victims == Metrics::inclusion_victims ({}); \
             refetch cycles == latency observatory ({})",
            result.metrics.inclusion_victims,
            latency.inclusion_victim_refetch_cycles(),
        );

        if f.chains_recorded == 0 {
            println!("no causal chains — the zero-inclusion-victim guarantee, per incident\n");
            continue;
        }
        println!("worst chains by damage:");
        for c in f.top_chains(5) {
            let alloc = match &c.alloc {
                Some(a) => format!("core {} @ access {}", a.core.index(), a.access_index),
                None => "stamp displaced".into(),
            };
            println!(
                "  #{:<4} core {} access {:>8} evicted {} (bank {} set {:>3}, {}) \
                 -> {} victim(s), {} refetch(es), {} cycles  [allocated by {alloc}]",
                c.seq,
                c.instigator_core.index(),
                c.instigator_access,
                c.line,
                c.bank,
                c.set,
                c.reason.label(),
                c.victim_count,
                c.refetches,
                c.refetch_cycles,
            );
        }
        println!("blame matrix (rows instigate, columns pay — victims):");
        for i in 0..f.cores {
            print!("  core {i}:");
            for v in 0..f.cores {
                print!(" {:>7}", f.victims(i, v));
            }
            println!("   ({} cross-core)", f.cross_core_victims(i));
        }
        println!();
    }
}
