//! Regenerates the paper's figures, ablations and extensions: every
//! figure entry of the `ziv-harness` campaign registry, or the entries
//! named as arguments, each run through the resumable cached runner and
//! printed through its views, the same function `zivsim campaign`
//! prints with. A failed cell or a broken exact-zero guarantee fails
//! the run.
//!
//! ```text
//! cargo bench -p ziv-bench --bench figures [-- <entry>...]
//! ```
//!
//! Results are cached in the workspace's `results/<entry>/` (or under
//! `$ZIV_RESULTS_DIR`), so a rerun simulates only the cells missing
//! from the ledger there.
use std::process::ExitCode;
use std::time::Instant;
use ziv_bench::campaign_results_dir;
use ziv_harness::{campaigns, run_campaign, CampaignParams, RunnerConfig, StderrProgress};

fn main() -> ExitCode {
    // Cargo appends `--bench` to the arguments it passes through.
    let names: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--bench")
        .collect();
    let entries = if names.is_empty() {
        campaigns::ENTRIES
            .iter()
            .filter(|e| e.is_figure())
            .collect()
    } else {
        let found: Result<Vec<_>, _> = names.iter().map(|n| campaigns::entry(n).ok_or(n)).collect();
        match found {
            Ok(entries) => entries,
            Err(name) => {
                let known: Vec<_> = campaigns::ENTRIES.iter().map(|e| e.name).collect();
                eprintln!("unknown entry '{name}' (one of: {})", known.join(", "));
                return ExitCode::from(2);
            }
        }
    };
    let params = CampaignParams::from_env();
    let mut ok = true;
    for entry in entries {
        let started = Instant::now();
        let campaign = entry.build(&params);
        let dir = campaign_results_dir(entry.name);
        let cfg = RunnerConfig {
            threads: params.effort.threads,
            resume: true,
            params: Some(params),
            ..RunnerConfig::new(&dir)
        };
        let outcome = match run_campaign(&campaign, &cfg, &StderrProgress) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("campaign '{}' failed: {e}", entry.name);
                return ExitCode::FAILURE;
            }
        };
        let mut text = String::new();
        let verdict = entry.report(&campaign, &outcome.grid, &mut text);
        print!("{text}");
        let t = &outcome.telemetry;
        println!(
            "[{} of {} cells from cache; grid: {}]",
            t.cached_cells,
            t.total_cells,
            outcome.grid_csv.display()
        );
        println!(
            "[{} runs in {:.1}s — effort: {:?}]\n",
            t.executed_cells,
            started.elapsed().as_secs_f64(),
            params.effort
        );
        if !outcome.failures.is_empty() {
            eprintln!(
                "campaign '{}': {} cell(s) failed — see {}/failures/",
                entry.name,
                outcome.failures.len(),
                dir.display()
            );
            ok = false;
        }
        if let Err(broken) = verdict {
            eprintln!("{broken}");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
