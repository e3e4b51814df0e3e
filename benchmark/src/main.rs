//! `benchmark`: the repository benchmark's command line.
//!
//! ```text
//! benchmark [run|trace] [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! benchmark agree A.json B.json
//! benchmark pin [--seed N]
//! ```
//!
//! `run` (the default) measures the end-to-end metrics, `trace` (or
//! `--trace 1`) the per-layer metrics; without `--workload` every
//! workload runs, one after another, each in a fresh child process (this
//! binary re-executed). The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and every metric's value
//! with its unit. `--out` also writes every metric's value, quartiles
//! and sample count, the input of `agree`, which reads the bounds from
//! `BENCHMARK.json` in the working directory. `pin` prints the result
//! digests `expected/digests.txt` pins for a seed.
//!
//! Exit codes: 0 success, 1 a failed cell or a disagreeing row, 2 a
//! usage or I/O error.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use ziv_benchmark::check::parse_seed;
use ziv_benchmark::plan::result_digest;
use ziv_benchmark::report::{agree, parse_bounds, parse_results_file, result_line, results_file};
use ziv_benchmark::{layers, measure, Plan, Report, Sizes, WORKLOADS};
use ziv_common::json;

/// Hidden subcommand the parent re-executes itself with.
const CHILD: &str = "__workload";

/// A workload's child is killed after this long; the whole command must
/// finish within three minutes per workload.
const CHILD_DEADLINE: Duration = Duration::from_secs(170);

const DEFAULT_SEED: u64 = 0x2026;
const DEFAULT_SECONDS: f64 = 20.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let (cmd, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "agree" | "pin" | CHILD)) => (c, &args[1..]),
        _ => ("run", args),
    };
    match cmd {
        "agree" => agree_cmd(rest),
        "pin" => pin_cmd(&Opts::parse(rest)?),
        CHILD => child_cmd(rest),
        _ => measure_cmd(cmd == "trace", &Opts::parse(rest)?),
    }
}

#[derive(Debug)]
struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut o = Opts {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            out: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let w = value()?;
                    if !WORKLOADS.contains(&w.as_str()) {
                        return Err(format!(
                            "unknown workload '{w}' (one of: {})",
                            WORKLOADS.join(", ")
                        ));
                    }
                    o.workload = Some(w.clone());
                }
                "--seed" => {
                    let v = value()?;
                    o.seed = parse_seed(v).ok_or(format!("bad --seed '{v}'"))?;
                }
                "--seconds" => {
                    let v = value()?;
                    o.seconds = v
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or(format!("bad --seconds '{v}'"))?;
                }
                "--trace" => {
                    o.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("bad --trace '{v}' (0 or 1)")),
                    }
                }
                "--out" => o.out = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        Ok(o)
    }

    fn workloads(&self) -> Vec<&str> {
        match &self.workload {
            Some(w) => vec![w.as_str()],
            None => WORKLOADS.to_vec(),
        }
    }
}

fn measure_cmd(trace: bool, o: &Opts) -> Result<ExitCode, String> {
    let traced = trace || o.trace;
    let mut reports = Vec::new();
    for w in o.workloads() {
        let report = run_child(w, o.seed, o.seconds, traced)
            .unwrap_or_else(|e| child_failed(w, o.seed, traced, &e));
        print!("{}", report.table());
        reports.push(report);
    }
    if let Some(out) = &o.out {
        std::fs::write(out, results_file(&reports))
            .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    }
    println!("{}", result_line(&reports));
    let failed = reports.iter().any(|r| !r.failures.is_empty());
    Ok(if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// Runs one workload in a fresh child process and reads back its report.
fn run_child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let mut child = Command::new(exe)
        .args([
            CHILD,
            workload,
            &seed.to_string(),
            &seconds.to_string(),
            if traced { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        stdout.read_to_string(&mut s).map(|_| s)
    });
    let deadline = Instant::now() + CHILD_DEADLINE;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            Ok(None) => {
                break Err(format!(
                    "{workload} did not finish within {CHILD_DEADLINE:?}"
                ))
            }
            Err(e) => break Err(format!("waiting for {workload}: {e}")),
        }
    };
    if status.is_err() {
        // Kill and reap the child: its exit closes the pipe, which ends
        // the reader.
        let _ = child.kill();
        let _ = child.wait();
    }
    let text = reader.join().expect("the reader thread does not panic");
    let status = status?;
    let text = text.map_err(|e| format!("reading the {workload} child: {e}"))?;
    if !status.success() {
        return Err(format!("the {workload} child exited with {status}"));
    }
    let last = text.lines().last().unwrap_or_default();
    json::parse(last)
        .and_then(|v| Report::from_json(&v))
        .map_err(|e| format!("bad report from the {workload} child: {e}"))
}

/// The report of a workload whose child died (a panic outside any cell,
/// a crash, the deadline): every one of its cells failed, by name. The
/// other workloads still run.
fn child_failed(workload: &str, seed: u64, traced: bool, err: &str) -> Report {
    let plan = Plan::new(workload, seed, &Sizes::FULL).expect("validated workload name");
    Report {
        workload: workload.to_string(),
        seed,
        traced,
        attempted: plan.cells.len(),
        failures: (0..plan.cells.len())
            .map(|i| format!("{}: {err}", plan.cell_id(i)))
            .collect(),
        metrics: Vec::new(),
    }
}

/// The child: measures one workload and prints its report as JSON.
fn child_cmd(args: &[String]) -> Result<ExitCode, String> {
    let [workload, seed, seconds, traced] = args else {
        return Err("internal: bad child arguments".into());
    };
    let seed = parse_seed(seed).ok_or("internal: bad child seed")?;
    let seconds: f64 = seconds.parse().map_err(|_| "internal: bad child seconds")?;
    let sizes = Sizes::FULL;
    let plan = Plan::new(workload, seed, &sizes).ok_or("internal: unknown workload")?;
    let scratch = scratch_dir()?;
    eprintln!(
        "benchmark: {workload} (seed {seed:#x}, {})",
        if traced == "1" {
            "traced"
        } else {
            "end to end"
        }
    );
    let report = if traced == "1" {
        layers::per_layer(&plan, seed, &sizes, &scratch)
    } else {
        measure::end_to_end(&plan, seed, seconds, &sizes, &scratch)
    };
    remove_scratch(&scratch);
    println!("{}", report.to_json());
    Ok(ExitCode::SUCCESS)
}

/// A private directory under `.bench_tmp/` in the working directory.
fn scratch_dir() -> Result<PathBuf, String> {
    let dir = Path::new(".bench_tmp").join(std::process::id().to_string());
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn remove_scratch(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    // Succeeds only once no other run is using `.bench_tmp/`.
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}

fn agree_cmd(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: benchmark agree A.json B.json".into());
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let bounds =
        parse_bounds(&read("BENCHMARK.json")?).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let a_reports = parse_results_file(&read(a)?).map_err(|e| format!("{a}: {e}"))?;
    let b_reports = parse_results_file(&read(b)?).map_err(|e| format!("{b}: {e}"))?;
    let (table, failed) = agree(&a_reports, &b_reports, &bounds);
    print!("{table}");
    if failed.is_empty() {
        println!("every row agrees within its bound (unresolved rows excepted)");
        Ok(ExitCode::SUCCESS)
    } else {
        for f in &failed {
            println!("FAILED {f}");
        }
        Ok(ExitCode::from(1))
    }
}

/// Prints `<seed> <workload> <cell> <digest>` for every cell of every
/// workload, the format of `expected/digests.txt`.
fn pin_cmd(o: &Opts) -> Result<ExitCode, String> {
    let scratch = scratch_dir()?;
    let mut failed = false;
    for w in o.workloads() {
        let plan = Plan::new(w, o.seed, &Sizes::FULL).expect("validated workload name");
        let results = plan.execute(&plan.build(), &scratch.join(w));
        for (i, r) in results.iter().enumerate() {
            match r {
                Ok(r) => println!(
                    "{:#x} {w} {} {:016x}",
                    o.seed,
                    plan.cell_id(i),
                    result_digest(r)
                ),
                Err(e) => {
                    eprintln!("{w} {}: {e}", plan.cell_id(i));
                    failed = true;
                }
            }
        }
    }
    remove_scratch(&scratch);
    Ok(if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}
