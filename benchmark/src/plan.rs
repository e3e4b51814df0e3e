//! The five benchmark workloads as data: which recipes each generates,
//! which configurations (cells) it simulates, and how it drives them.

use crate::refclock::RefClock;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use ziv_common::config::{L2Size, SystemConfig};
use ziv_common::Fnv1a;
use ziv_core::{LlcMode, ZivProperty};
use ziv_harness::{run_campaign, Campaign, NullSink, RunnerConfig};
use ziv_replacement::PolicyKind;
use ziv_sim::{
    run_one_checked, run_one_instrumented, CancelToken, EventTraceConfig, ObserveConfig,
    ProbeSnapshot, RunOptions, RunResult, RunSpec, TelemetryProbe,
};
use ziv_workloads::{apps, AttackRecipe, MtApp, Recipe, ScaleParams, Workload};

/// Every workload, in the order `run` executes them.
pub const WORKLOADS: [&str; 5] = [
    "llc-thrash",
    "private-hot",
    "mt-shared-writes",
    "paper-grid",
    "observed",
];

/// How big the benchmark's inputs and samples are. The binary always
/// uses [`Sizes::FULL`]; tests pass smaller sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Every workload's accesses per core are divided by this.
    pub shrink: usize,
    /// One `setup_s` sample repeats the set-up step until it covers at
    /// least this many milliseconds, then divides.
    pub setup_sample_ms: u64,
    /// One per-layer replay batch repeats until it covers at least this
    /// many milliseconds.
    pub layer_batch_ms: u64,
    /// Timed repetitions (each with one `setup_s` sample) run at least
    /// this often, however short the measuring window.
    pub min_timed_reps: usize,
}

impl Sizes {
    /// The benchmark's own sizes.
    pub const FULL: Sizes = Sizes {
        shrink: 1,
        setup_sample_ms: 150,
        layer_batch_ms: 20,
        min_timed_reps: 5,
    };
}

/// How a workload's cells are driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Execution {
    /// Each cell through `ziv_sim::run_one_checked`, one after another,
    /// with every observer hook off.
    Direct,
    /// The whole grid through `ziv_harness::run_campaign`: one supervised
    /// worker, fsync'd ledger and CSV export into a fresh results
    /// directory, no resume.
    Campaign,
    /// Each cell through `ziv_sim::run_one_instrumented` with all seven
    /// observer hooks on.
    Observed,
}

/// One simulated configuration × workload pair.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The configuration.
    pub spec: RunSpec,
    /// Index into [`Plan::recipes`].
    pub recipe: usize,
}

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Workload name (`llc-thrash`, …).
    pub name: &'static str,
    /// The generated inputs.
    pub recipes: Vec<Recipe>,
    /// The cells, in execution order.
    pub cells: Vec<Cell>,
    /// How the cells run.
    pub execution: Execution,
}

/// Every configuration the benchmark uses, by figure-style label.
pub(crate) const SPECS: [&str; 6] = [
    "I-LRU",
    "QBS-LRU",
    "SHARP-LRU",
    "ZIV-LikelyDead-LRU",
    "I-Hawkeye",
    "ZIV-MRLikelyDead-Hawkeye",
];

/// The machine every workload runs on: the figure benches' scaled
/// Table I system with the 256 KB-class L2.
pub(crate) fn system() -> SystemConfig {
    SystemConfig::scaled_with_l2(L2Size::K256)
}

/// The spec with figure-style `label` (one of [`SPECS`]).
///
/// # Panics
///
/// Panics on a label outside [`SPECS`].
pub(crate) fn spec(label: &str) -> RunSpec {
    let (mode, policy) = match label {
        "I-LRU" => (LlcMode::Inclusive, PolicyKind::Lru),
        "QBS-LRU" => (LlcMode::Qbs, PolicyKind::Lru),
        "SHARP-LRU" => (LlcMode::Sharp, PolicyKind::Lru),
        "ZIV-LikelyDead-LRU" => (LlcMode::Ziv(ZivProperty::LikelyDead), PolicyKind::Lru),
        "I-Hawkeye" => (LlcMode::Inclusive, PolicyKind::Hawkeye),
        "ZIV-MRLikelyDead-Hawkeye" => (
            LlcMode::Ziv(ZivProperty::MaxRrpvLikelyDead),
            PolicyKind::Hawkeye,
        ),
        other => panic!("unknown spec label '{other}'"),
    };
    debug_assert_eq!(format!("{}-{}", mode.label(), policy.label()), label);
    RunSpec::new(label, system())
        .with_mode(mode)
        .with_policy(policy)
}

impl Plan {
    /// The named workload with inputs generated from `seed`, or `None`
    /// for an unknown name.
    pub fn new(name: &str, seed: u64, sizes: &Sizes) -> Option<Plan> {
        let scale = ScaleParams::from_system(&system());
        let n = |accesses: usize| (accesses / sizes.shrink.max(1)).max(64);
        let homo = |app: &str, cores, accesses| {
            let app = apps::app_by_name(app).expect("the benchmark names known applications");
            Recipe::homogeneous(app, cores, n(accesses), seed, scale)
        };
        let cell = |label: &str, recipe| Cell {
            spec: spec(label),
            recipe,
        };
        let grid = |labels: &[&str], recipes: usize| -> Vec<Cell> {
            labels
                .iter()
                .flat_map(|l| (0..recipes).map(move |r| cell(l, r)))
                .collect()
        };
        let (name, recipes, cells, execution) = match name {
            "llc-thrash" => (
                "llc-thrash",
                vec![homo("circset", 8, 40_000)],
                grid(&SPECS, 1),
                Execution::Direct,
            ),
            "private-hot" => (
                "private-hot",
                vec![homo("hotl2", 8, 250_000)],
                grid(
                    &[
                        "I-LRU",
                        "ZIV-LikelyDead-LRU",
                        "I-Hawkeye",
                        "ZIV-MRLikelyDead-Hawkeye",
                    ],
                    1,
                ),
                Execution::Direct,
            ),
            "mt-shared-writes" => (
                "mt-shared-writes",
                vec![Recipe::multithreaded(
                    MtApp::Facesim,
                    8,
                    n(50_000),
                    seed,
                    scale,
                )],
                grid(
                    &[
                        "I-LRU",
                        "SHARP-LRU",
                        "ZIV-LikelyDead-LRU",
                        "ZIV-MRLikelyDead-Hawkeye",
                    ],
                    1,
                ),
                Execution::Direct,
            ),
            // Three 8-core mixes deal 24 applications: two full rounds
            // of the 12-application rotation, so every seed runs the same
            // application multiset and only its arrangement varies.
            "paper-grid" => (
                "paper-grid",
                (0..3)
                    .map(|mix| Recipe::heterogeneous(mix, 8, n(4_000), seed, scale))
                    .collect(),
                grid(&["I-LRU", "QBS-LRU", "SHARP-LRU", "ZIV-LikelyDead-LRU"], 3),
                Execution::Campaign,
            ),
            "observed" => (
                "observed",
                vec![
                    Recipe::attack(AttackRecipe::prime_probe(8), 4, n(80_000), seed, scale),
                    homo("circset", 8, 25_000),
                ],
                vec![
                    cell("I-LRU", 0),
                    cell("ZIV-LikelyDead-LRU", 0),
                    cell("I-Hawkeye", 1),
                    cell("ZIV-MRLikelyDead-Hawkeye", 1),
                ],
                Execution::Observed,
            ),
            _ => return None,
        };
        Some(Plan {
            name,
            recipes,
            cells,
            execution,
        })
    }

    /// Generates the workloads from the recipes.
    pub fn build(&self) -> Vec<Workload> {
        self.recipes.iter().map(Recipe::build).collect()
    }

    /// Stable cell name: `<spec label>/<workload name>`.
    pub fn cell_id(&self, cell: usize) -> String {
        let c = &self.cells[cell];
        format!(
            "{}/{}",
            c.spec.label,
            self.recipes[c.recipe].workload_name()
        )
    }

    /// Runs every cell once by this workload's execution path; `scratch` is an
    /// empty directory the campaign may use. Returns one outcome
    /// per cell, in cell order.
    pub fn execute(
        &self,
        workloads: &[Workload],
        scratch: &Path,
    ) -> Vec<Result<RunResult, String>> {
        match self.execution {
            Execution::Direct => self.run_cells(workloads, Hooks::OFF),
            Execution::Observed => self.run_cells(workloads, Hooks::ALL),
            Execution::Campaign => self.run_as_campaign(scratch),
        }
    }

    /// [`Plan::execute`], also returning the duration of each timed unit
    /// in reference seconds on `clock`: every cell, in cell order, when
    /// cells run one after another; the whole grid, runner included, for
    /// a campaign.
    pub fn execute_timed(
        &self,
        workloads: &[Workload],
        scratch: &Path,
        clock: &mut RefClock,
    ) -> (Vec<Result<RunResult, String>>, Vec<f64>) {
        let hooks = match self.execution {
            Execution::Direct => Hooks::OFF,
            Execution::Observed => Hooks::ALL,
            Execution::Campaign => {
                let (results, seconds) = clock.time(|| self.run_as_campaign(scratch));
                return (results, vec![seconds]);
            }
        };
        self.cells
            .iter()
            .map(|c| clock.time(|| hooks.run(&c.spec, &workloads[c.recipe])))
            .unzip()
    }

    /// Runs every cell once, one after another, with `hooks`.
    pub fn run_cells(
        &self,
        workloads: &[Workload],
        hooks: Hooks,
    ) -> Vec<Result<RunResult, String>> {
        self.cells
            .iter()
            .map(|c| hooks.run(&c.spec, &workloads[c.recipe]))
            .collect()
    }

    fn run_as_campaign(&self, results_dir: &Path) -> Vec<Result<RunResult, String>> {
        let mut specs: Vec<RunSpec> = Vec::new();
        for c in &self.cells {
            if !specs.iter().any(|s| s.label == c.spec.label) {
                specs.push(c.spec.clone());
            }
        }
        let campaign = Campaign {
            name: self.name.to_string(),
            description: "benchmark mode grid".to_string(),
            specs,
            recipes: self.recipes.clone(),
            baseline_spec: 0,
        };
        let cfg = RunnerConfig {
            threads: 1,
            ..RunnerConfig::new(results_dir)
        };
        let outcome = match run_campaign(&campaign, &cfg, &NullSink) {
            Ok(o) => o,
            Err(e) => return vec![Err(format!("campaign failed: {e}")); self.cells.len()],
        };
        self.cells
            .iter()
            .map(|c| {
                let s = campaign
                    .specs
                    .iter()
                    .position(|s| s.label == c.spec.label)
                    .expect("every cell's spec is in the campaign");
                let at = (s, c.recipe);
                match outcome
                    .grid
                    .iter()
                    .find(|g| (g.spec_index, g.workload_index) == at)
                {
                    Some(g) => Ok(g.result.clone()),
                    None => Err(outcome
                        .failures
                        .iter()
                        .find(|f| (f.spec_index, f.workload_index) == at)
                        .map_or_else(
                            || "cell missing from the campaign grid".into(),
                            |f| f.error.to_string(),
                        )),
                }
            })
            .collect()
    }
}

/// Which of the seven optional observer hooks a run turns on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hooks {
    /// Flight recorder: 10k-access epochs, the event ring and heatmaps.
    pub recorder: bool,
    /// Latency attribution observatory.
    pub latency: bool,
    /// Leakage observatory (active on attack workloads only).
    pub leakage: bool,
    /// Causal forensics observatory.
    pub forensics: bool,
    /// Wall-clock self-profiler.
    pub profile: bool,
    /// An armed (never fired) cancellation token.
    pub cancel: bool,
    /// A no-op live-telemetry probe.
    pub telemetry: bool,
}

/// A do-nothing telemetry probe: the cost of publishing, not of a bus.
#[derive(Debug)]
struct NoopProbe;

impl TelemetryProbe for NoopProbe {
    fn publish_progress(&self, snap: &ProbeSnapshot) {
        std::hint::black_box(snap);
    }
}

impl Hooks {
    /// Every hook off.
    pub const OFF: Hooks = Hooks {
        recorder: false,
        latency: false,
        leakage: false,
        forensics: false,
        profile: false,
        cancel: false,
        telemetry: false,
    };

    /// Every hook on.
    pub const ALL: Hooks = Hooks {
        recorder: true,
        latency: true,
        leakage: true,
        forensics: true,
        profile: true,
        cancel: true,
        telemetry: true,
    };

    /// Each hook alone, with its metric name.
    pub fn each() -> [(&'static str, Hooks); 7] {
        let off = Hooks::OFF;
        [
            (
                "recorder",
                Hooks {
                    recorder: true,
                    ..off
                },
            ),
            (
                "latency",
                Hooks {
                    latency: true,
                    ..off
                },
            ),
            (
                "leakage",
                Hooks {
                    leakage: true,
                    ..off
                },
            ),
            (
                "forensics",
                Hooks {
                    forensics: true,
                    ..off
                },
            ),
            (
                "profile",
                Hooks {
                    profile: true,
                    ..off
                },
            ),
            (
                "cancel",
                Hooks {
                    cancel: true,
                    ..off
                },
            ),
            (
                "telemetry",
                Hooks {
                    telemetry: true,
                    ..off
                },
            ),
        ]
    }

    /// Simulates `workload` under `spec` with these hooks.
    ///
    /// # Errors
    ///
    /// The run's error, rendered; a panic inside the simulator is caught
    /// and rendered too, so it fails this cell alone.
    pub fn run(&self, spec: &RunSpec, workload: &Workload) -> Result<RunResult, String> {
        catch_unwind(AssertUnwindSafe(|| self.run_uncaught(spec, workload))).unwrap_or_else(
            |payload| {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string payload".into());
                Err(format!("panicked: {msg}"))
            },
        )
    }

    fn run_uncaught(&self, spec: &RunSpec, workload: &Workload) -> Result<RunResult, String> {
        let observe = ObserveConfig {
            epoch: self.recorder.then_some(10_000),
            events: self.recorder.then(EventTraceConfig::default),
            heatmap: self.recorder,
            latency: self.latency,
            profile: self.profile,
            leakage: self.leakage,
            forensics: self.forensics,
        };
        let opts = RunOptions {
            observe,
            ..RunOptions::default()
        };
        let outcome = if self.cancel || self.telemetry {
            let token = self.cancel.then(CancelToken::new);
            let probe = self.telemetry.then_some(&NoopProbe as &dyn TelemetryProbe);
            run_one_instrumented(spec, workload, &opts, token.as_ref(), probe).0
        } else {
            run_one_checked(spec, workload, &opts)
        };
        outcome.map_err(|e| e.to_string())
    }
}

/// The result digest that pins a cell: FNV-1a over the `RunResult`'s
/// `Debug` rendering (every counter, per-core clock and histogram).
pub fn result_digest(r: &RunResult) -> u64 {
    let mut h = Fnv1a::new();
    h.write_str(&format!("{r:?}"));
    h.finish()
}

/// Simulated accesses a result served, restart laps included.
pub fn accesses(r: &RunResult) -> u64 {
    r.metrics.per_core.iter().map(|c| c.accesses).sum()
}
