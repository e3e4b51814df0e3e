//! `zivsim` — command-line driver for the ZIV LLC simulator.
//!
//! Every subcommand declares the flags it reads in `COMMANDS`; any other
//! flag is a usage error. `zivsim help` prints the commands, their flags
//! and what each flag does, from the same tables.
//!
//! ```text
//! exit codes:
//!   0  clean run, nothing failed
//!   1  command-specific failure (replay non-repro, conservation mismatch, ...)
//!   2  configuration / usage error (bad flag, unknown name, malformed value)
//!   3  cell failures, all fault-isolated (campaign cells failed but the
//!      campaign completed; for `soak`, the expected chaos outcome)
//!   4  internal error: panic, ledger corruption, infrastructure I/O
//!      failure, or a violated supervision guarantee in `soak`
//! ```

use std::num::ParseIntError;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use ziv::common::fsutil::write_file;
use ziv::common::SimError;
use ziv::core::{AuditCadence, FaultInjection};
use ziv::harness::check_guarantees;
use ziv::prelude::*;
use ziv::sim::{
    CellBudget, EventFilter, EventTraceConfig, Observations, ObserveConfig, RunOptions, RunResult,
    SamplingPlan,
};
use ziv::workloads::{AttackRecipe, AttackScenario, MtApp, Recipe, RecipeKind};

/// How a flag's or a positional's value lands in [`Options`].
type Parse = fn(&mut Options, Value<'_>) -> Result<(), String>;

/// One subcommand: its name, its optional positional argument, what it
/// does, every flag it reads, the flags it always runs with (as if
/// given before its own: the observers it forces on), and its handler.
/// A flag belongs to a command when changing it can change the
/// command's output or exit code.
#[derive(Debug)]
struct Command {
    name: &'static str,
    positional: Option<(&'static str, Parse)>,
    about: &'static str,
    flags: &'static [&'static [&'static str]],
    forces: &'static [(&'static str, &'static str)],
    run: fn(&Options) -> Result<(), CliError>,
}

impl Command {
    fn accepts(&self, flag: &str) -> bool {
        self.flags.iter().any(|group| group.contains(&flag))
    }
}

/// The workload a single-cell command builds (the system size scales
/// its footprint).
#[rustfmt::skip]
const WORKLOAD: &[&str] = &["--workload", "--accesses", "--cores", "--seed", "--l2", "--paper-scale"];
/// The configuration a single-cell command runs.
const SPEC: &[&str] = &["--mode", "--policy", "--prefetch"];
/// The invariant auditor and the cycle watchdog.
const CHECKS: &[&str] = &["--audit", "--cell-budget"];
/// The worker pool's supervision.
const SUPERVISION: &[&str] = &["--threads", "--cell-timeout", "--stall-window"];
/// The live telemetry bus.
const LIVE: &[&str] = &["--telemetry", "--progress"];
/// A campaign's observers.
#[rustfmt::skip]
const OBSERVERS: &[&str] = &["--epoch", "--events", "--last", "--heatmap", "--latency", "--profile",
                             "--leakage", "--forensics", "--perfetto"];

/// A positional naming a campaign, a file or a directory: kept as given.
const TEXT: Parse = |o, v| {
    o.positional = Some(v.text.into());
    Ok(())
};
/// A positional mode (`zivsim trace ziv-likelydead`); it wins over
/// `--mode`.
const MODE: Parse = |o, v| lookup_mode(v.text).map(|m| o.positional_mode = Some(m));
/// A positional attack scenario.
const SCENARIO: Parse = |o, v| {
    let names = AttackScenario::ALL.map(AttackScenario::name).join(", ");
    let unknown = || format!("unknown attack scenario '{}' (one of: {names})", v.text);
    o.attack.scenario = AttackScenario::by_name(v.text).ok_or_else(unknown)?;
    Ok(())
};

/// Every subcommand, in `zivsim help` order.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "list", run: cmd_list, positional: None, forces: &[], flags: &[],
              about: "available modes, policies, apps and campaigns" },
    Command { name: "run", run: cmd_run, positional: None, forces: &[],
              flags: &[SPEC, WORKLOAD, CHECKS, &["--forensics"]],
              about: "one configuration on one workload, with its speedup over I-LRU" },
    Command { name: "compare", run: cmd_compare, positional: None, forces: &[],
              flags: &[&["--policy", "--prefetch"], WORKLOAD],
              about: "every LLC mode on one workload" },
    Command { name: "export", run: cmd_export, positional: Some(("<file>", TEXT)), forces: &[],
              flags: &[WORKLOAD], about: "write the workload as a ziv-trace file" },
    Command { name: "campaign", run: cmd_campaign, positional: Some(("<name>", TEXT)), forces: &[],
              flags: &[&["--cores", "--seed", "--results-dir", "--resume", "--strict"],
                       &["--inject-fault"], CHECKS, SUPERVISION, OBSERVERS,
                       LIVE, &["--sampling", "--validate"]],
              about: "run a named figure campaign end to end (cached, resumable)" },
    Command { name: "replay", run: cmd_replay, positional: Some(("<file>", TEXT)), forces: &[],
              flags: &[], about: "re-run a failure repro record deterministically" },
    Command { name: "trace", run: cmd_trace, positional: Some(("[<mode>]", MODE)),
              forces: &[("--events", "all")],
              flags: &[SPEC, WORKLOAD, CHECKS,
                       &["--epoch", "--events", "--last", "--profile", "--perfetto", "--out"]],
              about: "one traced run; drain the event ring as JSONL (stdout or --out)" },
    Command { name: "profile", run: cmd_profile, positional: Some(("[<mode>]", MODE)),
              forces: &[("--latency", ""), ("--profile", "")],
              flags: &[SPEC, WORKLOAD, CHECKS, &["--out"]],
              about: "one run with latency attribution and the self-profiler; print both" },
    // Latency too, for the refetch-cycle conservation check.
    Command { name: "blame", run: cmd_blame, positional: Some(("[<mode>]", MODE)),
              forces: &[("--latency", ""), ("--forensics", "")],
              flags: &[SPEC, WORKLOAD, CHECKS, &["--out"]],
              about: "one run with causal forensics; print the top chains and the blame matrix" },
    Command { name: "attack", run: cmd_attack, positional: Some(("[<scenario>]", SCENARIO)),
              forces: &[("--leakage", "")],
              flags: &[SPEC, &["--accesses", "--cores", "--seed", "--l2", "--paper-scale"],
                       &["--sets"], CHECKS],
              about: "one attack co-schedule (primeprobe | hammer) with the leakage observatory" },
    Command { name: "sample", run: cmd_sample, positional: Some(("[<mode>]", MODE)), forces: &[],
              flags: &[SPEC, WORKLOAD, CHECKS, &["--sampling", "--results-dir"], LIVE],
              about: "paired interval-sampled run: the mode (default ziv-likelydead) vs inclusive" },
    Command { name: "soak", run: cmd_soak, positional: None, forces: &[],
              flags: &[&["--cores", "--seed", "--results-dir"], SUPERVISION, LIVE],
              about: "chaos-soak drill: seeded faults under supervision, then a torn-ledger resume" },
    Command { name: "watch", run: cmd_watch, positional: Some(("<results-dir>", TEXT)), forces: &[],
              flags: &[&["--json", "--once", "--refresh", "--stale-after"]],
              about: "follow a running campaign's live telemetry segment" },
    Command { name: "help", run: cmd_help, positional: None, forces: &[], flags: &[],
              about: "this text" },
];

/// One flag: its name, its value (empty for a switch), what it does
/// (`{policies}`, `{l2}` and `{faults}` stand for those name sets), and
/// how its value lands in [`Options`].
type Flag = (&'static str, &'static str, &'static str, Parse);

/// Every flag, in `zivsim help` order.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    ("--mode", "<mode>", "LLC mode (default inclusive; `zivsim list` names them)",
     |o, v| lookup_mode(v.text).map(|m| o.mode = Some(m))),
    ("--policy", "<policy>", "{policies} (default lru)",
     |o, v| lookup_policy(v.text).map(|p| o.policy = p)),
    ("--prefetch", "", "enable stride prefetching", |o, _| { o.prefetch = true; Ok(()) }),
    ("--workload", "<w>", "homo:APP | hetero:N | mt:NAME | file:PATH (default hetero:0)",
     |o, v| lookup_workload(v.text).map(|w| o.workload = w)),
    ("--accesses", "<n>", "accesses per core (default 50000)",
     |o, v| v.positive().map(|n| o.accesses = n)),
    ("--cores", "<n>", "cores (default 8)", |o, v| v.at_most(max_cores()).map(|n| o.cores = n)),
    ("--seed", "<n>", "seed (default 2026; campaigns default to their own)",
     |o, v| v.number().map(|n| o.seed = Some(n))),
    ("--l2", "<kb>", "L2 size class: {l2} (default 256)",
     |o, v| lookup_l2(v.text).map(|l2| o.l2 = l2)),
    ("--paper-scale", "", "full Table I sizes", |o, _| { o.paper_scale = true; Ok(()) }),
    ("--audit", "<cadence>", "invariant audit: off|sampled|sampled:N|every-access (default off)",
     |o, v| AuditCadence::parse(v.text).map(|a| o.audit = a)),
    ("--cell-budget", "<cycles>", "per-core watchdog budget (default derived from the workload)",
     |o, v| v.positive().map(|n| o.cell_budget = Some(n))),
    ("--results-dir", "<dir>", "results directory (default results/<campaign or command>)",
     |o, v| { o.results_dir = Some(v.text.into()); Ok(()) }),
    ("--resume", "", "reuse the ledger: skip completed cells", |o, _| { o.resume = true; Ok(()) }),
    ("--strict", "", "stop claiming new cells after the first failure",
     |o, _| { o.strict = true; Ok(()) }),
    ("--inject-fault", "<s:w:kind:at>", "arm a fault in spec S at access AT (W is informational); \
        KIND is {faults}",
     |o, v| parse_inject_fault(v).map(|f| o.inject_fault = Some(f))),
    ("--threads", "<n>", "worker threads (default: available parallelism)",
     |o, v| v.number().map(|n| o.threads = Some(n))),
    ("--cell-timeout", "<ms>", "wall-clock budget per cell (default off; soak 60000)",
     |o, v| v.positive().map(|n| o.cell_timeout_ms = Some(n))),
    ("--stall-window", "<ms>", "cancel a cell making no progress for MS (default off; soak 750)",
     |o, v| v.positive().map(|n| o.stall_window_ms = Some(n))),
    ("--epoch", "<n>", "snapshot counter deltas every N accesses (timeseries.csv)",
     |o, v| v.positive().map(|n| o.observe.epoch = Some(n))),
    ("--events", "<all|k1,k2,..>", "event kinds to record: fill, eviction, back-invalidation, \
        relocation, directory-victim, audit-violation (trace records all by default)",
     |o, v| {
         let ring = o.observe.events.get_or_insert_with(EventTraceConfig::default);
         ring.filter = EventFilter::parse(v.text).map_err(|e| e.to_string())?;
         Ok(())
     }),
    ("--last", "<k>", "event ring capacity (default 256)",
     |o, v| {
         let k: usize = v.positive()?;
         let cap = ziv::core::observe::MAX_EVENT_CAPACITY;
         if k > cap {
             eprintln!("warning: {} {k} exceeds the event-ring limit; clamping to {cap}", v.flag);
         }
         o.observe.events.get_or_insert_with(EventTraceConfig::default).capacity = k.min(cap);
         Ok(())
     }),
    ("--heatmap", "", "per-(bank, set) occupancy grids (heatmap.csv)",
     |o, _| { o.observe.heatmap = true; Ok(()) }),
    ("--latency", "", "latency attribution observatory (latency.csv)",
     |o, _| { o.observe.latency = true; Ok(()) }),
    ("--profile", "", "wall-clock self-profiler: every span counted, time estimated from a \
        sample of the accesses (profile.json)",
     |o, _| { o.observe.profile = true; Ok(()) }),
    ("--leakage", "", "leakage observatory on attack workloads (leakage.csv)",
     |o, _| { o.observe.leakage = true; Ok(()) }),
    ("--forensics", "", "causal chains and the blame matrix (blame.csv)",
     |o, _| { o.observe.forensics = true; Ok(()) }),
    // A Perfetto export without chains would be blind to the paper's
    // causal story, so --perfetto arms forensics too.
    ("--perfetto", "", "Chrome trace-event JSON for ui.perfetto.dev (trace.json); \
        implies --forensics",
     |o, _| { o.perfetto = true; o.observe.forensics = true; Ok(()) }),
    ("--out", "<file>", "also write the command's report to FILE",
     |o, v| { o.out = Some(v.text.into()); Ok(()) }),
    ("--sets", "<n>", "targeted LLC sets (default 8)",
     |o, v| v.positive().map(|n| o.attack.target_sets = n)),
    ("--sampling", "<plan>", "auto | off | interval=N,gap=N[,KEY=N...] with optional keys warmup \
        (percent of the gap warmed), window, head, confidence (90|95|99) and max; campaign \
        estimates go to sampling.csv",
     |o, v| SamplingPlan::parse(v.text).map(|p| o.sampling = Some(p)).map_err(|e| e.to_string())),
    ("--validate", "", "also run the full campaign and write validation.csv; with --sampling, \
        observer flags need it and observe that full pass",
     |o, _| { o.validate = true; Ok(()) }),
    ("--telemetry", "<off|on>", "publish <results-dir>/telemetry.shm for `zivsim watch`",
     |o, v| v.switch("off", "on").map(|on| o.telemetry = on)),
    ("--progress", "<live|jsonl>", "human progress lines (default) or JSONL heartbeats",
     |o, v| v.switch("live", "jsonl").map(|jsonl| o.progress_jsonl = jsonl)),
    ("--json", "", "one JSONL snapshot per refresh instead of the table",
     |o, _| { o.json = true; Ok(()) }),
    ("--once", "", "exit after the first consistent snapshot", |o, _| { o.once = true; Ok(()) }),
    ("--refresh", "<ms>", "poll cadence (default 500)",
     |o, v| v.positive().map(|n| o.refresh_ms = n)),
    ("--stale-after", "<ms>", "heartbeat staleness window (default 5000)",
     |o, v| v.positive().map(|n| o.stale_after_ms = n)),
];

/// Every LLC mode the CLI names, in `zivsim list` order. A row may give
/// several names separated by `|`; the first is the listed one.
#[rustfmt::skip]
const MODES: &[(&str, LlcMode)] = &[
    ("inclusive|i", LlcMode::Inclusive),
    ("noninclusive|ni", LlcMode::NonInclusive),
    ("qbs", LlcMode::Qbs),
    ("sharp", LlcMode::Sharp),
    ("charonbase", LlcMode::CharOnBase),
    ("tlh", LlcMode::Tlh { hint_one_in: 8 }),
    ("eci", LlcMode::Eci),
    ("ric", LlcMode::Ric),
    ("waypart", LlcMode::WayPartitioned),
    ("ziv-notinprc", LlcMode::Ziv(ZivProperty::NotInPrC)),
    ("ziv-lrunotinprc", LlcMode::Ziv(ZivProperty::LruNotInPrC)),
    ("ziv-likelydead", LlcMode::Ziv(ZivProperty::LikelyDead)),
    ("ziv-mrnotinprc", LlcMode::Ziv(ZivProperty::MaxRrpvNotInPrC)),
    ("ziv-mrlikelydead", LlcMode::Ziv(ZivProperty::MaxRrpvLikelyDead)),
];

/// Every L2 size class, named by its capacity in KB.
#[rustfmt::skip]
const L2_SIZES: &[(&str, L2Size)] = &[("128", L2Size::K128), ("256", L2Size::K256),
    ("512", L2Size::K512), ("768", L2Size::K768), ("1024|1m", L2Size::M1)];

/// Every LLC replacement policy; its CLI name is its label, lowercased.
#[rustfmt::skip]
const POLICIES: [PolicyKind; 6] = [PolicyKind::Lru, PolicyKind::Srrip, PolicyKind::Drrip,
    PolicyKind::Ship, PolicyKind::Hawkeye, PolicyKind::Min];

/// The value `table` gives `name`, matched case-insensitively against
/// each row's `|`-separated names.
fn lookup<T: Copy>(table: &[(&str, T)], name: &str) -> Option<T> {
    table
        .iter()
        .find(|(names, _)| names.split('|').any(|n| n.eq_ignore_ascii_case(name)))
        .map(|&(_, value)| value)
}

/// Each row's listed name.
fn listed<T>(table: &[(&'static str, T)]) -> Vec<&'static str> {
    table
        .iter()
        .filter_map(|(names, _)| names.split('|').next())
        .collect()
}

fn policy_names() -> [String; 6] {
    POLICIES.map(|p| p.label().to_ascii_lowercase())
}

fn lookup_mode(name: &str) -> Result<LlcMode, String> {
    lookup(MODES, name).ok_or_else(|| format!("unknown mode '{}'", name.to_ascii_lowercase()))
}

fn lookup_policy(name: &str) -> Result<PolicyKind, String> {
    let policy = POLICIES
        .into_iter()
        .find(|p| p.label().eq_ignore_ascii_case(name));
    policy.ok_or_else(|| format!("unknown policy '{}'", name.to_ascii_lowercase()))
}

fn lookup_l2(name: &str) -> Result<L2Size, String> {
    let sizes = listed(L2_SIZES).join("/");
    lookup(L2_SIZES, name).ok_or_else(|| format!("unknown L2 size '{name}' (use {sizes})"))
}

/// Every fault kind, as prose: `a, b{or}c`.
fn fault_kinds(or: &str) -> String {
    let kinds = FaultInjection::all(0).map(|f| f.kind_str());
    let (last, rest) = kinds.split_last().expect("there are fault kinds");
    format!("{}{or}{last}", rest.join(", "))
}

/// `help` with the name sets it stands for filled in.
fn fill_names(help: &str) -> String {
    help.replace("{policies}", &policy_names().join("|"))
        .replace("{l2}", &listed(L2_SIZES).join("|"))
        .replace("{faults}", &fault_kinds(" or "))
}

/// What a `--workload` value names: a generator, or a trace file.
#[derive(Debug, PartialEq)]
enum WorkloadArg {
    Generated(RecipeKind),
    File(PathBuf),
}

/// Resolves a `--workload` value's names.
fn lookup_workload(spec: &str) -> Result<WorkloadArg, String> {
    let (kind, arg) = spec.split_once(':').ok_or_else(|| {
        format!("workload '{spec}' must look like homo:APP / hetero:N / mt:NAME / file:PATH")
    })?;
    Ok(WorkloadArg::Generated(match kind {
        "homo" => RecipeKind::Homogeneous {
            app: apps::app_by_name(arg)
                .ok_or_else(|| format!("unknown app '{arg}' (see `zivsim list`)"))?
                .name,
        },
        "hetero" => RecipeKind::Heterogeneous {
            mix_index: arg.parse().map_err(|e| format!("hetero index: {e}"))?,
        },
        "mt" => RecipeKind::Multithreaded {
            app: MtApp::by_name(arg)
                .ok_or_else(|| format!("unknown multithreaded workload '{arg}'"))?,
        },
        "file" => return Ok(WorkloadArg::File(arg.into())),
        other => return Err(format!("unknown workload kind '{other}'")),
    }))
}

/// Parses `--inject-fault S:W:KIND:AT` (spec index, workload index,
/// fault kind, trigger access).
fn parse_inject_fault(v: Value<'_>) -> Result<(usize, usize, FaultInjection), String> {
    let parts: Vec<&str> = v.text.split(':').collect();
    let [spec, workload, kind, at] = parts.as_slice() else {
        let (flag, text) = (v.flag, v.text);
        return Err(format!(
            "{flag} '{text}' must look like SPEC:WORKLOAD:KIND:AT_ACCESS"
        ));
    };
    let spec: usize = spec.parse().map_err(|e| format!("fault spec index: {e}"))?;
    let workload: usize = workload
        .parse()
        .map_err(|e| format!("fault workload index: {e}"))?;
    let at: u64 = at.parse().map_err(|e| format!("fault access index: {e}"))?;
    let fault = FaultInjection::from_parts(kind, at)
        .ok_or_else(|| format!("unknown fault kind '{kind}' ({})", fault_kinds(", or ")))?;
    Ok((spec, workload, fault))
}

/// The most cores both the scaled and the paper system have.
fn max_cores() -> usize {
    SystemConfig::scaled()
        .cores
        .min(SystemConfig::paper().cores)
}

/// A flag's or a positional's value, with the flag's name for errors.
#[derive(Clone, Copy)]
struct Value<'a> {
    flag: &'a str,
    text: &'a str,
}

impl Value<'_> {
    fn number<T: FromStr<Err = ParseIntError>>(self) -> Result<T, String> {
        self.text.parse().map_err(|e| format!("{}: {e}", self.flag))
    }

    /// The value as a number of at least 1.
    fn positive<T: FromStr<Err = ParseIntError> + Default + PartialEq>(self) -> Result<T, String> {
        let n: T = self.number()?;
        if n == T::default() {
            return Err(format!("{} must be at least 1", self.flag));
        }
        Ok(n)
    }

    /// The value as a number in `1..=max`.
    fn at_most(self, max: usize) -> Result<usize, String> {
        let n = self.positive()?;
        if n > max {
            return Err(format!("{} must be at most {max}", self.flag));
        }
        Ok(n)
    }

    /// The value of a two-way flag: `yes` is true, `no` is false.
    fn switch(self, no: &str, yes: &str) -> Result<bool, String> {
        if self.text != yes && self.text != no {
            let (flag, text) = (self.flag, self.text);
            return Err(format!("{flag} must be '{no}' or '{yes}', not '{text}'"));
        }
        Ok(self.text == yes)
    }
}

/// Every flag's value, each parsed once, for the command being run.
#[derive(Debug)]
struct Options {
    command: &'static Command,
    /// The positional of a command that takes a name, a file or a
    /// directory.
    positional: Option<String>,
    /// A mode given as the positional.
    positional_mode: Option<LlcMode>,
    mode: Option<LlcMode>,
    policy: PolicyKind,
    l2: L2Size,
    workload: WorkloadArg,
    accesses: usize,
    cores: usize,
    seed: Option<u64>,
    paper_scale: bool,
    prefetch: bool,
    resume: bool,
    results_dir: Option<String>,
    threads: Option<usize>,
    audit: AuditCadence,
    strict: bool,
    cell_budget: Option<u64>,
    inject_fault: Option<(usize, usize, FaultInjection)>,
    cell_timeout_ms: Option<u64>,
    stall_window_ms: Option<u64>,
    out: Option<String>,
    /// The observers the flags and the command's forced flags ask for.
    observe: ObserveConfig,
    perfetto: bool,
    /// The `attack` command's scenario and `--sets`.
    attack: AttackRecipe,
    /// `--sampling`: `Some(None)` when it says `off`.
    sampling: Option<Option<SamplingPlan>>,
    validate: bool,
    telemetry: bool,
    progress_jsonl: bool,
    json: bool,
    once: bool,
    refresh_ms: u64,
    stale_after_ms: u64,
}

impl Options {
    /// `command` with every flag at its default.
    fn new(command: &'static Command) -> Self {
        Options {
            command,
            positional: None,
            positional_mode: None,
            mode: None,
            policy: PolicyKind::Lru,
            l2: L2Size::K256,
            workload: WorkloadArg::Generated(RecipeKind::Heterogeneous { mix_index: 0 }),
            accesses: 50_000,
            cores: 8,
            seed: None,
            paper_scale: false,
            prefetch: false,
            resume: false,
            results_dir: None,
            threads: None,
            audit: AuditCadence::Off,
            strict: false,
            cell_budget: None,
            inject_fault: None,
            cell_timeout_ms: None,
            stall_window_ms: None,
            out: None,
            observe: ObserveConfig::disabled(),
            perfetto: false,
            attack: AttackRecipe {
                scenario: AttackScenario::PrimeProbe,
                target_sets: 8,
            },
            sampling: None,
            validate: false,
            telemetry: false,
            progress_jsonl: false,
            json: false,
            once: false,
            refresh_ms: 500,
            stale_after_ms: 5000,
        }
    }

    /// The run options the flags describe: audit cadence, cycle budget
    /// and the command's observation.
    fn run_options(&self) -> RunOptions {
        RunOptions {
            audit: self.audit,
            budget: self.cell_budget.map(CellBudget::Cycles),
            observe: self.observe,
        }
    }

    /// `--seed`, else the single-cell commands' default.
    fn seed(&self) -> u64 {
        self.seed.unwrap_or(2026)
    }

    fn system(&self) -> SystemConfig {
        if self.paper_scale {
            SystemConfig::paper_with_l2(self.l2)
        } else {
            SystemConfig::scaled_with_l2(self.l2)
        }
    }

    /// The environment's campaign parameters, with the flags' seed and
    /// cores.
    fn campaign_params(&self) -> ziv::harness::CampaignParams {
        let mut params = ziv::harness::CampaignParams::from_env();
        params.seed = self.seed.unwrap_or(params.seed);
        params.cores = self.cores;
        params
    }

    /// The mode a single-cell command runs: its positional, else
    /// `--mode`, else `default`.
    fn mode_or(&self, default: LlcMode) -> LlcMode {
        self.positional_mode.or(self.mode).unwrap_or(default)
    }

    /// The spec the flags describe under `mode`: labelled
    /// `<mode>-<policy>`, with the flags' policy, seed and prefetcher.
    fn spec(&self, mode: LlcMode) -> RunSpec {
        let label = format!("{}-{}", mode.label(), self.policy.label());
        let spec = RunSpec::new(label, self.system())
            .with_mode(mode)
            .with_policy(self.policy)
            .with_seed(self.seed());
        if self.prefetch {
            spec.with_prefetch(ziv::core::prefetch::PrefetchConfig::default())
        } else {
            spec
        }
    }

    /// The recipe the flags give `kind`: `--cores` cores of
    /// `--accesses` accesses each, seeded by `--seed`, with footprints
    /// scaled to the system.
    fn recipe(&self, kind: RecipeKind) -> Recipe {
        Recipe {
            kind,
            cores: self.cores,
            accesses_per_core: self.accesses,
            seed: self.seed(),
            scale: ScaleParams::from_system(&self.system()),
        }
    }

    /// The workload `--workload` names. A trace file must fit the
    /// system.
    fn workload(&self) -> Result<Workload, String> {
        let path = match &self.workload {
            WorkloadArg::Generated(kind) => return Ok(self.recipe(*kind).build()),
            WorkloadArg::File(path) => path,
        };
        let wl = ziv::workloads::trace_io::read_trace_file(path).map_err(|e| e.to_string())?;
        let (file, cores) = (path.display(), self.system().cores);
        if wl.cores() > cores {
            let n = wl.cores();
            return Err(format!(
                "trace file {file} drives {n} cores but the system has {cores}"
            ));
        }
        Ok(wl)
    }

    /// Runs `wl` once under the command's mode (`default` when neither
    /// the positional nor `--mode` names one), with the command's
    /// observers: the opening every single-cell command shares.
    fn run_cell(
        &self,
        wl: &Workload,
        default: LlcMode,
    ) -> (
        RunSpec,
        Result<RunResult, SimError>,
        Option<Box<Observations>>,
    ) {
        let spec = self.spec(self.mode_or(default));
        let (result, observations) =
            ziv::sim::run_one_instrumented(&spec, wl, &self.run_options(), None, None);
        (spec, result, observations)
    }
}

/// A command failure routed to the documented exit-code contract (see
/// the header): 1 command-specific, 2 usage, 3 isolated cell failures,
/// 4 internal.
#[derive(Debug)]
enum CliError {
    /// Exit 1 — a command-specific verdict (a replay that did not
    /// reproduce, a failing single run, a campaign, run or compare cell
    /// that broke an exact-zero guarantee).
    Other(String),
    /// Exit 2 — a configuration or usage error: bad flag, unknown
    /// campaign/mode/workload name, malformed value.
    Usage(String),
    /// Exit 3 — campaign cells failed but every failure was isolated,
    /// ledgered, and left a repro record; the campaign itself finished.
    Cells(String),
    /// Exit 4 — an internal failure: panic, ledger corruption, results
    /// I/O, or a violated supervision guarantee in `soak`.
    Internal(String),
}

impl CliError {
    fn exit_code(&self) -> ExitCode {
        ExitCode::from(match self {
            CliError::Other(_) => 1u8,
            CliError::Usage(_) => 2,
            CliError::Cells(_) => 3,
            CliError::Internal(_) => 4,
        })
    }

    fn report(&self) {
        match self {
            CliError::Other(m) => eprintln!("error: {m}"),
            CliError::Usage(m) => {
                eprintln!("error: {m} (`zivsim help` lists every command's flags)")
            }
            CliError::Cells(m) => eprintln!("{m}"),
            CliError::Internal(m) => eprintln!("internal error: {m}"),
        }
    }
}

impl From<String> for CliError {
    fn from(m: String) -> Self {
        CliError::Other(m)
    }
}

impl From<&str> for CliError {
    fn from(m: &str) -> Self {
        CliError::Other(m.into())
    }
}

impl From<SimError> for CliError {
    fn from(e: SimError) -> Self {
        CliError::Other(e.to_string())
    }
}

fn flag_named(name: &str) -> Option<&'static Flag> {
    FLAGS.iter().find(|(flag, ..)| *flag == name)
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut it = args.iter();
    let name = it.next().filter(|n| !matches!(n.as_str(), "--help" | "-h"));
    let name = name.map_or("help", String::as_str);
    let command = COMMANDS.iter().find(|c| c.name == name);
    let command = command.ok_or_else(|| format!("unknown command '{name}'"))?;
    let mut opts = Options::new(command);
    for &(flag, text) in command.forces {
        let (.., parse) = flag_named(flag).expect("a command forces a known flag");
        parse(&mut opts, Value { flag, text })?;
    }
    let mut positional = command.positional;
    let mut observer = None;
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            let (flag, parse) = positional
                .take()
                .ok_or_else(|| format!("unexpected argument '{arg}'"))?;
            parse(&mut opts, Value { flag, text: arg })?;
            continue;
        }
        let &(flag, value, _, parse) =
            flag_named(arg).ok_or_else(|| format!("unknown flag '{arg}'"))?;
        if !command.accepts(flag) {
            return Err(format!("`zivsim {}` does not take {flag}", command.name));
        }
        if OBSERVERS.contains(&flag) {
            observer.get_or_insert(flag);
        }
        let text = match value {
            "" => "",
            _ => it
                .next()
                .ok_or_else(|| format!("flag {flag} needs a value"))?,
        };
        parse(&mut opts, Value { flag, text })?;
    }
    // Sampled campaign cells run with observation off: an observer flag
    // covers only the full pass --validate adds.
    if let Some(flag) = observer.filter(|_| opts.sampling.flatten().is_some() && !opts.validate) {
        return Err(format!(
            "{flag} observes full runs; with --sampling it needs --validate"
        ));
    }
    Ok(opts)
}

fn print_result(r: &ziv::sim::RunResult, baseline: Option<&ziv::sim::RunResult>) {
    let m = &r.metrics;
    println!("config: {}   workload: {}", r.label, r.workload);
    if let Some(b) = baseline {
        println!(
            "weighted speedup vs {}: {:.3}",
            b.label,
            r.weighted_speedup(b)
        );
    }
    println!(
        "LLC: {} accesses, {} hits ({} on relocated blocks), {} misses",
        m.llc_accesses, m.llc_hits, m.relocated_hits, m.llc_misses
    );
    println!(
        "inclusion victims: {}   directory back-invalidations: {}   coherence invalidations: {}",
        m.inclusion_victims, m.directory_back_invalidations, m.coherence_invalidations
    );
    println!(
        "relocations: {} ({:.1}% of LLC misses, {} cross-bank, {} in-set alternates)",
        m.relocations,
        100.0 * m.relocation_rate(),
        m.cross_bank_relocations,
        m.in_set_alternate_victims
    );
    println!(
        "DRAM: {} accesses   writebacks: {} (+{} relocated)   relocation EPI: {:.2} pJ",
        m.dram_accesses,
        m.llc_writebacks,
        m.relocated_writebacks,
        m.relocation_epi_pj()
    );
    let ipc: Vec<String> = r.cores.iter().map(|c| format!("{:.3}", c.ipc())).collect();
    println!("per-core IPC: [{}]", ipc.join(", "));
}

fn cmd_list(_: &Options) -> Result<(), CliError> {
    println!("modes:");
    for name in listed(MODES) {
        println!("  {name}");
    }
    println!("policies: {}", policy_names().join(" "));
    println!("applications (homo:<name>):");
    for a in apps::APPS {
        println!("  {:<12} {:?}", a.name, a.class);
    }
    println!(
        "multithreaded (mt:<name>): {}",
        MtApp::ALL.map(MtApp::name).join(" ")
    );
    println!("campaigns (zivsim campaign <name>):");
    for entry in ziv::harness::campaigns::ENTRIES {
        println!("  {:<24} {}", entry.name, entry.description);
    }
    Ok(())
}

fn cmd_campaign(opts: &Options) -> Result<(), CliError> {
    use ziv::harness::{campaigns, run_campaign, RunnerConfig, StderrProgress};
    let names = || {
        let list: Vec<&str> = campaigns::ENTRIES.iter().map(|e| e.name).collect();
        list.join(", ")
    };
    let name = opts
        .positional
        .as_deref()
        .ok_or_else(|| CliError::Usage(format!("campaign needs a name (one of: {})", names())))?;
    let entry = campaigns::entry(name).ok_or_else(|| {
        CliError::Usage(format!("unknown campaign '{name}' (one of: {})", names()))
    })?;
    let params = opts.campaign_params();
    let mut campaign = entry.build(&params);
    if let Some((spec_index, _workload_index, fault)) = opts.inject_fault {
        let spec = campaign.specs.get(spec_index).ok_or_else(|| {
            CliError::Usage(format!(
                "--inject-fault: spec index {spec_index} out of range"
            ))
        })?;
        campaign.specs[spec_index] = spec.clone().with_fault(fault);
    }
    let mut observe = opts.observe;
    // An attack co-schedule is pointless blind: always measure leakage.
    // (Still never digested — cells stay byte-compatible with an
    // observatory-off run.)
    observe.leakage |= campaign
        .recipes
        .iter()
        .any(|r| matches!(r.kind, RecipeKind::Attack { .. }));
    let cfg = RunnerConfig {
        threads: opts.threads.unwrap_or(params.effort.threads),
        resume: opts.resume,
        audit: opts.audit,
        strict: opts.strict,
        cell_budget: opts.cell_budget,
        cell_timeout: opts.cell_timeout_ms.map(std::time::Duration::from_millis),
        stall_window: opts.stall_window_ms.map(std::time::Duration::from_millis),
        params: Some(params),
        observe,
        telemetry: opts.telemetry,
        progress_jsonl: opts.progress_jsonl,
        perfetto: opts.perfetto,
        ..RunnerConfig::new(
            opts.results_dir
                .clone()
                .unwrap_or_else(|| format!("results/{name}")),
        )
    };
    let results_dir = cfg.results_dir.clone();
    let sampling = opts.sampling.flatten();
    if opts.validate && sampling.is_none() {
        return Err(CliError::Usage(
            "--validate compares a sampled pass against the full run; it needs --sampling".into(),
        ));
    }
    if let Some(plan) = sampling {
        return cmd_campaign_sampled(&campaign, &cfg, plan, opts.validate, &results_dir);
    }
    // Errors out of the runner itself are infrastructure (results dir,
    // ledger, CSV I/O) — cell failures never surface here.
    let outcome = run_campaign(&campaign, &cfg, &StderrProgress)
        .map_err(|e| CliError::Internal(e.to_string()))?;
    let mut text = String::new();
    let verdict = entry.report(&campaign, &outcome.grid, &mut text);
    print!("{text}");
    let exports = [
        &outcome.timeseries_csv,
        &outcome.heatmap_csv,
        &outcome.latency_csv,
        &outcome.leakage_csv,
        &outcome.profile_json,
        &outcome.blame_csv,
        &outcome.trace_json,
    ];
    let written = [&outcome.grid_csv, &outcome.summary_csv]
        .into_iter()
        .chain(exports.into_iter().flatten());
    for path in written {
        println!("wrote {}", path.display());
    }
    println!("ledger {}", outcome.ledger_path.display());
    if !outcome.failures.is_empty() {
        print_failures("cell(s)", &outcome.failures);
    }
    verdict.map_err(CliError::Other)?;
    if !outcome.failures.is_empty() {
        return Err(CliError::Cells(format!(
            "{} of {} cells failed, all isolated (ledger keeps them marked for \
             --resume; repro records under {}/failures/)",
            outcome.failures.len(),
            campaign.total_cells(),
            results_dir.display()
        )));
    }
    Ok(())
}

/// Lists a campaign pass's failed `cells` on stderr, each with its
/// repro record when it has one.
fn print_failures(cells: &str, failures: &[ziv::harness::CellFailure]) {
    eprintln!("\n{} {cells} FAILED:", failures.len());
    for f in failures {
        eprintln!(
            "  {} × {} [{}]: {}",
            f.label,
            f.workload,
            f.digest.hex(),
            f.error
        );
        if let Some(path) = &f.record_path {
            eprintln!("    repro: zivsim replay {}", path.display());
        }
    }
}

/// The sampled flavor of `zivsim campaign`: every cell runs under the
/// interval-sampling plan, per-interval estimates land in
/// `sampling.csv`, and nothing touches the result ledger. With
/// `--validate` the full campaign runs first (ledgered, exporting its
/// standard artifacts) and `validation.csv` compares the two passes.
fn cmd_campaign_sampled(
    campaign: &ziv::harness::Campaign,
    cfg: &ziv::harness::RunnerConfig,
    plan: ziv::sim::SamplingPlan,
    validate: bool,
    results_dir: &std::path::Path,
) -> Result<(), CliError> {
    use ziv::harness::{run_campaign_sampled, StderrProgress};
    let outcome = run_campaign_sampled(campaign, cfg, plan, validate, &StderrProgress)
        .map_err(|e| CliError::Internal(e.to_string()))?;
    println!(
        "sampled campaign '{}': {} cell(s) under plan '{plan}' (estimates only — not ledgered)",
        campaign.name,
        outcome.cells.len(),
    );
    for cell in &outcome.cells {
        let p = &cell.sampled.profile;
        let estimate = match cell.sampled.ipc_ci() {
            Some(ci) => format!("ipc {ci}"),
            None => match cell.sampled.ipc_estimate() {
                Some(m) => format!("ipc {m:.4} (no CI: a single interval closed)"),
                None => "no full interval closed (trace shorter than one period)".into(),
            },
        };
        println!(
            "  {:<28} × {:<16} {estimate}  [{} interval(s), {:.1}% simulated, stop: {}]",
            cell.label,
            cell.workload,
            p.intervals,
            100.0 * p.simulated_fraction(),
            p.stop.tag(),
        );
    }
    println!("wrote {}", outcome.sampling_csv.display());
    if let Some(v) = &outcome.validation {
        println!(
            "validation: {}/{} cell(s) landed the full-run IPC inside their sampled {} CI; \
             wall-clock speedup {:.2}x (Σ full / Σ sampled over cells timed in both passes)",
            v.cells_within_ci,
            v.rows.len(),
            plan.confidence,
            v.speedup,
        );
        println!("wrote {}", v.validation_csv.display());
    }
    if !outcome.failures.is_empty() {
        print_failures("sampled cell(s)", &outcome.failures);
        return Err(CliError::Cells(format!(
            "{} of {} sampled cells failed (results under {})",
            outcome.failures.len(),
            campaign.total_cells(),
            results_dir.display()
        )));
    }
    Ok(())
}

/// The `zivsim sample` telemetry probe: forwards everything to the
/// bus's one worker record and mirrors each `cell_begin`/`cell_end`
/// pair into the campaign-level counters, so the paired session reads
/// as a two-cell campaign.
struct PairedSampleProbe<'a> {
    bus: &'a ziv::harness::CampaignBus,
    inner: Box<dyn ziv::sim::TelemetryProbe>,
}

impl ziv::sim::TelemetryProbe for PairedSampleProbe<'_> {
    fn cell_begin(
        &self,
        spec_index: u64,
        workload_index: u64,
        expected_accesses: u64,
        label: &str,
        workload: &str,
    ) {
        self.bus.cell_started();
        self.inner.cell_begin(
            spec_index,
            workload_index,
            expected_accesses,
            label,
            workload,
        );
    }

    fn publish_progress(&self, snap: &ziv::sim::ProbeSnapshot) {
        self.inner.publish_progress(snap);
    }

    fn publish_sampling(&self, progress: &ziv::sim::SamplingProgress) {
        self.inner.publish_sampling(progress);
    }

    fn cell_end(&self) {
        self.inner.cell_end();
        self.bus.cell_finished();
    }
}

/// A paired interval-sampled run: the target mode and an inclusive
/// baseline sample the same trace, same-index intervals pair up, and
/// the run reports whether the ZIV-vs-inclusive IPC delta resolved —
/// its confidence interval excludes zero — before the interval budget
/// ran out.
fn cmd_sample(opts: &Options) -> Result<(), CliError> {
    let Some(plan) = opts.sampling.unwrap_or(Some(SamplingPlan::auto())) else {
        let why = "`zivsim sample` always samples; --sampling off leaves it nothing to run";
        return Err(CliError::Usage(why.into()));
    };
    let wl = opts.workload()?;
    let baseline = opts.spec(LlcMode::Inclusive);
    // The default target is the paper's headline ZIV configuration.
    let target = opts.spec(opts.mode_or(LlcMode::Ziv(ZivProperty::LikelyDead)));
    let run_opts = opts.run_options();
    // The paired session publishes like a two-cell campaign (spec 0 =
    // baseline, 1 = target) so `zivsim watch` can follow it.
    let results_dir = std::path::PathBuf::from(
        opts.results_dir
            .clone()
            .unwrap_or_else(|| "results/sample".into()),
    );
    let bus_opts = ziv::harness::BusOptions {
        telemetry: opts.telemetry,
        progress_jsonl: opts.progress_jsonl,
        ..Default::default()
    };
    let bus = ziv::harness::CampaignBus::start(&results_dir, 1, 2, 0, &bus_opts)?;
    let paired = bus.as_ref().and_then(|b| {
        let inner = b.worker_probes()?.into_iter().next()?;
        Some(PairedSampleProbe { bus: b, inner })
    });
    let probe: Option<&dyn ziv::sim::TelemetryProbe> =
        paired.as_ref().map(|p| p as &dyn ziv::sim::TelemetryProbe);
    let report =
        ziv::sim::run_paired_sampled_instrumented(&baseline, &target, &wl, &run_opts, plan, probe)?;
    drop(paired);
    if let Some(b) = bus {
        b.finish();
    }

    println!(
        "sample {} vs {} on {} (plan '{plan}'):",
        target.label, baseline.label, wl.name
    );
    println!(
        "{:<10} {:>12} {:>10} {:>10} {:>10}",
        "interval", "start", "base_ipc", "ipc", "delta"
    );
    for iv in &report.target.intervals {
        let base = report.baseline.intervals.get(iv.index as usize);
        let (base_ipc, delta) = match base {
            Some(b) => (format!("{:.4}", b.ipc), format!("{:+.4}", iv.ipc - b.ipc)),
            None => ("-".into(), "-".into()),
        };
        println!(
            "{:<10} {:>12} {:>10} {:>10.4} {:>10}",
            iv.index, iv.start_access, base_ipc, iv.ipc, delta
        );
    }
    for (label, run) in [("baseline", &report.baseline), ("target", &report.target)] {
        let p = &run.profile;
        let ipc = match run.ipc_ci() {
            Some(ci) => format!("ipc {ci}"),
            None => "too few intervals for a CI".into(),
        };
        println!(
            "{label:<9} {ipc}  [{} interval(s), {:.1}% simulated, stop: {}]",
            p.intervals,
            100.0 * p.simulated_fraction(),
            p.stop.tag(),
        );
    }
    match &report.delta_ci {
        Some(ci) if report.resolved => println!(
            "verdict: IPC delta {ci} excludes zero — resolved at {} confidence",
            plan.confidence
        ),
        Some(ci) => println!(
            "verdict: IPC delta {ci} still includes zero at the interval budget \
             (raise --sampling max=N or interval length to resolve)"
        ),
        None => println!("verdict: too few paired intervals to form a delta CI"),
    }
    Ok(())
}

/// The chaos-soak drill: [`ziv::harness::run_soak`] end-to-end, with
/// the fault plan and verdict printed. Exit code 3 is the *expected*
/// outcome — every injected fault isolated; 4 means a supervision
/// guarantee broke.
fn cmd_soak(opts: &Options) -> Result<(), CliError> {
    use ziv::harness::{run_soak, SoakConfig, StderrProgress};
    let mut cfg = SoakConfig::new(
        opts.results_dir
            .clone()
            .unwrap_or_else(|| "results/soak".into()),
    );
    cfg.params = opts.campaign_params();
    if let Some(threads) = opts.threads {
        cfg.threads = threads;
    }
    if let Some(ms) = opts.cell_timeout_ms {
        cfg.cell_timeout = std::time::Duration::from_millis(ms);
    }
    if let Some(ms) = opts.stall_window_ms {
        cfg.stall_window = std::time::Duration::from_millis(ms);
    }
    cfg.telemetry = opts.telemetry;
    cfg.progress_jsonl = opts.progress_jsonl;
    let report = run_soak(&cfg, &StderrProgress).map_err(|e| CliError::Internal(e.to_string()))?;
    println!(
        "chaos plan (seed {:#x}): {} injected fault(s)",
        cfg.params.seed,
        report.fault_plan.len()
    );
    for (label, kind, at) in &report.fault_plan {
        println!("  {label:<28} {kind:<24} at access {at}");
    }
    println!(
        "passes: {} cells each; chaos failures isolated: {}; surviving rows \
         byte-identical to fault-free: {}",
        report.total_cells, report.chaos_failures, report.identical_rows
    );
    println!(
        "crash drill: torn tail detected = {}, {} cell(s) re-ran on resume",
        report.torn_tail_detected, report.resumed_cells
    );
    if !report.passed() {
        for v in &report.violations {
            eprintln!("violation: {v}");
        }
        return Err(CliError::Internal(format!(
            "{} supervision guarantee(s) violated",
            report.violations.len()
        )));
    }
    if report.chaos_failures > 0 {
        return Err(CliError::Cells(format!(
            "soak verdict: every guarantee held — {} injected fault(s) \
             ledgered as isolated failures, {} healthy cell(s) byte-identical, \
             crash recovery proven",
            report.chaos_failures, report.identical_rows
        )));
    }
    Ok(())
}

/// Worker-state / stratum tags for the watch views.
fn stratum_tag(stratum: u64) -> &'static str {
    use ziv::telemetry::layout as l;
    match stratum {
        l::STRATUM_HEAD => "head",
        l::STRATUM_SKIP => "skip",
        l::STRATUM_WARM => "warm",
        l::STRATUM_TIMED => "timed",
        _ => "full",
    }
}

/// Unicode sparkline of the per-refresh access deltas (the "is it
/// actually moving" strip of the watch table).
fn spark(deltas: &[u64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = deltas.iter().copied().max().unwrap_or(0);
    deltas
        .iter()
        .map(|&d| match (d * 7).checked_div(max) {
            Some(i) => BARS[i as usize],
            None => BARS[0],
        })
        .collect()
}

fn fmt_mmss(ms: u64) -> String {
    let s = ms / 1000;
    format!("{}:{:02}", s / 60, s % 60)
}

/// One machine-readable line per snapshot for `watch --json`.
fn snapshot_json(s: &ziv::telemetry::Snapshot) -> String {
    use ziv::common::json::JsonValue;
    let workers = s
        .workers
        .iter()
        .map(|w| {
            JsonValue::Obj(vec![
                ("state".into(), JsonValue::u64(w.state)),
                ("label".into(), JsonValue::str(&w.label)),
                ("workload".into(), JsonValue::str(&w.workload)),
                ("spec_index".into(), JsonValue::u64(w.spec_index)),
                ("workload_index".into(), JsonValue::u64(w.workload_index)),
                ("access_index".into(), JsonValue::u64(w.access_index)),
                (
                    "expected_accesses".into(),
                    JsonValue::u64(w.expected_accesses),
                ),
                ("instructions".into(), JsonValue::u64(w.instructions)),
                ("cycles".into(), JsonValue::u64(w.cycles)),
                ("llc_accesses".into(), JsonValue::u64(w.llc_accesses)),
                ("llc_misses".into(), JsonValue::u64(w.llc_misses)),
                (
                    "inclusion_victims".into(),
                    JsonValue::u64(w.inclusion_victims),
                ),
                ("relocations".into(), JsonValue::u64(w.relocations)),
                ("stratum".into(), JsonValue::str(stratum_tag(w.stratum))),
                ("intervals".into(), JsonValue::u64(w.intervals)),
                ("ipc_mean".into(), JsonValue::f64(w.ipc_mean)),
                ("ipc_half_width".into(), JsonValue::f64(w.ipc_half_width)),
            ])
        })
        .collect();
    let c = &s.campaign;
    JsonValue::Obj(vec![
        ("type".into(), JsonValue::str("snapshot")),
        ("writer_pid".into(), JsonValue::u64(s.writer_pid)),
        ("tick".into(), JsonValue::u64(s.heartbeat.tick)),
        ("finished".into(), JsonValue::Bool(s.heartbeat.finished)),
        ("elapsed_ms".into(), JsonValue::u64(s.heartbeat.elapsed_ms)),
        ("total".into(), JsonValue::u64(c.total)),
        ("cached".into(), JsonValue::u64(c.cached)),
        ("done".into(), JsonValue::u64(c.done)),
        ("failed".into(), JsonValue::u64(c.failed)),
        ("running".into(), JsonValue::u64(c.running)),
        (
            "eta_ms".into(),
            c.eta_ms.map_or(JsonValue::Null, JsonValue::u64),
        ),
        ("workers".into(), JsonValue::Arr(workers)),
    ])
    .to_string()
}

/// The human watch view: campaign counters + ETA, the access-rate
/// sparkline, and one line per worker slot.
fn render_snapshot(s: &ziv::telemetry::Snapshot, deltas: &[u64]) {
    use std::io::IsTerminal;
    use ziv::telemetry::layout as l;
    if std::io::stdout().is_terminal() {
        // Redraw in place on a real terminal; append when piped.
        print!("\x1b[2J\x1b[H");
    }
    let c = &s.campaign;
    println!(
        "cells {}/{} done ({} cached, {} failed, {} running)   elapsed {}   eta {}",
        c.done,
        c.total,
        c.cached,
        c.failed,
        c.running,
        fmt_mmss(s.heartbeat.elapsed_ms),
        c.eta_ms.map_or("--:--".into(), fmt_mmss),
    );
    if deltas.len() > 1 {
        println!("rate  {}", spark(deltas));
    }
    for (i, w) in s.workers.iter().enumerate() {
        if w.generation == 0 {
            println!("  w{i}  idle");
            continue;
        }
        let state = match w.state {
            l::WORKER_RUNNING => "run ",
            l::WORKER_DONE => "done",
            _ => "idle",
        };
        let pct = if w.expected_accesses > 0 {
            format!(
                "{:5.1}%",
                100.0 * w.access_index as f64 / w.expected_accesses as f64
            )
        } else {
            "    ?".into()
        };
        let mut line = format!(
            "  w{i}  {state} {:<24} × {:<16} {:>9} acc {pct} [{}]",
            w.label,
            w.workload,
            w.access_index,
            stratum_tag(w.stratum),
        );
        if w.intervals > 0 {
            line.push_str(&format!(
                "  {} iv, ipc {:.4} ±{:.4}",
                w.intervals, w.ipc_mean, w.ipc_half_width
            ));
        }
        println!("{line}");
    }
}

/// `zivsim watch <results-dir>`: attach to the `telemetry.shm` segment
/// a campaign started with `--telemetry on` is writing, and follow it.
///
/// Exit contract — watch never spins forever:
/// - **0** once the writer publishes its final (finished) state: every
///   result artifact is already on disk at that point. `--once` also
///   exits 0, after the first consistent snapshot.
/// - **4** when the heartbeat goes stale past `--stale-after` and the
///   writer PID is gone (the campaign died without finishing), or the
///   heartbeat stays wedged for 10× the staleness window with the
///   process still alive.
fn cmd_watch(opts: &Options) -> Result<(), CliError> {
    use std::time::{Duration, Instant};
    use ziv::telemetry::{TelemetryReader, SEGMENT_FILE};
    let dir = opts.positional.as_deref().ok_or_else(|| {
        CliError::Usage(
            "watch needs the campaign's results directory \
             (the --results-dir of a run started with --telemetry on)"
                .into(),
        )
    })?;
    let segment = std::path::Path::new(dir).join(SEGMENT_FILE);
    let refresh = Duration::from_millis(opts.refresh_ms);
    let stale_after = Duration::from_millis(opts.stale_after_ms);

    // The campaign may not have created the segment yet (watch was
    // started first): give it one staleness window to appear.
    let deadline = Instant::now() + stale_after;
    let reader = loop {
        match TelemetryReader::open(&segment) {
            Ok(r) => break r,
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(CliError::Other(format!(
                        "no telemetry segment at {} ({e}); was the campaign \
                         started with --telemetry on?",
                        segment.display()
                    )));
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    };

    let mut last_tick = u64::MAX;
    let mut last_beat = Instant::now();
    let mut prev_accesses: Option<u64> = None;
    let mut deltas: Vec<u64> = Vec::new();
    loop {
        // A torn snapshot (writer mid-update) is not an error — skip
        // the refresh and try again; the staleness clock still runs.
        if let Some(snap) = reader.snapshot() {
            if snap.heartbeat.tick != last_tick {
                last_tick = snap.heartbeat.tick;
                last_beat = Instant::now();
            }
            let accesses: u64 = snap.workers.iter().map(|w| w.access_index).sum();
            if let Some(prev) = prev_accesses {
                deltas.push(accesses.saturating_sub(prev));
                if deltas.len() > 32 {
                    deltas.remove(0);
                }
            }
            prev_accesses = Some(accesses);
            if opts.json {
                println!("{}", snapshot_json(&snap));
            } else {
                render_snapshot(&snap, &deltas);
            }
            if snap.heartbeat.finished {
                if !opts.json {
                    println!("campaign finished cleanly; artifacts are on disk");
                }
                return Ok(());
            }
            if opts.once {
                return Ok(());
            }
        }
        let stale = last_beat.elapsed();
        if stale >= stale_after && !reader.writer_alive() {
            return Err(CliError::Internal(format!(
                "telemetry writer (pid {}) is gone and the heartbeat stopped \
                 {:.1}s ago without final state — the campaign died",
                reader.writer_pid(),
                stale.as_secs_f64()
            )));
        }
        if stale >= stale_after * 10 {
            return Err(CliError::Internal(format!(
                "heartbeat wedged: no progress for {:.1}s (10x the staleness \
                 window) while pid {} is still alive",
                stale.as_secs_f64(),
                reader.writer_pid()
            )));
        }
        std::thread::sleep(refresh);
    }
}

/// One traced run of the configured spec × workload: drains the event
/// ring as JSONL (stdout, or `--out <FILE>`) and prints a trace summary
/// — counts per retained event kind, total recorded, the epoch count
/// when `--epoch` sliced, and per-bank directory occupancy — to stderr
/// so the JSONL stream stays clean.
fn cmd_trace(opts: &Options) -> Result<(), CliError> {
    use std::io::Write as _;
    let wl = opts.workload()?;
    let (spec, result, observations) = opts.run_cell(&wl, LlcMode::Inclusive);
    let obs = observations.ok_or("trace produced no observations (recorder disabled?)")?;
    // `trace` forces the ring on; --events and --last refine it.
    let ring = opts.observe.events.unwrap_or_default();

    // With --perfetto the export is one Chrome trace-event document
    // (load it at ui.perfetto.dev) instead of raw JSONL events; the
    // --events filter applies to both renderings.
    let jsonl = if opts.perfetto {
        let cell = ziv::sim::ObservedCell {
            config: &spec.label,
            workload: &wl.name,
            observations: &obs,
        };
        format!(
            "{}\n",
            ziv::sim::perfetto_to_json(std::slice::from_ref(&cell), ring.filter)
        )
    } else {
        let mut jsonl = String::new();
        for ev in &obs.events {
            jsonl.push_str(&ev.to_json().to_string());
            jsonl.push('\n');
        }
        jsonl
    };
    match &opts.out {
        Some(path) => {
            write_file(path, "event trace", |w| w.write_all(jsonl.as_bytes()))?;
            eprintln!("wrote {} event(s) to {path}", obs.events.len());
        }
        None => {
            let mut out = std::io::stdout().lock();
            out.write_all(jsonl.as_bytes())
                .and_then(|()| out.flush())
                .map_err(|e| format!("cannot write events to stdout: {e}"))?;
        }
    }

    eprintln!(
        "trace {} × {}: {} event(s) recorded, {} retained (ring capacity {})",
        spec.label,
        wl.name,
        obs.events_recorded,
        obs.events.len(),
        ring.capacity,
    );
    for kind in ziv::sim::EventKind::ALL {
        let n = obs.events.iter().filter(|e| e.kind == kind).count();
        if n > 0 {
            eprintln!("  {:<18} {n}", kind.label());
        }
    }
    if !obs.epochs.is_empty() {
        eprintln!("  epochs sampled    {}", obs.epochs.len());
    }
    let occupancy: Vec<String> = obs
        .dir_slice_occupancy
        .iter()
        .map(|n| n.to_string())
        .collect();
    eprintln!("  directory occupancy per bank: [{}]", occupancy.join(", "));
    // A trace of a failing run still drains the ring (that is the whole
    // point of a flight recorder), but the run's failure is the verdict.
    result?;
    Ok(())
}

/// One run with the latency observatory and the wall-clock self-profiler
/// forced on: prints the per-class attribution table (count, cycles,
/// share, tail percentiles), per-component cycle totals, the
/// inclusion-victim refetch cost, and per-subsystem simulator wall time.
/// `--out <FILE>` additionally writes the profiler report as JSON.
fn cmd_profile(opts: &Options) -> Result<(), CliError> {
    use ziv::sim::{AccessClass, LatencyComponent, ProfileSection};
    let wl = opts.workload()?;
    let (spec, result, observations) = opts.run_cell(&wl, LlcMode::Inclusive);
    let result = result?;
    let obs = observations.ok_or("profile produced no observations (observatory disabled?)")?;
    let report = obs
        .latency
        .ok_or("profile produced no latency report (observatory disabled?)")?;

    let total = report.total_cycles();
    println!("latency attribution: {} × {}", spec.label, wl.name);
    println!(
        "{:<26} {:>10} {:>14} {:>7} {:>9} {:>9} {:>9} {:>9}",
        "class", "count", "cycles", "share", "p50", "p95", "p99", "p999"
    );
    for class in AccessClass::ALL {
        let cells = report.class_total(class);
        if cells.count == 0 {
            continue;
        }
        let hist = report.histogram(class);
        let pctl = |q: f64| {
            hist.percentile(q)
                .map_or_else(|| "-".into(), |p| format!("{p:.1}"))
        };
        println!(
            "{:<26} {:>10} {:>14} {:>6.1}% {:>9} {:>9} {:>9} {:>9}",
            class.label(),
            cells.count,
            cells.cycles,
            if total > 0 {
                100.0 * cells.cycles as f64 / total as f64
            } else {
                0.0
            },
            pctl(0.50),
            pctl(0.95),
            pctl(0.99),
            pctl(0.999),
        );
    }
    println!("component cycles:");
    for comp in LatencyComponent::ALL {
        let cycles = report.component_total(comp);
        println!(
            "  {:<12} {:>14}  ({:.1}%)",
            comp.label(),
            cycles,
            if total > 0 {
                100.0 * cycles as f64 / total as f64
            } else {
                0.0
            }
        );
    }
    let refetch = report.class_total(AccessClass::InclusionVictimRefetch);
    println!(
        "inclusion-victim refetch cost: {} access(es), {} cycle(s) \
         ({} back-invalidated line(s) noted)",
        refetch.count, refetch.cycles, result.metrics.inclusion_victims
    );
    println!(
        "attributed {} cycle(s); aggregate access_latency_cycles {}",
        total, result.metrics.access_latency_cycles
    );

    let profile = obs
        .profile
        .ok_or("profile produced no self-profiler report")?;
    println!(
        "simulator wall time by subsystem, estimated from 1 access in {} \
         (hierarchy is inclusive of the rest; audit is measured):",
        ziv::core::profile::SAMPLE_PERIOD
    );
    for section in ProfileSection::ALL {
        println!(
            "  {:<12} {:>10.3} ms  ({} call(s))",
            section.label(),
            profile.nanos(section) as f64 / 1e6,
            profile.calls(section)
        );
    }
    if let Some(path) = &opts.out {
        use ziv::common::json::JsonValue;
        let doc = JsonValue::Obj(vec![
            ("config".into(), JsonValue::str(&spec.label)),
            ("workload".into(), JsonValue::str(&wl.name)),
            ("sections".into(), profile.to_json()),
        ]);
        write_file(path, "profile report", |w| writeln!(w, "{doc}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// One run with the forensics observatory (and the latency observatory,
/// for the refetch-cycle cross-check) forced on: prints the top-K causal
/// chains — instigator access → eviction decision → victimized cores →
/// attributed refetch cost — and the instigator × victim blame matrix,
/// then asserts both conservation laws (victims vs
/// `Metrics::inclusion_victims`, refetch cycles vs the latency
/// observatory). `--out <FILE>` additionally writes the matrix as
/// blame.csv.
fn cmd_blame(opts: &Options) -> Result<(), CliError> {
    let wl = opts.workload()?;
    let (spec, result, observations) = opts.run_cell(&wl, LlcMode::Inclusive);
    let result = result?;
    let obs = observations.ok_or("blame produced no observations (observatory disabled?)")?;
    let report = obs
        .forensics
        .as_ref()
        .ok_or("blame produced no forensics report (observatory disabled?)")?;

    println!("causal forensics: {} × {}", spec.label, wl.name);
    println!(
        "chains: {} recorded ({} inclusive evictions, {} ECI tear-outs), last {} retained; \
         {} fill(s) stamped with provenance",
        report.chains_recorded,
        report.inclusive_chains,
        report.eci_chains,
        report.chains.len(),
        report.fills_stamped,
    );

    // Both conservation laws, checked live: the blame matrix must
    // account for every inclusion victim, and its refetch-cycle total
    // must agree with the latency observatory's independent accounting.
    let victims = report.total_victims();
    if victims != result.metrics.inclusion_victims {
        return Err(CliError::Other(format!(
            "conservation violated: blame matrix holds {victims} victim(s) but \
             Metrics::inclusion_victims is {}",
            result.metrics.inclusion_victims
        )));
    }
    let refetch_cycles = report.total_refetch_cycles();
    if let Some(lat) = obs.latency.as_ref() {
        let independent = lat.inclusion_victim_refetch_cycles();
        if refetch_cycles != independent {
            return Err(CliError::Other(format!(
                "conservation violated: blame matrix attributes {refetch_cycles} refetch \
                 cycle(s) but the latency observatory measured {independent}"
            )));
        }
    }
    println!(
        "conserved: {victims} victim(s) == Metrics::inclusion_victims; \
         {} refetch(es) costing {refetch_cycles} cycle(s) == latency observatory",
        report.total_refetches(),
    );

    if report.chains_recorded == 0 {
        println!(
            "no causal chains: this configuration never reached into a private cache \
             (ZIV's zero-inclusion-victim guarantee when the mode is ziv-*)"
        );
    } else {
        const TOP_K: usize = 10;
        println!("top {} chain(s) by damage:", TOP_K.min(report.chains.len()));
        println!(
            "  {:>6} {:<9} {:>10} {:>5} {:>12} {:<16} {:>7} {:>9} {:>12}  allocated-by",
            "seq", "kind", "access", "core", "line", "reason", "victims", "refetches", "cycles",
        );
        for c in report.top_chains(TOP_K) {
            let alloc = match &c.alloc {
                Some(a) => format!("core {} @ access {}", a.core.index(), a.access_index),
                None => "(stamp displaced)".into(),
            };
            println!(
                "  {:>6} {:<9} {:>10} {:>5} {:>#12x} {:<16} {:>7} {:>9} {:>12}  {alloc}",
                c.seq,
                c.kind.label(),
                c.instigator_access,
                c.instigator_core.index(),
                c.line.raw(),
                c.reason.label(),
                c.victim_count,
                c.refetches,
                c.refetch_cycles,
            );
        }
    }

    println!("blame matrix (rows instigate, columns pay; victims / refetch cycles):");
    print!("  {:>14}", "");
    for v in 0..report.cores {
        print!(" {:>16}", format!("core {v}"));
    }
    println!();
    for i in 0..report.cores {
        print!("  {:>14}", format!("core {i}"));
        for v in 0..report.cores {
            print!(
                " {:>16}",
                format!("{} / {}", report.victims(i, v), report.refetch_cycles(i, v))
            );
        }
        println!();
    }
    for i in 0..report.cores {
        let cross = report.cross_core_victims(i);
        if cross > 0 {
            println!("  core {i} victimized other cores {cross} time(s)");
        }
    }

    if let Some(path) = &opts.out {
        let cell = ziv::sim::ObservedCell {
            config: &spec.label,
            workload: &wl.name,
            observations: &obs,
        };
        write_file(path, "blame CSV", |w| {
            ziv::sim::blame_to_csv(std::slice::from_ref(&cell), w)
        })?;
        println!("wrote {path}");
    }
    Ok(())
}

/// One attack co-schedule under the configured mode with the leakage
/// observatory forced on: builds the scenario's attacker/victim/noise
/// workload (`--sets` targeted LLC sets, `--cores`/`--accesses`/`--seed`
/// as usual), runs it, and prints the attacker-observable signal
/// summary — the per-defense numbers `zivsim campaign attack-eval`
/// sweeps into leakage.csv.
fn cmd_attack(opts: &Options) -> Result<(), CliError> {
    if opts.cores < 2 {
        return Err(CliError::Usage(format!(
            "an attack needs an attacker and a victim core, not {} core",
            opts.cores
        )));
    }
    let wl = opts
        .recipe(RecipeKind::Attack {
            attack: opts.attack,
        })
        .build();
    let (spec, result, observations) = opts.run_cell(&wl, LlcMode::Inclusive);
    let result = result?;
    let report = observations
        .and_then(|o| o.leakage)
        .ok_or("attack run produced no leakage report (observatory disabled?)")?;

    let plan = wl.attack.as_ref().expect("attack workload carries a plan");
    println!(
        "attack {} × {}: attacker core(s) {:?}, victim core(s) {:?}, {} probed set(s)",
        spec.label, wl.name, plan.attacker_cores, plan.victim_cores, report.probed_sets
    );
    println!(
        "attacker-observable victim evictions: {} ({:.3} per Mcycle over {} cycles)",
        report.observable_victim_evictions(),
        report.observable_per_mcycle(),
        report.cycles
    );
    println!(
        "noise evictions in probed sets: {}   total back-invalidations: {} \
         (= metrics inclusion victims {})",
        report.noise_evictions(),
        report.total_back_invalidations(),
        result.metrics.inclusion_victims
    );
    println!(
        "attacker probes of probed sets: {} fast (line on chip), {} slow \
         (evicted; {:.1}% distinguishable)",
        report.probe_hits(),
        report.probe_evictions_seen(),
        100.0 * report.probe_eviction_rate()
    );
    println!("SHARP alarms: {}", report.sharp_alarms);
    Ok(())
}

fn cmd_replay(opts: &Options) -> Result<(), CliError> {
    use ziv::harness::{replay, FailureRecord};
    let path = opts
        .positional
        .as_deref()
        .ok_or("replay needs a repro-record file (results/<name>/failures/<digest>.json)")?;
    let record = FailureRecord::load(std::path::Path::new(path))?;
    println!(
        "replaying {} × {} from campaign '{}' (audit {}, budget {} cycles)",
        record.label, record.workload, record.campaign, record.audit, record.budget_cycles
    );
    if record.events.is_empty() {
        // Records written before the tracer existed have no embedded
        // window; say so instead of silently printing nothing.
        eprintln!(
            "warning: record has no embedded flight-recorder events \
             (written before event embedding, or the ring was empty); \
             replaying without the pre-failure window"
        );
    } else {
        println!(
            "flight recorder: {} event(s) leading up to the failure:",
            record.events.len()
        );
        for ev in &record.events {
            println!("  {}", ev.to_json());
        }
    }
    let report = replay(&record)?;
    println!("{}", report.note);
    if report.reproduced {
        Ok(())
    } else {
        Err("replay did NOT reproduce the recorded failure".into())
    }
}

fn cmd_run(opts: &Options) -> Result<(), CliError> {
    let wl = opts.workload()?;
    let baseline_spec = RunSpec::new("I-LRU (baseline)", opts.system());
    let baseline_opts = RunOptions {
        observe: ObserveConfig::disabled(),
        ..opts.run_options()
    };
    let baseline = ziv::sim::run_one_checked(&baseline_spec, &wl, &baseline_opts)
        .map_err(|e| format!("baseline run: {e}"))?;
    let (spec, result, observations) = opts.run_cell(&wl, LlcMode::Inclusive);
    let result = result.map_err(|e| format!("run: {e}"))?;
    print_result(&result, Some(&baseline));
    if let Some(f) = observations.as_ref().and_then(|o| o.forensics.as_ref()) {
        println!(
            "forensics: {} causal chain(s), {} private-copy victim(s), \
             {} attributed refetch cycle(s) (full tables: `zivsim blame`)",
            f.chains_recorded,
            f.total_victims(),
            f.total_refetch_cycles()
        );
    }
    check_guarantees([(&spec, &result)])?;
    Ok(())
}

fn cmd_compare(opts: &Options) -> Result<(), CliError> {
    let wl = opts.workload()?;
    let modes: Vec<LlcMode> = if opts.policy.is_rrpv_based() {
        vec![
            LlcMode::Inclusive,
            LlcMode::NonInclusive,
            LlcMode::Qbs,
            LlcMode::Sharp,
            LlcMode::Ziv(ZivProperty::MaxRrpvNotInPrC),
            LlcMode::Ziv(ZivProperty::MaxRrpvLikelyDead),
        ]
    } else {
        vec![
            LlcMode::Inclusive,
            LlcMode::NonInclusive,
            LlcMode::Qbs,
            LlcMode::Sharp,
            LlcMode::CharOnBase,
            LlcMode::Ziv(ZivProperty::NotInPrC),
            LlcMode::Ziv(ZivProperty::LruNotInPrC),
            LlcMode::Ziv(ZivProperty::LikelyDead),
        ]
    };
    let specs: Vec<RunSpec> = modes
        .into_iter()
        .map(|m| RunSpec {
            label: m.label(),
            ..opts.spec(m)
        })
        .collect();
    let grid = run_grid(
        &specs,
        std::slice::from_ref(&wl),
        Effort::from_env().threads,
    );
    let base = &grid[0].result;
    println!(
        "{:<18} {:>8} {:>12} {:>12} {:>12}",
        "mode", "speedup", "LLC misses", "incl.victims", "relocations"
    );
    for cell in &grid {
        let r = &cell.result;
        println!(
            "{:<18} {:>8.3} {:>12} {:>12} {:>12}",
            r.label,
            r.weighted_speedup(base),
            r.metrics.llc_misses,
            r.metrics.inclusion_victims,
            r.metrics.relocations
        );
    }
    check_guarantees(grid.iter().map(|c| (&specs[c.spec_index], &c.result)))?;
    Ok(())
}

fn cmd_export(opts: &Options) -> Result<(), CliError> {
    let path = opts
        .positional
        .as_deref()
        .ok_or("export needs a file path")?;
    let wl = opts.workload()?;
    ziv::workloads::trace_io::write_trace_file(path.as_ref(), &wl)?;
    println!(
        "wrote {} accesses ({} cores) to {path}",
        wl.total_accesses(),
        wl.cores()
    );
    Ok(())
}

/// The help text, generated from `COMMANDS` and `FLAGS`.
fn cmd_help(_: &Options) -> Result<(), CliError> {
    println!("usage: zivsim <command> [options]\n\ncommands:");
    for c in COMMANDS {
        let head = format!("  {} {}", c.name, c.positional.map_or("", |(name, _)| name));
        print_wrapped(25, head.trim_end(), c.about);
        let flags: Vec<&str> = c.flags.iter().flat_map(|g| g.iter().copied()).collect();
        if !flags.is_empty() {
            print_wrapped(25, "", &flags.join(" "));
        }
    }
    println!("\nflags:");
    for (flag, value, help, _) in FLAGS {
        print_wrapped(33, &format!("  {flag} {value}"), &fill_names(help));
    }
    println!("\nexit codes: 0 clean, 1 command failure, 2 usage, 3 isolated cell failures,");
    println!("            4 internal");
    Ok(())
}

/// Prints `lead` padded to `indent` columns, then `text` filled to 80
/// columns with continuation lines indented by `indent`.
fn print_wrapped(indent: usize, lead: &str, text: &str) {
    let mut line = format!("{lead:<indent$}");
    for word in text.split_whitespace() {
        if line.len() > indent && line.len() + word.len() > 80 {
            println!("{}", line.trim_end());
            line = " ".repeat(indent);
        }
        line.push_str(word);
        line.push(' ');
    }
    println!("{}", line.trim_end());
}

fn real_main(args: &[String]) -> ExitCode {
    let opts = match parse_args(args) {
        Ok(o) => o,
        Err(e) => {
            let e = CliError::Usage(e);
            e.report();
            return e.exit_code();
        }
    };
    match (opts.command.run)(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            e.report();
            e.exit_code()
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Contain escaped panics so a bug in the simulator itself still
    // exits under the documented contract (4 = internal), never as an
    // unclassified abort. Worker panics are already caught per-cell by
    // the supervised pool; this is the last-resort backstop.
    match std::panic::catch_unwind(|| real_main(&args)) {
        Ok(code) => code,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            eprintln!("internal error: panic: {msg}");
            ExitCode::from(4)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(|w| w.to_string()).collect()
    }

    #[test]
    fn parses_full_command_line() {
        let o = parse_args(&args(
            "run --mode ziv-likelydead --policy hawkeye --l2 512 \
             --workload homo:circset --accesses 1000 --cores 4 --seed 7",
        ))
        .unwrap();
        assert_eq!(o.command.name, "run");
        assert_eq!(o.mode, Some(LlcMode::Ziv(ZivProperty::LikelyDead)));
        assert_eq!(o.policy, PolicyKind::Hawkeye);
        assert_eq!(o.l2, L2Size::K512);
        assert_eq!(
            o.workload,
            WorkloadArg::Generated(RecipeKind::Homogeneous { app: "circset" })
        );
        assert_eq!(o.accesses, 1000);
        assert_eq!(o.cores, 4);
        assert_eq!(o.seed, Some(7));
    }

    #[test]
    fn parses_campaign_flags() {
        let o = parse_args(&args(
            "campaign fig08-lru-perf --resume --results-dir out --threads 3",
        ))
        .unwrap();
        assert_eq!(o.command.name, "campaign");
        assert!(o.resume);
        assert_eq!(o.results_dir.as_deref(), Some("out"));
        assert_eq!(o.threads, Some(3));
        assert_eq!(o.seed, None);
        assert_eq!(
            parse_args(&args("campaign smoke --seed 5")).unwrap().seed,
            Some(5)
        );
    }

    #[test]
    fn parses_telemetry_flags() {
        let o = parse_args(&args("campaign smoke --telemetry on --progress jsonl")).unwrap();
        assert!(o.telemetry);
        assert!(o.progress_jsonl);
        let o = parse_args(&args("campaign smoke --telemetry off --progress live")).unwrap();
        assert!(!o.telemetry);
        assert!(!o.progress_jsonl);
        assert!(parse_args(&args("campaign smoke --telemetry maybe")).is_err());
        assert!(parse_args(&args("campaign smoke --progress fancy")).is_err());
    }

    #[test]
    fn parses_watch_flags() {
        let o = parse_args(&args(
            "watch results/smoke --json --once --refresh 50 --stale-after 2000",
        ))
        .unwrap();
        assert_eq!(o.command.name, "watch");
        assert!(o.json);
        assert!(o.once);
        assert_eq!(o.refresh_ms, 50);
        assert_eq!(o.stale_after_ms, 2000);
        // Defaults.
        let o = parse_args(&args("watch results/smoke")).unwrap();
        assert!(!o.json && !o.once);
        assert_eq!(o.refresh_ms, 500);
        assert_eq!(o.stale_after_ms, 5000);
        assert!(parse_args(&args("watch d --refresh 0")).is_err());
        assert!(parse_args(&args("watch d --stale-after 0")).is_err());
    }

    #[test]
    fn watch_render_helpers() {
        assert_eq!(spark(&[0, 0, 0]), "▁▁▁");
        let s = spark(&[1, 4, 8]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.ends_with('█'));
        assert_eq!(fmt_mmss(61_000), "1:01");
        assert_eq!(stratum_tag(ziv::telemetry::layout::STRATUM_TIMED), "timed");
        assert_eq!(stratum_tag(0), "full");
    }

    #[test]
    fn watch_json_snapshot_is_parseable() {
        let snap = ziv::telemetry::Snapshot {
            writer_pid: 42,
            heartbeat: ziv::telemetry::Heartbeat {
                seq: 2,
                tick: 7,
                finished: false,
                elapsed_ms: 1500,
            },
            campaign: ziv::telemetry::CampaignSnap {
                seq: 2,
                total: 6,
                cached: 1,
                done: 3,
                failed: 0,
                running: 2,
                eta_ms: None,
            },
            workers: vec![],
        };
        let v = ziv::common::json::parse(&snapshot_json(&snap)).unwrap();
        use ziv::common::json::JsonValue;
        assert_eq!(v.get("type").and_then(JsonValue::as_str), Some("snapshot"));
        assert_eq!(v.get("tick").and_then(JsonValue::as_u64), Some(7));
        assert_eq!(v.get("done").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(v.get("finished").and_then(JsonValue::as_bool), Some(false));
        assert!(matches!(v.get("eta_ms"), Some(JsonValue::Null)));
    }

    #[test]
    fn parses_robustness_flags() {
        let o = parse_args(&args(
            "campaign smoke --audit every-access --strict --cell-budget 123456 \
             --inject-fault 0:1:corrupt-directory:200",
        ))
        .unwrap();
        assert_eq!(o.audit, ziv::core::AuditCadence::EveryAccess);
        assert!(o.strict);
        assert_eq!(o.cell_budget, Some(123_456));
        let (s, w, fault) = o.inject_fault.unwrap();
        assert_eq!((s, w), (0, 1));
        assert_eq!(
            fault,
            ziv::core::FaultInjection::CorruptDirectory { at_access: 200 }
        );

        let o = parse_args(&args("run --audit sampled:64")).unwrap();
        assert_eq!(o.audit, ziv::core::AuditCadence::Sampled { one_in: 64 });

        assert!(parse_args(&args("campaign smoke --audit bogus")).is_err());
        assert!(parse_args(&args("campaign smoke --inject-fault 0:0:nope:5")).is_err());
        assert!(parse_args(&args("campaign smoke --inject-fault lopsided")).is_err());

        // `replay` takes a positional file path like `export` does.
        let o = parse_args(&args("replay results/smoke/failures/abc.json")).unwrap();
        assert_eq!(o.command.name, "replay");
    }

    #[test]
    fn parses_supervision_flags() {
        let o = parse_args(&args(
            "campaign smoke --cell-timeout 5000 --stall-window 400",
        ))
        .unwrap();
        assert_eq!(o.cell_timeout_ms, Some(5000));
        assert_eq!(o.stall_window_ms, Some(400));

        // Off by default: an unsupervised campaign stays unsupervised.
        let o = parse_args(&args("campaign smoke")).unwrap();
        assert!(o.cell_timeout_ms.is_none() && o.stall_window_ms.is_none());

        // `soak` takes the same flags (plus the usual campaign knobs).
        let o = parse_args(&args(
            "soak --results-dir out --threads 2 --seed 9 --cell-timeout 60000",
        ))
        .unwrap();
        assert_eq!(o.command.name, "soak");
        assert_eq!(o.results_dir.as_deref(), Some("out"));
        assert_eq!(o.seed, Some(9));

        assert!(parse_args(&args("campaign smoke --cell-timeout 0")).is_err());
        assert!(parse_args(&args("campaign smoke --stall-window 0")).is_err());
    }

    #[test]
    fn parses_hang_and_panic_fault_kinds() {
        let o = parse_args(&args("campaign soak --inject-fault 2:0:hang-core:150")).unwrap();
        let (s, _, fault) = o.inject_fault.unwrap();
        assert_eq!(s, 2);
        assert_eq!(
            fault,
            ziv::core::FaultInjection::HangCore { at_access: 150 }
        );
        let o = parse_args(&args("campaign soak --inject-fault 3:0:panic-core:99")).unwrap();
        let (_, _, fault) = o.inject_fault.unwrap();
        assert_eq!(
            fault,
            ziv::core::FaultInjection::PanicCore { at_access: 99 }
        );
    }

    #[test]
    fn cli_errors_carry_the_documented_exit_codes() {
        use std::process::ExitCode;
        let codes = [
            (CliError::Other("x".into()), ExitCode::from(1)),
            (CliError::Usage("x".into()), ExitCode::from(2)),
            (CliError::Cells("x".into()), ExitCode::from(3)),
            (CliError::Internal("x".into()), ExitCode::from(4)),
        ];
        for (err, want) in codes {
            assert_eq!(format!("{:?}", err.exit_code()), format!("{want:?}"));
        }
    }

    #[test]
    fn parses_attack_flags() {
        // `attack` takes a positional scenario like `trace` takes a mode.
        let o = parse_args(&args(
            "attack hammer --mode qbs --sets 4 --cores 4 --accesses 2000",
        ))
        .unwrap();
        assert_eq!(o.command.name, "attack");
        assert_eq!(o.mode, Some(LlcMode::Qbs));
        assert_eq!(o.attack.scenario, AttackScenario::Hammer);
        assert_eq!(o.attack.target_sets, 4);
        assert_eq!(o.cores, 4);
        // The attack command forces the leakage observatory on.
        assert!(o.observe.leakage);

        let o = parse_args(&args("attack")).unwrap();
        assert_eq!(o.attack.scenario, AttackScenario::PrimeProbe);
        assert_eq!(o.attack.target_sets, 8, "default targeted sets");

        // `--leakage` arms the observatory for campaigns too.
        let o = parse_args(&args("campaign attack-eval --leakage")).unwrap();
        assert!(o.observe.leakage);
        assert!(parse_args(&args("attack --sets 0")).is_err());
        assert!(parse_args(&args("attack --sets nope")).is_err());
    }

    #[test]
    fn parses_observability_flags() {
        let o = parse_args(&args(
            "campaign smoke --epoch 500 --events back-invalidation,relocation \
             --last 64 --heatmap",
        ))
        .unwrap();
        assert_eq!(o.observe.epoch, Some(500));
        assert_eq!(
            o.observe.events,
            Some(EventTraceConfig {
                capacity: 64,
                filter: EventFilter::parse("back-invalidation,relocation").unwrap(),
            })
        );
        assert!(o.observe.heatmap);
        let ev = o.observe.events.unwrap();
        assert!(ev.filter.contains(ziv::sim::EventKind::Relocation));
        assert!(!ev.filter.contains(ziv::sim::EventKind::Fill));

        // Malformed values are rejected at parse time.
        assert!(parse_args(&args("campaign smoke --epoch 0")).is_err());
        assert!(parse_args(&args("campaign smoke --last 0")).is_err());
        assert!(parse_args(&args("campaign smoke --events bogus")).is_err());

        // Flags alone never enable the recorder outside `trace`...
        let o = parse_args(&args("campaign smoke")).unwrap();
        assert!(!o.observe.is_enabled());
        // ...while `trace` records events by default, with an optional
        // positional mode like `export`/`campaign` positionals.
        let o = parse_args(&args("trace ziv-likelydead --workload homo:circset")).unwrap();
        assert_eq!(o.command.name, "trace");
        assert_eq!(o.observe.events, Some(EventTraceConfig::default()));
        // Its own --events and --last refine the forced ring, in any order.
        for line in [
            "trace --last 8 --events fill",
            "trace --events fill --last 8",
        ] {
            let ring = parse_args(&args(line)).unwrap().observe.events.unwrap();
            assert_eq!(ring.capacity, 8);
            assert_eq!(ring.filter, EventFilter::parse("fill").unwrap());
        }
    }

    #[test]
    fn parses_latency_and_profile_flags() {
        let cfg = parse_args(&args("campaign smoke --latency --profile"))
            .unwrap()
            .observe;
        assert!(cfg.latency);
        assert!(cfg.profile);
        assert!(cfg.is_enabled());

        // Off by default everywhere...
        let o = parse_args(&args("campaign smoke")).unwrap();
        assert!(!o.observe.latency && !o.observe.profile);
        // ...except the `profile` command, which forces both on.
        let o = parse_args(&args("profile ziv-likelydead --accesses 100")).unwrap();
        assert_eq!(o.command.name, "profile");
        let cfg = o.observe;
        assert!(cfg.latency);
        assert!(cfg.profile);
        // Forcing the observatory must not drag the event ring along.
        assert!(cfg.events.is_none());
    }

    #[test]
    fn parses_forensics_flags() {
        let cfg = parse_args(&args("campaign smoke --forensics"))
            .unwrap()
            .observe;
        assert!(cfg.forensics);
        assert!(cfg.is_enabled());

        // Off by default everywhere...
        let o = parse_args(&args("campaign smoke")).unwrap();
        assert!(!o.observe.forensics && !o.perfetto);
        // ...except the `blame` command, which forces forensics AND the
        // latency observatory (for the refetch-cycle conservation check).
        let o = parse_args(&args("blame ziv-likelydead --accesses 100")).unwrap();
        assert_eq!(o.command.name, "blame");
        let cfg = o.observe;
        assert!(cfg.forensics);
        assert!(cfg.latency);

        // --perfetto implies forensics: a trace without causal chains
        // would be blind to the paper's story.
        let o = parse_args(&args("campaign smoke --perfetto")).unwrap();
        assert!(o.perfetto);
        assert!(o.observe.forensics);
    }

    #[test]
    fn last_clamps_to_the_event_ring_limit() {
        let cap = ziv::core::observe::MAX_EVENT_CAPACITY;
        let capacity = |o: Options| o.observe.events.map(|e| e.capacity);
        let o = parse_args(&args(&format!("trace --last {}", cap + 1))).unwrap();
        assert_eq!(
            capacity(o),
            Some(cap),
            "oversized --last clamps, not errors"
        );
        let o = parse_args(&args(&format!("trace --last {cap}"))).unwrap();
        assert_eq!(
            capacity(o),
            Some(cap),
            "the limit itself is accepted verbatim"
        );
    }

    #[test]
    fn parses_sampling_flags() {
        let o = parse_args(&args(
            "campaign smoke --sampling interval=64,gap=448,warmup=25,confidence=99,max=12 \
             --validate",
        ))
        .unwrap();
        let plan = o.sampling.flatten().unwrap();
        assert_eq!(plan.interval, 64);
        assert_eq!(plan.gap, 448);
        assert_eq!(plan.warmup_per_mille, 250);
        assert_eq!(plan.confidence, ziv::sim::Confidence::P99);
        assert_eq!(plan.max_intervals, 12);
        assert!(o.validate);

        // `auto` resolves per-workload at run time; `off` is explicit.
        assert!(parse_args(&args("campaign smoke --sampling auto"))
            .unwrap()
            .sampling
            .flatten()
            .unwrap()
            .is_auto());
        assert_eq!(
            parse_args(&args("campaign smoke --sampling off"))
                .unwrap()
                .sampling,
            Some(None)
        );
        // Malformed plans are usage errors at parse time.
        assert!(parse_args(&args("campaign smoke --sampling interval=0,gap=10")).is_err());
        assert!(parse_args(&args("campaign smoke --sampling confidence=80")).is_err());
        assert!(parse_args(&args("campaign smoke --sampling bogus=1")).is_err());

        // `sample` takes a positional mode like `trace` does, and
        // defaults to the paper's headline ZIV configuration —
        // unless --mode was given explicitly.
        let headline = LlcMode::Ziv(ZivProperty::LikelyDead);
        let o = parse_args(&args("sample ziv-notinprc --accesses 500")).unwrap();
        assert_eq!(o.command.name, "sample");
        assert_eq!(o.mode, None);
        assert_eq!(o.mode_or(headline), LlcMode::Ziv(ZivProperty::NotInPrC));
        let o = parse_args(&args("sample --mode qbs")).unwrap();
        assert_eq!(o.mode_or(headline), LlcMode::Qbs);
        assert_eq!(
            parse_args(&args("sample")).unwrap().mode_or(headline),
            headline
        );
        // The positional wins over --mode, in either order.
        for line in ["sample sharp --mode qbs", "sample --mode qbs sharp"] {
            assert_eq!(
                parse_args(&args(line)).unwrap().mode_or(headline),
                LlcMode::Sharp
            );
        }
    }

    #[test]
    fn every_command_rejects_the_flags_it_does_not_read() {
        for command in COMMANDS {
            for (flag, ..) in FLAGS {
                if command.accepts(flag) {
                    continue;
                }
                let err = parse_args(&args(&format!("{} {flag} 1", command.name))).unwrap_err();
                let want = format!("`zivsim {}` does not take {flag}", command.name);
                assert_eq!(err, want);
            }
            for flag in command.flags.iter().flat_map(|group| group.iter()) {
                assert!(
                    FLAGS.iter().any(|(known, ..)| known == flag),
                    "{} reads {flag}, which FLAGS does not describe",
                    command.name
                );
            }
        }
        for (flag, ..) in FLAGS {
            assert!(
                COMMANDS.iter().any(|c| c.accepts(flag)),
                "no command reads {flag}"
            );
        }
    }

    #[test]
    fn rejects_unknown_flags_and_values() {
        assert!(parse_args(&args("run --mode bogus")).is_err());
        assert!(parse_args(&args("run --policy bogus")).is_err());
        assert!(parse_args(&args("run --l2 333")).is_err());
        assert!(parse_args(&args("run --frobnicate")).is_err());
        assert!(parse_args(&args("run --mode")).is_err());
        // Values a run cannot honour are usage errors, not panics or
        // empty simulations.
        for line in [
            "run --cores 9",
            "run --cores 0",
            "run --accesses 0",
            "sample --cores 9",
            "compare --cores 9",
            "campaign smoke --cores 9",
            "campaign smoke --cores 0",
        ] {
            assert!(parse_args(&args(line)).is_err(), "{line}");
        }
        assert_eq!(
            parse_args(&args("run --cores 9")).unwrap_err(),
            "--cores must be at most 8"
        );
        assert!(parse_args(&args("run --cores 8 --paper-scale")).is_ok());
    }

    #[test]
    fn builds_workloads_of_each_kind() {
        let build = |w: &str| {
            parse_args(&args(&format!(
                "run --workload {w} --cores 2 --accesses 50"
            )))
            .and_then(|o| o.workload())
        };
        assert_eq!(build("homo:stream").unwrap().cores(), 2);
        assert_eq!(build("hetero:3").unwrap().cores(), 2);
        assert_eq!(build("mt:canneal").unwrap().cores(), 2);
        assert!(build("mt:nope").is_err());
        assert!(build("nope").is_err());
        assert!(build("file:/no/such/trace").is_err());
    }

    #[test]
    fn every_listed_mode_parses() {
        for &(names, mode) in MODES {
            for name in names.split('|') {
                assert_eq!(lookup_mode(name), Ok(mode));
                assert_eq!(lookup_mode(&name.to_ascii_uppercase()), Ok(mode));
            }
        }
        assert_eq!(listed(MODES).len(), 14);
    }

    #[test]
    fn every_listed_policy_and_l2_size_parses() {
        for (name, policy) in policy_names().iter().zip(POLICIES) {
            assert_eq!(lookup_policy(name), Ok(policy));
        }
        for &(names, size) in L2_SIZES {
            for name in names.split('|') {
                assert_eq!(lookup_l2(name), Ok(size));
            }
        }
        assert_eq!(lookup_l2("1M"), Ok(L2Size::M1));
        for fault in FaultInjection::all(1) {
            let line = format!("campaign smoke --inject-fault 0:0:{}:1", fault.kind_str());
            let o = parse_args(&args(&line)).unwrap();
            assert_eq!(o.inject_fault, Some((0, 0, fault)));
        }
        for (flag, _, help, _) in FLAGS {
            assert!(!fill_names(help).contains('{'), "{flag}: {help}");
        }
    }
}
