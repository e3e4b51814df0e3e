//! Campaign definitions: a figure-style sweep as *data*.
//!
//! A [`Campaign`] is a named `specs × recipes` grid plus a baseline
//! column. Everything about it is reproducible from a
//! [`CampaignParams`] — `(seed, effort, core count)` — so two processes
//! given the same parameters build byte-identical campaigns and
//! therefore identical cell digests; that is what makes the result
//! cache shareable across runs, processes, and thread counts.

use ziv_common::config::{L2Size, SystemConfig};
use ziv_common::Fnv1a;
use ziv_core::{FaultInjection, LlcMode, ZivProperty};
use ziv_replacement::PolicyKind;
use ziv_sim::{Effort, RunSpec};
use ziv_workloads::{apps, AttackRecipe, Recipe, ScaleParams};

/// Version tag mixed into every cell digest. Bump when the digested
/// field set or the simulator's observable behavior changes in a way
/// that must invalidate previously cached results.
///
/// History: 1 → 2 when [`ziv_core::Metrics`] gained `llc_demand_fills`
/// (the demand-fill conservation counter); 2 → 3 when it gained
/// `access_latency_cycles` (the latency-attribution conservation
/// anchor) — in both cases old ledger lines no longer parse, so their
/// cells must re-address.
pub const CELL_SCHEMA_VERSION: u64 = 3;

/// The content address of one campaign cell: a stable FNV-1a digest of
/// `(CELL_SCHEMA_VERSION, RunSpec semantics, Recipe semantics)`.
/// Identical across processes, platforms, and thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellDigest(pub u64);

impl CellDigest {
    /// The ledger's key encoding: 16 lowercase hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses the [`hex`](CellDigest::hex) encoding.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(CellDigest)
    }
}

impl std::fmt::Display for CellDigest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// A named experiment sweep: every `spec × recipe` combination is one
/// cell, and the grid's speedup summary is normalized against
/// `baseline_spec`.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Registry name (e.g. `"fig08-lru-perf"`).
    pub name: String,
    /// One-line description for listings.
    pub description: String,
    /// Configuration axis.
    pub specs: Vec<RunSpec>,
    /// Workload axis, as regenerable recipes.
    pub recipes: Vec<Recipe>,
    /// Index into `specs` of the normalization baseline.
    pub baseline_spec: usize,
}

impl Campaign {
    /// The content address of cell `(spec_index, recipe_index)`.
    ///
    /// Deliberately independent of the campaign's name: two campaigns
    /// sharing a `(spec, recipe)` cell share its cached result.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn cell_digest(&self, spec_index: usize, recipe_index: usize) -> CellDigest {
        let mut h = Fnv1a::new();
        h.write_u64(CELL_SCHEMA_VERSION);
        self.specs[spec_index].digest_into(&mut h);
        self.recipes[recipe_index].digest_into(&mut h);
        CellDigest(h.finish())
    }

    /// Every `(spec_index, recipe_index)` cell, row-major.
    pub fn cells(&self) -> Vec<(usize, usize)> {
        (0..self.specs.len())
            .flat_map(|s| (0..self.recipes.len()).map(move |w| (s, w)))
            .collect()
    }

    /// Number of cells in the grid.
    pub fn total_cells(&self) -> usize {
        self.specs.len() * self.recipes.len()
    }
}

/// The inputs a campaign is reproducible from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignParams {
    /// Workload-generation seed (the figure benches use `0x2026`).
    pub seed: u64,
    /// Workload sizing.
    pub effort: Effort,
    /// Cores per multiprogrammed workload.
    pub cores: usize,
}

impl CampaignParams {
    /// The figure-bench defaults: seed `0x2026`, effort from the
    /// environment (`ZIV_FAST` / `ZIV_FULL`), 8 cores.
    pub fn from_env() -> Self {
        CampaignParams {
            seed: 0x2026,
            effort: Effort::from_env(),
            cores: 8,
        }
    }

    /// Tiny sizes for tests and doc examples: 2 cores, ~1.5k accesses.
    pub fn tiny() -> Self {
        CampaignParams {
            seed: 0x2026,
            effort: Effort {
                accesses_per_core: 1_500,
                hetero_mixes: 1,
                mt_accesses_per_core: 1_000,
                tpce_accesses_per_core: 500,
                threads: 2,
            },
            cores: 2,
        }
    }
}

/// The built-in campaign registry (the paper's figure sweeps).
pub mod campaigns {
    use super::*;

    /// `(name, description)` of every built-in campaign.
    pub fn names() -> Vec<(&'static str, &'static str)> {
        vec![
            ("smoke", "2-config × 2-workload sanity sweep (I-LRU vs ZIV-LikelyDead)"),
            (
                "fig02-inclusion-victims",
                "inclusive LLC inclusion-victim counts under LRU/Hawkeye/MIN across L2 sizes",
            ),
            (
                "fig08-lru-perf",
                "multiprogrammed performance, LRU baseline: I/NI/QBS/SHARP/ZIV×3 across L2 sizes",
            ),
            (
                "fig11-hawkeye-perf",
                "multiprogrammed performance, Hawkeye baseline: I/NI/QBS/SHARP/ZIV×2 across L2 sizes",
            ),
            (
                "attack-eval",
                "side-channel leakage: prime+probe and hammer attackers vs I/QBS/SHARP/ZIV defenses",
            ),
            (
                "soak",
                "chaos-soak grid: mixed LLC modes × 3 workloads, the substrate `zivsim soak` injects faults into",
            ),
        ]
    }

    /// Builds the named campaign from `params`, or `None` for an
    /// unknown name.
    pub fn by_name(name: &str, params: &CampaignParams) -> Option<Campaign> {
        match name {
            "smoke" => Some(smoke(params)),
            "fig02-inclusion-victims" => Some(fig02(params)),
            "fig08-lru-perf" => Some(fig08(params)),
            "fig11-hawkeye-perf" => Some(fig11(params)),
            "attack-eval" => Some(attack_eval(params)),
            "soak" => Some(soak(params)),
            _ => None,
        }
    }

    /// Workload footprints are sized against the 256 KB-class machine
    /// so the *same recipes* (and so the same cached cells) drive every
    /// configuration of an L2-capacity sweep, exactly as the figure
    /// benches' `mp_suite` does with its fixed traces.
    fn mp_recipes(params: &CampaignParams) -> Vec<Recipe> {
        let scale = ScaleParams::from_system(&SystemConfig::scaled_with_l2(L2Size::K256));
        Recipe::default_suite(
            params.effort.hetero_mixes,
            params.cores,
            params.effort.accesses_per_core,
            params.seed,
            scale,
        )
    }

    /// A spec labeled the way the paper's figures are (`"I-LRU 256KB"`).
    fn figure_spec(mode: LlcMode, policy: PolicyKind, l2: L2Size) -> RunSpec {
        let label = format!("{}-{} {}", mode.label(), policy.label(), l2.label());
        RunSpec::new(label, SystemConfig::scaled_with_l2(l2))
            .with_mode(mode)
            .with_policy(policy)
    }

    fn smoke(params: &CampaignParams) -> Campaign {
        let scale = ScaleParams::from_system(&SystemConfig::scaled_with_l2(L2Size::K256));
        let accesses = (params.effort.accesses_per_core / 10).max(500);
        let recipes = vec![
            Recipe::homogeneous(
                apps::app_by_name("circset").expect("known app"),
                params.cores,
                accesses,
                params.seed,
                scale,
            ),
            Recipe::homogeneous(
                apps::app_by_name("hotl2").expect("known app"),
                params.cores,
                accesses,
                params.seed,
                scale,
            ),
        ];
        let specs = vec![
            figure_spec(LlcMode::Inclusive, PolicyKind::Lru, L2Size::K256),
            figure_spec(
                LlcMode::Ziv(ZivProperty::LikelyDead),
                PolicyKind::Lru,
                L2Size::K256,
            ),
        ];
        Campaign {
            name: "smoke".into(),
            description: names()[0].1.into(),
            specs,
            recipes,
            baseline_spec: 0,
        }
    }

    fn fig02(params: &CampaignParams) -> Campaign {
        let mut specs = Vec::new();
        for policy in [PolicyKind::Lru, PolicyKind::Hawkeye, PolicyKind::Min] {
            for l2 in L2Size::TABLE1 {
                specs.push(figure_spec(LlcMode::Inclusive, policy, l2));
            }
        }
        Campaign {
            name: "fig02-inclusion-victims".into(),
            description: names()[1].1.into(),
            specs,
            recipes: mp_recipes(params),
            baseline_spec: 0,
        }
    }

    fn fig08(params: &CampaignParams) -> Campaign {
        use ZivProperty::*;
        let modes = [
            LlcMode::Inclusive,
            LlcMode::NonInclusive,
            LlcMode::Qbs,
            LlcMode::Sharp,
            LlcMode::Ziv(NotInPrC),
            LlcMode::Ziv(LruNotInPrC),
            LlcMode::Ziv(LikelyDead),
        ];
        let mut specs = Vec::new();
        for l2 in L2Size::TABLE1 {
            for mode in modes {
                specs.push(figure_spec(mode, PolicyKind::Lru, l2));
            }
        }
        Campaign {
            name: "fig08-lru-perf".into(),
            description: names()[2].1.into(),
            specs,
            recipes: mp_recipes(params),
            baseline_spec: 0,
        }
    }

    /// The security-evaluation grid: each attack scenario (prime+probe
    /// eviction-set attacker, targeted back-invalidation hammer) runs
    /// against the inclusive baseline and the QBS / SHARP / ZIV
    /// defenses. The runner's leakage observatory turns every cell into
    /// one `leakage.csv` row; the zero-inclusion-victim modes must show
    /// exactly zero attacker-observable victim evictions.
    fn attack_eval(params: &CampaignParams) -> Campaign {
        use ZivProperty::*;
        let scale = ScaleParams::from_system(&SystemConfig::scaled_with_l2(L2Size::K256));
        // Probe enough sets for a clear signal without the prime/probe
        // passes dwarfing the victim's own accesses.
        let target_sets = 8;
        let recipes = vec![
            Recipe::attack(
                AttackRecipe::prime_probe(target_sets),
                params.cores,
                params.effort.accesses_per_core,
                params.seed,
                scale,
            ),
            Recipe::attack(
                AttackRecipe::hammer(target_sets),
                params.cores,
                params.effort.accesses_per_core,
                params.seed,
                scale,
            ),
        ];
        let modes = [
            LlcMode::Inclusive,
            LlcMode::Qbs,
            LlcMode::Sharp,
            LlcMode::Ziv(NotInPrC),
            LlcMode::Ziv(LikelyDead),
        ];
        let specs = modes
            .into_iter()
            .map(|mode| figure_spec(mode, PolicyKind::Lru, L2Size::K256))
            .collect();
        Campaign {
            name: "attack-eval".into(),
            description: names()[4].1.into(),
            specs,
            recipes,
            baseline_spec: 0,
        }
    }

    /// The chaos-soak substrate: a small grid that deliberately spans
    /// every class of spec the fault injectors care about — two
    /// inclusive specs (back-invalidation faults need real
    /// back-invalidations, which I-Hawkeye under `circset` produces), a
    /// non-inclusive spec, the TLA/SHARP defenses, and a ZIV spec.
    /// Spec 0 is the baseline and is never faulted by the scheduler
    /// ([`soak_chaos`]), so the summary normalization stays comparable
    /// between the fault-free and chaos passes.
    ///
    /// Workloads are sized up from the smoke campaign (≥ 4 cores,
    /// ≥ 2500 accesses/core) so that the inclusive specs actually
    /// back-invalidate at every effort level.
    fn soak(params: &CampaignParams) -> Campaign {
        let scale = ScaleParams::from_system(&SystemConfig::scaled_with_l2(L2Size::K256));
        let cores = params.cores.max(4);
        let accesses = (params.effort.accesses_per_core / 8).max(2_500);
        let recipes = ["circset", "hotl2", "chase"]
            .into_iter()
            .map(|app| {
                Recipe::homogeneous(
                    apps::app_by_name(app).expect("known app"),
                    cores,
                    accesses,
                    params.seed,
                    scale,
                )
            })
            .collect();
        let specs = vec![
            figure_spec(LlcMode::Inclusive, PolicyKind::Lru, L2Size::K256),
            figure_spec(LlcMode::Inclusive, PolicyKind::Hawkeye, L2Size::K256),
            figure_spec(LlcMode::Inclusive, PolicyKind::Lru, L2Size::M1),
            figure_spec(LlcMode::NonInclusive, PolicyKind::Lru, L2Size::K256),
            figure_spec(LlcMode::Qbs, PolicyKind::Lru, L2Size::K256),
            figure_spec(LlcMode::Sharp, PolicyKind::Lru, L2Size::K256),
            figure_spec(
                LlcMode::Ziv(ZivProperty::LikelyDead),
                PolicyKind::Lru,
                L2Size::K256,
            ),
        ];
        Campaign {
            name: "soak".into(),
            description: names()[5].1.into(),
            specs,
            recipes,
            baseline_spec: 0,
        }
    }

    /// One fault the chaos scheduler armed on a soak spec.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SoakFault {
        /// Index of the faulted spec in the soak campaign.
        pub spec_index: usize,
        /// The armed injection.
        pub fault: FaultInjection,
    }

    /// Builds the chaos variant of the `soak` grid: the same campaign
    /// with one deliberate fault armed on each of five specs, plus the
    /// plan of what went where. Deterministic per `params.seed` — the
    /// scheduler draws every trigger access and the fault→spec
    /// assignment from a splitmix64 stream, so two processes with the
    /// same seed soak the exact same chaos grid.
    ///
    /// Scheduling constraints the shuffle respects:
    ///
    /// - spec 0 (the baseline) and the last spec stay healthy, so the
    ///   run always has fault-free rows to compare byte-for-byte
    ///   against the fault-free pass;
    /// - `skip-back-invalidation` is pinned to spec 1 (I-Hawkeye,
    ///   inclusive): it only fires on a real back-invalidation;
    /// - the other four injectors (`corrupt-directory`, `stall-core`,
    ///   `hang-core`, `panic-core`) are shuffled across specs 2–5.
    pub fn soak_chaos(params: &CampaignParams) -> (Campaign, Vec<SoakFault>) {
        let mut campaign = soak(params);
        let mut state = params.seed ^ 0xfa17_1417_c4a0_55ed;
        let mut draw = move || {
            // splitmix64: the same generator the backoff jitter uses.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        // Trigger accesses land in [50, 250): early enough to fire at
        // every effort level, late enough that the run is warmed up.
        let mut at = || 50 + draw() % 200;
        let mut faults = vec![SoakFault {
            spec_index: 1,
            fault: FaultInjection::SkipBackInvalidation { at_access: at() },
        }];
        let mut movable = [
            FaultInjection::CorruptDirectory { at_access: at() },
            FaultInjection::StallCore { at_access: at() },
            FaultInjection::HangCore { at_access: at() },
            FaultInjection::PanicCore { at_access: at() },
        ];
        // Seeded Fisher-Yates over the movable injectors.
        for i in (1..movable.len()).rev() {
            movable.swap(i, (draw() % (i as u64 + 1)) as usize);
        }
        for (offset, fault) in movable.into_iter().enumerate() {
            faults.push(SoakFault {
                spec_index: 2 + offset,
                fault,
            });
        }
        for f in &faults {
            campaign.specs[f.spec_index] = campaign.specs[f.spec_index].clone().with_fault(f.fault);
        }
        (campaign, faults)
    }

    fn fig11(params: &CampaignParams) -> Campaign {
        use ZivProperty::*;
        let modes = [
            LlcMode::Inclusive,
            LlcMode::NonInclusive,
            LlcMode::Qbs,
            LlcMode::Sharp,
            LlcMode::Ziv(MaxRrpvNotInPrC),
            LlcMode::Ziv(MaxRrpvLikelyDead),
        ];
        let mut specs = Vec::new();
        for l2 in L2Size::TABLE1 {
            for mode in modes {
                specs.push(figure_spec(mode, PolicyKind::Hawkeye, l2));
            }
        }
        Campaign {
            name: "fig11-hawkeye-perf".into(),
            description: names()[3].1.into(),
            specs,
            recipes: mp_recipes(params),
            baseline_spec: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_builds_every_listed_campaign() {
        let params = CampaignParams::tiny();
        for (name, _) in campaigns::names() {
            let c = campaigns::by_name(name, &params).expect(name);
            assert_eq!(c.name, name);
            assert!(c.total_cells() > 0, "{name} is empty");
            assert!(c.baseline_spec < c.specs.len());
            assert_eq!(c.cells().len(), c.total_cells());
        }
        assert!(campaigns::by_name("nope", &params).is_none());
    }

    #[test]
    fn figure_campaigns_match_bench_shapes() {
        let params = CampaignParams::tiny();
        let fig02 = campaigns::by_name("fig02-inclusion-victims", &params).unwrap();
        assert_eq!(fig02.specs.len(), 9); // 3 policies × 3 L2 sizes
        assert_eq!(fig02.specs[0].label, "I-LRU 256KB");
        let fig08 = campaigns::by_name("fig08-lru-perf", &params).unwrap();
        assert_eq!(fig08.specs.len(), 21); // 7 modes × 3 L2 sizes
        assert_eq!(fig08.specs[0].label, "I-LRU 256KB");
        let fig11 = campaigns::by_name("fig11-hawkeye-perf", &params).unwrap();
        assert_eq!(fig11.specs.len(), 18); // 6 modes × 3 L2 sizes
                                           // Same recipes in fig02 and fig08: shared cells share the cache.
        assert_eq!(fig02.recipes, fig08.recipes);
        assert_eq!(fig02.cell_digest(0, 0), fig08.cell_digest(0, 0));
    }

    #[test]
    fn attack_eval_grid_shape_and_plans() {
        let params = CampaignParams::tiny();
        let c = campaigns::by_name("attack-eval", &params).unwrap();
        assert_eq!(c.specs.len(), 5); // I / QBS / SHARP / ZIV×2
        assert_eq!(c.recipes.len(), 2); // prime+probe, hammer
        assert_eq!(c.specs[0].label, "I-LRU 256KB");
        assert_eq!(c.recipes[0].workload_name(), "attack-primeprobe");
        assert_eq!(c.recipes[1].workload_name(), "attack-hammer");
        // Every attack workload carries its role plan for the
        // leakage observatory.
        for r in &c.recipes {
            let wl = r.build();
            let plan = wl.attack.as_ref().expect("attack plan");
            assert!(!plan.attacker_cores.is_empty());
            assert!(!plan.victim_cores.is_empty());
            assert!(!plan.probe_lines.is_empty());
        }
        // Distinct scenarios address distinct cells.
        assert_ne!(c.cell_digest(0, 0), c.cell_digest(0, 1));
    }

    #[test]
    fn campaigns_are_reproducible_from_params() {
        let params = CampaignParams::tiny();
        let a = campaigns::by_name("smoke", &params).unwrap();
        let b = campaigns::by_name("smoke", &params).unwrap();
        for (s, w) in a.cells() {
            assert_eq!(a.cell_digest(s, w), b.cell_digest(s, w));
        }
        // A different seed addresses different cells.
        let other = CampaignParams { seed: 99, ..params };
        let c = campaigns::by_name("smoke", &other).unwrap();
        assert_ne!(a.cell_digest(0, 0), c.cell_digest(0, 0));
    }

    #[test]
    fn digest_hex_round_trips() {
        let d = CellDigest(0x0123_4567_89ab_cdef);
        assert_eq!(d.hex(), "0123456789abcdef");
        assert_eq!(CellDigest::from_hex(&d.hex()), Some(d));
        assert_eq!(CellDigest::from_hex("xyz"), None);
        assert_eq!(CellDigest::from_hex("123"), None);
        assert_eq!(format!("{d}"), d.hex());
    }

    /// Golden digest pinning cross-process stability: this exact value
    /// was computed by a separate process. If it changes, previously
    /// written ledgers are silently invalidated — bump
    /// [`CELL_SCHEMA_VERSION`] intentionally instead.
    #[test]
    fn cell_digest_is_stable_across_processes() {
        let c = campaigns::by_name("smoke", &CampaignParams::tiny()).unwrap();
        let got = c.cell_digest(0, 0);
        let golden = CellDigest(0xceff_1624_820f_07ca);
        assert_eq!(got, golden, "digest changed: got {got}, pinned {golden}");
    }
}
