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

/// The built-in campaign registry: one [`Entry`](campaigns::Entry) per
/// experiment, each the grid behind one or more of the paper's figures,
/// ablations and extensions, plus the smoke, security and soak grids.
pub mod campaigns {
    use super::*;
    use crate::view::{check_guarantees, Heading, Metric, Table, View};
    use ziv_common::config::DirRatio;
    use ziv_core::prefetch::PrefetchConfig;
    use ziv_sim::{CharConfig, DirectoryMode, GridResult};
    use ziv_workloads::MtApp;
    use LlcMode::{Inclusive, NonInclusive, Ziv};
    use PolicyKind::{Hawkeye, Lru};
    use ZivProperty::*;

    /// A campaign's two axes: specs (spec 0 is the baseline) and
    /// workload recipes.
    type Grid = (Vec<RunSpec>, Vec<Recipe>);

    /// One registry entry: an experiment's grid and the tables it
    /// prints.
    #[derive(Debug)]
    pub struct Entry {
        /// Registry name (`zivsim campaign <name>`).
        pub name: &'static str,
        /// One-line description for listings.
        pub description: &'static str,
        grid: fn(&CampaignParams) -> Grid,
        /// What printing the entry shows, in order.
        pub views: &'static [View],
    }

    impl Entry {
        /// Builds the entry's campaign from `params`. Every entry
        /// normalises to its first spec.
        pub fn build(&self, params: &CampaignParams) -> Campaign {
            let (specs, recipes) = (self.grid)(params);
            Campaign {
                name: self.name.into(),
                description: self.description.into(),
                specs,
                recipes,
                baseline_spec: 0,
            }
        }

        /// Whether the entry reproduces a paper figure, ablation or
        /// extension: its views print under paper headings.
        pub fn is_figure(&self) -> bool {
            self.views.iter().all(|v| v.heading.is_some())
        }

        /// Writes every view of the entry over `grid` (the results of
        /// `campaign`'s cells) to `out`, then checks the exact-zero
        /// guarantees every cell must hold ([`check_guarantees`]): a ZIV
        /// cell has no inclusion victim and never takes the defensive
        /// fallback, a non-inclusive cell has no inclusion victim, and a
        /// ZeroDEV cell has no directory back-invalidation.
        ///
        /// # Errors
        ///
        /// Names every cell that broke a guarantee, one line each.
        pub fn report(
            &self,
            campaign: &Campaign,
            grid: &[GridResult],
            out: &mut String,
        ) -> Result<(), String> {
            for view in self.views {
                out.push_str(&view.render(campaign, grid));
                out.push('\n');
            }
            let cells = grid
                .iter()
                .map(|c| (&campaign.specs[c.spec_index], &c.result));
            check_guarantees(cells).map_err(|e| format!("campaign '{}': {e}", campaign.name))
        }
    }

    /// The entry named `name`.
    pub fn entry(name: &str) -> Option<&'static Entry> {
        ENTRIES.iter().find(|e| e.name == name)
    }

    /// Builds the named campaign from `params`, or `None` for an
    /// unknown name.
    pub fn by_name(name: &str, params: &CampaignParams) -> Option<Campaign> {
        entry(name).map(|e| e.build(params))
    }

    /// The bare speedup table the non-figure grids print.
    const SPEEDUP: View = View {
        heading: None,
        table: Table::Speedup("speedup"),
    };

    const fn view(heading: Heading, table: Table) -> View {
        View {
            heading: Some(heading),
            table,
        }
    }

    const fn fig(
        figure: &'static str,
        title: &'static str,
        expectation: &'static str,
        table: Table,
    ) -> View {
        view(heading(figure, title, expectation), table)
    }

    const fn heading(
        figure: &'static str,
        title: &'static str,
        expectation: &'static str,
    ) -> Heading {
        Heading {
            figure,
            title,
            expectation,
        }
    }

    const FIG10: Heading = heading(
        "Fig 10",
        "normalized LLC and L2 misses, LRU baseline",
        "QBS/SHARP/ZIV save nearly the same L2 misses as NI; \
         ZIV-LikelyDead saves the most LLC misses",
    );
    const FIG13: Heading = heading(
        "Fig 13",
        "normalized LLC and L2 misses, Hawkeye baseline",
        "LLC-miss trends follow the Fig 11 performance trends; the L2 \
         panel matches the LRU case",
    );
    const FIG16: &str = "canneal/facesim/vips barely sensitive to inclusion victims; \
                         applu and TPC-E favor ZIV-LikelyDead (>= NI)";
    const QBS_DEPTH: Heading = heading(
        "Ablation: QBS query depth",
        "QBS with 1/2/4/8/16 queries vs full-set QBS @ 512KB L2 (LRU)",
        "shallow query depths degenerate toward the inclusive baseline \
         (more inclusion victims); depth 16 == full QBS on a 16-way LLC",
    );
    const PREFETCH: Heading = heading(
        "Extension: prefetching x inclusion",
        "I / NI / ZIV-LikelyDead with and without a stride prefetcher @ 512KB",
        "prefetch fills raise LLC pressure and inclusion-victim volume in \
         the inclusive baseline; the ZIV design absorbs the pressure with \
         relocations and keeps its guarantee",
    );
    const RELATED: Heading = heading(
        "Extension: related-design landscape",
        "every discussed design @ 512KB L2, LRU baseline",
        "only NI and the ZIV designs are inclusion-victim-free by \
         construction (NI by giving up inclusion; ZIV while keeping it); \
         TLH/ECI/QBS/SHARP/CHARonBase/RIC reduce victims without a \
         guarantee; partitioning trades capacity for isolation",
    );

    /// Every built-in campaign, in listing order.
    pub static ENTRIES: &[Entry] = &[
        Entry {
            name: "smoke",
            description: "2-config × 2-workload sanity sweep (I-LRU vs ZIV-LikelyDead)",
            grid: smoke,
            views: &[SPEEDUP],
        },
        Entry {
            name: "fig01-incl-vs-nonincl",
            description: "Figs 1, 3, 4: inclusive vs non-inclusive LLC under LRU/Hawkeye \
                          across L2 sizes (speedup, LLC and L2 misses)",
            grid: fig01,
            views: &[
                fig(
                    "Fig 1",
                    "inclusive (I) vs non-inclusive (NI) x {LRU, Hawkeye} x L2 capacity",
                    "NI > I at every point; the gap grows with Hawkeye and with L2 size; \
                     I degrades slowly as L2 grows while NI improves",
                    Table::Speedup("speedup"),
                ),
                fig(
                    "Fig 3",
                    "normalized LLC miss counts (I/NI x LRU/Hawkeye x L2 capacity)",
                    "NI misses decrease slightly with L2 capacity; inclusive Hawkeye \
                     loses its advantage to inclusion victims",
                    Table::Normalized(Metric::LlcMisses),
                ),
                fig(
                    "Fig 4",
                    "normalized L2 miss counts (I/NI x LRU/Hawkeye x L2 capacity)",
                    "NI-LRU == NI-Hawkeye (policy-independent); I variants are higher, \
                     tracking inclusion-victim volume; misses drop as L2 grows",
                    Table::Normalized(Metric::L2Misses),
                ),
            ],
        },
        Entry {
            name: "fig02-inclusion-victims",
            description: "Fig 2: inclusive LLC inclusion-victim counts under \
                          LRU/Hawkeye/MIN across L2 sizes",
            grid: fig02,
            views: &[fig(
                "Fig 2",
                "normalized inclusion-victim counts (I-LRU, I-Hawkeye, I-MIN)",
                "Hawkeye and MIN generate far more inclusion victims than LRU at \
                 every L2 capacity; counts grow with L2 capacity",
                Table::Normalized(Metric::InclusionVictims),
            )],
        },
        Entry {
            name: "fig08-lru-perf",
            description: "Figs 8, 9, 10: multiprogrammed performance, LRU baseline: \
                          I/NI/QBS/SHARP/ZIV×3 across L2 sizes",
            grid: fig08,
            views: &[
                fig(
                    "Fig 8",
                    "multiprogrammed performance, LRU baseline (I, NI, QBS, SHARP, ZIV x3)",
                    "QBS/SHARP close to NI at 256KB but do not scale with L2 capacity; \
                     ZIV-LikelyDead best across the board, meeting or beating NI at \
                     256/512KB; ZIV guarantees zero inclusion victims",
                    Table::Speedup("speedup"),
                ),
                fig(
                    "Fig 9",
                    "per-mix speedup, ZIV-LikelyDead @ 512KB L2 (LRU baseline)",
                    "heterogeneous mixes benefit more than homogeneous ones; a modest \
                     fraction of LLC misses requires relocation",
                    Table::PerMix {
                        baseline: "I-LRU 512KB",
                        design: "ZIV-LikelyDead-LRU 512KB",
                    },
                ),
                view(FIG10, Table::Normalized(Metric::LlcMisses)),
                view(FIG10, Table::Normalized(Metric::L2Misses)),
            ],
        },
        Entry {
            name: "fig11-hawkeye-perf",
            description: "Figs 11, 12, 13: multiprogrammed performance, Hawkeye baseline: \
                          I/NI/QBS/SHARP/ZIV×2 across L2 sizes",
            grid: fig11,
            views: &[
                fig(
                    "Fig 11",
                    "multiprogrammed performance, Hawkeye baseline",
                    "MRLikelyDead best of the inclusive designs, close to NI at \
                     256/512KB but never beating it (unlike the LRU case); \
                     I-Hawkeye crippled by inclusion victims",
                    Table::Speedup("speedup"),
                ),
                fig(
                    "Fig 12",
                    "per-mix speedup, ZIV-MRLikelyDead @ 512KB L2 (Hawkeye baseline)",
                    "broad gains over the inclusive Hawkeye baseline; heterogeneous \
                     mixes benefit most",
                    Table::PerMix {
                        baseline: "I-Hawkeye 512KB",
                        design: "ZIV-MRLikelyDead-Hawkeye 512KB",
                    },
                ),
                view(FIG13, Table::Normalized(Metric::LlcMisses)),
                view(FIG13, Table::Normalized(Metric::L2Misses)),
            ],
        },
        Entry {
            name: "fig14-llc-capacity",
            description: "Fig 14: 16MB LLC with 1MB per-core L2, LRU and Hawkeye groups",
            grid: fig14,
            views: &[fig(
                "Fig 14",
                "16MB LLC + 1MB per-core L2 sensitivity",
                "LRU group: ZIV-LikelyDead continues to surpass NI; Hawkeye group: \
                 MRNotInPrC / MRLikelyDead close to NI",
                Table::Speedup("speedup"),
            )],
        },
        Entry {
            name: "fig15-sparse-dir",
            description: "Fig 15: sparse-directory size sweep, MESI vs ZeroDEV \
                          (Hawkeye, 256KB L2)",
            grid: fig15,
            views: &[fig(
                "Fig 15",
                "sparse-directory size sweep, MESI vs ZeroDEV (Hawkeye, 256KB L2)",
                "under MESI all designs degrade as the directory shrinks (NI loses \
                 its lead to directory back-invalidations; ZIV tracks NI); under \
                 ZeroDEV performance is nearly invariant",
                Table::Speedup("speedup vs I-2x-MESI"),
            )],
        },
        Entry {
            name: "fig16-mt-lru",
            description: "Fig 16: multithreaded PARSEC/OMP performance, LRU baseline",
            grid: fig16_mt,
            views: &[fig(
                "Fig 16",
                "multithreaded performance, LRU baseline",
                FIG16,
                Table::RuntimeMatrix,
            )],
        },
        Entry {
            name: "fig16-tpce-lru",
            description: "Fig 16: TPC-E on the 128-core server, LRU baseline",
            grid: fig16_tpce,
            views: &[fig(
                "Fig 16",
                "multithreaded performance, LRU baseline (TPC-E, 128 cores)",
                FIG16,
                Table::RuntimeMatrix,
            )],
        },
        Entry {
            name: "fig17-mt-hawkeye",
            description: "Fig 17: multithreaded performance, Hawkeye baseline \
                          (normalized to I-LRU)",
            grid: fig17,
            views: &[fig(
                "Fig 17",
                "multithreaded performance, Hawkeye baseline (normalized to I-LRU)",
                "both ZIV designs close to NI; QBS/SHARP lose on facesim/vips by \
                 sacrificing LLC reuses to avoid (harmless) inclusion victims",
                Table::RuntimeMatrix,
            )],
        },
        Entry {
            name: "fig18-reloc-intervals",
            description: "Fig 18: CDF of relocation intervals for three ZIV designs \
                          (512KB L2)",
            grid: fig18,
            views: &[fig(
                "Fig 18",
                "CDF of relocation intervals (512KB L2)",
                "a vanishing fraction of intervals is under 5 cycles (the nextRS \
                 logic latency of 3 cycles is covered); the Hawkeye-side designs \
                 have a knee far to the left of LikelyDead (more frequent \
                 relocations)",
                Table::RelocationCdf,
            )],
        },
        Entry {
            name: "fig19-reloc-energy",
            description: "Fig 19: relocation energy per instruction against the \
                          inclusive LLC's EPI",
            grid: fig19,
            views: &[fig(
                "Fig 19",
                "relocation contribution to EPI (pJ/instruction)",
                "EPI contribution grows with L2 capacity (more relocations); the \
                 Hawkeye-side design spends more; the cost stays small against \
                 the DRAM EPI saved",
                Table::RelocationEnergy,
            )],
        },
        Entry {
            name: "ablation-properties",
            description: "ablation: all five relocation-set properties @ 512KB L2",
            grid: ablation_properties,
            views: &[fig(
                "Ablation: ZIV properties",
                "all five relocation-set properties @ 512KB L2",
                "richer properties (LikelyDead / MRLikelyDead) beat plain NotInPrC; \
                 graded properties sit in between",
                Table::Speedup("speedup vs I-LRU 512KB"),
            )],
        },
        Entry {
            name: "ablation-qbs-depth",
            description: "ablation: QBS bounded to 1-16 queries vs full-set QBS @ 512KB L2",
            grid: ablation_qbs_depth,
            views: &[
                view(QBS_DEPTH, Table::Speedup("speedup vs I-LRU 512KB")),
                view(QBS_DEPTH, Table::Normalized(Metric::InclusionVictims)),
            ],
        },
        Entry {
            name: "ablation-char-threshold",
            description: "ablation: static CHAR dead-block thresholds vs the dynamic one",
            grid: ablation_char_threshold,
            views: &[fig(
                "Ablation: CHAR threshold",
                "static d in {1, 3, 6} vs the paper's dynamic d (ZIV-LikelyDead @ 512KB)",
                "a loose threshold (d=1) over-declares dead blocks; a tight one \
                 (d=6) starves the LikelyDead PV; dynamic adaptation tracks demand",
                Table::Speedup("speedup vs I-LRU 512KB"),
            )],
        },
        Entry {
            name: "ablation-rrpv-policies",
            description: "ablation: ZIV-MRNotInPrC over SRRIP/DRRIP/SHiP/Hawkeye @ 512KB",
            grid: ablation_rrpv_policies,
            views: &[fig(
                "Ablation: RRPV policy family",
                "ZIV-MaxRRPVNotInPrC over SRRIP / DRRIP / SHiP / Hawkeye @ 512KB",
                "the ZIV guarantee and mechanism are policy-agnostic; better \
                 baselines carry their advantage into the ZIV design",
                Table::Speedup("speedup vs I-LRU 512KB"),
            )],
        },
        Entry {
            name: "ext-oracle-relocation",
            description: "extension: ZIV with MIN-oracle relocation victims @ 512KB",
            grid: ext_oracle_relocation,
            views: &[fig(
                "Extension: oracle relocation victims",
                "ZIV + MIN oracle vs the practical ZIV properties @ 512KB (Section VI)",
                "the oracle bounds how much better relocation-victim selection \
                 could get; the LikelyDead heuristic should close part of the gap \
                 from plain NotInPrC",
                Table::Speedup("speedup vs I-LRU 512KB"),
            )],
        },
        Entry {
            name: "ext-prefetch",
            description: "extension: I/NI/ZIV with and without a stride prefetcher @ 512KB",
            grid: ext_prefetch,
            views: &[
                view(PREFETCH, Table::Speedup("speedup vs I (no PF)")),
                view(PREFETCH, Table::Normalized(Metric::InclusionVictimsPlusOne)),
            ],
        },
        Entry {
            name: "ext-related-designs",
            description: "extension: every related design the paper discusses @ 512KB, LRU",
            grid: ext_related_designs,
            views: &[
                view(RELATED, Table::Speedup("speedup vs I-LRU 512KB")),
                view(RELATED, Table::Normalized(Metric::InclusionVictimsPlusOne)),
            ],
        },
        Entry {
            name: "attack-eval",
            description: "side-channel leakage: prime+probe and hammer attackers vs \
                          I/QBS/SHARP/ZIV defenses",
            grid: attack_eval,
            views: &[SPEEDUP],
        },
        Entry {
            name: "soak",
            description: "chaos-soak grid: mixed LLC modes × 3 workloads, the substrate \
                          `zivsim soak` injects faults into",
            grid: soak,
            views: &[SPEEDUP],
        },
    ];

    /// The 256 KB-class machine's capacities: every multiprogrammed
    /// footprint is sized against it, so the *same recipes* (and so the
    /// same cached cells) drive every configuration of an L2-capacity
    /// sweep, as the paper's fixed SimPoint traces do.
    fn scale_256() -> ScaleParams {
        ScaleParams::from_system(&SystemConfig::scaled_with_l2(L2Size::K256))
    }

    /// Every homogeneous mix plus the effort's heterogeneous mixes.
    fn mp_recipes(params: &CampaignParams) -> Vec<Recipe> {
        Recipe::default_suite(
            params.effort.hetero_mixes,
            params.cores,
            params.effort.accesses_per_core,
            params.seed,
            scale_256(),
        )
    }

    fn homogeneous(params: &CampaignParams, app: &str, accesses: usize) -> Recipe {
        let app = apps::app_by_name(app).expect("known app");
        Recipe::homogeneous(app, params.cores, accesses, params.seed, scale_256())
    }

    /// A spec labeled the way the paper's figures are (`"I-LRU 256KB"`).
    fn figure_spec(mode: LlcMode, policy: PolicyKind, l2: L2Size) -> RunSpec {
        let label = format!("{}-{} {}", mode.label(), policy.label(), l2.label());
        RunSpec::new(label, SystemConfig::scaled_with_l2(l2))
            .with_mode(mode)
            .with_policy(policy)
    }

    /// `figure_spec` at the 512 KB L2 point of the ablations.
    fn at_512k(mode: LlcMode, policy: PolicyKind) -> RunSpec {
        figure_spec(mode, policy, L2Size::K512)
    }

    /// The multithreaded figures first ran on their own seeds, 7 for
    /// the PARSEC/OMP set and 9 for TPC-E. Folding the campaign seed in
    /// as `seed ^ 0x2026 ^ own` keeps those traces (and their cached
    /// cells) at the default seed `0x2026`, while `--seed` still moves
    /// them as it moves every other entry.
    fn mt_seed(params: &CampaignParams, own: u64) -> u64 {
        params.seed ^ 0x2026 ^ own
    }

    /// The PARSEC/OMP applications of Figs 16 and 17 on the 512KB-class
    /// machine.
    fn parsec_recipes(params: &CampaignParams) -> Vec<Recipe> {
        let sys = SystemConfig::scaled_with_l2(L2Size::K512);
        [MtApp::Canneal, MtApp::Facesim, MtApp::Vips, MtApp::Applu]
            .map(|app| {
                Recipe::multithreaded(
                    app,
                    params.cores,
                    params.effort.mt_accesses_per_core,
                    mt_seed(params, 7),
                    ScaleParams::from_system(&sys),
                )
            })
            .to_vec()
    }

    /// The LRU-side designs of Fig 16, labeled by mode alone.
    fn fig16_specs(sys: &SystemConfig) -> Vec<RunSpec> {
        [
            Inclusive,
            NonInclusive,
            LlcMode::Qbs,
            LlcMode::Sharp,
            Ziv(NotInPrC),
            Ziv(LikelyDead),
        ]
        .map(|mode| {
            RunSpec::new(mode.label(), sys.clone())
                .with_mode(mode)
                .with_policy(Lru)
        })
        .to_vec()
    }

    fn smoke(params: &CampaignParams) -> Grid {
        let accesses = (params.effort.accesses_per_core / 10).max(500);
        let recipes = vec![
            homogeneous(params, "circset", accesses),
            homogeneous(params, "hotl2", accesses),
        ];
        let specs = vec![
            figure_spec(Inclusive, Lru, L2Size::K256),
            figure_spec(Ziv(LikelyDead), Lru, L2Size::K256),
        ];
        (specs, recipes)
    }

    fn fig01(params: &CampaignParams) -> Grid {
        let mut specs = Vec::new();
        for policy in [Lru, Hawkeye] {
            for l2 in L2Size::TABLE1 {
                for mode in [Inclusive, NonInclusive] {
                    specs.push(figure_spec(mode, policy, l2));
                }
            }
        }
        (specs, mp_recipes(params))
    }

    fn fig02(params: &CampaignParams) -> Grid {
        let mut specs = Vec::new();
        for policy in [Lru, Hawkeye, PolicyKind::Min] {
            for l2 in L2Size::TABLE1 {
                specs.push(figure_spec(Inclusive, policy, l2));
            }
        }
        (specs, mp_recipes(params))
    }

    fn fig08(params: &CampaignParams) -> Grid {
        let modes = [
            Inclusive,
            NonInclusive,
            LlcMode::Qbs,
            LlcMode::Sharp,
            Ziv(NotInPrC),
            Ziv(LruNotInPrC),
            Ziv(LikelyDead),
        ];
        let mut specs = Vec::new();
        for l2 in L2Size::TABLE1 {
            for mode in modes {
                specs.push(figure_spec(mode, Lru, l2));
            }
        }
        (specs, mp_recipes(params))
    }

    fn fig11(params: &CampaignParams) -> Grid {
        let modes = [
            Inclusive,
            NonInclusive,
            LlcMode::Qbs,
            LlcMode::Sharp,
            Ziv(MaxRrpvNotInPrC),
            Ziv(MaxRrpvLikelyDead),
        ];
        // The normalization baseline is I-LRU 256KB, as in every paper
        // figure.
        let mut specs = vec![figure_spec(Inclusive, Lru, L2Size::K256)];
        for l2 in L2Size::TABLE1 {
            for mode in modes {
                specs.push(figure_spec(mode, Hawkeye, l2));
            }
        }
        (specs, mp_recipes(params))
    }

    fn fig14(params: &CampaignParams) -> Grid {
        // Against the 8MB-class I-LRU 256KB baseline.
        let mut specs = vec![figure_spec(Inclusive, Lru, L2Size::K256)];
        for (mode, policy) in [
            (Inclusive, Lru),
            (NonInclusive, Lru),
            (Ziv(LikelyDead), Lru),
            (Inclusive, Hawkeye),
            (NonInclusive, Hawkeye),
            (Ziv(MaxRrpvNotInPrC), Hawkeye),
            (Ziv(MaxRrpvLikelyDead), Hawkeye),
        ] {
            let label = format!("{}-{} 16MB/1MB", mode.label(), policy.label());
            specs.push(
                RunSpec::new(label, SystemConfig::big_llc(8))
                    .with_mode(mode)
                    .with_policy(policy),
            );
        }
        (specs, mp_recipes(params))
    }

    /// Fig 15's 24 configurations run on a compact suite: homogeneous
    /// mixes of the four most contention-sensitive applications plus
    /// two heterogeneous mixes.
    fn fig15(params: &CampaignParams) -> Grid {
        let accesses = params.effort.accesses_per_core;
        let mut recipes: Vec<Recipe> = ["circset", "hotl2big", "zipfdb", "scanphase"]
            .into_iter()
            .map(|app| homogeneous(params, app, accesses))
            .collect();
        recipes.extend(
            (0..2).map(|i| {
                Recipe::heterogeneous(i, params.cores, accesses, params.seed, scale_256())
            }),
        );
        let mut specs = Vec::new();
        for dir_mode in [DirectoryMode::Mesi, DirectoryMode::ZeroDev] {
            for ratio in DirRatio::SWEEP {
                for (name, mode) in [
                    ("I", Inclusive),
                    ("NI", NonInclusive),
                    ("ZIV-MRLikelyDead", Ziv(MaxRrpvLikelyDead)),
                ] {
                    let label = format!("{name} {} {dir_mode:?}", ratio.label());
                    let sys = SystemConfig::scaled_with_l2(L2Size::K256).with_dir_ratio(ratio);
                    specs.push(
                        RunSpec::new(label, sys)
                            .with_mode(mode)
                            .with_policy(Hawkeye)
                            .with_dir_mode(dir_mode),
                    );
                }
            }
        }
        (specs, recipes)
    }

    fn fig16_mt(params: &CampaignParams) -> Grid {
        let specs = fig16_specs(&SystemConfig::scaled_with_l2(L2Size::K512));
        (specs, parsec_recipes(params))
    }

    /// TPC-E needs the 128-core server, so it is its own grid: a
    /// campaign is a full cross product of specs and recipes.
    fn fig16_tpce(params: &CampaignParams) -> Grid {
        let server = SystemConfig::server_128(8);
        let tpce = Recipe::multithreaded(
            MtApp::Tpce,
            128,
            params.effort.tpce_accesses_per_core,
            mt_seed(params, 9),
            ScaleParams::from_system(&server),
        );
        (fig16_specs(&server), vec![tpce])
    }

    fn fig17(params: &CampaignParams) -> Grid {
        let sys = SystemConfig::scaled_with_l2(L2Size::K512);
        // Spec 0: the I-LRU normalization baseline.
        let mut specs = vec![RunSpec::new("I-LRU", sys.clone()).with_mode(Inclusive)];
        for (name, mode) in [
            ("I-Hawkeye", Inclusive),
            ("NI-Hawkeye", NonInclusive),
            ("QBS-Hawkeye", LlcMode::Qbs),
            ("SHARP-Hawkeye", LlcMode::Sharp),
            ("ZIV-MRNotInPrC", Ziv(MaxRrpvNotInPrC)),
            ("ZIV-MRLikelyDead", Ziv(MaxRrpvLikelyDead)),
        ] {
            specs.push(
                RunSpec::new(name, sys.clone())
                    .with_mode(mode)
                    .with_policy(Hawkeye),
            );
        }
        (specs, parsec_recipes(params))
    }

    fn fig18(params: &CampaignParams) -> Grid {
        let specs = vec![
            at_512k(Ziv(LikelyDead), Lru),
            at_512k(Ziv(MaxRrpvNotInPrC), Hawkeye),
            at_512k(Ziv(MaxRrpvLikelyDead), Hawkeye),
        ];
        (specs, mp_recipes(params))
    }

    fn fig19(params: &CampaignParams) -> Grid {
        let mut specs = Vec::new();
        for l2 in L2Size::TABLE1 {
            // Each ZIV design, then the inclusive LLC it saves energy
            // against (same L2 point, same policy).
            for (mode, policy) in [
                (Ziv(LikelyDead), Lru),
                (Ziv(MaxRrpvLikelyDead), Hawkeye),
                (Inclusive, Lru),
                (Inclusive, Hawkeye),
            ] {
                specs.push(figure_spec(mode, policy, l2));
            }
        }
        (specs, mp_recipes(params))
    }

    /// Relocation-set property quality, the paper's "primary
    /// performance determinant of the ZIV LLC design" (Section III-G):
    /// every variant is inclusion-victim-free; only victim quality
    /// differs.
    fn ablation_properties(params: &CampaignParams) -> Grid {
        let mut specs = vec![at_512k(Inclusive, Lru)];
        specs.extend([NotInPrC, LruNotInPrC, LikelyDead].map(|p| at_512k(Ziv(p), Lru)));
        // The same NotInPrC/LikelyDead properties under Hawkeye, plus
        // the RRPV-graded ones.
        specs.extend(
            [NotInPrC, LikelyDead, MaxRrpvNotInPrC, MaxRrpvLikelyDead]
                .map(|p| at_512k(Ziv(p), Hawkeye)),
        );
        (specs, mp_recipes(params))
    }

    /// The paper's QBS queries candidates until one is not privately
    /// cached (up to the whole set); this bounds the number of queries.
    fn ablation_qbs_depth(params: &CampaignParams) -> Grid {
        let mut specs = vec![at_512k(Inclusive, Lru)];
        specs.extend([1u8, 2, 4, 8, 16].map(|n| at_512k(LlcMode::QbsBounded(n), Lru)));
        specs.push(at_512k(LlcMode::Qbs, Lru));
        (specs, mp_recipes(params))
    }

    /// The paper adapts CHAR's dead-block threshold d (tau = 1/2^d)
    /// dynamically; this pins d to static values.
    fn ablation_char_threshold(params: &CampaignParams) -> Grid {
        let likely_dead = |label: String| {
            let mut spec = at_512k(Ziv(LikelyDead), Lru);
            spec.label = label;
            spec
        };
        let mut specs = vec![at_512k(Inclusive, Lru)];
        for d in [1u8, 3, 6] {
            let fixed = CharConfig {
                init_d: d,
                min_d: d,
                decrement_interval: u64::MAX,
                reset_interval: u64::MAX,
                ..CharConfig::default()
            };
            specs.push(likely_dead(format!("ZIV-LikelyDead d={d} (static)")).with_char(fixed));
        }
        specs.push(likely_dead("ZIV-LikelyDead dynamic d".into()));
        (specs, mp_recipes(params))
    }

    /// The paper notes (Section III-D5) that `MaxRRPVNotInPrC` also
    /// serves other RRPV-grading policies; this runs it over the whole
    /// family.
    fn ablation_rrpv_policies(params: &CampaignParams) -> Grid {
        let mut specs = vec![at_512k(Inclusive, Lru)];
        for policy in [
            PolicyKind::Srrip,
            PolicyKind::Drrip,
            PolicyKind::Ship,
            Hawkeye,
        ] {
            specs.push(at_512k(Inclusive, policy));
            specs.push(at_512k(Ziv(MaxRrpvNotInPrC), policy));
        }
        (specs, mp_recipes(params))
    }

    /// Section VI's future work, the optimal relocation victim among
    /// the blocks no private cache holds: ZIV over the MIN oracle scans
    /// MIN's eviction keys, so its NotInPrC victim is the one reused
    /// furthest in the future.
    fn ext_oracle_relocation(params: &CampaignParams) -> Grid {
        let specs = [
            (Inclusive, Lru),
            (NonInclusive, Lru),
            (Ziv(NotInPrC), Lru),
            (Ziv(LikelyDead), Lru),
            // The oracle: baseline MIN + NotInPrC relocation = optimal
            // victims both in the home set and in relocation sets.
            (Ziv(NotInPrC), PolicyKind::Min),
            (Inclusive, PolicyKind::Min),
        ]
        .map(|(mode, policy)| at_512k(mode, policy))
        .to_vec();
        (specs, mp_recipes(params))
    }

    /// Prefetching × inclusion (the paper's reference \[1\], studied in
    /// Section II): a stride prefetcher raises LLC fill pressure.
    fn ext_prefetch(params: &CampaignParams) -> Grid {
        let mut specs = Vec::new();
        for (prefetch, tag) in [(None, ""), (Some(PrefetchConfig::default()), "+PF")] {
            for (name, mode) in [
                ("I", Inclusive),
                ("NI", NonInclusive),
                ("ZIV-LikelyDead", Ziv(LikelyDead)),
            ] {
                let mut spec = at_512k(mode, Lru);
                spec.label = format!("{name}{tag} 512KB");
                if let Some(p) = prefetch {
                    spec = spec.with_prefetch(p);
                }
                specs.push(spec);
            }
        }
        (specs, mp_recipes(params))
    }

    /// Every design the paper's Sections I/II discuss, on one table.
    fn ext_related_designs(params: &CampaignParams) -> Grid {
        let specs = [
            Inclusive,
            NonInclusive,
            LlcMode::Tlh { hint_one_in: 8 },
            LlcMode::Eci,
            LlcMode::Qbs,
            LlcMode::Sharp,
            LlcMode::CharOnBase,
            LlcMode::Ric,
            LlcMode::WayPartitioned,
            Ziv(NotInPrC),
            Ziv(LikelyDead),
        ]
        .map(|mode| at_512k(mode, Lru))
        .to_vec();
        (specs, mp_recipes(params))
    }

    /// The security-evaluation grid: each attack scenario (prime+probe
    /// eviction-set attacker, targeted back-invalidation hammer) runs
    /// against the inclusive baseline and the QBS / SHARP / ZIV
    /// defenses. The runner's leakage observatory turns every cell into
    /// one `leakage.csv` row; the zero-inclusion-victim modes must show
    /// exactly zero attacker-observable victim evictions.
    fn attack_eval(params: &CampaignParams) -> Grid {
        // Probe enough sets for a clear signal without the prime/probe
        // passes dwarfing the victim's own accesses.
        let target_sets = 8;
        let recipes = [
            AttackRecipe::prime_probe(target_sets),
            AttackRecipe::hammer(target_sets),
        ]
        .map(|attack| {
            Recipe::attack(
                attack,
                params.cores,
                params.effort.accesses_per_core,
                params.seed,
                scale_256(),
            )
        })
        .to_vec();
        let specs = [
            Inclusive,
            LlcMode::Qbs,
            LlcMode::Sharp,
            Ziv(NotInPrC),
            Ziv(LikelyDead),
        ]
        .map(|mode| figure_spec(mode, Lru, L2Size::K256))
        .to_vec();
        (specs, recipes)
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
    fn soak(params: &CampaignParams) -> Grid {
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
                    scale_256(),
                )
            })
            .collect();
        let specs = vec![
            figure_spec(Inclusive, Lru, L2Size::K256),
            figure_spec(Inclusive, Hawkeye, L2Size::K256),
            figure_spec(Inclusive, Lru, L2Size::M1),
            figure_spec(NonInclusive, Lru, L2Size::K256),
            figure_spec(LlcMode::Qbs, Lru, L2Size::K256),
            figure_spec(LlcMode::Sharp, Lru, L2Size::K256),
            figure_spec(Ziv(LikelyDead), Lru, L2Size::K256),
        ];
        (specs, recipes)
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
    /// with one deliberate fault armed on each of four specs, plus the
    /// plan of what went where. Deterministic per `params.seed` — the
    /// scheduler draws every trigger access and the fault→spec
    /// assignment from a splitmix64 stream, so two processes with the
    /// same seed soak the exact same chaos grid.
    ///
    /// Scheduling constraints the shuffle respects:
    ///
    /// - spec 0 (the baseline) and the last two specs stay healthy, so
    ///   the run always has fault-free rows to compare byte-for-byte
    ///   against the fault-free pass;
    /// - `skip-back-invalidation` is pinned to spec 1 (I-Hawkeye,
    ///   inclusive): it only fires on a real back-invalidation;
    /// - the other three injectors (`corrupt-directory`, `stall-core`,
    ///   `panic-core`) are shuffled across specs 2–4.
    pub fn soak_chaos(params: &CampaignParams) -> (Campaign, Vec<SoakFault>) {
        let mut campaign = by_name("soak", params).expect("soak is registered");
        let mut state = params.seed ^ 0xfa17_1417_c4a0_55ed;
        let mut draw = move || {
            // splitmix64.
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every entry's spec count and baseline label, in registry order.
    const SHAPES: &[(&str, usize, &str)] = &[
        ("smoke", 2, "I-LRU 256KB"),
        ("fig01-incl-vs-nonincl", 12, "I-LRU 256KB"),
        ("fig02-inclusion-victims", 9, "I-LRU 256KB"),
        ("fig08-lru-perf", 21, "I-LRU 256KB"),
        ("fig11-hawkeye-perf", 19, "I-LRU 256KB"),
        ("fig14-llc-capacity", 8, "I-LRU 256KB"),
        ("fig15-sparse-dir", 24, "I 2x Mesi"),
        ("fig16-mt-lru", 6, "I"),
        ("fig16-tpce-lru", 6, "I"),
        ("fig17-mt-hawkeye", 7, "I-LRU"),
        ("fig18-reloc-intervals", 3, "ZIV-LikelyDead-LRU 512KB"),
        ("fig19-reloc-energy", 12, "ZIV-LikelyDead-LRU 256KB"),
        ("ablation-properties", 8, "I-LRU 512KB"),
        ("ablation-qbs-depth", 7, "I-LRU 512KB"),
        ("ablation-char-threshold", 5, "I-LRU 512KB"),
        ("ablation-rrpv-policies", 9, "I-LRU 512KB"),
        ("ext-oracle-relocation", 6, "I-LRU 512KB"),
        ("ext-prefetch", 6, "I 512KB"),
        ("ext-related-designs", 11, "I-LRU 512KB"),
        ("attack-eval", 5, "I-LRU 256KB"),
        ("soak", 7, "I-LRU 256KB"),
    ];

    #[test]
    fn registry_builds_every_entry_in_its_shape() {
        let params = CampaignParams::tiny();
        let names: Vec<&str> = campaigns::ENTRIES.iter().map(|e| e.name).collect();
        let shaped: Vec<&str> = SHAPES.iter().map(|s| s.0).collect();
        assert_eq!(names, shaped, "every entry has a pinned shape");
        for &(name, specs, baseline) in SHAPES {
            let c = campaigns::by_name(name, &params).expect(name);
            assert_eq!(c.name, name);
            assert_eq!(c.specs.len(), specs, "{name} spec count");
            assert_eq!(c.specs[c.baseline_spec].label, baseline, "{name} baseline");
            assert!(!c.recipes.is_empty(), "{name} has no workloads");
            assert_eq!(c.cells().len(), c.total_cells());
            let labels: std::collections::HashSet<_> = c.specs.iter().map(|s| &s.label).collect();
            assert_eq!(labels.len(), specs, "{name} labels are distinct");
        }
        assert!(campaigns::by_name("nope", &params).is_none());
    }

    #[test]
    fn figure_entries_are_the_headed_ones() {
        for e in campaigns::ENTRIES {
            let bare = ["smoke", "attack-eval", "soak"].contains(&e.name);
            assert_eq!(e.is_figure(), !bare, "{}", e.name);
        }
    }

    #[test]
    fn figure_entries_share_cells_through_their_recipes() {
        let params = CampaignParams::tiny();
        let fig02 = campaigns::by_name("fig02-inclusion-victims", &params).unwrap();
        let fig08 = campaigns::by_name("fig08-lru-perf", &params).unwrap();
        // Same recipes in fig02 and fig08: shared cells share the cache.
        assert_eq!(fig02.recipes, fig08.recipes);
        assert_eq!(fig02.cell_digest(0, 0), fig08.cell_digest(0, 0));
    }

    #[test]
    fn multithreaded_entries_keep_their_seeds_at_the_default_seed() {
        let params = CampaignParams::tiny();
        let mt = campaigns::by_name("fig16-mt-lru", &params).unwrap();
        assert!(mt.recipes.iter().all(|r| r.seed == 7));
        let tpce = campaigns::by_name("fig16-tpce-lru", &params).unwrap();
        assert_eq!(tpce.recipes[0].seed, 9);
        assert_eq!(tpce.recipes[0].cores, 128);
        let other = CampaignParams { seed: 1, ..params };
        let moved = campaigns::by_name("fig17-mt-hawkeye", &other).unwrap();
        assert!(moved.recipes.iter().all(|r| r.seed != 7));
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
