//! Workload *recipes*: compact, semantically-hashable descriptions of
//! how to (re)generate a workload.
//!
//! The campaign harness (`ziv-harness`) addresses cached results by a
//! content digest. Hashing generated traces would cost a full
//! generation pass per lookup and would tie the digest to generator
//! internals; a recipe instead digests the *inputs* of generation
//! (generator kind, application, core count, length, seed, scale),
//! which fully determine the trace because every generator is seeded
//! and deterministic. Regenerating a workload from its recipe is
//! therefore exact, and two recipes with equal digests always build
//! byte-identical traces.

use crate::attack::AttackRecipe;
use crate::{apps, attack, mixes, multithreaded, ScaleParams, Workload};
use ziv_common::Fnv1a;

/// The multithreaded applications (PARSEC / SPEC OMP / TPC-E stand-ins).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MtApp {
    /// PARSEC canneal (pointer-chasing over a shared netlist).
    Canneal,
    /// PARSEC facesim (partitioned grids with halo sharing).
    Facesim,
    /// PARSEC vips (streaming image pipeline).
    Vips,
    /// SPEC OMP 316.applu (blocked dense solver).
    Applu,
    /// The 128-core TPC-E server trace stand-in.
    Tpce,
}

impl MtApp {
    /// All multithreaded applications.
    pub const ALL: [MtApp; 5] = [
        MtApp::Canneal,
        MtApp::Facesim,
        MtApp::Vips,
        MtApp::Applu,
        MtApp::Tpce,
    ];

    /// The CLI / recipe name.
    pub fn name(self) -> &'static str {
        match self {
            MtApp::Canneal => "canneal",
            MtApp::Facesim => "facesim",
            MtApp::Vips => "vips",
            MtApp::Applu => "applu",
            MtApp::Tpce => "tpce",
        }
    }

    /// Looks an application up by its CLI name.
    pub fn by_name(name: &str) -> Option<MtApp> {
        MtApp::ALL.into_iter().find(|a| a.name() == name)
    }
}

/// Which generator a recipe drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecipeKind {
    /// [`mixes::homogeneous`] of the named application.
    Homogeneous {
        /// Application name (must resolve via [`apps::app_by_name`]).
        app: &'static str,
    },
    /// [`mixes::heterogeneous`] with the given mix index.
    Heterogeneous {
        /// Index into the balanced mix rotation.
        mix_index: usize,
    },
    /// One of the [`multithreaded`] applications.
    Multithreaded {
        /// The application.
        app: MtApp,
    },
    /// An adversarial attacker/victim co-schedule ([`attack`]).
    Attack {
        /// Scenario and target-set count.
        attack: AttackRecipe,
    },
}

/// A complete, hashable workload description. `build()` regenerates
/// the workload deterministically; `digest_into()` feeds the semantic
/// fields (and nothing else) into a cell digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recipe {
    /// Generator selection.
    pub kind: RecipeKind,
    /// Number of cores the workload drives.
    pub cores: usize,
    /// Accesses generated per core.
    pub accesses_per_core: usize,
    /// Generator seed.
    pub seed: u64,
    /// Capacity parameters the footprints scale against.
    pub scale: ScaleParams,
}

impl Recipe {
    /// A homogeneous-mix recipe for `app`.
    pub fn homogeneous(
        app: apps::AppSpec,
        cores: usize,
        accesses_per_core: usize,
        seed: u64,
        scale: ScaleParams,
    ) -> Self {
        Recipe {
            kind: RecipeKind::Homogeneous { app: app.name },
            cores,
            accesses_per_core,
            seed,
            scale,
        }
    }

    /// A heterogeneous-mix recipe.
    pub fn heterogeneous(
        mix_index: usize,
        cores: usize,
        accesses_per_core: usize,
        seed: u64,
        scale: ScaleParams,
    ) -> Self {
        Recipe {
            kind: RecipeKind::Heterogeneous { mix_index },
            cores,
            accesses_per_core,
            seed,
            scale,
        }
    }

    /// A multithreaded-application recipe.
    pub fn multithreaded(
        app: MtApp,
        cores: usize,
        accesses_per_core: usize,
        seed: u64,
        scale: ScaleParams,
    ) -> Self {
        Recipe {
            kind: RecipeKind::Multithreaded { app },
            cores,
            accesses_per_core,
            seed,
            scale,
        }
    }

    /// An attack co-schedule recipe.
    pub fn attack(
        attack: AttackRecipe,
        cores: usize,
        accesses_per_core: usize,
        seed: u64,
        scale: ScaleParams,
    ) -> Self {
        Recipe {
            kind: RecipeKind::Attack { attack },
            cores,
            accesses_per_core,
            seed,
            scale,
        }
    }

    /// The standard multiprogrammed suite: every homogeneous mix
    /// ([`mixes::homogeneous`], one per application) plus `hetero`
    /// heterogeneous mixes ([`mixes::heterogeneous`]).
    pub fn default_suite(
        hetero: usize,
        cores: usize,
        accesses_per_core: usize,
        seed: u64,
        scale: ScaleParams,
    ) -> Vec<Recipe> {
        let mut suite: Vec<Recipe> = apps::APPS
            .iter()
            .map(|&a| Recipe::homogeneous(a, cores, accesses_per_core, seed, scale))
            .collect();
        suite.extend(
            (0..hetero).map(|i| Recipe::heterogeneous(i, cores, accesses_per_core, seed, scale)),
        );
        suite
    }

    /// Regenerates the workload this recipe describes.
    ///
    /// # Panics
    ///
    /// Panics if a homogeneous recipe names an unknown application
    /// (impossible for recipes built through the typed constructors).
    pub fn build(&self) -> Workload {
        let (cores, n, seed, scale) = (self.cores, self.accesses_per_core, self.seed, self.scale);
        match self.kind {
            RecipeKind::Homogeneous { app } => {
                let spec = apps::app_by_name(app)
                    .unwrap_or_else(|| panic!("unknown application '{app}' in recipe"));
                mixes::homogeneous(spec, cores, n, seed, scale)
            }
            RecipeKind::Heterogeneous { mix_index } => {
                mixes::heterogeneous(mix_index, cores, n, seed, scale)
            }
            RecipeKind::Multithreaded { app } => match app {
                MtApp::Canneal => multithreaded::canneal(cores, n, seed, scale),
                MtApp::Facesim => multithreaded::facesim(cores, n, seed, scale),
                MtApp::Vips => multithreaded::vips(cores, n, seed, scale),
                MtApp::Applu => multithreaded::applu(cores, n, seed, scale),
                MtApp::Tpce => multithreaded::tpce(cores, n, seed, scale),
            },
            RecipeKind::Attack { attack } => attack::generate(attack, cores, n, seed, scale),
        }
    }

    /// The name the built workload will carry (without generating it).
    pub fn workload_name(&self) -> String {
        match self.kind {
            RecipeKind::Homogeneous { app } => format!("homo-{app}"),
            RecipeKind::Heterogeneous { mix_index } => format!("hetero-{mix_index:02}"),
            RecipeKind::Multithreaded { app } => match app {
                MtApp::Applu => "316.applu".to_string(),
                MtApp::Tpce => "TPC-E".to_string(),
                other => other.name().to_string(),
            },
            RecipeKind::Attack { attack } => format!("attack-{}", attack.scenario.name()),
        }
    }

    /// Feeds the recipe's semantic fields into a cell digest. Stable
    /// across processes and thread counts: only explicit field values
    /// are written, never addresses or generated data.
    pub fn digest_into(&self, h: &mut Fnv1a) {
        match self.kind {
            RecipeKind::Homogeneous { app } => {
                h.write_u64(0);
                h.write_str(app);
            }
            RecipeKind::Heterogeneous { mix_index } => {
                h.write_u64(1);
                h.write_usize(mix_index);
            }
            RecipeKind::Multithreaded { app } => {
                h.write_u64(2);
                h.write_str(app.name());
            }
            RecipeKind::Attack { attack } => {
                h.write_u64(3);
                h.write_u64(attack.scenario.discriminant());
                h.write_u64(u64::from(attack.target_sets));
            }
        }
        h.write_usize(self.cores);
        h.write_usize(self.accesses_per_core);
        h.write_u64(self.seed);
        h.write_u64(self.scale.llc_lines);
        h.write_u64(self.scale.l2_lines);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scale() -> ScaleParams {
        ScaleParams {
            llc_lines: 16 * 1024,
            l2_lines: 512,
        }
    }

    #[test]
    fn build_matches_direct_generation() {
        let r = Recipe::homogeneous(apps::APPS[3], 2, 300, 7, scale());
        let direct = mixes::homogeneous(apps::APPS[3], 2, 300, 7, scale());
        let built = r.build();
        assert_eq!(built.name, direct.name);
        assert_eq!(built.name, r.workload_name());
        for (a, b) in built.traces.iter().zip(&direct.traces) {
            assert_eq!(a.records, b.records);
        }
    }

    #[test]
    fn workload_names_match_generators() {
        for (kind, n) in [
            (Recipe::heterogeneous(3, 2, 10, 1, scale()), "hetero-03"),
            (
                Recipe::multithreaded(MtApp::Applu, 2, 10, 1, scale()),
                "316.applu",
            ),
            (
                Recipe::multithreaded(MtApp::Tpce, 2, 10, 1, scale()),
                "TPC-E",
            ),
            (
                Recipe::multithreaded(MtApp::Canneal, 2, 10, 1, scale()),
                "canneal",
            ),
        ] {
            assert_eq!(kind.build().name, n);
            assert_eq!(kind.workload_name(), n);
        }
    }

    #[test]
    fn digest_separates_semantic_fields() {
        let base = Recipe::homogeneous(apps::APPS[0], 4, 100, 1, scale());
        let digest = |r: &Recipe| {
            let mut h = Fnv1a::new();
            r.digest_into(&mut h);
            h.finish()
        };
        let d0 = digest(&base);
        assert_eq!(d0, digest(&{ base }));
        for changed in [
            Recipe { cores: 8, ..base },
            Recipe {
                accesses_per_core: 101,
                ..base
            },
            Recipe { seed: 2, ..base },
            Recipe {
                scale: ScaleParams {
                    llc_lines: 8 * 1024,
                    l2_lines: 512,
                },
                ..base
            },
            Recipe::homogeneous(apps::APPS[1], 4, 100, 1, scale()),
            Recipe::heterogeneous(0, 4, 100, 1, scale()),
        ] {
            assert_ne!(d0, digest(&changed), "{changed:?}");
        }
    }

    #[test]
    fn attack_recipe_builds_and_digests_distinctly() {
        use crate::attack::AttackRecipe;
        let digest = |r: &Recipe| {
            let mut h = Fnv1a::new();
            r.digest_into(&mut h);
            h.finish()
        };
        let pp = Recipe::attack(AttackRecipe::prime_probe(8), 4, 200, 7, scale());
        let wl = pp.build();
        assert_eq!(wl.name, pp.workload_name());
        assert_eq!(wl.name, "attack-primeprobe");
        assert!(wl.attack.is_some(), "attack plan rides the workload");
        let hammer = Recipe::attack(AttackRecipe::hammer(8), 4, 200, 7, scale());
        assert_ne!(digest(&pp), digest(&hammer), "scenario is digested");
        let wider = Recipe::attack(AttackRecipe::prime_probe(16), 4, 200, 7, scale());
        assert_ne!(digest(&pp), digest(&wider), "target count is digested");
        // Same inputs → identical traces (determinism through the recipe).
        let a = pp.build();
        let b = pp.build();
        for (x, y) in a.traces.iter().zip(&b.traces) {
            assert_eq!(x.records, y.records);
        }
    }

    #[test]
    fn mt_app_name_round_trip() {
        for a in MtApp::ALL {
            assert_eq!(MtApp::by_name(a.name()), Some(a));
        }
        assert_eq!(MtApp::by_name("nope"), None);
    }

    #[test]
    fn default_suite_mirrors_mixes() {
        // Every homogeneous mix, one per application, then the
        // heterogeneous mixes in index order.
        let rs = Recipe::default_suite(3, 2, 50, 9, scale());
        let wls: Vec<Workload> = apps::APPS
            .iter()
            .map(|&a| mixes::homogeneous(a, 2, 50, 9, scale()))
            .chain((0..3).map(|i| mixes::heterogeneous(i, 2, 50, 9, scale())))
            .collect();
        assert_eq!(rs.len(), apps::APPS.len() + 3);
        assert_eq!(rs.len(), wls.len());
        for (r, w) in rs.iter().zip(&wls) {
            assert_eq!(r.workload_name(), w.name);
            for (a, b) in r.build().traces.iter().zip(&w.traces) {
                assert_eq!(a.records, b.records);
            }
        }
    }
}
