//! Run specifications (Send-able configuration data) and the grid cell
//! they produce.

use crate::driver::RunResult;
use ziv_common::config::SystemConfig;
use ziv_core::{FaultInjection, HierarchyConfig, LlcMode};
use ziv_directory::DirectoryMode;
use ziv_replacement::{PolicyKind, PrecomputedFuture};
use ziv_workloads::Workload;

/// A complete, thread-shippable description of one configuration.
/// (The non-Send pieces — the MIN oracle's shared future knowledge —
/// are constructed inside the worker thread.)
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Label used in figure output (e.g. `"I-Hawkeye"`).
    pub label: String,
    /// Machine configuration.
    pub system: SystemConfig,
    /// LLC mode.
    pub mode: LlcMode,
    /// Baseline replacement policy.
    pub policy: PolicyKind,
    /// Directory mode.
    pub dir_mode: DirectoryMode,
    /// Seed.
    pub seed: u64,
    /// CHAR tuning override (the dynamic-threshold ablation).
    pub char_cfg: Option<ziv_char::CharConfig>,
    /// Optional stride prefetching (the prefetch × inclusion extension).
    pub prefetch: Option<ziv_core::prefetch::PrefetchConfig>,
    /// Optional deliberate fault injection (mutation tests, campaign
    /// fault-isolation tests). Participates in the cell digest when set,
    /// so a faulted cell never aliases a healthy cached result.
    pub fault: Option<FaultInjection>,
}

impl RunSpec {
    /// A new spec with inclusive-LRU defaults.
    pub fn new(label: impl Into<String>, system: SystemConfig) -> Self {
        RunSpec {
            label: label.into(),
            system,
            mode: LlcMode::Inclusive,
            policy: PolicyKind::Lru,
            dir_mode: DirectoryMode::Mesi,
            seed: 0x5eed,
            char_cfg: None,
            prefetch: None,
            fault: None,
        }
    }

    /// Sets the LLC mode.
    pub fn with_mode(mut self, mode: LlcMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the replacement policy.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the directory mode.
    pub fn with_dir_mode(mut self, dir_mode: DirectoryMode) -> Self {
        self.dir_mode = dir_mode;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides CHAR tuning (the threshold ablation bench).
    pub fn with_char(mut self, char_cfg: ziv_char::CharConfig) -> Self {
        self.char_cfg = Some(char_cfg);
        self
    }

    /// Enables stride prefetching.
    pub fn with_prefetch(mut self, prefetch: ziv_core::prefetch::PrefetchConfig) -> Self {
        self.prefetch = Some(prefetch);
        self
    }

    /// Arms a deliberate fault (see [`FaultInjection`]).
    pub fn with_fault(mut self, fault: FaultInjection) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Feeds every simulation-determining field into a stable content
    /// digest — the campaign harness's cell addressing.
    ///
    /// The `label` is presentation-only and deliberately **excluded**:
    /// relabeling a configuration must not invalidate its cached
    /// results. Enum-valued fields (mode, policy, directory mode) and
    /// the optional CHAR/prefetch overrides are digested through their
    /// `Debug` renderings, which capture every variant and parameter;
    /// renaming a variant in source therefore invalidates the cache,
    /// which is the safe direction to fail in.
    pub fn digest_into(&self, h: &mut ziv_common::Fnv1a) {
        self.system.digest_into(h);
        h.write_str(&format!("{:?}", self.mode));
        h.write_str(&format!("{:?}", self.policy));
        h.write_str(&format!("{:?}", self.dir_mode));
        h.write_u64(self.seed);
        match &self.char_cfg {
            Some(cc) => h.write_str(&format!("{cc:?}")),
            None => h.write_u64(0),
        }
        match &self.prefetch {
            Some(pf) => h.write_str(&format!("{pf:?}")),
            None => h.write_u64(0),
        }
        // Appended after the original fields, and only when set: every
        // fault-free spec keeps the digest it had before fault injection
        // existed, so cached ledgers stay valid.
        if let Some(fault) = &self.fault {
            h.write_str(&format!("{fault:?}"));
        }
    }

    /// Builds the hierarchy configuration, constructing the MIN oracle's
    /// future knowledge from the workload when needed. The global stream
    /// position of record `i` of core `c` is `i × ncores + c` — the same
    /// policy-independent round-robin interleaving the driver passes to
    /// [`ziv_core::CacheHierarchy::access`] (the paper's footnote 2).
    pub fn build_hierarchy_config(&self, workload: &Workload) -> HierarchyConfig {
        let mut cfg = HierarchyConfig::new(self.system.clone())
            .with_mode(self.mode)
            .with_policy(self.policy)
            .with_dir_mode(self.dir_mode)
            .with_seed(self.seed);
        if let Some(cc) = self.char_cfg {
            cfg = cfg.with_char(cc);
        }
        if let Some(pf) = self.prefetch {
            cfg = cfg.with_prefetch(pf);
        }
        if let Some(fault) = self.fault {
            cfg = cfg.with_fault(fault);
        }
        if self.policy == PolicyKind::Min {
            let ncores = workload.cores() as u64;
            let stream = workload.traces.iter().enumerate().flat_map(|(c, t)| {
                t.records
                    .iter()
                    .enumerate()
                    .map(move |(i, r)| (i as u64 * ncores + c as u64, r.addr.line()))
            });
            cfg = cfg.with_future(std::rc::Rc::new(PrecomputedFuture::from_stream(stream)));
        }
        cfg
    }
}

/// One cell of an experiment grid: configuration × workload.
#[derive(Debug, Clone)]
pub struct GridResult {
    /// Index of the spec in the grid's spec list.
    pub spec_index: usize,
    /// Index of the workload in the grid's workload list.
    pub workload_index: usize,
    /// The run's results.
    pub result: RunResult,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_digest_ignores_label_but_not_semantics() {
        let sys = SystemConfig::scaled();
        let digest = |s: &RunSpec| {
            let mut h = ziv_common::Fnv1a::new();
            s.digest_into(&mut h);
            h.finish()
        };
        let a = RunSpec::new("one label", sys.clone());
        let b = RunSpec::new("another label", sys.clone());
        assert_eq!(digest(&a), digest(&b), "label must not affect the digest");
        let modes = RunSpec::new("x", sys.clone()).with_mode(LlcMode::NonInclusive);
        let seeds = RunSpec::new("x", sys.clone()).with_seed(99);
        let policies = RunSpec::new("x", sys).with_policy(ziv_replacement::PolicyKind::Srrip);
        for changed in [&modes, &seeds, &policies] {
            assert_ne!(digest(&a), digest(changed));
        }
    }
}
