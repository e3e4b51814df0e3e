//! The shared, banked LLC with all the victim-selection modes the paper
//! evaluates: the inclusive and non-inclusive baselines, QBS, SHARP,
//! CHARonBase, and the Zero Inclusion Victim design with its five
//! relocation-set properties.

mod bank;

pub use bank::{EvictedBlock, LlcBank, LlcState, PropertyLevel, PropertyVectors};

use ziv_common::config::LlcConfig;
use ziv_common::ids::{SetIdx, WayIdx};
use ziv_common::{BankId, Cycle, LineAddr, SimRng};
use ziv_directory::{LlcLocation, SparseDirectory};
use ziv_replacement::{AccessCtx, ReplacementPolicy};

/// The ZIV relocation-set properties of Section III-D, in increasing
/// implementation complexity. The paper pairs the first three with LRU
/// and the `MaxRRPV*` variants with Hawkeye.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ZivProperty {
    /// A set with any block not resident in private caches (III-D3).
    NotInPrC,
    /// The LRU-position block is not privately cached (III-D4).
    LruNotInPrC,
    /// A cache-averse (RRPV=7) block is not privately cached (III-D5).
    MaxRrpvNotInPrC,
    /// `LikelyDeadNotInPrC`: a CHAR-inferred-dead, not-privately-cached
    /// block exists (III-D6).
    LikelyDead,
    /// `MaxRRPVLikelyDeadNotInPrC`: combines Hawkeye's classification
    /// with CHAR's inference (III-D7).
    MaxRrpvLikelyDead,
}

impl ZivProperty {
    /// The relocation-set search priority: each level is checked first
    /// in the original set, then globally via the level's PV
    /// (Sections III-D4..III-D7).
    pub fn levels(self) -> &'static [PropertyLevel] {
        use PropertyLevel::*;
        match self {
            ZivProperty::NotInPrC => &[Invalid, NotInPrC],
            ZivProperty::LruNotInPrC | ZivProperty::MaxRrpvNotInPrC => &[Invalid, Graded, NotInPrC],
            ZivProperty::LikelyDead => &[Invalid, LikelyDead, NotInPrC],
            ZivProperty::MaxRrpvLikelyDead => &[Invalid, Graded, LikelyDead, NotInPrC],
        }
    }

    /// Whether the property consumes CHAR dead-block inference.
    pub fn uses_char(self) -> bool {
        matches!(
            self,
            ZivProperty::LikelyDead | ZivProperty::MaxRrpvLikelyDead
        )
    }

    /// Figure-legend label (the paper shortens the long names).
    pub fn label(self) -> &'static str {
        match self {
            ZivProperty::NotInPrC => "NotInPrC",
            ZivProperty::LruNotInPrC => "LRUNotInPrC",
            ZivProperty::MaxRrpvNotInPrC => "MRNotInPrC",
            ZivProperty::LikelyDead => "LikelyDead",
            ZivProperty::MaxRrpvLikelyDead => "MRLikelyDead",
        }
    }
}

/// How the LLC manages inclusion and victim selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LlcMode {
    /// Baseline inclusive LLC: back-invalidate on eviction.
    Inclusive,
    /// Baseline non-inclusive LLC: allocate on fill, never
    /// back-invalidate on LLC eviction.
    NonInclusive,
    /// Query-based selection (TLA, Jaleel et al. MICRO 2010) on top of
    /// the baseline policy.
    Qbs,
    /// QBS with a bounded number of victim-candidate queries (an
    /// ablation of the query depth; the paper's QBS scans the whole
    /// set).
    QbsBounded(u8),
    /// SHARP (Yan et al. ISCA 2017) on top of the baseline policy.
    Sharp,
    /// The CHARonBase comparison point of Section V-A.
    CharOnBase,
    /// TLA temporal-locality hints (Jaleel et al. MICRO 2010): every
    /// `hint_one_in`-th private-cache hit refreshes the LLC copy's
    /// replacement state (the paper notes full-rate TLH needs very high
    /// LLC bandwidth, hence the sampling knob).
    Tlh {
        /// Send one hint per this many private-cache hits.
        hint_one_in: u32,
    },
    /// TLA early core invalidation (Jaleel et al. MICRO 2010): at each
    /// replacement, the *next* victim candidate's private copies are
    /// invalidated early so its LLC reuse becomes observable.
    Eci,
    /// Relaxed Inclusion Caches (Kayaalp et al. DAC 2017): inclusion is
    /// relaxed for blocks that were never written — their eviction skips
    /// back-invalidation (no protection for read/write shared data).
    Ric,
    /// Way-partitioned inclusive LLC (DAWG/CATalyst-class isolation,
    /// the paper's references \[26\], \[31\]): victim selection is confined
    /// to the requesting core's way partition, eliminating *cross-core*
    /// evictions (and their inclusion victims) at a capacity cost.
    WayPartitioned,
    /// The Zero Inclusion Victim LLC with the given relocation property.
    Ziv(ZivProperty),
}

impl LlcMode {
    /// Whether this mode maintains the inclusion property for every
    /// block. RIC is inclusive except for never-written blocks.
    pub fn is_inclusive(self) -> bool {
        !matches!(self, LlcMode::NonInclusive)
    }

    /// Whether a directory hit may legitimately coexist with an LLC miss
    /// (the "fourth case"): true for non-inclusive LLCs and for RIC's
    /// relaxed read-only blocks.
    pub fn allows_llc_miss_under_dir_hit(self) -> bool {
        matches!(self, LlcMode::NonInclusive | LlcMode::Ric)
    }

    /// Whether this mode guarantees zero inclusion victims.
    pub fn is_ziv(self) -> bool {
        matches!(self, LlcMode::Ziv(_))
    }

    /// Figure-legend label.
    pub fn label(self) -> String {
        match self {
            LlcMode::Inclusive => "I".into(),
            LlcMode::NonInclusive => "NI".into(),
            LlcMode::Qbs => "QBS".into(),
            LlcMode::QbsBounded(n) => format!("QBS{n}"),
            LlcMode::Sharp => "SHARP".into(),
            LlcMode::CharOnBase => "CHARonBase".into(),
            LlcMode::Tlh { hint_one_in } => format!("TLH/{hint_one_in}"),
            LlcMode::Eci => "ECI".into(),
            LlcMode::Ric => "RIC".into(),
            LlcMode::WayPartitioned => "WayPart".into(),
            LlcMode::Ziv(p) => format!("ZIV-{}", p.label()),
        }
    }
}

/// Flavor of the graded PV, derived from the ZIV property in use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GradedKind {
    /// Track the LRU-position block (`LRUNotInPrC`).
    LruPos,
    /// Track cache-averse RRPV=7 blocks (`MaxRRPVNotInPrC`).
    MaxRrpv,
}

/// Why the victim-selection machinery picked the way it did, stamped on
/// every [`FillOutcome`] so the forensics observatory can attach a
/// human-readable cause to each eviction (DESIGN.md §15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VictimReason {
    /// An invalid way absorbed the fill; nothing was evicted.
    InvalidWay,
    /// The baseline policy's bottom-ranked block (inclusive,
    /// non-inclusive, TLH, RIC, and ECI demand path).
    #[default]
    Baseline,
    /// WayPartitioned: bottom-ranked block inside the requesting core's
    /// way partition.
    Partitioned,
    /// QBS found a candidate with no private copies.
    QbsClean,
    /// QBS exhausted its queries; the baseline victim was evicted
    /// despite private copies.
    QbsFallback,
    /// SHARP step 1: a block with no private copies.
    SharpUnshared,
    /// SHARP step 2: a block private only to the requesting core.
    SharpSelf,
    /// SHARP step 3: random victim (the alarm counter is raised).
    SharpRandom,
    /// CHARonBase: a likely-dead, not-privately-cached block was
    /// preferred over the privately cached baseline victim.
    CharLikelyDead,
    /// ZIV: an alternate not-privately-cached victim existed in the
    /// original set.
    ZivInSet,
    /// ZIV: the baseline victim was relocated; only a guaranteed
    /// not-privately-cached relocation-set block could be evicted.
    ZivRelocation,
    /// ZIV defensive fallback: no `NotInPrC` block existed anywhere
    /// (inclusive eviction; counted in `ziv_guarantee_fallbacks`).
    ZivFallback,
}

impl VictimReason {
    /// Short stable label used in `blame.csv` and the `blame` table.
    pub fn label(self) -> &'static str {
        match self {
            VictimReason::InvalidWay => "invalid-way",
            VictimReason::Baseline => "baseline",
            VictimReason::Partitioned => "partitioned",
            VictimReason::QbsClean => "qbs-clean",
            VictimReason::QbsFallback => "qbs-fallback",
            VictimReason::SharpUnshared => "sharp-unshared",
            VictimReason::SharpSelf => "sharp-self",
            VictimReason::SharpRandom => "sharp-random",
            VictimReason::CharLikelyDead => "char-likely-dead",
            VictimReason::ZivInSet => "ziv-in-set",
            VictimReason::ZivRelocation => "ziv-relocation",
            VictimReason::ZivFallback => "ziv-fallback",
        }
    }
}

/// The ZIV relocation performed as part of a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelocationOutcome {
    /// The privately cached LLC victim that was moved instead of
    /// back-invalidated.
    pub moved_line: LineAddr,
    /// Its new location (to be recorded in the sparse directory).
    pub to: LlcLocation,
    /// The (guaranteed not-privately-cached) block evicted from the
    /// relocation set, if the target way was valid.
    pub evicted_from_rs: Option<EvictedBlock>,
    /// Whether the relocation crossed banks (Section III-D1 fallback).
    pub cross_bank: bool,
    /// Cycle at which the relocation datapath finished.
    pub completed_at: Cycle,
}

/// Everything a fill did, for the hierarchy to act on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillOutcome {
    /// Where the new line was installed.
    pub loc: LlcLocation,
    /// Block evicted from the target set (plain eviction path).
    pub evicted: Option<EvictedBlock>,
    /// ZIV relocation, if one was performed.
    pub relocation: Option<RelocationOutcome>,
    /// Directory queries issued by QBS for this fill.
    pub qbs_queries: u64,
    /// SHARP fell through to its random step 3.
    pub sharp_alarm: bool,
    /// ZIV found an alternate victim in the original set (no
    /// relocation needed).
    pub in_set_alternate: bool,
    /// Defensive inclusive fallback: no `NotInPrC` block existed
    /// anywhere (violates the paper's capacity assumption; see
    /// `Metrics::ziv_guarantee_fallbacks`).
    pub ziv_fallback: bool,
    /// A relocation consulted the `LikelyDeadNotInPrC` PV and found it
    /// empty — the Section III-D6 trigger for lowering CHAR's threshold.
    pub likely_dead_pv_empty: bool,
    /// ECI: the next victim candidate, whose private copies the
    /// hierarchy must invalidate early.
    pub eci_candidate: Option<LineAddr>,
    /// Why the victim way was chosen (forensics provenance).
    pub victim_reason: VictimReason,
}

/// The shared LLC: banks + mode + policy.
#[derive(Debug)]
pub struct SharedLlc {
    cfg: LlcConfig,
    mode: LlcMode,
    banks: Vec<LlcBank>,
    rng: SimRng,
    /// Number of way partitions for [`LlcMode::WayPartitioned`]
    /// (normally the core count, capped at the associativity).
    partitions: usize,
    /// Reusable victim-order buffer for the per-fill `rank()` queries
    /// (QBS/SHARP/ECI/CHARonBase/WayPartitioned). Taken with
    /// `std::mem::take` for the duration of a query and put back, so the
    /// steady-state fill path performs no heap allocation (DESIGN.md §8).
    rank_scratch: Vec<WayIdx>,
}

impl SharedLlc {
    /// Builds the LLC. `build_policy` creates one policy instance per
    /// bank (policies are per-bank state machines).
    pub fn new(
        cfg: LlcConfig,
        mode: LlcMode,
        mut build_policy: impl FnMut(usize) -> Box<dyn ReplacementPolicy>,
        seed: u64,
    ) -> Self {
        // Only ZIV banks carry property vectors: `choose_ziv` is their
        // one reader.
        let graded = match mode {
            LlcMode::Ziv(ZivProperty::MaxRrpvNotInPrC | ZivProperty::MaxRrpvLikelyDead) => {
                Some(GradedKind::MaxRrpv)
            }
            LlcMode::Ziv(_) => Some(GradedKind::LruPos),
            _ => None,
        };
        let banks = (0..cfg.banks)
            .map(|b| LlcBank::new(cfg.bank_geometry, build_policy(b), graded))
            .collect();
        SharedLlc {
            cfg,
            mode,
            banks,
            rng: SimRng::seed_from_u64(seed ^ 0x51ac_c0de),
            partitions: 1,
            rank_scratch: Vec::new(),
        }
    }

    /// Sets the way-partition count (used by [`LlcMode::WayPartitioned`];
    /// normally the number of cores, capped at the associativity).
    pub fn set_partitions(&mut self, partitions: usize) {
        self.partitions = partitions.max(1);
    }

    /// The configured mode.
    pub fn mode(&self) -> LlcMode {
        self.mode
    }

    /// The LLC geometry.
    pub fn config(&self) -> &LlcConfig {
        &self.cfg
    }

    /// Read access to a bank (stats, tests).
    pub fn bank(&self, bank: BankId) -> &LlcBank {
        &self.banks[bank.index()]
    }

    /// Number of banks.
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// Looks up `line` in its home set, considering only blocks with the
    /// `Relocated` state off (Section III-C1).
    pub fn probe(&self, line: LineAddr) -> Option<LlcLocation> {
        let bank = self.cfg.bank_of(line);
        let set = self.cfg.set_of(line);
        let tag = self.cfg.tag_of(line);
        self.banks[bank.index()]
            .array
            .lookup_where(set, tag, |s| !s.relocated)
            .map(|way| LlcLocation { bank, set, way })
    }

    /// State at a location.
    pub fn state(&self, loc: LlcLocation) -> &LlcState {
        self.banks[loc.bank.index()].array.state(loc.set, loc.way)
    }

    /// Mutates the state at `loc` and refreshes the set's PVs.
    pub fn update_state(&mut self, loc: LlcLocation, f: impl FnOnce(&mut LlcState)) {
        let bank = &mut self.banks[loc.bank.index()];
        f(bank.array.state_mut(loc.set, loc.way));
        bank.refresh_set(loc.set);
    }

    /// Demand hit on a non-relocated block: policy update, `NotInPrC` /
    /// `LikelyDead` reset (the block is being pulled into a private
    /// cache), and CHAR recall attribution.
    pub fn on_hit(
        &mut self,
        loc: LlcLocation,
        ctx: &AccessCtx,
    ) -> Option<(u16, ziv_char::GroupId)> {
        let bank = &mut self.banks[loc.bank.index()];
        bank.policy.on_hit(loc.set, loc.way, ctx);
        let st = bank.array.state_mut(loc.set, loc.way);
        let recall = st.evict_group.take();
        st.not_in_prc = false;
        st.likely_dead = false;
        bank.refresh_set(loc.set);
        recall
    }

    /// Demand hit on a relocated block (reached through the sparse
    /// directory): only the relocation set's replacement state is
    /// updated "in the background" (Section III-C1).
    pub fn on_relocated_hit(&mut self, loc: LlcLocation, ctx: &AccessCtx) {
        let bank = &mut self.banks[loc.bank.index()];
        debug_assert!(bank.array.state(loc.set, loc.way).relocated);
        bank.policy.on_hit(loc.set, loc.way, ctx);
    }

    /// Invalidates the block at `loc` (relocated-block death, directory
    /// eviction, etc.); returns its final state.
    pub fn invalidate(&mut self, loc: LlcLocation) -> Option<LlcState> {
        let bank = &mut self.banks[loc.bank.index()];
        let out = bank.array.invalidate(loc.set, loc.way).map(|(_, s)| s);
        if out.is_some() {
            bank.policy.on_evict(loc.set, loc.way);
        }
        bank.refresh_set(loc.set);
        out
    }

    /// Fills `line` into its home set, running the mode's victim
    /// selection. `now` drives relocation timing; `core` is the
    /// requesting core (SHARP step 2).
    ///
    /// # Panics
    ///
    /// Debug-panics if `line` is already present (fills must follow a
    /// probe miss).
    pub fn fill(
        &mut self,
        line: LineAddr,
        ctx: &AccessCtx,
        dir: &SparseDirectory,
        core: ziv_common::CoreId,
        now: Cycle,
    ) -> FillOutcome {
        let bank_id = self.cfg.bank_of(line);
        let set = self.cfg.set_of(line);
        let tag = self.cfg.tag_of(line);
        // Fused walk: the resident-line check and the invalid-way scan
        // (every mode's highest-priority choice) share one O(ways) pass.
        let probe = self.banks[bank_id.index()]
            .array
            .lookup_or_invalid_where(set, tag, |s| !s.relocated);
        debug_assert!(probe.hit.is_none(), "fill of a resident line");
        let mut outcome = FillOutcome {
            loc: LlcLocation {
                bank: bank_id,
                set,
                way: 0,
            },
            evicted: None,
            relocation: None,
            qbs_queries: 0,
            sharp_alarm: false,
            in_set_alternate: false,
            ziv_fallback: false,
            likely_dead_pv_empty: false,
            eci_candidate: None,
            victim_reason: VictimReason::Baseline,
        };

        // Invalid way: every mode's highest-priority choice.
        if let Some(way) = probe.invalid {
            self.install(bank_id, set, way, line, ctx);
            outcome.loc.way = way;
            outcome.victim_reason = VictimReason::InvalidWay;
            return outcome;
        }

        let way = match self.mode {
            LlcMode::Inclusive | LlcMode::NonInclusive | LlcMode::Tlh { .. } | LlcMode::Ric => {
                self.banks[bank_id.index()].policy.victim(set, ctx)
            }
            LlcMode::Eci => {
                // Victimize normally, but also surface the next-ranked
                // candidate for early core invalidation.
                let mut order = std::mem::take(&mut self.rank_scratch);
                self.banks[bank_id.index()]
                    .policy
                    .rank(set, ctx, &mut order);
                if let Some(&next) = order.get(1) {
                    if self.banks[bank_id.index()].array.is_valid(set, next) {
                        outcome.eci_candidate =
                            Some(self.banks[bank_id.index()].array.state(set, next).line);
                    }
                }
                let victim = order[0];
                self.rank_scratch = order;
                victim
            }
            LlcMode::WayPartitioned => {
                outcome.victim_reason = VictimReason::Partitioned;
                self.choose_partitioned(bank_id, set, ctx, core)
            }
            LlcMode::Qbs => self.choose_qbs(bank_id, set, ctx, dir, u8::MAX, &mut outcome),
            LlcMode::QbsBounded(n) => self.choose_qbs(bank_id, set, ctx, dir, n, &mut outcome),
            LlcMode::Sharp => self.choose_sharp(bank_id, set, ctx, dir, core, &mut outcome),
            LlcMode::CharOnBase => self.choose_char_on_base(bank_id, set, ctx, dir, &mut outcome),
            LlcMode::Ziv(prop) => {
                match self.choose_ziv(bank_id, set, ctx, dir, prop, &mut outcome, now) {
                    ZivChoice::Evict(w) => w,
                    ZivChoice::Relocated { vacated_way } => vacated_way,
                }
            }
        };

        // Plain eviction of the chosen way (the relocation path has
        // already vacated it).
        if self.banks[bank_id.index()].array.is_valid(set, way) {
            let st = *self.banks[bank_id.index()].array.state(set, way);
            self.banks[bank_id.index()].array.invalidate(set, way);
            self.banks[bank_id.index()].policy.on_evict(set, way);
            outcome.evicted = Some(EvictedBlock {
                line: st.line,
                dirty: st.dirty,
                was_relocated: st.relocated,
            });
        }
        self.install(bank_id, set, way, line, ctx);
        outcome.loc.way = way;
        outcome
    }

    fn install(&mut self, bank: BankId, set: SetIdx, way: WayIdx, line: LineAddr, ctx: &AccessCtx) {
        let tag = self.cfg.tag_of(line);
        let b = &mut self.banks[bank.index()];
        let displaced = b.array.fill(
            set,
            way,
            tag,
            LlcState {
                line,
                ..Default::default()
            },
        );
        debug_assert!(displaced.is_none(), "install must target an empty way");
        b.policy.on_fill(set, way, ctx);
        b.refresh_set(set);
    }

    fn line_at(&self, bank: BankId, set: SetIdx, way: WayIdx) -> LineAddr {
        self.banks[bank.index()].array.state(set, way).line
    }

    /// Way-partitioned victim selection: the first way in policy rank
    /// order that belongs to the requesting core's partition. Partitions
    /// are contiguous, `ways / cores_sharing` wide (at least one way),
    /// assigned by core index modulo the partition count.
    fn choose_partitioned(
        &mut self,
        bank: BankId,
        set: SetIdx,
        ctx: &AccessCtx,
        core: ziv_common::CoreId,
    ) -> WayIdx {
        let ways = self.cfg.bank_geometry.ways as usize;
        // Partition width: fixed at construction from the worst case of
        // one partition per way.
        let parts = ways.min(self.partitions.max(1));
        let width = ways / parts;
        let my_part = core.index() % parts;
        let lo = (my_part * width) as WayIdx;
        let hi = lo + width as WayIdx;
        let mut order = std::mem::take(&mut self.rank_scratch);
        self.banks[bank.index()].policy.rank(set, ctx, &mut order);
        let chosen = order
            .iter()
            .copied()
            .find(|&w| w >= lo && w < hi)
            .expect("every partition has at least one way");
        self.rank_scratch = order;
        chosen
    }

    fn choose_qbs(
        &mut self,
        bank: BankId,
        set: SetIdx,
        ctx: &AccessCtx,
        dir: &SparseDirectory,
        max_queries: u8,
        outcome: &mut FillOutcome,
    ) -> WayIdx {
        let mut order = std::mem::take(&mut self.rank_scratch);
        self.banks[bank.index()].policy.rank(set, ctx, &mut order);
        order.truncate(max_queries.max(1) as usize);
        let fallback = order[0];
        let mut chosen = None;
        for &w in &order {
            let line = self.line_at(bank, set, w);
            outcome.qbs_queries += 1;
            if !dir.is_privately_cached(line) {
                chosen = Some(w);
                break;
            }
            // "The block is moved to the MRU position within the target
            // LLC set and the next victim candidate is considered."
            self.banks[bank.index()].policy.protect(set, w);
        }
        self.rank_scratch = order;
        // Every block is privately cached: QBS gives up and victimizes
        // the baseline victim, generating inclusion victims.
        outcome.victim_reason = if chosen.is_some() {
            VictimReason::QbsClean
        } else {
            VictimReason::QbsFallback
        };
        chosen.unwrap_or(fallback)
    }

    fn choose_sharp(
        &mut self,
        bank: BankId,
        set: SetIdx,
        ctx: &AccessCtx,
        dir: &SparseDirectory,
        core: ziv_common::CoreId,
        outcome: &mut FillOutcome,
    ) -> WayIdx {
        let mut order = std::mem::take(&mut self.rank_scratch);
        self.banks[bank.index()].policy.rank(set, ctx, &mut order);
        // Step 1: a block not resident in any private cache.
        let mut chosen = order
            .iter()
            .copied()
            .find(|&w| !dir.is_privately_cached(self.line_at(bank, set, w)));
        outcome.victim_reason = VictimReason::SharpUnshared;
        // Step 2: a block resident only in the requesting core's caches.
        if chosen.is_none() {
            chosen = order.iter().copied().find(|&w| {
                let line = self.line_at(bank, set, w);
                dir.probe(line)
                    .is_some_and(|s| s.sharers.is_sole_sharer(core))
            });
            outcome.victim_reason = VictimReason::SharpSelf;
        }
        self.rank_scratch = order;
        if let Some(w) = chosen {
            return w;
        }
        // Step 3: a random block; raise the alarm counter.
        outcome.sharp_alarm = true;
        outcome.victim_reason = VictimReason::SharpRandom;
        let ways = self.cfg.bank_geometry.ways as u64;
        self.rng.below(ways) as WayIdx
    }

    fn choose_char_on_base(
        &mut self,
        bank: BankId,
        set: SetIdx,
        ctx: &AccessCtx,
        dir: &SparseDirectory,
        outcome: &mut FillOutcome,
    ) -> WayIdx {
        let baseline = self.banks[bank.index()].policy.victim(set, ctx);
        if !dir.is_privately_cached(self.line_at(bank, set, baseline)) {
            return baseline;
        }
        // Baseline victim is privately cached: prefer a LikelyDead block
        // (closest to eviction in rank order) from the same set.
        let mut order = std::mem::take(&mut self.rank_scratch);
        self.banks[bank.index()].policy.rank(set, ctx, &mut order);
        let chosen = order.iter().copied().find(|&w| {
            let st = self.banks[bank.index()].array.state(set, w);
            !st.relocated && st.likely_dead && st.not_in_prc
        });
        self.rank_scratch = order;
        if chosen.is_some() {
            outcome.victim_reason = VictimReason::CharLikelyDead;
        }
        chosen.unwrap_or(baseline)
    }

    #[allow(clippy::too_many_arguments)]
    fn choose_ziv(
        &mut self,
        bank: BankId,
        set: SetIdx,
        ctx: &AccessCtx,
        dir: &SparseDirectory,
        prop: ZivProperty,
        outcome: &mut FillOutcome,
        now: Cycle,
    ) -> ZivChoice {
        let baseline = self.banks[bank.index()].policy.victim(set, ctx);
        let victim_line = self.line_at(bank, set, baseline);
        if !dir.is_privately_cached(victim_line) {
            debug_assert!(
                !self.banks[bank.index()]
                    .array
                    .state(set, baseline)
                    .relocated,
                "a relocated block must be privately cached"
            );
            return ZivChoice::Evict(baseline);
        }

        // The baseline victim has privately cached copies: find where to
        // put it (or a better victim in this very set).
        for &level in prop.levels() {
            let pvs = self.ziv_pvs(bank.index());
            let in_set = pvs.set_satisfies(set, level);
            if level == PropertyLevel::LikelyDead && !in_set && pvs.pv_mut(level).is_empty() {
                // Record the dead-block starvation for the CHAR
                // threshold adaptation (Fig 7).
                outcome.likely_dead_pv_empty = true;
            }
            // Original set first (except Invalid, already known empty
            // because fills consume invalid ways before victimization).
            if level != PropertyLevel::Invalid && in_set {
                let w = self.banks[bank.index()]
                    .relocation_victim(set, prop)
                    .expect("set property bit guaranteed a victim");
                outcome.in_set_alternate = true;
                outcome.victim_reason = VictimReason::ZivInSet;
                return ZivChoice::Evict(w);
            }
            // Then the global PV of this bank.
            if let Some(rs) = self.ziv_pvs(bank.index()).pv_mut(level).take_next_rs() {
                if rs != set {
                    return self.relocate(bank, set, baseline, bank, rs, prop, outcome, ctx, now);
                }
                // nextRS pointed back at the original set: treat as the
                // in-set case.
                if let Some(w) = self.banks[bank.index()].relocation_victim(set, prop) {
                    outcome.in_set_alternate = true;
                    outcome.victim_reason = VictimReason::ZivInSet;
                    return ZivChoice::Evict(w);
                }
            }
        }

        // Extremely-rare path (Section III-D1): every block in this bank
        // is privately cached. Relocate to another bank, nearest first.
        let home = bank.index();
        let n = self.banks.len();
        let mut others: Vec<usize> = (0..n).filter(|&b| b != home).collect();
        others.sort_by_key(|&b| {
            let d = (b as i64 - home as i64).unsigned_abs();
            d.min(n as u64 - d)
        });
        for other in others {
            for &level in prop.levels() {
                if let Some(rs) = self.ziv_pvs(other).pv_mut(level).take_next_rs() {
                    return self.relocate(
                        bank,
                        set,
                        baseline,
                        BankId::new(other),
                        rs,
                        prop,
                        outcome,
                        ctx,
                        now,
                    );
                }
            }
        }

        // No NotInPrC block anywhere: the paper's capacity invariant is
        // violated (tiny test configurations only). Fall back to an
        // inclusive eviction and count it.
        outcome.ziv_fallback = true;
        outcome.victim_reason = VictimReason::ZivFallback;
        ZivChoice::Evict(baseline)
    }

    /// The property vectors of bank `bank`, which every ZIV bank has.
    fn ziv_pvs(&mut self, bank: usize) -> &mut PropertyVectors {
        self.banks[bank]
            .pvs
            .as_mut()
            .expect("ZIV banks carry property vectors")
    }

    #[allow(clippy::too_many_arguments)]
    fn relocate(
        &mut self,
        src_bank: BankId,
        src_set: SetIdx,
        src_way: WayIdx,
        dst_bank: BankId,
        dst_set: SetIdx,
        prop: ZivProperty,
        outcome: &mut FillOutcome,
        ctx: &AccessCtx,
        now: Cycle,
    ) -> ZivChoice {
        let moved = *self.banks[src_bank.index()].array.state(src_set, src_way);
        // Vacate the source way.
        self.banks[src_bank.index()]
            .array
            .invalidate(src_set, src_way);
        self.banks[src_bank.index()]
            .policy
            .on_evict(src_set, src_way);

        // Pick and clear the destination way.
        let dst = &mut self.banks[dst_bank.index()];
        let dst_way = dst
            .relocation_victim(dst_set, prop)
            .expect("relocation-set PV guaranteed an eligible victim");
        let evicted_from_rs = dst.array.invalidate(dst_set, dst_way).map(|(_, s)| {
            debug_assert!(
                !s.relocated,
                "never displace a relocated block from a relocation set"
            );
            debug_assert!(
                s.not_in_prc,
                "relocation-set victims are never privately cached"
            );
            EvictedBlock {
                line: s.line,
                dirty: s.dirty,
                was_relocated: s.relocated,
            }
        });
        if evicted_from_rs.is_some() {
            dst.policy.on_evict(dst_set, dst_way);
        }

        // Insert the moved block in the Relocated state. Its tag slot is
        // repurposed (the paper stores the directory-entry pointer; we
        // keep the line in `state.line`, see `LlcState::line`).
        let dst_tag = self.cfg.tag_of(moved.line);
        let dst = &mut self.banks[dst_bank.index()];
        dst.array.fill(
            dst_set,
            dst_way,
            dst_tag,
            LlcState {
                line: moved.line,
                dirty: moved.dirty,
                relocated: true,
                not_in_prc: false,
                likely_dead: false,
                evict_group: None,
            },
        );
        let reloc_ctx = AccessCtx::demand(moved.line, 0, ctx.core, ctx.now, ctx.seq);
        dst.policy.on_relocate_in(dst_set, dst_way, &reloc_ctx);
        dst.refresh_set(dst_set);

        // Timing + statistics through the relocation FIFO.
        let write_latency = self.cfg.data_latency;
        let bank_for_stats = &mut self.banks[dst_bank.index()];
        let _ = bank_for_stats.fifo.push(ziv_cache::RelocationRequest {
            line: moved.line,
            requested_at: now,
        });
        let completed_at = bank_for_stats
            .fifo
            .complete_front(write_latency)
            .map(|(_, done)| done)
            .unwrap_or(now);
        bank_for_stats.record_relocation(now);

        outcome.victim_reason = VictimReason::ZivRelocation;
        outcome.relocation = Some(RelocationOutcome {
            moved_line: moved.line,
            to: LlcLocation {
                bank: dst_bank,
                set: dst_set,
                way: dst_way,
            },
            evicted_from_rs,
            cross_bank: src_bank != dst_bank,
            completed_at,
        });
        ZivChoice::Relocated {
            vacated_way: src_way,
        }
    }

    /// Every line resident in the LLC, with its location and state
    /// (tests and invariant checks; O(capacity)).
    pub fn resident_blocks(&self) -> Vec<(LlcLocation, LlcState)> {
        let mut out = Vec::new();
        for (b, bank) in self.banks.iter().enumerate() {
            for set in 0..self.cfg.bank_geometry.sets {
                for w in bank.array.iter_set(set) {
                    out.push((
                        LlcLocation {
                            bank: BankId::new(b),
                            set,
                            way: w.way,
                        },
                        *w.state,
                    ));
                }
            }
        }
        out
    }
}

#[derive(Debug)]
enum ZivChoice {
    /// Evict this way normally (not privately cached, or defensive
    /// fallback).
    Evict(WayIdx),
    /// The baseline victim was relocated; its way is now free.
    Relocated { vacated_way: WayIdx },
}
