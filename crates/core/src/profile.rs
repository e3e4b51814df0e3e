//! A lightweight wall-clock self-profiler for the simulator itself
//! (`--profile`): scoped spans around the hierarchy, replacement,
//! directory, DRAM, and auditor sections, reporting where *simulator*
//! time (not simulated time) goes. Purely observational — timing reads
//! never feed back into simulation state, so results are byte-identical
//! with the profiler on or off; the report itself is wall-clock data
//! and therefore nondeterministic, like the BENCH files.
//!
//! Reading the clock around every span took over a third of a profiled
//! run's time, so the profiler does not time every access: it times the
//! first access and one in [`SAMPLE_PERIOD`] after it, with every span
//! nested in them, and only counts the spans of the others. Call counts
//! are exact. The access-path sections' nanoseconds are estimates: their
//! timed spans' time scaled by accesses over timed accesses, one factor
//! for all four, so `hierarchy` stays inclusive of the other three.
//! Audit spans run between accesses and are timed on every call.

use std::time::{Duration, Instant};
use ziv_common::json::JsonValue;

/// The profiler times one access in this many. Prime, so that the
/// driver's near-round-robin schedule over a power-of-two core count
/// cannot line the timed accesses up on one core.
pub const SAMPLE_PERIOD: u64 = 61;

/// One instrumented section of the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileSection {
    /// The whole `CacheHierarchy::access` call (includes the nested
    /// sections below; this is the end-to-end model cost per access).
    Hierarchy,
    /// LLC victim selection + fill (`SharedLlc::fill`), including ZIV
    /// relocation work.
    Replacement,
    /// Sparse-directory fills and sharer updates.
    Directory,
    /// The DRAM timing model.
    Dram,
    /// Invariant-audit walks (only nonzero when `--audit` is on).
    Audit,
}

/// Number of sections.
pub const NUM_SECTIONS: usize = 5;

impl ProfileSection {
    /// Every section, in report order.
    pub const ALL: [ProfileSection; NUM_SECTIONS] = [
        ProfileSection::Hierarchy,
        ProfileSection::Replacement,
        ProfileSection::Directory,
        ProfileSection::Dram,
        ProfileSection::Audit,
    ];

    /// Stable name used in `profile.json` and the CLI table.
    pub fn label(self) -> &'static str {
        match self {
            ProfileSection::Hierarchy => "hierarchy",
            ProfileSection::Replacement => "replacement",
            ProfileSection::Directory => "directory",
            ProfileSection::Dram => "dram",
            ProfileSection::Audit => "audit",
        }
    }

    /// Whether the section's spans run inside an access, and so are
    /// timed only in the sampled accesses and scaled up in the report.
    fn in_access(self) -> bool {
        self != ProfileSection::Audit
    }

    fn index(self) -> usize {
        match self {
            ProfileSection::Hierarchy => 0,
            ProfileSection::Replacement => 1,
            ProfileSection::Directory => 2,
            ProfileSection::Dram => 3,
            ProfileSection::Audit => 4,
        }
    }
}

/// Counts every span and times those of one access in
/// [`SAMPLE_PERIOD`].
#[derive(Debug, Default)]
pub struct SelfProfiler {
    /// Time of the timed spans, per section.
    nanos: [u64; NUM_SECTIONS],
    /// Spans per section, timed or not.
    calls: [u64; NUM_SECTIONS],
    /// Whether the access in progress is timed.
    armed: bool,
}

impl SelfProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        SelfProfiler::default()
    }

    /// Opens the span of one access, to be closed by
    /// [`SelfProfiler::end`] with [`ProfileSection::Hierarchy`]. The
    /// first access and one in [`SAMPLE_PERIOD`] after it are timed,
    /// together with every span nested in them; returns the start time
    /// of a timed access.
    #[inline]
    pub(crate) fn start_access(&mut self) -> Option<Instant> {
        self.armed = self.calls[ProfileSection::Hierarchy.index()].is_multiple_of(SAMPLE_PERIOD);
        self.start()
    }

    /// Starts a span nested in the open access: reads the clock only
    /// when that access is timed.
    #[inline]
    pub(crate) fn start(&self) -> Option<Instant> {
        self.armed.then(Instant::now)
    }

    /// Closes a span started by [`SelfProfiler::start`] or
    /// [`SelfProfiler::start_access`]: counts it, and adds its time when
    /// it was timed.
    #[inline]
    pub(crate) fn end(&mut self, section: ProfileSection, t0: Option<Instant>) {
        let i = section.index();
        self.calls[i] += 1;
        if let Some(t0) = t0 {
            self.nanos[i] += t0.elapsed().as_nanos() as u64;
        }
    }

    /// Adds one span timed outside the access path (the audit walk
    /// between accesses); reported as measured, not scaled.
    pub fn add(&mut self, section: ProfileSection, elapsed: Duration) {
        debug_assert!(
            !section.in_access(),
            "{} spans are sampled inside the access",
            section.label()
        );
        let i = section.index();
        self.nanos[i] += elapsed.as_nanos() as u64;
        self.calls[i] += 1;
    }

    /// Seals the accumulated spans into a report, scaling the
    /// access-path sections' time by accesses over timed accesses.
    pub fn report(&self) -> ProfileReport {
        let accesses = self.calls[ProfileSection::Hierarchy.index()];
        let timed = accesses.div_ceil(SAMPLE_PERIOD);
        let mut nanos = self.nanos;
        for s in ProfileSection::ALL.into_iter().filter(|s| s.in_access()) {
            let n = &mut nanos[s.index()];
            let scaled = (u128::from(*n) * u128::from(accesses))
                .checked_div(u128::from(timed))
                .unwrap_or(0);
            *n = u64::try_from(scaled).unwrap_or(u64::MAX);
        }
        ProfileReport {
            nanos,
            calls: self.calls,
        }
    }
}

/// Per-section simulator wall time, carried in
/// [`crate::observe::Observations`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileReport {
    /// Nanoseconds per section, indexed like [`ProfileSection::ALL`]:
    /// estimated from the timed accesses for the access-path sections,
    /// measured for `audit`.
    pub nanos: [u64; NUM_SECTIONS],
    /// Spans recorded per section, every one counted.
    pub calls: [u64; NUM_SECTIONS],
}

impl ProfileReport {
    /// One section's time in nanoseconds.
    pub fn nanos(&self, s: ProfileSection) -> u64 {
        self.nanos[s.index()]
    }

    /// One section's span count.
    pub fn calls(&self, s: ProfileSection) -> u64 {
        self.calls[s.index()]
    }

    /// Adds another report into this one (for campaign aggregation).
    pub fn merge(&mut self, other: &ProfileReport) {
        for i in 0..NUM_SECTIONS {
            self.nanos[i] += other.nanos[i];
            self.calls[i] += other.calls[i];
        }
    }

    /// Serializes as `{"<section>": {"nanos": N, "calls": C}, ...}`.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Obj(
            ProfileSection::ALL
                .iter()
                .map(|&s| {
                    (
                        s.label().to_string(),
                        JsonValue::Obj(vec![
                            ("nanos".into(), JsonValue::u64(self.nanos(s))),
                            ("calls".into(), JsonValue::u64(self.calls(s))),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives `accesses` accesses through `p` as the hierarchy does,
    /// each with one nested replacement span; returns how many of the
    /// accesses and of the nested spans read the clock.
    fn drive(p: &mut SelfProfiler, accesses: u64) -> (u64, u64) {
        let (mut timed, mut nested) = (0, 0);
        for _ in 0..accesses {
            let t0 = p.start_access();
            let t1 = p.start();
            nested += u64::from(t1.is_some());
            p.end(ProfileSection::Replacement, t1);
            timed += u64::from(t0.is_some());
            p.end(ProfileSection::Hierarchy, t0);
        }
        (timed, nested)
    }

    #[test]
    fn first_access_and_one_in_the_period_are_timed() {
        let mut p = SelfProfiler::new();
        assert!(p.start_access().is_some(), "the first access is timed");
        p.end(ProfileSection::Hierarchy, None);
        for i in 1..SAMPLE_PERIOD {
            assert!(p.start_access().is_none(), "access {i} is only counted");
            p.end(ProfileSection::Hierarchy, None);
        }
        assert!(
            p.start_access().is_some(),
            "access {SAMPLE_PERIOD} is timed"
        );
    }

    #[test]
    fn a_long_run_times_one_access_in_the_period_and_counts_every_span() {
        let mut p = SelfProfiler::new();
        let accesses = 100_000;
        let (timed, nested) = drive(&mut p, accesses);
        assert_eq!(timed, accesses.div_ceil(SAMPLE_PERIOD));
        assert_eq!(
            nested, timed,
            "nested spans are timed only in timed accesses"
        );
        let r = p.report();
        assert_eq!(r.calls(ProfileSection::Hierarchy), accesses);
        assert_eq!(r.calls(ProfileSection::Replacement), accesses);
        assert!(r.nanos(ProfileSection::Hierarchy) >= r.nanos(ProfileSection::Replacement));
    }

    #[test]
    fn a_run_shorter_than_the_period_reports_time() {
        let mut p = SelfProfiler::new();
        for _ in 0..3 {
            let t0 = p.start_access();
            let spin = Instant::now();
            while spin.elapsed() < Duration::from_micros(2) {}
            p.end(ProfileSection::Hierarchy, t0);
        }
        let r = p.report();
        assert_eq!(r.calls(ProfileSection::Hierarchy), 3);
        assert!(r.nanos(ProfileSection::Hierarchy) >= 3 * 2_000);
    }

    #[test]
    fn report_scales_access_sections_by_one_factor_and_audit_not_at_all() {
        let mut p = SelfProfiler::new();
        p.calls = [2 * SAMPLE_PERIOD, 40, 30, 20, 2];
        p.nanos = [1_000, 301, 200, 100, 50];
        let r = p.report();
        let scale = SAMPLE_PERIOD;
        assert_eq!(r.nanos(ProfileSection::Hierarchy), 1_000 * scale);
        assert_eq!(r.nanos(ProfileSection::Replacement), 301 * scale);
        assert_eq!(r.nanos(ProfileSection::Directory), 200 * scale);
        assert_eq!(r.nanos(ProfileSection::Dram), 100 * scale);
        assert_eq!(r.nanos(ProfileSection::Audit), 50);
        assert_eq!(r.calls, p.calls, "calls are reported as counted");
    }

    #[test]
    fn audit_spans_accumulate_as_measured() {
        let mut p = SelfProfiler::new();
        p.add(ProfileSection::Audit, Duration::from_nanos(100));
        p.add(ProfileSection::Audit, Duration::from_nanos(50));
        let r = p.report();
        assert_eq!(r.nanos(ProfileSection::Audit), 150);
        assert_eq!(r.calls(ProfileSection::Audit), 2);
        assert_eq!(r.calls(ProfileSection::Hierarchy), 0);
        assert_eq!(r.nanos(ProfileSection::Hierarchy), 0);
    }

    #[test]
    fn merge_adds_reports() {
        let mut p = SelfProfiler::new();
        drive(&mut p, 5);
        let mut a = p.report();
        let b = p.report();
        a.merge(&b);
        for s in ProfileSection::ALL {
            assert_eq!(a.nanos(s), 2 * b.nanos(s));
            assert_eq!(a.calls(s), 2 * b.calls(s));
        }
        assert_eq!(a.calls(ProfileSection::Hierarchy), 10);
    }

    #[test]
    fn json_covers_every_section() {
        let r = SelfProfiler::new().report();
        let text = r.to_json().to_string();
        let doc = ziv_common::json::parse(&text).expect("valid JSON");
        for s in ProfileSection::ALL {
            let sec = doc.get(s.label()).expect("section present");
            assert_eq!(sec.get("nanos").and_then(JsonValue::as_u64), Some(0));
            assert_eq!(sec.get("calls").and_then(JsonValue::as_u64), Some(0));
        }
    }
}
