//! The correctness gate: every cell's result is pinned by digest and
//! re-checked on every repetition; a cell fails on the first check it
//! breaks.

use crate::plan::{result_digest, Plan, Sizes};
use ziv_sim::RunResult;

/// Pinned result digests, one `<seed> <workload> <cell> <digest>` line
/// each, for the benchmark's own sizes (written by `benchmark pin`).
const PINNED: &str = include_str!("../expected/digests.txt");

/// Parses a seed written in decimal or as `0x`-prefixed hex.
pub fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// The pinned digest of each of `plan`'s cells for `seed`, where one is
/// pinned. Pins describe the benchmark's own input sizes, so shrunken
/// inputs have none.
pub fn pinned(plan: &Plan, seed: u64, sizes: &Sizes) -> Vec<Option<u64>> {
    (0..plan.cells.len())
        .map(|i| {
            if sizes.shrink != 1 {
                return None;
            }
            let id = plan.cell_id(i);
            PINNED
                .lines()
                .filter(|l| !l.starts_with('#'))
                .find_map(|line| {
                    let f: Vec<&str> = line.split_whitespace().collect();
                    match f[..] {
                        [s, w, c, d]
                            if parse_seed(s) == Some(seed) && w == plan.name && c == id =>
                        {
                            u64::from_str_radix(d, 16).ok()
                        }
                        _ => None,
                    }
                })
        })
        .collect()
}

/// Accumulates per-cell verdicts across a run's passes.
#[derive(Debug)]
pub struct Checker {
    ids: Vec<String>,
    ziv: Vec<bool>,
    pins: Vec<Option<u64>>,
    reference: Vec<Option<u64>>,
    failures: Vec<Option<String>>,
}

impl Checker {
    /// A checker for `plan`'s cells with the given pins.
    pub fn new(plan: &Plan, pins: Vec<Option<u64>>) -> Checker {
        let n = plan.cells.len();
        Checker {
            ids: (0..n).map(|i| plan.cell_id(i)).collect(),
            ziv: plan.cells.iter().map(|c| c.spec.mode.is_ziv()).collect(),
            pins,
            reference: vec![None; n],
            failures: vec![None; n],
        }
    }

    fn fail(&mut self, cell: usize, why: String) {
        self.failures[cell].get_or_insert(why);
    }

    /// The reference pass (the warm-up): errors, pinned digests and the
    /// ZIV guarantee.
    pub fn reference(&mut self, results: &[Result<RunResult, String>]) {
        for (i, r) in results.iter().enumerate() {
            let r = match r {
                Ok(r) => r,
                Err(e) => {
                    self.fail(i, format!("run failed: {e}"));
                    continue;
                }
            };
            let d = result_digest(r);
            self.reference[i] = Some(d);
            if let Some(p) = self.pins[i].filter(|&p| p != d) {
                self.fail(i, format!("digest {d:016x} differs from pinned {p:016x}"));
            }
            let m = &r.metrics;
            if self.ziv[i] && (m.inclusion_victims != 0 || m.ziv_guarantee_fallbacks != 0) {
                self.fail(
                    i,
                    format!(
                        "ZIV cell has {} inclusion victim(s), {} guarantee fallback(s)",
                        m.inclusion_victims, m.ziv_guarantee_fallbacks
                    ),
                );
            }
        }
    }

    /// Another pass over the same inputs (a timed repetition, a
    /// hooks-on or hooks-off twin) must reproduce the reference digest;
    /// `what` names the pass in a failure.
    pub fn same_as_reference(&mut self, what: &str, results: &[Result<RunResult, String>]) {
        for (i, r) in results.iter().enumerate() {
            self.same_as_reference_cell(what, i, r);
        }
    }

    /// [`Checker::same_as_reference`] for one cell's result.
    pub fn same_as_reference_cell(
        &mut self,
        what: &str,
        cell: usize,
        r: &Result<RunResult, String>,
    ) {
        match (r, self.reference[cell]) {
            (Err(e), _) => self.fail(cell, format!("{what}: run failed: {e}")),
            (Ok(r), Some(d)) if result_digest(r) != d => self.fail(
                cell,
                format!(
                    "{what}: digest {:016x} differs from the reference pass's {d:016x}",
                    result_digest(r)
                ),
            ),
            _ => {}
        }
    }

    /// Cells checked.
    pub fn attempted(&self) -> usize {
        self.ids.len()
    }

    /// One `<cell>: <first failed check>` line per failed cell.
    pub fn failures(&self) -> Vec<String> {
        self.ids
            .iter()
            .zip(&self.failures)
            .filter_map(|(id, f)| f.as_ref().map(|f| format!("{id}: {f}")))
            .collect()
    }
}
