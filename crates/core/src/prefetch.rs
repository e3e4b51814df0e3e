//! A per-core PC-indexed stride prefetcher.
//!
//! Table I's machine has no prefetcher, but the paper's related work
//! (Backes & Jimenez, MEMSYS 2019 — reference \[1\]) studies the joint
//! influence of inclusion policies and prefetching, and CHAR's group
//! classification (Section III-D6, attribute (i)) distinguishes blocks
//! "brought to the private caches through a prefetch or a demand
//! request". This module provides the prefetch substrate that makes
//! both concrete: a classic PC-stride prefetcher training on the L1
//! miss stream and issuing degree-N prefetches into the L2/LLC.

use ziv_common::LineAddr;

/// Confidence threshold before a stride is trusted.
const CONFIDENCE_MAX: u8 = 3;
const CONFIDENCE_ISSUE: u8 = 2;

#[derive(Debug, Clone, Copy, Default)]
struct StrideEntry {
    pc: u64,
    last_line: u64,
    stride: i64,
    confidence: u8,
    valid: bool,
}

/// Configuration of the stride prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchConfig {
    /// Number of PC-indexed table entries (power of two).
    pub table_entries: usize,
    /// Prefetch degree: how many strides ahead to issue.
    pub degree: usize,
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        PrefetchConfig {
            table_entries: 256,
            degree: 2,
        }
    }
}

/// A PC-stride prefetcher for one core.
#[derive(Debug)]
pub struct StridePrefetcher {
    table: Vec<StrideEntry>,
    degree: usize,
    mask: usize,
}

impl StridePrefetcher {
    /// Creates a prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if `table_entries` is not a power of two or `degree` is 0.
    pub fn new(cfg: PrefetchConfig) -> Self {
        assert!(
            cfg.table_entries.is_power_of_two(),
            "table must be a power of two"
        );
        assert!(cfg.degree > 0, "degree must be positive");
        StridePrefetcher {
            table: vec![StrideEntry::default(); cfg.table_entries],
            degree: cfg.degree,
            mask: cfg.table_entries - 1,
        }
    }

    /// Trains on a demand access (post-L1-miss) and returns the lines to
    /// prefetch: `degree` strides past `line` when the PC has a confident
    /// stride, none otherwise. Allocates nothing.
    pub fn train(&mut self, pc: u64, line: LineAddr) -> impl Iterator<Item = LineAddr> {
        let idx = (pc as usize >> 2) & self.mask;
        let e = &mut self.table[idx];
        let mut degree = 0;
        if e.valid && e.pc == pc {
            let new_stride = line.raw() as i64 - e.last_line as i64;
            if new_stride == e.stride && new_stride != 0 {
                if e.confidence < CONFIDENCE_MAX {
                    e.confidence += 1;
                }
            } else {
                e.stride = new_stride;
                e.confidence = 0;
            }
            e.last_line = line.raw();
            if e.confidence >= CONFIDENCE_ISSUE && e.stride != 0 {
                degree = self.degree as i64;
            }
        } else {
            *e = StrideEntry {
                pc,
                last_line: line.raw(),
                stride: 0,
                confidence: 0,
                valid: true,
            };
        }
        let (base, stride) = (line.raw() as i64, e.stride);
        (1..=degree)
            .map(move |k| base + k * stride)
            .filter(|&next| next >= 0)
            .map(|next| LineAddr::new(next as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    fn train(p: &mut StridePrefetcher, pc: u64, line: LineAddr) -> Vec<LineAddr> {
        p.train(pc, line).collect()
    }

    #[test]
    fn constant_stride_trains_and_issues() {
        let mut p = StridePrefetcher::new(PrefetchConfig::default());
        let pc = 0x400;
        assert!(train(&mut p, pc, l(10)).is_empty(), "allocation");
        assert!(
            train(&mut p, pc, l(12)).is_empty(),
            "stride learned, confidence 0"
        );
        assert!(train(&mut p, pc, l(14)).is_empty(), "confidence 1");
        let out = train(&mut p, pc, l(16));
        assert_eq!(
            out,
            vec![l(18), l(20)],
            "confidence 2: degree-2 prefetch issues"
        );
    }

    #[test]
    fn stride_change_resets_confidence() {
        let mut p = StridePrefetcher::new(PrefetchConfig::default());
        let pc = 0x404;
        for i in 0..6 {
            train(&mut p, pc, l(10 + i * 2));
        }
        assert!(
            train(&mut p, pc, l(100)).is_empty(),
            "broken stride stops issue"
        );
        assert!(train(&mut p, pc, l(102)).is_empty());
    }

    #[test]
    fn random_pcs_do_not_interfere_much() {
        let mut p = StridePrefetcher::new(PrefetchConfig {
            table_entries: 4,
            degree: 1,
        });
        // PCs 0x10 and 0x20 alias differently; train one steadily.
        for i in 0..8 {
            train(&mut p, 0x10, l(100 + i * 4));
        }
        assert_eq!(train(&mut p, 0x10, l(132)), vec![l(136)]);
    }

    #[test]
    fn negative_strides_work() {
        let mut p = StridePrefetcher::new(PrefetchConfig {
            table_entries: 64,
            degree: 1,
        });
        let pc = 0x800;
        for i in (0..8).rev() {
            train(&mut p, pc, l(100 + i * 3));
        }
        assert_eq!(train(&mut p, pc, l(97)), vec![l(94)]);
    }

    #[test]
    fn candidates_below_line_zero_are_skipped() {
        let mut p = StridePrefetcher::new(PrefetchConfig {
            table_entries: 64,
            degree: 3,
        });
        for line in [15, 10, 5] {
            train(&mut p, 0x900, l(line));
        }
        assert_eq!(
            train(&mut p, 0x900, l(0)),
            vec![],
            "every stride ahead is negative"
        );
        let mut p = StridePrefetcher::new(PrefetchConfig::default());
        for line in [19, 15, 11] {
            train(&mut p, 0x900, l(line));
        }
        assert_eq!(train(&mut p, 0x900, l(7)), vec![l(3)]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_table_size_panics() {
        StridePrefetcher::new(PrefetchConfig {
            table_entries: 3,
            degree: 1,
        });
    }
}
