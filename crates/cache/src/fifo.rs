//! The relocation FIFO (Section III-D1): an eight-entry buffer holding
//! blocks waiting to be relocated when the decoded `nextRS` is not ready
//! or the bank's write port is busy. It decouples the relocation datapath
//! from the rest of the relocation logic.
//!
//! The simulator performs relocations functionally at request time: the
//! LLC pushes each request here and completes it at once, so the queue
//! never holds more than one entry. Nothing outside this file's tests
//! reads what it computes (`high_water`, `total_pushed`,
//! `overflow_stalls`, completion cycles), and no figure is built from it.
//! ROADMAP.md's "Model the relocation FIFO, or delete it" decides its
//! fate.

use std::collections::VecDeque;
use ziv_common::{Cycle, LineAddr};

/// The paper's buffer depth: eight entries per LLC bank.
pub const RELOCATION_FIFO_DEPTH: usize = 8;

/// Latency of the combinational `nextRS` logic (Section III-D8: the
/// synthesized module meets a three-cycle target at 4 GHz).
pub const NEXT_RS_LATENCY: Cycle = 3;

/// A block waiting to be relocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelocationRequest {
    /// The block being relocated.
    pub line: LineAddr,
    /// Cycle at which the relocation was requested.
    pub requested_at: Cycle,
}

/// Error returned when the FIFO is full; the LLC controller responds by
/// stalling private-cache miss requests (Section III-D1 notes this
/// cannot deadlock because relocations do not depend on miss progress).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FifoFullError;

impl std::fmt::Display for FifoFullError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "relocation FIFO is full")
    }
}

impl std::error::Error for FifoFullError {}

/// The per-bank relocation FIFO with occupancy statistics.
#[derive(Debug, Clone, Default)]
pub struct RelocationFifo {
    queue: VecDeque<RelocationRequest>,
    /// Cycle at which the bank's relocation datapath becomes free.
    busy_until: Cycle,
    high_water: usize,
    total_pushed: u64,
    overflow_stalls: u64,
}

impl RelocationFifo {
    /// Creates an empty FIFO.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the FIFO is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Highest occupancy ever observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Total relocation requests accepted.
    pub fn total_pushed(&self) -> u64 {
        self.total_pushed
    }

    /// Times a push found the FIFO full.
    pub fn overflow_stalls(&self) -> u64 {
        self.overflow_stalls
    }

    /// Enqueues a relocation request.
    ///
    /// # Errors
    ///
    /// Returns [`FifoFullError`] when all eight entries are occupied
    /// (the caller must stall private-cache miss handling and retry).
    pub fn push(&mut self, req: RelocationRequest) -> Result<(), FifoFullError> {
        if self.queue.len() >= RELOCATION_FIFO_DEPTH {
            self.overflow_stalls += 1;
            return Err(FifoFullError);
        }
        self.queue.push_back(req);
        self.high_water = self.high_water.max(self.queue.len());
        self.total_pushed += 1;
        Ok(())
    }

    /// Completes the oldest pending relocation, modeling the `nextRS`
    /// computation latency and one write-port slot, and returns the
    /// request with its completion cycle. The relocation datapath is
    /// serialized: a relocation cannot start before the previous one
    /// finished or before its own request cycle.
    pub fn complete_front(&mut self, write_latency: Cycle) -> Option<(RelocationRequest, Cycle)> {
        let req = self.queue.pop_front()?;
        let start = req.requested_at.max(self.busy_until);
        let done = start + NEXT_RS_LATENCY + write_latency;
        self.busy_until = done;
        Some((req, done))
    }

    /// Drains every pending relocation, returning completion cycles.
    pub fn drain_all(&mut self, write_latency: Cycle) -> Vec<(RelocationRequest, Cycle)> {
        let mut out = Vec::with_capacity(self.queue.len());
        while let Some(done) = self.complete_front(write_latency) {
            out.push(done);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(line: u64, at: Cycle) -> RelocationRequest {
        RelocationRequest {
            line: LineAddr::new(line),
            requested_at: at,
        }
    }

    #[test]
    fn push_then_complete_round_trips() {
        let mut f = RelocationFifo::new();
        f.push(req(1, 100)).unwrap();
        let (r, done) = f.complete_front(1).unwrap();
        assert_eq!(r.line, LineAddr::new(1));
        assert_eq!(done, 100 + NEXT_RS_LATENCY + 1);
        assert!(f.is_empty());
    }

    #[test]
    fn capacity_is_eight() {
        let mut f = RelocationFifo::new();
        for i in 0..8 {
            f.push(req(i, 0)).unwrap();
        }
        assert_eq!(f.push(req(9, 0)), Err(FifoFullError));
        assert_eq!(f.overflow_stalls(), 1);
        assert_eq!(f.high_water(), 8);
    }

    #[test]
    fn completions_serialize_on_the_datapath() {
        let mut f = RelocationFifo::new();
        f.push(req(1, 10)).unwrap();
        f.push(req(2, 10)).unwrap();
        let (_, d1) = f.complete_front(2).unwrap();
        let (_, d2) = f.complete_front(2).unwrap();
        assert_eq!(d1, 15);
        assert_eq!(d2, 20, "second relocation waits for the datapath");
    }

    #[test]
    fn later_request_does_not_start_early() {
        let mut f = RelocationFifo::new();
        f.push(req(1, 0)).unwrap();
        let _ = f.complete_front(1);
        f.push(req(2, 1000)).unwrap();
        let (_, d) = f.complete_front(1).unwrap();
        assert_eq!(d, 1000 + NEXT_RS_LATENCY + 1);
    }

    #[test]
    fn drain_empties_queue() {
        let mut f = RelocationFifo::new();
        for i in 0..5 {
            f.push(req(i, i * 10)).unwrap();
        }
        let done = f.drain_all(1);
        assert_eq!(done.len(), 5);
        assert!(f.is_empty());
        assert_eq!(f.total_pushed(), 5);
    }

    #[test]
    fn error_displays() {
        assert_eq!(FifoFullError.to_string(), "relocation FIFO is full");
    }
}
