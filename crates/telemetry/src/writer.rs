//! The single-writer side of the telemetry segment.
//!
//! [`TelemetryWriter::create`] builds the segment under a temporary name,
//! initializes the immutable header, and renames it into place — readers
//! therefore never observe a half-initialized file. Record updates go
//! through [`ziv_common::seqlock`]: the harness ticker thread owns the
//! heartbeat and campaign records, and each pool worker owns exactly one
//! [`WorkerRecord`], so every record has a single writer and the seqlock
//! protocol holds without any locking.

use crate::layout::{self as l, pack_label};
use crate::map::SharedMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use ziv_common::{seqlock, SimError};

/// File name of the segment inside a results directory.
pub const SEGMENT_FILE: &str = "telemetry.shm";

/// Campaign-level counters published in the campaign record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignCounters {
    /// Total cells in the campaign grid.
    pub total: u64,
    /// Cells satisfied from the resume cache.
    pub cached: u64,
    /// Cells finished successfully (including cached).
    pub done: u64,
    /// Cells that failed.
    pub failed: u64,
    /// Cells currently executing.
    pub running: u64,
    /// Estimated milliseconds to completion, if known.
    pub eta_ms: Option<u64>,
}

/// Writing handle over a mapped `telemetry.shm` segment.
#[derive(Debug)]
pub struct TelemetryWriter {
    map: Arc<SharedMap>,
    path: PathBuf,
    n_workers: usize,
}

impl TelemetryWriter {
    /// Create the segment for `n_workers` worker records under
    /// `results_dir` and atomically publish it as
    /// `results_dir/telemetry.shm`.
    pub fn create(results_dir: &Path, n_workers: usize) -> Result<Self, SimError> {
        Self::create_with(results_dir, n_workers, |_| {})
    }

    /// Like [`create`](Self::create), but runs `init` against the writer
    /// *before* the rename makes the segment visible. Publish the initial
    /// heartbeat and campaign records here — a reader that can open the
    /// segment then never observes zero-filled records, only real state.
    pub fn create_with(
        results_dir: &Path,
        n_workers: usize,
        init: impl FnOnce(&TelemetryWriter),
    ) -> Result<Self, SimError> {
        let n_workers = n_workers.max(1);
        std::fs::create_dir_all(results_dir)
            .map_err(|e| SimError::io("create results dir", results_dir, e))?;
        let tmp = results_dir.join(format!("{SEGMENT_FILE}.tmp"));
        let path = results_dir.join(SEGMENT_FILE);
        let words = l::segment_words(n_workers);
        let map = SharedMap::create(&tmp, words)?;
        let w = map.words();
        w[l::H_MAGIC].store(l::MAGIC, Ordering::Relaxed);
        w[l::H_VERSION].store(l::VERSION, Ordering::Relaxed);
        w[l::H_WORKERS].store(n_workers as u64, Ordering::Relaxed);
        w[l::H_TOTAL_WORDS].store(words as u64, Ordering::Relaxed);
        w[l::H_PID].store(std::process::id() as u64, Ordering::Release);
        let writer = TelemetryWriter {
            map: Arc::new(map),
            path,
            n_workers,
        };
        // The mapping is over the file's inode; the rename below does not
        // disturb it, so these publishes land in the file that becomes
        // visible.
        init(&writer);
        std::fs::rename(&tmp, &writer.path)
            .map_err(|e| SimError::io("publish telemetry segment", &writer.path, e))?;
        Ok(writer)
    }

    /// Path of the published segment file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of worker records in the segment.
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    fn record(&self, offset: usize, words: usize) -> (&AtomicU64, &[AtomicU64]) {
        let all = self.map.words();
        (&all[offset], &all[offset + 1..offset + words])
    }

    /// Publish a heartbeat: monotonic tick, writer state, elapsed time.
    /// Must only be called from the (single) ticker thread.
    pub fn publish_heartbeat(&self, tick: u64, finished: bool, elapsed_ms: u64) {
        let (seq, data) = self.record(l::heartbeat_offset(), l::HEARTBEAT_WORDS);
        seqlock::write_with(seq, || {
            data[l::HB_TICK].store(tick, Ordering::Relaxed);
            data[l::HB_STATE].store(
                if finished {
                    l::STATE_FINISHED
                } else {
                    l::STATE_RUNNING
                },
                Ordering::Relaxed,
            );
            data[l::HB_ELAPSED_MS].store(elapsed_ms, Ordering::Relaxed);
        });
    }

    /// Publish campaign-level counters. Must only be called from the
    /// (single) ticker thread.
    pub fn publish_campaign(&self, c: &CampaignCounters) {
        let (seq, data) = self.record(l::campaign_offset(), l::CAMPAIGN_WORDS);
        seqlock::write_with(seq, || {
            data[l::C_TOTAL].store(c.total, Ordering::Relaxed);
            data[l::C_CACHED].store(c.cached, Ordering::Relaxed);
            data[l::C_DONE].store(c.done, Ordering::Relaxed);
            data[l::C_FAILED].store(c.failed, Ordering::Relaxed);
            data[l::C_RUNNING].store(c.running, Ordering::Relaxed);
            data[l::C_ETA_MS].store(c.eta_ms.unwrap_or(l::ETA_UNKNOWN), Ordering::Relaxed);
        });
    }

    /// Hand out the record for worker `index`. Each record must end up
    /// owned by exactly one worker thread.
    pub fn worker(&self, index: usize) -> WorkerRecord {
        assert!(index < self.n_workers, "worker index out of range");
        WorkerRecord {
            map: Arc::clone(&self.map),
            offset: l::worker_offset(index),
        }
    }
}

/// A single worker's record in the segment. The owning worker thread is
/// the only writer; all methods take `&self` because the segment words
/// are atomics, but calling them from two threads at once violates the
/// seqlock single-writer contract.
#[derive(Debug)]
pub struct WorkerRecord {
    map: Arc<SharedMap>,
    offset: usize,
}

impl WorkerRecord {
    fn parts(&self) -> (&AtomicU64, &[AtomicU64]) {
        let all = self.map.words();
        (
            &all[self.offset],
            &all[self.offset + 1..self.offset + l::WORKER_WORDS],
        )
    }

    /// Begin a cell: bump the generation, record identity and labels,
    /// zero the live counters.
    pub fn begin_cell(
        &self,
        spec_index: u64,
        workload_index: u64,
        expected_accesses: u64,
        label: &str,
        workload: &str,
    ) {
        let (seq, data) = self.parts();
        let generation = data[l::W_GENERATION]
            .load(Ordering::Relaxed)
            .wrapping_add(1);
        let label = pack_label(label);
        let workload_name = pack_label(workload);
        seqlock::write_with(seq, || {
            data[l::W_STATE].store(l::WORKER_RUNNING, Ordering::Relaxed);
            data[l::W_GENERATION].store(generation, Ordering::Relaxed);
            data[l::W_SPEC].store(spec_index, Ordering::Relaxed);
            data[l::W_WORKLOAD].store(workload_index, Ordering::Relaxed);
            data[l::W_ACCESS].store(0, Ordering::Relaxed);
            data[l::W_EXPECTED].store(expected_accesses, Ordering::Relaxed);
            for idx in [
                l::W_INSTRUCTIONS,
                l::W_CYCLES,
                l::W_LLC_ACCESSES,
                l::W_LLC_MISSES,
                l::W_INCLUSION_VICTIMS,
                l::W_RELOCATIONS,
                l::W_STRATUM,
                l::W_INTERVALS,
                l::W_IPC_MEAN,
                l::W_IPC_HALF,
            ] {
                data[idx].store(0, Ordering::Relaxed);
            }
            for (i, word) in label.iter().enumerate() {
                data[l::W_LABEL + i].store(*word, Ordering::Relaxed);
            }
            for (i, word) in workload_name.iter().enumerate() {
                data[l::W_WORKLOAD_NAME + i].store(*word, Ordering::Relaxed);
            }
        });
    }

    /// Publish live progress counters for the in-flight cell. Hot-path
    /// safe: a handful of relaxed stores under the seqlock, no
    /// allocation, no syscalls.
    #[allow(clippy::too_many_arguments)]
    pub fn publish_progress(
        &self,
        access_index: u64,
        instructions: u64,
        cycles: u64,
        llc_accesses: u64,
        llc_misses: u64,
        inclusion_victims: u64,
        relocations: u64,
        stratum: u64,
    ) {
        let (seq, data) = self.parts();
        seqlock::write_with(seq, || {
            data[l::W_ACCESS].store(access_index, Ordering::Relaxed);
            data[l::W_INSTRUCTIONS].store(instructions, Ordering::Relaxed);
            data[l::W_CYCLES].store(cycles, Ordering::Relaxed);
            data[l::W_LLC_ACCESSES].store(llc_accesses, Ordering::Relaxed);
            data[l::W_LLC_MISSES].store(llc_misses, Ordering::Relaxed);
            data[l::W_INCLUSION_VICTIMS].store(inclusion_victims, Ordering::Relaxed);
            data[l::W_RELOCATIONS].store(relocations, Ordering::Relaxed);
            data[l::W_STRATUM].store(stratum, Ordering::Relaxed);
        });
    }

    /// Publish sampling convergence state: closed-interval count plus the
    /// running IPC mean and confidence half-width.
    pub fn publish_sampling(&self, intervals: u64, ipc_mean: f64, ipc_half_width: f64) {
        let (seq, data) = self.parts();
        seqlock::write_with(seq, || {
            data[l::W_INTERVALS].store(intervals, Ordering::Relaxed);
            data[l::W_IPC_MEAN].store(ipc_mean.to_bits(), Ordering::Relaxed);
            data[l::W_IPC_HALF].store(ipc_half_width.to_bits(), Ordering::Relaxed);
        });
    }

    /// Mark the cell finished (record retains its final counters).
    pub fn end_cell(&self) {
        let (seq, data) = self.parts();
        seqlock::write_with(seq, || {
            data[l::W_STATE].store(l::WORKER_DONE, Ordering::Relaxed);
        });
    }
}
