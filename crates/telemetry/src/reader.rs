//! The read-only side of the telemetry segment.
//!
//! A [`TelemetryReader`] maps an existing `telemetry.shm` read-only and
//! takes sequence-consistent [`Snapshot`]s: every record is copied under
//! its seqlock with bounded retries, so a snapshot either reflects a
//! coherent point-in-time view of each record or the read reports a torn
//! record (`None`) and the caller polls again. Staleness is the caller's
//! policy: the snapshot exposes the heartbeat tick, the finished flag,
//! and [`TelemetryReader::writer_alive`] for the dead-writer check.

use crate::layout::{self as l, unpack_label};
use crate::map::{process_alive, SharedMap};
use std::path::Path;
use std::sync::atomic::Ordering;
use ziv_common::{seqlock, SimError};

/// Heartbeat record contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Heartbeat {
    /// Sequence value the record was consistent at.
    pub seq: u64,
    /// Monotonic tick (increments ~5×/second while the writer lives).
    pub tick: u64,
    /// Set once the writer finished cleanly and published final state.
    pub finished: bool,
    /// Milliseconds since the campaign started.
    pub elapsed_ms: u64,
}

/// Campaign record contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignSnap {
    /// Sequence value the record was consistent at.
    pub seq: u64,
    /// Total cells in the grid.
    pub total: u64,
    /// Cells satisfied from the resume cache.
    pub cached: u64,
    /// Cells finished successfully (including cached).
    pub done: u64,
    /// Cells that failed.
    pub failed: u64,
    /// Cells currently executing.
    pub running: u64,
    /// Estimated milliseconds to completion, if the writer had a basis.
    pub eta_ms: Option<u64>,
}

/// One worker record's contents.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerSnap {
    /// Sequence value the record was consistent at.
    pub seq: u64,
    /// 0 idle, 1 running, 2 finished-cell (see layout constants).
    pub state: u64,
    /// Generation counter (bumps at every cell begin).
    pub generation: u64,
    /// Spec index of the current/last cell.
    pub spec_index: u64,
    /// Workload index of the current/last cell.
    pub workload_index: u64,
    /// Accesses issued so far.
    pub access_index: u64,
    /// Expected accesses (0 when unknown).
    pub expected_accesses: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Cycles elapsed.
    pub cycles: u64,
    /// LLC accesses.
    pub llc_accesses: u64,
    /// LLC misses.
    pub llc_misses: u64,
    /// Inclusion victims.
    pub inclusion_victims: u64,
    /// ZIV relocations.
    pub relocations: u64,
    /// Sampling stratum (0 = full run).
    pub stratum: u64,
    /// Closed sampling intervals.
    pub intervals: u64,
    /// Running mean of per-interval IPC.
    pub ipc_mean: f64,
    /// Half-width of the running IPC confidence interval.
    pub ipc_half_width: f64,
    /// Cell label (truncated to 32 bytes).
    pub label: String,
    /// Workload name (truncated to 32 bytes).
    pub workload: String,
}

/// A sequence-consistent view of the whole segment.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Writer PID from the header.
    pub writer_pid: u64,
    /// Heartbeat record.
    pub heartbeat: Heartbeat,
    /// Campaign record.
    pub campaign: CampaignSnap,
    /// One entry per worker record.
    pub workers: Vec<WorkerSnap>,
}

/// Read-only handle over a mapped segment.
#[derive(Debug)]
pub struct TelemetryReader {
    map: SharedMap,
    n_workers: usize,
    writer_pid: u64,
}

impl TelemetryReader {
    /// Map `path` read-only and validate the header.
    pub fn open(path: &Path) -> Result<Self, SimError> {
        let map = SharedMap::open(path, false)?;
        let w = map.words();
        if w.len() < l::segment_words(1) {
            return Err(SimError::Config(format!(
                "{}: telemetry segment too small ({} words)",
                path.display(),
                w.len()
            )));
        }
        let magic = w[l::H_MAGIC].load(Ordering::Acquire);
        let version = w[l::H_VERSION].load(Ordering::Relaxed);
        if magic != l::MAGIC {
            return Err(SimError::Config(format!(
                "{}: bad telemetry magic {magic:#x}",
                path.display()
            )));
        }
        if version != l::VERSION {
            return Err(SimError::Config(format!(
                "{}: telemetry layout version {version} (reader speaks {})",
                path.display(),
                l::VERSION
            )));
        }
        let n_workers = w[l::H_WORKERS].load(Ordering::Relaxed) as usize;
        let total = w[l::H_TOTAL_WORDS].load(Ordering::Relaxed) as usize;
        if n_workers == 0 || total != l::segment_words(n_workers) || w.len() < total {
            return Err(SimError::Config(format!(
                "{}: inconsistent telemetry header ({} workers, {} words)",
                path.display(),
                n_workers,
                total
            )));
        }
        let writer_pid = w[l::H_PID].load(Ordering::Relaxed);
        Ok(TelemetryReader {
            map,
            n_workers,
            writer_pid,
        })
    }

    /// Number of worker records.
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// PID recorded by the writer at segment creation.
    pub fn writer_pid(&self) -> u64 {
        self.writer_pid
    }

    /// Whether the writing process still exists.
    pub fn writer_alive(&self) -> bool {
        process_alive(self.writer_pid)
    }

    fn read_record(&self, offset: usize, payload: &mut [u64]) -> Option<u64> {
        let all = self.map.words();
        let seq = &all[offset];
        let data = &all[offset + 1..offset + 1 + payload.len()];
        seqlock::read_words(seq, data, payload)
    }

    /// Take a consistent snapshot of every record, or `None` if any
    /// record stayed torn across the bounded retries.
    pub fn snapshot(&self) -> Option<Snapshot> {
        let mut hb = [0u64; l::HEARTBEAT_WORDS - 1];
        let hb_seq = self.read_record(l::heartbeat_offset(), &mut hb)?;
        let mut c = [0u64; l::CAMPAIGN_WORDS - 1];
        let c_seq = self.read_record(l::campaign_offset(), &mut c)?;
        let mut workers = Vec::with_capacity(self.n_workers);
        for i in 0..self.n_workers {
            let mut w = [0u64; l::WORKER_PAYLOAD_WORDS];
            let w_seq = self.read_record(l::worker_offset(i), &mut w)?;
            workers.push(WorkerSnap {
                seq: w_seq,
                state: w[l::W_STATE],
                generation: w[l::W_GENERATION],
                spec_index: w[l::W_SPEC],
                workload_index: w[l::W_WORKLOAD],
                access_index: w[l::W_ACCESS],
                expected_accesses: w[l::W_EXPECTED],
                instructions: w[l::W_INSTRUCTIONS],
                cycles: w[l::W_CYCLES],
                llc_accesses: w[l::W_LLC_ACCESSES],
                llc_misses: w[l::W_LLC_MISSES],
                inclusion_victims: w[l::W_INCLUSION_VICTIMS],
                relocations: w[l::W_RELOCATIONS],
                stratum: w[l::W_STRATUM],
                intervals: w[l::W_INTERVALS],
                ipc_mean: f64::from_bits(w[l::W_IPC_MEAN]),
                ipc_half_width: f64::from_bits(w[l::W_IPC_HALF]),
                label: unpack_label(&w[l::W_LABEL..l::W_LABEL + l::LABEL_WORDS]),
                workload: unpack_label(&w[l::W_WORKLOAD_NAME..l::W_WORKLOAD_NAME + l::LABEL_WORDS]),
            });
        }
        Some(Snapshot {
            writer_pid: self.writer_pid,
            heartbeat: Heartbeat {
                seq: hb_seq,
                tick: hb[l::HB_TICK],
                finished: hb[l::HB_STATE] == l::STATE_FINISHED,
                elapsed_ms: hb[l::HB_ELAPSED_MS],
            },
            campaign: CampaignSnap {
                seq: c_seq,
                total: c[l::C_TOTAL],
                cached: c[l::C_CACHED],
                done: c[l::C_DONE],
                failed: c[l::C_FAILED],
                running: c[l::C_RUNNING],
                eta_ms: match c[l::C_ETA_MS] {
                    l::ETA_UNKNOWN => None,
                    ms => Some(ms),
                },
            },
            workers,
        })
    }
}
