//! Versioned fixed layout of the `telemetry.shm` segment.
//!
//! The segment is an array of `u64` words, grouped into four record
//! kinds. Every mutable record starts with its own seqlock sequence word
//! (see [`ziv_common::seqlock`]); the header is written once before the
//! segment becomes visible (the writer creates it under a temporary name
//! and renames it into place) and is immutable afterwards.
//!
//! ```text
//! word 0 ..  HEADER_WORDS          header    (immutable after create)
//!       ..+  HEARTBEAT_WORDS       heartbeat (seqlocked)
//!       ..+  CAMPAIGN_WORDS        campaign  (seqlocked)
//!       ..+  n_workers * WORKER_WORDS  worker records (seqlocked, one
//!                                       writer thread each)
//! ```
//!
//! All offsets below are in words. Strings (cell label, workload name)
//! are fixed 32-byte NUL-padded UTF-8 truncated at a character boundary.

/// Magic word: `"ZIVTELE1"` as big-endian ASCII.
pub const MAGIC: u64 = 0x5A49_5654_454C_4531;

/// Layout version. Bump on any incompatible layout change.
pub const VERSION: u64 = 2;

/// Header words: magic, version, n_workers, total segment words,
/// writer PID, then reserved padding.
pub const HEADER_WORDS: usize = 8;
/// Header word indices.
pub const H_MAGIC: usize = 0;
/// Layout version word.
pub const H_VERSION: usize = 1;
/// Number of worker records in this segment.
pub const H_WORKERS: usize = 2;
/// Total segment size in words (for cheap size validation).
pub const H_TOTAL_WORDS: usize = 3;
/// PID of the writing process.
pub const H_PID: usize = 4;

/// Heartbeat record: seq + payload.
pub const HEARTBEAT_WORDS: usize = 8;
/// Monotonic tick, incremented by the writer's ticker thread.
pub const HB_TICK: usize = 0;
/// Writer state: [`STATE_RUNNING`] or [`STATE_FINISHED`].
pub const HB_STATE: usize = 1;
/// Milliseconds since the campaign started.
pub const HB_ELAPSED_MS: usize = 2;

/// Heartbeat state value while the writer is alive and publishing.
pub const STATE_RUNNING: u64 = 0;
/// Heartbeat state value after the writer finished cleanly.
pub const STATE_FINISHED: u64 = 1;

/// Campaign record: seq + payload.
pub const CAMPAIGN_WORDS: usize = 12;
/// Total cells in the campaign grid.
pub const C_TOTAL: usize = 0;
/// Cells satisfied from the resume cache before execution started.
pub const C_CACHED: usize = 1;
/// Cells finished successfully (including cached).
pub const C_DONE: usize = 2;
/// Cells that failed.
pub const C_FAILED: usize = 3;
/// Cells currently executing on a worker.
pub const C_RUNNING: usize = 4;
/// Estimated milliseconds to completion; [`ETA_UNKNOWN`] when the
/// windowed estimator has no basis yet.
pub const C_ETA_MS: usize = 5;

/// Sentinel for "no ETA available".
pub const ETA_UNKNOWN: u64 = u64::MAX;

/// Words per 32-byte NUL-padded string field.
pub const LABEL_WORDS: usize = 4;

/// Worker record payload word indices (after the seq word).
pub const W_STATE: usize = 0;
/// Generation counter, incremented at every `cell_begin`.
pub const W_GENERATION: usize = 1;
/// Spec index of the cell being executed.
pub const W_SPEC: usize = 2;
/// Workload index of the cell being executed.
pub const W_WORKLOAD: usize = 3;
/// Accesses issued so far in this cell.
pub const W_ACCESS: usize = 4;
/// Expected total accesses for this cell (0 if unknown).
pub const W_EXPECTED: usize = 5;
/// Instructions retired (summed over cores).
pub const W_INSTRUCTIONS: usize = 6;
/// Cycles elapsed (max over cores, rounded).
pub const W_CYCLES: usize = 7;
/// LLC accesses so far.
pub const W_LLC_ACCESSES: usize = 8;
/// LLC misses so far.
pub const W_LLC_MISSES: usize = 9;
/// Inclusion victims so far.
pub const W_INCLUSION_VICTIMS: usize = 10;
/// ZIV relocations so far.
pub const W_RELOCATIONS: usize = 11;
/// Sampling stratum: [`STRATUM_FULL`] for unsampled runs, otherwise
/// the current sampling phase.
pub const W_STRATUM: usize = 12;
/// Closed sampling intervals so far.
pub const W_INTERVALS: usize = 13;
/// Running mean of per-interval IPC (f64 bits; 0 until ≥1 interval).
pub const W_IPC_MEAN: usize = 14;
/// Half-width of the running IPC confidence interval (f64 bits;
/// 0 until ≥2 intervals).
pub const W_IPC_HALF: usize = 15;
/// First word of the 32-byte cell label.
pub const W_LABEL: usize = 20;
/// First word of the 32-byte workload name.
pub const W_WORKLOAD_NAME: usize = W_LABEL + LABEL_WORDS;
/// Worker record payload words.
pub const WORKER_PAYLOAD_WORDS: usize = W_WORKLOAD_NAME + LABEL_WORDS;
/// Worker record size including its seq word.
pub const WORKER_WORDS: usize = 1 + WORKER_PAYLOAD_WORDS;

/// Worker state values.
pub const WORKER_IDLE: u64 = 0;
/// Worker is executing the cell described by the record.
pub const WORKER_RUNNING: u64 = 1;
/// Worker finished its last cell (record retains final counters).
pub const WORKER_DONE: u64 = 2;

/// Stratum value for unsampled (full-detail) runs.
pub const STRATUM_FULL: u64 = 0;
/// Stratum value while replaying the head census.
pub const STRATUM_HEAD: u64 = 1;
/// Stratum value while fast-forwarding a skip stride.
pub const STRATUM_SKIP: u64 = 2;
/// Stratum value while warming caches before a timed interval.
pub const STRATUM_WARM: u64 = 3;
/// Stratum value inside a timed measurement interval.
pub const STRATUM_TIMED: u64 = 4;

/// Word offset of the heartbeat record (its seq word).
pub const fn heartbeat_offset() -> usize {
    HEADER_WORDS
}

/// Word offset of the campaign record (its seq word).
pub const fn campaign_offset() -> usize {
    HEADER_WORDS + HEARTBEAT_WORDS
}

/// Word offset of worker record `index` (its seq word).
pub const fn worker_offset(index: usize) -> usize {
    HEADER_WORDS + HEARTBEAT_WORDS + CAMPAIGN_WORDS + index * WORKER_WORDS
}

/// Total segment size in words for `n_workers` worker records.
pub const fn segment_words(n_workers: usize) -> usize {
    worker_offset(n_workers)
}

/// Pack a string into `LABEL_WORDS` words of NUL-padded little-endian
/// bytes, truncating at a UTF-8 character boundary if needed.
pub fn pack_label(text: &str) -> [u64; LABEL_WORDS] {
    let max = LABEL_WORDS * 8;
    let mut end = text.len().min(max);
    while end > 0 && !text.is_char_boundary(end) {
        end -= 1;
    }
    let mut bytes = [0u8; LABEL_WORDS * 8];
    bytes[..end].copy_from_slice(&text.as_bytes()[..end]);
    let mut words = [0u64; LABEL_WORDS];
    for (i, chunk) in bytes.chunks_exact(8).enumerate() {
        words[i] = u64::from_le_bytes(chunk.try_into().unwrap());
    }
    words
}

/// Reverse of [`pack_label`]: decode NUL-padded UTF-8 from words.
pub fn unpack_label(words: &[u64]) -> String {
    let mut bytes = Vec::with_capacity(words.len() * 8);
    for w in words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    let end = bytes.iter().position(|&b| b == 0).unwrap_or(bytes.len());
    String::from_utf8_lossy(&bytes[..end]).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_are_disjoint_and_ordered() {
        assert!(heartbeat_offset() >= HEADER_WORDS);
        assert_eq!(campaign_offset(), heartbeat_offset() + HEARTBEAT_WORDS);
        assert_eq!(worker_offset(0), campaign_offset() + CAMPAIGN_WORDS);
        assert_eq!(worker_offset(1) - worker_offset(0), WORKER_WORDS);
        assert_eq!(segment_words(3), worker_offset(3));
        const { assert!(W_WORKLOAD_NAME + LABEL_WORDS <= WORKER_PAYLOAD_WORDS) };
    }

    #[test]
    fn labels_round_trip_and_truncate() {
        let words = pack_label("mix_hot");
        assert_eq!(unpack_label(&words), "mix_hot");
        let long = "x".repeat(64);
        let words = pack_label(&long);
        assert_eq!(unpack_label(&words), "x".repeat(32));
        // multi-byte char straddling the boundary is dropped cleanly
        let tricky = format!("{}é", "a".repeat(31));
        let words = pack_label(&tricky);
        assert_eq!(unpack_label(&words), "a".repeat(31));
    }
}
