//! # ziv-telemetry
//!
//! Live telemetry bus for running campaigns: a versioned, fixed-layout
//! shared-memory segment (a memory-mapped file at
//! `results/<name>/telemetry.shm`) written via a seqlock protocol —
//! single writer per record, per-record sequence counters, torn-read
//! retry on the reader side, no locks and no allocation on the hot
//! path — plus the matching reader used by `zivsim watch`.
//!
//! The segment publishes three kinds of state:
//!
//! * a **heartbeat** (monotonic tick + writer PID + finished flag) so
//!   readers can distinguish "finished cleanly", "still running", and
//!   "writer died" (stale tick + dead PID);
//! * **campaign counters** (cells done/running/failed, windowed ETA);
//! * **per-worker cell progress** (access index, live counter values,
//!   sampling stratum and running IPC confidence interval).
//!
//! The writer never reads the segment back and the reader never writes
//! it, so watched and unwatched campaigns stay byte-identical in every
//! digested artifact — the segment itself is never digested.
//!
//! # Examples
//!
//! ```
//! use ziv_telemetry::{CampaignCounters, TelemetryReader, TelemetryWriter};
//!
//! let dir = std::env::temp_dir().join(format!("ziv-tele-doc-{}", std::process::id()));
//! let writer = TelemetryWriter::create(&dir, 2).unwrap();
//! writer.publish_heartbeat(1, false, 0);
//! writer.publish_campaign(&CampaignCounters { total: 4, ..Default::default() });
//!
//! let reader = TelemetryReader::open(&writer.path().to_path_buf()).unwrap();
//! let snap = reader.snapshot().unwrap();
//! assert_eq!(snap.campaign.total, 4);
//! assert!(!snap.heartbeat.finished);
//! # drop(reader); drop(writer); std::fs::remove_dir_all(&dir).ok();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod layout;
pub mod map;
pub mod reader;
pub mod writer;

pub use map::{process_alive, SharedMap};
pub use reader::{CampaignSnap, Heartbeat, Snapshot, TelemetryReader, WorkerSnap};
pub use writer::{CampaignCounters, TelemetryWriter, WorkerRecord, SEGMENT_FILE};
