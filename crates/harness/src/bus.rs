//! The campaign side of the live telemetry bus.
//!
//! [`CampaignBus`] owns the shared-memory [`TelemetryWriter`] for one
//! campaign and the single **ticker thread** that publishes the
//! heartbeat and campaign records (and, with `--progress jsonl`, one
//! structured heartbeat line per tick to stderr). Worker threads never
//! touch those records: each pool worker gets its own [`WorkerProbe`] —
//! the [`TelemetryProbe`] implementation handed through
//! `run_cells_supervised` into the sim drivers, full or sampled — that
//! writes only its own worker record, preserving the seqlock
//! single-writer-per-record discipline end to end. A single-threaded
//! session (`zivsim sample`) starts a one-worker bus and uses worker
//! probe 0.
//!
//! The bus is pure observability: it writes only `telemetry.shm` (and
//! stderr), reads nothing back into the campaign, and is skipped
//! entirely — `CampaignBus::start` returns `None` — when both
//! telemetry and JSONL progress are off, so unwatched campaigns carry
//! zero extra threads, allocations, or syscalls.

use crate::telemetry::EtaEstimator;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use ziv_common::json::JsonValue;
use ziv_common::SimError;
use ziv_core::observe::{ProbeSnapshot, SamplingProgress, TelemetryProbe};
use ziv_telemetry::{CampaignCounters, TelemetryWriter, WorkerRecord};

/// What the bus should publish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusOptions {
    /// Map and write the `telemetry.shm` segment.
    pub telemetry: bool,
    /// Emit one JSONL heartbeat line per tick to stderr.
    pub progress_jsonl: bool,
    /// Ticker cadence.
    pub tick: Duration,
}

impl Default for BusOptions {
    fn default() -> Self {
        BusOptions {
            telemetry: false,
            progress_jsonl: false,
            tick: Duration::from_millis(200),
        }
    }
}

#[derive(Debug, Default)]
struct Counters {
    done: AtomicU64,
    failed: AtomicU64,
    running: AtomicU64,
}

#[derive(Debug)]
struct Shared {
    total: u64,
    cached: u64,
    counters: Counters,
    eta: Mutex<EtaEstimator>,
    stop: AtomicBool,
    started: Instant,
}

impl Shared {
    fn snapshot(&self) -> CampaignCounters {
        let done = self.counters.done.load(Ordering::Relaxed);
        let failed = self.counters.failed.load(Ordering::Relaxed);
        let remaining = self.total.saturating_sub(done + failed) as usize;
        let eta_ms = self
            .eta
            .lock()
            .expect("eta estimator poisoned")
            .eta(self.started.elapsed(), remaining)
            .map(|d| d.as_millis() as u64);
        CampaignCounters {
            total: self.total,
            cached: self.cached,
            done,
            failed,
            running: self.counters.running.load(Ordering::Relaxed),
            eta_ms,
        }
    }
}

fn jsonl_line(tick: u64, elapsed_ms: u64, finished: bool, c: &CampaignCounters) -> String {
    JsonValue::Obj(vec![
        ("type".into(), JsonValue::str("progress")),
        ("tick".into(), JsonValue::u64(tick)),
        ("elapsed_ms".into(), JsonValue::u64(elapsed_ms)),
        ("finished".into(), JsonValue::Bool(finished)),
        ("done".into(), JsonValue::u64(c.done)),
        ("total".into(), JsonValue::u64(c.total)),
        ("cached".into(), JsonValue::u64(c.cached)),
        ("failed".into(), JsonValue::u64(c.failed)),
        ("running".into(), JsonValue::u64(c.running)),
        (
            "eta_ms".into(),
            c.eta_ms.map_or(JsonValue::Null, JsonValue::u64),
        ),
    ])
    .to_string()
}

/// Live telemetry publisher for one campaign (or soak pass, or paired
/// sampling session). See the module docs for the threading model.
#[derive(Debug)]
pub struct CampaignBus {
    writer: Option<Arc<TelemetryWriter>>,
    shared: Arc<Shared>,
    ticker: Option<std::thread::JoinHandle<()>>,
    n_workers: usize,
}

impl CampaignBus {
    /// Start the bus: create the segment (when telemetry is on) and the
    /// ticker thread. Returns `Ok(None)` when both outputs are off —
    /// the zero-cost path.
    pub fn start(
        results_dir: &std::path::Path,
        n_workers: usize,
        total: usize,
        cached: usize,
        opts: &BusOptions,
    ) -> Result<Option<CampaignBus>, SimError> {
        if !opts.telemetry && !opts.progress_jsonl {
            return Ok(None);
        }
        let n_workers = n_workers.max(1);
        let shared = Arc::new(Shared {
            total: total as u64,
            cached: cached as u64,
            counters: Counters {
                done: AtomicU64::new(cached as u64),
                ..Counters::default()
            },
            eta: Mutex::new(EtaEstimator::new(EtaEstimator::DEFAULT_WINDOW)),
            stop: AtomicBool::new(false),
            started: Instant::now(),
        });
        let writer = if opts.telemetry {
            // Publish the initial records before the segment becomes
            // visible: a watcher that wins the race to open it must read
            // the real grid size, never zero-filled placeholders.
            let initial = shared.snapshot();
            Some(Arc::new(TelemetryWriter::create_with(
                results_dir,
                n_workers,
                |w| {
                    w.publish_heartbeat(0, false, 0);
                    w.publish_campaign(&initial);
                },
            )?))
        } else {
            None
        };
        let ticker = {
            let writer = writer.clone();
            let shared = Arc::clone(&shared);
            let tick_len = opts.tick.max(Duration::from_millis(10));
            let jsonl = opts.progress_jsonl;
            std::thread::Builder::new()
                .name("ziv-telemetry-ticker".into())
                .spawn(move || {
                    let mut tick = 0u64;
                    loop {
                        tick += 1;
                        let c = shared.snapshot();
                        let elapsed_ms = shared.started.elapsed().as_millis() as u64;
                        if let Some(w) = writer.as_deref() {
                            w.publish_heartbeat(tick, false, elapsed_ms);
                            w.publish_campaign(&c);
                        }
                        if jsonl {
                            eprintln!("{}", jsonl_line(tick, elapsed_ms, false, &c));
                        }
                        if shared.stop.load(Ordering::Acquire) {
                            break;
                        }
                        std::thread::sleep(tick_len);
                    }
                })
                .map_err(|e| SimError::Internal(format!("spawn telemetry ticker: {e}")))?
        };
        Ok(Some(CampaignBus {
            writer,
            shared,
            ticker: Some(ticker),
            n_workers,
        }))
    }

    /// Per-worker probes to hand to `run_cells_supervised`, one per
    /// worker slot. `None` when the segment is off (JSONL-only bus).
    pub fn worker_probes(&self) -> Option<Vec<Box<dyn TelemetryProbe>>> {
        let writer = self.writer.as_ref()?;
        Some(
            (0..self.n_workers)
                .map(|i| Box::new(WorkerProbe::new(writer.worker(i))) as Box<dyn TelemetryProbe>)
                .collect(),
        )
    }

    /// A cell started executing on some worker.
    pub fn cell_started(&self) {
        self.shared.counters.running.fetch_add(1, Ordering::Relaxed);
    }

    /// A cell finished successfully.
    pub fn cell_finished(&self) {
        self.settle(&self.shared.counters.done);
    }

    /// A cell failed.
    pub fn cell_failed(&self) {
        self.settle(&self.shared.counters.failed);
    }

    fn settle(&self, bucket: &AtomicU64) {
        self.shared.counters.running.fetch_sub(1, Ordering::Relaxed);
        bucket.fetch_add(1, Ordering::Relaxed);
        self.shared
            .eta
            .lock()
            .expect("eta estimator poisoned")
            .record(self.shared.started.elapsed());
    }

    fn stop_ticker(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(t) = self.ticker.take() {
            let _ = t.join();
        }
    }

    /// Stop the ticker and publish the final (finished) state. Call
    /// after all result artifacts are written; readers treat the
    /// finished flag as "safe to stop polling, exit clean".
    pub fn finish(mut self) {
        self.stop_ticker();
        let c = self.shared.snapshot();
        let elapsed_ms = self.shared.started.elapsed().as_millis() as u64;
        // The final tick is one past whatever the ticker reached; its
        // exact value is irrelevant to readers (they key on the flag).
        if let Some(w) = self.writer.as_deref() {
            w.publish_campaign(&c);
            w.publish_heartbeat(u64::MAX, true, elapsed_ms);
        }
    }
}

impl Drop for CampaignBus {
    fn drop(&mut self) {
        // `finish` consumes self; reaching Drop with a live ticker means
        // the campaign errored out — stop the thread, leave the segment
        // unfinished (readers see a dead writer, which is the truth).
        self.stop_ticker();
    }
}

/// Per-worker [`TelemetryProbe`] over one worker record of the segment.
///
/// Owned by exactly one worker thread at a time (the seqlock
/// single-writer contract); `Sync` because the record words are
/// atomics, not because concurrent use is intended.
#[derive(Debug)]
pub struct WorkerProbe {
    record: WorkerRecord,
}

impl WorkerProbe {
    fn new(record: WorkerRecord) -> Self {
        WorkerProbe { record }
    }
}

impl TelemetryProbe for WorkerProbe {
    fn cell_begin(
        &self,
        spec_index: u64,
        workload_index: u64,
        expected_accesses: u64,
        label: &str,
        workload: &str,
    ) {
        self.record.begin_cell(
            spec_index,
            workload_index,
            expected_accesses,
            label,
            workload,
        );
    }

    fn publish_progress(&self, snap: &ProbeSnapshot) {
        self.record.publish_progress(
            snap.access_index,
            snap.instructions,
            snap.cycles,
            snap.llc_accesses,
            snap.llc_misses,
            snap.inclusion_victims,
            snap.relocations,
            snap.stratum,
        );
    }

    fn publish_sampling(&self, progress: &SamplingProgress) {
        self.record.publish_sampling(
            progress.intervals,
            progress.ipc_mean,
            progress.ipc_half_width,
        );
    }

    fn cell_end(&self) {
        self.record.end_cell();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ziv_telemetry::TelemetryReader;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("ziv-bus-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn off_bus_is_none() {
        let opts = BusOptions::default();
        let bus = CampaignBus::start(std::path::Path::new("/nonexistent"), 2, 4, 0, &opts).unwrap();
        assert!(bus.is_none(), "bus must not start when everything is off");
    }

    #[test]
    fn bus_publishes_counters_and_finished_flag() {
        let dir = tmpdir("counters");
        let opts = BusOptions {
            telemetry: true,
            tick: Duration::from_millis(20),
            ..BusOptions::default()
        };
        let bus = CampaignBus::start(&dir, 2, 6, 1, &opts).unwrap().unwrap();
        let probes = bus.worker_probes().unwrap();
        assert_eq!(probes.len(), 2);
        probes[0].cell_begin(0, 3, 1000, "ZIV", "mix_hot");
        bus.cell_started();
        probes[0].publish_progress(&ProbeSnapshot {
            access_index: 256,
            instructions: 300,
            ..ProbeSnapshot::default()
        });
        probes[0].cell_end();
        bus.cell_finished();

        let reader = TelemetryReader::open(&dir.join(ziv_telemetry::SEGMENT_FILE)).unwrap();
        bus.finish();
        let snap = reader.snapshot().expect("consistent snapshot");
        assert!(snap.heartbeat.finished);
        assert_eq!(snap.campaign.total, 6);
        assert_eq!(snap.campaign.cached, 1);
        assert_eq!(snap.campaign.done, 2); // cached + the finished cell
        assert_eq!(snap.campaign.running, 0);
        let w = &snap.workers[0];
        assert_eq!(w.label, "ZIV");
        assert_eq!(w.workload, "mix_hot");
        assert_eq!(w.workload_index, 3);
        assert_eq!(w.access_index, 256);
        assert_eq!(w.state, ziv_telemetry::layout::WORKER_DONE);
        assert_eq!(snap.writer_pid, std::process::id() as u64);
        drop(reader);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn jsonl_line_is_parseable_and_complete() {
        let c = CampaignCounters {
            total: 10,
            cached: 2,
            done: 5,
            failed: 1,
            running: 2,
            eta_ms: Some(1234),
        };
        let line = jsonl_line(7, 999, false, &c);
        let v = ziv_common::json::parse(&line).unwrap();
        assert_eq!(v.get("tick").and_then(JsonValue::as_u64), Some(7));
        assert_eq!(v.get("done").and_then(JsonValue::as_u64), Some(5));
        assert_eq!(v.get("eta_ms").and_then(JsonValue::as_u64), Some(1234));
        assert_eq!(v.get("finished").and_then(JsonValue::as_bool), Some(false));
        let none = jsonl_line(8, 1000, true, &CampaignCounters::default());
        let v = ziv_common::json::parse(&none).unwrap();
        assert!(matches!(v.get("eta_ms"), Some(JsonValue::Null)));
    }
}
