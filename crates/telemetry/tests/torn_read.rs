//! The concurrent torn-read drill: one writer thread hammers the
//! segment at full speed while a reader snapshots it, and every
//! snapshot that comes back must be internally consistent.
//!
//! The writer encodes each record's payload as a function of its
//! generation (worker counters all derive from `generation`), so a
//! torn read — a mix of two generations slipping through the seqlock —
//! cannot pass the consistency predicate by luck. The host may be
//! single-core; the drill is kept to exactly two threads and bounded
//! by wall clock, not iteration counts.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use ziv_telemetry::{CampaignCounters, TelemetryReader, TelemetryWriter, SEGMENT_FILE};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("ziv-torn-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// The generation-derived payload the writer publishes for step `g`.
/// Every field is a distinct affine function of `g`, so any mix of two
/// different generations breaks at least one of the cross-checks.
fn counters_for(g: u64) -> (u64, u64, u64) {
    (g * 256, g * 1000 + 7, g * 3 + 1)
}

/// The campaign record the writer publishes for step `g`.
fn campaign_for(g: u64) -> CampaignCounters {
    CampaignCounters {
        total: g + 10,
        cached: g,
        done: g,
        failed: 0,
        retried: 0,
        running: 1,
        eta_ms: Some(g),
    }
}

/// Stops the writer when dropped, so a failed reader assertion unwinds
/// into a failed test instead of leaving the scope waiting forever on a
/// writer that never sees `stop`.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

#[test]
fn concurrent_reader_never_sees_torn_records() {
    let dir = tmpdir("drill");
    // Generation 0 is published before the segment becomes visible, as
    // production writers do: a reader never sees zero-filled records.
    let writer = TelemetryWriter::create_with(&dir, 1, |w| {
        w.publish_heartbeat(0, false, 0);
        w.publish_campaign(&campaign_for(0));
    })
    .unwrap();
    let stop = AtomicBool::new(false);
    let deadline = Instant::now() + Duration::from_millis(800);

    std::thread::scope(|scope| {
        let writer = &writer;
        let stop = &stop;
        scope.spawn(move || {
            let record = writer.worker(0);
            let mut g = 0u64;
            while !stop.load(Ordering::Acquire) {
                g += 1;
                record.begin_cell(g, g + 1, 1, g * 4096, &format!("gen-{g}"), "drill");
                let (access, instructions, relocations) = counters_for(g);
                record.publish_progress(access, instructions, 0, 0, 0, 0, relocations, 0);
                writer.publish_heartbeat(g, false, g);
                writer.publish_campaign(&campaign_for(g));
                // On a single-core host, yield between iterations so the
                // reader's timeslices land outside write sections often
                // enough to make the drill meaningful.
                std::thread::yield_now();
            }
        });

        let stop_writer = StopOnDrop(stop);
        let reader = TelemetryReader::open(&dir.join(SEGMENT_FILE)).unwrap();
        let mut consistent = 0u64;
        let mut torn_skipped = 0u64;
        let mut last_heartbeat = 0u64;
        while Instant::now() < deadline {
            match reader.snapshot() {
                None => torn_skipped += 1, // caught mid-write: correct refusal
                Some(snap) => {
                    consistent += 1;
                    // Heartbeat ticks only move forward.
                    assert!(
                        snap.heartbeat.tick >= last_heartbeat,
                        "heartbeat went backwards: {} after {}",
                        snap.heartbeat.tick,
                        last_heartbeat
                    );
                    last_heartbeat = snap.heartbeat.tick;
                    // Campaign record: every field derives from one g.
                    let g = snap.campaign.cached;
                    assert_eq!(snap.campaign.total, g + 10, "torn campaign record");
                    assert_eq!(snap.campaign.done, g, "torn campaign record");
                    assert_eq!(snap.campaign.eta_ms, Some(g), "torn campaign record");
                    // Worker record: label, identity words, and counters
                    // must all belong to the same generation.
                    let w = &snap.workers[0];
                    if w.generation > 0 {
                        let g = w.spec_index;
                        assert_eq!(w.workload_index, g + 1, "torn worker identity");
                        assert_eq!(w.label, format!("gen-{g}"), "torn worker label");
                        assert_eq!(w.expected_accesses, g * 4096, "torn worker identity");
                        let (access, instructions, relocations) = counters_for(g);
                        // begin_cell zeroes the counters; publish_progress
                        // fills them. Both states are consistent — a mix
                        // is not.
                        let zeroed = w.access_index == 0 && w.instructions == 0;
                        let filled = w.access_index == access
                            && w.instructions == instructions
                            && w.relocations == relocations;
                        assert!(
                            zeroed || filled,
                            "torn worker counters at generation {g}: \
                             access={} instructions={} relocations={}",
                            w.access_index,
                            w.instructions,
                            w.relocations
                        );
                    }
                }
            }
        }
        drop(stop_writer);
        // The drill only proves something if reads actually happened
        // while the writer was live; torn refusals are allowed but
        // consistent snapshots must dominate eventually.
        assert!(
            consistent > 10,
            "reader starved: {consistent} consistent snapshots, {torn_skipped} torn"
        );
    });

    std::fs::remove_dir_all(&dir).ok();
}
