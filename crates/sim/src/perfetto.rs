//! Chrome trace-event / Perfetto export of a run's observability
//! payload (DESIGN.md §15).
//!
//! [`perfetto_to_json`] renders each observed cell as one trace-event
//! *process* inside a single `{"traceEvents": [...]}` document that
//! loads directly into <https://ui.perfetto.dev> or
//! `chrome://tracing`:
//!
//! - `"M"` metadata events name each process `"<config> / <workload>"`
//!   and give every core its own thread track;
//! - the self-profiler's sections become `"X"` duration events laid
//!   end-to-end on a dedicated `profile` track (span length = accumulated
//!   wall time in µs);
//! - each epoch sample becomes `"C"` counter events (`inclusion_victims`,
//!   `llc_misses`, `relocations`) with `ts` at the epoch's first access,
//!   so the counter tracks plot the run's time-series;
//! - flight-recorder ring events become instant `"X"` slices on their
//!   core's track at their simulation cycle, honoring the same
//!   [`EventFilter`] the `--events` flag feeds to the event trace;
//! - forensics causal chains become `"s"`/`"f"` *flow* events: the
//!   instigating eviction starts a flow (`id` = chain sequence) on the
//!   instigator core's track and each victimized core finishes it, so
//!   Perfetto draws an arrow from the eviction decision to every core
//!   it reached into.
//!
//! Timestamps are simulation cycles rendered as microseconds — a
//! visualization scale, not wall time.

use crate::csv::ObservedCell;
use ziv_common::json::JsonValue;
use ziv_core::forensics::CausalChain;
use ziv_core::observe::{EventFilter, METRICS_COLUMNS};
use ziv_core::ProfileSection;

/// The epoch counters exported as `"C"` counter tracks.
const COUNTER_COLUMNS: [&str; 3] = ["inclusion_victims", "llc_misses", "relocations"];

fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn metadata(name: &str, pid: u64, tid: Option<u64>, value: &str) -> JsonValue {
    let mut fields = vec![
        ("name", JsonValue::str(name)),
        ("ph", JsonValue::str("M")),
        ("pid", JsonValue::u64(pid)),
    ];
    if let Some(tid) = tid {
        fields.push(("tid", JsonValue::u64(tid)));
    }
    fields.push(("args", obj(vec![("name", JsonValue::str(value))])));
    obj(fields)
}

/// Thread id used for the profiler's duration track (cores occupy
/// tids `0..cores`, so the profile track sits above them).
const PROFILE_TID: u64 = 64;

fn chain_slice_name(chain: &CausalChain) -> String {
    format!(
        "{} evict line {:#x} ({})",
        chain.kind.label(),
        chain.line.raw(),
        chain.reason.label()
    )
}

/// Renders the observed cells into one Chrome trace-event JSON
/// document. Ring events are kept only when their kind passes
/// `filter` — the same filter `--events` builds via
/// [`EventFilter::parse`].
pub fn perfetto_to_json(cells: &[ObservedCell<'_>], filter: EventFilter) -> JsonValue {
    let mut events = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let pid = i as u64 + 1;
        let obs = cell.observations;
        events.push(metadata(
            "process_name",
            pid,
            None,
            &format!("{} / {}", cell.config, cell.workload),
        ));

        // Per-core thread tracks (cores named even when eventless, so
        // chain flows always land on a labelled track).
        let cores_seen = obs
            .events
            .iter()
            .filter_map(|e| e.core)
            .map(|c| c as u64 + 1)
            .chain(obs.forensics.iter().flat_map(|f| {
                f.chains
                    .iter()
                    .map(|c| c.instigator_core.index() as u64 + 1)
            }))
            .max()
            .unwrap_or(0);
        for core in 0..cores_seen {
            events.push(metadata(
                "thread_name",
                pid,
                Some(core),
                &format!("core {core}"),
            ));
        }

        // Profiler sections: end-to-end spans on their own track.
        if let Some(profile) = obs.profile.as_ref() {
            events.push(metadata("thread_name", pid, Some(PROFILE_TID), "profile"));
            let mut ts = 0u64;
            for section in ProfileSection::ALL {
                let dur = profile.nanos(section) / 1_000;
                if profile.calls(section) == 0 {
                    continue;
                }
                events.push(obj(vec![
                    ("name", JsonValue::str(section.label())),
                    ("cat", JsonValue::str("profile")),
                    ("ph", JsonValue::str("X")),
                    ("pid", JsonValue::u64(pid)),
                    ("tid", JsonValue::u64(PROFILE_TID)),
                    ("ts", JsonValue::u64(ts)),
                    ("dur", JsonValue::u64(dur.max(1))),
                    (
                        "args",
                        obj(vec![("calls", JsonValue::u64(profile.calls(section)))]),
                    ),
                ]));
                ts += dur.max(1);
            }
        }

        // Epoch counter tracks.
        for epoch in &obs.epochs {
            for col in COUNTER_COLUMNS {
                let Some(idx) = METRICS_COLUMNS.iter().position(|c| *c == col) else {
                    continue;
                };
                let delta = epoch.global[idx].max(0) as u64;
                events.push(obj(vec![
                    ("name", JsonValue::str(col)),
                    ("ph", JsonValue::str("C")),
                    ("pid", JsonValue::u64(pid)),
                    ("ts", JsonValue::u64(epoch.start_access)),
                    ("args", obj(vec![(col, JsonValue::u64(delta))])),
                ]));
            }
        }

        // Flight-recorder ring events, `--events`-filtered.
        for ev in obs.events.iter().filter(|e| filter.contains(e.kind)) {
            let tid = ev.core.map(|c| c as u64).unwrap_or(0);
            let mut args = vec![("line", JsonValue::u64(ev.line))];
            if let Some(bank) = ev.bank {
                args.push(("bank", JsonValue::u64(bank as u64)));
            }
            if let Some(set) = ev.set {
                args.push(("set", JsonValue::u64(set as u64)));
            }
            if let Some(way) = ev.way {
                args.push(("way", JsonValue::u64(way as u64)));
            }
            events.push(obj(vec![
                ("name", JsonValue::str(ev.kind.label())),
                ("cat", JsonValue::str("events")),
                ("ph", JsonValue::str("X")),
                ("pid", JsonValue::u64(pid)),
                ("tid", JsonValue::u64(tid)),
                ("ts", JsonValue::u64(ev.cycle)),
                ("dur", JsonValue::u64(1)),
                ("args", obj(args)),
            ]));
        }

        // Causal chains as flow arrows: instigator slice starts the
        // flow, each victim core's slice finishes it.
        if let Some(forensics) = obs.forensics.as_ref() {
            for chain in &forensics.chains {
                let name = chain_slice_name(chain);
                let itid = chain.instigator_core.index() as u64;
                events.push(obj(vec![
                    ("name", JsonValue::str(name.as_str())),
                    ("cat", JsonValue::str("forensics")),
                    ("ph", JsonValue::str("X")),
                    ("pid", JsonValue::u64(pid)),
                    ("tid", JsonValue::u64(itid)),
                    ("ts", JsonValue::u64(chain.cycle)),
                    ("dur", JsonValue::u64(1)),
                    (
                        "args",
                        obj(vec![
                            ("access", JsonValue::u64(chain.instigator_access)),
                            ("victims", JsonValue::u64(chain.victim_count as u64)),
                            ("refetch_cycles", JsonValue::u64(chain.refetch_cycles)),
                        ]),
                    ),
                ]));
                events.push(obj(vec![
                    ("name", JsonValue::str("chain")),
                    ("cat", JsonValue::str("forensics")),
                    ("ph", JsonValue::str("s")),
                    ("id", JsonValue::u64(chain.seq)),
                    ("pid", JsonValue::u64(pid)),
                    ("tid", JsonValue::u64(itid)),
                    ("ts", JsonValue::u64(chain.cycle)),
                ]));
                for victim in 0..64u64 {
                    if chain.victim_mask & (1 << victim) == 0 {
                        continue;
                    }
                    events.push(obj(vec![
                        ("name", JsonValue::str("back-invalidated")),
                        ("cat", JsonValue::str("forensics")),
                        ("ph", JsonValue::str("X")),
                        ("pid", JsonValue::u64(pid)),
                        ("tid", JsonValue::u64(victim)),
                        ("ts", JsonValue::u64(chain.cycle + 1)),
                        ("dur", JsonValue::u64(1)),
                        (
                            "args",
                            obj(vec![("line", JsonValue::u64(chain.line.raw()))]),
                        ),
                    ]));
                    events.push(obj(vec![
                        ("name", JsonValue::str("chain")),
                        ("cat", JsonValue::str("forensics")),
                        ("ph", JsonValue::str("f")),
                        ("bp", JsonValue::str("e")),
                        ("id", JsonValue::u64(chain.seq)),
                        ("pid", JsonValue::u64(pid)),
                        ("tid", JsonValue::u64(victim)),
                        ("ts", JsonValue::u64(chain.cycle + 1)),
                    ]));
                }
            }
        }
    }
    obj(vec![
        ("traceEvents", JsonValue::Arr(events)),
        ("displayTimeUnit", JsonValue::str("ns")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use ziv_common::{json, CoreId, LineAddr};
    use ziv_core::forensics::ChainKind;
    use ziv_core::llc::VictimReason;
    use ziv_core::observe::{
        EventKind, FlightRecorder, HierarchyEvent, Observations, ObserveConfig, TearOut, TraceEvent,
    };
    use ziv_directory::SharerSet;

    fn observations_with_chain() -> Observations {
        let cfg = ObserveConfig {
            forensics: true,
            ..ObserveConfig::disabled()
        };
        let mut rec = FlightRecorder::new(&cfg, 2, 2, 4).expect("recorder on");
        let tear_out = TearOut {
            kind: ChainKind::Inclusive,
            line: LineAddr::new(0x33),
            loc: None,
            instigator: CoreId::new(0),
            reason: VictimReason::Baseline,
            victims: SharerSet::single(CoreId::new(1)),
        };
        rec.observe(7, 70, HierarchyEvent::TearOut(tear_out));
        Observations {
            epochs: Vec::new(),
            events: vec![
                TraceEvent {
                    kind: EventKind::Fill,
                    access_index: 1,
                    cycle: 10,
                    line: 0x33,
                    core: Some(0),
                    bank: Some(1),
                    set: Some(3),
                    way: Some(0),
                },
                TraceEvent {
                    kind: EventKind::BackInvalidation,
                    access_index: 7,
                    cycle: 70,
                    line: 0x33,
                    core: Some(1),
                    bank: Some(1),
                    set: Some(3),
                    way: None,
                },
            ],
            events_recorded: 2,
            heatmap: None,
            latency: None,
            leakage: None,
            forensics: rec.finish().forensics,
            profile: None,
            dir_slice_occupancy: Vec::new(),
        }
    }

    fn phases(doc: &JsonValue) -> Vec<String> {
        doc.get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|e| e.get("ph").unwrap().as_str().unwrap().to_string())
            .collect()
    }

    #[test]
    fn trace_round_trips_and_carries_flow_events() {
        let obs = observations_with_chain();
        let cells = [ObservedCell {
            config: "I-LRU",
            workload: "mix0",
            observations: &obs,
        }];
        let doc = perfetto_to_json(&cells, EventFilter::all());
        let text = doc.to_string();
        let back = json::parse(&text).expect("valid JSON");
        let ph = phases(&back);
        assert!(ph.contains(&"M".to_string()), "process metadata");
        assert!(ph.contains(&"s".to_string()), "flow start");
        assert!(ph.contains(&"f".to_string()), "flow finish");
        // 2 ring events + 1 chain slice + 1 victim slice.
        assert_eq!(ph.iter().filter(|p| *p == "X").count(), 4);
    }

    #[test]
    fn event_filter_prunes_ring_events_but_not_chains() {
        let obs = observations_with_chain();
        let cells = [ObservedCell {
            config: "I-LRU",
            workload: "mix0",
            observations: &obs,
        }];
        let filtered = perfetto_to_json(
            &cells,
            EventFilter::none().with(EventKind::BackInvalidation),
        );
        let text = filtered.to_string();
        assert!(!text.contains("\"fill\""), "fill events pruned");
        assert!(text.contains("back_invalidation") || text.contains("back-invalidated"));
        assert!(text.contains("\"s\""), "chains survive filtering");
    }

    #[test]
    fn write_creates_parseable_file() {
        let obs = observations_with_chain();
        let cells = [ObservedCell {
            config: "I-LRU",
            workload: "mix0",
            observations: &obs,
        }];
        let dir = std::env::temp_dir().join(format!("ziv-perfetto-{}", std::process::id()));
        let path = dir.join("trace.json");
        let doc = perfetto_to_json(&cells, EventFilter::all());
        ziv_common::fsutil::write_file(&path, "perfetto trace", |w| writeln!(w, "{doc}")).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        json::parse(&text).expect("file is valid JSON");
        std::fs::remove_dir_all(&dir).ok();
    }
}
