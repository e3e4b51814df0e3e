//! Byte-level pins of every observation export.
//!
//! Each cell below runs once through `run_one_instrumented` with every
//! deterministic capture on — epoch slicing, an event ring large enough
//! to keep every event, heatmaps, latency attribution, leakage and
//! forensics (the wall-clock profiler stays off) — and writes its
//! captures through the same exporters a campaign uses. One FNV-1a
//! digest per exported file is compared against the constants below,
//! so any change to what the hierarchy reports to its observers, or in
//! what order, shows up as a named file of a named cell.
//!
//! On a mismatch the test prints the whole table as computed, ready to
//! paste once a change in the exports is intended.

use std::fs;
use std::path::{Path, PathBuf};
use ziv::common::digest::Fnv1a;
use ziv::common::fsutil::write_file;
use ziv::prelude::*;
use ziv::sim::{
    blame_to_csv, heatmap_to_csv, latency_to_csv, leakage_to_csv, perfetto_to_json,
    run_one_instrumented, timeseries_to_csv, EventFilter, EventTraceConfig, Observations,
    ObserveConfig, ObservedCell, RunOptions,
};
use ziv::workloads::attack::{self, AttackRecipe};
use ziv::workloads::AttackPlan;

/// Ring capacity: comfortably above the events any cell here records,
/// so the ring export is the whole stream, not its tail.
const RING: usize = 1 << 20;

/// Every deterministic capture on (the profiler records wall-clock
/// time, so it stays off).
fn capture_all() -> ObserveConfig {
    ObserveConfig {
        epoch: Some(4_096),
        events: Some(EventTraceConfig {
            capacity: RING,
            filter: EventFilter::all(),
        }),
        heatmap: true,
        latency: true,
        profile: false,
        leakage: true,
        forensics: true,
    }
}

/// Inclusion-victim-heavy mix: private-cache-resident hot sets whose
/// LLC copies decay to LRU, plus streaming cores that keep evicting
/// them (the mix `tests/forensics.rs` uses).
fn victim_heavy(sys: &SystemConfig) -> Workload {
    let sc = ScaleParams::from_system(sys);
    let hot = mixes::homogeneous(apps::app_by_name("hotl2").unwrap(), 2, 60_000, 3, sc);
    let stream = mixes::homogeneous(apps::app_by_name("stream").unwrap(), 4, 10_000, 5, sc);
    let mut traces = hot.traces;
    traces.extend(stream.traces.into_iter().skip(2));
    Workload {
        name: "hot-vs-stream".into(),
        traces,
        attack: None,
    }
}

/// The victim-heavy mix with an attack plan that makes hot core 0 the
/// attacker and probes every LLC set, so the leakage observatory
/// classifies every one of core 0's refetches.
fn victim_heavy_probed(sys: &SystemConfig) -> Workload {
    let mut wl = victim_heavy(sys);
    let flat_sets = (sys.llc.banks * sys.llc.bank_geometry.sets as usize) as u64;
    wl.name = "hot-vs-stream-probed".into();
    wl.attack = Some(AttackPlan {
        attacker_cores: vec![0],
        victim_cores: vec![1],
        probe_lines: (0..flat_sets).collect(),
    });
    wl
}

/// A prime+probe co-schedule: an attack workload, so it attaches the
/// leakage observatory.
fn prime_probe(sys: &SystemConfig) -> Workload {
    attack::generate(
        AttackRecipe::prime_probe(8),
        4,
        2_000,
        7,
        ScaleParams::from_system(sys),
    )
}

/// The exported files, in the column order of [`PINS`].
const FILES: [&str; 6] = [
    "timeseries.csv",
    "heatmap.csv",
    "latency.csv",
    "leakage.csv",
    "blame.csv",
    "trace.json",
];

/// `(cell, digests of FILES)`, generated before the hierarchy reported
/// to its observers through one event stream.
#[rustfmt::skip]
const PINS: &[(&str, [u64; 6])] = &[
    ("I-LRU/hot-vs-stream", [0x7427e228fac85591, 0x813a55f7dcc0c6cc, 0xd2c8e7feac0b5c66, 0xa221bae77945ff46, 0x91d0f3ab8f85889f, 0x8f0cf862ad7b7c24]),
    ("ECI-LRU/hot-vs-stream", [0x76af0b2a8fb4fd92, 0xa1b45119d07150e6, 0xf4712dbd5b04836e, 0xa221bae77945ff46, 0xadac0a98415ce48a, 0xb6a8aa6063b572d8]),
    ("QBS-LRU/hot-vs-stream", [0x34357ece6b6cf598, 0xcb1c57c576e92ec4, 0x154d73f9c800dcba, 0xa221bae77945ff46, 0x7840b9be4298d985, 0xe2b1806ce789e5b3]),
    ("SHARP-LRU/hot-vs-stream", [0x9f3ff2e4f6e494d4, 0x3955565c0bef6014, 0x7e794c44aac9c286, 0xa221bae77945ff46, 0xfa7ed471af245185, 0x7073059de4aee42f]),
    ("ZIV-LikelyDead-LRU/hot-vs-stream", [0xa2eac932adc0573d, 0x3cd9825de0a22ca6, 0x5e5f0ad3c5325435, 0xa221bae77945ff46, 0x7cfb60294d462c45, 0x342043e694964950]),
    ("I-Hawkeye/hot-vs-stream", [0xbcb71df24feacf44, 0xe5d3194bd7ff32f9, 0xde89977a0ef26087, 0xa221bae77945ff46, 0x7d8e6fdec1798b2b, 0xe1597da70929f0b4]),
    ("I-LRU/attack-primeprobe", [0xc44fe8b524ff51d1, 0x27d92e762388b47c, 0x858ccad1b0a0379a, 0xd6cd09efd9e8797d, 0x132702c99ed4e51a, 0x509ad7d2b3065ae1]),
    ("ECI-LRU/attack-primeprobe", [0x58b3caf637aaad6b, 0x262e46c3f4548e9b, 0x6150633e3167e18e, 0x2777ab302850ec65, 0x58bcf064a29932c1, 0x05c88fbc20fe57a4]),
    ("QBS-LRU/attack-primeprobe", [0xed0cc10f5869b6bc, 0x4fc64a4bef9009e1, 0x8413cb6d80618c62, 0xb706079944784321, 0xf1548ffe713d67e5, 0x06a1fb8ee8167500]),
    ("SHARP-LRU/attack-primeprobe", [0x95fe4063deb2022c, 0x97854bcc4fe16931, 0x9c1cf4d3cf7aac4a, 0xfe002afbc446a225, 0x616ae17460fe8c75, 0xa65baca7e3a318fc]),
    ("ZIV-LikelyDead-LRU/attack-primeprobe", [0x86070451515d2e03, 0x941652b8d441d53f, 0xbd8cb19b46bb0c64, 0x571bc0d2b25a8ce3, 0xdd19d404f4e6e30d, 0x61f264de75ef8769]),
    ("I-Hawkeye/attack-primeprobe", [0xfcadb1cbedd4cfb2, 0x727a35cf2a36e54d, 0x7018bbad414c23de, 0xcfdefbcda6232bd7, 0xd712307cd7e668f5, 0x7e1dc188fc7ec631]),
    ("ECI-LRU/hot-vs-stream-probed", [0xaef699b9392d52c0, 0x559592b029e1701e, 0xfff03b54779392c7, 0x68ce00cf2fea2f71, 0xffffef5279745950, 0xae9a3eebe4678acf]),
    ("ECI-LRU-no-latency/hot-vs-stream-probed", [0xaef699b9392d52c0, 0x559592b029e1701e, 0xcddb002dfa830609, 0xe8b13582ba014c6a, 0xffffef5279745950, 0xae9a3eebe4678acf]),
];

fn digest_file(path: &Path) -> u64 {
    let bytes = fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let mut h = Fnv1a::new();
    h.write_bytes(&bytes);
    h.finish()
}

/// Writes `obs` through every exporter into `dir` and digests each file.
fn export_digests(dir: &Path, config: &str, workload: &str, obs: &Observations) -> [u64; 6] {
    let cells = [ObservedCell {
        config,
        workload,
        observations: obs,
    }];
    let path = |name: &str| dir.join(name);
    let cells = &cells[..];
    write_file(path(FILES[0]), "timeseries CSV", |w| {
        timeseries_to_csv(cells, w)
    })
    .unwrap();
    write_file(path(FILES[1]), "heatmap CSV", |w| heatmap_to_csv(cells, w)).unwrap();
    write_file(path(FILES[2]), "latency CSV", |w| latency_to_csv(cells, w)).unwrap();
    write_file(path(FILES[3]), "leakage CSV", |w| leakage_to_csv(cells, w)).unwrap();
    write_file(path(FILES[4]), "blame CSV", |w| blame_to_csv(cells, w)).unwrap();
    let trace = perfetto_to_json(cells, EventFilter::all());
    write_file(path(FILES[5]), "perfetto trace", |w| writeln!(w, "{trace}")).unwrap();
    FILES.map(|name| digest_file(&path(name)))
}

struct Cell {
    label: String,
    spec: RunSpec,
    workload: Workload,
    observe: ObserveConfig,
}

fn cells() -> Vec<Cell> {
    let sys = SystemConfig::scaled();
    let workloads = [victim_heavy(&sys), prime_probe(&sys)];
    let modes = [
        (LlcMode::Inclusive, PolicyKind::Lru),
        (LlcMode::Eci, PolicyKind::Lru),
        (LlcMode::Qbs, PolicyKind::Lru),
        (LlcMode::Sharp, PolicyKind::Lru),
        (LlcMode::Ziv(ZivProperty::LikelyDead), PolicyKind::Lru),
        (LlcMode::Inclusive, PolicyKind::Hawkeye),
    ];
    let mut out = Vec::new();
    for wl in &workloads {
        for (mode, policy) in modes {
            let label = format!("{}-{}", mode.label(), policy.label());
            out.push(Cell {
                label: format!("{label}/{}", wl.name),
                spec: RunSpec::new(&label, sys.clone())
                    .with_mode(mode)
                    .with_policy(policy),
                workload: wl.clone(),
                observe: capture_all(),
            });
        }
    }
    // Leakage with and without latency: only the latency observer
    // reclassifies a refetch as an inclusion-victim refetch, so the
    // second cell pins the class leakage sees when latency attribution
    // is off. ECI tear-outs leave the LLC copy, so core 0's refetches
    // hit the LLC and the two classes differ.
    let probed = victim_heavy_probed(&sys);
    for (label, latency) in [("ECI-LRU", true), ("ECI-LRU-no-latency", false)] {
        out.push(Cell {
            label: format!("{label}/{}", probed.name),
            spec: RunSpec::new("ECI-LRU", sys.clone()).with_mode(LlcMode::Eci),
            workload: probed.clone(),
            observe: ObserveConfig {
                latency,
                ..capture_all()
            },
        });
    }
    out
}

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir()
        .join("ziv-observation-pins")
        .join(std::process::id().to_string());
    fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn observation_exports_match_their_pins() {
    let base = temp_dir();
    let mut computed = Vec::new();
    let (mut inclusive_chains, mut eci_chains) = (0, 0);
    for (i, cell) in cells().iter().enumerate() {
        let opts = RunOptions {
            observe: cell.observe,
            ..RunOptions::default()
        };
        let (result, obs) = run_one_instrumented(&cell.spec, &cell.workload, &opts, None, None);
        let result = result.unwrap_or_else(|e| panic!("{}: {e}", cell.label));
        let obs = obs.expect("observation was on");
        assert_eq!(
            obs.events_recorded,
            obs.events.len() as u64,
            "{}: the ring must keep every event",
            cell.label
        );
        let forensics = obs.forensics.as_ref().expect("forensics on");
        assert_eq!(
            forensics.total_victims(),
            result.metrics.inclusion_victims,
            "{}",
            cell.label
        );
        inclusive_chains += forensics.inclusive_chains;
        eci_chains += forensics.eci_chains;
        let dir = base.join(i.to_string());
        let digests = export_digests(&dir, &cell.spec.label, &cell.workload.name, &obs);
        computed.push((cell.label.clone(), digests));
    }
    fs::remove_dir_all(&base).ok();
    assert!(
        inclusive_chains > 0 && eci_chains > 0,
        "the pinned set must cover both tear-out sites"
    );
    let leakage = |i: usize| computed[computed.len() - i].1[3];
    assert_ne!(
        leakage(1),
        leakage(2),
        "the latency-off cell must see refetches in their unreclassified class"
    );

    let table: String = computed
        .iter()
        .map(|(label, d)| {
            let hex: Vec<String> = d.iter().map(|x| format!("{x:#018x}")).collect();
            format!("    (\"{label}\", [{}]),\n", hex.join(", "))
        })
        .collect();
    assert_eq!(
        computed.len(),
        PINS.len(),
        "pin table out of date; computed:\n{table}"
    );
    for ((label, digests), (pin_label, pins)) in computed.iter().zip(PINS) {
        assert_eq!(label, pin_label, "cell order changed; computed:\n{table}");
        for (file, (got, want)) in FILES.iter().zip(digests.iter().zip(pins)) {
            assert_eq!(got, want, "{label}: {file} changed; computed:\n{table}");
        }
    }
}
