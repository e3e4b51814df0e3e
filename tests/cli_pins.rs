//! Byte-level pins of `zivsim`'s standard output.
//!
//! Each command line below runs the `zivsim` binary at `ZIV_FAST=1` and
//! tiny sizes; one FNV-1a digest of its stdout is compared against the
//! constant next to it, so a change to what any command prints, or to
//! how a flag or name is parsed, shows up as a named command line.
//! `profile` is left out: it prints wall-clock times.
//!
//! On a mismatch the test prints the whole table as computed, ready to
//! paste once a change in the output is intended.

use ziv::common::digest::Fnv1a;

/// Every pinned command line and the digest of its stdout.
#[rustfmt::skip]
const PINS: &[(&str, u64)] = &[
    ("help", 0xa2c4882717dca755),
    ("list", 0x7a78e8aff67f1433),
    ("run --cores 2 --accesses 400", 0x0947d9a87d1ca2c8),
    ("run --mode ziv-likelydead --policy hawkeye --l2 512 --workload homo:circset --seed 7 --forensics --cores 2 --accesses 400", 0xcfba85d40da04db9),
    ("run --mode NI --l2 1m --workload mt:facesim --prefetch --audit every-access --cores 2 --accesses 400", 0x49f50382e733fdc4),
    ("run --mode tlh --workload hetero:5 --paper-scale --cell-budget 100000000 --cores 2 --accesses 400", 0x1c5a7f3cde6f4b18),
    ("compare --cores 2 --accesses 400", 0x692ff7323689d636),
    ("compare --policy SHiP --workload hetero:3 --cores 2 --accesses 400", 0xc73abd19786a9002),
    ("trace --cores 2 --accesses 400", 0x24e19262190eb156),
    ("trace ziv-likelydead --workload hetero:0 --events fill,relocation --last 16 --epoch 1000 --cores 8 --accesses 3000", 0x47b8014de9cbfd7d),
    ("trace --mode eci --perfetto --events eviction,back-invalidation --last 64 --workload hetero:0 --cores 8 --accesses 3000", 0x15d980331e0d28cc),
    ("blame --workload hetero:0 --cores 8 --accesses 6000", 0xe22f3a693ffd6df4),
    ("blame eci --workload hetero:0 --cores 8 --accesses 6000", 0x9c1e1cbe1bf614d0),
    ("blame ziv-likelydead --workload hetero:0 --cores 4 --accesses 2000", 0x69bdef9b173bb86c),
    ("attack --cores 2 --accesses 3000", 0x6914ac0c0ade0deb),
    ("attack hammer --mode ziv-likelydead --sets 4 --cores 4 --accesses 3000", 0xecb72920e4d5c7e2),
    ("attack hammer --policy hawkeye --seed 11 --cores 4 --accesses 3000", 0xef07c3567c4d4d52),
    ("sample --cores 2 --accesses 400", 0x73d61a21b3d4d656),
    ("sample qbs --sampling interval=64,gap=192 --cores 2 --accesses 2000", 0xd9051ad53629fc59),
    ("sample --mode sharp --policy srrip --cores 2 --accesses 400", 0x434df1f12a08dc80),
];

fn stdout_digest(args: &str) -> u64 {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_zivsim"))
        .args(args.split_whitespace())
        .env("ZIV_FAST", "1")
        .env_remove("ZIV_FULL")
        .current_dir(std::env::temp_dir())
        .output()
        .expect("zivsim runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "`zivsim {args}` failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut h = Fnv1a::new();
    h.write_bytes(&out.stdout);
    h.finish()
}

#[test]
fn cli_output_matches_its_pins() {
    let computed: Vec<(&str, u64)> = PINS
        .iter()
        .map(|&(args, _)| (args, stdout_digest(args)))
        .collect();
    let table: String = computed
        .iter()
        .map(|(args, d)| format!("    ({args:?}, {d:#018x}),\n"))
        .collect();
    for ((args, got), (_, want)) in computed.iter().zip(PINS) {
        assert_eq!(got, want, "`zivsim {args}` changed; computed:\n{table}");
    }
}
