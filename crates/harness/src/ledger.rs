//! The content-addressed result cache: one JSON line per completed
//! cell in `results/ledger.jsonl`.
//!
//! Line format (hand-rolled via [`ziv_common::json`] — exact `u64`
//! round-trip, no dependencies):
//!
//! ```json
//! {"digest":"89ab...cdef","label":"I-LRU 256KB","workload":"homo-circset",
//!  "cores":[{"app":"circset","instructions":1,"cycles":2}],"metrics":{...}}
//! ```
//!
//! The file is append-only: a run killed mid-write leaves at most one
//! truncated final line, which [`Ledger::load`] skips (and counts), so
//! an interrupted campaign always resumes from its last *completed*
//! cell. Appends flush **and fsync** per line for exactly that reason:
//! once an append returns, the entry survives a kill -9 and a power
//! cut. [`Ledger::recover`] goes one step further than `load`: it
//! detects a torn tail (or any damaged line), drops exactly the
//! damaged bytes, and rewrites the file atomically (temp file, fsync,
//! then rename via [`ziv_common::fsutil::atomic_write`]) so later
//! appends cannot glue onto a dangling fragment and every later load
//! is clean.

use crate::campaign::CellDigest;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::sync::Mutex;
use ziv_common::json::{self, JsonValue};
use ziv_common::SimError;
use ziv_core::Metrics;
use ziv_sim::{CoreRunStats, RunResult};
use ziv_workloads::{apps, MtApp};

/// Maps an application name from a ledger line back to the `'static`
/// string [`CoreRunStats`] carries. Known generator names resolve to
/// their existing statics; unknown ones (e.g. a renamed app in an old
/// ledger) are interned once per process.
fn intern_app_name(name: &str) -> &'static str {
    if let Some(a) = apps::app_by_name(name) {
        return a.name;
    }
    if let Some(app) = MtApp::by_name(name) {
        return app.name();
    }
    static INTERNED: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut table = INTERNED.lock().unwrap();
    if let Some(&s) = table.iter().find(|&&s| s == name) {
        return s;
    }
    let s: &'static str = Box::leak(name.to_string().into_boxed_str());
    table.push(s);
    s
}

fn result_to_json(digest: CellDigest, r: &RunResult) -> JsonValue {
    let cores = r
        .cores
        .iter()
        .map(|c| {
            JsonValue::Obj(vec![
                ("app".to_string(), JsonValue::str(c.app_name)),
                ("instructions".to_string(), JsonValue::u64(c.instructions)),
                ("cycles".to_string(), JsonValue::u64(c.cycles)),
            ])
        })
        .collect();
    JsonValue::Obj(vec![
        ("digest".to_string(), JsonValue::str(digest.hex())),
        ("label".to_string(), JsonValue::str(&r.label)),
        ("workload".to_string(), JsonValue::str(&r.workload)),
        ("cores".to_string(), JsonValue::Arr(cores)),
        ("metrics".to_string(), r.metrics.to_json()),
    ])
}

fn result_from_json(v: &JsonValue) -> Result<(CellDigest, RunResult), String> {
    let digest = v
        .get("digest")
        .and_then(JsonValue::as_str)
        .and_then(CellDigest::from_hex)
        .ok_or("missing or malformed 'digest'")?;
    let label = v
        .get("label")
        .and_then(JsonValue::as_str)
        .ok_or("missing 'label'")?;
    let workload = v
        .get("workload")
        .and_then(JsonValue::as_str)
        .ok_or("missing 'workload'")?;
    let cores = v
        .get("cores")
        .and_then(JsonValue::as_array)
        .ok_or("missing 'cores'")?
        .iter()
        .map(|c| {
            Ok(CoreRunStats {
                instructions: c
                    .get("instructions")
                    .and_then(JsonValue::as_u64)
                    .ok_or("core missing 'instructions'")?,
                cycles: c
                    .get("cycles")
                    .and_then(JsonValue::as_u64)
                    .ok_or("core missing 'cycles'")?,
                app_name: intern_app_name(
                    c.get("app")
                        .and_then(JsonValue::as_str)
                        .ok_or("core missing 'app'")?,
                ),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let metrics = Metrics::from_json(v.get("metrics").ok_or("missing 'metrics'")?)?;
    Ok((
        digest,
        RunResult {
            label: label.to_string(),
            workload: workload.to_string(),
            cores,
            metrics,
        },
    ))
}

/// A failed cell as recorded in the ledger: the error's machine tag,
/// its rendered message, and — for audit violations and watchdog trips
/// — the access index at which it was detected.
///
/// A failure entry deliberately does **not** satisfy
/// [`Ledger::get`], so a `--resume` pass runs the cell again; it exists so
/// an interrupted campaign's post-mortem (`ledger.jsonl`) shows *why*
/// a cell has no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedCell {
    /// Spec label at the time of failure.
    pub label: String,
    /// Workload name at the time of failure.
    pub workload: String,
    /// [`SimError::kind_tag`] of the error.
    pub kind: String,
    /// Rendered error message.
    pub message: String,
    /// Access index of detection, when the failure is tied to one.
    pub access_index: Option<u64>,
}

fn error_to_json(digest: CellDigest, label: &str, workload: &str, error: &SimError) -> JsonValue {
    let mut err_fields = vec![
        ("kind".to_string(), JsonValue::str(error.kind_tag())),
        ("message".to_string(), JsonValue::str(error.to_string())),
    ];
    if let Some(idx) = error.access_index() {
        err_fields.push(("access_index".to_string(), JsonValue::u64(idx)));
    }
    JsonValue::Obj(vec![
        ("digest".to_string(), JsonValue::str(digest.hex())),
        ("label".to_string(), JsonValue::str(label)),
        ("workload".to_string(), JsonValue::str(workload)),
        ("error".to_string(), JsonValue::Obj(err_fields)),
    ])
}

fn error_from_json(v: &JsonValue) -> Result<(CellDigest, FailedCell), String> {
    let digest = v
        .get("digest")
        .and_then(JsonValue::as_str)
        .and_then(CellDigest::from_hex)
        .ok_or("missing or malformed 'digest'")?;
    let err = v.get("error").ok_or("missing 'error'")?;
    Ok((
        digest,
        FailedCell {
            label: v
                .get("label")
                .and_then(JsonValue::as_str)
                .unwrap_or_default()
                .to_string(),
            workload: v
                .get("workload")
                .and_then(JsonValue::as_str)
                .unwrap_or_default()
                .to_string(),
            kind: err
                .get("kind")
                .and_then(JsonValue::as_str)
                .ok_or("error missing 'kind'")?
                .to_string(),
            message: err
                .get("message")
                .and_then(JsonValue::as_str)
                .unwrap_or_default()
                .to_string(),
            access_index: err.get("access_index").and_then(JsonValue::as_u64),
        },
    ))
}

/// The in-memory view of a ledger file: every completed cell, keyed by
/// its content digest, plus the still-failed cells (see [`FailedCell`]).
#[derive(Debug, Default)]
pub struct Ledger {
    entries: HashMap<CellDigest, RunResult>,
    failures: HashMap<CellDigest, FailedCell>,
    skipped: usize,
}

impl Ledger {
    /// Loads a ledger file. A missing file is an empty ledger.
    /// Unparseable lines — a truncated final line from an interrupted
    /// run, hand-edited damage, even garbage bytes that are not valid
    /// UTF-8 — are skipped and counted in
    /// [`skipped_lines`](Ledger::skipped_lines) rather than failing
    /// the load; on duplicate digests the last line wins, including
    /// across result and error lines (a success supersedes an earlier
    /// failure and vice versa).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than "file not found".
    pub fn load(path: &Path) -> std::io::Result<Ledger> {
        let file = match File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Ledger::default()),
            Err(e) => return Err(e),
        };
        let mut ledger = Ledger::default();
        let mut reader = BufReader::new(file);
        let mut buf = Vec::new();
        loop {
            buf.clear();
            if reader.read_until(b'\n', &mut buf)? == 0 {
                break;
            }
            if !ledger.ingest_raw_line(&buf) {
                ledger.skipped += 1;
            }
        }
        Ok(ledger)
    }

    /// Parses one raw ledger line into the in-memory maps. Returns
    /// `false` when the line is damaged (invalid UTF-8, unparseable
    /// JSON, or a well-formed object missing required fields); blank
    /// lines are valid no-ops.
    fn ingest_raw_line(&mut self, raw: &[u8]) -> bool {
        // A crashed writer can leave arbitrary bytes, not just a
        // truncated JSON prefix — tolerate invalid UTF-8 too.
        let Ok(line) = std::str::from_utf8(raw) else {
            return false;
        };
        let line = line.trim();
        if line.is_empty() {
            return true;
        }
        let Ok(v) = json::parse(line) else {
            return false;
        };
        if v.get("error").is_some() {
            match error_from_json(&v) {
                Ok((digest, failed)) => {
                    self.entries.remove(&digest);
                    self.failures.insert(digest, failed);
                    true
                }
                Err(_) => false,
            }
        } else {
            match result_from_json(&v) {
                Ok((digest, result)) => {
                    self.failures.remove(&digest);
                    self.entries.insert(digest, result);
                    true
                }
                Err(_) => false,
            }
        }
    }

    /// Loads a ledger file like [`Ledger::load`], then — when any line
    /// was damaged or the file ends mid-record — rewrites it atomically
    /// with only the intact lines, byte-for-byte verbatim. After a
    /// recovery the file loads clean: the dropped cells simply have no
    /// entry, so a `--resume` pass re-runs exactly them.
    ///
    /// A clean file is left untouched (no rewrite, no mtime churn), so
    /// resumed campaigns stay byte-identical to uninterrupted ones.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Io`] when the file cannot be read or the
    /// repaired file cannot be written. A failed rewrite never damages
    /// the original (the write is temp + rename).
    pub fn recover(path: &Path) -> Result<(Ledger, LedgerRecovery), SimError> {
        let raw = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok((Ledger::default(), LedgerRecovery::default()))
            }
            Err(e) => return Err(SimError::io("read ledger", path, e)),
        };
        let mut ledger = Ledger::default();
        let mut report = LedgerRecovery::default();
        let mut intact: Vec<&[u8]> = Vec::new();
        let mut rest: &[u8] = &raw;
        while !rest.is_empty() {
            let (line, tail, terminated) = match rest.iter().position(|&b| b == b'\n') {
                Some(nl) => (&rest[..=nl], &rest[nl + 1..], true),
                None => (rest, &[][..], false),
            };
            rest = tail;
            let ok = ledger.ingest_raw_line(line);
            if ok && !terminated {
                // A parseable line without its newline is still a torn
                // tail: the writer died between the payload and the
                // terminator. Keep the data, repair the framing.
                report.torn_tail = true;
            }
            if ok {
                intact.push(line);
            } else {
                ledger.skipped += 1;
                report.dropped_lines += 1;
                if terminated {
                    report.dropped_bytes += line.len() as u64;
                } else {
                    report.torn_tail = true;
                    report.dropped_bytes += line.len() as u64;
                }
            }
        }
        if report.dropped_lines > 0 || report.torn_tail {
            let mut repaired = Vec::with_capacity(raw.len());
            for line in &intact {
                repaired.extend_from_slice(line);
                if repaired.last() != Some(&b'\n') {
                    repaired.push(b'\n');
                }
            }
            ziv_common::fsutil::atomic_write(path, &repaired)?;
            report.repaired = true;
        }
        Ok((ledger, report))
    }

    /// The cached result for a cell digest, if present.
    pub fn get(&self, digest: CellDigest) -> Option<&RunResult> {
        self.entries.get(&digest)
    }

    /// Whether the ledger holds a result for `digest`.
    pub fn contains(&self, digest: CellDigest) -> bool {
        self.entries.contains_key(&digest)
    }

    /// Number of cached cells.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ledger is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of lines skipped as unparseable during the load.
    pub fn skipped_lines(&self) -> usize {
        self.skipped
    }

    /// The recorded failure for a cell digest, if its most recent
    /// ledger line is an error entry.
    pub fn failure(&self, digest: CellDigest) -> Option<&FailedCell> {
        self.failures.get(&digest)
    }

    /// Number of cells whose most recent ledger line is a failure.
    pub fn failed_count(&self) -> usize {
        self.failures.len()
    }
}

/// What [`Ledger::recover`] found and did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LedgerRecovery {
    /// Damaged lines dropped (torn tails, garbage, half-records).
    pub dropped_lines: usize,
    /// Total bytes of damage dropped.
    pub dropped_bytes: u64,
    /// Whether the file ended mid-record (the kill -9 footprint).
    pub torn_tail: bool,
    /// Whether the file was rewritten. `false` means it was already
    /// clean and was left untouched.
    pub repaired: bool,
}

impl LedgerRecovery {
    /// Whether anything was wrong with the file.
    pub fn was_damaged(&self) -> bool {
        self.dropped_lines > 0 || self.torn_tail
    }
}

/// Append handle for a ledger file, safe to share across worker
/// threads (each append is one locked write + flush + fsync, so lines
/// never interleave, a kill loses at most the in-flight line, and
/// every completed append survives a power cut).
#[derive(Debug)]
pub struct LedgerWriter {
    file: Mutex<File>,
}

impl LedgerWriter {
    /// Opens `path` for appending, creating it if needed. If the file
    /// ends in a truncated partial line (the footprint of a run killed
    /// mid-append), a newline is written first so the next entry is
    /// not glued onto — and corrupted by — the dangling fragment.
    ///
    /// # Errors
    ///
    /// Propagates file-creation and inspection errors.
    pub fn append_to(path: &Path) -> std::io::Result<LedgerWriter> {
        use std::io::{Read, Seek, SeekFrom};
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(path)?;
        if file.metadata()?.len() > 0 {
            // In append mode the seek only positions the *read* cursor;
            // writes still go to the end.
            file.seek(SeekFrom::End(-1))?;
            let mut last = [0u8; 1];
            file.read_exact(&mut last)?;
            if last != [b'\n'] {
                file.write_all(b"\n")?;
            }
        }
        Ok(LedgerWriter {
            file: Mutex::new(file),
        })
    }

    /// Appends one completed cell, flushes, and fsyncs.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    ///
    /// # Panics
    ///
    /// Panics if another thread poisoned the writer lock.
    pub fn append(&self, digest: CellDigest, result: &RunResult) -> std::io::Result<()> {
        self.write_line(&result_to_json(digest, result).to_string())
    }

    /// Appends one failed cell as an error entry, flushes, and fsyncs.
    /// The entry never satisfies [`Ledger::get`], so a later `--resume`
    /// runs exactly this cell again; a subsequent successful append for
    /// the same digest supersedes it.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    ///
    /// # Panics
    ///
    /// Panics if another thread poisoned the writer lock.
    pub fn append_error(
        &self,
        digest: CellDigest,
        label: &str,
        workload: &str,
        error: &SimError,
    ) -> std::io::Result<()> {
        self.write_line(&error_to_json(digest, label, workload, error).to_string())
    }

    /// One locked write + flush + fsync: after this returns, the line
    /// is durably on disk — the write-ahead guarantee `--resume`
    /// depends on after a kill -9.
    fn write_line(&self, line: &str) -> std::io::Result<()> {
        let mut f = self.file.lock().unwrap();
        writeln!(f, "{line}")?;
        f.flush()?;
        f.sync_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ziv_common::config::SystemConfig;
    use ziv_sim::{run_one, RunSpec};
    use ziv_workloads::{Recipe, ScaleParams};

    fn sample_result() -> RunResult {
        let sys = SystemConfig::scaled();
        let recipe = Recipe::homogeneous(
            apps::app_by_name("circset").unwrap(),
            2,
            1_000,
            7,
            ScaleParams::from_system(&sys),
        );
        run_one(&RunSpec::new("I-LRU 256KB", sys), &recipe.build())
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("ziv-harness-ledger-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn round_trip_equals_in_memory_result() {
        let r = sample_result();
        let d = CellDigest(0xfeed_beef_dead_cafe);
        let path = tmp("round-trip");
        std::fs::remove_file(&path).ok();
        LedgerWriter::append_to(&path)
            .unwrap()
            .append(d, &r)
            .unwrap();
        let ledger = Ledger::load(&path).unwrap();
        assert_eq!(ledger.len(), 1);
        assert_eq!(ledger.skipped_lines(), 0);
        // Every field — per-core stats, every Metrics counter, the
        // relocation histogram, the f64 energy — survives exactly.
        assert_eq!(ledger.get(d), Some(&r));

        // Builds that retried cells wrote `"attempts"` into the lines of
        // cells that took more than one attempt; those lines still load.
        let line = std::fs::read_to_string(&path).unwrap();
        let old_result = line.replacen(&d.hex(), &CellDigest(2).hex(), 1).replacen(
            r#","cores":"#,
            r#","attempts":2,"cores":"#,
            1,
        );
        let old_error = format!(
            r#"{{"digest":"{}","label":"L","workload":"w","error":{{"kind":"config","message":"boom","attempts":2}}}}"#,
            CellDigest(3).hex()
        );
        assert!(old_result.contains(r#""attempts":2"#));
        std::fs::write(&path, format!("{line}{old_result}{old_error}\n")).unwrap();
        let ledger = Ledger::load(&path).unwrap();
        assert_eq!(ledger.skipped_lines(), 0);
        assert_eq!(ledger.get(CellDigest(2)), Some(&r));
        let f = ledger
            .failure(CellDigest(3))
            .expect("the old error line loads");
        assert_eq!((f.kind.as_str(), f.message.as_str()), ("config", "boom"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_final_line_is_skipped_not_fatal() {
        let r = sample_result();
        let d = CellDigest(1);
        let path = tmp("truncated");
        std::fs::remove_file(&path).ok();
        LedgerWriter::append_to(&path)
            .unwrap()
            .append(d, &r)
            .unwrap();
        // Simulate a kill mid-append: half a second line.
        let mut raw = std::fs::read_to_string(&path).unwrap();
        let half = raw[..raw.len() / 2].to_string();
        raw.push_str(&half);
        std::fs::write(&path, raw).unwrap();
        let ledger = Ledger::load(&path).unwrap();
        assert_eq!(ledger.len(), 1);
        assert_eq!(ledger.skipped_lines(), 1);
        assert_eq!(ledger.get(d), Some(&r));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_empty_ledger() {
        let ledger = Ledger::load(Path::new("/nonexistent/ziv/ledger.jsonl")).unwrap();
        assert!(ledger.is_empty());
        assert!(!ledger.contains(CellDigest(1)));
    }

    #[test]
    fn appends_accumulate_and_last_duplicate_wins() {
        let mut a = sample_result();
        let path = tmp("dups");
        std::fs::remove_file(&path).ok();
        let w = LedgerWriter::append_to(&path).unwrap();
        w.append(CellDigest(1), &a).unwrap();
        a.label = "relabeled".into();
        w.append(CellDigest(1), &a).unwrap();
        w.append(CellDigest(2), &a).unwrap();
        let ledger = Ledger::load(&path).unwrap();
        assert_eq!(ledger.len(), 2);
        assert_eq!(ledger.get(CellDigest(1)).unwrap().label, "relabeled");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_after_truncated_line_starts_a_fresh_line() {
        let r = sample_result();
        let path = tmp("glue");
        std::fs::remove_file(&path).ok();
        std::fs::write(&path, "{\"digest\":\"0000").unwrap(); // killed mid-write
        LedgerWriter::append_to(&path)
            .unwrap()
            .append(CellDigest(3), &r)
            .unwrap();
        let ledger = Ledger::load(&path).unwrap();
        assert_eq!(ledger.skipped_lines(), 1, "the fragment stays isolated");
        assert_eq!(ledger.get(CellDigest(3)), Some(&r));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn invalid_utf8_garbage_lines_are_skipped_not_fatal() {
        let r = sample_result();
        let path = tmp("garbage");
        std::fs::remove_file(&path).ok();
        let w = LedgerWriter::append_to(&path).unwrap();
        w.append(CellDigest(1), &r).unwrap();
        // A crashed writer (or disk corruption) left raw bytes that are
        // not valid UTF-8 on their own line, then the campaign went on.
        let mut raw = std::fs::read(&path).unwrap();
        raw.extend_from_slice(&[0xff, 0xfe, 0x80, b'{', 0xc0, b'\n']);
        std::fs::write(&path, raw).unwrap();
        let w = LedgerWriter::append_to(&path).unwrap();
        w.append(CellDigest(2), &r).unwrap();
        let ledger = Ledger::load(&path).unwrap();
        assert_eq!(ledger.len(), 2);
        assert_eq!(ledger.skipped_lines(), 1);
        assert_eq!(ledger.get(CellDigest(1)), Some(&r));
        assert_eq!(ledger.get(CellDigest(2)), Some(&r));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn error_entries_round_trip_and_do_not_satisfy_get() {
        use ziv_common::{AuditViolation, ViolationKind};
        let path = tmp("errors");
        std::fs::remove_file(&path).ok();
        let w = LedgerWriter::append_to(&path).unwrap();
        let e = SimError::from(AuditViolation {
            kind: ViolationKind::InclusionHole,
            access_index: 41,
            line: None,
            detail: "no LLC copy".into(),
        });
        w.append_error(CellDigest(9), "Z-LRU", "homo-circset", &e)
            .unwrap();
        let ledger = Ledger::load(&path).unwrap();
        assert_eq!(ledger.len(), 0, "a failure is not a cached result");
        assert!(
            ledger.get(CellDigest(9)).is_none(),
            "resume must run it again"
        );
        assert_eq!(ledger.failed_count(), 1);
        let f = ledger.failure(CellDigest(9)).unwrap();
        assert_eq!(f.kind, "audit");
        assert_eq!(f.access_index, Some(41));
        assert_eq!(f.label, "Z-LRU");
        assert!(f.message.contains("inclusion-hole"), "{}", f.message);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn later_success_supersedes_failure_and_vice_versa() {
        let r = sample_result();
        let path = tmp("supersede");
        std::fs::remove_file(&path).ok();
        let w = LedgerWriter::append_to(&path).unwrap();
        let e = SimError::Config("boom".into());
        w.append_error(CellDigest(5), "L", "w", &e).unwrap();
        w.append(CellDigest(5), &r).unwrap(); // resumed and succeeded
        w.append(CellDigest(6), &r).unwrap();
        w.append_error(CellDigest(6), "L", "w", &e).unwrap(); // regressed
        let ledger = Ledger::load(&path).unwrap();
        assert_eq!(ledger.get(CellDigest(5)), Some(&r));
        assert!(ledger.failure(CellDigest(5)).is_none());
        assert!(ledger.get(CellDigest(6)).is_none());
        assert!(ledger.failure(CellDigest(6)).is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn app_names_intern_to_statics() {
        assert_eq!(intern_app_name("circset"), "circset");
        assert_eq!(intern_app_name("canneal"), "canneal");
        let a = intern_app_name("some-retired-app");
        let b = intern_app_name("some-retired-app");
        assert!(std::ptr::eq(a, b), "unknown names intern once");
    }
}
