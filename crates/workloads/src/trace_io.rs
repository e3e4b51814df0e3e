//! Trace import/export: a simple line-oriented text format so external
//! traces (e.g. converted Pin or ChampSim traces) can drive the
//! simulator, and generated workloads can be inspected or archived.
//!
//! Format (one access per line, `#` comments allowed):
//!
//! ```text
//! # ziv-trace v1
//! # workload: my-workload
//! # core 0 overlap 0.45 app myapp
//! <core> <hex byte address> <hex pc> <r|w> <gap>
//! 0 7f001040 400a12 r 3
//! 1 10808080 400b00 w 0
//! ```
//!
//! Core metadata lines (`# core N overlap F app NAME`) are optional;
//! unlisted cores default to overlap 0.4 and app name "imported".

use crate::{CoreTrace, TraceRecord, Workload};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use ziv_common::{Addr, SimError};

/// Default latency-hiding factor for imported traces without metadata.
pub const DEFAULT_OVERLAP: f64 = 0.4;

/// Error type for trace parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseTraceError {}

fn err(line: usize, message: impl Into<String>) -> ParseTraceError {
    ParseTraceError {
        line,
        message: message.into(),
    }
}

/// Writes a workload in the ziv-trace text format.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_trace<W: Write>(workload: &Workload, mut out: W) -> std::io::Result<()> {
    writeln!(out, "# ziv-trace v1")?;
    writeln!(out, "# workload: {}", workload.name)?;
    for (c, t) in workload.traces.iter().enumerate() {
        writeln!(out, "# core {c} overlap {} app {}", t.overlap, t.app_name)?;
    }
    // Interleave round-robin so the file reflects the nominal global
    // order (and streams well for very long traces).
    let longest = workload
        .traces
        .iter()
        .map(|t| t.records.len())
        .max()
        .unwrap_or(0);
    for i in 0..longest {
        for (c, t) in workload.traces.iter().enumerate() {
            if let Some(r) = t.records.get(i) {
                writeln!(
                    out,
                    "{c} {:x} {:x} {} {}",
                    r.addr.raw(),
                    r.pc,
                    if r.is_write { 'w' } else { 'r' },
                    r.gap
                )?;
            }
        }
    }
    Ok(())
}

/// Reads a workload from the ziv-trace text format. `app_name` for
/// cores without metadata is `"imported"` (leaked once per distinct
/// name; trace import is a setup-time operation).
///
/// # Errors
///
/// Returns a [`ParseTraceError`] describing the first malformed line.
pub fn read_trace<R: Read>(input: R) -> Result<Workload, ParseTraceError> {
    let reader = BufReader::new(input);
    let mut name = "imported".to_string();
    let mut overlaps: Vec<(usize, f64, String)> = Vec::new();
    let mut per_core: Vec<Vec<TraceRecord>> = Vec::new();

    for (idx, line) in reader.lines().enumerate() {
        let lineno = idx + 1;
        let line = line.map_err(|e| err(lineno, format!("I/O: {e}")))?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim();
            if let Some(rest) = comment.strip_prefix("workload:") {
                name = rest.trim().to_string();
            } else if let Some(rest) = comment.strip_prefix("core ") {
                // "# core N overlap F app NAME"
                let mut parts = rest.split_whitespace();
                let core: usize = parts
                    .next()
                    .ok_or_else(|| err(lineno, "missing core index"))?
                    .parse()
                    .map_err(|e| err(lineno, format!("core index: {e}")))?;
                let mut overlap = DEFAULT_OVERLAP;
                let mut app = "imported".to_string();
                while let Some(key) = parts.next() {
                    let value = parts
                        .next()
                        .ok_or_else(|| err(lineno, format!("{key} needs a value")))?;
                    match key {
                        "overlap" => {
                            overlap = value
                                .parse()
                                .map_err(|e| err(lineno, format!("overlap: {e}")))?;
                            // The fraction of latency hidden: above 1 a
                            // core's clock would run backwards, and NaN
                            // would leave the driver no order of cores.
                            if !(0.0..=1.0).contains(&overlap) {
                                return Err(err(lineno, "overlap must be in [0, 1]"));
                            }
                        }
                        "app" => app = value.to_string(),
                        _ => return Err(err(lineno, format!("unknown core attribute '{key}'"))),
                    }
                }
                overlaps.push((core, overlap, app));
            }
            continue;
        }
        let mut parts = line.split_whitespace();
        let core: usize = parts
            .next()
            .ok_or_else(|| err(lineno, "missing core"))?
            .parse()
            .map_err(|e| err(lineno, format!("core: {e}")))?;
        let addr = u64::from_str_radix(
            parts.next().ok_or_else(|| err(lineno, "missing address"))?,
            16,
        )
        .map_err(|e| err(lineno, format!("address: {e}")))?;
        let pc = u64::from_str_radix(parts.next().ok_or_else(|| err(lineno, "missing pc"))?, 16)
            .map_err(|e| err(lineno, format!("pc: {e}")))?;
        let rw = parts.next().ok_or_else(|| err(lineno, "missing r/w"))?;
        let is_write = match rw {
            "r" | "R" => false,
            "w" | "W" => true,
            other => return Err(err(lineno, format!("expected r or w, got '{other}'"))),
        };
        let gap: u8 = parts
            .next()
            .ok_or_else(|| err(lineno, "missing gap"))?
            .parse()
            .map_err(|e| err(lineno, format!("gap: {e}")))?;
        if parts.next().is_some() {
            return Err(err(lineno, "trailing fields"));
        }
        if per_core.len() <= core {
            per_core.resize_with(core + 1, Vec::new);
        }
        per_core[core].push(TraceRecord {
            addr: Addr::new(addr),
            pc,
            is_write,
            gap,
        });
    }

    if per_core.is_empty() {
        return Err(err(0, "trace contains no accesses"));
    }
    let traces = per_core
        .into_iter()
        .enumerate()
        .map(|(c, records)| {
            let (overlap, app) = overlaps
                .iter()
                .find(|(core, _, _)| *core == c)
                .map(|(_, o, a)| (*o, a.clone()))
                .unwrap_or((DEFAULT_OVERLAP, "imported".to_string()));
            CoreTrace {
                records,
                overlap,
                app_name: Box::leak(app.into_boxed_str()),
            }
        })
        .collect();
    Ok(Workload {
        name,
        traces,
        attack: None,
    })
}

/// Reads a workload from a trace file at `path`, attaching the file
/// path to both I/O and parse failures.
///
/// # Errors
///
/// - [`SimError::Io`] when the file cannot be opened.
/// - [`SimError::Parse`] carrying `path` and the 1-based line number of
///   the first malformed line.
pub fn read_trace_file(path: &Path) -> Result<Workload, SimError> {
    let file = std::fs::File::open(path).map_err(|e| SimError::io("open trace file", path, e))?;
    read_trace(file).map_err(|e| SimError::parse(Some(path), e.line, e.message))
}

/// Writes a workload to a trace file at `path`, creating missing parent
/// directories first and attaching the file path to any failure.
///
/// # Errors
///
/// Returns [`SimError::Io`] naming `path` and the failing operation.
pub fn write_trace_file(path: &Path, workload: &Workload) -> Result<(), SimError> {
    ziv_common::fsutil::write_file(path, "trace file", |w| write_trace(workload, w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{apps, mixes, ScaleParams};

    fn sample() -> Workload {
        let scale = ScaleParams {
            llc_lines: 1024,
            l2_lines: 64,
        };
        mixes::homogeneous(apps::APPS[4], 2, 50, 9, scale)
    }

    #[test]
    fn round_trip_preserves_everything() {
        let wl = sample();
        let mut buf = Vec::new();
        write_trace(&wl, &mut buf).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back.name, wl.name);
        assert_eq!(back.cores(), wl.cores());
        for (a, b) in wl.traces.iter().zip(&back.traces) {
            assert_eq!(a.records, b.records);
            assert!((a.overlap - b.overlap).abs() < 1e-9);
            assert_eq!(a.app_name, b.app_name);
        }
    }

    #[test]
    fn parses_hand_written_trace() {
        let text = "\
# ziv-trace v1
# workload: demo
# core 0 overlap 0.5 app mine

0 1040 400 r 3
0 2080 404 w 0
1 1040 400 r 1
";
        let wl = read_trace(text.as_bytes()).unwrap();
        assert_eq!(wl.name, "demo");
        assert_eq!(wl.cores(), 2);
        assert_eq!(wl.traces[0].records.len(), 2);
        assert!(wl.traces[0].records[1].is_write);
        assert_eq!(wl.traces[0].records[0].addr.raw(), 0x1040);
        assert!((wl.traces[0].overlap - 0.5).abs() < 1e-9);
        assert_eq!(wl.traces[0].app_name, "mine");
        assert!((wl.traces[1].overlap - DEFAULT_OVERLAP).abs() < 1e-9);
    }

    #[test]
    fn reports_malformed_lines_with_position() {
        let bad = "0 zzzz 400 r 3\n";
        let e = read_trace(bad.as_bytes()).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("address"));

        let bad = "# ziv-trace v1\n0 1040 400 x 3\n";
        let e = read_trace(bad.as_bytes()).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("expected r or w"));

        let bad = "0 1040 400 r 3 extra\n";
        assert!(read_trace(bad.as_bytes())
            .unwrap_err()
            .message
            .contains("trailing"));

        for overlap in ["1.5", "-0.1", "NaN"] {
            let bad = format!("# core 0 overlap {overlap}\n0 1040 400 r 3\n");
            let e = read_trace(bad.as_bytes()).unwrap_err();
            assert_eq!(e.line, 1);
            assert!(e.message.contains("overlap must be in [0, 1]"), "{e}");
        }
    }

    #[test]
    fn empty_trace_is_an_error() {
        let e = read_trace("# nothing here\n".as_bytes()).unwrap_err();
        assert!(e.message.contains("no accesses"));
    }

    #[test]
    fn display_formats_error() {
        let e = ParseTraceError {
            line: 7,
            message: "boom".into(),
        };
        assert_eq!(e.to_string(), "trace parse error at line 7: boom");
    }
}
