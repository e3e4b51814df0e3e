//! Result documents: one [`Report`] per workload run, its JSON forms,
//! the printed table, and the `agree` comparison of two result files.

use crate::stats::Summary;
use ziv_common::json::{self, JsonValue};

/// One named, unit-tagged measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (as listed in `BENCHMARK.json`).
    pub name: String,
    /// Unit (`1/s`, `s`, `MiB`, `ns`, `count`, …).
    pub unit: String,
    /// Value, quartiles and count.
    pub summary: Summary,
}

impl Metric {
    /// A metric over the samples `summary` summarizes.
    pub fn new(name: impl Into<String>, unit: &str, summary: Summary) -> Metric {
        Metric {
            name: name.into(),
            unit: unit.to_string(),
            summary,
        }
    }
}

/// Everything one workload run measured and checked.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether this is the traced (per-layer) run.
    pub traced: bool,
    /// Cells checked.
    pub attempted: usize,
    /// One line per failed cell, naming it and the failed check.
    pub failures: Vec<String>,
    /// The measurements.
    pub metrics: Vec<Metric>,
}

fn field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    v.get(key).ok_or_else(|| format!("missing \"{key}\""))
}

fn num(v: &JsonValue, key: &str) -> Result<f64, String> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| format!("\"{key}\" is not a number"))
}

impl Report {
    /// The full document: every metric with unit, value, quartiles and
    /// count.
    pub fn to_json(&self) -> JsonValue {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let s = &m.summary;
                (
                    m.name.clone(),
                    JsonValue::Obj(vec![
                        ("unit".into(), JsonValue::str(m.unit.clone())),
                        ("value".into(), JsonValue::f64(s.value)),
                        ("q1".into(), JsonValue::f64(s.q1)),
                        ("q3".into(), JsonValue::f64(s.q3)),
                        ("n".into(), JsonValue::u64(s.n as u64)),
                    ]),
                )
            })
            .collect();
        JsonValue::Obj(vec![
            ("workload".into(), JsonValue::str(self.workload.clone())),
            ("seed".into(), JsonValue::u64(self.seed)),
            ("traced".into(), JsonValue::Bool(self.traced)),
            ("attempted".into(), JsonValue::u64(self.attempted as u64)),
            (
                "failures".into(),
                JsonValue::Arr(self.failures.iter().map(JsonValue::str).collect()),
            ),
            ("metrics".into(), JsonValue::Obj(metrics)),
        ])
    }

    /// Parses [`Report::to_json`]'s document.
    ///
    /// # Errors
    ///
    /// Names the first missing or mistyped field.
    pub fn from_json(v: &JsonValue) -> Result<Report, String> {
        let JsonValue::Obj(fields) = field(v, "metrics")? else {
            return Err("\"metrics\" is not an object".into());
        };
        let metrics = fields
            .iter()
            .map(|(name, m)| {
                let unit = field(m, "unit")?
                    .as_str()
                    .ok_or("\"unit\" is not a string")?;
                let n = field(m, "n")?.as_u64().ok_or("\"n\" is not a count")?;
                let summary = Summary {
                    value: num(m, "value")?,
                    q1: num(m, "q1")?,
                    q3: num(m, "q3")?,
                    n: n as usize,
                };
                Ok(Metric::new(name.clone(), unit, summary))
            })
            .collect::<Result<Vec<_>, String>>()
            .map_err(|e| format!("metric: {e}"))?;
        let failures = field(v, "failures")?
            .as_array()
            .ok_or("\"failures\" is not an array")?
            .iter()
            .map(|f| {
                f.as_str()
                    .map(str::to_string)
                    .ok_or("failure is not a string")
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Report {
            workload: field(v, "workload")?
                .as_str()
                .ok_or("\"workload\" is not a string")?
                .to_string(),
            seed: field(v, "seed")?
                .as_u64()
                .ok_or("\"seed\" is not a count")?,
            traced: field(v, "traced")?
                .as_bool()
                .ok_or("\"traced\" is not a bool")?,
            attempted: field(v, "attempted")?
                .as_u64()
                .ok_or("\"attempted\" is not a count")? as usize,
            failures,
            metrics,
        })
    }

    /// The metric named `name`, if measured.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The table printed for a run: one row per metric.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{} (seed {:#x}, {}): {} of {} cell(s) failed\n",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "end to end" },
            self.failures.len(),
            self.attempted
        );
        for f in &self.failures {
            out.push_str(&format!("  FAILED {f}\n"));
        }
        out.push_str(&format!(
            "  {:<42} {:>14} {:>14} {:>14} {:>8}  unit\n",
            "metric", "value", "q1", "q3", "n"
        ));
        for m in &self.metrics {
            let s = &m.summary;
            out.push_str(&format!(
                "  {:<42} {:>14.6} {:>14.6} {:>14.6} {:>8}  {}\n",
                m.name, s.value, s.q1, s.q3, s.n, m.unit
            ));
        }
        out
    }

    /// Failed cells as a share of the cells attempted.
    pub fn failed_frac(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }
}

/// The one-line result object the benchmark prints last: `correct`,
/// `attempted`, `failed` and every metric's value with its unit.
/// Several reports (a `run` over all workloads) merge, with metric names
/// prefixed by their workload.
pub fn result_line(reports: &[Report]) -> String {
    let prefix = reports.len() > 1;
    let failed: usize = reports.iter().map(|r| r.failures.len()).sum();
    let attempted: usize = reports.iter().map(|r| r.attempted).sum();
    let metrics = reports
        .iter()
        .flat_map(|r| {
            r.metrics.iter().map(move |m| {
                let name = if prefix {
                    format!("{}.{}", r.workload, m.name)
                } else {
                    m.name.clone()
                };
                (
                    name,
                    JsonValue::Obj(vec![
                        ("value".into(), JsonValue::f64(m.summary.value)),
                        ("unit".into(), JsonValue::str(m.unit.clone())),
                    ]),
                )
            })
        })
        .collect();
    JsonValue::Obj(vec![
        ("correct".into(), JsonValue::Bool(failed == 0)),
        ("attempted".into(), JsonValue::u64(attempted.max(1) as u64)),
        ("failed".into(), JsonValue::u64(failed as u64)),
        ("metrics".into(), JsonValue::Obj(metrics)),
    ])
    .to_string()
}

/// A result file: the reports of one `run` or `trace` invocation.
pub fn results_file(reports: &[Report]) -> String {
    let items = reports.iter().map(Report::to_json).collect();
    let mut s = JsonValue::Obj(vec![("reports".into(), JsonValue::Arr(items))]).to_string();
    s.push('\n');
    s
}

/// Parses a [`results_file`].
///
/// # Errors
///
/// A message naming what is malformed.
pub fn parse_results_file(text: &str) -> Result<Vec<Report>, String> {
    let doc = json::parse(text)?;
    field(&doc, "reports")?
        .as_array()
        .ok_or("\"reports\" is not an array")?
        .iter()
        .map(Report::from_json)
        .collect()
}

/// One end-to-end metric's regression bound, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Share of the value by which the metric may move.
    pub bound: f64,
}

/// Reads the `end_to_end` bounds out of a `BENCHMARK.json` document.
///
/// # Errors
///
/// A message naming what is malformed.
pub fn parse_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let doc = json::parse(text)?;
    field(&doc, "end_to_end")?
        .as_array()
        .ok_or("\"end_to_end\" is not an array")?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: field(m, "name")?
                    .as_str()
                    .ok_or("\"name\" is not a string")?
                    .to_string(),
                bound: num(m, "bound")?,
            })
        })
        .collect()
}

/// Compares every (workload, end-to-end metric) row of two result sets:
/// the two values must differ by no more than the metric's bound, as a
/// share of the first. A row is *unresolved* when either side's
/// quartiles lie further apart than the bound (as a share of its value):
/// the runs cannot tell. Each workload also gets a
/// `failed_frac` row (failed cells over cells attempted) with bound 0,
/// so any difference in failures fails. Returns the printed table and
/// the rows that failed (differ, or are missing from one side);
/// unresolved rows are printed but do not fail.
pub fn agree(a: &[Report], b: &[Report], bounds: &[Bound]) -> (String, Vec<String>) {
    let mut table = format!(
        "{:<18} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict\n",
        "workload", "metric", "a", "b", "change", "bound"
    );
    let mut failed = Vec::new();
    let mut workloads: Vec<&str> = Vec::new();
    for r in a.iter().chain(b).filter(|r| !r.traced) {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    fn untraced<'a>(set: &'a [Report], w: &str) -> Option<&'a Report> {
        set.iter().find(|r| r.workload == w && !r.traced)
    }
    for w in workloads {
        let (ra, rb) = (untraced(a, w), untraced(b, w));
        let frac = |r: Option<&Report>| r.map(|r| Summary::single(r.failed_frac()));
        let rows = bounds
            .iter()
            .map(|bound| {
                let summary =
                    |r: Option<&Report>| r.and_then(|r| r.metric(&bound.name)).map(|m| m.summary);
                (bound.name.as_str(), summary(ra), summary(rb), bound.bound)
            })
            .chain([("failed_frac", frac(ra), frac(rb), 0.0)]);
        for (name, x, y, bound) in rows {
            let row = format!("{w} {name}");
            let (Some(x), Some(y)) = (x, y) else {
                table.push_str(&format!("{w:<18} {name:<16} missing on one side\n"));
                failed.push(format!("{row}: missing on one side"));
                continue;
            };
            let change = if x.value == 0.0 {
                if y.value == 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                (y.value - x.value) / x.value.abs()
            };
            let unresolved = x.spread() > bound || y.spread() > bound;
            let differs = !unresolved && change.abs() > bound;
            table.push_str(&format!(
                "{w:<18} {name:<16} {:>14.6} {:>14.6} {:>8.2}% {:>6.1}%  {}\n",
                x.value,
                y.value,
                change * 100.0,
                bound * 100.0,
                if unresolved {
                    "unresolved"
                } else if differs {
                    "DIFFERS"
                } else {
                    "agrees"
                }
            ));
            if differs {
                failed.push(format!(
                    "{row}: values differ by {:.2}% (bound {:.1}%)",
                    change * 100.0,
                    bound * 100.0
                ));
            }
        }
    }
    (table, failed)
}
