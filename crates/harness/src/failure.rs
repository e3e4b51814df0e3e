//! Minimized failure-repro records and deterministic replay.
//!
//! When a campaign cell fails (audit violation, watchdog trip), the
//! runner dumps everything needed to rebuild that exact run into
//! `<results-dir>/failures/<digest>.json`: the campaign parameters
//! (which regenerate the workload bit-for-bit), the cell coordinates,
//! the injected fault if any, and what was detected. `zivsim replay
//! <file>` then re-runs just that cell at `every-access` audit cadence,
//! which pins the violation to the exact access that introduced it —
//! the record is a *repro*, not merely a log line.

use crate::campaign::{campaigns, CampaignParams, CellDigest, CELL_SCHEMA_VERSION};
use crate::supervise::{run_cells_supervised, NoopSuperviseObserver, SuperviseConfig};
use std::path::{Path, PathBuf};
use std::time::Duration;
use ziv_common::json::{self, JsonValue};
use ziv_common::{Fnv1a, SimError};
use ziv_core::{AuditCadence, FaultInjection};
use ziv_sim::{CellBudget, Effort, RunOptions, TraceEvent};

/// Wall-clock guard on a replay run. Replaying a `hang-core` record
/// re-injects the hang; without this budget the replay itself would
/// wedge instead of reproducing the recorded `timeout` failure.
const REPLAY_WALL_BUDGET: Duration = Duration::from_secs(30);

/// Version tag of the failure-record JSON schema.
pub const FAILURE_SCHEMA_VERSION: u64 = 1;

/// Everything needed to deterministically rebuild one failed campaign
/// cell and reproduce its failure.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureRecord {
    /// Registered campaign name (rebuilds the spec/recipe grid).
    pub campaign: String,
    /// Campaign parameters, stored by value so replay does not depend
    /// on the environment (`ZIV_FAST` / `ZIV_FULL`).
    pub params: CampaignParams,
    /// Index of the failing cell's spec in the campaign.
    pub spec_index: usize,
    /// Index of the failing cell's recipe in the campaign.
    pub workload_index: usize,
    /// The cell's content digest at the time of failure.
    pub digest: CellDigest,
    /// Spec label (presentation only).
    pub label: String,
    /// Workload name (presentation only).
    pub workload: String,
    /// Audit cadence label under which the failure was detected.
    pub audit: String,
    /// The per-core cycle budget that was in force.
    pub budget_cycles: u64,
    /// [`SimError::kind_tag`] of the recorded error.
    pub error_kind: String,
    /// Rendered error message.
    pub error_message: String,
    /// For audit errors: `(ViolationKind string, access index)`.
    pub violation: Option<(String, u64)>,
    /// The deliberately injected fault, when the spec carried one:
    /// `(kind string, at_access)`.
    pub fault: Option<(String, u64)>,
    /// The flight recorder's trailing events leading up to the failure,
    /// oldest first. Taken from the failing run when event tracing was
    /// on, otherwise captured by one deterministic re-run of the cell
    /// with the tracer enabled. Empty in records written before the
    /// tracer existed (`from_json` tolerates the missing key).
    pub events: Vec<TraceEvent>,
}

impl FailureRecord {
    /// Serializes the record to its JSON form.
    pub fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            ("schema".to_string(), JsonValue::u64(FAILURE_SCHEMA_VERSION)),
            ("campaign".to_string(), JsonValue::str(&self.campaign)),
            ("seed".to_string(), JsonValue::u64(self.params.seed)),
            (
                "cores".to_string(),
                JsonValue::u64(self.params.cores as u64),
            ),
            (
                "effort".to_string(),
                JsonValue::Obj(vec![
                    (
                        "accesses_per_core".to_string(),
                        JsonValue::u64(self.params.effort.accesses_per_core as u64),
                    ),
                    (
                        "hetero_mixes".to_string(),
                        JsonValue::u64(self.params.effort.hetero_mixes as u64),
                    ),
                    (
                        "mt_accesses_per_core".to_string(),
                        JsonValue::u64(self.params.effort.mt_accesses_per_core as u64),
                    ),
                    (
                        "tpce_accesses_per_core".to_string(),
                        JsonValue::u64(self.params.effort.tpce_accesses_per_core as u64),
                    ),
                    (
                        "threads".to_string(),
                        JsonValue::u64(self.params.effort.threads as u64),
                    ),
                ]),
            ),
            (
                "spec_index".to_string(),
                JsonValue::u64(self.spec_index as u64),
            ),
            (
                "workload_index".to_string(),
                JsonValue::u64(self.workload_index as u64),
            ),
            ("digest".to_string(), JsonValue::str(self.digest.hex())),
            ("label".to_string(), JsonValue::str(&self.label)),
            ("workload".to_string(), JsonValue::str(&self.workload)),
            ("audit".to_string(), JsonValue::str(&self.audit)),
            (
                "budget_cycles".to_string(),
                JsonValue::u64(self.budget_cycles),
            ),
            ("error_kind".to_string(), JsonValue::str(&self.error_kind)),
            (
                "error_message".to_string(),
                JsonValue::str(&self.error_message),
            ),
        ];
        if let Some((kind, idx)) = &self.violation {
            fields.push((
                "violation".to_string(),
                JsonValue::Obj(vec![
                    ("kind".to_string(), JsonValue::str(kind)),
                    ("access_index".to_string(), JsonValue::u64(*idx)),
                ]),
            ));
        }
        if let Some((kind, at)) = &self.fault {
            fields.push((
                "fault".to_string(),
                JsonValue::Obj(vec![
                    ("kind".to_string(), JsonValue::str(kind)),
                    ("at_access".to_string(), JsonValue::u64(*at)),
                ]),
            ));
        }
        if !self.events.is_empty() {
            fields.push((
                "events".to_string(),
                JsonValue::Arr(self.events.iter().map(TraceEvent::to_json).collect()),
            ));
        }
        JsonValue::Obj(fields)
    }

    /// Deserializes a record from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or malformed field.
    pub fn from_json(v: &JsonValue) -> Result<FailureRecord, String> {
        let u = |key: &str| {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("missing or malformed '{key}'"))
        };
        let s = |key: &str| {
            v.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing or malformed '{key}'"))
        };
        let schema = u("schema")?;
        if schema != FAILURE_SCHEMA_VERSION {
            return Err(format!(
                "unsupported failure-record schema {schema} (expected {FAILURE_SCHEMA_VERSION})"
            ));
        }
        let effort = v.get("effort").ok_or("missing 'effort'")?;
        let eu = |key: &str| {
            effort
                .get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("missing or malformed 'effort.{key}'"))
        };
        let params = CampaignParams {
            seed: u("seed")?,
            cores: u("cores")? as usize,
            effort: Effort {
                accesses_per_core: eu("accesses_per_core")? as usize,
                hetero_mixes: eu("hetero_mixes")? as usize,
                mt_accesses_per_core: eu("mt_accesses_per_core")? as usize,
                tpce_accesses_per_core: eu("tpce_accesses_per_core")? as usize,
                threads: eu("threads")? as usize,
            },
        };
        let pair = |key: &str, idx_key: &str| -> Result<Option<(String, u64)>, String> {
            match v.get(key) {
                None => Ok(None),
                Some(obj) => Ok(Some((
                    obj.get("kind")
                        .and_then(JsonValue::as_str)
                        .ok_or_else(|| format!("missing '{key}.kind'"))?
                        .to_string(),
                    obj.get(idx_key)
                        .and_then(JsonValue::as_u64)
                        .ok_or_else(|| format!("missing '{key}.{idx_key}'"))?,
                ))),
            }
        };
        Ok(FailureRecord {
            campaign: s("campaign")?,
            params,
            spec_index: u("spec_index")? as usize,
            workload_index: u("workload_index")? as usize,
            digest: CellDigest::from_hex(&s("digest")?).ok_or("malformed 'digest'")?,
            label: s("label")?,
            workload: s("workload")?,
            audit: s("audit")?,
            budget_cycles: u("budget_cycles")?,
            error_kind: s("error_kind")?,
            error_message: s("error_message")?,
            violation: pair("violation", "access_index")?,
            fault: pair("fault", "at_access")?,
            events: match v.get("events") {
                None => Vec::new(),
                Some(arr) => arr
                    .as_array()
                    .ok_or("malformed 'events'")?
                    .iter()
                    .map(TraceEvent::from_json)
                    .collect::<Result<_, _>>()?,
            },
        })
    }

    /// Writes the record to `<dir>/<digest>.json`, creating `dir` as
    /// needed, and returns the written path.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Io`] naming the failing path.
    pub fn save(&self, dir: &Path) -> Result<PathBuf, SimError> {
        std::fs::create_dir_all(dir).map_err(|e| SimError::io("create failures dir", dir, e))?;
        let path = dir.join(format!("{}.json", self.digest.hex()));
        std::fs::write(&path, format!("{}\n", self.to_json()))
            .map_err(|e| SimError::io("write failure record", &path, e))?;
        Ok(path)
    }

    /// Reads a record back from a file written by [`FailureRecord::save`].
    ///
    /// # Errors
    ///
    /// - [`SimError::Io`] when the file cannot be read.
    /// - [`SimError::Parse`] when it is not a valid failure record.
    pub fn load(path: &Path) -> Result<FailureRecord, SimError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| SimError::io("read failure record", path, e))?;
        json::parse(text.trim())
            .and_then(|v| FailureRecord::from_json(&v))
            .map_err(|msg| SimError::parse(Some(path), 0, msg))
    }
}

/// What a [`replay`] run produced, compared against the record.
#[derive(Debug)]
pub struct ReplayReport {
    /// `true` when the replay reproduced the recorded failure: same
    /// error kind, same violation kind for audit errors, and — when the
    /// original run already audited at `every-access` — the same access
    /// index.
    pub reproduced: bool,
    /// The error the replay produced, if it failed at all.
    pub error: Option<SimError>,
    /// Human-readable comparison of recorded vs. replayed failure.
    pub note: String,
}

/// Deterministically re-runs the cell described by `record` at
/// `every-access` audit cadence (pinning any violation to the exact
/// access that introduced it) under the recorded cycle budget, and
/// compares the outcome with what the record claims. The replay runs
/// its one cell through the worker pool — panic containment plus a
/// wall-clock watchdog — so hang-core and panic-core records reproduce
/// their failures instead of taking the replaying process down with
/// them. Reproduction is judged by error kind and, for audit errors,
/// by violation, never by message text.
///
/// # Errors
///
/// Returns [`SimError::Config`] when the record does not describe a
/// rebuildable cell (unknown campaign, out-of-range indices, unknown
/// fault kind). A replay that simply *fails to reproduce* is not an
/// error: it comes back as `Ok` with `reproduced == false`.
pub fn replay(record: &FailureRecord) -> Result<ReplayReport, SimError> {
    let campaign = campaigns::by_name(&record.campaign, &record.params)
        .ok_or_else(|| SimError::Config(format!("unknown campaign '{}'", record.campaign)))?;
    if record.spec_index >= campaign.specs.len() {
        return Err(SimError::Config(format!(
            "spec index {} out of range for campaign '{}' ({} specs)",
            record.spec_index,
            record.campaign,
            campaign.specs.len()
        )));
    }
    if record.workload_index >= campaign.recipes.len() {
        return Err(SimError::Config(format!(
            "workload index {} out of range for campaign '{}' ({} recipes)",
            record.workload_index,
            record.campaign,
            campaign.recipes.len()
        )));
    }
    let mut spec = campaign.specs[record.spec_index].clone();
    if let Some((kind, at)) = &record.fault {
        let fault = FaultInjection::from_parts(kind, *at)
            .ok_or_else(|| SimError::Config(format!("unknown fault kind '{kind}'")))?;
        spec = spec.with_fault(fault);
    }

    let mut notes = Vec::new();
    let mut h = Fnv1a::new();
    h.write_u64(CELL_SCHEMA_VERSION);
    spec.digest_into(&mut h);
    campaign.recipes[record.workload_index].digest_into(&mut h);
    let rebuilt = CellDigest(h.finish());
    if rebuilt != record.digest {
        notes.push(format!(
            "warning: rebuilt cell digest {rebuilt} != recorded {} \
             (campaign definition or simulator changed since the record was written)",
            record.digest
        ));
    }

    let workload = campaign.recipes[record.workload_index].build();
    let opts = RunOptions {
        audit: AuditCadence::EveryAccess,
        budget: Some(CellBudget::Cycles(record.budget_cycles)),
        ..RunOptions::default()
    };
    // A hang-core record parks the model again (the watchdog cancels
    // it, reproducing the timeout) and a panic-core record panics again
    // (contained, reproducing the internal error).
    let sup = SuperviseConfig {
        cell_timeout: Some(REPLAY_WALL_BUDGET),
        ..SuperviseConfig::unsupervised()
    };
    let run = run_cells_supervised(
        std::slice::from_ref(&spec),
        std::slice::from_ref(&workload),
        &[(0, 0)],
        1,
        &opts,
        &sup,
        &NoopSuperviseObserver,
        None,
    )
    .pop()
    .expect("the pool runs its one cell");

    let report = match run.outcome {
        Ok(_) => ReplayReport {
            reproduced: false,
            error: None,
            note: join_notes(notes, "replay completed cleanly — failure NOT reproduced"),
        },
        Err(e) => {
            let mut reproduced = e.kind_tag() == record.error_kind;
            let mut detail = format!(
                "recorded [{}] {}; replay produced [{}] {e}",
                record.error_kind,
                record.error_message,
                e.kind_tag()
            );
            if let (Some(v), Some((kind, idx))) = (e.violation(), &record.violation) {
                reproduced &= v.kind.as_str() == kind;
                // Only an every-access original pins the index exactly;
                // a sampled auditor detects the same corruption later.
                if record.audit == AuditCadence::EveryAccess.label() {
                    reproduced &= v.access_index == *idx;
                }
                detail = format!(
                    "recorded {} at access {} (audit {}); replay found {} at access {}",
                    kind, idx, record.audit, v.kind, v.access_index
                );
            }
            let verdict = if reproduced {
                "failure REPRODUCED"
            } else {
                "failure NOT reproduced"
            };
            ReplayReport {
                reproduced,
                error: Some(e),
                note: join_notes(notes, &format!("{verdict}: {detail}")),
            }
        }
    };
    Ok(report)
}

fn join_notes(mut notes: Vec<String>, last: &str) -> String {
    notes.push(last.to_string());
    notes.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> FailureRecord {
        FailureRecord {
            campaign: "smoke".into(),
            params: CampaignParams::tiny(),
            spec_index: 0,
            workload_index: 1,
            digest: CellDigest(0xabcd_ef01_2345_6789),
            label: "I-LRU 256KB".into(),
            workload: "homo-hotl2".into(),
            audit: "every-access".into(),
            budget_cycles: 123_456_789,
            error_kind: "audit".into(),
            error_message: "audit violation [missing-sharer-bit] after access 7".into(),
            violation: Some(("missing-sharer-bit".into(), 7)),
            fault: Some(("corrupt-directory".into(), 7)),
            events: vec![TraceEvent {
                kind: ziv_sim::EventKind::BackInvalidation,
                access_index: 6,
                cycle: 123,
                line: 0x40,
                core: Some(1),
                bank: Some(0),
                set: Some(3),
                way: Some(2),
            }],
        }
    }

    #[test]
    fn record_round_trips_through_json() {
        let r = sample_record();
        let back = FailureRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);

        // Optional fields stay optional: a record without them (as
        // written before the flight recorder existed) still parses.
        let bare = FailureRecord {
            violation: None,
            fault: None,
            events: vec![],
            ..sample_record()
        };
        let json = bare.to_json();
        assert!(json.get("events").is_none(), "empty events key emitted");
        let back = FailureRecord::from_json(&json).unwrap();
        assert_eq!(back, bare);
    }

    #[test]
    fn record_round_trips_through_a_file() {
        let dir = std::env::temp_dir().join(format!("ziv-failure-records-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let r = sample_record();
        let path = r.save(&dir).unwrap();
        assert!(path.ends_with(format!("{}.json", r.digest.hex())));
        assert_eq!(FailureRecord::load(&path).unwrap(), r);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_records_are_rejected_with_context() {
        assert!(FailureRecord::from_json(&JsonValue::Obj(vec![])).is_err());
        let mut v = sample_record().to_json();
        if let JsonValue::Obj(fields) = &mut v {
            for (k, val) in fields.iter_mut() {
                if k == "schema" {
                    *val = JsonValue::u64(99);
                }
            }
        }
        let err = FailureRecord::from_json(&v).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn replay_rejects_unbuildable_records() {
        let r = FailureRecord {
            campaign: "no-such-campaign".into(),
            ..sample_record()
        };
        assert!(matches!(replay(&r), Err(SimError::Config(_))));
        let r = FailureRecord {
            spec_index: 999,
            ..sample_record()
        };
        assert!(matches!(replay(&r), Err(SimError::Config(_))));
        let r = FailureRecord {
            fault: Some(("nonsense".into(), 0)),
            ..sample_record()
        };
        assert!(matches!(replay(&r), Err(SimError::Config(_))));
    }

    #[test]
    fn replay_of_a_healthy_cell_reports_not_reproduced() {
        let r = FailureRecord {
            fault: None,
            ..sample_record()
        };
        let report = replay(&r).unwrap();
        assert!(!report.reproduced);
        assert!(report.error.is_none());
        assert!(report.note.contains("NOT reproduced"), "{}", report.note);
    }
}
