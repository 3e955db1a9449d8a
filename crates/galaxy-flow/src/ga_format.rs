//! The Galaxy `.ga` workflow interchange format.
//!
//! Galaxy shares workflows as `.ga` JSON documents (the paper's Genome
//! Reconstruction workflow comes from the Galaxy training materials as one).
//! This codec exports a [`Workflow`] to a `.ga`-shaped document and imports
//! it back, carrying the simulator's step timing/sharding metadata in the
//! step `annotation` field — so exported files remain structurally valid
//! Galaxy workflows while round-tripping losslessly here.

use std::borrow::Cow;
use std::fmt;

use sim_kernel::json::{self, num_u64, JsonVal};
use sim_kernel::SimDuration;

use crate::dataset::DataFormat;
use crate::workflow::{RecoveryMode, StepId, Workflow, WorkflowError};

/// `.ga` codec errors.
#[derive(Debug, Clone, PartialEq)]
pub enum GaFormatError {
    /// The document is not valid JSON.
    Json(String),
    /// The document is JSON but not a Galaxy workflow.
    NotAGalaxyWorkflow(String),
    /// A step entry is malformed.
    MalformedStep {
        /// Step key in the document.
        step: String,
        /// What was wrong.
        problem: String,
    },
    /// The reconstructed workflow failed validation.
    Workflow(WorkflowError),
}

impl fmt::Display for GaFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GaFormatError::Json(e) => write!(f, "invalid json: {e}"),
            GaFormatError::NotAGalaxyWorkflow(msg) => {
                write!(f, "not a galaxy workflow: {msg}")
            }
            GaFormatError::MalformedStep { step, problem } => {
                write!(f, "malformed step `{step}`: {problem}")
            }
            GaFormatError::Workflow(e) => write!(f, "invalid workflow: {e}"),
        }
    }
}

impl std::error::Error for GaFormatError {}

impl From<WorkflowError> for GaFormatError {
    fn from(e: WorkflowError) -> Self {
        GaFormatError::Workflow(e)
    }
}

fn format_from_name(name: &str) -> DataFormat {
    match name {
        "fastq" => DataFormat::Fastq,
        "fastq.gz" => DataFormat::FastqGz,
        "vcf" => DataFormat::Vcf,
        "fasta" => DataFormat::Fasta,
        "qza" => DataFormat::Qza,
        "html" => DataFormat::Html,
        "json" => DataFormat::Json,
        "sra" => DataFormat::Sra,
        _ => DataFormat::Tabular,
    }
}

/// An object with its keys in byte order, as `.ga` documents are written.
fn sorted_obj<'a>(mut entries: Vec<(Cow<'a, str>, JsonVal<'a>)>) -> JsonVal<'a> {
    entries.sort_by(|(a, _), (b, _)| a.cmp(b));
    JsonVal::Obj(entries)
}

fn text<'a>(s: impl Into<Cow<'a, str>>) -> JsonVal<'a> {
    JsonVal::Str(s.into())
}

/// Exports a workflow as a `.ga`-shaped JSON document.
pub fn to_ga_json(workflow: &Workflow) -> String {
    let steps = workflow
        .steps()
        .iter()
        .enumerate()
        .map(|(i, step)| {
            let connections = step
                .inputs()
                .iter()
                .enumerate()
                .map(|(j, dep)| {
                    let conn = sorted_obj(vec![
                        ("id".into(), num_u64(dep.index() as u64)),
                        ("output_name".into(), text("output")),
                    ]);
                    (format!("input{j}").into(), conn)
                })
                .collect();
            let annotation = format!(
                "duration_secs={};shards={};output_gib={}",
                step.duration().as_secs(),
                step.shards(),
                step.output_size_gib(),
            );
            let obj = sorted_obj(vec![
                ("id".into(), num_u64(i as u64)),
                ("name".into(), text(step.label())),
                ("tool_id".into(), text(step.tool().as_str())),
                ("type".into(), text("tool")),
                ("annotation".into(), text(annotation)),
                ("output_format".into(), text(step.output_format().extension())),
                ("input_connections".into(), sorted_obj(connections)),
            ]);
            (i.to_string().into(), obj)
        })
        .collect();
    let recovery = match workflow.recovery() {
        RecoveryMode::RestartFromScratch => "recovery=restart-from-scratch",
        RecoveryMode::ResumeFromCheckpoint => "recovery=resume-from-checkpoint",
    };
    json::write_pretty(&sorted_obj(vec![
        ("a_galaxy_workflow".into(), text("true")),
        ("format-version".into(), text("0.1")),
        ("name".into(), text(workflow.name())),
        ("annotation".into(), text(recovery)),
        ("steps".into(), sorted_obj(steps)),
    ]))
}

fn annotation_field(annotation: &str, key: &str) -> Option<String> {
    annotation
        .split(';')
        .find_map(|pair| pair.strip_prefix(&format!("{key}=")))
        .map(str::to_owned)
}

/// The string under `key`, if `obj` has one.
fn str_field<'v>(obj: &'v JsonVal<'_>, key: &str) -> Option<&'v str> {
    obj.get(key).and_then(|v| v.as_str().ok())
}

/// Exported connections are named `input0`, `input1`, …: they sort by
/// that number (`input2` before `input10`), any other name after them.
fn connection_order(name: &str) -> (usize, &str) {
    let position = name.strip_prefix("input").and_then(|n| n.parse().ok());
    (position.unwrap_or(usize::MAX), name)
}

/// Imports a workflow from a `.ga`-shaped JSON document.
///
/// # Errors
///
/// Returns a [`GaFormatError`] for non-JSON input, non-workflow documents,
/// malformed steps, or structurally invalid workflows.
pub fn from_ga_json(input: &str) -> Result<Workflow, GaFormatError> {
    let doc = json::parse(input).map_err(GaFormatError::Json)?;
    if str_field(&doc, "a_galaxy_workflow") != Some("true") {
        return Err(GaFormatError::NotAGalaxyWorkflow(
            "missing `a_galaxy_workflow: \"true\"`".into(),
        ));
    }
    let name = str_field(&doc, "name").unwrap_or("imported-workflow").to_owned();
    let recovery = match str_field(&doc, "annotation") {
        Some(a) if a.contains("resume-from-checkpoint") => RecoveryMode::ResumeFromCheckpoint,
        _ => RecoveryMode::RestartFromScratch,
    };
    let steps_obj = doc
        .get("steps")
        .and_then(|steps| steps.as_obj().ok())
        .ok_or_else(|| GaFormatError::NotAGalaxyWorkflow("missing `steps` object".into()))?;

    // Order steps by numeric key.
    let mut ordered: Vec<(usize, &JsonVal<'_>)> = Vec::with_capacity(steps_obj.len());
    for (key, value) in steps_obj {
        let index: usize = key.parse().map_err(|_| GaFormatError::MalformedStep {
            step: key.to_string(),
            problem: "non-numeric step key".into(),
        })?;
        ordered.push((index, value));
    }
    ordered.sort_by_key(|&(i, _)| i);

    let mut builder = Workflow::builder(name, recovery);
    let mut ids: Vec<StepId> = Vec::with_capacity(ordered.len());
    for (expected, (index, step)) in ordered.iter().enumerate() {
        let key = index.to_string();
        let malformed = |problem: String| GaFormatError::MalformedStep {
            step: key.clone(),
            problem,
        };
        if *index != expected {
            return Err(malformed(format!("non-contiguous step ids (expected {expected})")));
        }
        let string = |name: &str| -> Result<String, GaFormatError> {
            let value = step.get(name).ok_or_else(|| malformed(format!("missing `{name}`")))?;
            value
                .as_str()
                .map(str::to_owned)
                .map_err(|_| malformed(format!("`{name}` is not a string")))
        };
        let label = string("name")?;
        let tool = string("tool_id")?;
        let annotation = str_field(step, "annotation").unwrap_or_default();
        let duration_secs: u64 = annotation_field(annotation, "duration_secs")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| malformed("annotation lacks `duration_secs`".into()))?;
        let shards: u32 = annotation_field(annotation, "shards")
            .and_then(|v| v.parse().ok())
            .unwrap_or(1);
        let output_gib: f64 = annotation_field(annotation, "output_gib")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.01);
        let output_format =
            format_from_name(str_field(step, "output_format").unwrap_or("tabular"));
        let mut connections: Vec<_> = step
            .get("input_connections")
            .and_then(|c| c.as_obj().ok())
            .unwrap_or_default()
            .iter()
            .collect();
        connections.sort_by(|(a, _), (b, _)| connection_order(a).cmp(&connection_order(b)));
        let mut inputs = Vec::with_capacity(connections.len());
        for (conn_name, conn) in connections {
            let dep = conn
                .get("id")
                .ok_or_else(|| malformed(format!("connection `{conn_name}` lacks `id`")))?
                .as_usize()
                .map_err(|e| malformed(format!("connection `{conn_name}` id: {e}")))?;
            if dep >= ids.len() {
                return Err(malformed(format!("connection references later step {dep}")));
            }
            inputs.push(ids[dep]);
        }
        let id = builder.add_step_full(
            label,
            tool,
            SimDuration::from_secs(duration_secs),
            &inputs,
            shards,
            output_format,
            output_gib,
        );
        ids.push(id);
    }
    Ok(builder.build()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::Workflow;

    fn sample_workflow() -> Workflow {
        let mut b = Workflow::builder("ngs-sample", RecoveryMode::ResumeFromCheckpoint);
        let fetch = b.add_step_full(
            "fetch",
            "sra-toolkit",
            SimDuration::from_mins(18),
            &[],
            1,
            DataFormat::Sra,
            1.0,
        );
        let qc = b.add_sharded_step("fastqc", "fastqc", SimDuration::from_hours(5), &[fetch], 20);
        b.add_step_full(
            "report",
            "multiqc",
            SimDuration::from_mins(12),
            &[qc],
            1,
            DataFormat::Html,
            0.01,
        );
        b.build().unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let original = sample_workflow();
        let ga = to_ga_json(&original);
        let imported = from_ga_json(&ga).unwrap();
        assert_eq!(imported, original);
    }

    #[test]
    fn roundtrips_the_paper_workflows() {
        // Exercise the codec on realistically-sized workflows via the
        // builder patterns used by bio-workloads (23 steps, shards, etc.).
        let mut b = Workflow::builder("big", RecoveryMode::RestartFromScratch);
        let mut prev = None;
        for i in 0..23 {
            let inputs: Vec<_> = prev.into_iter().collect();
            prev = Some(b.add_step(
                format!("step-{i}"),
                "tool",
                SimDuration::from_mins(20 + i),
                &inputs,
            ));
        }
        let original = b.build().unwrap();
        let imported = from_ga_json(&to_ga_json(&original)).unwrap();
        assert_eq!(imported.len(), 23);
        assert_eq!(imported, original);
    }

    #[test]
    fn document_is_galaxy_shaped() {
        let ga = to_ga_json(&sample_workflow());
        let doc = json::parse(&ga).unwrap();
        assert_eq!(str_field(&doc, "a_galaxy_workflow"), Some("true"));
        assert_eq!(str_field(&doc, "format-version"), Some("0.1"));
        let steps = doc.get("steps").unwrap();
        assert_eq!(steps.as_obj().unwrap().len(), 3);
        let qc = steps.get("1").unwrap();
        assert_eq!(str_field(qc, "tool_id"), Some("fastqc"));
        assert!(str_field(qc, "annotation").unwrap().contains("shards=20"));
    }

    #[test]
    fn rejects_non_workflows() {
        assert!(matches!(
            from_ga_json("{}"),
            Err(GaFormatError::NotAGalaxyWorkflow(_))
        ));
        assert!(matches!(from_ga_json("not json"), Err(GaFormatError::Json(_))));
        assert!(matches!(
            from_ga_json(r#"{"a_galaxy_workflow": "true", "name": "x"}"#),
            Err(GaFormatError::NotAGalaxyWorkflow(_))
        ));
    }

    #[test]
    fn rejects_malformed_steps() {
        // Forward-referencing connection.
        let doc = r#"{
            "a_galaxy_workflow": "true",
            "name": "bad",
            "annotation": "recovery=restart-from-scratch",
            "steps": {
                "0": {
                    "id": 0, "name": "a", "tool_id": "t", "type": "tool",
                    "annotation": "duration_secs=60;shards=1",
                    "input_connections": {"input0": {"id": 5, "output_name": "output"}}
                }
            }
        }"#;
        let err = from_ga_json(doc).unwrap_err();
        assert!(matches!(err, GaFormatError::MalformedStep { .. }), "{err}");
        assert!(err.to_string().contains("later step"));
    }

    #[test]
    fn fan_in_past_ten_inputs_keeps_its_input_order() {
        let mut b = Workflow::builder("fan-in", RecoveryMode::RestartFromScratch);
        let sources: Vec<_> = (0..11)
            .map(|i| b.add_step(format!("src-{i}"), "t", SimDuration::from_mins(5), &[]))
            .collect();
        b.add_step("merge", "t", SimDuration::from_mins(5), &sources);
        let original = b.build().unwrap();
        assert_eq!(from_ga_json(&to_ga_json(&original)).unwrap(), original);
    }

    #[test]
    fn connection_ids_must_be_non_negative_integers() {
        for bad in ["-1", "1.9", "1e0", "\"0\"", "null"] {
            let doc = format!(
                r#"{{"a_galaxy_workflow": "true", "steps": {{
                    "0": {{"name": "a", "tool_id": "t", "annotation": "duration_secs=60"}},
                    "1": {{"name": "b", "tool_id": "t", "annotation": "duration_secs=60",
                           "input_connections": {{"input0": {{"id": {bad}}}}}}}
                }}}}"#
            );
            let err = from_ga_json(&doc).unwrap_err();
            assert!(
                matches!(&err, GaFormatError::MalformedStep { step, .. } if step == "1"),
                "id {bad}: {err}"
            );
        }
    }

    #[test]
    fn missing_duration_is_rejected() {
        let doc = r#"{
            "a_galaxy_workflow": "true",
            "name": "bad",
            "steps": {
                "0": {"id": 0, "name": "a", "tool_id": "t", "annotation": "shards=1"}
            }
        }"#;
        let err = from_ga_json(doc).unwrap_err();
        assert!(err.to_string().contains("duration_secs"));
    }

    #[test]
    fn recovery_mode_survives_the_trip() {
        let standard = {
            let mut b = Workflow::builder("std", RecoveryMode::RestartFromScratch);
            b.add_step("s", "t", SimDuration::from_mins(5), &[]);
            b.build().unwrap()
        };
        let imported = from_ga_json(&to_ga_json(&standard)).unwrap();
        assert_eq!(imported.recovery(), RecoveryMode::RestartFromScratch);
        let imported_ckpt = from_ga_json(&to_ga_json(&sample_workflow())).unwrap();
        assert_eq!(imported_ckpt.recovery(), RecoveryMode::ResumeFromCheckpoint);
    }
}
