//! The Galaxy `.ga` workflow interchange format.
//!
//! Galaxy shares workflows as `.ga` JSON documents (the paper's Genome
//! Reconstruction workflow comes from the Galaxy training materials as one).
//! This module exports a [`Workflow`] to a `.ga`-shaped document, carrying
//! the simulator's step timing/sharding metadata in the step `annotation`
//! field, so exported files remain structurally valid Galaxy workflows.

use std::borrow::Cow;

use sim_kernel::json::{self, num_u64, JsonVal};

use crate::workflow::{RecoveryMode, Workflow};

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

#[cfg(test)]
mod tests {
    use sim_kernel::SimDuration;

    use super::*;
    use crate::dataset::DataFormat;

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

    /// The string under `key`, if `obj` has one.
    fn str_field<'v>(obj: &'v JsonVal<'_>, key: &str) -> Option<&'v str> {
        obj.get(key).and_then(|v| v.as_str().ok())
    }

    /// Step `i` of an exported document.
    fn step<'v>(doc: &'v JsonVal<'_>, i: usize) -> &'v JsonVal<'v> {
        doc.get("steps").and_then(|steps| steps.get(&i.to_string())).unwrap()
    }

    /// The step ids a step's `inputN` connections name, in `N` order.
    fn connection_ids(step: &JsonVal<'_>) -> Vec<usize> {
        let connections = step.get("input_connections").unwrap();
        (0..connections.as_obj().unwrap().len())
            .map(|n| {
                let conn = connections.get(&format!("input{n}")).unwrap();
                conn.get("id").unwrap().as_usize().unwrap()
            })
            .collect()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let original = sample_workflow();
        let ga = to_ga_json(&original);
        let doc = json::parse(&ga).unwrap();
        assert_eq!(str_field(&doc, "name"), Some("ngs-sample"));
        assert_eq!(doc.get("steps").unwrap().as_obj().unwrap().len(), original.len());
        for (i, s) in original.steps().iter().enumerate() {
            let exported = step(&doc, i);
            assert_eq!(exported.get("id").unwrap().as_usize(), Ok(i));
            assert_eq!(str_field(exported, "name"), Some(s.label()));
            assert_eq!(str_field(exported, "tool_id"), Some(s.tool().as_str()));
            assert_eq!(str_field(exported, "output_format"), Some(s.output_format().extension()));
            let annotation = format!(
                "duration_secs={};shards={};output_gib={}",
                s.duration().as_secs(),
                s.shards(),
                s.output_size_gib()
            );
            assert_eq!(str_field(exported, "annotation"), Some(annotation.as_str()));
            let inputs: Vec<usize> = s.inputs().iter().map(|id| id.index()).collect();
            assert_eq!(connection_ids(exported), inputs);
        }
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
    fn fan_in_past_ten_inputs_keeps_its_input_order() {
        // The document sorts `input10` before `input2`; the number in the
        // name, not the key order, is the input's position.
        let mut b = Workflow::builder("fan-in", RecoveryMode::RestartFromScratch);
        let sources: Vec<_> = (0..11)
            .map(|i| b.add_step(format!("src-{i}"), "t", SimDuration::from_mins(5), &[]))
            .collect();
        b.add_step("merge", "t", SimDuration::from_mins(5), &sources);
        let ga = to_ga_json(&b.build().unwrap());
        let doc = json::parse(&ga).unwrap();
        assert_eq!(connection_ids(step(&doc, 11)), (0..11).collect::<Vec<_>>());
    }

    #[test]
    fn connection_ids_must_be_non_negative_integers() {
        // Every connection names an earlier step by its bare integer id.
        let mut b = Workflow::builder("chain", RecoveryMode::RestartFromScratch);
        let mut prev = None;
        for i in 0..23 {
            let inputs: Vec<_> = prev.into_iter().collect();
            prev = Some(b.add_step(format!("step-{i}"), "tool", SimDuration::from_mins(20 + i), &inputs));
        }
        let ga = to_ga_json(&b.build().unwrap());
        let doc = json::parse(&ga).unwrap();
        for i in 1..23 {
            assert_eq!(connection_ids(step(&doc, i)), vec![i - 1]);
        }
    }

    #[test]
    fn recovery_mode_survives_the_trip() {
        let standard = {
            let mut b = Workflow::builder("std", RecoveryMode::RestartFromScratch);
            b.add_step("s", "t", SimDuration::from_mins(5), &[]);
            b.build().unwrap()
        };
        for (workflow, annotation) in [
            (standard, "recovery=restart-from-scratch"),
            (sample_workflow(), "recovery=resume-from-checkpoint"),
        ] {
            let ga = to_ga_json(&workflow);
            let doc = json::parse(&ga).unwrap();
            assert_eq!(str_field(&doc, "annotation"), Some(annotation));
        }
    }
}
