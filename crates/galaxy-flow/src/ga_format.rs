//! The Galaxy `.ga` workflow interchange format, export only.
//!
//! Galaxy shares workflows as `.ga` JSON documents (the paper's Genome
//! Reconstruction workflow comes from the Galaxy training materials as one).
//! [`to_ga_json`] writes a [`Workflow`] as one, straight into a `String`
//! with no value tree in between, carrying the simulator's step
//! timing/sharding metadata in the step `annotation` field, so exported
//! files remain structurally valid Galaxy workflows. Nothing in the
//! workspace reads `.ga` documents back.

use std::fmt::Write as _;

use sim_kernel::json::push_json_str;

use crate::workflow::{RecoveryMode, Workflow};

/// Exports a workflow as a `.ga`-shaped JSON document: indented by two
/// spaces, with the keys of every object in byte order (so step `"10"`
/// comes before step `"2"`). The workflow's own strings go through
/// [`push_json_str`]; keys, numbers and fixed values are written in place.
pub fn to_ga_json(workflow: &Workflow) -> String {
    let recovery = match workflow.recovery() {
        RecoveryMode::RestartFromScratch => "restart-from-scratch",
        RecoveryMode::ResumeFromCheckpoint => "resume-from-checkpoint",
    };
    let mut out = String::from("{\n  \"a_galaxy_workflow\": \"true\",\n");
    let _ = writeln!(out, "  \"annotation\": \"recovery={recovery}\",");
    out.push_str("  \"format-version\": \"0.1\",\n  \"name\": ");
    push_json_str(&mut out, workflow.name());
    out.push_str(",\n  \"steps\": {");
    for (n, i) in byte_order(workflow.len()).into_iter().enumerate() {
        let step = &workflow.steps()[i];
        let (secs, shards, gib) = (step.duration().as_secs(), step.shards(), step.output_size_gib());
        out.push_str(if n == 0 { "\n" } else { ",\n" });
        let _ = write!(out, "    \"{i}\": {{\n      \"annotation\": ");
        let _ = writeln!(out, "\"duration_secs={secs};shards={shards};output_gib={gib}\",");
        let _ = write!(out, "      \"id\": {i},\n      \"input_connections\": {{");
        let inputs = step.inputs();
        for (m, j) in byte_order(inputs.len()).into_iter().enumerate() {
            out.push_str(if m == 0 { "\n" } else { ",\n" });
            let _ = write!(out, "        \"input{j}\": {{\n          \"id\": {},\n", inputs[j].index());
            out.push_str("          \"output_name\": \"output\"\n        }");
        }
        out.push_str(if inputs.is_empty() { "}" } else { "\n      }" });
        out.push_str(",\n      \"name\": ");
        push_json_str(&mut out, step.label());
        let format = step.output_format().extension();
        let _ = write!(out, ",\n      \"output_format\": \"{format}\",\n      \"tool_id\": ");
        push_json_str(&mut out, step.tool().as_str());
        out.push_str(",\n      \"type\": \"tool\"\n    }");
    }
    out.push_str(if workflow.is_empty() { "}\n}" } else { "\n  }\n}" });
    out
}

/// `0..n` in the byte order of their decimal spelling, the order of the
/// `.ga` keys named after them.
fn byte_order(n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_cached_key(usize::to_string);
    order
}

#[cfg(test)]
mod tests {
    use sim_kernel::json::Scanner;
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

    /// The entries of the JSON object `doc`, each value as its source
    /// text.
    fn entries(doc: &str) -> Vec<(String, &str)> {
        let mut r = Scanner::new(doc);
        r.begin_object().unwrap();
        let mut out = Vec::new();
        while let Some(key) = r.next_key().unwrap() {
            out.push((key.into_owned(), r.skip_value().unwrap()));
        }
        r.finish().unwrap();
        out
    }

    /// The source text of the value under `key` in the object `doc`.
    fn field<'d>(doc: &'d str, key: &str) -> &'d str {
        entries(doc).into_iter().find(|(k, _)| k == key).unwrap().1
    }

    /// The string under `key` in the object `doc`.
    fn str_field(doc: &str, key: &str) -> String {
        Scanner::new(field(doc, key)).read_str().unwrap().into_owned()
    }

    /// Step `i` of an exported document.
    fn step(doc: &str, i: usize) -> &str {
        field(field(doc, "steps"), &i.to_string())
    }

    /// The step ids a step's `inputN` connections name, in `N` order.
    fn connection_ids(step: &str) -> Vec<usize> {
        let connections = field(step, "input_connections");
        (0..entries(connections).len())
            .map(|n| field(field(connections, &format!("input{n}")), "id").parse().unwrap())
            .collect()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let original = sample_workflow();
        let ga = to_ga_json(&original);
        assert_eq!(str_field(&ga, "name"), "ngs-sample");
        assert_eq!(entries(field(&ga, "steps")).len(), original.len());
        for (i, s) in original.steps().iter().enumerate() {
            let exported = step(&ga, i);
            assert_eq!(field(exported, "id"), i.to_string());
            assert_eq!(str_field(exported, "name"), s.label());
            assert_eq!(str_field(exported, "tool_id"), s.tool().as_str());
            assert_eq!(str_field(exported, "output_format"), s.output_format().extension());
            let annotation = format!(
                "duration_secs={};shards={};output_gib={}",
                s.duration().as_secs(),
                s.shards(),
                s.output_size_gib()
            );
            assert_eq!(str_field(exported, "annotation"), annotation);
            let inputs: Vec<usize> = s.inputs().iter().map(|id| id.index()).collect();
            assert_eq!(connection_ids(exported), inputs);
        }
    }

    #[test]
    fn document_is_galaxy_shaped() {
        let ga = to_ga_json(&sample_workflow());
        assert_eq!(str_field(&ga, "a_galaxy_workflow"), "true");
        assert_eq!(str_field(&ga, "format-version"), "0.1");
        assert_eq!(entries(field(&ga, "steps")).len(), 3);
        let qc = step(&ga, 1);
        assert_eq!(str_field(qc, "tool_id"), "fastqc");
        assert!(str_field(qc, "annotation").contains("shards=20"));
        assert_eq!(field(step(&ga, 0), "input_connections"), "{}");
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
        assert_eq!(connection_ids(step(&ga, 11)), (0..11).collect::<Vec<_>>());
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
        for i in 1..23 {
            assert_eq!(connection_ids(step(&ga, i)), vec![i - 1]);
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
            assert_eq!(str_field(&ga, "annotation"), annotation);
        }
    }
}
