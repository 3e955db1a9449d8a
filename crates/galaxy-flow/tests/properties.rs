//! Property-based tests on workflow execution-plan arithmetic: the
//! invariants the experiment engine's progress accounting relies on.

use proptest::prelude::*;

use galaxy_flow::{ExecutionPlan, RecoveryMode, Workflow, WorkflowInvocation};
use sim_kernel::SimDuration;

/// An arbitrary small workflow: 1–6 steps, each with 1–8 shards and a
/// duration of minutes to hours.
fn arb_workflow(recovery: RecoveryMode) -> impl Strategy<Value = Workflow> {
    prop::collection::vec((1u32..8, 60u64..20_000), 1..6).prop_map(move |steps| {
        let mut b = Workflow::builder("prop", recovery);
        let mut prev = None;
        for (i, (shards, secs)) in steps.into_iter().enumerate() {
            let inputs: Vec<_> = prev.into_iter().collect();
            let id = b.add_sharded_step(
                format!("s{i}"),
                "tool",
                SimDuration::from_secs(secs),
                &inputs,
                shards,
            );
            prev = Some(id);
        }
        b.build().expect("generated workflow is valid")
    })
}

proptest! {
    /// remaining_after(k) + time-of-first-k-units == total, for every k.
    #[test]
    fn plan_work_is_conserved(wf in arb_workflow(RecoveryMode::ResumeFromCheckpoint)) {
        let plan = ExecutionPlan::new(&wf);
        let total = plan.total_duration();
        for k in 0..=plan.unit_count() {
            let done: SimDuration = plan.units()[..k]
                .iter()
                .fold(SimDuration::ZERO, |acc, u| acc + u.duration);
            prop_assert_eq!(done + plan.remaining_after(k), total);
        }
    }

    /// units_completed_within never overshoots the elapsed budget and is
    /// monotone in elapsed time.
    #[test]
    fn units_completed_within_is_sound(
        wf in arb_workflow(RecoveryMode::ResumeFromCheckpoint),
        elapsed_secs in 0u64..200_000,
    ) {
        let plan = ExecutionPlan::new(&wf);
        let elapsed = SimDuration::from_secs(elapsed_secs);
        let n = plan.units_completed_within(0, elapsed);
        let consumed: SimDuration = plan.units()[..n]
            .iter()
            .fold(SimDuration::ZERO, |acc, u| acc + u.duration);
        prop_assert!(consumed <= elapsed, "completed units exceed the elapsed budget");
        // One more unit would not have fit (unless all are done).
        if n < plan.unit_count() {
            let next = plan.units()[n].duration;
            prop_assert!(consumed + next > elapsed);
        }
        // Monotonicity.
        let more = plan.units_completed_within(0, elapsed + SimDuration::from_secs(1));
        prop_assert!(more >= n);
    }

    /// Interruption semantics: checkpoint invocations never lose completed
    /// units; restart invocations always reset to zero.
    #[test]
    fn interruption_semantics_hold(
        wf_ckpt in arb_workflow(RecoveryMode::ResumeFromCheckpoint),
        wf_std in arb_workflow(RecoveryMode::RestartFromScratch),
        run_secs in 0u64..100_000,
    ) {
        let mut ckpt = WorkflowInvocation::new(&wf_ckpt);
        let _ = ckpt.record_execution(SimDuration::from_secs(run_secs));
        let before = ckpt.units_done();
        ckpt.handle_interruption();
        prop_assert_eq!(ckpt.units_done(), before);

        let mut std = WorkflowInvocation::new(&wf_std);
        let _ = std.record_execution(SimDuration::from_secs(run_secs));
        std.handle_interruption();
        prop_assert_eq!(std.units_done(), 0);
    }

    /// Running an invocation in arbitrary chunks completes in exactly the
    /// chunks that sum past the total duration (no lost or duplicated
    /// progress across chunk boundaries for unit-aligned chunks).
    #[test]
    fn chunked_execution_reaches_completion(
        wf in arb_workflow(RecoveryMode::ResumeFromCheckpoint),
    ) {
        let plan = ExecutionPlan::new(&wf);
        let mut inv = WorkflowInvocation::new(&wf);
        // Execute unit by unit using each unit's exact duration.
        for unit in plan.units() {
            prop_assert!(!inv.is_completed());
            let p = inv.record_execution(unit.duration).unwrap();
            prop_assert_eq!(p.units_completed, 1);
        }
        prop_assert!(inv.is_completed());
        prop_assert_eq!(inv.remaining_duration(), SimDuration::ZERO);
        prop_assert!((inv.fraction_done() - 1.0).abs() < 1e-12);
    }

    /// resume_from round-trips with units_done for every valid offset.
    #[test]
    fn resume_roundtrip(wf in arb_workflow(RecoveryMode::ResumeFromCheckpoint)) {
        let plan_units = ExecutionPlan::new(&wf).unit_count();
        let mut inv = WorkflowInvocation::new(&wf);
        for k in 0..=plan_units {
            inv.resume_from(k).unwrap();
            prop_assert_eq!(inv.units_done(), k);
        }
        prop_assert!(inv.resume_from(plan_units + 1).is_err());
    }
}

mod ga_export {
    use super::*;
    use galaxy_flow::to_ga_json;
    use sim_kernel::json::Scanner;

    /// Text for names, labels and tool ids: quotes, backslashes, control
    /// characters and multibyte characters among plain ones.
    const TEXT: &str = "[\u{0}-\u{1f}\"\\/a-z é€😀]{0,12}";

    /// A workflow of 1–24 steps with arbitrary names, labels and tool ids,
    /// each step taking up to 13 inputs from earlier steps, so that step
    /// and input counts past ten, whose keys sort out of numeric order,
    /// are common.
    fn arb_named_workflow() -> impl Strategy<Value = Workflow> {
        let step = (TEXT, TEXT, prop::collection::vec(any::<usize>(), 0..14));
        (TEXT, prop::collection::vec(step, 1..25)).prop_map(|(name, steps)| {
            let mut b = Workflow::builder(name, RecoveryMode::ResumeFromCheckpoint);
            let mut ids = Vec::new();
            for (k, (label, tool, picks)) in steps.into_iter().enumerate() {
                let inputs: Vec<_> = match k {
                    0 => Vec::new(),
                    _ => picks.iter().map(|p| ids[p % k]).collect(),
                };
                // The index keeps labels unique and tool ids non-empty.
                let mins = SimDuration::from_mins(5);
                ids.push(b.add_step(format!("{k}{label}"), format!("{k}{tool}"), mins, &inputs));
            }
            b.build().expect("generated workflow is valid")
        })
    }

    /// The entries of the JSON object `doc`, each value as its source text.
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
        Scanner::new(field(doc, key))
            .read_str()
            .unwrap()
            .into_owned()
    }

    /// Checks that every object in `doc` lists its keys in byte order.
    fn keys_in_byte_order(doc: &str) -> Result<(), TestCaseError> {
        let entries = entries(doc);
        for pair in entries.windows(2) {
            prop_assert!(
                pair[0].0 < pair[1].0,
                "`{}` before `{}`",
                pair[0].0,
                pair[1].0
            );
        }
        for (_, value) in entries {
            if value.starts_with('{') {
                keys_in_byte_order(value)?;
            }
        }
        Ok(())
    }

    proptest! {
        /// The export is one JSON value and nothing after it.
        #[test]
        fn ga_export_is_one_json_value(wf in arb_named_workflow()) {
            let ga = to_ga_json(&wf);
            let mut r = Scanner::new(&ga);
            prop_assert_eq!(r.skip_value(), Ok(ga.as_str()));
            prop_assert_eq!(r.finish(), Ok(()));
        }

        /// The workflow name, step labels and tool ids read back equal,
        /// whatever characters they hold.
        #[test]
        fn ga_export_strings_read_back_equal(wf in arb_named_workflow()) {
            let ga = to_ga_json(&wf);
            prop_assert_eq!(str_field(&ga, "name"), wf.name());
            let steps = field(&ga, "steps");
            for (i, step) in wf.steps().iter().enumerate() {
                let exported = field(steps, &i.to_string());
                prop_assert_eq!(str_field(exported, "name"), step.label());
                prop_assert_eq!(str_field(exported, "tool_id"), step.tool().as_str());
            }
        }

        /// Every object lists its keys in byte order (step `10` before
        /// step `2`, `input10` before `input2`), each step's `id` is its
        /// key, and each `inputN` names the step's `N`-th input.
        #[test]
        fn ga_export_keys_sort_in_byte_order_and_ids_match(wf in arb_named_workflow()) {
            let ga = to_ga_json(&wf);
            keys_in_byte_order(&ga)?;
            let steps = entries(field(&ga, "steps"));
            prop_assert_eq!(steps.len(), wf.len());
            for (key, exported) in steps {
                prop_assert_eq!(field(exported, "id"), key.as_str());
                let inputs = wf.steps()[key.parse::<usize>().unwrap()].inputs();
                let connections = entries(field(exported, "input_connections"));
                prop_assert_eq!(connections.len(), inputs.len());
                for (input, connection) in connections {
                    let n: usize = input.strip_prefix("input").unwrap().parse().unwrap();
                    prop_assert_eq!(field(connection, "id"), inputs[n].index().to_string());
                    prop_assert_eq!(str_field(connection, "output_name"), "output");
                }
            }
        }
    }
}
