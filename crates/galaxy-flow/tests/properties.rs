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

mod ga_roundtrip {
    use super::*;
    use galaxy_flow::to_ga_json;
    use sim_kernel::json::{self, JsonVal};

    proptest! {
        /// Every constructible workflow exports to a JSON document that
        /// parses and writes back byte-identically, with one step per
        /// workflow step under its own name.
        #[test]
        fn ga_codec_roundtrips(wf in arb_workflow(RecoveryMode::ResumeFromCheckpoint)) {
            let ga = to_ga_json(&wf);
            let doc = json::parse(&ga).unwrap();
            prop_assert_eq!(&json::write_pretty(&doc), &ga);
            let steps = doc.get("steps").unwrap();
            prop_assert_eq!(steps.as_obj().unwrap().len(), wf.len());
            for (i, step) in wf.steps().iter().enumerate() {
                let name = steps.get(&i.to_string()).and_then(|s| s.get("name"));
                prop_assert_eq!(name.unwrap().as_str(), Ok(step.label()));
            }
        }

        /// The JSON writer `.ga` documents are written with produces
        /// parseable documents for arbitrary string content (escaping is
        /// total).
        #[test]
        fn json_string_escaping_is_total(s in ".*") {
            let rendered = json::write_pretty(&JsonVal::Str(s.as_str().into()));
            let parsed = json::parse(&rendered).unwrap();
            prop_assert_eq!(parsed.as_str(), Ok(s.as_str()));
        }

        /// Arbitrary nested JSON documents round-trip through
        /// write ∘ parse, indented or compact.
        #[test]
        fn json_document_roundtrip(
            keys in prop::collection::vec("[a-z]{1,8}", 1..6),
            numbers in prop::collection::vec(-1e9f64..1e9, 1..6),
        ) {
            let map: std::collections::BTreeMap<_, _> = keys
                .iter()
                .zip(numbers.iter())
                .map(|(k, n)| (k.clone(), JsonVal::Num(format!("{}", (*n * 100.0).round() / 100.0).into())))
                .collect();
            let entries: Vec<_> = map.into_iter().map(|(k, v)| (k.into(), v)).collect();
            let doc = JsonVal::Obj(vec![("doc".into(), JsonVal::Arr(vec![JsonVal::Obj(entries)]))]);
            let pretty = json::write_pretty(&doc);
            prop_assert_eq!(&json::parse(&pretty).unwrap(), &doc);
            let mut compact = String::new();
            json::write_into(&doc, &mut compact);
            prop_assert_eq!(json::parse(&compact).unwrap(), doc);
        }
    }
}
