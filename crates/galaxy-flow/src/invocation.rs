//! Workflow invocations: execution plans, unit-level progress, and
//! interruption/resume semantics.
//!
//! Execution is modelled at the granularity of *units*: a monolithic step is
//! one unit, a sharded step contributes one unit per shard. Progress is a
//! count of completed units. On interruption, a restart-from-scratch
//! workload resets to zero; a checkpoint workload keeps every completed unit
//! (the paper's NGS preprocessing tracks each file's processing status).

use std::borrow::Cow;
use std::fmt;

use sim_kernel::SimDuration;

use crate::workflow::{RecoveryMode, StepId, Workflow};

/// A unit of work: `(step, shard_index, duration)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkUnit {
    /// The owning step.
    pub step: StepId,
    /// Zero-based shard index within the step.
    pub shard: u32,
    /// The unit's duration.
    pub duration: SimDuration,
}

/// The flattened execution plan of a workflow.
///
/// # Examples
///
/// ```
/// use galaxy_flow::{ExecutionPlan, RecoveryMode, Workflow};
/// use sim_kernel::SimDuration;
///
/// let mut b = Workflow::builder("w", RecoveryMode::ResumeFromCheckpoint);
/// b.add_sharded_step("qc", "fastqc", SimDuration::from_mins(40), &[], 4);
/// let wf = b.build()?;
/// let plan = ExecutionPlan::new(&wf);
/// assert_eq!(plan.unit_count(), 4);
/// assert_eq!(plan.remaining_after(1), SimDuration::from_mins(30));
/// # Ok::<(), galaxy_flow::WorkflowError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionPlan {
    units: Vec<WorkUnit>,
    total: SimDuration,
}

impl ExecutionPlan {
    /// Flattens a workflow into its unit sequence.
    pub fn new(workflow: &Workflow) -> Self {
        Self::from_steps(workflow.steps().iter().map(|s| (s.duration(), s.shards())))
    }

    /// Builds the plan from each step's `(duration, shards)`, in execution
    /// order. A step of `shards` shards becomes that many units of
    /// `duration / shards`, rounded to the second and at least one second.
    ///
    /// The iterator is walked twice — once to size the unit vector — so a
    /// plan costs one allocation however many units it has.
    pub fn from_steps<I>(steps: I) -> Self
    where
        I: IntoIterator<Item = (SimDuration, u32)>,
        I::IntoIter: Clone,
    {
        let steps = steps.into_iter();
        let unit_count = steps.clone().map(|(_, shards)| shards as usize).sum();
        let mut units = Vec::with_capacity(unit_count);
        let mut total = SimDuration::ZERO;
        for (i, (duration, shards)) in steps.enumerate() {
            let per_shard = SimDuration::from_secs(
                (duration.as_secs() as f64 / f64::from(shards)).round() as u64,
            )
            .max(SimDuration::from_secs(1));
            let step = StepId::from_index(i);
            for shard in 0..shards {
                units.push(WorkUnit { step, shard, duration: per_shard });
                total += per_shard;
            }
        }
        ExecutionPlan { units, total }
    }

    /// Number of units.
    pub fn unit_count(&self) -> usize {
        self.units.len()
    }

    /// The units in execution order.
    pub fn units(&self) -> &[WorkUnit] {
        &self.units
    }

    /// Total uninterrupted duration.
    pub fn total_duration(&self) -> SimDuration {
        self.total
    }

    /// Duration remaining after `units_done` completed units.
    ///
    /// # Panics
    ///
    /// Panics if `units_done` exceeds the unit count.
    pub fn remaining_after(&self, units_done: usize) -> SimDuration {
        // Every launch of a restart-from-scratch workload asks from zero.
        if units_done == 0 {
            return self.total;
        }
        assert!(
            units_done <= self.units.len(),
            "remaining_after: units_done {units_done} > unit count {}",
            self.units.len()
        );
        self.units[units_done..]
            .iter()
            .fold(SimDuration::ZERO, |acc, u| acc + u.duration)
    }

    /// How many additional full units complete within `elapsed`, starting
    /// after `units_done` completed units.
    pub fn units_completed_within(&self, units_done: usize, elapsed: SimDuration) -> usize {
        let mut remaining = elapsed;
        let mut completed = 0;
        for unit in &self.units[units_done.min(self.units.len())..] {
            if remaining >= unit.duration {
                remaining -= unit.duration;
                completed += 1;
            } else {
                break;
            }
        }
        completed
    }
}

/// Invocation status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvocationStatus {
    /// Created, no work recorded yet.
    New,
    /// Some units completed, more remain.
    InProgress,
    /// All units completed.
    Completed,
}

/// Invocation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvocationError {
    /// Attempted to resume past the plan's unit count.
    ResumeOutOfRange {
        /// Units requested.
        requested: usize,
        /// Units available.
        available: usize,
    },
    /// Work was recorded on a completed invocation.
    AlreadyCompleted,
}

impl fmt::Display for InvocationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvocationError::ResumeOutOfRange {
                requested,
                available,
            } => write!(f, "resume to {requested} units but plan has {available}"),
            InvocationError::AlreadyCompleted => write!(f, "invocation already completed"),
        }
    }
}

impl std::error::Error for InvocationError {}

/// Outcome of recording a stretch of execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunProgress {
    /// Units newly completed in this stretch.
    pub units_completed: usize,
    /// Whether the invocation finished.
    pub finished: bool,
}

/// A workflow invocation tracking unit-level progress across interruptions.
///
/// # Examples
///
/// ```
/// use galaxy_flow::{RecoveryMode, Workflow, WorkflowInvocation};
/// use sim_kernel::SimDuration;
///
/// let mut b = Workflow::builder("ngs", RecoveryMode::ResumeFromCheckpoint);
/// b.add_sharded_step("qc", "fastqc", SimDuration::from_hours(10), &[], 10);
/// let wf = b.build()?;
/// let mut inv = WorkflowInvocation::new(&wf);
///
/// // Run 3.5 hours, then get interrupted: 3 shards persist.
/// let progress = inv.record_execution(SimDuration::from_hours_f64(3.5))?;
/// assert_eq!(progress.units_completed, 3);
/// inv.handle_interruption();
/// assert_eq!(inv.units_done(), 3); // checkpointed
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowInvocation {
    workflow_name: Cow<'static, str>,
    recovery: RecoveryMode,
    plan: ExecutionPlan,
    units_done: usize,
    interruptions: u32,
}

impl WorkflowInvocation {
    /// Creates a fresh invocation of a workflow.
    pub fn new(workflow: &Workflow) -> Self {
        Self::from_plan(workflow.name_shared(), workflow.recovery(), ExecutionPlan::new(workflow))
    }

    /// Creates a fresh invocation from a plan built without its
    /// [`Workflow`] — for callers that know the step table but need none
    /// of the DAG's labels, tools or edges.
    pub fn from_plan(
        workflow_name: impl Into<Cow<'static, str>>,
        recovery: RecoveryMode,
        plan: ExecutionPlan,
    ) -> Self {
        WorkflowInvocation {
            workflow_name: workflow_name.into(),
            recovery,
            plan,
            units_done: 0,
            interruptions: 0,
        }
    }

    /// The workflow name.
    pub fn workflow_name(&self) -> &str {
        &self.workflow_name
    }

    /// The execution plan.
    pub fn plan(&self) -> &ExecutionPlan {
        &self.plan
    }

    /// Completed units.
    pub fn units_done(&self) -> usize {
        self.units_done
    }

    /// Interruptions experienced.
    pub fn interruptions(&self) -> u32 {
        self.interruptions
    }

    /// Completed fraction in `[0, 1]`.
    pub fn fraction_done(&self) -> f64 {
        self.units_done as f64 / self.plan.unit_count() as f64
    }

    /// Current status.
    pub fn status(&self) -> InvocationStatus {
        if self.units_done == 0 {
            InvocationStatus::New
        } else if self.units_done < self.plan.unit_count() {
            InvocationStatus::InProgress
        } else {
            InvocationStatus::Completed
        }
    }

    /// Whether all units are done.
    pub fn is_completed(&self) -> bool {
        self.units_done == self.plan.unit_count()
    }

    /// Time needed to finish if uninterrupted from here.
    pub fn remaining_duration(&self) -> SimDuration {
        self.plan.remaining_after(self.units_done)
    }

    /// Records `elapsed` of uninterrupted execution, completing as many
    /// units as fit.
    ///
    /// # Errors
    ///
    /// Returns [`InvocationError::AlreadyCompleted`] when called on a
    /// finished invocation.
    pub fn record_execution(&mut self, elapsed: SimDuration) -> Result<RunProgress, InvocationError> {
        if self.is_completed() {
            return Err(InvocationError::AlreadyCompleted);
        }
        let completed = self.plan.units_completed_within(self.units_done, elapsed);
        self.units_done += completed;
        Ok(RunProgress {
            units_completed: completed,
            finished: self.is_completed(),
        })
    }

    /// Applies interruption semantics: restart-from-scratch loses all
    /// progress; checkpoint workloads keep completed units.
    pub fn handle_interruption(&mut self) {
        self.interruptions += 1;
        if self.recovery == RecoveryMode::RestartFromScratch {
            self.units_done = 0;
        }
    }

    /// Restores progress from an external checkpoint record (e.g. loaded
    /// from the KV store by a replacement instance).
    ///
    /// # Errors
    ///
    /// Returns [`InvocationError::ResumeOutOfRange`] when `units` exceeds
    /// the plan.
    pub fn resume_from(&mut self, units: usize) -> Result<(), InvocationError> {
        if units > self.plan.unit_count() {
            return Err(InvocationError::ResumeOutOfRange {
                requested: units,
                available: self.plan.unit_count(),
            });
        }
        self.units_done = units;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::RecoveryMode;

    fn sharded_workflow(shards: u32, hours: u64, recovery: RecoveryMode) -> Workflow {
        let mut b = Workflow::builder("w", recovery);
        b.add_sharded_step("s", "t", SimDuration::from_hours(hours), &[], shards);
        b.build().unwrap()
    }

    #[test]
    fn plan_flattens_shards() {
        let wf = sharded_workflow(4, 4, RecoveryMode::ResumeFromCheckpoint);
        let plan = ExecutionPlan::new(&wf);
        assert_eq!(plan.unit_count(), 4);
        assert_eq!(plan.total_duration(), SimDuration::from_hours(4));
        assert_eq!(plan.units()[2].shard, 2);
        assert_eq!(plan.remaining_after(4), SimDuration::ZERO);
    }

    #[test]
    fn multi_step_plan_orders_units_by_step() {
        let mut b = Workflow::builder("w", RecoveryMode::RestartFromScratch);
        let a = b.add_step("a", "t", SimDuration::from_hours(1), &[]);
        b.add_sharded_step("b", "t", SimDuration::from_hours(2), &[a], 2);
        let wf = b.build().unwrap();
        let plan = ExecutionPlan::new(&wf);
        assert_eq!(plan.unit_count(), 3);
        assert_eq!(plan.units()[0].step.index(), 0);
        assert_eq!(plan.units()[1].step.index(), 1);
        assert_eq!(plan.units()[1].duration, SimDuration::from_hours(1));
    }

    #[test]
    fn units_completed_within_partial_unit() {
        let wf = sharded_workflow(10, 10, RecoveryMode::ResumeFromCheckpoint);
        let plan = ExecutionPlan::new(&wf);
        // 2.9 hours completes 2 full one-hour units.
        assert_eq!(
            plan.units_completed_within(0, SimDuration::from_hours_f64(2.9)),
            2
        );
        assert_eq!(plan.units_completed_within(9, SimDuration::from_hours(5)), 1);
        assert_eq!(plan.units_completed_within(10, SimDuration::from_hours(5)), 0);
    }

    #[test]
    fn checkpoint_workload_keeps_progress_on_interruption() {
        let wf = sharded_workflow(10, 10, RecoveryMode::ResumeFromCheckpoint);
        let mut inv = WorkflowInvocation::new(&wf);
        inv.record_execution(SimDuration::from_hours(4)).unwrap();
        inv.handle_interruption();
        assert_eq!(inv.units_done(), 4);
        assert_eq!(inv.interruptions(), 1);
        assert_eq!(inv.remaining_duration(), SimDuration::from_hours(6));
        assert_eq!(inv.status(), InvocationStatus::InProgress);
    }

    #[test]
    fn standard_workload_loses_progress_on_interruption() {
        let wf = sharded_workflow(1, 10, RecoveryMode::RestartFromScratch);
        let mut inv = WorkflowInvocation::new(&wf);
        // 9 hours of a 10-hour monolithic unit: nothing completed yet.
        let p = inv.record_execution(SimDuration::from_hours(9)).unwrap();
        assert_eq!(p.units_completed, 0);
        inv.handle_interruption();
        assert_eq!(inv.units_done(), 0);
        assert_eq!(inv.remaining_duration(), SimDuration::from_hours(10));
    }

    #[test]
    fn completion_flow() {
        let wf = sharded_workflow(2, 2, RecoveryMode::ResumeFromCheckpoint);
        let mut inv = WorkflowInvocation::new(&wf);
        assert_eq!(inv.status(), InvocationStatus::New);
        let p = inv.record_execution(SimDuration::from_hours(2)).unwrap();
        assert!(p.finished);
        assert!(inv.is_completed());
        assert_eq!(inv.fraction_done(), 1.0);
        assert!(matches!(
            inv.record_execution(SimDuration::from_hours(1)),
            Err(InvocationError::AlreadyCompleted)
        ));
    }

    #[test]
    fn resume_from_validates_range() {
        let wf = sharded_workflow(5, 5, RecoveryMode::ResumeFromCheckpoint);
        let mut inv = WorkflowInvocation::new(&wf);
        inv.resume_from(3).unwrap();
        assert_eq!(inv.units_done(), 3);
        let err = inv.resume_from(6).unwrap_err();
        assert!(err.to_string().contains("plan has 5"));
    }

    #[test]
    fn workflow_name_is_carried() {
        let wf = sharded_workflow(1, 1, RecoveryMode::RestartFromScratch);
        let inv = WorkflowInvocation::new(&wf);
        assert_eq!(inv.workflow_name(), "w");
        assert_eq!(inv.plan().unit_count(), 1);
    }
}
