//! Workflow DAGs.
//!
//! A workflow is an ordered DAG of tool steps. The builder only lets a step
//! depend on previously added steps, so workflows are acyclic by
//! construction and insertion order is a valid topological order — matching
//! how Galaxy serializes execution on a single instance.

use std::borrow::Cow;
use std::fmt;

use sim_kernel::SimDuration;

use crate::dataset::DataFormat;
use crate::tool::ToolId;

/// Index of a step within its workflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StepId(u32);

impl StepId {
    pub(crate) fn from_index(index: usize) -> Self {
        StepId(index as u32)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StepId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "step-{}", self.0)
    }
}

/// How a workload recovers from a spot interruption (paper §2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryMode {
    /// "Standard workload": complete re-execution from the start.
    RestartFromScratch,
    /// "Checkpoint workload": resume from the most recent checkpoint.
    ResumeFromCheckpoint,
}

/// One step of a workflow.
///
/// Labels are `Cow`s: the built-in workflows name their steps with
/// string literals, and workflow construction runs once per workload in
/// the fleet runtime, so borrowed labels keep that path off the heap.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowStep {
    label: Cow<'static, str>,
    tool: ToolId,
    duration: SimDuration,
    shards: u32,
    inputs: Vec<StepId>,
    output_format: DataFormat,
    output_size_gib: f64,
}

impl WorkflowStep {
    /// Step label (unique within the workflow).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The tool the step runs.
    pub fn tool(&self) -> &ToolId {
        &self.tool
    }

    /// Nominal execution duration of the whole step.
    pub fn duration(&self) -> SimDuration {
        self.duration
    }

    /// Number of independently checkpointable shards (1 = monolithic).
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Upstream dependencies.
    pub fn inputs(&self) -> &[StepId] {
        &self.inputs
    }

    /// Output format.
    pub fn output_format(&self) -> DataFormat {
        self.output_format
    }

    /// Output size in GiB.
    pub fn output_size_gib(&self) -> f64 {
        self.output_size_gib
    }
}

/// Workflow construction/validation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkflowError {
    /// The workflow has no steps.
    Empty,
    /// A step label is duplicated.
    DuplicateLabel(String),
    /// A dependency references a step at or after the referencing step.
    ForwardDependency {
        /// The step with the bad dependency.
        step: String,
        /// The offending dependency.
        dependency: StepId,
    },
    /// A step declared zero shards.
    ZeroShards(String),
    /// A step declared zero duration.
    ZeroDuration(String),
}

impl fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkflowError::Empty => write!(f, "workflow has no steps"),
            WorkflowError::DuplicateLabel(l) => write!(f, "duplicate step label `{l}`"),
            WorkflowError::ForwardDependency { step, dependency } => {
                write!(f, "step `{step}` depends on later step {dependency}")
            }
            WorkflowError::ZeroShards(l) => write!(f, "step `{l}` declares zero shards"),
            WorkflowError::ZeroDuration(l) => write!(f, "step `{l}` declares zero duration"),
        }
    }
}

impl std::error::Error for WorkflowError {}

/// A validated workflow.
///
/// # Examples
///
/// ```
/// use galaxy_flow::{RecoveryMode, Workflow};
/// use sim_kernel::SimDuration;
///
/// let mut b = Workflow::builder("demo", RecoveryMode::RestartFromScratch);
/// let fetch = b.add_step("fetch", "sra-toolkit", SimDuration::from_mins(10), &[]);
/// b.add_step("qc", "fastqc", SimDuration::from_mins(30), &[fetch]);
/// let wf = b.build()?;
/// assert_eq!(wf.len(), 2);
/// assert_eq!(wf.total_duration(), SimDuration::from_mins(40));
/// # Ok::<(), galaxy_flow::WorkflowError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Workflow {
    name: Cow<'static, str>,
    recovery: RecoveryMode,
    steps: Vec<WorkflowStep>,
}

impl Workflow {
    /// Starts building a workflow.
    pub fn builder(name: impl Into<Cow<'static, str>>, recovery: RecoveryMode) -> WorkflowBuilder {
        WorkflowBuilder {
            name: name.into(),
            recovery,
            steps: Vec::new(),
        }
    }

    /// The workflow name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The workflow name as a shareable `Cow` — cloning a borrowed name
    /// is free, which invocations rely on.
    pub fn name_shared(&self) -> Cow<'static, str> {
        self.name.clone()
    }

    /// The recovery mode.
    pub fn recovery(&self) -> RecoveryMode {
        self.recovery
    }

    /// Whether interruptions lose all progress.
    pub fn is_checkpointable(&self) -> bool {
        self.recovery == RecoveryMode::ResumeFromCheckpoint
    }

    /// The steps, in topological (insertion) order.
    pub fn steps(&self) -> &[WorkflowStep] {
        &self.steps
    }

    /// A step by id.
    pub fn step(&self, id: StepId) -> Option<&WorkflowStep> {
        self.steps.get(id.index())
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True for a (never constructible) empty workflow.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Sum of step durations — the uninterrupted sequential makespan.
    pub fn total_duration(&self) -> SimDuration {
        self.steps
            .iter()
            .fold(SimDuration::ZERO, |acc, s| acc + s.duration())
    }

    /// Re-checks all invariants (useful after deserialization).
    ///
    /// # Errors
    ///
    /// Returns the first violated [`WorkflowError`].
    pub fn validate(&self) -> Result<(), WorkflowError> {
        if self.steps.is_empty() {
            return Err(WorkflowError::Empty);
        }
        let mut labels = std::collections::BTreeSet::new();
        for (i, step) in self.steps.iter().enumerate() {
            if !labels.insert(step.label.as_ref()) {
                return Err(WorkflowError::DuplicateLabel(step.label.to_string()));
            }
            if step.shards == 0 {
                return Err(WorkflowError::ZeroShards(step.label.to_string()));
            }
            if step.duration.is_zero() {
                return Err(WorkflowError::ZeroDuration(step.label.to_string()));
            }
            for dep in &step.inputs {
                if dep.index() >= i {
                    return Err(WorkflowError::ForwardDependency {
                        step: step.label.to_string(),
                        dependency: *dep,
                    });
                }
            }
        }
        Ok(())
    }
}

/// Builder for [`Workflow`].
#[derive(Debug)]
pub struct WorkflowBuilder {
    name: Cow<'static, str>,
    recovery: RecoveryMode,
    steps: Vec<WorkflowStep>,
}

impl WorkflowBuilder {
    /// Adds a monolithic step depending on `inputs`, returning its id.
    pub fn add_step(
        &mut self,
        label: impl Into<Cow<'static, str>>,
        tool: impl Into<ToolId>,
        duration: SimDuration,
        inputs: &[StepId],
    ) -> StepId {
        self.add_step_full(label, tool, duration, inputs, 1, DataFormat::Tabular, 0.01)
    }

    /// Adds a sharded step: `shards` equal, independently checkpointable
    /// sub-units (the paper's segmented FastQC dataset).
    pub fn add_sharded_step(
        &mut self,
        label: impl Into<Cow<'static, str>>,
        tool: impl Into<ToolId>,
        duration: SimDuration,
        inputs: &[StepId],
        shards: u32,
    ) -> StepId {
        self.add_step_full(label, tool, duration, inputs, shards, DataFormat::Tabular, 0.01)
    }

    /// Adds a step with full control over shape and outputs.
    #[allow(clippy::too_many_arguments)]
    pub fn add_step_full(
        &mut self,
        label: impl Into<Cow<'static, str>>,
        tool: impl Into<ToolId>,
        duration: SimDuration,
        inputs: &[StepId],
        shards: u32,
        output_format: DataFormat,
        output_size_gib: f64,
    ) -> StepId {
        let id = StepId(self.steps.len() as u32);
        self.steps.push(WorkflowStep {
            label: label.into(),
            tool: tool.into(),
            duration,
            shards,
            inputs: inputs.to_vec(),
            output_format,
            output_size_gib,
        });
        id
    }

    /// Finalizes the workflow.
    ///
    /// # Errors
    ///
    /// Returns a [`WorkflowError`] if any invariant is violated.
    pub fn build(self) -> Result<Workflow, WorkflowError> {
        let wf = Workflow {
            name: self.name,
            recovery: self.recovery,
            steps: self.steps,
        };
        wf.validate()?;
        Ok(wf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mins(m: u64) -> SimDuration {
        SimDuration::from_mins(m)
    }

    #[test]
    fn build_validates_and_orders() {
        let mut b = Workflow::builder("w", RecoveryMode::RestartFromScratch);
        let a = b.add_step("a", "t1", mins(5), &[]);
        let c = b.add_step("b", "t2", mins(10), &[a]);
        b.add_step("c", "t3", mins(15), &[a, c]);
        let wf = b.build().unwrap();
        assert_eq!(wf.len(), 3);
        assert_eq!(wf.total_duration(), mins(30));
        assert_eq!(wf.step(a).unwrap().label(), "a");
        assert!(!wf.is_checkpointable());
        assert!(wf.validate().is_ok());
    }

    #[test]
    fn empty_workflow_rejected() {
        let b = Workflow::builder("w", RecoveryMode::RestartFromScratch);
        assert_eq!(b.build().unwrap_err(), WorkflowError::Empty);
    }

    #[test]
    fn duplicate_labels_rejected() {
        let mut b = Workflow::builder("w", RecoveryMode::RestartFromScratch);
        b.add_step("x", "t", mins(1), &[]);
        b.add_step("x", "t", mins(1), &[]);
        assert!(matches!(b.build(), Err(WorkflowError::DuplicateLabel(_))));
    }

    #[test]
    fn zero_duration_and_shards_rejected() {
        let mut b = Workflow::builder("w", RecoveryMode::RestartFromScratch);
        b.add_step("x", "t", SimDuration::ZERO, &[]);
        assert!(matches!(b.build(), Err(WorkflowError::ZeroDuration(_))));

        let mut b = Workflow::builder("w", RecoveryMode::ResumeFromCheckpoint);
        b.add_sharded_step("x", "t", mins(1), &[], 0);
        assert!(matches!(b.build(), Err(WorkflowError::ZeroShards(_))));
    }

    #[test]
    fn sharded_steps_carry_counts() {
        let mut b = Workflow::builder("w", RecoveryMode::ResumeFromCheckpoint);
        b.add_sharded_step("qc", "fastqc", mins(160), &[], 16);
        let wf = b.build().unwrap();
        assert_eq!(wf.steps()[0].shards(), 16);
        assert!(wf.is_checkpointable());
        assert_eq!(wf.recovery(), RecoveryMode::ResumeFromCheckpoint);
    }

    #[test]
    fn forward_dependency_detected_by_validate() {
        // The builder only accepts dependencies on earlier steps, so a
        // built workflow always validates.
        let mut b = Workflow::builder("w", RecoveryMode::RestartFromScratch);
        let a = b.add_step("a", "t", mins(1), &[]);
        b.add_step("b", "t", mins(1), &[a]);
        let wf = b.build().unwrap();
        // Self-dependency via index juggling is impossible through the
        // builder; validate() still guards the invariant.
        assert!(wf.validate().is_ok());
    }

    #[test]
    fn step_accessors() {
        let mut b = Workflow::builder("w", RecoveryMode::RestartFromScratch);
        let id = b.add_step_full("x", "t", mins(2), &[], 1, DataFormat::Fasta, 0.5);
        let wf = b.build().unwrap();
        let s = wf.step(id).unwrap();
        assert_eq!(s.tool().as_str(), "t");
        assert_eq!(s.output_format(), DataFormat::Fasta);
        assert_eq!(s.output_size_gib(), 0.5);
        assert!(s.inputs().is_empty());
        assert_eq!(wf.step(StepId(9)), None);
        assert_eq!(StepId(3).to_string(), "step-3");
    }
}
