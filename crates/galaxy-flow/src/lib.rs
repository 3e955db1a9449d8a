//! # galaxy-flow
//!
//! A Galaxy-like workflow-management substrate: the open-source, web-based
//! platform the paper's bioinformatics workloads run on, reduced to the
//! surfaces SpotVerse interacts with —
//!
//! * a [`ToolShed`] of versioned tools gated behind `admin_users`
//!   ([`GalaxyInstance::install_tool`]),
//! * [`History`] / [`Dataset`] provenance,
//! * validated DAG [`Workflow`]s with monolithic and *sharded*
//!   (checkpointable) steps,
//! * [`WorkflowInvocation`]s with the paper's two interruption semantics —
//!   restart-from-scratch and resume-from-checkpoint
//!   ([`RecoveryMode`]),
//! * a [`CheckpointStore`] abstraction for durable shard progress, and
//! * a [`PlanemoRunner`] that executes workflows headlessly through the
//!   API-key path the paper's user-data script uses.
//!
//! # Examples
//!
//! ```
//! use galaxy_flow::{RecoveryMode, Workflow, WorkflowInvocation};
//! use sim_kernel::SimDuration;
//!
//! // A 10-hour checkpoint workload segmented into 20 shards.
//! let mut b = Workflow::builder("ngs-preprocessing", RecoveryMode::ResumeFromCheckpoint);
//! b.add_sharded_step("fastqc", "fastqc", SimDuration::from_hours(10), &[], 20);
//! let wf = b.build()?;
//!
//! let mut inv = WorkflowInvocation::new(&wf);
//! inv.record_execution(SimDuration::from_hours(4))?; // 8 shards done
//! inv.handle_interruption();                          // checkpoint keeps them
//! assert_eq!(inv.units_done(), 8);
//! assert_eq!(inv.remaining_duration(), SimDuration::from_hours(6));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod checkpoint;
mod dataset;
pub mod ga_format;
mod galaxy;
mod invocation;
mod planemo;
mod tool;
mod workflow;

pub use checkpoint::{CheckpointError, CheckpointRecord, CheckpointStore, InMemoryCheckpointStore};
pub use dataset::{DataFormat, Dataset, DatasetId, History, HistoryItem};
pub use ga_format::{from_ga_json, to_ga_json, GaFormatError};
pub use galaxy::{GalaxyConfig, GalaxyError, GalaxyInstance};
pub use invocation::{
    ExecutionPlan, InvocationError, InvocationStatus, RunProgress, WorkUnit, WorkflowInvocation,
};
pub use planemo::{PlanemoError, PlanemoRunner, RunReport, StepTiming};
pub use tool::{Tool, ToolCategory, ToolId, ToolRequirements, ToolShed, ToolShedError};
pub use workflow::{RecoveryMode, StepId, Workflow, WorkflowBuilder, WorkflowError, WorkflowStep};
