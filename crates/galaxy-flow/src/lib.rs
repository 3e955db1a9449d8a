//! # galaxy-flow
//!
//! The Galaxy workflow model the paper's bioinformatics workloads run
//! through, reduced to what the SpotVerse runs read:
//!
//! * validated DAG [`Workflow`]s with monolithic and *sharded*
//!   (checkpointable) steps, each naming a [`ToolId`] and an output
//!   [`DataFormat`];
//! * [`WorkflowInvocation`]s with the paper's two interruption semantics —
//!   restart-from-scratch and resume-from-checkpoint
//!   ([`RecoveryMode`]) — over a flat [`ExecutionPlan`] of work units;
//! * the Galaxy `.ga` workflow export ([`to_ga_json`]).
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

mod dataset;
pub mod ga_format;
mod invocation;
mod tool;
mod workflow;

pub use dataset::DataFormat;
pub use ga_format::to_ga_json;
pub use invocation::{
    ExecutionPlan, InvocationError, InvocationStatus, RunProgress, WorkUnit, WorkflowInvocation,
};
pub use tool::ToolId;
pub use workflow::{RecoveryMode, StepId, Workflow, WorkflowBuilder, WorkflowError, WorkflowStep};
