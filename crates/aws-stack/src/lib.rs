//! # aws-stack
//!
//! The serverless substrate of the SpotVerse reproduction — in-simulation
//! equivalents of the managed services the paper's implementation (§4) is
//! built from:
//!
//! | Paper service | This crate |
//! |---|---|
//! | Amazon S3 | [`ObjectStore`] (cross-region transfer pricing & latency) |
//! | Amazon DynamoDB | [`KvStore`] (items, conditional writes) |
//! | AWS Lambda | [`FunctionRuntime`] (memory/duration billing) |
//! | AWS Step Functions | [`RetryPolicy`] (retry with backoff) |
//! | Amazon EventBridge | [`EventBus`] (rules routing interruption notices) |
//! | Amazon CloudWatch | [`MetricsService`] + [`Schedule`] (metrics, periodic rules) |
//!
//! All services bill into the shared
//! [`BillingLedger`](cloud_compute::BillingLedger) so experiment reports can
//! reproduce the paper's cost model, which explicitly includes these shared
//! services (§5.1.2).
//!
//! # Examples
//!
//! ```
//! use aws_stack::{MetricKey, MetricsService, Schedule};
//! use cloud_compute::BillingLedger;
//! use cloud_market::Region;
//! use sim_kernel::{SimDuration, SimTime};
//!
//! // The Monitor's collection schedule: every 5 minutes.
//! let mut cw = MetricsService::new(Region::UsEast1);
//! cw.put_schedule(Schedule::new(
//!     "collect-spot-metrics",
//!     SimDuration::from_mins(5),
//!     SimTime::ZERO,
//! ));
//! assert_eq!(cw.schedules()[0].occurrences(SimTime::ZERO, SimTime::from_hours(1)).len(), 12);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod event_bus;
pub mod fault;
mod file_system;
mod functions;
mod kv_store;
mod metrics;
mod object_store;

pub use event_bus::{BusEvent, EventBus, EventBusError, Rule};
pub use fault::{ServiceFault, ServiceFaultInjector, ServiceOp};
pub use file_system::{
    FileEntry, FileSystemError, FileSystemId, IoOutcome, SharedFileSystem,
};
pub use functions::{
    FunctionConfig, FunctionError, FunctionRuntime, InvocationOutcome, InvocationRecord,
    RetryPolicy,
};
pub use kv_store::{AttrValue, Item, KvError, KvStore};
pub use metrics::{MetricKey, MetricsError, MetricsService, Schedule, Statistic};
pub use object_store::{
    ObjectBody, ObjectStore, ObjectStoreError, StoredObject, TransferOutcome,
};
