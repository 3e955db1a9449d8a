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
//! | Amazon EventBridge | [`EventBus`] (the orchestrator's shard dispatches, at-least-once under chaos) |
//! | Amazon CloudWatch | [`MetricsService`] (billed custom-metric puts) |
//!
//! All services bill into the shared
//! [`BillingLedger`](cloud_compute::BillingLedger) so experiment reports can
//! reproduce the paper's cost model, which explicitly includes these shared
//! services (§5.1.2).
//!
//! # Examples
//!
//! ```
//! use aws_stack::{AttrValue, Item, KvStore};
//! use cloud_compute::BillingLedger;
//! use sim_kernel::SimTime;
//!
//! // A DynamoDB-like table: one record per key, billed per request.
//! let mut kv = KvStore::new();
//! let mut ledger = BillingLedger::new();
//! kv.create_table("spotverse-checkpoints")?;
//! let mut item = Item::new();
//! item.insert("units_done", AttrValue::N(8.0));
//! kv.put_item("spotverse-checkpoints", "ngs-0", item, SimTime::ZERO, &mut ledger)?;
//! assert_eq!(ledger.len(), 1);
//! # Ok::<(), aws_stack::KvError>(())
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

pub use event_bus::EventBus;
pub use fault::{ServiceFault, ServiceFaultInjector, ServiceOp};
pub use file_system::{FileSystemError, FileSystemId, IoOutcome, SharedFileSystem};
pub use functions::{
    FunctionConfig, FunctionError, FunctionRuntime, InvocationOutcome, RetryPolicy,
};
pub use kv_store::{AttrValue, Item, KvError, KvStore};
pub use metrics::MetricsService;
pub use object_store::{ObjectBody, ObjectStore, ObjectStoreError, TransferOutcome};
