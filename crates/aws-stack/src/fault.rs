//! The fallible service facade — `aws-stack`'s fault-injection seam.
//!
//! Every managed service ([`crate::KvStore`], [`crate::ObjectStore`],
//! [`crate::FunctionRuntime`]) can carry a [`ServiceFaultInjector`]: a
//! chaos layer consults it before each call and may turn the call into a
//! throttling error or add latency to its outcome. Without an injector the
//! services behave exactly as before — the seam costs nothing on the
//! fault-free path.

use sim_kernel::{SimDuration, SimTime};

/// The control-plane operation being attempted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceOp {
    /// A KV-store read (`get_item`).
    KvRead,
    /// A KV-store write (`put_item`, `conditional_put`, `bill_write`).
    KvWrite,
    /// An object-store download.
    ObjectGet,
    /// An object-store upload.
    ObjectPut,
    /// A function invocation.
    FunctionInvoke,
    /// Delivery of one event-bus event to one matched target.
    EventDeliver,
}

impl std::fmt::Display for ServiceOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ServiceOp::KvRead => "kv-read",
            ServiceOp::KvWrite => "kv-write",
            ServiceOp::ObjectGet => "object-get",
            ServiceOp::ObjectPut => "object-put",
            ServiceOp::FunctionInvoke => "function-invoke",
            ServiceOp::EventDeliver => "event-deliver",
        };
        f.write_str(name)
    }
}

/// What the injector did to one call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceFault {
    /// The call fails with a throttling error.
    Throttled,
    /// The call succeeds but its outcome is delayed by this much.
    Delayed(SimDuration),
    /// The call vanishes in transit. Request/response services surface
    /// this as a retryable (throttling-class) error; for event delivery
    /// the event is silently dropped and the target never fires.
    Lost,
    /// The call is delivered twice. Only meaningful for event delivery
    /// (at-least-once semantics); idempotent request/response services
    /// treat a duplicate as a clean success.
    Duplicate,
}

/// Decides the fate of each control-plane call. Implementations must be
/// deterministic functions of their own seeded state and the call sequence.
pub trait ServiceFaultInjector: std::fmt::Debug + Send {
    /// Called once per service call; `None` means the call proceeds
    /// normally.
    fn intercept(&mut self, op: ServiceOp, at: SimTime) -> Option<ServiceFault>;
}
