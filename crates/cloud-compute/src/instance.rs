//! Instance identities and lifecycle records.

use std::fmt;

use sim_kernel::SimTime;

use cloud_market::{InstanceType, Region, Usd};

/// Unique identifier of a launched instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceId(u64);

impl InstanceId {
    pub(crate) fn new(raw: u64) -> Self {
        InstanceId(raw)
    }

    /// The raw numeric id.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Reconstructs an id from its raw value — for trace tooling and
    /// tests that replay recorded runs; [`Ec2`](crate::Ec2) alone mints
    /// fresh ids.
    pub fn from_raw(raw: u64) -> Self {
        InstanceId(raw)
    }
}

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i-{:08x}", self.0)
    }
}

/// The purchase model an instance was launched under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum PurchaseModel {
    Spot,
    OnDemand,
}

impl fmt::Display for PurchaseModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PurchaseModel::Spot => "spot",
            PurchaseModel::OnDemand => "on-demand",
        })
    }
}

/// Why an instance stopped running.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TerminationReason {
    /// Its workload finished and the owner shut it down.
    Completed,
    /// The provider reclaimed the spot capacity.
    Interrupted,
    /// The owner terminated it for another reason (e.g. migration).
    Manual,
}

/// The lifecycle state of an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceState {
    /// Booting or serving its workload.
    Running,
    /// Terminated at the recorded instant.
    Terminated {
        /// When it stopped.
        at: SimTime,
        /// Why it stopped.
        reason: TerminationReason,
    },
}

/// The full record of one launched instance.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceRecord {
    id: InstanceId,
    region: Region,
    instance_type: InstanceType,
    model: PurchaseModel,
    launched_at: SimTime,
    ready_at: SimTime,
    state: InstanceState,
    cost: Usd,
}

impl InstanceRecord {
    pub(crate) fn new(
        id: InstanceId,
        region: Region,
        instance_type: InstanceType,
        model: PurchaseModel,
        launched_at: SimTime,
        ready_at: SimTime,
    ) -> Self {
        InstanceRecord {
            id,
            region,
            instance_type,
            model,
            launched_at,
            ready_at,
            state: InstanceState::Running,
            cost: Usd::ZERO,
        }
    }

    /// The instance id.
    pub fn id(&self) -> InstanceId {
        self.id
    }

    /// The hosting region.
    pub fn region(&self) -> Region {
        self.region
    }

    /// The instance type.
    pub fn instance_type(&self) -> InstanceType {
        self.instance_type
    }

    /// Spot or on-demand.
    pub fn model(&self) -> PurchaseModel {
        self.model
    }

    /// When the launch was initiated (billing starts here).
    pub fn launched_at(&self) -> SimTime {
        self.launched_at
    }

    /// When boot completed and the workload could start.
    pub fn ready_at(&self) -> SimTime {
        self.ready_at
    }

    /// Current lifecycle state.
    pub fn state(&self) -> InstanceState {
        self.state
    }

    /// True while the instance is running.
    pub fn is_running(&self) -> bool {
        matches!(self.state, InstanceState::Running)
    }

    /// Total billed cost (final once terminated).
    pub fn cost(&self) -> Usd {
        self.cost
    }

    pub(crate) fn terminate(&mut self, at: SimTime, reason: TerminationReason, cost: Usd) {
        debug_assert!(self.is_running(), "double termination of {}", self.id);
        self.state = InstanceState::Terminated { at, reason };
        self.cost = cost;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(InstanceId::new(0xabc).to_string(), "i-00000abc");
        assert_eq!(PurchaseModel::Spot.to_string(), "spot");
        assert_eq!(PurchaseModel::OnDemand.to_string(), "on-demand");
    }

    #[test]
    fn record_lifecycle() {
        let mut rec = InstanceRecord::new(
            InstanceId::new(1),
            Region::UsEast1,
            InstanceType::M5Xlarge,
            PurchaseModel::Spot,
            SimTime::from_secs(0),
            SimTime::from_secs(120),
        );
        assert!(rec.is_running());
        assert_eq!(rec.ready_at(), SimTime::from_secs(120));
        rec.terminate(
            SimTime::from_hours(10),
            TerminationReason::Completed,
            Usd::new(0.5),
        );
        assert!(!rec.is_running());
        assert_eq!(rec.cost(), Usd::new(0.5));
        assert_eq!(
            rec.state(),
            InstanceState::Terminated {
                at: SimTime::from_hours(10),
                reason: TerminationReason::Completed
            }
        );
    }
}
