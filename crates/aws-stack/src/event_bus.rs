//! The EventBridge-like event bus.
//!
//! The sweep orchestrator publishes its shard dispatches here. Delivery is
//! at-least-once, as on EventBridge: under chaos a published event may be
//! lost or delivered twice, so its subscriber must tolerate both.

use sim_kernel::SimTime;

use crate::fault::{ServiceFault, ServiceFaultInjector, ServiceOp};

/// The bus: delivery of published events to their one subscriber.
///
/// # Examples
///
/// ```
/// use aws_stack::EventBus;
/// use sim_kernel::SimTime;
///
/// let mut bus = EventBus::new();
/// assert_eq!(bus.publish(SimTime::ZERO), 1);
/// ```
#[derive(Debug, Default)]
pub struct EventBus {
    lost: u64,
    duplicated: u64,
    injector: Option<Box<dyn ServiceFaultInjector>>,
}

impl EventBus {
    /// Creates a bus that delivers every event exactly once.
    pub fn new() -> Self {
        EventBus::default()
    }

    /// Installs a fault injector consulted once on every publish:
    /// [`ServiceFault::Lost`] (or `Throttled`) drops the delivery,
    /// [`ServiceFault::Duplicate`] delivers it twice (at-least-once
    /// semantics), and delays pass through untouched. Chaos-only; without
    /// an injector delivery is exact.
    pub fn set_fault_injector(&mut self, injector: Box<dyn ServiceFaultInjector>) {
        self.injector = Some(injector);
    }

    /// Publishes an event at `at`, returning how many times it is
    /// delivered: 1 without faults, 0 if the fault injector loses it, 2 if
    /// it duplicates it.
    pub fn publish(&mut self, at: SimTime) -> usize {
        match self
            .injector
            .as_mut()
            .and_then(|i| i.intercept(ServiceOp::EventDeliver, at))
        {
            Some(ServiceFault::Lost | ServiceFault::Throttled) => {
                self.lost += 1;
                0
            }
            Some(ServiceFault::Duplicate) => {
                self.duplicated += 1;
                2
            }
            Some(ServiceFault::Delayed(_)) | None => 1,
        }
    }

    /// Deliveries dropped by the fault injector.
    pub fn lost_count(&self) -> u64 {
        self.lost
    }

    /// Deliveries duplicated by the fault injector.
    pub fn duplicated_count(&self) -> u64 {
        self.duplicated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scripted injector: plays back a fixed fate per delivery, in order.
    #[derive(Debug)]
    struct Script(std::vec::IntoIter<Option<ServiceFault>>);

    impl ServiceFaultInjector for Script {
        fn intercept(&mut self, op: ServiceOp, _at: SimTime) -> Option<ServiceFault> {
            assert_eq!(op, ServiceOp::EventDeliver);
            self.0.next().flatten()
        }
    }

    fn scripted(fates: Vec<Option<ServiceFault>>) -> EventBus {
        let mut bus = EventBus::new();
        bus.set_fault_injector(Box::new(Script(fates.into_iter())));
        bus
    }

    #[test]
    fn lost_delivery_drops_the_target() {
        let mut bus = scripted(vec![
            Some(ServiceFault::Lost),
            Some(ServiceFault::Throttled),
        ]);
        assert_eq!(bus.publish(SimTime::ZERO), 0);
        assert_eq!(bus.publish(SimTime::ZERO), 0);
        assert_eq!(bus.lost_count(), 2);
        assert_eq!(bus.duplicated_count(), 0);
    }

    #[test]
    fn duplicate_delivery_yields_the_target_twice() {
        let mut bus = scripted(vec![Some(ServiceFault::Duplicate)]);
        assert_eq!(bus.publish(SimTime::ZERO), 2);
        assert_eq!(bus.duplicated_count(), 1);
        assert_eq!(bus.lost_count(), 0);
    }

    #[test]
    fn delayed_and_clean_deliveries_are_exact() {
        let mut bus = scripted(vec![
            Some(ServiceFault::Delayed(sim_kernel::SimDuration::from_secs(5))),
            None,
        ]);
        assert_eq!(bus.publish(SimTime::ZERO), 1);
        assert_eq!(bus.publish(SimTime::ZERO), 1);
        assert_eq!(bus.lost_count(), 0);
        assert_eq!(bus.duplicated_count(), 0);
    }
}
