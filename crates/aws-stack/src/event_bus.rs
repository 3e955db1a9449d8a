//! The EventBridge-like event bus.
//!
//! Spot interruption notices arrive as bus events (paper §4: "signaled by
//! Amazon EventBridge"); rules route them to handler functions.

use std::fmt;

use sim_kernel::SimTime;

use crate::fault::{ServiceFault, ServiceFaultInjector, ServiceOp};

/// A bus event, in EventBridge's source/detail-type/detail shape.
#[derive(Debug, Clone, PartialEq)]
pub struct BusEvent {
    /// Origin service, e.g. `"aws.ec2"`.
    pub source: String,
    /// Event class, e.g. `"EC2 Spot Instance Interruption Warning"`.
    pub detail_type: String,
    /// Free-form payload.
    pub detail: String,
    /// When the event was published.
    pub at: SimTime,
}

impl BusEvent {
    /// Convenience constructor.
    pub fn new(
        source: impl Into<String>,
        detail_type: impl Into<String>,
        detail: impl Into<String>,
        at: SimTime,
    ) -> Self {
        BusEvent {
            source: source.into(),
            detail_type: detail_type.into(),
            detail: detail.into(),
            at,
        }
    }
}

/// A routing rule: match by source prefix and (optionally) exact detail
/// type, deliver to a named target.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    name: String,
    source_prefix: String,
    detail_type: Option<String>,
    target: String,
}

impl Rule {
    /// Creates a rule.
    pub fn new(
        name: impl Into<String>,
        source_prefix: impl Into<String>,
        detail_type: Option<String>,
        target: impl Into<String>,
    ) -> Self {
        Rule {
            name: name.into(),
            source_prefix: source_prefix.into(),
            detail_type,
            target: target.into(),
        }
    }

    /// The rule name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The delivery target.
    pub fn target(&self) -> &str {
        &self.target
    }

    /// Whether the rule matches an event.
    pub fn matches(&self, event: &BusEvent) -> bool {
        event.source.starts_with(&self.source_prefix)
            && self
                .detail_type
                .as_ref()
                .is_none_or(|dt| dt == &event.detail_type)
    }
}

/// Event-bus errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventBusError {
    /// A rule with that name already exists.
    RuleExists(String),
}

impl fmt::Display for EventBusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventBusError::RuleExists(n) => write!(f, "rule `{n}` already exists"),
        }
    }
}

impl std::error::Error for EventBusError {}

/// The bus: rules plus a delivery log.
///
/// # Examples
///
/// ```
/// use aws_stack::{BusEvent, EventBus, Rule};
/// use sim_kernel::SimTime;
///
/// let mut bus = EventBus::new();
/// bus.put_rule(Rule::new(
///     "on-interruption",
///     "aws.ec2",
///     Some("EC2 Spot Instance Interruption Warning".into()),
///     "interruption-handler",
/// ))?;
/// let targets = bus.publish(BusEvent::new(
///     "aws.ec2",
///     "EC2 Spot Instance Interruption Warning",
///     "i-00000001",
///     SimTime::ZERO,
/// ));
/// assert_eq!(targets, vec!["interruption-handler".to_string()]);
/// # Ok::<(), aws_stack::EventBusError>(())
/// ```
#[derive(Debug, Default)]
pub struct EventBus {
    rules: Vec<Rule>,
    delivered: u64,
    lost: u64,
    duplicated: u64,
    injector: Option<Box<dyn ServiceFaultInjector>>,
}

impl EventBus {
    /// Creates an empty bus.
    pub fn new() -> Self {
        EventBus::default()
    }

    /// Installs a fault injector consulted once per matched target on
    /// every publish: [`ServiceFault::Lost`] (or `Throttled`) drops that
    /// delivery, [`ServiceFault::Duplicate`] delivers it twice
    /// (at-least-once semantics), and delays pass through untouched.
    /// Chaos-only; without an injector delivery is exact.
    pub fn set_fault_injector(&mut self, injector: Box<dyn ServiceFaultInjector>) {
        self.injector = Some(injector);
    }

    /// Installs a rule.
    ///
    /// # Errors
    ///
    /// Returns [`EventBusError::RuleExists`] on duplicate names.
    pub fn put_rule(&mut self, rule: Rule) -> Result<(), EventBusError> {
        if self.rules.iter().any(|r| r.name == rule.name) {
            return Err(EventBusError::RuleExists(rule.name));
        }
        self.rules.push(rule);
        Ok(())
    }

    /// Publishes an event, returning the targets it was routed to, in rule
    /// installation order. With a fault injector installed, each matched
    /// target may be dropped ([`ServiceFault::Lost`]/`Throttled`) or
    /// appear twice ([`ServiceFault::Duplicate`]).
    pub fn publish(&mut self, event: BusEvent) -> Vec<String> {
        let matched: Vec<String> = self
            .rules
            .iter()
            .filter(|r| r.matches(&event))
            .map(|r| r.target.clone())
            .collect();
        let mut targets = Vec::with_capacity(matched.len());
        for target in matched {
            match self
                .injector
                .as_mut()
                .and_then(|i| i.intercept(ServiceOp::EventDeliver, event.at))
            {
                Some(ServiceFault::Lost | ServiceFault::Throttled) => self.lost += 1,
                Some(ServiceFault::Duplicate) => {
                    self.duplicated += 1;
                    targets.push(target.clone());
                    targets.push(target);
                }
                Some(ServiceFault::Delayed(_)) | None => targets.push(target),
            }
        }
        self.delivered += targets.len() as u64;
        targets
    }

    /// Installed rules.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Total deliveries (event × matching rule).
    pub fn delivered_count(&self) -> u64 {
        self.delivered
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

    fn interruption_event() -> BusEvent {
        BusEvent::new(
            "aws.ec2",
            "EC2 Spot Instance Interruption Warning",
            "i-1",
            SimTime::ZERO,
        )
    }

    #[test]
    fn routes_by_source_and_detail_type() {
        let mut bus = EventBus::new();
        bus.put_rule(Rule::new(
            "r1",
            "aws.ec2",
            Some("EC2 Spot Instance Interruption Warning".into()),
            "handler",
        ))
        .unwrap();
        bus.put_rule(Rule::new("r2", "aws.s3", None, "other")).unwrap();
        assert_eq!(bus.publish(interruption_event()), vec!["handler".to_string()]);
        assert_eq!(bus.delivered_count(), 1);
    }

    #[test]
    fn source_prefix_matching() {
        let mut bus = EventBus::new();
        bus.put_rule(Rule::new("r", "aws.", None, "t")).unwrap();
        assert_eq!(bus.publish(interruption_event()).len(), 1);
        assert!(bus
            .publish(BusEvent::new("galaxy", "job-done", "", SimTime::ZERO))
            .is_empty());
    }

    #[test]
    fn multiple_rules_all_deliver() {
        let mut bus = EventBus::new();
        bus.put_rule(Rule::new("a", "aws.ec2", None, "t1")).unwrap();
        bus.put_rule(Rule::new("b", "aws.ec2", None, "t2")).unwrap();
        assert_eq!(bus.publish(interruption_event()), vec!["t1".to_string(), "t2".to_string()]);
    }

    /// Scripted injector: plays back a fixed fate per delivery, in order.
    #[derive(Debug)]
    struct Script(std::vec::IntoIter<Option<ServiceFault>>);

    impl ServiceFaultInjector for Script {
        fn intercept(&mut self, op: ServiceOp, _at: SimTime) -> Option<ServiceFault> {
            assert_eq!(op, ServiceOp::EventDeliver);
            self.0.next().flatten()
        }
    }

    #[test]
    fn lost_delivery_drops_the_target() {
        let mut bus = EventBus::new();
        bus.put_rule(Rule::new("a", "aws.ec2", None, "t1")).unwrap();
        bus.put_rule(Rule::new("b", "aws.ec2", None, "t2")).unwrap();
        bus.set_fault_injector(Box::new(Script(
            vec![Some(ServiceFault::Lost), None].into_iter(),
        )));
        assert_eq!(bus.publish(interruption_event()), vec!["t2".to_string()]);
        assert_eq!(bus.lost_count(), 1);
        assert_eq!(bus.delivered_count(), 1);
    }

    #[test]
    fn duplicate_delivery_yields_the_target_twice() {
        let mut bus = EventBus::new();
        bus.put_rule(Rule::new("a", "aws.ec2", None, "t")).unwrap();
        bus.set_fault_injector(Box::new(Script(
            vec![Some(ServiceFault::Duplicate)].into_iter(),
        )));
        assert_eq!(
            bus.publish(interruption_event()),
            vec!["t".to_string(), "t".to_string()]
        );
        assert_eq!(bus.duplicated_count(), 1);
        assert_eq!(bus.delivered_count(), 2);
    }

    #[test]
    fn delayed_and_clean_deliveries_are_exact() {
        let mut bus = EventBus::new();
        bus.put_rule(Rule::new("a", "aws.ec2", None, "t")).unwrap();
        bus.set_fault_injector(Box::new(Script(
            vec![Some(ServiceFault::Delayed(sim_kernel::SimDuration::from_secs(5)))].into_iter(),
        )));
        assert_eq!(bus.publish(interruption_event()), vec!["t".to_string()]);
        assert_eq!(bus.lost_count(), 0);
        assert_eq!(bus.duplicated_count(), 0);
    }

    #[test]
    fn duplicate_and_unknown_rule_errors() {
        let mut bus = EventBus::new();
        bus.put_rule(Rule::new("a", "x", None, "t")).unwrap();
        assert!(matches!(
            bus.put_rule(Rule::new("a", "y", None, "t2")),
            Err(EventBusError::RuleExists(_))
        ));
    }
}
