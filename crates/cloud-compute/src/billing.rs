//! The billing ledger: every dollar an experiment spends is recorded as a
//! line item attributed to a service and region, so reports can break costs
//! down exactly the way the paper's cost model does (§5.1.2: instance usage,
//! shared serverless services, and cross-region data transfer).

use std::fmt;

use sim_kernel::SimTime;

use cloud_market::{Region, Usd};

/// The billable service a line item belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum ServiceKind {
    SpotInstance,
    OnDemandInstance,
    DataTransfer,
    FunctionRuntime,
    KvStore,
    ObjectStorage,
    Metrics,
}

impl ServiceKind {
    /// Every service kind, in a stable order.
    pub const ALL: [ServiceKind; 7] = [
        ServiceKind::SpotInstance,
        ServiceKind::OnDemandInstance,
        ServiceKind::DataTransfer,
        ServiceKind::FunctionRuntime,
        ServiceKind::KvStore,
        ServiceKind::ObjectStorage,
        ServiceKind::Metrics,
    ];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            ServiceKind::SpotInstance => "spot instances",
            ServiceKind::OnDemandInstance => "on-demand instances",
            ServiceKind::DataTransfer => "data transfer",
            ServiceKind::FunctionRuntime => "function runtime",
            ServiceKind::KvStore => "kv store",
            ServiceKind::ObjectStorage => "object storage",
            ServiceKind::Metrics => "metrics",
        }
    }
}

impl fmt::Display for ServiceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One recorded charge.
#[derive(Debug, Clone, PartialEq)]
pub struct LineItem {
    /// When the charge was recorded.
    pub at: SimTime,
    /// Which service produced it.
    pub service: ServiceKind,
    /// Which region it is attributed to.
    pub region: Region,
    /// The amount.
    pub amount: Usd,
}

/// An append-only cost ledger with per-service totals.
///
/// # Examples
///
/// ```
/// use cloud_compute::{BillingLedger, ServiceKind};
/// use cloud_market::{Region, Usd};
/// use sim_kernel::SimTime;
///
/// let mut ledger = BillingLedger::new();
/// ledger.charge(SimTime::ZERO, ServiceKind::SpotInstance, Region::UsEast1, Usd::new(1.5));
/// assert_eq!(ledger.total(), Usd::new(1.5));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BillingLedger {
    items: Vec<LineItem>,
}

impl BillingLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        BillingLedger { items: Vec::new() }
    }

    /// Records a charge. Zero-amount charges are dropped.
    pub fn charge(&mut self, at: SimTime, service: ServiceKind, region: Region, amount: Usd) {
        if amount > Usd::ZERO {
            self.items.push(LineItem {
                at,
                service,
                region,
                amount,
            });
        }
    }

    /// Total across all line items.
    pub fn total(&self) -> Usd {
        self.items.iter().map(|i| i.amount).sum()
    }

    /// Total attributed to one service.
    pub fn total_for_service(&self, service: ServiceKind) -> Usd {
        self.items
            .iter()
            .filter(|i| i.service == service)
            .map(|i| i.amount)
            .sum()
    }

    /// Number of line items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if nothing has been charged.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates over line items in recording order.
    pub fn iter(&self) -> std::slice::Iter<'_, LineItem> {
        self.items.iter()
    }

    /// Absorbs another ledger's items.
    pub fn merge(&mut self, other: BillingLedger) {
        self.items.extend(other.items);
    }
}

impl<'a> IntoIterator for &'a BillingLedger {
    type Item = &'a LineItem;
    type IntoIter = std::slice::Iter<'a, LineItem>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn totals_roll_up_by_dimension() {
        let mut ledger = BillingLedger::new();
        ledger.charge(t(0), ServiceKind::SpotInstance, Region::UsEast1, Usd::new(2.0));
        ledger.charge(t(1), ServiceKind::SpotInstance, Region::EuWest1, Usd::new(3.0));
        ledger.charge(t(2), ServiceKind::DataTransfer, Region::UsEast1, Usd::new(0.5));
        assert_eq!(ledger.total(), Usd::new(5.5));
        assert_eq!(ledger.total_for_service(ServiceKind::SpotInstance), Usd::new(5.0));
        assert_eq!(ledger.len(), 3);
    }

    #[test]
    fn zero_charges_are_dropped() {
        let mut ledger = BillingLedger::new();
        ledger.charge(t(0), ServiceKind::Metrics, Region::UsEast1, Usd::ZERO);
        assert!(ledger.is_empty());
    }

    #[test]
    fn merge_combines_ledgers() {
        let mut a = BillingLedger::new();
        a.charge(t(0), ServiceKind::SpotInstance, Region::UsEast1, Usd::new(1.0));
        let mut b = BillingLedger::new();
        b.charge(t(5), ServiceKind::ObjectStorage, Region::UsEast1, Usd::new(0.1));
        a.merge(b);
        assert_eq!(a.total(), Usd::new(1.1));
        assert_eq!(a.iter().count(), 2);
        assert_eq!((&a).into_iter().count(), 2);
    }

    #[test]
    fn service_labels_are_distinct() {
        let mut labels: Vec<&str> = ServiceKind::ALL.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), ServiceKind::ALL.len());
    }
}
