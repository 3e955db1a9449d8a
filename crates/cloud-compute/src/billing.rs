//! The billing ledger: every dollar an experiment spends is added to a
//! running total for its service, so reports can break costs down exactly
//! the way the paper's cost model does (§5.1.2: instance usage, shared
//! serverless services, and cross-region data transfer).

use std::fmt;

use cloud_market::Usd;

/// The billable service a charge belongs to.
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

/// A cost ledger of running totals: the grand total, one total per
/// [`ServiceKind`] and the number of charges.
///
/// Each total adds its charges in the order they were made, so it is the
/// same `f64` as summing the charges afterwards. The grand total keeps its
/// own sum rather than adding up the service totals, which would add in
/// another order.
///
/// # Examples
///
/// ```
/// use cloud_compute::{BillingLedger, ServiceKind};
/// use cloud_market::Usd;
///
/// let mut ledger = BillingLedger::new();
/// ledger.charge(ServiceKind::SpotInstance, Usd::new(1.5));
/// ledger.charge(ServiceKind::DataTransfer, Usd::new(0.25));
/// assert_eq!(ledger.total(), Usd::new(1.75));
/// assert_eq!(ledger.total_for_service(ServiceKind::SpotInstance), Usd::new(1.5));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BillingLedger {
    total: Usd,
    /// Indexed by `ServiceKind as usize`, the order of [`ServiceKind::ALL`].
    by_service: [Usd; ServiceKind::ALL.len()],
    charges: usize,
}

impl BillingLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        BillingLedger::default()
    }

    /// Records a charge. Zero-amount charges are dropped.
    pub fn charge(&mut self, service: ServiceKind, amount: Usd) {
        if amount > Usd::ZERO {
            self.total += amount;
            self.by_service[service as usize] += amount;
            self.charges += 1;
        }
    }

    /// Total across all charges.
    pub fn total(&self) -> Usd {
        self.total
    }

    /// Total attributed to one service.
    pub fn total_for_service(&self, service: ServiceKind) -> Usd {
        self.by_service[service as usize]
    }

    /// Number of charges recorded.
    pub fn len(&self) -> usize {
        self.charges
    }

    /// True if nothing has been charged.
    pub fn is_empty(&self) -> bool {
        self.charges == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_roll_up_by_dimension() {
        let mut ledger = BillingLedger::new();
        ledger.charge(ServiceKind::SpotInstance, Usd::new(2.0));
        ledger.charge(ServiceKind::SpotInstance, Usd::new(3.0));
        ledger.charge(ServiceKind::DataTransfer, Usd::new(0.5));
        assert_eq!(ledger.total(), Usd::new(5.5));
        assert_eq!(ledger.total_for_service(ServiceKind::SpotInstance), Usd::new(5.0));
        assert_eq!(ledger.total_for_service(ServiceKind::DataTransfer), Usd::new(0.5));
        assert_eq!(ledger.total_for_service(ServiceKind::Metrics), Usd::ZERO);
        assert_eq!(ledger.len(), 3);
    }

    #[test]
    fn zero_charges_are_dropped() {
        let mut ledger = BillingLedger::new();
        ledger.charge(ServiceKind::Metrics, Usd::ZERO);
        assert!(ledger.is_empty());
        assert_eq!(ledger, BillingLedger::new());
    }

    #[test]
    fn service_totals_are_indexed_in_all_order() {
        for (i, service) in ServiceKind::ALL.into_iter().enumerate() {
            assert_eq!(service as usize, i);
        }
    }

    #[test]
    fn service_labels_are_distinct() {
        let mut labels: Vec<&str> = ServiceKind::ALL.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), ServiceKind::ALL.len());
    }
}
