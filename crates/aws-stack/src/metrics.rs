//! The CloudWatch-like metrics service, reduced to what a run pays for:
//! the Monitor publishes one custom datapoint per region per collection,
//! and each put is charged at CloudWatch's per-datapoint rate. The values
//! themselves are not kept — the Optimizer reads the Monitor's KV
//! snapshot, never a metric series.

use cloud_compute::{BillingLedger, ServiceKind};
use cloud_market::{Region, Usd};
use sim_kernel::SimTime;

/// Cost per 1 000 metric datapoints.
const PUT_PRICE_PER_1000: f64 = 0.01;

/// The metrics service.
///
/// # Examples
///
/// ```
/// use aws_stack::MetricsService;
/// use cloud_compute::BillingLedger;
/// use cloud_market::Region;
/// use sim_kernel::SimTime;
///
/// let cw = MetricsService::new(Region::UsEast1);
/// let mut ledger = BillingLedger::new();
/// cw.put_metric(SimTime::ZERO, &mut ledger);
/// cw.put_metric(SimTime::from_secs(60), &mut ledger);
/// assert_eq!(ledger.len(), 2);
/// assert!((ledger.total().amount() - 2e-5).abs() < 1e-12);
/// ```
#[derive(Debug)]
pub struct MetricsService {
    home_region: Region,
}

impl MetricsService {
    /// Creates a metrics service homed in `region` (billing attribution).
    pub fn new(region: Region) -> Self {
        MetricsService { home_region: region }
    }

    /// Charges one datapoint put at `at`.
    pub fn put_metric(&self, at: SimTime, ledger: &mut BillingLedger) {
        ledger.charge(
            at,
            ServiceKind::Metrics,
            self.home_region,
            Usd::new(PUT_PRICE_PER_1000 / 1000.0),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_put_is_one_metrics_line_item() {
        let cw = MetricsService::new(Region::EuWest1);
        let mut ledger = BillingLedger::new();
        for secs in [0, 10, 20] {
            cw.put_metric(SimTime::from_secs(secs), &mut ledger);
        }
        assert_eq!(ledger.len(), 3);
        let billed = ledger.total_for_service(ServiceKind::Metrics).amount();
        assert!((billed - 3.0 * PUT_PRICE_PER_1000 / 1000.0).abs() < 1e-15);
    }
}
