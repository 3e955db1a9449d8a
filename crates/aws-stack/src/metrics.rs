//! The CloudWatch-like metrics service, reduced to what a run pays for:
//! the Monitor publishes one custom datapoint per region per collection,
//! and each put is charged at CloudWatch's per-datapoint rate. The values
//! themselves are not kept — the Optimizer reads the Monitor's KV
//! snapshot, never a metric series.

use cloud_compute::{BillingLedger, ServiceKind};
use cloud_market::Usd;

/// Cost per 1 000 metric datapoints.
const PUT_PRICE_PER_1000: f64 = 0.01;

/// The metrics service.
///
/// # Examples
///
/// ```
/// use aws_stack::MetricsService;
/// use cloud_compute::BillingLedger;
///
/// let cw = MetricsService::new();
/// let mut ledger = BillingLedger::new();
/// cw.put_metric(&mut ledger);
/// cw.put_metric(&mut ledger);
/// assert_eq!(ledger.len(), 2);
/// assert!((ledger.total().amount() - 2e-5).abs() < 1e-12);
/// ```
#[derive(Debug, Default)]
pub struct MetricsService;

impl MetricsService {
    /// Creates the metrics service.
    pub fn new() -> Self {
        MetricsService
    }

    /// Charges one datapoint put.
    pub fn put_metric(&self, ledger: &mut BillingLedger) {
        ledger.charge(ServiceKind::Metrics, Usd::new(PUT_PRICE_PER_1000 / 1000.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_put_is_one_metrics_line_item() {
        let cw = MetricsService::new();
        let mut ledger = BillingLedger::new();
        for _ in 0..3 {
            cw.put_metric(&mut ledger);
        }
        assert_eq!(ledger.len(), 3);
        let billed = ledger.total_for_service(ServiceKind::Metrics).amount();
        assert!((billed - 3.0 * PUT_PRICE_PER_1000 / 1000.0).abs() < 1e-15);
    }
}
