//! Report post-processing: strategy comparisons and the paper's
//! normalized-cost metric.

use cloud_market::Usd;

use crate::experiment::ExperimentReport;

/// Percentage change helpers between a baseline and a treatment report —
/// the deltas the paper headlines ("52% cost reduction", "39% fewer
/// interruptions").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    /// Cost reduction relative to the baseline, in percent (positive =
    /// treatment cheaper).
    pub cost_reduction_pct: f64,
    /// Completion-time (makespan) reduction in percent.
    pub time_reduction_pct: f64,
    /// Interruption-count reduction in percent.
    pub interruption_reduction_pct: f64,
}

/// Compares a treatment run against a baseline run.
///
/// # Panics
///
/// Panics if the baseline has zero cost or zero makespan (nothing ran).
pub fn compare(baseline: &ExperimentReport, treatment: &ExperimentReport) -> Comparison {
    let base_cost = baseline.cost.total.amount();
    let base_time = baseline.makespan.as_hours_f64();
    assert!(base_cost > 0.0, "baseline spent nothing");
    assert!(base_time > 0.0, "baseline ran nothing");
    let cost_reduction_pct = (1.0 - treatment.cost.total.amount() / base_cost) * 100.0;
    let time_reduction_pct = (1.0 - treatment.makespan.as_hours_f64() / base_time) * 100.0;
    let interruption_reduction_pct = if baseline.interruptions == 0 {
        0.0
    } else {
        (1.0 - treatment.interruptions as f64 / baseline.interruptions as f64) * 100.0
    };
    Comparison {
        cost_reduction_pct,
        time_reduction_pct,
        interruption_reduction_pct,
    }
}

/// The paper's Figure 10 metric: a run's total cost divided by the cost of
/// running the same fleet on the cheapest on-demand instances. Values below
/// 1 are savings.
///
/// # Panics
///
/// Panics if `on_demand_cost` is zero.
pub fn normalized_cost(report: &ExperimentReport, on_demand_cost: Usd) -> f64 {
    report.cost.total.ratio_to(on_demand_cost)
}

/// One-line human-readable summary of a run.
pub fn summary_line(report: &ExperimentReport) -> String {
    format!(
        "{:<20} completed {:>3}/{:<3}  makespan {:>10}  interruptions {:>4}  cost {:>9}",
        report.strategy,
        report.completed,
        report.workloads,
        report.makespan.to_string(),
        report.interruptions,
        report.cost.total.to_string(),
    )
}

/// One-line summary of a run's resilience counters, or `None` when the
/// control plane never engaged — so fault-free output stays byte-identical
/// to a build without the control plane.
pub fn resilience_summary(report: &ExperimentReport) -> Option<String> {
    let r = &report.resilience;
    if r == &Default::default() {
        return None;
    }
    Some(format!(
        "{:<20} trips {:>3}  probes {:>3}  stale {:>4}  degraded {:>6.1} h",
        report.strategy,
        r.breaker_trips,
        r.half_open_probes,
        r.freshness.stale_serves,
        r.freshness.degraded_time.as_hours_f64(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::CostBreakdown;
    use sim_kernel::{SimDuration, TimeSeries};
    use std::collections::BTreeMap;

    fn report(cost: f64, makespan_h: u64, interruptions: u64) -> ExperimentReport {
        ExperimentReport {
            strategy: "test".into(),
            workloads: 10,
            completed: 10,
            makespan: SimDuration::from_hours(makespan_h),
            mean_completion: SimDuration::from_hours(makespan_h / 2),
            interruptions,
            interruptions_by_region: BTreeMap::new(),
            cumulative_interruptions: TimeSeries::new("i"),
            completions_over_time: TimeSeries::new("c"),
            launches_by_region: BTreeMap::new(),
            cost: CostBreakdown {
                total: Usd::new(cost),
                spot_instances: Usd::new(cost),
                on_demand_instances: Usd::ZERO,
                data_transfer: Usd::ZERO,
                shared_services: Usd::ZERO,
            },
            instance_hours: 0.0,
            spot_attempts: 0,
            spot_fulfillments: 0,
            checkpoints: Default::default(),
            resilience: Default::default(),
            trace: None,
        }
    }

    #[test]
    fn compare_computes_reductions() {
        let baseline = report(73.92, 33, 114);
        let treatment = report(41.46, 14, 69);
        let c = compare(&baseline, &treatment);
        assert!((c.cost_reduction_pct - 43.9).abs() < 0.2, "{}", c.cost_reduction_pct);
        assert!((c.time_reduction_pct - 57.6).abs() < 0.2, "{}", c.time_reduction_pct);
        assert!((c.interruption_reduction_pct - 39.5).abs() < 0.2);
    }

    #[test]
    fn compare_handles_zero_baseline_interruptions() {
        let baseline = report(10.0, 10, 0);
        let treatment = report(5.0, 5, 0);
        assert_eq!(compare(&baseline, &treatment).interruption_reduction_pct, 0.0);
    }

    #[test]
    fn normalized_cost_below_one_is_savings() {
        let r = report(36.0, 12, 40);
        assert!((normalized_cost(&r, Usd::new(77.81)) - 0.4627).abs() < 0.001);
        let expensive = report(100.0, 12, 40);
        assert!(normalized_cost(&expensive, Usd::new(77.81)) > 1.0);
    }

    #[test]
    fn summary_line_contains_key_fields() {
        let line = summary_line(&report(41.46, 14, 69));
        assert!(line.contains("test"));
        assert!(line.contains("69"));
        assert!(line.contains("$41.46"));
        assert!(line.contains("10/10"));
    }

    #[test]
    fn resilience_summary_is_silent_until_the_plane_engages() {
        let mut r = report(10.0, 10, 0);
        assert_eq!(resilience_summary(&r), None, "all-zero telemetry prints nothing");
        r.resilience.breaker_trips = 2;
        r.resilience.freshness.stale_serves = 5;
        let line = resilience_summary(&r).unwrap();
        assert!(line.contains("trips   2"));
        assert!(line.contains("stale    5"));
    }
}
