//! The CloudWatch-like metrics service: custom metrics with statistics
//! queries, and periodic schedules ("custom rules", paper §3.2) that drive
//! the Monitor's collectors and the Controller's 15-minute open-request
//! sweep.

use std::collections::BTreeMap;
use std::fmt;

use sim_kernel::{SimDuration, SimTime, TimeSeries};

use cloud_compute::{BillingLedger, ServiceKind};
use cloud_market::{Region, Usd};

/// A metric identity: namespace, name, and a free-form dimension string
/// (e.g. `"region=ca-central-1,type=m5.xlarge"`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricKey {
    /// Namespace, e.g. `"SpotVerse"`.
    pub namespace: String,
    /// Metric name, e.g. `"spot_price"`.
    pub name: String,
    /// Dimensions, canonicalized by the caller.
    pub dimensions: String,
}

impl MetricKey {
    /// Convenience constructor.
    pub fn new(
        namespace: impl Into<String>,
        name: impl Into<String>,
        dimensions: impl Into<String>,
    ) -> Self {
        MetricKey {
            namespace: namespace.into(),
            name: name.into(),
            dimensions: dimensions.into(),
        }
    }
}

impl fmt::Display for MetricKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}[{}]", self.namespace, self.name, self.dimensions)
    }
}

/// A statistic over a metric window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Statistic {
    Average,
    Minimum,
    Maximum,
    Sum,
    SampleCount,
}

/// Metric-service errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricsError {
    /// The metric has no datapoints in the requested window.
    NoData(MetricKey),
}

impl fmt::Display for MetricsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricsError::NoData(k) => write!(f, "no datapoints for {k}"),
        }
    }
}

impl std::error::Error for MetricsError {}

/// A fixed-period schedule (a CloudWatch scheduled rule).
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    name: String,
    period: SimDuration,
    start: SimTime,
}

impl Schedule {
    /// Creates a schedule firing every `period` starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(name: impl Into<String>, period: SimDuration, start: SimTime) -> Self {
        assert!(!period.is_zero(), "Schedule: zero period");
        Schedule {
            name: name.into(),
            period,
            start,
        }
    }

    /// The schedule name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The firing period.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// The first firing at or after `at`.
    pub fn next_fire(&self, at: SimTime) -> SimTime {
        if at <= self.start {
            return self.start;
        }
        let elapsed = (at - self.start).as_secs();
        let period = self.period.as_secs();
        let ticks = elapsed.div_ceil(period);
        self.start + SimDuration::from_secs(ticks * period)
    }

    /// All firings in `[from, to)`.
    pub fn occurrences(&self, from: SimTime, to: SimTime) -> Vec<SimTime> {
        let mut out = Vec::new();
        let mut t = self.next_fire(from);
        while t < to {
            out.push(t);
            t += self.period;
        }
        out
    }
}

/// Cost per 1 000 metric datapoints.
const PUT_PRICE_PER_1000: f64 = 0.01;

/// The metrics service.
///
/// # Examples
///
/// ```
/// use aws_stack::{MetricKey, MetricsService, Statistic};
/// use cloud_compute::BillingLedger;
/// use cloud_market::Region;
/// use sim_kernel::SimTime;
///
/// let mut cw = MetricsService::new(Region::UsEast1);
/// let mut ledger = BillingLedger::new();
/// let key = MetricKey::new("SpotVerse", "spot_price", "region=us-east-1");
/// cw.put_metric(key.clone(), SimTime::ZERO, 0.045, &mut ledger);
/// cw.put_metric(key.clone(), SimTime::from_secs(60), 0.047, &mut ledger);
/// let avg = cw
///     .statistic(&key, Statistic::Average, SimTime::ZERO, SimTime::from_secs(61))
///     .unwrap();
/// assert!((avg - 0.046).abs() < 1e-9);
/// # Ok::<(), aws_stack::MetricsError>(())
/// ```
#[derive(Debug)]
pub struct MetricsService {
    home_region: Region,
    metrics: BTreeMap<MetricKey, TimeSeries>,
    schedules: Vec<Schedule>,
    puts: u64,
}

impl MetricsService {
    /// Creates a metrics service homed in `region` (billing attribution).
    pub fn new(region: Region) -> Self {
        MetricsService {
            home_region: region,
            metrics: BTreeMap::new(),
            schedules: Vec::new(),
            puts: 0,
        }
    }

    /// Records a datapoint.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the metric's latest datapoint (each metric is
    /// an append-only series).
    pub fn put_metric(
        &mut self,
        key: MetricKey,
        at: SimTime,
        value: f64,
        ledger: &mut BillingLedger,
    ) {
        ledger.charge(
            at,
            ServiceKind::Metrics,
            self.home_region,
            Usd::new(PUT_PRICE_PER_1000 / 1000.0),
        );
        self.puts += 1;
        self.metrics
            .entry(key)
            .or_insert_with_key(|k| TimeSeries::new(k.to_string()))
            .push(at, value);
    }

    /// The raw series for a metric, if any datapoints exist.
    pub fn series(&self, key: &MetricKey) -> Option<&TimeSeries> {
        self.metrics.get(key)
    }

    /// The latest datapoint at or before `at`.
    pub fn latest(&self, key: &MetricKey, at: SimTime) -> Option<f64> {
        self.metrics.get(key).and_then(|s| s.value_at(at))
    }

    /// A statistic over datapoints in `[from, to)`.
    ///
    /// # Errors
    ///
    /// Returns [`MetricsError::NoData`] when the window is empty.
    pub fn statistic(
        &self,
        key: &MetricKey,
        stat: Statistic,
        from: SimTime,
        to: SimTime,
    ) -> Result<f64, MetricsError> {
        let series = self
            .metrics
            .get(key)
            .ok_or_else(|| MetricsError::NoData(key.clone()))?;
        let values: Vec<f64> = series
            .iter()
            .filter(|&&(t, _)| t >= from && t < to)
            .map(|&(_, v)| v)
            .collect();
        if values.is_empty() {
            return Err(MetricsError::NoData(key.clone()));
        }
        Ok(match stat {
            Statistic::Average => values.iter().sum::<f64>() / values.len() as f64,
            Statistic::Minimum => values.iter().copied().fold(f64::INFINITY, f64::min),
            Statistic::Maximum => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            Statistic::Sum => values.iter().sum(),
            Statistic::SampleCount => values.len() as f64,
        })
    }

    /// Installs a periodic schedule.
    pub fn put_schedule(&mut self, schedule: Schedule) {
        self.schedules.push(schedule);
    }

    /// Installed schedules.
    pub fn schedules(&self) -> &[Schedule] {
        &self.schedules
    }

    /// Total datapoints recorded.
    pub fn put_count(&self) -> u64 {
        self.puts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> MetricKey {
        MetricKey::new("SpotVerse", "m", "d=1")
    }

    #[test]
    fn statistics_over_window() {
        let mut cw = MetricsService::new(Region::UsEast1);
        let mut ledger = BillingLedger::new();
        for (i, v) in [1.0, 2.0, 3.0, 4.0].into_iter().enumerate() {
            cw.put_metric(key(), SimTime::from_secs(i as u64 * 10), v, &mut ledger);
        }
        let from = SimTime::ZERO;
        let to = SimTime::from_secs(25); // covers first three points
        assert_eq!(cw.statistic(&key(), Statistic::Average, from, to).unwrap(), 2.0);
        assert_eq!(cw.statistic(&key(), Statistic::Minimum, from, to).unwrap(), 1.0);
        assert_eq!(cw.statistic(&key(), Statistic::Maximum, from, to).unwrap(), 3.0);
        assert_eq!(cw.statistic(&key(), Statistic::Sum, from, to).unwrap(), 6.0);
        assert_eq!(cw.statistic(&key(), Statistic::SampleCount, from, to).unwrap(), 3.0);
        assert_eq!(cw.put_count(), 4);
        assert_eq!(ledger.len(), 4);
    }

    #[test]
    fn empty_window_is_no_data() {
        let cw = MetricsService::new(Region::UsEast1);
        let err = cw
            .statistic(&key(), Statistic::Average, SimTime::ZERO, SimTime::from_secs(1))
            .unwrap_err();
        assert!(err.to_string().contains("no datapoints"));
    }

    #[test]
    fn latest_is_step_lookup() {
        let mut cw = MetricsService::new(Region::UsEast1);
        let mut ledger = BillingLedger::new();
        cw.put_metric(key(), SimTime::from_secs(10), 5.0, &mut ledger);
        assert_eq!(cw.latest(&key(), SimTime::from_secs(9)), None);
        assert_eq!(cw.latest(&key(), SimTime::from_secs(100)), Some(5.0));
        assert!(cw.series(&key()).is_some());
    }

    #[test]
    fn schedule_fires_on_period_boundaries() {
        let s = Schedule::new("sweep", SimDuration::from_mins(15), SimTime::ZERO);
        assert_eq!(s.next_fire(SimTime::ZERO), SimTime::ZERO);
        assert_eq!(s.next_fire(SimTime::from_secs(1)), SimTime::from_secs(900));
        assert_eq!(s.next_fire(SimTime::from_secs(900)), SimTime::from_secs(900));
        let occ = s.occurrences(SimTime::ZERO, SimTime::from_hours(1));
        assert_eq!(occ.len(), 4);
        assert_eq!(occ[3], SimTime::from_secs(2700));
        assert_eq!(s.period(), SimDuration::from_mins(15));
        assert_eq!(s.name(), "sweep");
    }

    #[test]
    fn schedule_with_offset_start() {
        let s = Schedule::new("s", SimDuration::from_mins(10), SimTime::from_secs(100));
        assert_eq!(s.next_fire(SimTime::ZERO), SimTime::from_secs(100));
        assert_eq!(s.next_fire(SimTime::from_secs(101)), SimTime::from_secs(700));
        let occ = s.occurrences(SimTime::from_secs(650), SimTime::from_secs(1400));
        assert_eq!(occ, vec![SimTime::from_secs(700), SimTime::from_secs(1300)]);
    }

    #[test]
    fn schedules_are_stored() {
        let mut cw = MetricsService::new(Region::UsEast1);
        cw.put_schedule(Schedule::new("a", SimDuration::from_mins(5), SimTime::ZERO));
        cw.put_schedule(Schedule::new("b", SimDuration::from_mins(15), SimTime::ZERO));
        assert_eq!(cw.schedules().len(), 2);
    }
}
