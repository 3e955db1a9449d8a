//! Time-series recording for experiment figures: sampled series and
//! cumulative event counters (e.g. "cumulative interruptions over elapsed
//! time", Figure 7 of the paper).

use crate::time::SimTime;

/// An append-only `(time, value)` series.
///
/// Points must be appended in non-decreasing time order.
///
/// # Examples
///
/// ```
/// use sim_kernel::{SimTime, TimeSeries};
///
/// let mut s = TimeSeries::new("price");
/// s.push(SimTime::from_secs(0), 1.0);
/// s.push(SimTime::from_secs(10), 2.0);
/// assert_eq!(s.value_at(SimTime::from_secs(5)), Some(1.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    name: String,
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series with a display name.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// The series' display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a point.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the last appended point, or `value` is NaN.
    pub fn push(&mut self, time: SimTime, value: f64) {
        assert!(!value.is_nan(), "TimeSeries::push: NaN value");
        if let Some(&(last, _)) = self.points.last() {
            assert!(time >= last, "TimeSeries::push: time went backwards");
        }
        self.points.push((time, value));
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Iterates over `(time, value)` points.
    pub fn iter(&self) -> std::slice::Iter<'_, (SimTime, f64)> {
        self.points.iter()
    }

    /// The last point, if any.
    pub fn last(&self) -> Option<(SimTime, f64)> {
        self.points.last().copied()
    }

    /// Step-function value at `time`: the value of the latest point at or
    /// before `time`, or `None` if `time` precedes the first point.
    pub fn value_at(&self, time: SimTime) -> Option<f64> {
        match self.points.partition_point(|&(t, _)| t <= time) {
            0 => None,
            n => Some(self.points[n - 1].1),
        }
    }

    /// Resamples the step function at a fixed period over `[start, end]`
    /// inclusive; instants before the first point carry the first point's
    /// value.
    ///
    /// # Panics
    ///
    /// Panics if the series is empty, `start > end`, or `period` is zero.
    pub fn resample(
        &self,
        start: SimTime,
        end: SimTime,
        period: crate::time::SimDuration,
    ) -> Vec<(SimTime, f64)> {
        assert!(!self.points.is_empty(), "resample: empty series");
        assert!(start <= end, "resample: start after end");
        assert!(!period.is_zero(), "resample: zero period");
        let first_value = self.points[0].1;
        let mut out = Vec::new();
        let mut t = start;
        loop {
            out.push((t, self.value_at(t).unwrap_or(first_value)));
            if t >= end {
                break;
            }
            t += period;
        }
        out
    }
}

impl<'a> IntoIterator for &'a TimeSeries {
    type Item = &'a (SimTime, f64);
    type IntoIter = std::slice::Iter<'a, (SimTime, f64)>;

    fn into_iter(self) -> Self::IntoIter {
        self.points.iter()
    }
}

/// A monotone event counter that records its own trajectory.
///
/// # Examples
///
/// ```
/// use sim_kernel::{CumulativeCounter, SimTime};
///
/// let mut c = CumulativeCounter::new("interruptions");
/// c.increment(SimTime::from_secs(60));
/// c.increment(SimTime::from_secs(120));
/// assert_eq!(c.count(), 2);
/// assert_eq!(c.series().last().map(|(_, v)| v), Some(2.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CumulativeCounter {
    count: u64,
    series: TimeSeries,
}

impl CumulativeCounter {
    /// Creates a zeroed counter.
    pub fn new(name: impl Into<String>) -> Self {
        CumulativeCounter {
            count: 0,
            series: TimeSeries::new(name),
        }
    }

    /// Increments by one at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the previous increment.
    pub fn increment(&mut self, time: SimTime) {
        self.add(time, 1);
    }

    /// Increments by `n` at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the previous increment.
    pub fn add(&mut self, time: SimTime, n: u64) {
        self.count += n;
        self.series.push(time, self.count as f64);
    }

    /// Current count.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The recorded trajectory.
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn value_at_is_a_step_function() {
        let mut s = TimeSeries::new("x");
        s.push(SimTime::from_secs(10), 1.0);
        s.push(SimTime::from_secs(20), 2.0);
        assert_eq!(s.value_at(SimTime::from_secs(5)), None);
        assert_eq!(s.value_at(SimTime::from_secs(10)), Some(1.0));
        assert_eq!(s.value_at(SimTime::from_secs(15)), Some(1.0));
        assert_eq!(s.value_at(SimTime::from_secs(20)), Some(2.0));
        assert_eq!(s.value_at(SimTime::from_secs(999)), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn non_monotone_push_panics() {
        let mut s = TimeSeries::new("x");
        s.push(SimTime::from_secs(10), 1.0);
        s.push(SimTime::from_secs(5), 2.0);
    }

    #[test]
    fn resample_covers_requested_window() {
        let mut s = TimeSeries::new("x");
        s.push(SimTime::from_secs(10), 1.0);
        s.push(SimTime::from_secs(30), 3.0);
        let samples = s.resample(
            SimTime::ZERO,
            SimTime::from_secs(40),
            SimDuration::from_secs(10),
        );
        let values: Vec<f64> = samples.iter().map(|&(_, v)| v).collect();
        assert_eq!(values, vec![1.0, 1.0, 1.0, 3.0, 3.0]);
    }

    #[test]
    fn counter_trajectory_is_monotone() {
        let mut c = CumulativeCounter::new("n");
        c.increment(SimTime::from_secs(1));
        c.add(SimTime::from_secs(2), 3);
        assert_eq!(c.count(), 4);
        let values: Vec<f64> = c.series().iter().map(|&(_, v)| v).collect();
        assert_eq!(values, vec![1.0, 4.0]);
    }

    #[test]
    fn series_iteration() {
        let mut s = TimeSeries::new("x");
        s.push(SimTime::from_secs(1), 1.0);
        assert_eq!((&s).into_iter().count(), 1);
        assert_eq!(s.iter().count(), 1);
        assert_eq!(s.name(), "x");
        assert!(!s.is_empty());
        assert_eq!(s.len(), 1);
    }
}
