//! Online statistics used by experiment reports: running moments.

/// Welford running mean/variance with min/max tracking.
///
/// # Examples
///
/// ```
/// use sim_kernel::RunningStats;
///
/// let stats: RunningStats = [2.0, 4.0, 6.0].into_iter().collect();
/// assert_eq!(stats.mean(), 4.0);
/// assert_eq!(stats.min(), Some(2.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    total: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            total: 0.0,
        }
    }

    /// Records an observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN; a NaN observation would silently poison every
    /// downstream statistic.
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "RunningStats::record: NaN observation");
        self.count += 1;
        self.total += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Mean of observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0.0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation, if any.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, if any.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total_n = n1 + n2;
        self.mean += delta * n2 / total_n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total_n;
        self.count += other.count;
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = RunningStats::new();
        for x in iter {
            s.record(x);
        }
        s
    }
}

impl Extend<f64> for RunningStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.record(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_basic_moments() {
        let s: RunningStats = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
        assert_eq!(s.count(), 4);
        assert_eq!(s.mean(), 2.5);
        assert!((s.variance() - 1.25).abs() < 1e-12);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(4.0));
        assert_eq!(s.total(), 10.0);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn merge_matches_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let sequential: RunningStats = data.iter().copied().collect();
        let mut left: RunningStats = data[..37].iter().copied().collect();
        let right: RunningStats = data[37..].iter().copied().collect();
        left.merge(&right);
        assert_eq!(left.count(), sequential.count());
        assert!((left.mean() - sequential.mean()).abs() < 1e-9);
        assert!((left.variance() - sequential.variance()).abs() < 1e-9);
        assert_eq!(left.min(), sequential.min());
        assert_eq!(left.max(), sequential.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s: RunningStats = [5.0].into_iter().collect();
        s.merge(&RunningStats::new());
        assert_eq!(s.count(), 1);
        let mut e = RunningStats::new();
        e.merge(&s);
        assert_eq!(e.mean(), 5.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_observation_panics() {
        RunningStats::new().record(f64::NAN);
    }
}
