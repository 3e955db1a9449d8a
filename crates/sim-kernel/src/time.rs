//! Simulated time: [`SimTime`] instants and [`SimDuration`] spans.
//!
//! The kernel measures time in whole simulated seconds. Newtypes keep
//! instants and spans statically distinct (paper experiments mix hours-long
//! workloads with two-minute interruption notices, so unit confusion is a
//! real hazard).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in simulated time, in whole seconds since the simulation epoch.
///
/// # Examples
///
/// ```
/// use sim_kernel::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_hours(10);
/// assert_eq!(t.as_secs(), 36_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in whole seconds.
///
/// # Examples
///
/// ```
/// use sim_kernel::SimDuration;
///
/// let d = SimDuration::from_mins(2);
/// assert_eq!(d.as_secs(), 120);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant `secs` seconds after the epoch.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs)
    }

    /// Creates an instant `hours` hours after the epoch.
    pub const fn from_hours(hours: u64) -> Self {
        SimTime(hours * 3600)
    }

    /// Creates an instant `days` days after the epoch.
    pub const fn from_days(days: u64) -> Self {
        SimTime(days * 86_400)
    }

    /// Seconds since the epoch.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// Hours since the epoch, as a float (useful for reporting).
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3600.0
    }

    /// Whole days since the epoch (truncating).
    pub const fn as_days(self) -> u64 {
        self.0 / 86_400
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`; simulated clocks never run
    /// backwards, so this indicates a logic error in the caller.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("duration_since: `earlier` is later than `self`"),
        )
    }

    /// The span from `earlier` to `self`, or [`SimDuration::ZERO`] if
    /// `earlier` is later.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Returns the earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a span of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs)
    }

    /// Creates a span of `mins` minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60)
    }

    /// Creates a span of `hours` hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3600)
    }

    /// Creates a span of `days` days.
    pub const fn from_days(days: u64) -> Self {
        SimDuration(days * 86_400)
    }

    /// Creates a span from fractional hours, rounding to the nearest second.
    ///
    /// # Panics
    ///
    /// Panics if `hours` is negative or not finite.
    pub fn from_hours_f64(hours: f64) -> Self {
        assert!(
            hours.is_finite() && hours >= 0.0,
            "from_hours_f64: hours must be finite and non-negative, got {hours}"
        );
        SimDuration((hours * 3600.0).round() as u64)
    }

    /// The span in whole seconds.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// The span in fractional hours.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3600.0
    }

    /// True if the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction of spans.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Returns the smaller of two spans.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// Returns the larger of two spans.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    /// Saturates at the last representable instant instead of wrapping,
    /// so an arrival or deadline far past any horizon stays past it.
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    /// Saturates like [`Add`].
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;

    /// # Panics
    ///
    /// Panics if the result would precede the epoch.
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime - SimDuration precedes the epoch"),
        )
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    /// # Panics
    ///
    /// Panics if `rhs` is later than `self`.
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    /// # Panics
    ///
    /// Panics if `rhs` is longer than `self`.
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration subtraction underflow"),
        )
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;

    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;

    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.0;
        let (d, rem) = (total / 86_400, total % 86_400);
        let (h, rem) = (rem / 3600, rem % 3600);
        let (m, s) = (rem / 60, rem % 60);
        if d > 0 {
            write!(f, "{d}d{h:02}h{m:02}m{s:02}s")
        } else if h > 0 {
            write!(f, "{h}h{m:02}m{s:02}s")
        } else if m > 0 {
            write!(f, "{m}m{s:02}s")
        } else {
            write!(f, "{s}s")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree_on_units() {
        assert_eq!(SimDuration::from_mins(1).as_secs(), 60);
        assert_eq!(SimDuration::from_hours(2).as_secs(), 7200);
        assert_eq!(SimDuration::from_days(1), SimDuration::from_hours(24));
        assert_eq!(SimTime::from_hours(3), SimTime::from_secs(10_800));
        assert_eq!(SimTime::from_days(2).as_days(), 2);
    }

    #[test]
    fn arithmetic_roundtrips() {
        let t0 = SimTime::from_secs(100);
        let d = SimDuration::from_secs(42);
        let t1 = t0 + d;
        assert_eq!(t1 - t0, d);
        assert_eq!(t1 - d, t0);
    }

    #[test]
    fn adding_past_the_last_instant_saturates() {
        let last = SimTime::from_secs(u64::MAX);
        assert_eq!(last + SimDuration::from_secs(1), last);
        assert_eq!(SimTime::from_secs(u64::MAX - 1) + SimDuration::from_hours(1), last);
        let mut t = SimTime::from_secs(u64::MAX - 5);
        t += SimDuration::from_secs(u64::MAX);
        assert_eq!(t, last);
    }

    #[test]
    fn saturating_duration_since_clamps() {
        let early = SimTime::from_secs(5);
        let late = SimTime::from_secs(9);
        assert_eq!(early.saturating_duration_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_duration_since(early).as_secs(), 4);
    }

    #[test]
    #[should_panic(expected = "duration_since")]
    fn duration_since_panics_on_backwards_clock() {
        let _ = SimTime::from_secs(1).duration_since(SimTime::from_secs(2));
    }

    #[test]
    fn from_hours_f64_rounds_to_seconds() {
        assert_eq!(SimDuration::from_hours_f64(0.5).as_secs(), 1800);
        assert_eq!(SimDuration::from_hours_f64(10.25).as_secs(), 36_900);
    }

    #[test]
    fn display_is_human_readable() {
        assert_eq!(SimDuration::from_secs(59).to_string(), "59s");
        assert_eq!(SimDuration::from_secs(61).to_string(), "1m01s");
        assert_eq!(SimDuration::from_hours(25).to_string(), "1d01h00m00s");
        assert_eq!(SimTime::from_hours(1).to_string(), "t+1h00m00s");
    }

    #[test]
    fn min_max_order_correctly() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let x = SimDuration::from_secs(1);
        let y = SimDuration::from_secs(2);
        assert_eq!(x.max(y), y);
        assert_eq!(x.min(y), x);
    }

    #[test]
    fn as_hours_f64_matches_seconds() {
        assert_eq!(SimDuration::from_hours(3).as_hours_f64(), 3.0);
        assert_eq!(SimTime::from_hours(3).as_hours_f64(), 3.0);
    }
}
