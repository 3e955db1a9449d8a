//! Money newtypes: [`Usd`] amounts and [`UsdPerHour`] rates.
//!
//! Keeping rates and amounts apart prevents the classic billing bug of
//! summing a price-per-hour into a dollar total without multiplying by
//! elapsed time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use sim_kernel::SimDuration;

/// A non-negative dollar amount.
///
/// # Examples
///
/// ```
/// use cloud_market::Usd;
///
/// let total = Usd::new(1.25) + Usd::new(0.75);
/// assert_eq!(total, Usd::new(2.0));
/// assert_eq!(total.to_string(), "$2.00");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Usd(f64);

/// A non-negative dollars-per-hour rate.
///
/// # Examples
///
/// ```
/// use cloud_market::UsdPerHour;
/// use sim_kernel::SimDuration;
///
/// let rate = UsdPerHour::new(0.192);
/// let cost = rate.for_duration(SimDuration::from_hours(10));
/// assert!((cost.amount() - 1.92).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct UsdPerHour(f64);

impl Usd {
    /// Zero dollars.
    pub const ZERO: Usd = Usd(0.0);

    /// Creates an amount.
    ///
    /// # Panics
    ///
    /// Panics if `amount` is negative or not finite.
    pub fn new(amount: f64) -> Self {
        assert!(
            amount.is_finite() && amount >= 0.0,
            "Usd::new: amount must be finite and non-negative, got {amount}"
        );
        Usd(amount)
    }

    /// The raw dollar amount.
    pub fn amount(self) -> f64 {
        self.0
    }

    /// Saturating subtraction (never goes negative).
    pub fn saturating_sub(self, other: Usd) -> Usd {
        Usd((self.0 - other.0).max(0.0))
    }

    /// The ratio of this amount to another (e.g. normalized cost).
    ///
    /// # Panics
    ///
    /// Panics if `denom` is zero.
    pub fn ratio_to(self, denom: Usd) -> f64 {
        assert!(denom.0 > 0.0, "Usd::ratio_to: division by zero dollars");
        self.0 / denom.0
    }
}

impl UsdPerHour {
    /// Zero rate.
    pub const ZERO: UsdPerHour = UsdPerHour(0.0);

    /// Creates a rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative or not finite.
    pub fn new(rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate >= 0.0,
            "UsdPerHour::new: rate must be finite and non-negative, got {rate}"
        );
        UsdPerHour(rate)
    }

    /// The raw dollars-per-hour value.
    pub fn rate(self) -> f64 {
        self.0
    }

    /// The cost of running at this rate for `duration` (per-second billing).
    pub fn for_duration(self, duration: SimDuration) -> Usd {
        Usd(self.0 * duration.as_hours_f64())
    }

    /// Scales the rate by a non-negative factor (e.g. a demand episode
    /// multiplier).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scaled(self, factor: f64) -> UsdPerHour {
        UsdPerHour::new(self.0 * factor)
    }

    /// The smaller of two rates.
    pub fn min(self, other: UsdPerHour) -> UsdPerHour {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// The larger of two rates.
    pub fn max(self, other: UsdPerHour) -> UsdPerHour {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for Usd {
    type Output = Usd;
    fn add(self, rhs: Usd) -> Usd {
        Usd(self.0 + rhs.0)
    }
}

impl AddAssign for Usd {
    fn add_assign(&mut self, rhs: Usd) {
        self.0 += rhs.0;
    }
}

impl Sub for Usd {
    type Output = Usd;

    /// # Panics
    ///
    /// Panics if the result would be negative; use
    /// [`Usd::saturating_sub`] when that is expected.
    fn sub(self, rhs: Usd) -> Usd {
        Usd::new(self.0 - rhs.0)
    }
}

impl Mul<f64> for Usd {
    type Output = Usd;

    /// # Panics
    ///
    /// Panics if `rhs` is negative or not finite.
    fn mul(self, rhs: f64) -> Usd {
        Usd::new(self.0 * rhs)
    }
}

impl Div<f64> for Usd {
    type Output = Usd;

    /// # Panics
    ///
    /// Panics if `rhs` is not strictly positive.
    fn div(self, rhs: f64) -> Usd {
        assert!(rhs > 0.0, "Usd division by non-positive scalar");
        Usd(self.0 / rhs)
    }
}

impl Sum for Usd {
    fn sum<I: Iterator<Item = Usd>>(iter: I) -> Usd {
        iter.fold(Usd::ZERO, Add::add)
    }
}

impl fmt::Display for Usd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${:.2}", self.0)
    }
}

impl fmt::Display for UsdPerHour {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${:.4}/h", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_times_duration_is_cost() {
        let rate = UsdPerHour::new(0.5);
        assert_eq!(rate.for_duration(SimDuration::from_hours(4)), Usd::new(2.0));
        // Per-second billing: 30 minutes at $1/h is 50 cents.
        assert_eq!(
            UsdPerHour::new(1.0).for_duration(SimDuration::from_mins(30)),
            Usd::new(0.5)
        );
    }

    #[test]
    fn sum_of_costs() {
        let total: Usd = [Usd::new(1.0), Usd::new(2.5), Usd::new(0.5)].into_iter().sum();
        assert_eq!(total, Usd::new(4.0));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_amount_rejected() {
        Usd::new(-0.01);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn subtraction_underflow_panics() {
        let _ = Usd::new(1.0) - Usd::new(2.0);
    }

    #[test]
    fn saturating_sub_clamps_to_zero() {
        assert_eq!(Usd::new(1.0).saturating_sub(Usd::new(2.0)), Usd::ZERO);
        assert_eq!(Usd::new(3.0).saturating_sub(Usd::new(1.0)), Usd::new(2.0));
    }

    #[test]
    fn ratio_to_normalizes() {
        assert_eq!(Usd::new(1.0).ratio_to(Usd::new(4.0)), 0.25);
    }

    #[test]
    fn rate_ordering_helpers() {
        let a = UsdPerHour::new(0.1);
        let b = UsdPerHour::new(0.2);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Usd::new(41.456).to_string(), "$41.46");
        assert_eq!(UsdPerHour::new(0.192).to_string(), "$0.1920/h");
    }

    #[test]
    fn scaled_rate() {
        let scaled = UsdPerHour::new(0.1).scaled(1.5);
        assert!((scaled.rate() - 0.15).abs() < 1e-12);
    }
}
