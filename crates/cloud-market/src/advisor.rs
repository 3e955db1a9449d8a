//! Spot Instance Advisor metrics: Interruption-Frequency bands, the derived
//! Stability Score, and the Spot Placement Score (paper §3.1).
//!
//! AWS publishes the Interruption Frequency as a banded percentage
//! (`<5%`, `5–10%`, …, `>20%`). The paper collapses the band into a 1–3
//! *Stability Score* — 3 when interruption likelihood is below 5%, 1 when it
//! exceeds 20%, and 2 otherwise — and sums it with the 1–10 *Spot Placement
//! Score* to rank regions.

use std::fmt;

/// An Interruption Frequency band from the Spot Instance Advisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum InterruptionBand {
    Under5,
    FiveToTen,
    TenToFifteen,
    FifteenToTwenty,
    Over20,
}

impl InterruptionBand {
    /// Every band, most stable first.
    pub const ALL: [InterruptionBand; 5] = [
        InterruptionBand::Under5,
        InterruptionBand::FiveToTen,
        InterruptionBand::TenToFifteen,
        InterruptionBand::FifteenToTwenty,
        InterruptionBand::Over20,
    ];

    /// The label the advisor displays, e.g. `"<5%"`.
    pub fn label(self) -> &'static str {
        match self {
            InterruptionBand::Under5 => "<5%",
            InterruptionBand::FiveToTen => "5-10%",
            InterruptionBand::TenToFifteen => "10-15%",
            InterruptionBand::FifteenToTwenty => "15-20%",
            InterruptionBand::Over20 => ">20%",
        }
    }

    /// The Stability Score the paper derives from the band: 3 for `<5%`, 1
    /// for `>20%`, 2 for everything in between.
    pub fn stability_score(self) -> StabilityScore {
        match self {
            InterruptionBand::Under5 => StabilityScore::new(3).expect("3 is valid"),
            InterruptionBand::Over20 => StabilityScore::new(1).expect("1 is valid"),
            _ => StabilityScore::new(2).expect("2 is valid"),
        }
    }

    /// The calibrated baseline interruption hazard (events per instance-hour)
    /// this band corresponds to in the simulator.
    ///
    /// Fitted so that the paper's reported interruption counts reproduce
    /// (see DESIGN.md §5): a Stability-1 region yields ≈3 interruptions per
    /// 10-hour restart-from-scratch workload.
    pub fn base_hourly_hazard(self) -> f64 {
        match self {
            InterruptionBand::Under5 => 0.022,
            InterruptionBand::FiveToTen => 0.045,
            InterruptionBand::TenToFifteen => 0.060,
            InterruptionBand::FifteenToTwenty => 0.070,
            InterruptionBand::Over20 => 0.080,
        }
    }

    /// Moves one band toward more interruptions, saturating at `>20%`.
    pub fn worse(self) -> InterruptionBand {
        match self {
            InterruptionBand::Under5 => InterruptionBand::FiveToTen,
            InterruptionBand::FiveToTen => InterruptionBand::TenToFifteen,
            InterruptionBand::TenToFifteen => InterruptionBand::FifteenToTwenty,
            InterruptionBand::FifteenToTwenty | InterruptionBand::Over20 => {
                InterruptionBand::Over20
            }
        }
    }

    /// Moves one band toward fewer interruptions, saturating at `<5%`.
    pub fn better(self) -> InterruptionBand {
        match self {
            InterruptionBand::Under5 | InterruptionBand::FiveToTen => InterruptionBand::Under5,
            InterruptionBand::TenToFifteen => InterruptionBand::FiveToTen,
            InterruptionBand::FifteenToTwenty => InterruptionBand::TenToFifteen,
            InterruptionBand::Over20 => InterruptionBand::FifteenToTwenty,
        }
    }
}

impl fmt::Display for InterruptionBand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Error for out-of-range score values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScoreOutOfRange {
    kind: &'static str,
    value: u8,
    lo: u8,
    hi: u8,
}

impl fmt::Display for ScoreOutOfRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} out of range [{}, {}]",
            self.kind, self.value, self.lo, self.hi
        )
    }
}

impl std::error::Error for ScoreOutOfRange {}

/// The paper's Stability Score: 1–3, inversely proportional to the
/// Interruption Frequency.
///
/// # Examples
///
/// ```
/// use cloud_market::{InterruptionBand, StabilityScore};
///
/// assert_eq!(InterruptionBand::Under5.stability_score().value(), 3);
/// assert!(StabilityScore::new(4).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StabilityScore(u8);

impl StabilityScore {
    /// The worst (most interruption-prone) score.
    pub const MIN: StabilityScore = StabilityScore(1);

    /// Creates a score, validating the 1–3 range.
    ///
    /// # Errors
    ///
    /// Returns [`ScoreOutOfRange`] when `value` is outside `1..=3`.
    pub fn new(value: u8) -> Result<Self, ScoreOutOfRange> {
        if (1..=3).contains(&value) {
            Ok(StabilityScore(value))
        } else {
            Err(ScoreOutOfRange {
                kind: "stability score",
                value,
                lo: 1,
                hi: 3,
            })
        }
    }

    /// The raw score.
    pub fn value(self) -> u8 {
        self.0
    }
}

impl fmt::Display for StabilityScore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The Spot Placement Score: 1–10, the likelihood a spot request succeeds.
///
/// # Examples
///
/// ```
/// use cloud_market::PlacementScore;
///
/// let s = PlacementScore::new(7)?;
/// assert!(s.fulfill_probability() > 0.7);
/// # Ok::<(), cloud_market::ScoreOutOfRange>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlacementScore(u8);

impl PlacementScore {
    /// The worst score — what a blacked-out region advertises.
    pub const MIN: PlacementScore = PlacementScore(1);

    /// Creates a score, validating the 1–10 range.
    ///
    /// # Errors
    ///
    /// Returns [`ScoreOutOfRange`] when `value` is outside `1..=10`.
    pub fn new(value: u8) -> Result<Self, ScoreOutOfRange> {
        if (1..=10).contains(&value) {
            Ok(PlacementScore(value))
        } else {
            Err(ScoreOutOfRange {
                kind: "placement score",
                value,
                lo: 1,
                hi: 10,
            })
        }
    }

    /// Creates a score from a real-valued model output, rounding and
    /// clamping into range.
    pub fn from_f64_clamped(value: f64) -> Self {
        let v = value.round().clamp(1.0, 10.0) as u8;
        PlacementScore(v)
    }

    /// The raw score.
    pub fn value(self) -> u8 {
        self.0
    }

    /// The per-attempt probability that a spot request in this market is
    /// fulfilled, as modelled by the simulator: `0.25 + 0.075 × score`
    /// (score 10 → certainty).
    pub fn fulfill_probability(self) -> f64 {
        0.25 + 0.075 * f64::from(self.0)
    }
}

impl fmt::Display for PlacementScore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The combined region score the Optimizer ranks on: Placement + Stability
/// (range 2–13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CombinedScore(u8);

impl CombinedScore {
    /// Combines the two advisor metrics.
    pub fn new(placement: PlacementScore, stability: StabilityScore) -> Self {
        CombinedScore(placement.value() + stability.value())
    }

    /// The raw combined value.
    pub fn value(self) -> u8 {
        self.0
    }

    /// Whether this score meets a threshold (paper Algorithm 1's `T`).
    pub fn meets(self, threshold: u8) -> bool {
        self.0 >= threshold
    }
}

impl fmt::Display for CombinedScore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stability_mapping_matches_paper() {
        assert_eq!(InterruptionBand::Under5.stability_score().value(), 3);
        assert_eq!(InterruptionBand::FiveToTen.stability_score().value(), 2);
        assert_eq!(InterruptionBand::TenToFifteen.stability_score().value(), 2);
        assert_eq!(InterruptionBand::FifteenToTwenty.stability_score().value(), 2);
        assert_eq!(InterruptionBand::Over20.stability_score().value(), 1);
    }

    #[test]
    fn hazards_increase_with_band_severity() {
        let hazards: Vec<f64> = InterruptionBand::ALL
            .iter()
            .map(|b| b.base_hourly_hazard())
            .collect();
        assert!(hazards.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn band_walk_saturates() {
        assert_eq!(InterruptionBand::Over20.worse(), InterruptionBand::Over20);
        assert_eq!(InterruptionBand::Under5.better(), InterruptionBand::Under5);
        assert_eq!(
            InterruptionBand::Under5.worse().better(),
            InterruptionBand::Under5
        );
    }

    #[test]
    fn score_validation() {
        assert!(StabilityScore::new(0).is_err());
        assert!(StabilityScore::new(3).is_ok());
        assert!(PlacementScore::new(0).is_err());
        assert!(PlacementScore::new(11).is_err());
        assert!(PlacementScore::new(10).is_ok());
        let err = PlacementScore::new(42).unwrap_err();
        assert!(err.to_string().contains("placement score 42"));
    }

    #[test]
    fn placement_clamping() {
        assert_eq!(PlacementScore::from_f64_clamped(-3.0).value(), 1);
        assert_eq!(PlacementScore::from_f64_clamped(6.4).value(), 6);
        assert_eq!(PlacementScore::from_f64_clamped(99.0).value(), 10);
    }

    #[test]
    fn fulfill_probability_monotone_and_bounded() {
        let mut last = 0.0;
        for v in 1..=10 {
            let p = PlacementScore::new(v).unwrap().fulfill_probability();
            assert!(p > last && p <= 1.0);
            last = p;
        }
        assert_eq!(PlacementScore::new(10).unwrap().fulfill_probability(), 1.0);
    }

    #[test]
    fn combined_score_sums_and_thresholds() {
        let c = CombinedScore::new(
            PlacementScore::new(7).unwrap(),
            StabilityScore::new(3).unwrap(),
        );
        assert_eq!(c.value(), 10);
        assert!(c.meets(6));
        assert!(c.meets(10));
        assert!(!c.meets(11));
    }

    #[test]
    fn band_labels() {
        assert_eq!(InterruptionBand::Under5.to_string(), "<5%");
        assert_eq!(InterruptionBand::Over20.to_string(), ">20%");
    }
}
