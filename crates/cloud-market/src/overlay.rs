//! Score and hazard overlays — the market's fault-injection seam.
//!
//! A [`MarketOverlay`] is a set of time-windowed overrides a chaos layer
//! compiles from its scenario: placement/stability pins (e.g. a blacked-out
//! region advertising the minimum placement score) and hazard multipliers.
//! The market itself stays immutable and deterministic; consumers that
//! should *observe* faults (the Monitor, assessment builders) apply an
//! overlay on top of base market reads. An empty overlay is always an
//! identity.
//!
//! Overlays compose with [market regimes](crate::regime): a regime
//! perturbs the *base generators* at construction (it changes what the
//! market is), while an overlay rewrites *reads* over a time window (it
//! changes what a consumer sees). Chaos scenarios layered on a
//! non-baseline regime therefore fault an already-perturbed market —
//! the combination the tournament's `--chaos regime` mode exercises.

use sim_kernel::SimTime;

use crate::advisor::{PlacementScore, StabilityScore};
use crate::region::Region;

/// One windowed override, active on `[from, until)`.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlayWindow {
    /// Regions affected; `None` means every region.
    pub regions: Option<Vec<Region>>,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Pins the placement score to at most this value while active.
    pub placement_cap: Option<PlacementScore>,
    /// Pins the stability score to at most this value while active.
    pub stability_cap: Option<StabilityScore>,
    /// Multiplies the interruption hazard while active (1.0 = neutral).
    pub hazard_multiplier: f64,
    /// Whether spot capacity is entirely gone while active.
    pub blackout: bool,
}

impl OverlayWindow {
    /// A neutral window over `[from, until)` for `regions` (`None` = all).
    pub fn new(regions: Option<Vec<Region>>, from: SimTime, until: SimTime) -> Self {
        OverlayWindow {
            regions,
            from,
            until,
            placement_cap: None,
            stability_cap: None,
            hazard_multiplier: 1.0,
            blackout: false,
        }
    }

    /// Whether this window applies to `region` at `at`.
    pub fn applies(&self, region: Region, at: SimTime) -> bool {
        at >= self.from
            && at < self.until
            && self.regions.as_ref().is_none_or(|r| r.contains(&region))
    }
}

/// A collection of windowed overrides applied on top of base market reads.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MarketOverlay {
    windows: Vec<OverlayWindow>,
}

impl MarketOverlay {
    /// An empty (identity) overlay.
    pub fn new() -> Self {
        MarketOverlay::default()
    }

    /// Adds a window.
    pub fn push(&mut self, window: OverlayWindow) {
        self.windows.push(window);
    }

    /// All windows, in insertion order.
    pub fn windows(&self) -> &[OverlayWindow] {
        &self.windows
    }

    /// Whether a blackout window covers `region` at `at`.
    pub fn is_blackout(&self, region: Region, at: SimTime) -> bool {
        self.windows
            .iter()
            .any(|w| w.blackout && w.applies(region, at))
    }

    /// The observed placement score: the base capped by every active pin.
    pub fn placement_score(
        &self,
        region: Region,
        at: SimTime,
        base: PlacementScore,
    ) -> PlacementScore {
        self.windows
            .iter()
            .filter(|w| w.applies(region, at))
            .filter_map(|w| w.placement_cap)
            .fold(base, |score, cap| score.min(cap))
    }

    /// The observed stability score: the base capped by every active pin.
    pub fn stability_score(
        &self,
        region: Region,
        at: SimTime,
        base: StabilityScore,
    ) -> StabilityScore {
        self.windows
            .iter()
            .filter(|w| w.applies(region, at))
            .filter_map(|w| w.stability_cap)
            .fold(base, |score, cap| score.min(cap))
    }

    /// The combined hazard multiplier of every active window.
    pub fn hazard_multiplier(&self, region: Region, at: SimTime) -> f64 {
        self.windows
            .iter()
            .filter(|w| w.applies(region, at))
            .map(|w| w.hazard_multiplier)
            .product()
    }

    /// The earliest blackout window for `region` still ending after `at`,
    /// as `(from, until)`.
    pub fn next_blackout_window(&self, region: Region, at: SimTime) -> Option<(SimTime, SimTime)> {
        self.windows
            .iter()
            .filter(|w| {
                w.blackout && w.until > at && w.regions.as_ref().is_none_or(|r| r.contains(&region))
            })
            .map(|w| (w.from, w.until))
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scores() -> (PlacementScore, StabilityScore) {
        (
            PlacementScore::new(8).unwrap(),
            StabilityScore::new(3).unwrap(),
        )
    }

    fn window(region: Region, from_h: u64, until_h: u64) -> OverlayWindow {
        OverlayWindow::new(
            Some(vec![region]),
            SimTime::from_hours(from_h),
            SimTime::from_hours(until_h),
        )
    }

    #[test]
    fn empty_overlay_is_identity() {
        let overlay = MarketOverlay::new();
        let (p, s) = scores();
        let t = SimTime::from_hours(5);
        assert_eq!(overlay.placement_score(Region::UsEast1, t, p), p);
        assert_eq!(overlay.stability_score(Region::UsEast1, t, s), s);
        assert_eq!(overlay.hazard_multiplier(Region::UsEast1, t), 1.0);
        assert!(!overlay.is_blackout(Region::UsEast1, t));
        assert!(overlay.next_blackout_window(Region::UsEast1, t).is_none());
    }

    #[test]
    fn pins_apply_only_inside_window_and_region() {
        let mut overlay = MarketOverlay::new();
        let mut w = window(Region::CaCentral1, 1, 10);
        w.placement_cap = Some(PlacementScore::new(1).unwrap());
        w.blackout = true;
        overlay.push(w);
        let (p, _) = scores();
        let inside = SimTime::from_hours(5);
        let outside = SimTime::from_hours(11);
        assert_eq!(
            overlay.placement_score(Region::CaCentral1, inside, p).value(),
            1
        );
        assert_eq!(overlay.placement_score(Region::CaCentral1, outside, p), p);
        assert_eq!(overlay.placement_score(Region::UsEast1, inside, p), p);
        assert!(overlay.is_blackout(Region::CaCentral1, inside));
        assert!(!overlay.is_blackout(Region::UsEast1, inside));
    }

    #[test]
    fn hazard_multipliers_stack() {
        let mut overlay = MarketOverlay::new();
        let mut a = OverlayWindow::new(None, SimTime::ZERO, SimTime::from_hours(10));
        a.hazard_multiplier = 4.0;
        let mut b = window(Region::UsEast1, 0, 10);
        b.hazard_multiplier = 2.0;
        overlay.push(a);
        overlay.push(b);
        let t = SimTime::from_hours(1);
        assert_eq!(overlay.hazard_multiplier(Region::UsEast1, t), 8.0);
        assert_eq!(overlay.hazard_multiplier(Region::UsWest2, t), 4.0);
    }

    #[test]
    fn next_blackout_window_finds_earliest_ending_after() {
        let mut overlay = MarketOverlay::new();
        let mut early = window(Region::CaCentral1, 1, 3);
        early.blackout = true;
        let mut late = window(Region::CaCentral1, 8, 12);
        late.blackout = true;
        overlay.push(late.clone());
        overlay.push(early);
        let t = SimTime::from_hours(2);
        let (from, until) = overlay.next_blackout_window(Region::CaCentral1, t).unwrap();
        assert_eq!(from, SimTime::from_hours(1));
        assert_eq!(until, SimTime::from_hours(3));
        let after = SimTime::from_hours(5);
        assert_eq!(
            overlay.next_blackout_window(Region::CaCentral1, after),
            Some((SimTime::from_hours(8), SimTime::from_hours(12)))
        );
    }
}
