//! Pluggable market regimes: named, seeded perturbation programs layered
//! over the calibrated baseline market.
//!
//! The paper's evaluation runs against one calibrated market. A regime
//! generalizes "which market are we in" into a first-class axis:
//!
//! * [`MarketRegime::Baseline`] — the calibrated paper market, untouched.
//!   Every multiplier is exactly `1.0` and every delta exactly `0.0`, so a
//!   baseline market is **bit-identical** to the pre-regime build (the
//!   compatibility guarantee the golden suite pins down).
//! * [`MarketRegime::CapacityCrunch`] — randomly-selected weeks of fleet
//!   capacity pressure: advisor bands shrink (one band worse), hazard
//!   spikes, prices firm up, and placement scores sag.
//! * [`MarketRegime::CorrelatedShock`] — cross-region price shocks from a
//!   single shared seed fork: every region jumps together for a few days,
//!   the correlation that per-region processes cannot express.
//! * [`MarketRegime::RegimeSwitching`] — a seeded Markov chain over
//!   14-day segments switching between calm, crunch, and shock
//!   behaviour. These segments are the regime's own calendar, apart from
//!   the lazy tracks' fill layout: the chained generator state in
//!   `LazyTrack` crosses fill boundaries and regime switches alike.
//!
//! Two pieces carry a regime:
//!
//! * [`RegimeSpec`] — *static* generator calibration (AR(1) persistence
//!   and innovation, weekday hazard factors, episode arrival scaling)
//!   extracted from the constants that used to be hard-coded in
//!   `market.rs`.
//! * [`RegimeSchedule`] — a *per-day* program of multipliers built once
//!   per market from the market's own parent RNG via regime-specific fork
//!   labels. Forks are pure functions of `(seed, label)`, so adding the
//!   schedule never perturbs the baseline streams.

use std::fmt;
use std::str::FromStr;

use sim_kernel::SimRng;

use crate::market::Weekday;
use crate::profiles::CRUNCH_SURGE;

/// Length in days of one segment of the regime-switching Markov chain:
/// the regime holds for this many days at a time, so the default 210-day
/// horizon has fifteen segments. Every regime-switching market is drawn
/// on this calendar, so changing it changes every such market; it is
/// independent of how the lazy price and placement tracks fill.
const REGIME_SEGMENT_DAYS: usize = 14;

/// A named market regime. `Copy + Eq + Hash` so it can ride on
/// `MarketConfig` and key shared-market caches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum MarketRegime {
    /// The calibrated paper market; bit-identical to the pre-regime build.
    #[default]
    Baseline,
    /// Randomly-selected weeks of capacity pressure (bands shrink, hazard
    /// spikes, placement sags).
    CapacityCrunch,
    /// Cross-region correlated price shocks from one shared seed fork.
    CorrelatedShock,
    /// A seeded Markov chain over 14-day segments of calm/crunch/shock.
    RegimeSwitching,
}

impl MarketRegime {
    /// Every regime, in canonical order.
    pub const ALL: [MarketRegime; 4] = [
        MarketRegime::Baseline,
        MarketRegime::CapacityCrunch,
        MarketRegime::CorrelatedShock,
        MarketRegime::RegimeSwitching,
    ];

    /// The canonical snake_case name (CLI flag value, trace label).
    pub fn name(self) -> &'static str {
        match self {
            MarketRegime::Baseline => "baseline",
            MarketRegime::CapacityCrunch => "capacity_crunch",
            MarketRegime::CorrelatedShock => "correlated_shock",
            MarketRegime::RegimeSwitching => "regime_switching",
        }
    }

    /// Whether this is the default (baseline) regime.
    pub fn is_baseline(self) -> bool {
        self == MarketRegime::Baseline
    }

    /// The static generator calibration for this regime.
    pub fn spec(self) -> RegimeSpec {
        match self {
            MarketRegime::Baseline => RegimeSpec::BASELINE,
            // Crunch markets are jumpier (more frequent demand episodes,
            // heavier mid-week pressure) even outside crunch weeks.
            MarketRegime::CapacityCrunch => RegimeSpec {
                episode_rate_mult: 1.35,
                midweek_hazard: 1.2,
                ..RegimeSpec::BASELINE
            },
            // Shock regimes keep the baseline calibration between shocks;
            // the shared-fork schedule carries the correlated jumps.
            MarketRegime::CorrelatedShock => RegimeSpec {
                price_sigma: 0.028,
                ..RegimeSpec::BASELINE
            },
            MarketRegime::RegimeSwitching => RegimeSpec::BASELINE,
        }
    }
}

impl fmt::Display for MarketRegime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for MarketRegime {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        MarketRegime::ALL
            .into_iter()
            .find(|r| r.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = MarketRegime::ALL.iter().map(|r| r.name()).collect();
                format!("unknown regime {s:?} (expected one of {})", names.join(", "))
            })
    }
}

/// Static generator calibration: the constants that used to be hard-coded
/// in the market's AR(1)/episode generators and `Weekday::hazard_factor`,
/// now owned by the regime.
///
/// [`RegimeSpec::BASELINE`] reproduces every historical literal exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegimeSpec {
    /// AR(1) persistence of the hourly price process.
    pub price_phi: f64,
    /// AR(1) innovation std-dev of the hourly price process.
    pub price_sigma: f64,
    /// AR(1) persistence of the daily placement-score process.
    pub placement_phi: f64,
    /// Weekday hazard factor for Tuesday–Thursday.
    pub midweek_hazard: f64,
    /// Weekday hazard factor for Monday and Friday.
    pub shoulder_hazard: f64,
    /// Weekday hazard factor for the weekend.
    pub weekend_hazard: f64,
    /// Multiplier on the Poisson arrival rate of demand episodes.
    pub episode_rate_mult: f64,
}

impl RegimeSpec {
    /// The calibrated paper market's constants, verbatim.
    pub const BASELINE: RegimeSpec = RegimeSpec {
        price_phi: 0.97,
        price_sigma: 0.022,
        placement_phi: 0.7,
        midweek_hazard: 1.12,
        shoulder_hazard: 1.0,
        weekend_hazard: 0.82,
        episode_rate_mult: 1.0,
    };

    /// The day-of-week interruption-hazard factor under this spec.
    pub fn weekday_factor(&self, day: Weekday) -> f64 {
        match day {
            Weekday::Tuesday | Weekday::Wednesday | Weekday::Thursday => self.midweek_hazard,
            Weekday::Monday | Weekday::Friday => self.shoulder_hazard,
            Weekday::Saturday | Weekday::Sunday => self.weekend_hazard,
        }
    }

    /// The largest weekday factor — the weekly term of the thinning bound.
    pub fn max_weekday_factor(&self) -> f64 {
        self.midweek_hazard.max(self.shoulder_hazard).max(self.weekend_hazard)
    }
}

/// One day's regime perturbation, applied uniformly across every
/// (region, instance type) market — that shared application is what makes
/// shocks *correlated*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegimeDay {
    /// Multiplier on the instantaneous interruption hazard.
    pub hazard_mult: f64,
    /// Multiplier on the hourly spot price (applied before the on-demand
    /// clamp, so shocked prices still respect the price ceiling).
    pub price_mult: f64,
    /// Advisor-band degradation: the band reads this many steps worse.
    pub band_penalty: u8,
    /// Additive shift of the real-valued placement score before rounding.
    pub placement_delta: f64,
}

impl RegimeDay {
    /// A day the regime leaves untouched.
    pub const NEUTRAL: RegimeDay = RegimeDay {
        hazard_mult: 1.0,
        price_mult: 1.0,
        band_penalty: 0,
        placement_delta: 0.0,
    };
}

/// The per-day regime program of one market build: one [`RegimeDay`] per
/// horizon day, shared by every (region, instance type) state.
///
/// Built once per market from the market's parent RNG via regime-specific
/// fork labels — forks are pure functions of `(seed, label)`, so the
/// baseline streams (band walk, episodes, prices, placements) are never
/// perturbed by the schedule's draws.
#[derive(Debug, Clone, PartialEq)]
pub struct RegimeSchedule {
    days: Box<[RegimeDay]>,
    max_hazard_mult: f64,
}

impl RegimeSchedule {
    /// A schedule leaving every day untouched (the baseline program).
    pub fn neutral(horizon_days: u32) -> Self {
        RegimeSchedule {
            days: vec![RegimeDay::NEUTRAL; (horizon_days as usize).max(1)].into_boxed_slice(),
            max_hazard_mult: 1.0,
        }
    }

    /// Builds the schedule for `regime` over `horizon_days` days, drawing
    /// only from regime-specific forks of `rng` (the market's parent RNG).
    pub fn build(regime: MarketRegime, horizon_days: u32, rng: &SimRng) -> Self {
        let days = (horizon_days as usize).max(1);
        let mut program = vec![RegimeDay::NEUTRAL; days];
        match regime {
            MarketRegime::Baseline => {}
            MarketRegime::CapacityCrunch => {
                // Each week independently has a 25% chance of being a
                // crunch week; crunch intensity reuses the calibrated
                // day-40 crunch surge from `profiles`.
                let mut crunch_rng = rng.fork("regime:crunch");
                let crunch = RegimeDay {
                    hazard_mult: CRUNCH_SURGE.hazard_mult * 1.25,
                    price_mult: (CRUNCH_SURGE.peak_mult + 1.0) / 2.0,
                    band_penalty: 1,
                    placement_delta: -2.0,
                };
                for week in 0..days.div_ceil(7) {
                    if crunch_rng.chance(0.25) {
                        let start = week * 7;
                        for day in program.iter_mut().skip(start).take(7) {
                            *day = crunch;
                        }
                    }
                }
            }
            MarketRegime::CorrelatedShock => {
                // Poisson shock arrivals (mean ~3 weeks apart), each a
                // 2–6 day window where every region's price jumps together
                // and hazard firms up.
                let mut shock_rng = rng.fork("regime:shock");
                let mut t = 0.0_f64;
                loop {
                    t += shock_rng.exponential(1.0 / 21.0);
                    if !t.is_finite() || t >= days as f64 {
                        break;
                    }
                    let len = 2 + shock_rng.pick_index(5); // 2..=6 days
                    let jump = shock_rng.uniform_range(1.5, 2.2);
                    let start = t as usize;
                    let shock = RegimeDay {
                        hazard_mult: 1.6,
                        price_mult: jump,
                        band_penalty: 1,
                        placement_delta: -1.0,
                    };
                    for day in program.iter_mut().skip(start).take(len) {
                        *day = shock;
                    }
                    t = (start + len) as f64;
                }
            }
            MarketRegime::RegimeSwitching => {
                // A Markov chain over REGIME_SEGMENT_DAYS-day segments:
                // calm ↔ crunch ↔ shock with sticky transitions, so the
                // regime holds for whole segments at a time.
                #[derive(Clone, Copy, PartialEq)]
                enum Phase {
                    Calm,
                    Crunch,
                    Shock,
                }
                let mut switch_rng = rng.fork("regime:switch");
                let mut phase = Phase::Calm;
                for seg in 0..days.div_ceil(REGIME_SEGMENT_DAYS) {
                    let day = match phase {
                        Phase::Calm => RegimeDay::NEUTRAL,
                        Phase::Crunch => RegimeDay {
                            hazard_mult: 1.8,
                            price_mult: 1.1,
                            band_penalty: 1,
                            placement_delta: -1.0,
                        },
                        Phase::Shock => RegimeDay {
                            hazard_mult: 1.5,
                            price_mult: 1.6,
                            band_penalty: 0,
                            placement_delta: -0.5,
                        },
                    };
                    let start = seg * REGIME_SEGMENT_DAYS;
                    for d in program.iter_mut().skip(start).take(REGIME_SEGMENT_DAYS) {
                        *d = day;
                    }
                    let roll = switch_rng.uniform();
                    phase = match phase {
                        Phase::Calm if roll < 0.30 => Phase::Crunch,
                        Phase::Calm if roll < 0.45 => Phase::Shock,
                        Phase::Calm => Phase::Calm,
                        Phase::Crunch if roll < 0.50 => Phase::Calm,
                        Phase::Crunch if roll < 0.60 => Phase::Shock,
                        Phase::Crunch => Phase::Crunch,
                        Phase::Shock if roll < 0.60 => Phase::Calm,
                        Phase::Shock if roll < 0.80 => Phase::Crunch,
                        Phase::Shock => Phase::Shock,
                    };
                }
            }
        }
        let max_hazard_mult = program
            .iter()
            .map(|d| d.hazard_mult)
            .fold(1.0_f64, f64::max);
        RegimeSchedule {
            days: program.into_boxed_slice(),
            max_hazard_mult,
        }
    }

    /// The perturbation for day `idx` (clamped to the final day, matching
    /// the market's defensive trailing-index behaviour).
    pub fn day(&self, idx: usize) -> RegimeDay {
        self.days[idx.min(self.days.len() - 1)]
    }

    /// The largest per-day hazard multiplier — the regime term of the
    /// interruption-sampling thinning bound.
    pub fn max_hazard_mult(&self) -> f64 {
        self.max_hazard_mult
    }

    /// Days the regime perturbs (any non-neutral field).
    pub fn perturbed_days(&self) -> usize {
        self.days.iter().filter(|d| **d != RegimeDay::NEUTRAL).count()
    }

    /// Horizon length in days.
    pub fn len_days(&self) -> usize {
        self.days.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parent(seed: u64) -> SimRng {
        SimRng::seed_from_u64(seed).fork("spot-market")
    }

    #[test]
    fn baseline_spec_reproduces_historical_constants() {
        let spec = MarketRegime::Baseline.spec();
        assert_eq!(spec.price_phi, 0.97);
        assert_eq!(spec.price_sigma, 0.022);
        assert_eq!(spec.placement_phi, 0.7);
        assert_eq!(spec.weekday_factor(Weekday::Wednesday), 1.12);
        assert_eq!(spec.weekday_factor(Weekday::Monday), 1.0);
        assert_eq!(spec.weekday_factor(Weekday::Sunday), 0.82);
        assert_eq!(spec.max_weekday_factor(), 1.12);
        assert_eq!(spec.episode_rate_mult, 1.0);
    }

    #[test]
    fn baseline_schedule_is_all_neutral() {
        let s = RegimeSchedule::build(MarketRegime::Baseline, 210, &parent(7));
        assert_eq!(s.perturbed_days(), 0);
        assert_eq!(s.max_hazard_mult(), 1.0);
        assert_eq!(s.len_days(), 210);
        assert_eq!(s, RegimeSchedule::neutral(210));
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        for regime in MarketRegime::ALL {
            let a = RegimeSchedule::build(regime, 210, &parent(42));
            let b = RegimeSchedule::build(regime, 210, &parent(42));
            assert_eq!(a, b, "{regime} must be a pure function of the seed");
        }
        let a = RegimeSchedule::build(MarketRegime::CorrelatedShock, 210, &parent(1));
        let b = RegimeSchedule::build(MarketRegime::CorrelatedShock, 210, &parent(2));
        assert_ne!(a, b, "different seeds give different shock programs");
    }

    #[test]
    fn non_baseline_regimes_perturb_some_days() {
        for regime in [
            MarketRegime::CapacityCrunch,
            MarketRegime::CorrelatedShock,
            MarketRegime::RegimeSwitching,
        ] {
            let perturbed: usize = (0..8)
                .map(|seed| RegimeSchedule::build(regime, 210, &parent(seed)).perturbed_days())
                .sum();
            assert!(perturbed > 0, "{regime} never perturbed any day over 8 seeds");
        }
    }

    #[test]
    fn crunch_weeks_are_whole_weeks() {
        let s = RegimeSchedule::build(MarketRegime::CapacityCrunch, 210, &parent(3));
        for week in 0..30 {
            let days: Vec<bool> = (0..7)
                .map(|d| s.day(week * 7 + d) != RegimeDay::NEUTRAL)
                .collect();
            assert!(
                days.iter().all(|&b| b) || days.iter().all(|&b| !b),
                "week {week} is split: {days:?}"
            );
        }
    }

    #[test]
    fn switching_regime_changes_only_at_segment_boundaries() {
        // The regime's segments stay 14 days whatever layout the lazy
        // tracks fill in; the committed regime-switching goldens depend on it.
        assert_eq!(REGIME_SEGMENT_DAYS, 14);
        let s = RegimeSchedule::build(MarketRegime::RegimeSwitching, 210, &parent(11));
        for seg in 0..(210 / REGIME_SEGMENT_DAYS) {
            let first = s.day(seg * REGIME_SEGMENT_DAYS);
            for d in 0..REGIME_SEGMENT_DAYS {
                assert_eq!(
                    s.day(seg * REGIME_SEGMENT_DAYS + d),
                    first,
                    "segment {seg} not uniform"
                );
            }
        }
    }

    #[test]
    fn regime_names_round_trip() {
        for regime in MarketRegime::ALL {
            assert_eq!(regime.name().parse::<MarketRegime>().unwrap(), regime);
            assert_eq!(regime.to_string(), regime.name());
        }
        assert!("warp-drive".parse::<MarketRegime>().is_err());
        assert_eq!(MarketRegime::default(), MarketRegime::Baseline);
        assert!(MarketRegime::Baseline.is_baseline());
        assert!(!MarketRegime::CapacityCrunch.is_baseline());
    }

    #[test]
    fn max_hazard_mult_bounds_every_day() {
        for regime in MarketRegime::ALL {
            let s = RegimeSchedule::build(regime, 210, &parent(9));
            let max = (0..s.len_days()).map(|i| s.day(i).hazard_mult).fold(0.0, f64::max);
            assert!(s.max_hazard_mult() >= max);
            assert!(s.max_hazard_mult() >= 1.0);
        }
    }
}
