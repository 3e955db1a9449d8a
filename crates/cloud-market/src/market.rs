//! The simulated spot market: deterministic, seeded trajectories of spot
//! prices, Interruption-Frequency bands, Placement Scores, and demand
//! episodes for every (region, instance type) pair.
//!
//! Mechanics (see DESIGN.md §1 and §5):
//!
//! * **Prices** follow a mean-reverting AR(1) process around a slowly
//!   drifting baseline, clamped to stay below the on-demand price.
//! * **Bands** take a small daily Markov walk around each profile's long-run
//!   band (Figure 4a's regional band migrations).
//! * **Placement scores** follow a daily AR(1) around the profile mean.
//! * **Demand episodes** are Poisson-arriving high-demand windows during
//!   which prices rise *and* interruption hazard multiplies — capturing the
//!   real-world correlation that makes cheap, unstable regions expensive in
//!   practice (the effect SpotVerse exploits).
//!
//! Every trajectory is a pure function of the seed, so any strategy run
//! against the same [`MarketConfig`] observes the identical market. Nothing
//! is built before it is queried (DESIGN.md §1 and §13): construction only
//! draws the regime schedule every (region, instance type) shares; each
//! pair's cheap daily band walk runs on its first query; and its
//! trajectories (hourly prices, daily placement scores, demand episodes)
//! materialize on first touch in segments that double in length (1, 1,
//! 2, 4 … 128 days). A run that places one instance type never pays for
//! the other five, a run that reads day 1 pays for two days of one, and a
//! fleet that finishes inside the first month never pays for the
//! remaining months of the horizon.

use std::iter::FusedIterator;
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};

use sim_kernel::{SimDuration, SimRng, SimTime};

use crate::advisor::{InterruptionBand, PlacementScore, StabilityScore};
use crate::instance::InstanceType;
use crate::money::UsdPerHour;
use crate::profiles::{self, MarketProfile};
use crate::regime::{MarketRegime, RegimeSchedule, RegimeSpec};
use crate::region::{AvailabilityZone, Region};

/// Demand-episode parameters for an Interruption-Frequency band.
#[derive(Debug, Clone, Copy, PartialEq)]
struct EpisodeParams {
    per_day: f64,
    mean_hours: f64,
    price_mult: f64,
    hazard_mult: f64,
}

fn episode_params(band: InterruptionBand) -> EpisodeParams {
    match band {
        InterruptionBand::Under5 => EpisodeParams {
            per_day: 0.10,
            mean_hours: 2.0,
            price_mult: 1.20,
            hazard_mult: 4.0,
        },
        InterruptionBand::FiveToTen => EpisodeParams {
            per_day: 0.25,
            mean_hours: 3.0,
            price_mult: 1.30,
            hazard_mult: 4.0,
        },
        InterruptionBand::TenToFifteen => EpisodeParams {
            per_day: 0.40,
            mean_hours: 3.0,
            price_mult: 1.35,
            hazard_mult: 3.5,
        },
        InterruptionBand::FifteenToTwenty => EpisodeParams {
            per_day: 0.50,
            mean_hours: 3.5,
            price_mult: 1.40,
            hazard_mult: 3.0,
        },
        // The worst band's churn is sustained background reclaim pressure,
        // not rare bursts — otherwise migrating price-chasers could dodge
        // it, which the paper's threshold-4 experiment shows they cannot.
        InterruptionBand::Over20 => EpisodeParams {
            per_day: 0.20,
            mean_hours: 2.0,
            price_mult: 1.30,
            hazard_mult: 1.5,
        },
    }
}

/// A day of the simulated week (the simulation epoch falls on a Monday).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Weekday {
    Monday,
    Tuesday,
    Wednesday,
    Thursday,
    Friday,
    Saturday,
    Sunday,
}

impl Weekday {
    /// The weekday containing `at`.
    pub fn of(at: SimTime) -> Weekday {
        match at.as_days() % 7 {
            0 => Weekday::Monday,
            1 => Weekday::Tuesday,
            2 => Weekday::Wednesday,
            3 => Weekday::Thursday,
            4 => Weekday::Friday,
            5 => Weekday::Saturday,
            _ => Weekday::Sunday,
        }
    }

    /// Whether this is a weekend day.
    pub fn is_weekend(self) -> bool {
        matches!(self, Weekday::Saturday | Weekday::Sunday)
    }

    /// The day-of-week interruption-hazard factor (paper §7 observes
    /// weekly usage patterns): mid-week capacity pressure raises reclaim
    /// rates slightly; weekends relax them.
    ///
    /// The constants now live on [`RegimeSpec`]; this is the baseline
    /// regime's view, kept for callers that predate pluggable regimes.
    pub fn hazard_factor(self) -> f64 {
        RegimeSpec::BASELINE.weekday_factor(self)
    }
}

/// Quiet-period hazard such that the *time-averaged* hazard equals the
/// band's calibrated effective hazard (episodes multiply it).
fn quiet_hazard(band: InterruptionBand) -> f64 {
    let p = episode_params(band);
    let f = (p.per_day * p.mean_hours / 24.0).min(0.9);
    band.base_hourly_hazard() / (1.0 - f + p.hazard_mult * f)
}

/// Configuration of a market build.
///
/// `Eq + Hash` so configs can key shared-market caches (every field is
/// integral).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MarketConfig {
    /// The master seed all market streams are forked from.
    pub seed: u64,
    /// Trace horizon in days (experiments must finish inside it).
    pub horizon_days: u32,
    /// The market regime. Defaults to [`MarketRegime::Baseline`], under
    /// which the built market is bit-identical to the pre-regime build.
    pub regime: MarketRegime,
}

impl Default for MarketConfig {
    fn default() -> Self {
        MarketConfig {
            seed: 0,
            horizon_days: 210,
            regime: MarketRegime::Baseline,
        }
    }
}

impl MarketConfig {
    /// A config with the given seed and the default 210-day horizon.
    pub fn with_seed(seed: u64) -> Self {
        MarketConfig {
            seed,
            ..MarketConfig::default()
        }
    }

    /// This config under a different regime.
    #[must_use]
    pub fn with_regime(self, regime: MarketRegime) -> Self {
        MarketConfig { regime, ..self }
    }
}

/// Error returned when querying a market that does not exist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MarketError {
    /// The instance type is not offered in the region.
    Unavailable {
        /// The region queried.
        region: Region,
        /// The instance type queried.
        instance_type: InstanceType,
    },
    /// The queried instant lies beyond the precomputed horizon.
    BeyondHorizon {
        /// The instant queried.
        at: SimTime,
        /// The horizon end.
        horizon: SimTime,
    },
}

impl std::fmt::Display for MarketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MarketError::Unavailable {
                region,
                instance_type,
            } => write!(f, "{instance_type} is not offered in {region}"),
            MarketError::BeyondHorizon { at, horizon } => {
                write!(f, "query at {at} beyond market horizon {horizon}")
            }
        }
    }
}

impl std::error::Error for MarketError {}

/// Length in days of the first lazily-materialized trajectory segment.
///
/// Segments double from there: boundaries fall at days 0, 1, 2, 4, 8,
/// 16, 32, 64 and 128, and the last segment is cut at the horizon (nine
/// segments over the default 210 days). Placement scores and demand
/// episodes fill on these boundaries in days, prices on the same
/// boundaries in hours. A run that reads only day 0 fills one segment per
/// track, one that reads day 1 two, and a month of queries six, so short
/// seeded runs pay for little of the horizon while a whole-horizon run
/// still fills only nine boxes per track.
const FIRST_SEGMENT_DAYS: usize = 1;

/// Segments covering a trajectory of `len` values whose first segment
/// holds `first` (at least one, so an empty horizon still has a segment
/// to count).
fn segment_count(len: usize, first: usize) -> usize {
    segment_of(len.saturating_sub(1), first) + 1
}

/// The segment holding value `idx`: segment `k ≥ 1` covers
/// `[first << (k - 1), first << k)`, so `k` is the bit length of
/// `idx / first`.
fn segment_of(idx: usize, first: usize) -> usize {
    (usize::BITS - (idx / first).leading_zeros()) as usize
}

/// The first value of segment `seg` (0 for segment 0).
fn segment_start(seg: usize, first: usize) -> usize {
    first * ((1 << seg) >> 1)
}

/// A sequential trajectory generator: each call produces the segment
/// covering the next span of units (days or hours), advancing internal
/// state (RNG stream position, process carry) so successive calls chain
/// into one continuous sequence — the key to lazy segments staying
/// bit-identical to a single eager front-to-back pass.
trait SegmentGen: std::fmt::Debug + Send {
    /// The element type of the generated sequence.
    type Item: Copy + Send + Sync + PartialEq + std::fmt::Debug;
    /// The segment covering `span`, which starts where the previous
    /// call's span ended.
    fn fill(&mut self, span: Range<usize>) -> Box<[Self::Item]>;
}

/// One lazily-materialized trajectory: segments covering doubling spans
/// of units (see [`FIRST_SEGMENT_DAYS`]) are produced on first touch.
/// Segments always fill front-to-back with the generator state chained
/// across boundaries, so any query order yields exactly the values an
/// eager build would have precomputed. Reads of filled segments are
/// lock-free; the generator lock is held only while filling.
///
/// A price or placement segment holds one value per unit; a demand-episode
/// segment holds the windows its days need (see [`EpisodeGen`]).
#[derive(Debug)]
struct LazyTrack<G: SegmentGen> {
    /// Units covered (days or hours).
    len: usize,
    /// Units in segment 0; segment `k ≥ 1` covers `first << (k - 1)`.
    first: usize,
    segments: Box<[Segment<G::Item>]>,
    /// Next segment index to fill, plus the chained generator state.
    gen: Mutex<(usize, G)>,
}

/// One once-filled slice of a [`LazyTrack`].
type Segment<T> = OnceLock<Box<[T]>>;

impl<G: SegmentGen> LazyTrack<G> {
    fn new(len: usize, first: usize, gen: G) -> Self {
        LazyTrack {
            len,
            first,
            segments: (0..segment_count(len, first)).map(|_| OnceLock::new()).collect(),
            gen: Mutex::new((0, gen)),
        }
    }

    /// The value at unit `idx` of a one-value-per-unit track, clamped to
    /// the final unit (callers have already horizon-checked; the clamp
    /// mirrors the defensive indexing of the old precomputed vectors).
    fn get(&self, idx: usize) -> G::Item {
        let idx = idx.min(self.len - 1);
        let seg = segment_of(idx, self.first);
        self.segment(seg)[idx - segment_start(seg, self.first)]
    }

    /// Segment `seg`, filling it and every unfilled one before it first.
    fn segment(&self, seg: usize) -> &[G::Item] {
        if let Some(s) = self.segments[seg].get() {
            return s;
        }
        self.fill_through(seg);
        self.segments[seg].get().expect("filled above")
    }

    /// Fills every unfilled segment up to and including `seg`, in order.
    #[cold]
    fn fill_through(&self, seg: usize) {
        let mut guard = self.gen.lock().expect("lazy-track generator poisoned");
        let (next, gen) = &mut *guard;
        while *next <= seg {
            let start = segment_start(*next, self.first);
            let end = segment_start(*next + 1, self.first).min(self.len);
            self.segments[*next]
                .set(gen.fill(start..end))
                .expect("segment filled twice");
            *next += 1;
        }
    }

    /// Materializes the whole trajectory (one front-to-back generator
    /// pass when nothing is filled yet — the old eager build).
    fn force_all(&self) {
        self.fill_through(self.segments.len() - 1);
    }

    /// `(filled, total)` segment counts.
    fn segments_filled(&self) -> (usize, usize) {
        let filled = self.segments.iter().filter(|s| s.get().is_some()).count();
        (filled, self.segments.len())
    }
}

/// Logical equality: the same segments, forcing materialization of both
/// sides. Used by determinism tests comparing lazy and eager builds.
impl<G: SegmentGen> PartialEq for LazyTrack<G> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && (0..self.segments.len()).all(|k| self.segment(k) == other.segment(k))
    }
}

/// Daily placement-score AR(1) walk around the profile mean.
#[derive(Debug)]
struct PlacementGen {
    rng: SimRng,
    mean: f64,
    sigma: f64,
    phi: f64,
    deviation: f64,
    schedule: Arc<RegimeSchedule>,
}

impl SegmentGen for PlacementGen {
    type Item = PlacementScore;

    fn fill(&mut self, days: Range<usize>) -> Box<[PlacementScore]> {
        days.map(|day| {
            self.deviation = self.phi * self.deviation + self.rng.normal(0.0, self.sigma);
            let delta = self.schedule.day(day).placement_delta;
            PlacementScore::from_f64_clamped(self.mean + self.deviation + delta)
        })
        .collect()
    }
}

/// One demand-episode window, `[start, end)`.
type Window = (SimTime, SimTime);

/// The Poisson episode arrivals of one market, one raw (unmerged) window
/// per draw, in the order the eager loop drew them.
#[derive(Debug)]
struct EpisodeDraws {
    rng: SimRng,
    rate_per_hour: f64,
    mean_hours: f64,
    horizon_hours: f64,
    t_hours: f64,
}

impl Iterator for EpisodeDraws {
    type Item = Window;

    fn next(&mut self) -> Option<Window> {
        self.t_hours += self.rng.exponential(self.rate_per_hour);
        if !self.t_hours.is_finite() || self.t_hours >= self.horizon_hours {
            return None;
        }
        let duration = self.rng.exponential(1.0 / self.mean_hours).clamp(0.5, 12.0);
        let start = SimTime::from_secs((self.t_hours * 3600.0) as u64);
        let end_hours = (self.t_hours + duration).min(self.horizon_hours);
        self.t_hours = end_hours;
        Some((start, SimTime::from_secs((end_hours * 3600.0) as u64)))
    }
}

/// `t_hours` never decreases, so once a draw passes the horizon (or is
/// not finite) every later one does too.
impl FusedIterator for EpisodeDraws {}

/// Sorted, disjoint demand-episode windows, drawn lazily in day segments.
///
/// Each segment holds the last window begun before it (the carry-in,
/// which may still be running) followed by every window that begins in
/// its days, so the windows a read at any instant of those days needs lie
/// in one slice. Overlapping draws merge exactly as the eager loop merged
/// them: the generator holds its last window until a draw can no longer
/// merge into it, even when that draw begins in a later segment.
#[derive(Debug)]
struct EpisodeGen<D> {
    draws: D,
    /// The last window drawn, which the next draw may still extend.
    held: Option<Window>,
    /// The last window handed out: the next segment's carry-in.
    carry: Option<Window>,
    /// Reused scratch for the segment being filled.
    buf: Vec<Window>,
}

impl<D> EpisodeGen<D> {
    fn new(draws: D) -> Self {
        EpisodeGen { draws, held: None, carry: None, buf: Vec::new() }
    }
}

impl<D> SegmentGen for EpisodeGen<D>
where
    D: FusedIterator<Item = Window> + std::fmt::Debug + Send,
{
    type Item = Window;

    fn fill(&mut self, days: Range<usize>) -> Box<[Window]> {
        let end = SimTime::from_days(days.end as u64);
        self.buf.clear();
        self.buf.extend(self.carry);
        // Every window begun before `end` is final once the held window
        // begins at or past `end`, or the draws run out.
        while self.held.is_none_or(|(start, _)| start < end) {
            let Some(draw) = self.draws.next() else {
                self.buf.extend(self.held.take());
                break;
            };
            match &mut self.held {
                Some(held) if held.1 >= draw.0 => held.1 = held.1.max(draw.1),
                held => self.buf.extend(held.replace(draw)),
            }
        }
        self.carry = self.buf.last().copied();
        self.buf.as_slice().into()
    }
}

impl<D> LazyTrack<EpisodeGen<D>>
where
    EpisodeGen<D>: SegmentGen<Item = Window>,
{
    /// Whether `at` lies inside a demand-episode window: one lock-free
    /// search of the segment holding `at`'s day, once it is filled.
    fn in_episode(&self, at: SimTime) -> bool {
        let day = (at.as_days() as usize).min(self.len - 1);
        let windows = self.segment(segment_of(day, self.first));
        let idx = windows.partition_point(|&(s, _)| s <= at);
        idx > 0 && at < windows[idx - 1].1
    }
}

/// The lazily-drawn demand episodes of one market.
type EpisodeTrack = LazyTrack<EpisodeGen<EpisodeDraws>>;

/// Hourly mean-reverting price process (episode multiplier baked in,
/// clamped below on-demand).
#[derive(Debug)]
struct PriceGen {
    rng: SimRng,
    profile: MarketProfile,
    /// Read, and drawn on demand, under this track's lock.
    episodes: Arc<EpisodeTrack>,
    od: f64,
    price_mult: f64,
    phi: f64,
    sigma: f64,
    schedule: Arc<RegimeSchedule>,
    hours_total: usize,
    x: f64,
}

impl SegmentGen for PriceGen {
    type Item = f64;

    fn fill(&mut self, hours: Range<usize>) -> Box<[f64]> {
        hours
            .map(|h| {
                self.x = self.phi * self.x + self.rng.normal(0.0, self.sigma);
                let frac = h as f64 / self.hours_total.max(1) as f64;
                let day = h as f64 / 24.0;
                let surge_mult = self.profile.surge_price_factor(day);
                let base = self.profile.spot_base_at(frac).rate() * surge_mult;
                let mid = SimTime::from_secs(h as u64 * 3600 + 1800);
                let mult = if self.episodes.in_episode(mid) { self.price_mult } else { 1.0 };
                // Regime price jumps multiply before the on-demand clamp, so
                // shocked prices still respect the ceiling. Baseline is the
                // neutral schedule: multiplying by exactly 1.0 is bit-exact.
                let regime_mult = self.schedule.day(h / 24).price_mult;
                (base * (1.0 + self.x).max(0.3) * mult * regime_mult)
                    .clamp(0.15 * self.od, self.od)
            })
            .collect()
    }
}

/// One (region, instance type) market's trajectory. The daily band walk
/// and the hazard thinning bound derived from it are built eagerly; the
/// hourly prices, daily placement scores and demand episodes materialize
/// lazily per segment.
#[derive(Debug)]
struct MarketState {
    profile: MarketProfile,
    /// Band per day.
    daily_band: Vec<InterruptionBand>,
    /// Placement score per day, lazily materialized.
    daily_placement: LazyTrack<PlacementGen>,
    /// Spot price per hour, lazily materialized.
    hourly_price: LazyTrack<PriceGen>,
    /// Demand-episode windows, lazily drawn (shared with the price track).
    episodes: Arc<EpisodeTrack>,
    /// Maximum instantaneous hazard over the horizon (thinning bound).
    max_hazard: f64,
    /// The regime's static generator calibration.
    spec: RegimeSpec,
    /// The per-day regime program, shared across every state of a market.
    schedule: Arc<RegimeSchedule>,
}

impl PartialEq for MarketState {
    fn eq(&self, other: &Self) -> bool {
        self.profile == other.profile
            && self.daily_band == other.daily_band
            && self.daily_placement == other.daily_placement
            && self.hourly_price == other.hourly_price
            && self.episodes == other.episodes
            && self.max_hazard == other.max_hazard
            && self.spec == other.spec
            && self.schedule == other.schedule
    }
}

impl MarketState {
    fn build(
        profile: MarketProfile,
        horizon_days: u32,
        rng: &SimRng,
        spec: RegimeSpec,
        schedule: Arc<RegimeSchedule>,
    ) -> Self {
        let days = horizon_days as usize;
        let hours = days * 24;
        let region = profile.region();
        let itype = profile.instance_type();
        let fork = |stream: &str| rng.fork_parts(&[stream, region.name(), "/", itype.name()]);

        // --- Band walk -----------------------------------------------------
        // m5.xlarge (the Table-3 instance type) advertises very sticky
        // advisor data; other types' bands migrate more visibly
        // (Figure 4a/4b's fluctuations).
        let (excursion_p, return_p) = if itype == InstanceType::M5Xlarge {
            (0.015, 0.8)
        } else {
            (0.05, 0.5)
        };
        let mut band_rng = fork("band:");
        let base_band = profile.base_band();
        let mut daily_band = Vec::with_capacity(days);
        let mut band = base_band;
        for _ in 0..days {
            daily_band.push(band);
            // Pull toward the base band, with small random excursions.
            if band != base_band && band_rng.chance(return_p) {
                band = if band > base_band { band.better() } else { band.worse() };
            } else if band_rng.chance(excursion_p) {
                band = band.worse();
            } else if band_rng.chance(excursion_p) {
                band = band.better();
            }
        }

        // --- Placement-score walk (daily AR(1), lazily materialized) -------
        let placement_sigma = if itype == InstanceType::M5Xlarge { 0.10 } else { 0.30 };
        let daily_placement = LazyTrack::new(
            days,
            FIRST_SEGMENT_DAYS,
            PlacementGen {
                rng: fork("placement:"),
                mean: profile.placement_mean(),
                sigma: placement_sigma,
                phi: spec.placement_phi,
                deviation: 0.0,
                schedule: Arc::clone(&schedule),
            },
        );

        // --- Demand episodes (lazily drawn) --------------------------------
        // Episode arrival rate depends on the long-run band; the daily band
        // walk only modulates hazard, not episode arrivals, which keeps the
        // draws a single front-to-back pass.
        let params = episode_params(base_band);
        let episodes = Arc::new(LazyTrack::new(
            days,
            FIRST_SEGMENT_DAYS,
            EpisodeGen::new(EpisodeDraws {
                rng: fork("episodes:"),
                rate_per_hour: params.per_day * spec.episode_rate_mult / 24.0,
                mean_hours: params.mean_hours,
                horizon_hours: hours as f64,
                t_hours: 0.0,
            }),
        ));

        // --- Hourly price process (lazily materialized) --------------------
        let hourly_price = LazyTrack::new(
            hours,
            FIRST_SEGMENT_DAYS * 24,
            PriceGen {
                rng: fork("price:"),
                od: profiles::on_demand_price(region, itype).rate(),
                price_mult: params.price_mult,
                phi: spec.price_phi,
                sigma: spec.price_sigma,
                schedule: Arc::clone(&schedule),
                episodes: Arc::clone(&episodes),
                profile: profile.clone(),
                hours_total: hours,
                x: 0.0,
            },
        );

        // --- Thinning bound -------------------------------------------------
        let max_band_hazard = daily_band
            .iter()
            .map(|b| quiet_hazard(*b) * episode_params(*b).hazard_mult)
            .fold(0.0_f64, f64::max);
        let max_surge = profile.max_surge_hazard_factor();
        // The spec's largest weekday factor (baseline: 1.12) and the
        // schedule's largest per-day multiplier (baseline: 1.0) bound the
        // weekly and regime terms.
        let max_hazard = max_band_hazard
            * profile.hazard_scale()
            * max_surge
            * spec.max_weekday_factor()
            * schedule.max_hazard_mult();

        MarketState {
            profile,
            daily_band,
            daily_placement,
            hourly_price,
            episodes,
            max_hazard,
            spec,
            schedule,
        }
    }

    fn hazard_at(&self, at: SimTime) -> f64 {
        let day = (at.as_days() as usize).min(self.daily_band.len().saturating_sub(1));
        let band = self.daily_band[day];
        let surge = self
            .profile
            .surge_hazard_factor(at.as_secs() as f64 / 86_400.0);
        let weekly = self.spec.weekday_factor(Weekday::of(at));
        // The regime multiplier is exactly 1.0 on every baseline day, so
        // the baseline hazard stays bit-identical to the pre-regime form.
        let regime = self.schedule.day(day).hazard_mult;
        let quiet = quiet_hazard(band) * self.profile.hazard_scale() * surge * weekly * regime;
        if self.episodes.in_episode(at) {
            quiet * episode_params(band).hazard_mult
        } else {
            quiet
        }
    }

    /// The advisor's view of the band on `day`: the market's band walk
    /// degraded by the regime's band penalty (capacity crunches shrink
    /// advertised bands; `worse()` saturates at the worst band).
    fn advisor_band(&self, day: usize) -> InterruptionBand {
        let day = day.min(self.daily_band.len() - 1);
        let mut band = self.daily_band[day];
        for _ in 0..self.schedule.day(day).band_penalty {
            band = band.worse();
        }
        band
    }
}

/// The simulated multi-region spot market.
///
/// # Examples
///
/// ```
/// use cloud_market::{InstanceType, MarketConfig, Region, SpotMarket};
/// use sim_kernel::SimTime;
///
/// let market = SpotMarket::new(MarketConfig::with_seed(42));
/// let price = market
///     .spot_price(Region::CaCentral1, InstanceType::M5Xlarge, SimTime::ZERO)
///     .unwrap();
/// let od = market.on_demand_price(Region::CaCentral1, InstanceType::M5Xlarge);
/// assert!(price < od);
/// ```
#[derive(Debug)]
pub struct SpotMarket {
    config: MarketConfig,
    horizon: SimTime,
    /// The `"spot-market"` stream every state's streams fork from.
    rng: SimRng,
    /// The regime's static generator calibration.
    spec: RegimeSpec,
    /// The per-day regime program every state shares.
    schedule: Arc<RegimeSchedule>,
    /// Whether each (region, instance type) is offered, indexed
    /// `[region as usize][instance_type as usize]`.
    offered: [[bool; InstanceType::ALL.len()]; Region::ALL.len()],
    /// The market of each offered (region, instance type), indexed like
    /// `offered` and built on its first query.
    states: [[OnceLock<MarketState>; InstanceType::ALL.len()]; Region::ALL.len()],
    /// Regions offering each instance type, in catalog order, indexed by
    /// `instance_type as usize` (precomputed so the hot
    /// `regions_offering` query is allocation-free).
    offerings: [Vec<Region>; InstanceType::ALL.len()],
}

/// Logical equality: the same config and the same values in every offered
/// state, building and materializing both sides the way `LazyTrack`'s
/// equality does. Used by determinism tests comparing lazy and eager
/// builds.
impl PartialEq for SpotMarket {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
            && self.horizon == other.horizon
            && self.offered == other.offered
            && self.offerings == other.offerings
            && self.offered_states().eq(other.offered_states())
    }
}

impl SpotMarket {
    /// Builds the market. Construction only draws the regime schedule;
    /// each (region, instance type) state walks its cheap daily band on
    /// its first query, and its hourly price, daily placement and
    /// demand-episode trajectories materialize on first touch in segments
    /// that double in length (1, 1, 2, 4 … 128 days). Both stay
    /// bit-identical to the eager reference build
    /// ([`SpotMarket::new_eager`]): every state's streams are forks of one
    /// parent stream, and a fork is a pure function of `(seed, label)`, so
    /// the order states are built in cannot change a value; segments fill
    /// front-to-back with chained generator state.
    pub fn new(config: MarketConfig) -> Self {
        let rng = SimRng::seed_from_u64(config.seed).fork("spot-market");
        // One schedule per market, built from the same parent RNG through
        // regime-specific fork labels (fork is a pure function of
        // `(seed, label)`, so baseline streams are untouched) and shared
        // by every (region, instance type) state — shared application is
        // what makes regime shocks cross-region correlated.
        let schedule = Arc::new(RegimeSchedule::build(config.regime, config.horizon_days, &rng));
        let offered = Region::ALL.map(|r| InstanceType::ALL.map(|t| profiles::is_offered(r, t)));
        let offerings = InstanceType::ALL.map(|itype| {
            Region::ALL
                .into_iter()
                .filter(|&r| offered[r as usize][itype as usize])
                .collect()
        });
        SpotMarket {
            config,
            horizon: SimTime::from_days(u64::from(config.horizon_days)),
            rng,
            spec: config.regime.spec(),
            schedule,
            offered,
            states: Default::default(),
            offerings,
        }
    }

    /// The reference construction: builds every offered state and
    /// materializes every trajectory up front in one front-to-back pass —
    /// exactly the old eager precompute. Equivalence tests compare lazy
    /// markets, queried in arbitrary orders, against this.
    pub fn new_eager(config: MarketConfig) -> Self {
        let market = Self::new(config);
        for state in market.offered_states() {
            state.episodes.force_all();
            state.daily_placement.force_all();
            state.hourly_price.force_all();
        }
        market
    }

    /// The configuration the market was built from.
    pub fn config(&self) -> MarketConfig {
        self.config
    }

    /// The regime the market was built under.
    pub fn regime(&self) -> MarketRegime {
        self.config.regime
    }

    /// The end of the precomputed horizon.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Regions where `instance_type` is offered, in catalog order.
    ///
    /// Precomputed at construction; this is on the Monitor's collection
    /// hot path, so it must not allocate.
    pub fn regions_offering(&self, instance_type: InstanceType) -> &[Region] {
        &self.offerings[instance_type as usize]
    }

    /// Whether `instance_type` is offered in `region`.
    pub fn is_available(&self, region: Region, instance_type: InstanceType) -> bool {
        self.offered[region as usize][instance_type as usize]
    }

    /// `(filled, total)` price and placement segment counts summed across
    /// every offered (region, instance type) market — how much of the
    /// horizon has actually been paid for. Benches and tests use this to
    /// assert that short experiments leave most of the market
    /// unmaterialized. A state not yet built has filled none of its
    /// segments; the total counts every offered state, built or not.
    /// Demand-episode segments, which hold a few windows each, are not
    /// counted.
    pub fn materialized_segments(&self) -> (usize, usize) {
        let filled = self.states.iter().flatten().filter_map(OnceLock::get).fold(0, |n, s| {
            n + s.daily_placement.segments_filled().0 + s.hourly_price.segments_filled().0
        });
        let days = self.config.horizon_days as usize;
        let per_state = segment_count(days, FIRST_SEGMENT_DAYS)
            + segment_count(days * 24, FIRST_SEGMENT_DAYS * 24);
        let offered = self.offered.iter().flatten().filter(|&&o| o).count();
        (filled, offered * per_state)
    }

    /// Every offered state, building those not yet built.
    fn offered_states(&self) -> impl Iterator<Item = &MarketState> {
        Region::ALL.into_iter().flat_map(move |r| {
            InstanceType::ALL.into_iter().filter_map(move |t| self.state(r, t).ok())
        })
    }

    /// The state of `(region, instance_type)`, built on its first query.
    fn state(
        &self,
        region: Region,
        instance_type: InstanceType,
    ) -> Result<&MarketState, MarketError> {
        if !self.is_available(region, instance_type) {
            return Err(MarketError::Unavailable {
                region,
                instance_type,
            });
        }
        Ok(self.states[region as usize][instance_type as usize].get_or_init(|| {
            MarketState::build(
                profiles::profile(region, instance_type),
                self.config.horizon_days,
                &self.rng,
                self.spec,
                Arc::clone(&self.schedule),
            )
        }))
    }

    fn check_horizon(&self, at: SimTime) -> Result<(), MarketError> {
        if at >= self.horizon {
            Err(MarketError::BeyondHorizon {
                at,
                horizon: self.horizon,
            })
        } else {
            Ok(())
        }
    }

    /// The spot price at an instant.
    ///
    /// # Errors
    ///
    /// Returns [`MarketError::Unavailable`] if the type is not offered in the
    /// region and [`MarketError::BeyondHorizon`] past the trace horizon.
    pub fn spot_price(
        &self,
        region: Region,
        instance_type: InstanceType,
        at: SimTime,
    ) -> Result<UsdPerHour, MarketError> {
        self.check_horizon(at)?;
        let state = self.state(region, instance_type)?;
        let hour = (at.as_secs() / 3600) as usize;
        Ok(UsdPerHour::new(state.hourly_price.get(hour)))
    }

    /// The spot price in a specific availability zone: the regional price
    /// with a small deterministic per-AZ offset (Figure 2's AZ diversity).
    ///
    /// # Errors
    ///
    /// Same as [`SpotMarket::spot_price`].
    pub fn spot_price_az(
        &self,
        az: AvailabilityZone,
        instance_type: InstanceType,
        at: SimTime,
    ) -> Result<UsdPerHour, MarketError> {
        let regional = self.spot_price(az.region(), instance_type, at)?;
        // Deterministic AZ spread: fixed offset plus a slow phase-shifted
        // wobble, within ±7% of the regional price.
        let k = f64::from(az.index()) + 1.0;
        let fixed = 0.03 * (k * 2.399).sin();
        let day = at.as_secs() as f64 / 86_400.0;
        let wobble = 0.04 * ((day / 9.0 + k * 1.7).sin());
        let od = profiles::on_demand_price(az.region(), instance_type).rate();
        Ok(UsdPerHour::new(
            (regional.rate() * (1.0 + fixed + wobble)).clamp(0.1 * od, od),
        ))
    }

    /// The on-demand price (fixed over time).
    pub fn on_demand_price(&self, region: Region, instance_type: InstanceType) -> UsdPerHour {
        profiles::on_demand_price(region, instance_type)
    }

    /// The Interruption-Frequency band on the day containing `at`.
    ///
    /// # Errors
    ///
    /// Same as [`SpotMarket::spot_price`].
    pub fn interruption_band(
        &self,
        region: Region,
        instance_type: InstanceType,
        at: SimTime,
    ) -> Result<InterruptionBand, MarketError> {
        self.check_horizon(at)?;
        let state = self.state(region, instance_type)?;
        Ok(state.advisor_band(at.as_days() as usize))
    }

    /// The Stability Score (derived from the band) at `at`.
    ///
    /// # Errors
    ///
    /// Same as [`SpotMarket::spot_price`].
    pub fn stability_score(
        &self,
        region: Region,
        instance_type: InstanceType,
        at: SimTime,
    ) -> Result<StabilityScore, MarketError> {
        Ok(self.interruption_band(region, instance_type, at)?.stability_score())
    }

    /// The Spot Placement Score at `at`.
    ///
    /// # Errors
    ///
    /// Same as [`SpotMarket::spot_price`].
    pub fn placement_score(
        &self,
        region: Region,
        instance_type: InstanceType,
        at: SimTime,
    ) -> Result<PlacementScore, MarketError> {
        self.check_horizon(at)?;
        let state = self.state(region, instance_type)?;
        Ok(state.daily_placement.get(at.as_days() as usize))
    }

    /// The instantaneous interruption hazard (events per instance-hour).
    ///
    /// # Errors
    ///
    /// Same as [`SpotMarket::spot_price`].
    pub fn hazard_rate(
        &self,
        region: Region,
        instance_type: InstanceType,
        at: SimTime,
    ) -> Result<f64, MarketError> {
        self.check_horizon(at)?;
        Ok(self.state(region, instance_type)?.hazard_at(at))
    }

    /// Whether a demand episode is in progress at `at`.
    ///
    /// # Errors
    ///
    /// Same as [`SpotMarket::spot_price`].
    pub fn in_demand_episode(
        &self,
        region: Region,
        instance_type: InstanceType,
        at: SimTime,
    ) -> Result<bool, MarketError> {
        self.check_horizon(at)?;
        Ok(self.state(region, instance_type)?.episodes.in_episode(at))
    }

    /// Samples the delay until the next interruption for an instance started
    /// at `start`, or `None` if no interruption occurs before the horizon.
    ///
    /// Uses thinning over the piecewise-constant hazard, so clustered
    /// episode interruptions emerge naturally.
    ///
    /// # Errors
    ///
    /// Same as [`SpotMarket::spot_price`].
    pub fn sample_interruption_delay(
        &self,
        region: Region,
        instance_type: InstanceType,
        start: SimTime,
        rng: &mut SimRng,
    ) -> Result<Option<SimDuration>, MarketError> {
        self.sample_interruption_delay_scaled(region, instance_type, start, 1.0, rng)
    }

    /// Like [`SpotMarket::sample_interruption_delay`], with an extra caller
    /// hazard multiplier — used by the compute layer to model *crowding*
    /// (many of the caller's own instances concentrated in one market raise
    /// the marginal reclaim risk; paper §5.2.3's initial-distribution
    /// effect).
    ///
    /// # Errors
    ///
    /// Same as [`SpotMarket::spot_price`].
    ///
    /// # Panics
    ///
    /// Panics if `hazard_multiplier` is negative or not finite.
    pub fn sample_interruption_delay_scaled(
        &self,
        region: Region,
        instance_type: InstanceType,
        start: SimTime,
        hazard_multiplier: f64,
        rng: &mut SimRng,
    ) -> Result<Option<SimDuration>, MarketError> {
        assert!(
            hazard_multiplier.is_finite() && hazard_multiplier >= 0.0,
            "invalid hazard multiplier {hazard_multiplier}"
        );
        self.check_horizon(start)?;
        let state = self.state(region, instance_type)?;
        let lambda_max = state.max_hazard * hazard_multiplier;
        if lambda_max <= 0.0 {
            return Ok(None);
        }
        let mut t_hours = start.as_secs() as f64 / 3600.0;
        let horizon_hours = self.horizon.as_secs() as f64 / 3600.0;
        loop {
            t_hours += rng.exponential(lambda_max);
            if t_hours >= horizon_hours {
                return Ok(None);
            }
            let at = SimTime::from_secs((t_hours * 3600.0) as u64);
            let accept_p = state.hazard_at(at) * hazard_multiplier / lambda_max;
            if rng.chance(accept_p) {
                return Ok(Some(at.saturating_duration_since(start).max(SimDuration::from_secs(1))));
            }
        }
    }

    /// Whether a spot request placed at `at` is fulfilled on this attempt,
    /// as a Bernoulli draw from the placement score.
    ///
    /// # Errors
    ///
    /// Same as [`SpotMarket::spot_price`].
    pub fn try_fulfill(
        &self,
        region: Region,
        instance_type: InstanceType,
        at: SimTime,
        rng: &mut SimRng,
    ) -> Result<bool, MarketError> {
        let score = self.placement_score(region, instance_type, at)?;
        Ok(rng.chance(score.fulfill_probability()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn market() -> SpotMarket {
        SpotMarket::new(MarketConfig::with_seed(7))
    }

    /// The (region, instance type) pairs whose state has been built.
    fn built(m: &SpotMarket) -> Vec<(Region, InstanceType)> {
        Region::ALL
            .into_iter()
            .flat_map(|r| InstanceType::ALL.map(|t| (r, t)))
            .filter(|&(r, t)| m.states[r as usize][t as usize].get().is_some())
            .collect()
    }

    #[test]
    fn construction_builds_no_state() {
        let m = market();
        assert!(built(&m).is_empty());
        assert_eq!(m.regions_offering(InstanceType::M5Xlarge).len(), 12);
        assert!(built(&m).is_empty(), "offering lookups must not build states");
    }

    #[test]
    fn a_query_builds_exactly_its_own_state() {
        let m = market();
        m.spot_price(Region::EuWest1, InstanceType::C52xlarge, SimTime::from_days(3))
            .unwrap();
        assert_eq!(built(&m), [(Region::EuWest1, InstanceType::C52xlarge)]);
        m.hazard_rate(Region::EuWest1, InstanceType::C52xlarge, SimTime::from_days(90))
            .unwrap();
        assert_eq!(built(&m), [(Region::EuWest1, InstanceType::C52xlarge)]);
    }

    #[test]
    fn an_unoffered_pair_is_unavailable_and_builds_nothing() {
        let m = market();
        let err = m
            .spot_price(Region::ApNortheast3, InstanceType::P32xlarge, SimTime::ZERO)
            .unwrap_err();
        assert_eq!(
            err,
            MarketError::Unavailable {
                region: Region::ApNortheast3,
                instance_type: InstanceType::P32xlarge,
            }
        );
        assert!(built(&m).is_empty());
    }

    #[test]
    fn the_horizon_check_precedes_the_offering_check() {
        let m = market();
        let past = m.horizon();
        for (region, itype) in [
            (Region::ApNortheast3, InstanceType::P32xlarge),
            (Region::UsEast1, InstanceType::M5Xlarge),
        ] {
            let err = m.spot_price(region, itype, past).unwrap_err();
            assert_eq!(err, MarketError::BeyondHorizon { at: past, horizon: past });
        }
        assert!(built(&m).is_empty());
    }

    #[test]
    fn the_segment_total_counts_unbuilt_states() {
        // 69 offered pairs (72 less three p3.2xlarge gaps), each with 9
        // placement and 9 price segments over the 210-day horizon.
        let m = market();
        assert_eq!(m.materialized_segments(), (0, 1_242));
        // Day 20 lies in the segment from day 16, the sixth.
        m.placement_score(Region::UsWest1, InstanceType::M5Xlarge, SimTime::from_days(20))
            .unwrap();
        assert_eq!(m.materialized_segments(), (6, 1_242));
        let eager = SpotMarket::new_eager(MarketConfig::with_seed(7));
        assert_eq!(eager.materialized_segments(), (1_242, 1_242));
        assert_eq!(built(&eager).len(), 69);
    }

    /// The length of each segment of `track`, 0 where unfilled.
    fn filled<G: SegmentGen>(track: &LazyTrack<G>) -> Vec<usize> {
        track.segments.iter().map(|s| s.get().map_or(0, |b| b.len())).collect()
    }

    #[test]
    fn segments_double_from_one_day_and_stop_at_the_horizon() {
        let starts: Vec<usize> = (0..9).map(|k| segment_start(k, FIRST_SEGMENT_DAYS)).collect();
        assert_eq!(starts, [0, 1, 2, 4, 8, 16, 32, 64, 128]);
        for (days, count) in
            [(0, 1), (1, 1), (2, 2), (3, 3), (4, 3), (5, 4), (8, 4), (9, 5), (130, 9), (210, 9)]
        {
            assert_eq!(segment_count(days, FIRST_SEGMENT_DAYS), count, "{days} days");
        }

        // A run that reads day 1 fills the first two boxes of each track:
        // 2 placement days and 48 price hours.
        let m = market();
        let (region, itype) = (Region::UsEast1, InstanceType::M5Xlarge);
        let t = SimTime::from_days(1) + SimDuration::from_hours(23);
        m.spot_price(region, itype, t).unwrap();
        m.placement_score(region, itype, t).unwrap();
        let state = m.state(region, itype).unwrap();
        assert_eq!(filled(&state.daily_placement), [1, 1, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(filled(&state.hourly_price), [24, 24, 0, 0, 0, 0, 0, 0, 0]);
        let episode_segments = filled(&state.episodes);
        assert!(episode_segments[2..].iter().all(|&n| n == 0), "{episode_segments:?}");

        // The last segment is cut at the 210-day horizon.
        state.daily_placement.force_all();
        state.hourly_price.force_all();
        assert_eq!(filled(&state.daily_placement), [1, 1, 2, 4, 8, 16, 32, 64, 82]);
        assert_eq!(
            filled(&state.hourly_price),
            [24, 24, 48, 96, 192, 384, 768, 1_536, 1_968]
        );
    }

    /// Merges raw episode draws the way the eager build's single loop did.
    fn merge_eagerly(draws: &[Window]) -> Vec<Window> {
        let mut windows: Vec<Window> = Vec::new();
        for &(start, end) in draws {
            match windows.last_mut() {
                Some(last) if last.1 >= start => last.1 = last.1.max(end),
                _ => windows.push((start, end)),
            }
        }
        windows
    }

    #[test]
    fn lazy_episodes_match_the_eager_merge_at_every_boundary_second() {
        let at = |day: u64, mins: u64| SimTime::from_days(day) + SimDuration::from_mins(mins);
        // Over 8 days the segments start at days 0, 1, 2 and 4.
        let draws = [
            // Begins in segment 0 and runs through all of segment 1 into
            // segment 2: the carry-in of both.
            (at(0, 720), at(2, 360)),
            // Begins in segment 2 and ends in segment 3, where the next
            // two draws begin at its end and merge into it.
            (at(3, 1_200), at(4, 120)),
            (at(4, 120), at(4, 300)),
            (at(4, 300), at(5, 0)),
            // Two overlapping draws inside segment 3.
            (at(6, 0), at(6, 60)),
            (at(6, 30), at(6, 180)),
        ];
        let eager = merge_eagerly(&draws);
        assert_eq!(eager.len(), 3, "{eager:?}");
        let expected = |t: SimTime| eager.iter().any(|&(s, e)| s <= t && t < e);
        let track = || LazyTrack::new(8, FIRST_SEGMENT_DAYS, EpisodeGen::new(draws.into_iter()));
        let mut boundaries: Vec<SimTime> = [1, 2, 4].map(|d| at(d, 0)).to_vec();
        boundaries.extend(eager.iter().flat_map(|&(s, e)| [s, e]));
        boundaries.sort();
        // Front to back, then from the last boundary first (cold segments
        // fill behind it).
        for order in [boundaries.clone(), boundaries.iter().rev().copied().collect()] {
            let lazy = track();
            for &b in &order {
                let from = b.as_secs().saturating_sub(3_600);
                for t in (from..b.as_secs() + 3_600).map(SimTime::from_secs) {
                    assert_eq!(lazy.in_episode(t), expected(t), "at {t:?} (boundary {b:?})");
                }
            }
            // Each segment is its carry-in plus the windows begun in it.
            lazy.force_all();
            let segments: Vec<&[Window]> = (0..4).map(|k| lazy.segment(k)).collect();
            assert_eq!(segments, [&eager[..1], &eager[..1], &eager[..2], &eager[1..]]);
        }
    }

    #[test]
    fn determinism_same_seed_same_market() {
        let a = market();
        let b = market();
        let t = SimTime::from_days(30);
        for region in Region::ALL {
            let pa = a.spot_price(region, InstanceType::M5Xlarge, t).unwrap();
            let pb = b.spot_price(region, InstanceType::M5Xlarge, t).unwrap();
            assert_eq!(pa, pb);
            assert_eq!(
                a.placement_score(region, InstanceType::M5Xlarge, t).unwrap(),
                b.placement_score(region, InstanceType::M5Xlarge, t).unwrap()
            );
        }
    }

    #[test]
    fn lazy_build_matches_eager_reference() {
        // Field-for-field equality over every trajectory: bands, placement
        // scores, hourly prices, episodes, hazard bounds. The lazy market
        // is deliberately queried back-to-front and across segment
        // boundaries first, so segments fill in an adversarial order
        // before the wholesale comparison.
        for seed in [0, 7, 2024] {
            let config = MarketConfig { seed, horizon_days: 60, ..MarketConfig::default() };
            let eager = SpotMarket::new_eager(config);
            let lazy = SpotMarket::new(config);
            for day in [59, 0, 32, 4, 15, 1, 16, 41, 2, 8] {
                let t = SimTime::from_days(day);
                assert_eq!(
                    lazy.spot_price(Region::UsEast1, InstanceType::M5Xlarge, t),
                    eager.spot_price(Region::UsEast1, InstanceType::M5Xlarge, t),
                    "seed {seed} day {day}"
                );
                assert_eq!(
                    lazy.placement_score(Region::CaCentral1, InstanceType::M5Xlarge, t),
                    eager.placement_score(Region::CaCentral1, InstanceType::M5Xlarge, t),
                    "seed {seed} day {day}"
                );
            }
            assert_eq!(lazy, eager, "seed {seed}");
        }
    }

    #[test]
    fn short_experiments_leave_most_segments_unmaterialized() {
        let m = market(); // default 210-day horizon
        let (filled, total) = m.materialized_segments();
        assert_eq!(filled, 0, "construction must not materialize anything");
        // A month of price + placement queries against one market.
        for day in 0..30 {
            let t = SimTime::from_days(day);
            m.spot_price(Region::UsEast1, InstanceType::M5Xlarge, t).unwrap();
            m.placement_score(Region::UsEast1, InstanceType::M5Xlarge, t).unwrap();
        }
        let (filled, _) = m.materialized_segments();
        // Days 0-29 touch the segments from days 0, 1, 2, 4, 8 and 16.
        assert_eq!(filled, 2 * 6, "exactly the touched segments fill");
        assert!(filled * 20 < total, "filled {filled} of {total}");
    }

    #[test]
    fn concurrent_lazy_queries_agree_with_eager() {
        // Hammer one market's tracks from several threads at once; every
        // observed value must match the eager reference (no torn fills,
        // no order dependence).
        let config = MarketConfig { seed: 9, horizon_days: 56, ..MarketConfig::default() };
        let eager = SpotMarket::new_eager(config);
        let lazy = SpotMarket::new(config);
        std::thread::scope(|scope| {
            for offset in 0..4u64 {
                let (lazy, eager) = (&lazy, &eager);
                scope.spawn(move || {
                    for step in 0..56 {
                        let day = (offset * 13 + step * 5) % 56;
                        let t = SimTime::from_days(day) + SimDuration::from_hours(offset);
                        assert_eq!(
                            lazy.spot_price(Region::EuWest1, InstanceType::M5Xlarge, t),
                            eager.spot_price(Region::EuWest1, InstanceType::M5Xlarge, t),
                        );
                        assert_eq!(
                            lazy.placement_score(Region::EuWest1, InstanceType::M5Xlarge, t),
                            eager.placement_score(Region::EuWest1, InstanceType::M5Xlarge, t),
                        );
                    }
                });
            }
        });
    }

    #[test]
    fn different_seeds_differ() {
        let a = SpotMarket::new(MarketConfig::with_seed(1));
        let b = SpotMarket::new(MarketConfig::with_seed(2));
        let t = SimTime::from_days(10);
        let pa = a.spot_price(Region::UsEast1, InstanceType::M5Xlarge, t).unwrap();
        let pb = b.spot_price(Region::UsEast1, InstanceType::M5Xlarge, t).unwrap();
        assert_ne!(pa, pb);
    }

    #[test]
    fn prices_never_exceed_on_demand() {
        let m = market();
        for region in Region::ALL {
            let od = m.on_demand_price(region, InstanceType::M5Xlarge);
            for day in (0..200).step_by(7) {
                let p = m
                    .spot_price(region, InstanceType::M5Xlarge, SimTime::from_days(day))
                    .unwrap();
                assert!(p <= od, "{region} day {day}: {p} > {od}");
                assert!(p.rate() > 0.0);
            }
        }
    }

    #[test]
    fn unavailable_market_errors() {
        let m = market();
        let err = m
            .spot_price(Region::ApNortheast3, InstanceType::P32xlarge, SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, MarketError::Unavailable { .. }));
        assert!(err.to_string().contains("p3.2xlarge"));
    }

    #[test]
    fn beyond_horizon_errors() {
        let m = market();
        let err = m
            .spot_price(Region::UsEast1, InstanceType::M5Xlarge, SimTime::from_days(500))
            .unwrap_err();
        assert!(matches!(err, MarketError::BeyondHorizon { .. }));
    }

    #[test]
    fn stable_regions_have_lower_hazard() {
        let m = market();
        let t = SimTime::from_days(3);
        let stable = m
            .hazard_rate(Region::ApNortheast3, InstanceType::M5Xlarge, t)
            .unwrap();
        let unstable = m
            .hazard_rate(Region::CaCentral1, InstanceType::M5Xlarge, t)
            .unwrap();
        assert!(
            stable < unstable,
            "ap-northeast-3 hazard {stable} should be below ca-central-1 {unstable}"
        );
    }

    #[test]
    fn interruption_sampling_matches_hazard_scale() {
        let m = market();
        let mut rng = SimRng::seed_from_u64(99);
        let n = 600;
        let mut count_before = |region: Region, hours: u64| {
            let mut interrupted = 0;
            for _ in 0..n {
                if let Some(d) = m
                    .sample_interruption_delay(region, InstanceType::M5Xlarge, SimTime::from_days(1), &mut rng)
                    .unwrap()
                {
                    if d <= SimDuration::from_hours(hours) {
                        interrupted += 1;
                    }
                }
            }
            interrupted
        };
        let unstable = count_before(Region::CaCentral1, 10);
        let stable = count_before(Region::ApNortheast3, 10);
        assert!(
            unstable > 2 * stable.max(1),
            "unstable {unstable} vs stable {stable}"
        );
        // Unstable region: P(interrupt within 10 h) should be substantial.
        assert!(unstable as f64 / n as f64 > 0.35, "unstable rate too low: {unstable}/{n}");
    }

    #[test]
    fn fulfillment_tracks_placement_score() {
        let m = market();
        let mut rng = SimRng::seed_from_u64(4);
        let t = SimTime::from_days(2);
        let trials = 500;
        let mut hits = |region: Region| {
            (0..trials)
                .filter(|_| m.try_fulfill(region, InstanceType::M5Xlarge, t, &mut rng).unwrap())
                .count()
        };
        let high = hits(Region::ApNortheast3); // placement mean 7
        let low = hits(Region::UsEast1); // placement mean 3
        assert!(high > low, "high {high} vs low {low}");
    }

    #[test]
    fn az_prices_cluster_near_regional_price() {
        let m = market();
        let t = SimTime::from_days(20);
        let regional = m
            .spot_price(Region::UsEast1, InstanceType::C52xlarge, t)
            .unwrap()
            .rate();
        for az in Region::UsEast1.zones() {
            let p = m.spot_price_az(az, InstanceType::C52xlarge, t).unwrap().rate();
            assert!((p - regional).abs() / regional < 0.08, "AZ {az}: {p} vs {regional}");
        }
        // And the offsets are not all identical.
        let prices: Vec<f64> = Region::UsEast1
            .zones()
            .map(|az| m.spot_price_az(az, InstanceType::C52xlarge, t).unwrap().rate())
            .collect();
        assert!(prices.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn regions_offering_excludes_p3_gaps() {
        let m = market();
        let regions = m.regions_offering(InstanceType::P32xlarge);
        assert!(!regions.contains(&Region::ApNortheast3));
        assert_eq!(m.regions_offering(InstanceType::M5Xlarge).len(), 12);
        assert!(m.is_available(Region::UsEast1, InstanceType::P32xlarge));
        assert!(!m.is_available(Region::EuNorth1, InstanceType::P32xlarge));
    }

    #[test]
    fn bands_hover_near_profile_base() {
        let m = market();
        let mut matches = 0;
        let mut total = 0;
        for day in 0..200 {
            let band = m
                .interruption_band(Region::ApNortheast3, InstanceType::M5Xlarge, SimTime::from_days(day))
                .unwrap();
            total += 1;
            if band == InterruptionBand::Under5 {
                matches += 1;
            }
        }
        assert!(
            matches as f64 / total as f64 > 0.6,
            "base band should dominate: {matches}/{total}"
        );
    }

    #[test]
    fn hazard_spikes_inside_episodes() {
        // Use a TenToFifteen market (ca-central's Over20 band deliberately
        // has near-homogeneous hazard; see episode_params).
        let m = market();
        let state = m
            .state(Region::EuWest3, InstanceType::M5Xlarge)
            .unwrap();
        let episodes = &state.episodes;
        let first = (0..episodes.segments.len()).find_map(|k| episodes.segment(k).first());
        if let Some(&(start, _)) = first {
            let inside = state.hazard_at(start + SimDuration::from_secs(60));
            let band = state.daily_band[(start.as_days() as usize).min(state.daily_band.len() - 1)];
            let quiet = quiet_hazard(band);
            assert!(inside > 2.0 * quiet, "episode hazard {inside} vs quiet {quiet}");
        }
    }
}

#[cfg(test)]
mod regime_tests {
    use super::*;
    use crate::regime::MarketRegime;

    fn config(regime: MarketRegime) -> MarketConfig {
        MarketConfig { seed: 2024, horizon_days: 70, regime }
    }

    #[test]
    fn lazy_matches_eager_for_every_regime() {
        for regime in MarketRegime::ALL {
            let c = config(regime);
            let eager = SpotMarket::new_eager(c);
            let lazy = SpotMarket::new(c);
            // Adversarial query order across segment boundaries first.
            for day in [69, 0, 35, 4, 13, 64] {
                let t = SimTime::from_days(day);
                assert_eq!(
                    lazy.spot_price(Region::UsEast1, InstanceType::M5Xlarge, t),
                    eager.spot_price(Region::UsEast1, InstanceType::M5Xlarge, t),
                    "{regime} day {day}"
                );
            }
            assert_eq!(lazy, eager, "{regime}");
        }
    }

    #[test]
    fn construction_materializes_nothing_for_every_regime() {
        for regime in MarketRegime::ALL {
            let m = SpotMarket::new(config(regime));
            let (filled, _) = m.materialized_segments();
            assert_eq!(filled, 0, "{regime} construction must stay lazy");
        }
    }

    #[test]
    fn non_baseline_regimes_shift_the_market() {
        let baseline = SpotMarket::new_eager(config(MarketRegime::Baseline));
        for regime in [
            MarketRegime::CapacityCrunch,
            MarketRegime::CorrelatedShock,
            MarketRegime::RegimeSwitching,
        ] {
            let shifted = SpotMarket::new_eager(config(regime));
            let differs = (0..70).any(|day| {
                let t = SimTime::from_days(day);
                baseline.spot_price(Region::UsEast1, InstanceType::M5Xlarge, t)
                    != shifted.spot_price(Region::UsEast1, InstanceType::M5Xlarge, t)
                    || baseline.hazard_rate(Region::UsEast1, InstanceType::M5Xlarge, t)
                        != shifted.hazard_rate(Region::UsEast1, InstanceType::M5Xlarge, t)
            });
            assert!(differs, "{regime} left the market untouched");
        }
    }

    #[test]
    fn correlated_shock_moves_regions_together() {
        // On a shock day, every region's price shifts relative to
        // baseline — the cross-region correlation single-region processes
        // cannot express.
        let c = config(MarketRegime::CorrelatedShock);
        let rng = SimRng::seed_from_u64(c.seed).fork("spot-market");
        let schedule = RegimeSchedule::build(c.regime, c.horizon_days, &rng);
        let shock_day = (0..70).find(|&d| schedule.day(d).price_mult > 1.0);
        let Some(day) = shock_day else {
            return; // this seed drew no shock inside the window
        };
        let baseline = SpotMarket::new(config(MarketRegime::Baseline));
        let shocked = SpotMarket::new(c);
        let t = SimTime::from_days(day as u64);
        for region in [Region::UsEast1, Region::EuWest1, Region::ApNortheast3] {
            let b = baseline.spot_price(region, InstanceType::M5Xlarge, t).unwrap();
            let s = shocked.spot_price(region, InstanceType::M5Xlarge, t).unwrap();
            assert_ne!(b, s, "{region} unshocked on day {day}");
        }
    }

    #[test]
    fn crunch_degrades_the_advisor_view() {
        // On a crunch day the advisor band reads at least as bad as
        // baseline everywhere, strictly worse wherever not saturated.
        let c = config(MarketRegime::CapacityCrunch);
        let rng = SimRng::seed_from_u64(c.seed).fork("spot-market");
        let schedule = RegimeSchedule::build(c.regime, c.horizon_days, &rng);
        let Some(day) = (0..70).find(|&d| schedule.day(d).band_penalty > 0) else {
            return;
        };
        let m = SpotMarket::new(c);
        let t = SimTime::from_days(day as u64);
        let band = m.interruption_band(Region::ApNortheast3, InstanceType::M5Xlarge, t).unwrap();
        let state = m.state(Region::ApNortheast3, InstanceType::M5Xlarge).unwrap();
        let raw = state.daily_band[day.min(state.daily_band.len() - 1)];
        assert_eq!(band, raw.worse(), "advisor band must read one step worse");
    }

    #[test]
    fn distinct_regimes_are_distinct_cache_keys() {
        let a = config(MarketRegime::Baseline);
        let b = config(MarketRegime::CapacityCrunch);
        assert_ne!(a, b);
        assert_eq!(a, a.with_regime(MarketRegime::Baseline));
        assert_eq!(b, a.with_regime(MarketRegime::CapacityCrunch));
        let m = SpotMarket::new(b);
        assert_eq!(m.regime(), MarketRegime::CapacityCrunch);
        assert_eq!(m.config().regime, MarketRegime::CapacityCrunch);
    }
}

#[cfg(test)]
mod weekday_tests {
    use super::*;

    #[test]
    fn epoch_is_monday_and_weeks_wrap() {
        assert_eq!(Weekday::of(SimTime::ZERO), Weekday::Monday);
        assert_eq!(Weekday::of(SimTime::from_days(5)), Weekday::Saturday);
        assert_eq!(Weekday::of(SimTime::from_days(7)), Weekday::Monday);
        assert!(Weekday::of(SimTime::from_days(6)).is_weekend());
        assert!(!Weekday::of(SimTime::from_days(3)).is_weekend());
    }

    #[test]
    fn weekday_hazard_shapes_the_week() {
        assert!(Weekday::Wednesday.hazard_factor() > Weekday::Monday.hazard_factor());
        assert!(Weekday::Sunday.hazard_factor() < Weekday::Monday.hazard_factor());
    }

    #[test]
    fn hazard_rate_reflects_weekly_pattern() {
        let m = SpotMarket::new(MarketConfig::with_seed(3));
        // Compare a mid-week day against the following Sunday, far from
        // surges, same band day (bands can change daily, so average a few
        // weeks to wash that out).
        let mut midweek = 0.0;
        let mut weekend = 0.0;
        let mut weeks = 0;
        for week in 8..20 {
            let wed = SimTime::from_days(week * 7 + 2);
            let sun = SimTime::from_days(week * 7 + 6);
            let b_wed = m.interruption_band(Region::UsEast1, InstanceType::M5Xlarge, wed).unwrap();
            let b_sun = m.interruption_band(Region::UsEast1, InstanceType::M5Xlarge, sun).unwrap();
            if b_wed != b_sun {
                continue; // band moved mid-week; skip for a clean comparison
            }
            if m.in_demand_episode(Region::UsEast1, InstanceType::M5Xlarge, wed).unwrap()
                || m.in_demand_episode(Region::UsEast1, InstanceType::M5Xlarge, sun).unwrap()
            {
                continue;
            }
            midweek += m.hazard_rate(Region::UsEast1, InstanceType::M5Xlarge, wed).unwrap();
            weekend += m.hazard_rate(Region::UsEast1, InstanceType::M5Xlarge, sun).unwrap();
            weeks += 1;
        }
        assert!(weeks > 0, "no clean comparison weeks found");
        assert!(
            midweek > weekend,
            "midweek hazard {midweek} should exceed weekend {weekend} over {weeks} weeks"
        );
    }
}
