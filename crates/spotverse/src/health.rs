//! The region-health control plane: deterministic per-region circuit
//! breakers and the freshness/resilience telemetry they feed.
//!
//! The paper's Algorithm 1 assumes every region accepts launches and the
//! Monitor's feeds are always fresh. Under injected faults neither holds,
//! so the Controller keeps a [`RegionHealth`] ledger: chaos-attributed
//! launch rejections and interruptions *strike* a region's breaker, and
//! enough unhealed strikes trip it `Closed → Open`. An open breaker
//! quarantines the region — the Optimizer excludes it from Algorithm 1's
//! selection — for a seeded, escalating window, after which the breaker
//! relaxes to `HalfOpen`: the region is offered to the Optimizer again
//! and the next launch there is a *probe*. A fulfilled probe closes the
//! breaker; a rejected probe re-trips it with a longer quarantine.
//!
//! Determinism rules:
//!
//! * strikes are only recorded for **chaos-attributed** failures, so a
//!   fault-free run never creates a breaker entry — the ledger stays
//!   structurally empty and every consult is a no-op;
//! * quarantine jitter is a pure hash over `(seed, region, trip)`, never
//!   an RNG stream, so consulting or tripping a breaker consumes no
//!   randomness and leaves every other stream untouched;
//! * state transitions are lazy functions of the queried instant, so two
//!   runs asking the same questions at the same times get the same
//!   answers.

use std::collections::BTreeMap;

use aws_stack::RetryPolicy;
use cloud_market::Region;
use sim_kernel::{SimDuration, SimTime};

/// Where a region's breaker stands at a queried instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: launches flow normally.
    Closed,
    /// Quarantined: the Optimizer must not select the region.
    Open,
    /// Quarantine expired: the region is offered again and the next
    /// launch outcome there decides (probe).
    HalfOpen,
}

labels!(BreakerState, "breaker state", {
    Closed => "closed",
    Open => "open",
    HalfOpen => "half-open",
});

/// A breaker state change caused by one recorded observation — returned
/// by the `record_*` methods so callers (the trace layer) can log it
/// without re-deriving breaker internals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerTransition {
    /// The region whose breaker moved.
    pub region: Region,
    /// State before the observation.
    pub from: BreakerState,
    /// State after the observation.
    pub to: BreakerState,
}

/// Unhealed strikes that trip a closed breaker.
const STRIKE_THRESHOLD: u32 = 2;
/// The quarantine per trip: 1 h after the first, doubling per later trip
/// up to 8 h, plus up to 10 min of keyed jitter (decorrelates
/// same-instant trips across regions). Every trip quarantines, so the
/// attempt budget is unbounded.
pub(crate) const QUARANTINE: RetryPolicy = RetryPolicy {
    max_attempts: u32::MAX,
    initial_backoff: SimDuration::from_hours(1),
    max_delay: SimDuration::from_hours(8),
    jitter: SimDuration::from_mins(10),
};

/// The quarantine for trip number `trip` (1-based), its jitter a pure
/// hash of `(seed, trip, region)` that consumes no RNG state.
pub(crate) fn quarantine(seed: u64, region: Region, trip: u32) -> SimDuration {
    QUARANTINE.backoff_jittered(trip, seed, region.name())
}

/// One region's breaker record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RegionBreaker {
    state: BreakerState,
    strikes: u32,
    trips: u32,
    reopen_at: SimTime,
}

impl RegionBreaker {
    fn new() -> Self {
        RegionBreaker {
            state: BreakerState::Closed,
            strikes: 0,
            trips: 0,
            reopen_at: SimTime::ZERO,
        }
    }

    /// The state as observed at `at` (Open relaxes to HalfOpen once the
    /// quarantine has elapsed).
    fn state_at(&self, at: SimTime) -> BreakerState {
        match self.state {
            BreakerState::Open if at >= self.reopen_at => BreakerState::HalfOpen,
            s => s,
        }
    }
}

/// The Controller's per-region breaker ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionHealth {
    seed: u64,
    breakers: BTreeMap<Region, RegionBreaker>,
    trips: u64,
    probes: u64,
    probe_failures: u64,
}

impl RegionHealth {
    /// An empty ledger, with quarantine jitter keyed by `seed`.
    pub fn new(seed: u64) -> Self {
        RegionHealth {
            seed,
            breakers: BTreeMap::new(),
            trips: 0,
            probes: 0,
            probe_failures: 0,
        }
    }

    /// Whether the ledger has never recorded a strike — the invariant
    /// state of every fault-free run.
    pub fn is_idle(&self) -> bool {
        self.breakers.is_empty()
    }

    /// Total `Closed → Open` transitions (re-trips included).
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Half-open probe outcomes observed (successes + failures).
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Half-open probes that were rejected (each re-trips the breaker).
    pub fn probe_failures(&self) -> u64 {
        self.probe_failures
    }

    /// The breaker state for `region` at `at`. Unknown regions are
    /// `Closed`.
    pub fn state(&self, region: Region, at: SimTime) -> BreakerState {
        self.breakers
            .get(&region)
            .map_or(BreakerState::Closed, |b| b.state_at(at))
    }

    /// Whether `region` is quarantined (breaker `Open`) at `at`.
    pub fn is_quarantined(&self, region: Region, at: SimTime) -> bool {
        self.state(region, at) == BreakerState::Open
    }

    /// Every quarantined region at `at`, in catalog (map) order.
    pub fn quarantined(&self, at: SimTime) -> Vec<Region> {
        self.breakers
            .iter()
            .filter(|(_, b)| b.state_at(at) == BreakerState::Open)
            .map(|(&r, _)| r)
            .collect()
    }

    /// Records a chaos-attributed launch rejection in `region`. In
    /// `Closed` this is a strike (tripping at `STRIKE_THRESHOLD`); in
    /// `HalfOpen` it is a failed probe and re-trips with an escalated
    /// quarantine; in `Open` it is ignored (the region should not have
    /// been asked).
    ///
    /// Returns the state change this observation caused, if any, so the
    /// trace layer can log it. Lazy `Open → HalfOpen` expiry is not an
    /// observation; it surfaces as the `from` state of the next one.
    pub fn record_rejection(&mut self, region: Region, at: SimTime) -> Option<BreakerTransition> {
        let seed = self.seed;
        let breaker = self.breakers.entry(region).or_insert_with(RegionBreaker::new);
        match breaker.state_at(at) {
            BreakerState::Closed => {
                breaker.state = BreakerState::Closed;
                breaker.strikes += 1;
                if breaker.strikes >= STRIKE_THRESHOLD {
                    Self::trip(breaker, seed, region, at);
                    self.trips += 1;
                    return Some(BreakerTransition {
                        region,
                        from: BreakerState::Closed,
                        to: BreakerState::Open,
                    });
                }
                None
            }
            BreakerState::HalfOpen => {
                self.probes += 1;
                self.probe_failures += 1;
                Self::trip(breaker, seed, region, at);
                self.trips += 1;
                Some(BreakerTransition {
                    region,
                    from: BreakerState::HalfOpen,
                    to: BreakerState::Open,
                })
            }
            BreakerState::Open => None,
        }
    }

    /// Records a chaos-attributed interruption in `region` — same
    /// weight as a rejection.
    pub fn record_interruption(
        &mut self,
        region: Region,
        at: SimTime,
    ) -> Option<BreakerTransition> {
        self.record_rejection(region, at)
    }

    /// Records a fulfilled launch in `region`: heals `Closed` strikes and
    /// closes a `HalfOpen` breaker (successful probe). Never creates a
    /// ledger entry, so fault-free runs stay structurally idle.
    ///
    /// Returns the `HalfOpen → Closed` transition when the fulfillment
    /// closed a probing breaker.
    pub fn record_fulfillment(
        &mut self,
        region: Region,
        at: SimTime,
    ) -> Option<BreakerTransition> {
        let breaker = self.breakers.get_mut(&region)?;
        match breaker.state_at(at) {
            BreakerState::Closed => {
                breaker.strikes = 0;
                None
            }
            BreakerState::HalfOpen => {
                self.probes += 1;
                breaker.state = BreakerState::Closed;
                breaker.strikes = 0;
                Some(BreakerTransition {
                    region,
                    from: BreakerState::HalfOpen,
                    to: BreakerState::Closed,
                })
            }
            BreakerState::Open => None,
        }
    }

    fn trip(breaker: &mut RegionBreaker, seed: u64, region: Region, at: SimTime) {
        breaker.trips += 1;
        breaker.state = BreakerState::Open;
        breaker.strikes = 0;
        breaker.reopen_at = at + quarantine(seed, region, breaker.trips);
    }
}

/// How fresh the telemetry behind the run's decisions was.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TelemetryFreshness {
    /// Decisions served from a last-good snapshot while collection was
    /// failing.
    pub stale_serves: u64,
    /// Oldest snapshot age ever served.
    pub max_staleness: SimDuration,
    /// Decisions degraded to cheapest-on-demand because the snapshot
    /// outlived the TTL.
    pub degraded_decisions: u64,
    /// Total time spent past the TTL (degraded placement mode).
    pub degraded_time: SimDuration,
    /// Monitor collection cycles that errored.
    pub collection_failures: u64,
}

/// Resilience counters for one experiment run. All zeros on a fault-free
/// run: the control plane only engages when faults are injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceTelemetry {
    /// Breaker `Closed → Open` transitions.
    pub breaker_trips: u64,
    /// Half-open probe outcomes observed.
    pub half_open_probes: u64,
    /// Half-open probes rejected (re-trips).
    pub probe_failures: u64,
    /// Decisions taken while at least one region was quarantined.
    pub quarantined_decisions: u64,
    /// Telemetry freshness counters.
    pub freshness: TelemetryFreshness,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(hours: u64) -> SimTime {
        SimTime::from_hours(hours)
    }

    #[test]
    fn breaker_labels_parse_back() {
        for state in [BreakerState::Closed, BreakerState::Open, BreakerState::HalfOpen] {
            assert_eq!(state.label().parse::<BreakerState>(), Ok(state));
        }
        assert!("half_open".parse::<BreakerState>().unwrap_err().contains("half_open"));
    }

    #[test]
    fn strikes_accumulate_and_trip_at_threshold() {
        let mut h = RegionHealth::new(7);
        assert_eq!(h.record_rejection(Region::CaCentral1, t(1)), None);
        assert_eq!(h.state(Region::CaCentral1, t(1)), BreakerState::Closed);
        assert_eq!(
            h.record_rejection(Region::CaCentral1, t(1)),
            Some(BreakerTransition {
                region: Region::CaCentral1,
                from: BreakerState::Closed,
                to: BreakerState::Open,
            })
        );
        assert_eq!(h.state(Region::CaCentral1, t(1)), BreakerState::Open);
        assert_eq!(h.trips(), 1);
        assert_eq!(h.quarantined(t(1)), vec![Region::CaCentral1]);
        // Other regions are unaffected.
        assert_eq!(h.state(Region::UsEast1, t(1)), BreakerState::Closed);
    }

    #[test]
    fn fulfillment_heals_closed_strikes() {
        let mut h = RegionHealth::new(7);
        h.record_rejection(Region::UsWest1, t(1));
        h.record_fulfillment(Region::UsWest1, t(2));
        h.record_rejection(Region::UsWest1, t(3));
        // The healed strike no longer counts toward the threshold.
        assert_eq!(h.state(Region::UsWest1, t(3)), BreakerState::Closed);
        assert_eq!(h.trips(), 0);
    }

    #[test]
    fn fulfillment_never_creates_entries() {
        let mut h = RegionHealth::new(7);
        for region in Region::ALL {
            h.record_fulfillment(region, t(1));
        }
        assert!(h.is_idle(), "fault-free ledgers stay structurally empty");
        assert_eq!((h.trips(), h.probes(), h.probe_failures()), (0, 0, 0));
        assert!(h.quarantined(t(5)).is_empty());
    }

    #[test]
    fn quarantine_relaxes_to_half_open_then_probe_decides() {
        let mut h = RegionHealth::new(7);
        h.record_rejection(Region::EuNorth1, t(1));
        h.record_rejection(Region::EuNorth1, t(1));
        // Base quarantine is 1 h plus at most the jitter: open until then,
        // half-open after.
        let after = t(2) + QUARANTINE.jitter;
        assert_eq!(h.state(Region::EuNorth1, t(1)), BreakerState::Open);
        assert_eq!(h.state(Region::EuNorth1, t(2) - SimDuration::from_secs(1)), BreakerState::Open);
        assert_eq!(h.state(Region::EuNorth1, after), BreakerState::HalfOpen);
        assert!(h.quarantined(after).is_empty(), "half-open is served again");
        // A successful probe closes (and reports the transition).
        assert_eq!(
            h.record_fulfillment(Region::EuNorth1, after),
            Some(BreakerTransition {
                region: Region::EuNorth1,
                from: BreakerState::HalfOpen,
                to: BreakerState::Closed,
            })
        );
        assert_eq!(h.state(Region::EuNorth1, after), BreakerState::Closed);
        assert_eq!((h.probes(), h.probe_failures()), (1, 0));
    }

    #[test]
    fn failed_probe_re_trips_with_escalated_quarantine() {
        let mut h = RegionHealth::new(7);
        h.record_rejection(Region::EuWest1, t(0));
        h.record_rejection(Region::EuWest1, t(0));
        // First quarantine: 1 h. Probe at t=2h fails; the observation
        // reports the half-open breaker re-tripping.
        assert_eq!(
            h.record_rejection(Region::EuWest1, t(2)),
            Some(BreakerTransition {
                region: Region::EuWest1,
                from: BreakerState::HalfOpen,
                to: BreakerState::Open,
            })
        );
        assert_eq!(h.trips(), 2);
        assert_eq!((h.probes(), h.probe_failures()), (1, 1));
        // Second quarantine doubles to 2 h: still open at +1h, half-open
        // after +2h plus the jitter.
        assert_eq!(h.state(Region::EuWest1, t(3)), BreakerState::Open);
        assert_eq!(h.state(Region::EuWest1, t(4) + QUARANTINE.jitter), BreakerState::HalfOpen);
    }

    #[test]
    fn quarantine_doubles_but_caps() {
        for (trip, hours) in [(1, 1), (2, 2), (4, 8), (10, 8)] {
            let q = quarantine(7, Region::UsEast1, trip);
            let base = SimDuration::from_hours(hours);
            assert!(base <= q && q <= base + QUARANTINE.jitter, "trip {trip}: {q:?}");
        }
    }

    #[test]
    fn jitter_is_bounded_and_keyed() {
        for trip in 1..8 {
            let q = quarantine(7, Region::UsEast1, trip);
            assert!(q - QUARANTINE.backoff_before(trip) <= QUARANTINE.jitter);
            assert_eq!(q, quarantine(7, Region::UsEast1, trip));
        }
        // Different regions decorrelate (at least one differs over a few
        // trips).
        let a: Vec<SimDuration> = (1..8).map(|i| quarantine(7, Region::UsEast1, i)).collect();
        let b: Vec<SimDuration> = (1..8).map(|i| quarantine(7, Region::EuWest1, i)).collect();
        assert_ne!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// An open breaker is never served: from the trip instant until
        /// the quarantine expires, the region is in every `quarantined`
        /// answer and `state` reports `Open`.
        #[test]
        fn open_regions_are_never_served(
            seed in 0u64..u64::MAX,
            strikes in 2u32..6,
            probe_offsets in prop::collection::vec(0u64..7200, 1..8),
        ) {
            let mut h = RegionHealth::new(seed);
            let region = Region::ApNortheast3;
            let trip_at = t(1);
            for _ in 0..strikes.max(STRIKE_THRESHOLD) {
                h.record_rejection(region, trip_at);
            }
            prop_assert_eq!(h.state(region, trip_at), BreakerState::Open);
            // The quarantine is at least the base window; inside it the
            // region is always excluded.
            let min_q = QUARANTINE.initial_backoff.as_secs();
            for &off in &probe_offsets {
                let at = trip_at + SimDuration::from_secs(off % min_q);
                prop_assert!(h.is_quarantined(region, at));
                prop_assert!(h.quarantined(at).contains(&region));
            }
        }

        /// Quarantines always expire: past the cap plus jitter the breaker
        /// re-probes (half-open), no matter how many times it tripped.
        #[test]
        fn always_reprobes_after_quarantine(
            seed in 0u64..u64::MAX,
            re_trips in 0u32..6,
        ) {
            let mut h = RegionHealth::new(seed);
            let region = Region::EuWest3;
            let mut now = t(1);
            let bound = SimDuration::from_secs(
                QUARANTINE.max_delay.as_secs() + QUARANTINE.jitter.as_secs() + 1,
            );
            h.record_rejection(region, now);
            h.record_rejection(region, now);
            for _ in 0..re_trips {
                prop_assert_eq!(h.state(region, now), BreakerState::Open);
                now += bound;
                // Past the worst-case window the breaker must be probing.
                prop_assert_eq!(h.state(region, now), BreakerState::HalfOpen);
                // A failed probe re-trips...
                h.record_rejection(region, now);
            }
            now += bound;
            prop_assert_eq!(h.state(region, now), BreakerState::HalfOpen);
            // ...and a successful probe always recovers the region.
            h.record_fulfillment(region, now);
            prop_assert_eq!(h.state(region, now), BreakerState::Closed);
            prop_assert!(h.quarantined(now).is_empty());
        }

        /// The ledger is a pure function of (seed, event trace):
        /// replaying the same events gives identical states and counters.
        #[test]
        fn deterministic_under_fixed_seed(
            seed in 0u64..u64::MAX,
            events in prop::collection::vec((0u8..3, 0usize..12, 0u64..200), 1..40),
        ) {
            let run = || {
                let mut h = RegionHealth::new(seed);
                for &(kind, region_idx, hour) in &events {
                    let region = Region::ALL[region_idx % Region::ALL.len()];
                    match kind {
                        0 => h.record_rejection(region, t(hour)),
                        1 => h.record_interruption(region, t(hour)),
                        _ => h.record_fulfillment(region, t(hour)),
                    };
                }
                h
            };
            let (a, b) = (run(), run());
            prop_assert_eq!(&a, &b);
            for hour in [0u64, 50, 100, 250] {
                prop_assert_eq!(a.quarantined(t(hour)), b.quarantined(t(hour)));
            }
        }
    }
}
