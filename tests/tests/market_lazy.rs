//! Lazy market materialization must be observationally invisible: a
//! market whose trajectories fill segment-by-segment on demand, in
//! whatever order queries arrive, answers every query bit-identically to
//! the eager reference build (`SpotMarket::new_eager`), including the
//! `BeyondHorizon` error edges at and around segment boundaries.
//!
//! Segments double in length: their boundaries fall at days 4, 8, 16, 32,
//! 64 and 128, and the last segment ends at the horizon.

use cloud_market::{InstanceType, MarketConfig, MarketError, MarketRegime, Region, SpotMarket};
use proptest::prelude::*;
use sim_kernel::{SimDuration, SimTime};

/// One observation per query kind the market exposes, rendered
/// comparable (prices, placement, band, episode membership, hazard).
type Observation = (
    Result<String, MarketError>,
    Result<String, MarketError>,
    Result<String, MarketError>,
    Result<bool, MarketError>,
    Result<String, MarketError>,
);

/// Every segment boundary inside the default 210-day horizon, in days.
const BOUNDARY_DAYS: [u64; 6] = [4, 8, 16, 32, 64, 128];

/// Horizons ending inside the first segment, on a boundary, and in the
/// middle of later segments, up to the default 210 days.
const HORIZON_DAYS: [u32; 8] = [3, 4, 5, 9, 17, 64, 130, 210];

/// Every query kind the market exposes over (region, type, time), as one
/// comparable value.
fn observe(m: &SpotMarket, region: Region, itype: InstanceType, at: SimTime) -> Observation {
    (
        m.spot_price(region, itype, at).map(|p| format!("{p:?}")),
        m.placement_score(region, itype, at).map(|s| format!("{s:?}")),
        m.interruption_band(region, itype, at).map(|b| format!("{b:?}")),
        m.in_demand_episode(region, itype, at),
        m.hazard_rate(region, itype, at).map(|h| format!("{h:?}")),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary interleavings of queries across regions, types, and
    /// instants — including instants past the horizon — observe exactly
    /// what the eager build precomputed.
    #[test]
    fn lazy_is_observationally_eager(
        seed in 0u64..10_000,
        horizon_days in 3u32..140,
        queries in prop::collection::vec(
            (0usize..Region::ALL.len(), 0usize..InstanceType::ALL.len(), 0u64..145 * 24 + 2),
            1..60,
        ),
    ) {
        let config = MarketConfig { seed, horizon_days, regime: MarketRegime::Baseline };
        let eager = SpotMarket::new_eager(config);
        let lazy = SpotMarket::new(config);
        for (r, i, hour) in queries {
            let (region, itype) = (Region::ALL[r], InstanceType::ALL[i]);
            let at = SimTime::from_secs(hour * 3600 + 17);
            prop_assert_eq!(
                observe(&lazy, region, itype, at),
                observe(&eager, region, itype, at),
                "seed {} horizon {} {:?}/{:?} at {:?}", seed, horizon_days, region, itype, at
            );
        }
        // After the scattered queries, the whole markets still compare
        // equal (forces the rest of both to materialize).
        prop_assert_eq!(lazy, eager);
    }

    /// The exact edges: the last instant inside the horizon, the horizon
    /// itself, and day `b - 1` and the seconds straddling day `b` for
    /// every segment boundary `b`, queried in a drawn order so segments
    /// fill out of turn, for horizons that end on and between boundaries.
    #[test]
    fn segment_and_horizon_edges_match(
        seed in 0u64..10_000,
        order in prop::collection::vec(any::<u64>(), 4 + 4 * BOUNDARY_DAYS.len()),
    ) {
        for horizon_days in HORIZON_DAYS {
            let config = MarketConfig { seed, horizon_days, regime: MarketRegime::Baseline };
            let eager = SpotMarket::new_eager(config);
            let lazy = SpotMarket::new(config);
            let horizon = SimTime::from_days(u64::from(horizon_days));
            let second = SimDuration::from_secs(1);
            let mut edges = vec![SimTime::ZERO, horizon - second, horizon, horizon + second];
            for boundary in BOUNDARY_DAYS {
                let t = SimTime::from_days(boundary);
                edges.extend([SimTime::from_days(boundary - 1), t - second, t, t + second]);
            }
            let mut drawn: Vec<(u64, SimTime)> = order.iter().copied().zip(edges).collect();
            drawn.sort_by_key(|&(key, _)| key);
            for (_, at) in drawn {
                for region in [Region::UsEast1, Region::CaCentral1] {
                    prop_assert_eq!(
                        observe(&lazy, region, InstanceType::M5Xlarge, at),
                        observe(&eager, region, InstanceType::M5Xlarge, at),
                        "seed {} horizon {} at {:?}", seed, horizon_days, at
                    );
                }
            }
            let at_horizon = lazy.spot_price(Region::UsEast1, InstanceType::M5Xlarge, horizon);
            prop_assert!(matches!(at_horizon, Err(MarketError::BeyondHorizon { .. })));
            prop_assert_eq!(lazy, eager, "seed {} horizon {}", seed, horizon_days);
        }
    }
}
