//! # cloud-market
//!
//! The simulated multi-region cloud *market* substrate of the SpotVerse
//! reproduction: region and instance catalogs, on-demand pricing, and
//! seeded, deterministic trajectories of spot prices, Interruption-Frequency
//! bands, Spot Placement Scores and demand episodes.
//!
//! The live AWS datasets the paper consumes (Spot Instance Advisor, Spot
//! Placement Score API, `describe-spot-price-history`) are proprietary and
//! online-only; this crate replaces them with a calibrated synthetic
//! generator whose structural facts match the paper's tables (see DESIGN.md
//! §1 and §5, and [`profiles`]).
//!
//! # Examples
//!
//! ```
//! use cloud_market::{InstanceType, MarketConfig, Region, SpotMarket};
//! use sim_kernel::SimTime;
//!
//! let market = SpotMarket::new(MarketConfig::with_seed(1));
//! let t = SimTime::from_days(3);
//!
//! // SpotVerse's two key metrics, per region:
//! let stability = market.stability_score(Region::ApNortheast3, InstanceType::M5Xlarge, t)?;
//! let placement = market.placement_score(Region::ApNortheast3, InstanceType::M5Xlarge, t)?;
//! assert!(stability.value() >= 1 && placement.value() >= 1);
//! # Ok::<(), cloud_market::MarketError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod advisor;
pub mod history;
mod instance;
mod market;
mod money;
pub mod overlay;
pub mod profiles;
pub mod regime;
mod region;
pub mod traces;

pub use advisor::{
    CombinedScore, InterruptionBand, PlacementScore, ScoreOutOfRange, StabilityScore,
};
pub use instance::{InstanceFamily, InstanceSize, InstanceType, ParseInstanceTypeError};
pub use market::{MarketConfig, MarketError, SpotMarket, Weekday};
pub use money::{Usd, UsdPerHour};
pub use overlay::{MarketOverlay, OverlayWindow};
pub use profiles::{
    cheapest_on_demand_region, cheapest_spot_region_at_start, on_demand_price, MarketProfile,
    PriceSurge,
};
pub use regime::{MarketRegime, RegimeDay, RegimeSchedule, RegimeSpec};
pub use region::{AvailabilityZone, Geography, ParseRegionError, Region};
