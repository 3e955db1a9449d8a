//! # cloud-compute
//!
//! The simulated cloud *compute* substrate of the SpotVerse reproduction:
//! an EC2-like control plane ([`Ec2`]) with the exact observable contract
//! the paper's Controller programs against —
//!
//! * spot requests that succeed probabilistically according to the market's
//!   Spot Placement Score and otherwise stay **open** for later retry,
//! * fulfilled spot instances that carry a pre-sampled future interruption
//!   instant (the two-minute notice fires [`INTERRUPTION_NOTICE`] before it),
//! * on-demand launches that always succeed and never interrupt,
//! * per-second billing against the market's hourly spot price curve,
//!   summed in a [`BillingLedger`] of per-service running totals,
//! * a shared inter-region [`transfer`] tariff.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use cloud_compute::{Ec2, SpotRequestOutcome};
//! use cloud_market::{InstanceType, MarketConfig, Region, SpotMarket};
//! use sim_kernel::{SimRng, SimTime};
//!
//! let market = Arc::new(SpotMarket::new(MarketConfig::with_seed(9)));
//! let mut ec2 = Ec2::new(market, SimRng::seed_from_u64(9));
//! match ec2.request_spot(Region::UsWest1, InstanceType::M5Xlarge, SimTime::ZERO)? {
//!     SpotRequestOutcome::Fulfilled(launch) => {
//!         // schedule workload start at launch.ready_at, interruption
//!         // handling at launch.interruption_at …
//!         assert!(launch.ready_at > SimTime::ZERO);
//!     }
//!     SpotRequestOutcome::OpenNoCapacity => {
//!         // retry in 15 minutes, as SpotVerse's Controller does
//!     }
//! }
//! # Ok::<(), cloud_compute::Ec2Error>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod billing;
mod ec2;
mod instance;
pub mod transfer;

pub use billing::{BillingLedger, ServiceKind};
pub use ec2::{
    Ec2, Ec2Error, FaultInjector, LaunchedSpot, SpotRequestOutcome, CROWDING_COEFFICIENT,
    CROWDING_FLEET_SCALE, INTERRUPTION_NOTICE,
};
pub use instance::{InstanceId, InstanceRecord, InstanceState, PurchaseModel, TerminationReason};
