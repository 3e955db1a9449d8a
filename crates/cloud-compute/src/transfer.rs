//! Inter-region data-transfer pricing and latency.
//!
//! The paper's cost model (§5.1.2) explicitly accounts for cross-region S3
//! uploads/downloads incurred by checkpoint workloads under the multi-region
//! strategy; these helpers give one shared tariff to the object store and
//! the checkpoint path.

use cloud_market::{Region, Usd};
use sim_kernel::SimDuration;

/// Per-GiB transfer price between two regions.
///
/// Same-region transfers are free; same-geography inter-region transfers
/// cost $0.02/GiB; cross-geography transfers cost $0.09/GiB.
pub fn price_per_gib(from: Region, to: Region) -> Usd {
    if from == to {
        Usd::ZERO
    } else if from.geography() == to.geography() {
        Usd::new(0.02)
    } else {
        Usd::new(0.09)
    }
}

/// The cost of moving `gib` gibibytes from `from` to `to`.
///
/// # Panics
///
/// Panics if `gib` is negative or not finite.
pub fn transfer_cost(from: Region, to: Region, gib: f64) -> Usd {
    assert!(gib.is_finite() && gib >= 0.0, "transfer_cost: bad size {gib}");
    price_per_gib(from, to) * gib
}

/// Effective inter-region throughput in GiB per second.
fn throughput_gib_per_sec(from: Region, to: Region) -> f64 {
    if from == to {
        0.5
    } else if from.geography() == to.geography() {
        0.125
    } else {
        0.05
    }
}

/// The wall-clock time to move `gib` gibibytes from `from` to `to`.
///
/// # Panics
///
/// Panics if `gib` is negative or not finite.
pub fn transfer_time(from: Region, to: Region, gib: f64) -> SimDuration {
    assert!(gib.is_finite() && gib >= 0.0, "transfer_time: bad size {gib}");
    let secs = gib / throughput_gib_per_sec(from, to);
    SimDuration::from_secs(secs.ceil() as u64)
}

/// Whether a transfer of `gib` from `from` to `to` fits inside the
/// two-minute spot interruption notice — the feasibility constraint the
/// paper highlights for checkpoint uploads (§5.1.2 sized the FastQC dataset
/// at 1 GB for exactly this reason).
pub fn fits_in_interruption_notice(from: Region, to: Region, gib: f64) -> bool {
    transfer_time(from, to, gib) <= SimDuration::from_secs(120)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_region_is_free_and_fast() {
        assert_eq!(price_per_gib(Region::UsEast1, Region::UsEast1), Usd::ZERO);
        assert_eq!(
            transfer_cost(Region::UsEast1, Region::UsEast1, 100.0),
            Usd::ZERO
        );
        assert!(transfer_time(Region::UsEast1, Region::UsEast1, 1.0).as_secs() <= 2);
    }

    #[test]
    fn cross_geography_is_most_expensive() {
        let same_geo = price_per_gib(Region::UsEast1, Region::UsWest2);
        let cross_geo = price_per_gib(Region::UsEast1, Region::ApNortheast3);
        assert!(cross_geo > same_geo);
        assert!(same_geo > Usd::ZERO);
    }

    #[test]
    fn cost_scales_linearly_with_size() {
        let one = transfer_cost(Region::UsEast1, Region::EuWest1, 1.0);
        let ten = transfer_cost(Region::UsEast1, Region::EuWest1, 10.0);
        assert!((ten.amount() - 10.0 * one.amount()).abs() < 1e-12);
    }

    #[test]
    fn checkpoint_gigabyte_fits_notice_window() {
        // The paper's 1 GB checkpoint upload must fit the 2-minute notice
        // even cross-geography.
        assert!(fits_in_interruption_notice(
            Region::CaCentral1,
            Region::ApNortheast3,
            1.0
        ));
        // A 100 GiB dataset does not (the §7 limitation).
        assert!(!fits_in_interruption_notice(
            Region::CaCentral1,
            Region::ApNortheast3,
            100.0
        ));
    }

    #[test]
    fn transfer_time_monotone_in_distance() {
        let near = transfer_time(Region::UsEast1, Region::UsWest2, 10.0);
        let far = transfer_time(Region::UsEast1, Region::ApSoutheast1, 10.0);
        assert!(far > near);
    }
}
