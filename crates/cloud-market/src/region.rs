//! The region and availability-zone catalog.
//!
//! The twelve AWS regions appearing in the paper's experiments (Tables 1 and
//! 3, Figures 2–10).

use std::fmt;
use std::str::FromStr;

/// A cloud region.
///
/// # Examples
///
/// ```
/// use cloud_market::Region;
///
/// let r: Region = "ca-central-1".parse()?;
/// assert_eq!(r, Region::CaCentral1);
/// assert_eq!(r.to_string(), "ca-central-1");
/// # Ok::<(), cloud_market::ParseRegionError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum Region {
    UsEast1,
    UsEast2,
    UsWest1,
    UsWest2,
    CaCentral1,
    EuWest1,
    EuWest2,
    EuWest3,
    EuNorth1,
    ApNortheast3,
    ApSoutheast1,
    ApSoutheast2,
}

impl Region {
    /// Every region in the catalog, in a stable order.
    pub const ALL: [Region; 12] = [
        Region::UsEast1,
        Region::UsEast2,
        Region::UsWest1,
        Region::UsWest2,
        Region::CaCentral1,
        Region::EuWest1,
        Region::EuWest2,
        Region::EuWest3,
        Region::EuNorth1,
        Region::ApNortheast3,
        Region::ApSoutheast1,
        Region::ApSoutheast2,
    ];

    /// The region's API name, e.g. `"us-east-1"`.
    pub fn name(self) -> &'static str {
        match self {
            Region::UsEast1 => "us-east-1",
            Region::UsEast2 => "us-east-2",
            Region::UsWest1 => "us-west-1",
            Region::UsWest2 => "us-west-2",
            Region::CaCentral1 => "ca-central-1",
            Region::EuWest1 => "eu-west-1",
            Region::EuWest2 => "eu-west-2",
            Region::EuWest3 => "eu-west-3",
            Region::EuNorth1 => "eu-north-1",
            Region::ApNortheast3 => "ap-northeast-3",
            Region::ApSoutheast1 => "ap-southeast-1",
            Region::ApSoutheast2 => "ap-southeast-2",
        }
    }

    /// Number of availability zones the region exposes.
    pub fn az_count(self) -> u8 {
        match self {
            Region::UsEast1 => 6,
            Region::UsEast2 => 3,
            Region::UsWest1 => 2,
            Region::UsWest2 => 4,
            Region::CaCentral1 => 3,
            Region::EuWest1 => 3,
            Region::EuWest2 => 3,
            Region::EuWest3 => 3,
            Region::EuNorth1 => 3,
            Region::ApNortheast3 => 3,
            Region::ApSoutheast1 => 3,
            Region::ApSoutheast2 => 3,
        }
    }

    /// Iterates over the region's availability zones.
    pub fn zones(self) -> impl Iterator<Item = AvailabilityZone> {
        (0..self.az_count()).map(move |index| AvailabilityZone { region: self, index })
    }

    /// The region's modeled spot-capacity depth: how strongly one
    /// account's concentrated fleet crowds the market. Deep hyperscale
    /// regions barely notice 40 instances; small regions (Osaka,
    /// N. California) do — the asymmetry behind the paper's
    /// initial-distribution effect (§5.2.3).
    pub fn capacity_depth_coefficient(self) -> f64 {
        match self {
            // Deep: flagship regions with huge spot pools.
            Region::UsEast1 | Region::UsEast2 | Region::UsWest2 | Region::EuWest1 => 0.2,
            // Medium.
            Region::CaCentral1
            | Region::EuWest2
            | Region::EuWest3
            | Region::EuNorth1
            | Region::ApSoutheast1
            | Region::ApSoutheast2 => 0.7,
            // Shallow: small regions where a 40-instance fleet is material.
            Region::UsWest1 | Region::ApNortheast3 => 1.3,
        }
    }

    /// The geography group the region belongs to (used for inter-region
    /// transfer pricing).
    pub fn geography(self) -> Geography {
        match self {
            Region::UsEast1 | Region::UsEast2 | Region::UsWest1 | Region::UsWest2 => {
                Geography::NorthAmerica
            }
            Region::CaCentral1 => Geography::NorthAmerica,
            Region::EuWest1 | Region::EuWest2 | Region::EuWest3 | Region::EuNorth1 => {
                Geography::Europe
            }
            Region::ApNortheast3 | Region::ApSoutheast1 | Region::ApSoutheast2 => {
                Geography::AsiaPacific
            }
        }
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown region name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRegionError {
    input: String,
}

impl fmt::Display for ParseRegionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown region name `{}`", self.input)
    }
}

impl std::error::Error for ParseRegionError {}

impl FromStr for Region {
    type Err = ParseRegionError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Region::ALL
            .into_iter()
            .find(|r| r.name() == s)
            .ok_or_else(|| ParseRegionError { input: s.to_owned() })
    }
}

/// A broad geography, used for inter-region data-transfer pricing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Geography {
    NorthAmerica,
    Europe,
    AsiaPacific,
}

/// An availability zone within a region, e.g. `ca-central-1b`.
///
/// # Examples
///
/// ```
/// use cloud_market::{AvailabilityZone, Region};
///
/// let az = AvailabilityZone::new(Region::CaCentral1, 1).unwrap();
/// assert_eq!(az.to_string(), "ca-central-1b");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AvailabilityZone {
    region: Region,
    index: u8,
}

impl AvailabilityZone {
    /// Creates a zone by index within a region, or `None` if the index is
    /// out of range for the region.
    pub fn new(region: Region, index: u8) -> Option<Self> {
        (index < region.az_count()).then_some(AvailabilityZone { region, index })
    }

    /// The containing region.
    pub fn region(self) -> Region {
        self.region
    }

    /// The zero-based zone index within the region.
    pub fn index(self) -> u8 {
        self.index
    }

    /// The zone letter suffix (`a`, `b`, …).
    pub fn letter(self) -> char {
        (b'a' + self.index) as char
    }
}

impl fmt::Display for AvailabilityZone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.region.name(), self.letter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip_through_parse() {
        for region in Region::ALL {
            let parsed: Region = region.name().parse().expect("roundtrip");
            assert_eq!(parsed, region);
        }
    }

    #[test]
    fn unknown_region_errors() {
        let err = "mars-north-1".parse::<Region>().unwrap_err();
        assert!(err.to_string().contains("mars-north-1"));
    }

    #[test]
    fn all_is_exhaustive_and_unique() {
        let mut names: Vec<&str> = Region::ALL.iter().map(|r| r.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn zones_match_az_count() {
        for region in Region::ALL {
            assert_eq!(region.zones().count(), region.az_count() as usize);
        }
    }

    #[test]
    fn zone_constructor_validates_index() {
        assert!(AvailabilityZone::new(Region::UsWest1, 1).is_some());
        assert!(AvailabilityZone::new(Region::UsWest1, 2).is_none());
    }

    #[test]
    fn zone_display_uses_letters() {
        let az = AvailabilityZone::new(Region::UsEast1, 5).unwrap();
        assert_eq!(az.to_string(), "us-east-1f");
        assert_eq!(az.letter(), 'f');
        assert_eq!(az.region(), Region::UsEast1);
        assert_eq!(az.index(), 5);
    }

    #[test]
    fn capacity_depth_is_positive_and_tiered() {
        for r in Region::ALL {
            assert!(r.capacity_depth_coefficient() > 0.0);
        }
        assert!(
            Region::UsEast1.capacity_depth_coefficient()
                < Region::ApNortheast3.capacity_depth_coefficient()
        );
    }

    #[test]
    fn geography_partitions_regions() {
        assert_eq!(Region::UsEast1.geography(), Geography::NorthAmerica);
        assert_eq!(Region::EuNorth1.geography(), Geography::Europe);
        assert_eq!(Region::ApNortheast3.geography(), Geography::AsiaPacific);
    }
}
