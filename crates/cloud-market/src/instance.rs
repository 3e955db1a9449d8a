//! The instance-type catalog: the six EC2 types the paper evaluates.

use std::fmt;
use std::str::FromStr;

use crate::money::UsdPerHour;

/// An instance family (paper §2.1.2: compute-, memory-, general-purpose and
/// GPU-optimized representatives).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum InstanceFamily {
    M5,
    C5,
    R5,
    P3,
}

impl InstanceFamily {
    /// Human-readable family description, as used in the paper's figures.
    pub fn description(self) -> &'static str {
        match self {
            InstanceFamily::M5 => "general-purpose",
            InstanceFamily::C5 => "compute-optimized",
            InstanceFamily::R5 => "memory-optimized",
            InstanceFamily::P3 => "GPU-optimized",
        }
    }
}

/// An instance size within a family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum InstanceSize {
    Large,
    Xlarge,
    Xlarge2,
}

impl InstanceSize {
    /// The size suffix as it appears in type names.
    pub fn suffix(self) -> &'static str {
        match self {
            InstanceSize::Large => "large",
            InstanceSize::Xlarge => "xlarge",
            InstanceSize::Xlarge2 => "2xlarge",
        }
    }
}

/// An instance type evaluated in the paper.
///
/// # Examples
///
/// ```
/// use cloud_market::InstanceType;
///
/// let it: InstanceType = "m5.xlarge".parse()?;
/// assert_eq!(it, InstanceType::M5Xlarge);
/// assert_eq!(it.vcpus(), 4);
/// # Ok::<(), cloud_market::ParseInstanceTypeError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum InstanceType {
    M5Large,
    M5Xlarge,
    M52xlarge,
    C52xlarge,
    R52xlarge,
    P32xlarge,
}

impl InstanceType {
    /// Every instance type in the catalog, in a stable order.
    pub const ALL: [InstanceType; 6] = [
        InstanceType::M5Large,
        InstanceType::M5Xlarge,
        InstanceType::M52xlarge,
        InstanceType::C52xlarge,
        InstanceType::R52xlarge,
        InstanceType::P32xlarge,
    ];

    /// The API name, e.g. `"m5.xlarge"`.
    pub fn name(self) -> &'static str {
        match self {
            InstanceType::M5Large => "m5.large",
            InstanceType::M5Xlarge => "m5.xlarge",
            InstanceType::M52xlarge => "m5.2xlarge",
            InstanceType::C52xlarge => "c5.2xlarge",
            InstanceType::R52xlarge => "r5.2xlarge",
            InstanceType::P32xlarge => "p3.2xlarge",
        }
    }

    /// The family.
    pub fn family(self) -> InstanceFamily {
        match self {
            InstanceType::M5Large | InstanceType::M5Xlarge | InstanceType::M52xlarge => {
                InstanceFamily::M5
            }
            InstanceType::C52xlarge => InstanceFamily::C5,
            InstanceType::R52xlarge => InstanceFamily::R5,
            InstanceType::P32xlarge => InstanceFamily::P3,
        }
    }

    /// The size.
    pub fn size(self) -> InstanceSize {
        match self {
            InstanceType::M5Large => InstanceSize::Large,
            InstanceType::M5Xlarge => InstanceSize::Xlarge,
            _ => InstanceSize::Xlarge2,
        }
    }

    /// Virtual CPU count.
    pub fn vcpus(self) -> u32 {
        match self {
            InstanceType::M5Large => 2,
            InstanceType::M5Xlarge => 4,
            InstanceType::M52xlarge | InstanceType::C52xlarge | InstanceType::R52xlarge => 8,
            InstanceType::P32xlarge => 8,
        }
    }

    /// Memory in GiB.
    pub fn memory_gib(self) -> u32 {
        match self {
            InstanceType::M5Large => 8,
            InstanceType::M5Xlarge => 16,
            InstanceType::M52xlarge => 32,
            InstanceType::C52xlarge => 16,
            InstanceType::R52xlarge => 64,
            InstanceType::P32xlarge => 61,
        }
    }

    /// GPU count (only P3 carries GPUs in this catalog).
    pub fn gpus(self) -> u32 {
        match self {
            InstanceType::P32xlarge => 1,
            _ => 0,
        }
    }

    /// The reference (us-east-1) on-demand hourly price.
    ///
    /// Regional prices apply a per-region multiplier on top of this; see
    /// [`crate::profiles::on_demand_price`].
    pub fn reference_on_demand_price(self) -> UsdPerHour {
        let rate = match self {
            InstanceType::M5Large => 0.096,
            InstanceType::M5Xlarge => 0.192,
            InstanceType::M52xlarge => 0.384,
            InstanceType::C52xlarge => 0.34,
            InstanceType::R52xlarge => 0.504,
            InstanceType::P32xlarge => 3.06,
        };
        UsdPerHour::new(rate)
    }
}

impl fmt::Display for InstanceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown instance-type name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseInstanceTypeError {
    input: String,
}

impl fmt::Display for ParseInstanceTypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown instance type `{}`", self.input)
    }
}

impl std::error::Error for ParseInstanceTypeError {}

impl FromStr for InstanceType {
    type Err = ParseInstanceTypeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        InstanceType::ALL
            .into_iter()
            .find(|t| t.name() == s)
            .ok_or_else(|| ParseInstanceTypeError { input: s.to_owned() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for t in InstanceType::ALL {
            assert_eq!(t.name().parse::<InstanceType>().unwrap(), t);
        }
    }

    #[test]
    fn unknown_type_errors() {
        let err = "z9.mega".parse::<InstanceType>().unwrap_err();
        assert!(err.to_string().contains("z9.mega"));
    }

    #[test]
    fn families_and_sizes() {
        assert_eq!(InstanceType::M5Large.family(), InstanceFamily::M5);
        assert_eq!(InstanceType::M5Large.size(), InstanceSize::Large);
        assert_eq!(InstanceType::C52xlarge.size(), InstanceSize::Xlarge2);
        assert_eq!(InstanceType::P32xlarge.family(), InstanceFamily::P3);
        assert_eq!(InstanceSize::Xlarge2.suffix(), "2xlarge");
        assert_eq!(InstanceFamily::R5.description(), "memory-optimized");
    }

    #[test]
    fn specs_scale_within_family() {
        assert!(InstanceType::M5Large.vcpus() < InstanceType::M5Xlarge.vcpus());
        assert!(InstanceType::M5Xlarge.memory_gib() < InstanceType::M52xlarge.memory_gib());
        assert_eq!(InstanceType::P32xlarge.gpus(), 1);
        assert_eq!(InstanceType::M5Xlarge.gpus(), 0);
    }

    #[test]
    fn on_demand_prices_scale_with_size() {
        let large = InstanceType::M5Large.reference_on_demand_price();
        let xlarge = InstanceType::M5Xlarge.reference_on_demand_price();
        let xl2 = InstanceType::M52xlarge.reference_on_demand_price();
        assert!((xlarge.rate() - 2.0 * large.rate()).abs() < 1e-9);
        assert!((xl2.rate() - 2.0 * xlarge.rate()).abs() < 1e-9);
    }
}
