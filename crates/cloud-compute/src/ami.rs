//! Amazon-Machine-Image propagation (paper §4, "Galaxy and Tool
//! Integration"): a customized AMI (Galaxy + tools + Planemo + API key) is
//! built once and copied to every region SpotVerse may launch in, paying
//! inter-region transfer for each copy.

use std::collections::{BTreeSet, HashMap};
use std::fmt;

use sim_kernel::SimTime;

use cloud_market::Region;
#[cfg(test)]
use cloud_market::Usd;

use crate::billing::{BillingLedger, ServiceKind};
use crate::transfer;

/// Identifier of a machine image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AmiId(u64);

impl fmt::Display for AmiId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ami-{:08x}", self.0)
    }
}

/// A registered machine image.
#[derive(Debug, Clone, PartialEq)]
pub struct Ami {
    id: AmiId,
    name: String,
    size_gib: f64,
    home_region: Region,
    regions: BTreeSet<Region>,
}

impl Ami {
    /// The image id.
    pub fn id(&self) -> AmiId {
        self.id
    }

    /// Display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Image size in GiB (drives copy cost and latency).
    pub fn size_gib(&self) -> f64 {
        self.size_gib
    }

    /// Region the image was built in.
    pub fn home_region(&self) -> Region {
        self.home_region
    }

    /// Regions the image is currently available in.
    pub fn regions(&self) -> impl Iterator<Item = Region> + '_ {
        self.regions.iter().copied()
    }

    /// Whether the image can be launched in `region`.
    pub fn is_available_in(&self, region: Region) -> bool {
        self.regions.contains(&region)
    }
}

/// Errors from the AMI catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AmiError {
    /// No image with that id.
    UnknownAmi(AmiId),
}

impl fmt::Display for AmiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AmiError::UnknownAmi(id) => write!(f, "unknown AMI {id}"),
        }
    }
}

impl std::error::Error for AmiError {}

/// The per-account image catalog.
///
/// # Examples
///
/// ```
/// use cloud_compute::{AmiCatalog, BillingLedger};
/// use cloud_market::Region;
/// use sim_kernel::SimTime;
///
/// let mut catalog = AmiCatalog::new();
/// let mut ledger = BillingLedger::new();
/// let ami = catalog.register("galaxy-spotverse", 12.0, Region::CaCentral1);
/// let done = catalog
///     .copy_to(ami, Region::EuNorth1, SimTime::ZERO, &mut ledger)
///     .unwrap();
/// assert!(done > SimTime::ZERO);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AmiCatalog {
    images: HashMap<AmiId, Ami>,
    next_id: u64,
}

impl AmiCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        AmiCatalog::default()
    }

    /// Registers an image built in `home_region`.
    pub fn register(&mut self, name: impl Into<String>, size_gib: f64, home_region: Region) -> AmiId {
        assert!(size_gib > 0.0, "AMI size must be positive");
        self.next_id += 1;
        let id = AmiId(self.next_id);
        let mut regions = BTreeSet::new();
        regions.insert(home_region);
        self.images.insert(
            id,
            Ami {
                id,
                name: name.into(),
                size_gib,
                home_region,
                regions,
            },
        );
        id
    }

    /// Looks up an image.
    pub fn get(&self, id: AmiId) -> Option<&Ami> {
        self.images.get(&id)
    }

    /// Copies an image to `region`, charging transfer cost to `ledger` and
    /// returning when the copy completes. Copying to a region that already
    /// has the image is free and instantaneous.
    ///
    /// # Errors
    ///
    /// Returns [`AmiError::UnknownAmi`] for an unregistered id.
    pub fn copy_to(
        &mut self,
        id: AmiId,
        region: Region,
        at: SimTime,
        ledger: &mut BillingLedger,
    ) -> Result<SimTime, AmiError> {
        let ami = self.images.get_mut(&id).ok_or(AmiError::UnknownAmi(id))?;
        if ami.regions.contains(&region) {
            return Ok(at);
        }
        let from = ami.home_region;
        let cost = transfer::transfer_cost(from, region, ami.size_gib);
        ledger.charge(at, ServiceKind::DataTransfer, region, cost);
        ami.regions.insert(region);
        Ok(at + transfer::transfer_time(from, region, ami.size_gib))
    }

    /// Copies an image to every region in `regions`, returning the latest
    /// completion time.
    ///
    /// # Errors
    ///
    /// Returns [`AmiError::UnknownAmi`] for an unregistered id.
    pub fn propagate(
        &mut self,
        id: AmiId,
        regions: impl IntoIterator<Item = Region>,
        at: SimTime,
        ledger: &mut BillingLedger,
    ) -> Result<SimTime, AmiError> {
        let mut done = at;
        for region in regions {
            done = done.max(self.copy_to(id, region, at, ledger)?);
        }
        Ok(done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_copy() {
        let mut catalog = AmiCatalog::new();
        let mut ledger = BillingLedger::new();
        let ami = catalog.register("img", 10.0, Region::UsEast1);
        assert!(catalog.get(ami).unwrap().is_available_in(Region::UsEast1));
        assert!(!catalog.get(ami).unwrap().is_available_in(Region::EuWest1));
        let done = catalog
            .copy_to(ami, Region::EuWest1, SimTime::ZERO, &mut ledger)
            .unwrap();
        assert!(done > SimTime::ZERO);
        assert!(catalog.get(ami).unwrap().is_available_in(Region::EuWest1));
        assert!(ledger.total_for_service(ServiceKind::DataTransfer) > Usd::ZERO);
    }

    #[test]
    fn recopy_is_free() {
        let mut catalog = AmiCatalog::new();
        let mut ledger = BillingLedger::new();
        let ami = catalog.register("img", 10.0, Region::UsEast1);
        catalog
            .copy_to(ami, Region::EuWest1, SimTime::ZERO, &mut ledger)
            .unwrap();
        let before = ledger.total();
        let done = catalog
            .copy_to(ami, Region::EuWest1, SimTime::from_hours(1), &mut ledger)
            .unwrap();
        assert_eq!(done, SimTime::from_hours(1));
        assert_eq!(ledger.total(), before);
    }

    #[test]
    fn propagate_reaches_all_regions() {
        let mut catalog = AmiCatalog::new();
        let mut ledger = BillingLedger::new();
        let ami = catalog.register("img", 8.0, Region::CaCentral1);
        catalog
            .propagate(ami, Region::ALL, SimTime::ZERO, &mut ledger)
            .unwrap();
        for r in Region::ALL {
            assert!(catalog.get(ami).unwrap().is_available_in(r));
        }
        assert_eq!(catalog.get(ami).unwrap().regions().count(), 12);
    }

    #[test]
    fn unknown_ami_errors() {
        let mut catalog = AmiCatalog::new();
        let mut ledger = BillingLedger::new();
        let err = catalog
            .copy_to(AmiId(77), Region::UsEast1, SimTime::ZERO, &mut ledger)
            .unwrap_err();
        assert!(err.to_string().contains("unknown AMI"));
    }

    #[test]
    fn cross_geography_copies_cost_more() {
        let mut catalog = AmiCatalog::new();
        let mut ledger_near = BillingLedger::new();
        let mut ledger_far = BillingLedger::new();
        let near = catalog.register("img", 10.0, Region::UsEast1);
        catalog
            .copy_to(near, Region::UsWest2, SimTime::ZERO, &mut ledger_near)
            .unwrap();
        let far = catalog.register("img2", 10.0, Region::UsEast1);
        catalog
            .copy_to(far, Region::ApSoutheast1, SimTime::ZERO, &mut ledger_far)
            .unwrap();
        assert!(ledger_far.total() > ledger_near.total());
    }
}
