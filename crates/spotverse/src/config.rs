//! SpotVerse configuration.

use cloud_market::{InstanceType, Region};

/// How SpotVerse places the fleet initially (paper §5.2.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InitialPlacement {
    /// Start every workload in one region and rely on migration (the
    /// configuration of the §5.2.1 experiments).
    SingleRegion(Region),
    /// Distribute round-robin over the top-scoring regions (the full
    /// Algorithm 1 initial-distribution strategy).
    Distributed,
}

/// SpotVerse configuration: the inputs of Algorithm 1.
///
/// # Examples
///
/// ```
/// use cloud_market::{InstanceType, Region};
/// use spotverse::{InitialPlacement, SpotVerseConfig};
///
/// let config = SpotVerseConfig::builder(InstanceType::M5Xlarge)
///     .threshold(6)
///     .max_regions(4)
///     .initial_placement(InitialPlacement::SingleRegion(Region::CaCentral1))
///     .build();
/// assert_eq!(config.threshold(), 6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SpotVerseConfig {
    instance_type: InstanceType,
    threshold: u8,
    max_regions: usize,
    initial_placement: InitialPlacement,
    preferred_regions: Option<Vec<Region>>,
}

impl SpotVerseConfig {
    /// Starts building a configuration for an instance type.
    pub fn builder(instance_type: InstanceType) -> SpotVerseConfigBuilder {
        SpotVerseConfigBuilder {
            instance_type,
            threshold: 6,
            max_regions: 4,
            initial_placement: InitialPlacement::Distributed,
            preferred_regions: None,
        }
    }

    /// The paper's default configuration: threshold 6, four regions,
    /// distributed initial placement.
    pub fn paper_default(instance_type: InstanceType) -> Self {
        SpotVerseConfig::builder(instance_type).build()
    }

    /// The instance type being managed.
    pub fn instance_type(&self) -> InstanceType {
        self.instance_type
    }

    /// The combined-score threshold `T` of Algorithm 1.
    pub fn threshold(&self) -> u8 {
        self.threshold
    }

    /// The maximum number of regions `R` of Algorithm 1 (the paper sets 4).
    pub fn max_regions(&self) -> usize {
        self.max_regions
    }

    /// The initial placement strategy.
    pub fn initial_placement(&self) -> &InitialPlacement {
        &self.initial_placement
    }

    /// User-preferred regions, if restricted.
    pub fn preferred_regions(&self) -> Option<&[Region]> {
        self.preferred_regions.as_deref()
    }

    /// Whether a region is admissible under the preference filter.
    pub fn allows_region(&self, region: Region) -> bool {
        match &self.preferred_regions {
            Some(preferred) => preferred.contains(&region),
            None => true,
        }
    }
}

/// Builder for [`SpotVerseConfig`].
#[derive(Debug, Clone)]
pub struct SpotVerseConfigBuilder {
    instance_type: InstanceType,
    threshold: u8,
    max_regions: usize,
    initial_placement: InitialPlacement,
    preferred_regions: Option<Vec<Region>>,
}

impl SpotVerseConfigBuilder {
    /// Sets the combined-score threshold (paper evaluates 4, 5, 6).
    pub fn threshold(mut self, threshold: u8) -> Self {
        self.threshold = threshold;
        self
    }

    /// Sets the maximum number of target regions.
    ///
    /// # Panics
    ///
    /// Panics if `max_regions` is zero.
    pub fn max_regions(mut self, max_regions: usize) -> Self {
        assert!(max_regions > 0, "max_regions must be positive");
        self.max_regions = max_regions;
        self
    }

    /// Sets the initial placement strategy.
    pub fn initial_placement(mut self, placement: InitialPlacement) -> Self {
        self.initial_placement = placement;
        self
    }

    /// Restricts SpotVerse to user-preferred regions.
    pub fn preferred_regions(mut self, regions: Vec<Region>) -> Self {
        self.preferred_regions = Some(regions);
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> SpotVerseConfig {
        SpotVerseConfig {
            instance_type: self.instance_type,
            threshold: self.threshold,
            max_regions: self.max_regions,
            initial_placement: self.initial_placement,
            preferred_regions: self.preferred_regions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SpotVerseConfig::paper_default(InstanceType::M5Xlarge);
        assert_eq!(c.threshold(), 6);
        assert_eq!(c.max_regions(), 4);
        assert_eq!(c.initial_placement(), &InitialPlacement::Distributed);
        assert_eq!(c.preferred_regions(), None);
        assert!(c.allows_region(Region::UsEast1));
    }

    #[test]
    fn builder_overrides() {
        let c = SpotVerseConfig::builder(InstanceType::R52xlarge)
            .threshold(4)
            .max_regions(2)
            .initial_placement(InitialPlacement::SingleRegion(Region::CaCentral1))
            .preferred_regions(vec![Region::CaCentral1, Region::UsEast1])
            .build();
        assert_eq!(c.instance_type(), InstanceType::R52xlarge);
        assert_eq!(c.threshold(), 4);
        assert_eq!(c.max_regions(), 2);
        assert!(c.allows_region(Region::UsEast1));
        assert!(!c.allows_region(Region::EuWest1));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_max_regions_rejected() {
        let _ = SpotVerseConfig::builder(InstanceType::M5Xlarge).max_regions(0);
    }
}
