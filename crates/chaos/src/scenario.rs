//! Declarative chaos scenarios.
//!
//! A [`ChaosScenario`] is a named schedule of [`FaultDirective`]s. All
//! times are offsets **relative to the experiment start**, so the same
//! scenario can be replayed against any experiment window. Scenarios are
//! pure data: the [`crate::engine::ChaosEngine`] compiles them against a
//! seed and a concrete start instant into deterministic injection hooks.

use cloud_market::Region;
use sim_kernel::SimDuration;

/// Which regions a directive applies to.
#[derive(Debug, Clone, PartialEq)]
pub enum RegionScope {
    /// Every region the market offers.
    All,
    /// Only the listed regions.
    Only(Vec<Region>),
}

impl RegionScope {
    /// Whether `region` falls under this scope.
    pub fn covers(&self, region: Region) -> bool {
        match self {
            RegionScope::All => true,
            RegionScope::Only(regions) => regions.contains(&region),
        }
    }
}

/// One declarative fault, active over `[from, until)` offsets from the
/// experiment start. The five variants are the five supported fault
/// classes.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultDirective {
    /// Region-wide spot capacity outage: all spot requests in scope fail,
    /// running spot instances are reclaimed within the window, and the
    /// region's placement score reads as the minimum (1) while active.
    SpotBlackout {
        /// Affected regions.
        scope: RegionScope,
        /// Window start offset.
        from: SimDuration,
        /// Window end offset.
        until: SimDuration,
    },
    /// Correlated interruption burst: the interruption hazard in scope is
    /// multiplied while active (stacking with the §5.2.3 crowding effect).
    HazardBurst {
        /// Affected regions.
        scope: RegionScope,
        /// Window start offset.
        from: SimDuration,
        /// Window end offset.
        until: SimDuration,
        /// Hazard multiplier (> 1 worsens, < 1 calms).
        multiplier: f64,
    },
    /// Lost or late two-minute notices: with `probability`, an instance
    /// interrupted in the window gets a shortened warning drawn uniformly
    /// from `[0, max_notice]` instead of the full 120 s.
    NoticeDisruption {
        /// Affected regions.
        scope: RegionScope,
        /// Window start offset.
        from: SimDuration,
        /// Window end offset.
        until: SimDuration,
        /// Chance a notice in the window is disrupted.
        probability: f64,
        /// Upper bound of the shortened warning (0 = notice fully lost).
        max_notice: SimDuration,
    },
    /// Control-plane degradation: KV, object-store, and function calls
    /// are throttled with `throttle_probability`, and successful calls
    /// gain `added_latency`.
    ControlPlaneDegradation {
        /// Window start offset.
        from: SimDuration,
        /// Window end offset.
        until: SimDuration,
        /// Chance any single call returns a throttling error.
        throttle_probability: f64,
        /// Extra latency on calls that do succeed.
        added_latency: SimDuration,
    },
    /// Event-delivery disruption: each event-bus delivery in the window is
    /// lost with `lose_probability` or (failing that) duplicated with
    /// `duplicate_probability` — the at-least-once/at-most-once failure
    /// modes a real EventBridge consumer must survive. Only event
    /// delivery is affected; request/response services are untouched.
    DeliveryDisruption {
        /// Window start offset.
        from: SimDuration,
        /// Window end offset.
        until: SimDuration,
        /// Chance a delivery is silently dropped.
        lose_probability: f64,
        /// Chance a (non-lost) delivery arrives twice.
        duplicate_probability: f64,
    },
    /// Checkpoint-store corruption: with `probability`, a checkpoint
    /// generation written in the window reads back invalid, forcing the
    /// controller to fall back to an older generation or restart.
    CheckpointCorruption {
        /// Window start offset.
        from: SimDuration,
        /// Window end offset.
        until: SimDuration,
        /// Chance a written checkpoint generation is corrupt.
        probability: f64,
    },
}

impl FaultDirective {
    /// A stable snake_case label for the fault family — used by trace
    /// records and diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            FaultDirective::SpotBlackout { .. } => "spot_blackout",
            FaultDirective::HazardBurst { .. } => "hazard_burst",
            FaultDirective::NoticeDisruption { .. } => "notice_disruption",
            FaultDirective::ControlPlaneDegradation { .. } => "control_plane_degradation",
            FaultDirective::DeliveryDisruption { .. } => "delivery_disruption",
            FaultDirective::CheckpointCorruption { .. } => "checkpoint_corruption",
        }
    }
}

/// A named, ordered schedule of fault directives.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosScenario {
    name: String,
    directives: Vec<FaultDirective>,
}

impl ChaosScenario {
    /// An empty scenario with a display name.
    pub fn new(name: impl Into<String>) -> Self {
        ChaosScenario {
            name: name.into(),
            directives: Vec::new(),
        }
    }

    /// Adds a directive (builder style).
    #[must_use]
    pub fn with(mut self, directive: FaultDirective) -> Self {
        self.directives.push(directive);
        self
    }

    /// The scenario name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The fault schedule.
    pub fn directives(&self) -> &[FaultDirective] {
        &self.directives
    }

    /// The fault-family labels of the schedule, in directive order.
    pub fn directive_kinds(&self) -> Vec<&'static str> {
        self.directives.iter().map(FaultDirective::kind).collect()
    }
}

/// Offset covering any realistic experiment (experiments cap at 30 days).
fn whole_run() -> SimDuration {
    SimDuration::from_days(60)
}

/// `region_blackout`: the cheapest M5 region (the one single-region
/// baselines gravitate to) loses all spot capacity for a day and a half.
pub fn region_blackout() -> ChaosScenario {
    ChaosScenario::new("region_blackout").with(FaultDirective::SpotBlackout {
        scope: RegionScope::Only(vec![Region::CaCentral1]),
        from: SimDuration::from_hours(1),
        until: SimDuration::from_hours(36),
    })
}

/// `notice_loss`: interruption notices are lost (0 s warning) for the
/// whole run with high probability, stressing checkpoint durability.
pub fn notice_loss() -> ChaosScenario {
    ChaosScenario::new("notice_loss").with(FaultDirective::NoticeDisruption {
        scope: RegionScope::All,
        from: SimDuration::ZERO,
        until: whole_run(),
        probability: 0.9,
        max_notice: SimDuration::ZERO,
    })
}

/// `throttle_storm`: the control plane throttles heavily for a day.
pub fn throttle_storm() -> ChaosScenario {
    ChaosScenario::new("throttle_storm").with(FaultDirective::ControlPlaneDegradation {
        from: SimDuration::from_mins(30),
        until: SimDuration::from_hours(24),
        throttle_probability: 0.4,
        added_latency: SimDuration::from_secs(20),
    })
}

/// `correlated_crunch`: a correlated capacity crunch multiplies the
/// interruption hazard across every region for ten hours.
pub fn correlated_crunch() -> ChaosScenario {
    ChaosScenario::new("correlated_crunch").with(FaultDirective::HazardBurst {
        scope: RegionScope::All,
        from: SimDuration::from_hours(2),
        until: SimDuration::from_hours(12),
        multiplier: 8.0,
    })
}

/// `flaky_checkpoints`: the checkpoint store corrupts more than half of
/// everything written to it, for the whole run.
pub fn flaky_checkpoints() -> ChaosScenario {
    ChaosScenario::new("flaky_checkpoints").with(FaultDirective::CheckpointCorruption {
        from: SimDuration::ZERO,
        until: whole_run(),
        probability: 0.6,
    })
}

/// `telemetry_blackout`: the control plane rejects *every* call for eight
/// hours straight, so no fresh advisor snapshot can be collected — the
/// controller must serve stale assessments and eventually degrade to
/// on-demand placement once the snapshot ages past its TTL.
pub fn telemetry_blackout() -> ChaosScenario {
    ChaosScenario::new("telemetry_blackout").with(FaultDirective::ControlPlaneDegradation {
        from: SimDuration::from_hours(1),
        until: SimDuration::from_hours(9),
        throttle_probability: 1.0,
        added_latency: SimDuration::from_secs(30),
    })
}

/// `region_flap`: a top-tier region (one Algorithm 1 actually selects)
/// loses spot capacity in three short bursts. Each flap rejects launches
/// and reclaims running instances, feeding the circuit breaker enough
/// strikes to quarantine the region between bursts.
pub fn region_flap() -> ChaosScenario {
    let flap = |from_h: u64, until_h: u64| FaultDirective::SpotBlackout {
        scope: RegionScope::Only(vec![Region::ApNortheast3]),
        from: SimDuration::from_hours(from_h),
        until: SimDuration::from_hours(until_h),
    };
    ChaosScenario::new("region_flap")
        .with(flap(1, 4))
        .with(flap(6, 9))
        .with(flap(11, 14))
}

/// `sweep_shard_chaos`: the environment a distributed sweep orchestrator
/// must survive — a two-day stretch where the control plane throttles a
/// quarter of all calls and adds latency, while the event bus loses 30 %
/// of shard dispatches outright and duplicates another 20 %. Tuned so
/// shards miss claims, leases expire, and re-drives occasionally exhaust
/// their attempts into the dead-letter path.
pub fn sweep_shard_chaos() -> ChaosScenario {
    ChaosScenario::new("sweep_shard_chaos")
        .with(FaultDirective::ControlPlaneDegradation {
            from: SimDuration::ZERO,
            until: SimDuration::from_hours(48),
            throttle_probability: 0.25,
            added_latency: SimDuration::from_secs(15),
        })
        .with(FaultDirective::DeliveryDisruption {
            from: SimDuration::ZERO,
            until: SimDuration::from_hours(48),
            lose_probability: 0.3,
            duplicate_probability: 0.2,
        })
}

/// Names of every scenario in the shipped library, in display order.
pub const SCENARIO_NAMES: [&str; 8] = [
    "region_blackout",
    "notice_loss",
    "throttle_storm",
    "correlated_crunch",
    "flaky_checkpoints",
    "telemetry_blackout",
    "region_flap",
    "sweep_shard_chaos",
];

/// The full shipped scenario library.
pub fn library() -> Vec<ChaosScenario> {
    vec![
        region_blackout(),
        notice_loss(),
        throttle_storm(),
        correlated_crunch(),
        flaky_checkpoints(),
        telemetry_blackout(),
        region_flap(),
        sweep_shard_chaos(),
    ]
}

/// Looks a library scenario up by name.
pub fn by_name(name: &str) -> Option<ChaosScenario> {
    library().into_iter().find(|s| s.name() == name)
}

/// Composes the chaos accent matched to a market regime — the fault
/// schedule a tournament layers on top of the regime's own market-level
/// stress so strategies are graded under the *combination*, not either
/// alone. `Baseline` gets no accent (`None`): fault-free baseline runs
/// must stay byte-identical to the pre-regime engine.
pub fn for_regime(regime: cloud_market::MarketRegime) -> Option<ChaosScenario> {
    use cloud_market::MarketRegime;
    match regime {
        MarketRegime::Baseline => None,
        // A capacity crunch squeezes supply: the cheap region every
        // single-region baseline gravitates to blacks out inside a
        // fleet-wide hazard burst.
        MarketRegime::CapacityCrunch => Some(
            ChaosScenario::new("crunch_squeeze")
                .with(FaultDirective::HazardBurst {
                    scope: RegionScope::All,
                    from: SimDuration::from_hours(4),
                    until: SimDuration::from_hours(18),
                    multiplier: 3.0,
                })
                .with(FaultDirective::SpotBlackout {
                    scope: RegionScope::Only(vec![Region::CaCentral1]),
                    from: SimDuration::from_hours(6),
                    until: SimDuration::from_hours(12),
                }),
        ),
        // Correlated shocks arrive fast and wide: warnings shrink, so
        // checkpoint cadence (not reaction speed) decides survival.
        MarketRegime::CorrelatedShock => Some(
            ChaosScenario::new("shock_notices").with(FaultDirective::NoticeDisruption {
                scope: RegionScope::All,
                from: SimDuration::ZERO,
                until: whole_run(),
                probability: 0.5,
                max_notice: SimDuration::from_secs(30),
            }),
        ),
        // Regime flips stress the control plane's picture of the world:
        // throttled telemetry plus a mid-run hazard spike.
        MarketRegime::RegimeSwitching => Some(
            ChaosScenario::new("switching_turbulence")
                .with(FaultDirective::ControlPlaneDegradation {
                    from: SimDuration::from_hours(2),
                    until: SimDuration::from_hours(26),
                    throttle_probability: 0.2,
                    added_latency: SimDuration::from_secs(10),
                })
                .with(FaultDirective::HazardBurst {
                    scope: RegionScope::All,
                    from: SimDuration::from_hours(30),
                    until: SimDuration::from_hours(40),
                    multiplier: 4.0,
                }),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_matches_names() {
        let lib = library();
        assert_eq!(lib.len(), SCENARIO_NAMES.len());
        for (scenario, name) in lib.iter().zip(SCENARIO_NAMES) {
            assert_eq!(scenario.name(), name);
            assert!(!scenario.directives().is_empty());
        }
    }

    #[test]
    fn by_name_finds_each() {
        for name in SCENARIO_NAMES {
            assert!(by_name(name).is_some(), "{name} missing from library");
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn scope_covers() {
        assert!(RegionScope::All.covers(Region::UsEast1));
        let only = RegionScope::Only(vec![Region::CaCentral1]);
        assert!(only.covers(Region::CaCentral1));
        assert!(!only.covers(Region::UsEast1));
    }

    #[test]
    fn builder_appends() {
        let s = ChaosScenario::new("custom")
            .with(FaultDirective::SpotBlackout {
                scope: RegionScope::All,
                from: SimDuration::ZERO,
                until: SimDuration::from_hours(1),
            })
            .with(FaultDirective::CheckpointCorruption {
                from: SimDuration::ZERO,
                until: SimDuration::from_hours(2),
                probability: 1.0,
            });
        assert_eq!(s.directives().len(), 2);
        assert_eq!(s.name(), "custom");
        assert_eq!(s.directive_kinds(), vec!["spot_blackout", "checkpoint_corruption"]);
    }

    #[test]
    fn regime_accents_cover_every_non_baseline_regime() {
        assert!(for_regime(cloud_market::MarketRegime::Baseline).is_none());
        for regime in cloud_market::MarketRegime::ALL {
            if regime.is_baseline() {
                continue;
            }
            let scenario = for_regime(regime).expect("non-baseline regime has a chaos accent");
            assert!(!scenario.directives().is_empty());
            assert!(!scenario.name().is_empty());
        }
    }

    #[test]
    fn directive_kinds_are_stable_labels() {
        assert_eq!(
            region_blackout().directive_kinds(),
            vec!["spot_blackout"]
        );
        assert_eq!(notice_loss().directive_kinds(), vec!["notice_disruption"]);
        assert_eq!(
            throttle_storm().directive_kinds(),
            vec!["control_plane_degradation"]
        );
        assert_eq!(correlated_crunch().directive_kinds(), vec!["hazard_burst"]);
        assert_eq!(
            sweep_shard_chaos().directive_kinds(),
            vec!["control_plane_degradation", "delivery_disruption"]
        );
    }
}
