//! The chaos engine: compiles a [`ChaosScenario`] + seed + start instant
//! into concrete, deterministic injection hooks for every substrate seam.
//!
//! Determinism contract: with the same scenario, seed, and start time, the
//! engine answers every query identically across runs — and with no
//! scenario (or outside every fault window) it consumes no randomness, so
//! installing a neutral engine leaves an experiment's event trace
//! byte-identical to the fault-free run.

use cloud_compute::{FaultInjector, INTERRUPTION_NOTICE};
use cloud_market::{MarketOverlay, OverlayWindow, PlacementScore, Region};
use sim_kernel::{keyed_hash, SimDuration, SimRng, SimTime};

use crate::scenario::{ChaosScenario, FaultDirective, RegionScope};

/// A compiled notice-disruption window (absolute times).
#[derive(Debug, Clone)]
struct NoticeWindow {
    scope: RegionScope,
    from: SimTime,
    until: SimTime,
    probability: f64,
    max_notice: SimDuration,
}

/// A compiled control-plane degradation window (absolute times).
#[derive(Debug, Clone)]
struct ControlWindow {
    from: SimTime,
    until: SimTime,
    throttle_probability: f64,
    added_latency: SimDuration,
}

/// A compiled event-delivery disruption window (absolute times).
#[derive(Debug, Clone)]
struct DeliveryWindow {
    from: SimTime,
    until: SimTime,
    lose_probability: f64,
    duplicate_probability: f64,
}

/// A compiled checkpoint-corruption window (absolute times).
#[derive(Debug, Clone)]
struct CkptWindow {
    from: SimTime,
    until: SimTime,
    probability: f64,
}

/// The compiled form of one scenario, bound to a seed and a start instant.
///
/// The engine hands out per-substrate injectors ([`compute_injector`],
/// [`service_injector`]) and answers controller-side policy queries
/// (notice duration, checkpoint corruption) itself.
///
/// [`compute_injector`]: ChaosEngine::compute_injector
/// [`service_injector`]: ChaosEngine::service_injector
#[derive(Debug, Clone)]
pub struct ChaosEngine {
    seed: u64,
    overlay: MarketOverlay,
    notice_windows: Vec<NoticeWindow>,
    control_windows: Vec<ControlWindow>,
    delivery_windows: Vec<DeliveryWindow>,
    ckpt_windows: Vec<CkptWindow>,
    notice_rng: SimRng,
}

impl ChaosEngine {
    /// Compiles `scenario` against `seed` at absolute `start`.
    pub fn new(scenario: &ChaosScenario, seed: u64, start: SimTime) -> Self {
        let mut overlay = MarketOverlay::new();
        let mut notice_windows = Vec::new();
        let mut control_windows = Vec::new();
        let mut delivery_windows = Vec::new();
        let mut ckpt_windows = Vec::new();
        for directive in scenario.directives() {
            match directive {
                FaultDirective::SpotBlackout { scope, from, until } => {
                    let mut w =
                        OverlayWindow::new(scope_regions(scope), start + *from, start + *until);
                    w.blackout = true;
                    w.placement_cap = Some(PlacementScore::MIN);
                    overlay.push(w);
                }
                FaultDirective::HazardBurst {
                    scope,
                    from,
                    until,
                    multiplier,
                } => {
                    let mut w =
                        OverlayWindow::new(scope_regions(scope), start + *from, start + *until);
                    w.hazard_multiplier = *multiplier;
                    overlay.push(w);
                }
                FaultDirective::NoticeDisruption {
                    scope,
                    from,
                    until,
                    probability,
                    max_notice,
                } => notice_windows.push(NoticeWindow {
                    scope: scope.clone(),
                    from: start + *from,
                    until: start + *until,
                    probability: *probability,
                    max_notice: *max_notice,
                }),
                FaultDirective::ControlPlaneDegradation {
                    from,
                    until,
                    throttle_probability,
                    added_latency,
                } => control_windows.push(ControlWindow {
                    from: start + *from,
                    until: start + *until,
                    throttle_probability: *throttle_probability,
                    added_latency: *added_latency,
                }),
                FaultDirective::DeliveryDisruption {
                    from,
                    until,
                    lose_probability,
                    duplicate_probability,
                } => delivery_windows.push(DeliveryWindow {
                    from: start + *from,
                    until: start + *until,
                    lose_probability: *lose_probability,
                    duplicate_probability: *duplicate_probability,
                }),
                FaultDirective::CheckpointCorruption {
                    from,
                    until,
                    probability,
                } => ckpt_windows.push(CkptWindow {
                    from: start + *from,
                    until: start + *until,
                    probability: *probability,
                }),
            }
        }
        let notice_rng = SimRng::seed_from_u64(seed).fork("chaos-notice");
        ChaosEngine {
            seed,
            overlay,
            notice_windows,
            control_windows,
            delivery_windows,
            ckpt_windows,
            notice_rng,
        }
    }

    /// The market-facing overlay (score pins, hazard windows, blackouts).
    pub fn overlay(&self) -> &MarketOverlay {
        &self.overlay
    }

    /// Whether `region` is inside a spot blackout at `at`.
    pub fn is_blackout(&self, region: Region, at: SimTime) -> bool {
        self.overlay.is_blackout(region, at)
    }

    /// An injector for [`cloud_compute::Ec2::set_fault_injector`]. Pure —
    /// consults only compiled windows, never randomness.
    pub fn compute_injector(&self) -> Box<dyn FaultInjector> {
        Box::new(ComputeChaos {
            overlay: self.overlay.clone(),
        })
    }

    /// An injector for one managed service, with its own substream named
    /// by `label` (e.g. `"kv"`, `"s3"`, `"fn"`) so services draw
    /// independently but reproducibly.
    pub fn service_injector(&self, label: &str) -> Box<dyn aws_stack::ServiceFaultInjector> {
        Box::new(ServiceChaos {
            windows: self.control_windows.clone(),
            delivery: self.delivery_windows.clone(),
            rng: SimRng::seed_from_u64(self.seed)
                .fork("chaos-service")
                .fork(label),
        })
    }

    /// The interruption warning an instance in `region` reclaimed at
    /// `reclaim_at` actually receives. Outside every notice-disruption
    /// window this is the full two minutes and no randomness is consumed.
    pub fn notice_duration(&mut self, region: Region, reclaim_at: SimTime) -> SimDuration {
        for w in &self.notice_windows {
            if reclaim_at >= w.from && reclaim_at < w.until && w.scope.covers(region) {
                if self.notice_rng.chance(w.probability) {
                    let max = w.max_notice.as_secs().min(INTERRUPTION_NOTICE.as_secs());
                    let secs = if max == 0 {
                        0
                    } else {
                        self.notice_rng.uniform_u64(max + 1)
                    };
                    return SimDuration::from_secs(secs);
                }
                return INTERRUPTION_NOTICE;
            }
        }
        INTERRUPTION_NOTICE
    }

    /// Whether the checkpoint generation `generation` of `workload`,
    /// written at `written_at`, reads back corrupt. A pure hash draw over
    /// `(seed, workload, generation)`: the verdict is identical whenever
    /// it is asked (at write, at read, in a replay).
    pub fn checkpoint_corrupted(
        &self,
        workload: &str,
        generation: u64,
        written_at: SimTime,
    ) -> bool {
        for w in &self.ckpt_windows {
            if written_at >= w.from && written_at < w.until {
                return hash_unit(self.seed, workload, generation) < w.probability;
            }
        }
        false
    }
}

fn scope_regions(scope: &RegionScope) -> Option<Vec<Region>> {
    match scope {
        RegionScope::All => None,
        RegionScope::Only(regions) => Some(regions.clone()),
    }
}

/// A deterministic draw in `[0, 1)`: the top 53 bits of the kernel's
/// [`keyed_hash`] of `(seed, generation, workload)`.
fn hash_unit(seed: u64, workload: &str, generation: u64) -> f64 {
    (keyed_hash(seed, generation, workload) >> 11) as f64 / (1u64 << 53) as f64
}

/// Pure window-driven injector for the compute substrate.
#[derive(Debug)]
struct ComputeChaos {
    overlay: MarketOverlay,
}

impl FaultInjector for ComputeChaos {
    fn spot_blocked(&self, region: Region, at: SimTime) -> bool {
        self.overlay.is_blackout(region, at)
    }

    fn hazard_multiplier(&self, region: Region, at: SimTime) -> f64 {
        self.overlay.hazard_multiplier(region, at)
    }

    fn forced_reclaim_window(&self, region: Region, at: SimTime) -> Option<(SimTime, SimTime)> {
        self.overlay.next_blackout_window(region, at)
    }
}

/// Seeded injector for one managed service.
#[derive(Debug)]
struct ServiceChaos {
    windows: Vec<ControlWindow>,
    delivery: Vec<DeliveryWindow>,
    rng: SimRng,
}

impl aws_stack::ServiceFaultInjector for ServiceChaos {
    fn intercept(
        &mut self,
        op: aws_stack::ServiceOp,
        at: SimTime,
    ) -> Option<aws_stack::ServiceFault> {
        // Event deliveries answer only to delivery windows; request/response
        // calls only to control windows. Keeps the two fault families on
        // disjoint RNG-consumption paths so adding one never perturbs the
        // other.
        if op == aws_stack::ServiceOp::EventDeliver {
            for w in &self.delivery {
                if at >= w.from && at < w.until {
                    if w.lose_probability > 0.0 && self.rng.chance(w.lose_probability) {
                        return Some(aws_stack::ServiceFault::Lost);
                    }
                    if w.duplicate_probability > 0.0 && self.rng.chance(w.duplicate_probability) {
                        return Some(aws_stack::ServiceFault::Duplicate);
                    }
                    return None;
                }
            }
            return None;
        }
        for w in &self.windows {
            if at >= w.from && at < w.until {
                if w.throttle_probability > 0.0 && self.rng.chance(w.throttle_probability) {
                    return Some(aws_stack::ServiceFault::Throttled);
                }
                if w.added_latency > SimDuration::ZERO {
                    return Some(aws_stack::ServiceFault::Delayed(w.added_latency));
                }
                return None;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;

    fn t(hours: u64) -> SimTime {
        SimTime::from_hours(hours)
    }

    #[test]
    fn blackout_compiles_to_overlay_and_compute_hooks() {
        let engine = ChaosEngine::new(&scenario::region_blackout(), 7, SimTime::ZERO);
        let inj = engine.compute_injector();
        assert!(inj.spot_blocked(Region::CaCentral1, t(2)));
        assert!(!inj.spot_blocked(Region::CaCentral1, t(40)));
        assert!(!inj.spot_blocked(Region::UsEast1, t(2)));
        assert!(engine.is_blackout(Region::CaCentral1, t(2)));
        let (from, until) = inj.forced_reclaim_window(Region::CaCentral1, t(0)).unwrap();
        assert_eq!(from, t(1));
        assert_eq!(until, t(36));
        assert_eq!(
            engine
                .overlay()
                .placement_score(Region::CaCentral1, t(2), PlacementScore::new(9).unwrap())
                .value(),
            1
        );
    }

    #[test]
    fn hazard_burst_multiplies_only_inside_window() {
        let engine = ChaosEngine::new(&scenario::correlated_crunch(), 7, SimTime::ZERO);
        let inj = engine.compute_injector();
        assert_eq!(inj.hazard_multiplier(Region::UsEast1, t(5)), 8.0);
        assert_eq!(inj.hazard_multiplier(Region::UsEast1, t(13)), 1.0);
    }

    #[test]
    fn notice_loss_shortens_notices_deterministically() {
        let mut a = ChaosEngine::new(&scenario::notice_loss(), 7, SimTime::ZERO);
        let mut b = ChaosEngine::new(&scenario::notice_loss(), 7, SimTime::ZERO);
        let seq_a: Vec<_> = (0..32)
            .map(|i| a.notice_duration(Region::UsEast1, t(i)))
            .collect();
        let seq_b: Vec<_> = (0..32)
            .map(|i| b.notice_duration(Region::UsEast1, t(i)))
            .collect();
        assert_eq!(seq_a, seq_b);
        // p = 0.9, max_notice = 0: nearly every notice is fully lost.
        let lost = seq_a.iter().filter(|d| **d == SimDuration::ZERO).count();
        assert!(lost >= 20, "expected mostly lost notices, got {lost}/32");
        assert!(seq_a
            .iter()
            .all(|d| *d == SimDuration::ZERO || *d == INTERRUPTION_NOTICE));
    }

    #[test]
    fn neutral_engine_gives_full_notice_without_consuming_rng() {
        let empty = ChaosScenario::new("empty");
        let mut engine = ChaosEngine::new(&empty, 7, SimTime::ZERO);
        let before = engine.notice_rng.clone().next_u64();
        for i in 0..8 {
            assert_eq!(
                engine.notice_duration(Region::UsEast1, t(i)),
                INTERRUPTION_NOTICE
            );
        }
        assert_eq!(engine.notice_rng.clone().next_u64(), before);
    }

    #[test]
    fn throttle_storm_intercepts_inside_window_only() {
        let engine = ChaosEngine::new(&scenario::throttle_storm(), 7, SimTime::ZERO);
        let mut inj = engine.service_injector("kv");
        assert_eq!(inj.intercept(aws_stack::ServiceOp::KvRead, t(48)), None);
        let mut throttled = 0;
        let mut delayed = 0;
        for _ in 0..200 {
            match inj.intercept(aws_stack::ServiceOp::KvWrite, t(2)) {
                Some(aws_stack::ServiceFault::Throttled) => throttled += 1,
                Some(aws_stack::ServiceFault::Delayed(d)) => {
                    assert_eq!(d, SimDuration::from_secs(20));
                    delayed += 1;
                }
                other => panic!("unexpected control-plane fault {other:?}"),
            }
        }
        assert!(throttled > 40, "p=0.4 over 200 calls, got {throttled}");
        assert_eq!(throttled + delayed, 200);
    }

    #[test]
    fn delivery_disruption_loses_and_duplicates_only_event_delivery() {
        let engine = ChaosEngine::new(&scenario::sweep_shard_chaos(), 7, SimTime::ZERO);
        let mut inj = engine.service_injector("bus");
        let mut lost = 0;
        let mut duplicated = 0;
        let mut clean = 0;
        for _ in 0..300 {
            match inj.intercept(aws_stack::ServiceOp::EventDeliver, t(2)) {
                Some(aws_stack::ServiceFault::Lost) => lost += 1,
                Some(aws_stack::ServiceFault::Duplicate) => duplicated += 1,
                None => clean += 1,
                other => panic!("unexpected delivery fault {other:?}"),
            }
        }
        assert!(lost > 50, "p=0.3 over 300 deliveries, got {lost}");
        assert!(duplicated > 15, "p=0.2 of the rest, got {duplicated}");
        assert!(clean > 100);
        // Outside the window deliveries are exact and draw no randomness.
        assert_eq!(inj.intercept(aws_stack::ServiceOp::EventDeliver, t(72)), None);
        // Request/response ops never see delivery faults — only the
        // control-plane window's throttle/delay family.
        let mut kv = engine.service_injector("kv");
        for _ in 0..200 {
            assert!(!matches!(
                kv.intercept(aws_stack::ServiceOp::KvWrite, t(2)),
                Some(aws_stack::ServiceFault::Lost | aws_stack::ServiceFault::Duplicate)
            ));
        }
    }

    #[test]
    fn service_labels_draw_independent_streams() {
        let engine = ChaosEngine::new(&scenario::throttle_storm(), 7, SimTime::ZERO);
        let sample = |label: &str| {
            let mut inj = engine.service_injector(label);
            (0..64)
                .map(|_| {
                    matches!(
                        inj.intercept(aws_stack::ServiceOp::KvRead, t(2)),
                        Some(aws_stack::ServiceFault::Throttled)
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(sample("kv"), sample("kv"));
        assert_ne!(sample("kv"), sample("s3"));
    }

    #[test]
    fn checkpoint_corruption_is_a_pure_draw() {
        let engine = ChaosEngine::new(&scenario::flaky_checkpoints(), 7, SimTime::ZERO);
        let verdicts: Vec<_> = (0..64)
            .map(|g| engine.checkpoint_corrupted("ngs-shard-3", g, t(1)))
            .collect();
        // Repeat queries (any order) agree.
        for (g, v) in verdicts.iter().enumerate().rev() {
            assert_eq!(engine.checkpoint_corrupted("ngs-shard-3", g as u64, t(1)), *v);
        }
        let corrupt = verdicts.iter().filter(|v| **v).count();
        assert!(
            (20..=56).contains(&corrupt),
            "p=0.6 over 64 generations, got {corrupt}"
        );
        // Outside the window nothing corrupts.
        let clean = ChaosEngine::new(&scenario::region_blackout(), 7, SimTime::ZERO);
        assert!(!clean.checkpoint_corrupted("ngs-shard-3", 0, t(1)));
    }

    /// `hash_unit` as it was before it called [`keyed_hash`], kept as the
    /// reference the shared hash must reproduce bit for bit.
    fn reference_hash_unit(seed: u64, workload: &str, generation: u64) -> f64 {
        let mut h: u64 = 0xcbf29ce484222325;
        for chunk in [seed, generation] {
            for byte in chunk.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x100000001b3);
            }
        }
        for byte in workload.bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x100000001b3);
        }
        let mut z = h.wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn hash_unit_matches_its_reference() {
        let mut keys = vec!["", "ngs-shard-3", "genome-0"];
        keys.extend(Region::ALL.iter().map(|r| r.name()));
        for seed in [0, 1, 7, 2024, 0x5eed_5eed_5eed_5eed, u64::MAX] {
            for key in &keys {
                for generation in 0..=64 {
                    assert_eq!(
                        hash_unit(seed, key, generation).to_bits(),
                        reference_hash_unit(seed, key, generation).to_bits(),
                        "seed {seed} {key:?} generation {generation}"
                    );
                }
            }
        }
    }

    #[test]
    fn same_seed_same_everything_different_seed_diverges() {
        let mk = |seed| ChaosEngine::new(&scenario::notice_loss(), seed, SimTime::ZERO);
        let run = |mut e: ChaosEngine| {
            (0..32)
                .map(|i| e.notice_duration(Region::UsWest2, t(i)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(mk(7)), run(mk(7)));
        assert_ne!(run(mk(7)), run(mk(8)));
    }
}
