//! Seeded arrival-process load generation: traffic-shaped fleets.
//!
//! The paper's evaluation runs a handful of workflows arriving together;
//! fleet-scale traffic is what actually stresses the scheduler and the
//! Optimizer's hot paths. This module generates such traffic
//! deterministically: an [`ArrivalProcess`] (Poisson, diurnal-peak, or
//! burst) draws arrival offsets, a [`WorkloadMix`] draws heavy-tailed
//! workload sizes and kinds from the `bio-workloads` catalog, and a set of
//! [`TenantClass`]es assigns tenants and [`Priority`] classes — all from
//! labelled forks of one seed, so a generated [`FleetConfig`] replays
//! byte-identically for a given `(profile, seed, count)` triple.
//!
//! # Arrival math
//!
//! * **Poisson** — homogeneous rate λ: inter-arrival gaps are iid
//!   `Exp(λ)`, the classic memoryless arrival stream.
//! * **Diurnal peak** — a non-homogeneous Poisson process with rate
//!   `λ(t) = base · ((1+m)/2 + ((m−1)/2)·cos(2π(h(t)−peak)/24))`, which
//!   swings between `base` at the trough and `base·m` at `peak_hour`.
//!   Sampled by thinning: candidates are drawn at the peak rate `base·m`
//!   and accepted with probability `λ(t)/(base·m)`.
//! * **Burst** — burst *starts* form a Poisson process; each burst drops
//!   a geometrically-sized group of workloads inside a short `spread`
//!   window, modelling a queue flush or a course-deadline stampede.
//!
//! # Examples
//!
//! ```
//! use cloud_market::InstanceType;
//! use spotverse::loadgen::LoadProfile;
//!
//! let profile = LoadProfile::poisson(12.0);
//! let config = profile.generate(7, 50, InstanceType::M5Xlarge);
//! assert_eq!(config.workloads.len(), 50);
//! // Same seed, same profile: byte-identical fleet.
//! let again = profile.generate(7, 50, InstanceType::M5Xlarge);
//! assert_eq!(config.workloads.len(), again.workloads.len());
//! ```

use bio_workloads::{WorkloadKind, WorkloadSpec};
use cloud_market::InstanceType;
use sim_kernel::{SimDuration, SimRng};

use crate::fleet::{FleetConfig, FleetWorkload, Priority};

/// How arrival offsets are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals at a constant hourly rate.
    Poisson {
        /// Mean arrivals per hour (λ).
        rate_per_hour: f64,
    },
    /// Non-homogeneous Poisson arrivals following a 24-hour cosine curve.
    DiurnalPeak {
        /// Trough rate in arrivals per hour.
        base_rate_per_hour: f64,
        /// Peak-to-trough rate ratio (`m ≥ 1`); the peak rate is
        /// `base · m`.
        peak_multiplier: f64,
        /// Hour of day (0–24) at which the rate peaks.
        peak_hour: f64,
    },
    /// Clustered arrivals: Poisson burst starts, geometric burst sizes.
    Burst {
        /// Mean burst starts per hour.
        burst_rate_per_hour: f64,
        /// Mean workloads per burst (geometric; ≥ 1).
        mean_burst_size: f64,
        /// Window over which one burst's members land.
        spread: SimDuration,
    },
}

/// An arrival drawn past the last representable instant: its offset from
/// the fleet start does not fit in a [`SimDuration`] (`u64` seconds). The
/// arrival rate is too low for the fleet size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalOverflow {
    /// The drawn offset in seconds (possibly infinite).
    pub offset_secs: f64,
}

impl std::fmt::Display for ArrivalOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "an arrival {:.3e} s after the fleet start lies past the last representable instant",
            self.offset_secs
        )
    }
}

impl std::error::Error for ArrivalOverflow {}

/// An arrival offset of `secs` seconds, truncated to whole seconds.
fn offset(secs: f64) -> Result<SimDuration, ArrivalOverflow> {
    // 2^64 as f64: every smaller non-negative offset fits in a u64.
    if secs < u64::MAX as f64 {
        Ok(SimDuration::from_secs(secs as u64))
    } else {
        Err(ArrivalOverflow { offset_secs: secs })
    }
}

impl ArrivalProcess {
    /// Draws `count` arrival offsets from the process, ascending.
    ///
    /// Deterministic in `(self, rng stream)`: the schedule depends only on
    /// the parameters and the stream's seed lineage.
    fn sample(&self, rng: &mut SimRng, count: usize) -> Result<Vec<SimDuration>, ArrivalOverflow> {
        let mut out = Vec::with_capacity(count);
        match *self {
            ArrivalProcess::Poisson { rate_per_hour } => {
                let rate_per_sec = rate_per_hour / 3600.0;
                let mut t = 0.0f64;
                for _ in 0..count {
                    t += rng.exponential(rate_per_sec);
                    out.push(offset(t)?);
                }
            }
            ArrivalProcess::DiurnalPeak {
                base_rate_per_hour,
                peak_multiplier,
                peak_hour,
            } => {
                let m = peak_multiplier.max(1.0);
                let peak_rate_per_sec = base_rate_per_hour * m / 3600.0;
                let mut t = 0.0f64;
                while out.len() < count {
                    // Thinning: candidates at the peak rate, accepted with
                    // probability λ(t)/λ_max ∈ [1/m, 1].
                    t += rng.exponential(peak_rate_per_sec);
                    let at = offset(t)?;
                    let hour = (t / 3600.0) % 24.0;
                    let phase = (hour - peak_hour) * std::f64::consts::TAU / 24.0;
                    let factor = (1.0 + m) / 2.0 + (m - 1.0) / 2.0 * phase.cos();
                    if rng.chance(factor / m) {
                        out.push(at);
                    }
                }
            }
            ArrivalProcess::Burst {
                burst_rate_per_hour,
                mean_burst_size,
                spread,
            } => {
                let rate_per_sec = burst_rate_per_hour / 3600.0;
                // Geometric on {1, 2, ...} with the requested mean.
                let p = (1.0 / mean_burst_size.max(1.0)).clamp(f64::EPSILON, 1.0);
                let mut t = 0.0f64;
                while out.len() < count {
                    t += rng.exponential(rate_per_sec);
                    let size = 1 + (rng.uniform().max(f64::MIN_POSITIVE).ln()
                        / (1.0 - p).max(f64::MIN_POSITIVE).ln())
                        as usize;
                    for _ in 0..size.min(count - out.len()) {
                        let jitter = rng.uniform() * spread.as_secs() as f64;
                        out.push(offset(t + jitter)?);
                    }
                }
            }
        }
        // Bursts can interleave when the spread exceeds the inter-burst
        // gap; present the schedule ascending regardless of process.
        out.sort_unstable();
        Ok(out)
    }
}

/// Heavy-tailed workload-size and kind mix, drawn from the
/// `bio-workloads` catalog.
///
/// Durations are log-normal — `median · exp(σZ)` clamped to
/// `[min, max]` — matching the skewed per-tool resource distributions
/// real Galaxy workloads exhibit (most jobs short, a fat tail of
/// multi-hour runs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadMix {
    /// Relative draw weight per kind, in [`WorkloadKind::ALL`] order.
    pub kind_weights: [f64; 3],
    /// Median uninterrupted duration.
    pub median: SimDuration,
    /// Log-space spread (σ of the log-normal).
    pub sigma: f64,
    /// Duration floor.
    pub min: SimDuration,
    /// Duration ceiling.
    pub max: SimDuration,
}

impl WorkloadMix {
    /// The default catalog mix: mostly standard/general jobs with a
    /// genome-reconstruction middle and an NGS checkpointable tail,
    /// median 2 h, σ = 0.8 (≈ p95 of 7.5 h), clamped to 15 min – 24 h.
    pub fn galaxy_default() -> Self {
        WorkloadMix {
            kind_weights: [0.5, 0.3, 0.2],
            median: SimDuration::from_hours(2),
            sigma: 0.8,
            min: SimDuration::from_mins(15),
            max: SimDuration::from_hours(24),
        }
    }

    /// Draws one `(kind, duration)` pair.
    fn sample(&self, rng: &mut SimRng) -> (WorkloadKind, SimDuration) {
        let kind = WorkloadKind::ALL[weighted_pick(rng, &self.kind_weights)];
        let z = rng.standard_normal();
        let secs = self.median.as_secs() as f64 * (self.sigma * z).exp();
        let secs = (secs as u64).clamp(self.min.as_secs(), self.max.as_secs());
        (kind, SimDuration::from_secs(secs))
    }
}

/// One tenant population: a label, its priority class, and its share of
/// the arrival stream.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantClass {
    /// Tenant label, stamped on generated workloads and trace events.
    pub name: String,
    /// The tier this tenant's workloads schedule at.
    pub priority: Priority,
    /// Relative share of arrivals.
    pub weight: f64,
}

impl TenantClass {
    /// Convenience constructor.
    pub fn new(name: &str, priority: Priority, weight: f64) -> Self {
        TenantClass { name: name.to_owned(), priority, weight }
    }
}

/// A named load profile: arrival process + workload mix + tenant classes.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadProfile {
    /// Profile name (the CLI's `--loadgen` value).
    pub name: String,
    /// How arrivals are spaced.
    pub arrivals: ArrivalProcess,
    /// What arrives.
    pub mix: WorkloadMix,
    /// Who submits it. Empty = single anonymous tenant at the default
    /// priority (no tenant/priority fields in traces).
    pub tenants: Vec<TenantClass>,
}

/// The default three-tenant population: a latency-sensitive interactive
/// minority, a standard majority, and a best-effort batch tail.
fn default_tenants() -> Vec<TenantClass> {
    vec![
        TenantClass::new("clinical", Priority::Interactive, 1.0),
        TenantClass::new("core-lab", Priority::Standard, 3.0),
        TenantClass::new("cohort-batch", Priority::Batch, 2.0),
    ]
}

impl LoadProfile {
    /// Homogeneous Poisson arrivals at `rate_per_hour`.
    pub fn poisson(rate_per_hour: f64) -> Self {
        LoadProfile {
            name: "poisson".to_owned(),
            arrivals: ArrivalProcess::Poisson { rate_per_hour },
            mix: WorkloadMix::galaxy_default(),
            tenants: default_tenants(),
        }
    }

    /// Diurnal-peak arrivals: trough rate `rate_per_hour`, 4× peak at
    /// 14:00 (mid-afternoon analysis rush).
    pub fn diurnal(rate_per_hour: f64) -> Self {
        LoadProfile {
            name: "diurnal".to_owned(),
            arrivals: ArrivalProcess::DiurnalPeak {
                base_rate_per_hour: rate_per_hour,
                peak_multiplier: 4.0,
                peak_hour: 14.0,
            },
            mix: WorkloadMix::galaxy_default(),
            tenants: default_tenants(),
        }
    }

    /// Bursty arrivals: `rate_per_hour / 8` burst starts per hour with a
    /// mean of 8 workloads per burst landing inside 5 minutes, so the
    /// long-run rate matches `rate_per_hour`.
    pub fn burst(rate_per_hour: f64) -> Self {
        LoadProfile {
            name: "burst".to_owned(),
            arrivals: ArrivalProcess::Burst {
                burst_rate_per_hour: rate_per_hour / 8.0,
                mean_burst_size: 8.0,
                spread: SimDuration::from_mins(5),
            },
            mix: WorkloadMix::galaxy_default(),
            tenants: default_tenants(),
        }
    }

    /// Looks a profile up by name (`poisson` | `diurnal` | `burst`) at a
    /// given hourly rate. `None` for unknown names.
    pub fn named(name: &str, rate_per_hour: f64) -> Option<Self> {
        match name {
            "poisson" => Some(LoadProfile::poisson(rate_per_hour)),
            "diurnal" => Some(LoadProfile::diurnal(rate_per_hour)),
            "burst" => Some(LoadProfile::burst(rate_per_hour)),
            _ => None,
        }
    }

    /// The arrival schedule this profile draws for `(seed, count)`:
    /// `count` offsets from the fleet start, ascending. The same triple
    /// always yields the same schedule.
    ///
    /// # Errors
    ///
    /// Returns [`ArrivalOverflow`] when an offset does not fit in a
    /// [`SimDuration`].
    pub fn arrival_schedule(
        &self,
        seed: u64,
        count: usize,
    ) -> Result<Vec<SimDuration>, ArrivalOverflow> {
        let mut rng = SimRng::seed_from_u64(seed).fork("loadgen").fork("arrivals");
        self.arrivals.sample(&mut rng, count)
    }

    /// [`try_generate`](Self::try_generate) for a profile whose arrivals
    /// are known to fit.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0` (a fleet must be non-empty) or an arrival
    /// overflows.
    pub fn generate(&self, seed: u64, count: usize, instance_type: InstanceType) -> FleetConfig {
        self.try_generate(seed, count, instance_type).unwrap_or_else(|e| panic!("loadgen: {e}"))
    }

    /// Generates a deterministic fleet: `count` workloads with arrivals,
    /// kinds, durations, tenants, and priorities all drawn from labelled
    /// forks of `seed`. The returned config carries [`FleetConfig::new`]
    /// defaults; callers adjust deadlines, capacity, and tracing.
    ///
    /// # Errors
    ///
    /// Returns [`ArrivalOverflow`] when an arrival offset does not fit in
    /// a [`SimDuration`]: the rate is too low for `count` workloads.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0` (a fleet must be non-empty).
    pub fn try_generate(
        &self,
        seed: u64,
        count: usize,
        instance_type: InstanceType,
    ) -> Result<FleetConfig, ArrivalOverflow> {
        assert!(count > 0, "loadgen: empty fleet");
        let root = SimRng::seed_from_u64(seed).fork("loadgen");
        let arrivals = self.arrival_schedule(seed, count)?;
        let tenant_weights: Vec<f64> = self.tenants.iter().map(|t| t.weight).collect();
        let workloads = arrivals
            .into_iter()
            .enumerate()
            .map(|(i, arrival)| {
                let mut mix_rng = root.fork_indexed("mix", i as u64);
                let (kind, duration) = self.mix.sample(&mut mix_rng);
                let (tenant, priority) = if self.tenants.is_empty() {
                    (None, Priority::Standard)
                } else {
                    let mut tenant_rng = root.fork_indexed("tenant", i as u64);
                    let t = &self.tenants[weighted_pick(&mut tenant_rng, &tenant_weights)];
                    (Some(t.name.clone()), t.priority)
                };
                FleetWorkload {
                    spec: WorkloadSpec {
                        id: format!("g-{i:04}"),
                        kind,
                        duration,
                        shards: None,
                    },
                    arrival,
                    tenant,
                    priority,
                }
            })
            .collect();
        Ok(FleetConfig::new(seed, instance_type, workloads))
    }
}

/// Picks an index with probability proportional to its weight. Weights
/// must be non-negative with a positive sum.
fn weighted_pick(rng: &mut SimRng, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    debug_assert!(total > 0.0, "weighted_pick: degenerate weights");
    let mut x = rng.uniform() * total;
    for (i, w) in weights.iter().enumerate() {
        x -= w;
        if x <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_ascending_and_deterministic() {
        let p = LoadProfile::poisson(30.0);
        let a = p.arrival_schedule(11, 500).unwrap();
        let b = p.arrival_schedule(11, 500).unwrap();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(a.len(), 500);
        // Mean inter-arrival gap ≈ 2 minutes at 30/hour.
        let span = a.last().unwrap().as_secs() as f64;
        let mean_gap = span / 500.0;
        assert!((60.0..240.0).contains(&mean_gap), "mean gap {mean_gap}s");
    }

    #[test]
    fn different_seeds_differ() {
        let p = LoadProfile::poisson(30.0);
        assert_ne!(p.arrival_schedule(1, 100).unwrap(), p.arrival_schedule(2, 100).unwrap());
    }

    #[test]
    fn diurnal_rate_peaks_at_peak_hour() {
        let p = LoadProfile::diurnal(20.0);
        let arrivals = p.arrival_schedule(5, 4000).unwrap();
        // Bucket arrivals by hour of day; the peak-hour bucket must beat
        // the trough bucket decisively (4x multiplier, large sample).
        let mut by_hour = [0u32; 24];
        for a in &arrivals {
            by_hour[(a.as_secs() / 3600 % 24) as usize] += 1;
        }
        let peak = by_hour[14];
        let trough = by_hour[2];
        assert!(
            peak > trough * 2,
            "peak-hour arrivals {peak} not dominant over trough {trough}"
        );
    }

    #[test]
    fn burst_schedule_clusters() {
        let p = LoadProfile::burst(16.0);
        let arrivals = p.arrival_schedule(3, 400).unwrap();
        assert_eq!(arrivals.len(), 400);
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        // Bursty traffic: a majority of gaps are inside the 5-minute
        // spread window, while burst starts are ~30 minutes apart.
        let small_gaps = arrivals
            .windows(2)
            .filter(|w| w[1] - w[0] <= SimDuration::from_mins(5))
            .count();
        assert!(small_gaps * 2 > arrivals.len(), "only {small_gaps} clustered gaps");
    }

    #[test]
    fn generated_fleet_is_byte_deterministic() {
        for profile in [
            LoadProfile::poisson(24.0),
            LoadProfile::diurnal(24.0),
            LoadProfile::burst(24.0),
        ] {
            let a = profile.generate(42, 120, InstanceType::M5Xlarge);
            let b = profile.generate(42, 120, InstanceType::M5Xlarge);
            assert_eq!(a.workloads.len(), b.workloads.len());
            for (x, y) in a.workloads.iter().zip(&b.workloads) {
                assert_eq!(x.spec, y.spec);
                assert_eq!(x.arrival, y.arrival);
                assert_eq!(x.tenant, y.tenant);
                assert_eq!(x.priority, y.priority);
            }
        }
    }

    #[test]
    fn durations_are_clamped_and_heavy_tailed() {
        let p = LoadProfile::poisson(24.0);
        let config = p.generate(9, 600, InstanceType::M5Xlarge);
        let mix = WorkloadMix::galaxy_default();
        let durations: Vec<u64> =
            config.workloads.iter().map(|w| w.spec.duration.as_secs()).collect();
        assert!(durations.iter().all(|&d| d >= mix.min.as_secs() && d <= mix.max.as_secs()));
        // Skew: the mean exceeds the median for a heavy right tail.
        let mut sorted = durations.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2] as f64;
        let mean = durations.iter().sum::<u64>() as f64 / durations.len() as f64;
        assert!(mean > median, "mean {mean} not above median {median}");
    }

    #[test]
    fn tenants_cover_all_priority_classes() {
        let p = LoadProfile::poisson(24.0);
        let config = p.generate(4, 300, InstanceType::M5Xlarge);
        let mut seen = std::collections::BTreeSet::new();
        for w in &config.workloads {
            assert!(w.tenant.is_some());
            seen.insert(w.priority);
        }
        assert_eq!(seen.len(), 3, "all three priority classes drawn");
    }

    #[test]
    fn empty_tenant_list_generates_single_tenant_defaults() {
        let mut p = LoadProfile::poisson(24.0);
        p.tenants.clear();
        let config = p.generate(4, 50, InstanceType::M5Xlarge);
        assert!(config.workloads.iter().all(|w| w.tenant.is_none()));
        assert!(config.workloads.iter().all(|w| w.priority == Priority::Standard));
    }

    #[test]
    fn named_lookup_round_trips() {
        for name in ["poisson", "diurnal", "burst"] {
            assert_eq!(LoadProfile::named(name, 10.0).unwrap().name, name);
        }
        assert!(LoadProfile::named("sawtooth", 10.0).is_none());
    }
}
