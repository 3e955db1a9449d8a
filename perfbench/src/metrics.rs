//! The metric catalogue (it must match `BENCHMARK.json`) and the
//! per-operation collector for per-layer metrics.

use std::collections::BTreeMap;

use spotverse::ExperimentReport;

/// How repeated observations of a metric combine into the reported value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A measurement: the median over the run's operations.
    Median,
    /// A deterministic count (or a ratio of counts): it must repeat
    /// exactly on every operation, otherwise the run is not correct.
    Count,
}

/// One metric: name, unit and kind.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub kind: Kind,
}

const fn time(name: &'static str) -> Metric {
    Metric {
        name,
        unit: "s",
        kind: Kind::Median,
    }
}

const fn count(name: &'static str) -> Metric {
    Metric {
        name,
        unit: "count",
        kind: Kind::Count,
    }
}

/// End-to-end metrics, reported by the untraced run (`--trace 0`).
pub const END_TO_END: [Metric; 3] = [
    time("norm_wall_s"),
    time("setup_s"),
    Metric {
        name: "norm_sim_workloads_per_s",
        unit: "1/s",
        kind: Kind::Median,
    },
];

/// Per-layer metrics, reported by the traced run (`--trace 1`). A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: &[Metric] = &[
    // The operation as a whole, in wall seconds as measured.
    time("untraced.wall_s"),
    time("traced.wall_s"),
    time("tracing.overhead_s"),
    time("op.self_s"),
    count("allocs.per_op"),
    // Peak heap: deterministic per seed, but it jumps by a quarter between
    // seeds when a large buffer's capacity doubles, so it carries no bound.
    Metric {
        name: "peak_heap_mb",
        unit: "MB",
        kind: Kind::Median,
    },
    // spotverse::fleet event loop.
    time("fleet.self_s"),
    count("fleet.events"),
    Metric {
        name: "fleet.ns_per_event",
        unit: "ns",
        kind: Kind::Median,
    },
    count("fleet.allocs_per_event"),
    // spotverse::strategy + optimizer.
    count("optimizer.calls"),
    time("optimizer.s"),
    Metric {
        name: "optimizer.ns_per_call",
        unit: "ns",
        kind: Kind::Median,
    },
    count("optimizer.allocs_per_call"),
    // cloud-market.
    time("market.build_s"),
    count("market.builds"),
    count("market.cache_hits"),
    count("market.segments_materialized"),
    // cloud-compute (EC2).
    count("ec2.spot_attempts"),
    Metric {
        name: "ec2.spot_fulfil_ratio",
        unit: "ratio",
        kind: Kind::Count,
    },
    count("ec2.interruptions"),
    count("ec2.launches"),
    // spotverse::monitor / health (Monitor -> KV).
    count("monitor.stale_serves"),
    count("monitor.degraded_decisions"),
    count("monitor.collection_failures"),
    count("health.breaker_trips"),
    count("health.quarantined_decisions"),
    // aws-stack checkpoint store.
    count("checkpoint.writes"),
    count("checkpoint.throttled_retries"),
    // spotverse::loadgen.
    time("loadgen.generate_s"),
    // spotverse::trace.
    count("trace.records"),
    Metric {
        name: "trace.bytes",
        unit: "bytes",
        kind: Kind::Count,
    },
    count("trace.dropped"),
    time("trace.export_s"),
    // spotverse::replay (and reading its input).
    time("io.read_s"),
    time("replay.feed_s"),
    time("replay.render_s"),
    time("replay.parse_s"),
    count("replay.allocs_per_line"),
    Metric {
        name: "replay.mb_per_s",
        unit: "MB/s",
        kind: Kind::Median,
    },
    // spotverse::orchestrate + aws-stack bus/KV.
    time("orchestrate.self_s"),
    time("orchestrate.overhead_s"),
    count("orchestrate.dispatches"),
    count("orchestrate.redrives"),
    count("orchestrate.lease_expiries"),
    count("orchestrate.duplicate_executions"),
    Metric {
        name: "orchestrate.service_cost_usd",
        unit: "usd",
        kind: Kind::Count,
    },
    // spotverse::tournament.
    time("tournament.self_s"),
    // The CLI's own text rendering.
    time("cli.render_s"),
    // The host: the calibration kernel's median time over the run.
    time("host.calib_s"),
];

/// Looks a per-layer metric up by name.
///
/// # Panics
///
/// Panics on a name missing from [`PER_LAYER`]: every name the benchmark
/// sets is a literal that must be listed there.
pub fn per_layer(name: &str) -> &'static Metric {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("`{name}` is not in the per-layer catalogue"))
}

/// Per-layer values observed on one traced operation (or one counter
/// pass).
#[derive(Debug, Default)]
pub struct Layers {
    pub values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Sets a metric's value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(per_layer(name).name, value);
    }

    /// Sets a time metric from nanoseconds.
    pub fn set_ns(&mut self, name: &str, nanos: u64) {
        self.set(name, nanos as f64 * 1e-9);
    }

    /// Sets `name` to `num / den`, or 0 when `den` is 0.
    pub fn set_ratio(&mut self, name: &str, num: f64, den: f64) {
        self.set(name, if den == 0.0 { 0.0 } else { num / den });
    }

    /// The EC2, Monitor/health and checkpoint counters summed over
    /// `reports`.
    pub fn set_experiment_counters<'a>(
        &mut self,
        reports: impl IntoIterator<Item = &'a ExperimentReport>,
    ) {
        let mut sums = [0u64; 11];
        for r in reports {
            let f = &r.resilience.freshness;
            let parts = [
                r.spot_attempts,
                r.spot_fulfillments,
                r.interruptions,
                r.launches_by_region.values().sum(),
                f.stale_serves,
                f.degraded_decisions,
                f.collection_failures,
                r.resilience.breaker_trips,
                r.resilience.quarantined_decisions,
                r.checkpoints.writes,
                r.checkpoints.throttled_retries,
            ];
            for (sum, part) in sums.iter_mut().zip(parts) {
                *sum += part;
            }
        }
        let [attempts, fulfilled, interruptions, launches, stale, degraded, failures, trips, quarantined, writes, throttled] =
            sums.map(|v| v as f64);
        self.set("ec2.spot_attempts", attempts);
        self.set_ratio("ec2.spot_fulfil_ratio", fulfilled, attempts);
        self.set("ec2.interruptions", interruptions);
        self.set("ec2.launches", launches);
        self.set("monitor.stale_serves", stale);
        self.set("monitor.degraded_decisions", degraded);
        self.set("monitor.collection_failures", failures);
        self.set("health.breaker_trips", trips);
        self.set("health.quarantined_decisions", quarantined);
        self.set("checkpoint.writes", writes);
        self.set("checkpoint.throttled_retries", throttled);
    }
}
