//! End-to-end benchmark of the `spotverse` CLI's heavy commands.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet_loadgen --seed 2024 --seconds 10 --trace 0
//! ```
//!
//! One process, one client, a closed loop: the next operation starts only
//! after the previous one finished. Set-up runs three times and reports
//! its median. `--trace 0` times untraced operations and prints the
//! end-to-end metrics; `--trace 1` alternates untraced and traced
//! operations and prints the per-layer metrics. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//!
//! A fixed calibration kernel ([`calib`]) runs before the first set-up and
//! after every set-up and operation. End-to-end times are normalised to
//! the reference host's speed by the mean of the two kernel times around
//! them, because the shared host's speed drifts by more than the bounds.

mod alloc;
mod calib;
mod cli;
mod metrics;
mod spans;
mod timed;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{Kind, Layers, Metric, END_TO_END, PER_LAYER};
use spans::Probe;
use workloads::{Analyse, FleetLoadgen, Sweep, Tournament, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The repository checkout the benchmark was built from.
pub const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/..");

const WORKLOADS: [&str; 4] = [
    "fleet_loadgen",
    "tournament_regimes",
    "sweep_orchestrated",
    "analyse_trace",
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Operations of each kind (untraced, traced) a run makes at least, even
/// past `--seconds`.
const MIN_OPS: usize = 3;

const USAGE: &str = "usage: perfbench --workload <fleet_loadgen|tournament_regimes|sweep_orchestrated|analyse_trace> \
[--seed <u64>] [--seconds <n>] [--trace <0|1>]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 2024,
            seconds: 10.0,
            trace: false,
        };
        while let Some(flag) = raw.next() {
            let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("{flag}: bad value `{value}`");
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    args.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0 && s.is_finite())
                        .ok_or_else(bad)?;
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!("unknown workload `{}`", args.workload));
        }
        Ok(args)
    }
}

/// What one operation cost and whether its output passed its checks.
struct OpRecord {
    wall_ns: u64,
    /// `wall_ns` in seconds, normalised to the reference host.
    norm_s: f64,
    peak_bytes: usize,
    allocs: u64,
    error: Option<String>,
    layers: Option<Layers>,
}

/// Runs one operation, times it, checks it and, when traced, collects its
/// per-layer metrics. The output is dropped after the clock stops.
fn run_op<W: Workload>(w: &W, traced: bool) -> OpRecord {
    let mut probe = if traced { Probe::on() } else { Probe::off() };
    alloc::reset_peak();
    let before = alloc::tally();
    let start = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| probe.span("op.self", |p| w.op(p))));
    let wall_ns = start.elapsed().as_nanos() as u64;
    let after = alloc::tally();
    let mut record = OpRecord {
        wall_ns,
        norm_s: 0.0,
        peak_bytes: after.peak - before.live,
        allocs: after.allocs - before.allocs,
        error: None,
        layers: None,
    };
    let checked = match out {
        Err(_) => Err("operation panicked".to_owned()),
        Ok(Err(e)) => Err(e),
        Ok(Ok(out)) => w.check(&out).and_then(|()| {
            if !traced {
                return Ok(());
            }
            probe.check_partition()?;
            let mut m = Layers::default();
            for (name, nanos) in probe.self_ns() {
                m.set_ns(&format!("{name}_s"), nanos);
            }
            let strategy = probe.strategy("op.self");
            m.set_ns("traced.wall_s", wall_ns);
            m.set("allocs.per_op", record.allocs as f64);
            m.set("optimizer.calls", strategy.calls as f64);
            m.set_ns("optimizer.s", strategy.nanos);
            m.set_ratio(
                "optimizer.ns_per_call",
                strategy.nanos as f64,
                strategy.calls as f64,
            );
            m.set_ratio(
                "optimizer.allocs_per_call",
                strategy.allocs as f64,
                strategy.calls as f64,
            );
            w.layers(&out, &probe, &mut m)?;
            eprintln!(
                "traced operation, {:.6} s:\n{}",
                wall_ns as f64 * 1e-9,
                probe.render()
            );
            record.layers = Some(m);
            Ok(())
        }),
    };
    record.error = checked.err();
    record
}

/// `seconds` on the reference host, given the calibration kernel's times
/// just before and just after them.
fn normalise(seconds: f64, calib_before: f64, calib_after: f64) -> f64 {
    seconds * calib::REFERENCE_S / ((calib_before + calib_after) / 2.0)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The result line.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static Metric, f64)>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| {
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn bench<W: Workload>(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let mut calib_s = vec![calib::kernel()];
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut fixture = None;
    for _ in 0..SETUPS {
        drop(fixture.take());
        let start = Instant::now();
        let w = W::setup(args.seed, dir).map_err(|e| format!("set-up: {e}"))?;
        setup_s.push(start.elapsed().as_secs_f64());
        calib_s.push(calib::kernel());
        fixture = Some(w);
    }
    let setup_norm: Vec<f64> = setup_s
        .iter()
        .zip(calib_s.windows(2))
        .map(|(s, c)| normalise(*s, c[0], c[1]))
        .collect();
    let w = fixture.expect("at least one set-up ran");

    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut errors = Vec::new();
    loop {
        let trace_this = args.trace && untraced.len() > traced.len();
        let mut record = run_op(&w, trace_this);
        let (before, after) = (calib_s[calib_s.len() - 1], calib::kernel());
        calib_s.push(after);
        record.norm_s = normalise(record.wall_ns as f64 * 1e-9, before, after);
        if let Some(e) = &record.error {
            errors.push(e.clone());
        }
        if trace_this {
            &mut traced
        } else {
            &mut untraced
        }
        .push(record);
        let enough = untraced.len() >= MIN_OPS && (!args.trace || traced.len() >= MIN_OPS);
        if enough && start.elapsed() >= budget {
            break;
        }
    }
    let attempted = untraced.len() + traced.len();
    let failed = untraced
        .iter()
        .chain(&traced)
        .filter(|r| r.error.is_some())
        .count();

    // Allocation counts are deterministic: every untraced operation must
    // make exactly as many as the first.
    if let Some(first) = untraced.first() {
        if let Some(r) = untraced.iter().find(|r| r.allocs != first.allocs) {
            errors.push(format!(
                "allocations per operation vary: {} vs {}",
                first.allocs, r.allocs
            ));
        }
    }

    let seconds = |records: &[OpRecord]| -> Vec<f64> {
        records.iter().map(|r| r.wall_ns as f64 * 1e-9).collect()
    };
    let (untraced_s, traced_s) = (seconds(&untraced), seconds(&traced));
    let wall_s = median(&untraced_s);
    let mut metrics: Vec<(&'static Metric, f64)> = if !args.trace {
        let norm_wall_s = median(&untraced.iter().map(|r| r.norm_s).collect::<Vec<_>>());
        let values = [
            norm_wall_s,
            median(&setup_norm),
            w.ended_workloads() as f64 / norm_wall_s,
        ];
        END_TO_END.iter().zip(values).collect()
    } else {
        let mut layers: Vec<Layers> = traced.into_iter().filter_map(|r| r.layers).collect();
        let mut pass = Layers::default();
        match w.counter_pass(&mut pass) {
            Ok(()) => layers.push(pass),
            Err(e) => errors.push(format!("counter pass: {e}")),
        }
        let mut run = Layers::default();
        run.set("untraced.wall_s", wall_s);
        run.set(
            "peak_heap_mb",
            median(
                &untraced
                    .iter()
                    .map(|r| r.peak_bytes as f64 / 1e6)
                    .collect::<Vec<_>>(),
            ),
        );
        run.set("tracing.overhead_s", median(&traced_s) - wall_s);
        run.set("host.calib_s", median(&calib_s));
        layers.push(run);
        PER_LAYER
            .iter()
            .map(|m| {
                let seen: Vec<f64> = layers
                    .iter()
                    .filter_map(|l| l.values.get(m.name).copied())
                    .collect();
                let value = match m.kind {
                    Kind::Median => median(&seen),
                    Kind::Count => {
                        if seen.iter().any(|v| v.to_bits() != seen[0].to_bits()) {
                            errors.push(format!("{} is not deterministic: {seen:?}", m.name));
                        }
                        seen.first().copied().unwrap_or(0.0)
                    }
                };
                (m, value)
            })
            .collect()
    };
    for (m, v) in &mut metrics {
        if !v.is_finite() {
            errors.push(format!("{} is not finite", m.name));
            *v = 0.0;
        }
    }

    for e in errors.iter().take(10) {
        eprintln!("perfbench: {e}");
    }
    let rounded = |v: &[f64]| -> Vec<String> { v.iter().map(|s| format!("{s:.3}")).collect() };
    eprintln!(
        "{} seed {}: set-ups {:?} s; untraced operations {:?} s; traced operations {:?} s; \
         calibration kernel {:?} s",
        args.workload,
        args.seed,
        rounded(&setup_s),
        rounded(&untraced_s),
        rounded(&traced_s),
        rounded(&calib_s),
    );
    for (m, v) in &metrics {
        eprintln!("  {:<34} {v:>16.6} {}", m.name, m.unit);
    }
    Ok(Outcome {
        correct: errors.is_empty(),
        attempted,
        failed,
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".work")
        .join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let result = match args.workload.as_str() {
        "fleet_loadgen" => bench::<FleetLoadgen>(&args, &dir),
        "tournament_regimes" => bench::<Tournament>(&args, &dir),
        "sweep_orchestrated" => bench::<Sweep>(&args, &dir),
        "analyse_trace" => bench::<Analyse>(&args, &dir),
        other => unreachable!("Args::parse accepted unknown workload `{other}`"),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(dir.parent().expect("the work dir has a parent"));
    match result {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
