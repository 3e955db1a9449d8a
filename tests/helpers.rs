//! Shared helpers for integration tests.
//!
//! The scaffolding every suite kept re-declaring — paper-shaped fleet
//! configs, the default SpotVerse strategy, the run-on-shared-market
//! harness and the golden-file check — lives here once. Tests import it
//! as `spotverse_integration`.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use bio_workloads::{paper_fleet, WorkloadKind};
use chaos::ChaosScenario;
use cloud_market::{InstanceType, SpotMarket};
use sim_kernel::SimRng;
use spotverse::{
    run_experiment_on, ExperimentConfig, ExperimentReport, SpotVerseConfig, SpotVerseStrategy,
    Strategy, TraceConfig,
};

/// A paper-shaped fleet configuration: `n` workloads of `kind` at `seed`,
/// on the default market and instance type (m5.xlarge).
pub fn fleet_config(kind: WorkloadKind, n: usize, seed: u64) -> ExperimentConfig {
    let rng = SimRng::seed_from_u64(seed);
    ExperimentConfig::new(seed, InstanceType::M5Xlarge, paper_fleet(kind, n, &rng))
}

/// [`fleet_config`] with the decision-trace recorder switched on.
pub fn traced_config(kind: WorkloadKind, n: usize, seed: u64) -> ExperimentConfig {
    let mut config = fleet_config(kind, n, seed);
    config.trace = TraceConfig::enabled();
    config
}

/// The paper-default SpotVerse strategy (threshold 6, m5.xlarge).
pub fn spotverse_strategy() -> Box<dyn Strategy> {
    Box::new(SpotVerseStrategy::new(SpotVerseConfig::paper_default(
        InstanceType::M5Xlarge,
    )))
}

/// SpotVerse at an explicit Algorithm-1 threshold (the Table 3 tiers).
pub fn spotverse_with_threshold(threshold: u8) -> Box<dyn Strategy> {
    Box::new(SpotVerseStrategy::new(
        SpotVerseConfig::builder(InstanceType::M5Xlarge)
            .threshold(threshold)
            .build(),
    ))
}

/// Runs `base` on a shared `market` with an optional chaos scenario —
/// the harness for comparing faulted and fault-free runs of the same
/// market construction.
pub fn run_with(
    market: &Arc<SpotMarket>,
    base: &ExperimentConfig,
    scenario: Option<ChaosScenario>,
    strategy: Box<dyn Strategy>,
) -> ExperimentReport {
    let mut cfg = base.clone();
    cfg.chaos = scenario;
    run_experiment_on(Arc::clone(market), cfg, strategy)
}

/// The committed golden file `tests/golden/<name>`.
pub fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(name)
}

/// Pins `actual` byte for byte against the golden `tests/golden/<name>`;
/// a drift panics naming the first line that differs. With
/// `UPDATE_GOLDEN` set it writes `actual` there instead (see
/// `scripts/regen-golden.sh`).
pub fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let dir = path.parent().expect("a golden lives in a directory");
        fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
        fs::write(&path, actual).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); generate it with scripts/regen-golden.sh",
            path.display()
        )
    });
    if actual != expected {
        let line = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, b)| a != b)
            .map_or_else(
                || actual.lines().count().min(expected.lines().count()) + 1,
                |i| i + 1,
            );
        panic!(
            "golden drift in {name} at line {line} \
             (actual {} lines, golden {} lines);\n  actual: {}\n  golden: {}\n\
             if the change is intentional, re-bless with scripts/regen-golden.sh",
            actual.lines().count(),
            expected.lines().count(),
            actual.lines().nth(line - 1).unwrap_or("<end>"),
            expected.lines().nth(line - 1).unwrap_or("<end>"),
        );
    }
}
