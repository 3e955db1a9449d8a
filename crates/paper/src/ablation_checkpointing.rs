//! Ablation: checkpoint granularity and storage backend (paper §7).
//!
//! Two knobs on the checkpoint workload:
//!  * **shard count** — how much work an interruption can destroy
//!    (1 shard = restart-from-scratch; 80 shards = lose ≤ 8 minutes);
//!  * **storage backend** — the S3-like object store (cheap, transfer-bound
//!    uploads) vs the EFS-like shared filesystem §7 proposes (instant
//!    in-region writes, pricier storage, WAN-penalized cross-region reads).
//!
//! 40 NGS workloads in the day-40 crunch window, single-region baseline
//! (maximum interruption pressure), mean of three repetitions.

use bio_workloads::WorkloadKind;
use cloud_market::{InstanceType, Region};
use spotverse::{run_repetitions, AggregateReport, CheckpointBackend, SingleRegionStrategy};

use crate::{bench_config, bench_fleet, Figure, BENCH_SEED};

const REPS: u32 = 3;

fn run_variant(shards: Option<u32>, backend: CheckpointBackend) -> AggregateReport {
    let mut fleet = bench_fleet(WorkloadKind::NgsPreprocessing, 40, BENCH_SEED);
    for spec in &mut fleet {
        spec.shards = shards;
    }
    let mut config = bench_config(BENCH_SEED, InstanceType::M5Xlarge, fleet, 40);
    config.checkpoint_backend = backend;
    run_repetitions(
        &config,
        || Box::new(SingleRegionStrategy::new(Region::CaCentral1)),
        REPS,
    )
}

/// The checkpointing ablation.
pub fn ablation_checkpointing() -> Figure {
    let mut fig = Figure::new(
        "Ablation — checkpoint shard granularity and storage backend",
        "paper §7 (EFS future work) + §5.1.1 (segmented dataset)",
    );

    fig.section("shard granularity (object-store backend)");
    fig.line(format_args!(
        "  {:<12} {:>13} {:>14} {:>10}",
        "shards", "interruptions", "mean compl.", "cost"
    ));
    let mut by_shards = Vec::new();
    for shards in [1u32, 5, 20, 80] {
        let agg = run_variant(Some(shards), CheckpointBackend::ObjectStore);
        fig.line(format_args!(
            "  {:<12} {:>13.0} {:>12.2} h {:>9.2}$",
            shards,
            agg.interruptions.mean(),
            agg.mean_completion_hours.mean(),
            agg.cost.mean()
        ));
        by_shards.push((shards, agg));
    }

    fig.section("storage backend (default 20 shards)");
    let s3 = run_variant(None, CheckpointBackend::ObjectStore);
    let efs = run_variant(None, CheckpointBackend::SharedFileSystem);
    fig.line(format_args!(
        "  {:<12} {:>13} {:>14} {:>10}",
        "backend", "interruptions", "mean compl.", "cost"
    ));
    for (label, agg) in [("s3-like", &s3), ("efs-like", &efs)] {
        fig.line(format_args!(
            "  {:<12} {:>13.0} {:>12.2} h {:>9.2}$",
            label,
            agg.interruptions.mean(),
            agg.mean_completion_hours.mean(),
            agg.cost.mean()
        ));
    }

    fig.section("shape checks");
    let coarse = &by_shards[0].1; // 1 shard ≈ restart-from-scratch
    let fine = &by_shards[3].1; // 80 shards
    fig.check(
        format!(
            "finer shards shorten completion (1 shard {:.1} h -> 80 shards {:.1} h)",
            coarse.mean_completion_hours.mean(),
            fine.mean_completion_hours.mean(),
        ),
        fine.mean_completion_hours.mean() < coarse.mean_completion_hours.mean(),
    );
    fig.check(
        "finer shards cut cost (less recomputation)",
        fine.cost.mean() < coarse.cost.mean(),
    );
    let monotone = by_shards
        .windows(2)
        .all(|w| w[1].1.mean_completion_hours.mean() <= w[0].1.mean_completion_hours.mean() * 1.05);
    fig.check(
        "completion time is (weakly) monotone in granularity",
        monotone,
    );
    fig.check(
        "efs-like matches s3-like completion within 5% (same progress semantics)",
        (efs.mean_completion_hours.mean() / s3.mean_completion_hours.mean() - 1.0).abs() < 0.05,
    );
    fig.check(
        "backends differ in storage/transfer spend (the §7 trade-off)",
        (efs.cost.mean() - s3.cost.mean()).abs() > 0.01,
    );
    fig
}
