//! Follow one checkpoint workload through its interruptions in the
//! decision trace: an NGS preprocessing workload starts on spot in
//! ca-central-1; at each two-minute notice the Controller saves its shard
//! progress to the checkpoint table, the instance is reclaimed, the
//! workload resumes from the saved shard count, and the Optimizer picks
//! the region it relaunches in.
//!
//! ```text
//! cargo run --release -p spotverse-examples --bin ngs_checkpoint_resume
//! ```

use bio_workloads::ngs_preprocessing::DATASET_GIB;
use bio_workloads::{paper_fleet, WorkloadKind};
use cloud_market::{InstanceType, Region};
use sim_kernel::SimRng;
use spotverse::trace::{DecisionKind, TraceConfig, TraceEvent};
use spotverse::{
    run_experiment, summary_line, ExperimentConfig, InitialPlacement, Placement, SpotVerseConfig,
    SpotVerseStrategy,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Most seeds finish this one workload uninterrupted; 37 is the first
    // whose market reclaims it (three times).
    let seed = 37;
    let instance_type = InstanceType::M5Xlarge;
    let workloads = paper_fleet(WorkloadKind::NgsPreprocessing, 1, &SimRng::seed_from_u64(seed));
    let units = workloads[0].invocation().plan().unit_count();
    println!(
        "workload `{}`: {units} checkpointable units over a {DATASET_GIB} GiB dataset",
        workloads[0].id
    );

    let mut config = ExperimentConfig::new(seed, instance_type, workloads);
    config.trace = TraceConfig::enabled();
    let strategy = SpotVerseStrategy::new(
        SpotVerseConfig::builder(instance_type)
            .initial_placement(InitialPlacement::SingleRegion(Region::CaCentral1))
            .build(),
    );
    let report = run_experiment(config, Box::new(strategy));
    println!("{}\n", summary_line(&report));

    // Per interruption the trace holds, in this order: the notice's
    // checkpoint save, the reclaim, the restore of the saved units onto the
    // workload, and the Optimizer's migration decision for its relaunch.
    let trace = report.trace.as_ref().ok_or("tracing was enabled")?;
    let mut counts = [0u64; 4];
    for record in &trace.events {
        let (kind, line) = match &record.event {
            TraceEvent::CheckpointSave { generation, units, recorded, .. } => {
                (0, format!("checkpoint_save     generation {generation}: {units} units (recorded: {recorded})"))
            }
            TraceEvent::Interrupted { region, instance, billed, .. } => {
                (1, format!("interrupted         {instance} in {region}, billed ${billed:.4}"))
            }
            TraceEvent::CheckpointRestore { units, scratch, .. } => {
                (2, format!("checkpoint_restore  resume from {units} units (scratch: {scratch})"))
            }
            TraceEvent::Decision { kind: DecisionKind::Migration, previous, placements, .. } => {
                let from = previous.map_or_else(|| "-".to_owned(), |r| r.to_string());
                let to = match placements[0] {
                    Placement::Spot(r) => format!("spot in {r}"),
                    Placement::OnDemand(r) => format!("on-demand in {r}"),
                };
                (3, format!("decision migration  {from} -> {to}"))
            }
            _ => continue,
        };
        counts[kind] += 1;
        println!("{:>14}  {line}", record.at.to_string());
    }
    if report.interruptions == 0 || counts.iter().any(|&n| n != report.interruptions) {
        return Err(format!(
            "expected one save, reclaim, restore and migration per interruption ({}), got {counts:?}",
            report.interruptions
        )
        .into());
    }
    println!(
        "\n{} checkpoint writes, {} throttled retries",
        report.checkpoints.writes, report.checkpoints.throttled_retries
    );
    Ok(())
}
