//! Derived analytics views folded from trace records.
//!
//! Every view is a pure fold: `fold(state, record) -> state` with no
//! clocks, no I/O, and no dependence on chunking — replaying a trace in
//! one pass or in arbitrary chunk splits yields byte-identical view
//! state. That purity contract is what makes the trace log the system of
//! record: any figure a live run reports must be recomputable from the
//! log alone.

use cloud_market::Region;
use sim_kernel::SimTime;

use crate::codec::{array_codec, object_codec, put_delimited, put_field};

use crate::health::BreakerState;
use crate::trace::{DecisionKind, RunTrace, TraceEvent, TraceRecord};

use super::parse::TraceLine;

/// Number of regions tracked by the flat per-region arrays.
pub const REGIONS: usize = Region::ALL.len();

/// A half-open sim-time window restricting which records are folded.
///
/// `None` bounds are unbounded. A record at time `t` is folded when
/// `from <= t` and `t < until`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TimeWindow {
    /// Inclusive lower bound.
    pub from: Option<SimTime>,
    /// Exclusive upper bound.
    pub until: Option<SimTime>,
}

impl TimeWindow {
    /// The unbounded window.
    pub const ALL: TimeWindow = TimeWindow { from: None, until: None };

    /// Whether a record at `at` falls inside the window.
    #[must_use]
    pub fn contains(&self, at: SimTime) -> bool {
        if let Some(from) = self.from {
            if at < from {
                return false;
            }
        }
        if let Some(until) = self.until {
            if at >= until {
                return false;
            }
        }
        true
    }
}

/// Run-level identity and outcome figures for one cell.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunSummary {
    /// Strategy name from `run_started`.
    pub strategy: Option<String>,
    /// Experiment seed from `run_started`.
    pub seed: Option<u64>,
    /// Fleet size from `run_started`.
    pub workloads: Option<usize>,
    /// Chaos scenario from `run_started`.
    pub chaos: Option<String>,
    /// Market regime from `run_started` (`None` for baseline runs).
    pub regime: Option<String>,
    /// `run_started` timestamp.
    pub started_at: Option<SimTime>,
    /// `run_ended` timestamp.
    pub ended_at: Option<SimTime>,
    /// Latest `completed` timestamp.
    pub last_completion: Option<SimTime>,
    /// Completed workloads (from `run_ended` when present, else counted).
    pub completed: usize,
    /// Whether the run hit its max-runtime deadline.
    pub aborted: bool,
    /// Placement decisions folded.
    pub decisions: u64,
    /// Migration decisions folded.
    pub migrations: u64,
}

impl RunSummary {
    /// Makespan derived purely from the trace: latest completion minus
    /// run start. `None` until both ends are visible.
    #[must_use]
    pub fn makespan_secs(&self) -> Option<u64> {
        let start = self.started_at?;
        let last = self.last_completion?;
        Some(last.saturating_duration_since(start).as_secs())
    }
}

/// Per-region cost and launch ledger entry.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RegionLedger {
    /// Spot launches.
    pub spot_launches: u64,
    /// On-demand launches.
    pub on_demand_launches: u64,
    /// Spot interruptions.
    pub interruptions: u64,
    /// Workload completions.
    pub completions: u64,
    /// Deadline expirations attributed here.
    pub expirations: u64,
    /// Spot requests declined for capacity.
    pub request_opens: u64,
    /// Spot requests failed outright.
    pub request_failures: u64,
    /// Launches deferred by the concurrency cap.
    pub capacity_deferrals: u64,
    /// Billed instance-usage dollars attributed here.
    pub billed: f64,
}

impl RegionLedger {
    fn is_zero(&self) -> bool {
        *self == RegionLedger::default()
    }
}

/// Cost ledger: spend and launch activity attributed per region.
#[derive(Debug, Clone, PartialEq)]
pub struct CostLedgerView {
    /// One ledger entry per [`Region::ALL`] slot.
    pub regions: [RegionLedger; REGIONS],
    /// Billed dollars with no region attribution (expiry of a workload
    /// whose region was not recorded).
    pub unattributed_billed: f64,
}

impl Default for CostLedgerView {
    fn default() -> Self {
        CostLedgerView {
            regions: [RegionLedger::default(); REGIONS],
            unattributed_billed: 0.0,
        }
    }
}

impl CostLedgerView {
    /// Total billed dollars across every region plus unattributed spend.
    #[must_use]
    pub fn billed_total(&self) -> f64 {
        self.regions.iter().map(|r| r.billed).sum::<f64>() + self.unattributed_billed
    }

    /// Regions with any activity, in [`Region::ALL`] order.
    pub fn active(&self) -> impl Iterator<Item = (Region, &RegionLedger)> {
        self.regions
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.is_zero())
            .map(|(i, l)| (Region::ALL[i], l))
    }
}

/// One circuit-breaker transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerTransition {
    /// When it happened.
    pub at: SimTime,
    /// The affected region.
    pub region: Region,
    /// State before.
    pub from: BreakerState,
    /// State after.
    pub to: BreakerState,
}

/// Breaker state timeline: ordered transitions plus per-region tallies.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerView {
    /// Every transition in fold order.
    pub transitions: Vec<BreakerTransition>,
    /// Trips (transitions *to* [`BreakerState::Open`]) per region.
    pub trips: [u64; REGIONS],
    /// Last-seen state per region (breakers start closed).
    pub current: [BreakerState; REGIONS],
}

impl Default for BreakerView {
    fn default() -> Self {
        BreakerView {
            transitions: Vec::new(),
            trips: [0; REGIONS],
            current: [BreakerState::Closed; REGIONS],
        }
    }
}

impl BreakerView {
    /// Total trips across all regions.
    #[must_use]
    pub fn total_trips(&self) -> u64 {
        self.trips.iter().sum()
    }
}

/// Fleet occupancy: how many instances run concurrently over sim time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OccupancyView {
    /// Change points `(t, running-after)`, one per occupancy change.
    pub curve: Vec<(SimTime, i64)>,
    /// Instances running after the latest folded record.
    pub running: i64,
    /// Peak concurrent instances.
    pub peak: i64,
    /// Workloads announced by `run_started` (the full fleet size; the
    /// batch present at the start emits no arrival event).
    pub arrived: u64,
    /// Workloads arriving after the start in staggered batches
    /// (`workloads_arrived` events); already included in `arrived` when
    /// the `run_started` record is inside the window.
    pub late_arrivals: u64,
    /// Deadline expirations.
    pub expired: u64,
    /// Capacity-cap deferrals.
    pub deferred: u64,
    /// Integral of the occupancy curve: instance-seconds of runtime.
    pub instance_seconds: u64,
    /// Timestamp of the latest occupancy change (integration anchor).
    pub last_change: Option<SimTime>,
}

impl OccupancyView {
    fn shift(&mut self, at: SimTime, delta: i64) {
        if let Some(prev) = self.last_change {
            let dt = at.saturating_duration_since(prev).as_secs();
            if self.running > 0 {
                self.instance_seconds =
                    self.instance_seconds.saturating_add((self.running as u64).saturating_mul(dt));
            }
        }
        self.running += delta;
        self.peak = self.peak.max(self.running);
        self.last_change = Some(at);
        self.curve.push((at, self.running));
    }
}

/// Checkpoint overhead accounting.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CheckpointView {
    /// Checkpoint write attempts.
    pub saves: u64,
    /// Writes whose generation record survived KV throttling.
    pub recorded: u64,
    /// Writes judged torn.
    pub torn: u64,
    /// Restores.
    pub restores: u64,
    /// Restores that fell back to a scratch restart.
    pub scratch_restores: u64,
    /// Durable-looking generations dropped as corrupt across restores.
    pub corrupt_dropped: u64,
    /// Work units covered by checkpoint writes.
    pub units_saved: u64,
    /// Work units resumed from across restores.
    pub units_restored: u64,
}

/// Dead-letter / re-drive summary for orchestrated sweeps.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShardView {
    /// Shard dispatches (first attempts and re-drives both emit one).
    pub dispatches: u64,
    /// Cells carried across all dispatches.
    pub cells_dispatched: u64,
    /// Lease expiries.
    pub lease_expiries: u64,
    /// Re-drives.
    pub redrives: u64,
    /// Shards dead-lettered.
    pub dead_lettered: u64,
    /// Shard completions (duplicates included).
    pub completions: u64,
    /// Completions that found the result already persisted.
    pub duplicates: u64,
    /// Highest attempt number observed.
    pub max_attempt: u32,
}

/// Degradation and fault counters mirroring `resilience_summary`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResilienceView {
    /// Telemetry collection failures.
    pub collection_failures: u64,
    /// Failures the monitor classified retryable.
    pub retryable_failures: u64,
    /// Decisions served from stale-but-within-TTL snapshots.
    pub stale_serves: u64,
    /// Decisions degraded to on-demand by aged telemetry.
    pub degraded_decisions: u64,
    /// Total seconds spent inside degraded intervals.
    pub degraded_seconds: u64,
    /// Chaos fault activations.
    pub chaos_faults: u64,
}

/// All derived views for one trace cell, folded record by record.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CellState {
    /// Run identity and outcome.
    pub summary: RunSummary,
    /// Per-region cost ledger.
    pub ledger: CostLedgerView,
    /// Breaker timeline.
    pub breakers: BreakerView,
    /// Occupancy curve.
    pub occupancy: OccupancyView,
    /// Checkpoint accounting.
    pub checkpoints: CheckpointView,
    /// Orchestration shard accounting.
    pub shards: ShardView,
    /// Degradation counters.
    pub resilience: ResilienceView,
    /// Records folded into this cell.
    pub events: u64,
    /// Dropped-record count from a truncation marker, if one was seen.
    pub dropped: Option<u64>,
}

impl CellState {
    /// Folds one record into the cell. Pure: the resulting state depends
    /// only on the prior state and the record.
    pub fn fold(&mut self, record: &TraceRecord) {
        self.events += 1;
        let at = record.at;
        match &record.event {
            TraceEvent::RunStarted { strategy, seed, workloads, chaos, regime } => {
                self.summary.strategy = Some(strategy.clone());
                self.summary.seed = Some(*seed);
                self.summary.workloads = Some(*workloads);
                self.summary.chaos = chaos.clone();
                self.summary.regime = regime.clone();
                self.summary.started_at = Some(at);
                self.occupancy.arrived = self.occupancy.arrived.saturating_add(*workloads as u64);
            }
            TraceEvent::CollectionFailed { retryable } => {
                self.resilience.collection_failures += 1;
                if *retryable {
                    self.resilience.retryable_failures += 1;
                }
            }
            TraceEvent::StaleServe { .. } => self.resilience.stale_serves += 1,
            TraceEvent::DegradedDecision { .. } => self.resilience.degraded_decisions += 1,
            TraceEvent::DegradedInterval { duration } => {
                self.resilience.degraded_seconds =
                    self.resilience.degraded_seconds.saturating_add(duration.as_secs());
            }
            TraceEvent::Decision { kind, .. } => {
                self.summary.decisions += 1;
                if *kind == DecisionKind::Migration {
                    self.summary.migrations += 1;
                }
            }
            TraceEvent::Launched { region, spot, .. } => {
                let slot = &mut self.ledger.regions[*region as usize];
                if *spot {
                    slot.spot_launches += 1;
                } else {
                    slot.on_demand_launches += 1;
                }
                self.occupancy.shift(at, 1);
            }
            TraceEvent::RequestOpen { region, .. } => {
                self.ledger.regions[*region as usize].request_opens += 1;
            }
            TraceEvent::RequestFailed { region, .. } => {
                self.ledger.regions[*region as usize].request_failures += 1;
            }
            TraceEvent::Interrupted { region, billed, .. } => {
                let slot = &mut self.ledger.regions[*region as usize];
                slot.interruptions += 1;
                slot.billed += billed;
                self.occupancy.shift(at, -1);
            }
            TraceEvent::Completed { region, billed, .. } => {
                let slot = &mut self.ledger.regions[*region as usize];
                slot.completions += 1;
                slot.billed += billed;
                self.summary.last_completion = Some(at);
                self.occupancy.shift(at, -1);
            }
            TraceEvent::CheckpointSave { units, recorded, .. } => {
                self.checkpoints.saves += 1;
                if *recorded {
                    self.checkpoints.recorded += 1;
                }
                self.checkpoints.units_saved =
                    self.checkpoints.units_saved.saturating_add(*units as u64);
            }
            TraceEvent::CheckpointTorn { .. } => self.checkpoints.torn += 1,
            TraceEvent::CheckpointRestore { units, corrupt_dropped, scratch, .. } => {
                self.checkpoints.restores += 1;
                if *scratch {
                    self.checkpoints.scratch_restores += 1;
                }
                self.checkpoints.corrupt_dropped =
                    self.checkpoints.corrupt_dropped.saturating_add(*corrupt_dropped);
                self.checkpoints.units_restored =
                    self.checkpoints.units_restored.saturating_add(*units as u64);
            }
            TraceEvent::Breaker { region, from, to } => {
                let idx = *region as usize;
                self.breakers.transitions.push(BreakerTransition {
                    at,
                    region: *region,
                    from: *from,
                    to: *to,
                });
                if *to == BreakerState::Open {
                    self.breakers.trips[idx] += 1;
                }
                self.breakers.current[idx] = *to;
            }
            TraceEvent::ChaosFault { .. } => self.resilience.chaos_faults += 1,
            TraceEvent::WorkloadsArrived { batch, .. } => {
                self.occupancy.late_arrivals += batch.len() as u64;
            }
            TraceEvent::CapacityDeferred { region, .. } => {
                self.ledger.regions[*region as usize].capacity_deferrals += 1;
                self.occupancy.deferred += 1;
            }
            TraceEvent::WorkloadExpired { region, billed, .. } => {
                self.occupancy.expired += 1;
                match region {
                    Some(region) => {
                        let slot = &mut self.ledger.regions[*region as usize];
                        slot.expirations += 1;
                        slot.billed += billed.unwrap_or(0.0);
                        self.occupancy.shift(at, -1);
                    }
                    None => self.ledger.unattributed_billed += billed.unwrap_or(0.0),
                }
            }
            TraceEvent::ShardDispatched { attempt, cells, .. } => {
                self.shards.dispatches += 1;
                self.shards.cells_dispatched =
                    self.shards.cells_dispatched.saturating_add(*cells as u64);
                self.shards.max_attempt = self.shards.max_attempt.max(*attempt);
            }
            TraceEvent::LeaseExpired { .. } => self.shards.lease_expiries += 1,
            TraceEvent::ShardRedriven { attempt, .. } => {
                self.shards.redrives += 1;
                self.shards.max_attempt = self.shards.max_attempt.max(*attempt);
            }
            TraceEvent::ShardDeadLettered { .. } => self.shards.dead_lettered += 1,
            TraceEvent::ShardCompleted { duplicate, .. } => {
                self.shards.completions += 1;
                if *duplicate {
                    self.shards.duplicates += 1;
                }
            }
            TraceEvent::RunEnded { completed, aborted } => {
                self.summary.ended_at = Some(at);
                self.summary.completed = *completed;
                self.summary.aborted = *aborted;
            }
        }
    }
}

/// The full replay state: one [`CellState`] per trace cell, in
/// first-seen order (single-run traces use the `""` key).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReplayState {
    /// `(cell key, folded views)` in first-seen order.
    pub cells: Vec<(String, CellState)>,
}

impl ReplayState {
    /// The cell for `key`, created on first touch.
    pub fn cell_mut(&mut self, key: &str) -> &mut CellState {
        // Keys are unique, and a merged trace writes each cell's records
        // together, so searching from the newest cell finds it first.
        if let Some(i) = self.cells.iter().rposition(|(k, _)| k == key) {
            return &mut self.cells[i].1;
        }
        self.cells.push((key.to_owned(), CellState::default()));
        &mut self.cells.last_mut().expect("just pushed").1
    }

    /// Looks up a cell by key.
    #[must_use]
    pub fn cell(&self, key: &str) -> Option<&CellState> {
        self.cells.iter().find(|(k, _)| k == key).map(|(_, c)| c)
    }

    /// Folds one parsed line under its cell label, or under
    /// `default_cell` when it has none, honouring the time window.
    /// Truncation markers are always folded (they carry no timestamp).
    pub fn fold_line(&mut self, line: &TraceLine<'_>, default_cell: &str, window: TimeWindow) {
        let cell = line.cell().unwrap_or(default_cell);
        match line {
            TraceLine::Record { record, .. } => self.fold_record(cell, record, window),
            TraceLine::Truncated { dropped, .. } => self.fold_truncation(cell, *dropped),
        }
    }

    /// Folds a run's trace into `cell`: every record, then the truncation
    /// count if it dropped any. The state is the one its JSONL text
    /// (`trace::append_trace_jsonl` under the same label) replays to,
    /// with no text written or read.
    pub fn fold_trace(&mut self, cell: &str, trace: &RunTrace) {
        for record in &trace.events {
            self.fold_record(cell, record, TimeWindow::ALL);
        }
        if trace.dropped > 0 {
            self.fold_truncation(cell, trace.dropped);
        }
    }

    /// Folds `record` into `cell` if the window holds it.
    fn fold_record(&mut self, cell: &str, record: &TraceRecord, window: TimeWindow) {
        if window.contains(record.at) {
            self.cell_mut(cell).fold(record);
        }
    }

    /// Adds a truncation marker's dropped count to `cell`.
    fn fold_truncation(&mut self, cell: &str, dropped: u64) {
        let state = self.cell_mut(cell);
        state.dropped = Some(state.dropped.unwrap_or(0).saturating_add(dropped));
    }
}

/// Replays a full parsed document into a fresh [`ReplayState`].
#[must_use]
pub fn replay_lines(lines: &[TraceLine<'_>], window: TimeWindow) -> ReplayState {
    let mut state = ReplayState::default();
    for line in lines {
        state.fold_line(line, "", window);
    }
    state
}

// ---------------------------------------------------------------------------
// JSON output (`spotverse analyse --output json`).
// ---------------------------------------------------------------------------

object_codec!(RunSummary {
    strategy,
    seed,
    workloads,
    chaos,
    regime,
    started_at,
    ended_at,
    last_completion,
    completed,
    aborted,
    decisions,
    migrations,
});

object_codec!(RegionLedger {
    spot_launches: "spot",
    on_demand_launches: "od",
    interruptions,
    completions,
    expirations,
    request_opens: "opens",
    request_failures: "failures",
    capacity_deferrals: "deferrals",
    billed,
});

array_codec!(BreakerTransition [at, region, from, to]);

array_codec!(CheckpointView [
    saves,
    recorded,
    torn,
    restores,
    scratch_restores,
    corrupt_dropped,
    units_saved,
    units_restored,
]);

array_codec!(ShardView [
    dispatches,
    cells_dispatched,
    lease_expiries,
    redrives,
    dead_lettered,
    completions,
    duplicates,
    max_attempt,
]);

array_codec!(ResilienceView [
    collection_failures,
    retryable_failures,
    stale_serves,
    degraded_decisions,
    degraded_seconds,
    chaos_faults,
]);

impl CellState {
    /// Writes the cell as one JSON object: the ledger, breaker and
    /// occupancy views flattened beside the positional counter arrays,
    /// then the derived `billed_total` and `makespan_s`.
    pub(crate) fn put_json(&self, out: &mut String) {
        let CellState {
            summary,
            ledger,
            breakers,
            occupancy: occ,
            checkpoints,
            shards,
            resilience,
            events,
            dropped,
        } = self;
        put_delimited(out, "{", '}', |out| {
            put_field!(out, summary, "summary");
            put_field!(out, &ledger.regions, "ledger");
            put_field!(out, &ledger.unattributed_billed, "unattributed");
            put_field!(out, &breakers.transitions, "transitions");
            put_field!(out, &breakers.trips, "trips");
            put_field!(out, &breakers.current, "breaker_states");
            put_field!(out, &occ.curve, "curve");
            out.push_str(",\"occupancy\":");
            put_delimited(out, "{", '}', |out| {
                put_field!(out, &occ.running, "running");
                put_field!(out, &occ.peak, "peak");
                put_field!(out, &occ.arrived, "arrived");
                put_field!(out, &occ.late_arrivals, "late_arrivals");
                put_field!(out, &occ.expired, "expired");
                put_field!(out, &occ.deferred, "deferred");
                put_field!(out, &occ.instance_seconds, "instance_seconds");
            });
            put_field!(out, &occ.last_change, "last_change");
            put_field!(out, checkpoints, "checkpoints");
            put_field!(out, shards, "shards");
            put_field!(out, resilience, "resilience");
            put_field!(out, events, "events");
            put_field!(out, dropped, "dropped");
            put_field!(out, &ledger.billed_total(), "billed_total");
            put_field!(out, &summary.makespan_secs(), "makespan_s");
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceRecord;

    fn record(seq: u64, t: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord { seq, at: SimTime::from_secs(t), event }
    }

    #[test]
    fn occupancy_integrates_instance_seconds() {
        let mut cell = CellState::default();
        cell.fold(&record(
            0,
            0,
            TraceEvent::Launched {
                workload: 0,
                region: Region::ALL[0],
                spot: true,
                instance: cloud_compute::InstanceId::from_raw(1),
            },
        ));
        cell.fold(&record(
            1,
            100,
            TraceEvent::Launched {
                workload: 1,
                region: Region::ALL[1],
                spot: false,
                instance: cloud_compute::InstanceId::from_raw(2),
            },
        ));
        cell.fold(&record(
            2,
            160,
            TraceEvent::Completed {
                workload: 0,
                region: Region::ALL[0],
                instance: cloud_compute::InstanceId::from_raw(1),
                billed: 1.5,
            },
        ));
        assert_eq!(cell.occupancy.peak, 2);
        assert_eq!(cell.occupancy.running, 1);
        // 1 instance for 100 s, then 2 instances for 60 s.
        assert_eq!(cell.occupancy.instance_seconds, 100 + 120);
        assert!((cell.ledger.billed_total() - 1.5).abs() < 1e-12);
        assert_eq!(cell.ledger.regions[0].completions, 1);
    }

    #[test]
    fn snapshot_round_trips() {
        let cell = Some(std::borrow::Cow::Borrowed("spotverse/s1"));
        let lines = vec![
            TraceLine::Record {
                cell: cell.clone(),
                record: record(
                    0,
                    86400,
                    TraceEvent::RunStarted {
                        strategy: "spotverse".to_owned(),
                        seed: 7,
                        workloads: 3,
                        chaos: Some("region_flap".to_owned()),
                        regime: Some("capacity_crunch".to_owned()),
                    },
                ),
            },
            TraceLine::Record {
                cell: cell.clone(),
                record: record(
                    1,
                    90000,
                    TraceEvent::Breaker {
                        region: Region::ALL[3],
                        from: BreakerState::Closed,
                        to: BreakerState::Open,
                    },
                ),
            },
            TraceLine::Truncated { cell, dropped: 4 },
            TraceLine::Record {
                cell: None,
                record: record(0, 0, TraceEvent::ShardDispatched { shard: 0, attempt: 1, cells: 9 }),
            },
        ];
        let state = replay_lines(&lines, TimeWindow::ALL);
        assert_eq!(state.cells.len(), 2);
        assert_eq!(state.cell("spotverse/s1").unwrap().dropped, Some(4));

        // Writing the trace out and reading it back folds to the same views.
        let text = crate::replay::trace_lines_to_jsonl(&lines);
        let reread = crate::replay::parse_trace_jsonl(&text).unwrap();
        assert_eq!(reread, lines);
        let back = replay_lines(&reread, TimeWindow::ALL);
        assert_eq!(back, state);

        // The JSON view of each cell is a well-formed object and stable.
        for ((_, a), (_, b)) in state.cells.iter().zip(&back.cells) {
            let (mut ja, mut jb) = (String::new(), String::new());
            a.put_json(&mut ja);
            b.put_json(&mut jb);
            assert_eq!(ja, jb);
            let mut r = sim_kernel::json::Scanner::new(&ja);
            r.begin_object().unwrap();
            let mut keys = Vec::new();
            while let Some(key) = r.next_key().unwrap() {
                keys.push(key);
                r.skip_value().unwrap();
            }
            r.finish().unwrap();
            for key in ["summary", "ledger", "occupancy", "billed_total"] {
                assert!(keys.contains(&key.into()), "{key} missing from {ja}");
            }
        }
    }

    #[test]
    fn huge_values_saturate_instead_of_overflowing() {
        let mut state = ReplayState::default();
        for (seq, t) in [(0, 0), (1, 1), (2, u64::MAX)] {
            let event = TraceEvent::Launched {
                workload: 0,
                region: Region::ALL[0],
                spot: true,
                instance: cloud_compute::InstanceId::from_raw(seq),
            };
            state.cell_mut("").fold(&record(seq, t, event));
        }
        for _ in 0..2 {
            let line = TraceLine::Truncated { cell: None, dropped: u64::MAX };
            state.fold_line(&line, "", TimeWindow::ALL);
        }
        let cell = state.cell("").unwrap();
        assert_eq!(cell.occupancy.instance_seconds, u64::MAX);
        assert_eq!(cell.dropped, Some(u64::MAX));
    }

    #[test]
    fn window_excludes_records() {
        let w = TimeWindow {
            from: Some(SimTime::from_secs(10)),
            until: Some(SimTime::from_secs(20)),
        };
        assert!(!w.contains(SimTime::from_secs(9)));
        assert!(w.contains(SimTime::from_secs(10)));
        assert!(w.contains(SimTime::from_secs(19)));
        assert!(!w.contains(SimTime::from_secs(20)));
    }
}
