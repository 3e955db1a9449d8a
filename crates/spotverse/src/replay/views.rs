//! Derived analytics views folded from trace records.
//!
//! Every view is a pure fold: `fold(state, record) -> state` with no
//! clocks, no I/O, and no dependence on chunking — replaying a trace in
//! one pass, in arbitrary chunk splits, or resuming from a serialized
//! snapshot yields byte-identical view state. That purity contract is
//! what makes the trace log the system of record: any figure a live run
//! reports must be recomputable from the log alone.

use std::borrow::Cow;
use std::str::FromStr;

use cloud_market::Region;
use sim_kernel::SimTime;

use crate::health::BreakerState;
use crate::trace::{DecisionKind, TraceEvent, TraceRecord};

use super::json::{self, num_f64, num_u64, Fields, JsonVal};
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

    /// Folds one parsed line, honouring the time window. Truncation
    /// markers are always folded (they carry no timestamp).
    pub fn fold_line(&mut self, line: &TraceLine, window: TimeWindow) {
        match line {
            TraceLine::Record { cell, record } => {
                if window.contains(record.at) {
                    self.cell_mut(cell.as_deref().unwrap_or("")).fold(record);
                }
            }
            TraceLine::Truncated { cell, dropped } => {
                let state = self.cell_mut(cell.as_deref().unwrap_or(""));
                state.dropped = Some(state.dropped.unwrap_or(0).saturating_add(*dropped));
            }
        }
    }
}

/// Replays a full parsed document into a fresh [`ReplayState`].
#[must_use]
pub fn replay_lines(lines: &[TraceLine], window: TimeWindow) -> ReplayState {
    let mut state = ReplayState::default();
    for line in lines {
        state.fold_line(line, window);
    }
    state
}

// ---------------------------------------------------------------------------
// Snapshot serialization (cursor resume).
// ---------------------------------------------------------------------------

fn num_i64(n: i64) -> JsonVal<'static> {
    JsonVal::Num(Cow::Owned(n.to_string()))
}

fn as_i64(v: &JsonVal<'_>) -> Result<i64, String> {
    match v {
        JsonVal::Num(raw) => raw.parse::<i64>().map_err(|_| format!("`{raw}` is not an i64")),
        other => Err(format!("expected integer, found {}", other.type_name())),
    }
}

fn u64_arr(values: &[u64]) -> JsonVal<'static> {
    JsonVal::Arr(values.iter().map(|v| num_u64(*v)).collect())
}

fn take_u64_arr<const N: usize>(fields: &mut Fields<'_>, key: &str) -> Result<[u64; N], String> {
    let items = fields.require(key)?.into_arr()?;
    if items.len() != N {
        return Err(format!("`{key}` must have {N} entries, found {}", items.len()));
    }
    let mut out = [0u64; N];
    for (slot, item) in out.iter_mut().zip(items) {
        *slot = item.as_u64()?;
    }
    Ok(out)
}

fn opt_time(t: Option<SimTime>) -> Option<JsonVal<'static>> {
    t.map(|t| num_u64(t.as_secs()))
}

fn push_opt<'a>(
    obj: &mut Vec<(Cow<'a, str>, JsonVal<'a>)>,
    key: &'static str,
    v: Option<JsonVal<'a>>,
) {
    if let Some(v) = v {
        obj.push((key.into(), v));
    }
}

fn opt_str(s: &Option<String>) -> Option<JsonVal<'_>> {
    s.as_deref().map(|s| JsonVal::Str(Cow::Borrowed(s)))
}

fn take_time(fields: &mut Fields<'_>, key: &str) -> Result<Option<SimTime>, String> {
    fields.take(key).map(|v| v.as_u64().map(SimTime::from_secs)).transpose()
}

impl RunSummary {
    fn to_json(&self) -> JsonVal<'_> {
        let mut obj = Vec::new();
        push_opt(&mut obj, "strategy", opt_str(&self.strategy));
        push_opt(&mut obj, "seed", self.seed.map(num_u64));
        push_opt(&mut obj, "workloads", self.workloads.map(|w| num_u64(w as u64)));
        push_opt(&mut obj, "chaos", opt_str(&self.chaos));
        push_opt(&mut obj, "regime", opt_str(&self.regime));
        push_opt(&mut obj, "started_at", opt_time(self.started_at));
        push_opt(&mut obj, "ended_at", opt_time(self.ended_at));
        push_opt(&mut obj, "last_completion", opt_time(self.last_completion));
        obj.push(("completed".into(), num_u64(self.completed as u64)));
        obj.push(("aborted".into(), JsonVal::Bool(self.aborted)));
        obj.push(("decisions".into(), num_u64(self.decisions)));
        obj.push(("migrations".into(), num_u64(self.migrations)));
        JsonVal::Obj(obj)
    }

    fn from_json(v: JsonVal<'_>) -> Result<Self, String> {
        let mut f = Fields::new(v.into_obj()?);
        let out = RunSummary {
            strategy: f.take("strategy").map(JsonVal::into_string).transpose()?,
            seed: f.take("seed").map(|v| v.as_u64()).transpose()?,
            workloads: f.take("workloads").map(|v| v.as_usize()).transpose()?,
            chaos: f.take("chaos").map(JsonVal::into_string).transpose()?,
            regime: f.take("regime").map(JsonVal::into_string).transpose()?,
            started_at: take_time(&mut f, "started_at")?,
            ended_at: take_time(&mut f, "ended_at")?,
            last_completion: take_time(&mut f, "last_completion")?,
            completed: f.require("completed")?.as_usize()?,
            aborted: f.require("aborted")?.as_bool()?,
            decisions: f.require("decisions")?.as_u64()?,
            migrations: f.require("migrations")?.as_u64()?,
        };
        f.finish()?;
        Ok(out)
    }
}

impl RegionLedger {
    fn to_json(self) -> JsonVal<'static> {
        JsonVal::Obj(vec![
            ("spot".into(), num_u64(self.spot_launches)),
            ("od".into(), num_u64(self.on_demand_launches)),
            ("interruptions".into(), num_u64(self.interruptions)),
            ("completions".into(), num_u64(self.completions)),
            ("expirations".into(), num_u64(self.expirations)),
            ("opens".into(), num_u64(self.request_opens)),
            ("failures".into(), num_u64(self.request_failures)),
            ("deferrals".into(), num_u64(self.capacity_deferrals)),
            ("billed".into(), num_f64(self.billed)),
        ])
    }

    fn from_json(v: JsonVal<'_>) -> Result<Self, String> {
        let mut f = Fields::new(v.into_obj()?);
        let out = RegionLedger {
            spot_launches: f.require("spot")?.as_u64()?,
            on_demand_launches: f.require("od")?.as_u64()?,
            interruptions: f.require("interruptions")?.as_u64()?,
            completions: f.require("completions")?.as_u64()?,
            expirations: f.require("expirations")?.as_u64()?,
            request_opens: f.require("opens")?.as_u64()?,
            request_failures: f.require("failures")?.as_u64()?,
            capacity_deferrals: f.require("deferrals")?.as_u64()?,
            billed: f.require("billed")?.as_f64()?,
        };
        f.finish()?;
        Ok(out)
    }
}

impl CellState {
    /// Serializes the cell to a JSON value for cursor snapshots.
    pub(crate) fn to_json(&self) -> JsonVal<'_> {
        let mut obj = vec![("summary".into(), self.summary.to_json())];
        let ledger: Vec<JsonVal> =
            self.ledger.regions.iter().map(|l| l.to_json()).collect();
        obj.push(("ledger".into(), JsonVal::Arr(ledger)));
        obj.push(("unattributed".into(), num_f64(self.ledger.unattributed_billed)));
        let transitions: Vec<JsonVal> = self
            .breakers
            .transitions
            .iter()
            .map(|t| {
                JsonVal::Arr(vec![
                    num_u64(t.at.as_secs()),
                    JsonVal::Str(Cow::Borrowed(t.region.name())),
                    JsonVal::Str(t.from.label().into()),
                    JsonVal::Str(t.to.label().into()),
                ])
            })
            .collect();
        obj.push(("transitions".into(), JsonVal::Arr(transitions)));
        obj.push(("trips".into(), u64_arr(&self.breakers.trips)));
        obj.push((
            "breaker_states".into(),
            JsonVal::Arr(
                self.breakers
                    .current
                    .iter()
                    .map(|s| JsonVal::Str(s.label().into()))
                    .collect(),
            ),
        ));
        let curve: Vec<JsonVal> = self
            .occupancy
            .curve
            .iter()
            .map(|(t, n)| JsonVal::Arr(vec![num_u64(t.as_secs()), num_i64(*n)]))
            .collect();
        obj.push(("curve".into(), JsonVal::Arr(curve)));
        obj.push((
            "occupancy".into(),
            JsonVal::Obj(vec![
                ("running".into(), num_i64(self.occupancy.running)),
                ("peak".into(), num_i64(self.occupancy.peak)),
                ("arrived".into(), num_u64(self.occupancy.arrived)),
                ("late_arrivals".into(), num_u64(self.occupancy.late_arrivals)),
                ("expired".into(), num_u64(self.occupancy.expired)),
                ("deferred".into(), num_u64(self.occupancy.deferred)),
                ("instance_seconds".into(), num_u64(self.occupancy.instance_seconds)),
            ]),
        ));
        let mut occ_extra = Vec::new();
        push_opt(&mut occ_extra, "last_change", opt_time(self.occupancy.last_change));
        obj.extend(occ_extra);
        obj.push((
            "checkpoints".into(),
            u64_arr(&[
                self.checkpoints.saves,
                self.checkpoints.recorded,
                self.checkpoints.torn,
                self.checkpoints.restores,
                self.checkpoints.scratch_restores,
                self.checkpoints.corrupt_dropped,
                self.checkpoints.units_saved,
                self.checkpoints.units_restored,
            ]),
        ));
        obj.push((
            "shards".into(),
            u64_arr(&[
                self.shards.dispatches,
                self.shards.cells_dispatched,
                self.shards.lease_expiries,
                self.shards.redrives,
                self.shards.dead_lettered,
                self.shards.completions,
                self.shards.duplicates,
                u64::from(self.shards.max_attempt),
            ]),
        ));
        obj.push((
            "resilience".into(),
            u64_arr(&[
                self.resilience.collection_failures,
                self.resilience.retryable_failures,
                self.resilience.stale_serves,
                self.resilience.degraded_decisions,
                self.resilience.degraded_seconds,
                self.resilience.chaos_faults,
            ]),
        ));
        obj.push(("events".into(), num_u64(self.events)));
        push_opt(&mut obj, "dropped", self.dropped.map(num_u64));
        JsonVal::Obj(obj)
    }

    /// Rebuilds a cell from its snapshot value.
    pub(crate) fn from_json(v: JsonVal<'_>) -> Result<Self, String> {
        let mut f = Fields::new(v.into_obj()?);
        let summary = RunSummary::from_json(f.require("summary")?)?;
        let ledger_items = f.require("ledger")?.into_arr()?;
        if ledger_items.len() != REGIONS {
            return Err(format!("ledger must have {REGIONS} entries"));
        }
        let mut regions = [RegionLedger::default(); REGIONS];
        for (slot, item) in regions.iter_mut().zip(ledger_items) {
            *slot = RegionLedger::from_json(item)?;
        }
        let ledger = CostLedgerView {
            regions,
            unattributed_billed: f.require("unattributed")?.as_f64()?,
        };
        let transitions = f
            .require("transitions")?
            .into_arr()?
            .into_iter()
            .map(|item| {
                let mut parts = item.into_arr()?;
                if parts.len() != 4 {
                    return Err("breaker transition must have 4 entries".to_owned());
                }
                let to = parts.pop().expect("len 4").as_str()?.parse()?;
                let from = parts.pop().expect("len 3").as_str()?.parse()?;
                let region = parts.pop().expect("len 2");
                let region = region.as_str()?;
                let region =
                    Region::from_str(region).map_err(|_| format!("unknown region `{region}`"))?;
                let at = SimTime::from_secs(parts.pop().expect("len 1").as_u64()?);
                Ok(BreakerTransition { at, region, from, to })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let trips = take_u64_arr::<REGIONS>(&mut f, "trips")?;
        let state_items = f.require("breaker_states")?.into_arr()?;
        if state_items.len() != REGIONS {
            return Err(format!("breaker_states must have {REGIONS} entries"));
        }
        let mut current = [BreakerState::Closed; REGIONS];
        for (slot, item) in current.iter_mut().zip(state_items) {
            *slot = item.as_str()?.parse()?;
        }
        let curve = f
            .require("curve")?
            .into_arr()?
            .into_iter()
            .map(|item| {
                let mut parts = item.into_arr()?;
                if parts.len() != 2 {
                    return Err("curve point must have 2 entries".to_owned());
                }
                let n = as_i64(&parts.pop().expect("len 2"))?;
                let t = SimTime::from_secs(parts.pop().expect("len 1").as_u64()?);
                Ok((t, n))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let mut occ = Fields::new(f.require("occupancy")?.into_obj()?);
        let occupancy = OccupancyView {
            curve,
            running: as_i64(&occ.require("running")?)?,
            peak: as_i64(&occ.require("peak")?)?,
            arrived: occ.require("arrived")?.as_u64()?,
            late_arrivals: occ.require("late_arrivals")?.as_u64()?,
            expired: occ.require("expired")?.as_u64()?,
            deferred: occ.require("deferred")?.as_u64()?,
            instance_seconds: occ.require("instance_seconds")?.as_u64()?,
            last_change: take_time(&mut f, "last_change")?,
        };
        occ.finish()?;
        let cp = take_u64_arr::<8>(&mut f, "checkpoints")?;
        let sh = take_u64_arr::<8>(&mut f, "shards")?;
        let rs = take_u64_arr::<6>(&mut f, "resilience")?;
        let events = f.require("events")?.as_u64()?;
        let dropped = f.take("dropped").map(|v| v.as_u64()).transpose()?;
        f.finish()?;
        Ok(CellState {
            summary,
            ledger,
            breakers: BreakerView { transitions, trips, current },
            occupancy,
            checkpoints: CheckpointView {
                saves: cp[0],
                recorded: cp[1],
                torn: cp[2],
                restores: cp[3],
                scratch_restores: cp[4],
                corrupt_dropped: cp[5],
                units_saved: cp[6],
                units_restored: cp[7],
            },
            shards: ShardView {
                dispatches: sh[0],
                cells_dispatched: sh[1],
                lease_expiries: sh[2],
                redrives: sh[3],
                dead_lettered: sh[4],
                completions: sh[5],
                duplicates: sh[6],
                max_attempt: u32::try_from(sh[7])
                    .map_err(|_| "max_attempt exceeds u32".to_owned())?,
            },
            resilience: ResilienceView {
                collection_failures: rs[0],
                retryable_failures: rs[1],
                stale_serves: rs[2],
                degraded_decisions: rs[3],
                degraded_seconds: rs[4],
                chaos_faults: rs[5],
            },
            events,
            dropped,
        })
    }
}

impl ReplayState {
    pub(crate) fn to_json(&self) -> JsonVal<'_> {
        JsonVal::Obj(
            self.cells
                .iter()
                .map(|(key, cell)| (Cow::Borrowed(key.as_str()), cell.to_json()))
                .collect(),
        )
    }

    pub(crate) fn from_json(v: JsonVal<'_>) -> Result<Self, String> {
        let cells = v
            .into_obj()?
            .into_iter()
            .map(|(key, cell)| Ok((key.into_owned(), CellState::from_json(cell)?)))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(ReplayState { cells })
    }
}

/// Serializes a [`ReplayState`] snapshot to canonical JSON text.
#[must_use]
pub fn state_to_json(state: &ReplayState) -> String {
    let mut out = String::new();
    json::write_into(&state.to_json(), &mut out);
    out
}

/// Parses a snapshot produced by [`state_to_json`].
///
/// # Errors
///
/// Returns a message describing the first malformed element.
pub fn state_from_json(input: &str) -> Result<ReplayState, String> {
    ReplayState::from_json(json::parse(input)?)
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
        let mut state = ReplayState::default();
        let cell = state.cell_mut("spotverse/s1");
        cell.fold(&record(
            0,
            86400,
            TraceEvent::RunStarted {
                strategy: "spotverse".to_owned(),
                seed: 7,
                workloads: 3,
                chaos: Some("region_flap".to_owned()),
                regime: Some("capacity_crunch".to_owned()),
            },
        ));
        cell.fold(&record(
            1,
            90000,
            TraceEvent::Breaker {
                region: Region::ALL[3],
                from: BreakerState::Closed,
                to: BreakerState::Open,
            },
        ));
        state.cell_mut("").fold(&record(
            0,
            0,
            TraceEvent::ShardDispatched { shard: 0, attempt: 1, cells: 9 },
        ));
        let text = state_to_json(&state);
        let back = state_from_json(&text).unwrap();
        assert_eq!(back, state);
        assert_eq!(state_to_json(&back), text);
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
            state.fold_line(&line, TimeWindow::ALL);
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
