//! Distribution-level analytics over replayed view state.
//!
//! Everything here is derived from [`ReplayState`] alone — no live
//! simulation objects — so the same figures are available for any trace
//! file, golden or fresh. The text renderer is shared between the
//! `spotverse analyse` CLI and the golden-analytics snapshot tests, so
//! the committed snapshots gate the CLI output byte-for-byte.

use std::fmt::Write as _;

use sim_kernel::json::push_json_str;

use crate::codec::{object_codec, put_delimited, put_field};

use super::views::{CellState, ReplayState};

/// Five-number summary (nearest-rank percentiles) plus the mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Sample count.
    pub count: usize,
    /// Minimum.
    pub min: f64,
    /// Nearest-rank p50.
    pub p50: f64,
    /// Nearest-rank p90.
    pub p90: f64,
    /// Nearest-rank p99.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Percentiles {
    /// Computes the summary over `values`. Returns `None` when empty.
    #[must_use]
    pub fn of(values: &[f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        // Totals replayed from a crafted trace can overflow to infinities
        // and NaN; a total order sorts them without panicking.
        sorted.sort_by(f64::total_cmp);
        let rank = |p: f64| {
            // Nearest-rank: smallest index i with (i+1)/n >= p.
            let n = sorted.len();
            let i = (p * n as f64).ceil() as usize;
            sorted[i.clamp(1, n) - 1]
        };
        Some(Percentiles {
            count: sorted.len(),
            min: sorted[0],
            p50: rank(0.50),
            p90: rank(0.90),
            p99: rank(0.99),
            max: sorted[sorted.len() - 1],
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        })
    }
}

/// Cost and makespan distributions for one strategy across cells.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyDistribution {
    /// Strategy name.
    pub strategy: String,
    /// Cells grouped here.
    pub cells: usize,
    /// Billed-cost summary ($).
    pub cost: Option<Percentiles>,
    /// Makespan summary (hours).
    pub makespan_hours: Option<Percentiles>,
}

/// Pairwise cost wins: `wins[a][b]` = seeds where strategy `a` billed
/// strictly less than strategy `b`.
#[derive(Debug, Clone, PartialEq)]
pub struct WinMatrix {
    /// Strategy names, row/column order.
    pub strategies: Vec<String>,
    /// `wins[a][b]` counts.
    pub wins: Vec<Vec<u64>>,
    /// Seeds with at least two strategies present.
    pub contested_seeds: usize,
}

fn cell_strategy(cell: &CellState) -> &str {
    cell.summary.strategy.as_deref().unwrap_or("?")
}

/// Groups cells by strategy and summarizes cost/makespan distributions.
/// Strategies appear in first-seen cell order. Cells with no
/// `run_started` record (e.g. the orchestrator's shard trace) carry no
/// strategy and are skipped.
#[must_use]
pub fn strategy_distributions(state: &ReplayState) -> Vec<StrategyDistribution> {
    let mut groups: Vec<(String, Vec<f64>, Vec<f64>)> = Vec::new();
    for (_, cell) in &state.cells {
        if cell.summary.strategy.is_none() {
            continue;
        }
        let name = cell_strategy(cell);
        let idx = match groups.iter().position(|(n, _, _)| n == name) {
            Some(i) => i,
            None => {
                groups.push((name.to_owned(), Vec::new(), Vec::new()));
                groups.len() - 1
            }
        };
        groups[idx].1.push(cell.ledger.billed_total());
        if let Some(secs) = cell.summary.makespan_secs() {
            groups[idx].2.push(secs as f64 / 3600.0);
        }
    }
    groups
        .into_iter()
        .map(|(strategy, costs, makespans)| StrategyDistribution {
            strategy,
            cells: costs.len(),
            cost: Percentiles::of(&costs),
            makespan_hours: Percentiles::of(&makespans),
        })
        .collect()
}

/// Builds the pairwise cost win matrix across common seeds.
#[must_use]
pub fn win_matrix(state: &ReplayState) -> WinMatrix {
    let mut strategies: Vec<String> = Vec::new();
    // (seed, strategy index, billed) per cell that declared a seed.
    let mut samples: Vec<(u64, usize, f64)> = Vec::new();
    for (_, cell) in &state.cells {
        let Some(seed) = cell.summary.seed else { continue };
        let name = cell_strategy(cell);
        let idx = match strategies.iter().position(|n| n == name) {
            Some(i) => i,
            None => {
                strategies.push(name.to_owned());
                strategies.len() - 1
            }
        };
        samples.push((seed, idx, cell.ledger.billed_total()));
    }
    let n = strategies.len();
    let mut wins = vec![vec![0u64; n]; n];
    let mut seeds: Vec<u64> = samples.iter().map(|(s, _, _)| *s).collect();
    seeds.sort_unstable();
    seeds.dedup();
    let mut contested = 0usize;
    for seed in seeds {
        let here: Vec<&(u64, usize, f64)> =
            samples.iter().filter(|(s, _, _)| *s == seed).collect();
        if here.len() < 2 {
            continue;
        }
        contested += 1;
        for a in &here {
            for b in &here {
                if a.1 != b.1 && a.2 < b.2 {
                    wins[a.1][b.1] += 1;
                }
            }
        }
    }
    WinMatrix { strategies, wins, contested_seeds: contested }
}

fn fmt_money(v: f64) -> String {
    format!("{v:.2}")
}

fn fmt_pct(p: &Percentiles) -> String {
    format!(
        "n={} min={:.2} p50={:.2} p90={:.2} p99={:.2} max={:.2} mean={:.2}",
        p.count, p.min, p.p50, p.p90, p.p99, p.max, p.mean
    )
}

fn render_cell(out: &mut String, key: &str, cell: &CellState) {
    let name = if key.is_empty() { "(run)" } else { key };
    let _ = writeln!(out, "cell {name}");
    let s = &cell.summary;
    let strategy = s.strategy.as_deref().unwrap_or("-");
    let seed = s.seed.map_or_else(|| "-".to_owned(), |v| v.to_string());
    let chaos = s.chaos.as_deref().unwrap_or("-");
    // Regime is rendered only when the run declared one, so every
    // pre-regime golden analytics snapshot stays byte-identical.
    let regime = s
        .regime
        .as_deref()
        .map(|r| format!(" regime={r}"))
        .unwrap_or_default();
    let _ = writeln!(
        out,
        "  run: strategy={strategy} seed={seed} chaos={chaos}{regime} workloads={} completed={} aborted={}",
        s.workloads.map_or_else(|| "-".to_owned(), |v| v.to_string()),
        s.completed,
        s.aborted,
    );
    let makespan = s.makespan_secs().map_or_else(
        || "-".to_owned(),
        |secs| format!("{secs} s ({:.2} h)", secs as f64 / 3600.0),
    );
    let _ = writeln!(
        out,
        "  outcome: billed=${} makespan={makespan} decisions={} migrations={}",
        fmt_money(cell.ledger.billed_total()),
        s.decisions,
        s.migrations,
    );
    let occ = &cell.occupancy;
    let _ = writeln!(
        out,
        "  occupancy: peak={} arrived={} late={} expired={} deferred={} instance-hours={:.2}",
        occ.peak,
        occ.arrived,
        occ.late_arrivals,
        occ.expired,
        occ.deferred,
        occ.instance_seconds as f64 / 3600.0,
    );
    for (region, ledger) in cell.ledger.active() {
        let _ = writeln!(
            out,
            "  region {:<14} spot={} od={} intr={} done={} exp={} billed=${}",
            region.name(),
            ledger.spot_launches,
            ledger.on_demand_launches,
            ledger.interruptions,
            ledger.completions,
            ledger.expirations,
            fmt_money(ledger.billed),
        );
    }
    if cell.ledger.unattributed_billed != 0.0 {
        let _ = writeln!(
            out,
            "  region (unattributed) billed=${}",
            fmt_money(cell.ledger.unattributed_billed)
        );
    }
    let br = &cell.breakers;
    if !br.transitions.is_empty() {
        let _ = writeln!(
            out,
            "  breakers: transitions={} trips={}",
            br.transitions.len(),
            br.total_trips()
        );
        for (i, trips) in br.trips.iter().enumerate() {
            if *trips > 0 {
                let _ = writeln!(
                    out,
                    "    {:<14} trips={trips}",
                    cloud_market::Region::ALL[i].name()
                );
            }
        }
    }
    let cp = &cell.checkpoints;
    if cp.saves + cp.restores > 0 {
        let _ = writeln!(
            out,
            "  checkpoints: saves={} recorded={} torn={} restores={} scratch={} corrupt-dropped={}",
            cp.saves, cp.recorded, cp.torn, cp.restores, cp.scratch_restores, cp.corrupt_dropped,
        );
    }
    let sh = &cell.shards;
    if sh.dispatches > 0 {
        let _ = writeln!(
            out,
            "  shards: dispatches={} cells={} lease-expiries={} redrives={} dead-lettered={} completions={} duplicates={}",
            sh.dispatches,
            sh.cells_dispatched,
            sh.lease_expiries,
            sh.redrives,
            sh.dead_lettered,
            sh.completions,
            sh.duplicates,
        );
    }
    let rs = &cell.resilience;
    if rs.collection_failures + rs.stale_serves + rs.degraded_decisions + rs.chaos_faults > 0 {
        let _ = writeln!(
            out,
            "  resilience: collection-failures={} stale-serves={} degraded-decisions={} degraded-hours={:.2} chaos-faults={}",
            rs.collection_failures,
            rs.stale_serves,
            rs.degraded_decisions,
            rs.degraded_seconds as f64 / 3600.0,
            rs.chaos_faults,
        );
    }
    if let Some(dropped) = cell.dropped {
        let _ = writeln!(out, "  truncated: dropped={dropped}");
    }
    let _ = writeln!(out, "  events: {}", cell.events);
}

/// Renders the full analysis as deterministic text: per-cell views, then
/// per-strategy distributions and the win matrix when more than one cell
/// is present.
#[must_use]
pub fn render_analysis(state: &ReplayState) -> String {
    let mut out = String::new();
    for (key, cell) in &state.cells {
        render_cell(&mut out, key, cell);
    }
    if state.cells.len() > 1 {
        let dists = strategy_distributions(state);
        let _ = writeln!(out, "distributions ({} cells)", state.cells.len());
        for d in &dists {
            let _ = writeln!(out, "  {} ({} cells)", d.strategy, d.cells);
            if let Some(cost) = &d.cost {
                let _ = writeln!(out, "    cost $: {}", fmt_pct(cost));
            }
            if let Some(mk) = &d.makespan_hours {
                let _ = writeln!(out, "    makespan h: {}", fmt_pct(mk));
            }
        }
        win_matrix(state).render(&mut out, "");
    }
    out
}

impl WinMatrix {
    /// Writes the matrix as a table under `indent`, or nothing when fewer
    /// than two strategies or no contested seeds are present.
    pub(crate) fn render(&self, out: &mut String, indent: &str) {
        if self.strategies.len() < 2 || self.contested_seeds == 0 {
            return;
        }
        let _ = writeln!(
            out,
            "{indent}win matrix (cheaper-than counts over {} contested seeds)",
            self.contested_seeds
        );
        let width = self.strategies.iter().map(String::len).max().unwrap_or(0).max(4);
        let _ = write!(out, "{indent}  {:<width$}", "");
        for s in &self.strategies {
            let _ = write!(out, " {s:>width$}");
        }
        out.push('\n');
        for (i, row) in self.wins.iter().enumerate() {
            let _ = write!(out, "{indent}  {:<width$}", self.strategies[i]);
            for (j, w) in row.iter().enumerate() {
                if i == j {
                    let _ = write!(out, " {:>width$}", "-");
                } else {
                    let _ = write!(out, " {w:>width$}");
                }
            }
            out.push('\n');
        }
    }
}

object_codec!(Percentiles { count, min, p50, p90, p99, max, mean });

object_codec!(StrategyDistribution { strategy, cells, cost, makespan_hours });

object_codec!(WinMatrix { strategies, wins, contested_seeds });

/// Renders the analysis as one canonical JSON object (machine-readable
/// variant of [`render_analysis`]).
#[must_use]
pub fn render_analysis_json(state: &ReplayState) -> String {
    let mut text = String::new();
    put_delimited(&mut text, "{", '}', |out| {
        out.push_str(",\"cells\":");
        put_delimited(out, "{", '}', |out| {
            for (key, cell) in &state.cells {
                out.push(',');
                push_json_str(out, key);
                out.push(':');
                cell.put_json(out);
            }
        });
        put_field!(out, &strategy_distributions(state), "distributions");
        put_field!(out, &win_matrix(state), "win_matrix");
    });
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let p = Percentiles::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]).unwrap();
        assert_eq!(p.min, 1.0);
        assert_eq!(p.p50, 5.0);
        assert_eq!(p.p90, 9.0);
        assert_eq!(p.p99, 10.0);
        assert_eq!(p.max, 10.0);
        assert!((p.mean - 5.5).abs() < 1e-12);
        assert!(Percentiles::of(&[]).is_none());
        let single = Percentiles::of(&[3.5]).unwrap();
        assert_eq!(single.p50, 3.5);
        assert_eq!(single.p99, 3.5);
        let overflowed = Percentiles::of(&[f64::NAN, 1.0, f64::INFINITY]).unwrap();
        assert_eq!(overflowed.min, 1.0);
    }

    #[test]
    fn win_matrix_counts_cheaper_seeds() {
        let mut state = ReplayState::default();
        for (key, strategy, seed, billed) in [
            ("a/s1", "a", 1u64, 10.0),
            ("b/s1", "b", 1, 12.0),
            ("a/s2", "a", 2, 9.0),
            ("b/s2", "b", 2, 8.0),
            ("a/s3", "a", 3, 1.0), // uncontested
        ] {
            let cell = state.cell_mut(key);
            cell.summary.strategy = Some(strategy.to_owned());
            cell.summary.seed = Some(seed);
            cell.ledger.unattributed_billed = billed;
        }
        let wm = win_matrix(&state);
        assert_eq!(wm.strategies, vec!["a", "b"]);
        assert_eq!(wm.contested_seeds, 2);
        assert_eq!(wm.wins[0][1], 1);
        assert_eq!(wm.wins[1][0], 1);
    }
}
