#!/usr/bin/env bash
# Full local verification: tier-1 (release build + test suite) plus the
# lint gate. Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

# Resolving perfbench (a workspace of its own) rewrites its Cargo.lock,
# dropping crates this repository no longer has. That file belongs to the
# benchmark, so put it back on exit, failed runs included, unless it
# already had uncommitted changes when the script started.
if git diff --quiet HEAD -- perfbench/Cargo.lock 2>/dev/null; then
    trap 'git checkout --quiet -- perfbench/Cargo.lock' EXIT
fi

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> benchmark: cargo build --release --manifest-path perfbench/Cargo.toml"
# perfbench is a workspace of its own, outside the root workspace, so
# nothing above compiles it; this catches a change that breaks an API it
# uses. The Cargo.lock rewrite this causes is undone on exit (see top).
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> perfbench smoke: each benchmark workload for one second"
# Every operation checks its text against the CLI's byte for byte (and
# its own invariants), so a break shows here as correct=false or a
# failed operation, before a full benchmark run would meet it.
# Every workload runs traced at seed 2024, and its deterministic counters
# must equal perfbench/counters.json. The 100k fleet has many more
# same-instant events than the small goldens, so it is where a change to
# event order shows; the tournament is the only workload whose chaos
# throttles the Monitor's KV writes, so it is where a change to fault
# order shows; the sweep builds 400 markets and runs 2,000 orchestrated
# cells, so it is where a change to market construction or orchestration
# shows; analyse replays the 148,894-line merged fleet trace, so it is
# where a change to what the trace writer emits or the reader counts
# shows.
# counters.json is only read; its allocs.* entries are older than the
# current code and are not compared.
# Some counters.json entries predate the current code, so this table pins
# them at their new exact values:
# - Two market.segments_materialized entries count the market's old fixed
#   14-day segments; the market now fills doubling segments (4, 4, 8 ...
#   128 days). The sweep's 9,600 did not move. The tournament's is 1,452,
#   not 1,728: the Monitor reads a row's prices only when a decision asks,
#   at the row's stamp, so the price segments that only its ticks reached
#   stay unfilled.
# - The tournament's optimizer.calls is 50,690: counters.json's 75,699
#   minus the 25,009 explain_candidates calls the timing wrapper counted,
#   one per non-degraded decision record in its traces at seed 2024. A
#   decision now fills its candidate audit from the selection it places
#   from, so the fleet no longer makes that call. The fleet and sweep
#   workloads run untraced, so theirs did not move.
# ROADMAP item 16, the change to the benchmark that regenerates
# counters.json, deletes this table.
counter_overrides='{"fleet_loadgen": {"market.segments_materialized": 48},
                    "tournament_regimes": {"market.segments_materialized": 1452,
                                           "optimizer.calls": 50690}}'
for workload in fleet_loadgen tournament_regimes sweep_orchestrated analyse_trace; do
    args=(--workload "$workload" --seconds 1)
    keys=""
    case "$workload" in
        fleet_loadgen)
            keys="fleet.events ec2.spot_attempts ec2.launches ec2.interruptions
                  optimizer.calls checkpoint.writes market.segments_materialized" ;;
        tournament_regimes)
            keys="fleet.events optimizer.calls
                  market.builds market.cache_hits market.segments_materialized
                  ec2.spot_attempts ec2.launches ec2.interruptions
                  monitor.stale_serves monitor.degraded_decisions monitor.collection_failures
                  health.breaker_trips health.quarantined_decisions checkpoint.throttled_retries
                  trace.records trace.bytes" ;;
        sweep_orchestrated)
            keys="market.builds market.cache_hits market.segments_materialized
                  fleet.events ec2.spot_attempts ec2.launches ec2.interruptions
                  optimizer.calls checkpoint.writes orchestrate.dispatches" ;;
        analyse_trace)
            keys="trace.records trace.bytes" ;;
    esac
    if [ -n "$keys" ]; then
        args+=(--seed 2024 --trace 1)
    fi
    result=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        "${args[@]}" 2>/dev/null | tail -n 1 || true)
    if ! python3 -c '
import json, sys
result = json.loads(sys.argv[1])
sys.exit(0 if result.get("correct") is True and result.get("failed") == 0 else 1)
' "$result" 2>/dev/null; then
        echo "==> perfbench smoke FAILED: $workload: ${result:-no result line}" >&2
        exit 1
    fi
    echo "    $workload: correct, 0 failed"
    if [ -n "$keys" ] && ! python3 -c '
import json, sys
workload, keys = sys.argv[2], sys.argv[3].split()
metrics = json.loads(sys.argv[1])["metrics"]
pinned = json.load(open("perfbench/counters.json"))[workload]["counters"]
overrides = json.loads(sys.argv[4]).get(workload, {})
pinned.update(overrides)
got = {k: metrics.get(k, {}).get("value") for k in keys}
drift = [f"    {k}: {got[k]} != {pinned.get(k)}" for k in keys if got[k] != pinned.get(k)]
source = "counters.json" + (" and counter_overrides" if overrides else "")
print("\n".join(drift) or f"    {workload}: {len(keys)} counters equal {source}")
sys.exit(1 if drift else 0)
' "$result" "$workload" "$keys" "$counter_overrides"; then
        echo "==> perfbench smoke FAILED: $workload counters differ from perfbench/counters.json" >&2
        exit 1
    fi
done

echo "==> golden traces: byte-identical replay of committed traces"
# Drift fails here; bless intentional changes with scripts/regen-golden.sh.
cargo test -q -p spotverse-integration --test golden_traces

echo "==> golden analytics: analyse views of committed traces"
cargo test -q -p spotverse-integration --test golden_analytics

echo "==> golden tournament: committed leaderboard snapshot"
cargo test -q -p spotverse-integration --test golden_tournament

echo "==> trace fold: in-process record fold equals text replay"
# The tournament folds its cells' trace records in-process; `analyse`
# replays the same records from merged JSONL. Per regime the two folds
# must be equal cell for cell and give the same win matrix, truncation
# included. The filter must select the one test, not none.
fold_out=$(cargo test -q -p spotverse-integration --test trace_roundtrip -- \
    --exact trace_stats_reconcile_across_merged_cells 2>&1) || {
    echo "$fold_out" >&2
    echo "==> trace fold FAILED" >&2
    exit 1
}
if ! grep -q "1 passed" <<<"$fold_out"; then
    echo "==> trace fold FAILED: trace_stats_reconcile_across_merged_cells did not run" >&2
    exit 1
fi
echo "    record fold equals text replay in every regime"

echo "==> strategy variants: every SpotVerse variant honours exclusions"
# On a fleet capped at one running instance per region, SpotVerse on
# AWS-like (full) metrics must equal plain SpotVerse in every report
# field: both pass the fleet's exclusion list to the Optimizer. The
# filter must select the one test, not none.
variants_out=$(cargo test -q -p spotverse --test extensions -- \
    --exact provider_full_matches_plain_spotverse_on_a_capacity_capped_fleet 2>&1) || {
    echo "$variants_out" >&2
    echo "==> strategy variants FAILED" >&2
    exit 1
}
if ! grep -q "1 passed" <<<"$variants_out"; then
    echo "==> strategy variants FAILED: provider_full_matches_plain_spotverse_on_a_capacity_capped_fleet did not run" >&2
    exit 1
fi
echo "    provider-full SpotVerse equals plain SpotVerse under a capacity cap"

echo "==> degraded decisions: both decision kinds are pinned by a golden"
# Past the telemetry TTL the Controller places on-demand without asking
# the strategy. The telemetry_blackout fleet golden holds one degraded
# initial and one degraded migration decision, byte for byte, and the
# test asserts both are there. The filter must select the one test, not
# none.
degraded_out=$(cargo test -q -p spotverse-integration --test golden_traces -- \
    --exact fleet_telemetry_blackout_degraded_decisions_match_golden 2>&1) || {
    echo "$degraded_out" >&2
    echo "==> degraded decisions FAILED" >&2
    exit 1
}
if ! grep -q "1 passed" <<<"$degraded_out"; then
    echo "==> degraded decisions FAILED: fleet_telemetry_blackout_degraded_decisions_match_golden did not run" >&2
    exit 1
fi
echo "    degraded initial and migration decisions match the golden"

echo "==> lazy monitor rows: stamped rows serve what the eager Monitor stored"
# The Monitor bills and fault-checks its KV writes at the tick but reads
# each row's metrics from the market only when a decision asks, at the
# row's stamp. The proptest replays 64 random collect/decide runs under
# every chaos scenario against an eager oracle that assesses every region
# at each tick and draws its own copy of the KV fault stream: collection
# outcomes, assessments, degraded flags, freshness counters and traces
# must match at every step. The filter must select the one test, not none.
oracle_out=$(cargo test -q -p spotverse --lib -- \
    --exact controlplane::tests::decisions_match_an_eager_oracle 2>&1) || {
    echo "$oracle_out" >&2
    echo "==> lazy monitor rows FAILED" >&2
    exit 1
}
if ! grep -q "1 passed" <<<"$oracle_out"; then
    echo "==> lazy monitor rows FAILED: decisions_match_an_eager_oracle did not run" >&2
    exit 1
fi
echo "    stamped rows match the eager oracle under every chaos scenario"

echo "==> decision audit: a traced decision records the selection it placed from"
# Every SpotVerse variant, the StayPut and CheapestQualifying ablations
# and a single-region start run a staggered fleet with a drawn seed,
# threshold, capacity cap, chaos scenario and deadline slack. A spot
# placement of a decision that records candidates must be one of its
# selected, unexcluded regions; a deadline pin, a single-region start and
# a StayPut relaunch must record no candidates; every other non-degraded
# decision must record them. The filter must select the one test, not
# none.
audit_out=$(cargo test -q -p spotverse --test extensions -- \
    --exact every_variant_places_spot_only_in_selected_unexcluded_regions 2>&1) || {
    echo "$audit_out" >&2
    echo "==> decision audit FAILED" >&2
    exit 1
}
if ! grep -q "1 passed" <<<"$audit_out"; then
    echo "==> decision audit FAILED: every_variant_places_spot_only_in_selected_unexcluded_regions did not run" >&2
    exit 1
fi
echo "    every traced decision's candidates are the selection it placed from"

echo "==> golden workflows: committed .ga exports of the paper workflows"
cargo test -q -p spotverse-integration --test golden_workflows

echo "==> golden cli: every command's output, error messages and flag schemas"
# One golden per argv, one line per bad argv and each command's sorted
# flag list, so argument handling cannot drift unnoticed.
cargo test -q -p spotverse-integration --test golden_cli

echo "==> golden paper: every table, figure and ablation, check by check"
# All 28 shape checks asserted by name, and each figure's text pinned
# against tests/golden/paper/ so no reproduced number moves unnoticed.
cargo test -q -p spotverse-integration --test golden_paper

echo "==> fleet allocations: fleet runs and Monitor collections allocate exactly as pinned"
# Exact allocation counts of `run_fleet_on` on 1,000- and 2,000-workload
# Poisson fleets and on the sweep's one-workload NGS cell, and of 24
# steady-state Monitor collections; a hot-path regression fails here
# without a timer, and an improvement must be re-pinned.
cargo test -q -p spotverse-integration --test fleet_allocs

echo "==> lint: cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc: cargo doc --workspace --no-deps with warnings denied"
# Catches doc links left pointing at renamed or deleted items.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> examples: every example binary runs to a zero exit"
for example in quickstart ngs_checkpoint_resume threshold_tuning weekly_patterns; do
    if ! cargo run --release --quiet -p spotverse-examples --bin "$example" >/dev/null; then
        echo "==> examples FAILED: $example exited non-zero" >&2
        exit 1
    fi
    echo "    $example: ok"
done

# A run command with a failed cell keeps its table on stdout and exits
# non-zero, so the smokes below capture the status instead of letting
# `set -e` end the script before their own message.
echo "==> chaos smoke: full scenario library x all strategies, 2 workers"
chaos_status=0
chaos_out=$(cargo run --release --quiet --bin spotverse -- \
    chaos --instances 4 --workload ngs --jobs 2) || chaos_status=$?
echo "$chaos_out"
if [ "$chaos_status" -ne 0 ] || grep -q "FAILED" <<<"$chaos_out"; then
    echo "==> chaos smoke FAILED: at least one cell did not produce an Ok report" >&2
    exit 1
fi

echo "==> fleet smoke: staggered workloads x all strategies, capacity-capped, 2 workers"
fleet_status=0
fleet_out=$(cargo run --release --quiet --bin spotverse -- \
    fleet --instances 3 --workload ngs --spacing-mins 120 --capacity 2 \
    --strategy all --jobs 2) || fleet_status=$?
echo "$fleet_out"
if [ "$fleet_status" -ne 0 ] || grep -q "FAILED" <<<"$fleet_out"; then
    echo "==> fleet smoke FAILED: at least one cell did not produce an Ok report" >&2
    exit 1
fi

echo "==> horizon smoke: a loadgen fleet arriving past the market horizon stops there"
# Arrivals run past the 210-day price history; every strategy's run must
# stop at the horizon with exit 0, not panic reading the market beyond it.
# At --rate 6.56217489948946e-17 the one arrival fits in a duration but
# lands at the last representable second once the start is added, so
# adding a deadline to it must saturate rather than wrap. (A lower rate
# whose arrivals do not fit at all is an argv error; see
# tests/golden/cli/errors.txt.)
for rate_args in "--workloads 1000 --rate 0.2 --strategy all" "--workloads 1 --rate 6.56217489948946e-17"; do
    horizon_status=0
    horizon_err=$(cargo run --release --quiet --bin spotverse -- \
        fleet --loadgen poisson $rate_args 2>&1 >/dev/null) \
        || horizon_status=$?
    if [ "$horizon_status" -ne 0 ] || grep -q "panicked" <<<"$horizon_err"; then
        echo "==> horizon smoke FAILED: $rate_args: exit $horizon_status" >&2
        echo "$horizon_err" >&2
        exit 1
    fi
    echo "    $rate_args: stops at the horizon, exit 0"
done

echo "==> parser robustness smoke: a trace line nested 50,000 deep is an error, not an abort"
# One 100 KB line whose key ahead of `event` holds 50,000 nested arrays.
# The reader must stop at its nesting bound with exit 1, not overflow the
# stack. The release binary runs it because its stack frames differ from
# those of the debug binary that crates/cli/tests/exit_status.rs spawns.
nested_dir=$(mktemp -d)
{
    printf '{"x":'
    head -c 50000 /dev/zero | tr '\0' '['
    head -c 50000 /dev/zero | tr '\0' ']'
    printf '}\n'
} > "$nested_dir/nested.jsonl"
nested_status=0
nested_err=$(cargo run --release --quiet --bin spotverse -- \
    analyse "$nested_dir/nested.jsonl" 2>&1 >/dev/null) \
    || nested_status=$?
rm -rf "$nested_dir"
if [ "$nested_status" -ne 1 ] || grep -qE "overflowed|panicked" <<<"$nested_err"; then
    echo "==> parser robustness smoke FAILED: exit $nested_status" >&2
    echo "$nested_err" >&2
    exit 1
fi
echo "    exit 1: $(head -n 1 <<<"$nested_err")"

echo "==> tournament smoke: strategies x regimes leaderboard vs committed snapshot"
# The same argv the golden_tournament suite pins; the CLI output must
# match the committed leaderboard byte-for-byte and show real work.
tournament_out=$(cargo run --release --quiet --bin spotverse -- \
    tournament --instances 2 --workload ngs --seeds 1 --chaos regime)
if ! diff -u tests/golden/tournament/leaderboard.txt - <<<"$tournament_out" >/dev/null; then
    echo "==> tournament smoke FAILED: leaderboard drifted from committed snapshot" >&2
    echo "    bless intentional changes with scripts/regen-golden.sh" >&2
    exit 1
fi
if ! grep -qE "completed [1-9]" <<<"$tournament_out"; then
    echo "==> tournament smoke FAILED: no tournament cell completed any workload" >&2
    exit 1
fi
echo "    leaderboard matches snapshot ($(grep -c '^regime ' <<<"$tournament_out") regimes, nonzero completions)"

echo "==> loadgen smoke: 200-workload Poisson fleet, merged trace"
loadgen_out=$(cargo run --release --quiet --bin spotverse -- \
    fleet --loadgen poisson --workloads 200 --output trace)
completions=$(grep -c '"event":"completed"' <<<"$loadgen_out" || true)
echo "    $(wc -l <<<"$loadgen_out") trace lines, $completions completions"
if [ "$completions" -eq 0 ]; then
    echo "==> loadgen smoke FAILED: no workload completed" >&2
    exit 1
fi
if ! python3 -c '
import json, sys
for n, line in enumerate(sys.stdin, 1):
    if not isinstance(json.loads(line), dict):
        sys.exit(f"line {n}: not a JSON object")
' <<<"$loadgen_out"; then
    echo "==> loadgen smoke FAILED: merged trace is not valid JSONL" >&2
    exit 1
fi

echo "==> orchestrated sweep smoke: fault-free byte-equivalence + chaos accounting"
sweep_args=(sweep --instances 2 --workload ngs --strategy on-demand --seeds 2 --output trace)
inproc_out=$(cargo run --release --quiet --bin spotverse -- "${sweep_args[@]}")
orch_out=$(cargo run --release --quiet --bin spotverse -- "${sweep_args[@]}" --orchestrated true)
if [ "$inproc_out" != "$orch_out" ]; then
    echo "==> orchestrated sweep smoke FAILED: fault-free orchestration diverged from in-process" >&2
    exit 1
fi
echo "    fault-free traces byte-identical ($(wc -l <<<"$inproc_out") lines)"
# Dead-lettered cells are failed cells (non-zero exit); this smoke
# accepts them as long as every cell is accounted for.
chaos_sweep_out=$(cargo run --release --quiet --bin spotverse -- \
    sweep --instances 2 --workload ngs --strategy on-demand --seeds 4 \
    --orchestrated true --scenario sweep_shard_chaos) || true
echo "$chaos_sweep_out"
accounting=$(grep '^cells: ' <<<"$chaos_sweep_out" || true)
if [ -z "$accounting" ]; then
    echo "==> orchestrated sweep smoke FAILED: no accounting line under chaos" >&2
    exit 1
fi
# Every cell must be accounted for: total = completed + dead-lettered.
read -r total completed dead <<<"$(awk '/^cells: /{print $2, $5, $8}' <<<"$chaos_sweep_out")"
if [ "$total" -ne $((completed + dead)) ] || [ "$total" -ne 4 ]; then
    echo "==> orchestrated sweep smoke FAILED: $accounting does not reconcile" >&2
    exit 1
fi

echo "==> analyse smoke: CLI output matches committed analytics snapshots"
# The CLI shares its renderer with the golden-analytics suite, so the
# committed snapshots gate the CLI byte-for-byte.
for trace in tests/golden/*.jsonl; do
    name=$(basename "$trace" .jsonl)
    snapshot="tests/golden/analytics/$name.txt"
    if ! cargo run --release --quiet --bin spotverse -- analyse "$trace" \
        | diff -u "$snapshot" - >/dev/null; then
        echo "==> analyse smoke FAILED: $trace drifted from $snapshot" >&2
        exit 1
    fi
done
echo "    $(ls tests/golden/*.jsonl | wc -l) traces match their snapshots"
# Round-trip gate: analyse of a freshly generated trace reproduces the
# run's own report figures (cost + makespan) exactly.
trace_tmp=$(mktemp)
cargo run --release --quiet --bin spotverse -- trace --instances 3 --workload ngs > "$trace_tmp"
analyse_out=$(cargo run --release --quiet --bin spotverse -- analyse "$trace_tmp")
rm -f "$trace_tmp"
if ! grep -q "completed=3" <<<"$analyse_out"; then
    echo "==> analyse smoke FAILED: fresh trace did not analyse to a completed run" >&2
    echo "$analyse_out" >&2
    exit 1
fi

echo "==> verify OK"
