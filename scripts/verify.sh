#!/usr/bin/env bash
# Full local verification: tier-1 (release build + test suite) plus the
# lint gate. Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> benchmark: cargo build --release --manifest-path perfbench/Cargo.toml"
# perfbench is a workspace of its own, outside the root workspace, so
# nothing above compiles it; this catches a change that breaks an API it
# uses. Cargo may rewrite perfbench/Cargo.lock here (dropping crates the
# repository no longer has). Do not commit that rewrite: restore the file
# with `git checkout perfbench/Cargo.lock`.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> perfbench smoke: each benchmark workload for one second"
# Every operation checks its text against the CLI's byte for byte (and
# its own invariants), so a break shows here as correct=false or a
# failed operation, before a full benchmark run would meet it.
for workload in fleet_loadgen tournament_regimes sweep_orchestrated analyse_trace; do
    result=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seconds 1 2>/dev/null | tail -n 1 || true)
    if ! python3 -c '
import json, sys
result = json.loads(sys.argv[1])
sys.exit(0 if result.get("correct") is True and result.get("failed") == 0 else 1)
' "$result" 2>/dev/null; then
        echo "==> perfbench smoke FAILED: $workload: ${result:-no result line}" >&2
        exit 1
    fi
    echo "    $workload: correct, 0 failed"
done

echo "==> golden traces: byte-identical replay of committed traces"
# Drift fails here; bless intentional changes with scripts/regen-golden.sh.
cargo test -q -p spotverse-integration --test golden_traces

echo "==> golden analytics: analyse views of committed traces"
cargo test -q -p spotverse-integration --test golden_analytics

echo "==> golden tournament: committed leaderboard snapshot"
cargo test -q -p spotverse-integration --test golden_tournament

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

echo "==> fleet allocations: one loadgen fleet run allocates no more than pinned"
# Exact allocation counts of `run_fleet_on` on 1,000- and 2,000-workload
# Poisson fleets; a hot-path regression fails here without a timer.
cargo test -q -p spotverse-integration --test fleet_allocs

echo "==> lint: cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> chaos smoke: full scenario library x all strategies, 2 workers"
chaos_out=$(cargo run --release --quiet --bin spotverse -- \
    chaos --instances 4 --workload ngs --jobs 2)
echo "$chaos_out"
if grep -q "FAILED" <<<"$chaos_out"; then
    echo "==> chaos smoke FAILED: at least one cell did not produce an Ok report" >&2
    exit 1
fi

echo "==> fleet smoke: staggered workloads x all strategies, capacity-capped, 2 workers"
fleet_out=$(cargo run --release --quiet --bin spotverse -- \
    fleet --instances 3 --workload ngs --spacing-mins 120 --capacity 2 \
    --strategy all --jobs 2)
echo "$fleet_out"
if grep -q "FAILED" <<<"$fleet_out"; then
    echo "==> fleet smoke FAILED: at least one cell did not produce an Ok report" >&2
    exit 1
fi

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
chaos_sweep_out=$(cargo run --release --quiet --bin spotverse -- \
    sweep --instances 2 --workload ngs --strategy on-demand --seeds 4 \
    --orchestrated true --scenario sweep_shard_chaos)
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
