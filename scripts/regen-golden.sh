#!/usr/bin/env bash
# Regenerate the committed goldens under tests/golden/ (traces, analytics,
# the tournament leaderboard, the .ga workflows, the CLI's outputs, errors
# and flag schemas, and the paper's figures)
# and show what changed. Use after an intentional change to the trace
# schema or to simulation behavior; review the diff before committing —
# every hunk is a behavior change the golden suite would otherwise have
# caught.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> regenerating golden traces (UPDATE_GOLDEN=1)"
UPDATE_GOLDEN=1 cargo test -q -p spotverse-integration --test golden_traces

echo "==> regenerating golden analytics snapshots (UPDATE_GOLDEN=1)"
# After the traces, so snapshots of committed traces see the fresh bytes.
UPDATE_GOLDEN=1 cargo test -q -p spotverse-integration --test golden_analytics

echo "==> regenerating golden tournament leaderboard (UPDATE_GOLDEN=1)"
UPDATE_GOLDEN=1 cargo test -q -p spotverse-integration --test golden_tournament

echo "==> regenerating golden .ga workflows (UPDATE_GOLDEN=1)"
UPDATE_GOLDEN=1 cargo test -q -p spotverse-integration --test golden_workflows

echo "==> regenerating golden CLI outputs, errors and schemas (UPDATE_GOLDEN=1)"
UPDATE_GOLDEN=1 cargo test -q -p spotverse-integration --test golden_cli

echo "==> regenerating golden paper figures (UPDATE_GOLDEN=1)"
# Writes the figures' text; their shape checks must still all pass.
UPDATE_GOLDEN=1 cargo test -q -p spotverse-integration --test golden_paper

echo "==> re-running the suites against the fresh goldens"
cargo test -q -p spotverse-integration --test golden_traces
cargo test -q -p spotverse-integration --test golden_analytics
cargo test -q -p spotverse-integration --test golden_tournament
cargo test -q -p spotverse-integration --test golden_workflows
cargo test -q -p spotverse-integration --test golden_cli
cargo test -q -p spotverse-integration --test golden_paper

echo "==> golden diff summary"
git --no-pager diff --stat -- tests/golden
if git diff --quiet -- tests/golden && [ -z "$(git ls-files --others --exclude-standard tests/golden)" ]; then
    echo "(no drift: committed goldens already match)"
else
    git --no-pager diff -- tests/golden | head -100
    echo "review the diff above, then commit the regenerated goldens."
fi
