//! Golden CLI suite: the text every `spotverse` command prints, its error
//! messages and its accepted flags, pinned byte for byte under
//! `tests/golden/cli/`.
//!
//! Each command-output golden is one argv run through the CLI's own
//! entry point (`spotverse_cli::run`), on small fleets so the whole suite
//! stays fast. `errors.txt` holds one line per bad argv with the exact
//! error text, and `schemas.txt` each command's accepted flags, sorted,
//! so a refactor of the argument handling can neither change a message
//! nor gain or lose a flag unnoticed. `tournament` is pinned by
//! `golden_tournament`.
//!
//! Bless intentional changes with `scripts/regen-golden.sh` (or
//! `UPDATE_GOLDEN=1 cargo test -p spotverse-integration --test
//! golden_cli`).

use spotverse_integration::assert_golden;

/// (golden file under `cli/`, argv) for every command-output golden.
const OUTPUTS: &[(&str, &[&str])] = &[
    (
        "simulate.txt",
        &["simulate", "--instances", "3", "--workload", "ngs"],
    ),
    (
        "simulate_capacity_crunch.txt",
        &[
            "simulate",
            "--instances",
            "3",
            "--workload",
            "ngs",
            "--regime",
            "capacity_crunch",
        ],
    ),
    (
        "compare.txt",
        &["compare", "--instances", "3", "--workload", "ngs"],
    ),
    (
        "chaos.txt",
        &[
            "chaos",
            "--instances",
            "2",
            "--workload",
            "ngs",
            "--jobs",
            "2",
        ],
    ),
    (
        "sweep.txt",
        &[
            "sweep",
            "--instances",
            "2",
            "--workload",
            "ngs",
            "--strategy",
            "all",
            "--seeds",
            "2",
        ],
    ),
    (
        "sweep_orchestrated_chaos.txt",
        &[
            "sweep",
            "--instances",
            "2",
            "--workload",
            "ngs",
            "--strategy",
            "on-demand",
            "--seeds",
            "4",
            "--orchestrated",
            "true",
            "--scenario",
            "sweep_shard_chaos",
        ],
    ),
    (
        "sweep_trace.jsonl",
        &[
            "sweep",
            "--instances",
            "2",
            "--workload",
            "ngs",
            "--strategy",
            "skypilot",
            "--seeds",
            "2",
            "--output",
            "trace",
        ],
    ),
    (
        "fleet_all_cap2.txt",
        &[
            "fleet",
            "--instances",
            "3",
            "--workload",
            "ngs",
            "--spacing-mins",
            "120",
            "--capacity",
            "2",
            "--strategy",
            "all",
        ],
    ),
    (
        "fleet_loadgen_burst_trace.jsonl",
        &[
            "fleet",
            "--loadgen",
            "burst",
            "--workloads",
            "6",
            "--rate",
            "30",
            "--output",
            "trace",
        ],
    ),
    (
        "trace_notice_loss.jsonl",
        &[
            "trace",
            "--instances",
            "2",
            "--workload",
            "ngs",
            "--scenario",
            "notice_loss",
        ],
    ),
    ("advisor.txt", &["advisor", "--day", "90"]),
    (
        "traces_correlated_shock.csv",
        &["traces", "--days", "2", "--regime", "correlated_shock"],
    ),
    ("workflow_ngs.ga", &["workflow", "--workload", "ngs"]),
];

/// Every bad argv the CLI must reject, in `errors.txt` order.
const BAD_ARGVS: &[&[&str]] = &[
    &["simualte"],
    &["simulate", "--sede", "42"],
    &["simulate", "--seed"],
    &["simulate", "--seed", "abc"],
    &["simulate", "--seed", "1", "--seed=2"],
    &["simulate", "--threshold", "300"],
    &["simulate", "--strategy", "warp-drive"],
    &["simulate", "--workload", "quake"],
    &["simulate", "--instance-type", "z9.mega"],
    &["simulate", "--region", "mars-north-1"],
    &["simulate", "--instances", "0"],
    &["simulate", "--bogus", "1"],
    &["simulate", "--regime", "bull-market"],
    &["simulate", "--instances", "2", "--start-day", "300"],
    &["trace", "--scenario", "meteor-strike"],
    &["compare", "--strategy", "spotverse"],
    &["compare", "--instances", "2", "--jobs", "0"],
    &["compare", "--instances", "2", "--jobs", "-2"],
    &["compare", "--instances", "2", "--jobs", "many"],
    &["compare", "--instances", "2", "--jobs", ""],
    &["chaos", "--scenario", "meteor-strike"],
    &[
        "chaos",
        "--scenario",
        "throttle_storm",
        "--instances",
        "2",
        "--jobs",
        "x",
    ],
    &["sweep", "--orchestrated", "maybe"],
    &["sweep", "--scenario", "sweep_shard_chaos"],
    &["sweep", "--orchestrated", "true", "--scenario", "meteor"],
    &["sweep", "--seeds", "0"],
    &["sweep", "--orchestrated", "true", "--shard-size", "0"],
    &["sweep", "--orchestrated", "true", "--max-attempts", "0"],
    &["sweep", "--orchestrated", "true", "--jobs", "x"],
    &["fleet", "--capacity", "0"],
    &["fleet", "--capacity", "lots"],
    &["fleet", "--deadline-days", "0"],
    &["fleet", "--output", "xml"],
    &["fleet", "--strategy", "warp-drive"],
    &["fleet", "--instances", "0"],
    &["fleet", "--loadgen", "sawtooth"],
    &["fleet", "--loadgen", "poisson", "--workloads", "0"],
    &["fleet", "--loadgen", "poisson", "--rate", "-3"],
    &["fleet", "--loadgen", "poisson", "--rate", "brisk"],
    &["tournament", "--regime", "bull-market"],
    &["tournament", "--chaos", "meteor-strike"],
    &["tournament", "--seeds", "0"],
    &["tournament", "--strategy", "blimp"],
    &["tournament", "--deadline-days", "0"],
    &["workflow", "--duration-hours", "0"],
];

/// The commands whose flag schemas `schemas.txt` lists.
const COMMANDS: &[&str] = &[
    "simulate",
    "fleet",
    "compare",
    "sweep",
    "chaos",
    "tournament",
    "advisor",
    "trace",
    "analyse",
    "traces",
    "workflow",
];

#[test]
fn command_outputs_match_goldens() {
    for (name, argv) in OUTPUTS {
        let out = spotverse_cli::run(argv.iter().copied())
            .unwrap_or_else(|e| panic!("{} failed: {e}", argv.join(" ")));
        assert_golden(&format!("cli/{name}"), &out);
    }
}

#[test]
fn error_messages_match_golden() {
    let mut out = String::new();
    for argv in BAD_ARGVS {
        let line = argv.join(" ");
        match spotverse_cli::run(argv.iter().copied()) {
            Ok(_) => panic!("`{line}` must be rejected"),
            Err(e) => out.push_str(&format!("{line} => {e}\n")),
        }
    }
    assert_golden("cli/errors.txt", &out);
}

#[test]
fn flag_schemas_match_golden() {
    let mut out = String::new();
    for command in COMMANDS {
        let mut flags = spotverse_cli::schema(command).to_vec();
        flags.sort_unstable();
        out.push_str(&format!("{command}: {}\n", flags.join(" ")));
    }
    assert_golden("cli/schemas.txt", &out);
}
