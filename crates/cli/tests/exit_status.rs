//! The `spotverse` binary's exit status: 1 with a structured error on
//! stderr (never a panic) for bad input, 1 with the table kept on stdout
//! when some cells of a run failed, and 0 for a run that reaches the
//! market horizon.

use std::process::Command;

#[test]
fn start_day_past_the_market_horizon_is_an_error_not_a_panic() {
    let out = Command::new(env!("CARGO_BIN_EXE_spotverse"))
        .args(["simulate", "--instances", "2", "--start-day", "300"])
        .output()
        .expect("spotverse runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
    assert!(
        stderr.contains("--start-day") && stderr.contains("210-day market horizon"),
        "stderr:\n{stderr}"
    );
}

#[test]
fn a_failed_cell_keeps_its_table_and_exits_non_zero() {
    // Under this chaos scenario the orchestrator dead-letters one of the
    // eight cells after four attempts.
    let out = Command::new(env!("CARGO_BIN_EXE_spotverse"))
        .args([
            "sweep",
            "--instances",
            "1",
            "--workload",
            "ngs",
            "--strategy",
            "on-demand",
            "--seeds",
            "8",
            "--orchestrated",
            "true",
            "--scenario",
            "sweep_shard_chaos",
        ])
        .output()
        .expect("spotverse runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(stdout.contains("FAILED"), "stdout:\n{stdout}");
    assert!(stderr.contains("error: 1 of 8 cells failed"), "stderr:\n{stderr}");
}

#[test]
fn a_fleet_reaching_the_market_horizon_stops_there_and_exits_zero() {
    // Arrivals run past the 210-day market horizon; every strategy's run
    // stops at the horizon instead of reading the market beyond it.
    let out = Command::new(env!("CARGO_BIN_EXE_spotverse"))
        .args([
            "fleet", "--loadgen", "poisson", "--workloads", "1000", "--rate", "0.2", "--strategy",
            "all",
        ])
        .output()
        .expect("spotverse runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr:\n{stderr}");
    assert!(stderr.is_empty(), "stderr:\n{stderr}");
    assert!(!stdout.contains("FAILED"), "stdout:\n{stdout}");
}
