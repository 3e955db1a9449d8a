//! The `spotverse` binary's exit status: 1 with a structured error on
//! stderr (never a panic) for bad input, and 1 with the table kept on
//! stdout when some cells of a run failed.

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
    // This fleet runs into the 210-day market horizon, and its one cell
    // fails there.
    let out = Command::new(env!("CARGO_BIN_EXE_spotverse"))
        .args(["fleet", "--loadgen", "poisson", "--workloads", "1000", "--rate", "0.2"])
        .output()
        .expect("spotverse runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(stdout.contains("FAILED"), "stdout:\n{stdout}");
    assert!(stderr.contains("error: 1 of 1 cells failed"), "stderr:\n{stderr}");
}
