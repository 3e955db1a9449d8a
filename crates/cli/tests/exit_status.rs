//! The `spotverse` binary on bad input: exit code 1 and a structured
//! error on stderr, never a panic.

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
