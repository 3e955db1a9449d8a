//! The `spotverse` binary's exit status: 1 with a structured error on
//! stderr (never a panic) for bad input, 1 with the table kept on stdout
//! when some cells of a run failed, and 0 for a run that reaches the
//! market horizon, arrivals at the last representable instant included. A
//! trace line nested far too deep is bad input like any other. Only argv
//! and flag errors point at `spotverse help`. A reader that closes stdout
//! early (`spotverse traces | head`) ends the run quietly with 0.

use std::process::{Command, Stdio};

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
    // stops at the horizon instead of reading the market beyond it, and
    // every workload still open there expires.
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

    // Each strategy prints `<name> completed C/1000 ...`, then
    // `fleet: E expired, ...`, then one row per workload whose third
    // column is its phase.
    let lines: Vec<&str> = stdout.lines().collect();
    let headers: Vec<usize> = (0..lines.len())
        .filter(|&i| !lines[i].starts_with(' ') && lines[i].contains(" completed "))
        .collect();
    assert_eq!(headers.len(), 5, "one block per strategy:\n{stdout}");
    for (k, &start) in headers.iter().enumerate() {
        let end = headers.get(k + 1).copied().unwrap_or(lines.len());
        let header = lines[start];
        let completed: usize = header
            .split_whitespace()
            .nth(2)
            .and_then(|c| c.strip_suffix("/1000"))
            .and_then(|c| c.parse().ok())
            .unwrap_or_else(|| panic!("no completed count in {header:?}"));
        let expired: usize = lines[start + 1]
            .trim()
            .strip_prefix("fleet: ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|e| e.parse().ok())
            .unwrap_or_else(|| panic!("no expired count after {header:?}"));
        assert_eq!(completed + expired, 1000, "{header}");
        let rows: Vec<&str> = lines[start..end]
            .iter()
            .copied()
            .filter(|l| l.trim_start().starts_with("g-"))
            .collect();
        assert_eq!(rows.len(), 1000, "{header}");
        for row in rows {
            let phase = row.split_whitespace().nth(2);
            assert!(
                matches!(phase, Some("completed" | "expired")),
                "{header}: open workload left at the horizon: {row}"
            );
        }
    }
}

#[test]
fn arrivals_past_the_last_representable_instant_expire_at_the_horizon() {
    // At this rate (seed 2024) the one arrival is drawn 2^64 - 49,152 s
    // after the start: it fits in a duration, but the start (day 1) plus
    // it saturates at the largest representable second. Adding the
    // runtime budget to that must not wrap back before the current
    // instant.
    let out = Command::new(env!("CARGO_BIN_EXE_spotverse"))
        .args(["fleet", "--loadgen", "poisson", "--rate", "6.56217489948946e-17"])
        .args(["--workloads", "1"])
        .output()
        .expect("spotverse runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
    assert!(stdout.contains("fleet: 1 expired"), "stdout:\n{stdout}");
    assert!(stdout.contains("t+213503982334601d07h00m15s expired"), "stdout:\n{stdout}");
}

#[test]
fn a_rate_whose_arrivals_overflow_is_an_error_naming_the_rate() {
    // At 1e-300 per hour the first arrival is drawn ~1e303 s after the
    // start, which no instant can hold.
    for profile in ["poisson", "diurnal", "burst"] {
        let out = Command::new(env!("CARGO_BIN_EXE_spotverse"))
            .args(["fleet", "--loadgen", profile, "--rate", "1e-300", "--workloads", "10"])
            .output()
            .expect("spotverse runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{profile}: stderr:\n{stderr}");
        assert!(out.stdout.is_empty(), "{profile}: a rejected argv prints no table");
        let want = "error: --rate: 1e-300 per hour is too low: an arrival ";
        assert!(stderr.starts_with(want), "{profile}: stderr:\n{stderr}");
    }
}

#[test]
fn a_deeply_nested_trace_line_is_an_error_not_a_stack_overflow() {
    // A key ahead of `event` holds 50,000 nested arrays (100 KB on one
    // line); the reader stops at its nesting bound instead of descending
    // one stack frame per level.
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("nested_trace_line.jsonl");
    let line = format!("{{\"x\":{}{}}}\n", "[".repeat(50_000), "]".repeat(50_000));
    std::fs::write(&path, line).expect("temp file written");
    let out = Command::new(env!("CARGO_BIN_EXE_spotverse"))
        .arg("analyse")
        .arg(&path)
        .output()
        .expect("spotverse runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(!stderr.contains("panicked") && !stderr.contains("overflowed"), "stderr:\n{stderr}");
    assert!(stderr.contains("trace line 1: nested deeper than"), "stderr:\n{stderr}");
}

#[test]
fn only_argv_errors_point_at_the_usage() {
    let run = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_spotverse"))
            .args(args)
            .output()
            .expect("spotverse runs");
        (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
    };
    let hint = "run `spotverse help` for usage";
    // A trace that cannot be read is not fixed by reading the usage.
    let (code, stderr) = run(&["analyse", "/nonexistent"]);
    assert_eq!(code, Some(1), "stderr:\n{stderr}");
    assert!(stderr.starts_with("error: /nonexistent: "), "stderr:\n{stderr}");
    assert!(!stderr.contains(hint), "stderr:\n{stderr}");
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("malformed_trace.jsonl");
    std::fs::write(&path, "not json\n").expect("temp file written");
    let (code, stderr) = run(&["analyse", path.to_str().expect("utf-8 path")]);
    assert_eq!(code, Some(1), "stderr:\n{stderr}");
    // `not json` starts with `n` but is not a null.
    assert!(stderr.contains("trace line 1: unexpected byte `n`"), "stderr:\n{stderr}");
    assert!(!stderr.contains("found null"), "stderr:\n{stderr}");
    assert!(!stderr.contains(hint), "stderr:\n{stderr}");
    let (code, stderr) = run(&["fleet", "--strategy", "bogus"]);
    assert_eq!(code, Some(1), "stderr:\n{stderr}");
    assert!(stderr.contains(hint), "stderr:\n{stderr}");
}

#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    // 30 days of price history is ~78 KB, more than a 64 KiB pipe buffer
    // holds, so the write meets the closed pipe whatever the timing.
    let mut child = Command::new(env!("CARGO_BIN_EXE_spotverse"))
        .args(["traces", "--days", "30"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spotverse runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("spotverse exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
    assert!(stderr.is_empty(), "stderr:\n{stderr}");
    assert_eq!(out.status.code(), Some(0), "stderr:\n{stderr}");
}
