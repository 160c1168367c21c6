//! The command lines reject bad input with an error instead of panicking:
//! `storagesim` and `trace_stats` on bad numeric flags, `trace_stats` on
//! bad trace records.

use std::process::{Command, Output};

#[test]
fn storagesim_rejects_rates_and_scales_that_are_not_finite_and_positive() {
    let cases: &[&[&str]] = &[
        &["--rate", "0"],
        &["--rate", "-5"],
        &["--rate", "nan"],
        &["--rate", "inf"],
        &["--workload", "cello", "--scale", "0"],
        &["--workload", "cello", "--scale", "-1"],
        &["--workload", "cello", "--scale", "inf"],
    ];
    for args in cases {
        assert_usage_error(storagesim(args), "storagesim", args);
    }
}

#[test]
fn storagesim_rejects_request_counts_that_are_not_positive_integers() {
    for workload in ["random", "cello", "tpcc", "streaming"] {
        let args = ["--workload", workload, "--requests", "0"];
        assert_usage_error(storagesim(&args), "storagesim", &args);
    }
    for bad in ["-1", "abc", "2.5"] {
        let args = ["--requests", bad];
        assert_usage_error(storagesim(&args), "storagesim", &args);
    }
}

#[test]
fn storagesim_rejects_negative_and_nan_idle_timeouts() {
    for args in [["--idle-timeout", "-1"], ["--idle-timeout", "nan"]] {
        assert_usage_error(storagesim(&args), "storagesim", &args);
    }
    // Zero (sleep at once) and infinity (never sleep) stay valid.
    for timeout in ["0", "inf"] {
        let out = storagesim(&["--idle-timeout", timeout]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "--idle-timeout {timeout}: {stderr}");
        assert!(
            completed(&out) > 0,
            "--idle-timeout {timeout}: empty report"
        );
    }
}

#[test]
fn storagesim_rejects_a_warmup_that_leaves_no_requests() {
    // Every request would be a warm-up one, leaving an empty report.
    for warmup in ["500", "10"] {
        let args = ["--requests", "10", "--warmup", warmup];
        let out = storagesim(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--requests"), "{args:?}: {stderr}");
        assert_usage_error(out, "storagesim", &args);
    }
    let out = storagesim(&["--requests", "10", "--warmup", "9"]);
    assert_eq!(completed(&out), 1, "one request past the warm-up");
}

/// Runs a short `storagesim` with `args` appended, counting every request
/// in the report.
fn storagesim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_storagesim"))
        .args(["--requests", "10", "--warmup", "0"])
        .args(args)
        .output()
        .expect("storagesim runs")
}

/// The `completed` count a successful `storagesim` run reports.
fn completed(out: &Output) -> u64 {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().find(|l| l.starts_with("completed"));
    let count = line.and_then(|l| l.split_whitespace().nth(1)?.parse().ok());
    count.unwrap_or_else(|| panic!("no completed count in: {stdout}"))
}

/// Runs `trace_stats` with `args`.
fn trace_stats(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace_stats"))
        .args(args)
        .output()
        .expect("trace_stats runs")
}

/// `args` must end in a flag and its bad value: the run of `bin` must
/// exit 2 without panicking, naming the flag above the usage text.
fn assert_usage_error(out: Output, bin: &str, args: &[&str]) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    let flag = args[args.len() - 2];
    assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
    assert!(
        stderr.contains(&format!("usage: {bin}")),
        "{args:?}: {stderr}"
    );
}

#[test]
fn trace_stats_rejects_bad_request_counts_and_capacities() {
    let cases: &[&[&str]] = &[
        &["--requests", "0"],
        &["--requests", "abc"],
        &["--requests", "-3"],
        &["--capacity", "0"],
        &["--capacity", "abc"],
        // The built-in generators need more than 1,024 sectors.
        &["--capacity", "100"],
        &["--capacity", "129"],
        &["--capacity", "1024"],
    ];
    for args in cases {
        assert_usage_error(trace_stats(args), "trace_stats", args);
    }
    let out = trace_stats(&["--capacity", "1025", "--requests", "50"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "smallest generator capacity: {stderr}"
    );
}

#[test]
fn trace_stats_rejects_bad_records_with_their_line() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let cases = [
        (
            "decreasing.trace",
            "0.5 100 8 R\n0.2 200 8 W\n0.9 300 8 R\n",
            "line 2:",
        ),
        (
            "beyond.trace",
            "# t lbn n k\n0.1 100 8 R\n0.2 99999999999 8 R\n",
            "line 3:",
        ),
        ("empty.trace", "# no records\n", "no records"),
    ];
    for (name, text, expected) in cases {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("write trace");
        let out = Command::new(env!("CARGO_BIN_EXE_trace_stats"))
            .arg(&path)
            .output()
            .expect("trace_stats runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
        assert!(stderr.contains(expected), "{name}: {stderr}");
    }

    let path = dir.join("good.trace");
    std::fs::write(&path, "0.0 100 8 R\n0.5 200 16 W\n").expect("write trace");
    let out = Command::new(env!("CARGO_BIN_EXE_trace_stats"))
        .arg(&path)
        .output()
        .expect("trace_stats runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("(2 records)"));
    // A file bounds its own records: any positive capacity is accepted.
    let out = Command::new(env!("CARGO_BIN_EXE_trace_stats"))
        .arg(&path)
        .args(["--capacity", "216"])
        .output()
        .expect("trace_stats runs");
    assert!(out.status.success());
}
