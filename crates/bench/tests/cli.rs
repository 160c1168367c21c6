//! The command lines reject bad input with an error instead of panicking:
//! `storagesim`, `trace_stats` and `perf_smoke` on bad numeric flags,
//! `storagesim` on unknown device, scheduler and workload names,
//! `trace_stats` on bad trace records, and the figure binaries on any
//! argument but their one count or `--long`, before writing a CSV.
//! `storagesim`'s figures divide by the requests they cover. A figure
//! binary writes its CSV into the workspace's `results/`, and
//! `telemetry_report` its trace and summary into the workspace's
//! `target/`, from any directory.

use std::path::Path;
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
fn storagesim_runs_the_four_paper_schedulers_and_rejects_other_names() {
    for name in ["fcfs", "sstf", "clook", "sptf"] {
        let out = storagesim(&["--scheduler", name]);
        assert_eq!(completed(&out), 10, "--scheduler {name}");
    }
    for name in ["look", "fscan", "aged-sptf", "vr", "bogus"] {
        let args = ["--scheduler", name];
        assert_usage_error(storagesim(&args), "storagesim", &args);
    }
    for args in [["--device", "bogus"], ["--workload", "bogus"]] {
        assert_usage_error(storagesim(&args), "storagesim", &args);
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

#[test]
fn storagesim_warmup_leaves_whole_run_figures_unchanged() {
    // Both runs service the same 2,000 requests; the warm-up only drops
    // the first 1,500 completions from the response statistics.
    let args = ["--requests", "2000", "--rate", "1000", "--warmup"];
    let warm = storagesim(&[&args[..], &["1500"]].concat());
    let cold = storagesim(&[&args[..], &["0"]].concat());
    let (warm_out, cold_out) = (stdout(&warm), stdout(&cold));
    assert_eq!((completed(&warm), completed(&cold)), (500, 2000));
    // Throughput, utilization and the service decomposition cover the
    // whole run whatever the warm-up.
    for prefix in [
        "makespan",
        "throughput",
        "utilization",
        "mean service decomposition",
        "  positioning",
        "  transfer",
        "  overhead",
        "  queue",
    ] {
        assert_eq!(
            line(&warm_out, prefix),
            line(&cold_out, prefix),
            "{prefix} differs with a warm-up"
        );
    }
    // The histogram bins the measured requests only, like the p99 that
    // bounds it.
    for (out, text) in [(&warm, &warm_out), (&cold, &cold_out)] {
        // Only the histogram's bin lines hold a `|`.
        let binned: u64 = text
            .lines()
            .filter(|l| l.contains('|'))
            .map(|l| number_before(l, '|'))
            .sum();
        let overflow = line(text, "  (+")
            .trim_start_matches("  (+")
            .split_whitespace()
            .next()
            .and_then(|n| n.parse::<u64>().ok())
            .expect("overflow count");
        assert_eq!(binned + overflow, completed(out), "{text}");
    }
}

/// The line of `text` that starts with `prefix`.
fn line<'a>(text: &'a str, prefix: &str) -> &'a str {
    text.lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no {prefix:?} line in: {text}"))
}

/// The integer just before the first `delim` of `line`.
fn number_before(line: &str, delim: char) -> u64 {
    let head = line.split(delim).next().unwrap_or_default();
    let count = head.split_whitespace().last().and_then(|n| n.parse().ok());
    count.unwrap_or_else(|| panic!("no count before {delim:?} in: {line}"))
}

fn stdout(out: &Output) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    String::from_utf8_lossy(&out.stdout).into_owned()
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
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
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

#[test]
fn perf_smoke_rejects_bad_arguments_before_any_work() {
    // Run from a scratch directory: a run that starts writes
    // `BENCH_sched.json` into its working directory.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perf_smoke_args");
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    let output = dir.join("BENCH_sched.json");
    let cases: &[&[&str]] = &[
        &["abc"],
        &["abc", "--streaming-requests", "xyz"],
        &["0"],
        &["-3"],
        &["2.5"],
        &["1500", "--streaming-requests"],
        &["1500", "--streaming-requests", "0"],
        &["1500", "--streaming-requests", "abc"],
        &["1500", "2000"],
        &["--requests", "1500"],
    ];
    for args in cases {
        let _ = std::fs::remove_file(&output);
        let out = Command::new(env!("CARGO_BIN_EXE_perf_smoke"))
            .args(*args)
            .current_dir(&dir)
            .output()
            .expect("perf_smoke runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: perf_smoke"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} started a run");
        assert!(!output.exists(), "{args:?} wrote {}", output.display());
    }
}

/// Runs each of `cases` through `bin` from a scratch directory under
/// `CARGO_TARGET_TMPDIR`, asserting exit 2 with `usage` on stderr, nothing
/// on stdout, and no `results/` directory created there or in its parent.
fn assert_rejected_before_any_write(bin: &str, exe: &str, usage: &str, cases: &[&[&str]]) {
    let parent = Path::new(env!("CARGO_TARGET_TMPDIR")).join("figure_args");
    let dir = parent.join(bin);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    for args in cases {
        for results in [dir.join("results"), parent.join("results")] {
            let _ = std::fs::remove_dir_all(&results);
        }
        let out = Command::new(exe)
            .args(*args)
            .current_dir(&dir)
            .output()
            .expect("figure binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains(usage), "{bin} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} started a run");
        for results in [dir.join("results"), parent.join("results")] {
            assert!(
                !results.exists(),
                "{bin} {args:?} created {}",
                results.display()
            );
        }
    }
}

#[test]
fn figure_binaries_reject_anything_but_one_positive_count() {
    let cases: &[&[&str]] = &[
        &["0"],
        &["-3"],
        &["abc"],
        &["2.5"],
        &["100", "200"],
        &["--long"],
    ];
    for (bin, exe, what) in [
        (
            "ablation_mpl",
            env!("CARGO_BIN_EXE_ablation_mpl"),
            "REQUESTS",
        ),
        (
            "fig05_disk_sched",
            env!("CARGO_BIN_EXE_fig05_disk_sched"),
            "REQUESTS",
        ),
        (
            "fig06_mems_sched",
            env!("CARGO_BIN_EXE_fig06_mems_sched"),
            "REQUESTS",
        ),
        (
            "fig07_traces",
            env!("CARGO_BIN_EXE_fig07_traces"),
            "REQUESTS",
        ),
        (
            "fig08_settling",
            env!("CARGO_BIN_EXE_fig08_settling"),
            "REQUESTS",
        ),
        (
            "fig09_subregions",
            env!("CARGO_BIN_EXE_fig09_subregions"),
            "REQUESTS",
        ),
        (
            "fig11_layouts",
            env!("CARGO_BIN_EXE_fig11_layouts"),
            "REQUESTS",
        ),
        (
            "overload_sweep",
            env!("CARGO_BIN_EXE_overload_sweep"),
            "SCALE",
        ),
    ] {
        let usage = format!("usage: {bin} [{what}]");
        assert_rejected_before_any_write(bin, exe, &usage, cases);
    }
}

#[test]
fn fleet_binaries_reject_anything_but_long() {
    let cases: &[&[&str]] = &[
        &["--short"],
        &["10"],
        &["--long", "extra"],
        &["--long", "--long"],
    ];
    for (bin, exe) in [
        ("fleet_smoke", env!("CARGO_BIN_EXE_fleet_smoke")),
        ("fleet_obs", env!("CARGO_BIN_EXE_fleet_obs")),
        ("placement_sweep", env!("CARGO_BIN_EXE_placement_sweep")),
    ] {
        let usage = format!("usage: {bin} [--long]");
        assert_rejected_before_any_write(bin, exe, &usage, cases);
    }
}

/// Runs `table1_params` and `telemetry_report` from a scratch directory:
/// each rewrites its committed golden byte for byte, every file either
/// writes lands under the workspace root (`telemetry_report`'s trace and
/// summary in its `target/`), and neither leaves a `results/` or `target/`
/// in the scratch directory or its parent.
#[test]
fn figure_csvs_land_in_the_workspace_results_from_any_directory() {
    let parent = Path::new(env!("CARGO_TARGET_TMPDIR")).join("csv_cwd");
    let dir = parent.join("sub");
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    let strays = [
        dir.join("results"),
        parent.join("results"),
        dir.join("target"),
        parent.join("target"),
    ];
    for stray in &strays {
        let _ = std::fs::remove_dir_all(stray);
    }
    let workspace = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    for (exe, csv) in [
        (env!("CARGO_BIN_EXE_table1_params"), "table1_params.csv"),
        (
            env!("CARGO_BIN_EXE_telemetry_report"),
            "obs_phase_breakdown.csv",
        ),
    ] {
        let golden = workspace.join("results").join(csv);
        let committed = std::fs::read(&golden).expect("read the committed CSV");
        let out = Command::new(exe)
            .current_dir(&dir)
            .output()
            .expect("binary runs");
        let stdout = stdout(&out);
        let wrote: Vec<_> = stdout
            .lines()
            .filter_map(|l| l.strip_prefix("[wrote ")?.strip_suffix(']'))
            .map(|w| Path::new(w).canonicalize().expect("written file exists"))
            .collect();
        assert!(wrote.contains(&golden), "{csv} not written: {stdout}");
        for path in &wrote {
            assert!(path.starts_with(&workspace), "wrote {}", path.display());
        }
        let rewritten = std::fs::read(&golden).expect("read the rewritten CSV");
        assert!(rewritten == committed, "{csv} changed");
    }
    for stray in &strays {
        assert!(!stray.exists(), "created {}", stray.display());
    }
}
