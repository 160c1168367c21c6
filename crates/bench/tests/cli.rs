//! The `storagesim` command line rejects bad numeric flags with a usage
//! error instead of panicking inside the workload generators.

use std::process::Command;

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
        let out = Command::new(env!("CARGO_BIN_EXE_storagesim"))
            .args(["--requests", "10"])
            .args(*args)
            .output()
            .expect("storagesim runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        let flag = args[args.len() - 2];
        assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
        assert!(stderr.contains("usage: storagesim"), "{args:?}: {stderr}");
    }
}
