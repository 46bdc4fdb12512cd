//! `perf_guard`'s command line, run through the built binary: every flag
//! consumes its own value, and exactly one fresh report remains.

use std::path::Path;
use std::process::{Command, Output};

fn perf_guard(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perf_guard"))
        .args(args)
        .output()
        .expect("perf_guard runs")
}

/// The committed report at the repository root.
fn committed_report() -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../BENCH_sim.json")
        .to_string_lossy()
        .into_owned()
}

#[test]
fn a_report_gated_against_itself_with_repeated_floors_passes() {
    let report = committed_report();
    let out = perf_guard(&[
        &report,
        "--baseline",
        &report,
        "--require-speedup",
        "cc_stream:2.0",
        "--require-speedup",
        "search_delta:20",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("cc_stream"), "{stderr}");
    assert!(stderr.contains("search_delta"), "{stderr}");
}

#[test]
fn usage_errors_exit_2() {
    let report = committed_report();
    for args in [
        // A stray second positional.
        vec![report.as_str(), "--baseline", &report, "extra.json"],
        // No fresh report at all.
        vec!["--baseline", &report],
        // A flag without its value.
        vec![report.as_str(), "--baseline"],
        // An unknown flag.
        vec![report.as_str(), "--baseline", &report, "--tolerence", "0.2"],
        // A malformed floor.
        vec![
            report.as_str(),
            "--baseline",
            &report,
            "--require-speedup",
            "cc_stream",
        ],
    ] {
        let out = perf_guard(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: perf_guard"), "{args:?}: {stderr}");
    }
}
