//! The benchmark's own checks, at the tiny size: every printed metric is
//! declared in `BENCHMARK.json` with the same unit, and a perturbed
//! expected output fails every operation of the run.

use slopt_obs::json::{parse, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 3] = ["fig8_superdome128", "fig9_bus4", "serve_stream"];

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the benchmark at the tiny size and parses its result line.
fn run(workload: &str, trace: u8, expected: &Path, record: bool, work: &Path) -> Json {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_slbench"));
    cmd.args(["--workload", workload, "--seed", "0", "--seconds", "0.5"])
        .args(["--trace", &trace.to_string(), "--size", "tiny"])
        .arg("--expected")
        .arg(expected)
        .arg("--work-dir")
        .arg(work);
    if record {
        cmd.arg("--record");
    }
    let out = cmd.output().unwrap();
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    parse(stdout.lines().last().unwrap()).unwrap()
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let mut v: Vec<(String, String)> = doc
        .get(section)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect();
    v.sort();
    v
}

fn printed(result: &Json) -> Vec<(String, String)> {
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("no metrics object in {result:?}");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
            let unit = m.get("unit").and_then(Json::as_str).unwrap().to_string();
            (name.clone(), unit)
        })
        .collect()
}

fn num(result: &Json, key: &str) -> f64 {
    result.get(key).and_then(Json::as_f64).unwrap()
}

#[test]
fn every_printed_metric_is_declared() {
    let expected = scratch("declared-expected");
    let work = scratch("declared-work");
    for workload in WORKLOADS {
        for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
            let result = run(workload, trace, &expected, true, &work);
            assert_eq!(
                printed(&result),
                declared(section),
                "{workload} --trace {trace}"
            );
            assert!(num(&result, "attempted") >= 1.0);
            assert_eq!(num(&result, "failed"), 0.0, "{workload} --trace {trace}");
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        }
    }
}

#[test]
fn perturbed_expected_output_fails_the_run() {
    let work = scratch("perturb-work");
    for (workload, file) in [
        ("fig9_bus4", "fig9_bus4.sim"),
        ("fig9_bus4", "fig9_bus4.txt"),
        ("serve_stream", "serve_stream.advice"),
    ] {
        let expected = scratch(&format!("perturb-{file}"));
        run(workload, 1, &expected, true, &work);
        let clean = run(workload, 1, &expected, false, &work);
        assert_eq!(clean.get("correct"), Some(&Json::Bool(true)), "{file}");
        let metric = |r: &Json| {
            r.get("metrics")
                .and_then(|m| m.get("failed_frac"))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .unwrap()
        };
        assert_eq!(metric(&clean), 0.0, "{file}");

        let path = expected.join(file);
        let text = std::fs::read_to_string(&path).unwrap();
        let digit = text.find(|c: char| c.is_ascii_digit()).unwrap();
        let flipped = if &text[digit..=digit] == "9" {
            "8"
        } else {
            "9"
        };
        let perturbed = format!("{}{flipped}{}", &text[..digit], &text[digit + 1..]);
        std::fs::write(&path, perturbed).unwrap();

        let bad = run(workload, 1, &expected, false, &work);
        assert_eq!(bad.get("correct"), Some(&Json::Bool(false)), "{file}");
        assert_eq!(metric(&bad), 1.0, "{file}");
        assert_eq!(num(&bad, "failed"), num(&bad, "attempted"), "{file}");
    }
}
