//! Runs every workload briefly (`--quick`) through the real binary, timed
//! and traced, and checks that each run is correct and prints exactly the
//! metrics `BENCHMARK.json` names, each with its unit — so the file and
//! the binary cannot drift apart.
//!
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml`;
//! it builds `augem-serve` from the repository's workspace first.

use augem::obs::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits in the repository")
}

/// Builds the daemon into its own directory under this package's target
/// directory and returns the executable.
fn build_daemon() -> PathBuf {
    let bench = Path::new(env!("CARGO_BIN_EXE_augem-bench"));
    let target = bench
        .parent()
        .and_then(Path::parent)
        .unwrap()
        .join("smoke-serve");
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "augem-serve",
        ])
        .arg("--target-dir")
        .arg(&target)
        .current_dir(repo())
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building augem-serve failed");
    target.join("release").join("augem-serve")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` section.
fn declared(doc: &Json, section: &str) -> Vec<(String, String)> {
    doc.get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    let spec = std::fs::read_to_string(repo().join("BENCHMARK.json")).unwrap();
    let spec = Json::parse(&spec).unwrap();
    let serve = build_daemon();
    let work = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-work");
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    assert_eq!(workloads, ["cold-gemm", "cold-vector", "warm", "mixed"]);
    for workload in &workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_augem-bench"))
                .args(["--workload", workload, "--seed", "1", "--quick"])
                .args(["--seconds", "1", "--trace", trace])
                .arg("--serve-bin")
                .arg(&serve)
                .arg("--work-dir")
                .arg(&work)
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{workload} --trace {trace}: {stderr}");
            let stdout = String::from_utf8(out.stdout).unwrap();
            let result = Json::parse(stdout.lines().last().unwrap()).unwrap();
            assert_eq!(
                result.get("correct"),
                Some(&Json::Bool(true)),
                "{workload}: {stdout}"
            );
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
            let Some(Json::Obj(printed)) = result.get("metrics") else {
                panic!("{workload}: no metrics object");
            };
            let printed: Vec<(String, String)> = printed
                .iter()
                .map(|(name, m)| {
                    assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
                    (
                        name.clone(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect();
            let mut want = declared(&spec, section);
            let mut got = printed;
            want.sort();
            got.sort();
            assert_eq!(got, want, "{workload} --trace {trace}");
        }
    }
    assert!(!work.exists(), "the benchmark removes its work directory");
}
