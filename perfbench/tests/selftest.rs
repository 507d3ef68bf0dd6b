//! Reduced-size self-test of every workload: each run must exit cleanly,
//! pass its oracle (`"correct": true`, no failures), and emit exactly the
//! metrics `BENCHMARK.json` names — every end-to-end metric untraced and
//! every per-layer metric traced, on every workload.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeSet;
use std::process::Command;

/// The `"name"` values of the objects in `BENCHMARK.json`'s `key` array.
fn names(json: &str, key: &str) -> BTreeSet<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| {
            let value = rest.split('"').nth(1).expect("quoted name");
            value.to_string()
        })
        .collect()
}

/// Metric names in the result line.
fn emitted(result: &str) -> BTreeSet<String> {
    let metrics = &result[result.find("\"metrics\"").expect("metrics key")..];
    metrics
        .split("\": {\"value\"")
        .filter_map(|chunk| chunk.rsplit('"').next())
        .filter(|name| {
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "._-".contains(c))
        })
        .map(str::to_string)
        .collect()
}

/// The `"value"` numbers in the result line.
fn values(result: &str) -> Vec<f64> {
    result
        .split("\"value\": ")
        .skip(1)
        .map(|rest| {
            let number = &rest[..rest.find(',').expect("unit follows value")];
            number.parse().expect("numeric value")
        })
        .collect()
}

fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--scale", "small"])
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} trace={trace} exited {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line").to_string();
    assert!(
        last.starts_with("{\"correct\": true,") && last.contains("\"failed\": 0,"),
        "{workload} trace={trace} failed its oracle: {last}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    last
}

#[test]
fn every_workload_passes_its_oracle_and_emits_every_named_metric() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the package");
    let workloads = names(&json, "workloads");
    assert_eq!(
        workloads,
        ["churn", "deep"].map(String::from).into(),
        "workloads"
    );
    for workload in &workloads {
        let result = run(workload, 0);
        assert_eq!(
            emitted(&result),
            names(&json, "end_to_end"),
            "{workload} end-to-end metrics"
        );
        assert!(
            values(&result).iter().all(|v| *v > 0.0),
            "{workload}: an end-to-end metric is not positive: {result}"
        );
        assert_eq!(
            emitted(&run(workload, 1)),
            names(&json, "per_layer"),
            "{workload} per-layer metrics"
        );
    }
}
