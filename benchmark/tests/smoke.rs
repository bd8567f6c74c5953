//! The binary itself: a debug build refuses to measure; a release build
//! (`cargo test --release`) runs all six workloads and one traced run on
//! one-second windows, in under a minute, with every metric measured.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_wa-benchmark");

#[test]
#[cfg(debug_assertions)]
fn a_debug_build_refuses_to_measure() {
    let out = Command::new(BIN)
        .args(["--workload", "serve-fleet-lenet", "--seed", "1"])
        .args(["--seconds", "1", "--trace", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result is printed");
    assert!(String::from_utf8_lossy(&out.stderr).contains("debug build"));
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &[
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "offline-f32-f4",
            "--seed",
            "1",
            "--seconds",
            "1",
        ],
        &[
            "--workload",
            "offline-f32-f4",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &["compare", "only-one-file"],
        &["compare", "/no/such/a.jsonl", "/no/such/b.jsonl"],
    ] {
        let out = Command::new(BIN).args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[cfg(not(debug_assertions))]
use {
    std::time::{Duration, Instant},
    wa_benchmark::names::{END_TO_END, PER_LAYER, WORKLOADS},
    wa_benchmark::surface::Json,
    wa_benchmark::workloads::Workload,
};

/// The result lines of a smoke run: one JSON object per run.
#[cfg(not(debug_assertions))]
fn result_lines(stdout: &str) -> Vec<Json> {
    stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .map(|l| Json::parse(l).expect("a result line is JSON"))
        .collect()
}

#[test]
#[cfg(not(debug_assertions))]
fn smoke_runs_every_workload_and_one_trace_in_under_a_minute() {
    // the smoke run writes under ./benchmark/out, like the driver's runs
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let began = Instant::now();
    let out = Command::new(BIN)
        .arg("--smoke")
        .current_dir(root)
        .output()
        .unwrap();
    let took = began.elapsed();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(took < Duration::from_secs(60), "smoke took {took:?}");
    assert!(stdout.trim_end().ends_with("smoke passed"));

    let results = result_lines(&stdout);
    assert_eq!(results.len(), WORKLOADS.len() + 1);
    for (i, result) in results.iter().enumerate() {
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "run {i}");
        assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let defs: &[_] = if i < WORKLOADS.len() {
            &END_TO_END
        } else {
            &PER_LAYER
        };
        let metrics = result.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), defs.len(), "run {i}");
        for (def, (name, entry)) in defs.iter().zip(metrics) {
            assert_eq!(def.name, name);
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(def.unit));
            let value = entry.get("value").and_then(Json::as_f64);
            assert!(value.is_some_and(f64::is_finite), "{name} reads {value:?}");
        }
    }
    // the traced run's record: a number for every metric that applies to
    // the fleet workload, `null` for the rest
    let record = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("record "))
        .map(|l| Json::parse(l).expect("a record is JSON"))
        .expect("every run prints its record");
    assert_eq!(record.get("trace"), Some(&Json::Bool(true)));
    for def in &PER_LAYER {
        let value = record
            .get("metrics")
            .and_then(|m| m.get(def.name))
            .and_then(|e| e.get("value"))
            .unwrap_or_else(|| panic!("{} is not in the record", def.name));
        if Workload::ServeFleetLenet.measures(def.name) {
            assert!(value.as_f64().is_some_and(f64::is_finite), "{}", def.name);
        } else {
            assert_eq!(value, &Json::Null, "{}", def.name);
        }
    }
    let trace = std::fs::read_to_string(format!(
        "{root}/benchmark/out/trace-serve-fleet-lenet.jsonl"
    ))
    .expect("the traced run wrote its spans");
    assert!(trace.lines().count() > 100);
}
