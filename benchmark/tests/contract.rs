//! `BENCHMARK.json` against the benchmark's own tables, against the
//! limits of the contract it is written to, and against the issue that
//! specified it (ISSUE 12): the names and bounds below are copied from
//! the issue, not from `src/names.rs`, so neither side can drift alone.

use wa_benchmark::names::{is_valid_name, is_valid_unit, END_TO_END, PER_LAYER, WORKLOADS};
use wa_benchmark::surface::Json;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    assert!(text.len() <= 64 << 10, "the file is at most 64 KiB");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn keys(doc: &Json) -> Vec<&str> {
    doc.as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn strings<'a>(doc: &'a Json, key: &str) -> Vec<&'a str> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("`{key}` is an array"))
        .iter()
        .map(|v| v.as_str().expect("a string"))
        .collect()
}

#[test]
fn has_exactly_the_contract_keys() {
    let doc = manifest();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(strings(&doc, "paths"), ["benchmark"]);
    let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
    // 4 + 22 × workloads runs, with set-up and two builds, in 3420 s:
    // a run may take about ten seconds more than it measures
    let runs = 4.0 + 22.0 * WORKLOADS.len() as f64;
    assert!(
        runs * (seconds + 10.0) + 120.0 <= 3420.0,
        "the runs do not fit"
    );
}

#[test]
fn command_stays_inside_the_benchmark_directory() {
    let doc = manifest();
    let command = strings(&doc, "command");
    assert!(command.len() <= 32);
    assert_eq!(command[0], "cargo");
    for arg in &command {
        assert!(arg.len() <= 200);
        assert!(
            !arg.starts_with('/') && !arg.contains(".."),
            "`{arg}` leaves the repository"
        );
        if arg.contains('/') {
            assert!(
                arg.starts_with("benchmark/"),
                "`{arg}` names a path outside `paths`"
            );
        }
    }
    assert_eq!(
        command.last(),
        Some(&"--"),
        "the driver's flags go to the binary"
    );
}

#[test]
fn workloads_equal_the_benchmarks_own() {
    let doc = manifest();
    let listed = doc.get("workloads").and_then(Json::as_arr).unwrap();
    assert!((2..=8).contains(&listed.len()));
    assert_eq!(listed.len(), WORKLOADS.len());
    for (entry, def) in listed.iter().zip(&WORKLOADS) {
        assert_eq!(keys(entry), ["name", "why"]);
        assert_eq!(entry.get("name").and_then(Json::as_str), Some(def.name));
        assert_eq!(entry.get("why").and_then(Json::as_str), Some(def.why));
        assert!(is_valid_name(def.name) && def.why.len() <= 200);
    }
}

#[test]
fn metrics_equal_the_benchmarks_own() {
    let doc = manifest();
    let end_to_end = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
    assert!((1..=16).contains(&end_to_end.len()));
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (entry, def) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(keys(entry), ["name", "unit", "better", "bound"]);
        assert_eq!(entry.get("name").and_then(Json::as_str), Some(def.name));
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some(def.unit));
        assert_eq!(
            entry.get("better").and_then(Json::as_str),
            Some(def.better.as_str())
        );
        assert_eq!(entry.get("bound").and_then(Json::as_f64), def.bound);
        assert!(is_valid_name(def.name) && is_valid_unit(def.unit));
    }
    let per_layer = doc.get("per_layer").and_then(Json::as_arr).unwrap();
    assert!((1..=128).contains(&per_layer.len()));
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (entry, def) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(keys(entry), ["name", "unit", "better"]);
        assert_eq!(entry.get("name").and_then(Json::as_str), Some(def.name));
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some(def.unit));
        assert_eq!(
            entry.get("better").and_then(Json::as_str),
            Some(def.better.as_str())
        );
        assert!(is_valid_name(def.name) && is_valid_unit(def.unit));
    }
}

/// The issue's end-to-end table: `(name, unit, better, bound)`. Three
/// rows differ from it, each forced by the builder contract (the README
/// has the measurements): `failed_share` (always 0, and a metric may
/// never read 0) is reported as its complement `correct_share`, whose
/// bound stands for the issue's "any increase"; `peak_rss_mb` (whose
/// run-to-run spread is up to eight times its bound) is `peak_heap_mb`;
/// and the bound of `cpu_ms_per_sample` is 0.15 where the issue has 0.10
/// (its spread reaches 6–7 % on two workloads, and the contract asks for
/// a spread well inside the bound). Units, directions and every other
/// bound are the issue's.
const ISSUE_END_TO_END: [(&str, &str, &str, f64); 7] = [
    ("samples_per_s", "samples/s", "higher", 0.10),
    ("latency_p50_ms", "ms", "lower", 0.10),
    ("latency_p90_ms", "ms", "lower", 0.15),
    ("cpu_ms_per_sample", "ms", "lower", 0.15), // issue: 0.10
    ("correct_share", "ratio", "higher", 0.0001), // issue: failed_share, any increase
    ("setup_s", "s", "lower", 0.25),
    ("peak_heap_mb", "MiB", "lower", 0.10), // issue: peak_rss_mb
];

/// The issue's six workloads, in its order.
const ISSUE_WORKLOADS: [&str; 6] = [
    "offline-f32-im2row",
    "offline-f32-f4",
    "serve-int8-im2row",
    "serve-int8-f4",
    "serve-fleet-lenet",
    "train-int8-f4flex",
];

/// Per-layer metrics the issue lists for each layer.
const ISSUE_PER_LAYER_COUNTS: [(&str, usize); 10] = [
    ("tensor.", 9),
    ("winograd.", 4),
    ("quant.", 3),
    ("core.", 10),
    ("nn.", 7),
    ("models.", 3),
    ("serve.", 12),
    ("obs.", 13),
    ("latency.", 1),
    ("bench.", 1),
];

#[test]
fn names_and_bounds_are_the_issues() {
    let doc = manifest();
    let end_to_end = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
    assert_eq!(end_to_end.len(), ISSUE_END_TO_END.len());
    for (entry, (name, unit, better, bound)) in end_to_end.iter().zip(ISSUE_END_TO_END) {
        assert_eq!(entry.get("name").and_then(Json::as_str), Some(name));
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some(unit));
        assert_eq!(entry.get("better").and_then(Json::as_str), Some(better));
        assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(bound));
    }
    let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(names, ISSUE_WORKLOADS);
    let per_layer = doc.get("per_layer").and_then(Json::as_arr).unwrap();
    let mut listed = 0;
    for (layer, count) in ISSUE_PER_LAYER_COUNTS {
        let of_layer = per_layer
            .iter()
            .filter(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .unwrap()
                    .starts_with(layer)
            })
            .count();
        assert_eq!(of_layer, count, "metrics of layer `{layer}`");
        listed += count;
    }
    assert_eq!(
        per_layer.len(),
        listed,
        "a metric of no layer the issue names"
    );
}
