//! The benchmark's command line.
//!
//! ```text
//! wa-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--record <file>]
//! wa-benchmark --smoke
//! wa-benchmark compare <a.jsonl> <b.jsonl>
//! ```
//!
//! The first form is what the driver runs (see `BENCHMARK.json`): one
//! workload, end to end (`--trace 0`) or traced (`--trace 1`), with the
//! result as the last line of standard output.

use std::process::ExitCode;

use wa_benchmark::names::{END_TO_END, PER_LAYER, WORKLOADS};
use wa_benchmark::report::Report;
use wa_benchmark::workloads::{self, RunArgs, Workload};
use wa_benchmark::{compare, ladder, surface};

const USAGE: &str = "usage: wa-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                     [--record <file>]\n       wa-benchmark --smoke\n       \
                     wa-benchmark compare <a.jsonl> <b.jsonl>";

fn usage(problem: &str) -> ExitCode {
    eprintln!("wa-benchmark: {problem}\n{USAGE}");
    ExitCode::from(2)
}

/// Runs one workload, end to end or traced, and reports it.
fn run_one(args: &RunArgs, trace: bool, record: Option<&str>) -> Result<(), String> {
    let (defs, run): (&'static [_], _) = if trace {
        (&PER_LAYER, ladder::run(args)?)
    } else {
        (&END_TO_END, workloads::run(args)?)
    };
    Report {
        workload: args.workload,
        seed: args.seed,
        trace,
        seconds: args.seconds,
        defs,
        run,
    }
    .print(record)
    .map_err(|e| format!("writing the report: {e}"))
}

/// All six workloads on one-second windows plus one traced run, each in
/// a process of its own like the driver's runs: every output checked,
/// every metric measured, in under a minute.
fn smoke() -> ExitCode {
    let runs = Workload::ALL
        .into_iter()
        .map(|w| (w, "0"))
        .chain([(Workload::ServeFleetLenet, "1")]);
    let mut healthy = true;
    for (workload, trace) in runs {
        let child = std::env::current_exe().and_then(|exe| {
            std::process::Command::new(exe)
                .args(["--workload", workload.name(), "--seed", "12"])
                .args(["--seconds", "1", "--trace", trace])
                .output()
        });
        let correct = match child {
            Ok(out) => {
                let stdout = String::from_utf8_lossy(&out.stdout);
                print!("{stdout}");
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                let result = stdout.lines().last().unwrap_or_default();
                out.status.success() && result.starts_with("{\"correct\":true,")
            }
            Err(e) => {
                eprintln!("wa-benchmark: running {}: {e}", workload.name());
                false
            }
        };
        healthy &= correct;
    }
    println!("smoke {}", if healthy { "passed" } else { "FAILED" });
    if healthy {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_files(a: &str, b: &str) -> ExitCode {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let result = read(a)
        .and_then(|ta| Ok((ta, read(b)?)))
        .and_then(|(ta, tb)| compare::compare(&ta, &tb));
    match result {
        Err(why) => usage(&why),
        Ok((rows, skipped)) => {
            print!("{}", compare::render(&rows, &skipped));
            let regressed = rows
                .iter()
                .any(|r| r.verdict == compare::Verdict::Regression);
            if regressed || rows.is_empty() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match &args[1..] {
            [a, b] => compare_files(a, b),
            _ => usage("compare takes two record files"),
        };
    }
    // a debug build measures the optimizer's absence, not the program
    if cfg!(debug_assertions) {
        eprintln!("wa-benchmark: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    surface::init();
    if args == ["--smoke"] {
        return smoke();
    }

    let (mut workload, mut seed, mut seconds, mut trace, mut record) =
        (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("`{flag}` needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::from_name(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
            }
            "--trace" => trace = ["0", "1"].iter().position(|t| t == value).map(|t| t == 1),
            "--record" => record = Some(value.as_str()),
            _ => return usage(&format!("unknown flag `{flag}`")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return usage(&format!(
            "need --workload (one of {}), --seed, --seconds and --trace",
            names.join(", ")
        ));
    };
    let run = RunArgs {
        workload,
        seed,
        seconds,
    };
    match run_one(&run, trace, record) {
        // an incorrect run still reports: its result line says so
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            // a failed set-up or set-up check prints no metrics
            eprintln!("wa-benchmark: {}: {why}", workload.name());
            ExitCode::FAILURE
        }
    }
}
