//! `wa-client` — exercise a running `wa-serve` end-to-end.
//!
//! ```text
//! wa-client make-checkpoint <path> [--arch lenet] [--classes N]
//!           [--input-size N] [--width W] [--algo F2] [--quant INT8] [--transform per-tap]
//!           [--execution int8] [--calibration-batches N] [--seed N]
//! wa-client convert <input> <output>
//! wa-client load <addr> <name> <path> [--timeout MS]
//! wa-client list <addr> [--timeout MS]
//! wa-client infer <addr> <name> [--batch N] [--requests K]
//!           [--concurrency C] [--seed N] [--deadline-ms N]
//!           [--timeout MS] [--record]
//! wa-client stats <addr> [--timeout MS]
//! wa-client shutdown <addr> [--timeout MS]
//! ```
//!
//! `infer` asks the server for the model's expected sample shape, fires
//! `--requests` random batches of `--batch` samples across
//! `--concurrency` connections (concurrent requests let the server's
//! scheduler coalesce them), prints the first response's logits and the
//! measured served samples/sec, and with `--record` appends the number
//! to `results/serve_throughput.json`.
//!
//! `--execution int8` mints a checkpoint for the true-integer inference
//! path. Integer serving needs settled scales, so the model is first
//! calibrated on `--calibration-batches` (default 2) seeded random
//! batches; passing `0` is rejected before writing — the server refuses
//! to load an int8 checkpoint with an uncalibrated site.
//!
//! `convert` round-trips a checkpoint between formats, sniffed from the
//! input's bytes: a JSON document becomes a binary `.wack` container
//! (magic `WACK`, see `docs/checkpoints.md`) and a container becomes
//! pretty-printed JSON. `load` sniffs too: a JSON checkpoint is parsed
//! locally and sent inline over the wire, while a binary container is
//! loaded *by the server* from the given path (binary bytes never
//! transit the JSON protocol — the server and client must share a
//! filesystem for that form).
//!
//! `--timeout MS` bounds every network wait on the client side
//! (connect, send, receive); an elapsed timeout exits with a structured
//! `timed out after …` message instead of hanging. `--deadline-ms N`
//! is the *server-side* budget: the scheduler drops the request
//! unexecuted (answering `deadline_exceeded`) if it is still queued
//! when the budget elapses.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use wa_bench::BenchRecord;
use wa_core::ConvAlgo;
use wa_models::{ModelKind, ModelSpec, ZooModel};
use wa_nn::{FullCheckpoint, Layer, QuantConfig, QuantSiteState, Tape};
use wa_quant::{BitWidth, Execution, TapPolicy};
use wa_serve::Client;
use wa_tensor::{SeededRng, Tensor};

fn usage() -> ! {
    eprintln!(
        "usage:\n  wa-client make-checkpoint <path> [--arch lenet] [--classes N] \
         [--input-size N] [--width W] [--algo F2] [--quant INT8] [--transform per-tap] \
         [--execution int8] [--calibration-batches N] [--seed N]\n  \
         wa-client convert <input> <output>\n  \
         wa-client load <addr> <name> <path> [--timeout MS]\n  \
         wa-client list <addr> [--timeout MS]\n  \
         wa-client infer <addr> <name> [--batch N] [--requests K] [--concurrency C] \
         [--seed N] [--deadline-ms N] [--timeout MS] [--record]\n  \
         wa-client stats <addr> [--timeout MS]\n  \
         wa-client shutdown <addr> [--timeout MS]"
    );
    std::process::exit(2);
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("wa-client: {msg}");
    std::process::exit(1);
}

/// Key-value flags after the positional arguments.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], booleans: &[&str]) -> Flags {
        let mut out = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let Some(key) = args[i].strip_prefix("--") else {
                usage();
            };
            if booleans.contains(&key) {
                out.push((key.to_string(), "true".to_string()));
                i += 1;
            } else {
                if i + 1 >= args.len() {
                    usage();
                }
                out.push((key.to_string(), args[i + 1].clone()));
                i += 2;
            }
        }
        Flags(out)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.get(key) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| fail(format!("bad value for --{key}: `{v}`"))),
        }
    }
}

/// Connects, honouring `--timeout MS` when present (0 or absent = no
/// client-side timeout).
fn connect(addr: &str, flags: &Flags) -> Client {
    match flags.parsed("timeout", 0u64) {
        0 => Client::connect(addr).unwrap_or_else(|e| fail(e)),
        ms => Client::connect_with_timeout(addr, Duration::from_millis(ms))
            .unwrap_or_else(|e| fail(e)),
    }
}

fn make_checkpoint(path: &str, flags: &Flags) {
    let kind: ModelKind = flags
        .get("arch")
        .unwrap_or("lenet")
        .parse()
        .unwrap_or_else(|e| fail(e));
    let algo: ConvAlgo = flags
        .get("algo")
        .unwrap_or("im2row")
        .parse()
        .unwrap_or_else(|e| fail(e));
    let bits: BitWidth = flags
        .get("quant")
        .unwrap_or("FP32")
        .parse()
        .unwrap_or_else(|e| fail(e));
    let transform: TapPolicy = flags
        .get("transform")
        .unwrap_or("per-layer")
        .parse()
        .unwrap_or_else(|e| fail(e));
    let execution: Execution = flags
        .get("execution")
        .unwrap_or("fake-quant")
        .parse()
        .unwrap_or_else(|e| fail(e));
    let default_size = if kind == ModelKind::LeNet { 28 } else { 32 };
    let spec = ModelSpec::builder()
        .classes(flags.parsed("classes", 10))
        .input_size(flags.parsed("input-size", default_size))
        .width(flags.parsed("width", 1.0))
        .quant(
            QuantConfig::uniform(bits)
                .with_transform(transform)
                .with_execution(execution),
        )
        .algo(algo)
        .build()
        .unwrap_or_else(|e| fail(e));
    let mut rng = SeededRng::new(flags.parsed("seed", 0u64));
    let mut model = ZooModel::from_spec(kind, &spec, &mut rng).unwrap_or_else(|e| fail(e));

    // int8 serving requantizes through the calibrated scales, so warm
    // every observer (and the BN moments) on seeded random batches
    // before exporting
    let calibration_default = if execution == Execution::Int8 {
        2usize
    } else {
        0
    };
    let calibration = flags.parsed("calibration-batches", calibration_default);
    let [c, h, w] = model.sample_shape();
    for _ in 0..calibration {
        let batch = rng.uniform_tensor(&[4, c, h, w], -1.0, 1.0);
        let mut tape = Tape::new();
        let x = tape.leaf(batch);
        let _ = model.forward(&mut tape, x, true);
    }

    let ckpt = model.to_full_checkpoint().unwrap_or_else(|e| fail(e));
    if execution == Execution::Int8 {
        let cold = ckpt.quant.iter().find(|(_, state)| match state {
            QuantSiteState::Observer { seen, .. } | QuantSiteState::Taps { seen, .. } => *seen == 0,
            QuantSiteState::BatchNorm { .. } => false,
        });
        if ckpt.quant.is_empty() {
            fail(
                "int8 execution requires calibrated quantization state, but the model exports none",
            );
        }
        if let Some((site, _)) = cold {
            fail(format!(
                "int8 execution requires calibrated quantization state, but \
                 `quant.{site}` has no observations (seen = 0); mint with \
                 --calibration-batches >= 1"
            ));
        }
    }
    let doc = ckpt.to_json().to_string_pretty();
    std::fs::write(path, &doc).unwrap_or_else(|e| fail(format!("writing {path}: {e}")));
    println!("wrote {kind} checkpoint ({} bytes) to {path}", doc.len());
}

/// Converts a checkpoint between the JSON and binary container formats
/// (direction sniffed from the input's leading bytes).
fn convert(input: &str, output: &str) {
    let bytes = std::fs::read(input).unwrap_or_else(|e| fail(format!("reading {input}: {e}")));
    let (params, from, out_bytes, to) = if wa_nn::is_container(&bytes) {
        let ckpt = wa_nn::read_checkpoint(&bytes)
            .unwrap_or_else(|e| fail(format!("parsing {input}: {e}")));
        let text = ckpt.to_json().to_string_pretty();
        (
            ckpt.params.params.len(),
            "binary",
            text.into_bytes(),
            "json",
        )
    } else {
        let text = String::from_utf8(bytes).unwrap_or_else(|_| {
            fail(format!(
                "{input} is neither a binary container nor UTF-8 JSON"
            ))
        });
        let ckpt = FullCheckpoint::from_json_str(&text)
            .unwrap_or_else(|e| fail(format!("parsing {input}: {e}")));
        let out = wa_nn::write_checkpoint(&ckpt);
        (ckpt.params.params.len(), "json", out, "binary")
    };
    std::fs::write(output, &out_bytes).unwrap_or_else(|e| fail(format!("writing {output}: {e}")));
    println!(
        "converted {from} {input} ({params} params) to {to} {output} ({} bytes)",
        out_bytes.len()
    );
}

fn load(addr: &str, name: &str, path: &str, flags: &Flags) {
    let bytes = std::fs::read(path).unwrap_or_else(|e| fail(format!("reading {path}: {e}")));
    let mut client = connect(addr, flags);
    let resp = if wa_nn::is_container(&bytes) {
        // binary containers don't transit the JSON protocol: the server
        // reads the path itself (it must see the same filesystem)
        client
            .load_model_path(name, path)
            .unwrap_or_else(|e| fail(e))
    } else {
        let text = String::from_utf8(bytes).unwrap_or_else(|_| {
            fail(format!(
                "{path} is neither a binary container nor UTF-8 JSON"
            ))
        });
        let ckpt = FullCheckpoint::from_json_str(&text)
            .unwrap_or_else(|e| fail(format!("parsing {path}: {e}")));
        client.load_model(name, &ckpt).unwrap_or_else(|e| fail(e))
    };
    println!(
        "loaded `{name}` (arch {}, {} params, format {}, {} µs)",
        resp.get("arch").and_then(|v| v.as_str()).unwrap_or("?"),
        resp.get("params").and_then(|v| v.as_f64()).unwrap_or(0.0),
        resp.get("format").and_then(|v| v.as_str()).unwrap_or("?"),
        resp.get("load_micros")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
    );
}

/// The model's `[C, H, W]` sample shape, from `list_models`.
fn sample_shape(client: &mut Client, name: &str) -> Vec<usize> {
    let models = client.list_models().unwrap_or_else(|e| fail(e));
    let Some(row) = models
        .as_arr()
        .unwrap_or(&[])
        .iter()
        .find(|m| m.get("name").and_then(|v| v.as_str()) == Some(name))
    else {
        fail(format!("no model `{name}` on the server"));
    };
    row.get("sample_shape")
        .and_then(|s| s.as_arr())
        .map(|a| {
            a.iter()
                .filter_map(|v| v.as_f64())
                .map(|f| f as usize)
                .collect()
        })
        .unwrap_or_else(|| fail("list_models row lacks sample_shape"))
}

fn infer(addr: &str, name: &str, flags: &Flags) {
    let batch: usize = flags.parsed("batch", 4);
    let requests: usize = flags.parsed("requests", 8);
    let concurrency: usize = flags.parsed("concurrency", 2).max(1);
    let seed: u64 = flags.parsed("seed", 7);
    let deadline_ms: u64 = flags.parsed("deadline-ms", 0);

    let mut probe = connect(addr, flags);
    let shape = sample_shape(&mut probe, name);
    let mut full = vec![batch];
    full.extend(&shape);
    let mut rng = SeededRng::new(seed);
    let inputs: Vec<Tensor> = (0..requests)
        .map(|_| rng.uniform_tensor(&full, -1.0, 1.0))
        .collect();

    // fire the requests across `concurrency` connections so the server's
    // scheduler gets something to coalesce
    let next = AtomicUsize::new(0);
    let first_logits = std::sync::Mutex::new(None::<Tensor>);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..concurrency.min(requests) {
            s.spawn(|| {
                let mut client = connect(addr, flags);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= requests {
                        return;
                    }
                    let out = if deadline_ms > 0 {
                        client
                            .infer_with_deadline(name, &inputs[i], deadline_ms)
                            .unwrap_or_else(|e| fail(e))
                    } else {
                        client.infer(name, &inputs[i]).unwrap_or_else(|e| fail(e))
                    };
                    if i == 0 {
                        *first_logits.lock().expect("logits lock") = Some(out);
                    }
                }
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64().max(1e-9);
    let samples = batch * requests;
    let sps = samples as f64 / elapsed;

    if let Some(logits) = first_logits.lock().expect("logits lock").as_ref() {
        let row: Vec<String> = logits.data()[..logits.dim(1).min(10)]
            .iter()
            .map(|v| format!("{v:.4}"))
            .collect();
        println!("first logits: [{}]", row.join(", "));
    }
    println!(
        "{samples} samples in {requests} requests over {concurrency} connections: \
         {sps:.1} samples/sec"
    );

    if flags.get("record").is_some() {
        let mut record = BenchRecord::new("serve_throughput", "samples/sec");
        record.push(
            format!("{name} served"),
            sps,
            &[
                ("batch", batch as f64),
                ("requests", requests as f64),
                ("concurrency", concurrency as f64),
            ],
        );
        record.save();
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    match (cmd.as_str(), &args[1..]) {
        ("make-checkpoint", rest) if !rest.is_empty() => {
            make_checkpoint(&rest[0], &Flags::parse(&rest[1..], &[]));
        }
        ("convert", rest) if rest.len() == 2 => {
            convert(&rest[0], &rest[1]);
        }
        ("load", rest) if rest.len() >= 3 => {
            let flags = Flags::parse(&rest[3..], &[]);
            load(&rest[0], &rest[1], &rest[2], &flags);
        }
        ("list", rest) if !rest.is_empty() => {
            let mut client = connect(&rest[0], &Flags::parse(&rest[1..], &[]));
            println!("{}", client.list_models().unwrap_or_else(|e| fail(e)));
        }
        ("infer", rest) if rest.len() >= 2 => {
            infer(&rest[0], &rest[1], &Flags::parse(&rest[2..], &["record"]));
        }
        ("stats", rest) if !rest.is_empty() => {
            let mut client = connect(&rest[0], &Flags::parse(&rest[1..], &[]));
            println!("{}", client.stats().unwrap_or_else(|e| fail(e)));
        }
        ("shutdown", rest) if !rest.is_empty() => {
            let mut client = connect(&rest[0], &Flags::parse(&rest[1..], &[]));
            client.shutdown().unwrap_or_else(|e| fail(e));
            println!("server stopping");
        }
        _ => usage(),
    }
}
