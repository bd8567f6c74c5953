//! # wa-bench
//!
//! The benchmark harness: one binary per table/figure of the paper (run
//! with `cargo run -p wa-bench --release --bin <id>`), plus Criterion
//! kernel benches (`cargo bench -p wa-bench`).
//!
//! Every binary prints the same rows/series the paper reports and appends
//! a JSON record under `results/`. Absolute numbers differ from the
//! paper (synthetic data, scaled-down training, modeled hardware — see
//! the README's *Substitutions* section), but orderings and rough
//! factors must match; the binaries assert the headline orderings where
//! meaningful.
//!
//! Set `WA_FULL=1` for larger (slower) runs closer to the paper's scale.

pub mod load;

use std::path::PathBuf;

pub use load::{HttpClient, HttpReply, LogHistogram};
use wa_core::{fit, ConvAlgo, History, LabeledBatch, OptimKind, TrainConfig};
use wa_data::Dataset;
use wa_models::ModelSpec;
use wa_nn::QuantConfig;
use wa_quant::BitWidth;
use wa_tensor::{Json, SeededRng};

/// Experiment scale knobs (env-controlled).
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Images per class for CIFAR-shaped sets.
    pub per_class: usize,
    /// Image side length.
    pub img: usize,
    /// ResNet width multiplier for single-width experiments.
    pub width: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Batch size.
    pub batch: usize,
    /// wiNAS search epochs.
    pub nas_epochs: usize,
}

impl Scale {
    /// Default (CI-friendly) scale, or the larger `WA_FULL=1` scale.
    pub fn from_env() -> Scale {
        if std::env::var("WA_FULL").map(|v| v == "1").unwrap_or(false) {
            Scale {
                per_class: 200,
                img: 32,
                width: 0.25,
                epochs: 30,
                batch: 32,
                nas_epochs: 20,
            }
        } else {
            Scale {
                per_class: 60,
                img: 16,
                width: 0.125,
                epochs: 10,
                batch: 24,
                nas_epochs: 6,
            }
        }
    }
}

/// Standard train/val batch preparation from a dataset.
pub fn prepare(ds: &Dataset, batch: usize, seed: u64) -> (Vec<LabeledBatch>, Vec<LabeledBatch>) {
    let mut rng = SeededRng::new(seed);
    let (train, val) = ds.split(0.8);
    (train.shuffled_batches(batch, &mut rng), val.batches(batch))
}

/// The training recipe shared by all accuracy experiments (paper §5.1:
/// Adam + cosine annealing).
pub fn recipe(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        optim: OptimKind::Adam { lr: 2e-3 },
        weight_decay: 1e-4,
        cosine_to: Some(1e-5),
    }
}

/// Trains a fresh ResNet-18 with the given algorithm/precision and
/// returns its history (paper policy: last two blocks pinned to F2).
pub fn train_resnet(
    algo: ConvAlgo,
    bits: BitWidth,
    scale: Scale,
    train_b: &[LabeledBatch],
    val_b: &[LabeledBatch],
    seed: u64,
) -> History {
    let mut rng = SeededRng::new(seed);
    let spec = ModelSpec::builder()
        .classes(10)
        .width(scale.width)
        .quant(QuantConfig::uniform(bits))
        .algo(algo)
        .build()
        .expect("bench ResNet spec is statically valid");
    let mut net = wa_models::ResNet18::from_spec(&spec, &mut rng)
        .expect("bench ResNet spec is statically valid");
    fit(&mut net, train_b, val_b, &recipe(scale.epochs))
}

/// A typed benchmark record: one named measurement series, serialized to
/// `results/<name>.json` via [`BenchRecord::save`]. Used by the
/// `throughput` bin (samples/sec vs thread count) and available to any
/// future bench that reports label → value series.
#[derive(Clone, Debug, Default)]
pub struct BenchRecord {
    /// Record name (also the `results/<name>.json` stem).
    pub name: String,
    /// Unit of the values (e.g. `"samples/sec"`).
    pub unit: String,
    /// Measurement rows in insertion order.
    pub rows: Vec<BenchRow>,
}

/// One measurement of a [`BenchRecord`].
#[derive(Clone, Debug)]
pub struct BenchRow {
    /// What was measured (e.g. `"LeNet F2"`).
    pub label: String,
    /// The measured value in [`BenchRecord::unit`]s.
    pub value: f64,
    /// Free-form numeric context (e.g. `("threads", 4.0)`).
    pub extra: Vec<(String, f64)>,
}

impl BenchRecord {
    /// Creates an empty record.
    pub fn new(name: impl Into<String>, unit: impl Into<String>) -> BenchRecord {
        BenchRecord {
            name: name.into(),
            unit: unit.into(),
            rows: Vec::new(),
        }
    }

    /// Appends one measurement row.
    pub fn push(&mut self, label: impl Into<String>, value: f64, extra: &[(&str, f64)]) {
        self.rows.push(BenchRow {
            label: label.into(),
            value,
            extra: extra.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        });
    }

    /// The record as a JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::from(self.name.as_str())),
            ("unit", Json::from(self.unit.as_str())),
            (
                "rows",
                Json::arr(self.rows.iter().map(|r| {
                    let mut fields = vec![
                        ("label".to_string(), Json::from(r.label.as_str())),
                        ("value".to_string(), Json::from(r.value)),
                    ];
                    for (k, v) in &r.extra {
                        fields.push((k.clone(), Json::from(*v)));
                    }
                    Json::Obj(fields.into_iter().collect())
                })),
            ),
        ])
    }

    /// Writes the record to `results/<name>.json` (best effort).
    pub fn save(&self) {
        save_json(&self.name, &self.to_json());
    }
}

/// Writes a JSON record to `results/<name>.json` (best effort; prints the
/// path on success).
pub fn save_json(name: &str, value: &Json) {
    let dir = results_dir();
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if std::fs::write(&path, value.to_string_pretty()).is_ok() {
        println!("\n[saved {}]", path.display());
    }
}

/// Serializes a [`History`] as a JSON array of per-epoch records.
pub fn history_json(h: &History) -> Json {
    Json::arr(h.epochs.iter().map(|e| {
        Json::obj([
            ("epoch", Json::from(e.epoch)),
            ("train_loss", Json::from(e.train_loss)),
            ("train_acc", Json::from(e.train_acc)),
            ("val_loss", Json::from(e.val_loss)),
            ("val_acc", Json::from(e.val_acc)),
        ])
    }))
}

fn results_dir() -> PathBuf {
    // workspace root when run via cargo, cwd otherwise
    std::env::var("CARGO_MANIFEST_DIR")
        .map(|m| PathBuf::from(m).join("../../results"))
        .unwrap_or_else(|_| PathBuf::from("results"))
}

/// Percent formatting helper.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults_are_small() {
        let s = Scale::from_env();
        assert!(s.per_class <= 200);
        assert!(s.epochs <= 30);
    }

    #[test]
    fn prepare_splits_and_batches() {
        let ds = wa_data::cifar10_like(10, 8, 1);
        let (train, val) = prepare(&ds, 16, 2);
        let train_n: usize = train.iter().map(|(_, l)| l.len()).sum();
        let val_n: usize = val.iter().map(|(_, l)| l.len()).sum();
        assert_eq!(train_n + val_n, 100);
    }
}
