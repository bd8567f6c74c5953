//! Batched parallel inference: shard an `[N, C, H, W]` batch across
//! worker threads, each replaying the model on its own [`Tape`].
//!
//! The tape is a single-threaded structure — every forward pass appends
//! nodes to one `Vec` — so throughput-oriented serving cannot run a large
//! batch as one tape without serializing everything behind it. The
//! executor instead splits the batch into fixed-size chunks, gives every
//! worker its own tape, and reads the model through the shared-reference
//! [`Infer`] trait (parameters are only *read* during inference, so one
//! model can serve any number of workers simultaneously).
//!
//! Determinism: the chunk partition depends only on
//! [`ExecutorConfig::chunk`], never on thread scheduling, and every
//! per-sample computation is independent, so — for FP32 models and for
//! quantized models whose range observers are warm — the stitched output
//! is identical for any `threads` or `chunk` value, and identical to
//! running the samples one at a time through [`Infer::infer`]. The one
//! carve-out is a fake-quant model that was never warmed: its cold
//! observers derive scales from the tensor at hand (see
//! [`crate::infer_quant`]), which in batched execution is the whole
//! chunk, so outputs can vary with the batch partition until the model
//! is warmed. (An `int8`-execution layer with a cold site refuses to run
//! instead.) The parity suite in `tests/executor_parity.rs` pins the
//! contract.
//!
//! # Example
//!
//! ```
//! use wa_nn::{BatchExecutor, ExecutorConfig, Infer, Linear, LinearSpec, Tape, Var, WaError};
//! use wa_tensor::{SeededRng, Tensor};
//!
//! // A [N, F] model: Infer is the &self (read-only) forward.
//! let mut rng = SeededRng::new(0);
//! let spec = LinearSpec::builder("clf").in_features(4).out_features(3).build()?;
//! let model = Linear::from_spec(&spec, &mut rng)?;
//!
//! let batch = rng.uniform_tensor(&[10, 4], -1.0, 1.0);
//! let exec = BatchExecutor::new(ExecutorConfig { threads: 2, chunk: 3 })?;
//! let logits = exec.run(&model, &batch)?;
//! assert_eq!(logits.shape(), &[10, 3]);
//!
//! // Bit-identical to the sequential per-sample loop:
//! for i in 0..10 {
//!     let one = model.infer_tensor(&batch.slice_dim0(i, i + 1))?;
//!     assert_eq!(one.data(), &logits.data()[i * 3..(i + 1) * 3]);
//! }
//! # Ok::<(), WaError>(())
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use wa_tensor::Tensor;

use crate::error::WaError;
use crate::tape::{Tape, Var};

/// Cached handles into the global metrics registry (registration is the
/// cold path; each run records through relaxed atomics only).
struct ExecMetrics {
    runs: Arc<wa_obs::Counter>,
    chunks: Arc<wa_obs::Counter>,
    samples: Arc<wa_obs::Counter>,
    params_cloned: Arc<wa_obs::Counter>,
    fanout: Arc<wa_obs::Histogram>,
}

fn exec_metrics() -> &'static ExecMetrics {
    static M: OnceLock<ExecMetrics> = OnceLock::new();
    M.get_or_init(|| ExecMetrics {
        runs: wa_obs::counter("wa_executor_runs_total", "Batch executor runs."),
        chunks: wa_obs::counter(
            "wa_executor_chunks_total",
            "Chunks dispatched to executor workers.",
        ),
        samples: wa_obs::counter(
            "wa_executor_samples_total",
            "Samples pushed through the batch executor.",
        ),
        params_cloned: wa_obs::counter(
            "wa_executor_params_cloned_bytes_total",
            "Bytes deep-copied by copy-on-write detaches during executor runs \
             (the zero-copy parameter-sharing contract pins this at 0).",
        ),
        fanout: wa_obs::histogram(
            "wa_executor_chunk_fanout",
            "Chunks per executor run (the worker fan-out).",
        ),
    })
}

/// Inference-only forward over a shared reference.
///
/// [`crate::Layer::forward`] takes `&mut self` because training mutates
/// layer state (range observers, batch-norm running statistics, parameter
/// registration for the backward pass). Serving needs none of that: this
/// trait is the *read-only* half — it must not mutate the model, which is
/// what lets [`BatchExecutor`] share one model across worker threads.
///
/// Implementations mirror their layer's eval-mode (`train = false`)
/// forward. The one divergence: a *cold* fake-quant observer (zero
/// observations) derives a one-off scale from the tensor at hand instead
/// of memorizing it, so repeated inference never drifts; warm the model
/// with one training forward for serving scales that are stable and
/// independent of how a batch is partitioned. Integer execution runs on
/// calibrated scales only and errors on a cold site.
pub trait Infer {
    /// Runs the model on `x`, appending ops to `tape`, without mutating
    /// `self`.
    ///
    /// # Errors
    ///
    /// [`WaError::ShapeMismatch`] when the input cannot be consumed.
    fn infer(&self, tape: &mut Tape, x: Var) -> Result<Var, WaError>;

    /// Convenience wrapper: runs [`Infer::infer`] on a fresh tape and
    /// returns the output tensor.
    ///
    /// # Errors
    ///
    /// Propagates [`Infer::infer`] errors.
    fn infer_tensor(&self, x: &Tensor) -> Result<Tensor, WaError> {
        let mut tape = Tape::new();
        let v = tape.leaf(x.clone());
        let y = self.infer(&mut tape, v)?;
        Ok(tape.value(y).clone())
    }

    /// Runs a batch (leading dimension = samples) through a
    /// [`BatchExecutor`], sharding the samples across `cfg.threads`
    /// workers and returning the outputs in input order.
    ///
    /// # Errors
    ///
    /// [`WaError::InvalidSpec`] for an invalid `cfg`,
    /// [`WaError::ShapeMismatch`] for an unusable batch.
    fn try_forward_batch(&self, batch: &Tensor, cfg: ExecutorConfig) -> Result<Tensor, WaError>
    where
        Self: Sized + Sync,
    {
        BatchExecutor::new(cfg)?.run(self, batch)
    }
}

/// Hard cap on worker threads (beyond this a config is a typo, not a
/// deployment).
const MAX_THREADS: usize = 1024;

/// Hard cap on samples per chunk.
const MAX_CHUNK: usize = 65_536;

/// How a [`BatchExecutor`] shards work.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ExecutorConfig {
    /// Worker thread count (each worker owns one [`Tape`] at a time).
    pub threads: usize,
    /// Samples per shard. Smaller chunks balance load better; larger
    /// chunks amortize per-tape overhead and feed the GEMM larger
    /// matrices. The output never depends on this value for FP32 models
    /// or warmed quantized models (cold observers derive scales from the
    /// chunk at hand — see [`crate::infer_quant`]).
    pub chunk: usize,
}

impl ExecutorConfig {
    /// Creates a validated config.
    ///
    /// # Errors
    ///
    /// [`WaError::InvalidSpec`] for zero or absurd values.
    pub fn new(threads: usize, chunk: usize) -> Result<ExecutorConfig, WaError> {
        let cfg = ExecutorConfig { threads, chunk };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Re-checks the invariants (the fields are public and may have been
    /// mutated after construction).
    ///
    /// # Errors
    ///
    /// [`WaError::InvalidSpec`] naming the offending field.
    pub fn validate(&self) -> Result<(), WaError> {
        if self.threads == 0 || self.threads > MAX_THREADS {
            return Err(WaError::invalid(
                "ExecutorConfig",
                "threads",
                format!("threads must be in 1..={MAX_THREADS}, got {}", self.threads),
            ));
        }
        if self.chunk == 0 || self.chunk > MAX_CHUNK {
            return Err(WaError::invalid(
                "ExecutorConfig",
                "chunk",
                format!("chunk must be in 1..={MAX_CHUNK}, got {}", self.chunk),
            ));
        }
        Ok(())
    }
}

impl Default for ExecutorConfig {
    /// One thread per available core, 8 samples per chunk. The executor
    /// divides the machine between the two parallel layers at run time:
    /// with `w` workers each worker's *inner* GEMM threading is capped at
    /// `⌊cores/w⌋`, so worker-level and GEMM-level parallelism never
    /// multiply into oversubscription (see [`BatchExecutor::run`]).
    fn default() -> Self {
        ExecutorConfig {
            threads: available_cores(),
            chunk: 8,
        }
    }
}

/// Cores the scheduler can actually run on (1 if unknown).
fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Counters for one [`BatchExecutor::run_with_stats`] pass.
///
/// The headline number is [`ExecutorStats::params_cloned_bytes`]: tensor
/// storage is copy-on-write (`wa_tensor`), so worker tapes registering
/// model parameters via [`Tape::param_ref`] *alias* the model's buffers.
/// On the read-only inference path nothing ever writes to a shared
/// buffer, so the counter must stay **0** — each worker shares one set
/// of parameter tensors instead of deep-copying ~every weight per chunk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Chunks the batch was partitioned into.
    pub chunks: usize,
    /// Samples in the batch.
    pub samples: usize,
    /// Bytes deep-copied by copy-on-write detaches during the run
    /// (difference of [`wa_tensor::cow_detach_bytes`] snapshots). The
    /// counter is process-wide, so concurrent tensor mutation elsewhere
    /// (a training loop, another executor) is attributed to whichever
    /// run observes it; on a quiesced inference server it is exactly the
    /// parameter bytes the run cloned — which the zero-copy contract
    /// pins at 0.
    pub params_cloned_bytes: u64,
}

/// Shards an input batch across `std::thread::scope` workers and stitches
/// the outputs back in input order. See the [module docs](self) for the
/// determinism contract and an example.
#[derive(Clone, Debug)]
pub struct BatchExecutor {
    cfg: ExecutorConfig,
}

impl BatchExecutor {
    /// Creates an executor from a validated config.
    ///
    /// # Errors
    ///
    /// [`WaError::InvalidSpec`] if the config is invalid.
    pub fn new(cfg: ExecutorConfig) -> Result<BatchExecutor, WaError> {
        cfg.validate()?;
        Ok(BatchExecutor { cfg })
    }

    /// The active configuration.
    pub fn config(&self) -> ExecutorConfig {
        self.cfg
    }

    /// Runs `model` over `batch` (any tensor whose first dimension is the
    /// sample dimension; CNNs take `[N, C, H, W]`) and returns the outputs
    /// concatenated along dimension 0 in input order.
    ///
    /// # Errors
    ///
    /// [`WaError::ShapeMismatch`] for an empty batch, a model error on any
    /// chunk (the first failing chunk's error, in chunk order), or a model
    /// that returns outputs whose leading dimension is not the chunk's
    /// sample count.
    pub fn run<M: Infer + Sync + ?Sized>(
        &self,
        model: &M,
        batch: &Tensor,
    ) -> Result<Tensor, WaError> {
        self.run_with_stats(model, batch).map(|(out, _)| out)
    }

    /// Like [`BatchExecutor::run`], additionally returning the run's
    /// [`ExecutorStats`] — chiefly the copy-on-write detach byte count,
    /// which the zero-copy parameter-sharing contract pins at 0 for the
    /// inference path.
    ///
    /// # Errors
    ///
    /// Identical to [`BatchExecutor::run`].
    pub fn run_with_stats<M: Infer + Sync + ?Sized>(
        &self,
        model: &M,
        batch: &Tensor,
    ) -> Result<(Tensor, ExecutorStats), WaError> {
        let _run_span = wa_obs::stage_span!("executor.run");
        let detach_before = wa_tensor::cow_detach_bytes();
        let shape = batch.shape();
        if shape.is_empty() || shape[0] == 0 {
            return Err(WaError::shape(
                "BatchExecutor input (needs a nonempty sample dimension)",
                &[1],
                shape,
            ));
        }
        let n = shape[0];
        let chunk = self.cfg.chunk.min(n);
        let n_chunks = n.div_ceil(chunk);
        // `cfg.threads` is a ceiling, not a spawn count: workers beyond
        // the chunk count would idle, and workers beyond the core count
        // would time-slice one core for pure context-switch overhead
        // (the old behaviour that made thread scaling *inverted* on small
        // machines). The chunk partition — and therefore the output —
        // never depends on the worker count.
        let avail = available_cores();
        let threads = self.cfg.threads.min(n_chunks).min(avail);

        let mut slots: Vec<Option<Result<Tensor, WaError>>> = (0..n_chunks).map(|_| None).collect();
        if threads <= 1 {
            // a single worker keeps the GEMM's own inner threading: large
            // chunks still use every core
            for (ci, slot) in slots.iter_mut().enumerate() {
                *slot = Some(run_chunk(
                    model,
                    batch,
                    ci * chunk,
                    ((ci + 1) * chunk).min(n),
                ));
            }
        } else {
            let next = AtomicUsize::new(0);
            let shared = Mutex::new(&mut slots);
            // Divide the cores between the two parallel layers: `threads`
            // workers each cap their inner GEMM threading at
            // `⌊cores/threads⌋`, so total parallelism stays ≈ the core
            // count at every worker count instead of `threads` workers ×
            // the GEMM's own pool oversubscribing multiplicatively. The
            // cap never changes results (whole-row GEMM splits).
            let inner_cap = (avail / threads).max(1);
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| {
                        wa_tensor::with_gemm_thread_cap(inner_cap, || loop {
                            let ci = next.fetch_add(1, Ordering::Relaxed);
                            if ci >= n_chunks {
                                return;
                            }
                            let out =
                                run_chunk(model, batch, ci * chunk, ((ci + 1) * chunk).min(n));
                            shared.lock().expect("executor worker panicked")[ci] = Some(out);
                        })
                    });
                }
            });
        }

        let mut parts = Vec::with_capacity(n_chunks);
        for (ci, slot) in slots.into_iter().enumerate() {
            let part = slot.expect("every chunk index was dispatched")?;
            let rows = ((ci + 1) * chunk).min(n) - ci * chunk;
            if part.ndim() == 0 || part.dim(0) != rows {
                return Err(WaError::shape(
                    "BatchExecutor model output (leading dim must be the \
                     chunk's sample count)",
                    &[rows],
                    part.shape(),
                ));
            }
            if ci > 0 {
                let first: &Tensor = &parts[0];
                if part.shape()[1..] != first.shape()[1..] {
                    return Err(WaError::shape(
                        "BatchExecutor model output (per-sample shape must \
                         be identical across chunks)",
                        &first.shape()[1..],
                        &part.shape()[1..],
                    ));
                }
            }
            parts.push(part);
        }
        let refs: Vec<&Tensor> = parts.iter().collect();
        let out = Tensor::concat_dim0(&refs);
        let stats = ExecutorStats {
            chunks: n_chunks,
            samples: n,
            params_cloned_bytes: wa_tensor::cow_detach_bytes() - detach_before,
        };
        let m = exec_metrics();
        m.runs.inc();
        m.chunks.add(stats.chunks as u64);
        m.samples.add(stats.samples as u64);
        m.params_cloned.add(stats.params_cloned_bytes);
        m.fanout.record(stats.chunks as u64);
        Ok((out, stats))
    }
}

/// One worker step: slice `[start, end)` samples, replay the model on a
/// fresh tape, detach the output.
fn run_chunk<M: Infer + ?Sized>(
    model: &M,
    batch: &Tensor,
    start: usize,
    end: usize,
) -> Result<Tensor, WaError> {
    let _span = wa_obs::stage_span!("executor.chunk");
    let part = batch.slice_dim0(start, end);
    let mut tape = Tape::new();
    let x = tape.leaf(part);
    let y = model.infer(&mut tape, x)?;
    Ok(tape.value(y).clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Layer, Linear};
    use crate::spec::LinearSpec;
    use wa_tensor::SeededRng;

    fn model(rng: &mut SeededRng) -> Linear {
        let spec = LinearSpec::builder("l")
            .in_features(3)
            .out_features(2)
            .build()
            .unwrap();
        Linear::from_spec(&spec, rng).unwrap()
    }

    #[test]
    fn config_validation_rejects_zeroes() {
        assert!(matches!(
            ExecutorConfig::new(0, 4),
            Err(WaError::InvalidSpec {
                field: "threads",
                ..
            })
        ));
        assert!(matches!(
            ExecutorConfig::new(2, 0),
            Err(WaError::InvalidSpec { field: "chunk", .. })
        ));
        assert!(ExecutorConfig::new(2, 4).is_ok());
        assert!(ExecutorConfig::default().validate().is_ok());
    }

    #[test]
    fn mutated_config_is_recaught_by_executor() {
        let mut cfg = ExecutorConfig::new(2, 4).unwrap();
        cfg.threads = 0;
        assert!(BatchExecutor::new(cfg).is_err());
    }

    #[test]
    fn run_matches_sequential_and_all_thread_counts_agree() {
        let mut rng = SeededRng::new(1);
        let m = model(&mut rng);
        let batch = rng.uniform_tensor(&[7, 3], -1.0, 1.0);
        let seq: Vec<Tensor> = (0..7)
            .map(|i| m.infer_tensor(&batch.slice_dim0(i, i + 1)).unwrap())
            .collect();
        let seq_refs: Vec<&Tensor> = seq.iter().collect();
        let want = Tensor::concat_dim0(&seq_refs);
        for threads in [1, 2, 4] {
            let exec = BatchExecutor::new(ExecutorConfig { threads, chunk: 2 }).unwrap();
            let got = exec.run(&m, &batch).unwrap();
            assert_eq!(got.shape(), want.shape());
            assert_eq!(got.data(), want.data(), "threads = {threads}");
        }
    }

    #[test]
    fn chunk_size_does_not_change_output() {
        let mut rng = SeededRng::new(2);
        let m = model(&mut rng);
        let batch = rng.uniform_tensor(&[9, 3], -1.0, 1.0);
        let a = BatchExecutor::new(ExecutorConfig {
            threads: 2,
            chunk: 1,
        })
        .unwrap()
        .run(&m, &batch)
        .unwrap();
        let b = BatchExecutor::new(ExecutorConfig {
            threads: 3,
            chunk: 4,
        })
        .unwrap()
        .run(&m, &batch)
        .unwrap();
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn empty_batch_is_rejected() {
        let mut rng = SeededRng::new(3);
        let m = model(&mut rng);
        let exec = BatchExecutor::new(ExecutorConfig {
            threads: 2,
            chunk: 2,
        })
        .unwrap();
        let empty = Tensor::zeros(&[0, 3]);
        assert!(matches!(
            exec.run(&m, &empty),
            Err(WaError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn model_error_surfaces_from_worker_threads() {
        let mut rng = SeededRng::new(4);
        let m = model(&mut rng);
        // wrong feature count: every chunk fails; the first chunk's error
        // must come back intact through the thread boundary
        let bad = rng.uniform_tensor(&[6, 5], -1.0, 1.0);
        let exec = BatchExecutor::new(ExecutorConfig {
            threads: 3,
            chunk: 2,
        })
        .unwrap();
        assert!(matches!(
            exec.run(&m, &bad),
            Err(WaError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn infer_matches_eval_forward() {
        let mut rng = SeededRng::new(5);
        let mut m = model(&mut rng);
        let x = rng.uniform_tensor(&[4, 3], -1.0, 1.0);
        let want = {
            let mut tape = Tape::new();
            let v = tape.leaf(x.clone());
            let y = m.forward(&mut tape, v, false);
            tape.value(y).clone()
        };
        let got = m.infer_tensor(&x).unwrap();
        assert_eq!(got.data(), want.data());
    }
}
