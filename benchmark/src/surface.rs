//! Every call the benchmark makes into a program crate lives in this
//! file, so an API refactor of the program breaks the benchmark here and
//! nowhere else.
//!
//! The end-to-end runs use only the first section: `ZooModel::{from_spec,
//! to_full_checkpoint}`, `Infer::infer_tensor`, `BatchExecutor::run`,
//! `train_step`, `Server::bind_with_http` and — through `crate::http` —
//! the HTTP wire. The second section is the layer ladder of the traced
//! runs, which reaches for successively lower public entry points and is
//! what a refactor is expected to break first.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use wa_core::{train_step, ConvAlgo, ConvLayer, ConvSpec};
use wa_latency::{network_latency_ms, Core, DType, LatAlgo, LayerChoice, LayerShape};
use wa_models::{BatchExecutor, ExecutorConfig, Infer, ModelKind, ModelSpec, ZooModel};
use wa_nn::{Adam, FullCheckpoint, Layer, Optimizer, QuantConfig, Tape};
use wa_quant::{BitWidth, Execution, Requantizer, TapPolicy};
use wa_serve::{Registry, Scheduler, SchedulerConfig, Server, ServerConfig, ServerHandle};
use wa_tensor::{SeededRng, Tensor, Transpose};

/// The program's JSON value type: what the benchmark reads and writes
/// records, traces and `BENCHMARK.json` with. (The `infer` wire has a
/// codec of the benchmark's own, `crate::wire`.)
pub use wa_tensor::Json;
use wa_winograd::{TileGeometry, WinogradTransform};

// ---------------------------------------------------------------------
// Section 1: what the end-to-end runs call.
// ---------------------------------------------------------------------

/// Process-wide set-up: shipped defaults everywhere, except that
/// per-flush info logs would flood stderr at 300 req/s.
pub fn init() {
    wa_obs::set_max_level(wa_obs::Level::Warn);
}

/// The architecture half of a model plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arch {
    /// The paper's CIFAR ResNet-18 (3-channel input).
    ResNet18,
    /// LeNet with 5×5 filters (1-channel input).
    LeNet,
}

/// Convolution algorithm of the swappable layers. ResNet-18 applies the
/// paper's policy itself: F4 pins the last two blocks to F2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    Im2row,
    F2,
    F4,
    /// F4 with learnable transforms.
    F4Flex,
}

/// Arithmetic of a model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Numerics {
    F32,
    /// INT8 simulated in f32 (the training semantics), per-layer scales.
    Int8FakeQuant,
    /// INT8 per-tap scales, simulated in f32: the twin of [`Numerics::Int8`].
    Int8PerTapFakeQuant,
    /// True integer execution, per-tap scales.
    Int8,
}

/// Everything that, with a seed, determines a model.
#[derive(Clone, Copy, Debug)]
pub struct ModelPlan {
    pub arch: Arch,
    pub width: f64,
    pub input: usize,
    pub algo: Algo,
    pub numerics: Numerics,
}

impl ModelPlan {
    /// Input channels of the architecture.
    pub fn channels(&self) -> usize {
        match self.arch {
            Arch::ResNet18 => 3,
            Arch::LeNet => 1,
        }
    }

    /// The `[n, C, H, W]` shape of a batch of `n` samples.
    pub fn batch_shape(&self, n: usize) -> [usize; 4] {
        [n, self.channels(), self.input, self.input]
    }

    fn conv_algo(&self) -> ConvAlgo {
        match self.algo {
            Algo::Im2row => ConvAlgo::Im2row,
            Algo::F2 => ConvAlgo::Winograd { m: 2 },
            Algo::F4 => ConvAlgo::Winograd { m: 4 },
            Algo::F4Flex => ConvAlgo::WinogradFlex { m: 4 },
        }
    }

    fn quant(&self) -> QuantConfig {
        let per_tap = QuantConfig::uniform(BitWidth::INT8).with_transform(TapPolicy::PerTap);
        match self.numerics {
            Numerics::F32 => QuantConfig::FP32,
            Numerics::Int8FakeQuant => QuantConfig::uniform(BitWidth::INT8),
            Numerics::Int8PerTapFakeQuant => per_tap,
            Numerics::Int8 => per_tap.with_execution(Execution::Int8),
        }
    }
}

/// A batch of samples (leading dimension) or of logits.
#[derive(Clone)]
pub struct Batch(Tensor);

impl Batch {
    /// Uniform `[-1, 1)` values drawn from `seed`.
    pub fn random(seed: u64, shape: &[usize]) -> Batch {
        Batch(SeededRng::new(seed).uniform_tensor(shape, -1.0, 1.0))
    }

    pub fn shape(&self) -> &[usize] {
        self.0.shape()
    }

    pub fn data(&self) -> &[f32] {
        self.0.data()
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.dim(0)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sample `i` as a batch of one.
    pub fn sample(&self, i: usize) -> Batch {
        Batch(self.0.slice_dim0(i, i + 1))
    }

    /// The per-sample results stacked back into one batch.
    pub fn concat(parts: &[Batch]) -> Batch {
        let refs: Vec<&Tensor> = parts.iter().map(|b| &b.0).collect();
        Batch(Tensor::concat_dim0(&refs))
    }
}

/// One model of the zoo, built from a plan and a seed.
pub struct Model {
    plan: ModelPlan,
    net: ZooModel,
}

impl Model {
    /// Builds the model; same plan and seed, same parameters, whatever
    /// the algorithm (the zoo builds im2row layers and converts them).
    pub fn build(plan: &ModelPlan, seed: u64) -> Result<Model, String> {
        let spec = ModelSpec::builder()
            .classes(10)
            .width(plan.width)
            .input_size(plan.input)
            .quant(plan.quant())
            .algo(plan.conv_algo())
            .build()
            .map_err(|e| e.to_string())?;
        let kind = match plan.arch {
            Arch::ResNet18 => ModelKind::ResNet18,
            Arch::LeNet => ModelKind::LeNet,
        };
        let net = ZooModel::from_spec(kind, &spec, &mut SeededRng::new(seed))
            .map_err(|e| e.to_string())?;
        Ok(Model { plan: *plan, net })
    }

    pub fn plan(&self) -> &ModelPlan {
        &self.plan
    }

    /// One training-mode forward over two samples drawn from `seed`:
    /// settles every range observer. A quantized model that skips this
    /// derives its scales from the batch at hand, so batched and
    /// sequential inference disagree.
    pub fn warm_observers(&mut self, seed: u64) {
        let x = Batch::random(seed, &self.plan.batch_shape(2));
        let mut tape = Tape::new();
        let v = tape.leaf(x.0);
        let _ = self.net.forward(&mut tape, v, true);
    }

    /// The in-process reference: `Infer::infer_tensor` on one fresh tape.
    pub fn infer(&self, x: &Batch) -> Result<Batch, String> {
        self.net
            .infer_tensor(&x.0)
            .map(Batch)
            .map_err(|e| e.to_string())
    }

    /// The model as a binary checkpoint container.
    pub fn checkpoint_binary(&mut self) -> Result<Vec<u8>, String> {
        let doc = self.net.to_full_checkpoint().map_err(|e| e.to_string())?;
        Ok(wa_nn::write_checkpoint(&doc))
    }

    /// The model as a one-document JSON checkpoint.
    pub fn checkpoint_json(&mut self) -> Result<String, String> {
        let doc = self.net.to_full_checkpoint().map_err(|e| e.to_string())?;
        Ok(doc.to_json().to_string_compact())
    }
}

/// The batch executor.
pub struct Executor(BatchExecutor);

impl Executor {
    /// `ExecutorConfig::default()`: one thread per core, chunks of 8.
    pub fn shipped() -> Executor {
        Executor(BatchExecutor::new(ExecutorConfig::default()).expect("the default is valid"))
    }

    pub fn run(&self, model: &Model, batch: &Batch) -> Result<Batch, String> {
        self.0
            .run(&model.net, &batch.0)
            .map(Batch)
            .map_err(|e| e.to_string())
    }
}

/// An in-process server with the shipped configuration, on ephemeral
/// ports, serving on its own thread. Dropping it drains and stops it.
pub struct ServerProc {
    http: SocketAddr,
    handle: ServerHandle,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl ServerProc {
    pub fn boot() -> Result<ServerProc, String> {
        let server = Server::bind_with_http("127.0.0.1:0", "127.0.0.1:0", ServerConfig::default())
            .map_err(|e| format!("binding the server: {e}"))?;
        let http = server.http_addr().expect("bound with an HTTP listener");
        let handle = server.handle();
        let thread = Some(std::thread::spawn(move || server.run()));
        Ok(ServerProc {
            http,
            handle,
            thread,
        })
    }

    /// Address of the HTTP listener.
    pub fn http_addr(&self) -> SocketAddr {
        self.http
    }

    /// Graceful drain; returns once the serve loop has ended. Idempotent.
    pub fn stop(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        self.handle.shutdown();
        match thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("the server ended with {e}")),
            Err(_) => Err("the server thread panicked".to_string()),
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // an error here has nowhere to go; `stop` is the reporting path
        let _ = self.stop();
    }
}

/// A training session: model, Adam at 1e-3 and a fixed set of batches.
pub struct Trainer {
    model: Model,
    opt: Adam,
    batches: Vec<(Tensor, Vec<usize>)>,
}

impl Trainer {
    /// `batches` labelled batches of `batch` samples from the synthetic
    /// CIFAR-10 generator, shuffled by `seed`.
    pub fn new(model: Model, seed: u64, batches: usize, batch: usize) -> Trainer {
        let per_class = (batches * batch).div_ceil(10);
        let data = wa_data::cifar10_like(per_class, model.plan.input, seed);
        let mut all = data.shuffled_batches(batch, &mut SeededRng::new(seed));
        all.truncate(batches);
        Trainer {
            model,
            opt: Adam::new(1e-3),
            batches: all,
        }
    }

    /// Samples per step.
    pub fn batch_size(&self) -> usize {
        self.batches[0].1.len()
    }

    /// One `train_step` on batch `i mod batches`; returns the loss.
    pub fn step(&mut self, i: usize) -> f64 {
        let (images, labels) = &self.batches[i % self.batches.len()];
        train_step(&mut self.model.net, &mut self.opt, images, labels).0
    }
}

// ---------------------------------------------------------------------
// Section 2: the layer ladder of the traced runs. Each item is one rung:
// a lower public entry point of the program than the one before it.
// ---------------------------------------------------------------------

/// A named interval measured inside a multi-part operation.
pub type Mark = (&'static str, Instant, Instant);

fn mark<T>(marks: &mut Vec<Mark>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    marks.push((name, start, Instant::now()));
    out
}

/// Turns the program's stage spans on or off (they ship on).
pub fn set_spans_enabled(enabled: bool) {
    wa_obs::set_spans_enabled(enabled);
}

/// Microseconds the program has recorded so far under stage `stage`.
pub fn stage_sum_us(stage: &str) -> u64 {
    wa_obs::stage_histogram(stage).sum()
}

/// Bytes copy-on-write detaches have copied so far, process-wide.
pub fn cow_detach_bytes() -> u64 {
    wa_tensor::cow_detach_bytes()
}

/// A parsed checkpoint document.
pub struct Checkpoint(FullCheckpoint);

impl Model {
    /// The model as a checkpoint document.
    pub fn checkpoint(&mut self) -> Result<Checkpoint, String> {
        self.net
            .to_full_checkpoint()
            .map(Checkpoint)
            .map_err(|e| e.to_string())
    }
}

/// `wa_nn::read_checkpoint`: the binary container decoder.
pub fn decode_binary(bytes: &[u8]) -> Result<Checkpoint, String> {
    wa_nn::read_checkpoint(bytes)
        .map(Checkpoint)
        .map_err(|e| e.to_string())
}

/// `FullCheckpoint::from_json_str`: the JSON checkpoint decoder.
pub fn decode_json(text: &str) -> Result<Checkpoint, String> {
    FullCheckpoint::from_json_str(text)
        .map(Checkpoint)
        .map_err(|e| e.message)
}

/// `Registry::load` into a fresh registry: checkpoint → runnable model.
pub fn registry_load(doc: &Checkpoint) -> Result<(), String> {
    Registry::new()
        .load("m", &doc.0)
        .map(|_| ())
        .map_err(|e| e.message)
}

/// The program's decode of one `infer` request body: JSON parse plus
/// tensor extraction.
pub fn json_decode_request(body: &str) -> Result<usize, String> {
    let doc = Json::parse(body).map_err(|e| e.message)?;
    let input = doc.get("input").ok_or("no `input`")?;
    Tensor::from_json(input)
        .map(|t| t.len())
        .map_err(|e| e.message)
}

/// The program's encode of one reply's output tensor.
pub fn json_encode_reply(logits: &Batch) -> usize {
    logits.0.to_json().to_string_compact().len()
}

impl Executor {
    /// The shipped chunking on one worker thread.
    pub fn single_thread() -> Executor {
        let cfg = ExecutorConfig {
            threads: 1,
            ..ExecutorConfig::default()
        };
        Executor(BatchExecutor::new(cfg).expect("one thread is valid"))
    }
}

/// The scheduler rung: a bench-owned registry and scheduler with the
/// shipped configuration, no sockets.
pub struct SchedulerRung {
    scheduler: Scheduler,
    entry: Arc<wa_serve::ServedModel>,
    _registry: Registry,
}

impl SchedulerRung {
    pub fn load(doc: &Checkpoint) -> Result<SchedulerRung, String> {
        let registry = Registry::new();
        let entry = registry.load("m", &doc.0).map_err(|e| e.message)?;
        let scheduler = Scheduler::start(SchedulerConfig::default()).map_err(|e| e.to_string())?;
        Ok(SchedulerRung {
            scheduler,
            entry,
            _registry: registry,
        })
    }

    /// `Scheduler::submit` → `recv`: one request through the batching
    /// window and a flusher thread.
    pub fn infer(&self, x: &Batch) -> Result<Batch, String> {
        let rx = self
            .scheduler
            .submit(Arc::clone(&self.entry), x.0.clone())
            .map_err(|e| e.message)?;
        match rx.recv() {
            Ok(Ok(y)) => Ok(Batch(y)),
            Ok(Err(e)) => Err(e.message),
            Err(_) => Err("the scheduler dropped the request".to_string()),
        }
    }
}

/// One convolution of a model, as geometry plus algorithm and arithmetic.
#[derive(Clone, Copy, Debug)]
pub struct ConvCase {
    /// 0 for the stem, 1–4 for the residual stages (LeNet: 0 and 1).
    pub stage: usize,
    pub in_ch: usize,
    pub out_ch: usize,
    pub kernel: usize,
    pub pad: usize,
    /// Input height and width.
    pub size: usize,
    /// Whether the zoo lets the algorithm of this layer be chosen.
    pub swappable: bool,
    algo: ConvAlgo,
    quant: QuantConfig,
}

/// The convolutions of `plan`'s model that the ladder reproduces: for
/// ResNet-18 the 17 of `wa_latency::resnet18_shapes` (the three 1×1
/// projections are left to the glue), for LeNet its two.
pub fn conv_cases(plan: &ModelPlan) -> Vec<ConvCase> {
    let quant = plan.quant();
    let algo = plan.conv_algo();
    match plan.arch {
        Arch::ResNet18 => {
            let shapes = wa_latency::resnet18_shapes(plan.width, plan.input);
            let n = shapes.len();
            shapes
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    // the zoo's policy: direct stem, last two blocks F2
                    let layer_algo = if i == 0 {
                        ConvAlgo::Im2row
                    } else if i + 4 >= n && algo.tile_m().is_some_and(|m| m > 2) {
                        match algo {
                            ConvAlgo::WinogradFlex { .. } => ConvAlgo::WinogradFlex { m: 2 },
                            _ => ConvAlgo::Winograd { m: 2 },
                        }
                    } else {
                        algo
                    };
                    ConvCase {
                        stage: if i == 0 { 0 } else { (i - 1) / 4 + 1 },
                        in_ch: s.in_ch,
                        out_ch: s.out_ch,
                        kernel: s.kernel,
                        pad: 1,
                        size: s.out_h,
                        swappable: i > 0,
                        algo: layer_algo,
                        quant,
                    }
                })
                .collect()
        }
        Arch::LeNet => {
            let conv = |stage, in_ch, out_ch, pad, size| ConvCase {
                stage,
                in_ch,
                out_ch,
                kernel: 5,
                pad,
                size,
                swappable: true,
                algo,
                quant,
            };
            vec![
                conv(0, 1, 6, 2, plan.input),
                conv(1, 6, 16, 0, plan.input / 2),
            ]
        }
    }
}

impl ConvCase {
    fn out_size(&self) -> usize {
        self.size + 2 * self.pad - self.kernel + 1
    }

    /// Whether the layer runs a Winograd algorithm.
    pub fn is_winograd(&self) -> bool {
        self.algo.tile_m().is_some()
    }

    /// The same layer computed by im2row.
    pub fn as_im2row(&self) -> ConvCase {
        ConvCase {
            algo: ConvAlgo::Im2row,
            ..*self
        }
    }

    /// `(useful, computed)` output pixels per image: `H·W` against
    /// `tiles·m²` from `TileGeometry`; equal for im2row.
    pub fn output_pixels(&self) -> (usize, usize) {
        let useful = self.out_size() * self.out_size();
        match self.algo.tile_m() {
            None => (useful, useful),
            Some(m) => {
                let g = TileGeometry::for_conv(self.size, self.size, m, self.kernel, self.pad);
                (useful, g.tiles() * m * m)
            }
        }
    }

    /// The layer as `wa_latency` models it.
    fn latency_choice(&self) -> LayerChoice {
        let out = self.out_size();
        LayerChoice {
            shape: LayerShape::square(self.in_ch, self.out_ch, out, self.kernel),
            algo: match self.algo {
                ConvAlgo::Im2row => LatAlgo::Im2row,
                ConvAlgo::Winograd { m } => LatAlgo::Winograd { m },
                ConvAlgo::WinogradFlex { m } => LatAlgo::WinogradDense { m },
            },
            dtype: if self.quant.is_quantized() {
                DType::Int8
            } else {
                DType::Fp32
            },
        }
    }

    /// The standalone layer, observers warmed, with an input of `batch`
    /// samples.
    pub fn build(&self, seed: u64, batch: usize) -> Result<ConvRung, String> {
        let spec = ConvSpec::builder()
            .name("conv")
            .in_channels(self.in_ch)
            .out_channels(self.out_ch)
            .kernel(self.kernel)
            .pad(self.pad)
            .algo(self.algo)
            .quant(self.quant)
            .build()
            .map_err(|e| e.to_string())?;
        let mut rng = SeededRng::new(seed);
        let mut layer = ConvLayer::from_spec(&spec, &mut rng).map_err(|e| e.to_string())?;
        let x = rng.uniform_tensor(&[batch, self.in_ch, self.size, self.size], -1.0, 1.0);
        if self.quant.is_quantized() {
            let mut tape = Tape::new();
            let v = tape.leaf(x.clone());
            let _ = layer.forward(&mut tape, v, true);
        }
        Ok(ConvRung { layer, x })
    }
}

/// `wa_latency`'s predicted speed-up of the swappable layers' configured
/// algorithms over im2row at the same shapes and dtype (Cortex-A73).
pub fn predicted_speedup(cases: &[ConvCase]) -> f64 {
    let of = |cs: Vec<LayerChoice>| network_latency_ms(Core::CortexA73, &cs);
    let swappable = || cases.iter().filter(|c| c.swappable);
    let configured = of(swappable().map(ConvCase::latency_choice).collect());
    let im2row = of(swappable()
        .map(|c| c.as_im2row().latency_choice())
        .collect());
    im2row / configured
}

/// The conv rung: one `ConvLayer` and its input.
pub struct ConvRung {
    layer: ConvLayer,
    x: Tensor,
}

impl ConvRung {
    /// `ConvLayer::infer_tensor`.
    pub fn run(&self) -> Result<usize, String> {
        self.layer
            .infer_tensor(&self.x)
            .map(|y| y.len())
            .map_err(|e| e.to_string())
    }
}

/// The kernel rung of one convolution: the public stage kernels its
/// pipeline is made of, on operands of the layer's sizes. The program's
/// fused and tape-driven paths are private, so these are stand-ins: what
/// they leave unexplained shows up as the conv rung's self time.
pub struct StageKernels {
    case: ConvCase,
    batch: usize,
    x: Tensor,
    /// Weights as `[K, C·k²]`.
    w2d: Tensor,
    /// im2row operands: patch rows and i8 copies.
    rows_i8: Vec<i8>,
    w_i8: Vec<i8>,
    /// Winograd operands: `U` as `[n², K, C]`, `V` as `[n², C, tiles]`,
    /// the products as `[tiles·K, n²]`, and i8 copies.
    winograd: Option<WinogradOperands>,
}

struct WinogradOperands {
    geom: TileGeometry,
    transform: WinogradTransform,
    u: Vec<f32>,
    v: Vec<f32>,
    products: Tensor,
    u_i8: Vec<i8>,
    v_i8: Vec<i8>,
    tap_bits: Vec<BitWidth>,
    tap_scales: Vec<f32>,
}

/// Symmetric INT8 scale covering `t`.
fn int8_scale(t: &Tensor) -> f32 {
    (t.max_abs() / 127.0).max(f32::MIN_POSITIVE)
}

impl StageKernels {
    pub fn prepare(case: &ConvCase, seed: u64, batch: usize) -> StageKernels {
        let mut rng = SeededRng::new(seed);
        let (c, k, r) = (case.in_ch, case.out_ch, case.kernel);
        let x = rng.uniform_tensor(&[batch, c, case.size, case.size], -1.0, 1.0);
        let w2d = rng.uniform_tensor(&[k, c * r * r], -0.1, 0.1);
        let rows = wa_tensor::im2row(&wa_tensor::pad_nchw(&x, case.pad), r, r, 1);
        let rows_i8 = wa_quant::quantize_i8(&rows, BitWidth::INT8, int8_scale(&rows));
        let w_i8 = wa_quant::quantize_i8(&w2d, BitWidth::INT8, int8_scale(&w2d));
        let winograd = case.algo.tile_m().map(|m| {
            let geom = TileGeometry::for_conv(case.size, case.size, m, r, case.pad);
            let transform = WinogradTransform::canonical(m, r);
            let n2 = geom.tile() * geom.tile();
            let tiles = batch * geom.tiles();
            let u = rng.uniform_tensor(&[n2 * k * c], -0.1, 0.1);
            let v = rng.uniform_tensor(&[n2 * c * tiles], -1.0, 1.0);
            let products = rng.uniform_tensor(&[tiles * k, n2], -1.0, 1.0);
            WinogradOperands {
                geom,
                transform,
                u_i8: wa_quant::quantize_i8(&u, BitWidth::INT8, int8_scale(&u)),
                v_i8: wa_quant::quantize_i8(&v, BitWidth::INT8, int8_scale(&v)),
                u: u.into_vec(),
                v: v.into_vec(),
                products,
                tap_bits: vec![BitWidth::INT8; n2],
                tap_scales: vec![4.0 / 127.0; n2],
            }
        });
        StageKernels {
            case: *case,
            batch,
            x,
            w2d,
            rows_i8,
            w_i8,
            winograd,
        }
    }

    /// Multiply-accumulates of the layer's GEMM stage, per run.
    pub fn gemm_macs(&self) -> f64 {
        let (c, k) = (self.case.in_ch as f64, self.case.out_ch as f64);
        match &self.winograd {
            None => {
                let out = self.case.out_size() as f64;
                self.batch as f64 * out * out * c * (self.case.kernel as f64).powi(2) * k
            }
            Some(w) => {
                let n2 = (w.geom.tile() * w.geom.tile()) as f64;
                n2 * k * c * (self.batch * w.geom.tiles()) as f64
            }
        }
    }

    /// Whether the layer runs a Winograd algorithm.
    pub fn is_winograd(&self) -> bool {
        self.winograd.is_some()
    }

    /// Whether the layer's GEMM runs on the integer kernels.
    pub fn is_int8(&self) -> bool {
        self.case.quant.execution == Execution::Int8
    }

    fn fake_quant(&self, marks: &mut Vec<Mark>, t: &Tensor) {
        if self.case.quant.is_quantized() && !self.is_int8() {
            mark(marks, "quant.fake_quant", || {
                wa_quant::fake_quant_scale(t, BitWidth::INT8, int8_scale(t))
            });
        }
    }

    fn requantize(&self, marks: &mut Vec<Mark>, acc: &[i32]) {
        let requant = Requantizer::new(1.0 / 512.0);
        mark(marks, "quant.requantize", || {
            acc.iter()
                .map(|&a| requant.apply_clamped(a, 127) as i64)
                .sum::<i64>()
        });
    }

    /// Runs every stage kernel of the layer once, in pipeline order.
    pub fn run(&self, marks: &mut Vec<Mark>) {
        let (c, k, r) = (self.case.in_ch, self.case.out_ch, self.case.kernel);
        self.fake_quant(marks, &self.x);
        match &self.winograd {
            None => {
                let rows = mark(marks, "tensor.im2row", || {
                    wa_tensor::im2row(&wa_tensor::pad_nchw(&self.x, self.case.pad), r, r, 1)
                });
                if self.is_int8() {
                    mark(marks, "quant.quantize", || {
                        wa_quant::quantize_i8(&self.x, BitWidth::INT8, 1.0 / 127.0)
                    });
                    let m = rows.dim(0);
                    let mut acc = vec![0i32; m * k];
                    mark(marks, "tensor.gemm_i8", || {
                        wa_tensor::gemm_i8(
                            &self.rows_i8,
                            Transpose::No,
                            &self.w_i8,
                            Transpose::Yes,
                            m,
                            c * r * r,
                            k,
                            &mut acc,
                        )
                    });
                    self.requantize(marks, &acc);
                } else {
                    let y = mark(marks, "tensor.gemm", || {
                        wa_tensor::gemm(&rows, Transpose::No, &self.w2d, Transpose::Yes)
                    });
                    self.fake_quant(marks, &y);
                }
            }
            Some(w) => {
                let n2 = w.geom.tile() * w.geom.tile();
                let tiles = self.batch * w.geom.tiles();
                let v_rows = mark(marks, "winograd.input_transform", || {
                    let padded = w.geom.pad_input(&self.x);
                    w.transform
                        .transform_input_tiles(&w.geom.gather_tiles(&padded))
                });
                self.fake_quant(marks, &v_rows);
                self.fake_quant(marks, &v_rows);
                if self.is_int8() {
                    mark(marks, "quant.quantize", || {
                        wa_quant::quantize_i8_taps(&v_rows, &w.tap_bits, &w.tap_scales)
                    });
                    let mut acc = vec![0i32; n2 * k * tiles];
                    mark(marks, "tensor.gemm_i8", || {
                        wa_tensor::gemm_i8_batched(&w.u_i8, &w.v_i8, &mut acc, n2, k, c, tiles)
                    });
                    self.requantize(marks, &acc);
                } else {
                    let mut out = vec![0f32; n2 * k * tiles];
                    mark(marks, "tensor.gemm", || {
                        wa_tensor::gemm_batched(&w.u, &w.v, &mut out, n2, k, c, tiles)
                    });
                }
                self.fake_quant(marks, &w.products);
                let y = mark(marks, "winograd.output_transform", || {
                    let rows = w.transform.transform_output_tiles(&w.products);
                    w.geom.assemble_output(&rows, self.batch, k)
                });
                self.fake_quant(marks, &y);
            }
        }
    }

    /// The filter transform `G·g·Gᵀ` of the layer: paid once per model
    /// load, not per inference. `None` for im2row layers.
    pub fn filter_transform(&self) -> Option<usize> {
        let w = self.winograd.as_ref()?;
        let r2 = self.case.kernel * self.case.kernel;
        let filters = self.w2d.reshape(&[self.case.out_ch * self.case.in_ch, r2]);
        Some(w.transform.transform_filter_tiles(&filters).len())
    }
}

/// A 512³ f32 GEMM on one thread: one core's roofline, measured in the
/// same run. (Across threads it is not repeatable: both GEMM workers
/// sometimes share a core for a whole run and the rate halves.)
pub struct PeakGemm {
    a: Tensor,
    b: Tensor,
}

impl PeakGemm {
    pub const SIDE: usize = 512;

    pub fn prepare(seed: u64) -> PeakGemm {
        let mut rng = SeededRng::new(seed);
        let side = [PeakGemm::SIDE, PeakGemm::SIDE];
        PeakGemm {
            a: rng.uniform_tensor(&side, -1.0, 1.0),
            b: rng.uniform_tensor(&side, -1.0, 1.0),
        }
    }

    pub fn run(&self) -> usize {
        wa_tensor::with_gemm_thread_cap(1, || {
            wa_tensor::gemm(&self.a, Transpose::No, &self.b, Transpose::No).len()
        })
    }
}

impl Trainer {
    /// One optimisation step taken apart through the public pieces
    /// `train_step` is made of — forward with loss, backward, optimizer —
    /// each marked. Returns the loss.
    pub fn step_in_parts(&mut self, i: usize, marks: &mut Vec<Mark>) -> f64 {
        let (images, labels) = &self.batches[i % self.batches.len()];
        let mut tape = Tape::new();
        let loss = mark(marks, "core.train_forward", || {
            let x = tape.leaf(images.clone());
            let logits = self.model.net.forward(&mut tape, x, true);
            tape.cross_entropy(logits, labels)
        });
        let loss_value = f64::from(tape.value(loss).data()[0]);
        let grads = mark(marks, "core.train_backward", || tape.backward(loss));
        mark(marks, "nn.optimizer", || {
            let opt = &mut self.opt;
            self.model.net.visit_params(&mut |p| {
                p.absorb(&grads);
                opt.update(p);
            });
        });
        loss_value
    }

    /// The model being trained.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Training batch `i mod batches`, without its labels.
    pub fn images(&self, i: usize) -> Batch {
        Batch(self.batches[i % self.batches.len()].0.clone())
    }
}
