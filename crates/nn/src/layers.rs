//! Parameterized layers built on the tape.

use wa_quant::{BitWidth, Execution, Observer, TapPolicy, TapQuant};
use wa_tensor::{SeededRng, Tensor};

use crate::error::WaError;
use crate::executor::Infer;
use crate::param::Param;
use crate::spec::{BatchNormSpec, Conv2dSpec, LinearSpec};
use crate::tape::{Tape, Var};

/// Per-layer quantization configuration (symmetric uniform, as in
/// Krishnamoorthi 2018 / paper §5.1). `FP32` disables quantization.
///
/// Beyond the two bit-widths, [`QuantConfig::transform`] selects how the
/// layer's *Winograd-domain* sites (`BᵀdB`, `G·g·Gᵀ`) are scaled:
/// [`TapPolicy::PerLayer`] keeps one scale per site (the paper's scheme),
/// [`TapPolicy::PerTap`] calibrates one scale per tap position of the
/// transformed tile (Tap-Wise Quantization). Layers without a Winograd
/// domain ignore the policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct QuantConfig {
    /// Precision of activations (and, in Winograd-aware layers, of every
    /// intermediate — paper Figure 2 default).
    pub activations: BitWidth,
    /// Precision of weights.
    pub weights: BitWidth,
    /// Transform-domain scaling policy for Winograd-aware layers.
    pub transform: TapPolicy,
    /// How the quantized layer *executes* at inference time: f32
    /// fake-quant simulation (the default, and always the training
    /// semantics) or the true integer path (i8 storage, i8×i8→i32
    /// GEMM, fixed-point requantization). Only convolution layers have
    /// an integer kernel; other layers ignore the mode.
    pub execution: Execution,
}

impl QuantConfig {
    /// Full precision (no quantization).
    pub const FP32: QuantConfig = QuantConfig {
        activations: BitWidth::Fp32,
        weights: BitWidth::Fp32,
        transform: TapPolicy::PerLayer,
        execution: Execution::FakeQuant,
    };

    /// Uniform precision for weights and activations, as the paper's
    /// INT8/INT10/INT16 experiments use (per-layer transform scales).
    pub fn uniform(bits: BitWidth) -> QuantConfig {
        QuantConfig {
            activations: bits,
            weights: bits,
            transform: TapPolicy::PerLayer,
            execution: Execution::FakeQuant,
        }
    }

    /// Uniform precision with **tap-wise** transform-domain scales: every
    /// Winograd-domain tap position gets its own calibrated scale.
    pub fn per_tap(bits: BitWidth) -> QuantConfig {
        QuantConfig::uniform(bits).with_transform(TapPolicy::PerTap)
    }

    /// Returns a copy with a different transform-domain policy.
    pub fn with_transform(mut self, transform: TapPolicy) -> QuantConfig {
        self.transform = transform;
        self
    }

    /// Returns a copy with a different inference execution mode.
    pub fn with_execution(mut self, execution: Execution) -> QuantConfig {
        self.execution = execution;
        self
    }

    /// Whether any quantization is active.
    pub fn is_quantized(&self) -> bool {
        !self.activations.is_float() || !self.weights.is_float()
    }

    /// Why this config cannot run on the true integer path, if it
    /// cannot: [`Execution::Int8`] needs *both* activations and weights
    /// at integer widths of at most 8 bits (values must fit `i8`
    /// storage and `pmaddwd`'s i16 operands). Returns `None` when the
    /// config is not int8 or is int8-compatible.
    pub fn int8_incompatibility(&self) -> Option<String> {
        if self.execution != Execution::Int8 {
            return None;
        }
        for (what, bits) in [("activations", self.activations), ("weights", self.weights)] {
            match bits {
                BitWidth::Fp32 => {
                    return Some(format!("int8 execution requires integer {what}, got FP32"))
                }
                b if b.qmax() > i8::MAX as i32 => {
                    return Some(format!(
                        "int8 execution requires {what} of at most 8 bits, got {b}"
                    ))
                }
                _ => {}
            }
        }
        None
    }
}

impl Default for QuantConfig {
    fn default() -> Self {
        QuantConfig::FP32
    }
}

/// Fake-quantizes `x` through `obs` at `bits`, updating the observer only
/// in training mode. FP32 passes through untouched.
///
/// This helper is the shared implementation of every `Qx` site in both the
/// direct and Winograd-aware layers.
pub fn observe_quant(
    tape: &mut Tape,
    x: Var,
    bits: BitWidth,
    obs: &mut Observer,
    train: bool,
) -> Var {
    if bits.is_float() {
        return x;
    }
    if train {
        obs.observe(tape.value(x));
    } else if obs.observations() == 0 {
        // Never warmed: fall back to observing once so eval is sane.
        obs.observe(tape.value(x));
    }
    let scale = obs.scale(bits);
    tape.fake_quant(x, bits, scale)
}

/// Read-only counterpart of [`observe_quant`] for the [`Infer`] path:
/// fake-quantizes `x` at the scale a *warm* observer has settled on
/// without ever mutating the observer.
///
/// A cold observer (zero observations) derives a one-off scale from the
/// tensor at hand — the same value the mutable path's one-shot fallback
/// would compute — so inference through an un-warmed model is still
/// well-defined. Note that "the tensor at hand" is the whole chunk in
/// batched execution, so a cold quantized model's outputs can vary with
/// the batch partition; warm the model (one training forward) for scales
/// that are stable and partition-independent.
pub fn infer_quant(tape: &mut Tape, x: Var, bits: BitWidth, obs: &Observer) -> Var {
    if bits.is_float() {
        return x;
    }
    let scale = if obs.observations() > 0 {
        obs.scale(bits)
    } else {
        // clone keeps the frozen flag, matching observe_quant's fallback
        // (a frozen cold observer stays at the tiny safe scale)
        let mut tmp = obs.clone();
        tmp.observe(tape.value(x));
        tmp.scale(bits)
    };
    tape.fake_quant(x, bits, scale)
}

/// Tap-wise counterpart of [`observe_quant`]: fake-quantizes a
/// Winograd-domain tensor (taps along the last axis) through per-tap
/// scales, updating the per-tap ranges only in training mode. A site
/// whose effective bit-widths are all FP32 passes through untouched.
pub fn observe_quant_taps(
    tape: &mut Tape,
    x: Var,
    bits: BitWidth,
    taps: &mut TapQuant,
    train: bool,
) -> Var {
    if bits.is_float() && taps.bit_overrides().is_none() {
        return x;
    }
    if train {
        taps.observe(tape.value(x));
    } else if taps.observations() == 0 {
        // Never warmed: fall back to observing once so eval is sane.
        taps.observe(tape.value(x));
    }
    let eff = taps.effective_bits(bits);
    let scales = taps.scales_for(&eff);
    tape.fake_quant_taps(x, &eff, &scales)
}

/// Read-only counterpart of [`observe_quant_taps`] for the [`Infer`]
/// path, mirroring [`infer_quant`]: a warm site quantizes at its
/// calibrated per-tap scales without mutating them; a cold site derives
/// one-off per-tap scales from the tensor at hand (the same values the
/// mutable path's one-shot fallback would compute).
pub fn infer_quant_taps(tape: &mut Tape, x: Var, bits: BitWidth, taps: &TapQuant) -> Var {
    if bits.is_float() && taps.bit_overrides().is_none() {
        return x;
    }
    let eff = taps.effective_bits(bits);
    let scales = if taps.observations() > 0 {
        taps.scales_for(&eff)
    } else {
        // clone keeps the frozen flag, matching observe_quant_taps's
        // fallback (a frozen cold site stays at the tiny safe scales)
        let mut tmp = taps.clone();
        tmp.observe(tape.value(x));
        tmp.scales_for(&eff)
    };
    tape.fake_quant_taps(x, &eff, &scales)
}

/// Mutable view of one quantization-calibration site, yielded by
/// [`Layer::visit_quant_state`].
///
/// This is the state [`Layer::reset_statistics`] clears and the `quant`
/// section of a [`FullCheckpoint`](crate::FullCheckpoint) persists: the
/// range observers behind every `Qx` point, the per-tap calibration of
/// tap-wise sites, and batch-norm running moments (which are calibration
/// statistics too — they must travel with a served model for its eval
/// path to reproduce).
pub enum QuantStateMut<'a> {
    /// A per-tensor range observer (one scale per site).
    Observer(&'a mut Observer),
    /// A tap-wise site (one scale per Winograd-domain tap).
    Taps(&'a mut TapQuant),
    /// Batch-norm running statistics.
    BatchNorm {
        /// Per-channel running mean.
        mean: &'a mut [f32],
        /// Per-channel running variance.
        var: &'a mut [f32],
    },
}

/// Anything with trainable parameters and a tape-level forward.
pub trait Layer {
    /// Runs the layer, appending ops to `tape`. `train` selects batch-stat
    /// behaviour (batch norm) and observer updates (quantizers).
    fn forward(&mut self, tape: &mut Tape, x: Var, train: bool) -> Var;

    /// Shape-checked forward: validates the input against the layer's
    /// expectations and returns [`WaError::ShapeMismatch`] instead of
    /// panicking — the path a serving system uses on untrusted requests.
    ///
    /// The default implementation performs no checks; leaf layers with
    /// shape requirements override it. Composite layers inherit the
    /// default and rely on their first leaf to reject bad input.
    ///
    /// # Errors
    ///
    /// [`WaError::ShapeMismatch`] when the input cannot be consumed by
    /// this layer.
    fn try_forward(&mut self, tape: &mut Tape, x: Var, train: bool) -> Result<Var, WaError> {
        Ok(self.forward(tape, x, train))
    }

    /// Visits every parameter (for optimizers, serialization, counting).
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Clears learned *statistics* (batch-norm running estimates,
    /// quantization range observers) without touching weights. Called
    /// before a post-training swap so the warm-up re-estimates every
    /// moving average from scratch (paper Table 1 procedure). Layers
    /// without statistics keep the default no-op; composite layers must
    /// forward the call to children.
    fn reset_statistics(&mut self) {}

    /// Visits every named calibration site ([`QuantStateMut`]) of the
    /// layer — the serializable counterpart of [`Layer::reset_statistics`],
    /// used to persist calibrated quantization ranges (and batch-norm
    /// running moments) in the `quant` section of a
    /// [`FullCheckpoint`](crate::FullCheckpoint). Names follow the
    /// parameter convention: `<layer>.q.<site>` for observers,
    /// `<layer>.bn` for batch-norm moments. Layers without statistics
    /// keep the default no-op; composite layers must forward the call to
    /// children.
    fn visit_quant_state(&mut self, _f: &mut dyn FnMut(&str, QuantStateMut<'_>)) {}

    /// Total trainable scalar count.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| {
            if p.trainable {
                n += p.len()
            }
        });
        n
    }
}

/// Standard 2-D convolution lowered via `im2row` + GEMM — the paper's
/// baseline algorithm ("im2row, one of the most widely used optimized
/// convolution implementations").
///
/// Supports optional fake-quantization of input activations, weights and
/// outputs (the INT8 `im2row` rows of Table 3).
#[derive(Debug)]
pub struct Conv2d {
    /// Weight `[K, C, kh, kw]`.
    pub weight: Param,
    /// Optional bias `[K]`.
    pub bias: Option<Param>,
    /// Stride (both dims).
    pub stride: usize,
    /// Zero padding (all sides).
    pub pad: usize,
    /// Quantization of activations/weights.
    pub quant: QuantConfig,
    obs_in: Observer,
    obs_w: Observer,
    obs_out: Observer,
    /// Memoized prepacked `i8` weight for the [`Execution::Int8`] path,
    /// tagged with the [`QuantConfig`] it was quantized under. Weights
    /// are constant across a batch, so the [`Infer`] path quantizes once
    /// and shares the buffer (an `Arc` bump per chunk) across every
    /// [`crate::BatchExecutor`] worker. Invalidated by every `&mut self`
    /// path that can change the derivation, like the Winograd layer's
    /// filter cache.
    qweight_cache: std::sync::Mutex<Option<(QuantConfig, std::sync::Arc<wa_quant::QTensor>)>>,
}

impl Conv2d {
    /// Creates a conv layer from a validated spec, with Kaiming-normal
    /// weights.
    ///
    /// # Errors
    ///
    /// [`WaError::InvalidSpec`] if the spec was mutated into an invalid
    /// state after building.
    pub fn from_spec(spec: &Conv2dSpec, rng: &mut SeededRng) -> Result<Conv2d, WaError> {
        spec.validate()?;
        let name = &spec.name;
        let weight = Param::new(
            format!("{name}.weight"),
            rng.kaiming_tensor(&[
                spec.out_channels,
                spec.in_channels,
                spec.kernel,
                spec.kernel,
            ]),
        );
        let bias = spec
            .bias
            .then(|| Param::new(format!("{name}.bias"), Tensor::zeros(&[spec.out_channels])));
        Ok(Conv2d {
            weight,
            bias,
            stride: spec.stride,
            pad: spec.pad,
            quant: spec.quant,
            obs_in: Observer::default(),
            obs_w: Observer::default(),
            obs_out: Observer::default(),
            qweight_cache: std::sync::Mutex::new(None),
        })
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.weight.value.dim(0)
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.weight.value.dim(1)
    }

    /// Kernel size.
    pub fn kernel(&self) -> usize {
        self.weight.value.dim(2)
    }

    /// Freezes/unfreezes the layer's range observers (eval vs train).
    pub fn set_observers_frozen(&mut self, frozen: bool) {
        for o in [&mut self.obs_in, &mut self.obs_w, &mut self.obs_out] {
            if frozen {
                o.freeze()
            } else {
                o.unfreeze()
            }
        }
        self.invalidate_qweight_cache();
    }

    /// Drops the memoized prepacked `i8` weight. Called internally by
    /// every `&mut self` path of the [`Layer`] API; only needed
    /// explicitly after mutating the public `weight` field or observers
    /// outside that API.
    pub fn invalidate_qweight_cache(&mut self) {
        *self
            .qweight_cache
            .get_mut()
            .expect("qweight cache lock poisoned") = None;
    }

    /// The prepacked `i8` weight for the current weights/quant config,
    /// quantized once and memoized (shared handle per caller).
    fn cached_qweight(&self) -> std::sync::Arc<wa_quant::QTensor> {
        let mut guard = self
            .qweight_cache
            .lock()
            .expect("qweight cache lock poisoned");
        if let Some((q, t)) = &*guard {
            if *q == self.quant {
                return t.clone();
            }
        }
        let qt = std::sync::Arc::new(wa_quant::QTensor::quantize(
            &self.weight.value,
            self.quant.weights,
            self.obs_w.scale(self.quant.weights),
        ));
        *guard = Some((self.quant, qt.clone()));
        qt
    }

    /// The integer forward: quantize → `gemm_i8` → requantize, inserted
    /// into the tape as a constant leaf (the [`Infer`] path records no
    /// gradients, so eager evaluation is equivalent).
    ///
    /// # Errors
    ///
    /// [`WaError::InvalidSpec`] (`quant.execution`) if the bit-widths do
    /// not fit `i8`, or if any quantization site has never observed data:
    /// integer execution runs on calibrated scales only.
    fn infer_int8(&self, tape: &mut Tape, x: Var) -> Result<Var, WaError> {
        let invalid = |reason: String| {
            WaError::invalid(
                "Conv2d",
                "quant.execution",
                format!("`{}`: {reason}", self.weight.name),
            )
        };
        if let Some(reason) = self.quant.int8_incompatibility() {
            return Err(invalid(reason));
        }
        let sites = [
            ("input", &self.obs_in),
            ("weight", &self.obs_w),
            ("output", &self.obs_out),
        ];
        if let Some((site, _)) = sites.iter().find(|(_, o)| o.observations() == 0) {
            return Err(invalid(format!(
                "int8 execution requires calibrated quantization state, but \
                 `{}.q.{site}` has no observations",
                self.weight.name.trim_end_matches(".weight")
            )));
        }
        let abits = self.quant.activations;
        let qw = self.cached_qweight();
        let y = crate::int8::conv2d_int8(
            tape.value(x),
            &qw,
            self.bias.as_ref().map(|b| &b.value),
            self.stride,
            self.pad,
            self.obs_in.scale(abits),
            self.obs_out.scale(abits),
            abits,
        );
        Ok(tape.leaf(y))
    }
}

/// The three quantization points of the direct (im2row) convolution.
#[derive(Clone, Copy)]
enum ConvSite {
    /// Input activations.
    In,
    /// Weights.
    Weight,
    /// Output activations.
    Out,
}

/// Static geometry of one direct convolution, copied out of the layer so
/// the shared pipeline below borrows neither the layer nor its observers.
#[derive(Clone, Copy)]
struct ConvGeom {
    out_ch: usize,
    in_ch: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
}

/// The im2row + GEMM pipeline shared by [`Layer::forward`] (mutable
/// observers, training) and [`Infer::infer`] (read-only observers): the
/// `quant` callback realizes each `Qx` site for its caller.
fn conv2d_pipeline(
    tape: &mut Tape,
    x: Var,
    wv: Var,
    bias: Option<Var>,
    geom: ConvGeom,
    quant: &mut dyn FnMut(&mut Tape, Var, ConvSite) -> Var,
) -> Var {
    let (n, h, w) = {
        let v = tape.value(x);
        assert_eq!(
            v.ndim(),
            4,
            "Conv2d expects NCHW input, got {:?}",
            v.shape()
        );
        (v.dim(0), v.dim(2), v.dim(3))
    };
    let k = geom.out_ch;
    let (kh, kw) = (geom.kernel, geom.kernel);
    let oh = (h + 2 * geom.pad - kh) / geom.stride + 1;
    let ow = (w + 2 * geom.pad - kw) / geom.stride + 1;

    let (xq, wq) = {
        let _span = wa_obs::stage_span!("fake_quant");
        (
            quant(tape, x, ConvSite::In),
            quant(tape, wv, ConvSite::Weight),
        )
    };

    let rows = {
        let _span = wa_obs::stage_span!("im2row");
        let xp = tape.pad(xq, geom.pad);
        tape.im2row(xp, kh, kw, geom.stride)
    };
    let out = {
        let _span = wa_obs::stage_span!("im2row.gemm");
        let wmat = tape.reshape(wq, &[k, geom.in_ch * kh * kw]);
        let mut out = tape.matmul_nt(rows, wmat); // [N·oh·ow, K]
        if let Some(bv) = bias {
            out = tape.add_bias_rows(out, bv);
        }
        out
    };
    // [N, oh·ow, K] -> [N, K, oh·ow] -> NCHW
    let p = tape.permute3(out, [n, oh * ow, k], [0, 2, 1]);
    let y = tape.reshape(p, &[n, k, oh, ow]);
    let _span = wa_obs::stage_span!("fake_quant");
    quant(tape, y, ConvSite::Out)
}

impl Conv2d {
    fn geom(&self) -> ConvGeom {
        ConvGeom {
            out_ch: self.out_channels(),
            in_ch: self.in_channels(),
            kernel: self.kernel(),
            stride: self.stride,
            pad: self.pad,
        }
    }

    fn check_input(&self, shape: &[usize]) -> Result<(), WaError> {
        let k = self.kernel();
        if shape.len() != 4 || shape[1] != self.in_channels() {
            return Err(WaError::shape(
                format!("Conv2d `{}` input", self.weight.name),
                &[0, self.in_channels(), 0, 0],
                shape,
            ));
        }
        if shape[2] + 2 * self.pad < k || shape[3] + 2 * self.pad < k {
            return Err(WaError::shape(
                format!("Conv2d `{}` spatial extent vs kernel", self.weight.name),
                &[k, k],
                &shape[2..],
            ));
        }
        Ok(())
    }
}

impl Layer for Conv2d {
    fn try_forward(&mut self, tape: &mut Tape, x: Var, train: bool) -> Result<Var, WaError> {
        self.check_input(tape.value(x).shape())?;
        Ok(self.forward(tape, x, train))
    }

    fn forward(&mut self, tape: &mut Tape, x: Var, train: bool) -> Var {
        self.invalidate_qweight_cache();
        let geom = self.geom();
        let wv = tape.param(&mut self.weight);
        let bias = self.bias.as_mut().map(|b| tape.param(b));
        let q = self.quant;
        let (oi, ow, oo) = (&mut self.obs_in, &mut self.obs_w, &mut self.obs_out);
        conv2d_pipeline(tape, x, wv, bias, geom, &mut |t, v, site| match site {
            ConvSite::In => observe_quant(t, v, q.activations, oi, train),
            ConvSite::Weight => observe_quant(t, v, q.weights, ow, train),
            ConvSite::Out => observe_quant(t, v, q.activations, oo, train),
        })
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.invalidate_qweight_cache();
        f(&mut self.weight);
        if let Some(b) = &mut self.bias {
            f(b);
        }
    }

    fn reset_statistics(&mut self) {
        self.invalidate_qweight_cache();
        self.obs_in.reset();
        self.obs_w.reset();
        self.obs_out.reset();
    }

    fn visit_quant_state(&mut self, f: &mut dyn FnMut(&str, QuantStateMut<'_>)) {
        self.invalidate_qweight_cache();
        let prefix = self.weight.name.trim_end_matches(".weight").to_string();
        f(
            &format!("{prefix}.q.input"),
            QuantStateMut::Observer(&mut self.obs_in),
        );
        f(
            &format!("{prefix}.q.weight"),
            QuantStateMut::Observer(&mut self.obs_w),
        );
        f(
            &format!("{prefix}.q.output"),
            QuantStateMut::Observer(&mut self.obs_out),
        );
    }
}

impl Infer for Conv2d {
    fn infer(&self, tape: &mut Tape, x: Var) -> Result<Var, WaError> {
        self.check_input(tape.value(x).shape())?;
        if self.quant.execution == Execution::Int8 {
            return self.infer_int8(tape, x);
        }
        let geom = self.geom();
        let wv = tape.param_ref(&self.weight);
        let bias = self.bias.as_ref().map(|b| tape.param_ref(b));
        let q = self.quant;
        Ok(conv2d_pipeline(
            tape,
            x,
            wv,
            bias,
            geom,
            &mut |t, v, site| match site {
                ConvSite::In => infer_quant(t, v, q.activations, &self.obs_in),
                ConvSite::Weight => infer_quant(t, v, q.weights, &self.obs_w),
                ConvSite::Out => infer_quant(t, v, q.activations, &self.obs_out),
            },
        ))
    }
}

/// Fully connected layer `y = x·Wᵀ + b` with optional quantization.
#[derive(Debug)]
pub struct Linear {
    /// Weight `[out, in]`.
    pub weight: Param,
    /// Bias `[out]`.
    pub bias: Param,
    /// Quantization of activations/weights.
    pub quant: QuantConfig,
    obs_in: Observer,
    obs_w: Observer,
}

impl Linear {
    /// Creates a linear layer from a validated spec, with Kaiming-normal
    /// weights and zero bias.
    ///
    /// # Errors
    ///
    /// [`WaError::InvalidSpec`] if the spec was mutated into an invalid
    /// state after building.
    pub fn from_spec(spec: &LinearSpec, rng: &mut SeededRng) -> Result<Linear, WaError> {
        spec.validate()?;
        let name = &spec.name;
        Ok(Linear {
            weight: Param::new(
                format!("{name}.weight"),
                rng.kaiming_tensor(&[spec.out_features, spec.in_features]),
            ),
            bias: Param::new(format!("{name}.bias"), Tensor::zeros(&[spec.out_features])),
            quant: spec.quant,
            obs_in: Observer::default(),
            obs_w: Observer::default(),
        })
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.value.dim(1)
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.value.dim(0)
    }
}

impl Layer for Linear {
    fn try_forward(&mut self, tape: &mut Tape, x: Var, train: bool) -> Result<Var, WaError> {
        let shape = tape.value(x).shape().to_vec();
        if shape.len() != 2 || shape[1] != self.in_features() {
            return Err(WaError::shape(
                format!("Linear `{}` input", self.weight.name),
                &[0, self.in_features()],
                &shape,
            ));
        }
        Ok(self.forward(tape, x, train))
    }

    fn forward(&mut self, tape: &mut Tape, x: Var, train: bool) -> Var {
        let xq = observe_quant(tape, x, self.quant.activations, &mut self.obs_in, train);
        let wv = tape.param(&mut self.weight);
        let wq = observe_quant(tape, wv, self.quant.weights, &mut self.obs_w, train);
        let bv = tape.param(&mut self.bias);
        let y = tape.matmul_nt(xq, wq);
        tape.add_bias_rows(y, bv)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn reset_statistics(&mut self) {
        self.obs_in.reset();
        self.obs_w.reset();
    }

    fn visit_quant_state(&mut self, f: &mut dyn FnMut(&str, QuantStateMut<'_>)) {
        let prefix = self.weight.name.trim_end_matches(".weight").to_string();
        f(
            &format!("{prefix}.q.input"),
            QuantStateMut::Observer(&mut self.obs_in),
        );
        f(
            &format!("{prefix}.q.weight"),
            QuantStateMut::Observer(&mut self.obs_w),
        );
    }
}

impl Infer for Linear {
    fn infer(&self, tape: &mut Tape, x: Var) -> Result<Var, WaError> {
        let shape = tape.value(x).shape().to_vec();
        if shape.len() != 2 || shape[1] != self.in_features() {
            return Err(WaError::shape(
                format!("Linear `{}` input", self.weight.name),
                &[0, self.in_features()],
                &shape,
            ));
        }
        let xq = infer_quant(tape, x, self.quant.activations, &self.obs_in);
        let wv = tape.param_ref(&self.weight);
        let wq = infer_quant(tape, wv, self.quant.weights, &self.obs_w);
        let bv = tape.param_ref(&self.bias);
        let y = tape.matmul_nt(xq, wq);
        Ok(tape.add_bias_rows(y, bv))
    }
}

/// Batch normalization over NCHW with learnable affine and running
/// statistics.
#[derive(Debug)]
pub struct BatchNorm2d {
    /// Scale `[C]`.
    pub gamma: Param,
    /// Shift `[C]`.
    pub beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer from a validated spec.
    ///
    /// # Errors
    ///
    /// [`WaError::InvalidSpec`] if the spec was mutated into an invalid
    /// state after building.
    pub fn from_spec(spec: &BatchNormSpec) -> Result<BatchNorm2d, WaError> {
        spec.validate()?;
        let name = &spec.name;
        Ok(BatchNorm2d {
            gamma: Param::new(format!("{name}.gamma"), Tensor::ones(&[spec.channels])),
            beta: Param::new(format!("{name}.beta"), Tensor::zeros(&[spec.channels])),
            running_mean: vec![0.0; spec.channels],
            running_var: vec![1.0; spec.channels],
            momentum: spec.momentum,
            eps: spec.eps,
        })
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.running_mean.len()
    }

    /// Current running mean (for tests/serialization).
    pub fn running_mean(&self) -> &[f32] {
        &self.running_mean
    }

    /// Current running variance.
    pub fn running_var(&self) -> &[f32] {
        &self.running_var
    }
}

impl Layer for BatchNorm2d {
    fn try_forward(&mut self, tape: &mut Tape, x: Var, train: bool) -> Result<Var, WaError> {
        let shape = tape.value(x).shape().to_vec();
        if shape.len() != 4 || shape[1] != self.channels() {
            return Err(WaError::shape(
                format!("BatchNorm2d `{}` input", self.gamma.name),
                &[0, self.channels(), 0, 0],
                &shape,
            ));
        }
        Ok(self.forward(tape, x, train))
    }

    fn forward(&mut self, tape: &mut Tape, x: Var, train: bool) -> Var {
        let g = tape.param(&mut self.gamma);
        let b = tape.param(&mut self.beta);
        let (y, mean, var) = tape.batch_norm(
            x,
            g,
            b,
            crate::BnRunning {
                mean: &self.running_mean,
                var: &self.running_var,
                eps: self.eps,
            },
            train,
        );
        if train {
            for c in 0..self.running_mean.len() {
                self.running_mean[c] =
                    self.momentum * self.running_mean[c] + (1.0 - self.momentum) * mean[c];
                self.running_var[c] =
                    self.momentum * self.running_var[c] + (1.0 - self.momentum) * var[c];
            }
        }
        y
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn reset_statistics(&mut self) {
        self.running_mean.fill(0.0);
        self.running_var.fill(1.0);
    }

    fn visit_quant_state(&mut self, f: &mut dyn FnMut(&str, QuantStateMut<'_>)) {
        let prefix = self.gamma.name.trim_end_matches(".gamma").to_string();
        f(
            &format!("{prefix}.bn"),
            QuantStateMut::BatchNorm {
                mean: &mut self.running_mean,
                var: &mut self.running_var,
            },
        );
    }
}

impl Infer for BatchNorm2d {
    fn infer(&self, tape: &mut Tape, x: Var) -> Result<Var, WaError> {
        let shape = tape.value(x).shape().to_vec();
        if shape.len() != 4 || shape[1] != self.channels() {
            return Err(WaError::shape(
                format!("BatchNorm2d `{}` input", self.gamma.name),
                &[0, self.channels(), 0, 0],
                &shape,
            ));
        }
        let g = tape.param_ref(&self.gamma);
        let b = tape.param_ref(&self.beta);
        let (y, _, _) = tape.batch_norm(
            x,
            g,
            b,
            crate::BnRunning {
                mean: &self.running_mean,
                var: &self.running_var,
                eps: self.eps,
            },
            false,
        );
        Ok(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv(name: &str, in_ch: usize, out_ch: usize, bias: bool, q: QuantConfig) -> Conv2dSpec {
        Conv2dSpec::builder(name)
            .in_channels(in_ch)
            .out_channels(out_ch)
            .bias(bias)
            .quant(q)
            .build()
            .unwrap()
    }

    #[test]
    fn conv2d_shapes_and_param_count() {
        let mut rng = SeededRng::new(0);
        let mut c = Conv2d::from_spec(&conv("c", 3, 8, true, QuantConfig::FP32), &mut rng).unwrap();
        assert_eq!(c.param_count(), 8 * 3 * 9 + 8);
        let mut tape = Tape::new();
        let x = tape.leaf(rng.uniform_tensor(&[2, 3, 8, 8], -1.0, 1.0));
        let y = c.try_forward(&mut tape, x, true).unwrap();
        assert_eq!(tape.value(y).shape(), &[2, 8, 8, 8]);
    }

    #[test]
    fn conv2d_stride_two_shape() {
        let mut rng = SeededRng::new(1);
        let spec = Conv2dSpec::builder("c")
            .in_channels(2)
            .out_channels(4)
            .stride(2)
            .build()
            .unwrap();
        let mut conv = Conv2d::from_spec(&spec, &mut rng).unwrap();
        let mut tape = Tape::new();
        let x = tape.leaf(rng.uniform_tensor(&[1, 2, 8, 8], -1.0, 1.0));
        let y = conv.forward(&mut tape, x, true);
        assert_eq!(tape.value(y).shape(), &[1, 4, 4, 4]);
    }

    #[test]
    fn try_forward_rejects_wrong_channels_and_tiny_input() {
        let mut rng = SeededRng::new(9);
        let mut c =
            Conv2d::from_spec(&conv("c", 3, 8, false, QuantConfig::FP32), &mut rng).unwrap();
        let mut tape = Tape::new();
        let x = tape.leaf(rng.uniform_tensor(&[1, 4, 8, 8], -1.0, 1.0));
        assert!(matches!(
            c.try_forward(&mut tape, x, false),
            Err(WaError::ShapeMismatch { .. })
        ));
        // one-pixel input with pad 1 still fits a 3×3 kernel; zero-size
        // spatial input cannot occur in a [N, C, H, W] tensor, so probe a
        // pad-0 layer instead
        let spec = Conv2dSpec::builder("p0")
            .in_channels(1)
            .out_channels(1)
            .pad(0)
            .build()
            .unwrap();
        let mut p0 = Conv2d::from_spec(&spec, &mut rng).unwrap();
        let tiny = tape.leaf(rng.uniform_tensor(&[1, 1, 2, 2], -1.0, 1.0));
        assert!(matches!(
            p0.try_forward(&mut tape, tiny, false),
            Err(WaError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn conv2d_matches_direct_reference() {
        let mut rng = SeededRng::new(2);
        let mut conv =
            Conv2d::from_spec(&conv("c", 3, 5, true, QuantConfig::FP32), &mut rng).unwrap();
        let x = rng.uniform_tensor(&[2, 3, 6, 7], -1.0, 1.0);
        let mut tape = Tape::new();
        let xv = tape.leaf(x.clone());
        let y = conv.forward(&mut tape, xv, false);
        let want = wa_tensor::conv2d_direct(
            &x,
            &conv.weight.value,
            conv.bias.as_ref().map(|b| &b.value),
            1,
            1,
        );
        let got = tape.value(y);
        assert_eq!(got.shape(), want.shape());
        for (a, b) in got.data().iter().zip(want.data()) {
            assert!((a - b).abs() < 1e-4, "{} vs {}", a, b);
        }
    }

    #[test]
    fn quantized_conv_differs_but_is_close() {
        let mut rng = SeededRng::new(3);
        let mut conv_fp =
            Conv2d::from_spec(&conv("c", 2, 4, false, QuantConfig::FP32), &mut rng).unwrap();
        let mut conv_q = Conv2d::from_spec(
            &conv("q", 2, 4, false, QuantConfig::uniform(BitWidth::INT8)),
            &mut rng,
        )
        .unwrap();
        conv_q.weight.value = conv_fp.weight.value.clone();
        let x = rng.uniform_tensor(&[1, 2, 6, 6], -1.0, 1.0);
        let mut t1 = Tape::new();
        let x1 = t1.leaf(x.clone());
        let y1 = conv_fp.forward(&mut t1, x1, true);
        let mut t2 = Tape::new();
        let x2 = t2.leaf(x);
        let y2 = conv_q.forward(&mut t2, x2, true);
        let (a, b) = (t1.value(y1), t2.value(y2));
        assert_ne!(a.data(), b.data(), "INT8 must differ from FP32");
        let mut max_err = 0.0f32;
        for (p, q) in a.data().iter().zip(b.data()) {
            max_err = max_err.max((p - q).abs());
        }
        assert!(max_err < 0.2, "INT8 error should be moderate: {}", max_err);
    }

    #[test]
    fn linear_forward_values() {
        let mut rng = SeededRng::new(4);
        let spec = LinearSpec::builder("l")
            .in_features(3)
            .out_features(2)
            .build()
            .unwrap();
        let mut lin = Linear::from_spec(&spec, &mut rng).unwrap();
        lin.weight.value = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0], &[2, 3]);
        lin.bias.value = Tensor::from_vec(vec![0.5, -0.5], &[2]);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]));
        let y = lin.forward(&mut tape, x, true);
        assert_eq!(tape.value(y).data(), &[1.5, 1.5]);
    }

    #[test]
    fn batchnorm_normalizes_in_train_mode() {
        let mut bn =
            BatchNorm2d::from_spec(&BatchNormSpec::builder("bn").channels(2).build().unwrap())
                .unwrap();
        let mut rng = SeededRng::new(5);
        let mut tape = Tape::new();
        let x = tape.leaf(rng.uniform_tensor(&[4, 2, 5, 5], 3.0, 5.0));
        let y = bn.forward(&mut tape, x, true);
        let yv = tape.value(y);
        // per-channel mean ≈ 0, var ≈ 1
        let (n, c, h, w) = (4, 2, 5, 5);
        for ch in 0..c {
            let mut mean = 0.0f64;
            let mut count = 0;
            for img in 0..n {
                let base = (img * c + ch) * h * w;
                for i in base..base + h * w {
                    mean += yv.data()[i] as f64;
                    count += 1;
                }
            }
            mean /= count as f64;
            assert!(mean.abs() < 1e-4, "channel {} mean {}", ch, mean);
        }
        // running stats moved toward batch stats
        assert!(bn.running_mean()[0] > 0.0);
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let mut bn =
            BatchNorm2d::from_spec(&BatchNormSpec::builder("bn").channels(1).build().unwrap())
                .unwrap();
        let mut rng = SeededRng::new(6);
        // Train several batches to move running stats
        for _ in 0..20 {
            let mut tape = Tape::new();
            let x = tape.leaf(rng.uniform_tensor(&[8, 1, 4, 4], 1.0, 3.0));
            let _ = bn.forward(&mut tape, x, true);
        }
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::full(&[1, 1, 2, 2], 2.0));
        let y = bn.forward(&mut tape, x, false);
        // running mean ≈ 2, so output ≈ 0
        for &v in tape.value(y).data() {
            assert!(v.abs() < 0.6, "eval output {}", v);
        }
    }
}
