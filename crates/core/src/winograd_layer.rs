//! The Winograd-aware convolution layer (paper §3.2, Figure 2).

use std::sync::{Arc, Mutex};

use wa_nn::{
    infer_quant, infer_quant_taps, observe_quant, observe_quant_taps, Infer, Layer, Param,
    QuantConfig, QuantStateMut, Tape, Var, WaError,
};
use wa_quant::{quantize_i8_taps, BitWidth, Execution, Observer, Requantizer, TapPolicy, TapQuant};
use wa_tensor::{gemm_batched, gemm_i8_prepacked, PackedAI8, PackedBI8, SeededRng, Tensor};
use wa_winograd::{TileGeometry, WinogradTransform};

use crate::fused_walk::{
    input_walk, output_walk, with_scratch, BackSnaps, FrontSnaps, PlaneSink, ProductSource, Snap,
    MAX_TAPS,
};
use crate::int8_pipeline::{fused_input_pack, fused_requant_output, BackQuant, FrontQuant};
use crate::spec::ConvSpec;

/// Identifies one quantization point `Qx` of Figure 2.
#[derive(Clone, Copy)]
enum QuantSite {
    /// Input activations `d`.
    Input,
    /// Spatial weights `g`.
    Weight,
    /// One-sided filter transform `G·g`.
    Gg,
    /// Winograd-domain filter `G·g·Gᵀ`.
    Ggt,
    /// One-sided input transform `Bᵀ·d`.
    Bd,
    /// Winograd-domain input `Bᵀ·d·B`.
    Bdb,
    /// Elementwise product (per-coordinate GEMM output).
    Hadamard,
    /// One-sided output transform `Aᵀ·y`.
    Ay,
    /// Layer output `Aᵀ·y·A`.
    Aya,
}

/// Range observers for every quantization point `Qx` of Figure 2, plus
/// the tap-wise calibration of the two **Winograd-domain** sites. The
/// tensors at `Q(Bᵀ·d·B)` and `Q(G·g·Gᵀ)` are rows of `n²` taps, so under
/// [`TapPolicy::PerTap`] those two sites quantize through [`TapQuant`]
/// (one scale per tap position) instead of their scalar observer; every
/// other site is per-tensor under either policy.
#[derive(Debug)]
struct WinogradObservers {
    input: Observer,
    weight: Observer,
    gg: Observer,  // G·g
    ggt: Observer, // G·g·Gᵀ
    bd: Observer,  // Bᵀ·d
    bdb: Observer, // Bᵀ·d·B
    hadamard: Observer,
    ay: Observer,  // Aᵀ·y
    aya: Observer, // Aᵀ·y·A (layer output)
    /// Tap-wise state for `Bᵀ·d·B` (used iff the policy is `PerTap`).
    bdb_taps: TapQuant,
    /// Tap-wise state for `G·g·Gᵀ` (used iff the policy is `PerTap`).
    ggt_taps: TapQuant,
}

impl WinogradObservers {
    /// Fresh observers for an `n×n` input tile.
    fn new(n: usize) -> WinogradObservers {
        WinogradObservers {
            input: Observer::default(),
            weight: Observer::default(),
            gg: Observer::default(),
            ggt: Observer::default(),
            bd: Observer::default(),
            bdb: Observer::default(),
            hadamard: Observer::default(),
            ay: Observer::default(),
            aya: Observer::default(),
            bdb_taps: TapQuant::new(n),
            ggt_taps: TapQuant::new(n),
        }
    }

    fn site(&self, s: QuantSite) -> &Observer {
        match s {
            QuantSite::Input => &self.input,
            QuantSite::Weight => &self.weight,
            QuantSite::Gg => &self.gg,
            QuantSite::Ggt => &self.ggt,
            QuantSite::Bd => &self.bd,
            QuantSite::Bdb => &self.bdb,
            QuantSite::Hadamard => &self.hadamard,
            QuantSite::Ay => &self.ay,
            QuantSite::Aya => &self.aya,
        }
    }

    fn site_mut(&mut self, s: QuantSite) -> &mut Observer {
        match s {
            QuantSite::Input => &mut self.input,
            QuantSite::Weight => &mut self.weight,
            QuantSite::Gg => &mut self.gg,
            QuantSite::Ggt => &mut self.ggt,
            QuantSite::Bd => &mut self.bd,
            QuantSite::Bdb => &mut self.bdb,
            QuantSite::Hadamard => &mut self.hadamard,
            QuantSite::Ay => &mut self.ay,
            QuantSite::Aya => &mut self.aya,
        }
    }
}

/// Prepacked integer Winograd-domain filter for the [`Execution::Int8`]
/// path: the quantized `G·g·Gᵀ` rows re-quantized to `i8` (exact, since
/// the int8 path runs calibrated only and the derived values already sit
/// on the site's grid), permuted into `[n², K, C]` order and packed
/// once into the [`gemm_i8_prepacked`] left-operand layout (widened
/// i16), together with the per-tap scales they were quantized under (a
/// per-layer site broadcasts its one scale). Packing at cache-build time
/// keeps the per-inference GEMM free of operand widening — the filter is
/// the large static side (`n²·K·C` elements, ~9.4M on a deep ResNet
/// layer), so repacking it per call dominated the integer middle.
#[derive(Debug)]
struct Int8Filter {
    /// Taps in `[n², K, C]` order, prepacked for the integer GEMM.
    packed: PackedAI8,
    /// One scale per tap position (`n²` entries).
    scales: Vec<f32>,
}

/// A per-layer site as the fused walks take it: `Some(None)` passes
/// values through (FP32), `Some(Some(_))` snaps at the observer's settled
/// scale, `None` means the site quantizes but is cold — its one-off scale
/// would need the whole intermediate tensor, which only the tape has.
fn warm_snap(obs: &Observer, bits: BitWidth) -> Option<Option<Snap>> {
    if bits.is_float() {
        Some(None)
    } else if obs.observations() > 0 {
        Some(Some(Snap {
            scale: obs.scale(bits),
            qmax: bits.qmax(),
        }))
    } else {
        None
    }
}

/// Every activation-side quantization site of a layer whose sites are
/// all pass-through or warm, in the form the fused walks take them.
struct ActSnaps {
    front: FrontSnaps,
    hadamard: Option<Snap>,
    back: BackSnaps,
}

/// Tape variables for the layer's parameters, registered by the caller
/// (mutably via [`Tape::param`] in training, read-only via
/// [`Tape::param_ref`] in the cold-site inference replay).
struct PipelineVars {
    /// Spatial filter `[K, C, r, r]`.
    w: Var,
    /// Filter transform `G` `[n, r]`.
    g: Var,
    at: Var,
    bt: Var,
    bias: Option<Var>,
}

/// Static layer configuration copied out of the struct so the pipeline
/// borrows neither the layer nor its observers.
#[derive(Clone, Copy)]
struct PipelineCfg {
    m: usize,
    r: usize,
    pad: usize,
    in_ch: usize,
    out_ch: usize,
    abits: BitWidth,
    wbits: BitWidth,
}

/// The filter half of the pipeline: quantized spatial weights `wq` →
/// `G·g·Gᵀ` rows `[K·C, n²]`, with the `Q(G·g)` / `Q(G·g·Gᵀ)` sites
/// realized through `quant`. Shared by the inline (training) path and the
/// per-model filter cache, so both derive bit-identical values.
fn filter_u_rows(
    tape: &mut Tape,
    wq: Var,
    g: Var,
    cfg: PipelineCfg,
    quant: &mut dyn FnMut(&mut Tape, Var, BitWidth, QuantSite) -> Var,
) -> Var {
    let _span = wa_obs::stage_span!("winograd.filter_transform");
    let (r, n) = (cfg.r, cfg.m + cfg.r - 1);
    let wrows = cfg.out_ch * cfg.in_ch;
    let w1 = tape.reshape(wq, &[wrows * r, r]);
    let w2 = tape.matmul_nt(w1, g); // g·Gᵀ ≡ (G·gᵀ)ᵀ
    let w2q = quant(tape, w2, cfg.wbits, QuantSite::Gg);
    let w3 = tape.reshape(w2q, &[wrows, r * n]);
    let w4 = tape.tile_transpose(w3, r, n);
    let w5 = tape.reshape(w4, &[wrows * n, r]);
    let w6 = tape.matmul_nt(w5, g);
    let w7 = tape.reshape(w6, &[wrows, n * n]);
    let u_rows = tape.tile_transpose(w7, n, n); // GgGᵀ
    quant(tape, u_rows, cfg.wbits, QuantSite::Ggt)
}

/// The Winograd-aware op pipeline `Y = Aᵀ[(G·g·Gᵀ) ⊙ (Bᵀ·d·B)]A`, shared
/// by the training forward (mutable observers) and the [`Infer`] path
/// (read-only observers): the `quant` callback realizes each `Qx` site
/// for its caller. Site calls happen in the same order as the original
/// single-path forward, so observer statistics evolve identically.
fn winograd_pipeline(
    tape: &mut Tape,
    x: Var,
    vars: PipelineVars,
    cfg: PipelineCfg,
    quant: &mut dyn FnMut(&mut Tape, Var, BitWidth, QuantSite) -> Var,
) -> Var {
    let (batch, in_ch, h, w) = {
        let v = tape.value(x);
        assert_eq!(
            v.ndim(),
            4,
            "WinogradAwareConv2d expects NCHW, got {:?}",
            v.shape()
        );
        (v.dim(0), v.dim(1), v.dim(2), v.dim(3))
    };
    assert_eq!(in_ch, cfg.in_ch, "input channels mismatch");
    let (m, r) = (cfg.m, cfg.r);
    let n = m + r - 1;
    let out_ch = cfg.out_ch;
    let geom = TileGeometry::for_conv(h, w, m, r, cfg.pad);
    let total_tiles = batch * geom.tiles();
    let (abits, wbits) = (cfg.abits, cfg.wbits);

    // -- inputs & parameters, quantized
    let xq = quant(tape, x, abits, QuantSite::Input);
    let wq = quant(tape, vars.w, wbits, QuantSite::Weight);
    let (at, bt) = (vars.at, vars.bt);

    // -- input transform BᵀdB (two one-sided products, Qx after each)
    let v_rows = {
        let _span = wa_obs::stage_span!("winograd.input_transform");
        let xp = tape.pad_tiles(xq, geom);
        let tiles = tape.gather_tiles(xp, geom); // [B·T·C, n²]
        let rows = total_tiles * in_ch;
        let t1 = tape.reshape(tiles, &[rows * n, n]);
        let t2 = tape.matmul_nt(t1, bt); // X·B  ≡ (Bᵀ·Xᵀ)ᵀ
        let t2q = quant(tape, t2, abits, QuantSite::Bd);
        let t3 = tape.reshape(t2q, &[rows, n * n]);
        let t4 = tape.tile_transpose(t3, n, n);
        let t5 = tape.reshape(t4, &[rows * n, n]);
        let t6 = tape.matmul_nt(t5, bt);
        let t7 = tape.reshape(t6, &[rows, n * n]);
        let v_rows = tape.tile_transpose(t7, n, n); // BᵀdB
        quant(tape, v_rows, abits, QuantSite::Bdb)
    };

    // -- filter transform GgGᵀ
    let u = filter_u_rows(tape, wq, vars.g, cfg, quant);

    // -- Hadamard product + summation across channels, as one GEMM per
    //    Winograd-domain coordinate (Maji et al. 2019 formulation)
    let mm = {
        let _span = wa_obs::stage_span!("winograd.gemm");
        let v_p = tape.permute3(v_rows, [total_tiles, in_ch, n * n], [2, 1, 0]); // [n², C, T]
        let u_p = tape.permute3(u, [out_ch, in_ch, n * n], [2, 0, 1]); // [n², K, C]
        let mm = tape.bmm(u_p, v_p, n * n, out_ch, in_ch, total_tiles); // [n², K, T]
        quant(tape, mm, abits, QuantSite::Hadamard)
    };

    // -- output transform AᵀyA
    let _span = wa_obs::stage_span!("winograd.output_transform");
    let m3 = tape.permute3(mm, [n * n, out_ch, total_tiles], [2, 1, 0]); // [T, K, n²]
    let orows = total_tiles * out_ch;
    let m_rows = tape.reshape(m3, &[orows, n * n]);
    let o1 = tape.reshape(m_rows, &[orows * n, n]);
    let o2 = tape.matmul_nt(o1, at); // Y·A
    let o2q = quant(tape, o2, abits, QuantSite::Ay);
    let o3 = tape.reshape(o2q, &[orows, n * m]);
    let o4 = tape.tile_transpose(o3, n, m);
    let o5 = tape.reshape(o4, &[orows * m, n]);
    let o6 = tape.matmul_nt(o5, at);
    let o7 = tape.reshape(o6, &[orows, m * m]);
    let y_rows = tape.tile_transpose(o7, m, m);

    let mut y = tape.assemble_output(y_rows, geom, batch, out_ch);
    if let Some(bv) = vars.bias {
        y = tape.add_bias_chan(y, bv);
    }
    quant(tape, y, abits, QuantSite::Aya)
}

/// A convolution layer evaluated *explicitly* as
/// `Y = Aᵀ[(G·g·Gᵀ) ⊙ (Bᵀ·d·B)]A` with every intermediate
/// fake-quantized, so training sees the numerical error of the Winograd
/// algorithm (the central idea of the paper).
///
/// * **Static** configurations (paper `WAF2`, `WAF4`, …) keep `Aᵀ`, `G`,
///   `Bᵀ` fixed at their Cook-Toom values.
/// * **Flex** configurations (`-flex`) mark them trainable, letting
///   back-propagation reshape the transforms to absorb quantization error
///   — worth up to 10% accuracy at INT8/F4 in the paper.
///
/// Stride is fixed at 1: the paper replaces stride-2 convolutions with
/// max-pool + dense conv because "there is no known equivalent for strided
/// Winograd convolutions" (§5.1).
///
/// # Example
///
/// ```
/// use wa_core::{ConvAlgo, ConvSpec, WinogradAwareConv2d};
/// use wa_nn::{Layer, QuantConfig, Tape};
/// use wa_quant::BitWidth;
/// use wa_tensor::SeededRng;
///
/// let mut rng = SeededRng::new(0);
/// let spec = ConvSpec::builder()
///     .name("wa")
///     .in_channels(3)
///     .out_channels(8)
///     .algo(ConvAlgo::WinogradFlex { m: 4 })
///     .quant(QuantConfig::uniform(BitWidth::INT8))
///     .build()?;
/// let mut layer = WinogradAwareConv2d::from_spec(&spec, &mut rng)?;
/// let mut tape = Tape::new();
/// let x = tape.leaf(rng.uniform_tensor(&[1, 3, 8, 8], -1.0, 1.0));
/// let y = layer.try_forward(&mut tape, x, true)?;
/// assert_eq!(tape.value(y).shape(), &[1, 8, 8, 8]);
/// # Ok::<(), wa_nn::WaError>(())
/// ```
#[derive(Debug)]
pub struct WinogradAwareConv2d {
    /// Spatial filter `[K, C, r, r]` (the layer's *deploy-time* weights —
    /// Winograd-aware training does not change model size, §1).
    pub weight: Param,
    /// Optional bias `[K]`.
    pub bias: Option<Param>,
    /// Output transform `Aᵀ` `[m, n]`; trainable iff `-flex`.
    pub at: Param,
    /// Filter transform `G` `[n, r]`; trainable iff `-flex`.
    pub g: Param,
    /// Input transform `Bᵀ` `[n, n]`; trainable iff `-flex`.
    pub bt: Param,
    /// Quantization applied to weights, activations and every intermediate.
    pub quant: QuantConfig,
    m: usize,
    r: usize,
    pad: usize,
    obs: WinogradObservers,
    /// Memoized quantized Winograd-domain filter `G·g·Gᵀ`, stored
    /// **tap-major** `[n², K, C]` — the tap GEMM's left operand as it is,
    /// the one layout inference reads — and tagged with the
    /// [`QuantConfig`] it was derived under. The weights are constant
    /// across a batch, so the [`Infer`] path derives this once and reuses
    /// it for every chunk of every [`wa_nn::BatchExecutor`] run instead
    /// of re-transforming (or re-permuting) per chunk. Only f32-GEMM
    /// layers fill it; an [`Execution::Int8`] layer keeps its
    /// [`Int8Filter`] alone.
    /// Tensor storage is copy-on-write, so handing the memoized value out
    /// is a *shared handle* (an O(1) refcount bump): every worker tape
    /// aliases one transform buffer rather than receiving a guarded copy.
    /// Invalidated by every `&mut self` path that can change what the
    /// derivation would produce (`forward`, `visit_params`,
    /// `reset_statistics`) and by a `quant` change; code that mutates the
    /// public parameter fields directly must call
    /// [`WinogradAwareConv2d::invalidate_filter_cache`].
    filter_cache: Mutex<Option<(QuantConfig, Tensor)>>,
    /// Memoized [`Int8Filter`] for the [`Execution::Int8`] path, derived
    /// from [`WinogradAwareConv2d::filter_rows`] and shared across
    /// [`wa_nn::BatchExecutor`] workers as an `Arc` handle. Invalidated
    /// together with `filter_cache`.
    filter_cache_i8: Mutex<Option<(QuantConfig, Arc<Int8Filter>)>>,
}

impl WinogradAwareConv2d {
    /// Creates a Winograd-aware layer `F(m×m, r×r)` from a validated
    /// [`ConvSpec`], with Kaiming weights and Cook-Toom-initialized
    /// transforms (canonical Lavin & Gray matrices for F2/F4 with r = 3).
    ///
    /// The spec's [`crate::ConvAlgo`] selects the tile size `m` and
    /// whether the transforms are learnable (`-flex`).
    ///
    /// # Errors
    ///
    /// [`WaError::UnsupportedAlgo`] if the spec's algorithm is im2row or
    /// violates a Winograd constraint; [`WaError::InvalidSpec`] for bad
    /// geometry.
    pub fn from_spec(spec: &ConvSpec, rng: &mut SeededRng) -> Result<WinogradAwareConv2d, WaError> {
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
        Self::from_spec_with_weight(spec, weight, bias)
    }

    /// Builds the layer around existing weight/bias parameters — the
    /// surgery path used to convert a trained direct-convolution model
    /// into its Winograd-aware counterpart (paper Table 1 / Figure 6).
    ///
    /// # Errors
    ///
    /// [`WaError::ShapeMismatch`] if `weight` is not the 4-D
    /// square-kernel `[K, C, r, r]` tensor the spec describes;
    /// [`WaError::UnsupportedAlgo`] if the spec's algorithm is not a
    /// Winograd variant.
    pub fn from_spec_with_weight(
        spec: &ConvSpec,
        weight: Param,
        bias: Option<Param>,
    ) -> Result<WinogradAwareConv2d, WaError> {
        spec.validate()?;
        let Some(m) = spec.algo.tile_m() else {
            return Err(WaError::unsupported(
                spec.algo,
                "WinogradAwareConv2d requires a Winograd algorithm, not im2row",
            ));
        };
        let flex = spec.algo.is_flex();
        let r = spec.kernel;
        let expected = [spec.out_channels, spec.in_channels, r, r];
        if weight.value.shape() != expected {
            return Err(WaError::shape(
                format!("WinogradAwareConv2d `{}` weight", spec.name),
                &expected,
                weight.value.shape(),
            ));
        }
        let name = &spec.name;
        let t = WinogradTransform::canonical(m, r);
        let mk = |suffix: &str, v: &Tensor| {
            if flex {
                Param::new(format!("{name}.{suffix}"), v.clone())
            } else {
                Param::frozen(format!("{name}.{suffix}"), v.clone())
            }
        };
        Ok(WinogradAwareConv2d {
            at: mk("at", t.at()),
            g: mk("g", t.g()),
            bt: mk("bt", t.bt()),
            weight,
            bias,
            quant: spec.quant,
            m,
            r,
            pad: spec.pad,
            obs: WinogradObservers::new(m + r - 1),
            filter_cache: Mutex::new(None),
            filter_cache_i8: Mutex::new(None),
        })
    }

    /// Output tile size `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Filter size `r`.
    pub fn r(&self) -> usize {
        self.r
    }

    /// Input tile size `n = m + r − 1`.
    pub fn input_tile(&self) -> usize {
        self.m + self.r - 1
    }

    /// Whether the transforms are trainable (`-flex`).
    pub fn is_flex(&self) -> bool {
        self.at.trainable
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.weight.value.dim(0)
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.weight.value.dim(1)
    }

    /// The current transform triple (e.g. to persist learned `-flex`
    /// transforms or hand them to the latency model).
    pub fn transform(&self) -> WinogradTransform {
        WinogradTransform::from_matrices(
            self.m,
            self.r,
            self.at.value.clone(),
            self.g.value.clone(),
            self.bt.value.clone(),
        )
    }

    /// Run-time weight-memory growth factor `n²/r²` (1.78× for F2, 4× for
    /// F4 — paper §3.1).
    pub fn weight_memory_factor(&self) -> f64 {
        let n = self.input_tile() as f64;
        (n * n) / (self.r * self.r) as f64
    }

    /// Zero-padding applied by the layer.
    pub fn pad_size(&self) -> usize {
        self.pad
    }

    /// The transform-domain quantization policy in effect.
    pub fn tap_policy(&self) -> TapPolicy {
        self.quant.transform
    }

    /// Read-only view of the tap-wise calibration state of the two
    /// Winograd-domain sites, as `(BᵀdB, G·g·Gᵀ)`. Meaningful when
    /// [`WinogradAwareConv2d::tap_policy`] is [`TapPolicy::PerTap`]; the
    /// state exists (cold) under `PerLayer` too so a policy switch keeps
    /// prior calibration.
    pub fn tap_calibration(&self) -> (&TapQuant, &TapQuant) {
        (&self.obs.bdb_taps, &self.obs.ggt_taps)
    }

    /// Mutable view of the tap-wise calibration state (`(BᵀdB, G·g·Gᵀ)`)
    /// — the hook for installing per-tap bit-width overrides
    /// ([`TapQuant::set_bit_overrides`]) or hand-set ranges. Invalidates
    /// the memoized filter transform, since `G·g·Gᵀ` is derived through
    /// these scales.
    pub fn tap_calibration_mut(&mut self) -> (&mut TapQuant, &mut TapQuant) {
        self.invalidate_filter_cache();
        (&mut self.obs.bdb_taps, &mut self.obs.ggt_taps)
    }

    /// Drops the memoized quantized filter transform. Called internally
    /// by every `&mut self` path of the [`Layer`] API; only needed
    /// explicitly after mutating the public parameter fields (`weight`,
    /// `g`, …) or observers outside that API.
    pub fn invalidate_filter_cache(&mut self) {
        *self
            .filter_cache
            .get_mut()
            .expect("filter cache lock poisoned") = None;
        *self
            .filter_cache_i8
            .get_mut()
            .expect("int8 filter cache lock poisoned") = None;
    }

    /// The tap-major quantized `G·g·Gᵀ` (`[n², K, C]`) for the current
    /// weights/quant config, derived the first time and memoized: the
    /// [`WinogradAwareConv2d::filter_rows`] laid out once the way the
    /// training pipeline permutes them per step. The returned tensor is
    /// a shared handle onto the cached buffer (copy-on-write storage), so
    /// concurrent callers cost one refcount bump each, not a buffer copy.
    fn cached_filter(&self) -> Tensor {
        let mut guard = self
            .filter_cache
            .lock()
            .expect("filter cache lock poisoned");
        if let Some((q, t)) = &*guard {
            if *q == self.quant {
                return t.clone();
            }
        }
        let taps = self.input_tile() * self.input_tile();
        let dims = [self.out_channels(), self.in_channels(), taps];
        // on a tape of its own: the derivation's intermediates are gone
        // before the permuted copy is allocated
        let mut tape = Tape::new();
        let u_rows = tape.leaf(self.filter_rows());
        let u_p = tape.permute3(u_rows, dims, [2, 0, 1]);
        let value = tape.value(u_p).clone();
        *guard = Some((self.quant, value.clone()));
        value
    }

    /// The quantized `G·g·Gᵀ` rows `[K·C, n²]` for the current
    /// weights/quant config, derived on a scratch tape. Values are
    /// bit-identical to the inline derivation: the same
    /// [`filter_u_rows`] ops run on the same inputs through the same
    /// read-only `Q` sites. Not memoized — the callers lay the rows out
    /// for their GEMM and cache that.
    fn filter_rows(&self) -> Tensor {
        let cfg = self.pipeline_cfg();
        let mut tape = Tape::new();
        let w = tape.param_ref(&self.weight);
        let g = tape.param_ref(&self.g);
        let wq = self.infer_site(&mut tape, w, cfg.wbits, QuantSite::Weight);
        let u = filter_u_rows(&mut tape, wq, g, cfg, &mut |t, v, bits, site| {
            self.infer_site(t, v, bits, site)
        });
        tape.value(u).clone()
    }

    /// Realizes one `Qx` site read-only, through the state the active tap
    /// policy quantizes with (the inference counterpart of the training
    /// forward's observing closure).
    fn infer_site(&self, tape: &mut Tape, v: Var, bits: BitWidth, site: QuantSite) -> Var {
        match (self.quant.transform, site) {
            (TapPolicy::PerTap, QuantSite::Bdb) => {
                infer_quant_taps(tape, v, bits, &self.obs.bdb_taps)
            }
            (TapPolicy::PerTap, QuantSite::Ggt) => {
                infer_quant_taps(tape, v, bits, &self.obs.ggt_taps)
            }
            _ => infer_quant(tape, v, bits, self.obs.site(site)),
        }
    }

    /// Rejects tap bit-widths the `i8` kernel cannot carry (`FP32` or
    /// wider than 8 bits), naming the offending Winograd-domain site.
    fn check_tap_bits(&self, site: &str, bits: &[BitWidth]) -> Result<(), WaError> {
        for &b in bits {
            let bad = match b {
                BitWidth::Fp32 => true,
                b => b.qmax() > i8::MAX as i32,
            };
            if bad {
                return Err(WaError::invalid(
                    "WinogradAwareConv2d",
                    "quant.execution",
                    format!(
                        "`{}`: int8 execution requires every {site} tap at \
                         most 8 bits, got {b}",
                        self.weight.name
                    ),
                ));
            }
        }
        Ok(())
    }

    /// The prepacked integer filter for the current weights/quant config.
    /// Re-quantizing [`WinogradAwareConv2d::filter_rows`] is exact: the
    /// caller has checked every site is calibrated, so the derived values
    /// already sit on the `G·g·Gᵀ` site's grid and `round(q·s/s) = q`
    /// recovers the integers bit-for-bit.
    fn cached_filter_i8(&self) -> Result<Arc<Int8Filter>, WaError> {
        {
            let guard = self
                .filter_cache_i8
                .lock()
                .expect("int8 filter cache lock poisoned");
            if let Some((q, f)) = &*guard {
                if *q == self.quant {
                    return Ok(f.clone());
                }
            }
        }
        // a temporary: only the packed i8 form stays resident
        let u = self.filter_rows(); // [K·C, n²], values on the Ggt grid
        let taps = self.input_tile() * self.input_tile();
        let wbits = self.quant.weights;
        let (u_bits, u_scales) = match self.quant.transform {
            TapPolicy::PerTap => {
                let bits = self.obs.ggt_taps.effective_bits(wbits);
                let scales = self.obs.ggt_taps.scales_for(&bits);
                (bits, scales)
            }
            TapPolicy::PerLayer => (vec![wbits; taps], vec![self.obs.ggt.scale(wbits); taps]),
        };
        self.check_tap_bits("G·g·Gᵀ", &u_bits)?;
        let q_rows = quantize_i8_taps(&u, &u_bits, &u_scales);
        // permute [K·C, n²] → [n², K, C], the reference's `u_p` layout
        let (out_ch, in_ch) = (self.out_channels(), self.in_channels());
        let mut data = vec![0i8; out_ch * in_ch * taps];
        for k in 0..out_ch {
            for c in 0..in_ch {
                let src = &q_rows[(k * in_ch + c) * taps..][..taps];
                for (t, &q) in src.iter().enumerate() {
                    data[(t * out_ch + k) * in_ch + c] = q;
                }
            }
        }
        let f = Arc::new(Int8Filter {
            packed: PackedAI8::pack(&data, taps, out_ch, in_ch),
            scales: u_scales,
        });
        let mut guard = self
            .filter_cache_i8
            .lock()
            .expect("int8 filter cache lock poisoned");
        *guard = Some((self.quant, f.clone()));
        Ok(f)
    }

    /// The [`Execution::Int8`] inference pass. Numerically the pipeline
    /// is: f32 front half identical to the reference up to `Q(Bᵀ·d·B)`,
    /// then quantize per tap, batched `i8×i8→i32` GEMM against the
    /// memoized integer filter, fixed-point requantize onto the Hadamard
    /// grid, and an f32 back half identical to the reference from there.
    /// Per element the Hadamard-site output is within 1 quantum of its
    /// scale of the reference (exact integer arithmetic plus the
    /// [`Requantizer`]'s ±1 sliver).
    ///
    /// The halves run as fused eager kernels ([`fused_input_pack`] /
    /// [`fused_requant_output`]) that walk the tiles once and write
    /// straight into the packed GEMM operand / final output —
    /// bit-identical to the op-by-op tape sequence, which the
    /// `int8_pipeline` unit tests pin with `==`.
    ///
    /// # Errors
    ///
    /// [`WaError::InvalidSpec`] (`quant.execution`) if the bit-widths do
    /// not fit `i8`, or if any quantization site has never observed data:
    /// integer execution runs on calibrated scales only, so its outputs
    /// never depend on how a batch is split.
    fn infer_int8(&self, tape: &mut Tape, x: Var) -> Result<Var, WaError> {
        let invalid = |reason: String| {
            WaError::invalid(
                "WinogradAwareConv2d",
                "quant.execution",
                format!("`{}`: {reason}", self.weight.name),
            )
        };
        if let Some(reason) = self.quant.int8_incompatibility() {
            return Err(invalid(reason));
        }
        if let Some(site) = self.first_cold_site() {
            return Err(invalid(format!(
                "int8 execution requires calibrated quantization state, but \
                 `{}.q.{site}` has no observations",
                self.site_prefix()
            )));
        }
        let (batch, h, w) = {
            let v = tape.value(x);
            (v.dim(0), v.dim(2), v.dim(3))
        };
        let geom = TileGeometry::for_conv(h, w, self.m, self.r, self.pad);
        let taps = geom.tile() * geom.tile();
        let abits = self.quant.activations;
        let qmax_a = abits.qmax();
        let (in_ch, out_ch) = (self.in_channels(), self.out_channels());
        let total_tiles = batch * geom.tiles();
        let filter = self.cached_filter_i8()?;

        let xq = infer_quant(tape, x, abits, &self.obs.input);

        // per-tap grids at Q(Bᵀ·d·B)
        let (v_bits, v_scales) = match self.quant.transform {
            TapPolicy::PerTap => {
                let bits = self.obs.bdb_taps.effective_bits(abits);
                let scales = self.obs.bdb_taps.scales_for(&bits);
                (bits, scales)
            }
            TapPolicy::PerLayer => (vec![abits; taps], vec![self.obs.bdb.scale(abits); taps]),
        };
        self.check_tap_bits("Bᵀ·d·B", &v_bits)?;
        let v_qmaxes: Vec<i32> = v_bits.iter().map(|b| b.qmax()).collect();

        let mut pb = PackedBI8::zeroed(taps, in_ch, total_tiles);
        {
            let _span = wa_obs::stage_span!("winograd.input_transform");
            let fq = FrontQuant {
                s_bd: self.obs.bd.scale(abits),
                qmax_bd: qmax_a,
                v_scales: &v_scales,
                v_qmaxes: &v_qmaxes,
            };
            fused_input_pack(tape.value(xq), &self.bt.value, &geom, &fq, &mut pb);
        }

        let mut acc = vec![0i32; taps * out_ch * total_tiles];
        {
            let _span = wa_obs::stage_span!("int8.winograd_gemm");
            gemm_i8_prepacked(&filter.packed, &pb, &mut acc);
        }

        let s_h = self.obs.hadamard.scale(abits);
        let reqs: Vec<Requantizer> = (0..taps)
            .map(|t| Requantizer::new(filter.scales[t] as f64 * v_scales[t] as f64 / s_h as f64))
            .collect();
        let y = {
            let _span = wa_obs::stage_span!("winograd.output_transform");
            let bq = BackQuant {
                reqs: &reqs,
                s_h,
                qmax_h: qmax_a,
                s_ay: self.obs.ay.scale(abits),
                qmax_ay: qmax_a,
                s_aya: self.obs.aya.scale(abits),
                qmax_aya: qmax_a,
            };
            fused_requant_output(
                &acc,
                &self.at.value,
                &geom,
                batch,
                out_ch,
                self.bias.as_ref().map(|b| b.value.data()),
                &bq,
            )
        };
        Ok(tape.leaf(y))
    }

    /// The parameter-name prefix of this layer's sites (`<layer>` in
    /// `<layer>.q.<site>`).
    fn site_prefix(&self) -> &str {
        self.weight.name.trim_end_matches(".weight")
    }

    /// The first site, in pipeline order, that quantizes but has never
    /// observed data — named by its [`Layer::visit_quant_state`] suffix.
    /// The two Winograd-domain sites are checked in the state the active
    /// tap policy quantizes through.
    fn first_cold_site(&self) -> Option<&'static str> {
        let (abits, wbits) = (self.quant.activations, self.quant.weights);
        let obs = &self.obs;
        let per_tap = self.quant.transform == TapPolicy::PerTap;
        let scalar = |o: &Observer, bits: BitWidth| !bits.is_float() && o.observations() == 0;
        let taps = |t: &TapQuant, bits: BitWidth| {
            (!bits.is_float() || t.bit_overrides().is_some()) && t.observations() == 0
        };
        let cold = [
            ("input", scalar(&obs.input, abits)),
            ("weight", scalar(&obs.weight, wbits)),
            ("gg", scalar(&obs.gg, wbits)),
            (
                "ggt",
                if per_tap {
                    taps(&obs.ggt_taps, wbits)
                } else {
                    scalar(&obs.ggt, wbits)
                },
            ),
            ("bd", scalar(&obs.bd, abits)),
            (
                "bdb",
                if per_tap {
                    taps(&obs.bdb_taps, abits)
                } else {
                    scalar(&obs.bdb, abits)
                },
            ),
            ("hadamard", scalar(&obs.hadamard, abits)),
            ("ay", scalar(&obs.ay, abits)),
            ("aya", scalar(&obs.aya, abits)),
        ];
        cold.into_iter().find(|&(_, c)| c).map(|(site, _)| site)
    }

    /// The activation-side sites for the fused walks, or `None` if any
    /// site that quantizes is cold. The test is "pass-through or warm"
    /// per site, not `quant == FP32`: an FP32 base with per-tap bit
    /// overrides still snaps those taps.
    fn act_snaps(&self) -> Option<ActSnaps> {
        let abits = self.quant.activations;
        let obs = &self.obs;
        let mut bdb = [None; MAX_TAPS];
        match self.quant.transform {
            TapPolicy::PerLayer => bdb.fill(warm_snap(&obs.bdb, abits)?),
            TapPolicy::PerTap => {
                let tq = &obs.bdb_taps;
                if !abits.is_float() || tq.bit_overrides().is_some() {
                    if tq.observations() == 0 {
                        return None;
                    }
                    let bits = tq.effective_bits(abits);
                    let scales = tq.scales_for(&bits);
                    for ((snap, &b), &scale) in bdb.iter_mut().zip(&bits).zip(&scales) {
                        if !b.is_float() {
                            *snap = Some(Snap {
                                scale,
                                qmax: b.qmax(),
                            });
                        }
                    }
                }
            }
        }
        Some(ActSnaps {
            front: FrontSnaps {
                input: warm_snap(&obs.input, abits)?,
                bd: warm_snap(&obs.bd, abits)?,
                bdb,
            },
            hadamard: warm_snap(&obs.hadamard, abits)?,
            back: BackSnaps {
                ay: warm_snap(&obs.ay, abits)?,
                aya: warm_snap(&obs.aya, abits)?,
            },
        })
    }

    /// The fused f32 pass for a layer whose sites are all pass-through
    /// or warm (FP32, and calibrated [`Execution::Fake`]): one tile walk
    /// in, one batched tap GEMM against the tap-major cached filter, one
    /// tile walk out — bit-identical to [`winograd_pipeline`], which
    /// `tests/f32_fused_parity.rs` pins with `==`. `V` and `M` live in
    /// per-thread scratch, so the call allocates its output tensor only.
    fn infer_fused(&self, tape: &mut Tape, x: Var, snaps: &ActSnaps) -> Var {
        let xt = tape.value(x);
        let geom = TileGeometry::for_conv(xt.dim(2), xt.dim(3), self.m, self.r, self.pad);
        let taps = geom.tile() * geom.tile();
        let (batch, in_ch, out_ch) = (xt.dim(0), self.in_channels(), self.out_channels());
        let tiles = batch * geom.tiles();
        let u = self.cached_filter();
        let y = with_scratch(taps * in_ch * tiles, taps * out_ch * tiles, |v, mm| {
            {
                let _span = wa_obs::stage_span!("winograd.input_transform");
                let mut sink = PlaneSink {
                    dst: v,
                    channels: in_ch,
                    tiles,
                };
                input_walk(xt, &self.bt.value, &geom, &snaps.front, &mut sink);
            }
            {
                let _span = wa_obs::stage_span!("winograd.gemm");
                gemm_batched(u.data(), v, mm, taps, out_ch, in_ch, tiles);
            }
            let _span = wa_obs::stage_span!("winograd.output_transform");
            let src = ProductSource {
                src: mm,
                channels: out_ch,
                tiles,
                hadamard: snaps.hadamard,
            };
            output_walk(
                &src,
                &self.at.value,
                &geom,
                batch,
                out_ch,
                self.bias.as_ref().map(|b| b.value.data()),
                &snaps.back,
            )
        });
        tape.leaf(y)
    }

    fn pipeline_cfg(&self) -> PipelineCfg {
        PipelineCfg {
            m: self.m,
            r: self.r,
            pad: self.pad,
            in_ch: self.in_channels(),
            out_ch: self.out_channels(),
            abits: self.quant.activations,
            wbits: self.quant.weights,
        }
    }

    fn check_input(&self, shape: &[usize]) -> Result<(), WaError> {
        if shape.len() != 4 || shape[1] != self.in_channels() {
            return Err(WaError::shape(
                format!("WinogradAwareConv2d `{}` input", self.weight.name),
                &[0, self.in_channels(), 0, 0],
                shape,
            ));
        }
        if shape[2] + 2 * self.pad < self.r || shape[3] + 2 * self.pad < self.r {
            return Err(WaError::shape(
                format!(
                    "WinogradAwareConv2d `{}` spatial extent vs kernel",
                    self.weight.name
                ),
                &[self.r, self.r],
                &shape[2..],
            ));
        }
        Ok(())
    }
}

impl Layer for WinogradAwareConv2d {
    fn try_forward(&mut self, tape: &mut Tape, x: Var, train: bool) -> Result<Var, WaError> {
        self.check_input(tape.value(x).shape())?;
        Ok(self.forward(tape, x, train))
    }

    fn forward(&mut self, tape: &mut Tape, x: Var, train: bool) -> Var {
        // the pass may update observers (and training will mutate the
        // weights afterwards), so the memoized filter transform is stale
        self.invalidate_filter_cache();
        let cfg = self.pipeline_cfg();
        let vars = PipelineVars {
            w: tape.param(&mut self.weight),
            g: tape.param(&mut self.g),
            at: tape.param(&mut self.at),
            bt: tape.param(&mut self.bt),
            bias: self.bias.as_mut().map(|b| tape.param(b)),
        };
        let policy = self.quant.transform;
        let obs = &mut self.obs;
        winograd_pipeline(
            tape,
            x,
            vars,
            cfg,
            &mut |t, v, bits, site| match (policy, site) {
                (TapPolicy::PerTap, QuantSite::Bdb) => {
                    observe_quant_taps(t, v, bits, &mut obs.bdb_taps, train)
                }
                (TapPolicy::PerTap, QuantSite::Ggt) => {
                    observe_quant_taps(t, v, bits, &mut obs.ggt_taps, train)
                }
                _ => observe_quant(t, v, bits, obs.site_mut(site), train),
            },
        )
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        if let Some(b) = &mut self.bias {
            f(b);
        }
        f(&mut self.at);
        f(&mut self.g);
        f(&mut self.bt);
        // visitors get `&mut Param` (optimizer steps, checkpoint
        // imports), so the memoized filter transform may now be stale
        self.invalidate_filter_cache();
    }

    fn reset_statistics(&mut self) {
        for site in [
            QuantSite::Input,
            QuantSite::Weight,
            QuantSite::Gg,
            QuantSite::Ggt,
            QuantSite::Bd,
            QuantSite::Bdb,
            QuantSite::Hadamard,
            QuantSite::Ay,
            QuantSite::Aya,
        ] {
            self.obs.site_mut(site).reset();
        }
        // tap resets clear ranges but keep per-tap bit-width overrides
        // (configuration, not statistics)
        self.obs.bdb_taps.reset();
        self.obs.ggt_taps.reset();
        self.invalidate_filter_cache();
    }

    fn visit_quant_state(&mut self, f: &mut dyn FnMut(&str, QuantStateMut<'_>)) {
        let prefix = self.site_prefix().to_string();
        let per_tap = self.quant.transform == TapPolicy::PerTap;
        let obs = &mut self.obs;
        let sites: [(&str, &mut Observer); 7] = [
            ("input", &mut obs.input),
            ("weight", &mut obs.weight),
            ("gg", &mut obs.gg),
            ("bd", &mut obs.bd),
            ("hadamard", &mut obs.hadamard),
            ("ay", &mut obs.ay),
            ("aya", &mut obs.aya),
        ];
        for (suffix, o) in sites {
            f(&format!("{prefix}.q.{suffix}"), QuantStateMut::Observer(o));
        }
        // the two Winograd-domain sites surface the state the active
        // policy actually quantizes through
        if per_tap {
            f(
                &format!("{prefix}.q.bdb"),
                QuantStateMut::Taps(&mut obs.bdb_taps),
            );
            f(
                &format!("{prefix}.q.ggt"),
                QuantStateMut::Taps(&mut obs.ggt_taps),
            );
        } else {
            f(
                &format!("{prefix}.q.bdb"),
                QuantStateMut::Observer(&mut obs.bdb),
            );
            f(
                &format!("{prefix}.q.ggt"),
                QuantStateMut::Observer(&mut obs.ggt),
            );
        }
        // visitors get mutable calibration state (checkpoint imports),
        // so the memoized filter transform may now be stale; read-only
        // visitors (checkpoint export) pay one re-derivation on the next
        // inference — exports happen at load/save time, not per request
        self.invalidate_filter_cache();
    }
}

impl Infer for WinogradAwareConv2d {
    fn infer(&self, tape: &mut Tape, x: Var) -> Result<Var, WaError> {
        self.check_input(tape.value(x).shape())?;
        if self.quant.execution == Execution::Int8 {
            return self.infer_int8(tape, x);
        }
        if let Some(snaps) = self.act_snaps() {
            return Ok(self.infer_fused(tape, x, &snaps));
        }
        // a cold fake-quant site derives its one-off scale from the whole
        // intermediate tensor, which only the training pipeline on the
        // tape materializes
        let cfg = self.pipeline_cfg();
        let vars = PipelineVars {
            w: tape.param_ref(&self.weight),
            g: tape.param_ref(&self.g),
            at: tape.param_ref(&self.at),
            bt: tape.param_ref(&self.bt),
            bias: self.bias.as_ref().map(|b| tape.param_ref(b)),
        };
        Ok(winograd_pipeline(
            tape,
            x,
            vars,
            cfg,
            &mut |t, v, bits, site| self.infer_site(t, v, bits, site),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv_layer::ConvAlgo;
    use wa_quant::BitWidth;
    use wa_tensor::conv2d_direct;

    fn spec(
        in_ch: usize,
        out_ch: usize,
        m: usize,
        r: usize,
        flex: bool,
        quant: QuantConfig,
    ) -> ConvSpec {
        let algo = if flex {
            ConvAlgo::WinogradFlex { m }
        } else {
            ConvAlgo::Winograd { m }
        };
        ConvSpec::builder()
            .name("wa")
            .in_channels(in_ch)
            .out_channels(out_ch)
            .kernel(r)
            .pad(1)
            .algo(algo)
            .quant(quant)
            .build()
            .unwrap()
    }

    fn fwd(layer: &mut WinogradAwareConv2d, x: &Tensor, train: bool) -> Tensor {
        let mut tape = Tape::new();
        let xv = tape.leaf(x.clone());
        let y = layer.forward(&mut tape, xv, train);
        tape.value(y).clone()
    }

    #[test]
    fn fp32_matches_direct_convolution() {
        let mut rng = SeededRng::new(1);
        for m in [2usize, 4] {
            let mut layer = WinogradAwareConv2d::from_spec(
                &spec(3, 4, m, 3, false, QuantConfig::FP32),
                &mut rng,
            )
            .unwrap();
            let x = rng.uniform_tensor(&[2, 3, 8, 8], -1.0, 1.0);
            let got = fwd(&mut layer, &x, false);
            let want = conv2d_direct(&x, &layer.weight.value, None, 1, 1);
            assert_eq!(got.shape(), want.shape());
            for (a, b) in got.data().iter().zip(want.data()) {
                assert!((a - b).abs() < 1e-3, "F{}: {} vs {}", m, a, b);
            }
        }
    }

    #[test]
    fn odd_spatial_sizes_with_tile_waste() {
        let mut rng = SeededRng::new(2);
        let mut layer =
            WinogradAwareConv2d::from_spec(&spec(2, 3, 4, 3, false, QuantConfig::FP32), &mut rng)
                .unwrap();
        let x = rng.uniform_tensor(&[1, 2, 7, 9], -1.0, 1.0);
        let got = fwd(&mut layer, &x, false);
        let want = conv2d_direct(&x, &layer.weight.value, None, 1, 1);
        assert_eq!(got.shape(), want.shape());
        for (a, b) in got.data().iter().zip(want.data()) {
            assert!((a - b).abs() < 1e-3, "{} vs {}", a, b);
        }
    }

    #[test]
    fn int8_f4_shows_winograd_error_while_f2_is_mild() {
        // Single-layer version of Table 1: quantize all intermediates and
        // compare with direct conv of the same (unquantized) weights.
        let mut rng = SeededRng::new(3);
        let x = rng.uniform_tensor(&[1, 4, 8, 8], -1.0, 1.0);
        let mut rel_err = |m: usize| {
            let mut layer = WinogradAwareConv2d::from_spec(
                &spec(4, 4, m, 3, false, QuantConfig::uniform(BitWidth::INT8)),
                &mut rng.fork(m as u64),
            )
            .unwrap();
            // warm up observers
            let _ = fwd(&mut layer, &x, true);
            let got = fwd(&mut layer, &x, false);
            let want = conv2d_direct(&x, &layer.weight.value, None, 1, 1);
            let num: f64 = got
                .data()
                .iter()
                .zip(want.data())
                .map(|(a, b)| ((a - b) as f64).powi(2))
                .sum();
            let den: f64 = want.data().iter().map(|v| (*v as f64).powi(2)).sum();
            (num / den).sqrt()
        };
        let e2 = rel_err(2);
        let e4 = rel_err(4);
        assert!(
            e2 < e4,
            "INT8 error must grow with tile size: F2 {} vs F4 {}",
            e2,
            e4
        );
    }

    #[test]
    fn flex_transforms_receive_gradients_static_do_not() {
        let mut rng = SeededRng::new(4);
        for flex in [true, false] {
            let mut layer = WinogradAwareConv2d::from_spec(
                &spec(2, 2, 2, 3, flex, QuantConfig::FP32),
                &mut rng,
            )
            .unwrap();
            let mut tape = Tape::new();
            let x = tape.leaf(rng.uniform_tensor(&[1, 2, 4, 4], -1.0, 1.0));
            let y = layer.forward(&mut tape, x, true);
            let loss = tape.sq_sum(y);
            let grads = tape.backward(loss);
            layer.visit_params(&mut |p| p.absorb(&grads));
            let bt_grad = layer.bt.grad.is_some();
            let w_grad = layer.weight.grad.is_some();
            assert!(w_grad, "weights always receive gradients");
            assert_eq!(bt_grad, flex, "transform gradient presence must track flex");
            if flex {
                assert!(layer.bt.grad.as_ref().unwrap().max_abs() > 0.0);
            }
        }
    }

    #[test]
    fn surgery_preserves_weights() {
        let mut rng = SeededRng::new(5);
        let w = Param::new("w", rng.kaiming_tensor(&[4, 3, 3, 3]));
        let wv = w.value.clone();
        let layer = WinogradAwareConv2d::from_spec_with_weight(
            &spec(3, 4, 4, 3, true, QuantConfig::FP32),
            w,
            None,
        )
        .unwrap();
        assert_eq!(layer.weight.value, wv);
        assert!((layer.weight_memory_factor() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn bias_is_applied() {
        let mut rng = SeededRng::new(6);
        let w = Param::new("w", Tensor::zeros(&[2, 1, 3, 3]));
        let b = Param::new("b", Tensor::from_vec(vec![1.5, -0.5], &[2]));
        let mut layer = WinogradAwareConv2d::from_spec_with_weight(
            &spec(1, 2, 2, 3, false, QuantConfig::FP32),
            w,
            Some(b),
        )
        .unwrap();
        let x = rng.uniform_tensor(&[1, 1, 4, 4], -1.0, 1.0);
        let y = fwd(&mut layer, &x, false);
        for i in 0..16 {
            assert!((y.data()[i] - 1.5).abs() < 1e-4);
            assert!((y.data()[16 + i] + 0.5).abs() < 1e-4);
        }
    }

    #[test]
    fn transform_accessor_roundtrips() {
        let mut rng = SeededRng::new(7);
        let layer =
            WinogradAwareConv2d::from_spec(&spec(1, 1, 4, 3, false, QuantConfig::FP32), &mut rng)
                .unwrap();
        let t = layer.transform();
        assert_eq!(t.m(), 4);
        assert_eq!(t.bt(), WinogradTransform::canonical(4, 3).bt());
    }
}
