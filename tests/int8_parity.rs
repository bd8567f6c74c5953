//! True-integer execution parity suite: the [`Execution::Int8`] path —
//! quantize → `gemm_i8` → fixed-point requantize — must track the
//! fake-quant f32 reference within the documented tolerance contract
//! (per-element ≤ 1 ulp-of-scale at every requantize site; see
//! `docs/quantization.md`), for every zoo architecture under im2row, F2
//! and F4, per-layer and per-tap, and the batched executor must stay
//! bit-for-bit identical to the sequential loop *within* the int path.

use winograd_aware::core::{ConvAlgo, ConvLayer, ConvSpec, WaError, WinogradAwareConv2d};
use winograd_aware::models::{
    BatchExecutor, ExecutorConfig, Infer, ModelKind, ModelSpec, ZooModel,
};
use winograd_aware::nn::{Conv2d, Conv2dSpec, Layer, QuantConfig, QuantStateMut, Tape};
use winograd_aware::quant::{BitWidth, Execution, TapPolicy};
use winograd_aware::tensor::{SeededRng, Tensor};

/// Warm a layer/model's observers (and BN moments) with one training
/// forward over `x`.
fn warm<L: Layer>(layer: &mut L, x: &Tensor) {
    let mut tape = Tape::new();
    let v = tape.leaf(x.clone());
    let _ = layer.forward(&mut tape, v, true);
}

/// The scale a named quant site settled on (the site must use a scalar
/// observer).
fn site_scale<L: Layer>(layer: &mut L, suffix: &str, bits: BitWidth) -> f32 {
    let mut found = None;
    layer.visit_quant_state(&mut |name, state| {
        if name.ends_with(suffix) {
            if let QuantStateMut::Observer(o) = state {
                found = Some(o.scale(bits));
            }
        }
    });
    found.unwrap_or_else(|| panic!("no scalar-observer site named *{suffix}"))
}

fn int8_quant(execution: Execution, transform: TapPolicy) -> QuantConfig {
    let mut q = QuantConfig::uniform(BitWidth::INT8).with_execution(execution);
    q.transform = transform;
    q
}

/// Builds the same layer twice — identical weights and calibration, one
/// fake-quant and one int8 — by cloning construction RNG and warm data.
/// (Training forwards are execution-independent, so the observers evolve
/// identically.)
fn twin_convs(quant_fq: QuantConfig, quant_i8: QuantConfig, x: &Tensor) -> (Conv2d, Conv2d) {
    let build = |q: QuantConfig| {
        let spec = Conv2dSpec::builder("c")
            .in_channels(x.dim(1))
            .out_channels(6)
            .kernel(3)
            .pad(1)
            .quant(q)
            .build()
            .expect("static spec");
        Conv2d::from_spec(&spec, &mut SeededRng::new(41)).expect("static spec")
    };
    let (mut a, mut b) = (build(quant_fq), build(quant_i8));
    warm(&mut a, x);
    warm(&mut b, x);
    (a, b)
}

#[test]
fn direct_conv_is_within_one_output_quantum() {
    // The direct conv has exactly one requantize site: its output. Both
    // paths emit values on the q·s_out grid, so the contract is testable
    // literally — every element within one quantum.
    let mut rng = SeededRng::new(1);
    let x = rng.uniform_tensor(&[3, 4, 9, 9], -1.0, 1.0);
    let (a, mut b) = twin_convs(
        int8_quant(Execution::FakeQuant, TapPolicy::PerLayer),
        int8_quant(Execution::Int8, TapPolicy::PerLayer),
        &x,
    );
    let s_out = site_scale(&mut b, ".q.output", BitWidth::INT8);
    let want = a.infer_tensor(&x).expect("fake-quant inference");
    let got = b.infer_tensor(&x).expect("int8 inference");
    assert_eq!(got.shape(), want.shape());
    let tol = s_out * 1.0001;
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        assert!(
            (g - w).abs() <= tol,
            "element {i}: int8 {g} vs fake-quant {w} exceeds one output \
             quantum ({s_out})"
        );
    }
}

#[test]
fn winograd_conv_is_within_the_propagated_hadamard_quantum() {
    // The Winograd layer's requantize site is the Hadamard product; its
    // ≤ 1-quantum error then rides through the f32 output transform
    // (amplified by at most the row-abs-sum of A per one-sided product)
    // and the Ay/Aya snapping. The assertable whole-layer bound is
    //   (s_h·amax + s_ay)·amax + s_aya
    // which the int8 layer must respect for both tile sizes and both tap
    // policies.
    let mut rng = SeededRng::new(2);
    let x = rng.uniform_tensor(&[2, 4, 8, 8], -1.0, 1.0);
    for m in [2usize, 4] {
        for policy in [TapPolicy::PerLayer, TapPolicy::PerTap] {
            let build = |execution: Execution| {
                let spec = ConvSpec::builder()
                    .name("wa")
                    .in_channels(4)
                    .out_channels(6)
                    .kernel(3)
                    .pad(1)
                    .algo(ConvAlgo::Winograd { m })
                    .quant(int8_quant(execution, policy))
                    .build()
                    .expect("static spec");
                WinogradAwareConv2d::from_spec(&spec, &mut SeededRng::new(42)).expect("static spec")
            };
            let (mut a, mut b) = (build(Execution::FakeQuant), build(Execution::Int8));
            warm(&mut a, &x);
            warm(&mut b, &x);

            let s_h = site_scale(&mut b, ".q.hadamard", BitWidth::INT8);
            let s_ay = site_scale(&mut b, ".q.ay", BitWidth::INT8);
            let s_aya = site_scale(&mut b, ".q.aya", BitWidth::INT8);
            let at = b.transform();
            let n = b.input_tile();
            let amax = (0..b.m())
                .map(|j| (0..n).map(|k| at.at().data()[j * n + k].abs()).sum::<f32>())
                .fold(0.0f32, f32::max);
            let tol = ((s_h * amax + s_ay) * amax + s_aya) * 1.0001;

            let want = a.infer_tensor(&x).expect("fake-quant inference");
            let got = b.infer_tensor(&x).expect("int8 inference");
            assert_eq!(got.shape(), want.shape());
            for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
                assert!(
                    (g - w).abs() <= tol,
                    "F{m} {policy} element {i}: int8 {g} vs fake-quant {w} \
                     exceeds the propagated bound {tol} \
                     (s_h {s_h}, s_ay {s_ay}, s_aya {s_aya}, amax {amax})"
                );
            }
        }
    }
}

const ZOO_ALGOS: [ConvAlgo; 3] = [
    ConvAlgo::Im2row,
    ConvAlgo::Winograd { m: 2 },
    ConvAlgo::Winograd { m: 4 },
];

fn zoo_spec(kind: ModelKind, algo: ConvAlgo, quant: QuantConfig) -> ModelSpec {
    let builder = ModelSpec::builder().classes(10).algo(algo).quant(quant);
    match kind {
        ModelKind::LeNet => builder.input_size(12),
        _ => builder.input_size(8).width(0.125),
    }
    .build()
    .expect("static spec")
}

/// Builds a warmed (fake-quant, int8) twin pair of one zoo model.
fn twin_models(kind: ModelKind, algo: ConvAlgo, policy: TapPolicy) -> (ZooModel, ZooModel, Tensor) {
    let mut a = ZooModel::from_spec(
        kind,
        &zoo_spec(kind, algo, int8_quant(Execution::FakeQuant, policy)),
        &mut SeededRng::new(17),
    )
    .expect("static spec");
    let mut b = ZooModel::from_spec(
        kind,
        &zoo_spec(kind, algo, int8_quant(Execution::Int8, policy)),
        &mut SeededRng::new(17),
    )
    .expect("static spec");
    let [c, h, w] = a.sample_shape();
    let mut rng = SeededRng::new(23);
    let warm_batch = rng.uniform_tensor(&[4, c, h, w], -1.0, 1.0);
    warm(&mut a, &warm_batch);
    warm(&mut b, &warm_batch);
    let batch = rng.uniform_tensor(&[5, c, h, w], -1.0, 1.0);
    (a, b, batch)
}

#[test]
fn zoo_models_track_the_fake_quant_reference() {
    // Whole models compound the per-site contract across layers. For
    // every cell where the quantization itself is healthy the two paths
    // stay within 5% relative RMSE (measured: < 0.1% — the headroom is
    // >50×). The exception is F4 with *per-layer* transform-domain
    // scales: there the huge corner taps of the F4 transforms dominate
    // the shared scale, most taps straddle a handful of integer levels,
    // and sub-quantum requantize differences cascade into decorrelated
    // logits — the exact failure mode that motivates the paper (Table 1)
    // and Tap-Wise Quantization. Those cells get a loose sanity bound;
    // per-tap restores the tight one everywhere.
    for kind in ModelKind::ALL {
        for algo in ZOO_ALGOS {
            for policy in [TapPolicy::PerLayer, TapPolicy::PerTap] {
                let (a, b, batch) = twin_models(kind, algo, policy);
                let want = a.infer_tensor(&batch).expect("fake-quant inference");
                let got = b.infer_tensor(&batch).expect("int8 inference");
                assert_eq!(got.shape(), want.shape());
                let num: f64 = got
                    .data()
                    .iter()
                    .zip(want.data())
                    .map(|(g, w)| ((g - w) as f64).powi(2))
                    .sum();
                let den: f64 = want.data().iter().map(|v| (*v as f64).powi(2)).sum();
                assert!(den > 0.0, "{kind}/{algo}/{policy}: degenerate reference");
                let rel = (num / den).sqrt();
                let f4_per_layer =
                    algo == ConvAlgo::Winograd { m: 4 } && policy == TapPolicy::PerLayer;
                let bound = if f4_per_layer { 1.0 } else { 0.05 };
                assert!(
                    rel < bound,
                    "{kind}/{algo}/{policy}: int8 logits drifted {rel:.4} \
                     relative RMSE from the fake-quant reference (bound {bound})"
                );
            }
        }
    }
}

#[test]
fn int8_batched_matches_sequential_bit_for_bit() {
    // Within the integer path, sharding must be invisible: the i8 GEMM is
    // pinned to the naive loop, the requantizer is deterministic, and the
    // f32 halves run the same per-sample ops — so batched == sequential
    // exactly, per thread count, like the f32 executor-parity suite.
    for kind in ModelKind::ALL {
        for algo in [ConvAlgo::Im2row, ConvAlgo::Winograd { m: 4 }] {
            let (_, b, batch) = twin_models(kind, algo, TapPolicy::PerTap);
            let outs: Vec<Tensor> = (0..batch.dim(0))
                .map(|i| {
                    b.infer_tensor(&batch.slice_dim0(i, i + 1))
                        .expect("sequential int8 inference")
                })
                .collect();
            let refs: Vec<&Tensor> = outs.iter().collect();
            let want = Tensor::concat_dim0(&refs);
            for threads in [1usize, 2, 4] {
                let exec = BatchExecutor::new(ExecutorConfig { threads, chunk: 2 })
                    .expect("static config is valid");
                let got = exec.run(&b, &batch).expect("batched int8 inference");
                assert_eq!(
                    got.data(),
                    want.data(),
                    "{kind}/{algo} threads {threads}: int8 batched output \
                     must equal the sequential per-sample loop"
                );
            }
        }
    }
}

#[test]
fn int8_rejects_incompatible_bit_widths() {
    // The int path carries i8 operands: FP32 or >8-bit configs must be
    // rejected by spec validation with the `quant.execution` key path.
    for bits in [BitWidth::Fp32, BitWidth::INT10, BitWidth::INT16] {
        let err = Conv2dSpec::builder("c")
            .in_channels(2)
            .out_channels(2)
            .kernel(3)
            .quant(QuantConfig::uniform(bits).with_execution(Execution::Int8))
            .build()
            .expect_err("int8 execution must reject non-i8 operand widths");
        let msg = err.to_string();
        assert!(
            msg.contains("quant.execution"),
            "error must name the key path, got: {msg}"
        );
    }
}

#[test]
fn uncalibrated_int8_layers_refuse_and_name_the_cold_site() {
    // Integer execution runs on calibrated scales only: a cold site would
    // need a one-off scale from the whole tensor at hand, which makes the
    // output depend on how a batch is split. Every conv pipeline must
    // refuse with the `quant.execution` key and the first cold site.
    let mut rng = SeededRng::new(3);
    let x = rng.uniform_tensor(&[2, 4, 8, 8], -1.0, 1.0);
    for algo in ZOO_ALGOS {
        for policy in [TapPolicy::PerLayer, TapPolicy::PerTap] {
            let spec = ConvSpec::builder()
                .name("c")
                .in_channels(4)
                .out_channels(6)
                .kernel(3)
                .pad(1)
                .algo(algo)
                .quant(int8_quant(Execution::Int8, policy))
                .build()
                .expect("static spec");
            let mut layer = ConvLayer::from_spec(&spec, &mut SeededRng::new(7)).expect("static");
            let refuses = |layer: &ConvLayer, site: &str| {
                let err = layer
                    .infer_tensor(&x)
                    .expect_err("a cold int8 layer must refuse");
                assert!(
                    matches!(
                        err,
                        WaError::InvalidSpec {
                            field: "quant.execution",
                            ..
                        }
                    ),
                    "{algo}/{policy}: {err}"
                );
                assert!(
                    err.to_string().contains(&format!("`c.q.{site}`")),
                    "{algo}/{policy}: error must name `c.q.{site}`, got: {err}"
                );
            };

            // never calibrated: the input site is the first one reached
            refuses(&layer, "input");

            // calibrated, then one late site reset
            warm(&mut layer, &x);
            layer.infer_tensor(&x).expect("a calibrated layer runs");
            let late = match (algo, policy) {
                (ConvAlgo::Im2row, _) => "output",
                (_, TapPolicy::PerLayer) => "hadamard",
                (_, TapPolicy::PerTap) => "bdb",
            };
            layer.visit_quant_state(&mut |name, state| {
                if name == format!("c.q.{late}") {
                    match state {
                        QuantStateMut::Observer(o) => o.reset(),
                        QuantStateMut::Taps(t) => t.reset(),
                        QuantStateMut::BatchNorm { .. } => unreachable!("conv sites only"),
                    }
                }
            });
            refuses(&layer, late);
        }
    }
}
