//! Fused f32 Winograd inference against the training tape: `infer` (one
//! tile walk in, one tap GEMM on the tap-major cached filter, one tile
//! walk out) must equal `forward(train = false)` — the op-by-op pipeline
//! it replaces — **bit for bit**, for every tile shape the walk is
//! monomorphized for, on geometry that overruns the tile grid, with
//! learned (non-canonical) transforms, in FP32 and under warm fake-quant
//! per layer and per tap. Layers whose observers are cold must keep the
//! tape's one-off-scale semantics instead.

use winograd_aware::core::{ConvAlgo, ConvSpec, WinogradAwareConv2d};
use winograd_aware::nn::{Infer, Layer, QuantConfig, Tape};
use winograd_aware::quant::{BitWidth, TapPolicy};
use winograd_aware::tensor::{SeededRng, Tensor};

const IN_CH: usize = 3;
const OUT_CH: usize = 5;

fn layer(
    m: usize,
    r: usize,
    pad: usize,
    bias: bool,
    quant: QuantConfig,
    rng: &mut SeededRng,
) -> WinogradAwareConv2d {
    let spec = ConvSpec::builder()
        .name("wa")
        .in_channels(IN_CH)
        .out_channels(OUT_CH)
        .kernel(r)
        .pad(pad)
        .bias(bias)
        .algo(ConvAlgo::WinogradFlex { m })
        .quant(quant)
        .build()
        .expect("static spec");
    let mut layer = WinogradAwareConv2d::from_spec(&spec, rng).expect("static spec");
    if let Some(b) = &mut layer.bias {
        b.value = rng.uniform_tensor(&[OUT_CH], -0.5, 0.5);
    }
    layer
}

/// Nudges `Aᵀ`, `G`, `Bᵀ` off their Cook-Toom values, as `-flex`
/// training does: no entry stays 0 or ±1, so a walk that special-cased
/// the canonical matrices would show.
fn perturb_transforms(layer: &mut WinogradAwareConv2d, rng: &mut SeededRng) {
    for p in [&mut layer.at, &mut layer.g, &mut layer.bt] {
        let noise = rng.uniform_tensor(p.value.shape(), -0.05, 0.05);
        p.value = p.value.add(&noise);
    }
    layer.invalidate_filter_cache();
}

/// One training forward settles every observer.
fn warm(layer: &mut WinogradAwareConv2d, x: &Tensor) {
    let mut tape = Tape::new();
    let xv = tape.leaf(x.clone());
    let _ = layer.forward(&mut tape, xv, true);
}

/// The read-only inference path, and the number of tape nodes it
/// recorded: the fused pass adds exactly its output leaf.
fn infer(layer: &WinogradAwareConv2d, x: &Tensor) -> (Tensor, usize) {
    let mut tape = Tape::new();
    let xv = tape.leaf(x.clone());
    let y = layer.infer(&mut tape, xv).expect("inference failed");
    (tape.value(y).clone(), tape.len() - 1)
}

/// The oracle: the training pipeline in eval mode.
fn tape_forward(layer: &mut WinogradAwareConv2d, x: &Tensor) -> Tensor {
    let mut tape = Tape::new();
    let xv = tape.leaf(x.clone());
    let y = layer.forward(&mut tape, xv, false);
    tape.value(y).clone()
}

fn assert_same_bits(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}");
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: element {i} is {g} against the tape's {w}"
        );
    }
}

fn int8(policy: TapPolicy) -> QuantConfig {
    QuantConfig::uniform(BitWidth::INT8).with_transform(policy)
}

/// `(m, r)`: every shape a spec can name — F2/F4/F6 at r = 3 and at
/// r = 5 (LeNet's F(2, 5) among them).
const TILES: [(usize, usize); 6] = [(2, 3), (4, 3), (6, 3), (2, 5), (4, 5), (6, 5)];

#[test]
fn fused_infer_equals_the_training_tape_bit_for_bit() {
    let mut rng = SeededRng::new(0xF32);
    let quants = [
        ("FP32", QuantConfig::FP32),
        ("INT8 per-layer", int8(TapPolicy::PerLayer)),
        ("INT8 per-tap", int8(TapPolicy::PerTap)),
    ];
    for (m, r) in TILES {
        // odd H×W: the tile grid overruns the output on both axes
        for (h, w) in [(7usize, 9usize), (8, 8)] {
            for pad in [0usize, 1] {
                for bias in [false, true] {
                    for (qname, quant) in quants {
                        let mut l = layer(m, r, pad, bias, quant, &mut rng);
                        perturb_transforms(&mut l, &mut rng);
                        warm(&mut l, &rng.uniform_tensor(&[2, IN_CH, h, w], -1.0, 1.0));
                        // 1, 3 and 8 samples: tile counts below, across
                        // and at a multiple of the walk's 8 lanes
                        for batch in [1usize, 3, 8] {
                            let x = rng.uniform_tensor(&[batch, IN_CH, h, w], -1.0, 1.0);
                            let what = format!(
                                "F({m},{r}) {h}x{w} pad {pad} bias {bias} {qname} batch {batch}"
                            );
                            let (got, nodes) = infer(&l, &x);
                            assert_eq!(nodes, 1, "{what}: must take the fused pass");
                            assert_same_bits(&got, &tape_forward(&mut l, &x), &what);
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn per_tap_bit_overrides_are_honoured_tap_by_tap() {
    // mixed precision inside one site: INT4, FP32 (pass-through) and the
    // INT8 default side by side, on both Winograd-domain sites
    let mut rng = SeededRng::new(0x7A9);
    for (m, r) in TILES {
        let mut l = layer(m, r, 1, true, int8(TapPolicy::PerTap), &mut rng);
        let taps = l.input_tile() * l.input_tile();
        let bits: Vec<BitWidth> = (0..taps)
            .map(|t| match t % 3 {
                0 => BitWidth::Int(4),
                1 => BitWidth::FP32,
                _ => BitWidth::INT8,
            })
            .collect();
        let (bdb, ggt) = l.tap_calibration_mut();
        bdb.set_bit_overrides(Some(bits.clone())).expect("n² bits");
        ggt.set_bit_overrides(Some(bits)).expect("n² bits");
        warm(&mut l, &rng.uniform_tensor(&[2, IN_CH, 9, 7], -1.0, 1.0));
        let x = rng.uniform_tensor(&[3, IN_CH, 9, 7], -1.0, 1.0);
        let (got, nodes) = infer(&l, &x);
        assert_eq!(nodes, 1, "F({m},{r}): warm overrides take the fused pass");
        assert_same_bits(&got, &tape_forward(&mut l, &x), &format!("F({m},{r})"));
    }
}

#[test]
fn an_fp32_base_with_tap_overrides_still_quantizes_those_taps() {
    // `quant.activations == FP32` is not "nothing quantizes": per-tap
    // overrides snap their taps, so the layer must not take a shortcut
    // that skips the sites
    let mut rng = SeededRng::new(0xB17);
    let x = rng.uniform_tensor(&[2, IN_CH, 8, 8], -1.0, 1.0);
    let fp32 = QuantConfig::FP32.with_transform(TapPolicy::PerTap);
    let mut l = layer(4, 3, 1, false, fp32, &mut rng);
    let (plain, _) = infer(&l, &x);

    let mut bits = vec![BitWidth::FP32; 36];
    bits[7] = BitWidth::Int(4);
    bits[20] = BitWidth::INT8;
    l.tap_calibration_mut()
        .0
        .set_bit_overrides(Some(bits))
        .expect("n² bits");

    // cold taps: the one-off scales need the whole `Bᵀ·d·B` tensor, so
    // the tape pipeline runs — and agrees with the mutable path's
    // one-shot fallback
    let (cold, nodes) = infer(&l, &x);
    assert!(
        nodes > 1,
        "cold tap overrides must replay the tape pipeline"
    );
    assert_same_bits(&cold, &tape_forward(&mut l, &x), "cold overrides");
    assert_ne!(cold.data(), plain.data(), "the overrides must quantize");

    // `tape_forward` observed once, so the taps are warm now: fused, and
    // still quantizing
    let (warm, nodes) = infer(&l, &x);
    assert_eq!(nodes, 1, "warm tap overrides take the fused pass");
    assert_same_bits(&warm, &tape_forward(&mut l, &x), "warm overrides");
    assert_ne!(warm.data(), plain.data(), "the overrides must quantize");
}

#[test]
fn cold_observers_keep_the_tape_fallback() {
    // a never-calibrated INT8 layer derives every scale from the tensor
    // at hand; `infer` must do exactly what `forward(train = false)`
    // does on the same cold state, which only the tape can
    let mut rng = SeededRng::new(0xC01D);
    for policy in [TapPolicy::PerLayer, TapPolicy::PerTap] {
        let mut l = layer(4, 3, 1, true, int8(policy), &mut rng);
        let x = rng.uniform_tensor(&[3, IN_CH, 7, 9], -1.0, 1.0);
        let (got, nodes) = infer(&l, &x);
        assert!(nodes > 1, "{policy}: a cold layer must replay the tape");
        // `forward` warms the observers on `x` itself: same scales
        assert_same_bits(&got, &tape_forward(&mut l, &x), &format!("cold {policy}"));
    }
}
