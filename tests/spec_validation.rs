//! Workspace-level contract tests for the spec/builder construction API:
//! every invalid configuration must surface as the right [`WaError`]
//! variant (never a panic), and builder-built layers must be numerically
//! identical to layers assembled through the surgery path.

use winograd_aware::core::{
    ConvAlgo, ConvLayer, ConvSpec, WaError, WinogradAwareConv2d, SUPPORTED_TILE_SIZES,
};
use winograd_aware::models::{LeNet, ModelSpec, ResNeXt20, ResNet18, SqueezeNet};
use winograd_aware::nn::{
    BatchNorm2d, BatchNormSpec, Conv2d, Conv2dSpec, Layer, Linear, LinearSpec, QuantConfig, Tape,
};
use winograd_aware::quant::BitWidth;
use winograd_aware::tensor::{SeededRng, Tensor};

// ---- invalid specs return the right error variant ---------------------

#[test]
fn conv_spec_zero_channels_is_invalid_spec() {
    let err = ConvSpec::builder().out_channels(8).build().unwrap_err();
    assert!(
        matches!(
            err,
            WaError::InvalidSpec {
                spec: "ConvSpec",
                field: "in_channels",
                ..
            }
        ),
        "{err}"
    );
    let err = ConvSpec::builder().in_channels(8).build().unwrap_err();
    assert!(
        matches!(
            err,
            WaError::InvalidSpec {
                field: "out_channels",
                ..
            }
        ),
        "{err}"
    );
}

#[test]
fn conv_spec_even_kernel_winograd_is_unsupported_algo() {
    let err = ConvSpec::builder()
        .in_channels(4)
        .out_channels(4)
        .kernel(4)
        .algo(ConvAlgo::Winograd { m: 2 })
        .build()
        .unwrap_err();
    assert!(matches!(err, WaError::UnsupportedAlgo { .. }), "{err}");
    // even kernels are fine for im2row
    assert!(ConvSpec::builder()
        .in_channels(4)
        .out_channels(4)
        .kernel(4)
        .build()
        .is_ok());
}

#[test]
fn conv_spec_winograd_kernel_beyond_five_is_unsupported_algo() {
    // the paper's Winograd kernels are r ∈ {3, 5}; an odd kernel past
    // that has no fused inference walk and must be refused up front
    let err = ConvSpec::builder()
        .in_channels(4)
        .out_channels(4)
        .kernel(7)
        .algo(ConvAlgo::Winograd { m: 2 })
        .build()
        .unwrap_err();
    assert!(matches!(err, WaError::UnsupportedAlgo { .. }), "{err}");
    assert!(err.to_string().contains("kernel"), "{err}");
    // im2row keeps any kernel
    assert!(ConvSpec::builder()
        .in_channels(4)
        .out_channels(4)
        .kernel(7)
        .build()
        .is_ok());
}

#[test]
fn conv_spec_kernel_eleven_f6_is_an_error_not_a_panic() {
    // F(6, 11) needs 15 Cook-Toom points, more than the default sequence
    // has: the spec must be refused before any transform is built
    let built = ConvSpec::builder()
        .in_channels(2)
        .out_channels(2)
        .kernel(11)
        .algo(ConvAlgo::Winograd { m: 6 })
        .build();
    assert!(
        matches!(built, Err(WaError::UnsupportedAlgo { .. })),
        "{built:?}"
    );
    // a spec mutated past the builder is re-validated by the layer
    let mut spec = ConvSpec::builder()
        .in_channels(2)
        .out_channels(2)
        .kernel(11)
        .build()
        .expect("im2row accepts kernel 11");
    spec.algo = ConvAlgo::Winograd { m: 6 };
    assert!(matches!(
        ConvLayer::from_spec(&spec, &mut SeededRng::new(0)),
        Err(WaError::UnsupportedAlgo { .. })
    ));
}

#[test]
fn conv_spec_winograd_stride_two_is_unsupported_algo() {
    let err = ConvSpec::builder()
        .in_channels(4)
        .out_channels(4)
        .stride(2)
        .algo(ConvAlgo::WinogradFlex { m: 2 })
        .build()
        .unwrap_err();
    assert!(matches!(err, WaError::UnsupportedAlgo { .. }), "{err}");
    assert!(err.to_string().contains("stride"), "{err}");
}

#[test]
fn conv_spec_unsupported_tile_is_unsupported_algo() {
    for m in [0usize, 1, 3, 5, 7, 8] {
        assert!(!SUPPORTED_TILE_SIZES.contains(&m));
        let err = ConvSpec::builder()
            .in_channels(4)
            .out_channels(4)
            .algo(ConvAlgo::Winograd { m })
            .build()
            .unwrap_err();
        assert!(
            matches!(err, WaError::UnsupportedAlgo { .. }),
            "m={m}: {err}"
        );
    }
}

#[test]
fn layer_specs_reject_zero_dims() {
    assert!(matches!(
        Conv2dSpec::builder("c").out_channels(1).build(),
        Err(WaError::InvalidSpec {
            spec: "Conv2dSpec",
            ..
        })
    ));
    assert!(matches!(
        LinearSpec::builder("l").in_features(3).build(),
        Err(WaError::InvalidSpec {
            spec: "LinearSpec",
            field: "out_features",
            ..
        })
    ));
    assert!(matches!(
        BatchNormSpec::builder("bn").build(),
        Err(WaError::InvalidSpec {
            spec: "BatchNormSpec",
            field: "channels",
            ..
        })
    ));
}

#[test]
fn model_spec_rejects_bad_fields() {
    assert!(matches!(
        ModelSpec::builder().classes(0).build(),
        Err(WaError::InvalidSpec {
            field: "classes",
            ..
        })
    ));
    assert!(matches!(
        ModelSpec::builder().width(-1.0).build(),
        Err(WaError::InvalidSpec { field: "width", .. })
    ));
    assert!(matches!(
        ModelSpec::builder()
            .algo(ConvAlgo::WinogradFlex { m: 3 })
            .build(),
        Err(WaError::UnsupportedAlgo { .. })
    ));
}

#[test]
fn every_model_rejects_an_invalid_spec_without_panicking() {
    // invalid at validate() time — shared across the zoo
    let bad = ModelSpec {
        classes: 0,
        width: 1.0,
        input_size: 32,
        quant: QuantConfig::FP32,
        algo: ConvAlgo::Im2row,
        overrides: vec![],
    };
    let mut rng = SeededRng::new(0);
    assert!(ResNet18::from_spec(&bad, &mut rng).is_err());
    assert!(LeNet::from_spec(&bad, &mut rng).is_err());
    assert!(SqueezeNet::from_spec(&bad, &mut rng).is_err());
    assert!(ResNeXt20::from_spec(&bad, &mut rng).is_err());
}

#[test]
fn surgery_to_unsupported_tile_is_rejected() {
    let mut rng = SeededRng::new(1);
    let spec = ConvSpec::builder()
        .in_channels(2)
        .out_channels(2)
        .build()
        .unwrap();
    let mut layer = ConvLayer::from_spec(&spec, &mut rng).unwrap();
    let err = layer.try_convert(ConvAlgo::Winograd { m: 8 }).unwrap_err();
    assert!(matches!(err, WaError::UnsupportedAlgo { .. }), "{err}");
    assert_eq!(layer.algo(), ConvAlgo::Im2row);
}

#[test]
fn winograd_weight_shape_mismatch_is_shape_error() {
    let mut rng = SeededRng::new(2);
    let spec = ConvSpec::builder()
        .in_channels(3)
        .out_channels(4)
        .algo(ConvAlgo::Winograd { m: 2 })
        .build()
        .unwrap();
    // wrong channel count in the carried weight
    let w = winograd_aware::nn::Param::new("w", rng.kaiming_tensor(&[4, 2, 3, 3]));
    let Err(err) = WinogradAwareConv2d::from_spec_with_weight(&spec, w, None) else {
        panic!("mismatched weight must be rejected")
    };
    assert!(matches!(err, WaError::ShapeMismatch { .. }), "{err}");
}

#[test]
fn try_forward_shape_errors_do_not_panic() {
    let mut rng = SeededRng::new(3);
    let conv_spec = Conv2dSpec::builder("c")
        .in_channels(3)
        .out_channels(4)
        .build()
        .unwrap();
    let mut conv = Conv2d::from_spec(&conv_spec, &mut rng).unwrap();
    let lin_spec = LinearSpec::builder("l")
        .in_features(8)
        .out_features(2)
        .build()
        .unwrap();
    let mut lin = Linear::from_spec(&lin_spec, &mut rng).unwrap();
    let bn_spec = BatchNormSpec::builder("bn").channels(3).build().unwrap();
    let mut bnorm = BatchNorm2d::from_spec(&bn_spec).unwrap();

    let mut tape = Tape::new();
    let wrong_nchw = tape.leaf(rng.uniform_tensor(&[1, 5, 8, 8], -1.0, 1.0));
    let wrong_mat = tape.leaf(rng.uniform_tensor(&[2, 7], -1.0, 1.0));
    assert!(matches!(
        conv.try_forward(&mut tape, wrong_nchw, false),
        Err(WaError::ShapeMismatch { .. })
    ));
    assert!(matches!(
        lin.try_forward(&mut tape, wrong_mat, false),
        Err(WaError::ShapeMismatch { .. })
    ));
    assert!(matches!(
        bnorm.try_forward(&mut tape, wrong_nchw, false),
        Err(WaError::ShapeMismatch { .. })
    ));
}

#[test]
fn model_try_forward_rejects_unpoolable_spatial_dims() {
    // inputs that would hit a max-pool on odd dims mid-network must come
    // back as errors, not panics — the serving contract of try_forward
    let mut rng = SeededRng::new(11);
    let spec = ModelSpec::builder()
        .classes(10)
        .width(0.125)
        .build()
        .unwrap();
    let mut tape = Tape::new();

    let mut resnet = ResNet18::from_spec(&spec, &mut rng).unwrap();
    let x = tape.leaf(rng.uniform_tensor(&[1, 3, 15, 15], -1.0, 1.0));
    assert!(matches!(
        resnet.try_forward(&mut tape, x, false),
        Err(WaError::ShapeMismatch { .. })
    ));

    let mut resnext = ResNeXt20::from_spec(&spec, &mut rng).unwrap();
    let x = tape.leaf(rng.uniform_tensor(&[1, 3, 10, 10], -1.0, 1.0));
    assert!(matches!(
        resnext.try_forward(&mut tape, x, false),
        Err(WaError::ShapeMismatch { .. })
    ));

    let mut squeeze = SqueezeNet::from_spec(&spec, &mut rng).unwrap();
    let x = tape.leaf(rng.uniform_tensor(&[1, 3, 18, 18], -1.0, 1.0));
    assert!(matches!(
        squeeze.try_forward(&mut tape, x, false),
        Err(WaError::ShapeMismatch { .. })
    ));
    // while a poolable 12x12 still forwards (covers the guarded pools)
    let x = tape.leaf(rng.uniform_tensor(&[1, 3, 12, 12], -1.0, 1.0));
    assert!(squeeze.try_forward(&mut tape, x, false).is_ok());

    let lenet_spec = ModelSpec::builder()
        .classes(10)
        .input_size(28)
        .build()
        .unwrap();
    let mut lenet = LeNet::from_spec(&lenet_spec, &mut rng).unwrap();
    let x = tape.leaf(rng.uniform_tensor(&[1, 1, 14, 14], -1.0, 1.0));
    assert!(matches!(
        lenet.try_forward(&mut tape, x, false),
        Err(WaError::ShapeMismatch { .. })
    ));
}

// ---- numerical equivalence: builder path vs surgery path --------------

/// A layer built directly as Winograd must compute the same function as
/// an im2row layer surgically converted to the same algorithm with the
/// same weights — i.e. the spec path introduces no numerical drift.
#[test]
fn builder_and_surgery_paths_are_numerically_identical() {
    for algo in [
        ConvAlgo::Winograd { m: 2 },
        ConvAlgo::Winograd { m: 4 },
        ConvAlgo::WinogradFlex { m: 4 },
    ] {
        let mut rng = SeededRng::new(7);
        let direct_spec = ConvSpec::builder()
            .name("eq")
            .in_channels(3)
            .out_channels(5)
            .build()
            .unwrap();
        let mut surgical = ConvLayer::from_spec(&direct_spec, &mut rng).unwrap();

        // builder path: same spec but with the Winograd algorithm, then
        // copy the weights over
        let wino_spec = direct_spec.with_algo(algo).unwrap();
        let mut built = ConvLayer::from_spec(&wino_spec, &mut rng).unwrap();
        let weights = match &surgical {
            ConvLayer::Direct(c) => c.weight.value.clone(),
            _ => unreachable!(),
        };
        match &mut built {
            ConvLayer::Winograd(w) => w.weight.value = weights,
            _ => unreachable!("spec with Winograd algo must build a Winograd layer"),
        }

        // surgery path
        surgical.try_convert(algo).unwrap();

        let x = rng.uniform_tensor(&[2, 3, 9, 9], -1.0, 1.0);
        let run = |l: &mut ConvLayer, x: &Tensor| {
            let mut tape = Tape::new();
            let xv = tape.leaf(x.clone());
            let y = l.try_forward(&mut tape, xv, false).unwrap();
            tape.value(y).clone()
        };
        let a = run(&mut built, &x);
        let b = run(&mut surgical, &x);
        assert_eq!(a.shape(), b.shape());
        for (p, q) in a.data().iter().zip(b.data()) {
            assert_eq!(
                p, q,
                "{algo}: builder and surgery outputs must match bit-for-bit"
            );
        }
    }
}

/// The read-back spec of a layer reconstructs a layer with identical
/// geometry and algorithm (construction is round-trippable).
#[test]
fn conv_spec_roundtrip_preserves_configuration() {
    let mut rng = SeededRng::new(8);
    let spec = ConvSpec::builder()
        .name("rt")
        .in_channels(6)
        .out_channels(12)
        .kernel(5)
        .pad(2)
        .algo(ConvAlgo::WinogradFlex { m: 2 })
        .quant(QuantConfig::uniform(BitWidth::INT8))
        .build()
        .unwrap();
    let layer = ConvLayer::from_spec(&spec, &mut rng).unwrap();
    let back = layer.spec();
    assert_eq!(back, spec);
}
