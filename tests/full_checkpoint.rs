//! Spec-driven one-document checkpoints: `spec → build → export →
//! import → identical logits`, across architectures and algorithms, plus
//! the key-path diagnostics malformed documents must produce.

use winograd_aware::core::ConvAlgo;
use winograd_aware::models::{ExecutorConfig, Infer, ModelKind, ModelSpec, ZooModel};
use winograd_aware::nn::{
    Checkpoint, FullCheckpoint, Layer, QuantConfig, QuantSiteState, Tape, WaError,
};
use winograd_aware::quant::{BitWidth, Execution};
use winograd_aware::tensor::SeededRng;

const CFG: ExecutorConfig = ExecutorConfig {
    threads: 2,
    chunk: 2,
};

fn spec_for(kind: ModelKind, algo: ConvAlgo, quant: QuantConfig) -> ModelSpec {
    let builder = ModelSpec::builder().classes(10).algo(algo).quant(quant);
    match kind {
        ModelKind::LeNet => builder.input_size(12),
        _ => builder.input_size(8).width(0.125),
    }
    .build()
    .expect("static spec")
}

#[test]
fn one_document_roundtrip_reproduces_logits_across_the_zoo() {
    let mut rng = SeededRng::new(50);
    for kind in [ModelKind::LeNet, ModelKind::SqueezeNet] {
        for algo in [ConvAlgo::Im2row, ConvAlgo::Winograd { m: 2 }] {
            let spec = spec_for(kind, algo, QuantConfig::FP32);
            let mut original = ZooModel::from_spec(kind, &spec, &mut rng).expect("static spec");

            // the full wire round trip: struct → JSON text → struct
            let text = original
                .to_full_checkpoint()
                .expect("export")
                .to_json()
                .to_string_pretty();
            let doc = FullCheckpoint::from_json_str(&text).expect("document parses");
            let rebuilt = ZooModel::from_full_checkpoint(&doc).expect("rebuild");

            assert_eq!(rebuilt.kind(), kind);
            assert_eq!(rebuilt.spec(), &spec, "spec must survive the round trip");

            let [c, h, w] = original.sample_shape();
            let batch = rng.uniform_tensor(&[3, c, h, w], -1.0, 1.0);
            let want = original.try_forward_batch(&batch, CFG).expect("original");
            let got = rebuilt.try_forward_batch(&batch, CFG).expect("rebuilt");
            assert_eq!(
                want.data(),
                got.data(),
                "{kind}/{algo}: rebuilt model must produce identical logits"
            );
        }
    }
}

#[test]
fn quantized_flex_spec_survives_the_roundtrip() {
    // -flex transforms are parameters, so a trained (here: freshly
    // initialized) transform rides along in the document
    let mut rng = SeededRng::new(51);
    let spec = spec_for(
        ModelKind::LeNet,
        ConvAlgo::WinogradFlex { m: 2 },
        QuantConfig::uniform(BitWidth::INT8),
    );
    let mut original = ZooModel::from_spec(ModelKind::LeNet, &spec, &mut rng).expect("static spec");
    let text = original
        .to_full_checkpoint()
        .expect("export")
        .to_json()
        .to_string_compact();
    let rebuilt =
        ZooModel::from_full_checkpoint(&FullCheckpoint::from_json_str(&text).expect("parses"))
            .expect("rebuild");
    assert_eq!(rebuilt.spec().algo, ConvAlgo::WinogradFlex { m: 2 });
    assert_eq!(rebuilt.spec().quant, QuantConfig::uniform(BitWidth::INT8));

    let batch = rng.uniform_tensor(&[4, 1, 12, 12], -1.0, 1.0);
    let want = original.try_forward_batch(&batch, CFG).expect("original");
    let got = rebuilt.try_forward_batch(&batch, CFG).expect("rebuilt");
    assert_eq!(want.data(), got.data());
}

#[test]
fn calibrated_per_tap_scales_roundtrip_through_one_document() {
    // A warmed tap-wise INT8 F4 LeNet — non-uniform tap ranges *and*
    // non-uniform per-tap bit-widths — must serialize into the `quant`
    // section and reproduce bit-identical logits after the full
    // struct → JSON text → struct round trip.
    use winograd_aware::nn::{Layer, QuantStateMut, Tape};
    use winograd_aware::quant::BitWidth as B;

    let mut rng = SeededRng::new(53);
    let spec = spec_for(
        ModelKind::LeNet,
        ConvAlgo::Winograd { m: 4 },
        QuantConfig::per_tap(BitWidth::INT8),
    );
    let mut original = ZooModel::from_spec(ModelKind::LeNet, &spec, &mut rng).expect("static spec");
    // calibrate: one training batch gives every tap its own range
    {
        let warm = rng.uniform_tensor(&[4, 1, 12, 12], -1.0, 1.0);
        let mut tape = Tape::new();
        let x = tape.leaf(warm);
        let _ = original.forward(&mut tape, x, true);
    }
    // and make the tap *bit-widths* non-uniform too (mixed precision)
    original.visit_quant_state(&mut |name, site| {
        if let QuantStateMut::Taps(taps) = site {
            if name.ends_with(".q.bdb") {
                let mut bits = vec![B::INT8; taps.taps()];
                bits[0] = B::INT16;
                bits[taps.taps() - 1] = B::Int(6);
                taps.set_bit_overrides(Some(bits)).expect("right length");
            }
        }
    });

    let doc = original.to_full_checkpoint().expect("export");
    assert!(
        doc.quant.values().any(
            |s| matches!(s, winograd_aware::nn::QuantSiteState::Taps { ranges, .. }
                if ranges.iter().any(|r| (r - ranges[0]).abs() > 1e-9))
        ),
        "the exported quant section must contain non-uniform tap ranges"
    );

    let text = doc.to_json().to_string_pretty();
    assert!(
        text.contains("\"quant\""),
        "document must carry the section"
    );
    let parsed = FullCheckpoint::from_json_str(&text).expect("parses");
    let mut rebuilt = ZooModel::from_full_checkpoint(&parsed).expect("rebuild");

    let batch = rng.uniform_tensor(&[5, 1, 12, 12], -1.0, 1.0);
    let want = original.try_forward_batch(&batch, CFG).expect("original");
    let got = rebuilt.try_forward_batch(&batch, CFG).expect("rebuilt");
    assert_eq!(
        want.data(),
        got.data(),
        "per-tap calibration must survive the round trip bit-for-bit"
    );

    // the calibration itself round-trips verbatim, overrides included
    let re_exported = rebuilt.to_full_checkpoint().expect("re-export");
    assert_eq!(re_exported.quant, doc.quant);
}

#[test]
fn quant_section_errors_carry_the_offending_key_path() {
    // a malformed site state names `quant.<site>.<field>`
    let err = FullCheckpoint::from_json_str(
        "{\"arch\": \"lenet\", \"spec\": {}, \
         \"quant\": {\"conv1.q.bdb\": {\"ranges\": [0.5, \"x\"], \"seen\": 1, \"frozen\": false}}, \
         \"params\": {}}",
    )
    .expect_err("non-numeric range must fail");
    assert!(err.message.contains("`quant.conv1.q.bdb.ranges`"), "{err}");

    // a bad per-tap bit-width names its path too
    let err = FullCheckpoint::from_json_str(
        "{\"arch\": \"lenet\", \"spec\": {}, \
         \"quant\": {\"conv1.q.ggt\": {\"ranges\": [0.5], \"seen\": 1, \"frozen\": false, \
         \"bits\": [\"INT99\"]}}, \"params\": {}}",
    )
    .expect_err("bad bit width must fail");
    assert!(err.message.contains("`quant.conv1.q.ggt.bits`"), "{err}");

    // a parseable entry that does not fit the rebuilt model names the
    // site through the WaError surface
    let mut rng = SeededRng::new(54);
    let spec = spec_for(
        ModelKind::LeNet,
        ConvAlgo::Winograd { m: 2 },
        QuantConfig::per_tap(BitWidth::INT8),
    );
    let mut model = ZooModel::from_spec(ModelKind::LeNet, &spec, &mut rng).expect("static spec");
    let mut doc = model.to_full_checkpoint().expect("export");
    let key = "conv1.q.bdb".to_string();
    assert!(doc.quant.contains_key(&key), "fixture went stale");
    doc.quant.insert(
        key,
        winograd_aware::nn::QuantSiteState::Taps {
            ranges: vec![1.0; 3], // F2 with r=5 has 6×6 = 36 taps, not 3
            bits: None,
            seen: 1,
            frozen: false,
        },
    );
    let err = ZooModel::from_full_checkpoint(&doc).expect_err("tap count mismatch");
    assert!(err.to_string().contains("`quant.conv1.q.bdb`"), "{err}");
}

#[test]
fn spec_quant_errors_carry_the_spec_key_path() {
    // the `params.<name>` convention extends to the spec document:
    // a broken quant field surfaces as `spec.quant.<field>`
    let mut rng = SeededRng::new(55);
    let spec = spec_for(ModelKind::LeNet, ConvAlgo::Im2row, QuantConfig::FP32);
    let mut model = ZooModel::from_spec(ModelKind::LeNet, &spec, &mut rng).expect("static spec");
    let mut doc = model.to_full_checkpoint().expect("export");
    doc.spec = winograd_aware::tensor::Json::obj([
        ("classes", winograd_aware::tensor::Json::from(10usize)),
        ("input_size", winograd_aware::tensor::Json::from(12usize)),
        (
            "quant",
            winograd_aware::tensor::Json::obj([
                ("activations", "INT8"),
                ("weights", "INT8"),
                ("transform", "per-channel"),
            ]),
        ),
    ]);
    let err = ZooModel::from_full_checkpoint(&doc).expect_err("bad policy");
    assert!(err.to_string().contains("`spec.quant.transform`"), "{err}");
}

#[test]
fn checkpoint_parse_errors_carry_the_offending_key_path() {
    // a tensor entry that cannot decode must name `params.<name>`
    let err = Checkpoint::from_json_str(
        "{\"params\": {\"conv1.weight\": {\"shape\": [2, 2], \"data\": [1]}}}",
    )
    .expect_err("length mismatch must fail");
    assert!(
        err.message.contains("`params.conv1.weight`"),
        "message must carry the key path, got: {err}"
    );

    // a full checkpoint with a broken tensor reports the same path
    let err = FullCheckpoint::from_json_str(
        "{\"arch\": \"lenet\", \"spec\": {}, \
         \"params\": {\"fc1.bias\": {\"data\": [1]}}}",
    )
    .expect_err("missing shape must fail");
    assert!(err.message.contains("`params.fc1.bias`"), "{err}");
}

#[test]
fn tampered_spec_documents_are_rejected_with_field_names() {
    let mut rng = SeededRng::new(52);
    let spec = spec_for(ModelKind::LeNet, ConvAlgo::Im2row, QuantConfig::FP32);
    let mut model = ZooModel::from_spec(ModelKind::LeNet, &spec, &mut rng).expect("static spec");
    let mut doc = model.to_full_checkpoint().expect("export");

    // an unsupported tile size sneaks into the spec document
    doc.spec = winograd_aware::tensor::Json::obj([
        ("classes", winograd_aware::tensor::Json::from(10usize)),
        ("input_size", winograd_aware::tensor::Json::from(12usize)),
        ("algo", winograd_aware::tensor::Json::from("F3")),
    ]);
    let err = ZooModel::from_full_checkpoint(&doc).expect_err("F3 is unsupported");
    assert!(err.to_string().contains("F3"), "{err}");
}

#[test]
fn uncalibrated_int8_checkpoints_are_refused_at_load() {
    // int8 execution runs on calibrated scales only, so a document that
    // lost its calibration must fail `load_model`, not every request
    let mut rng = SeededRng::new(56);
    for algo in [ConvAlgo::Im2row, ConvAlgo::Winograd { m: 2 }] {
        let spec = spec_for(
            ModelKind::LeNet,
            algo,
            QuantConfig::per_tap(BitWidth::INT8).with_execution(Execution::Int8),
        );
        let mut model =
            ZooModel::from_spec(ModelKind::LeNet, &spec, &mut rng).expect("static spec");
        let mut tape = Tape::new();
        let x = tape.leaf(rng.uniform_tensor(&[4, 1, 12, 12], -1.0, 1.0));
        let _ = model.forward(&mut tape, x, true);
        let doc = model.to_full_checkpoint().expect("export");
        let rebuilt = ZooModel::from_full_checkpoint(&doc).expect("a calibrated int8 model loads");
        let batch = rng.uniform_tensor(&[2, 1, 12, 12], -1.0, 1.0);
        assert_eq!(
            model
                .try_forward_batch(&batch, CFG)
                .expect("original")
                .data(),
            rebuilt
                .try_forward_batch(&batch, CFG)
                .expect("rebuilt")
                .data(),
            "{algo}"
        );

        let refused = |doc: &FullCheckpoint, site: &str| {
            let err = ZooModel::from_full_checkpoint(doc)
                .err()
                .unwrap_or_else(|| panic!("{algo}: an uncalibrated int8 checkpoint must not load"));
            assert!(
                matches!(err, WaError::InvalidSpec { field: "quant", .. }),
                "{algo}: {err}"
            );
            assert!(
                err.to_string().contains(&format!("`quant.{site}`")),
                "{algo}: the error must name `quant.{site}`, got: {err}"
            );
        };

        // the quant section stripped: every site is cold, and the first
        // one the model visits is named
        let mut stripped = doc.clone();
        stripped.quant.clear();
        refused(&stripped, "conv1.q.input");

        // one site that never observed anything
        let mut one_cold = doc.clone();
        match one_cold.quant.get_mut("conv2.q.weight") {
            Some(QuantSiteState::Observer { seen, .. }) => *seen = 0,
            other => panic!("fixture went stale: {other:?}"),
        }
        refused(&one_cold, "conv2.q.weight");
    }
}
