//! Architecture-dispatching model container for serving.
//!
//! A serving node receives a [`FullCheckpoint`] — architecture name +
//! [`ModelSpec`] document + parameters in one JSON file — and must turn
//! it into *something it can run* without knowing the concrete model type
//! at compile time. [`ZooModel`] is that something: any of the four paper
//! architectures behind a uniform [`Layer`] + [`Infer`] surface, tagged
//! with the spec it was built from (so per-sample input shapes can be
//! validated before a request is admitted into a shared batch).
//!
//! ```
//! use wa_models::{ModelKind, ModelSpec, ZooModel};
//! use wa_tensor::SeededRng;
//!
//! let spec = ModelSpec::builder().classes(10).input_size(12).build()?;
//! let mut rng = SeededRng::new(0);
//! let mut model = ZooModel::from_spec(ModelKind::LeNet, &spec, &mut rng)?;
//! assert_eq!(model.sample_shape(), [1, 12, 12]);
//!
//! // one-document round trip: export → re-import elsewhere
//! let doc = model.to_full_checkpoint()?;
//! let rebuilt = ZooModel::from_full_checkpoint(&doc)?;
//! assert_eq!(rebuilt.kind(), ModelKind::LeNet);
//! # Ok::<(), wa_nn::WaError>(())
//! ```

use wa_nn::{
    export_params, export_quant_state, import_params, import_quant_state, CheckpointError,
    FullCheckpoint, Infer, Layer, Param, QuantStateMut, Tape, Var, WaError,
};
use wa_quant::Execution;
use wa_tensor::SeededRng;

use crate::lenet::LeNet;
use crate::resnet::ResNet18;
use crate::resnext::ResNeXt20;
use crate::spec::ModelSpec;
use crate::squeezenet::SqueezeNet;

/// The four architectures of the paper's model zoo, by serving name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// LeNet with 5×5 filters (single-channel inputs).
    LeNet,
    /// The paper's CIFAR ResNet-18 variant.
    ResNet18,
    /// SqueezeNet (Table 4).
    SqueezeNet,
    /// ResNeXt-20, cardinality 8 (Table 5).
    ResNeXt20,
}

impl ModelKind {
    /// Every architecture, in zoo order.
    pub const ALL: [ModelKind; 4] = [
        ModelKind::LeNet,
        ModelKind::ResNet18,
        ModelKind::SqueezeNet,
        ModelKind::ResNeXt20,
    ];

    /// The wire/checkpoint name (`"lenet"`, `"resnet18"`, …).
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::LeNet => "lenet",
            ModelKind::ResNet18 => "resnet18",
            ModelKind::SqueezeNet => "squeezenet",
            ModelKind::ResNeXt20 => "resnext20",
        }
    }

    /// Input channel count of the architecture's expected NCHW input.
    pub fn in_channels(self) -> usize {
        match self {
            ModelKind::LeNet => 1,
            _ => 3,
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ModelKind {
    type Err = WaError;

    fn from_str(s: &str) -> Result<ModelKind, WaError> {
        let t = s.trim().to_ascii_lowercase();
        ModelKind::ALL
            .into_iter()
            .find(|k| k.name() == t)
            .ok_or_else(|| {
                WaError::invalid(
                    "FullCheckpoint",
                    "arch",
                    format!(
                        "unknown architecture `{s}` (expected one of {:?})",
                        ModelKind::ALL.map(|k| k.name())
                    ),
                )
            })
    }
}

/// Maps a [`CheckpointError`] raised while applying a full checkpoint's
/// params into the [`WaError`] vocabulary serving responses use.
fn import_error(e: CheckpointError) -> WaError {
    match e {
        CheckpointError::ShapeMismatch {
            name,
            expected,
            found,
        } => WaError::shape(format!("checkpoint parameter `{name}`"), &expected, &found),
        CheckpointError::QuantState { name, reason } => WaError::invalid(
            "FullCheckpoint",
            "quant",
            format!("`quant.{name}`: {reason}"),
        ),
        other => WaError::invalid("FullCheckpoint", "params", other.to_string()),
    }
}

/// Prefixes a spec-document parse error's message with the checkpoint
/// key path (`spec.<field>`), extending the `params.<name>` convention
/// to the spec half of the document.
fn spec_error(e: WaError) -> WaError {
    match e {
        WaError::InvalidSpec {
            spec,
            field,
            reason,
        } => WaError::InvalidSpec {
            spec,
            field,
            reason: format!("at `spec.{field}`: {reason}"),
        },
        other => other,
    }
}

/// The concrete network, dispatched at runtime (boxed: the variants are
/// whole models of very different sizes).
#[allow(clippy::enum_variant_names)] // the variants are architecture names
enum Net {
    LeNet(Box<LeNet>),
    ResNet18(Box<ResNet18>),
    SqueezeNet(Box<SqueezeNet>),
    ResNeXt20(Box<ResNeXt20>),
}

/// One model of the zoo behind a uniform [`Layer`] + [`Infer`] surface,
/// tagged with the [`ModelSpec`] it was built from. See the
/// module-level docs above for the serving round trip.
pub struct ZooModel {
    kind: ModelKind,
    spec: ModelSpec,
    net: Net,
}

impl std::fmt::Debug for ZooModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ZooModel")
            .field("kind", &self.kind)
            .field("spec", &self.spec)
            .finish_non_exhaustive()
    }
}

impl ZooModel {
    /// Builds the architecture `kind` from a validated spec.
    ///
    /// # Errors
    ///
    /// Whatever the concrete model's `from_spec` raises.
    pub fn from_spec(
        kind: ModelKind,
        spec: &ModelSpec,
        rng: &mut SeededRng,
    ) -> Result<ZooModel, WaError> {
        let net = match kind {
            ModelKind::LeNet => Net::LeNet(Box::new(LeNet::from_spec(spec, rng)?)),
            ModelKind::ResNet18 => Net::ResNet18(Box::new(ResNet18::from_spec(spec, rng)?)),
            ModelKind::SqueezeNet => Net::SqueezeNet(Box::new(SqueezeNet::from_spec(spec, rng)?)),
            ModelKind::ResNeXt20 => Net::ResNeXt20(Box::new(ResNeXt20::from_spec(spec, rng)?)),
        };
        Ok(ZooModel {
            kind,
            spec: spec.clone(),
            net,
        })
    }

    /// Which architecture this is.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// The spec the model was built from.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// The `[C, H, W]` shape of one input sample — what a serving
    /// scheduler validates each request against before admitting it into
    /// a shared `[N, C, H, W]` batch.
    pub fn sample_shape(&self) -> [usize; 3] {
        let s = self.spec.input_size;
        [self.kind.in_channels(), s, s]
    }

    /// Exports architecture + spec + calibration state + parameters as
    /// one document. The `quant` section carries every calibration site
    /// ([`Layer::visit_quant_state`]): quantizer ranges — including the
    /// per-tap scales of tap-wise Winograd layers — and batch-norm
    /// running moments, so a serving node reproduces this process's
    /// logits bit-for-bit.
    ///
    /// # Errors
    ///
    /// [`WaError::InvalidSpec`] if parameter or site names collide (they
    /// never do for zoo-built models).
    pub fn to_full_checkpoint(&mut self) -> Result<FullCheckpoint, WaError> {
        let arch = self.kind.name().to_string();
        let spec = self.spec.to_json();
        let quant = export_quant_state(self.as_layer())
            .map_err(|e| WaError::invalid("FullCheckpoint", "quant", e.to_string()))?;
        let params = export_params(self.as_layer())
            .map_err(|e| WaError::invalid("FullCheckpoint", "params", e.to_string()))?;
        Ok(FullCheckpoint {
            arch,
            spec,
            quant,
            params,
        })
    }

    /// Reconstructs a runnable model from a one-document checkpoint:
    /// parse `arch` → validate `spec` → build (deterministic placeholder
    /// init) → import `params` atomically → restore the `quant`
    /// calibration (when the document carries one). An
    /// [`Execution::Int8`] model runs on calibrated scales only, so every
    /// quantization site must arrive with observations.
    ///
    /// # Errors
    ///
    /// [`WaError::InvalidSpec`] for an unknown architecture, a spec
    /// violating a paper constraint (the offending checkpoint path, e.g.
    /// `` `spec.quant.transform` ``, rides in the message), a `quant`
    /// entry that does not fit the rebuilt model, or an int8 model with a
    /// site that has no observations (named as `` `quant.<site>` ``);
    /// [`WaError::ShapeMismatch`] naming the parameter when a stored
    /// tensor disagrees with the built model.
    pub fn from_full_checkpoint(doc: &FullCheckpoint) -> Result<ZooModel, WaError> {
        let kind: ModelKind = doc.arch.parse()?;
        let spec = ModelSpec::from_json(&doc.spec).map_err(spec_error)?;
        // the init is overwritten wholesale by the import, so any seed works
        let mut rng = SeededRng::new(0);
        let mut out = ZooModel::from_spec(kind, &spec, &mut rng)?;
        import_params(out.as_layer(), &doc.params).map_err(import_error)?;
        import_quant_state(out.as_layer(), &doc.quant).map_err(import_error)?;
        if spec.quant.execution == Execution::Int8 {
            let mut cold = None;
            out.visit_quant_state(&mut |name, state| {
                let seen = match state {
                    QuantStateMut::Observer(o) => o.observations(),
                    QuantStateMut::Taps(t) => t.observations(),
                    QuantStateMut::BatchNorm { .. } => return,
                };
                if seen == 0 && cold.is_none() {
                    cold = Some(name.to_string());
                }
            });
            if let Some(site) = cold {
                return Err(WaError::invalid(
                    "FullCheckpoint",
                    "quant",
                    format!(
                        "int8 execution requires calibrated quantization state, \
                         but `quant.{site}` has no observations"
                    ),
                ));
            }
        }
        Ok(out)
    }

    fn as_layer(&mut self) -> &mut dyn Layer {
        match &mut self.net {
            Net::LeNet(m) => m.as_mut(),
            Net::ResNet18(m) => m.as_mut(),
            Net::SqueezeNet(m) => m.as_mut(),
            Net::ResNeXt20(m) => m.as_mut(),
        }
    }

    fn as_infer(&self) -> &(dyn Infer + Sync) {
        match &self.net {
            Net::LeNet(m) => m.as_ref(),
            Net::ResNet18(m) => m.as_ref(),
            Net::SqueezeNet(m) => m.as_ref(),
            Net::ResNeXt20(m) => m.as_ref(),
        }
    }
}

impl Layer for ZooModel {
    fn forward(&mut self, tape: &mut Tape, x: Var, train: bool) -> Var {
        self.as_layer().forward(tape, x, train)
    }

    fn try_forward(&mut self, tape: &mut Tape, x: Var, train: bool) -> Result<Var, WaError> {
        self.as_layer().try_forward(tape, x, train)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.as_layer().visit_params(f)
    }

    fn reset_statistics(&mut self) {
        self.as_layer().reset_statistics()
    }

    fn visit_quant_state(&mut self, f: &mut dyn FnMut(&str, QuantStateMut<'_>)) {
        self.as_layer().visit_quant_state(f)
    }
}

impl Infer for ZooModel {
    fn infer(&self, tape: &mut Tape, x: Var) -> Result<Var, WaError> {
        self.as_infer().infer(tape, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wa_core::ConvAlgo;
    use wa_nn::ExecutorConfig;
    use wa_tensor::Tensor;

    fn lenet_spec() -> ModelSpec {
        ModelSpec::builder()
            .classes(10)
            .input_size(12)
            .algo(ConvAlgo::Winograd { m: 2 })
            .build()
            .unwrap()
    }

    #[test]
    fn kind_names_roundtrip() {
        for kind in ModelKind::ALL {
            assert_eq!(kind.name().parse::<ModelKind>().unwrap(), kind);
        }
        assert!("alexnet".parse::<ModelKind>().is_err());
    }

    #[test]
    fn full_checkpoint_roundtrip_reproduces_batched_logits() {
        let mut rng = SeededRng::new(20);
        let mut a = ZooModel::from_spec(ModelKind::LeNet, &lenet_spec(), &mut rng).unwrap();
        let doc = a.to_full_checkpoint().unwrap();
        let text = doc.to_json().to_string_pretty();
        let parsed = FullCheckpoint::from_json_str(&text).unwrap();
        let b = ZooModel::from_full_checkpoint(&parsed).unwrap();
        assert_eq!(b.kind(), ModelKind::LeNet);
        assert_eq!(b.sample_shape(), [1, 12, 12]);

        let batch = rng.uniform_tensor(&[4, 1, 12, 12], -1.0, 1.0);
        let cfg = ExecutorConfig {
            threads: 2,
            chunk: 2,
        };
        let want = a.try_forward_batch(&batch, cfg).unwrap();
        let got = b.try_forward_batch(&batch, cfg).unwrap();
        assert_eq!(want.data(), got.data());
    }

    #[test]
    fn wrong_shaped_params_fail_with_parameter_name() {
        let mut rng = SeededRng::new(21);
        let mut a = ZooModel::from_spec(ModelKind::LeNet, &lenet_spec(), &mut rng).unwrap();
        let mut doc = a.to_full_checkpoint().unwrap();
        let name = "conv1.weight".to_string();
        assert!(doc.params.params.contains_key(&name), "fixture went stale");
        doc.params.params.insert(name.clone(), Tensor::zeros(&[1]));
        let err = ZooModel::from_full_checkpoint(&doc).unwrap_err();
        match err {
            WaError::ShapeMismatch { context, .. } => assert!(context.contains(&name)),
            other => panic!("expected ShapeMismatch, got {other}"),
        }
    }

    #[test]
    fn unknown_arch_is_rejected() {
        let doc = FullCheckpoint {
            arch: "vgg".to_string(),
            spec: lenet_spec().to_json(),
            quant: Default::default(),
            params: Default::default(),
        };
        assert!(matches!(
            ZooModel::from_full_checkpoint(&doc),
            Err(WaError::InvalidSpec { field: "arch", .. })
        ));
    }
}
