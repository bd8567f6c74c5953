//! # wa-core
//!
//! The primary contribution of *Searching for Winograd-aware Quantized
//! Networks* (MLSys 2020), as a library:
//!
//! * [`ConvSpec`] — the typed, validated description of one convolution:
//!   geometry, [`ConvAlgo`] and quantization. Built through
//!   `ConvSpec::builder()`, which enforces every paper constraint
//!   (nonzero dims; Winograd ⇒ stride 1, kernel `r ∈ {3, 5}`, tile size
//!   `m ∈ {2, 4, 6}`) and returns `Result<_, WaError>` instead of
//!   panicking.
//! * [`WinogradAwareConv2d`] — a convolution layer evaluated explicitly as
//!   `Aᵀ[(G·g·Gᵀ) ⊙ (Bᵀ·d·B)]A` with every intermediate fake-quantized,
//!   so training absorbs the numerical error of the Winograd algorithm
//!   (paper §3.2, Figure 2). Transforms are Cook-Toom-initialized and,
//!   in `-flex` mode, learnable.
//! * [`ConvLayer`] / [`ConvAlgo`] — algorithm-switchable convolutions with
//!   in-place **surgery** (swap a trained im2row layer to Winograd, the
//!   Table 1 experiment; fallible via [`ConvLayer::try_convert`]) and the
//!   basis for wiNAS search.
//! * [`fit`] / [`evaluate`] / [`warm_up`] — the training pipeline used by
//!   every experiment, including the moving-average warm-up the paper
//!   applies before post-training swaps.
//!
//! # The construction idiom
//!
//! Every layer is built from a spec; invalid configurations are rejected
//! as values, which is what lets a serving front-end validate untrusted
//! layer configs without a `catch_unwind`:
//!
//! ```
//! use wa_core::{ConvAlgo, ConvLayer, ConvSpec, WaError};
//! use wa_nn::QuantConfig;
//! use wa_quant::BitWidth;
//! use wa_tensor::SeededRng;
//!
//! let mut rng = SeededRng::new(0);
//! // An INT8 Winograd-aware F4 layer with learnable transforms:
//! let spec = ConvSpec::builder()
//!     .name("c")
//!     .in_channels(16)
//!     .out_channels(16)
//!     .kernel(3)
//!     .algo(ConvAlgo::WinogradFlex { m: 4 })
//!     .quant(QuantConfig::uniform(BitWidth::INT8))
//!     .build()?;
//! let layer = ConvLayer::from_spec(&spec, &mut rng)?;
//! assert_eq!(layer.algo().tile_m(), Some(4));
//!
//! // Paper constraints surface as errors, not aborts:
//! let bad = ConvSpec::builder()
//!     .in_channels(16)
//!     .out_channels(16)
//!     .stride(2)
//!     .algo(ConvAlgo::Winograd { m: 4 })
//!     .build();
//! assert!(matches!(bad, Err(WaError::UnsupportedAlgo { .. })));
//! # Ok::<(), WaError>(())
//! ```

mod conv_layer;
mod fused_walk;
mod int8_pipeline;
mod spec;
mod trainer;
mod winograd_layer;

pub use conv_layer::{ConvAlgo, ConvLayer};
pub use spec::{validate_algo_geometry, ConvSpec, ConvSpecBuilder, SUPPORTED_TILE_SIZES};
pub use trainer::{
    evaluate, fit, train_step, warm_up, EpochStats, History, LabeledBatch, OptimKind, TrainConfig,
};
pub use wa_nn::WaError;
pub use winograd_layer::WinogradAwareConv2d;
