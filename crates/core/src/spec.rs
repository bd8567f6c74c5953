//! The typed convolution spec: algorithm-aware, validated construction.
//!
//! [`ConvSpec`] is the workspace's description of one convolution layer —
//! the object the paper's experiments manipulate: geometry, the
//! [`ConvAlgo`] implementing it, and the [`QuantConfig`] it is trained
//! under. `ConvSpec::builder()` validates every paper constraint and
//! returns `Result`, so a serving system can reject a bad layer config
//! with a [`WaError`] instead of aborting:
//!
//! ```
//! use wa_core::{ConvAlgo, ConvLayer, ConvSpec};
//! use wa_nn::QuantConfig;
//! use wa_quant::BitWidth;
//! use wa_tensor::SeededRng;
//!
//! let spec = ConvSpec::builder()
//!     .name("conv")
//!     .in_channels(16)
//!     .out_channels(16)
//!     .kernel(3)
//!     .algo(ConvAlgo::WinogradFlex { m: 4 })
//!     .quant(QuantConfig::uniform(BitWidth::INT8))
//!     .build()?;
//! let layer = ConvLayer::from_spec(&spec, &mut SeededRng::new(0))?;
//! assert_eq!(layer.algo().tile_m(), Some(4));
//! # Ok::<(), wa_core::WaError>(())
//! ```

use wa_nn::{Conv2dSpec, QuantConfig, WaError};

use crate::conv_layer::ConvAlgo;

/// Output tile sizes with known-good Cook-Toom points (the paper's F2,
/// F4 and F6 configurations, §5.1).
pub const SUPPORTED_TILE_SIZES: [usize; 3] = [2, 4, 6];

/// Kernel sizes a Winograd layer accepts: the paper's `r ∈ {3, 5}`. With
/// [`SUPPORTED_TILE_SIZES`] this fixes the six `F(m, r)` shapes the fused
/// inference walk is instantiated for.
const SUPPORTED_KERNELS: [usize; 2] = [3, 5];

/// Validated configuration of an algorithm-switchable convolution layer.
///
/// Beyond the geometric constraints of a plain convolution, building a
/// `ConvSpec` enforces the paper's Winograd constraints:
///
/// * stride must be 1 ("there is no known equivalent for strided
///   Winograd convolutions", §5.1);
/// * the kernel must be 3 or 5 (Cook-Toom `F(m×m, r×r)` with
///   `r ∈ {3, 5}` in the paper; even kernels have no centered transform);
/// * the output tile `m` must come from [`SUPPORTED_TILE_SIZES`].
///
/// Every spec that passes runs on the fused inference walk: `(m, r)`
/// ranges over exactly the six shapes it is instantiated for.
#[derive(Clone, Debug, PartialEq)]
pub struct ConvSpec {
    /// Layer name (parameter-name prefix).
    pub name: String,
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Square kernel size `r`.
    pub kernel: usize,
    /// Stride (both dims). Must be 1 for Winograd algorithms.
    pub stride: usize,
    /// Zero padding (all sides).
    pub pad: usize,
    /// Whether the layer has a bias.
    pub bias: bool,
    /// The algorithm implementing the layer.
    pub algo: ConvAlgo,
    /// Quantization of weights, activations and (for Winograd-aware
    /// layers) every intermediate — including the transform-domain
    /// policy ([`QuantConfig::transform`]): under
    /// [`wa_quant::TapPolicy::PerTap`], a Winograd layer built from
    /// this spec calibrates one scale per tap position of the `BᵀdB` /
    /// `G·g·Gᵀ` tiles. The policy is inert for im2row (no Winograd
    /// domain to scale).
    pub quant: QuantConfig,
}

impl ConvSpec {
    /// Starts a builder. Defaults: name `"conv"`, `kernel` 3, `stride` 1,
    /// "same" padding (`kernel / 2`), no bias, [`ConvAlgo::Im2row`], FP32.
    pub fn builder() -> ConvSpecBuilder {
        ConvSpecBuilder {
            name: "conv".to_string(),
            in_channels: 0,
            out_channels: 0,
            kernel: 3,
            stride: 1,
            pad: None,
            bias: false,
            algo: ConvAlgo::Im2row,
            quant: QuantConfig::FP32,
        }
    }

    /// Checks every constraint, as `build()` does (useful after mutating
    /// a spec in place, e.g. a wiNAS algorithm mutation).
    ///
    /// # Errors
    ///
    /// [`WaError::InvalidSpec`] for bad geometry, [`WaError::UnsupportedAlgo`]
    /// for an unusable algorithm/geometry combination.
    pub fn validate(&self) -> Result<(), WaError> {
        let nonzero = |field: &'static str, v: usize| {
            if v == 0 {
                Err(WaError::invalid("ConvSpec", field, "must be nonzero"))
            } else {
                Ok(())
            }
        };
        nonzero("in_channels", self.in_channels)?;
        nonzero("out_channels", self.out_channels)?;
        nonzero("kernel", self.kernel)?;
        nonzero("stride", self.stride)?;
        if let Some(reason) = self.quant.int8_incompatibility() {
            return Err(WaError::invalid("ConvSpec", "quant.execution", reason));
        }
        validate_algo_geometry(self.algo, self.kernel, self.stride)
    }

    /// The input tile size `n = m + r − 1` of a Winograd spec, `None`
    /// for im2row.
    pub fn input_tile(&self) -> Option<usize> {
        self.algo.tile_m().map(|m| m + self.kernel - 1)
    }

    /// This spec's geometry as a direct-convolution [`Conv2dSpec`]
    /// (dropping the algorithm; used by the im2row path).
    pub fn as_conv2d_spec(&self) -> Result<Conv2dSpec, WaError> {
        Conv2dSpec::builder(self.name.clone())
            .in_channels(self.in_channels)
            .out_channels(self.out_channels)
            .kernel(self.kernel)
            .stride(self.stride)
            .pad(self.pad)
            .bias(self.bias)
            .quant(self.quant)
            .build()
    }

    /// Returns a copy with a different algorithm, re-validated — the
    /// mutation primitive wiNAS uses to move through the search space.
    ///
    /// # Errors
    ///
    /// [`WaError::UnsupportedAlgo`] if `algo` cannot implement this
    /// geometry.
    pub fn with_algo(&self, algo: ConvAlgo) -> Result<ConvSpec, WaError> {
        let mut spec = self.clone();
        spec.algo = algo;
        spec.validate()?;
        Ok(spec)
    }
}

/// Checks an algorithm against a layer geometry — the single source of
/// truth for "can `algo` implement a `kernel`×`kernel`, stride-`stride`
/// convolution", shared by spec building, surgery and wiNAS.
///
/// # Errors
///
/// [`WaError::UnsupportedAlgo`] naming the failing constraint.
pub fn validate_algo_geometry(algo: ConvAlgo, kernel: usize, stride: usize) -> Result<(), WaError> {
    let Some(m) = algo.tile_m() else {
        return Ok(()); // im2row supports any geometry
    };
    if !SUPPORTED_TILE_SIZES.contains(&m) {
        return Err(WaError::unsupported(
            algo,
            format!("output tile m must be one of {SUPPORTED_TILE_SIZES:?}, got {m}"),
        ));
    }
    if stride != 1 {
        return Err(WaError::unsupported(
            algo,
            format!("Winograd requires stride 1 (paper §5.1), got {stride}"),
        ));
    }
    if !SUPPORTED_KERNELS.contains(&kernel) {
        return Err(WaError::unsupported(
            algo,
            format!("Winograd requires a kernel in {SUPPORTED_KERNELS:?}, got {kernel}"),
        ));
    }
    Ok(())
}

/// Builder for [`ConvSpec`].
#[derive(Clone, Debug)]
pub struct ConvSpecBuilder {
    name: String,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    pad: Option<usize>,
    bias: bool,
    algo: ConvAlgo,
    quant: QuantConfig,
}

impl ConvSpecBuilder {
    /// Sets the layer name (default `"conv"`).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Sets the input channel count (required).
    pub fn in_channels(mut self, c: usize) -> Self {
        self.in_channels = c;
        self
    }

    /// Sets the output channel count (required).
    pub fn out_channels(mut self, c: usize) -> Self {
        self.out_channels = c;
        self
    }

    /// Sets the square kernel size (default 3).
    pub fn kernel(mut self, k: usize) -> Self {
        self.kernel = k;
        self
    }

    /// Sets the stride (default 1).
    pub fn stride(mut self, s: usize) -> Self {
        self.stride = s;
        self
    }

    /// Sets the zero padding (default `kernel / 2`, i.e. "same" at
    /// stride 1).
    pub fn pad(mut self, p: usize) -> Self {
        self.pad = Some(p);
        self
    }

    /// Enables/disables the bias (default off, as in the paper's models
    /// where batch norm follows every convolution).
    pub fn bias(mut self, b: bool) -> Self {
        self.bias = b;
        self
    }

    /// Sets the implementing algorithm (default [`ConvAlgo::Im2row`]).
    pub fn algo(mut self, a: ConvAlgo) -> Self {
        self.algo = a;
        self
    }

    /// Sets the quantization config (default FP32).
    pub fn quant(mut self, q: QuantConfig) -> Self {
        self.quant = q;
        self
    }

    /// Validates and produces the spec.
    ///
    /// # Errors
    ///
    /// [`WaError::InvalidSpec`] on zero dimensions;
    /// [`WaError::UnsupportedAlgo`] if a Winograd algorithm is combined
    /// with stride ≠ 1, a kernel other than 3 or 5, or an unsupported
    /// tile size.
    pub fn build(self) -> Result<ConvSpec, WaError> {
        let spec = ConvSpec {
            pad: self.pad.unwrap_or(self.kernel / 2),
            name: self.name,
            in_channels: self.in_channels,
            out_channels: self.out_channels,
            kernel: self.kernel,
            stride: self.stride,
            bias: self.bias,
            algo: self.algo,
            quant: self.quant,
        };
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wa_quant::BitWidth;

    fn base() -> ConvSpecBuilder {
        ConvSpec::builder().in_channels(8).out_channels(8)
    }

    #[test]
    fn paper_example_builds() {
        let spec = ConvSpec::builder()
            .in_channels(16)
            .out_channels(16)
            .kernel(3)
            .algo(ConvAlgo::WinogradFlex { m: 4 })
            .quant(QuantConfig::uniform(BitWidth::INT8))
            .build()
            .unwrap();
        assert_eq!(spec.pad, 1);
        assert_eq!(spec.input_tile(), Some(6));
    }

    #[test]
    fn zero_dims_rejected() {
        assert!(matches!(
            ConvSpec::builder().out_channels(8).build(),
            Err(WaError::InvalidSpec {
                field: "in_channels",
                ..
            })
        ));
        assert!(matches!(
            base().kernel(0).build(),
            Err(WaError::InvalidSpec {
                field: "kernel",
                ..
            })
        ));
    }

    #[test]
    fn winograd_with_stride_two_rejected() {
        let err = base()
            .stride(2)
            .algo(ConvAlgo::Winograd { m: 2 })
            .build()
            .unwrap_err();
        assert!(matches!(err, WaError::UnsupportedAlgo { .. }), "{err}");
        assert!(err.to_string().contains("stride 1"));
        // im2row at stride 2 stays fine
        assert!(base().stride(2).build().is_ok());
    }

    #[test]
    fn winograd_with_even_kernel_rejected() {
        for k in [1usize, 2, 4] {
            let err = base()
                .kernel(k)
                .algo(ConvAlgo::Winograd { m: 2 })
                .build()
                .unwrap_err();
            assert!(
                matches!(err, WaError::UnsupportedAlgo { .. }),
                "kernel {k}: {err}"
            );
        }
        assert!(base()
            .kernel(5)
            .algo(ConvAlgo::Winograd { m: 2 })
            .build()
            .is_ok());
    }

    #[test]
    fn unsupported_tile_sizes_rejected() {
        for m in [0usize, 1, 3, 5, 8] {
            let err = base().algo(ConvAlgo::Winograd { m }).build().unwrap_err();
            assert!(
                matches!(err, WaError::UnsupportedAlgo { .. }),
                "m={m}: {err}"
            );
        }
        for m in SUPPORTED_TILE_SIZES {
            assert!(base().algo(ConvAlgo::WinogradFlex { m }).build().is_ok());
        }
    }

    #[test]
    fn with_algo_revalidates() {
        let spec = base().stride(2).build().unwrap();
        assert!(spec.with_algo(ConvAlgo::Winograd { m: 4 }).is_err());
        let spec = base().build().unwrap();
        let f4 = spec.with_algo(ConvAlgo::Winograd { m: 4 }).unwrap();
        assert_eq!(f4.algo, ConvAlgo::Winograd { m: 4 });
    }
}
