//! # wa-latency
//!
//! An analytical latency model of GEMM-based convolutions on the Arm
//! Cortex-A73 and Cortex-A53 cores of the HiKey 960 board the paper
//! benchmarks (its §5.3/§6.2).
//!
//! **Substitution notice** (see the README's *Substitutions* section):
//! the paper measures real hardware; this reproduction has none, so we
//! model it — a roofline per
//! pipeline stage (arithmetic vs memory traffic, plus per-GEMM-call
//! overheads), with parameters calibrated so the paper's published
//! *orderings and ratios* hold: im2row wins the input layer; F4/F6
//! alternate with output width via tile waste; F6 dominates ≥40×40;
//! transforms cost 25–75%; INT8 helps the A73 far more than the A53;
//! learned dense transforms add the Appendix A.2 penalty. wiNAS and
//! Table 3 consume exactly the interface the paper's measurements
//! provided: `(shape, algorithm, precision, core) → milliseconds`.
//!
//! # Example
//!
//! ```
//! use wa_latency::{conv_latency_ms, Core, DType, LatAlgo, LayerShape};
//!
//! let shape = LayerShape::square(128, 128, 16, 3);
//! let im2row = conv_latency_ms(Core::CortexA73, DType::Fp32, LatAlgo::Im2row, shape);
//! let f4 = conv_latency_ms(Core::CortexA73, DType::Fp32, LatAlgo::Winograd { m: 4 }, shape);
//! assert!(f4 < im2row); // Winograd wins mid-network layers on the A73
//! ```

mod cores;
mod model;
mod network;
mod sweep;

pub use cores::{Core, CoreSpec, DType};
pub use model::{conv_latency, conv_latency_ms, LatAlgo, LatencyBreakdown, LayerShape};
pub use network::{network_latency_ms, resnet18_shapes, uniform_config, LayerChoice};
pub use sweep::{
    figure7_sweep, figure8_bars, NormalizedBar, SweepCell, FIGURE7_ALGOS, FIGURE7_CHANNELS,
    FIGURE7_WIDTHS, FIGURE8_SHAPES,
};
