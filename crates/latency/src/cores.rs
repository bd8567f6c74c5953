//! Core descriptions and calibrated machine parameters.

/// The two HiKey 960 big.LITTLE cores the paper benchmarks (Table 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Core {
    /// High-performance out-of-order core: 2.4 GHz, 64 KB L1, 2048 KB L2.
    CortexA73,
    /// High-efficiency in-order core: 1.8 GHz, 32 KB L1, 512 KB L2.
    CortexA53,
}

/// Arithmetic precision of a deployed kernel. The paper measures FP32 and
/// INT8 ("INT16 measurements are not currently supported in Arm Compute
/// Library", §5.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DType {
    /// 32-bit float.
    Fp32,
    /// 16-bit integer (not measurable in Arm Compute Library at the time
    /// of the paper, §5.3; modeled by interpolation for wiNAS-Q).
    Int16,
    /// 8-bit integer.
    Int8,
}

impl DType {
    /// Bytes per element.
    pub fn bytes(self) -> f64 {
        match self {
            DType::Fp32 => 4.0,
            DType::Int16 => 2.0,
            DType::Int8 => 1.0,
        }
    }
}

impl std::fmt::Display for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Core::CortexA73 => write!(f, "Cortex-A73"),
            Core::CortexA53 => write!(f, "Cortex-A53"),
        }
    }
}

impl std::fmt::Display for DType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DType::Fp32 => write!(f, "FP32"),
            DType::Int16 => write!(f, "INT16"),
            DType::Int8 => write!(f, "INT8"),
        }
    }
}

/// Machine parameters of one core, calibrated against the paper's
/// published measurements (Figure 7/8, Table 3). See the README's
/// *Substitutions* section for the rationale: we model, rather than
/// measure, the HiKey 960.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CoreSpec {
    /// Core name.
    pub name: &'static str,
    /// Clock in GHz (Table 2).
    pub clock_ghz: f64,
    /// L1 data cache in KiB (Table 2).
    pub l1_kb: usize,
    /// L2 cache in KiB (Table 2).
    pub l2_kb: usize,
    /// Peak FP32 multiply–accumulates per cycle (NEON width × issue).
    pub peak_macs_fp32: f64,
    /// Peak INT8 MACs per cycle. The A73 gains ~2× from 8-bit dot
    /// products; the in-order A53 is bandwidth-bound and gains little
    /// (Table 3: im2row 118 → 117 ms).
    pub peak_macs_int8: f64,
    /// Sustained memory bandwidth in bytes per cycle (drives transform
    /// and lowering stages, which are gather/scatter bound).
    pub bytes_per_cycle: f64,
    /// Fixed overhead per GEMM call in cycles (packing, dispatch). The
    /// per-coordinate formulation issues `n²` small GEMMs per Winograd
    /// layer, so this term penalizes large tiles at small spatial sizes —
    /// producing Figure 7's "im2row wins small outputs" region.
    pub gemm_call_overhead: f64,
    /// Efficiency factor for transform-stage arithmetic relative to peak
    /// (strided access patterns; "gather and scatter across a wide area
    /// of memory", Appendix A.2).
    pub transform_eff: f64,
    /// Fixed cycles per transformed tile-channel (index arithmetic plus
    /// the cache-miss cost of gathering/scattering one tile).
    pub tile_overhead: f64,
}

impl Core {
    /// Calibrated parameters for this core.
    pub fn spec(self) -> CoreSpec {
        match self {
            Core::CortexA73 => CoreSpec {
                name: "Cortex-A73",
                clock_ghz: 2.4,
                l1_kb: 64,
                l2_kb: 2048,
                peak_macs_fp32: 3.4,
                peak_macs_int8: 5.4,
                bytes_per_cycle: 8.0,
                gemm_call_overhead: 2500.0,
                transform_eff: 0.42,
                tile_overhead: 60.0,
            },
            Core::CortexA53 => CoreSpec {
                name: "Cortex-A53",
                clock_ghz: 1.8,
                l1_kb: 32,
                l2_kb: 512,
                peak_macs_fp32: 2.0,
                // A53 lacks wide 8-bit dot product issue; GEMM gains are
                // modest and the memory system dominates.
                peak_macs_int8: 2.05,
                bytes_per_cycle: 3.0,
                gemm_call_overhead: 3500.0,
                transform_eff: 0.30,
                tile_overhead: 420.0,
            },
        }
    }

    /// Peak MACs/cycle at a precision.
    pub fn peak_macs(self, dtype: DType) -> f64 {
        let s = self.spec();
        match dtype {
            DType::Fp32 => s.peak_macs_fp32,
            // 16-bit sits between the float and 8-bit pipelines
            DType::Int16 => 0.5 * (s.peak_macs_fp32 + s.peak_macs_int8),
            DType::Int8 => s.peak_macs_int8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_specs() {
        let a73 = Core::CortexA73.spec();
        assert_eq!(a73.clock_ghz, 2.4);
        assert_eq!((a73.l1_kb, a73.l2_kb), (64, 2048));
        let a53 = Core::CortexA53.spec();
        assert_eq!(a53.clock_ghz, 1.8);
        assert_eq!((a53.l1_kb, a53.l2_kb), (32, 512));
    }

    #[test]
    fn a73_outclasses_a53() {
        let (a73, a53) = (Core::CortexA73.spec(), Core::CortexA53.spec());
        assert!(a73.peak_macs_fp32 > a53.peak_macs_fp32);
        assert!(a73.bytes_per_cycle > a53.bytes_per_cycle);
    }

    #[test]
    fn int8_gain_larger_on_a73() {
        let gain_a73 =
            Core::CortexA73.peak_macs(DType::Int8) / Core::CortexA73.peak_macs(DType::Fp32);
        let gain_a53 =
            Core::CortexA53.peak_macs(DType::Int8) / Core::CortexA53.peak_macs(DType::Fp32);
        // calibrated to Table 3: im2row FP32→INT8 is 1.57× on A73, 1.01× on A53
        assert!(
            gain_a73 > 1.4 && gain_a53 < 1.2,
            "{} vs {}",
            gain_a73,
            gain_a53
        );
    }
}
