//! The integer ends of the fused Winograd walk, for the
//! [`Execution::Int8`] inference path.
//!
//! The tile walks themselves — gather, `Bᵀ·d·B`, `Aᵀ·y·A`, snaps, crop —
//! are [`crate::fused_walk`]'s, shared with the f32 path. This module
//! supplies what differs when the tap GEMM runs on `i8×i8→i32`: a sink
//! that quantizes each tap onto its i8 grid and writes it straight into
//! its slot of the pair-interleaved [`PackedBI8`] GEMM operand (no
//! row-major intermediate, no packing pass), and a source that reads the
//! i32 accumulators through the per-tap fixed-point [`Requantizer`]s
//! onto the Hadamard site's grid.
//!
//! **Bit-exactness.** The walk reproduces the tape's f32 arithmetic (see
//! its module docs); the sink's `round_clamp_i32(v / s, qmax)` is
//! `quantize_i8_taps`'s and the source's `apply_clamped(a, qmax)·s_h` is
//! the op-by-op requantize pass's. The unit tests below pin both halves
//! `==`-equal to the tape-op sequences they replace, so the int8 parity
//! contract is unchanged.
//!
//! [`Execution::Int8`]: wa_quant::Execution::Int8

use wa_quant::{round_clamp_i32, Requantizer};
use wa_tensor::{PackedBI8, Tensor};
use wa_winograd::TileGeometry;

use crate::fused_walk::{
    input_walk, output_walk, BackSnaps, FrontSnaps, Snap, TapSink, TapSource, LANES,
};

/// Quantization parameters of the fused input half: the per-layer
/// `Q(Bᵀ·d)` snap and the per-tap `Q(Bᵀ·d·B)` grids.
pub(crate) struct FrontQuant<'a> {
    /// Scale of the `Bᵀ·d` site.
    pub s_bd: f32,
    /// `qmax` of the activation bit-width at the `Bᵀ·d` site.
    pub qmax_bd: i32,
    /// Per-tap scales of the `Bᵀ·d·B` site (`n²` entries).
    pub v_scales: &'a [f32],
    /// Per-tap `qmax` values of the `Bᵀ·d·B` site (`n²` entries).
    pub v_qmaxes: &'a [i32],
}

/// Quantizes each tap onto its i8 grid (≡ `quantize_i8_taps`) and
/// stores it in its packed-GEMM slot (≡ permute + pack).
struct PanelSink<'a> {
    pb: &'a mut PackedBI8,
    scales: &'a [f32],
    qmaxes: &'a [i32],
}

impl TapSink for PanelSink<'_> {
    #[inline(always)]
    fn put(&mut self, tap: usize, ch: usize, g0: usize, live: usize, vals: &[f32; LANES]) {
        let (s, qmax) = (self.scales[tap], self.qmaxes[tap]);
        let mut q = [0i16; LANES];
        for (q, &v) in q.iter_mut().zip(vals) {
            *q = round_clamp_i32(v / s, qmax) as i16;
        }
        for (lane, &q) in q[..live].iter().enumerate() {
            *self.pb.slot(tap, ch, g0 + lane) = q;
        }
    }
}

/// Fused input half: walk the already-snapped input `xq` through
/// `Bᵀ·d·B` with a `Q(Bᵀ·d)` snap between the two one-sided products,
/// quantize each tap onto its i8 grid, and write the value straight into
/// its packed-GEMM slot of `pb` (logical layout `[n², C, B·T]`: batch
/// item = tap, row = input channel, column = global tile index).
///
/// Replaces `pad_tiles → gather_tiles → matmul_nt(bt) → fake_quant →
/// tile_transpose → matmul_nt(bt) → tile_transpose → quantize_i8_taps →
/// permute → pack`, bit-identically.
///
/// # Panics
///
/// Panics if shapes disagree with the geometry.
pub(crate) fn fused_input_pack(
    xq: &Tensor,
    bt: &Tensor,
    geom: &TileGeometry,
    fq: &FrontQuant,
    pb: &mut PackedBI8,
) {
    let taps = geom.tile() * geom.tile();
    assert_eq!(fq.v_scales.len(), taps, "per-tap scale count mismatch");
    assert_eq!(fq.v_qmaxes.len(), taps, "per-tap qmax count mismatch");
    assert_eq!(pb.batch(), taps, "packed operand tap count mismatch");
    assert_eq!(pb.k(), xq.dim(1), "packed operand channel count mismatch");
    assert_eq!(
        pb.n(),
        xq.dim(0) * geom.tiles(),
        "packed operand tile count mismatch"
    );
    let snaps = FrontSnaps {
        bd: Some(Snap {
            scale: fq.s_bd,
            qmax: fq.qmax_bd,
        }),
        ..FrontSnaps::default()
    };
    let mut sink = PanelSink {
        pb,
        scales: fq.v_scales,
        qmaxes: fq.v_qmaxes,
    };
    input_walk(xq, bt, geom, &snaps, &mut sink);
}

/// Quantization parameters of the fused output half: the per-tap
/// fixed-point requantizers onto the Hadamard grid, then the per-layer
/// `Q(Aᵀ·y)` and `Q(Aᵀ·y·A)` snaps.
pub(crate) struct BackQuant<'a> {
    /// Per-tap requantizers (`n²` entries, scale
    /// `s_filter·s_v / s_hadamard`).
    pub reqs: &'a [Requantizer],
    /// Hadamard-site scale.
    pub s_h: f32,
    /// `qmax` of the activation bit-width (Hadamard site).
    pub qmax_h: i32,
    /// Scale of the `Aᵀ·y` site.
    pub s_ay: f32,
    /// `qmax` at the `Aᵀ·y` site.
    pub qmax_ay: i32,
    /// Scale of the `Aᵀ·y·A` (output) site.
    pub s_aya: f32,
    /// `qmax` at the output site.
    pub qmax_aya: i32,
}

/// Reads `[n², K, B·T]` i32 accumulators onto the Hadamard grid (≡ the
/// per-tap `Requantizer` pass of the op-by-op path).
struct RequantSource<'a> {
    acc: &'a [i32],
    channels: usize,
    tiles: usize,
    bq: &'a BackQuant<'a>,
}

impl TapSource for RequantSource<'_> {
    #[inline(always)]
    fn get(&self, tap: usize, ch: usize, g0: usize, live: usize) -> [f32; LANES] {
        let o = (tap * self.channels + ch) * self.tiles + g0;
        let req = self.bq.reqs[tap];
        let mut v = [0f32; LANES];
        for (v, &a) in v.iter_mut().zip(&self.acc[o..o + live]) {
            *v = req.apply_clamped(a, self.bq.qmax_h) as f32 * self.bq.s_h;
        }
        v
    }
}

/// Fused output half: requantize each tile's `n²` i32 accumulators onto
/// the Hadamard grid, apply `Aᵀ·y·A` with a `Q(Aᵀ·y)` snap between the
/// one-sided products, add the bias, snap onto the output grid and write
/// the cropped `m×m` block into the NCHW output.
///
/// `acc` is `[n², K, B·T]` (tap-major, the integer GEMM's output).
/// Replaces `requantize → permute3 → matmul_nt(at) → fake_quant →
/// tile_transpose → matmul_nt(at) → tile_transpose → assemble_output →
/// add_bias_chan → fake_quant`, bit-identically.
///
/// # Panics
///
/// Panics if shapes disagree with the geometry.
pub(crate) fn fused_requant_output(
    acc: &[i32],
    at: &Tensor,
    geom: &TileGeometry,
    batch: usize,
    out_ch: usize,
    bias: Option<&[f32]>,
    bq: &BackQuant,
) -> Tensor {
    let taps = geom.tile() * geom.tile();
    let tiles = batch * geom.tiles();
    assert_eq!(
        acc.len(),
        taps * out_ch * tiles,
        "accumulator length mismatch"
    );
    assert_eq!(bq.reqs.len(), taps, "requantizer count mismatch");
    let src = RequantSource {
        acc,
        channels: out_ch,
        tiles,
        bq,
    };
    let snaps = BackSnaps {
        ay: Some(Snap {
            scale: bq.s_ay,
            qmax: bq.qmax_ay,
        }),
        aya: Some(Snap {
            scale: bq.s_aya,
            qmax: bq.qmax_aya,
        }),
    };
    output_walk(&src, at, geom, batch, out_ch, bias, &snaps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wa_nn::Tape;
    use wa_quant::{fake_quant_scale, quantize_i8_taps, BitWidth};
    use wa_tensor::SeededRng;
    use wa_winograd::WinogradTransform;

    /// The op-by-op tape sequence `fused_input_pack` replaces, yielding
    /// the packed operand it must reproduce bit-for-bit.
    fn reference_front(
        xq: &Tensor,
        bt: &Tensor,
        geom: &TileGeometry,
        fq: &FrontQuant,
        bits: &[BitWidth],
    ) -> Vec<i8> {
        let n = geom.tile();
        let (batch, c_in) = (xq.dim(0), xq.dim(1));
        let total_tiles = batch * geom.tiles();
        let mut tape = Tape::new();
        let x = tape.leaf(xq.clone());
        let btv = tape.leaf(bt.clone());
        let xp = tape.pad_tiles(x, *geom);
        let tiles = tape.gather_tiles(xp, *geom);
        let rows = total_tiles * c_in;
        let t1 = tape.reshape(tiles, &[rows * n, n]);
        let t2 = tape.matmul_nt(t1, btv);
        let t2q = tape.fake_quant(t2, BitWidth::INT8, fq.s_bd);
        let t3 = tape.reshape(t2q, &[rows, n * n]);
        let t4 = tape.tile_transpose(t3, n, n);
        let t5 = tape.reshape(t4, &[rows * n, n]);
        let t6 = tape.matmul_nt(t5, btv);
        let t7 = tape.reshape(t6, &[rows, n * n]);
        let v_pre = tape.tile_transpose(t7, n, n);
        let qv = quantize_i8_taps(tape.value(v_pre), bits, fq.v_scales);
        // permute [B·T·C, n²] → [n², C, B·T]
        let mut v_p = vec![0i8; qv.len()];
        for tile in 0..total_tiles {
            for c in 0..c_in {
                let src = &qv[(tile * c_in + c) * n * n..][..n * n];
                for (t, &q) in src.iter().enumerate() {
                    v_p[(t * c_in + c) * total_tiles + tile] = q;
                }
            }
        }
        v_p
    }

    /// The op-by-op tape sequence `fused_requant_output` replaces.
    #[allow(clippy::too_many_arguments)]
    fn reference_back(
        acc: &[i32],
        at: &Tensor,
        geom: &TileGeometry,
        batch: usize,
        out_ch: usize,
        bias: Option<&Tensor>,
        bq: &BackQuant,
    ) -> Tensor {
        let n = geom.tile();
        let m = geom.m;
        let taps = n * n;
        let total_tiles = batch * geom.tiles();
        let block = out_ch * total_tiles;
        let mut mm = Tensor::zeros(&[taps, out_ch, total_tiles]);
        let md = mm.data_mut();
        for (t, chunk) in md.chunks_mut(block).enumerate() {
            for (d, &a) in chunk.iter_mut().zip(&acc[t * block..]) {
                *d = bq.reqs[t].apply_clamped(a, bq.qmax_h) as f32 * bq.s_h;
            }
        }
        let mut tape = Tape::new();
        let mmv = tape.leaf(mm);
        let atv = tape.leaf(at.clone());
        let m3 = tape.permute3(mmv, [taps, out_ch, total_tiles], [2, 1, 0]);
        let orows = total_tiles * out_ch;
        let m_rows = tape.reshape(m3, &[orows, taps]);
        let o1 = tape.reshape(m_rows, &[orows * n, n]);
        let o2 = tape.matmul_nt(o1, atv);
        let o2q = tape.fake_quant(o2, BitWidth::INT8, bq.s_ay);
        let o3 = tape.reshape(o2q, &[orows, n * m]);
        let o4 = tape.tile_transpose(o3, n, m);
        let o5 = tape.reshape(o4, &[orows * m, n]);
        let o6 = tape.matmul_nt(o5, atv);
        let o7 = tape.reshape(o6, &[orows, m * m]);
        let y_rows = tape.tile_transpose(o7, m, m);
        let mut y = tape.assemble_output(y_rows, *geom, batch, out_ch);
        if let Some(b) = bias {
            let bv = tape.leaf(b.clone());
            y = tape.add_bias_chan(y, bv);
        }
        let yq = tape.fake_quant(y, BitWidth::INT8, bq.s_aya);
        tape.value(yq).clone()
    }

    fn geometry_cases() -> Vec<TileGeometry> {
        // every F(m, r) shape: exercises exact tiling, overrun cropping
        // and pad = 0 alongside the usual "same" padding
        vec![
            TileGeometry::for_conv(8, 8, 4, 3, 1),
            TileGeometry::for_conv(7, 10, 4, 3, 1),
            TileGeometry::for_conv(6, 5, 2, 3, 1),
            TileGeometry::for_conv(5, 5, 2, 3, 0),
            TileGeometry::for_conv(9, 7, 6, 3, 1),
            TileGeometry::for_conv(7, 9, 2, 5, 2),
            TileGeometry::for_conv(8, 8, 4, 5, 2),
            TileGeometry::for_conv(9, 6, 4, 5, 0),
            TileGeometry::for_conv(11, 8, 6, 5, 2),
        ]
    }

    #[test]
    fn fused_front_matches_op_by_op_pipeline_exactly() {
        let mut rng = SeededRng::new(97);
        for geom in geometry_cases() {
            let (m, r, n) = (geom.m, geom.r, geom.tile());
            let taps = n * n;
            let (batch, c_in) = (2usize, 3usize);
            let tr = WinogradTransform::cook_toom(m, r);
            let bt = tr.bt().clone();
            let xq = rng.uniform_tensor(&[batch, c_in, geom.in_h, geom.in_w], -1.0, 1.0);
            // snap the input like the real pipeline (values on a grid)
            let xq = fake_quant_scale(&xq, BitWidth::INT8, 1.0 / 127.0);
            let v_scales: Vec<f32> = (0..taps).map(|t| 0.01 + 0.003 * t as f32).collect();
            let v_qmaxes = vec![BitWidth::INT8.qmax(); taps];
            let bits = vec![BitWidth::INT8; taps];
            let fq = FrontQuant {
                s_bd: 0.021,
                qmax_bd: BitWidth::INT8.qmax(),
                v_scales: &v_scales,
                v_qmaxes: &v_qmaxes,
            };
            let total_tiles = batch * geom.tiles();
            let mut pb = PackedBI8::zeroed(taps, c_in, total_tiles);
            fused_input_pack(&xq, &bt, &geom, &fq, &mut pb);
            let reference = reference_front(&xq, &bt, &geom, &fq, &bits);
            assert_eq!(
                pb.unpack(),
                reference,
                "F({m},{r}) geom {}x{}",
                geom.in_h,
                geom.in_w
            );
        }
    }

    #[test]
    fn fused_back_matches_op_by_op_pipeline_exactly() {
        let mut rng = SeededRng::new(131);
        for geom in geometry_cases() {
            let (m, r, n) = (geom.m, geom.r, geom.tile());
            let taps = n * n;
            let (batch, out_ch) = (2usize, 4usize);
            let tr = WinogradTransform::cook_toom(m, r);
            let at = tr.at().clone();
            let total_tiles = batch * geom.tiles();
            let acc: Vec<i32> = (0..taps * out_ch * total_tiles)
                .map(|_| rng.uniform(-40_000.0, 40_000.0) as i32)
                .collect();
            let reqs: Vec<Requantizer> = (0..taps)
                .map(|t| Requantizer::new(2.4e-4 + 1e-5 * t as f64))
                .collect();
            let bias = rng.uniform_tensor(&[out_ch], -0.3, 0.3);
            let bq = BackQuant {
                reqs: &reqs,
                s_h: 0.034,
                qmax_h: BitWidth::INT8.qmax(),
                s_ay: 0.055,
                qmax_ay: BitWidth::INT8.qmax(),
                s_aya: 0.042,
                qmax_aya: BitWidth::INT8.qmax(),
            };
            for bias in [None, Some(&bias)] {
                let fused = fused_requant_output(
                    &acc,
                    &at,
                    &geom,
                    batch,
                    out_ch,
                    bias.map(|b| b.data()),
                    &bq,
                );
                let reference = reference_back(&acc, &at, &geom, batch, out_ch, bias, &bq);
                assert_eq!(fused.shape(), reference.shape());
                assert_eq!(
                    fused.data(),
                    reference.data(),
                    "F({m},{r}) geom {}x{} bias={}",
                    geom.in_h,
                    geom.in_w,
                    bias.is_some()
                );
            }
        }
    }
}
