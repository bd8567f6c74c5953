//! Eager integer kernels for the [`Execution::Int8`] inference path of
//! the direct (im2row) convolution.
//!
//! [`Execution::Int8`]: wa_quant::Execution::Int8
//!
//! The fake-quant reference computes `Qout(im2row(Qin(x)) · Qw(w)ᵀ + b)`
//! in f32; this module computes the same pipeline with the quantize →
//! `gemm_i8` → requantize recipe: inputs are quantized to `i8` on the
//! observers' grids, the GEMM accumulates exactly in `i32`, and the
//! accumulator is rescaled onto the output grid with a fixed-point
//! [`Requantizer`] (bias folded in as `round(b/(s_in·s_w))`). The only
//! divergences from the reference are the f32 GEMM's accumulation
//! rounding and the ±1 fixed-point sliver, both sub-quantum — per
//! element the result is within 1 ulp-of-scale (`s_out`) of the
//! reference (the tolerance contract asserted by `tests/int8_parity.rs`
//! and documented in `docs/quantization.md`).

use wa_quant::{quantize_i8, BitWidth, QTensor, Requantizer};
use wa_tensor::{gemm_i8, Tensor, Transpose};

/// Pad + im2row over `i8` data: lowers quantized NCHW input (logical
/// shape `[n, c, h, w]`, zero padding `pad`) to patch rows
/// `[n·oh·ow, c·kh·kw]` with exactly the layout of the f32
/// `wa_tensor::im2row` (rows spatial-major, columns channel-major then
/// `ky`, `kx`). Padding is implicit: out-of-bounds taps read 0, which
/// is also what zero-padding the f32 input and quantizing produces.
#[allow(clippy::too_many_arguments)] // the flattened conv geometry
pub(crate) fn im2row_i8(
    src: &[i8],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> Vec<i8> {
    let oh = (h + 2 * pad - kh) / stride + 1;
    let ow = (w + 2 * pad - kw) / stride + 1;
    let patch = c * kh * kw;
    let mut rows = vec![0i8; n * oh * ow * patch];
    for img in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = &mut rows[((img * oh + oy) * ow + ox) * patch..][..patch];
                for ch in 0..c {
                    let plane = &src[(img * c + ch) * h * w..][..h * w];
                    for ky in 0..kh {
                        let y = oy * stride + ky;
                        if y < pad || y >= h + pad {
                            continue; // stays zero
                        }
                        let sy = y - pad;
                        for kx in 0..kw {
                            let x = ox * stride + kx;
                            if x < pad || x >= w + pad {
                                continue;
                            }
                            row[(ch * kh + ky) * kw + kx] = plane[sy * w + (x - pad)];
                        }
                    }
                }
            }
        }
    }
    rows
}

/// One direct convolution on the integer path:
/// quantize → `gemm_i8` → requantize, returning the f32 NCHW output on
/// the `s_out` grid (`q·s_out`, exactly like the reference's output-site
/// fake-quant).
///
/// `qw` is the prepacked weight (`[K, C, kh, kw]`, per-layer scale);
/// `bias` is the f32 bias, folded into the accumulator as
/// `round(b/(s_in·s_w))`. `s_in` and `s_out` are the calibrated input and
/// output scales.
#[allow(clippy::too_many_arguments)] // the flattened conv geometry
pub(crate) fn conv2d_int8(
    xt: &Tensor,
    qw: &QTensor,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
    s_in: f32,
    s_out: f32,
    abits: BitWidth,
) -> Tensor {
    let (n, c, h, w) = (xt.dim(0), xt.dim(1), xt.dim(2), xt.dim(3));
    let (k_out, kh, kw) = (qw.shape()[0], qw.shape()[2], qw.shape()[3]);
    let oh = (h + 2 * pad - kh) / stride + 1;
    let ow = (w + 2 * pad - kw) / stride + 1;
    let patch = c * kh * kw;
    let m = n * oh * ow;
    let s_w = qw.scale();

    let rows = {
        let qx = {
            let _span = wa_obs::stage_span!("int8.quantize");
            quantize_i8(xt, abits, s_in)
        };
        let _span = wa_obs::stage_span!("int8.im2row");
        im2row_i8(&qx, n, c, h, w, kh, kw, stride, pad)
    };

    let mut acc = vec![0i32; m * k_out];
    {
        let _span = wa_obs::stage_span!("int8.gemm");
        gemm_i8(
            &rows,
            Transpose::No,
            qw.data(),
            Transpose::Yes,
            m,
            patch,
            k_out,
            &mut acc,
        );
    }

    let _span = wa_obs::stage_span!("int8.requantize");
    let sq = s_in as f64 * s_w as f64;
    let bias_q: Vec<i32> = match bias {
        Some(b) => b
            .data()
            .iter()
            .map(|&v| {
                ((v as f64 / sq).round() as i64).clamp(i32::MIN as i64, i32::MAX as i64) as i32
            })
            .collect(),
        None => vec![0; k_out],
    };
    let ohw = oh * ow;
    let requant = Requantizer::new(sq / s_out as f64);
    let qmax = abits.qmax();

    // acc is [N·oh·ow, K]; emit NCHW [N, K, oh, ow] on the s_out grid
    let mut out = Tensor::zeros(&[n, k_out, oh, ow]);
    {
        let od = out.data_mut();
        for img in 0..n {
            for kc in 0..k_out {
                let bq = bias_q[kc];
                let dst = &mut od[(img * k_out + kc) * ohw..][..ohw];
                for (s, d) in dst.iter_mut().enumerate() {
                    let a = acc[(img * ohw + s) * k_out + kc].saturating_add(bq);
                    *d = requant.apply_clamped(a, qmax) as f32 * s_out;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wa_tensor::{im2row, pad_nchw, SeededRng};

    #[test]
    fn im2row_i8_matches_f32_layout() {
        let mut rng = SeededRng::new(5);
        let (n, c, h, w, k, stride, pad) = (2usize, 3, 6, 5, 3, 2, 1);
        let x = Tensor::from_fn(&[n, c, h, w], |_| rng.uniform(-100.0, 100.0).round());
        let qx: Vec<i8> = x.data().iter().map(|&v| v as i8).collect();
        let got = im2row_i8(&qx, n, c, h, w, k, k, stride, pad);
        let want = im2row(&pad_nchw(&x, pad), k, k, stride);
        assert_eq!(got.len(), want.len());
        for (g, f) in got.iter().zip(want.data()) {
            assert_eq!(*g as f32, *f);
        }
    }
}
