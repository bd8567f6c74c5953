//! The fused Winograd inference walk: one pass over the tiles on the way
//! into the tap GEMM and one on the way out.
//!
//! Inference needs none of the ~15 full-size intermediates the training
//! tape materializes per convolution (pad, gather, two matmuls, snaps and
//! tile transposes per half, plus the tap permutes around the GEMM): a
//! tile's journey from NCHW input to its `n²` GEMM operands — and from
//! `n²` products to its cropped `m×m` output block — is a local
//! computation. [`input_walk`] reads the input in place (implicit zero
//! padding), applies `Bᵀ·d·B` and hands each tap to a [`TapSink`] laid
//! out tap-major `[n², C, B·T]`, the operand of one batched GEMM against
//! the tap-major filter `[n², K, C]`; [`output_walk`] reads the products
//! `[n², K, B·T]` through a [`TapSource`], applies `Aᵀ·y·A`, adds the
//! bias and writes the cropped NCHW output. The f32 path plugs in
//! [`PlaneSink`]/[`ProductSource`] over the per-thread [`with_scratch`]
//! buffers; the integer path plugs in its packed-i8 sink and requantizing
//! source (`int8_pipeline`).
//!
//! **Lane-parallel, channel-outer.** Both walks process [`LANES`]
//! adjacent global tile indices of one channel at a time, so every
//! one-sided product is a broadcast-multiply over 8 independent tiles
//! (two SSE registers; no shuffle, no horizontal sum) and each of the
//! `n²` tap planes is read or written as a contiguous run. Tile edges are
//! const generics, which unrolls the short dot products and hoists every
//! bounds check. The walks are monomorphized for every shape a validated
//! spec can name — `F(m, r)` with `m ∈ {2, 4, 6}` and `r ∈ {3, 5}`, i.e.
//! `(n, m)` ∈ {(4,2), (6,4), (8,6), (6,2), (8,4), (10,6)} — so there is
//! no other Winograd inference path.
//!
//! **Bit-exactness.** The oracle is the tape pipeline's op sequence:
//! `u[p,j] = Σ_q d[p,q]·Bᵀ[j,q]` then `v[i,j] = Σ_p Bᵀ[i,p]·u[p,j]` (and
//! the same with `Aᵀ` on the way out), each sum ascending from `0.0` with
//! a separate multiply and add — exactly what the f32 GEMM micro-kernel
//! computes for `matmul_nt`. [`Snap`] is `fake_quant_scale`'s
//! per-element arithmetic, applied at the sites the tape snaps; all data
//! movement (padding, tile transposes folded into index order, cropping)
//! is exact by construction. `tests/f32_fused_parity.rs` and the
//! `int8_pipeline` unit tests pin the result `==` to the tape's.

use std::cell::Cell;

use wa_quant::round_clamp_i32;
use wa_tensor::Tensor;
use wa_winograd::TileGeometry;

/// Tiles processed side by side: one GEMM panel width, two SSE registers.
pub(crate) const LANES: usize = 8;

/// Largest tap count (`n²` at `F(6, 5)`, `n = 10`).
pub(crate) const MAX_TAPS: usize = 100;

/// One warm quantization grid: `x ↦ clamp(round(x / scale), ±qmax) ·
/// scale`, the per-element arithmetic of `fake_quant_scale`. A site that
/// passes values through (FP32) is `None` wherever a snap is optional.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Snap {
    pub scale: f32,
    pub qmax: i32,
}

impl Snap {
    #[inline(always)]
    pub(crate) fn apply(self, v: f32) -> f32 {
        round_clamp_i32(v / self.scale, self.qmax) as f32 * self.scale
    }
}

#[inline(always)]
fn snap_lanes(snap: Option<Snap>, v: &mut [f32; LANES]) {
    if let Some(s) = snap {
        for x in v {
            *x = s.apply(*x);
        }
    }
}

/// The snaps of the input half: `Q(d)` at the gather, `Q(Bᵀ·d)` between
/// the one-sided products and `Q(Bᵀ·d·B)` per tap before the sink. The
/// default passes everything through (FP32).
#[derive(Clone, Copy)]
pub(crate) struct FrontSnaps {
    pub input: Option<Snap>,
    pub bd: Option<Snap>,
    pub bdb: [Option<Snap>; MAX_TAPS],
}

impl Default for FrontSnaps {
    fn default() -> Self {
        FrontSnaps {
            input: None,
            bd: None,
            bdb: [None; MAX_TAPS],
        }
    }
}

/// The snaps of the output half after the source: `Q(Aᵀ·y)` between the
/// one-sided products and `Q(Aᵀ·y·A)` on the biased output.
#[derive(Clone, Copy, Default)]
pub(crate) struct BackSnaps {
    pub ay: Option<Snap>,
    pub aya: Option<Snap>,
}

/// Where [`input_walk`] puts a transformed tap: logically element
/// `[tap, ch, g0..g0 + live]` of the `[n², C, B·T]` GEMM operand.
pub(crate) trait TapSink {
    fn put(&mut self, tap: usize, ch: usize, g0: usize, live: usize, vals: &[f32; LANES]);
}

/// Where [`output_walk`] gets a tile product: logically element
/// `[tap, ch, g0..g0 + live]` of the `[n², K, B·T]` GEMM result, already
/// on the Hadamard site's grid. Lanes past `live` are unspecified.
pub(crate) trait TapSource {
    fn get(&self, tap: usize, ch: usize, g0: usize, live: usize) -> [f32; LANES];
}

/// The f32 sink: a row-major `[n², C, B·T]` slice.
pub(crate) struct PlaneSink<'a> {
    pub dst: &'a mut [f32],
    pub channels: usize,
    pub tiles: usize,
}

impl TapSink for PlaneSink<'_> {
    #[inline(always)]
    fn put(&mut self, tap: usize, ch: usize, g0: usize, live: usize, vals: &[f32; LANES]) {
        let o = (tap * self.channels + ch) * self.tiles + g0;
        let dst = &mut self.dst[o..o + live];
        // full groups store a fixed-size run; only the tail pays a memcpy
        match <&mut [f32; LANES]>::try_from(&mut *dst) {
            Ok(full) => *full = *vals,
            Err(_) => dst.copy_from_slice(&vals[..live]),
        }
    }
}

/// The f32 source: a row-major `[n², K, B·T]` slice of GEMM products,
/// snapped onto the Hadamard grid as they are read.
pub(crate) struct ProductSource<'a> {
    pub src: &'a [f32],
    pub channels: usize,
    pub tiles: usize,
    pub hadamard: Option<Snap>,
}

impl TapSource for ProductSource<'_> {
    #[inline(always)]
    fn get(&self, tap: usize, ch: usize, g0: usize, live: usize) -> [f32; LANES] {
        let o = (tap * self.channels + ch) * self.tiles + g0;
        let src = &self.src[o..o + live];
        let mut v = [0f32; LANES];
        match <&[f32; LANES]>::try_from(src) {
            Ok(full) => v = *full,
            Err(_) => v[..live].copy_from_slice(src),
        }
        snap_lanes(self.hadamard, &mut v);
        v
    }
}

thread_local! {
    /// Grow-only GEMM operand (`V`) and result (`M`) of the f32 path,
    /// reused across the layers a thread runs.
    static SCRATCH: Cell<(Vec<f32>, Vec<f32>)> = const { Cell::new((Vec::new(), Vec::new())) };
}

/// Runs `f` on this thread's scratch slices of `v_len` and `m_len`
/// floats, growing them first if a larger layer than any before needs
/// it. Contents are whatever the previous user left.
pub(crate) fn with_scratch<R>(
    v_len: usize,
    m_len: usize,
    f: impl FnOnce(&mut [f32], &mut [f32]) -> R,
) -> R {
    SCRATCH.with(|cell| {
        let (mut v, mut m) = cell.take();
        if v.len() < v_len {
            v.resize(v_len, 0.0);
        }
        if m.len() < m_len {
            m.resize(m_len, 0.0);
        }
        let out = f(&mut v[..v_len], &mut m[..m_len]);
        cell.set((v, m));
        out
    })
}

/// A stack of `R×C` matrices, one per lane.
type Lanes<const R: usize, const C: usize> = [[[f32; LANES]; C]; R];

/// A transform matrix `[R, C]` copied out of its tensor, so every index
/// in the unrolled products is provably in bounds.
fn matrix<const R: usize, const C: usize>(t: &Tensor, what: &str) -> [[f32; C]; R] {
    assert_eq!(t.shape(), &[R, C], "{what} shape mismatch");
    let mut m = [[0f32; C]; R];
    for (row, src) in m.iter_mut().zip(t.data().chunks_exact(C)) {
        row.copy_from_slice(src);
    }
    m
}

/// `out[p][j] = Σ_q a[p][q]·mat[j][q]` per lane — `matmul_nt(a, mat)`.
#[inline(always)]
fn right_product<const P: usize, const Q: usize, const J: usize>(
    a: &Lanes<P, Q>,
    mat: &[[f32; Q]; J],
    out: &mut Lanes<P, J>,
) {
    for p in 0..P {
        for j in 0..J {
            let mut acc = [0f32; LANES];
            for q in 0..Q {
                let b = mat[j][q];
                for (cell, &av) in acc.iter_mut().zip(&a[p][q]) {
                    *cell += av * b;
                }
            }
            out[p][j] = acc;
        }
    }
}

/// `out[i][j] = Σ_p mat[i][p]·u[p][j]` per lane — the tape's
/// transpose → `matmul_nt(·, mat)` → transpose.
#[inline(always)]
fn left_product<const I: usize, const P: usize, const J: usize>(
    mat: &[[f32; P]; I],
    u: &Lanes<P, J>,
    out: &mut Lanes<I, J>,
) {
    for i in 0..I {
        for j in 0..J {
            let mut acc = [0f32; LANES];
            for p in 0..P {
                let b = mat[i][p];
                for (cell, &uv) in acc.iter_mut().zip(&u[p][j]) {
                    *cell += uv * b;
                }
            }
            out[i][j] = acc;
        }
    }
}

fn snap_all<const R: usize, const C: usize>(snap: Option<Snap>, x: &mut Lanes<R, C>) {
    if snap.is_some() {
        // per lane vector, not element by element: a doubly flattened
        // iterator does not vectorize
        for v in x.iter_mut().flatten() {
            snap_lanes(snap, v);
        }
    }
}

/// Position of one global tile index `img·T + ty·tiles_x + tx`, stepped
/// in index order so the walks never divide.
#[derive(Clone, Copy, Default)]
struct TileCursor {
    img: usize,
    ty: usize,
    tx: usize,
}

impl TileCursor {
    #[inline(always)]
    fn advance(&mut self, geom: &TileGeometry) {
        self.tx += 1;
        if self.tx == geom.tiles_x {
            self.tx = 0;
            self.ty += 1;
            if self.ty == geom.tiles_y {
                self.ty = 0;
                self.img += 1;
            }
        }
    }
}

/// Fused input half: NCHW `x` → `Bᵀ·d·B` → `sink`, replacing `pad_tiles →
/// gather_tiles → matmul_nt(bt) → Q → tile_transpose → matmul_nt(bt) →
/// tile_transpose → Q → permute3` bit-identically.
///
/// # Panics
///
/// Panics if `x`/`bt` disagree with the geometry or the tile edge is not
/// one a validated spec can name.
pub(crate) fn input_walk<S: TapSink>(
    x: &Tensor,
    bt: &Tensor,
    geom: &TileGeometry,
    snaps: &FrontSnaps,
    sink: &mut S,
) {
    match geom.tile() {
        4 => front::<4, S>(x, bt, geom, snaps, sink),
        6 => front::<6, S>(x, bt, geom, snaps, sink),
        8 => front::<8, S>(x, bt, geom, snaps, sink),
        10 => front::<10, S>(x, bt, geom, snaps, sink),
        n => panic!("fused input transform does not support tile edge {n}"),
    }
}

fn front<const N: usize, S: TapSink>(
    x: &Tensor,
    bt: &Tensor,
    geom: &TileGeometry,
    snaps: &FrontSnaps,
    sink: &mut S,
) {
    let btl = matrix::<N, N>(bt, "Bᵀ");
    let (batch, c_in, h, w) = (x.dim(0), x.dim(1), geom.in_h, geom.in_w);
    assert_eq!(
        (x.ndim(), x.dim(2), x.dim(3)),
        (4, h, w),
        "input does not match geometry"
    );
    let total = batch * geom.tiles();
    let (m, pad) = (geom.m as isize, geom.pad as isize);
    let src = x.data();
    let mut d = [[[0f32; LANES]; N]; N];
    let mut u = [[[0f32; LANES]; N]; N];
    let mut v = [[[0f32; LANES]; N]; N];
    for c in 0..c_in {
        let mut cur = TileCursor::default();
        for g0 in (0..total).step_by(LANES) {
            let live = LANES.min(total - g0);
            // gather d with implicit zero padding (≡ Q(d) → pad_tiles →
            // gather_tiles, whose halo reads are unsnapped zeros)
            for lane in 0..live {
                let plane = &src[(cur.img * c_in + c) * h * w..][..h * w];
                let y0 = cur.ty as isize * m - pad;
                let x0 = cur.tx as isize * m - pad;
                // columns [lo, hi) of the tile lie inside the image
                let lo = (-x0).clamp(0, N as isize) as usize;
                let hi = (w as isize - x0).clamp(lo as isize, N as isize) as usize;
                for (dy, row) in d.iter_mut().enumerate() {
                    let yy = y0 + dy as isize;
                    let (lo, hi) = if (0..h as isize).contains(&yy) {
                        (lo, hi)
                    } else {
                        (0, 0)
                    };
                    let (left, rest) = row.split_at_mut(lo);
                    let (mid, right) = rest.split_at_mut(hi - lo);
                    for cell in left.iter_mut().chain(right) {
                        cell[lane] = 0.0;
                    }
                    if !mid.is_empty() {
                        let s0 = (yy * w as isize + x0 + lo as isize) as usize;
                        for (cell, &v) in mid.iter_mut().zip(&plane[s0..s0 + hi - lo]) {
                            cell[lane] = snaps.input.map_or(v, |s| s.apply(v));
                        }
                    }
                }
                cur.advance(geom);
            }
            right_product(&d, &btl, &mut u);
            snap_all(snaps.bd, &mut u);
            left_product(&btl, &u, &mut v);
            for (i, row) in v.iter().enumerate() {
                for (j, vals) in row.iter().enumerate() {
                    let tap = i * N + j;
                    let mut vals = *vals;
                    snap_lanes(snaps.bdb[tap], &mut vals);
                    sink.put(tap, c, g0, live, &vals);
                }
            }
        }
    }
}

/// Fused output half: `src` → `Aᵀ·y·A` → bias → cropped NCHW output,
/// replacing `Q → permute3 → matmul_nt(at) → Q → tile_transpose →
/// matmul_nt(at) → tile_transpose → assemble_output → add_bias_chan → Q`
/// bit-identically. Allocates the output tensor and nothing else.
///
/// # Panics
///
/// Panics if `at`/`bias` disagree with the geometry or the tile shape is
/// not one a validated spec can name.
pub(crate) fn output_walk<S: TapSource>(
    src: &S,
    at: &Tensor,
    geom: &TileGeometry,
    batch: usize,
    out_ch: usize,
    bias: Option<&[f32]>,
    snaps: &BackSnaps,
) -> Tensor {
    match (geom.tile(), geom.m) {
        (4, 2) => back::<4, 2, S>(src, at, geom, batch, out_ch, bias, snaps),
        (6, 4) => back::<6, 4, S>(src, at, geom, batch, out_ch, bias, snaps),
        (8, 6) => back::<8, 6, S>(src, at, geom, batch, out_ch, bias, snaps),
        (6, 2) => back::<6, 2, S>(src, at, geom, batch, out_ch, bias, snaps),
        (8, 4) => back::<8, 4, S>(src, at, geom, batch, out_ch, bias, snaps),
        (10, 6) => back::<10, 6, S>(src, at, geom, batch, out_ch, bias, snaps),
        (n, m) => panic!("fused output transform does not support tile shape ({n}, {m})"),
    }
}

fn back<const N: usize, const M: usize, S: TapSource>(
    src: &S,
    at: &Tensor,
    geom: &TileGeometry,
    batch: usize,
    out_ch: usize,
    bias: Option<&[f32]>,
    snaps: &BackSnaps,
) -> Tensor {
    let atl = matrix::<M, N>(at, "Aᵀ");
    if let Some(b) = bias {
        assert_eq!(b.len(), out_ch, "bias length mismatch");
    }
    let total = batch * geom.tiles();
    let (oh, ow) = (geom.out_h, geom.out_w);
    let mut out = Tensor::zeros(&[batch, out_ch, oh, ow]);
    let dst = out.data_mut();
    let mut y = [[[0f32; LANES]; N]; N];
    let mut u = [[[0f32; LANES]; M]; N];
    let mut f = [[[0f32; LANES]; M]; M];
    for k in 0..out_ch {
        let mut cur = TileCursor::default();
        for g0 in (0..total).step_by(LANES) {
            let live = LANES.min(total - g0);
            for (p, row) in y.iter_mut().enumerate() {
                for (q, cell) in row.iter_mut().enumerate() {
                    *cell = src.get(p * N + q, k, g0, live);
                }
            }
            right_product(&y, &atl, &mut u);
            snap_all(snaps.ay, &mut u);
            left_product(&atl, &u, &mut f);
            // a layer without bias adds nothing (`+ 0.0` would turn a
            // −0.0 output into +0.0)
            if let Some(b) = bias {
                for v in f.iter_mut().flatten() {
                    for x in v {
                        *x += b[k];
                    }
                }
            }
            snap_all(snaps.aya, &mut f);
            // scatter each lane's block, cropped to the live region
            for lane in 0..live {
                let (y0, x0) = (cur.ty * M, cur.tx * M);
                let ylim = M.min(oh - y0);
                let xlim = M.min(ow - x0);
                let d0 = ((cur.img * out_ch + k) * oh + y0) * ow + x0;
                for (dy, row) in f.iter().enumerate().take(ylim) {
                    let drow = &mut dst[d0 + dy * ow..][..xlim];
                    for (cell, vals) in drow.iter_mut().zip(row) {
                        *cell = vals[lane];
                    }
                }
                cur.advance(geom);
            }
        }
    }
    out
}
