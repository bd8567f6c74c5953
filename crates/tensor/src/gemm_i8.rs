//! Packed integer GEMM: `i8×i8 → i32` accumulation for the true INT8
//! inference path.
//!
//! The kernel mirrors the f32 GEMM's GotoBLAS shape (`B` panel-packed
//! into NR-wide strips, KC×MC cache blocking, a const-generic register
//! tile) but widens both operands to `i16` at pack time so the hot loop
//! can run on `pmaddwd` (`_mm_madd_epi16`): one instruction computes
//! eight `i16·i16` products and pairwise-adds them into four `i32`
//! lanes. `pmaddwd` is baseline SSE2, available on every `x86_64`
//! target without feature detection; other architectures take a scalar
//! loop over the identical packed layout.
//!
//! Unlike the f32 kernel there is **no tolerance story**: `i8·i8`
//! products and `i32` additions are exact, so any blocking, panel or
//! thread split computes bit-identical results. `gemm_i8` is therefore
//! pinned *exactly equal* to a naive `i32` triple loop
//! (`tests/gemm_i8_regression.rs`), for every shape and worker count.
//!
//! Accumulator range: each pairwise `pmaddwd` term is at most
//! `2·127² < 2¹⁶`, so the `i32` accumulator is exact for any
//! `k ≤ 2³¹/2¹⁵` — far beyond every convolution this crate lowers
//! (`k = C·r²` or `k = C`).

use crate::gemm::{gemm_threads, Transpose, PARALLEL_THRESHOLD};
use std::cell::Cell;
use std::sync::{Arc, OnceLock};

/// Columns per packed `B` panel (and per register tile).
const NR: usize = 8;

/// Rows per register tile: `MR·NR` i32 accumulators fill 8 SSE registers.
const MR: usize = 4;

/// K-panel depth in **i16 elements** (always even, so panels split on
/// `pmaddwd` pair boundaries). One `B` strip is `KC·NR·2` bytes = 8 KiB,
/// L1-resident across a whole row block.
const KC: usize = 512;

/// Rows per `A` block per K-panel pass (`MC·KC` i16 = 64 KiB from L2).
const MC: usize = 64;

thread_local! {
    /// Reused scratch for widening-packing `A` rows.
    static PACK_A_I16: Cell<Vec<i16>> = const { Cell::new(Vec::new()) };

    /// Reused scratch for panel-packing `B`.
    static PACK_B_I16: Cell<Vec<i16>> = const { Cell::new(Vec::new()) };
}

/// Bumps `wa_gemm_i8_calls_total{kind=...}` through a per-kind cached
/// handle: one relaxed atomic add per GEMM call.
fn count_gemm_i8_call(cell: &OnceLock<Arc<wa_obs::Counter>>, kind: &'static str) {
    cell.get_or_init(|| {
        wa_obs::counter_with(
            "wa_gemm_i8_calls_total",
            "Integer (i8×i8→i32) GEMM invocations, by kind (single 2-D products vs batched Winograd-coordinate products).",
            &[("kind", kind)],
        )
    })
    .inc();
}

/// Computes `op_a(a) · op_b(b)` over `i8` operands with exact `i32`
/// accumulation, writing the `[m, n]` product into `out`.
///
/// `op_a(a)` is `[m, k]` and `op_b(b)` is `[k, n]` after applying the
/// [`Transpose`] flags (a transposed operand is stored `[k, m]` /
/// `[n, k]`). Both operands are repacked — `A` widened to row-major
/// `i16`, `B` into NR-wide pair-interleaved panels — so the layout in
/// memory never constrains the caller.
///
/// The product is **exact**: integer arithmetic makes every blocking
/// and thread split bit-identical to the naive `i32` triple loop, which
/// the regression suite asserts with `==`. Large products split rows
/// across threads under the ambient
/// [`with_gemm_thread_cap`](crate::with_gemm_thread_cap), exactly like
/// the f32 kernel.
///
/// # Panics
///
/// Panics if a slice length disagrees with the stated dimensions.
#[allow(clippy::too_many_arguments)] // mirrors gemm()'s (operand, flag) pairs plus explicit dims
pub fn gemm_i8(
    a: &[i8],
    ta: Transpose,
    b: &[i8],
    tb: Transpose,
    m: usize,
    k: usize,
    n: usize,
    out: &mut [i32],
) {
    static CALLS: OnceLock<Arc<wa_obs::Counter>> = OnceLock::new();
    count_gemm_i8_call(&CALLS, "single");
    assert_eq!(a.len(), m * k, "gemm_i8 lhs length mismatch");
    assert_eq!(b.len(), k * n, "gemm_i8 rhs length mismatch");
    assert_eq!(out.len(), m * n, "gemm_i8 output length mismatch");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0);
        return;
    }

    let mut pa = PACK_A_I16.with(|c| c.take());
    let mut pb = PACK_B_I16.with(|c| c.take());
    let kk = pack_a_i16(a, ta, m, k, &mut pa);
    pack_b_panels_i16(b, tb, k, n, kk, &mut pb);

    let threads = if m * n * k >= PARALLEL_THRESHOLD {
        gemm_threads()
    } else {
        1
    };
    if threads > 1 {
        // MR-aligned row chunks so no register tile spans two workers
        let rows_per = m.div_ceil(threads).next_multiple_of(MR);
        let (pa_ref, pb_ref) = (&pa[..], &pb[..]);
        std::thread::scope(|s| {
            for (ti, chunk) in out.chunks_mut(rows_per * n).enumerate() {
                let row0 = ti * rows_per;
                s.spawn(move || {
                    let rows = chunk.len() / n;
                    kernel_rows(&pa_ref[row0 * kk..(row0 + rows) * kk], kk, pb_ref, chunk, n);
                });
            }
        });
    } else {
        kernel_rows(&pa, kk, &pb, out, n);
    }

    PACK_A_I16.with(|c| c.set(pa));
    PACK_B_I16.with(|c| c.set(pb));
}

/// Runs a stack of `batch` equal-shape integer products
/// `out[s] = a[s]·b[s]` (`a[s]` `[m, k]`, `b[s]` `[k, n]`, both
/// untransposed row-major) — the Winograd Hadamard stage as `n²`
/// per-coordinate GEMMs. The batch is split across threads (respecting
/// [`with_gemm_thread_cap`](crate::with_gemm_thread_cap)); integer math
/// keeps every element bit-identical to [`gemm_i8`] run per item.
///
/// # Panics
///
/// Panics if any slice length disagrees with the stated dimensions.
pub fn gemm_i8_batched(
    a: &[i8],
    b: &[i8],
    out: &mut [i32],
    batch: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    static CALLS: OnceLock<Arc<wa_obs::Counter>> = OnceLock::new();
    count_gemm_i8_call(&CALLS, "batched");
    assert_eq!(
        a.len(),
        batch * m * k,
        "gemm_i8_batched lhs length mismatch"
    );
    assert_eq!(
        b.len(),
        batch * k * n,
        "gemm_i8_batched rhs length mismatch"
    );
    assert_eq!(
        out.len(),
        batch * m * n,
        "gemm_i8_batched output length mismatch"
    );
    if batch == 0 || m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0);
        return;
    }

    let threads = if batch * m * n * k >= PARALLEL_THRESHOLD {
        gemm_threads().min(batch)
    } else {
        1
    };
    if threads > 1 {
        let per = batch.div_ceil(threads);
        std::thread::scope(|s| {
            for (ti, ochunk) in out.chunks_mut(per * m * n).enumerate() {
                let s0 = ti * per;
                s.spawn(move || batch_range(a, b, ochunk, s0, m, k, n));
            }
        });
    } else {
        batch_range(a, b, out, 0, m, k, n);
    }
}

/// Packs and multiplies items `[s0, s0 + ochunk/(m·n))` of the batch on
/// the calling thread (each worker owns its thread-local scratch).
fn batch_range(a: &[i8], b: &[i8], ochunk: &mut [i32], s0: usize, m: usize, k: usize, n: usize) {
    let mut pa = PACK_A_I16.with(|c| c.take());
    let mut pb = PACK_B_I16.with(|c| c.take());
    for (i, o) in ochunk.chunks_mut(m * n).enumerate() {
        let s = s0 + i;
        let kk = pack_a_i16(&a[s * m * k..(s + 1) * m * k], Transpose::No, m, k, &mut pa);
        pack_b_panels_i16(
            &b[s * k * n..(s + 1) * k * n],
            Transpose::No,
            k,
            n,
            kk,
            &mut pb,
        );
        kernel_rows(&pa, kk, &pb, o, n);
    }
    PACK_A_I16.with(|c| c.set(pa));
    PACK_B_I16.with(|c| c.set(pb));
}

/// A prepacked batched **left** operand for [`gemm_i8_prepacked`]:
/// `batch` stacked `[m, k]` i8 blocks widened once into the row-major
/// `[m, kk]` i16 layout the kernel consumes (`kk` rounds `k` up to
/// even for `pmaddwd` pairing).
///
/// [`gemm_i8_batched`] re-packs its operands on every call — the right
/// choice when both sides change per call, pure overhead when one side
/// is static. The Winograd integer middle multiplies the same memoized
/// filter (up to `n²·K·C ≈ 9.4M` elements per deep ResNet layer) against
/// fresh activations on every inference; packing it once at
/// filter-cache build time removes that widening traffic from the hot
/// path entirely.
#[derive(Clone, Debug)]
pub struct PackedAI8 {
    data: Vec<i16>,
    batch: usize,
    m: usize,
    k: usize,
    kk: usize,
}

impl PackedAI8 {
    /// Widens row-major `[batch, m, k]` i8 into the packed layout.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != batch·m·k`.
    pub fn pack(a: &[i8], batch: usize, m: usize, k: usize) -> PackedAI8 {
        assert_eq!(a.len(), batch * m * k, "PackedAI8 operand length mismatch");
        let kk = k.next_multiple_of(2);
        let mut data = vec![0i16; batch * m * kk];
        for (src, dst) in a.chunks_exact(k).zip(data.chunks_exact_mut(kk)) {
            for (d, &s) in dst[..k].iter_mut().zip(src) {
                *d = s as i16;
            }
        }
        PackedAI8 {
            data,
            batch,
            m,
            k,
            kk,
        }
    }

    /// Batch count.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Rows per batch item.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Inner (contraction) dimension.
    pub fn k(&self) -> usize {
        self.k
    }
}

/// A prepacked batched **right** operand for [`gemm_i8_prepacked`]:
/// `batch` stacked `[k, n]` i8 blocks in the NR-wide pair-interleaved
/// panel layout of the `pmaddwd` kernel.
///
/// Besides wholesale packing ([`PackedBI8::pack`]), the buffer can be
/// filled element-wise through [`PackedBI8::slot`] — that lets a
/// producer that *computes* the operand (e.g. the fused quantized
/// Winograd input transform) write each value straight into its packed
/// position, skipping the row-major intermediate and the separate
/// packing pass.
#[derive(Clone, Debug)]
pub struct PackedBI8 {
    data: Vec<i16>,
    batch: usize,
    k: usize,
    n: usize,
    kk: usize,
    /// i16 elements per batch item: `n.div_ceil(NR)·kk·NR`.
    panel_stride: usize,
}

impl PackedBI8 {
    /// An all-zero packed operand (every logical element 0), ready for
    /// element-wise filling through [`PackedBI8::slot`].
    pub fn zeroed(batch: usize, k: usize, n: usize) -> PackedBI8 {
        let kk = k.next_multiple_of(2);
        let panel_stride = n.div_ceil(NR) * kk * NR;
        PackedBI8 {
            data: vec![0i16; batch * panel_stride],
            batch,
            k,
            n,
            kk,
            panel_stride,
        }
    }

    /// Packs row-major `[batch, k, n]` i8 into the panel layout.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != batch·k·n`.
    pub fn pack(b: &[i8], batch: usize, k: usize, n: usize) -> PackedBI8 {
        assert_eq!(b.len(), batch * k * n, "PackedBI8 operand length mismatch");
        let mut packed = PackedBI8::zeroed(batch, k, n);
        for s in 0..batch {
            for (p, row) in b[s * k * n..(s + 1) * k * n].chunks_exact(n).enumerate() {
                for (j, &v) in row.iter().enumerate() {
                    *packed.slot(s, p, j) = v as i16;
                }
            }
        }
        packed
    }

    /// The packed cell holding logical element `B[s][p, j]` (batch item
    /// `s`, row `p`, column `j`). Values must stay in i8 range — the
    /// kernel's exactness contract assumes i8 operands widened to i16.
    ///
    /// # Panics
    ///
    /// Panics (via slice indexing) if the coordinates are out of range.
    #[inline]
    pub fn slot(&mut self, s: usize, p: usize, j: usize) -> &mut i16 {
        debug_assert!(s < self.batch && p < self.k && j < self.n);
        let idx = s * self.panel_stride
            + (j / NR) * self.kk * NR
            + (p / 2) * NR * 2
            + (j % NR) * 2
            + (p & 1);
        &mut self.data[idx]
    }

    /// Unpacks back to row-major `[batch, k, n]` i8 — the verification
    /// hook for tests that fill the buffer through [`PackedBI8::slot`]
    /// (values written there are i8-range by contract, so the narrowing
    /// cast is lossless).
    pub fn unpack(&self) -> Vec<i8> {
        let mut out = vec![0i8; self.batch * self.k * self.n];
        let npanels = self.n.div_ceil(NR);
        for s in 0..self.batch {
            let item = &self.data[s * self.panel_stride..(s + 1) * self.panel_stride];
            for q in 0..npanels {
                let j0 = q * NR;
                let nr = NR.min(self.n - j0);
                let panel = &item[q * self.kk * NR..(q + 1) * self.kk * NR];
                for p in 0..self.k {
                    for jj in 0..nr {
                        out[(s * self.k + p) * self.n + j0 + jj] =
                            panel[(p / 2) * NR * 2 + jj * 2 + (p & 1)] as i8;
                    }
                }
            }
        }
        out
    }

    /// Batch count.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Inner (contraction) dimension.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Columns per batch item.
    pub fn n(&self) -> usize {
        self.n
    }
}

/// [`gemm_i8_batched`] with **both operands prepacked**: runs the stack
/// of `batch` products `out[s] = a[s]·b[s]` straight on the packed
/// buffers — no packing, widening or scratch inside the call. Integer
/// accumulation keeps every element bit-identical to [`gemm_i8`] run
/// per item; large stacks split batch items across threads under the
/// ambient [`with_gemm_thread_cap`](crate::with_gemm_thread_cap).
///
/// # Panics
///
/// Panics if the operands disagree on batch count or contraction
/// dimension, or if `out.len() != batch·m·n`.
pub fn gemm_i8_prepacked(pa: &PackedAI8, pb: &PackedBI8, out: &mut [i32]) {
    static CALLS: OnceLock<Arc<wa_obs::Counter>> = OnceLock::new();
    count_gemm_i8_call(&CALLS, "prepacked");
    assert_eq!(pa.batch, pb.batch, "gemm_i8_prepacked batch mismatch");
    assert_eq!(pa.k, pb.k, "gemm_i8_prepacked contraction mismatch");
    let (batch, m, n, kk) = (pa.batch, pa.m, pb.n, pa.kk);
    assert_eq!(
        out.len(),
        batch * m * n,
        "gemm_i8_prepacked output length mismatch"
    );
    if batch == 0 || m == 0 || n == 0 {
        return;
    }
    if pa.k == 0 {
        out.fill(0);
        return;
    }

    let run = |ochunk: &mut [i32], s0: usize| {
        for (i, o) in ochunk.chunks_mut(m * n).enumerate() {
            let s = s0 + i;
            kernel_rows(
                &pa.data[s * m * kk..(s + 1) * m * kk],
                kk,
                &pb.data[s * pb.panel_stride..(s + 1) * pb.panel_stride],
                o,
                n,
            );
        }
    };
    let threads = if batch * m * n * pa.k >= PARALLEL_THRESHOLD {
        gemm_threads().min(batch)
    } else {
        1
    };
    if threads > 1 {
        let per = batch.div_ceil(threads);
        let run = &run;
        std::thread::scope(|s| {
            for (ti, ochunk) in out.chunks_mut(per * m * n).enumerate() {
                s.spawn(move || run(ochunk, ti * per));
            }
        });
    } else {
        run(out, 0);
    }
}

/// Widens `op(a)` to row-major `i16` `[m, kk]` where `kk` rounds `k` up
/// to even (`pmaddwd` consumes pairs; the pad lane is 0). Returns `kk`.
fn pack_a_i16(src: &[i8], ta: Transpose, m: usize, k: usize, buf: &mut Vec<i16>) -> usize {
    let kk = k.next_multiple_of(2);
    buf.clear();
    buf.resize(m * kk, 0);
    match ta {
        Transpose::No => {
            for i in 0..m {
                let row = &src[i * k..(i + 1) * k];
                let dst = &mut buf[i * kk..i * kk + k];
                for (d, &s) in dst.iter_mut().zip(row) {
                    *d = s as i16;
                }
            }
        }
        Transpose::Yes => {
            // src is [k, m]; walk it row-by-row for sequential reads
            for (p, row) in src.chunks_exact(m).enumerate() {
                for (i, &s) in row.iter().enumerate() {
                    buf[i * kk + p] = s as i16;
                }
            }
        }
    }
    kk
}

/// Packs `op(b)` (`[k, n]` logical) into `n.div_ceil(NR)` panels of
/// widened `i16`, each `[kk/2, NR, 2]`: pair `p` of panel `q` stores
/// `B[2p, j]`, `B[2p+1, j]` adjacently for the NR columns `j` of the
/// panel — exactly the operand order `pmaddwd` consumes. Right-edge
/// columns and the odd-`k` pad lane are zero.
fn pack_b_panels_i16(src: &[i8], tb: Transpose, k: usize, n: usize, kk: usize, buf: &mut Vec<i16>) {
    let npanels = n.div_ceil(NR);
    buf.clear();
    buf.resize(npanels * kk * NR, 0);
    for q in 0..npanels {
        let j0 = q * NR;
        let nr = NR.min(n - j0);
        let panel = &mut buf[q * kk * NR..(q + 1) * kk * NR];
        match tb {
            Transpose::No => {
                for (p, row) in src.chunks_exact(n).enumerate() {
                    for (jj, &s) in row[j0..j0 + nr].iter().enumerate() {
                        panel[(p / 2) * NR * 2 + jj * 2 + (p & 1)] = s as i16;
                    }
                }
            }
            Transpose::Yes => {
                // src is [n, k]; column j of B is row j of src
                for jj in 0..nr {
                    let col = &src[(j0 + jj) * k..(j0 + jj + 1) * k];
                    for (p, &s) in col.iter().enumerate() {
                        panel[(p / 2) * NR * 2 + jj * 2 + (p & 1)] = s as i16;
                    }
                }
            }
        }
    }
}

/// Multiplies packed `A` rows (`[rows, kk]` i16) by panel-packed `bp`
/// into `out [rows, n]`, KC×MC blocked. Integer accumulation is exact,
/// so the blocking order is unobservable.
fn kernel_rows(a: &[i16], kk: usize, bp: &[i16], out: &mut [i32], n: usize) {
    let rows = a.len().checked_div(kk).unwrap_or(0);
    let npanels = n.div_ceil(NR);
    let mut pc = 0;
    while pc < kk {
        let kc = KC.min(kk - pc);
        let accumulate = pc > 0;
        let mut r0 = 0;
        while r0 < rows {
            let mc = MC.min(rows - r0);
            for q in 0..npanels {
                let j0 = q * NR;
                let nr = NR.min(n - j0);
                let strip = &bp[q * kk * NR + pc * NR..q * kk * NR + (pc + kc) * NR];
                let mut i = r0;
                while i + MR <= r0 + mc {
                    micro::<MR>(
                        &a[i * kk + pc..],
                        kk,
                        kc,
                        strip,
                        &mut out[i * n..],
                        n,
                        j0,
                        nr,
                        accumulate,
                    );
                    i += MR;
                }
                match r0 + mc - i {
                    1 => micro::<1>(
                        &a[i * kk + pc..],
                        kk,
                        kc,
                        strip,
                        &mut out[i * n..],
                        n,
                        j0,
                        nr,
                        accumulate,
                    ),
                    2 => micro::<2>(
                        &a[i * kk + pc..],
                        kk,
                        kc,
                        strip,
                        &mut out[i * n..],
                        n,
                        j0,
                        nr,
                        accumulate,
                    ),
                    3 => micro::<3>(
                        &a[i * kk + pc..],
                        kk,
                        kc,
                        strip,
                        &mut out[i * n..],
                        n,
                        j0,
                        nr,
                        accumulate,
                    ),
                    _ => {}
                }
            }
            r0 += mc;
        }
        pc += kc;
    }
}

/// `R×NR` register tile over one K-strip: `out[i, j0+jj] (+)= Σ_p
/// a[i, p]·b[p, j0+jj]`. `a` starts at the tile's first row and K-offset
/// with row stride `kk`; `strip` holds `kc/2` interleaved `pmaddwd`
/// pairs; `out` starts at the tile's first row with row stride `n`.
#[allow(clippy::too_many_arguments)] // the flattened tile coordinates of kernel_rows
fn micro<const R: usize>(
    a: &[i16],
    kk: usize,
    kc: usize,
    strip: &[i16],
    out: &mut [i32],
    n: usize,
    j0: usize,
    nr: usize,
    accumulate: bool,
) {
    let mut acc = [[0i32; NR]; R];
    let pairs = kc / 2;

    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: SSE2 is baseline on x86_64; every load/store below
        // stays inside the checked slice bounds (`strip` holds
        // `pairs·NR·2` i16, each `acc` row is NR consecutive i32).
        unsafe {
            use std::arch::x86_64::{
                __m128i, _mm_add_epi32, _mm_loadu_si128, _mm_madd_epi16, _mm_set1_epi32,
                _mm_storeu_si128,
            };
            let mut vacc = [[_mm_set1_epi32(0); 2]; R];
            for p in 0..pairs {
                let bptr = strip.as_ptr().add(p * NR * 2);
                let b0 = _mm_loadu_si128(bptr as *const __m128i);
                let b1 = _mm_loadu_si128(bptr.add(8) as *const __m128i);
                for (i, row) in vacc.iter_mut().enumerate() {
                    let a0 = *a.as_ptr().add(i * kk + 2 * p) as u16 as u32;
                    let a1 = *a.as_ptr().add(i * kk + 2 * p + 1) as u16 as u32;
                    let aw = _mm_set1_epi32(((a1 << 16) | a0) as i32);
                    row[0] = _mm_add_epi32(row[0], _mm_madd_epi16(aw, b0));
                    row[1] = _mm_add_epi32(row[1], _mm_madd_epi16(aw, b1));
                }
            }
            for (i, row) in vacc.iter().enumerate() {
                _mm_storeu_si128(acc[i].as_mut_ptr() as *mut __m128i, row[0]);
                _mm_storeu_si128(acc[i].as_mut_ptr().add(4) as *mut __m128i, row[1]);
            }
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    {
        for p in 0..pairs {
            let pair = &strip[p * NR * 2..(p + 1) * NR * 2];
            for (i, row) in acc.iter_mut().enumerate() {
                let a0 = a[i * kk + 2 * p] as i32;
                let a1 = a[i * kk + 2 * p + 1] as i32;
                for (jj, cell) in row.iter_mut().enumerate() {
                    *cell += a0 * pair[jj * 2] as i32 + a1 * pair[jj * 2 + 1] as i32;
                }
            }
        }
    }

    for (i, row) in acc.iter().enumerate() {
        let dst = &mut out[i * n + j0..i * n + j0 + nr];
        if accumulate {
            for (d, &v) in dst.iter_mut().zip(row) {
                *d += v;
            }
        } else {
            dst.copy_from_slice(&row[..nr]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;
    use crate::with_gemm_thread_cap;

    /// Naive i32 triple loop over the logical (transpose-resolved) operands.
    fn naive(
        a: &[i8],
        ta: Transpose,
        b: &[i8],
        tb: Transpose,
        m: usize,
        k: usize,
        n: usize,
    ) -> Vec<i32> {
        let at = |i: usize, p: usize| match ta {
            Transpose::No => a[i * k + p] as i32,
            Transpose::Yes => a[p * m + i] as i32,
        };
        let bt = |p: usize, j: usize| match tb {
            Transpose::No => b[p * n + j] as i32,
            Transpose::Yes => b[j * k + p] as i32,
        };
        let mut out = vec![0i32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0i32;
                for p in 0..k {
                    s += at(i, p) * bt(p, j);
                }
                out[i * n + j] = s;
            }
        }
        out
    }

    fn rand_i8(rng: &mut SeededRng, len: usize) -> Vec<i8> {
        (0..len).map(|_| rng.uniform(-127.0, 128.0) as i8).collect()
    }

    #[test]
    fn matches_naive_small_shapes() {
        let mut rng = SeededRng::new(7);
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 8, 8),
            (5, 9, 17),
            (13, 3, 2),
        ] {
            for ta in [Transpose::No, Transpose::Yes] {
                for tb in [Transpose::No, Transpose::Yes] {
                    let a = rand_i8(&mut rng, m * k);
                    let b = rand_i8(&mut rng, k * n);
                    let mut out = vec![0i32; m * n];
                    gemm_i8(&a, ta, &b, tb, m, k, n, &mut out);
                    assert_eq!(
                        out,
                        naive(&a, ta, &b, tb, m, k, n),
                        "{m}x{k}x{n} {ta:?} {tb:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn k_zero_clears_output() {
        let mut out = vec![42i32; 6];
        gemm_i8(&[], Transpose::No, &[], Transpose::No, 2, 0, 3, &mut out);
        assert_eq!(out, vec![0; 6]);
    }

    #[test]
    fn batched_matches_per_item() {
        let mut rng = SeededRng::new(11);
        let (batch, m, k, n) = (5usize, 4, 6, 9);
        let a = rand_i8(&mut rng, batch * m * k);
        let b = rand_i8(&mut rng, batch * k * n);
        let mut got = vec![0i32; batch * m * n];
        gemm_i8_batched(&a, &b, &mut got, batch, m, k, n);
        for s in 0..batch {
            let mut one = vec![0i32; m * n];
            gemm_i8(
                &a[s * m * k..(s + 1) * m * k],
                Transpose::No,
                &b[s * k * n..(s + 1) * k * n],
                Transpose::No,
                m,
                k,
                n,
                &mut one,
            );
            assert_eq!(&got[s * m * n..(s + 1) * m * n], &one[..], "item {s}");
        }
    }

    #[test]
    fn threaded_split_matches_serial() {
        let (m, k, n) = (130usize, 70, 64);
        assert!(m * k * n >= PARALLEL_THRESHOLD);
        let mut rng = SeededRng::new(23);
        let a = rand_i8(&mut rng, m * k);
        let b = rand_i8(&mut rng, k * n);
        let mut par = vec![0i32; m * n];
        gemm_i8(&a, Transpose::No, &b, Transpose::No, m, k, n, &mut par);
        let mut ser = vec![0i32; m * n];
        with_gemm_thread_cap(1, || {
            gemm_i8(&a, Transpose::No, &b, Transpose::No, m, k, n, &mut ser)
        });
        assert_eq!(par, ser, "thread split must not change any element");
        assert_eq!(par, naive(&a, Transpose::No, &b, Transpose::No, m, k, n));
    }

    #[test]
    fn prepacked_matches_batched_bit_for_bit() {
        let mut rng = SeededRng::new(31);
        // odd k exercises the pmaddwd pad lane, n=17 the edge panel
        for &(batch, m, k, n) in &[
            (1usize, 1usize, 1usize, 1usize),
            (4, 4, 6, 9),
            (36, 7, 3, 17),
            (2, 16, 512, 8),
        ] {
            let a = rand_i8(&mut rng, batch * m * k);
            let b = rand_i8(&mut rng, batch * k * n);
            let mut reference = vec![0i32; batch * m * n];
            gemm_i8_batched(&a, &b, &mut reference, batch, m, k, n);
            let pa = PackedAI8::pack(&a, batch, m, k);
            let pb = PackedBI8::pack(&b, batch, k, n);
            let mut got = vec![0i32; batch * m * n];
            gemm_i8_prepacked(&pa, &pb, &mut got);
            assert_eq!(got, reference, "{batch}x{m}x{k}x{n}");
        }
    }

    #[test]
    fn prepacked_threaded_split_matches_serial() {
        let (batch, m, k, n) = (8usize, 32, 64, 40);
        assert!(batch * m * k * n >= PARALLEL_THRESHOLD);
        let mut rng = SeededRng::new(37);
        let a = rand_i8(&mut rng, batch * m * k);
        let b = rand_i8(&mut rng, batch * k * n);
        let pa = PackedAI8::pack(&a, batch, m, k);
        let pb = PackedBI8::pack(&b, batch, k, n);
        let mut par = vec![0i32; batch * m * n];
        gemm_i8_prepacked(&pa, &pb, &mut par);
        let mut ser = vec![0i32; batch * m * n];
        with_gemm_thread_cap(1, || gemm_i8_prepacked(&pa, &pb, &mut ser));
        assert_eq!(par, ser);
        let mut reference = vec![0i32; batch * m * n];
        gemm_i8_batched(&a, &b, &mut reference, batch, m, k, n);
        assert_eq!(par, reference);
    }

    #[test]
    fn packed_b_slot_writes_match_wholesale_pack() {
        let mut rng = SeededRng::new(41);
        let (batch, k, n) = (3usize, 5, 11);
        let b = rand_i8(&mut rng, batch * k * n);
        let wholesale = PackedBI8::pack(&b, batch, k, n);
        let mut incremental = PackedBI8::zeroed(batch, k, n);
        for s in 0..batch {
            for p in 0..k {
                for j in 0..n {
                    *incremental.slot(s, p, j) = b[(s * k + p) * n + j] as i16;
                }
            }
        }
        assert_eq!(incremental.data, wholesale.data);
        assert_eq!(incremental.unpack(), b);
    }
}
