//! Hand-written AVX2+FMA kernels (x86_64).
//!
//! Two kernels live here, one per compute class of the dispatch:
//!
//! * **Blocked** — the `Complex64` tile of the split-real packed driver.
//!   It shares the packing driver and [`PackArena`] with the portable
//!   split-real path; only the innermost tile is hand-written. The register
//!   blocking is 2 rows × 8 columns: 8 ymm accumulators (2 rows × 2 column
//!   vectors × re/im), 4 B-plane loads and 4 A broadcasts per `p` step
//!   feeding 16 FMAs — within the 16-register budget while giving each B
//!   load four uses. Per output element the FMA order is fixed (`p`
//!   ascending, `re·re` before `−im·im`).
//! * **Narrow** — [`gemm_narrow_c64`] / [`gemm_narrow_c32`], the skinny
//!   shapes (two of `m`, `n`, `k` ≤ 16) that dominate the stem. Their
//!   operands fit in L1, so the kernel is bounded by instructions, not
//!   bandwidth, and packing would cost more than it saves: it works on the
//!   interleaved `(re, im)` data in place. See [`narrow`] for the inner
//!   loop.
//!
//! Both are deterministic; they differ from the scalar reference only by
//! FMA rounding and (narrow) by summing the `re·re` and `im·im` halves in
//! separate chains, which the conformance suite bounds.

use super::packed::{gemm_packed_with, PackArena};
use crate::complex::{Complex32, Complex64, RealScalar};
use crate::gemm::check_shapes;
use core::arch::x86_64::*;

/// Packed/blocked `C += A·B` for `Complex64` using the AVX2+FMA tile.
///
/// # Safety
/// The caller must have verified that the CPU supports AVX2 and FMA
/// (the dispatcher only routes here after the runtime probe).
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn gemm_avx2_c64(
    arena: &mut PackArena<f64>,
    a: &[Complex64],
    b: &[Complex64],
    c: &mut [Complex64],
    m: usize,
    n: usize,
    k: usize,
) {
    gemm_packed_with::<Complex64, _>(
        arena,
        a,
        b,
        c,
        m,
        n,
        k,
        |ar, ai, br, bi, cr, ci, ib, jb, pb| {
            // SAFETY: inherited from the function's contract; slices come from
            // the arena with the layout `tile` documents.
            unsafe { tile_avx2(ar, ai, br, bi, cr, ci, ib, jb, pb) }
        },
    )
}

/// One C tile: planes are packed row-major (`A` as `ib×pb`, `B` as `pb×jb`,
/// `C` as `ib×jb`), C planes pre-zeroed by the driver.
///
/// # Safety
/// Requires AVX2+FMA.
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_avx2(
    a_re: &[f64],
    a_im: &[f64],
    b_re: &[f64],
    b_im: &[f64],
    c_re: &mut [f64],
    c_im: &mut [f64],
    ib: usize,
    jb: usize,
    pb: usize,
) {
    let i2 = ib / 2 * 2;
    let j8 = jb / 8 * 8;
    let mut i = 0;
    while i < i2 {
        let mut j = 0;
        while j < j8 {
            let c0 = i * jb + j;
            let c1 = (i + 1) * jb + j;
            let mut r00 = _mm256_loadu_pd(c_re.as_ptr().add(c0));
            let mut r01 = _mm256_loadu_pd(c_re.as_ptr().add(c0 + 4));
            let mut s00 = _mm256_loadu_pd(c_im.as_ptr().add(c0));
            let mut s01 = _mm256_loadu_pd(c_im.as_ptr().add(c0 + 4));
            let mut r10 = _mm256_loadu_pd(c_re.as_ptr().add(c1));
            let mut r11 = _mm256_loadu_pd(c_re.as_ptr().add(c1 + 4));
            let mut s10 = _mm256_loadu_pd(c_im.as_ptr().add(c1));
            let mut s11 = _mm256_loadu_pd(c_im.as_ptr().add(c1 + 4));
            for p in 0..pb {
                let bb = p * jb + j;
                let br0 = _mm256_loadu_pd(b_re.as_ptr().add(bb));
                let br1 = _mm256_loadu_pd(b_re.as_ptr().add(bb + 4));
                let bi0 = _mm256_loadu_pd(b_im.as_ptr().add(bb));
                let bi1 = _mm256_loadu_pd(b_im.as_ptr().add(bb + 4));

                let ar0 = _mm256_set1_pd(*a_re.get_unchecked(i * pb + p));
                let ai0 = _mm256_set1_pd(*a_im.get_unchecked(i * pb + p));
                r00 = _mm256_fmadd_pd(ar0, br0, r00);
                r00 = _mm256_fnmadd_pd(ai0, bi0, r00);
                r01 = _mm256_fmadd_pd(ar0, br1, r01);
                r01 = _mm256_fnmadd_pd(ai0, bi1, r01);
                s00 = _mm256_fmadd_pd(ar0, bi0, s00);
                s00 = _mm256_fmadd_pd(ai0, br0, s00);
                s01 = _mm256_fmadd_pd(ar0, bi1, s01);
                s01 = _mm256_fmadd_pd(ai0, br1, s01);

                let ar1 = _mm256_set1_pd(*a_re.get_unchecked((i + 1) * pb + p));
                let ai1 = _mm256_set1_pd(*a_im.get_unchecked((i + 1) * pb + p));
                r10 = _mm256_fmadd_pd(ar1, br0, r10);
                r10 = _mm256_fnmadd_pd(ai1, bi0, r10);
                r11 = _mm256_fmadd_pd(ar1, br1, r11);
                r11 = _mm256_fnmadd_pd(ai1, bi1, r11);
                s10 = _mm256_fmadd_pd(ar1, bi0, s10);
                s10 = _mm256_fmadd_pd(ai1, br0, s10);
                s11 = _mm256_fmadd_pd(ar1, bi1, s11);
                s11 = _mm256_fmadd_pd(ai1, br1, s11);
            }
            _mm256_storeu_pd(c_re.as_mut_ptr().add(c0), r00);
            _mm256_storeu_pd(c_re.as_mut_ptr().add(c0 + 4), r01);
            _mm256_storeu_pd(c_im.as_mut_ptr().add(c0), s00);
            _mm256_storeu_pd(c_im.as_mut_ptr().add(c0 + 4), s01);
            _mm256_storeu_pd(c_re.as_mut_ptr().add(c1), r10);
            _mm256_storeu_pd(c_re.as_mut_ptr().add(c1 + 4), r11);
            _mm256_storeu_pd(c_im.as_mut_ptr().add(c1), s10);
            _mm256_storeu_pd(c_im.as_mut_ptr().add(c1 + 4), s11);
            j += 8;
        }
        // Column remainder for the row pair: scalar FMAs, same `p` order.
        for j in j8..jb {
            for di in 0..2 {
                let row = i + di;
                let mut sr = c_re[row * jb + j];
                let mut si = c_im[row * jb + j];
                for p in 0..pb {
                    let ar = a_re[row * pb + p];
                    let ai = a_im[row * pb + p];
                    let br = b_re[p * jb + j];
                    let bi = b_im[p * jb + j];
                    sr = ar.mul_add(br, sr);
                    sr = (-ai).mul_add(bi, sr);
                    si = ar.mul_add(bi, si);
                    si = ai.mul_add(br, si);
                }
                c_re[row * jb + j] = sr;
                c_im[row * jb + j] = si;
            }
        }
        i += 2;
    }
    // Row remainder (ib odd): one row at a time, 8 columns wide.
    for i in i2..ib {
        let mut j = 0;
        while j < j8 {
            let c0 = i * jb + j;
            let mut r0 = _mm256_loadu_pd(c_re.as_ptr().add(c0));
            let mut r1 = _mm256_loadu_pd(c_re.as_ptr().add(c0 + 4));
            let mut s0 = _mm256_loadu_pd(c_im.as_ptr().add(c0));
            let mut s1 = _mm256_loadu_pd(c_im.as_ptr().add(c0 + 4));
            for p in 0..pb {
                let bb = p * jb + j;
                let br0 = _mm256_loadu_pd(b_re.as_ptr().add(bb));
                let br1 = _mm256_loadu_pd(b_re.as_ptr().add(bb + 4));
                let bi0 = _mm256_loadu_pd(b_im.as_ptr().add(bb));
                let bi1 = _mm256_loadu_pd(b_im.as_ptr().add(bb + 4));
                let ar = _mm256_set1_pd(*a_re.get_unchecked(i * pb + p));
                let ai = _mm256_set1_pd(*a_im.get_unchecked(i * pb + p));
                r0 = _mm256_fmadd_pd(ar, br0, r0);
                r0 = _mm256_fnmadd_pd(ai, bi0, r0);
                r1 = _mm256_fmadd_pd(ar, br1, r1);
                r1 = _mm256_fnmadd_pd(ai, bi1, r1);
                s0 = _mm256_fmadd_pd(ar, bi0, s0);
                s0 = _mm256_fmadd_pd(ai, br0, s0);
                s1 = _mm256_fmadd_pd(ar, bi1, s1);
                s1 = _mm256_fmadd_pd(ai, br1, s1);
            }
            _mm256_storeu_pd(c_re.as_mut_ptr().add(c0), r0);
            _mm256_storeu_pd(c_re.as_mut_ptr().add(c0 + 4), r1);
            _mm256_storeu_pd(c_im.as_mut_ptr().add(c0), s0);
            _mm256_storeu_pd(c_im.as_mut_ptr().add(c0 + 4), s1);
            j += 8;
        }
        for j in j8..jb {
            let mut sr = c_re[i * jb + j];
            let mut si = c_im[i * jb + j];
            for p in 0..pb {
                let ar = a_re[i * pb + p];
                let ai = a_im[i * pb + p];
                let br = b_re[p * jb + j];
                let bi = b_im[p * jb + j];
                sr = ar.mul_add(br, sr);
                sr = (-ai).mul_add(bi, sr);
                si = ar.mul_add(bi, si);
                si = ai.mul_add(br, si);
            }
            c_re[i * jb + j] = sr;
            c_im[i * jb + j] = si;
        }
    }
}

/// One ymm register of interleaved complex values, and the handful of
/// operations the narrow kernel needs on it.
///
/// # Safety
/// Every `unsafe` method requires a CPU with AVX2 and FMA. `load` and
/// `store` also require `2·LANES` reals readable (writable) at `p`.
trait Ymm {
    type Real: RealScalar;
    type Reg: Copy;
    /// Complex values per register.
    const LANES: usize;

    /// Unaligned load of `LANES` complex values.
    unsafe fn load(p: *const Self::Real) -> Self::Reg;
    /// Unaligned store of `LANES` complex values.
    unsafe fn store(p: *mut Self::Real, v: Self::Reg);
    /// Every lane set to `x`.
    unsafe fn splat(x: Self::Real) -> Self::Reg;
    /// `(re, im)` → `(im, re)` within each complex value.
    unsafe fn swap(v: Self::Reg) -> Self::Reg;
    /// `a·b + c`, one rounding.
    unsafe fn fmadd(a: Self::Reg, b: Self::Reg, c: Self::Reg) -> Self::Reg;
    /// `a − b` in the real lanes, `a + b` in the imaginary lanes.
    unsafe fn addsub(a: Self::Reg, b: Self::Reg) -> Self::Reg;
    /// Scalar `a·b + c`, one rounding (the column tail).
    fn mul_add(a: Self::Real, b: Self::Real, c: Self::Real) -> Self::Real;
}

/// Two `Complex64` values per register.
struct F64x4;

impl Ymm for F64x4 {
    type Real = f64;
    type Reg = __m256d;
    const LANES: usize = 2;

    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn load(p: *const f64) -> __m256d {
        _mm256_loadu_pd(p)
    }
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn store(p: *mut f64, v: __m256d) {
        _mm256_storeu_pd(p, v)
    }
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn splat(x: f64) -> __m256d {
        _mm256_set1_pd(x)
    }
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn swap(v: __m256d) -> __m256d {
        _mm256_permute_pd(v, 0b0101)
    }
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn fmadd(a: __m256d, b: __m256d, c: __m256d) -> __m256d {
        _mm256_fmadd_pd(a, b, c)
    }
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn addsub(a: __m256d, b: __m256d) -> __m256d {
        _mm256_addsub_pd(a, b)
    }
    #[inline(always)]
    fn mul_add(a: f64, b: f64, c: f64) -> f64 {
        a.mul_add(b, c)
    }
}

/// Four `Complex32` values per register.
struct F32x8;

impl Ymm for F32x8 {
    type Real = f32;
    type Reg = __m256;
    const LANES: usize = 4;

    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn load(p: *const f32) -> __m256 {
        _mm256_loadu_ps(p)
    }
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn store(p: *mut f32, v: __m256) {
        _mm256_storeu_ps(p, v)
    }
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn splat(x: f32) -> __m256 {
        _mm256_set1_ps(x)
    }
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn swap(v: __m256) -> __m256 {
        _mm256_permute_ps(v, 0b1011_0001)
    }
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn fmadd(a: __m256, b: __m256, c: __m256) -> __m256 {
        _mm256_fmadd_ps(a, b, c)
    }
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn addsub(a: __m256, b: __m256) -> __m256 {
        _mm256_addsub_ps(a, b)
    }
    #[inline(always)]
    fn mul_add(a: f32, b: f32, c: f32) -> f32 {
        a.mul_add(b, c)
    }
}

/// Narrow `C += A·B` for `Complex64`, in place on interleaved data.
///
/// # Safety
/// The caller must have verified that the CPU supports AVX2 and FMA
/// (the dispatcher only routes here after the runtime probe).
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn gemm_narrow_c64(
    a: &[Complex64],
    b: &[Complex64],
    c: &mut [Complex64],
    m: usize,
    n: usize,
    k: usize,
) {
    check_shapes(a, b, c, m, n, k);
    // SAFETY: `Complex64` is `#[repr(C)] { re: f64, im: f64 }`, so each
    // slice is `2 × len` interleaved f64s; lengths were just checked, and
    // AVX2+FMA is this function's own precondition.
    unsafe { narrow::<F64x4>(a.as_ptr().cast(), b.as_ptr().cast(), c.as_mut_ptr().cast(), m, n, k) }
}

/// Narrow `C += A·B` for `Complex32`, in place on interleaved data.
///
/// # Safety
/// Requires AVX2+FMA, as [`gemm_narrow_c64`].
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn gemm_narrow_c32(
    a: &[Complex32],
    b: &[Complex32],
    c: &mut [Complex32],
    m: usize,
    n: usize,
    k: usize,
) {
    check_shapes(a, b, c, m, n, k);
    // SAFETY: `Complex32` is `#[repr(C)] { re: f32, im: f32 }`, as above.
    unsafe { narrow::<F32x8>(a.as_ptr().cast(), b.as_ptr().cast(), c.as_mut_ptr().cast(), m, n, k) }
}

/// The narrow kernel body over interleaved row-major operands (`A` is `m×k`,
/// `B` is `k×n`, `C` is `m×n` complex values, i.e. twice as many reals).
///
/// Every output element is computed the same way whichever block covers
/// it: with `A[i,p] = (ar, ai)` and `B[p,j] = (br, bi)`,
///
/// ```text
/// r = C[i,j] + Σ_p ar·(br, bi)      (FMA chain, p ascending)
/// s =          Σ_p ai·(bi, br)      (FMA chain from zero, p ascending)
/// C[i,j] = (r.re − s.re, r.im + s.im)
/// ```
///
/// In registers: per `p` step, broadcast `ar` and `ai`, load one `B` row
/// vector, swap its `(re, im)` pairs with one in-lane permute, and feed the
/// two FMA chains; `C` is loaded once before the `p` loop and stored once
/// after it with a single `addsub`. No packing, no arena, no allocation.
///
/// Blocking: rows run in pairs, so each `B` load and permute feeds two
/// rows, and an odd last row runs alone. Columns run 2 registers wide (8
/// accumulators for a pair), then 1 register wide, and the last
/// `n mod LANES` columns take the scalar tail with the same per-element
/// recurrence. (One row 4 registers wide measured 1.1–1.6x slower on the
/// long-row narrow shapes of the 4x5x12 plan, e.g. 4×1024×4, on a 2-vCPU
/// Xeon VM at AVX2+FMA.)
///
/// # Safety
/// Requires AVX2+FMA; `a`, `b` and `c` must hold `2·m·k`, `2·k·n` and
/// `2·m·n` reals.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn narrow<Y: Ymm>(
    a: *const Y::Real,
    b: *const Y::Real,
    c: *mut Y::Real,
    m: usize,
    n: usize,
    k: usize,
) {
    if k == 0 {
        // C += 0: leave C bit-for-bit untouched (even its signed zeros).
        return;
    }
    // SAFETY: row `i < m` of A starts at real `2·i·k` and of C at `2·i·n`;
    // each block below stays within its rows and the `n` columns of B/C.
    unsafe {
        let mut i = 0;
        while i + 2 <= m {
            row_block::<Y, 2>(a.add(2 * i * k), b, c.add(2 * i * n), n, k);
            i += 2;
        }
        if i < m {
            row_block::<Y, 1>(a.add(2 * i * k), b, c.add(2 * i * n), n, k);
        }
    }
}

/// `R` rows of `C`: 2-register tiles, then 1-register tiles, then the
/// scalar column tail.
///
/// # Safety
/// Requires AVX2+FMA; `a` and `c` point at the first of `R` rows of A
/// (`k` values each) and C (`n` values each), `b` at a `k × n` B.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn row_block<Y: Ymm, const R: usize>(
    a: *const Y::Real,
    b: *const Y::Real,
    c: *mut Y::Real,
    n: usize,
    k: usize,
) {
    let lanes = Y::LANES;
    let mut j = 0;
    // SAFETY: every tile or tail starts at column `j` and ends at or
    // before column `n`, checked by its loop condition.
    unsafe {
        while j + 2 * lanes <= n {
            tile::<Y, R, 2>(a, b.add(2 * j), c.add(2 * j), n, k);
            j += 2 * lanes;
        }
        while j + lanes <= n {
            tile::<Y, R, 1>(a, b.add(2 * j), c.add(2 * j), n, k);
            j += lanes;
        }
        while j < n {
            column_tail::<Y, R>(a, b.add(2 * j), c.add(2 * j), n, k);
            j += 1;
        }
    }
}

/// An `R × V`-register tile of `C` (`a` at its first row, `b` and `c` at
/// its first column); `2·R·V` accumulators stay in registers for the whole
/// `p` loop.
///
/// # Safety
/// Requires AVX2+FMA; rows `< R` of A and C, and columns
/// `< V·LANES` of B and C from the given pointers, must be in bounds.
#[inline]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::needless_range_loop)]
unsafe fn tile<Y: Ymm, const R: usize, const V: usize>(
    a: *const Y::Real,
    b: *const Y::Real,
    c: *mut Y::Real,
    n: usize,
    k: usize,
) {
    let width = 2 * Y::LANES;
    // SAFETY: offsets stay within the rows and columns the caller vouches
    // for: `i < R`, `p < k`, `v < V`.
    unsafe {
        let zero = Y::splat(Y::Real::ZERO);
        let mut r = [[zero; V]; R];
        let mut s = [[zero; V]; R];
        for i in 0..R {
            for v in 0..V {
                r[i][v] = Y::load(c.add(2 * i * n + v * width));
            }
        }
        for p in 0..k {
            let mut bv = [zero; V];
            let mut bs = [zero; V];
            for v in 0..V {
                bv[v] = Y::load(b.add(2 * p * n + v * width));
                bs[v] = Y::swap(bv[v]);
            }
            for i in 0..R {
                let ar = Y::splat(*a.add(2 * (i * k + p)));
                let ai = Y::splat(*a.add(2 * (i * k + p) + 1));
                for v in 0..V {
                    r[i][v] = Y::fmadd(ar, bv[v], r[i][v]);
                    s[i][v] = Y::fmadd(ai, bs[v], s[i][v]);
                }
            }
        }
        for i in 0..R {
            for v in 0..V {
                Y::store(c.add(2 * i * n + v * width), Y::addsub(r[i][v], s[i][v]));
            }
        }
    }
}

/// One column of `R` rows in scalar code, with the exact recurrence of the
/// vector lanes (see [`narrow`]).
///
/// # Safety
/// Requires AVX2+FMA; rows `< R` of A and C, and column 0 of B and C
/// from the given pointers, must be in bounds.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn column_tail<Y: Ymm, const R: usize>(
    a: *const Y::Real,
    b: *const Y::Real,
    c: *mut Y::Real,
    n: usize,
    k: usize,
) {
    // SAFETY: `i < R` and `p < k` index only the rows and the column the
    // caller vouches for.
    unsafe {
        for i in 0..R {
            let ci = c.add(2 * i * n);
            let (mut rr, mut ri) = (*ci, *ci.add(1));
            let (mut sr, mut si) = (Y::Real::ZERO, Y::Real::ZERO);
            for p in 0..k {
                let (ar, ai) = (*a.add(2 * (i * k + p)), *a.add(2 * (i * k + p) + 1));
                let (br, bi) = (*b.add(2 * p * n), *b.add(2 * p * n + 1));
                rr = Y::mul_add(ar, br, rr);
                ri = Y::mul_add(ar, bi, ri);
                sr = Y::mul_add(ai, bi, sr);
                si = Y::mul_add(ai, br, si);
            }
            *ci = rr - sr;
            *ci.add(1) = ri + si;
        }
    }
}
