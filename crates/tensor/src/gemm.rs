//! The matrix-product kernels behind [`crate::par::matmul`],
//! [`crate::par::matmul_tn`] and [`crate::par::matmul_nt`].
//!
//! Two kernels compute the same numbers:
//!
//! * an AVX-512F kernel in `std::arch` intrinsics, holding a 6-row ×
//!   32-column output tile in registers, chosen at run time when the CPU
//!   has `avx512f` (the binary itself is built for the baseline target);
//! * the scalar `ikj` loop, used on every other CPU and target.
//!
//! **Fixed summation order.** Both compute every output element as `0.0`,
//! then `+ a[i][p] · b[p][j]` for `p = 0..k` ascending, each step a separate
//! multiply and add (no FMA, no splitting of `k`, no reassociation). The
//! kernels, the thread count and the `Aᵀ·B` / `A·Bᵀ` forms therefore give
//! bit-identical outputs: `matmul_tn(a, b) == matmul(aᵀ, b)` and
//! `matmul_nt(a, b) == matmul(a, bᵀ)` bit for bit.
//!
//! This is the only module of the crate with `unsafe` code: the intrinsics
//! and the raw-pointer tile loads and stores they need.

use std::borrow::Cow;

use crate::matrix::Matrix;

/// Output rows of one register tile. Parallel row blocks are multiples of
/// it so that no block ends in a partial tile it did not have to.
pub(crate) const ROW_TILE: usize = 6;

/// How the left operand is stored.
#[derive(Clone, Copy)]
enum Left {
    /// `A` itself, `n × k`.
    Plain,
    /// `Aᵀ`, stored `k × n`.
    Transposed,
}

/// One product `op(A) · op(B)`, computed in blocks of output rows.
pub(crate) struct Product<'a> {
    a: &'a Matrix,
    left: Left,
    /// `B` as `k × m`, or `Bᵀ` (`m × k`) when `b_transposed`.
    b: Cow<'a, Matrix>,
    b_transposed: bool,
    simd: bool,
}

impl<'a> Product<'a> {
    /// `a · b`.
    ///
    /// # Panics
    /// Panics if `a.cols() != b.rows()`.
    pub(crate) fn nn(a: &'a Matrix, b: &'a Matrix) -> Self {
        assert_eq!(
            a.cols(),
            b.rows(),
            "matmul: inner dimensions differ ({}x{} · {}x{})",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        );
        Self { a, left: Left::Plain, b: Cow::Borrowed(b), b_transposed: false, simd: simd_available() }
    }

    /// `aᵀ · b`.
    ///
    /// # Panics
    /// Panics if `a.rows() != b.rows()`.
    pub(crate) fn tn(a: &'a Matrix, b: &'a Matrix) -> Self {
        assert_eq!(
            a.rows(),
            b.rows(),
            "matmul_tn: inner dimensions differ ({}x{}ᵀ · {}x{})",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        );
        Self { a, left: Left::Transposed, b: Cow::Borrowed(b), b_transposed: false, simd: simd_available() }
    }

    /// `a · bᵀ`. The SIMD kernel packs column panels of `bᵀ` per row block;
    /// the scalar kernel needs `bᵀ` row-major and transposes `b` up front.
    ///
    /// # Panics
    /// Panics if `a.cols() != b.cols()`.
    pub(crate) fn nt(a: &'a Matrix, b: &'a Matrix) -> Self {
        assert_eq!(
            a.cols(),
            b.cols(),
            "matmul_nt: inner dimensions differ ({}x{} · {}x{}ᵀ)",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        );
        let simd = simd_available();
        if simd {
            Self { a, left: Left::Plain, b: Cow::Borrowed(b), b_transposed: true, simd }
        } else {
            Self { a, left: Left::Plain, b: Cow::Owned(b.transpose()), b_transposed: false, simd }
        }
    }

    /// The scalar-kernel version of this product, for tests that compare
    /// the two kernels.
    #[cfg(test)]
    fn scalar(mut self) -> Self {
        if self.b_transposed {
            self.b = Cow::Owned(self.b.transpose());
            self.b_transposed = false;
        }
        self.simd = false;
        self
    }

    /// `(n, k, m)`: output rows, inner dimension, output columns.
    pub(crate) fn shape(&self) -> (usize, usize, usize) {
        let (n, k) = match self.left {
            Left::Plain => (self.a.rows(), self.a.cols()),
            Left::Transposed => (self.a.cols(), self.a.rows()),
        };
        let m = if self.b_transposed { self.b.rows() } else { self.b.cols() };
        (n, k, m)
    }

    /// Writes output rows `first_row..first_row + out.len() / m` into `out`
    /// (row-major, `m` columns), overwriting whatever it holds.
    ///
    /// # Panics
    /// Panics if `out` is not a whole number of output rows inside the
    /// product's `n` rows.
    pub(crate) fn rows_into(&self, first_row: usize, out: &mut [f64]) {
        let (n, k, m) = self.shape();
        if m == 0 {
            return;
        }
        assert_eq!(out.len() % m, 0, "gemm: output block is not a whole number of rows");
        let rows = out.len() / m;
        assert!(first_row + rows <= n, "gemm: output block exceeds the product's rows");
        if k == 0 {
            out.fill(0.0);
            return;
        }
        let (a_row_stride, a_inner_stride) = match self.left {
            Left::Plain => (k, 1),
            Left::Transposed => (1, n),
        };
        let a = &self.a.as_slice()[first_row * a_row_stride..];
        if self.simd {
            #[cfg(target_arch = "x86_64")]
            {
                let view = avx512::View {
                    a,
                    a_row_stride,
                    a_inner_stride,
                    b: self.b.as_slice(),
                    b_transposed: self.b_transposed,
                    k,
                    m,
                };
                // SAFETY: `simd` is only set when `simd_available()` found
                // the CPU supports avx512f, the one feature `avx512::rows`
                // enables.
                unsafe { avx512::rows(&view, out) };
                return;
            }
        }
        scalar_rows(a, a_row_stride, a_inner_stride, self.b.as_slice(), k, m, out);
    }
}

/// True when the AVX-512F kernel can run on this CPU. The standard library
/// caches the CPUID probe, so this costs one relaxed atomic load.
fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The portable kernel: the `ikj` loop. `a[r * a_row_stride + p *
/// a_inner_stride]` is `op(A)[first_row + r][p]`, `b` is row-major `k × m`.
/// The innermost loop streams contiguously through the output row and the
/// right-hand row and has no branches, so LLVM vectorizes it for the
/// baseline target.
fn scalar_rows(a: &[f64], a_row_stride: usize, a_inner_stride: usize, b: &[f64], k: usize, m: usize, out: &mut [f64]) {
    for (r, out_row) in out.chunks_exact_mut(m).enumerate() {
        out_row.fill(0.0);
        for p in 0..k {
            let av = a[r * a_row_stride + p * a_inner_stride];
            for (o, &bv) in out_row.iter_mut().zip(&b[p * m..(p + 1) * m]) {
                *o += av * bv;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::*;

    use super::ROW_TILE;

    /// Lanes of one `__m512d`.
    const LANES: usize = 8;
    /// Output columns of one register tile: four vectors, so a full 6 × 32
    /// tile keeps 24 accumulators, 4 right-hand vectors, one broadcast and
    /// one product in the 32 vector registers.
    const COL_TILE: usize = 4 * LANES;
    /// Inner dimension above which `B` panels are packed (a panel of
    /// 256 rows × 32 columns is 64 KiB).
    const PACK_MIN_K: usize = 256;

    /// The operands of a product, as the tile loops read them.
    pub(super) struct View<'a> {
        /// `op(A)` starting at the block's first row:
        /// element `(r, p)` is `a[r * a_row_stride + p * a_inner_stride]`.
        pub(super) a: &'a [f64],
        pub(super) a_row_stride: usize,
        pub(super) a_inner_stride: usize,
        /// `B` row-major `k × m`, or `Bᵀ` row-major `m × k` when
        /// `b_transposed`.
        pub(super) b: &'a [f64],
        pub(super) b_transposed: bool,
        pub(super) k: usize,
        pub(super) m: usize,
    }

    /// Computes `out` (`rows × m`, row-major) from `view` one 32-column
    /// panel at a time, all row tiles of a panel before the next, so the
    /// panel's `k × 32` slice of `B` stays in cache across the row tiles.
    /// Panels of `Bᵀ`, and of `B` when `k` is large, are first packed into
    /// a contiguous `k × 32` buffer.
    ///
    /// # Safety
    /// The CPU must support avx512f. (The slice extents the tile loads rely
    /// on are asserted here: `view.a` holds every `(r, p)` element for
    /// `r < out.len() / m`, `p < k`, and `view.b` holds `k · m` elements.)
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn rows(view: &View<'_>, out: &mut [f64]) {
        let View { a, a_row_stride, a_inner_stride, b, b_transposed, k, m } = *view;
        let rows = out.len() / m;
        if rows == 0 {
            return;
        }
        let a_last = (rows - 1) * a_row_stride + k.saturating_sub(1) * a_inner_stride;
        assert!(k == 0 || a_last < a.len(), "gemm: left operand too short");
        assert!(b.len() >= k * m, "gemm: right operand too short");
        // Packing copies each `k × 32` panel of `B` once per block into
        // contiguous rows. `Bᵀ` always needs it; for `B` it pays only when
        // the panel's strided rows no longer fit in L1 (k = n weight
        // gradients), and costs up to a quarter on short blocks otherwise.
        let pack = b_transposed || k > PACK_MIN_K;
        let mut packed = if pack { vec![0.0; k * COL_TILE] } else { Vec::new() };
        for j0 in (0..m).step_by(COL_TILE) {
            let cols = COL_TILE.min(m - j0);
            let (panel, panel_stride) = if pack {
                for (p, dst) in packed.as_chunks_mut::<COL_TILE>().0.iter_mut().enumerate() {
                    if b_transposed {
                        for (jj, d) in dst[..cols].iter_mut().enumerate() {
                            *d = b[(j0 + jj) * k + p];
                        }
                    } else if cols == COL_TILE {
                        // A fixed-length copy compiles to four vector moves.
                        *dst = b[p * m + j0..][..COL_TILE].try_into().expect("a full panel row");
                    } else {
                        dst[..cols].copy_from_slice(&b[p * m + j0..][..cols]);
                    }
                }
                (packed.as_ptr(), COL_TILE)
            } else {
                // SAFETY: `j0 < m`, so the offset stays inside `b`'s first
                // row (or one past its end when k == 0, never read).
                (unsafe { b.as_ptr().add(j0) }, m)
            };
            let vectors = cols.div_ceil(LANES);
            let tail = cols - (vectors - 1) * LANES;
            let mask: __mmask8 = if tail == LANES { 0xFF } else { (1u8 << tail) - 1 };
            for i0 in (0..rows).step_by(ROW_TILE) {
                let tile = Tile {
                    // SAFETY: `i0 < rows`, so the offset is at most
                    // `a_last`, inside `a`.
                    a: unsafe { a.as_ptr().add(i0 * a_row_stride) },
                    a_row_stride,
                    a_inner_stride,
                    b: panel,
                    b_stride: panel_stride,
                    k,
                    // SAFETY: row `i0` and column `j0` are inside `out`.
                    c: unsafe { out.as_mut_ptr().add(i0 * m + j0) },
                    c_stride: m,
                    mask,
                };
                let tile_rows = ROW_TILE.min(rows - i0);
                // SAFETY: the tile covers rows `i0..i0 + tile_rows` and
                // columns `j0..j0 + cols` of `out`; reads stay inside `a`
                // (checked against `a_last` above) and inside the panel
                // (`k` rows of `cols` valid columns; the masked-off lanes
                // of the last vector are never read). avx512f is enabled.
                unsafe {
                    match vectors {
                        1 => tile.run_rows::<1>(tile_rows),
                        2 => tile.run_rows::<2>(tile_rows),
                        3 => tile.run_rows::<3>(tile_rows),
                        _ => tile.run_rows::<4>(tile_rows),
                    }
                }
            }
        }
    }

    /// One output tile of up to 6 rows × 32 columns.
    struct Tile {
        /// `op(A)[tile row r][p]` is at `a + r * a_row_stride + p * a_inner_stride`.
        a: *const f64,
        a_row_stride: usize,
        a_inner_stride: usize,
        /// `B[p][tile column j]` is at `b + p * b_stride + j`.
        b: *const f64,
        b_stride: usize,
        k: usize,
        /// Output `(r, j)` is at `c + r * c_stride + j`.
        c: *mut f64,
        c_stride: usize,
        /// Valid lanes of the last vector column.
        mask: __mmask8,
    }

    impl Tile {
        /// # Safety
        /// As for [`Tile::run`], with `R = rows`.
        #[target_feature(enable = "avx512f")]
        unsafe fn run_rows<const V: usize>(&self, rows: usize) {
            // SAFETY: forwarded from this function's contract.
            unsafe {
                match rows {
                    1 => self.run::<1, V>(),
                    2 => self.run::<2, V>(),
                    3 => self.run::<3, V>(),
                    4 => self.run::<4, V>(),
                    5 => self.run::<5, V>(),
                    _ => self.run::<ROW_TILE, V>(),
                }
            }
        }

        /// Accumulates `R × (V · 8)` outputs over `p = 0..k` in registers,
        /// then stores them; the last vector column is masked by `mask`.
        ///
        /// # Safety
        /// The CPU must support avx512f; `a`, `b` and `c` must be valid for
        /// every element the strides address for `R` rows, `k` inner steps
        /// and the `(V − 1) · 8 + popcount(mask)` valid columns.
        #[target_feature(enable = "avx512f")]
        #[inline]
        unsafe fn run<const R: usize, const V: usize>(&self) {
            let mut acc = [[_mm512_setzero_pd(); V]; R];
            for p in 0..self.k {
                // SAFETY: `p < k`, and every vector load below is of
                // valid columns (the last one masked to them).
                unsafe {
                    let bp = self.b.add(p * self.b_stride);
                    let mut bv = [_mm512_setzero_pd(); V];
                    for (v, slot) in bv.iter_mut().enumerate() {
                        *slot = if v + 1 == V {
                            _mm512_maskz_loadu_pd(self.mask, bp.add(v * LANES))
                        } else {
                            _mm512_loadu_pd(bp.add(v * LANES))
                        };
                    }
                    let ap = self.a.add(p * self.a_inner_stride);
                    for (r, acc_row) in acc.iter_mut().enumerate() {
                        let av = _mm512_set1_pd(*ap.add(r * self.a_row_stride));
                        for (acc_v, &b_v) in acc_row.iter_mut().zip(&bv) {
                            // The scalar loop's `o += a · b`: round the
                            // product, then add it to the running sum.
                            *acc_v = _mm512_add_pd(*acc_v, _mm512_mul_pd(av, b_v));
                        }
                    }
                }
            }
            for (r, acc_row) in acc.iter().enumerate() {
                // SAFETY: row `r < R` of the tile; the last vector store is
                // masked to the valid columns.
                unsafe {
                    let cr = self.c.add(r * self.c_stride);
                    for (v, &acc_v) in acc_row.iter().enumerate() {
                        if v + 1 == V {
                            _mm512_mask_storeu_pd(cr.add(v * LANES), self.mask, acc_v);
                        } else {
                            _mm512_storeu_pd(cr.add(v * LANES), acc_v);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use runtime::ThreadPool;

    use super::*;
    use crate::par;

    /// Deterministic pseudo-random matrix without an RNG dependency.
    fn test_matrix(rows: usize, cols: usize, salt: u64) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| {
            let h = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((j as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
                .wrapping_add(salt.wrapping_mul(0x94D0_49BB_1331_11EB));
            ((h >> 11) as f64 / (1u64 << 53) as f64) * 10.0 - 5.0
        })
    }

    /// All output rows of `product`, computed in one block.
    fn compute(product: &Product<'_>) -> Vec<u64> {
        let (n, _, m) = product.shape();
        let mut out = vec![f64::NAN; n * m];
        product.rows_into(0, &mut out);
        out.iter().map(|v| v.to_bits()).collect()
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The dispatched kernel and the scalar `ikj` loop agree bit for bit
    /// on `a · b`, `aᵀ · b` (`a` given transposed) and `a · bᵀ`. On a CPU
    /// without avx512f both sides are the scalar loop.
    fn assert_kernels_agree(a: &Matrix, b: &Matrix) {
        let (at, bt) = (a.transpose(), b.transpose());
        let shape = (a.rows(), a.cols(), b.cols());
        let reference = compute(&Product::nn(a, b).scalar());
        assert_eq!(compute(&Product::nn(a, b)), reference, "nn {shape:?}");
        assert_eq!(compute(&Product::tn(&at, b)), reference, "tn {shape:?}");
        assert_eq!(compute(&Product::tn(&at, b).scalar()), reference, "scalar tn {shape:?}");
        assert_eq!(compute(&Product::nt(a, &bt)), reference, "nt {shape:?}");
        assert_eq!(compute(&Product::nt(a, &bt).scalar()), reference, "scalar nt {shape:?}");
    }

    #[test]
    fn kernels_agree_on_every_tile_remainder() {
        // Rows 0..=13 hit every row remainder 1–5 of the 6-row tile twice;
        // columns 0..=70 hit every column tail 1–31 of the 32-column tile
        // and a second panel; k = 0 gives all-zero outputs.
        for k in [0, 1, 2, 7, 8, 33] {
            for n in 0..=13 {
                for m in 0..=70 {
                    let a = test_matrix(n, k, (n * 131 + k) as u64);
                    let b = test_matrix(k, m, (m * 137 + k) as u64);
                    assert_kernels_agree(&a, &b);
                }
            }
        }
        // The large-K set-up shape, full-tile shapes, and inner dimensions
        // around the one above which `B` panels are packed.
        for (n, k, m) in [(1, 8, 32), (6, 160, 256), (64, 160, 256), (37, 48, 96), (13, 256, 70), (13, 257, 70), (7, 900, 33)] {
            assert_kernels_agree(&test_matrix(n, k, 1), &test_matrix(k, m, 2));
        }
    }

    #[test]
    fn kernels_agree_on_non_finite_and_signed_zero_inputs() {
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0, f64::MIN_POSITIVE / 4.0];
        let seed = |m: &mut Matrix, salt: usize| {
            let len = m.len();
            for (t, &v) in specials.iter().enumerate() {
                m.as_mut_slice()[(t * 7 + salt) % len] = v;
            }
        };
        for (n, k, m) in [(7, 5, 37), (13, 9, 64), (6, 3, 8), (1, 8, 32)] {
            let mut a = test_matrix(n, k, 11);
            let mut b = test_matrix(k, m, 12);
            seed(&mut a, 0);
            seed(&mut b, 3);
            assert_kernels_agree(&a, &b);
            // Products of -0.0 only: the 0.0 start makes every sum +0.0.
            let neg_zero_a = Matrix::full(n, k, -0.0);
            assert_kernels_agree(&neg_zero_a, &b.map(f64::abs));
            assert!(compute(&Product::nn(&neg_zero_a, &Matrix::full(k, m, 1.0))).iter().all(|&v| v == 0));
        }
    }

    #[test]
    fn products_bit_identical_across_pools() {
        let a = test_matrix(301, 160, 21);
        let b = test_matrix(160, 77, 22);
        let (at, bt) = (a.transpose(), b.transpose());
        let reference = compute(&Product::nn(&a, &b).scalar());
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::new(threads);
            assert_eq!(bits(&par::matmul(&pool, &a, &b)), reference, "matmul, {threads} threads");
            assert_eq!(bits(&par::matmul_tn(&pool, &at, &b)), reference, "matmul_tn, {threads} threads");
            assert_eq!(bits(&par::matmul_nt(&pool, &a, &bt)), reference, "matmul_nt, {threads} threads");
        }
    }

    #[test]
    fn transposed_forms_match_transpose_then_matmul() {
        let a = test_matrix(900, 33, 31);
        let dy = test_matrix(900, 45, 32);
        let w = test_matrix(45, 33, 33);
        assert_eq!(bits(&a.matmul_tn(&dy)), bits(&a.transpose().matmul(&dy)));
        assert_eq!(bits(&a.matmul_nt(&a)), bits(&a.matmul(&a.transpose())));
        assert_eq!(bits(&dy.matmul_nt(&w.transpose())), bits(&dy.matmul(&w)));
    }

    #[test]
    #[should_panic(expected = "matmul_tn: inner dimensions differ")]
    fn matmul_tn_rejects_shape_mismatch() {
        let _ = Matrix::zeros(3, 2).matmul_tn(&Matrix::zeros(2, 3));
    }

    #[test]
    #[should_panic(expected = "matmul_nt: inner dimensions differ")]
    fn matmul_nt_rejects_shape_mismatch() {
        let _ = Matrix::zeros(3, 2).matmul_nt(&Matrix::zeros(2, 3));
    }

    proptest! {
        #[test]
        fn kernels_agree_on_random_shapes(
            n in 0usize..40,
            k in 0usize..40,
            m in 0usize..80,
            salt in 0u64..1000,
        ) {
            assert_kernels_agree(&test_matrix(n, k, salt), &test_matrix(k, m, salt + 1));
        }
    }
}
