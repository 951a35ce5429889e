//! Pool-parameterized parallel kernels behind the [`Matrix`] hot paths.
//!
//! The public `Matrix` methods (`matmul`, `softmax_rows`, …) and the
//! [`crate::distance`] kernels delegate here with the process-wide
//! [`runtime::global`] pool; these explicit-pool variants exist so tests can
//! assert the determinism contract across pools of different sizes.
//!
//! Every kernel computes exactly the same per-element arithmetic as its
//! serial predecessor — parallelism only re-schedules disjoint row blocks —
//! so outputs are **bit-identical for every thread count**, including the
//! `TABLEDC_THREADS=1` pure-serial mode.

use runtime::{block_rows, par_for_rows, par_join, ThreadPool};

use crate::gemm::{Product, ROW_TILE};
use crate::matrix::Matrix;

/// Rows below which row-wise maps stay on one thread (scheduling overhead
/// dominates under this size; the cutoff never affects results).
const MIN_MAP_ROWS: usize = 64;

/// Floating-point operations a pool task of a matrix product carries at
/// least (a row costs 2·k·m). 2²⁰ FLOP is about 30 µs of the AVX-512
/// kernel, above the ~20 µs that splitting a product across the pool
/// (queueing, waking a worker, joining) cost on a 2-vCPU AVX-512 host;
/// products below it run inline. The value never affects results.
const MIN_TASK_FLOP: u64 = 1 << 20;

/// Matrix product `a · b` on an explicit pool.
///
/// The product kernel (the crate's `gemm` module) is an AVX-512F
/// register-tiled kernel when the CPU has `avx512f`, and the scalar `ikj`
/// loop otherwise; both add `a[i][p] · b[p][j]` to `0.0` in ascending `p`
/// with no FMA, so they agree bit for bit. Output rows are computed in
/// disjoint parallel blocks, so results are bit-identical for every thread
/// count.
///
/// # Panics
/// Panics if `a.cols() != b.rows()`.
pub fn matmul(pool: &ThreadPool, a: &Matrix, b: &Matrix) -> Matrix {
    gemm(pool, Product::nn(a, b))
}

/// `aᵀ · b` on an explicit pool, without materializing `aᵀ`; bit-identical
/// to `matmul(pool, &a.transpose(), b)`.
///
/// # Panics
/// Panics if `a.rows() != b.rows()`.
pub fn matmul_tn(pool: &ThreadPool, a: &Matrix, b: &Matrix) -> Matrix {
    gemm(pool, Product::tn(a, b))
}

/// `a · bᵀ` on an explicit pool, without materializing `bᵀ` on the SIMD
/// path; bit-identical to `matmul(pool, a, &b.transpose())`.
///
/// # Panics
/// Panics if `a.cols() != b.cols()`.
pub fn matmul_nt(pool: &ThreadPool, a: &Matrix, b: &Matrix) -> Matrix {
    gemm(pool, Product::nt(a, b))
}

/// Runs `product` in parallel blocks of whole row tiles; all but the last
/// carry at least [`MIN_TASK_FLOP`] (the blocking is invisible in the
/// output). Up to four blocks per thread balance the load; the floor limits
/// the block count rather than fixing a block size, so no block is a small
/// leftover.
fn gemm(pool: &ThreadPool, product: Product<'_>) -> Matrix {
    let _timer = obs::span!("tensor.matmul");
    let (n, k, m) = product.shape();
    let mut out = Matrix::zeros(n, m);
    if n == 0 || m == 0 || k == 0 {
        return out;
    }
    let flop = 2 * n as u64 * k as u64 * m as u64;
    let blocks = (flop / MIN_TASK_FLOP).clamp(1, 4 * pool.threads() as u64) as usize;
    let block = n.div_ceil(blocks).next_multiple_of(ROW_TILE);
    par_for_rows(pool, out.as_mut_slice(), m, block, |first_row, chunk| {
        product.rows_into(first_row, chunk);
    });
    out
}

/// Pairwise squared Euclidean distances on an explicit pool (see
/// [`crate::distance::sq_euclidean_cdist`]).
pub fn sq_euclidean_cdist(pool: &ThreadPool, x: &Matrix, y: &Matrix) -> Matrix {
    assert_eq!(
        x.cols(),
        y.cols(),
        "sq_euclidean_cdist: feature dims differ ({} vs {})",
        x.cols(),
        y.cols()
    );
    let _timer = obs::span!("tensor.cdist");
    let (xn, yn): (Vec<f64>, Vec<f64>) = par_join(
        pool,
        || x.row_iter().map(|r| r.iter().map(|v| v * v).sum()).collect(),
        || y.row_iter().map(|r| r.iter().map(|v| v * v).sum()).collect(),
    );
    let mut g = matmul_nt(pool, x, y);
    let m = g.cols();
    if m == 0 || g.rows() == 0 {
        return g;
    }
    let block = block_rows(g.rows(), pool.threads(), MIN_MAP_ROWS);
    let (xn, yn) = (&xn, &yn);
    par_for_rows(pool, g.as_mut_slice(), m, block, |first_row, chunk| {
        for (r, row) in chunk.chunks_exact_mut(m).enumerate() {
            let xni = xn[first_row + r];
            for (v, &ynj) in row.iter_mut().zip(yn.iter()) {
                *v = (xni + ynj - 2.0 * *v).max(0.0);
            }
        }
    });
    g
}

/// Pairwise cosine distances on an explicit pool (see
/// [`crate::distance::cosine_cdist`]).
pub fn cosine_cdist(pool: &ThreadPool, x: &Matrix, y: &Matrix) -> Matrix {
    assert_eq!(x.cols(), y.cols(), "cosine_cdist: feature dims differ");
    let (xn, yn) = par_join(pool, || normalize_rows(pool, x), || normalize_rows(pool, y));
    let mut sim = matmul_nt(pool, &xn, &yn);
    map_rows(pool, &mut sim, |row| {
        for s in row {
            *s = (1.0 - s.clamp(-1.0, 1.0)).max(0.0);
        }
    });
    sim
}

/// Row-wise softmax on an explicit pool (see [`Matrix::softmax_rows`]).
pub fn softmax_rows(pool: &ThreadPool, x: &Matrix) -> Matrix {
    let mut out = x.clone();
    map_rows(pool, &mut out, |row| {
        let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        if sum > 0.0 {
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
    });
    out
}

/// Row-wise L2 normalization on an explicit pool (see
/// [`Matrix::normalize_rows`]); zero rows are left unchanged.
pub fn normalize_rows(pool: &ThreadPool, x: &Matrix) -> Matrix {
    let mut out = x.clone();
    map_rows(pool, &mut out, |row| {
        let norm = row.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm > 0.0 {
            for v in row.iter_mut() {
                *v /= norm;
            }
        }
    });
    out
}

/// Per-row argmax on an explicit pool (ties to the first maximum, matching
/// the serial [`Matrix::argmax_rows`]).
pub fn argmax_rows(pool: &ThreadPool, x: &Matrix) -> Vec<usize> {
    let n = x.rows();
    let mut out = vec![0usize; n];
    if n == 0 || x.cols() == 0 {
        return out;
    }
    let block = block_rows(n, pool.threads(), 256);
    par_for_rows(pool, &mut out, 1, block, |first_row, chunk| {
        for (r, slot) in chunk.iter_mut().enumerate() {
            let row = x.row(first_row + r);
            let mut best = 0;
            for (j, &v) in row.iter().enumerate().skip(1) {
                if v > row[best] {
                    best = j;
                }
            }
            *slot = best;
        }
    });
    out
}

/// Applies `f` to every row of `m` in parallel disjoint blocks.
fn map_rows(pool: &ThreadPool, m: &mut Matrix, f: impl Fn(&mut [f64]) + Sync) {
    let cols = m.cols();
    if m.rows() == 0 || cols == 0 {
        return;
    }
    let block = block_rows(m.rows(), pool.threads(), MIN_MAP_ROWS);
    par_for_rows(pool, m.as_mut_slice(), cols, block, |_, chunk| {
        for row in chunk.chunks_exact_mut(cols) {
            f(row);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pools() -> Vec<ThreadPool> {
        [1, 2, 4, 8].into_iter().map(ThreadPool::new).collect()
    }

    /// Deterministic pseudo-random matrix without an RNG dependency.
    fn test_matrix(rows: usize, cols: usize, salt: u64) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| {
            let h = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((j as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
                .wrapping_add(salt);
            ((h >> 11) as f64 / (1u64 << 53) as f64) * 10.0 - 5.0
        })
    }

    #[test]
    fn matmul_bit_identical_across_pools() {
        let a = test_matrix(67, 33, 1);
        let b = test_matrix(33, 29, 2);
        let reference = matmul(&ThreadPool::new(1), &a, &b);
        for pool in pools() {
            let got = matmul(&pool, &a, &b);
            assert!(got == reference, "threads = {}", pool.threads());
        }
    }

    #[test]
    fn cdist_bit_identical_across_pools() {
        let x = test_matrix(131, 17, 3);
        let y = test_matrix(9, 17, 4);
        let reference = sq_euclidean_cdist(&ThreadPool::new(1), &x, &y);
        for pool in pools() {
            assert!(sq_euclidean_cdist(&pool, &x, &y) == reference);
            assert!(cosine_cdist(&pool, &x, &y) == cosine_cdist(&ThreadPool::new(1), &x, &y));
        }
    }

    #[test]
    fn rowwise_kernels_bit_identical_across_pools() {
        let x = test_matrix(200, 13, 5);
        let serial = ThreadPool::new(1);
        for pool in pools() {
            assert!(softmax_rows(&pool, &x) == softmax_rows(&serial, &x));
            assert!(normalize_rows(&pool, &x) == normalize_rows(&serial, &x));
            assert_eq!(argmax_rows(&pool, &x), argmax_rows(&serial, &x));
        }
    }

    #[test]
    fn adversarial_shapes() {
        for pool in pools() {
            // 0×n and n×0 matmuls.
            assert_eq!(matmul(&pool, &Matrix::zeros(0, 5), &Matrix::zeros(5, 3)).shape(), (0, 3));
            assert_eq!(matmul(&pool, &Matrix::zeros(4, 0), &Matrix::zeros(0, 3)).shape(), (4, 3));
            assert_eq!(matmul(&pool, &Matrix::zeros(4, 5), &Matrix::zeros(5, 0)).shape(), (4, 0));
            // 1×1.
            let one = Matrix::from_rows(&[&[3.0]]);
            assert_eq!(matmul(&pool, &one, &one)[(0, 0)], 9.0);
            // Empty cdist.
            assert_eq!(sq_euclidean_cdist(&pool, &Matrix::zeros(0, 4), &Matrix::zeros(2, 4)).shape(), (0, 2));
            assert_eq!(argmax_rows(&pool, &Matrix::zeros(0, 0)), Vec::<usize>::new());
        }
    }
}
