//! Block Lanczos iteration for dominant eigenpairs — the paper's related
//! work \[40\] (randomized block Lanczos, "proven efficient … especially on
//! modern high-performance architectures") and its future-work note that
//! "iterative methods on GPU will also be considered".
//!
//! Block size > 1 turns the Krylov matvecs into GEMMs, which is exactly
//! what makes the method Tensor-Core-friendly: every `A·V` here goes
//! through the [`GemmContext`]. Full reorthogonalization keeps the basis
//! numerically orthonormal (the classic Lanczos failure mode), and a
//! Rayleigh–Ritz projection extracts the eigenpair estimates.

use crate::jacobi::jacobi_eig;
use crate::ql::EigError;
use tcevd_factor::qr::{geqr2, orgqr};
use tcevd_matrix::{Mat, Op};
use tcevd_tensorcore::GemmContext;

/// Configuration for [`block_lanczos`].
#[derive(Copy, Clone, Debug)]
pub struct LanczosOptions {
    /// Krylov block width (GEMM-friendly: 4–32).
    pub block: usize,
    /// Number of block iterations (basis grows to `block·(iters+1)`).
    pub iters: usize,
    /// Seed for the random start block.
    pub seed: u64,
}

impl Default for LanczosOptions {
    fn default() -> Self {
        LanczosOptions {
            block: 8,
            iters: 6,
            seed: 0xB10C,
        }
    }
}

/// Top-k eigenpairs (largest |λ|) of a symmetric matrix by block Lanczos
/// with full reorthogonalization. Eigenvalues in descending |λ| order.
pub fn block_lanczos(
    a: &Mat<f32>,
    k: usize,
    opts: &LanczosOptions,
    ctx: &GemmContext,
) -> Result<(Vec<f32>, Mat<f32>), EigError> {
    let n = a.rows();
    assert!(a.is_square());
    assert!(k >= 1);
    let p = opts.block.max(1).min(n);
    let max_basis = (p * (opts.iters + 1)).min(n);
    assert!(k <= max_basis, "need block·(iters+1) ≥ k");

    // basis V (n × grown), start block = orthonormalized Gaussian
    let mut v = Mat::<f32>::zeros(n, max_basis);
    let start: Mat<f32> = tcevd_testmat::random_gaussian(n, p, opts.seed).cast();
    let q0 = thin_qr(&start);
    v.view_mut(0, 0, n, p).copy_from(q0.view(0, 0, n, p));
    let mut cols = p;

    let mut last_width = p;
    while cols < max_basis && last_width > 0 {
        // W = A·V_last (GEMM through the engine)
        let last = v.submatrix(0, cols - last_width, n, last_width);
        let mut w = Mat::<f32>::zeros(n, last_width);
        ctx.gemm(
            "lanczos_av",
            1.0,
            a.as_ref(),
            Op::NoTrans,
            last.as_ref(),
            Op::NoTrans,
            0.0,
            w.as_mut(),
        );

        // full block reorthogonalization against the existing basis (CGS2)
        for _ in 0..2 {
            let vk = v.view(0, 0, n, cols);
            let mut proj = Mat::<f32>::zeros(cols, last_width);
            ctx.gemm(
                "lanczos_proj",
                1.0,
                vk,
                Op::Trans,
                w.as_ref(),
                Op::NoTrans,
                0.0,
                proj.as_mut(),
            );
            ctx.gemm(
                "lanczos_deflate",
                -1.0,
                vk,
                Op::NoTrans,
                proj.as_ref(),
                Op::NoTrans,
                1.0,
                w.as_mut(),
            );
        }

        // Rank-revealing column acceptance: orthogonalize each candidate
        // against the accepted prefix and keep it only if a significant
        // component survives — normalizing a numerically-dead column would
        // inject noise that is NOT orthogonal to the basis (and lets Ritz
        // values escape the spectrum).
        let mut accepted = 0;
        for c in 0..last_width {
            let orig_norm = tcevd_matrix::blas1::nrm2(w.col(c));
            if orig_norm == 0.0 {
                continue;
            }
            // copy candidate into the next basis slot, then CGS2 against
            // everything accepted so far (basis + this block's accepted)
            let cand: Vec<f32> = w.col(c).to_vec();
            v.col_mut(cols + accepted).copy_from_slice(&cand);
            for _ in 0..2 {
                for j in 0..cols + accepted {
                    let mut dot = 0.0f32;
                    for i in 0..n {
                        dot += v[(i, j)] * v[(i, cols + accepted)];
                    }
                    for i in 0..n {
                        let sub = dot * v[(i, j)];
                        v[(i, cols + accepted)] -= sub;
                    }
                }
            }
            let norm = tcevd_matrix::blas1::nrm2(&v.col(cols + accepted)[..n]);
            if norm > 1e-4 * orig_norm && norm.is_finite() {
                let inv = 1.0 / norm;
                for x in v.col_mut(cols + accepted) {
                    *x *= inv;
                }
                accepted += 1;
                if cols + accepted == max_basis {
                    break;
                }
            } else {
                // deflated direction: zero the slot and move on
                v.col_mut(cols + accepted).fill(0.0);
            }
        }
        cols += accepted;
        last_width = accepted.min(p);
    }

    // Rayleigh–Ritz on the grown basis
    let vk = v.submatrix(0, 0, n, cols);
    let mut av = Mat::<f32>::zeros(n, cols);
    ctx.gemm(
        "lanczos_avk",
        1.0,
        a.as_ref(),
        Op::NoTrans,
        vk.as_ref(),
        Op::NoTrans,
        0.0,
        av.as_mut(),
    );
    let mut t = Mat::<f32>::zeros(cols, cols);
    ctx.gemm(
        "lanczos_project",
        1.0,
        vk.as_ref(),
        Op::Trans,
        av.as_ref(),
        Op::NoTrans,
        0.0,
        t.as_mut(),
    );
    for j in 0..cols {
        for i in 0..j {
            let s = 0.5 * (t[(i, j)] + t[(j, i)]);
            t[(i, j)] = s;
            t[(j, i)] = s;
        }
    }
    let (vals, z) = jacobi_eig(&t)?;

    // top-k by |λ|
    let kk = k.min(cols);
    let mut idx: Vec<usize> = (0..cols).collect();
    idx.sort_by(|&x, &y| {
        vals[y]
            .abs()
            .partial_cmp(&vals[x].abs())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    idx.truncate(kk);
    let mut out_vals = Vec::with_capacity(kk);
    let mut zk = Mat::<f32>::zeros(cols, kk);
    for (c, &i) in idx.iter().enumerate() {
        out_vals.push(vals[i]);
        zk.col_mut(c).copy_from_slice(z.col(i));
    }
    let mut vecs = Mat::<f32>::zeros(n, kk);
    ctx.gemm(
        "lanczos_lift",
        1.0,
        vk.as_ref(),
        Op::NoTrans,
        zk.as_ref(),
        Op::NoTrans,
        0.0,
        vecs.as_mut(),
    );
    Ok((out_vals, vecs))
}

fn thin_qr(a: &Mat<f32>) -> Mat<f32> {
    let mut packed = a.clone();
    let tau = geqr2(packed.as_mut());
    orgqr(packed.as_ref(), &tau)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::metrics::eigenpair_residual;
    use tcevd_matrix::norms::orthogonality_residual;
    use tcevd_tensorcore::Engine;
    use tcevd_testmat::prescribed_spectrum;

    fn gapped(n: usize, top: &[f64], tail: f64, seed: u64) -> Mat<f32> {
        let mut lam = vec![tail; n];
        lam[..top.len()].copy_from_slice(top);
        prescribed_spectrum(&lam, seed).cast()
    }

    #[test]
    fn converges_on_gapped_spectrum() {
        let a = gapped(150, &[9.0, 7.0, 5.0], 0.1, 1);
        let ctx = GemmContext::new(Engine::Sgemm);
        let (vals, vecs) = block_lanczos(&a, 3, &LanczosOptions::default(), &ctx).unwrap();
        for (got, want) in vals.iter().zip([9.0, 7.0, 5.0].iter()) {
            assert!((*got as f64 - want).abs() < 1e-3, "{got} vs {want}");
        }
        assert!(orthogonality_residual(vecs.as_ref()) < 1e-4);
        assert!(eigenpair_residual(a.as_ref(), &vals, vecs.as_ref()) < 1e-3);
    }

    #[test]
    fn tensor_core_engine_works() {
        let a = gapped(100, &[6.0, 4.0], 0.05, 2);
        let ctx = GemmContext::new(Engine::Tc);
        let (vals, _) = block_lanczos(&a, 2, &LanczosOptions::default(), &ctx).unwrap();
        assert!((vals[0] - 6.0).abs() < 5e-2);
        assert!((vals[1] - 4.0).abs() < 5e-2);
    }

    #[test]
    fn finds_negative_dominant() {
        let a = gapped(80, &[-8.0, 5.0], 0.01, 3);
        let ctx = GemmContext::new(Engine::Sgemm);
        let (vals, _) = block_lanczos(&a, 2, &LanczosOptions::default(), &ctx).unwrap();
        assert!((vals[0] + 8.0).abs() < 1e-3, "{}", vals[0]);
        assert!((vals[1] - 5.0).abs() < 1e-3, "{}", vals[1]);
    }

    #[test]
    fn more_iterations_improve_flat_spectra() {
        let n = 120;
        let lam: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64 / 8.0)).collect();
        let a: Mat<f32> = prescribed_spectrum(&lam, 4).cast();
        let ctx = GemmContext::new(Engine::Sgemm);
        let err = |iters| -> f64 {
            let o = LanczosOptions {
                block: 4,
                iters,
                seed: 5,
            };
            let (vals, _) = block_lanczos(&a, 3, &o, &ctx).unwrap();
            (0..3).map(|i| (vals[i] as f64 - lam[i]).abs()).sum()
        };
        assert!(err(8) <= err(2) + 1e-6);
    }

    #[test]
    fn basis_capped_at_n() {
        // tiny matrix: basis cannot exceed n; still returns k pairs
        let a = gapped(10, &[3.0, 2.0], 0.5, 6);
        let ctx = GemmContext::new(Engine::Sgemm);
        let o = LanczosOptions {
            block: 4,
            iters: 10, // would want 44 columns > n = 10
            seed: 7,
        };
        let (vals, vecs) = block_lanczos(&a, 2, &o, &ctx).unwrap();
        assert_eq!(vals.len(), 2);
        assert_eq!(vecs.cols(), 2);
        assert!((vals[0] - 3.0).abs() < 1e-3);
    }
}
