//! ZY-representation successive band reduction — the conventional algorithm
//! (Dongarra, Sorensen & Hammarling 1989; what MAGMA's `ssytrd_sy2sb` does).
//!
//! Per b-wide panel:
//! 1. QR-factor the panel below the band into `Q = I − W·Yᵀ`.
//! 2. Form `Z = A·W − ½·Y·(Wᵀ·A·W)`           (paper eq. 2)
//! 3. Rank-2b trailing update `A ← A − Y·Zᵀ − Z·Yᵀ`  (paper eq. 3)
//!
//! Every GEMM here has inner dimension `k = b` (the bandwidth, ≤ 256) —
//! the tall-and-skinny shapes that underutilize Tensor Cores and motivate
//! the paper's WY reformulation. Step 3 is `syr2k` mathematically; Tensor
//! Cores have no symmetric rank-2k primitive, so it is issued as two full
//! outer-product GEMMs (exactly the paper's observation in §4.1).

use crate::common::{accumulate_q_right, symmetrize, SbrOptions, SbrResult};
use crate::panel::factor_panel_with;
use tcevd_matrix::{Mat, Op};
use tcevd_tensorcore::GemmContext;
use tcevd_trace::span;

/// Reduce symmetric `a` to band form with the ZY algorithm.
///
/// Returns [`crate::BandError`] (rather than panicking) on a non-square
/// input, a zero bandwidth, or non-finite entries.
pub fn sbr_zy(
    a: &Mat<f32>,
    opts: &SbrOptions,
    ctx: &GemmContext,
) -> Result<SbrResult, crate::BandError> {
    crate::error::check_sbr_input(a, opts.bandwidth)?;
    let n = a.rows();
    let b = opts.bandwidth;

    let sink = ctx.sink().clone();
    let _sbr_span = span!(sink, "sbr_zy", n, b);

    let mut a = a.clone();
    let mut q = opts.accumulate_q.then(|| Mat::<f32>::identity(n, n));

    let mut i = 0;
    while i + b < n {
        // Cooperative cancellation at the panel boundary: the panel in
        // flight always completes, keeping retried runs bit-identical.
        if ctx.cancel_requested() {
            return Err(crate::BandError::Cancelled);
        }
        let mp = n - i - b; // panel rows
        let panel = a.view(i + b, i, mp, b);
        let f = factor_panel_with(panel, opts.panel, &sink);

        // Write back the reduced panel (and its symmetric mirror).
        a.view_mut(i + b, i, mp, b).copy_from(f.reduced.as_ref());
        let rt = f.reduced.transpose();
        a.view_mut(i, i + b, b, mp).copy_from(rt.as_ref());

        // Trailing two-sided update via ZY representation.
        let k = f.w.cols();
        let _update_span = span!(sink, "block_update", i, k);
        let trailing = a.view(i + b, i + b, mp, mp);

        // AW = A₂·W  — square × tall-skinny, inner k = b
        let mut aw = Mat::<f32>::zeros(mp, k);
        ctx.gemm(
            "zy_aw",
            1.0,
            trailing,
            Op::NoTrans,
            f.w.as_ref(),
            Op::NoTrans,
            0.0,
            aw.as_mut(),
        );

        // WAW = Wᵀ·AW (k×k)
        let mut waw = Mat::<f32>::zeros(k, k);
        ctx.gemm(
            "zy_waw",
            1.0,
            f.w.as_ref(),
            Op::Trans,
            aw.as_ref(),
            Op::NoTrans,
            0.0,
            waw.as_mut(),
        );

        // Z = AW − ½·Y·WAW
        let mut z = aw;
        ctx.gemm(
            "zy_z",
            -0.5,
            f.y.as_ref(),
            Op::NoTrans,
            waw.as_ref(),
            Op::NoTrans,
            1.0,
            z.as_mut(),
        );

        // A₂ ← A₂ − Y·Zᵀ − Z·Yᵀ — engine-faithful rank-2k: native syr2k
        // (half flops) on the FP32 path, two outer-product GEMMs on Tensor
        // Cores (which have no syr2k — the paper's §4.1 observation).
        ctx.syr2k_update(
            "zy_syr2k",
            f.y.as_ref(),
            z.as_ref(),
            a.view_mut(i + b, i + b, mp, mp),
        );

        if let Some(q) = q.as_mut() {
            accumulate_q_right(ctx, q.view_mut(0, i + b, n, mp), f.w.as_ref(), f.y.as_ref());
        }
        i += b;
    }

    // The two one-sided updates leave O(eps) asymmetry; restore it exactly.
    symmetrize(&mut a);
    crate::common::clip_to_band(&mut a, b);
    Ok(SbrResult { band: a, q })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::common::max_outside_band;
    use crate::panel::PanelKind;
    use tcevd_matrix::blas3::matmul;
    use tcevd_matrix::norms::{frobenius, orthogonality_residual};
    use tcevd_tensorcore::Engine;
    use tcevd_testmat::{generate, MatrixType};
    use tcevd_trace::TraceSink;

    fn test_matrix(n: usize, seed: u64) -> Mat<f32> {
        generate(n, MatrixType::Normal, seed).cast()
    }

    fn backward_error(a: &Mat<f32>, r: &SbrResult) -> f32 {
        let q = r.q.as_ref().expect("Q required");
        let n = a.rows() as f32;
        // ‖A − Q·B·Qᵀ‖_F / (N‖A‖_F)
        let qb = matmul(q.as_ref(), Op::NoTrans, r.band.as_ref(), Op::NoTrans);
        let qbqt = matmul(qb.as_ref(), Op::NoTrans, q.as_ref(), Op::Trans);
        let mut diff = a.clone();
        for j in 0..a.cols() {
            for i in 0..a.rows() {
                diff[(i, j)] -= qbqt[(i, j)];
            }
        }
        frobenius(diff.as_ref()) / (n * frobenius(a.as_ref()))
    }

    #[test]
    fn produces_band_structure() {
        let a = test_matrix(64, 1);
        let opts = SbrOptions {
            bandwidth: 8,
            panel: PanelKind::Tsqr,
            accumulate_q: false,
        };
        let ctx = GemmContext::new(Engine::Sgemm);
        let r = sbr_zy(&a, &opts, &ctx).expect("sbr reduction");
        assert_eq!(max_outside_band(r.band.as_ref(), 8), 0.0);
        // symmetric
        assert!(r.band.max_abs_diff(&r.band.transpose()) == 0.0);
    }

    #[test]
    fn similarity_is_backward_stable_sgemm() {
        let a = test_matrix(96, 2);
        let opts = SbrOptions {
            bandwidth: 8,
            panel: PanelKind::Tsqr,
            accumulate_q: true,
        };
        let ctx = GemmContext::new(Engine::Sgemm);
        let r = sbr_zy(&a, &opts, &ctx).expect("sbr reduction");
        let q = r.q.as_ref().unwrap();
        assert!(orthogonality_residual(q.as_ref()) / 96.0 < 1e-5);
        assert!(backward_error(&a, &r) < 1e-6);
    }

    #[test]
    fn similarity_with_tensor_core_is_f16_stable() {
        let a = test_matrix(96, 3);
        let opts = SbrOptions {
            bandwidth: 8,
            panel: PanelKind::Tsqr,
            accumulate_q: true,
        };
        let ctx = GemmContext::new(Engine::Tc);
        let r = sbr_zy(&a, &opts, &ctx).expect("sbr reduction");
        // the paper's machine epsilon for Tensor Core is 1e-4 (normalized by N)
        assert!(backward_error(&a, &r) < 1e-4);
    }

    #[test]
    fn preserves_trace() {
        // similarity transforms preserve the trace
        let a = test_matrix(80, 4);
        let opts = SbrOptions {
            bandwidth: 16,
            panel: PanelKind::Tsqr,
            accumulate_q: false,
        };
        let ctx = GemmContext::new(Engine::Sgemm);
        let r = sbr_zy(&a, &opts, &ctx).expect("sbr reduction");
        let tr_a: f32 = (0..80).map(|i| a[(i, i)]).sum();
        let tr_b: f32 = (0..80).map(|i| r.band[(i, i)]).sum();
        assert!((tr_a - tr_b).abs() < 1e-3 * tr_a.abs().max(1.0));
    }

    #[test]
    fn householder_panel_variant_matches() {
        let a = test_matrix(64, 5);
        let ctx = GemmContext::new(Engine::Sgemm);
        let r1 = sbr_zy(
            &a,
            &SbrOptions {
                bandwidth: 8,
                panel: PanelKind::Tsqr,
                accumulate_q: true,
            },
            &ctx,
        )
        .expect("sbr reduction");
        let r2 = sbr_zy(
            &a,
            &SbrOptions {
                bandwidth: 8,
                panel: PanelKind::Householder,
                accumulate_q: true,
            },
            &ctx,
        )
        .expect("sbr reduction");
        // band matrices are similar (not equal: sign choices differ), so
        // compare via backward error of each
        assert!(backward_error(&a, &r1) < 1e-6);
        assert!(backward_error(&a, &r2) < 1e-6);
    }

    #[test]
    fn bandwidth_not_dividing_n() {
        let a = test_matrix(70, 6); // 70 = 8*8 + 6
        let opts = SbrOptions {
            bandwidth: 8,
            panel: PanelKind::Tsqr,
            accumulate_q: true,
        };
        let ctx = GemmContext::new(Engine::Sgemm);
        let r = sbr_zy(&a, &opts, &ctx).expect("sbr reduction");
        assert_eq!(max_outside_band(r.band.as_ref(), 8), 0.0);
        assert!(backward_error(&a, &r) < 1e-6);
    }

    #[test]
    fn trace_records_tall_skinny_shapes() {
        let a = test_matrix(64, 7);
        let opts = SbrOptions {
            bandwidth: 8,
            panel: PanelKind::Tsqr,
            accumulate_q: false,
        };
        let sink = TraceSink::enabled();
        let ctx = GemmContext::new(Engine::Tc).with_sink(sink.clone());
        let _ = sbr_zy(&a, &opts, &ctx).expect("sbr reduction");
        let tr = sink.gemms();
        assert!(!tr.is_empty());
        // every ZY trailing-update GEMM has inner dimension ≤ b
        for rec in tr.iter().filter(|r| r.label.starts_with("zy_syr2k")) {
            assert!(rec.k <= 8, "syr2k inner dim {} > b", rec.k);
            assert_eq!(rec.m, rec.n); // outer product is square output
        }
        assert!(tr.iter().any(|r| r.label == "zy_aw"));
    }

    #[test]
    fn bandwidth_one_gives_tridiagonal() {
        let a = test_matrix(24, 8);
        let opts = SbrOptions {
            bandwidth: 1,
            panel: PanelKind::Tsqr,
            accumulate_q: true,
        };
        let ctx = GemmContext::new(Engine::Sgemm);
        let r = sbr_zy(&a, &opts, &ctx).expect("sbr reduction");
        assert_eq!(max_outside_band(r.band.as_ref(), 1), 0.0);
        assert!(backward_error(&a, &r) < 1e-5);
    }
}
