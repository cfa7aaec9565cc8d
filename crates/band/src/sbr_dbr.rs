//! Detached band reduction (DBR) — the follow-up paper's refinement of the
//! WY algorithm (Wang et al., arXiv 2410.02170): *detach* the aggregation
//! width `nb` from the bandwidth `b`.
//!
//! The panel factorizations and inner next-panel updates are exactly the
//! WY recursion of [`crate::sbr_wy()`] — `nb`-column blocks accumulate an
//! aggregated `(W, Y)` while zeroing columns only down to bandwidth `b`.
//! The difference is the once-per-block trailing update. WY expands
//!
//! ```text
//! GA = (I − Y·Wᵀ)·OA·(I − W·Yᵀ)
//!    = OA − T1·Yᵀ − Y·T1ᵀ + Y·(Wᵀ·T1)·Yᵀ ,     T1 = OA·W
//! ```
//!
//! into four rectangular GEMMs. DBR folds the symmetric middle term into
//! one of the wings: with `T2 = Wᵀ·T1` (symmetric, since `OA` is) and
//!
//! ```text
//! V = T1 − ½·Y·T2      ⇒      GA = OA − V·Yᵀ − Y·Vᵀ ,
//! ```
//!
//! the whole trailing update becomes a single rank-`nb` symmetric two-sided
//! update — one `syr2k` per block instead of `nb/b` skinny ones (the ZY
//! shape) or four full outer products (the WY shape). On an engine with a
//! native symmetric kernel this is half the trailing arithmetic; on any
//! engine it is the large near-square shape the recursive
//! `tcevd_matrix::blas3::syr2k_lower` splits into the GEMMs the packed
//! SIMD tiers are tuned for. `b` stays small, so stage-2 bulge chasing
//! stays cheap — the crossover sweep lives in `reproduce dbr`.

use crate::common::{accumulate_q_right, clip_to_band, symmetrize};
use crate::panel::{factor_panel_with, PanelKind};
use crate::sbr_wy::{LevelWy, WySbrResult};
use tcevd_matrix::{Mat, Op};
use tcevd_tensorcore::GemmContext;
use tcevd_trace::span;

/// Configuration for the detached band reduction.
#[derive(Copy, Clone, Debug)]
pub struct DbrOptions {
    /// Target bandwidth `b` (panel width) — kept small for stage 2.
    pub bandwidth: usize,
    /// Detached aggregation width `nb` (rounded down to a multiple of `b`,
    /// min `b`). Unlike WY there is no pressure to keep this near `b`:
    /// the trailing update cost is one rank-`nb` syr2k either way, so
    /// `nb ≫ b` buys bigger near-square GEMMs at no extra sweep count.
    pub block: usize,
    /// Panel factorization algorithm.
    pub panel: PanelKind,
    /// Accumulate the orthogonal transform.
    pub accumulate_q: bool,
}

impl Default for DbrOptions {
    fn default() -> Self {
        DbrOptions {
            bandwidth: 32,
            block: 256,
            panel: PanelKind::Tsqr,
            accumulate_q: false,
        }
    }
}

/// Reduce symmetric `a` to band form with the detached band reduction.
///
/// Produces the same WY-style per-level `(W, Y)` factors as
/// [`crate::sbr_wy()`] (the back-transformation is shared), differing only in
/// how the trailing matrix is updated. Returns [`crate::BandError`] (rather
/// than panicking) on a non-square input, a zero bandwidth, or non-finite
/// entries.
///
/// ```
/// use tcevd_band::{sbr_dbr, DbrOptions, PanelKind, max_outside_band};
/// use tcevd_tensorcore::{Engine, GemmContext};
/// use tcevd_matrix::Mat;
///
/// let a: Mat<f32> = tcevd_testmat::generate(48, tcevd_testmat::MatrixType::Normal, 1).cast();
/// let ctx = GemmContext::new(Engine::Sgemm);
/// let r = sbr_dbr(&a, &DbrOptions {
///     bandwidth: 8, block: 32, panel: PanelKind::Tsqr, accumulate_q: false,
/// }, &ctx).expect("finite square input");
/// assert_eq!(max_outside_band(r.band.as_ref(), 8), 0.0);
/// ```
pub fn sbr_dbr(
    a: &Mat<f32>,
    opts: &DbrOptions,
    ctx: &GemmContext,
) -> Result<WySbrResult, crate::BandError> {
    crate::error::check_sbr_input(a, opts.bandwidth)?;
    let n = a.rows();
    let b = opts.bandwidth;
    let nb = (opts.block / b).max(1) * b;

    let sink = ctx.sink().clone();
    let _sbr_span = span!(sink, "sbr_dbr", n, b, nb);

    let mut a = a.clone();
    let mut q = opts.accumulate_q.then(|| Mat::<f32>::identity(n, n));
    let mut levels = Vec::new();

    let mut off = 0; // recursion offset: current trailing matrix is a[off.., off..]
    while off + b < n {
        // Cooperative cancellation at the level boundary: a level in flight
        // always completes, so a retried run is bit-identical to a fresh one.
        if ctx.cancel_requested() {
            return Err(crate::BandError::Cancelled);
        }
        let m = n - off; // current trailing size
        let mp = m - b; // rows below the first band block ("OA'" of the paper)

        // The original trailing matrix of this level.
        let oa = a.submatrix(off + b, off + b, mp, mp);

        // Aggregated W, Y over this detached block (mp × ≤nb), plus the
        // cached product AW = OA·W, extended incrementally per panel.
        let kmax = nb.min(mp);
        let mut wacc = Mat::<f32>::zeros(mp, kmax);
        let mut yacc = Mat::<f32>::zeros(mp, kmax);
        let mut aw = Mat::<f32>::zeros(mp, kmax);
        let mut k = 0usize;

        let mut i = 0; // local column offset inside the detached block
        let mut exhausted = false;
        sink.add("sbr_levels", 1);
        let _level_span = span!(sink, "sbr_level", off, m);
        while i < nb && i + b < m {
            // Cancellation seam at panel granularity (lint R9): a deadline
            // hit mid-block aborts before the next panel + inner GEMMs.
            if ctx.cancel_requested() {
                return Err(crate::BandError::Cancelled);
            }
            let prows = m - i - b; // = mp - i
                                   // 1. Panel QR, zeroing down to bandwidth b only.
            let panel = a.view(off + i + b, off + i, prows, b);
            let f = factor_panel_with(panel, opts.panel, &sink);
            let kf = f.w.cols();

            // Write back the reduced panel and its mirror.
            a.view_mut(off + i + b, off + i, prows, b)
                .copy_from(f.reduced.as_ref());
            let rt = f.reduced.transpose();
            a.view_mut(off + i, off + i + b, b, prows)
                .copy_from(rt.as_ref());

            // 2. Aggregate: W ← [W | w − W·(Yᵀ·w)], Y ← [Y | y].
            {
                let mut w_emb = Mat::<f32>::zeros(mp, kf);
                let mut y_emb = Mat::<f32>::zeros(mp, kf);
                w_emb.view_mut(i, 0, prows, kf).copy_from(f.w.as_ref());
                y_emb.view_mut(i, 0, prows, kf).copy_from(f.y.as_ref());

                if k > 0 {
                    // t = Yᵀ·w  (k×kf)
                    let mut t = Mat::<f32>::zeros(k, kf);
                    ctx.gemm(
                        "dbr_acc_ytw",
                        1.0,
                        yacc.view(0, 0, mp, k),
                        Op::Trans,
                        w_emb.as_ref(),
                        Op::NoTrans,
                        0.0,
                        t.as_mut(),
                    );
                    // w ← w − W·t
                    ctx.gemm(
                        "dbr_acc_w",
                        -1.0,
                        wacc.view(0, 0, mp, k),
                        Op::NoTrans,
                        t.as_ref(),
                        Op::NoTrans,
                        1.0,
                        w_emb.as_mut(),
                    );
                }
                // AW[:, k..k+kf] = OA·w_emb.
                ctx.gemm(
                    "dbr_aw_append",
                    1.0,
                    oa.as_ref(),
                    Op::NoTrans,
                    w_emb.as_ref(),
                    Op::NoTrans,
                    0.0,
                    aw.view_mut(0, k, mp, kf),
                );
                wacc.view_mut(0, k, mp, kf).copy_from(w_emb.as_ref());
                yacc.view_mut(0, k, mp, kf).copy_from(y_emb.as_ref());
                k += kf;
            }

            // 3. Update only the NEXT panel's columns from the original OA
            //    (identical to WY — this is what keeps the update deferrable).
            let cw = b.min(mp - i); // next-block width (clipped at the edge)
            {
                let _update_span = span!(sink, "block_update", i, k, cw);
                let w_k = wacc.view(0, 0, mp, k);
                let y_k = yacc.view(0, 0, mp, k);
                let aw_k = aw.view(0, 0, mp, k);

                // X = OA[:, c'] − AW·Y[c',:]ᵀ
                let mut x = oa.submatrix(0, i, mp, cw);
                ctx.gemm(
                    "dbr_inner_x",
                    -1.0,
                    aw_k,
                    Op::NoTrans,
                    yacc.view(i, 0, cw, k),
                    Op::Trans,
                    1.0,
                    x.as_mut(),
                );
                // WX = Wᵀ·X (k×cw)
                let mut wx = Mat::<f32>::zeros(k, cw);
                ctx.gemm(
                    "dbr_inner_wx",
                    1.0,
                    w_k,
                    Op::Trans,
                    x.as_ref(),
                    Op::NoTrans,
                    0.0,
                    wx.as_mut(),
                );
                // GA = X − Y·WX
                ctx.gemm(
                    "dbr_inner_ga",
                    -1.0,
                    y_k,
                    Op::NoTrans,
                    wx.as_ref(),
                    Op::NoTrans,
                    1.0,
                    x.as_mut(),
                );

                let ga = x.submatrix(i, 0, mp - i, cw);
                a.view_mut(off + b + i, off + b + i, mp - i, cw)
                    .copy_from(ga.as_ref());
                let gat = ga.transpose();
                a.view_mut(off + b + i, off + b + i, cw, mp - i)
                    .copy_from(gat.as_ref());
            }

            i += b;
            if i + b >= m {
                exhausted = true;
            }
        }
        let processed = i;

        if let Some(q) = q.as_mut() {
            if k > 0 {
                accumulate_q_right(
                    ctx,
                    q.view_mut(0, off + b, n, mp),
                    wacc.view(0, 0, mp, k),
                    yacc.view(0, 0, mp, k),
                );
            }
        }
        if k > 0 {
            levels.push(LevelWy {
                row_offset: off + b,
                w: wacc.submatrix(0, 0, mp, k),
                y: yacc.submatrix(0, 0, mp, k),
            });
        }

        if exhausted || processed + b >= m {
            break;
        }

        // 4. The detached trailing update, one symmetric rank-k (= nb)
        //    two-sided update per block:
        //      T2  = Wᵀ·T1              (k×k; T1 = OA·W is the cached AW)
        //      V_t = T1_t − ½·Y_t·T2    (mt×k)
        //      M_t = OA_t − V_t·Y_tᵀ − Y_t·V_tᵀ   — one syr2k.
        let mt = mp - processed;
        let _trailing_span = span!(sink, "trailing_update", mt, k);
        let w_k = wacc.view(0, 0, mp, k);
        let y_t = yacc.view(processed, 0, mt, k);
        let t1 = aw.view(0, 0, mp, k);

        // T2 = Wᵀ·T1 (k×k)
        let mut t2 = Mat::<f32>::zeros(k, k);
        ctx.gemm(
            "dbr_final_waw",
            1.0,
            w_k,
            Op::Trans,
            t1,
            Op::NoTrans,
            0.0,
            t2.as_mut(),
        );

        // V_t = T1_t − ½·Y_t·T2
        let mut v_t = t1.view(processed, 0, mt, k).to_owned();
        ctx.gemm(
            "dbr_final_v",
            -0.5,
            y_t,
            Op::NoTrans,
            t2.as_ref(),
            Op::NoTrans,
            1.0,
            v_t.as_mut(),
        );

        // M_t ← OA_t − V_t·Y_tᵀ − Y_t·V_tᵀ
        let mut m_t = oa.submatrix(processed, processed, mt, mt);
        ctx.syr2k_update("dbr_syr2k", y_t, v_t.as_ref(), m_t.as_mut());

        symmetrize(&mut m_t);
        a.view_mut(off + b + processed, off + b + processed, mt, mt)
            .copy_from(m_t.as_ref());

        off += processed;
    }

    symmetrize(&mut a);
    clip_to_band(&mut a, b);
    Ok(WySbrResult { band: a, q, levels })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::common::max_outside_band;
    use crate::sbr_wy::{sbr_wy, WyOptions};
    use tcevd_matrix::blas3::matmul;
    use tcevd_matrix::norms::{frobenius, orthogonality_residual};
    use tcevd_tensorcore::Engine;
    use tcevd_testmat::{generate, MatrixType};

    fn test_matrix(n: usize, seed: u64) -> Mat<f32> {
        generate(n, MatrixType::Normal, seed).cast()
    }

    fn backward_error(a: &Mat<f32>, band: &Mat<f32>, q: &Mat<f32>) -> f32 {
        let n = a.rows() as f32;
        let qb = matmul(q.as_ref(), Op::NoTrans, band.as_ref(), Op::NoTrans);
        let qbqt = matmul(qb.as_ref(), Op::NoTrans, q.as_ref(), Op::Trans);
        let mut diff = a.clone();
        for j in 0..a.cols() {
            for i in 0..a.rows() {
                diff[(i, j)] -= qbqt[(i, j)];
            }
        }
        frobenius(diff.as_ref()) / (n * frobenius(a.as_ref()))
    }

    fn opts(b: usize, nb: usize, acc: bool) -> DbrOptions {
        DbrOptions {
            bandwidth: b,
            block: nb,
            panel: PanelKind::Tsqr,
            accumulate_q: acc,
        }
    }

    #[test]
    fn produces_band_structure() {
        let a = test_matrix(96, 1);
        let ctx = GemmContext::new(Engine::Sgemm);
        let r = sbr_dbr(&a, &opts(8, 32, false), &ctx).expect("sbr reduction");
        assert_eq!(max_outside_band(r.band.as_ref(), 8), 0.0);
        assert_eq!(r.band.max_abs_diff(&r.band.transpose()), 0.0);
    }

    #[test]
    fn backward_stable_sgemm() {
        let a = test_matrix(96, 2);
        let ctx = GemmContext::new(Engine::Sgemm);
        let r = sbr_dbr(&a, &opts(8, 32, true), &ctx).expect("sbr reduction");
        let q = r.q.as_ref().unwrap();
        assert!(orthogonality_residual(q.as_ref()) / 96.0 < 1e-5);
        let be = backward_error(&a, &r.band, q);
        assert!(be < 1e-6, "backward error {be}");
    }

    #[test]
    fn backward_stable_tensor_core() {
        let a = test_matrix(96, 3);
        let ctx = GemmContext::new(Engine::Tc);
        let r = sbr_dbr(&a, &opts(8, 32, true), &ctx).expect("sbr reduction");
        let be = backward_error(&a, &r.band, r.q.as_ref().unwrap());
        assert!(be < 1e-4, "backward error {be}"); // TC machine-eps level
    }

    #[test]
    fn band_matches_wy_bitwise_until_the_trailing_update() {
        // DBR and WY share the panel + inner recursion exactly; they differ
        // only in the trailing update arithmetic. On a problem with a single
        // level and no trailing update (nb ≥ n), the two must agree to the
        // last bit.
        let a = test_matrix(40, 11);
        let ctx = GemmContext::new(Engine::Sgemm);
        let r_dbr = sbr_dbr(&a, &opts(8, 64, false), &ctx).expect("dbr");
        let r_wy = sbr_wy(
            &a,
            &WyOptions {
                bandwidth: 8,
                block: 64,
                panel: PanelKind::Tsqr,
                accumulate_q: false,
            },
            &ctx,
        )
        .expect("wy");
        assert_eq!(r_dbr.band.max_abs_diff(&r_wy.band), 0.0);
    }

    #[test]
    fn agrees_with_wy_numerically() {
        // With real trailing updates in play the two variants compute the
        // same two-sided transform in different arithmetic orders: same
        // band matrix up to f32 rounding.
        let a = test_matrix(96, 4);
        let ctx = GemmContext::new(Engine::Sgemm);
        let r_dbr = sbr_dbr(&a, &opts(8, 16, true), &ctx).expect("dbr");
        let r_wy = sbr_wy(
            &a,
            &WyOptions {
                bandwidth: 8,
                block: 16,
                panel: PanelKind::Tsqr,
                accumulate_q: true,
            },
            &ctx,
        )
        .expect("wy");
        assert!(backward_error(&a, &r_dbr.band, r_dbr.q.as_ref().unwrap()) < 1e-6);
        let d = r_dbr.band.max_abs_diff(&r_wy.band);
        let scale = frobenius(a.as_ref());
        assert!(d < 1e-4 * scale, "DBR vs WY band diff {d} (scale {scale})");
    }

    #[test]
    fn nb_equal_b_degenerates_correctly() {
        let a = test_matrix(48, 5);
        let ctx = GemmContext::new(Engine::Sgemm);
        let r = sbr_dbr(&a, &opts(8, 8, true), &ctx).expect("sbr reduction");
        assert_eq!(max_outside_band(r.band.as_ref(), 8), 0.0);
        assert!(backward_error(&a, &r.band, r.q.as_ref().unwrap()) < 1e-6);
    }

    #[test]
    fn nb_larger_than_matrix() {
        let a = test_matrix(40, 6);
        let ctx = GemmContext::new(Engine::Sgemm);
        let r = sbr_dbr(&a, &opts(8, 1024, true), &ctx).expect("sbr reduction");
        assert_eq!(max_outside_band(r.band.as_ref(), 8), 0.0);
        assert!(backward_error(&a, &r.band, r.q.as_ref().unwrap()) < 1e-6);
    }

    #[test]
    fn odd_sizes_and_blocks() {
        for (n, b, nb) in [(67, 8, 16), (50, 4, 12), (33, 8, 32), (20, 16, 32)] {
            let a = test_matrix(n, 7 + n as u64);
            let ctx = GemmContext::new(Engine::Sgemm);
            let r = sbr_dbr(&a, &opts(b, nb, true), &ctx).expect("sbr reduction");
            assert_eq!(
                max_outside_band(r.band.as_ref(), b),
                0.0,
                "n={n} b={b} nb={nb}"
            );
            let be = backward_error(&a, &r.band, r.q.as_ref().unwrap());
            assert!(be < 1e-5, "n={n} b={b} nb={nb}: backward error {be}");
        }
    }

    #[test]
    fn trailing_update_is_one_syr2k_per_level() {
        // The point of detaching nb from b: per trailing update, exactly one
        // syr2k record at k = nb on a native-syr2k engine, versus WY's four
        // rectangular GEMMs.
        let a = test_matrix(128, 8);
        let ctx = GemmContext::new(Engine::Sgemm).with_trace();
        let _ = sbr_dbr(&a, &opts(8, 32, false), &ctx).expect("sbr reduction");
        let tr = ctx.take_trace();
        let syr2k: Vec<_> = tr.iter().filter(|r| r.label == "dbr_syr2k").collect();
        assert!(!syr2k.is_empty());
        let max_k = syr2k.iter().map(|r| r.k).max().unwrap();
        assert_eq!(max_k, 32, "trailing syr2k must run at k = nb");
        // one record per trailing update: as many as dbr_final_waw calls
        let waw = tr.iter().filter(|r| r.label == "dbr_final_waw").count();
        assert_eq!(syr2k.len(), waw);
        // and no WY-style four-GEMM expansion anywhere
        assert!(tr.iter().all(|r| !r.label.starts_with("wy_final")));
    }

    #[test]
    fn trailing_flops_are_below_wy() {
        // The folded syr2k formulation does ~half the trailing arithmetic
        // of WY's four-GEMM expansion at the same (n, b, nb).
        let a = test_matrix(160, 9);
        let ctx_dbr = GemmContext::new(Engine::Sgemm).with_trace();
        let _ = sbr_dbr(&a, &opts(8, 32, false), &ctx_dbr).expect("dbr");
        let ctx_wy = GemmContext::new(Engine::Sgemm).with_trace();
        let _ = sbr_wy(
            &a,
            &WyOptions {
                bandwidth: 8,
                block: 32,
                panel: PanelKind::Tsqr,
                accumulate_q: false,
            },
            &ctx_wy,
        )
        .expect("wy");
        let trailing = |tr: &[tcevd_tensorcore::GemmRecord], prefix: &str| -> u64 {
            tr.iter()
                .filter(|r| r.label.starts_with(prefix))
                .map(|r| r.flops())
                .sum()
        };
        let dbr_tr = ctx_dbr.take_trace();
        let wy_tr = ctx_wy.take_trace();
        let f_dbr = trailing(&dbr_tr, "dbr_final_") + trailing(&dbr_tr, "dbr_syr2k");
        let f_wy = trailing(&wy_tr, "wy_final_");
        assert!(
            f_dbr * 3 < f_wy * 2,
            "DBR trailing {f_dbr} should be well below WY {f_wy}"
        );
    }

    #[test]
    fn levels_capture_all_reflectors() {
        let a = test_matrix(96, 10);
        let ctx = GemmContext::new(Engine::Sgemm);
        let r = sbr_dbr(&a, &opts(8, 16, false), &ctx).expect("sbr reduction");
        let total_k: usize = r.levels.iter().map(|l| l.w.cols()).sum();
        assert!(total_k >= 96 - 2 * 8);
        for l in &r.levels {
            assert_eq!(l.w.rows(), l.y.rows());
            assert_eq!(l.w.cols(), l.y.cols());
        }
    }
}
