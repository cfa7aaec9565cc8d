//! Recursive construction of the aggregate `W` — the paper's Algorithm 2.
//!
//! The WY-based SBR leaves one `(W_l, Y_l)` pair per big block, with
//! `Q_total = Q_1·Q_2⋯Q_L` and `Q_l = I − W_l·Y_lᵀ`. For the
//! back-transformation (forming eigenvectors) the blocks are merged
//! pairwise,
//!
//! ```text
//! [W_a | W_b]  →  [W_a | W_b − W_a·(Y_aᵀ·W_b)]
//! ```
//!
//! recursively over halves, so the merge GEMMs have inner dimension that
//! doubles up the tree — 'squeezed' shapes again, which is why the paper
//! measures the WY back-transformation at 320 ms vs 420 ms for ZY (§4.4).
//!
//! [`form_wy`] is kept as the reproduction of that figure. The eigensolver
//! pipeline does not merge: it applies the levels one at a time in reverse
//! order through [`apply_q`] on a row view (as LAPACK `ormtr` does), which
//! builds no n×n pair and costs fewer flops than merging and applying.

use crate::sbr_wy::LevelWy;
use tcevd_matrix::{Mat, MatMut, MatRef, Op};
use tcevd_tensorcore::GemmContext;
use tcevd_trace::span;

/// Merge the per-level WY factors into a single `(W, Y)` with
/// `Q_total = I − W·Yᵀ` over the full n×n space (paper Algorithm 2).
/// Infallible given a non-empty level list (asserted on entry).
// tcevd-lint: allow(R4) — pure merge of already-validated factors; no failure mode to surface.
pub fn form_wy(levels: &[LevelWy], n: usize, ctx: &GemmContext) -> (Mat<f32>, Mat<f32>) {
    assert!(!levels.is_empty(), "need at least one WY level");
    let sink = ctx.sink();
    let nlevels = levels.len();
    let _span = span!(sink, "formw", n, nlevels);
    form_rec(levels, n, ctx)
}

fn form_rec(levels: &[LevelWy], n: usize, ctx: &GemmContext) -> (Mat<f32>, Mat<f32>) {
    if let [l] = levels {
        let k = l.w.cols();
        let mut w = Mat::<f32>::zeros(n, k);
        let mut y = Mat::<f32>::zeros(n, k);
        w.view_mut(l.row_offset, 0, l.w.rows(), k)
            .copy_from(l.w.as_ref());
        y.view_mut(l.row_offset, 0, l.y.rows(), k)
            .copy_from(l.y.as_ref());
        return (w, y);
    }
    let (lo, hi) = levels.split_at(levels.len() / 2);
    let ((wa, ya), (wb, yb)) = rayon::join(|| form_rec(lo, n, ctx), || form_rec(hi, n, ctx));
    merge(&wa, &ya, &wb, &yb, ctx)
}

/// `(I − W_a·Y_aᵀ)(I − W_b·Y_bᵀ) = I − [W_a | W_b − W_a(Y_aᵀW_b)]·[Y_a | Y_b]ᵀ`.
fn merge(
    wa: &Mat<f32>,
    ya: &Mat<f32>,
    wb: &Mat<f32>,
    yb: &Mat<f32>,
    ctx: &GemmContext,
) -> (Mat<f32>, Mat<f32>) {
    let n = wa.rows();
    let (ka, kb) = (wa.cols(), wb.cols());
    ctx.sink().add("formw_merges", 1);
    let mut w = Mat::<f32>::zeros(n, ka + kb);
    let mut y = Mat::<f32>::zeros(n, ka + kb);
    w.view_mut(0, 0, n, ka).copy_from(wa.as_ref());
    y.view_mut(0, 0, n, ka).copy_from(ya.as_ref());
    y.view_mut(0, ka, n, kb).copy_from(yb.as_ref());

    // t = Y_aᵀ·W_b (ka×kb)
    let mut t = Mat::<f32>::zeros(ka, kb);
    ctx.gemm(
        "formw_ytw",
        1.0,
        ya.as_ref(),
        Op::Trans,
        wb.as_ref(),
        Op::NoTrans,
        0.0,
        t.as_mut(),
    );
    // W_b' = W_b − W_a·t
    let mut wb2 = wb.clone();
    ctx.gemm(
        "formw_w",
        -1.0,
        wa.as_ref(),
        Op::NoTrans,
        t.as_ref(),
        Op::NoTrans,
        1.0,
        wb2.as_mut(),
    );
    w.view_mut(0, ka, n, kb).copy_from(wb2.as_ref());
    (w, y)
}

/// Apply `Q = I − W·Yᵀ` to a matrix from the left:
/// `V ← V − W·(Yᵀ·V)` — the eigenvector back-transformation. `v` is any
/// view with `W`'s row count, e.g. the rows `r_l..` of the eigenvectors a
/// [`LevelWy`] acts on.
// tcevd-lint: allow(R4) — two fixed GEMMs on shape-checked inputs; infallible by construction.
pub fn apply_q(w: MatRef<'_, f32>, y: MatRef<'_, f32>, mut v: MatMut<'_, f32>, ctx: &GemmContext) {
    let k = w.cols();
    let mut t = Mat::<f32>::zeros(k, v.cols());
    ctx.gemm(
        "backtransform_ytv",
        1.0,
        y,
        Op::Trans,
        v.as_ref(),
        Op::NoTrans,
        0.0,
        t.as_mut(),
    );
    ctx.gemm(
        "backtransform_wv",
        -1.0,
        w,
        Op::NoTrans,
        t.as_ref(),
        Op::NoTrans,
        1.0,
        v.as_mut(),
    );
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::panel::PanelKind;
    use crate::sbr_wy::{sbr_wy, WyOptions};
    use tcevd_matrix::norms::orthogonality_residual;
    use tcevd_tensorcore::Engine;
    use tcevd_testmat::{generate, MatrixType};
    use tcevd_trace::TraceSink;

    #[test]
    fn formw_reproduces_accumulated_q() {
        let n = 96;
        let a: Mat<f32> = generate(n, MatrixType::Normal, 21).cast();
        let ctx = GemmContext::new(Engine::Sgemm);
        let opts = WyOptions {
            bandwidth: 8,
            block: 16,
            panel: PanelKind::Tsqr,
            accumulate_q: true,
        };
        let r = sbr_wy(&a, &opts, &ctx).expect("sbr reduction");
        assert!(r.levels.len() > 1, "want a multi-level case");

        let (w, y) = form_wy(&r.levels, n, &ctx);
        // Q_formw = I − W·Yᵀ must equal the incrementally accumulated Q.
        let mut q_formw = Mat::<f32>::identity(n, n);
        tcevd_matrix::blas3::gemm(
            -1.0,
            w.as_ref(),
            Op::NoTrans,
            y.as_ref(),
            Op::Trans,
            1.0,
            q_formw.as_mut(),
        );
        let q_acc = r.q.as_ref().unwrap();
        let diff = q_formw.max_abs_diff(q_acc);
        assert!(diff < 1e-4, "diff={diff}");
        assert!(orthogonality_residual(q_formw.as_ref()) / (n as f32) < 1e-5);
    }

    #[test]
    fn apply_q_matches_explicit_multiplication() {
        let n = 64;
        let a: Mat<f32> = generate(n, MatrixType::Uniform, 22).cast();
        let ctx = GemmContext::new(Engine::Sgemm);
        let opts = WyOptions {
            bandwidth: 8,
            block: 32,
            panel: PanelKind::Tsqr,
            accumulate_q: true,
        };
        let r = sbr_wy(&a, &opts, &ctx).expect("sbr reduction");
        let (w, y) = form_wy(&r.levels, n, &ctx);

        let v: Mat<f32> = generate(n, MatrixType::Normal, 23).cast();
        let mut v1 = v.clone();
        apply_q(w.as_ref(), y.as_ref(), v1.as_mut(), &ctx);
        let v2 = tcevd_matrix::blas3::matmul(
            r.q.as_ref().unwrap().as_ref(),
            Op::NoTrans,
            v.as_ref(),
            Op::NoTrans,
        );
        assert!(v1.max_abs_diff(&v2) < 1e-3);
    }

    /// Applying the levels one at a time, last first, on row views equals
    /// applying the accumulated Q — the pipeline's back-transform order.
    #[test]
    fn level_by_level_application_matches_accumulated_q() {
        let n = 96;
        let a: Mat<f32> = generate(n, MatrixType::Normal, 25).cast();
        let ctx = GemmContext::new(Engine::Sgemm);
        let opts = WyOptions {
            bandwidth: 8,
            block: 16,
            panel: PanelKind::Tsqr,
            accumulate_q: true,
        };
        let r = sbr_wy(&a, &opts, &ctx).expect("sbr reduction");
        assert!(r.levels.len() > 1, "want a multi-level case");

        let v: Mat<f32> = generate(n, MatrixType::Normal, 26)
            .submatrix(0, 0, n, 7)
            .cast();
        let mut x = v.clone();
        for l in r.levels.iter().rev() {
            let rows = l.w.rows();
            apply_q(
                l.w.as_ref(),
                l.y.as_ref(),
                x.view_mut(l.row_offset, 0, rows, 7),
                &ctx,
            );
        }
        let want = tcevd_matrix::blas3::matmul(
            r.q.as_ref().unwrap().as_ref(),
            Op::NoTrans,
            v.as_ref(),
            Op::NoTrans,
        );
        let diff = x.max_abs_diff(&want);
        assert!(diff < 1e-4, "diff={diff}");
    }

    #[test]
    fn single_level_embedding() {
        let l = LevelWy {
            row_offset: 2,
            w: Mat::from_fn(3, 2, |i, j| (i + j) as f32),
            y: Mat::from_fn(3, 2, |i, j| (i * 2 + j) as f32),
        };
        let ctx = GemmContext::new(Engine::Sgemm);
        let (w, y) = form_wy(&[l], 6, &ctx);
        assert_eq!(w.rows(), 6);
        assert_eq!(w[(0, 0)], 0.0);
        assert_eq!(w[(2, 0)], 0.0 + 0.0); // (i=0,j=0) of source
        assert_eq!(w[(3, 1)], 2.0); // source (1,1)
        assert_eq!(y[(4, 0)], 4.0); // source (2,0)
    }

    #[test]
    fn merge_gemm_shapes_double_up_the_tree() {
        let n = 128;
        let a: Mat<f32> = generate(n, MatrixType::Normal, 24).cast();
        let ctx = GemmContext::new(Engine::Tc);
        let opts = WyOptions {
            bandwidth: 8,
            block: 16,
            panel: PanelKind::Tsqr,
            accumulate_q: false,
        };
        let r = sbr_wy(&a, &opts, &ctx).expect("sbr reduction");
        let sink = TraceSink::enabled();
        let ctx = GemmContext::new(Engine::Tc).with_sink(sink.clone());
        let _ = form_wy(&r.levels, n, &ctx);
        let tr = sink.gemms();
        let ks: Vec<usize> = tr
            .iter()
            .filter(|r| r.label == "formw_w")
            .map(|r| r.k)
            .collect();
        assert!(!ks.is_empty());
        // merges near the root have larger inner dimension than the leaves
        assert!(ks.iter().max().unwrap() > ks.iter().min().unwrap());
    }
}
