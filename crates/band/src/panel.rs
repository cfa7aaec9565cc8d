//! Panel factorization for band reduction.
//!
//! Both SBR variants factor tall-skinny panels into `Q = I − W·Yᵀ` form.
//! Two engines are provided, matching the paper's Figure 9 ablation:
//!
//! * [`PanelKind::Tsqr`] — the paper's fast panel: parallel TSQR followed by
//!   Householder-vector reconstruction (Algorithm 3).
//! * [`PanelKind::Householder`] — the cuSOLVER-style baseline: classic
//!   unblocked Householder QR (`geqr2`) with the compact-WY `T` factor.
//!
//! Wide panels (fewer rows than columns, the last step of a reduction) fall
//! back to Householder QR in either mode — TSQR requires m ≥ n.

use tcevd_factor::qr::{geqr2, wy_from_packed};
use tcevd_factor::reconstruct::{reconstruct_wy, reconstruct_wy_pivoted, PanelWy};
use tcevd_factor::tsqr::tsqr_with;
use tcevd_matrix::scalar::Scalar;
use tcevd_matrix::{Mat, MatRef};
use tcevd_trace::{span, TraceSink};

/// Which algorithm factors panels.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum PanelKind {
    /// TSQR + WY reconstruction (the paper's §5.1–5.2).
    #[default]
    Tsqr,
    /// Plain blocked Householder QR (cuSOLVER `geqrf`-style baseline).
    Householder,
}

/// Result of a panel factorization: `panel = (I − W·Yᵀ)[:, 0..k] · R`, i.e.
/// `(I − Y·Wᵀ)·panel = [R; 0]`, with `k = min(rows, cols)` reflectors.
pub struct FactoredPanel<T: Scalar> {
    /// m×k
    pub w: Mat<T>,
    /// m×k unit lower trapezoidal
    pub y: Mat<T>,
    /// The transformed panel `[R; 0]` (m×cols) to write back.
    pub reduced: Mat<T>,
}

/// Factor an m×b panel into WY form.
pub fn factor_panel<T: Scalar>(panel: MatRef<'_, T>, kind: PanelKind) -> FactoredPanel<T> {
    factor_panel_with(panel, kind, &TraceSink::disabled())
}

/// [`factor_panel`] with observability: emits a `panel` span, tallies
/// `panel_count` plus a `panel_rows` histogram into `sink`, and adds the
/// panel's flops to `kernel_flops.panel` and the `kernel_flops` total.
pub fn factor_panel_with<T: Scalar>(
    panel: MatRef<'_, T>,
    kind: PanelKind,
    sink: &TraceSink,
) -> FactoredPanel<T> {
    let (rows, cols) = (panel.rows(), panel.cols());
    let _span = span!(sink, "panel", rows, cols);
    sink.add("panel_count", 1);
    sink.record("panel_rows", rows as u64);
    let flops = tcevd_factor::tsqr_flops(rows, cols);
    sink.add("kernel_flops.panel", flops);
    sink.add("kernel_flops", flops);
    factor_panel_impl(panel, kind, sink)
}

/// The panel recovery ladder (rungs 1–3 of the pipeline's `RecoveryPolicy`):
///
/// 1. TSQR + **non-pivoted** LU reconstruction — the paper's fast path.
/// 2. On a degenerate pivot, retry the reconstruction from the *same* TSQR
///    `Q` with **partial-pivoting** LU (counter
///    `recovery.lu_pivot_escalation`).
/// 3. If that also fails, fall back to the plain **Householder** panel,
///    which has no LU step at all (counter
///    `recovery.panel_householder_fallback`).
///
/// TSQR runs once; both reconstructions reuse its `Q` and `R`.
fn factor_panel_impl<T: Scalar>(
    panel: MatRef<'_, T>,
    kind: PanelKind,
    sink: &TraceSink,
) -> FactoredPanel<T> {
    let (m, b) = (panel.rows(), panel.cols());
    let use_tsqr = kind == PanelKind::Tsqr && m >= b && m > 0;
    if use_tsqr {
        let (q, r) = tsqr_with(panel, sink);
        match reconstruct_wy(q.as_ref()) {
            Ok(wy) => return assemble_tsqr_panel(wy, &r, m, b),
            Err(_) => {
                sink.add("recovery.lu_pivot_escalation", 1);
                if let Ok(wy) = reconstruct_wy_pivoted(q.as_ref()) {
                    return assemble_tsqr_panel(wy, &r, m, b);
                }
                sink.add("recovery.panel_householder_fallback", 1);
            }
        }
    }
    householder_panel(panel)
}

/// Combine a reconstructed WY pair with the TSQR `R` factor:
/// `panel = Q·R = (Q·S)·(S·R)`, and `(I − W·Yᵀ)` thin is `Q·S`, so the rows
/// of `R` are scaled by the reconstruction's sign choices.
fn assemble_tsqr_panel<T: Scalar>(
    wy: PanelWy<T>,
    r: &Mat<T>,
    m: usize,
    b: usize,
) -> FactoredPanel<T> {
    let mut reduced = Mat::<T>::zeros(m, b);
    for (i, &s) in wy.signs.iter().enumerate().take(b) {
        for j in i..b {
            reduced.set(i, j, r.get(i, j) * s);
        }
    }
    FactoredPanel {
        w: wy.w,
        y: wy.y,
        reduced,
    }
}

fn householder_panel<T: Scalar>(panel: MatRef<'_, T>) -> FactoredPanel<T> {
    let (m, b) = (panel.rows(), panel.cols());
    let mut packed = panel.to_owned();
    let tau = geqr2(packed.as_mut());
    let (w, y) = wy_from_packed(packed.as_ref(), &tau);
    // reduced = R part (upper triangle of packed, top k rows), zeros below.
    let k = m.min(b);
    let mut reduced = Mat::<T>::zeros(m, b);
    for j in 0..b {
        for i in 0..=j.min(k - 1) {
            reduced.set(i, j, packed.get(i, j));
        }
    }
    FactoredPanel { w, y, reduced }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tcevd_matrix::blas3::{gemm, matmul};
    use tcevd_matrix::norms::orthogonality_residual;
    use tcevd_matrix::Op;

    fn rand_mat(m: usize, n: usize, seed: u64) -> Mat<f64> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(3);
        Mat::from_fn(m, n, |_, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    fn verify(panel: &Mat<f64>, f: &FactoredPanel<f64>, tol: f64) {
        let m = panel.rows();
        // Q = I − W·Yᵀ orthogonal
        let mut q = Mat::<f64>::identity(m, m);
        gemm(
            -1.0,
            f.w.as_ref(),
            Op::NoTrans,
            f.y.as_ref(),
            Op::Trans,
            1.0,
            q.as_mut(),
        );
        assert!(orthogonality_residual(q.as_ref()) < tol * m as f64);
        // Qᵀ·panel = reduced
        let qt_p = matmul(q.as_ref(), Op::Trans, panel.as_ref(), Op::NoTrans);
        assert!(qt_p.max_abs_diff(&f.reduced) < tol * m as f64);
        // reduced is upper triangular
        for j in 0..panel.cols() {
            for i in j + 1..m {
                assert_eq!(f.reduced[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn tsqr_panel_tall() {
        let p = rand_mat(120, 8, 1);
        let f = factor_panel(p.as_ref(), PanelKind::Tsqr);
        verify(&p, &f, 1e-12);
    }

    #[test]
    fn householder_panel_tall() {
        let p = rand_mat(120, 8, 2);
        let f = factor_panel(p.as_ref(), PanelKind::Householder);
        verify(&p, &f, 1e-12);
    }

    #[test]
    fn both_kinds_agree_on_band_content() {
        // R factors agree up to row signs → R·Rᵀ... simpler: |R| entries agree
        let p = rand_mat(60, 6, 3);
        let f1 = factor_panel(p.as_ref(), PanelKind::Tsqr);
        let f2 = factor_panel(p.as_ref(), PanelKind::Householder);
        for j in 0..6 {
            for i in 0..=j {
                assert!(
                    (f1.reduced[(i, j)].abs() - f2.reduced[(i, j)].abs()).abs() < 1e-11,
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn wide_panel_falls_back() {
        let p = rand_mat(4, 9, 4);
        let f = factor_panel(p.as_ref(), PanelKind::Tsqr);
        verify(&p, &f, 1e-12);
        assert_eq!(f.w.cols(), 4); // min(m, b) reflectors
    }

    #[test]
    fn single_row_panel() {
        let p = rand_mat(1, 3, 5);
        let f = factor_panel(p.as_ref(), PanelKind::Tsqr);
        // 1×3: Q is 1×1 = ±1; reduced = ±panel
        assert_eq!(f.w.cols(), 1);
        verify(&p, &f, 1e-13);
    }

    #[test]
    fn pivot_escalation_rung_fires_once() {
        // Poison the non-pivoted LU: the ladder must escalate to partial
        // pivoting (counter fires once) and still produce a valid panel.
        let p = rand_mat(80, 8, 7);
        let sink = TraceSink::enabled();
        tcevd_factor::fault::poison_nopivot_pivot(2);
        let f = factor_panel_with(p.as_ref(), PanelKind::Tsqr, &sink);
        tcevd_factor::fault::clear();
        assert_eq!(sink.counter("recovery.lu_pivot_escalation"), 1);
        assert_eq!(sink.counter("recovery.panel_householder_fallback"), 0);
        verify(&p, &f, 1e-12);
    }

    #[test]
    fn householder_fallback_rung_fires_once() {
        // Poison both LU variants: the ladder must land on the Householder
        // panel, recording both escalations exactly once.
        let p = rand_mat(80, 8, 8);
        let sink = TraceSink::enabled();
        tcevd_factor::fault::poison_nopivot_pivot(0);
        tcevd_factor::fault::fail_next_partial_pivot(1);
        let f = factor_panel_with(p.as_ref(), PanelKind::Tsqr, &sink);
        tcevd_factor::fault::clear();
        assert_eq!(sink.counter("recovery.lu_pivot_escalation"), 1);
        assert_eq!(sink.counter("recovery.panel_householder_fallback"), 1);
        verify(&p, &f, 1e-12);
    }

    #[test]
    fn f32_panel_accuracy() {
        let p64 = rand_mat(256, 16, 6);
        let p: Mat<f32> = p64.cast();
        let f = factor_panel(p.as_ref(), PanelKind::Tsqr);
        let m = 256;
        let mut q = Mat::<f32>::identity(m, m);
        gemm(
            -1.0f32,
            f.w.as_ref(),
            Op::NoTrans,
            f.y.as_ref(),
            Op::Trans,
            1.0,
            q.as_mut(),
        );
        assert!(orthogonality_residual(q.as_ref()) < 1e-3);
    }
}
