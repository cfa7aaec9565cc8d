//! Property-based tests (proptest) over the core numerical invariants:
//! reduced-precision conversions, GEMM algebra, factorization identities,
//! band-reduction similarity, and eigensolver agreement.

use proptest::prelude::*;
use tcevd::band::{bulge_chase, sbr_wy, PanelKind, WyOptions};
use tcevd::evd::{
    sym_eig, sym_eig_selected, tridiag_eig_bisect, tridiag_eig_dc, tridiag_eigenvalues, EigRange,
    RecoveryPolicy, SbrVariant, SymEigOptions, SymTridiag, TridiagSolver,
};
use tcevd::factor::qr::{extract_r, geqr2, orgqr};
use tcevd::factor::reconstruct::reconstruct_wy;
use tcevd::factor::tsqr::tsqr;
use tcevd::matrix::blas3::{gemm, matmul};
use tcevd::matrix::f16::{round_through_f16, F16, F16_MAX};
use tcevd::matrix::norms::orthogonality_residual;
use tcevd::matrix::{Mat, Op};
use tcevd::tensorcore::{tc_gemm, truncate_f16, Engine, GemmContext};

fn mat_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Mat<f64>> {
    proptest::collection::vec(-10.0f64..10.0, rows * cols)
        .prop_map(move |v| Mat::from_col_major(rows, cols, v))
}

fn sym_strategy(n: usize) -> impl Strategy<Value = Mat<f64>> {
    mat_strategy(n, n).prop_map(|m| {
        let n = m.rows();
        Mat::from_fn(n, n, |i, j| 0.5 * (m[(i, j)] + m[(j, i)]))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn f16_round_trip_is_idempotent_and_bounded(x in -60000.0f32..60000.0) {
        let r = round_through_f16(x);
        // idempotent
        prop_assert_eq!(round_through_f16(r), r);
        // bounded relative error for normals
        if x.abs() > 1e-4 {
            prop_assert!(((r - x) / x).abs() <= 4.8828125e-4);
        }
        prop_assert!(r.abs() <= F16_MAX);
    }

    #[test]
    fn f16_conversion_is_monotone(a in -1000.0f32..1000.0, b in -1000.0f32..1000.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(round_through_f16(lo) <= round_through_f16(hi));
    }

    #[test]
    fn f16_conversion_is_odd(x in -60000.0f32..60000.0) {
        prop_assert_eq!(F16::from_f32(-x).to_f32(), -F16::from_f32(x).to_f32());
    }

    #[test]
    fn gemm_is_linear_in_alpha(
        a in mat_strategy(7, 5),
        b in mat_strategy(5, 6),
        alpha in -3.0f64..3.0,
    ) {
        let mut c1 = Mat::<f64>::zeros(7, 6);
        gemm(alpha, a.as_ref(), Op::NoTrans, b.as_ref(), Op::NoTrans, 0.0, c1.as_mut());
        let mut c2 = Mat::<f64>::zeros(7, 6);
        gemm(1.0, a.as_ref(), Op::NoTrans, b.as_ref(), Op::NoTrans, 0.0, c2.as_mut());
        for j in 0..6 {
            for i in 0..7 {
                prop_assert!((c1[(i, j)] - alpha * c2[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn gemm_identity_is_neutral(a in mat_strategy(6, 6)) {
        let eye = Mat::<f64>::identity(6, 6);
        let prod = matmul(a.as_ref(), Op::NoTrans, eye.as_ref(), Op::NoTrans);
        prop_assert!(prod.max_abs_diff(&a) == 0.0);
        let prod2 = matmul(eye.as_ref(), Op::NoTrans, a.as_ref(), Op::NoTrans);
        prop_assert!(prod2.max_abs_diff(&a) == 0.0);
    }

    #[test]
    fn gemm_transpose_identity(a in mat_strategy(5, 7), b in mat_strategy(5, 6)) {
        // (AᵀB) = (BᵀA)ᵀ
        let ab = matmul(a.as_ref(), Op::Trans, b.as_ref(), Op::NoTrans);
        let ba = matmul(b.as_ref(), Op::Trans, a.as_ref(), Op::NoTrans);
        prop_assert!(ab.max_abs_diff(&ba.transpose()) < 1e-12);
    }

    #[test]
    fn tc_gemm_equals_sgemm_on_f16_exact_inputs(a in mat_strategy(9, 8), b in mat_strategy(8, 7)) {
        // inputs pre-truncated through f16 → TC-GEMM must be bit-identical
        let a32: Mat<f32> = a.cast();
        let b32: Mat<f32> = b.cast();
        let ah = truncate_f16(a32.as_ref());
        let bh = truncate_f16(b32.as_ref());
        let mut c_tc = Mat::<f32>::zeros(9, 7);
        tc_gemm(1.0, ah.as_ref(), Op::NoTrans, bh.as_ref(), Op::NoTrans, 0.0, c_tc.as_mut());
        let mut c_sg = Mat::<f32>::zeros(9, 7);
        gemm(1.0, ah.as_ref(), Op::NoTrans, bh.as_ref(), Op::NoTrans, 0.0, c_sg.as_mut());
        prop_assert_eq!(c_tc.max_abs_diff(&c_sg), 0.0);
    }

    #[test]
    fn qr_factors_reconstruct(a in mat_strategy(12, 6)) {
        let mut p = a.clone();
        let tau = geqr2(p.as_mut());
        let q = orgqr(p.as_ref(), &tau);
        let r = extract_r(p.as_ref());
        prop_assert!(orthogonality_residual(q.as_ref()) < 1e-11);
        let qr = matmul(q.as_ref(), Op::NoTrans, r.as_ref(), Op::NoTrans);
        prop_assert!(qr.max_abs_diff(&a) < 1e-10);
    }

    #[test]
    fn tsqr_matches_panel_qr(a in mat_strategy(70, 5)) {
        let (q, r) = tsqr(a.as_ref());
        prop_assert!(orthogonality_residual(q.as_ref()) < 1e-11);
        let qr = matmul(q.as_ref(), Op::NoTrans, r.as_ref(), Op::NoTrans);
        prop_assert!(qr.max_abs_diff(&a) < 1e-10);
        // R diagonal magnitudes match the direct factorization's
        let mut p = a.clone();
        let _tau = geqr2(p.as_mut());
        let r2 = extract_r(p.view(0, 0, 5, 5));
        for i in 0..5 {
            prop_assert!((r[(i, i)].abs() - r2[(i, i)].abs()).abs() < 1e-9);
        }
    }

    #[test]
    fn wy_reconstruction_preserves_q(a in mat_strategy(40, 4)) {
        let (q, _) = tsqr(a.as_ref());
        let wy = reconstruct_wy(q.as_ref()).unwrap();
        let mut qwy = Mat::<f64>::identity(40, 40);
        gemm(-1.0, wy.w.as_ref(), Op::NoTrans, wy.y.as_ref(), Op::Trans, 1.0, qwy.as_mut());
        prop_assert!(orthogonality_residual(qwy.as_ref()) < 1e-10);
        for j in 0..4 {
            for i in 0..40 {
                prop_assert!((qwy[(i, j)] - q[(i, j)] * wy.signs[j]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn sbr_preserves_first_two_moments(a in sym_strategy(48)) {
        // trace and Frobenius norm are similarity invariants
        let a32: Mat<f32> = a.cast();
        let ctx = GemmContext::new(Engine::Sgemm);
        let r = sbr_wy(&a32, &WyOptions {
            bandwidth: 8, block: 16, panel: PanelKind::Tsqr, accumulate_q: false,
        }, &ctx).expect("sbr reduction");
        let tr_a: f32 = (0..48).map(|i| a32[(i, i)]).sum();
        let tr_b: f32 = (0..48).map(|i| r.band[(i, i)]).sum();
        prop_assert!((tr_a - tr_b).abs() < 1e-3 * (1.0 + tr_a.abs()));
        let f_a = tcevd::matrix::norms::frobenius(a32.as_ref());
        let f_b = tcevd::matrix::norms::frobenius(r.band.as_ref());
        prop_assert!((f_a - f_b).abs() < 1e-3 * (1.0 + f_a));
    }

    #[test]
    fn bulge_chase_preserves_moments(a in sym_strategy(24)) {
        // clip to band 4 first
        let mut band: Mat<f32> = a.cast();
        tcevd::band::common::clip_to_band(&mut band, 4);
        let r = bulge_chase(band.clone(), 4, false);
        let tr_b: f32 = (0..24).map(|i| band[(i, i)]).sum();
        let tr_t: f32 = r.diag.iter().sum();
        prop_assert!((tr_b - tr_t).abs() < 1e-3);
        let m2_b = {
            let sq = matmul(band.as_ref(), Op::NoTrans, band.as_ref(), Op::NoTrans);
            (0..24).map(|i| sq[(i, i)]).sum::<f32>()
        };
        let m2_t: f32 = r.diag.iter().map(|d| d * d).sum::<f32>()
            + 2.0 * r.offdiag.iter().map(|e| e * e).sum::<f32>();
        prop_assert!((m2_b - m2_t).abs() < 1e-2 * (1.0 + m2_b.abs()));
    }

    #[test]
    fn dc_and_ql_agree(
        d in proptest::collection::vec(-5.0f64..5.0, 30),
        e in proptest::collection::vec(-2.0f64..2.0, 29),
    ) {
        let t = SymTridiag::new(d, e);
        let (dc, z) = tridiag_eig_dc(&t).unwrap();
        let ql = tridiag_eigenvalues(&t).unwrap();
        let scale = ql.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for (a, b) in dc.iter().zip(ql.iter()) {
            prop_assert!((a - b).abs() < 1e-10 * scale);
        }
        prop_assert!(orthogonality_residual(z.as_ref()) < 1e-11 * 30.0);
    }

    #[test]
    fn bisection_brackets_ql(
        d in proptest::collection::vec(-5.0f64..5.0, 16),
        e in proptest::collection::vec(-2.0f64..2.0, 15),
    ) {
        let t = SymTridiag::new(d, e);
        let bis = tridiag_eig_bisect(&t, EigRange::Index { lo: 0, hi: 16 });
        let ql = tridiag_eigenvalues(&t).unwrap();
        for (a, b) in bis.iter().zip(ql.iter()) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn sturm_count_is_monotone(
        d in proptest::collection::vec(-5.0f64..5.0, 12),
        e in proptest::collection::vec(-2.0f64..2.0, 11),
        x1 in -20.0f64..20.0,
        x2 in -20.0f64..20.0,
    ) {
        let t = SymTridiag::new(d, e);
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        prop_assert!(t.sturm_count(lo) <= t.sturm_count(hi));
    }
}

// ---------------------------------------------------------------------------
// DBR vs WY: full-pipeline agreement under random shapes
// ---------------------------------------------------------------------------

proptest! {
    // each case runs two full EVDs with vectors — keep the count low
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn dbr_agrees_with_wy_full_pipeline(
        a64 in sym_strategy(40),
        b_idx in 0usize..3,     // bandwidth ∈ {4, 5, 8}
        nb_mult in 1usize..5,   // detached block nb = mult · b (1 ⇒ WY-degenerate)
    ) {
        let a: Mat<f32> = a64.cast();
        let b = [4usize, 5, 8][b_idx];
        let base = SymEigOptions {
            bandwidth: b,
            sbr: SbrVariant::Wy { block: b },
            panel: PanelKind::Tsqr,
            solver: TridiagSolver::DivideConquer,
            vectors: true,
            trace: false,
            recovery: RecoveryPolicy::default(),
            threads: 1,
        };
        let ctx = GemmContext::new(Engine::Sgemm);
        let wy = sym_eig(&a, &base, &ctx).unwrap();
        let dbr_opts = SymEigOptions {
            sbr: SbrVariant::Dbr { block: nb_mult * b },
            ..base
        };
        let dbr = sym_eig(&a, &dbr_opts, &ctx).unwrap();

        // both solvers return the ascending spectrum of the same matrix;
        // the orthogonal similarities differ, so agreement is to f32
        // spectrum-scale accuracy, not bitwise
        prop_assert_eq!(dbr.values.len(), wy.values.len());
        let scale = wy.values.iter().fold(1.0f32, |m, v| m.max(v.abs()));
        for (d, w) in dbr.values.iter().zip(wy.values.iter()) {
            prop_assert!(
                (d - w).abs() <= 2e-4 * scale,
                "dbr {d} vs wy {w} (scale {scale}, b {b}, nb {})",
                nb_mult * b
            );
        }
        let x = dbr.vectors.as_ref().expect("vectors requested");
        let res = tcevd::evd::eigenpair_residual(a.as_ref(), &dbr.values, x.as_ref());
        prop_assert!(res <= 5e-4, "dbr eigenpair residual {res}");
    }
}

// ---------------------------------------------------------------------------
// sym_eig_selected vs slices of the full solve
// ---------------------------------------------------------------------------

/// Expected index window `[ilo, ihi)` of a range against the full ascending
/// spectrum, mirroring the driver's semantics: `Index` is clamped to `n`,
/// `Value` selects the half-open `(lo, hi]`.
fn expected_window(range: EigRange<f32>, full: &[f32]) -> (usize, usize) {
    let n = full.len();
    match range {
        EigRange::Index { lo, hi } => (lo.min(n), hi.min(n)),
        EigRange::Value { lo, hi } => (
            full.iter().filter(|&&v| v <= lo).count(),
            full.iter().filter(|&&v| v <= hi).count(),
        ),
    }
}

/// Run `sym_eig_selected` at 1 and 4 threads and check both against the
/// corresponding slice of the full solve: values agree to f32 tolerance,
/// vector residuals are small, and the two thread counts are bit-identical.
fn check_selected_against_full(
    a: &Mat<f32>,
    range: EigRange<f32>,
    full_vals: &[f32],
    opts: &SymEigOptions,
) {
    let n = a.rows();
    let ctx = GemmContext::new(Engine::Sgemm);
    let mut o1 = *opts;
    o1.threads = 1;
    let r1 = sym_eig_selected(a, range, &o1, &ctx).unwrap();
    let mut o4 = *opts;
    o4.threads = 4;
    let r4 = sym_eig_selected(a, range, &o4, &ctx).unwrap();
    prop_assert_eq!(
        &r1.values,
        &r4.values,
        "values must not depend on thread count"
    );
    match (&r1.vectors, &r4.vectors) {
        (Some(x1), Some(x4)) => prop_assert!(x1.max_abs_diff(x4) == 0.0),
        (None, None) => {}
        _ => prop_assert!(false, "vector presence must not depend on thread count"),
    }

    let (ilo, ihi) = expected_window(range, full_vals);
    if ilo >= ihi {
        prop_assert!(r1.values.is_empty(), "expected an empty selection");
        return;
    }
    let want = &full_vals[ilo..ihi];
    prop_assert_eq!(r1.values.len(), want.len());
    let scale = full_vals.iter().fold(1.0f32, |m, v| m.max(v.abs()));
    for (got, exp) in r1.values.iter().zip(want) {
        // bisection+inverse-iteration vs divide&conquer on the same T:
        // agreement at f32 spectrum-scale accuracy
        prop_assert!(
            (got - exp).abs() <= 2e-4 * scale,
            "selected {got} vs full {exp} (scale {scale})"
        );
    }
    if let Some(x) = &r1.vectors {
        prop_assert_eq!(x.rows(), n);
        prop_assert_eq!(x.cols(), want.len());
        let res = tcevd::evd::eigenpair_residual(a.as_ref(), &r1.values, x.as_ref());
        prop_assert!(res <= 5e-4, "selected eigenpair residual {res}");
    }
}

proptest! {
    // each case runs one full EVD and eight selected EVDs — keep the count low
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn selected_matches_full_slice(
        a64 in sym_strategy(24),
        ilo in 0usize..30,      // deliberately may exceed n, invert, or be empty
        ihi in 0usize..30,
        v1 in -30.0f32..30.0,   // value bounds: may invert and may miss the spectrum
        v2 in -30.0f32..30.0,
    ) {
        let n = 24;
        let a: Mat<f32> = a64.cast();
        let opts = SymEigOptions {
            bandwidth: 4,
            sbr: SbrVariant::Wy { block: 8 },
            panel: PanelKind::Tsqr,
            solver: TridiagSolver::DivideConquer,
            vectors: true,
            trace: false,
            recovery: RecoveryPolicy::default(),
            threads: 1,
        };
        let ctx = GemmContext::new(Engine::Sgemm);
        let full = sym_eig(&a, &opts, &ctx).unwrap();
        prop_assert_eq!(full.values.len(), n);

        // value ranges skip draws that land a boundary within f32
        // resolution of an eigenvalue (the strict/half-open boundary is then
        // solver-dependent and not the property under test)
        let boundary_clear = |x: f32| {
            full.values.iter().all(|v| (v - x).abs() > 1e-3)
        };
        // WY back-transforms a range through FormW, ZY through its dense Q₁
        for sbr in [SbrVariant::Wy { block: 8 }, SbrVariant::Zy] {
            let opts = SymEigOptions { sbr, ..opts };
            // index range as drawn (possibly empty / inverted / past n)
            check_selected_against_full(
                &a, EigRange::Index { lo: ilo, hi: ihi }, &full.values, &opts,
            );
            if boundary_clear(v1) && boundary_clear(v2) {
                check_selected_against_full(
                    &a, EigRange::Value { lo: v1, hi: v2 }, &full.values, &opts,
                );
            }
        }
    }
}
