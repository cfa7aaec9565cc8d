//! Integration tests for the beyond-the-paper extensions: Jacobi
//! cross-check, mixed-precision refinement, the values-only stage chain,
//! selected eigenpairs, native TC syr2k, TF32 engine, and failure injection.

use tcevd::band::{bulge_chase, sbr_wy, PanelKind, WyOptions};
use tcevd::evd::{
    jacobi_eig, refine_eigenvalues_rayleigh, sym_eig, sym_eig_selected, sym_eigenvalues,
    sym_eigenvalues_ref, EigRange, SbrVariant, SymEigOptions, TridiagSolver,
};
use tcevd::matrix::{Mat, Op};
use tcevd::tensorcore::{tc_gemm, tc_syr2k, Engine, GemmContext};
use tcevd::testmat::{generate, MatrixType};

fn opts(b: usize, nb: usize, vectors: bool) -> SymEigOptions {
    SymEigOptions {
        trace: false,
        recovery: Default::default(),
        threads: 0,
        bandwidth: b,
        sbr: SbrVariant::Wy { block: nb },
        panel: PanelKind::Tsqr,
        solver: TridiagSolver::DivideConquer,
        vectors,
    }
}

#[test]
fn jacobi_cross_checks_the_pipeline() {
    // Two completely independent algorithms must agree.
    let n = 72;
    let a64 = generate(n, MatrixType::Uniform, 301);
    let a: Mat<f32> = a64.cast();
    let ctx = GemmContext::new(Engine::Sgemm);
    let pipe = sym_eigenvalues(&a, &opts(8, 32, false), &ctx).unwrap();
    let (jac, _) = jacobi_eig(&a).unwrap();
    let scale = jac.iter().fold(1.0f32, |m, v| m.max(v.abs()));
    for (p, j) in pipe.iter().zip(jac.iter()) {
        assert!((p - j).abs() < 5e-5 * scale, "{p} vs {j}");
    }
}

#[test]
fn rayleigh_refinement_recovers_digits_end_to_end() {
    let n = 80;
    let a64 = generate(n, MatrixType::Normal, 302);
    let a: Mat<f32> = a64.cast();
    let ctx = GemmContext::new(Engine::Tc);
    let r = sym_eig(&a, &opts(8, 32, true), &ctx).unwrap();
    let reference = sym_eigenvalues_ref(&a64).unwrap();

    let worst = |vals: &[f64]| -> f64 {
        vals.iter()
            .zip(reference.iter())
            .map(|(v, w)| (v - w).abs())
            .fold(0.0, f64::max)
    };
    let raw: Vec<f64> = r.values.iter().map(|&v| v as f64).collect();
    let refined = refine_eigenvalues_rayleigh(&a64, r.vectors.as_ref().unwrap().as_ref());
    assert!(
        worst(&refined) < worst(&raw) / 10.0,
        "raw {:e} refined {:e}",
        worst(&raw),
        worst(&refined)
    );
}

#[test]
fn values_only_pipeline_is_the_manual_stage_chain_bitwise() {
    // sym_eigenvalues runs exactly sbr_wy → bulge_chase → tridiag_eig_dc
    let n = 96;
    let a64 = generate(n, MatrixType::Geo { cond: 1e2 }, 303);
    let a: Mat<f32> = a64.cast();
    let ctx = GemmContext::new(Engine::Sgemm);
    let vals_pipeline = sym_eigenvalues(&a, &opts(8, 32, false), &ctx).unwrap();

    let r = sbr_wy(
        &a,
        &WyOptions {
            bandwidth: 8,
            block: 32,
            panel: PanelKind::Tsqr,
            accumulate_q: false,
        },
        &ctx,
    )
    .expect("sbr reduction");
    let chase = bulge_chase(r.band, 8, false);
    let t = tcevd::evd::SymTridiag::new(chase.diag, chase.offdiag);
    let vals_manual = tcevd::evd::tridiag_eig_dc(&t).unwrap().0;
    assert_eq!(vals_pipeline, vals_manual);
}

#[test]
fn values_only_matches_full_spectrum_values_bitwise() {
    // One chase serves both requests, so dropping the vectors must not
    // change a single bit of the eigenvalues (D&C computes the same values
    // either way; QL's value-only sweep is different code and is left out).
    let n = 96;
    let a: Mat<f32> = generate(n, MatrixType::Normal, 306).cast();
    for engine in [Engine::Sgemm, Engine::Tc] {
        let ctx = GemmContext::new(engine);
        for sbr in [
            SbrVariant::Wy { block: 32 },
            SbrVariant::Dbr { block: 32 },
            SbrVariant::Zy,
        ] {
            let o = |vectors| SymEigOptions {
                sbr,
                ..opts(8, 32, vectors)
            };
            let values = sym_eigenvalues(&a, &o(false), &ctx).unwrap();
            let full = sym_eig(&a, &o(true), &ctx).unwrap();
            assert_eq!(values, full.values, "{engine:?}/{sbr:?}");
        }
    }
}

#[test]
fn selected_pipeline_through_tensor_core() {
    let n = 96;
    let a64 = generate(n, MatrixType::Arith { cond: 1e2 }, 305);
    let a: Mat<f32> = a64.cast();
    let ctx = GemmContext::new(Engine::Tc);
    let sel = sym_eig_selected(
        &a,
        EigRange::Index { lo: n - 4, hi: n },
        &opts(8, 32, false),
        &ctx,
    )
    .unwrap();
    let reference = sym_eigenvalues_ref(&a64).unwrap();
    for (j, v) in sel.values.iter().enumerate() {
        assert!(
            (*v as f64 - reference[n - 4 + j]).abs() < 1e-3,
            "{v} vs {}",
            reference[n - 4 + j]
        );
    }
}

#[test]
fn tc_syr2k_drop_in_for_trailing_update() {
    // replacing the two outer products with the native syr2k inside a ZY
    // step yields the same trailing matrix
    let n = 48;
    let k = 8;
    let y: Mat<f32> = generate(n, MatrixType::Normal, 306)
        .cast()
        .submatrix(0, 0, n, k);
    let z: Mat<f32> = generate(n, MatrixType::Normal, 307)
        .cast()
        .submatrix(0, 0, n, k);
    let c0: Mat<f32> = generate(n, MatrixType::Uniform, 308).cast();

    let mut c1 = c0.clone();
    tc_gemm(
        -1.0,
        y.as_ref(),
        Op::NoTrans,
        z.as_ref(),
        Op::Trans,
        1.0,
        c1.as_mut(),
    );
    tc_gemm(
        -1.0,
        z.as_ref(),
        Op::NoTrans,
        y.as_ref(),
        Op::Trans,
        1.0,
        c1.as_mut(),
    );

    let mut c2 = c0.clone();
    tc_syr2k(-1.0, y.as_ref(), z.as_ref(), 1.0, c2.as_mut());

    // c0 is symmetric, so both formulations agree up to accumulation order
    assert!(c1.max_abs_diff(&c2) < 1e-3);
}

#[test]
fn tf32_nearly_matches_fp16_for_well_scaled_input() {
    // TF32 and FP16 share the 10-bit mantissa: for entries inside fp16's
    // normal range the two engines round identically, so the pipelines
    // differ only through the occasional subnormal-range intermediate.
    let n = 64;
    let a: Mat<f32> = generate(n, MatrixType::Normal, 309).cast();
    let es = |engine: Engine| -> Vec<f32> {
        let ctx = GemmContext::new(engine);
        sym_eigenvalues(&a, &opts(8, 32, false), &ctx).unwrap()
    };
    let (tc, tf32) = (es(Engine::Tc), es(Engine::Tf32));
    let scale = tc.iter().fold(1.0f32, |m, v| m.max(v.abs()));
    for (a, b) in tc.iter().zip(tf32.iter()) {
        assert!(
            (a - b).abs() < 1e-5 * scale,
            "well-scaled fp16 vs tf32 drifted: {a} vs {b}"
        );
    }
}

#[test]
fn tf32_wins_outside_fp16_range() {
    // Entries ~1e-6 are subnormal in fp16 (min normal 6.1e-5): products
    // lose most mantissa bits. TF32 keeps the full f32 exponent range.
    let n = 64;
    let a64 = generate(n, MatrixType::Normal, 312);
    let mut a: Mat<f32> = a64.cast();
    for v in a.as_mut_slice() {
        *v *= 1e-6;
    }
    let mut a64s = a64.clone();
    for v in a64s.as_mut_slice() {
        *v *= 1e-6;
    }
    let reference = sym_eigenvalues_ref(&a64s).unwrap();
    let es = |engine: Engine| -> f64 {
        let ctx = GemmContext::new(engine);
        let vals = sym_eigenvalues(&a, &opts(8, 32, false), &ctx).unwrap();
        let v: Vec<f64> = vals.iter().map(|&x| x as f64).collect();
        tcevd::evd::eigenvalue_error(&reference, &v)
    };
    let (tc, tf32) = (es(Engine::Tc), es(Engine::Tf32));
    assert!(
        tf32 < tc / 10.0,
        "tf32 {tf32:e} should clearly beat subnormal-squashed fp16 {tc:e}"
    );
}

#[test]
fn nan_input_fails_fast() {
    let mut a: Mat<f32> = generate(16, MatrixType::Normal, 310).cast();
    a[(3, 5)] = f32::NAN;
    a[(5, 3)] = f32::NAN;
    let ctx = GemmContext::new(Engine::Sgemm);
    let r = sym_eig(&a, &opts(4, 8, false), &ctx);
    assert_eq!(
        r.err(),
        Some(tcevd::evd::EvdError::NonFinite {
            stage: tcevd::evd::EvdStage::Input
        })
    );

    let mut b: Mat<f32> = generate(16, MatrixType::Normal, 311).cast();
    b[(0, 0)] = f32::INFINITY;
    let r = sym_eig(&b, &opts(4, 8, true), &ctx);
    assert_eq!(
        r.err(),
        Some(tcevd::evd::EvdError::NonFinite {
            stage: tcevd::evd::EvdStage::Input
        })
    );
}

#[test]
fn zero_matrix_and_identity() {
    let ctx = GemmContext::new(Engine::Sgemm);
    let z = Mat::<f32>::zeros(12, 12);
    let r = sym_eig(&z, &opts(4, 8, true), &ctx).unwrap();
    for v in &r.values {
        assert_eq!(*v, 0.0);
    }
    let id = Mat::<f32>::identity(12, 12);
    let r = sym_eig(&id, &opts(4, 8, false), &ctx).unwrap();
    for v in &r.values {
        assert!((v - 1.0).abs() < 1e-6);
    }
}
