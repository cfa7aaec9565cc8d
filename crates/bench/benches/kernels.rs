//! Criterion wall-clock benches of the real kernels (the software
//! simulator's own speed, not A100 speed): GEMM engines, panel
//! factorizations, both SBR variants, bulge chasing, and the tridiagonal
//! eigensolvers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tcevd_band::{bulge_chase, sbr_wy, sbr_zy, PanelKind, SbrOptions, WyOptions};
use tcevd_core::{tridiag_eig_dc, tridiag_eig_ql, SymTridiag};
use tcevd_factor::qr::geqr2;
use tcevd_factor::tsqr::tsqr;
use tcevd_matrix::blas3::gemm;
use tcevd_matrix::{Mat, Op};
use tcevd_tensorcore::{ec_gemm, tc_gemm, EcMode, Engine, GemmContext};
use tcevd_testmat::{generate, random_gaussian, MatrixType};

fn mat32(m: usize, n: usize, seed: u64) -> Mat<f32> {
    random_gaussian(m, n, seed).cast()
}

fn bench_gemm_engines(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemm_engines");
    for &n in &[128usize, 256] {
        let a = mat32(n, n, 1);
        let b = mat32(n, n, 2);
        g.bench_with_input(BenchmarkId::new("sgemm", n), &n, |bch, _| {
            bch.iter(|| {
                let mut out = Mat::<f32>::zeros(n, n);
                gemm(
                    1.0,
                    a.as_ref(),
                    Op::NoTrans,
                    b.as_ref(),
                    Op::NoTrans,
                    0.0,
                    out.as_mut(),
                );
                black_box(out)
            })
        });
        g.bench_with_input(BenchmarkId::new("tc_gemm", n), &n, |bch, _| {
            bch.iter(|| {
                let mut out = Mat::<f32>::zeros(n, n);
                tc_gemm(
                    1.0,
                    a.as_ref(),
                    Op::NoTrans,
                    b.as_ref(),
                    Op::NoTrans,
                    0.0,
                    out.as_mut(),
                );
                black_box(out)
            })
        });
        g.bench_with_input(BenchmarkId::new("ec_gemm", n), &n, |bch, _| {
            bch.iter(|| {
                let mut out = Mat::<f32>::zeros(n, n);
                ec_gemm(
                    1.0,
                    a.as_ref(),
                    Op::NoTrans,
                    b.as_ref(),
                    Op::NoTrans,
                    0.0,
                    out.as_mut(),
                    EcMode::F16Scaled,
                );
                black_box(out)
            })
        });
    }
    g.finish();
}

fn bench_panel(c: &mut Criterion) {
    let mut g = c.benchmark_group("panel_qr");
    for &m in &[1024usize, 4096] {
        let b = 32;
        let a = mat32(m, b, 3);
        g.bench_with_input(BenchmarkId::new("tsqr", m), &m, |bch, _| {
            bch.iter(|| black_box(tsqr(a.as_ref())))
        });
        g.bench_with_input(BenchmarkId::new("householder", m), &m, |bch, _| {
            bch.iter(|| {
                let mut p = a.clone();
                black_box(geqr2(p.as_mut()))
            })
        });
    }
    g.finish();
}

fn bench_sbr(c: &mut Criterion) {
    let mut g = c.benchmark_group("sbr");
    g.sample_size(10);
    for &n in &[192usize, 384] {
        let a: Mat<f32> = generate(n, MatrixType::Normal, 4).cast();
        let b = 16;
        g.bench_with_input(BenchmarkId::new("wy_tc", n), &n, |bch, _| {
            let ctx = GemmContext::new(Engine::Tc);
            bch.iter(|| {
                black_box(
                    sbr_wy(
                        &a,
                        &WyOptions {
                            bandwidth: b,
                            block: 4 * b,
                            panel: PanelKind::Tsqr,
                            accumulate_q: false,
                        },
                        &ctx,
                    )
                    .expect("sbr reduction"),
                )
            })
        });
        g.bench_with_input(BenchmarkId::new("zy_tc", n), &n, |bch, _| {
            let ctx = GemmContext::new(Engine::Tc);
            bch.iter(|| {
                black_box(
                    sbr_zy(
                        &a,
                        &SbrOptions {
                            bandwidth: b,
                            panel: PanelKind::Tsqr,
                            accumulate_q: false,
                        },
                        &ctx,
                    )
                    .expect("sbr reduction"),
                )
            })
        });
    }
    g.finish();
}

fn bench_stage2_and_solvers(c: &mut Criterion) {
    let mut g = c.benchmark_group("stage2_solvers");
    g.sample_size(10);
    let n = 384;
    let b = 16;
    let a: Mat<f32> = generate(n, MatrixType::Normal, 5).cast();
    let ctx = GemmContext::new(Engine::Sgemm);
    let band = sbr_wy(
        &a,
        &WyOptions {
            bandwidth: b,
            block: 64,
            panel: PanelKind::Tsqr,
            accumulate_q: false,
        },
        &ctx,
    )
    .expect("sbr reduction")
    .band;
    // The chase consumes its band, so each iteration also times one copy.
    g.bench_function("bulge_chase_384_b16", |bch| {
        bch.iter(|| black_box(bulge_chase(band.clone(), b, false)))
    });

    let chase = bulge_chase(band, b, false);
    let t = SymTridiag::new(chase.diag.clone(), chase.offdiag.clone());
    g.bench_function("dc_384", |bch| {
        bch.iter(|| black_box(tridiag_eig_dc(&t).unwrap()))
    });
    g.bench_function("ql_384", |bch| {
        bch.iter(|| black_box(tridiag_eig_ql(&t).unwrap()))
    });
    g.finish();
}

fn bench_extensions(c: &mut Criterion) {
    let mut g = c.benchmark_group("extensions");
    g.sample_size(10);

    // native TC syr2k vs the two-GEMM formulation (paper §7 future work)
    let n = 256;
    let k = 32;
    let y = mat32(n, k, 6);
    let z = mat32(n, k, 7);
    let c0 = {
        let g0 = mat32(n, n, 8);
        Mat::from_fn(n, n, |i, j| 0.5 * (g0[(i, j)] + g0[(j, i)]))
    };
    g.bench_function("syr2k_two_gemms_256", |bch| {
        bch.iter(|| {
            let mut cm = c0.clone();
            tc_gemm(
                -1.0,
                y.as_ref(),
                Op::NoTrans,
                z.as_ref(),
                Op::Trans,
                1.0,
                cm.as_mut(),
            );
            tc_gemm(
                -1.0,
                z.as_ref(),
                Op::NoTrans,
                y.as_ref(),
                Op::Trans,
                1.0,
                cm.as_mut(),
            );
            black_box(cm)
        })
    });
    g.bench_function("syr2k_native_256", |bch| {
        bch.iter(|| {
            let mut cm = c0.clone();
            tcevd_tensorcore::tc_syr2k(-1.0, y.as_ref(), z.as_ref(), 1.0, cm.as_mut());
            black_box(cm)
        })
    });

    // bulge chasing on a smaller band
    let nb = 256;
    let band = {
        let a: Mat<f32> = generate(nb, MatrixType::Normal, 9).cast();
        let ctx = GemmContext::new(Engine::Sgemm);
        sbr_wy(
            &a,
            &WyOptions {
                bandwidth: 16,
                block: 64,
                panel: PanelKind::Tsqr,
                accumulate_q: false,
            },
            &ctx,
        )
        .expect("sbr reduction")
        .band
    };
    g.bench_function("bulge_dense_256_b16", |bch| {
        bch.iter(|| black_box(bulge_chase(band.clone(), 16, false)))
    });

    // Jacobi vs the two-stage pipeline at equal size
    let a: Mat<f32> = generate(128, MatrixType::Normal, 10).cast();
    g.bench_function("jacobi_128", |bch| {
        bch.iter(|| black_box(tcevd_core::jacobi_eig(&a).unwrap()))
    });
    g.bench_function("two_stage_128", |bch| {
        let ctx = GemmContext::new(Engine::Sgemm);
        let o = tcevd_core::SymEigOptions {
            bandwidth: 16,
            sbr: tcevd_core::SbrVariant::Wy { block: 64 },
            panel: PanelKind::Tsqr,
            solver: tcevd_core::TridiagSolver::DivideConquer,
            vectors: true,
            trace: false,
            recovery: Default::default(),
            threads: 0,
        };
        bch.iter(|| black_box(tcevd_core::sym_eig(&a, &o, &ctx).unwrap()))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_gemm_engines,
    bench_panel,
    bench_sbr,
    bench_stage2_and_solvers,
    bench_extensions
);
criterion_main!(benches);
