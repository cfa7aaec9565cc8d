//! The bridge between the numeric implementation and the performance
//! model: dry-run shape traces must agree with what the instrumented
//! algorithms actually execute, and the flop accounting must line up with
//! the paper's Table 2.

use tcevd::band::form_wy;
use tcevd::band::{
    formw_trace, sbr_wy, sbr_zy, wy_trace, zy_trace, zy_trace_on, PanelKind, SbrOptions, WyOptions,
    WySbrResult,
};
use tcevd::matrix::Mat;
use tcevd::perfmodel::{sbr_cost, A100Model, SbrConfig};
use tcevd::tensorcore::{Engine, GemmContext, GemmRecord};
use tcevd::testmat::{generate, MatrixType};
use tcevd::trace::TraceSink;

/// Run `f` on a fresh `engine` context with an enabled sink and return the
/// sink's GEMM log.
fn gemm_log(engine: Engine, f: impl FnOnce(&GemmContext)) -> Vec<GemmRecord> {
    let sink = TraceSink::enabled();
    f(&GemmContext::new(engine).with_sink(sink.clone()));
    sink.gemms()
}

fn run_wy(a: &Mat<f32>, b: usize, nb: usize, ctx: &GemmContext) -> WySbrResult {
    let opts = WyOptions {
        bandwidth: b,
        block: nb,
        panel: PanelKind::Tsqr,
        accumulate_q: false,
    };
    sbr_wy(a, &opts, ctx).expect("sbr reduction")
}

fn run_zy(a: &Mat<f32>, b: usize, ctx: &GemmContext) {
    let opts = SbrOptions {
        bandwidth: b,
        panel: PanelKind::Tsqr,
        accumulate_q: false,
    };
    sbr_zy(a, &opts, ctx).expect("sbr reduction");
}

#[test]
fn real_and_model_traces_agree_across_configs() {
    for (n, b, nb) in [(120usize, 8usize, 16usize), (96, 12, 24), (150, 10, 40)] {
        let a: Mat<f32> = generate(n, MatrixType::Normal, 5).cast();
        let real = gemm_log(Engine::Tc, |ctx| {
            run_wy(&a, b, nb, ctx);
        });
        assert_eq!(real, wy_trace(n, b, nb).gemms, "WY n={n} b={b} nb={nb}");
        let real = gemm_log(Engine::Tc, |ctx| run_zy(&a, b, ctx));
        assert_eq!(real, zy_trace(n, b).gemms, "ZY n={n} b={b}");
    }
}

#[test]
fn real_and_model_engine_fields_agree() {
    // The model traces must emit the shapes each engine actually
    // dispatches: the Sgemm path's native-syr2k shape (one record, half
    // flops) vs the Tensor-Core decomposition (two outer products).
    let (n, b, nb) = (96usize, 8usize, 16usize);
    let a: Mat<f32> = generate(n, MatrixType::Normal, 9).cast();
    for engine in [Engine::Sgemm, Engine::Tc, Engine::EcTc] {
        let real = gemm_log(engine, |ctx| run_zy(&a, b, ctx));
        assert_eq!(real, zy_trace_on(n, b, engine).gemms, "ZY {engine:?}");
        let real = gemm_log(engine, |ctx| {
            run_wy(&a, b, nb, ctx);
        });
        assert_eq!(real, wy_trace(n, b, nb).gemms, "WY {engine:?}");
    }
}

#[test]
fn formw_trace_matches_real_merge_tree() {
    let (n, b, nb) = (144usize, 8, 16);
    let a: Mat<f32> = generate(n, MatrixType::Uniform, 6).cast();
    let r = run_wy(&a, b, nb, &GemmContext::new(Engine::Tc));
    let mut real = gemm_log(Engine::Tc, |ctx| {
        form_wy(&r.levels, n, ctx);
    });
    let mut model = formw_trace(n, b, nb, 0);
    // rayon::join may interleave subtree records; compare as multisets
    real.sort_unstable();
    model.sort_unstable();
    assert_eq!(real, model);
}

#[test]
fn table2_flop_counts_in_paper_band() {
    // the absolute numbers of the paper's Table 2
    let n = 32768;
    let checks = [
        (zy_trace(n, 128).gemm_flops() as f64, 0.70e14, 0.15),
        (wy_trace(n, 128, 128).gemm_flops() as f64, 0.93e14, 0.20),
        (wy_trace(n, 128, 1024).gemm_flops() as f64, 1.17e14, 0.25),
        (wy_trace(n, 128, 4096).gemm_flops() as f64, 1.31e14, 0.30),
    ];
    for (got, want, tol) in checks {
        assert!(
            (got / want - 1.0).abs() < tol,
            "flops {got:.3e} vs paper {want:.3e}"
        );
    }
}

#[test]
fn model_speedups_hold_the_paper_shape() {
    let m = A100Model::default();
    let (b, nb) = (128, 1024);
    // monotone speedup growth over n, crossing ~3x at the top size
    let mut last = 0.0;
    for n in [4096usize, 8192, 16384, 32768] {
        let wy = sbr_cost(&m, n, b, SbrConfig::WyTc { nb }).total();
        let magma = sbr_cost(&m, n, b, SbrConfig::Magma).total();
        let s = magma / wy;
        assert!(s > last, "speedup should grow with n");
        last = s;
    }
    assert!(last > 2.5, "peak SBR speedup {last:.2} too low");
    // WY-vs-ZY crossover: ZY wins at 4096, WY wins at 32768 (Figure 6)
    let wy_small = sbr_cost(&m, 4096, b, SbrConfig::WyTc { nb }).gemm_s;
    let zy_small = sbr_cost(&m, 4096, b, SbrConfig::ZyTc).gemm_s;
    assert!(
        zy_small < wy_small,
        "at 4096 ZY should win: {zy_small} vs {wy_small}"
    );
    let wy_big = sbr_cost(&m, 32768, b, SbrConfig::WyTc { nb }).gemm_s;
    let zy_big = sbr_cost(&m, 32768, b, SbrConfig::ZyTc).gemm_s;
    assert!(
        wy_big < zy_big,
        "at 32768 WY should win: {wy_big} vs {zy_big}"
    );
}
