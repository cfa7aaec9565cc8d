#![forbid(unsafe_code)]
//! # tcevd-bench — paper reproduction harness
//!
//! One generator per table/figure of the paper's evaluation. Each function
//! returns the formatted table as a `String` (the `reproduce` binary and
//! the `figures` bench target print them; tests assert on their content).
//!
//! Performance figures (Tables 1–2, Figures 5–11) replay validated shape
//! traces through the Table-1-calibrated A100 model at the paper's full
//! sizes. Accuracy tables (3–4) run the *real* numeric pipeline through the
//! software Tensor Core at a software-feasible size (default n = 512; the
//! metrics are N-normalized exactly as in the paper).

pub mod profile;
pub mod schema;
pub mod serve_bench;

pub use profile::{profile_run, ProfileRun};
pub use schema::{compare, validate_bench_json};
pub use serve_bench::serve_bench;

use std::fmt::Write as _;
use tcevd_band::trace_model::{formw_trace, wy_trace, zy_trace};
use tcevd_band::{
    bulge_chase, form_wy, max_outside_band, sbr_dbr, sbr_wy, DbrOptions, PanelKind, WyOptions,
};
use tcevd_core::{
    backward_error, eigenvalue_error, orthogonality, sym_eig, sym_eigenvalues, sym_eigenvalues_ref,
    SbrVariant, SymEigOptions, TridiagSolver,
};
use tcevd_matrix::blas3::gemm;
use tcevd_matrix::{Mat, Op};
use tcevd_perfmodel::{evd_time, sbr_cost, A100Model, PanelCost, SbrConfig};
use tcevd_tensorcore::{Engine, GemmContext};
use tcevd_testmat::{generate, MatrixType};

/// Paper-standard sweep of matrix sizes (Figures 6–11).
pub const SIZES: [usize; 8] = [4096, 8192, 12288, 16384, 20480, 24576, 28672, 32768];
/// Paper-standard bandwidth.
pub const BANDWIDTH: usize = 128;
/// The paper's sweet-spot big block (Figure 5).
pub const BLOCK: usize = 1024;

/// Table 1: TC-GEMM vs SGEMM TFLOPS by shape and k (the calibration table
/// itself, shown alongside the model's interpolation at off-grid points).
pub fn table1() -> String {
    use tcevd_perfmodel::rates::*;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 1 — GEMM throughput on A100 (TFLOPS), m = 32768 fixed"
    );
    let _ = writeln!(
        out,
        "{:>6} | {:>12} {:>12} | {:>12} {:>12}",
        "k", "TC sq×tall", "SGEMM", "TC outer", "SGEMM"
    );
    for (i, &k) in CAL_K.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:>6} | {:>12.2} {:>12.2} | {:>12.2} {:>12.2}",
            k, TC_SQUARE_TALL[i], SGEMM_SQUARE_TALL[i], TC_OUTER[i], SGEMM_OUTER[i]
        );
    }
    let _ = writeln!(out, "-- model interpolation at off-grid k:");
    for k in [96usize, 384, 1536] {
        let _ = writeln!(
            out,
            "{:>6} | {:>12.2} {:>12.2} | {:>12.2} {:>12.2}",
            k,
            interp_rate(&TC_SQUARE_TALL, k),
            interp_rate(&SGEMM_SQUARE_TALL, k),
            interp_rate(&TC_OUTER, k),
            interp_rate(&SGEMM_OUTER, k)
        );
    }
    out
}

/// Table 2: arithmetic operations of ZY (b = 128) vs WY SBR with
/// nb = 128…4096 at n = 32768, from the validated shape traces.
pub fn table2() -> String {
    let n = 32768;
    let b = BANDWIDTH;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 2 — arithmetic operations (×1e14), n = 32768, bandwidth {b}"
    );
    let zy = zy_trace(n, b).gemm_flops() as f64 / 1e14;
    let _ = writeln!(out, "{:>12} | {:>8} | paper", "variant", "flops");
    let _ = writeln!(out, "{:>12} | {:>8.2} | 0.70", "ZY b=128", zy);
    let paper = [0.93, 1.05, 1.12, 1.17, 1.22, 1.31];
    for (i, nb) in [128usize, 256, 512, 1024, 2048, 4096].iter().enumerate() {
        let f = wy_trace(n, b, *nb).gemm_flops() as f64 / 1e14;
        let _ = writeln!(
            out,
            "{:>12} | {:>8.2} | {:.2}",
            format!("WY nb={nb}"),
            f,
            paper[i]
        );
    }
    out
}

/// Figure 5: total TC-GEMM time in the WY algorithm vs nb at n = 32768,
/// with achieved TFLOPS.
pub fn fig5() -> String {
    let model = A100Model::default();
    let n = 32768;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 5 — WY-SBR TC-GEMM time vs block size nb (n = 32768, b = {BANDWIDTH})"
    );
    let _ = writeln!(out, "{:>6} | {:>10} | {:>10}", "nb", "time (s)", "TFLOPS");
    for nb in [128usize, 256, 512, 1024, 2048, 4096] {
        let tr = wy_trace(n, BANDWIDTH, nb);
        let t = model.gemm_time_total(&tr.gemms, Engine::Tc);
        let tflops = model.achieved_tflops(&tr.gemms, Engine::Tc);
        let _ = writeln!(out, "{:>6} | {:>10.3} | {:>10.1}", nb, t, tflops);
    }
    out
}

/// Figures 6 and 7: total GEMM time, WY (nb = 1024) vs ZY, across sizes,
/// on the chosen engine. On TC the WY wins at scale; on SGEMM it loses —
/// the paper's central contrast.
pub fn fig6_fig7(engine: Engine) -> String {
    let model = A100Model::default();
    let name = match engine {
        Engine::Tc => "Figure 6 — TCGEMM",
        Engine::Sgemm => "Figure 7 — SGEMM",
        Engine::EcTc => "(EC variant)",
        Engine::Tf32 => "(TF32 variant)",
    };
    let mut out = String::new();
    let _ = writeln!(out, "{name} total time (s): WY (nb = {BLOCK}) vs ZY");
    let _ = writeln!(
        out,
        "{:>6} | {:>10} | {:>10} | {:>9}",
        "n", "WY", "ZY", "WY TFLOPS"
    );
    for &n in &SIZES {
        let wy = wy_trace(n, BANDWIDTH, BLOCK);
        let zy = zy_trace(n, BANDWIDTH);
        let t_wy = model.gemm_time_total(&wy.gemms, engine);
        let t_zy = model.gemm_time_total(&zy.gemms, engine);
        let _ = writeln!(
            out,
            "{:>6} | {:>10.3} | {:>10.3} | {:>9.1}",
            n,
            t_wy,
            t_zy,
            model.achieved_tflops(&wy.gemms, engine)
        );
    }
    out
}

/// Figure 8: total panel-QR time across a band reduction, by panel engine.
pub fn fig8() -> String {
    let model = A100Model::default();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 8 — total panel factorization time (s), b = {BANDWIDTH}"
    );
    let _ = writeln!(
        out,
        "{:>6} | {:>10} | {:>10} | {:>10}",
        "n", "TSQR", "cuSOLVER", "MAGMA"
    );
    for &n in &SIZES {
        let tr = zy_trace(n, BANDWIDTH); // same panel sequence for either SBR
        let t = |kind| -> f64 { tr.panels.iter().map(|p| model.panel_time(p, kind)).sum() };
        let _ = writeln!(
            out,
            "{:>6} | {:>10.3} | {:>10.3} | {:>10.3}",
            n,
            t(PanelCost::Tsqr),
            t(PanelCost::Cusolver),
            t(PanelCost::Magma)
        );
    }
    out
}

/// Figure 9: SBR ablation — Tensor Core and TSQR each on/off vs MAGMA.
pub fn fig9() -> String {
    let model = A100Model::default();
    let mut out = String::new();
    let _ = writeln!(out, "Figure 9 — SBR total time (s): TC/TSQR ablation");
    let _ = writeln!(
        out,
        "{:>6} | {:>10} | {:>10} | {:>12} | {:>10}",
        "n", "TC+TSQR", "noTC+TSQR", "TC+cuSOLVER", "MAGMA"
    );
    for &n in &SIZES {
        let f = |c| sbr_cost(&model, n, BANDWIDTH, c).total();
        let _ = writeln!(
            out,
            "{:>6} | {:>10.3} | {:>10.3} | {:>12.3} | {:>10.3}",
            n,
            f(SbrConfig::WyTc { nb: BLOCK }),
            f(SbrConfig::WySgemm { nb: BLOCK }),
            f(SbrConfig::WyTcNoTsqr { nb: BLOCK }),
            f(SbrConfig::Magma)
        );
    }
    out
}

/// Figure 10: SBR total — WY-TC, WY-EC-TC, ZY-TC, MAGMA, with speedups.
pub fn fig10() -> String {
    let model = A100Model::default();
    let mut out = String::new();
    let _ = writeln!(out, "Figure 10 — SBR total time (s) and speedup vs MAGMA");
    let _ = writeln!(
        out,
        "{:>6} | {:>8} | {:>8} | {:>8} | {:>8} | {:>8}",
        "n", "WY-TC", "WY-EC", "ZY-TC", "MAGMA", "speedup"
    );
    for &n in &SIZES {
        let f = |c| sbr_cost(&model, n, BANDWIDTH, c).total();
        let wy = f(SbrConfig::WyTc { nb: BLOCK });
        let magma = f(SbrConfig::Magma);
        let _ = writeln!(
            out,
            "{:>6} | {:>8.3} | {:>8.3} | {:>8.3} | {:>8.3} | {:>7.2}x",
            n,
            wy,
            f(SbrConfig::WyEcTc { nb: BLOCK }),
            f(SbrConfig::ZyTc),
            magma,
            magma / wy
        );
    }
    out
}

/// Figure 11: end-to-end 2-stage EVD (no eigenvectors) — ours vs MAGMA.
pub fn fig11() -> String {
    let model = A100Model::default();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 11 — 2-stage EVD total time (s): WY-TC SBR + host stage2/D&C vs MAGMA"
    );
    let _ = writeln!(
        out,
        "{:>6} | {:>10} | {:>10} | {:>8}",
        "n", "ours", "MAGMA", "speedup"
    );
    for &n in &SIZES {
        let ours = evd_time(&model, n, BANDWIDTH, SbrConfig::WyTc { nb: BLOCK });
        let magma = evd_time(&model, n, BANDWIDTH, SbrConfig::Magma);
        let _ = writeln!(
            out,
            "{:>6} | {:>10.3} | {:>10.3} | {:>7.2}x",
            n,
            ours,
            magma,
            magma / ours
        );
    }
    out
}

/// §4.4: back-transformation (FormW) time, WY recursive vs ZY dense-Q —
/// the paper's 320 ms vs 420 ms (~10% of SBR) claim.
pub fn formw_claim() -> String {
    let model = A100Model::default();
    let n = 32768;
    let mut out = String::new();
    let wy = formw_trace(n, BANDWIDTH, BLOCK, n);
    let t_wy = model.gemm_time_total(&wy, Engine::Tc);
    // ZY back-transformation: apply each of the n/b panel reflectors' WY
    // pair to the n×n eigenvector block (two GEMMs of inner dim b each).
    let mut zy_recs = Vec::new();
    let mut i = 0;
    while i + BANDWIDTH < n {
        let mp = n - i - BANDWIDTH;
        zy_recs.push(tcevd_tensorcore::GemmRecord {
            m: BANDWIDTH.min(mp),
            n,
            k: mp,
            engine: Engine::Tc,
            label: "zy_back_ytv",
        });
        zy_recs.push(tcevd_tensorcore::GemmRecord {
            m: mp,
            n,
            k: BANDWIDTH.min(mp),
            engine: Engine::Tc,
            label: "zy_back_wv",
        });
        i += BANDWIDTH;
    }
    let t_zy = model.gemm_time_total(&zy_recs, Engine::Tc);
    let _ = writeln!(
        out,
        "§4.4 — back-transformation at n = 32768 (paper: 320 ms vs 420 ms)"
    );
    let _ = writeln!(out, "  WY recursive FormW: {:>7.1} ms", t_wy * 1e3);
    let _ = writeln!(out, "  ZY per-panel:       {:>7.1} ms", t_zy * 1e3);
    let _ = writeln!(out, "  ratio: {:.2}x", t_zy / t_wy);
    out
}

/// Table 3: backward error and orthogonality of the Tensor-Core SBR over
/// the paper's ten matrix families — the real numeric pipeline.
pub fn table3(n: usize, seed: u64) -> String {
    let mut out = String::new();
    let b = (n / 16).clamp(4, 32);
    let nb = 4 * b;
    let _ = writeln!(
        out,
        "Table 3 — TC SBR backward error E_b and orthogonality E_o (n = {n}, b = {b}, nb = {nb})"
    );
    let _ = writeln!(out, "{:<18} | {:>12} | {:>12}", "Matrix type", "E_b", "E_o");
    for (name, mt) in MatrixType::paper_suite() {
        let a64 = generate(n, mt, seed);
        let a: Mat<f32> = a64.cast();
        let ctx = GemmContext::new(Engine::Tc);
        let r = sbr_wy(
            &a,
            &WyOptions {
                bandwidth: b,
                block: nb,
                panel: PanelKind::Tsqr,
                accumulate_q: true,
            },
            &ctx,
        )
        .expect("SBR on finite input");
        let q = r.q.as_ref().unwrap();
        let eb = backward_error(a.as_ref(), q.as_ref(), r.band.as_ref());
        let eo = orthogonality(q.as_ref());
        let _ = writeln!(out, "{:<18} | {:>12.2e} | {:>12.2e}", name, eb, eo);
    }
    out
}

/// Table 4: eigenvalue accuracy E_s — Tensor-Core 2-stage EVD vs the f64
/// reference ("LAPACK"), with the FP32 pipeline in the MAGMA column's role.
pub fn table4(n: usize, seed: u64) -> String {
    let mut out = String::new();
    let b = (n / 16).clamp(4, 32);
    let nb = 4 * b;
    let _ = writeln!(
        out,
        "Table 4 — eigenvalue error E_s vs f64 reference (n = {n}, b = {b}, nb = {nb})"
    );
    let _ = writeln!(
        out,
        "{:<18} | {:>12} | {:>12}",
        "Matrix type", "Tensor Core", "FP32 (MAGMA)"
    );
    let opts = SymEigOptions {
        bandwidth: b,
        sbr: SbrVariant::Wy { block: nb },
        panel: PanelKind::Tsqr,
        solver: TridiagSolver::DivideConquer,
        vectors: false,
        trace: false,
        recovery: Default::default(),
        threads: 0,
    };
    for (name, mt) in MatrixType::paper_suite() {
        let a64 = generate(n, mt, seed);
        let a: Mat<f32> = a64.cast();
        let reference = sym_eigenvalues_ref(&a64).expect("reference eigensolver");

        let es = |engine: Engine| -> f64 {
            let ctx = GemmContext::new(engine);
            let vals = sym_eigenvalues(&a, &opts, &ctx).expect("pipeline");
            let v64: Vec<f64> = vals.iter().map(|&x| x as f64).collect();
            eigenvalue_error(&reference, &v64)
        };
        let _ = writeln!(
            out,
            "{:<18} | {:>12.2e} | {:>12.2e}",
            name,
            es(Engine::Tc),
            es(Engine::Sgemm)
        );
    }
    out
}

/// Future-work projections (paper §7): a native Tensor-Core `syr2k` would
/// halve the ZY trailing-update arithmetic; TF32 trades half the fp16 rate
/// for the full f32 exponent range. Both are implemented in this
/// repository (`tcevd_tensorcore::tc_syr2k`, `Engine::Tf32`); this table
/// projects their effect at paper scale.
pub fn futurework() -> String {
    let model = A100Model::default();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Future work (§7) — projected SBR time (s) at b = {BANDWIDTH}, nb = {BLOCK}"
    );
    let _ = writeln!(
        out,
        "{:>6} | {:>8} | {:>8} | {:>12} | {:>8}",
        "n", "WY-TC", "ZY-TC", "ZY-TC+syr2k", "WY-TF32"
    );
    for &n in &SIZES {
        let wy = wy_trace(n, BANDWIDTH, BLOCK);
        let zy = zy_trace(n, BANDWIDTH);
        let t_wy = model
            .sbr_time(&wy, Engine::Tc, PanelCost::Tsqr, false)
            .total();
        let t_zy = model
            .sbr_time(&zy, Engine::Tc, PanelCost::Tsqr, false)
            .total();
        // native TC syr2k: trailing updates at half the arithmetic
        let t_zy_native = model
            .sbr_time(&zy, Engine::Tc, PanelCost::Tsqr, true)
            .total();
        let t_tf32 = model
            .sbr_time(&wy, Engine::Tf32, PanelCost::Tsqr, false)
            .total();
        let _ = writeln!(
            out,
            "{:>6} | {:>8.3} | {:>8.3} | {:>12.3} | {:>8.3}",
            n, t_wy, t_zy, t_zy_native, t_tf32
        );
    }
    let _ = writeln!(
        out,
        "(the syr2k projection optimistically assumes a native kernel sustaining\n the full outer-product GEMM rate on half the flops — under that assumption\n ZY becomes competitive with WY again, which is precisely why the paper\n flags it as future work; real syr2k kernels run below GEMM rate)"
    );
    out
}

/// Output of a fully traced pipeline run ([`trace_run`]).
pub struct TraceRun {
    /// Chrome `trace_event` JSON (load at <https://ui.perfetto.dev>).
    pub chrome_json: String,
    /// Human-readable per-stage time/counter report.
    pub report: String,
    /// GEMM flops tallied by the sink during the run.
    pub sink_flops: u64,
    /// GEMM flops tallied by the context's own accounting.
    pub ctx_flops: u64,
}

/// Run the *real* two-stage EVD (with eigenvectors) at size `n` with the
/// structured trace sink enabled, and return the exported artifacts plus
/// the flop cross-check between the sink counters and
/// [`GemmContext::total_flops`]. This backs `reproduce --trace=out.json`.
pub fn trace_run(n: usize, seed: u64) -> TraceRun {
    let b = (n / 16).clamp(4, 32);
    let nb = 4 * b;
    let a64 = generate(n, MatrixType::Normal, seed);
    let a: Mat<f32> = a64.cast();

    let sink = tcevd_trace::TraceSink::enabled();
    let ctx = GemmContext::new(Engine::Tc)
        .with_trace()
        .with_sink(sink.clone());
    let opts = SymEigOptions {
        bandwidth: b,
        sbr: SbrVariant::Wy { block: nb },
        panel: PanelKind::Tsqr,
        solver: TridiagSolver::DivideConquer,
        vectors: true,
        trace: true,
        recovery: Default::default(),
        threads: 0,
    };
    let r = sym_eig(&a, &opts, &ctx).expect("traced pipeline run");

    let sink_flops = sink.counter("gemm_flops");
    let ctx_flops = ctx.total_flops();
    let mut report = String::new();
    let _ = writeln!(
        report,
        "Traced sym_eig run: n = {n}, b = {b}, nb = {nb}, {} eigenvalues",
        r.values.len()
    );
    report.push_str(&sink.stage_report());
    let _ = writeln!(
        report,
        "flop cross-check: sink gemm_flops = {sink_flops}, GemmContext::total_flops = {ctx_flops} ({})",
        if sink_flops == ctx_flops { "match" } else { "MISMATCH" }
    );
    TraceRun {
        chrome_json: sink.chrome_trace_json(),
        report,
        sink_flops,
        ctx_flops,
    }
}

/// Thread-scaling smoke: wall-clock the full `sym_eig` (with eigenvectors)
/// at size `n` on a 1-thread and a 4-thread worker pool, check the two
/// runs agree bit for bit (the pool's determinism contract), and report
/// the speedup as a small JSON document. This backs `reproduce threads`;
/// CI writes the output to `BENCH_pr4.json`.
pub fn thread_scaling(n: usize, seed: u64) -> String {
    let b = (n / 16).clamp(4, 32);
    let nb = 4 * b;
    let a64 = generate(n, MatrixType::Normal, seed);
    let a: Mat<f32> = a64.cast();

    let run = |threads: usize| {
        let ctx = GemmContext::new(Engine::Sgemm);
        let opts = SymEigOptions {
            bandwidth: b,
            sbr: SbrVariant::Wy { block: nb },
            panel: PanelKind::Tsqr,
            solver: TridiagSolver::DivideConquer,
            vectors: true,
            trace: false,
            recovery: Default::default(),
            threads,
        };
        let t0 = std::time::Instant::now();
        let r = sym_eig(&a, &opts, &ctx).expect("thread-scaling run");
        (t0.elapsed().as_secs_f64(), r)
    };
    let (t1, r1) = run(1);
    let (t4, r4) = run(4);
    let bit_identical = r1.values == r4.values
        && match (&r1.vectors, &r4.vectors) {
            (Some(x1), Some(x4)) => x1.max_abs_diff(x4) == 0.0,
            _ => false,
        };
    let speedup = t1 / t4.max(1e-12);
    // The speedup is only meaningful when the host actually has cores to
    // fan out to; record the hardware budget so the artifact explains a
    // ~1.0× result on a single-core runner.
    let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"thread_scaling\",");
    let _ = writeln!(out, "  \"n\": {n},");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"dtype\": \"f32\",");
    let _ = writeln!(out, "  \"threads\": [1, 4],");
    let _ = writeln!(out, "  \"engine\": \"Sgemm\",");
    let _ = writeln!(out, "  \"bandwidth\": {b},");
    let _ = writeln!(out, "  \"available_parallelism\": {hw},");
    let _ = writeln!(out, "  \"seconds_threads1\": {t1:.6},");
    let _ = writeln!(out, "  \"seconds_threads4\": {t4:.6},");
    let _ = writeln!(out, "  \"speedup_4_over_1\": {speedup:.3},");
    let _ = writeln!(out, "  \"bit_identical\": {bit_identical}");
    let _ = writeln!(out, "}}");
    out
}

/// DBR crossover sweep backing `reproduce dbr` (ROADMAP item 3): at fixed
/// `n` and bandwidth `b`, wall-clock stage-1 SBR — f32, forced
/// single-threaded, FP32 engine — for the WY baseline at `nb = b` and for
/// both WY and DBR across `nb ∈ {b, 2b, 4b, 8b}`. The follow-up paper's
/// prediction is the `dbr_beats_wy_at_large_nb` gate: once `nb ≫ b` makes
/// the one-per-block trailing syr2k big enough for the wide kernel tier,
/// DBR's wall clock drops below the `nb = b` baseline, whose trailing
/// updates are pinned to skinny rank-`b` GEMMs. Two result-quality gates
/// ride along: DBR's band is bit-identical on a 1-thread vs 4-thread pool,
/// and the full-pipeline eigenvalues agree with WY's within f32 tolerance.
/// Times are min-of-2 to damp scheduler noise. CI writes the output to
/// `BENCH_pr10.json`.
pub fn dbr_bench(n: usize, seed: u64) -> String {
    let b = (n / 32).clamp(8, 128);
    let a64 = generate(n, MatrixType::Normal, seed);
    let a: Mat<f32> = a64.cast();

    rayon::configure(1);
    let wy_run = |nb: usize| {
        let ctx = GemmContext::new(Engine::Sgemm);
        let t0 = std::time::Instant::now();
        let r = sbr_wy(
            &a,
            &WyOptions {
                bandwidth: b,
                block: nb,
                panel: PanelKind::Tsqr,
                accumulate_q: false,
            },
            &ctx,
        )
        .expect("WY SBR on finite input");
        (t0.elapsed().as_secs_f64(), r)
    };
    let dbr_run = |nb: usize| {
        let ctx = GemmContext::new(Engine::Sgemm);
        let t0 = std::time::Instant::now();
        let r = sbr_dbr(
            &a,
            &DbrOptions {
                bandwidth: b,
                block: nb,
                panel: PanelKind::Tsqr,
                accumulate_q: false,
            },
            &ctx,
        )
        .expect("DBR SBR on finite input");
        (t0.elapsed().as_secs_f64(), r)
    };
    let min2 = |t_a: f64, t_b: f64| t_a.min(t_b);

    // the nb = b WY baseline every sweep point competes against
    let t_wy_base = min2(wy_run(b).0, wy_run(b).0);

    let mut entries = Vec::new();
    let mut beats = false;
    let mut bands_ok = true;
    let mut best = (b, f64::INFINITY);
    for nb in [b, 2 * b, 4 * b, 8 * b] {
        let t_wy = min2(wy_run(nb).0, wy_run(nb).0);
        let (t_dbr1, r) = dbr_run(nb);
        let t_dbr = min2(t_dbr1, dbr_run(nb).0);
        bands_ok &= max_outside_band(r.band.as_ref(), b) == 0.0;
        let speedup = t_wy_base / t_dbr.max(1e-12);
        if nb > b {
            beats |= t_dbr < t_wy_base;
        }
        if t_dbr < best.1 {
            best = (nb, t_dbr);
        }
        let mut e = String::new();
        let _ = write!(
            e,
            "    {{\"shape\": \"nb_{nb}\", \"nb\": {nb}, \
             \"seconds_wy\": {t_wy:.6}, \"seconds_dbr\": {t_dbr:.6}, \
             \"speedup_dbr_over_wy_baseline\": {speedup:.3}}}"
        );
        entries.push(e);
    }

    // determinism gate: DBR's band must not move by a bit across pool sizes
    let band1 = dbr_run(4 * b).1.band;
    rayon::configure(4);
    let band4 = dbr_run(4 * b).1.band;
    rayon::configure(1);
    let bit_identical = band1.max_abs_diff(&band4) == 0.0;

    // agreement gate: full-pipeline eigenvalues, DBR vs WY, f32 tolerance
    let evals = |sbr: SbrVariant| {
        let ctx = GemmContext::new(Engine::Sgemm);
        let opts = SymEigOptions {
            bandwidth: b,
            sbr,
            panel: PanelKind::Tsqr,
            solver: TridiagSolver::DivideConquer,
            vectors: false,
            trace: false,
            recovery: Default::default(),
            threads: 1,
        };
        sym_eigenvalues(&a, &opts, &ctx).expect("eigenvalue pipeline")
    };
    let vw = evals(SbrVariant::Wy { block: b });
    let vd = evals(SbrVariant::Dbr { block: 4 * b });
    let scale = vw.iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1e-30);
    let max_rel = vw
        .iter()
        .zip(&vd)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f32, f32::max)
        / scale;
    let agree = max_rel < 1e-3;
    rayon::configure(0);

    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"dbr_crossover\",");
    let _ = writeln!(out, "  \"n\": {n},");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"dtype\": \"f32\",");
    let _ = writeln!(out, "  \"threads\": 1,");
    let _ = writeln!(out, "  \"engine\": \"Sgemm\",");
    let _ = writeln!(out, "  \"bandwidth\": {b},");
    let _ = writeln!(out, "  \"wy_baseline_nb\": {b},");
    let _ = writeln!(out, "  \"wy_baseline_seconds\": {t_wy_base:.6},");
    let _ = writeln!(out, "  \"sweep\": [");
    let _ = writeln!(out, "{}", entries.join(",\n"));
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"best_dbr_nb\": {},", best.0);
    let _ = writeln!(out, "  \"best_dbr_seconds\": {:.6},", best.1);
    let _ = writeln!(out, "  \"bands_within_bandwidth\": {bands_ok},");
    let _ = writeln!(out, "  \"dbr_bit_identical_threads\": {bit_identical},");
    let _ = writeln!(out, "  \"eigenvalue_max_rel_diff\": {max_rel:.3e},");
    let _ = writeln!(out, "  \"eigenvalue_agreement\": {agree},");
    let _ = writeln!(out, "  \"dbr_beats_wy_at_large_nb\": {beats}");
    let _ = writeln!(out, "}}");
    out
}

/// Packed-vs-reference GEMM wall clock on the Table-1 shape families
/// (square `n×n×n`, rank-k `n×n×128`, tall-skinny `n×128 · 128×n` panels),
/// f32, forced single-threaded so the kernel — not the column-chunk
/// fan-out — is what is measured. Each shape also cross-checks the two
/// kernels' outputs. This backs `reproduce gemm`; CI writes the output to
/// `BENCH_pr5.json`.
pub fn gemm_bench(n: usize, seed: u64) -> String {
    use tcevd_matrix::blas3;

    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut fill = move |rows: usize, cols: usize| -> Mat<f32> {
        let data = (0..rows * cols)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5
            })
            .collect();
        Mat::from_col_major(rows, cols, data)
    };

    // The k = 128 inner dimension is the paper's bandwidth (Table 1's
    // rank-k update column); the tall-skinny panel is the TSQR/FormW shape.
    let k_panel = 128.min(n);
    let shapes: [(&str, usize, usize, usize); 3] = [
        ("square", n, n, n),
        ("rank_k_update", n, k_panel, n),
        ("tall_skinny", n, n, k_panel),
    ];

    use tcevd_matrix::tile::{with_tile_override, KernelTier, TileOverride};

    let force = |tier: KernelTier| TileOverride {
        tier: Some(tier),
        shape: None,
    };

    rayon::configure(1);
    let mut entries = Vec::new();
    let mut square_packed_faster = false;
    let mut wide_beats_or_ties = true;
    let mut tiers_bit_exact = true;
    for (name, m, k, nn) in shapes {
        let a = fill(m, k);
        let b = fill(k, nn);
        // default dispatch: the tuned (normally wide) tier — this is what
        // production callers get, so it keeps the `seconds_packed` name
        let mut c_packed = Mat::<f32>::zeros(m, nn);
        let t0 = std::time::Instant::now();
        gemm(
            1.0,
            a.as_ref(),
            Op::NoTrans,
            b.as_ref(),
            Op::NoTrans,
            0.0,
            c_packed.as_mut(),
        );
        let t_packed = t0.elapsed().as_secs_f64();

        // the PR-5 scalar oracle, forced through the same packed framework
        let mut c_scalar = Mat::<f32>::zeros(m, nn);
        let t0 = std::time::Instant::now();
        with_tile_override(force(KernelTier::Scalar), || {
            gemm(
                1.0,
                a.as_ref(),
                Op::NoTrans,
                b.as_ref(),
                Op::NoTrans,
                0.0,
                c_scalar.as_mut(),
            )
        });
        let t_scalar = t0.elapsed().as_secs_f64();

        let mut c_ref = Mat::<f32>::zeros(m, nn);
        let t0 = std::time::Instant::now();
        blas3::reference::gemm(
            1.0,
            a.as_ref(),
            Op::NoTrans,
            b.as_ref(),
            Op::NoTrans,
            0.0,
            c_ref.as_mut(),
        );
        let t_reference = t0.elapsed().as_secs_f64();

        let diff = c_packed.max_abs_diff(&c_ref);
        // cross-tier contract: identical BITS, not just small difference
        let tier_diff = c_packed.max_abs_diff(&c_scalar);
        let bit_exact = tier_diff == 0.0;
        tiers_bit_exact &= bit_exact;
        let speedup = t_reference / t_packed.max(1e-12);
        let wide_over_scalar = t_scalar / t_packed.max(1e-12);
        if name == "square" {
            square_packed_faster = t_packed < t_reference;
        }
        // 5% grace: on vector hardware wide wins clearly; on scalar-only
        // CI machines the tiers time within noise of each other
        wide_beats_or_ties &= t_packed <= t_scalar * 1.05;
        let mut e = String::new();
        let _ = write!(
            e,
            "    {{\"shape\": \"{name}\", \"m\": {m}, \"k\": {k}, \"n\": {nn}, \
             \"seconds_packed\": {t_packed:.6}, \"seconds_scalar_tier\": {t_scalar:.6}, \
             \"seconds_reference\": {t_reference:.6}, \
             \"speedup_packed\": {speedup:.3}, \"wide_over_scalar\": {wide_over_scalar:.3}, \
             \"tier_bit_exact\": {bit_exact}, \"max_abs_diff\": {diff:.3e}}}"
        );
        entries.push(e);
    }
    rayon::configure(0);

    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"gemm_packed_vs_reference\",");
    let _ = writeln!(out, "  \"n\": {n},");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"dtype\": \"f32\",");
    let _ = writeln!(out, "  \"threads\": 1,");
    let _ = writeln!(out, "  \"shapes\": [");
    let _ = writeln!(out, "{}", entries.join(",\n"));
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"packed_faster\": {square_packed_faster},");
    let _ = writeln!(
        out,
        "  \"wide_beats_or_ties_scalar\": {wide_beats_or_ties},"
    );
    let _ = writeln!(out, "  \"tier_bit_exact\": {tiers_bit_exact}");
    let _ = writeln!(out, "}}");
    out
}

/// BLIS-style tile autotuner backing `reproduce tune`: for each scalar
/// type and GEMM shape class it times the scalar-tier default and every
/// wide-tier candidate in [`tcevd_matrix::tile::WIDE_CANDIDATES`]
/// (min-of-`reps`, single-threaded) and emits the winning `(tier, mr, nr,
/// mc)` per class in the tuning-table text format that
/// `crates/matrix/tuning/default.tune` is committed in. Dispatch then
/// reads the committed table deterministically at first use — the tuner
/// never runs in production paths.
pub fn tune_bench(n: usize, seed: u64, reps: usize) -> String {
    use tcevd_matrix::scalar::Scalar;
    use tcevd_matrix::tile::{
        with_tile_override, GemmClass, KernelTier, TileOverride, WIDE_CANDIDATES,
    };

    fn fill_t<T: Scalar>(rows: usize, cols: usize, state: &mut u64) -> Mat<T> {
        let data = (0..rows * cols)
            .map(|_| {
                *state ^= *state << 13;
                *state ^= *state >> 7;
                *state ^= *state << 17;
                T::from_f64((*state >> 40) as f64 / (1u64 << 24) as f64 - 0.5)
            })
            .collect();
        Mat::from_col_major(rows, cols, data)
    }

    fn time_gemm<T: Scalar>(a: &Mat<T>, b: &Mat<T>, c: &mut Mat<T>, reps: usize) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..reps.max(1) {
            let t0 = std::time::Instant::now();
            gemm(
                T::ONE,
                a.as_ref(),
                Op::NoTrans,
                b.as_ref(),
                Op::NoTrans,
                T::ZERO,
                c.as_mut(),
            );
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    }

    fn tune_type<T: Scalar>(n: usize, seed: u64, reps: usize, out: &mut String) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let k_panel = 128.min(n);
        let classes: [(GemmClass, usize, usize, usize); 3] = [
            (GemmClass::Square, n, n, n),
            (GemmClass::Outer, n, n, k_panel),
            (GemmClass::Tall, n, k_panel, n),
        ];
        for (class, m, nn, k) in classes {
            let a = fill_t::<T>(m, k, &mut state);
            let b = fill_t::<T>(k, nn, &mut state);
            let mut c = Mat::<T>::zeros(m, nn);
            // scalar-tier baseline at the type's built-in shapes
            let t_scalar = with_tile_override(
                TileOverride {
                    tier: Some(KernelTier::Scalar),
                    shape: None,
                },
                || time_gemm(&a, &b, &mut c, reps),
            );
            let mut best = (KernelTier::Scalar, T::GEMM_MR, T::GEMM_NR, T::GEMM_MC);
            let mut best_t = t_scalar;
            for &(mr, nr, mc) in WIDE_CANDIDATES {
                let t = with_tile_override(
                    TileOverride {
                        tier: Some(KernelTier::Wide),
                        shape: Some((mr, nr, mc)),
                    },
                    || time_gemm(&a, &b, &mut c, reps),
                );
                if t < best_t {
                    best_t = t;
                    best = (KernelTier::Wide, mr, nr, mc);
                }
            }
            let (tier, mr, nr, mc) = best;
            let tier_s = match tier {
                KernelTier::Scalar => "scalar",
                KernelTier::Wide => "wide",
            };
            let gf = 2.0 * m as f64 * nn as f64 * k as f64 / best_t.max(1e-12) / 1e9;
            let _ = writeln!(
                out,
                "{} {:<6} {} {} {} {}   # {:.1} GF/s, scalar tier {:.1} GF/s",
                T::NAME,
                class.name(),
                tier_s,
                mr,
                nr,
                mc,
                gf,
                2.0 * m as f64 * nn as f64 * k as f64 / t_scalar.max(1e-12) / 1e9,
            );
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# tcevd GEMM tuning table — emitted by `reproduce tune --n {n} --seed {seed}`,"
    );
    let _ = writeln!(
        out,
        "# consumed by crates/matrix/src/tile.rs at first dispatch."
    );
    let _ = writeln!(out, "#");
    let _ = writeln!(
        out,
        "# Format: scalar class tier mr nr mc      (whitespace separated)"
    );
    let _ = writeln!(out, "#   scalar ∈ {{f32, f64}}");
    let _ = writeln!(
        out,
        "#   class  ∈ {{square, outer, tall}}   (see tile::classify)"
    );
    let _ = writeln!(out, "#   tier   ∈ {{scalar, wide}}");
    let _ = writeln!(
        out,
        "#   (mr, nr) must name an instantiated kernel (tile::kernel_for)"
    );
    let _ = writeln!(out, "#   mc % mr == 0 and NC (32) % nr == 0");
    let _ = writeln!(out, "#");
    let _ = writeln!(
        out,
        "# KC is deliberately NOT tunable: it is pinned per scalar type"
    );
    let _ = writeln!(
        out,
        "# (Scalar::GEMM_KC) so every tier produces bit-identical results."
    );
    rayon::configure(1);
    tune_type::<f32>(n, seed, reps, &mut out);
    tune_type::<f64>(n, seed, reps, &mut out);
    rayon::configure(0);
    out
}

/// §3.1 motivation check: "the unblocked computations take over 90% of the
/// execution time of the tridiagonalization (ssytrd routine)". One-stage
/// Householder tridiagonalization spends half its 4n³/3 flops in `symv`
/// (BLAS-2, memory-bound) and half in rank-2 updates (BLAS-3); the model
/// prices each side accordingly.
pub fn motivation() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "§3.1 motivation — one-stage ssytrd time split (model): BLAS-2 share"
    );
    let _ = writeln!(
        out,
        "{:>6} | {:>10} | {:>10} | {:>8}",
        "n", "BLAS2 (s)", "BLAS3 (s)", "share"
    );
    // memory-bound symv: 2 flops per 4-byte element read → HBM-limited
    let hbm = 1.555e12; // A100 bytes/s
    let blas2_rate = hbm / 4.0 * 2.0; // ~0.78 Tflop/s upper bound
    let blas3_rate = 10.3e12; // SGEMM (Table 1)
    for &n in &SIZES {
        let half_flops = 2.0 * (n as f64).powi(3) / 3.0;
        let t2 = half_flops / blas2_rate;
        let t3 = half_flops / blas3_rate;
        let _ = writeln!(
            out,
            "{:>6} | {:>10.3} | {:>10.3} | {:>7.1}%",
            n,
            t2,
            t3,
            100.0 * t2 / (t2 + t3)
        );
    }
    let _ = writeln!(
        out,
        "(the >90% BLAS-2 share is why two-stage tridiagonalization exists)"
    );
    out
}

/// Device-memory footprints (paper §7, limitation #3: "requires more
/// device memory to store the original matrix and the WY representation").
pub fn memory_table() -> String {
    use tcevd_perfmodel::{overhead_ratio, wy_memory, zy_memory};
    let gb = |b: u64| b as f64 / (1u64 << 30) as f64;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Memory footprint (GB, f32) — paper limitation #3, b = {BANDWIDTH}, nb = {BLOCK}"
    );
    let _ = writeln!(
        out,
        "{:>6} | {:>8} | {:>8} | {:>10} | {:>8}",
        "n", "ZY", "WY", "WY detail", "ratio"
    );
    for &n in &SIZES {
        let z = zy_memory(n, BANDWIDTH);
        let w = wy_memory(n, BANDWIDTH, BLOCK);
        let _ = writeln!(
            out,
            "{:>6} | {:>8.2} | {:>8.2} | A:{:.1}+OA:{:.1} | {:>7.2}x",
            n,
            gb(z.total()),
            gb(w.total()),
            gb(w.matrix),
            gb(w.original_copy),
            overhead_ratio(n, BANDWIDTH, BLOCK)
        );
    }
    let _ = writeln!(
        out,
        "(WY fits the paper's A100-40GB up to n ≈ 72k; ZY would reach ~100k)"
    );
    out
}

/// Small real-execution demonstration that the WY back-transformation
/// (§4.4) reproduces Q and feeds stage 2 — exercises the whole chain
/// numerically rather than through the model.
pub fn formw_numeric_check(n: usize) -> String {
    let mut out = String::new();
    let b = (n / 16).clamp(4, 16);
    let a64 = generate(n, MatrixType::Normal, 7);
    let a: Mat<f32> = a64.cast();
    let ctx = GemmContext::new(Engine::Sgemm);
    let r = sbr_wy(
        &a,
        &WyOptions {
            bandwidth: b,
            block: 4 * b,
            panel: PanelKind::Tsqr,
            accumulate_q: true,
        },
        &ctx,
    )
    .expect("SBR on finite input");
    let (w, y) = form_wy(&r.levels, n, &ctx);
    let mut q_formw = Mat::<f32>::identity(n, n);
    gemm(
        -1.0,
        w.as_ref(),
        Op::NoTrans,
        y.as_ref(),
        Op::Trans,
        1.0,
        q_formw.as_mut(),
    );
    let diff = q_formw.max_abs_diff(r.q.as_ref().unwrap());
    let _ = writeln!(
        out,
        "FormW numeric check (n = {n}): max |Q_formw − Q_acc| = {diff:.2e}"
    );
    // feed the band through stage 2 so the whole chain is exercised
    let chase = bulge_chase(r.band, b, false);
    let _ = writeln!(
        out,
        "  band → tridiagonal: {} diagonal entries",
        chase.diag.len()
    );
    out
}

/// The trace counters a fault-injected run reports (injection events plus
/// every recovery-ladder rung, in escalation order).
pub const FAULT_COUNTERS: [&str; 7] = [
    "fault.gemm_injected",
    "recovery.lu_pivot_escalation",
    "recovery.panel_householder_fallback",
    "recovery.dc_to_ql",
    "recovery.ql_budget_retry",
    "recovery.ql_to_bisect",
    "recovery.residual_resolve",
];

/// Result of a fault-injected pipeline run (`reproduce --faults=plan.json`).
pub struct FaultRun {
    /// Which faults were armed, which counters fired, and the outcome.
    pub report: String,
    /// `Ok(worst residual/orthogonality measure)` when the pipeline
    /// survived the faults, the typed error otherwise.
    pub outcome: Result<f64, tcevd_core::EvdError>,
}

/// Run the real two-stage EVD (with eigenvectors and the post-solve
/// verification rung enabled) under a declarative
/// [`FaultPlan`](tcevd_testmat::FaultPlan), and report which recovery
/// rungs fired. This backs `reproduce --faults=plan.json`.
pub fn fault_run(n: usize, seed: u64, plan: &tcevd_testmat::FaultPlan) -> FaultRun {
    let b = (n / 16).clamp(4, 32);
    let nb = 4 * b;
    let a64 = generate(n, MatrixType::Normal, seed);
    let a: Mat<f32> = a64.cast();

    let sink = tcevd_trace::TraceSink::enabled();
    let ctx = GemmContext::new(Engine::Tc).with_sink(sink.clone());
    let opts = SymEigOptions {
        bandwidth: b,
        sbr: SbrVariant::Wy { block: nb },
        panel: PanelKind::Tsqr,
        solver: TridiagSolver::DivideConquer,
        vectors: true,
        trace: true,
        recovery: tcevd_core::RecoveryPolicy {
            verify_tol: Some(1e-2),
            ..Default::default()
        },
        threads: 0,
    };
    tcevd_core::fault::apply_plan(plan, &ctx);
    let r = sym_eig(&a, &opts, &ctx);
    tcevd_core::fault::reset();
    ctx.clear_faults();

    let mut report = String::new();
    let _ = writeln!(
        report,
        "Fault-injected sym_eig run: n = {n}, b = {b}, nb = {nb}, {} fault(s) armed",
        plan.faults.len()
    );
    for c in FAULT_COUNTERS {
        let _ = writeln!(report, "  {:<38} {}", c, sink.counter(c));
    }
    let outcome = match &r {
        Ok(res) => {
            let x = res.vectors.as_ref().expect("vectors requested");
            let resid = orthogonality(x.as_ref()).max(tcevd_core::eigenpair_residual(
                a.as_ref(),
                &res.values,
                x.as_ref(),
            )) as f64;
            let _ = writeln!(
                report,
                "outcome: recovered — worst residual/orthogonality = {resid:.2e}"
            );
            Ok(resid)
        }
        Err(e) => {
            let _ = writeln!(report, "outcome: failed with typed error: {e}");
            Err(e.clone())
        }
    };
    FaultRun { report, outcome }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perf_tables_render() {
        for s in [
            table1(),
            table2(),
            fig5(),
            fig8(),
            fig9(),
            fig10(),
            fig11(),
            formw_claim(),
            futurework(),
            memory_table(),
        ] {
            assert!(s.lines().count() >= 4, "table too short:\n{s}");
        }
        assert!(fig6_fig7(Engine::Tc).contains("Figure 6"));
        assert!(fig6_fig7(Engine::Sgemm).contains("Figure 7"));
    }

    #[test]
    fn accuracy_tables_small() {
        let t3 = table3(64, 1);
        assert!(t3.matches("e-").count() >= 10, "{t3}");
        let t4 = table4(64, 1);
        assert!(t4.contains("Normal"));
        assert!(t4.contains("SVD_Geo 1e5"));
    }

    #[test]
    fn gemm_bench_reports_all_shapes() {
        let s = gemm_bench(96, 3);
        for key in [
            "\"bench\": \"gemm_packed_vs_reference\"",
            "\"square\"",
            "\"rank_k_update\"",
            "\"tall_skinny\"",
            "\"packed_faster\"",
        ] {
            assert!(s.contains(key), "missing {key} in:\n{s}");
        }
        // the two kernels must agree on every shape (reassociation only)
        for line in s.lines().filter(|l| l.contains("max_abs_diff")) {
            let v = line
                .split("\"max_abs_diff\": ")
                .nth(1)
                .and_then(|t| t.trim_end_matches(['}', ',', ' ']).parse::<f64>().ok())
                .expect("parsable diff");
            assert!(v < 1e-3, "kernels disagree: {line}");
        }
    }

    #[test]
    fn dbr_bench_gates_and_schema() {
        let s = dbr_bench(160, 5);
        validate_bench_json(&s).expect("BENCH_pr10 schema");
        for key in [
            "\"bench\": \"dbr_crossover\"",
            "\"wy_baseline_seconds\"",
            "\"nb_",
            "\"dbr_beats_wy_at_large_nb\"",
        ] {
            assert!(s.contains(key), "missing {key} in:\n{s}");
        }
        // the result-quality gates must hold at any size; the wall-clock
        // crossover gate is only claimed at bench scale (n ≥ 1024)
        assert!(s.contains("\"bands_within_bandwidth\": true"), "{s}");
        assert!(s.contains("\"dbr_bit_identical_threads\": true"), "{s}");
        assert!(s.contains("\"eigenvalue_agreement\": true"), "{s}");
    }

    #[test]
    fn formw_numeric() {
        let s = formw_numeric_check(64);
        assert!(s.contains("FormW"));
    }

    #[test]
    fn fault_run_reports_ladder() {
        let plan =
            tcevd_testmat::FaultPlan::parse_json(r#"[{"kind": "dc_fail"}]"#).expect("valid plan");
        let fr = fault_run(64, 9, &plan);
        let line = fr
            .report
            .lines()
            .find(|l| l.trim_start().starts_with("recovery.dc_to_ql"))
            .expect("dc_to_ql counter listed");
        assert!(line.trim_end().ends_with(" 1"), "{}", fr.report);
        let resid = fr.outcome.expect("dc fault is recoverable");
        assert!(resid < 1e-2, "residual {resid}");
    }

    #[test]
    fn fault_run_surfaces_unrecoverable() {
        let plan =
            tcevd_testmat::FaultPlan::parse_json(r#"[{"kind": "gemm", "mode": "nan", "nth": 1}]"#)
                .expect("valid plan");
        let fr = fault_run(64, 9, &plan);
        assert!(fr.outcome.is_err(), "{}", fr.report);
        assert!(fr.report.contains("typed error"), "{}", fr.report);
    }
}
