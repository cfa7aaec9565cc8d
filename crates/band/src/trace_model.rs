//! Dry-run shape traces: the exact GEMM/panel sequence each SBR variant
//! issues, generated *without executing* the numerics.
//!
//! The paper's evaluation runs at n up to 32768 — far beyond what a software
//! fp16 GEMM can execute, but the *shape profile* of the algorithms is a
//! pure function of (n, b, nb). These generators mirror the loop structure
//! of [`sbr_zy()`](crate::sbr_zy::sbr_zy) and [`sbr_wy()`](crate::sbr_wy::sbr_wy) one GEMM call for one GEMM
//! call (tests assert exact equality against the instrumented real runs at
//! small n), so replaying them through the calibrated throughput model
//! reproduces the paper's timing figures at full scale.

use tcevd_tensorcore::{Engine, GemmRecord};

/// A panel factorization's shape (handled by a separate cost model — panels
/// are not GEMMs).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PanelOp {
    pub rows: usize,
    pub cols: usize,
}

/// Shape trace of one SBR run: every GEMM and every panel factorization.
#[derive(Clone, Debug, Default)]
pub struct SbrTrace {
    pub gemms: Vec<GemmRecord>,
    pub panels: Vec<PanelOp>,
}

impl SbrTrace {
    /// Total GEMM flops (2mnk convention).
    pub fn gemm_flops(&self) -> u64 {
        self.gemms.iter().map(|r| r.flops()).sum()
    }

    /// Total panel flops (TSQR ≈ 4mn² leading term).
    pub fn panel_flops(&self) -> u64 {
        self.panels
            .iter()
            .map(|p| tcevd_factor::tsqr_flops(p.rows, p.cols))
            .sum()
    }
}

fn rec(label: &'static str, m: usize, n: usize, k: usize) -> GemmRecord {
    GemmRecord { label, m, n, k }
}

/// GEMM/panel trace of the ZY-based SBR (mirrors [`crate::sbr_zy::sbr_zy`]
/// without Q accumulation) on the default Tensor-Core engine.
pub fn zy_trace(n: usize, b: usize) -> SbrTrace {
    zy_trace_on(n, b, Engine::Tc)
}

/// Engine-faithful ZY trace: the rank-2k trailing update takes the form
/// that `engine` actually executes —
/// [`Engine::Sgemm`] issues one native `syr2k` record of shape
/// `(mp, mp, kf)` (half the flops), the Tensor-Core engines two full
/// outer-product GEMMs (no native syr2k; the paper's §4.1 observation).
/// Matches the instrumented real runs of
/// [`GemmContext::syr2k_update`](tcevd_tensorcore::GemmContext::syr2k_update)
/// record for record.
pub fn zy_trace_on(n: usize, b: usize, engine: Engine) -> SbrTrace {
    let native_syr2k = matches!(engine, Engine::Sgemm);
    let mut t = SbrTrace::default();
    let mut i = 0;
    while i + b < n {
        let mp = n - i - b;
        let kf = mp.min(b);
        t.panels.push(PanelOp { rows: mp, cols: b });
        t.gemms.push(rec("zy_aw", mp, kf, mp));
        t.gemms.push(rec("zy_waw", kf, kf, mp));
        t.gemms.push(rec("zy_z", mp, kf, kf));
        t.gemms.push(rec("zy_syr2k", mp, mp, kf));
        if !native_syr2k {
            t.gemms.push(rec("zy_syr2k", mp, mp, kf));
        }
        i += b;
    }
    t
}

/// GEMM/panel trace of the WY-based SBR (mirrors [`crate::sbr_wy::sbr_wy`]
/// without Q accumulation). The WY algorithm issues no rank-2k updates,
/// so the shape sequence is the same on every engine.
pub fn wy_trace(n: usize, b: usize, block: usize) -> SbrTrace {
    let nb = (block / b).max(1) * b;
    let mut t = SbrTrace::default();
    let mut off = 0;
    while off + b < n {
        let m = n - off;
        let mp = m - b;
        let mut k = 0usize;
        let mut i = 0;
        while i < nb && i + b < m {
            let prows = m - i - b;
            let kf = prows.min(b);
            t.panels.push(PanelOp {
                rows: prows,
                cols: b,
            });
            if k > 0 {
                t.gemms.push(rec("wy_acc_ytw", k, kf, mp));
                t.gemms.push(rec("wy_acc_w", mp, kf, k));
            }
            t.gemms.push(rec("wy_aw_append", mp, kf, mp));
            k += kf;
            let cw = b.min(mp - i);
            t.gemms.push(rec("wy_inner_x", mp, cw, k));
            t.gemms.push(rec("wy_inner_wx", k, cw, mp));
            t.gemms.push(rec("wy_inner_ga", mp, cw, k));
            i += b;
        }
        let processed = i;
        if processed + b >= m {
            break;
        }
        let mt = mp - processed;
        t.gemms.push(rec("wy_final_waw", k, k, mp));
        t.gemms.push(rec("wy_final_u1", mt, mt, k));
        t.gemms.push(rec("wy_final_u2", mt, mt, k));
        t.gemms.push(rec("wy_final_yt2", mt, k, k));
        t.gemms.push(rec("wy_final_u3", mt, mt, k));
        off += processed;
    }
    t
}

/// GEMM/panel trace of the detached band reduction (mirrors
/// [`crate::sbr_dbr::sbr_dbr`] without Q accumulation) on the default
/// Tensor-Core engine.
pub fn dbr_trace(n: usize, b: usize, block: usize) -> SbrTrace {
    dbr_trace_on(n, b, block, Engine::Tc)
}

/// Engine-faithful DBR trace: the panel + inner recursion is the WY shape
/// sequence (with `dbr_*` labels), while the trailing update is two small
/// GEMMs plus one rank-`nb` syr2k — recorded the way the engine executes
/// it, one native record on [`Engine::Sgemm`], two full outer products on
/// the Tensor-Core engines (mirroring
/// [`GemmContext::syr2k_update`](tcevd_tensorcore::GemmContext::syr2k_update)
/// record for record).
pub fn dbr_trace_on(n: usize, b: usize, block: usize, engine: Engine) -> SbrTrace {
    let native_syr2k = matches!(engine, Engine::Sgemm);
    let nb = (block / b).max(1) * b;
    let mut t = SbrTrace::default();
    let mut off = 0;
    while off + b < n {
        let m = n - off;
        let mp = m - b;
        let mut k = 0usize;
        let mut i = 0;
        while i < nb && i + b < m {
            let prows = m - i - b;
            let kf = prows.min(b);
            t.panels.push(PanelOp {
                rows: prows,
                cols: b,
            });
            if k > 0 {
                t.gemms.push(rec("dbr_acc_ytw", k, kf, mp));
                t.gemms.push(rec("dbr_acc_w", mp, kf, k));
            }
            t.gemms.push(rec("dbr_aw_append", mp, kf, mp));
            k += kf;
            let cw = b.min(mp - i);
            t.gemms.push(rec("dbr_inner_x", mp, cw, k));
            t.gemms.push(rec("dbr_inner_wx", k, cw, mp));
            t.gemms.push(rec("dbr_inner_ga", mp, cw, k));
            i += b;
        }
        let processed = i;
        if processed + b >= m {
            break;
        }
        let mt = mp - processed;
        t.gemms.push(rec("dbr_final_waw", k, k, mp));
        t.gemms.push(rec("dbr_final_v", mt, k, k));
        t.gemms.push(rec("dbr_syr2k", mt, mt, k));
        if !native_syr2k {
            t.gemms.push(rec("dbr_syr2k", mt, mt, k));
        }
        off += processed;
    }
    t
}

/// Trace of the recursive FormW merge tree (paper Algorithm 2) over the
/// level widths a WY run with these parameters produces, plus the final
/// back-transformation GEMMs onto an n×nev eigenvector block. FormW
/// issues no rank-2k updates, so the shape sequence is the same on every
/// engine.
pub fn formw_trace(n: usize, b: usize, block: usize, nev: usize) -> Vec<GemmRecord> {
    let nb = (block / b).max(1) * b;
    // level widths: mirror wy_trace's per-level aggregated k
    let mut widths = Vec::new();
    let mut off = 0;
    while off + b < n {
        let m = n - off;
        let mut k = 0;
        let mut i = 0;
        while i < nb && i + b < m {
            k += (m - i - b).min(b);
            i += b;
        }
        if k > 0 {
            widths.push(k);
        }
        if i + b >= m {
            break;
        }
        off += i;
    }
    let mut out = Vec::new();
    merge_rec(&widths, n, &mut out);
    let ktot: usize = widths.iter().sum();
    if nev > 0 {
        out.push(rec("backtransform_ytv", ktot, nev, n));
        out.push(rec("backtransform_wv", n, nev, ktot));
    }
    out
}

fn merge_rec(widths: &[usize], n: usize, out: &mut Vec<GemmRecord>) -> usize {
    if widths.len() <= 1 {
        return widths.iter().sum();
    }
    let half = widths.len() / 2;
    let ka = merge_rec(&widths[..half], n, out);
    let kb = merge_rec(&widths[half..], n, out);
    out.push(rec("formw_ytw", ka, kb, n));
    out.push(rec("formw_w", n, kb, ka));
    ka + kb
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::common::SbrOptions;
    use crate::panel::PanelKind;
    use crate::sbr_wy::{sbr_wy, WyOptions};
    use crate::sbr_zy::sbr_zy;
    use tcevd_matrix::Mat;
    use tcevd_tensorcore::GemmContext;
    use tcevd_testmat::{generate, MatrixType};
    use tcevd_trace::TraceSink;

    #[test]
    fn model_labels_are_all_registered() {
        // The dry-run models must emit labels from the closed registry in
        // `tcevd-tensorcore::labels`, or fault plans / sanitizer reports /
        // per-label flop counters keyed on real traces can never match them.
        let mut recs = Vec::new();
        recs.extend(zy_trace(64, 8).gemms);
        recs.extend(wy_trace(64, 8, 16).gemms);
        recs.extend(dbr_trace(64, 8, 16).gemms);
        recs.extend(formw_trace(64, 8, 16, 64));
        assert!(!recs.is_empty());
        for r in &recs {
            assert!(
                tcevd_tensorcore::is_registered(r.label),
                "trace-model label {:?} missing from GEMM_LABELS",
                r.label
            );
        }
    }

    #[test]
    fn zy_model_matches_real_trace() {
        for (n, b) in [(96, 8), (70, 8), (64, 16), (30, 4)] {
            let a: Mat<f32> = generate(n, MatrixType::Normal, 31).cast();
            let sink = TraceSink::enabled();
            let ctx = GemmContext::new(Engine::Tc).with_sink(sink.clone());
            let _ = sbr_zy(
                &a,
                &SbrOptions {
                    bandwidth: b,
                    panel: PanelKind::Tsqr,
                    accumulate_q: false,
                },
                &ctx,
            )
            .expect("sbr reduction");
            let real = sink.gemms();
            let model = zy_trace(n, b);
            assert_eq!(real, model.gemms, "n={n} b={b}");
        }
    }

    #[test]
    fn wy_model_matches_real_trace() {
        for (n, b, nb) in [
            (96, 8, 16),
            (96, 8, 32),
            (67, 8, 16),
            (128, 16, 64),
            (50, 4, 12),
        ] {
            let a: Mat<f32> = generate(n, MatrixType::Normal, 32).cast();
            let sink = TraceSink::enabled();
            let ctx = GemmContext::new(Engine::Tc).with_sink(sink.clone());
            let _ = sbr_wy(
                &a,
                &WyOptions {
                    bandwidth: b,
                    block: nb,
                    panel: PanelKind::Tsqr,
                    accumulate_q: false,
                },
                &ctx,
            )
            .expect("sbr reduction");
            let real = sink.gemms();
            let model = wy_trace(n, b, nb);
            assert_eq!(real, model.gemms, "n={n} b={b} nb={nb}");
        }
    }

    #[test]
    fn dbr_model_matches_real_trace() {
        use crate::sbr_dbr::{sbr_dbr, DbrOptions};
        for (n, b, nb) in [
            (96, 8, 16),
            (96, 8, 32),
            (67, 8, 16),
            (128, 16, 64),
            (50, 4, 12),
        ] {
            let a: Mat<f32> = generate(n, MatrixType::Normal, 36).cast();
            let sink = TraceSink::enabled();
            let ctx = GemmContext::new(Engine::Tc).with_sink(sink.clone());
            let _ = sbr_dbr(
                &a,
                &DbrOptions {
                    bandwidth: b,
                    block: nb,
                    panel: PanelKind::Tsqr,
                    accumulate_q: false,
                },
                &ctx,
            )
            .expect("sbr reduction");
            let real = sink.gemms();
            let model = dbr_trace(n, b, nb);
            assert_eq!(real, model.gemms, "n={n} b={b} nb={nb}");
        }
    }

    #[test]
    fn dbr_model_engine_matches_real_trace_exactly() {
        // Per-engine shapes: on Sgemm the trailing syr2k is one native
        // record, on the TC engines two full GEMMs.
        use crate::sbr_dbr::{sbr_dbr, DbrOptions};
        for engine in [Engine::Sgemm, Engine::Tc, Engine::EcTc] {
            let (n, b, nb) = (96, 8, 32);
            let a: Mat<f32> = generate(n, MatrixType::Normal, 37).cast();
            let sink = TraceSink::enabled();
            let ctx = GemmContext::new(engine).with_sink(sink.clone());
            let _ = sbr_dbr(
                &a,
                &DbrOptions {
                    bandwidth: b,
                    block: nb,
                    panel: PanelKind::Tsqr,
                    accumulate_q: false,
                },
                &ctx,
            )
            .expect("sbr reduction");
            let real = sink.gemms();
            let model = dbr_trace_on(n, b, nb, engine);
            assert_eq!(real, model.gemms, "engine {engine:?}");
        }
    }

    #[test]
    fn dbr_flops_below_wy_at_every_block_size() {
        // The folded trailing update does strictly less arithmetic than
        // WY's four-GEMM expansion at every (n, b, nb) — while keeping the
        // same panel and inner-update work.
        let n = 32768;
        let b = 128;
        for nb in [256usize, 512, 1024, 2048, 4096] {
            let dbr = dbr_trace(n, b, nb).gemm_flops();
            let wy = wy_trace(n, b, nb).gemm_flops();
            assert!(dbr < wy, "nb={nb}: DBR {dbr} must be below WY {wy}");
        }
        // and a native-syr2k engine halves the trailing term again
        let tc = dbr_trace_on(n, b, 1024, Engine::Tc).gemm_flops();
        let sg = dbr_trace_on(n, b, 1024, Engine::Sgemm).gemm_flops();
        assert!(sg < tc);
    }

    #[test]
    fn formw_model_matches_real_trace() {
        let (n, b, nb) = (96, 8, 16);
        let a: Mat<f32> = generate(n, MatrixType::Normal, 33).cast();
        let ctx = GemmContext::new(Engine::Tc);
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
        .expect("sbr reduction");
        let sink = TraceSink::enabled();
        let ctx = GemmContext::new(Engine::Tc).with_sink(sink.clone());
        let _ = crate::formw::form_wy(&r.levels, n, &ctx);
        let mut real = sink.gemms();
        let mut model = formw_trace(n, b, nb, 0);
        // rayon::join may interleave subtree traces; compare as multisets
        real.sort_unstable();
        model.sort_unstable();
        assert_eq!(real, model);
    }

    #[test]
    fn zy_model_engine_matches_real_trace_exactly() {
        // Per-engine shapes: on Sgemm the model must emit the single native
        // syr2k record the real path emits.
        for engine in [Engine::Sgemm, Engine::Tc, Engine::EcTc] {
            let (n, b) = (64, 8);
            let a: Mat<f32> = generate(n, MatrixType::Normal, 34).cast();
            let sink = TraceSink::enabled();
            let ctx = GemmContext::new(engine).with_sink(sink.clone());
            let _ = sbr_zy(
                &a,
                &SbrOptions {
                    bandwidth: b,
                    panel: PanelKind::Tsqr,
                    accumulate_q: false,
                },
                &ctx,
            )
            .expect("sbr reduction");
            let real = sink.gemms();
            let model = zy_trace_on(n, b, engine);
            assert_eq!(real, model.gemms, "engine {engine:?}");
        }
    }

    #[test]
    fn sgemm_zy_model_halves_syr2k_flops() {
        let (n, b) = (512, 32);
        let tc = zy_trace_on(n, b, Engine::Tc);
        let sg = zy_trace_on(n, b, Engine::Sgemm);
        assert!(sg.gemms.len() < tc.gemms.len());
        let syr2k_flops = |t: &SbrTrace| -> u64 {
            t.gemms
                .iter()
                .filter(|r| r.label == "zy_syr2k")
                .map(|r| r.flops())
                .sum()
        };
        assert_eq!(2 * syr2k_flops(&sg), syr2k_flops(&tc));
    }

    #[test]
    fn wy_model_engine_matches_real_trace_exactly() {
        let (n, b, nb) = (64, 8, 16);
        let a: Mat<f32> = generate(n, MatrixType::Normal, 35).cast();
        let sink = TraceSink::enabled();
        let ctx = GemmContext::new(Engine::Sgemm).with_sink(sink.clone());
        let _ = sbr_wy(
            &a,
            &WyOptions {
                bandwidth: b,
                block: nb,
                panel: PanelKind::Tsqr,
                accumulate_q: false,
            },
            &ctx,
        )
        .expect("sbr reduction");
        let real = sink.gemms();
        let model = wy_trace(n, b, nb);
        assert_eq!(real, model.gemms);
    }

    #[test]
    fn wy_flops_grow_with_block_size() {
        // Table 2's monotone growth
        let n = 32768;
        let b = 128;
        let mut last = 0u64;
        for nb in [128usize, 256, 512, 1024, 2048, 4096] {
            let f = wy_trace(n, b, nb).gemm_flops();
            assert!(f > last, "flops must grow with nb (nb={nb}: {f} <= {last})");
            last = f;
        }
        // and ZY does fewer
        let zy = zy_trace(n, b).gemm_flops();
        assert!(zy < wy_trace(n, b, 128).gemm_flops());
    }

    #[test]
    fn table2_magnitudes_match_paper() {
        // Paper Table 2: ZY(128) = 0.70e14; WY(128) = 0.93e14; WY(4096) = 1.31e14.
        let n = 32768;
        let zy = zy_trace(n, 128).gemm_flops() as f64;
        assert!((zy / 0.70e14 - 1.0).abs() < 0.15, "ZY flops {zy:.3e}");
        let wy128 = wy_trace(n, 128, 128).gemm_flops() as f64;
        assert!(
            (wy128 / 0.93e14 - 1.0).abs() < 0.20,
            "WY(128) flops {wy128:.3e}"
        );
        let wy4096 = wy_trace(n, 128, 4096).gemm_flops() as f64;
        assert!(
            (wy4096 / 1.31e14 - 1.0).abs() < 0.30,
            "WY(4096) flops {wy4096:.3e}"
        );
    }
}
