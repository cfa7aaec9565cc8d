//! Per-layer metrics of one traced driver call, read from the stage spans
//! and counters the pipeline already emits into its `TraceSink`.

use std::collections::BTreeMap;

use tcevd_prof::{label_reports, stage_reports, LabelReport, StageReport};
use tcevd_trace::TraceSink;

/// The four pipeline stages, named as the pipeline's `StageScope`s name them.
pub const STAGES: [&str; 4] = ["sbr", "bulge_chase", "tridiag_solve", "back_transform"];

/// Every GEMM label one of the three workloads issues. A label missing
/// from a workload reports 0.
pub const GEMM_LABELS: [&str; 17] = [
    "backtransform_wv",
    "backtransform_ytv",
    "evd_q2z",
    "evd_sel_q2z",
    "formw_w",
    "formw_ytw",
    "wy_acc_w",
    "wy_acc_ytw",
    "wy_aw_append",
    "wy_final_u1",
    "wy_final_u2",
    "wy_final_u3",
    "wy_final_waw",
    "wy_final_yt2",
    "wy_inner_ga",
    "wy_inner_wx",
    "wy_inner_x",
];

/// The recovery-ladder rungs (`recovery.*` counters); all stay 0 on a
/// healthy run.
pub const RECOVERY_RUNGS: [&str; 7] = [
    "lu_pivot_escalation",
    "panel_householder_fallback",
    "dc_to_ql",
    "ql_budget_retry",
    "ql_to_bisect",
    "residual_resolve",
    "zy_selected_wy_substitution",
];

/// Pipeline counters re-exported under the benchmark's layer names.
const COUNTERS: [(&str, &str, &str); 10] = [
    ("factor.panels", "panel_count", "count"),
    ("factor.tsqr_leaves", "tsqr_leaves", "count"),
    ("bulge.reflectors", "bulge_reflectors", "count"),
    ("bulge.kernel_flops", "kernel_flops.bulge", "flop"),
    ("dc.merges", "dc_merges", "count"),
    ("ql.iterations", "ql_iterations", "count"),
    ("gemm.flops_square_tall", "gemm_flops_square_tall", "flop"),
    ("gemm.flops_outer", "gemm_flops_outer", "flop"),
    ("sbr.gemm_flops", "stage.sbr.flops", "flop"),
    ("sbr.gemm_bytes", "stage.sbr.bytes", "B"),
];

/// One named metric with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// GEMM label family: the label's text before its first `_`
/// (`wy_inner_x` → `wy`). Labels of one family run inside one stage.
fn family(label: &str) -> &str {
    label.split('_').next().unwrap_or(label)
}

/// The stage each GEMM family ran in. The sink records GEMM time per label
/// but not per stage, and a family's stage can differ by driver: FormW
/// runs inside `sbr` under `sym_eig` and inside `back_transform` under
/// `sym_eig_selected`. The assignment is therefore solved from the flop
/// counters — each stage's `stage.*.flops` must equal the summed flops of
/// the families placed in it. `None` when no assignment (or more than one)
/// fits.
pub fn family_stages(
    stages: &[StageReport],
    labels: &[LabelReport],
) -> Option<BTreeMap<String, String>> {
    let mut fams: BTreeMap<&str, u64> = BTreeMap::new();
    for l in labels.iter().filter(|l| l.flops > 0) {
        *fams.entry(family(&l.label)).or_default() += l.flops;
    }
    let fams: Vec<(&str, u64)> = fams.into_iter().collect();
    let gemm_stages: Vec<&StageReport> = stages.iter().filter(|s| s.flops > 0).collect();
    let k = gemm_stages.len();
    let combos = k.checked_pow(u32::try_from(fams.len()).ok()?)?;
    if k == 0 || combos > 1 << 16 {
        return fams.is_empty().then(BTreeMap::new);
    }
    let mut found = None;
    for mut code in 0..combos {
        let mut sums = vec![0u64; k];
        let mut pick = Vec::with_capacity(fams.len());
        for &(_, flops) in &fams {
            sums[code % k] += flops;
            pick.push(code % k);
            code /= k;
        }
        if sums.iter().zip(&gemm_stages).all(|(s, st)| *s == st.flops) {
            if found.is_some() {
                return None;
            }
            found = Some(pick);
        }
    }
    let pick = found?;
    Some(
        fams.iter()
            .zip(pick)
            .map(|(&(f, _), i)| (f.to_string(), gemm_stages[i].stage.clone()))
            .collect(),
    )
}

/// Every per-layer metric of one traced call whose driver span lasted
/// `driver_s` seconds. `trace.overhead`, which needs the untraced median,
/// is added by the caller.
pub fn layer_metrics(sink: &TraceSink, driver_s: f64) -> Vec<Metric> {
    let counters = sink.counters();
    let count = |key: &str| counters.get(key).copied().unwrap_or(0) as f64;
    let stages = stage_reports(sink);
    let labels = label_reports(sink);
    let placement = family_stages(&stages, &labels).unwrap_or_else(|| {
        eprintln!(
            "perfbench: GEMM labels do not partition the stage flops; self times include GEMM time"
        );
        BTreeMap::new()
    });

    let mut out = Vec::new();
    let mut staged_s = 0.0;
    for name in STAGES {
        let st = stages.iter().find(|s| s.stage == name);
        let s = st.map_or(0.0, |s| s.time_ns as f64 * 1e-9);
        let gemm_ns: u64 = labels
            .iter()
            .filter(|l| placement.get(family(&l.label)).is_some_and(|p| p == name))
            .map(|l| l.time_ns)
            .sum();
        staged_s += s;
        out.push(metric(format!("{name}.s"), s, "s"));
        out.push(metric(
            format!("{name}.self_s"),
            s - gemm_ns as f64 * 1e-9,
            "s",
        ));
        out.push(metric(
            format!("{name}.peak_bytes"),
            st.map_or(0.0, |s| s.peak_bytes as f64),
            "B",
        ));
    }
    out.push(metric(
        "back_transform.gemm_flops",
        count("stage.back_transform.flops"),
        "flop",
    ));
    for (name, key, unit) in COUNTERS {
        out.push(metric(name, count(key), unit));
    }
    for label in GEMM_LABELS {
        let l = labels.iter().find(|l| l.label == label);
        out.push(metric(
            format!("gemm.{label}.s"),
            l.map_or(0.0, |l| l.time_ns as f64 * 1e-9),
            "s",
        ));
        out.push(metric(
            format!("gemm.{label}.flops"),
            l.map_or(0.0, |l| l.flops as f64),
            "flop",
        ));
    }
    for rung in RECOVERY_RUNGS {
        out.push(metric(
            format!("recovery.{rung}"),
            count(&format!("recovery.{rung}")),
            "count",
        ));
    }
    let other = driver_s - staged_s;
    out.push(metric("other.s", other, "s"));
    out.push(metric("other.share", other / driver_s, "ratio"));
    out.push(metric("trace.driver_s", driver_s, "s"));
    out
}

/// Whole-call matrix-buffer high watermark: the largest stage watermark.
/// `StageScope` restarts the process-wide watermark at every stage seam,
/// even untraced, so `mem::peak_bytes()` read after a call holds only the
/// last stage's peak; the per-stage maxima of a traced call cover the
/// whole call.
pub fn peak_bytes(sink: &TraceSink) -> u64 {
    stage_reports(sink)
        .iter()
        .map(|s| s.peak_bytes)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Driver, WORKLOADS};
    use tcevd_tensorcore::GemmContext;

    /// Each workload's driver at a small size, traced. `n` exceeds the
    /// default SBR block of 256, so FormW merges two levels.
    fn traced(driver: Driver) -> (usize, TraceSink) {
        let w = WORKLOADS
            .iter()
            .find(|w| w.driver == driver)
            .map(|w| crate::workload::Workload { n: 320, ..*w })
            .expect("workload exists");
        let a = w.input(7);
        let sink = TraceSink::enabled();
        let ctx = GemmContext::new(w.engine).with_sink(sink.clone());
        w.call(&a, &ctx, true).expect("traced call");
        (w.n, sink)
    }

    #[test]
    fn whole_call_peak_covers_every_stage_and_the_input() {
        for driver in [Driver::Values, Driver::Largest(8), Driver::Full] {
            let (n, sink) = traced(driver);
            let peak = peak_bytes(&sink);
            let stages = stage_reports(&sink);
            assert!(stages.len() >= 3, "{driver:?}: {stages:?}");
            for s in &stages {
                assert!(
                    peak >= s.peak_bytes,
                    "{driver:?}: {} peaks above the call",
                    s.stage
                );
            }
            assert!(
                peak >= 4 * (n * n) as u64,
                "{driver:?}: peak {peak} below the f32 input"
            );
        }
    }

    #[test]
    fn formw_is_placed_in_the_stage_that_ran_it() {
        let place = |driver| {
            let (_, sink) = traced(driver);
            family_stages(&stage_reports(&sink), &label_reports(&sink)).expect("unique placement")
        };
        let full = place(Driver::Full);
        assert_eq!(full["formw"], "sbr");
        assert_eq!(full["wy"], "sbr");
        assert_eq!(full["evd"], "back_transform");
        let topk = place(Driver::Largest(8));
        assert_eq!(topk["formw"], "back_transform");
        assert_eq!(topk["wy"], "sbr");
    }

    #[test]
    fn every_traced_second_lands_in_a_named_bucket() {
        let (_, sink) = traced(Driver::Full);
        let m = layer_metrics(&sink, 1.0);
        let get = |name: &str| m.iter().find(|x| x.name == name).expect(name).value;
        let staged: f64 = STAGES.iter().map(|s| get(&format!("{s}.s"))).sum();
        assert!((staged + get("other.s") - 1.0).abs() < 1e-12);
        for s in STAGES {
            assert!(get(&format!("{s}.self_s")) <= get(&format!("{s}.s")));
        }
        assert!(
            get("sbr.self_s") < get("sbr.s"),
            "sbr GEMM time was subtracted"
        );
    }
}
