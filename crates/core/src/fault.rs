//! Deterministic fault injection for the pipeline's tridiagonal solvers,
//! plus the translator that arms a declarative
//! [`tcevd_testmat::FaultPlan`] across every layer.
//!
//! The hooks are thread-local one-shot (or counted) switches consumed at
//! the pipeline's solver seam — *not* inside `dc`/`ql` themselves, so the
//! divide-&-conquer base case (which bottoms into QL) never eats a QL
//! fault armed against the pipeline. Deterministic by construction: each
//! hook fires exactly the requested number of times on the arming thread.

use std::cell::Cell;
use tcevd_tensorcore::{FaultMode, GemmContext, GemmFault};
use tcevd_testmat::{Fault, FaultPlan, GemmFaultMode};

thread_local! {
    static FAIL_DC: Cell<u32> = const { Cell::new(0) };
    static FAIL_QL: Cell<u32> = const { Cell::new(0) };
    static FAIL_CANCEL: Cell<u32> = const { Cell::new(0) };
    static FAIL_PANIC: Cell<u32> = const { Cell::new(0) };
}

/// Force the next `times` divide-and-conquer solves (at the pipeline seam)
/// to report a secular-equation breakdown.
pub fn fail_dc(times: u32) {
    FAIL_DC.with(|c| c.set(times));
}

/// Force the next `times` QL solves (at the pipeline seam) to report
/// non-convergence.
pub fn fail_ql(times: u32) {
    FAIL_QL.with(|c| c.set(times));
}

/// Force the next `times` pipeline runs on this thread to cancel at their
/// first stage seam — a deterministic, wall-clock-free stand-in for a
/// deadline expiring mid-run (drives the service layer's retry path).
pub fn fail_cancel(times: u32) {
    FAIL_CANCEL.with(|c| c.set(times));
}

/// Arm the next `times` service-worker runs on this thread to panic before
/// the solve starts (drives the service layer's panic containment). The
/// pipeline itself never consumes this hook — only `tcevd-serve` does, via
/// [`take_panic_failure`].
pub fn fail_panic(times: u32) {
    FAIL_PANIC.with(|c| c.set(times));
}

/// Clear every solver hook on this thread, and the LU hooks in
/// `tcevd-factor`. (GEMM faults live on the [`GemmContext`]; clear those
/// with [`GemmContext::clear_faults`].)
pub fn reset() {
    FAIL_DC.with(|c| c.set(0));
    FAIL_QL.with(|c| c.set(0));
    FAIL_CANCEL.with(|c| c.set(0));
    FAIL_PANIC.with(|c| c.set(0));
    tcevd_factor::fault::clear();
}

/// Consume one armed DC failure, if any.
pub(crate) fn take_dc_failure() -> bool {
    take(&FAIL_DC)
}

/// Consume one armed QL failure, if any.
pub(crate) fn take_ql_failure() -> bool {
    take(&FAIL_QL)
}

/// Consume one armed forced cancellation, if any.
pub(crate) fn take_cancel_failure() -> bool {
    take(&FAIL_CANCEL)
}

/// Consume one armed worker panic, if any. Public (unlike the solver
/// hooks) because the consumer is the service layer, not the pipeline.
pub fn take_panic_failure() -> bool {
    take(&FAIL_PANIC)
}

fn take(slot: &'static std::thread::LocalKey<Cell<u32>>) -> bool {
    slot.with(|c| {
        let n = c.get();
        if n > 0 {
            c.set(n - 1);
            true
        } else {
            false
        }
    })
}

/// Arm every fault in `plan`: LU faults onto `tcevd-factor`'s thread-local
/// hooks, solver faults onto this module's hooks, GEMM faults onto `ctx`.
/// Call [`reset`] and [`GemmContext::clear_faults`] afterwards to disarm
/// anything the run did not consume.
pub fn apply_plan(plan: &FaultPlan, ctx: &GemmContext) {
    for fault in &plan.faults {
        match fault {
            Fault::PoisonPivot { index } => tcevd_factor::fault::poison_nopivot_pivot(*index),
            Fault::PartialPivotFail { times } => {
                tcevd_factor::fault::fail_next_partial_pivot(*times)
            }
            Fault::DcFail { times } => fail_dc(*times),
            Fault::QlFail { times } => fail_ql(*times),
            Fault::CancelAtSeam { times } => fail_cancel(*times),
            Fault::WorkerPanic { times } => fail_panic(*times),
            Fault::Gemm { label, nth, mode } => {
                // A label outside the registry can never match a call site:
                // the fault would silently never fire. Tally it so harnesses
                // catch plan typos (`tcevd-lint` R1 closes the registry).
                if let Some(l) = label {
                    if !tcevd_tensorcore::is_registered(l) {
                        ctx.sink().add("fault.unregistered_label", 1);
                    }
                }
                ctx.arm_fault(GemmFault {
                    label: label.clone(),
                    nth: *nth,
                    mode: match mode {
                        GemmFaultMode::Nan => FaultMode::Nan,
                        GemmFaultMode::Inf => FaultMode::Inf,
                        GemmFaultMode::F16Overflow => FaultMode::F16Overflow,
                    },
                });
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn hooks_count_down_and_reset() {
        fail_dc(2);
        assert!(take_dc_failure());
        assert!(take_dc_failure());
        assert!(!take_dc_failure());
        fail_ql(1);
        reset();
        assert!(!take_ql_failure());
    }

    #[test]
    fn cancel_and_panic_hooks_count_down_and_reset() {
        fail_cancel(1);
        assert!(take_cancel_failure());
        assert!(!take_cancel_failure());
        fail_panic(2);
        assert!(take_panic_failure());
        reset();
        assert!(!take_panic_failure());
        let plan = FaultPlan::parse_json(r#"[{"kind": "cancel"}, {"kind": "panic", "times": 1}]"#)
            .unwrap();
        let ctx = GemmContext::new(tcevd_tensorcore::Engine::Sgemm);
        apply_plan(&plan, &ctx);
        assert!(take_cancel_failure());
        assert!(take_panic_failure());
        reset();
    }

    #[test]
    fn unregistered_plan_label_is_tallied() {
        use tcevd_trace::TraceSink;
        let plan = FaultPlan::parse_json(
            r#"[
              {"kind": "gemm", "label": "no_such_step", "mode": "nan"},
              {"kind": "gemm", "label": "evd_q2z", "mode": "inf"}
            ]"#,
        )
        .unwrap();
        let sink = TraceSink::enabled();
        let ctx = GemmContext::new(tcevd_tensorcore::Engine::Sgemm).with_sink(sink.clone());
        apply_plan(&plan, &ctx);
        assert_eq!(sink.counter("fault.unregistered_label"), 1);
        ctx.clear_faults();
    }

    #[test]
    fn plan_arms_every_layer() {
        let plan = FaultPlan::parse_json(
            r#"[
              {"kind": "dc_fail"},
              {"kind": "ql_fail", "times": 2},
              {"kind": "gemm", "label": "evd_q2z", "mode": "nan"}
            ]"#,
        )
        .unwrap();
        let ctx = GemmContext::new(tcevd_tensorcore::Engine::Sgemm);
        apply_plan(&plan, &ctx);
        assert!(take_dc_failure());
        assert!(take_ql_failure());
        assert!(take_ql_failure());
        assert!(!take_ql_failure());
        reset();
        ctx.clear_faults();
    }
}
