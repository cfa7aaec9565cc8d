//! Declarative fault plans for the robustness test harness.
//!
//! A [`FaultPlan`] is a serializable list of deterministic faults to inject
//! into one EVD run — degenerate LU pivots, forced solver breakdowns, and
//! corrupted GEMM outputs. Plans are built in code or parsed from a small
//! JSON dialect (an array of flat objects), so `reproduce --faults=plan.json`
//! can replay a failure scenario without recompiling:
//!
//! ```json
//! [
//!   {"kind": "poison_pivot", "index": 2},
//!   {"kind": "gemm", "label": "backtransform_wv", "nth": 1, "mode": "nan"}
//! ]
//! ```
//!
//! A plan can also be scoped to a single `tcevd-serve` job by wrapping the
//! array: `{"job": "job-17", "faults": [ ... ]}`. The bare-array form is a
//! *global* plan (applies to every run), preserving all pre-existing plans.
//!
//! This crate sits at the bottom of the workspace, so the plan speaks in
//! plain data; `tcevd-core`'s `fault::apply_plan` translates each entry into
//! the concrete thread-local or `GemmContext` hook it arms.

/// GEMM corruption mode — mirrors `tcevd-tensorcore`'s `FaultMode` without
/// depending on that crate.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum GemmFaultMode {
    /// Write a NaN into the output block.
    Nan,
    /// Write +∞ into the output block.
    Inf,
    /// Write a finite value above the f16 maximum (simulated overflow).
    F16Overflow,
}

/// One deterministic fault to inject.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Poison the pivot at elimination step `index` of the next
    /// non-pivoted LU (drives the reconstruction → partial-pivot rung).
    PoisonPivot {
        /// Elimination step whose pivot collapses.
        index: usize,
    },
    /// Force the next `times` partial-pivot LU calls to fail (drives the
    /// partial-pivot → Householder-panel rung).
    PartialPivotFail {
        /// How many consecutive calls fail.
        times: u32,
    },
    /// Force the next `times` divide-and-conquer solves to report a secular
    /// breakdown (drives the DC → QL rung).
    DcFail {
        /// How many consecutive solves fail.
        times: u32,
    },
    /// Force the next `times` QL solves to report non-convergence (drives
    /// the QL budget-retry and QL → bisection rungs).
    QlFail {
        /// How many consecutive solves fail.
        times: u32,
    },
    /// Corrupt the output of the `nth` GEMM whose label matches.
    Gemm {
        /// Step label to match (`None` = any GEMM).
        label: Option<String>,
        /// Fire on the nth matching call, 1-based.
        nth: u64,
        /// Corruption mode.
        mode: GemmFaultMode,
    },
    /// Force the next `times` pipeline runs to cancel at their first stage
    /// seam (drives the service layer's deadline/retry path
    /// deterministically, without wall-clock involvement).
    CancelAtSeam {
        /// How many consecutive runs cancel.
        times: u32,
    },
    /// Panic inside the worker immediately before the next `times` runs
    /// start (drives the service layer's panic-containment path).
    WorkerPanic {
        /// How many consecutive runs panic.
        times: u32,
    },
}

/// An ordered list of faults for one run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The faults to arm before the run starts.
    pub faults: Vec<Fault>,
    /// Scope: `None` (the default, and the only form the legacy bare-array
    /// JSON can express) applies the plan to every run; `Some(name)`
    /// restricts it to the service job with that name, so a chaos suite can
    /// target one job out of a mixed workload.
    pub job: Option<String>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether this plan applies to the service job named `job`. Global
    /// plans (`self.job == None`) apply to every job.
    pub fn matches_job(&self, job: &str) -> bool {
        self.job.as_deref().is_none_or(|scope| scope == job)
    }

    /// Parse a plan from the JSON dialect shown in the module docs. Two
    /// forms are accepted: the legacy bare array of fault objects (a global
    /// plan), and a wrapper object `{"job": "name", "faults": [ ... ]}`
    /// scoping the same array to one service job (`"job"` optional).
    pub fn parse_json(text: &str) -> Result<Self, String> {
        let trimmed = text.trim();
        let (job, array) = if trimmed.starts_with('{') {
            let open = trimmed
                .find('[')
                .ok_or_else(|| "scoped fault plan must contain a \"faults\" array".to_string())?;
            let close = trimmed
                .rfind(']')
                .filter(|&c| c > open)
                .ok_or_else(|| "unterminated \"faults\" array in fault plan".to_string())?;
            // the job scope, if present, lives in the wrapper before the array
            let head = trimmed.get(..open).unwrap_or("");
            let body = trimmed.get(open..=close).unwrap_or("");
            (get_str(head, "job"), body)
        } else {
            (None, trimmed)
        };
        let objects = split_top_level_objects(array)?;
        let mut faults = Vec::new();
        for obj in objects {
            faults.push(parse_fault(&obj)?);
        }
        Ok(FaultPlan { faults, job })
    }
}

/// Split `[ {..}, {..} ]` into the raw text of each top-level object.
fn split_top_level_objects(text: &str) -> Result<Vec<String>, String> {
    let trimmed = text.trim();
    let inner = trimmed
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| "fault plan must be a JSON array".to_string())?;
    let mut objects = Vec::new();
    let mut depth = 0usize;
    let mut start = None;
    let mut in_string = false;
    let mut prev_escape = false;
    for (i, ch) in inner.char_indices() {
        if in_string {
            if prev_escape {
                prev_escape = false;
            } else if ch == '\\' {
                prev_escape = true;
            } else if ch == '"' {
                in_string = false;
            }
            continue;
        }
        match ch {
            '"' => in_string = true,
            '{' => {
                if depth == 0 {
                    start = Some(i);
                }
                depth += 1;
            }
            '}' => {
                depth = depth
                    .checked_sub(1)
                    .ok_or_else(|| "unbalanced braces in fault plan".to_string())?;
                if depth == 0 {
                    let s = start.take().ok_or_else(|| "malformed object".to_string())?;
                    objects.push(inner[s..=i].to_string());
                }
            }
            _ => {}
        }
    }
    if depth != 0 || in_string {
        return Err("unterminated object or string in fault plan".to_string());
    }
    Ok(objects)
}

/// Extract the string value of `"key"` from a flat JSON object.
fn get_str(obj: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\"");
    let rest = &obj[obj.find(&pat)? + pat.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// Extract the unsigned-integer value of `"key"` from a flat JSON object.
fn get_u64(obj: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\"");
    let rest = &obj[obj.find(&pat)? + pat.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

fn parse_fault(obj: &str) -> Result<Fault, String> {
    let kind = get_str(obj, "kind").ok_or_else(|| format!("fault missing \"kind\": {obj}"))?;
    match kind.as_str() {
        "poison_pivot" => Ok(Fault::PoisonPivot {
            index: get_u64(obj, "index").ok_or("poison_pivot needs \"index\"")? as usize,
        }),
        "partial_pivot_fail" => Ok(Fault::PartialPivotFail {
            times: get_u64(obj, "times").unwrap_or(1) as u32,
        }),
        "dc_fail" => Ok(Fault::DcFail {
            times: get_u64(obj, "times").unwrap_or(1) as u32,
        }),
        "ql_fail" => Ok(Fault::QlFail {
            times: get_u64(obj, "times").unwrap_or(1) as u32,
        }),
        "cancel" => Ok(Fault::CancelAtSeam {
            times: get_u64(obj, "times").unwrap_or(1) as u32,
        }),
        "panic" => Ok(Fault::WorkerPanic {
            times: get_u64(obj, "times").unwrap_or(1) as u32,
        }),
        "gemm" => {
            let mode = match get_str(obj, "mode")
                .unwrap_or_else(|| "nan".into())
                .as_str()
            {
                "nan" => GemmFaultMode::Nan,
                "inf" => GemmFaultMode::Inf,
                "f16_overflow" => GemmFaultMode::F16Overflow,
                other => return Err(format!("unknown gemm fault mode {other:?}")),
            };
            Ok(Fault::Gemm {
                label: get_str(obj, "label"),
                nth: get_u64(obj, "nth").unwrap_or(1),
                mode,
            })
        }
        other => Err(format!("unknown fault kind {other:?}")),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_plan() {
        let plan = FaultPlan::parse_json(
            r#"[
              {"kind": "poison_pivot", "index": 2},
              {"kind": "partial_pivot_fail", "times": 3},
              {"kind": "dc_fail"},
              {"kind": "ql_fail", "times": 2},
              {"kind": "gemm", "label": "backtransform_wv", "nth": 4, "mode": "f16_overflow"},
              {"kind": "gemm", "mode": "inf"}
            ]"#,
        )
        .unwrap();
        assert_eq!(plan.faults.len(), 6);
        assert_eq!(plan.faults[0], Fault::PoisonPivot { index: 2 });
        assert_eq!(plan.faults[1], Fault::PartialPivotFail { times: 3 });
        assert_eq!(plan.faults[2], Fault::DcFail { times: 1 });
        assert_eq!(plan.faults[3], Fault::QlFail { times: 2 });
        assert_eq!(
            plan.faults[4],
            Fault::Gemm {
                label: Some("backtransform_wv".into()),
                nth: 4,
                mode: GemmFaultMode::F16Overflow,
            }
        );
        assert_eq!(
            plan.faults[5],
            Fault::Gemm {
                label: None,
                nth: 1,
                mode: GemmFaultMode::Inf,
            }
        );
    }

    #[test]
    fn empty_array_is_empty_plan() {
        assert_eq!(FaultPlan::parse_json("[]").unwrap(), FaultPlan::none());
        assert_eq!(FaultPlan::parse_json(" [\n] ").unwrap(), FaultPlan::none());
    }

    #[test]
    fn bare_array_plans_are_global() {
        let plan = FaultPlan::parse_json(r#"[{"kind": "dc_fail"}]"#).unwrap();
        assert_eq!(plan.job, None);
        assert!(plan.matches_job("anything"));
    }

    #[test]
    fn scoped_plan_targets_one_job() {
        let plan = FaultPlan::parse_json(
            r#"{"job": "job-17", "faults": [
                  {"kind": "cancel", "times": 2},
                  {"kind": "panic"},
                  {"kind": "gemm", "mode": "inf"}
               ]}"#,
        )
        .unwrap();
        assert_eq!(plan.job.as_deref(), Some("job-17"));
        assert!(plan.matches_job("job-17"));
        assert!(!plan.matches_job("job-18"));
        assert_eq!(plan.faults[0], Fault::CancelAtSeam { times: 2 });
        assert_eq!(plan.faults[1], Fault::WorkerPanic { times: 1 });
    }

    #[test]
    fn scoped_wrapper_without_job_is_global() {
        let plan = FaultPlan::parse_json(r#"{"faults": [{"kind": "ql_fail"}]}"#).unwrap();
        assert_eq!(plan.job, None);
        assert_eq!(plan.faults, vec![Fault::QlFail { times: 1 }]);
    }

    #[test]
    fn scoped_wrapper_must_contain_an_array() {
        assert!(FaultPlan::parse_json(r#"{"job": "j"}"#).is_err());
        assert!(FaultPlan::parse_json(r#"{"job": "j", "faults": ["#).is_err());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(FaultPlan::parse_json("{}").is_err());
        assert!(FaultPlan::parse_json("[{\"kind\": \"poison_pivot\"}]").is_err());
        assert!(FaultPlan::parse_json("[{\"kind\": \"warp_drive\"}]").is_err());
        assert!(FaultPlan::parse_json("[{\"kind\": \"gemm\", \"mode\": \"zap\"}]").is_err());
        assert!(FaultPlan::parse_json("[{").is_err());
    }

    #[test]
    fn labels_with_escapes_do_not_break_splitting() {
        let plan = FaultPlan::parse_json(
            r#"[{"kind": "gemm", "label": "a_label", "nth": 1, "mode": "nan"}]"#,
        )
        .unwrap();
        assert_eq!(plan.faults.len(), 1);
    }
}
