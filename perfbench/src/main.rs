#![forbid(unsafe_code)]
//! End-to-end EVD benchmark.
//!
//! ```text
//! perfbench --workload <values|topk|full> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One closed-loop caller on one thread makes back-to-back calls into a
//! public `tcevd-core` driver. The run is split across [`PROCESSES`] fresh
//! worker processes, run one after another: each times its first, cold
//! call (`setup_s`) and then warm calls for its share of `--seconds`
//! (`solve_s` is the median over all warm calls). Each call sits between
//! two [`host::probe`]s, and both times are reported at the nominal host
//! speed ([`host::adjusted`]). The last worker adds one
//! traced call, which gives `peak_bytes` and the per-layer split. Every
//! call is checked: against the reference spectrum on each worker's first
//! call, and bitwise against the run's first call on every other one.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer ones with `--trace 1`. A readable
//! summary goes to standard error.

mod host;
mod layers;
mod workload;

use std::io::{Read, Write};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use layers::Metric;
use tcevd_tensorcore::GemmContext;
use tcevd_trace::TraceSink;
use workload::{fingerprint, Accuracy, Workload};

/// Fresh processes per run: each contributes one cold-call `setup_s`
/// sample, and the run reports their median.
const PROCESSES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in a worker process: its index within the run.
    worker: Option<usize>,
    /// Fingerprint of the run's first call, handed to later workers.
    expect: Option<u64>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut worker = None;
    let mut expect = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(workload::find(value).ok_or_else(|| bad("one of values, topk, full"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("a duration in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--worker" => worker = Some(value.parse().map_err(|_| bad("a process index"))?),
            "--expect" => {
                expect = Some(u64::from_str_radix(value, 16).map_err(|_| bad("a hex fingerprint"))?)
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        worker,
        expect,
    })
}

/// One timed call: its wall time and that time at the nominal host speed.
#[derive(Copy, Clone, Default, Debug, PartialEq)]
struct Sample {
    wall_s: f64,
    adj_s: f64,
}

impl Sample {
    /// Time `call` between two host probes.
    fn time<T>(call: impl FnOnce() -> T) -> (T, Sample) {
        let before = host::probe();
        let t = Instant::now();
        let out = call();
        let wall_s = t.elapsed().as_secs_f64();
        let adj_s = host::adjusted(wall_s, before, host::probe());
        (out, Sample { wall_s, adj_s })
    }
}

/// What one worker process measured, sent to the parent as text lines.
#[derive(Default)]
struct Report {
    setup: Sample,
    solve: Vec<Sample>,
    attempted: u64,
    failed: u64,
    fingerprint: Option<u64>,
    accuracy: Option<Accuracy>,
    /// Filled by the traced worker only.
    peak_bytes: Option<u64>,
    layers: Vec<Metric>,
}

impl Report {
    fn to_text(&self) -> String {
        let line = |what: &str, t: &Sample| format!("{what} {} {}\n", t.wall_s, t.adj_s);
        let mut s = line("setup", &self.setup);
        for t in &self.solve {
            s += &line("solve", t);
        }
        s += &format!("attempted {}\nfailed {}\n", self.attempted, self.failed);
        if let Some(fp) = self.fingerprint {
            s += &format!("fingerprint {fp:016x}\n");
        }
        if let Some(a) = self.accuracy {
            s += &format!(
                "accuracy {} {} {}\n",
                a.eig_err, a.residual, a.orthogonality
            );
        }
        if let Some(p) = self.peak_bytes {
            s += &format!("peak_bytes {p}\n");
        }
        for m in &self.layers {
            s += &format!("layer {} {} {}\n", m.name, m.value, m.unit);
        }
        s
    }

    fn parse(text: &str) -> Result<Report, String> {
        let mut r = Report::default();
        for line in text.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            let num = |i: usize| -> Result<f64, String> {
                f.get(i)
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("malformed worker line {line:?}"))
            };
            let sample = || -> Result<Sample, String> {
                Ok(Sample {
                    wall_s: num(1)?,
                    adj_s: num(2)?,
                })
            };
            match f.first().copied() {
                Some("setup") => r.setup = sample()?,
                Some("solve") => r.solve.push(sample()?),
                Some("attempted") => r.attempted = num(1)? as u64,
                Some("failed") => r.failed = num(1)? as u64,
                Some("fingerprint") => {
                    r.fingerprint = f.get(1).and_then(|v| u64::from_str_radix(v, 16).ok())
                }
                Some("accuracy") => {
                    r.accuracy = Some(Accuracy {
                        eig_err: num(1)?,
                        residual: num(2)?,
                        orthogonality: num(3)?,
                    })
                }
                Some("peak_bytes") => r.peak_bytes = Some(num(1)? as u64),
                Some("layer") => {
                    let unit = match f.get(3).copied() {
                        Some("s") => "s",
                        Some("B") => "B",
                        Some("flop") => "flop",
                        Some("ratio") => "ratio",
                        _ => "count",
                    };
                    r.layers.push(Metric {
                        name: f.get(1).copied().unwrap_or_default().to_string(),
                        value: num(2)?,
                        unit,
                    });
                }
                _ => return Err(format!("unexpected worker line {line:?}")),
            }
        }
        Ok(r)
    }
}

fn span_s(sink: &TraceSink, path: &str) -> f64 {
    sink.span_totals()
        .iter()
        .find(|t| t.path == path)
        .map_or(0.0, |t| t.total_us * 1e-6)
}

/// One worker process: generate the input, time the cold call and then
/// warm calls for `args.seconds`, and (on the last worker) one traced call.
fn worker(args: &Args, index: usize) -> Result<Report, String> {
    let w = args.workload;
    let mut text = String::new();
    std::io::stdin()
        .read_to_string(&mut text)
        .map_err(|e| format!("reading the reference: {e}"))?;
    let reference: Vec<f64> = text
        .lines()
        .map(|l| l.parse().map_err(|_| format!("bad reference value {l:?}")))
        .collect::<Result<_, _>>()?;

    // The benchmark's own spans; the traced call's context shares the sink.
    let sink = TraceSink::enabled();
    let a = {
        let _g = sink.span("perfbench.generate");
        w.input(args.seed)
    };
    let mut rep = Report::default();

    // Page in the probe's code so the cold call's first probe is a fair one.
    host::probe();
    let ((ctx, first), setup) = Sample::time(|| {
        let ctx = GemmContext::new(w.engine);
        let first = w.call(&a, &ctx, false);
        (ctx, first)
    });
    rep.setup = setup;
    // The run's first call is checked against the reference; every later
    // call, in this process or another, must match it bit for bit.
    let first = first.map_err(|e| e.to_string()).and_then(|out| {
        if args.expect.is_none() {
            rep.accuracy = Some(w.check(&a, &out, &reference)?);
        }
        Ok(fingerprint(&out))
    });
    let expect = args.expect.or(first.as_ref().ok().copied());
    rep.fingerprint = expect;
    let tally = |rep: &mut Report, what: &str, fp: Result<u64, String>| {
        rep.attempted += 1;
        let err = match fp {
            Ok(fp) if Some(fp) == expect => return,
            Ok(fp) => format!("result {fp:016x} differs bitwise from the run's first call"),
            Err(e) => e,
        };
        eprintln!("perfbench: {} worker {index}: {what}: {err}", w.name);
        rep.failed += 1;
    };
    tally(&mut rep, "cold call", first);

    // Start a call only while it is expected to end within the budget,
    // judging by the previous call and its probes, so a run lasts about
    // `--seconds`.
    let start = Instant::now();
    let mut last = rep.setup.wall_s;
    while rep.solve.is_empty() || start.elapsed().as_secs_f64() + last <= args.seconds {
        let t = Instant::now();
        let (out, sample) = Sample::time(|| w.call(&a, &ctx, false));
        rep.solve.push(sample);
        last = t.elapsed().as_secs_f64();
        tally(
            &mut rep,
            "warm call",
            out.map(|o| fingerprint(&o)).map_err(|e| e.to_string()),
        );
    }

    if index + 1 == PROCESSES {
        let tctx = GemmContext::new(w.engine).with_sink(sink.clone());
        let out = {
            let _g = sink.span("perfbench.driver");
            w.call(&a, &tctx, true)
        };
        let checked = {
            let _g = sink.span("perfbench.check");
            out.map_err(|e| e.to_string()).and_then(|o| {
                w.check(&a, &o, &reference)?;
                Ok(fingerprint(&o))
            })
        };
        tally(&mut rep, "traced call", checked);
        let driver_s = span_s(&sink, "perfbench.driver");
        rep.layers = layers::layer_metrics(&sink, driver_s);
        rep.layers.push(Metric {
            name: "testmat.generate_s".into(),
            value: span_s(&sink, "perfbench.generate"),
            unit: "s",
        });
        rep.layers.push(Metric {
            name: "check.s".into(),
            value: span_s(&sink, "perfbench.check"),
            unit: "s",
        });
        rep.peak_bytes = Some(layers::peak_bytes(&sink));
        for (name, v) in sink.counters().range("recovery.".to_string()..) {
            if !name.starts_with("recovery.") {
                break;
            }
            eprintln!("perfbench: {} traced call: {name} = {v}", w.name);
        }
    }
    Ok(rep)
}

/// Run one worker process and collect its report.
fn spawn_worker(
    args: &Args,
    index: usize,
    expect: Option<u64>,
    budget: f64,
    reference: &str,
) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", args.workload.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &budget.to_string()])
        .args(["--trace", "0"])
        .args(["--worker", &index.to_string()]);
    if let Some(fp) = expect {
        cmd.args(["--expect", &format!("{fp:016x}")]);
    }
    let mut child = cmd
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("starting worker {index}: {e}"))?;
    // The worker reads all of stdin before it writes anything, so this
    // write cannot deadlock against a full stdout pipe.
    let fed = child
        .stdin
        .take()
        .map(|mut stdin| stdin.write_all(reference.as_bytes()));
    let output = child
        .wait_with_output()
        .map_err(|e| format!("waiting for worker {index}: {e}"))?;
    if let Some(Err(e)) = fed {
        return Err(format!("feeding worker {index}: {e}"));
    }
    if !output.status.success() {
        return Err(format!("worker {index} exited with {}", output.status));
    }
    Report::parse(&String::from_utf8_lossy(&output.stdout))
}

/// `statistics.quantiles(v, n=4)` (exclusive method): the three quartiles.
fn quartiles(v: &[f64]) -> [f64; 3] {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let at = |q: f64| {
        if n == 1 {
            return s[0];
        }
        let pos = (q * (n as f64 + 1.0)).clamp(1.0, n as f64) - 1.0;
        let (lo, frac) = (pos.floor() as usize, pos.fract());
        s[lo] + frac * (s[(lo + 1).min(n - 1)] - s[lo])
    };
    [at(0.25), at(0.5), at(0.75)]
}

fn median(v: &[f64]) -> f64 {
    quartiles(v)[1]
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN/Inf; a non-finite value would only come from
            // a broken run, which `correct` already reports.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let reference = w.reference(args.seed)?;
    let ref_text: String = reference.iter().map(|v| format!("{v:?}\n")).collect();
    let budget = args.seconds / PROCESSES as f64;
    let mut reports: Vec<Report> = Vec::new();
    for i in 0..PROCESSES {
        let expect = reports.first().and_then(|r| r.fingerprint);
        reports.push(spawn_worker(args, i, expect, budget, &ref_text)?);
    }

    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let setup: Vec<Sample> = reports.iter().map(|r| r.setup).collect();
    let solve: Vec<Sample> = reports
        .iter()
        .flat_map(|r| r.solve.iter().copied())
        .collect();
    let adj = |v: &[Sample]| v.iter().map(|t| t.adj_s).collect::<Vec<_>>();
    let wall = |v: &[Sample]| v.iter().map(|t| t.wall_s).collect::<Vec<_>>();
    let traced = reports.last().ok_or("no worker ran")?;
    // Every result is bitwise identical to the run's first call, which the
    // first worker checked, or is counted failed.
    let acc = reports
        .first()
        .and_then(|r| r.accuracy)
        .unwrap_or(Accuracy {
            eig_err: f64::NAN,
            residual: f64::NAN,
            orthogonality: f64::NAN,
        });
    let peak = traced.peak_bytes.unwrap_or(0) as f64;
    let [q1, solve_s, q3] = quartiles(&adj(&solve));
    let setup_s = median(&adj(&setup));
    let (solve_wall_s, setup_wall_s) = (median(&wall(&solve)), median(&wall(&setup)));
    // How much slower than nominal the host ran, from each call's probes.
    let slowdown = median(&solve.iter().map(|t| t.wall_s / t.adj_s).collect::<Vec<_>>());
    eprintln!(
        "perfbench: {} n={} seed={}: solve_s median {solve_s:.4} s (q1 {q1:.4}, q3 {q3:.4}, {} warm calls; \
         wall {solve_wall_s:.4} s, host slowdown {slowdown:.3}), \
         setup_s median {setup_s:.4} s (wall {setup_wall_s:.4} s) over {PROCESSES} processes, peak {peak} B, \
         eig_err {:.3e}, residual {:.3e}, orthogonality {:.3e}, {failed}/{attempted} failed",
        w.name,
        w.n,
        args.seed,
        solve.len(),
        acc.eig_err,
        acc.residual,
        acc.orthogonality,
    );

    let m = |name: &str, value: f64, unit: &'static str| Metric {
        name: name.to_string(),
        value,
        unit,
    };
    let metrics = if args.trace {
        let driver_s = traced
            .layers
            .iter()
            .find(|l| l.name == "trace.driver_s")
            .map_or(f64::NAN, |l| l.value);
        let mut v = traced.layers.clone();
        v.extend([
            m("trace.overhead", driver_s / solve_wall_s, "ratio"),
            m("solve.wall_s", solve_wall_s, "s"),
            m("setup.wall_s", setup_wall_s, "s"),
            m("host.slowdown", slowdown, "ratio"),
            m("solve.q1_s", q1, "s"),
            m("solve.q3_s", q3, "s"),
            m("solve.samples", solve.len() as f64, "count"),
            m("check.eig_err", acc.eig_err, "ratio"),
            m("check.residual", acc.residual, "ratio"),
            m("check.orthogonality", acc.orthogonality, "ratio"),
        ]);
        v
    } else {
        vec![
            m("solve_s", solve_s, "s"),
            m("setup_s", setup_s, "s"),
            m("peak_bytes", peak, "B"),
        ]
    };
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        json_metrics(&metrics)
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <values|topk|full> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let result = match args.worker {
        Some(i) => worker(&args, i).map(|r| r.to_text()),
        None => run(&args).map(|line| line + "\n"),
    };
    match result {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn arguments_are_validated() {
        let ok =
            parse_args(&argv("--workload topk --seed 3 --seconds 10 --trace 1")).expect("valid");
        assert_eq!((ok.workload.name, ok.seed, ok.trace), ("topk", 3, true));
        for bad in [
            "--workload nope --seed 3 --seconds 10 --trace 0",
            "--workload values --seed -1 --seconds 10 --trace 0",
            "--workload values --seed 3 --seconds 0 --trace 0",
            "--workload values --seed 3 --seconds 10 --trace 2",
            "--workload values --seed 3 --seconds 10",
            "--workload values --seed 3 --seconds 10 --trace 0 --bogus 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn worker_report_round_trips() {
        let t = |wall_s: f64, adj_s: f64| Sample { wall_s, adj_s };
        let rep = Report {
            setup: t(1.25, 1.0),
            solve: vec![t(0.5, 0.4), t(0.75, 0.7)],
            attempted: 4,
            failed: 1,
            fingerprint: Some(0xdead_beef),
            accuracy: Some(Accuracy {
                eig_err: 1e-7,
                residual: 2e-6,
                orthogonality: 3e-6,
            }),
            peak_bytes: Some(123),
            layers: vec![Metric {
                name: "sbr.s".into(),
                value: 0.1,
                unit: "s",
            }],
        };
        let back = Report::parse(&rep.to_text()).expect("parses");
        assert_eq!(back.to_text(), rep.to_text());
    }
}
