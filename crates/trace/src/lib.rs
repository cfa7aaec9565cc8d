#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]
//! # tcevd-trace — pipeline-wide structured observability
//!
//! Zero-overhead-when-disabled instrumentation for the EVD pipeline:
//!
//! * **hierarchical spans** — RAII guards emitting begin/end events with a
//!   per-thread timeline, so `sym_eig` → `sbr_wy` → per-panel children
//!   reconstruct as a tree (`span!(sink, "sbr_wy", n, b, nb)`);
//! * **typed counters and histograms** — monotonic `u64` counters (GEMM
//!   flops by shape class, panel count, bulge sweeps, D&C merges, bytes
//!   moved) and power-of-two-bucketed histograms;
//! * **a GEMM log** — one [`GemmRecord`] (step label and shape) per GEMM
//!   call, in call order ([`TraceSink::gemms`]), which the performance
//!   model replays through its per-shape rates;
//! * **three exporters** — a human-readable stage report
//!   ([`TraceSink::stage_report`]), Chrome `trace_event` JSON loadable in
//!   Perfetto / `chrome://tracing` ([`TraceSink::chrome_trace_json`]), and
//!   Prometheus text exposition ([`TraceSink::prometheus_text`]).
//!
//! The handle is a [`TraceSink`]: cheap to clone, thread-safe, and — when
//! constructed with [`TraceSink::disabled`] (the `Default`) — a bare
//! `None` that allocates nothing and takes no locks on any hot path.
//! Every recording method first checks the inner `Option`; argument
//! formatting is deferred through closures so a disabled sink never even
//! builds the strings.
//!
//! ```
//! use tcevd_trace::{span, TraceSink};
//!
//! let sink = TraceSink::enabled();
//! {
//!     let _root = span!(sink, "sym_eig", n = 512);
//!     let _child = span!(sink, "sbr_wy");
//!     sink.add("panel_count", 4);
//!     sink.record("panel_rows", 480);
//! }
//! assert_eq!(sink.counter("panel_count"), 4);
//! let json = sink.chrome_trace_json();
//! assert!(json.contains("\"ph\":\"B\""));
//! ```

pub mod json;

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// Begin/end marker of a span event (Chrome trace_event `ph` field).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Phase {
    Begin,
    End,
}

/// One raw span event on a thread timeline.
#[derive(Clone, Debug)]
pub struct Event {
    pub name: &'static str,
    /// `key=value` pairs, space-separated (only on `Begin` events).
    pub args: Option<String>,
    pub tid: u32,
    /// Microseconds since the sink was created.
    pub ts_us: f64,
    pub ph: Phase,
}

/// One GEMM call as dispatched: the step label that issued it and its
/// shape, C (m×n) += A (m×k) · B (k×n).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct GemmRecord {
    /// Which algorithm step issued the call (e.g. `"wy_final_u1"`).
    pub label: &'static str,
    pub m: usize,
    pub n: usize,
    pub k: usize,
}

impl GemmRecord {
    /// Multiply–add flop count (2mnk convention).
    pub fn flops(&self) -> u64 {
        2 * self.m as u64 * self.n as u64 * self.k as u64
    }
}

/// Power-of-two-bucketed histogram of `u64` samples.
#[derive(Clone, Debug)]
pub struct Histogram {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    /// `buckets[i]` counts samples whose bit length is `i`
    /// (i.e. values in `[2^(i-1), 2^i)`; bucket 0 is the value 0).
    pub buckets: [u64; 33],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; 33],
        }
    }
}

impl Histogram {
    fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let idx = (64 - v.leading_zeros() as usize).min(32);
        self.buckets[idx] += 1;
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Poison-recovering mutex acquisition. Instrumented code runs on worker
/// threads that may panic mid-job (the service layer contains panics per
/// job); trace state is a monotonic append-only log, so recovering the
/// inner data from a poisoned mutex is always sound — aborting the whole
/// process over telemetry never is.
fn lock_or_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

struct Inner {
    t0: Instant,
    events: Mutex<Vec<Event>>,
    counters: Mutex<BTreeMap<String, u64>>,
    hists: Mutex<BTreeMap<String, Histogram>>,
    gemms: Mutex<Vec<GemmRecord>>,
    tids: Mutex<(HashMap<ThreadId, u32>, u32)>,
}

impl Inner {
    fn tid(&self) -> u32 {
        let id = std::thread::current().id();
        let mut g = lock_or_recover(&self.tids);
        if let Some(&t) = g.0.get(&id) {
            return t;
        }
        let t = g.1;
        g.1 += 1;
        g.0.insert(id, t);
        t
    }

    fn ts_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    fn push(&self, name: &'static str, args: Option<String>, ph: Phase) {
        let ev = Event {
            name,
            args,
            tid: self.tid(),
            ts_us: self.ts_us(),
            ph,
        };
        lock_or_recover(&self.events).push(ev);
    }
}

/// Handle every instrumented layer records into.
///
/// Disabled sinks ([`TraceSink::disabled`] / `Default`) hold no
/// allocation at all — `inner` is `None` — so threading one through the
/// pipeline costs a pointer-sized `Option` check per call site.
#[derive(Clone, Default)]
pub struct TraceSink {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl TraceSink {
    /// A sink that records nothing and allocates nothing.
    pub fn disabled() -> Self {
        TraceSink { inner: None }
    }

    /// A live sink collecting spans, counters and histograms.
    pub fn enabled() -> Self {
        TraceSink {
            inner: Some(Arc::new(Inner {
                t0: Instant::now(),
                events: Mutex::new(Vec::new()),
                counters: Mutex::new(BTreeMap::new()),
                hists: Mutex::new(BTreeMap::new()),
                gemms: Mutex::new(Vec::new()),
                tids: Mutex::new((HashMap::new(), 0)),
            })),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a span; it closes (emits its `End` event) when the returned
    /// guard drops, which guarantees begin/end balance even on early
    /// returns. Prefer the [`span!`] macro, which attaches arguments.
    #[must_use = "the span ends when this guard is dropped"]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.span_with(name, None)
    }

    /// Open a span with `key=value` arguments. The closure only runs when
    /// the sink is enabled, so argument formatting is free when tracing
    /// is off.
    #[must_use = "the span ends when this guard is dropped"]
    pub fn span_args(&self, name: &'static str, args: impl FnOnce() -> String) -> SpanGuard {
        if self.inner.is_some() {
            self.span_with(name, Some(args()))
        } else {
            SpanGuard { inner: None, name }
        }
    }

    fn span_with(&self, name: &'static str, args: Option<String>) -> SpanGuard {
        if let Some(inner) = &self.inner {
            inner.push(name, args, Phase::Begin);
            SpanGuard {
                inner: Some(Arc::clone(inner)),
                name,
            }
        } else {
            SpanGuard { inner: None, name }
        }
    }

    /// Increment the monotonic counter `name` by `v`.
    pub fn add(&self, name: &str, v: u64) {
        if let Some(inner) = &self.inner {
            let mut g = lock_or_recover(&inner.counters);
            if let Some(c) = g.get_mut(name) {
                *c += v;
            } else {
                g.insert(name.to_string(), v);
            }
        }
    }

    /// Raise the high-watermark counter `name` to `v` if `v` exceeds its
    /// current value (insert at `v` when absent). Watermark counters share
    /// the counter namespace, so they flow through [`counters`], the stage
    /// report and the Prometheus exporter like any monotonic counter —
    /// `mem.peak_bytes` and the per-stage `stage.*.peak_bytes` use this.
    ///
    /// [`counters`]: TraceSink::counters
    pub fn set_max(&self, name: &str, v: u64) {
        if let Some(inner) = &self.inner {
            let mut g = lock_or_recover(&inner.counters);
            if let Some(c) = g.get_mut(name) {
                *c = (*c).max(v);
            } else {
                g.insert(name.to_string(), v);
            }
        }
    }

    /// Record one sample into the histogram `name`.
    pub fn record(&self, name: &str, v: u64) {
        if let Some(inner) = &self.inner {
            let mut g = lock_or_recover(&inner.hists);
            if let Some(h) = g.get_mut(name) {
                h.record(v);
            } else {
                let mut h = Histogram::default();
                h.record(v);
                g.insert(name.to_string(), h);
            }
        }
    }

    /// Append one GEMM call to the log.
    pub fn log_gemm(&self, rec: GemmRecord) {
        if let Some(inner) = &self.inner {
            lock_or_recover(&inner.gemms).push(rec);
        }
    }

    /// Snapshot of the GEMM log in call order (empty when disabled).
    /// Calls issued from parallel regions land in completion order.
    pub fn gemms(&self) -> Vec<GemmRecord> {
        self.inner
            .as_ref()
            .map(|i| lock_or_recover(&i.gemms).clone())
            .unwrap_or_default()
    }

    /// Current value of counter `name` (0 if absent or disabled).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .as_ref()
            .and_then(|i| lock_or_recover(&i.counters).get(name).copied())
            .unwrap_or(0)
    }

    /// Snapshot of all counters (empty when disabled).
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.inner
            .as_ref()
            .map(|i| lock_or_recover(&i.counters).clone())
            .unwrap_or_default()
    }

    /// Snapshot of all histograms (empty when disabled).
    pub fn histograms(&self) -> BTreeMap<String, Histogram> {
        self.inner
            .as_ref()
            .map(|i| lock_or_recover(&i.hists).clone())
            .unwrap_or_default()
    }

    /// Snapshot of the raw span events (empty when disabled).
    pub fn events(&self) -> Vec<Event> {
        self.inner
            .as_ref()
            .map(|i| lock_or_recover(&i.events).clone())
            .unwrap_or_default()
    }

    /// Aggregate closed spans by hierarchical path (`sym_eig/sbr_wy/panel`),
    /// in order of first appearance.
    pub fn span_totals(&self) -> Vec<SpanTotal> {
        aggregate_spans(&self.events())
    }
}

/// RAII guard returned by [`TraceSink::span`]; emits the span's `End`
/// event on drop.
pub struct SpanGuard {
    inner: Option<Arc<Inner>>,
    name: &'static str,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            inner.push(self.name, None, Phase::End);
        }
    }
}

/// Aggregated statistics for one span path.
#[derive(Clone, Debug)]
pub struct SpanTotal {
    /// `/`-joined path from the thread-local root, e.g. `sym_eig/sbr_wy`.
    pub path: String,
    pub depth: usize,
    pub count: u64,
    pub total_us: f64,
}

fn aggregate_spans(events: &[Event]) -> Vec<SpanTotal> {
    // Events are pushed under one mutex, so the global order preserves each
    // thread's begin/end order; replay a stack per tid.
    let mut stacks: HashMap<u32, Vec<(String, f64)>> = HashMap::new();
    let mut order: Vec<String> = Vec::new();
    let mut agg: HashMap<String, (u64, f64, usize)> = HashMap::new();
    for ev in events {
        let stack = stacks.entry(ev.tid).or_default();
        match ev.ph {
            Phase::Begin => {
                let path = match stack.last() {
                    Some((parent, _)) => format!("{parent}/{}", ev.name),
                    None => ev.name.to_string(),
                };
                // first-appearance order is begin order, so parents list
                // before their children in the report
                agg.entry(path.clone()).or_insert_with(|| {
                    order.push(path.clone());
                    (0, 0.0, path.matches('/').count())
                });
                stack.push((path, ev.ts_us));
            }
            Phase::End => {
                // `begin` recorded the path, so the entry exists; a
                // malformed event stream degrades to dropping the sample.
                if let Some((path, t_begin)) = stack.pop() {
                    if let Some(e) = agg.get_mut(&path) {
                        e.0 += 1;
                        e.1 += ev.ts_us - t_begin;
                    }
                }
            }
        }
    }
    order
        .into_iter()
        .map(|path| {
            let (count, total_us, depth) = agg[&path];
            SpanTotal {
                path,
                depth,
                count,
                total_us,
            }
        })
        .collect()
}

// ---------------------------------------------------------------- exporters

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render `key=value key2=value2` span args as a JSON object, emitting
/// numeric values unquoted.
fn args_to_json(args: &str) -> String {
    let mut out = String::from("{");
    for (i, pair) in args.split_whitespace().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match pair.split_once('=') {
            Some((k, v)) => {
                out.push_str(&format!("\"{}\":", json_escape(k)));
                if v.parse::<f64>().is_ok() {
                    out.push_str(v);
                } else {
                    out.push_str(&format!("\"{}\"", json_escape(v)));
                }
            }
            None => out.push_str(&format!("\"arg{i}\":\"{}\"", json_escape(pair))),
        }
    }
    out.push('}');
    out
}

impl TraceSink {
    /// Export the timeline as Chrome `trace_event` JSON — load the file at
    /// <https://ui.perfetto.dev> or `chrome://tracing`. Span events become
    /// `ph:"B"/"E"` pairs; counters are appended as `ph:"C"` events.
    pub fn chrome_trace_json(&self) -> String {
        let events = self.events();
        let counters = self.counters();
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let mut last_ts = 0.0f64;
        for ev in &events {
            if !first {
                out.push(',');
            }
            first = false;
            last_ts = last_ts.max(ev.ts_us);
            let ph = match ev.ph {
                Phase::Begin => "B",
                Phase::End => "E",
            };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"{}\",\"ts\":{:.3},\"pid\":1,\"tid\":{}",
                json_escape(ev.name),
                ph,
                ev.ts_us,
                ev.tid
            ));
            if let Some(args) = &ev.args {
                out.push_str(&format!(",\"args\":{}", args_to_json(args)));
            }
            out.push('}');
        }
        for (name, v) in &counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{:.3},\"pid\":1,\"tid\":0,\"args\":{{\"value\":{v}}}}}",
                json_escape(name),
                last_ts
            ));
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }

    /// Human-readable report: the span tree with call counts and total
    /// time, then counters, then histograms.
    pub fn stage_report(&self) -> String {
        let mut out = String::new();
        let totals = self.span_totals();
        if !totals.is_empty() {
            out.push_str("spans (total time, calls):\n");
            for t in &totals {
                let name = t.path.rsplit('/').next().unwrap_or(&t.path);
                out.push_str(&format!(
                    "  {:indent$}{:<28} {:>12.3} ms  ×{}\n",
                    "",
                    name,
                    t.total_us / 1e3,
                    t.count,
                    indent = 2 * t.depth
                ));
            }
        }
        let counters = self.counters();
        if !counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in &counters {
                out.push_str(&format!("  {k:<40} {v}\n"));
            }
        }
        let hists = self.histograms();
        if !hists.is_empty() {
            out.push_str("histograms (count / mean / min / max):\n");
            for (k, h) in &hists {
                out.push_str(&format!(
                    "  {:<40} {} / {:.1} / {} / {}\n",
                    k,
                    h.count,
                    h.mean(),
                    h.min,
                    h.max
                ));
            }
        }
        if out.is_empty() {
            out.push_str("(trace sink empty or disabled)\n");
        }
        out
    }

    /// Prometheus text exposition: span seconds/calls, counters, and
    /// cumulative histogram buckets.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        let totals = self.span_totals();
        if !totals.is_empty() {
            out.push_str("# TYPE tcevd_span_seconds_total counter\n");
            for t in &totals {
                out.push_str(&format!(
                    "tcevd_span_seconds_total{{span=\"{}\"}} {:.9}\n",
                    t.path,
                    t.total_us / 1e6
                ));
            }
            out.push_str("# TYPE tcevd_span_calls_total counter\n");
            for t in &totals {
                out.push_str(&format!(
                    "tcevd_span_calls_total{{span=\"{}\"}} {}\n",
                    t.path, t.count
                ));
            }
        }
        let counters = self.counters();
        // Per-job service counters (`serve.job.<job>.<event>`, tallied by
        // `tcevd-serve`) render as a labeled family so a scrape can group
        // and filter by job; everything else stays in the generic family.
        let (job_counters, counters): (Vec<_>, Vec<_>) = counters
            .into_iter()
            .partition(|(k, _)| k.starts_with("serve.job."));
        if !counters.is_empty() {
            out.push_str("# TYPE tcevd_counter_total counter\n");
            for (k, v) in &counters {
                out.push_str(&format!("tcevd_counter_total{{name=\"{k}\"}} {v}\n"));
            }
        }
        if !job_counters.is_empty() {
            out.push_str("# TYPE tcevd_serve_job_total counter\n");
            for (k, v) in &job_counters {
                let rest = k.trim_start_matches("serve.job.");
                // the final dot-segment is the event; the job name may
                // itself contain dots
                let (job, event) = match rest.rsplit_once('.') {
                    Some(split) => split,
                    None => (rest, "event"),
                };
                out.push_str(&format!(
                    "tcevd_serve_job_total{{job=\"{job}\",event=\"{event}\"}} {v}\n"
                ));
            }
        }
        let hists = self.histograms();
        if !hists.is_empty() {
            out.push_str("# TYPE tcevd_hist histogram\n");
            for (k, h) in &hists {
                let mut cum = 0u64;
                for (i, b) in h.buckets.iter().enumerate() {
                    if *b == 0 {
                        continue;
                    }
                    cum += b;
                    // bucket i holds values of bit length i, i.e. v ≤ 2^i − 1
                    let le = (1u64 << i) - 1;
                    out.push_str(&format!(
                        "tcevd_hist_bucket{{name=\"{k}\",le=\"{le}\"}} {cum}\n"
                    ));
                }
                out.push_str(&format!(
                    "tcevd_hist_bucket{{name=\"{k}\",le=\"+Inf\"}} {}\n",
                    h.count
                ));
                out.push_str(&format!("tcevd_hist_sum{{name=\"{k}\"}} {}\n", h.sum));
                out.push_str(&format!("tcevd_hist_count{{name=\"{k}\"}} {}\n", h.count));
            }
        }
        out
    }
}

/// Open a span on `$sink` with optional `key = value` arguments; bare
/// identifiers expand to `name = name`.
///
/// ```
/// use tcevd_trace::{span, TraceSink};
/// let sink = TraceSink::enabled();
/// let n = 512;
/// let b = 32;
/// let _g = span!(sink, "sbr_wy", n, b, nb = 256);
/// ```
#[macro_export]
macro_rules! span {
    ($sink:expr, $name:expr $(,)?) => {
        $sink.span($name)
    };
    ($sink:expr, $name:expr, $($key:ident $(= $val:expr)?),+ $(,)?) => {
        $sink.span_args($name, || {
            let mut __s = ::std::string::String::new();
            $(
                $crate::__span_arg!(__s, $key $(, $val)?);
            )+
            __s
        })
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __span_arg {
    ($s:ident, $key:ident) => {
        $crate::__span_arg!($s, $key, $key)
    };
    ($s:ident, $key:ident, $val:expr) => {{
        if !$s.is_empty() {
            $s.push(' ');
        }
        $s.push_str(concat!(stringify!($key), "="));
        $s.push_str(&::std::format!("{}", $val));
    }};
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_is_inert_and_unallocated() {
        let sink = TraceSink::disabled();
        assert!(!sink.is_enabled());
        // `inner` is None: no Arc, no Vec, no map — structurally zero
        // allocations. All operations are no-ops.
        {
            let _g = span!(sink, "sym_eig", n = 4096);
            sink.add("gemm_flops", 123);
            sink.record("panel_rows", 7);
            sink.log_gemm(GemmRecord {
                label: "x",
                m: 1,
                n: 1,
                k: 1,
            });
        }
        assert_eq!(sink.counter("gemm_flops"), 0);
        assert!(sink.gemms().is_empty());
        assert!(sink.counters().is_empty());
        assert!(sink.histograms().is_empty());
        assert!(sink.events().is_empty());
        assert_eq!(
            std::mem::size_of::<TraceSink>(),
            std::mem::size_of::<usize>()
        );
    }

    #[test]
    fn span_args_closure_not_called_when_disabled() {
        let sink = TraceSink::disabled();
        let mut called = false;
        {
            let _g = sink.span_args("x", || {
                called = true;
                String::new()
            });
        }
        assert!(!called, "arg formatting must be skipped when disabled");
    }

    #[test]
    fn spans_nest_and_balance() {
        let sink = TraceSink::enabled();
        {
            let _a = span!(sink, "outer", n = 8);
            {
                let _b = span!(sink, "inner");
            }
            {
                let _b = span!(sink, "inner");
            }
        }
        let evs = sink.events();
        assert_eq!(evs.len(), 6);
        let begins = evs.iter().filter(|e| e.ph == Phase::Begin).count();
        assert_eq!(begins, 3);
        let totals = sink.span_totals();
        assert_eq!(totals.len(), 2);
        assert_eq!(totals[0].path, "outer");
        assert_eq!(totals[1].path, "outer/inner");
        assert_eq!(totals[1].count, 2);
        assert_eq!(totals[1].depth, 1);
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        let sink = TraceSink::enabled();
        sink.add("flops", 10);
        sink.add("flops", 32);
        sink.record("rows", 0);
        sink.record("rows", 3);
        sink.record("rows", 1000);
        assert_eq!(sink.counter("flops"), 42);
        let h = &sink.histograms()["rows"];
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 1003);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1000);
        assert_eq!(h.buckets[0], 1); // the 0 sample
        assert_eq!(h.buckets[2], 1); // 3 ∈ [2, 4)
        assert_eq!(h.buckets[10], 1); // 1000 ∈ [512, 1024)
    }

    #[test]
    fn gemm_log_keeps_call_order() {
        let sink = TraceSink::enabled();
        let rec = |label, m, n, k| GemmRecord { label, m, n, k };
        sink.log_gemm(rec("b", 4, 5, 6));
        sink.clone().log_gemm(rec("a", 1, 2, 3));
        assert_eq!(sink.gemms(), [rec("b", 4, 5, 6), rec("a", 1, 2, 3)]);
        assert_eq!(sink.gemms()[0].flops(), 2 * 4 * 5 * 6);
    }

    #[test]
    fn set_max_is_a_high_watermark() {
        let sink = TraceSink::enabled();
        sink.set_max("mem.peak_bytes", 100);
        sink.set_max("mem.peak_bytes", 40); // lower: no effect
        assert_eq!(sink.counter("mem.peak_bytes"), 100);
        sink.set_max("mem.peak_bytes", 250);
        assert_eq!(sink.counter("mem.peak_bytes"), 250);
        // watermarks surface through the standard exporters
        assert!(sink.stage_report().contains("mem.peak_bytes"));
        assert!(sink
            .prometheus_text()
            .contains("tcevd_counter_total{name=\"mem.peak_bytes\"} 250"));
        // disabled sinks stay inert
        let off = TraceSink::disabled();
        off.set_max("mem.peak_bytes", 9);
        assert_eq!(off.counter("mem.peak_bytes"), 0);
    }

    #[test]
    fn chrome_export_is_valid_json_with_balanced_events() {
        let sink = TraceSink::enabled();
        {
            let _a = span!(sink, "root", n = 2, label = "x\"y");
            let _b = span!(sink, "child");
        }
        sink.add("c", 5);
        let parsed = crate::json::parse(&sink.chrome_trace_json()).expect("valid JSON");
        let evs = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        let b = evs
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("B"))
            .count();
        let e = evs
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("E"))
            .count();
        assert_eq!(b, e);
        assert_eq!(b, 2);
        let c = evs
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("C"))
            .count();
        assert_eq!(c, 1);
    }

    #[test]
    fn exporters_cover_all_sections() {
        let sink = TraceSink::enabled();
        {
            let _a = span!(sink, "stage");
        }
        sink.add("items", 3);
        sink.record("sizes", 17);
        let report = sink.stage_report();
        assert!(report.contains("stage"));
        assert!(report.contains("items"));
        assert!(report.contains("sizes"));
        let prom = sink.prometheus_text();
        assert!(prom.contains("tcevd_span_seconds_total{span=\"stage\"}"));
        assert!(prom.contains("tcevd_counter_total{name=\"items\"} 3"));
        assert!(prom.contains("tcevd_hist_count{name=\"sizes\"} 1"));
    }

    #[test]
    fn clone_shares_state() {
        let sink = TraceSink::enabled();
        let clone = sink.clone();
        clone.add("x", 7);
        assert_eq!(sink.counter("x"), 7);
    }

    #[test]
    fn per_job_serve_counters_render_as_labeled_family() {
        let sink = TraceSink::enabled();
        sink.add("serve.jobs_submitted", 3);
        sink.add("serve.job.chaos-17.completed", 1);
        sink.add("serve.job.a.b.retried", 2); // job name may contain dots
        let prom = sink.prometheus_text();
        assert!(prom.contains("tcevd_counter_total{name=\"serve.jobs_submitted\"} 3"));
        assert!(prom.contains("# TYPE tcevd_serve_job_total counter"));
        assert!(prom.contains("tcevd_serve_job_total{job=\"chaos-17\",event=\"completed\"} 1"));
        assert!(prom.contains("tcevd_serve_job_total{job=\"a.b\",event=\"retried\"} 2"));
        // the per-job rows must not also appear in the generic family
        assert!(!prom.contains("tcevd_counter_total{name=\"serve.job."));
    }
}
