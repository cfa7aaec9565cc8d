//! The rule set. File-local rules take the lexed token stream plus the
//! workspace-relative path (forward slashes); the call-graph rules
//! (R8–R11) additionally see the whole workspace as [`FileUnit`]s and a
//! [`Graph`]. All rules append raw [`Diagnostic`]s — waiver suppression
//! happens centrally in [`crate::analyze_files`] so dead waivers can be
//! detected (W1).
//!
//! | rule | invariant |
//! |------|-----------|
//! | R1 | GEMM call sites pass a registered static label; registry entries are all used; trace-model labels are registered |
//! | R2 | lossy precision conversions stay inside the precision boundary |
//! | R3 | no `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` and no `[` indexing in hot paths |
//! | R4 | public pipeline functions return `Result` |
//! | R5 | every crate forbids `unsafe_code` (and none uses `unsafe`) |
//! | R6 | every GEMM label has a flop-cost registry entry; no cost entry is dead |
//! | R7 | the R3 hygiene bar extended to the service layer (`crates/serve/`) |
//! | R8 | no panic-family call transitively reachable from a hot path (call-graph walk with path trace) |
//! | R9 | every loop transitively doing GEMM-scale work reaches a `CancelToken` check within one iteration |
//! | R10 | determinism discipline: no sync primitives in parallel regions, no HashMap/HashSet iteration, counters from wall-clock/thread identity only in `time.`/`par.` |
//! | R11 | serve lock discipline: canonical Mutex order, condvar waits in predicate loops, poison-recovering `lock()` helper only |
//! | R12 | the committed GEMM tuning table parses and satisfies the `tile` dispatch invariants (known names, instantiated kernels, divisibility, no duplicates) |
//! | W1 | every `tcevd-lint: allow(…)` waiver suppresses at least one finding |

use crate::callgraph::{self, FileUnit, Graph};
use crate::lexer::{Kind, Lexed, Token};
use crate::parser;
use crate::{Diagnostic, Registry};

/// Hot-path files under rule R3 (no-panic, no-indexing hygiene).
pub const R3_FILES: &[&str] = &[
    "crates/band/src/common.rs",
    "crates/band/src/formw.rs",
    "crates/band/src/panel.rs",
    "crates/band/src/sbr_dbr.rs",
    "crates/band/src/sbr_wy.rs",
    "crates/band/src/sbr_zy.rs",
    "crates/core/src/pipeline.rs",
    "crates/tensorcore/src/engine.rs",
];

/// Service-layer files under rule R7: the scheduler holds other people's
/// jobs, so it gets the same no-panic, no-indexing bar as the hot paths —
/// an `unwrap` here wedges every queued job, not just one result.
pub const R7_FILES: &[&str] = &["crates/serve/"];

/// Pipeline modules whose public functions must return `Result` (R4).
pub const R4_FILES: &[&str] = &[
    "crates/band/src/formw.rs",
    "crates/band/src/sbr_dbr.rs",
    "crates/band/src/sbr_wy.rs",
    "crates/band/src/sbr_zy.rs",
    "crates/core/src/pipeline.rs",
    "crates/core/src/svd.rs",
    "crates/factor/src/reconstruct.rs",
];

/// Files allowed to perform lossy precision conversion (R2): the fp16/tf32
/// scalar emulation itself and the Tensor-Core simulator built on it.
pub const R2_ALLOWED: &[&str] = &["crates/matrix/src/f16.rs", "crates/tensorcore/"];

/// Lossy conversion entry points R2 contains.
const R2_BANNED_IDENTS: &[&str] = &["round_through_f16", "truncate_f16", "round_to_tf32"];

/// The GEMM-forwarding layer itself: passes its `label` parameter through,
/// so R1's literal-label requirement does not apply to it.
const R1_EXEMPT: &[&str] = &["crates/tensorcore/src/engine.rs"];

fn diag(out: &mut Vec<Diagnostic>, path: &str, line: usize, rule: &'static str, msg: String) {
    out.push(Diagnostic {
        file: path.to_string(),
        line,
        rule,
        message: msg,
    });
}

fn in_list(path: &str, list: &[&str]) -> bool {
    list.iter().any(|p| {
        if p.ends_with('/') {
            path.starts_with(p)
        } else {
            path == *p
        }
    })
}

/// R1a: every `.gemm(` / `.syr2k_update(` call site in non-test code passes
/// a string-literal first argument drawn from the registry. Returns the
/// labels used (for the registry's unused-entry check).
pub fn r1_call_sites(
    path: &str,
    lx: &Lexed,
    reg: &Registry,
    used: &mut std::collections::BTreeSet<String>,
    out: &mut Vec<Diagnostic>,
) {
    let toks = &lx.tokens;
    for i in 0..toks.len() {
        if !(toks[i].is_punct('.')
            && toks
                .get(i + 1)
                .is_some_and(|t| t.is_ident("gemm") || t.is_ident("syr2k_update"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('(')))
        {
            continue;
        }
        let call = &toks[i + 1];
        let Some(arg) = toks.get(i + 3) else { continue };
        if call.in_test {
            continue; // test call sites may use ad-hoc labels
        }
        if in_list(path, R1_EXEMPT) {
            continue;
        }
        let line = arg.line;
        if arg.kind != Kind::Str {
            diag(
                out,
                path,
                line,
                "R1",
                format!(
                    "{} call must pass a static string label as its first \
                     argument (got `{}`)",
                    call.text, arg.text
                ),
            );
            continue;
        }
        used.insert(arg.text.clone());
        if !reg.labels.iter().any(|(l, _)| l == &arg.text) {
            diag(
                out,
                path,
                line,
                "R1",
                format!(
                    "GEMM label {:?} is not in the registry \
                     (crates/tensorcore/src/labels.rs)",
                    arg.text
                ),
            );
        }
    }
}

/// R1b: string labels fed to the dry-run trace model's `rec(`/`rec_on(`
/// generators must also come from the registry, so model traces stay
/// join-able with real traces.
pub fn r1_trace_model(path: &str, lx: &Lexed, reg: &Registry, out: &mut Vec<Diagnostic>) {
    if !path.ends_with("trace_model.rs") {
        return;
    }
    let toks = &lx.tokens;
    for i in 0..toks.len() {
        if !((toks[i].is_ident("rec") || toks[i].is_ident("rec_on"))
            && toks.get(i + 1).is_some_and(|t| t.is_punct('(')))
        {
            continue;
        }
        if toks[i].in_test {
            continue;
        }
        // scan the argument list (depth-1) for string literals
        let mut depth = 0usize;
        let mut k = i + 1;
        while k < toks.len() {
            let t = &toks[k];
            if t.is_punct('(') {
                depth += 1;
            } else if t.is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.kind == Kind::Str
                && depth == 1
                && !reg.labels.iter().any(|(l, _)| l == &t.text)
            {
                diag(
                    out,
                    path,
                    t.line,
                    "R1",
                    format!("trace-model label {:?} is not in the registry", t.text),
                );
            }
            k += 1;
        }
    }
}

/// R1c: registry entries no live call site or trace-model generator uses.
/// Run once after all files are scanned, with the union of used labels.
pub fn r1_unused_entries(
    reg: &Registry,
    used: &std::collections::BTreeSet<String>,
    out: &mut Vec<Diagnostic>,
) {
    for (label, line) in &reg.labels {
        if !used.contains(label) {
            diag(
                out,
                &reg.path,
                *line,
                "R1",
                format!("registry entry {label:?} is used by no GEMM call site"),
            );
        }
    }
}

/// R6: the flop-cost registry (`GEMM_COSTS` in `crates/prof/src/costs.rs`)
/// must cover every `GEMM_LABELS` entry, and carry no dead entries. Run
/// once per workspace with both parsed registries.
pub fn r6_cost_registry(reg: &Registry, costs: &Registry, out: &mut Vec<Diagnostic>) {
    if costs.labels.is_empty() {
        diag(
            out,
            &costs.path,
            1,
            "R6",
            "GEMM flop-cost registry (GEMM_COSTS) is missing or empty".to_string(),
        );
        return;
    }
    for (label, line) in &reg.labels {
        if !costs.labels.iter().any(|(l, _)| l == label) {
            diag(
                out,
                &reg.path,
                *line,
                "R6",
                format!(
                    "GEMM label {label:?} has no flop-cost entry in {}",
                    costs.path
                ),
            );
        }
    }
    for (label, line) in &costs.labels {
        if !reg.labels.iter().any(|(l, _)| l == label) {
            diag(
                out,
                &costs.path,
                *line,
                "R6",
                format!("dead cost entry {label:?}: no such entry in GEMM_LABELS"),
            );
        }
    }
}

/// R2: lossy precision conversions (`round_through_f16`, `truncate_f16`,
/// `round_to_tf32`, `F16::from_f32`) only inside the precision boundary.
pub fn r2_precision_boundary(path: &str, lx: &Lexed, out: &mut Vec<Diagnostic>) {
    if in_list(path, R2_ALLOWED) {
        return;
    }
    let toks = &lx.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != Kind::Ident || t.in_test {
            continue;
        }
        let banned = R2_BANNED_IDENTS.contains(&t.text.as_str())
            || (t.text == "from_f32"
                && i >= 3
                && toks[i - 1].is_punct(':')
                && toks[i - 2].is_punct(':')
                && toks[i - 3].is_ident("F16"));
        if banned {
            diag(
                out,
                path,
                t.line,
                "R2",
                format!(
                    "lossy precision conversion `{}` outside the precision \
                     boundary (crates/matrix/src/f16.rs, crates/tensorcore)",
                    t.text
                ),
            );
        }
    }
}

/// Identifiers that may legitimately precede `[` without it being indexing
/// (statement/expression keywords).
const NON_VALUE_KEYWORDS: &[&str] = &[
    "as", "async", "await", "break", "const", "continue", "dyn", "else", "enum", "fn", "for", "if",
    "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref", "return", "static",
    "struct", "trait", "type", "use", "where", "while",
];

/// R3: hot-path hygiene — no `unwrap`/`expect`/`panic!`/`todo!`/
/// `unimplemented!`, and no `[`-indexing (postfix after a value), in the
/// non-test code of [`R3_FILES`].
pub fn r3_hot_path(path: &str, lx: &Lexed, out: &mut Vec<Diagnostic>) {
    if !in_list(path, R3_FILES) {
        return;
    }
    hygiene_walk(path, lx, "R3", "a hot path", out);
}

/// R7: the same hygiene bar over the service layer ([`R7_FILES`]) — the
/// scheduler's own code must never abort or index out of bounds while it
/// holds other jobs' work.
pub fn r7_serve_hygiene(path: &str, lx: &Lexed, out: &mut Vec<Diagnostic>) {
    if !in_list(path, R7_FILES) {
        return;
    }
    hygiene_walk(path, lx, "R7", "the service layer", out);
}

/// The shared R3/R7 hygiene walker: no `.unwrap()`/`.expect()`, no
/// `panic!`-family macros, no postfix `[` indexing — in non-test,
/// non-waived code. `context` names the protected region in diagnostics.
fn hygiene_walk(
    path: &str,
    lx: &Lexed,
    rule: &'static str,
    context: &str,
    out: &mut Vec<Diagnostic>,
) {
    let toks = &lx.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.in_test {
            continue;
        }
        // .unwrap( / .expect(
        if (t.is_ident("unwrap") || t.is_ident("expect"))
            && i >= 1
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            // poison-recovery (`unwrap_or_else`) and friends are idents like
            // `unwrap_or_else`, lexed as one token — only exact matches fire.
            diag(
                out,
                path,
                t.line,
                rule,
                format!(
                    "`.{}()` in {context} — return a typed error instead",
                    t.text
                ),
            );
        }
        // panic! / todo! / unimplemented!
        if (t.is_ident("panic") || t.is_ident("todo") || t.is_ident("unimplemented"))
            && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
        {
            diag(
                out,
                path,
                t.line,
                rule,
                format!("`{}!` in {context} — return a typed error instead", t.text),
            );
        }
        // postfix indexing: `[` after a value (ident, `)`, `]`, `?`)
        if t.is_punct('[') && i >= 1 {
            let p = &toks[i - 1];
            let is_value = match p.kind {
                Kind::Ident => !NON_VALUE_KEYWORDS.contains(&p.text.as_str()),
                Kind::Punct => p.is_punct(')') || p.is_punct(']') || p.is_punct('?'),
                _ => false,
            };
            if is_value {
                diag(
                    out,
                    path,
                    t.line,
                    rule,
                    format!(
                        "`[...]` indexing in {context} — use `.get`/`.set`, views, \
                         or iterators"
                    ),
                );
            }
        }
    }
}

/// R4: `pub fn`s in pipeline modules return `Result`. `pub(crate)`/
/// `pub(super)` functions are not public API and are exempt.
pub fn r4_result_surface(path: &str, lx: &Lexed, out: &mut Vec<Diagnostic>) {
    if !in_list(path, R4_FILES) {
        return;
    }
    let toks = &lx.tokens;
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_ident("pub") || toks[i].in_test {
            i += 1;
            continue;
        }
        // pub(crate)/pub(super): restricted visibility → exempt
        if toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            i += 1;
            continue;
        }
        let Some(fn_tok) = toks.get(i + 1) else { break };
        if !fn_tok.is_ident("fn") {
            i += 1;
            continue;
        }
        let Some(name) = toks.get(i + 2) else { break };
        let line = fn_tok.line;
        // scan the signature: from `fn` to the body `{` at paren-depth 0
        let mut depth = 0usize;
        let mut has_result = false;
        let mut k = i + 2;
        while k < toks.len() {
            let t = &toks[k];
            if t.is_punct('(') {
                depth += 1;
            } else if t.is_punct(')') {
                depth = depth.saturating_sub(1);
            } else if (t.is_punct('{') || t.is_punct(';')) && depth == 0 {
                break;
            } else if t.is_ident("Result") {
                has_result = true;
            }
            k += 1;
        }
        if !has_result {
            diag(
                out,
                path,
                line,
                "R4",
                format!(
                    "public pipeline function `{}` does not return `Result` — \
                     surface failures as typed `EvdError`s",
                    name.text
                ),
            );
        }
        i = k + 1;
    }
}

/// R5a: the crate root must carry `#![forbid(unsafe_code)]`.
/// Called only for `crates/*/src/lib.rs` files.
pub fn r5_forbid_unsafe_attr(path: &str, lx: &Lexed, out: &mut Vec<Diagnostic>) {
    let toks = &lx.tokens;
    let found = toks.windows(8).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].is_ident("forbid")
            && w[4].is_punct('(')
            && w[5].is_ident("unsafe_code")
            && w[6].is_punct(')')
            && w[7].is_punct(']')
    });
    if !found {
        diag(
            out,
            path,
            1,
            "R5",
            "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        );
    }
}

/// R5b: no `unsafe` keyword anywhere in non-test code (the attribute makes
/// the compiler enforce this too; the lint reports it with the rest).
pub fn r5_no_unsafe(path: &str, lx: &Lexed, out: &mut Vec<Diagnostic>) {
    for t in &lx.tokens {
        if t.is_ident("unsafe") && !t.in_test {
            diag(
                out,
                path,
                t.line,
                "R5",
                "`unsafe` is banned workspace-wide".to_string(),
            );
        }
    }
}

/// Helper for rules/tests: the first-token line of a lexed stream (or 1).
pub fn first_line(tokens: &[Token]) -> usize {
    tokens.first().map_or(1, |t| t.line)
}

// ---------------------------------------------------------------------------
// Call-graph rules (R8–R11)
// ---------------------------------------------------------------------------

/// Whether a path is under the R3/R7 hot-path hygiene bar (those files are
/// R8's roots, and their own panic sites are already policed file-locally).
fn is_hot_path_file(path: &str) -> bool {
    in_list(path, R3_FILES) || in_list(path, R7_FILES)
}

/// R8: transitive hot-path panic-freedom. Every function defined in an
/// R3/R7 file is a root; a panic-family call (`.unwrap()`, `.expect()`,
/// `panic!`, `todo!`, `unimplemented!`) in any function the roots can
/// reach through the call graph is flagged at the panic site, with the
/// discovery call chain in the message.
pub fn r8_transitive_panics(units: &[FileUnit], g: &Graph, out: &mut Vec<Diagnostic>) {
    let roots: Vec<usize> = (0..g.nodes.len())
        .filter(|&id| !g.def(units, id).in_test && is_hot_path_file(&g.file(units, id).path))
        .collect();
    let (visited, parent) = g.bfs(&roots);
    for (id, seen) in visited.iter().enumerate() {
        if !seen {
            continue;
        }
        let file = g.file(units, id);
        if is_hot_path_file(&file.path) {
            continue; // R3/R7 already cover these files line-locally
        }
        let d = g.def(units, id);
        if d.in_test {
            continue;
        }
        let Some((open, close)) = d.body else {
            continue;
        };
        for (line, what) in callgraph::panic_sites(&file.lx.tokens, open, close) {
            let trace = g.path_to(units, &parent, id);
            diag(
                out,
                &file.path,
                line,
                "R8",
                format!(
                    "`{what}` in `{}` is reachable from a hot path \
                     (call chain: {trace}) — return a typed error instead",
                    d.name
                ),
            );
        }
    }
}

/// Files whose loops carry the cancellation-seam contract (R9): the SBR
/// variants, bulge chasing, the pipeline driver, and the service layer.
pub const R9_FILES: &[&str] = &[
    "crates/band/src/sbr_dbr.rs",
    "crates/band/src/sbr_wy.rs",
    "crates/band/src/sbr_zy.rs",
    "crates/band/src/bulge.rs",
    "crates/core/src/pipeline.rs",
    "crates/serve/",
];

/// R9: cancellation-seam coverage. A loop in an [`R9_FILES`] file whose
/// body performs GEMM-scale work — a direct `.gemm(`/`.syr2k_update(`
/// dispatch or a call into a function that transitively reaches one —
/// must also reach a cancellation check (`is_cancelled`,
/// `cancel_requested`, `check_cancelled`) within the same iteration, the
/// block-column granularity PR 7 promised for job deadlines.
pub fn r9_cancel_seams(units: &[FileUnit], g: &Graph, out: &mut Vec<Diagnostic>) {
    let seed_set = |probe: &dyn Fn(&FileUnit, usize, usize) -> bool| -> Vec<usize> {
        (0..g.nodes.len())
            .filter(|&id| {
                g.def(units, id)
                    .body
                    .is_some_and(|(o, c)| probe(g.file(units, id), o, c))
            })
            .collect()
    };
    let gemm_reach = g.reaching(&seed_set(&|u, o, c| {
        callgraph::has_gemm_dispatch(&u.lx.tokens, o, c)
    }));
    let cancel_reach = g.reaching(&seed_set(&|u, o, c| {
        callgraph::has_cancel_check(&u.lx.tokens, o, c)
    }));
    for (fi, u) in units.iter().enumerate() {
        if !in_list(&u.path, R9_FILES) {
            continue;
        }
        let toks = &u.lx.tokens;
        for lp in &u.parsed.loops {
            if lp.in_test {
                continue;
            }
            let (open, close) = lp.body;
            let caller = g.node_at(units, fi, lp.kw_idx);
            let calls = parser::scan_calls(toks, open + 1, close);
            let transitively = |reach: &[bool]| {
                calls.iter().any(|call| {
                    g.resolve_call(units, caller, call)
                        .iter()
                        .any(|&id| reach[id])
                })
            };
            let gemm_scale =
                callgraph::has_gemm_dispatch(toks, open, close) || transitively(&gemm_reach);
            if !gemm_scale {
                continue;
            }
            let cancelled =
                callgraph::has_cancel_check(toks, open, close) || transitively(&cancel_reach);
            if !cancelled {
                diag(
                    out,
                    &u.path,
                    lp.line,
                    "R9",
                    format!(
                        "`{}` loop performs GEMM-scale work but never reaches a \
                         CancelToken check within an iteration — add a cancellation \
                         seam (deadlines stall without it)",
                        lp.kw
                    ),
                );
            }
        }
    }
}

/// Thread-coordination entry points banned inside parallel regions (R10a).
const R10_SYNC_IDENTS: &[&str] = &[
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "compare_exchange",
    "compare_exchange_weak",
    "lock",
];

/// The pool implementation itself coordinates threads by definition; its
/// determinism is proven by the fixed-partition API contract, not by this
/// token scan.
const R10_SYNC_EXEMPT: &[&str] = &["shims/"];

/// R10a: no cross-thread coordination inside the arguments of
/// `for_each_chunk(…)` / `join(…)` parallel regions. Results must depend
/// only on the fixed partition, never on cross-thread interleaving —
/// an atomic RMW or a mutex inside the closure reintroduces
/// scheduling-order dependence that PR 4's contract forbids.
pub fn r10_parallel_sync(path: &str, u: &FileUnit, out: &mut Vec<Diagnostic>) {
    if in_list(path, R10_SYNC_EXEMPT) {
        return;
    }
    let toks = &u.lx.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.in_test || t.kind != Kind::Ident {
            continue;
        }
        if !(t.text == "for_each_chunk" || t.text == "join")
            || !toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            continue;
        }
        if i >= 1 && toks[i - 1].is_ident("fn") {
            continue; // the definition, not a call
        }
        if t.text == "join" && i >= 1 && toks[i - 1].is_punct('.') {
            continue; // JoinHandle::join, not the fork-join combinator
        }
        let close = parser::match_paren(toks, i + 1);
        for k in (i + 2)..close.min(toks.len()) {
            let s = &toks[k];
            if s.kind == Kind::Ident
                && !s.in_test
                && R10_SYNC_IDENTS.contains(&s.text.as_str())
                && toks.get(k + 1).is_some_and(|n| n.is_punct('('))
            {
                diag(
                    out,
                    path,
                    s.line,
                    "R10",
                    format!(
                        "`{}` inside a `{}` parallel region — cross-thread \
                         coordination breaks the fixed-partition determinism \
                         contract",
                        s.text, t.text
                    ),
                );
            }
        }
    }
}

/// Iteration entry points whose order is nondeterministic on hash
/// collections (R10b).
const R10_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
];

/// Names declared (param, field, or `let`) with a `HashMap`/`HashSet`
/// type anywhere in the file.
fn hash_typed_names(toks: &[Token]) -> std::collections::BTreeSet<String> {
    let mut out = std::collections::BTreeSet::new();
    for i in 0..toks.len() {
        if toks[i].kind != Kind::Ident
            || !toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            || toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        {
            continue;
        }
        let mut depth = 0usize;
        let mut k = i + 2;
        while k < toks.len() {
            let t = &toks[k];
            if t.is_punct('<') || t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct('>') || t.is_punct(')') || t.is_punct(']') {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            } else if depth == 0
                && (t.is_punct(',')
                    || t.is_punct(';')
                    || t.is_punct('=')
                    || t.is_punct('{')
                    || t.is_punct('}'))
            {
                break;
            } else if t.is_ident("HashMap") || t.is_ident("HashSet") {
                out.insert(toks[i].text.clone());
                break;
            }
            k += 1;
        }
    }
    out
}

/// R10b: no iteration over `HashMap`/`HashSet` values in non-test code —
/// hash iteration order varies run to run, so anything it feeds stops
/// being reproducible. Keyed access is fine; iterate a `BTreeMap` or sort
/// the keys first.
pub fn r10_hash_iteration(path: &str, u: &FileUnit, out: &mut Vec<Diagnostic>) {
    let toks = &u.lx.tokens;
    let hashy = hash_typed_names(toks);
    if hashy.is_empty() {
        return;
    }
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.in_test {
            continue;
        }
        if t.kind == Kind::Ident
            && hashy.contains(&t.text)
            && toks.get(i + 1).is_some_and(|n| n.is_punct('.'))
            && toks.get(i + 2).is_some_and(|n| {
                n.kind == Kind::Ident && R10_ITER_METHODS.contains(&n.text.as_str())
            })
            && toks.get(i + 3).is_some_and(|n| n.is_punct('('))
        {
            diag(
                out,
                path,
                t.line,
                "R10",
                format!(
                    "iterating `{}` (HashMap/HashSet) — hash iteration order is \
                     nondeterministic; use a BTree collection or sort the keys",
                    t.text
                ),
            );
        }
        if t.is_ident("in") {
            let mut k = i + 1;
            while toks
                .get(k)
                .is_some_and(|n| n.is_punct('&') || n.is_ident("mut"))
            {
                k += 1;
            }
            if let Some(n) = toks.get(k) {
                if n.kind == Kind::Ident
                    && hashy.contains(&n.text)
                    && toks.get(k + 1).is_some_and(|nn| nn.is_punct('{'))
                {
                    diag(
                        out,
                        path,
                        n.line,
                        "R10",
                        format!(
                            "iterating `{}` (HashMap/HashSet) — hash iteration order \
                             is nondeterministic; use a BTree collection or sort the \
                             keys",
                            n.text
                        ),
                    );
                }
            }
        }
    }
}

/// Identifiers that betray wall-clock or thread-identity data (R10c).
const R10_NONDET_IDENTS: &[&str] = &[
    "elapsed",
    "Instant",
    "now",
    "as_micros",
    "as_nanos",
    "as_millis",
    "as_secs_f64",
    "current_num_threads",
    "available_parallelism",
    "ThreadId",
    "thread_id",
];

/// Counter namespaces exempt from the bit-identical determinism contract:
/// `time.*` (wall clock, PR 6) and `par.*` (scheduling telemetry, PR 4).
const R10_EXEMPT_PREFIXES: &[&str] = &["time.", "par."];

/// R10c: counter/histogram writes (`.add(`, `.record(`, `.set_max(`)
/// whose value derives from wall-clock or thread identity must live in a
/// determinism-exempt namespace, so `diff`ing two runs' counters stays a
/// valid regression check.
pub fn r10_counter_namespace(path: &str, u: &FileUnit, out: &mut Vec<Diagnostic>) {
    let toks = &u.lx.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.in_test
            || t.kind != Kind::Ident
            || !matches!(t.text.as_str(), "add" | "record" | "set_max")
            || !(i >= 1 && toks[i - 1].is_punct('.'))
            || !toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            continue;
        }
        let close = parser::match_paren(toks, i + 1).min(toks.len());
        // label: the first string literal in the argument list (either
        // direct or inside a `&format!("…")` builder)
        let Some(label_tok) = toks[i + 2..close].iter().find(|s| s.kind == Kind::Str) else {
            continue;
        };
        if R10_EXEMPT_PREFIXES
            .iter()
            .any(|p| label_tok.text.starts_with(p))
        {
            continue;
        }
        if let Some(s) = toks[i + 2..close]
            .iter()
            .find(|s| s.kind == Kind::Ident && R10_NONDET_IDENTS.contains(&s.text.as_str()))
        {
            diag(
                out,
                path,
                label_tok.line,
                "R10",
                format!(
                    "counter {:?} is written from wall-clock/thread-identity data \
                     (`{}`) outside the determinism-exempt `time.`/`par.` namespaces",
                    label_tok.text, s.text
                ),
            );
        }
    }
}

/// The canonical Mutex acquisition order in `crates/serve` (R11a). A
/// thread may only acquire a mutex *later* in this list than every mutex
/// it already holds.
pub const LOCK_ORDER: &[&str] = &["state", "cache", "workers"];

/// R11: lock/condvar discipline in the service layer.
///
/// * **a** — Mutexes named in [`LOCK_ORDER`] must be acquired in list
///   order; `lock(…)` calls are tracked per function body, with let-bound
///   guards held until `drop(guard)` or rebinding (block scopes are not
///   modeled — a guard is assumed held to end of function).
/// * **b** — condvar `.wait()`/`.wait_timeout()` (receiver named `*_cv`/
///   `cond*`) must sit inside a loop that re-checks its predicate.
/// * **c** — raw `.lock()` method calls are banned in favor of the
///   poison-recovering `lock()` helper, so one panicked job can never
///   wedge the scheduler behind a poisoned mutex.
pub fn r11_serve_locks(path: &str, u: &FileUnit, out: &mut Vec<Diagnostic>) {
    if !in_list(path, R7_FILES) {
        return;
    }
    let toks = &u.lx.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.in_test || t.kind != Kind::Ident {
            continue;
        }
        // (c) raw .lock(
        if t.text == "lock"
            && i >= 1
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            diag(
                out,
                path,
                t.line,
                "R11",
                "raw `Mutex::lock()` — use the poison-recovering `lock()` helper \
                 so a panicked job cannot wedge the scheduler"
                    .to_string(),
            );
        }
        // (b) condvar wait outside a predicate loop
        if (t.text == "wait" || t.text == "wait_timeout")
            && i >= 2
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            let recv = &toks[i - 2];
            let is_cv = recv.kind == Kind::Ident
                && (recv.text.ends_with("_cv") || recv.text == "cv" || recv.text.contains("cond"));
            if is_cv && !u.parsed.loops.iter().any(|l| l.body.0 < i && i < l.body.1) {
                diag(
                    out,
                    path,
                    t.line,
                    "R11",
                    format!(
                        "condvar `.{}()` outside a predicate re-check loop — a \
                         spurious wakeup would break the wait condition",
                        t.text
                    ),
                );
            }
        }
    }
    // (a) acquisition order, tracked per function body
    for f in &u.parsed.fns {
        if f.in_test {
            continue;
        }
        let Some((open, close)) = f.body else {
            continue;
        };
        let mut held: Vec<(String, usize)> = Vec::new(); // (guard var, order idx)
        for i in (open + 1)..close {
            let t = &toks[i];
            if t.kind != Kind::Ident {
                continue;
            }
            if t.text == "drop" && toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
                if let Some(v) = toks.get(i + 2).filter(|n| n.kind == Kind::Ident) {
                    held.retain(|(hv, _)| hv != &v.text);
                }
                continue;
            }
            if t.text != "lock"
                || !toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                || (i >= 1 && toks[i - 1].is_ident("fn"))
            {
                continue;
            }
            let p_close = parser::match_paren(toks, i + 1).min(toks.len());
            let Some(mutex) = toks[i + 2..p_close]
                .iter()
                .rev()
                .find(|n| n.kind == Kind::Ident)
            else {
                continue;
            };
            let Some(oi) = LOCK_ORDER.iter().position(|x| *x == mutex.text) else {
                continue;
            };
            for (hv, ho) in &held {
                if *ho > oi {
                    diag(
                        out,
                        path,
                        t.line,
                        "R11",
                        format!(
                            "`{}` acquired while `{hv}` (guarding `{}`) is held — \
                             canonical acquisition order is {}",
                            mutex.text,
                            LOCK_ORDER[*ho],
                            LOCK_ORDER.join(" → ")
                        ),
                    );
                }
            }
            // let-bound (or rebound) guard → held; statement temp → not.
            // The binding only holds the guard when `lock(…)` is the whole
            // initializer (`let st = lock(…);`) — a trailing method/field
            // chain (`let v = lock(…).get(&k);`) binds the chain's result
            // and drops the guard at end of statement.
            if i >= 2
                && toks[i - 1].is_punct('=')
                && !toks[i - 2].is_punct('=')
                && toks.get(p_close + 1).is_some_and(|n| n.is_punct(';'))
            {
                if let Some(v) = toks.get(i - 2).filter(|n| n.kind == Kind::Ident) {
                    held.retain(|(hv, _)| hv != &v.text);
                    held.push((v.text.clone(), oi));
                }
            }
        }
    }
}

/// `(mr, nr)` microkernel shapes instantiated per tier in
/// `crates/matrix/src/tile.rs` (`kernel_for`). Mirrored here because the
/// lint engine is dependency-free; `tile.rs`'s own tests
/// (`wide_candidates_are_all_instantiated_and_valid`,
/// `committed_table_is_valid_and_covers_both_scalars`) keep the real list
/// honest, and a mismatch shows up as R12 firing on a table the matrix
/// crate accepts (or vice versa).
const R12_SCALAR_KERNELS: &[(u64, u64)] = &[(4, 4), (8, 4), (8, 8), (16, 4)];
const R12_WIDE_KERNELS: &[(u64, u64)] = &[(8, 4), (8, 8), (16, 4), (16, 8), (32, 4), (32, 8)];
/// The blas3 column-chunk width every `nr` must divide (`blas3::NC`).
const R12_NC: u64 = 32;

/// R12: the committed GEMM tuning table
/// (`crates/matrix/tuning/default.tune`) parses and satisfies the
/// dispatch invariants `tile::shape_valid` enforces at load time:
/// `scalar ∈ {f32, f64}`, `class ∈ {square, outer, tall}`,
/// `tier ∈ {scalar, wide}`, `(mr, nr)` names an instantiated kernel,
/// `mc % mr == 0`, `NC % nr == 0`, and no `(scalar, class)` pair is
/// listed twice (dispatch would silently keep the first). The runtime
/// parser drops bad lines silently by design — panic-free loading — so
/// the lint is where a typo in a committed table becomes visible.
pub fn r12_tuning_table(path: &str, text: &str, out: &mut Vec<Diagnostic>) {
    let mut entries = 0usize;
    let mut seen: Vec<(String, String)> = Vec::new();
    for (ln0, raw) in text.lines().enumerate() {
        let line = ln0 + 1;
        let body = raw.split('#').next().unwrap_or("").trim();
        if body.is_empty() {
            continue;
        }
        let f: Vec<&str> = body.split_whitespace().collect();
        let [scalar, class, tier, mr, nr, mc] = f.as_slice() else {
            diag(
                out,
                path,
                line,
                "R12",
                format!(
                    "malformed tuning entry ({} fields, want 6: scalar class \
                     tier mr nr mc) — the runtime parser drops this line \
                     silently",
                    f.len()
                ),
            );
            continue;
        };
        entries += 1;
        if !["f32", "f64"].contains(scalar) {
            diag(
                out,
                path,
                line,
                "R12",
                format!("unknown scalar `{scalar}` (want f32 or f64)"),
            );
        }
        if !["square", "outer", "tall"].contains(class) {
            diag(
                out,
                path,
                line,
                "R12",
                format!("unknown shape class `{class}` (want square, outer or tall)"),
            );
        }
        let (Ok(mr), Ok(nr), Ok(mc)) = (mr.parse::<u64>(), nr.parse::<u64>(), mc.parse::<u64>())
        else {
            diag(
                out,
                path,
                line,
                "R12",
                "non-numeric tile shape (mr nr mc must be integers)".to_string(),
            );
            continue;
        };
        let kernels = match *tier {
            "scalar" => R12_SCALAR_KERNELS,
            "wide" => R12_WIDE_KERNELS,
            other => {
                diag(
                    out,
                    path,
                    line,
                    "R12",
                    format!("unknown tier `{other}` (want scalar or wide)"),
                );
                continue;
            }
        };
        if !kernels.contains(&(mr, nr)) {
            diag(
                out,
                path,
                line,
                "R12",
                format!(
                    "no {tier}-tier microkernel instantiated for (mr, nr) = \
                     ({mr}, {nr}) — see `kernel_for` in crates/matrix/src/tile.rs"
                ),
            );
        }
        if mr == 0 || !mc.is_multiple_of(mr) {
            diag(
                out,
                path,
                line,
                "R12",
                format!("mc = {mc} is not a multiple of mr = {mr}"),
            );
        }
        if nr == 0 || !R12_NC.is_multiple_of(nr) {
            diag(
                out,
                path,
                line,
                "R12",
                format!("nr = {nr} does not divide the blas3 column chunk NC = {R12_NC}"),
            );
        }
        let key = (scalar.to_string(), class.to_string());
        if seen.contains(&key) {
            diag(
                out,
                path,
                line,
                "R12",
                format!(
                    "duplicate entry for ({scalar}, {class}) — dispatch keeps \
                     the first and this line is dead"
                ),
            );
        } else {
            seen.push(key);
        }
    }
    if entries == 0 {
        diag(
            out,
            path,
            1,
            "R12",
            "tuning table is missing or holds no entries — dispatch would \
             run entirely on built-in defaults"
                .to_string(),
        );
    }
}

#[cfg(test)]
mod tune_tests {
    use super::*;

    fn run(text: &str) -> Vec<String> {
        let mut out = Vec::new();
        r12_tuning_table("crates/matrix/tuning/default.tune", text, &mut out);
        out.iter().map(|d| d.to_string()).collect()
    }

    #[test]
    fn valid_table_is_clean() {
        let text = "# comment\nf32 square wide 8 8 256 # 35 GF/s\nf64 tall scalar 8 4 128\n";
        assert_eq!(run(text), Vec::<String>::new());
    }

    #[test]
    fn each_invariant_violation_fires() {
        // wrong field count
        assert!(run("f32 square wide 8 8\n")[0].contains("malformed"));
        // unknown scalar / class / tier
        assert!(run("f16 square wide 8 8 256\n")[0].contains("unknown scalar"));
        assert!(run("f32 round wide 8 8 256\n")[0].contains("unknown shape class"));
        assert!(run("f32 square simd 8 8 256\n")[0].contains("unknown tier"));
        // non-numeric shape
        assert!(run("f32 square wide a 8 256\n")[0].contains("non-numeric"));
        // uninstantiated kernel shape
        assert!(run("f32 square wide 12 8 24\n")[0].contains("no wide-tier microkernel"));
        // mc % mr and NC % nr
        assert!(run("f32 square wide 8 8 100\n")[0].contains("not a multiple"));
        assert!(run("f32 square scalar 4 4 64\nf32 outer wide 8 12 24\n")
            .iter()
            .any(|d| d.contains("does not divide")));
        // duplicate (scalar, class)
        assert!(run("f32 square wide 8 8 256\nf32 square scalar 4 4 64\n")
            .iter()
            .any(|d| d.contains("duplicate entry")));
    }

    #[test]
    fn empty_table_is_flagged_once() {
        let d = run("# only comments\n");
        assert_eq!(d.len(), 1);
        assert!(d[0].contains("no entries"));
    }
}
