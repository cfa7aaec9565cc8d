//! Workspace call graph over the [`crate::parser`] output.
//!
//! Nodes are function definitions; edges are resolved call expressions.
//! Resolution is heuristic (name + receiver candidates, see
//! [`Graph::resolve_call`]) and intentionally conservative for R8: an
//! unknown receiver fans out to *every* workspace method of that name, so
//! a panicking helper is never missed because type inference was too weak.
//! The price — occasional spurious edges — is bounded by how unique method
//! names are in this workspace, and the false-negative classes that remain
//! are documented in DESIGN.md §6.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::lexer::{Kind, Lexed, Token};
use crate::parser::{self, CallSite, FnDef, ParsedFile, Receiver};

/// One lexed + parsed source file, addressed by workspace-relative path.
pub struct FileUnit {
    pub path: String,
    pub lx: Lexed,
    pub parsed: ParsedFile,
}

impl FileUnit {
    pub fn new(path: &str, src: &str) -> FileUnit {
        let lx = crate::lexer::lex(src, crate::is_test_path(path));
        let parsed = parser::parse(&lx);
        FileUnit {
            path: path.to_string(),
            lx,
            parsed,
        }
    }
}

/// Variable-name hints for receivers whose type the parser cannot see
/// (fields, loop bindings): the workspace's naming conventions are strong
/// enough to pin these.
fn name_hint(var: &str) -> Option<&'static str> {
    if var == "ctx" {
        return Some("GemmContext");
    }
    if var == "sink" || var.ends_with("_sink") {
        return Some("TraceSink");
    }
    None
}

/// A call-graph edge: callee node plus the call line in the caller's file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    pub callee: usize,
    pub line: usize,
}

/// The workspace call graph. Node ids index [`Graph::nodes`].
pub struct Graph {
    /// `(file index, fn index within that file's ParsedFile)`.
    pub nodes: Vec<(usize, usize)>,
    /// Forward edges per node, sorted and deduplicated.
    pub edges: Vec<Vec<Edge>>,
    /// Reverse adjacency (callers per node).
    pub callers: Vec<Vec<usize>>,
    /// Methods (fns with an impl owner) by name.
    methods: BTreeMap<String, Vec<usize>>,
    /// Free functions (no impl owner) by name.
    free: BTreeMap<String, Vec<usize>>,
    /// All impl owner type names in the workspace.
    owners: BTreeSet<String>,
}

impl Graph {
    pub fn build(units: &[FileUnit]) -> Graph {
        let mut nodes = Vec::new();
        for (fi, u) in units.iter().enumerate() {
            for gi in 0..u.parsed.fns.len() {
                nodes.push((fi, gi));
            }
        }
        let mut methods: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut free: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut owners = BTreeSet::new();
        for (id, &(fi, gi)) in nodes.iter().enumerate() {
            let f = &units[fi].parsed.fns[gi];
            if let Some(o) = &f.owner {
                owners.insert(o.clone());
                methods.entry(f.name.clone()).or_default().push(id);
            } else {
                free.entry(f.name.clone()).or_default().push(id);
            }
        }
        let mut g = Graph {
            edges: vec![Vec::new(); nodes.len()],
            callers: vec![Vec::new(); nodes.len()],
            nodes,
            methods,
            free,
            owners,
        };
        for id in 0..g.nodes.len() {
            let (fi, gi) = g.nodes[id];
            let f = &units[fi].parsed.fns[gi];
            let Some((open, close)) = f.body else {
                continue;
            };
            let mut edges = Vec::new();
            for call in parser::scan_calls(&units[fi].lx.tokens, open + 1, close) {
                for callee in g.resolve_call(units, Some(id), &call) {
                    if callee != id {
                        edges.push(Edge {
                            callee,
                            line: call.line,
                        });
                    }
                }
            }
            edges.sort();
            edges.dedup_by_key(|e| e.callee);
            g.edges[id] = edges;
        }
        for id in 0..g.nodes.len() {
            for e in &g.edges[id] {
                g.callers[e.callee].push(id);
            }
        }
        g
    }

    /// The `FnDef` behind a node id.
    pub fn def<'a>(&self, units: &'a [FileUnit], id: usize) -> &'a FnDef {
        let (fi, gi) = self.nodes[id];
        &units[fi].parsed.fns[gi]
    }

    /// The file a node lives in.
    pub fn file<'a>(&self, units: &'a [FileUnit], id: usize) -> &'a FileUnit {
        &units[self.nodes[id].0]
    }

    /// The innermost function whose body contains token `tok` of file `fi`.
    pub fn node_at(&self, units: &[FileUnit], fi: usize, tok: usize) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None; // (span len, id)
        for (id, &(nfi, gi)) in self.nodes.iter().enumerate() {
            if nfi != fi {
                continue;
            }
            if let Some((open, close)) = units[nfi].parsed.fns[gi].body {
                if open < tok && tok < close {
                    let len = close - open;
                    if best.is_none_or(|(bl, _)| len < bl) {
                        best = Some((len, id));
                    }
                }
            }
        }
        best.map(|(_, id)| id)
    }

    /// Resolve one call expression to candidate callee nodes.
    ///
    /// Heuristics, in order:
    /// * free calls → owner-less functions of that name;
    /// * `Type::m(…)` → methods of exactly that owner (empty when the type
    ///   is not implemented in the workspace);
    /// * `self.m(…)` → methods of the enclosing impl's owner;
    /// * `name.m(…)` with a declared/inferred type or a `name_hint` → the
    ///   candidate types' methods; a candidate set that matches nothing in
    ///   the workspace resolves to nothing (external types stay external);
    /// * `name.m(…)` with no candidates, and opaque receivers (`expr).m`)
    ///   → **all** workspace methods named `m` (conservative for R8).
    pub fn resolve_call(
        &self,
        units: &[FileUnit],
        caller: Option<usize>,
        call: &CallSite,
    ) -> Vec<usize> {
        let all_methods = |name: &str| self.methods.get(name).cloned().unwrap_or_default();
        let methods_of = |name: &str, owners: &[String]| -> Vec<usize> {
            all_methods(name)
                .into_iter()
                .filter(|&id| {
                    self.def(units, id)
                        .owner
                        .as_ref()
                        .is_some_and(|o| owners.iter().any(|c| c == o))
                })
                .collect()
        };
        match &call.recv {
            Receiver::Free => self.free.get(&call.name).cloned().unwrap_or_default(),
            Receiver::Type(t) => {
                if self.owners.contains(t) {
                    methods_of(&call.name, std::slice::from_ref(t))
                } else if t.len() <= 2 {
                    // A one/two-letter type that implements nothing in the
                    // workspace is almost surely a generic parameter
                    // (`T::gemm_microkernel(…)`) — fan out like an unknown
                    // receiver so trait-dispatched kernels stay reachable.
                    all_methods(&call.name)
                } else {
                    Vec::new()
                }
            }
            Receiver::SelfRecv => {
                let Some(owner) = caller.and_then(|c| self.def(units, c).owner.clone()) else {
                    return Vec::new();
                };
                methods_of(&call.name, &[owner])
            }
            Receiver::Named(v) => {
                let cands: Vec<String> = caller
                    .and_then(|c| self.def(units, c).locals.get(v).cloned())
                    .or_else(|| name_hint(v).map(|h| vec![h.to_string()]))
                    .unwrap_or_default();
                if cands.is_empty() {
                    all_methods(&call.name)
                } else {
                    methods_of(&call.name, &cands)
                }
            }
            Receiver::Opaque => all_methods(&call.name),
        }
    }

    /// Forward BFS from `roots`; returns `(visited, parent)` where
    /// `parent[n]` is `(caller node, call line)` on the discovery path
    /// (`None` for roots and unvisited nodes).
    pub fn bfs(&self, roots: &[usize]) -> (Vec<bool>, Vec<Option<(usize, usize)>>) {
        let mut visited = vec![false; self.nodes.len()];
        let mut parent = vec![None; self.nodes.len()];
        let mut q = VecDeque::new();
        for &r in roots {
            if !visited[r] {
                visited[r] = true;
                q.push_back(r);
            }
        }
        while let Some(n) = q.pop_front() {
            for e in &self.edges[n] {
                if !visited[e.callee] {
                    visited[e.callee] = true;
                    parent[e.callee] = Some((n, e.line));
                    q.push_back(e.callee);
                }
            }
        }
        (visited, parent)
    }

    /// Backward-closed reachability: all nodes from which a seed node is
    /// reachable (seeds included). Used for "transitively performs
    /// GEMM-scale work" / "transitively checks cancellation" taint sets.
    pub fn reaching(&self, seeds: &[usize]) -> Vec<bool> {
        let mut reach = vec![false; self.nodes.len()];
        let mut q: VecDeque<usize> = VecDeque::new();
        for &s in seeds {
            if !reach[s] {
                reach[s] = true;
                q.push_back(s);
            }
        }
        while let Some(n) = q.pop_front() {
            for &c in &self.callers[n] {
                if !reach[c] {
                    reach[c] = true;
                    q.push_back(c);
                }
            }
        }
        reach
    }

    /// Format the BFS discovery path `root → … → node` as fn names.
    pub fn path_to(
        &self,
        units: &[FileUnit],
        parent: &[Option<(usize, usize)>],
        mut node: usize,
    ) -> String {
        let mut names = vec![self.def(units, node).name.clone()];
        while let Some((p, _)) = parent[node] {
            names.push(self.def(units, p).name.clone());
            node = p;
        }
        names.reverse();
        names.join(" → ")
    }
}

/// Token-span scans shared by the call-graph rules. All skip test-region
/// tokens.
///
/// Panic sites: `.unwrap(` / `.expect(` / `panic!` / `todo!` /
/// `unimplemented!` — the same family R3/R7 ban file-locally.
/// (`unreachable!`, `assert!`, and `[...]` indexing are *not* treated as
/// transitive panic sources; see DESIGN.md §6 for the rationale.)
pub fn panic_sites(toks: &[Token], open: usize, close: usize) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let close = close.min(toks.len());
    for i in open..close {
        let t = &toks[i];
        if t.kind != Kind::Ident || t.in_test {
            continue;
        }
        if (t.text == "unwrap" || t.text == "expect")
            && i >= 1
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            out.push((t.line, format!(".{}()", t.text)));
        }
        if matches!(t.text.as_str(), "panic" | "todo" | "unimplemented")
            && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
        {
            out.push((t.line, format!("{}!", t.text)));
        }
    }
    out
}

/// Whether a token span directly dispatches GEMM-scale work
/// (`.gemm(` / `.syr2k_update(`).
pub fn has_gemm_dispatch(toks: &[Token], open: usize, close: usize) -> bool {
    let close = close.min(toks.len());
    (open..close).any(|i| {
        toks[i].is_punct('.')
            && toks
                .get(i + 1)
                .is_some_and(|t| t.is_ident("gemm") || t.is_ident("syr2k_update"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
    })
}

/// Identifiers that constitute a cancellation check.
pub const CANCEL_IDENTS: &[&str] = &[
    "is_cancelled",
    "cancel_requested",
    "check_cancelled",
    "take_cancel_failure",
];

/// Whether a token span checks cancellation (directly).
pub fn has_cancel_check(toks: &[Token], open: usize, close: usize) -> bool {
    let close = close.min(toks.len());
    toks[open..close]
        .iter()
        .any(|t| t.kind == Kind::Ident && CANCEL_IDENTS.contains(&t.text.as_str()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn units(files: &[(&str, &str)]) -> Vec<FileUnit> {
        files.iter().map(|(p, s)| FileUnit::new(p, s)).collect()
    }

    fn node(units: &[FileUnit], g: &Graph, name: &str) -> usize {
        (0..g.nodes.len())
            .find(|&id| g.def(units, id).name == name)
            .unwrap()
    }

    #[test]
    fn edges_resolve_free_method_and_typed_calls() {
        let us = units(&[
            (
                "crates/a/src/lib.rs",
                r#"
pub struct Mat;
impl Mat {
    pub fn helper(&self) { boom(); }
}
pub fn boom() { panic!("x"); }
pub fn entry(m: &Mat) { m.helper(); }
"#,
            ),
            (
                "crates/b/src/lib.rs",
                "pub fn other(v: &Vec<u8>) { v.helper(); }",
            ),
        ]);
        let g = Graph::build(&us);
        let entry = node(&us, &g, "entry");
        let helper = node(&us, &g, "helper");
        let boom = node(&us, &g, "boom");
        assert!(g.edges[entry].iter().any(|e| e.callee == helper));
        assert!(g.edges[helper].iter().any(|e| e.callee == boom));
        // `v: Vec<u8>` — a known non-workspace candidate set resolves to
        // nothing, so `other` gains no edge to Mat::helper.
        let other = node(&us, &g, "other");
        assert!(g.edges[other].is_empty());
    }

    #[test]
    fn unknown_receiver_fans_out_and_bfs_traces_paths() {
        let us = units(&[(
            "crates/a/src/lib.rs",
            r#"
pub struct S;
impl S {
    pub fn risky(&self) { self.deeper(); }
    pub fn deeper(&self) { x.unwrap(); }
}
pub fn root() { mystery.risky(); }
"#,
        )]);
        let g = Graph::build(&us);
        let root = node(&us, &g, "root");
        let deeper = node(&us, &g, "deeper");
        let (visited, parent) = g.bfs(&[root]);
        assert!(visited[deeper], "unknown receiver must fan out");
        assert_eq!(g.path_to(&us, &parent, deeper), "root → risky → deeper");
        let (fi, gi) = g.nodes[deeper];
        let (open, close) = us[fi].parsed.fns[gi].body.unwrap();
        let sites = panic_sites(&us[fi].lx.tokens, open, close);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].1, ".unwrap()");
    }

    #[test]
    fn reaching_sets_propagate_to_callers() {
        let us = units(&[(
            "crates/a/src/lib.rs",
            r#"
pub struct Ctx;
impl Ctx {
    pub fn gemm(&self, label: &str) {}
}
pub fn inner(ctx: &Ctx) { ctx.gemm("l"); }
pub fn outer(ctx: &Ctx) { inner(ctx); }
pub fn unrelated() {}
"#,
        )]);
        let g = Graph::build(&us);
        let seeds: Vec<usize> = (0..g.nodes.len())
            .filter(|&id| {
                let d = g.def(&us, id);
                d.body
                    .is_some_and(|(o, c)| has_gemm_dispatch(&g.file(&us, id).lx.tokens, o, c))
            })
            .collect();
        let reach = g.reaching(&seeds);
        assert!(reach[node(&us, &g, "inner")]);
        assert!(reach[node(&us, &g, "outer")]);
        assert!(!reach[node(&us, &g, "unrelated")]);
    }
}
