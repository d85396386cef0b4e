//! NS0006: lock-order cycle detection across `crates/core/src/runtime/`
//! and `crates/wire/src/sync/`.
//!
//! A heuristic whole-module analysis, not a proof: lock identity is the
//! receiver's tail identifier at each `.lock()` site (`self.in_flight
//! .lock()` → lock `in_flight`). Per function we approximate guard
//! liveness — a `let`-bound guard lives to the end of its enclosing
//! block (or an explicit `drop(guard)`), a temporary to the end of its
//! statement — and record an ordered edge `A → B` whenever `B` is
//! acquired while `A` is live. `self.helper(..)` and plain `helper(..)`
//! calls made while holding a lock propagate the callee's lock summary
//! (computed to a fixpoint over the runtime call graph, resolved
//! same-file first, then by unique name); other call shapes are not
//! tracked because bare-name resolution would fabricate edges. Any cycle
//! in the resulting order graph is a potential deadlock and is denied
//! with a witness path; benign edges are suppressed at the acquisition
//! site with `// lint-allow(NS0006): <why the order cannot invert>`.

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::{Code, Diagnostic, Severity};
use crate::lexer::{Tok, TokKind};
use crate::source::SourceFile;

/// One acquisition event inside a function body.
struct LockEv {
    id: String,
    ti: usize,
    /// Last token index at which the guard is (conservatively) live.
    end: usize,
    line: u32,
}

/// One call made inside a function body.
struct CallEv {
    name: String,
    ti: usize,
    line: u32,
}

struct FnInfo {
    file: usize,
    name: String,
    locks: Vec<LockEv>,
    calls: Vec<CallEv>,
}

/// An ordered edge `from → to`, acquired (or entered via a call) at
/// `file:line`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Edge {
    to: String,
    file: String,
    line: u32,
}

pub fn ns0006(files: &[SourceFile], out: &mut Vec<Diagnostic>) {
    let mut infos: Vec<FnInfo> = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        if !super::in_runtime(&f.rel) {
            continue;
        }
        for (xi, item) in f.fns.iter().enumerate() {
            if f.in_test(item.line) {
                continue;
            }
            // Token ranges of fns nested inside this one: their code does
            // not run at the definition site.
            let nested: Vec<(usize, usize)> = f
                .fns
                .iter()
                .enumerate()
                .filter(|(oi, o)| {
                    *oi != xi && o.body_open > item.body_open && o.body_close < item.body_close
                })
                .map(|(_, o)| (o.body_open, o.body_close))
                .collect();
            let in_nested = |ti: usize| nested.iter().any(|&(a, b)| a <= ti && ti <= b);

            let toks = &f.toks;
            let mut locks = Vec::new();
            let mut calls = Vec::new();
            let mut i = item.body_open + 1;
            while i < item.body_close {
                if in_nested(i) || f.in_test(toks[i].line) {
                    i += 1;
                    continue;
                }
                let prev_dot = i > 0 && toks[i - 1].is_punct('.');
                let next_paren = toks.get(i + 1).is_some_and(|t| t.is_punct('('));
                if let Some(name) = toks[i].ident() {
                    if name == "lock" && prev_dot && next_paren {
                        if let Some(id) = receiver_tail(toks, i - 1) {
                            let (let_bound, binding) = let_binding(toks, i);
                            let end = live_end(
                                toks,
                                i,
                                item.body_close,
                                let_bound,
                                binding.as_deref(),
                            );
                            locks.push(LockEv {
                                id,
                                ti: i,
                                end,
                                line: toks[i].line,
                            });
                        }
                    } else if next_paren && is_callee(toks, i, name) {
                        calls.push(CallEv {
                            name: name.to_string(),
                            ti: i,
                            line: toks[i].line,
                        });
                    }
                }
                i += 1;
            }
            infos.push(FnInfo {
                file: fi,
                name: item.name.clone(),
                locks,
                calls,
            });
        }
    }

    // Fixpoint lock summaries: every lock a call to fn `k` may acquire.
    let mut summaries: Vec<BTreeSet<String>> = infos
        .iter()
        .map(|fi| fi.locks.iter().map(|l| l.id.clone()).collect())
        .collect();
    for _round in 0..50 {
        let mut changed = false;
        for k in 0..infos.len() {
            let mut add: BTreeSet<String> = BTreeSet::new();
            for c in &infos[k].calls {
                if let Some(target) = resolve(&infos, k, &c.name) {
                    add.extend(summaries[target].iter().cloned());
                }
            }
            for id in add {
                changed |= summaries[k].insert(id);
            }
        }
        if !changed {
            break;
        }
    }

    // Order edges: direct nesting plus calls made under a held lock.
    let mut graph: BTreeMap<String, BTreeSet<Edge>> = BTreeMap::new();
    for (k, info) in infos.iter().enumerate() {
        let f = &files[info.file];
        let allowed = |line: u32| f.allowed(Code::LockOrderCycle.as_str(), line);
        for l in &info.locks {
            for l2 in &info.locks {
                if l2.ti > l.ti && l2.ti <= l.end && !allowed(l2.line) {
                    graph.entry(l.id.clone()).or_default().insert(Edge {
                        to: l2.id.clone(),
                        file: f.rel.clone(),
                        line: l2.line,
                    });
                }
            }
            for c in &info.calls {
                if c.ti > l.ti && c.ti <= l.end && !allowed(c.line) {
                    if let Some(target) = resolve(&infos, k, &c.name) {
                        for id in &summaries[target] {
                            graph.entry(l.id.clone()).or_default().insert(Edge {
                                to: id.clone(),
                                file: f.rel.clone(),
                                line: c.line,
                            });
                        }
                    }
                }
            }
        }
    }

    // Cycle detection with witness extraction, deduped by node set.
    let mut seen: BTreeSet<Vec<String>> = BTreeSet::new();
    let nodes: Vec<String> = graph.keys().cloned().collect();
    for start in &nodes {
        let mut path: Vec<(String, Option<Edge>)> = vec![(start.clone(), None)];
        let mut on_path: BTreeSet<String> = [start.clone()].into();
        dfs_cycles(&graph, &mut path, &mut on_path, &mut seen, out);
    }
}

fn dfs_cycles(
    graph: &BTreeMap<String, BTreeSet<Edge>>,
    path: &mut Vec<(String, Option<Edge>)>,
    on_path: &mut BTreeSet<String>,
    seen: &mut BTreeSet<Vec<String>>,
    out: &mut Vec<Diagnostic>,
) {
    let here = path.last().expect("path nonempty").0.clone();
    let Some(edges) = graph.get(&here) else {
        return;
    };
    for e in edges {
        if on_path.contains(&e.to) {
            // Cycle: from the first occurrence of e.to on the path.
            let from = path.iter().position(|(n, _)| n == &e.to).unwrap_or(0);
            let mut names: Vec<String> =
                path[from..].iter().map(|(n, _)| n.clone()).collect();
            names.sort();
            if seen.insert(names) {
                report_cycle(&path[from..], e, out);
            }
            continue;
        }
        if path.len() > 32 {
            continue; // Depth bound; runtime lock graphs are tiny.
        }
        on_path.insert(e.to.clone());
        path.push((e.to.clone(), Some(e.clone())));
        dfs_cycles(graph, path, on_path, seen, out);
        let (popped, _) = path.pop().expect("pushed above");
        on_path.remove(&popped);
    }
}

fn report_cycle(segment: &[(String, Option<Edge>)], closing: &Edge, out: &mut Vec<Diagnostic>) {
    let mut witness = String::new();
    for (i, (node, via)) in segment.iter().enumerate() {
        if i > 0 {
            if let Some(e) = via {
                witness.push_str(&format!(" -> `{}` ({}:{})", node, e.file, e.line));
                continue;
            }
        }
        witness.push_str(&format!("`{node}`"));
    }
    witness.push_str(&format!(
        " -> `{}` ({}:{})",
        closing.to, closing.file, closing.line
    ));
    out.push(Diagnostic {
        code: Code::LockOrderCycle,
        severity: Severity::Error,
        file: closing.file.clone(),
        line: closing.line,
        message: format!("lock-order cycle: {witness}"),
        suggestion: "two threads taking these locks in opposite orders can deadlock; impose a \
                     single global acquisition order (or drop the first guard before taking \
                     the second), or justify the site with `// lint-allow(NS0006): <why the \
                     order cannot invert>`"
            .to_string(),
    });
}

/// Resolves a callee name: a fn in the same file wins, else a uniquely
/// named fn anywhere in the runtime set, else unknown.
fn resolve(infos: &[FnInfo], from: usize, name: &str) -> Option<usize> {
    let same_file = infos
        .iter()
        .position(|i| i.name == name && i.file == infos[from].file);
    if same_file.is_some() {
        return same_file;
    }
    let mut hits = infos.iter().enumerate().filter(|(_, i)| i.name == name);
    let first = hits.next()?;
    if hits.next().is_some() {
        return None; // Ambiguous across files: don't guess.
    }
    Some(first.0)
}

/// The identifier naming the lock receiver, given the token index of the
/// `.` before `lock`. `self.in_flight.lock()` → `in_flight`;
/// `cell.lock()` → `cell`; `).lock()` → unknown.
fn receiver_tail(toks: &[Tok], dot: usize) -> Option<String> {
    if dot == 0 {
        return None;
    }
    match &toks[dot - 1].kind {
        TokKind::Ident(s) if s != "self" => Some(s.clone()),
        // `self.lock()` — the object itself is the lock.
        TokKind::Ident(s) => Some(s.clone()),
        _ => None,
    }
}

/// Whether the statement containing the `.lock()` at `ti` is a `let`
/// binding, and the binding name if it is a simple pattern.
fn let_binding(toks: &[Tok], ti: usize) -> (bool, Option<String>) {
    let mut i = ti;
    let mut depth = 0i32;
    while i > 0 {
        let t = &toks[i - 1];
        match t.kind {
            TokKind::Punct('}') | TokKind::Punct(')') | TokKind::Punct(']') => depth += 1,
            TokKind::Punct('{') | TokKind::Punct('(') | TokKind::Punct('[') => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            TokKind::Punct(';') if depth == 0 => break,
            _ => {}
        }
        i -= 1;
    }
    if !toks.get(i).is_some_and(|t| t.is_ident("let")) {
        return (false, None);
    }
    let mut j = i + 1;
    while toks.get(j).is_some_and(|t| t.is_ident("mut")) {
        j += 1;
    }
    (true, toks.get(j).and_then(|t| t.ident().map(str::to_string)))
}

/// Conservative guard liveness: a temporary dies at the end of its
/// statement; a `let` guard at its enclosing block's `}` or at an
/// explicit `drop(binding)`.
fn live_end(
    toks: &[Tok],
    site: usize,
    body_close: usize,
    let_bound: bool,
    binding: Option<&str>,
) -> usize {
    let mut depth = 0i32;
    let mut k = site + 1;
    while k < body_close {
        if let_bound {
            if let Some(b) = binding {
                if toks[k].is_ident("drop")
                    && toks.get(k + 1).is_some_and(|t| t.is_punct('('))
                    && toks.get(k + 2).is_some_and(|t| t.is_ident(b))
                    && toks.get(k + 3).is_some_and(|t| t.is_punct(')'))
                {
                    return k;
                }
            }
        }
        match toks[k].kind {
            TokKind::Punct('{') | TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
            TokKind::Punct('}') => {
                depth -= 1;
                if depth < 0 {
                    return k;
                }
            }
            TokKind::Punct(';') if !let_bound && depth <= 0 => return k,
            _ => {}
        }
        k += 1;
    }
    body_close
}

/// Whether the identifier at `ti` is a call worth recording for
/// summary propagation. Only two shapes resolve reliably by bare name —
/// `self.helper(..)` (same impl, so same file) and plain `helper(..)` —
/// so only those are recorded. Arbitrary-receiver method calls
/// (`guard.pop()`) and path calls (`Box::new`) would collide with
/// same-named local fns and fabricate edges.
fn is_callee(toks: &[Tok], ti: usize, name: &str) -> bool {
    const SKIP: [&str; 20] = [
        "if",
        "while",
        "match",
        "return",
        "for",
        "loop",
        "let",
        "in",
        "as",
        "move",
        "fn",
        "lock",
        "try_lock",
        "wait",
        "wait_timeout",
        "wait_while",
        "notify_one",
        "notify_all",
        "drop",
        "Some",
    ];
    if SKIP.contains(&name) {
        return false;
    }
    if ti > 0 && toks[ti - 1].is_ident("fn") {
        return false;
    }
    // Macro invocation: `name!(...)` has `!` between name and paren — the
    // paren check already failed for that shape, but `name !` followed by
    // `(` is a different token order; guard anyway.
    if toks.get(ti + 1).is_some_and(|t| t.is_punct('!')) {
        return false;
    }
    if ti > 0 && toks[ti - 1].is_punct('.') {
        // Method call: only `self.name(..)` resolves to this file's fns.
        return ti >= 2 && toks[ti - 2].is_ident("self");
    }
    if ti > 0 && toks[ti - 1].is_punct(':') {
        return false; // Path-qualified: bare-name resolution would lie.
    }
    true
}
