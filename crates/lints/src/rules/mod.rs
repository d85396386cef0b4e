//! The NS rule catalog (DESIGN.md §17).
//!
//! Pattern rules (NS0001–NS0004) walk one file's token stream; structural
//! rules (NS0005 conservation, NS0006 lock order) correlate across files.
//! Every rule honors `// lint-allow(NSxxxx): why` suppressions; NS0001
//! and NS0002 additionally honor the domain markers the old grep gates
//! used (`// flow-exempt:`, `// slab-exempt:`), so existing annotations
//! keep their meaning.

pub mod locks;
pub mod telemetry;

use crate::diag::{Code, Diagnostic, Severity};
use crate::lexer::{Tok, TokKind};
use crate::source::SourceFile;

/// Paths (relative, `/`-separated) a rule applies to. `runtime/` covers
/// the runtime and the sync kernel it is built on (`naiad_wire::sync`).
pub(crate) fn in_runtime(rel: &str) -> bool {
    rel.starts_with("crates/core/src/runtime/") || rel.starts_with("crates/wire/src/sync/")
}

fn is_hot_path(rel: &str) -> bool {
    rel == "crates/core/src/runtime/channels.rs"
        || rel == "crates/wire/src/bytes.rs"
        || rel == "crates/wire/src/columnar.rs"
}

fn is_deterministic_module(rel: &str) -> bool {
    rel == "crates/core/src/progress/protocol.rs"
        || rel == "crates/core/src/progress/tracker.rs"
        || rel.starts_with("crates/check/src/")
        || rel.starts_with("crates/netsim/src/")
        || rel.starts_with("crates/operators/src/")
}

/// The first line of the statement containing token `ti` (for marker
/// attachment on multi-line statements).
pub(crate) fn stmt_start_line(toks: &[Tok], ti: usize) -> u32 {
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
    toks.get(i).map_or(1, |t| t.line)
}

/// Whether a domain marker or a `lint-allow` suppression covers the
/// statement containing token `ti`.
fn excused(f: &SourceFile, ti: usize, marker: Option<&str>, code: Code) -> bool {
    let line = f.toks[ti].line;
    let start = stmt_start_line(&f.toks, ti);
    if f.allowed(code.as_str(), line) || f.allowed(code.as_str(), start) {
        return true;
    }
    match marker {
        Some(m) => f.exempt(m, line) || f.exempt(m, start),
        None => false,
    }
}

/// Token index spans inside deliberate-panic macros (`assert!`,
/// `panic!`, ...) — intended panic sites NS0004 must not flag.
fn deliberate_panic_spans(toks: &[Tok]) -> Vec<(usize, usize)> {
    const MACROS: [&str; 10] = [
        "assert",
        "assert_eq",
        "assert_ne",
        "debug_assert",
        "debug_assert_eq",
        "debug_assert_ne",
        "panic",
        "unreachable",
        "todo",
        "unimplemented",
    ];
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i + 2 < toks.len() {
        let named = toks[i].ident().is_some_and(|s| MACROS.contains(&s));
        if named && toks[i + 1].is_punct('!') && toks[i + 2].is_punct('(') {
            let mut depth = 0i32;
            let mut j = i + 2;
            while j < toks.len() {
                match toks[j].kind {
                    TokKind::Punct('(') => depth += 1,
                    TokKind::Punct(')') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            spans.push((i, j));
            i = j;
        }
        i += 1;
    }
    spans
}

fn diag(code: Code, f: &SourceFile, line: u32, message: String, suggestion: &str) -> Diagnostic {
    Diagnostic {
        code,
        severity: Severity::Error,
        file: f.rel.clone(),
        line,
        message,
        suggestion: suggestion.to_string(),
    }
}

/// NS0001: unbounded channel/queue creation in `runtime/` without a
/// `// flow-exempt:` justification. Supersedes the verify.sh `grep -B4`
/// gate: attachment is scope-aware (contiguous comments above the
/// creating statement), not a fixed four-line window.
pub fn ns0001(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !in_runtime(&f.rel) {
        return;
    }
    let toks = &f.toks;
    for i in 0..toks.len() {
        if f.in_test(toks[i].line) {
            continue;
        }
        let hit = match toks[i].ident() {
            // `ring()` / `ring::<T>()` queue constructor — skip its
            // definition (`fn ring`) and imports (`use ...::ring`).
            Some("ring") => {
                let call = toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                    || (toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                        && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                        && toks.get(i + 3).is_some_and(|t| t.is_punct('<')));
                let defn = i > 0 && toks[i - 1].is_ident("fn");
                let import = stmt_first_ident(toks, i) == Some("use");
                call && !defn && !import
            }
            // `mpsc::channel(...)` / `sync_channel(...)` / `channel::<T>()`.
            Some("channel") => {
                let qualified = i >= 2
                    && toks[i - 1].is_punct(':')
                    && toks[i - 2].is_punct(':')
                    && toks
                        .get(i.wrapping_sub(3))
                        .is_some_and(|t| t.is_ident("mpsc"));
                let turbofish = toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                    && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                    && toks.get(i + 3).is_some_and(|t| t.is_punct('<'));
                qualified || turbofish
            }
            Some("sync_channel") => toks.get(i + 1).is_some_and(|t| t.is_punct('(')),
            _ => false,
        };
        if hit && !excused(f, i, Some("flow-exempt:"), Code::UnboundedChannel) {
            out.push(diag(
                Code::UnboundedChannel,
                f,
                toks[i].line,
                "unbounded channel created in runtime/ without a flow-control justification"
                    .to_string(),
                "credit the queue via runtime::flow, or justify with `// flow-exempt: <why \
                 bounding is unsound>` on the creating statement (DESIGN.md \u{a7}15)",
            ));
        }
    }
}

/// NS0002: fresh `Vec` allocation in the zero-copy hot-path modules
/// without a `// slab-exempt:` justification (DESIGN.md §16).
pub fn ns0002(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !is_hot_path(&f.rel) {
        return;
    }
    let toks = &f.toks;
    for i in 0..toks.len() {
        if f.in_test(toks[i].line) {
            continue;
        }
        let hit = match toks[i].ident() {
            Some("Vec") => {
                toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                    && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                    && toks
                        .get(i + 3)
                        .is_some_and(|t| t.is_ident("new") || t.is_ident("with_capacity"))
            }
            Some("vec") => toks.get(i + 1).is_some_and(|t| t.is_punct('!')),
            Some("to_vec") => i > 0 && toks[i - 1].is_punct('.'),
            _ => false,
        };
        if hit && !excused(f, i, Some("slab-exempt:"), Code::HotPathAlloc) {
            out.push(diag(
                Code::HotPathAlloc,
                f,
                toks[i].line,
                "fresh Vec allocation in a zero-copy hot-path module".to_string(),
                "recycle through SparePool/SlabPool, or justify with `// slab-exempt: <why this \
                 is not a per-record or per-batch allocation>` (DESIGN.md \u{a7}16)",
            ));
        }
    }
}

/// NS0003: nondeterminism sources inside modules whose outputs must be
/// bit-identical across runs (`progress::{protocol,tracker}` and
/// `naiad-check` feed the model-checker's replay — its reference view is a
/// `PointstampTable`; `netsim` feeds the seeded chaos soaks; the
/// operator library's emission order is its output order):
/// wall-clock reads, hasher randomness, and iteration over
/// `HashMap`/`HashSet` bindings (order varies per process).
pub fn ns0003(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !is_deterministic_module(&f.rel) {
        return;
    }
    let toks = &f.toks;

    // Pass 1: names bound to hash-ordered collections in this file
    // (struct fields, params, and `let` bindings).
    let mut hash_names: Vec<String> = Vec::new();
    for i in 0..toks.len() {
        let is_hash = toks[i].is_ident("HashMap") || toks[i].is_ident("HashSet");
        if !is_hash {
            continue;
        }
        // `name: HashMap<...>` (field/param/ascription).
        if i >= 2 && toks[i - 1].is_punct(':') {
            if let Some(name) = toks[i - 2].ident() {
                hash_names.push(name.to_string());
            }
        }
        // `name = HashMap::new()` / `= HashMap::with_capacity(..)`.
        if i >= 2 && toks[i - 1].is_punct('=') {
            if let Some(name) = toks[i - 2].ident() {
                hash_names.push(name.to_string());
            }
        }
    }
    hash_names.sort();
    hash_names.dedup();

    const ITERATORS: [&str; 8] = [
        "iter",
        "iter_mut",
        "keys",
        "values",
        "values_mut",
        "drain",
        "into_iter",
        "retain",
    ];

    for i in 0..toks.len() {
        if f.in_test(toks[i].line) {
            continue;
        }
        let mut finding: Option<String> = None;
        match toks[i].ident() {
            Some("Instant")
                if toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                    && toks.get(i + 3).is_some_and(|t| t.is_ident("now")) =>
            {
                finding = Some("wall-clock read (`Instant::now`)".to_string());
            }
            Some("SystemTime") => {
                finding = Some("wall-clock read (`SystemTime`)".to_string());
            }
            Some("RandomState") => {
                finding = Some("hasher randomness (`RandomState`)".to_string());
            }
            Some(m) if ITERATORS.contains(&m) => {
                // `<recv>.iter()` where the receiver's tail identifier is
                // a known hash-collection binding.
                let method_call = i > 0
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|t| t.is_punct('('));
                if method_call && i >= 2 {
                    if let Some(recv) = toks[i - 2].ident() {
                        if hash_names.iter().any(|n| n == recv) {
                            finding = Some(format!(
                                "iteration over hash-ordered collection `{recv}` (`.{m}()`)"
                            ));
                        }
                    }
                }
            }
            Some("in") => {
                // `for x in [&]name {` over a hash binding.
                let mut j = i + 1;
                while toks
                    .get(j)
                    .is_some_and(|t| t.is_punct('&') || t.is_punct('*'))
                    || toks.get(j).is_some_and(|t| t.is_ident("mut"))
                {
                    j += 1;
                }
                // Skip a leading `self .`.
                if toks.get(j).is_some_and(|t| t.is_ident("self"))
                    && toks.get(j + 1).is_some_and(|t| t.is_punct('.'))
                {
                    j += 2;
                }
                if let (Some(name), Some(open)) =
                    (toks.get(j).and_then(Tok::ident), toks.get(j + 1))
                {
                    if open.is_punct('{') && hash_names.iter().any(|n| n == name) {
                        finding = Some(format!("`for` loop over hash-ordered collection `{name}`"));
                    }
                }
            }
            _ => {}
        }
        if let Some(what) = finding {
            if !excused(f, i, None, Code::Nondeterminism) {
                out.push(diag(
                    Code::Nondeterminism,
                    f,
                    toks[i].line,
                    format!("{what} inside a deterministic-by-contract module"),
                    "use the seeded naiad-rng streams / the shared ClusterClock / a BTree \
                     collection (or sort before the order can leak), or justify with \
                     `// lint-allow(NS0003): <why order or time cannot reach an output>`",
                ));
            }
        }
    }
}

/// NS0004: implicit panic paths in `runtime/` outside `#[cfg(test)]`:
/// `unwrap`, `expect`, and slice/array indexing. Deliberate panics
/// (`assert!`-family, `panic!`) are the program stating an invariant and
/// are not flagged.
pub fn ns0004(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !in_runtime(&f.rel) {
        return;
    }
    let toks = &f.toks;
    let deliberate = deliberate_panic_spans(toks);
    let in_deliberate = |i: usize| deliberate.iter().any(|&(a, b)| a <= i && i <= b);
    const KEYWORDS: [&str; 12] = [
        "let", "in", "match", "return", "if", "else", "mut", "ref", "move", "as", "box", "dyn",
    ];
    for i in 0..toks.len() {
        if f.in_test(toks[i].line) || in_deliberate(i) {
            continue;
        }
        let mut what: Option<&str> = None;
        if let Some(name) = toks[i].ident() {
            let method_call = i > 0
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).is_some_and(|t| t.is_punct('('));
            if method_call && name == "unwrap" {
                what = Some("`unwrap()`");
            } else if method_call && name == "expect" {
                what = Some("`expect()`");
            }
        } else if toks[i].is_punct('[') && i > 0 {
            // Indexing: `expr[...]` where expr ends in an identifier, a
            // call, or another index. Type syntax, slices-of-types,
            // attributes, and macro brackets all have non-expression
            // predecessors and fall through.
            let prev = &toks[i - 1];
            let indexable = match &prev.kind {
                TokKind::Ident(s) => !KEYWORDS.contains(&s.as_str()),
                TokKind::Punct(')') | TokKind::Punct(']') => true,
                _ => false,
            };
            // An empty `[]` or `[..]`-style full-range slice of a Vec
            // still panics only on OOB starts; keep them all flagged
            // except `[..]` (infallible full-range borrow).
            let full_range = toks.get(i + 1).is_some_and(|t| t.is_punct('.'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct('.'))
                && toks.get(i + 3).is_some_and(|t| t.is_punct(']'));
            if indexable && !full_range {
                what = Some("slice/array indexing");
            }
        }
        if let Some(what) = what {
            if !excused(f, i, None, Code::PanicPath) {
                out.push(diag(
                    Code::PanicPath,
                    f,
                    toks[i].line,
                    format!("{what} in runtime/ is an implicit panic path"),
                    "return a typed error, use an infallible wrapper (like sync::Mutex::lock) \
                     or get()/get_mut(), or justify with `// lint-allow(NS0004): <why this \
                     cannot fail>` on the item or statement",
                ));
            }
        }
    }
}

/// First identifier of the statement containing token `ti` (used to
/// recognize `use` statements).
fn stmt_first_ident(toks: &[Tok], ti: usize) -> Option<&str> {
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
    toks.get(i).and_then(Tok::ident)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns0003_lines(rel: &str, src: &str) -> Vec<u32> {
        let mut out = Vec::new();
        ns0003(&SourceFile::parse(rel, src), &mut out);
        out.iter().map(|d| d.line).collect()
    }

    /// The tracker's count table reaches the model-checker's replay: a
    /// `std` map's iteration is flagged there, a `KeyMap`'s (fixed hash,
    /// fixed order) is not.
    #[test]
    fn ns0003_covers_the_tracker_and_accepts_key_maps() {
        const TRACKER: &str = "crates/core/src/progress/tracker.rs";
        let std_map = "\
struct T { counts: HashMap<P, i64> }
fn active(t: &T) -> usize { t.counts.iter().count() }
";
        let key_map = "\
struct T { counts: KeyMap<P, i64> }
fn active(t: &T) -> usize { t.counts.iter().count() }
";
        assert_eq!(ns0003_lines(TRACKER, std_map), [2]);
        assert!(ns0003_lines(TRACKER, key_map).is_empty());
        assert!(
            ns0003_lines("crates/core/src/graph/mod.rs", std_map).is_empty(),
            "outside the deterministic modules"
        );
    }
}
