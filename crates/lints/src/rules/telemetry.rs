//! NS0005: telemetry counter conservation.
//!
//! Two obligations, both cross-file:
//!
//! 1. Every `TelemetryEvent` variant declared in
//!    `crates/core/src/telemetry/event.rs` must be handled by the
//!    recorder (`EventLog::count`'s exhaustive match in `recorder.rs`) —
//!    an event that is emitted but never counted silently vanishes from
//!    `TelemetrySnapshot`.
//! 2. Every field of a `*Counters`/`*Gauges` struct in the telemetry
//!    module must be mentioned somewhere outside its own declaration —
//!    a counter nobody populates or merges is dead weight that reads as
//!    coverage.

use crate::diag::{Code, Diagnostic, Severity};
use crate::lexer::TokKind;
use crate::source::{matching_brace, SourceFile};

const EVENT_RS: &str = "crates/core/src/telemetry/event.rs";
const RECORDER_RS: &str = "crates/core/src/telemetry/recorder.rs";

pub fn ns0005(files: &[SourceFile], out: &mut Vec<Diagnostic>) {
    variant_coverage(files, out);
    field_conservation(files, out);
}

fn variant_coverage(files: &[SourceFile], out: &mut Vec<Diagnostic>) {
    let Some(event) = files.iter().find(|f| f.rel == EVENT_RS) else {
        return;
    };
    let Some(recorder) = files.iter().find(|f| f.rel == RECORDER_RS) else {
        return;
    };
    for (variant, line) in enum_variants(event, "TelemetryEvent") {
        if event.allowed(Code::TelemetryConservation.as_str(), line) {
            continue;
        }
        let handled = recorder.toks.windows(4).any(|w| {
            w[0].is_ident("TelemetryEvent")
                && w[1].is_punct(':')
                && w[2].is_punct(':')
                && w[3].is_ident(&variant)
        });
        if !handled {
            out.push(Diagnostic {
                code: Code::TelemetryConservation,
                severity: Severity::Error,
                file: event.rel.clone(),
                line,
                message: format!(
                    "TelemetryEvent::{variant} is declared but never matched by the recorder"
                ),
                suggestion: "count it in EventLog::count (recorder.rs) so it reaches \
                             TelemetrySnapshot, or justify with `// lint-allow(NS0005): <why \
                             this event is intentionally uncounted>`"
                    .to_string(),
            });
        }
    }
}

fn field_conservation(files: &[SourceFile], out: &mut Vec<Diagnostic>) {
    for (fi, f) in files.iter().enumerate() {
        if !f.rel.starts_with("crates/core/src/telemetry/") {
            continue;
        }
        for (sname, fields, span) in counter_structs(f) {
            for (field, line) in fields {
                if f.allowed(Code::TelemetryConservation.as_str(), line) {
                    continue;
                }
                let used = files.iter().enumerate().any(|(oi, other)| {
                    other.toks.iter().any(|t| {
                        t.is_ident(&field) && !(oi == fi && span.0 <= t.line && t.line <= span.1)
                    })
                });
                if !used {
                    out.push(Diagnostic {
                        code: Code::TelemetryConservation,
                        severity: Severity::Error,
                        file: f.rel.clone(),
                        line,
                        message: format!(
                            "counter field {sname}.{field} is declared but never populated or \
                             merged"
                        ),
                        suggestion: "wire the field through assemble/merge (snapshot.rs) or \
                                     delete it; a counter nobody writes misreports coverage"
                            .to_string(),
                    });
                }
            }
        }
    }
}

/// Variants of `enum <name>` in `f`, with declaration lines.
fn enum_variants(f: &SourceFile, name: &str) -> Vec<(String, u32)> {
    let toks = &f.toks;
    for i in 0..toks.len() {
        if !(toks[i].is_ident("enum") && toks.get(i + 1).is_some_and(|t| t.is_ident(name))) {
            continue;
        }
        let mut j = i + 2;
        while j < toks.len() && !toks[j].is_punct('{') {
            j += 1;
        }
        let close = matching_brace(toks, j);
        let mut vars = Vec::new();
        let mut k = j + 1;
        while k < close {
            // Skip per-variant attributes.
            if toks[k].is_punct('#') {
                while k < close && !toks[k].is_punct(']') {
                    k += 1;
                }
                k += 1;
                continue;
            }
            if let Some(v) = toks[k].ident() {
                vars.push((v.to_string(), toks[k].line));
                // Skip the payload (tuple/struct body) to the `,`.
                k += 1;
                let mut depth = 0i32;
                while k < close {
                    match toks[k].kind {
                        TokKind::Punct('{') | TokKind::Punct('(') | TokKind::Punct('[') => {
                            depth += 1;
                        }
                        TokKind::Punct('}') | TokKind::Punct(')') | TokKind::Punct(']') => {
                            depth -= 1;
                        }
                        TokKind::Punct(',') if depth == 0 => {
                            k += 1;
                            break;
                        }
                        _ => {}
                    }
                    k += 1;
                }
                continue;
            }
            k += 1;
        }
        return vars;
    }
    Vec::new()
}

/// One `struct <X>Counters` / `struct <X>Gauges` declaration:
/// (struct name, fields with lines, declaration line span).
type CounterStruct = (String, Vec<(String, u32)>, (u32, u32));

fn counter_structs(f: &SourceFile) -> Vec<CounterStruct> {
    let toks = &f.toks;
    let mut found = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("struct") {
            continue;
        }
        let Some(name) = toks.get(i + 1).and_then(|t| t.ident()) else {
            continue;
        };
        if !(name.ends_with("Counters") || name.ends_with("Gauges")) {
            continue;
        }
        // Find the body `{` (tuple structs end at `;` first — skip).
        let mut j = i + 2;
        let mut open = None;
        while j < toks.len() {
            if toks[j].is_punct('{') {
                open = Some(j);
                break;
            }
            if toks[j].is_punct(';') {
                break;
            }
            j += 1;
        }
        let Some(open) = open else {
            continue;
        };
        let close = matching_brace(toks, open);
        let span = (toks[i].line, toks[close].line);
        let mut fields = Vec::new();
        let mut k = open + 1;
        while k < close {
            if toks[k].is_punct('#') {
                while k < close && !toks[k].is_punct(']') {
                    k += 1;
                }
                k += 1;
                continue;
            }
            // `[pub [(crate)]] name: Type,`
            if toks[k].is_ident("pub") {
                k += 1;
                if toks.get(k).is_some_and(|t| t.is_punct('(')) {
                    while k < close && !toks[k].is_punct(')') {
                        k += 1;
                    }
                    k += 1;
                }
                continue;
            }
            if let Some(field) = toks[k].ident() {
                if toks.get(k + 1).is_some_and(|t| t.is_punct(':'))
                    && !toks.get(k + 2).is_some_and(|t| t.is_punct(':'))
                {
                    fields.push((field.to_string(), toks[k].line));
                    // Skip the type to the `,` at depth 0.
                    k += 2;
                    let mut depth = 0i32;
                    while k < close {
                        match toks[k].kind {
                            TokKind::Punct('{')
                            | TokKind::Punct('(')
                            | TokKind::Punct('[')
                            | TokKind::Punct('<') => depth += 1,
                            TokKind::Punct('}')
                            | TokKind::Punct(')')
                            | TokKind::Punct(']')
                            | TokKind::Punct('>') => depth -= 1,
                            TokKind::Punct(',') if depth <= 0 => break,
                            _ => {}
                        }
                        k += 1;
                    }
                    continue;
                }
            }
            k += 1;
        }
        found.push((name.to_string(), fields, span));
    }
    found
}
