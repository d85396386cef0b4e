//! Structured diagnostics, mirroring `naiad::analysis` ergonomics
//! (`Diagnostic{code, severity, file:line, message, suggestion}` with
//! rustc-style text and JSON renderings).

/// How serious a finding is. All NSxxxx rules default to [`Severity::Error`]:
/// the tree must lint clean, and justified exceptions are annotated at
/// the site (`// lint-allow(NSxxxx): why`), not downgraded globally.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory only.
    Info,
    /// Suspicious but not certainly wrong.
    Warning,
    /// An invariant violation: fix it or justify it at the site.
    Error,
}

impl Severity {
    /// Lowercase label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// Stable rule codes, one per source rule (DESIGN.md §17).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// `NS0001`: un-annotated unbounded channel creation in `runtime/`.
    UnboundedChannel,
    /// `NS0002`: fresh hot-path allocation without `// slab-exempt:`.
    HotPathAlloc,
    /// `NS0003`: nondeterminism source inside deterministic-by-contract
    /// modules (`progress::{protocol,tracker}`, `naiad-check`, `netsim`).
    Nondeterminism,
    /// `NS0004`: panic path (`unwrap`/`expect`/indexing) in `runtime/`.
    PanicPath,
    /// `NS0005`: telemetry counter declared but never merged/surfaced.
    TelemetryConservation,
    /// `NS0006`: lock-order cycle (potential deadlock) in `runtime/`.
    LockOrderCycle,
}

/// Every rule code, in catalog order.
pub const ALL_CODES: [Code; 6] = [
    Code::UnboundedChannel,
    Code::HotPathAlloc,
    Code::Nondeterminism,
    Code::PanicPath,
    Code::TelemetryConservation,
    Code::LockOrderCycle,
];

impl Code {
    /// The stable `NSxxxx` code string.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::UnboundedChannel => "NS0001",
            Code::HotPathAlloc => "NS0002",
            Code::Nondeterminism => "NS0003",
            Code::PanicPath => "NS0004",
            Code::TelemetryConservation => "NS0005",
            Code::LockOrderCycle => "NS0006",
        }
    }

    /// Short rule title (report headers, DESIGN.md §17).
    pub fn title(self) -> &'static str {
        match self {
            Code::UnboundedChannel => "un-annotated unbounded channel",
            Code::HotPathAlloc => "fresh hot-path allocation",
            Code::Nondeterminism => "nondeterminism source",
            Code::PanicPath => "panic path",
            Code::TelemetryConservation => "telemetry counter conservation",
            Code::LockOrderCycle => "lock-order cycle",
        }
    }

    /// Parses `"NS0001"`-style code strings.
    pub fn parse(s: &str) -> Option<Code> {
        ALL_CODES.into_iter().find(|c| c.as_str() == s)
    }
}

/// One finding.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    pub code: Code,
    pub severity: Severity,
    /// Root-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    pub message: String,
    pub suggestion: String,
}

impl Diagnostic {
    /// `error[NS0004]: message` / ` --> file:line` / ` = help: ...`
    pub fn render_text(&self) -> String {
        format!(
            "{}[{}]: {}\n  --> {}:{}\n  = help: {}\n",
            self.severity.label(),
            self.code.as_str(),
            self.message,
            self.file,
            self.line,
            self.suggestion,
        )
    }

    /// One JSON object (hand-rolled; the workspace has no serde).
    pub fn render_json(&self) -> String {
        format!(
            "{{\"code\":\"{}\",\"severity\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\",\"suggestion\":\"{}\"}}",
            self.code.as_str(),
            self.severity.label(),
            escape(&self.file),
            self.line,
            escape(&self.message),
            escape(&self.suggestion),
        )
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_roundtrip() {
        for code in ALL_CODES {
            assert_eq!(Code::parse(code.as_str()), Some(code));
        }
        assert_eq!(Code::parse("NS9999"), None);
    }

    #[test]
    fn json_escapes_quotes() {
        let d = Diagnostic {
            code: Code::PanicPath,
            severity: Severity::Error,
            file: "a.rs".into(),
            line: 3,
            message: "call to `unwrap` (\"x\")".into(),
            suggestion: "use get()".into(),
        };
        let json = d.render_json();
        assert!(json.contains("\\\"x\\\""), "{json}");
        assert!(json.contains("\"line\":3"));
    }
}
