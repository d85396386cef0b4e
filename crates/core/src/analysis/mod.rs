//! `naiad::analysis` — a could-result-in-powered static dataflow linter.
//!
//! Naiad's correctness hinges on structural invariants the paper states
//! but [`GraphBuilder::build`](crate::graph::GraphBuilder::build) only
//! partially enforces: every cycle must pass through a loop context whose
//! feedback *strictly advances* the timestamp (§2.1/§2.3), and
//! notification requests are only sound while some path summary can still
//! reach the requested time (§2.3's could-result-in relation). This module
//! checks those invariants — and four more coordination-misuse classes —
//! *statically*, over the validated [`LogicalGraph`] and its per-arc
//! path summaries, before a single record moves.
//!
//! # Rule catalog
//!
//! | code     | default severity | what it catches |
//! |----------|------------------|-----------------|
//! | `NA0001` | Error            | zero-delay cycle: a cycle whose composed path summary does not strictly advance any timestamp coordinate (guaranteed non-termination, §2.1) |
//! | `NA0002` | Warning          | dead vertex: unreachable from any input, or no path to any output/probe |
//! | `NA0003` | Error            | unreachable notification: a declared `notify_at` whose time no incoming summary can still produce (§2.3) |
//! | `NA0004` | Error/Warning    | ingress/egress imbalance: loop-context entry without a matching exit |
//! | `NA0005` | Warning          | re-entrancy hazard: local-delivery cycles shorter than the configured bound |
//! | `NA0006` | Error            | exchange-contract violation: a stage mixing an exchange-partitioned input with a pipelined input whose partition is worker-variant; with [`AnalysisConfig::rescale_contracts`], also certifies stateful stages rescale-safe (state keyed, placement worker-invariant) |
//!
//! # Entry points
//!
//! * [`analyze`] runs every enabled rule and returns an
//!   [`AnalysisReport`];
//! * [`GraphBuilder::build_checked`](crate::graph::GraphBuilder::build_checked)
//!   validates, analyzes, and *denies* graphs with diagnostics at or above
//!   [`AnalysisConfig::deny`] severity;
//! * the runtime routes every
//!   [`Worker::dataflow`](crate::runtime::Worker::dataflow) through
//!   `build_checked`, so analyzer-rejected dataflows never start;
//! * `cargo run --example naiad_lint` reports over every in-repo dataflow
//!   (rustc-style, or JSON with `--format json`).
//!
//! # Suppressing findings
//!
//! [`AnalysisConfig::allow`] disables a rule entirely;
//! [`AnalysisConfig::set_severity`] re-levels one (e.g. demote `NA0006` to
//! [`Severity::Warning`] during a migration). The deny threshold itself is
//! [`AnalysisConfig::deny`]; set it to [`Severity::Never`] to make
//! `build_checked` purely advisory.

mod rules;

use crate::graph::{ConnectorId, LogicalGraph, StageId};

/// How serious a diagnostic is.
///
/// Ordered: `Info < Warning < Error < Never`. The extra [`Severity::Never`]
/// level exists only as a deny threshold meaning "never deny".
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory only.
    Info,
    /// Suspicious but not certainly wrong.
    Warning,
    /// A coordination bug: the dataflow can deadlock, livelock, or lose
    /// the guarantees notifications rest on.
    Error,
    /// Not a real severity — used as a deny threshold meaning "deny
    /// nothing".
    Never,
}

impl Severity {
    /// Lowercase label used in reports (`error`, `warning`, `info`).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
            Severity::Never => "never",
        }
    }
}

/// Stable diagnostic codes, one per analyzer rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// `NA0001`: a cycle whose composed summary does not strictly advance
    /// any timestamp coordinate.
    ZeroDelayCycle,
    /// `NA0002`: a vertex unreachable from any input, or with no path to
    /// any output or probe.
    DeadVertex,
    /// `NA0003`: a declared notification whose time no incoming summary
    /// can still produce.
    UnreachableNotification,
    /// `NA0004`: a loop context entered without a matching exit (or vice
    /// versa).
    LoopImbalance,
    /// `NA0005`: a local-delivery cycle shorter than the configured
    /// re-entrancy bound.
    ReentrancyHazard,
    /// `NA0006`: an exchange-partitioned input mixed with a pipelined
    /// input whose partition is worker-variant.
    ExchangeContract,
}

impl Code {
    /// The stable `NAxxxx` code string.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::ZeroDelayCycle => "NA0001",
            Code::DeadVertex => "NA0002",
            Code::UnreachableNotification => "NA0003",
            Code::LoopImbalance => "NA0004",
            Code::ReentrancyHazard => "NA0005",
            Code::ExchangeContract => "NA0006",
        }
    }

    /// Short rule title (report headers, DESIGN.md §12).
    pub fn title(self) -> &'static str {
        match self {
            Code::ZeroDelayCycle => "zero-delay cycle",
            Code::DeadVertex => "dead vertex",
            Code::UnreachableNotification => "unreachable notification",
            Code::LoopImbalance => "ingress/egress imbalance",
            Code::ReentrancyHazard => "re-entrancy hazard",
            Code::ExchangeContract => "exchange-contract violation",
        }
    }

    /// The paper section grounding the rule.
    pub fn paper_section(self) -> &'static str {
        match self {
            Code::ZeroDelayCycle => "§2.1/§2.3",
            Code::DeadVertex => "§2.1",
            Code::UnreachableNotification => "§2.3",
            Code::LoopImbalance => "§2.1",
            Code::ReentrancyHazard => "§2.2/§3.2",
            Code::ExchangeContract => "§4.2",
        }
    }

    /// Every rule, in code order.
    pub fn all() -> [Code; 6] {
        [
            Code::ZeroDelayCycle,
            Code::DeadVertex,
            Code::UnreachableNotification,
            Code::LoopImbalance,
            Code::ReentrancyHazard,
            Code::ExchangeContract,
        ]
    }
}

impl std::fmt::Display for Code {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where in the graph a diagnostic points.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Locus {
    /// A stage, optionally narrowed to one input port.
    Stage {
        /// Numeric stage id.
        id: StageId,
        /// Human-readable stage name.
        name: String,
        /// The input port concerned, if the finding is port-specific.
        port: Option<usize>,
    },
    /// A connector, with both endpoint names.
    Connector {
        /// Numeric connector id.
        id: ConnectorId,
        /// Source stage name.
        src: String,
        /// Destination stage name.
        dst: String,
    },
    /// A loop context (by index).
    Context {
        /// Context index (0 is the root streaming context).
        id: usize,
    },
}

impl Locus {
    pub(crate) fn stage(graph: &LogicalGraph, id: StageId) -> Locus {
        Locus::Stage {
            id,
            name: graph.stage_name(id).to_string(),
            port: None,
        }
    }

    pub(crate) fn connector(graph: &LogicalGraph, id: ConnectorId) -> Locus {
        let c = &graph.connectors()[id.0];
        Locus::Connector {
            id,
            src: graph.stage_name(c.src.0).to_string(),
            dst: graph.stage_name(c.dst.0).to_string(),
        }
    }
}

impl std::fmt::Display for Locus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Locus::Stage {
                id,
                name,
                port: Some(p),
            } => {
                write!(f, "input port {p} of stage '{name}' (#{})", id.0)
            }
            Locus::Stage {
                id,
                name,
                port: None,
            } => write!(f, "stage '{name}' (#{})", id.0),
            Locus::Connector { id, src, dst } => {
                write!(f, "connector #{} ('{src}' -> '{dst}')", id.0)
            }
            Locus::Context { id } => write!(f, "loop context #{id}"),
        }
    }
}

/// One structured finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule that fired.
    pub code: Code,
    /// Severity after any configured override.
    pub severity: Severity,
    /// Where the finding points.
    pub locus: Locus,
    /// What is wrong, in the user's vocabulary (stage names, ports).
    pub message: String,
    /// How to fix or suppress it.
    pub suggestion: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[{}]: {} at {}",
            self.severity.label(),
            self.code,
            self.message,
            self.locus
        )
    }
}

/// Analyzer configuration: severity policy, suppression, and rule knobs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnalysisConfig {
    /// Diagnostics at or above this severity make
    /// [`GraphBuilder::build_checked`](crate::graph::GraphBuilder::build_checked)
    /// reject the graph. Default: [`Severity::Error`]. Use
    /// [`Severity::Never`] for advisory-only analysis.
    pub deny: Severity,
    /// `NA0005` flags all-local cycles with fewer stages than this bound.
    /// Default 2: only degenerate self-cycles (a feedback wired straight
    /// to itself) fire; raise it to audit tighter loops.
    pub reentrancy_bound: usize,
    /// Per-code severity overrides, applied after the rule's default.
    pub overrides: Vec<(Code, Severity)>,
    /// Rules disabled outright.
    pub disabled: Vec<Code>,
    /// When set, `NA0006` additionally certifies the graph *rescale-safe*:
    /// every stage registering cross-epoch state must register it keyed
    /// (so an elastic rescale can re-partition it by the exchange hash),
    /// and every keyed-state stage must sit at worker-invariant placement
    /// (so re-partitioning by key moves exactly the records that were
    /// routed by that key). Default: off — runs under
    /// [`Execution::elastic`](crate::runtime::Execution::elastic)
    /// enable it.
    pub rescale_contracts: bool,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            deny: Severity::Error,
            reentrancy_bound: 2,
            overrides: Vec::new(),
            disabled: Vec::new(),
            rescale_contracts: false,
        }
    }
}

impl AnalysisConfig {
    /// Disables `code` entirely.
    #[must_use]
    pub fn allow(mut self, code: Code) -> Self {
        self.disabled.push(code);
        self
    }

    /// Overrides the default severity of `code`.
    #[must_use]
    pub fn set_severity(mut self, code: Code, severity: Severity) -> Self {
        self.overrides.push((code, severity));
        self
    }

    /// Sets the `NA0005` cycle-length bound.
    #[must_use]
    pub fn with_reentrancy_bound(mut self, bound: usize) -> Self {
        self.reentrancy_bound = bound;
        self
    }

    /// Enables the `NA0006` rescale-safe certification (see
    /// [`AnalysisConfig::rescale_contracts`]).
    #[must_use]
    pub fn with_rescale_contracts(mut self) -> Self {
        self.rescale_contracts = true;
        self
    }

    /// The effective severity of `code` (override or `default`).
    fn effective_severity(&self, code: Code, default: Severity) -> Severity {
        self.overrides
            .iter()
            .rev()
            .find(|(c, _)| *c == code)
            .map_or(default, |(_, s)| *s)
    }
}

/// Everything the analyzer found, ordered most severe first.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AnalysisReport {
    diagnostics: Vec<Diagnostic>,
    stages: usize,
    connectors: usize,
}

impl AnalysisReport {
    /// All diagnostics, most severe first.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Diagnostics at [`Severity::Error`].
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Diagnostics at [`Severity::Warning`].
    pub fn warning_count(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Diagnostics at [`Severity::Info`].
    pub fn info_count(&self) -> usize {
        self.count(Severity::Info)
    }

    fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Whether the report carries no error-severity findings.
    pub fn is_error_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// Diagnostics carrying `code`.
    pub fn with_code(&self, code: Code) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }

    /// The first diagnostic at or above the config's deny threshold.
    pub fn first_denied(&self, config: &AnalysisConfig) -> Option<&Diagnostic> {
        if config.deny == Severity::Never {
            return None;
        }
        // Diagnostics are sorted most severe first.
        self.diagnostics
            .first()
            .filter(|d| d.severity >= config.deny)
    }

    /// Renders a rustc-style multi-line report. `subject` names the
    /// dataflow being reported on.
    pub fn render_text(&self, subject: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.diagnostics.is_empty() {
            let _ = writeln!(
                out,
                "{subject}: clean ({} stages, {} connectors analyzed)",
                self.stages, self.connectors
            );
            return out;
        }
        for d in &self.diagnostics {
            let _ = writeln!(
                out,
                "{}[{}]: {} ({})",
                d.severity.label(),
                d.code,
                d.message,
                d.code.title()
            );
            let _ = writeln!(out, "  --> {} in {subject}", d.locus);
            let _ = writeln!(out, "   = note: grounded in {}", d.code.paper_section());
            let _ = writeln!(out, "   = help: {}", d.suggestion);
        }
        let _ = writeln!(
            out,
            "{subject}: {} error(s), {} warning(s), {} info(s)",
            self.error_count(),
            self.warning_count(),
            self.info_count()
        );
        out
    }

    /// Renders the report as one JSON object (no trailing newline):
    /// `{"subject": ..., "errors": n, "warnings": n, "diagnostics": [...]}`.
    pub fn render_json(&self, subject: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"subject\":\"{}\",\"stages\":{},\"connectors\":{},\"errors\":{},\"warnings\":{},\"infos\":{},\"diagnostics\":[",
            escape_json(subject),
            self.stages,
            self.connectors,
            self.error_count(),
            self.warning_count(),
            self.info_count()
        );
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"code\":\"{}\",\"severity\":\"{}\",",
                d.code,
                d.severity.label()
            );
            match &d.locus {
                Locus::Stage { id, name, port } => {
                    let _ = write!(
                        out,
                        "\"locus\":{{\"kind\":\"stage\",\"id\":{},\"name\":\"{}\"",
                        id.0,
                        escape_json(name)
                    );
                    if let Some(p) = port {
                        let _ = write!(out, ",\"port\":{p}");
                    }
                    out.push_str("},");
                }
                Locus::Connector { id, src, dst } => {
                    let _ = write!(
                        out,
                        "\"locus\":{{\"kind\":\"connector\",\"id\":{},\"src\":\"{}\",\"dst\":\"{}\"}},",
                        id.0,
                        escape_json(src),
                        escape_json(dst)
                    );
                }
                Locus::Context { id } => {
                    let _ = write!(out, "\"locus\":{{\"kind\":\"context\",\"id\":{id}}},");
                }
            }
            let _ = write!(
                out,
                "\"message\":\"{}\",\"suggestion\":\"{}\"}}",
                escape_json(&d.message),
                escape_json(&d.suggestion)
            );
        }
        out.push_str("]}");
        out
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Runs every enabled rule over a validated graph and its path summaries.
pub fn analyze(graph: &LogicalGraph, config: &AnalysisConfig) -> AnalysisReport {
    let mut diagnostics = rules::run_all(graph, config);
    diagnostics.retain(|d| !config.disabled.contains(&d.code));
    for d in &mut diagnostics {
        d.severity = config.effective_severity(d.code, d.severity);
    }
    // Most severe first, then by code, then by textual locus for
    // determinism.
    diagnostics.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then(a.code.cmp(&b.code))
            .then(a.locus.to_string().cmp(&b.locus.to_string()))
    });
    AnalysisReport {
        diagnostics,
        stages: graph.stages().len(),
        connectors: graph.connectors().len(),
    }
}
