//! `naiad-lints`: source-level invariant linter for the workspace.
//!
//! A lexer-based analysis (no rustc plumbing, no dependencies) that
//! enforces the repo's cross-cutting invariants as first-class rules
//! (NS0001–NS0006, DESIGN.md §17) instead of the grep/awk gates
//! `scripts/verify.sh` used to carry. Run it with the `naiad-lint-src`
//! binary; suppress a justified site with `// lint-allow(NSxxxx): why`.

#![forbid(unsafe_code)]

pub mod diag;
pub mod lexer;
pub mod rules;
pub mod source;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use diag::{Code, Diagnostic, Severity, ALL_CODES};
pub use source::SourceFile;

/// What to lint.
#[derive(Default)]
pub struct LintConfig {
    /// Restrict to these codes (`--only`); `None` runs the full catalog.
    pub only: Option<Vec<Code>>,
}

impl LintConfig {
    fn wants(&self, code: Code) -> bool {
        match &self.only {
            Some(set) => set.contains(&code),
            None => true,
        }
    }
}

/// Recursively collects and parses every `.rs` file under `root`,
/// skipping build output (`target/`), VCS metadata, and lint fixtures
/// (`fixtures/` directories hold deliberately-failing trees). Paths are
/// returned root-relative with `/` separators, sorted, so runs are
/// deterministic regardless of directory-entry order.
pub fn scan_tree(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    collect(root, &mut paths)?;
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for p in paths {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src = fs::read_to_string(&p)?;
        files.push(SourceFile::parse(&rel, &src));
    }
    Ok(files)
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || name == "fixtures" {
                continue;
            }
            collect(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs the rule catalog over already-parsed files.
pub fn lint_files(files: &[SourceFile], cfg: &LintConfig) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in files {
        if cfg.wants(Code::UnboundedChannel) {
            rules::ns0001(f, &mut out);
        }
        if cfg.wants(Code::HotPathAlloc) {
            rules::ns0002(f, &mut out);
        }
        if cfg.wants(Code::Nondeterminism) {
            rules::ns0003(f, &mut out);
        }
        if cfg.wants(Code::PanicPath) {
            rules::ns0004(f, &mut out);
        }
    }
    if cfg.wants(Code::TelemetryConservation) {
        rules::telemetry::ns0005(files, &mut out);
    }
    if cfg.wants(Code::LockOrderCycle) {
        rules::locks::ns0006(files, &mut out);
    }
    out.sort_by(|a, b| (a.file.as_str(), a.line, a.code).cmp(&(b.file.as_str(), b.line, b.code)));
    out
}

/// Scans and lints the tree rooted at `root`.
pub fn lint_tree(root: &Path, cfg: &LintConfig) -> io::Result<Vec<Diagnostic>> {
    let files = scan_tree(root)?;
    Ok(lint_files(&files, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_filter_restricts_codes() {
        let f = SourceFile::parse(
            "crates/core/src/runtime/x.rs",
            "fn f(v: &[u8]) -> u8 { v[0] }\n",
        );
        let all = lint_files(std::slice::from_ref(&f), &LintConfig::default());
        assert!(all.iter().any(|d| d.code == Code::PanicPath));
        let none = lint_files(
            std::slice::from_ref(&f),
            &LintConfig {
                only: Some(vec![Code::UnboundedChannel]),
            },
        );
        assert!(none.is_empty(), "{none:?}");
    }

    #[test]
    fn diagnostics_are_sorted_and_deterministic() {
        let f = SourceFile::parse(
            "crates/core/src/runtime/x.rs",
            "fn f(v: &[u8]) -> u8 { v[1] + v[0].min(v.iter().copied().max().unwrap()) }\n",
        );
        let a = lint_files(std::slice::from_ref(&f), &LintConfig::default());
        let b = lint_files(std::slice::from_ref(&f), &LintConfig::default());
        let render = |ds: &[Diagnostic]| ds.iter().map(Diagnostic::render_text).collect::<String>();
        assert_eq!(render(&a), render(&b));
        assert!(a.len() >= 3);
    }
}
