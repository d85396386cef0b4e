//! Committed trigger/pass fixture pair for every NS rule.
//!
//! The fixture trees under `tests/fixtures/{trigger,pass}/` mirror real
//! workspace paths because every rule is path-gated (`scan_tree` skips
//! directories named `fixtures`, so the trees are invisible to the
//! whole-repo lint but scannable when passed as a root directly). Each
//! trigger file violates exactly one rule; each pass file shows the
//! compliant form — including the marker/`lint-allow` excusal paths —
//! at the same path.

use std::path::PathBuf;

use naiad_lints::{lint_tree, Code, Diagnostic, LintConfig, ALL_CODES};

fn fixture(which: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(which)
}

fn diags(which: &str, only: Option<Code>) -> Vec<Diagnostic> {
    let cfg = LintConfig {
        only: only.map(|c| vec![c]),
    };
    lint_tree(&fixture(which), &cfg).expect("fixture tree scans")
}

fn render(diags: &[Diagnostic]) -> String {
    diags
        .iter()
        .map(Diagnostic::render_text)
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn every_rule_fires_on_its_trigger_fixture() {
    for code in ALL_CODES {
        let found = diags("trigger", Some(code));
        assert!(
            !found.is_empty(),
            "{} found nothing in the trigger fixture",
            code.as_str()
        );
        assert!(
            found.iter().all(|d| d.code == code),
            "--only {} leaked other codes:\n{}",
            code.as_str(),
            render(&found)
        );
    }
}

#[test]
fn every_rule_is_silent_on_the_pass_fixture() {
    let found = diags("pass", None);
    assert!(
        found.is_empty(),
        "pass fixture must lint clean, got:\n{}",
        render(&found)
    );
}

#[test]
fn trigger_diagnostics_land_on_the_expected_files() {
    let found = diags("trigger", None);
    let expect = [
        (Code::UnboundedChannel, "crates/core/src/runtime/acks.rs"),
        (Code::HotPathAlloc, "crates/core/src/runtime/channels.rs"),
        (Code::Nondeterminism, "crates/core/src/progress/protocol.rs"),
        (Code::Nondeterminism, "crates/operators/src/cogroup.rs"),
        (Code::Nondeterminism, "crates/check/src/sim.rs"),
        (Code::PanicPath, "crates/core/src/runtime/merge.rs"),
        (Code::PanicPath, "crates/wire/src/sync/queue.rs"),
        (
            Code::TelemetryConservation,
            "crates/core/src/telemetry/event.rs",
        ),
        (Code::LockOrderCycle, "crates/core/src/runtime/ledger.rs"),
    ];
    for (code, file) in expect {
        assert!(
            found.iter().any(|d| d.code == code && d.file == file),
            "expected {} at {file}, got:\n{}",
            code.as_str(),
            render(&found)
        );
    }
    // The NS0004 fixture has two panic paths (an index and an unwrap);
    // everything else is a single deliberate violation.
    assert_eq!(
        found.len(),
        expect.len() + 1,
        "unexpected extra diagnostics:\n{}",
        render(&found)
    );
}
