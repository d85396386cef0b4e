//! Runs the benchmark's command at a fraction of its length and checks
//! what it promises: every workload completes with no failed operation
//! on two seeds, every metric `BENCHMARK.json` names is reported exactly
//! once per workload with the declared unit, and `net_bytes_per_record`
//! repeats bit for bit.

use std::path::Path;
use std::process::Command;

use naiad_ledger::json::{self, Json};
use naiad_ledger::runner::{self, RunResult};
use naiad_ledger::spec;

const EXE: &str = env!("CARGO_BIN_EXE_naiad-bench");
/// Runs write their traces under the working directory.
const SCRATCH: &str = env!("CARGO_TARGET_TMPDIR");

fn committed_manifest() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn benchmark_json_is_the_rendered_spec() {
    let out = Command::new(EXE).arg("manifest").output().expect("spawn");
    assert!(out.status.success());
    assert_eq!(String::from_utf8(out.stdout).unwrap(), committed_manifest());
}

/// `(name, unit)` of every entry of `key` in the committed manifest.
fn declared(manifest: &Json, key: &str) -> Vec<(String, String)> {
    manifest
        .get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}`"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, seed: u64, trace: bool) -> RunResult {
    let out = Command::new(EXE)
        .current_dir(SCRATCH)
        .args(["--workload", workload, "--seconds", "0.3"])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("spawn");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace}: {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let doc = json::parse(last).expect("the last line is JSON");
    let keys: Vec<&str> = doc
        .as_object()
        .expect("an object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    runner::parse_output(&stdout).expect("a result object")
}

// One test, so the runs never share the two cores with each other.
#[test]
fn every_workload_reports_every_declared_metric_and_fails_no_operation() {
    let manifest = json::parse(&committed_manifest()).expect("BENCHMARK.json parses");
    // The contract lists the gated workloads; the binary runs them all.
    let gated: Vec<&str> = spec::WORKLOADS
        .iter()
        .filter(|w| w.gated)
        .map(|w| w.name)
        .collect();
    assert_eq!(declared_names(&manifest), gated);
    for workload in spec::WORKLOADS.iter().map(|w| w.name) {
        for seed in [1, 2] {
            // The timed and the traced run of one seed are two runs of
            // the same inputs: the exact count must be the same in both.
            let mut net_bytes_per_record = Vec::new();
            for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let result = run(workload, seed, trace);
                net_bytes_per_record.push(
                    result
                        .value("net_bytes_per_record")
                        .expect("both kinds of run report it")
                        .to_bits(),
                );
                assert!(result.correct, "{workload} seed {seed}: incorrect output");
                assert_eq!(result.failed, 0, "{workload} seed {seed}");
                assert!(result.attempted >= 1);
                let mut want = declared(&manifest, key);
                let mut got: Vec<(String, String)> = result
                    .metrics
                    .iter()
                    .map(|(name, _, unit)| (name.clone(), unit.clone()))
                    .collect();
                want.sort();
                got.sort();
                assert_eq!(got, want, "{workload} seed {seed} trace {trace}");
                if !trace {
                    for (name, value, _) in &result.metrics {
                        assert!(
                            *value > 0.0,
                            "{workload}: {name} = {value}, must never be 0"
                        );
                    }
                }
            }
            assert_eq!(
                net_bytes_per_record[0], net_bytes_per_record[1],
                "{workload} seed {seed}: net_bytes_per_record does not repeat"
            );
            let networked = matches!(workload, "exchange_u64" | "wordcount_text");
            assert_eq!(f64::from_bits(net_bytes_per_record[0]) > 0.0, networked);
        }
        let trace_file = Path::new(SCRATCH).join(format!("ledger/results/trace_{workload}.jsonl"));
        let text = std::fs::read_to_string(&trace_file).expect("the traced run wrote its spans");
        assert!(text.lines().count() > 10, "{}", trace_file.display());
        for line in text.lines().take(50) {
            json::parse(line).expect("every span line is JSON");
        }
    }
}

fn declared_names(manifest: &Json) -> Vec<String> {
    manifest
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}
