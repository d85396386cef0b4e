//! `naiad-lint`: runs the static dataflow analyzer (`naiad::analysis`)
//! over every dataflow shape shipped in this repository — the examples'
//! pipelines, the operator library's iteration/join idioms, the §5–§6
//! algorithm workloads, and the Pregel port — and prints a rustc-style
//! report per dataflow.
//!
//! Usage:
//!
//! ```text
//! cargo run --example naiad_lint              # human-readable report
//! cargo run --example naiad_lint -- --format json
//! cargo run --example naiad_lint -- --only pagerank_vertex
//! ```
//!
//! Exit status is non-zero if any dataflow carries an `Error`-severity
//! diagnostic. The graphs are built (and analyzed) but never run: the
//! analyzer needs only the validated logical graph and its path
//! summaries, so linting the full catalog takes milliseconds.

use naiad::analysis::{AnalysisConfig, AnalysisReport, Severity};
use naiad::{execute, Config, Worker};
use naiad_algorithms::asp::approximate_shortest_paths;
use naiad_algorithms::datasets::Tweet;
use naiad_algorithms::kexposure::k_exposure;
use naiad_algorithms::pagerank::{pagerank_edge, pagerank_pregel, pagerank_vertex};
use naiad_algorithms::scc::strongly_connected_components;
use naiad_algorithms::triangles::triangle_count;
use naiad_algorithms::wcc::connected_components;
use naiad_algorithms::wordcount::wordcount;
use naiad_operators::prelude::*;

/// One catalog entry: a named dataflow constructor. Constructors build
/// the graph inside a throwaway worker and return the analyzer's report;
/// advisory mode (`deny: Never`) is used so the lint report is complete
/// even when a graph would be denied at `Error` severity.
struct Entry {
    name: &'static str,
    build: fn(&mut Worker, &AnalysisConfig) -> AnalysisReport,
}

/// Every in-repo dataflow shape. Each constructor mirrors the real
/// call sites in `examples/`, `crates/operators`, `crates/algorithms`,
/// and `crates/pregel`.
fn catalog() -> Vec<Entry> {
    vec![
        Entry {
            name: "quickstart_wordcount",
            build: |w, c| {
                w.dataflow_with_report(c, |scope| {
                    let (_input, lines) = scope.new_input::<String>();
                    wordcount(&lines).probe();
                })
                .1
            },
        },
        Entry {
            name: "operators_join_aggregate",
            build: |w, c| {
                w.dataflow_with_report(c, |scope| {
                    let (_a, left) = scope.new_input::<(u64, u64)>();
                    let (_b, right) = scope.new_input::<(u64, String)>();
                    left.join(&right, |k, v, s: &String| (*k, *v, s.clone()))
                        .probe();
                })
                .1
            },
        },
        Entry {
            name: "operators_iterate_distinct",
            build: |w, c| {
                w.dataflow_with_report(c, |scope| {
                    let (_input, seeds) = scope.new_input::<u64>();
                    seeds
                        .iterate(Some(8), |inner| inner.map(|x: u64| x / 2).distinct())
                        .probe();
                })
                .1
            },
        },
        Entry {
            name: "wcc_connected_components",
            build: |w, c| {
                w.dataflow_with_report(c, |scope| {
                    let (_input, edges) = scope.new_input::<(u64, u64)>();
                    connected_components(&edges).probe();
                })
                .1
            },
        },
        Entry {
            name: "pagerank_vertex",
            build: |w, c| {
                w.dataflow_with_report(c, |scope| {
                    let (_input, edges) = scope.new_input::<(u64, u64)>();
                    pagerank_vertex(&edges, 5).probe();
                })
                .1
            },
        },
        Entry {
            name: "pagerank_edge",
            build: |w, c| {
                w.dataflow_with_report(c, |scope| {
                    let peers = scope.peers();
                    let (_input, edges) = scope.new_input::<(u64, u64)>();
                    pagerank_edge(&edges, 5, peers).probe();
                })
                .1
            },
        },
        Entry {
            name: "pagerank_pregel",
            build: |w, c| {
                w.dataflow_with_report(c, |scope| {
                    let (_input, seeds) = scope.new_input::<(u64, (f64, Vec<u64>))>();
                    pagerank_pregel(&seeds, 5).probe();
                })
                .1
            },
        },
        Entry {
            name: "asp_shortest_paths",
            build: |w, c| {
                w.dataflow_with_report(c, |scope| {
                    let (_input, edges) = scope.new_input::<(u64, u64)>();
                    approximate_shortest_paths(&edges, vec![0, 1]).probe();
                })
                .1
            },
        },
        Entry {
            name: "scc_nested_loops",
            build: |w, c| {
                w.dataflow_with_report(c, |scope| {
                    let (_input, edges) = scope.new_input::<(u64, u64)>();
                    strongly_connected_components(&edges, 8).probe();
                })
                .1
            },
        },
        Entry {
            name: "triangle_count",
            build: |w, c| {
                w.dataflow_with_report(c, |scope| {
                    let (_input, edges) = scope.new_input::<(u64, u64)>();
                    triangle_count(&edges).probe();
                })
                .1
            },
        },
        Entry {
            name: "k_exposure",
            build: |w, c| {
                w.dataflow_with_report(c, |scope| {
                    let (_input, tweets) = scope.new_input::<Tweet>();
                    k_exposure(&tweets).probe();
                })
                .1
            },
        },
    ]
}

#[derive(PartialEq, Eq, Clone, Copy)]
enum Format {
    Text,
    Json,
}

fn main() {
    let mut format = Format::Text;
    let mut only: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => match args.next().as_deref() {
                Some("json") => format = Format::Json,
                Some("text") => format = Format::Text,
                other => {
                    eprintln!("--format expects 'text' or 'json', got {other:?}");
                    std::process::exit(2);
                }
            },
            "--only" => only = args.next(),
            "--help" | "-h" => {
                eprintln!("usage: naiad_lint [--format text|json] [--only <dataflow>]");
                return;
            }
            other => {
                eprintln!("unknown argument {other:?} (try --help)");
                std::process::exit(2);
            }
        }
    }

    // Advisory config: report everything, deny nothing, so the lint
    // output is complete even for graphs `Worker::dataflow` would reject.
    let config = AnalysisConfig {
        deny: Severity::Never,
        ..AnalysisConfig::default()
    };

    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut json_parts = Vec::new();
    for entry in catalog() {
        if let Some(only) = &only {
            if entry.name != only {
                continue;
            }
        }
        let build = entry.build;
        let cfg = config.clone();
        let mut reports = execute(Config::single_process(1), move |worker| build(worker, &cfg))
            .expect("single-process lint run");
        let report = reports.pop().expect("one worker yields one report");
        errors += report.error_count();
        warnings += report.warning_count();
        match format {
            Format::Text => print!("{}", report.render_text(entry.name)),
            Format::Json => json_parts.push(report.render_json(entry.name)),
        }
    }

    match format {
        Format::Text => {
            println!("lint: {errors} error(s), {warnings} warning(s) across the catalog");
        }
        Format::Json => {
            println!("[{}]", json_parts.join(","));
        }
    }
    if errors > 0 {
        std::process::exit(1);
    }
}
