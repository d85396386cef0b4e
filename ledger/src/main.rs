//! `naiad-bench` — the repo's benchmark.
//!
//! ```text
//! naiad-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! naiad-bench run --seed <n> [--seconds <s>] [--out <file>]
//! naiad-bench layers
//! naiad-bench trace --workload <name> [--seed <n>] [--seconds <s>]
//! naiad-bench diff <a.json> <b.json>
//! naiad-bench manifest
//! ```
//!
//! The first form is one workload run in this process and is what
//! `BENCHMARK.json`'s command invokes: with `--trace 0` it prints every
//! end-to-end metric, with `--trace 1` every per-layer metric, as one
//! JSON object on the last line of standard output. `run` composes it:
//! every workload in child processes, timed repetitions then a traced
//! one, written as one result file. See README.md.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use naiad_ledger::report::SetupRep;
use naiad_ledger::runner::{self, Row, RunResult, Sampling, Summary};
use naiad_ledger::spec::{self, Source, END_TO_END, PER_LAYER, WORKLOADS};
use naiad_ledger::workloads::{self, Length, Outcome, Params};
use naiad_ledger::{diff, layers, probe, report, trace};

/// Where traces and result files go, relative to the working directory
/// (the root of a checkout).
const RESULTS_DIR: &str = "ledger/results";

/// Timed child runs per workload in `naiad-bench run`. A constant, so
/// that any two result files were produced the same way.
const REPS: usize = 3;

/// Flags of any subcommand: `--name value` pairs and positionals.
struct Args {
    flags: HashMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut flags = HashMap::new();
        let mut positional = Vec::new();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            match arg.strip_prefix("--") {
                Some(name) => {
                    let value = iter.next().ok_or(format!("--{name} needs a value"))?;
                    flags.insert(name.to_string(), value.clone());
                }
                None => positional.push(arg.clone()),
            }
        }
        Ok(Args { flags, positional })
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.flags
            .get(name)
            .map(|v| {
                v.parse::<T>()
                    .map_err(|_| format!("bad value for --{name}: `{v}`"))
            })
            .transpose()
    }

    fn require<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.get(name)?.ok_or(format!("--{name} is required"))
    }

    fn workload(&self) -> Result<&'static spec::Workload, String> {
        let name: String = self.require("workload")?;
        spec::workload(&name).ok_or_else(|| {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload `{name}`; one of {}", names.join(", "))
        })
    }

    fn seconds(&self) -> Result<f64, String> {
        let seconds = self.get("seconds")?.unwrap_or(spec::RUN_SECONDS as f64);
        if seconds > 0.0 && seconds <= 60.0 {
            Ok(seconds)
        } else {
            Err(format!("--seconds must be in (0, 60], got {seconds}"))
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => Args::parse(&args[1..]).and_then(|a| run_all(&a)),
        Some("layers") => layers::run(Sampling::FULL, 2.0).map(|suite| {
            print_suite(&suite);
            true
        }),
        Some("trace") => Args::parse(&args[1..]).and_then(|a| {
            one_run(
                a.workload()?,
                a.get("seed")?.unwrap_or(1),
                a.seconds()?,
                true,
            )
        }),
        Some("diff") => Args::parse(&args[1..]).and_then(|a| match a.positional.as_slice() {
            [x, y] => diff::run(Path::new(x), Path::new(y)).map(|any_worse| !any_worse),
            _ => Err("usage: naiad-bench diff <a.json> <b.json>".into()),
        }),
        Some("manifest") => {
            print!("{}", spec::manifest());
            Ok(true)
        }
        Some(flag) if flag.starts_with("--") => Args::parse(&args).and_then(|a| {
            let traced = match a.require::<u8>("trace")? {
                0 => false,
                1 => true,
                other => return Err(format!("--trace must be 0 or 1, got {other}")),
            };
            one_run(a.workload()?, a.require("seed")?, a.seconds()?, traced)
        }),
        _ => Err(
            "usage: naiad-bench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                  | run | layers | trace | diff | manifest (see ledger/README.md)"
                .into(),
        ),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("naiad-bench: {message}");
            ExitCode::from(2)
        }
    }
}

/// One workload run in this process. Prints every metric by name, then
/// the result object on the last line; `Ok(false)` if an operation failed.
fn one_run(
    workload: &spec::Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<bool, String> {
    println!(
        "# {} seed {seed} seconds {seconds} trace {} ({} cores)",
        workload.name,
        u8::from(traced),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let result = if traced {
        traced_run(workload.name, seed, seconds)?
    } else {
        timed_run(workload.name, seed, seconds)?
    };
    if !result.untraced.is_empty() {
        println!("{}", result.untraced_to_json().render());
    }
    println!("{}", result.to_json().render());
    Ok(result.correct)
}

/// The `Source::Untraced` per-layer figures of an execution that ran
/// with telemetry off, with their units. The fixed-size execution behind
/// `net_bytes_per_record` is run only where data crosses the network.
fn untraced_figures(name: &str, seed: u64, outcome: &Outcome) -> Result<runner::Metrics, String> {
    let net_bytes_per_record = if outcome.data_net_bytes > 0 {
        workloads::net_bytes_per_record(name, seed)?
    } else {
        0.0
    };
    report::untraced(outcome, net_bytes_per_record)
        .into_iter()
        .map(|(metric, value)| {
            let spec = PER_LAYER
                .iter()
                .find(|m| m.name == metric && m.source == Source::Untraced)
                .ok_or(format!("{metric} is not an untraced per-layer metric"))?;
            Ok((metric.to_string(), value, spec.unit.to_string()))
        })
        .collect()
}

/// Set-up-only repetitions for a second (one at least, 500 at most),
/// each between two speed probes of this thread.
fn setup_reps(name: &str, seed: u64, reps: &mut Vec<SetupRep>) -> Result<(), String> {
    let began = Instant::now();
    let mut before_us = probe::once();
    for _ in 0..500 {
        let seconds = workloads::setup_only(name, seed)?;
        let after_us = probe::once();
        reps.push(SetupRep {
            seconds,
            before_us,
            after_us,
        });
        before_us = after_us;
        if began.elapsed().as_secs_f64() >= 1.0 {
            break;
        }
    }
    Ok(())
}

/// Telemetry off. The set-up is repeated (set-up only, torn down again)
/// so that `setup_s` is a median: for a second before the run and a
/// second after it, which are two chances at a quiet machine.
fn timed_run(name: &str, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let mut setups = Vec::new();
    setup_reps(name, seed, &mut setups)?;
    let params = Params {
        seed,
        length: Length::Seconds(seconds),
        traced: false,
    };
    let outcome = workloads::run(name, params)?;
    setup_reps(name, seed, &mut setups)?;
    let values = report::end_to_end(&outcome, report::steady_setup(&setups, &outcome));
    let untraced = untraced_figures(name, seed, &outcome)?;

    println!(
        "  operations: {} attempted, {} failed; {} timed in {:.3} s; {} set-ups",
        outcome.attempted,
        outcome.failed,
        outcome.ops_timed,
        outcome.wall_s,
        setups.len()
    );
    let mut metrics = Vec::new();
    for (spec, (name, value)) in END_TO_END.iter().zip(&values.metrics) {
        assert_eq!(spec.name, *name, "report order follows the spec");
        println!(
            "  {:<26} {:>16.4} {:<5} {} is better, bound {:.0}%: {}",
            spec.name,
            value,
            spec.unit,
            spec.better.as_str(),
            spec.bound * 100.0,
            spec.what
        );
        metrics.push((spec.name.to_string(), *value, spec.unit.to_string()));
    }
    for (name, value, unit) in &untraced {
        println!("  {name:<26} {value:>16.4} {unit:<5} (not bounded)");
    }
    for (name, value, unit) in &values.printed {
        println!("  {name:<26} {value:>16.4} {unit:<5}");
    }
    Ok(RunResult {
        correct: outcome.failed == 0,
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics,
        untraced,
    })
}

/// Half the time untraced (the control: `telemetry.tax_pct` compares
/// with it, and the `Source::Untraced` figures come from it), half under
/// `execute_with_telemetry` with benchmark-side spans, then the layer
/// suite at quick sampling. No end-to-end figure is taken from the
/// traced half.
fn traced_run(name: &str, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let half = Params {
        seed,
        length: Length::Seconds(seconds / 2.0),
        traced: false,
    };
    let control = workloads::run(name, half)?;
    let outcome = workloads::run(
        name,
        Params {
            traced: true,
            ..half
        },
    )?;
    let traced = outcome
        .traced
        .as_ref()
        .ok_or("traced run kept no telemetry")?;
    let suite = layers::run(Sampling::QUICK, (seconds / 10.0).clamp(0.2, 1.0))?;
    let costs: HashMap<&'static str, Summary> = suite.iter().copied().collect();
    let (counted, top_operator) = report::traced_metrics(
        name,
        &outcome,
        traced,
        report::steady(&control).rate,
        &costs,
    );
    let counted: HashMap<&'static str, f64> = counted.into_iter().collect();
    let untraced = untraced_figures(name, seed, &control)?;

    let path = PathBuf::from(RESULTS_DIR).join(format!("trace_{name}.jsonl"));
    trace::write_jsonl(&path, name, seed, &traced.spans)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("  spans written to {}", path.display());
    print!("{}", report::span_table(&traced.spans));
    println!("  busiest operator: {top_operator}");

    let mut metrics = Vec::new();
    for spec in PER_LAYER {
        let value = match spec.source {
            Source::Layers => costs.get(spec.name).map(|s| s.median),
            Source::Traced => counted.get(spec.name).copied(),
            Source::Untraced => untraced
                .iter()
                .find(|(n, _, _)| n == spec.name)
                .map(|(_, v, _)| *v),
        }
        .ok_or_else(|| format!("no value for per-layer metric {}", spec.name))?;
        println!(
            "  {:<40} {:>18.4} {:<6} {:<17} moves {}",
            spec.name, value, spec.unit, spec.layer, spec.moves
        );
        metrics.push((spec.name.to_string(), value, spec.unit.to_string()));
    }
    let attempted = control.attempted + outcome.attempted;
    let failed = control.failed + outcome.failed;
    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        untraced: Vec::new(),
    })
}

/// The isolated-function suite, with the two scaling ratios later issues
/// are to remove.
fn print_suite(suite: &[(&'static str, Summary)]) {
    println!(
        "{:<40} {:>14} {:>12} {:>14} {:>8}  unit",
        "metric", "median", "mad", "min", "samples"
    );
    for (name, s) in suite {
        let unit = PER_LAYER
            .iter()
            .find(|m| m.name == *name)
            .map_or("", |m| m.unit);
        println!(
            "{name:<40} {:>14.3} {:>12.3} {:>14.3} {:>8}  {unit}",
            s.median, s.mad, s.min, s.samples
        );
    }
    let median = |name: &str| {
        suite
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |(_, s)| s.median)
    };
    for (top, base) in [
        (
            "progress.tracker.update_ns.live4096",
            "progress.tracker.update_ns.live16",
        ),
        ("worker.step_idle_ns.ops256", "worker.step_idle_ns.ops16"),
    ] {
        println!(
            "ratio {top} / {base} = {:.1} ({:.1} ns / {:.1} ns)",
            median(top) / median(base),
            median(top),
            median(base)
        );
    }
}

/// `naiad-bench run`: every workload, each run in a child process —
/// `REPS` timed runs, then a traced one — plus the layer suite at full
/// sampling, written as one result file.
fn run_all(args: &Args) -> Result<bool, String> {
    let seed: u64 = args.require("seed")?;
    let seconds = args.seconds()?;
    let out: PathBuf = args
        .get("out")?
        .unwrap_or_else(|| PathBuf::from(RESULTS_DIR).join(format!("run_seed{seed}.json")));
    let mut rows = Vec::new();
    let mut all_correct = true;
    for workload in WORKLOADS {
        let mut timed = Vec::new();
        for rep in 0..REPS {
            eprintln!(
                "== {} seed {seed}: timed run {}/{REPS}",
                workload.name,
                rep + 1
            );
            timed.push(runner::run_child(workload.name, seed, seconds, false)?);
        }
        eprintln!("== {} seed {seed}: traced run", workload.name);
        let traced = runner::run_child(workload.name, seed, seconds, true)?;
        all_correct &= timed.iter().chain([&traced]).all(|r| r.correct);

        for spec in END_TO_END {
            let values: Vec<f64> = timed.iter().filter_map(|r| r.value(spec.name)).collect();
            rows.push(Row {
                metric: spec.name.into(),
                workload: workload.name.into(),
                layer: "end_to_end".into(),
                unit: spec.unit.into(),
                direction: spec.better.as_str().into(),
                summary: Summary::of(&values),
                bound: Some(spec.bound),
            });
        }
        let attempted: Vec<f64> = timed.iter().map(|r| r.attempted as f64).collect();
        let failed: Vec<f64> = timed.iter().map(|r| r.failed as f64).collect();
        for (metric, values) in [("ops_attempted", attempted), ("ops_failed", failed)] {
            rows.push(Row {
                metric: metric.into(),
                workload: workload.name.into(),
                layer: "end_to_end".into(),
                unit: "count".into(),
                direction: "lower".into(),
                summary: Summary::of(&values),
                bound: None,
            });
        }
        for spec in PER_LAYER {
            // End-to-end figures come from the timed runs, never from
            // the traced one.
            let values: Vec<f64> = match spec.source {
                Source::Layers => continue,
                Source::Traced => traced.value(spec.name).into_iter().collect(),
                Source::Untraced => timed.iter().filter_map(|r| r.value(spec.name)).collect(),
            };
            if values.is_empty() {
                return Err(format!("{}: no run reported {}", workload.name, spec.name));
            }
            rows.push(Row {
                metric: spec.name.into(),
                workload: workload.name.into(),
                layer: spec.layer.into(),
                unit: spec.unit.into(),
                direction: spec.better.as_str().into(),
                summary: Summary::of(&values),
                bound: None,
            });
        }
    }
    eprintln!("== layer suite, full sampling");
    let suite = layers::run(Sampling::FULL, 2.0)?;
    print_suite(&suite);
    for (name, summary) in suite {
        let spec = PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .ok_or("suite metric not in spec")?;
        rows.push(Row {
            metric: name.into(),
            workload: "-".into(),
            layer: spec.layer.into(),
            unit: spec.unit.into(),
            direction: spec.better.as_str().into(),
            summary,
            bound: None,
        });
    }
    let about = format!(
        "naiad-bench run --seed {seed} --seconds {seconds}: end-to-end rows (layers `end_to_end` and `end_to_end.moved`) \
         are the median/min/max/mad of {REPS} timed child runs; traced rows are one traced child run; layer rows (workload `-`) \
         are the isolated-function suite. ROADMAP item 1 asks for BENCH_<n>.json at the repo root; this PR may add only BENCHMARK.json there, so \
         result files live under ledger/results/."
    );
    runner::write_rows(&out, &about, seed, &rows)?;
    println!("{} rows written to {}", rows.len(), out.display());
    Ok(all_correct)
}
