//! The in-tree runner shared by `run`, `layers` and `trace`: robust
//! statistics, a warm-up-then-N-samples timer, child-process isolation
//! (one OS process per workload run, so peak RSS and allocator state do
//! not leak between workloads), and the result-file rows.

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use crate::json::{self, Json};

/// Median, spread and extremes of a set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    /// Median absolute deviation from the median.
    pub mad: f64,
    pub samples: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "no samples");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let median = median_sorted(&sorted);
        let mut deviations: Vec<f64> = sorted.iter().map(|v| (v - median).abs()).collect();
        deviations.sort_by(f64::total_cmp);
        Summary {
            median,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            mad: median_sorted(&deviations),
            samples: sorted.len(),
        }
    }

    pub fn single(value: f64) -> Summary {
        Summary::of(&[value])
    }
}

fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// Nearest-rank percentile of unsorted samples (`p` in 0..=100).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[((sorted.len() - 1) as f64 * p / 100.0).round() as usize]
}

/// How the isolated-function timer samples.
#[derive(Debug, Clone, Copy)]
pub struct Sampling {
    pub samples: usize,
    pub sample_time: Duration,
}

impl Sampling {
    /// `naiad-bench layers`: at least 15 samples of at least 50 ms.
    pub const FULL: Sampling = Sampling {
        samples: 15,
        sample_time: Duration::from_millis(50),
    };
    /// Inside a traced workload run, where the whole suite must fit in a
    /// few seconds.
    pub const QUICK: Sampling = Sampling {
        samples: 5,
        sample_time: Duration::from_millis(15),
    };
}

/// Times `f` in isolation: one warm-up sample sizes the batch so that a
/// sample lasts `sample_time`, then `samples` batches are timed. Returns
/// nanoseconds per call.
pub fn measure(sampling: Sampling, mut f: impl FnMut()) -> Summary {
    let mut batch = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..batch {
            f();
        }
        let took = start.elapsed();
        if took >= sampling.sample_time {
            break;
        }
        let scale = sampling.sample_time.as_secs_f64() / took.as_secs_f64().max(1e-9);
        batch = ((batch as f64 * scale * 1.1).ceil() as u64).max(batch * 2);
    }
    let per_call: Vec<f64> = (0..sampling.samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                f();
            }
            start.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    Summary::of(&per_call)
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The commit the results belong to; `unknown` outside a git checkout.
pub fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// `(name, value, unit)`, in the order printed.
pub type Metrics = Vec<(String, f64, String)>;

/// What a driver-form invocation prints on its last line, and, for a
/// timed run, on the line before it.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// A timed run's `Source::Untraced` figures. They are per-layer
    /// names, so they stay out of the `--trace 0` result object and go
    /// on a line of their own for `naiad-bench run` to read.
    pub untraced: Metrics,
}

fn metrics_to_json(metrics: &Metrics) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                let entry = Json::object([
                    ("value", Json::Num(*value)),
                    ("unit", Json::Str(unit.clone())),
                ]);
                (name.clone(), entry)
            })
            .collect(),
    )
}

fn metrics_from_json(doc: &Json) -> Option<Metrics> {
    doc.as_object()?
        .iter()
        .map(|(name, entry)| {
            Some((
                name.clone(),
                entry.get("value")?.as_f64()?,
                entry.get("unit")?.as_str()?.to_string(),
            ))
        })
        .collect()
}

impl RunResult {
    pub fn to_json(&self) -> Json {
        Json::object([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics_to_json(&self.metrics)),
        ])
    }

    pub fn untraced_to_json(&self) -> Json {
        Json::object([("untraced", metrics_to_json(&self.untraced))])
    }

    pub fn from_json(doc: &Json) -> Option<RunResult> {
        Some(RunResult {
            correct: doc.get("correct")?.as_bool()?,
            attempted: doc.get("attempted")?.as_f64()? as u64,
            failed: doc.get("failed")?.as_f64()? as u64,
            metrics: metrics_from_json(doc.get("metrics")?)?,
            untraced: Vec::new(),
        })
    }

    /// A metric of either list.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.untraced)
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

/// Re-executes this binary in driver form for one workload run and
/// parses the end of its output. A child that exits 1 ran to the end
/// with a failed operation and still reports; any other failure is an
/// error.
pub fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !matches!(output.status.code(), Some(0 | 1)) {
        return Err(format!(
            "{workload} (seed {seed}) exited with {}:\n{stdout}",
            output.status
        ));
    }
    parse_output(&stdout)
}

/// The result object on the last line of a driver-form run's output,
/// with the `untraced` line before it if there is one.
pub fn parse_output(stdout: &str) -> Result<RunResult, String> {
    let mut lines = stdout.lines().rev();
    let last = lines.next().ok_or("child printed nothing")?;
    let mut result = json::parse(last)
        .ok()
        .as_ref()
        .and_then(RunResult::from_json)
        .ok_or_else(|| format!("unparseable result line: {last}"))?;
    if let Some(untraced) = lines
        .next()
        .and_then(|line| json::parse(line).ok())
        .as_ref()
        .and_then(|doc| doc.get("untraced"))
    {
        result.untraced = metrics_from_json(untraced).ok_or("malformed `untraced` line")?;
    }
    Ok(result)
}

/// One row of a result file (`BENCH_<n>.json`).
#[derive(Debug, Clone)]
pub struct Row {
    pub metric: String,
    /// `-` for numbers that do not depend on a workload.
    pub workload: String,
    pub layer: String,
    pub unit: String,
    pub direction: String,
    pub summary: Summary,
    /// Regression bound; `None` for per-layer rows.
    pub bound: Option<f64>,
}

impl Row {
    fn to_json(&self, git_rev: &str, seed: u64) -> Json {
        Json::object([
            ("metric", Json::Str(self.metric.clone())),
            ("workload", Json::Str(self.workload.clone())),
            ("layer", Json::Str(self.layer.clone())),
            ("unit", Json::Str(self.unit.clone())),
            ("direction", Json::Str(self.direction.clone())),
            ("median", Json::Num(self.summary.median)),
            ("min", Json::Num(self.summary.min)),
            ("max", Json::Num(self.summary.max)),
            ("mad", Json::Num(self.summary.mad)),
            ("samples", Json::Num(self.summary.samples as f64)),
            ("bound", self.bound.map_or(Json::Null, Json::Num)),
            ("git_rev", Json::Str(git_rev.into())),
            // A string: a u64 seed need not fit a JSON number.
            ("seed", Json::Str(seed.to_string())),
        ])
    }

    fn from_json(doc: &Json) -> Option<Row> {
        let text = |key: &str| Some(doc.get(key)?.as_str()?.to_string());
        let num = |key: &str| doc.get(key)?.as_f64();
        Some(Row {
            metric: text("metric")?,
            workload: text("workload")?,
            layer: text("layer")?,
            unit: text("unit")?,
            direction: text("direction")?,
            summary: Summary {
                median: num("median")?,
                min: num("min")?,
                max: num("max")?,
                mad: num("mad")?,
                samples: num("samples")? as usize,
            },
            bound: num("bound"),
        })
    }
}

/// Writes a result file: a header object, then one row per line.
pub fn write_rows(path: &Path, header: &str, seed: u64, rows: &[Row]) -> Result<(), String> {
    let git_rev = git_rev();
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"about\": {},\n",
        Json::Str(header.into()).render()
    ));
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        out.push_str(&format!(
            "    {}{sep}\n",
            row.to_json(&git_rev, seed).render()
        ));
    }
    out.push_str("  ]\n}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn read_rows(path: &Path) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    doc.get("rows")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{}: no `rows` array", path.display()))?
        .iter()
        .map(|row| Row::from_json(row).ok_or_else(|| format!("{}: malformed row", path.display())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_reports_median_mad_and_extremes() {
        let s = Summary::of(&[5.0, 1.0, 9.0, 3.0]);
        assert_eq!((s.median, s.min, s.max, s.samples), (4.0, 1.0, 9.0, 4));
        assert_eq!(s.mad, 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 95.0), 5.0);
    }

    #[test]
    fn a_timed_runs_output_parses_back_with_its_untraced_line() {
        let result = RunResult {
            correct: false,
            attempted: 12,
            failed: 1,
            metrics: vec![("setup_s".into(), 0.25, "s".into())],
            untraced: vec![("net_bytes_per_record".into(), 4.749_786_75, "B".into())],
        };
        let stdout = format!(
            "# progress\n{}\n{}\n",
            result.untraced_to_json().render(),
            result.to_json().render()
        );
        let back = parse_output(&stdout).expect("parses");
        assert_eq!((back.correct, back.attempted, back.failed), (false, 12, 1));
        assert_eq!(back.value("setup_s"), Some(0.25));
        assert_eq!(back.value("net_bytes_per_record"), Some(4.749_786_75));
        // A traced run prints no such line.
        let alone = parse_output(&result.to_json().render()).expect("parses");
        assert!(alone.untraced.is_empty());
    }

    #[test]
    fn measure_scales_with_the_work() {
        let sampling = Sampling {
            samples: 3,
            sample_time: Duration::from_millis(2),
        };
        let mut sink = 0u64;
        let mut spin = |n: u64| {
            measure(sampling, || {
                for i in 0..n {
                    sink = std::hint::black_box(sink.wrapping_add(i));
                }
            })
            .median
        };
        let (small, large) = (spin(100), spin(10_000));
        assert!(large > small * 10.0, "{small} ns vs {large} ns");
    }
}
