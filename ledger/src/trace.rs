//! Benchmark-side spans: one per call a worker closure makes into the
//! runtime, kept in a per-worker `Vec` and written as JSON lines when
//! the run ends. Spans inside the program are a later issue, so every
//! layer is seen from outside here.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use naiad::Worker;

/// What a span covers. `Epoch` is the parent of everything a worker does
/// between opening an epoch and opening the next; the rest are single
/// calls into the runtime (`Generate` is the load generator itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Build,
    Epoch,
    Generate,
    Feed,
    Advance,
    /// One direct `Worker::step`.
    Step,
    /// One round of `Worker::step_while`: a `step` plus the idle wait
    /// that follows it when nothing worked (the wait is crate-private,
    /// so the two cannot be told apart from outside).
    WaitStep,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Build => "dataflow",
            Kind::Epoch => "epoch",
            Kind::Generate => "generate",
            Kind::Feed => "feed",
            Kind::Advance => "advance_to",
            Kind::Step => "step",
            Kind::WaitStep => "step_while",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The epoch (or barrier round) the worker was serving.
    pub epoch: u64,
    /// Index of the parent span in the same worker's list, plus one;
    /// zero for a root.
    pub parent: u32,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A worker's span recorder. Disabled, every method is one branch, so
/// the timed (untraced) repetitions share the traced code path.
pub struct Tracer {
    on: bool,
    base: Instant,
    spans: Vec<Span>,
    /// The open `Epoch` span, as index plus one.
    parent: u32,
}

impl Tracer {
    /// `base` is shared by all workers so their spans share a clock.
    pub fn new(on: bool, base: Instant) -> Self {
        Tracer {
            on,
            base,
            spans: Vec::new(),
            parent: 0,
        }
    }

    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Records a finished span under the open epoch.
    fn push(&mut self, kind: Kind, start_ns: u64, end_ns: u64, epoch: u64) {
        self.spans.push(Span {
            kind,
            start_ns,
            end_ns,
            epoch,
            parent: self.parent,
        });
    }

    /// Times `f` as one span under the open epoch.
    pub fn span<R>(&mut self, kind: Kind, epoch: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.push(kind, start_ns, end_ns, epoch);
        out
    }

    /// Closes the open epoch span, if any, and opens one for `epoch`.
    pub fn open_epoch(&mut self, epoch: u64) {
        if !self.on {
            return;
        }
        let now = self.now();
        self.close_epoch_at(now);
        self.spans.push(Span {
            kind: Kind::Epoch,
            start_ns: now,
            end_ns: now,
            epoch,
            parent: 0,
        });
        self.parent = self.spans.len() as u32;
    }

    pub fn close_epoch(&mut self) {
        if self.on {
            let now = self.now();
            self.close_epoch_at(now);
        }
    }

    fn close_epoch_at(&mut self, now: u64) {
        if self.parent != 0 {
            self.spans[self.parent as usize - 1].end_ns = now;
            self.parent = 0;
        }
    }

    /// `worker.step()` as a span.
    pub fn step(&mut self, worker: &mut Worker, epoch: u64) -> bool {
        self.span(Kind::Step, epoch, || worker.step())
    }

    /// `worker.step_while(|| !ready())`, one span per round when on.
    pub fn step_until(&mut self, worker: &mut Worker, epoch: u64, mut ready: impl FnMut() -> bool) {
        if !self.on {
            worker.step_while(|| !ready());
            return;
        }
        // `step_while` calls its condition before every step, so two
        // consecutive calls bracket one step and its idle wait.
        let mut open: Option<u64> = None;
        worker.step_while(|| {
            let now = self.now();
            if let Some(start_ns) = open.take() {
                self.push(Kind::WaitStep, start_ns, now, epoch);
            }
            let go = !ready();
            if go {
                open = Some(now);
            }
            go
        });
        // `step_while` also returns when `step` reports nothing live.
        if let Some(start_ns) = open {
            let end_ns = self.now();
            self.push(Kind::WaitStep, start_ns, end_ns, epoch);
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Spans written per worker; the aggregates use every span recorded.
pub const SPANS_WRITTEN_PER_WORKER: usize = 100_000;

/// Writes `trace_<workload>.jsonl`: a header line, then one line per
/// span (`id` is `worker:index`, `parent` the id of the enclosing epoch
/// span or null).
pub fn write_jsonl(
    path: &Path,
    workload: &str,
    seed: u64,
    per_worker: &[Vec<Span>],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let recorded: Vec<String> = per_worker.iter().map(|s| s.len().to_string()).collect();
    writeln!(
        out,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"clock\": \"ns since the run's base instant, shared by workers\", \
         \"spans_recorded_per_worker\": [{}], \"spans_written_per_worker_max\": {SPANS_WRITTEN_PER_WORKER}}}",
        recorded.join(", ")
    )?;
    let mut line = String::new();
    for (worker, spans) in per_worker.iter().enumerate() {
        for (index, span) in spans.iter().take(SPANS_WRITTEN_PER_WORKER).enumerate() {
            line.clear();
            let _ = write!(
                line,
                "{{\"id\": \"{worker}:{index}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": ",
                span.kind.name(),
                span.start_ns,
                span.end_ns
            );
            match span.parent {
                0 => line.push_str("null"),
                p => {
                    let _ = write!(line, "\"{worker}:{}\"", p - 1);
                }
            }
            let _ = write!(line, ", \"worker\": {worker}, \"epoch\": {}}}", span.epoch);
            writeln!(out, "{line}")?;
        }
    }
    out.flush()
}
