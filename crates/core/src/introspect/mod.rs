//! Self-hosted critical-path analysis: the telemetry stream fed into a
//! Naiad dataflow running on the same runtime, SnailTrail-style.
//!
//! The paper diagnoses stragglers (§5.3) by reading logs offline. This
//! module does it *online* by dogfooding the system on itself:
//!
//! 1. **Tap** — each worker's [`Recorder`] gets a bounded, in-process
//!    tap ([`Tap`](crate::telemetry::Tap)) that copies attributable
//!    events (schedule slices, message transit, progress traffic,
//!    notification delivery) into a per-worker queue. No locks on the
//!    recording hot path; overflow is counted, never blocking.
//! 2. **Observer dataflow** — a second dataflow, built through the same
//!    [`Worker::dataflow`] path as any user graph (and therefore
//!    statically certified by the [`crate::analysis`] rules), ingests
//!    [`ActivitySample`]s. A step hook drains the tap between scheduling
//!    steps, attributes events to source epochs via
//!    [`AttributionState`], and feeds the observer's input — *sending
//!    before advancing*, and never advancing past the running
//!    attribution epoch, so a sample for epoch `e` is always introduced
//!    at an observer timestamp `≤ e` and the analysis vertex's
//!    notification at `e` is sound (fires exactly once, after the last
//!    sample of the epoch).
//! 3. **Analysis** — samples exchange by epoch, so one vertex assembles
//!    each epoch's program-activity graph; when the epoch's frontier
//!    passes, it emits a [`CriticalPathSummary`] naming the straggler,
//!    the critical path, busy-time skew, and the transit/progress/
//!    notification residual. Summaries route to worker 0, which
//!    collects them for the run's report.
//!
//! The observer is excluded from its own tap (no feedback loop), does
//! not count toward step liveness (the user's `step_until_done` is
//! oblivious to it), and never touches user streams or configuration —
//! a run with introspection is bit-identical to one without.
//!
//! Entry point: [`Execution::introspect`](crate::runtime::Execution::introspect),
//! a per-attempt layer of the run coordinator, so it composes with crash
//! recovery and rescaling. The offline reference
//! ([`offline_reference`]) recomputes the same summaries from harvested
//! logs through the same attribution code, which is what the golden test
//! checks the self-hosted results against.

mod activity;

pub use activity::{
    offline_reference, ActivityKind, ActivitySample, AttributionState, CriticalPathSummary,
    EpochAccumulator,
};

use std::cell::{Cell, RefCell};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::ops::Range;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::dataflow::{InputHandle, InputPort, Notify, OutputPort};
use crate::runtime::sync::Mutex;
use crate::runtime::{Config, Pact, StepHook, Worker};
use crate::telemetry::{EventRecord, Tap};
use crate::time::Timestamp;

/// The observer dataflow's id: the harness builds it before the user
/// closure runs, so it is always the worker's first dataflow.
const OBSERVER_DATAFLOW: u32 = 0;

/// Options for [`Execution::introspect`](crate::runtime::Execution::introspect).
#[derive(Debug, Clone, Copy)]
pub struct IntrospectOptions {
    /// Per-worker tap queue capacity, in events. Overflow increments
    /// `tap_dropped` in the report instead of blocking the hot path.
    pub tap_capacity: usize,
}

impl Default for IntrospectOptions {
    fn default() -> Self {
        IntrospectOptions {
            tap_capacity: 65_536,
        }
    }
}

impl IntrospectOptions {
    /// Sets the per-worker tap capacity.
    #[must_use]
    pub fn tap_capacity(mut self, events: usize) -> Self {
        self.tap_capacity = events;
        self
    }
}

/// Run-wide introspection state, shared by every worker of every attempt
/// and phase of one [`Execution`](crate::runtime::Execution) run.
pub(crate) struct Observer {
    tap_capacity: usize,
    /// Each epoch's summary. Keyed by epoch so a retried attempt that
    /// re-computes an epoch replaces what the failed attempt reported
    /// instead of doubling it.
    summaries: Mutex<BTreeMap<u64, CriticalPathSummary>>,
    tap_dropped: AtomicU64,
}

impl Observer {
    /// Forces telemetry on in `config`.
    pub(crate) fn new(options: IntrospectOptions, config: &mut Config) -> Observer {
        config.telemetry = true;
        Observer {
            tap_capacity: options.tap_capacity,
            summaries: Mutex::default(),
            tap_dropped: AtomicU64::new(0),
        }
    }

    /// The run's summaries in epoch order, and the events dropped at tap
    /// queues.
    pub(crate) fn finish(&self) -> (Vec<CriticalPathSummary>, u64) {
        let summaries = std::mem::take(&mut *self.summaries.lock());
        (
            summaries.into_values().collect(),
            self.tap_dropped.load(Ordering::Relaxed),
        )
    }
}

/// One worker's feed into the observer: the tap queue, the attribution
/// state that turns its events into samples, and the observer input the
/// samples go to.
struct Feed {
    input: InputHandle<ActivitySample>,
    queue: Rc<RefCell<VecDeque<EventRecord>>>,
    attribution: AttributionState,
}

impl Feed {
    /// Moves every tapped event through attribution into the input.
    fn pump(&mut self) {
        // Drain into a local batch first: sending on the observer input
        // records transit events of its own, and although the tap
        // excludes the observer dataflow, holding the queue borrow across
        // a send would be one refactor away from a re-borrow panic.
        let drained: Vec<EventRecord> = self.queue.borrow_mut().drain(..).collect();
        for record in drained {
            if let Some(sample) = self.attribution.push(&record) {
                self.input.send(sample);
            }
        }
    }
}

/// Per-worker introspection state: the feed shared with the step hook,
/// and what [`Harness::finish`] needs to take it down.
pub(crate) struct Harness {
    feed: Rc<RefCell<Feed>>,
    dropped: Rc<Cell<u64>>,
    observer: Arc<Observer>,
}

impl Harness {
    /// Builds the observer dataflow, marks it as such, installs the
    /// recorder tap and the step hook. Must run before the user closure
    /// builds any dataflow (the observer claims id 0). `epochs` is what
    /// this attempt computes — resume epoch to stop epoch; summaries
    /// outside it are start-up noise (slices scheduled before the driver
    /// advanced its inputs to the resume epoch) and are not reported.
    pub(crate) fn install(
        worker: &mut Worker,
        observer: &Arc<Observer>,
        epochs: Range<u64>,
    ) -> Harness {
        let input = build_observer(worker, Arc::clone(observer), epochs);
        worker.mark_observer(OBSERVER_DATAFLOW as usize);

        let queue = Rc::new(RefCell::new(VecDeque::new()));
        let dropped = Rc::new(Cell::new(0u64));
        worker.recorder().install_tap(Tap {
            queue: Rc::clone(&queue),
            capacity: observer.tap_capacity.max(1),
            dropped: Rc::clone(&dropped),
            exclude_dataflow: OBSERVER_DATAFLOW,
        });
        let feed = Rc::new(RefCell::new(Feed {
            input,
            queue,
            attribution: AttributionState::new(u32::try_from(worker.index()).unwrap_or(u32::MAX)),
        }));

        let hook_feed = Rc::clone(&feed);
        let hook: StepHook = Rc::new(RefCell::new(move |min_open: Option<u64>| {
            let mut feed = hook_feed.borrow_mut();
            if feed.input.is_closed() {
                return;
            }
            feed.pump();
            // Send, *then* advance — and never past the attribution
            // epoch. Schedule and notification samples carry a tracker
            // epoch that is monotone per worker, but transit and progress
            // samples inherit the epoch of the *last* schedule slice,
            // which can lag one step behind the frontier. Clamping the
            // advance to `min(min_open, attribution.epoch())` guarantees
            // every future sample carries an epoch `≥` the observer
            // clock, so the analysis vertex's notification at `e` fires
            // exactly once, after the last sample for `e`.
            if let Some(min_open) = min_open {
                let safe = min_open.min(feed.attribution.epoch());
                if safe > feed.input.epoch() {
                    feed.input.advance_to(safe);
                }
            }
        }));
        worker.add_step_hook(hook);

        Harness {
            feed,
            dropped,
            observer: Arc::clone(observer),
        }
    }

    /// Flushes the tap through the observer, closes its input, and runs
    /// the observer dataflow to completion.
    pub(crate) fn finish(self, worker: &mut Worker) {
        {
            let mut feed = self.feed.borrow_mut();
            if !feed.input.is_closed() {
                feed.pump();
                feed.input.close();
            }
        }
        worker.recorder().remove_tap();
        while !worker.observers_complete() {
            if !worker.step() {
                worker.idle_wait();
            }
        }
        self.observer
            .tap_dropped
            .fetch_add(self.dropped.get(), Ordering::Relaxed);
    }
}

/// Builds the observer dataflow on `worker` and returns its input.
///
/// Topology: `Input → CriticalPath (exchange by epoch, notify per
/// epoch) → Summaries (exchange to worker 0, sink)`. Built through
/// [`Worker::dataflow`], so the static analyzer certifies it like any
/// user graph.
fn build_observer(
    worker: &mut Worker,
    observer: Arc<Observer>,
    epochs: Range<u64>,
) -> InputHandle<ActivitySample> {
    worker.dataflow(move |scope| {
        let (input, samples) = scope.new_input::<ActivitySample>();

        let summaries = samples.unary_notify(
            Pact::exchange(|s: &ActivitySample| s.epoch),
            "CriticalPath",
            move |_info| {
                let table: Rc<RefCell<HashMap<u64, EpochAccumulator>>> = Rc::default();
                let flush = Rc::clone(&table);
                (
                    move |input: &mut InputPort<ActivitySample>,
                          _output: &mut OutputPort<CriticalPathSummary>,
                          notify: &Notify| {
                        input.for_each(|_time, data| {
                            let mut table = table.borrow_mut();
                            for sample in data {
                                let accumulator = match table.entry(sample.epoch) {
                                    Entry::Occupied(entry) => entry.into_mut(),
                                    Entry::Vacant(entry) => {
                                        // First sample of the epoch:
                                        // summarize once its frontier
                                        // passes.
                                        notify.notify_at(Timestamp::new(sample.epoch));
                                        entry.insert(EpochAccumulator::default())
                                    }
                                };
                                accumulator.push(&sample);
                            }
                        });
                    },
                    move |time: Timestamp,
                          output: &mut OutputPort<CriticalPathSummary>,
                          _notify: &Notify| {
                        if let Some(accumulator) = flush.borrow_mut().remove(&time.epoch) {
                            output.session(time).give(accumulator.finish(time.epoch));
                        }
                    },
                )
            },
        );

        summaries.sink(Pact::exchange(|_| 0), "Summaries", move |_info| {
            move |input: &mut InputPort<CriticalPathSummary>| {
                input.for_each(|_time, data| {
                    let mut collected = observer.summaries.lock();
                    for summary in data {
                        if epochs.contains(&summary.epoch) {
                            collected.insert(summary.epoch, summary);
                        }
                    }
                });
            }
        });

        input
    })
}
