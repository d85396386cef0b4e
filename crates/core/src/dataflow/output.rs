//! Output-side conveniences: probes, subscriptions, captures, inspection.
//!
//! `subscribe` is the paper's §4.1 output stage: a per-epoch callback fired
//! when the epoch is complete at this worker. `probe` exposes the frontier
//! at a point in the graph so driver code can pace itself ("has epoch e
//! reached the output yet?").

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use naiad_wire::ExchangeData;

use crate::graph::{Location, StageId};
use crate::runtime::channels::Pact;
use crate::time::Timestamp;

use super::ports::InputPort;
use super::{Notify, Stream, TrackerCell};

/// Observes progress at a point in the dataflow.
///
/// The probe reflects this worker's view of the global frontier, which is
/// exactly the guarantee notifications rest on (§3.3): if
/// [`ProbeHandle::done_through`] reports `true` for an epoch, no record of
/// that epoch can ever arrive there again, anywhere.
#[derive(Clone)]
pub struct ProbeHandle {
    stage: StageId,
    tracker: TrackerCell,
}

impl ProbeHandle {
    /// Whether every event at or before `epoch` has drained at the probed
    /// point.
    ///
    /// # Panics
    ///
    /// Panics if called before the enclosing dataflow is finalized.
    pub fn done_through(&self, epoch: u64) -> bool {
        self.tracker
            .borrow()
            .table()
            .done_through(&Timestamp::new(epoch), Location::Vertex(self.stage))
    }

    /// Whether the whole dataflow has quiesced from this worker's view.
    ///
    /// # Panics
    ///
    /// Panics if called before the enclosing dataflow is finalized.
    pub fn done(&self) -> bool {
        self.tracker.borrow().table().is_empty()
    }
}

impl<D: ExchangeData> Stream<D> {
    /// Attaches a probe that consumes (and discards) the stream.
    pub fn probe(&self) -> ProbeHandle {
        let tracker = self.scope.inner.borrow().tracker.clone();
        let mut handle = ProbeHandle {
            stage: StageId(usize::MAX),
            tracker,
        };
        let stage_slot: Rc<RefCell<Option<StageId>>> = Rc::new(RefCell::new(None));
        let slot = stage_slot.clone();
        self.sink(Pact::Pipeline, "Probe", move |info| {
            *slot.borrow_mut() = Some(info.stage);
            move |input: &mut InputPort<D>| {
                input.for_each_batch(|_, _| {});
            }
        });
        handle.stage = stage_slot
            .borrow()
            .expect("sink constructor runs synchronously");
        handle
    }

    /// Invokes `callback(epoch, records)` once per completed epoch with
    /// this worker's partition of the stream (§4.1's `Subscribe`).
    ///
    /// The callback also fires for epochs with no records, so consumers
    /// observe every completed epoch in order of completion.
    ///
    /// Only root-context streams can be subscribed; leave loops first.
    ///
    /// # Panics
    ///
    /// Panics if the stream is inside a loop context.
    pub fn subscribe(&self, mut callback: impl FnMut(u64, Vec<D>) + 'static) {
        assert_eq!(
            self.context,
            crate::graph::ContextId::ROOT,
            "subscribe requires a top-level stream"
        );
        self.sink_notify(Pact::Pipeline, "Subscribe", move |_info| {
            let buffers: Rc<RefCell<HashMap<u64, Vec<D>>>> = Rc::new(RefCell::new(HashMap::new()));
            let recv_buffers = buffers.clone();
            let mut max_seen = 0u64;
            (
                move |input: &mut InputPort<D>, notify: &Notify| {
                    let mut buffers = recv_buffers.borrow_mut();
                    input.for_each(|time, mut data| {
                        // Request completion for every epoch up to this one
                        // so earlier empty epochs are reported too.
                        while max_seen <= time.epoch {
                            notify.notify_at(Timestamp::new(max_seen));
                            max_seen += 1;
                        }
                        buffers.entry(time.epoch).or_default().append(&mut data);
                    });
                },
                move |time: Timestamp, _notify: &Notify| {
                    let data = buffers.borrow_mut().remove(&time.epoch).unwrap_or_default();
                    callback(time.epoch, data);
                },
            )
        });
    }

    /// Collects completed epochs into a shared vector; a test and example
    /// convenience built on [`Stream::subscribe`].
    // The nested type is the whole point: a shared, per-epoch record log.
    #[allow(clippy::type_complexity)]
    pub fn capture(&self) -> Rc<RefCell<Vec<(u64, Vec<D>)>>> {
        let captured = Rc::new(RefCell::new(Vec::new()));
        let sink = captured.clone();
        self.subscribe(move |epoch, data| {
            if !data.is_empty() {
                sink.borrow_mut().push((epoch, data));
            }
        });
        captured
    }

    /// Applies `action` to each record as it flows past, forwarding the
    /// stream unchanged.
    pub fn inspect(&self, mut action: impl FnMut(&Timestamp, &D) + 'static) -> Stream<D> {
        self.unary(Pact::Pipeline, "Inspect", move |_info| {
            move |input: &mut InputPort<D>, output: &mut super::OutputPort<D>| {
                input.for_each_batch(|time, data| {
                    for record in data.iter() {
                        action(&time, record);
                    }
                    output.session(time).give_container(data);
                });
            }
        })
    }
}
