//! Input stages and their external-producer handles (§2.1, §4.1).
//!
//! Each worker hosts one vertex of every input stage; the worker's driver
//! code feeds it through an [`InputHandle`] following the push-based model
//! of §4.1: `send` supplies records for the current epoch, `advance_to`
//! marks the epoch complete and opens a later one, and `close` marks the
//! input finished. The §2.3 initialization — an active pointstamp at the
//! input vertex for the first epoch — happens when the stage is created.

use std::cell::RefCell;
use std::rc::Rc;

use naiad_wire::ExchangeData;

use crate::graph::{ContextId, StageId, StageKind};
use crate::progress::Pointstamp;
use crate::runtime::channels::{journal_update, Journal};
use crate::time::Timestamp;

use super::ports::{Flush, Tee, TeeState};
use super::{Scope, Stream, TrackerCell};

impl Scope {
    /// Adds an input stage, returning the producer handle and the stream
    /// of its records.
    ///
    /// Records sent before the dataflow closure returns are accepted but
    /// reach only consumers already attached; send after
    /// [`Worker::dataflow`](crate::runtime::Worker::dataflow) returns.
    pub fn new_input<D: ExchangeData>(&mut self) -> (InputHandle<D>, Stream<D>) {
        // §2.3's initialization (an active pointstamp at the input vertex
        // for the first epoch) is derived from the graph by every
        // participant's tracker and accumulator rather than journaled here;
        // this handle only journals epoch transitions and closure.
        let stage = self.inner.borrow_mut().builder.add_stage(
            "Input",
            StageKind::Input,
            ContextId::ROOT,
            0,
            1,
        );
        let stream: Stream<D> = Stream::new(stage, 0, ContextId::ROOT, self.clone_ref());
        let inner = self.inner.borrow();
        let journal = inner.journal.clone();
        let tracker = inner.tracker.clone();
        // Ingress admission control: when the run is configured with
        // credit-based flow control, the handle starts with the flow
        // config's open-epoch window so a producer using
        // `try_advance_to` cannot race ahead of the frontier.
        let window = inner
            .routing
            .bringup
            .flow
            .as_ref()
            .and_then(|f| f.config().max_open_epochs);
        drop(inner);
        let handle = InputHandle {
            shared: Rc::new(RefCell::new(InputShared {
                stage,
                epoch: 0,
                closed: false,
                tee: stream.tee.clone(),
                journal,
                tracker,
                window,
            })),
        };
        (handle, stream)
    }
}

struct InputShared<D> {
    stage: StageId,
    epoch: u64,
    closed: bool,
    tee: Tee<D>,
    journal: Journal,
    /// The dataflow's progress view, for the admission window.
    tracker: TrackerCell,
    /// Maximum epochs the producer may hold open beyond the frontier
    /// (`None` = unbounded, the classical §4.1 producer).
    window: Option<u64>,
}

impl<D> InputShared<D> {
    /// The oldest epoch the dataflow can still work on, from this
    /// worker's tracker. Falls back to the producer's own epoch while
    /// the graph is under construction or once everything has drained —
    /// both cases admit.
    fn frontier_epoch(&self) -> u64 {
        self.tracker
            .borrow()
            .try_table()
            .and_then(crate::progress::PointstampTable::min_epoch)
            .unwrap_or(self.epoch)
    }
}

/// The external producer's handle to an input stage (§4.1's `OnNext` /
/// `OnCompleted` pattern).
///
/// Dropping the handle closes the input if `close` was not called, so a
/// dataflow can always drain and shut down cleanly.
pub struct InputHandle<D: ExchangeData> {
    shared: Rc<RefCell<InputShared<D>>>,
}

impl<D: ExchangeData> InputHandle<D> {
    /// Supplies one record for the current epoch.
    ///
    /// Records go downstream as one container at the run's `batch_size`,
    /// [`advance_to`](Self::advance_to) and [`close`](Self::close).
    ///
    /// # Panics
    ///
    /// Panics if the input is closed.
    pub fn send(&mut self, record: D) {
        let shared = self.shared.borrow();
        assert!(!shared.closed, "send on a closed input");
        TeeState::at(&shared.tee, Timestamp::new(shared.epoch)).push(record);
    }

    /// Supplies a batch of records for the current epoch.
    pub fn send_batch(&mut self, records: impl IntoIterator<Item = D>) {
        let mut batch: Vec<D> = records.into_iter().collect();
        self.send_container(&mut batch);
    }

    /// Supplies a whole container of records for the current epoch,
    /// draining it in place (capacity is retained for refilling).
    ///
    /// This is the batch counterpart of [`InputHandle::send`]: the input
    /// machinery is borrowed once per container instead of once per
    /// record, and the container rides the channel layer's batch path
    /// (DESIGN.md §16). Prefer it when feeding high-volume inputs.
    ///
    /// # Panics
    ///
    /// Panics if the input is closed.
    pub fn send_container(&mut self, records: &mut Vec<D>) {
        let shared = self.shared.borrow();
        assert!(!shared.closed, "send_container on a closed input");
        let mut output = shared.tee.borrow_mut();
        output.send_pending();
        output.fan_out(Timestamp::new(shared.epoch), records);
    }

    /// Marks every epoch before `epoch` complete (§2.1: the producer
    /// notifies the input vertex that an epoch is finished).
    ///
    /// # Panics
    ///
    /// Panics if `epoch` is not beyond the current epoch, or the input is
    /// closed.
    pub fn advance_to(&mut self, epoch: u64) {
        let mut shared = self.shared.borrow_mut();
        assert!(!shared.closed, "advance_to on a closed input");
        assert!(
            epoch > shared.epoch,
            "advance_to({epoch}) does not advance past epoch {}",
            shared.epoch
        );
        shared.tee.flush();
        // §2.3: add the new epoch's pointstamp, then retire the old one,
        // permitting downstream notifications for the completed epoch.
        let stage = shared.stage;
        let old = shared.epoch;
        journal_update(
            &shared.journal,
            Pointstamp::at_vertex(Timestamp::new(epoch), stage),
            1,
        );
        journal_update(
            &shared.journal,
            Pointstamp::at_vertex(Timestamp::new(old), stage),
            -1,
        );
        shared.epoch = epoch;
    }

    /// Like [`advance_to`](Self::advance_to), but subject to the
    /// admission window: returns `false` without advancing when opening
    /// `epoch` would leave the producer more than the window's epochs
    /// ahead of the frontier. The blessed pattern is
    /// `while !input.try_advance_to(e) { worker.step(); }` — stepping
    /// drains older epochs, moving the frontier until the epoch admits.
    ///
    /// With no window configured this always advances.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` is not beyond the current epoch, or the input
    /// is closed — the same contract as [`advance_to`](Self::advance_to).
    pub fn try_advance_to(&mut self, epoch: u64) -> bool {
        {
            let shared = self.shared.borrow();
            assert!(!shared.closed, "try_advance_to on a closed input");
            assert!(
                epoch > shared.epoch,
                "try_advance_to({epoch}) does not advance past epoch {}",
                shared.epoch
            );
            if let Some(window) = shared.window {
                if epoch.saturating_sub(shared.frontier_epoch()) > window {
                    return false;
                }
            }
        }
        self.advance_to(epoch);
        true
    }

    /// Epochs the producer currently holds open beyond the frontier:
    /// `epoch() − min_epoch` over the dataflow's active pointstamps.
    /// Zero while the graph is under construction or after everything
    /// older has drained.
    pub fn open_epochs(&self) -> u64 {
        let shared = self.shared.borrow();
        shared.epoch.saturating_sub(shared.frontier_epoch())
    }

    /// The admission window consulted by
    /// [`try_advance_to`](Self::try_advance_to), if any: at most this many
    /// epochs open beyond the frontier. Every input of a run takes it from
    /// its [`FlowConfig`](crate::runtime::FlowConfig)'s `max_open_epochs`.
    pub fn admission_window(&self) -> Option<u64> {
        self.shared.borrow().window
    }

    /// Closes the input: no more records from any epoch (§2.1).
    ///
    /// Idempotent.
    pub fn close(&mut self) {
        let mut shared = self.shared.borrow_mut();
        if shared.closed {
            return;
        }
        shared.tee.flush();
        let stage = shared.stage;
        let epoch = shared.epoch;
        journal_update(
            &shared.journal,
            Pointstamp::at_vertex(Timestamp::new(epoch), stage),
            -1,
        );
        shared.closed = true;
    }

    /// The current (incomplete) epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.borrow().epoch
    }

    /// Whether the input has been closed.
    pub fn is_closed(&self) -> bool {
        self.shared.borrow().closed
    }

    /// The input's stage id.
    pub fn stage(&self) -> StageId {
        self.shared.borrow().stage
    }
}

impl<D: ExchangeData> Drop for InputHandle<D> {
    fn drop(&mut self) {
        // A worker unwinding from a fault takes its dataflows down with
        // it. Flushing still-buffered records then would send into the
        // fabric that just failed and panic again, inside a destructor —
        // an abort instead of the typed error the unwind carries.
        if !std::thread::panicking() {
            self.close();
        }
    }
}
