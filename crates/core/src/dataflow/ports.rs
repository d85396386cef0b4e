//! Typed operator ports.
//!
//! User vertex logic sees its connectors through an [`InputPort`] (queued
//! `OnRecv` batches) and an [`OutputPort`] (the `SendBy` side, fanning out
//! to every downstream connector attached to the stage output).

use std::cell::{Cell, RefCell, RefMut};
use std::rc::Rc;

use naiad_wire::ExchangeData;

use crate::runtime::channels::{Message, Puller, Pusher};
use crate::time::Timestamp;

/// The shared fan-out point of a stage output, held by its stream, its
/// vertex and whatever writes to it.
pub(crate) type Tee<D> = Rc<RefCell<TeeState<D>>>;

/// A stage output: its pending container and one pusher per downstream
/// connector, attached as consumers are built. Records leave it only as
/// containers (DESIGN.md §16).
pub(crate) struct TeeState<D> {
    /// Records given at `time` and not yet handed on, in the order given.
    /// They go to the pushers as one container when it fills
    /// (`batch_size`), when a record at another time or a whole container
    /// is given, and when the output is flushed.
    pending: Vec<D>,
    time: Timestamp,
    batch_size: usize,
    /// A recycled container for the copies every consumer but the last
    /// receives.
    copy: Vec<D>,
    pub(crate) pushers: Vec<Pusher<D>>,
}

impl<D: ExchangeData> TeeState<D> {
    pub(crate) fn shared(batch_size: usize) -> Tee<D> {
        Rc::new(RefCell::new(TeeState {
            pending: Vec::new(),
            time: Timestamp::new(0),
            batch_size,
            copy: Vec::new(),
            pushers: Vec::new(),
        }))
    }

    /// `tee`, ready to take records at `time`: what is pending at another
    /// time goes first.
    pub(crate) fn at(tee: &Tee<D>, time: Timestamp) -> RefMut<'_, Self> {
        let mut output = tee.borrow_mut();
        if output.time != time {
            output.send_pending();
            output.time = time;
        }
        output
    }

    /// Buffers one record at the output's current time.
    #[inline]
    pub(crate) fn push(&mut self, record: D) {
        self.pending.push(record);
        if self.pending.len() >= self.batch_size {
            self.send_pending();
        }
    }

    /// Hands the pending container to every consumer.
    pub(crate) fn send_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let mut pending = std::mem::take(&mut self.pending);
        self.fan_out(self.time, &mut pending);
        self.pending = pending;
    }

    /// The fan-out rule of a stage output: every consumer but the last
    /// gets a copy of `records`, the last takes them, draining the
    /// container in place. With no consumer they are dropped, like Naiad.
    pub(crate) fn fan_out(&mut self, time: Timestamp, records: &mut Vec<D>) {
        let Some((last, rest)) = self.pushers.split_last_mut() else {
            records.clear();
            return;
        };
        for pusher in rest {
            self.copy.extend(records.iter().cloned());
            pusher.give_batch(time, &mut self.copy);
        }
        last.give_batch(time, records);
    }
}

/// A stage output as its vertex sees it once the logic has run: buffers to
/// push downstream.
pub(crate) trait Flush {
    /// Sends the pending container and flushes every attached pusher.
    fn flush(&self);
}

impl<D: ExchangeData> Flush for Tee<D> {
    fn flush(&self) {
        let mut output = self.borrow_mut();
        output.send_pending();
        for pusher in &mut output.pushers {
            pusher.flush();
        }
    }
}

/// The receiving side of a connector, handed to vertex logic.
///
/// Every read drains the port. Each pull retires the batch before it (its
/// `OnRecv` is over once the logic asks for more), and the pull that finds
/// the queue empty retires the last, so no retirement is left owing when
/// the logic returns (§2.3).
pub struct InputPort<D> {
    puller: Puller<D>,
    /// Set on every delivered batch; shared by all inputs of the vertex,
    /// which reads and clears it after each invocation.
    worked: Rc<Cell<bool>>,
}

impl<D: ExchangeData> InputPort<D> {
    pub(crate) fn new(puller: Puller<D>, worked: Rc<Cell<bool>>) -> Self {
        InputPort { puller, worked }
    }

    fn pull(&mut self) -> Option<Message<D>> {
        let message = self.puller.pull()?;
        self.worked.set(true);
        Some(message)
    }

    /// Applies `logic` to every queued batch.
    pub fn for_each(&mut self, mut logic: impl FnMut(Timestamp, Vec<D>)) {
        while let Some(Message { time, data }) = self.pull() {
            logic(time, data);
        }
    }

    /// Applies `logic` to every queued batch *by reference*, recycling
    /// each emptied container back to the channel's spare stack
    /// (DESIGN.md §16).
    ///
    /// This is the zero-allocation counterpart of
    /// [`for_each`](InputPort::for_each): records the logic leaves in the
    /// container are discarded when it is recycled, so drain it (e.g. via
    /// `drain(..)`, [`Session::give_container`], or `std::mem::take` of
    /// individual records). Prefer this form on hot paths.
    pub fn for_each_batch(&mut self, mut logic: impl FnMut(Timestamp, &mut Vec<D>)) {
        while let Some(Message { time, mut data }) = self.pull() {
            logic(time, &mut data);
            self.puller.recycle(data);
        }
    }
}

/// The sending side of a stage output, handed to vertex logic.
pub struct OutputPort<D> {
    tee: Tee<D>,
}

impl<D: ExchangeData> OutputPort<D> {
    pub(crate) fn new(tee: Tee<D>) -> Self {
        OutputPort { tee }
    }

    /// Opens a session sending records at `time`.
    ///
    /// Vertex logic must only use times greater than or equal to the time
    /// of the event being processed (§2.2); the progress tracker's
    /// correctness depends on it.
    pub fn session(&mut self, time: Timestamp) -> Session<'_, D> {
        Session {
            output: TeeState::at(&self.tee, time),
        }
    }

    /// Sends one record at `time`, buffered like [`Session::give`].
    pub fn give(&mut self, time: Timestamp, record: D) {
        TeeState::at(&self.tee, time).push(record);
    }
}

/// A borrowed sending session at a fixed timestamp. Records given singly
/// collect in the output's pending container and leave in order, as one
/// container, at the run's `batch_size` or when the invocation ends.
pub struct Session<'a, D> {
    output: RefMut<'a, TeeState<D>>,
}

impl<D: ExchangeData> Session<'_, D> {
    /// Sends one record.
    #[inline]
    pub fn give(&mut self, record: D) {
        self.output.push(record);
    }

    /// Sends every record from an iterator.
    pub fn give_iterator(&mut self, records: impl IntoIterator<Item = D>) {
        for record in records {
            self.output.push(record);
        }
    }

    /// Sends a vector of records, as a container.
    pub fn give_vec(&mut self, mut records: Vec<D>) {
        self.give_container(&mut records);
    }

    /// Sends a whole container of records, draining it in place (its
    /// capacity is retained for the caller to refill). Records given
    /// singly before it go first.
    ///
    /// The final consumer takes the records by move — pipeline channels
    /// can ship the container itself — and any additional consumers
    /// receive clones. Pair with
    /// [`InputPort::for_each_batch`](super::ports::InputPort::for_each_batch)
    /// for an allocation-free steady state (DESIGN.md §16).
    pub fn give_container(&mut self, records: &mut Vec<D>) {
        let time = self.output.time;
        self.output.send_pending();
        self.output.fan_out(time, records);
    }

    /// The session's timestamp.
    pub fn time(&self) -> Timestamp {
        self.output.time
    }
}
