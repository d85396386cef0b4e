//! Typed operator ports.
//!
//! User vertex logic sees its connectors through an [`InputPort`] (queued
//! `OnRecv` batches) and an [`OutputPort`] (the `SendBy` side, fanning out
//! to every downstream connector attached to the stage output).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use naiad_wire::ExchangeData;

use crate::runtime::channels::{Message, Puller, Pusher};
use crate::time::Timestamp;

/// The shared fan-out point of a stage output: one pusher per downstream
/// connector, attached as consumers are built.
pub(crate) struct Tee<D> {
    pushers: Rc<RefCell<Vec<Pusher<D>>>>,
}

impl<D> Clone for Tee<D> {
    fn clone(&self) -> Self {
        Tee {
            pushers: self.pushers.clone(),
        }
    }
}

impl<D: ExchangeData> Tee<D> {
    pub(crate) fn new() -> Self {
        Tee {
            pushers: Rc::new(RefCell::new(Vec::new())),
        }
    }

    /// Attaches the pusher of a newly connected consumer.
    pub(crate) fn attach(&self, pusher: Pusher<D>) {
        self.pushers.borrow_mut().push(pusher);
    }

    /// The fan-out rule of a stage output: every consumer but the last gets
    /// a copy of `item` (`give_copy`), the last takes it (`give`). With no
    /// consumer the item comes back untouched.
    fn fan_out<T>(
        &self,
        item: T,
        give_copy: impl Fn(&mut Pusher<D>, &T),
        give: impl FnOnce(&mut Pusher<D>, T),
    ) -> Option<T> {
        let mut pushers = self.pushers.borrow_mut();
        let Some((last, rest)) = pushers.split_last_mut() else {
            return Some(item);
        };
        for pusher in rest {
            give_copy(pusher, &item);
        }
        give(last, item);
        None
    }

    /// Sends one record at `time` to every consumer; with none it is
    /// dropped, like Naiad.
    pub(crate) fn give(&self, time: Timestamp, record: D) {
        self.fan_out(
            record,
            |pusher, record| pusher.give(time, record.clone()),
            |pusher, record| pusher.give(time, record),
        );
    }

    /// Sends a container at `time` to every consumer, draining it in place
    /// (its capacity is retained for the caller to refill).
    pub(crate) fn give_container(&self, time: Timestamp, records: &mut Vec<D>) {
        let unsent = self.fan_out(
            records,
            |pusher, records| pusher.give_batch(time, &mut (**records).clone()),
            |pusher, records| pusher.give_batch(time, records),
        );
        if let Some(records) = unsent {
            records.clear(); // No consumers: records are dropped, like Naiad.
        }
    }
}

/// A stage output as its vertex sees it once the logic has run: buffers to
/// push downstream.
pub(crate) trait Flush {
    /// Flushes every attached pusher's buffers.
    fn flush(&self);
}

impl<D: ExchangeData> Flush for Tee<D> {
    fn flush(&self) {
        for pusher in self.pushers.borrow_mut().iter_mut() {
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
            tee: &self.tee,
            time,
        }
    }

    /// Sends one record at `time`.
    pub fn give(&mut self, time: Timestamp, record: D) {
        self.tee.give(time, record);
    }
}

/// A borrowed sending session at a fixed timestamp.
pub struct Session<'a, D> {
    tee: &'a Tee<D>,
    time: Timestamp,
}

impl<D: ExchangeData> Session<'_, D> {
    /// Sends one record.
    pub fn give(&mut self, record: D) {
        self.tee.give(self.time, record);
    }

    /// Sends every record from an iterator.
    pub fn give_iterator(&mut self, records: impl IntoIterator<Item = D>) {
        for r in records {
            self.give(r);
        }
    }

    /// Sends a vector of records.
    pub fn give_vec(&mut self, records: Vec<D>) {
        self.give_iterator(records);
    }

    /// Sends a whole container of records, draining it in place (its
    /// capacity is retained for the caller to refill).
    ///
    /// The final consumer takes the records by move — pipeline channels
    /// can ship the container itself — and any additional consumers
    /// receive clones. Pair with
    /// [`InputPort::for_each_batch`](super::ports::InputPort::for_each_batch)
    /// for an allocation-free steady state (DESIGN.md §16).
    pub fn give_container(&mut self, records: &mut Vec<D>) {
        self.tee.give_container(self.time, records);
    }

    /// The session's timestamp.
    pub fn time(&self) -> Timestamp {
        self.time
    }
}
