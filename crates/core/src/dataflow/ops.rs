//! Generic operator constructors: unary, binary, and sink stages, with and
//! without notifications.
//!
//! These are the fixed-shape adapters over
//! [`OperatorBuilder`](super::builder::OperatorBuilder) on which the
//! operator library (`naiad-operators`) is layered. Each takes a
//! *constructor* closure: it runs once per worker with the vertex's
//! [`OperatorInfo`] and returns the `OnRecv` (and optionally `OnNotify`)
//! logic, so per-vertex state lives in plain captured variables.

use naiad_wire::ExchangeData;

use crate::runtime::channels::Pact;
use crate::time::Timestamp;

use super::builder::OperatorBuilder;
use super::ports::{InputPort, OutputPort};
use super::{Notify, OperatorInfo, Stream};

impl<D: ExchangeData> Stream<D> {
    /// A one-input, one-output vertex without notifications.
    ///
    /// # Examples
    ///
    /// See [`Stream::unary_notify`] for the notification-using variant;
    /// the distinction mirrors the paper's Figure 4, where the distinct
    /// set is emitted from `OnRecv` and the counts from `OnNotify`.
    pub fn unary<D2, B, L>(&self, pact: Pact<D>, name: &str, constructor: B) -> Stream<D2>
    where
        D2: ExchangeData,
        B: FnOnce(OperatorInfo) -> L,
        L: FnMut(&mut InputPort<D>, &mut OutputPort<D2>) + 'static,
    {
        self.unary_notify(pact, name, |info| {
            let mut logic = constructor(info);
            (
                move |input: &mut InputPort<D>, output: &mut OutputPort<D2>, _notify: &Notify| {
                    logic(input, output)
                },
                |_time: Timestamp, _output: &mut OutputPort<D2>, _notify: &Notify| {},
            )
        })
    }

    /// A one-input, one-output vertex with `OnRecv` and `OnNotify` logic.
    pub fn unary_notify<D2, B, L, N>(&self, pact: Pact<D>, name: &str, constructor: B) -> Stream<D2>
    where
        D2: ExchangeData,
        B: FnOnce(OperatorInfo) -> (L, N),
        L: FnMut(&mut InputPort<D>, &mut OutputPort<D2>, &Notify) + 'static,
        N: FnMut(Timestamp, &mut OutputPort<D2>, &Notify) + 'static,
    {
        let mut builder = OperatorBuilder::new(&mut self.scope(), name, self.context);
        let mut input = builder.add_input(self, pact);
        let (tee, stream) = builder.output::<D2>();
        let notify = builder.notify_handle();
        let (mut recv_logic, mut notify_logic) = constructor(builder.info());
        let mut output = OutputPort::new(tee.clone());
        let mut deliver_output = OutputPort::new(tee);
        let deliver_notify = notify.clone();
        builder.build(
            move || recv_logic(&mut input, &mut output, &notify),
            move |time| notify_logic(time, &mut deliver_output, &deliver_notify),
        );
        stream
    }

    /// A two-input, one-output vertex without notifications.
    pub fn binary<D2, D3, B, L>(
        &self,
        other: &Stream<D2>,
        pact1: Pact<D>,
        pact2: Pact<D2>,
        name: &str,
        constructor: B,
    ) -> Stream<D3>
    where
        D2: ExchangeData,
        D3: ExchangeData,
        B: FnOnce(OperatorInfo) -> L,
        L: FnMut(&mut InputPort<D>, &mut InputPort<D2>, &mut OutputPort<D3>) + 'static,
    {
        self.binary_notify(other, pact1, pact2, name, |info| {
            let mut logic = constructor(info);
            (
                move |i1: &mut InputPort<D>,
                      i2: &mut InputPort<D2>,
                      output: &mut OutputPort<D3>,
                      _notify: &Notify| logic(i1, i2, output),
                |_time: Timestamp, _output: &mut OutputPort<D3>, _notify: &Notify| {},
            )
        })
    }

    /// A two-input, one-output vertex with `OnRecv` and `OnNotify` logic.
    ///
    /// # Panics
    ///
    /// Panics if the two streams belong to different loop contexts.
    pub fn binary_notify<D2, D3, B, L, N>(
        &self,
        other: &Stream<D2>,
        pact1: Pact<D>,
        pact2: Pact<D2>,
        name: &str,
        constructor: B,
    ) -> Stream<D3>
    where
        D2: ExchangeData,
        D3: ExchangeData,
        B: FnOnce(OperatorInfo) -> (L, N),
        L: FnMut(&mut InputPort<D>, &mut InputPort<D2>, &mut OutputPort<D3>, &Notify) + 'static,
        N: FnMut(Timestamp, &mut OutputPort<D3>, &Notify) + 'static,
    {
        let mut builder = OperatorBuilder::new(&mut self.scope(), name, self.context);
        let mut input1 = builder.add_input(self, pact1);
        let mut input2 = builder.add_input(other, pact2);
        let (tee, stream) = builder.output::<D3>();
        let notify = builder.notify_handle();
        let (mut recv_logic, mut notify_logic) = constructor(builder.info());
        let mut output = OutputPort::new(tee.clone());
        let mut deliver_output = OutputPort::new(tee);
        let deliver_notify = notify.clone();
        builder.build(
            move || recv_logic(&mut input1, &mut input2, &mut output, &notify),
            move |time| notify_logic(time, &mut deliver_output, &deliver_notify),
        );
        stream
    }

    /// A one-input, zero-output vertex without notifications.
    pub fn sink<B, L>(&self, pact: Pact<D>, name: &str, constructor: B)
    where
        B: FnOnce(OperatorInfo) -> L,
        L: FnMut(&mut InputPort<D>) + 'static,
    {
        self.sink_notify(pact, name, |info| {
            let mut logic = constructor(info);
            (
                move |input: &mut InputPort<D>, _notify: &Notify| logic(input),
                |_time: Timestamp, _notify: &Notify| {},
            )
        })
    }

    /// A one-input, zero-output vertex with `OnRecv` and `OnNotify` logic.
    pub fn sink_notify<B, L, N>(&self, pact: Pact<D>, name: &str, constructor: B)
    where
        B: FnOnce(OperatorInfo) -> (L, N),
        L: FnMut(&mut InputPort<D>, &Notify) + 'static,
        N: FnMut(Timestamp, &Notify) + 'static,
    {
        let mut builder = OperatorBuilder::new(&mut self.scope(), name, self.context);
        let mut input = builder.add_input(self, pact);
        let notify = builder.notify_handle();
        let (mut recv_logic, mut notify_logic) = constructor(builder.info());
        let deliver_notify = notify.clone();
        builder.build(
            move || recv_logic(&mut input, &notify),
            move |time| notify_logic(time, &deliver_notify),
        );
    }
}

/// Forwards both inputs to one output, pipeline-partitioned. The merge
/// primitive loops need; the richer `concat` in `naiad-operators` builds
/// on the same shape.
pub fn concatenate<D: ExchangeData>(a: &Stream<D>, b: &Stream<D>) -> Stream<D> {
    a.binary(b, Pact::Pipeline, Pact::Pipeline, "Concat", |_info| {
        |i1: &mut InputPort<D>, i2: &mut InputPort<D>, out: &mut OutputPort<D>| {
            i1.for_each_batch(|t, data| out.session(t).give_container(data));
            i2.for_each_batch(|t, data| out.session(t).give_container(data));
        }
    })
}
