//! The vertex builder (§4.3): stages with any number of typed inputs and
//! outputs, and the only code that installs a vertex.
//!
//! [`Stream::unary`](super::Stream::unary) and friends are shape adapters
//! over it, and the loop stages are one retiming vertex built on it; this
//! builder covers every other shape — e.g. the paper's Figure 4 vertex
//! (one input, *two* outputs) or its Pregel port ("a custom vertex with
//! several strongly typed inputs and outputs"). Ports are created one at a
//! time, each typed independently; the vertex logic is a pair of closures
//! over the captured ports.
//!
//! # Examples
//!
//! A one-input, two-output splitter:
//!
//! ```
//! use naiad::dataflow::builder::OperatorBuilder;
//! use naiad::dataflow::{InputPort, OutputPort};
//! use naiad::runtime::Pact;
//! use naiad::{execute, Config};
//!
//! let results = execute(Config::single_process(1), |worker| {
//!     let (mut input, evens_out, odds_out) = worker.dataflow(|scope| {
//!         let (input, numbers) = scope.new_input::<u64>();
//!         let mut builder = OperatorBuilder::new(scope, "SplitParity", numbers.context());
//!         let mut port = builder.add_input(&numbers, Pact::Pipeline);
//!         let (evens_port, evens) = builder.add_output::<u64>();
//!         let (odds_port, odds) = builder.add_output::<u64>();
//!         builder.build(
//!             move || {
//!                 port.for_each(|time, data| {
//!                     for x in data {
//!                         if x % 2 == 0 {
//!                             evens_port.borrow_mut().give(time, x);
//!                         } else {
//!                             odds_port.borrow_mut().give(time, x);
//!                         }
//!                     }
//!                 });
//!             },
//!             |_time| {},
//!         );
//!         (input, evens.capture(), odds.capture())
//!     });
//!     input.send_batch([1, 2, 3, 4, 5]);
//!     input.close();
//!     worker.step_until_done();
//!     let result = (evens_out.borrow().clone(), odds_out.borrow().clone());
//!     result
//! })
//! .unwrap();
//! let (evens, odds) = &results[0];
//! assert_eq!(evens[0].1, vec![2, 4]);
//! assert_eq!(odds[0].1, vec![1, 3, 5]);
//! ```

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use naiad_wire::ExchangeData;

use crate::graph::{ContextId, StageId, StageKind};
use crate::runtime::channels::Pact;
use crate::time::Timestamp;

use super::ports::{Flush, InputPort, OutputPort, Tee};
use super::{Notify, OperatorInfo, Scope, Stream};

/// A vertex under construction with arbitrarily many typed ports.
pub struct OperatorBuilder {
    scope: Scope,
    stage: StageId,
    /// The context the vertex's inputs live in.
    context: ContextId,
    notify: Notify,
    info: Option<OperatorInfo>,
    /// The activity flag every input port of the vertex sets.
    pub(super) worked: Rc<Cell<bool>>,
    outputs: Vec<Box<dyn Flush>>,
}

impl OperatorBuilder {
    /// Starts building a vertex in `context`.
    pub fn new(scope: &mut Scope, name: &str, context: ContextId) -> Self {
        let stage =
            scope
                .inner
                .borrow_mut()
                .builder
                .add_stage(name, StageKind::Regular, context, 0, 0);
        Self::at(scope, stage, context)
    }

    /// Starts the vertex of `stage`, already in the graph; the ports
    /// [`add_input`](Self::add_input) and [`output`](Self::output) add
    /// live in `context`.
    pub(super) fn at(scope: &Scope, stage: StageId, context: ContextId) -> Self {
        let inner = scope.inner.borrow();
        let notify = Notify {
            stage,
            journal: inner.journal.clone(),
            requests: inner.requests.clone(),
        };
        let info = OperatorInfo {
            stage,
            notify: notify.clone(),
            worker_index: inner.routing.my_index,
            peers: inner.routing.peers(),
            states: inner.states.clone(),
        };
        drop(inner);
        OperatorBuilder {
            scope: scope.clone_ref(),
            stage,
            context,
            notify,
            info: Some(info),
            worked: Rc::new(Cell::new(false)),
            outputs: Vec::new(),
        }
    }

    /// Construction-time facts (stage id, notification handle, worker
    /// index, state registration). May be taken once.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn info(&mut self) -> OperatorInfo {
        self.info.take().expect("OperatorBuilder::info taken twice")
    }

    /// The notification handle for this vertex.
    pub fn notify_handle(&self) -> Notify {
        self.notify.clone()
    }

    /// Attaches `stream` as the next input, under `pact`.
    ///
    /// # Panics
    ///
    /// Panics if the stream belongs to a different loop context.
    pub fn add_input<D: ExchangeData>(
        &mut self,
        stream: &Stream<D>,
        pact: Pact<D>,
    ) -> InputPort<D> {
        assert_eq!(
            stream.context(),
            self.context,
            "operator inputs must share the operator's loop context"
        );
        let port = self
            .scope
            .inner
            .borrow_mut()
            .builder
            .add_input_port(self.stage);
        stream.connect_to(self.stage, port, pact, &self.worked)
    }

    /// Adds the next output, returning the shared port (for the vertex
    /// logic) and its stream (for downstream consumers).
    pub fn add_output<D: ExchangeData>(&mut self) -> (Rc<RefCell<OutputPort<D>>>, Stream<D>) {
        let (tee, stream) = self.output();
        (Rc::new(RefCell::new(OutputPort::new(tee))), stream)
    }

    /// Adds the next output, returning its fan-out point and its stream.
    pub(super) fn output<D: ExchangeData>(&mut self) -> (Tee<D>, Stream<D>) {
        let port = self
            .scope
            .inner
            .borrow_mut()
            .builder
            .add_output_port(self.stage);
        self.output_at(port, self.context)
    }

    /// Attaches output `port`, already in the graph, whose records live in
    /// `context`.
    pub(super) fn output_at<D: ExchangeData>(
        &mut self,
        port: usize,
        context: ContextId,
    ) -> (Tee<D>, Stream<D>) {
        let stream = Stream::new(self.stage, port, context, self.scope.clone_ref());
        self.outputs.push(Box::new(stream.tee.clone()));
        (stream.tee.clone(), stream)
    }

    /// Finalizes the vertex: `pump` is the `OnRecv` driver (drain the
    /// captured inputs, write the captured outputs); `deliver` is the
    /// `OnNotify` logic. Output buffers flush automatically after each
    /// invocation, and the input ports retire what they delivered.
    pub fn build(self, pump: impl FnMut() + 'static, deliver: impl FnMut(Timestamp) + 'static) {
        let vertex = Vertex {
            stage: self.stage,
            worked: self.worked,
            outputs: self.outputs,
            pump: Box::new(pump),
            deliver: Box::new(deliver),
        };
        self.scope.inner.borrow_mut().ops.push(vertex);
    }
}

/// One vertex as its worker schedules it (§3.2), held by value.
pub(crate) struct Vertex {
    stage: StageId,
    worked: Rc<Cell<bool>>,
    outputs: Vec<Box<dyn Flush>>,
    pump: Box<dyn FnMut()>,
    deliver: Box<dyn FnMut(Timestamp)>,
}

impl Vertex {
    /// The stage this vertex belongs to (delivery, telemetry, diagnostics).
    pub(crate) fn stage(&self) -> StageId {
        self.stage
    }

    /// Runs the `OnRecv` logic over whatever is queued and flushes the
    /// outputs. Returns whether any input delivered a batch.
    pub(crate) fn pump(&mut self) -> bool {
        (self.pump)();
        self.flush();
        self.worked.replace(false)
    }

    /// Runs the `OnNotify` logic for `time` and flushes the outputs.
    pub(crate) fn deliver(&mut self, time: Timestamp) {
        (self.deliver)(time);
        self.flush();
    }

    fn flush(&self) {
        for output in &self.outputs {
            output.flush();
        }
    }
}
