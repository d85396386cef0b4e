//! Loop contexts: ingress, egress, and feedback stages (§2.1, §4.3).
//!
//! A [`LoopContext`] scopes a cyclic sub-graph. Streams *enter* it
//! (gaining a loop counter fixed at 0), circulate through *feedback*
//! (which increments the counter), and *leave* (dropping the counter).
//! Only the feedback stage may have its output connected before its input,
//! which is what makes every cycle well-formed (§4.3).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use naiad_wire::ExchangeData;

use crate::graph::{ContextId, StageId};
use crate::runtime::channels::Pact;
use crate::time::Timestamp;

use super::builder::OperatorBuilder;
use super::ports::{InputPort, OutputPort};
use super::{Scope, Stream};

/// A loop context under construction.
pub struct LoopContext {
    scope: Scope,
    context: ContextId,
}

impl Scope {
    /// Opens a loop context nested in `parent` (use
    /// [`ContextId::ROOT`] for a top-level loop, or an inner stream's
    /// [`Stream::context`](super::Stream::context) when nesting).
    pub fn loop_context(&mut self, parent: ContextId) -> LoopContext {
        let context = self.inner.borrow_mut().builder.add_context(parent);
        LoopContext {
            scope: self.clone_ref(),
            context,
        }
    }
}

impl LoopContext {
    /// The context id, used to nest further loops.
    pub fn context(&self) -> ContextId {
        self.context
    }

    /// Brings a stream from the parent context into the loop through an
    /// ingress stage: `(e, ⟨c…⟩) → (e, ⟨c…, 0⟩)`.
    pub fn enter<D: ExchangeData>(&self, stream: &Stream<D>) -> Stream<D> {
        let stage = {
            let mut inner = self.scope.inner.borrow_mut();
            inner.builder.add_ingress("Ingress", self.context)
        };
        let (input, entered) =
            self.retiming_stage(stage, self.context, |time| Some(time.entered()));
        input.connect(stream);
        entered
    }

    /// Returns a stream to the parent context through an egress stage:
    /// `(e, ⟨c…, cₖ⟩) → (e, ⟨c…⟩)`.
    ///
    /// # Panics
    ///
    /// Panics if `stream` is not in this context.
    pub fn leave<D: ExchangeData>(&self, stream: &Stream<D>) -> Stream<D> {
        assert_eq!(
            stream.context, self.context,
            "leave requires an inner stream"
        );
        let (stage, parent) = {
            let mut inner = self.scope.inner.borrow_mut();
            let stage = inner.builder.add_egress("Egress", self.context);
            let parent = inner
                .builder
                .context_parent(self.context)
                .expect("loop contexts always have a parent");
            (stage, parent)
        };
        let (input, left) = self.retiming_stage(stage, parent, |time| {
            Some(time.left().expect("egress input carries a loop counter"))
        });
        input.connect(stream);
        left
    }

    /// Creates the loop's feedback stage: `(e, ⟨c…, cₖ⟩) → (e, ⟨c…, cₖ+1⟩)`.
    ///
    /// Returns the handle used to connect the loop body's result back into
    /// the cycle, and the stream of fed-back records. Records whose
    /// incremented counter reaches `max_iterations` are dropped, bounding
    /// the loop.
    pub fn feedback<D: ExchangeData>(
        &self,
        max_iterations: Option<u64>,
    ) -> (FeedbackHandle<D>, Stream<D>) {
        let stage = {
            let mut inner = self.scope.inner.borrow_mut();
            inner.builder.add_feedback("Feedback", self.context)
        };
        let (input, fed_back) = self.retiming_stage(stage, self.context, move |time| {
            let next = time
                .incremented()
                .expect("feedback input carries a loop counter");
            let iteration = *next.counters.as_slice().last().expect("loop counter");
            max_iterations
                .is_none_or(|max| iteration < max)
                .then_some(next)
        });
        let handle = FeedbackHandle {
            context: self.context,
            input,
        };
        (handle, fed_back)
    }

    /// The one loop stage, an ingress, egress or feedback vertex of
    /// `stage`: it forwards each input container whole, at the time
    /// `retime` gives its batch, or drops it on `None` (the feedback
    /// bound). Its records leave in `context`; its input is connected
    /// through the returned [`LoopInput`].
    fn retiming_stage<D: ExchangeData>(
        &self,
        stage: StageId,
        context: ContextId,
        retime: impl Fn(Timestamp) -> Option<Timestamp> + 'static,
    ) -> (LoopInput<D>, Stream<D>) {
        let mut builder = OperatorBuilder::at(&self.scope, stage, context);
        let (tee, stream) = builder.output_at::<D>(0, context);
        let mut output = OutputPort::new(tee);
        let input = LoopInput {
            stage,
            port: Rc::new(RefCell::new(None)),
            worked: builder.worked.clone(),
        };
        let port = input.port.clone();
        builder.build(
            move || {
                if let Some(input) = port.borrow_mut().as_mut() {
                    input.for_each_batch(|time, data| {
                        if let Some(time) = retime(time) {
                            output.session(time).give_container(data);
                        }
                    });
                }
            },
            |_| {},
        );
        (input, stream)
    }
}

/// The input of a loop stage, connected once its stream exists: at once
/// for ingress and egress, by [`FeedbackHandle::connect`] for feedback.
struct LoopInput<D> {
    stage: StageId,
    port: Rc<RefCell<Option<InputPort<D>>>>,
    worked: Rc<Cell<bool>>,
}

impl<D: ExchangeData> LoopInput<D> {
    fn connect(self, stream: &Stream<D>) {
        let port = stream.connect_to(self.stage, 0, Pact::Pipeline, &self.worked);
        *self.port.borrow_mut() = Some(port);
    }
}

/// The dangling input of a feedback stage.
///
/// Dropping the handle without calling [`FeedbackHandle::connect`] leaves
/// the feedback input unconnected, which
/// [`Worker::dataflow`](crate::runtime::Worker::dataflow) rejects when it
/// validates the graph.
pub struct FeedbackHandle<D: ExchangeData> {
    context: ContextId,
    input: LoopInput<D>,
}

impl<D: ExchangeData> FeedbackHandle<D> {
    /// Closes the cycle: records of `stream` re-enter the loop with their
    /// counter incremented.
    ///
    /// # Panics
    ///
    /// Panics if `stream` is outside this loop context.
    pub fn connect(self, stream: &Stream<D>) {
        assert_eq!(
            stream.context, self.context,
            "feedback must be fed from inside its loop context"
        );
        self.input.connect(stream);
    }
}
