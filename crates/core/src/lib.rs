//! Naiad: a timely dataflow system, reproduced in Rust.
//!
//! This crate implements the computational model and distributed runtime of
//! *Naiad: A Timely Dataflow System* (Murray et al., SOSP 2013):
//!
//! * [`time`] — logical timestamps `(epoch, ⟨loop counters⟩)` (§2.1),
//! * [`order`] — partial orders, antichains, frontiers,
//! * [`summary`] — canonical path summaries (§2.3),
//! * [`graph`] — logical graphs, loop contexts, structural validation, and
//!   the could-result-in relation (§2.1, §2.3),
//! * [`progress`] — the pointstamp tracker (occurrence counts and the
//!   frontier, §2.3) and the distributed progress protocol with update
//!   accumulation (§3.3),
//! * [`runtime`] — workers, exchange channels, fault tolerance (§3); four
//!   ways to run: [`execute`], [`execute_with_metrics`],
//!   [`execute_with_telemetry`], and the composable [`Execution`],
//! * [`dataflow`] — the typed graph-assembly interface (§4.3),
//! * [`telemetry`] — per-worker event logs, the unified metrics
//!   registry, and frontier probes (§5–§6 measurement substrate),
//! * [`introspect`] — online critical-path analysis: each worker folds
//!   its telemetry stream into per-epoch straggler attribution as it is
//!   recorded (§5.3).
//!
//! # Examples
//!
//! A two-worker computation that routes records by parity and reports
//! each epoch's records as the epoch completes:
//!
//! ```
//! use naiad::dataflow::{InputPort, OutputPort};
//! use naiad::runtime::Pact;
//! use naiad::{execute, Config};
//!
//! let results = execute(Config::single_process(2), |worker| {
//!     let (mut input, captured) = worker.dataflow(|scope| {
//!         let (input, stream) = scope.new_input::<u64>();
//!         let doubled = stream.unary(
//!             Pact::exchange(|x: &u64| *x),
//!             "Double",
//!             |_info| {
//!                 |input: &mut InputPort<u64>, output: &mut OutputPort<u64>| {
//!                     input.for_each(|time, data| {
//!                         output
//!                             .session(time)
//!                             .give_iterator(data.into_iter().map(|x| x * 2));
//!                     });
//!                 }
//!             },
//!         );
//!         (input, doubled.capture())
//!     });
//!     if worker.index() == 0 {
//!         input.send_batch([1, 2, 3]);
//!     }
//!     input.close();
//!     worker.step_until_done();
//!     let result = captured.borrow().clone();
//!     result
//! })
//! .unwrap();
//! let mut all: Vec<u64> = results
//!     .into_iter()
//!     .flatten()
//!     .flat_map(|(_, data)| data)
//!     .collect();
//! all.sort_unstable();
//! assert_eq!(all, vec![2, 4, 6]);
//! ```

#![forbid(unsafe_code)]

pub mod analysis;
pub mod dataflow;
pub mod graph;
pub mod introspect;
pub mod order;
pub mod progress;
pub mod runtime;
pub mod summary;
pub mod telemetry;
pub mod time;

pub use dataflow::{InputHandle, ProbeHandle, Scope, Stream};
pub use introspect::CriticalPathSummary;
pub use order::{Antichain, PartialOrder};
pub use runtime::coordinator::{Execution, PhaseReport, RecoveryOptions, RunReport, Session};
pub use runtime::execute::{execute, execute_with_metrics, execute_with_telemetry, ExecuteError};
pub use runtime::rescale::{ElasticOptions, RescaleError, RescaleOutcome, RescaleStep};
pub use runtime::{Config, FlowConfig, OverloadState, Pact, ShedPolicy, Worker};
pub use telemetry::TelemetrySnapshot;
pub use time::Timestamp;

/// Re-export of the wire codec used for exchanged records.
pub use naiad_wire as wire;
pub use naiad_wire::ExchangeData;
