//! Structured telemetry: per-worker event logs, a unified metrics
//! registry, and frontier probes.
//!
//! The paper's evaluation (§5–§6) is a measurement story — data versus
//! progress traffic (Fig 6c), barrier latency (Fig 6b), straggler
//! diagnosis (§5.3). This module is the substrate those measurements
//! read from:
//!
//! * **Per-worker event log** ([`Recorder`], [`EventRecord`]): a
//!   preallocated, bounded buffer of typed [`TelemetryEvent`]s — one per
//!   operator scheduling slice with its nanosecond duration, message
//!   send/receive with the sending or receiving stage and byte counts,
//!   progress batches produced and applied, notification delivery,
//!   checkpoint/restore, and fault escalations. The buffer keeps the run's
//!   first events; a ring beside it keeps the newest few for the stall
//!   dump. Enabled via
//!   [`Config::telemetry`](crate::runtime::Config::telemetry) (or the
//!   `NAIAD_DEBUG` env var); when disabled no buffer is allocated and
//!   every record call is a single branch.
//! * **Metrics registry** ([`TelemetrySnapshot`]): unifies scheduler
//!   counters (steps, schedule activations, notifications), per-operator
//!   cumulative schedule time and record counts, and the fabric's
//!   per-class traffic meters
//!   ([`FabricMetrics`](naiad_netsim::FabricMetrics)) into one snapshot
//!   assembled after the cluster joins. The counters read each event
//!   once, as it is recorded, so they stay exact past a full buffer; the
//!   critical-path fold ([`crate::introspect`]), when installed, reads
//!   the same event once more.
//! * **Frontier probes** ([`FrontierSample`]): per-dataflow frontier
//!   progression over time, sampled once per scheduling step whenever the
//!   input frontier or active-pointstamp count changes. The sampled input
//!   epoch is monotone per worker — the §3.3 guarantee that a local view
//!   never moves backwards, which the `telemetry` integration test
//!   asserts.
//! * **Exporters**: [`TelemetrySnapshot::events_json_lines`] (one JSON
//!   object per event, SnailTrail-style) and
//!   [`TelemetrySnapshot::summary_table`] (human-readable per-worker /
//!   per-operator / traffic tables).
//!
//! Entry points:
//! [`execute_with_telemetry`](crate::runtime::execute::execute_with_telemetry)
//! returns the snapshot alongside the worker results, and
//! [`RunReport::telemetry`](crate::runtime::RunReport::telemetry)
//! carries the final attempt's snapshot when telemetry is enabled.

mod event;
mod recorder;
mod snapshot;

pub use event::{EventRecord, TelemetryEvent};
pub use recorder::{DataflowDirectory, OpCounters, Recorder, WorkerCounters, WorkerTelemetry};
pub use snapshot::{
    FlowGauges, FrontierSample, HubCounters, OperatorSummary, TelemetrySnapshot, TrafficSummary,
    WorkerSummary,
};
