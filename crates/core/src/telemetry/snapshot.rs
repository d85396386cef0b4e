//! The unified metrics registry.
//!
//! [`TelemetrySnapshot::assemble`] merges every worker's harvested
//! [`WorkerTelemetry`] with the fabric's traffic meters into one
//! registry: per-worker scheduler counters, per-operator schedule time
//! and record counts (each worker counts them per operator as it
//! records), frontier-probe samples, and per-class traffic totals read
//! *directly* from [`FabricMetrics`] — so the snapshot's byte totals
//! match the meters exactly, by construction.
//!
//! Exporters: [`TelemetrySnapshot::events_json_lines`] (SnailTrail-style
//! one-object-per-line event dump) and
//! [`TelemetrySnapshot::summary_table`] (human-readable tables).

use std::collections::BTreeMap;

use naiad_netsim::{ClassCounters, FabricMetrics, FaultCounters, TrafficClass};

use super::event::TelemetryEvent;
use super::recorder::WorkerTelemetry;

/// One worker's scheduler counters plus event-buffer accounting.
#[derive(Debug, Clone)]
pub struct WorkerSummary {
    /// The worker's global index.
    pub worker: usize,
    /// Aggregate counters (exact even when the event buffer overflowed).
    pub counters: super::recorder::WorkerCounters,
    /// Events retained in the buffer.
    pub events_recorded: usize,
    /// Events discarded because the buffer was full.
    pub events_dropped: u64,
}

/// Cluster-wide aggregates for one `(dataflow, stage)` operator, merged
/// across workers.
#[derive(Debug, Clone, Default)]
pub struct OperatorSummary {
    /// Dataflow id.
    pub dataflow: u32,
    /// Stage id.
    pub stage: u32,
    /// Stage name (from the dataflow directory; empty if unnamed).
    pub name: String,
    /// Scheduling slices run across all workers.
    pub schedules: u64,
    /// Slices that processed at least one batch.
    pub worked: u64,
    /// Cumulative nanoseconds inside the operator.
    pub busy_nanos: u64,
    /// Notifications delivered.
    pub notifications: u64,
    /// Batches the stage pulled from its incoming connectors.
    pub messages_in: u64,
    /// Records received.
    pub records_in: u64,
    /// Batches the stage emitted on its outgoing connectors.
    pub messages_out: u64,
    /// Records emitted.
    pub records_out: u64,
    /// Serialized bytes emitted (remote routes only).
    pub bytes_out: u64,
}

/// One frontier-probe sample, tagged with its worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontierSample {
    /// The sampling worker.
    pub worker: usize,
    /// Dataflow id.
    pub dataflow: u32,
    /// Nanoseconds since the worker's recorder was created.
    pub nanos: u64,
    /// Active pointstamps in the worker's tracker.
    pub active: u32,
    /// Minimum open input epoch; `None` once every input has closed.
    pub input_epoch: Option<u64>,
}

/// Per-class fabric traffic, with and without loopback, plus fault
/// counters — read directly from [`FabricMetrics`].
#[derive(Debug, Clone, Copy, Default)]
pub struct TrafficSummary {
    /// Data-class totals over every directed link (loopback included).
    pub data_total: ClassCounters,
    /// Progress-class totals over every directed link (loopback included).
    pub progress_total: ClassCounters,
    /// Data-class totals excluding loopback: bytes that crossed a
    /// physical network (the Fig 6a quantity).
    pub data_network: ClassCounters,
    /// Progress-class totals excluding loopback (the Fig 6c quantity).
    pub progress_network: ClassCounters,
    /// Control-class (heartbeat/liveness) totals, loopback included.
    pub control_total: ClassCounters,
    /// Control-class totals excluding loopback.
    pub control_network: ClassCounters,
    /// Fault-injection counters.
    pub faults: FaultCounters,
}

/// Counters gathered outside the worker threads: central-accumulator idle
/// ticks, progress batches a process addressed to itself, and
/// failure-detector activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HubCounters {
    /// Idle receive timeouts observed by the central accumulator (each one
    /// a bounded-backoff wait, not a spin).
    pub central_idle_ticks: u64,
    /// Progress batches a process addressed to its own workers' mailboxes;
    /// they are metered on the loopback link and never delayed.
    pub progress_local_deliveries: u64,
    /// Standalone heartbeats emitted by the liveness layer.
    pub heartbeats_sent: u64,
    /// Peer-suspected transitions raised by the detectors.
    pub suspicions: u64,
    /// Peer-failed declarations raised by the detectors.
    pub peer_failures: u64,
}

/// Cluster-wide credit-flow gauges, read from the
/// [`FlowRegistry`](crate::runtime::flow) after the run completes.
/// All-zero (with `enabled: false`) when the run had no
/// [`FlowConfig`](crate::runtime::FlowConfig).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowGauges {
    /// Whether credit-based flow control was configured for the run.
    pub enabled: bool,
    /// Data-plane bytes still charged against credit cells at snapshot
    /// time (zero after a clean drain).
    pub in_flight_bytes: u64,
    /// High-water mark of in-flight data-plane bytes over the run.
    pub peak_in_flight_bytes: u64,
    /// Times a sender parked waiting for credit.
    pub credit_waits: u64,
    /// Cumulative nanoseconds senders spent parked.
    pub credit_wait_ns: u64,
    /// Credit returns processed (local releases + control-plane returns).
    pub credit_returns: u64,
    /// Batches admitted past an exhausted cell after the bounded wait
    /// expired (`ShedPolicy::Block` escape hatch).
    pub overdrafts: u64,
    /// Batches dropped by the shedding policy.
    pub shed_batches: u64,
    /// Records inside those dropped batches.
    pub shed_records: u64,
    /// Byte cost of those dropped batches.
    pub shed_bytes: u64,
}

/// The unified registry: everything the paper's measurement sections
/// read, in one place.
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// Per-worker scheduler counters, sorted by worker index.
    pub workers: Vec<WorkerSummary>,
    /// Per-operator aggregates merged across workers, sorted by
    /// `(dataflow, stage)`.
    pub operators: Vec<OperatorSummary>,
    /// Every frontier-probe sample, in per-worker recording order.
    pub frontier: Vec<FrontierSample>,
    /// Fabric traffic totals and fault counters.
    pub traffic: TrafficSummary,
    /// Liveness-layer counters (central idle ticks, heartbeats, detector
    /// transitions). Populated by the runtime after assembly.
    pub hub: HubCounters,
    /// Credit-flow gauges. Populated by the runtime after assembly when
    /// the run was configured with flow control; all-zero otherwise.
    pub flow: FlowGauges,
    /// Slab-pool gauges from the run's data-plane byte pool
    /// (DESIGN.md §16). Populated by the runtime after assembly.
    pub slab: naiad_wire::SlabGauges,
    /// The raw per-worker harvests (event logs included), sorted by
    /// worker index.
    pub logs: Vec<WorkerTelemetry>,
    /// Per-epoch critical-path summaries from the online analysis
    /// ([`crate::introspect`]), sorted by epoch. Empty unless
    /// the run executed under
    /// [`Execution::introspect`](crate::runtime::Execution::introspect).
    pub critical_paths: Vec<crate::introspect::CriticalPathSummary>,
}

impl TelemetrySnapshot {
    /// Merges worker harvests and fabric meters into a snapshot.
    pub fn assemble(mut logs: Vec<WorkerTelemetry>, metrics: &FabricMetrics) -> Self {
        logs.sort_by_key(|l| l.worker);

        let workers = logs
            .iter()
            .map(|l| WorkerSummary {
                worker: l.worker,
                counters: l.counters,
                events_recorded: l.events.len(),
                events_dropped: l.dropped,
            })
            .collect();

        // Stage names from the dataflow directories.
        let mut names: BTreeMap<(u32, u32), &str> = BTreeMap::new();
        for dir in logs.iter().flat_map(|l| l.directory.iter()) {
            for (stage, name) in &dir.operators {
                names.entry((dir.dataflow, *stage)).or_insert(name);
            }
        }

        // Merge per-operator aggregates across workers.
        let mut ops: BTreeMap<(u32, u32), OperatorSummary> = BTreeMap::new();
        for ((dataflow, stage), c) in logs.iter().flat_map(|l| l.ops.iter()) {
            let op = ops.entry((*dataflow, *stage)).or_default();
            op.schedules += c.schedules;
            op.worked += c.worked;
            op.busy_nanos += c.busy_nanos;
            op.notifications += c.notifications;
            op.messages_in += c.messages_in;
            op.records_in += c.records_in;
            op.messages_out += c.messages_out;
            op.records_out += c.records_out;
            op.bytes_out += c.bytes_out;
        }

        let operators = ops
            .into_iter()
            .map(|((dataflow, stage), mut op)| {
                op.dataflow = dataflow;
                op.stage = stage;
                op.name = names
                    .get(&(dataflow, stage))
                    .map(|s| s.to_string())
                    .unwrap_or_default();
                op
            })
            .collect();

        let frontier = logs
            .iter()
            .flat_map(|l| {
                l.events.iter().filter_map(|r| match r.event {
                    TelemetryEvent::FrontierProbe {
                        dataflow,
                        active,
                        input_epoch,
                    } => Some(FrontierSample {
                        worker: l.worker,
                        dataflow,
                        nanos: r.nanos,
                        active,
                        input_epoch,
                    }),
                    _ => None,
                })
            })
            .collect();

        let traffic = TrafficSummary {
            data_total: metrics.total(TrafficClass::Data, true),
            progress_total: metrics.total(TrafficClass::Progress, true),
            data_network: metrics.total(TrafficClass::Data, false),
            progress_network: metrics.total(TrafficClass::Progress, false),
            control_total: metrics.total(TrafficClass::Control, true),
            control_network: metrics.total(TrafficClass::Control, false),
            faults: metrics.faults(),
        };

        TelemetrySnapshot {
            workers,
            operators,
            frontier,
            traffic,
            hub: HubCounters::default(),
            flow: FlowGauges::default(),
            slab: naiad_wire::SlabGauges::default(),
            logs,
            critical_paths: Vec::new(),
        }
    }

    /// Progress-protocol bytes — the Fig 6c quantity. With
    /// `include_loopback` the total covers intra-process batches too
    /// (what the four accumulation modes trade against each other).
    pub fn progress_bytes(&self, include_loopback: bool) -> u64 {
        if include_loopback {
            self.traffic.progress_total.bytes
        } else {
            self.traffic.progress_network.bytes
        }
    }

    /// Data-plane bytes (Fig 6a quantity when loopback is excluded).
    pub fn data_bytes(&self, include_loopback: bool) -> u64 {
        if include_loopback {
            self.traffic.data_total.bytes
        } else {
            self.traffic.data_network.bytes
        }
    }

    /// Total scheduling rounds across workers.
    pub fn total_steps(&self) -> u64 {
        self.workers.iter().map(|w| w.counters.steps).sum()
    }

    /// Total notifications delivered across workers.
    pub fn total_notifications(&self) -> u64 {
        self.workers.iter().map(|w| w.counters.notifications).sum()
    }

    /// Total events discarded across workers because their buffers
    /// filled. Aggregate counters stayed exact regardless.
    pub fn total_events_dropped(&self) -> u64 {
        self.workers.iter().map(|w| w.events_dropped).sum()
    }

    /// Every retained event as JSON lines (one object per line,
    /// SnailTrail-style), workers in index order, each worker's events
    /// in recording order: the prefix each worker's buffer held, with
    /// the events past it counted in the header's `dropped`. The first
    /// line is a schema header carrying the encoding version, so
    /// downstream consumers can detect field changes (version 2 added
    /// `epoch`/`seq` to schedule events, version 3 `stage` to message
    /// events).
    pub fn events_json_lines(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"schema\":\"naiad-telemetry\",\"version\":3,\"workers\":{},\"dropped\":{}}}",
            self.workers.len(),
            self.total_events_dropped()
        );
        for log in &self.logs {
            for record in &log.events {
                out.push_str(&record.to_json(log.worker));
                out.push('\n');
            }
        }
        out
    }

    /// Per-epoch critical-path summaries as JSON lines, prefixed by a
    /// schema header. Empty (header only) unless the run executed under
    /// [`Execution::introspect`](crate::runtime::Execution::introspect).
    pub fn critical_path_json_lines(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"schema\":\"naiad-critical-path\",\"version\":1,\"epochs\":{}}}",
            self.critical_paths.len()
        );
        for summary in &self.critical_paths {
            out.push_str(&summary.to_json());
            out.push('\n');
        }
        out
    }

    /// A human-readable summary: per-worker, per-operator, and traffic
    /// tables.
    pub fn summary_table(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();

        let _ = writeln!(s, "== workers ==");
        let _ = writeln!(
            s,
            "{:>6} {:>8} {:>9} {:>10} {:>6} {:>9} {:>9} {:>9} {:>7} {:>10} {:>10} {:>8} {:>7}",
            "worker",
            "steps",
            "scheds",
            "busy_us",
            "notif",
            "recs_out",
            "recs_in",
            "frames_in",
            "mbox_hw",
            "prog_sent",
            "prog_appl",
            "events",
            "dropped"
        );
        for w in &self.workers {
            let c = &w.counters;
            let _ = writeln!(
                s,
                "{:>6} {:>8} {:>9} {:>10} {:>6} {:>9} {:>9} {:>9} {:>7} {:>10} {:>10} {:>8} {:>7}",
                w.worker,
                c.steps,
                c.schedules,
                c.busy_nanos / 1_000,
                c.notifications,
                c.records_sent,
                c.records_received,
                c.remote_frames,
                c.mailbox_depth,
                c.progress_updates_sent,
                c.progress_updates_applied,
                w.events_recorded,
                w.events_dropped
            );
        }

        let _ = writeln!(s, "\n== operators ==");
        let _ = writeln!(
            s,
            "{:>3} {:>5} {:<18} {:>8} {:>8} {:>10} {:>6} {:>9} {:>9} {:>10}",
            "df",
            "stage",
            "name",
            "scheds",
            "worked",
            "busy_us",
            "notif",
            "recs_in",
            "recs_out",
            "bytes_out"
        );
        for op in &self.operators {
            let _ = writeln!(
                s,
                "{:>3} {:>5} {:<18} {:>8} {:>8} {:>10} {:>6} {:>9} {:>9} {:>10}",
                op.dataflow,
                op.stage,
                op.name,
                op.schedules,
                op.worked,
                op.busy_nanos / 1_000,
                op.notifications,
                op.records_in,
                op.records_out,
                op.bytes_out
            );
        }

        let _ = writeln!(s, "\n== traffic ==");
        let _ = writeln!(
            s,
            "{:<10} {:>12} {:>10} {:>14} {:>12}",
            "class", "bytes", "msgs", "net_bytes", "net_msgs"
        );
        let t = &self.traffic;
        for (name, total, network) in [
            ("data", t.data_total, t.data_network),
            ("progress", t.progress_total, t.progress_network),
            ("control", t.control_total, t.control_network),
        ] {
            let _ = writeln!(
                s,
                "{:<10} {:>12} {:>10} {:>14} {:>12}",
                name, total.bytes, total.messages, network.bytes, network.messages
            );
        }
        let f = &t.faults;
        if *f != FaultCounters::default() {
            let _ = writeln!(
                s,
                "faults: dropped={} duplicated={} dup_suppressed={} partition_rejects={} crash_rejects={} crashes={}",
                f.dropped,
                f.duplicated,
                f.duplicates_suppressed,
                f.partition_rejects,
                f.crash_rejects,
                f.crashes
            );
        }
        let h = &self.hub;
        if *h != HubCounters::default() {
            let _ = writeln!(
                s,
                "liveness: heartbeats={} suspicions={} peer_failures={} central_idle={}",
                h.heartbeats_sent, h.suspicions, h.peer_failures, h.central_idle_ticks
            );
            let _ = writeln!(
                s,
                "progress hub: local_deliveries={}",
                h.progress_local_deliveries
            );
        }

        if self.flow.enabled {
            let fl = &self.flow;
            let _ = writeln!(s, "\n== flow ==");
            let _ = writeln!(
                s,
                "peak_in_flight={} in_flight={} waits={} wait_us={} returns={} overdrafts={} shed_batches={} shed_records={} shed_bytes={}",
                fl.peak_in_flight_bytes,
                fl.in_flight_bytes,
                fl.credit_waits,
                fl.credit_wait_ns / 1_000,
                fl.credit_returns,
                fl.overdrafts,
                fl.shed_batches,
                fl.shed_records,
                fl.shed_bytes
            );
        }

        if !self.frontier.is_empty() {
            let _ = writeln!(s, "\n== frontier ==");
            // Last sample per (worker, dataflow).
            let mut last: BTreeMap<(usize, u32), FrontierSample> = BTreeMap::new();
            for sample in &self.frontier {
                last.insert((sample.worker, sample.dataflow), *sample);
            }
            let _ = writeln!(
                s,
                "{:>6} {:>3} {:>8} {:>7} {:>12}",
                "worker", "df", "samples", "active", "input_epoch"
            );
            for ((worker, dataflow), sample) in &last {
                let samples = self
                    .frontier
                    .iter()
                    .filter(|p| p.worker == *worker && p.dataflow == *dataflow)
                    .count();
                let epoch = match sample.input_epoch {
                    Some(e) => e.to_string(),
                    None => "closed".to_string(),
                };
                let _ = writeln!(
                    s,
                    "{:>6} {:>3} {:>8} {:>7} {:>12}",
                    worker, dataflow, samples, sample.active, epoch
                );
            }
        }

        s
    }
}

#[cfg(test)]
mod tests {
    use super::super::recorder::Recorder;
    use super::*;
    use crate::graph::StageId;
    use naiad_netsim::Fabric;

    fn harvest_one(worker: usize) -> WorkerTelemetry {
        let r = Recorder::with_capacity(64);
        r.record_step();
        r.record(TelemetryEvent::ScheduleStop {
            dataflow: 0,
            stage: 1,
            nanos: 500,
            worked: true,
            epoch: 0,
            seq: 0,
        });
        r.record(TelemetryEvent::MessageSent {
            dataflow: 0,
            connector: 0,
            stage: 0,
            target: 1,
            records: 7,
            bytes: 56,
            remote: true,
        });
        r.record(TelemetryEvent::MessageReceived {
            dataflow: 0,
            connector: 0,
            stage: 1,
            records: 7,
            remote: true,
        });
        r.record(TelemetryEvent::FrontierProbe {
            dataflow: 0,
            active: 3,
            input_epoch: Some(worker as u64),
        });
        r.register_dataflow(
            0,
            vec![(StageId(0), "input".into()), (StageId(1), "map".into())],
        );
        r.harvest(worker).unwrap()
    }

    fn fabric_metrics_with_traffic() -> std::sync::Arc<FabricMetrics> {
        let mut eps = Fabric::builder(2).build();
        let b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.send(1, 0, TrafficClass::Data, vec![0u8; 56].into())
            .unwrap();
        a.send(0, 0, TrafficClass::Progress, vec![0u8; 12].into())
            .unwrap();
        drop(b);
        a.metrics().clone()
    }

    #[test]
    fn assemble_merges_operators_across_workers() {
        let metrics = fabric_metrics_with_traffic();
        let snap = TelemetrySnapshot::assemble(vec![harvest_one(1), harvest_one(0)], &metrics);

        assert_eq!(snap.workers.len(), 2);
        assert_eq!(snap.workers[0].worker, 0, "sorted by worker");
        assert_eq!(snap.workers[0].counters.steps, 1);

        // Stage 1 merged across both workers: 2 schedules and the
        // receive side; stage 0 sent.
        let map = snap
            .operators
            .iter()
            .find(|o| o.stage == 1)
            .expect("stage 1 present");
        assert_eq!(map.name, "map");
        assert_eq!(map.schedules, 2);
        assert_eq!(map.busy_nanos, 1000);
        assert_eq!(map.records_in, 14);
        assert_eq!(map.records_out, 0);
        let input = snap.operators.iter().find(|o| o.stage == 0).unwrap();
        assert_eq!(input.name, "input");
        assert_eq!(input.records_out, 14);
        assert_eq!(input.bytes_out, 112);

        // Frontier samples carry their worker tag.
        assert_eq!(snap.frontier.len(), 2);
        assert!(snap
            .frontier
            .iter()
            .any(|p| p.worker == 1 && p.input_epoch == Some(1)));
    }

    #[test]
    fn traffic_matches_fabric_meters_exactly() {
        let metrics = fabric_metrics_with_traffic();
        let snap = TelemetrySnapshot::assemble(vec![harvest_one(0)], &metrics);
        assert_eq!(
            snap.traffic.data_total,
            metrics.total(TrafficClass::Data, true)
        );
        assert_eq!(
            snap.traffic.progress_total,
            metrics.total(TrafficClass::Progress, true)
        );
        assert_eq!(
            snap.data_bytes(false),
            metrics.network_bytes(TrafficClass::Data)
        );
        assert_eq!(snap.data_bytes(true), 56);
        assert_eq!(snap.progress_bytes(true), 12);
        assert_eq!(snap.progress_bytes(false), 0, "loopback progress excluded");
        assert_eq!(snap.traffic.faults, metrics.faults());
    }

    #[test]
    fn exporters_emit_events_and_tables() {
        let metrics = fabric_metrics_with_traffic();
        let snap = TelemetrySnapshot::assemble(vec![harvest_one(1), harvest_one(0)], &metrics);

        let jsonl = snap.events_json_lines();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 9, "schema header + 4 events per worker");
        assert!(
            lines[0].starts_with("{\"schema\":\"naiad-telemetry\",\"version\":3"),
            "versioned header first: {}",
            lines[0]
        );
        assert!(lines[1].starts_with("{\"w\":0,"), "worker 0 first");
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));

        let cp = snap.critical_path_json_lines();
        assert!(
            cp.starts_with("{\"schema\":\"naiad-critical-path\",\"version\":1"),
            "{cp}"
        );
        assert_eq!(cp.lines().count(), 1, "header only without introspection");

        let table = snap.summary_table();
        assert!(table.contains("== workers =="));
        assert!(table.contains("== operators =="));
        assert!(table.contains("map"));
        assert!(table.contains("== traffic =="));
        assert!(table.contains("== frontier =="));
    }

    #[test]
    fn flow_gauges_default_off_and_render_when_enabled() {
        let metrics = fabric_metrics_with_traffic();
        let mut snap = TelemetrySnapshot::assemble(vec![harvest_one(0)], &metrics);
        assert_eq!(snap.flow, FlowGauges::default());
        assert!(
            !snap.summary_table().contains("== flow =="),
            "no flow section without flow control"
        );
        snap.flow = FlowGauges {
            enabled: true,
            in_flight_bytes: 0,
            peak_in_flight_bytes: 4096,
            credit_waits: 3,
            credit_wait_ns: 9_000,
            credit_returns: 12,
            overdrafts: 1,
            shed_batches: 0,
            shed_records: 0,
            shed_bytes: 0,
        };
        let table = snap.summary_table();
        assert!(table.contains("== flow =="), "{table}");
        assert!(table.contains("peak_in_flight=4096"), "{table}");
        assert!(table.contains("wait_us=9"), "{table}");
    }
}
