//! Typed telemetry events and their JSON-lines encoding.

use crate::runtime::FaultKind;

/// One telemetry event, as recorded by a worker.
///
/// Events are `Copy` and fixed-size so recording is an append into a
/// preallocated buffer — no per-event allocation on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TelemetryEvent {
    /// An operator's `pump` (OnRecv scheduling slice) ran. The event is
    /// recorded when the slice ends, so its record's timestamp minus
    /// `nanos` is when the slice began.
    ScheduleStop {
        /// Dataflow id.
        dataflow: u32,
        /// Stage id of the scheduled operator.
        stage: u32,
        /// Wall-clock nanoseconds the slice took.
        nanos: u64,
        /// Whether the operator processed any batch.
        worked: bool,
        /// Minimum open epoch in the dataflow's tracker when the slice
        /// began (the epoch of the work item being processed).
        epoch: u64,
        /// Per-worker monotone slice sequence number.
        seq: u64,
    },
    /// A data batch was emitted on a connector.
    MessageSent {
        /// Dataflow id.
        dataflow: u32,
        /// Connector the batch travels on.
        connector: u32,
        /// Stage id of the sending operator (the connector's source).
        stage: u32,
        /// Destination worker (global index).
        target: u32,
        /// Records in the batch.
        records: u32,
        /// Serialized payload bytes (0 for intra-process typed batches,
        /// which never touch the wire).
        bytes: u32,
        /// Whether the batch crossed the fabric.
        remote: bool,
    },
    /// A data batch was pulled by the receiving vertex.
    MessageReceived {
        /// Dataflow id.
        dataflow: u32,
        /// Connector the batch arrived on.
        connector: u32,
        /// Stage id of the receiving operator (the connector's
        /// destination).
        stage: u32,
        /// Records in the batch.
        records: u32,
        /// Whether the batch arrived serialized over the fabric.
        remote: bool,
    },
    /// A progress batch left this worker (broadcast or to the central
    /// accumulator).
    ProgressBatchSent {
        /// Dataflow id.
        dataflow: u32,
        /// This worker's batch sequence number.
        seq: u64,
        /// Updates in the batch.
        updates: u32,
    },
    /// Progress updates were deposited into the process-local accumulator
    /// (`Local` / `LocalGlobal` modes).
    ProgressDeposited {
        /// Dataflow id.
        dataflow: u32,
        /// Updates deposited.
        updates: u32,
    },
    /// A progress batch was applied to this worker's tracker.
    ProgressApplied {
        /// Dataflow id.
        dataflow: u32,
        /// Sending worker or accumulator id.
        sender: u32,
        /// The sender's sequence number.
        seq: u64,
        /// Updates in the batch.
        updates: u32,
        /// Net occurrence-count delta of the batch (Σ deltas).
        net: i64,
    },
    /// A notification was delivered to an operator.
    NotificationDelivered {
        /// Dataflow id.
        dataflow: u32,
        /// Stage id.
        stage: u32,
        /// Epoch component of the delivered timestamp.
        epoch: u64,
        /// `true` for blocking (§2.3 counted) notifications, `false` for
        /// purge notifications.
        blocking: bool,
    },
    /// A frontier-probe sample (recorded when the sampled values change).
    FrontierProbe {
        /// Dataflow id.
        dataflow: u32,
        /// Active pointstamps in the worker's tracker.
        active: u32,
        /// Minimum open input epoch; `None` once every input has closed.
        input_epoch: Option<u64>,
    },
    /// A checkpoint blob was produced ([`Worker::checkpoint`](crate::runtime::Worker::checkpoint)).
    CheckpointTaken {
        /// Sealed blob size in bytes.
        bytes: u64,
    },
    /// A checkpoint blob was restored ([`Worker::try_restore`](crate::runtime::Worker::try_restore)).
    CheckpointRestored {
        /// Sealed blob size in bytes.
        bytes: u64,
    },
    /// A fault escaped the retry budget and escalated, unwinding the
    /// cluster (§3.4).
    FaultEscalated {
        /// The classified fault.
        kind: FaultKind,
    },
    /// The failure detector marked a peer *suspected*: no heartbeat or
    /// traffic for longer than the suspicion threshold (§3.4/§3.5).
    PeerSuspected {
        /// The suspected peer process.
        peer: u32,
        /// Milliseconds of silence when the suspicion was raised.
        silent_ms: u64,
    },
    /// A previously suspected peer was heard from again.
    PeerCleared {
        /// The exonerated peer process.
        peer: u32,
    },
    /// The failure detector declared a peer *failed*: silence exceeded
    /// the failure threshold, escalating into coordinated rollback.
    PeerFailed {
        /// The failed peer process.
        peer: u32,
        /// Milliseconds of silence when the failure was declared.
        silent_ms: u64,
    },
    /// The stall watchdog declared a global stall: pointstamps were
    /// outstanding but no frontier or occurrence change happened for the
    /// configured timeout.
    Stalled {
        /// Milliseconds of frontier inactivity when the stall fired.
        idle_ms: u64,
        /// Active pointstamps outstanding at the time.
        active: u32,
    },
    /// An elastic rescale began: the coordinator fenced the run at a
    /// closed epoch and is migrating state to the new membership.
    RescaleStarted {
        /// The fence epoch (first epoch the new membership computes).
        epoch: u64,
        /// Worker count before the rescale.
        from_workers: u32,
        /// Worker count after the rescale.
        to_workers: u32,
    },
    /// A migration shard from one pre-rescale worker was absorbed into
    /// this worker's keyed state.
    PartitionMigrated {
        /// The pre-rescale worker whose shard this was.
        from_worker: u32,
        /// Shard payload bytes absorbed.
        bytes: u64,
    },
    /// An elastic rescale completed: the new membership resumed at the
    /// fence epoch. `stalled_ms` attributes the migration stall.
    RescaleCompleted {
        /// The fence epoch the new membership resumed at.
        epoch: u64,
        /// Worker count after the rescale.
        workers: u32,
        /// Wall-clock milliseconds the computation was fenced.
        stalled_ms: u64,
    },
    /// A data-plane sender spent time parked on an exhausted credit cell
    /// before its batch was admitted (or timed out). Recorded once per
    /// waiting `emit`, never on the uncontended fast path.
    CreditWait {
        /// Dataflow id.
        dataflow: u32,
        /// Connector the blocked batch was bound for.
        connector: u32,
        /// Wall-clock nanoseconds the sender waited for credit.
        waited_ns: u64,
        /// Byte cost of the batch that waited.
        bytes: u32,
    },
    /// The per-worker overload monitor changed state (`from`/`to` are
    /// [`crate::runtime::OverloadState`] discriminants: 0 = normal,
    /// 1 = throttled, 2 = shedding).
    OverloadTransition {
        /// State before the transition.
        from: u8,
        /// State after the transition.
        to: u8,
    },
    /// A data batch was dropped by the graceful-degradation shedding
    /// policy: the sender's bounded credit wait expired while the worker
    /// was in the `Shedding` overload state.
    MessagesShed {
        /// Dataflow id.
        dataflow: u32,
        /// Connector the dropped batch was bound for.
        connector: u32,
        /// Records in the dropped batch.
        records: u32,
        /// Byte cost of the dropped batch.
        bytes: u32,
    },
    /// The static analyzer ([`crate::analysis`]) ran over a freshly built
    /// dataflow graph; counts summarize its findings by severity.
    AnalysisReport {
        /// Dataflow id.
        dataflow: u32,
        /// Error-severity diagnostics (zero, or the build would have been
        /// denied under the default config).
        errors: u32,
        /// Warning-severity diagnostics.
        warnings: u32,
        /// Info-severity diagnostics.
        infos: u32,
    },
}

impl TelemetryEvent {
    /// Short machine-readable event name (the `"ev"` JSON field).
    pub fn name(&self) -> &'static str {
        match self {
            TelemetryEvent::ScheduleStop { .. } => "schedule_stop",
            TelemetryEvent::MessageSent { .. } => "message_sent",
            TelemetryEvent::MessageReceived { .. } => "message_received",
            TelemetryEvent::ProgressBatchSent { .. } => "progress_sent",
            TelemetryEvent::ProgressDeposited { .. } => "progress_deposited",
            TelemetryEvent::ProgressApplied { .. } => "progress_applied",
            TelemetryEvent::NotificationDelivered { .. } => "notification",
            TelemetryEvent::FrontierProbe { .. } => "frontier",
            TelemetryEvent::CheckpointTaken { .. } => "checkpoint",
            TelemetryEvent::CheckpointRestored { .. } => "restore",
            TelemetryEvent::FaultEscalated { .. } => "fault",
            TelemetryEvent::PeerSuspected { .. } => "peer_suspected",
            TelemetryEvent::PeerCleared { .. } => "peer_cleared",
            TelemetryEvent::PeerFailed { .. } => "peer_failed",
            TelemetryEvent::Stalled { .. } => "stalled",
            TelemetryEvent::RescaleStarted { .. } => "rescale_started",
            TelemetryEvent::PartitionMigrated { .. } => "partition_migrated",
            TelemetryEvent::RescaleCompleted { .. } => "rescale_completed",
            TelemetryEvent::CreditWait { .. } => "credit_wait",
            TelemetryEvent::OverloadTransition { .. } => "overload",
            TelemetryEvent::MessagesShed { .. } => "shed",
            TelemetryEvent::AnalysisReport { .. } => "analysis",
        }
    }
}

/// A recorded event: nanoseconds since the worker's recorder was created,
/// plus the typed event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecord {
    /// Nanoseconds since recorder creation (per-worker clock).
    pub nanos: u64,
    /// The event.
    pub event: TelemetryEvent,
}

impl EventRecord {
    /// Encodes the record as one JSON object (no trailing newline), with
    /// the owning worker's index in the `"w"` field.
    pub fn to_json(&self, worker: usize) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(96);
        let _ = write!(
            s,
            "{{\"w\":{worker},\"t\":{},\"ev\":\"{}\"",
            self.nanos,
            self.event.name()
        );
        match self.event {
            TelemetryEvent::ScheduleStop {
                dataflow,
                stage,
                nanos,
                worked,
                epoch,
                seq,
            } => {
                let _ = write!(
                    s,
                    ",\"df\":{dataflow},\"stage\":{stage},\"nanos\":{nanos},\"worked\":{worked},\"epoch\":{epoch},\"seq\":{seq}"
                );
            }
            TelemetryEvent::MessageSent {
                dataflow,
                connector,
                stage,
                target,
                records,
                bytes,
                remote,
            } => {
                let _ = write!(
                    s,
                    ",\"df\":{dataflow},\"conn\":{connector},\"stage\":{stage},\"target\":{target},\"records\":{records},\"bytes\":{bytes},\"remote\":{remote}"
                );
            }
            TelemetryEvent::MessageReceived {
                dataflow,
                connector,
                stage,
                records,
                remote,
            } => {
                let _ = write!(
                    s,
                    ",\"df\":{dataflow},\"conn\":{connector},\"stage\":{stage},\"records\":{records},\"remote\":{remote}"
                );
            }
            TelemetryEvent::ProgressBatchSent {
                dataflow,
                seq,
                updates,
            } => {
                let _ = write!(s, ",\"df\":{dataflow},\"seq\":{seq},\"updates\":{updates}");
            }
            TelemetryEvent::ProgressDeposited { dataflow, updates } => {
                let _ = write!(s, ",\"df\":{dataflow},\"updates\":{updates}");
            }
            TelemetryEvent::ProgressApplied {
                dataflow,
                sender,
                seq,
                updates,
                net,
            } => {
                let _ = write!(
                    s,
                    ",\"df\":{dataflow},\"sender\":{sender},\"seq\":{seq},\"updates\":{updates},\"net\":{net}"
                );
            }
            TelemetryEvent::NotificationDelivered {
                dataflow,
                stage,
                epoch,
                blocking,
            } => {
                let _ = write!(
                    s,
                    ",\"df\":{dataflow},\"stage\":{stage},\"epoch\":{epoch},\"blocking\":{blocking}"
                );
            }
            TelemetryEvent::FrontierProbe {
                dataflow,
                active,
                input_epoch,
            } => {
                let _ = write!(s, ",\"df\":{dataflow},\"active\":{active}");
                match input_epoch {
                    Some(e) => {
                        let _ = write!(s, ",\"input_epoch\":{e}");
                    }
                    None => s.push_str(",\"input_epoch\":null"),
                }
            }
            TelemetryEvent::CheckpointTaken { bytes }
            | TelemetryEvent::CheckpointRestored { bytes } => {
                let _ = write!(s, ",\"bytes\":{bytes}");
            }
            TelemetryEvent::FaultEscalated { kind } => match kind {
                FaultKind::LinkFailed { src, dst } => {
                    let _ = write!(s, ",\"kind\":\"link_failed\",\"src\":{src},\"dst\":{dst}");
                }
                FaultKind::ProcessCrashed { process } => {
                    let _ = write!(s, ",\"kind\":\"process_crashed\",\"process\":{process}");
                }
                FaultKind::Stalled { worker } => {
                    let _ = write!(s, ",\"kind\":\"stalled\",\"worker\":{worker}");
                }
            },
            TelemetryEvent::PeerSuspected { peer, silent_ms }
            | TelemetryEvent::PeerFailed { peer, silent_ms } => {
                let _ = write!(s, ",\"peer\":{peer},\"silent_ms\":{silent_ms}");
            }
            TelemetryEvent::PeerCleared { peer } => {
                let _ = write!(s, ",\"peer\":{peer}");
            }
            TelemetryEvent::AnalysisReport {
                dataflow,
                errors,
                warnings,
                infos,
            } => {
                let _ = write!(
                    s,
                    ",\"df\":{dataflow},\"errors\":{errors},\"warnings\":{warnings},\"infos\":{infos}"
                );
            }
            TelemetryEvent::Stalled { idle_ms, active } => {
                let _ = write!(s, ",\"idle_ms\":{idle_ms},\"active\":{active}");
            }
            TelemetryEvent::RescaleStarted {
                epoch,
                from_workers,
                to_workers,
            } => {
                let _ = write!(
                    s,
                    ",\"epoch\":{epoch},\"from_workers\":{from_workers},\"to_workers\":{to_workers}"
                );
            }
            TelemetryEvent::PartitionMigrated { from_worker, bytes } => {
                let _ = write!(s, ",\"from_worker\":{from_worker},\"bytes\":{bytes}");
            }
            TelemetryEvent::RescaleCompleted {
                epoch,
                workers,
                stalled_ms,
            } => {
                let _ = write!(
                    s,
                    ",\"epoch\":{epoch},\"workers\":{workers},\"stalled_ms\":{stalled_ms}"
                );
            }
            TelemetryEvent::CreditWait {
                dataflow,
                connector,
                waited_ns,
                bytes,
            } => {
                let _ = write!(
                    s,
                    ",\"df\":{dataflow},\"conn\":{connector},\"waited_ns\":{waited_ns},\"bytes\":{bytes}"
                );
            }
            TelemetryEvent::OverloadTransition { from, to } => {
                let _ = write!(s, ",\"from\":{from},\"to\":{to}");
            }
            TelemetryEvent::MessagesShed {
                dataflow,
                connector,
                records,
                bytes,
            } => {
                let _ = write!(
                    s,
                    ",\"df\":{dataflow},\"conn\":{connector},\"records\":{records},\"bytes\":{bytes}"
                );
            }
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lines_are_well_formed() {
        let records = [
            EventRecord {
                nanos: 9,
                event: TelemetryEvent::ScheduleStop {
                    dataflow: 0,
                    stage: 3,
                    nanos: 4,
                    worked: true,
                    epoch: 2,
                    seq: 40,
                },
            },
            EventRecord {
                nanos: 11,
                event: TelemetryEvent::FrontierProbe {
                    dataflow: 0,
                    active: 2,
                    input_epoch: None,
                },
            },
            EventRecord {
                nanos: 12,
                event: TelemetryEvent::FaultEscalated {
                    kind: FaultKind::ProcessCrashed { process: 1 },
                },
            },
            EventRecord {
                nanos: 13,
                event: TelemetryEvent::FaultEscalated {
                    kind: FaultKind::Stalled { worker: 2 },
                },
            },
            EventRecord {
                nanos: 14,
                event: TelemetryEvent::PeerSuspected {
                    peer: 1,
                    silent_ms: 60,
                },
            },
            EventRecord {
                nanos: 15,
                event: TelemetryEvent::PeerCleared { peer: 1 },
            },
            EventRecord {
                nanos: 16,
                event: TelemetryEvent::PeerFailed {
                    peer: 1,
                    silent_ms: 220,
                },
            },
            EventRecord {
                nanos: 17,
                event: TelemetryEvent::Stalled {
                    idle_ms: 30_000,
                    active: 4,
                },
            },
            EventRecord {
                nanos: 18,
                event: TelemetryEvent::CreditWait {
                    dataflow: 0,
                    connector: 2,
                    waited_ns: 1_500_000,
                    bytes: 4096,
                },
            },
            EventRecord {
                nanos: 19,
                event: TelemetryEvent::OverloadTransition { from: 0, to: 1 },
            },
            EventRecord {
                nanos: 20,
                event: TelemetryEvent::MessagesShed {
                    dataflow: 0,
                    connector: 2,
                    records: 64,
                    bytes: 4096,
                },
            },
        ];
        for r in records {
            let json = r.to_json(7);
            assert!(json.starts_with("{\"w\":7,\"t\":"), "{json}");
            assert!(json.ends_with('}'), "{json}");
            // Balanced braces and quotes (a cheap well-formedness check:
            // no nested objects, so exactly one pair of braces).
            assert_eq!(json.matches('{').count(), 1, "{json}");
            assert_eq!(json.matches('}').count(), 1, "{json}");
            assert_eq!(json.matches('"').count() % 2, 0, "{json}");
            assert!(json.contains(&format!("\"ev\":\"{}\"", r.event.name())));
        }
    }

    #[test]
    fn frontier_probe_encodes_closed_inputs_as_null() {
        let r = EventRecord {
            nanos: 1,
            event: TelemetryEvent::FrontierProbe {
                dataflow: 2,
                active: 0,
                input_epoch: Some(4),
            },
        };
        assert!(r.to_json(0).contains("\"input_epoch\":4"));
        let r = EventRecord {
            nanos: 1,
            event: TelemetryEvent::FrontierProbe {
                dataflow: 2,
                active: 0,
                input_epoch: None,
            },
        };
        assert!(r.to_json(0).contains("\"input_epoch\":null"));
    }

    #[test]
    fn schedule_events_carry_epoch_and_seq() {
        let r = EventRecord {
            nanos: 1,
            event: TelemetryEvent::ScheduleStop {
                dataflow: 1,
                stage: 2,
                nanos: 7,
                worked: false,
                epoch: 5,
                seq: 99,
            },
        };
        let json = r.to_json(0);
        assert!(json.contains("\"epoch\":5"), "{json}");
        assert!(json.contains("\"seq\":99"), "{json}");
    }

    #[test]
    fn message_events_carry_their_stage() {
        let sent = TelemetryEvent::MessageSent {
            dataflow: 1,
            connector: 2,
            stage: 3,
            target: 0,
            records: 4,
            bytes: 32,
            remote: true,
        };
        let received = TelemetryEvent::MessageReceived {
            dataflow: 1,
            connector: 2,
            stage: 5,
            records: 4,
            remote: true,
        };
        for (event, stage) in [(sent, 3), (received, 5)] {
            let json = EventRecord { nanos: 1, event }.to_json(0);
            assert!(
                json.contains(&format!(",\"conn\":2,\"stage\":{stage},")),
                "{json}"
            );
        }
    }

    #[test]
    fn flow_events_carry_dataflow_and_cost_fields() {
        let ev = TelemetryEvent::CreditWait {
            dataflow: 4,
            connector: 9,
            waited_ns: 77,
            bytes: 128,
        };
        let json = EventRecord {
            nanos: 1,
            event: ev,
        }
        .to_json(0);
        assert!(json.contains("\"ev\":\"credit_wait\",\"df\":4"), "{json}");
        assert!(json.contains("\"waited_ns\":77"), "{json}");

        let ev = TelemetryEvent::MessagesShed {
            dataflow: 4,
            connector: 9,
            records: 3,
            bytes: 128,
        };
        let json = EventRecord {
            nanos: 2,
            event: ev,
        }
        .to_json(0);
        assert!(json.contains("\"ev\":\"shed\",\"df\":4"), "{json}");

        let ev = TelemetryEvent::OverloadTransition { from: 1, to: 2 };
        let json = EventRecord {
            nanos: 2,
            event: ev,
        }
        .to_json(3);
        assert!(json.contains("\"from\":1,\"to\":2"), "{json}");
        assert!(!json.contains("\"df\""), "{json}");
    }
}
