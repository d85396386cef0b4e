//! An in-process message fabric standing in for Naiad's TCP/Ethernet network.
//!
//! The paper's cluster connects processes with pairwise TCP links (§3).
//! This crate provides the same abstraction inside one OS process so the
//! full distributed runtime — serialization, routing, FIFO progress
//! broadcasts — runs unmodified on a laptop:
//!
//! * every ordered pair of endpoints has a FIFO link,
//! * an endpoint receives on one merged queue — and, when the fabric is
//!   built with [`mailboxes`](FabricBuilder::mailboxes), on that many
//!   mailboxes beside it, the receive queues of a multi-queue NIC:
//!   [`send_data`](NetSender::send_data) crosses the same link under the
//!   same admission (faults, metering, latency) and lands in the mailbox of
//!   the reader that will consume the frame, and
//!   [`fan_out`](NetSender::fan_out) admits a frame once and lands it in
//!   every mailbox of the destination, so no thread has to forward either.
//!   The runtime gives every worker one and keeps the merged queue for
//!   heartbeats,
//! * every payload is a byte buffer (the runtime serializes records with
//!   `naiad-wire` before they reach the fabric),
//! * links meter bytes and message counts separately for data and
//!   progress-protocol traffic (Figures 6a and 6c),
//! * links can inject delivery latency, the hook used to emulate the
//!   micro-stragglers of §3.5,
//! * a deterministic seeded [`FaultPlan`] injects message drops, duplicate
//!   deliveries, link partitions, and process crashes — the machinery
//!   behind the fault-tolerance evaluation of §5 (Figure 7c). Failed
//!   sends surface as typed [`SendError`]s rather than vanishing, and
//!   every injected fault is counted in [`FabricMetrics`],
//! * a latency-exempt **control channel**
//!   ([`send_control`](Endpoint::send_control)) carries heartbeats and
//!   failure-detection pings (§3.4/§3.5) without perturbing data-path
//!   fault schedules — since it loses nothing and delays nothing, a
//!   sender that needs no reader can settle a control frame on admission
//!   ([`admit_control`](NetSender::admit_control)) — and a fabric-wide [`ClusterClock`] gives every
//!   endpoint the same monotonic time base for suspicion timeouts.
//!
//! # Examples
//!
//! ```
//! use naiad_netsim::{Fabric, TrafficClass};
//!
//! let mut endpoints = Fabric::builder(2).build();
//! let mut b = endpoints.pop().unwrap();
//! let mut a = endpoints.pop().unwrap();
//! a.send(1, 7, TrafficClass::Data, vec![1, 2, 3].into()).unwrap();
//! let env = b.recv_blocking().unwrap();
//! assert_eq!((env.src, env.channel, &env.payload[..]), (0, 7, &[1u8, 2, 3][..]));
//! ```

#![forbid(unsafe_code)]

mod clock;
mod endpoint;
mod fault;
mod latency;
mod metrics;

pub use clock::ClusterClock;
pub use endpoint::{Endpoint, Envelope, Fabric, FabricBuilder, NetReceiver, NetSender, RecvError};
pub use fault::{CrashPoint, FaultController, FaultPlan, LinkPartition, SendError};
pub use latency::LatencyModel;
pub use metrics::{
    ClassCounters, FabricMetrics, FaultCounters, LinkCounters, TrafficClass, TrafficTotals,
};
