//! A discrete-event cluster simulator for the paper's cluster-scale
//! experiments.
//!
//! The paper's timing figures (6a, 6b, 6d, 6e, 7a, 7b) were measured on
//! two racks of 32 computers with Gigabit NICs. This reproduction runs on
//! one core, so wall-clock scaling cannot be *measured*; instead this
//! crate simulates the paper's hardware at the granularity the figures
//! need — synchronized phases of computation and communication — while
//! the real runtime (the `naiad` crate) supplies correctness, byte
//! counts, and per-record costs.
//!
//! The model, per phase:
//!
//! * computation time is `work / capacity` per worker, with the slowest
//!   worker gating the phase;
//! * communication time is the worst bottleneck among each NIC's egress
//!   and ingress bytes and the inter-rack uplink (flows share links
//!   fairly, which for all-to-all traffic reduces to this max);
//! * coordination (the progress protocol of §3.3) costs an
//!   accumulate-and-broadcast round trip of small messages;
//! * *micro-stragglers* (§3.5) strike any phase with a configurable
//!   probability per participant: a packet loss costs a retransmit
//!   timeout, a GC pause costs a longer stall. The more participants a
//!   phase has, the likelier its tail is struck — the paper's central
//!   scaling obstacle, reproduced by construction.
//!
//! Determinism: the simulator uses a seeded xorshift generator, so every
//! figure regenerates identically.

#![forbid(unsafe_code)]

mod model;
mod telemetry;
mod workloads;

pub use model::{
    ClusterSim, ClusterSpec, FailureModel, HeartbeatModel, PhaseStats, RecoveryStats, RescaleModel,
    StragglerModel,
};
/// Re-export of the shared seeded generator (previously a private module
/// here; now the workspace-wide randomness primitive).
pub use naiad_rng::Xorshift;
pub use telemetry::{PhaseAgg, SimTelemetry};
pub use workloads::{
    allreduce_iteration_time, barrier_distribution, exchange_throughput_gbps, iterative_job_time,
    AllReduceKind, IterativeJob,
};
