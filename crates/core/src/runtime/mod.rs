//! The distributed runtime (§3): processes, workers, channels, progress
//! plumbing, and fault tolerance.

pub mod channels;
pub mod config;
pub mod coordinator;
pub mod durability;
pub mod execute;
pub mod flow;
mod liveness;
mod progress_hub;
pub mod rescale;
mod retry;
mod worker;

pub use channels::{Message, Pact};
pub use config::Config;
pub use coordinator::{Execution, PhaseReport, RecoveryOptions, RunReport, Session};
pub use durability::{open_blob, seal_blob, Checkpoint, KeyedCheckpoint, KeyedState, RestoreError};
pub use execute::{execute, execute_with_metrics, execute_with_telemetry, ExecuteError};
pub use flow::{FlowConfig, OverloadState, ShedPolicy};
pub use rescale::{ElasticOptions, RescaleError, RescaleOutcome, RescaleStep};
pub use retry::FaultKind;
pub use worker::Worker;
