//! Bounded retry over the faulting fabric, and fault escalation.
//!
//! The fabric (`naiad-netsim`) models the wire *below* TCP: with a
//! [`FaultPlan`](naiad_netsim::FaultPlan) installed, sends can fail with
//! transient errors (drops, partition windows). This module plays the
//! role of TCP retransmission — a bounded exponential-backoff retry —
//! and, when retries are exhausted or the failure is fatal (a crashed
//! process), escalates the fault so the whole cluster unwinds into a
//! typed [`ExecuteError`](super::execute::ExecuteError) instead of
//! hanging.
//!
//! Escalation has two halves:
//!
//! * the thread that observed the failure panics with a [`FaultPanic`]
//!   payload, unwinding its worker closure;
//! * before panicking it raises the fault on the cluster-global
//!   [`EscalationCell`], which every worker polls in
//!   [`Worker::step`](super::worker::Worker::step) — workers blocked on
//!   progress from the failed process unwind too, so `execute` can join
//!   everything and report the fault.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use naiad_netsim::{NetSender, SendError, TrafficClass};
use naiad_wire::sync::Mutex;
use naiad_wire::Bytes;

/// The classified cause of a cluster unwind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A link kept failing after the full retry budget.
    LinkFailed {
        /// Sending endpoint.
        src: usize,
        /// Receiving endpoint.
        dst: usize,
    },
    /// A process crashed (scheduled by the plan or injected at runtime).
    ProcessCrashed {
        /// The crashed process.
        process: usize,
    },
    /// The stall watchdog declared a global stall: pointstamps were
    /// outstanding but no frontier or occurrence change happened within
    /// the configured timeout. The structured diagnostic dump travels
    /// alongside in the [`EscalationCell`] detail slot (the kind itself
    /// stays `Copy` so it can ride in telemetry events and panic
    /// payloads).
    Stalled {
        /// The worker whose watchdog fired.
        worker: usize,
    },
}

impl FaultKind {
    /// Classifies a non-retryable send error.
    pub(crate) fn from_send_error(err: SendError) -> FaultKind {
        match err {
            SendError::Dropped { src, dst } | SendError::Partitioned { src, dst } => {
                FaultKind::LinkFailed { src, dst }
            }
            SendError::PeerCrashed { dst } | SendError::Disconnected { dst } => {
                FaultKind::ProcessCrashed { process: dst }
            }
            SendError::SelfCrashed { src } => FaultKind::ProcessCrashed { process: src },
        }
    }
}

/// The panic payload used to unwind worker threads on an injected fault.
/// `execute` downcasts join errors to this type to produce typed
/// [`ExecuteError`](super::execute::ExecuteError)s.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FaultPanic(pub(crate) FaultKind);

/// Cluster-global slot holding the first escalated fault. Workers poll it
/// each step so every thread unwinds, not just the one that hit the
/// failed send.
#[derive(Debug, Default)]
pub(crate) struct EscalationCell {
    /// Whether `slot` holds a fault: what every worker polls each step, so
    /// the poll reads a line nobody writes until a fault is raised.
    raised: AtomicBool,
    slot: Mutex<Option<FaultKind>>,
    /// Free-form diagnostic attached to the *winning* fault (e.g. the
    /// stall watchdog's structured state dump).
    detail: Mutex<Option<String>>,
}

impl EscalationCell {
    /// Records `kind` if no fault was raised yet; returns the fault that
    /// now occupies the cell.
    pub(crate) fn raise(&self, kind: FaultKind) -> FaultKind {
        let first = *self.slot.lock().get_or_insert(kind);
        self.raised.store(true, Ordering::Release);
        first
    }

    /// Like [`raise`](Self::raise), but attaches `detail` when this call
    /// is the one that installed the fault (losing racers' details are
    /// discarded along with their faults).
    pub(crate) fn raise_with_detail(&self, kind: FaultKind, detail: String) -> FaultKind {
        let mut slot = self.slot.lock();
        if slot.is_none() {
            *slot = Some(kind);
            *self.detail.lock() = Some(detail);
            self.raised.store(true, Ordering::Release);
        }
        slot.unwrap_or(kind)
    }

    /// The raised fault, if any.
    pub(crate) fn check(&self) -> Option<FaultKind> {
        if !self.raised.load(Ordering::Acquire) {
            return None;
        }
        *self.slot.lock()
    }

    /// Takes the diagnostic attached to the winning fault, if any.
    pub(crate) fn take_detail(&self) -> Option<String> {
        self.detail.lock().take()
    }
}

/// Raises `kind` on the cell and unwinds the current thread with a
/// [`FaultPanic`] payload.
pub(crate) fn escalate(cell: &EscalationCell, kind: FaultKind) -> ! {
    let first = cell.raise(kind);
    std::panic::panic_any(FaultPanic(first));
}

/// Base backoff between the send retries of a run; unit tests build a
/// [`RetryPolicy`] with a shorter one.
const RETRY_BACKOFF: Duration = Duration::from_micros(50);

/// Retry budget for transient send failures.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RetryPolicy {
    /// Retries after the first attempt.
    pub(crate) retries: u32,
    /// Base backoff; doubles per retry, capped at 1024× base.
    pub(crate) backoff: Duration,
}

impl RetryPolicy {
    pub(crate) fn from_config(config: &super::config::Config) -> Self {
        RetryPolicy {
            retries: config.send_retries,
            backoff: RETRY_BACKOFF,
        }
    }

    fn backoff_for(&self, attempt: u32) -> Duration {
        self.backoff * 1u32.checked_shl(attempt.min(10)).unwrap_or(u32::MAX)
    }
}

/// Runs `attempt` until it succeeds, retrying transient failures with
/// exponential backoff. Returns the final error once the budget is
/// exhausted or the failure is fatal. `attempt` takes the fabric lock
/// for one send only, so it is released between attempts and other
/// threads (and the delivery clock) make progress while we back off.
pub(crate) fn with_retry<T>(
    policy: RetryPolicy,
    mut attempt: impl FnMut() -> Result<T, SendError>,
) -> Result<T, SendError> {
    let mut attempts = 0u32;
    loop {
        match attempt() {
            Err(err) if err.is_transient() && attempts < policy.retries => {
                std::thread::sleep(policy.backoff_for(attempts));
                attempts += 1;
            }
            result => return result,
        }
    }
}

/// Sends a progress batch to `dst` under [`with_retry`]. (A data frame
/// goes to a worker's mailbox: `Pusher::emit` retries `send_data` itself.)
pub(crate) fn send_with_retry(
    net: &Mutex<NetSender>,
    policy: RetryPolicy,
    dst: usize,
    channel: u32,
    payload: &Bytes,
) -> Result<(), SendError> {
    let class = TrafficClass::Progress;
    with_retry(policy, || {
        net.lock().send(dst, channel, class, payload.clone())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use naiad_netsim::{Fabric, FaultPlan};

    fn policy(retries: u32) -> RetryPolicy {
        RetryPolicy {
            retries,
            backoff: Duration::from_micros(1),
        }
    }

    #[test]
    fn retries_ride_out_a_partition_window() {
        // Attempts 0..3 on 0→1 fail; the 4th emerges from the window.
        let plan = FaultPlan::seeded(3).partition(0, 1, 0, 3);
        let mut endpoints = Fabric::builder(2).faults(plan).build();
        let mut b = endpoints.pop().unwrap();
        let a = endpoints.pop().unwrap();
        let (tx, _rx) = a.split();
        let net = Mutex::new(tx);
        send_with_retry(&net, policy(8), 1, 7, &vec![1u8].into()).unwrap();
        assert_eq!(b.recv_blocking().unwrap().payload.as_ref(), &[1u8]);
        assert_eq!(net.lock().metrics().faults().partition_rejects, 3);
    }

    #[test]
    fn exhausted_budget_surfaces_the_transient_error() {
        let plan = FaultPlan::seeded(3).partition(0, 1, 0, 100);
        let mut endpoints = Fabric::builder(2).faults(plan).build();
        let _b = endpoints.pop().unwrap();
        let a = endpoints.pop().unwrap();
        let (tx, _rx) = a.split();
        let net = Mutex::new(tx);
        let err = send_with_retry(&net, policy(4), 1, 7, &vec![1u8].into()).unwrap_err();
        assert_eq!(err, SendError::Partitioned { src: 0, dst: 1 });
        assert!(FaultKind::from_send_error(err) == FaultKind::LinkFailed { src: 0, dst: 1 });
    }

    #[test]
    fn crashes_are_not_retried() {
        let mut endpoints = Fabric::builder(2).build();
        let _b = endpoints.pop().unwrap();
        let a = endpoints.pop().unwrap();
        a.fault_controller().crash(1);
        let (tx, _rx) = a.split();
        let net = Mutex::new(tx);
        let err = send_with_retry(&net, policy(8), 1, 7, &vec![1u8].into()).unwrap_err();
        assert_eq!(err, SendError::PeerCrashed { dst: 1 });
        assert_eq!(
            FaultKind::from_send_error(err),
            FaultKind::ProcessCrashed { process: 1 }
        );
        // Only the initial attempt: no retries burned on a fatal error.
        assert_eq!(net.lock().metrics().faults().crash_rejects, 1);
    }

    #[test]
    fn escalation_cell_keeps_the_first_fault() {
        let cell = EscalationCell::default();
        assert_eq!(cell.check(), None);
        let a = FaultKind::ProcessCrashed { process: 2 };
        let b = FaultKind::LinkFailed { src: 0, dst: 1 };
        assert_eq!(cell.raise(a), a);
        assert_eq!(cell.raise(b), a, "later faults do not displace the first");
        assert_eq!(cell.check(), Some(a));
    }

    #[test]
    fn detail_sticks_only_to_the_winning_fault() {
        let cell = EscalationCell::default();
        let stall = FaultKind::Stalled { worker: 1 };
        let crash = FaultKind::ProcessCrashed { process: 0 };
        assert_eq!(cell.raise_with_detail(stall, "dump A".into()), stall);
        // A losing racer's detail is discarded with its fault.
        assert_eq!(cell.raise_with_detail(crash, "dump B".into()), stall);
        assert_eq!(cell.check(), Some(stall));
        assert_eq!(cell.take_detail().as_deref(), Some("dump A"));
        assert_eq!(cell.take_detail(), None, "detail is taken once");
    }
}
