//! Heartbeat-based failure detection (§3.4/§3.5).
//!
//! PR 1's coordinated rollback only fires when a *send* returns a typed
//! fault: a process that crashes or is partitioned while its peers are
//! idle or receive-only is never noticed, and the cluster hangs with the
//! frontier silently stuck. Naiad pairs rollback with active liveness
//! machinery — ping/pong failure detection and lease-based membership —
//! and this module is that half of the loop.
//!
//! With [`Config::heartbeats`] on, one [`Liveness`] detector exists per
//! *process*, driven by the process's `naiad-liveness-<p>` thread
//! ([`Liveness::run`]), which ticks every few milliseconds even when all
//! workers are busy or parked. It is the one thread a process runs besides
//! its workers, and it runs only when heartbeats are on:
//!
//! * **Emission** — [`Liveness::maybe_beat`] sends a heartbeat to every
//!   peer once per configured interval, whatever else the link carries,
//!   over the fabric's latency-exempt control channel.
//! * **Reception** — heartbeats are all that arrives on an endpoint's
//!   merged queue, and the thread reads them ([`Liveness::note_heard`]).
//!   Data frames and progress batches go to the workers' mailboxes, so the
//!   beats alone keep a peer alive in the detector's eyes.
//! * **Detection** — [`Liveness::scan`] compares each peer's
//!   last-heard timestamp (from the fabric's shared [`ClusterClock`])
//!   against the suspicion and failure thresholds. Crossing the
//!   suspicion threshold is recorded but benign; crossing the failure
//!   threshold returns [`FaultKind::ProcessCrashed`], which the thread
//!   escalates into the regular typed-error → coordinated-rollback path.
//! * **Send-side detection** — a heartbeat that bounces with a crash
//!   error is itself a detection: the peer is gone, no timeout needed.
//!   Partition rejections are *not* treated as failures on the send
//!   side (the receive-side timeout owns that, keeping the error
//!   attribution on the unreachable peer rather than the link).
//!
//! The detector does not ride worker steps: a process whose only worker
//! spends longer than `heartbeat_fail_after` inside one operator call is
//! alive, and a detector driven by that worker would stop beating for it
//! (`tests/liveness.rs` pins this). Detection latency is bounded by
//! `heartbeat_fail_after` plus one tick; chaos tests assert the bound. All
//! state is atomic so the thread scans while worker telemetry drains
//! transitions.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use naiad_netsim::{ClusterClock, NetReceiver, NetSender, RecvError, SendError};
use naiad_wire::sync::Mutex;

use super::channels::HEARTBEAT_TAG;
use super::config::Config;
use super::execute::Bringup;
use super::retry::FaultKind;

/// A state change in the failure detector, drained into worker telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LivenessTransition {
    /// `peer` crossed the suspicion threshold after `silent_ns` of silence.
    Suspected { peer: usize, silent_ns: u64 },
    /// A suspected `peer` was heard from again.
    Cleared { peer: usize },
    /// `peer` crossed the failure threshold after `silent_ns` of silence.
    Failed { peer: usize, silent_ns: u64 },
}

/// Per-process heartbeat emitter and peer failure detector.
#[derive(Debug)]
pub(crate) struct Liveness {
    process: usize,
    interval_ns: u64,
    suspect_ns: u64,
    fail_ns: u64,
    clock: Arc<ClusterClock>,
    /// Per-peer last-heard timestamps (ns on the cluster clock).
    last_heard: Vec<AtomicU64>,
    suspected: Vec<AtomicBool>,
    failed: Vec<AtomicBool>,
    /// Cluster-clock instant of the next standalone heartbeat.
    next_beat: AtomicU64,
    beats_sent: AtomicU64,
    suspicions: AtomicU64,
    failures: AtomicU64,
    transitions: Mutex<Vec<LivenessTransition>>,
    /// Cheap flag so workers can skip the transition lock when idle.
    dirty: AtomicBool,
}

impl Liveness {
    /// Builds a detector for `process` among `processes` peers, reading
    /// cadence and thresholds from `config`. All peers start "heard now":
    /// the grace period before the first suspicion equals the threshold.
    pub(crate) fn new(
        process: usize,
        processes: usize,
        config: &Config,
        clock: Arc<ClusterClock>,
    ) -> Self {
        let as_ns = |d: std::time::Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        let now = clock.now_ns();
        let mut last_heard = Vec::with_capacity(processes);
        last_heard.resize_with(processes, || AtomicU64::new(now));
        let mut suspected = Vec::with_capacity(processes);
        suspected.resize_with(processes, || AtomicBool::new(false));
        let mut failed = Vec::with_capacity(processes);
        failed.resize_with(processes, || AtomicBool::new(false));
        Liveness {
            process,
            interval_ns: as_ns(config.heartbeat_interval).max(1),
            suspect_ns: as_ns(config.heartbeat_suspect_after).max(1),
            fail_ns: as_ns(config.heartbeat_fail_after).max(1),
            clock,
            last_heard,
            suspected,
            failed,
            next_beat: AtomicU64::new(now),
            beats_sent: AtomicU64::new(0),
            suspicions: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            transitions: Mutex::default(),
            dirty: AtomicBool::new(false),
        }
    }

    /// The liveness thread body: until the bring-up shuts down, beats from
    /// `net` when due, scans, and waits at most half an interval on the
    /// endpoint's merged queue for other processes' heartbeats. A detected
    /// failure is raised on the escalation cell, for the workers to unwind
    /// on; the thread itself keeps going.
    pub(crate) fn run(&self, mut rx: NetReceiver, net: &Mutex<NetSender>, bringup: &Bringup) {
        let tick = (Duration::from_nanos(self.interval_ns) / 2)
            .clamp(Duration::from_millis(1), Duration::from_millis(20));
        while !bringup.shutdown.load(Ordering::Acquire) {
            // `maybe_beat` is interval-gated internally (one atomic load
            // when not due).
            if let Some(kind) = self.maybe_beat(net).or_else(|| self.scan()) {
                bringup.escalation.raise(kind);
            }
            match rx.recv_deadline(Some(tick)) {
                Ok(env) => {
                    debug_assert_eq!(env.channel, HEARTBEAT_TAG);
                    self.note_heard(env.src);
                }
                Err(RecvError::Timeout) => {}
                Err(RecvError::Disconnected) => return,
            }
        }
    }

    fn push_transition(&self, t: LivenessTransition) {
        self.transitions.lock().push(t);
        self.dirty.store(true, Ordering::Release);
    }

    /// Records that traffic arrived from `peer` just now.
    pub(crate) fn note_heard(&self, peer: usize) {
        self.note_heard_at(peer, self.clock.now_ns());
    }

    /// Records that traffic arrived from `peer` at cluster-clock instant
    /// `now_ns`. Out-of-range sources (the central accumulator's extra
    /// endpoint) are ignored. Clears any standing suspicion.
    fn note_heard_at(&self, peer: usize, now_ns: u64) {
        let (Some(slot), Some(sus)) = (self.last_heard.get(peer), self.suspected.get(peer)) else {
            return;
        };
        slot.store(now_ns, Ordering::Release);
        if sus.swap(false, Ordering::AcqRel) {
            self.push_transition(LivenessTransition::Cleared { peer });
        }
    }

    /// Emits standalone heartbeats if the interval elapsed. Transient
    /// failures (drops, partitions) and vanished endpoints are ignored —
    /// the receive-side timeout owns those — but a crash error is an
    /// immediate detection and is returned for escalation.
    pub(crate) fn maybe_beat(&self, net: &Mutex<NetSender>) -> Option<FaultKind> {
        let now = self.clock.now_ns();
        // Single consumer (the liveness thread), so a plain load-check-store
        // is race-free; atomics are only for the workers' reads.
        if now < self.next_beat.load(Ordering::Acquire) {
            return None;
        }
        self.next_beat
            .store(now.saturating_add(self.interval_ns), Ordering::Release);

        let payload: naiad_wire::Bytes = now.to_le_bytes().to_vec().into();
        let mut detected = None;
        {
            let mut net = net.lock();
            for dst in 0..self.last_heard.len() {
                if dst == self.process {
                    continue;
                }
                match net.send_control(dst, HEARTBEAT_TAG, payload.clone()) {
                    Ok(()) => {
                        self.beats_sent.fetch_add(1, Ordering::Relaxed);
                    }
                    // Receive-side timeout owns partition detection; a
                    // vanished endpoint means orderly teardown.
                    Err(SendError::Dropped { .. })
                    | Err(SendError::Partitioned { .. })
                    | Err(SendError::Disconnected { .. }) => {}
                    Err(SendError::PeerCrashed { dst }) => {
                        let fresh = self
                            .failed
                            .get(dst)
                            .is_some_and(|f| !f.swap(true, Ordering::AcqRel));
                        if fresh {
                            self.failures.fetch_add(1, Ordering::Relaxed);
                            let silent_ns = self
                                .last_heard
                                .get(dst)
                                .map_or(0, |h| now.saturating_sub(h.load(Ordering::Acquire)));
                            self.push_transition(LivenessTransition::Failed {
                                peer: dst,
                                silent_ns,
                            });
                        }
                        detected.get_or_insert(FaultKind::ProcessCrashed { process: dst });
                    }
                    Err(SendError::SelfCrashed { src }) => {
                        detected.get_or_insert(FaultKind::ProcessCrashed { process: src });
                    }
                }
            }
        }
        detected
    }

    /// Sweeps the peer table as of now.
    pub(crate) fn scan(&self) -> Option<FaultKind> {
        self.scan_at(self.clock.now_ns())
    }

    /// Sweeps the peer table as of cluster-clock instant `now_ns`: raises
    /// suspicions past `suspect_ns` of silence and returns a failure once
    /// a peer passes `fail_ns`.
    fn scan_at(&self, now_ns: u64) -> Option<FaultKind> {
        let mut detected = None;
        for (peer, heard) in self.last_heard.iter().enumerate() {
            if peer == self.process {
                continue;
            }
            let silent_ns = now_ns.saturating_sub(heard.load(Ordering::Acquire));
            if silent_ns >= self.fail_ns {
                let fresh = self
                    .failed
                    .get(peer)
                    .is_some_and(|f| !f.swap(true, Ordering::AcqRel));
                if fresh {
                    self.failures.fetch_add(1, Ordering::Relaxed);
                    self.push_transition(LivenessTransition::Failed { peer, silent_ns });
                }
                detected.get_or_insert(FaultKind::ProcessCrashed { process: peer });
            } else if silent_ns >= self.suspect_ns
                && self
                    .suspected
                    .get(peer)
                    .is_some_and(|s| !s.swap(true, Ordering::AcqRel))
            {
                self.suspicions.fetch_add(1, Ordering::Relaxed);
                self.push_transition(LivenessTransition::Suspected { peer, silent_ns });
            }
        }
        detected
    }

    /// Drains accumulated detector transitions (for worker telemetry).
    /// Cheap when nothing happened: one relaxed load, no lock.
    pub(crate) fn drain_transitions(&self) -> Vec<LivenessTransition> {
        if !self.dirty.swap(false, Ordering::AcqRel) {
            return Vec::new();
        }
        std::mem::take(&mut *self.transitions.lock())
    }

    /// Standalone heartbeats successfully emitted.
    pub(crate) fn beats_sent(&self) -> u64 {
        self.beats_sent.load(Ordering::Relaxed)
    }

    /// Peer-suspected transitions raised.
    pub(crate) fn suspicions(&self) -> u64 {
        self.suspicions.load(Ordering::Relaxed)
    }

    /// Peer-failed declarations raised.
    pub(crate) fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use naiad_netsim::Fabric;
    use std::time::Duration;

    fn config(interval_ms: u64, suspect_ms: u64, fail_ms: u64) -> Config {
        Config::processes_and_workers(2, 1)
            .heartbeats(true)
            .heartbeat_interval(Duration::from_millis(interval_ms))
            .heartbeat_timeouts(
                Duration::from_millis(suspect_ms),
                Duration::from_millis(fail_ms),
            )
    }

    fn two_process_fixture(
        cfg: &Config,
    ) -> (
        Arc<Mutex<NetSender>>,
        naiad_netsim::NetReceiver,
        naiad_netsim::FaultController,
        Liveness,
    ) {
        let mut eps = Fabric::builder(2).build();
        let ctl = eps[0].fault_controller();
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let clock = a.clock().clone();
        let (a_tx, _a_rx) = a.split();
        let (_b_tx, b_rx) = b.split();
        let live = Liveness::new(0, 2, cfg, clock);
        (Arc::new(Mutex::new(a_tx)), b_rx, ctl, live)
    }

    #[test]
    fn beats_are_interval_gated_and_reach_peers() {
        let cfg = config(5, 50, 200);
        let (net, mut b_rx, _ctl, live) = two_process_fixture(&cfg);
        assert!(live.maybe_beat(&net).is_none());
        assert_eq!(live.beats_sent(), 1, "first beat fires immediately");
        // Immediately again: gated by the interval.
        assert!(live.maybe_beat(&net).is_none());
        assert_eq!(live.beats_sent(), 1);
        let env = b_rx.try_recv().expect("heartbeat delivered");
        assert_eq!(env.channel, HEARTBEAT_TAG);
        assert_eq!(env.src, 0);
        std::thread::sleep(Duration::from_millis(6));
        assert!(live.maybe_beat(&net).is_none());
        assert_eq!(live.beats_sent(), 2, "interval elapsed, beat again");
    }

    const MS: u64 = 1_000_000;

    /// Pins peer 1's last-heard instant and returns it, so the detector
    /// tests below run on explicit instants and sleep nowhere.
    fn heard_from_peer_at_start(live: &Liveness) -> u64 {
        let t0 = live.clock.now_ns();
        live.note_heard_at(1, t0);
        t0
    }

    #[test]
    fn silence_escalates_suspected_then_failed() {
        let cfg = config(1, 5, 20);
        let (_net, _b_rx, _ctl, live) = two_process_fixture(&cfg);
        let t0 = heard_from_peer_at_start(&live);
        assert!(live.scan_at(t0).is_none(), "fresh table: everyone live");
        assert!(
            live.scan_at(t0 + 7 * MS).is_none(),
            "suspected is not yet failed"
        );
        assert_eq!(live.suspicions(), 1);
        let ts = live.drain_transitions();
        assert!(matches!(
            ts.as_slice(),
            [LivenessTransition::Suspected { peer: 1, .. }]
        ));
        assert_eq!(
            live.scan_at(t0 + 22 * MS),
            Some(FaultKind::ProcessCrashed { process: 1 })
        );
        assert_eq!(live.failures(), 1);
        // Idempotent: a second scan re-detects but records one failure.
        assert!(live.scan_at(t0 + 22 * MS).is_some());
        assert_eq!(live.failures(), 1);
        assert!(matches!(
            live.drain_transitions().as_slice(),
            [LivenessTransition::Failed { peer: 1, .. }]
        ));
        assert!(live.drain_transitions().is_empty(), "drain empties");
    }

    #[test]
    fn traffic_clears_suspicion() {
        let cfg = config(1, 5, 60_000);
        let (_net, _b_rx, _ctl, live) = two_process_fixture(&cfg);
        let t0 = heard_from_peer_at_start(&live);
        assert!(live.scan_at(t0 + 7 * MS).is_none());
        assert_eq!(live.suspicions(), 1);
        live.note_heard_at(1, t0 + 7 * MS);
        let ts = live.drain_transitions();
        assert!(ts.contains(&LivenessTransition::Cleared { peer: 1 }));
        assert!(live.scan_at(t0 + 9 * MS).is_none());
        assert_eq!(live.suspicions(), 1, "cleared peer is not re-suspected");
        // The central accumulator's out-of-range endpoint id is ignored.
        live.note_heard(99);
    }

    #[test]
    fn crashed_peer_is_detected_on_send() {
        let cfg = config(1, 50, 200);
        let (net, _b_rx, ctl, live) = two_process_fixture(&cfg);
        ctl.crash(1);
        assert_eq!(
            live.maybe_beat(&net),
            Some(FaultKind::ProcessCrashed { process: 1 })
        );
        assert_eq!(live.failures(), 1);
        assert_eq!(live.beats_sent(), 0);
    }

    #[test]
    fn partitioned_link_is_not_a_send_side_failure() {
        let cfg = config(1, 50, 200);
        let (net, _b_rx, ctl, live) = two_process_fixture(&cfg);
        ctl.sever(0, 1);
        assert!(live.maybe_beat(&net).is_none(), "timeout owns partitions");
        assert_eq!(live.failures(), 0);
    }
}
