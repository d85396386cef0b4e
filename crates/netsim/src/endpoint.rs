//! Endpoints and the fabric builder.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use naiad_rng::Xorshift;
use naiad_wire::Bytes;

use crate::clock::ClusterClock;
use crate::fault::{FaultController, FaultState};
use crate::latency::LatencySampler;
use crate::metrics::{FabricMetrics, TrafficClass};
use crate::{FaultPlan, LatencyModel, SendError};

/// A message in flight between two endpoints.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Index of the sending endpoint.
    pub src: usize,
    /// Application-chosen channel tag, used by the runtime to route the
    /// payload to the right dataflow connector or to the progress protocol.
    pub channel: u32,
    /// Accounting class.
    pub class: TrafficClass,
    /// Per-link delivery sequence number, used by the receiver to suppress
    /// fabric-duplicated messages (strictly increasing per `src` at any
    /// receiver; gaps mark dropped messages).
    pub seq: u64,
    /// Serialized payload. `Bytes` makes broadcast fan-out cheap: the same
    /// buffer is reference-counted across all destinations.
    pub payload: Bytes,
}

struct Timed {
    deliver_at: Option<Instant>,
    envelope: Envelope,
}

/// Error returned by [`Endpoint::recv_blocking`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// Every peer endpoint has been dropped and no messages remain.
    Disconnected,
    /// The deadline elapsed before a message became deliverable.
    Timeout,
}

/// The entry point for building a fabric.
///
/// `Fabric` itself is a namespace; [`FabricBuilder::build`] hands out the
/// per-process [`Endpoint`]s, which is all the runtime needs.
#[derive(Debug)]
pub struct Fabric;

impl Fabric {
    /// Starts building a fabric with `processes` endpoints.
    ///
    /// # Panics
    ///
    /// Panics if `processes` is zero.
    pub fn builder(processes: usize) -> FabricBuilder {
        assert!(processes > 0, "a fabric needs at least one endpoint");
        FabricBuilder {
            processes,
            latency: None,
            faults: None,
        }
    }
}

/// Configures and constructs a fabric.
#[derive(Debug)]
pub struct FabricBuilder {
    processes: usize,
    latency: Option<LatencyModel>,
    faults: Option<FaultPlan>,
}

impl FabricBuilder {
    /// Injects a delivery-latency model on every link, loopback included
    /// for whatever is [sent](NetSender::send) to it. A message accounted
    /// for with [`NetSender::send_loopback`] never enters a link, so it is
    /// not delayed.
    pub fn latency(mut self, model: LatencyModel) -> Self {
        self.latency = Some(model);
        self
    }

    /// Injects a fault plan: message drops, duplications, scheduled link
    /// partitions, and scheduled process crashes. See [`FaultPlan`].
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Builds the fabric, returning one endpoint per process, in index
    /// order. Endpoints are `Send`, so each can move to its process thread.
    pub fn build(self) -> Vec<Endpoint> {
        let n = self.processes;
        let metrics = Arc::new(FabricMetrics::new(n));
        let clock = Arc::new(ClusterClock::new());
        let plan = self.faults.unwrap_or_default();
        let fault_seed = plan.seed;
        let faults = Arc::new(FaultState::new(plan, n, metrics.clone()));
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel::<Timed>();
            senders.push(tx);
            receivers.push(rx);
        }
        receivers
            .into_iter()
            .enumerate()
            .map(|(index, receiver)| {
                let samplers = self.latency.as_ref().map(|model| {
                    (0..n)
                        .map(|dst| {
                            let salt = (index as u64) << 32 | dst as u64;
                            LatencySampler::new(model.clone(), salt)
                        })
                        .collect::<Vec<_>>()
                });
                let fault_rng = (0..n)
                    .map(|dst| {
                        let salt = (index as u64) << 32 | dst as u64;
                        Xorshift::with_salt(fault_seed, salt)
                    })
                    .collect();
                Endpoint {
                    sender: NetSender {
                        index,
                        senders: senders.clone(),
                        metrics: metrics.clone(),
                        clock: clock.clone(),
                        samplers,
                        last_delivery: vec![None; n],
                        faults: faults.clone(),
                        fault_rng,
                        next_seq: vec![0; n],
                        next_ctl_seq: vec![0; n],
                        link_attempts: vec![0; n],
                        total_attempts: 0,
                    },
                    receiver: NetReceiver {
                        receiver,
                        pending: BinaryHeap::new(),
                        arrivals: 0,
                        last_seen: HashMap::new(),
                        metrics: metrics.clone(),
                    },
                }
            })
            .collect()
    }
}

/// One process's attachment to the fabric.
///
/// Sending is addressed by endpoint index; receiving merges all incoming
/// links. Per-link FIFO order is guaranteed even under latency injection,
/// matching TCP's in-order delivery — the property the progress protocol
/// of §3.3 depends on. Fault injection preserves FIFO as well: a failed
/// send never enters the link, and duplicated deliveries are suppressed
/// at the receiver by per-link sequence numbers.
///
/// An endpoint can be [`split`](Endpoint::split) into a [`NetSender`] and a
/// [`NetReceiver`] so a process's workers can share the send half (behind a
/// lock) while a dedicated router thread owns the receive half.
pub struct Endpoint {
    sender: NetSender,
    receiver: NetReceiver,
}

/// The sending half of an [`Endpoint`].
pub struct NetSender {
    index: usize,
    senders: Vec<Sender<Timed>>,
    metrics: Arc<FabricMetrics>,
    /// Fabric-wide monotonic clock, shared by all endpoints.
    clock: Arc<ClusterClock>,
    samplers: Option<Vec<LatencySampler>>,
    /// Last scheduled delivery instant per destination, used to keep each
    /// link FIFO under randomized delays.
    last_delivery: Vec<Option<Instant>>,
    /// Shared fault-injection state.
    faults: Arc<FaultState>,
    /// Per-destination fault generators (independent, seeded streams).
    fault_rng: Vec<Xorshift>,
    /// Next per-link delivery sequence number, per destination.
    next_seq: Vec<u64>,
    /// Next control-channel sequence number, per destination. Control
    /// envelopes live in their own sequence space: they bypass latency
    /// injection, so threading them through the data sequence would make
    /// a prompt heartbeat look "newer" than a delayed data message and
    /// trip the receiver's duplicate suppression.
    next_ctl_seq: Vec<u64>,
    /// Send attempts per destination link (partition windows count these).
    link_attempts: Vec<u64>,
    /// Total send attempts by this endpoint (crash schedules count these).
    total_attempts: u64,
}

/// The receiving half of an [`Endpoint`].
pub struct NetReceiver {
    receiver: Receiver<Timed>,
    pending: BinaryHeap<Reverse<PendingEntry>>,
    /// Arrival counter used to break delivery-time ties FIFO.
    arrivals: u64,
    /// Highest envelope sequence number seen per source, for duplicate
    /// suppression.
    last_seen: HashMap<usize, u64>,
    metrics: Arc<FabricMetrics>,
}

struct PendingEntry {
    deliver_at: Instant,
    seq: u64,
    envelope: Envelope,
}

impl PartialEq for PendingEntry {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}
impl Eq for PendingEntry {}
impl PartialOrd for PendingEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.seq).cmp(&(other.deliver_at, other.seq))
    }
}

impl NetSender {
    /// This endpoint's index in the fabric.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The number of endpoints in the fabric.
    pub fn peers(&self) -> usize {
        self.senders.len()
    }

    /// Shared traffic meters.
    pub fn metrics(&self) -> &Arc<FabricMetrics> {
        &self.metrics
    }

    /// The fabric-wide monotonic clock shared by all endpoints.
    pub fn clock(&self) -> &Arc<ClusterClock> {
        &self.clock
    }

    /// A handle for injecting faults at runtime.
    pub fn fault_controller(&self) -> FaultController {
        FaultController {
            state: self.faults.clone(),
        }
    }

    /// Sends `payload` to endpoint `dst` on `channel`.
    ///
    /// Under an active [`FaultPlan`] the send can fail: the message may be
    /// dropped in flight, the link may be partitioned, or either process
    /// may have crashed — see [`SendError`] for which failures are worth
    /// retrying. Dropped messages are still metered (the bytes were put on
    /// the wire before being lost); partition and crash rejections are not.
    ///
    /// # Errors
    ///
    /// Returns a [`SendError`] describing the injected fault, or
    /// [`SendError::Disconnected`] if the destination endpoint is gone.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is out of range.
    pub fn send(
        &mut self,
        dst: usize,
        channel: u32,
        class: TrafficClass,
        payload: Bytes,
    ) -> Result<(), SendError> {
        let duplicate = self.admit(dst, class, payload.len())?;
        self.enqueue(dst, channel, class, payload, duplicate)
    }

    /// Accounts for a message of `len` bytes that this endpoint addresses
    /// to *itself* and that the caller delivers to its own consumers: the
    /// bytes never leave the process, so nothing is enqueued.
    ///
    /// Everything else [`NetSender::send`] does for `dst == self.index()`
    /// happens here: the attempt counts toward crash schedules and
    /// partition windows, crash and partition state reject it, the
    /// loopback link meters the bytes, a sequence number is consumed.
    ///
    /// # Errors
    ///
    /// As [`NetSender::send`] to this endpoint's own index.
    pub fn send_loopback(&mut self, class: TrafficClass, len: usize) -> Result<(), SendError> {
        let dst = self.index;
        // Loopback never crosses a network, so it is never duplicated.
        self.admit(dst, class, len)?;
        self.next_seq[dst] += 1;
        Ok(())
    }

    /// The accounting half of a send: counts the attempt, applies crash
    /// and partition state, meters the bytes and draws the probabilistic
    /// faults. `Ok(duplicate)` means the message reaches the link, and
    /// whether the fabric duplicates it there.
    fn admit(&mut self, dst: usize, class: TrafficClass, len: usize) -> Result<bool, SendError> {
        assert!(dst < self.senders.len(), "destination {dst} out of range");
        let src = self.index;

        // Scheduled crash: fires once this endpoint's attempt counter
        // reaches the crash point, failing this and every later send.
        let attempt = self.total_attempts;
        self.total_attempts += 1;
        if self
            .faults
            .plan
            .crashes
            .iter()
            .any(|c| c.process == src && attempt >= c.after_sends)
        {
            self.faults.mark_crashed(src);
        }
        if self.faults.is_crashed(src) {
            self.metrics.record_crash_reject();
            return Err(SendError::SelfCrashed { src });
        }
        if self.faults.is_crashed(dst) {
            self.metrics.record_crash_reject();
            return Err(SendError::PeerCrashed { dst });
        }

        // Partitions: scheduled windows count per-link attempts (so a
        // retrying sender eventually emerges), dynamic ones last until
        // healed.
        let link_attempt = self.link_attempts[dst];
        self.link_attempts[dst] += 1;
        let scheduled = self
            .faults
            .plan
            .partitions
            .iter()
            .any(|p| p.src == src && p.dst == dst && (p.from..p.until).contains(&link_attempt));
        if scheduled || self.faults.is_dynamically_partitioned(src, dst) {
            self.metrics.record_partition_reject();
            return Err(SendError::Partitioned { src, dst });
        }

        // The bytes now reach the wire: meter them, drops included.
        self.metrics.link(src, dst).record(class, len);

        // Probabilistic faults apply only to cross-process links; loopback
        // never crosses a physical network.
        let cross = src != dst;
        if cross
            && self.faults.plan.drop_probability > 0.0
            && self.fault_rng[dst].chance(self.faults.plan.drop_probability)
        {
            self.metrics.record_dropped();
            return Err(SendError::Dropped { src, dst });
        }
        Ok(cross
            && self.faults.plan.duplicate_probability > 0.0
            && self.fault_rng[dst].chance(self.faults.plan.duplicate_probability))
    }

    /// The transport half of a send: stamps the next sequence number and
    /// puts the envelope (and its fabric-injected duplicate) on the link.
    fn enqueue(
        &mut self,
        dst: usize,
        channel: u32,
        class: TrafficClass,
        payload: Bytes,
        duplicate: bool,
    ) -> Result<(), SendError> {
        let seq = self.next_seq[dst];
        self.next_seq[dst] += 1;
        let deliver_at = self.schedule(dst, payload.len());
        let envelope = Envelope {
            src: self.index,
            channel,
            class,
            seq,
            payload,
        };
        let timed = Timed {
            deliver_at,
            envelope: envelope.clone(),
        };
        if self.senders[dst].send(timed).is_err() {
            return Err(SendError::Disconnected { dst });
        }
        if duplicate {
            // The copy carries the same sequence number, so the receiver
            // suppresses it; it trails the original on the link.
            self.metrics.record_duplicated();
            let deliver_at = self.schedule(dst, 0);
            let _ = self.senders[dst].send(Timed {
                deliver_at,
                envelope,
            });
        }
        Ok(())
    }

    /// Sends the same payload to every endpoint (including this one), the
    /// primitive used by progress-update broadcasts.
    ///
    /// # Errors
    ///
    /// Every destination is attempted; the first failure (in destination
    /// order) is returned. Callers needing per-destination recovery should
    /// loop over [`NetSender::send`] instead.
    pub fn broadcast(
        &mut self,
        channel: u32,
        class: TrafficClass,
        payload: &Bytes,
    ) -> Result<(), SendError> {
        let mut first_err = None;
        for dst in 0..self.senders.len() {
            if let Err(e) = self.send(dst, channel, class, payload.clone()) {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Sends a liveness control message to endpoint `dst` on `channel`.
    ///
    /// The control channel models a tiny ping/heartbeat datagram riding a
    /// dedicated QoS class: it still respects the physical failure state —
    /// a crashed process can neither send nor be reached, and a
    /// partitioned link rejects it — but it is exempt from latency
    /// injection and from probabilistic drop/duplication, and it does
    /// **not** advance any fault-schedule counter. That last property is
    /// what makes fault schedules heartbeat-invariant: enabling
    /// heartbeats never shifts *when* a scheduled crash or partition
    /// window fires relative to data traffic, so a seeded run is
    /// bit-identical with detection on or off. Metered under
    /// [`TrafficClass::Control`].
    ///
    /// # Errors
    ///
    /// Returns [`SendError::SelfCrashed`] / [`SendError::PeerCrashed`] if
    /// either end is crashed, [`SendError::Partitioned`] if the link is
    /// severed (scheduled window or dynamic), or
    /// [`SendError::Disconnected`] if the destination endpoint is gone.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is out of range.
    pub fn send_control(
        &mut self,
        dst: usize,
        channel: u32,
        payload: Bytes,
    ) -> Result<(), SendError> {
        assert!(dst < self.senders.len(), "destination {dst} out of range");
        let src = self.index;

        // Respect the physical failure state, but never *advance* it:
        // no attempt counters move and no crash schedule can fire here.
        if self.faults.is_crashed(src) {
            self.metrics.record_crash_reject();
            return Err(SendError::SelfCrashed { src });
        }
        if self.faults.is_crashed(dst) {
            self.metrics.record_crash_reject();
            return Err(SendError::PeerCrashed { dst });
        }
        // Scheduled windows are evaluated against the link's *current*
        // data-attempt position without consuming an attempt.
        let link_attempt = self.link_attempts[dst];
        let scheduled = self
            .faults
            .plan
            .partitions
            .iter()
            .any(|p| p.src == src && p.dst == dst && (p.from..p.until).contains(&link_attempt));
        if scheduled || self.faults.is_dynamically_partitioned(src, dst) {
            self.metrics.record_partition_reject();
            return Err(SendError::Partitioned { src, dst });
        }

        self.metrics
            .link(src, dst)
            .record(TrafficClass::Control, payload.len());

        let seq = self.next_ctl_seq[dst];
        self.next_ctl_seq[dst] += 1;
        let timed = Timed {
            // Control skips latency injection: detection latency is
            // governed by the detector's timeouts, not the link model.
            deliver_at: None,
            envelope: Envelope {
                src,
                channel,
                class: TrafficClass::Control,
                seq,
                payload,
            },
        };
        if self.senders[dst].send(timed).is_err() {
            return Err(SendError::Disconnected { dst });
        }
        Ok(())
    }

    fn schedule(&mut self, dst: usize, payload_len: usize) -> Option<Instant> {
        let samplers = self.samplers.as_mut()?;
        let (delay, occupancy) = samplers[dst].sample(payload_len);
        // lint-allow(NS0003): netsim models latency in real time by
        // design — the sampled delay (seeded, deterministic) is imposed
        // on the wall clock; delivery *order* comes from the sampler.
        let mut at = Instant::now() + delay;
        if let Some(prev) = self.last_delivery[dst] {
            // FIFO per link: never deliver before an earlier message, and
            // queue behind its link occupancy.
            at = at.max(prev);
        }
        // The message itself occupies the link for `occupancy`.
        at += occupancy;
        self.last_delivery[dst] = Some(at);
        Some(at)
    }
}

impl NetReceiver {
    fn absorb(&mut self, timed: Timed) -> Option<Envelope> {
        // Per-link duplicate suppression: arrival order equals send order
        // per source (mpsc preserves per-sender FIFO), so a non-increasing
        // sequence number can only be a fabric-injected duplicate.
        //
        // Control envelopes are exempt: they live in their own sequence
        // space (the fabric never duplicates them) and must not perturb
        // the data-space high-water mark.
        let env = &timed.envelope;
        if env.class == TrafficClass::Control {
            debug_assert!(timed.deliver_at.is_none());
            return Some(timed.envelope);
        }
        if let Some(&last) = self.last_seen.get(&env.src) {
            if env.seq <= last {
                self.metrics.record_duplicate_suppressed();
                return None;
            }
        }
        self.last_seen.insert(env.src, env.seq);
        match timed.deliver_at {
            None => Some(timed.envelope),
            Some(deliver_at) => {
                let seq = self.arrivals;
                self.arrivals += 1;
                self.pending.push(Reverse(PendingEntry {
                    deliver_at,
                    seq,
                    envelope: timed.envelope,
                }));
                None
            }
        }
    }

    fn pop_ready(&mut self, now: Instant) -> Option<Envelope> {
        if let Some(Reverse(head)) = self.pending.peek() {
            if head.deliver_at <= now {
                return self.pending.pop().map(|Reverse(e)| e.envelope);
            }
        }
        None
    }

    /// Returns the next deliverable message, if any, without blocking.
    pub fn try_recv(&mut self) -> Option<Envelope> {
        // Drain the channel into the delay heap first so ready messages are
        // considered in delivery-time order.
        while let Ok(timed) = self.receiver.try_recv() {
            if let Some(env) = self.absorb(timed) {
                return Some(env);
            }
        }
        // lint-allow(NS0003): real-time delivery check; see `schedule`.
        self.pop_ready(Instant::now())
    }

    /// Blocks until a message is deliverable, all peers disconnect, or
    /// `timeout` (if given) elapses.
    pub fn recv_deadline(&mut self, timeout: Option<Duration>) -> Result<Envelope, RecvError> {
        // lint-allow(NS0003): real-time receive deadline; see `schedule`.
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            if let Some(env) = self.try_recv() {
                return Ok(env);
            }
            // lint-allow(NS0003): real-time wakeup computation; see
            // `schedule`.
            let now = Instant::now();
            // Wake at the earliest of: next delayed delivery, caller deadline,
            // or a coarse tick to re-check for disconnection.
            let mut wait = Duration::from_millis(50);
            if let Some(Reverse(head)) = self.pending.peek() {
                wait = wait.min(head.deliver_at.saturating_duration_since(now));
            }
            if let Some(deadline) = deadline {
                if now >= deadline {
                    return Err(RecvError::Timeout);
                }
                wait = wait.min(deadline - now);
            }
            match self.receiver.recv_timeout(wait) {
                Ok(timed) => {
                    if let Some(env) = self.absorb(timed) {
                        return Ok(env);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    // Channel closed: only delayed messages can remain.
                    if self.pending.is_empty() {
                        return Err(RecvError::Disconnected);
                    }
                }
            }
        }
    }

    /// Blocks until a message is deliverable or all peers disconnect.
    pub fn recv_blocking(&mut self) -> Result<Envelope, RecvError> {
        self.recv_deadline(None)
    }
}

impl Endpoint {
    /// Splits the endpoint into its send and receive halves.
    pub fn split(self) -> (NetSender, NetReceiver) {
        (self.sender, self.receiver)
    }

    /// This endpoint's index in the fabric.
    pub fn index(&self) -> usize {
        self.sender.index()
    }

    /// The number of endpoints in the fabric.
    pub fn peers(&self) -> usize {
        self.sender.peers()
    }

    /// Shared traffic meters.
    pub fn metrics(&self) -> &Arc<FabricMetrics> {
        self.sender.metrics()
    }

    /// The fabric-wide monotonic clock shared by all endpoints.
    pub fn clock(&self) -> &Arc<ClusterClock> {
        self.sender.clock()
    }

    /// A handle for injecting faults at runtime.
    pub fn fault_controller(&self) -> FaultController {
        self.sender.fault_controller()
    }

    /// Sends `payload` to endpoint `dst` on `channel`; see [`NetSender::send`].
    ///
    /// # Errors
    ///
    /// See [`NetSender::send`].
    pub fn send(
        &mut self,
        dst: usize,
        channel: u32,
        class: TrafficClass,
        payload: Bytes,
    ) -> Result<(), SendError> {
        self.sender.send(dst, channel, class, payload)
    }

    /// Sends a liveness control message; see [`NetSender::send_control`].
    ///
    /// # Errors
    ///
    /// See [`NetSender::send_control`].
    pub fn send_control(
        &mut self,
        dst: usize,
        channel: u32,
        payload: Bytes,
    ) -> Result<(), SendError> {
        self.sender.send_control(dst, channel, payload)
    }

    /// Broadcasts to every endpoint; see [`NetSender::broadcast`].
    ///
    /// # Errors
    ///
    /// See [`NetSender::broadcast`].
    pub fn broadcast(
        &mut self,
        channel: u32,
        class: TrafficClass,
        payload: &Bytes,
    ) -> Result<(), SendError> {
        self.sender.broadcast(channel, class, payload)
    }

    /// Returns the next deliverable message, if any, without blocking.
    pub fn try_recv(&mut self) -> Option<Envelope> {
        self.receiver.try_recv()
    }

    /// Blocks until a message is deliverable; see [`NetReceiver::recv_deadline`].
    ///
    /// # Errors
    ///
    /// See [`NetReceiver::recv_deadline`].
    pub fn recv_deadline(&mut self, timeout: Option<Duration>) -> Result<Envelope, RecvError> {
        self.receiver.recv_deadline(timeout)
    }

    /// Blocks until a message is deliverable or all peers disconnect.
    ///
    /// # Errors
    ///
    /// See [`NetReceiver::recv_deadline`].
    pub fn recv_blocking(&mut self) -> Result<Envelope, RecvError> {
        self.receiver.recv_blocking()
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_fifo_order_per_link() {
        let mut eps = Fabric::builder(2).build();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        for i in 0..100u8 {
            a.send(1, 0, TrafficClass::Data, vec![i].into()).unwrap();
        }
        for i in 0..100u8 {
            let env = b.recv_blocking().unwrap();
            assert_eq!(env.payload[0], i);
        }
        assert!(b.try_recv().is_none());
    }

    #[test]
    fn loopback_works() {
        let mut eps = Fabric::builder(1).build();
        let mut a = eps.pop().unwrap();
        a.send(0, 3, TrafficClass::Progress, vec![9].into()).unwrap();
        let env = a.try_recv().unwrap();
        assert_eq!((env.src, env.channel), (0, 3));
    }

    #[test]
    fn loopback_is_accounted_like_a_send_to_self_but_not_enqueued() {
        // Crash point at attempt 3: two loopbacks and one real send pass,
        // the fourth attempt fails whichever entry point makes it.
        let plan = FaultPlan::seeded(1).crash(0, 3);
        let mut eps = Fabric::builder(2).faults(plan).build();
        let (mut a, mut a_rx) = eps.swap_remove(0).split();
        let payload = Bytes::from_static(&[1, 2, 3, 4]);
        assert_eq!(a.send_loopback(TrafficClass::Progress, payload.len()), Ok(()));
        assert_eq!(a.send_loopback(TrafficClass::Progress, payload.len()), Ok(()));
        a.send(1, 9, TrafficClass::Progress, payload.clone())
            .unwrap();
        assert_eq!(
            a.send_loopback(TrafficClass::Progress, payload.len()),
            Err(SendError::SelfCrashed { src: 0 })
        );
        // Metered once per accepted loopback, on the loopback link only.
        let own = a.metrics().link_counters(0, 0).progress;
        assert_eq!((own.messages, own.bytes), (2, 8));
        assert_eq!(a.metrics().network_bytes(TrafficClass::Progress), 4);
        // Nothing was enqueued for the receiver.
        assert!(a_rx.try_recv().is_none());
    }

    #[test]
    fn loopback_respects_partition_state() {
        let mut eps = Fabric::builder(1).build();
        let ctl = eps[0].fault_controller();
        let (mut a, _rx) = eps.swap_remove(0).split();
        let payload = Bytes::from_static(&[7]);
        ctl.sever(0, 0);
        assert_eq!(
            a.send_loopback(TrafficClass::Progress, payload.len()),
            Err(SendError::Partitioned { src: 0, dst: 0 })
        );
        ctl.heal(0, 0);
        assert_eq!(a.send_loopback(TrafficClass::Progress, payload.len()), Ok(()));
        assert_eq!(a.metrics().link_counters(0, 0).progress.messages, 1);
    }

    #[test]
    fn broadcast_reaches_everyone_and_meters_each_link() {
        let mut eps = Fabric::builder(3).build();
        let payload = Bytes::from_static(&[1, 2, 3, 4]);
        eps[0].broadcast(1, TrafficClass::Progress, &payload).unwrap();
        let metrics = eps[0].metrics().clone();
        for ep in eps.iter_mut() {
            let env = ep.recv_blocking().unwrap();
            assert_eq!(env.src, 0);
            assert_eq!(env.payload.len(), 4);
        }
        assert_eq!(metrics.total(TrafficClass::Progress, true).bytes, 12);
        // Loopback excluded: 2 links × 4 bytes.
        assert_eq!(metrics.network_bytes(TrafficClass::Progress), 8);
    }

    #[test]
    fn latency_delays_delivery_but_preserves_link_fifo() {
        let model =
            LatencyModel::lossy(Duration::from_millis(1), 0.5, Duration::from_millis(3), 11);
        let mut eps = Fabric::builder(2).latency(model).build();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let start = Instant::now();
        for i in 0..50u8 {
            a.send(1, 0, TrafficClass::Data, vec![i].into()).unwrap();
        }
        // Nothing should be deliverable immediately.
        assert!(b.try_recv().is_none());
        for i in 0..50u8 {
            let env = b.recv_blocking().unwrap();
            assert_eq!(env.payload[0], i, "FIFO violated under latency");
        }
        assert!(start.elapsed() >= Duration::from_millis(1));
    }

    #[test]
    fn recv_reports_disconnect_after_draining() {
        let mut eps = Fabric::builder(2).build();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.send(1, 0, TrafficClass::Data, vec![1].into()).unwrap();
        drop(a);
        drop(eps);
        assert!(b.recv_blocking().is_ok());
        // `b` still holds a sender to itself, so use a deadline to observe
        // quiescence rather than a hang.
        assert!(matches!(
            b.recv_deadline(Some(Duration::from_millis(10))),
            Err(RecvError::Timeout)
        ));
    }

    #[test]
    fn cross_thread_exchange() {
        let mut eps = Fabric::builder(2).build();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let handle = std::thread::spawn(move || {
            for i in 0..1000u32 {
                a.send(1, 0, TrafficClass::Data, i.to_le_bytes().to_vec().into())
                    .unwrap();
            }
        });
        let mut sum = 0u64;
        for _ in 0..1000 {
            let env = b.recv_blocking().unwrap();
            sum += u64::from(u32::from_le_bytes(env.payload[..].try_into().unwrap()));
        }
        handle.join().unwrap();
        assert_eq!(sum, (0..1000u64).sum::<u64>());
    }
}

#[cfg(test)]
mod split_tests {
    use super::*;

    #[test]
    fn split_halves_cooperate_across_threads() {
        let mut eps = Fabric::builder(2).build();
        let (_b_tx, mut b_rx) = eps.pop().unwrap().split();
        let (mut a_tx, _a_rx) = eps.pop().unwrap().split();
        let handle = std::thread::spawn(move || {
            for i in 0..10u8 {
                a_tx.send(1, 0, TrafficClass::Data, vec![i].into()).unwrap();
            }
            a_tx
        });
        for i in 0..10u8 {
            let env = b_rx.recv_blocking().unwrap();
            assert_eq!(env.payload[0], i);
        }
        let a_tx = handle.join().unwrap();
        assert_eq!(a_tx.metrics().link_counters(0, 1).data.messages, 10);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;

    #[test]
    fn drops_are_sender_visible_and_metered() {
        let plan = FaultPlan::seeded(7).drop_probability(0.3);
        let mut eps = Fabric::builder(2).faults(plan).build();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let mut delivered = 0u64;
        let mut dropped = 0u64;
        for i in 0..200u8 {
            match a.send(1, 0, TrafficClass::Data, vec![i].into()) {
                Ok(()) => delivered += 1,
                Err(SendError::Dropped { src: 0, dst: 1 }) => dropped += 1,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(dropped > 20 && dropped < 100, "dropped = {dropped}");
        let faults = a.metrics().faults();
        assert_eq!(faults.dropped, dropped);
        // Exactly the successful sends arrive, in order.
        for _ in 0..delivered {
            assert!(b.recv_blocking().is_ok());
        }
        assert!(b.try_recv().is_none());
        // Dropped bytes were still metered (put on the wire, then lost).
        assert_eq!(
            a.metrics().link_counters(0, 1).data.messages,
            delivered + dropped
        );
    }

    #[test]
    fn drops_are_deterministic_per_seed() {
        let outcome = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::seeded(seed).drop_probability(0.5);
            let mut eps = Fabric::builder(2).faults(plan).build();
            let mut a = eps.swap_remove(0);
            (0..64u8)
                .map(|i| a.send(1, 0, TrafficClass::Data, vec![i].into()).is_ok())
                .collect()
        };
        assert_eq!(outcome(3), outcome(3));
        assert_ne!(outcome(3), outcome(4));
    }

    #[test]
    fn duplicates_are_suppressed_at_the_receiver() {
        let plan = FaultPlan::seeded(5).duplicate_probability(0.4);
        let mut eps = Fabric::builder(2).faults(plan).build();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        for i in 0..100u8 {
            a.send(1, 0, TrafficClass::Data, vec![i].into()).unwrap();
        }
        // All 100 arrive exactly once, in order, despite duplicates.
        for i in 0..100u8 {
            let env = b.recv_blocking().unwrap();
            assert_eq!(env.payload[0], i);
        }
        assert!(b.try_recv().is_none());
        let faults = b.metrics().faults();
        assert!(faults.duplicated > 10, "duplicated = {}", faults.duplicated);
        assert_eq!(faults.duplicated, faults.duplicates_suppressed);
    }

    #[test]
    fn scheduled_partition_rejects_inside_the_window_only() {
        let plan = FaultPlan::seeded(1).partition(0, 1, 2, 5);
        let mut eps = Fabric::builder(2).faults(plan).build();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let mut outcomes = Vec::new();
        for i in 0..8u8 {
            outcomes.push(a.send(1, 0, TrafficClass::Data, vec![i].into()).is_ok());
        }
        assert_eq!(
            outcomes,
            vec![true, true, false, false, false, true, true, true]
        );
        assert_eq!(a.metrics().faults().partition_rejects, 3);
        // Loopback and the reverse direction are unaffected.
        a.send(0, 0, TrafficClass::Data, vec![9].into()).unwrap();
        b.send(0, 0, TrafficClass::Data, vec![9].into()).unwrap();
    }

    #[test]
    fn dynamic_partition_and_heal() {
        let mut eps = Fabric::builder(2).build();
        let ctl = eps[0].fault_controller();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.send(1, 0, TrafficClass::Data, vec![0].into()).unwrap();
        ctl.sever(0, 1);
        assert_eq!(
            a.send(1, 0, TrafficClass::Data, vec![1].into()),
            Err(SendError::Partitioned { src: 0, dst: 1 })
        );
        ctl.heal(0, 1);
        a.send(1, 0, TrafficClass::Data, vec![2].into()).unwrap();
        assert_eq!(b.recv_blocking().unwrap().payload[0], 0);
        assert_eq!(b.recv_blocking().unwrap().payload[0], 2);
    }

    #[test]
    fn scheduled_crash_fails_sends_in_both_directions() {
        let plan = FaultPlan::seeded(1).crash(0, 3);
        let mut eps = Fabric::builder(2).faults(plan).build();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        for i in 0..3u8 {
            a.send(1, 0, TrafficClass::Data, vec![i].into()).unwrap();
        }
        // The 4th attempt trips the crash point.
        assert_eq!(
            a.send(1, 0, TrafficClass::Data, vec![3].into()),
            Err(SendError::SelfCrashed { src: 0 })
        );
        // Peers can no longer reach the crashed process either.
        assert_eq!(
            b.send(0, 0, TrafficClass::Data, vec![7].into()),
            Err(SendError::PeerCrashed { dst: 0 })
        );
        let faults = a.metrics().faults();
        assert_eq!(faults.crashes, 1);
        assert_eq!(faults.crash_rejects, 2);
        // The three pre-crash messages were delivered.
        for i in 0..3u8 {
            assert_eq!(b.recv_blocking().unwrap().payload[0], i);
        }
    }

    #[test]
    fn controller_crash_and_revive() {
        let mut eps = Fabric::builder(2).build();
        let ctl = eps[1].fault_controller();
        let mut a = eps.swap_remove(0);
        ctl.crash(1);
        assert_eq!(
            a.send(1, 0, TrafficClass::Data, vec![1].into()),
            Err(SendError::PeerCrashed { dst: 1 })
        );
        ctl.revive(1);
        a.send(1, 0, TrafficClass::Data, vec![2].into()).unwrap();
        assert_eq!(ctl.crashes(), 1, "revive does not erase the count");
    }

    #[test]
    fn control_bypasses_latency_and_probabilistic_faults() {
        let plan = FaultPlan::seeded(13)
            .drop_probability(0.9)
            .duplicate_probability(0.9);
        let model = LatencyModel::lossy(
            Duration::from_millis(50),
            0.0,
            Duration::from_millis(50),
            3,
        );
        let mut eps = Fabric::builder(2).faults(plan).latency(model).build();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        for _ in 0..20 {
            a.send_control(1, 7, vec![1, 2, 3, 4].into()).unwrap();
        }
        // All 20 deliver immediately despite 90% drop/dup and 50ms latency.
        for _ in 0..20 {
            let env = b.try_recv().expect("control message delayed or lost");
            assert_eq!(env.class, TrafficClass::Control);
            assert_eq!(env.channel, 7);
        }
        let faults = a.metrics().faults();
        assert_eq!(faults.dropped, 0);
        assert_eq!(faults.duplicated, 0);
        assert_eq!(a.metrics().link_counters(0, 1).control.messages, 20);
        assert_eq!(a.metrics().link_counters(0, 1).data.messages, 0);
    }

    #[test]
    fn control_does_not_perturb_data_fault_determinism() {
        // The same seeded drop sequence must hit the same data sends
        // whether or not heartbeats are interleaved.
        let outcome = |heartbeats: bool| -> Vec<bool> {
            let plan = FaultPlan::seeded(21).drop_probability(0.5).crash(0, 40);
            let mut eps = Fabric::builder(2).faults(plan).build();
            let mut a = eps.swap_remove(0);
            (0..48u8)
                .map(|i| {
                    if heartbeats {
                        let _ = a.send_control(1, 7, vec![0].into());
                    }
                    a.send(1, 0, TrafficClass::Data, vec![i].into()).is_ok()
                })
                .collect()
        };
        assert_eq!(outcome(false), outcome(true));
    }

    #[test]
    fn control_respects_crash_and_partition_state() {
        let mut eps = Fabric::builder(2).build();
        let ctl = eps[0].fault_controller();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();

        ctl.sever(0, 1);
        assert_eq!(
            a.send_control(1, 7, vec![0].into()),
            Err(SendError::Partitioned { src: 0, dst: 1 })
        );
        ctl.heal(0, 1);
        a.send_control(1, 7, vec![0].into()).unwrap();

        ctl.crash(1);
        assert_eq!(
            a.send_control(1, 7, vec![0].into()),
            Err(SendError::PeerCrashed { dst: 1 })
        );
        ctl.crash(0);
        assert_eq!(
            a.send_control(1, 7, vec![0].into()),
            Err(SendError::SelfCrashed { src: 0 })
        );
        ctl.revive(0);
        ctl.revive(1);
        // Exactly the two successful heartbeats arrived.
        assert!(b.try_recv().is_some());
        assert!(b.try_recv().is_none());
    }

    #[test]
    fn control_inside_scheduled_partition_window_is_rejected() {
        // Window covers link attempts 0..5; no data has flowed, so the
        // link sits at attempt 0 and control sends must be rejected —
        // this is how a partition is *detectable before any data moves*.
        let plan = FaultPlan::seeded(1).partition(0, 1, 0, 5);
        let mut eps = Fabric::builder(2).faults(plan).build();
        let mut a = eps.swap_remove(0);
        for _ in 0..3 {
            assert_eq!(
                a.send_control(1, 7, vec![0].into()),
                Err(SendError::Partitioned { src: 0, dst: 1 })
            );
        }
        // Control attempts never consume window positions: data still
        // sees the full 5-attempt window.
        let mut outcomes = Vec::new();
        for i in 0..6u8 {
            outcomes.push(a.send(1, 0, TrafficClass::Data, vec![i].into()).is_ok());
        }
        assert_eq!(outcomes, vec![false, false, false, false, false, true]);
    }

    #[test]
    fn control_is_not_suppressed_ahead_of_delayed_data() {
        // A heartbeat racing past delayed data must not make the data
        // message look like a stale duplicate.
        let model = LatencyModel::constant(Duration::from_millis(20));
        let mut eps = Fabric::builder(2).latency(model).build();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.send(1, 0, TrafficClass::Data, vec![42].into()).unwrap();
        a.send_control(1, 7, vec![0].into()).unwrap();
        // Heartbeat arrives first (latency-exempt).
        let first = b.recv_blocking().unwrap();
        assert_eq!(first.class, TrafficClass::Control);
        // The delayed data message must still be delivered.
        let second = b.recv_blocking().unwrap();
        assert_eq!(second.class, TrafficClass::Data);
        assert_eq!(second.payload[0], 42);
    }

    #[test]
    fn shared_clock_is_fabric_wide() {
        let eps = Fabric::builder(2).build();
        assert!(Arc::ptr_eq(eps[0].clock(), eps[1].clock()));
        let t0 = eps[0].clock().now_ns();
        let t1 = eps[1].clock().now_ns();
        assert!(t1 >= t0);
    }

    #[test]
    fn faults_preserve_fifo_under_latency() {
        let plan = FaultPlan::seeded(23)
            .drop_probability(0.2)
            .duplicate_probability(0.2);
        let model = LatencyModel::lossy(
            Duration::from_micros(100),
            0.3,
            Duration::from_millis(1),
            9,
        );
        let mut eps = Fabric::builder(2).faults(plan).latency(model).build();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let mut sent = Vec::new();
        for i in 0..120u8 {
            if a.send(1, 0, TrafficClass::Data, vec![i].into()).is_ok() {
                sent.push(i);
            }
        }
        for &i in &sent {
            let env = b.recv_blocking().unwrap();
            assert_eq!(env.payload[0], i, "FIFO violated under faults + latency");
        }
        assert!(b.try_recv().is_none());
    }
}
