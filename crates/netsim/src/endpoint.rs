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
    /// Whether suppressing this copy counts toward
    /// [`FaultCounters::duplicates_suppressed`](crate::FaultCounters): a
    /// duplicate drawn for a [fan-out](NetSender::fan_out) reaches every
    /// mailbox but is one fault, so only one of its copies counts.
    counted: bool,
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
            mailboxes: 0,
            latency: None,
            faults: None,
        }
    }
}

/// Configures and constructs a fabric.
#[derive(Debug)]
pub struct FabricBuilder {
    processes: usize,
    mailboxes: usize,
    latency: Option<LatencyModel>,
    faults: Option<FaultPlan>,
}

impl FabricBuilder {
    /// Gives every endpoint `per_endpoint` mailboxes beside its merged
    /// queue, one per reader of that process (the runtime: one per
    /// worker). [`NetSender::send_data`] addresses one of them,
    /// [`NetSender::fan_out`] all of them; the endpoint's owner takes them
    /// with [`Endpoint::split_mailboxes`]. The default is none: everything
    /// sent to the endpoint arrives on the merged queue.
    pub fn mailboxes(mut self, per_endpoint: usize) -> Self {
        self.mailboxes = per_endpoint;
        self
    }

    /// Injects a delivery-latency model on every link, loopback included
    /// for whatever is [sent](NetSender::send) to it. A
    /// [fan-out](NetSender::fan_out) to the sender's own endpoint never
    /// leaves the process, so it is not delayed.
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
        // Per endpoint: its merged queue, then its mailboxes.
        let mut lanes = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (txs, rxs): (Vec<_>, Vec<_>) = (0..=self.mailboxes)
                .map(|_| {
                    let (tx, receiver) = channel::<Timed>();
                    let rx = NetReceiver {
                        receiver,
                        pending: BinaryHeap::new(),
                        arrivals: 0,
                        last_seen: HashMap::new(),
                        metrics: metrics.clone(),
                    };
                    (Lane { tx, next_seq: 0 }, rx)
                })
                .unzip();
            lanes.push(txs);
            receivers.push(rxs);
        }
        receivers
            .into_iter()
            .enumerate()
            .map(|(index, mut queues)| {
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
                        lanes: lanes.clone(),
                        metrics: metrics.clone(),
                        clock: clock.clone(),
                        samplers,
                        last_delivery: vec![None; n],
                        faults: faults.clone(),
                        fault_rng,
                        next_ctl_seq: vec![0; n],
                        link_attempts: vec![0; n],
                        total_attempts: 0,
                    },
                    receiver: queues.remove(0),
                    mailboxes: queues,
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
/// lock) while another thread owns the receive half.
///
/// A fabric built with [`FabricBuilder::mailboxes`] gives the endpoint that
/// many more receive queues, each a [`NetReceiver`] of its own with the
/// same guarantees per `(source, mailbox)`:
/// [`split_mailboxes`](Endpoint::split_mailboxes) hands them out, one per
/// reader, [`NetSender::send_data`] puts a frame straight into the mailbox
/// of the reader that will consume it, and [`NetSender::fan_out`] into
/// every mailbox — no thread in between.
pub struct Endpoint {
    sender: NetSender,
    receiver: NetReceiver,
    mailboxes: Vec<NetReceiver>,
}

/// One receive queue of one destination, as a sender sees it: the channel
/// into it and the next number of its sequence space. Every queue numbers
/// its frames separately, so a frame delayed in one queue is never mistaken
/// for a duplicate because a later frame overtook it through another.
#[derive(Clone)]
struct Lane {
    tx: Sender<Timed>,
    next_seq: u64,
}

/// The sending half of an [`Endpoint`].
pub struct NetSender {
    index: usize,
    /// Per destination: its merged queue (lane 0), then its mailboxes.
    lanes: Vec<Vec<Lane>>,
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
        self.lanes.len()
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
        if self.enqueue(dst, 0, channel, class, payload, duplicate) {
            Ok(())
        } else {
            Err(SendError::Disconnected { dst })
        }
    }

    /// Sends a [`TrafficClass::Data`] frame to mailbox `mailbox` of
    /// endpoint `dst` ([`FabricBuilder::mailboxes`]): the reader of that
    /// mailbox receives it directly, the merged queue never sees it.
    ///
    /// The link is the one [`NetSender::send`] uses, so admission is the
    /// same to the letter — the attempt counts toward crash schedules and
    /// partition windows, crash and partition state reject it, the link
    /// meters the bytes, the drop and duplicate draws come from the link's
    /// seeded stream, a latency model delays it behind everything sent to
    /// `dst` before it. Only the receive queue differs, and with it the
    /// sequence space: FIFO and duplicate suppression hold per
    /// `(source, mailbox)`.
    ///
    /// A mailbox outlives its reader: once the reader is gone a frame is
    /// still accepted and is dropped with the fabric, as it would have been
    /// had it stayed queued. There is no [`SendError::Disconnected`] here.
    ///
    /// # Errors
    ///
    /// The injected faults of [`NetSender::send`].
    ///
    /// # Panics
    ///
    /// Panics if `dst` or `mailbox` is out of range.
    pub fn send_data(
        &mut self,
        dst: usize,
        mailbox: usize,
        channel: u32,
        payload: Bytes,
    ) -> Result<(), SendError> {
        assert!(
            self.lanes
                .get(dst)
                .is_some_and(|lanes| 1 + mailbox < lanes.len()),
            "endpoint {dst} has no mailbox {mailbox}"
        );
        let duplicate = self.admit(dst, TrafficClass::Data, payload.len())?;
        self.enqueue(
            dst,
            1 + mailbox,
            channel,
            TrafficClass::Data,
            payload,
            duplicate,
        );
        Ok(())
    }

    /// Sends one frame to *every* mailbox of endpoint `dst`
    /// ([`FabricBuilder::mailboxes`]), each of whose readers receives it
    /// directly: the primitive a broadcast to all of a process's readers
    /// needs, without a thread to copy it out of the merged queue.
    ///
    /// The frame crosses the link once: one attempt toward crash schedules
    /// and partition windows, one meter reading, one drop and one duplicate
    /// draw, one latency sample — so the fabric's counters read exactly as
    /// after one [`NetSender::send`]. A drawn duplicate trails the frame in
    /// every mailbox and is suppressed in each, counted once. A fan-out to
    /// this endpoint itself is never delayed: the bytes never leave the
    /// process. Sequence numbers are per `(source, mailbox)`, shared with
    /// [`NetSender::send_data`], so each mailbox holds a source's frames of
    /// both kinds in the order they were sent.
    ///
    /// As with [`NetSender::send_data`], a mailbox outlives its reader.
    ///
    /// # Errors
    ///
    /// The injected faults of [`NetSender::send`].
    ///
    /// # Panics
    ///
    /// Panics if `dst` is out of range or has no mailboxes.
    pub fn fan_out(
        &mut self,
        dst: usize,
        channel: u32,
        class: TrafficClass,
        payload: Bytes,
    ) -> Result<(), SendError> {
        let lanes = self.lanes.get(dst).map_or(0, Vec::len);
        assert!(lanes > 1, "endpoint {dst} has no mailboxes");
        let duplicate = self.admit(dst, class, payload.len())?;
        // Loopback is never duplicated (`admit`), and never delayed here.
        let (deliver_at, copy_at) = if dst == self.index {
            (None, None)
        } else {
            let deliver_at = self.schedule(dst, payload.len());
            (deliver_at, duplicate.then(|| self.schedule(dst, 0)))
        };
        if copy_at.is_some() {
            self.metrics.record_duplicated();
        }
        let envelope = Envelope {
            src: self.index,
            channel,
            class,
            seq: 0,
            payload,
        };
        for lane in 1..lanes {
            let copy = copy_at.map(|at| (at, lane == 1));
            self.put(dst, lane, envelope.clone(), deliver_at, copy);
        }
        Ok(())
    }

    /// The accounting half of a send: counts the attempt, applies crash
    /// and partition state, meters the bytes and draws the probabilistic
    /// faults. `Ok(duplicate)` means the message reaches the link, and
    /// whether the fabric duplicates it there.
    fn admit(&mut self, dst: usize, class: TrafficClass, len: usize) -> Result<bool, SendError> {
        assert!(dst < self.lanes.len(), "destination {dst} out of range");
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

    /// The transport half of a send: schedules the frame (and its
    /// fabric-injected duplicate) on the link to `dst` and puts both into
    /// receive queue `lane` there. `false` if the queue's reader is gone.
    fn enqueue(
        &mut self,
        dst: usize,
        lane: usize,
        channel: u32,
        class: TrafficClass,
        payload: Bytes,
        duplicate: bool,
    ) -> bool {
        let deliver_at = self.schedule(dst, payload.len());
        // The copy trails the original on the link.
        let copy_at = duplicate.then(|| self.schedule(dst, 0));
        let envelope = Envelope {
            src: self.index,
            channel,
            class,
            seq: 0,
            payload,
        };
        let delivered = self.put(
            dst,
            lane,
            envelope,
            deliver_at,
            copy_at.map(|at| (at, true)),
        );
        if delivered && copy_at.is_some() {
            self.metrics.record_duplicated();
        }
        delivered
    }

    /// Stamps `envelope` with the next sequence number of receive queue
    /// `lane` at `dst` and puts it there, followed by a duplicate copy
    /// `(deliver_at, counted)` if the fabric drew one. `false` if the
    /// queue's reader is gone.
    fn put(
        &mut self,
        dst: usize,
        lane: usize,
        mut envelope: Envelope,
        deliver_at: Option<Instant>,
        copy: Option<(Option<Instant>, bool)>,
    ) -> bool {
        let lane = &mut self.lanes[dst][lane];
        envelope.seq = lane.next_seq;
        lane.next_seq += 1;
        // The copy carries the same sequence number, so the receiver
        // suppresses it.
        let copy = copy.map(|(deliver_at, counted)| Timed {
            deliver_at,
            envelope: envelope.clone(),
            counted,
        });
        let timed = Timed {
            deliver_at,
            envelope,
            counted: true,
        };
        if lane.tx.send(timed).is_err() {
            return false;
        }
        if let Some(copy) = copy {
            let _ = lane.tx.send(copy);
        }
        true
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
        self.admit_control(dst, payload.len())?;
        let seq = self.next_ctl_seq[dst];
        self.next_ctl_seq[dst] += 1;
        let timed = Timed {
            // Control skips latency injection: detection latency is
            // governed by the detector's timeouts, not the link model.
            deliver_at: None,
            envelope: Envelope {
                src: self.index,
                channel,
                class: TrafficClass::Control,
                seq,
                payload,
            },
            counted: true,
        };
        if self.lanes[dst][0].tx.send(timed).is_err() {
            return Err(SendError::Disconnected { dst });
        }
        Ok(())
    }

    /// The admission half of [`NetSender::send_control`] for a control
    /// frame of `len` bytes whose effect the sender applies itself: crash
    /// and partition state are checked and the link meters the bytes, but
    /// nothing is enqueued. Control traffic is exempt from latency and
    /// loss, so a frame this admits is as good as delivered — the caller
    /// needs no reader at `dst` to act on it.
    ///
    /// # Errors
    ///
    /// [`SendError::SelfCrashed`] / [`SendError::PeerCrashed`] if either end
    /// is crashed, [`SendError::Partitioned`] if the link is severed.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is out of range.
    pub fn admit_control(&mut self, dst: usize, len: usize) -> Result<(), SendError> {
        assert!(dst < self.lanes.len(), "destination {dst} out of range");
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
            .record(TrafficClass::Control, len);
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
                if timed.counted {
                    self.metrics.record_duplicate_suppressed();
                }
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
        // An empty poll reads no clock: a worker polls its mailbox on
        // every scheduling round, mostly to find nothing.
        if self.pending.is_empty() {
            return None;
        }
        // lint-allow(NS0003): real-time delivery check; see `schedule`.
        self.pop_ready(Instant::now())
    }

    /// Frames received but still held back by the latency model, as of the
    /// last poll.
    pub fn delayed(&self) -> usize {
        self.pending.len()
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

    /// [`split`](Endpoint::split), plus the endpoint's data mailboxes in
    /// index order ([`FabricBuilder::mailboxes`]).
    pub fn split_mailboxes(self) -> (NetSender, NetReceiver, Vec<NetReceiver>) {
        (self.sender, self.receiver, self.mailboxes)
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
        a.send(0, 3, TrafficClass::Progress, vec![9].into())
            .unwrap();
        let env = a.try_recv().unwrap();
        assert_eq!((env.src, env.channel), (0, 3));
    }

    #[test]
    fn sends_meter_each_link_and_loopback_stays_off_the_network() {
        let mut eps = Fabric::builder(3).build();
        let payload = Bytes::from_static(&[1, 2, 3, 4]);
        for dst in 0..3 {
            eps[0]
                .send(dst, 1, TrafficClass::Progress, payload.clone())
                .unwrap();
        }
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
        let model =
            LatencyModel::lossy(Duration::from_millis(50), 0.0, Duration::from_millis(50), 3);
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

    /// A control frame settled on admission meets the same crash and
    /// partition state as one sent, is metered alike, and enqueues nothing.
    #[test]
    fn admitted_control_is_metered_but_never_enqueued() {
        let mut eps = Fabric::builder(2).build();
        let ctl = eps[0].fault_controller();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        assert_eq!(a.sender.admit_control(1, 10), Ok(()));
        ctl.sever(0, 1);
        assert_eq!(
            a.sender.admit_control(1, 10),
            Err(SendError::Partitioned { src: 0, dst: 1 })
        );
        ctl.heal(0, 1);
        ctl.crash(1);
        assert_eq!(
            a.sender.admit_control(1, 10),
            Err(SendError::PeerCrashed { dst: 1 })
        );
        let control = a.metrics().link_counters(0, 1).control;
        assert_eq!((control.messages, control.bytes), (1, 10));
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
        let model =
            LatencyModel::lossy(Duration::from_micros(100), 0.3, Duration::from_millis(1), 9);
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

#[cfg(test)]
mod mailbox_tests {
    use super::*;

    /// Endpoint 0's send half and endpoint 1's receive queues, on a
    /// two-endpoint fabric with two mailboxes per endpoint.
    fn pair(builder: FabricBuilder) -> (NetSender, NetReceiver, Vec<NetReceiver>) {
        let mut eps = builder.mailboxes(2).build();
        let (_b_tx, merged, mailboxes) = eps.pop().unwrap().split_mailboxes();
        let (a, _, _) = eps.pop().unwrap().split_mailboxes();
        (a, merged, mailboxes)
    }

    fn drain(rx: &mut NetReceiver, frames: usize) -> Vec<Envelope> {
        (0..frames).map(|_| rx.recv_blocking().unwrap()).collect()
    }

    #[test]
    fn fifo_holds_per_source_and_mailbox_under_latency() {
        let model = LatencyModel::lossy(
            Duration::from_micros(200),
            0.4,
            Duration::from_millis(2),
            17,
        );
        let mut eps = Fabric::builder(3).mailboxes(2).latency(model).build();
        let (_c, _merged, mut mailboxes) = eps.pop().unwrap().split_mailboxes();
        let mut sources: Vec<NetSender> = eps.into_iter().map(|e| e.split().0).collect();
        for i in 0..60u8 {
            for (src, tx) in sources.iter_mut().enumerate() {
                let mailbox = usize::from(i % 2);
                tx.send_data(2, mailbox, src as u32, vec![i].into())
                    .unwrap();
            }
        }
        for (mailbox, rx) in mailboxes.iter_mut().enumerate() {
            let mut next = [mailbox as u8; 2];
            for env in drain(rx, 60) {
                assert_eq!(env.class, TrafficClass::Data);
                assert_eq!(env.channel as usize, env.src);
                assert_eq!(
                    env.payload[0], next[env.src],
                    "source {} reordered",
                    env.src
                );
                next[env.src] += 2;
            }
            assert!(rx.try_recv().is_none());
            assert_eq!(rx.delayed(), 0);
        }
    }

    #[test]
    fn injected_duplicate_is_suppressed_in_its_own_mailbox() {
        let plan = FaultPlan::seeded(5).duplicate_probability(0.4);
        let (mut a, mut merged, mut mailboxes) = pair(Fabric::builder(2).faults(plan));
        for i in 0..100u8 {
            a.send_data(1, usize::from(i % 2), 0, vec![i].into())
                .unwrap();
        }
        for (mailbox, rx) in mailboxes.iter_mut().enumerate() {
            let got: Vec<u8> = drain(rx, 50).iter().map(|env| env.payload[0]).collect();
            let sent: Vec<u8> = (0..100).filter(|i| usize::from(i % 2) == mailbox).collect();
            assert_eq!(got, sent);
            assert!(rx.try_recv().is_none(), "a duplicate got through");
        }
        assert!(merged.try_recv().is_none());
        let faults = a.metrics().faults();
        assert!(faults.duplicated > 10, "duplicated = {}", faults.duplicated);
        assert_eq!(faults.duplicated, faults.duplicates_suppressed);
    }

    /// Every receive queue numbers its frames separately: whichever of a
    /// delayed data frame and a progress or control frame on the same link
    /// is sent first, all of them are delivered.
    #[test]
    fn delayed_data_and_merged_queue_traffic_never_suppress_each_other() {
        for data_first in [true, false] {
            let model = LatencyModel::constant(Duration::from_millis(10));
            let (mut a, mut merged, mut mailboxes) = pair(Fabric::builder(2).latency(model));
            let data = |a: &mut NetSender| {
                a.send_data(1, 1, 9, vec![1].into()).unwrap();
                a.send_data(1, 1, 9, vec![2].into()).unwrap();
            };
            if data_first {
                data(&mut a);
            }
            a.send(1, 3, TrafficClass::Progress, vec![3].into())
                .unwrap();
            a.send_control(1, 7, vec![4].into()).unwrap();
            if !data_first {
                data(&mut a);
            }
            let got: Vec<u8> = drain(&mut mailboxes[1], 2)
                .iter()
                .map(|e| e.payload[0])
                .collect();
            assert_eq!(got, [1, 2], "data_first = {data_first}");
            let mut got: Vec<u8> = drain(&mut merged, 2).iter().map(|e| e.payload[0]).collect();
            got.sort_unstable();
            assert_eq!(got, [3, 4], "data_first = {data_first}");
            assert!(mailboxes[0].try_recv().is_none());
            assert_eq!(a.metrics().faults().duplicates_suppressed, 0);
        }
    }

    /// Admission belongs to the link, not to the receive queue: a seeded
    /// plan injects the same faults at the same sends, and the meters read
    /// the same, by either entry point.
    #[test]
    fn a_fault_plan_treats_send_and_send_data_alike() {
        let run = |by_mailbox: bool| {
            let plan = FaultPlan::seeded(29)
                .drop_probability(0.2)
                .duplicate_probability(0.2)
                .partition(0, 1, 40, 55)
                .crash(0, 180);
            let (mut a, mut merged, mut mailboxes) = pair(Fabric::builder(2).faults(plan));
            let outcomes: Vec<_> = (0..200u8)
                .map(|i| {
                    let payload = Bytes::from(vec![i; 1 + usize::from(i % 5)]);
                    if by_mailbox {
                        a.send_data(1, usize::from(i % 2), 0, payload)
                    } else {
                        a.send(1, 0, TrafficClass::Data, payload)
                    }
                })
                .collect();
            let delivered = outcomes.iter().filter(|o| o.is_ok()).count();
            let mut received = 0;
            for rx in mailboxes.iter_mut().chain([&mut merged]) {
                received += std::iter::from_fn(|| rx.try_recv()).count();
            }
            assert_eq!(received, delivered);
            let metrics = a.metrics();
            (outcomes, metrics.faults(), metrics.link_counters(0, 1))
        };
        let (outcomes, faults, _) = run(false);
        assert!(faults.dropped > 0 && faults.duplicated > 0 && faults.crashes == 1);
        assert_eq!(faults.partition_rejects, 15);
        assert!(outcomes.contains(&Err(SendError::SelfCrashed { src: 0 })));
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn crashed_or_partitioned_destination_rejects_send_data_with_the_typed_error() {
        let mut eps = Fabric::builder(2).mailboxes(1).build();
        let ctl = eps[0].fault_controller();
        let (mut a, _, _) = eps.swap_remove(0).split_mailboxes();
        let attempt = |a: &mut NetSender| a.send_data(1, 0, 0, vec![0].into());
        ctl.sever(0, 1);
        assert_eq!(
            attempt(&mut a),
            Err(SendError::Partitioned { src: 0, dst: 1 })
        );
        ctl.heal(0, 1);
        ctl.crash(1);
        assert_eq!(attempt(&mut a), Err(SendError::PeerCrashed { dst: 1 }));
        ctl.revive(1);
        ctl.crash(0);
        assert_eq!(attempt(&mut a), Err(SendError::SelfCrashed { src: 0 }));
        ctl.revive(0);
        assert_eq!(attempt(&mut a), Ok(()));
        let faults = a.metrics().faults();
        assert_eq!((faults.partition_rejects, faults.crash_rejects), (1, 2));
        // Rejections never reach the wire; the accepted frame is metered.
        assert_eq!(a.metrics().link_counters(0, 1).data.messages, 1);
    }

    /// `send` keeps addressing the merged queue, with or without
    /// mailboxes, and a bare fabric has none.
    #[test]
    fn send_delivers_data_on_the_merged_queue() {
        let bare = Fabric::builder(1).build().pop().unwrap();
        assert!(bare.split_mailboxes().2.is_empty());
        let (mut a, mut merged, mut mailboxes) = pair(Fabric::builder(2));
        a.send(1, 5, TrafficClass::Data, vec![8].into()).unwrap();
        let env = merged.try_recv().expect("on the merged queue");
        assert_eq!(
            (env.channel, env.class, env.payload[0]),
            (5, TrafficClass::Data, 8)
        );
        assert!(mailboxes.iter_mut().all(|rx| rx.try_recv().is_none()));
    }

    /// A frame for a mailbox nobody reads any more is accepted like any
    /// other: accounted for, then dropped with the fabric.
    #[test]
    fn a_mailbox_outlives_its_reader() {
        let (mut a, _merged, mailboxes) = pair(Fabric::builder(2));
        drop(mailboxes);
        assert_eq!(a.send_data(1, 0, 0, vec![1, 2].into()), Ok(()));
        assert_eq!(a.metrics().link_counters(0, 1).data.bytes, 2);
    }

    #[test]
    #[should_panic(expected = "has no mailbox")]
    fn send_data_to_a_bare_endpoint_panics() {
        let mut a = Fabric::builder(1).build().pop().unwrap().split().0;
        let _ = a.send_data(0, 0, 0, vec![1].into());
    }

    #[test]
    #[should_panic(expected = "has no mailboxes")]
    fn fan_out_to_a_bare_endpoint_panics() {
        let mut a = Fabric::builder(1).build().pop().unwrap().split().0;
        let _ = a.fan_out(0, 0, TrafficClass::Progress, vec![1].into());
    }

    /// One fan-out is one send to the link — one attempt toward a crash
    /// point, one meter reading — and one frame in every mailbox, none on
    /// the merged queue. To its own endpoint it is metered on the loopback
    /// link and, latency model or not, deliverable at once.
    #[test]
    fn a_fan_out_is_admitted_and_metered_once() {
        // Crash point at attempt 4: three fan-outs and one send pass, the
        // fifth attempt fails whichever entry point makes it.
        let plan = FaultPlan::seeded(1).crash(0, 4);
        let model = LatencyModel::constant(Duration::from_secs(60));
        let mut eps = Fabric::builder(2)
            .mailboxes(2)
            .faults(plan)
            .latency(model)
            .build();
        let (_b, mut b_merged, mut b_mailboxes) = eps.pop().unwrap().split_mailboxes();
        let (mut a, mut a_merged, mut a_mailboxes) = eps.pop().unwrap().split_mailboxes();
        let payload = Bytes::from_static(&[1, 2, 3, 4]);
        for dst in [0, 0, 1] {
            a.fan_out(dst, 3, TrafficClass::Progress, payload.clone())
                .unwrap();
        }
        a.send(1, 9, TrafficClass::Progress, payload.clone())
            .unwrap();
        assert_eq!(
            a.fan_out(0, 3, TrafficClass::Progress, payload),
            Err(SendError::SelfCrashed { src: 0 })
        );
        let own = a.metrics().link_counters(0, 0).progress;
        assert_eq!((own.messages, own.bytes), (2, 8));
        let cross = a.metrics().link_counters(0, 1).progress;
        assert_eq!((cross.messages, cross.bytes), (2, 8));
        // The own-process copies are not delayed by a minute-long model.
        for rx in &mut a_mailboxes {
            for _ in 0..2 {
                let env = rx
                    .try_recv()
                    .expect("own-endpoint fan-out is never delayed");
                assert_eq!(
                    (env.src, env.channel, env.class),
                    (0, 3, TrafficClass::Progress)
                );
            }
            assert!(rx.try_recv().is_none());
        }
        // The remote copy crossed the (delayed) link once, into both
        // mailboxes; the plain send went to the merged queue.
        for rx in &mut b_mailboxes {
            assert!(rx.try_recv().is_none());
            assert_eq!(rx.delayed(), 1);
        }
        assert!(a_merged.try_recv().is_none());
        assert!(b_merged.try_recv().is_none());
    }

    /// A mailbox holds a source's `send_data` and `fan_out` frames in one
    /// order, under latency and duplication alike, and a duplicate drawn
    /// for a fan-out is suppressed in every mailbox it reaches, counted
    /// once.
    #[test]
    fn fan_out_keeps_fifo_and_suppresses_its_duplicate_in_every_mailbox() {
        let plan = FaultPlan::seeded(5).duplicate_probability(0.4);
        let model = LatencyModel::lossy(
            Duration::from_micros(200),
            0.4,
            Duration::from_millis(2),
            17,
        );
        let (mut a, mut merged, mut mailboxes) =
            pair(Fabric::builder(2).faults(plan).latency(model));
        let mut expected = [Vec::new(), Vec::new()];
        for i in 0..120u8 {
            if i % 3 == 0 {
                a.fan_out(1, 1, TrafficClass::Progress, vec![i].into())
                    .unwrap();
                expected.iter_mut().for_each(|frames| frames.push(i));
            } else {
                let mailbox = usize::from(i % 2);
                a.send_data(1, mailbox, 0, vec![i].into()).unwrap();
                expected[mailbox].push(i);
            }
        }
        for (rx, expected) in mailboxes.iter_mut().zip(&expected) {
            let got: Vec<u8> = drain(rx, expected.len())
                .iter()
                .map(|env| env.payload[0])
                .collect();
            assert_eq!(&got, expected);
            assert!(rx.try_recv().is_none(), "a duplicate got through");
            assert_eq!(rx.delayed(), 0);
        }
        assert!(merged.try_recv().is_none());
        let faults = a.metrics().faults();
        assert!(faults.duplicated > 10, "duplicated = {}", faults.duplicated);
        // Counted per mailbox, suppressions would outnumber duplicates.
        assert_eq!(faults.duplicated, faults.duplicates_suppressed);
    }

    /// A seeded plan injects the same faults at the same sends, and the
    /// meters and `FaultCounters` read the same, whether each frame is a
    /// `send` or a `fan_out`; only the number of copies delivered differs.
    #[test]
    fn a_fault_plan_treats_send_and_fan_out_alike() {
        let run = |fanned: bool| {
            let plan = FaultPlan::seeded(29)
                .drop_probability(0.2)
                .duplicate_probability(0.2)
                .partition(0, 1, 40, 55)
                .crash(0, 180);
            let (mut a, mut merged, mut mailboxes) = pair(Fabric::builder(2).faults(plan));
            let outcomes: Vec<_> = (0..200u8)
                .map(|i| {
                    let payload = Bytes::from(vec![i; 1 + usize::from(i % 5)]);
                    if fanned {
                        a.fan_out(1, 0, TrafficClass::Progress, payload)
                    } else {
                        a.send(1, 0, TrafficClass::Progress, payload)
                    }
                })
                .collect();
            let delivered = outcomes.iter().filter(|o| o.is_ok()).count();
            let copies = if fanned { mailboxes.len() } else { 1 };
            let mut received = 0;
            for rx in mailboxes.iter_mut().chain([&mut merged]) {
                received += std::iter::from_fn(|| rx.try_recv()).count();
            }
            assert_eq!(received, delivered * copies);
            let metrics = a.metrics();
            (outcomes, metrics.faults(), metrics.link_counters(0, 1))
        };
        let (outcomes, faults, _) = run(false);
        assert!(faults.dropped > 0 && faults.duplicated > 0 && faults.crashes == 1);
        assert_eq!(faults.duplicated, faults.duplicates_suppressed);
        assert!(outcomes.contains(&Err(SendError::SelfCrashed { src: 0 })));
        assert_eq!(run(true), run(false));
    }
}
