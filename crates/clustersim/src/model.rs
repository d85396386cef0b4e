//! The cluster model: hardware spec, phase timing, stragglers.

use naiad_rng::Xorshift;

use crate::telemetry::SimTelemetry;

/// Hardware description, defaulted to the paper's evaluation cluster
/// (§5): two racks of 32 computers, two quad-core 2.1 GHz Opterons and a
/// Gigabit NIC each, 40 Gbps uplinks.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Number of computers.
    pub computers: usize,
    /// Worker threads per computer (the paper uses 8).
    pub workers_per_computer: usize,
    /// Computers per rack (32 in the paper).
    pub rack_size: usize,
    /// NIC bandwidth, bits per second, full duplex.
    pub nic_bps: f64,
    /// Fraction of nominal NIC bandwidth achievable by the socket stack
    /// (TCP/IP and API overheads; the paper's ".NET socket" line sits
    /// around 85% of line rate).
    pub socket_efficiency: f64,
    /// Rack-to-core uplink bandwidth, bits per second.
    pub uplink_bps: f64,
    /// One-way small-message latency between two computers, seconds.
    pub hop_latency: f64,
    /// Fixed per-phase scheduling overhead per computer, seconds (thread
    /// wakeups; §3.3's eventcount optimization keeps this small).
    pub wakeup_overhead: f64,
    /// Per-packet handling cost at an endpoint, seconds: the central
    /// accumulator receives one packet per process and broadcasts one
    /// back, which is what makes barrier latency grow with cluster size.
    pub packet_overhead: f64,
    /// Micro-straggler behaviour (§3.5).
    pub straggler: StragglerModel,
    /// Heartbeat failure detection (`None` = detection leans on progress
    /// traffic and the [`FailureModel`]'s pessimistic timeout, the
    /// pre-heartbeat runtime behaviour).
    pub heartbeat: Option<HeartbeatModel>,
}

/// The micro-straggler model of §3.5: per participant and phase, a small
/// probability of a packet-loss retransmit timeout, and a smaller one of
/// a longer (GC-like) pause.
#[derive(Debug, Clone)]
pub struct StragglerModel {
    /// Probability a participant's phase suffers a retransmit timeout.
    pub loss_probability: f64,
    /// The retransmit timeout (the paper tunes Windows down to 20 ms).
    pub retransmit_timeout: f64,
    /// Probability of a long pause (GC, timer coarseness).
    pub pause_probability: f64,
    /// Mean long-pause duration (exponentially distributed).
    pub mean_pause: f64,
}

impl StragglerModel {
    /// No stragglers: the idealized network.
    pub fn none() -> Self {
        StragglerModel {
            loss_probability: 0.0,
            retransmit_timeout: 0.0,
            pause_probability: 0.0,
            mean_pause: 0.0,
        }
    }

    /// The paper-like default: rare losses with a 20 ms timeout, rarer
    /// multi-millisecond pauses.
    pub fn paper_default() -> Self {
        StragglerModel {
            loss_probability: 0.0015,
            retransmit_timeout: 0.020,
            pause_probability: 0.0004,
            mean_pause: 0.030,
        }
    }
}

/// The analytical counterpart of the runtime's heartbeat failure
/// detector (`Config::heartbeats`): each process emits a small control
/// message every `interval` seconds over the latency-exempt control
/// channel, and a peer silent for `fail_after_intervals` intervals is
/// declared failed. Detection latency then depends on the heartbeat
/// cadence instead of the [`FailureModel`]'s pessimistic
/// progress-traffic timeout.
#[derive(Debug, Clone)]
pub struct HeartbeatModel {
    /// Heartbeat emission interval, seconds.
    pub interval: f64,
    /// Silence threshold before declaring a peer failed, in intervals
    /// (the runtime's `heartbeat_fail_after / heartbeat_interval`).
    pub fail_after_intervals: f64,
    /// Heartbeat payload size, bytes — bookkeeping for the (tiny)
    /// control-plane bandwidth tax.
    pub payload_bytes: f64,
}

impl HeartbeatModel {
    /// A runtime-plausible default: 25 ms beats, failure after 8 silent
    /// intervals (200 ms), 32-byte payloads.
    pub fn paper_default() -> Self {
        HeartbeatModel {
            interval: 0.025,
            fail_after_intervals: 8.0,
            payload_bytes: 32.0,
        }
    }

    /// Expected detection latency for a silent failure: the victim dies
    /// mid-interval on average, then the full silence threshold must
    /// elapse before a peer's detector declares it.
    pub fn detection_latency(&self) -> f64 {
        self.interval * (0.5 + self.fail_after_intervals)
    }
}

/// Whole-process failure and coordinated-rollback recovery (§3.4): the
/// macro-scale counterpart of [`StragglerModel`]'s micro-stragglers.
/// Matches the semantics of the real runtime's `Execution::resilient`: on
/// any crash the *entire* cluster rolls back to the last consistent
/// checkpoint and replays logged inputs.
#[derive(Debug, Clone)]
pub struct FailureModel {
    /// Probability an individual computer crashes during any given epoch.
    pub crash_probability_per_epoch: f64,
    /// Time to detect a dead process (missed progress traffic; the
    /// paper's testbed leans on TCP timeouts, tuned to tens of ms, plus
    /// application-level suspicion — order seconds in practice).
    pub detection_timeout: f64,
    /// Seconds to reload one computer's checkpoint blob (storage read +
    /// decode); every computer restores in parallel.
    pub restore_seconds_per_computer: f64,
}

impl FailureModel {
    /// No failures: every epoch completes on the first attempt.
    pub fn none() -> Self {
        FailureModel {
            crash_probability_per_epoch: 0.0,
            detection_timeout: 0.0,
            restore_seconds_per_computer: 0.0,
        }
    }

    /// A paper-plausible default: roughly one crash per thousand
    /// computer-epochs, one-second detection, 200 ms restore.
    pub fn paper_default() -> Self {
        FailureModel {
            crash_probability_per_epoch: 0.001,
            detection_timeout: 1.0,
            restore_seconds_per_computer: 0.2,
        }
    }
}

/// Analytical cost model of an epoch-fence elastic rescale — the
/// simulator counterpart of the runtime's `Execution::elastic`
/// (`naiad::runtime::rescale`). A rescale stalls the dataflow for:
///
/// 1. **quiesce** — draining the progress frontier to the fence epoch;
/// 2. **snapshot** — encoding every computer's keyed state into
///    per-partition shards at `codec_bps`;
/// 3. **transfer** — moving re-owned shards over the NICs. Modular key
///    re-routing (`hash % workers`) reassigns almost every key when the
///    worker count changes, so nearly all state crosses the network —
///    the megaphone-style tax the EXPERIMENTS.md table prices;
/// 4. **restore + replay** — decoding on the new worker set and
///    replaying the fence epoch's logged input.
#[derive(Debug, Clone)]
pub struct RescaleModel {
    /// Keyed operator state per computer at the fence, bytes.
    pub state_bytes_per_computer: f64,
    /// Seconds to drain the frontier to the fence (bounded by one epoch's
    /// in-flight work; the runtime's barrier is `closed_through`).
    pub quiesce_seconds: f64,
    /// Checkpoint encode/decode throughput per computer, bytes/second.
    pub codec_bps: f64,
    /// Seconds of logged-input replay for the fence epoch on the new
    /// membership.
    pub replay_seconds: f64,
}

impl RescaleModel {
    /// A runtime-plausible default: 150 MB/s codec, 50 ms quiesce, 100 ms
    /// replay.
    pub fn paper_default(state_bytes_per_computer: f64) -> Self {
        RescaleModel {
            state_bytes_per_computer,
            quiesce_seconds: 0.05,
            codec_bps: 150.0e6,
            replay_seconds: 0.1,
        }
    }

    /// Fraction of keys whose owner changes when re-routing from `from`
    /// to `to` partitions. Modular routing keeps a key in place only when
    /// `h % from == h % to`, which for uniform hashes happens about once
    /// per `max(from, to)` keys — so a rescale moves nearly everything
    /// (unlike consistent hashing's `1 - min/max`).
    pub fn moved_fraction(from: usize, to: usize) -> f64 {
        if from == to {
            0.0
        } else {
            1.0 - 1.0 / from.max(to) as f64
        }
    }
}

/// Outcome of simulating a checkpointed streaming job under a
/// [`FailureModel`] — see [`ClusterSim::recovery_run`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryStats {
    /// Total simulated wall-clock, including rollbacks and re-execution.
    pub duration: f64,
    /// Crashes that struck the run.
    pub crashes: usize,
    /// Epochs re-executed because a crash rolled the cluster back past
    /// work it had already completed (the §3.4 recovery tax that
    /// checkpoint frequency trades against).
    pub replayed_epochs: usize,
}

impl ClusterSpec {
    /// The paper's evaluation cluster with `computers` machines.
    pub fn paper_cluster(computers: usize) -> Self {
        ClusterSpec {
            computers,
            workers_per_computer: 8,
            rack_size: 32,
            nic_bps: 1.0e9,
            socket_efficiency: 0.85,
            uplink_bps: 40.0e9,
            hop_latency: 45.0e-6,
            wakeup_overhead: 25.0e-6,
            packet_overhead: 4.0e-6,
            straggler: StragglerModel::paper_default(),
            heartbeat: None,
        }
    }

    /// Total workers across the cluster.
    pub fn total_workers(&self) -> usize {
        self.computers * self.workers_per_computer
    }

    /// Number of racks in use.
    pub fn racks(&self) -> usize {
        self.computers.div_ceil(self.rack_size)
    }
}

/// Timing of one simulated phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseStats {
    /// Wall-clock duration of the phase, seconds.
    pub duration: f64,
    /// Straggler delay included in `duration`, seconds.
    pub straggler_delay: f64,
}

/// A simulated cluster advancing through synchronized phases.
#[derive(Debug, Clone)]
pub struct ClusterSim {
    spec: ClusterSpec,
    rng: Xorshift,
    clock: f64,
    telemetry: SimTelemetry,
}

impl ClusterSim {
    /// A simulator over `spec`, seeded for reproducibility.
    pub fn new(spec: ClusterSpec, seed: u64) -> Self {
        ClusterSim {
            spec,
            rng: Xorshift::new(seed),
            clock: 0.0,
            telemetry: SimTelemetry::default(),
        }
    }

    /// The hardware spec.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Simulated seconds elapsed.
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Phase-level breakdown of where simulated time went.
    pub fn telemetry(&self) -> &SimTelemetry {
        &self.telemetry
    }

    /// Samples the total straggler delay striking a phase with
    /// `participants` independently exposed participants. Phases gate on
    /// their slowest member, so one struck participant delays everyone;
    /// we take the worst single delay.
    fn sample_stragglers(&mut self, participants: usize) -> f64 {
        let s = self.spec.straggler.clone();
        let mut worst: f64 = 0.0;
        // Sampling per participant is exact but slow for huge clusters;
        // the per-phase hit counts are tiny, so sample hit *counts* from
        // the binomial's expectation instead of looping when large.
        if participants <= 4096 {
            for _ in 0..participants {
                if s.loss_probability > 0.0 && self.rng.unit() < s.loss_probability {
                    worst = worst.max(s.retransmit_timeout);
                }
                if s.pause_probability > 0.0 && self.rng.unit() < s.pause_probability {
                    worst = worst.max(self.rng.exponential(s.mean_pause));
                }
            }
        } else {
            let loss_hits = (participants as f64 * s.loss_probability).round() as usize;
            if loss_hits > 0 {
                worst = worst.max(s.retransmit_timeout);
            }
            let pause_hits = (participants as f64 * s.pause_probability).round() as usize;
            for _ in 0..pause_hits {
                worst = worst.max(self.rng.exponential(s.mean_pause));
            }
        }
        worst
    }

    /// A computation phase: every worker grinds through `cpu_seconds` of
    /// work (already divided per worker by the caller).
    pub fn compute_phase(&mut self, cpu_seconds_per_worker: f64) -> PhaseStats {
        let straggler = self.sample_stragglers(self.spec.computers);
        let duration = cpu_seconds_per_worker + self.spec.wakeup_overhead + straggler;
        self.clock += duration;
        let stats = PhaseStats {
            duration,
            straggler_delay: straggler,
        };
        self.telemetry.record_compute(stats);
        stats
    }

    /// A communication phase: every computer sends `egress_bytes` spread
    /// over the others (all-to-all unless `cross_fraction` lowers the
    /// share leaving the machine). Returns the gating transfer time.
    pub fn exchange_phase(&mut self, egress_bytes_per_computer: f64) -> PhaseStats {
        let n = self.spec.computers as f64;
        // Bytes that actually cross the network per computer.
        let network_bytes = if self.spec.computers > 1 {
            egress_bytes_per_computer * (n - 1.0) / n
        } else {
            0.0
        };
        let nic_rate = self.spec.nic_bps * self.spec.socket_efficiency / 8.0;
        let nic_time = network_bytes / nic_rate;

        // Cross-rack share rides the uplink, shared by the whole rack.
        let racks = self.spec.racks() as f64;
        let uplink_time = if racks > 1.0 {
            let cross_fraction = (racks - 1.0) / racks;
            let per_rack_bytes = network_bytes
                * cross_fraction
                * self.spec.rack_size.min(self.spec.computers) as f64;
            per_rack_bytes / (self.spec.uplink_bps / 8.0)
        } else {
            0.0
        };

        let straggler = self.sample_stragglers(self.spec.computers);
        let duration = nic_time.max(uplink_time) + self.spec.hop_latency + straggler;
        self.clock += duration;
        let stats = PhaseStats {
            duration,
            straggler_delay: straggler,
        };
        self.telemetry.record_exchange(stats);
        stats
    }

    /// A progress-coordination round (§3.3): workers' updates accumulate
    /// per process, flow to the central accumulator, and the net effect is
    /// broadcast back — two hops each way plus per-computer wakeups.
    pub fn coordination_round(&mut self) -> PhaseStats {
        let hops = 4.0; // worker → acc → central → acc → worker
        let wakeups =
            self.spec.wakeup_overhead * (self.spec.workers_per_computer as f64).log2().max(1.0);
        // The central accumulator serially absorbs one packet per process
        // and emits one per process (the incast the paper tunes TCP for).
        let fanout = 2.0 * self.spec.computers as f64 * self.spec.packet_overhead;
        // Scheduling jitter grows mildly with the number of participants.
        let jitter = self.rng.exponential(
            self.spec.hop_latency * 0.3 * (self.spec.computers as f64).log2().max(1.0),
        );
        let straggler = self.sample_stragglers(self.spec.computers);
        // Heartbeat control traffic rides the same endpoints: each round a
        // computer handles roughly one incoming and one outgoing beat's
        // worth of packet processing. Tiny by construction — the detector
        // must not tax the barrier it protects.
        let heartbeat_tax = if self.spec.heartbeat.is_some() {
            2.0 * self.spec.packet_overhead
        } else {
            0.0
        };
        let duration =
            hops * self.spec.hop_latency + wakeups + fanout + jitter + straggler + heartbeat_tax;
        self.clock += duration;
        let stats = PhaseStats {
            duration,
            straggler_delay: straggler,
        };
        self.telemetry.record_coordination(stats);
        stats
    }

    /// Prices the stall of one epoch-fence rescale from `from` to `to`
    /// computers (`self.spec.computers` is the *pre*-rescale count used
    /// for straggler exposure; the slower of the two sets gates each
    /// stage). Returns the full stall as one phase; the simulated clock
    /// advances by it.
    ///
    /// # Panics
    ///
    /// Panics if either computer count is zero.
    pub fn rescale_stall(&mut self, model: &RescaleModel, from: usize, to: usize) -> PhaseStats {
        assert!(from > 0 && to > 0, "rescale between non-empty worker sets");
        let total_state = model.state_bytes_per_computer * from as f64;
        // Snapshot: each pre-rescale computer encodes its own state.
        let snapshot = model.state_bytes_per_computer / model.codec_bps;
        // Transfer: moved bytes leave `from` NICs and land on `to` NICs;
        // the busier side of the narrower set gates.
        let moved = total_state * RescaleModel::moved_fraction(from, to);
        let nic_rate = self.spec.nic_bps * self.spec.socket_efficiency / 8.0;
        let egress = moved / from as f64 / nic_rate;
        let ingress = moved / to as f64 / nic_rate;
        let transfer = egress.max(ingress) + self.spec.hop_latency;
        // Restore: the new membership decodes its share in parallel.
        let restore = total_state / to as f64 / model.codec_bps;
        // Every participant of either membership can straggle the fence.
        let straggler = self.sample_stragglers(from.max(to));
        let duration = model.quiesce_seconds
            + snapshot
            + transfer
            + restore
            + model.replay_seconds
            + straggler;
        self.clock += duration;
        let stats = PhaseStats {
            duration,
            straggler_delay: straggler,
        };
        self.telemetry.record_rescale(stats);
        stats
    }

    /// Simulates a checkpointed streaming job of `epochs` epochs, each
    /// costing `epoch_seconds` of fault-free wall-clock, with a full
    /// checkpoint every `checkpoint_every` epochs, under `failures`.
    ///
    /// Recovery semantics mirror the real runtime's `Execution::resilient`
    /// (coordinated rollback, §3.4): a crash anywhere rolls the whole
    /// cluster back to the last consistent checkpoint; the time already
    /// spent on the abandoned epochs is lost and they are re-executed
    /// after detection + parallel restore.
    pub fn recovery_run(
        &mut self,
        epochs: usize,
        epoch_seconds: f64,
        checkpoint_every: usize,
        checkpoint_seconds: f64,
        failures: &FailureModel,
    ) -> RecoveryStats {
        assert!(checkpoint_every > 0, "checkpoint interval must be positive");
        let start = self.clock;
        let mut crashes = 0usize;
        let mut replayed = 0usize;
        let mut completed = 0usize; // epochs durably finished
        let mut last_checkpoint = 0usize; // rollback target
        let p_epoch = {
            // Probability *some* computer crashes during an epoch.
            let p = failures.crash_probability_per_epoch;
            1.0 - (1.0 - p).powi(self.spec.computers as i32)
        };
        // With heartbeats, detection latency is bounded by the beat
        // cadence; without, the run pays the model's pessimistic
        // progress-traffic timeout (EXPERIMENTS.md plots this trade).
        let detection = self.spec.heartbeat.as_ref().map_or(
            failures.detection_timeout,
            HeartbeatModel::detection_latency,
        );
        while completed < epochs {
            // Run the epoch; a crash strikes at a uniform point within it.
            if p_epoch > 0.0 && self.rng.unit() < p_epoch {
                crashes += 1;
                self.clock += self.rng.unit() * epoch_seconds; // wasted partial epoch
                self.clock += detection;
                self.clock += failures.restore_seconds_per_computer; // parallel restore
                replayed += completed - last_checkpoint;
                completed = last_checkpoint;
                continue;
            }
            self.clock += epoch_seconds;
            completed += 1;
            if completed.is_multiple_of(checkpoint_every) {
                self.clock += checkpoint_seconds;
                last_checkpoint = completed;
            }
        }
        RecoveryStats {
            duration: self.clock - start,
            crashes,
            replayed_epochs: replayed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet(computers: usize) -> ClusterSim {
        let mut spec = ClusterSpec::paper_cluster(computers);
        spec.straggler = StragglerModel::none();
        ClusterSim::new(spec, 1)
    }

    #[test]
    fn compute_phase_is_work_plus_overhead() {
        let mut sim = quiet(4);
        let stats = sim.compute_phase(0.5);
        assert!((stats.duration - 0.500025).abs() < 1e-9);
        assert_eq!(stats.straggler_delay, 0.0);
        assert!(sim.now() > 0.5);
    }

    #[test]
    fn exchange_is_nic_bound_for_small_clusters() {
        let mut sim = quiet(2);
        // 100 MB egress, half stays local... with 2 computers, 1/2 leaves.
        let stats = sim.exchange_phase(100.0e6);
        let expected = 50.0e6 / (1.0e9 * 0.85 / 8.0);
        assert!(
            (stats.duration - expected - sim.spec().hop_latency).abs() < 1e-6,
            "duration {}",
            stats.duration
        );
    }

    #[test]
    fn single_computer_exchanges_for_free() {
        let mut sim = quiet(1);
        let stats = sim.exchange_phase(1.0e9);
        assert!(stats.duration < 1e-3, "loopback only: {}", stats.duration);
    }

    #[test]
    fn coordination_is_sub_millisecond_without_stragglers() {
        let mut sim = quiet(64);
        let stats = sim.coordination_round();
        assert!(stats.duration < 1e-3, "barrier {}", stats.duration);
        assert!(
            stats.duration > 1e-4,
            "barrier too cheap {}",
            stats.duration
        );
    }

    #[test]
    fn stragglers_fatten_the_tail_with_scale() {
        let spec = ClusterSpec::paper_cluster(64);
        let mut sim = ClusterSim::new(spec, 7);
        let mut delays = Vec::new();
        for _ in 0..2000 {
            delays.push(sim.coordination_round().duration);
        }
        delays.sort_by(f64::total_cmp);
        let median = delays[delays.len() / 2];
        let p95 = delays[delays.len() * 95 / 100];
        assert!(p95 > 4.0 * median, "median {median}, p95 {p95}");

        // A small cluster is struck far less often.
        let mut small = ClusterSim::new(ClusterSpec::paper_cluster(2), 7);
        let struck = (0..2000)
            .filter(|_| small.coordination_round().straggler_delay > 0.0)
            .count();
        let struck_big = delays.iter().filter(|d| **d > 0.005).count();
        assert!(struck * 4 < struck_big, "small {struck}, big {struck_big}");
    }

    #[test]
    fn recovery_run_is_exact_without_failures() {
        let mut sim = quiet(8);
        let stats = sim.recovery_run(100, 0.1, 10, 0.5, &FailureModel::none());
        assert_eq!(stats.crashes, 0);
        assert_eq!(stats.replayed_epochs, 0);
        // 100 epochs + 10 checkpoints.
        assert!((stats.duration - (100.0 * 0.1 + 10.0 * 0.5)).abs() < 1e-9);
    }

    #[test]
    fn crashes_cost_rollback_and_replay() {
        let mut sim = quiet(64);
        let failures = FailureModel {
            crash_probability_per_epoch: 0.002,
            detection_timeout: 1.0,
            restore_seconds_per_computer: 0.2,
        };
        let clean = quiet(64).recovery_run(200, 0.1, 10, 0.2, &FailureModel::none());
        let faulty = sim.recovery_run(200, 0.1, 10, 0.2, &failures);
        assert!(faulty.crashes > 0, "64 computers × 200 epochs must crash");
        assert!(faulty.replayed_epochs > 0);
        assert!(
            faulty.duration > clean.duration,
            "recovery must cost wall-clock: {} vs {}",
            faulty.duration,
            clean.duration
        );
        // Every crash pays at least detection + restore.
        assert!(
            faulty.duration - clean.duration
                >= faulty.crashes as f64 * (failures.detection_timeout),
            "crashes {} underpriced",
            faulty.crashes
        );
    }

    #[test]
    fn frequent_checkpoints_reduce_replay() {
        let failures = FailureModel {
            crash_probability_per_epoch: 0.002,
            detection_timeout: 0.5,
            restore_seconds_per_computer: 0.1,
        };
        let replay_with = |every: usize| {
            let mut total = 0usize;
            for seed in 0..20 {
                let mut spec = ClusterSpec::paper_cluster(64);
                spec.straggler = StragglerModel::none();
                let mut sim = ClusterSim::new(spec, seed);
                total += sim
                    .recovery_run(200, 0.1, every, 0.05, &failures)
                    .replayed_epochs;
            }
            total
        };
        let tight = replay_with(2);
        let loose = replay_with(50);
        assert!(
            tight < loose,
            "checkpointing every 2 epochs must replay less than every 50: {tight} vs {loose}"
        );
    }

    #[test]
    fn heartbeats_cut_detection_latency() {
        let failures = FailureModel {
            crash_probability_per_epoch: 0.002,
            detection_timeout: 1.0,
            restore_seconds_per_computer: 0.2,
        };
        let run = |heartbeat: Option<HeartbeatModel>| {
            let mut spec = ClusterSpec::paper_cluster(64);
            spec.straggler = StragglerModel::none();
            spec.heartbeat = heartbeat;
            let mut sim = ClusterSim::new(spec, 11);
            sim.recovery_run(200, 0.1, 10, 0.2, &failures)
        };
        let slow = run(None);
        let fast = run(Some(HeartbeatModel::paper_default()));
        // Same seed, same RNG draw order: identical crash pattern.
        assert_eq!(slow.crashes, fast.crashes);
        assert!(slow.crashes > 0, "64 computers × 200 epochs must crash");
        assert_eq!(slow.replayed_epochs, fast.replayed_epochs);
        let saved = slow.duration - fast.duration;
        let expected = slow.crashes as f64
            * (failures.detection_timeout - HeartbeatModel::paper_default().detection_latency());
        assert!(
            (saved - expected).abs() < 1e-9,
            "heartbeats save exactly the detection gap: saved {saved}, expected {expected}"
        );
    }

    #[test]
    fn heartbeat_tax_on_coordination_is_tiny() {
        let round = |heartbeat: Option<HeartbeatModel>| {
            let mut spec = ClusterSpec::paper_cluster(64);
            spec.straggler = StragglerModel::none();
            spec.heartbeat = heartbeat;
            let mut sim = ClusterSim::new(spec, 5);
            sim.coordination_round().duration
        };
        let plain = round(None);
        let beating = round(Some(HeartbeatModel::paper_default()));
        let tax = beating - plain;
        let expected = 2.0 * ClusterSpec::paper_cluster(64).packet_overhead;
        assert!((tax - expected).abs() < 1e-12, "tax {tax}");
        assert!(tax < plain * 0.1, "detector must not tax the barrier");
    }

    #[test]
    fn rescale_stall_prices_every_protocol_stage() {
        let mut sim = quiet(4);
        let model = RescaleModel::paper_default(100.0e6); // 100 MB/computer
        let stats = sim.rescale_stall(&model, 4, 6);
        // The stall must at least cover quiesce + snapshot + replay, and
        // the NIC-bounded transfer of (nearly) all 400 MB dominates.
        let nic_rate = 1.0e9 * 0.85 / 8.0;
        let moved = 400.0e6 * RescaleModel::moved_fraction(4, 6);
        let floor = 0.05 + 100.0e6 / 150.0e6 + moved / 4.0 / nic_rate + 0.1;
        assert!(stats.duration >= floor, "{} < {floor}", stats.duration);
        assert!((sim.now() - stats.duration).abs() < 1e-12);
        assert_eq!(sim.telemetry().rescale.phases, 1);
    }

    #[test]
    fn growing_the_cluster_shrinks_restore_but_not_transfer() {
        let model = RescaleModel::paper_default(100.0e6);
        let grow = quiet(4).rescale_stall(&model, 4, 8).duration;
        let shrink = quiet(4).rescale_stall(&model, 4, 2).duration;
        // Shrinking funnels the same moved bytes into fewer NICs and
        // decoders: strictly more stall than growing.
        assert!(shrink > grow, "shrink {shrink} <= grow {grow}");
    }

    #[test]
    fn modular_rerouting_moves_nearly_everything() {
        assert_eq!(RescaleModel::moved_fraction(4, 4), 0.0);
        assert!(RescaleModel::moved_fraction(4, 5) > 0.75);
        assert!(RescaleModel::moved_fraction(63, 64) > 0.98);
    }

    #[test]
    fn simulation_is_deterministic() {
        let run = |seed| {
            let mut sim = ClusterSim::new(ClusterSpec::paper_cluster(16), seed);
            (0..100)
                .map(|_| sim.exchange_phase(1e6).duration)
                .sum::<f64>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }
}
