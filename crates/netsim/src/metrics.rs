//! Traffic meters.
//!
//! The evaluation distinguishes application data from progress-protocol
//! traffic: Figure 6a reports aggregate data throughput, Figure 6c reports
//! progress traffic in MB under four accumulation policies. Counters are
//! plain atomics so metering adds no locking to the send path.

use std::sync::atomic::{AtomicU64, Ordering};

/// The accounting class of a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Application records flowing along dataflow connectors.
    Data,
    /// Progress-protocol updates (§3.3).
    Progress,
    /// Liveness control traffic: heartbeats and failure-detection pings
    /// (§3.4/§3.5). Cheap, latency-exempt, and metered separately so the
    /// paper's data/progress byte figures stay unperturbed.
    Control,
}

impl TrafficClass {
    const COUNT: usize = 3;

    fn index(self) -> usize {
        match self {
            TrafficClass::Data => 0,
            TrafficClass::Progress => 1,
            TrafficClass::Control => 2,
        }
    }
}

/// Bytes and message counts for one traffic class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassCounters {
    /// Total payload bytes sent.
    pub bytes: u64,
    /// Total messages sent.
    pub messages: u64,
}

/// Counters for a single directed link.
#[derive(Debug, Default)]
pub(crate) struct LinkMeter {
    bytes: [AtomicU64; TrafficClass::COUNT],
    messages: [AtomicU64; TrafficClass::COUNT],
}

impl LinkMeter {
    pub(crate) fn record(&self, class: TrafficClass, bytes: usize) {
        let i = class.index();
        self.bytes[i].fetch_add(bytes as u64, Ordering::Relaxed);
        self.messages[i].fetch_add(1, Ordering::Relaxed);
    }

    fn read(&self, class: TrafficClass) -> ClassCounters {
        let i = class.index();
        ClassCounters {
            bytes: self.bytes[i].load(Ordering::Relaxed),
            messages: self.messages[i].load(Ordering::Relaxed),
        }
    }
}

/// A snapshot of one directed link's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkCounters {
    /// Application data counters.
    pub data: ClassCounters,
    /// Progress-protocol counters.
    pub progress: ClassCounters,
    /// Liveness control-channel counters.
    pub control: ClassCounters,
}

/// A snapshot of the fabric's fault-injection counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounters {
    /// Messages dropped in flight (sender observed `SendError::Dropped`).
    pub dropped: u64,
    /// Messages delivered twice by the fabric.
    pub duplicated: u64,
    /// Duplicate copies suppressed at a receiver.
    pub duplicates_suppressed: u64,
    /// Sends rejected because the link was partitioned.
    pub partition_rejects: u64,
    /// Sends rejected because an involved process had crashed.
    pub crash_rejects: u64,
    /// Processes ever marked crashed.
    pub crashes: u64,
}

/// Internal atomics behind [`FaultCounters`].
#[derive(Debug, Default)]
struct FaultMeter {
    dropped: AtomicU64,
    duplicated: AtomicU64,
    duplicates_suppressed: AtomicU64,
    partition_rejects: AtomicU64,
    crash_rejects: AtomicU64,
    crashes: AtomicU64,
}

/// Per-class traffic totals summed over every directed link — the
/// aggregation the telemetry registry reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrafficTotals {
    /// Application-data totals.
    pub data: ClassCounters,
    /// Progress-protocol totals.
    pub progress: ClassCounters,
    /// Liveness control-channel totals.
    pub control: ClassCounters,
}

/// Fabric-wide traffic meters, shared by all endpoints.
#[derive(Debug)]
pub struct FabricMetrics {
    processes: usize,
    // Row-major `processes × processes` matrix of directed links.
    links: Vec<LinkMeter>,
    faults: FaultMeter,
}

impl FabricMetrics {
    pub(crate) fn new(processes: usize) -> Self {
        let mut links = Vec::with_capacity(processes * processes);
        links.resize_with(processes * processes, LinkMeter::default);
        FabricMetrics {
            processes,
            links,
            faults: FaultMeter::default(),
        }
    }

    pub(crate) fn record_dropped(&self) {
        self.faults.dropped.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_duplicated(&self) {
        self.faults.duplicated.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_duplicate_suppressed(&self) {
        self.faults
            .duplicates_suppressed
            .fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_partition_reject(&self) {
        self.faults
            .partition_rejects
            .fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_crash_reject(&self) {
        self.faults.crash_rejects.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_crash(&self) {
        self.faults.crashes.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the fault-injection counters.
    pub fn faults(&self) -> FaultCounters {
        FaultCounters {
            dropped: self.faults.dropped.load(Ordering::Relaxed),
            duplicated: self.faults.duplicated.load(Ordering::Relaxed),
            duplicates_suppressed: self.faults.duplicates_suppressed.load(Ordering::Relaxed),
            partition_rejects: self.faults.partition_rejects.load(Ordering::Relaxed),
            crash_rejects: self.faults.crash_rejects.load(Ordering::Relaxed),
            crashes: self.faults.crashes.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn link(&self, src: usize, dst: usize) -> &LinkMeter {
        &self.links[src * self.processes + dst]
    }

    /// The number of endpoints in the fabric.
    pub fn processes(&self) -> usize {
        self.processes
    }

    /// Snapshot of the `src → dst` link.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn link_counters(&self, src: usize, dst: usize) -> LinkCounters {
        assert!(src < self.processes && dst < self.processes);
        let meter = self.link(src, dst);
        LinkCounters {
            data: meter.read(TrafficClass::Data),
            progress: meter.read(TrafficClass::Progress),
            control: meter.read(TrafficClass::Control),
        }
    }

    /// Sum over all directed links, optionally excluding loopback
    /// (`src == dst`) traffic, which never crosses a physical network.
    pub fn total(&self, class: TrafficClass, include_loopback: bool) -> ClassCounters {
        let mut out = ClassCounters::default();
        for src in 0..self.processes {
            for dst in 0..self.processes {
                if !include_loopback && src == dst {
                    continue;
                }
                let c = self.link(src, dst).read(class);
                out.bytes += c.bytes;
                out.messages += c.messages;
            }
        }
        out
    }

    /// Total cross-process (non-loopback) bytes for a class: the quantity
    /// the paper's byte-denominated figures report.
    pub fn network_bytes(&self, class: TrafficClass) -> u64 {
        self.total(class, false).bytes
    }

    /// Sum over all links for **every** traffic class at once, optionally
    /// excluding loopback — one call instead of one per class.
    pub fn totals(&self, include_loopback: bool) -> TrafficTotals {
        TrafficTotals {
            data: self.total(TrafficClass::Data, include_loopback),
            progress: self.total(TrafficClass::Progress, include_loopback),
            control: self.total(TrafficClass::Control, include_loopback),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_per_link_and_class() {
        let m = FabricMetrics::new(3);
        m.link(0, 1).record(TrafficClass::Data, 100);
        m.link(0, 1).record(TrafficClass::Data, 50);
        m.link(0, 1).record(TrafficClass::Progress, 8);
        m.link(2, 2).record(TrafficClass::Data, 7);

        let c = m.link_counters(0, 1);
        assert_eq!(
            c.data,
            ClassCounters {
                bytes: 150,
                messages: 2
            }
        );
        assert_eq!(
            c.progress,
            ClassCounters {
                bytes: 8,
                messages: 1
            }
        );
        assert_eq!(m.link_counters(1, 0), LinkCounters::default());
    }

    #[test]
    fn fault_counters_start_zero_and_accumulate() {
        let m = FabricMetrics::new(2);
        assert_eq!(m.faults(), FaultCounters::default());
        m.record_dropped();
        m.record_dropped();
        m.record_duplicated();
        m.record_duplicate_suppressed();
        m.record_partition_reject();
        m.record_crash_reject();
        m.record_crash();
        assert_eq!(
            m.faults(),
            FaultCounters {
                dropped: 2,
                duplicated: 1,
                duplicates_suppressed: 1,
                partition_rejects: 1,
                crash_rejects: 1,
                crashes: 1,
            }
        );
    }

    #[test]
    fn totals_sums_every_class_at_once() {
        let m = FabricMetrics::new(2);
        m.link(0, 0).record(TrafficClass::Data, 10);
        m.link(0, 1).record(TrafficClass::Data, 20);
        m.link(1, 0).record(TrafficClass::Progress, 5);
        m.link(1, 1).record(TrafficClass::Progress, 3);

        for include_loopback in [true, false] {
            let t = m.totals(include_loopback);
            assert_eq!(t.data, m.total(TrafficClass::Data, include_loopback));
            assert_eq!(
                t.progress,
                m.total(TrafficClass::Progress, include_loopback)
            );
        }
        assert_eq!(
            m.totals(true),
            TrafficTotals {
                data: ClassCounters {
                    bytes: 30,
                    messages: 2
                },
                progress: ClassCounters {
                    bytes: 8,
                    messages: 2
                },
                control: ClassCounters::default(),
            }
        );
        assert_eq!(m.totals(false).data.bytes, 20);
        assert_eq!(m.totals(false).progress.bytes, 5);
    }

    #[test]
    fn control_class_is_metered_separately() {
        let m = FabricMetrics::new(2);
        m.link(0, 1).record(TrafficClass::Control, 16);
        m.link(0, 1).record(TrafficClass::Data, 100);
        let c = m.link_counters(0, 1);
        assert_eq!(
            c.control,
            ClassCounters {
                bytes: 16,
                messages: 1
            }
        );
        assert_eq!(c.data.bytes, 100);
        // Control bytes never leak into the paper's data/progress figures.
        assert_eq!(m.network_bytes(TrafficClass::Data), 100);
        assert_eq!(m.network_bytes(TrafficClass::Progress), 0);
        assert_eq!(m.network_bytes(TrafficClass::Control), 16);
        assert_eq!(m.totals(false).control.messages, 1);
    }

    #[test]
    fn duplicate_suppression_accounting_balances() {
        let m = FabricMetrics::new(2);
        // The fabric delivered three duplicate copies; receivers suppressed
        // two of them (one slipped through before dedup state existed).
        m.record_duplicated();
        m.record_duplicated();
        m.record_duplicated();
        m.record_duplicate_suppressed();
        m.record_duplicate_suppressed();

        let f = m.faults();
        assert_eq!(f.duplicated, 3);
        assert_eq!(f.duplicates_suppressed, 2);
        // Suppression can never exceed the duplicates actually injected.
        assert!(f.duplicates_suppressed <= f.duplicated);
        // No unrelated counters moved.
        assert_eq!(f.dropped, 0);
        assert_eq!(f.partition_rejects, 0);
        assert_eq!(f.crash_rejects, 0);
        assert_eq!(f.crashes, 0);
    }

    #[test]
    fn totals_respect_loopback_flag() {
        let m = FabricMetrics::new(2);
        m.link(0, 0).record(TrafficClass::Data, 10);
        m.link(0, 1).record(TrafficClass::Data, 20);
        assert_eq!(m.total(TrafficClass::Data, true).bytes, 30);
        assert_eq!(m.total(TrafficClass::Data, false).bytes, 20);
        assert_eq!(m.network_bytes(TrafficClass::Data), 20);
        assert_eq!(m.network_bytes(TrafficClass::Progress), 0);
    }
}
