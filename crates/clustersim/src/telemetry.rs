//! Phase-level telemetry for the simulated cluster.
//!
//! The real runtime's registry (`naiad::telemetry`) aggregates measured
//! events; the simulator mirrors the same shape at phase granularity so
//! the figure harnesses can report *where* simulated wall-clock went —
//! compute, exchange, or coordination — and how much of it was
//! micro-straggler delay (§3.5).

use crate::model::PhaseStats;

/// Aggregates over one kind of simulated phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseAgg {
    /// Phases simulated.
    pub phases: u64,
    /// Total simulated seconds.
    pub seconds: f64,
    /// Seconds attributable to micro-stragglers.
    pub straggler_seconds: f64,
    /// Phases struck by at least one straggler.
    pub struck: u64,
    /// Worst single straggler delay, seconds.
    pub worst_straggler: f64,
}

impl PhaseAgg {
    fn record(&mut self, stats: PhaseStats) {
        self.phases += 1;
        self.seconds += stats.duration;
        self.straggler_seconds += stats.straggler_delay;
        if stats.straggler_delay > 0.0 {
            self.struck += 1;
        }
        if stats.straggler_delay > self.worst_straggler {
            self.worst_straggler = stats.straggler_delay;
        }
    }
}

/// Where a simulated run's wall-clock went, by phase kind.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimTelemetry {
    /// Computation phases.
    pub compute: PhaseAgg,
    /// All-to-all exchange phases.
    pub exchange: PhaseAgg,
    /// Progress-coordination rounds (§3.3).
    pub coordination: PhaseAgg,
    /// Elastic-rescale stalls (quiesce + snapshot + transfer + restore +
    /// replay).
    pub rescale: PhaseAgg,
}

impl SimTelemetry {
    pub(crate) fn record_compute(&mut self, stats: PhaseStats) {
        self.compute.record(stats);
    }

    pub(crate) fn record_exchange(&mut self, stats: PhaseStats) {
        self.exchange.record(stats);
    }

    pub(crate) fn record_coordination(&mut self, stats: PhaseStats) {
        self.coordination.record(stats);
    }

    pub(crate) fn record_rescale(&mut self, stats: PhaseStats) {
        self.rescale.record(stats);
    }

    /// Total simulated seconds across every phase kind.
    pub fn total_seconds(&self) -> f64 {
        self.compute.seconds
            + self.exchange.seconds
            + self.coordination.seconds
            + self.rescale.seconds
    }

    /// Total straggler-attributable seconds.
    pub fn straggler_seconds(&self) -> f64 {
        self.compute.straggler_seconds
            + self.exchange.straggler_seconds
            + self.coordination.straggler_seconds
            + self.rescale.straggler_seconds
    }

    /// A per-phase-kind breakdown table, mirroring the real registry's
    /// `summary_table` format.
    pub fn summary_table(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "== simulated phases ==");
        let _ = writeln!(
            s,
            "{:<13} {:>8} {:>12} {:>13} {:>7} {:>12}",
            "phase", "count", "seconds", "straggler_s", "struck", "worst_ms"
        );
        for (name, agg) in [
            ("compute", &self.compute),
            ("exchange", &self.exchange),
            ("coordination", &self.coordination),
            ("rescale", &self.rescale),
        ] {
            let _ = writeln!(
                s,
                "{:<13} {:>8} {:>12.6} {:>13.6} {:>7} {:>12.3}",
                name,
                agg.phases,
                agg.seconds,
                agg.straggler_seconds,
                agg.struck,
                agg.worst_straggler * 1e3
            );
        }
        let total = self.total_seconds();
        let stragglers = self.straggler_seconds();
        let share = if total > 0.0 {
            100.0 * stragglers / total
        } else {
            0.0
        };
        let _ = writeln!(
            s,
            "total: {total:.6} s simulated, {stragglers:.6} s ({share:.1}%) lost to stragglers"
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use crate::model::{ClusterSim, ClusterSpec, StragglerModel};

    #[test]
    fn telemetry_accounts_for_every_phase() {
        let mut spec = ClusterSpec::paper_cluster(4);
        spec.straggler = StragglerModel::none();
        let mut sim = ClusterSim::new(spec, 1);
        sim.compute_phase(0.1);
        sim.compute_phase(0.2);
        sim.exchange_phase(1.0e6);
        sim.coordination_round();

        let t = sim.telemetry();
        assert_eq!(t.compute.phases, 2);
        assert_eq!(t.exchange.phases, 1);
        assert_eq!(t.coordination.phases, 1);
        assert_eq!(t.compute.struck, 0, "no stragglers configured");
        assert!((t.total_seconds() - sim.now()).abs() < 1e-12);
    }

    #[test]
    fn stragglers_show_up_in_the_breakdown() {
        let spec = ClusterSpec::paper_cluster(64);
        let mut sim = ClusterSim::new(spec, 7);
        for _ in 0..2000 {
            sim.coordination_round();
        }
        let t = sim.telemetry();
        assert_eq!(t.coordination.phases, 2000);
        assert!(t.coordination.struck > 0, "64 computers must be struck");
        assert!(t.coordination.straggler_seconds > 0.0);
        assert!(t.coordination.worst_straggler >= 0.020, "a retransmit hit");
        let table = t.summary_table();
        assert!(table.contains("== simulated phases =="));
        assert!(table.contains("coordination"));
        assert!(table.contains("lost to stragglers"));
    }
}
