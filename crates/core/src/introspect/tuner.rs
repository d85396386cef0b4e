//! The autotuner: closes the loop from critical-path summaries back into
//! runtime knobs.
//!
//! The paper tunes Naiad by hand — Figure 6a sweeps the exchange batch
//! size. The [`Autotuner`] automates that online: it watches the per-epoch
//! [`CriticalPathSummary`] stream produced by the observer dataflow and
//! hill-climbs the [`TuningKnobs`](crate::runtime::TuningKnobs) the
//! runtime reads dynamically.
//!
//! Guard rails, in order of importance:
//!
//! * **Bounded**: batch size stays within `[1, 65536]`. A misbehaving
//!   cost signal cannot drive the runtime into a pathological
//!   configuration.
//! * **Hysteresis**: a move must improve the windowed cost by at least
//!   5% to be kept; anything inside the band reads as noise and reverts.
//! * **Revert on regression**: a move that makes the cost measurably
//!   worse is undone immediately; after probing both directions the
//!   tuner settles and stops adjusting.
//!
//! The tuner itself is pure — [`Autotuner::observe`] returns the
//! [`TuningDecision`]s it made and mutates only the shared knobs; the
//! caller records them as
//! [`TelemetryEvent::TuningDecision`](crate::telemetry::TelemetryEvent)
//! so decisions land in the same telemetry stream they were derived from.

use crate::runtime::TuningKnobs;
use crate::telemetry::TuningKnob;

use super::activity::CriticalPathSummary;

/// One knob adjustment made by the [`Autotuner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuningDecision {
    /// The epoch whose summary triggered the adjustment.
    pub epoch: u64,
    /// Which knob was adjusted.
    pub knob: TuningKnob,
    /// Value before.
    pub from: u64,
    /// Value after.
    pub to: u64,
}

/// Direction the batch-size hill-climb is currently probing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    Up,
    Down,
}

impl Direction {
    fn flip(self) -> Direction {
        match self {
            Direction::Up => Direction::Down,
            Direction::Down => Direction::Up,
        }
    }
}

/// Online hill-climber over the shared [`TuningKnobs`].
///
/// Feed it every [`CriticalPathSummary`] in epoch order; it averages
/// `span_ns` over a small window, then doubles or halves the exchange
/// batch size while the windowed cost keeps improving by more than the
/// hysteresis band, reverting and settling once it stops.
#[derive(Debug)]
pub struct Autotuner {
    knobs: TuningKnobs,
    window: u32,
    /// Hysteresis band in thousandths (50 = 5%).
    hysteresis_milli: u64,
    min_batch: usize,
    max_batch: usize,
    min_credit: usize,
    max_credit: usize,
    min_pool: usize,
    max_pool: usize,
    // Measurement window.
    seen: u32,
    span_acc: u64,
    wait_acc: u64,
    transit_acc: u64,
    // Batch-size climb state.
    last_cost: Option<u64>,
    direction: Direction,
    flipped: bool,
    settled: bool,
}

impl Autotuner {
    /// A tuner driving the given knobs with the default window (2
    /// epochs), hysteresis (5%), and bounds.
    #[must_use]
    pub fn new(knobs: TuningKnobs) -> Self {
        Autotuner {
            knobs,
            window: 2,
            hysteresis_milli: 50,
            min_batch: 1,
            max_batch: 65_536,
            min_credit: 64 << 10,
            max_credit: 1 << 30,
            min_pool: 4 << 20,
            max_pool: 1 << 30,
            seen: 0,
            span_acc: 0,
            wait_acc: 0,
            transit_acc: 0,
            last_cost: None,
            direction: Direction::Up,
            flipped: false,
            settled: false,
        }
    }

    /// Whether the batch-size climb has settled (no further adjustments
    /// will be made).
    #[must_use]
    pub fn settled(&self) -> bool {
        self.settled
    }

    /// Folds in one epoch's summary; returns the decisions made (empty
    /// while a measurement window is still filling).
    pub fn observe(&mut self, summary: &CriticalPathSummary) -> Vec<TuningDecision> {
        self.span_acc += summary.span_ns;
        self.wait_acc += summary.credit_wait_ns;
        self.transit_acc += summary.transit_bytes;
        self.seen += 1;
        if self.seen < self.window {
            return Vec::new();
        }
        let cost = self.span_acc / u64::from(self.window);
        let wait = self.wait_acc / u64::from(self.window);
        let transit = self.transit_acc / u64::from(self.window);
        self.seen = 0;
        self.span_acc = 0;
        self.wait_acc = 0;
        self.transit_acc = 0;

        let mut decisions = Vec::new();
        self.tune_batch(summary.epoch, cost, &mut decisions);
        self.tune_credit(summary.epoch, cost, wait, &mut decisions);
        self.tune_pool(summary.epoch, transit, &mut decisions);
        decisions
    }

    /// One hill-climb step on the exchange batch size.
    fn tune_batch(&mut self, epoch: u64, cost: u64, decisions: &mut Vec<TuningDecision>) {
        if self.settled {
            return;
        }
        let current = self.knobs.batch_size();
        let Some(last) = self.last_cost else {
            // First window: baseline measured, start probing upward.
            self.last_cost = Some(cost);
            self.move_batch(epoch, current, self.step(current), decisions);
            return;
        };
        let h = self.hysteresis_milli;
        if cost.saturating_mul(1000) <= last.saturating_mul(1000 - h) {
            // Measurably better: keep climbing in the same direction.
            self.last_cost = Some(cost);
            let next = self.step(current);
            if next == current {
                self.settled = true; // pinned at a bound
            } else {
                self.move_batch(epoch, current, next, decisions);
            }
        } else {
            // Worse, or inside the noise band: the previous setting wins.
            // `last_cost` still describes it, so it stays the baseline.
            let previous = self.unstep(current);
            if self.flipped || previous == current {
                // Both directions probed (or nowhere to go): settle there.
                self.settled = true;
                self.move_batch(epoch, current, previous, decisions);
            } else {
                // First regression: probe the other side of the baseline.
                self.flipped = true;
                self.direction = self.direction.flip();
                self.move_batch(epoch, current, self.step(previous), decisions);
            }
        }
    }

    /// Grows the data-plane credit budget when backpressure dominates
    /// the epoch: a windowed credit-wait share of 10% or more of the
    /// epoch span doubles the budget, clamped to `[64 KiB, 1 GiB]`.
    /// Growth-only — shrinking on a quiet window would oscillate against
    /// the very waits the larger budget just eliminated.
    fn tune_credit(&mut self, epoch: u64, cost: u64, wait: u64, decisions: &mut Vec<TuningDecision>) {
        if wait.saturating_mul(10) < cost.max(1) {
            return;
        }
        let current = self.knobs.credit_budget();
        let target = current
            .saturating_mul(2)
            .clamp(self.min_credit, self.max_credit);
        if target != current {
            self.knobs.set_credit_budget(target);
            decisions.push(TuningDecision {
                epoch,
                knob: TuningKnob::CreditBudget,
                from: current as u64,
                to: target as u64,
            });
        }
    }

    /// Grows the slab-pool resident cap when an epoch's remote traffic
    /// overflows it: slabs discarded because the pool is full are
    /// allocations the next epoch pays again, so the cap doubles until a
    /// window's transit volume fits, clamped to `[4 MiB, 1 GiB]`.
    /// Growth-only, for the same reason as the credit budget.
    fn tune_pool(&mut self, epoch: u64, transit: u64, decisions: &mut Vec<TuningDecision>) {
        let current = self.knobs.pool_resident_cap();
        if transit <= current as u64 {
            return;
        }
        let target = current
            .saturating_mul(2)
            .clamp(self.min_pool, self.max_pool);
        if target != current {
            self.knobs.set_pool_resident_cap(target);
            decisions.push(TuningDecision {
                epoch,
                knob: TuningKnob::PoolResidentCap,
                from: current as u64,
                to: target as u64,
            });
        }
    }

    /// The next batch size in the current probe direction, clamped.
    fn step(&self, from: usize) -> usize {
        match self.direction {
            Direction::Up => (from.saturating_mul(2)).min(self.max_batch),
            Direction::Down => (from / 2).max(self.min_batch),
        }
    }

    /// The batch size the last move departed from.
    fn unstep(&self, current: usize) -> usize {
        match self.direction {
            Direction::Up => (current / 2).max(self.min_batch),
            Direction::Down => (current.saturating_mul(2)).min(self.max_batch),
        }
    }

    fn move_batch(
        &mut self,
        epoch: u64,
        from: usize,
        to: usize,
        decisions: &mut Vec<TuningDecision>,
    ) {
        if from == to {
            return;
        }
        self.knobs.set_batch_size(to);
        decisions.push(TuningDecision {
            epoch,
            knob: TuningKnob::BatchSize,
            from: from as u64,
            to: to as u64,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A summary whose only meaningful fields are the ones the tuner
    /// reads: `epoch`, `span_ns`, `progress_updates`.
    fn summary(epoch: u64, span_ns: u64, progress_updates: u64) -> CriticalPathSummary {
        CriticalPathSummary {
            epoch,
            workers: 2,
            span_ns,
            critical_worker: 0,
            critical_path_ns: span_ns,
            busy_total_ns: span_ns,
            busy_max_ns: span_ns,
            busy_min_ns: 0,
            idle_ns: 0,
            skew_milli: 1000,
            transit_msgs: 0,
            transit_records: 0,
            transit_bytes: 0,
            progress_batches: 0,
            progress_updates,
            notifications: 0,
            credit_waits: 0,
            credit_wait_ns: 0,
            samples: 1,
        }
    }

    /// Synthetic U-shaped cost: minimized at batch size 512, growing by
    /// 30% per power-of-two step away from it.
    fn cost_of(batch: usize) -> u64 {
        let log = |mut b: usize| {
            let mut l = 0i64;
            while b > 1 {
                b /= 2;
                l += 1;
            }
            l
        };
        let distance = (log(batch) - log(512)).unsigned_abs();
        1_000_000 + 300_000 * distance
    }

    /// Drives the tuner against the synthetic cost until it settles and
    /// returns the final batch size and the decision trace.
    fn converge(start: usize) -> (usize, Vec<TuningDecision>) {
        let knobs = TuningKnobs::with_batch_size(start);
        let mut tuner = Autotuner::new(knobs.clone());
        let mut decisions = Vec::new();
        for epoch in 0..64 {
            let span = cost_of(knobs.batch_size());
            decisions.extend(tuner.observe(&summary(epoch, span, 1)));
            if tuner.settled() {
                break;
            }
        }
        (knobs.batch_size(), decisions)
    }

    #[test]
    fn converges_to_the_optimum_from_below() {
        let (batch, decisions) = converge(64);
        assert_eq!(batch, 512);
        assert!(!decisions.is_empty());
        assert!(decisions
            .iter()
            .all(|d| d.knob == TuningKnob::BatchSize && d.to >= 1 && d.to <= 65_536));
    }

    #[test]
    fn converges_to_the_optimum_from_above() {
        let (batch, _) = converge(8192);
        assert_eq!(batch, 512);
    }

    #[test]
    fn settles_at_the_start_when_it_is_already_optimal() {
        let (batch, _) = converge(512);
        // One probe up, one revert: ends where it began.
        assert_eq!(batch, 512);
    }

    #[test]
    fn flat_cost_reverts_within_the_hysteresis_band() {
        let knobs = TuningKnobs::with_batch_size(256);
        let mut tuner = Autotuner::new(knobs.clone());
        // Constant cost: the probe move shows no ≥5% improvement, so the
        // tuner reverts to the baseline and settles.
        for epoch in 0..8 {
            tuner.observe(&summary(epoch, 1_000_000, 1));
        }
        assert!(tuner.settled());
        assert_eq!(knobs.batch_size(), 256);
    }

    #[test]
    fn credit_budget_grows_under_sustained_backpressure_and_stays_clamped() {
        let knobs = TuningKnobs::with_batch_size(512);
        knobs.set_credit_budget(1 << 20);
        let mut tuner = Autotuner::new(knobs.clone());
        // 40% of the epoch spent waiting for credit: budget doubles once
        // per window until the 1 GiB clamp.
        let mut grew = Vec::new();
        for epoch in 0..64 {
            let mut s = summary(epoch, 1_000_000, 1);
            s.credit_waits = 5;
            s.credit_wait_ns = 400_000;
            grew.extend(
                tuner
                    .observe(&s)
                    .into_iter()
                    .filter(|d| d.knob == TuningKnob::CreditBudget),
            );
        }
        assert!(!grew.is_empty());
        assert!(grew.iter().all(|d| d.to == (d.from * 2).min(1 << 30)));
        assert_eq!(knobs.credit_budget(), 1 << 30, "pinned at the clamp");
        // A calm stream (no waits) never shrinks the budget.
        for epoch in 64..72 {
            let calm: Vec<_> = tuner
                .observe(&summary(epoch, 1_000_000, 1))
                .into_iter()
                .filter(|d| d.knob == TuningKnob::CreditBudget)
                .collect();
            assert!(calm.is_empty());
        }
        assert_eq!(knobs.credit_budget(), 1 << 30);
    }

    #[test]
    fn pool_cap_grows_to_fit_transit_volume_and_stays_clamped() {
        let knobs = TuningKnobs::with_batch_size(512);
        assert_eq!(knobs.pool_resident_cap(), 32 << 20);
        let mut tuner = Autotuner::new(knobs.clone());
        // 256 MiB of remote traffic per epoch: the 32 MiB default cap
        // doubles once per window until the traffic fits (256 MiB).
        let mut grew = Vec::new();
        for epoch in 0..64 {
            let mut s = summary(epoch, 1_000_000, 1);
            s.transit_bytes = 256 << 20;
            grew.extend(
                tuner
                    .observe(&s)
                    .into_iter()
                    .filter(|d| d.knob == TuningKnob::PoolResidentCap),
            );
        }
        assert!(!grew.is_empty());
        assert!(grew.iter().all(|d| d.to == d.from * 2 && d.to <= 1 << 30));
        assert_eq!(knobs.pool_resident_cap(), 256 << 20);
        // Calm traffic never shrinks the cap.
        for epoch in 64..72 {
            let calm: Vec<_> = tuner
                .observe(&summary(epoch, 1_000_000, 1))
                .into_iter()
                .filter(|d| d.knob == TuningKnob::PoolResidentCap)
                .collect();
            assert!(calm.is_empty());
        }
        assert_eq!(knobs.pool_resident_cap(), 256 << 20);
    }

    #[test]
    fn decisions_stay_within_bounds_under_adversarial_costs() {
        // A cost that always "improves" drives the climb to the bound,
        // where it settles instead of overflowing.
        let knobs = TuningKnobs::with_batch_size(16_384);
        let mut tuner = Autotuner::new(knobs.clone());
        let mut span = 64_000_000u64;
        for epoch in 0..64 {
            tuner.observe(&summary(epoch, span, 1));
            span = span * 80 / 100; // monotone 20% improvement
            if tuner.settled() {
                break;
            }
        }
        assert!(knobs.batch_size() <= 65_536);
        assert!(tuner.settled());
    }
}
