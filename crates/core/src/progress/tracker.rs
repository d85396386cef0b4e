//! The pointstamp table: occurrence counts, precursor counts, frontier
//! (§2.3), tolerant of the transiently negative counts that arise in the
//! distributed protocol (§3.3).

use std::collections::HashMap;
use std::sync::Arc;

use crate::graph::{Location, LogicalGraph};
use crate::order::PartialOrder;
use crate::time::Timestamp;

use super::{Pointstamp, ProgressUpdate};

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    /// Net occurrence count. May be negative while a creation update from
    /// one worker races a retirement update from another; a non-positive
    /// entry is simply not *active*.
    occurrence: i64,
    /// Number of *other* active pointstamps that could-result-in this one.
    /// Maintained only while active.
    precursor: usize,
}

/// Tracks active pointstamps and their frontier.
///
/// All mutation flows through [`PointstampTable::apply`], which applies the
/// §2.3 update rules: `SendBy`/`NotifyAt` contribute `+1`, delivered
/// `OnRecv`/`OnNotify` contribute `−1`. The *frontier* is the set of
/// active pointstamps with zero precursor count; a notification may be
/// delivered exactly when its pointstamp is in the frontier.
#[derive(Debug, Clone)]
pub struct PointstampTable {
    graph: Arc<LogicalGraph>,
    entries: HashMap<Pointstamp, Entry>,
}

impl PointstampTable {
    /// An empty table reasoning over `graph`'s could-result-in relation,
    /// with no a-priori input state. Prefer
    /// [`PointstampTable::initialized`] for live views.
    pub fn new(graph: Arc<LogicalGraph>) -> Self {
        PointstampTable {
            graph,
            entries: HashMap::new(),
        }
    }

    /// A table holding §2.3's initial state: one active pointstamp per
    /// input vertex instance at the first epoch, for `total_workers`
    /// instances per stage. Derived from the graph by every worker at
    /// startup rather than broadcast, so no local view is ever vacuously
    /// complete.
    pub fn initialized(graph: Arc<LogicalGraph>, total_workers: usize) -> Self {
        let mut table = PointstampTable::new(graph);
        let inputs: Vec<_> = table.graph.input_stages().collect();
        for stage in inputs {
            table.update(
                Pointstamp::at_vertex(Timestamp::new(0), stage),
                total_workers as i64,
            );
        }
        table
    }

    /// The graph this table reasons over.
    pub fn graph(&self) -> &Arc<LogicalGraph> {
        &self.graph
    }

    fn could_result_in(&self, a: &Pointstamp, b: &Pointstamp) -> bool {
        self.graph
            .summaries()
            .could_result_in(&a.time, a.location, &b.time, b.location)
    }

    /// Applies one occurrence-count update.
    pub fn update(&mut self, pointstamp: Pointstamp, delta: i64) {
        if delta == 0 {
            return;
        }
        let entry = self.entries.entry(pointstamp).or_default();
        let was_active = entry.occurrence > 0;
        entry.occurrence += delta;
        let now_active = entry.occurrence > 0;
        let occurrence = entry.occurrence;

        match (was_active, now_active) {
            (false, true) => self.activate(pointstamp),
            (true, false) => self.deactivate(pointstamp),
            _ => {}
        }
        if occurrence == 0 {
            self.entries.remove(&pointstamp);
        }
    }

    /// Applies a batch of updates.
    pub fn apply<I: IntoIterator<Item = ProgressUpdate>>(&mut self, updates: I) {
        for (p, delta) in updates {
            self.update(p, delta);
        }
    }

    fn activate(&mut self, p: Pointstamp) {
        let mut precursor = 0;
        let others: Vec<Pointstamp> = self
            .entries
            .iter()
            .filter(|(q, e)| **q != p && e.occurrence > 0)
            .map(|(q, _)| *q)
            .collect();
        for q in others {
            if self.could_result_in(&q, &p) {
                precursor += 1;
            }
            if self.could_result_in(&p, &q) {
                self.entries
                    .get_mut(&q)
                    .expect("q was just enumerated")
                    .precursor += 1;
            }
        }
        self.entries
            .get_mut(&p)
            .expect("p was just inserted")
            .precursor = precursor;
    }

    fn deactivate(&mut self, p: Pointstamp) {
        let others: Vec<Pointstamp> = self
            .entries
            .iter()
            .filter(|(q, e)| **q != p && e.occurrence > 0)
            .map(|(q, _)| *q)
            .collect();
        for q in others {
            if self.could_result_in(&p, &q) {
                let e = self.entries.get_mut(&q).expect("q was just enumerated");
                debug_assert!(e.precursor > 0, "precursor underflow at {q:?}");
                e.precursor = e.precursor.saturating_sub(1);
            }
        }
    }

    /// Net occurrence count for a pointstamp (zero if absent).
    pub fn occurrence(&self, p: &Pointstamp) -> i64 {
        self.entries.get(p).map_or(0, |e| e.occurrence)
    }

    /// Whether `p` is active (positive occurrence count).
    pub fn is_active(&self, p: &Pointstamp) -> bool {
        self.entries.get(p).is_some_and(|e| e.occurrence > 0)
    }

    /// Whether `p` is in the frontier: active with no active precursor.
    pub fn in_frontier(&self, p: &Pointstamp) -> bool {
        self.entries
            .get(p)
            .is_some_and(|e| e.occurrence > 0 && e.precursor == 0)
    }

    /// The frontier, sorted canonically for deterministic delivery order.
    pub fn frontier(&self) -> Vec<Pointstamp> {
        let mut out: Vec<Pointstamp> = self
            .entries
            .iter()
            .filter(|(_, e)| e.occurrence > 0 && e.precursor == 0)
            .map(|(p, _)| *p)
            .collect();
        out.sort_by_key(|p| {
            let mut counters = [0u64; crate::time::MAX_LOOP_DEPTH];
            counters[..p.time.depth()].copy_from_slice(p.time.counters.as_slice());
            (p.location, p.time.epoch, counters)
        });
        out
    }

    /// Whether no active pointstamp could-result-in `(time, location)`:
    /// the completeness test used by probes and purge notifications.
    ///
    /// Note this is stricter than frontier membership: an active
    /// pointstamp *at* `(time, location)` itself also blocks completion.
    pub fn done_through(&self, time: &Timestamp, location: Location) -> bool {
        let target = Pointstamp {
            time: *time,
            location,
        };
        !self
            .entries
            .iter()
            .any(|(q, e)| e.occurrence > 0 && self.could_result_in(q, &target))
    }

    /// Whether a notification guaranteed not before `time` at `location`
    /// may fire: no *other* active pointstamp could-result-in it. This is
    /// the frontier test for a notification the table already counts.
    pub fn notification_ready(&self, p: &Pointstamp) -> bool {
        self.in_frontier(p)
    }

    /// The lower bound on future times at `location`: timestamps `t` such
    /// that events may still occur at `(t, location)`. Empty means no
    /// future events are possible there.
    pub fn lower_bound(&self, location: Location) -> Vec<Timestamp> {
        let mut bounds: Vec<Timestamp> = Vec::new();
        for (q, e) in &self.entries {
            if e.occurrence <= 0 {
                continue;
            }
            for s in self
                .graph
                .summaries()
                .between(q.location, location)
                .elements()
            {
                let t = s.apply(&q.time);
                if !bounds.iter().any(|b| b.less_equal(&t)) {
                    bounds.retain(|b| !t.less_equal(b));
                    bounds.push(t);
                }
            }
        }
        bounds
    }

    /// True when no entries remain: every occurrence has been matched by a
    /// retirement and the computation has quiesced.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of active pointstamps.
    pub fn active_count(&self) -> usize {
        self.entries.values().filter(|e| e.occurrence > 0).count()
    }

    /// Iterates the active pointstamps (positive occurrence), in no
    /// particular order. The model-checker's safety oracle enumerates the
    /// omniscient reference table through this.
    pub fn active(&self) -> impl Iterator<Item = Pointstamp> + '_ {
        self.entries
            .iter()
            .filter(|(_, e)| e.occurrence > 0)
            .map(|(p, _)| *p)
    }

    /// The smallest epoch among *all* active pointstamps — messages and
    /// notifications at any location, not just input vertices. This is
    /// the epoch of the oldest work the dataflow can still perform, and
    /// it is monotone per worker for the same §3.3 reasons as
    /// [`PointstampTable::input_frontier_epoch`]. Telemetry schedule
    /// events attribute scheduling slices to this epoch.
    pub fn min_epoch(&self) -> Option<u64> {
        self.active().map(|p| p.time.epoch).min()
    }

    /// The migration frontier barrier: `true` when no active pointstamp —
    /// message or notification, at any location — carries an epoch at or
    /// below `epoch`. A rescale may only move state once this holds for
    /// the fence's predecessor: every epoch the old membership owned is
    /// then fully drained, so the sharded snapshot is consistent and the
    /// new membership's pointstamp accounting starts from a clean slate
    /// (its fresh [`PointstampTable::initialized`] seeds input stamps at
    /// the fence, not behind it).
    pub fn closed_through(&self, epoch: u64) -> bool {
        self.active().all(|p| p.time.epoch > epoch)
    }

    /// The minimum open input epoch: the smallest epoch among active
    /// pointstamps held at input vertices, or `None` once every input
    /// has closed. Per worker this value is monotone — `advance_to`
    /// journals the new epoch's `+1` before the old epoch's `−1`, and
    /// progress batches apply atomically — which is the §3.3 guarantee
    /// that a local view never moves backwards. The telemetry frontier
    /// probe samples exactly this quantity.
    pub fn input_frontier_epoch(&self) -> Option<u64> {
        let mut min: Option<u64> = None;
        for (p, e) in &self.entries {
            if e.occurrence <= 0 {
                continue;
            }
            let Location::Vertex(stage) = p.location else {
                continue;
            };
            if !self.graph.input_stages().any(|s| s == stage) {
                continue;
            }
            min = Some(match min {
                Some(m) => m.min(p.time.epoch),
                None => p.time.epoch,
            });
        }
        min
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ConnectorId, ContextId, GraphBuilder, StageId, StageKind};

    fn ts(epoch: u64, counters: &[u64]) -> Timestamp {
        Timestamp::with_counters(epoch, counters)
    }

    /// input(0) → ingress(1) → body(3) ⇄ feedback(2); body → egress(4) → out(5).
    fn loop_graph() -> Arc<LogicalGraph> {
        let mut g = GraphBuilder::new();
        let input = g.add_stage("in", StageKind::Input, ContextId::ROOT, 0, 1);
        let ctx = g.add_context(ContextId::ROOT);
        let ingress = g.add_ingress("I", ctx);
        let feedback = g.add_feedback("F", ctx);
        let body = g.add_stage("body", StageKind::Regular, ctx, 2, 1);
        let egress = g.add_egress("E", ctx);
        let out = g.add_stage("out", StageKind::Regular, ContextId::ROOT, 1, 0);
        g.connect(input, 0, ingress, 0);
        g.connect(ingress, 0, body, 0);
        g.connect(feedback, 0, body, 1);
        g.connect(body, 0, feedback, 0);
        g.connect(body, 0, egress, 0);
        g.connect(egress, 0, out, 0);
        Arc::new(g.build().unwrap())
    }

    const INPUT: StageId = StageId(0);
    const BODY: StageId = StageId(3);
    const OUT: StageId = StageId(5);

    #[test]
    fn input_epoch_blocks_downstream_notifications() {
        let mut t = PointstampTable::new(loop_graph());
        // The input vertex holds epoch 0 open (§2.3 initialization).
        let input0 = Pointstamp::at_vertex(ts(0, &[]), INPUT);
        t.update(input0, 1);
        // A notification request at the output for epoch 0.
        let out0 = Pointstamp::at_vertex(ts(0, &[]), OUT);
        t.update(out0, 1);
        assert!(t.in_frontier(&input0));
        assert!(!t.in_frontier(&out0), "input could still produce epoch 0");
        assert!(!t.notification_ready(&out0));

        // Epoch 0 completes: +1 at epoch 1, then −1 at epoch 0.
        t.update(Pointstamp::at_vertex(ts(1, &[]), INPUT), 1);
        t.update(input0, -1);
        assert!(t.notification_ready(&out0), "epoch 0 is now complete");
    }

    #[test]
    fn loop_iterations_order_notifications() {
        let mut t = PointstampTable::new(loop_graph());
        let n3 = Pointstamp::at_vertex(ts(0, &[3]), BODY);
        let n4 = Pointstamp::at_vertex(ts(0, &[4]), BODY);
        t.update(n3, 1);
        t.update(n4, 1);
        assert!(t.in_frontier(&n3));
        assert!(!t.in_frontier(&n4), "iteration 3 could feed iteration 4");
        t.update(n3, -1);
        assert!(t.in_frontier(&n4));
    }

    #[test]
    fn messages_block_notifications_at_same_time() {
        let mut t = PointstampTable::new(loop_graph());
        // A message on the ingress→body connector (id 1) at iteration 0.
        let msg = Pointstamp::on_edge(ts(0, &[0]), ConnectorId(1));
        let note = Pointstamp::at_vertex(ts(0, &[0]), BODY);
        t.update(msg, 1);
        t.update(note, 1);
        assert!(!t.notification_ready(&note));
        t.update(msg, -1);
        assert!(t.notification_ready(&note));
    }

    #[test]
    fn transient_negative_counts_are_tolerated() {
        let mut t = PointstampTable::new(loop_graph());
        let p = Pointstamp::on_edge(ts(0, &[]), ConnectorId(0));
        // Retirement arrives before creation (different senders, §3.3).
        t.update(p, -1);
        assert!(!t.is_active(&p));
        assert!(!t.is_empty(), "negative entries keep the table non-empty");
        t.update(p, 1);
        assert!(t.is_empty(), "counts net out to quiescence");
    }

    #[test]
    fn frontier_is_sorted_and_minimal() {
        let mut t = PointstampTable::new(loop_graph());
        t.update(Pointstamp::at_vertex(ts(1, &[]), OUT), 1);
        t.update(Pointstamp::at_vertex(ts(0, &[]), OUT), 1);
        let f = t.frontier();
        assert_eq!(f.len(), 1, "epoch 0 at OUT precedes epoch 1 at OUT");
        assert_eq!(f[0].time.epoch, 0);
    }

    #[test]
    fn done_through_is_stricter_than_frontier() {
        let mut t = PointstampTable::new(loop_graph());
        let out0 = Pointstamp::at_vertex(ts(0, &[]), OUT);
        t.update(out0, 1);
        assert!(t.in_frontier(&out0));
        // The pointstamp itself is still outstanding.
        assert!(!t.done_through(&ts(0, &[]), Location::Vertex(OUT)));
        // But a *later* time is unaffected by nothing upstream... the
        // active pointstamp at epoch 0 could-result-in epoch 1? At the same
        // location: (0) ≤ (1), identity path, so no.
        assert!(!t.done_through(&ts(1, &[]), Location::Vertex(OUT)));
        t.update(out0, -1);
        assert!(t.done_through(&ts(0, &[]), Location::Vertex(OUT)));
    }

    #[test]
    fn lower_bound_projects_through_the_graph() {
        let mut t = PointstampTable::new(loop_graph());
        t.update(Pointstamp::at_vertex(ts(2, &[]), INPUT), 1);
        let lb = t.lower_bound(Location::Vertex(OUT));
        assert_eq!(lb, vec![ts(2, &[])]);
        let lb_body = t.lower_bound(Location::Vertex(BODY));
        assert_eq!(lb_body, vec![ts(2, &[0])]);
    }

    #[test]
    fn active_count_and_updates_batch() {
        let mut t = PointstampTable::new(loop_graph());
        let a = Pointstamp::at_vertex(ts(0, &[]), INPUT);
        let b = Pointstamp::at_vertex(ts(0, &[]), OUT);
        t.apply([(a, 2), (b, 1), (a, -1)]);
        assert_eq!(t.active_count(), 2);
        assert_eq!(t.occurrence(&a), 1);
        t.apply([(a, -1), (b, -1)]);
        assert!(t.is_empty());
    }

    #[test]
    fn input_frontier_epoch_tracks_open_inputs() {
        let mut t = PointstampTable::initialized(loop_graph(), 2);
        assert_eq!(t.input_frontier_epoch(), Some(0));
        // One worker advances to epoch 1: +1 before −1, min stays 0 while
        // the other worker's epoch-0 stamp is open.
        t.update(Pointstamp::at_vertex(ts(1, &[]), INPUT), 1);
        t.update(Pointstamp::at_vertex(ts(0, &[]), INPUT), -1);
        assert_eq!(t.input_frontier_epoch(), Some(0));
        t.update(Pointstamp::at_vertex(ts(1, &[]), INPUT), 1);
        t.update(Pointstamp::at_vertex(ts(0, &[]), INPUT), -1);
        assert_eq!(t.input_frontier_epoch(), Some(1));
        // Non-input pointstamps never count.
        t.update(Pointstamp::at_vertex(ts(0, &[]), OUT), 1);
        assert_eq!(t.input_frontier_epoch(), Some(1));
        t.update(Pointstamp::at_vertex(ts(1, &[]), INPUT), -2);
        assert_eq!(t.input_frontier_epoch(), None, "all inputs closed");
    }

    #[test]
    fn precursor_counts_update_symmetrically() {
        let mut t = PointstampTable::new(loop_graph());
        let early = Pointstamp::at_vertex(ts(0, &[1]), BODY);
        let late = Pointstamp::at_vertex(ts(0, &[5]), BODY);
        // Insert the late one first; activating the earlier one must bump
        // the later one's precursor count.
        t.update(late, 1);
        assert!(t.in_frontier(&late));
        t.update(early, 1);
        assert!(!t.in_frontier(&late));
        assert!(t.in_frontier(&early));
        t.update(early, -1);
        assert!(t.in_frontier(&late));
    }
}
