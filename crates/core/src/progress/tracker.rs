//! The pointstamp table: occurrence counts and the one could-result-in
//! query everything else is derived from (§2.3), tolerant of the
//! transiently negative counts that arise in the distributed protocol
//! (§3.3).

use std::cell::{OnceCell, RefCell};
use std::collections::hash_map::Entry;
use std::sync::Arc;

use naiad_wire::hash::KeyMap;

use crate::graph::{FollowArc, Location, LogicalGraph, StageKind};
use crate::order::PartialOrder;
use crate::time::Timestamp;

use super::{Pointstamp, ProgressUpdate};

/// Occurrence counts over pointstamps, and their frontier.
///
/// All mutation flows through [`PointstampTable::update`], which applies
/// the §2.3 rules: `SendBy`/`NotifyAt` contribute `+1`, delivered
/// `OnRecv`/`OnNotify` contribute `−1`. A pointstamp is *active* while its
/// net count is positive (a count may be negative while a creation from
/// one worker races a retirement from another), and *blocked* while some
/// other active pointstamp could-result-in it
/// ([`PointstampTable::blocked`]). The *frontier* is the active, unblocked
/// pointstamps; a notification may be delivered exactly when its
/// pointstamp is in the frontier.
///
/// An update costs one [`KeyMap`] probe; an activation also pushes its
/// time forward while the blockers are current, and a retirement nothing
/// else preceded drops them, for the next query to derive again.
#[derive(Debug, Clone)]
pub struct PointstampTable {
    graph: Arc<LogicalGraph>,
    /// Net occurrence counts; zero entries are elided.
    counts: KeyMap<Pointstamp, i64>,
    /// Per location (by `LogicalGraph::location_index`), the least time
    /// that blocks a pointstamp there — reached through an arc, or the
    /// successor of an active time there (`s < t` iff `s.successor() ≤ t`;
    /// times at one location are totally ordered) — or empty if stale.
    blockers: OnceCell<Blockers>,
    /// The last dropped blockers and the work list, for their allocations.
    spare: RefCell<(Blockers, Vec<(usize, Timestamp)>)>,
}

/// A time or none per location, as in `PointstampTable::blockers`.
type Blockers = Vec<Option<Timestamp>>;

/// Records newly active pointstamps in `blockers`, pushing forward those
/// no blocker precedes: what a preceded one reaches, its blocker's source
/// reaches at or before.
fn activate(
    graph: &LogicalGraph,
    blockers: &mut [Option<Timestamp>],
    work: &mut Vec<(usize, Timestamp)>,
    stamps: impl IntoIterator<Item = Pointstamp>,
) {
    for p in stamps {
        let at = graph.location_index(p.location);
        if !blockers[at].is_some_and(|b| b.less_equal(&p.time)) {
            work.push((at, p.time));
        }
        if let Some(next) = p.time.successor() {
            next.keep_in(&mut blockers[at]);
        }
    }
    graph.propagate_into(work, blockers);
}

/// Adds `delta` to `p`'s count with one probe of `counts`, removing a
/// count that reaches zero; returns the count before (the new one less
/// `delta`).
pub(super) fn add_count(counts: &mut KeyMap<Pointstamp, i64>, p: Pointstamp, delta: i64) -> i64 {
    match counts.entry(p) {
        Entry::Occupied(count) if *count.get() + delta == 0 => count.remove(),
        Entry::Occupied(mut count) => count.insert(*count.get() + delta),
        Entry::Vacant(_) if delta == 0 => 0,
        Entry::Vacant(slot) => *slot.insert(delta) - delta,
    }
}

impl PointstampTable {
    /// An empty table reasoning over `graph`'s could-result-in relation,
    /// with no a-priori input state. Prefer
    /// [`PointstampTable::initialized`] for live views.
    pub fn new(graph: Arc<LogicalGraph>) -> Self {
        PointstampTable {
            graph,
            counts: KeyMap::default(),
            blockers: OnceCell::new(),
            spare: RefCell::default(),
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

    /// Applies one occurrence-count update.
    pub fn update(&mut self, pointstamp: Pointstamp, delta: i64) {
        let before = add_count(&mut self.counts, pointstamp, delta);
        let (was_active, is_active) = (before > 0, before + delta > 0);
        if was_active == is_active {
            return;
        }
        let Some(blockers) = self.blockers.get_mut() else {
            return;
        };
        let at = self.graph.location_index(pointstamp.location);
        if is_active {
            activate(
                &self.graph,
                blockers,
                &mut self.spare.get_mut().1,
                [pointstamp],
            );
        } else if !blockers[at].is_some_and(|b| b.less_equal(&pointstamp.time)) {
            // A preceded pointstamp's reach was its blocker's too.
            self.spare.get_mut().0 = self.blockers.take().unwrap_or_default();
        }
    }

    /// Applies a batch of updates.
    pub fn apply<I: IntoIterator<Item = ProgressUpdate>>(&mut self, updates: I) {
        for (p, delta) in updates {
            self.update(p, delta);
        }
    }

    /// Whether an active pointstamp *other than* `p` could-result-in `p`:
    /// the one question §2.3 and §3.3 ask of the counts. Frontier
    /// membership, completeness and the accumulator's holding rule are
    /// each this predicate combined with whether `p` itself is active.
    ///
    /// A lookup at `p`'s location (whose depth `p.time` has). It does not
    /// set `p`'s own reach apart: what `p` reaches around a cycle counts
    /// too, which is sound only because no cycle has a zero-delay summary —
    /// such a cycle would bring `p.time` back and block `p` on itself.
    /// `NA0001` rejects those graphs at
    /// [`GraphBuilder::build_checked`](crate::graph::GraphBuilder::build_checked).
    pub fn blocked(&self, p: &Pointstamp) -> bool {
        let at = self.graph.location_index(p.location);
        self.blockers()[at].is_some_and(|b| b.less_equal(&p.time))
    }

    /// The blockers, derived from every active pointstamp if dropped.
    fn blockers(&self) -> &[Option<Timestamp>] {
        self.blockers.get_or_init(|| {
            let (spare, work) = &mut *self.spare.borrow_mut();
            let mut blockers = std::mem::take(spare);
            blockers.clear();
            blockers.resize(self.graph.arcs.len(), None);
            activate(&self.graph, &mut blockers, work, self.active());
            blockers
        })
    }

    /// Net occurrence count for a pointstamp (zero if absent).
    pub fn occurrence(&self, p: &Pointstamp) -> i64 {
        self.counts.get(p).copied().unwrap_or(0)
    }

    /// Whether `p` is active (positive occurrence count).
    pub fn is_active(&self, p: &Pointstamp) -> bool {
        self.occurrence(p) > 0
    }

    /// Whether `p` is in the frontier: active, and not blocked. This is
    /// the test for delivering a notification the table counts.
    pub fn in_frontier(&self, p: &Pointstamp) -> bool {
        self.is_active(p) && !self.blocked(p)
    }

    /// The frontier, sorted canonically for deterministic delivery order.
    pub fn frontier(&self) -> Vec<Pointstamp> {
        let mut out: Vec<Pointstamp> = self.active().filter(|p| !self.blocked(p)).collect();
        out.sort_unstable();
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
        !self.is_active(&target) && !self.blocked(&target)
    }

    /// The lower bound on future times at `location`: timestamps `t` such
    /// that events may still occur at `(t, location)`. Empty means no
    /// future events are possible there.
    pub fn lower_bound(&self, location: Location) -> Vec<Timestamp> {
        let mut bound = self.blockers()[self.graph.location_index(location)];
        for p in self.active().filter(|p| p.location == location) {
            p.time.keep_in(&mut bound);
        }
        bound.into_iter().collect()
    }

    /// True when no entries remain: every occurrence has been matched by a
    /// retirement and the computation has quiesced.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Number of active pointstamps.
    pub fn active_count(&self) -> usize {
        self.active().count()
    }

    /// Iterates the active pointstamps (positive occurrence), in an order
    /// fixed by the table's history. The model-checker's safety oracle
    /// enumerates the omniscient reference table through this.
    pub fn active(&self) -> impl Iterator<Item = Pointstamp> + '_ {
        self.counts
            .iter()
            .filter(|(_, &count)| count > 0)
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
        self.active()
            .filter(|p| match p.location {
                Location::Vertex(stage) => self.graph.stages()[stage.0].kind == StageKind::Input,
                Location::Edge(_) => false,
            })
            .map(|p| p.time.epoch)
            .min()
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

        // Epoch 0 completes: +1 at epoch 1, then −1 at epoch 0.
        t.update(Pointstamp::at_vertex(ts(1, &[]), INPUT), 1);
        t.update(input0, -1);
        assert!(t.in_frontier(&out0), "epoch 0 is now complete");
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
        assert!(!t.in_frontier(&note));
        t.update(msg, -1);
        assert!(t.in_frontier(&note));
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
    fn activating_an_earlier_pointstamp_blocks_later_ones() {
        let mut t = PointstampTable::new(loop_graph());
        let early = Pointstamp::at_vertex(ts(0, &[1]), BODY);
        let late = Pointstamp::at_vertex(ts(0, &[5]), BODY);
        // Insert the late one first; activating the earlier one must block
        // it, and retiring the earlier one must unblock it again.
        t.update(late, 1);
        assert!(t.in_frontier(&late));
        t.update(early, 1);
        assert!(!t.in_frontier(&late));
        assert!(t.in_frontier(&early));
        t.update(early, -1);
        assert!(t.in_frontier(&late));
    }
}
