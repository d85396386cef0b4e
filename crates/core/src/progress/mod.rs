//! Progress tracking (§2.3) and the distributed progress protocol (§3.3).
//!
//! Every unprocessed event — a message on a connector or a requested
//! notification at a stage — carries a [`Pointstamp`]. The
//! [`tracker::PointstampTable`] keeps occurrence counts and answers one
//! question of them — does some *other* active pointstamp could-result-in
//! this one? — from which the *frontier* (pointstamps whose notifications
//! are safe to deliver), completeness, and the accumulators' holding rule
//! all follow.
//!
//! In the distributed runtime each worker holds a local table fed
//! exclusively by broadcast [`ProgressUpdate`]s (§3.3); the
//! [`protocol`] module is the only place that knows the protocol: the
//! update encoding, the buffering accumulators whose traffic Figure 6c
//! measures, the per-worker and per-group state machines, and which
//! participant sends to which under each [`ProgressMode`]. The runtime
//! and the model-checker (the `naiad-check` crate) are two drivers of those same
//! state machines.

pub mod protocol;
pub mod tracker;

pub use protocol::{
    Accumulator, Endpoint, FifoViolation, GroupCore, Hop, ProgressBatch, ProgressMode, Role,
    WorkerCore,
};
pub use tracker::PointstampTable;

use naiad_wire::{Wire, WireError};

use crate::graph::{ConnectorId, Location, StageId};
use crate::time::{Timestamp, MAX_LOOP_DEPTH};

/// A timestamp at a location: the coordinate of an unprocessed event.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Pointstamp {
    /// The event's logical timestamp.
    pub time: Timestamp,
    /// The (projected) location: a stage for notifications, a connector
    /// for messages.
    pub location: Location,
}

impl Pointstamp {
    /// A message pointstamp on a connector.
    pub fn on_edge(time: Timestamp, connector: ConnectorId) -> Self {
        Pointstamp {
            time,
            location: Location::Edge(connector),
        }
    }

    /// A notification pointstamp at a stage.
    pub fn at_vertex(time: Timestamp, stage: StageId) -> Self {
        Pointstamp {
            time,
            location: Location::Vertex(stage),
        }
    }
}

/// The canonical *total* order — location, then epoch, then loop counters
/// — that makes frontier listings and flushed batches deterministic. It is
/// not the could-result-in partial order.
impl Ord for Pointstamp {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let key = |p: &Self| (p.location, p.time.epoch);
        (key(self), self.time.counters.as_slice())
            .cmp(&(key(other), other.time.counters.as_slice()))
    }
}

impl PartialOrd for Pointstamp {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One head varint, `(index << 4) | (depth << 1) | kind` — kind 0 for a
/// stage, 1 for a connector — then the epoch, then exactly `depth` loop
/// counters: a root-context pointstamp at a small location and epoch
/// takes two bytes.
impl Wire for Pointstamp {
    fn encode(&self, buf: &mut Vec<u8>) {
        let (index, kind) = match self.location {
            Location::Vertex(s) => (s.0, 0),
            Location::Edge(c) => (c.0, 1),
        };
        let counters = self.time.counters.as_slice();
        (((index as u64) << 4) | ((counters.len() as u64) << 1) | kind).encode(buf);
        self.time.epoch.encode(buf);
        for counter in counters {
            counter.encode(buf);
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let head = u64::decode(input)?;
        let index = usize::try_from(head >> 4).map_err(|_| WireError::VarintOverflow)?;
        let depth = ((head >> 1) & 0b111) as usize;
        if depth > MAX_LOOP_DEPTH {
            return Err(WireError::InvalidValue);
        }
        let location = if head & 1 == 0 {
            Location::Vertex(StageId(index))
        } else {
            Location::Edge(ConnectorId(index))
        };
        let mut time = Timestamp::new(u64::decode(input)?);
        for _ in 0..depth {
            time.counters = time.counters.pushed(u64::decode(input)?);
        }
        Ok(Pointstamp { time, location })
    }
}

/// A signed change to a pointstamp's occurrence count (§3.3).
pub type ProgressUpdate = (Pointstamp, i64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pointstamps_roundtrip() {
        let ps = [
            Pointstamp::at_vertex(Timestamp::new(3), StageId(7)),
            Pointstamp::on_edge(Timestamp::with_counters(1, &[4, 2]), ConnectorId(0)),
        ];
        for p in ps {
            let bytes = naiad_wire::encode_to_vec(&p);
            assert_eq!(bytes.len(), p.encoded_len());
            assert_eq!(
                naiad_wire::decode_from_slice::<Pointstamp>(&bytes).unwrap(),
                p
            );
        }
    }

    #[test]
    fn frames_reject_a_depth_of_five_and_sender_role_three() {
        // Head: stage 0 at depth 5; the epoch and five counters follow.
        let deep = [5 << 1, 0, 1, 2, 3, 4, 5];
        let decoded = naiad_wire::decode_from_slice::<Pointstamp>(&deep);
        assert_eq!(decoded, Err(WireError::InvalidValue));
        // Sender head: index 0, role 3; seq, dataflow, no updates follow.
        let decoded = naiad_wire::decode_from_slice::<ProgressBatch>(&[3, 0, 0, 0]);
        assert_eq!(decoded, Err(WireError::InvalidTag(3)));
    }

    #[test]
    fn small_pointstamps_encode_compactly() {
        // Stage 3, epoch 5, no counters: one head byte and the epoch.
        let p = Pointstamp::at_vertex(Timestamp::new(5), StageId(3));
        assert_eq!(p.encoded_len(), 2);
    }
}
