//! Fault tolerance: checkpoint and restore (§3.4).
//!
//! Stateful vertices implement [`Checkpoint`]; [`FileSink`] writes their
//! bytes to stable storage, one fsync per blob. The full
//! checkpoint/logging machinery is layered in the operator library and
//! exercised by the Figure 7c benchmark.
//!
//! Checkpoint blobs produced by
//! [`Worker::checkpoint`](crate::runtime::Worker::checkpoint) are sealed
//! with a versioned header and checksum ([`seal_blob`]/[`open_blob`]), so
//! bit rot or truncation in stable storage surfaces as a typed
//! [`RestoreError`] at restore time instead of a deep decoding panic.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::Hash;
use std::io::Write;
use std::rc::Rc;

/// Leading magic of a sealed checkpoint blob.
const BLOB_MAGIC: [u8; 4] = *b"NCKP";
/// Current sealed-blob format version. Version 2 embeds the worker count
/// that took the snapshot, so restoring under a different membership is a
/// typed [`RestoreError::PartitionCountMismatch`] instead of a silent
/// wrong-routing hazard. Version 3 follows the wire codec's change of
/// `Vec<integer>` layout to a width-packed column: state and logged input
/// holding one would mis-decode from a version-2 payload. Version 4
/// follows the operator library's change of key hash: a version-3 shard
/// was cut by the old hash and would restore keys onto the wrong worker.
const BLOB_VERSION: u16 = 4;
/// Sealed-blob header length: magic + version + payload length + checksum.
const BLOB_HEADER_LEN: usize = 4 + 2 + 8 + 8;

/// FNV-1a, the checksum guarding sealed checkpoint blobs.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Why a checkpoint snapshot could not be restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The blob does not start with the checkpoint magic — it is not a
    /// sealed checkpoint at all.
    BadMagic,
    /// The blob was sealed by an incompatible format version.
    UnsupportedVersion(u16),
    /// The blob ends before its declared payload does.
    Truncated(&'static str),
    /// The payload does not match its recorded checksum: bit rot or a
    /// torn write in stable storage.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the payload as read.
        found: u64,
    },
    /// The snapshot's structure does not match the constructed dataflows.
    ShapeMismatch {
        /// Which structural quantity disagreed.
        what: &'static str,
        /// The value the worker expected.
        expected: usize,
        /// The value found in the snapshot.
        found: usize,
    },
    /// The snapshot was partitioned for a different worker count than the
    /// restoring cluster runs. Restoring it wholesale would leave keys on
    /// workers the exchange contract no longer routes them to — the
    /// elastic-rescale path (`runtime::rescale`) consumes this error by
    /// re-partitioning keyed state instead.
    PartitionCountMismatch {
        /// Worker count recorded when the snapshot was taken.
        checkpointed: usize,
        /// Worker count of the restoring cluster.
        restoring: usize,
    },
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::BadMagic => write!(f, "not a sealed checkpoint blob (bad magic)"),
            RestoreError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint format version {v}")
            }
            RestoreError::Truncated(what) => write!(f, "checkpoint truncated at {what}"),
            RestoreError::ChecksumMismatch { expected, found } => write!(
                f,
                "checkpoint checksum mismatch: expected {expected:#018x}, found {found:#018x}"
            ),
            RestoreError::ShapeMismatch {
                what,
                expected,
                found,
            } => write!(f, "{what} mismatch: expected {expected}, found {found}"),
            RestoreError::PartitionCountMismatch {
                checkpointed,
                restoring,
            } => write!(
                f,
                "checkpoint partitioned for {checkpointed} worker(s) cannot restore \
                 into {restoring} worker(s) without re-partitioning keyed state"
            ),
        }
    }
}

impl std::error::Error for RestoreError {}

/// Seals `payload` as a checkpoint blob: magic, format version, payload
/// length, and an FNV-1a checksum, followed by the payload itself.
pub fn seal_blob(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(BLOB_HEADER_LEN + payload.len());
    out.extend_from_slice(&BLOB_MAGIC);
    out.extend_from_slice(&BLOB_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validates a sealed checkpoint blob and returns its payload.
// lint-allow(NS0004): every index below sits behind an explicit length
// check that returns a typed `RestoreError` first; the `try_into`s are
// fixed-width slices of already-validated ranges.
pub fn open_blob(blob: &[u8]) -> Result<&[u8], RestoreError> {
    if blob.len() < 4 || blob[..4] != BLOB_MAGIC {
        return Err(RestoreError::BadMagic);
    }
    if blob.len() < BLOB_HEADER_LEN {
        return Err(RestoreError::Truncated("blob header"));
    }
    let version = u16::from_le_bytes([blob[4], blob[5]]);
    if version != BLOB_VERSION {
        return Err(RestoreError::UnsupportedVersion(version));
    }
    let len = u64::from_le_bytes(blob[6..14].try_into().expect("fixed-width slice")) as usize;
    let expected = u64::from_le_bytes(blob[14..22].try_into().expect("fixed-width slice"));
    let payload = &blob[BLOB_HEADER_LEN..];
    if payload.len() != len {
        return Err(RestoreError::Truncated("blob payload"));
    }
    let found = fnv1a(payload);
    if found != expected {
        return Err(RestoreError::ChecksumMismatch { expected, found });
    }
    Ok(payload)
}

/// State that can be saved to and restored from a byte buffer (§3.4's
/// `Checkpoint`/`Restore` vertex interface).
///
/// Stateful vertices register implementations through
/// [`OperatorInfo::register_state`](crate::dataflow::OperatorInfo::register_state);
/// [`Worker::checkpoint`](crate::runtime::Worker::checkpoint) then
/// produces a consistent snapshot of every registered state, and
/// [`Worker::restore`](crate::runtime::Worker::restore) reloads one into a
/// freshly constructed, structurally identical dataflow.
pub trait Checkpoint {
    /// Appends a full serialization of the state to `buf`.
    fn checkpoint(&self, buf: &mut Vec<u8>);
    /// Reconstructs the state from `input`, advancing it past the
    /// consumed bytes.
    ///
    /// # Panics
    ///
    /// Implementations may panic on corrupt input: a damaged checkpoint
    /// cannot be recovered from.
    fn restore(&mut self, input: &mut &[u8]);
}

/// Any `Wire`-encodable value checkpoints wholesale — the "full,
/// potentially more compact, checkpoint" flavour of §3.4. Operators
/// holding state in `Rc<RefCell<...>>` cells therefore register it
/// directly.
impl<T: naiad_wire::Wire> Checkpoint for T {
    fn checkpoint(&self, buf: &mut Vec<u8>) {
        self.encode(buf);
    }
    fn restore(&mut self, input: &mut &[u8]) {
        *self = T::decode(input).unwrap_or_else(|e| {
            panic!(
                "checkpoint state failed to decode as {} — the blob passed its \
                 checksum, so this is a shape mismatch (dataflow built \
                 differently than when the checkpoint was taken): {e:?}",
                std::any::type_name::<T>()
            )
        });
    }
}

/// Checkpointable state that is additionally *partitioned by key* under
/// the same routing function its operator exchanges on — the contract
/// elastic rescaling (`runtime::rescale`) needs to migrate state across a
/// worker-count change (§3.4 extended with Falkirk-Wheel-style selective
/// replay).
///
/// `export_part`/`absorb_part` split and re-merge the state along the
/// exchange partitioning: entry `k` belongs to partition
/// `route(k) % parts`, computed by the very function `Pact::Exchange`
/// routes records with (`channels::partition`). Because partitions are
/// disjoint by construction, absorbing every old worker's part `p`
/// rebuilds precisely the state new worker `p` owns under the new
/// membership.
///
/// Operators register implementations through
/// [`OperatorInfo::register_keyed_state`](crate::dataflow::OperatorInfo::register_keyed_state);
/// state registered through plain
/// [`register_state`](crate::dataflow::OperatorInfo::register_state)
/// checkpoints and restores but cannot migrate, and makes a rescale abort
/// with a typed error.
pub trait KeyedCheckpoint: Checkpoint {
    /// Appends a serialization of the entries belonging to partition
    /// `part` of `parts` to `buf`.
    fn export_part(&self, part: usize, parts: usize, buf: &mut Vec<u8>);
    /// Merges an exported partition (disjoint keys) into this state.
    ///
    /// # Panics
    ///
    /// Implementations may panic on corrupt input, like
    /// [`Checkpoint::restore`].
    fn absorb_part(&mut self, input: &mut &[u8]);
    /// Removes every entry, preparing the state to absorb a fresh set of
    /// partitions.
    fn clear(&mut self);
}

/// The [`KeyedCheckpoint`] adapter for the idiomatic keyed-operator state
/// shape: a shared `HashMap` cell plus the routing function its operator
/// exchanges records by.
///
/// Created by
/// [`OperatorInfo::register_keyed_state`](crate::dataflow::OperatorInfo::register_keyed_state);
/// the operator keeps using its `Rc<RefCell<HashMap<..>>>` directly while
/// the adapter gives the checkpoint machinery a partition-aware view of
/// the same map.
pub struct KeyedState<K, V> {
    map: Rc<RefCell<HashMap<K, V>>>,
    route: Box<dyn Fn(&K) -> u64>,
}

impl<K, V> KeyedState<K, V> {
    /// Wraps `map` with the exchange routing function `route`.
    ///
    /// `route` must be the same function (up to extensional equality) the
    /// operator passes to `Pact::exchange`, or migrated entries land on
    /// workers the exchange contract never routes their keys to.
    pub fn new(map: Rc<RefCell<HashMap<K, V>>>, route: impl Fn(&K) -> u64 + 'static) -> Self {
        KeyedState {
            map,
            route: Box::new(route),
        }
    }
}

impl<K, V> Checkpoint for KeyedState<K, V>
where
    K: naiad_wire::Wire + Eq + Hash,
    V: naiad_wire::Wire,
{
    fn checkpoint(&self, buf: &mut Vec<u8>) {
        self.map.borrow().checkpoint(buf);
    }
    fn restore(&mut self, input: &mut &[u8]) {
        self.map.borrow_mut().restore(input);
    }
}

impl<K, V> KeyedCheckpoint for KeyedState<K, V>
where
    K: naiad_wire::Wire + Eq + Hash,
    V: naiad_wire::Wire,
{
    fn export_part(&self, part: usize, parts: usize, buf: &mut Vec<u8>) {
        let map = self.map.borrow();
        // Pre-encode and sort so the shard bytes are deterministic even
        // though `HashMap` iteration order is not.
        let mut entries: Vec<(Vec<u8>, Vec<u8>)> = map
            .iter()
            .filter(|(k, _)| super::channels::partition((self.route)(k), parts) == part)
            .map(|(k, v)| {
                let mut kb = Vec::new();
                k.encode(&mut kb);
                let mut vb = Vec::new();
                v.encode(&mut vb);
                (kb, vb)
            })
            .collect();
        entries.sort();
        naiad_wire::Wire::encode(&entries.len(), buf);
        for (kb, vb) in entries {
            buf.extend_from_slice(&kb);
            buf.extend_from_slice(&vb);
        }
    }

    fn absorb_part(&mut self, input: &mut &[u8]) {
        let count = <usize as naiad_wire::Wire>::decode(input)
            .unwrap_or_else(|e| panic!("keyed shard header failed to decode: {e:?}"));
        let mut map = self.map.borrow_mut();
        map.reserve(count);
        for _ in 0..count {
            let k = K::decode(input).unwrap_or_else(|e| {
                panic!(
                    "keyed shard entry failed to decode as {}: {e:?}",
                    std::any::type_name::<K>()
                )
            });
            let v = V::decode(input).unwrap_or_else(|e| {
                panic!(
                    "keyed shard entry failed to decode as {}: {e:?}",
                    std::any::type_name::<V>()
                )
            });
            map.insert(k, v);
        }
    }

    fn clear(&mut self) {
        self.map.borrow_mut().clear();
    }
}

/// A sink writing blobs to a temporary file with an fsync per blob: the
/// durable checkpoint/log path of §3.4.
#[derive(Debug)]
pub struct FileSink {
    file: std::fs::File,
    bytes: u64,
}

impl FileSink {
    /// Creates a sink backed by a new temporary file in `std::env::temp_dir`.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be created.
    pub fn temp(label: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "naiad-{label}-{}-{}.log",
            std::process::id(),
            std::thread::current()
                .name()
                .unwrap_or("worker")
                .replace('/', "_"),
        ));
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .unwrap_or_else(|e| panic!("create durability file {}: {e}", path.display()));
        FileSink { file, bytes: 0 }
    }

    /// Appends one blob and fsyncs it, returning once it is durable.
    ///
    /// # Panics
    ///
    /// Panics if the write or the fsync fails.
    pub fn persist(&mut self, bytes: &[u8]) {
        self.file
            .write_all(bytes)
            .unwrap_or_else(|e| panic!("write checkpoint blob ({} bytes): {e}", bytes.len()));
        self.file
            .sync_data()
            .unwrap_or_else(|e| panic!("fsync checkpoint blob: {e}"));
        self.bytes += bytes.len() as u64;
    }

    /// Total bytes persisted.
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_sink_persists() {
        let mut sink = FileSink::temp("test");
        sink.persist(b"hello");
        assert_eq!(sink.bytes_written(), 5);
    }

    #[test]
    fn sealed_blobs_roundtrip() {
        let payload = b"state bytes".to_vec();
        let blob = seal_blob(&payload);
        assert_eq!(open_blob(&blob).unwrap(), &payload[..]);
        assert_eq!(open_blob(&seal_blob(&[])).unwrap(), &[] as &[u8]);
    }

    #[test]
    fn open_blob_rejects_corruption() {
        // Not a checkpoint at all.
        assert_eq!(open_blob(b"oops"), Err(RestoreError::BadMagic));
        // Header cut short.
        let blob = seal_blob(b"data");
        assert_eq!(
            open_blob(&blob[..10]),
            Err(RestoreError::Truncated("blob header"))
        );
        // Payload cut short.
        assert_eq!(
            open_blob(&blob[..blob.len() - 1]),
            Err(RestoreError::Truncated("blob payload"))
        );
        // Unsupported version.
        let mut wrong_version = blob.clone();
        wrong_version[4] = 0xFF;
        assert_eq!(
            open_blob(&wrong_version),
            Err(RestoreError::UnsupportedVersion(u16::from_le_bytes([
                0xFF,
                wrong_version[5]
            ])))
        );
        // Flipped payload bit.
        let mut flipped = blob;
        *flipped.last_mut().unwrap() ^= 1;
        assert!(matches!(
            open_blob(&flipped),
            Err(RestoreError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn checkpoint_roundtrip_via_the_wire_blanket() {
        let a: std::collections::HashMap<u64, String> =
            [(1, "one".to_string()), (2, "two".to_string())].into();
        let mut buf = Vec::new();
        a.checkpoint(&mut buf);
        let mut b: std::collections::HashMap<u64, String> = Default::default();
        b.restore(&mut &buf[..]);
        assert_eq!(a, b);
    }
}
