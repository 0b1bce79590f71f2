//! Model persistence: snapshot, restore, and a crash-safe byte format.
//!
//! A query optimizer keeps its statistics in the catalog so they survive
//! restarts; a self-tuning cost model is only useful if what it learned
//! does too. [`TreeSnapshot`] is a compact image of a model —
//! configuration plus the live nodes in depth-first order — that rebuilds
//! into an identical tree.
//!
//! ## Envelope format
//!
//! For durable storage a snapshot is wrapped in a versioned, checksummed
//! envelope so that torn writes, bit rot, and format drift are *detected*
//! instead of silently restoring garbage statistics into the optimizer:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"MLQS"
//! 4       4     format version, little-endian u32 (currently 2)
//! 8       8     payload length, little-endian u64
//! 16      4     CRC-32 (IEEE) over version ‖ length ‖ payload
//! 20      n     payload: the binary TreeSnapshot stream below
//! ```
//!
//! The checksum covers the version and length fields as well as the
//! payload, so a flipped header bit cannot masquerade as a different
//! (valid) version or length. Decoding never panics: every claim the
//! header makes is validated against the actual byte count before use.
//!
//! ## Payload (version 2)
//!
//! All integers little-endian, every `f64` as its IEEE-754 bit pattern,
//! so a snapshot restores bit-identically:
//!
//! ```text
//! size    field
//! 1       dims d, 1..=MAX_DIMS
//! 8·d     space lows
//! 8·d     space highs
//! 8       memory budget (u64)
//! 1       strategy tag: 0 = Eager, 1 = Lazy
//! 8       α (only after tag 1)
//! 8       β (u64)
//! 8       γ
//! 1       λ
//! 1       had_compression: 0 or 1
//! 4       node count n (u32)
//! 31·n    nodes in pre-order, parents before children:
//!           sum f64 ‖ count u64 ‖ sum_sq f64 ‖ depth u8 ‖
//!           slot in parent u16 ‖ parent index u32 (u32::MAX = root)
//! ```
//!
//! A node costs 31 bytes on the wire against the 48+ the budget accounts
//! for ([`crate::NODE_BYTES`]), so an envelope is never larger than the
//! model's accounted bytes once the tree has a handful of nodes. Version 1
//! (a JSON payload) is not readable: it restores as
//! [`RestoreOutcome::VersionMismatch`], and the model relearns from
//! feedback.
//!
//! The envelope is a [`seal_frame`] frame under [`SNAPSHOT_MAGIC`]; the
//! serving layer's checkpoints write it to disk atomically. The restore
//! path ([`MemoryLimitedQuadtree::restore`]) verifies the checksum,
//! rebuilds the tree, re-runs the structural invariant checker, and
//! reports what happened as a typed [`RestoreOutcome`] — falling back to
//! a fresh model rather than failing the caller when the snapshot is bad.

use crate::config::{InsertionStrategy, MlqConfig};
use crate::error::MlqError;
use crate::node::NIL;
use crate::space::{Space, MAX_DIMS};
use crate::summary::Summary;
use crate::tree::MemoryLimitedQuadtree;

/// One node in a snapshot. `parent` indexes into the snapshot's node list
/// (`None` for the root); nodes appear in an order where parents precede
/// children.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SnapshotNode {
    summary: Summary,
    depth: u8,
    slot_in_parent: u16,
    parent: Option<u32>,
}

/// Encoded size of one [`SnapshotNode`] in the version-2 payload.
const NODE_WIRE_BYTES: usize = 8 + 8 + 8 + 1 + 2 + 4;

/// Parent index that marks the root in the payload.
const ROOT_PARENT: u32 = u32::MAX;

/// An image of a [`MemoryLimitedQuadtree`], encoded by
/// [`to_envelope`](TreeSnapshot::to_envelope).
#[derive(Debug, Clone, PartialEq)]
pub struct TreeSnapshot {
    config: MlqConfig,
    nodes: Vec<SnapshotNode>,
    had_compression: bool,
}

impl TreeSnapshot {
    /// Number of nodes captured.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The captured configuration.
    #[must_use]
    pub fn config(&self) -> &MlqConfig {
        &self.config
    }
}

impl MemoryLimitedQuadtree {
    /// Captures the model into a snapshot. Operation counters (APC/AUC
    /// bookkeeping) are not part of the model state and are not captured.
    #[must_use]
    pub fn snapshot(&self) -> TreeSnapshot {
        let mut nodes = Vec::with_capacity(self.node_count());
        // Pre-order DFS so parents always precede children.
        let mut stack: Vec<(u32, Option<u32>)> = vec![(self.root, None)];
        while let Some((idx, parent)) = stack.pop() {
            let node = self.arena.get(idx);
            let my_index = u32::try_from(nodes.len()).expect("node count fits u32");
            nodes.push(SnapshotNode {
                summary: node.summary,
                depth: node.depth,
                slot_in_parent: node.slot_in_parent,
                parent,
            });
            if let Some(children) = &node.children {
                for &child in children.iter() {
                    if child != NIL {
                        stack.push((child, Some(my_index)));
                    }
                }
            }
        }
        TreeSnapshot {
            config: self.config().clone(),
            nodes,
            had_compression: self.has_compressed(),
        }
    }

    /// Rebuilds a model from a snapshot. The result is structurally
    /// identical to the captured tree (verified against the full
    /// invariant checker).
    ///
    /// # Errors
    ///
    /// [`MlqError::InvalidConfig`] when the snapshot is malformed
    /// (dangling parents, children out of order, nodes deeper than `λ`,
    /// duplicate slots) or its configuration no longer validates.
    pub fn from_snapshot(snapshot: &TreeSnapshot) -> Result<Self, MlqError> {
        let mut tree = MemoryLimitedQuadtree::new(snapshot.config.clone())?;
        let malformed = |reason: &str| MlqError::InvalidConfig {
            reason: format!("malformed snapshot: {reason}"),
        };
        if snapshot.nodes.is_empty() {
            return Err(malformed("no root node"));
        }
        // arena index of each snapshot node, filled as we materialize.
        let mut arena_index: Vec<u32> = Vec::with_capacity(snapshot.nodes.len());
        for (i, snode) in snapshot.nodes.iter().enumerate() {
            match snode.parent {
                None => {
                    if i != 0 {
                        return Err(malformed("multiple roots"));
                    }
                    if snode.depth != 0 {
                        return Err(malformed("root at non-zero depth"));
                    }
                    tree.arena.get_mut(tree.root).summary = snode.summary;
                    arena_index.push(tree.root);
                }
                Some(p) => {
                    let p = p as usize;
                    if p >= i {
                        return Err(malformed("child precedes its parent"));
                    }
                    let parent_arena = arena_index[p];
                    // Checked before materializing, so a hostile chain
                    // can neither grow the tree past λ nor overflow the
                    // parent's depth below.
                    if snode.depth > snapshot.config.lambda {
                        return Err(malformed("node deeper than lambda"));
                    }
                    if snode.depth != snapshot.nodes[p].depth + 1 {
                        return Err(malformed("depth does not match parent"));
                    }
                    if usize::from(snode.slot_in_parent) >= tree.fanout {
                        return Err(malformed("slot outside fanout"));
                    }
                    if tree
                        .arena
                        .get(parent_arena)
                        .child(usize::from(snode.slot_in_parent))
                        .is_some()
                    {
                        return Err(malformed("duplicate child slot"));
                    }
                    let child =
                        tree.materialize_child(parent_arena, usize::from(snode.slot_in_parent));
                    tree.arena.get_mut(child).summary = snode.summary;
                    arena_index.push(child);
                }
            }
        }
        tree.set_had_compression(snapshot.had_compression);
        tree.check_invariants().map_err(|reason| MlqError::InvalidConfig {
            reason: format!("snapshot failed invariants: {reason}"),
        })?;
        Ok(tree)
    }
}

/// Magic bytes opening every snapshot envelope.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"MLQS";

/// Envelope format version written by this build. Version 1 carried a
/// JSON payload and is not read any more.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Envelope header size: magic + version + payload length + checksum.
const HEADER_LEN: usize = 4 + 4 + 8 + 4;

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`) over the
/// concatenation of `chunks`. Public so every durable byte format in the
/// workspace (snapshot envelopes, the serving layer's feedback journal
/// and checkpoint metadata) shares one checksum implementation.
#[must_use]
pub fn crc32_ieee(chunks: &[&[u8]]) -> u32 {
    crc32(chunks)
}

/// Reflected polynomial of the IEEE CRC-32.
const CRC_POLY: u32 = 0xEDB8_8320;

/// `CRC_TABLE[b]` is the CRC register after shifting byte `b` through
/// eight rounds of the polynomial: one lookup replaces the bit loop.
const CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE 802.3), one table lookup per byte.
fn crc32(chunks: &[&[u8]]) -> u32 {
    let mut crc: u32 = !0;
    for chunk in chunks {
        for &byte in *chunk {
            crc = CRC_TABLE[((crc ^ u32::from(byte)) & 0xFF) as usize] ^ (crc >> 8);
        }
    }
    !crc
}

/// A panic-free little-endian cursor over untrusted bytes: every read is
/// bounds-checked and fails with a description instead of panicking.
/// The one reader behind every binary format in the workspace (snapshot
/// payloads here, the serving layer's checkpoint metadata).
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A cursor at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    ///
    /// When fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).ok_or_else(|| "length overflow".to_string())?;
        let slice =
            self.buf.get(self.pos..end).ok_or_else(|| format!("truncated at byte {}", self.pos))?;
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// When no byte remains.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// When fewer than 2 bytes remain.
    pub fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("length taken")))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// When fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("length taken")))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// When fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("length taken")))
    }

    /// Reads an `f64` from its little-endian bit pattern.
    ///
    /// # Errors
    ///
    /// When fewer than 8 bytes remain.
    pub fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Bytes not yet read; what a count must be checked against before
    /// it sizes an allocation.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True once every byte has been read.
    #[must_use]
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Why an envelope failed to decode. Internal: the public surface is
/// [`RestoreOutcome`].
enum DecodeFailure {
    /// Structurally bad bytes: wrong magic, bad checksum, truncation,
    /// unparseable payload, or a snapshot the tree rejects.
    Corrupt(String),
    /// A well-formed envelope from a different format version.
    Version {
        /// The version recorded in the envelope.
        found: u32,
    },
}

/// Result of restoring a model from persisted bytes.
///
/// Every variant carries a usable model: restore is total, and the
/// variant tells the caller whether learned state survived. "Fell back
/// to fresh" outcomes start from the supplied fallback configuration
/// with zero observations.
#[derive(Debug)]
pub enum RestoreOutcome {
    /// The envelope verified and the captured tree passed the invariant
    /// checker; `0` is the restored model.
    Restored(MemoryLimitedQuadtree),
    /// The bytes were corrupt (checksum mismatch, truncation, hostile
    /// payload, or failed invariants); a fresh model was built instead.
    CorruptFellBackToFresh {
        /// The fresh, empty model.
        model: MemoryLimitedQuadtree,
        /// What check the snapshot failed.
        reason: String,
    },
    /// The envelope is intact but from an unsupported format version; a
    /// fresh model was built instead.
    VersionMismatch {
        /// The fresh, empty model.
        model: MemoryLimitedQuadtree,
        /// Version found in the envelope.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
}

impl RestoreOutcome {
    /// Unwraps the model, whichever way the restore went.
    #[must_use]
    pub fn into_model(self) -> MemoryLimitedQuadtree {
        match self {
            RestoreOutcome::Restored(model)
            | RestoreOutcome::CorruptFellBackToFresh { model, .. }
            | RestoreOutcome::VersionMismatch { model, .. } => model,
        }
    }

    /// True when learned state survived the restore.
    #[must_use]
    pub fn is_restored(&self) -> bool {
        matches!(self, RestoreOutcome::Restored(_))
    }
}

impl TreeSnapshot {
    /// Encodes the snapshot into the versioned, checksummed envelope
    /// documented at the [module level](self).
    #[must_use]
    pub fn to_envelope(&self) -> Vec<u8> {
        seal_frame(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, &self.encode_payload())
    }

    /// The version-2 payload: configuration, flag, then the node stream.
    fn encode_payload(&self) -> Vec<u8> {
        let config = &self.config;
        let dims = config.space.dims();
        // 40 bytes of fixed-size fields, the bounds, then the nodes.
        let mut out = Vec::with_capacity(40 + 16 * dims + NODE_WIRE_BYTES * self.nodes.len());
        // `Space` caps dims at MAX_DIMS, so the count fits a byte.
        out.push(dims as u8);
        for i in 0..dims {
            out.extend_from_slice(&config.space.low(i).to_bits().to_le_bytes());
        }
        for i in 0..dims {
            out.extend_from_slice(&config.space.high(i).to_bits().to_le_bytes());
        }
        out.extend_from_slice(&(config.memory_budget as u64).to_le_bytes());
        match config.strategy {
            InsertionStrategy::Eager => out.push(0),
            InsertionStrategy::Lazy { alpha } => {
                out.push(1);
                out.extend_from_slice(&alpha.to_bits().to_le_bytes());
            }
        }
        out.extend_from_slice(&config.beta.to_le_bytes());
        out.extend_from_slice(&config.gamma.to_bits().to_le_bytes());
        out.push(config.lambda);
        out.push(u8::from(self.had_compression));
        let count = u32::try_from(self.nodes.len()).expect("node count fits u32");
        out.extend_from_slice(&count.to_le_bytes());
        for node in &self.nodes {
            out.extend_from_slice(&node.summary.sum.to_bits().to_le_bytes());
            out.extend_from_slice(&node.summary.count.to_le_bytes());
            out.extend_from_slice(&node.summary.sum_sq.to_bits().to_le_bytes());
            out.push(node.depth);
            out.extend_from_slice(&node.slot_in_parent.to_le_bytes());
            out.extend_from_slice(&node.parent.unwrap_or(ROOT_PARENT).to_le_bytes());
        }
        out
    }

    /// Decodes a version-2 payload. Every count is checked against the
    /// bytes that remain before it sizes an allocation; the structural
    /// checks on the nodes are [`MemoryLimitedQuadtree::from_snapshot`]'s.
    fn decode_payload(payload: &[u8]) -> Result<Self, String> {
        let mut r = ByteReader::new(payload);
        let dims = usize::from(r.u8()?);
        if !(1..=MAX_DIMS).contains(&dims) {
            return Err(format!("snapshot claims {dims} dimensions (1..={MAX_DIMS})"));
        }
        let lows = (0..dims).map(|_| r.f64()).collect::<Result<Vec<f64>, String>>()?;
        let highs = (0..dims).map(|_| r.f64()).collect::<Result<Vec<f64>, String>>()?;
        let space = Space::new(lows, highs).map_err(|e| format!("snapshot space: {e}"))?;
        let memory_budget = usize::try_from(r.u64()?)
            .map_err(|_| "memory budget does not fit this platform".to_string())?;
        let strategy = match r.u8()? {
            0 => InsertionStrategy::Eager,
            1 => InsertionStrategy::Lazy { alpha: r.f64()? },
            tag => return Err(format!("unknown strategy tag {tag}")),
        };
        let beta = r.u64()?;
        let gamma = r.f64()?;
        let lambda = r.u8()?;
        let had_compression = match r.u8()? {
            0 => false,
            1 => true,
            flag => return Err(format!("had_compression flag is {flag}, not 0 or 1")),
        };
        let count = r.u32()? as usize;
        if count.checked_mul(NODE_WIRE_BYTES).is_none_or(|need| need > r.remaining()) {
            return Err(format!(
                "snapshot claims {count} nodes but {} payload bytes remain",
                r.remaining()
            ));
        }
        let mut nodes = Vec::with_capacity(count);
        for _ in 0..count {
            let summary = Summary { sum: r.f64()?, count: r.u64()?, sum_sq: r.f64()? };
            let depth = r.u8()?;
            let slot_in_parent = r.u16()?;
            let parent = Some(r.u32()?).filter(|&p| p != ROOT_PARENT);
            nodes.push(SnapshotNode { summary, depth, slot_in_parent, parent });
        }
        if !r.done() {
            return Err(format!("{} trailing bytes after the node stream", r.remaining()));
        }
        let config = MlqConfig { space, memory_budget, strategy, beta, gamma, lambda };
        Ok(TreeSnapshot { config, nodes, had_compression })
    }

    /// Decodes an envelope, verifying magic, version, length, and
    /// checksum before touching the payload. Never panics, whatever the
    /// bytes.
    ///
    /// # Errors
    ///
    /// [`MlqError::SnapshotCorrupt`] on any validation failure, including
    /// an unsupported version (use [`MemoryLimitedQuadtree::restore`] for
    /// the typed distinction).
    pub fn from_envelope(bytes: &[u8]) -> Result<Self, MlqError> {
        match decode_envelope(bytes) {
            Ok(snapshot) => Ok(snapshot),
            Err(DecodeFailure::Corrupt(reason)) => Err(MlqError::SnapshotCorrupt { reason }),
            Err(DecodeFailure::Version { found }) => Err(MlqError::SnapshotCorrupt {
                reason: format!(
                    "unsupported snapshot version {found} (this build reads {SNAPSHOT_VERSION})"
                ),
            }),
        }
    }
}

fn decode_envelope(bytes: &[u8]) -> Result<TreeSnapshot, DecodeFailure> {
    let (version, payload) =
        open_frame_any_version(SNAPSHOT_MAGIC, bytes).map_err(DecodeFailure::Corrupt)?;
    // Checksum verified: a version difference is now a genuine format
    // difference, not a flipped bit.
    if version != SNAPSHOT_VERSION {
        return Err(DecodeFailure::Version { found: version });
    }
    TreeSnapshot::decode_payload(payload)
        .map_err(|reason| DecodeFailure::Corrupt(format!("malformed snapshot payload: {reason}")))
}

/// Seals `payload` in the same `magic ‖ version ‖ length ‖ CRC-32 ‖
/// payload` envelope layout the snapshot format uses, under a caller
/// chosen magic and version. The checksum covers version, length, and
/// payload, so header corruption is detected like payload corruption.
///
/// [`open_frame`] is the inverse. Snapshot envelopes and the serving
/// layer's checkpoint metadata use this, so both fail loudly — never by
/// restoring garbage.
#[must_use]
pub fn seal_frame(magic: [u8; 4], version: u32, payload: &[u8]) -> Vec<u8> {
    let version_bytes = version.to_le_bytes();
    let len = (payload.len() as u64).to_le_bytes();
    let crc = crc32(&[&version_bytes, &len, payload]).to_le_bytes();
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&magic);
    out.extend_from_slice(&version_bytes);
    out.extend_from_slice(&len);
    out.extend_from_slice(&crc);
    out.extend_from_slice(payload);
    out
}

/// Opens a [`seal_frame`] envelope, validating magic, version, length,
/// and checksum before handing back the payload slice. Never panics,
/// whatever the bytes.
///
/// # Errors
///
/// [`MlqError::SnapshotCorrupt`] on any validation failure, including a
/// version other than `version`.
pub fn open_frame(magic: [u8; 4], version: u32, bytes: &[u8]) -> Result<&[u8], MlqError> {
    let corrupt = |reason: String| MlqError::SnapshotCorrupt { reason };
    let (found, payload) = open_frame_any_version(magic, bytes).map_err(corrupt)?;
    if found != version {
        return Err(corrupt(format!("unsupported frame version {found} (expected {version})")));
    }
    Ok(payload)
}

/// Validates a frame's magic, length, and checksum, and hands back its
/// CRC-verified version with the payload slice. The one frame opener
/// behind both [`open_frame`] and the snapshot decoder, which reports a
/// version difference as [`RestoreOutcome::VersionMismatch`] rather than
/// as corruption. Never panics, whatever the bytes.
fn open_frame_any_version(magic: [u8; 4], bytes: &[u8]) -> Result<(u32, &[u8]), String> {
    if bytes.len() < HEADER_LEN {
        return Err(format!("truncated frame: {} bytes, header needs {HEADER_LEN}", bytes.len()));
    }
    if bytes[0..4] != magic {
        return Err("bad frame magic".to_string());
    }
    let version_bytes: [u8; 4] = bytes[4..8].try_into().expect("slice length checked");
    let len_bytes: [u8; 8] = bytes[8..16].try_into().expect("slice length checked");
    let stored_crc = u32::from_le_bytes(bytes[16..20].try_into().expect("slice length checked"));
    let payload = &bytes[HEADER_LEN..];
    let claimed = u64::from_le_bytes(len_bytes);
    if claimed != payload.len() as u64 {
        return Err(format!(
            "frame length mismatch: header claims {claimed}, found {}",
            payload.len()
        ));
    }
    let actual_crc = crc32(&[&version_bytes, &len_bytes, payload]);
    if actual_crc != stored_crc {
        return Err(format!(
            "frame checksum mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
        ));
    }
    Ok((u32::from_le_bytes(version_bytes), payload))
}

impl MemoryLimitedQuadtree {
    /// Restores a model from envelope bytes, falling back to a fresh
    /// model built from `fallback` when the bytes are corrupt or from an
    /// unsupported version. The restored tree has passed the full
    /// structural invariant checker. Never panics on hostile bytes.
    ///
    /// # Errors
    ///
    /// Only when `fallback` itself fails validation — a bad snapshot is
    /// reported through [`RestoreOutcome`], not as an error.
    pub fn restore(bytes: &[u8], fallback: MlqConfig) -> Result<RestoreOutcome, MlqError> {
        match decode_envelope(bytes) {
            Ok(snapshot) => match MemoryLimitedQuadtree::from_snapshot(&snapshot) {
                Ok(model) => Ok(RestoreOutcome::Restored(model)),
                Err(e) => Ok(RestoreOutcome::CorruptFellBackToFresh {
                    model: MemoryLimitedQuadtree::new(fallback)?,
                    reason: e.to_string(),
                }),
            },
            Err(DecodeFailure::Corrupt(reason)) => Ok(RestoreOutcome::CorruptFellBackToFresh {
                model: MemoryLimitedQuadtree::new(fallback)?,
                reason,
            }),
            Err(DecodeFailure::Version { found }) => Ok(RestoreOutcome::VersionMismatch {
                model: MemoryLimitedQuadtree::new(fallback)?,
                found,
                supported: SNAPSHOT_VERSION,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InsertionStrategy, Space};

    fn trained_model() -> MemoryLimitedQuadtree {
        let config = MlqConfig::builder(Space::cube(2, 0.0, 1000.0).unwrap())
            .memory_budget(2048)
            .strategy(InsertionStrategy::Lazy { alpha: 0.05 })
            .build()
            .unwrap();
        let mut m = MemoryLimitedQuadtree::new(config).unwrap();
        for i in 0..300u32 {
            let x = f64::from(i.wrapping_mul(97) % 1000);
            let y = f64::from(i.wrapping_mul(31) % 1000);
            m.insert(&[x, y], f64::from(i % 17)).unwrap();
        }
        m
    }

    #[test]
    fn snapshot_roundtrip_preserves_structure_and_predictions() {
        let original = trained_model();
        let snapshot = original.snapshot();
        assert_eq!(snapshot.node_count(), original.node_count());

        let restored = MemoryLimitedQuadtree::from_snapshot(&snapshot).unwrap();
        restored.check_invariants().unwrap();
        assert_eq!(restored.node_count(), original.node_count());
        assert_eq!(restored.bytes_used(), original.bytes_used());
        assert_eq!(restored.root_summary(), original.root_summary());
        assert_eq!(restored.has_compressed(), original.has_compressed());
        for i in 0..100u32 {
            let p = [f64::from(i * 7 % 1000), f64::from(i * 13 % 1000)];
            assert_eq!(restored.predict(&p).unwrap(), original.predict(&p).unwrap());
        }
    }

    #[test]
    fn restored_model_keeps_learning() {
        let original = trained_model();
        let mut restored = MemoryLimitedQuadtree::from_snapshot(&original.snapshot()).unwrap();
        restored.insert(&[500.0, 500.0], 42.0).unwrap();
        assert_eq!(restored.root_summary().count, original.root_summary().count + 1);
        restored.check_invariants().unwrap();
    }

    #[test]
    fn malformed_snapshots_are_rejected() {
        let good = trained_model().snapshot();

        let mut empty = good.clone();
        empty.nodes.clear();
        assert!(MemoryLimitedQuadtree::from_snapshot(&empty).is_err());

        let mut dangling = good.clone();
        let n = dangling.nodes.len() as u32;
        if let Some(last) = dangling.nodes.last_mut() {
            last.parent = Some(n + 5);
        }
        assert!(MemoryLimitedQuadtree::from_snapshot(&dangling).is_err());

        let mut bad_depth = good.clone();
        if bad_depth.nodes.len() > 1 {
            bad_depth.nodes[1].depth = 7;
            assert!(MemoryLimitedQuadtree::from_snapshot(&bad_depth).is_err());
        }

        let mut two_roots = good;
        if two_roots.nodes.len() > 1 {
            two_roots.nodes[1].parent = None;
            assert!(MemoryLimitedQuadtree::from_snapshot(&two_roots).is_err());
        }
    }

    #[test]
    fn empty_model_roundtrips() {
        let config =
            MlqConfig::builder(Space::unit(1).unwrap()).memory_budget(1024).build().unwrap();
        let m = MemoryLimitedQuadtree::new(config).unwrap();
        let restored = MemoryLimitedQuadtree::from_snapshot(&m.snapshot()).unwrap();
        assert_eq!(restored.node_count(), 1);
        assert_eq!(restored.predict(&[0.5]).unwrap(), None);
    }

    fn fallback_config() -> MlqConfig {
        MlqConfig::builder(Space::cube(2, 0.0, 1000.0).unwrap())
            .memory_budget(2048)
            .strategy(InsertionStrategy::Lazy { alpha: 0.05 })
            .build()
            .unwrap()
    }

    /// The bit-at-a-time CRC-32 the table is derived from: the reference
    /// the table-driven [`crc32`] must agree with.
    fn crc32_bitwise(chunks: &[&[u8]]) -> u32 {
        let mut crc: u32 = !0;
        for chunk in chunks {
            for &byte in *chunk {
                crc ^= u32::from(byte);
                for _ in 0..8 {
                    let mask = (crc & 1).wrapping_neg();
                    crc = (crc >> 1) ^ (CRC_POLY & mask);
                }
            }
        }
        !crc
    }

    /// SplitMix64, for seeded test inputs.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The classic IEEE check value for "123456789".
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b"1234", b"56789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b""]), 0);
        assert_eq!(crc32_bitwise(&[b"123456789"]), 0xCBF4_3926);
    }

    #[test]
    fn table_crc32_agrees_with_the_bitwise_reference() {
        let mut state = 0xC3C3_2024u64;
        for len in 0..=300usize {
            let data: Vec<u8> = (0..len).map(|_| splitmix(&mut state) as u8).collect();
            // Split into random chunks, empty ones included: the CRC is
            // over the concatenation, whatever the chunking.
            let mut chunks: Vec<&[u8]> = Vec::new();
            let mut rest = data.as_slice();
            while !rest.is_empty() {
                let take = (splitmix(&mut state) % (rest.len() as u64 + 1)) as usize;
                let (head, tail) = rest.split_at(take);
                chunks.push(head);
                rest = tail;
            }
            let whole = crc32_bitwise(&[&data]);
            assert_eq!(crc32(&chunks), whole, "length {len}, {} chunks", chunks.len());
            assert_eq!(crc32(&[&data]), whole, "length {len}");
        }
    }

    #[test]
    fn envelope_roundtrips() {
        let original = trained_model();
        let bytes = original.snapshot().to_envelope();
        assert_eq!(&bytes[0..4], &SNAPSHOT_MAGIC);
        let outcome = MemoryLimitedQuadtree::restore(&bytes, fallback_config()).unwrap();
        assert!(outcome.is_restored());
        let restored = outcome.into_model();
        assert_eq!(restored.node_count(), original.node_count());
        assert_eq!(restored.root_summary(), original.root_summary());
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let original = trained_model();
        let bytes = original.snapshot().to_envelope();
        // Exhaustively flipping every bit is O(n²) in payload size; a
        // stride keeps the test fast while still crossing header,
        // payload, and tail.
        let stride = (bytes.len() / 97).max(1);
        for byte_idx in (0..bytes.len()).step_by(stride) {
            for bit in 0..8 {
                let mut mutated = bytes.clone();
                mutated[byte_idx] ^= 1 << bit;
                let outcome = MemoryLimitedQuadtree::restore(&mutated, fallback_config()).unwrap();
                assert!(
                    !outcome.is_restored(),
                    "flip of bit {bit} in byte {byte_idx} restored silently"
                );
            }
        }
    }

    #[test]
    fn truncation_and_garbage_are_corrupt_not_panics() {
        let bytes = trained_model().snapshot().to_envelope();
        for len in [0, 1, 4, HEADER_LEN - 1, HEADER_LEN, bytes.len() - 1] {
            let outcome = MemoryLimitedQuadtree::restore(&bytes[..len], fallback_config()).unwrap();
            assert!(!outcome.is_restored(), "truncation to {len} bytes restored");
        }
        let garbage: Vec<u8> = (0..1000u32).map(|i| (i.wrapping_mul(251) % 256) as u8).collect();
        assert!(matches!(
            MemoryLimitedQuadtree::restore(&garbage, fallback_config()).unwrap(),
            RestoreOutcome::CorruptFellBackToFresh { .. }
        ));
        assert!(matches!(
            TreeSnapshot::from_envelope(&garbage),
            Err(MlqError::SnapshotCorrupt { .. })
        ));
    }

    #[test]
    fn future_version_reports_mismatch() {
        let mut bytes = trained_model().snapshot().to_envelope();
        // Rewrite the version field and re-stamp the checksum so the
        // envelope is intact, just from the future.
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        let crc = crc32(&[&bytes[4..8], &bytes[8..16], &bytes[HEADER_LEN..]]);
        bytes[16..20].copy_from_slice(&crc.to_le_bytes());
        match MemoryLimitedQuadtree::restore(&bytes, fallback_config()).unwrap() {
            RestoreOutcome::VersionMismatch { found, supported, model } => {
                assert_eq!(found, 99);
                assert_eq!(supported, SNAPSHOT_VERSION);
                assert_eq!(model.root_summary().count, 0);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
        // Without the checksum fix-up the same edit reads as corruption.
        let mut unstamped = trained_model().snapshot().to_envelope();
        unstamped[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            MemoryLimitedQuadtree::restore(&unstamped, fallback_config()).unwrap(),
            RestoreOutcome::CorruptFellBackToFresh { .. }
        ));
    }

    #[test]
    fn valid_envelope_with_hostile_payload_falls_back() {
        // A well-checksummed envelope whose payload parses as a snapshot
        // the tree itself rejects must fall back, not panic.
        let mut snapshot = trained_model().snapshot();
        if snapshot.nodes.len() > 1 {
            snapshot.nodes[1].depth = 200;
        }
        let bytes = snapshot.to_envelope();
        match MemoryLimitedQuadtree::restore(&bytes, fallback_config()).unwrap() {
            RestoreOutcome::CorruptFellBackToFresh { reason, .. } => {
                assert!(reason.contains("snapshot"), "unhelpful reason: {reason}");
            }
            other => panic!("expected fallback, got {other:?}"),
        }
    }

    #[test]
    fn envelope_is_the_snapshot_frame_byte_for_byte() {
        let snapshot = trained_model().snapshot();
        let payload = snapshot.encode_payload();
        let bytes = snapshot.to_envelope();
        assert_eq!(bytes, seal_frame(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, &payload));
        // The documented header, field by field.
        assert_eq!(&bytes[0..4], b"MLQS");
        assert_eq!(bytes[4..8], 2u32.to_le_bytes());
        assert_eq!(bytes[8..16], (payload.len() as u64).to_le_bytes());
        let crc = crc32(&[&bytes[4..8], &bytes[8..16], &payload]);
        assert_eq!(bytes[16..20], crc.to_le_bytes());
        assert_eq!(&bytes[HEADER_LEN..], payload.as_slice());

        // The documented payload, field by field: a 2-D lazy model over
        // [0, 1000]^2 with a 2 KiB budget and the default β, γ, λ.
        let mut r = ByteReader::new(&payload);
        assert_eq!(r.u8().unwrap(), 2);
        for _ in 0..2 {
            assert_eq!(r.f64().unwrap().to_bits(), 0.0f64.to_bits());
        }
        for _ in 0..2 {
            assert_eq!(r.f64().unwrap(), 1000.0);
        }
        assert_eq!(r.u64().unwrap(), 2048);
        assert_eq!(r.u8().unwrap(), 1);
        assert_eq!(r.f64().unwrap(), 0.05);
        assert_eq!(r.u64().unwrap(), 1);
        assert_eq!(r.f64().unwrap(), 0.001);
        assert_eq!(r.u8().unwrap(), 6);
        assert_eq!(r.u8().unwrap(), u8::from(snapshot.had_compression));
        assert_eq!(r.u32().unwrap() as usize, snapshot.nodes.len());
        assert_eq!(r.remaining(), NODE_WIRE_BYTES * snapshot.nodes.len());
        for (i, node) in snapshot.nodes.iter().enumerate() {
            assert_eq!(r.f64().unwrap().to_bits(), node.summary.sum.to_bits(), "node {i}");
            assert_eq!(r.u64().unwrap(), node.summary.count, "node {i}");
            assert_eq!(r.f64().unwrap().to_bits(), node.summary.sum_sq.to_bits(), "node {i}");
            assert_eq!(r.u8().unwrap(), node.depth, "node {i}");
            assert_eq!(r.u16().unwrap(), node.slot_in_parent, "node {i}");
            let parent = r.u32().unwrap();
            assert_eq!(parent, if i == 0 { u32::MAX } else { node.parent.unwrap() }, "node {i}");
        }
        assert!(r.done());
        // Lazy α is the only optional field: an eager model's payload is
        // eight bytes shorter.
        let mut eager = snapshot.clone();
        eager.config.strategy = InsertionStrategy::Eager;
        assert_eq!(eager.encode_payload().len(), payload.len() - 8);
    }

    /// A CRC-valid envelope whose nodes form one parent chain of `len`
    /// nodes, node `k` at depth `min(k, 255)` in slot 0.
    fn chain_envelope(len: usize) -> Vec<u8> {
        let nodes = (0..len)
            .map(|k| SnapshotNode {
                summary: Summary { sum: 1.0, count: 1, sum_sq: 1.0 },
                depth: k.min(255) as u8,
                slot_in_parent: 0,
                parent: k.checked_sub(1).map(|p| p as u32),
            })
            .collect();
        TreeSnapshot { config: fallback_config(), nodes, had_compression: false }.to_envelope()
    }

    #[test]
    fn deep_parent_chains_are_corrupt_not_panics() {
        // 258 nodes reach a parent at depth 255, whose child depth does not
        // fit a u8; 40 nodes stay in range but pass λ = 6 long before the
        // invariant checker would see them.
        for len in [258, 40] {
            match MemoryLimitedQuadtree::restore(&chain_envelope(len), fallback_config()).unwrap() {
                RestoreOutcome::CorruptFellBackToFresh { reason, model } => {
                    assert!(reason.contains("deeper than lambda"), "{len} nodes: {reason}");
                    assert_eq!(model.node_count(), 1);
                }
                other => panic!("{len}-node chain: expected fallback, got {other:?}"),
            }
        }
    }

    #[test]
    fn json_version_1_envelopes_report_a_version_mismatch() {
        // What a version-1 build wrote: a JSON payload, sealed as v1.
        let json = br#"{"config":{"space":{"lows":[0.0,0.0],"highs":[1000.0,1000.0]},"memory_budget":2048,"strategy":{"Lazy":{"alpha":0.05}},"beta":1,"gamma":0.001,"lambda":6},"nodes":[{"summary":{"sum":0.0,"count":0,"sum_sq":0.0},"depth":0,"slot_in_parent":0,"parent":null}],"had_compression":false}"#;
        let bytes = seal_frame(SNAPSHOT_MAGIC, 1, json);
        match MemoryLimitedQuadtree::restore(&bytes, fallback_config()).unwrap() {
            RestoreOutcome::VersionMismatch { found, supported, model } => {
                assert_eq!((found, supported), (1, 2));
                assert_eq!(model.root_summary().count, 0);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
        let err = TreeSnapshot::from_envelope(&bytes).unwrap_err().to_string();
        assert!(err.contains("version 1"), "{err}");
    }

    #[test]
    fn envelope_fits_within_the_accounted_bytes() {
        for dims in [2usize, 4] {
            let config = MlqConfig::builder(Space::cube(dims, 0.0, 1000.0).unwrap())
                .memory_budget(8192)
                .strategy(InsertionStrategy::Lazy { alpha: 0.05 })
                .build()
                .unwrap();
            let mut m = MemoryLimitedQuadtree::new(config).unwrap();
            for i in 0..600u32 {
                let p: Vec<f64> = (0..dims as u32)
                    .map(|d| f64::from(i.wrapping_mul(97 + 31 * d) % 1000))
                    .collect();
                m.insert(&p, f64::from(i % 17)).unwrap();
            }
            assert!(m.node_count() >= 16, "{dims}-D model has {} nodes", m.node_count());
            let envelope = m.snapshot().to_envelope();
            assert!(
                envelope.len() <= m.bytes_used(),
                "{dims}-D: envelope {} B > accounted {} B",
                envelope.len(),
                m.bytes_used()
            );
        }
    }

    /// Re-seals a hand-edited payload so the CRC is valid and only the
    /// payload decoder can object.
    fn restore_payload(payload: &[u8]) -> RestoreOutcome {
        let bytes = seal_frame(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, payload);
        MemoryLimitedQuadtree::restore(&bytes, fallback_config()).unwrap()
    }

    fn corrupt_reason(outcome: RestoreOutcome) -> String {
        match outcome {
            RestoreOutcome::CorruptFellBackToFresh { reason, .. } => reason,
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    #[test]
    fn hostile_payload_fields_are_rejected_with_reasons() {
        let payload = trained_model().snapshot().encode_payload();
        // Offsets of the 2-D lazy layout: dims, 4 bounds, budget, tag.
        let tag_at = 1 + 4 * 8 + 8;
        let flag_at = tag_at + 1 + 8 + 8 + 8 + 1;
        let count_at = flag_at + 1;

        for (dims, needle) in [(0u8, "0 dimensions"), (17, "17 dimensions")] {
            let mut p = payload.clone();
            p[0] = dims;
            assert!(corrupt_reason(restore_payload(&p)).contains(needle));
        }
        let mut p = payload.clone();
        p[tag_at] = 2;
        assert!(corrupt_reason(restore_payload(&p)).contains("unknown strategy tag 2"));
        let mut p = payload.clone();
        p[flag_at] = 2;
        assert!(corrupt_reason(restore_payload(&p)).contains("not 0 or 1"));
        let mut p = payload.clone();
        p[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(corrupt_reason(restore_payload(&p)).contains("nodes but"));
        let mut p = payload.clone();
        p.push(0);
        assert!(corrupt_reason(restore_payload(&p)).contains("1 trailing bytes"));
        let reason = corrupt_reason(restore_payload(&payload[..payload.len() - 1]));
        assert!(reason.contains("nodes but"), "{reason}");
        // An inverted space fails `Space::new`, not a panic.
        let mut p = payload.clone();
        p[1..9].copy_from_slice(&5000.0f64.to_bits().to_le_bytes());
        assert!(corrupt_reason(restore_payload(&p)).contains("space"));
        // The untouched payload restores.
        assert!(restore_payload(&payload).is_restored());
    }

    #[test]
    fn generic_frames_roundtrip_and_reject_corruption() {
        let payload = b"some durable payload".to_vec();
        let sealed = seal_frame(*b"MLQX", 7, &payload);
        assert_eq!(open_frame(*b"MLQX", 7, &sealed).unwrap(), payload.as_slice());
        // Wrong magic, wrong version, flipped bits, truncation: all loud.
        assert!(open_frame(*b"XXXX", 7, &sealed).is_err());
        assert!(open_frame(*b"MLQX", 8, &sealed).is_err());
        for idx in [0, 5, 12, 17, sealed.len() - 1] {
            let mut mutated = sealed.clone();
            mutated[idx] ^= 1;
            assert!(open_frame(*b"MLQX", 7, &mutated).is_err(), "flip at {idx} opened");
        }
        assert!(open_frame(*b"MLQX", 7, &sealed[..sealed.len() - 1]).is_err());
        assert!(open_frame(*b"MLQX", 7, &[]).is_err());
        // An empty payload is a valid frame.
        let empty = seal_frame(*b"MLQX", 1, &[]);
        assert_eq!(open_frame(*b"MLQX", 1, &empty).unwrap(), &[] as &[u8]);
    }
}
