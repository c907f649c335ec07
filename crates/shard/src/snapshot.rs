//! Versioned shard checkpoints.
//!
//! A [`ShardSnapshot`] is the serialized face of a shard checkpoint,
//! following the `lcl_core::TowerSnapshot` conventions exactly: a
//! plain-data struct, a leading version field readers reject when it
//! is not [`SHARD_SNAPSHOT_VERSION`], and a typed error enum instead
//! of stringly failures. The executor takes one at the start of every
//! superstep of a crash-planned shard and round-trips it through JSON
//! (that is what the `Checkpoint` event attests); the whole-shard
//! rebuild then restores the in-memory image the snapshot describes
//! and replays the lost superstep.
//!
//! The algorithm states themselves are deliberately *not* serialized:
//! `SyncAlgorithm::State` is an opaque type parameter with no wire
//! format, so the JSON carries the structural metadata (who, where,
//! when, and how much halo traffic had flowed) while the state image
//! lives beside it in memory. The cross-process runner
//! (`lcl_procshard`) needs no state codec either: it rehydrates a
//! killed worker by replaying its command history and checks that the
//! replayed worker's last snapshot is byte-identical to the one the
//! dead worker shipped.

use std::fmt;

use lcl_obs::json;

/// Serialization version; bump whenever [`ShardSnapshot::to_json`]
/// changes shape. Readers reject every other version with
/// [`ShardSnapshotError::Version`].
pub const SHARD_SNAPSHOT_VERSION: u64 = 1;

/// Checkpoint metadata for one shard at the start of one superstep.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ShardSnapshot {
    /// Format version ([`SHARD_SNAPSHOT_VERSION`] when written by this
    /// build).
    pub version: u64,
    /// The shard id within the run's partition.
    pub shard: u64,
    /// First structural node index the shard owns.
    pub range_start: u64,
    /// One past the last structural node index the shard owns.
    pub range_end: u64,
    /// The superstep whose start this snapshot captures.
    pub superstep: u64,
    /// Nodes of the shard still live (not died) at capture time.
    pub live_nodes: u64,
    /// Cumulative boundary messages the shard had sent.
    pub halo_messages: u64,
    /// Cumulative boundary bytes (count-derived) the shard had sent.
    pub halo_bytes: u64,
}

/// Why a serialized shard snapshot could not be read back.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ShardSnapshotError {
    /// Malformed JSON at byte `pos`.
    Json {
        /// Byte offset of the failure.
        pos: usize,
        /// What the parser expected.
        what: &'static str,
    },
    /// Structurally valid JSON that violates a snapshot invariant.
    Invalid(&'static str),
    /// A version this build does not understand.
    Version {
        /// The version the document declared.
        found: u64,
        /// The single version this build supports.
        supported: u64,
    },
}

impl fmt::Display for ShardSnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardSnapshotError::Json { pos, what } => {
                write!(f, "malformed snapshot JSON at byte {pos}: expected {what}")
            }
            ShardSnapshotError::Invalid(what) => write!(f, "invalid snapshot: {what}"),
            ShardSnapshotError::Version { found, supported } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (supported: {supported})"
                )
            }
        }
    }
}

impl std::error::Error for ShardSnapshotError {}

impl ShardSnapshot {
    /// Serializes the snapshot to a single-line JSON object, version
    /// field first.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"version\": {}, \"shard\": {}, \"range_start\": {}, \"range_end\": {}, ",
                "\"superstep\": {}, \"live_nodes\": {}, \"halo_messages\": {}, ",
                "\"halo_bytes\": {}}}"
            ),
            self.version,
            self.shard,
            self.range_start,
            self.range_end,
            self.superstep,
            self.live_nodes,
            self.halo_messages,
            self.halo_bytes,
        )
    }

    /// Parses a snapshot previously written by [`ShardSnapshot::to_json`].
    ///
    /// Key order is not significant, but every field must be present
    /// exactly once and the version must be supported.
    ///
    /// # Errors
    ///
    /// [`ShardSnapshotError`] describing the first malformation, missing
    /// or duplicate field, or version mismatch.
    pub fn parse(text: &str) -> Result<Self, ShardSnapshotError> {
        const KEYS: [&str; 8] = [
            "version",
            "shard",
            "range_start",
            "range_end",
            "superstep",
            "live_nodes",
            "halo_messages",
            "halo_bytes",
        ];
        let doc = json::parse(text).map_err(|e| ShardSnapshotError::Json {
            pos: e.pos,
            what: e.what,
        })?;
        let entries = doc.as_obj().ok_or(ShardSnapshotError::Json {
            pos: 0,
            what: "an object",
        })?;
        let mut fields: [Option<u64>; 8] = [None; 8];
        for (key, value) in entries {
            let slot = KEYS
                .iter()
                .position(|k| k == key)
                .ok_or(ShardSnapshotError::Invalid("unknown snapshot field"))?;
            if fields[slot].is_some() {
                return Err(ShardSnapshotError::Invalid("duplicate snapshot field"));
            }
            fields[slot] = Some(value.as_u64().ok_or(ShardSnapshotError::Json {
                pos: 0,
                what: "an unsigned integer",
            })?);
        }
        if let Some(found) = fields[0].filter(|&v| v != SHARD_SNAPSHOT_VERSION) {
            return Err(ShardSnapshotError::Version {
                found,
                supported: SHARD_SNAPSHOT_VERSION,
            });
        }
        let get = |slot: usize| fields[slot].ok_or(ShardSnapshotError::Invalid("missing field"));
        let snapshot = ShardSnapshot {
            version: get(0)?,
            shard: get(1)?,
            range_start: get(2)?,
            range_end: get(3)?,
            superstep: get(4)?,
            live_nodes: get(5)?,
            halo_messages: get(6)?,
            halo_bytes: get(7)?,
        };
        if snapshot.range_end < snapshot.range_start {
            return Err(ShardSnapshotError::Invalid("range_end < range_start"));
        }
        if snapshot.live_nodes > snapshot.range_end - snapshot.range_start {
            return Err(ShardSnapshotError::Invalid("more live nodes than owned"));
        }
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ShardSnapshot {
        ShardSnapshot {
            version: SHARD_SNAPSHOT_VERSION,
            shard: 3,
            range_start: 12,
            range_end: 20,
            superstep: 5,
            live_nodes: 7,
            halo_messages: 44,
            halo_bytes: 352,
        }
    }

    #[test]
    fn json_round_trips_bit_identically() {
        let snap = sample();
        let json = snap.to_json();
        assert!(json.starts_with("{\"version\": 1"), "version field first");
        assert_eq!(ShardSnapshot::parse(&json).unwrap(), snap);
        // Key order is accepted permuted, too.
        let reordered = "{\"shard\": 3, \"version\": 1, \"range_start\": 12, \
             \"range_end\": 20, \"superstep\": 5, \"live_nodes\": 7, \
             \"halo_messages\": 44, \"halo_bytes\": 352}";
        assert_eq!(ShardSnapshot::parse(reordered).unwrap(), snap);
    }

    #[test]
    fn unsupported_versions_are_rejected() {
        let json = sample()
            .to_json()
            .replacen("\"version\": 1", "\"version\": 9", 1);
        assert_eq!(
            ShardSnapshot::parse(&json),
            Err(ShardSnapshotError::Version {
                found: 9,
                supported: SHARD_SNAPSHOT_VERSION,
            })
        );
    }

    #[test]
    fn malformed_documents_carry_the_byte_position() {
        let err = ShardSnapshot::parse("{\"version\": x}").unwrap_err();
        match err {
            ShardSnapshotError::Json { pos, what } => {
                assert_eq!(pos, 12);
                assert_eq!(what, "a JSON value");
            }
            other => panic!("expected Json error, got {other:?}"),
        }
        assert!(ShardSnapshot::parse("").is_err());
        assert!(
            ShardSnapshot::parse("{\"version\": 1}").is_err(),
            "missing fields"
        );
    }

    #[test]
    fn invariant_violations_are_typed() {
        let bad_range = sample()
            .to_json()
            .replacen("\"range_end\": 20", "\"range_end\": 2", 1);
        assert_eq!(
            ShardSnapshot::parse(&bad_range),
            Err(ShardSnapshotError::Invalid("range_end < range_start"))
        );
        let dup = "{\"version\": 1, \"version\": 1}";
        assert_eq!(
            ShardSnapshot::parse(dup),
            Err(ShardSnapshotError::Invalid("duplicate snapshot field"))
        );
        let unknown = "{\"version\": 1, \"bogus\": 2}";
        assert_eq!(
            ShardSnapshot::parse(unknown),
            Err(ShardSnapshotError::Invalid("unknown snapshot field"))
        );
        let err = ShardSnapshot::parse("{\"version\": 9}").unwrap_err();
        assert!(err.to_string().contains("unsupported snapshot version 9"));
    }
}
