//! Store-delta entry format: a batch of store mutations.
//!
//! A full snapshot image replays an *entire* artifact store; a **delta
//! batch** replays only what one store changed since its previous batch
//! was taken ([`MemStore::drain_deltas`](crate::MemStore::drain_deltas))
//! — insertions (with their bytes) and evictions/quarantines (key only).
//! The same encoded batch serves two consumers:
//!
//! * the `ccm2-fabric` replication stream, where shards ship batches to
//!   peers inside `CCM2WIRE` frames, and each peer replays them into its
//!   replica of the sender's store ([`MemStore::apply_delta`](crate::MemStore::apply_delta));
//! * tests, which forge torn/bit-flipped batches to prove validation
//!   degrades to a miss instead of misdecoding.
//!
//! # Payload (`CCM2DELT`, sealed in [`ccm2_support::envelope`])
//!
//! ```text
//! count      u32       number of ops
//! op*        tag u8 (1=insert, 2=evict), fp,
//!            [insert only: bytes]
//! ```
//!
//! A batch carries no position: replication is warmth, and a replica
//! applies whatever batch reaches it.

use ccm2_support::envelope::{Format, OpenError, OVERHEAD};
use ccm2_support::hash::Fp128;

/// The delta-batch envelope. Readers treat other versions as invalid
/// (quarantine / miss), never as data.
pub const DELTA_FORMAT: Format = Format {
    magic: *b"CCM2DELT",
    version: 4,
};

/// One store mutation, in replay order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaOp {
    /// An entry was admitted (insertion or replacement).
    Insert {
        /// Content-address of the artifact.
        fp: Fp128,
        /// The artifact bytes.
        bytes: Vec<u8>,
    },
    /// An entry was removed (LRU eviction or quarantine).
    Evict {
        /// Content-address of the removed artifact.
        fp: Fp128,
    },
}

impl DeltaOp {
    /// The content-address this op touches.
    pub fn fp(&self) -> Fp128 {
        match self {
            DeltaOp::Insert { fp, .. } | DeltaOp::Evict { fp } => *fp,
        }
    }

    /// Encoded size of this op in a batch, in bytes.
    pub fn encoded_len(&self) -> usize {
        match self {
            DeltaOp::Insert { bytes, .. } => 1 + 16 + 4 + bytes.len(),
            DeltaOp::Evict { .. } => 1 + 16,
        }
    }
}

/// Encodes `ops` as one checksummed batch.
pub fn encode_delta(ops: &[DeltaOp]) -> Vec<u8> {
    DELTA_FORMAT.seal(|w| {
        w.reserve(4 + ops.iter().map(DeltaOp::encoded_len).sum::<usize>() + OVERHEAD);
        w.seq(ops, |w, op| match op {
            DeltaOp::Insert { fp, bytes } => {
                w.u8(1);
                w.fp(*fp);
                w.bytes(bytes);
            }
            DeltaOp::Evict { fp } => {
                w.u8(2);
                w.fp(*fp);
            }
        });
    })
}

/// Decodes a batch's ops. Anything the envelope or the payload grammar
/// refuses (torn tail, bit flip, other version, trailing bytes) is
/// `None` and the caller degrades to a miss / quarantines the segment.
pub fn decode_delta(buf: &[u8]) -> Option<Vec<DeltaOp>> {
    let mut r = DELTA_FORMAT.open(buf).ok()?;
    let ops = r
        .seq(17, |r| {
            let tag = r.u8()?;
            let fp = r.fp()?;
            match tag {
                1 => Ok(DeltaOp::Insert {
                    fp,
                    bytes: r.bytes()?.to_vec(),
                }),
                2 => Ok(DeltaOp::Evict { fp }),
                _ => Err(OpenError::Malformed("delta op tag")),
            }
        })
        .ok()?;
    r.done().ok()?;
    Some(ops)
}

/// The number of ops a batch holds, read from its header without
/// decoding (or copying) a single op. `None` where the envelope refuses
/// the batch, or its count could not fit; a batch whose ops are
/// malformed past the count still counts here, and
/// [`decode_delta`] refuses it wherever it is applied.
pub fn delta_op_count(buf: &[u8]) -> Option<usize> {
    DELTA_FORMAT.open(buf).ok()?.count(17).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: u64) -> Fp128 {
        Fp128 { hi: n, lo: !n }
    }

    fn sample() -> Vec<DeltaOp> {
        vec![
            DeltaOp::Insert {
                fp: fp(1),
                bytes: b"alpha".to_vec(),
            },
            DeltaOp::Evict { fp: fp(2) },
            DeltaOp::Insert {
                fp: fp(3),
                bytes: Vec::new(),
            },
        ]
    }

    #[test]
    fn round_trip_preserves_ops() {
        let ops = sample();
        let buf = encode_delta(&ops);
        assert_eq!(decode_delta(&buf), Some(ops));
    }

    #[test]
    fn empty_batch_round_trips() {
        let buf = encode_delta(&[]);
        assert_eq!(decode_delta(&buf), Some(Vec::new()));
        assert_eq!(delta_op_count(&buf), Some(0));
    }

    #[test]
    fn op_count_reads_the_header_of_a_sealed_batch_only() {
        let buf = encode_delta(&sample());
        assert_eq!(delta_op_count(&buf), Some(3));
        let mut flipped = buf.clone();
        flipped[OVERHEAD] ^= 1;
        assert_eq!(delta_op_count(&flipped), None, "a bit flip breaks the seal");
        assert_eq!(delta_op_count(&buf[..buf.len() - 1]), None, "torn");
    }

    #[test]
    fn encoded_len_matches_actual_encoding() {
        let ops = sample();
        let buf = encode_delta(&ops);
        let overhead = OVERHEAD + 4;
        assert_eq!(
            buf.len(),
            overhead + ops.iter().map(DeltaOp::encoded_len).sum::<usize>()
        );
    }
}
