//! Durable replica logs (`CCM2RLOG`) and ring membership (`CCM2MBRS`):
//! the router-crash half of the fabric's recovery plane.
//!
//! A shard's per-origin [`ReplicaLog`]s are pure
//! potential energy: they only matter at failover, which is exactly
//! when the process holding them may itself have just restarted. This
//! module persists the full replica map, so a shard (or the whole
//! fleet) can come back up holding every delta op it had parked for
//! its peers — a router kill between ship and absorb loses zero ops —
//! and the ring membership a standby router mirrors and a freshly
//! promoted leader restores.
//!
//! Both are whole-state images rewritten on every mutation, sealed in
//! the shared [`ccm2_support::envelope`] and kept in a
//! [`ccm2_support::imagedir::ImageDir`] (`rlog-{seq:08}.img`,
//! `mbrs-{seq:08}.img`; atomic write, newest valid image wins, damaged
//! ones are quarantined, the newest and one fallback are retained).
//!
//! # Payloads
//!
//! ```text
//! CCM2RLOG   count u32, then per origin, ascending:
//!              origin u32 · last_seq u64 · gaps u64 · gapped bool ·
//!              bytes `ccm2_incr::encode_delta(0, ops)`
//! CCM2MBRS   epoch u64 · leader u32 · count u32 · member u32*, ascending
//! ```

use std::collections::HashMap;
use std::io;
use std::path::PathBuf;

use ccm2_incr::{decode_delta, encode_delta};
use ccm2_support::envelope::{Format, OpenError};
use ccm2_support::imagedir::{ImageDir, Loaded};

use crate::shard::ReplicaLog;

/// The replica-log image envelope.
pub const RLOG_FORMAT: Format = Format {
    magic: *b"CCM2RLOG",
    version: 3,
};

/// The membership image envelope.
pub const MBRS_FORMAT: Format = Format {
    magic: *b"CCM2MBRS",
    version: 3,
};

/// A directory of replica-log images plus their quarantine.
#[derive(Debug)]
pub struct ReplicaLogStore {
    images: ImageDir,
}

impl ReplicaLogStore {
    /// Opens (creating if needed) a replica-log directory.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<ReplicaLogStore> {
        Ok(ReplicaLogStore {
            images: ImageDir::new(dir, "rlog")?,
        })
    }

    /// Writes a new image of `logs`.
    pub fn save(&self, logs: &HashMap<u32, ReplicaLog>) -> io::Result<PathBuf> {
        self.images.save(&encode_replica_logs(logs))
    }

    /// Loads the newest valid image, quarantining any torn/corrupt ones
    /// encountered on the way down.
    pub fn load_latest(&self) -> io::Result<Loaded<HashMap<u32, ReplicaLog>>> {
        self.images.load_latest(decode_replica_logs)
    }

    /// Number of quarantined images currently on disk.
    pub fn quarantined_count(&self) -> usize {
        self.images.quarantined_count()
    }
}

/// Encodes a replica map; origins in ascending order, so equal maps
/// give equal bytes.
pub fn encode_replica_logs(logs: &HashMap<u32, ReplicaLog>) -> Vec<u8> {
    let mut origins: Vec<u32> = logs.keys().copied().collect();
    origins.sort_unstable();
    RLOG_FORMAT.seal(|w| {
        w.seq(&origins, |w, origin| {
            let log = &logs[origin];
            w.u32(*origin);
            w.u64(log.last_seq);
            w.u64(log.gaps);
            w.bool(log.gapped);
            w.bytes(&encode_delta(0, &log.ops));
        })
    })
}

/// Decodes a replica map. The envelope, the payload grammar, origin
/// order and every embedded `CCM2DELT` batch must all hold; anything
/// else is `None` and the store quarantines the image.
pub fn decode_replica_logs(buf: &[u8]) -> Option<HashMap<u32, ReplicaLog>> {
    let mut r = RLOG_FORMAT.open(buf).ok()?;
    let logs = r
        .seq(4 + 8 + 8 + 1 + 4, |r| {
            let origin = r.u32()?;
            let (last_seq, gaps, gapped) = (r.u64()?, r.u64()?, r.bool()?);
            // Batches are written with base 0; another base is not ours.
            let Some((0, ops)) = decode_delta(r.bytes()?) else {
                return Err(OpenError::Malformed("embedded delta batch"));
            };
            let log = ReplicaLog {
                last_seq,
                ops,
                gaps,
                gapped,
            };
            Ok((origin, log))
        })
        .ok()?;
    r.done().ok()?;
    // Unsorted or duplicated origins: a framing bug or tampering.
    let ascending = logs.windows(2).all(|w| w[0].0 < w[1].0);
    ascending.then(|| logs.into_iter().collect())
}

/// One durable membership record: the lease epoch it was written under,
/// the router that wrote it, and the ring membership at that moment.
/// This is the state a standby router mirrors and a freshly promoted
/// leader restores — the durable half of router failover.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MembershipImage {
    /// Lease epoch the writer held.
    pub epoch: u64,
    /// The writing router's id.
    pub leader: u32,
    /// Ring members at write time, ascending.
    pub members: Vec<u32>,
}

/// A directory of membership images plus their quarantine.
#[derive(Debug)]
pub struct MembershipStore {
    images: ImageDir,
}

impl MembershipStore {
    /// Opens (creating if needed) a membership directory.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<MembershipStore> {
        Ok(MembershipStore {
            images: ImageDir::new(dir, "mbrs")?,
        })
    }

    /// Writes a new membership image.
    pub fn save(&self, image: &MembershipImage) -> io::Result<PathBuf> {
        self.images.save(&encode_membership(image))
    }

    /// Loads the newest valid image, quarantining torn/corrupt/skewed
    /// ones encountered on the way down.
    pub fn load_latest(&self) -> io::Result<Loaded<MembershipImage>> {
        self.images.load_latest(decode_membership)
    }

    /// Number of quarantined images currently on disk.
    pub fn quarantined_count(&self) -> usize {
        self.images.quarantined_count()
    }
}

/// Encodes a membership image; members in ascending order.
pub fn encode_membership(image: &MembershipImage) -> Vec<u8> {
    let mut members = image.members.clone();
    members.sort_unstable();
    MBRS_FORMAT.seal(|w| {
        w.u64(image.epoch);
        w.u32(image.leader);
        w.seq(&members, |w, m| w.u32(*m));
    })
}

/// Decodes a membership image; `None` for anything the envelope or the
/// payload grammar refuses, unsorted or duplicated members included.
pub fn decode_membership(buf: &[u8]) -> Option<MembershipImage> {
    let mut r = MBRS_FORMAT.open(buf).ok()?;
    let image = MembershipImage {
        epoch: r.u64().ok()?,
        leader: r.u32().ok()?,
        members: r.seq(4, |r| r.u32()).ok()?,
    };
    r.done().ok()?;
    let ascending = image.members.windows(2).all(|w| w[0] < w[1]);
    ascending.then_some(image)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccm2_incr::DeltaOp;
    use ccm2_support::hash::Fp128;

    fn fp(n: u64) -> Fp128 {
        Fp128 { hi: n, lo: !n }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ccm2-rlog-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_logs() -> HashMap<u32, ReplicaLog> {
        let mut logs = HashMap::new();
        logs.insert(
            2,
            ReplicaLog {
                last_seq: 11,
                ops: vec![
                    DeltaOp::Insert {
                        fp: fp(1),
                        bytes: b"one".to_vec(),
                    },
                    DeltaOp::Evict { fp: fp(9) },
                ],
                gaps: 0,
                gapped: false,
            },
        );
        logs.insert(
            5,
            ReplicaLog {
                last_seq: 40,
                ops: vec![DeltaOp::Insert {
                    fp: fp(3),
                    bytes: b"three".to_vec(),
                }],
                gaps: 2,
                gapped: true,
            },
        );
        logs
    }

    // The directory protocol (fallback, quarantine, retention) is
    // `ImageDir`'s and tested there; these are the typed fronts.
    #[test]
    fn replica_logs_save_and_load_every_field_and_quarantine_a_foreign_image() {
        let dir = tmp_dir("rt");
        let store = ReplicaLogStore::new(&dir).unwrap();
        assert!(store.load_latest().unwrap().image.is_none(), "cold start");
        let logs = sample_logs();
        let path = store.save(&logs).unwrap();
        assert!(path.ends_with("rlog-00000001.img"));
        // A membership image under a replica-log name is not a replica log.
        let foreign = encode_membership(&MembershipImage::default());
        std::fs::write(dir.join("rlog-00000002.img"), foreign).unwrap();
        let loaded = store.load_latest().unwrap();
        assert_eq!(loaded.quarantined.len(), 1);
        assert_eq!(store.quarantined_count(), 1);
        assert_eq!(loaded.image, Some(logs));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replica_logs_refuse_unsorted_origins_and_rebased_batches() {
        let image = |origins: [u32; 2], base: u64| {
            RLOG_FORMAT.seal(|w| {
                w.u32(2);
                for origin in origins {
                    w.u32(origin);
                    w.u64(0);
                    w.u64(0);
                    w.bool(false);
                    w.bytes(&encode_delta(base, &[]));
                }
            })
        };
        assert!(decode_replica_logs(&image([1, 2], 0)).is_some());
        assert!(decode_replica_logs(&image([2, 1], 0)).is_none(), "unsorted");
        assert!(
            decode_replica_logs(&image([1, 1], 0)).is_none(),
            "duplicate"
        );
        assert!(decode_replica_logs(&image([1, 2], 7)).is_none(), "base 7");
    }

    #[test]
    fn membership_saves_and_loads_and_refuses_unsorted_members() {
        let dir = tmp_dir("mbrs-rt");
        let store = MembershipStore::new(&dir).unwrap();
        assert!(store.load_latest().unwrap().image.is_none(), "cold start");
        let image = MembershipImage {
            epoch: 7,
            leader: 2,
            members: vec![4, 0, 1],
        };
        store.save(&image).unwrap();
        let sorted = MembershipImage {
            members: vec![0, 1, 4],
            ..image
        };
        assert_eq!(store.load_latest().unwrap().image, Some(sorted));
        let unsorted = MBRS_FORMAT.seal(|w| {
            w.u64(7);
            w.u32(2);
            w.u32(2);
            w.u32(4);
            w.u32(0);
        });
        assert!(decode_membership(&unsorted).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
