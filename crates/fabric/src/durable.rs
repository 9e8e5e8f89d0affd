//! Durable ring membership (`CCM2MBRS`): the router-crash half of the
//! fabric's recovery plane — the state a standby router mirrors and a
//! freshly promoted leader restores.
//!
//! A membership image is a whole-state image rewritten on every change,
//! sealed in the shared [`ccm2_support::envelope`] and kept in a
//! [`ccm2_support::imagedir::ImageDir`] (`mbrs-{seq:08}.img`; atomic
//! write, newest valid image wins, damaged ones are quarantined, the
//! newest and one fallback are retained). A shard's replicas of its
//! peers' stores persist through the store's own path instead,
//! `ccm2_serve::SnapshotStore` (see `crate::shard`).
//!
//! # Payload
//!
//! ```text
//! CCM2MBRS   epoch u64 · leader u32 · count u32 · member u32*, ascending
//! ```

use std::io;
use std::path::PathBuf;

use ccm2_support::envelope::Format;
use ccm2_support::imagedir::{ImageDir, Loaded};

/// The membership image envelope.
pub const MBRS_FORMAT: Format = Format {
    magic: *b"CCM2MBRS",
    version: 3,
};

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

    // The directory protocol (fallback, quarantine, retention) is
    // `ImageDir`'s and tested there; this is the typed front.
    #[test]
    fn membership_saves_and_loads_and_refuses_unsorted_members_and_foreign_images() {
        let dir = std::env::temp_dir().join(format!("ccm2-mbrs-rt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
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
        assert_eq!(store.load_latest().unwrap().image, Some(sorted.clone()));
        // A store snapshot under a membership name is not a membership.
        let foreign = ccm2_serve::encode_snapshot(&[]);
        std::fs::write(dir.join("mbrs-00000002.img"), foreign).unwrap();
        let loaded = store.load_latest().unwrap();
        assert_eq!(loaded.quarantined.len(), 1);
        assert_eq!(store.quarantined_count(), 1);
        assert_eq!(loaded.image, Some(sorted));
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
