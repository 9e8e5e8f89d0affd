//! Crash-safe [`MemStore`] snapshots (`CCM2SNAP`): the
//! service-restart half of the self-healing recovery plane.
//!
//! A snapshot is one image of the whole shared artifact store, sealed
//! in the shared [`ccm2_support::envelope`] and kept in a
//! [`ccm2_support::imagedir::ImageDir`] (`snap-{seq:08}.img`; atomic
//! write, newest valid image wins, damaged ones are quarantined, the
//! newest and one fallback are retained).
//!
//! # Payload
//!
//! ```text
//! count      u32       number of entries
//! entry*     fp, bytes   (count times)
//! ```
//!
//! A fabric shard keeps its replica of each peer's store as such an
//! image too.
//!
//! Entries are stored **in LRU recency order, least recently used
//! first** ([`MemStore::export`]), so replaying them in file order
//! on restore rebuilds the same eviction order — LRU behavior survives
//! the restart.

use std::io;
use std::path::PathBuf;

use ccm2_incr::MemStore;
use ccm2_support::envelope::Format;
use ccm2_support::hash::Fp128;
use ccm2_support::imagedir::{ImageDir, Loaded};

/// The snapshot-image envelope.
pub const SNAPSHOT_FORMAT: Format = Format {
    magic: *b"CCM2SNAP",
    version: 5,
};

/// One decoded snapshot image.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotImage {
    /// The store's entries, oldest-recency first.
    pub entries: Vec<(Fp128, Vec<u8>)>,
}

/// A directory of store snapshot images plus their quarantine.
///
/// This is how a store outlives its process: one process saves the
/// whole store, the next imports the newest image into a fresh one, and
/// its compile is warm.
///
/// ```
/// use std::sync::Arc;
/// use ccm2::{compile_concurrent, ConcurrentOutput, Options};
/// use ccm2_incr::{comparable_output, MemStore};
/// use ccm2_serve::SnapshotStore;
/// use ccm2_support::defs::DefLibrary;
/// use ccm2_support::Interner;
///
/// let mut defs = DefLibrary::new();
/// defs.insert("Lib", "DEFINITION MODULE Lib; CONST Times = 2; END Lib.");
/// let defs = Arc::new(defs);
/// let source = "MODULE Hello; FROM Lib IMPORT Times; VAR i: INTEGER; \
///               PROCEDURE Greet; BEGIN WriteString('hello') END Greet; \
///               BEGIN FOR i := 1 TO Times DO Greet END; WriteLn END Hello.";
/// let compile = |store: Arc<MemStore>| {
///     let options = Options {
///         incremental: Some(store),
///         ..Options::threads(2)
///     };
///     compile_concurrent(source, defs.clone(), Arc::new(Interner::new()), options)
/// };
/// let output = |out: &ConcurrentOutput| {
///     comparable_output(out.image.as_ref(), &out.diagnostics, &out.sources, &out.interner)
/// };
/// let dir = std::env::temp_dir().join(format!("ccm2-snapshot-doc-{}", std::process::id()));
///
/// // One process compiles cold into its store and saves the store.
/// let store = Arc::new(MemStore::new());
/// let cold = compile(Arc::clone(&store));
/// assert!(cold.is_ok(), "{:?}", cold.diagnostics);
/// SnapshotStore::new(&dir)?.save(&store)?;
///
/// // The next process imports the newest image into a fresh store.
/// let loaded = SnapshotStore::new(&dir)?.load_latest()?;
/// let restored = Arc::new(MemStore::new());
/// restored.import(loaded.image.expect("the saved image").entries);
/// let warm = compile(restored);
/// let incr = warm.incr.expect("an incremental compile");
/// assert_eq!(incr.spliced, incr.units, "every unit spliced");
/// assert_eq!(incr.interfaces_spliced, incr.interfaces);
/// assert_eq!(output(&warm), output(&cold));
/// # std::fs::remove_dir_all(&dir)?;
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct SnapshotStore {
    images: ImageDir,
}

impl SnapshotStore {
    /// Opens (creating if needed) a snapshot directory.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<SnapshotStore> {
        Ok(SnapshotStore {
            images: ImageDir::new(dir, "snap")?,
        })
    }

    /// Writes a new image of `store` and returns its path.
    pub fn save(&self, store: &MemStore) -> io::Result<PathBuf> {
        self.images.save(&encode_snapshot(&store.export()))
    }

    /// Loads the newest valid image, quarantining any torn/corrupt ones
    /// encountered on the way down.
    pub fn load_latest(&self) -> io::Result<Loaded<SnapshotImage>> {
        self.images.load_latest(decode_snapshot)
    }

    /// Number of quarantined images currently on disk.
    pub fn quarantined_count(&self) -> usize {
        self.images.quarantined_count()
    }
}

/// Encodes one snapshot image.
pub fn encode_snapshot(entries: &[(Fp128, Vec<u8>)]) -> Vec<u8> {
    SNAPSHOT_FORMAT.seal(|w| {
        w.seq(entries, |w, (fp, bytes)| {
            w.fp(*fp);
            w.bytes(bytes);
        });
    })
}

/// Decodes one snapshot image; anything the envelope or the payload
/// grammar refuses is `None` and the image is quarantined by the store.
pub fn decode_snapshot(buf: &[u8]) -> Option<SnapshotImage> {
    let mut r = SNAPSHOT_FORMAT.open(buf).ok()?;
    let image = SnapshotImage {
        entries: r.seq(20, |r| Ok((r.fp()?, r.bytes()?.to_vec()))).ok()?,
    };
    r.done().ok()?;
    Some(image)
}

impl crate::service::CompileService {
    /// Persists the shared store into a new snapshot image (crash-atomic
    /// write); returns the image path. Call at any point — the store
    /// mutex makes the export a consistent cut.
    pub fn snapshot(&self, snaps: &SnapshotStore) -> io::Result<PathBuf> {
        snaps.save(self.store())
    }

    /// Starts a service whose store is restored from the newest valid
    /// snapshot in `snaps` (torn images are quarantined, recovery falls
    /// back to the last good one; a fresh directory starts cold). LRU
    /// recency order is preserved across the restart.
    pub fn restore(
        config: crate::service::ServeConfig,
        snaps: &SnapshotStore,
    ) -> io::Result<crate::service::CompileService> {
        let store = MemStore::with_budget(config.store_budget);
        if let Some(image) = snaps.load_latest()?.image {
            store.import(image.entries);
        }
        Ok(crate::service::CompileService::start_with_store(
            config,
            std::sync::Arc::new(store),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccm2_incr::ArtifactStore as _;

    fn fp(n: u64) -> Fp128 {
        Fp128 { hi: n, lo: !n }
    }

    // The directory protocol (fallback, quarantine, retention) is
    // `ImageDir`'s and tested there; this is the typed front.
    #[test]
    fn save_and_load_preserve_entries_and_recency_order() {
        let dir = std::env::temp_dir().join(format!("ccm2-snap-rt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let snaps = SnapshotStore::new(&dir).unwrap();
        assert!(snaps.load_latest().unwrap().image.is_none(), "cold start");
        let store = MemStore::with_budget(1024);
        store.store(fp(1), b"one");
        store.store(fp(2), b"two");
        store.load(fp(1)); // recency order now 2, 1
        let path = snaps.save(&store).unwrap();
        assert!(path.ends_with("snap-00000001.img"));
        // A newer image of another format is refused and quarantined.
        std::fs::write(dir.join("snap-00000002.img"), b"CCM2SNAP, but not really").unwrap();
        let loaded = snaps.load_latest().unwrap();
        assert_eq!(loaded.quarantined.len(), 1);
        assert_eq!(snaps.quarantined_count(), 1);
        assert_eq!(
            loaded.image,
            Some(SnapshotImage {
                entries: vec![(fp(2), b"two".to_vec()), (fp(1), b"one".to_vec())],
            })
        );
        // Every snapshot is a full store image: `save` must prune.
        for _ in 0..10 {
            snaps.save(&store).unwrap();
        }
        let left = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(left, 3, "newest, one fallback, and quarantine/");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
