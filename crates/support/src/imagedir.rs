//! Directories of whole-state images: atomic writes, newest-valid-wins
//! loading, quarantine.
//!
//! An [`ImageDir`] holds files named `{prefix}-{seq:08}.img`, each a
//! complete image of some state (a store snapshot, a ring membership)
//! that supersedes every older one. The rules, the same for every
//! caller:
//!
//! * **write** — the bytes go to a hidden temp file in the same
//!   directory, are synced to the disk, and the file is then renamed
//!   into place, so a reader sees the previous image set or the
//!   complete new image, never a half-written one. Temp names
//!   carry the process id and a process-wide counter, so concurrent
//!   writers — through one handle or several — never share one.
//! * **retain** — after a save, the new image and the one before it
//!   stay; everything older is removed. The fallback is what a torn or
//!   damaged newest image falls back to.
//! * **load** — newest first; an image the caller's decoder refuses is
//!   moved to `quarantine/` (kept for post-mortem, never read again)
//!   and the next older one is tried. A quarantine directory keeps the
//!   newest [`QUARANTINE_CAP`] files: a forensic buffer, not an archive.
//!
//! What the bytes mean is the caller's business: `ImageDir` never looks
//! inside an image, it only asks the decoder whether it is valid. An
//! artifact store is persisted as one of these images, of the whole
//! store (`ccm2_serve::SnapshotStore`).

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Distinguishes temp files written by one process.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// How many files a `quarantine/` directory keeps; quarantining drops
/// the oldest beyond it.
pub const QUARANTINE_CAP: usize = 16;

/// Writes `bytes` to `dir/name` through a uniquely named hidden temp
/// file, synced to the disk before the rename.
fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> io::Result<PathBuf> {
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!(".{name}.{}.{seq}.tmp", std::process::id()));
    let path = dir.join(name);
    let write = || -> io::Result<()> {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_data()?;
        fs::rename(&tmp, &path)
    };
    if let Err(e) = write() {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    Ok(path)
}

/// Moves `path` into the `quarantine/` directory beside it and returns
/// where it went, then drops the oldest other files there (by
/// modification time) until at most [`QUARANTINE_CAP`] remain.
fn quarantine(path: &Path) -> io::Result<PathBuf> {
    let invalid = || io::Error::new(io::ErrorKind::InvalidInput, "not a file in a directory");
    let qdir = path.parent().ok_or_else(invalid)?.join("quarantine");
    fs::create_dir_all(&qdir)?;
    let dest = qdir.join(path.file_name().ok_or_else(invalid)?);
    fs::rename(path, &dest)?;
    // Best-effort: the file is quarantined whether or not the trim runs.
    if let Ok(rd) = fs::read_dir(&qdir) {
        let mut older: Vec<(std::time::SystemTime, PathBuf)> = rd
            .filter_map(|e| Some(e.ok()?.path()))
            .filter(|p| *p != dest)
            .map(|p| {
                let mtime = p.metadata().and_then(|m| m.modified());
                (mtime.unwrap_or(std::time::SystemTime::UNIX_EPOCH), p)
            })
            .collect();
        older.sort();
        let excess = (older.len() + 1).saturating_sub(QUARANTINE_CAP);
        for (_, old) in &older[..excess] {
            let _ = fs::remove_file(old);
        }
    }
    Ok(dest)
}

/// Number of files in `dir/quarantine/`.
fn quarantined_count(dir: &Path) -> usize {
    fs::read_dir(dir.join("quarantine"))
        .map(|rd| rd.count())
        .unwrap_or(0)
}

/// What [`ImageDir::load_latest`] found.
#[derive(Debug)]
pub struct Loaded<T> {
    /// The newest valid image, decoded; `None` when no image validates
    /// (fresh directory, or every image damaged).
    pub image: Option<T>,
    /// Images that failed validation and were quarantined by this call.
    pub quarantined: Vec<PathBuf>,
}

/// A directory of sequence-numbered images plus their quarantine; see
/// the module docs for the write, retention and load rules.
#[derive(Debug)]
pub struct ImageDir {
    dir: PathBuf,
    prefix: &'static str,
}

impl ImageDir {
    /// Opens (creating if needed) `dir` for images named
    /// `{prefix}-{seq:08}.img`.
    pub fn new(dir: impl Into<PathBuf>, prefix: &'static str) -> io::Result<ImageDir> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ImageDir { dir, prefix })
    }

    /// `(sequence, path)` of every image present, ascending.
    fn images(&self) -> io::Result<Vec<(u64, PathBuf)>> {
        let mut v = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let seq = name
                .to_str()
                .and_then(|n| n.strip_prefix(self.prefix))
                .and_then(|n| n.strip_prefix('-'))
                .and_then(|n| n.strip_suffix(".img"))
                .and_then(|n| n.parse::<u64>().ok());
            if let Some(seq) = seq {
                v.push((seq, entry.path()));
            }
        }
        v.sort();
        Ok(v)
    }

    /// Writes `bytes` as the next image, then removes every image older
    /// than the one this save superseded.
    pub fn save(&self, bytes: &[u8]) -> io::Result<PathBuf> {
        let existing = self.images()?;
        let seq = existing.last().map_or(1, |(s, _)| s + 1);
        let name = format!("{}-{seq:08}.img", self.prefix);
        let path = write_atomic(&self.dir, &name, bytes)?;
        for (_, old) in existing.iter().rev().skip(1) {
            let _ = fs::remove_file(old);
        }
        Ok(path)
    }

    /// Decodes the newest image `decode` accepts, quarantining every
    /// newer one it refuses.
    pub fn load_latest<T>(&self, decode: impl Fn(&[u8]) -> Option<T>) -> io::Result<Loaded<T>> {
        let mut loaded = Loaded {
            image: None,
            quarantined: Vec::new(),
        };
        for (_, path) in self.images()?.into_iter().rev() {
            let bytes = match fs::read(&path) {
                Ok(bytes) => bytes,
                // Pruned by a concurrent save since the listing.
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            };
            loaded.image = decode(&bytes);
            if loaded.image.is_some() {
                break;
            }
            loaded.quarantined.push(quarantine(&path)?);
        }
        Ok(loaded)
    }

    /// Number of quarantined images currently on disk.
    pub fn quarantined_count(&self) -> usize {
        quarantined_count(&self.dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ccm2-imagedir-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// A valid image is `b"ok:"` followed by anything.
    fn decode(bytes: &[u8]) -> Option<Vec<u8>> {
        bytes.strip_prefix(b"ok:").map(<[u8]>::to_vec)
    }

    fn seqs(d: &ImageDir) -> Vec<u64> {
        d.images().unwrap().into_iter().map(|(s, _)| s).collect()
    }

    #[test]
    fn empty_directory_loads_nothing() {
        let dir = tmp_dir("cold");
        let d = ImageDir::new(&dir, "img").unwrap();
        let loaded = d.load_latest(decode).unwrap();
        assert!(loaded.image.is_none() && loaded.quarantined.is_empty());
        assert_eq!(d.quarantined_count(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn ten_saves_leave_the_newest_and_one_fallback() {
        let dir = tmp_dir("prune");
        let d = ImageDir::new(&dir, "img").unwrap();
        for i in 0..10u8 {
            let path = d.save(&[b'o', b'k', b':', i]).unwrap();
            assert!(path.ends_with(format!("img-{:08}.img", i + 1)));
        }
        assert_eq!(seqs(&d), vec![9, 10]);
        assert_eq!(d.load_latest(decode).unwrap().image, Some(vec![9]));
        let leftovers = fs::read_dir(&dir).unwrap().count();
        assert_eq!(leftovers, 2, "no temp file outlives its save");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_images_are_quarantined_newest_first_until_one_validates() {
        let dir = tmp_dir("torn");
        let d = ImageDir::new(&dir, "img").unwrap();
        d.save(b"ok:good").unwrap();
        fs::write(dir.join("img-00000002.img"), b"torn").unwrap();
        fs::write(dir.join("img-00000007.img"), b"skewed").unwrap();
        fs::write(dir.join("other-00000009.img"), b"not ours").unwrap();
        let loaded = d.load_latest(decode).unwrap();
        assert_eq!(loaded.image, Some(b"good".to_vec()));
        let names: Vec<_> = loaded
            .quarantined
            .iter()
            .map(|p| p.file_name().unwrap().to_str().unwrap().to_owned())
            .collect();
        assert_eq!(names, ["img-00000007.img", "img-00000002.img"]);
        assert!(loaded.quarantined.iter().all(|p| p.exists()));
        assert_eq!(d.quarantined_count(), 2);
        assert_eq!(seqs(&d), vec![1], "quarantined images left the set");
        assert!(d.load_latest(decode).unwrap().quarantined.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_image_invalid_loads_nothing_and_quarantines_all() {
        let dir = tmp_dir("allbad");
        let d = ImageDir::new(&dir, "img").unwrap();
        d.save(b"bad one").unwrap();
        d.save(b"bad two").unwrap();
        let loaded = d.load_latest(decode).unwrap();
        assert!(loaded.image.is_none());
        assert_eq!(loaded.quarantined.len(), 2);
        assert_eq!(d.save(b"ok:").unwrap(), dir.join("img-00000001.img"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_quarantine_keeps_the_newest_cap_files_and_the_one_just_moved() {
        let dir = tmp_dir("qcap");
        fs::create_dir_all(&dir).unwrap();
        let n = QUARANTINE_CAP + 4;
        for i in 0..n {
            fs::write(dir.join(format!("bad-{i}")), b"torn").unwrap();
            assert!(quarantine(&dir.join(format!("bad-{i}"))).unwrap().exists());
        }
        assert_eq!(quarantined_count(&dir), QUARANTINE_CAP);
        assert!(dir
            .join("quarantine")
            .join(format!("bad-{}", n - 1))
            .exists());
        let _ = fs::remove_dir_all(&dir);
    }

    // Savers that list the directory at the same moment compute the
    // same sequence number; they must still not share a temp path, or
    // the loser's rename fails (the duel drills hand two routers one
    // membership store).
    #[test]
    fn concurrent_saves_through_one_handle_all_succeed() {
        let dir = tmp_dir("race");
        let d = Arc::new(ImageDir::new(&dir, "img").unwrap());
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let threads: Vec<_> = (0..8u8)
            .map(|t| {
                let (d, barrier) = (Arc::clone(&d), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    barrier.wait();
                    for i in 0..50u8 {
                        d.save(&[b'o', b'k', b':', t, i]).expect("save");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("saver thread");
        }
        let loaded = d.load_latest(decode).unwrap();
        assert!(loaded.image.is_some(), "newest image validates");
        assert!(loaded.quarantined.is_empty());
        assert_eq!(d.quarantined_count(), 0);
        let temps = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .ends_with(".tmp")
            })
            .count();
        assert_eq!(temps, 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
