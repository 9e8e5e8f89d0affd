//! Incremental journal: the delta half of the `CCM2SNAP` recovery
//! plane.
//!
//! [`SnapshotStore`](crate::SnapshotStore) persists *full* images of the
//! shared store; a [`DeltaJournal`] persists the **mutation log**
//! between images — checksummed [`ccm2_incr::delta`] batches, one
//! segment file per ship, written and quarantined through
//! [`ccm2_support::imagedir`]. A restart then costs one (old) snapshot
//! plus a replay of the ops journaled since its cut, which is usually a
//! small fraction of a fresh full image's bytes. The very same encoded
//! batches are what `ccm2-fabric` shards ship to their peers as the
//! replication stream — journal and replication are one format.
//!
//! Segments are named `delta-{first:08}-{last:08}.log` after the
//! sequence-number range they cover. Replay walks them in order,
//! validating each batch and the chain's contiguity: a torn or
//! bit-flipped segment is quarantined and replay stops *at the gap* —
//! a suffix of valid segments beyond a hole must not be applied out of
//! order, so the store simply warms a little less.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use ccm2_incr::{decode_delta, encode_delta, DeltaOp};
use ccm2_support::imagedir;

/// A directory of journaled delta segments plus their quarantine.
#[derive(Debug)]
pub struct DeltaJournal {
    dir: PathBuf,
}

/// What [`DeltaJournal::load_after`] reconstructed.
#[derive(Debug, Default)]
pub struct DeltaReplay {
    /// Contiguous ops with sequence numbers greater than the requested
    /// cursor, in replay order.
    pub ops: Vec<DeltaOp>,
    /// The sequence number of the last replayed op (equals the cursor
    /// when nothing was replayable).
    pub last_seq: u64,
    /// Segments that failed validation and were quarantined.
    pub quarantined: Vec<PathBuf>,
    /// True when a later valid segment existed beyond a gap and was
    /// *not* applied (missing or quarantined predecessor).
    pub gap: bool,
}

impl DeltaJournal {
    /// Opens (creating if needed) a journal directory.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<DeltaJournal> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(DeltaJournal { dir })
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// `(first, last, path)` of every segment present, ascending by
    /// first covered sequence number.
    fn segments(&self) -> io::Result<Vec<(u64, u64, PathBuf)>> {
        let mut v = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(range) = name
                .strip_prefix("delta-")
                .and_then(|r| r.strip_suffix(".log"))
            {
                if let Some((a, b)) = range.split_once('-') {
                    if let (Ok(first), Ok(last)) = (a.parse::<u64>(), b.parse::<u64>()) {
                        v.push((first, last, entry.path()));
                    }
                }
            }
        }
        v.sort();
        Ok(v)
    }

    /// The highest sequence number any segment claims to cover (0 for an
    /// empty journal). New ships should start after this.
    pub fn last_seq(&self) -> io::Result<u64> {
        Ok(self.segments()?.last().map_or(0, |(_, last, _)| *last))
    }

    /// Total bytes of live (non-quarantined) segments — the restart-cost
    /// side of the snapshot-vs-delta comparison.
    pub fn total_bytes(&self) -> io::Result<u64> {
        let mut total = 0;
        for (_, _, path) in self.segments()? {
            total += fs::metadata(&path)?.len();
        }
        Ok(total)
    }

    /// Journals `ops` as one crash-atomic segment whose first op has
    /// sequence number `base_seq + 1`. Empty batches are skipped.
    /// Returns the segment path (`None` when skipped).
    pub fn append(&self, base_seq: u64, ops: &[DeltaOp]) -> io::Result<Option<PathBuf>> {
        if ops.is_empty() {
            return Ok(None);
        }
        let first = base_seq + 1;
        let last = base_seq + ops.len() as u64;
        let name = format!("delta-{first:08}-{last:08}.log");
        imagedir::write_atomic(&self.dir, &name, &encode_delta(base_seq, ops)).map(Some)
    }

    /// Replays the journal from just after `seq`: decodes segments in
    /// order, quarantines invalid ones, and returns the longest
    /// *contiguous* op chain starting at `seq + 1`. Segments entirely at
    /// or below `seq` are skipped (already covered by the snapshot).
    pub fn load_after(&self, seq: u64) -> io::Result<DeltaReplay> {
        let mut replay = DeltaReplay {
            last_seq: seq,
            ..DeltaReplay::default()
        };
        for (first, last, path) in self.segments()? {
            if last <= replay.last_seq {
                continue; // fully behind the cursor
            }
            let decoded = fs::read(&path).ok().and_then(|b| decode_delta(&b));
            let valid = decoded.and_then(|(base, ops)| {
                // The name must agree with the payload — a renamed or
                // recombined file is as suspect as a torn one.
                (base + 1 == first && base + ops.len() as u64 == last).then_some(ops)
            });
            let Some(ops) = valid else {
                replay.quarantined.push(imagedir::quarantine(&path)?);
                replay.gap = true;
                continue;
            };
            if replay.gap || first > replay.last_seq + 1 {
                // Hole in the chain: later ops must not replay early.
                replay.gap = true;
                continue;
            }
            // Overlapping segments (first <= cursor < last) replay only
            // the suffix past the cursor.
            let skip = (replay.last_seq + 1 - first) as usize;
            replay.ops.extend(ops.into_iter().skip(skip));
            replay.last_seq = last;
        }
        Ok(replay)
    }

    /// Number of quarantined segments currently on disk.
    pub fn quarantined_count(&self) -> usize {
        imagedir::quarantined_count(&self.dir)
    }
}

impl crate::service::CompileService {
    /// Ships every store mutation not yet journaled into `journal` as
    /// one segment and trims the in-memory log behind it. Returns the
    /// number of ops journaled. When the store's bounded log has already
    /// dropped history past the journal's cursor, falls back to cutting
    /// a fresh full snapshot into `snaps` instead (returns 0).
    pub fn journal_deltas(
        &self,
        journal: &DeltaJournal,
        snaps: &crate::SnapshotStore,
    ) -> io::Result<usize> {
        let cursor = journal.last_seq()?;
        match self.store().deltas_since(cursor) {
            Some(ops) => {
                journal.append(cursor, &ops)?;
                self.store().truncate_deltas(cursor + ops.len() as u64);
                Ok(ops.len())
            }
            None => {
                snaps.save(self.store())?;
                Ok(0)
            }
        }
    }

    /// Starts a service whose store is rebuilt from the newest valid
    /// snapshot in `snaps` *plus* the contiguous delta ops journaled
    /// after its cut — the cheap restart path. Torn images and segments
    /// are quarantined exactly as in [`CompileService::restore`].
    pub fn restore_with_deltas(
        config: crate::service::ServeConfig,
        snaps: &crate::SnapshotStore,
        journal: &DeltaJournal,
    ) -> io::Result<crate::service::CompileService> {
        let store = crate::SharedStore::new(config.store_budget);
        let image = snaps.load_latest()?.image;
        if let Some(image) = &image {
            store.import(&image.entries);
        }
        let replay = journal.load_after(image.map_or(0, |i| i.delta_seq))?;
        store.apply_delta(&replay.ops);
        store.resume_delta_seq(replay.last_seq);
        Ok(crate::service::CompileService::start_with_store(
            config,
            std::sync::Arc::new(store),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccm2_support::hash::Fp128;

    fn fp(n: u64) -> Fp128 {
        Fp128 { hi: n, lo: !n }
    }

    fn ins(n: u64, text: &str) -> DeltaOp {
        DeltaOp::Insert {
            fp: fp(n),
            bytes: text.as_bytes().to_vec(),
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ccm2-delta-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_and_replay_chain_in_order() {
        let dir = tmp_dir("chain");
        let j = DeltaJournal::new(&dir).unwrap();
        assert_eq!(j.last_seq().unwrap(), 0);
        j.append(0, &[ins(1, "a"), ins(2, "b")]).unwrap();
        j.append(2, &[DeltaOp::Evict { fp: fp(1) }]).unwrap();
        assert_eq!(j.last_seq().unwrap(), 3);
        let replay = j.load_after(0).unwrap();
        assert_eq!(replay.ops.len(), 3);
        assert_eq!(replay.last_seq, 3);
        assert!(!replay.gap && replay.quarantined.is_empty());
        // A cursor mid-segment replays only the suffix.
        let partial = j.load_after(1).unwrap();
        assert_eq!(partial.ops, vec![ins(2, "b"), DeltaOp::Evict { fp: fp(1) }]);
        // A cursor at the tip replays nothing.
        assert!(j.load_after(3).unwrap().ops.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_batches_are_skipped() {
        let dir = tmp_dir("empty");
        let j = DeltaJournal::new(&dir).unwrap();
        assert_eq!(j.append(5, &[]).unwrap(), None);
        assert_eq!(j.last_seq().unwrap(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_segment_is_quarantined_and_stops_the_chain() {
        let dir = tmp_dir("torn");
        let j = DeltaJournal::new(&dir).unwrap();
        j.append(0, &[ins(1, "a")]).unwrap();
        j.append(1, &[ins(2, "b")]).unwrap();
        j.append(2, &[ins(3, "c")]).unwrap();
        // Tear the middle segment.
        let mid = dir.join("delta-00000002-00000002.log");
        let bytes = fs::read(&mid).unwrap();
        fs::write(&mid, &bytes[..bytes.len() / 2]).unwrap();
        let replay = j.load_after(0).unwrap();
        assert_eq!(replay.ops, vec![ins(1, "a")], "replay stops at the gap");
        assert_eq!(replay.last_seq, 1);
        assert!(replay.gap);
        assert_eq!(replay.quarantined.len(), 1);
        assert_eq!(j.quarantined_count(), 1);
        // Second load does not re-quarantine, still gapped.
        let again = j.load_after(0).unwrap();
        assert!(again.quarantined.is_empty() && again.gap);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn misnamed_segment_is_rejected() {
        let dir = tmp_dir("misname");
        let j = DeltaJournal::new(&dir).unwrap();
        let path = j.append(0, &[ins(1, "a")]).unwrap().unwrap();
        // Rename claims a different range than the payload encodes.
        fs::copy(&path, dir.join("delta-00000005-00000005.log")).unwrap();
        fs::remove_file(&path).unwrap();
        let replay = j.load_after(0).unwrap();
        assert!(replay.ops.is_empty());
        assert_eq!(replay.quarantined.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_segment_gaps_instead_of_reordering() {
        let dir = tmp_dir("hole");
        let j = DeltaJournal::new(&dir).unwrap();
        j.append(0, &[ins(1, "a")]).unwrap();
        j.append(3, &[ins(4, "d")]).unwrap(); // seq 2..3 never journaled
        let replay = j.load_after(0).unwrap();
        assert_eq!(replay.ops, vec![ins(1, "a")]);
        assert!(replay.gap);
        assert_eq!(replay.last_seq, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
