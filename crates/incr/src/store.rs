//! Artifact stores: fingerprint → encoded-entry byte maps.
//!
//! The store deals only in opaque byte blobs — validation (magic,
//! version, checksum) happens in [`crate::entry::decode_entry`], so a
//! store never has to trust its own contents. Stores are best-effort: a
//! failed write loses a future hit, never correctness.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ccm2_support::hash::Fp128;
use ccm2_support::imagedir;
use parking_lot::Mutex;

/// A persistent (or test-scoped) map from stream fingerprints to encoded
/// cache entries.
pub trait ArtifactStore: Send + Sync + std::fmt::Debug {
    /// Loads the entry stored under `fp`, if any.
    fn load(&self, fp: Fp128) -> Option<Vec<u8>>;
    /// Stores (or replaces) the entry under `fp`. Best-effort.
    fn store(&self, fp: Fp128, bytes: &[u8]);
    /// Sets aside the entry under `fp` after it failed validation
    /// (checksum/version mismatch), so a corrupted blob is never served
    /// again and remains available for inspection. Best-effort; the
    /// default discards nothing.
    fn quarantine(&self, fp: Fp128) {
        let _ = fp;
    }
}

/// A byte-budgeted least-recently-used index over fingerprinted entries.
///
/// The index tracks *sizes and recency only* — payloads live with the
/// caller (a `HashMap` in `ccm2-serve`'s `SharedStore`, files on disk in
/// [`DiskStore`]). Admission is strict: the tracked total never exceeds
/// the budget, not even transiently, because [`ByteBudgetLru::admit`]
/// reports what must be evicted *before* the new entry is accounted.
/// Recency ticks are a monotonic counter, so eviction order is
/// deterministic for a deterministic access sequence.
#[derive(Debug)]
pub struct ByteBudgetLru {
    budget: u64,
    total: u64,
    tick: u64,
    evictions: u64,
    entries: HashMap<Fp128, (u64, u64)>, // fp -> (bytes, last-use tick)
}

impl ByteBudgetLru {
    /// Creates an empty index with the given byte budget.
    pub fn new(budget: u64) -> ByteBudgetLru {
        ByteBudgetLru {
            budget,
            total: 0,
            tick: 0,
            evictions: 0,
            entries: HashMap::new(),
        }
    }

    /// The configured byte budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Bytes currently accounted to live entries (always ≤ budget).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Evictions performed so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Whether `fp` is tracked.
    pub fn contains(&self, fp: Fp128) -> bool {
        self.entries.contains_key(&fp)
    }

    /// Marks `fp` most-recently-used (a load hit). No-op when untracked.
    pub fn touch(&mut self, fp: Fp128) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(e) = self.entries.get_mut(&fp) {
            e.1 = tick;
        }
    }

    /// Admits an entry of `bytes` under `fp`, replacing any previous
    /// entry for the same fingerprint. The caller must evict the
    /// returned fingerprints' payloads; when `accepted` is false the
    /// entry alone exceeds the whole budget and must not be stored (a
    /// stale previous payload under the same fingerprint is still listed
    /// for eviction).
    pub fn admit(&mut self, fp: Fp128, bytes: u64) -> Admission {
        if bytes > self.budget {
            // An oversize replacement still drops the stale previous entry.
            let evict = match self.entries.remove(&fp) {
                Some((old, _)) => {
                    self.total -= old;
                    vec![fp]
                }
                None => Vec::new(),
            };
            return Admission {
                accepted: false,
                evict,
            };
        }
        self.tick += 1;
        if let Some((old, _)) = self.entries.remove(&fp) {
            self.total -= old;
        }
        let mut evict = Vec::new();
        while self.total + bytes > self.budget {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, &(_, tick))| tick)
                .map(|(&fp, _)| fp)
                .expect("total > 0 implies a victim exists");
            let (sz, _) = self.entries.remove(&victim).expect("victim tracked");
            self.total -= sz;
            self.evictions += 1;
            evict.push(victim);
        }
        self.entries.insert(fp, (bytes, self.tick));
        self.total += bytes;
        Admission {
            accepted: true,
            evict,
        }
    }

    /// Untracks `fp` (the caller already removed the payload).
    pub fn remove(&mut self, fp: Fp128) {
        if let Some((bytes, _)) = self.entries.remove(&fp) {
            self.total -= bytes;
        }
    }

    /// Live entries in recency order, least recently used first. A
    /// consumer that replays `admit`/`store` calls in this order
    /// rebuilds an index with the same eviction order — this is how a
    /// service snapshot preserves LRU behavior across a restart.
    pub fn entries_by_recency(&self) -> Vec<Fp128> {
        let mut v: Vec<(u64, Fp128)> = self
            .entries
            .iter()
            .map(|(fp, &(_, tick))| (tick, *fp))
            .collect();
        v.sort_unstable();
        v.into_iter().map(|(_, fp)| fp).collect()
    }
}

/// The outcome of [`ByteBudgetLru::admit`].
#[derive(Debug)]
pub struct Admission {
    /// Whether the entry may be stored at all (false = oversize).
    pub accepted: bool,
    /// Fingerprints whose payloads the caller must evict.
    pub evict: Vec<Fp128>,
}

/// An in-memory store for tests and simulation runs.
#[derive(Debug, Default)]
pub struct MemStore {
    map: Mutex<HashMap<Fp128, Vec<u8>>>,
    loads: AtomicU64,
    stores: AtomicU64,
    quarantined: AtomicU64,
}

impl MemStore {
    /// Creates an empty store.
    pub fn new() -> MemStore {
        MemStore::default()
    }

    /// Number of entries currently stored.
    pub fn entry_count(&self) -> usize {
        self.map.lock().len()
    }

    /// `(loads, stores)` performed so far (test observability).
    pub fn op_counts(&self) -> (u64, u64) {
        (
            self.loads.load(Ordering::Relaxed),
            self.stores.load(Ordering::Relaxed),
        )
    }

    /// Corrupts the entry under `fp` by XOR-flipping one payload byte —
    /// used by corruption-tolerance tests.
    pub fn corrupt(&self, fp: Fp128, byte_index: usize) -> bool {
        let mut map = self.map.lock();
        match map.get_mut(&fp) {
            Some(bytes) if byte_index < bytes.len() => {
                bytes[byte_index] ^= 0x55;
                true
            }
            _ => false,
        }
    }

    /// All stored fingerprints (test observability).
    pub fn fingerprints(&self) -> Vec<Fp128> {
        let mut v: Vec<Fp128> = self.map.lock().keys().copied().collect();
        v.sort();
        v
    }

    /// Entries quarantined so far.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }
}

impl ArtifactStore for MemStore {
    fn load(&self, fp: Fp128) -> Option<Vec<u8>> {
        self.loads.fetch_add(1, Ordering::Relaxed);
        self.map.lock().get(&fp).cloned()
    }

    fn store(&self, fp: Fp128, bytes: &[u8]) {
        self.stores.fetch_add(1, Ordering::Relaxed);
        self.map.lock().insert(fp, bytes.to_vec());
    }

    fn quarantine(&self, fp: Fp128) {
        if self.map.lock().remove(&fp).is_some() {
            self.quarantined.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A file-per-entry on-disk store: `<dir>/<fp hex>.bin`.
///
/// Entries are written and quarantined by [`imagedir`]'s rules: a write
/// goes through a uniquely named temp file, synced, then renamed, so a
/// crash mid-write leaves either the old entry or none — a torn write can
/// only surface as a missing or checksum-failing entry, both of which
/// degrade to a miss — and `quarantine/` keeps the newest
/// [`imagedir::QUARANTINE_CAP`] entries that failed validation.
///
/// The store is size-bounded: entries beyond the byte budget are evicted
/// least-recently-used (recency is tracked in memory per handle and
/// seeded from file modification times on open, oldest first), so a
/// long-lived service cannot fill the disk. [`DiskStore::new`] applies
/// [`DiskStore::DEFAULT_BUDGET`]; use [`DiskStore::with_budget`] to pick
/// the bound.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    lru: Mutex<ByteBudgetLru>,
    /// Entries moved to `quarantine/` after failing validation.
    quarantined: AtomicU64,
}

impl DiskStore {
    /// Default byte budget applied by [`DiskStore::new`]: 256 MiB, far
    /// above any single build's working set but a hard ceiling for a
    /// long-lived service's cache directory.
    pub const DEFAULT_BUDGET: u64 = 256 * 1024 * 1024;

    /// Opens (creating if needed) a store rooted at `dir`, bounded by
    /// [`DiskStore::DEFAULT_BUDGET`].
    pub fn new(dir: impl Into<PathBuf>) -> std::io::Result<DiskStore> {
        DiskStore::with_budget(dir, DiskStore::DEFAULT_BUDGET)
    }

    /// Opens a store bounded by `budget` bytes. Existing entries are
    /// indexed oldest-first (by modification time, then name, so the
    /// seeding order is deterministic) and evicted immediately if they
    /// already exceed the budget.
    pub fn with_budget(dir: impl Into<PathBuf>, budget: u64) -> std::io::Result<DiskStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let store = DiskStore {
            dir,
            lru: Mutex::new(ByteBudgetLru::new(budget)),
            quarantined: AtomicU64::new(0),
        };
        store.seed_lru();
        Ok(store)
    }

    /// Entries moved to quarantine by this handle.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Number of files currently held in `quarantine/`.
    pub fn quarantine_count(&self) -> usize {
        imagedir::quarantined_count(&self.dir)
    }

    /// Indexes pre-existing entries into the LRU, oldest first, evicting
    /// whatever no longer fits.
    fn seed_lru(&self) {
        let Ok(rd) = std::fs::read_dir(&self.dir) else {
            return;
        };
        let mut found: Vec<(std::time::SystemTime, String, Fp128, u64)> = rd
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                let fp = Fp128::from_hex(name.strip_suffix(".bin")?)?;
                let meta = e.metadata().ok()?;
                let mtime = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
                Some((mtime, name, fp, meta.len()))
            })
            .collect();
        found.sort();
        let mut lru = self.lru.lock();
        for (_, _, fp, len) in found {
            self.admit(&mut lru, fp, len);
        }
    }

    /// Accounts `len` bytes under `fp` and deletes the files the budget
    /// evicts for it — `fp`'s own when it alone exceeds the budget.
    /// Returns whether `fp` was admitted.
    fn admit(&self, lru: &mut ByteBudgetLru, fp: Fp128, len: u64) -> bool {
        let admission = lru.admit(fp, len);
        for victim in admission.evict.iter().filter(|&&v| v != fp) {
            let _ = std::fs::remove_file(self.entry_path(*victim));
        }
        if !admission.accepted {
            let _ = std::fs::remove_file(self.entry_path(fp));
        }
        admission.accepted
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured byte budget.
    pub fn budget(&self) -> u64 {
        self.lru.lock().budget()
    }

    /// Bytes currently accounted to tracked entries.
    pub fn bytes_in_use(&self) -> u64 {
        self.lru.lock().total()
    }

    /// Evictions performed by this handle.
    pub fn evictions(&self) -> u64 {
        self.lru.lock().evictions()
    }

    fn entry_name(fp: Fp128) -> String {
        format!("{}.bin", fp.to_hex())
    }

    fn entry_path(&self, fp: Fp128) -> PathBuf {
        self.dir.join(DiskStore::entry_name(fp))
    }

    /// Number of `.bin` entries on disk (test/report observability).
    pub fn entry_count(&self) -> usize {
        std::fs::read_dir(&self.dir)
            .map(|it| {
                it.filter_map(|e| e.ok())
                    .filter(|e| e.path().extension().is_some_and(|x| x == "bin"))
                    .count()
            })
            .unwrap_or(0)
    }
}

impl ArtifactStore for DiskStore {
    fn load(&self, fp: Fp128) -> Option<Vec<u8>> {
        let bytes = std::fs::read(self.entry_path(fp)).ok()?;
        let mut lru = self.lru.lock();
        if lru.contains(fp) {
            lru.touch(fp);
        } else {
            // Another handle (or process) wrote it; adopt it so the
            // budget keeps covering everything in the directory.
            self.admit(&mut lru, fp, bytes.len() as u64);
        }
        Some(bytes)
    }

    fn store(&self, fp: Fp128, bytes: &[u8]) {
        // Decide admission before touching the filesystem so the
        // directory never transiently exceeds the budget.
        if !self.admit(&mut self.lru.lock(), fp, bytes.len() as u64) {
            return;
        }
        if imagedir::write_atomic(&self.dir, &DiskStore::entry_name(fp), bytes).is_err() {
            self.lru.lock().remove(fp);
        }
    }

    fn quarantine(&self, fp: Fp128) {
        if imagedir::quarantine(&self.entry_path(fp)).is_ok() {
            self.quarantined.fetch_add(1, Ordering::Relaxed);
            self.lru.lock().remove(fp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: u64) -> Fp128 {
        Fp128 { hi: n, lo: !n }
    }

    #[test]
    fn mem_store_round_trip_and_corruption_hook() {
        let s = MemStore::new();
        assert_eq!(s.load(fp(1)), None);
        s.store(fp(1), b"abc");
        assert_eq!(s.load(fp(1)).as_deref(), Some(&b"abc"[..]));
        assert_eq!(s.entry_count(), 1);
        assert!(s.corrupt(fp(1), 0));
        assert_ne!(s.load(fp(1)).as_deref(), Some(&b"abc"[..]));
        assert!(!s.corrupt(fp(2), 0), "missing entry not corruptible");
        let (loads, stores) = s.op_counts();
        assert_eq!((loads, stores), (3, 1));
    }

    #[test]
    fn lru_admission_never_exceeds_budget() {
        let mut lru = ByteBudgetLru::new(100);
        assert!(lru.admit(fp(1), 40).accepted);
        assert!(lru.admit(fp(2), 40).accepted);
        assert_eq!(lru.total(), 80);
        // Touch 1 so 2 becomes the LRU victim.
        lru.touch(fp(1));
        let a = lru.admit(fp(3), 40);
        assert!(a.accepted);
        assert_eq!(a.evict, vec![fp(2)]);
        assert!(lru.total() <= lru.budget());
        assert_eq!(lru.evictions(), 1);
        assert!(lru.contains(fp(1)) && lru.contains(fp(3)));
        // Replacing an entry re-accounts its size instead of leaking it.
        assert!(lru.admit(fp(1), 60).accepted);
        assert!(lru.total() <= 100);
    }

    #[test]
    fn lru_recency_order_survives_replay() {
        let mut lru = ByteBudgetLru::new(100);
        lru.admit(fp(1), 10);
        lru.admit(fp(2), 10);
        lru.admit(fp(3), 10);
        lru.touch(fp(1)); // order is now 2, 3, 1 (oldest first)
        assert_eq!(lru.entries_by_recency(), vec![fp(2), fp(3), fp(1)]);
        // Re-admitting in that order rebuilds the same recency order.
        let mut rebuilt = ByteBudgetLru::new(100);
        for f in lru.entries_by_recency() {
            rebuilt.admit(f, 10);
        }
        assert_eq!(rebuilt.entries_by_recency(), lru.entries_by_recency());
    }

    #[test]
    fn lru_rejects_oversize_and_drops_stale_twin() {
        let mut lru = ByteBudgetLru::new(50);
        assert!(lru.admit(fp(1), 20).accepted);
        let a = lru.admit(fp(1), 500);
        assert!(!a.accepted);
        assert_eq!(a.evict, vec![fp(1)], "stale payload must go");
        assert_eq!(lru.total(), 0);
        assert!(!lru.admit(fp(2), 51).accepted);
        assert!(lru.is_empty());
    }

    #[test]
    fn disk_store_evicts_lru_within_budget() {
        let dir = std::env::temp_dir().join(format!(
            "ccm2-incr-budget-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let payload = vec![0xAB; 100];
        let s = DiskStore::with_budget(&dir, 250).expect("create");
        s.store(fp(1), &payload);
        s.store(fp(2), &payload);
        assert_eq!(s.entry_count(), 2);
        s.load(fp(1)); // 1 becomes MRU; 2 is the next victim
        s.store(fp(3), &payload);
        assert_eq!(s.entry_count(), 2, "one entry evicted");
        assert!(s.load(fp(2)).is_none(), "victim was the LRU entry");
        assert!(s.load(fp(1)).is_some() && s.load(fp(3)).is_some());
        assert!(s.bytes_in_use() <= 250);
        assert_eq!(s.evictions(), 1);
        // Oversize entries are rejected, not stored.
        s.store(fp(4), &vec![0u8; 300]);
        assert!(s.load(fp(4)).is_none());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn disk_store_reopen_seeds_index_and_enforces_budget() {
        let dir = std::env::temp_dir().join(format!(
            "ccm2-incr-reseed-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let s = DiskStore::new(&dir).expect("create");
            for i in 0..6u64 {
                s.store(fp(i), &[i as u8; 100]);
            }
            assert_eq!(s.entry_count(), 6);
        }
        // Reopening with a smaller budget trims the directory to fit.
        let s = DiskStore::with_budget(&dir, 250).expect("reopen");
        assert!(s.entry_count() <= 2, "seeded index evicted the overflow");
        assert!(s.bytes_in_use() <= 250);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn disk_store_quarantines_bit_flipped_entry() {
        let dir = std::env::temp_dir().join(format!(
            "ccm2-incr-quarantine-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let s = DiskStore::new(&dir).expect("create");
        s.store(fp(1), b"good bytes with a checksum");
        // Bit-flip the on-disk entry (simulated disk corruption).
        let path = s.entry_path(fp(1));
        let mut bytes = std::fs::read(&path).expect("entry on disk");
        bytes[3] ^= 0x55;
        std::fs::write(&path, &bytes).expect("rewrite");
        // A loader that notices the mismatch quarantines the entry:
        // it moves aside, is no longer served, and is counted.
        s.quarantine(fp(1));
        assert_eq!(s.quarantined(), 1);
        assert_eq!(s.quarantine_count(), 1);
        assert!(s.load(fp(1)).is_none(), "quarantined entry never served");
        assert!(
            dir.join("quarantine")
                .join(format!("{}.bin", fp(1).to_hex()))
                .exists(),
            "blob preserved for inspection"
        );
        // Quarantining a missing entry is a no-op.
        s.quarantine(fp(2));
        assert_eq!(s.quarantined(), 1);
        // The quarantine buffer is bounded.
        for i in 10..(12 + imagedir::QUARANTINE_CAP as u64) {
            s.store(fp(i), b"x");
            s.quarantine(fp(i));
        }
        assert!(s.quarantine_count() <= imagedir::QUARANTINE_CAP);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    // Two handles on one directory used to draw their temp names from
    // per-handle counters, so both wrote `.{fp}.{pid}.0.tmp`: the first
    // rename took the other's file, the second failed, and its handle
    // dropped an entry that stayed on disk from its budget.
    #[test]
    fn two_handles_storing_one_entry_at_once_both_account_for_it() {
        let dir = std::env::temp_dir().join(format!(
            "ccm2-incr-twohandles-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let payload = vec![0x5A; 4096];
        for round in 0..300 {
            let _ = std::fs::remove_dir_all(&dir);
            let handles = [
                DiskStore::new(&dir).expect("create"),
                DiskStore::new(&dir).expect("open"),
            ];
            let barrier = std::sync::Barrier::new(handles.len());
            std::thread::scope(|scope| {
                for handle in &handles {
                    let (barrier, payload) = (&barrier, &payload);
                    scope.spawn(move || {
                        barrier.wait();
                        handle.store(fp(1), payload);
                    });
                }
            });
            assert_eq!(handles[0].entry_count(), 1, "round {round}");
            for (i, handle) in handles.iter().enumerate() {
                assert_eq!(
                    handle.bytes_in_use(),
                    payload.len() as u64,
                    "round {round}: handle {i} lost an entry that is on disk"
                );
            }
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn mem_store_quarantine_removes_and_counts() {
        let s = MemStore::new();
        s.store(fp(1), b"abc");
        s.quarantine(fp(1));
        assert_eq!(s.quarantined(), 1);
        assert!(s.load(fp(1)).is_none());
        s.quarantine(fp(1));
        assert_eq!(s.quarantined(), 1, "missing entry not double-counted");
    }

    #[test]
    fn disk_store_round_trip_and_hex_naming() {
        let dir = std::env::temp_dir().join(format!("ccm2-incr-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = DiskStore::new(&dir).expect("create store dir");
        assert_eq!(s.load(fp(7)), None);
        s.store(fp(7), b"payload");
        assert_eq!(s.load(fp(7)).as_deref(), Some(&b"payload"[..]));
        assert_eq!(s.entry_count(), 1);
        // Entries are addressable by fingerprint hex, so a second store
        // handle (a later compiler run) sees them.
        let again = DiskStore::new(&dir).expect("reopen");
        assert_eq!(again.load(fp(7)).as_deref(), Some(&b"payload"[..]));
        s.store(fp(7), b"replaced");
        assert_eq!(again.load(fp(7)).as_deref(), Some(&b"replaced"[..]));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
