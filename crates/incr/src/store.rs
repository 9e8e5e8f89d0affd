//! Artifact stores: fingerprint → encoded-entry byte maps.
//!
//! The store deals only in opaque byte blobs — validation (magic,
//! version, checksum) happens in [`crate::entry::decode_entry`], so a
//! store never has to trust its own contents. Stores are best-effort: a
//! failed write loses a future hit, never correctness.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use ccm2_support::hash::Fp128;
use parking_lot::Mutex;

/// A map from stream fingerprints to encoded cache entries: what an
/// incremental compile loads from and stores into. [`MemStore`] is the
/// unbounded one; `ccm2_serve::SharedStore` is byte-budgeted, shared by
/// a service's compiles, and persisted as one whole-store image
/// (`ccm2_serve::SnapshotStore`).
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
/// caller (a `HashMap` in `ccm2-serve`'s `SharedStore`). Admission is
/// strict: the tracked total never exceeds the budget, not even
/// transiently, because [`ByteBudgetLru::admit`] reports what must be
/// evicted *before* the new entry is accounted.
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

/// An unbounded in-memory store: one locked map, no budget and no
/// eviction. It keeps one process's artifacts for as long as it lives:
/// the `warm_edit` benchmark's edit-and-recompile loop and
/// `reproduce -- incr` run on it, as do the tests.
#[derive(Debug, Default)]
pub struct MemStore {
    map: Mutex<HashMap<Fp128, Vec<u8>>>,
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
        self.map.lock().get(&fp).cloned()
    }

    fn store(&self, fp: Fp128, bytes: &[u8]) {
        self.map.lock().insert(fp, bytes.to_vec());
    }

    fn quarantine(&self, fp: Fp128) {
        if self.map.lock().remove(&fp).is_some() {
            self.quarantined.fetch_add(1, Ordering::Relaxed);
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
    fn mem_store_quarantine_removes_and_counts() {
        let s = MemStore::new();
        s.store(fp(1), b"abc");
        s.quarantine(fp(1));
        assert_eq!(s.quarantined(), 1);
        assert!(s.load(fp(1)).is_none());
        s.quarantine(fp(1));
        assert_eq!(s.quarantined(), 1, "missing entry not double-counted");
    }
}
