//! The artifact store: one fingerprint → encoded-entry byte map.
//!
//! The store deals only in opaque byte blobs — validation (magic,
//! version, checksum) happens in [`crate::entry::decode_entry`], so a
//! store never has to trust its own contents. Stores are best-effort: a
//! failed write loses a future hit, never correctness.

use std::collections::{HashMap, VecDeque};

use ccm2_support::hash::Fp128;
use parking_lot::Mutex;

use crate::delta::DeltaOp;

/// A map from stream fingerprints to encoded cache entries: what an
/// incremental compile loads from and stores into. [`MemStore`] is the
/// product's one implementation; the trait is the seam a test or a
/// benchmark wraps it through.
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
/// caller (the map in [`MemStore`]). Admission is
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

/// Upper bound on retained delta-log ops. When the log overflows, the
/// oldest ops are dropped and the retained history no longer reaches
/// back to every consumer's cursor — [`MemStore::deltas_since`] then
/// returns `None` and the consumer falls back to a full snapshot. This
/// bounds the log's memory no matter how rarely deltas are shipped.
const DELTA_LOG_CAP: usize = 8192;

/// A snapshot of a [`MemStore`]'s counters and occupancy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Configured byte budget.
    pub budget: u64,
    /// Bytes currently held.
    pub bytes_in_use: u64,
    /// High-water mark of `bytes_in_use` over the store's lifetime.
    /// The budget invariant is `peak_bytes <= budget`.
    pub peak_bytes: u64,
    /// Entries currently held.
    pub entries: usize,
    /// `load` calls that found an entry.
    pub hits: u64,
    /// `load` calls that found nothing.
    pub misses: u64,
    /// `store` calls that were admitted (including replacements, not
    /// counting bytes the store already held under that key).
    pub insertions: u64,
    /// Entries evicted to make room for admitted ones.
    pub evictions: u64,
    /// `store` calls rejected because the entry alone exceeds the budget.
    pub oversize_rejections: u64,
    /// Entries removed after a consumer reported them invalid
    /// (checksum/version mismatch at decode time).
    pub quarantined: u64,
}

impl StoreStats {
    /// Hits as a fraction of lookups (0.0 when there were none).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

#[derive(Debug)]
struct Inner {
    map: HashMap<Fp128, Vec<u8>>,
    lru: ByteBudgetLru,
    peak_bytes: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    oversize_rejections: u64,
    quarantined: u64,
    /// Sequence-numbered mutation log: `delta[i]` has sequence number
    /// `delta_base + i + 1`. Imports and replays are *not* logged — they
    /// are history, not new workload.
    delta: VecDeque<DeltaOp>,
    delta_base: u64,
    /// Whether logged ops are kept ([`MemStore::retain_deltas`]);
    /// until then a mutation only advances the sequence number.
    retain: bool,
}

impl Inner {
    fn log_delta(&mut self, op: impl FnOnce() -> DeltaOp) {
        if !self.retain {
            self.delta_base += 1;
            return;
        }
        self.delta.push_back(op());
        while self.delta.len() > DELTA_LOG_CAP {
            self.delta.pop_front();
            self.delta_base += 1;
        }
    }

    /// Admits history (an import or a replayed insert): evicts what the
    /// budget asks, counts no insertion and logs nothing.
    fn replay_insert(&mut self, fp: Fp128, bytes: &[u8]) {
        let admission = self.lru.admit(fp, bytes.len() as u64);
        for victim in &admission.evict {
            self.map.remove(victim);
        }
        if admission.accepted {
            self.map.insert(fp, bytes.to_vec());
        }
    }
}

/// The artifact store: a byte-budgeted, LRU-evicting, instrumented
/// [`ArtifactStore`], shared (behind an `Arc`) by every compile that
/// reaches it.
///
/// [`MemStore::new`] holds everything it is given (the budget is
/// `u64::MAX`): one process's edit-and-recompile loop, `reproduce --
/// incr` and the tests run on it. [`MemStore::with_budget`] is the
/// service's store, which a long-lived multi-tenant process needs
/// bounded: admission is strict LRU (the tracked total never exceeds
/// the budget, not even transiently). Either way it counts hits,
/// misses, insertions, evictions and oversize rejections
/// ([`MemStore::stats`]), exports and imports its entries in recency
/// order (a `ccm2_serve::SnapshotStore` image) and keeps a delta log
/// for a fabric shard to ship once asked to ([`MemStore::retain_deltas`]).
///
/// All state sits under one mutex so the map, the LRU index and the
/// counters can never disagree; entries are small (hundreds of bytes to
/// a few KiB) and `load`/`store` only clone byte vectors under the lock,
/// so contention stays negligible next to compilation itself.
#[derive(Debug)]
pub struct MemStore {
    inner: Mutex<Inner>,
}

impl Default for MemStore {
    fn default() -> MemStore {
        MemStore::new()
    }
}

impl MemStore {
    /// Creates an empty store that evicts nothing.
    pub fn new() -> MemStore {
        MemStore::with_budget(u64::MAX)
    }

    /// Creates an empty store holding at most `budget` bytes of entries.
    pub fn with_budget(budget: u64) -> MemStore {
        MemStore {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                lru: ByteBudgetLru::new(budget),
                peak_bytes: 0,
                hits: 0,
                misses: 0,
                insertions: 0,
                oversize_rejections: 0,
                quarantined: 0,
                delta: VecDeque::new(),
                delta_base: 0,
                retain: false,
            }),
        }
    }

    /// Corrupts the entry under `fp` by XOR-flipping one payload byte —
    /// used by corruption-tolerance tests.
    pub fn corrupt(&self, fp: Fp128, byte_index: usize) -> bool {
        let mut inner = self.inner.lock();
        match inner.map.get_mut(&fp) {
            Some(bytes) if byte_index < bytes.len() => {
                bytes[byte_index] ^= 0x55;
                true
            }
            _ => false,
        }
    }

    /// All stored fingerprints, sorted (test observability).
    pub fn fingerprints(&self) -> Vec<Fp128> {
        let mut v: Vec<Fp128> = self.inner.lock().map.keys().copied().collect();
        v.sort();
        v
    }

    /// Entries quarantined so far.
    pub fn quarantined(&self) -> u64 {
        self.inner.lock().quarantined
    }

    /// Every live entry in recency order, least recently used first —
    /// the snapshot wire order: replaying [`MemStore::import`] (or
    /// `store`) in this order rebuilds the same LRU eviction order.
    pub fn export(&self) -> Vec<(Fp128, Vec<u8>)> {
        let inner = self.inner.lock();
        inner
            .lru
            .entries_by_recency()
            .into_iter()
            .map(|fp| (fp, inner.map.get(&fp).cloned().expect("lru/map in sync")))
            .collect()
    }

    /// Replays restored entries into the store, preserving the order
    /// given (oldest first). Unlike `store`, this bypasses the insertion
    /// counter and the delta log: a restore is not workload.
    pub fn import(&self, entries: &[(Fp128, Vec<u8>)]) {
        let mut inner = self.inner.lock();
        for (fp, bytes) in entries {
            inner.replay_insert(*fp, bytes);
        }
        inner.peak_bytes = inner.peak_bytes.max(inner.lru.total());
        debug_assert_eq!(inner.map.len(), inner.lru.len());
    }

    /// From now on, keeps every logged mutation for
    /// [`MemStore::deltas_since`] until [`MemStore::truncate_deltas`]
    /// drops it (or the log's cap does). A store nobody ships from
    /// keeps none: it only counts them in [`MemStore::delta_seq`].
    pub fn retain_deltas(&self) {
        self.inner.lock().retain = true;
    }

    /// The sequence number of the newest logged mutation (0 before any),
    /// counted whether or not the ops are retained. A snapshot records
    /// it, and a store restored from one continues the sequence from
    /// there ([`MemStore::resume_delta_seq`]).
    pub fn delta_seq(&self) -> u64 {
        let inner = self.inner.lock();
        inner.delta_base + inner.delta.len() as u64
    }

    /// Every logged mutation with sequence number greater than `seq`,
    /// in replay order. `None` when the retained history no longer
    /// reaches back to `seq` (the ops were never retained, or the bounded
    /// log dropped them) — the caller must fall back to a full export
    /// instead.
    pub fn deltas_since(&self, seq: u64) -> Option<Vec<DeltaOp>> {
        let inner = self.inner.lock();
        if seq < inner.delta_base {
            return None;
        }
        let skip = (seq - inner.delta_base) as usize;
        if skip > inner.delta.len() {
            return None;
        }
        Some(inner.delta.iter().skip(skip).cloned().collect())
    }

    /// Drops logged ops with sequence number `<= seq` — call once they
    /// have been shipped, so the log holds only what is still owed.
    pub fn truncate_deltas(&self, seq: u64) {
        let mut inner = self.inner.lock();
        while inner.delta_base < seq.min(inner.delta_base + inner.delta.len() as u64) {
            inner.delta.pop_front();
            inner.delta_base += 1;
        }
    }

    /// Re-anchors the delta sequence counter after a restore: the next
    /// logged mutation gets sequence number `seq + 1`. Requires an empty
    /// log (restores happen before the store takes traffic).
    pub fn resume_delta_seq(&self, seq: u64) {
        let mut inner = self.inner.lock();
        debug_assert!(inner.delta.is_empty(), "resume on a store with history");
        inner.delta.clear();
        inner.delta_base = seq;
    }

    /// Replays delta ops — the fabric's replica-absorb path. Like
    /// [`MemStore::import`] this bypasses the insertion counter and
    /// the delta log itself: replayed history must not be re-shipped.
    /// Budget and LRU admission still apply.
    pub fn apply_delta(&self, ops: &[DeltaOp]) {
        let mut inner = self.inner.lock();
        for op in ops {
            match op {
                DeltaOp::Insert { fp, bytes } => inner.replay_insert(*fp, bytes),
                DeltaOp::Evict { fp } => {
                    if inner.map.remove(fp).is_some() {
                        inner.lru.remove(*fp);
                    }
                }
            }
        }
        inner.peak_bytes = inner.peak_bytes.max(inner.lru.total());
        debug_assert_eq!(inner.map.len(), inner.lru.len());
    }

    /// Snapshot of counters and occupancy.
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock();
        StoreStats {
            budget: inner.lru.budget(),
            bytes_in_use: inner.lru.total(),
            peak_bytes: inner.peak_bytes,
            entries: inner.map.len(),
            hits: inner.hits,
            misses: inner.misses,
            insertions: inner.insertions,
            evictions: inner.lru.evictions(),
            oversize_rejections: inner.oversize_rejections,
            quarantined: inner.quarantined,
        }
    }
}

impl ArtifactStore for MemStore {
    fn load(&self, fp: Fp128) -> Option<Vec<u8>> {
        let mut inner = self.inner.lock();
        match inner.map.get(&fp).cloned() {
            Some(bytes) => {
                inner.hits += 1;
                inner.lru.touch(fp);
                Some(bytes)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    fn store(&self, fp: Fp128, bytes: &[u8]) {
        let mut inner = self.inner.lock();
        // Keys are content addresses: the same bytes stored again (two
        // compiles that both missed a unit or an interface while neither
        // had finished) are a use of the entry, not a new one to log and
        // ship to every replica.
        if inner.map.get(&fp).is_some_and(|held| held[..] == *bytes) {
            inner.lru.touch(fp);
            return;
        }
        let admission = inner.lru.admit(fp, bytes.len() as u64);
        for victim in &admission.evict {
            inner.map.remove(victim);
        }
        // Log victims before the insert so replaying the ops in order
        // reproduces the same occupancy trajectory under the budget.
        for victim in &admission.evict {
            inner.log_delta(|| DeltaOp::Evict { fp: *victim });
        }
        if admission.accepted {
            inner.map.insert(fp, bytes.to_vec());
            inner.insertions += 1;
            inner.log_delta(|| DeltaOp::Insert {
                fp,
                bytes: bytes.to_vec(),
            });
        } else {
            inner.oversize_rejections += 1;
        }
        inner.peak_bytes = inner.peak_bytes.max(inner.lru.total());
        debug_assert_eq!(inner.map.len(), inner.lru.len());
        debug_assert!(inner.peak_bytes <= inner.lru.budget());
    }

    fn quarantine(&self, fp: Fp128) {
        let mut inner = self.inner.lock();
        if inner.map.remove(&fp).is_some() {
            inner.lru.remove(fp);
            inner.quarantined += 1;
            inner.log_delta(|| DeltaOp::Evict { fp });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: u64) -> Fp128 {
        Fp128 { hi: n, lo: !n }
    }

    /// A store whose delta log is read, as a shard's is.
    fn retaining(budget: u64) -> MemStore {
        let s = MemStore::with_budget(budget);
        s.retain_deltas();
        s
    }

    /// A store nobody ships from holds its budget and no second copy of
    /// it: the sequence counts every mutation, the log keeps none.
    #[test]
    fn a_plain_store_counts_deltas_but_keeps_none() {
        let s = MemStore::with_budget(10);
        s.store(fp(1), &[1; 4]);
        s.store(fp(2), &[2; 4]);
        s.store(fp(3), &[3; 4]); // evicts fp(1)
        s.quarantine(fp(2));
        assert_eq!(s.delta_seq(), 5);
        assert!(s.deltas_since(0).is_none(), "no op retained");
        assert_eq!(s.deltas_since(5), Some(Vec::new()));
        // Retention starts where it is asked for.
        s.retain_deltas();
        s.store(fp(4), &[4; 4]);
        assert_eq!(s.delta_seq(), 6);
        assert!(s.deltas_since(4).is_none());
        assert_eq!(
            s.deltas_since(5),
            Some(vec![DeltaOp::Insert {
                fp: fp(4),
                bytes: vec![4; 4]
            }])
        );
    }

    #[test]
    fn round_trip_counters_and_corruption_hook() {
        let s = MemStore::new();
        assert_eq!(s.stats().budget, u64::MAX, "the plain store is unbounded");
        assert!(s.load(fp(1)).is_none());
        s.store(fp(1), b"abc");
        assert_eq!(s.load(fp(1)).as_deref(), Some(&b"abc"[..]));
        let st = s.stats();
        assert_eq!((st.hits, st.misses, st.insertions), (1, 1, 1));
        assert_eq!((st.entries, st.bytes_in_use), (1, 3));
        assert!((st.hit_rate() - 0.5).abs() < 1e-9);
        assert!(s.corrupt(fp(1), 0));
        assert_ne!(s.load(fp(1)).as_deref(), Some(&b"abc"[..]));
        assert!(!s.corrupt(fp(2), 0), "missing entry not corruptible");
    }

    #[test]
    fn the_same_bytes_stored_again_are_a_use_not_an_insertion() {
        let s = retaining(10);
        s.store(fp(1), &[1; 4]);
        s.store(fp(2), &[2; 4]);
        s.store(fp(1), &[1; 4]); // fp(2) is now least recently used
        assert_eq!(s.stats().insertions, 2);
        assert_eq!(s.deltas_since(0).map(|ops| ops.len()), Some(2));
        s.store(fp(3), &[3; 4]);
        assert!(s.load(fp(2)).is_none(), "the re-store kept fp(1) warm");
        s.store(fp(1), &[9; 4]);
        assert_eq!(s.stats().insertions, 4, "new bytes replace the old");
        assert_eq!(s.load(fp(1)), Some(vec![9; 4]));
    }

    #[test]
    fn budget_is_never_exceeded_and_lru_entry_goes_first() {
        let s = MemStore::with_budget(10);
        s.store(fp(1), &[1; 4]);
        s.store(fp(2), &[2; 4]);
        s.load(fp(1)); // fp(2) is now least recently used
        s.store(fp(3), &[3; 4]);
        let st = s.stats();
        assert!(st.peak_bytes <= st.budget, "{st:?}");
        assert_eq!(st.evictions, 1);
        assert!(s.load(fp(2)).is_none(), "LRU victim evicted");
        assert!(s.load(fp(1)).is_some() && s.load(fp(3)).is_some());
    }

    #[test]
    fn oversize_entries_are_rejected_not_admitted() {
        let s = MemStore::with_budget(8);
        s.store(fp(7), &[0; 64]);
        let st = s.stats();
        assert_eq!(st.oversize_rejections, 1);
        assert_eq!(st.bytes_in_use, 0);
        assert!(s.load(fp(7)).is_none());
    }

    #[test]
    fn quarantine_removes_the_entry_once() {
        let s = MemStore::with_budget(1024);
        s.store(fp(3), b"abcd");
        s.store(fp(4), b"abcd");
        s.quarantine(fp(3));
        assert!(s.load(fp(3)).is_none());
        assert_eq!(s.load(fp(4)).as_deref(), Some(&b"abcd"[..]));
        let st = s.stats();
        assert_eq!((st.quarantined, st.entries), (1, 1));
        assert_eq!(s.quarantined(), 1);
        assert_eq!(st.bytes_in_use, 4, "LRU re-accounted after quarantine");
        s.quarantine(fp(3)); // a second call does nothing
        assert_eq!(s.stats(), st);
    }

    #[test]
    fn export_import_preserves_entries_and_lru_order() {
        let s = MemStore::with_budget(100);
        s.store(fp(1), b"one");
        s.store(fp(2), b"two");
        s.store(fp(3), b"three");
        s.load(fp(1)); // order: 2, 3, 1 (oldest first)
        let exported = s.export();
        assert_eq!(
            exported.iter().map(|(f, _)| *f).collect::<Vec<_>>(),
            vec![fp(2), fp(3), fp(1)]
        );
        let restored = MemStore::with_budget(100);
        restored.import(&exported);
        assert_eq!(restored.export(), exported);
        // LRU behavior survives: the pre-restart victim is still first.
        let taken = 3 + 3 + 5;
        restored.store(fp(4), &vec![9u8; 100 - taken + 1]);
        assert!(restored.load(fp(2)).is_none(), "old LRU victim evicted");
        assert!(restored.load(fp(1)).is_some());
        let st = restored.stats();
        assert_eq!(st.insertions, 1, "imports are not counted as insertions");
    }

    #[test]
    fn delta_log_records_inserts_evictions_and_quarantines() {
        let s = retaining(10);
        assert_eq!(s.delta_seq(), 0);
        s.store(fp(1), &[1; 4]);
        s.store(fp(2), &[2; 4]);
        s.store(fp(3), &[3; 4]); // evicts fp(1)
        s.quarantine(fp(2));
        let ops = s.deltas_since(0).expect("full history retained");
        assert_eq!(
            ops,
            vec![
                DeltaOp::Insert {
                    fp: fp(1),
                    bytes: vec![1; 4]
                },
                DeltaOp::Insert {
                    fp: fp(2),
                    bytes: vec![2; 4]
                },
                DeltaOp::Evict { fp: fp(1) },
                DeltaOp::Insert {
                    fp: fp(3),
                    bytes: vec![3; 4]
                },
                DeltaOp::Evict { fp: fp(2) },
            ]
        );
        assert_eq!(s.delta_seq(), 5);
        // Replaying the ops rebuilds the same content.
        let replica = MemStore::with_budget(10);
        replica.apply_delta(&ops);
        assert_eq!(
            replica.export().iter().map(|(f, _)| *f).collect::<Vec<_>>(),
            vec![fp(3)]
        );
        let st = replica.stats();
        assert_eq!(st.insertions, 0, "replays are not workload");
        assert_eq!(st.entries, 1);
    }

    #[test]
    fn deltas_since_cursor_and_truncation() {
        let s = retaining(1024);
        s.store(fp(1), b"a");
        s.store(fp(2), b"b");
        assert_eq!(s.deltas_since(1).unwrap().len(), 1);
        assert_eq!(s.deltas_since(2).unwrap().len(), 0);
        s.truncate_deltas(1);
        assert!(s.deltas_since(0).is_none(), "history trimmed below cursor");
        assert_eq!(s.deltas_since(1).unwrap().len(), 1);
        // Resume re-anchors the counter on a drained log.
        s.truncate_deltas(2);
        s.resume_delta_seq(40);
        s.store(fp(3), b"c");
        assert_eq!(s.delta_seq(), 41);
        assert_eq!(s.deltas_since(40).unwrap().len(), 1);
    }

    #[test]
    fn overflowing_delta_log_drops_oldest_history() {
        let s = retaining(u64::MAX);
        for i in 0..(super::DELTA_LOG_CAP as u64 + 10) {
            s.store(fp(i), b"x");
        }
        assert!(s.deltas_since(0).is_none(), "oldest ops dropped");
        let newest = s.delta_seq();
        assert_eq!(s.deltas_since(newest - 1).unwrap().len(), 1);
    }

    #[test]
    fn replacement_reaccounts_bytes() {
        let s = MemStore::with_budget(10);
        s.store(fp(1), &[1; 8]);
        s.store(fp(1), &[9; 2]);
        let st = s.stats();
        assert_eq!(st.bytes_in_use, 2);
        assert_eq!(st.entries, 1);
        assert_eq!(s.load(fp(1)).map(|b| b.len()), Some(2));
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
}
