//! Thread-safe string interning.
//!
//! The concurrent compiler lexes many streams in parallel; identifiers are
//! interned once and compared by handle everywhere else (symbol-table
//! search, qualified-name resolution, builtin lookup). The interner uses a
//! sharded read-write-locked map so concurrent lexer tasks rarely contend,
//! and keeps the strings in an [`AppendArena`] so resolving a symbol takes
//! no lock at all. A name is hashed once, by [`FixedState`] — the
//! word-at-a-time kernel of [`crate::hash`]: the hash picks the shard
//! and is the key of the shard's map, whose values point into the arena
//! where the one copy of the name lives. Which shard a name lands in,
//! like its symbol number, depends on nothing but the name and the
//! interning order.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::RwLock;

use crate::arena::AppendArena;
use crate::hash::FixedState;

/// A handle to an interned string.
///
/// `Symbol`s are cheap to copy and compare; two symbols from the same
/// [`Interner`] are equal iff the strings they intern are equal.
///
/// # Examples
///
/// ```
/// use ccm2_support::intern::Interner;
/// let i = Interner::new();
/// assert_eq!(i.intern("x"), i.intern("x"));
/// assert_ne!(i.intern("x"), i.intern("y"));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// Returns the raw index of this symbol within its interner.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a symbol from a raw index previously obtained from
    /// [`Symbol::index`]. Only meaningful with the same interner.
    pub const fn from_index(index: usize) -> Symbol {
        Symbol(index as u32)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({})", self.0)
    }
}

const SHARDS: usize = 16;

/// A shard's keys are hashes already: they are their own hash.
#[derive(Default)]
struct OwnHash(u64);

impl Hasher for OwnHash {
    fn write(&mut self, _: &[u8]) {
        unreachable!("only u64 keys");
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Name hash → symbol; the name itself is in the arena, so a name is
/// stored once and hashed once. A name whose hash is taken by another
/// (one pair in 2⁶⁴) lives under the next free key after it.
type Shard = HashMap<u64, u32, BuildHasherDefault<OwnHash>>;

/// A thread-safe string interner.
///
/// Interning is lock-sharded by string hash; resolution reads a global
/// append-only arena without locking.
pub struct Interner {
    shards: Vec<RwLock<Shard>>,
    strings: AppendArena<String>,
}

impl fmt::Debug for Interner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Interner(len = {})", self.len())
    }
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Interner {
        Interner {
            shards: (0..SHARDS).map(|_| RwLock::default()).collect(),
            strings: AppendArena::new(),
        }
    }

    /// The shard of the names that hash to `hash`: picked by the middle
    /// of the hash, because the shard's map places by its lowest bits
    /// and tags by its highest and must find both still varied.
    fn shard(&self, hash: u64) -> &RwLock<Shard> {
        &self.shards[(hash >> 32) as usize % SHARDS]
    }

    /// The symbol `s` is interned under, or else the key to intern it
    /// under: its hash, unless other names hold that key and the next.
    fn find(&self, shard: &Shard, hash: u64, s: &str) -> Result<u32, u64> {
        let mut key = hash;
        while let Some(&id) = shard.get(&key) {
            if self.strings.get(id as usize).is_some_and(|held| held == s) {
                return Ok(id);
            }
            key = key.wrapping_add(1);
        }
        Err(key)
    }

    /// Interns `s`, returning its [`Symbol`].
    ///
    /// Idempotent: interning the same string twice yields the same symbol.
    pub fn intern(&self, s: &str) -> Symbol {
        let hash = FixedState.hash_one(s);
        let lock = self.shard(hash);
        if let Ok(id) = self.find(&lock.read().expect("interner poisoned"), hash, s) {
            return Symbol(id);
        }
        let mut shard = lock.write().expect("interner poisoned");
        match self.find(&shard, hash, s) {
            Ok(id) => Symbol(id),
            Err(free) => {
                let id = self.strings.push(s.to_owned()) as u32;
                shard.insert(free, id);
                Symbol(id)
            }
        }
    }

    /// Returns the string interned under `sym`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` did not come from this interner.
    pub fn resolve(&self, sym: Symbol) -> String {
        self.as_str(sym).to_owned()
    }

    /// Returns the string interned under `sym`, borrowed: what a
    /// comparison or a sort key reads without copying the name.
    ///
    /// # Panics
    ///
    /// Panics if `sym` did not come from this interner.
    pub fn as_str(&self, sym: Symbol) -> &str {
        self.strings
            .get(sym.index())
            .expect("symbol from another interner")
    }

    /// Number of distinct strings interned so far.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Returns `true` if nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for Interner {
    fn default() -> Interner {
        Interner::new()
    }
}

/// A table one reader of names keeps in front of the shared
/// [`Interner`] — a lexer over one text, a decoder over a run of cache
/// entries — so that the interner, its hash and its lock are met once per
/// distinct name per reader. It stores no string: a key is a span of a
/// byte buffer the owner keeps (the source text itself; an arena of the
/// names decoded so far), compared there, and it is found by a
/// one-multiply hash of its bytes. Open addressing, linear probing, a
/// power-of-two slot array at most half full.
///
/// # Examples
///
/// ```
/// use ccm2_support::intern::SpanTable;
///
/// let text = b"alpha beta alpha";
/// let mut table = SpanTable::new();
/// let miss = table.find(text, b"alpha").unwrap_err();
/// table.fill(miss, 0, 7u32);
/// assert_eq!(table.find(text, &text[11..]), Ok(7));
/// assert!(table.find(text, b"beta").is_err());
/// ```
#[derive(Debug)]
pub struct SpanTable<V> {
    slots: Vec<Option<SpanSlot<V>>>,
    used: usize,
    /// `32 − log2(slots.len())`: a tag shifted right by this is the
    /// key's home slot.
    shift: u32,
}

#[derive(Clone, Copy, Debug)]
struct SpanSlot<V> {
    tag: u32,
    start: u32,
    len: u32,
    value: V,
}

/// A key [`SpanTable::find`] did not find, to be given to
/// [`SpanTable::fill`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Miss {
    tag: u32,
    len: u32,
}

/// The top half of a one-multiply hash of `key`: its first and last
/// eight bytes and its length, mixed by one multiply. Keys that differ
/// only in their middle collide and are told apart by their bytes.
#[inline]
fn span_tag(key: &[u8]) -> u32 {
    let n = key.len();
    let (head, tail) = if n >= 8 {
        let word = |at: usize| u64::from_le_bytes(key[at..at + 8].try_into().expect("8 bytes"));
        (word(0), word(n - 8))
    } else {
        (crate::hash::le_partial(key), 0)
    };
    ((head ^ tail.rotate_left(29) ^ n as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as u32
}

impl<V: Copy> SpanTable<V> {
    /// Slots allocated at the first fill.
    const FIRST_SLOTS: usize = 64;

    /// An empty table; it allocates at its first fill.
    pub fn new() -> SpanTable<V> {
        SpanTable {
            slots: Vec::new(),
            used: 0,
            shift: 32,
        }
    }

    /// The value of `key`, if a key with its bytes was filled in with a
    /// span of `buf`; otherwise the [`Miss`] to fill it in with.
    #[inline]
    pub fn find(&self, buf: &[u8], key: &[u8]) -> Result<V, Miss> {
        let tag = span_tag(key);
        let miss = Miss {
            tag,
            len: key.len() as u32,
        };
        if self.slots.is_empty() {
            return Err(miss);
        }
        let mask = self.slots.len() - 1;
        let mut i = (tag >> self.shift) as usize;
        while let Some(slot) = &self.slots[i] {
            if slot.tag == tag
                && slot.len as usize == key.len()
                && buf[slot.start as usize..][..key.len()] == *key
            {
                return Ok(slot.value);
            }
            i = (i + 1) & mask;
        }
        Err(miss)
    }

    /// Records the key `miss` was about as the bytes of `buf` from
    /// `start` (later [`find`](Self::find)s must pass a `buf` that holds
    /// them there), with `value`.
    pub fn fill(&mut self, miss: Miss, start: usize, value: V) {
        if (self.used + 1) * 2 > self.slots.len() {
            self.grow();
        }
        self.place(SpanSlot {
            tag: miss.tag,
            start: start as u32,
            len: miss.len,
            value,
        });
        self.used += 1;
    }

    fn place(&mut self, slot: SpanSlot<V>) {
        let mask = self.slots.len() - 1;
        let mut i = (slot.tag >> self.shift) as usize;
        while self.slots[i].is_some() {
            i = (i + 1) & mask;
        }
        self.slots[i] = Some(slot);
    }

    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(Self::FIRST_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![None; len]);
        self.shift = 32 - len.trailing_zeros();
        for slot in old.into_iter().flatten() {
            self.place(slot);
        }
    }
}

impl<V: Copy> Default for SpanTable<V> {
    fn default() -> SpanTable<V> {
        SpanTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn intern_is_idempotent() {
        let i = Interner::new();
        let a = i.intern("alpha");
        let b = i.intern("alpha");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        let i = Interner::new();
        let a = i.intern("alpha");
        let b = i.intern("beta");
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "alpha");
        assert_eq!(i.resolve(b), "beta");
    }

    #[test]
    fn empty_string_interns() {
        let i = Interner::new();
        let e = i.intern("");
        assert_eq!(i.resolve(e), "");
        assert!(!i.is_empty());
    }

    #[test]
    fn concurrent_interning_agrees() {
        let i = Arc::new(Interner::new());
        let names: Vec<String> = (0..200).map(|k| format!("ident{}", k % 50)).collect();
        let mut handles = Vec::new();
        for t in 0..4 {
            let i = Arc::clone(&i);
            let names = names.clone();
            handles.push(thread::spawn(move || {
                let mut out = Vec::new();
                for (j, n) in names.iter().enumerate() {
                    if j % 4 == t {
                        out.push((n.clone(), i.intern(n)));
                    }
                }
                out
            }));
        }
        let mut seen: std::collections::HashMap<String, Symbol> = Default::default();
        for h in handles {
            for (name, sym) in h.join().expect("thread panicked") {
                if let Some(prev) = seen.insert(name.clone(), sym) {
                    assert_eq!(prev, sym, "symbol for {name} differed across threads");
                }
            }
        }
        assert_eq!(i.len(), 50);
    }

    #[test]
    fn a_name_whose_hash_is_taken_gets_a_symbol_of_its_own() {
        let i = Interner::new();
        let taken = i.intern("taken");
        // Forge the collision no two real names will show: put `taken`
        // under the key and the shard where "late" is about to look.
        let hash = FixedState.hash_one("late");
        i.shard(hash).write().unwrap().insert(hash, taken.0);
        let late = i.intern("late");
        assert_ne!(late, taken);
        assert_eq!(i.intern("late"), late);
        assert_eq!(i.resolve(late), "late");
        assert_eq!(i.intern("taken"), taken);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn index_round_trip() {
        let i = Interner::new();
        let s = i.intern("roundtrip");
        assert_eq!(Symbol::from_index(s.index()), s);
    }

    // Keys kept in an arena, as a decoder keeps them: through several
    // doublings, with the empty key, and with keys that share their
    // first and last eight bytes (one tag, told apart by their bytes).
    #[test]
    fn a_span_table_finds_every_key_it_was_filled_with_and_no_other() {
        let keys: Vec<String> = std::iter::once(String::new())
            .chain((0..3000).map(|k| format!("headHEAD{k}tailTAIL")))
            .collect();
        let mut arena = Vec::new();
        let mut table = SpanTable::new();
        for (value, key) in keys.iter().enumerate() {
            let miss = table
                .find(&arena, key.as_bytes())
                .expect_err("not filled yet");
            table.fill(miss, arena.len(), value);
            arena.extend_from_slice(key.as_bytes());
        }
        for (value, key) in keys.iter().enumerate() {
            assert_eq!(table.find(&arena, key.as_bytes()), Ok(value), "{key:?}");
        }
        assert!(table.find(&arena, b"headHEAD3000tailTAIL").is_err());
        assert!(table.find(&arena, b"headHEADtailTAIL").is_err());
    }
}
