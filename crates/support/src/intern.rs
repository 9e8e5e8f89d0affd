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
    pub fn from_index(index: usize) -> Symbol {
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
        self.strings
            .get(sym.index())
            .expect("symbol from another interner")
            .clone()
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
}
