//! Thread-safe string interning.
//!
//! The concurrent compiler lexes many streams in parallel; identifiers are
//! interned once and compared by handle everywhere else (symbol-table
//! search, qualified-name resolution, builtin lookup). The interner uses a
//! sharded read-write-locked map so concurrent lexer tasks rarely contend,
//! and keeps the strings in an [`AppendArena`] so resolving a symbol takes
//! no lock at all.

use std::collections::HashMap;
use std::fmt;
use std::sync::RwLock;

use crate::arena::AppendArena;

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

struct Shard {
    map: HashMap<String, u32>,
}

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
            shards: (0..SHARDS)
                .map(|_| {
                    RwLock::new(Shard {
                        map: HashMap::new(),
                    })
                })
                .collect(),
            strings: AppendArena::new(),
        }
    }

    fn shard_of(&self, s: &str) -> usize {
        // FNV-1a over the bytes; cheap and stable across runs so that
        // deterministic tests can rely on symbol numbering given identical
        // interning order.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in s.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        (h as usize) % SHARDS
    }

    /// Interns `s`, returning its [`Symbol`].
    ///
    /// Idempotent: interning the same string twice yields the same symbol.
    pub fn intern(&self, s: &str) -> Symbol {
        let shard_idx = self.shard_of(s);
        {
            let shard = self.shards[shard_idx].read().expect("interner poisoned");
            if let Some(&id) = shard.map.get(s) {
                return Symbol(id);
            }
        }
        let mut shard = self.shards[shard_idx].write().expect("interner poisoned");
        if let Some(&id) = shard.map.get(s) {
            return Symbol(id);
        }
        let id = self.strings.push(s.to_owned()) as u32;
        shard.map.insert(s.to_owned(), id);
        Symbol(id)
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
    fn index_round_trip() {
        let i = Interner::new();
        let s = i.intern("roundtrip");
        assert_eq!(Symbol::from_index(s.index()), s);
    }
}
