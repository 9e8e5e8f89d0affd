//! An append-only arena whose reads take no lock.
//!
//! The paper's §2.2 tables are written while they are built and only read
//! afterwards; the registries that hold them (types, scopes, interned
//! strings, scheduler events) grow by appending and never move or drop an
//! element while the compilation runs. [`AppendArena`] gives that shape
//! its cheapest form in safe Rust: chunks of doubling size, each slot a
//! [`OnceLock`], so an element's address is stable once written and
//! [`AppendArena::get`] is two acquire loads — no reader ever writes to a
//! cache line another reader shares. Writers are serialised by a mutex.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Slots in the first chunk; chunk `k` holds `FIRST << k`.
const FIRST: usize = 32;
/// Enough doubling chunks for every `u32` index (`32 * (2^28 - 1)`
/// slots).
const CHUNKS: usize = 28;

/// `(chunk, offset)` of element `i`.
fn locate(i: usize) -> (usize, usize) {
    let k = (i / FIRST + 1).ilog2() as usize;
    (k, i - FIRST * ((1 << k) - 1))
}

/// Append-only storage indexed by insertion order.
///
/// # Examples
///
/// ```
/// use ccm2_support::arena::AppendArena;
/// let a = AppendArena::new();
/// assert_eq!(a.push("x"), 0);
/// assert_eq!(a.push("y"), 1);
/// assert_eq!(a.get(1), Some(&"y"));
/// assert_eq!(a.get(2), None);
/// ```
pub struct AppendArena<T> {
    chunks: [OnceLock<Box<[OnceLock<T>]>>; CHUNKS],
    /// Elements written; stored (Release) after the element's slot is
    /// set, so a reader that loads `n` (Acquire) finds all of `0..n`.
    len: AtomicUsize,
    writer: Mutex<()>,
}

impl<T> AppendArena<T> {
    /// Creates an empty arena (no chunk is allocated until the first
    /// push).
    pub fn new() -> AppendArena<T> {
        AppendArena {
            chunks: [const { OnceLock::new() }; CHUNKS],
            len: AtomicUsize::new(0),
            writer: Mutex::new(()),
        }
    }

    /// Appends `value` and returns its index.
    pub fn push(&self, value: T) -> usize {
        self.push_with(|_| value)
    }

    /// Appends the value `make` builds from the index it will live at
    /// (for elements that carry their own id). `make` runs under the
    /// writer lock and must not push to this arena.
    ///
    /// # Panics
    ///
    /// Panics if the arena already holds `u32::MAX` elements.
    pub fn push_with(&self, make: impl FnOnce(usize) -> T) -> usize {
        // A writer that panicked in `make` has stored nothing.
        let _writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let i = self.len.load(Ordering::Relaxed);
        assert!(i < u32::MAX as usize, "arena full");
        let (k, offset) = locate(i);
        let chunk =
            self.chunks[k].get_or_init(|| (0..FIRST << k).map(|_| OnceLock::new()).collect());
        if chunk[offset].set(make(i)).is_err() {
            unreachable!("slot {i} written twice under the writer lock");
        }
        self.len.store(i + 1, Ordering::Release);
        i
    }

    /// The element at `i`, if one has been appended there. Takes no lock
    /// and does not read the length: a slot that reads as written is
    /// whole, and so is every slot before it.
    pub fn get(&self, i: usize) -> Option<&T> {
        let (k, offset) = locate(i);
        self.chunks.get(k)?.get()?[offset].get()
    }

    /// Number of elements appended so far.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Whether nothing has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Default for AppendArena<T> {
    fn default() -> AppendArena<T> {
        AppendArena::new()
    }
}

impl<T> std::fmt::Debug for AppendArena<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AppendArena(len = {})", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::splitmix64;
    use std::ops::Range;
    use std::sync::Barrier;

    #[test]
    fn chunk_edges_are_contiguous() {
        let mut want = (0, 0);
        for i in 0..FIRST * 40 {
            assert_eq!(locate(i), want, "element {i}");
            want.1 += 1;
            if want.1 == FIRST << want.0 {
                want = (want.0 + 1, 0);
            }
        }
        assert!(locate(u32::MAX as usize).0 < CHUNKS);
    }

    #[test]
    fn addresses_are_stable_across_growth() {
        let a = AppendArena::new();
        a.push(7u64);
        let first: *const u64 = a.get(0).expect("pushed");
        for i in 1..10 * FIRST as u64 {
            a.push(i);
        }
        assert!(std::ptr::eq(first, a.get(0).expect("still there")));
    }

    #[test]
    fn push_with_sees_its_own_index() {
        let a = AppendArena::new();
        for _ in 0..3 * FIRST {
            let i = a.push_with(|i| i * 2);
            assert_eq!(a.get(i), Some(&(i * 2)));
        }
    }

    // Against a `Vec`: same indices, same contents, nothing past the
    // end, at every length along the way.
    #[test]
    fn matches_the_vec_model() {
        for case in 0..32 {
            let mut state = case;
            let mut draw =
                |r: Range<usize>| r.start + (splitmix64(&mut state) % r.len() as u64) as usize;
            let values: Vec<u32> = (0..draw(0..400)).map(|_| draw(0..1000) as u32).collect();
            let probes: Vec<usize> = (0..draw(1..20)).map(|_| draw(0..600)).collect();
            println!("case {case}: values {values:?}, probes {probes:?}");
            let arena = AppendArena::new();
            let mut model = Vec::new();
            for &v in &values {
                assert_eq!(arena.push(v), model.len());
                model.push(v);
                assert_eq!(arena.len(), model.len());
                for &p in &probes {
                    assert_eq!(arena.get(p), model.get(p));
                }
            }
            assert_eq!(arena.is_empty(), model.is_empty());
        }
    }

    /// Readers racing one writer: an element is either absent or whole
    /// (both halves of the pair agree with its index), and whatever
    /// length or element a reader has seen, everything before it is
    /// there.
    #[test]
    fn racing_readers_see_whole_elements_and_no_gap() {
        const N: usize = 20_000;
        let arena = AppendArena::<(usize, Box<usize>)>::new();
        let start = Barrier::new(4);
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                for i in 0..N {
                    arena.push((i, Box::new(!i)));
                }
            });
            for _ in 0..3 {
                s.spawn(|| {
                    start.wait();
                    let check = |i: usize| {
                        let (a, b) = arena.get(i).expect("inside the published prefix");
                        assert_eq!((*a, **b), (i, !i), "torn element {i}");
                    };
                    let mut seen = 0;
                    while seen < N {
                        let n = arena.len();
                        assert!(n >= seen, "length went backwards");
                        for i in seen.saturating_sub(1)..n {
                            check(i);
                        }
                        seen = n;
                        // Without the length: a visible element implies
                        // its predecessor.
                        if arena.get(seen).is_some() && seen > 0 {
                            check(seen - 1);
                        }
                        std::hint::spin_loop();
                    }
                    assert!(arena.get(N).is_none());
                });
            }
        });
        assert_eq!(arena.len(), N);
    }
}
