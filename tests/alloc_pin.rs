//! Allocations pinned per compile: an exact cost the host cannot blur.
//!
//! A counting global allocator counts the heap allocations, and the bytes
//! they request, made on the threads that switched it on, so tests
//! running beside the pin do not leak into it. For each of the 37 suite
//! modules the test counts three compiles on its own thread:
//!
//! * `compile_concurrent` at `threads(1)` with no store (a `threads(1)`
//!   compile runs on its caller's thread alone);
//! * the same compile warm, after a one-body edit, from a `MemStore` the
//!   unedited module filled;
//! * `ccm2_seq::compile`.
//!
//! It works like the golden: a changed figure fails with the whole new
//! table, ready to paste over [`PINS`]; say why in CHANGES.md. A change
//! that claims CPU states its allocation delta here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::Arc;

use ccm2::{compile_concurrent, Options};
use ccm2_incr::MemStore;
use ccm2_support::defs::DefProvider;
use ccm2_support::Interner;
use ccm2_workload::{apply_edits, body_edits, generate, suite_params, SUITE_SIZE};

thread_local! {
    /// This thread's count, while switched on: allocations and bytes.
    static COUNT: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

/// The system allocator, counting on the threads that switched it on.
struct Counting;

fn note(size: usize) {
    // `try_with`: a thread being torn down has no count to add to.
    let _ = COUNT.try_with(|count| {
        if let Some((n, bytes)) = count.get() {
            count.set(Some((n + 1, bytes + size as u64)));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the count is a thread-local
// `Cell` with a `const` initialiser, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// What `f` allocates on this thread: (allocations, bytes requested).
/// Its result is dropped after the count stops.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, u64) {
    COUNT.with(|c| c.set(Some((0, 0))));
    let out = f();
    let count = COUNT.with(|c| c.take()).expect("counting");
    drop(out);
    count
}

/// (allocations, bytes) of suite module `i`'s three compiles: cold,
/// warm after one body edit, sequential.
fn figures(i: usize) -> [(u64, u64); 3] {
    let m = generate(&suite_params(i));
    let edited = apply_edits(&m, &body_edits(1, 35));
    assert_ne!(m.source, edited.source, "{}: the edit must land", m.name);
    let defs: Arc<dyn DefProvider> = Arc::new(m.defs.clone());
    let compile = |source: &str, options: Options| {
        let interner = Arc::new(Interner::new());
        let defs = Arc::clone(&defs);
        counted(|| compile_concurrent(source, defs, interner, options))
    };
    let cold = compile(&m.source, Options::threads(1));
    let store = Arc::new(MemStore::new());
    let filled = Options {
        incremental: Some(store.clone()),
        ..Options::threads(1)
    };
    compile(&m.source, filled.clone());
    let warm = compile(&edited.source, filled);
    let seq = counted(|| ccm2_seq::compile(&m.source, &m.defs));
    [cold, warm, seq]
}

/// (allocations, bytes) per suite module: `compile_concurrent` cold at
/// `threads(1)`, the same compile warm after `body_edits(1, 35)` from a
/// store the unedited module filled, and `ccm2_seq::compile`.
#[rustfmt::skip]
const PINS: [[(u64, u64); 3]; SUITE_SIZE] = [
    [(891, 297303), (717, 203446), (677, 248254)],
    [(868, 237773), (701, 171900), (660, 201832)],
    [(930, 316941), (746, 225136), (707, 264780)],
    [(1008, 300329), (784, 209770), (785, 263161)],
    [(1049, 325636), (801, 199112), (781, 283481)],
    [(1080, 352783), (816, 227989), (799, 304384)],
    [(1303, 420465), (933, 224395), (1000, 366587)],
    [(1272, 411082), (922, 254931), (965, 352080)],
    [(1345, 461647), (961, 276313), (974, 378059)],
    [(1461, 533993), (1017, 288194), (1074, 464477)],
    [(1642, 590233), (1125, 318905), (1195, 510927)],
    [(1714, 607132), (1182, 336150), (1248, 531903)],
    [(1966, 715306), (1285, 369680), (1424, 606143)],
    [(2182, 832650), (1385, 394517), (1542, 740465)],
    [(2339, 877620), (1497, 420537), (1681, 710436)],
    [(2536, 989338), (1596, 494928), (1814, 863076)],
    [(2943, 1129589), (1900, 574025), (2111, 979704)],
    [(3312, 1374159), (2044, 629150), (2329, 1110557)],
    [(3529, 1489977), (2178, 723321), (2449, 1201746)],
    [(4036, 1748104), (2415, 797837), (2787, 1548505)],
    [(4535, 2056836), (2636, 901856), (3145, 1753467)],
    [(5060, 2184415), (2956, 992503), (3527, 1870795)],
    [(5799, 2709074), (3239, 1161128), (3944, 2160092)],
    [(6611, 3011555), (3623, 1244935), (4497, 2645186)],
    [(7422, 3514768), (4013, 1435490), (4993, 3039130)],
    [(8673, 4444191), (4468, 1659483), (5788, 3709484)],
    [(9722, 4937804), (4983, 1880927), (6408, 4006487)],
    [(11121, 5670572), (5556, 2102917), (7243, 5071898)],
    [(13055, 6957424), (6293, 2450679), (8454, 5686754)],
    [(14952, 8179893), (7094, 2904076), (9618, 6551039)],
    [(17535, 10039815), (8086, 3382865), (11175, 9155850)],
    [(20545, 12283005), (9244, 4072567), (12986, 10364302)],
    [(23829, 14917793), (10269, 4600660), (14792, 11955842)],
    [(27601, 17268147), (11840, 5509918), (17058, 13268937)],
    [(32694, 21879233), (13469, 6509477), (19913, 18857854)],
    [(37899, 25862967), (15430, 7767793), (22842, 20968043)],
    [(45108, 31576378), (17929, 8975313), (26987, 24520297)],
];

/// The suite totals of [`PINS`]' columns.
const TOTALS: [(u64, u64); 3] = [(329567, 191505930), (156133, 64892823), (210372, 157516014)];

fn totals(rows: &[[(u64, u64); 3]]) -> [(u64, u64); 3] {
    let mut sum = [(0, 0); 3];
    for row in rows {
        for (s, (n, bytes)) in sum.iter_mut().zip(row) {
            *s = (s.0 + n, s.1 + bytes);
        }
    }
    sum
}

#[test]
fn allocations_per_compile_are_pinned() {
    // What a first compile on a thread allocates once (thread-locals,
    // process-wide tables) is nobody's figure.
    figures(0);
    let rows: Vec<[(u64, u64); 3]> = (0..SUITE_SIZE).map(figures).collect();
    let got = totals(&rows);
    if rows != PINS || got != TOTALS || totals(&PINS) != TOTALS {
        let mut table = String::new();
        for row in &rows {
            let cells: Vec<String> = row.iter().map(|(n, b)| format!("({n}, {b})")).collect();
            writeln!(table, "    [{}],", cells.join(", ")).expect("a String takes writes");
        }
        let changed: Vec<usize> = (0..SUITE_SIZE)
            .filter(|&i| PINS.get(i) != rows.get(i))
            .collect();
        panic!(
            "allocations changed in modules {changed:?}; totals (cold, warm, seq) \
             {got:?}, pinned {TOTALS:?}\nnew table:\n{table}"
        );
    }
}
