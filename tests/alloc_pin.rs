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
    [(1043, 304950), (821, 211239), (944, 273732)],
    [(1001, 249228), (798, 175717), (882, 218706)],
    [(1118, 329600), (874, 239225), (1053, 300286)],
    [(1139, 311357), (883, 220682), (990, 278629)],
    [(1275, 334173), (910, 204351), (1155, 297671)],
    [(1313, 362588), (925, 234676), (1228, 326698)],
    [(1561, 431067), (1037, 226729), (1454, 395491)],
    [(1573, 426864), (1055, 260493), (1512, 392500)],
    [(1685, 483211), (1107, 281985), (1592, 437851)],
    [(1899, 550053), (1165, 293950), (1883, 505797)],
    [(2124, 616699), (1311, 327979), (2067, 569103)],
    [(2191, 643975), (1379, 353095), (2134, 595293)],
    [(2522, 764659), (1481, 387379), (2469, 714145)],
    [(2947, 893627), (1575, 414651), (3031, 840900)],
    [(3082, 938074), (1735, 444591), (3115, 885060)],
    [(3383, 1030996), (1867, 504965), (3429, 968033)],
    [(3843, 1182942), (2211, 594797), (3927, 1110974)],
    [(4515, 1470751), (2388, 659929), (4740, 1384931)],
    [(4908, 1577667), (2565, 756904), (5221, 1496142)],
    [(5660, 1856614), (2859, 831144), (6033, 1775853)],
    [(6374, 2158770), (3082, 929123), (6937, 2075954)],
    [(7121, 2312770), (3434, 1024134), (7673, 2222935)],
    [(8536, 2883289), (3829, 1201789), (9477, 2777282)],
    [(9560, 3206087), (4268, 1284000), (10614, 3092984)],
    [(11246, 3820039), (4779, 1510931), (12831, 3699439)],
    [(13555, 4789820), (5226, 1723662), (15851, 4698304)],
    [(15252, 5318276), (5917, 1947614), (17881, 5212006)],
    [(17535, 6141499), (6525, 2167360), (20557, 6018591)],
    [(21250, 7639788), (7453, 2538638), (25562, 7500943)],
    [(24712, 8976092), (8338, 3032963), (30077, 8862461)],
    [(29683, 11083472), (9544, 3567936), (36666, 11015953)],
    [(35347, 13410805), (10961, 4195170), (44120, 13342756)],
    [(42945, 16536790), (12149, 4733925), (54896, 16542933)],
    [(49611, 19183190), (13974, 5788967), (63342, 19155140)],
    [(60974, 24220253), (15973, 6827536), (79699, 24330283)],
    [(72022, 28421276), (18396, 7967567), (94627, 28639034)],
    [(87557, 34717202), (21313, 9211514), (116221, 35100332)],
];

/// The suite totals of [`PINS`]' columns.
const TOTALS: [(u64, u64); 3] = [(562062, 209578513), (184107, 67277310), (695890, 208055125)];

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
