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
    [(894, 297375), (718, 203486), (680, 248294)],
    [(873, 237861), (703, 171948), (665, 201888)],
    [(933, 317005), (748, 225184), (710, 264812)],
    [(1011, 300401), (785, 209810), (788, 263201)],
    [(1055, 325732), (802, 199152), (787, 283545)],
    [(1090, 352943), (818, 228037), (809, 304512)],
    [(1315, 420633), (934, 224435), (1012, 366723)],
    [(1281, 411218), (924, 254979), (974, 352184)],
    [(1355, 461823), (961, 276345), (984, 378203)],
    [(1481, 534241), (1018, 288234), (1094, 464693)],
    [(1665, 590577), (1126, 318945), (1218, 511239)],
    [(1732, 607364), (1186, 336214), (1266, 532103)],
    [(1986, 715618), (1287, 369728), (1444, 606423)],
    [(2214, 833074), (1388, 394573), (1574, 740857)],
    [(2362, 877908), (1500, 420593), (1704, 710692)],
    [(2574, 989850), (1598, 494976), (1852, 863556)],
    [(2982, 1130077), (1904, 574089), (2150, 980160)],
    [(3366, 1374911), (2050, 629230), (2383, 1111277)],
    [(3582, 1490657), (2182, 723385), (2502, 1202394)],
    [(4102, 1748928), (2423, 797933), (2853, 1549297)],
    [(4618, 2057892), (2638, 901904), (3228, 1754491)],
    [(5140, 2185375), (2960, 992567), (3607, 1871723)],
    [(5917, 2710578), (3244, 1161200), (4062, 2161564)],
    [(6751, 3013267), (3630, 1245023), (4637, 2646866)],
    [(7597, 3516920), (4018, 1435562), (5168, 3041250)],
    [(8880, 4446663), (4473, 1659555), (5995, 3711924)],
    [(9968, 4940788), (4992, 1881031), (6654, 4009439)],
    [(11401, 5673956), (5565, 2103021), (7523, 5075250)],
    [(13441, 6962288), (6299, 2450759), (8840, 5691586)],
    [(15432, 8185597), (7100, 2904156), (10098, 6556711)],
    [(18076, 10046383), (8094, 3382961), (11716, 9162386)],
    [(21229, 12291301), (9248, 4072631), (13670, 10372566)],
    [(24764, 14929257), (10275, 4600740), (15727, 11967274)],
    [(28636, 17280523), (11847, 5510006), (18093, 13281281)],
    [(34095, 21896161), (13475, 6509557), (21314, 18874750)],
    [(39502, 25881735), (15440, 7767905), (24445, 20986779)],
    [(47110, 31600546), (17940, 8975433), (28989, 24544433)],
];

/// The suite totals of [`PINS`]' columns.
const TOTALS: [(u64, u64); 3] = [(340410, 191637426), (156293, 64895287), (221215, 157646326)];

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
