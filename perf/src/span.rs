//! In-memory spans recorded by the benchmark around each call into a
//! layer: name, start, end, the span that caused it, and the op index.
//!
//! Spans live in a `Vec` until the run ends and are then written to
//! `perf/out/<workload>.trace.json`. A span's *self time* is its
//! duration minus the part of its interval covered by its children
//! (children on several threads may overlap, so the cover is a union,
//! not a sum).

use std::cell::Cell;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// "No span": the parent of a top-level span.
pub const NONE: u32 = u32::MAX;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary, e.g. `fabric.call`.
    pub name: &'static str,
    /// Index of the op (compile, check or request) this span belongs to.
    pub op: u32,
    /// Free-form discriminator (the fabric packs shard and frame kind
    /// here so that server-side spans can be matched to their calls).
    pub tag: u32,
    /// Index of the causing span, or [`NONE`].
    pub parent: u32,
    /// Small per-process thread number.
    pub thread: u32,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// The innermost open span on this thread.
    static CURRENT: Cell<u32> = const { Cell::new(NONE) };
    static THREAD: Cell<u32> = const { Cell::new(NONE) };
}
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

fn thread_number() -> u32 {
    THREAD.with(|t| {
        if t.get() == NONE {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// The span recorder of one traced window.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    /// Parent for spans opened on threads that have no open span of
    /// their own: the scheduler's worker threads inside one
    /// `compile_concurrent` call of a single-client workload.
    ambient: AtomicU32,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            ambient: AtomicU32::new(NONE),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&self, name: &'static str, op: u32, tag: u32) -> (u32, u32) {
        let mut parent = CURRENT.with(Cell::get);
        if parent == NONE {
            parent = self.ambient.load(Ordering::Acquire);
        }
        let thread = thread_number();
        let mut spans = self.spans.lock().expect("no span holder panics");
        let id = spans.len() as u32;
        let op = if op == NONE && parent != NONE {
            spans[parent as usize].op
        } else {
            op
        };
        let start_ns = self.now_ns();
        spans.push(Span {
            name,
            op,
            tag,
            parent,
            thread,
            start_ns,
            end_ns: start_ns,
        });
        (id, CURRENT.with(|c| c.replace(id)))
    }

    fn close(&self, id: u32, previous: u32) {
        let end_ns = self.now_ns();
        CURRENT.with(|c| c.set(previous));
        self.spans.lock().expect("no span holder panics")[id as usize].end_ns = end_ns;
    }

    /// Records `f` as a span whose tag is only known once `f` has run
    /// (the size of what a load returned); inherits the parent's op.
    pub fn span_sized<T>(&self, name: &'static str, f: impl FnOnce() -> (T, u32)) -> T {
        let (id, previous) = self.open(name, NONE, 0);
        let (out, tag) = f();
        self.close(id, previous);
        self.spans.lock().expect("no span holder panics")[id as usize].tag = tag;
        out
    }

    /// Records `f` as a span. `op` may be [`NONE`] to inherit the
    /// parent's op index.
    pub fn span<T>(&self, name: &'static str, op: u32, tag: u32, f: impl FnOnce() -> T) -> T {
        let (id, previous) = self.open(name, op, tag);
        let out = f();
        self.close(id, previous);
        out
    }

    /// Like [`Tracer::span`], and additionally the parent of every span
    /// opened meanwhile on a thread without an open span. Only valid
    /// with one client: two concurrent ambient spans would steal each
    /// other's children.
    pub fn span_ambient<T>(&self, name: &'static str, op: u32, f: impl FnOnce() -> T) -> T {
        let (id, previous) = self.open(name, op, 0);
        let outer = self.ambient.swap(id, Ordering::AcqRel);
        let out = f();
        self.ambient.store(outer, Ordering::Release);
        self.close(id, previous);
        out
    }

    /// Gives `f` the spans recorded so far, to read or to re-parent.
    pub fn with_spans<T>(&self, f: impl FnOnce(&mut Vec<Span>) -> T) -> T {
        f(&mut self.spans.lock().expect("no span holder panics"))
    }

    /// Takes the recorded spans out.
    pub fn finish(&self) -> Vec<Span> {
        self.with_spans(std::mem::take)
    }
}

/// Records `f` under `tracer` when tracing is on, and just runs it
/// otherwise.
pub fn maybe_span<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    op: u32,
    tag: u32,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, op, tag, f),
        None => f(),
    }
}

/// Gives every parentless `child` span the `parent`-named span with the
/// same tag whose interval contains it, each parent adopting at most
/// one child. This is how a server-side `fabric.handle` span finds the
/// `fabric.call` it served: the frame carries no identity the
/// benchmark could read without changing the wire format, but both
/// ends share this process's clock, and a call strictly contains the
/// handling of its own frame. Concurrent calls with equal tags are
/// interchangeable for every aggregate computed here.
pub fn adopt(spans: &mut [Span], child: &str, parent: &str) {
    use std::collections::BTreeMap;
    let mut open: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.name == parent {
            open.entry(s.tag).or_default().push(i);
        }
    }
    for candidates in open.values_mut() {
        candidates.sort_by_key(|&i| spans[i].start_ns);
    }
    let mut orphans: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].name == child && spans[i].parent == NONE)
        .collect();
    orphans.sort_by_key(|&i| spans[i].start_ns);
    for c in orphans {
        let Some(candidates) = open.get_mut(&spans[c].tag) else {
            continue;
        };
        // The tightest containing parent: with overlapping calls, taking
        // the first one that fits can strand a later child.
        let found = (0..candidates.len())
            .filter(|&at| {
                let p = &spans[candidates[at]];
                p.start_ns <= spans[c].start_ns && spans[c].end_ns <= p.end_ns
            })
            .min_by_key(|&at| spans[candidates[at]].end_ns);
        if let Some(at) = found {
            let p = candidates.remove(at);
            spans[c].parent = p as u32;
            spans[c].op = spans[p].op;
        }
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals, clipped to the span.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NONE {
            let p = &spans[s.parent as usize];
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if lo < hi {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Writes the spans as one JSON array, creating the directory.
pub fn write_json(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NONE {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"tag\":{},\"parent\":{parent},\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}{comma}",
            s.name, s.op, s.tag, s.thread, s.start_ns, s.end_ns
        )?;
    }
    writeln!(out, "]")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, thread: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            tag: 0,
            parent,
            thread,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_overlapping_children() {
        // root 0..100 on thread 0
        //   a 10..40 on thread 0, with its own child a1 20..30
        //   b 30..60 on thread 1 (overlaps a by 10)
        //   c 90..120 on thread 1 (sticks out of the root by 20)
        let spans = vec![
            span("root", NONE, 0, 0, 100),
            span("a", 0, 0, 10, 40),
            span("a1", 1, 0, 20, 30),
            span("b", 0, 1, 30, 60),
            span("c", 0, 1, 90, 120),
        ];
        let own = self_ns(&spans);
        // Children cover 10..60 and 90..100 of the root: 60 of 100.
        assert_eq!(own[0], 40);
        assert_eq!(own[1], 20, "a minus a1");
        assert_eq!(own[2], 10);
        assert_eq!(own[3], 30);
        assert_eq!(own[4], 30);
    }

    #[test]
    fn tracer_nests_on_one_thread_and_adopts_across_threads() {
        let tracer = Tracer::new();
        tracer.span_ambient("op", 7, || {
            tracer.span("inner", NONE, 0, || {});
            std::thread::scope(|s| {
                s.spawn(|| tracer.span("worker", NONE, 0, || {}));
            });
        });
        tracer.span("after", 8, 0, || {});
        let spans = tracer.finish();
        assert_eq!(spans.len(), 4);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].op),
            ("op", NONE, 7)
        );
        assert_eq!(
            (spans[1].name, spans[1].parent, spans[1].op),
            ("inner", 0, 7)
        );
        assert_eq!(
            (spans[2].name, spans[2].parent, spans[2].op),
            ("worker", 0, 7),
            "a span on a bare thread takes the ambient parent and its op"
        );
        assert_ne!(spans[2].thread, spans[0].thread);
        assert_eq!(
            (spans[3].parent, spans[3].op),
            (NONE, 8),
            "ambient is restored"
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn adopt_matches_by_tag_and_containment_once() {
        let call = |tag, op, start, end| Span {
            name: "call",
            op,
            tag,
            parent: NONE,
            thread: 0,
            start_ns: start,
            end_ns: end,
        };
        let handle = |tag, start, end| Span {
            name: "handle",
            op: NONE,
            tag,
            parent: NONE,
            thread: 1,
            start_ns: start,
            end_ns: end,
        };
        let mut spans = vec![
            call(1, 10, 0, 100),
            call(1, 11, 5, 90),
            call(2, 12, 0, 100),
            handle(1, 10, 80),
            handle(1, 20, 95),
            handle(2, 50, 60),
            handle(3, 50, 60),
        ];
        adopt(&mut spans, "handle", "call");
        assert_eq!((spans[3].parent, spans[3].op), (1, 11), "tightest fit");
        assert_eq!(
            (spans[4].parent, spans[4].op),
            (0, 10),
            "20..95 fits only call 0"
        );
        assert_eq!((spans[5].parent, spans[5].op), (2, 12));
        assert_eq!(spans[6].parent, NONE, "no call with tag 3");
    }

    #[test]
    fn trace_file_is_written_as_a_json_array() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("span-test-{}", std::process::id()));
        let path = dir.join("t.trace.json");
        write_json(
            &path,
            &[span("root", NONE, 0, 1, 2), span("kid", 0, 0, 1, 2)],
        )
        .expect("write");
        let text = std::fs::read_to_string(&path).expect("read");
        assert!(text.starts_with("[\n{\"id\":0,\"name\":\"root\""));
        assert!(text.contains("\"parent\":null"));
        assert!(text.trim_end().ends_with("]"));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
