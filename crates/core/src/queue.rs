//! Lexical token queues handed over a block at a time (paper
//! §2.3.1/§2.3.3).
//!
//! A stream has one producer (a Lexor task, or the Splitter routing
//! tokens to a procedure stream) and any number of consumers.
//! [`TokenQueue::channel`] returns the two ends. The producer owns the
//! [`TokenWriter`]: it fills a private block and, each time
//! [`BLOCK_SIZE`] tokens are in it, *seals* it — the block becomes an
//! immutable `Arc<[Token]>` that the queue and every consumer share by
//! reference — and publishes it under one lock acquisition, "indicating
//! to the consumer that it now may begin to read the tokens of that
//! block". Consumers read through a [`StreamCursor`], which implements
//! the parser's [`ccm2_syntax::parser::TokenSource`]: it keeps the sealed
//! block it is reading and answers from it without a lock, and goes back
//! to the [`TokenQueue`] only when the reader steps into another block.
//!
//! A block's barrier event exists only if a consumer ran ahead of the
//! producer and had to park on that block: the consumer creates it under
//! the queue lock, and the publisher signals the events it finds there.
//! A consumer that never outruns its producer costs the supervisor
//! nothing.
//!
//! A [`TokenKind::Placeholder`] stands for a stretch of tokens that comes
//! later (an incremental compile's procedure bodies, held until the cache
//! has decided). No reader is charged for one. A writer that resolves
//! placeholders through [`Holes`] publishes, in its place, the stretch's
//! tokens once [`Holes::resolve`] has them, or keeps nothing from there
//! on once [`Holes::unread`] says nobody reads the stream. Until then it
//! holds what follows the placeholder, and if it is closed first it parks
//! in the `Holes` for the resolver to finish: its producer never waits,
//! and only the stream's own consumers wait for the stretch, on the
//! stream's barrier events.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use parking_lot::Mutex;

use ccm2_sched::{EventClass, ExecEnv};
use ccm2_support::ids::EventId;
use ccm2_support::work::Work;
use ccm2_syntax::parser::TokenSource;
use ccm2_syntax::token::{Token, TokenKind};

/// Tokens per block — the granularity of producer/consumer batching. The
/// paper does not give its block size; 64 keeps event traffic low while
/// letting consumers start promptly.
pub const BLOCK_SIZE: usize = 64;

/// A sealed block. Every block of a stream holds [`BLOCK_SIZE`] tokens
/// except the last, which holds the rest.
pub type Block = Arc<[Token]>;

struct QueueState {
    blocks: Vec<Block>,
    closed: bool,
    /// `(block index, barrier event)` of every block a consumer is parked
    /// on.
    waiters: Vec<(usize, EventId)>,
}

/// The consumer side of a token stream; any number of cursors may read
/// it (the Lexor output feeds both the Splitter and the Importer, §3).
pub struct TokenQueue {
    env: Arc<dyn ExecEnv>,
    name: String,
    state: Mutex<QueueState>,
}

impl std::fmt::Debug for TokenQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        write!(
            f,
            "TokenQueue({}: {} blocks, closed = {})",
            self.name,
            st.blocks.len(),
            st.closed
        )
    }
}

impl TokenQueue {
    /// Creates an empty open stream with a diagnostic name, and the
    /// handle of its one producer.
    pub fn channel(
        env: Arc<dyn ExecEnv>,
        name: impl Into<String>,
    ) -> (TokenWriter, Arc<TokenQueue>) {
        let queue = Arc::new(TokenQueue {
            env,
            name: name.into(),
            state: Mutex::new(QueueState {
                blocks: Vec::new(),
                closed: false,
                waiters: Vec::new(),
            }),
        });
        let writer = TokenWriter {
            queue: Arc::clone(&queue),
            staged: Vec::with_capacity(BLOCK_SIZE),
            work: None,
            closed: false,
            holes: None,
            waiting: None,
            unread: false,
        };
        (writer, queue)
    }

    /// Appends a sealed block and/or closes the stream, then wakes the
    /// consumers parked on what that made readable (on close: all of
    /// them, including those parked on a block that will never fill).
    fn publish(&self, block: Option<Block>, close: bool) {
        let wake: Vec<EventId> = {
            let mut st = self.state.lock();
            st.blocks.extend(block);
            st.closed |= close;
            let sealed = st.blocks.len();
            let mut wake = Vec::new();
            st.waiters.retain(|&(b, ev)| {
                let readable = close || b < sealed;
                if readable {
                    wake.push(ev);
                }
                !readable
            });
            wake
        };
        for ev in wake {
            self.env.signal(ev);
        }
    }

    /// Non-blocking read of block `b`: `Ok(Some)` if sealed, `Ok(None)`
    /// if the stream ended before it, `Err(event)` with the barrier event
    /// to wait on otherwise.
    pub fn try_block(&self, b: usize) -> Result<Option<Block>, EventId> {
        let mut st = self.state.lock();
        if let Some(block) = st.blocks.get(b) {
            return Ok(Some(Arc::clone(block)));
        }
        if st.closed {
            return Ok(None);
        }
        if let Some(&(_, ev)) = st.waiters.iter().find(|(wb, _)| *wb == b) {
            return Err(ev);
        }
        let ev = self
            .env
            .new_event_named(EventClass::Barrier, &format!("{}/block#{b}", self.name));
        st.waiters.push((b, ev));
        Err(ev)
    }

    /// Blocking read of block `b` (parks on the block's barrier event).
    fn block_blocking(&self, b: usize) -> Option<Block> {
        loop {
            match self.try_block(b) {
                Ok(block) => return block,
                Err(ev) => self.env.wait(ev),
            }
        }
    }
}

/// The producer side of a token stream. Dropping it unclosed (its task
/// died) closes the stream without the staged tokens, so that no consumer
/// waits for a block that will never come.
#[derive(Debug)]
pub struct TokenWriter {
    queue: Arc<TokenQueue>,
    /// The private block being filled.
    staged: Vec<Token>,
    work: Option<Work>,
    closed: bool,
    /// Where the placeholders pushed here resolve.
    holes: Option<Arc<Holes>>,
    /// The first placeholder not resolved when it was pushed, and every
    /// token pushed after it.
    waiting: Option<(u32, Vec<Token>)>,
    /// Whether a placeholder said the stream is never read: nothing
    /// pushed after it is kept.
    unread: bool,
}

impl TokenWriter {
    /// Charges `work` units per token produced, a block at a time and
    /// before the block is published (the Lexor's [`Work::Lex`]).
    pub fn charging(mut self, work: Work) -> TokenWriter {
        self.work = Some(work);
        self
    }

    /// Resolves the placeholders pushed here through `holes`.
    pub fn resolving(mut self, holes: Arc<Holes>) -> TokenWriter {
        self.holes = Some(holes);
        self
    }

    /// Appends one token; seals and publishes the block when it fills.
    pub fn push(&mut self, token: Token) {
        if let Some((_, after)) = &mut self.waiting {
            after.push(token);
            return;
        }
        if self.unread {
            return;
        }
        if let (TokenKind::Placeholder(k), Some(holes)) = (token.kind, &self.holes) {
            match holes.hole(k) {
                Hole::Open => self.waiting = Some((k, Vec::new())),
                Hole::Filled(stretch) => self.expand(&stretch),
                Hole::Unread => self.unread = true,
            }
            return;
        }
        self.staged.push(token);
        if self.staged.len() == BLOCK_SIZE {
            self.seal(false);
        }
    }

    /// Publishes a resolved placeholder's tokens, charging the
    /// [`Work::Split`] the Splitter would have been charged to read them,
    /// token by token as a reader is.
    fn expand(&mut self, stretch: &[Token]) {
        for &t in stretch {
            self.queue.env.charge(Work::Split, 1);
            self.push(t);
        }
    }

    /// Closes the stream: seals the partial block and wakes every waiting
    /// consumer. A writer still waiting for a placeholder parks in its
    /// [`Holes`] instead, and is closed by the resolver.
    pub fn close(mut self) {
        while let Some((k, _)) = self.waiting {
            let holes = Arc::clone(self.holes.as_ref().expect("only a resolving writer waits"));
            let Some((writer, resolved)) = holes.park(k, self) else {
                return;
            };
            self = writer;
            let (_, after) = self.waiting.take().expect("still waiting");
            match resolved {
                Hole::Filled(stretch) => {
                    self.expand(&stretch);
                    self.extend(after);
                }
                _ => self.unread = true,
            }
        }
        self.seal(true);
    }

    fn seal(&mut self, close: bool) {
        if let Some(work) = self.work {
            self.queue.env.charge(work, self.staged.len() as u64);
        }
        let block = (!self.staged.is_empty()).then(|| Block::from(self.staged.as_slice()));
        self.staged.clear();
        self.closed = close;
        self.queue.publish(block, close);
    }
}

impl Extend<Token> for TokenWriter {
    fn extend<I: IntoIterator<Item = Token>>(&mut self, tokens: I) {
        for t in tokens {
            self.push(t);
        }
    }
}

/// The resolutions of one compile's placeholders, and the writers closed
/// before theirs arrived. Each token a placeholder resolves to is charged
/// [`Work::Split`] to whoever routes it.
#[derive(Debug, Default)]
pub struct Holes {
    /// By placeholder number: what became of it, and the writer parked
    /// on it.
    st: Mutex<Vec<(Hole, Option<TokenWriter>)>>,
}

/// What became of one placeholder.
#[derive(Clone, Debug)]
enum Hole {
    /// Not resolved yet.
    Open,
    /// It stands for these tokens.
    Filled(Arc<[Token]>),
    /// The stream it was routed to is never read.
    Unread,
}

impl Holes {
    /// Placeholder `k` stands for `stretch`: a writer parked on it
    /// publishes it now, on this thread, and closes (or parks on its next
    /// unresolved placeholder).
    pub fn resolve(&self, k: u32, stretch: Vec<Token>) {
        self.settle(k, Hole::Filled(stretch.into()));
    }

    /// Nobody reads the stream placeholder `k` was routed to: its writer
    /// keeps nothing from the placeholder on, and closes as it stands.
    pub fn unread(&self, k: u32) {
        self.settle(k, Hole::Unread);
    }

    fn settle(&self, k: u32, hole: Hole) {
        let parked = {
            let mut st = self.st.lock();
            let slot = slot(&mut st, k);
            slot.0 = hole;
            slot.1.take()
        };
        if let Some(writer) = parked {
            writer.close();
        }
    }

    fn hole(&self, k: u32) -> Hole {
        slot(&mut self.st.lock(), k).0.clone()
    }

    /// Parks `writer` until placeholder `k` resolves, or hands it back
    /// with what `k` resolved to if it already has.
    fn park(&self, k: u32, writer: TokenWriter) -> Option<(TokenWriter, Hole)> {
        let mut st = self.st.lock();
        let slot = slot(&mut st, k);
        match slot.0 {
            Hole::Open => {
                slot.1 = Some(writer);
                None
            }
            ref resolved => Some((writer, resolved.clone())),
        }
    }
}

fn slot(slots: &mut Vec<(Hole, Option<TokenWriter>)>, k: u32) -> &mut (Hole, Option<TokenWriter>) {
    let k = k as usize;
    if slots.len() <= k {
        slots.resize_with(k + 1, || (Hole::Open, None));
    }
    &mut slots[k]
}

impl Drop for TokenWriter {
    fn drop(&mut self) {
        if !self.closed {
            self.queue.publish(None, true);
        }
    }
}

/// A read cursor over a [`TokenQueue`] that charges `work` per newly
/// consumed token — this is how parse/split/import work reaches the
/// virtual-time cost model. It belongs to the one task that reads through
/// it.
#[derive(Debug)]
pub struct StreamCursor {
    queue: Arc<TokenQueue>,
    work: Work,
    high_water: Cell<usize>,
    /// The sealed block being read, with its index.
    current: RefCell<Option<(usize, Block)>>,
}

impl StreamCursor {
    /// Creates a cursor charging `work` units per token first touched.
    pub fn new(queue: Arc<TokenQueue>, work: Work) -> StreamCursor {
        StreamCursor {
            queue,
            work,
            high_water: Cell::new(0),
            current: RefCell::new(None),
        }
    }
}

impl TokenSource for StreamCursor {
    fn get(&self, i: usize) -> Option<Token> {
        let (b, offset) = (i / BLOCK_SIZE, i % BLOCK_SIZE);
        let mut current = self.current.borrow_mut();
        if current.as_ref().map(|c| c.0) != Some(b) {
            // Block miss: the only path that takes the queue lock or waits.
            *current = Some((b, self.queue.block_blocking(b)?));
        }
        let block = &current.as_ref()?.1;
        let token = *block.get(offset)?;
        let seen = self.high_water.get();
        if i >= seen {
            self.high_water.set(i + 1);
            // A placeholder is no token, and costs its reader nothing.
            // (The queues that hold them are read in order.)
            let first = seen.max(b * BLOCK_SIZE) - b * BLOCK_SIZE;
            let free = (block[first..=offset].iter())
                .filter(|t| matches!(t.kind, TokenKind::Placeholder(_)));
            let charged = i + 1 - seen - free.count();
            self.queue.env.charge(self.work, charged as u64);
        }
        Some(token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccm2_sched::task::{TaskDesc, TaskKind, WaitSet};
    use ccm2_sched::{run_threaded, RunReport};
    use ccm2_support::hash::splitmix64;
    use ccm2_support::source::{FileId, Span};
    use ccm2_syntax::token::TokenKind;
    use std::ops::Range;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    fn tok(i: usize) -> Token {
        let at = i as u32;
        Token::new(TokenKind::Int(i as i64), Span::new(at, at + 1), FileId(0))
    }

    /// Delegates to the real supervisor and counts, in `events`, the
    /// events created through it.
    struct CountingEnv {
        inner: Arc<dyn ExecEnv>,
        events: Arc<AtomicUsize>,
    }

    impl ExecEnv for CountingEnv {
        fn new_event_named(&self, class: EventClass, name: &str) -> EventId {
            self.events.fetch_add(1, Ordering::Relaxed);
            self.inner.new_event_named(class, name)
        }
        fn signal(&self, event: EventId) {
            self.inner.signal(event);
        }
        fn is_signaled(&self, event: EventId) -> bool {
            self.inner.is_signaled(event)
        }
        fn wait_hinted(&self, event: EventId, signaler_hint: Option<EventId>) {
            self.inner.wait_hinted(event, signaler_hint);
        }
        fn spawn(&self, task: TaskDesc) {
            self.inner.spawn(task);
        }
        fn charge(&self, work: Work, units: u64) {
            self.inner.charge(work, units);
        }
        fn virtual_now(&self) -> u64 {
            self.inner.virtual_now()
        }
    }

    fn producer(name: &str, body: impl FnOnce() + Send + 'static) -> TaskDesc {
        let mut t = TaskDesc::new(name, TaskKind::Lexor, Box::new(body));
        t.signals_barriers = true;
        t
    }

    fn consumer(name: &str, kind: TaskKind, body: impl FnOnce() + Send + 'static) -> TaskDesc {
        let mut t = TaskDesc::new(name, kind, Box::new(body));
        t.may_wait = WaitSet {
            events: vec![],
            all_def_scopes: false,
            any_barrier: true,
        };
        t
    }

    #[test]
    fn producer_consumer_through_barriers() {
        let consumed = Arc::new(AtomicUsize::new(0));
        let n_tokens = 3 * BLOCK_SIZE + 7;
        run_threaded(2, |sup| {
            let env: Arc<dyn ExecEnv> = Arc::clone(sup) as Arc<dyn ExecEnv>;
            let (mut w, q) = TokenQueue::channel(env, "tokens");
            sup.spawn(producer("lexor", move || {
                w.extend((0..n_tokens).map(tok));
                w.close();
            }));
            let done = Arc::clone(&consumed);
            sup.spawn(consumer("parser", TaskKind::ModuleParse, move || {
                let cursor = StreamCursor::new(q, Work::Parse);
                let n = (0..).map_while(|i| cursor.get(i)).count();
                done.store(n, Ordering::Relaxed);
            }));
        });
        assert_eq!(consumed.load(Ordering::Relaxed), n_tokens);
    }

    #[test]
    fn try_block_reports_waiting_event() {
        // Outside any task: exercise the state machine directly with a
        // throwaway threaded env that only allocates and signals events.
        run_threaded(1, |sup| {
            let env: Arc<dyn ExecEnv> = Arc::clone(sup) as Arc<dyn ExecEnv>;
            let (mut w, q) = TokenQueue::channel(Arc::clone(&env), "tokens");
            let ev0 = q.try_block(0).expect_err("nothing sealed yet");
            assert_eq!(q.try_block(0), Err(ev0), "one event per awaited block");
            w.extend((0..BLOCK_SIZE - 1).map(tok));
            assert_eq!(q.try_block(0), Err(ev0), "staged tokens are private");
            assert!(!env.is_signaled(ev0));
            w.push(tok(BLOCK_SIZE - 1));
            assert!(env.is_signaled(ev0), "publishing wakes the block's waiter");
            let block = q.try_block(0).expect("sealed").expect("present");
            assert_eq!(block.len(), BLOCK_SIZE);
            assert_eq!(block[0].kind, TokenKind::Int(0));
            let ev1 = q.try_block(1).expect_err("second block not sealed");
            assert_ne!(ev0, ev1);
            w.push(tok(99));
            w.close();
            assert!(env.is_signaled(ev1));
            let tail = q.try_block(1).expect("sealed by close").expect("present");
            assert_eq!(
                tail.iter().map(|t| t.kind).collect::<Vec<_>>(),
                [TokenKind::Int(99)]
            );
            assert_eq!(q.try_block(2), Ok(None), "past the end");
            let cursor = StreamCursor::new(q, Work::Parse);
            assert_eq!(
                cursor.get(BLOCK_SIZE).map(|t| t.kind),
                Some(TokenKind::Int(99))
            );
            assert_eq!(cursor.get(BLOCK_SIZE + 1), None);
            assert_eq!(cursor.get(5 * BLOCK_SIZE), None);
        });
    }

    #[test]
    fn cursor_charges_per_token() {
        let report = run_threaded(1, |sup| {
            let env: Arc<dyn ExecEnv> = Arc::clone(sup) as Arc<dyn ExecEnv>;
            let (mut w, q) = TokenQueue::channel(env, "tokens");
            w.extend((0..10).map(tok));
            w.close();
            sup.spawn(TaskDesc::new(
                "reader",
                TaskKind::ModuleParse,
                Box::new(move || {
                    let cursor = StreamCursor::new(q, Work::Parse);
                    // Read some tokens twice: charges must count each
                    // token once.
                    for i in 0..10 {
                        let _ = cursor.get(i);
                        let _ = cursor.get(i / 2);
                    }
                }),
            ));
        });
        assert_eq!(report.charges[Work::Parse as usize], 10);
    }

    #[test]
    fn writer_charges_per_published_block() {
        let n = 2 * BLOCK_SIZE + 3;
        let report = run_threaded(1, |sup| {
            let env: Arc<dyn ExecEnv> = Arc::clone(sup) as Arc<dyn ExecEnv>;
            let (w, _q) = TokenQueue::channel(env, "tokens");
            let mut w = w.charging(Work::Lex);
            sup.spawn(producer("lexor", move || {
                w.extend((0..n).map(tok));
                w.close();
            }));
        });
        assert_eq!(report.charges[Work::Lex as usize], n as u64);
    }

    #[test]
    fn no_event_unless_a_consumer_runs_ahead() {
        let n = 5 * BLOCK_SIZE + 9;
        let events = Arc::new(AtomicUsize::new(0));
        let created = Arc::clone(&events);
        run_threaded(2, move |sup| {
            let env = Arc::new(CountingEnv {
                inner: Arc::clone(sup) as Arc<dyn ExecEnv>,
                events: created,
            });
            let (mut w, q) = TokenQueue::channel(env, "tokens");
            // The whole stream is published before any consumer exists.
            w.extend((0..n).map(tok));
            w.close();
            for (name, kind, work) in [
                ("split", TaskKind::Splitter, Work::Split),
                ("import", TaskKind::Importer, Work::Import),
            ] {
                let q = Arc::clone(&q);
                sup.spawn(consumer(name, kind, move || {
                    let cursor = StreamCursor::new(q, work);
                    assert_eq!((0..).map_while(|i| cursor.get(i)).count(), n);
                }));
            }
        });
        assert_eq!(events.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn close_wakes_waiter_on_block_that_never_fills() {
        let got = Arc::new(Mutex::new(Vec::new()));
        let out = Arc::clone(&got);
        let events = Arc::new(AtomicUsize::new(0));
        let created = Arc::clone(&events);
        run_threaded(2, move |sup| {
            let env: Arc<dyn ExecEnv> = Arc::new(CountingEnv {
                inner: Arc::clone(sup) as Arc<dyn ExecEnv>,
                events: created,
            });
            let (mut w, q) = TokenQueue::channel(Arc::clone(&env), "tokens");
            let (parked_tx, parked_rx) = mpsc::channel::<()>();
            sup.spawn(producer("lexor", move || {
                w.extend((0..3).map(tok));
                // Close only once the consumer has registered on block 0.
                parked_rx.recv().expect("consumer registers");
                w.close();
            }));
            sup.spawn(consumer("parser", TaskKind::ModuleParse, move || {
                let ev = q.try_block(0).expect_err("block 0 is still private");
                parked_tx.send(()).expect("producer listens");
                env.wait(ev);
                let block = q.try_block(0).expect("closed").expect("partial block");
                *out.lock() = block.iter().map(|t| t.kind).collect();
            }));
        });
        let want: Vec<TokenKind> = (0..3).map(|i| tok(i).kind).collect();
        assert_eq!(*got.lock(), want);
        assert_eq!(events.load(Ordering::Relaxed), 1, "only the awaited block");
    }

    #[test]
    fn dropped_writer_closes_the_stream() {
        run_threaded(1, |sup| {
            let env: Arc<dyn ExecEnv> = Arc::clone(sup) as Arc<dyn ExecEnv>;
            let (mut w, q) = TokenQueue::channel(Arc::clone(&env), "tokens");
            w.extend((0..BLOCK_SIZE + 1).map(tok));
            let ev = q.try_block(1).expect_err("second block still staged");
            drop(w);
            assert!(env.is_signaled(ev));
            assert_eq!(q.try_block(1), Ok(None), "staged tokens are discarded");
            assert!(q.try_block(0).expect("sealed").is_some());
        });
    }

    /// A placeholder resolved before it is pushed, between its push and
    /// the writer's close, or after the close (the writer parked), puts
    /// its stretch in its place and charges the holes' work per token;
    /// one whose stream is unread keeps nothing from there on.
    #[test]
    fn placeholders_resolve_in_place_whenever_they_resolve() {
        let hole = |k: u32| Token::new(TokenKind::Placeholder(k), Span::new(0, 0), FileId(0));
        let stretch = |k: usize| -> Vec<Token> { (10 * k..10 * k + 3).map(tok).collect() };
        let got = Arc::new(Mutex::new(Vec::new()));
        let out = Arc::clone(&got);
        let report = run_threaded(1, move |sup| {
            let env: Arc<dyn ExecEnv> = Arc::clone(sup) as Arc<dyn ExecEnv>;
            let holes = Arc::new(Holes::default());
            holes.resolve(0, stretch(0));
            let mut queues = Vec::new();
            for k in 0..4u32 {
                let (w, q) = TokenQueue::channel(Arc::clone(&env), format!("w{k}"));
                let mut w = w.resolving(Arc::clone(&holes));
                w.extend([tok(1), hole(k), tok(2)]);
                if k == 1 {
                    holes.resolve(1, stretch(1));
                }
                w.close();
                queues.push(q);
            }
            holes.resolve(2, stretch(2));
            holes.unread(3);
            for q in queues {
                let cursor = StreamCursor::new(q, Work::Parse);
                let read: Vec<TokenKind> =
                    (0..).map_while(|i| cursor.get(i)).map(|t| t.kind).collect();
                out.lock().push(read);
            }
        });
        let kinds = |ts: Vec<Token>| ts.into_iter().map(|t| t.kind).collect::<Vec<_>>();
        for (k, read) in got.lock().iter().enumerate().take(3) {
            let want = kinds([vec![tok(1)], stretch(k), vec![tok(2)]].concat());
            assert_eq!(*read, want, "placeholder {k}");
        }
        assert_eq!(
            got.lock()[3],
            [tok(1).kind],
            "an unread stream keeps its head"
        );
        assert_eq!(report.charges[Work::Split as usize], 9);
    }

    /// What one reader saw and what it was charged, against the model.
    fn check_reader(report: &RunReport, work: Work, seen: &[Token], model: &[Token]) {
        assert_eq!(seen, model, "{work:?} reader");
        assert_eq!(
            report.charges[work as usize],
            model.len() as u64,
            "{work:?} charge"
        );
    }

    #[test]
    fn two_cursors_see_and_charge_every_token_once_across_block_edges() {
        let model: Vec<Token> = (0..2 * BLOCK_SIZE + 5).map(tok).collect();
        let seen = [Arc::new(Mutex::new(vec![])), Arc::new(Mutex::new(vec![]))];
        let readers = [
            ("split", TaskKind::Splitter, Work::Split),
            ("import", TaskKind::Importer, Work::Import),
        ];
        let (tokens, outs) = (model.clone(), seen.clone());
        let report = run_threaded(2, move |sup| {
            let env: Arc<dyn ExecEnv> = Arc::clone(sup) as Arc<dyn ExecEnv>;
            let (w, q) = TokenQueue::channel(env, "lex");
            let mut w = w.charging(Work::Lex);
            sup.spawn(producer("lexor", move || {
                w.extend(tokens);
                w.close();
            }));
            for ((name, kind, work), out) in readers.into_iter().zip(outs) {
                let q = Arc::clone(&q);
                sup.spawn(consumer(name, kind, move || {
                    let cursor = StreamCursor::new(q, work);
                    let mut i = 0;
                    // The parser's access pattern: peek, peek2, previous.
                    while let Some(t) = cursor.get(i) {
                        let _ = cursor.get(i + 1);
                        assert_eq!(cursor.get(i), Some(t));
                        assert!(cursor.get(i.saturating_sub(1)).is_some());
                        out.lock().push(t);
                        i += 1;
                    }
                }));
            }
        });
        assert_eq!(report.charges[Work::Lex as usize], model.len() as u64);
        for ((_, _, work), out) in readers.iter().zip(&seen) {
            check_reader(&report, *work, &out.lock(), &model);
        }
    }

    // Random stream lengths, producer stalls and reader access patterns
    // on two workers: every reader sees exactly the model `Vec<Token>`
    // and is charged once per token.
    #[test]
    fn random_interleavings_match_the_vec_model() {
        for case in 0..48 {
            let mut state = case;
            let mut draw =
                |r: Range<usize>| r.start + (splitmix64(&mut state) % r.len() as u64) as usize;
            let n = draw(0..5 * BLOCK_SIZE);
            let n_readers = draw(1..4);
            let yields: Vec<usize> = (0..draw(0..12)).map(|_| draw(0..5 * BLOCK_SIZE)).collect();
            let steps: Vec<usize> = (0..draw(1..40)).map(|_| draw(0..7)).collect();
            println!("case {case}: n {n}, readers {n_readers}, yields {yields:?}, steps {steps:?}");
            let model: Arc<Vec<Token>> = Arc::new((0..n).map(tok).collect());
            let kinds = [
                (TaskKind::Splitter, Work::Split),
                (TaskKind::Importer, Work::Import),
                (TaskKind::ModuleParse, Work::Parse),
            ];
            let seen: Vec<_> = (0..n_readers)
                .map(|_| Arc::new(Mutex::new(vec![])))
                .collect();
            let (tokens, outs) = (Arc::clone(&model), seen.clone());
            let report = run_threaded(2, move |sup| {
                let env: Arc<dyn ExecEnv> = Arc::clone(sup) as Arc<dyn ExecEnv>;
                let (mut w, q) = TokenQueue::channel(env, "lex");
                let model = Arc::clone(&tokens);
                sup.spawn(producer("lexor", move || {
                    for (i, t) in tokens.iter().enumerate() {
                        if yields.contains(&i) {
                            std::thread::yield_now();
                        }
                        w.push(*t);
                    }
                    w.close();
                }));
                for (r, out) in outs.into_iter().enumerate() {
                    let (q, steps, model) = (Arc::clone(&q), steps.clone(), Arc::clone(&model));
                    let (kind, work) = kinds[r];
                    sup.spawn(consumer(&format!("reader{r}"), kind, move || {
                        let cursor = StreamCursor::new(q, work);
                        let mut i = 0;
                        while let Some(t) = cursor.get(i) {
                            // Look ahead or behind by this step's amount
                            // before moving on.
                            let d = steps[(i + r) % steps.len()];
                            let j = if d % 2 == 0 {
                                i + d / 2
                            } else {
                                i.saturating_sub(d)
                            };
                            assert_eq!(cursor.get(j), model.as_slice().get(j).copied());
                            out.lock().push(t);
                            i += 1;
                        }
                    }));
                }
            });
            for (r, out) in seen.iter().enumerate() {
                check_reader(&report, kinds[r].1, &out.lock(), &model);
            }
        }
    }
}
