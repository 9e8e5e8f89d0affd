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

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use parking_lot::Mutex;

use ccm2_sched::{EventClass, ExecEnv};
use ccm2_support::ids::EventId;
use ccm2_support::work::Work;
use ccm2_syntax::parser::TokenSource;
use ccm2_syntax::token::Token;

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
}

impl TokenWriter {
    /// Charges `work` units per token produced, a block at a time and
    /// before the block is published (the Lexor's [`Work::Lex`]).
    pub fn charging(mut self, work: Work) -> TokenWriter {
        self.work = Some(work);
        self
    }

    /// Appends one token; seals and publishes the block when it fills.
    pub fn push(&mut self, token: Token) {
        self.staged.push(token);
        if self.staged.len() == BLOCK_SIZE {
            self.seal(false);
        }
    }

    /// Closes the stream: seals the partial block and wakes every waiting
    /// consumer.
    pub fn close(mut self) {
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
        let token = *current.as_ref()?.1.get(offset)?;
        let seen = self.high_water.get();
        if i >= seen {
            self.high_water.set(i + 1);
            self.queue.env.charge(self.work, (i + 1 - seen) as u64);
        }
        Some(token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccm2_sched::task::{TaskDesc, TaskKind, WaitSet};
    use ccm2_sched::{run_threaded, RunReport};
    use ccm2_support::source::{FileId, Span};
    use ccm2_syntax::token::TokenKind;
    use proptest::prelude::*;
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

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48 })]

        // Random stream lengths, producer stalls and reader access
        // patterns on two workers: every reader sees exactly the model
        // `Vec<Token>` and is charged once per token.
        #[test]
        fn random_interleavings_match_the_vec_model(
            n in 0usize..5 * BLOCK_SIZE,
            n_readers in 1usize..4,
            yields in proptest::collection::vec(0usize..5 * BLOCK_SIZE, 0..12),
            steps in proptest::collection::vec(0usize..7, 1..40),
        ) {
            let model: Arc<Vec<Token>> = Arc::new((0..n).map(tok).collect());
            let kinds = [
                (TaskKind::Splitter, Work::Split),
                (TaskKind::Importer, Work::Import),
                (TaskKind::ModuleParse, Work::Parse),
            ];
            let seen: Vec<_> = (0..n_readers).map(|_| Arc::new(Mutex::new(vec![]))).collect();
            let (tokens, outs) = (Arc::clone(&model), seen.clone());
            let (yields, steps) = (yields.clone(), steps.clone());
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
                            let j = if d % 2 == 0 { i + d / 2 } else { i.saturating_sub(d) };
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
