//! The Splitter task: early source splitting (paper §2.1, §3).
//!
//! A finite-state recognizer over the main module's token stream. It
//! relies on reserved words determining program structure: by balancing
//! the `END`-consuming openers it can find where each `PROCEDURE …
//! END Name ;` begins and ends *without parsing*. For every procedure it
//! discovers (at any nesting depth) it:
//!
//! 1. creates a new stream via the [`StreamFactory`] (which pre-creates
//!    the procedure's scope and schedules its tasks);
//! 2. copies the heading tokens to **both** the enclosing stream and the
//!    new stream (the enclosing scope must process the heading — §2.4);
//! 3. diverts the body tokens to the new stream only, leaving a
//!    [`TokenKind::ProcStub`] marker in the enclosing stream;
//! 4. recognizes the closing `END Name ;` by depth matching.
//!
//! The "small amount of token stream lookahead" the paper mentions (§2.1)
//! resolves `PROCEDURE` used as a *type* (`TYPE F = PROCEDURE(…)`):
//! a procedure declaration is recognized only when an identifier follows.

use std::cell::RefCell;

use ccm2_support::ids::{ScopeId, StreamId};
use ccm2_support::intern::Symbol;
use ccm2_support::source::{FileId, Span};
use ccm2_syntax::lexer::Lexer;
use ccm2_syntax::parser::TokenSource;
use ccm2_syntax::token::{Token, TokenKind};

use crate::queue::TokenWriter;

/// Driver-side factory the splitter calls when it discovers structure.
pub trait StreamFactory: Send + Sync {
    /// The splitter read the module header: create the main module scope.
    fn main_module_started(&self, name: Symbol, file: FileId) -> ScopeId;
    /// The splitter found `PROCEDURE name` nested in `parent` scope:
    /// create the procedure's stream (scope, queue, tasks) and hand back
    /// the producer end of its queue. Streams are numbered from 0 in the
    /// order they are found, which is the order of [`carve`]'s streams.
    fn proc_stream(&self, name: Symbol, file: FileId, parent: ScopeId) -> (StreamId, TokenWriter);
    /// The scope created for `stream` (needed to parent nested
    /// procedures).
    fn scope_for(&self, stream: StreamId) -> Option<ScopeId>;
    /// The splitter finished carving `stream` out of the main module's
    /// text: `heading` covers `PROCEDURE … ;` and `full` the whole
    /// declaration through `END Name ;`. Called once per stream, after
    /// every stream nested in it was carved. Default: ignore.
    fn stream_carved(&self, _stream: StreamId, _heading: Span, _full: Span) {}
}

/// Statistics about one splitter run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SplitReport {
    /// Number of procedure streams created.
    pub procedures: usize,
    /// Tokens processed.
    pub tokens: usize,
}

/// What the depth rule finds in the main module's tokens, told in token
/// order to whoever walks them: the Splitter, which routes the tokens,
/// and [`carve`], which only records where the streams lie.
trait Route {
    /// Whether the innermost open frame can declare a procedure: the main
    /// frame once the module header was read, a procedure frame always.
    fn declares(&self) -> bool;
    /// `t` belongs to the innermost open frame.
    fn token(&mut self, t: Token);
    /// The first `MODULE name` of the main frame was read (its `MODULE`
    /// already told).
    fn module_started(&mut self, name: Token);
    /// `PROCEDURE name` declares a procedure inside the innermost frame;
    /// its heading is read next.
    fn open(&mut self, name: Token);
    /// The heading of the procedure just opened (`PROCEDURE` first). Its
    /// frame is the innermost from here on.
    fn heading(&mut self, heading: &[Token]);
    /// The innermost procedure frame is carved: `heading` covers
    /// `PROCEDURE … ;`, `full` the declaration through `END Name ;`, and
    /// `end` is its closing `END` (`None` when the text ran out first).
    fn close(&mut self, heading: Span, full: Span, end: Option<Span>);
}

/// The depth rule's view of one open frame.
struct Depth {
    /// Unclosed END-consuming openers inside this frame.
    depth: i64,
    /// Source range of `PROCEDURE … ;` for proc frames.
    heading: Span,
    /// Grows to cover every token routed into this frame.
    hi: u32,
}

/// Walks `input` by the depth rule, telling `to` what each token is, and
/// closes every procedure frame still open at the end (unterminated ones
/// included — their parsers will report the malformed input). Returns
/// the number of tokens read.
fn walk(input: &(impl TokenSource + ?Sized), to: &mut impl Route) -> usize {
    let mut stack = vec![Depth {
        depth: 0,
        heading: Span::default(),
        hi: 0,
    }];
    let mut heading: Vec<Token> = Vec::new();
    let mut pos = 0usize;
    while let Some(t) = input.get(pos) {
        pos += 1;
        let is_main = stack.len() == 1;
        let top = stack.last_mut().expect("bottom frame always present");
        top.hi = top.hi.max(t.span.hi);
        match t.kind {
            TokenKind::Module => {
                top.depth += 1;
                to.token(t);
                // The module name follows (possibly after nothing at all
                // in malformed input). Create the scope BEFORE forwarding
                // the name token, so downstream tasks always find it.
                if let Some(name) = input.get(pos) {
                    if matches!(name.kind, TokenKind::Ident(_)) && is_main && !to.declares() {
                        to.module_started(name);
                    }
                }
            }
            k if k.opens_end_block() => {
                top.depth += 1;
                to.token(t);
            }
            TokenKind::End => {
                top.depth -= 1;
                to.token(t);
                if !is_main && top.depth < 0 {
                    // This END closes the current procedure stream:
                    // `END Name ;` goes to the procedure stream, which is
                    // then complete.
                    let tail_hi = copy_end_name(input, &mut pos, to);
                    let frame = stack.pop().expect("proc frame");
                    let full = Span::new(frame.heading.lo, frame.hi.max(tail_hi));
                    to.close(frame.heading, full, Some(t.span));
                }
            }
            TokenKind::Procedure => {
                // Lookahead: a declaration only if an identifier follows
                // (else a procedure *type*) and the module header has been
                // seen (else malformed; let the parser report it).
                let name = input
                    .get(pos)
                    .filter(|n| matches!(n.kind, TokenKind::Ident(_)));
                let Some(name) = name.filter(|_| to.declares()) else {
                    to.token(t);
                    continue;
                };
                to.open(name);
                // Heading: `PROCEDURE Name … ;` (first `;` at paren depth
                // 0, or up to a token no heading contains).
                heading.clear();
                heading.push(t);
                let mut paren_depth = 0i64;
                while let Some(ht) = input.get(pos) {
                    if ht.kind.ends_heading(paren_depth) {
                        break;
                    }
                    pos += 1;
                    heading.push(ht);
                    match ht.kind {
                        TokenKind::LParen => paren_depth += 1,
                        TokenKind::RParen => paren_depth -= 1,
                        TokenKind::Semi if paren_depth <= 0 => break,
                        _ => {}
                    }
                }
                to.heading(&heading);
                let last = heading.last().expect("heading starts with PROCEDURE");
                let heading_span = Span::new(t.span.lo, last.span.hi);
                stack.push(Depth {
                    depth: 0,
                    heading: heading_span,
                    hi: heading_span.hi,
                });
            }
            _ => to.token(t),
        }
    }
    while stack.len() > 1 {
        let frame = stack.pop().expect("proc frame");
        let full = Span::new(frame.heading.lo, frame.hi.max(frame.heading.hi));
        to.close(frame.heading, full, None);
    }
    pos
}

/// After the procedure's END: tells `to` the closing name and semicolon
/// (whichever of `Ident` then `;` is there — the parser reads a
/// procedure's trailer the same way). Returns the highest byte offset
/// told (so the carve extends through `END Name ;`).
fn copy_end_name(input: &(impl TokenSource + ?Sized), pos: &mut usize, to: &mut impl Route) -> u32 {
    let mut hi = 0;
    for semi in [false, true] {
        let Some(t) = input.get(*pos) else { break };
        let wanted = match t.kind {
            TokenKind::Ident(_) => !semi,
            kind => semi && kind == TokenKind::Semi,
        };
        if wanted {
            *pos += 1;
            hi = hi.max(t.span.hi);
            to.token(t);
        }
    }
    hi
}

/// One frame the Splitter routes tokens into.
struct Frame {
    sink: TokenWriter,
    scope: Option<ScopeId>,
    /// The stream this frame feeds (`None` for the main frame; the
    /// others are procedure streams, closed when their END arrives).
    stream: Option<StreamId>,
}

/// The Splitter's side of the walk: routes each token to the stream of
/// its frame, and creates and closes the streams through the factory.
struct Router<'a> {
    factory: &'a dyn StreamFactory,
    stack: Vec<Frame>,
    /// The stream [`Route::open`] created, until its heading is read.
    opened: Option<(StreamId, TokenWriter)>,
    procedures: usize,
}

impl Router<'_> {
    fn top(&mut self) -> &mut Frame {
        self.stack.last_mut().expect("bottom frame always present")
    }
}

impl Route for Router<'_> {
    fn declares(&self) -> bool {
        self.stack.last().is_some_and(|f| f.scope.is_some())
    }

    fn token(&mut self, t: Token) {
        self.top().sink.push(t);
    }

    fn module_started(&mut self, name: Token) {
        if let TokenKind::Ident(sym) = name.kind {
            let scope = self.factory.main_module_started(sym, name.file);
            self.top().scope = Some(scope);
        }
    }

    fn open(&mut self, name: Token) {
        let (TokenKind::Ident(sym), Some(parent)) = (name.kind, self.top().scope) else {
            unreachable!("a declaration is a name in a scoped frame");
        };
        self.procedures += 1;
        self.opened = Some(self.factory.proc_stream(sym, name.file, parent));
    }

    fn heading(&mut self, heading: &[Token]) {
        let (stream, mut proc_q) = self.opened.take().expect("a heading follows its open");
        let last = *heading.last().expect("heading starts with PROCEDURE");
        // The enclosing stream gets the heading and, in place of the
        // body, a stub (§3: "stripped of all embedded streams"); the new
        // stream the heading then its body.
        let top = self.top();
        top.sink.extend(heading.iter().copied());
        top.sink.push(Token::new(
            TokenKind::ProcStub(stream),
            last.span,
            last.file,
        ));
        top.sink
            .push(Token::new(TokenKind::Semi, last.span, last.file));
        proc_q.extend(heading.iter().copied());
        let scope = self.factory.scope_for(stream);
        self.stack.push(Frame {
            sink: proc_q,
            scope,
            stream: Some(stream),
        });
    }

    fn close(&mut self, heading: Span, full: Span, _end: Option<Span>) {
        let frame = self.stack.pop().expect("proc frame");
        if let Some(stream) = frame.stream {
            self.factory.stream_carved(stream, heading, full);
        }
        frame.sink.close();
    }
}

/// Runs the splitter: consumes `input` (blocking on a live stream),
/// routes tokens to `main_out` and to procedure streams created through
/// `factory`. Closes every stream it opened (and `main_out`, last)
/// before returning.
pub fn run_splitter(
    input: &dyn TokenSource,
    main_out: TokenWriter,
    factory: &dyn StreamFactory,
) -> SplitReport {
    let mut router = Router {
        factory,
        stack: vec![Frame {
            sink: main_out,
            scope: None,
            stream: None,
        }],
        opened: None,
        procedures: 0,
    };
    let tokens = walk(input, &mut router);
    if let Some(main) = router.stack.pop() {
        main.sink.close();
    }
    SplitReport {
        procedures: router.procedures,
        tokens,
    }
}

/// One procedure stream [`carve`] found, in the order the Splitter
/// creates them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Carved {
    /// `PROCEDURE … ;`, as the Splitter reports it.
    pub heading: Span,
    /// The whole declaration through `END Name ;`, as the Splitter
    /// reports it.
    pub full: Span,
    /// The procedure's name.
    pub name: Span,
    /// Index of the lexically enclosing stream; `None` directly inside
    /// the module.
    pub parent: Option<usize>,
}

/// Where the depth rule carves a module's streams, read off its scanned
/// tokens.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Carving {
    /// The module's name, if its header was read (the Splitter then
    /// creates the main scope).
    pub module: Option<Span>,
    /// Every procedure stream, in discovery order.
    pub streams: Vec<Carved>,
}

/// What [`carve`] tells its caller in token order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Scanned {
    /// A token outside every procedure body: module level, a heading, or
    /// a stream's closing `END Name ;`.
    Token(Token),
    /// A piece of the body of stream `stream`: its tokens from its heading
    /// or the end of a stream nested in it to the next nested stream or
    /// its closing `END`. A body's pieces are the body less its nested
    /// streams; an empty piece is not told.
    Piece {
        /// The stream's index in [`Carving::streams`].
        stream: usize,
        /// How many tokens the piece holds.
        tokens: usize,
        /// From its first token to its last.
        span: Span,
    },
}

/// What a [`Source`] reads the text through.
trait Scan {
    /// The next token, scanned in full.
    fn scan(&mut self) -> Option<Token>;
    /// The tokens up to the next word the depth rule reads, as one gap,
    /// or `None` when there are none.
    fn skim(&mut self) -> Option<Token>;
}

/// The main Lexor's scan: it skims where the [`Source`] lets it.
impl Scan for &mut Lexer<'_> {
    fn scan(&mut self) -> Option<Token> {
        self.next()
    }

    fn skim(&mut self) -> Option<Token> {
        let (count, span) = Lexer::skim(self);
        (count > 0).then(|| Token::new(TokenKind::Placeholder(count as u32), span, self.file()))
    }
}

/// Tokens already scanned: nothing to skim.
impl Scan for std::iter::Copied<std::slice::Iter<'_, Token>> {
    fn scan(&mut self) -> Option<Token> {
        self.next()
    }

    fn skim(&mut self) -> Option<Token> {
        None
    }
}

/// A token source that reads as far as `walk` asks, keeping the last
/// [`KEPT`] items it read. Inside a procedure body, after its heading,
/// it skims: each run of tokens up to the next `MODULE`, `END`,
/// `PROCEDURE` or `END`-block opener reaches the walk as one gap, a
/// [`TokenKind::Placeholder`] whose payload is the run's token count and
/// whose span is the run's (a scanner yields no placeholder, so no token
/// is mistaken for one). Every word the depth rule reads, and every token
/// the walk reads after one (the name after `MODULE` or `PROCEDURE`, the
/// `Name ;` after every `END`, since any may close the body), is scanned
/// in full; so is a procedure's heading, since the [`Recorder`] stops the
/// skim from the `PROCEDURE name` that opens it until its heading is
/// read.
struct Source<S> {
    reading: RefCell<Reading<S>>,
}

/// How many of the items it read last a [`Source`] keeps: the walk reads
/// at most one item past the last it told, and the [`Recorder`] looks
/// back over a closing `END Name ;` and the item before it.
const KEPT: usize = 8;

struct Reading<S> {
    scan: S,
    /// The last items read: item `i` at `kept[i % KEPT]`.
    kept: [Token; KEPT],
    /// Items read so far.
    read: usize,
    /// Whether the walk is inside a body, past its heading.
    skimming: bool,
    /// Tokens to scan in full before the next skim.
    full: usize,
}

impl<S: Scan> Reading<S> {
    fn read(&mut self) -> Option<Token> {
        if self.skimming && self.full == 0 {
            if let Some(gap) = self.scan.skim() {
                // The skim stopped before a word the rule reads.
                self.full = 1;
                return Some(gap);
            }
        }
        let t = self.scan.scan()?;
        // Any `END` may close a body, and the walk then reads its
        // `Name ;`; after `MODULE` or `PROCEDURE` it reads the name.
        self.full = match t.kind {
            TokenKind::End => 2,
            TokenKind::Module | TokenKind::Procedure => 1,
            kind if kind.opens_end_block() => 0,
            _ => self.full.saturating_sub(1),
        };
        Some(t)
    }
}

impl<S> Source<S> {
    /// Item `i`, which must be one of those kept.
    fn item(&self, i: usize) -> Token {
        let reading = self.reading.borrow();
        debug_assert!(i < reading.read && reading.read <= i + KEPT);
        reading.kept[i % KEPT]
    }
}

impl<S: Scan> TokenSource for Source<S> {
    #[inline]
    fn get(&self, i: usize) -> Option<Token> {
        let mut reading = self.reading.borrow_mut();
        while reading.read <= i {
            let t = reading.read()?;
            let at = reading.read % KEPT;
            reading.kept[at] = t;
            reading.read += 1;
        }
        debug_assert!(reading.read <= i + KEPT, "read {i} again");
        Some(reading.kept[i % KEPT])
    }
}

/// How many tokens an item of a [`Source`] stands for.
fn weight(t: &Token) -> usize {
    match t.kind {
        TokenKind::Placeholder(count) => count as usize,
        _ => 1,
    }
}

/// Where the innermost open stream's current piece starts.
#[derive(Clone, Copy, Default)]
struct PieceStart {
    /// Its first item.
    item: usize,
    /// Tokens told before it.
    told: usize,
    /// Its first byte, once its first item is told.
    lo: u32,
}

/// Records where the streams lie, and tells the body pieces apart from
/// everything else. The walk tells it every item of the source once, in
/// order, so the number told is the index of the next.
struct Recorder<'s, S, F> {
    source: &'s Source<S>,
    carving: Carving,
    /// The open streams, innermost last.
    open: Vec<usize>,
    /// Items told so far.
    read: usize,
    /// Tokens told so far: a gap counts its tokens.
    told: usize,
    piece: PieceStart,
    out: F,
}

impl<S, F: FnMut(Scanned)> Recorder<'_, S, F> {
    /// Tells the innermost open stream's piece, up to item `end`, before
    /// which `told` tokens were told.
    fn end_piece(&mut self, end: usize, told: usize) {
        if let Some(&stream) = self.open.last().filter(|_| self.piece.item < end) {
            let hi = self.source.item(end - 1).span.hi;
            (self.out)(Scanned::Piece {
                stream,
                tokens: told - self.piece.told,
                span: Span::new(self.piece.lo, hi),
            });
        }
    }

    /// A piece starts after what was told so far.
    fn start_piece(&mut self) {
        self.piece = PieceStart {
            item: self.read,
            told: self.told,
            lo: 0,
        };
    }
}

impl<S, F: FnMut(Scanned)> Route for Recorder<'_, S, F> {
    fn declares(&self) -> bool {
        !self.open.is_empty() || self.carving.module.is_some()
    }

    fn token(&mut self, t: Token) {
        if self.read == self.piece.item {
            self.piece.lo = t.span.lo;
        }
        self.read += 1;
        self.told += weight(&t);
        if self.open.is_empty() {
            (self.out)(Scanned::Token(t));
        }
    }

    fn module_started(&mut self, name: Token) {
        self.carving.module = Some(name.span);
    }

    fn open(&mut self, name: Token) {
        // The heading is scanned in full.
        self.source.reading.borrow_mut().skimming = false;
        self.end_piece(self.read, self.told);
        self.open.push(self.carving.streams.len());
        self.carving.streams.push(Carved {
            heading: Span::default(),
            full: Span::default(),
            name: name.span,
            parent: self.open.iter().rev().nth(1).copied(),
        });
    }

    fn heading(&mut self, heading: &[Token]) {
        self.read += heading.len();
        self.told += heading.len();
        self.start_piece();
        for &t in heading {
            (self.out)(Scanned::Token(t));
        }
        self.source.reading.borrow_mut().skimming = true;
    }

    fn close(&mut self, heading: Span, full: Span, end: Option<Span>) {
        // The closing `END Name ;` was told last; it is no body.
        let body = end.map_or(self.read, |end| {
            (self.piece.item..self.read)
                .rfind(|&i| self.source.item(i).span == end)
                .expect("the closing END was told")
        });
        let trailed: usize = (body..self.read)
            .map(|i| weight(&self.source.item(i)))
            .sum();
        self.end_piece(body, self.told - trailed);
        for i in body..self.read {
            (self.out)(Scanned::Token(self.source.item(i)));
        }
        let i = self.open.pop().expect("proc frame");
        let c = &mut self.carving.streams[i];
        (c.heading, c.full) = (heading, full);
        self.start_piece();
        self.source.reading.borrow_mut().skimming = !self.open.is_empty();
    }
}

/// Walks `scan` by the depth rule as `walk` reads it and records where
/// the Splitter will carve each stream, without routing any.
fn carve_from<S: Scan>(scan: S, out: impl FnMut(Scanned)) -> Carving {
    let source = Source {
        reading: RefCell::new(Reading {
            scan,
            kept: [Token::new(TokenKind::Eof, Span::default(), FileId(0)); KEPT],
            read: 0,
            skimming: false,
            full: 0,
        }),
    };
    let mut recorder = Recorder {
        source: &source,
        carving: Carving::default(),
        open: Vec::new(),
        read: 0,
        told: 0,
        piece: PieceStart::default(),
        out,
    };
    walk(&source, &mut recorder);
    recorder.carving
}

/// Walks a module's text by the Splitter's depth rule as `lexer` scans
/// it, and records where the Splitter will carve each stream, without
/// routing any. `out` is told each token outside a procedure body as it
/// is read, and each body piece once it ends, in token order.
///
/// Inside a body the scan only skims ([`Lexer::skim`]): the rule reads
/// token kinds, and only the reserved words that open or close an `END`
/// block or a procedure, so a piece is told as its span and its token
/// count, and its tokens are counted and checked but not kept or
/// numbered. A caller that wants them seeks `lexer` to the span and
/// scans it again, which numbers its names after those the carve read
/// (`lexer` is left at the end of the text). Module
/// level, headings and each stream's `END Name ;` are scanned in full;
/// the carving is the one [`carve_tokens`] finds in the same text's
/// tokens.
///
/// The Splitter carves the same streams whether it reads the tokens or
/// what `out` is told with a placeholder in place of each piece: a
/// piece holds no procedure heading, and the token after it is the one
/// that ends it (a nested `PROCEDURE` or the closing `END`), read the
/// same way either way.
pub fn carve(lexer: &mut Lexer<'_>, out: impl FnMut(Scanned)) -> Carving {
    carve_from(lexer, out)
}

/// [`carve`] over tokens already scanned, every one read in full: the
/// oracle that the skimming carve is tested against.
pub fn carve_tokens(tokens: &[Token], out: impl FnMut(Scanned)) -> Carving {
    carve_from(tokens.iter().copied(), out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::{StreamCursor, TokenQueue};
    use ccm2_sched::{run_threaded, ExecEnv};
    use ccm2_support::intern::Interner;
    use ccm2_support::source::SourceMap;
    use ccm2_support::DiagnosticSink;
    use ccm2_syntax::lexer::{lex_file, Lexer};
    use parking_lot::Mutex;
    use std::sync::Arc;

    type StreamRecord = (StreamId, Symbol, ScopeId, Arc<TokenQueue>);

    struct TestFactory {
        env: Arc<dyn ExecEnv>,
        tables: Arc<ccm2_sema::symtab::SymbolTables>,
        streams: Mutex<Vec<StreamRecord>>,
        scopes: Mutex<std::collections::HashMap<StreamId, ScopeId>>,
        next: std::sync::atomic::AtomicU32,
        carves: Mutex<Vec<(StreamId, Span, Span)>>,
    }

    impl TestFactory {
        fn new(env: &Arc<dyn ExecEnv>) -> TestFactory {
            TestFactory {
                env: Arc::clone(env),
                tables: Arc::new(ccm2_sema::symtab::SymbolTables::new()),
                streams: Mutex::new(vec![]),
                scopes: Mutex::new(Default::default()),
                next: std::sync::atomic::AtomicU32::new(0),
                carves: Mutex::new(vec![]),
            }
        }
    }

    impl StreamFactory for TestFactory {
        fn main_module_started(&self, name: Symbol, file: FileId) -> ScopeId {
            self.tables
                .new_scope(ccm2_sema::symtab::ScopeKind::MainModule, name, None, file)
        }
        fn proc_stream(
            &self,
            name: Symbol,
            file: FileId,
            parent: ScopeId,
        ) -> (StreamId, TokenWriter) {
            let id = StreamId(self.next.fetch_add(1, std::sync::atomic::Ordering::Relaxed));
            let scope = self.tables.new_scope(
                ccm2_sema::symtab::ScopeKind::Procedure,
                name,
                Some(parent),
                file,
            );
            let (writer, q) = TokenQueue::channel(Arc::clone(&self.env), "proc");
            self.streams.lock().push((id, name, scope, q));
            self.scopes.lock().insert(id, scope);
            (id, writer)
        }
        fn scope_for(&self, stream: StreamId) -> Option<ScopeId> {
            self.scopes.lock().get(&stream).copied()
        }
        fn stream_carved(&self, stream: StreamId, heading: Span, full: Span) {
            self.carves.lock().push((stream, heading, full));
        }
    }

    type SplitResult = (Vec<TokenKind>, Vec<(String, Vec<TokenKind>)>);

    /// Every token kind of a stream, read (blocking) to its end.
    fn drain(q: &Arc<TokenQueue>) -> Vec<TokenKind> {
        let cursor = StreamCursor::new(Arc::clone(q), ccm2_support::work::Work::Parse);
        (0..).map_while(|i| cursor.get(i)).map(|t| t.kind).collect()
    }

    fn split_source(src: &str) -> SplitResult {
        let interner = Arc::new(Interner::new());
        let out: Arc<Mutex<SplitResult>> = Arc::new(Mutex::new((vec![], vec![])));
        let out2 = Arc::clone(&out);
        let interner2 = Arc::clone(&interner);
        let src = src.to_string();
        run_threaded(1, move |sup| {
            let env: Arc<dyn ExecEnv> = Arc::clone(sup) as Arc<dyn ExecEnv>;
            let map = SourceMap::new();
            let file = map.add("M.mod", src.clone());
            let sink = DiagnosticSink::new();
            let tokens = lex_file(&file, &interner2, &sink);
            let factory = Arc::new(TestFactory::new(&env));
            let (main_w, main_q) = TokenQueue::channel(Arc::clone(&env), "main");
            let fac2 = Arc::clone(&factory);
            sup.spawn(ccm2_sched::task::TaskDesc::new(
                "split",
                ccm2_sched::TaskKind::Splitter,
                Box::new(move || {
                    run_splitter(&tokens, main_w, fac2.as_ref());
                }),
            ));
            let out3 = Arc::clone(&out2);
            let fac3 = Arc::clone(&factory);
            let interner3 = Arc::clone(&interner2);
            let mut collect = ccm2_sched::task::TaskDesc::new(
                "collect",
                ccm2_sched::TaskKind::Merge,
                Box::new(move || {
                    let main = drain(&main_q);
                    let procs = fac3
                        .streams
                        .lock()
                        .iter()
                        .map(|(_, name, _, q)| (interner3.resolve(*name), drain(q)))
                        .collect();
                    *out3.lock() = (main, procs);
                }),
            );
            collect.may_wait = ccm2_sched::WaitSet {
                events: vec![],
                all_def_scopes: false,
                any_barrier: true,
            };
            sup.spawn(collect);
        });
        let r = out.lock().clone();
        r
    }

    /// The carves the Splitter reports over `tokens`, by stream.
    fn splitter_carves(tokens: Vec<Token>) -> Vec<(Span, Span)> {
        let carves = Arc::new(Mutex::new(vec![]));
        let out = Arc::clone(&carves);
        run_threaded(1, move |sup| {
            let env: Arc<dyn ExecEnv> = Arc::clone(sup) as Arc<dyn ExecEnv>;
            let factory = TestFactory::new(&env);
            let (main_w, _) = TokenQueue::channel(env, "main");
            sup.spawn(ccm2_sched::task::TaskDesc::new(
                "split",
                ccm2_sched::TaskKind::Splitter,
                Box::new(move || {
                    run_splitter(&tokens, main_w, &factory);
                    *out.lock() = std::mem::take(&mut *factory.carves.lock());
                }),
            ));
        });
        let mut carves = std::mem::take(&mut *carves.lock());
        carves.sort_by_key(|(stream, _, _)| stream.0);
        carves.into_iter().map(|(_, h, f)| (h, f)).collect()
    }

    /// What `carve` tells over `src`, skimming and over all its tokens,
    /// after asserting that both carve alike: the same streams, the same
    /// tokens outside the bodies (kinds and spans; a scan numbers names
    /// by what it has read, so their payloads differ) and the same
    /// pieces; and that what they tell, each piece put back as the tokens
    /// inside its span, is the text's tokens in order, each once.
    fn carve_both(src: &str) -> (Carving, Vec<Scanned>, Vec<Token>) {
        let map = SourceMap::new();
        let file = map.add("M.mod", src);
        let (sink, skim_sink) = (DiagnosticSink::new(), DiagnosticSink::new());
        let tokens = lex_file(&file, &Interner::new(), &sink);
        let mut told = Vec::new();
        let carving = carve_tokens(&tokens, |s| told.push(s));
        let mut skimmed = Vec::new();
        let skimming = carve(&mut Lexer::new(&file, &skim_sink), |s| skimmed.push(s));
        assert_eq!(skimming, carving, "{src}");
        let blank = |mut t: Token| {
            if let TokenKind::Ident(_) = t.kind {
                t.kind = TokenKind::Ident(Symbol::from_index(0));
            }
            t
        };
        let unnamed = |told: &[Scanned]| -> Vec<Scanned> {
            (told.iter())
                .map(|s| match s {
                    Scanned::Token(t) => Scanned::Token(blank(*t)),
                    piece => piece.clone(),
                })
                .collect()
        };
        assert_eq!(unnamed(&skimmed), unnamed(&told), "{src}");
        let mut put_back = Vec::new();
        for s in unnamed(&skimmed) {
            match s {
                Scanned::Token(t) => put_back.push(t),
                Scanned::Piece {
                    tokens: n, span, ..
                } => {
                    let inside = (tokens.iter())
                        .filter(|t| span.lo <= t.span.lo && t.span.hi <= span.hi)
                        .map(|&t| blank(t));
                    let before = put_back.len();
                    put_back.extend(inside);
                    assert_eq!(put_back.len() - before, n, "{span:?} in {src}");
                }
            }
        }
        let want: Vec<Token> = tokens.iter().map(|&t| blank(t)).collect();
        assert_eq!(put_back, want, "{src}");
        assert_eq!(skim_sink.len(), sink.len(), "{src}");
        (carving, told, tokens)
    }

    // A procedure type, a nested procedure, a heading without its `;`
    // and a procedure the text ends inside: the skimming carve finds the
    // Splitter's carves and tells the text in order, and the Splitter
    // finds the same carves again when every body piece is a placeholder.
    #[test]
    fn the_scan_carves_what_the_splitter_carves_with_placeholders() {
        let src = "MODULE M; TYPE F = PROCEDURE (INTEGER); \
                   PROCEDURE Outer(a : INTEGER); VAR t : INTEGER; \
                     PROCEDURE Inner(k : INTEGER); BEGIN IF k > 0 THEN t := k END END Inner; \
                   BEGIN Inner(1); WHILE a > 0 DO a := a - 1 END END Outer; \
                   PROCEDURE Open(x : INTEGER) BEGIN x := 1 END Open; \
                   PROCEDURE Last; BEGIN LOOP EXIT END";
        let (carving, told, tokens) = carve_both(src);
        let parents: Vec<Option<usize>> = carving.streams.iter().map(|c| c.parent).collect();
        assert_eq!(parents, [None, Some(0), None, None]);
        let want: Vec<(Span, Span)> = carving
            .streams
            .iter()
            .map(|c| (c.heading, c.full))
            .collect();
        assert_eq!(splitter_carves(tokens.clone()), want);
        let placeholders: Vec<Token> = (told.iter().enumerate())
            .map(|(k, s)| match s {
                Scanned::Token(t) => *t,
                Scanned::Piece { span, .. } => {
                    Token::new(TokenKind::Placeholder(k as u32), *span, FileId(0))
                }
            })
            .collect();
        assert_eq!(splitter_carves(placeholders), want);
    }

    // Inside bodies: a procedure type in a local VAR, a local module with
    // a procedure of its own, a record type, structure words inside
    // strings and nested comments, a nested heading without its `;`,
    // lexical errors, a body the text ends inside (in a string, in a
    // comment, after a gap), and headings that an `END` or a `RECORD`
    // ends, which the walk reads before the skim begins.
    #[test]
    fn the_skim_carves_what_the_scan_carves_inside_bodies() {
        let cases = [
            "MODULE M; PROCEDURE P; VAR f : PROCEDURE (INTEGER) : BOOLEAN; g : PROCEDURE; \
             BEGIN f := NIL END P; BEGIN END M.",
            "MODULE M; PROCEDURE P; MODULE L; EXPORT Q; \
               PROCEDURE Q; BEGIN RETURN END Q; BEGIN Q END L; \
             BEGIN L.Q END P; END M.",
            "MODULE M; PROCEDURE P; TYPE R = RECORD a : INTEGER; b : RECORD c : CHAR END END; \
             VAR r : R; BEGIN r.a := 1 END P; BEGIN END M.",
            "MODULE M; PROCEDURE P; BEGIN s := \"END P; PROCEDURE Q; (*\"; \
             t := 'END'; (* END (* PROCEDURE X; *) IF *) WHILE x DO END END P; END M.",
            "MODULE M; PROCEDURE P; PROCEDURE Q(a : INTEGER) BEGIN a := 1 END Q; \
             BEGIN Q(2) END P; BEGIN END M.",
            "MODULE M; PROCEDURE P; BEGIN x := 1.5E+ ; y := 400C; z := ? w; \
             s := \"open\n END P; BEGIN END M.",
            "MODULE M; PROCEDURE P; BEGIN x := 1; y := 2",
            "MODULE M; PROCEDURE P; BEGIN x := 'never closed",
            "MODULE M; PROCEDURE P; BEGIN x := 1 (* never closed",
            "MODULE M; PROCEDURE P; BEGIN IF x THEN END; END",
            "MODULE M; PROCEDURE P; BEGIN END; END P; BEGIN END M.",
            "PROCEDURE P; BEGIN x := 1 END P; MODULE M; BEGIN END M.",
            "MODULE M; PROCEDURE P; PROCEDURE PROCEDURE Q; BEGIN END Q; END P; END M.",
            "MODULE M; PROCEDURE P; BEGIN END END P; x y z; END M.",
            "MODULE M; PROCEDURE P; BEGIN x := 1 END; y := 2 END P; END M.",
            "MODULE M; PROCEDURE P(a : INTEGER) END P; PROCEDURE Q; \
               PROCEDURE R(b : CHAR) END R; PROCEDURE S(c : T) RECORD END END S; \
             BEGIN END Q; END M.",
        ];
        for src in cases {
            carve_both(src);
        }
    }

    #[test]
    fn no_procedures_passes_through() {
        let (main, procs) = split_source("MODULE M; VAR x : INTEGER; BEGIN x := 1 END M.");
        assert!(procs.is_empty());
        assert_eq!(main.len(), 15);
        assert!(!main.iter().any(|k| matches!(k, TokenKind::ProcStub(_))));
    }

    #[test]
    fn procedure_extracted_with_stub() {
        let (main, procs) =
            split_source("MODULE M; PROCEDURE P(a : INTEGER); BEGIN a := 1 END P; BEGIN END M.");
        assert_eq!(procs.len(), 1);
        let (name, toks) = &procs[0];
        assert_eq!(name, "P");
        // Proc stream: PROCEDURE P ( a : INTEGER ) ; BEGIN a := 1 END P ;
        assert_eq!(toks[0], TokenKind::Procedure);
        assert_eq!(*toks.last().expect("tokens"), TokenKind::Semi);
        assert!(toks.contains(&TokenKind::Begin));
        // Main stream: heading + stub, no BEGIN from the proc body before
        // the module body.
        assert!(main.iter().any(|k| matches!(k, TokenKind::ProcStub(_))));
        let assigns = main.iter().filter(|k| **k == TokenKind::Assign).count();
        assert_eq!(assigns, 0, "proc body diverted away from main stream");
        // Heading appears in both streams.
        assert!(main.contains(&TokenKind::Procedure));
    }

    #[test]
    fn nested_procedures_get_own_streams() {
        let (_, procs) = split_source(
            "MODULE M; \
             PROCEDURE Outer; \
               VAR t : INTEGER; \
               PROCEDURE Inner(k : INTEGER); BEGIN t := k END Inner; \
             BEGIN Inner(1) END Outer; \
             BEGIN END M.",
        );
        assert_eq!(procs.len(), 2);
        let outer = procs.iter().find(|(n, _)| n == "Outer").expect("outer");
        let inner = procs.iter().find(|(n, _)| n == "Inner").expect("inner");
        // Outer's stream contains Inner's heading and a stub, not its body.
        assert!(outer.1.iter().any(|k| matches!(k, TokenKind::ProcStub(_))));
        assert!(inner.1.contains(&TokenKind::Begin));
        // Inner body went only to inner's stream.
        let outer_assigns = outer.1.iter().filter(|k| **k == TokenKind::Assign).count();
        assert_eq!(outer_assigns, 0);
    }

    #[test]
    fn procedure_type_not_split() {
        let (main, procs) = split_source(
            "MODULE M; TYPE F = PROCEDURE (INTEGER) : INTEGER; VAR f : F; BEGIN END M.",
        );
        assert!(procs.is_empty(), "PROCEDURE as a type must not split");
        assert!(main.contains(&TokenKind::Procedure));
    }

    #[test]
    fn end_matching_through_control_flow() {
        let (_, procs) = split_source(
            "MODULE M; \
             PROCEDURE P; \
             BEGIN \
               IF TRUE THEN \
                 WHILE FALSE DO \
                   LOOP EXIT END \
                 END \
               END; \
               CASE 1 OF 1 : END; \
               LOCK m DO END; \
               TRY EXCEPT END \
             END P; \
             BEGIN END M.",
        );
        assert_eq!(procs.len(), 1);
        let toks = &procs[0].1;
        // Final three tokens are END P ;
        let n = toks.len();
        assert_eq!(toks[n - 3], TokenKind::End);
        assert!(matches!(toks[n - 2], TokenKind::Ident(_)));
        assert_eq!(toks[n - 1], TokenKind::Semi);
    }

    #[test]
    fn record_ends_balanced_in_declarations() {
        let (_, procs) = split_source(
            "MODULE M; \
             PROCEDURE P; \
               TYPE R = RECORD x : INTEGER END; \
               VAR r : R; \
             BEGIN r.x := 1 END P; \
             BEGIN END M.",
        );
        assert_eq!(procs.len(), 1);
        assert!(procs[0].1.contains(&TokenKind::Record));
    }

    #[test]
    fn procedure_with_proc_type_param_splits_once() {
        let (_, procs) = split_source(
            "MODULE M; \
             PROCEDURE Apply(f : PROCEDURE(INTEGER); x : INTEGER); \
             BEGIN f(x) END Apply; \
             BEGIN END M.",
        );
        assert_eq!(procs.len(), 1, "inner PROCEDURE is a type, not a split");
        assert_eq!(procs[0].0, "Apply");
    }
}
