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

use ccm2_support::ids::{ScopeId, StreamId};
use ccm2_support::intern::Symbol;
use ccm2_support::source::{FileId, Span};
use ccm2_syntax::parser::TokenSource;
use ccm2_syntax::token::{Token, TokenKind};

use crate::queue::TokenWriter;

/// Driver-side factory the splitter calls when it discovers structure.
pub trait StreamFactory: Send + Sync {
    /// The splitter read the module header: create the main module scope.
    fn main_module_started(&self, name: Symbol, file: FileId) -> ScopeId;
    /// The splitter found `PROCEDURE name` nested in `parent` scope:
    /// create the procedure's stream (scope, queue, tasks) and hand back
    /// the producer end of its queue.
    fn proc_stream(&self, name: Symbol, file: FileId, parent: ScopeId) -> (StreamId, TokenWriter);
    /// The scope created for `stream` (needed to parent nested
    /// procedures).
    fn scope_for(&self, stream: StreamId) -> Option<ScopeId>;
    /// The splitter finished carving `stream` out of the main module's
    /// text: `heading` covers `PROCEDURE … ;` and `full` the whole
    /// declaration through `END Name ;`. Called once per stream, before
    /// [`StreamFactory::split_eof`]. Default: ignore.
    fn stream_carved(&self, _stream: StreamId, _heading: Span, _full: Span) {}
    /// All streams have been carved and reported; the main stream is
    /// still open. Incremental drivers use this to decide hit/miss per
    /// stream before any deferred per-procedure work starts. Default:
    /// ignore.
    fn split_eof(&self) {}
}

struct Frame {
    sink: TokenWriter,
    scope: Option<ScopeId>,
    /// Unclosed END-consuming openers inside this frame.
    depth: i64,
    /// The stream this frame feeds (`None` for the main frame; the
    /// others are procedure streams, closed when their END arrives).
    stream: Option<StreamId>,
    /// Source range of `PROCEDURE … ;` for proc frames.
    heading: Span,
    /// Grows to cover every token routed into this frame.
    hi: u32,
}

impl Frame {
    /// Report the carved extent to the factory, then close the sink.
    fn carve_and_close(self, factory: &dyn StreamFactory) {
        if let Some(stream) = self.stream {
            let full = Span::new(self.heading.lo, self.hi.max(self.heading.hi));
            factory.stream_carved(stream, self.heading, full);
        }
        self.sink.close();
    }
}

/// Statistics about one splitter run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SplitReport {
    /// Number of procedure streams created.
    pub procedures: usize,
    /// Tokens processed.
    pub tokens: usize,
}

/// Runs the splitter: consumes `input` (blocking on a live stream),
/// routes tokens to `main_out` and to procedure streams created through
/// `factory`. Closes every stream it opened (and `main_out`) before
/// returning.
pub fn run_splitter(
    input: &dyn TokenSource,
    main_out: TokenWriter,
    factory: &dyn StreamFactory,
) -> SplitReport {
    let mut report = SplitReport::default();
    let mut stack: Vec<Frame> = vec![Frame {
        sink: main_out,
        scope: None,
        depth: 0,
        stream: None,
        heading: Span::default(),
        hi: 0,
    }];
    let mut heading: Vec<Token> = Vec::new();
    let mut pos = 0usize;

    while let Some(t) = input.get(pos) {
        pos += 1;
        report.tokens += 1;
        let is_main = stack.len() == 1;
        let top = stack.last_mut().expect("bottom frame always present");
        top.hi = top.hi.max(t.span.hi);
        match t.kind {
            TokenKind::Module => {
                top.depth += 1;
                top.sink.push(t);
                // The module name follows (possibly after nothing at all
                // in malformed input). Create the scope BEFORE forwarding
                // the name token, so downstream tasks always find it.
                if let Some(name_tok) = input.get(pos) {
                    if let (TokenKind::Ident(name), true) = (name_tok.kind, is_main) {
                        top.scope = top
                            .scope
                            .or_else(|| Some(factory.main_module_started(name, name_tok.file)));
                    }
                }
            }
            k if k.opens_end_block() => {
                top.depth += 1;
                top.sink.push(t);
            }
            TokenKind::End => {
                top.depth -= 1;
                top.sink.push(t);
                if !is_main && top.depth < 0 {
                    // This END closes the current procedure stream:
                    // `END Name ;` goes to the procedure stream, which is
                    // then complete.
                    let (copied, tail_hi) = copy_end_name(input, &mut pos, &mut top.sink);
                    report.tokens += copied;
                    let mut frame = stack.pop().expect("proc frame");
                    frame.hi = frame.hi.max(tail_hi);
                    frame.carve_and_close(factory);
                }
            }
            TokenKind::Procedure => {
                // Lookahead: a declaration only if an identifier follows
                // (else a procedure *type*) and the module header has been
                // seen (else malformed; let the parser report it).
                let (Some(name_tok), Some(parent_scope)) = (input.get(pos), top.scope) else {
                    top.sink.push(t);
                    continue;
                };
                let TokenKind::Ident(name) = name_tok.kind else {
                    top.sink.push(t);
                    continue;
                };
                report.procedures += 1;
                let (stream, mut proc_q) = factory.proc_stream(name, name_tok.file, parent_scope);
                // Heading: `PROCEDURE Name … ;` (first `;` at paren depth
                // 0, or up to a token no heading contains) — copied to
                // both the enclosing stream and the new one.
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
                report.tokens += heading.len() - 1;
                let last = *heading.last().expect("heading starts with PROCEDURE");
                // The enclosing stream gets the heading and, in place of
                // the body, a stub (§3: "stripped of all embedded
                // streams"); the new stream the heading then its body.
                top.sink.extend(heading.iter().copied());
                top.sink.push(Token::new(
                    TokenKind::ProcStub(stream),
                    last.span,
                    last.file,
                ));
                top.sink
                    .push(Token::new(TokenKind::Semi, last.span, last.file));
                proc_q.extend(heading.iter().copied());
                let heading_span = Span::new(t.span.lo, last.span.hi);
                stack.push(Frame {
                    sink: proc_q,
                    scope: factory.scope_for(stream),
                    depth: 0,
                    stream: Some(stream),
                    heading: heading_span,
                    hi: heading_span.hi,
                });
            }
            _ => top.sink.push(t),
        }
    }
    // Close every procedure stream (unterminated ones included — their
    // parsers will report the malformed input) and report its carve, let
    // the factory act on the complete carve set, then close the main
    // stream last so hit/miss decisions exist before the module parser
    // can finish.
    while stack.len() > 1 {
        stack.pop().expect("proc frame").carve_and_close(factory);
    }
    factory.split_eof();
    if let Some(main) = stack.pop() {
        main.sink.close();
    }
    report
}

/// After the procedure's END: copy the closing name and semicolon to the
/// procedure stream (whichever of `Ident` then `;` is there — the parser
/// reads a procedure's trailer the same way). Returns tokens consumed and
/// the highest byte offset copied (so the carve extends through
/// `END Name ;`).
fn copy_end_name(input: &dyn TokenSource, pos: &mut usize, sink: &mut TokenWriter) -> (usize, u32) {
    let (start, mut hi) = (*pos, 0);
    for semi in [false, true] {
        let Some(t) = input.get(*pos) else { break };
        let wanted = match t.kind {
            TokenKind::Ident(_) => !semi,
            kind => semi && kind == TokenKind::Semi,
        };
        if wanted {
            *pos += 1;
            hi = hi.max(t.span.hi);
            sink.push(t);
        }
    }
    (*pos - start, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::{StreamCursor, TokenQueue};
    use ccm2_sched::{run_threaded, ExecEnv};
    use ccm2_support::intern::Interner;
    use ccm2_support::source::SourceMap;
    use ccm2_support::DiagnosticSink;
    use ccm2_syntax::lexer::lex_file;
    use parking_lot::Mutex;
    use std::sync::Arc;

    type StreamRecord = (StreamId, Symbol, ScopeId, Arc<TokenQueue>);

    struct TestFactory {
        env: Arc<dyn ExecEnv>,
        tables: Arc<ccm2_sema::symtab::SymbolTables>,
        streams: Mutex<Vec<StreamRecord>>,
        scopes: Mutex<std::collections::HashMap<StreamId, ScopeId>>,
        next: std::sync::atomic::AtomicU32,
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
            let tables = Arc::new(ccm2_sema::symtab::SymbolTables::new());
            let factory = Arc::new(TestFactory {
                env: Arc::clone(&env),
                tables,
                streams: Mutex::new(vec![]),
                scopes: Mutex::new(Default::default()),
                next: std::sync::atomic::AtomicU32::new(0),
            });
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
