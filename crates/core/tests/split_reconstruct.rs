//! Splitter conservation: expanding every procedure stub back into the
//! main stream must reproduce the original token sequence exactly.
//!
//! The splitter (paper §2.1/§3) copies each procedure heading to both the
//! enclosing stream and the procedure stream, replaces the body with a
//! stub in the enclosing stream, and diverts the body tokens. Inverting
//! that transformation — replace `ProcStub ;` with the procedure stream's
//! tokens minus its duplicated heading, recursively — must be the
//! identity on token kinds. This pins the FSM's END-matching, heading
//! scanning and lookahead against the real lexer on arbitrary generated
//! programs.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use ccm2::queue::{StreamCursor, TokenQueue, TokenWriter};
use ccm2::splitter::{run_splitter, StreamFactory};
use ccm2_sched::{run_threaded, ExecEnv, TaskDesc, TaskKind, WaitSet};
use ccm2_sema::symtab::{ScopeKind, SymbolTables};
use ccm2_support::ids::{ScopeId, StreamId};
use ccm2_support::intern::{Interner, Symbol};
use ccm2_support::source::{FileId, SourceMap};
use ccm2_support::work::Work;
use ccm2_support::DiagnosticSink;
use ccm2_syntax::lexer::lex_file;
use ccm2_syntax::parser::TokenSource;
use ccm2_syntax::token::TokenKind;
use ccm2_workload::{generate, GenParams};

struct CollectFactory {
    env: Arc<dyn ExecEnv>,
    tables: Arc<SymbolTables>,
    queues: Mutex<HashMap<StreamId, Arc<TokenQueue>>>,
    scopes: Mutex<HashMap<StreamId, ScopeId>>,
    next: AtomicU32,
}

impl StreamFactory for CollectFactory {
    fn main_module_started(&self, name: Symbol, file: FileId) -> ScopeId {
        self.tables
            .new_scope(ScopeKind::MainModule, name, None, file)
    }
    fn proc_stream(&self, name: Symbol, file: FileId, parent: ScopeId) -> (StreamId, TokenWriter) {
        let id = StreamId(self.next.fetch_add(1, Ordering::Relaxed));
        let scope = self
            .tables
            .new_scope(ScopeKind::Procedure, name, Some(parent), file);
        let (writer, q) = TokenQueue::channel(Arc::clone(&self.env), "proc");
        self.queues.lock().insert(id, q);
        self.scopes.lock().insert(id, scope);
        (id, writer)
    }
    fn scope_for(&self, stream: StreamId) -> Option<ScopeId> {
        self.scopes.lock().get(&stream).copied()
    }
}

fn drain(q: &Arc<TokenQueue>) -> Vec<TokenKind> {
    let cursor = StreamCursor::new(Arc::clone(q), Work::Parse);
    (0..).map_while(|i| cursor.get(i)).map(|t| t.kind).collect()
}

type SplitStreams = (
    Vec<TokenKind>,
    HashMap<StreamId, Vec<TokenKind>>,
    Vec<TokenKind>,
);

/// Splits `src`, returning (main stream kinds, proc stream kinds by id).
fn split(src: &str) -> SplitStreams {
    let interner = Arc::new(Interner::new());
    let result: Arc<Mutex<SplitStreams>> = Arc::new(Mutex::new((vec![], HashMap::new(), vec![])));
    let r2 = Arc::clone(&result);
    let src = src.to_string();
    run_threaded(1, move |sup| {
        let env: Arc<dyn ExecEnv> = Arc::clone(sup) as Arc<dyn ExecEnv>;
        let map = SourceMap::new();
        let file = map.add("M.mod", src.clone());
        let sink = DiagnosticSink::new();
        let tokens = lex_file(&file, &interner, &sink);
        assert!(!sink.has_errors());
        let original: Vec<TokenKind> = tokens.iter().map(|t| t.kind).collect();
        let factory = Arc::new(CollectFactory {
            env: Arc::clone(&env),
            tables: Arc::new(SymbolTables::new()),
            queues: Mutex::new(HashMap::new()),
            scopes: Mutex::new(HashMap::new()),
            next: AtomicU32::new(0),
        });
        let (main_w, mq) = TokenQueue::channel(Arc::clone(&env), "main");
        let fac = Arc::clone(&factory);
        sup.spawn(TaskDesc::new(
            "split",
            TaskKind::Splitter,
            Box::new(move || {
                run_splitter(&tokens, main_w, fac.as_ref());
            }),
        ));
        let r3 = Arc::clone(&r2);
        let fac = Arc::clone(&factory);
        let mut collect = TaskDesc::new(
            "collect",
            TaskKind::Merge,
            Box::new(move || {
                let main = drain(&mq);
                let procs: HashMap<StreamId, Vec<TokenKind>> = fac
                    .queues
                    .lock()
                    .iter()
                    .map(|(&id, q)| (id, drain(q)))
                    .collect();
                *r3.lock() = (main, procs, original);
            }),
        );
        collect.may_wait = WaitSet {
            events: vec![],
            all_def_scopes: false,
            any_barrier: true,
        };
        sup.spawn(collect);
    });
    let r = result.lock().clone();
    r
}

/// The heading length of a procedure stream: tokens up to and including
/// the first `;` at paren depth 0 (the rule the splitter itself uses).
fn heading_len(stream: &[TokenKind]) -> usize {
    let mut depth = 0i64;
    for (ix, k) in stream.iter().enumerate() {
        match k {
            TokenKind::LParen => depth += 1,
            TokenKind::RParen => depth -= 1,
            TokenKind::Semi if depth <= 0 => return ix + 1,
            _ => {}
        }
    }
    stream.len()
}

/// Recursively expands stubs in `stream`, splicing procedure bodies back.
fn expand(stream: &[TokenKind], procs: &HashMap<StreamId, Vec<TokenKind>>) -> Vec<TokenKind> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < stream.len() {
        match stream[i] {
            TokenKind::ProcStub(id) => {
                let child = &procs[&id];
                let h = heading_len(child);
                let body = expand(&child[h..], procs);
                out.extend(body);
                // Skip the stub and its synthesized `;`.
                i += 1;
                if stream.get(i) == Some(&TokenKind::Semi) {
                    i += 1;
                }
            }
            k => {
                out.push(k);
                i += 1;
            }
        }
    }
    out
}

fn assert_reconstructs(src: &str) {
    let (main, procs, original) = split(src);
    let rebuilt = expand(&main, &procs);
    assert_eq!(
        rebuilt.len(),
        original.len(),
        "token count mismatch for:\n{src}"
    );
    assert_eq!(rebuilt, original, "token sequence mismatch for:\n{src}");
}

#[test]
fn reconstructs_simple_module() {
    assert_reconstructs("MODULE M; VAR x : INTEGER; BEGIN x := 1 END M.");
}

#[test]
fn reconstructs_module_with_procedures() {
    assert_reconstructs(
        "MODULE M; \
         PROCEDURE A(x : INTEGER) : INTEGER; BEGIN RETURN x END A; \
         PROCEDURE B; VAR t : INTEGER; BEGIN t := A(1) END B; \
         BEGIN B END M.",
    );
}

#[test]
fn reconstructs_nested_procedures() {
    assert_reconstructs(
        "MODULE M; \
         PROCEDURE Outer(a : INTEGER); \
           VAR t : INTEGER; \
           PROCEDURE Mid(b : INTEGER); \
             PROCEDURE Leaf; BEGIN t := a END Leaf; \
           BEGIN Leaf END Mid; \
         BEGIN Mid(a) END Outer; \
         BEGIN END M.",
    );
}

#[test]
fn reconstructs_control_flow_heavy_bodies() {
    assert_reconstructs(
        "MODULE M; \
         PROCEDURE P; \
           TYPE R = RECORD x : INTEGER END; \
           VAR r : R; i : INTEGER; \
         BEGIN \
           IF i > 0 THEN \
             WHILE i > 0 DO CASE i OF 1 : EXIT ELSE DEC(i) END END \
           END; \
           LOOP TRY i := 1 EXCEPT i := 2 END; EXIT END; \
           WITH r DO x := 1 END \
         END P; \
         BEGIN END M.",
    );
}

#[test]
fn reconstructs_procedure_types_without_splitting() {
    assert_reconstructs(
        "MODULE M; \
         TYPE F = PROCEDURE (INTEGER) : INTEGER; \
         VAR f : F; \
         PROCEDURE Use(g : PROCEDURE(INTEGER); x : INTEGER); BEGIN g(x) END Use; \
         BEGIN END M.",
    );
}

#[test]
fn reconstructs_generated_modules() {
    for seed in 0..8u64 {
        let m = generate(&GenParams {
            name: format!("Split{seed}"),
            seed,
            procedures: 8,
            interfaces: 0,
            import_depth: 0,
            stmts_per_proc: 14,
            nested_ratio: 0.3,
            lint_seeds: false,
            fault_seeds: false,
            lock_seeds: false,
        });
        assert_reconstructs(&m.source);
    }
}

#[test]
fn reconstructs_large_generated_module() {
    let m = generate(&GenParams {
        name: "SplitBig".into(),
        seed: 4242,
        procedures: 60,
        interfaces: 0,
        import_depth: 0,
        stmts_per_proc: 25,
        nested_ratio: 0.2,
        lint_seeds: false,
        fault_seeds: false,
        lock_seeds: false,
    });
    assert_reconstructs(&m.source);
}
