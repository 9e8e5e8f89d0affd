//! The concurrent compiler driver.
//!
//! Wires the paper's complete task structure (Figure 5) onto a
//! [`ccm2_sched`] executor:
//!
//! ```text
//!   definition-module stream      implementation stream       procedure stream
//!   ------------------------      ---------------------       ----------------
//!   Lexor(def)                    Lexor(main)
//!   Importer(def)                 Importer(main)
//!   Parser/DeclAnalyzer(def)      Splitter ───────────────────▶ (streams created)
//!                                 Parser/DeclAnalyzer(main)    Parser/DeclAnalyzer(proc)
//!                                 StmtAnalyzer/CodeGen(body)   StmtAnalyzer/CodeGen(proc)
//!                                             ╲                  ╱
//!                                              ▼   Merge (concatenation)
//! ```
//!
//! The driver owns the once-only table for definition modules (§3), the
//! DKY event map (scope completion → scheduler event, §2.3.3), the
//! per-symbol events of the Optimistic strategy, and the §2.4 heading
//! events that gate procedure streams. What the incremental cache loads,
//! decides and records is `crate::incremental`'s; the driver spawns the
//! splice tasks it asks for.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use parking_lot::Mutex;

use ccm2_codegen::emit::{gen_error_unit, gen_module_body, gen_procedure, global_shapes};
use ccm2_codegen::ir::{CodeUnit, Instr};
use ccm2_codegen::merge::{Merger, ModuleImage};
use ccm2_incr::{ArtifactStore, IncrStats};
use ccm2_sched::{
    run_sim_with, run_threaded_with, EnvMeter, EventClass, ExecEnv, RunReport, SimConfig, TaskDesc,
    TaskKind, WaitSet,
};
use ccm2_sema::declare::{bind_imports, child_heading, DeclareHooks, Declarer, HeadingMode};
use ccm2_sema::interface::Interface;
use ccm2_sema::stats::LookupStats;
use ccm2_sema::symtab::{DkyStrategy, DkyWaiter, ProcSig, ScopeKind, SymbolTables, TableNotifier};
use ccm2_sema::Sema;
use ccm2_support::defs::DefProvider;
use ccm2_support::diag::{Diagnostic, DiagnosticSink, Severity};
use ccm2_support::ids::{EventId, ScopeId, StreamId};
use ccm2_support::intern::{Interner, Symbol};
use ccm2_support::source::{FileId, SourceFile, SourceMap, Span};
use ccm2_support::work::Work;
use ccm2_syntax::ast::{Ast, Body, Decl, Import, ProcBody};
use ccm2_syntax::lexer::{Lexer, Names};
use ccm2_syntax::parser::{parse_definition_from, StreamingImpl, StreamingProc};
use ccm2_syntax::token::{Token, TokenKind};

use crate::importer::{run_importer, ImportSink};
use crate::incremental::{Incremental, InterfaceCarry, Splice, Then};
use crate::queue::{Holes, StreamCursor, TokenQueue, TokenWriter, BLOCK_SIZE};
use crate::splitter::{carve, run_splitter, Scanned, StreamFactory};

/// Which executor carries the compilation.
#[derive(Clone, Debug)]
pub enum Executor {
    /// Real OS threads, one worker per assumed processor (the paper's
    /// deployment).
    Threads(usize),
    /// The deterministic virtual-time multiprocessor (used for all
    /// speedup experiments on this single-CPU host).
    Sim(SimConfig),
}

/// Compilation options.
#[derive(Clone, Debug)]
pub struct Options {
    /// DKY strategy (§2.2). Default: Skeptical, the paper's choice.
    pub strategy: DkyStrategy,
    /// Procedure-heading information flow (§2.4). Default: alternative 1.
    pub heading_mode: HeadingMode,
    /// Executor.
    pub executor: Executor,
    /// Whether the source is split into procedure streams during lexical
    /// analysis (§2.1 — the paper's *early splitting*). With `false`, the
    /// splitter is bypassed and procedures are discovered during parsing,
    /// as in the prior work the paper contrasts against (Vandevoorde's
    /// scan + "everything else" design): code generation still runs as
    /// parallel per-procedure tasks, but all parsing and declaration
    /// analysis is serial. An ablation, not a recommended mode.
    pub early_split: bool,
    /// Run the source-level dataflow lints ([`ccm2_analysis`]) as
    /// per-unit `Analyze` tasks. Off by default; the lint diagnostics
    /// are byte-identical to the sequential compiler's
    /// (`ccm2_seq::compile_full` with `analyze = true`).
    pub analyze: bool,
    /// Content-addressed incremental compilation. When set, every
    /// procedure stream whose fingerprint matches a store entry is
    /// *respliced*: its Parser/DeclAnalyzer and StmtAnalyzer/CodeGen
    /// tasks are replaced by one cheap `CacheSplice` task feeding the
    /// cached unit into the merge and replaying its diagnostics. So is
    /// every imported definition module whose interface key matches a
    /// stored interface: one `CacheSplice` task installs its scope in
    /// place of its Lexor, Importer and Parser/DeclAnalyzer tasks. Only
    /// active with `early_split`, and only when the [`DefProvider`] can
    /// enumerate its library (the environment fingerprint must cover
    /// every interface); otherwise the compile silently runs cold. Every
    /// heading mode is cache-safe: the mode's tag is part of every
    /// fingerprint and key.
    pub incremental: Option<Arc<dyn ArtifactStore>>,
    /// Deterministic fault plan. When set, the executors query it at
    /// every `task:{name}` dispatch and the compile runs in *degraded
    /// mode*: a faulted stream's panic is caught, its object unit is
    /// replaced by an error unit carrying rendered diagnostics, and the
    /// events the dead task leaves unsignaled are signaled for it (its
    /// declared ones by the executor, the headings a dead ProcParse
    /// never declared by the driver) so the merge never hangs.
    /// Non-faulted streams are byte-identical to a fault-free run.
    pub faults: Option<Arc<ccm2_faults::FaultPlan>>,
    /// The interfaces an earlier compile under the same interner spliced
    /// (its [`ConcurrentOutput::interface_carry`]). With an active
    /// [`Options::incremental`] store, every interface still loads from
    /// the store as without it, but one whose stored bytes are those the
    /// carried interface was decoded from splices without a decode. A
    /// carry made under another interner is ignored. Set, the compile
    /// returns its own carry; an editor session hands an empty
    /// [`InterfaceCarry::new`] to its first compile and each compile's
    /// carry to the next.
    pub interface_carry: Option<Arc<InterfaceCarry>>,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            strategy: DkyStrategy::Skeptical,
            heading_mode: HeadingMode::CopyToChild,
            executor: Executor::Threads(2),
            early_split: true,
            analyze: false,
            incremental: None,
            faults: None,
            interface_carry: None,
        }
    }
}

impl Options {
    /// Options running on the virtual-time simulator with `procs`
    /// processors and the calibrated Firefly cost model.
    pub fn sim(procs: u32) -> Options {
        Options {
            executor: Executor::Sim(SimConfig::firefly(procs)),
            ..Options::default()
        }
    }

    /// Options running on `n` real worker threads.
    pub fn threads(n: usize) -> Options {
        Options {
            executor: Executor::Threads(n),
            ..Options::default()
        }
    }
}

/// A degradation event surfaced by a compile running with
/// [`Options::faults`]: structured companions to the error diagnostics,
/// for harnesses that classify failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// A task body panicked (organic or injected); its stream degraded
    /// to an error unit.
    StreamFault {
        /// The faulted task's name (contains the stream name, e.g.
        /// `codegen(M.P)`).
        task: String,
        /// The rendered panic payload.
        message: String,
    },
}

/// The result of a concurrent compilation.
#[derive(Debug)]
pub struct ConcurrentOutput {
    /// The merged object image.
    pub image: Option<ModuleImage>,
    /// Sorted diagnostics.
    pub diagnostics: Vec<Diagnostic>,
    /// Identifier-lookup statistics (Table 2).
    pub stats: Arc<LookupStats>,
    /// The interner (needed to run the image or resolve names).
    pub interner: Arc<Interner>,
    /// Source registry (for mapping diagnostics to file names).
    pub sources: Arc<SourceMap>,
    /// The executor's report: virtual/wall time, trace, task count.
    pub report: RunReport,
    /// Total streams: 1 (main) + imported interfaces + procedures
    /// (Table 1's "Number of Streams").
    pub streams: usize,
    /// Number of procedure streams.
    pub procedures: usize,
    /// Definition modules processed (Table 1's "Imported Interfaces").
    pub imported_interfaces: usize,
    /// Maximum import nesting depth observed (Table 1).
    pub import_nesting_depth: usize,
    /// Incremental-cache counters; `Some` iff the compile ran with an
    /// active [`Options::incremental`] store.
    pub incr: Option<IncrStats>,
    /// Interprocedural lock-order statistics; `Some` iff the compile ran
    /// with [`Options::analyze`] and reached the whole-program lock pass.
    pub locks: Option<ccm2_analysis::LockStats>,
    /// Degradation events (empty for a fault-free run). Each also has a
    /// corresponding error [`Diagnostic`] in `diagnostics`.
    pub errors: Vec<CompileError>,
    /// The interfaces this compile spliced, for the next compile under
    /// the same interner; `Some` iff it ran with an active
    /// [`Options::incremental`] store and was handed an
    /// [`Options::interface_carry`].
    pub interface_carry: Option<Arc<InterfaceCarry>>,
}

impl ConcurrentOutput {
    /// Whether compilation succeeded without errors.
    pub fn is_ok(&self) -> bool {
        self.image.is_some()
            && !self
                .diagnostics
                .iter()
                .any(|d| d.severity == ccm2_support::diag::Severity::Error)
    }
}

/// Compiles `source` concurrently. See [`Options`] for the knobs; the
/// object image, diagnostics and statistics are identical across
/// executors, strategies and worker counts (the equivalence tests check
/// this against the sequential compiler).
pub fn compile_concurrent(
    source: &str,
    defs: Arc<dyn DefProvider>,
    interner: Arc<Interner>,
    options: Options,
) -> ConcurrentOutput {
    let source = source.to_string();
    let executor = options.executor.clone();
    let interner_out = Arc::clone(&interner);
    let driver_cell: Arc<Mutex<Option<Arc<Driver>>>> = Arc::new(Mutex::new(None));
    let dc = Arc::clone(&driver_cell);
    let plan = options.faults.clone();
    let mk = move |env: Arc<dyn ExecEnv>| {
        let d = Driver::create(env, Arc::clone(&interner), defs, options.clone(), source);
        d.start();
        *dc.lock() = Some(d);
    };
    let report = match executor {
        Executor::Threads(n) => {
            run_threaded_with(n, plan, move |sup| mk(Arc::clone(sup) as Arc<dyn ExecEnv>))
        }
        Executor::Sim(cfg) => {
            run_sim_with(
                cfg,
                plan,
                move |env| mk(Arc::clone(env) as Arc<dyn ExecEnv>),
            )
        }
    };
    let taken = driver_cell.lock().take();
    match taken {
        Some(driver) => driver.finish(report),
        // An executor that returns without having run its setup closure
        // violates the ExecEnv contract; hand the caller a diagnosable
        // failure rather than unwinding through their stack.
        None => ConcurrentOutput {
            image: None,
            diagnostics: vec![Diagnostic::error(
                FileId(0),
                Span { lo: 0, hi: 0 },
                "internal error: executor finished without running compiler setup",
            )],
            stats: Arc::new(LookupStats::new()),
            interner: interner_out,
            sources: Arc::new(SourceMap::new()),
            report,
            streams: 0,
            procedures: 0,
            imported_interfaces: 0,
            import_nesting_depth: 0,
            incr: None,
            locks: None,
            errors: Vec::new(),
            interface_carry: None,
        },
    }
}

#[derive(Default)]
struct DriverState {
    def_streams: HashMap<Symbol, ScopeId>,
    scope_events: HashMap<ScopeId, EventId>,
    heading_events: HashMap<ScopeId, EventId>,
    heading_info: HashMap<ScopeId, (Symbol, ProcSig)>,
    /// The procedure streams carved directly inside each scope, in
    /// source order.
    child_streams: HashMap<ScopeId, Vec<ScopeId>>,
    /// Scopes whose declarations are done: no heading of a stream carved
    /// inside one of them afterwards will ever be declared.
    declarations_done: HashSet<ScopeId>,
    stream_scopes: HashMap<StreamId, ScopeId>,
    symbol_events: HashMap<(ScopeId, Symbol), EventId>,
    main_scope: Option<ScopeId>,
    main_name: Option<Symbol>,
    main_imports: Option<(FileId, Vec<Import>)>,
    next_stream: u32,
    procedures: usize,
    max_import_depth: usize,
}

/// What a procedure stream's ProcParse body holds of the driver: the
/// driver and the stream's scope. It drops with the body — run to its
/// end, unwound by a panic, or replaced unrun by an injected one — and
/// then releases the undeclared headings of the streams carved inside
/// the scope, unless the parse got that far itself: a dead parse leaves
/// no child's ProcParse gated on a heading that nobody will declare.
struct ParseGuard {
    driver: Arc<Driver>,
    scope: ScopeId,
}

impl Drop for ParseGuard {
    fn drop(&mut self) {
        let done = (self.driver.st.lock().declarations_done).contains(&self.scope);
        if !done {
            self.driver.release_undeclared_headings(self.scope);
        }
    }
}

struct Driver {
    env: Arc<dyn ExecEnv>,
    interner: Arc<Interner>,
    sink: Arc<DiagnosticSink>,
    sources: Arc<SourceMap>,
    defs: Arc<dyn DefProvider>,
    merger: Merger,
    sema: Arc<Sema>,
    strategy: DkyStrategy,
    heading_mode: HeadingMode,
    early_split: bool,
    analyze: bool,
    hub: ccm2_analysis::AnalysisHub,
    main_scope_event: EventId,
    incr: Option<Incremental>,
    /// Where the main Lexor's placeholders resolve.
    holes: Arc<Holes>,
    st: Mutex<DriverState>,
}

impl Driver {
    fn create(
        env: Arc<dyn ExecEnv>,
        interner: Arc<Interner>,
        defs: Arc<dyn DefProvider>,
        options: Options,
        source: String,
    ) -> Arc<Driver> {
        let sink = Arc::new(DiagnosticSink::new());
        let sources = Arc::new(SourceMap::new());
        let main = sources.add("Main.mod", source);
        let main_scope_event = env.new_event_named(EventClass::Handled, "scope(Main)");
        let placeholder = interner.intern("");
        Arc::new_cyclic(|driver| {
            let meter = Arc::new(EnvMeter(Arc::clone(&env)));
            let link = Arc::new(DriverLink {
                driver: driver.clone(),
                per_symbol_events: options.strategy == DkyStrategy::Optimistic,
            });
            let sema = Arc::new(Sema::new(
                Arc::clone(&interner),
                Arc::clone(&sink),
                options.strategy,
                Arc::clone(&link) as Arc<dyn DkyWaiter>,
                meter,
            ));
            sema.tables.set_notifier(link);
            let incr = Incremental::new(&options, defs.as_ref(), &main, &sema);
            Driver {
                env: Arc::clone(&env),
                interner: Arc::clone(&interner),
                sink,
                sources,
                defs,
                merger: Merger::new(placeholder, interner),
                sema,
                strategy: options.strategy,
                heading_mode: options.heading_mode,
                early_split: options.early_split,
                analyze: options.analyze,
                hub: ccm2_analysis::AnalysisHub::new(),
                main_scope_event,
                incr,
                holes: Arc::default(),
                st: Mutex::new(DriverState::default()),
            }
        })
    }

    fn tables(&self) -> &Arc<SymbolTables> {
        &self.sema.tables
    }

    /// Scope-completion event (created eagerly with the scope; the lazy
    /// path double-checks completion to avoid lost wakeups).
    fn scope_event(&self, scope: ScopeId) -> EventId {
        let created = {
            let mut st = self.st.lock();
            match st.scope_events.get(&scope) {
                Some(&e) => return e,
                None => {
                    let e = self
                        .env
                        .new_event_named(EventClass::Handled, &format!("scope#{}", scope.index()));
                    st.scope_events.insert(scope, e);
                    e
                }
            }
        };
        if self.tables().scope(scope).is_complete() {
            self.env.signal(created);
        }
        created
    }

    // ---- stream construction -------------------------------------------

    fn start(self: &Arc<Self>) {
        let file = self
            .sources
            .get(FileId(0))
            .expect("the main module is file 0");
        // Lexor(main): never blocks (§2.3.3).
        let lex_q = self.spawn_lexor("lex(Main)".to_string(), file);
        // Importer(main): anticipates interfaces (§3) — under the cache,
        // those it splices are loaded first.
        {
            let this = Arc::clone(self);
            let q = Arc::clone(&lex_q);
            let mut t = TaskDesc::new(
                "import(Main)",
                TaskKind::Importer,
                Box::new(move || {
                    if let Some(incr) = &this.incr {
                        incr.anticipate_interfaces();
                    }
                    let cursor = StreamCursor::new(q, Work::Import);
                    run_importer(&cursor, 1, &DriverHandle(this));
                }),
            );
            t.may_wait = WaitSet {
                events: vec![],
                all_def_scopes: false,
                any_barrier: true,
            };
            self.env.spawn(t);
        }
        // Splitter and Parser/DeclAnalyzer(main). Under the no-early-split
        // ablation the parser reads the raw token stream directly
        // (procedures are discovered while parsing, as in pre-paper
        // designs) and the main scope is created by the parser itself.
        let parse_q = if self.early_split {
            let (out, parse_q) = TokenQueue::channel(Arc::clone(&self.env), "parse(Main)");
            let this = Arc::clone(self);
            let q = Arc::clone(&lex_q);
            let mut t = TaskDesc::new(
                "split(Main)",
                TaskKind::Splitter,
                Box::new(move || {
                    // It outranks the Importer (§2.3.4), so on two workers
                    // it is the task beside the Lexor, and anticipates the
                    // interfaces in the Importer's place.
                    if let Some(incr) = &this.incr {
                        incr.anticipate_interfaces();
                    }
                    let cursor = StreamCursor::new(q, Work::Split);
                    run_splitter(&cursor, out, &DriverHandle(this));
                }),
            );
            t.signals_barriers = true;
            t.may_wait = WaitSet {
                events: vec![],
                all_def_scopes: false,
                any_barrier: true,
            };
            self.env.spawn(t);
            parse_q
        } else {
            Arc::clone(&lex_q)
        };
        {
            let this = Arc::clone(self);
            let mut t = TaskDesc::new(
                "parse(Main)",
                TaskKind::ModuleParse,
                Box::new(move || this.module_parse(parse_q)),
            );
            t.signals = vec![self.main_scope_event];
            t.may_wait = WaitSet {
                events: vec![],
                all_def_scopes: true,
                any_barrier: true,
            };
            self.env.spawn(t);
        }
    }

    /// Once-only creation of a definition-module stream (§3); returns its
    /// interface scope, or `None` when the provider has no such module
    /// (the importing parser reports the diagnostic). A module whose
    /// stored interface splices gets one `CacheSplice` task instead.
    fn ensure_def_stream(self: &Arc<Self>, name: Symbol, depth: usize) -> Option<ScopeId> {
        {
            let mut st = self.st.lock();
            st.max_import_depth = st.max_import_depth.max(depth);
            if let Some(&s) = st.def_streams.get(&name) {
                return Some(s);
            }
        }
        let name_str = self.interner.as_str(name);
        let text = self.defs.definition_source(name_str)?;
        let scope_ev = self
            .env
            .new_event_named(EventClass::Handled, &format!("scope({name_str}.def)"));
        let (scope, file) = {
            let mut st = self.st.lock();
            if let Some(&s) = st.def_streams.get(&name) {
                return Some(s); // raced another task; theirs won
            }
            let file = self.sources.add(format!("{name_str}.def"), text);
            let scope = self
                .tables()
                .new_scope(ScopeKind::DefModule, name, None, file.id());
            st.def_streams.insert(name, scope);
            st.scope_events.insert(scope, scope_ev);
            (scope, file)
        };
        if let Some(iface) = self.incr.as_ref().and_then(|i| i.spliced_interface(name)) {
            let this = Arc::clone(self);
            let weight = (iface.entries.len() + iface.types.len()) as u64;
            let mut t = TaskDesc::new(
                format!("splice({name_str}.def)"),
                TaskKind::CacheSplice,
                Box::new(move || this.splice_interface(name, scope, &iface, depth)),
            );
            t.weight = weight;
            t.signals = vec![scope_ev];
            t.signals_def_scope = true;
            self.env.spawn(t);
            return Some(scope);
        }
        // Spawn the stream's tasks: Lexor → {Importer, Parser/DeclAnalyzer}.
        let q = self.spawn_lexor(format!("lex({name_str}.def)"), file);
        {
            let this = Arc::clone(self);
            let q = Arc::clone(&q);
            let mut t = TaskDesc::new(
                format!("import({name_str}.def)"),
                TaskKind::Importer,
                Box::new(move || {
                    let cursor = StreamCursor::new(q, Work::Import);
                    run_importer(&cursor, depth + 1, &DriverHandle(this));
                }),
            );
            t.may_wait = WaitSet {
                events: vec![],
                all_def_scopes: false,
                any_barrier: true,
            };
            self.env.spawn(t);
        }
        {
            let this = Arc::clone(self);
            let mut t = TaskDesc::new(
                format!("defparse({name_str})"),
                TaskKind::DefModParse,
                Box::new(move || this.def_parse(name, scope, q, depth)),
            );
            t.signals = vec![scope_ev];
            t.signals_def_scope = true;
            t.may_wait = WaitSet {
                events: vec![],
                all_def_scopes: true,
                any_barrier: true,
            };
            self.env.spawn(t);
        }
        Some(scope)
    }

    /// Spawns the Lexor task of one source file and returns the queue it
    /// fills; [`Work::Lex`] is charged per token, a block at a time as it
    /// is published. It scans and names each token as it goes, except for
    /// the main module of an incremental compile ([`Driver::lex_main`]).
    fn spawn_lexor(self: &Arc<Self>, name: String, file: Arc<SourceFile>) -> Arc<TokenQueue> {
        let (writer, q) = TokenQueue::channel(Arc::clone(&self.env), name.clone());
        let this = Arc::clone(self);
        let mut t = TaskDesc::new(
            name,
            TaskKind::Lexor,
            Box::new(move || match &this.incr {
                Some(incr) if file.id() == FileId(0) => this.lex_main(incr, &file, writer),
                _ => {
                    let sema = &this.sema;
                    let mut names = Names::new(&file, &sema.interner);
                    let mut writer = writer.charging(Work::Lex);
                    writer.extend(Lexer::new(&file, &sema.sink).map(|t| names.name(t)));
                    writer.close();
                }
            }),
        );
        t.signals_barriers = true;
        self.env.spawn(t);
        q
    }

    /// The Lexor of an incremental compile's main module. It carves the
    /// text by the Splitter's depth rule as it scans it, and names and
    /// publishes every token outside a procedure body as it reads it, so
    /// the Importer, the Splitter and the module parser run beside the
    /// scan. A body piece it only skims, counting its tokens and
    /// reporting their lexical errors, and publishes one placeholder in
    /// its place. Once the scan is over the cache decides, and each
    /// placeholder resolves into the stream the Splitter routed it to: to
    /// nothing when its stream splices (a spliced body is never
    /// tokenized, named, queued or split), else to the piece's tokens,
    /// scanned again from its span and named.
    fn lex_main(&self, incr: &Incremental, file: &SourceFile, mut writer: TokenWriter) {
        let sema = &self.sema;
        let mut names = Names::new(file, &sema.interner);
        // A token is charged as it is named, a block's worth at a time as
        // the other Lexors charge theirs as they publish them; a spliced
        // body's tokens, never named, once at the end.
        let mut named = 0u64;
        let mut charge = || {
            named += 1;
            if named.is_multiple_of(BLOCK_SIZE as u64) {
                self.env.charge(Work::Lex, BLOCK_SIZE as u64);
            }
        };
        let mut pieces: Vec<(usize, usize, Span)> = Vec::new();
        let reported = DiagnosticSink::new();
        let mut lexer = Lexer::new(file, &sema.sink);
        let carving = carve(&mut lexer, |told| match told {
            Scanned::Token(t) => {
                charge();
                writer.push(names.name(t));
            }
            Scanned::Piece {
                stream,
                tokens,
                span,
            } => {
                let k = pieces.len() as u32;
                writer.push(Token::new(TokenKind::Placeholder(k), span, file.id()));
                pieces.push((stream, tokens, span));
            }
        });
        writer.close();
        let (spliced, due) = incr.decide(file.text(), &carving);
        // What waited for the decisions runs now: a stream's ProcParse
        // once its body has resolved, so that it never parks a worker on a
        // placeholder, and the splices once the Lexor has charged the
        // bodies they stand in for.
        let mut last_piece = vec![None; carving.streams.len()];
        for (k, &(stream, ..)) in pieces.iter().enumerate() {
            last_piece[stream] = Some(k);
        }
        let mut after: Vec<Vec<Then<()>>> = pieces.iter().map(|_| Vec::new()).collect();
        let mut splices = Vec::new();
        for (stream, then) in due {
            match stream.map(|s| last_piece.get(s).copied().flatten()) {
                Some(Some(k)) => after[k].push(then),
                Some(None) => then(()),
                None => splices.push(then),
            }
        }
        // The skim reported the live pieces' lexical errors already. The
        // carve's scanner reads them again, in piece order, and `names`
        // names them, so the interner meets each name when naming every
        // token in order would have, and a name the carve read is not
        // looked up again.
        lexer.report_to(&reported);
        let (mut skipped, mut unread) = (0, Vec::new());
        for (k, (stream, count, span)) in pieces.into_iter().enumerate() {
            if spliced[stream] {
                skipped += count as u64;
                unread.push(k as u32);
                continue;
            }
            lexer.seek(span.lo as usize);
            let stretch = (lexer.by_ref().take(count))
                .map(|t| {
                    charge();
                    names.name(t)
                })
                .collect();
            self.holes.resolve(k as u32, stretch);
            for then in std::mem::take(&mut after[k]) {
                then(());
            }
        }
        self.env
            .charge(Work::Lex, named % BLOCK_SIZE as u64 + skipped);
        for then in splices {
            then(());
        }
        // Nobody reads a stream that splices.
        for k in unread {
            self.holes.unread(k);
        }
    }

    /// Spawns one per-unit `Analyze` task (§2.3.4 priority: after
    /// statement analysis, before code generation), which shares the
    /// unit's arena with its code generation. Analysis tasks are pure
    /// AST walks: no prereqs and an empty wait-set, so they are always
    /// stack-eligible for blocked workers.
    #[allow(clippy::too_many_arguments)] // one spawn site per stream kind
    fn spawn_analyze(
        self: &Arc<Self>,
        label: String,
        unit: String,
        file: FileId,
        kind: ccm2_analysis::UnitKind,
        decls: Vec<Decl>,
        body: &Body,
        scope: Option<ScopeId>,
    ) {
        let body = body.clone();
        let weight = body.ast.stmt_count(body.stmts) as u64;
        let this = Arc::clone(self);
        let mut t = TaskDesc::new(
            label,
            TaskKind::Analyze,
            Box::new(move || {
                let sema = &this.sema;
                let ua = ccm2_analysis::analyze_unit(
                    &sema.interner,
                    file,
                    &unit,
                    kind,
                    &decls,
                    &body,
                    &sema.sink,
                );
                this.env.charge(Work::Analyze, ua.work);
                if let (Some(scope), Some(incr)) = (scope, &this.incr) {
                    incr.analyzed(scope, &ua.used, &ua.summary);
                }
                this.hub.absorb(ua.used);
                this.hub.absorb_summary(ua.summary);
            }),
        );
        t.weight = weight;
        self.env.spawn(t);
    }

    /// The interface scope of each import that has one, in source order
    /// — the order [`ensure_def_stream`](Self::ensure_def_stream) starts
    /// the streams in, and the order Avoidance waits for them in: which
    /// import a task blocks on first decides whom the Supervisor nests,
    /// so it must not be a hash map's iteration order.
    fn import_scopes(self: &Arc<Self>, imports: &[Import], depth: usize) -> Vec<(Symbol, ScopeId)> {
        let scopes = imports.iter().filter_map(|imp| {
            let m = imp.module().name;
            self.ensure_def_stream(m, depth).map(|s| (m, s))
        });
        scopes.collect()
    }

    // ---- task bodies ------------------------------------------------------

    fn def_parse(self: &Arc<Self>, name: Symbol, scope: ScopeId, q: Arc<TokenQueue>, depth: usize) {
        let sema = Arc::clone(&self.sema);
        let cursor = StreamCursor::new(q, Work::Parse);
        let parsed = parse_definition_from(&cursor, &sema.interner, &sema.sink);
        let Some(def) = parsed else {
            // Malformed interface: complete the (empty) table so DKY
            // waiters are not stranded.
            sema.tables.mark_complete(scope);
            return;
        };
        if def.name.name != name {
            self.sink.report(Diagnostic::error(
                self.tables().scope(scope).file(),
                def.name.span,
                format!(
                    "definition file for `{}` declares module `{}`",
                    self.interner.resolve(name),
                    self.interner.resolve(def.name.name)
                ),
            ));
        }
        let mapping = self.import_scopes(&def.imports, depth + 1);
        bind_imports(&sema, scope, &def.imports, &|n| scope_of(&mapping, n));
        if self.strategy == DkyStrategy::Avoidance {
            // §2.2: delay semantic analysis until the tables it may search
            // are complete.
            for &(_, s) in &mapping {
                self.wait_scope_complete(s);
            }
        }
        let hooks = DriverHooks { driver: self };
        let mut declarer = Declarer::new(&sema, scope, self.heading_mode, &hooks);
        for decl in &def.decls {
            declarer.declare(&def.ast, decl);
        }
        declarer.finish();
        self.merger.add_globals(name, global_shapes(&sema, scope));
        if let Some(incr) = &self.incr {
            incr.def_parsed(scope, def.imports);
        }
        sema.tables.mark_complete(scope);
    }

    /// Task body of an interface splice: does what the module's live
    /// Importer and Parser/DeclAnalyzer would have done, from its stored
    /// interface — starts its imports' streams, binds its imports,
    /// installs its types and entries, registers its global area — and
    /// completes the scope.
    fn splice_interface(
        self: &Arc<Self>,
        name: Symbol,
        scope: ScopeId,
        iface: &Interface,
        depth: usize,
    ) {
        let sema = Arc::clone(&self.sema);
        let items = iface.entries.len() + iface.types.len();
        self.env.charge(Work::Splice, 1 + items as u64 / 8);
        let mapping = self.import_scopes(&iface.imports, depth + 1);
        bind_imports(&sema, scope, &iface.imports, &|n| scope_of(&mapping, n));
        let incr = self.incr.as_ref().expect("only a cached compile splices");
        incr.install_interface(name, scope, iface);
        self.merger.add_globals(name, global_shapes(&sema, scope));
        sema.tables.mark_complete(scope);
    }

    fn module_parse(self: &Arc<Self>, parse_q: Arc<TokenQueue>) {
        let sema = Arc::clone(&self.sema);
        let cursor = StreamCursor::new(parse_q, Work::Parse);
        let streaming = StreamingImpl::begin(&cursor, &sema.interner, &sema.sink);
        let main_scope = self.st.lock().main_scope;
        let Some(mut streaming) = streaming else {
            if let Some(s) = main_scope {
                sema.tables.mark_complete(s);
                self.release_undeclared_headings(s);
            } else {
                self.env.signal(self.main_scope_event);
            }
            return;
        };
        let scope = match main_scope {
            Some(s) => s,
            None if !self.early_split => {
                // No splitter ran: the parser creates the main scope.
                let name = streaming.name();
                DriverHandle(Arc::clone(self)).main_module_started(
                    name.name,
                    self.sources
                        .get(ccm2_support::source::FileId(0))
                        .map(|f| f.id())
                        .unwrap_or(ccm2_support::source::FileId(0)),
                )
            }
            None => {
                self.env.signal(self.main_scope_event);
                return;
            }
        };
        let imports = streaming.imports().to_vec();
        let mapping = self.import_scopes(&imports, 1);
        bind_imports(&sema, scope, &imports, &|n| scope_of(&mapping, n));
        if self.strategy == DkyStrategy::Avoidance {
            for &(_, s) in &mapping {
                self.wait_scope_complete(s);
            }
        }
        // Declarations are analyzed as they are parsed, so each procedure
        // heading's avoided event fires immediately (§3: fast processing
        // of declaration parts resolves DKY blockages early).
        let hooks = DriverHooks { driver: self };
        let mut declarer = Declarer::new(&sema, scope, self.heading_mode, &hooks);
        let mut unit_decls: Vec<Decl> = Vec::new();
        while let Some(decls) = streaming.next_decls() {
            for decl in &decls {
                declarer.declare(streaming.ast(), decl);
            }
            if self.analyze {
                unit_decls.extend(decls);
            }
        }
        let pending = declarer.finish();
        self.release_undeclared_headings(scope);
        // Paper §3: the symbol table is marked complete before the
        // statement parse tree is built.
        sema.tables.mark_complete(scope);
        // Under the no-early-split ablation, procedure bodies are Local:
        // declare them here (serially — the ablation's cost) and spawn
        // their code-generation tasks. The module's table is complete
        // first: a local procedure's lookup that misses it must not wait
        // on this very task. They share the stream's arena as it stands;
        // the module body's parse goes on in a continuation of it.
        if pending.iter().any(|p| matches!(p.body, ProcBody::Local(_))) {
            self.process_local_procs(pending, streaming.share_ast());
        }
        self.merger
            .add_globals(streaming.name().name, global_shapes(&sema, scope));
        let module_name = streaming.name().name;
        let body = streaming.finish();
        // Analysis of the module unit (its own decls + body); the
        // unused-import check runs in `finish`, over every unit's union.
        if self.analyze {
            let file = self.tables().scope(scope).file();
            self.st.lock().main_imports = Some((file, imports.clone()));
            let module_str = self.interner.resolve(module_name);
            self.spawn_analyze(
                format!("analyze({module_str})"),
                module_str,
                file,
                ccm2_analysis::UnitKind::Module,
                unit_decls,
                &body,
                None,
            );
        }
        // Module-body statement analysis + code generation task — or a
        // splice of the cached module unit, once the cache has decided.
        match &self.incr {
            Some(incr) => {
                let this = Arc::clone(self);
                let unit = move |splice| this.spawn_module_unit(scope, module_name, body, splice);
                incr.module_parsed(Box::new(unit));
            }
            None => self.spawn_module_unit(scope, module_name, body, None),
        }
    }

    /// Spawns the module body's statement analysis and code generation, or
    /// the splice that replaces them.
    fn spawn_module_unit(
        self: &Arc<Self>,
        scope: ScopeId,
        module_name: Symbol,
        body: Body,
        splice: Option<Splice>,
    ) {
        let weight = body.ast.stmt_count(body.stmts) as u64;
        if let Some(splice) = splice {
            self.spawn_splice(module_name, weight, None, splice);
            return;
        }
        let this = Arc::clone(self);
        let mut t = TaskDesc::new(
            format!("codegen({})", self.interner.as_str(module_name)),
            codegen_kind(weight),
            Box::new(move || {
                let sema = &this.sema;
                let unit = if body.poisoned {
                    gen_error_unit(&this.interner, module_name, 0)
                } else {
                    gen_module_body(sema, scope, module_name, &body)
                };
                this.merger.add_unit(unit, sema.meter.as_ref());
            }),
        );
        t.weight = weight;
        t.may_wait = WaitSet {
            events: vec![],
            all_def_scopes: true,
            any_barrier: false,
        };
        self.env.spawn(t);
    }

    /// Recursively declares Local-bodied procedures (no-early-split
    /// ablation) and spawns their code-generation tasks. Their bodies are
    /// in `ast`, the module stream's arena as it stood when its
    /// declarations were done.
    fn process_local_procs(
        self: &Arc<Self>,
        pending: Vec<ccm2_sema::declare::PendingProc>,
        ast: Arc<Ast>,
    ) {
        let sema = Arc::clone(&self.sema);
        let mut queue = pending;
        while let Some(p) = queue.pop() {
            let ProcBody::Local(local) = p.body else {
                continue; // Remote bodies are handled by their streams.
            };
            {
                let mut st = self.st.lock();
                st.procedures += 1;
                st.scope_events.entry(p.scope).or_insert_with(|| {
                    self.env.new_event_named(
                        EventClass::Handled,
                        &format!("scope(local proc #{})", p.scope.index()),
                    )
                });
            }
            child_heading(&sema, self.heading_mode, p.scope, &ast, &p.heading);
            let hooks = DriverHooks { driver: self };
            let mut declarer = Declarer::new(&sema, p.scope, self.heading_mode, &hooks);
            for d in &local.decls {
                declarer.declare(&ast, d);
            }
            let nested = declarer.finish();
            sema.tables.mark_complete(p.scope);
            queue.extend(nested);
            let body = local.body_in(&ast);
            self.spawn_procedure_tail(p.scope, p.code_name, p.sig, local.decls, body);
        }
    }

    fn proc_parse(self: &Arc<Self>, scope: ScopeId, q: Arc<TokenQueue>) {
        let sema = Arc::clone(&self.sema);
        let cursor = StreamCursor::new(q, Work::Parse);
        let info = self.st.lock().heading_info.get(&scope).cloned();
        let begun = info.and_then(|info| {
            let streaming = StreamingProc::begin(&cursor, &sema.interner, &sema.sink)?;
            Some((info, streaming))
        });
        let Some(((code_name, sig), mut streaming)) = begun else {
            // The enclosing declarations never declared this heading: it
            // failed to parse there, was reported there, and the whole
            // declaration was skipped — so nothing of this stream is
            // compiled, and none of its nested headings is declared.
            sema.tables.mark_complete(scope);
            self.release_undeclared_headings(scope);
            return;
        };
        child_heading(
            &sema,
            self.heading_mode,
            scope,
            streaming.ast(),
            streaming.heading(),
        );
        // Local declarations are analyzed as parsed (nested procedure
        // headings fire immediately); the table completes before the
        // statement parse tree is built (§3).
        let hooks = DriverHooks { driver: self };
        let mut declarer = Declarer::new(&sema, scope, self.heading_mode, &hooks);
        let mut unit_decls: Vec<Decl> = Vec::new();
        while let Some(decls) = streaming.next_decls() {
            for decl in &decls {
                declarer.declare(streaming.ast(), decl);
            }
            if self.analyze {
                unit_decls.extend(decls);
            }
        }
        declarer.finish();
        self.release_undeclared_headings(scope);
        sema.tables.mark_complete(scope);
        let body = streaming.finish();
        self.spawn_procedure_tail(scope, code_name, sig, unit_decls, body);
    }

    /// A procedure's tasks after its declarations: the `Analyze` task
    /// when linting, then statement analysis + code generation (long
    /// before short, §2.3.4), which may wait on the scopes enclosing it.
    /// A poisoned body becomes an error unit. The arena drops with the
    /// last of them.
    fn spawn_procedure_tail(
        self: &Arc<Self>,
        scope: ScopeId,
        code_name: Symbol,
        sig: ProcSig,
        decls: Vec<Decl>,
        body: Body,
    ) {
        let name_str = self.interner.as_str(code_name);
        if self.analyze {
            let file = self.tables().scope(scope).file();
            self.spawn_analyze(
                format!("analyze({name_str})"),
                name_str.to_owned(),
                file,
                ccm2_analysis::UnitKind::Procedure,
                decls,
                &body,
                Some(scope),
            );
        }
        let ancestor_events: Vec<EventId> = self
            .tables()
            .ancestry(scope)
            .into_iter()
            .skip(1)
            .map(|s| self.scope_event(s))
            .collect();
        let weight = body.ast.stmt_count(body.stmts) as u64;
        let this = Arc::clone(self);
        let mut t = TaskDesc::new(
            format!("codegen({name_str})"),
            codegen_kind(weight),
            Box::new(move || {
                let sema = &this.sema;
                let unit = if body.poisoned {
                    let level = sema.tables.scope(scope).level();
                    gen_error_unit(&this.interner, code_name, level)
                } else {
                    gen_procedure(sema, scope, code_name, &sig, &body)
                };
                this.merger.add_unit(unit, sema.meter.as_ref());
            }),
        );
        t.weight = weight;
        t.may_wait = WaitSet {
            events: ancestor_events,
            all_def_scopes: true,
            any_barrier: false,
        };
        self.env.spawn(t);
    }

    /// Once `parent`'s declarations are done, fires the §2.4 heading
    /// event of every procedure stream carved directly inside it whose
    /// heading they never declared (it failed to parse, the parse
    /// stopped short of it, or the parse died: [`ParseGuard`]; a stream
    /// carved later is released as it is carved). That stream's
    /// ProcParse then takes its no-heading branch instead of waiting
    /// forever.
    fn release_undeclared_headings(&self, parent: ScopeId) {
        let undeclared: Vec<EventId> = {
            let mut st = self.st.lock();
            st.declarations_done.insert(parent);
            let children = st.child_streams.get(&parent).map_or(&[][..], Vec::as_slice);
            children
                .iter()
                .filter(|s| !st.heading_info.contains_key(s))
                .filter_map(|s| st.heading_events.get(s).copied())
                .collect()
        };
        for e in undeclared {
            self.env.signal(e);
        }
    }

    /// Parser/DeclAnalyzer task for a procedure stream, gated on the
    /// heading event (§2.4 avoided event). Under Avoidance it is also
    /// gated on the parent scope's completion (§2.2). Spawned as the
    /// Splitter creates the stream, unless the stream splices.
    fn spawn_proc_parse(
        self: &Arc<Self>,
        scope: ScopeId,
        parent: ScopeId,
        name: Symbol,
        q: Arc<TokenQueue>,
    ) {
        let name_str = self.interner.as_str(name);
        let (scope_ev, heading_ev) = {
            let st = self.st.lock();
            (
                st.scope_events.get(&scope).copied(),
                st.heading_events.get(&scope).copied(),
            )
        };
        let ancestor_events: Vec<EventId> = self
            .tables()
            .ancestry(scope)
            .into_iter()
            .skip(1)
            .map(|s| self.scope_event(s))
            .collect();
        let body_q = Arc::clone(&q);
        let guard = ParseGuard {
            driver: Arc::clone(self),
            scope,
        };
        let mut t = TaskDesc::new(
            format!("procparse({name_str})"),
            TaskKind::ProcParse,
            Box::new(move || {
                let guard = guard;
                guard.driver.proc_parse(guard.scope, body_q)
            }),
        );
        t.prereqs = heading_ev.into_iter().collect();
        if self.strategy == DkyStrategy::Avoidance {
            t.prereqs.push(self.scope_event(parent));
        }
        t.signals = scope_ev.into_iter().collect();
        t.may_wait = WaitSet {
            events: ancestor_events,
            all_def_scopes: true,
            any_barrier: true,
        };
        self.env.spawn(t);
    }

    /// Spawns the `CacheSplice` task replacing a hit unit's parse and
    /// codegen tasks: those of the procedure stream of `stream`, or the
    /// module body's codegen when `stream` is `None`. A procedure's
    /// splice is gated, like its ProcParse, on the stream's §2.4 heading
    /// event: the enclosing declarer copies parameters into this scope
    /// (CopyToChild), so the scope may only be marked complete after that
    /// copy. Beyond the prereq it never waits, so it is always
    /// stack-eligible.
    fn spawn_splice(
        self: &Arc<Self>,
        name: Symbol,
        weight: u64,
        stream: Option<ScopeId>,
        splice: Splice,
    ) {
        let st = self.st.lock();
        let heading_ev = stream.and_then(|s| st.heading_events.get(&s).copied());
        let scope_ev = stream.and_then(|s| st.scope_events.get(&s).copied());
        let child_evs: Vec<EventId> = (splice.children.iter())
            .filter_map(|s| st.heading_events.get(s).copied())
            .collect();
        drop(st);
        let this = Arc::clone(self);
        let body_evs = child_evs.clone();
        let mut t = TaskDesc::new(
            format!("splice({})", self.interner.as_str(name)),
            TaskKind::CacheSplice,
            Box::new(move || this.splice(stream, splice, body_evs)),
        );
        t.weight = weight;
        t.prereqs = heading_ev.into_iter().collect();
        t.signals = scope_ev.into_iter().chain(child_evs).collect();
        self.env.spawn(t);
    }

    /// Task body of a code unit's splice: completes a procedure stream's
    /// (empty) scope table and releases its nested streams' heading
    /// gates, replays the unit's recorded diagnostics rebased onto this
    /// run's carve, feeds its cached used-name set and lock summary to
    /// the lint hub, and merges the cached unit.
    fn splice(
        self: &Arc<Self>,
        stream: Option<ScopeId>,
        splice: Splice,
        child_heading_evs: Vec<EventId>,
    ) {
        let sema = &self.sema;
        let (entry, lo) = (splice.entry, splice.lo);
        self.env
            .charge(Work::Splice, 1 + entry.unit.code.len() as u64 / 64);
        // Completing the scope fires its completion event and frees any
        // DKY waiter. Spliced scopes are only ever searched by their own
        // descendants, and those are spliced too (closure rule), so the
        // emptiness of the table is unobservable.
        if let Some(scope) = stream {
            sema.tables.mark_complete(scope);
        }
        for e in child_heading_evs {
            self.env.signal(e);
        }
        for d in &entry.diags {
            sema.sink.report(Diagnostic {
                severity: d.severity,
                file: FileId(0),
                span: Span {
                    lo: lo + d.rel_lo,
                    hi: lo + d.rel_hi,
                },
                message: d.message.clone(),
            });
        }
        if self.analyze {
            let used: HashSet<Symbol> =
                entry.used.iter().map(|u| sema.interner.intern(u)).collect();
            self.hub.absorb(used);
            if let Some(mut summary) = splice.summary {
                summary.from_cache = true;
                self.hub.absorb_summary(summary);
            }
        }
        self.merger.add_unit(entry.unit, sema.meter.as_ref());
    }

    // ---- finish -------------------------------------------------------------

    fn finish(self: &Arc<Self>, report: RunReport) -> ConcurrentOutput {
        let mut st = self.st.lock();
        let main_name = st.main_name;
        let main_scope = st.main_scope;
        let procedures = st.procedures;
        let imported_interfaces = st.def_streams.len();
        let import_nesting_depth = st.max_import_depth;
        let main_imports = st.main_imports.take();
        // Every unit's code name, by scope: the procedures' and the
        // module body's.
        let mut code_names: HashMap<ScopeId, Symbol> = st
            .heading_info
            .iter()
            .map(|(s, (name, _))| (*s, *name))
            .collect();
        code_names.extend(st.main_scope.zip(main_name));
        let def_streams = std::mem::take(&mut st.def_streams);
        drop(st);
        // Unused-import lint and the whole-program lock-order pass: every
        // Analyze (and splice) task has completed — the run is over — so
        // the hub holds the full used-name union and one summary per unit.
        let mut locks: Option<ccm2_analysis::LockStats> = None;
        let mut lock_keys: HashSet<(u32, u32, String)> = HashSet::new();
        if self.analyze {
            if let Some((file, imports)) = main_imports {
                let used = self.hub.take_used();
                ccm2_analysis::check_unused_imports(
                    &self.interner,
                    file,
                    &imports,
                    &used,
                    &self.sink,
                );
                let unit_summaries = self.hub.take_summaries();
                let (lock_diags, lock_stats) =
                    ccm2_analysis::lock_order_pass(&unit_summaries, file);
                for d in lock_diags {
                    lock_keys.insert((d.span.lo, d.span.hi, d.message.clone()));
                    self.sink.report(d);
                }
                locks = Some(lock_stats);
            }
        }
        let mut image: Option<ModuleImage> = main_name.map(|name| {
            let mut image = self.merger.finish();
            image.name = name;
            image.entry = name;
            image
        });
        // Graceful degradation: a caught task panic degrades only its own
        // stream (the merged object gets a deterministic error unit below)
        // and becomes an error diagnostic, so degraded compiles are never
        // cached. Executors report panics in completion order, which
        // varies run to run on the threaded executor; sort for
        // determinism.
        let mut panics = report.task_panics.clone();
        panics.sort();
        let mut errors: Vec<CompileError> = Vec::new();
        let mut degraded_diags: Vec<Diagnostic> = Vec::new();
        for (task, message) in &panics {
            errors.push(CompileError::StreamFault {
                task: task.clone(),
                message: message.clone(),
            });
            degraded_diags.push(Diagnostic {
                severity: Severity::Error,
                file: FileId(0),
                span: Span { lo: 0, hi: 0 },
                message: format!("stream degraded: task `{task}` panicked: {message}"),
            });
        }
        degraded_diags.sort_by(|a, b| a.message.cmp(&b.message));
        if !report.task_panics.is_empty() {
            if let Some(image) = image.as_mut() {
                for &name in code_names.values() {
                    if image.unit(name).is_some() {
                        continue;
                    }
                    let name_str = self.interner.resolve(name);
                    let level = if main_name == Some(name) { 0 } else { 1 };
                    let mut unit = CodeUnit::new(name, level);
                    let msg = self.interner.intern(&format!(
                        "degraded: stream `{name_str}` replaced after fault"
                    ));
                    unit.code = vec![Instr::PushStr(msg), Instr::Return];
                    image.units.push(unit);
                }
                let name = |s: Symbol| self.interner.as_str(s);
                image.units.sort_by(|a, b| name(a.name).cmp(name(b.name)));
            }
        }
        let mut diagnostics = self.sink.take();
        diagnostics.extend(degraded_diags);
        let incr = self.incr.as_ref().map(|incr| {
            let clean = !diagnostics.iter().any(|d| d.severity == Severity::Error);
            let recorded = clean.then_some(&diagnostics[..]);
            incr.finish(
                image.as_ref(),
                recorded,
                &code_names,
                &lock_keys,
                &def_streams,
                main_scope,
            )
        });
        let sema = &self.sema;
        ConcurrentOutput {
            image,
            diagnostics,
            stats: Arc::clone(sema.stats()),
            interner: Arc::clone(&self.interner),
            sources: Arc::clone(&self.sources),
            report,
            streams: 1 + imported_interfaces + procedures,
            procedures,
            imported_interfaces,
            import_nesting_depth,
            incr,
            locks,
            errors,
            interface_carry: self.incr.as_ref().and_then(Incremental::carry),
        }
    }
}

// ---- trait wiring ------------------------------------------------------

/// An owning handle: the splitter and importer speak to the driver
/// through `&dyn` traits, which need an owned `Arc` to spawn tasks.
struct DriverHandle(Arc<Driver>);

impl ImportSink for DriverHandle {
    fn import_found(&self, module: Symbol, depth: usize) {
        self.0.ensure_def_stream(module, depth);
    }
}

impl StreamFactory for DriverHandle {
    fn main_module_started(&self, name: Symbol, file: FileId) -> ScopeId {
        let scope = self
            .0
            .tables()
            .new_scope(ScopeKind::MainModule, name, None, file);
        let mut st = self.0.st.lock();
        st.scope_events.insert(scope, self.0.main_scope_event);
        st.main_scope = Some(scope);
        st.main_name = Some(name);
        scope
    }

    fn proc_stream(&self, name: Symbol, file: FileId, parent: ScopeId) -> (StreamId, TokenWriter) {
        let this = &self.0;
        let scope = this
            .tables()
            .new_scope(ScopeKind::Procedure, name, Some(parent), file);
        let name_str = this.interner.as_str(name);
        let scope_ev = this
            .env
            .new_event_named(EventClass::Handled, &format!("scope(proc {name_str})"));
        let heading_ev = this
            .env
            .new_event_named(EventClass::Avoided, &format!("heading({name_str})"));
        let (writer, q) = TokenQueue::channel(Arc::clone(&this.env), format!("proc({name_str})"));
        let writer = writer.resolving(Arc::clone(&this.holes));
        let (id, undeclared) = {
            let mut st = this.st.lock();
            let id = StreamId(st.next_stream);
            st.next_stream += 1;
            st.scope_events.insert(scope, scope_ev);
            st.heading_events.insert(scope, heading_ev);
            st.child_streams.entry(parent).or_default().push(scope);
            st.stream_scopes.insert(id, scope);
            st.procedures += 1;
            (id, st.declarations_done.contains(&parent))
        };
        if undeclared {
            // The parent's parse stopped short of this heading.
            this.env.signal(heading_ev);
        }
        // A stream that splices gets its `CacheSplice` when its carve
        // closes; nobody reads its queue.
        match &this.incr {
            Some(incr) => {
                let this = Arc::clone(this);
                let parse = move |()| this.spawn_proc_parse(scope, parent, name, q);
                incr.stream_created(id.0 as usize, scope, Box::new(parse));
            }
            None => this.spawn_proc_parse(scope, parent, name, q),
        }
        (id, writer)
    }

    fn scope_for(&self, stream: StreamId) -> Option<ScopeId> {
        self.0.st.lock().stream_scopes.get(&stream).copied()
    }

    /// Under incremental compilation, spawns the `CacheSplice` of a
    /// stream that splices, once the scopes of the streams nested in it
    /// exist.
    fn stream_carved(&self, stream: StreamId, heading: Span, full: Span) {
        let this = &self.0;
        let Some(incr) = &this.incr else {
            return;
        };
        let Some(scope) = this.st.lock().stream_scopes.get(&stream).copied() else {
            return;
        };
        let this = Arc::clone(this);
        let splice = move |splice: Splice| {
            let weight = splice.entry.unit.code.len() as u64;
            let name = this.tables().scope(scope).name();
            this.spawn_splice(name, weight, Some(scope), splice);
        };
        incr.stream_closed(stream.0 as usize, heading, full, Box::new(splice));
    }
}

/// The driver as its own `Sema`'s waiter and table notifier. Weak: the
/// driver owns the `Sema`, and a strong reference back would keep both
/// — and the executor, and everything the compile built — alive after
/// the compile for as long as the process runs.
struct DriverLink {
    driver: std::sync::Weak<Driver>,
    /// Only the Optimistic strategy waits on (and so creates) per-symbol
    /// events; under the others an insertion has nobody to tell.
    per_symbol_events: bool,
}

impl TableNotifier for DriverLink {
    fn scope_completed(&self, scope: ScopeId) {
        if let Some(driver) = self.driver.upgrade() {
            driver.scope_completed(scope);
        }
    }

    fn symbol_inserted(&self, scope: ScopeId, name: Symbol) {
        if !self.per_symbol_events {
            return;
        }
        if let Some(driver) = self.driver.upgrade() {
            driver.symbol_inserted(scope, name);
        }
    }
}

impl DkyWaiter for DriverLink {
    fn wait_scope_complete(&self, scope: ScopeId) {
        if let Some(driver) = self.driver.upgrade() {
            driver.wait_scope_complete(scope);
        }
    }

    fn wait_symbol(&self, scope: ScopeId, name: Symbol) {
        if let Some(driver) = self.driver.upgrade() {
            driver.wait_symbol(scope, name);
        }
    }
}

impl TableNotifier for Driver {
    fn scope_completed(&self, scope: ScopeId) {
        let (ev, symbol_evs) = {
            let st = self.st.lock();
            let ev = st.scope_events.get(&scope).copied();
            let evs: Vec<EventId> = st
                .symbol_events
                .iter()
                .filter(|((s, _), _)| *s == scope)
                .map(|(_, &e)| e)
                .collect();
            (ev, evs)
        };
        if let Some(e) = ev {
            self.env.signal(e);
        }
        // Optimistic handling: completing a table signals every unsignaled
        // per-symbol event (the "traverse and signal" sweep of §2.3.3).
        for e in symbol_evs {
            self.env.signal(e);
        }
    }

    fn symbol_inserted(&self, scope: ScopeId, name: Symbol) {
        let ev = self.st.lock().symbol_events.get(&(scope, name)).copied();
        if let Some(e) = ev {
            self.env.signal(e);
        }
    }
}

impl DkyWaiter for Driver {
    fn wait_scope_complete(&self, scope: ScopeId) {
        let ev = self.scope_event(scope);
        self.env.wait(ev);
    }

    fn wait_symbol(&self, scope: ScopeId, name: Symbol) {
        let ev = {
            let mut st = self.st.lock();
            *st.symbol_events
                .entry((scope, name))
                .or_insert_with(|| self.env.new_event(EventClass::Handled))
        };
        // Avoid lost wakeups: the symbol may have arrived (or the table
        // completed) before the event existed.
        let table = self.tables().scope(scope);
        if table.is_complete() || table.get(name).is_some() {
            self.env.signal(ev);
        }
        // Hint: whoever completes the scope also resolves this symbol
        // event, so "run the resolver" scheduling works for the
        // dynamically created per-symbol events too.
        self.env.wait_hinted(ev, Some(self.scope_event(scope)));
    }
}

/// Statement count at which a unit's code-generation task is classified
/// *long*, and so scheduled before short ones (§2.3.4).
const LONG_UNIT_STATEMENTS: u64 = 40;

/// The code-generation task kind of a unit of `weight` statements.
fn codegen_kind(weight: u64) -> TaskKind {
    if weight >= LONG_UNIT_STATEMENTS {
        TaskKind::LongCodeGen
    } else {
        TaskKind::ShortCodeGen
    }
}

/// The scope [`Driver::import_scopes`] found for module `name`.
fn scope_of(mapping: &[(Symbol, ScopeId)], name: Symbol) -> Option<ScopeId> {
    let found = mapping.iter().find(|(module, _)| *module == name);
    found.map(|&(_, scope)| scope)
}

struct DriverHooks<'a> {
    driver: &'a Arc<Driver>,
}

impl DeclareHooks for DriverHooks<'_> {
    fn scope_for_stream(&self, stream: StreamId) -> ScopeId {
        if let Some(&scope) = self.driver.st.lock().stream_scopes.get(&stream) {
            return scope;
        }
        // A token stream with no registered scope is a splitter bug, but
        // the worker can survive it: report an internal error and park
        // the stream's declarations in a detached scope. The scope is
        // memoized so repeated calls stay consistent.
        self.driver.sink.report(Diagnostic::error(
            FileId(0),
            Span { lo: 0, hi: 0 },
            format!(
                "internal error: token stream {} has no registered scope",
                stream.0
            ),
        ));
        let scope = self.driver.tables().new_scope(
            ScopeKind::Procedure,
            self.driver.interner.intern("<unregistered-stream>"),
            None,
            FileId(0),
        );
        self.driver.st.lock().stream_scopes.insert(stream, scope);
        scope
    }

    fn heading_done(&self, scope: ScopeId, code_name: Symbol, sig: &ProcSig) {
        let ev = {
            let mut st = self.driver.st.lock();
            st.heading_info.insert(scope, (code_name, sig.clone()));
            st.heading_events.get(&scope).copied()
        };
        if let Some(e) = ev {
            self.driver.env.signal(e);
        }
    }
}
