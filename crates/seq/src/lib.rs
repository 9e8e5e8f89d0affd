//! The conventional sequential Modula-2+ compiler.
//!
//! This is the paper's baseline (§4.2): a traditional single-threaded
//! compiler built from exactly the same frontend, semantic-analysis and
//! code-generation substrates as the concurrent compiler, in the classic
//! phase order — lex, parse, process imports depth-first, declare, then
//! generate code. On one processor the *concurrent* compiler was measured
//! to be 4.3% slower than this baseline because of its concurrency
//! scaffolding; the `overhead` experiment regenerates that comparison.
//!
//! Because the substrates are shared, the sequential compiler also serves
//! as the *oracle* in the equivalence tests: for every input the
//! concurrent compiler must produce the identical [`ModuleImage`] and
//! identical diagnostics.
//!
//! # Examples
//!
//! ```
//! use ccm2_seq::{compile, DefLibrary};
//!
//! let lib = DefLibrary::new();
//! let out = compile(
//!     "MODULE Hello; BEGIN WriteString('hi'); WriteLn END Hello.",
//!     &lib,
//! );
//! assert!(out.diagnostics.is_empty());
//! assert!(out.image.is_some());
//! ```

use std::collections::HashMap;
use std::sync::Arc;

pub use ccm2_support::defs::{DefLibrary, DefProvider};

use ccm2_codegen::emit::{gen_error_unit, gen_module_body, gen_procedure, global_shapes};
use ccm2_codegen::merge::{Merger, ModuleImage};
use ccm2_sema::declare::{
    bind_imports, child_heading, declare_decls, DeclareHooks, HeadingMode, PendingProc,
};
use ccm2_sema::stats::LookupStats;
use ccm2_sema::symtab::{DkyStrategy, NullWaiter, ScopeKind};
use ccm2_sema::Sema;
use ccm2_support::diag::{Diagnostic, DiagnosticSink};
use ccm2_support::ids::ScopeId;
use ccm2_support::intern::{Interner, Symbol};
use ccm2_support::source::SourceMap;
use ccm2_support::work::{NullMeter, Work, WorkMeter};
use ccm2_syntax::ast::{DefinitionModule, ProcBody};
use ccm2_syntax::lexer::lex_file;
use ccm2_syntax::parser::{parse_definition, parse_implementation};

/// The result of a sequential compilation.
#[derive(Debug)]
pub struct CompileOutput {
    /// The merged object image (`None` only if the module header itself
    /// was unparseable).
    pub image: Option<ModuleImage>,
    /// Sorted diagnostics.
    pub diagnostics: Vec<Diagnostic>,
    /// Identifier-lookup statistics.
    pub stats: Arc<LookupStats>,
    /// The interner used (needed to run the image in the VM).
    pub interner: Arc<Interner>,
    /// Source registry (for mapping diagnostics to file names).
    pub sources: Arc<SourceMap>,
    /// Number of definition modules processed (directly or indirectly
    /// imported — Table 1's "Imported Interfaces").
    pub imported_interfaces: usize,
    /// Maximum import nesting depth (Table 1).
    pub import_nesting_depth: usize,
    /// Number of procedures compiled.
    pub procedures: usize,
    /// What the interprocedural lock-order pass did (`None` unless the
    /// analysis phase ran).
    pub locks: Option<ccm2_analysis::LockStats>,
}

impl CompileOutput {
    /// Whether compilation succeeded without errors.
    pub fn is_ok(&self) -> bool {
        self.image.is_some()
            && !self
                .diagnostics
                .iter()
                .any(|d| d.severity == ccm2_support::diag::Severity::Error)
    }
}

/// Compiles `main_source` with default options (shared substrates, the
/// paper's §2.4 alternative-1 heading mode).
pub fn compile(main_source: &str, defs: &dyn DefProvider) -> CompileOutput {
    compile_with(
        main_source,
        defs,
        Arc::new(Interner::new()),
        Arc::new(NullMeter),
        HeadingMode::CopyToChild,
    )
}

/// Compiles with explicit interner, work meter and §2.4 heading mode.
///
/// Passing a shared interner lets callers compare the resulting image
/// against another compiler's output symbol-for-symbol.
pub fn compile_with(
    main_source: &str,
    defs: &dyn DefProvider,
    interner: Arc<Interner>,
    meter: Arc<dyn WorkMeter>,
    heading_mode: HeadingMode,
) -> CompileOutput {
    compile_full(main_source, defs, interner, meter, heading_mode, false)
}

/// [`compile_with`], plus the opt-in analysis phase: when `analyze` is
/// set, the [`ccm2_analysis`] dataflow lints run in phase order (after
/// declaration analysis, before code generation) over the module unit
/// and every procedure unit, and the unused-import check runs over the
/// union of the units' used-name sets. The concurrent driver runs the
/// identical passes as `Analyze` tasks; diagnostics are byte-identical.
pub fn compile_full(
    main_source: &str,
    defs: &dyn DefProvider,
    interner: Arc<Interner>,
    meter: Arc<dyn WorkMeter>,
    heading_mode: HeadingMode,
    analyze: bool,
) -> CompileOutput {
    let sink = Arc::new(DiagnosticSink::new());
    let sema = Sema::new(
        Arc::clone(&interner),
        Arc::clone(&sink),
        // Sequentially, every table is complete before it is searched, so
        // the strategy never matters; Skeptical is the house default.
        DkyStrategy::Skeptical,
        Arc::new(NullWaiter),
        Arc::clone(&meter),
    );
    let sources = Arc::new(SourceMap::new());

    // ---- front end for the implementation module -----------------------
    let main_file = sources.add("Main.mod", main_source);
    let tokens = lex_file(&main_file, &interner, &sink);
    meter.charge(Work::Lex, tokens.len() as u64);
    meter.charge(Work::Parse, tokens.len() as u64);
    let Some(module) = parse_implementation(&tokens, &interner, &sink) else {
        return CompileOutput {
            image: None,
            diagnostics: sink.take(),
            stats: Arc::clone(sema.stats()),
            interner,
            sources,
            imported_interfaces: 0,
            import_nesting_depth: 0,
            procedures: 0,
            locks: None,
        };
    };

    // ---- imports, depth-first (definition modules form a tree; §4.4) ----
    let mut loader = DefLoader {
        sema: &sema,
        defs,
        sources: &sources,
        sink: &sink,
        meter: meter.as_ref(),
        scopes: HashMap::new(),
        max_depth: 0,
        heading_mode,
    };
    for imp in &module.imports {
        loader.load(imp.module().name, 1);
    }
    let def_scopes: HashMap<Symbol, ScopeId> = loader.scopes.clone();
    let imported_interfaces = def_scopes.len();
    let import_nesting_depth = loader.max_depth;

    // ---- main module: declare, then generate -----------------------------
    let main_scope = sema.tables.new_scope(
        ScopeKind::MainModule,
        module.name.name,
        None,
        main_file.id(),
    );
    bind_imports(&sema, main_scope, &module.imports, &|name| {
        def_scopes.get(&name).copied()
    });
    let hooks = SeqHooks;
    let pending = declare_decls(&sema, main_scope, &module.decls, heading_mode, &hooks);
    sema.tables.mark_complete(main_scope);
    // Declare all procedure scopes (recursively) before generating any
    // code: the same "declarations first" discipline the concurrent
    // compiler gets from its task ordering, and what makes forward calls
    // between procedures compile identically under both compilers.
    let mut all_procs: Vec<PendingProc> = Vec::new();
    let mut queue = pending;
    while let Some(p) = queue.pop() {
        if let ProcBody::Local(local) = &p.body {
            child_heading(&sema, heading_mode, p.scope, &p.heading);
            let nested = declare_decls(&sema, p.scope, &local.decls, heading_mode, &hooks);
            sema.tables.mark_complete(p.scope);
            queue.extend(nested);
        }
        all_procs.push(p);
    }

    // ---- analysis phase (opt-in dataflow lints) --------------------------
    let mut locks = None;
    if analyze {
        let ua = ccm2_analysis::analyze_unit(
            &interner,
            main_file.id(),
            &interner.resolve(module.name.name),
            ccm2_analysis::UnitKind::Module,
            &module.decls,
            &module.body,
            &sink,
        );
        meter.charge(Work::Analyze, ua.work);
        let mut used = ua.used;
        let mut summaries = vec![ua.summary];
        for p in &all_procs {
            if let ProcBody::Local(local) = &p.body {
                let ua = ccm2_analysis::analyze_unit(
                    &interner,
                    main_file.id(),
                    &interner.resolve(p.code_name),
                    ccm2_analysis::UnitKind::Procedure,
                    &local.decls,
                    &local.body,
                    &sink,
                );
                meter.charge(Work::Analyze, ua.work);
                used.extend(ua.used);
                summaries.push(ua.summary);
            }
        }
        ccm2_analysis::check_unused_imports(
            &interner,
            main_file.id(),
            &module.imports,
            &used,
            &sink,
        );
        // Interprocedural lock-order pass: summaries in phase order here;
        // the concurrent driver collects the identical set through its
        // AnalysisHub, and the pass sorts internally, so the diagnostics
        // match byte for byte.
        let (lock_diags, lock_stats) = ccm2_analysis::lock_order_pass(&summaries, main_file.id());
        for d in lock_diags {
            sink.report(d);
        }
        locks = Some(lock_stats);
    }

    // ---- code generation + merge -----------------------------------------
    let merger = Merger::new(module.name.name, Arc::clone(&interner));
    merger.add_globals(module.name.name, global_shapes(&sema, main_scope));
    for (&name, &scope) in &def_scopes {
        merger.add_globals(name, global_shapes(&sema, scope));
    }
    let mut procedures = 0usize;
    for p in &all_procs {
        if let ProcBody::Local(local) = &p.body {
            let unit = if local.poisoned {
                let level = sema.tables.scope(p.scope).level();
                gen_error_unit(&interner, p.code_name, level)
            } else {
                gen_procedure(&sema, p.scope, p.code_name, &p.sig, &local.body)
            };
            merger.add_unit(unit, meter.as_ref());
            procedures += 1;
        }
    }
    let body_unit = if module.body_poisoned {
        gen_error_unit(&interner, module.name.name, 0)
    } else {
        gen_module_body(&sema, main_scope, module.name.name, &module.body)
    };
    merger.add_unit(body_unit, meter.as_ref());

    CompileOutput {
        image: Some(merger.finish()),
        diagnostics: sink.take(),
        stats: Arc::clone(sema.stats()),
        interner,
        sources,
        imported_interfaces,
        import_nesting_depth,
        procedures,
        locks,
    }
}

struct SeqHooks;

impl DeclareHooks for SeqHooks {
    fn scope_for_stream(&self, stream: ccm2_support::ids::StreamId) -> ScopeId {
        unreachable!("sequential compilation produced a remote body for {stream}");
    }
    fn heading_done(&self, _scope: ScopeId, _code_name: Symbol, _sig: &ccm2_sema::symtab::ProcSig) {
    }
}

struct DefLoader<'a> {
    sema: &'a Sema,
    defs: &'a dyn DefProvider,
    sources: &'a SourceMap,
    sink: &'a DiagnosticSink,
    meter: &'a dyn WorkMeter,
    scopes: HashMap<Symbol, ScopeId>,
    max_depth: usize,
    heading_mode: HeadingMode,
}

impl<'a> DefLoader<'a> {
    /// Loads (once) the definition module `name` and everything it
    /// imports, post-order, so every interface is declared before its
    /// importers are.
    fn load(&mut self, name: Symbol, depth: usize) -> Option<ScopeId> {
        self.max_depth = self.max_depth.max(depth);
        if let Some(&scope) = self.scopes.get(&name) {
            return Some(scope);
        }
        let name_str = self.sema.interner.resolve(name);
        let Some(text) = self.defs.definition_source(&name_str) else {
            // Reported at the importing site by bind_imports.
            return None;
        };
        let file = self.sources.add(format!("{name_str}.def"), text);
        let tokens = lex_file(&file, &self.sema.interner, self.sink);
        self.meter.charge(Work::Lex, tokens.len() as u64);
        self.meter.charge(Work::Import, tokens.len() as u64 / 8);
        self.meter.charge(Work::Parse, tokens.len() as u64);
        let parsed: Option<DefinitionModule> =
            parse_definition(&tokens, &self.sema.interner, self.sink);
        let def = parsed?;
        if def.name.name != name {
            self.sink.report(Diagnostic::error(
                file.id(),
                def.name.span,
                format!(
                    "definition file for `{name_str}` declares module `{}`",
                    self.sema.interner.resolve(def.name.name)
                ),
            ));
        }
        // Imports of this interface, depth-first (the "once-only" table of
        // §3 is the `scopes` map).
        for imp in &def.imports {
            self.load(imp.module().name, depth + 1);
        }
        let scope = self
            .sema
            .tables
            .new_scope(ScopeKind::DefModule, name, None, file.id());
        self.scopes.insert(name, scope);
        let import_scopes = self.scopes.clone();
        bind_imports(self.sema, scope, &def.imports, &|n| {
            import_scopes.get(&n).copied()
        });
        declare_decls(self.sema, scope, &def.decls, self.heading_mode, &SeqHooks);
        self.sema.tables.mark_complete(scope);
        Some(scope)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_world_compiles() {
        let out = compile(
            "MODULE Hello; BEGIN WriteString('hello'); WriteLn END Hello.",
            &DefLibrary::new(),
        );
        assert!(out.is_ok(), "{:?}", out.diagnostics);
        let img = out.image.expect("image");
        assert_eq!(img.units.len(), 1, "just the module body");
    }

    #[test]
    fn procedures_become_units() {
        let out = compile(
            "MODULE M; \
             VAR g : INTEGER; \
             PROCEDURE Add(a, b : INTEGER) : INTEGER; BEGIN RETURN a + b END Add; \
             PROCEDURE Twice(x : INTEGER) : INTEGER; BEGIN RETURN Add(x, x) END Twice; \
             BEGIN g := Twice(21) END M.",
            &DefLibrary::new(),
        );
        assert!(out.is_ok(), "{:?}", out.diagnostics);
        let img = out.image.expect("image");
        assert_eq!(img.units.len(), 3);
        assert_eq!(out.procedures, 2);
    }

    #[test]
    fn imports_processed_recursively() {
        let mut lib = DefLibrary::new();
        lib.insert("Base", "DEFINITION MODULE Base; CONST K = 3; END Base.");
        lib.insert(
            "Mid",
            "DEFINITION MODULE Mid; FROM Base IMPORT K; CONST L = K * 2; END Mid.",
        );
        let out = compile(
            "MODULE M; IMPORT Mid; VAR x : INTEGER; BEGIN x := Mid.L END M.",
            &lib,
        );
        assert!(out.is_ok(), "{:?}", out.diagnostics);
        assert_eq!(out.imported_interfaces, 2, "Mid and (indirectly) Base");
        assert_eq!(out.import_nesting_depth, 2);
    }

    #[test]
    fn missing_definition_module_reports() {
        let out = compile("MODULE M; IMPORT Ghost; BEGIN END M.", &DefLibrary::new());
        assert!(!out.is_ok());
        assert!(out.diagnostics.iter().any(|d| d.message.contains("Ghost")));
    }

    #[test]
    fn undeclared_identifier_reports() {
        let out = compile("MODULE M; BEGIN x := 1 END M.", &DefLibrary::new());
        assert!(!out.is_ok());
    }

    #[test]
    fn type_error_reports() {
        let out = compile(
            "MODULE M; VAR b : BOOLEAN; BEGIN b := 3 END M.",
            &DefLibrary::new(),
        );
        assert!(!out.is_ok());
    }
}
