//! Semantic analysis for the concurrent Modula-2+ compiler.
//!
//! This crate implements the parts of the paper (Wortman & Junkin, PLDI
//! 1992) that concern meaning rather than scheduling:
//!
//! * [`types`] — the type representation and compatibility rules;
//! * [`symtab`] — one symbol table per scope of declaration, the
//!   three-outcome concurrent search (found / not-found / *Doesn't Know
//!   Yet*) and all four DKY strategies of §2.2;
//! * [`builtins`] — pervasive names treated as local to every scope
//!   (§2.2's builtin-name optimization);
//! * [`stats`] — the Table 2 identifier-lookup statistics;
//! * [`consteval`] — constant-expression evaluation;
//! * [`declare`] — declaration analysis, including the §2.4
//!   procedure-heading information-flow alternatives;
//! * [`interface`] — a definition module's completed scope as data, to
//!   install in another compile instead of parsing the module again.
//!
//! Everything here is scheduler-agnostic: blocking on incomplete tables
//! goes through the [`symtab::DkyWaiter`] trait, and work is charged to a
//! [`ccm2_support::work::WorkMeter`], so the same code runs under the
//! sequential compiler, the threaded Supervisors executor, and the
//! virtual-time multiprocessor simulation.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use ccm2_support::{DiagnosticSink, Interner, NullMeter};
//! use ccm2_support::source::FileId;
//! use ccm2_sema::{Sema, symtab::{DkyStrategy, NullWaiter, ScopeKind}};
//!
//! let interner = Arc::new(Interner::new());
//! let sink = Arc::new(DiagnosticSink::new());
//! let sema = Sema::new(
//!     Arc::clone(&interner),
//!     sink,
//!     DkyStrategy::Skeptical,
//!     Arc::new(NullWaiter),
//!     Arc::new(NullMeter),
//! );
//! let scope = sema.tables.new_scope(
//!     ScopeKind::MainModule,
//!     interner.intern("M"),
//!     None,
//!     FileId(0),
//! );
//! sema.tables.mark_complete(scope);
//! assert!(sema.resolver.lookup(scope, interner.intern("TRUE")).is_some());
//! ```

pub mod builtins;
pub mod consteval;
pub mod declare;
pub mod interface;
pub mod stats;
pub mod symtab;
pub mod types;
pub mod value;

use std::sync::Arc;

use ccm2_support::diag::DiagnosticSink;
use ccm2_support::intern::Interner;
use ccm2_support::work::WorkMeter;

use builtins::BuiltinTable;
use stats::LookupStats;
use symtab::{DkyStrategy, DkyWaiter, Resolver, SymbolTables};
use types::{Type, TypeId, TypeStore};

/// The shared semantic-analysis context for one compilation.
///
/// All fields are thread-safe; one `Sema` is shared (via `Arc`) by every
/// concurrently running compiler task.
pub struct Sema {
    /// The identifier interner.
    pub interner: Arc<Interner>,
    /// The type arena.
    pub types: Arc<TypeStore>,
    /// All scope symbol tables.
    pub tables: Arc<SymbolTables>,
    /// The strategy-aware symbol search engine.
    pub resolver: Resolver,
    /// Where diagnostics go.
    pub sink: Arc<DiagnosticSink>,
    /// Work charging for the virtual-time cost model.
    pub meter: Arc<dyn WorkMeter>,
}

impl std::fmt::Debug for Sema {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Sema(strategy = {}, scopes = {})",
            self.resolver.strategy().name(),
            self.tables.len()
        )
    }
}

impl Sema {
    /// Creates a fresh context with the given DKY strategy and blocking
    /// interface.
    pub fn new(
        interner: Arc<Interner>,
        sink: Arc<DiagnosticSink>,
        strategy: DkyStrategy,
        waiter: Arc<dyn DkyWaiter>,
        meter: Arc<dyn WorkMeter>,
    ) -> Sema {
        let types = Arc::new(TypeStore::new());
        let tables = Arc::new(SymbolTables::new());
        let builtins = Arc::new(BuiltinTable::new(&interner));
        let stats = Arc::new(LookupStats::new());
        let resolver = Resolver::new(
            Arc::clone(&tables),
            builtins,
            stats,
            strategy,
            waiter,
            Arc::clone(&meter),
        );
        Sema {
            interner,
            types,
            tables,
            resolver,
            sink,
            meter,
        }
    }

    /// The pointee of pointer type `ptr` (`None` for any other type). A
    /// `POINTER TO Name` stays pending until the declaration part that
    /// wrote it ends, while procedure-body streams may already compile
    /// against it: meeting a pending pointee is a DKY blockage — wait for
    /// the declaring scope to complete, then re-read.
    pub fn pointee(&self, ptr: TypeId) -> Option<TypeId> {
        let read = || match *self.types.get(ptr) {
            Type::Pointer { to } => Some(to),
            _ => None,
        };
        let to = read()?;
        if to != TypeId::PENDING {
            return Some(to);
        }
        if let Some(owner) = self.types.pending_owner(ptr) {
            self.resolver.wait_complete(owner);
        }
        read()
    }

    /// The lookup statistics gathered so far (Table 2).
    pub fn stats(&self) -> &Arc<LookupStats> {
        self.resolver.stats()
    }
}
