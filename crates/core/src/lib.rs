//! `ccm2` — a concurrent compiler for Modula-2+.
//!
//! A from-scratch Rust reproduction of *A Concurrent Compiler for
//! Modula-2+* (David B. Wortman and Michael D. Junkin, PLDI 1992). The
//! compiler splits the source program into separately compilable
//! **streams** — the main module body, one stream per procedure (found by
//! a token-level [`splitter`]), and one per directly or indirectly
//! imported definition module (found by the [`importer`]) — and compiles
//! them concurrently under the Supervisors scheduler of
//! [`ccm2_sched`], resolving the *Doesn't-Know-Yet* symbol-table problem
//! with any of the paper's four strategies. Per-procedure object code is
//! merged by concatenation at the end (late merge, §2.1).
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use ccm2::{compile_concurrent, Options};
//! use ccm2_support::defs::DefLibrary;
//! use ccm2_support::Interner;
//!
//! let out = compile_concurrent(
//!     "MODULE Hello; \
//!      PROCEDURE Greet; BEGIN WriteString('hello, concurrent world') END Greet; \
//!      BEGIN Greet; WriteLn END Hello.",
//!     Arc::new(DefLibrary::new()),
//!     Arc::new(Interner::new()),
//!     Options::threads(2),
//! );
//! assert!(out.is_ok(), "{:?}", out.diagnostics);
//! assert_eq!(out.procedures, 1);
//! assert_eq!(out.streams, 2, "main module + one procedure stream");
//! ```

pub mod driver;
pub mod importer;
mod incremental;
pub mod queue;
pub mod splitter;

pub use ccm2_analysis::LockStats;
pub use driver::{compile_concurrent, CompileError, ConcurrentOutput, Executor, Options};
pub use incremental::InterfaceCarry;
pub use queue::{StreamCursor, TokenQueue, TokenWriter, BLOCK_SIZE};
pub use splitter::{run_splitter, SplitReport, StreamFactory};
