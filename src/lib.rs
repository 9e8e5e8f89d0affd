//! `ccm2-repro` — the workspace facade for the reproduction of
//! *A Concurrent Compiler for Modula-2+* (Wortman & Junkin, PLDI 1992).
//!
//! This crate exists to host the runnable examples (`examples/`) and the
//! cross-crate integration tests (`tests/`); it re-exports the pieces a
//! downstream user would touch. The real work lives in the member crates:
//!
//! | crate | role |
//! |---|---|
//! | [`ccm2`] | the concurrent compiler (splitter, importer, driver) |
//! | [`ccm2_seq`] | the sequential baseline compiler |
//! | [`ccm2_syntax`] | lexer, token model, parser |
//! | [`ccm2_sema`] | types, concurrent symbol tables, DKY strategies |
//! | [`ccm2_codegen`] | M-code generation and late merge |
//! | [`ccm2_vm`] | interpreter for merged images |
//! | [`ccm2_sched`] | Supervisors scheduler: threads + virtual-time sim |
//! | [`ccm2_workload`] | test-suite and `Synth.mod` generators |
//!
//! # Examples
//!
//! Compile and run a program, concurrently:
//!
//! ```
//! use std::sync::Arc;
//! use ccm2_repro::prelude::*;
//!
//! let out = compile_concurrent(
//!     "MODULE Hi; BEGIN WriteInt(6 * 7, 0) END Hi.",
//!     Arc::new(DefLibrary::new()),
//!     Arc::new(Interner::new()),
//!     Options::threads(2),
//! );
//! assert!(out.is_ok());
//! let text = Vm::new(out.interner.clone())
//!     .run(out.image.as_ref().expect("image"))
//!     .expect("runs");
//! assert_eq!(text, "42");
//! ```

pub use ccm2;
pub use ccm2_codegen;
pub use ccm2_sched;
pub use ccm2_sema;
pub use ccm2_seq;
pub use ccm2_support;
pub use ccm2_syntax;
pub use ccm2_vm;
pub use ccm2_workload;

/// The names most programs need.
pub mod prelude {
    pub use ccm2::{compile_concurrent, ConcurrentOutput, Executor, Options};
    pub use ccm2_sched::SimConfig;
    pub use ccm2_sema::declare::HeadingMode;
    pub use ccm2_sema::symtab::DkyStrategy;
    pub use ccm2_seq::compile as compile_sequential;
    pub use ccm2_support::defs::{DefLibrary, DefProvider};
    pub use ccm2_support::Interner;
    pub use ccm2_vm::Vm;
    pub use ccm2_workload::{generate, GenParams};
}

/// README.md's Rust blocks, run by `cargo test --doc` so the front page
/// cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
