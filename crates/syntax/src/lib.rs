//! Modula-2+ frontend: tokens, lexer and recursive-descent parser.
//!
//! The concurrent compiler of Wortman & Junkin (PLDI 1992) relies on one
//! property of the language surface: *reserved words determine lexical
//! structure* (paper §1). That property is what allows the source program
//! to be partitioned into separately compilable streams during lexical
//! analysis, before any parsing happens. This crate provides:
//!
//! * [`token`] — the token model, including the reserved-word table and the
//!   special [`token::TokenKind::ProcStub`] token that the splitter leaves
//!   in a parent stream where a procedure body was excised;
//! * [`lexer`] — the lexer, in two steps: [`lexer::Lexer`] scans tokens
//!   with their kinds and spans, [`lexer::Names`] names their identifiers
//!   and strings (the concurrent compiler streams them in fixed-size
//!   blocks, matching the paper's lexical-token queue whose per-block
//!   events are the *barrier events* of §2.3.3);
//! * [`ast`] — the abstract syntax tree for definition modules,
//!   implementation modules, declarations, statements and expressions;
//! * [`parser`] — a recursive-descent parser over token slices. The same
//!   parser serves the sequential compiler (whole file) and the concurrent
//!   compiler (per-stream token sequences with stubs).
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use ccm2_support::{Interner, SourceMap, DiagnosticSink};
//! use ccm2_syntax::lexer::lex_file;
//! use ccm2_syntax::parser::parse_implementation;
//!
//! let interner = Arc::new(Interner::new());
//! let map = SourceMap::new();
//! let file = map.add("M.mod", "IMPLEMENTATION MODULE M; BEGIN END M.");
//! let sink = DiagnosticSink::new();
//! let tokens = lex_file(&file, &interner, &sink);
//! let module = parse_implementation(&tokens, &interner, &sink).expect("parses");
//! assert_eq!(interner.resolve(module.name.name), "M");
//! assert!(!sink.has_errors());
//! ```

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod token;

pub use lexer::{lex_file, Lexer, Names};
pub use token::{Token, TokenKind};
