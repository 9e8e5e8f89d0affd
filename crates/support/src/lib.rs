//! Support utilities shared by every crate in the `ccm2` workspace.
//!
//! This crate is deliberately dependency-free. It provides:
//!
//! * [`arena`] — an append-only arena whose reads take no lock, the
//!   storage of every registry that only grows during a compilation
//!   (interned strings, types, scope tables, scheduler events);
//! * [`envelope`] — the one checksummed `magic · version · payload ·
//!   Fp128` envelope and bounds-checked cursor pair behind every
//!   `CCM2*` on-disk and wire format;
//! * [`hash`] — the stable 128-bit digest under every fingerprint,
//!   envelope trailer and ring point (eight bytes a step, two lanes),
//!   and the fixed-seed `BuildHasher` over the same kernel;
//! * [`imagedir`] — directories of whole-state images: atomic write,
//!   newest-valid-wins load, quarantine, newest-plus-one retention;
//! * [`intern`] — a thread-safe string interner producing copyable
//!   [`intern::Symbol`] handles, used for every identifier the compiler
//!   touches (concurrent symbol-table search compares interned handles,
//!   never strings);
//! * [`source`] — source text management: [`source::SourceFile`],
//!   byte-offset [`source::Span`]s and line/column resolution;
//! * [`diag`] — structured diagnostics ([`diag::Diagnostic`]) and a
//!   thread-safe [`diag::DiagnosticSink`] so concurrently running compiler
//!   tasks can report errors without interleaving;
//! * [`ids`] — small strongly-typed index newtypes and a typed id
//!   generator used for streams, scopes, tasks and events;
//! * [`within`] — the hang guard: a run that is not done in time fails
//!   its caller instead of hanging it.
//!
//! # Examples
//!
//! ```
//! use ccm2_support::intern::Interner;
//!
//! let interner = Interner::new();
//! let a = interner.intern("WriteInt");
//! let b = interner.intern("WriteInt");
//! assert_eq!(a, b);
//! assert_eq!(interner.resolve(a), "WriteInt");
//! ```

pub mod arena;
pub mod defs;
pub mod diag;
pub mod envelope;
pub mod hash;
pub mod ids;
pub mod imagedir;
pub mod intern;
pub mod source;
pub mod work;

pub use arena::AppendArena;
pub use defs::{DefLibrary, DefProvider};
pub use diag::{Diagnostic, DiagnosticSink, Severity};
pub use hash::{Fp128, StableHasher};
pub use intern::{Interner, Symbol};
pub use source::{LineCol, SourceFile, SourceMap, Span};
pub use work::{NullMeter, Work, WorkMeter};

/// Runs `run` on a thread of its own and fails the caller, instead of
/// hanging it, if no result has come back within `limit`. A panic in
/// `run` is re-raised on the caller's thread.
pub fn within<T: Send + 'static>(
    limit: std::time::Duration,
    run: impl FnOnce() -> T + Send + 'static,
) -> T {
    use std::sync::mpsc::RecvTimeoutError;
    let (done, result) = std::sync::mpsc::channel();
    let runner = std::thread::spawn(move || {
        let _ = done.send(run());
    });
    match result.recv_timeout(limit) {
        Ok(out) => {
            let _ = runner.join();
            out
        }
        Err(RecvTimeoutError::Timeout) => panic!("hung: not done in {limit:?}"),
        // The run panicked before sending: that panic is the failure.
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(runner.join().expect_err("the run sent no result"))
        }
    }
}
