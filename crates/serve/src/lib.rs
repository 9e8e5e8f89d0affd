//! `ccm2-serve` — a batched compile service over the concurrent
//! compiler.
//!
//! The paper's Supervisors scheduler compiles *one* program's streams
//! concurrently; this crate grows that into the multi-tenant layer the
//! ROADMAP's north-star asks for: a long-lived service that accepts
//! batches of compile requests from many clients and serves them from a
//! bounded worker pool fronting one shared, size-bounded artifact
//! store.
//!
//! The pieces, bottom-up:
//!
//! * [`SharedStore`] — an [`ccm2_incr::ArtifactStore`] with a byte
//!   budget, strict LRU admission (occupancy never exceeds the budget,
//!   not even transiently) and hit/miss/insertion/eviction counters.
//!   Because the cache is content-addressed and the compiler's output
//!   is strategy- and executor-independent, one store safely serves
//!   every request mix.
//! * [`CompileRequest`] / [`CompileOutcome`] / [`Response`] — a
//!   self-contained request (source + interfaces + DKY strategy +
//!   executor + analysis flag), its fingerprint (the single-flight
//!   key), and the per-request report (object bytes, rendered
//!   diagnostics, cache counters, virtual/wall cost).
//! * [`CompileService`] — the worker pool: bounded queue with
//!   load-shedding ([`Submission::Shed`] / [`Response::Retry`]),
//!   single-flight deduplication that holds over time (identical
//!   requests compile once: those in flight together fan out from one
//!   compile, and one that arrives after the flight has landed is
//!   answered by lookup on its own thread while the answer is inside
//!   the landed budget), a batch API, and pause/resume hooks for
//!   deterministic tests.
//! * [`SnapshotStore`] — crash-safe restart: checksummed, versioned
//!   images of the shared store written with temp-file + atomic-rename,
//!   so [`CompileService::restore`] can bring a new service up with the
//!   cache (and its LRU order) of a killed one; torn images are
//!   quarantined and recovery falls back to the last good image.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use ccm2_serve::{CompileRequest, CompileService, ServeConfig};
//! use ccm2_support::defs::DefLibrary;
//!
//! let svc = CompileService::start(ServeConfig::default());
//! let req = CompileRequest::new(
//!     7,
//!     "Hello",
//!     "MODULE Hello; BEGIN WriteLn END Hello.",
//!     Arc::new(DefLibrary::new()),
//! );
//! let responses = svc.serve_batch(vec![req.clone(), req.clone()]);
//! let first = responses[0].outcome().expect("served");
//! assert!(first.ok);
//! // Both clients got the same outcome from a single compile.
//! assert_eq!(svc.stats().compiled, 1);
//! assert_eq!(svc.stats().joined, 1);
//! // So does a client that asks after the answer was delivered.
//! let later = svc.serve_batch(vec![req]);
//! assert!(std::sync::Arc::ptr_eq(first, later[0].outcome().expect("served")));
//! assert_eq!(svc.stats().compiled, 1);
//! assert_eq!(svc.stats().replayed, 1);
//! ```

pub mod request;
pub mod service;
pub mod snapshot;
pub mod store;

pub use request::{CompileOutcome, CompileRequest, ExecChoice, Response};
pub use service::{CompileService, ServeConfig, ServiceStats, Submission, Ticket};
pub use snapshot::{
    decode_snapshot, encode_snapshot, SnapshotImage, SnapshotStore, SNAPSHOT_FORMAT,
};
pub use store::{SharedStore, StoreStats};
