//! Compile requests and per-request outcomes.
//!
//! A [`CompileRequest`] is everything the service needs to reproduce a
//! compilation bit-for-bit: the module source, its interface library,
//! the DKY strategy, the executor, and the analysis flag. Its
//! [`fingerprint`](CompileRequest::fingerprint) is the single-flight
//! deduplication key: two requests with equal fingerprints are
//! guaranteed to produce identical outcomes, so the service compiles
//! one and fans the result out to both.
//!
//! The key deliberately covers strategy and executor even though the
//! object image is provably identical across them (the equivalence
//! tests check this): requests differing only in strategy still differ
//! in their *reports* (virtual cost, task counts), so folding them
//! together would hand a client a report for a configuration it did not
//! ask for. Sharing still happens where it is safe — at the artifact
//! level, in the service's [`MemStore`](ccm2_incr::MemStore), whose content
//! addresses ignore strategy and executor entirely.
//!
//! A request is its inputs and nothing else. A task panic ends its
//! compile: it unwinds to the service's worker and is answered as a
//! panicked compile.

use std::sync::Arc;

use ccm2::{Executor, Options};
use ccm2_incr::IncrStats;
use ccm2_sched::sim::SimConfig;
use ccm2_sema::symtab::DkyStrategy;
use ccm2_support::defs::DefLibrary;
use ccm2_support::hash::{Fp128, StableHasher};

/// Which executor a request asks for, in a form that can be hashed and
/// compared (the driver's [`Executor`] carries a full [`SimConfig`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecChoice {
    /// The deterministic virtual-time simulator with `n` processors and
    /// the calibrated Firefly cost model.
    Sim(u32),
    /// `n` real worker threads.
    Threads(usize),
}

impl ExecChoice {
    /// The driver-level executor this choice denotes.
    pub fn to_executor(self) -> Executor {
        match self {
            ExecChoice::Sim(n) => Executor::Sim(SimConfig::firefly(n)),
            ExecChoice::Threads(n) => Executor::Threads(n),
        }
    }

    /// Human-readable name, e.g. `sim(4)` or `threads(2)`.
    pub fn name(self) -> String {
        match self {
            ExecChoice::Sim(n) => format!("sim({n})"),
            ExecChoice::Threads(n) => format!("threads({n})"),
        }
    }

    fn hash_into(self, h: &mut StableHasher) {
        match self {
            ExecChoice::Sim(n) => {
                h.write_u32(1);
                h.write_u32(n);
            }
            ExecChoice::Threads(n) => {
                h.write_u32(2);
                h.write_u64(n as u64);
            }
        }
    }
}

/// One compile request, self-contained and hashable.
#[derive(Clone, Debug)]
pub struct CompileRequest {
    /// Opaque client identifier, echoed into the outcome for reporting.
    pub client: u64,
    /// Module name (reporting only; the source is authoritative).
    pub module: String,
    /// The `M.mod` text.
    pub source: String,
    /// The interface library (shared between requests of one project
    /// revision, hence the `Arc`).
    pub defs: Arc<DefLibrary>,
    /// DKY strategy (§2.2).
    pub strategy: DkyStrategy,
    /// Executor.
    pub exec: ExecChoice,
    /// Run the dataflow lints as `Analyze` tasks.
    pub analyze: bool,
}

impl CompileRequest {
    /// A request with the default configuration (Skeptical, 2 threads,
    /// no analysis) for `module`/`source`/`defs`.
    pub fn new(
        client: u64,
        module: impl Into<String>,
        source: impl Into<String>,
        defs: Arc<DefLibrary>,
    ) -> CompileRequest {
        CompileRequest {
            client,
            module: module.into(),
            source: source.into(),
            defs,
            strategy: DkyStrategy::Skeptical,
            exec: ExecChoice::Threads(2),
            analyze: false,
        }
    }

    /// The single-flight key: a digest of every input that affects the
    /// outcome (source, full sorted interface library, strategy,
    /// executor, analysis flag). The `client` field is deliberately
    /// excluded — different clients asking for the same compilation
    /// should share one.
    pub fn fingerprint(&self) -> Fp128 {
        fingerprint(
            &self.source,
            &self.defs,
            self.strategy,
            self.exec,
            self.analyze,
        )
    }

    /// The [`fingerprint`](CompileRequest::fingerprint) of
    /// `CompileRequest::new(_, _, source, defs)`, hashed where `source`
    /// and `defs` lie instead of copied into a request.
    pub fn fingerprint_of(source: &str, defs: &DefLibrary) -> Fp128 {
        fingerprint(
            source,
            defs,
            DkyStrategy::Skeptical,
            ExecChoice::Threads(2),
            false,
        )
    }

    /// Driver options for this request, fronting `store` as the
    /// incremental artifact cache.
    pub fn options(&self, store: Arc<dyn ccm2_incr::ArtifactStore>) -> Options {
        Options {
            strategy: self.strategy,
            executor: self.exec.to_executor(),
            analyze: self.analyze,
            incremental: Some(store),
            ..Options::default()
        }
    }
}

fn fingerprint(
    source: &str,
    defs: &DefLibrary,
    strategy: DkyStrategy,
    exec: ExecChoice,
    analyze: bool,
) -> Fp128 {
    let mut h = StableHasher::new();
    h.write_str("ccm2-serve/request/v1");
    h.write_str(source);
    // The library's sorted view, borrowed: this runs on every
    // submission, so the interface texts are hashed where they lie.
    h.write_u64(defs.len() as u64);
    for (name, text) in defs.iter() {
        h.write_str(name);
        h.write_str(text);
    }
    h.write_u32(match strategy {
        DkyStrategy::Avoidance => 0,
        DkyStrategy::Pessimistic => 1,
        DkyStrategy::Skeptical => 2,
        DkyStrategy::Optimistic => 3,
    });
    exec.hash_into(&mut h);
    h.write_u32(u32::from(analyze));
    h.finish()
}

/// What the service reports back for one request.
#[derive(Clone, Debug)]
pub struct CompileOutcome {
    /// The request fingerprint this outcome answers.
    pub request_fp: Fp128,
    /// Whether compilation produced an image with no errors.
    pub ok: bool,
    /// The merged object image in the interner-independent encoding
    /// ([`ccm2_incr::encode_image`]); byte-identical to a standalone
    /// `compile_concurrent` of the same request.
    pub object: Option<Vec<u8>>,
    /// Diagnostics rendered with stable file names.
    pub diagnostics: Vec<String>,
    /// Incremental-cache counters for this compile (`None` when the
    /// compile ran cold-gated, e.g. an empty interface enumeration).
    pub incr: Option<IncrStats>,
    /// Virtual makespan (simulator executor only).
    pub virtual_cost: Option<u64>,
    /// Wall-clock microseconds spent compiling.
    pub wall_micros: u64,
    /// Streams compiled (main + interfaces + procedures).
    pub streams: usize,
}

/// The service's answer to one submitted request.
#[derive(Clone, Debug)]
pub enum Response {
    /// The compilation ran — for this request, or for an identical one
    /// whose flight this one joined, in the air or landed — and finished.
    Done(Arc<CompileOutcome>),
    /// The request was shed at admission: the queue was full. The
    /// client should back off and resubmit.
    Retry,
}

impl Response {
    /// The outcome, if the request was not shed.
    pub fn outcome(&self) -> Option<&Arc<CompileOutcome>> {
        match self {
            Response::Done(out) => Some(out),
            Response::Retry => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib() -> Arc<DefLibrary> {
        let mut l = DefLibrary::new();
        l.insert("IO", "DEFINITION MODULE IO; PROCEDURE P; END IO.");
        Arc::new(l)
    }

    #[test]
    fn fingerprint_covers_every_outcome_relevant_field() {
        let base = CompileRequest::new(1, "M", "MODULE M; END M.", lib());
        let fp = base.fingerprint();
        assert_eq!(fp, base.fingerprint(), "deterministic");

        let mut other_client = base.clone();
        other_client.client = 99;
        assert_eq!(fp, other_client.fingerprint(), "client is excluded");

        let mut edited = base.clone();
        edited.source.push(' ');
        assert_ne!(fp, edited.fingerprint());

        let mut strategy = base.clone();
        strategy.strategy = DkyStrategy::Optimistic;
        assert_ne!(fp, strategy.fingerprint());

        let mut exec = base.clone();
        exec.exec = ExecChoice::Sim(2);
        assert_ne!(fp, exec.fingerprint());

        let mut analyze = base.clone();
        analyze.analyze = true;
        assert_ne!(fp, analyze.fingerprint());

        let mut defs = base.clone();
        let mut l = DefLibrary::new();
        l.insert("IO", "DEFINITION MODULE IO; PROCEDURE Q; END IO.");
        defs.defs = Arc::new(l);
        assert_ne!(fp, defs.fingerprint());
    }

    /// The digest is the ring-routing key (`HashRing::route`) and the
    /// oracle key of every drill, so how it is *computed* may change and
    /// what it *is* may not: a moved digest re-routes the fleet and moves
    /// the golden.
    #[test]
    fn fingerprint_of_one_request_is_pinned() {
        let mut l = DefLibrary::new();
        l.insert("Zed", "DEFINITION MODULE Zed; CONST N = 1; END Zed.");
        l.insert("IO", "DEFINITION MODULE IO; PROCEDURE P; END IO.");
        l.insert("Alpha", "DEFINITION MODULE Alpha; IMPORT IO; END Alpha.");
        let req = CompileRequest::new(
            1,
            "M",
            "MODULE M; IMPORT IO, Zed; BEGIN IO.P END M.",
            Arc::new(l),
        );
        assert_eq!(
            req.fingerprint().to_hex(),
            "5fb7afd280be54237c59480062aabb08"
        );
        assert_eq!(
            CompileRequest::fingerprint_of(&req.source, &req.defs),
            req.fingerprint(),
            "a default request's digest, borrowed"
        );
    }

    #[test]
    fn exec_choice_names_and_executors() {
        assert_eq!(ExecChoice::Sim(4).name(), "sim(4)");
        assert_eq!(ExecChoice::Threads(2).name(), "threads(2)");
        assert!(matches!(
            ExecChoice::Threads(3).to_executor(),
            Executor::Threads(3)
        ));
        assert!(matches!(ExecChoice::Sim(5).to_executor(), Executor::Sim(_)));
    }
}
