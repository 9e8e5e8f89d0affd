//! Content-addressed incremental compilation cache (`ccm2-incr`).
//!
//! The paper's central move — splitting a module into one stream per
//! procedure and one per imported definition module (Figure 5) — makes
//! every stream a self-contained compilation unit. That is exactly the
//! granularity at which results can be memoized *across* runs: if a
//! stream's inputs are byte-identical to a previous compile, its
//! Parser/DeclAnalyzer and StmtAnalyzer/CodeGen tasks can be replaced by
//! one cheap `CacheSplice` task that feeds the previously produced
//! [`ccm2_codegen::ir::CodeUnit`] straight into the merge and replays the
//! stream's recorded diagnostics and lint findings.
//!
//! This crate provides the five reusable pieces; the compiler's one
//! caller of them is the `incremental` module of the `ccm2` crate, behind
//! which the driver keeps every incremental decision and store call:
//!
//! * [`fingerprint`] — pure functions turning the splitter's carve ranges
//!   into stable 128-bit stream fingerprints. A stream's fingerprint
//!   covers its own source slice *and* a chained context digest of every
//!   enclosing scope's declarations (minus nested procedure bodies, so
//!   edits inside a sibling's body do not invalidate it) plus an
//!   environment digest over the source of every definition module the
//!   main source transitively imports and the codegen-relevant
//!   configuration. See the module docs for the exact invalidation rules.
//! * [`entry`] — a versioned, checksummed, interner-independent binary
//!   encoding of a cache entry (code unit + diagnostics + lint data).
//!   Corrupt or version-mismatched bytes decode to an error, never to a
//!   wrong unit; callers degrade to a cache miss.
//! * [`iface`] — the same for a definition module's completed scope
//!   (`CCM2IFCE`), stored under an interface key
//!   ([`ImportGraph::keys`]) so a warm compile splices its interfaces
//!   instead of lexing, importing and parsing them.
//! * [`store`] — the [`store::ArtifactStore`] trait and its one
//!   implementation, [`MemStore`]: unbounded by default, byte-budgeted
//!   with strict LRU admission when a service asks
//!   ([`MemStore::with_budget`]), with counters ([`StoreStats`]), a
//!   recency-ordered export and a delta log. A store is persisted as one
//!   whole-store image (`ccm2_serve::SnapshotStore`).
//! * [`delta`] — the encoding of a batch of store insertions and
//!   evictions (`CCM2DELT`), which the fabric ships to peers.

pub mod delta;
pub mod entry;
pub mod fingerprint;
pub mod iface;
pub mod store;

use ccm2_support::{Diagnostic, Interner, SourceMap};

pub use delta::{decode_delta, encode_delta, DeltaOp, DELTA_FORMAT};
pub use entry::{
    decode_entry, encode_entry, encode_image, CacheEntryData, CachedDiag, EntryDecoder,
    ENTRY_FORMAT, FORMAT_VERSION,
};
pub use fingerprint::{
    fingerprint_streams, import_names, Carve, Fingerprints, ImportGraph, InterfaceKey, StreamNode,
};
pub use iface::{decode_interface, encode_interface, IFACE_FORMAT};
pub use store::{Admission, ArtifactStore, ByteBudgetLru, MemStore, StoreStats};

/// Counters describing what the incremental cache did during one
/// concurrent compile (attached to `ConcurrentOutput`). The first five
/// count code units — procedure streams and the module body — and
/// nothing else; interfaces have counters of their own.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IncrStats {
    /// Cacheable units considered: every procedure stream plus the
    /// module-body unit.
    pub units: usize,
    /// Units whose fingerprint matched a decodable store entry.
    pub hits: usize,
    /// Units actually spliced from the cache. A hit is only spliced when
    /// every nested procedure inside it also hit (a recompiled inner
    /// procedure needs its enclosing scopes analyzed live).
    pub spliced: usize,
    /// Units compiled live (`units - spliced`).
    pub recompiled: usize,
    /// Store entries that failed validation (corrupt bytes, bad checksum,
    /// format-version mismatch) and were degraded to misses.
    pub bad_entries: usize,
    /// Definition modules the compile reached.
    pub interfaces: usize,
    /// Of those, the ones spliced from their stored interface artifact
    /// instead of lexed, imported and parsed.
    pub interfaces_spliced: usize,
}

impl IncrStats {
    /// Spliced units as a fraction of cacheable units (0.0 when empty).
    pub fn hit_rate(&self) -> f64 {
        if self.units == 0 {
            0.0
        } else {
            self.spliced as f64 / self.units as f64
        }
    }

    /// Accumulates another compile's counters (suite-level reporting).
    pub fn absorb(&mut self, other: IncrStats) {
        self.units += other.units;
        self.hits += other.hits;
        self.spliced += other.spliced;
        self.recompiled += other.recompiled;
        self.bad_entries += other.bad_entries;
        self.interfaces += other.interfaces;
        self.interfaces_spliced += other.interfaces_spliced;
    }
}

/// Renders diagnostics with file *names* instead of [`ccm2_support::source::FileId`]s.
///
/// Definition modules are discovered concurrently, so their `FileId`s can
/// differ between runs even when the reported problems are identical.
/// Equivalence tests (and the bench report) therefore compare this
/// rendering, which is stable across file-registration order.
pub fn render_diagnostics(diags: &[Diagnostic], sources: &SourceMap) -> Vec<String> {
    diags
        .iter()
        .map(|d| {
            let name = sources
                .get(d.file)
                .map(|f| f.name().to_string())
                .unwrap_or_else(|| format!("file#{}", d.file.0));
            format!(
                "{name}:{}..{}: {}: {}",
                d.span.lo, d.span.hi, d.severity, d.message
            )
        })
        .collect()
}

/// Convenience: [`render_diagnostics`] plus the interner-independent
/// image encoding, bundled for warm-vs-cold comparisons.
pub fn comparable_output(
    image: Option<&ccm2_codegen::merge::ModuleImage>,
    diags: &[Diagnostic],
    sources: &SourceMap,
    interner: &Interner,
) -> (Option<Vec<u8>>, Vec<String>) {
    (
        image.map(|im| encode_image(im, interner)),
        render_diagnostics(diags, sources),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccm2_support::source::{FileId, Span};

    #[test]
    fn stats_hit_rate_and_absorb() {
        let mut a = IncrStats {
            units: 10,
            hits: 9,
            spliced: 8,
            recompiled: 2,
            bad_entries: 1,
            interfaces: 4,
            interfaces_spliced: 3,
        };
        assert!((a.hit_rate() - 0.8).abs() < 1e-9);
        a.absorb(IncrStats {
            units: 10,
            hits: 10,
            spliced: 10,
            recompiled: 0,
            bad_entries: 0,
            interfaces: 4,
            interfaces_spliced: 4,
        });
        assert_eq!(a.units, 20);
        assert_eq!(a.spliced, 18);
        assert_eq!((a.interfaces, a.interfaces_spliced), (8, 7));
        assert_eq!(IncrStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn rendering_uses_file_names() {
        let sources = SourceMap::new();
        let f = sources.add("Main.mod", "MODULE Main; END Main.");
        let d = Diagnostic::error(f.id(), Span { lo: 7, hi: 11 }, "boom");
        let rendered = render_diagnostics(&[d], &sources);
        assert_eq!(rendered, vec!["Main.mod:7..11: error: boom".to_string()]);
        // Unknown files fall back to the numeric id rather than panicking.
        let d2 = Diagnostic::error(FileId(99), Span { lo: 0, hi: 0 }, "lost");
        assert!(render_diagnostics(&[d2], &sources)[0].starts_with("file#99:"));
    }
}
