//! Interprocedural lock-order analysis: the static deadlock predictions
//! (cross-procedure re-LOCK, lock-order cycles) must be byte-identical
//! between the sequential reference and the concurrent compiler under
//! every DKY strategy and both executors, must survive warm re-analysis
//! from the incremental summary cache, and must treat a summary
//! format-version mismatch as a cache miss — never as wrong output.

use std::sync::Arc;

use ccm2::{compile_concurrent, ConcurrentOutput, Executor, Options};
use ccm2_incr::{decode_entry, encode_entry, ArtifactStore, MemStore, ENTRY_FORMAT};
use ccm2_sched::SimConfig;
use ccm2_sema::declare::HeadingMode;
use ccm2_sema::symtab::DkyStrategy;
use ccm2_support::defs::DefLibrary;
use ccm2_support::diag::Diagnostic;
use ccm2_support::source::SourceMap;
use ccm2_support::{Fp128, Interner, NullMeter};
use ccm2_workload::{generate, GenParams, GeneratedModule};

fn normalize(diags: &[Diagnostic], sources: &SourceMap) -> Vec<String> {
    let mut v: Vec<String> = diags
        .iter()
        .map(|d| {
            let name = sources
                .get(d.file)
                .map(|f| f.name().to_string())
                .unwrap_or_default();
            format!(
                "{name}:{}..{} {} {}",
                d.span.lo, d.span.hi, d.severity, d.message
            )
        })
        .collect();
    v.sort();
    v
}

fn seq_reference(src: &str, defs: &DefLibrary) -> ccm2_seq::CompileOutput {
    ccm2_seq::compile_full(
        src,
        defs,
        Arc::new(Interner::new()),
        Arc::new(NullMeter),
        HeadingMode::CopyToChild,
        true,
    )
}

/// Compiles `src` under every DKY strategy × both executors with the
/// analysis on and asserts the diagnostics are byte-identical to the
/// sequential reference; then checks the expected needles appear.
fn check_matrix(src: &str, defs: &DefLibrary, expect_contains: &[&str]) {
    let seq = seq_reference(src, defs);
    let baseline = normalize(&seq.diagnostics, &seq.sources);
    for strategy in DkyStrategy::ALL {
        for executor in [Executor::Sim(SimConfig::firefly(3)), Executor::Threads(2)] {
            let which = format!("{executor:?}");
            let conc = compile_concurrent(
                src,
                Arc::new(defs.clone()),
                Arc::new(Interner::new()),
                Options {
                    analyze: true,
                    strategy,
                    executor,
                    ..Options::default()
                },
            );
            assert_eq!(
                normalize(&conc.diagnostics, &conc.sources),
                baseline,
                "{strategy:?}/{which}: diagnostics diverged for:\n{src}"
            );
        }
    }
    for needle in expect_contains {
        assert!(
            baseline.iter().any(|d| d.contains(needle)),
            "expected a diagnostic containing {needle:?}, got {baseline:#?}"
        );
    }
}

fn sim_options(store: &Arc<dyn ArtifactStore>) -> Options {
    Options {
        analyze: true,
        incremental: Some(Arc::clone(store)),
        executor: Executor::Sim(SimConfig::firefly(4)),
        ..Options::default()
    }
}

fn sim_compile(m: &GeneratedModule, options: Options) -> ConcurrentOutput {
    let out = compile_concurrent(
        &m.source,
        Arc::new(m.defs.clone()),
        Arc::new(Interner::new()),
        options,
    );
    assert!(out.is_ok(), "{:?}", out.diagnostics);
    out
}

#[test]
fn cross_procedure_relock_is_predicted_identically_everywhere() {
    // Outer holds `mu` across a call to Inner, which re-LOCKs it: only
    // the interprocedural pass can see this (each body is clean alone).
    check_matrix(
        "MODULE M; \
         TYPE R = RECORD a, b : INTEGER END; \
         VAR mu : R; VAR g : INTEGER; \
         PROCEDURE Inner(x : INTEGER) : INTEGER; \
         VAR t : INTEGER; \
         BEGIN LOCK mu DO t := x END; RETURN t END Inner; \
         PROCEDURE Outer(y : INTEGER) : INTEGER; \
         VAR u : INTEGER; \
         BEGIN LOCK mu DO u := Inner(y) END; RETURN u END Outer; \
         BEGIN g := Outer(1) END M.",
        &DefLibrary::new(),
        &["call to `M.Inner` while holding `mu` may re-LOCK it"],
    );
}

#[test]
fn cross_procedure_lock_order_cycle_is_predicted_identically_everywhere() {
    // PA acquires mu then (via GrabNu) nu; PB acquires nu then (via
    // GrabMu) mu — a two-lock cycle spread over four procedures.
    check_matrix(
        "MODULE M; \
         TYPE R = RECORD a, b : INTEGER END; \
         VAR mu, nu : R; VAR g : INTEGER; \
         PROCEDURE GrabMu(x : INTEGER) : INTEGER; \
         VAR t : INTEGER; \
         BEGIN LOCK mu DO t := x END; RETURN t END GrabMu; \
         PROCEDURE GrabNu(x : INTEGER) : INTEGER; \
         VAR t : INTEGER; \
         BEGIN LOCK nu DO t := x END; RETURN t END GrabNu; \
         PROCEDURE PA(y : INTEGER) : INTEGER; \
         VAR u : INTEGER; \
         BEGIN LOCK mu DO u := GrabNu(y) END; RETURN u END PA; \
         PROCEDURE PB(y : INTEGER) : INTEGER; \
         VAR u : INTEGER; \
         BEGIN LOCK nu DO u := GrabMu(y) END; RETURN u END PB; \
         BEGIN g := PA(1) + PB(2) END M.",
        &DefLibrary::new(),
        &["potential deadlock: lock-order cycle among `mu`, `nu`"],
    );
}

#[test]
fn seeded_lock_workload_is_predicted_identically_everywhere() {
    let m = generate(&GenParams {
        lock_seeds: true,
        ..GenParams::small("LkT", 0x7E57)
    });
    let seq = seq_reference(&m.source, &m.defs);
    assert!(seq.is_ok(), "{:?}", seq.diagnostics);
    check_matrix(
        &m.source,
        &m.defs,
        &[
            "potential deadlock: lock-order cycle among `lkA`, `lkB`, `lkC`",
            "may re-LOCK it",
        ],
    );
    // The stats the concurrent pass reports must match the sequential
    // reference exactly (everything computed live, nothing cached).
    let s = seq.locks.expect("analysis ran");
    let conc = compile_concurrent(
        &m.source,
        Arc::new(m.defs.clone()),
        Arc::new(Interner::new()),
        Options {
            analyze: true,
            ..Options::threads(2)
        },
    );
    let c = conc.locks.expect("analysis ran");
    assert_eq!(
        (c.units, c.edges, c.cycles, c.findings),
        (s.units, s.edges, s.cycles, s.findings)
    );
    assert_eq!(c.from_cache, 0);
    assert_eq!(c.computed, c.units);
}

#[test]
fn warm_reanalysis_recomputes_only_dirty_summaries_and_dependents() {
    let m = generate(&GenParams {
        lock_seeds: true,
        ..GenParams::small("LkW", 0x5EED)
    });
    let store: Arc<dyn ArtifactStore> = Arc::new(MemStore::new());
    let cold = sim_compile(&m, sim_options(&store));
    let warm = sim_compile(&m, sim_options(&store));
    assert_eq!(
        normalize(&warm.diagnostics, &warm.sources),
        normalize(&cold.diagnostics, &cold.sources),
        "warm diagnostics diverged from cold"
    );

    // Edit one grabber's body: only its summary is dirty, and only its
    // one cached caller (LockEdgeBC) must re-propagate.
    let mut edited = m.clone();
    edited.source = m.source.replacen(
        "LOCK lkC DO l0 := p0 + p1 END",
        "LOCK lkC DO l0 := p0 + p1 + 1 END",
        1,
    );
    assert_ne!(edited.source, m.source, "edit must land");
    let warm_edit = sim_compile(&edited, sim_options(&store));

    let [cs, ws, es] = [&cold, &warm, &warm_edit].map(|o| o.locks.clone().expect("stats"));
    assert_eq!(cs.from_cache, 0, "cold run must compute everything");
    assert_eq!(cs.computed, cs.units);
    assert_eq!(
        ws.computed, 1,
        "plain warm run recomputes only the module unit"
    );
    assert_eq!(ws.from_cache, ws.units - 1);
    assert_eq!(
        es.computed, 2,
        "warm edit recomputes the module unit and the edited procedure"
    );
    assert_eq!(es.dependents, 1, "one cached caller re-propagates");
    assert!(
        normalize(&warm_edit.diagnostics, &warm_edit.sources)
            .iter()
            .any(|d| d.contains("lock-order cycle")),
        "cycle prediction must survive the warm re-analysis"
    );
}

/// Rewrites a summary blob to claim the next format version, with the
/// trailing checksum recomputed so only the version check can reject it
/// (mirrors `ccm2_analysis::summary`'s own version-guard test).
fn forge_summary_version(summary: &[u8]) -> Vec<u8> {
    assert!(summary.len() > 8 + 4 + 16, "not a summary blob");
    let mut body = summary[..summary.len() - 16].to_vec();
    let at = 8; // just past the magic
    let found = u32::from_le_bytes([body[at], body[at + 1], body[at + 2], body[at + 3]]);
    body[at..at + 4].copy_from_slice(&(found + 1).to_le_bytes());
    let checksum = Fp128::of(&body);
    let mut forged = body;
    forged.extend_from_slice(&checksum.hi.to_le_bytes());
    forged.extend_from_slice(&checksum.lo.to_le_bytes());
    forged
}

#[test]
fn summary_version_mismatch_degrades_to_cache_miss() {
    let m = generate(&GenParams {
        lock_seeds: true,
        ..GenParams::small("LkV", 0xF00D)
    });
    let mem = Arc::new(MemStore::new());
    let store: Arc<dyn ArtifactStore> = Arc::clone(&mem) as Arc<dyn ArtifactStore>;
    let cold = sim_compile(&m, sim_options(&store));
    let baseline = normalize(&cold.diagnostics, &cold.sources);

    // Forge every cached summary to claim a future format version; the
    // entries themselves stay valid so only the summary check can fire.
    let mut forged = 0usize;
    for fp in mem.fingerprints() {
        let bytes = mem.load(fp).expect("entry present");
        if !bytes.starts_with(&ENTRY_FORMAT.magic) {
            continue; // an interface: it carries no summary
        }
        let mut entry = decode_entry(&bytes, &cold.interner).expect("entry decodes");
        if entry.summary.is_empty() {
            continue;
        }
        entry.summary = forge_summary_version(&entry.summary);
        mem.store(fp, &encode_entry(&entry, &cold.interner));
        forged += 1;
    }
    assert!(forged > 0, "seeded module must cache procedure summaries");

    let warm = sim_compile(&m, sim_options(&store));
    assert_eq!(
        normalize(&warm.diagnostics, &warm.sources)
            .iter()
            .filter(|d| !d.contains("incremental cache entry"))
            .cloned()
            .collect::<Vec<_>>(),
        baseline,
        "forged summaries must not change the compiler's verdicts"
    );
    let stats = warm.incr.expect("incremental stats present");
    assert!(
        stats.bad_entries >= forged,
        "every forged summary must be counted as a bad entry: {stats:?}"
    );
    assert!(
        mem.quarantined() >= forged as u64,
        "forged entries must be quarantined"
    );
    let locks = warm.locks.expect("analysis ran");
    assert_eq!(
        locks.from_cache, 0,
        "no forged summary may be replayed from the cache"
    );
    assert!(
        normalize(&warm.diagnostics, &warm.sources)
            .iter()
            .any(|d| d.contains("lock-order cycle")),
        "static prediction must survive the degraded warm run"
    );
}
