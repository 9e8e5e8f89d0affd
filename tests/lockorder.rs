//! Interprocedural lock-order analysis: the static deadlock predictions
//! (cross-procedure re-LOCK, lock-order cycles) must be byte-identical
//! between the sequential reference and the concurrent compiler under
//! every DKY strategy and both executors, must survive warm re-analysis
//! from the incremental summary cache, and must treat a summary
//! format-version mismatch as a cache miss — never as wrong output.

use std::sync::Arc;

use ccm2::{ConcurrentOutput, Options};
use ccm2_incr::{decode_entry, encode_entry, ArtifactStore, MemStore, ENTRY_FORMAT};
use ccm2_serve::ExecChoice;
use ccm2_support::defs::DefLibrary;
use ccm2_support::Fp128;
use ccm2_workload::{generate, GenParams};

pub mod contract;
use contract::{agree, Exec, Output, Path, Program};

/// `program`, analyzed, answers alike on every path of the
/// contract and on `sim(3)`, and its diagnostics contain each of
/// `needles`.
fn predicts(program: Program, needles: &[&str]) {
    let paths = [Path::all(), Path::all_on(Exec::Split(ExecChoice::Sim(3)))].concat();
    let (_, diagnostics) = agree(&program.analyzed(), &paths);
    for needle in needles {
        assert!(
            diagnostics.iter().any(|d| d.contains(needle)),
            "expected a diagnostic containing {needle:?}, got {diagnostics:#?}"
        );
    }
}

/// An analyzing compile on `sim(4)` against `store`, which must be clean.
fn sim_compile(program: &Program, store: &Arc<dyn ArtifactStore>) -> ConcurrentOutput {
    let out = program.compile_into(Arc::clone(store), Options::sim(4));
    assert!(out.is_ok(), "{:?}", out.diagnostics);
    out
}

#[test]
fn cross_procedure_relock_is_predicted_identically_everywhere() {
    // Outer holds `mu` across a call to Inner, which re-LOCKs it: only
    // the interprocedural pass can see this (each body is clean alone).
    let src = "MODULE M; \
         TYPE R = RECORD a, b : INTEGER END; \
         VAR mu : R; VAR g : INTEGER; \
         PROCEDURE Inner(x : INTEGER) : INTEGER; \
         VAR t : INTEGER; \
         BEGIN LOCK mu DO t := x END; RETURN t END Inner; \
         PROCEDURE Outer(y : INTEGER) : INTEGER; \
         VAR u : INTEGER; \
         BEGIN LOCK mu DO u := Inner(y) END; RETURN u END Outer; \
         BEGIN g := Outer(1) END M.";
    predicts(
        Program::new(src, DefLibrary::new()),
        &["call to `M.Inner` while holding `mu` may re-LOCK it"],
    );
}

#[test]
fn cross_procedure_lock_order_cycle_is_predicted_identically_everywhere() {
    // PA acquires mu then (via GrabNu) nu; PB acquires nu then (via
    // GrabMu) mu — a two-lock cycle spread over four procedures.
    let src = "MODULE M; \
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
         BEGIN g := PA(1) + PB(2) END M.";
    predicts(
        Program::new(src, DefLibrary::new()),
        &["potential deadlock: lock-order cycle among `mu`, `nu`"],
    );
}

#[test]
fn seeded_lock_workload_is_predicted_identically_everywhere() {
    let m = generate(&GenParams {
        lock_seeds: true,
        ..GenParams::small("LkT", 0x7E57)
    });
    let program = Program::from(m).analyzed();
    let seq = program.seq();
    assert!(seq.is_ok(), "{:?}", seq.diagnostics);
    predicts(
        program.clone(),
        &[
            "potential deadlock: lock-order cycle among `lkA`, `lkB`, `lkC`",
            "may re-LOCK it",
        ],
    );
    // The stats the concurrent pass reports must match the sequential
    // reference exactly (everything computed live, nothing cached).
    let s = seq.locks.expect("analysis ran");
    let c = program
        .compile(Options::threads(2))
        .locks
        .expect("analysis ran");
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
    let program = Program::from(&m).analyzed();
    let store: Arc<dyn ArtifactStore> = Arc::new(MemStore::new());
    let cold = sim_compile(&program, &store);
    let warm = sim_compile(&program, &store);
    assert_eq!(
        warm.comparable(),
        cold.comparable(),
        "warm output diverged from cold"
    );

    // Edit one grabber's body: only its summary is dirty, and only its
    // one cached caller (LockEdgeBC) must re-propagate.
    let edited = Program {
        source: m.source.replacen(
            "LOCK lkC DO l0 := p0 + p1 END",
            "LOCK lkC DO l0 := p0 + p1 + 1 END",
            1,
        ),
        ..program
    };
    assert_ne!(edited.source, m.source, "edit must land");
    let warm_edit = sim_compile(&edited, &store);

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
        (warm_edit.comparable().1.iter()).any(|d| d.contains("lock-order cycle")),
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
    let program = Program::from(m).analyzed();
    let mem = Arc::new(MemStore::new());
    let store: Arc<dyn ArtifactStore> = Arc::clone(&mem) as Arc<dyn ArtifactStore>;
    let cold = sim_compile(&program, &store);
    let baseline = cold.comparable().1;

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

    let warm = sim_compile(&program, &store);
    let diagnostics = warm.comparable().1;
    assert_eq!(
        (diagnostics.iter())
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
        diagnostics.iter().any(|d| d.contains("lock-order cycle")),
        "static prediction must survive the degraded warm run"
    );
}
