//! End-to-end tests of the content-addressed incremental compilation
//! cache: warm recompiles must splice cached units without changing the
//! compiler's observable output, and damaged or stale cache state must
//! degrade to a plain cold compile — never to a wrong image or a panic.

use std::sync::Arc;

use ccm2::{ConcurrentOutput, Options};
use ccm2_incr::{
    decode_entry, ArtifactStore, EntryDecoder, ImportGraph, IncrStats, MemStore, FORMAT_VERSION,
};
use ccm2_support::defs::DefProvider;
use ccm2_support::diag::Severity;
use ccm2_support::hash::{Fp128, StableHasher};
use ccm2_support::{Interner, Symbol};
use ccm2_workload::{apply_edits, body_edits, generate, suite_params, GenParams, SUITE_SIZE};

pub mod contract;
use contract::{parsed_live, Fills, Mutants, Output, Path, Program};

#[test]
fn warm_identical_compile_splices_every_unit() {
    let m = Program::from(generate(&GenParams::small("WarmAll", 31))).analyzed();
    let store = Arc::new(MemStore::new());
    let cold = m.compile_into(store.clone(), Options::threads(4));
    assert!(
        cold.is_ok(),
        "{:?}",
        &cold.diagnostics[..3.min(cold.diagnostics.len())]
    );
    let cold_stats = cold.incr.expect("incremental was active");
    assert_eq!(cold_stats.units, cold.procedures + 1, "procs + module body");
    assert_eq!(cold_stats.spliced, 0, "empty store cannot hit");
    assert!(store.stats().entries > 0, "cold run populates the store");

    let warm = m.compile_into(store.clone(), Options::threads(4));
    assert!(warm.is_ok());
    let warm_stats = warm.incr.expect("incremental was active");
    assert_eq!(warm_stats.units, cold_stats.units);
    assert_eq!(warm_stats.spliced, warm_stats.units, "all units resplice");
    assert_eq!(warm_stats.recompiled, 0);
    assert_eq!(warm_stats.bad_entries, 0);
    assert_eq!(cold.comparable(), warm.comparable(), "warm == cold output");
}

#[test]
fn procedure_body_edit_recompiles_only_the_touched_stream() {
    let m = generate(&GenParams {
        name: "OneEdit".into(),
        seed: 44,
        procedures: 12,
        interfaces: 4,
        import_depth: 2,
        stmts_per_proc: 14,
        nested_ratio: 0.0, // flat: the edited stream has no children
        lint_seeds: true,
        lock_seeds: false,
    });
    let store = Arc::new(MemStore::new());
    let cold = Program::from(&m)
        .analyzed()
        .compile_into(store.clone(), Options::threads(4));
    assert!(cold.is_ok());

    let edited = Program::from(apply_edits(&m, &body_edits(1, 4242))).analyzed();
    assert_ne!(m.source, edited.source, "edit must land");
    let warm = edited.compile_into(store.clone(), Options::threads(4));
    assert!(warm.is_ok());
    let stats = warm.incr.expect("incremental was active");
    assert_eq!(stats.units, 13, "12 procedures + module body");
    assert_eq!(stats.recompiled, 1, "only Proc0 was touched");
    assert_eq!(stats.spliced, 12, "siblings and module body resplice");

    // A from-scratch compile of the edited source is the ground truth.
    let reference = edited.compile(Options::threads(4));
    assert_eq!(reference.incr, None, "no store, no counters");
    assert_eq!(warm.comparable(), reference.comparable());
}

#[test]
fn interface_edit_invalidates_everything() {
    let m = generate(&GenParams::small("IfaceInval", 52));
    let store = Arc::new(MemStore::new());
    let cold = Program::from(&m).compile_into(store.clone(), Options::threads(2));
    assert!(cold.is_ok());

    let (lib, _) = m.defs.iter().next().expect("has interfaces");
    let edited: Program = apply_edits(
        &m,
        &[ccm2_workload::EditOp::Interface {
            def: lib.to_string(),
            tag: 9,
        }],
    )
    .into();
    let warm = edited.compile_into(store.clone(), Options::threads(2));
    assert!(warm.is_ok());
    let stats = warm.incr.expect("incremental was active");
    assert_eq!(
        stats.spliced, 0,
        "environment digest covers the interface library"
    );
    let reference = edited.compile(Options::threads(2));
    assert_eq!(warm.comparable(), reference.comparable());
}

#[test]
fn suite_hit_rate_after_one_procedure_edit_is_at_least_95_percent() {
    let store = Arc::new(MemStore::new());
    let modules = contract::suite();
    for m in &modules {
        let cold = m.compile_into(store.clone(), Options::threads(4));
        assert!(
            cold.is_ok(),
            "{}: {:?}",
            m.source.len(),
            &cold.diagnostics[..3.min(cold.diagnostics.len())]
        );
    }

    // The developer edits one procedure in one module, then rebuilds the
    // whole suite.
    let edited_index = 17;
    let edited = apply_edits(
        &generate(&suite_params(edited_index)),
        &body_edits(1, 0xED17),
    );
    let edited = Program::from(edited);
    assert_ne!(modules[edited_index].source, edited.source);

    let mut total = IncrStats::default();
    let mut edited_out = None;
    for (i, m) in modules.iter().enumerate() {
        let target = if i == edited_index { &edited } else { m };
        let warm = target.compile_into(store.clone(), Options::threads(4));
        assert!(warm.is_ok(), "module {i}");
        total.absorb(warm.incr.expect("incremental was active"));
        if i == edited_index {
            edited_out = Some(warm);
        }
    }
    assert!(
        total.hit_rate() >= 0.95,
        "suite-wide warm hit rate {:.3} below 0.95 ({total:?})",
        total.hit_rate()
    );
    assert_eq!(total.bad_entries, 0);

    // The edited module's warm output matches a from-scratch compile.
    let reference = edited.compile(Options::threads(4));
    assert_eq!(
        edited_out.expect("edited ran").comparable(),
        reference.comparable()
    );
}

/// Compiles `m` cold into `store`, has `damage` flip a payload byte of
/// every entry it left and hand back the store the next compiles read,
/// and checks that the damage costs splices, never the image.
fn damaged_entries_degrade_to_misses(
    m: &Program,
    store: Arc<dyn ArtifactStore>,
    damage: impl FnOnce() -> Arc<dyn ArtifactStore>,
) {
    let cold = m.compile_into(store, Options::threads(2));
    assert!(cold.is_ok());
    let cold_cmp = cold.comparable();

    let store = damage();
    let warm = m.compile_into(store.clone(), Options::threads(2));
    assert!(warm.is_ok(), "corruption must never break the compile");
    let stats = warm.incr.expect("incremental was active");
    assert_eq!(stats.spliced, 0, "nothing decodable, nothing spliced");
    assert!(stats.interfaces > 0, "the module imports interfaces");
    assert_eq!(stats.interfaces_spliced, 0, "no interface decodes either");
    assert!(stats.bad_entries >= stats.units, "every entry was damaged");
    assert!(
        warm.diagnostics.iter().any(|d| {
            d.severity == Severity::Note && d.message.contains("incremental cache entry")
        }),
        "degradation is reported, got {:?}",
        warm.diagnostics
    );
    // Image identical to the cold compile; only the cache notes differ.
    assert_eq!(warm.comparable().0, cold_cmp.0);

    // The warm run re-recorded good entries over the damaged ones, so a
    // third run splices everything again.
    let third = m.compile_into(store, Options::threads(2));
    let stats3 = third.incr.expect("incremental was active");
    assert_eq!(stats3.spliced, stats3.units);
    assert_eq!(third.comparable(), cold_cmp);
}

#[test]
fn corrupt_entries_degrade_to_misses_with_a_note() {
    let m = Program::from(generate(&GenParams::small("Corrupt", 63))).analyzed();
    let mem = Arc::new(MemStore::new());
    damaged_entries_degrade_to_misses(&m, mem.clone(), || {
        for fp in mem.fingerprints() {
            assert!(mem.corrupt(fp, 12), "flip a payload byte");
        }
        mem.clone()
    });

    // A store damaged on its way through an export (a snapshot image):
    // every entry's payload byte flipped, then imported into a fresh
    // store, which quarantines what its compiles find damaged.
    let exported = Arc::new(MemStore::new());
    let restored = Arc::new(MemStore::new());
    damaged_entries_degrade_to_misses(&m, exported.clone(), || {
        let mut entries = exported.export();
        for (_, bytes) in &mut entries {
            bytes[12] ^= 0x55;
        }
        restored.import(entries);
        restored.clone()
    });
    assert!(restored.stats().quarantined > 0, "{:?}", restored.stats());
}

#[test]
fn unrelated_interface_edit_keeps_every_module_warm() {
    // Per-import environment precision: the digest covers only the
    // interfaces a module transitively imports, so touching a definition
    // module nothing reaches must not invalidate anything.
    let mut m = generate(&GenParams::small("Precise", 61));
    m.defs.insert(
        "LonelyLib",
        "DEFINITION MODULE LonelyLib; CONST Version = 1; END LonelyLib.",
    );
    let store = Arc::new(MemStore::new());
    let cold = Program::from(&m).compile_into(store.clone(), Options::threads(2));
    assert!(
        cold.is_ok(),
        "{:?}",
        &cold.diagnostics[..3.min(cold.diagnostics.len())]
    );
    let cold_cmp = cold.comparable();

    let mut edited = m.clone();
    edited.defs.insert(
        "LonelyLib",
        "DEFINITION MODULE LonelyLib; CONST Version = 2; END LonelyLib.",
    );
    let warm = Program::from(edited).compile_into(store.clone(), Options::threads(2));
    assert!(warm.is_ok());
    let stats = warm.incr.expect("incremental was active");
    assert_eq!(
        stats.recompiled, 0,
        "unreachable interface edit must not invalidate: {stats:?}"
    );
    assert_eq!(stats.spliced, stats.units);
    assert_eq!(warm.comparable(), cold_cmp);

    // Control: the same kind of edit to a *reachable* interface still
    // invalidates everything.
    let (lib, _) = {
        let mut names: Vec<&str> = m.defs.iter().map(|(n, _)| n).collect();
        names.sort();
        (
            names
                .into_iter()
                .find(|n| *n != "LonelyLib")
                .expect("has a real interface")
                .to_string(),
            (),
        )
    };
    let touched = apply_edits(&m, &[ccm2_workload::EditOp::Interface { def: lib, tag: 3 }]);
    let invalidated = Program::from(touched).compile_into(store.clone(), Options::threads(2));
    assert!(invalidated.is_ok());
    let stats = invalidated.incr.expect("incremental was active");
    assert_eq!(stats.spliced, 0, "reachable interface edits invalidate");
}

#[test]
fn warm_splice_tasks_run_before_any_codegen_in_both_executors() {
    // Cache-aware scheduling: CacheSplice outranks ProcParse/CodeGen in
    // the 2.3.4 priority queue of *both* executors, so on a warm run
    // every near-free splice lands before the first live codegen task —
    // unblocking merges and DKY waits as early as possible. With one
    // worker the pop order is exactly the priority order, so the trace
    // ordering is deterministic.
    use ccm2_sched::TaskKind;

    let m = generate(&GenParams::small("SpliceRank", 77));
    let edited = Program::from(apply_edits(&m, &body_edits(1, 0x5AFE)));
    assert_ne!(m.source, edited.source);

    for options in [Options::sim(1), Options::threads(1)] {
        let executor = &options.executor;
        let store = Arc::new(MemStore::new());
        let cold = Program::from(&m).compile_into(store.clone(), options.clone());
        assert!(cold.is_ok());
        let warm = edited.compile_into(store, options.clone());
        assert!(warm.is_ok());
        let stats = warm.incr.expect("incremental active");
        assert!(stats.spliced > 0, "warm run must splice ({executor:?})");
        assert!(stats.recompiled > 0, "edited stream must recompile");

        // Segments are recorded in execution order on the single worker.
        let segs = &warm.report.trace.segments;
        let splices: Vec<usize> = segs
            .iter()
            .enumerate()
            .filter(|(_, s)| s.kind == TaskKind::CacheSplice)
            .map(|(i, _)| i)
            .collect();
        let codegens: Vec<usize> = segs
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                matches!(s.kind, TaskKind::LongCodeGen | TaskKind::ShortCodeGen)
                    || s.kind == TaskKind::ProcParse
            })
            .map(|(i, _)| i)
            .collect();
        assert_eq!(
            splices.len(),
            stats.spliced + stats.interfaces_spliced,
            "one segment per splice"
        );
        assert!(!codegens.is_empty(), "edited stream compiles live");
        let last_splice = *splices.last().expect("has splices");
        let first_codegen = *codegens.first().expect("has codegen");
        assert!(
            last_splice < first_codegen,
            "{executor:?}: splice at segment {last_splice} ran after \
             codegen/procparse at {first_codegen}"
        );
    }
}

/// A warm compile decodes all of a module's entries through one
/// decoder, whose name table asks the interner once per distinct name:
/// each entry must come out as a decoder of its own makes it, and the
/// interner must end with the same strings at the same indices.
#[test]
fn one_decoder_over_a_modules_entries_decodes_each_as_a_fresh_one_does() {
    let m = Program::from(generate(&suite_params(20))).analyzed();
    let store = Arc::new(MemStore::new());
    assert!(m.compile_into(store.clone(), Options::threads(2)).is_ok());
    let blobs: Vec<Vec<u8>> = store
        .fingerprints()
        .into_iter()
        .filter_map(|fp| store.load(fp))
        .collect();
    assert!(blobs.len() > 10);
    let (shared, fresh) = (Interner::new(), Interner::new());
    let mut decoder = EntryDecoder::new(&shared);
    for bytes in &blobs {
        assert_eq!(decoder.decode(bytes), decode_entry(bytes, &fresh));
    }
    let strings = |i: &Interner| -> Vec<String> {
        (0..i.len())
            .map(|k| i.resolve(Symbol::from_index(k)))
            .collect()
    };
    assert_eq!(strings(&shared), strings(&fresh));
}

/// An [`ArtifactStore`] that holds nothing and notes every fingerprint
/// it is asked for: on a compile with complete carves, the module's and
/// one per stream, as `fingerprint_streams` computed them.
#[derive(Debug, Default)]
struct AskedFor(std::sync::Mutex<Vec<Fp128>>);

impl ArtifactStore for AskedFor {
    fn load(&self, fp: Fp128) -> Option<Vec<u8>> {
        self.0.lock().unwrap().push(fp);
        None
    }

    fn store(&self, _: Fp128, _: &[u8]) {}
}

/// The fingerprints are what an on-disk store and a shipped delta are
/// keyed by: code that computes them another way must compute the same
/// bits. The values are those of `FORMAT_VERSION` 3 (which is hashed into
/// every one of them) under the word-at-a-time `StableHasher`; a change
/// that bumps the version re-pins them.
#[test]
fn fingerprints_of_three_suite_modules_are_pinned() {
    let pinned = [
        (
            0,
            "184ac40673136e5adaf556a405dcb36c",
            "191c4505c901366c6c94c95625c94195",
        ),
        (
            17,
            "5bdff81f79cc12e66d779bfed0bbdc0f",
            "e1b8aafc41eb5d7a94c84cb94d0ee519",
        ),
        (
            36,
            "540116544eb7f661fc2c5993408b44d9",
            "8c4a4fb5af799d45b362ead7d404d24e",
        ),
    ];
    for (ix, want_env, want_streams) in pinned {
        let m = generate(&suite_params(ix));
        let library = m.defs.all_definitions().expect("a DefLibrary enumerates");
        let tag = Options::default().heading_mode.cache_tag();
        let (env, keys) = ImportGraph::of(&m.source, &library).keys(FORMAT_VERSION, true, tag);
        assert_eq!(env.to_hex(), want_env, "environment of suite module {ix}");

        let asked = Arc::new(AskedFor::default());
        let out = Program::from(&m)
            .analyzed()
            .compile_into(asked.clone(), Options::threads(2));
        assert!(out.is_ok());
        let mut fps = asked.0.lock().unwrap().clone();
        // The compile also asks for the interface keys of the modules it
        // imports; what is pinned here is the code units' fingerprints.
        fps.retain(|fp| keys.iter().all(|k| k.key != *fp));
        assert_eq!(fps.len(), out.procedures + 1, "module body + streams");
        fps.sort();
        let mut all = StableHasher::new();
        for fp in fps {
            all.write_fp(fp);
        }
        let all = all.finish().to_hex();
        assert_eq!(all, want_streams, "fingerprints of suite module {ix}");
    }
}

/// `(streams, imported interfaces, import nesting depth)`: Table 1's
/// shape of a compile, which splicing its interfaces must not change.
/// The depth is that of the import path a module was first reached by,
/// which on threads is a race even between two cold compiles (an
/// interface's Importer now and then names a module before the main
/// module's does, on a loaded host), so it is compared on the simulator,
/// where it is a function of the sources.
fn shape(out: &ConcurrentOutput, options: &Options) -> (usize, usize, Option<usize>) {
    let sim = matches!(options.executor, ccm2::Executor::Sim(_));
    (
        out.streams,
        out.imported_interfaces,
        sim.then_some(out.import_nesting_depth),
    )
}

/// Every suite module, compiled warm against a store its own cold
/// compile filled: every interface splices, and the output, the streams,
/// the interfaces and the import depth are the cold compile's. The
/// modules take turns at the contract's paths that keep a cache.
#[test]
fn warm_with_every_interface_spliced_equals_cold_for_every_suite_module() {
    let paths: Vec<Path> = Path::all().into_iter().filter(Path::caches).collect();
    for (i, m) in contract::suite().iter().enumerate() {
        let options = paths[i % paths.len()].options();
        let store = Arc::new(MemStore::new());
        let cold = m.compile_into(store.clone(), options.clone());
        assert!(cold.is_ok(), "suite module {i}: {:?}", cold.diagnostics);
        let warm = m.compile_into(store, options.clone());
        assert!(warm.is_ok(), "suite module {i}: {:?}", warm.diagnostics);
        let stats = warm.incr.expect("incremental was active");
        assert_eq!(stats.interfaces, cold.imported_interfaces, "module {i}");
        assert_eq!(stats.interfaces_spliced, stats.interfaces, "module {i}");
        assert!(parsed_live(&warm).is_empty(), "module {i}");
        assert_eq!(warm.comparable(), cold.comparable(), "module {i}");
        assert_eq!(shape(&warm, &options), shape(&cold, &options), "module {i}");
    }
}

/// Seeded `EditOp::Interface` edits to one definition module of a suite
/// module whose store a cold compile filled: the edited interface and
/// every interface that imports it, directly or not, compile live; every
/// other one splices; the output is a cold compile's of the edited
/// sources. The seeds take turns at the contract's paths that keep a
/// cache. (`ci.sh` runs twenty times the seeds, optimized.)
#[test]
fn interface_edit_differential() {
    let seeds: u64 = if cfg!(debug_assertions) { 12 } else { 240 };
    let paths: Vec<Path> = Path::all().into_iter().filter(Path::caches).collect();
    for seed in 0..seeds {
        let m = generate(&suite_params(seed as usize % SUITE_SIZE));
        let options = paths[seed as usize % paths.len()].options();
        let store = Arc::new(MemStore::new());
        assert!(Program::from(&m)
            .compile_into(store.clone(), options.clone())
            .is_ok());

        let library = m.defs.all_definitions().expect("a DefLibrary enumerates");
        let (_, keys) = ImportGraph::of(&m.source, &library).keys(FORMAT_VERSION, false, 0);
        let edited_def = keys[(seed.wrapping_mul(0x9E37_79B9) >> 7) as usize % keys.len()].name;
        // Imports come before importers, so one pass finds every module
        // that reaches the edited one.
        let mut live = std::collections::BTreeSet::from([edited_def.to_string()]);
        for k in &keys {
            if k.imports.iter().any(|i| live.contains(*i)) {
                live.insert(k.name.to_string());
            }
        }
        let edited: Program = apply_edits(
            &m,
            &[ccm2_workload::EditOp::Interface {
                def: edited_def.to_string(),
                tag: seed,
            }],
        )
        .into();
        assert_ne!(m.defs.all_definitions(), edited.defs.all_definitions());
        let warm = edited.compile_into(store, options.clone());
        assert!(warm.is_ok(), "seed {seed}: {:?}", warm.diagnostics);
        let stats = warm.incr.expect("incremental was active");
        assert_eq!(parsed_live(&warm), live, "seed {seed}: edited {edited_def}");
        assert_eq!(
            stats.interfaces_spliced,
            stats.interfaces - live.len(),
            "seed {seed}"
        );
        let reference = edited.compile(options.clone());
        assert_eq!(warm.comparable(), reference.comparable(), "seed {seed}");
        let shapes = (shape(&warm, &options), shape(&reference, &options));
        assert_eq!(shapes.0, shapes.1, "seed {seed}");
    }
}

/// What a byte-budgeted store keeps of a compile depends on the order
/// the compile records its entries in. Entries go in carve order and
/// interfaces in import order, so six compiles of one module, each into
/// a fresh 16 KiB store, keep one set. (Recorded in a hash map's order,
/// the same module kept 9 to 11 entries, a different set each time.)
#[test]
fn a_budgeted_store_keeps_the_same_entries_of_every_compile() {
    let m = Program::from(generate(&suite_params(20)));
    let kept: std::collections::BTreeSet<Vec<Fp128>> = (0..6)
        .map(|_| {
            let store = Arc::new(MemStore::with_budget(16 * 1024));
            let out = m.compile_into(store.clone(), Options::threads(1));
            assert!(out.is_ok());
            let mut fps: Vec<Fp128> = store.export().into_iter().map(|(fp, _)| fp).collect();
            fps.sort();
            fps
        })
        .collect();
    let sizes: Vec<usize> = kept.iter().map(Vec::len).collect();
    assert_eq!(kept.len(), 1, "sets of these sizes were kept: {sizes:?}");
}

/// Seeded body mutants of the first four suite modules — one token
/// deleted, duplicated or swapped with its successor, which also breaks
/// `END`s, comments and `PROCEDURE` words, and so the structure the
/// main module's Lexor carves before it decides what to skip. Each is
/// compiled warm, against a store its unmutated module filled, on the
/// path its case number picks — every cached path, and a service whose
/// store every earlier mutant fed — and answers with the sequential
/// compiler's image and diagnostics; the Splitter created one stream per
/// carve of the scan (a carve of its own that differs from the scan's is
/// an internal-error diagnostic). An optimized build runs 100× more.
#[test]
fn mutated_bodies_compile_warm_as_cold() {
    let corpus = Mutants::bodies();
    let paths = [
        Path::warm(&Fills::of(&corpus.modules)),
        vec![Path::service()],
    ]
    .concat();
    corpus.differential(0x35, &paths);
}

/// The main Lexor of an incremental compile skims every procedure body,
/// reading only the words the depth rule reads, and carves what the rule
/// carves over every token: over the 37 suite modules, and over seeded
/// mutants of their bodies and of their declaration parts and headings,
/// which break `END`s, comments, strings and `PROCEDURE` words. An
/// optimized build runs 100× more mutants.
#[test]
fn the_skim_carves_what_the_scan_carves() {
    let cases = if cfg!(debug_assertions) { 200 } else { 20_000 };
    let mut departures = Vec::new();
    for program in contract::suite() {
        if let Some(e) = contract::skim_departs(&program.source) {
            departures.push(format!("{}: {e}", program.name));
        }
    }
    for (seed, corpus) in [(0x51, Mutants::bodies()), (0x52, Mutants::declarations())] {
        for (case, (program, what)) in corpus.drawn(seed, cases).enumerate() {
            if let Some(e) = contract::skim_departs(&program.source) {
                departures.push(format!("case {case}: {what}: {e}"));
            }
        }
    }
    assert!(
        departures.is_empty(),
        "{} departures\n{}",
        departures.len(),
        departures[..departures.len().min(3)].join("\n\n")
    );
}

/// The main Lexor of an incremental compile reports a body's lexical
/// errors from its skim, not from the scan that reads the body again
/// once it is known to compile live. A module with an unexpected
/// character, an unterminated string, a malformed real and an
/// out-of-range character code, each in a different procedure body, and
/// one more body edited, compiled against a store its clean module
/// filled (every other body splices) on every cached path and through a
/// service: each answers with the sequential compiler's diagnostics, each
/// reported once, in order, and its image.
#[test]
fn lexical_errors_in_skimmed_bodies_are_reported_once() {
    let clean = generate(&GenParams::small("LexErrors", 9));
    let edited = apply_edits(&clean, &body_edits(1, 7));
    assert_ne!(clean.source, edited.source, "the edit must land");
    let mut source = edited.source.clone();
    let errors = [
        "l0 := 1 $ + 2;",
        "l0 := \"never closed",
        "l0 := 1.5E+;",
        "l0 := 400C;",
    ];
    for (i, error) in errors.iter().enumerate() {
        let heading = source
            .find(&format!("PROCEDURE Proc{}(", i + 1))
            .expect("the procedure is there");
        let body = heading + source[heading..].find("BEGIN\n").expect("a body") + 6;
        source.insert_str(body, &format!("  {error}\n"));
    }
    let program = Program {
        source,
        ..Program::from(&clean)
    };
    let paths = [
        Path::warm(&Fills::of(&[Program::from(&clean)])),
        vec![Path::service()],
    ]
    .concat();
    let (_, diagnostics) = contract::agree(&program, &paths);
    for message in [
        "unexpected character `$`",
        "unterminated string literal",
        "malformed real literal `1.5E+`",
        "character code 256 out of range",
    ] {
        let reported = diagnostics.iter().filter(|d| d.contains(message));
        assert_eq!(reported.count(), 1, "{message} in {diagnostics:#?}");
    }
    let store = Arc::new(MemStore::new());
    assert!(Program::from(&clean)
        .compile_into(store.clone(), Options::sim(1))
        .is_ok());
    let stats = program.compile_into(store, Options::sim(1)).incr;
    let stats = stats.expect("incremental was active");
    assert!(stats.spliced > 0 && stats.recompiled >= 5, "{stats:?}");
}

/// A warm compile after one procedure-body edit routes only what it
/// parses: the module level (the module body included), the headings,
/// each spliced stream's `END Name ;` and the edited bodies, which reach
/// their streams as resolved placeholders (a placeholder itself costs
/// nothing). On one simulated processor, suite module 17 after the edit
/// the benchmark's `warm_edit` makes (`Proc0`, whose nested procedure
/// recompiles with it) charges `Work::Split` for 985 of the cold
/// compile's 3 419 tokens: its module body and the two edited bodies are
/// a fifth of its text. Its main Lexor still charges `Work::Lex` for all
/// 3 419, the bodies it only skimmed included. The output is the cold
/// one.
#[test]
fn a_warm_body_edit_routes_only_live_tokens() {
    use ccm2_support::work::Work;
    let m = generate(&suite_params(17));
    let store = Arc::new(MemStore::new());
    assert!(Program::from(&m)
        .compile_into(store.clone(), Options::sim(1))
        .is_ok());
    let edited = Program::from(apply_edits(&m, &body_edits(1, 35)));
    assert_ne!(m.source, edited.source, "the edit must land");
    let warm = edited.compile_into(store, Options::sim(1));
    let cold = edited.compile(Options::sim(1));
    assert!(warm.is_ok() && cold.is_ok());
    let stats = warm.incr.expect("incremental was active");
    assert_eq!(stats.recompiled, 2, "Proc0 and its nested procedure");
    let split = |out: &ConcurrentOutput| out.report.charges[Work::Split as usize];
    assert_eq!((split(&warm), split(&cold)), (985, 3419));
    assert!(split(&warm) * 100 <= split(&cold) * 30);
    // The warm Lexor charges every token of the main module, skimmed or
    // scanned, as the cold Splitter does (the cold Lexors charge the
    // definition modules' tokens too, which the warm compile splices).
    let lex = |out: &ConcurrentOutput| out.report.charges[Work::Lex as usize];
    assert_eq!(
        lex(&warm),
        split(&cold),
        "a skimmed body is charged its tokens"
    );
    assert_eq!(warm.comparable(), cold.comparable());
}

/// A `MemStore` that records, for every load, whether it ran on a
/// worker of a threaded run.
#[derive(Debug, Default)]
struct LoadThreads {
    inner: MemStore,
    loads: std::sync::Mutex<Vec<bool>>,
}

impl ArtifactStore for LoadThreads {
    fn load(&self, fp: Fp128) -> Option<Vec<u8>> {
        let on_worker = ccm2_sched::on_worker();
        self.loads.lock().expect("not poisoned").push(on_worker);
        self.inner.load(fp)
    }

    fn store(&self, fp: Fp128, bytes: &[u8]) {
        self.inner.store(fp, bytes);
    }

    fn quarantine(&self, fp: Fp128) {
        self.inner.quarantine(fp);
    }
}

/// A warm compile on two workers loads nothing outside its run's
/// workers — not before the run, on the thread that becomes its worker
/// 0: the interface cell (filled by the main Importer, the Lexor's
/// `decide` or a parser's import scopes, whichever asks first) and the
/// code units' decisions are the compile's own work, done by its tasks.
/// Each round races the cell's fill and the placeholders' resolution
/// against the Splitter again; optimized, 2 000 rounds.
#[test]
fn a_warm_threaded_compile_loads_only_on_workers() {
    let rounds = if cfg!(debug_assertions) { 20 } else { 2_000 };
    let m = Program::from(generate(&GenParams::small("OnWorkers", 7)));
    let store = Arc::new(LoadThreads::default());
    let cold = m.compile_into(store.clone(), Options::threads(2));
    assert!(cold.is_ok(), "{:?}", cold.diagnostics);
    for round in 0..rounds {
        store.loads.lock().expect("not poisoned").clear();
        let warm = m.compile_into(store.clone(), Options::threads(2));
        assert_eq!(warm.comparable(), cold.comparable(), "round {round}");
        let stats = warm.incr.expect("incremental was active");
        assert_eq!(stats.spliced, stats.units, "round {round}");
        assert!(stats.interfaces_spliced > 0, "round {round}");
        let loads = std::mem::take(&mut *store.loads.lock().expect("not poisoned"));
        assert!(!loads.is_empty());
        let off_worker = loads.iter().filter(|&&on_worker| !on_worker).count();
        assert_eq!(
            off_worker, 0,
            "round {round}: {off_worker} loads off the workers"
        );
    }
}

/// The warm front overlaps again. On four simulated processors, after
/// the benchmark's one-body edit of suite module 17, the Splitter and
/// the module parser start with the main Lexor, before its first segment
/// ends, and read what it publishes as it scans; the edited procedures'
/// parsers start only once the Lexor is done, since their bodies waited
/// in placeholders for the cache's decision.
#[test]
fn a_warm_front_splits_and_parses_beside_the_scan() {
    let m = generate(&suite_params(17));
    let store = Arc::new(MemStore::new());
    assert!(Program::from(&m)
        .compile_into(store.clone(), Options::sim(4))
        .is_ok());
    let edited = Program::from(apply_edits(&m, &body_edits(1, 35)));
    let warm = edited.compile_into(store, Options::sim(4));
    assert!(warm.is_ok(), "{:?}", warm.diagnostics);
    let segments = &warm.report.trace.segments;
    let of = |task: &'static str| segments.iter().filter(move |s| s.name == task);
    let start = |task| of(task).map(|s| s.start).min().expect(task);
    let lex_first_end = of("lex(Main)").map(|s| s.end).min().expect("lexed");
    let lex_end = of("lex(Main)").map(|s| s.end).max().expect("lexed");
    for task in ["split(Main)", "parse(Main)"] {
        assert!(
            start(task) < lex_first_end,
            "{task} starts at {}, the Lexor's first segment ends at {lex_first_end}",
            start(task)
        );
    }
    let parsers: Vec<(&str, u64)> = (segments.iter())
        .filter(|s| s.name.starts_with("procparse("))
        .map(|s| (s.name.as_str(), s.start))
        .collect();
    assert!(!parsers.is_empty(), "the edited procedures parse live");
    for (task, at) in parsers {
        assert!(
            at >= lex_end,
            "{task} starts at {at}, the Lexor ends at {lex_end}"
        );
    }
}
