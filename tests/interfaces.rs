//! A hand-written program over a three-deep import chain, whose answer
//! (`programs/chain/Main.expected`) was worked out by hand rather than
//! taken from a compiler. Every compile path runs it on `ccm2-vm` and
//! must print exactly that: the sequential compiler, a cold concurrent
//! compile, a warm one that splices every interface, and a warm one
//! after an edit to the deepest definition module, on every DKY strategy
//! and every executor that keeps a cache; a service and a fleet answer
//! with the sequential compiler's bytes. The definition modules hold what
//! an interface can carry across compiles — a record, an enumeration used as
//! `Colors.red`, a forward-declared pointer to a record walked as a
//! linked list, a procedure type, an open-array formal, a constant
//! computed from an imported constant, a `FROM` alias — so a stored
//! interface installed wrongly prints something else.

use std::collections::BTreeSet;
use std::sync::Arc;

use ccm2::{ConcurrentOutput, Options};
use ccm2_incr::{
    decode_interface, encode_interface, ArtifactStore, ImportGraph, MemStore, FORMAT_VERSION,
    IFACE_FORMAT,
};
use ccm2_support::defs::{DefLibrary, DefProvider};
use ccm2_support::diag::Severity;
use ccm2_support::hash::Fp128;
use ccm2_support::Interner;
use ccm2_vm::Vm;

pub mod contract;
use contract::{agree, chain, parsed_live, Output, Path, Program, CHAIN_BASE, CHAIN_EXPECTED};

/// What the compiled program prints.
fn prints(out: &ConcurrentOutput, path: &str) -> String {
    assert!(out.is_ok(), "{path}: {:#?}", out.diagnostics);
    let image = out.image.as_ref().expect("a clean compile has an image");
    let printed = Vm::new(Arc::clone(&out.interner)).run(image);
    printed.unwrap_or_else(|e| panic!("{path}: {e:?}"))
}

#[test]
fn the_sequential_compiler_prints_the_expected_answer() {
    let out = chain(CHAIN_BASE).seq();
    assert!(out.is_ok(), "{:#?}", out.diagnostics);
    let image = out.image.expect("a clean compile has an image");
    let printed = Vm::new(out.interner).run(&image).expect("the program runs");
    assert_eq!(printed, CHAIN_EXPECTED);
    assert_eq!(out.import_nesting_depth, 3, "Shapes -> Colors -> Base");
}

#[test]
fn every_path_prints_the_expected_answer_on_every_strategy_and_executor() {
    let program = chain(CHAIN_BASE);
    let edited = chain(&CHAIN_BASE.replace("END Base.", "CONST Spare = 1;\nEND Base."));
    let all: BTreeSet<String> = ["Base", "Colors", "Shapes"].map(String::from).into();
    agree(&program, &[Path::service(), Path::fabric()]);
    for path in Path::all().into_iter().filter(Path::caches) {
        let options = path.options();
        let cold = program.compile(options.clone());
        assert_eq!(prints(&cold, &format!("cold, {path}")), CHAIN_EXPECTED);

        let store = Arc::new(MemStore::new());
        let filling = program.compile_into(store.clone(), options.clone());
        assert_eq!(
            prints(&filling, &format!("filling the store, {path}")),
            CHAIN_EXPECTED
        );
        assert_eq!(parsed_live(&filling), all);

        let warm = program.compile_into(store.clone(), options.clone());
        assert_eq!(prints(&warm, &format!("warm, {path}")), CHAIN_EXPECTED);
        let stats = warm.incr.expect("incremental was active");
        assert_eq!((stats.interfaces, stats.interfaces_spliced), (3, 3));
        assert!(parsed_live(&warm).is_empty(), "warm, {path}");

        // Every module reaches Base, so an edit there rebuilds all
        // three; the program does not read what the edit adds.
        let after_edit = edited.compile_into(store, options);
        let what = format!("warm after a Base edit, {path}");
        assert_eq!(prints(&after_edit, &what), CHAIN_EXPECTED);
        let stats = after_edit.incr.expect("incremental was active");
        assert_eq!((stats.interfaces, stats.interfaces_spliced), (3, 0));
        assert_eq!(parsed_live(&after_edit), all);
    }
}

/// An opaque type (`TYPE T;`) through the codec and back, and through a
/// warm compile that splices it.
#[test]
fn an_interface_with_an_opaque_type_round_trips() {
    let mut defs = DefLibrary::new();
    defs.insert(
        "Handles",
        "DEFINITION MODULE Handles;\nTYPE T;\nVAR current : T;\n\
         PROCEDURE Same(a, b : T) : BOOLEAN;\nEND Handles.",
    );
    let main = "MODULE Main;\nIMPORT Handles;\nVAR h : Handles.T;\n\
                BEGIN h := Handles.current; WriteInt(7, 0) END Main.";
    let program = Program::new(main, defs);
    let store = Arc::new(MemStore::new());
    let compile = || program.compile_into(store.clone(), Options::threads(2));
    let cold = compile();
    assert_eq!(prints(&cold, "cold"), "7");
    let stored: Vec<Vec<u8>> = store
        .fingerprints()
        .into_iter()
        .filter_map(|fp| store.load(fp))
        .filter(|b| b.starts_with(&IFACE_FORMAT.magic))
        .collect();
    assert_eq!(stored.len(), 1, "Handles is recorded");
    let interner = Interner::new();
    let iface = decode_interface(&stored[0], &interner).expect("it decodes");
    assert!(iface.types.iter().any(|t| matches!(
        t,
        ccm2_sema::types::Type::Opaque { name } if interner.resolve(*name) == "T"
    )));
    assert_eq!(encode_interface(&iface, &interner), stored[0]);

    let warm = compile();
    assert_eq!(prints(&warm, "warm"), "7");
    let stats = warm.incr.expect("incremental was active");
    assert_eq!(stats.interfaces_spliced, 1);
    assert_eq!(warm.comparable(), cold.comparable());
}

/// A stored interface that does not load — damaged bytes, or bytes that
/// decode but link past the type table of the module they link into — is
/// quarantined and reported in one Note naming its module. It and every
/// module importing it are parsed live, the output is a cold compile's,
/// and the next compile splices all three interfaces again. On two
/// workers as on the simulator: whichever task fills the interface cell
/// first — the main Importer, the Lexor or a parser — it loads, reports
/// and quarantines once.
#[test]
fn a_bad_interface_artifact_is_quarantined_and_parsed_live() {
    for options in [Options::sim(4), Options::threads(2)] {
        quarantines_and_parses_live(options);
    }
}

fn quarantines_and_parses_live(options: Options) {
    let program = chain(CHAIN_BASE);
    let cold = program.compile(options.clone());
    let library = program
        .defs
        .all_definitions()
        .expect("a DefLibrary enumerates");
    let tag = options.heading_mode.cache_tag();
    let (_, keys) = ImportGraph::of(&program.source, &library).keys(FORMAT_VERSION, false, tag);
    let colors = keys
        .iter()
        .find(|k| k.name == "Colors")
        .expect("Colors is keyed");

    /// Spoils the artifact stored under a key.
    type Spoil = fn(&MemStore, Fp128);
    let damage: Spoil = |store, key| assert!(store.corrupt(key, 12));
    let forge: Spoil = |store, key| {
        let interner = Interner::new();
        let bytes = store.load(key).expect("Colors is stored");
        let mut iface = decode_interface(&bytes, &interner).expect("it decodes");
        let link = iface.links.first_mut().expect("Colors links into Base");
        link.1 += 1_000;
        store.store(key, &encode_interface(&iface, &interner));
    };
    let cases = [
        ("damaged", damage, "checksum mismatch"),
        ("forged", forge, "malformed link"),
    ];
    for (case, spoil, why) in cases {
        let case = &format!("{case} on {:?}", options.executor);
        let store = Arc::new(MemStore::new());
        let compile = || program.compile_into(store.clone(), options.clone());
        assert_eq!(prints(&compile(), case), CHAIN_EXPECTED);
        spoil(&store, colors.key);

        let warm = compile();
        assert_eq!(prints(&warm, case), CHAIN_EXPECTED);
        let notes: Vec<&str> = (warm.diagnostics.iter())
            .filter(|d| d.severity == Severity::Note)
            .map(|d| d.message.as_str())
            .collect();
        assert_eq!(notes.len(), 1, "{case}: {notes:?}");
        assert!(notes[0].contains("`Colors`"), "{case}: {notes:?}");
        assert!(notes[0].ends_with(why), "{case}: {notes:?}");
        assert_eq!(store.quarantined(), 1, "{case}");
        let live: BTreeSet<String> = ["Colors", "Shapes"].map(String::from).into();
        assert_eq!(parsed_live(&warm), live, "{case}");
        assert_eq!(warm.comparable().0, cold.comparable().0, "{case}");

        let again = compile();
        let stats = again.incr.expect("incremental was active");
        assert_eq!(
            (stats.interfaces, stats.interfaces_spliced),
            (3, 3),
            "{case}"
        );
        assert!(parsed_live(&again).is_empty(), "{case}");
        assert_eq!(again.comparable(), cold.comparable(), "{case}");
    }
}
