//! Error reporting: erroneous programs must produce the *same*
//! diagnostics (file, span, severity, message, and their order) on every
//! compile path as from the sequential compiler, regardless of task
//! interleaving — and compilation must degrade gracefully, never hang or
//! panic. Each row runs on the contract's paths (`contract::Path::all`).

use ccm2_support::defs::DefLibrary;

pub mod contract;
use contract::{agree, Mutants, Path, Program};

/// `src` over `defs` answers alike on every path, and reports a
/// diagnostic containing each of `needles`.
fn reports(src: &str, defs: &DefLibrary, needles: &[&str]) {
    let (_, diagnostics) = agree(&Program::new(src, defs.clone()), &Path::all());
    for needle in needles {
        assert!(
            diagnostics.iter().any(|d| d.contains(needle)),
            "expected a diagnostic containing {needle:?}, got {diagnostics:#?}"
        );
    }
}

#[test]
fn undeclared_identifier() {
    reports(
        "MODULE M; BEGIN mystery := 1 END M.",
        &DefLibrary::new(),
        &["undeclared identifier `mystery`"],
    );
}

#[test]
fn assignment_type_mismatch() {
    reports(
        "MODULE M; VAR b : BOOLEAN; BEGIN b := 42 END M.",
        &DefLibrary::new(),
        &["assignment type mismatch"],
    );
}

#[test]
fn redeclaration_in_scope() {
    reports(
        "MODULE M; CONST x = 1; VAR x : INTEGER; BEGIN END M.",
        &DefLibrary::new(),
        &["already declared"],
    );
}

#[test]
fn missing_definition_module() {
    reports(
        "MODULE M; IMPORT Ghost; BEGIN END M.",
        &DefLibrary::new(),
        &["cannot find definition module `Ghost`"],
    );
}

#[test]
fn unexported_qualified_name() {
    let mut lib = DefLibrary::new();
    lib.insert("Lib", "DEFINITION MODULE Lib; CONST k = 1; END Lib.");
    reports(
        "MODULE M; IMPORT Lib; VAR x : INTEGER; BEGIN x := Lib.absent END M.",
        &lib,
        &["not exported"],
    );
}

#[test]
fn wrong_argument_count() {
    reports(
        "MODULE M; \
         PROCEDURE P(a, b : INTEGER); BEGIN END P; \
         BEGIN P(1) END M.",
        &DefLibrary::new(),
        &["expected 2 arguments, found 1"],
    );
}

#[test]
fn var_argument_must_be_designator() {
    reports(
        "MODULE M; \
         PROCEDURE P(VAR x : INTEGER); BEGIN END P; \
         BEGIN P(3) END M.",
        &DefLibrary::new(),
        &["not a designator"],
    );
}

#[test]
fn errors_in_procedure_bodies_report_identically() {
    // Errors inside procedure streams flow through concurrently compiled
    // tasks; spans and messages must still match the sequential pass.
    reports(
        "MODULE M; \
         PROCEDURE A; VAR t : INTEGER; BEGIN t := missingOne END A; \
         PROCEDURE B; VAR s : BOOLEAN; BEGIN s := 7 END B; \
         BEGIN END M.",
        &DefLibrary::new(),
        &[
            "undeclared identifier `missingOne`",
            "assignment type mismatch",
        ],
    );
}

#[test]
fn error_in_imported_interface() {
    let mut lib = DefLibrary::new();
    lib.insert(
        "Broken",
        "DEFINITION MODULE Broken; CONST bad = nonsuch + 1; END Broken.",
    );
    reports(
        "MODULE M; IMPORT Broken; BEGIN END M.",
        &lib,
        &["undeclared identifier `nonsuch`"],
    );
}

#[test]
fn syntax_error_recovery_matches() {
    reports(
        "MODULE M; VAR a : INTEGER; BEGIN a := 1 a := 2 END M.",
        &DefLibrary::new(),
        &["expected `;`"],
    );
}

#[test]
fn set_element_out_of_range() {
    reports(
        "MODULE M; CONST S = {70}; BEGIN END M.",
        &DefLibrary::new(),
        &["set element out of range"],
    );
}

#[test]
fn division_by_zero_in_constant() {
    reports(
        "MODULE M; CONST K = 1 DIV 0; BEGIN END M.",
        &DefLibrary::new(),
        &["division by zero in constant expression"],
    );
}

#[test]
fn undeclared_pointer_target() {
    reports(
        "MODULE M; TYPE P = POINTER TO Ghost; BEGIN END M.",
        &DefLibrary::new(),
        &["undeclared pointer target type `Ghost`"],
    );
}

// ----- one parser driver: syntax errors in declarations and headings ----
//
// Every compile path parses a declaration part, a procedure heading and
// a procedure's trailer with the same code, so a syntax error there
// yields the sequential compiler's diagnostics and image on every path.

#[test]
fn a_heading_that_fails_to_parse_releases_its_stream() {
    // The splitter gives each of these procedures a stream whose
    // heading its parent never declares; the stream's parse task must
    // still end, and report nothing the parent already reported.
    let inputs = [
        "MODULE M; PROCEDURE P(; BEGIN END P; BEGIN END M.",
        "MODULE M; VAR g : INTEGER; PROCEDURE P(x : ); BEGIN g := 1 END P; BEGIN g := 2 END M.",
        "MODULE M; PROCEDURE P; PROCEDURE Q(; BEGIN END Q; BEGIN END P; BEGIN P END M.",
    ];
    for src in inputs {
        agree(&Program::new(src, DefLibrary::new()), &Path::all());
    }
}

#[test]
fn malformed_modules_report_identically_on_every_path() {
    let rows = [
        "MODULE M; VAR a : INTEGER; 7 BEGIN a := 1 END M.",
        "MODULE M; VAR a : INTEGER; ) BEGIN a := 1 END M.",
        "MODULE M; CONST bad = ; good = 2; BEGIN END M.",
        "MODULE M; PROCEDURE P; VAR x : INTEGER; 7 BEGIN x := 1 END P; BEGIN P END M.",
        "MODULE M; PROCEDURE P; BEGIN ; BEGIN P END M.",
        "MODULE M; PROCEDURE P; BEGIN END P BEGIN END M.",
        "MODULE M; PROCEDURE P; PROCEDURE Q; 9 BEGIN END Q; BEGIN Q END P; BEGIN P END M.",
        "MODULE M; BEGIN END M",
        "MODULE M; BEGIN END Wrong.",
    ];
    for src in rows {
        agree(&Program::new(src, DefLibrary::new()), &Path::all());
    }
}

/// Seeded token mutations of suite modules, confined to declaration
/// parts and procedure headings: one token deleted, duplicated or
/// swapped with its successor. The case number picks the path each
/// mutant runs on from every DKY strategy on every executor and a
/// service whose store every earlier mutant fed; none may panic, and
/// each must answer with the sequential compiler's diagnostics and
/// image. An optimized build runs 100× more.
#[test]
fn mutated_declarations_compile_identically_to_seq() {
    let paths = [Path::all(), vec![Path::service()]].concat();
    Mutants::declarations().differential(0x27, &paths);
}

// ----- recovery on the commitment model ---------------------------------
//
// A construct that has consumed a token is committed: if it fails, the
// parse resumes at the end of its own extent, so a broken statement or
// RECORD ends neither the body nor the declaration part around it, and a
// token nothing starts with is reported once.

#[test]
fn broken_constructs_recover_to_the_end_of_their_own_extent() {
    let rows: [(&str, &[&str]); 10] = [
        (
            "MODULE T; VAR x : INTEGER; BEGIN x := 1; 7; x := 2 END T.",
            &["Main.mod:41..42: error: unexpected `integer literal` in statement sequence"],
        ),
        (
            "MODULE T; VAR x : INTEGER; BEGIN x := 1; ELSE x := 2 END T.",
            &["Main.mod:41..45: error: unexpected `ELSE` in statement sequence"],
        ),
        (
            "MODULE T; VAR x : INTEGER; BEGIN x := 1; UNTIL x := 2 END T.",
            &["Main.mod:41..46: error: unexpected `UNTIL` in statement sequence"],
        ),
        (
            "MODULE T; VAR x : INTEGER; BEGIN x := 1 ) ; x := 2 END T.",
            &["Main.mod:40..41: error: unexpected `)` in statement sequence"],
        ),
        // The WHILE keeps its own END: nothing is reported at the trailer.
        (
            "MODULE T; VAR x : INTEGER; BEGIN WHILE x = DO x := 1 END; x := 2 END T.",
            &["Main.mod:43..45: error: expected expression, found `DO`"],
        ),
        // Likewise the IF in a procedure body: no "expected `P` after `END`".
        (
            "MODULE T; VAR x : INTEGER; \
             PROCEDURE P; BEGIN IF x = THEN x := 1 END; x := 2 END P; BEGIN P END T.",
            &["Main.mod:53..57: error: expected expression, found `THEN`"],
        ),
        // A broken FOR no longer hides the broken CASE label after it.
        (
            "MODULE T; VAR i, x : INTEGER; \
             BEGIN FOR i := 1 TO DO x := 1 END; x := 2; CASE x OF 1 : x := 3 | : x := 4 END END T.",
            &[
                "Main.mod:50..52: error: expected expression, found `DO`",
                "Main.mod:96..97: error: expected expression, found `:`",
            ],
        ),
        // `x` stays declared: its use in the body reports nothing.
        (
            "MODULE T; VAR r : RECORD a : ) END; x : INTEGER; BEGIN x := 1 END T.",
            &["Main.mod:29..30: error: expected type, found `)`"],
        ),
        // The rest of the module survives the RECORD, `P` included.
        (
            "MODULE T; TYPE R = RECORD a : INTEGER; b : ARRAY OF END; VAR x : INTEGER; \
             PROCEDURE P; BEGIN x := 1 END P; BEGIN P END T.",
            &["Main.mod:52..55: error: expected type, found `END`"],
        ),
        // A formal type is `[ARRAY OF] qualident`: the RECORD is the one
        // error, and its END ends the heading on no path.
        (
            "MODULE T; VAR x : INTEGER; \
             PROCEDURE Q(r : RECORD a : INTEGER END); BEGIN x := 1 END Q; BEGIN x := 2 END T.",
            &["Main.mod:42..42: error: expected type name"],
        ),
    ];
    for (src, expected) in rows {
        let program = Program::new(src, DefLibrary::new());
        let (_, got) = agree(&program, &Path::all());
        assert_eq!(got, expected, "{src}");
        if src.contains("PROCEDURE P") {
            let seq = program.seq();
            let units = seq.image.iter().flat_map(|image| &image.units);
            let names: Vec<_> = units.map(|u| seq.interner.resolve(u.name)).collect();
            assert!(
                names.iter().any(|n| n == "T.P"),
                "{src}: no unit `T.P` in {names:?}"
            );
        }
    }
}

/// Seeded token mutations of suite modules inside module and procedure
/// bodies — one token deleted, duplicated or swapped with its successor,
/// the body's closing `END` included — each on the path its case number
/// picks, as in `mutated_declarations_compile_identically_to_seq`. None
/// may panic, and each must answer with the sequential compiler's
/// diagnostics and image. An optimized build runs 100× more.
#[test]
fn mutated_bodies_compile_identically_to_seq() {
    let paths = [Path::all(), vec![Path::service()]].concat();
    Mutants::bodies().differential(0x28, &paths);
}

// ----- the sequential compiler's output, pinned -------------------------
//
// What the statement analyzer emits — object bytes and diagnostics — for
// the suite and for mutants of its bodies, folded into one digest per
// build profile (`contract::output_pin`). The digests were recorded
// before the analyzer was restructured to look each identifier up once;
// they move only if what it emits does. Each of `contract::REACHED`, an
// error path of the analyzer, must be reached by some mutant.
#[test]
fn output_pin_of_the_suite_and_its_body_mutants() {
    const PIN: &str = if cfg!(debug_assertions) {
        "c7e06948ae077ca6e908fa6f24ebd1b8"
    } else {
        "8c01547081e909e7a147fab1091fc24d"
    };
    let (digest, reached) = contract::output_pin();
    for (count, piece) in reached.iter().zip(contract::REACHED) {
        assert!(*count > 0, "no mutant reached `{piece}`: {reached:?}");
    }
    assert_eq!(digest, PIN, "reached {reached:?}");
}
