//! Error reporting: erroneous programs must produce the *same*
//! diagnostics (file, span, severity, message) from the concurrent
//! compiler as from the sequential one, regardless of task interleaving —
//! and compilation must degrade gracefully, never hang or panic.

use std::sync::Arc;

use ccm2::{compile_concurrent, Options};
use ccm2_sema::symtab::DkyStrategy;
use ccm2_support::defs::DefLibrary;
use ccm2_support::diag::Diagnostic;
use ccm2_support::source::SourceMap;
use ccm2_support::{Interner, NullMeter};

mod mutants;
use mutants::{body_token_spans, mutate, splitmix};

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

fn check(src: &str, defs: &DefLibrary, expect_contains: &[&str]) {
    let interner = Arc::new(Interner::new());
    let seq = ccm2_seq::compile_with(
        src,
        defs,
        Arc::clone(&interner),
        Arc::new(NullMeter),
        ccm2_sema::declare::HeadingMode::CopyToChild,
    );
    let conc = compile_concurrent(
        src,
        Arc::new(defs.clone()),
        Arc::clone(&interner),
        Options::threads(2),
    );
    let a = normalize(&seq.diagnostics, &seq.sources);
    let b = normalize(&conc.diagnostics, &conc.sources);
    assert_eq!(a, b, "diagnostics differ for:\n{src}");
    for needle in expect_contains {
        assert!(
            a.iter().any(|d| d.contains(needle)),
            "expected a diagnostic containing {needle:?}, got {a:#?}"
        );
    }
}

#[test]
fn undeclared_identifier() {
    check(
        "MODULE M; BEGIN mystery := 1 END M.",
        &DefLibrary::new(),
        &["undeclared identifier `mystery`"],
    );
}

#[test]
fn assignment_type_mismatch() {
    check(
        "MODULE M; VAR b : BOOLEAN; BEGIN b := 42 END M.",
        &DefLibrary::new(),
        &["assignment type mismatch"],
    );
}

#[test]
fn redeclaration_in_scope() {
    check(
        "MODULE M; CONST x = 1; VAR x : INTEGER; BEGIN END M.",
        &DefLibrary::new(),
        &["already declared"],
    );
}

#[test]
fn missing_definition_module() {
    check(
        "MODULE M; IMPORT Ghost; BEGIN END M.",
        &DefLibrary::new(),
        &["cannot find definition module `Ghost`"],
    );
}

#[test]
fn unexported_qualified_name() {
    let mut lib = DefLibrary::new();
    lib.insert("Lib", "DEFINITION MODULE Lib; CONST k = 1; END Lib.");
    check(
        "MODULE M; IMPORT Lib; VAR x : INTEGER; BEGIN x := Lib.absent END M.",
        &lib,
        &["not exported"],
    );
}

#[test]
fn wrong_argument_count() {
    check(
        "MODULE M; \
         PROCEDURE P(a, b : INTEGER); BEGIN END P; \
         BEGIN P(1) END M.",
        &DefLibrary::new(),
        &["expected 2 arguments, found 1"],
    );
}

#[test]
fn var_argument_must_be_designator() {
    check(
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
    check(
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
    check(
        "MODULE M; IMPORT Broken; BEGIN END M.",
        &lib,
        &["undeclared identifier `nonsuch`"],
    );
}

#[test]
fn syntax_error_recovery_matches() {
    check(
        "MODULE M; VAR a : INTEGER; BEGIN a := 1 a := 2 END M.",
        &DefLibrary::new(),
        &["expected `;`"],
    );
}

#[test]
fn set_element_out_of_range() {
    check(
        "MODULE M; CONST S = {70}; BEGIN END M.",
        &DefLibrary::new(),
        &["set element out of range"],
    );
}

#[test]
fn division_by_zero_in_constant() {
    check(
        "MODULE M; CONST K = 1 DIV 0; BEGIN END M.",
        &DefLibrary::new(),
        &["division by zero in constant expression"],
    );
}

#[test]
fn undeclared_pointer_target() {
    check(
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

/// The sequential compiler's output for `src`, beside the concurrent
/// compiler's under `options`, both on one interner so the images'
/// symbols compare. `Err` names what differs; a panic propagates.
fn differs_from_seq(src: &str, defs: &DefLibrary, options: Options) -> Result<(), String> {
    let interner = Arc::new(Interner::new());
    let seq = ccm2_seq::compile_with(
        src,
        defs,
        Arc::clone(&interner),
        Arc::new(NullMeter),
        options.heading_mode,
    );
    let conc = compile_concurrent(src, Arc::new(defs.clone()), interner, options);
    let (a, b) = (
        normalize(&seq.diagnostics, &seq.sources),
        normalize(&conc.diagnostics, &conc.sources),
    );
    if a != b {
        return Err(format!("diagnostics differ:\nseq  {a:#?}\nconc {b:#?}"));
    }
    if seq.image != conc.image {
        return Err("object images differ".into());
    }
    Ok(())
}

fn with_strategy(mut options: Options, strategy: DkyStrategy) -> Options {
    options.strategy = strategy;
    options
}

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
        for executor in [Options::sim(4), Options::threads(1), Options::threads(2)] {
            for strategy in DkyStrategy::ALL {
                let what = format!("{:?} {}", executor.executor, strategy.name());
                let options = with_strategy(executor.clone(), strategy);
                if let Err(e) = differs_from_seq(src, &DefLibrary::new(), options) {
                    panic!("{what}: {src}\n{e}");
                }
            }
        }
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
    let paths = [
        ("threads(2)", Options::threads(2)),
        ("sim(4)", Options::sim(4)),
        (
            "early_split: false",
            Options {
                early_split: false,
                ..Options::default()
            },
        ),
    ];
    let mut failures = Vec::new();
    for src in rows {
        for (what, options) in &paths {
            if let Err(e) = differs_from_seq(src, &DefLibrary::new(), options.clone()) {
                failures.push(format!("{what}: {src}\n{e}"));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

/// Seeded token mutations of suite modules, confined to declaration
/// parts and procedure headings: one token deleted, duplicated or
/// swapped with its successor. Each mutant compiles under the
/// sequential compiler and under one concurrent configuration (the
/// case number picks it from every DKY strategy × three executors,
/// plus the no-early-split ablation); none may panic, and both must
/// agree on diagnostics and image. An optimized build runs 100× more.
#[test]
fn mutated_declarations_compile_identically_to_seq() {
    const CASES: u64 = if cfg!(debug_assertions) { 200 } else { 20_000 };
    let modules: Vec<_> = (0..4)
        .map(|i| ccm2_workload::generate(&ccm2_workload::suite_params(i)))
        .collect();
    let sites: Vec<Vec<(usize, usize)>> = modules
        .iter()
        .map(|m| declaration_token_spans(&m.source))
        .collect();
    let mut configs: Vec<Options> = Vec::new();
    for executor in [Options::sim(4), Options::threads(1), Options::threads(2)] {
        for strategy in DkyStrategy::ALL {
            configs.push(with_strategy(executor.clone(), strategy));
        }
    }
    configs.push(Options {
        early_split: false,
        ..Options::default()
    });
    let (mut panics, mut divergences) = (Vec::new(), Vec::new());
    let mut state = 0x27_u64;
    for case in 0..CASES {
        let m = (splitmix(&mut state) % modules.len() as u64) as usize;
        let spans = &sites[m];
        let at = (splitmix(&mut state) % (spans.len() as u64 - 1)) as usize;
        let op = splitmix(&mut state) % 3;
        let src = mutate(&modules[m].source, spans, at, op);
        let options = configs[case as usize % configs.len()].clone();
        let (lo, hi) = spans[at];
        let what = format!(
            "case {case}: {} token {at} `{}` {} under {:?} {}{}",
            modules[m].name,
            &modules[m].source[lo..hi],
            ["deleted", "duplicated", "swapped"][op as usize],
            options.executor,
            options.strategy.name(),
            if options.early_split {
                ""
            } else {
                " without early split"
            },
        );
        let defs = &modules[m].defs;
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            differs_from_seq(&src, defs, options)
        })) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => divergences.push(format!("{what}\n{e}")),
            Err(_) => panics.push(what),
        }
    }
    assert!(
        panics.is_empty() && divergences.is_empty(),
        "{} panics, {} divergences in {CASES} mutants\n{}\n{}",
        panics.len(),
        divergences.len(),
        panics.join("\n"),
        divergences
            .iter()
            .take(3)
            .cloned()
            .collect::<Vec<_>>()
            .join("\n\n"),
    );
}

/// Byte spans of the tokens of `source` that lie in a declaration part
/// (from the first CONST/TYPE/VAR/PROCEDURE of a scope up to its BEGIN)
/// or in a procedure heading, in source order. A scope's body and the
/// `END name ;` closing it are left out, as are the module header and
/// its imports.
fn declaration_token_spans(source: &str) -> Vec<(usize, usize)> {
    use ccm2_syntax::token::TokenKind;
    let map = SourceMap::new();
    let file = map.add("M.mod", source);
    let tokens = ccm2_syntax::lex_file(
        &file,
        &Interner::new(),
        &ccm2_support::DiagnosticSink::new(),
    );
    // One frame per open scope: `None` while in its declaration part
    // (after its first declaration keyword), `Some(depth)` in its body.
    let mut frames: Vec<Option<i64>> = vec![None];
    let (mut started, mut records, mut out) = (false, 0i64, Vec::new());
    let mut i = 0;
    while i < tokens.len() {
        let t = tokens[i];
        let span = (t.span.lo as usize, t.span.hi as usize);
        let next_is_ident = matches!(tokens.get(i + 1).map(|t| t.kind), Some(TokenKind::Ident(_)));
        match (frames.last().copied().flatten(), t.kind) {
            (None, TokenKind::Procedure) if next_is_ident => {
                // The heading, through its `;` at paren depth 0.
                let mut parens = 0i64;
                while let Some(h) = tokens.get(i) {
                    out.push((h.span.lo as usize, h.span.hi as usize));
                    i += 1;
                    match h.kind {
                        TokenKind::LParen => parens += 1,
                        TokenKind::RParen => parens -= 1,
                        TokenKind::Semi if parens <= 0 => break,
                        _ => {}
                    }
                }
                started = true;
                frames.push(None);
                continue;
            }
            (None, TokenKind::Begin) => *frames.last_mut().expect("frame") = Some(0),
            (None, TokenKind::Record) => {
                records += 1;
                out.push(span);
            }
            (None, TokenKind::End) if records > 0 => {
                records -= 1;
                out.push(span);
            }
            (None, TokenKind::End) | (Some(0), TokenKind::End) => {
                // The scope ends: skip `END name ;`.
                frames.pop();
                i += 1;
                while matches!(
                    tokens.get(i).map(|t| t.kind),
                    Some(TokenKind::Ident(_) | TokenKind::Semi)
                ) {
                    let semi = tokens[i].kind == TokenKind::Semi;
                    i += 1;
                    if semi {
                        break;
                    }
                }
                continue;
            }
            (Some(d), TokenKind::End) => *frames.last_mut().expect("frame") = Some(d - 1),
            (Some(d), k) if k.opens_end_block() => *frames.last_mut().expect("frame") = Some(d + 1),
            (Some(_), _) => {}
            (None, TokenKind::Const | TokenKind::Type | TokenKind::Var) => {
                started = true;
                out.push(span);
            }
            (None, _) if started => out.push(span),
            (None, _) => {}
        }
        i += 1;
    }
    out
}

// ----- recovery on the commitment model ---------------------------------
//
// A construct that has consumed a token is committed: if it fails, the
// parse resumes at the end of its own extent, so a broken statement or
// RECORD ends neither the body nor the declaration part around it, and a
// token nothing starts with is reported once.

/// The paths each recovery row runs under, beside the sequential compiler.
fn recovery_paths() -> [(&'static str, Options); 3] {
    [
        ("threads(2)", Options::threads(2)),
        ("sim(4)", Options::sim(4)),
        (
            "early_split: false",
            Options {
                early_split: false,
                ..Options::default()
            },
        ),
    ]
}

#[test]
fn broken_constructs_recover_to_the_end_of_their_own_extent() {
    let rows: [(&str, &[&str]); 10] = [
        (
            "MODULE T; VAR x : INTEGER; BEGIN x := 1; 7; x := 2 END T.",
            &["Main.mod:41..42 error unexpected `integer literal` in statement sequence"],
        ),
        (
            "MODULE T; VAR x : INTEGER; BEGIN x := 1; ELSE x := 2 END T.",
            &["Main.mod:41..45 error unexpected `ELSE` in statement sequence"],
        ),
        (
            "MODULE T; VAR x : INTEGER; BEGIN x := 1; UNTIL x := 2 END T.",
            &["Main.mod:41..46 error unexpected `UNTIL` in statement sequence"],
        ),
        (
            "MODULE T; VAR x : INTEGER; BEGIN x := 1 ) ; x := 2 END T.",
            &["Main.mod:40..41 error unexpected `)` in statement sequence"],
        ),
        // The WHILE keeps its own END: nothing is reported at the trailer.
        (
            "MODULE T; VAR x : INTEGER; BEGIN WHILE x = DO x := 1 END; x := 2 END T.",
            &["Main.mod:43..45 error expected expression, found `DO`"],
        ),
        // Likewise the IF in a procedure body: no "expected `P` after `END`".
        (
            "MODULE T; VAR x : INTEGER; \
             PROCEDURE P; BEGIN IF x = THEN x := 1 END; x := 2 END P; BEGIN P END T.",
            &["Main.mod:53..57 error expected expression, found `THEN`"],
        ),
        // A broken FOR no longer hides the broken CASE label after it.
        (
            "MODULE T; VAR i, x : INTEGER; \
             BEGIN FOR i := 1 TO DO x := 1 END; x := 2; CASE x OF 1 : x := 3 | : x := 4 END END T.",
            &[
                "Main.mod:50..52 error expected expression, found `DO`",
                "Main.mod:96..97 error expected expression, found `:`",
            ],
        ),
        // `x` stays declared: its use in the body reports nothing.
        (
            "MODULE T; VAR r : RECORD a : ) END; x : INTEGER; BEGIN x := 1 END T.",
            &["Main.mod:29..30 error expected type, found `)`"],
        ),
        // The rest of the module survives the RECORD, `P` included.
        (
            "MODULE T; TYPE R = RECORD a : INTEGER; b : ARRAY OF END; VAR x : INTEGER; \
             PROCEDURE P; BEGIN x := 1 END P; BEGIN P END T.",
            &["Main.mod:52..55 error expected type, found `END`"],
        ),
        // A formal type is `[ARRAY OF] qualident`: the RECORD is the one
        // error, and its END ends the heading on no path.
        (
            "MODULE T; VAR x : INTEGER; \
             PROCEDURE Q(r : RECORD a : INTEGER END); BEGIN x := 1 END Q; BEGIN x := 2 END T.",
            &["Main.mod:42..42 error expected type name"],
        ),
    ];
    let mut failures = Vec::new();
    for (src, expected) in rows {
        let interner = Arc::new(Interner::new());
        let seq = ccm2_seq::compile_with(
            src,
            &DefLibrary::new(),
            Arc::clone(&interner),
            Arc::new(NullMeter),
            ccm2_sema::declare::HeadingMode::CopyToChild,
        );
        let got = normalize(&seq.diagnostics, &seq.sources);
        if got != expected {
            failures.push(format!("{src}\nexpected {expected:#?}\ngot {got:#?}"));
        }
        for (what, options) in recovery_paths() {
            if let Err(e) = differs_from_seq(src, &DefLibrary::new(), options) {
                failures.push(format!("{what}: {src}\n{e}"));
            }
        }
        if src.contains("PROCEDURE P") {
            let units = seq.image.iter().flat_map(|image| &image.units);
            let names: Vec<_> = units.map(|u| interner.resolve(u.name)).collect();
            if !names.iter().any(|n| n == "T.P") {
                failures.push(format!("{src}\nno unit `T.P` in the image: {names:?}"));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

/// Seeded token mutations of suite modules inside module and procedure
/// bodies — one token deleted, duplicated or swapped with its successor,
/// the body's closing `END` included — each compiled by the sequential
/// compiler and by one concurrent configuration (the case number picks
/// it, as in `mutated_declarations_compile_identically_to_seq`). None may
/// panic, and both must agree on diagnostics and image. An optimized
/// build runs 100× more.
#[test]
fn mutated_bodies_compile_identically_to_seq() {
    const CASES: u64 = if cfg!(debug_assertions) { 200 } else { 20_000 };
    let modules: Vec<_> = (0..4)
        .map(|i| ccm2_workload::generate(&ccm2_workload::suite_params(i)))
        .collect();
    let sites: Vec<_> = modules
        .iter()
        .map(|m| body_token_spans(&m.source))
        .collect();
    let mut configs: Vec<Options> = [Options::sim(4), Options::threads(1), Options::threads(2)]
        .iter()
        .flat_map(|executor| DkyStrategy::ALL.map(|s| with_strategy(executor.clone(), s)))
        .collect();
    configs.push(Options {
        early_split: false,
        ..Options::default()
    });
    let (mut panics, mut divergences) = (Vec::new(), Vec::new());
    let mut state = 0x28_u64;
    for case in 0..CASES {
        let m = (splitmix(&mut state) % modules.len() as u64) as usize;
        let spans = &sites[m];
        let at = (splitmix(&mut state) % (spans.len() as u64 - 1)) as usize;
        let op = splitmix(&mut state) % 3;
        let src = mutate(&modules[m].source, spans, at, op);
        let options = configs[case as usize % configs.len()].clone();
        let (lo, hi) = spans[at];
        let what = format!(
            "case {case}: {} body token {at} `{}` {} under {:?} {} early_split={}",
            modules[m].name,
            &modules[m].source[lo..hi],
            ["deleted", "duplicated", "swapped"][op as usize],
            options.executor,
            options.strategy.name(),
            options.early_split,
        );
        let defs = &modules[m].defs;
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            differs_from_seq(&src, defs, options)
        })) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => divergences.push(format!("{what}\n{e}")),
            Err(_) => panics.push(what),
        }
    }
    assert!(
        panics.is_empty() && divergences.is_empty(),
        "{} panics, {} divergences in {CASES} mutants\n{}\n{}",
        panics.len(),
        divergences.len(),
        panics.join("\n"),
        divergences
            .iter()
            .take(3)
            .cloned()
            .collect::<Vec<_>>()
            .join("\n\n"),
    );
}

// ----- the sequential compiler's output, pinned -------------------------
//
// What the statement analyzer emits — object bytes and diagnostics — for
// the suite and for mutants of its bodies, folded into one digest per
// build profile. The digests were recorded before the analyzer was
// restructured to look each identifier up once; they move only if what it
// emits does.

/// Names a renamed identifier may take besides the module's own: MIN, MAX
/// and VAL (which take a type), other builtins, a type, a constant, the
/// procedure every suite module starts with, and a name declared nowhere.
const RENAMES: [&str; 10] = [
    "MIN", "MAX", "VAL", "ABS", "INC", "INTEGER", "CHAR", "TRUE", "Proc0", "Ghost",
];

/// The error paths of statement analysis the mutants must reach, each as
/// a piece of its diagnostic.
const REACHED: [&str; 6] = [
    "is not a variable",
    "undeclared identifier",
    "is not exported",
    "arguments, found",
    "MIN/MAX",
    "VAL",
];

/// The sequential compiler's output for all 37 suite modules, then for
/// seeded mutants of the first four modules' bodies: `mutate`'s three
/// operations, and a fourth that renames an identifier to another name the
/// module uses or (as often) to one of [`RENAMES`]. A rename keeps the body
/// parseable, so it reaches the statement analyzer's error paths
/// ([`REACHED`]). An optimized build runs 100× more mutants; each size has
/// its own digest.
#[test]
fn output_pin_of_the_suite_and_its_body_mutants() {
    const CASES: u64 = if cfg!(debug_assertions) { 200 } else { 20_000 };
    const PIN: &str = if cfg!(debug_assertions) {
        "c7e06948ae077ca6e908fa6f24ebd1b8"
    } else {
        "8c01547081e909e7a147fab1091fc24d"
    };
    let suite = ccm2_workload::generate_suite();
    let mut digest = ccm2_support::hash::StableHasher::new();
    for m in &suite {
        fold_output(&mut digest, &m.source, &m.defs);
    }
    let modules = &suite[..4];
    let sites: Vec<_> = modules
        .iter()
        .map(|m| body_token_spans(&m.source))
        .collect();
    let names: Vec<_> = modules.iter().map(|m| identifiers(&m.source)).collect();
    let mut reached = [0usize; REACHED.len()];
    let mut state = 0x29_u64;
    for _ in 0..CASES {
        let m = (splitmix(&mut state) % modules.len() as u64) as usize;
        let (source, spans) = (&modules[m].source, &sites[m]);
        let op = splitmix(&mut state) % 5;
        let src = if op < 3 {
            let at = (splitmix(&mut state) % (spans.len() as u64 - 1)) as usize;
            mutate(source, spans, at, op)
        } else {
            // Half the renames are of a name that is called.
            let (idents, vocabulary) = &names[m];
            let called = |&&(_, hi): &&(usize, usize)| source[hi..].starts_with('(');
            let body: Vec<_> = spans
                .iter()
                .filter(|s| idents.contains(s) && (op == 3 || called(s)))
                .collect();
            let (lo, hi) = *body[(splitmix(&mut state) % body.len() as u64) as usize];
            // Half take one of the module's names, half one of RENAMES.
            let pick = splitmix(&mut state) as usize;
            let name = match pick % 2 {
                0 => &vocabulary[pick / 2 % vocabulary.len()],
                _ => RENAMES[pick / 2 % RENAMES.len()],
            };
            format!("{}{name}{}", &source[..lo], &source[hi..])
        };
        let diagnostics = fold_output(&mut digest, &src, &modules[m].defs);
        for (count, piece) in reached.iter_mut().zip(REACHED) {
            *count += usize::from(diagnostics.iter().any(|d| d.contains(piece)));
        }
    }
    for (count, piece) in reached.iter().zip(REACHED) {
        assert!(*count > 0, "no mutant reached `{piece}`: {reached:?}");
    }
    assert_eq!(digest.finish().to_hex(), PIN, "reached {reached:?}");
}

/// Feeds the sequential compiler's object bytes and rendered diagnostics
/// for `src` to `digest`, and returns the diagnostics.
fn fold_output(
    digest: &mut ccm2_support::hash::StableHasher,
    src: &str,
    defs: &DefLibrary,
) -> Vec<String> {
    let out = ccm2_seq::compile(src, defs);
    let (object, diagnostics) = ccm2_incr::comparable_output(
        out.image.as_ref(),
        &out.diagnostics,
        &out.sources,
        &out.interner,
    );
    let object = object.map(|bytes| [&[1], &bytes[..]].concat());
    digest.write(&object.unwrap_or_default());
    digest.write_u64(diagnostics.len() as u64);
    for d in &diagnostics {
        digest.write_str(d);
    }
    diagnostics
}

/// The byte spans of `source`'s identifier tokens, and its distinct
/// identifiers in sorted order.
fn identifiers(source: &str) -> (std::collections::HashSet<(usize, usize)>, Vec<String>) {
    use ccm2_syntax::token::TokenKind;
    let map = SourceMap::new();
    let file = map.add("M.mod", source);
    let sink = ccm2_support::DiagnosticSink::new();
    let tokens = ccm2_syntax::lex_file(&file, &Interner::new(), &sink);
    let spans: std::collections::HashSet<_> = tokens
        .iter()
        .filter(|t| matches!(t.kind, TokenKind::Ident(_)))
        .map(|t| (t.span.lo as usize, t.span.hi as usize))
        .collect();
    let names: std::collections::BTreeSet<_> = spans
        .iter()
        .map(|&(lo, hi)| source[lo..hi].to_string())
        .collect();
    (spans, names.into_iter().collect())
}
