//! Seeded property tests for the core invariants:
//!
//! * the lexer never loses input — token spans are ordered, in-bounds and
//!   non-overlapping for arbitrary source text, and identifier soup lexes
//!   back to its words;
//! * generated programs of arbitrary shape answer alike on the
//!   contract's paths (`contract::Path`) and the sequential compiler, lint
//!   and lock findings included, and so does a warm compile;
//! * merge is order-insensitive;
//! * compiled straight-line integer arithmetic and constant folding agree
//!   with a reference evaluation;
//! * `ccm2_incr::import_names` agrees with its word-list oracle.
//!
//! The Splitter's token conservation is checked by
//! `crates/core/tests/split_reconstruct.rs`.
//!
//! Each test runs a fixed number of cases. A case draws its inputs from
//! a `SmallRng` seeded with the case's index and prints them before it
//! runs, so the harness shows a failing case's inputs with its panic.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ccm2::{compile_concurrent, Options};
use ccm2_serve::ExecChoice;
use ccm2_support::defs::DefLibrary;
use ccm2_support::{DiagnosticSink, Interner, NullMeter};
use ccm2_syntax::lexer::lex_file;
use ccm2_syntax::token::TokenKind;
use ccm2_vm::Vm;
use ccm2_workload::{generate, GenParams};

pub mod contract;
use contract::{agree, Exec, Output, Path, Program};

/// Arbitrary source text: printable ASCII and the newline.
const PRINTABLE: &[u8] = concat!(
    " !\"#$%&'()*+,-./0123456789:;<=>?@",
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`",
    "abcdefghijklmnopqrstuvwxyz{|}~\n",
)
.as_bytes();
/// An identifier's first character.
const LETTERS: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
/// An identifier's later characters.
const ALPHANUMERIC: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";

/// `n` characters drawn from `table`.
fn draw(rng: &mut SmallRng, table: &[u8], n: usize) -> String {
    (0..n)
        .map(|_| table[rng.gen_range(0..table.len())] as char)
        .collect()
}

#[test]
fn lexer_spans_tile_arbitrary_ascii() {
    for case in 0..24 {
        let mut rng = SmallRng::seed_from_u64(case);
        let len = rng.gen_range(0..=400);
        let src = draw(&mut rng, PRINTABLE, len);
        println!("case {case}: src {src:?}");
        let interner = Interner::new();
        let map = ccm2_support::SourceMap::new();
        let file = map.add("fuzz.mod", src.clone());
        let sink = DiagnosticSink::new();
        let tokens = lex_file(&file, &interner, &sink);
        let mut prev_end = 0u32;
        for t in &tokens {
            assert!(t.span.lo >= prev_end, "overlapping tokens");
            assert!(t.span.hi as usize <= src.len(), "span out of bounds");
            assert!(t.span.lo < t.span.hi, "empty token span");
            prev_end = t.span.hi;
        }
    }
}

#[test]
fn lexer_roundtrips_identifier_soup() {
    for case in 0..24 {
        let mut rng = SmallRng::seed_from_u64(case);
        let words: Vec<String> = (0..rng.gen_range(1..40))
            .map(|_| {
                let rest = rng.gen_range(0..=8);
                draw(&mut rng, LETTERS, 1) + &draw(&mut rng, ALPHANUMERIC, rest)
            })
            .collect();
        println!("case {case}: words {words:?}");
        let src = words.join(" ");
        let interner = Interner::new();
        let map = ccm2_support::SourceMap::new();
        let file = map.add("soup.mod", src.clone());
        let sink = DiagnosticSink::new();
        let tokens = lex_file(&file, &interner, &sink);
        assert!(!sink.has_errors());
        assert_eq!(tokens.len(), words.len());
        for (t, w) in tokens.iter().zip(&words) {
            match t.kind {
                TokenKind::Ident(s) => assert_eq!(&interner.resolve(s), w),
                k if k.is_reserved_word() => assert_eq!(k.describe(), w.as_str()),
                other => panic!("unexpected token {other:?} for {w:?}"),
            }
        }
    }
}

#[test]
fn generated_programs_compile_equally_everywhere() {
    for case in 0..24 {
        let mut rng = SmallRng::seed_from_u64(case);
        let seed = rng.gen_range(0u64..5000);
        let procedures = rng.gen_range(1usize..14);
        let interfaces = rng.gen_range(0usize..7);
        let stmts = rng.gen_range(4usize..20);
        let nested = rng.gen_range(0u32..40);
        println!(
            "case {case}: seed {seed}, procedures {procedures}, interfaces {interfaces}, \
             stmts {stmts}, nested {nested}"
        );
        let params = GenParams {
            name: "Prop".into(),
            seed,
            procedures,
            interfaces,
            import_depth: interfaces.clamp(usize::from(interfaces > 0), 3),
            stmts_per_proc: stmts,
            nested_ratio: nested as f64 / 100.0,
            lint_seeds: false,
            fault_seeds: false,
            lock_seeds: false,
        };
        // The seed picks one of the contract's paths.
        let paths = Path::all();
        let path = &paths[seed as usize % paths.len()];
        let (image, diagnostics) = agree(&generate(&params).into(), [path]);
        assert!(
            image.is_some() && diagnostics.is_empty(),
            "seq diagnostics: {diagnostics:?}"
        );
    }
}

#[test]
fn straight_line_arithmetic_matches_reference() {
    for case in 0..24 {
        let mut rng = SmallRng::seed_from_u64(case);
        let values: Vec<i64> = (0..rng.gen_range(1..12))
            .map(|_| rng.gen_range(-50..50))
            .collect();
        let ops: Vec<u8> = (0..rng.gen_range(0..11))
            .map(|_| rng.gen_range(0..4))
            .collect();
        println!("case {case}: values {values:?}, ops {ops:?}");
        // Build `r := v0 op v1 op v2 …` left-associated with DIV/MOD made
        // safe, and evaluate both in Rust and through the full
        // compile+run pipeline.
        // Negative literals are not factors in Modula-2; render each
        // operand as `(0 - n)` when negative.
        let lit = |v: i64| {
            if v < 0 {
                format!("(0 - {})", -v)
            } else {
                format!("{v}")
            }
        };
        let mut expr = lit(values[0]);
        let mut expected: i64 = values[0];
        for (i, &op) in ops.iter().enumerate() {
            let rhs = values.get(i + 1).copied().unwrap_or(7);
            match op {
                0 => {
                    expr = format!("({expr}) + {}", lit(rhs));
                    expected = expected.wrapping_add(rhs);
                }
                1 => {
                    expr = format!("({expr}) - {}", lit(rhs));
                    expected = expected.wrapping_sub(rhs);
                }
                2 => {
                    expr = format!("({expr}) * {}", lit(rhs));
                    expected = expected.wrapping_mul(rhs);
                }
                _ => {
                    let d = if rhs == 0 { 3 } else { rhs };
                    expr = format!("({expr}) DIV {}", lit(d));
                    expected = expected.div_euclid(d);
                }
            }
        }
        let src = format!("MODULE P; VAR r : INTEGER; BEGIN r := {expr}; WriteInt(r, 0) END P.");
        let out = compile_concurrent(
            &src,
            Arc::new(DefLibrary::new()),
            Arc::new(Interner::new()),
            Options::threads(1),
        );
        assert!(
            out.is_ok(),
            "diagnostics: {:?} for {}",
            out.diagnostics,
            src
        );
        let text = Vm::new(out.interner)
            .run(&out.image.expect("image"))
            .expect("runs");
        assert_eq!(text.trim(), format!("{expected}"));
    }
}

#[test]
fn merge_is_order_insensitive_for_generated_units() {
    use ccm2_codegen::ir::{CodeUnit, Instr};
    use ccm2_codegen::merge::Merger;
    use rand::seq::SliceRandom;

    for case in 0..24 {
        let perm_seed = SmallRng::seed_from_u64(case).gen_range(0u64..1000);
        println!("case {case}: perm_seed {perm_seed}");
        let interner = Arc::new(Interner::new());
        let names: Vec<_> = (0..12)
            .map(|i| interner.intern(&format!("M.P{i}")))
            .collect();
        let make_units = || -> Vec<CodeUnit> {
            names
                .iter()
                .enumerate()
                .map(|(i, &n)| {
                    let mut u = CodeUnit::new(n, 1);
                    u.code.push(Instr::PushInt(i as i64));
                    u.code.push(Instr::ReturnValue);
                    u
                })
                .collect()
        };
        let a = Merger::new(interner.intern("M"), Arc::clone(&interner));
        for u in make_units() {
            a.add_unit(u, &NullMeter);
        }
        let b = Merger::new(interner.intern("M"), Arc::clone(&interner));
        let mut shuffled = make_units();
        shuffled.shuffle(&mut SmallRng::seed_from_u64(perm_seed));
        for u in shuffled {
            b.add_unit(u, &NullMeter);
        }
        assert_eq!(a.finish(), b.finish());
    }
}

#[test]
fn const_folding_matches_vm_for_const_declarations() {
    for case in 0..24 {
        let mut rng = SmallRng::seed_from_u64(case);
        let a = rng.gen_range(-100i64..100);
        let b = rng.gen_range(-100i64..100);
        let c = rng.gen_range(1i64..50);
        println!("case {case}: a {a}, b {b}, c {c}");
        // The same expression evaluated at compile time (CONST) and at
        // run time (VAR assignment) must agree.
        let src = format!(
            "MODULE K; \
             CONST X = ({a}) * ({b}) + ({a}) DIV {c}; \
             VAR y : INTEGER; \
             BEGIN y := ({a}) * ({b}) + ({a}) DIV {c}; \
             WriteInt(X, 0); WriteChar(' '); WriteInt(y, 0) END K."
        );
        let out = compile_concurrent(
            &src,
            Arc::new(DefLibrary::new()),
            Arc::new(Interner::new()),
            Options::threads(1),
        );
        assert!(out.is_ok(), "{:?}", out.diagnostics);
        let text = Vm::new(out.interner)
            .run(&out.image.expect("image"))
            .expect("runs");
        let parts: Vec<&str> = text.trim().split(' ').collect();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0], parts[1], "const fold vs runtime disagree: {text}");
    }
}

#[test]
fn lint_findings_deterministic_and_strategy_independent() {
    for case in 0..12 {
        let mut rng = SmallRng::seed_from_u64(case);
        let seed = rng.gen_range(0u64..2000);
        let procedures = rng.gen_range(2usize..10);
        let interfaces = rng.gen_range(1usize..4);
        println!("case {case}: seed {seed}, procedures {procedures}, interfaces {interfaces}");
        let m = generate(&GenParams {
            name: "Lint".into(),
            seed,
            procedures,
            interfaces,
            import_depth: 1,
            stmts_per_proc: 8,
            nested_ratio: 0.2,
            lint_seeds: true,
            fault_seeds: false,
            lock_seeds: false,
        });
        let program = Program::from(m).analyzed();
        // Deterministic across runs...
        let seq = program.seq();
        assert!(seq.is_ok(), "{:?}", seq.diagnostics);
        let reference = seq.comparable();
        // ...and identical under the concurrent compiler for every DKY
        // strategy.
        assert_eq!(
            agree(&program, &Path::all_on(Exec::Split(ExecChoice::Sim(3)))),
            reference
        );
    }
}

#[test]
fn suite_params_always_generate_compilable_modules() {
    for case in 0..12 {
        let ix = SmallRng::seed_from_u64(case).gen_range(0usize..37);
        println!("case {case}: ix {ix}");
        // Every point of the Table 1 parameter surface must be valid.
        let m = generate(&ccm2_workload::suite_params(ix));
        let out = ccm2_seq::compile(&m.source, &m.defs);
        assert!(
            out.is_ok(),
            "suite[{ix}]: {:?}",
            &out.diagnostics[..out.diagnostics.len().min(3)]
        );
    }
}

// The incremental cache must be observationally invisible: a warm
// compile of an edited module — under every DKY strategy and both
// executors — produces the byte-identical object image, the same
// diagnostics and the same lint findings as a cold compile of the same
// source. The store is populated once (pre-edit, Skeptical, threads), so
// cross-strategy and cross-executor splices are also exercised.
#[test]
fn warm_cache_compiles_are_invisible() {
    use ccm2_incr::{ArtifactStore, MemStore};
    use ccm2_workload::{apply_edits, body_edits};

    for case in 0..5 {
        let mut rng = SmallRng::seed_from_u64(case);
        let seed = rng.gen_range(0u64..3000);
        let procedures = rng.gen_range(2usize..9);
        let edit_count = rng.gen_range(1usize..3);
        println!("case {case}: seed {seed}, procedures {procedures}, edit_count {edit_count}");
        let base = generate(&GenParams {
            name: "Incr".into(),
            seed,
            procedures,
            interfaces: 2,
            import_depth: 1,
            stmts_per_proc: 10,
            nested_ratio: 0.2,
            lint_seeds: true,
            fault_seeds: false,
            lock_seeds: false,
        });
        let edited =
            Program::from(apply_edits(&base, &body_edits(edit_count, seed ^ 0xE11))).analyzed();
        let store: Arc<dyn ArtifactStore> = Arc::new(MemStore::new());
        let cold = Program::from(base)
            .analyzed()
            .compile_into(Arc::clone(&store), Options::threads(2));
        assert!(cold.is_ok(), "{:?}", cold.diagnostics);
        // Ground truth: the oracle's answer for the edited source.
        let seq = edited.seq();
        assert!(seq.is_ok(), "{:?}", seq.diagnostics);
        let want = seq.comparable();
        let mut first_warm = true;
        // Each case runs every path: a property keeps its two executors.
        let executors = [ExecChoice::Sim(2), ExecChoice::Threads(2)].map(Exec::Split);
        for path in executors.into_iter().flat_map(Path::all_on) {
            let warm = edited.compile_into(Arc::clone(&store), path.options());
            assert!(warm.is_ok(), "{path}: {:?}", warm.diagnostics);
            let stats = warm.incr.expect("incremental was active");
            assert!(stats.spliced > 0, "{path}: nothing spliced ({stats:?})");
            // The first warm run recompiles the edited streams; it
            // also re-records them, so every later run hits fully.
            if first_warm {
                assert!(stats.recompiled >= edit_count, "{path}: {stats:?}");
                first_warm = false;
            } else {
                assert_eq!(stats.recompiled, 0, "{path} after re-record");
            }
            assert_eq!(warm.comparable(), want.clone(), "{path} diverged");
        }
    }
}

#[test]
fn lock_predictions_byte_identical_across_strategies_and_executors() {
    for case in 0..6 {
        let mut rng = SmallRng::seed_from_u64(case);
        let seed = rng.gen_range(0u64..2000);
        let procedures = rng.gen_range(2usize..8);
        let stmts = rng.gen_range(4usize..12);
        println!("case {case}: seed {seed}, procedures {procedures}, stmts {stmts}");
        let program = Program::from(generate(&GenParams {
            name: "PropLk".into(),
            seed,
            procedures,
            interfaces: 1,
            import_depth: 1,
            stmts_per_proc: stmts,
            nested_ratio: 0.2,
            lint_seeds: false,
            fault_seeds: false,
            lock_seeds: true,
        }))
        .analyzed();
        let seq = program.seq();
        assert!(seq.is_ok(), "{:?}", seq.diagnostics);
        let reference = seq.comparable();
        // Every seeded module embeds the three-lock cycle and the
        // reentrant grab; the interprocedural pass must always see both.
        assert!(
            reference
                .1
                .iter()
                .any(|d| d.contains("lock-order cycle among `lkA`, `lkB`, `lkC`")),
            "seeded cycle not predicted: {:#?}",
            reference.1
        );
        assert!(
            reference.1.iter().any(|d| d.contains("may re-LOCK it")),
            "seeded re-LOCK not predicted: {:#?}",
            reference.1
        );
        let s = seq.locks.clone().expect("analysis ran");
        // Each case runs every path: a property keeps its two executors.
        let executors = [ExecChoice::Sim(3), ExecChoice::Threads(2)].map(Exec::Split);
        for path in executors.into_iter().flat_map(Path::all_on) {
            let conc = program.compile(path.options());
            assert_eq!(&conc.comparable(), &reference, "{path}");
            let c = conc.locks.expect("analysis ran");
            assert_eq!(
                (c.units, c.edges, c.cycles, c.findings),
                (s.units, s.edges, s.cycles, s.findings),
                "lock stats diverged on {path}"
            );
        }
    }
}

/// `ccm2_incr::import_names` as it was before it became one pass that
/// seeks the two keywords and reads words lazily after them: every word
/// of the source collected into a list, then the list walked for the
/// keywords. Kept as the oracle.
fn import_names_by_word_list(source: &str) -> Vec<&str> {
    let mut names = Vec::new();
    let mut words = Vec::new(); // (word, byte offset just past it)
    let bytes = source.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_alphabetic() {
            let start = i;
            while i < bytes.len() && (bytes[i] as char).is_ascii_alphanumeric() {
                i += 1;
            }
            words.push((&source[start..i], i));
        } else {
            i += 1;
        }
    }
    let mut w = 0;
    while w < words.len() {
        match words[w].0 {
            "FROM" => {
                if let Some(&(name, _)) = words.get(w + 1) {
                    names.push(name);
                }
                w += 2;
                if let Some(&("IMPORT", after)) = words.get(w) {
                    let list_end = source[after..]
                        .find(';')
                        .map(|at| after + at)
                        .unwrap_or(source.len());
                    w += 1;
                    while w < words.len() && words[w].1 <= list_end {
                        w += 1;
                    }
                }
            }
            "IMPORT" => {
                let list_end = source[words[w].1..]
                    .find(';')
                    .map(|at| words[w].1 + at)
                    .unwrap_or(source.len());
                w += 1;
                while w < words.len() && words[w].1 <= list_end {
                    names.push(words[w].0);
                    w += 1;
                }
            }
            _ => w += 1,
        }
    }
    names.sort();
    names.dedup();
    names
}

/// What an import scan can trip over: the two keywords next to each
/// other, at the end of the text, without their `;`, inside comments and
/// strings (which the scan deliberately does not skip), glued to letters,
/// digits and underscores, cut short, and around bytes that are not
/// ASCII.
const IMPORT_SCRAPS: [&str; 30] = [
    "FROM", "IMPORT", "A", "B7", "c", "IMPORTS", "xFROM", ";", ",", " ", "\n", "(*", "*)", "\"",
    "'", "9z", "_", "é", "→", ".", "FROM;", "IMPORT;", "END", "MODULE", "M", "9", "FRO", "MPORT",
    "IM", "IMPORT9",
];

#[test]
fn import_names_equals_its_word_list_oracle_on_scraps() {
    for case in 0..256 {
        let mut rng = SmallRng::seed_from_u64(case);
        let picks: Vec<usize> = (0..rng.gen_range(0..40))
            .map(|_| rng.gen_range(0..IMPORT_SCRAPS.len()))
            .collect();
        println!("case {case}: picks {picks:?}");
        let source: String = picks.iter().map(|&i| IMPORT_SCRAPS[i]).collect();
        assert_eq!(
            ccm2_incr::import_names(&source),
            import_names_by_word_list(&source),
            "{source:?}"
        );
    }
}

#[test]
fn import_names_equals_its_word_list_oracle_on_generated_modules() {
    for case in 0..256 {
        let seed = SmallRng::seed_from_u64(case).gen_range(0u64..1_000_000);
        println!("case {case}: seed {seed}");
        let m = generate(&GenParams::small("Imp", seed));
        let texts = std::iter::once(m.source.as_str()).chain(m.defs.iter().map(|(_, text)| text));
        for text in texts {
            assert_eq!(
                ccm2_incr::import_names(text),
                import_names_by_word_list(text)
            );
        }
    }
}

#[test]
fn import_names_equals_its_word_list_oracle_on_the_suite_and_on_edge_cases() {
    let same = |source: &str| {
        assert_eq!(
            ccm2_incr::import_names(source),
            import_names_by_word_list(source),
            "{source:?}"
        );
    };
    for ix in 0..37 {
        let m = generate(&ccm2_workload::suite_params(ix));
        same(&m.source);
        assert!(
            !ccm2_incr::import_names(&m.source).is_empty(),
            "suite[{ix}]"
        );
        for (_, interface) in m.defs.iter() {
            same(interface);
        }
    }
    for source in [
        "",
        "FROM",
        "FROM A",
        "FROM A IMPORT",
        "FROM A IMPORT x, y",
        "IMPORT",
        "IMPORT A, B",
        "IMPORT A; IMPORT A;",
        "FROM FROM IMPORT IMPORT; IMPORT B;",
        "FROM IMPORT IMPORT x; IMPORT C;",
        "FROM A FROM B IMPORT x; IMPORT C;",
        "IMPORT FROM, IMPORT; FROM D IMPORT e;",
        "(* IMPORT C; *) MODULE M; IMPORT D; END M.",
        "MODULE M; VAR s: ARRAY OF CHAR; BEGIN s := \"IMPORT E;\"; s := 'FROM F IMPORT g;' END M.",
        "IMPORT A;IMPORT B;FROM C IMPORT d;IMPORT E",
        "IMPORTA; 9IMPORT B; IMPORT_C; FROM_D IMPORT e;",
        "a9IMPORT B; 99FROM C IMPORT d; 9a9FROM E; M; IM; FROMM F; MFROM G; IMPORT",
        "M",
        "ROM IMPORT H; MPORT I;",
        "IMPORT Ünï, Code; FROM → IMPORT x;",
    ] {
        same(source);
    }
}
