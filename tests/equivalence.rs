//! The central correctness property of the reproduction: for every input,
//! the concurrent compiler — under any executor, worker count, DKY
//! strategy, and §2.4 heading mode — produces exactly the object image and
//! diagnostics of the conventional sequential compiler.

use ccm2::Options;
use ccm2_sema::declare::HeadingMode;
use ccm2_serve::ExecChoice;
use ccm2_support::defs::DefLibrary;
use ccm2_workload::{generate, GenParams};

pub mod contract;
use contract::{agree, run, Exec, Path, Program};

fn modules_under_test() -> Vec<Program> {
    let mut out: Vec<Program> = (0..6u64)
        .map(|seed| generate(&GenParams::small(&format!("Eq{seed}"), seed)).into())
        .collect();
    // A bigger one with nesting and deep imports.
    let big = generate(&GenParams {
        name: "EqBig".into(),
        seed: 99,
        procedures: 30,
        interfaces: 12,
        import_depth: 6,
        stmts_per_proc: 18,
        nested_ratio: 0.25,
        lint_seeds: false,
        lock_seeds: false,
    });
    out.push(big.into());
    out.push(imports_and_nesting());
    out
}

/// A hand-written module over two definition modules: a constant of the
/// main module computed from an imported one, an opaque type, a nested
/// procedure writing its parent's local, and a recursive function.
/// `end_to_end.rs` runs the same text on the VM.
fn imports_and_nesting() -> Program {
    let mut lib = DefLibrary::new();
    lib.insert("MathLib", "DEFINITION MODULE MathLib; CONST Pi = 3.14159; PROCEDURE Square(x : INTEGER) : INTEGER; END MathLib.");
    lib.insert("Lists", "DEFINITION MODULE Lists; FROM MathLib IMPORT Pi; TYPE List; CONST MaxLen = 100; PROCEDURE Length(l : List) : INTEGER; END Lists.");
    let source = "MODULE Big; \
        IMPORT Lists; FROM MathLib IMPORT Square; \
        CONST N = Lists.MaxLen DIV 10; \
        VAR total : INTEGER; i : INTEGER; \
        PROCEDURE Sum(n : INTEGER) : INTEGER; \
          VAR acc, k : INTEGER; \
          PROCEDURE Add(v : INTEGER); BEGIN acc := acc + v END Add; \
        BEGIN acc := 0; FOR k := 1 TO n DO Add(k) END; RETURN acc END Sum; \
        PROCEDURE Fib(n : INTEGER) : INTEGER; \
        BEGIN IF n <= 1 THEN RETURN n ELSE RETURN Fib(n-1) + Fib(n-2) END END Fib; \
        BEGIN total := Sum(N) + Fib(10); WriteInt(total, 0); WriteLn END Big.";
    Program::new(source, lib)
}

#[test]
fn concurrent_equals_sequential_across_worker_counts() {
    let paths = [1, 2, 4].map(|workers| Path::on(Exec::Split(ExecChoice::Threads(workers))));
    for program in modules_under_test() {
        agree(&program, &paths);
    }
}

#[test]
fn concurrent_equals_sequential_on_simulator() {
    let paths = [1, 3, 8].map(|procs| Path::on(Exec::Split(ExecChoice::Sim(procs))));
    for program in modules_under_test() {
        agree(&program, &paths);
    }
}

#[test]
fn all_dky_strategies_produce_identical_output() {
    for program in modules_under_test().into_iter().take(4) {
        agree(&program, &Path::all_on(Exec::Split(ExecChoice::Sim(4))));
    }
}

#[test]
fn both_heading_modes_produce_identical_output() {
    let programs = modules_under_test();
    for program in programs.iter().take(4) {
        for heading in [HeadingMode::CopyToChild, HeadingMode::Reprocess] {
            let program = Program {
                heading,
                ..program.clone()
            };
            agree(&program, &[Path::on(Exec::Split(ExecChoice::Sim(4)))]);
        }
    }
    // The two modes must also agree with *each other* (alternative 3's
    // whole point is producing identical entries in both scopes).
    let copy = &programs[1];
    let reprocess = Program {
        heading: HeadingMode::Reprocess,
        ..copy.clone()
    };
    assert_eq!(run(&Path::Seq, copy).0, run(&Path::Seq, &reprocess).0);
}

#[test]
fn lint_findings_identical_between_compilers_under_all_strategies() {
    // The no-early-split ablation routes every unit through
    // process_local_procs instead of procedure streams: the unit
    // inventory (and so the findings) must not change.
    let mut paths = Path::all_on(Exec::Split(ExecChoice::Sim(4)));
    paths.push(Path::on(Exec::Split(ExecChoice::Threads(4))));
    paths.push(Path::on(Exec::NoEarlySplit(ExecChoice::Sim(4))));
    for program in modules_under_test() {
        agree(&program.analyzed(), &paths);
    }
}

#[test]
fn sim_runs_are_bit_for_bit_deterministic() {
    let program = Program::from(generate(&GenParams::small("Det", 3)));
    let run = || program.compile(Options::sim(5));
    let a = run();
    let b = run();
    assert_eq!(a.report.virtual_time, b.report.virtual_time);
    assert_eq!(a.report.tasks_run, b.report.tasks_run);
    assert_eq!(a.report.trace.segments.len(), b.report.trace.segments.len());
    assert_eq!(a.stats.simple_total(), b.stats.simple_total());
    assert_eq!(a.stats.dky_blockages(), b.stats.dky_blockages());
}

#[test]
fn repeated_threaded_runs_are_stable() {
    // Thread scheduling varies; the *output* must not.
    let program = Program::from(generate(&GenParams::small("Stress", 17)));
    let rounds = vec![Path::on(Exec::Split(ExecChoice::Threads(4))); 10];
    let (image, diagnostics) = agree(&program, &rounds);
    assert!(image.is_some() && diagnostics.is_empty(), "{diagnostics:?}");
}

#[test]
fn no_early_split_ablation_is_still_equivalent() {
    // The §2.1 ablation (procedures discovered at parse time, not by the
    // splitter) changes scheduling drastically but must not change output.
    let paths =
        [ExecChoice::Sim(4), ExecChoice::Threads(2)].map(|on| Path::on(Exec::NoEarlySplit(on)));
    for program in modules_under_test().into_iter().take(3) {
        agree(&program, &paths);
    }
}

/// A linked list over `POINTER TO <type declared later>`: the pointer is
/// created pending and patched when the module's declaration part ends,
/// while the procedure bodies that dereference it already compile on
/// other workers.
fn forward_list_module() -> String {
    let mut src = String::from(
        "MODULE FwdList;\n\
         TYPE List = POINTER TO Node;\n\
         \x20    Node = RECORD next : List; val : INTEGER END;\n\
         VAR head : List;\n",
    );
    for k in 0..12 {
        src.push_str(&format!(
            "PROCEDURE Push{k}(v : INTEGER);\n\
             \x20 VAR n : List;\n\
             BEGIN\n\
             \x20 NEW(n); n^.val := v + {k}; n^.next := head; head := n\n\
             END Push{k};\n\
             PROCEDURE Sum{k}() : INTEGER;\n\
             \x20 VAR p : List; s : INTEGER;\n\
             BEGIN\n\
             \x20 s := {k}; p := head;\n\
             \x20 WHILE p # NIL DO s := s + p^.val; p := p^.next END;\n\
             \x20 RETURN s\n\
             END Sum{k};\n"
        ));
    }
    src.push_str("BEGIN\n  Push0(1); Push3(2); WriteInt(Sum5(), 0); WriteLn\nEND FwdList.\n");
    src
}

#[test]
fn forward_pointer_deref_waits_for_the_declaring_scope() {
    let program = Program::new(forward_list_module(), DefLibrary::new());
    let mut paths = Vec::new();
    for workers in [2, 4] {
        paths.extend(vec![
            Path::on(Exec::Split(ExecChoice::Threads(workers)));
            2000
        ]);
    }
    paths.extend(Path::all_on(Exec::Split(ExecChoice::Sim(8))));
    let (image, diagnostics) = agree(&program, &paths);
    assert!(image.is_some() && diagnostics.is_empty(), "{diagnostics:?}");
}
