//! End-to-end tests: compile Modula-2+ programs with the *concurrent*
//! compiler and execute the merged images on the VM, checking output.
//! (The object-equivalence tests already tie the concurrent compiler to
//! the sequential one; these tie both to actual program behavior.)

use std::sync::Arc;

use ccm2::{compile_concurrent, Options};
use ccm2_support::defs::DefLibrary;
use ccm2_support::Interner;
use ccm2_vm::Vm;

fn run(source: &str) -> String {
    let out = compile_concurrent(
        source,
        Arc::new(DefLibrary::new()),
        Arc::new(Interner::new()),
        Options::threads(2),
    );
    assert!(out.is_ok(), "diagnostics: {:#?}", out.diagnostics);
    let image = out.image.expect("image");
    Vm::new(out.interner).run(&image).expect("program runs")
}

#[test]
fn fibonacci_recursion() {
    let out = run("MODULE F; \
        PROCEDURE Fib(n : INTEGER) : INTEGER; \
        BEGIN IF n <= 1 THEN RETURN n ELSE RETURN Fib(n-1) + Fib(n-2) END END Fib; \
        VAR i : INTEGER; \
        BEGIN FOR i := 0 TO 10 DO WriteInt(Fib(i), 3) END END F.");
    assert_eq!(out, "  0  1  1  2  3  5  8 13 21 34 55");
}

#[test]
fn mutual_state_through_var_params() {
    let out = run("MODULE V; \
        VAR a, b : INTEGER; \
        PROCEDURE Swap(VAR x, y : INTEGER); VAR t : INTEGER; \
        BEGIN t := x; x := y; y := t END Swap; \
        BEGIN a := 3; b := 9; Swap(a, b); WriteInt(a, 0); WriteInt(b, 2) END V.");
    assert_eq!(out, "9 3");
}

#[test]
fn arrays_and_for_loops() {
    let out = run("MODULE A; \
        VAR v : ARRAY [1..5] OF INTEGER; i, s : INTEGER; \
        BEGIN \
          FOR i := 1 TO 5 DO v[i] := i * i END; \
          s := 0; \
          FOR i := 5 TO 1 BY -1 DO s := s + v[i] END; \
          WriteInt(s, 0) \
        END A.");
    assert_eq!(out, "55");
}

#[test]
fn records_with_statement() {
    let out = run("MODULE R; \
        TYPE P = RECORD x, y : INTEGER END; \
        VAR p : P; \
        BEGIN \
          WITH p DO x := 11; y := 31 END; \
          WriteInt(p.x + p.y, 0) \
        END R.");
    assert_eq!(out, "42");
}

#[test]
fn linked_list_with_heap() {
    let out = run("MODULE L; \
        TYPE Ptr = POINTER TO N; N = RECORD v : INTEGER; nx : Ptr END; \
        VAR head, cur : Ptr; i, total : INTEGER; \
        BEGIN \
          head := NIL; \
          FOR i := 1 TO 4 DO \
            NEW(cur); cur^.v := i * 10; cur^.nx := head; head := cur \
          END; \
          total := 0; cur := head; \
          WHILE cur # NIL DO total := total + cur^.v; cur := cur^.nx END; \
          WriteInt(total, 0) \
        END L.");
    assert_eq!(out, "100");
}

#[test]
fn case_and_enumerations() {
    let out = run("MODULE C; \
        TYPE Day = (mon, tue, wed, thu, fri, sat, sun); \
        VAR d : Day; weekend : INTEGER; \
        BEGIN \
          weekend := 0; \
          FOR d := mon TO sun DO \
            CASE d OF sat, sun : INC(weekend) ELSE END \
          END; \
          WriteInt(weekend, 0) \
        END C.");
    assert_eq!(out, "2");
}

#[test]
fn sets_and_membership() {
    let out = run("MODULE S; \
        VAR evens, odds, all : BITSET; k, n : INTEGER; \
        BEGIN \
          evens := {0, 2, 4, 6, 8}; odds := {1, 3, 5, 7, 9}; \
          all := evens + odds; \
          n := 0; \
          FOR k := 0 TO 9 DO IF k IN all THEN INC(n) END END; \
          IF evens * odds = {} THEN INC(n, 100) END; \
          WriteInt(n, 0) \
        END S.");
    assert_eq!(out, "110");
}

#[test]
fn reals_and_math_builtins() {
    let out = run("MODULE M; \
        VAR r : REAL; \
        BEGIN \
          r := sqrt(2.0) * sqrt(2.0); \
          WriteReal(r, 0); WriteLn; \
          WriteInt(TRUNC(3.99), 0) \
        END M.");
    let mut lines = out.lines();
    let sqrt_line: f64 = lines.next().expect("line").trim().parse().expect("real");
    assert!((sqrt_line - 2.0).abs() < 1e-9);
    assert_eq!(lines.next().expect("line").trim(), "3");
}

#[test]
fn procedure_values() {
    let out = run("MODULE P; \
        TYPE Op = PROCEDURE (INTEGER, INTEGER) : INTEGER; \
        VAR f : Op; \
        PROCEDURE Add(a, b : INTEGER) : INTEGER; BEGIN RETURN a + b END Add; \
        PROCEDURE Mul(a, b : INTEGER) : INTEGER; BEGIN RETURN a * b END Mul; \
        PROCEDURE Apply(op : Op; x, y : INTEGER) : INTEGER; \
        BEGIN RETURN op(x, y) END Apply; \
        BEGIN \
          f := Add; WriteInt(Apply(f, 4, 5), 0); \
          f := Mul; WriteInt(Apply(f, 4, 5), 3) \
        END P.");
    assert_eq!(out, "9 20");
}

#[test]
fn nested_procedures_and_uplevel_access() {
    let out = run("MODULE N; \
        VAR log : INTEGER; \
        PROCEDURE Outer(base : INTEGER) : INTEGER; \
          VAR acc : INTEGER; \
          PROCEDURE Step(k : INTEGER); \
          BEGIN acc := acc + base * k; log := log + 1 END Step; \
        BEGIN \
          acc := 0; Step(1); Step(2); Step(3); RETURN acc \
        END Outer; \
        BEGIN \
          log := 0; \
          WriteInt(Outer(10), 0); WriteInt(log, 3) \
        END N.");
    assert_eq!(out, "60  3");
}

#[test]
fn modula2plus_lock_and_try() {
    // The Modula-2+ extensions parse and lower structurally.
    let out = run("MODULE X; \
        VAR mu : INTEGER; n : INTEGER; \
        BEGIN \
          n := 1; \
          LOCK mu DO n := n + 1 END; \
          TRY n := n * 10 EXCEPT n := 0 FINALLY INC(n) END; \
          WriteInt(n, 0) \
        END X.");
    assert_eq!(out, "21");
}

#[test]
fn char_and_string_handling() {
    let out = run("MODULE T; \
        VAR ch : CHAR; \
        BEGIN \
          ch := 'a'; \
          WriteChar(CAP(ch)); \
          WriteChar(CHR(ORD(ch) + 1)); \
          WriteString(' ok') \
        END T.");
    assert_eq!(out, "Ab ok");
}

#[test]
fn runtime_error_nil_deref_surfaces() {
    let source = "MODULE E; \
        TYPE P = POINTER TO INTEGER; VAR p : P; \
        BEGIN p := NIL; WriteInt(p^, 0) END E.";
    let out = compile_concurrent(
        source,
        Arc::new(DefLibrary::new()),
        Arc::new(Interner::new()),
        Options::threads(2),
    );
    assert!(out.is_ok(), "{:#?}", out.diagnostics);
    let err = Vm::new(out.interner)
        .run(&out.image.expect("image"))
        .expect_err("NIL deref");
    assert!(err.message.contains("NIL"));
}

#[test]
fn open_array_parameters_and_high() {
    let out = run("MODULE O; \
        VAR data : ARRAY [1..6] OF INTEGER; i : INTEGER; \
        PROCEDURE Sum(a : ARRAY OF INTEGER) : INTEGER; \
        VAR k, s : INTEGER; \
        BEGIN \
          s := 0; \
          FOR k := 0 TO HIGH(a) DO s := s + a[k] END; \
          RETURN s \
        END Sum; \
        BEGIN \
          FOR i := 1 TO 6 DO data[i] := i END; \
          WriteInt(Sum(data), 0) \
        END O.");
    assert_eq!(out, "21");
}

#[test]
fn value_parameters_copy_arrays() {
    let out = run("MODULE C; \
        VAR data : ARRAY [0..2] OF INTEGER; \
        PROCEDURE Clobber(a : ARRAY OF INTEGER) : INTEGER; \
        BEGIN a[0] := 999; RETURN a[0] END Clobber; \
        BEGIN \
          data[0] := 5; \
          WriteInt(Clobber(data), 0); \
          WriteInt(data[0], 4) \
        END C.");
    assert_eq!(out, "999   5", "callee mutation must not leak to caller");
}

#[test]
fn value_parameters_copy_records() {
    let out = run("MODULE R; \
        TYPE P = RECORD x : INTEGER END; \
        VAR v : P; \
        PROCEDURE Poke(r : P); BEGIN r.x := 42 END Poke; \
        BEGIN v.x := 1; Poke(v); WriteInt(v.x, 0) END R.");
    assert_eq!(out, "1");
}

#[test]
fn deep_static_links() {
    let out = run("MODULE D; \
        PROCEDURE L1(a : INTEGER) : INTEGER; \
          PROCEDURE L2(b : INTEGER) : INTEGER; \
            PROCEDURE L3(c : INTEGER) : INTEGER; \
            BEGIN RETURN a * 100 + b * 10 + c END L3; \
          BEGIN RETURN L3(b + 1) END L2; \
        BEGIN RETURN L2(a + 1) END L1; \
        BEGIN WriteInt(L1(1), 0) END D.");
    assert_eq!(out, "123");
}

#[test]
fn recursion_with_uplevel_mutation() {
    // Each recursive activation of Outer has its own `count`; the nested
    // procedure must bind to the *current* activation's frame.
    let out = run("MODULE A; \
        PROCEDURE Outer(depth : INTEGER) : INTEGER; \
        VAR count : INTEGER; \
          PROCEDURE Note; BEGIN INC(count) END Note; \
        BEGIN \
          count := 0; \
          Note; Note; \
          IF depth > 0 THEN count := count + Outer(depth - 1) END; \
          RETURN count \
        END Outer; \
        BEGIN WriteInt(Outer(3), 0) END A.");
    assert_eq!(out, "8", "2 per activation x 4 activations");
}

#[test]
fn subranges_enforce_array_bounds_at_runtime() {
    let source = "MODULE B; \
        VAR a : ARRAY [3..5] OF INTEGER; i : INTEGER; \
        BEGIN i := 9; a[i] := 1 END B.";
    let out = compile_concurrent(
        source,
        Arc::new(DefLibrary::new()),
        Arc::new(Interner::new()),
        Options::threads(2),
    );
    assert!(out.is_ok());
    let err = Vm::new(out.interner)
        .run(&out.image.expect("image"))
        .expect_err("bounds");
    assert!(err.message.contains("out of bounds"), "{}", err.message);
}

#[test]
fn qualified_constants_and_procs_via_def_modules() {
    let mut consts = DefLibrary::new();
    consts.insert(
        "Consts",
        "DEFINITION MODULE Consts; CONST Answer = 42; Mask = {1, 3}; END Consts.",
    );
    let mut lists = DefLibrary::new();
    lists.insert("MathLib", "DEFINITION MODULE MathLib; CONST Pi = 3.14159; PROCEDURE Square(x : INTEGER) : INTEGER; END MathLib.");
    lists.insert("Lists", "DEFINITION MODULE Lists; FROM MathLib IMPORT Pi; TYPE List; CONST MaxLen = 100; PROCEDURE Length(l : List) : INTEGER; END Lists.");
    let programs = [
        (
            consts,
            "MODULE Q; \
            IMPORT Consts; FROM Consts IMPORT Mask; \
            VAR n : INTEGER; \
            BEGIN \
              n := Consts.Answer; \
              IF 3 IN Mask THEN INC(n, 100) END; \
              WriteInt(n, 0) \
            END Q.",
            "142",
        ),
        // Sum(10) = 55 through a nested procedure, plus Fib(10) = 55.
        (
            lists,
            "MODULE Big; \
            IMPORT Lists; FROM MathLib IMPORT Square; \
            CONST N = Lists.MaxLen DIV 10; \
            VAR total : INTEGER; i : INTEGER; \
            PROCEDURE Sum(n : INTEGER) : INTEGER; \
              VAR acc, k : INTEGER; \
              PROCEDURE Add(v : INTEGER); BEGIN acc := acc + v END Add; \
            BEGIN acc := 0; FOR k := 1 TO n DO Add(k) END; RETURN acc END Sum; \
            PROCEDURE Fib(n : INTEGER) : INTEGER; \
            BEGIN IF n <= 1 THEN RETURN n ELSE RETURN Fib(n-1) + Fib(n-2) END END Fib; \
            BEGIN total := Sum(N) + Fib(10); WriteInt(total, 0); WriteLn END Big.",
            "110\n",
        ),
    ];
    for (lib, source, expected) in programs {
        let out = compile_concurrent(
            source,
            Arc::new(lib),
            Arc::new(Interner::new()),
            Options::threads(2),
        );
        assert!(out.is_ok(), "{:#?}", out.diagnostics);
        let text = Vm::new(out.interner)
            .run(&out.image.expect("image"))
            .expect("runs");
        assert_eq!(text, expected);
    }
}
