//! The central correctness property of the reproduction: for every input,
//! the concurrent compiler — under any executor, worker count, DKY
//! strategy, and §2.4 heading mode — produces exactly the object image and
//! diagnostics of the conventional sequential compiler.

use std::sync::Arc;

use ccm2::{compile_concurrent, Executor, Options};
use ccm2_sched::SimConfig;
use ccm2_sema::declare::HeadingMode;
use ccm2_sema::symtab::DkyStrategy;
use ccm2_support::defs::DefLibrary;
use ccm2_support::diag::Diagnostic;
use ccm2_support::source::SourceMap;
use ccm2_support::{Interner, NullMeter};
use ccm2_workload::{generate, GenParams};

/// Normalizes diagnostics for cross-compiler comparison: the two
/// compilers register files in different orders, so FileIds differ while
/// names agree.
fn normalize(diags: &[Diagnostic], sources: &SourceMap) -> Vec<(String, u32, u32, String)> {
    let mut v: Vec<(String, u32, u32, String)> = diags
        .iter()
        .map(|d| {
            (
                sources
                    .get(d.file)
                    .map(|f| f.name().to_string())
                    .unwrap_or_else(|| format!("file#{}", d.file.0)),
                d.span.lo,
                d.span.hi,
                format!("{}: {}", d.severity, d.message),
            )
        })
        .collect();
    v.sort();
    v
}

fn assert_equivalent(source: &str, defs: &DefLibrary, options: Options, what: &str) {
    let interner = Arc::new(Interner::new());
    let seq = ccm2_seq::compile_with(
        source,
        defs,
        Arc::clone(&interner),
        Arc::new(NullMeter),
        options.heading_mode,
    );
    let conc = compile_concurrent(
        source,
        Arc::new(defs.clone()),
        Arc::clone(&interner),
        options,
    );
    assert_eq!(
        seq.image.is_some(),
        conc.image.is_some(),
        "{what}: image presence differs"
    );
    if let (Some(a), Some(b)) = (&seq.image, &conc.image) {
        assert_eq!(a, b, "{what}: object images differ");
    }
    assert_eq!(
        normalize(&seq.diagnostics, &seq.sources),
        normalize(&conc.diagnostics, &conc.sources),
        "{what}: diagnostics differ"
    );
}

fn modules_under_test() -> Vec<(String, DefLibrary)> {
    let mut out = Vec::new();
    for seed in 0..6u64 {
        let m = generate(&GenParams::small(&format!("Eq{seed}"), seed));
        out.push((m.source, m.defs));
    }
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
        fault_seeds: false,
        lock_seeds: false,
    });
    out.push((big.source, big.defs));
    out
}

#[test]
fn concurrent_equals_sequential_across_worker_counts() {
    for (src, defs) in modules_under_test() {
        for workers in [1usize, 2, 4] {
            assert_equivalent(
                &src,
                &defs,
                Options::threads(workers),
                &format!("w{workers}"),
            );
        }
    }
}

#[test]
fn concurrent_equals_sequential_on_simulator() {
    for (src, defs) in modules_under_test() {
        for procs in [1u32, 3, 8] {
            assert_equivalent(
                &src,
                &defs,
                Options {
                    executor: Executor::Sim(SimConfig::firefly(procs)),
                    ..Options::default()
                },
                &format!("sim{procs}"),
            );
        }
    }
}

#[test]
fn all_dky_strategies_produce_identical_output() {
    for (src, defs) in modules_under_test().into_iter().take(4) {
        for strategy in DkyStrategy::ALL {
            assert_equivalent(
                &src,
                &defs,
                Options {
                    strategy,
                    executor: Executor::Sim(SimConfig::firefly(4)),
                    ..Options::default()
                },
                strategy.name(),
            );
        }
    }
}

#[test]
fn both_heading_modes_produce_identical_output() {
    for (src, defs) in modules_under_test().into_iter().take(4) {
        for mode in [HeadingMode::CopyToChild, HeadingMode::Reprocess] {
            assert_equivalent(
                &src,
                &defs,
                Options {
                    heading_mode: mode,
                    executor: Executor::Sim(SimConfig::firefly(4)),
                    ..Options::default()
                },
                &format!("{mode:?}"),
            );
        }
    }
    // The two modes must also agree with *each other* (alternative 3's
    // whole point is producing identical entries in both scopes).
    let (src, defs) = &modules_under_test()[1];
    let interner = Arc::new(Interner::new());
    let a = ccm2_seq::compile_with(
        src,
        defs,
        Arc::clone(&interner),
        Arc::new(NullMeter),
        HeadingMode::CopyToChild,
    );
    let b = ccm2_seq::compile_with(
        src,
        defs,
        Arc::clone(&interner),
        Arc::new(NullMeter),
        HeadingMode::Reprocess,
    );
    assert_eq!(a.image, b.image);
}

#[test]
fn lint_findings_identical_between_compilers_under_all_strategies() {
    for (i, (src, defs)) in modules_under_test().into_iter().enumerate() {
        let interner = Arc::new(Interner::new());
        let seq = ccm2_seq::compile_full(
            &src,
            &defs,
            Arc::clone(&interner),
            Arc::new(NullMeter),
            HeadingMode::CopyToChild,
            true,
        );
        let reference = normalize(&seq.diagnostics, &seq.sources);
        for strategy in DkyStrategy::ALL {
            let conc = compile_concurrent(
                &src,
                Arc::new(defs.clone()),
                Arc::clone(&interner),
                Options {
                    strategy,
                    analyze: true,
                    executor: Executor::Sim(SimConfig::firefly(4)),
                    ..Options::default()
                },
            );
            assert_eq!(
                reference,
                normalize(&conc.diagnostics, &conc.sources),
                "module {i}, sim, {}",
                strategy.name()
            );
        }
        let threaded = compile_concurrent(
            &src,
            Arc::new(defs.clone()),
            Arc::clone(&interner),
            Options {
                analyze: true,
                ..Options::threads(4)
            },
        );
        assert_eq!(
            reference,
            normalize(&threaded.diagnostics, &threaded.sources),
            "module {i}, threaded"
        );
        // The no-early-split ablation routes every unit through
        // process_local_procs instead of procedure streams: the unit
        // inventory (and so the findings) must not change.
        let nosplit = compile_concurrent(
            &src,
            Arc::new(defs.clone()),
            Arc::clone(&interner),
            Options {
                analyze: true,
                early_split: false,
                executor: Executor::Sim(SimConfig::firefly(4)),
                ..Options::default()
            },
        );
        assert_eq!(
            reference,
            normalize(&nosplit.diagnostics, &nosplit.sources),
            "module {i}, no-early-split"
        );
    }
}

#[test]
fn sim_runs_are_bit_for_bit_deterministic() {
    let m = generate(&GenParams::small("Det", 3));
    let run = || {
        compile_concurrent(
            &m.source,
            Arc::new(m.defs.clone()),
            Arc::new(Interner::new()),
            Options {
                executor: Executor::Sim(SimConfig::firefly(5)),
                ..Options::default()
            },
        )
    };
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
    let m = generate(&GenParams::small("Stress", 17));
    let interner = Arc::new(Interner::new());
    let reference = ccm2_seq::compile_with(
        &m.source,
        &m.defs,
        Arc::clone(&interner),
        Arc::new(NullMeter),
        HeadingMode::CopyToChild,
    );
    let ref_img = reference.image.expect("seq image");
    for round in 0..10 {
        let out = compile_concurrent(
            &m.source,
            Arc::new(m.defs.clone()),
            Arc::clone(&interner),
            Options::threads(4),
        );
        assert!(out.is_ok(), "round {round}: {:?}", out.diagnostics);
        assert_eq!(out.image.expect("image"), ref_img, "round {round} diverged");
    }
}

#[test]
fn no_early_split_ablation_is_still_equivalent() {
    // The §2.1 ablation (procedures discovered at parse time, not by the
    // splitter) changes scheduling drastically but must not change output.
    for (src, defs) in modules_under_test().into_iter().take(3) {
        assert_equivalent(
            &src,
            &defs,
            Options {
                early_split: false,
                executor: Executor::Sim(SimConfig::firefly(4)),
                ..Options::default()
            },
            "no-early-split sim",
        );
        assert_equivalent(
            &src,
            &defs,
            Options {
                early_split: false,
                ..Options::threads(2)
            },
            "no-early-split threads",
        );
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
    let src = forward_list_module();
    let defs = DefLibrary::new();
    let interner = Arc::new(Interner::new());
    let seq = ccm2_seq::compile_with(
        &src,
        &defs,
        Arc::clone(&interner),
        Arc::new(NullMeter),
        HeadingMode::CopyToChild,
    );
    assert!(seq.diagnostics.is_empty(), "{:?}", seq.diagnostics);
    let want = seq.image.expect("sequential image");
    let check = |options: Options, what: &str| {
        let out = compile_concurrent(&src, Arc::new(defs.clone()), Arc::clone(&interner), options);
        assert!(out.diagnostics.is_empty(), "{what}: {:?}", out.diagnostics);
        assert_eq!(out.image.as_ref(), Some(&want), "{what}: image differs");
    };
    for workers in [2usize, 4] {
        for round in 0..2000 {
            check(
                Options::threads(workers),
                &format!("w{workers} round {round}"),
            );
        }
    }
    for strategy in DkyStrategy::ALL {
        let options = Options {
            strategy,
            executor: Executor::Sim(SimConfig::firefly(8)),
            ..Options::default()
        };
        check(options, &format!("sim8 {}", strategy.name()));
    }
}
