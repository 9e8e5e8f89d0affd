//! Real-thread compilation of suite-scale programs: the threaded
//! Supervisors executor must handle hundreds of tasks with nested
//! rescheduling and produce the sequential compiler's exact output.

use std::sync::Arc;

use ccm2::{compile_concurrent, Options};
use ccm2_sema::symtab::DkyStrategy;
use ccm2_serve::ExecChoice;
use ccm2_support::Interner;
use ccm2_workload::{generate, suite_params};

pub mod contract;
use contract::{agree, Exec, Output, Path, Program};

#[test]
fn medium_suite_entries_compile_on_four_workers() {
    for index in [6usize, 12, 18] {
        let program = Program::from(generate(&suite_params(index)));
        let seq = program.seq();
        assert!(
            seq.is_ok(),
            "{index}: {:?}",
            &seq.diagnostics[..3.min(seq.diagnostics.len())]
        );
        let conc = program.compile(Options::threads(4));
        assert!(conc.is_ok(), "{index}");
        assert_eq!(conc.comparable(), seq.comparable(), "suite[{index}]");
        // Figure 5: 2–5 tasks per stream (procedure streams have 2,
        // definition-module streams 3, the main stream 4).
        assert!(
            conc.report.tasks_run >= 2 * conc.streams,
            "suite[{index}]: expected ≥2 tasks per stream, got {} for {} streams",
            conc.report.tasks_run,
            conc.streams
        );
    }
}

#[test]
fn large_suite_entry_with_every_strategy_on_threads() {
    let program = Program::from(generate(&suite_params(24)));
    let (image, diagnostics) = agree(&program, &Path::all_on(Exec::Split(ExecChoice::Threads(3))));
    assert!(image.is_some() && diagnostics.is_empty(), "{diagnostics:?}");
}

#[test]
fn single_worker_handles_deep_nesting_chains() {
    // One worker forces maximal nested rescheduling (every DKY resolver
    // runs nested on the single worker's stack).
    let m = generate(&ccm2_workload::GenParams {
        name: "DeepChain".into(),
        seed: 77,
        procedures: 10,
        interfaces: 10,
        import_depth: 10,
        stmts_per_proc: 10,
        nested_ratio: 0.2,
        lint_seeds: false,
        lock_seeds: false,
    });
    let out = compile_concurrent(
        &m.source,
        Arc::new(m.defs.clone()),
        Arc::new(Interner::new()),
        Options::threads(1),
    );
    assert!(
        out.is_ok(),
        "{:?}",
        &out.diagnostics[..3.min(out.diagnostics.len())]
    );
    assert_eq!(out.imported_interfaces, 10);
}

#[test]
fn eight_workers_on_one_cpu_is_safe() {
    // More workers than physical CPUs must still be correct (the paper's
    // "one worker per processor" is a performance choice, not a safety
    // requirement).
    let program = Program::from(generate(&suite_params(10)));
    agree(&program, &[Path::on(Exec::Split(ExecChoice::Threads(8)))]);
}

/// Work charges are counted per worker and added up when the workers
/// end: nothing may be lost or counted twice on the way, so one worker,
/// four workers and the simulator must report the same units for every
/// kind of work, and every strategy makes the same number of simple and
/// qualified lookups on each. Under Skeptical and Optimistic a lookup
/// that blocked is charged for its second search, and whether it blocks
/// depends on the interleaving: the threads may differ there in `Lookup`
/// units and in Table 2's rows, the simulator repeats both run to run;
/// every other kind must agree under every strategy. Pessimistic never
/// searches twice, so there `Lookup` must agree too.
#[test]
fn work_charges_equal_on_one_worker_four_workers_and_the_simulator() {
    use ccm2_support::work::Work;
    let m = generate(&suite_params(18));
    let run = |strategy, executor: Options| {
        let out = compile_concurrent(
            &m.source,
            Arc::new(m.defs.clone()),
            Arc::new(Interner::new()),
            Options {
                strategy,
                ..executor
            },
        );
        assert!(out.is_ok());
        let stats = &out.stats;
        let totals = [stats.simple_total(), stats.qualified_total()];
        let rows = (stats.simple_rows(), stats.qualified_rows());
        (out.report.charges, totals, rows)
    };
    let charges = |strategy, executor| run(strategy, executor).0;
    let want = charges(DkyStrategy::Pessimistic, Options::threads(1));
    assert!(want[Work::Lex as usize] > 0 && want[Work::Lookup as usize] > 0);
    for _ in 0..10 {
        assert_eq!(charges(DkyStrategy::Pessimistic, Options::threads(4)), want);
    }
    assert_eq!(charges(DkyStrategy::Pessimistic, Options::sim(4)), want);

    for strategy in DkyStrategy::ALL {
        let totals = [Options::threads(1), Options::threads(4), Options::sim(4)]
            .map(|executor| run(strategy, executor).1);
        assert!(
            totals.iter().all(|t| *t == totals[0]),
            "{}: simple and qualified lookups {totals:?}",
            strategy.name()
        );
    }

    for strategy in DkyStrategy::ALL {
        let mut want = charges(strategy, Options::threads(1));
        want[Work::Lookup as usize] = 0;
        for executor in [Options::threads(4), Options::sim(4)] {
            let mut got = charges(strategy, executor);
            got[Work::Lookup as usize] = 0;
            assert_eq!(got, want, "{}", strategy.name());
        }
        let sim = || {
            let (charges, _, rows) = run(strategy, Options::sim(4));
            (charges[Work::Lookup as usize], rows)
        };
        let first = sim();
        for _ in 0..2 {
            assert_eq!(sim(), first, "{}: sim(4) repeats", strategy.name());
        }
    }
}

/// The driver owns the `Sema` and the `Sema` calls the driver back
/// (DKY waits, table notifications): held strongly both ways, every
/// compile stayed in memory for the life of the process — a quarter of
/// a megabyte per suite module. The output's statistics handle is
/// shared with the `Sema`'s resolver, so its count tells whether the
/// `Sema` is gone.
#[test]
fn a_finished_compile_frees_what_it_built() {
    let m = generate(&suite_params(6));
    for executor in [Options::threads(2), Options::sim(2)] {
        for strategy in DkyStrategy::ALL {
            let interner = Arc::new(Interner::new());
            let out = compile_concurrent(
                &m.source,
                Arc::new(m.defs.clone()),
                Arc::clone(&interner),
                Options {
                    strategy,
                    ..executor.clone()
                },
            );
            assert!(out.is_ok());
            assert_eq!(Arc::strong_count(&out.stats), 1, "Sema outlived the run");
            assert_eq!(Arc::strong_count(&interner), 2, "ours and the output's");
        }
    }
}
