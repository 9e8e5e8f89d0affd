//! Fault-injection properties: any single injected fault degrades only
//! its own stream.
//!
//! Every `task:` site of the fault matrix runs on both executors, twice,
//! each time under a DKY strategy the case's seed draws. A compile with
//! one injected fault must
//!
//! * terminate — no hang: the executor signals a dead task's declared
//!   events, and a dead ProcParse releases the headings of the streams
//!   nested in it that it never declared; and no unwinding out of the
//!   executor,
//! * surface at least one error diagnostic naming the faulted stream,
//! * leave every non-faulted stream's object code byte-identical to the
//!   fault-free compile of the same module.
//!
//! The audit that a degraded threaded run leaves no OS thread behind
//! counts the process's threads, so it runs in a binary of its own
//! (`tests/thread_audit.rs`).

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ccm2_bench::kit::{compile, fault_module, unit_map};
use ccm2_faults::FaultPlan;
use ccm2_sema::symtab::DkyStrategy;
use ccm2_workload::GeneratedModule;

fn module() -> GeneratedModule {
    fault_module("Px", 0xF0)
}

/// (site pattern, streams the fault may legitimately touch).
const SITES: [(&str, &[&str]); 5] = [
    ("task:procparse(FaultShort)", &["FaultShort"]),
    ("task:procparse(FaultNest)", &["FaultNest"]),
    ("task:analyze(*FaultLong)", &["FaultLong"]),
    ("task:codegen(*FaultLong)", &["FaultLong"]),
    ("task:codegen(*FaultShort)", &["FaultShort"]),
];

#[test]
fn any_single_fault_degrades_only_its_own_stream() {
    for case in 0..20u64 {
        let (pattern, touched) = SITES[case as usize / 2 % SITES.len()];
        let sim = case % 2 == 0;
        let strategy_ix = SmallRng::seed_from_u64(case).gen_range(0usize..4);
        println!("case {case}: {pattern}, strategy_ix {strategy_ix}, sim {sim}");
        let strategy = DkyStrategy::ALL[strategy_ix];
        let m = module();

        let baseline = compile(&m, None, strategy, sim);
        assert!(
            baseline.errors.is_empty(),
            "baseline not clean: {:?}",
            baseline.errors
        );
        let base_units = unit_map(&baseline);

        let plan = Arc::new(FaultPlan::single(pattern));
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            compile(&m, Some(Arc::clone(&plan)), strategy, sim)
        }))
        .unwrap_or_else(|_| {
            panic!("{pattern} [{strategy:?}, sim={sim}]: compile unwound instead of degrading")
        });

        assert!(plan.any_fired(), "{pattern}: fault site never fired");
        assert!(!run.errors.is_empty(), "{pattern}: no degradation error");
        let named = run
            .diagnostics
            .iter()
            .any(|d| touched.iter().any(|t| d.message.contains(t)));
        assert!(
            named,
            "{pattern}: no diagnostic names the faulted stream: {:#?}",
            run.diagnostics
        );

        let is_touched = |name: &str| touched.iter().any(|t| name.contains(t));
        let faulted_units = unit_map(&run);
        for (name, rendered) in &faulted_units {
            if is_touched(name) {
                continue;
            }
            assert_eq!(
                Some(rendered),
                base_units.get(name),
                "{pattern} [{strategy:?}, sim={sim}]: non-faulted unit `{name}` diverged"
            );
        }
        for name in base_units.keys() {
            if !is_touched(name) {
                assert!(
                    faulted_units.contains_key(name),
                    "{pattern}: non-faulted unit `{name}` missing from degraded image"
                );
            }
        }
    }
}

/// Same fault plan, same executor → byte-identical degraded output (the
/// injection decision is a pure function of the site name, and all
/// degradation artifacts are sorted deterministically).
#[test]
fn degraded_runs_are_deterministic_on_the_simulator() {
    let m = module();
    let run = |_: u32| {
        compile(
            &m,
            Some(Arc::new(FaultPlan::single("task:codegen(*FaultLong)"))),
            DkyStrategy::Skeptical,
            true,
        )
    };
    let a = run(0);
    let b = run(1);
    assert_eq!(a.errors, b.errors);
    assert_eq!(
        a.diagnostics.iter().map(|d| &d.message).collect::<Vec<_>>(),
        b.diagnostics.iter().map(|d| &d.message).collect::<Vec<_>>()
    );
    assert_eq!(unit_map(&a), unit_map(&b));
}

/// A producer that dies takes its queue's writer with it, and a dropped
/// writer closes the stream: the consumers of a dead Lexor read an empty
/// stream and the compile ends with errors, where it used to leave them
/// parked on a block that would never come.
#[test]
fn a_dead_lexor_ends_its_stream_instead_of_hanging() {
    let m = module();
    for sim in [true, false] {
        for site in ["task:lex(Main)", "task:split(Main)"] {
            let plan = Arc::new(FaultPlan::single(site));
            let out = compile(&m, Some(Arc::clone(&plan)), DkyStrategy::Skeptical, sim);
            assert!(plan.any_fired(), "{site} [sim={sim}]: never fired");
            assert!(!out.errors.is_empty(), "{site} [sim={sim}]: no error");
        }
    }
}
