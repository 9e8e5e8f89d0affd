//! Supervised stream retry: transient faults recover to byte-identical
//! output, persistent faults exhaust the budget and degrade, and the
//! default (zero retries) keeps the historical degrade-immediately
//! behavior.
//!
//! The fault-site retry namespace does the transient/persistent split:
//! dispatch attempt 0 queries `task:{name}`, attempt `k` queries
//! `task:{name}#r{k}`, so an exact override fires once (transient) and
//! a `task:{name}*` glob fires on every attempt (persistent).

use std::sync::Arc;

use ccm2::CompileError;
use ccm2_bench::kit::{compile, fault_module, unit_map};
use ccm2_faults::{FaultKind, FaultPlan};
use ccm2_sema::symtab::DkyStrategy;
use ccm2_support::diag::Severity;
use ccm2_workload::GeneratedModule;

fn module() -> GeneratedModule {
    fault_module("Rx", 0xF1)
}

/// Transient faults × DKY strategies × both executors: with a retry
/// budget, a recovered run is byte-identical to the fault-free one —
/// including the faulted stream — carries only `Recovered` errors, and
/// still counts as an `is_ok()` compile.
#[test]
fn transient_faults_recover_byte_identical_across_strategies_and_executors() {
    let m = module();
    let sites = [
        "task:procparse(FaultShort)",
        "task:codegen(*FaultLong)",
        "task:analyze(*FaultLong)",
    ];
    for strategy in DkyStrategy::ALL {
        for sim in [true, false] {
            let baseline = compile(&m, None, None, strategy, sim, 0);
            assert!(baseline.errors.is_empty(), "{:?}", baseline.errors);
            let base_units = unit_map(&baseline);
            for site in sites {
                let plan = Arc::new(FaultPlan::single(site, FaultKind::Panic));
                let run = compile(&m, Some(Arc::clone(&plan)), None, strategy, sim, 2);
                assert!(plan.any_fired(), "{site}: fault never fired");
                assert!(
                    !run.errors.is_empty()
                        && run
                            .errors
                            .iter()
                            .all(|e| matches!(e, CompileError::Recovered { .. })),
                    "{site} [{strategy:?}, sim={sim}]: expected only Recovered, got {:?}",
                    run.errors
                );
                assert!(
                    run.is_ok(),
                    "{site} [{strategy:?}, sim={sim}]: recovery must not fail the compile"
                );
                assert_eq!(
                    unit_map(&run),
                    base_units,
                    "{site} [{strategy:?}, sim={sim}]: recovered output diverged"
                );
            }
        }
    }
}

/// The recovery diagnostic is a Note — visible in reports, but it fails
/// neither the compile nor the incremental cache's clean check — and it
/// names the task and the number of faulted attempts.
#[test]
fn recovery_is_reported_as_a_note_naming_task_and_attempts() {
    let m = module();
    let plan = Arc::new(FaultPlan::single(
        "task:procparse(FaultShort)",
        FaultKind::Panic,
    ));
    let run = compile(&m, Some(plan), None, DkyStrategy::Skeptical, true, 3);
    let note = run
        .diagnostics
        .iter()
        .find(|d| d.message.contains("stream recovered"))
        .expect("recovery diagnostic present");
    assert_eq!(note.severity, Severity::Note);
    assert!(
        note.message.contains("procparse(FaultShort)") && note.message.contains("1 retried"),
        "{}",
        note.message
    );
    assert!(run
        .errors
        .iter()
        .any(|e| matches!(e, CompileError::Recovered { task, attempts }
            if task.contains("FaultShort") && *attempts == 1)));
}

/// A persistent fault (trailing glob: every retry attempt re-faults)
/// exhausts the budget and degrades exactly like the historical path,
/// on both executors; non-faulted streams stay byte-identical.
#[test]
fn persistent_faults_exhaust_retries_and_degrade() {
    let m = module();
    for sim in [true, false] {
        let baseline = compile(&m, None, None, DkyStrategy::Skeptical, sim, 0);
        let base_units = unit_map(&baseline);
        let plan = Arc::new(FaultPlan::single(
            "task:procparse(FaultShort)*",
            FaultKind::Panic,
        ));
        let run = compile(
            &m,
            Some(Arc::clone(&plan)),
            None,
            DkyStrategy::Skeptical,
            sim,
            2,
        );
        assert!(
            run.errors.iter().any(|e| matches!(
                e,
                CompileError::StreamFault { task, .. } if task.contains("FaultShort")
            )),
            "sim={sim}: persistent fault must degrade: {:?}",
            run.errors
        );
        assert!(
            plan.fired().iter().any(|f| f.contains("#r2")),
            "sim={sim}: retry budget not fully consumed: {:?}",
            plan.fired()
        );
        for (name, rendered) in unit_map(&run) {
            if name.contains("FaultShort") {
                continue;
            }
            assert_eq!(
                Some(&rendered),
                base_units.get(&name),
                "sim={sim}: non-faulted unit `{name}` diverged"
            );
        }
    }
}

/// `max_stream_retries: 0` (the `Options` default) keeps the historical
/// behavior bit for bit: the first fatal fault degrades the stream, no
/// retry site is ever queried, and no recovery is reported.
#[test]
fn zero_retries_preserves_historical_degradation() {
    let m = module();
    for sim in [true, false] {
        let plan = Arc::new(
            FaultPlan::single("task:procparse(FaultShort)", FaultKind::Panic)
                .with_probe_recording(),
        );
        let run = compile(
            &m,
            Some(Arc::clone(&plan)),
            None,
            DkyStrategy::Skeptical,
            sim,
            0,
        );
        assert!(run
            .errors
            .iter()
            .any(|e| matches!(e, CompileError::StreamFault { .. })));
        assert!(!run
            .errors
            .iter()
            .any(|e| matches!(e, CompileError::Recovered { .. })));
        assert!(
            plan.probed().iter().all(|s| !s.contains("#r")),
            "sim={sim}: no retry site may be queried with a zero budget"
        );
    }
}

/// Recovered runs are deterministic on the simulator: same plan, same
/// retry budget → identical errors, diagnostics, units and virtual time
/// (the retry penalty is charged in virtual time, so even the makespan
/// reproduces).
#[test]
fn recovered_runs_are_deterministic_on_the_simulator() {
    let m = module();
    let run = |_: u32| {
        compile(
            &m,
            Some(Arc::new(FaultPlan::single(
                "task:codegen(*FaultLong)",
                FaultKind::Panic,
            ))),
            None,
            DkyStrategy::Skeptical,
            true,
            2,
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
    assert_eq!(a.report.virtual_time, b.report.virtual_time);
}
