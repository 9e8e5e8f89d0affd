//! Watchdog edge case: the wedge-release / late-signal race.
//!
//! A wedge release force-signals the events a wedged run is blocked on.
//! A waiter released that way may still *legitimately* signal the same
//! events afterwards — signals are idempotent, so the race is harmless
//! on both executors: every body runs exactly once and the run
//! terminates with one wedge diagnosis.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ccm2_faults::{FaultKind, FaultPlan};
use ccm2_sched::task::{TaskDesc, TaskKind, WaitSet};
use ccm2_sched::{run_sim_with, run_threaded_with, EventClass, ExecEnv, Robustness, SimConfig};

/// Builds the wedge-race graph on any executor: `producer` signals
/// `lost` (dropped by the plan), `relay` waits on `lost` then signals
/// `gate`, `waiter` waits on `gate`. The run wedges with `relay` and
/// `waiter` blocked; the watchdog force-releases, after which `relay`'s
/// late — now redundant — `signal(gate)` races the release. Returns the
/// per-body run counters.
fn wedge_race(env: &(impl ExecEnv + ?Sized + 'static), env_arc: ArcEnv) -> [Arc<AtomicUsize>; 3] {
    let counters = [
        Arc::new(AtomicUsize::new(0)),
        Arc::new(AtomicUsize::new(0)),
        Arc::new(AtomicUsize::new(0)),
    ];
    let lost = env.new_event_named(EventClass::Handled, "lost");
    let gate = env.new_event_named(EventClass::Handled, "gate");

    let c = Arc::clone(&counters[0]);
    let mut producer = TaskDesc::new(
        "producer",
        TaskKind::Lexor,
        Box::new(move || {
            c.fetch_add(1, Ordering::Relaxed);
        }),
    );
    producer.signals = vec![lost];
    env.spawn(producer);

    let c = Arc::clone(&counters[1]);
    let e = env_arc.clone();
    let mut relay = TaskDesc::new(
        "relay",
        TaskKind::ProcParse,
        Box::new(move || {
            e.wait(lost);
            c.fetch_add(1, Ordering::Relaxed);
            // The late legitimate signal: by now the wedge release may
            // already have force-signaled `gate`. Idempotent either way.
            e.signal(gate);
        }),
    );
    relay.signals = vec![gate];
    relay.may_wait = WaitSet {
        events: vec![lost],
        all_def_scopes: false,
        any_barrier: false,
    };
    env.spawn(relay);

    let c = Arc::clone(&counters[2]);
    let e = env_arc.clone();
    let mut waiter = TaskDesc::new(
        "waiter",
        TaskKind::ShortCodeGen,
        Box::new(move || {
            e.wait(gate);
            c.fetch_add(1, Ordering::Relaxed);
        }),
    );
    waiter.may_wait = WaitSet {
        events: vec![gate],
        all_def_scopes: false,
        any_barrier: false,
    };
    env.spawn(waiter);
    counters
}

/// Type-erased env handle the task bodies capture (both executors).
type ArcEnv = Arc<dyn ExecEnv>;

#[test]
fn sim_wedge_release_races_late_legitimate_signal() {
    let plan = Arc::new(FaultPlan::single("signal:lost", FaultKind::LoseSignal));
    let mut counters = None;
    let report = run_sim_with(
        SimConfig::new(2),
        Robustness::degrading(Some(plan)),
        |env| {
            counters = Some(wedge_race(env.as_ref(), Arc::clone(env) as ArcEnv));
        },
    );
    let counters = counters.expect("setup ran");
    for (i, c) in counters.iter().enumerate() {
        assert_eq!(
            c.load(Ordering::Relaxed),
            1,
            "body {i} must run exactly once"
        );
    }
    assert_eq!(report.tasks_run, 3);
    assert!(
        report.stalls.iter().any(|s| s.contains("released wedge")),
        "wedge release must be diagnosed: {:?}",
        report.stalls
    );
}

#[test]
fn threaded_wedge_release_races_late_legitimate_signal() {
    let plan = Arc::new(FaultPlan::single("signal:lost", FaultKind::LoseSignal));
    let mut counters = None;
    let report = run_threaded_with(2, Robustness::degrading(Some(plan)), |sup| {
        counters = Some(wedge_race(sup.as_ref(), Arc::clone(sup) as ArcEnv));
    });
    let counters = counters.expect("setup ran");
    for (i, c) in counters.iter().enumerate() {
        assert_eq!(
            c.load(Ordering::Relaxed),
            1,
            "body {i} must run exactly once"
        );
    }
    assert_eq!(report.tasks_run, 3);
    assert!(
        !report.stalls.is_empty(),
        "wedge release must be diagnosed: {:?}",
        report.stalls
    );
}
