//! The worker crew behind `run_threaded`, seen from outside the crate:
//! how many threads it makes, and what a thread that ran a panicking run
//! is worth afterwards.
//!
//! The crew is one per process and so is shared by the tests of this
//! file: each takes [`ALONE`] first, so that the threads it counts and
//! the threads it gets back are its own doing.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

use ccm2_sched::{
    run_threaded, EventClass, ExecEnv, RunReport, TaskDesc, TaskKind, ThreadedSupervisor, WaitSet,
};
use ccm2_support::ids::EventId;
use ccm2_support::within;
use ccm2_support::work::Work;

static ALONE: Mutex<()> = Mutex::new(());

fn alone() -> std::sync::MutexGuard<'static, ()> {
    ALONE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Threads of this process named as the crew names its own. A listing
/// of `/proc/self/task` ends early when the thread it has reached exits
/// meanwhile (the test thread of the test before, say), so the count is
/// taken again until two listings agree.
fn crew_threads() -> usize {
    let listed = || {
        std::fs::read_dir("/proc/self/task")
            .expect("linux procfs")
            .filter(|task| {
                let comm = task.as_ref().expect("task entry").path().join("comm");
                // A thread may exit between the listing and the read.
                std::fs::read_to_string(comm).is_ok_and(|name| name.trim_end() == "ccm2-worker")
            })
            .count()
    };
    let mut count = listed();
    loop {
        let again = listed();
        if again == count {
            return count;
        }
        count = again;
    }
}

fn noop(name: &str) -> TaskDesc {
    TaskDesc::new(name, TaskKind::ShortCodeGen, Box::new(|| {}))
}

#[test]
fn back_to_back_runs_reuse_one_thread() {
    let _alone = alone();
    let before = crew_threads();
    for _ in 0..5_000 {
        let report = run_threaded(1, |sup| sup.spawn(noop("t")));
        assert_eq!(report.tasks_run, 1);
    }
    let after = crew_threads();
    assert!(
        after <= before.max(1),
        "5000 one-worker runs in a row grew the crew from {before} to {after} threads"
    );
}

#[test]
fn a_one_worker_run_runs_on_its_caller_and_borrows_no_thread() {
    let _alone = alone();
    let before = crew_threads();
    let ran_on: Arc<Mutex<Vec<ThreadId>>> = Arc::default();
    let seen = Arc::clone(&ran_on);
    let report = run_threaded(1, |sup| {
        sup.spawn(TaskDesc::new(
            "t",
            TaskKind::ShortCodeGen,
            Box::new(move || seen.lock().unwrap().push(std::thread::current().id())),
        ))
    });
    assert_eq!(report.tasks_run, 1);
    assert_eq!(*ran_on.lock().unwrap(), [std::thread::current().id()]);
    assert_eq!(crew_threads(), before);
}

#[test]
fn the_crew_grows_to_the_peak_demand_not_with_the_calls() {
    let _alone = alone();
    const CALLERS: usize = 8;
    let before = crew_threads();
    std::thread::scope(|scope| {
        for _ in 0..CALLERS {
            scope.spawn(|| {
                for _ in 0..300 {
                    let report = run_threaded(2, |sup| {
                        sup.spawn(noop("a"));
                        sup.spawn(noop("b"));
                    });
                    assert_eq!(report.tasks_run, 2);
                }
            });
        }
    });
    let after = crew_threads();
    // Each caller is worker 0 of its runs and borrows one thread.
    assert!(
        after <= before.max(CALLERS),
        "{CALLERS} callers of two-worker runs, 2400 runs: crew went from {before} to {after}"
    );
}

/// Two tasks on two workers; each notes its thread and then does `body`
/// with the event it is to signal and the one the other task signals.
fn run_pair(
    body: impl Fn(&ThreadedSupervisor, EventId, EventId) + Send + Sync + 'static,
) -> (std::thread::Result<RunReport>, HashSet<ThreadId>) {
    let threads: Arc<Mutex<Vec<ThreadId>>> = Arc::default();
    let seen = Arc::clone(&threads);
    let body = Arc::new(body);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_threaded(2, |sup| {
            let events = [
                sup.new_event_named(EventClass::Handled, "needs-A"),
                sup.new_event_named(EventClass::Handled, "needs-B"),
            ];
            // Each on a worker of its own before either goes on.
            let both_running = Arc::new(std::sync::Barrier::new(2));
            for (ix, name) in ["A", "B"].into_iter().enumerate() {
                let (sup2, seen, body) = (Arc::clone(sup), Arc::clone(&seen), Arc::clone(&body));
                let both_running = Arc::clone(&both_running);
                let mut t = TaskDesc::new(
                    name,
                    TaskKind::ProcParse,
                    Box::new(move || {
                        seen.lock().unwrap().push(std::thread::current().id());
                        both_running.wait();
                        body(&sup2, events[ix], events[1 - ix]);
                    }),
                );
                t.signals = vec![events[ix]];
                t.may_wait = WaitSet {
                    events: vec![events[1 - ix]],
                    all_def_scopes: false,
                    any_barrier: false,
                };
                sup.spawn(t);
            }
        })
    }));
    let threads = threads.lock().unwrap();
    (result, threads.iter().copied().collect())
}

#[test]
fn threads_that_unwound_a_deadlocked_run_serve_the_next_one() {
    let _alone = alone();
    // A awaits what only B signals and the other way round.
    let (result, wedged_on) = run_pair(|sup, mine, theirs| {
        sup.wait(theirs);
        sup.signal(mine);
    });
    let payload = result.expect_err("the run deadlocks");
    let diagnosis = payload
        .downcast_ref::<String>()
        .expect("the detecting worker's own payload, not a summary of it");
    assert!(
        diagnosis.starts_with("supervisor deadlock: all workers blocked")
            && diagnosis.contains("wait-for cycle"),
        "{diagnosis}"
    );
    assert_eq!(wedged_on.len(), 2);

    // The caller is worker 0 of both runs, and the otherwise idle crew
    // hands out its most recently returned thread first: the next run is
    // on those two.
    let (result, reused) = run_pair(|sup, _, _| {
        sup.charge(Work::Parse, 10);
        sup.charge(Work::Lookup, 1);
    });
    let report = result.expect("a sound run on threads that unwound");
    assert_eq!(reused, wedged_on);
    assert_eq!(report.tasks_run, 2);
    let mut want = [0u64; Work::COUNT];
    want[Work::Parse as usize] = 20;
    want[Work::Lookup as usize] = 2;
    assert_eq!(report.charges, want);
}

#[test]
fn a_task_that_starts_a_run_of_its_own_finishes() {
    let _alone = alone();
    // Every outer worker is inside a task that waits for an inner run:
    // the inner runs must get threads all the same.
    let inner_tasks = within(Duration::from_secs(120), || {
        let total = Arc::new(Mutex::new(0));
        let sum = Arc::clone(&total);
        let report = run_threaded(2, move |sup| {
            let both_running = Arc::new(std::sync::Barrier::new(2));
            for name in ["outer-a", "outer-b"] {
                let (sum, both_running) = (Arc::clone(&sum), Arc::clone(&both_running));
                sup.spawn(TaskDesc::new(
                    name,
                    TaskKind::ProcParse,
                    Box::new(move || {
                        both_running.wait();
                        let inner = run_threaded(2, |sup| {
                            sup.spawn(noop("inner-a"));
                            sup.spawn(noop("inner-b"));
                        });
                        *sum.lock().unwrap() += inner.tasks_run;
                    }),
                ));
            }
        });
        assert_eq!(report.tasks_run, 2);
        let total = *total.lock().unwrap();
        total
    });
    assert_eq!(inner_tasks, 4);
}

/// A task's thread is worker 0 of a run the task starts, and the outer
/// worker's slot is put back after it: the outer task's charges before
/// and after the inner run, and the inner tasks' charges to either
/// supervisor, each land in their own report exactly once.
#[test]
fn a_run_started_by_a_task_keeps_the_outer_workers_charges() {
    let _alone = alone();
    let outer = run_threaded(1, |sup| {
        let outer = Arc::clone(sup);
        let task = move || {
            outer.charge(Work::Parse, 3);
            // Both inner tasks run at once, so one is on worker 0.
            let both_running = Arc::new(std::sync::Barrier::new(2));
            let ran_on: Arc<Mutex<HashSet<ThreadId>>> = Arc::default();
            let inner = run_threaded(2, |inner| {
                for name in ["inner-a", "inner-b"] {
                    let (inner2, outer) = (Arc::clone(inner), Arc::clone(&outer));
                    let (ran_on, both_running) = (Arc::clone(&ran_on), Arc::clone(&both_running));
                    let body = move || {
                        ran_on.lock().unwrap().insert(std::thread::current().id());
                        both_running.wait();
                        inner2.charge(Work::Lookup, 1);
                        outer.charge(Work::Merge, 1);
                    };
                    inner.spawn(TaskDesc::new(name, TaskKind::ShortCodeGen, Box::new(body)));
                }
            });
            outer.charge(Work::Parse, 4);
            let here = std::thread::current().id();
            assert!(ran_on.lock().unwrap().contains(&here), "not worker 0");
            let mut want = [0u64; Work::COUNT];
            want[Work::Lookup as usize] = 2;
            assert_eq!(inner.charges, want);
        };
        sup.spawn(TaskDesc::new("outer", TaskKind::ProcParse, Box::new(task)));
    });
    let mut want = [0u64; Work::COUNT];
    want[Work::Parse as usize] = 7;
    want[Work::Merge as usize] = 2;
    assert_eq!(outer.charges, want);
}
