//! The threaded Supervisors executor (paper §2.3.2–§2.3.4).
//!
//! One OS-thread *worker* per (assumed) processor; a shared *supervisor*
//! structure holds the scheduling policy (`crate::policy`: the priority
//! queues and every decision about them) behind one state lock, and the
//! event flags beside it. What this driver supplies to the policy: an
//! event has *occurred* once its flag is set, and ready entries need no
//! stamp (0). The defining behaviors of the paper, as they look on real
//! threads:
//!
//! * **Avoided events** keep a task off the ready queues until they have
//!   occurred (it is never assigned just to block immediately).
//! * **Handled events**: a worker whose task blocks does not idle — it
//!   nests another task on its own stack, preferring the task that will
//!   signal the awaited event, and restricted by the stack-eligibility
//!   rule (a nested task must not be able to wait on an event that only a
//!   task suspended beneath it can signal).
//! * **Barrier events** (token-block queues): the worker simply parks, at
//!   once — safe because token consumers only start after their producer
//!   Lexor began, and Lexor tasks never block.
//! * The ready "queue" is a single ordered structure searched in the
//!   §2.3.4 kind order, with long code-generation tasks before short ones.
//!
//! A run's calling thread is its worker 0 once `setup` has returned (the
//! paper's initialization thread blocks while the workers compile; here
//! it compiles too). Workers `1..N` belong to no run: they are borrowed
//! from a process-wide crew (`lend`) and go back to it, so a run that
//! follows another creates no thread, and a one-worker run hands nothing
//! to another thread.
//!
//! What tasks do all the time costs no shared write: an event's flag is
//! an atomic in an append-only arena (reading it takes no lock), work
//! charges add to the worker's own array, and the condition variable is
//! notified only when the state lock shows a sleeper.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex, MutexGuard};

use ccm2_support::ids::EventId;
use ccm2_support::work::Work;

use crate::policy::{Policy, Ready, Task};
use crate::task::{TaskBody, TaskDesc};
use crate::trace::{Segment, Trace};
use crate::{payload_message, EventClass, EventTable, ExecEnv, Payload, RunReport};

/// The stack a worker runs on: a crew thread's, and the one to spawn a
/// thread that starts runs with, since it is worker 0 of each. Tasks
/// nest on it up to the policy's `NEST_CAP` (32) deep.
pub const WORKER_STACK: usize = 16 * 1024 * 1024;

/// One dispatched, unfinished task of a worker.
struct Frame {
    task: Task,
    /// While the task is inside `wait()`: what it awaits, and the
    /// co-signaler hint. Feeds nesting eligibility, the mid-wakeup guard
    /// and the wait-for-graph diagnosis.
    waiting: Option<(EventId, Option<EventId>)>,
}

struct SupState {
    policy: Policy,
    /// Per worker index, the tasks it has dispatched and not finished,
    /// bottom to top: all but the top one are suspended inside `wait()`
    /// with a nested task above them.
    stacks: Vec<Vec<Frame>>,
    parked: usize,
    /// Threads inside `cv.wait` right now (workers or not): nobody is
    /// notified while this is zero.
    sleepers: usize,
    done: bool,
    /// A worker is unwinding — with the deadlock diagnosis, or out of a
    /// panicked task — and takes the run with it:
    /// every other worker leaves, every `wait()` returns.
    aborted: bool,
}

/// The threaded Supervisors executor.
pub struct ThreadedSupervisor {
    state: Mutex<SupState>,
    cv: Condvar,
    /// A flag is stored with the state lock held, so a waiter that reads
    /// it unset under that lock is counted as a sleeper before the
    /// signal looks for sleepers; it is loaded anywhere, lock or no lock.
    events: EventTable,
    workers: usize,
    start: Instant,
    trace: Mutex<Trace>,
    /// Charges made outside the workers, plus each worker's own once it
    /// has ended.
    charges: [AtomicU64; Work::COUNT],
}

thread_local! {
    static WORKER: RefCell<Option<WorkerCtx>> = const { RefCell::new(None) };
}

struct WorkerCtx {
    /// The supervisor this thread works for (compared, never read).
    sup: *const ThreadedSupervisor,
    index: usize,
    /// This worker's work charges, added to the supervisor's when the
    /// worker ends.
    charges: [u64; Work::COUNT],
}

/// Whether the calling thread is a worker of a threaded run right now: a
/// crew thread out on a loan, or a run's caller while it is worker 0.
pub fn on_worker() -> bool {
    WORKER.with(|w| w.borrow().is_some())
}

impl ThreadedSupervisor {
    fn new(workers: usize) -> ThreadedSupervisor {
        ThreadedSupervisor {
            state: Mutex::new(SupState {
                policy: Policy::default(),
                // Room for the usual nesting depth, so that a dispatch
                // does not allocate inside the lock section.
                stacks: (0..workers).map(|_| Vec::with_capacity(4)).collect(),
                parked: 0,
                sleepers: 0,
                done: false,
                aborted: false,
            }),
            cv: Condvar::new(),
            events: EventTable::default(),
            workers,
            start: Instant::now(),
            trace: Mutex::new(Trace::default()),
            charges: Default::default(),
        }
    }

    fn now(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    fn signaled(&self, event: EventId) -> bool {
        self.events.is_set(event)
    }

    /// The calling thread's index, if it is one of this supervisor's
    /// workers.
    fn own_worker(&self) -> Option<usize> {
        WORKER.with(|w| match w.borrow().as_ref() {
            Some(ctx) if std::ptr::eq(ctx.sup, self) => Some(ctx.index),
            _ => None,
        })
    }

    /// Waits on the condition variable, counted as a sleeper meanwhile.
    fn sleep(&self, st: &mut MutexGuard<'_, SupState>) {
        st.sleepers += 1;
        self.cv.wait(st);
        st.sleepers -= 1;
    }

    /// Notifies the sleepers after a state change, if there are any. A
    /// thread that is not counted yet takes the lock after the change and
    /// sees it.
    fn wake_locked(&self, st: &SupState) {
        if st.sleepers > 0 {
            self.cv.notify_all();
        }
    }

    /// [`Self::wake_locked`], notifying with the lock already released.
    fn wake(&self, st: MutexGuard<'_, SupState>) {
        let sleepers = st.sleepers;
        drop(st);
        if sleepers > 0 {
            self.cv.notify_all();
        }
    }

    fn worker_loop(&self, index: usize) {
        /// Puts the thread's previous `WORKER` slot back (empty on a crew
        /// thread, an outer run's on a caller that is a worker itself) and
        /// adds this worker's charges to the supervisor's — on return and
        /// on unwind alike.
        struct Leave<'a>(&'a ThreadedSupervisor, Option<WorkerCtx>);
        impl Drop for Leave<'_> {
            fn drop(&mut self) {
                let ctx = WORKER.with(|w| std::mem::replace(&mut *w.borrow_mut(), self.1.take()));
                let ctx = ctx.expect("set by worker_loop");
                for (total, units) in self.0.charges.iter().zip(ctx.charges) {
                    total.fetch_add(units, Ordering::Relaxed);
                }
            }
        }
        let ctx = WorkerCtx {
            sup: self,
            index,
            charges: [0; Work::COUNT],
        };
        let _leave = Leave(self, WORKER.with(|w| w.borrow_mut().replace(ctx)));
        loop {
            let body = {
                let mut st = self.state.lock();
                loop {
                    if st.done || st.aborted {
                        return;
                    }
                    if let Some(run) = self.take(&mut st, index, None) {
                        break run;
                    }
                    if st.policy.outstanding() == 0 {
                        st.done = true;
                        self.wake(st);
                        return;
                    }
                    self.park(&mut st, None);
                }
            };
            self.run_task(index, body);
        }
    }

    /// Takes the next task for `worker` — idle, or blocked on `blocked`
    /// (an event and the co-signaler hint) — from the policy and onto the
    /// worker's stack, all in the lock section the caller is in. Returns
    /// the body to run.
    fn take(
        &self,
        st: &mut SupState,
        worker: usize,
        blocked: Option<(EventId, Option<EventId>)>,
    ) -> Option<TaskBody> {
        let Ready { task, body, .. } = match blocked {
            None => st.policy.next_idle(),
            Some((e, hint)) => {
                let stack = st.stacks[worker].iter().map(|f| &f.task);
                let class = self.events.get(e).class;
                st.policy.next_for_blocked((e, class), hint, stack)
            }
        }?;
        st.stacks[worker].push(Frame {
            task,
            waiting: None,
        });
        Some(body)
    }

    /// Runs the task `take` just put on top of `worker`'s stack.
    fn run_task(&self, worker: usize, body: TaskBody) {
        let seg_start = self.now();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)).err();
        let seg_end = self.now();
        let mut st = self.state.lock();
        let mut frame = st.stacks[worker].pop().expect("the task just run");
        if let Some(payload) = caught {
            // Unwinding takes this worker out of the run, and the others
            // would wait for its task forever.
            st.aborted = true;
            self.wake(st);
            std::panic::resume_unwind(payload);
        }
        for e in st.policy.finish(&mut frame.task) {
            if !self.signaled(e) {
                self.signal_locked(&mut st, e);
            }
        }
        if st.policy.outstanding() == 0 {
            st.done = true;
        }
        self.wake(st);
        self.trace.lock().segments.push(Segment {
            proc: worker as u32,
            kind: frame.task.kind,
            name: frame.task.name,
            start: seg_start,
            end: seg_end,
        });
    }

    /// Marks `event` signaled and lets the policy release what it gated.
    fn signal_locked(&self, st: &mut SupState, event: EventId) {
        self.events.set(event);
        st.policy.release(event, 0, |e| self.signaled(e));
    }

    /// Parks the calling worker — idle, or inside a `wait()` on `on` —
    /// until something may have changed. If that leaves the run wedged
    /// (every worker parked, nothing runnable, tasks outstanding), it
    /// does not sleep: the run is aborted with the wait-for diagnosis.
    /// Assumes the paper's model that only tasks signal events once the
    /// run has started.
    fn park(&self, guard: &mut MutexGuard<'_, SupState>, on: Option<EventId>) {
        let st = &mut **guard;
        // A parked worker whose awaited event is signaled is merely
        // mid-wakeup: notified, but not yet re-holding the lock.
        let wedged = st.parked + 1 == self.workers
            && !st.policy.has_ready()
            && st.policy.outstanding() > 0
            && (st.stacks.iter())
                .filter_map(|s| s.last()?.waiting)
                .all(|(e, _)| !self.signaled(e));
        if wedged {
            let frames = st.stacks.iter().flatten();
            let waits = frames.filter_map(|f| f.waiting.map(|(e, hint)| (&f.task, e, hint)));
            let report = st
                .policy
                .wait_for_report(waits, &self.events, |e| self.signaled(e));
            st.aborted = true;
            let outstanding = st.policy.outstanding();
            let this = match on {
                None => "idle".to_string(),
                Some(e) => format!("on {e:?} ({})", self.events.get(e).name),
            };
            self.wake_locked(st);
            panic!(
                "supervisor deadlock: all workers blocked (this worker \
                 {this}); {outstanding} tasks outstanding; {report}"
            );
        }
        guard.parked += 1;
        self.sleep(guard);
        guard.parked -= 1;
    }
}

impl ExecEnv for ThreadedSupervisor {
    fn new_event_named(&self, class: EventClass, name: &str) -> EventId {
        self.events.create(class, name)
    }

    fn signal(&self, event: EventId) {
        // Whoever signaled an event first has woken its waiters.
        if self.signaled(event) {
            return;
        }
        let mut st = self.state.lock();
        if !self.signaled(event) {
            self.signal_locked(&mut st, event);
        }
        self.wake(st);
    }

    fn is_signaled(&self, event: EventId) -> bool {
        self.signaled(event)
    }

    fn wait_hinted(&self, event: EventId, signaler_hint: Option<EventId>) {
        // Fast path.
        if self.signaled(event) {
            return;
        }
        let Some(worker) = self.own_worker() else {
            // Called from outside this supervisor's workers (e.g. the
            // initialization thread, §2.3.2): plain blocking wait.
            let mut st = self.state.lock();
            while !self.signaled(event) && !st.aborted {
                self.sleep(&mut st);
            }
            return;
        };
        let mut st = self.state.lock();
        loop {
            let over = self.signaled(event) || st.aborted;
            let top = st.stacks[worker].last_mut();
            let frame = top.expect("a worker waits from inside a task");
            if over {
                frame.waiting = None;
                return;
            }
            frame.waiting = Some((event, signaler_hint));
            match self.take(&mut st, worker, Some((event, signaler_hint))) {
                Some(body) => {
                    drop(st);
                    // Recursion bounded by the eligibility rule + depth cap.
                    self.run_task(worker, body);
                    st = self.state.lock();
                }
                None => self.park(&mut st, Some(event)),
            }
        }
    }

    fn spawn(&self, task: TaskDesc) {
        let mut st = self.state.lock();
        st.policy.admit(task, 0, |e| self.signaled(e));
        self.wake(st);
    }

    fn charge(&self, work: Work, units: u64) {
        let on_own_worker = WORKER.with(|w| match w.borrow_mut().as_mut() {
            Some(ctx) if std::ptr::eq(ctx.sup, self) => {
                ctx.charges[work as usize] += units;
                true
            }
            _ => false,
        });
        if !on_own_worker {
            self.charges[work as usize].fetch_add(units, Ordering::Relaxed);
        }
    }

    fn virtual_now(&self) -> u64 {
        self.now()
    }
}

/// One borrowing of a crew thread: what it runs, and where it reports
/// the panic payload (if any) once it is free again.
struct Loan {
    work: Box<dyn FnOnce() + Send>,
    done: Sender<Option<Payload>>,
}

/// The process-wide worker crew: the parked threads, most recently used
/// on top. A thread is either out on a loan or on this stack; none ever
/// exits, so the crew is as large as the demand for workers at its peak.
static IDLE_CREW: Mutex<Vec<Sender<Loan>>> = Mutex::new(Vec::new());

/// Hands `loan` to an idle crew thread, or to a new one. Never waits for
/// a thread to come free: a run started from inside a task (whose thread
/// is out on a loan itself) must not wait for its own caller.
fn lend(loan: Loan) {
    let idle = IDLE_CREW.lock().pop();
    if let Some(thread) = idle {
        thread.send(loan).expect("a crew thread never exits");
        return;
    }
    let (tx, rx) = std::sync::mpsc::channel();
    // Detached on purpose: the thread outlives every run and ends with
    // the process.
    std::thread::Builder::new()
        .name("ccm2-worker".to_string())
        .stack_size(WORKER_STACK)
        .spawn(move || {
            let mut loan = loan;
            loop {
                let Loan { work, done } = loan;
                // The call consumes `work`, so whatever it captured (the
                // run's supervisor) is dropped before anyone hears of it.
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(work));
                // Idle before reporting: a caller that starts its next
                // run at once finds this thread rather than spawning.
                IDLE_CREW.lock().push(tx.clone());
                // A caller that has gone away wants no report.
                let _ = done.send(outcome.err());
                loan = rx.recv().expect("this thread keeps a sender of its own");
            }
        })
        .expect("spawn worker");
}

/// Runs a task graph on `workers` OS threads. `setup` creates events and
/// spawns the initial tasks (the paper's compiler-initialization thread);
/// then the calling thread is worker 0 until the run ends, so its stack
/// becomes a worker's (see [`WORKER_STACK`]).
///
/// The other `workers - 1` threads are borrowed from a crew that outlives
/// the run (the paper's WorkCrews exist before the work arrives): after
/// the first runs have grown it, a run creates no thread.
///
/// Returns when every task has completed.
///
/// # Panics
///
/// Panics if the task graph deadlocks — all workers blocked or idle with
/// nothing runnable. The detecting worker builds a wait-for graph
/// ([`crate::wfg`]) and the panic names the cycle when one exists; the
/// payload is re-raised on the calling thread. Correct compiler task
/// graphs never deadlock; the scheduler tests exercise the detector
/// directly.
pub fn run_threaded(workers: usize, setup: impl FnOnce(&Arc<ThreadedSupervisor>)) -> RunReport {
    assert!(workers >= 1, "need at least one worker");
    let sup = Arc::new(ThreadedSupervisor::new(workers));
    setup(&sup);
    let (done, reports) = std::sync::mpsc::channel();
    for ix in 1..workers {
        let sup = Arc::clone(&sup);
        lend(Loan {
            work: Box::new(move || sup.worker_loop(ix)),
            done: done.clone(),
        });
    }
    // Where the paper's initialization thread blocks, this one works.
    let own = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sup.worker_loop(0)));
    // Hear from every worker before re-raising anything: the supervisor
    // must be this thread's alone again, and every panic payload must be
    // accounted for (not just the first reporter's).
    let lent = (1..workers).filter_map(|_| reports.recv().expect("every loan reports"));
    let mut payloads: Vec<Payload> = own.err().into_iter().chain(lent).collect();
    match payloads.len() {
        0 => {}
        1 => {
            // Re-raise with the worker's own payload so the deadlock
            // diagnosis (or compiler bug) reaches the caller verbatim.
            std::panic::resume_unwind(payloads.pop().expect("len checked"));
        }
        n => {
            let msgs: Vec<String> = payloads
                .iter()
                .map(|p| payload_message(p.as_ref()))
                .collect();
            panic!("{n} workers panicked: {}", msgs.join("; "));
        }
    }
    let trace = sup.trace.lock().clone();
    let mut charges = [0u64; Work::COUNT];
    for (ix, c) in sup.charges.iter().enumerate() {
        charges[ix] = c.load(Ordering::Relaxed);
    }
    let tasks_run = sup.state.lock().policy.finished;
    RunReport {
        virtual_time: None,
        wall_micros: sup.now(),
        trace,
        tasks_run,
        charges,
        task_panics: Vec::new(),
        stalls: Vec::new(),
        recoveries: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskKind;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_simple_tasks_to_completion() {
        let counter = Arc::new(AtomicUsize::new(0));
        let report = run_threaded(2, |sup| {
            for i in 0..10 {
                let c = Arc::clone(&counter);
                sup.spawn(TaskDesc::new(
                    format!("t{i}"),
                    TaskKind::ShortCodeGen,
                    Box::new(move || {
                        c.fetch_add(1, Ordering::Relaxed);
                    }),
                ));
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 10);
        assert_eq!(report.tasks_run, 10);
        assert_eq!(report.trace.segments.len(), 10);
    }

    #[test]
    fn priority_order_respected_single_worker() {
        let order = Arc::new(Mutex::new(Vec::new()));
        run_threaded(1, |sup| {
            // Spawn in reverse priority; with one worker they must run in
            // §2.3.4 order once the queue is populated. Spawn from a
            // gating task so all are queued before any runs.
            let gate = sup.new_event(EventClass::Avoided);
            for (name, kind) in [
                ("codegen-short", TaskKind::ShortCodeGen),
                ("codegen-long", TaskKind::LongCodeGen),
                ("procparse", TaskKind::ProcParse),
                ("lexor", TaskKind::Lexor),
            ] {
                let o = Arc::clone(&order);
                let mut t = TaskDesc::new(name, kind, Box::new(move || o.lock().push(name)));
                t.prereqs = vec![gate];
                sup.spawn(t);
            }
            let sup2 = Arc::clone(sup);
            let mut opener =
                TaskDesc::new("open", TaskKind::Merge, Box::new(move || sup2.signal(gate)));
            opener.signals = vec![gate];
            sup.spawn(opener);
        });
        assert_eq!(
            *order.lock(),
            vec!["lexor", "procparse", "codegen-long", "codegen-short"]
        );
    }

    #[test]
    fn heavier_codegen_first() {
        let order = Arc::new(Mutex::new(Vec::new()));
        run_threaded(1, |sup| {
            let gate = sup.new_event(EventClass::Avoided);
            for (name, w) in [("small", 5u64), ("large", 500), ("medium", 50)] {
                let o = Arc::clone(&order);
                let mut t = TaskDesc::new(
                    name,
                    TaskKind::LongCodeGen,
                    Box::new(move || o.lock().push(name)),
                );
                t.weight = w;
                t.prereqs = vec![gate];
                sup.spawn(t);
            }
            let sup2 = Arc::clone(sup);
            let mut opener =
                TaskDesc::new("open", TaskKind::Merge, Box::new(move || sup2.signal(gate)));
            opener.signals = vec![gate];
            sup.spawn(opener);
        });
        assert_eq!(*order.lock(), vec!["large", "medium", "small"]);
    }

    /// Charges land in the worker's own array, or — from the setup
    /// thread, or from a worker of another supervisor — in the shared
    /// one; the report has every unit exactly once.
    #[test]
    fn charges_from_workers_and_outsiders_add_up() {
        let mut inner_report = None;
        let outer = run_threaded(4, |sup| {
            sup.charge(Work::Merge, 5);
            for i in 0..64u64 {
                let sup2 = Arc::clone(sup);
                sup.spawn(TaskDesc::new(
                    format!("t{i}"),
                    TaskKind::ShortCodeGen,
                    Box::new(move || {
                        for _ in 0..100 {
                            sup2.charge(Work::Parse, i);
                            sup2.charge(Work::Lookup, 1);
                        }
                    }),
                ));
            }
            // A task of `inner` charging the outer supervisor is not on
            // one of the outer supervisor's workers.
            let outer = Arc::clone(sup);
            inner_report = Some(run_threaded(1, move |inner| {
                inner.spawn(TaskDesc::new(
                    "foreign",
                    TaskKind::ShortCodeGen,
                    Box::new(move || outer.charge(Work::Merge, 7)),
                ));
            }));
        });
        let mut want = [0u64; Work::COUNT];
        want[Work::Parse as usize] = 100 * (0..64).sum::<u64>();
        want[Work::Lookup as usize] = 64 * 100;
        want[Work::Merge as usize] = 12;
        assert_eq!(outer.charges, want);
        assert_eq!(inner_report.expect("ran").total_work(), 0);
    }

    #[test]
    fn many_tasks_many_workers_stress() {
        let counter = Arc::new(AtomicUsize::new(0));
        let report = run_threaded(4, |sup| {
            let e = sup.new_event(EventClass::Handled);
            for i in 0..200 {
                let c = Arc::clone(&counter);
                let sup2 = Arc::clone(sup);
                let is_signaler = i == 150;
                let mut t = TaskDesc::new(
                    format!("t{i}"),
                    if i % 2 == 0 {
                        TaskKind::ProcParse
                    } else {
                        TaskKind::ShortCodeGen
                    },
                    Box::new(move || {
                        if is_signaler {
                            sup2.signal(e);
                        } else if i % 17 == 0 {
                            sup2.wait(e);
                        }
                        c.fetch_add(1, Ordering::Relaxed);
                    }),
                );
                if is_signaler {
                    t.signals = vec![e];
                }
                sup.spawn(t);
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 200);
        assert_eq!(report.tasks_run, 200);
    }
}

#[cfg(test)]
mod wakeup_tests {
    use super::*;
    use crate::task::{TaskKind, WaitSet};
    use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
    use std::time::Duration;

    /// Regression: the deadlock detector must not fire while another
    /// parked worker's awaited event has already been signaled (it is
    /// merely mid-wakeup). Exercised by hammering a two-worker
    /// producer/consumer pattern that previously tripped the detector.
    #[test]
    fn no_false_deadlock_under_signal_wakeup_races() {
        for _ in 0..200 {
            let done = Arc::new(AtomicUsize::new(0));
            run_threaded(2, |sup| {
                let e1 = sup.new_event(EventClass::Handled);
                let e2 = sup.new_event(EventClass::Handled);
                for (ix, (my, other)) in [(e1, e2), (e2, e1)].into_iter().enumerate() {
                    let sup2 = Arc::clone(sup);
                    let d = Arc::clone(&done);
                    let mut t = TaskDesc::new(
                        format!("pingpong{ix}"),
                        TaskKind::ProcParse,
                        Box::new(move || {
                            sup2.signal(my);
                            sup2.wait(other);
                            d.fetch_add(1, AtomicOrdering::Relaxed);
                        }),
                    );
                    t.signals = vec![my];
                    t.may_wait = WaitSet {
                        events: vec![other],
                        all_def_scopes: false,
                        any_barrier: false,
                    };
                    sup.spawn(t);
                }
            });
            assert_eq!(done.load(AtomicOrdering::Relaxed), 2);
        }
    }

    /// Two tasks hand a baton back and forth through fresh events, each
    /// parking while the other runs: one notification withheld from a
    /// sleeper (the gate in `wake` reading zero sleepers too early) and
    /// the round never ends. Idle workers (the 4-worker runs) sleep on
    /// the same condition variable throughout.
    fn ping_pong(workers: usize, class: EventClass, rounds: usize) {
        let tasks_run = ccm2_support::within(Duration::from_secs(300), move || {
            let report = run_threaded(workers, |sup| {
                let ping: Vec<EventId> = (0..rounds).map(|_| sup.new_event(class)).collect();
                let pong: Vec<EventId> = (0..rounds).map(|_| sup.new_event(class)).collect();
                let sides = [
                    ("ping", ping.clone(), pong.clone(), true),
                    ("pong", pong, ping, false),
                ];
                // Both on a worker of their own before either waits: a
                // worker blocked on a handled event would otherwise nest
                // the other side on its own stack.
                let both_running = Arc::new(std::sync::Barrier::new(2));
                for (name, mine, theirs, serves) in sides {
                    let sup2 = Arc::clone(sup);
                    let both_running = Arc::clone(&both_running);
                    let mut t = TaskDesc::new(
                        name,
                        TaskKind::ProcParse,
                        Box::new(move || {
                            both_running.wait();
                            for (&m, &t) in mine.iter().zip(&theirs) {
                                if serves {
                                    sup2.signal(m);
                                    sup2.wait(t);
                                } else {
                                    sup2.wait(t);
                                    sup2.signal(m);
                                }
                            }
                        }),
                    );
                    t.signals_barriers = class == EventClass::Barrier;
                    t.may_wait.any_barrier = class == EventClass::Barrier;
                    sup.spawn(t);
                }
            });
            report.tasks_run
        });
        assert_eq!(tasks_run, 2);
    }

    #[test]
    fn gated_notify_loses_no_wakeup_in_10_000_rounds() {
        for workers in [2, 4] {
            ping_pong(workers, EventClass::Handled, 10_000);
            // Barrier waits park at once, and never nest.
            ping_pong(workers, EventClass::Barrier, 10_000);
        }
    }

    /// The two ways out of a barrier wait. A producer that publishes as
    /// soon as the consumer has arrived may find it not yet asleep (the
    /// consumer reads the flag set under the state lock and goes on); one
    /// that publishes only after the state lock has shown it a sleeper
    /// must wake it.
    #[test]
    fn barrier_wait_wakes_if_published_before_or_after_the_consumer_sleeps() {
        for wait_for_sleeper in [false, true] {
            let consumed = Arc::new(AtomicUsize::new(0));
            let out = Arc::clone(&consumed);
            run_threaded(2, move |sup| {
                let block = sup.new_event_named(EventClass::Barrier, "block");
                let (arrived_tx, arrived_rx) = std::sync::mpsc::channel::<()>();
                let sup1 = Arc::clone(sup);
                let mut producer = TaskDesc::new(
                    "producer",
                    TaskKind::Lexor,
                    Box::new(move || {
                        arrived_rx.recv().expect("consumer arrives");
                        while wait_for_sleeper && sup1.state.lock().sleepers == 0 {
                            std::thread::yield_now();
                        }
                        sup1.signal(block);
                    }),
                );
                producer.signals_barriers = true;
                sup.spawn(producer);
                let sup2 = Arc::clone(sup);
                let mut consumer = TaskDesc::new(
                    "consumer",
                    TaskKind::ModuleParse,
                    Box::new(move || {
                        arrived_tx.send(()).expect("producer listens");
                        sup2.wait(block);
                        assert!(sup2.is_signaled(block));
                        out.fetch_add(1, AtomicOrdering::Relaxed);
                    }),
                );
                consumer.may_wait.any_barrier = true;
                sup.spawn(consumer);
            });
            assert_eq!(consumed.load(AtomicOrdering::Relaxed), 1);
        }
    }

    #[test]
    fn event_labels_survive() {
        run_threaded(1, |sup| {
            let e = sup.new_event_named(EventClass::Avoided, "my-label");
            assert!(!sup.is_signaled(e));
            sup.signal(e);
            assert!(sup.is_signaled(e));
        });
    }
}

#[cfg(test)]
mod panic_tests {
    use super::*;
    use crate::task::TaskKind;

    #[test]
    fn multiple_worker_panics_are_aggregated() {
        // Two panics on two workers must both be accounted for in the
        // re-raised payload.
        let res = std::panic::catch_unwind(|| {
            run_threaded(2, |sup| {
                for i in 0..2 {
                    sup.spawn(TaskDesc::new(
                        format!("boom{i}"),
                        TaskKind::ProcParse,
                        Box::new(move || panic!("organic panic {i}")),
                    ));
                }
            });
        });
        let payload = res.expect_err("run must panic");
        let msg = payload_message(payload.as_ref());
        assert!(
            msg.contains("2 workers panicked") || msg.contains("organic panic"),
            "unexpected payload: {msg}"
        );
    }

    /// A worker whose task panics leaves by unwinding; its thread goes
    /// back to the crew, so it must leave as a returning worker does.
    #[test]
    fn an_unwinding_worker_empties_its_slot_and_hands_in_its_charges() {
        let sup = Arc::new(ThreadedSupervisor::new(1));
        let sup2 = Arc::clone(&sup);
        sup.spawn(TaskDesc::new(
            "boom",
            TaskKind::ProcParse,
            Box::new(move || {
                sup2.charge(Work::Parse, 7);
                panic!("organic panic");
            }),
        ));
        let worker = std::thread::spawn(move || {
            let unwound =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sup.worker_loop(0)));
            let slot_empty = WORKER.with(|w| w.borrow().is_none());
            let handed_in = sup.charges[Work::Parse as usize].load(Ordering::Relaxed);
            (unwound.is_err(), slot_empty, handed_in)
        });
        assert_eq!(worker.join().expect("caught above"), (true, true, 7));
    }
}
