//! The threaded Supervisors executor (paper §2.3.2–§2.3.4).
//!
//! One OS-thread *worker* per (assumed) processor; a shared *supervisor*
//! structure holds the priority queues and event states. The defining
//! behaviors of the paper are all here:
//!
//! * **Avoided events** keep a task off the ready queues until they have
//!   occurred (it is never assigned just to block immediately).
//! * **Handled events**: a worker whose task blocks does not idle — it
//!   nests another task on its own stack, preferring the task that will
//!   signal the awaited event, and restricted by the stack-eligibility
//!   rule (a nested task must not be able to wait on an event that only a
//!   task suspended beneath it can signal).
//! * **Barrier events** (token-block queues): the worker simply parks —
//!   safe because token consumers only start after their producer Lexor
//!   began, and Lexor tasks never block.
//!   Parking costs two context switches and a token block is usually a
//!   few microseconds away, so the worker first watches the event's flag
//!   for [`BARRIER_SPIN`].
//! * The ready "queue" is a single ordered structure searched in the
//!   §2.3.4 kind order, with long code-generation tasks before short ones.
//!
//! The worker threads themselves belong to no run: they are borrowed from
//! a process-wide crew (`lend`) and go back to it, so a run that follows
//! another creates no thread.
//!
//! What tasks do all the time costs no shared write: an event's flag is
//! an atomic in an append-only arena (reading it takes no lock), work
//! charges add to the worker's own array, and the condition variable is
//! notified only when the state lock shows a sleeper.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

use ccm2_faults::FaultKind;
use ccm2_support::arena::AppendArena;
use ccm2_support::ids::EventId;
use ccm2_support::work::Work;

use crate::task::{priority_key, TaskDesc, TaskKind, WaitSet};
use crate::trace::{Segment, Trace};
use crate::{payload_message, EventClass, ExecEnv, Robustness, RunReport};

type PrioKey = (usize, std::cmp::Reverse<u64>, u64);

struct ReadyTask {
    name: String,
    kind: TaskKind,
    signals: Vec<EventId>,
    signals_def_scope: bool,
    signals_barriers: bool,
    may_wait: WaitSet,
    weight: u64,
    /// Dispatch attempt under supervised recovery (0 = first).
    attempt: u32,
    /// Per-task retry cap overriding the global `max_retries`.
    retry_budget: Option<u32>,
    body: crate::task::TaskBody,
}

struct PendingTask {
    prereqs: Vec<EventId>,
    key: PrioKey,
    task: ReadyTask,
}

/// How long a worker watches a barrier event's flag before it parks: a
/// few block-publication times, well under the two context switches
/// parking costs.
const BARRIER_SPIN: Duration = Duration::from_micros(20);

struct EventFlag {
    class: EventClass,
    name: String,
    /// Stored (Release) with the state lock held, so a waiter that reads
    /// it unset under that lock is counted as a sleeper before the signal
    /// looks for sleepers; loaded (Acquire) anywhere, lock or no lock.
    signaled: AtomicBool,
}

/// One task suspended inside `wait()`: what it awaits (plus the
/// co-signaler hint, if any) and what it declared it would signal.
/// Feeds the wait-for-graph deadlock diagnosis.
struct WaitFrame {
    task: String,
    awaited: EventId,
    hint: Option<EventId>,
    signals: Vec<EventId>,
}

struct SupState {
    ready: BTreeMap<PrioKey, ReadyTask>,
    pending: Vec<PendingTask>,
    seq: u64,
    outstanding: usize,
    parked: usize,
    /// Threads inside `cv.wait` right now (workers or not): nobody is
    /// notified while this is zero.
    sleepers: usize,
    done: bool,
    deadlocked: bool,
    /// worker index -> awaited event for workers currently parked inside
    /// wait() (the mid-wakeup guard of the deadlock check).
    blocked: std::collections::HashMap<u32, EventId>,
    /// worker index -> every wait() the worker currently has open
    /// (bottom to top: nested tasks stack further frames).
    wait_frames: std::collections::HashMap<u32, Vec<WaitFrame>>,
    /// Task bodies caught panicking under recover mode.
    panics: Vec<(String, String)>,
    /// Watchdog diagnoses (wedge releases and deadline overruns).
    stalls: Vec<String>,
    /// Dedup keys for `stalls` (task names / wedge reports).
    stall_reported: std::collections::HashSet<String>,
    /// Supervised recoveries: `(task, faulted attempts retried)`.
    recoveries: Vec<(String, u32)>,
    /// Start times of tasks currently executing, for the deadline
    /// watchdog (only populated when a deadline is configured).
    running: std::collections::HashMap<String, Instant>,
}

/// The threaded Supervisors executor.
pub struct ThreadedSupervisor {
    state: Mutex<SupState>,
    cv: Condvar,
    events: AppendArena<EventFlag>,
    workers: usize,
    start: Instant,
    trace: Mutex<Trace>,
    /// Charges made outside the workers, plus each worker's own once it
    /// has ended.
    charges: [AtomicU64; Work::COUNT],
    tasks_run: AtomicU64,
    robustness: Robustness,
}

thread_local! {
    /// Per-worker context: index and the stack of suspended tasks'
    /// signal sets (for the eligibility rule).
    static WORKER: RefCell<Option<WorkerCtx>> = const { RefCell::new(None) };
}

struct WorkerCtx {
    /// The supervisor this thread works for (compared, never read).
    sup: *const ThreadedSupervisor,
    index: u32,
    /// This worker's work charges, added to the supervisor's when the
    /// worker ends.
    charges: [u64; Work::COUNT],
    /// (name, signals, signals_def_scope, signals_barriers) of every task
    /// on this worker's stack (bottom to top, including the currently
    /// running one).
    stack: Vec<(String, Vec<EventId>, bool, bool)>,
}

impl ThreadedSupervisor {
    fn new(workers: usize, robustness: Robustness) -> ThreadedSupervisor {
        ThreadedSupervisor {
            state: Mutex::new(SupState {
                ready: BTreeMap::new(),
                pending: Vec::new(),
                seq: 0,
                outstanding: 0,
                parked: 0,
                sleepers: 0,
                done: false,
                deadlocked: false,
                blocked: std::collections::HashMap::new(),
                wait_frames: std::collections::HashMap::new(),
                panics: Vec::new(),
                stalls: Vec::new(),
                stall_reported: std::collections::HashSet::new(),
                recoveries: Vec::new(),
                running: std::collections::HashMap::new(),
            }),
            cv: Condvar::new(),
            events: AppendArena::new(),
            workers,
            start: Instant::now(),
            trace: Mutex::new(Trace::default()),
            charges: Default::default(),
            tasks_run: AtomicU64::new(0),
            robustness,
        }
    }

    fn now(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    fn event(&self, event: EventId) -> &EventFlag {
        self.events
            .get(event.index())
            .expect("event from another supervisor")
    }

    fn signaled(&self, event: EventId) -> bool {
        self.event(event).signaled.load(Ordering::Acquire)
    }

    /// Waits on the condition variable (at most `timeout`, if given),
    /// counted as a sleeper meanwhile.
    fn sleep(&self, st: &mut MutexGuard<'_, SupState>, timeout: Option<Duration>) {
        st.sleepers += 1;
        match timeout {
            Some(t) => {
                self.cv.wait_for(st, t);
            }
            None => self.cv.wait(st),
        }
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

    fn worker_loop(&self, index: u32) {
        /// Empties the thread's `WORKER` slot and adds its charges to the
        /// supervisor's — on return and on unwind alike: the thread goes
        /// back to the crew either way.
        struct Leave<'a>(&'a ThreadedSupervisor);
        impl Drop for Leave<'_> {
            fn drop(&mut self) {
                let Some(ctx) = WORKER.with(|w| w.borrow_mut().take()) else {
                    return;
                };
                for (total, units) in self.0.charges.iter().zip(ctx.charges) {
                    total.fetch_add(units, Ordering::Relaxed);
                }
            }
        }
        WORKER.with(|w| {
            *w.borrow_mut() = Some(WorkerCtx {
                sup: self,
                index,
                charges: [0; Work::COUNT],
                stack: Vec::new(),
            })
        });
        let _leave = Leave(self);
        self.run_ready_tasks();
    }

    fn run_ready_tasks(&self) {
        loop {
            let task = {
                let mut st = self.state.lock();
                loop {
                    if st.done || st.deadlocked {
                        return;
                    }
                    if let Some((&key, _)) = st.ready.iter().next() {
                        break st.ready.remove(&key).expect("just seen");
                    }
                    if st.outstanding == 0 && st.pending.is_empty() {
                        st.done = true;
                        self.wake(st);
                        return;
                    }
                    st.parked += 1;
                    // Tasks remain but there is nothing to run: if every
                    // other worker is parked too, this would previously
                    // hang silently (only the wait() park path checked).
                    if let Some(report) = self.check_deadlock_locked(&st) {
                        if self.robustness.recover && self.release_wedge_locked(&mut st, &report) {
                            st.parked -= 1;
                            self.wake_locked(&st);
                            continue;
                        }
                        st.deadlocked = true;
                        st.parked -= 1;
                        let outstanding = st.outstanding;
                        self.wake(st);
                        panic!(
                            "supervisor deadlock: all workers blocked (this \
                             worker idle); {outstanding} tasks outstanding; \
                             {report}"
                        );
                    }
                    self.park_watched(&mut st);
                    st.parked -= 1;
                }
            };
            self.run_task(task);
        }
    }

    fn run_task(&self, task: ReadyTask) {
        let (name, kind) = (task.name.clone(), task.kind);
        let signals = task.signals.clone();
        let sds = task.signals_def_scope;
        let sbar = task.signals_barriers;
        let inject = self
            .robustness
            .plan
            .as_ref()
            .and_then(|p| p.at(&crate::dispatch_site(&name, task.attempt)));
        // Supervised retry: a dispatch about to hit a fatal fault (panic,
        // or a stall that would blow the wall-clock deadline — stall
        // units are ms, deadlines us) on a per-stream task is abandoned
        // before anything runs and re-enqueued under the next attempt's
        // fault site. The task stays `outstanding` throughout.
        let fatal = match inject {
            Some(FaultKind::Panic) => true,
            Some(FaultKind::Stall { units }) => self
                .robustness
                .deadline
                .is_some_and(|d| units.saturating_mul(1000) > d),
            _ => false,
        };
        if fatal
            && self.robustness.recover
            && kind.stream_retryable()
            && task.attempt < task.retry_budget.unwrap_or(self.robustness.max_retries)
        {
            let mut task = task;
            task.attempt += 1;
            let mut st = self.state.lock();
            st.seq += 1;
            // Budget-aware requeue: consumed attempts lift the task's
            // rank so a near-budget retry isn't starved behind fresh
            // same-class work (see `retry_priority_key`).
            let key = crate::task::retry_priority_key(
                task.kind,
                task.weight,
                st.seq,
                task.attempt,
                task.retry_budget.unwrap_or(self.robustness.max_retries),
            );
            st.ready.insert(key, task);
            self.wake(st);
            return;
        }
        let attempt = task.attempt;
        WORKER.with(|w| {
            if let Some(ctx) = w.borrow_mut().as_mut() {
                ctx.stack.push((name.clone(), signals.clone(), sds, sbar));
            }
        });
        let started = Instant::now();
        if self.robustness.deadline.is_some() {
            self.state.lock().running.insert(name.clone(), started);
        }
        if let Some(FaultKind::Stall { units }) = inject {
            std::thread::sleep(std::time::Duration::from_millis(units));
        }
        let seg_start = self.now();
        let caught: Option<String> = if self.robustness.recover {
            let body = task.body;
            let task_name = name.clone();
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                if matches!(inject, Some(FaultKind::Panic)) {
                    panic!("injected fault: task `{task_name}` panicked");
                }
                body();
            }))
            .err()
            .map(|p| payload_message(p.as_ref()))
        } else {
            if matches!(inject, Some(FaultKind::Panic)) {
                panic!("injected fault: task `{name}` panicked");
            }
            (task.body)();
            None
        };
        let seg_end = self.now();
        let proc = WORKER.with(|w| {
            let mut b = w.borrow_mut();
            let ctx = b.as_mut().expect("worker ctx");
            ctx.stack.pop();
            ctx.index
        });
        self.trace.lock().segments.push(Segment {
            proc,
            kind,
            name: name.clone(),
            start: seg_start,
            end: seg_end,
        });
        self.tasks_run.fetch_add(1, Ordering::Relaxed);
        // Backstop: auto-signal the task's declared signals so a forgotten
        // explicit signal cannot deadlock the run. Panicked tasks reach
        // this too — that is what keeps their dependents and the merge
        // runnable in degraded mode.
        let mut st = self.state.lock();
        if self.robustness.deadline.is_some() {
            st.running.remove(&name);
            if let Some(deadline) = self.robustness.deadline {
                let elapsed = started.elapsed().as_micros() as u64;
                if elapsed > deadline {
                    Self::record_stall(
                        &mut st,
                        format!("deadline:{name}"),
                        format!(
                            "task `{name}` exceeded the {deadline}us deadline \
                             ({elapsed}us elapsed)"
                        ),
                    );
                }
            }
        }
        if let Some(msg) = caught {
            st.panics.push((name.clone(), msg));
        } else if attempt > 0 && !fatal {
            st.recoveries.push((name.clone(), attempt));
        }
        for e in &signals {
            if !self.signaled(*e) && !self.is_lost(*e) {
                self.signal_locked(&mut st, *e);
            }
        }
        st.outstanding -= 1;
        if st.outstanding == 0 && st.ready.is_empty() && st.pending.is_empty() {
            st.done = true;
        }
        self.wake(st);
    }

    /// Marks `event` signaled and releases, in place, the pending tasks
    /// it was the last unsatisfied prereq of. Only a task that lists
    /// `event` can become ready here: every other one was checked when
    /// its own last prereq was signaled.
    fn signal_locked(&self, st: &mut SupState, event: EventId) {
        self.event(event).signaled.store(true, Ordering::Release);
        let mut i = 0;
        while i < st.pending.len() {
            let prereqs = &st.pending[i].prereqs;
            if prereqs.contains(&event) && prereqs.iter().all(|e| self.signaled(*e)) {
                let p = st.pending.swap_remove(i);
                st.ready.insert(p.key, p.task);
            } else {
                i += 1;
            }
        }
    }

    /// Whether the fault plan drops every signal of this event
    /// (`signal:{name}` site with [`FaultKind::LoseSignal`]).
    fn is_lost(&self, event: EventId) -> bool {
        match &self.robustness.plan {
            Some(plan) => {
                let name = &self.event(event).name;
                plan.at(&format!("signal:{name}")) == Some(FaultKind::LoseSignal)
            }
            None => false,
        }
    }

    /// Records a watchdog diagnosis once per dedup key.
    fn record_stall(st: &mut SupState, key: String, msg: String) {
        if st.stall_reported.insert(key) {
            st.stalls.push(msg);
        }
    }

    /// Recover-mode wedge release: records the wait-for diagnosis and
    /// force-signals every unsignaled event the wedge is waiting on so
    /// the run drains (with degraded streams) instead of aborting.
    /// Returns false when there is nothing to release — the caller then
    /// falls through to the historical deadlock panic.
    fn release_wedge_locked(&self, st: &mut SupState, report: &str) -> bool {
        let mut events: Vec<EventId> = st.blocked.values().copied().collect();
        for frames in st.wait_frames.values() {
            for f in frames {
                events.push(f.awaited);
            }
        }
        for p in &st.pending {
            events.extend_from_slice(&p.prereqs);
        }
        events.sort_by_key(|e| e.index());
        events.dedup();
        events.retain(|e| !self.signaled(*e));
        if events.is_empty() {
            return false;
        }
        Self::record_stall(
            st,
            report.to_string(),
            format!("watchdog released wedge: {report}"),
        );
        // Each release signals at least one previously-unsignaled event
        // and events are finite, so recovery rounds terminate.
        for e in events {
            self.signal_locked(st, e);
        }
        true
    }

    /// Parks on the condvar; with a deadline configured the park is
    /// timed so the watchdog can diagnose tasks that stall while
    /// *running* (a stalled task occupies its worker, so the wedge
    /// detector never sees all workers parked).
    fn park_watched(&self, st: &mut MutexGuard<'_, SupState>) {
        match self.robustness.deadline {
            Some(deadline) if self.robustness.recover => {
                let timeout = Duration::from_micros((deadline / 2).max(5_000));
                self.sleep(st, Some(timeout));
                let overdue: Vec<(String, u64)> = st
                    .running
                    .iter()
                    .filter_map(|(name, started)| {
                        let elapsed = started.elapsed().as_micros() as u64;
                        (elapsed > deadline).then(|| (name.clone(), elapsed))
                    })
                    .collect();
                for (name, elapsed) in overdue {
                    Self::record_stall(
                        st,
                        format!("deadline:{name}"),
                        format!(
                            "task `{name}` exceeded the {deadline}us deadline \
                             ({elapsed}us elapsed)"
                        ),
                    );
                }
            }
            _ => self.sleep(st, None),
        }
    }

    /// Decides — with the caller already counted in `st.parked` — whether
    /// the run is wedged: every worker parked, nothing runnable, and no
    /// parked worker's awaited event signaled (a signaled one is merely
    /// mid-wakeup: notified but not yet re-holding the lock). Returns the
    /// wait-for-graph diagnosis when it is. Assumes the paper's model
    /// that only tasks signal events once the run has started.
    fn check_deadlock_locked(&self, st: &SupState) -> Option<String> {
        let stuck = st.parked == self.workers
            && st.ready.is_empty()
            && st.outstanding > 0
            && st.blocked.values().all(|e| !self.signaled(*e));
        if !stuck {
            return None;
        }
        let mut g = crate::wfg::WaitForGraph::new();
        for ix in 0..self.events.len() as u32 {
            g.name_event(EventId(ix), &self.event(EventId(ix)).name);
        }
        let mut workers: Vec<&u32> = st.wait_frames.keys().collect();
        workers.sort();
        for wix in workers {
            for f in &st.wait_frames[wix] {
                let mut awaits = vec![f.awaited];
                if let Some(h) = f.hint {
                    awaits.push(h);
                }
                g.add_waiter(f.task.clone(), awaits);
                for &e in &f.signals {
                    g.add_signaler(e, f.task.clone());
                }
            }
        }
        for p in &st.pending {
            g.add_waiter(p.task.name.clone(), p.prereqs.clone());
            for &e in &p.task.signals {
                g.add_signaler(e, p.task.name.clone());
            }
        }
        for t in st.ready.values() {
            for &e in &t.signals {
                g.add_signaler(e, t.name.clone());
            }
        }
        Some(match g.find_cycle() {
            Some(cycle) => format!("wait-for cycle: {cycle}"),
            None => format!(
                "no wait-for cycle (scheduling wedge); blocked: {}",
                g.describe_waiters()
            ),
        })
    }

    /// Pops the best ready task this worker may nest while blocked on
    /// `awaited` (prefers the task that signals `awaited` or the hint).
    fn pop_eligible(
        &self,
        st: &mut SupState,
        awaited: EventId,
        hint: Option<EventId>,
    ) -> Option<ReadyTask> {
        let stack_signals: (Vec<EventId>, bool, bool) = WORKER.with(|w| {
            let b = w.borrow();
            let ctx = b.as_ref().expect("worker ctx");
            if ctx.stack.len() >= 32 {
                // Nesting cap: fall back to parking rather than risking
                // stack exhaustion.
                return (vec![EventId(u32::MAX)], true, true);
            }
            let mut evs = Vec::new();
            let mut def = false;
            let mut bar = false;
            for (_, sigs, d, b2) in &ctx.stack {
                evs.extend_from_slice(sigs);
                def |= d;
                bar |= b2;
            }
            (evs, def, bar)
        });
        if stack_signals.0.first() == Some(&EventId(u32::MAX)) {
            return None;
        }
        // Preference 1: the signaler of the awaited event (or of the
        // hinted co-resolving event).
        let mut chosen: Option<PrioKey> = None;
        for (key, t) in st.ready.iter() {
            if t.signals.contains(&awaited) || hint.is_some_and(|h| t.signals.contains(&h)) {
                chosen = Some(*key);
                break;
            }
        }
        // Preference 2: any task whose wait-set cannot reach our stack.
        if chosen.is_none() {
            for (key, t) in st.ready.iter() {
                if !t
                    .may_wait
                    .intersects(&stack_signals.0, stack_signals.1, stack_signals.2)
                {
                    chosen = Some(*key);
                    break;
                }
            }
        }
        chosen.map(|key| st.ready.remove(&key).expect("chosen key"))
    }
}

impl ExecEnv for ThreadedSupervisor {
    fn new_event(&self, class: EventClass) -> EventId {
        self.new_event_named(class, "")
    }

    fn new_event_named(&self, class: EventClass, name: &str) -> EventId {
        EventId(self.events.push(EventFlag {
            class,
            name: name.to_string(),
            signaled: AtomicBool::new(false),
        }) as u32)
    }

    fn signal(&self, event: EventId) {
        // An injected lost signal is dropped on the floor (the backstop
        // drops it too; the watchdog eventually force-releases any waiter
        // it wedges). Whoever signaled an event first has woken its
        // waiters.
        if self.is_lost(event) || self.signaled(event) {
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
        let sup = WORKER.with(|w| w.borrow().is_some());
        if !sup {
            // Called from outside a worker (e.g. the initialization
            // thread, §2.3.2): plain blocking wait.
            let mut st = self.state.lock();
            while !self.signaled(event) && !st.deadlocked {
                self.sleep(&mut st, None);
            }
            return;
        }
        let class = self.event(event).class;
        if class == EventClass::Barrier {
            let arrived = Instant::now();
            while arrived.elapsed() < BARRIER_SPIN {
                if self.signaled(event) {
                    return;
                }
                std::hint::spin_loop();
            }
        }
        // Record this wait in the worker's frame stack (wait-for-graph
        // input): the current task is the top of the worker's task stack.
        let (wix, task_name, task_signals) = WORKER.with(|w| {
            let b = w.borrow();
            let ctx = b.as_ref().expect("worker ctx");
            let (name, sigs) = match ctx.stack.last() {
                Some((n, s, ..)) => (n.clone(), s.clone()),
                None => ("<worker>".to_string(), Vec::new()),
            };
            (ctx.index, name, sigs)
        });
        self.state
            .lock()
            .wait_frames
            .entry(wix)
            .or_default()
            .push(WaitFrame {
                task: task_name,
                awaited: event,
                hint: signaler_hint,
                signals: task_signals,
            });
        loop {
            let mut st = self.state.lock();
            if self.signaled(event) || st.deadlocked {
                if let Some(frames) = st.wait_frames.get_mut(&wix) {
                    frames.pop();
                }
                return;
            }
            let nested = if class == EventClass::Barrier {
                // §2.3.3: barrier waits never reschedule the worker.
                None
            } else {
                self.pop_eligible(&mut st, event, signaler_hint)
            };
            match nested {
                Some(task) => {
                    drop(st);
                    // Recursion bounded by the eligibility rule + depth cap.
                    self.run_task(task);
                }
                None => {
                    st.blocked.insert(wix, event);
                    st.parked += 1;
                    if let Some(report) = self.check_deadlock_locked(&st) {
                        if self.robustness.recover && self.release_wedge_locked(&mut st, &report) {
                            st.parked -= 1;
                            st.blocked.remove(&wix);
                            self.wake_locked(&st);
                            continue;
                        }
                        // Every worker is parked with nothing runnable:
                        // a genuine scheduling deadlock. Surface loudly.
                        st.deadlocked = true;
                        st.parked -= 1;
                        let outstanding = st.outstanding;
                        let awaited = format!("{event:?} ({})", self.event(event).name);
                        self.wake(st);
                        panic!(
                            "supervisor deadlock: all workers blocked \
                             (this worker on {awaited}); {outstanding} tasks \
                             outstanding; {report}"
                        );
                    }
                    self.park_watched(&mut st);
                    st.parked -= 1;
                    st.blocked.remove(&wix);
                }
            }
        }
    }

    fn spawn(&self, task: TaskDesc) {
        let mut st = self.state.lock();
        st.seq += 1;
        st.outstanding += 1;
        let key = priority_key(task.kind, task.weight, st.seq);
        let ready = ReadyTask {
            name: task.name,
            kind: task.kind,
            signals: task.signals,
            signals_def_scope: task.signals_def_scope,
            signals_barriers: task.signals_barriers,
            may_wait: task.may_wait,
            weight: task.weight,
            attempt: 0,
            retry_budget: task.retry_budget,
            body: task.body,
        };
        let unsatisfied: Vec<EventId> = task
            .prereqs
            .iter()
            .copied()
            .filter(|e| !self.signaled(*e))
            .collect();
        if unsatisfied.is_empty() {
            st.ready.insert(key, ready);
        } else {
            st.pending.push(PendingTask {
                prereqs: unsatisfied,
                key,
                task: ready,
            });
        }
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

type Payload = Box<dyn std::any::Any + Send>;

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
        .stack_size(16 * 1024 * 1024)
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
/// spawns the initial tasks (the paper's compiler-initialization thread,
/// which then blocks while the workers perform the compilation).
///
/// The threads are borrowed from a crew that outlives the run (the
/// paper's WorkCrews exist before the work arrives): after the first
/// runs have grown it, a run creates no thread.
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
    run_threaded_with(workers, Robustness::default(), setup)
}

/// [`run_threaded`] with a [`Robustness`] configuration: fault
/// injection, per-task wall-clock deadlines (microseconds), and — when
/// `recover` is set — catch-and-degrade instead of unwinding on task
/// panics and wedges. Caught panics and watchdog diagnoses come back in
/// [`RunReport::task_panics`] / [`RunReport::stalls`].
pub fn run_threaded_with(
    workers: usize,
    robustness: Robustness,
    setup: impl FnOnce(&Arc<ThreadedSupervisor>),
) -> RunReport {
    assert!(workers >= 1, "need at least one worker");
    let sup = Arc::new(ThreadedSupervisor::new(workers, robustness));
    setup(&sup);
    let (done, reports) = std::sync::mpsc::channel();
    for ix in 0..workers {
        let sup = Arc::clone(&sup);
        lend(Loan {
            work: Box::new(move || sup.worker_loop(ix as u32)),
            done: done.clone(),
        });
    }
    // Hear from every worker before re-raising anything: the supervisor
    // must be this thread's alone again, and every panic payload must be
    // accounted for (not just the first reporter's).
    let mut payloads: Vec<Payload> = (0..workers)
        .filter_map(|_| reports.recv().expect("every loan reports"))
        .collect();
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
    let (task_panics, stalls, recoveries) = {
        let mut st = sup.state.lock();
        (
            std::mem::take(&mut st.panics),
            std::mem::take(&mut st.stalls),
            std::mem::take(&mut st.recoveries),
        )
    };
    RunReport {
        virtual_time: None,
        wall_micros: sup.now(),
        trace,
        tasks_run: sup.tasks_run.load(Ordering::Relaxed) as usize,
        charges,
        task_panics,
        stalls,
        recoveries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn avoided_events_gate_tasks() {
        let order = Arc::new(Mutex::new(Vec::new()));
        run_threaded(1, |sup| {
            let gate = sup.new_event(EventClass::Avoided);
            let o1 = Arc::clone(&order);
            let mut gated = TaskDesc::new(
                "gated",
                TaskKind::Lexor, // highest priority, but gated
                Box::new(move || o1.lock().push("gated")),
            );
            gated.prereqs = vec![gate];
            sup.spawn(gated);
            let o2 = Arc::clone(&order);
            let sup2 = Arc::clone(sup);
            let mut opener = TaskDesc::new(
                "opener",
                TaskKind::ShortCodeGen, // lowest priority, but runnable
                Box::new(move || {
                    o2.lock().push("opener");
                    sup2.signal(gate);
                }),
            );
            opener.signals = vec![gate];
            sup.spawn(opener);
        });
        assert_eq!(*order.lock(), vec!["opener", "gated"]);
    }

    #[test]
    fn blocked_worker_runs_the_signaler() {
        // One worker: task A waits on e; the signaler task must be nested
        // on A's stack (otherwise: deadlock panic).
        let order = Arc::new(Mutex::new(Vec::new()));
        run_threaded(1, |sup| {
            let e = sup.new_event(EventClass::Handled);
            let o1 = Arc::clone(&order);
            let sup1 = Arc::clone(sup);
            sup.spawn(TaskDesc::new(
                "waiter",
                TaskKind::Lexor,
                Box::new(move || {
                    o1.lock().push("waiter-pre");
                    sup1.wait(e);
                    o1.lock().push("waiter-post");
                }),
            ));
            let o2 = Arc::clone(&order);
            let sup2 = Arc::clone(sup);
            let mut signaler = TaskDesc::new(
                "signaler",
                TaskKind::ShortCodeGen,
                Box::new(move || {
                    o2.lock().push("signaler");
                    sup2.signal(e);
                }),
            );
            signaler.signals = vec![e];
            sup.spawn(signaler);
        });
        assert_eq!(*order.lock(), vec!["waiter-pre", "signaler", "waiter-post"]);
    }

    #[test]
    fn eligibility_rule_blocks_unsafe_nesting() {
        // Worker runs A (signals e1, waits on e2). Candidate B may wait on
        // e1 → ineligible; candidate C (signals e2) is the signaler →
        // nested. Run with 1 worker so nesting is forced.
        let order = Arc::new(Mutex::new(Vec::new()));
        run_threaded(1, |sup| {
            let e1 = sup.new_event(EventClass::Handled);
            let e2 = sup.new_event(EventClass::Handled);
            let o = Arc::clone(&order);
            let supa = Arc::clone(sup);
            let mut a = TaskDesc::new(
                "A",
                TaskKind::Lexor,
                Box::new(move || {
                    o.lock().push("A-pre");
                    supa.wait(e2);
                    o.lock().push("A-post");
                    supa.signal(e1);
                }),
            );
            a.signals = vec![e1];
            sup.spawn(a);
            let o = Arc::clone(&order);
            let mut b = TaskDesc::new(
                "B",
                TaskKind::Splitter, // better priority than C
                Box::new(move || o.lock().push("B")),
            );
            b.may_wait = WaitSet {
                events: vec![e1],
                all_def_scopes: false,
                any_barrier: false,
            };
            sup.spawn(b);
            let o = Arc::clone(&order);
            let supc = Arc::clone(sup);
            let mut c = TaskDesc::new(
                "C",
                TaskKind::ShortCodeGen,
                Box::new(move || {
                    o.lock().push("C");
                    supc.signal(e2);
                }),
            );
            c.signals = vec![e2];
            sup.spawn(c);
        });
        let got = order.lock().clone();
        assert_eq!(got[0], "A-pre");
        assert_eq!(got[1], "C", "signaler nested, not the unsafe B");
        assert_eq!(got[2], "A-post");
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
mod hint_tests {
    use super::*;
    use crate::task::{TaskDesc, TaskKind, WaitSet};
    use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};

    /// Regression: a worker blocked on a *dynamically created* event (one
    /// appearing in no task's declared signals — the Optimistic DKY
    /// per-symbol events) must still find its resolver through the
    /// signaler hint; without the hint, conservative eligibility would
    /// wedge a single worker forever.
    #[test]
    fn hint_breaks_conservative_eligibility_stall() {
        let order = Arc::new(Mutex::new(Vec::new()));
        run_threaded(1, |sup| {
            let scope_done = sup.new_event_named(EventClass::Handled, "scope");
            let symbol_ev = sup.new_event_named(EventClass::Handled, "symbol");
            // Waiter: blocks on symbol_ev with hint scope_done.
            let o = Arc::clone(&order);
            let sup1 = Arc::clone(sup);
            let mut waiter = TaskDesc::new(
                "waiter",
                TaskKind::DefModParse,
                Box::new(move || {
                    o.lock().push("waiter-pre");
                    sup1.wait_hinted(symbol_ev, Some(scope_done));
                    o.lock().push("waiter-post");
                }),
            );
            waiter.signals_def_scope = true;
            waiter.may_wait = WaitSet {
                events: vec![],
                all_def_scopes: true,
                any_barrier: false,
            };
            sup.spawn(waiter);
            // Resolver: a def-parse-like task (all_def_scopes wait set →
            // ineligible under the plain rule vs the suspended waiter,
            // which signals_def_scope) that signals both events.
            let o = Arc::clone(&order);
            let sup2 = Arc::clone(sup);
            let mut resolver = TaskDesc::new(
                "resolver",
                TaskKind::DefModParse,
                Box::new(move || {
                    o.lock().push("resolver");
                    sup2.signal(symbol_ev);
                    sup2.signal(scope_done);
                }),
            );
            resolver.signals = vec![scope_done];
            resolver.signals_def_scope = true;
            resolver.may_wait = WaitSet {
                events: vec![],
                all_def_scopes: true,
                any_barrier: false,
            };
            sup.spawn(resolver);
        });
        assert_eq!(*order.lock(), vec!["waiter-pre", "resolver", "waiter-post"]);
    }

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

    /// Injected event cycle — A awaits what only B signals and vice
    /// versa: diagnosed with a named wait-for cycle instead of hanging,
    /// and the diagnosis propagates to the `run_threaded` caller.
    #[test]
    #[should_panic(expected = "wait-for cycle")]
    fn injected_event_cycle_is_diagnosed_not_hung() {
        run_threaded(2, |sup| {
            let ea = sup.new_event_named(EventClass::Handled, "needs-A");
            let eb = sup.new_event_named(EventClass::Handled, "needs-B");
            for (name, my, other) in [("A", ea, eb), ("B", eb, ea)] {
                let sup2 = Arc::clone(sup);
                let mut t = TaskDesc::new(
                    name,
                    TaskKind::ProcParse,
                    Box::new(move || {
                        sup2.wait(other);
                        sup2.signal(my);
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
    }

    /// A task gated on an avoided event that no live task signals used
    /// to park every worker silently — the idle-park path had no
    /// detector at all.
    #[test]
    #[should_panic(expected = "supervisor deadlock")]
    fn unsignaled_gate_is_diagnosed_not_hung() {
        run_threaded(2, |sup| {
            let gate = sup.new_event_named(EventClass::Avoided, "never-signaled");
            let mut t = TaskDesc::new("gated", TaskKind::Lexor, Box::new(|| {}));
            t.prereqs = vec![gate];
            sup.spawn(t);
        });
    }

    /// Two tasks hand a baton back and forth through fresh events, each
    /// parking while the other runs: one notification withheld from a
    /// sleeper (the gate in `wake` reading zero sleepers too early) and
    /// the round never ends. Idle workers (the 4-worker runs) sleep on
    /// the same condition variable throughout.
    fn ping_pong(workers: usize, class: EventClass, rounds: usize) {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let run = std::thread::spawn(move || {
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
            done_tx.send(report.tasks_run).expect("test thread listens");
        });
        let tasks_run = done_rx
            .recv_timeout(Duration::from_secs(300))
            .expect("ping-pong hung: a sleeper missed its wake-up");
        run.join().expect("run thread");
        assert_eq!(tasks_run, 2);
    }

    #[test]
    fn gated_notify_loses_no_wakeup_in_10_000_rounds() {
        for workers in [2, 4] {
            ping_pong(workers, EventClass::Handled, 10_000);
            // Barrier waits spin before they park, and never nest.
            ping_pong(workers, EventClass::Barrier, 10_000);
        }
    }

    /// The two ways out of a barrier wait. A producer that publishes as
    /// soon as the consumer has arrived finds it watching the flag (or
    /// not yet waiting); one that publishes only after the state lock
    /// has shown it a sleeper — the consumer spun its 20 us out and
    /// parked — must still wake it.
    #[test]
    fn barrier_wait_spins_then_parks_and_wakes_either_way() {
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
mod fault_tests {
    use super::*;
    use ccm2_faults::FaultPlan;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn recovered_panic_completes_run_and_signals_dependents() {
        let plan = Arc::new(FaultPlan::single("task:victim", FaultKind::Panic));
        let ran = Arc::new(AtomicUsize::new(0));
        let report = run_threaded_with(
            2,
            Robustness::degrading(Some(Arc::clone(&plan)), None),
            |sup| {
                let done = sup.new_event_named(EventClass::Avoided, "victim-done");
                let mut victim = TaskDesc::new(
                    "victim",
                    TaskKind::ProcParse,
                    Box::new(|| unreachable!("injection fires before the body")),
                );
                victim.signals = vec![done];
                sup.spawn(victim);
                let r = Arc::clone(&ran);
                let mut dep = TaskDesc::new(
                    "dependent",
                    TaskKind::ShortCodeGen,
                    Box::new(move || {
                        r.fetch_add(1, Ordering::Relaxed);
                    }),
                );
                dep.prereqs = vec![done];
                sup.spawn(dep);
                for i in 0..4 {
                    let r = Arc::clone(&ran);
                    sup.spawn(TaskDesc::new(
                        format!("ok{i}"),
                        TaskKind::ShortCodeGen,
                        Box::new(move || {
                            r.fetch_add(1, Ordering::Relaxed);
                        }),
                    ));
                }
            },
        );
        assert_eq!(ran.load(Ordering::Relaxed), 5, "dependent + 4 ok tasks ran");
        assert_eq!(report.task_panics.len(), 1);
        assert_eq!(report.task_panics[0].0, "victim");
        assert!(report.task_panics[0].1.contains("injected fault"));
        assert!(plan.any_fired());
    }

    #[test]
    fn lost_signal_is_force_released_by_watchdog() {
        let plan = Arc::new(FaultPlan::single("signal:gate", FaultKind::LoseSignal));
        let post = Arc::new(AtomicUsize::new(0));
        let report = run_threaded_with(2, Robustness::degrading(Some(plan), None), |sup| {
            let gate = sup.new_event_named(EventClass::Handled, "gate");
            let p = Arc::clone(&post);
            let sup1 = Arc::clone(sup);
            let mut waiter = TaskDesc::new(
                "waiter",
                TaskKind::ProcParse,
                Box::new(move || {
                    sup1.wait(gate);
                    p.fetch_add(1, Ordering::Relaxed);
                }),
            );
            waiter.may_wait = WaitSet {
                events: vec![gate],
                all_def_scopes: false,
                any_barrier: false,
            };
            sup.spawn(waiter);
            let sup2 = Arc::clone(sup);
            let mut signaler = TaskDesc::new(
                "signaler",
                TaskKind::ShortCodeGen,
                Box::new(move || sup2.signal(gate)),
            );
            signaler.signals = vec![gate];
            sup.spawn(signaler);
        });
        assert_eq!(post.load(Ordering::Relaxed), 1, "waiter released");
        assert!(
            !report.stalls.is_empty(),
            "wedge release must be diagnosed; got: {:?}",
            report.stalls
        );
    }

    #[test]
    fn injected_stall_is_diagnosed_within_deadline() {
        let plan = Arc::new(FaultPlan::single(
            "task:stalling",
            FaultKind::Stall { units: 60 },
        ));
        // Deadline 10ms, stall 60ms: the parked second worker's timed
        // wait must diagnose the overrun while the task is still asleep.
        let report = run_threaded_with(2, Robustness::degrading(Some(plan), Some(10_000)), |sup| {
            sup.spawn(TaskDesc::new(
                "stalling",
                TaskKind::ProcParse,
                Box::new(|| {}),
            ));
        });
        assert_eq!(report.tasks_run, 1);
        assert!(
            report
                .stalls
                .iter()
                .any(|s| s.contains("stalling") && s.contains("deadline")),
            "stall diagnosis expected; got: {:?}",
            report.stalls
        );
    }

    /// Supervised recovery: a transient fault (exact-match site) is
    /// retried on a fresh dispatch; the body runs, dependents run, and
    /// nothing degrades.
    #[test]
    fn transient_fault_is_retried_and_recovers() {
        let plan = Arc::new(FaultPlan::single("task:victim", FaultKind::Panic));
        let ran = Arc::new(AtomicUsize::new(0));
        let report = run_threaded_with(
            2,
            Robustness::supervised(Some(Arc::clone(&plan)), None, 2),
            |sup| {
                let done = sup.new_event_named(EventClass::Avoided, "victim-done");
                let r = Arc::clone(&ran);
                let mut victim = TaskDesc::new(
                    "victim",
                    TaskKind::ProcParse,
                    Box::new(move || {
                        r.fetch_add(1, Ordering::Relaxed);
                    }),
                );
                victim.signals = vec![done];
                sup.spawn(victim);
                let r = Arc::clone(&ran);
                let mut dep = TaskDesc::new(
                    "dependent",
                    TaskKind::ShortCodeGen,
                    Box::new(move || {
                        r.fetch_add(1, Ordering::Relaxed);
                    }),
                );
                dep.prereqs = vec![done];
                sup.spawn(dep);
            },
        );
        assert_eq!(ran.load(Ordering::Relaxed), 2, "victim + dependent ran");
        assert!(report.task_panics.is_empty(), "{:?}", report.task_panics);
        assert!(report.stalls.is_empty(), "{:?}", report.stalls);
        assert_eq!(report.recoveries, vec![("victim".to_string(), 1)]);
    }

    /// A persistent fault (`task:{name}*` glob) exhausts retries and
    /// then degrades; a fatal stall never sleeps on retried attempts.
    #[test]
    fn persistent_fault_exhausts_retries_and_degrades() {
        let plan = Arc::new(FaultPlan::single("task:victim*", FaultKind::Panic));
        let report = run_threaded_with(
            1,
            Robustness::supervised(Some(Arc::clone(&plan)), None, 2),
            |sup| {
                sup.spawn(TaskDesc::new(
                    "victim",
                    TaskKind::ProcParse,
                    Box::new(|| unreachable!("every attempt faults")),
                ));
            },
        );
        assert_eq!(report.task_panics.len(), 1);
        assert_eq!(report.task_panics[0].0, "victim");
        assert!(report.recoveries.is_empty());
        assert!(
            plan.fired().iter().any(|f| f.contains("task:victim#r2")),
            "all retry attempts were dispatched: {:?}",
            plan.fired()
        );
    }

    /// A stall that would blow the wall-clock deadline (units are ms,
    /// deadline us) is fatal: the retried dispatch skips the sleep
    /// entirely and no stall is diagnosed.
    #[test]
    fn fatal_stall_is_retried_without_sleeping() {
        let plan = Arc::new(FaultPlan::single(
            "task:victim",
            FaultKind::Stall { units: 60_000 },
        ));
        let started = std::time::Instant::now();
        let report = run_threaded_with(
            2,
            Robustness::supervised(Some(plan), Some(10_000), 1),
            |sup| {
                sup.spawn(TaskDesc::new(
                    "victim",
                    TaskKind::ProcParse,
                    Box::new(|| {}),
                ));
            },
        );
        assert!(
            started.elapsed() < std::time::Duration::from_secs(30),
            "retried stall must not serve the 60s sleep"
        );
        assert_eq!(report.recoveries, vec![("victim".to_string(), 1)]);
        assert!(report.stalls.is_empty(), "{:?}", report.stalls);
    }

    /// Budget-aware retry scheduling on real threads: with one worker
    /// the dispatch order is the queue order, so the trace shows whether
    /// the retried victim ran before or after the competitors spawned
    /// after it. The boosted requeue must put its (successful) retry
    /// ahead of every fresh same-class task; the original-priority
    /// requeue would run it last.
    #[test]
    fn near_budget_retry_jumps_ahead_of_fresh_same_class_work() {
        let plan = Arc::new(FaultPlan::single("task:victim", FaultKind::Panic));
        let report = run_threaded_with(1, Robustness::supervised(Some(plan), None, 1), |sup| {
            sup.spawn(TaskDesc::new(
                "victim",
                TaskKind::ShortCodeGen,
                Box::new(|| {}),
            ));
            for i in 0..3 {
                sup.spawn(TaskDesc::new(
                    format!("comp{i}"),
                    TaskKind::ShortCodeGen,
                    Box::new(|| {}),
                ));
            }
        });
        assert_eq!(report.recoveries, vec![("victim".to_string(), 1)]);
        let pos = |name: &str| {
            report
                .trace
                .segments
                .iter()
                .position(|s| s.name == name)
                .unwrap_or_else(|| panic!("no segment for {name}"))
        };
        let victim = pos("victim");
        for i in 0..3 {
            let comp = pos(&format!("comp{i}"));
            assert!(
                victim < comp,
                "boosted retry must run before comp{i} \
                 (victim segment #{victim}, comp segment #{comp})"
            );
        }
    }

    #[test]
    fn multiple_worker_panics_are_aggregated() {
        // Without recover mode two organic panics on two workers must
        // both be accounted for in the re-raised payload.
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
        let sup = Arc::new(ThreadedSupervisor::new(1, Robustness::default()));
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

    #[test]
    fn plain_run_unaffected_by_default_robustness() {
        let report = run_threaded(2, |sup| {
            for i in 0..8 {
                sup.spawn(TaskDesc::new(
                    format!("t{i}"),
                    TaskKind::ShortCodeGen,
                    Box::new(|| {}),
                ));
            }
        });
        assert!(report.task_panics.is_empty());
        assert!(report.stalls.is_empty());
    }
}
