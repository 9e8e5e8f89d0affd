//! The virtual-time multiprocessor executor.
//!
//! The paper's evaluation sweeps 1–8 Firefly CVax processors; this
//! reproduction's host has one CPU, so speedup cannot be observed on the
//! wall clock. This executor runs the *actual* compiler task bodies —
//! real lexing, real symbol tables, real code generation — but schedules
//! them on `P` *virtual processors* under the same Supervisors policy
//! (`crate::policy`) the threaded executor drives, advancing a virtual
//! clock from the work each task charges
//! ([`ccm2_support::work::WorkMeter`] units). What this driver supplies
//! to the policy: an event has *occurred* once the controller has
//! published it at a virtual time, and ready entries are stamped with
//! the virtual time they became ready.
//!
//! Mechanically, every task runs on its own parked OS thread; a
//! single-threaded controller resumes exactly one task at a time and
//! always steps the runnable processor with the smallest local clock, so
//! shared-state mutations happen in virtual-time order and the whole
//! simulation is deterministic. The cost model includes the Firefly's
//! memory-bus saturation (§4.1): each charged unit is inflated by a
//! contention factor that grows with the number of concurrently busy
//! processors.

use std::cell::RefCell;
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;

use parking_lot::Mutex;

use ccm2_support::ids::EventId;
use ccm2_support::work::Work;

use crate::policy::{Policy, Ready, Task};
use crate::task::{TaskBody, TaskDesc};
use crate::trace::{Segment, Trace};
use crate::{payload_message, EventClass, EventTable, ExecEnv, Payload, Robustness, RunReport};

/// Configuration for a simulated run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of virtual processors (the paper sweeps 1..=8).
    pub procs: u32,
    /// Per-unit cost multiplier for each [`Work`] kind (indexed by the
    /// enum's discriminant order). 1.0 means one charged unit = one
    /// virtual time unit.
    pub cost: [f64; Work::COUNT],
    /// Memory-bus contention: each unit is multiplied by
    /// `1 + contention_alpha × (busy − 1)` where `busy` is the number of
    /// processors executing at charge time (Firefly bus saturation).
    pub contention_alpha: f64,
    /// Fixed virtual cost of dispatching a task to a worker (scheduling
    /// overhead; also what makes the 1-processor concurrent compiler
    /// slower than the sequential one, §4.2).
    pub dispatch_cost: u64,
    /// Whether a worker whose task blocks on a handled event is
    /// rescheduled onto other eligible tasks (the Supervisors extension
    /// of WorkCrews, §2.3.2). `false` models plain WorkCrews: blocked
    /// workers simply wait — an ablation quantifying what the paper's
    /// extension buys.
    pub reschedule_blocked: bool,
}

impl SimConfig {
    /// A config with unit costs and no contention.
    pub fn new(procs: u32) -> SimConfig {
        SimConfig {
            procs,
            cost: [1.0; Work::COUNT],
            contention_alpha: 0.0,
            dispatch_cost: 0,
            reschedule_blocked: true,
        }
    }

    /// The calibrated "Firefly-like" model used by the benchmark harness.
    ///
    /// Calibration (see EXPERIMENTS.md): the front-end kinds (lex, split,
    /// import) are cheap relative to semantic analysis and code
    /// generation, as in real compilers; the contention term models the
    /// Firefly's memory-bus saturation and fixed processor priorities
    /// (§4.1), which the paper cites as the cause of sub-linear speedup.
    /// Cost index order follows [`Work::ALL`]: Lex, Split, Import, Parse,
    /// DeclAnalyze, Lookup, StmtAnalyze, CodeGen, Merge, TaskOverhead,
    /// Analyze, Splice.
    pub fn firefly(procs: u32) -> SimConfig {
        SimConfig {
            procs,
            cost: [
                0.05, 0.015, 0.01, 0.5, 2.0, 1.5, 1.5, 1.0, 0.5, 1.0, 1.2, 0.5,
            ],
            contention_alpha: 0.03,
            dispatch_cost: 6,
            reschedule_blocked: true,
        }
    }
}

/// How many accumulated work units a task buffers before yielding to the
/// controller. Virtual time advances in lumps of at most this size, which
/// keeps controller handshakes (two thread switches each) amortized.
const CHARGE_QUANTUM: u64 = 256;

enum Action {
    /// Accumulated charge per work kind.
    Charge([u64; Work::COUNT]),
    /// Wait on an event, with an optional co-signaler hint (see
    /// [`crate::ExecEnv::wait_hinted`]).
    Wait(EventId, Option<EventId>),
    /// Task body finished; carries the payload if it panicked.
    Finish(Option<Payload>),
}

struct YieldMsg {
    signals: Vec<EventId>,
    spawns: Vec<TaskDesc>,
    action: Action,
}

/// A dispatched task, running on its own thread whenever the controller
/// resumes it.
struct Started {
    task: Task,
    resume_tx: SyncSender<()>,
    yield_rx: Receiver<YieldMsg>,
}

/// What a processor is about to step: a task taken from the ready queue
/// and not dispatched yet, or one already started.
enum Slot {
    Fresh(Ready),
    Started(Started),
}

/// Setup-phase spawns and signals, ingested by the controller at time 0.
#[derive(Default)]
struct Prestart {
    spawns: Vec<TaskDesc>,
    signals: Vec<EventId>,
}

/// The simulated execution environment handed to compiler tasks.
pub struct SimEnv {
    /// An event's flag is set as soon as a task signals it (tasks run
    /// one at a time, in virtual-time order); waiters are released when
    /// the controller publishes the signal at the slice-end clock.
    events: EventTable,
    prestart: Mutex<Prestart>,
    /// Queried by tasks at `signal:` sites (lost-signal injection), and
    /// by the controller for recover mode.
    robustness: Robustness,
}

thread_local! {
    static SIM_TASK: RefCell<Option<SimTaskCtx>> = const { RefCell::new(None) };
}

/// The payload a task thread unwinds with when it finds the controller
/// gone: the run ended (a deadlock reported, a task's panic re-raised)
/// while the task was parked.
struct Shutdown;

/// The controller hung up on a parked task. Unwind the task quietly —
/// `resume_unwind` skips the panic hook — unless it is unwinding already
/// (a drop that charged or waited on the way out), which then goes on.
fn controller_gone() {
    if !std::thread::panicking() {
        std::panic::resume_unwind(Box::new(Shutdown));
    }
}

struct SimTaskCtx {
    yield_tx: SyncSender<YieldMsg>,
    resume_rx: Receiver<()>,
    pending_signals: Vec<EventId>,
    pending_spawns: Vec<TaskDesc>,
    pending_charge: [u64; Work::COUNT],
    pending_total: u64,
}

impl SimTaskCtx {
    fn yield_with(&mut self, action: Action) {
        let msg = YieldMsg {
            signals: std::mem::take(&mut self.pending_signals),
            spawns: std::mem::take(&mut self.pending_spawns),
            action,
        };
        if self.yield_tx.send(msg).is_err() {
            controller_gone();
        }
    }

    /// Yields the buffered charge (if any) and waits to be resumed.
    fn flush_charge(&mut self) {
        if self.pending_total == 0 {
            return;
        }
        let lump = std::mem::take(&mut self.pending_charge);
        self.pending_total = 0;
        self.yield_with(Action::Charge(lump));
        if self.resume_rx.recv().is_err() {
            controller_gone();
        }
    }
}

impl ExecEnv for SimEnv {
    fn new_event_named(&self, class: EventClass, name: &str) -> EventId {
        self.events.create(class, name)
    }

    fn signal(&self, event: EventId) {
        if self.robustness.loses_signal(&self.events.get(event).name) {
            // Injected lost signal: never marked signaled, never
            // published to the controller. The watchdog force-releases
            // any waiter it wedges.
            return;
        }
        self.events.set(event);
        let in_task = SIM_TASK.with(|t| {
            let mut b = t.borrow_mut();
            if let Some(ctx) = b.as_mut() {
                ctx.pending_signals.push(event);
                true
            } else {
                false
            }
        });
        if !in_task {
            self.prestart.lock().signals.push(event);
        }
    }

    fn is_signaled(&self, event: EventId) -> bool {
        self.events.is_set(event)
    }

    fn wait_hinted(&self, event: EventId, signaler_hint: Option<EventId>) {
        // Flush buffered work (so the wait happens at the right virtual
        // time), yield a Wait action, then block until resumed (which the
        // controller does once the event has occurred in virtual time).
        SIM_TASK.with(|t| {
            let mut b = t.borrow_mut();
            let ctx = b.as_mut().expect("wait() outside a simulated task");
            ctx.flush_charge();
            ctx.yield_with(Action::Wait(event, signaler_hint));
        });
        let resumed = SIM_TASK.with(|t| {
            let b = t.borrow();
            let ctx = b.as_ref().expect("sim task ctx");
            ctx.resume_rx.recv().is_ok()
        });
        if !resumed {
            controller_gone();
        }
    }

    fn spawn(&self, task: TaskDesc) {
        let leftover = SIM_TASK.with(|t| {
            let mut b = t.borrow_mut();
            match b.as_mut() {
                Some(ctx) => {
                    ctx.pending_spawns.push(task);
                    None
                }
                None => Some(task),
            }
        });
        if let Some(task) = leftover {
            // Setup-thread spawn (before the controller starts).
            self.prestart.lock().spawns.push(task);
        }
    }

    fn charge(&self, work: Work, units: u64) {
        if units == 0 {
            return;
        }
        SIM_TASK.with(|t| {
            let mut b = t.borrow_mut();
            let Some(ctx) = b.as_mut() else {
                return; // setup-thread charges don't consume virtual time
            };
            ctx.pending_charge[work as usize] += units;
            ctx.pending_total += units;
            if ctx.pending_total >= CHARGE_QUANTUM {
                ctx.flush_charge();
            }
        });
    }

    fn virtual_now(&self) -> u64 {
        0 // tasks do not observe the clock directly
    }
}

struct Proc {
    clock: u64,
    current: Option<Slot>,
    /// Suspended tasks (bottom→top) with the event each awaits and the
    /// co-signaler hint, if any.
    stack: Vec<(Started, EventId, Option<EventId>)>,
}

/// Runs a task graph on `config.procs` virtual processors. `setup`
/// creates events and spawns the initial tasks, exactly as with
/// [`crate::threaded::run_threaded`]; the run is fully deterministic for
/// a deterministic task graph.
///
/// # Panics
///
/// Panics if the task graph deadlocks (nothing runnable while tasks
/// remain), mirroring the threaded executor's detector.
pub fn run_sim(config: SimConfig, setup: impl FnOnce(&Arc<SimEnv>)) -> RunReport {
    run_sim_with(config, Robustness::default(), setup)
}

/// [`run_sim`] with a [`Robustness`] configuration: fault injection
/// and — when `recover` is set — catch-and-degrade instead of unwinding
/// on task panics and wedges. Caught panics and watchdog diagnoses come
/// back in [`RunReport::task_panics`] / [`RunReport::stalls`].
pub fn run_sim_with(
    config: SimConfig,
    robustness: Robustness,
    setup: impl FnOnce(&Arc<SimEnv>),
) -> RunReport {
    assert!(config.procs >= 1, "need at least one processor");
    let env = Arc::new(SimEnv {
        events: EventTable::default(),
        prestart: Mutex::default(),
        robustness,
    });
    setup(&env);
    Controller::new(env, config).run()
}

struct Controller {
    env: Arc<SimEnv>,
    config: SimConfig,
    policy: Policy,
    wake_time: WakeTimes,
    procs: Vec<Proc>,
    trace: Trace,
    charges: [u64; Work::COUNT],
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// The virtual time at which each event occurred, by event index:
/// `None`, or past the end, while the controller has not published it.
#[derive(Default)]
struct WakeTimes(Vec<Option<u64>>);

impl WakeTimes {
    fn of(&self, event: EventId) -> Option<u64> {
        self.0.get(event.index()).copied().flatten()
    }

    /// The policy's "has this event occurred".
    fn occurred(&self) -> impl Fn(EventId) -> bool + '_ {
        |e| self.of(e).is_some()
    }
}

impl Controller {
    fn new(env: Arc<SimEnv>, config: SimConfig) -> Controller {
        let procs = (0..config.procs)
            .map(|_| Proc {
                clock: 0,
                current: None,
                stack: Vec::new(),
            })
            .collect();
        Controller {
            policy: Policy::new(env.robustness.clone()),
            env,
            config,
            wake_time: WakeTimes::default(),
            procs,
            trace: Trace::default(),
            charges: [0; Work::COUNT],
            handles: Vec::new(),
        }
    }

    /// Nobody can run and tasks remain. Under recover mode the wedge
    /// is released ([`Policy::release_wedge`]) at the latest clock;
    /// otherwise, or with nothing to release, the run ends here.
    fn wedged(&mut self) {
        fn waits(procs: &[Proc]) -> impl Iterator<Item = &(Started, EventId, Option<EventId>)> {
            procs.iter().flat_map(|p| p.stack.iter())
        }
        let suspended = waits(&self.procs).map(|(s, e, hint)| (&s.task, *e, *hint));
        let report = format!(
            "{} tasks outstanding, none runnable; {}",
            self.policy.outstanding(),
            self.policy
                .wait_for_report(suspended, &self.env.events, self.wake_time.occurred())
        );
        if self.env.robustness.recover {
            let awaited = waits(&self.procs).map(|&(_, e, _)| e);
            let events = self
                .policy
                .release_wedge(awaited, self.wake_time.occurred(), &report);
            let at = self.procs.iter().map(|p| p.clock).max().unwrap_or(0);
            for &e in &events {
                self.env.events.set(e);
                self.publish_signal(e, at);
            }
            if !events.is_empty() {
                return;
            }
        }
        self.shut_down();
        panic!("virtual-time deadlock: {report}");
    }

    /// Ends the run's task threads before the controller reports its
    /// failure: dropping a started task's channels wakes its parked
    /// thread, which unwinds quietly (`controller_gone`); then every
    /// thread the run launched is joined.
    fn shut_down(&mut self) {
        for p in &mut self.procs {
            p.current = None;
            p.stack.clear();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }

    fn admit(&mut self, desc: TaskDesc, now: u64) {
        let woken = desc.prereqs.iter().filter_map(|e| self.wake_time.of(*e));
        let ready_at = woken.fold(now, u64::max);
        self.policy.admit(desc, ready_at, self.wake_time.occurred());
    }

    /// The signal of `event` reaches the waiters: it occurred at `at`,
    /// unless it had occurred before.
    fn publish_signal(&mut self, event: EventId, at: u64) {
        if self.wake_time.of(event).is_some() {
            return;
        }
        let times = &mut self.wake_time.0;
        if times.len() <= event.index() {
            times.resize(event.index() + 1, None);
        }
        times[event.index()] = Some(at);
        self.policy.release(event, at, self.wake_time.occurred());
    }

    /// Starts a dispatched task's thread, parked until its first resume.
    fn launch(&mut self, task: Task, body: TaskBody) -> Started {
        let (resume_tx, resume_rx) = std::sync::mpsc::sync_channel::<()>(0);
        let (yield_tx, yield_rx) = std::sync::mpsc::sync_channel::<YieldMsg>(0);
        let handle = std::thread::Builder::new()
            .name(format!("sim-{}", task.name))
            .stack_size(8 * 1024 * 1024)
            .spawn(move || {
                // Wait for the first resume before touching anything.
                if resume_rx.recv().is_err() {
                    return;
                }
                SIM_TASK.with(|t| {
                    *t.borrow_mut() = Some(SimTaskCtx {
                        yield_tx,
                        resume_rx,
                        pending_signals: Vec::new(),
                        pending_spawns: Vec::new(),
                        pending_charge: [0; Work::COUNT],
                        pending_total: 0,
                    })
                });
                // The controller decides what a panic means: it owns the
                // run's `Robustness`.
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)).err();
                if caught.as_ref().is_some_and(|p| p.is::<Shutdown>()) {
                    SIM_TASK.with(|t| t.borrow_mut().take());
                    return;
                }
                // Final yields: flush buffered work, then Finish.
                SIM_TASK.with(|t| {
                    let mut b = t.borrow_mut();
                    let ctx = b.as_mut().expect("sim ctx");
                    ctx.flush_charge();
                    let msg = YieldMsg {
                        signals: std::mem::take(&mut ctx.pending_signals),
                        spawns: std::mem::take(&mut ctx.pending_spawns),
                        action: Action::Finish(caught),
                    };
                    ctx.yield_tx.send(msg).ok();
                    *b = None;
                });
            })
            .expect("spawn sim task thread");
        self.handles.push(handle);
        Started {
            task,
            resume_tx,
            yield_rx,
        }
    }

    /// `1 + contention_alpha × (busy − 1)`, with the processor being
    /// stepped (whose slot is taken meanwhile) among the busy ones.
    fn contention_factor(&self) -> f64 {
        let others = self.procs.iter().filter(|p| p.current.is_some()).count();
        1.0 + self.config.contention_alpha * others as f64
    }

    fn run(mut self) -> RunReport {
        // Ingest setup-phase spawns and signals at time 0.
        let Prestart { spawns, signals } = std::mem::take(&mut *self.env.prestart.lock());
        for e in signals {
            self.publish_signal(e, 0);
        }
        for t in spawns {
            self.admit(t, 0);
        }

        loop {
            // 1. Fill idle processors (ascending index → deterministic).
            for p in 0..self.procs.len() {
                if self.procs[p].current.is_some() {
                    continue;
                }
                let next = match self.procs[p].stack.last() {
                    Some(&(_, e, hint)) => {
                        // Resume a suspended task whose event has occurred.
                        if let Some(wake) = self.wake_time.of(e) {
                            let (t, ..) = self.procs[p].stack.pop().expect("just seen");
                            self.procs[p].clock = self.procs[p].clock.max(wake);
                            self.procs[p].current = Some(Slot::Started(t));
                            continue;
                        }
                        // Under the WorkCrews ablation no wait reschedules
                        // the worker; otherwise try to nest work under the
                        // blocked stack.
                        if !self.config.reschedule_blocked {
                            continue;
                        }
                        let class = self.env.events.get(e).class;
                        let stack = self.procs[p].stack.iter().map(|(s, ..)| &s.task);
                        self.policy.next_for_blocked((e, class), hint, stack)
                    }
                    None => self.policy.next_idle(),
                };
                if let Some(ready) = next {
                    self.procs[p].clock = self.procs[p].clock.max(ready.stamp);
                    self.procs[p].current = Some(Slot::Fresh(ready));
                }
            }

            // 2. Choose the runnable processor with the smallest clock.
            let next = self
                .procs
                .iter()
                .enumerate()
                .filter(|(_, p)| p.current.is_some())
                .min_by_key(|(ix, p)| (p.clock, *ix))
                .map(|(ix, _)| ix);
            let Some(p) = next else {
                if self.policy.outstanding() == 0 {
                    break;
                }
                self.wedged();
                continue;
            };

            // 3. Step it, dispatching it first if it is fresh from the
            // ready queue: the dispatch is charged before its first slice.
            let slice_start = self.procs[p].clock;
            let mut task = match self.procs[p].current.take().expect("runnable") {
                Slot::Started(task) => task,
                Slot::Fresh(ready) => {
                    let (task, body) = self.policy.dispatch(ready);
                    self.procs[p].clock = slice_start + self.config.dispatch_cost;
                    self.launch(task, body)
                }
            };
            task.resume_tx.send(()).expect("task thread alive");
            let msg = task.yield_rx.recv().expect("task thread alive");

            // 4. Apply the action.
            match msg.action {
                Action::Charge(lump) => {
                    let factor = self.contention_factor();
                    let mut scaled = 0f64;
                    for (kind_ix, units) in lump.iter().enumerate() {
                        if *units > 0 {
                            self.charges[kind_ix] += units;
                            scaled += *units as f64 * self.config.cost[kind_ix];
                        }
                    }
                    let advance = (scaled * factor).ceil() as u64;
                    self.procs[p].clock += advance.max(1);
                    self.record_segment(p, &task.task, slice_start);
                    self.procs[p].current = Some(Slot::Started(task));
                }
                Action::Wait(e, hint) => {
                    self.record_segment(p, &task.task, slice_start);
                    if let Some(wake) = self.wake_time.of(e) {
                        // Already occurred: just advance past the wake.
                        // The task stays current; it is blocked in wait()
                        // until resumed, which happens on its next step.
                        self.procs[p].clock = self.procs[p].clock.max(wake);
                        self.procs[p].current = Some(Slot::Started(task));
                    } else {
                        // Genuine block: suspend onto the stack.
                        self.procs[p].stack.push((task, e, hint));
                    }
                }
                Action::Finish(caught) => {
                    self.record_segment(p, &task.task, slice_start);
                    let caught = match caught {
                        // Unwind with the task's own payload, as the
                        // threaded executor does.
                        Some(payload) if !self.env.robustness.recover => {
                            self.shut_down();
                            std::panic::resume_unwind(payload)
                        }
                        caught => caught.map(|p| payload_message(p.as_ref())),
                    };
                    let at = self.procs[p].clock;
                    for e in self.policy.finish(&mut task.task, caught, &self.env.events) {
                        self.env.events.set(e);
                        self.publish_signal(e, at);
                    }
                }
            }

            // 5. Publish this slice's signals and spawns at the slice-end
            //    clock.
            let at = self.procs[p].clock;
            for e in msg.signals {
                self.publish_signal(e, at);
            }
            for t in msg.spawns {
                self.admit(t, at);
            }
        }

        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        let makespan = self.procs.iter().map(|p| p.clock).max().unwrap_or(0);
        RunReport {
            virtual_time: Some(makespan),
            wall_micros: 0,
            trace: self.trace,
            tasks_run: self.policy.finished,
            charges: self.charges,
            task_panics: self.policy.panics,
            stalls: self.policy.stalls,
            recoveries: Vec::new(),
        }
    }

    fn record_segment(&mut self, p: usize, t: &Task, start: u64) {
        let end = self.procs[p].clock;
        if end <= start {
            return;
        }
        // Merge with a contiguous previous segment of the same task.
        if let Some(last) = self.trace.segments.last_mut() {
            if last.proc == p as u32 && last.end == start && last.name == t.name {
                last.end = end;
                return;
            }
        }
        self.trace.segments.push(Segment {
            proc: p as u32,
            kind: t.kind,
            name: t.name.clone(),
            start,
            end,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{TaskKind, WaitSet};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn charge_task(
        env: &Arc<SimEnv>,
        name: &str,
        kind: TaskKind,
        units: u64,
        counter: Arc<AtomicUsize>,
    ) -> TaskDesc {
        let env = Arc::clone(env);
        TaskDesc::new(
            name,
            kind,
            Box::new(move || {
                env.charge(Work::CodeGen, units);
                counter.fetch_add(1, Ordering::Relaxed);
            }),
        )
    }

    #[test]
    fn single_proc_serializes_work() {
        let counter = Arc::new(AtomicUsize::new(0));
        let report = run_sim(SimConfig::new(1), |env| {
            for i in 0..4 {
                env.spawn(charge_task(
                    env,
                    &format!("t{i}"),
                    TaskKind::ShortCodeGen,
                    100,
                    Arc::clone(&counter),
                ));
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 4);
        assert_eq!(report.virtual_time, Some(400));
    }

    #[test]
    fn two_procs_halve_the_makespan() {
        let counter = Arc::new(AtomicUsize::new(0));
        let report = run_sim(SimConfig::new(2), |env| {
            for i in 0..4 {
                env.spawn(charge_task(
                    env,
                    &format!("t{i}"),
                    TaskKind::ShortCodeGen,
                    100,
                    Arc::clone(&counter),
                ));
            }
        });
        assert_eq!(report.virtual_time, Some(200));
    }

    #[test]
    fn contention_inflates_parallel_work() {
        let mk = |alpha: f64| {
            let mut cfg = SimConfig::new(2);
            cfg.contention_alpha = alpha;
            run_sim(cfg, |env| {
                for i in 0..2 {
                    let env2 = Arc::clone(env);
                    env.spawn(TaskDesc::new(
                        format!("t{i}"),
                        TaskKind::ShortCodeGen,
                        Box::new(move || env2.charge(Work::CodeGen, 100)),
                    ));
                }
            })
            .virtual_time
            .expect("sim time")
        };
        let free = mk(0.0);
        let contended = mk(0.5);
        assert_eq!(free, 100);
        assert!(contended > free, "{contended} vs {free}");
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            run_sim(SimConfig::firefly(4), |env| {
                let e = env.new_event(EventClass::Handled);
                for i in 0..20u64 {
                    let env2 = Arc::clone(env);
                    let mut t = TaskDesc::new(
                        format!("t{i}"),
                        if i % 3 == 0 {
                            TaskKind::ProcParse
                        } else {
                            TaskKind::ShortCodeGen
                        },
                        Box::new(move || {
                            env2.charge(Work::CodeGen, 50 + i * 7);
                            if i == 11 {
                                env2.signal(e);
                            } else if i % 5 == 0 {
                                env2.wait(e);
                                env2.charge(Work::CodeGen, 5);
                            }
                        }),
                    );
                    t.weight = i;
                    if i == 11 {
                        t.signals = vec![e];
                    } else if i % 5 == 0 {
                        t.may_wait = WaitSet {
                            events: vec![e],
                            all_def_scopes: false,
                            any_barrier: false,
                        };
                    }
                    env.spawn(t);
                }
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a.virtual_time, b.virtual_time);
        assert_eq!(a.trace.segments, b.trace.segments);
    }

    #[test]
    fn tasks_spawning_tasks() {
        let counter = Arc::new(AtomicUsize::new(0));
        let report = run_sim(SimConfig::new(3), |env| {
            let env2 = Arc::clone(env);
            let c = Arc::clone(&counter);
            env.spawn(TaskDesc::new(
                "root",
                TaskKind::Lexor,
                Box::new(move || {
                    env2.charge(Work::Lex, 10);
                    for i in 0..5 {
                        let c2 = Arc::clone(&c);
                        let env3 = Arc::clone(&env2);
                        env2.spawn(TaskDesc::new(
                            format!("child{i}"),
                            TaskKind::ShortCodeGen,
                            Box::new(move || {
                                env3.charge(Work::CodeGen, 100);
                                c2.fetch_add(1, Ordering::Relaxed);
                            }),
                        ));
                    }
                }),
            ));
        });
        assert_eq!(counter.load(Ordering::Relaxed), 5);
        // 10 units of root, then 5×100 across 3 procs: 2+2+1 → 210.
        assert_eq!(report.virtual_time, Some(210));
    }
}

#[cfg(test)]
mod ablation_tests {
    use super::*;
    use crate::task::{TaskKind, WaitSet};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// With rescheduling on (Supervisors), a single processor nests the
    /// signaler under the blocked waiter; with it off (plain WorkCrews),
    /// the same graph deadlocks — the §2.3.2 distinction in miniature.
    #[test]
    #[should_panic(expected = "virtual-time deadlock")]
    fn workcrews_mode_deadlocks_where_supervisors_nests() {
        let mut cfg = SimConfig::new(1);
        cfg.reschedule_blocked = false;
        run_sim(cfg, |env| {
            let e = env.new_event(EventClass::Handled);
            let env1 = Arc::clone(env);
            let mut w = TaskDesc::new(
                "waiter",
                TaskKind::Lexor,
                Box::new(move || {
                    env1.charge(Work::Parse, 10);
                    env1.wait(e);
                }),
            );
            w.may_wait = WaitSet {
                events: vec![e],
                all_def_scopes: false,
                any_barrier: false,
            };
            env.spawn(w);
            let env2 = Arc::clone(env);
            let mut s = TaskDesc::new(
                "signaler",
                TaskKind::ShortCodeGen,
                Box::new(move || env2.signal(e)),
            );
            s.signals = vec![e];
            env.spawn(s);
        });
    }

    /// Same graph with two processors: WorkCrews works (the second
    /// processor runs the signaler), just without nesting.
    #[test]
    fn workcrews_mode_works_with_enough_processors() {
        let done = Arc::new(AtomicUsize::new(0));
        let mut cfg = SimConfig::new(2);
        cfg.reschedule_blocked = false;
        let d = Arc::clone(&done);
        let report = run_sim(cfg, move |env| {
            let e = env.new_event(EventClass::Handled);
            let env1 = Arc::clone(env);
            let d1 = Arc::clone(&d);
            let mut w = TaskDesc::new(
                "waiter",
                TaskKind::Lexor,
                Box::new(move || {
                    env1.charge(Work::Parse, 10);
                    env1.wait(e);
                    d1.fetch_add(1, Ordering::Relaxed);
                }),
            );
            w.may_wait = WaitSet {
                events: vec![e],
                all_def_scopes: false,
                any_barrier: false,
            };
            env.spawn(w);
            let env2 = Arc::clone(env);
            let d2 = Arc::clone(&d);
            let mut s = TaskDesc::new(
                "signaler",
                TaskKind::ShortCodeGen,
                Box::new(move || {
                    env2.charge(Work::CodeGen, 100);
                    env2.signal(e);
                    d2.fetch_add(1, Ordering::Relaxed);
                }),
            );
            s.signals = vec![e];
            env.spawn(s);
        });
        assert_eq!(done.load(Ordering::Relaxed), 2);
        assert_eq!(report.tasks_run, 2);
    }

    /// Barrier waits never nest even under Supervisors: the worker parks
    /// and the other processor makes progress.
    #[test]
    fn barrier_waits_do_not_nest() {
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let o = Arc::clone(&order);
        run_sim(SimConfig::new(2), move |env| {
            let barrier = env.new_event(EventClass::Barrier);
            let env1 = Arc::clone(env);
            let o1 = Arc::clone(&o);
            let mut consumer = TaskDesc::new(
                "consumer",
                TaskKind::Splitter,
                Box::new(move || {
                    env1.charge(Work::Split, 5);
                    env1.wait(barrier);
                    o1.lock().push("consumer-after-barrier");
                }),
            );
            consumer.may_wait = WaitSet {
                events: vec![],
                all_def_scopes: false,
                any_barrier: true,
            };
            env.spawn(consumer);
            let env2 = Arc::clone(env);
            let o2 = Arc::clone(&o);
            let mut producer = TaskDesc::new(
                "producer",
                TaskKind::ShortCodeGen, // lower priority than consumer
                Box::new(move || {
                    env2.charge(Work::CodeGen, 500);
                    o2.lock().push("producer-signals");
                    env2.signal(barrier);
                }),
            );
            producer.signals = vec![barrier];
            producer.signals_barriers = true;
            env.spawn(producer);
        });
        assert_eq!(
            *order.lock(),
            vec!["producer-signals", "consumer-after-barrier"]
        );
    }
}
