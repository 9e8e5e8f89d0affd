//! The Supervisors task scheduler (paper §2.3): one scheduling policy,
//! two drivers that run it.
//!
//! * `policy` — the scheduling decisions, as plain data with no lock,
//!   clock or thread: which task is ready, what an event releases, what
//!   a blocked worker may nest, what a dispatch serves first, what a
//!   finished task leaves behind, and what to do when nobody can run.
//! * [`threaded`] — drives the policy with real OS-thread workers, one
//!   per assumed processor: the paper's deployment model.
//! * [`sim`] — drives it in deterministic virtual time on P *simulated*
//!   processors, used to reproduce the 1–8-processor speedup
//!   experiments on a single-CPU host (see DESIGN.md's substitution
//!   table).
//!
//! Both drivers implement [`ExecEnv`], so the compiler driver is written
//! once, and both keep their events in one `EventTable`. A driver
//! supplies what the policy cannot know: whether an event has occurred
//! yet, and the time a ready entry is stamped with (DESIGN.md §3).
//! Events come in the three classes of §2.3.3 ([`EventClass`]); tasks
//! carry the §2.3.4 priority classes and the declared signal/wait sets
//! that drive blocked-worker rescheduling and its anti-deadlock
//! eligibility rule.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use std::sync::atomic::{AtomicU32, Ordering};
//! use ccm2_sched::{run_threaded, ExecEnv, task::{TaskDesc, TaskKind}};
//!
//! let hits = Arc::new(AtomicU32::new(0));
//! let h = Arc::clone(&hits);
//! run_threaded(2, |sup| {
//!     sup.spawn(TaskDesc::new(
//!         "demo",
//!         TaskKind::Lexor,
//!         Box::new(move || { h.fetch_add(1, Ordering::Relaxed); }),
//!     ));
//! });
//! assert_eq!(hits.load(Ordering::Relaxed), 1);
//! ```

mod policy;
pub mod sim;
pub mod task;
pub mod threaded;
pub mod trace;
pub mod wfg;

use std::sync::atomic::{AtomicBool, Ordering};

use ccm2_faults::FaultKind;
use ccm2_support::arena::AppendArena;
use ccm2_support::ids::EventId;
use ccm2_support::work::{Work, WorkMeter};

pub use sim::{run_sim, run_sim_with, SimConfig, SimEnv};
pub use task::{TaskDesc, TaskKind, WaitSet};
pub use threaded::{on_worker, run_threaded, run_threaded_with, ThreadedSupervisor, WORKER_STACK};
pub use trace::{render_watchtool, Segment, Trace};
pub use wfg::WaitForGraph;

/// Fault-injection and degradation configuration for a run
/// ([`run_threaded_with`] / [`run_sim_with`]).
///
/// With `recover` set, both executors change failure handling from
/// *abort* to *diagnose and continue*:
///
/// * a panicking task body is caught; its name and payload are recorded
///   in [`RunReport::task_panics`], its declared signals are still
///   backstop-signaled (so dependents and the merge never hang), and
///   the run completes;
/// * a wedge (every worker blocked or idle with tasks outstanding) is
///   not a panic but a watchdog action: the wait-for-graph diagnosis is
///   recorded in [`RunReport::stalls`] and the blocking events are
///   force-signaled so the run drains.
///
/// Without `recover` (the default), behavior is the historical one:
/// deadlocks and panics unwind with a diagnosis in the payload.
#[derive(Clone, Default)]
pub struct Robustness {
    /// Fault plan queried at `task:`/`signal:` sites; `None` injects
    /// nothing.
    pub plan: Option<std::sync::Arc<ccm2_faults::FaultPlan>>,
    /// Catch task panics and recover wedges instead of unwinding.
    pub recover: bool,
}

impl Robustness {
    /// No injection, no watchdog, historical panic behavior.
    pub fn none() -> Robustness {
        Robustness::default()
    }

    /// Degraded-mode configuration: inject per `plan`, and recover
    /// instead of panicking.
    pub fn degrading(plan: Option<std::sync::Arc<ccm2_faults::FaultPlan>>) -> Robustness {
        Robustness {
            plan,
            recover: true,
        }
    }

    /// Whether the fault plan drops every signal of the event labeled
    /// `event_name` (`signal:{name}` site with [`FaultKind::LoseSignal`]).
    pub(crate) fn loses_signal(&self, event_name: &str) -> bool {
        self.plan
            .as_ref()
            .is_some_and(|p| p.at(&format!("signal:{event_name}")) == Some(FaultKind::LoseSignal))
    }
}

/// What `catch_unwind` hands back from a panicked task or worker.
pub(crate) type Payload = Box<dyn std::any::Any + Send>;

/// Renders a caught panic payload for reports.
pub(crate) fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// The three event categories of paper §2.3.3.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EventClass {
    /// Must occur before dependent tasks are even assigned to a worker
    /// (implemented as task prereqs).
    Avoided,
    /// Tasks may start and block on it; a blocked worker is rescheduled
    /// onto other eligible tasks.
    Handled,
    /// A handled event whose waiter is *not* rescheduled (token-block
    /// queues; producers never block, so plain waiting is safe).
    Barrier,
}

/// One event of a run: class and label fixed at creation, the flag set
/// once.
pub(crate) struct EventFlag {
    pub(crate) class: EventClass,
    /// Display name for diagnostics (empty → `event#N`) and the
    /// `signal:{name}` fault site.
    pub(crate) name: String,
    signaled: AtomicBool,
}

/// The events of one run, under both executors: append-only, and read
/// without a lock.
#[derive(Default)]
pub(crate) struct EventTable(AppendArena<EventFlag>);

impl EventTable {
    pub(crate) fn create(&self, class: EventClass, name: &str) -> EventId {
        EventId(self.0.push(EventFlag {
            class,
            name: name.to_string(),
            signaled: AtomicBool::new(false),
        }) as u32)
    }

    pub(crate) fn get(&self, event: EventId) -> &EventFlag {
        self.0.get(event.index()).expect("event of another run")
    }

    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// Acquire load, pairing with [`EventTable::set`]: what the signaler
    /// wrote before signaling is visible to whoever reads the flag set.
    pub(crate) fn is_set(&self, event: EventId) -> bool {
        self.get(event).signaled.load(Ordering::Acquire)
    }

    /// Release store (idempotent).
    pub(crate) fn set(&self, event: EventId) {
        self.get(event).signaled.store(true, Ordering::Release);
    }
}

/// The execution environment seen by compiler tasks: events, task
/// spawning, blocking, and work charging. Implemented by both executors.
pub trait ExecEnv: Send + Sync {
    /// Creates an event of the given class.
    fn new_event(&self, class: EventClass) -> EventId {
        self.new_event_named(class, "")
    }
    /// Creates a labeled event (labels appear in scheduler diagnostics
    /// and name the event's `signal:` fault site).
    fn new_event_named(&self, class: EventClass, name: &str) -> EventId;
    /// Signals an event (idempotent).
    fn signal(&self, event: EventId);
    /// Whether an event has been signaled.
    fn is_signaled(&self, event: EventId) -> bool;
    /// Blocks the calling task until the event occurs, applying the
    /// §2.3.4 blocked-worker rescheduling rules.
    fn wait(&self, event: EventId) {
        self.wait_hinted(event, None);
    }
    /// Like [`ExecEnv::wait`], with a hint: the task that signals
    /// `signaler_hint` will also resolve `event`. Used by the Optimistic
    /// DKY strategy, whose per-symbol events are created dynamically and
    /// therefore appear in no task's declared signal set — without the
    /// hint, the scheduler's "preferentially run the task which will
    /// resolve the DKY blockage" rule (§2.2) cannot find the resolver,
    /// and deep import chains can wedge every worker.
    fn wait_hinted(&self, event: EventId, signaler_hint: Option<EventId>);
    /// Adds a task to the supervisor's queues.
    fn spawn(&self, task: TaskDesc);
    /// Charges work units (advances virtual time under [`sim`]).
    fn charge(&self, work: Work, units: u64);
    /// The current time in the executor's units (micros for threads,
    /// virtual units for the simulator; the simulator returns 0 to task
    /// code, which must not observe the clock).
    fn virtual_now(&self) -> u64;
}

/// Adapts an [`ExecEnv`] to the [`WorkMeter`] interface the semantic
/// analysis and code generation crates charge through.
pub struct EnvMeter<E: ExecEnv + ?Sized>(pub std::sync::Arc<E>);

impl<E: ExecEnv + ?Sized> WorkMeter for EnvMeter<E> {
    fn charge(&self, work: Work, units: u64) {
        self.0.charge(work, units);
    }
}

impl<E: ExecEnv + ?Sized> std::fmt::Debug for EnvMeter<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("EnvMeter(..)")
    }
}

/// The outcome of a scheduled run.
#[derive(Debug)]
pub struct RunReport {
    /// Virtual makespan (simulator only).
    pub virtual_time: Option<u64>,
    /// Wall-clock duration in microseconds (threaded executor).
    pub wall_micros: u64,
    /// Execution trace (WatchTool input).
    pub trace: Trace,
    /// Number of tasks completed.
    pub tasks_run: usize,
    /// Total units charged per [`Work`] kind.
    pub charges: [u64; Work::COUNT],
    /// Task bodies that panicked and were caught under
    /// [`Robustness::recover`], as `(task name, panic message)`.
    pub task_panics: Vec<(String, String)>,
    /// Watchdog diagnoses: the wedges force-released under
    /// [`Robustness::recover`].
    pub stalls: Vec<String>,
    /// Always empty: no executor retries a faulted task. The field is
    /// kept only because a test of the benchmark package
    /// (`perf/src/layers.rs`) builds a `RunReport` literal that names
    /// it; it goes with the next change to that package.
    pub recoveries: Vec<(String, u32)>,
}

impl RunReport {
    /// The run's duration in its native unit.
    pub fn duration(&self) -> u64 {
        self.virtual_time.unwrap_or(self.wall_micros)
    }

    /// Total charged units across all work kinds.
    pub fn total_work(&self) -> u64 {
        self.charges.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn env_meter_forwards() {
        let report = run_threaded(1, |sup| {
            let meter = EnvMeter(Arc::clone(sup));
            meter.charge(Work::Lex, 123);
        });
        assert_eq!(report.charges[Work::Lex as usize], 123);
    }

    #[test]
    fn run_report_duration_prefers_virtual() {
        let r = RunReport {
            virtual_time: Some(42),
            wall_micros: 7,
            trace: Trace::default(),
            tasks_run: 0,
            charges: [0; Work::COUNT],
            task_panics: Vec::new(),
            stalls: Vec::new(),
            recoveries: Vec::new(),
        };
        assert_eq!(r.duration(), 42);
    }
}
