//! Tasks: the atomic unit of parallelism (paper §2.3.1).
//!
//! Each compiler stream is partitioned into 2–5 tasks (Figure 5). Tasks
//! declare, at creation time:
//!
//! * their **kind** — which fixes their priority-queue position per the
//!   §2.3.4 search order (Lexor first, … , long codegen before short);
//! * their **prereqs** — the *avoided* events that must occur before the
//!   task may be assigned to a worker at all;
//! * their **signals** and **may-wait set** — used by the §2.3.4
//!   stack-eligibility rule: a blocked worker may only nest a task that
//!   cannot wait on an event that would be signaled by a task suspended
//!   beneath it on the same worker (otherwise deadlock).

use ccm2_support::ids::EventId;

/// The priority classes of paper §2.3.4, in exactly the queue-search
/// order listed there.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum TaskKind {
    /// 1. Lexor tasks.
    Lexor,
    /// 2. The splitter task.
    Splitter,
    /// Cache-splice tasks: an incremental-cache hit replaces a stream's
    /// parse + codegen tasks with one cheap splice feeding the cached
    /// unit into the merge. High priority (just below the splitter) so
    /// the scope-completion events it signals unblock DKY waiters as
    /// early as possible.
    CacheSplice,
    /// 3. Importer tasks.
    Importer,
    /// 4. Definition-module parser / declarations-analyzer tasks.
    DefModParse,
    /// 5. The (main) module parser / declarations-analyzer task.
    ModuleParse,
    /// 6. Procedure parser / declarations-analyzer tasks.
    ProcParse,
    /// 7. Source-level dataflow-analysis (lint) tasks: between statement
    ///    analysis and code generation in the §2.3.4 queue order.
    Analyze,
    /// 8. Long procedure statement-analyzer / code-generator tasks.
    LongCodeGen,
    /// 9. Short procedure statement-analyzer / code-generator tasks.
    ShortCodeGen,
    /// The merge task (tiny; lowest priority).
    Merge,
}

impl TaskKind {
    /// All kinds in priority order.
    pub const ALL: [TaskKind; 11] = [
        TaskKind::Lexor,
        TaskKind::Splitter,
        TaskKind::CacheSplice,
        TaskKind::Importer,
        TaskKind::DefModParse,
        TaskKind::ModuleParse,
        TaskKind::ProcParse,
        TaskKind::Analyze,
        TaskKind::LongCodeGen,
        TaskKind::ShortCodeGen,
        TaskKind::Merge,
    ];

    /// Queue rank (0 = highest priority).
    pub fn rank(&self) -> usize {
        Self::ALL
            .iter()
            .position(|k| k == self)
            .expect("known kind")
    }

    /// Whether a fatally faulted dispatch of this kind may be retried
    /// by the supervised-recovery plane. Per-stream tasks qualify: they
    /// are independent of sibling streams and — because faults fire at
    /// dispatch, before the body runs — a fresh attempt restarts the
    /// stream from scratch with no partial state to discard. Structural
    /// tasks (Lexor, Splitter, Importer, parsers of whole modules, the
    /// Merge) do not: re-running them would replay spawns and signals
    /// already observed by the rest of the run.
    pub fn stream_retryable(&self) -> bool {
        matches!(
            self,
            TaskKind::ProcParse
                | TaskKind::Analyze
                | TaskKind::LongCodeGen
                | TaskKind::ShortCodeGen
        )
    }

    /// Short label for traces (WatchTool rendering).
    pub fn label(&self) -> &'static str {
        match self {
            TaskKind::Lexor => "lex",
            TaskKind::Splitter => "split",
            TaskKind::CacheSplice => "splice",
            TaskKind::Importer => "import",
            TaskKind::DefModParse => "defparse",
            TaskKind::ModuleParse => "modparse",
            TaskKind::ProcParse => "procparse",
            TaskKind::Analyze => "analyze",
            TaskKind::LongCodeGen => "codegen+",
            TaskKind::ShortCodeGen => "codegen",
            TaskKind::Merge => "merge",
        }
    }
}

/// The set of events a task might block on, declared conservatively at
/// creation (input to the stack-eligibility rule).
#[derive(Clone, Debug, Default)]
pub struct WaitSet {
    /// Specific events (ancestor-scope completions).
    pub events: Vec<EventId>,
    /// The task may wait on *any* definition-module scope completion
    /// (qualified names / FROM imports can reach every interface).
    pub all_def_scopes: bool,
    /// The task may park on token-block barrier events (stream
    /// consumers: parsers, the splitter, importers).
    pub any_barrier: bool,
}

impl WaitSet {
    /// A task that never blocks (Lexor tasks — §2.3.3 relies on this).
    pub fn none() -> WaitSet {
        WaitSet::default()
    }

    /// Returns `true` if this wait-set might include an event that only
    /// the described signaler-set can produce.
    pub fn intersects(
        &self,
        signals: &[EventId],
        signals_def_scope: bool,
        signals_barriers: bool,
    ) -> bool {
        (self.all_def_scopes && signals_def_scope)
            || (self.any_barrier && signals_barriers)
            || self.events.iter().any(|e| signals.contains(e))
    }
}

/// The work a task performs.
pub type TaskBody = Box<dyn FnOnce() + Send + 'static>;

/// A schedulable task.
pub struct TaskDesc {
    /// Display name (`Lexor(Main)`, `CodeGen(M.Sort)` …).
    pub name: String,
    /// Priority class.
    pub kind: TaskKind,
    /// Avoided events (§2.3.3): the task is not placed on the ready queue
    /// until all have occurred.
    pub prereqs: Vec<EventId>,
    /// Events this task will signal before finishing.
    pub signals: Vec<EventId>,
    /// Whether one of its signals is a definition-module scope completion.
    pub signals_def_scope: bool,
    /// Whether this task produces token blocks (signals barrier events):
    /// Lexor and Splitter tasks.
    pub signals_barriers: bool,
    /// Conservative set of events the task might block on.
    pub may_wait: WaitSet,
    /// Size estimate — long code-generation tasks are scheduled before
    /// short ones to avoid the sequential tail (§2.3.4).
    pub weight: u64,
    /// The body. Runs exactly once on some worker.
    pub body: TaskBody,
}

impl std::fmt::Debug for TaskDesc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskDesc")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .field("prereqs", &self.prereqs)
            .field("signals", &self.signals)
            .field("weight", &self.weight)
            .finish_non_exhaustive()
    }
}

impl TaskDesc {
    /// Creates a minimal task with no events and default weight.
    pub fn new(name: impl Into<String>, kind: TaskKind, body: TaskBody) -> TaskDesc {
        TaskDesc {
            name: name.into(),
            kind,
            prereqs: Vec::new(),
            signals: Vec::new(),
            signals_def_scope: false,
            signals_barriers: false,
            may_wait: WaitSet::none(),
            weight: 0,
            body,
        }
    }
}

/// Priority ordering key: kind rank ascending, weight descending,
/// insertion order ascending. Lower keys are popped first.
pub fn priority_key(kind: TaskKind, weight: u64, seq: u64) -> (usize, std::cmp::Reverse<u64>, u64) {
    (kind.rank(), std::cmp::Reverse(weight), seq)
}

/// Priority key for a supervised-retry requeue: the original key with a
/// budget-aware rank boost. A retried stream that requeues at its
/// original priority sits behind every queued task of its class, and a
/// near-budget retry can starve there until its deadline lapses —
/// wasting the attempts already charged for it. Each consumed attempt
/// therefore lifts the task one rank; a retry on its *last* budgeted
/// attempt jumps to just below [`TaskKind::CacheSplice`], ahead of all
/// ordinary parse/analyze/codegen work. Structural tasks (Lexor,
/// Splitter, CacheSplice) always keep absolute priority — a retry never
/// preempts the tasks whose signals the rest of the run is gated on.
pub fn retry_priority_key(
    kind: TaskKind,
    weight: u64,
    seq: u64,
    attempt: u32,
    budget: u32,
) -> (usize, std::cmp::Reverse<u64>, u64) {
    let floor = TaskKind::CacheSplice.rank() + 1;
    let remaining = budget.saturating_sub(attempt);
    let rank = if remaining == 0 {
        floor // last chance: ahead of everything non-structural
    } else {
        kind.rank().saturating_sub(attempt as usize).max(floor)
    };
    (rank, std::cmp::Reverse(weight), seq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_ranks_follow_paper_order() {
        assert!(TaskKind::Lexor.rank() < TaskKind::Splitter.rank());
        assert!(TaskKind::Splitter.rank() < TaskKind::CacheSplice.rank());
        assert!(TaskKind::CacheSplice.rank() < TaskKind::Importer.rank());
        assert!(TaskKind::Importer.rank() < TaskKind::DefModParse.rank());
        assert!(TaskKind::DefModParse.rank() < TaskKind::ModuleParse.rank());
        assert!(TaskKind::ModuleParse.rank() < TaskKind::ProcParse.rank());
        assert!(TaskKind::ProcParse.rank() < TaskKind::Analyze.rank());
        assert!(TaskKind::Analyze.rank() < TaskKind::LongCodeGen.rank());
        assert!(TaskKind::LongCodeGen.rank() < TaskKind::ShortCodeGen.rank());
    }

    #[test]
    fn long_codegen_pops_before_short_weight() {
        let a = priority_key(TaskKind::LongCodeGen, 10, 5);
        let b = priority_key(TaskKind::LongCodeGen, 100, 6);
        assert!(b < a, "heavier task first within a class");
        let c = priority_key(TaskKind::Lexor, 0, 100);
        assert!(c < b, "higher class first regardless of weight");
    }

    #[test]
    fn retry_key_boosts_with_consumed_budget() {
        let fresh = priority_key(TaskKind::ShortCodeGen, 10, 50);
        // One consumed attempt with budget to spare: one rank up.
        let once = retry_priority_key(TaskKind::ShortCodeGen, 10, 51, 1, 3);
        assert!(once < fresh, "a retry outranks its own class");
        assert_eq!(once.0, TaskKind::ShortCodeGen.rank() - 1);
        // The final budgeted attempt jumps to the boost floor.
        let last = retry_priority_key(TaskKind::ShortCodeGen, 10, 52, 3, 3);
        assert_eq!(last.0, TaskKind::CacheSplice.rank() + 1);
        assert!(last < once);
        // The boost never overtakes structural tasks or cache splices.
        assert!(priority_key(TaskKind::CacheSplice, 0, 99) < last);
        assert!(priority_key(TaskKind::Lexor, 0, 99) < last);
        let deep = retry_priority_key(TaskKind::ProcParse, 0, 53, 30, 100);
        assert_eq!(deep.0, TaskKind::CacheSplice.rank() + 1, "boost clamps");
    }

    #[test]
    fn wait_set_intersection() {
        let ws = WaitSet {
            events: vec![EventId(1), EventId(2)],
            all_def_scopes: false,
            any_barrier: false,
        };
        assert!(ws.intersects(&[EventId(2)], false, false));
        assert!(!ws.intersects(&[EventId(3)], false, false));
        let all = WaitSet {
            events: vec![],
            all_def_scopes: true,
            any_barrier: false,
        };
        assert!(all.intersects(&[], true, false));
        assert!(!all.intersects(&[EventId(9)], false, false));
        let barrier = WaitSet {
            events: vec![],
            all_def_scopes: false,
            any_barrier: true,
        };
        assert!(barrier.intersects(&[], false, true));
        assert!(!barrier.intersects(&[], true, false));
    }
}
