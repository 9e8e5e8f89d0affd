//! One scheduling policy under two drivers: every behaviour below is a
//! task graph written once, against `dyn ExecEnv`, and run on the
//! threaded executor (1 and 2 workers) and on the simulator (1 and 2
//! processors). An assertion names an executor only where the unit
//! differs: virtual time is exact, wall time is "did not sleep 60 s".
//!
//! The second half is a seeded differential: random acyclic task graphs
//! must come out the same on threads {1, 2, 4} and the simulator
//! {1, 2, 4}.

use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use ccm2_sched::{
    run_sim, run_threaded, EventClass, ExecEnv, RunReport, SimConfig, TaskDesc, TaskKind, WaitSet,
};
use ccm2_support::ids::EventId;
use ccm2_support::work::Work;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

type Env = Arc<dyn ExecEnv>;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Exec {
    Threads(usize),
    Sim(u32),
}
use Exec::{Sim, Threads};

const TABLE: [Exec; 4] = [Threads(1), Threads(2), Sim(1), Sim(2)];
/// Where dispatch order is queue order.
const SINGLE: [Exec; 2] = [Threads(1), Sim(1)];

impl Exec {
    fn is_sim(self) -> bool {
        matches!(self, Sim(_))
    }
}

/// Runs `graph` on `exec`; fails the test, instead of hanging it, if the
/// run is not over in two minutes. A panicking run comes back as `Err`
/// with the payload's message.
fn try_run(
    exec: Exec,
    config: fn(u32) -> SimConfig,
    graph: impl FnOnce(&Env) + Send + 'static,
) -> Result<RunReport, String> {
    let (tx, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match exec {
            Threads(n) => run_threaded(n, |sup| graph(&(sup.clone() as Env))),
            Sim(p) => run_sim(config(p), |env| graph(&(env.clone() as Env))),
        }));
        let _ = tx.send(outcome.map_err(|p| {
            match p.downcast::<String>() {
                Ok(s) => *s,
                Err(p) => p
                    .downcast_ref::<&str>()
                    .map_or("<payload>", |s| s)
                    .to_string(),
            }
        }));
    });
    let outcome = rx
        .recv_timeout(Duration::from_secs(120))
        .unwrap_or_else(|_| panic!("run hung on {exec:?}"));
    runner.join().expect("runner thread");
    outcome
}

fn run(exec: Exec, graph: impl FnOnce(&Env) + Send + 'static) -> RunReport {
    try_run(exec, SimConfig::new, graph)
        .unwrap_or_else(|msg| panic!("run panicked on {exec:?}: {msg}"))
}

fn task(name: &str, kind: TaskKind, body: impl FnOnce() + Send + 'static) -> TaskDesc {
    TaskDesc::new(name, kind, Box::new(body))
}

fn waits_on(events: &[EventId]) -> WaitSet {
    WaitSet {
        events: events.to_vec(),
        ..WaitSet::none()
    }
}

/// A log the task bodies of one run append to.
#[derive(Clone, Default)]
struct Log(Arc<Mutex<Vec<&'static str>>>);

impl Log {
    fn push(&self, what: &'static str) {
        self.0.lock().unwrap().push(what);
    }
    fn pusher(&self, what: &'static str) -> impl FnOnce() + Send + 'static {
        let log = self.clone();
        move || log.push(what)
    }
    fn take(&self) -> Vec<&'static str> {
        std::mem::take(&mut self.0.lock().unwrap())
    }
    fn position(&self, what: &str) -> usize {
        let log = self.0.lock().unwrap();
        log.iter()
            .position(|w| *w == what)
            .unwrap_or_else(|| panic!("{what} not in {log:?}"))
    }
}

#[test]
fn avoided_prereq_gates_a_higher_priority_task() {
    for exec in TABLE {
        let log = Log::default();
        let l = log.clone();
        let report = run(exec, move |env| {
            let gate = env.new_event(EventClass::Avoided);
            let (env1, l1) = (env.clone(), l.clone());
            let mut gated = task("gated", TaskKind::Lexor, move || {
                env1.charge(Work::Lex, 10);
                l1.push("gated");
            });
            gated.prereqs = vec![gate];
            env.spawn(gated);
            let env2 = env.clone();
            let mut opener = task("opener", TaskKind::ShortCodeGen, move || {
                env2.charge(Work::CodeGen, 300);
                l.push("opener");
                env2.signal(gate);
            });
            opener.signals = vec![gate];
            env.spawn(opener);
        });
        assert_eq!(log.take(), ["opener", "gated"], "{exec:?}");
        if exec.is_sim() {
            assert_eq!(report.virtual_time, Some(310), "{exec:?}");
        }
    }
}

#[test]
fn blocked_worker_nests_the_signaler() {
    for exec in TABLE {
        let log = Log::default();
        let l = log.clone();
        let report = run(exec, move |env| {
            let e = env.new_event(EventClass::Handled);
            let (env1, l1) = (env.clone(), l.clone());
            let mut waiter = task("waiter", TaskKind::Lexor, move || {
                env1.charge(Work::Parse, 10);
                l1.push("waiter-pre");
                env1.wait(e);
                env1.charge(Work::Parse, 10);
                l1.push("waiter-post");
            });
            waiter.may_wait = waits_on(&[e]);
            env.spawn(waiter);
            let env2 = env.clone();
            let mut signaler = task("signaler", TaskKind::ShortCodeGen, move || {
                env2.charge(Work::CodeGen, 100);
                l.push("signaler");
                env2.signal(e);
            });
            signaler.signals = vec![e];
            env.spawn(signaler);
        });
        assert_eq!(report.tasks_run, 2, "{exec:?}");
        assert!(log.position("signaler") < log.position("waiter-post"));
        match exec {
            // One worker must nest the signaler on the waiter's stack.
            Threads(1) | Sim(1) => {
                assert_eq!(log.take(), ["waiter-pre", "signaler", "waiter-post"])
            }
            _ => {}
        }
        match exec {
            Sim(1) => assert_eq!(report.virtual_time, Some(120)),
            // The waiter resumes at the signal's virtual time.
            Sim(_) => assert_eq!(report.virtual_time, Some(110)),
            Threads(_) => {}
        }
    }
}

/// The worker runs A (signals e1, waits on e2). B may wait on e1, so it
/// must not be nested above A; C signals e2 and is.
#[test]
fn eligibility_rule_nests_the_signaler_not_the_unsafe_task() {
    for exec in SINGLE {
        let log = Log::default();
        let l = log.clone();
        run(exec, move |env| {
            let e1 = env.new_event(EventClass::Handled);
            let e2 = env.new_event(EventClass::Handled);
            let (enva, la) = (env.clone(), l.clone());
            let mut a = task("A", TaskKind::Lexor, move || {
                la.push("A-pre");
                enva.wait(e2);
                la.push("A-post");
                enva.signal(e1);
            });
            a.signals = vec![e1];
            env.spawn(a);
            // Better priority than C.
            let mut b = task("B", TaskKind::Splitter, l.pusher("B"));
            b.may_wait = waits_on(&[e1]);
            env.spawn(b);
            let envc = env.clone();
            let mut c = task("C", TaskKind::ShortCodeGen, move || {
                l.push("C");
                envc.signal(e2);
            });
            c.signals = vec![e2];
            env.spawn(c);
        });
        assert_eq!(log.take(), ["A-pre", "C", "A-post", "B"], "{exec:?}");
    }
}

/// A worker blocked on a *dynamically created* event (one in no task's
/// declared signals — the Optimistic DKY per-symbol events) must still
/// find its resolver through the signaler hint; without the hint,
/// conservative eligibility would wedge a single worker forever.
#[test]
fn hint_finds_the_undeclared_signaler() {
    for exec in TABLE {
        let log = Log::default();
        let l = log.clone();
        let report = run(exec, move |env| {
            let scope_done = env.new_event_named(EventClass::Handled, "scope");
            let symbol = env.new_event_named(EventClass::Handled, "symbol");
            let any_def_scope = WaitSet {
                all_def_scopes: true,
                ..WaitSet::none()
            };
            let (env1, l1) = (env.clone(), l.clone());
            let mut waiter = task("waiter", TaskKind::DefModParse, move || {
                env1.charge(Work::DeclAnalyze, 10);
                l1.push("waiter-pre");
                env1.wait_hinted(symbol, Some(scope_done));
                l1.push("waiter-post");
            });
            waiter.signals_def_scope = true;
            waiter.may_wait = any_def_scope.clone();
            env.spawn(waiter);
            // Ineligible under the plain rule (it may wait on any def
            // scope, and the suspended waiter signals one).
            let env2 = env.clone();
            let mut resolver = task("resolver", TaskKind::DefModParse, move || {
                env2.charge(Work::DeclAnalyze, 20);
                l.push("resolver");
                env2.signal(symbol);
                env2.signal(scope_done);
            });
            resolver.signals = vec![scope_done];
            resolver.signals_def_scope = true;
            resolver.may_wait = any_def_scope;
            env.spawn(resolver);
        });
        assert_eq!(report.tasks_run, 2, "{exec:?}");
        assert!(log.position("resolver") < log.position("waiter-post"));
        if SINGLE.contains(&exec) {
            assert_eq!(log.take(), ["waiter-pre", "resolver", "waiter-post"]);
        }
    }
}

fn deadlock_prefix(exec: Exec) -> &'static str {
    match exec {
        Threads(_) => "supervisor deadlock: all workers blocked",
        Sim(_) => "virtual-time deadlock:",
    }
}

/// A awaits what only B signals and vice versa: diagnosed with the cycle
/// named instead of hanging, and the diagnosis reaches the caller.
#[test]
fn event_cycle_is_named_in_the_panic() {
    for exec in TABLE {
        let msg = try_run(exec, SimConfig::new, |env| {
            let ea = env.new_event_named(EventClass::Handled, "needs-A");
            let eb = env.new_event_named(EventClass::Handled, "needs-B");
            for (name, mine, theirs) in [("A", ea, eb), ("B", eb, ea)] {
                let env2 = env.clone();
                let mut t = task(name, TaskKind::ProcParse, move || {
                    env2.wait(theirs);
                    env2.signal(mine);
                });
                t.signals = vec![mine];
                t.may_wait = waits_on(&[theirs]);
                env.spawn(t);
            }
        })
        .expect_err("the run deadlocks");
        assert!(msg.starts_with(deadlock_prefix(exec)), "{exec:?}: {msg}");
        let named = if exec == Threads(2) {
            // Which worker took A is a race; the cycle may start at B.
            msg.contains("wait-for cycle: ")
                && msg.contains("A -[needs-B]-> B")
                && msg.contains("B -[needs-A]-> A")
        } else {
            msg.ends_with("wait-for cycle: A -[needs-B]-> B -[needs-A]-> A")
        };
        assert!(named, "{exec:?}: {msg}");
    }
}

/// A task gated on an avoided event nobody signals: no cycle, but the
/// wedge report names the blocked task and the event it awaits.
#[test]
fn unsignaled_gate_names_the_blocked_task() {
    for exec in TABLE {
        let msg = try_run(exec, SimConfig::new, |env| {
            let gate = env.new_event_named(EventClass::Avoided, "never-signaled");
            let mut t = task("gated", TaskKind::Lexor, || {});
            t.prereqs = vec![gate];
            env.spawn(t);
        })
        .expect_err("the run wedges");
        assert!(msg.starts_with(deadlock_prefix(exec)), "{exec:?}: {msg}");
        let tail = "no wait-for cycle (scheduling wedge); blocked: gated awaits [never-signaled]";
        assert!(msg.ends_with(tail), "{exec:?}: {msg}");
    }
}

/// A task panic unwinds the run with the task's own message, and the
/// dependent it gates never runs.
#[test]
fn a_task_panic_unwinds_the_run() {
    for exec in TABLE {
        let log = Log::default();
        let l = log.clone();
        let msg = try_run(exec, SimConfig::new, move |env| {
            let done = env.new_event_named(EventClass::Avoided, "victim-done");
            let mut victim = task("victim", TaskKind::ProcParse, || panic!("victim panicked"));
            victim.signals = vec![done];
            env.spawn(victim);
            let mut dependent = task("dependent", TaskKind::ShortCodeGen, l.pusher("dependent"));
            dependent.prereqs = vec![done];
            env.spawn(dependent);
        })
        .expect_err("the panic unwinds");
        assert_eq!(msg, "victim panicked", "{exec:?}");
        assert!(log.take().is_empty(), "{exec:?}: nothing else may have run");
    }
}

// ---------------------------------------------------------------------
// Seeded differential over random task graphs.

/// One task of a random graph. Every task has an avoided event it
/// signals when it ends (or leaves to the backstop); a *resolver* also
/// has a handled event, which it signals before anything else.
#[derive(Clone, Debug)]
struct Node {
    kind: TaskKind,
    weight: u64,
    work: Work,
    units: u64,
    /// Earlier root tasks whose end gates this one.
    prereqs: Vec<usize>,
    /// Resolvers whose handled event this task waits on mid-body.
    waits: Vec<usize>,
    is_resolver: bool,
    signals_own_end: bool,
    children: Vec<Node>,
}

/// A random graph that cannot deadlock under the Supervisors rules with
/// exactly declared wait and signal sets: dependencies point at earlier
/// root tasks only; a handled event is signaled as its resolver's first
/// act, and resolvers are ungated root tasks, so a wait is over as soon
/// as its resolver — always ready or running — has started, wherever the
/// waiter sits on a worker's stack.
fn random_graph(rng: &mut SmallRng) -> Vec<Node> {
    fn node(rng: &mut SmallRng, roots_before: usize, resolvers: &[usize], depth: u32) -> Node {
        let is_resolver = depth == 0 && rng.gen_range(0..3) == 0;
        let pick = |rng: &mut SmallRng, from: &[usize], max: usize| -> Vec<usize> {
            let n = if from.is_empty() {
                0
            } else {
                rng.gen_range(0..=max)
            };
            (0..n).map(|_| from[rng.gen_range(0..from.len())]).collect()
        };
        let earlier: Vec<usize> = (0..roots_before).collect();
        let children = if depth < 2 { rng.gen_range(0..3) } else { 0 };
        Node {
            kind: TaskKind::ALL[rng.gen_range(0..TaskKind::ALL.len())],
            weight: rng.gen_range(0..4) * 100,
            work: Work::ALL[rng.gen_range(0..Work::COUNT)],
            units: rng.gen_range(1..700),
            prereqs: if is_resolver {
                Vec::new()
            } else {
                pick(rng, &earlier, 2)
            },
            waits: pick(rng, resolvers, 2),
            is_resolver,
            signals_own_end: rng.gen_range(0..2) == 0,
            children: (0..children)
                .map(|_| node(rng, roots_before, resolvers, depth + 1))
                .collect(),
        }
    }
    let mut roots: Vec<Node> = Vec::new();
    let mut resolvers = Vec::new();
    for ix in 0..rng.gen_range(2..12) {
        let n = node(rng, ix, &resolvers, 0);
        if n.is_resolver {
            resolvers.push(ix);
        }
        roots.push(n);
    }
    roots
}

/// What the tasks of one run share: the root tasks' events.
struct Shared {
    ends: Vec<EventId>,
    scopes: Vec<Option<EventId>>,
}

fn spawn_node(env: &Env, shared: &Arc<Shared>, node: Node, name: String, root: Option<usize>) {
    let (end, scope) = match root {
        Some(ix) => (shared.ends[ix], shared.scopes[ix]),
        None => (env.new_event(EventClass::Avoided), None),
    };
    let waits: Vec<EventId> = (node.waits.iter())
        .map(|r| shared.scopes[*r].expect("a resolver"))
        .collect();
    let mut t = TaskDesc::new(name.clone(), node.kind, Box::new(|| {}));
    t.weight = node.weight;
    t.prereqs = node.prereqs.iter().map(|p| shared.ends[*p]).collect();
    t.signals = [end].into_iter().chain(scope).collect();
    t.may_wait = waits_on(&waits);
    let (env2, shared2) = (env.clone(), shared.clone());
    t.body = Box::new(move || {
        if let Some(scope) = scope {
            env2.signal(scope);
        }
        env2.charge(node.work, node.units);
        for e in waits {
            env2.wait(e);
        }
        for (ix, child) in node.children.into_iter().enumerate() {
            spawn_node(&env2, &shared2, child, format!("{name}.{ix}"), None);
        }
        env2.charge(Work::TaskOverhead, 1);
        if node.signals_own_end {
            env2.signal(end);
        }
    });
    env.spawn(t);
}

fn spawn_graph(env: &Env, graph: Vec<Node>) {
    let shared = Arc::new(Shared {
        ends: (graph.iter())
            .map(|_| env.new_event(EventClass::Avoided))
            .collect(),
        scopes: (graph.iter())
            .map(|n| n.is_resolver.then(|| env.new_event(EventClass::Handled)))
            .collect(),
    });
    for (ix, node) in graph.into_iter().enumerate() {
        spawn_node(env, &shared, node, format!("t{ix:02}"), Some(ix));
    }
}

/// What must not depend on the executor.
#[derive(Debug, PartialEq)]
struct Outcome {
    tasks_run: usize,
    charges: [u64; Work::COUNT],
    /// Names of the tasks in the trace, sorted. (The simulator cuts a
    /// task's run into a segment per slice, a worker thread records one
    /// per task: the segments of one task count once.)
    traced: Vec<String>,
}

fn outcome(report: &RunReport) -> Outcome {
    let mut traced: Vec<String> = report
        .trace
        .segments
        .iter()
        .map(|s| s.name.clone())
        .collect();
    traced.sort();
    traced.dedup();
    Outcome {
        tasks_run: report.tasks_run,
        charges: report.charges,
        traced,
    }
}

#[test]
fn random_graphs_come_out_the_same_on_every_executor() {
    for case in 0..48 {
        let seed = SmallRng::seed_from_u64(case).gen_range(0..u64::MAX);
        println!("case {case}: seed {seed}");
        let mut rng = SmallRng::seed_from_u64(seed);
        let graph = random_graph(&mut rng);
        // The firefly model: dispatch costs and bus contention.
        let run = |exec| {
            let graph = graph.clone();
            try_run(exec, SimConfig::firefly, move |env| spawn_graph(env, graph))
                .unwrap_or_else(|msg| panic!("seed {seed} panicked on {exec:?}: {msg}"))
        };
        let reference = run(Threads(1));
        assert_eq!(reference.trace.segments.len(), reference.tasks_run);
        for exec in [Threads(2), Threads(4), Sim(1), Sim(2), Sim(4)] {
            let report = run(exec);
            assert_eq!(outcome(&report), outcome(&reference), "{exec:?}");
            if exec.is_sim() {
                let again = run(exec);
                assert_eq!(again.virtual_time, report.virtual_time, "{exec:?}");
                assert_eq!(&again.trace.segments, &report.trace.segments, "{exec:?}");
            }
        }
    }
}
