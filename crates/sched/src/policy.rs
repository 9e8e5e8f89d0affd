//! The Supervisors scheduling policy (paper §2.3.2–§2.3.4), once.
//!
//! [`Policy`] is plain data: it takes no lock, reads no clock and starts
//! no thread. A driver owns one — the simulator's controller directly,
//! the threaded supervisor inside the state lock it takes anyway — and
//! asks it the five questions of the discipline: [`Policy::admit`] a
//! task, [`Policy::release`] what an occurred event was the last prereq
//! of, the next task for an idle worker ([`Policy::next_idle`]) or a
//! blocked one ([`Policy::next_for_blocked`]), what a finished task
//! leaves behind ([`Policy::finish`]), and why nobody can run
//! ([`Policy::wait_for_report`]).
//!
//! What differs between drivers comes in as a value, never as a branch:
//! whether an event has occurred yet (`occurred`), and the time a ready
//! entry is stamped with. Times the policy hands back are in native
//! units.

use std::collections::BTreeMap;

use ccm2_support::ids::EventId;

use crate::task::{priority_key, TaskBody, TaskDesc, TaskKind, WaitSet};
use crate::wfg::WaitForGraph;
use crate::{EventClass, EventTable};

type PrioKey = (usize, std::cmp::Reverse<u64>, u64);

/// Deepest stack of suspended tasks a blocked worker nests another task
/// on: past it the worker waits, rather than risking its thread's stack.
const NEST_CAP: usize = 32;

/// What is kept of an admitted task. It travels with the task — ready
/// queue, the driver's stack of dispatched tasks, [`Policy::finish`] —
/// and is moved, never copied.
pub(crate) struct Task {
    pub(crate) name: String,
    pub(crate) kind: TaskKind,
    signals: Vec<EventId>,
    signals_def_scope: bool,
    signals_barriers: bool,
    may_wait: WaitSet,
}

/// A task that may run, and the time it became able to.
pub(crate) struct Ready {
    pub(crate) task: Task,
    pub(crate) body: TaskBody,
    pub(crate) stamp: u64,
}

struct Pending {
    /// The prereqs unsatisfied at admission.
    prereqs: Vec<EventId>,
    key: PrioKey,
    task: Task,
    body: TaskBody,
}

#[derive(Default)]
pub(crate) struct Policy {
    ready: BTreeMap<PrioKey, Ready>,
    pending: Vec<Pending>,
    seq: u64,
    outstanding: usize,
    pub(crate) finished: usize,
}

impl Policy {
    /// Tasks admitted and not finished.
    pub(crate) fn outstanding(&self) -> usize {
        self.outstanding
    }

    pub(crate) fn has_ready(&self) -> bool {
        !self.ready.is_empty()
    }

    /// Takes a task in: ready (stamped `stamp`) when every prereq has
    /// occurred, pending on the others otherwise.
    pub(crate) fn admit(&mut self, desc: TaskDesc, stamp: u64, occurred: impl Fn(EventId) -> bool) {
        self.seq += 1;
        self.outstanding += 1;
        let key = priority_key(desc.kind, desc.weight, self.seq);
        let task = Task {
            name: desc.name,
            kind: desc.kind,
            signals: desc.signals,
            signals_def_scope: desc.signals_def_scope,
            signals_barriers: desc.signals_barriers,
            may_wait: desc.may_wait,
        };
        let (mut prereqs, body) = (desc.prereqs, desc.body);
        prereqs.retain(|e| !occurred(*e));
        if prereqs.is_empty() {
            self.ready.insert(key, Ready { task, body, stamp });
        } else {
            self.pending.push(Pending {
                prereqs,
                key,
                task,
                body,
            });
        }
    }

    /// Makes ready, in place and stamped `stamp`, the pending tasks that
    /// `event` — which `occurred` already reports — was the last
    /// unsatisfied prereq of. Only a task that lists `event` can become
    /// ready here: every other one was checked when its own last prereq
    /// occurred.
    pub(crate) fn release(
        &mut self,
        event: EventId,
        stamp: u64,
        occurred: impl Fn(EventId) -> bool,
    ) {
        let mut i = 0;
        while i < self.pending.len() {
            let prereqs = &self.pending[i].prereqs;
            if prereqs.contains(&event) && prereqs.iter().all(|e| occurred(*e)) {
                let Pending {
                    key, task, body, ..
                } = self.pending.swap_remove(i);
                self.ready.insert(key, Ready { task, body, stamp });
            } else {
                i += 1;
            }
        }
    }

    /// The best ready task, for a worker with nothing suspended.
    pub(crate) fn next_idle(&mut self) -> Option<Ready> {
        self.ready.pop_first().map(|(_, r)| r)
    }

    /// The best ready task a worker may nest while the top of `stack`
    /// (its suspended tasks, bottom to top) waits on `awaited`: first
    /// the task that signals `awaited` or `hint`, else the first whose
    /// wait-set cannot reach an event only a task of `stack` signals
    /// (§2.3.4's stack-eligibility rule). None past [`NEST_CAP`], and
    /// none for a barrier wait, which never reschedules the worker
    /// (§2.3.3).
    pub(crate) fn next_for_blocked<'a>(
        &mut self,
        (awaited, class): (EventId, EventClass),
        hint: Option<EventId>,
        stack: impl Iterator<Item = &'a Task> + Clone,
    ) -> Option<Ready> {
        if class == EventClass::Barrier || stack.clone().count() >= NEST_CAP {
            return None;
        }
        let resolves =
            |t: &Task| t.signals.contains(&awaited) || hint.is_some_and(|h| t.signals.contains(&h));
        let eligible = |t: &Task| {
            !stack.clone().any(|s| {
                t.may_wait
                    .intersects(&s.signals, s.signals_def_scope, s.signals_barriers)
            })
        };
        let key = *self
            .ready
            .iter()
            .find(|(_, r)| resolves(&r.task))
            .or_else(|| self.ready.iter().find(|(_, r)| eligible(&r.task)))?
            .0;
        self.ready.remove(&key)
    }

    /// Books a task whose body has returned, and returns the backstop:
    /// the declared signals the driver now signals on the task's behalf,
    /// so that a forgotten signal cannot leave dependents and the merge
    /// waiting.
    pub(crate) fn finish(&mut self, task: &mut Task) -> Vec<EventId> {
        self.outstanding -= 1;
        self.finished += 1;
        std::mem::take(&mut task.signals)
    }

    /// Diagnoses a state in which nobody can run, from the wait-for
    /// graph of `suspended` (each task inside a wait, with the event it
    /// awaits and the co-signaler hint), the pending tasks, and what
    /// every unfinished task declared it would signal. Names the cycle
    /// when there is one; otherwise lists the blocked tasks (a
    /// scheduling wedge — e.g. runnable resolvers no worker is eligible
    /// to take).
    pub(crate) fn wait_for_report<'a>(
        &self,
        suspended: impl Iterator<Item = (&'a Task, EventId, Option<EventId>)>,
        events: &EventTable,
        occurred: impl Fn(EventId) -> bool,
    ) -> String {
        let mut g = WaitForGraph::new();
        for e in (0..events.len() as u32).map(EventId) {
            g.name_event(e, &events.get(e).name);
        }
        let signaler = |g: &mut WaitForGraph, t: &Task| {
            for &e in &t.signals {
                g.add_signaler(e, t.name.clone());
            }
        };
        for (task, awaited, hint) in suspended {
            g.add_waiter(
                task.name.clone(),
                [awaited].into_iter().chain(hint).collect(),
            );
            signaler(&mut g, task);
        }
        for p in &self.pending {
            let unsatisfied = p.prereqs.iter().copied().filter(|e| !occurred(*e));
            g.add_waiter(p.task.name.clone(), unsatisfied.collect());
            signaler(&mut g, &p.task);
        }
        for r in self.ready.values() {
            signaler(&mut g, &r.task);
        }
        match g.find_cycle() {
            Some(cycle) => format!("wait-for cycle: {cycle}"),
            None => format!(
                "no wait-for cycle (scheduling wedge); blocked: {}",
                g.describe_waiters()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NEVER: fn(EventId) -> bool = |_| false;

    fn desc(name: &str, kind: TaskKind) -> TaskDesc {
        TaskDesc::new(name, kind, Box::new(|| {}))
    }

    fn signaling(name: &str, kind: TaskKind, signals: &[EventId]) -> TaskDesc {
        let mut t = desc(name, kind);
        t.signals = signals.to_vec();
        t
    }

    fn waiting(name: &str, kind: TaskKind, may_wait: WaitSet) -> TaskDesc {
        let mut t = desc(name, kind);
        t.may_wait = may_wait;
        t
    }

    fn on(events: &[EventId]) -> WaitSet {
        WaitSet {
            events: events.to_vec(),
            ..WaitSet::none()
        }
    }

    /// Admits `desc` into a scratch policy and takes it out dispatched:
    /// the record a driver holds for a task on a worker's stack.
    fn dispatched(desc: TaskDesc) -> Task {
        let mut p = Policy::default();
        p.admit(desc, 0, NEVER);
        p.next_idle().expect("no prereqs").task
    }

    fn nest(p: &mut Policy, awaited: EventId, hint: Option<EventId>, stack: &[Task]) -> String {
        p.next_for_blocked((awaited, EventClass::Handled), hint, stack.iter())
            .map_or("-".to_string(), |r| r.task.name)
    }

    fn ready_names(p: &mut Policy) -> Vec<String> {
        std::iter::from_fn(|| p.next_idle())
            .map(|r| r.task.name)
            .collect()
    }

    #[test]
    fn ready_queue_ranks_by_kind_then_weight_then_arrival() {
        let mut p = Policy::default();
        for (name, kind, weight) in [
            ("short", TaskKind::ShortCodeGen, 0),
            ("long-small", TaskKind::LongCodeGen, 5),
            ("long-large", TaskKind::LongCodeGen, 500),
            ("parse-1", TaskKind::ProcParse, 0),
            ("parse-2", TaskKind::ProcParse, 0),
            ("lexor", TaskKind::Lexor, 0),
        ] {
            let mut t = desc(name, kind);
            t.weight = weight;
            p.admit(t, 0, NEVER);
        }
        assert_eq!(p.outstanding(), 6);
        let want = [
            "lexor",
            "parse-1",
            "parse-2",
            "long-large",
            "long-small",
            "short",
        ];
        assert_eq!(ready_names(&mut p), want);
    }

    #[test]
    fn release_waits_for_the_last_prereq() {
        let (e0, e1, e2) = (EventId(0), EventId(1), EventId(2));
        let mut occurred = vec![e0];
        let mut p = Policy::default();
        let mut both = desc("both", TaskKind::Lexor);
        // e0 occurred before admission and is not waited for again.
        both.prereqs = vec![e0, e1, e2];
        p.admit(both, 7, |e| occurred.contains(&e));
        let mut one = desc("one", TaskKind::Merge);
        one.prereqs = vec![e2];
        p.admit(one, 7, |e| occurred.contains(&e));
        assert!(!p.has_ready());

        occurred.push(e2);
        p.release(e2, 20, |e| occurred.contains(&e));
        let first = p.next_idle().expect("e2 was its only prereq");
        assert_eq!((first.task.name.as_str(), first.stamp), ("one", 20));
        assert!(!p.has_ready(), "`both` still lacks e1");

        occurred.push(e1);
        // Releasing an event nothing pending lists changes nothing.
        p.release(e0, 30, |e| occurred.contains(&e));
        assert!(!p.has_ready());
        p.release(e1, 31, |e| occurred.contains(&e));
        let second = p.next_idle().expect("last prereq occurred");
        assert_eq!((second.task.name.as_str(), second.stamp), ("both", 31));
        assert_eq!(p.outstanding(), 2);
    }

    #[test]
    fn a_blocked_worker_takes_the_signaler_first_then_the_first_eligible_task() {
        let (e1, e2, hinted) = (EventId(1), EventId(2), EventId(3));
        // On the stack: A, which signals e1 and waits on e2.
        let stack = [dispatched(signaling("A", TaskKind::Lexor, &[e1]))];
        let mut p = Policy::default();
        p.admit(waiting("unsafe", TaskKind::Splitter, on(&[e1])), 0, NEVER);
        p.admit(desc("safe", TaskKind::ShortCodeGen), 0, NEVER);
        p.admit(signaling("resolver", TaskKind::Merge, &[e2]), 0, NEVER);
        let mut by_hint = signaling("by-hint", TaskKind::Merge, &[hinted]);
        // The signaler is taken even when the plain rule would refuse it.
        by_hint.may_wait = on(&[e1]);
        p.admit(by_hint, 0, NEVER);

        assert_eq!(nest(&mut p, e2, None, &stack), "resolver");
        assert_eq!(nest(&mut p, e2, Some(hinted), &stack), "by-hint");
        // No signaler left: best-ranked task that cannot wait on A.
        assert_eq!(nest(&mut p, e2, None, &stack), "safe");
        assert_eq!(nest(&mut p, e2, None, &stack), "-");
        // An idle worker has no stack to protect.
        assert_eq!(ready_names(&mut p), ["unsafe"]);
    }

    #[test]
    fn eligibility_covers_def_scopes_barriers_and_the_whole_stack() {
        let e = EventId(0);
        let mut def_signaler = desc("def", TaskKind::DefModParse);
        def_signaler.signals_def_scope = true;
        let mut producer = desc("lexor", TaskKind::Lexor);
        producer.signals_barriers = true;
        let stack = [dispatched(def_signaler), dispatched(producer)];

        let mut p = Policy::default();
        let any_def = WaitSet {
            all_def_scopes: true,
            ..WaitSet::none()
        };
        p.admit(waiting("any-def", TaskKind::Importer, any_def), 0, NEVER);
        let any_barrier = WaitSet {
            any_barrier: true,
            ..WaitSet::none()
        };
        p.admit(
            waiting("consumer", TaskKind::ModuleParse, any_barrier),
            0,
            NEVER,
        );
        // Each is refused by a different task of the stack...
        assert_eq!(nest(&mut p, e, None, &stack), "-");
        // ...and taken above the other.
        assert_eq!(nest(&mut p, e, None, &stack[..1]), "consumer");
        assert_eq!(nest(&mut p, e, None, &stack[1..]), "any-def");
    }

    #[test]
    fn barrier_waits_and_deep_stacks_nest_nothing() {
        let e = EventId(0);
        let mut p = Policy::default();
        p.admit(signaling("resolver", TaskKind::Lexor, &[e]), 0, NEVER);
        let frame = |i: usize| dispatched(desc(&format!("s{i}"), TaskKind::ProcParse));
        let stack: Vec<Task> = (0..NEST_CAP).map(frame).collect();
        let barrier = (e, EventClass::Barrier);
        assert!(p
            .next_for_blocked(barrier, None, stack[..1].iter())
            .is_none());
        assert_eq!(nest(&mut p, e, None, &stack), "-");
        assert_eq!(nest(&mut p, e, None, &stack[1..]), "resolver");
    }

    #[test]
    fn finish_backstops_declared_signals() {
        let (e0, e1) = (EventId(0), EventId(1));
        let mut p = Policy::default();
        p.admit(signaling("t", TaskKind::Lexor, &[e0, e1]), 0, NEVER);
        let mut t = p.next_idle().expect("ready").task;
        assert_eq!(p.finish(&mut t), [e0, e1]);
        assert_eq!((p.outstanding(), p.finished), (0, 1));
    }

    #[test]
    fn wait_for_report_names_a_cycle_or_lists_the_blocked() {
        let events = EventTable::default();
        let ea = events.create(EventClass::Handled, "needs-A");
        let eb = events.create(EventClass::Handled, "needs-B");
        let gate = events.create(EventClass::Avoided, "");
        let a = dispatched(signaling("A", TaskKind::ProcParse, &[ea]));
        let b = dispatched(signaling("B", TaskKind::ProcParse, &[eb]));

        let mut p = Policy::default();
        let mut gated = desc("gated", TaskKind::Lexor);
        gated.prereqs = vec![ea, gate];
        p.admit(gated, 0, NEVER);
        // A awaits B's event and B awaits A's (through the hint).
        let cycle = [(&a, eb, None), (&b, gate, Some(ea))];
        assert_eq!(
            p.wait_for_report(cycle.into_iter(), &events, NEVER),
            "wait-for cycle: A -[needs-B]-> B -[needs-A]-> A"
        );
        // B runnable instead (declared, in the ready queue): A's wait is
        // a wedge, not a cycle. Prereqs that occurred are not listed.
        p.admit(signaling("B", TaskKind::ProcParse, &[eb]), 0, NEVER);
        assert_eq!(
            p.wait_for_report([(&a, eb, None)].into_iter(), &events, |e| e == ea),
            "no wait-for cycle (scheduling wedge); blocked: \
             A awaits [needs-B]; gated awaits [event#2]"
        );
    }
}
