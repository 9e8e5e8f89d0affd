//! [`CompileService`] — a bounded worker pool with single-flight
//! deduplication and admission control.
//!
//! Life of a request:
//!
//! 0. [`submit`](CompileService::submit) computes the request
//!    fingerprint and looks it up in the *flights table*, the one map
//!    of everything the service has admitted and not yet forgotten. The
//!    flight has *landed* — the service answered this very request
//!    before and the answer is still inside the landed budget? The
//!    caller gets a ticket born fulfilled, holding that answer: no
//!    queue slot, no worker, no wake-up, on the submitter's own
//!    thread, and it works while the service is paused.
//!    The object image is a pure function of the request (the late
//!    merge, paper §2.1/§3 — the byte-identity contract every gate
//!    enforces), so an answer, once made, is *the* answer.
//! 1. The flight is still *flying* — an identical request is queued or
//!    compiling? The new one *joins* it — no queue slot, no second
//!    compile; both callers get the same [`CompileOutcome`] when it
//!    lands (single-flight). Steps 0 and 1 are one lookup under one lock
//!    hold and both return [`Submission::Joined`].
//! 2. Otherwise the bounded queue admits it, or — when full — the
//!    service *sheds* it with [`Submission::Shed`] so load never grows
//!    an unbounded backlog. A shed is answered once, at once: the
//!    service never resubmits on its own. The caller that was shed owns
//!    the retry — back off (see [`CompileService::shed_hint_ms`]) and
//!    resubmit.
//! 3. A worker pops the request (still listed flying, so latecomers
//!    keep joining during the compile), runs
//!    [`ccm2::compile_concurrent`] against the shared artifact store,
//!    then *lands* the flight — the row changes phase under the lock
//!    hold that takes its tickets, so there is no instant at which a
//!    duplicate finds neither phase — and fans the outcome out to every
//!    joined ticket.
//!
//! # What stays landed
//!
//! Landed answers are a second pool beside the artifact store (a
//! [`MemStore`] made with [`ServeConfig::store_budget`]), bounded by the
//! same number and accounted by the same strict-admission index
//! ([`ccm2_incr::ByteBudgetLru`]): an answer costs its object bytes, its diagnostics and the struct; the
//! least recently *answered* goes first; an answer larger than the
//! whole budget is never kept. A panicked compile is never kept either:
//! it describes one run, not the request. Compile *errors* are
//! deterministic and are kept. A request that misses the table —
//! evicted, or first seen after a restart or on another shard: landed
//! flights are neither persisted nor replicated, they are warmth, not
//! truth — compiles against the warm store (all `CacheSplice` tasks if
//! nothing changed) and lands again.
//!
//! The pools are separate because they churn differently: answers are
//! whole images that one edit in eight replaces, units are the small
//! pieces that edit splices from, and in one budget the first evict the
//! second (measured: EXPERIMENTS.md, *Compile service*).
//!
//! [`pause`](CompileService::pause)/[`resume`](CompileService::resume)
//! freeze the workers between requests; tests use this to build
//! deterministic in-flight pile-ups and assert the exactly-once
//! compile counter.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

use ccm2::compile_concurrent;
use ccm2_incr::{comparable_output, ArtifactStore, ByteBudgetLru, MemStore};
use ccm2_support::hash::Fp128;
use ccm2_support::Interner;
use parking_lot::{Condvar, Mutex};

use crate::request::{CompileOutcome, CompileRequest, Response};

/// Service configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Worker threads running compiles. Each compile may itself use a
    /// multi-worker executor, so total parallelism is the product.
    pub workers: usize,
    /// Maximum *queued* (admitted, not yet started) requests. Joining
    /// a flight, in the air or landed, never consumes a slot.
    pub queue_capacity: usize,
    /// Byte budget. It bounds each of the service's two caches on its
    /// own: the shared artifact store (compiled units, in a
    /// [`MemStore::with_budget`] of it) and the landed flights (whole
    /// answers, see the module docs) may hold this many bytes apiece.
    pub store_budget: u64,
    /// Start with the workers paused (deterministic tests).
    pub paused: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            store_budget: 8 * 1024 * 1024,
            paused: false,
        }
    }
}

/// What [`CompileService::shed_hint_ms`] hints per request ahead in the
/// queue, and for an empty one.
const SHED_HINT_BASE_MS: u64 = 1;
/// The longest [`CompileService::shed_hint_ms`] hints.
const SHED_HINT_CAP_MS: u64 = 64;

/// Lifetime counters for a [`CompileService`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests submitted.
    pub submitted: u64,
    /// Requests admitted to the queue.
    pub accepted: u64,
    /// Requests answered by another request's compile, in either phase
    /// of its flight: they joined it while it was queued or compiling,
    /// or found it landed.
    pub joined: u64,
    /// The [`joined`](ServiceStats::joined) requests that found the
    /// flight landed: answered by lookup on the submitter's thread.
    pub replayed: u64,
    /// Requests shed because the queue was full.
    pub shed: u64,
    /// Always 0 (the service has no per-client quota); kept because the
    /// benchmark package reads it.
    pub quota_shed: u64,
    /// Always 0 (the service has no batch deadline); kept because the
    /// benchmark package reads it.
    pub deadline_shed: u64,
    /// Compiles actually run (the single-flight invariant:
    /// `compiled == accepted` once the queue drains, regardless of how
    /// many requests joined or were replayed).
    pub compiled: u64,
    /// Compiles that panicked (answered with an error report).
    pub panicked: u64,
    /// Artifact-store entries quarantined after validation failures
    /// (mirrors the shared store's counter).
    pub quarantined: u64,
}

impl ServiceStats {
    /// Fraction of served (non-shed) requests that rode along on
    /// another request's compile: `joined / (accepted + joined)`.
    pub fn dedup_ratio(&self) -> f64 {
        let served = self.accepted + self.joined;
        if served == 0 {
            0.0
        } else {
            self.joined as f64 / served as f64
        }
    }
}

/// A claim on a future [`CompileOutcome`].
#[derive(Clone, Debug)]
pub struct Ticket {
    shared: Arc<TicketShared>,
}

#[derive(Debug)]
struct TicketShared {
    slot: Mutex<Option<Arc<CompileOutcome>>>,
    done: Condvar,
}

impl Ticket {
    fn new() -> Ticket {
        Ticket::holding(None)
    }

    fn holding(outcome: Option<Arc<CompileOutcome>>) -> Ticket {
        Ticket {
            shared: Arc::new(TicketShared {
                slot: Mutex::new(outcome),
                done: Condvar::new(),
            }),
        }
    }

    /// Blocks until the outcome is available.
    pub fn wait(&self) -> Arc<CompileOutcome> {
        let mut slot = self.shared.slot.lock();
        while slot.is_none() {
            self.shared.done.wait(&mut slot);
        }
        Arc::clone(slot.as_ref().expect("loop exits only when filled"))
    }

    /// The outcome, if it has already landed.
    pub fn try_get(&self) -> Option<Arc<CompileOutcome>> {
        self.shared.slot.lock().clone()
    }
}

/// What [`CompileService::submit`] did with a request.
#[derive(Clone, Debug)]
pub enum Submission {
    /// Admitted to the queue; a worker will compile it.
    Queued(Ticket),
    /// Joined an identical request's flight (single-flight): still in
    /// flight, and the ticket fills when it lands; or already landed,
    /// and the ticket was born fulfilled.
    Joined(Ticket),
    /// Shed: the queue was full. Back off and resubmit.
    Shed,
}

impl Submission {
    /// The ticket, unless the request was shed.
    pub fn ticket(&self) -> Option<&Ticket> {
        match self {
            Submission::Queued(t) | Submission::Joined(t) => Some(t),
            Submission::Shed => None,
        }
    }

    /// Whether the request was shed at admission.
    pub fn is_shed(&self) -> bool {
        matches!(self, Submission::Shed)
    }
}

/// One row of the flights table, in one of its two phases.
enum Flight {
    /// Queued or compiling: a duplicate adds a ticket.
    Flying {
        /// Shared with the worker that compiles it, so nobody copies
        /// the source text under the state lock.
        req: Arc<CompileRequest>,
        tickets: Vec<Arc<TicketShared>>,
    },
    /// Answered and inside the landed budget: a duplicate gets the answer.
    Landed(Arc<CompileOutcome>),
}

/// What a landed flight is charged against the budget: what it keeps
/// alive beyond the table row.
fn landed_bytes(outcome: &CompileOutcome) -> u64 {
    let diagnostics: usize = outcome.diagnostics.iter().map(String::len).sum();
    (std::mem::size_of::<CompileOutcome>()
        + outcome.object.as_ref().map_or(0, Vec::len)
        + diagnostics) as u64
}

struct State {
    queue: VecDeque<Fp128>,
    flights: HashMap<Fp128, Flight>,
    /// Bytes and recency of exactly the [`Flight::Landed`] rows.
    landed: ByteBudgetLru,
    paused: bool,
    shutdown: bool,
    stats: ServiceStats,
}

struct Shared {
    state: Mutex<State>,
    work: Condvar,
    store: Arc<MemStore>,
    queue_capacity: usize,
    config: ServeConfig,
}

/// A long-lived compile service; see the module docs for the request
/// life cycle. Dropping the service drains the queue (every admitted
/// request still gets its outcome) and joins the workers.
pub struct CompileService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl CompileService {
    /// Starts the worker pool.
    pub fn start(config: ServeConfig) -> CompileService {
        CompileService::start_with_store(
            config,
            Arc::new(MemStore::with_budget(config.store_budget)),
        )
    }

    /// Starts the worker pool against a caller-supplied store — the one
    /// [`CompileService::restore`] rebuilt from a snapshot.
    pub fn start_with_store(config: ServeConfig, store: Arc<MemStore>) -> CompileService {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                flights: HashMap::new(),
                landed: ByteBudgetLru::new(config.store_budget),
                paused: config.paused,
                shutdown: false,
                stats: ServiceStats::default(),
            }),
            work: Condvar::new(),
            store,
            queue_capacity: config.queue_capacity.max(1),
            config,
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ccm2-serve-{i}"))
                    // Worker 0 of every compile it runs.
                    .stack_size(ccm2_sched::WORKER_STACK)
                    .spawn(move || worker_loop(&sh))
                    .expect("spawn service worker")
            })
            .collect();
        CompileService { shared, workers }
    }

    /// The shared artifact store (for stats or pre-warming).
    pub fn store(&self) -> &Arc<MemStore> {
        &self.shared.store
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.shared.config
    }

    /// Lifetime counters. `quarantined` is read through from the shared
    /// store, where the validation failures are actually detected.
    pub fn stats(&self) -> ServiceStats {
        let mut stats = self.shared.state.lock().stats;
        stats.quarantined = self.shared.store.stats().quarantined;
        stats
    }

    /// Requests currently waiting in the admission queue.
    pub fn queue_len(&self) -> usize {
        self.shared.state.lock().queue.len()
    }

    /// A `Retry-After`-style hint in milliseconds: how long a shed
    /// client should wait before resubmitting — one millisecond per
    /// request queued, plus one, capped at 64. An empty queue still
    /// hints one millisecond (the shed was momentary: the queue just
    /// drained). The fabric carries this on `Reject` frames and the
    /// fabric client's retry loop honors it.
    pub fn shed_hint_ms(&self) -> u64 {
        let depth = self.shared.state.lock().queue.len() as u64;
        SHED_HINT_BASE_MS
            .saturating_mul(depth + 1)
            .min(SHED_HINT_CAP_MS)
    }

    /// Submits one request; never blocks on compilation.
    pub fn submit(&self, req: CompileRequest) -> Submission {
        let fp = req.fingerprint();
        let mut guard = self.shared.state.lock();
        let state = &mut *guard;
        state.stats.submitted += 1;
        if let Some(flight) = state.flights.get_mut(&fp) {
            state.stats.joined += 1;
            let outcome = match flight {
                Flight::Flying { tickets, .. } => {
                    let ticket = Ticket::new();
                    tickets.push(Arc::clone(&ticket.shared));
                    return Submission::Joined(ticket);
                }
                Flight::Landed(outcome) => Arc::clone(outcome),
            };
            state.landed.touch(fp);
            state.stats.replayed += 1;
            drop(guard);
            return Submission::Joined(Ticket::holding(Some(outcome)));
        }
        if state.queue.len() >= self.shared.queue_capacity {
            state.stats.shed += 1;
            return Submission::Shed;
        }
        let ticket = Ticket::new();
        state.flights.insert(
            fp,
            Flight::Flying {
                req: Arc::new(req),
                tickets: vec![Arc::clone(&ticket.shared)],
            },
        );
        state.queue.push_back(fp);
        state.stats.accepted += 1;
        drop(guard);
        self.shared.work.notify_one();
        Submission::Queued(ticket)
    }

    /// Submits a whole batch first (maximizing single-flight overlap),
    /// then waits for each ticket. A shed request comes back at once as
    /// [`Response::Retry`] in its position: resubmitting it is the
    /// caller's business.
    pub fn serve_batch(&self, requests: Vec<CompileRequest>) -> Vec<Response> {
        let submissions: Vec<Submission> = requests.into_iter().map(|r| self.submit(r)).collect();
        submissions
            .iter()
            .map(|s| match s.ticket() {
                Some(t) => Response::Done(t.wait()),
                None => Response::Retry,
            })
            .collect()
    }

    /// Freezes the workers after their current compile. Submissions
    /// (and joins) are still accepted while paused.
    pub fn pause(&self) {
        self.shared.state.lock().paused = true;
    }

    /// Unfreezes the workers.
    pub fn resume(&self) {
        self.shared.state.lock().paused = false;
        self.shared.work.notify_all();
    }
}

impl Drop for CompileService {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock();
            state.shutdown = true;
            // A paused service still owes outcomes for everything it
            // admitted; unfreeze so the drain can happen.
            state.paused = false;
        }
        self.shared.work.notify_all();
        for handle in std::mem::take(&mut self.workers) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let (fp, req) = {
            let mut state = shared.state.lock();
            let fp = loop {
                if state.shutdown && state.queue.is_empty() {
                    return;
                }
                if !state.paused {
                    if let Some(fp) = state.queue.pop_front() {
                        break fp;
                    }
                }
                shared.work.wait(&mut state);
            };
            match state.flights.get(&fp) {
                Some(Flight::Flying { req, .. }) => (fp, Arc::clone(req)),
                _ => unreachable!("a queued flight is flying until its worker lands it"),
            }
        };

        let store: Arc<dyn ArtifactStore> = Arc::clone(&shared.store) as Arc<dyn ArtifactStore>;
        let result = catch_unwind(AssertUnwindSafe(|| run_one(fp, &req, store)));
        let (outcome, panicked) = match result {
            Ok(outcome) => (outcome, false),
            Err(payload) => (panic_outcome(fp, &payload), true),
        };
        let outcome = Arc::new(outcome);
        let bytes = landed_bytes(&outcome);

        // Rows this landing pushes out of the budget (an object image
        // each): unlinked under the lock, freed when the waiters have
        // been woken.
        let mut evicted = Vec::new();
        let tickets = {
            let mut guard = shared.state.lock();
            let state = &mut *guard;
            state.stats.compiled += 1;
            if panicked {
                state.stats.panicked += 1;
            }
            // Land the flight: the row changes phase (or leaves) in this
            // one lock hold, so a duplicate finds it flying or landed,
            // never neither. A panic describes this one run, not the
            // request, and is never kept.
            let landed = !panicked && {
                let admission = state.landed.admit(fp, bytes);
                evicted.extend(
                    admission
                        .evict
                        .iter()
                        .filter_map(|victim| state.flights.remove(victim)),
                );
                admission.accepted
            };
            let flown = if landed {
                state
                    .flights
                    .insert(fp, Flight::Landed(Arc::clone(&outcome)))
            } else {
                state.flights.remove(&fp)
            };
            let Some(Flight::Flying { tickets, .. }) = flown else {
                unreachable!("a flight is landed exactly once, by the worker that flew it");
            };
            tickets
        };
        for ticket in tickets {
            *ticket.slot.lock() = Some(Arc::clone(&outcome));
            ticket.done.notify_all();
        }
    }
}

fn run_one(fp: Fp128, req: &CompileRequest, store: Arc<dyn ArtifactStore>) -> CompileOutcome {
    let out = compile_concurrent(
        &req.source,
        Arc::clone(&req.defs) as Arc<dyn ccm2_support::defs::DefProvider>,
        Arc::new(Interner::new()),
        req.options(store),
    );
    let (object, diagnostics) = comparable_output(
        out.image.as_ref(),
        &out.diagnostics,
        &out.sources,
        &out.interner,
    );
    CompileOutcome {
        request_fp: fp,
        ok: out.is_ok(),
        object,
        diagnostics,
        incr: out.incr,
        virtual_cost: out.report.virtual_time,
        wall_micros: out.report.wall_micros,
        streams: out.streams,
    }
}

fn panic_outcome(fp: Fp128, payload: &(dyn std::any::Any + Send)) -> CompileOutcome {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic payload>".to_string());
    CompileOutcome {
        request_fp: fp,
        ok: false,
        object: None,
        diagnostics: vec![format!("internal error: compile panicked: {msg}")],
        incr: None,
        virtual_cost: None,
        wall_micros: 0,
        streams: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ExecChoice;
    use ccm2_support::defs::DefLibrary;

    fn req(client: u64, name: &str, body: &str) -> CompileRequest {
        CompileRequest::new(
            client,
            name,
            format!("MODULE {name}; {body} END {name}."),
            Arc::new(DefLibrary::new()),
        )
    }

    #[test]
    fn serves_a_simple_request() {
        let svc = CompileService::start(ServeConfig::default());
        let sub = svc.submit(req(1, "Hello", "VAR x: INTEGER; BEGIN x := 1;"));
        let out = sub.ticket().expect("admitted").wait();
        assert!(out.ok, "{:?}", out.diagnostics);
        assert!(out.object.is_some());
        assert_eq!(svc.stats().compiled, 1);
    }

    #[test]
    fn identical_concurrent_requests_compile_exactly_once() {
        let svc = CompileService::start(ServeConfig {
            paused: true,
            ..ServeConfig::default()
        });
        let subs: Vec<Submission> = (0..5)
            .map(|client| svc.submit(req(client, "Dup", "BEGIN")))
            .collect();
        assert!(matches!(subs[0], Submission::Queued(_)));
        assert_eq!(
            subs.iter()
                .filter(|s| matches!(s, Submission::Joined(_)))
                .count(),
            4,
            "later identical requests join the first"
        );
        svc.resume();
        let outs: Vec<Arc<CompileOutcome>> = subs
            .iter()
            .map(|s| s.ticket().expect("kept").wait())
            .collect();
        for out in &outs {
            assert!(Arc::ptr_eq(out, &outs[0]), "one outcome, fanned out");
        }
        let stats = svc.stats();
        assert_eq!(stats.compiled, 1, "single-flight: exactly one compile");
        assert_eq!(stats.joined, 4);
        assert!((stats.dedup_ratio() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn full_queue_sheds_with_retry() {
        let svc = CompileService::start(ServeConfig {
            paused: true,
            queue_capacity: 1,
            ..ServeConfig::default()
        });
        assert!(matches!(
            svc.submit(req(1, "A", "BEGIN")),
            Submission::Queued(_)
        ));
        // Identical request joins even though the queue is full…
        assert!(matches!(
            svc.submit(req(2, "A", "BEGIN")),
            Submission::Joined(_)
        ));
        // …but a *different* request is shed.
        let shed = svc.submit(req(3, "B", "BEGIN"));
        assert!(shed.is_shed());
        assert!(shed.ticket().is_none());
        assert_eq!(svc.stats().shed, 1);
        svc.resume();
    }

    #[test]
    fn batch_api_reports_retry_in_position() {
        let svc = CompileService::start(ServeConfig {
            paused: true,
            queue_capacity: 2,
            ..ServeConfig::default()
        });
        let batch = vec![
            req(1, "P", "BEGIN"),
            req(2, "Q", "BEGIN"),
            req(3, "R", "BEGIN"), // shed: capacity 2
            req(4, "P", "BEGIN"), // joins P
        ];
        // Resume from another thread once the batch is in — serve_batch
        // blocks on the outcomes.
        let svc = Arc::new(svc);
        let resumer = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                svc.resume();
            })
        };
        let responses = svc.serve_batch(batch);
        resumer.join().expect("resumer");
        assert!(matches!(responses[0], Response::Done(_)));
        assert!(matches!(responses[1], Response::Done(_)));
        assert!(matches!(responses[2], Response::Retry));
        assert!(matches!(responses[3], Response::Done(_)));
        let stats = svc.stats();
        assert_eq!(stats.compiled, 2);
        assert_eq!(stats.shed, 1, "a shed is answered once, never resubmitted");
    }

    #[test]
    fn drop_drains_admitted_requests() {
        let svc = CompileService::start(ServeConfig {
            paused: true,
            ..ServeConfig::default()
        });
        let t1 = svc
            .submit(req(1, "DrainA", "BEGIN"))
            .ticket()
            .expect("kept")
            .clone();
        let t2 = svc
            .submit(req(2, "DrainB", "BEGIN"))
            .ticket()
            .expect("kept")
            .clone();
        drop(svc); // never resumed — Drop must drain anyway
        assert!(t1.wait().ok);
        assert!(t2.wait().ok);
    }

    /// One millisecond per queued request plus one, capped at 64 — at
    /// every depth a default service's queue can reach.
    #[test]
    fn shed_hint_scales_with_queue_depth_and_caps() {
        let svc = CompileService::start(ServeConfig {
            paused: true,
            ..ServeConfig::default()
        });
        let capacity = svc.config().queue_capacity;
        assert_eq!(capacity, 64);
        for depth in 0..=capacity {
            assert_eq!(svc.queue_len(), depth);
            let hint = (depth as u64 + 1).min(64);
            assert_eq!(svc.shed_hint_ms(), hint, "depth {depth}");
            if depth < capacity {
                let sub = svc.submit(req(1, &format!("Hint{depth}"), "BEGIN"));
                assert!(matches!(sub, Submission::Queued(_)));
            }
        }
        svc.resume();
    }

    const WARM: &str = "PROCEDURE P; BEGIN END P; PROCEDURE Q; BEGIN END Q; BEGIN P; Q;";

    #[test]
    fn an_identical_later_request_is_answered_by_lookup() {
        let svc = CompileService::start(ServeConfig::default());
        let r = req(1, "Warm", WARM);
        let cold = svc.submit(r.clone()).ticket().expect("kept").wait();
        let store = svc.store().stats();
        let again = svc.submit(r);
        assert!(matches!(again, Submission::Joined(_)));
        let warm = again.ticket().expect("kept").try_get().expect("fulfilled");
        assert!(Arc::ptr_eq(&cold, &warm), "the answer, not a copy of it");
        assert_eq!(svc.stats().compiled, 1);
        assert_eq!(svc.store().stats(), store, "no lookup, no insertion");
    }

    #[test]
    fn another_strategy_compiles_again_and_splices_every_unit() {
        // Request-level sharing must not happen (the report would be for
        // a configuration the client did not ask for); artifact-level
        // sharing must (stream fingerprints ignore the strategy).
        let svc = CompileService::start(ServeConfig::default());
        let r = req(1, "Warm", WARM);
        let mut other = r.clone();
        other.strategy = ccm2_sema::symtab::DkyStrategy::Optimistic;
        let cold = svc.submit(r).ticket().expect("kept").wait();
        let sub = svc.submit(other);
        assert!(matches!(sub, Submission::Queued(_)));
        let warm = sub.ticket().expect("kept").wait();
        assert_eq!(cold.object, warm.object, "byte-identical");
        let warm_incr = warm.incr.expect("incremental active");
        assert_eq!(warm_incr.spliced, warm_incr.units, "all units spliced");
        assert!(svc.store().stats().hits > 0);
        assert_eq!(svc.stats().compiled, 2);
    }

    /// What a [`Step::Send`] must come back as.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Sub {
        /// Admitted: this submission compiles.
        Queued,
        /// Joined a flight that has not landed.
        Flying,
        /// Found the flight landed: born fulfilled, the very allocation
        /// this request was last answered with.
        Landed,
    }

    enum Step {
        /// `(client, index into Row::requests, expected submission)`.
        Send(u64, usize, Sub),
        /// Waits for every ticket handed out so far.
        Land,
        Pause,
        Resume,
    }

    struct Row {
        name: &'static str,
        config: ServeConfig,
        requests: Vec<CompileRequest>,
        script: Vec<Step>,
        /// `(compiled, replayed)` once the script has run.
        counters: (u64, u64),
        /// What request 0's first answer must look like, so a row cannot
        /// pass without producing the kind of outcome it is named after.
        answer: fn(&CompileOutcome) -> bool,
    }

    /// A standalone compile of `r`: what the service must answer.
    fn standalone(r: &CompileRequest) -> (Option<Vec<u8>>, Vec<String>) {
        let out = compile_concurrent(
            &r.source,
            Arc::clone(&r.defs) as Arc<dyn ccm2_support::defs::DefProvider>,
            Arc::new(Interner::new()),
            ccm2::Options {
                incremental: None,
                ..r.options(Arc::new(MemStore::new()))
            },
        );
        comparable_output(
            out.image.as_ref(),
            &out.diagnostics,
            &out.sources,
            &out.interner,
        )
    }

    /// Whether `r`'s answer is a function of `r` alone (an executor that
    /// runs).
    fn repeatable(r: &CompileRequest) -> bool {
        r.exec != ExecChoice::Threads(0)
    }

    fn run_row(row: &Row) {
        let name = row.name;
        let svc = CompileService::start(row.config);
        let budget = row.config.store_budget;
        let mut paused = row.config.paused;
        let mut tickets: Vec<(usize, Ticket)> = Vec::new();
        let mut last: HashMap<usize, Arc<CompileOutcome>> = HashMap::new();
        let mut first = None;
        for (at, step) in row.script.iter().enumerate() {
            match step {
                Step::Send(client, which, want) => {
                    let mut r = row.requests[*which].clone();
                    r.client = *client;
                    let sub = svc.submit(r);
                    let got = match &sub {
                        Submission::Queued(_) => Sub::Queued,
                        Submission::Joined(t) if t.try_get().is_some() => Sub::Landed,
                        Submission::Joined(_) => Sub::Flying,
                        Submission::Shed => panic!("{name}: step {at} shed"),
                    };
                    assert_eq!(got, *want, "{name}: step {at}");
                    let ticket = sub.ticket().expect("not shed");
                    match got {
                        Sub::Landed => assert!(
                            Arc::ptr_eq(&ticket.wait(), &last[which]),
                            "{name}: step {at} replayed another answer"
                        ),
                        // Nothing lands while the workers are frozen.
                        _ if paused => assert!(ticket.try_get().is_none(), "{name}: step {at}"),
                        _ => {}
                    }
                    tickets.push((*which, ticket.clone()));
                }
                Step::Land => {
                    for (which, ticket) in tickets.drain(..) {
                        last.insert(which, ticket.wait());
                    }
                    first.get_or_insert_with(|| Arc::clone(&last[&0]));
                }
                Step::Pause => {
                    svc.pause();
                    paused = true;
                }
                Step::Resume => {
                    svc.resume();
                    paused = false;
                }
            }
            let held = svc.shared.state.lock().landed.total();
            assert!(held <= budget, "{name}: step {at} holds {held} of {budget}");
        }
        assert!(tickets.is_empty(), "{name}: script ends with a Land");
        let stats = svc.stats();
        assert_eq!((stats.compiled, stats.replayed), row.counters, "{name}");
        assert_eq!(stats.joined - stats.replayed, {
            let flying = |s: &Step| matches!(s, Step::Send(_, _, Sub::Flying));
            row.script.iter().filter(|s| flying(s)).count() as u64
        });
        let first = first.expect("a script lands request 0 first");
        assert!((row.answer)(&first), "{name}: {first:?}");
        for (which, out) in &last {
            let r = &row.requests[*which];
            if repeatable(r) {
                let got = (out.object.clone(), out.diagnostics.clone());
                assert_eq!(got, standalone(r), "{name}: request {which}");
            }
        }
    }

    /// Exactly-once over time: a request the service has answered is not
    /// compiled again while its answer is inside the landed budget — and
    /// an answer that describes one run rather than the request is never
    /// kept, so never served to anyone.
    #[test]
    fn exactly_once_over_time() {
        use Step::{Land, Pause, Resume, Send};
        use Sub::{Flying, Landed, Queued};

        let clean = || req(1, "Tab", WARM);
        let ok: fn(&CompileOutcome) -> bool = |o| o.ok;
        let mut rows = vec![
            Row {
                name: "sequential repeats",
                answer: ok,
                config: ServeConfig::default(),
                requests: vec![clean()],
                script: vec![
                    Send(1, 0, Queued),
                    Land,
                    Send(1, 0, Landed),
                    Send(2, 0, Landed),
                    Send(3, 0, Landed),
                    Send(1, 0, Landed),
                    Land,
                ],
                counters: (1, 4),
            },
            Row {
                name: "a compile error is the request's answer",
                answer: |o| !o.ok && !o.diagnostics.is_empty(),
                config: ServeConfig::default(),
                requests: vec![req(1, "Tab", "BEGIN undeclared := 1;")],
                script: vec![Send(1, 0, Queued), Land, Send(2, 0, Landed), Land],
                counters: (1, 1),
            },
            // A panicked compile is not kept: it compiles on every
            // submission, and its clean twin compiles too (then is kept).
            Row {
                name: "panicked",
                answer: |o| o.diagnostics[0].contains("compile panicked"),
                config: ServeConfig::default(),
                requests: vec![
                    CompileRequest {
                        exec: ExecChoice::Threads(0),
                        ..clean()
                    },
                    clean(),
                ],
                script: vec![
                    Send(1, 0, Queued),
                    Land,
                    Send(1, 0, Queued),
                    Land,
                    Send(2, 1, Queued),
                    Land,
                    Send(2, 1, Landed),
                    Send(1, 0, Queued),
                    Land,
                ],
                counters: (4, 1),
            },
            Row {
                name: "paused: a landed flight answers, a flying one waits",
                answer: ok,
                config: ServeConfig::default(),
                requests: vec![clean(), req(1, "Other", WARM)],
                script: vec![
                    Send(1, 0, Queued),
                    Land,
                    Pause,
                    Send(2, 0, Landed),
                    Send(1, 1, Queued),
                    Send(2, 1, Flying),
                    Resume,
                    Land,
                ],
                counters: (2, 1),
            },
        ];

        // Budget pressure, on answers of known size: room for two of
        // three equal ones, and none for a big one.
        let small = ["Aaa", "Bbb", "Ccc"].map(|name| req(1, name, WARM));
        let big = req(
            1,
            "Big",
            &(0..12)
                .map(|i| format!("PROCEDURE P{i}; VAR x: INTEGER; BEGIN x := {i}; END P{i};"))
                .chain(["BEGIN P0;".to_string()])
                .collect::<String>(),
        );
        let cost = |r: &CompileRequest| {
            let svc = CompileService::start(ServeConfig::default());
            landed_bytes(&svc.submit(r.clone()).ticket().expect("kept").wait())
        };
        let each = cost(&small[0]);
        assert!(small.iter().all(|r| cost(r) == each), "equal answers");
        let budget = 2 * each + each / 2;
        assert!(cost(&big) > budget, "the big answer fits no budget here");
        let [a, b, c] = [0, 1, 2];
        rows.push(Row {
            name: "budget pressure",
            answer: ok,
            config: ServeConfig {
                store_budget: budget,
                ..ServeConfig::default()
            },
            requests: small.into_iter().chain([big]).collect(),
            script: vec![
                Send(1, a, Queued),
                Land,
                Send(1, b, Queued),
                Land,
                // `a` is now the more recently *answered* of the two…
                Send(1, a, Landed),
                Send(1, c, Queued),
                Land,
                // …so `c` pushed `b` out, and `b` compiles again.
                Send(1, a, Landed),
                Send(1, b, Queued),
                Land,
                Send(1, b, Landed),
                Send(1, c, Queued),
                Land,
                // An answer over the whole budget is never kept, and
                // keeping it out evicts nobody.
                Send(1, 3, Queued),
                Land,
                Send(1, 3, Queued),
                Land,
                Send(1, c, Landed),
                Send(1, b, Landed),
                Land,
            ],
            counters: (7, 5),
        });

        for row in &rows {
            run_row(row);
        }
    }
}
