//! Concurrent-store stress: many submitter threads hammering one
//! service whose shared store is small enough that every wave of
//! compiles evicts earlier entries. The assertions are the service's
//! core promises:
//!
//! * every served object is byte-identical to a direct
//!   `compile_concurrent` run of the same request (no torn reads, no
//!   stale entries, no cross-request contamination);
//! * the store's occupancy never exceeds its byte budget, even at peak;
//! * identical requests piled up while the service is paused compile
//!   exactly once (single-flight counter);
//! * so do identical requests that arrive while their flight is landing
//!   and after it has landed: there is no instant between the two
//!   phases at which a duplicate starts a second compile.

use std::sync::Arc;

use ccm2::{compile_concurrent, Options};
use ccm2_incr::comparable_output;
use ccm2_sema::symtab::DkyStrategy;
use ccm2_serve::{CompileRequest, CompileService, ExecChoice, ServeConfig, Ticket};
use ccm2_support::defs::DefProvider;
use ccm2_support::{within, Interner};
use ccm2_workload::{generate, GenParams, GeneratedModule};

fn request(
    client: u64,
    m: &GeneratedModule,
    strategy: DkyStrategy,
    exec: ExecChoice,
) -> CompileRequest {
    CompileRequest {
        client,
        module: m.name.clone(),
        source: m.source.clone(),
        defs: Arc::new(m.defs.clone()),
        strategy,
        exec,
        analyze: false,
    }
}

fn standalone(req: &CompileRequest) -> (Option<Vec<u8>>, Vec<String>) {
    let out = compile_concurrent(
        &req.source,
        Arc::clone(&req.defs) as Arc<dyn DefProvider>,
        Arc::new(Interner::new()),
        Options {
            strategy: req.strategy,
            executor: req.exec.to_executor(),
            analyze: req.analyze,
            incremental: None,
            ..Options::default()
        },
    );
    comparable_output(
        out.image.as_ref(),
        &out.diagnostics,
        &out.sources,
        &out.interner,
    )
}

#[test]
fn many_threads_under_eviction_pressure_serve_exact_bytes() {
    // Six distinct modules; a tight budget guarantees the store churns.
    let modules: Vec<GeneratedModule> = (0..6)
        .map(|i| generate(&GenParams::small(&format!("Stress{i}"), 0x57e0 + i as u64)))
        .collect();
    let expected: Vec<(Option<Vec<u8>>, Vec<String>)> = modules
        .iter()
        .map(|m| standalone(&request(0, m, DkyStrategy::Skeptical, ExecChoice::Sim(2))))
        .collect();

    let svc = Arc::new(CompileService::start(ServeConfig {
        workers: 3,
        queue_capacity: 64,
        store_budget: 4 * 1024, // far below 6 modules' worth of units
        paused: false,
    }));

    let submitters: Vec<_> = (0..8u64)
        .map(|t| {
            let svc = Arc::clone(&svc);
            let modules = modules.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                for round in 0..4u64 {
                    // Each thread walks the modules at a different phase,
                    // so distinct modules are always in flight together.
                    let i = ((t + round * 3) % modules.len() as u64) as usize;
                    let req = request(t, &modules[i], DkyStrategy::Skeptical, ExecChoice::Sim(2));
                    let sub = svc.submit(req);
                    let out = sub.ticket().expect("capacity 64 never sheds here").wait();
                    assert!(out.ok, "{:?}", out.diagnostics);
                    assert_eq!(
                        (out.object.clone(), out.diagnostics.clone()),
                        expected[i],
                        "served bytes differ from direct compile for module {i}"
                    );
                }
            })
        })
        .collect();
    for s in submitters {
        s.join().expect("submitter panicked");
    }

    let store = svc.store().stats();
    assert!(
        store.peak_bytes <= store.budget,
        "budget exceeded: peak {} > {}",
        store.peak_bytes,
        store.budget
    );
    assert!(store.bytes_in_use <= store.budget);
    assert!(
        store.evictions > 0,
        "budget was chosen to force eviction churn; got none (stats: {store:?})"
    );
    let stats = svc.stats();
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.submitted, 32);
}

#[test]
fn piled_up_identical_requests_compile_exactly_once() {
    let m = generate(&GenParams::small("OnceOnly", 0x0ce));
    let svc = Arc::new(CompileService::start(ServeConfig {
        workers: 3,
        paused: true, // hold the workers so the pile-up is deterministic
        ..ServeConfig::default()
    }));

    let submitters: Vec<_> = (0..6u64)
        .map(|client| {
            let svc = Arc::clone(&svc);
            let req = request(client, &m, DkyStrategy::Skeptical, ExecChoice::Threads(2));
            std::thread::spawn(move || svc.submit(req).ticket().expect("admitted").wait())
        })
        .collect();

    // All six are in the in-flight table (one queued, five joined)
    // before any worker moves.
    while svc.stats().submitted < 6 {
        std::thread::yield_now();
    }
    assert_eq!(svc.stats().compiled, 0, "paused service must not compile");
    svc.resume();

    let outcomes: Vec<_> = submitters
        .into_iter()
        .map(|s| s.join().expect("waiter panicked"))
        .collect();
    for out in &outcomes {
        assert!(Arc::ptr_eq(out, &outcomes[0]), "one fanned-out outcome");
    }
    let stats = svc.stats();
    assert_eq!(stats.compiled, 1, "single-flight: exactly one compile");
    assert_eq!(stats.joined, 5);
    assert_eq!(stats.accepted, 1);
}

#[test]
fn duplicates_racing_a_landing_never_compile_twice_in_2_000_rounds() {
    const ROUNDS: u64 = 2_000;
    const THREADS: u64 = 8;
    // Room for a handful of these answers, so landings also evict
    // while the duplicates of the newest flight are being answered.
    let svc = Arc::new(CompileService::start(ServeConfig {
        workers: 2,
        store_budget: 2 * 1024,
        ..ServeConfig::default()
    }));
    let barrier = Arc::new(std::sync::Barrier::new(THREADS as usize));
    let (stats, submitted) = within(std::time::Duration::from_secs(120), move || {
        let submitters: Vec<_> = (0..THREADS)
            .map(|client| {
                let (svc, barrier) = (Arc::clone(&svc), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    let mut submitted = 0;
                    for round in 0..ROUNDS {
                        // One request per round, new to the service.
                        let req = CompileRequest::new(
                            client,
                            "Race",
                            format!("MODULE Race; VAR x: INTEGER; BEGIN x := {round}; END Race."),
                            Arc::new(ccm2_support::defs::DefLibrary::new()),
                        );
                        barrier.wait();
                        // Every thread asks again and again until a
                        // ticket comes back fulfilled: the submissions
                        // straddle the landing, so one that found the
                        // flight in neither phase would start a second
                        // compile.
                        let mut tickets = Vec::new();
                        while tickets
                            .last()
                            .is_none_or(|t: &Ticket| t.try_get().is_none())
                        {
                            let sub = svc.submit(req.clone());
                            tickets.push(
                                sub.ticket()
                                    .expect("one flight a round: never shed")
                                    .clone(),
                            );
                            std::thread::yield_now();
                        }
                        let first = tickets[0].wait();
                        assert!(first.ok, "{:?}", first.diagnostics);
                        for ticket in &tickets {
                            assert!(
                                Arc::ptr_eq(&first, &ticket.wait()),
                                "round {round}: a second answer"
                            );
                        }
                        submitted += tickets.len() as u64;
                    }
                    submitted
                })
            })
            .collect();
        let submitted: u64 = submitters
            .into_iter()
            .map(|s| s.join().expect("submitter panicked"))
            .sum();
        (svc.stats(), submitted)
    });
    assert_eq!(stats.submitted, submitted);
    assert_eq!(stats.compiled, ROUNDS, "one compile per distinct request");
    assert_eq!(stats.accepted + stats.joined, stats.submitted, "none shed");
    assert!(stats.replayed > 0 && stats.replayed < stats.joined);
}
