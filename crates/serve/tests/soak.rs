//! Bounded soak: the seeded many-client load (`ccm2_workload::serve_load`)
//! against a small service, with the client back-off protocol (shed
//! requests are resubmitted next wave). CI runs this as the serve gate:
//! zero lost responses, dedup ratio above a floor, budget never
//! exceeded.

use std::sync::Arc;

use ccm2_sema::symtab::DkyStrategy;
use ccm2_serve::{CompileRequest, CompileService, ExecChoice, Response, ServeConfig};
use ccm2_workload::{serve_load, ServeEvent, ServeLoadParams};

fn request(e: &ServeEvent) -> CompileRequest {
    CompileRequest {
        client: e.client,
        module: e.module.name.clone(),
        source: e.module.source.clone(),
        defs: Arc::new(e.module.defs.clone()),
        strategy: DkyStrategy::Skeptical,
        exec: ExecChoice::Sim(4),
        analyze: false,
        faults: None,
        task_deadline: None,
        max_stream_retries: 0,
    }
}

#[test]
fn seeded_soak_loses_nothing_and_dedupes_above_floor() {
    let load = ServeLoadParams {
        seed: 0x50AC,
        projects: 3,
        clients: 6,
        events: 72,
        edit_every: 8,
        interface_every: 3,
    };
    let events = serve_load(&load);
    assert_eq!(events.len(), 72);

    // A deliberately tight queue so admission control actually sheds;
    // the retry loop below is the documented client protocol.
    let svc = CompileService::start(ServeConfig {
        workers: 2,
        queue_capacity: 4,
        store_budget: 16 * 1024,
        paused: false,
    });

    let mut pending: Vec<CompileRequest> = events.iter().map(request).collect();
    let mut served = 0usize;
    let mut waves = 0usize;
    while !pending.is_empty() {
        waves += 1;
        assert!(
            waves <= events.len(),
            "retry protocol failed to drain ({} still pending)",
            pending.len()
        );
        let batch = std::mem::take(&mut pending);
        let resubmit = batch.clone();
        for (req, resp) in resubmit.into_iter().zip(svc.serve_batch(batch)) {
            match resp {
                Response::Done(out) => {
                    served += 1;
                    assert!(out.ok, "{:?}", out.diagnostics);
                    assert!(out.object.is_some(), "served response lost its object");
                }
                Response::Retry => pending.push(req),
            }
        }
    }

    // Zero lost: every event produced exactly one Done response.
    assert_eq!(served, events.len());

    let stats = svc.stats();
    let store = svc.store().stats();
    // Every admitted request was compiled (none stuck in flight).
    assert_eq!(stats.compiled, stats.accepted);
    // The load repeats (project, revision) pairs across clients and the
    // batch submits whole waves up front, so a healthy service dedupes
    // far more than this floor (~80% observed; the floor leaves slack
    // for scheduling races where a compile finishes before its
    // duplicate arrives).
    assert!(
        stats.dedup_ratio() >= 0.30,
        "dedup ratio {:.3} below floor (stats: {stats:?})",
        stats.dedup_ratio()
    );
    assert!(
        store.peak_bytes <= store.budget,
        "budget exceeded: {store:?}"
    );
}
