//! The `reproduce -- serve` drill: the `ccm2-serve` compile service
//! under the seeded many-client load. Throughput, dedup ratio and store
//! occupancy are `perf/`'s (`serve_direct` and its `serve.*` layers);
//! this drill is the byte-identity and zero-loss check.

use std::sync::Arc;

use ccm2_sema::symtab::DkyStrategy;
use ccm2_serve::{CompileRequest, CompileService, ExecChoice, ServeConfig};
use ccm2_workload::{serve_load, ServeLoadParams};

use crate::kit::{drive, requests, Oracle};

/// Drives the service with the default seeded load. Proves service
/// outputs byte-identical to standalone compiles under all 4 DKY
/// strategies × both executors and for every event of the load, with no
/// request lost and the store inside its budget.
pub fn serve() -> String {
    serve_with(
        &ServeLoadParams::default(),
        ServeConfig {
            workers: 2,
            queue_capacity: 16,
            store_budget: 8 * 1024,
            paused: false,
            ..ServeConfig::default()
        },
    )
}

/// [`serve`] with explicit load parameters and service configuration
/// (tests use a smaller load).
fn serve_with(load: &ServeLoadParams, config: ServeConfig) -> String {
    let mut out =
        String::from("Compile service (ccm2-serve): seeded many-client edit/rebuild load\n");
    out.push_str(&format!(
        "  load: projects={} clients={} events={} edit every {} (interface every {}th edit), seed {:#x}\n",
        load.projects, load.clients, load.events, load.edit_every, load.interface_every, load.seed
    ));
    out.push_str(&format!(
        "  service: workers={} queue_capacity={} store_budget={} B\n\n",
        config.workers, config.queue_capacity, config.store_budget
    ));

    // Part 1 — equivalence matrix: every DKY strategy x both executors,
    // served outcome vs a standalone compile_concurrent of the same
    // request (no service, no shared store).
    let probe = ccm2_workload::generate(&ccm2_workload::GenParams::small("ServeEq", 0xE9));
    out.push_str("equivalence: served output vs standalone compile\n");
    let svc = CompileService::start(config);
    for strategy in DkyStrategy::ALL {
        for exec in [ExecChoice::Sim(4), ExecChoice::Threads(2)] {
            let mut req = CompileRequest::new(
                0,
                probe.name.clone(),
                probe.source.clone(),
                Arc::new(probe.defs.clone()),
            );
            req.strategy = strategy;
            req.exec = exec;
            let served = svc.submit(req.clone()).ticket().expect("admitted").wait();
            assert_eq!(
                (served.object.clone(), served.diagnostics.clone()),
                Oracle::reference(&req),
                "served != standalone for {} / {}",
                strategy.name(),
                exec.name()
            );
            out.push_str(&format!(
                "  {:<11} x {:<10} : identical ({} B object)\n",
                strategy.name(),
                exec.name(),
                served.object.as_ref().map(Vec::len).unwrap_or(0)
            ));
        }
    }
    drop(svc);

    // Part 2 — the seeded load, fresh service. Shed requests are
    // resubmitted in the next wave (the client back-off protocol), and
    // every served response must match the standalone bytes.
    let reqs = requests(&serve_load(load), ExecChoice::Sim(4));
    let svc = CompileService::start(config);
    let (waves, served) = drive(&svc, &reqs, &Oracle::of(&reqs));
    assert_eq!(served.len(), reqs.len(), "no request lost");
    let store = svc.store().stats();
    assert!(store.peak_bytes <= store.budget, "budget invariant");
    out.push_str(&format!(
        "\nload: {} events served in {} waves, 0 lost, 0 mismatched vs standalone\n",
        served.len(),
        waves
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_report_holds_its_invariants() {
        // serve_with asserts internally: byte-equivalence with
        // standalone compiles (matrix and per-event), no lost requests,
        // and the store budget invariant. A small load keeps this test
        // cheap; `reproduce -- serve` runs the full default.
        let report = serve_with(
            &ServeLoadParams {
                events: 12,
                ..ServeLoadParams::default()
            },
            ServeConfig {
                workers: 2,
                queue_capacity: 8,
                store_budget: 8 * 1024,
                paused: false,
                ..ServeConfig::default()
            },
        );
        assert!(report.contains("Optimistic  x threads(2) : identical"));
        assert!(report.contains("12 events served"));
        assert!(report.contains("0 lost, 0 mismatched"));
    }
}
