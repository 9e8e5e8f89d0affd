//! The fault drills: `reproduce -- faults` (survival matrix, over the
//! kit's fault-seeded module) and `reproduce -- recover` (service
//! kill/restart, torn snapshots).

use std::sync::Arc;

use ccm2::{CompileError, ConcurrentOutput};
use ccm2_faults::FaultPlan;
use ccm2_sema::symtab::DkyStrategy;
use ccm2_serve::{CompileService, ExecChoice, ServeConfig, SnapshotStore};

use crate::kit::{
    baselines, compile, exec_name, fault_module, quietly, requests, unit_map, Scratch, UnitMap,
};

/// Every unit of `run` outside the `touched` streams must be the
/// baseline's, byte for byte, and none of the baseline's may be missing.
fn assert_other_streams_identical(
    run: &ConcurrentOutput,
    base_units: &UnitMap,
    touched: &[&str],
    cell: &str,
) {
    assert!(run.image.is_some(), "{cell}: no image");
    let units = unit_map(run);
    let is_touched = |name: &str| touched.iter().any(|t| name.contains(t));
    for (name, rendered) in &units {
        if !is_touched(name) {
            assert_eq!(
                Some(rendered),
                base_units.get(name),
                "{cell}: non-faulted unit `{name}` diverged"
            );
        }
    }
    for name in base_units.keys() {
        assert!(
            is_touched(name) || units.contains_key(name),
            "{cell}: non-faulted unit `{name}` missing"
        );
    }
}

/// The `reproduce -- faults` experiment: a survival matrix over fault
/// site × DKY strategy × executor. Every faulted compile must terminate
/// (no hang, no unwinding out of the executor), surface at least one
/// error naming the faulted stream, and leave every *non-faulted*
/// stream's object code byte-identical to the fault-free baseline.
/// Asserts internally; the returned table is the human-readable proof.
pub fn faults() -> String {
    quietly("fault matrix", faults_inner)
}

fn faults_inner() -> String {
    let m = fault_module("Mx", 0xFA);

    // Each scenario: the site whose dispatch panics, and the streams the
    // fault is allowed to touch.
    let scenarios: [(&str, &[&str]); 5] = [
        ("task:procparse(FaultShort)", &["FaultShort"]),
        ("task:procparse(FaultNest)", &["FaultNest"]),
        ("task:analyze(*FaultLong)", &["FaultLong"]),
        ("task:codegen(*FaultLong)", &["FaultLong"]),
        ("task:codegen(*FaultShort)", &["FaultShort"]),
    ];

    let mut out = String::from(
        "Fault-injection survival matrix: site x 4 DKY strategies x {sim(4), threads(2)}\n\
         (each cell: compile terminates, >=1 error names the faulted stream,\n\
         non-faulted streams byte-identical to the fault-free baseline)\n\n",
    );
    let mut total = 0usize;
    let baselines = baselines(&m);

    for (site, touched) in scenarios {
        let label = format!("panic  {site}");
        let mut cells = 0usize;
        let mut degraded = 0usize;
        for strategy in DkyStrategy::ALL {
            for sim in [true, false] {
                let cell = format!("{label} [{strategy:?}/{}]", exec_name(sim));
                let plan = Arc::new(FaultPlan::single(site));
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    compile(&m, Some(Arc::clone(&plan)), strategy, sim)
                }));
                let run = run.unwrap_or_else(|_| panic!("{cell}: compile aborted"));
                assert!(plan.any_fired(), "{label}: the fault site never fired");
                assert!(
                    !run.errors.is_empty(),
                    "{cell}: no degradation error surfaced"
                );
                let named = run
                    .diagnostics
                    .iter()
                    .any(|d| touched.iter().any(|t| d.message.contains(t)));
                assert!(
                    named,
                    "{cell}: no diagnostic names the faulted stream: {:#?}",
                    run.diagnostics
                );
                degraded += usize::from(
                    run.errors
                        .iter()
                        .any(|e| matches!(e, CompileError::StreamFault { .. })),
                );
                assert_other_streams_identical(&run, &baselines[&(strategy, sim)], touched, &cell);
                cells += 1;
            }
        }
        total += cells;
        out.push_str(&format!(
            "  {label:<38} {cells}/8 survived  (degraded in {degraded})\n"
        ));
    }
    out.push_str(&format!(
        "\n{total} faulted compiles: 0 hangs, 0 aborts, non-faulted streams byte-identical\n"
    ));
    out
}

/// The service recovery drills (`reproduce -- recover`): kill/restart
/// from a snapshot and a torn newest snapshot, at three seeded kill
/// points. Asserts its own invariants — zero lost requests across a
/// restart, the store restored in LRU order, fallback past a torn
/// image — and reports the counts.
pub fn recover() -> String {
    let mut out = String::from(
        "Service recovery drills: kill/restart from a snapshot and a torn newest snapshot\n\
         (every request answered across the restart, the store restored in LRU order,\n\
         a torn image quarantined and the last good one restored)\n\n",
    );
    // Service kill/restart: seeded load, snapshot at a kill point, kill,
    // restore, finish the load. Zero lost requests; the restored store
    // serves byte-identical artifacts with its LRU order intact.
    let load = ccm2_workload::ServeLoadParams {
        seed: 0x5EED,
        projects: 2,
        clients: 4,
        events: 24,
        edit_every: 6,
        interface_every: 2,
    };
    let reqs = requests(&ccm2_workload::serve_load(&load), ExecChoice::Sim(4));
    let config = ServeConfig {
        workers: 2,
        queue_capacity: 32,
        store_budget: 64 * 1024,
        ..ServeConfig::default()
    };
    let snap_root = Scratch::new("recover");
    for (ki, kill_at) in ccm2_workload::kill_points(&load, 3).into_iter().enumerate() {
        let dir = snap_root.join(format!("kill-{ki}"));
        let snaps = SnapshotStore::new(&dir).expect("snapshot dir");
        let svc = CompileService::start(config);
        let mut served = 0usize;
        for r in svc.serve_batch(reqs[..kill_at].to_vec()) {
            assert!(r.outcome().is_some(), "pre-kill request lost");
            served += 1;
        }
        let exported = svc.store().export();
        svc.snapshot(&snaps).expect("snapshot");
        drop(svc); // the kill

        let svc = CompileService::restore(config, &snaps).expect("restore");
        assert_eq!(
            svc.store().export(),
            exported,
            "kill point {kill_at}: LRU order lost across restart"
        );
        // Replaying the most recent pre-kill request is a pure splice:
        // every unit is served from the restored store (the newest
        // entries are the last the LRU would evict).
        let replay = svc
            .submit(reqs[kill_at - 1].clone())
            .ticket()
            .expect("admitted")
            .wait();
        let incr = replay.incr.expect("incremental active");
        assert_eq!(
            incr.spliced, incr.units,
            "kill point {kill_at}: restored store did not serve the replay"
        );
        for r in svc.serve_batch(reqs[kill_at..].to_vec()) {
            assert!(r.outcome().is_some(), "post-restart request lost");
            served += 1;
        }
        assert_eq!(served, reqs.len());
        out.push_str(&format!(
            "  kill/restart at event {kill_at:>2}/{}: {served} served, 0 lost, \
             {} entries restored in LRU order, replay fully spliced\n",
            reqs.len(),
            exported.len()
        ));

        // Torn-snapshot drill at the same kill point: tear the newest
        // image, restore again, recovery must fall back to the good one.
        let good = snaps.save(svc.store()).expect("second snapshot");
        let exported = svc.store().export();
        drop(svc);
        let bytes = std::fs::read(&good).expect("read image");
        std::fs::write(dir.join("snap-99999999.img"), &bytes[..bytes.len() - 5])
            .expect("write torn image");
        let svc = CompileService::restore(config, &snaps).expect("restore past torn");
        assert_eq!(
            svc.store().export(),
            exported,
            "kill point {kill_at}: fallback past the torn image failed"
        );
        assert_eq!(snaps.quarantined_count(), 1, "torn image not quarantined");
        out.push_str(&format!(
            "  kill/restart at event {kill_at:>2}/{}: torn newest image quarantined, \
             fell back to last good image\n",
            reqs.len()
        ));
    }

    out.push_str("\n3 kill/restart + 3 torn-snapshot drills: 0 lost requests\n");
    out
}
