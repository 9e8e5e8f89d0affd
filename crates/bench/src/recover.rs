//! The service recovery drill: `reproduce -- recover` (service
//! kill/restart, torn snapshots).

use ccm2_serve::{CompileService, ExecChoice, ServeConfig, SnapshotStore};

use crate::kit::{requests, Scratch};

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
