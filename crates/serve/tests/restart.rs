//! Kill/restart drills: a service is stopped mid-load and a new one is
//! restored from its newest snapshot. The promises under test:
//!
//! * no admitted request is lost — the old service's drop drains its
//!   queue, so every ticket lands even when the kill races the load;
//! * the restored store serves byte-identical artifacts: requests that
//!   were compiled before the kill are pure `CacheSplice` runs after
//!   the restart;
//! * LRU recency order survives the restart (export before == export
//!   after);
//! * a torn (truncated) newest snapshot is quarantined and restore
//!   falls back to the last good image.

use std::sync::Arc;

use ccm2_sema::symtab::DkyStrategy;
use ccm2_serve::{
    CompileRequest, CompileService, ExecChoice, Response, ServeConfig, SnapshotStore,
};
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
    }
}

fn snap_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ccm2-restart-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_capacity: 32,
        store_budget: 64 * 1024,
        ..ServeConfig::default()
    }
}

#[test]
fn kill_and_restore_preserves_artifacts_and_lru_order() {
    let events = serve_load(&ServeLoadParams {
        seed: 0xDEAD,
        projects: 2,
        clients: 4,
        events: 24,
        edit_every: 6,
        interface_every: 2,
    });
    let (before, after) = events.split_at(events.len() / 2);

    let dir = snap_dir("kill");
    let snaps = SnapshotStore::new(&dir).unwrap();

    // Phase 1: serve the first half, snapshot, kill.
    let svc = CompileService::start(config());
    let mut served_before = Vec::new();
    for r in svc.serve_batch(before.iter().map(request).collect()) {
        let out = r.outcome().expect("admitted or retried in").clone();
        served_before.push(out);
    }
    assert_eq!(served_before.len(), before.len(), "no request lost");
    let exported = svc.store().export();
    assert!(!exported.is_empty(), "load populated the store");
    svc.snapshot(&snaps).unwrap();
    drop(svc); // the kill

    // Phase 2: restore. The store must come back byte- and order-equal.
    let svc = CompileService::restore(config(), &snaps).unwrap();
    assert_eq!(
        svc.store().export(),
        exported,
        "entries and LRU recency order survive the restart"
    );

    // Replaying a pre-kill request is a pure splice against the
    // restored store: every unit comes out of the cache, and the bytes
    // match what the old service served.
    let replay = request(&before[0]);
    let replayed = svc
        .submit(replay.clone())
        .ticket()
        .expect("admitted")
        .wait();
    let original = served_before
        .iter()
        .find(|o| o.request_fp == replay.fingerprint())
        .expect("served before the kill");
    assert_eq!(replayed.object, original.object, "byte-identical");
    assert_eq!(replayed.diagnostics, original.diagnostics);
    let incr = replayed.incr.expect("incremental active");
    assert_eq!(
        incr.spliced, incr.units,
        "restored store served every unit: {incr:?}"
    );

    // The second half of the load completes normally on the restart.
    for r in svc.serve_batch(after.iter().map(request).collect()) {
        assert!(r.outcome().is_some(), "post-restart request lost");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_races_admitted_requests_without_losing_them() {
    // Admit requests into a *paused* service, snapshot, then kill. The
    // drop-drain guarantee means every ticket still lands — an admitted
    // request is never lost to the restart.
    let dir = snap_dir("race");
    let snaps = SnapshotStore::new(&dir).unwrap();
    let svc = CompileService::start(ServeConfig {
        paused: true,
        ..config()
    });
    let events = serve_load(&ServeLoadParams {
        seed: 0xBEEF,
        projects: 1,
        clients: 3,
        events: 6,
        edit_every: 3,
        interface_every: 2,
    });
    let tickets: Vec<_> = events
        .iter()
        .map(|e| {
            svc.submit(request(e))
                .ticket()
                .expect("capacity 32 admits all")
                .clone()
        })
        .collect();
    svc.snapshot(&snaps).unwrap();
    drop(svc); // kill with the whole queue still pending
    for t in &tickets {
        assert!(
            t.try_get().is_some(),
            "drop drained the queue before joining workers"
        );
    }

    // A restored service picks up with whatever the snapshot captured
    // (possibly nothing — the kill raced the compiles) and still serves
    // the same requests correctly.
    let svc = CompileService::restore(config(), &snaps).unwrap();
    for r in svc.serve_batch(events.iter().map(request).collect()) {
        match r {
            Response::Done(out) => assert!(out.object.is_some() || !out.ok),
            Response::Retry => panic!("capacity 32 admits all"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_snapshot_falls_back_to_last_good_image() {
    let dir = snap_dir("torn");
    let snaps = SnapshotStore::new(&dir).unwrap();

    let events = serve_load(&ServeLoadParams {
        seed: 0x7042,
        projects: 1,
        clients: 2,
        events: 4,
        edit_every: 2,
        interface_every: 2,
    });
    let svc = CompileService::start(config());
    for r in svc.serve_batch(events.iter().map(request).collect()) {
        assert!(r.outcome().is_some());
    }
    let exported = svc.store().export();
    let good = svc.snapshot(&snaps).unwrap();
    drop(svc);

    // Damage a *newer* image: copy the good one and tear off its tail,
    // simulating a crash mid-write outside the atomic-rename protocol
    // (e.g. partial disk sector loss).
    let bytes = std::fs::read(&good).unwrap();
    std::fs::write(dir.join("snap-99999999.img"), &bytes[..bytes.len() - 7]).unwrap();

    let svc = CompileService::restore(config(), &snaps).unwrap();
    assert_eq!(
        svc.store().export(),
        exported,
        "recovery fell back to the last good image"
    );
    assert_eq!(snaps.quarantined_count(), 1, "torn image quarantined");
    let _ = std::fs::remove_dir_all(&dir);
}
