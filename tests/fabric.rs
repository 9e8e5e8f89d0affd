//! Fleet-equivalence properties: an N-shard loopback fabric is
//! observationally identical to one standalone [`CompileService`] —
//! byte-identical objects (in the interner-independent
//! `ccm2_incr::encode_image` encoding) and identical rendered
//! diagnostics for every event of a seeded serve load. The property is
//! also checked **across a mid-stream shard kill**: the seeded
//! failover (`ccm2_workload::shard_kill_schedule`) must change
//! *nothing* a client can observe — zero admitted requests lost, same
//! bytes, same diagnostics.

use std::sync::Arc;

use proptest::prelude::*;

use ccm2_bench::kit::{drive, requests, Observed, Oracle, Scratch};
use ccm2_fabric::{Fabric, FabricRouter, LeaseConfig, MembershipStore, RouterRole, ShardNode};
use ccm2_serve::{CompileRequest, CompileService, ExecChoice, ServeConfig};
use ccm2_workload::{serve_load, shard_kill_schedule, ServeLoadParams};

fn config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_capacity: 64,
        store_budget: 64 * 1024,
        ..ServeConfig::default()
    }
}

/// Serves every request on one standalone service (the reference),
/// driving the documented back-off protocol until all are done.
fn serve_standalone(reqs: &[CompileRequest], oracle: &Oracle) -> Vec<Observed> {
    drive(&CompileService::start(config()), reqs, oracle).1
}

/// Serves every request on an N-shard loopback fabric, optionally
/// killing one shard after `at` requests have been served.
fn serve_fabric(
    reqs: &[CompileRequest],
    oracle: &Oracle,
    shards: usize,
    kill: Option<(usize, u32)>,
) -> Vec<Observed> {
    let fabric = Fabric::start(shards, config());
    let at = kill.map_or(reqs.len(), |(at, _)| at.min(reqs.len()));
    let mut out = drive(fabric.router(), &reqs[..at], oracle).1;
    if let Some((_, victim)) = kill {
        if at < reqs.len() {
            fabric.router().kill_shard(victim);
        }
        out.extend(drive(fabric.router(), &reqs[at..], oracle).1);
        let live = fabric.router().live_shards();
        assert!(
            !live.contains(&victim),
            "killed shard {victim} still live: {live:?}"
        );
        assert_eq!(live.len(), shards - 1, "exactly one shard died");
    }
    out
}

/// After the eviction lease moves to a new epoch, every
/// membership-changing control message from the deposed router is
/// refused fleet-wide, and the first refusal demotes it. The stale
/// router cannot admit a shard, the new leader can, and each shard's
/// grant history shows strictly increasing epochs with one holder per
/// epoch.
#[test]
fn stale_router_control_refused_after_lease_moves() {
    let mut fleet = Fabric::start(3, config());
    let dir = Scratch::new("stale-router");
    let store = Arc::new(MembershipStore::new(dir.join("mbrs")).expect("membership store opens"));
    let a = FabricRouter::new(fleet.conduit().transport())
        .with_identity(1)
        .with_membership_store(Arc::clone(&store));
    let b = FabricRouter::new(fleet.conduit().transport())
        .with_identity(2)
        .as_standby()
        .with_lease(LeaseConfig { expiry_ticks: 2 })
        .with_membership_store(Arc::clone(&store));

    assert!(a.acquire_lease(), "uncontested first grant");
    assert_eq!(a.epoch(), 1);

    // A goes silent; B watches the lease age out and claims epoch 2.
    assert!(b.heartbeat_tick().is_empty());
    assert!(b.heartbeat_tick().is_empty());
    assert_eq!(b.role(), RouterRole::Leader, "standby promoted");
    assert_eq!(b.epoch(), 2);

    // The deposed leader tries a membership change: a warm join of a
    // brand-new shard. Its epoch-1 stamp draws EpochReject on the
    // lease barrier, the join is refused, and A stands down.
    fleet.join(Arc::new(ShardNode::start(3, config())));
    assert!(!a.admit_shard(3), "stale-epoch admit must be refused");
    assert_eq!(
        a.role(),
        RouterRole::Standby,
        "refusal demotes the ex-leader"
    );
    assert!(a.stats().epoch_rejects >= 1);
    assert!(
        !a.live_shards().contains(&3),
        "refused joiner never entered the stale ring"
    );

    // The live leaseholder performs the same join without ceremony.
    assert!(b.admit_shard(3), "current leader admits the joiner");
    assert!(b.live_shards().contains(&3));

    // Shard-side ledger: epochs granted strictly increase, one holder
    // per epoch, and every original shard agrees on the live lease.
    for node in &fleet.nodes()[..3] {
        assert_eq!(node.lease_grants(), vec![(1, 1), (2, 2)]);
        let lease = node.lease();
        assert_eq!((lease.epoch, lease.holder), (2, 2));
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        ..ProptestConfig::default()
    })]

    // N shards, no deaths: byte-identical to standalone.
    #[test]
    fn fabric_matches_standalone(
        seed in 0u64..1_000_000,
        shards in 3usize..6,
        events in 8usize..20,
        edit_every in 0usize..6,
    ) {
        let params = ServeLoadParams {
            seed,
            projects: 2,
            clients: 3,
            events,
            edit_every,
            interface_every: 2,
        };
        let load = requests(&serve_load(&params), ExecChoice::Sim(2));
        let oracle = Oracle::of(&load);
        let reference = serve_standalone(&load, &oracle);
        let fleet = serve_fabric(&load, &oracle, shards, None);
        for (i, (r, f)) in reference.iter().zip(&fleet).enumerate() {
            prop_assert!(r.0 && f.0, "event {i} failed somewhere");
            prop_assert_eq!(&r.1, &f.1, "object bytes diverge at event {}", i);
            prop_assert_eq!(&r.2, &f.2, "diagnostics diverge at event {}", i);
        }
    }

    // One seeded mid-stream shard kill: still byte-identical,
    // zero admitted requests lost.
    #[test]
    fn fabric_survives_a_seeded_shard_kill_byte_identically(
        seed in 0u64..1_000_000,
        shards in 3usize..5,
        events in 10usize..18,
    ) {
        let params = ServeLoadParams {
            seed,
            projects: 2,
            clients: 3,
            events,
            edit_every: 4,
            interface_every: 3,
        };
        let load = requests(&serve_load(&params), ExecChoice::Sim(2));
        let oracle = Oracle::of(&load);
        let schedule = shard_kill_schedule(&params, shards as u32, 1);
        prop_assert_eq!(schedule.len(), 1);
        let (at, victim) = schedule[0];
        let reference = serve_standalone(&load, &oracle);
        let fleet = serve_fabric(&load, &oracle, shards, Some((at, victim)));
        for (i, (r, f)) in reference.iter().zip(&fleet).enumerate() {
            prop_assert!(r.0 && f.0, "event {i} failed somewhere");
            prop_assert_eq!(&r.1, &f.1, "object bytes diverge at event {} (kill at {})", i, at);
            prop_assert_eq!(&r.2, &f.2, "diagnostics diverge at event {}", i);
        }
    }
}
