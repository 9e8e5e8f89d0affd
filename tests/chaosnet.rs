//! Control-plane chaos properties: a seeded network partition —
//! detected and evicted by the heartbeat failure detector, healed, and
//! warm-rejoined — must change *nothing* a client can observe. Every
//! admitted request still returns the byte-identical object and
//! diagnostics of a direct, storeless compile (`ccm2_bench::kit::Oracle`,
//! what a standalone service answers), over the fleet's TCP sockets. A
//! crash-restart of the whole fleet from its durable replica images
//! must come back holding every replica entry.
//!
//! The phases are `ccm2_bench::chaosnet`'s — the ones `reproduce --
//! chaosnet` composes into its cells.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ccm2_bench::chaosnet::{
    crash_restart_absorb, durable_node, heal_rejoin, partition_evict, partition_window, SHARDS,
};
use ccm2_bench::kit::{drive, requests, Oracle, Scratch};
use ccm2_fabric::{Fabric, HealthState, ShardNode};
use ccm2_serve::{CompileRequest, ExecChoice};
use ccm2_workload::{serve_load, ServeLoadParams};

pub mod contract;
use contract::config;

/// Serves the whole load through a partition/evict/heal/rejoin cycle —
/// each answer clean and with the reference compile's bytes — asserting
/// the detector's deterministic clock.
fn serve_chaos(reqs: &[CompileRequest], params: &ServeLoadParams) {
    let oracle = &Oracle::of(reqs);
    let nodes = (0..SHARDS).map(|id| Arc::new(ShardNode::start(id, config())));
    let fleet = Fabric::start_over(nodes.collect());
    let window = partition_window(params);

    drive(fleet.router(), &reqs[..window.from], oracle);

    let ticks = partition_evict(&fleet, window.shard);
    assert_eq!(ticks, 2, "suspect on the first miss, evict on the second");
    assert!(!fleet.router().live_shards().contains(&window.shard));
    drive(fleet.router(), &reqs[window.from..window.until], oracle);

    heal_rejoin(&fleet, window.shard);
    assert_eq!(fleet.router().health(window.shard), HealthState::Alive);
    assert_eq!(fleet.router().live_shards(), vec![0, 1, 2]);
    drive(fleet.router(), &reqs[window.until..], oracle);

    assert!(
        fleet.router().stats().heartbeat_evictions == 1,
        "exactly one heartbeat eviction"
    );
    let pings_answered: u64 = fleet.nodes().iter().map(|n| n.stats().pings).sum();
    assert!(
        pings_answered > 0,
        "the healthy shards never answered a probe"
    );
}

// A seeded partition -> eviction -> heal -> rejoin cycle is invisible:
// byte-identical to the reference compile, zero admitted requests lost.
#[test]
fn partition_eviction_and_rejoin_are_invisible_to_clients() {
    for case in 0..4 {
        let mut rng = SmallRng::seed_from_u64(case);
        let seed = rng.gen_range(0u64..1_000_000);
        let events = rng.gen_range(12usize..20);
        println!("case {case}: seed {seed}, events {events}");
        let params = ServeLoadParams {
            seed,
            projects: 2,
            clients: 3,
            events,
            edit_every: 5,
            interface_every: 2,
        };
        serve_chaos(&requests(&serve_load(&params), ExecChoice::Sim(2)), &params);
    }
}

// The same cycle on a pinned seed: the partition switch models a dead
// link (the call fails before a byte is written) instead of a fault
// plan, and the contract is identical.
#[test]
fn tcp_partition_cycle_matches_standalone() {
    let params = ServeLoadParams {
        seed: 0xBEEF,
        projects: 2,
        clients: 3,
        events: 15,
        edit_every: 5,
        interface_every: 2,
    };
    serve_chaos(&requests(&serve_load(&params), ExecChoice::Sim(2)), &params);
}

// A whole-fleet crash (router, transport, and every node dropped) must
// lose no replica entry: the rebuilt nodes load their replicas'
// CCM2SNAP images and the next failover absorbs from them.
#[test]
fn fleet_restart_from_durable_logs_loses_no_parked_ops() {
    let dir = Scratch::new("chaosnet-it");
    let mk_node = |id: u32| durable_node(&dir, id, config());
    let params = ServeLoadParams {
        seed: 0xD0_17,
        projects: 2,
        clients: 3,
        events: 18,
        edit_every: 5,
        interface_every: 2,
    };
    let load = requests(&serve_load(&params), ExecChoice::Sim(2));

    let fleet = Fabric::start_over((0..SHARDS).map(mk_node).collect());
    drive(fleet.router(), &load, &Oracle::of(&load));
    // Crash, rebuild the same shard ids from the same directories, fail
    // one over. The phase asserts that serving replicated entries at
    // all (or the drill is vacuous), that the restart changed none of
    // them, and that the failover absorbed from the restored replicas.
    crash_restart_absorb(fleet, mk_node);
}

// A restarted origin's first batches reach the replicas that its peers
// restored from their images. After a whole-fleet crash every shard
// comes back with an empty store of its own and its replicas as they
// were; what an origin stores next must reach those replicas like any
// other batch, not be taken for ops they have already applied.
#[test]
fn a_restarted_origins_new_entries_reach_its_peers_restored_replicas() {
    let dir = Scratch::new("chaosnet-restart");
    let mk_node = |id: u32| durable_node(&dir, id, config());
    let load = |seed| {
        let params = ServeLoadParams {
            seed,
            projects: 2,
            clients: 3,
            events: 18,
            edit_every: 5,
            interface_every: 2,
        };
        requests(&serve_load(&params), ExecChoice::Sim(2))
    };
    let (before, after) = (load(0xD0_18), load(0xD0_19));

    let fleet = Fabric::start_over((0..SHARDS).map(mk_node).collect());
    drive(fleet.router(), &before, &Oracle::of(&before));
    fleet.router().flush();
    drop(fleet);

    let fleet = Fabric::start_over((0..SHARDS).map(mk_node).collect());
    drive(fleet.router(), &after, &Oracle::of(&after));
    fleet.router().flush();
    let mut checked = 0;
    for origin in fleet.nodes() {
        let stored = origin.service().store().fingerprints();
        for peer in fleet.nodes().iter().filter(|peer| peer.id() != origin.id()) {
            let replica = peer.replica_fingerprints(origin.id());
            let missing = stored.iter().filter(|fp| !replica.contains(fp)).count();
            assert_eq!(
                missing,
                0,
                "shard {}'s replica of origin {} lacks {missing} of its {} entries",
                peer.id(),
                origin.id(),
                stored.len()
            );
            checked += stored.len();
        }
    }
    assert!(checked > 0, "the restarted fleet stored nothing");
}
