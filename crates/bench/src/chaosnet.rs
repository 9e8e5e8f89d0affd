//! The `reproduce -- chaosnet` drill: seeded network faults against the
//! fabric control plane, over TCP.
//!
//! The lifecycle is a handful of phase functions over a
//! [`ccm2_fabric::Fabric`] — [`partition_evict`], [`heal_rejoin`],
//! [`cold_join`], [`crash_restart_absorb`] — that [`chaosnet`]'s cells
//! compose and that the root `tests/chaosnet.rs` calls one at a time.
//! Each phase carries its own hard assertions, so a regression fails
//! the drill instead of skewing a number.

use std::collections::HashMap;
use std::sync::Arc;

use ccm2_fabric::{
    start_heartbeats, Fabric, FabricClient, FabricRouter, HashRing, HealthState, MembershipStore,
    RouterRole, ShardNode, DEFAULT_VNODES,
};
use ccm2_serve::{CompileRequest, ExecChoice, ServeConfig};
use ccm2_support::defs::DefLibrary;
use ccm2_workload::{
    serve_load, shard_partition_schedule, PartitionWindow, RouterDrillKind, ServeLoadParams,
};

use crate::kit::{drive, requests, Oracle, Scratch};

/// The seeds of `reproduce -- chaosnet`'s two matrices.
const SEEDS: [u64; 3] = [0xC4A0, 0xC4A1, 0xC4A2];

/// Shards every drill fleet starts with (ids `0..SHARDS`).
pub const SHARDS: u32 = 3;

/// Node `id` with durable replicas (`CCM2SNAP` images) under `dir`:
/// built again over the same directory, it is that shard after a crash.
pub fn durable_node(dir: &Scratch, id: u32, config: ServeConfig) -> Arc<ShardNode> {
    Arc::new(
        ShardNode::start(id, config)
            .with_durable_replicas(dir.join(format!("replicas-{id}")))
            .expect("durable replicas"),
    )
}

/// The seeded partition window of a load, drawn over its first
/// two-thirds so that a healthy tail always follows the rejoin.
pub fn partition_window(params: &ServeLoadParams) -> PartitionWindow {
    let head = ServeLoadParams {
        events: params.events * 2 / 3,
        ..*params
    };
    shard_partition_schedule(&head, SHARDS, 1)[0]
}

/// Phase: the link to `victim` drops; the detector suspects on the
/// first missed probe and evicts on the second, in virtual-time ticks,
/// whose count it returns.
pub fn partition_evict(fleet: &Fabric, victim: u32) -> usize {
    fleet.partition(victim, true);
    let router = fleet.router();
    let mut ticks = 0usize;
    while router.health(victim) != HealthState::Evicted {
        ticks += 1;
        assert!(ticks <= 4, "failure detector hung past its miss budget");
        router.heartbeat_tick();
    }
    assert_eq!(ticks, 2, "deterministic clock");
    assert!(
        !router.live_shards().contains(&victim),
        "evicted shard still owns keys"
    );
    ticks
}

/// Phase: the partition heals and `victim` warm-rejoins through
/// `admit_shard`.
pub fn heal_rejoin(fleet: &Fabric, victim: u32) {
    fleet.partition(victim, false);
    fleet.router().admit_shard(victim);
    assert_eq!(fleet.router().health(victim), HealthState::Alive);
}

/// Phase: cold join. The joiner is warmed (head-ship from every member,
/// then delta catch-up) before the ring hands it keys, so its first
/// post-join batch — `first_batch` plus the probe replays — must hit at
/// least half the time. Returns `(warm hits, lookups)` on the joiner.
pub fn cold_join(
    fleet: &mut Fabric,
    joiner: Arc<ShardNode>,
    first_batch: &[CompileRequest],
    oracle: &Oracle,
) -> (u64, u64) {
    // Warm probes: the seeded load reuses a handful of fingerprints, so
    // on an unlucky seed the consistent-hash ring may hand the joiner
    // none of them. Synthesize modules the post-join ring provably
    // routes to the joiner and serve them now, pre-join, so they land
    // warm in a current member's store (and thus in the head-ship
    // image). Their post-join replay is guaranteed joiner traffic.
    let mut members = fleet.router().live_shards();
    members.push(joiner.id());
    let post_join_ring = HashRing::new(&members, DEFAULT_VNODES);
    let mk_probe = |n: u32| {
        let mut req = CompileRequest::new(
            u64::from(n),
            format!("ChaosProbe{n}"),
            format!("MODULE ChaosProbe{n}; VAR x: INTEGER; BEGIN x := {n}; END ChaosProbe{n}."),
            Arc::new(DefLibrary::new()),
        );
        req.exec = ExecChoice::Sim(4);
        req
    };
    let probes: Vec<CompileRequest> = (0..200u32)
        .map(mk_probe)
        .filter(|req| post_join_ring.route(req.fingerprint()) == Some(joiner.id()))
        .take(6)
        .collect();
    assert!(!probes.is_empty(), "no probe routed to the joiner");
    let serve_probes = |fleet: &Fabric, shed: &str| {
        for resp in fleet.router().serve_batch(&probes) {
            let o = resp.outcome().unwrap_or_else(|| panic!("{shed}"));
            assert!(o.ok, "{:?}", o.diagnostics);
        }
    };
    serve_probes(fleet, "probe shed by an idle fleet");

    fleet.join(Arc::clone(&joiner));
    fleet.router().admit_shard(joiner.id());
    let before = joiner.service().store().stats();
    drive(fleet.router(), first_batch, oracle);
    serve_probes(fleet, "probe replay shed by an idle fleet");
    let after = joiner.service().store().stats();
    let warm_hits = after.hits - before.hits;
    let warm_lookups = warm_hits + (after.misses - before.misses);
    assert!(warm_lookups > 0, "the joiner saw no post-join traffic");
    assert!(
        warm_hits * 2 >= warm_lookups,
        "cold joiner served too cold: {warm_hits}/{warm_lookups} warm"
    );
    (warm_hits, warm_lookups)
}

/// Phase: crash-restart. Drops the whole fleet (router, sockets, nodes)
/// and rebuilds shards `0..SHARDS` with `rebuild` — from their durable
/// replica images. Every replica entry, of every origin the old fleet
/// had, must come back; then the origin with the most entries on its
/// peers is killed and the failover absorb must import the restored
/// replicas into live stores. Returns the rebuilt, post-failover fleet.
pub fn crash_restart_absorb(fleet: Fabric, rebuild: impl Fn(u32) -> Arc<ShardNode>) -> Fabric {
    let origins: Vec<u32> = fleet.nodes().iter().map(|n| n.id()).collect();
    // What is replicated when the fleet goes down is what the answers so
    // far reported, not how far the shipper happened to be.
    fleet.router().flush();
    let replicated = |nodes: &[Arc<ShardNode>]| -> Vec<Vec<usize>> {
        nodes
            .iter()
            .filter(|n| n.id() < SHARDS)
            .map(|n| {
                origins
                    .iter()
                    .map(|&o| n.replica_fingerprints(o).len())
                    .collect()
            })
            .collect()
    };
    let before = replicated(fleet.nodes());
    assert!(
        before.iter().flatten().sum::<usize>() > 0,
        "no replica entries to survive the crash — the drill is vacuous"
    );
    drop(fleet);

    let nodes: Vec<Arc<ShardNode>> = (0..SHARDS).map(rebuild).collect();
    assert_eq!(
        replicated(&nodes),
        before,
        "restart lost or invented replica entries"
    );
    let fleet = Fabric::start_over(nodes);
    let origin = (0..SHARDS)
        .max_by_key(|&o| {
            fleet
                .nodes()
                .iter()
                .filter(|n| n.id() != o)
                .map(|n| n.replica_fingerprints(o).len())
                .sum::<usize>()
        })
        .expect("three shards");
    fleet.router().kill_shard(origin);
    let absorbed: u64 = fleet
        .nodes()
        .iter()
        .filter(|n| n.id() != origin)
        .map(|n| n.stats().absorbed_entries)
        .sum();
    assert!(
        absorbed > 0,
        "failover after restart absorbed nothing from the durable replicas"
    );
    fleet
}

/// The per-shard service of the chaosnet and split-brain cells.
fn cell_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_capacity: 32,
        store_budget: 128 * 1024,
        ..ServeConfig::default()
    }
}

/// The seeded network-fault matrix (three seeds) over
/// the hardened fabric control plane. Each cell runs one full lifecycle
/// — partition opens on the seeded schedule, the heartbeat detector
/// suspects then evicts the victim, the fleet serves through the hole,
/// the partition heals and the victim warm-rejoins, a cold shard joins
/// through the warm-up path (>= 50% warm hits on its first post-join
/// batch), and finally the whole fleet is crash-restarted from its
/// durable replica images and a failover absorbs the restored
/// replicas. Zero lost admitted requests, zero hangs, byte-identity
/// to a standalone compile, everywhere. The split-brain cells and the
/// wall-clock detector leg follow.
pub fn chaosnet() -> String {
    let mut out = String::from(
        "Chaosnet: seeded network-fault drills over the fabric control plane\n\
           each cell: partition -> heartbeat eviction -> serve through the hole -> heal\n\
           -> warm rejoin -> cold join (warm-hit floor) -> replica crash-restart -> absorb\n\n",
    );
    out.push_str("  seed   | evict ticks | warm hits | events\n");
    out.push_str("  -------+-------------+-----------+-------\n");
    let mut cells = 0usize;
    for seed in SEEDS {
        let cell = chaosnet_cell(seed);
        out.push_str(&format!(
            "  {:#6x} | {:>11} | {:>4}/{:<4} | {:>6}\n",
            seed, cell.ticks_to_evict, cell.warm_hits, cell.warm_lookups, cell.events,
        ));
        cells += 1;
    }
    out.push_str(&format!(
        "  {cells} cells: 0 lost admitted requests, 0 hangs, 0 mismatched vs standalone\n"
    ));

    // Split-brain matrix: the same seeds, each running all three router
    // disturbances (kill / partition / duel) against a two-router fleet
    // with the epoch lease.
    out.push_str(
        "\nsplit-brain drills: two routers, epoch-leased eviction authority, client failover\n",
    );
    out.push_str("  seed   | drill     | epoch | promote ticks | epoch rejects\n");
    out.push_str("  -------+-----------+-------+---------------+--------------\n");
    let mut cells = 0usize;
    for seed in SEEDS {
        for kind in [
            RouterDrillKind::Kill,
            RouterDrillKind::Partition,
            RouterDrillKind::Duel,
        ] {
            let cell = split_brain_cell(seed, kind);
            out.push_str(&format!(
                "  {:#6x} | {:>9} | {:>5} | {:>13} | {:>13}\n",
                seed, cell.kind, cell.promoted_epoch, cell.promote_ticks, cell.epoch_rejects,
            ));
            cells += 1;
        }
    }
    out.push_str(&format!(
        "  {cells} cells: 0 lost, 0 hangs, no epoch with two leaders, membership converged\n"
    ));

    wall_clock_eviction();
    out.push_str(&format!(
        "\nwall-clock detector (tcp, {WALL_HEARTBEAT_MS} ms heartbeats): \
         partitioned shard evicted inside the deadline\n"
    ));
    out
}

/// One cell of the chaosnet matrix (a seed), reduced to the numbers the
/// report carries.
struct ChaosCell {
    events: usize,
    ticks_to_evict: usize,
    warm_hits: u64,
    warm_lookups: u64,
}

/// One chaosnet cell; see [`chaosnet`] for the script it runs.
fn chaosnet_cell(seed: u64) -> ChaosCell {
    const JOINER: u32 = 9;
    let params = ServeLoadParams {
        seed,
        projects: 3,
        clients: 4,
        events: 60,
        edit_every: 12,
        interface_every: 3,
    };
    let reqs = requests(&serve_load(&params), ExecChoice::Sim(4));
    let oracle = Oracle::of(&reqs);
    let dir = Scratch::new("chaosnet");
    let mk_node = |id: u32| durable_node(&dir, id, cell_config());
    let mut fleet = Fabric::start_over((0..SHARDS).map(mk_node).collect());

    // The final third of the load is always the cold joiner's first
    // batch.
    let window = partition_window(&params);
    let join_at = params.events * 2 / 3;

    // Phase 1 — healthy fleet up to the partition point.
    drive(fleet.router(), &reqs[..window.from], &oracle);
    // Phase 2 — partition, eviction, and service through the hole.
    let ticks_to_evict = partition_evict(&fleet, window.shard);
    drive(fleet.router(), &reqs[window.from..window.until], &oracle);
    // Phase 3 — heal and warm rejoin.
    heal_rejoin(&fleet, window.shard);
    drive(fleet.router(), &reqs[window.until..join_at], &oracle);
    // Phase 4 — cold join.
    let (warm_hits, warm_lookups) =
        cold_join(&mut fleet, mk_node(JOINER), &reqs[join_at..], &oracle);
    // Phase 5 — crash-restart from the durable replicas, failover absorb.
    let fleet = crash_restart_absorb(fleet, mk_node);
    // The restarted, post-failover fleet still serves standalone bytes.
    drive(fleet.router(), &reqs[..6], &oracle);

    ChaosCell {
        events: params.events,
        ticks_to_evict,
        warm_hits,
        warm_lookups,
    }
}

/// Period of the wall-clock leg's heartbeat thread.
const WALL_HEARTBEAT_MS: u64 = 25;

/// Wall-clock leg of the chaosnet drill — the one thing here that
/// exercises [`start_heartbeats`]: a fleet under real-time
/// heartbeats must evict a partitioned shard within a generous bounded
/// deadline (the zero-hangs guarantee on the non-virtual clock). How
/// long it took is `perf/`'s business, not this report's.
fn wall_clock_eviction() {
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 16,
        store_budget: 64 * 1024,
        ..ServeConfig::default()
    };
    let nodes = (0..SHARDS).map(|id| Arc::new(ShardNode::start(id, config)));
    let fleet = Fabric::start_over(nodes.collect());
    let router = Arc::new(FabricRouter::new(fleet.transport().clone()));
    let handle = start_heartbeats(
        Arc::clone(&router),
        std::time::Duration::from_millis(WALL_HEARTBEAT_MS),
    );
    for m in 0..4 {
        let mut req = CompileRequest::new(
            m,
            format!("Wall{m}"),
            format!("MODULE Wall{m}; VAR x: INTEGER; BEGIN x := 3; END Wall{m}."),
            Arc::new(DefLibrary::new()),
        );
        req.exec = ExecChoice::Sim(2);
        let resp = router.serve(&req);
        assert!(resp.outcome().expect("served under heartbeats").ok);
    }
    fleet.partition(1, true);
    let started = std::time::Instant::now();
    let deadline = std::time::Duration::from_millis(200 * WALL_HEARTBEAT_MS);
    while router.health(1) != HealthState::Evicted {
        assert!(
            started.elapsed() < deadline,
            "wall-clock detector hung: shard 1 not evicted within {deadline:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    drop(handle);
}

// ---- split-brain drills: router loss without divergent membership -------

/// One split-brain cell, reduced to the numbers the report carries,
/// plus the deterministic transcript the determinism test replays. The
/// hard invariants — 0 lost admitted requests, 0 hangs, no epoch with
/// two leaders, converged membership, byte-identity to standalone — are
/// asserted inside the cell.
struct SplitBrainCell {
    kind: &'static str,
    promoted_epoch: u64,
    promote_ticks: usize,
    epoch_rejects: u64,
    /// Not in the report: the tests below read these two.
    #[cfg_attr(not(test), allow(dead_code))]
    a_demotions: u64,
    #[cfg_attr(not(test), allow(dead_code))]
    transcript: Vec<String>,
}

/// One split-brain drill cell: a 3-shard fleet behind two routers
/// (A leads, B stands by) on *independent* transports over the same
/// shards, a shared durable membership store, and a client that fails
/// over between them. The seeded disturbance hits router A mid-load:
///
/// - **Kill** — A is shut down; B promotes on lease expiry and the
///   client rotates.
/// - **Partition** — A is cut from every shard (its churn while cut
///   must not reach the durable membership); B promotes; on heal A
///   demotes on its first observed newer epoch.
/// - **Duel** — A is silenced but not told: after B promotes, both
///   believe they lead until A's next stamped frame draws an
///   `EpochReject` and it stands down.
///
/// Every admitted request across the disturbance is served with bytes
/// identical to a standalone compile. The transcript records phases,
/// roles, epochs and per-shard grant histories — and no wall-clock
/// values, so the same seed always replays the same transcript.
fn split_brain_cell(seed: u64, kind: RouterDrillKind) -> SplitBrainCell {
    let params = ServeLoadParams {
        seed,
        projects: 3,
        clients: 4,
        events: 24,
        edit_every: 8,
        interface_every: 3,
    };
    let reqs = requests(&serve_load(&params), ExecChoice::Sim(4));
    let oracle = Oracle::of(&reqs);

    // Two independent transports over the same shards: cutting router
    // A's network must not touch router B's.
    let nodes = (0..SHARDS).map(|id| Arc::new(ShardNode::start(id, cell_config())));
    let mut fleet = Fabric::start_over(nodes.collect());
    let transport_b = fleet.open_transport();
    let cut_a = |on: bool| {
        for shard in 0..SHARDS {
            fleet.partition(shard, on);
        }
    };

    let dir = Scratch::new("splitbrain");
    let store = Arc::new(MembershipStore::new(dir.join("mbrs")).expect("membership dir"));
    let a = Arc::new(
        FabricRouter::new(fleet.transport().clone())
            .with_identity(1)
            .with_membership_store(Arc::clone(&store)),
    );
    let b = Arc::new(
        FabricRouter::new(transport_b)
            .with_identity(2)
            .as_standby()
            .with_membership_store(Arc::clone(&store)),
    );
    assert!(a.acquire_lease(), "uncontested initial grant");
    let client = FabricClient::new(vec![Arc::clone(&a), Arc::clone(&b)]);

    let mut transcript: Vec<String> = Vec::new();
    let roles = |a: &FabricRouter, b: &FabricRouter| {
        format!(
            "a={:?}@{} b={:?}@{}",
            a.role(),
            a.epoch(),
            b.role(),
            b.epoch()
        )
    };
    let kind_name = match kind {
        RouterDrillKind::Kill => "kill",
        RouterDrillKind::Partition => "partition",
        RouterDrillKind::Duel => "duel",
    };
    let third = params.events / 3;
    transcript.push(format!(
        "setup seed={seed:#x} kind={kind_name} shards={SHARDS} {}",
        roles(&a, &b)
    ));

    // Phase 1 — healthy fleet: A leads, renews, serves the head.
    drive(&client, &reqs[..third], &oracle);
    assert!(a.heartbeat_tick().is_empty(), "healthy fleet, no evictions");
    // The disturbance finds the head shipped, on every run.
    a.flush();
    transcript.push(format!("head served={third} {}", roles(&a, &b)));

    // Phase 2 — the disturbance hits router A.
    match kind {
        RouterDrillKind::Kill => {
            a.shutdown();
            transcript.push("disturb: router A shut down".into());
        }
        RouterDrillKind::Partition => {
            cut_a(true);
            // A churns against its dead network: it may evict its whole
            // local view, but with zero shards witnessing, none of it
            // may reach the durable membership image.
            a.heartbeat_tick();
            a.heartbeat_tick();
            transcript.push(format!(
                "disturb: router A cut from every shard; churned to live={:?}",
                a.live_shards()
            ));
        }
        RouterDrillKind::Duel => {
            transcript.push("disturb: router A silenced (no ticks), not told".into());
        }
    }

    // Phase 3 — the standby watches the lease age out on the shards'
    // own probe clocks, then claims the next epoch.
    let mut promote_ticks = 0usize;
    while b.role() != RouterRole::Leader {
        promote_ticks += 1;
        assert!(promote_ticks <= 6, "standby never promoted (hang)");
        b.heartbeat_tick();
    }
    let promoted_epoch = b.epoch();
    assert!(promoted_epoch >= 2, "promotion claims a fresh epoch");
    // A promotion pulls every member once; the middle starts after it.
    b.flush();
    transcript.push(format!(
        "promoted after {promote_ticks} standby ticks {}",
        roles(&a, &b)
    ));

    // Phase 4 — serve the middle through the client: it rotates away
    // from the dead/cut router; in the duel, A still serves, and the
    // first batch its shipper fans out under the stale stamp draws the
    // EpochReject that demotes it — after which, a standby, it pulls no
    // more.
    drive(&client, &reqs[third..2 * third], &oracle);
    a.flush();
    b.flush();
    assert!(b.heartbeat_tick().is_empty(), "leader B sees a live fleet");
    transcript.push(format!(
        "mid served={third} rotations={} {}",
        client.stats().router_rotations,
        roles(&a, &b)
    ));

    // Phase 5 — heal: the ex-leader must converge, not split-brain.
    match kind {
        RouterDrillKind::Kill => {}
        RouterDrillKind::Partition | RouterDrillKind::Duel => {
            if kind == RouterDrillKind::Partition {
                cut_a(false);
            }
            a.heartbeat_tick();
            assert_eq!(
                a.role(),
                RouterRole::Standby,
                "healed ex-leader must stand down"
            );
            assert_eq!(a.epoch(), 1, "A never claims an epoch it wasn't granted");
            transcript.push(format!("healed {}", roles(&a, &b)));
        }
    }

    // Phase 6 — tail through the converged fleet.
    drive(&client, &reqs[2 * third..], &oracle);
    a.flush();
    b.flush();
    transcript.push(format!("tail served={}", reqs.len() - 2 * third));

    // Invariants. Leadership epochs are disjoint across routers — no
    // epoch ever had two leaders…
    let ea = a.leadership_epochs();
    let eb = b.leadership_epochs();
    for e in &ea {
        assert!(!eb.contains(e), "epoch {e} observed two leaders");
    }
    // …and the shards' own grant histories agree: every epoch a router
    // led was granted to that router alone, wherever it was granted.
    let leaders: HashMap<u64, u32> = ea
        .iter()
        .map(|&e| (e, a.router_id()))
        .chain(eb.iter().map(|&e| (e, b.router_id())))
        .collect();
    for node in fleet.nodes() {
        let grants = node.lease_grants();
        for w in grants.windows(2) {
            assert!(
                w[0].0 < w[1].0,
                "a shard granted an epoch twice: {grants:?}"
            );
        }
        for &(epoch, router) in &grants {
            if let Some(&led) = leaders.get(&epoch) {
                assert_eq!(router, led, "epoch {epoch} granted away from its leader");
            }
        }
        transcript.push(format!("grants shard{}={:?}", node.id(), grants));
    }
    // Membership converged: both live routers agree with the durable
    // image (a killed router keeps its stale view; it is dead).
    let image = store
        .load_latest()
        .expect("membership readable")
        .image
        .expect("membership persisted");
    assert_eq!(image.leader, b.router_id());
    assert_eq!(image.epoch, promoted_epoch);
    assert_eq!(b.live_shards(), image.members, "leader B diverged");
    if kind != RouterDrillKind::Kill {
        a.resync_membership();
        assert_eq!(a.live_shards(), image.members, "standby A diverged");
    }
    transcript.push(format!(
        "converged members={:?} epoch={} leader={}",
        image.members, image.epoch, image.leader
    ));

    SplitBrainCell {
        kind: kind_name,
        promoted_epoch,
        promote_ticks,
        a_demotions: a.stats().demotions,
        epoch_rejects: a.stats().epoch_rejects + b.stats().epoch_rejects,
        transcript,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_brain_cell_holds_its_invariants() {
        // The cell asserts internally: 0 lost, 0 hangs, byte-identity
        // to standalone, no epoch with two leaders, membership
        // converged on the durable image. One cell per drill kind keeps
        // the unit suite fast; the full seeded matrix runs under
        // `reproduce -- chaosnet`.
        for kind in [
            RouterDrillKind::Kill,
            RouterDrillKind::Partition,
            RouterDrillKind::Duel,
        ] {
            let cell = split_brain_cell(0xD1CE, kind);
            assert!(cell.promoted_epoch >= 2, "standby claimed a fresh epoch");
            assert!(cell.promote_ticks >= 1);
            if kind != RouterDrillKind::Kill {
                assert!(
                    cell.a_demotions >= 1,
                    "the surviving ex-leader must demote ({:?}): {:?}",
                    kind,
                    cell.transcript
                );
            }
        }
    }

    #[test]
    fn split_brain_transcripts_are_deterministic() {
        // Same seed, same drill → identical transcripts, line for line.
        // The transcript carries phases, roles, epochs, grant histories
        // and memberships — and no wall-clock values — so this is the
        // replayability guarantee for split-brain investigations.
        let kind = RouterDrillKind::Duel;
        let first = split_brain_cell(0x5EED, kind).transcript;
        let second = split_brain_cell(0x5EED, kind).transcript;
        assert_eq!(first, second, "same seed must replay identically");
        let other = split_brain_cell(0x5EED + 1, kind).transcript;
        assert_ne!(first, other, "different seed takes a different path");
    }
}
