//! `ccm2-fabric` — a sharded compile fleet over `ccm2-serve`.
//!
//! One [`CompileService`](ccm2_serve::CompileService) scales to one
//! machine's worker pool; the fabric scales *out*: N shards, each a
//! full service with its own bounded store, behind a router that
//! places requests with a consistent-hash ring and survives shard
//! death without losing an admitted request. The pieces:
//!
//! * [`wire`] — `CCM2WIRE`: versioned, length-prefixed, checksummed
//!   frames for the compile plane (request/outcome/reject) and the
//!   replication plane (sync/delta-ship/absorb). Damage anywhere is a
//!   decode failure, never misdecoded data.
//! * [`ring`] — the consistent-hash ring over request fingerprints:
//!   stable across processes, minimal key movement on shard
//!   join/leave.
//! * [`transport`] — the byte path: TCP on `127.0.0.1`, kept-alive
//!   connections carrying frame after frame, behind the [`Transport`]
//!   trait a test wraps to hold, refuse or count frames.
//! * [`lease`] — the epoch-numbered eviction lease that keeps
//!   membership authority exclusive when several routers run at once,
//!   and the failure detector's clock: one transition table as plain
//!   data, the shard's half ([`Lease`]) and the router's
//!   ([`Authority`]).
//! * [`shard`] — a service wrapped as a passive frame handler that says
//!   in each answer how many store deltas it has yet to ship, plus the
//!   replica of each peer's store that it rebuilds from the peer's
//!   `CCM2DELT` stream: a budgeted `MemStore`, persisted (when asked)
//!   as `CCM2SNAP` images.
//! * [`router`] — routing, router-level single-flight, failover
//!   (ring removal + replica absorption), the one shipper thread that
//!   pulls those deltas and fans them out off the request path, and the
//!   control plane's I/O: ticks, grant rounds, renewals, warm joins.
//! * [`client`] — the fleet's client side: sticky router preference,
//!   router-failover retry, and honored `Retry-After` back-off hints.
//! * [`durable`] — crash-atomic `CCM2MBRS` membership images (what
//!   standby routers mirror and promoted leaders restore).
//!
//! The fleet invariant the drills pin: for any seeded workload, an
//! N-shard fabric returns byte-identical objects and diagnostics to a
//! standalone service — including across a mid-stream shard kill.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use ccm2_fabric::Fabric;
//! use ccm2_serve::{CompileRequest, ServeConfig};
//! use ccm2_support::defs::DefLibrary;
//!
//! let fabric = Fabric::start(3, ServeConfig::default());
//! let req = CompileRequest::new(
//!     1,
//!     "Hello",
//!     "MODULE Hello; BEGIN WriteLn END Hello.",
//!     Arc::new(DefLibrary::new()),
//! );
//! let resp = fabric.router().serve(&req);
//! assert!(resp.outcome().expect("served").ok);
//! assert_eq!(fabric.router().live_shards(), vec![0, 1, 2]);
//! ```

pub mod client;
pub mod durable;
pub mod lease;
pub mod ring;
pub mod router;
pub mod shard;
pub mod transport;
pub mod wire;

use std::sync::Arc;

use ccm2_serve::ServeConfig;

pub use client::{ClientRetryStats, FabricClient, CLIENT_MAX_ATTEMPTS, CLIENT_MAX_SLEEP_MS};
pub use durable::{
    decode_membership, encode_membership, MembershipImage, MembershipStore, MBRS_FORMAT,
};
pub use lease::{Authority, HealthState, Lease, LeaseView, RouterRole};
pub use ring::{HashRing, DEFAULT_VNODES};
pub use router::{
    start_heartbeats, FabricResponse, FabricRouter, FabricStats, HeartbeatHandle,
    DEFAULT_RETRY_AFTER_MS,
};
pub use shard::{ShardNode, ShardStats};
pub use transport::{
    read_frame, FrameHandler, TcpShardServer, TcpTransport, Transport, MAX_PAYLOAD,
};
pub use wire::{
    decode_frame, encode_frame, frame_len, Message, WireOutcome, WireRequest, FRAME_OVERHEAD,
    NO_ROUTER, WIRE_FORMAT,
};

/// A whole fleet in one value, on TCP sockets on `127.0.0.1`: the
/// shards, their servers (which stop when the fleet is dropped), the
/// transports that reach them, and one router on the first transport.
/// The unit the drills and equivalence tests spin up.
///
/// Each transport has its own partition switches: cutting a link on one
/// leaves the others delivering, which is what lets two routers over the
/// same shards lose their networks apart.
pub struct Fabric {
    router: FabricRouter,
    /// The fleet router's transport first, then one per
    /// [`Fabric::open_transport`].
    transports: Vec<Arc<TcpTransport>>,
    nodes: Vec<Arc<ShardNode>>,
    /// One per node, in node order.
    servers: Vec<TcpShardServer>,
}

impl Fabric {
    /// Starts `shards` fresh shards (ids `0..shards`) with identical
    /// configs.
    pub fn start(shards: usize, config: ServeConfig) -> Fabric {
        let nodes = (0..shards as u32).map(|id| Arc::new(ShardNode::start(id, config)));
        Fabric::start_over(nodes.collect())
    }

    /// Assembles a fleet from pre-built nodes (restored shards, durable
    /// replicas, odd ids).
    pub fn start_over(nodes: Vec<Arc<ShardNode>>) -> Fabric {
        let servers: Vec<TcpShardServer> = nodes.iter().map(serve).collect();
        let transport = Arc::new(TcpTransport::new());
        for (node, server) in nodes.iter().zip(&servers) {
            transport.register(node.id(), server.addr());
        }
        Fabric {
            router: FabricRouter::new(Arc::clone(&transport) as Arc<dyn Transport>),
            transports: vec![transport],
            nodes,
            servers,
        }
    }

    /// The router (serve requests through this).
    pub fn router(&self) -> &FabricRouter {
        &self.router
    }

    /// The transport the fleet's own router runs on.
    pub fn transport(&self) -> &Arc<TcpTransport> {
        &self.transports[0]
    }

    /// [`TcpTransport::set_partitioned`] on the router's transport, after
    /// the router's [`FabricRouter::flush`]: what the cut finds shipped
    /// is what the answers before it reported, on every run.
    pub fn partition(&self, shard: u32, on: bool) {
        self.router.flush();
        self.transport().set_partitioned(shard, on);
    }

    /// A further, independent transport to the same shards, for a second
    /// router: its partitions and the first transport's do not touch.
    pub fn open_transport(&mut self) -> Arc<TcpTransport> {
        let transport = Arc::new(TcpTransport::new());
        for (node, server) in self.nodes.iter().zip(&self.servers) {
            transport.register(node.id(), server.addr());
        }
        self.transports.push(Arc::clone(&transport));
        transport
    }

    /// Starts a server for a late joiner and makes it reachable on every
    /// transport. The ring does not own it until a router's
    /// [`FabricRouter::admit_shard`] has warmed it.
    pub fn join(&mut self, node: Arc<ShardNode>) {
        let server = serve(&node);
        for transport in &self.transports {
            transport.register(node.id(), server.addr());
        }
        self.servers.push(server);
        self.nodes.push(node);
    }

    /// The shard nodes in start order, late joiners last (drill
    /// assertions; node `i` may be dead — check
    /// [`FabricRouter::live_shards`]).
    pub fn nodes(&self) -> &[Arc<ShardNode>] {
        &self.nodes
    }

    /// Compile frames answered with an outcome across all shards — each
    /// by a compile, by joining one in flight, or by a landed answer.
    pub fn total_compiles(&self) -> u64 {
        self.nodes.iter().map(|n| n.stats().compiles).sum()
    }
}

/// Starts `node`'s server on an ephemeral `127.0.0.1` port.
fn serve(node: &Arc<ShardNode>) -> TcpShardServer {
    TcpShardServer::serve(Arc::clone(node) as Arc<dyn FrameHandler>)
        .expect("bind a loopback port for the shard server")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccm2_serve::{CompileRequest, ExecChoice};
    use ccm2_support::defs::DefLibrary;
    use ccm2_support::hash::splitmix64;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn request(client: u64, name: &str) -> CompileRequest {
        let mut req = CompileRequest::new(
            client,
            name,
            format!("MODULE {name}; VAR x: INTEGER; BEGIN x := 3; END {name}."),
            Arc::new(DefLibrary::new()),
        );
        req.exec = ExecChoice::Sim(2);
        req
    }

    fn small_config() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 32,
            store_budget: 256 * 1024,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn fleet_serves_and_dedups_identical_requests() {
        let fabric = Fabric::start(3, small_config());
        let reqs: Vec<CompileRequest> = (0..4)
            .flat_map(|client| (0..3).map(move |m| request(client, &format!("Mod{m}"))))
            .collect();
        let responses = fabric.router().serve_batch(&reqs);
        for resp in &responses {
            assert!(resp.outcome().expect("served").ok);
        }
        // 12 requests, 3 distinct modules: single-flight at the router
        // and on the shards keeps actual compiles at the distinct
        // count (identical fingerprints route to one shard, so no
        // duplicate can slip through on a second shard; a straggler
        // arriving after completion finds the flight landed there and
        // is answered by lookup).
        let stats = fabric.router().stats();
        assert_eq!(stats.dispatched, 12);
        assert_eq!(stats.failovers, 0);
        assert!(
            fabric.total_compiles() >= 3,
            "all three modules must compile somewhere"
        );
        assert!(
            stats.joined + stats.routed_calls >= 12,
            "every request either joined or crossed the wire"
        );
        // Replication ran: fresh stores definitely had insertions to
        // ship, and their shards said so.
        fabric.router().flush();
        let stats = fabric.router().stats();
        assert!(stats.ships > 0, "no delta batch ever shipped: {stats:?}");
    }

    #[test]
    fn killed_shard_fails_over_and_survivors_absorb_its_deltas() {
        let fabric = Fabric::start(3, small_config());
        // Find a module routed to shard 1 so the kill actually matters.
        let victim_req = (0..64)
            .map(|i| request(7, &format!("Pick{i}")))
            .find(|r| HashRing::new(&[0, 1, 2], DEFAULT_VNODES).route(r.fingerprint()) == Some(1));
        let victim_req = victim_req.expect("some module routes to shard 1");
        assert!(fabric.router().serve(&victim_req).outcome().is_some());

        // The compile's artifacts were replicated to the peers' replicas.
        fabric.router().flush();
        let replicated = fabric.nodes()[0].replica_fingerprints(1).len()
            + fabric.nodes()[2].replica_fingerprints(1).len();
        assert!(replicated > 0, "peers hold no replicas for shard 1");

        fabric.router().kill_shard(1);
        fabric.router().kill_shard(1); // idempotent
        assert_eq!(fabric.router().live_shards(), vec![0, 2]);
        let stats = fabric.router().stats();
        assert_eq!(stats.failovers, 1);
        assert_eq!(stats.absorbs, 2, "both survivors absorbed");
        let absorbed: u64 =
            fabric.nodes()[0].stats().absorbed_entries + fabric.nodes()[2].stats().absorbed_entries;
        assert!(absorbed > 0, "absorb applied nothing");

        // The same request now serves from a survivor — and its
        // artifacts are already warm there thanks to the absorbed replica.
        let resp = fabric.router().serve(&victim_req);
        assert!(resp.outcome().expect("served by a survivor").ok);
    }

    #[test]
    fn injected_shard_death_mid_batch_loses_nothing() {
        let fabric = Fabric::start(3, small_config());
        // Shard 1 dies behind the router's back: the batch finds out.
        fabric.transport().kill(1);
        let reqs: Vec<CompileRequest> = (0..12).map(|m| request(1, &format!("Batch{m}"))).collect();
        let responses = fabric.router().serve_batch(&reqs);
        for (req, resp) in reqs.iter().zip(&responses) {
            let out = resp.outcome().expect("failover must not lose requests");
            assert!(out.ok, "{}: {:?}", req.module, out.diagnostics);
        }
        let stats = fabric.router().stats();
        assert_eq!(stats.failovers, 1, "shard 1 died exactly once: {stats:?}");
        assert_eq!(fabric.router().live_shards(), vec![0, 2]);
    }

    /// A shard behind a seeded corruptor that damages a share of the
    /// `Compile` frames it is handed, one byte each: `requests_ppm` parts
    /// per million on the way in (the shard sees a bad frame), and
    /// `answers_ppm` on the way out, past the 16-byte header, so that the
    /// socket still carries a whole frame and only the checksum can tell.
    /// Every other frame passes untouched.
    struct Corruptor {
        node: Arc<ShardNode>,
        requests_ppm: u64,
        answers_ppm: u64,
        compiles: AtomicU64,
        damaged: AtomicU64,
    }

    impl FrameHandler for Corruptor {
        fn handle(&self, frame: &[u8]) -> Vec<u8> {
            if !matches!(decode_frame(frame), Some(Message::Compile(_))) {
                return self.node.handle(frame);
            }
            let n = self.compiles.fetch_add(1, Ordering::Relaxed);
            let mut state = u64::from(self.node.id()) << 32 | n;
            let roll = splitmix64(&mut state) % 1_000_000;
            let at = splitmix64(&mut state) as usize;
            if roll < self.requests_ppm {
                self.damaged.fetch_add(1, Ordering::Relaxed);
                let mut bad = frame.to_vec();
                let at = at % bad.len();
                bad[at] ^= 0x55;
                self.node.handle(&bad)
            } else if roll < self.requests_ppm + self.answers_ppm {
                self.damaged.fetch_add(1, Ordering::Relaxed);
                let mut bad = self.node.handle(frame);
                let at = 16 + at % (bad.len() - 16);
                bad[at] ^= 0x55;
                bad
            } else {
                self.node.handle(frame)
            }
        }
    }

    /// Three shards, each served behind a [`Corruptor`], and a router
    /// over them.
    fn corrupted_fleet(
        requests_ppm: u64,
        answers_ppm: u64,
    ) -> (Vec<TcpShardServer>, Vec<Arc<Corruptor>>, FabricRouter) {
        let transport = Arc::new(TcpTransport::new());
        let (mut servers, mut corruptors) = (Vec::new(), Vec::new());
        for id in 0..3u32 {
            let corruptor = Arc::new(Corruptor {
                node: Arc::new(ShardNode::start(id, small_config())),
                requests_ppm,
                answers_ppm,
                compiles: AtomicU64::new(0),
                damaged: AtomicU64::new(0),
            });
            let server = TcpShardServer::serve(Arc::clone(&corruptor) as Arc<dyn FrameHandler>)
                .expect("bind a shard server");
            transport.register(id, server.addr());
            servers.push(server);
            corruptors.push(corruptor);
        }
        (servers, corruptors, FabricRouter::new(transport))
    }

    fn damaged(corruptors: &[Arc<Corruptor>]) -> u64 {
        corruptors
            .iter()
            .map(|c| c.damaged.load(Ordering::Relaxed))
            .sum()
    }

    #[test]
    fn corrupted_frames_are_retried_not_trusted() {
        // Three in ten compile frames damaged, half of them each way:
        // plenty of rejects, and still (nearly) every request is served.
        let (_servers, corruptors, router) = corrupted_fleet(150_000, 150_000);
        let reqs: Vec<CompileRequest> = (0..16).map(|m| request(2, &format!("Noise{m}"))).collect();
        let responses = router.serve_batch(&reqs);
        let served = responses.iter().filter(|r| r.outcome().is_some()).count();
        assert!(
            served >= 14,
            "checksum retries should serve nearly everything ({served}/16)"
        );
        for resp in &responses {
            if let Some(out) = resp.outcome() {
                assert!(out.ok, "{:?}", out.diagnostics);
            }
        }
        let damaged = damaged(&corruptors);
        assert!(damaged > 0, "corruption never fired — the test is vacuous");
        let bad_requests: u64 = corruptors.iter().map(|c| c.node.stats().bad_frames).sum();
        assert!(bad_requests > 0, "no damaged request reached a shard");
        assert!(bad_requests < damaged, "no answer was damaged");
        let stats = router.stats();
        assert_eq!(
            stats.checksum_rejects, damaged,
            "each damaged frame counted"
        );
        assert_eq!(
            stats.failovers, 0,
            "corruption must not be misdiagnosed as shard death"
        );
    }

    #[test]
    fn a_shard_whose_every_answer_is_damaged_ends_in_retry_not_failover() {
        let (_servers, corruptors, router) = corrupted_fleet(0, 1_000_000);
        let router = Arc::new(router);
        let serving = Arc::clone(&router);
        let resp = ccm2_support::within(std::time::Duration::from_secs(60), move || {
            serving.serve(&request(4, "Garbled"))
        });
        assert!(
            matches!(resp, FabricResponse::Retry { after_ms } if after_ms == DEFAULT_RETRY_AFTER_MS),
            "{resp:?}"
        );
        let calls = u64::from(router::MAX_CHECKSUM_RETRIES) + 1;
        let compiles: u64 = corruptors
            .iter()
            .map(|c| c.compiles.load(Ordering::Relaxed))
            .sum();
        assert_eq!((compiles, damaged(&corruptors)), (calls, calls));
        let stats = router.stats();
        assert_eq!(stats.checksum_rejects, calls);
        assert_eq!(stats.failovers, 0, "a garbled answer is not a dead shard");
        assert_eq!(router.live_shards(), vec![0, 1, 2]);
    }

    #[test]
    fn heartbeat_detector_suspects_then_evicts_a_partitioned_shard() {
        let fabric = Fabric::start(3, small_config());
        // Standing partition of the link to shard 1: every delivery on
        // it fails. Shards 0 and 2 keep answering.
        fabric.partition(1, true);

        assert!(fabric.router().heartbeat_tick().is_empty());
        assert_eq!(fabric.router().health(1), HealthState::Suspect);
        assert_eq!(fabric.router().health(0), HealthState::Alive);
        assert_eq!(
            fabric.router().live_shards(),
            vec![0, 1, 2],
            "a suspect keeps its keys"
        );

        assert_eq!(fabric.router().heartbeat_tick(), vec![1], "second miss");
        assert_eq!(fabric.router().health(1), HealthState::Evicted);
        assert_eq!(fabric.router().live_shards(), vec![0, 2]);
        let stats = fabric.router().stats();
        assert_eq!(stats.heartbeat_evictions, 1);
        assert_eq!(stats.failovers, 1, "eviction is a real failover");
        assert_eq!(stats.suspects, 1, "one transition into suspicion");
        assert_eq!(stats.pings, 3 + 3);
        assert_eq!(stats.pongs, 2 + 2, "shards 0 and 2 kept answering");
        assert_eq!(
            fabric.nodes()[1].stats().pings,
            0,
            "the cut shard heard nothing"
        );

        // Healing the partition does not resurrect the shard — only an
        // explicit re-admission does, through the warm-up path.
        fabric.partition(1, false);
        assert!(fabric.router().heartbeat_tick().is_empty());
        assert_eq!(fabric.router().health(1), HealthState::Evicted);
        fabric.router().admit_shard(1);
        assert_eq!(fabric.router().health(1), HealthState::Alive);
        assert_eq!(fabric.router().live_shards(), vec![0, 1, 2]);
    }

    #[test]
    fn admit_shard_warms_the_joiner_before_ring_ownership() {
        let mut fabric = Fabric::start(2, small_config());
        let reqs: Vec<CompileRequest> = (0..4).map(|m| request(3, &format!("Warm{m}"))).collect();
        for resp in fabric.router().serve_batch(&reqs) {
            assert!(resp.outcome().expect("served").ok);
        }
        let fleet_entries: usize = fabric.nodes()[0].service().store().export().len()
            + fabric.nodes()[1].service().store().export().len();
        assert!(fleet_entries > 0, "serving warmed nobody");

        let joiner = Arc::new(ShardNode::start(7, small_config()));
        fabric.join(Arc::clone(&joiner));
        fabric.router().admit_shard(7);
        assert_eq!(fabric.router().live_shards(), vec![0, 1, 7]);
        let stats = fabric.router().stats();
        assert_eq!(stats.warm_joins, 1);
        assert!(stats.warmup_entries > 0, "head-ship carried no entries");
        assert!(
            joiner.stats().imported_entries > 0,
            "the joiner imported nothing"
        );
        assert!(
            !joiner.service().store().export().is_empty(),
            "the joiner's store is still cold"
        );
        // Admitting an already-ringed shard is a no-op.
        fabric.router().admit_shard(7);
        assert_eq!(fabric.router().stats().warm_joins, 1);
    }

    fn temp_store(tag: &str) -> Arc<MembershipStore> {
        let dir = std::env::temp_dir().join(format!(
            "ccm2-mbrs-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Arc::new(MembershipStore::new(dir).expect("membership dir"))
    }

    #[test]
    fn standby_promotes_on_lease_expiry_and_stale_leader_demotes() {
        let fabric = Fabric::start(3, small_config());
        let store = temp_store("promote");
        let a = FabricRouter::new(fabric.transport().clone())
            .with_identity(1)
            .with_membership_store(Arc::clone(&store));
        let b = FabricRouter::new(fabric.transport().clone())
            .with_identity(2)
            .as_standby()
            .with_membership_store(Arc::clone(&store));

        assert!(a.acquire_lease(), "uncontested majority grant");
        assert_eq!(a.role(), RouterRole::Leader);
        assert_eq!(a.epoch(), 1);
        assert!(a.heartbeat_tick().is_empty(), "healthy fleet, no evictions");

        // A goes silent (crash, GC pause, partition — the standby can't
        // tell and doesn't need to). B watches the lease age out on the
        // shards' own probe clocks, then claims the next epoch.
        assert!(b.heartbeat_tick().is_empty());
        assert_eq!(b.role(), RouterRole::Standby, "lease still fresh");
        assert!(b.heartbeat_tick().is_empty());
        assert_eq!(b.role(), RouterRole::Leader, "expired lease claimed");
        assert_eq!(b.epoch(), 2);
        assert_eq!(b.stats().promotions, 1);

        // The ex-leader wakes up, hears the newer epoch on its first
        // answered probe, and stands down before touching membership.
        assert!(a.heartbeat_tick().is_empty());
        assert_eq!(a.role(), RouterRole::Standby);
        assert_eq!(a.stats().demotions, 1);
        assert_eq!(a.leadership_epochs(), vec![1]);
        assert_eq!(b.leadership_epochs(), vec![2]);

        // The durable image records the new leader.
        let image = store.load_latest().unwrap().image.expect("image persisted");
        assert_eq!(image.epoch, 2);
        assert_eq!(image.leader, 2);
        assert_eq!(image.members, vec![0, 1, 2]);
    }

    #[test]
    fn client_fails_over_to_the_standby_when_its_router_dies() {
        let fabric = Fabric::start(3, small_config());
        let store = temp_store("client");
        let a = Arc::new(
            FabricRouter::new(fabric.transport().clone())
                .with_identity(1)
                .with_membership_store(Arc::clone(&store)),
        );
        let b = Arc::new(
            FabricRouter::new(fabric.transport().clone())
                .with_identity(2)
                .as_standby()
                .with_membership_store(Arc::clone(&store)),
        );
        assert!(a.acquire_lease());
        let client = FabricClient::new(vec![Arc::clone(&a), Arc::clone(&b)]);

        let resp = client.serve(&request(1, "Sticky"));
        assert!(resp.outcome().expect("served via preferred router").ok);
        assert_eq!(client.preferred(), 0, "healthy preferred router sticks");

        a.shutdown();
        let resp = client.serve(&request(1, "Moved"));
        assert!(resp.outcome().expect("served via the standby").ok);
        assert_eq!(client.preferred(), 1, "client rotated to the standby");
        let stats = client.stats();
        assert_eq!(stats.served, 2);
        assert!(stats.router_rotations >= 1);
        assert_eq!(stats.exhausted, 0);
    }

    #[test]
    fn client_exhausts_its_budget_against_a_dead_fleet() {
        // A transport that reaches no shard.
        let router = Arc::new(FabricRouter::new(Arc::new(TcpTransport::new())));
        let client = FabricClient::new(vec![router]);
        let resp = client.serve(&request(1, "Nobody"));
        assert!(matches!(resp, FabricResponse::Retry { after_ms } if after_ms >= 1));
        let stats = client.stats();
        assert_eq!(stats.retries, u64::from(CLIENT_MAX_ATTEMPTS));
        assert_eq!(stats.exhausted, 1);
        assert_eq!(stats.served, 0);
    }

    /// The fleet contract, row by row: what the drills script against a
    /// [`Fabric`], over its sockets.
    #[test]
    fn fabric_contract_holds_over_sockets() {
        let nodes: Vec<Arc<ShardNode>> = (0..3u32)
            .map(|id| Arc::new(ShardNode::start(id, small_config())))
            .collect();
        let kept = Arc::clone(&nodes[0]);
        let mut fabric = Fabric::start_over(nodes);

        // Serves, and replicates, over the sockets.
        let reqs: Vec<CompileRequest> = (0..6).map(|m| request(5, &format!("Row{m}"))).collect();
        for resp in &fabric.router().serve_batch(&reqs) {
            assert!(resp.outcome().expect("served over the sockets").ok);
        }
        fabric.router().flush();
        assert!(fabric.router().stats().ships > 0, "replication runs");

        // partition -> evicted in exactly two ticks.
        fabric.partition(1, true);
        assert!(fabric.router().heartbeat_tick().is_empty());
        assert_eq!(fabric.router().health(1), HealthState::Suspect);
        assert_eq!(fabric.router().heartbeat_tick(), vec![1]);
        assert_eq!(fabric.router().health(1), HealthState::Evicted);
        assert_eq!(fabric.router().live_shards(), vec![0, 2]);

        // heal -> admit_shard -> Alive.
        fabric.partition(1, false);
        assert!(fabric.router().admit_shard(1));
        assert_eq!(fabric.router().health(1), HealthState::Alive);
        assert_eq!(fabric.router().live_shards(), vec![0, 1, 2]);

        // A late joiner serves the keys the ring hands it.
        let joiner = Arc::new(ShardNode::start(7, small_config()));
        fabric.join(Arc::clone(&joiner));
        assert!(fabric.router().admit_shard(7));
        let ring = HashRing::new(&[0, 1, 2, 7], DEFAULT_VNODES);
        let for_joiner = (0..200)
            .map(|i| request(6, &format!("Late{i}")))
            .find(|r| ring.route(r.fingerprint()) == Some(7))
            .expect("some module routes to the joiner");
        assert!(fabric.router().serve(&for_joiner).outcome().is_some());
        assert_eq!(joiner.stats().compiles, 1, "the joiner compiled it");

        // Cutting transport A leaves transport B answering.
        let b = fabric.open_transport();
        let router_b = FabricRouter::new(b.clone());
        for shard in [0, 1, 2, 7] {
            fabric.partition(shard, true);
        }
        let probe = request(8, "AcrossB");
        assert!(
            fabric.router().serve(&probe).outcome().is_none(),
            "transport A is cut from every shard"
        );
        assert!(router_b.serve(&probe).outcome().expect("served over B").ok);

        // Dropping the fleet stops its servers: no port listens and no
        // connection thread still holds a shard.
        let addrs: Vec<_> = fabric.servers.iter().map(TcpShardServer::addr).collect();
        assert_eq!(addrs.len(), 4);
        drop((fabric, router_b, b));
        for addr in addrs {
            assert!(
                std::net::TcpStream::connect(addr).is_err(),
                "a shard server outlived its fleet"
            );
        }
        assert_eq!(Arc::strong_count(&kept), 1, "a shard leaked");
    }
}
