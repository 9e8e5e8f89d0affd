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
//! * [`transport`] — the byte conduit: a deterministic, seedable
//!   in-process loopback (drills, property tests) and a real TCP
//!   transport (kept-alive connections, frame after frame),
//!   interchangeable behind one trait.
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
    read_frame, FrameHandler, LoopbackTransport, TcpShardServer, TcpTransport, Transport,
    MAX_PAYLOAD,
};
pub use wire::{
    decode_frame, encode_frame, frame_len, Message, WireOutcome, WireRequest, FRAME_OVERHEAD,
    NO_ROUTER, WIRE_FORMAT,
};

/// One byte path from a router to the fleet's shards, on either
/// transport, with a partition switch per link. A fleet's conduits are
/// independent: cutting one leaves the others delivering, which is what
/// lets two routers over the same shards lose their networks apart.
pub struct Conduit {
    net: Net,
}

enum Net {
    Loopback(Arc<LoopbackTransport>),
    Tcp(Arc<TcpTransport>),
}

impl Conduit {
    fn new(net: Net) -> Arc<Conduit> {
        Arc::new(Conduit { net })
    }

    /// The transport a router is built on.
    pub fn transport(&self) -> Arc<dyn Transport> {
        match &self.net {
            Net::Loopback(t) => Arc::clone(t) as Arc<dyn Transport>,
            Net::Tcp(t) => Arc::clone(t) as Arc<dyn Transport>,
        }
    }

    /// Opens (`true`) or heals (`false`) a standing partition of the
    /// link to `shard`: every call on it fails and the shard sees
    /// nothing — [`LoopbackTransport::set_partitioned`] or
    /// [`TcpTransport::set_partitioned`], whichever carries the conduit.
    pub fn partition(&self, shard: u32, on: bool) {
        match &self.net {
            Net::Loopback(t) => t.set_partitioned(shard, on),
            Net::Tcp(t) => t.set_partitioned(shard, on),
        }
    }
}

/// A whole fleet in one value, on the deterministic loopback or on real
/// TCP sockets: the shards, the conduits that reach them, one router on
/// the first conduit, and — over TCP — the shard servers, which stop
/// when the fleet is dropped. The unit the drills and equivalence tests
/// spin up; the same script runs on either transport.
pub struct Fabric {
    router: FabricRouter,
    conduits: Vec<Arc<Conduit>>,
    nodes: Vec<Arc<ShardNode>>,
    /// One per node, in node order; empty on the loopback.
    servers: Vec<TcpShardServer>,
}

impl Fabric {
    /// Starts `shards` fresh shards (ids `0..shards`) with identical
    /// configs on a clean loopback transport.
    pub fn start(shards: usize, config: ServeConfig) -> Fabric {
        let nodes = (0..shards as u32).map(|id| Arc::new(ShardNode::start(id, config)));
        Fabric::start_over(false, nodes.collect())
    }

    /// Assembles a fleet from pre-built nodes (restored shards, durable
    /// replicas, odd ids) over TCP sockets on `127.0.0.1` when `tcp`, on a
    /// clean loopback otherwise.
    pub fn start_over(tcp: bool, nodes: Vec<Arc<ShardNode>>) -> Fabric {
        if !tcp {
            return Fabric::start_on(Arc::new(LoopbackTransport::new()), nodes);
        }
        let servers: Vec<TcpShardServer> = nodes
            .iter()
            .map(|node| {
                TcpShardServer::serve(Arc::clone(node) as Arc<dyn FrameHandler>)
                    .expect("bind a loopback port for the shard server")
            })
            .collect();
        let transport = Arc::new(TcpTransport::new());
        for (node, server) in nodes.iter().zip(&servers) {
            transport.register(node.id(), server.addr());
        }
        Fabric::assemble(Net::Tcp(transport), nodes, servers)
    }

    /// Assembles a loopback fleet on a caller-provided transport
    /// (seeded corruption).
    pub fn start_on(transport: Arc<LoopbackTransport>, nodes: Vec<Arc<ShardNode>>) -> Fabric {
        for node in &nodes {
            transport.register(node.id(), Arc::clone(node) as Arc<dyn FrameHandler>);
        }
        Fabric::assemble(Net::Loopback(transport), nodes, Vec::new())
    }

    fn assemble(net: Net, nodes: Vec<Arc<ShardNode>>, servers: Vec<TcpShardServer>) -> Fabric {
        let conduit = Conduit::new(net);
        Fabric {
            router: FabricRouter::new(conduit.transport()),
            conduits: vec![conduit],
            nodes,
            servers,
        }
    }

    /// The router (serve requests through this).
    pub fn router(&self) -> &FabricRouter {
        &self.router
    }

    /// The conduit the fleet's own router runs on.
    pub fn conduit(&self) -> &Conduit {
        &self.conduits[0]
    }

    /// [`Conduit::partition`] on the router's conduit, after the
    /// router's [`FabricRouter::flush`]: what the cut finds shipped is
    /// what the answers before it reported, on every run.
    pub fn partition(&self, shard: u32, on: bool) {
        self.router.flush();
        self.conduit().partition(shard, on);
    }

    /// A further, independent conduit to the same shards, for a second
    /// router: its partitions and the first conduit's do not touch.
    pub fn open_conduit(&mut self) -> Arc<Conduit> {
        let conduit = Conduit::new(match &self.conduit().net {
            Net::Loopback(_) => Net::Loopback(Arc::new(LoopbackTransport::new())),
            Net::Tcp(_) => Net::Tcp(Arc::new(TcpTransport::new())),
        });
        for at in 0..self.nodes.len() {
            self.connect(&conduit, at);
        }
        self.conduits.push(Arc::clone(&conduit));
        conduit
    }

    /// Makes a late joiner reachable on every conduit (starting its
    /// server over TCP). The ring does not own it until a router's
    /// [`FabricRouter::admit_shard`] has warmed it.
    pub fn join(&mut self, node: Arc<ShardNode>) {
        if matches!(self.conduit().net, Net::Tcp(_)) {
            let server = TcpShardServer::serve(Arc::clone(&node) as Arc<dyn FrameHandler>)
                .expect("bind a loopback port for the shard server");
            self.servers.push(server);
        }
        self.nodes.push(node);
        for conduit in &self.conduits {
            self.connect(conduit, self.nodes.len() - 1);
        }
    }

    /// Registers node `at` on `conduit`.
    fn connect(&self, conduit: &Conduit, at: usize) {
        let node = &self.nodes[at];
        match &conduit.net {
            Net::Loopback(t) => t.register(node.id(), Arc::clone(node) as Arc<dyn FrameHandler>),
            Net::Tcp(t) => t.register(node.id(), self.servers[at].addr()),
        }
    }

    /// The router's loopback transport (corruption counters); `None`
    /// for a fleet on sockets.
    pub fn loopback(&self) -> Option<&Arc<LoopbackTransport>> {
        match &self.conduit().net {
            Net::Loopback(t) => Some(t),
            Net::Tcp(_) => None,
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use ccm2_serve::{CompileRequest, ExecChoice};
    use ccm2_support::defs::DefLibrary;

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
        fabric.conduit().transport().kill(1);
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

    #[test]
    fn corrupted_frames_are_retried_not_trusted() {
        // ~25% of frames damaged: plenty of rejects, still converges.
        let transport = Arc::new(LoopbackTransport::with_corruption(0x5EED, 250_000));
        let nodes = (0..3u32)
            .map(|id| Arc::new(ShardNode::start(id, small_config())))
            .collect();
        let fabric = Fabric::start_on(transport, nodes);
        let reqs: Vec<CompileRequest> = (0..8).map(|m| request(2, &format!("Noise{m}"))).collect();
        let responses = fabric.router().serve_batch(&reqs);
        let served = responses.iter().filter(|r| r.outcome().is_some()).count();
        assert!(
            served >= 6,
            "checksum retries should serve nearly everything ({served}/8)"
        );
        for resp in &responses {
            if let Some(out) = resp.outcome() {
                assert!(out.ok, "{:?}", out.diagnostics);
            }
        }
        assert!(
            fabric.loopback().expect("loopback fleet").corrupted() > 0,
            "corruption never fired — the test is vacuous"
        );
        assert!(
            fabric.router().stats().checksum_rejects > 0
                || fabric.nodes().iter().all(|n| n.stats().bad_frames == 0),
            "damage was observed but never counted"
        );
        assert_eq!(
            fabric.router().stats().failovers,
            0,
            "corruption must not be misdiagnosed as shard death"
        );
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
        let transport = Arc::new(LoopbackTransport::new());
        let nodes: Vec<Arc<ShardNode>> = (0..3u32)
            .map(|id| Arc::new(ShardNode::start(id, small_config())))
            .collect();
        for node in &nodes {
            transport.register(node.id(), Arc::clone(node) as Arc<dyn FrameHandler>);
        }
        let store = temp_store("promote");
        let a = FabricRouter::new(Arc::clone(&transport) as Arc<dyn Transport>)
            .with_identity(1)
            .with_membership_store(Arc::clone(&store));
        let b = FabricRouter::new(Arc::clone(&transport) as Arc<dyn Transport>)
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
        let transport = Arc::new(LoopbackTransport::new());
        let nodes: Vec<Arc<ShardNode>> = (0..3u32)
            .map(|id| Arc::new(ShardNode::start(id, small_config())))
            .collect();
        for node in &nodes {
            transport.register(node.id(), Arc::clone(node) as Arc<dyn FrameHandler>);
        }
        let store = temp_store("client");
        let a = Arc::new(
            FabricRouter::new(Arc::clone(&transport) as Arc<dyn Transport>)
                .with_identity(1)
                .with_membership_store(Arc::clone(&store)),
        );
        let b = Arc::new(
            FabricRouter::new(Arc::clone(&transport) as Arc<dyn Transport>)
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
        let transport = Arc::new(LoopbackTransport::new());
        let router = Arc::new(FabricRouter::new(
            Arc::clone(&transport) as Arc<dyn Transport>
        ));
        let client = FabricClient::new(vec![router]);
        let resp = client.serve(&request(1, "Nobody"));
        assert!(matches!(resp, FabricResponse::Retry { after_ms } if after_ms >= 1));
        let stats = client.stats();
        assert_eq!(stats.retries, u64::from(CLIENT_MAX_ATTEMPTS));
        assert_eq!(stats.exhausted, 1);
        assert_eq!(stats.served, 0);
    }

    /// The fleet contract, row by row, on the loopback and on sockets:
    /// what the drills script against a [`Fabric`] behaves the same on
    /// either transport.
    #[test]
    fn fabric_contract_holds_on_both_transports() {
        for tcp in [false, true] {
            let nodes: Vec<Arc<ShardNode>> = (0..3u32)
                .map(|id| Arc::new(ShardNode::start(id, small_config())))
                .collect();
            let kept = Arc::clone(&nodes[0]);
            let mut fabric = Fabric::start_over(tcp, nodes);
            assert_eq!(fabric.loopback().is_none(), tcp);

            // Serves, and replicates, over the conduit.
            let reqs: Vec<CompileRequest> =
                (0..6).map(|m| request(5, &format!("Row{m}"))).collect();
            for resp in &fabric.router().serve_batch(&reqs) {
                assert!(resp.outcome().expect("served over the conduit").ok);
            }
            fabric.router().flush();
            assert!(
                fabric.router().stats().ships > 0,
                "tcp={tcp}: replication runs over this transport too"
            );

            // partition -> evicted in exactly two ticks.
            fabric.partition(1, true);
            assert!(fabric.router().heartbeat_tick().is_empty(), "tcp={tcp}");
            assert_eq!(fabric.router().health(1), HealthState::Suspect);
            assert_eq!(fabric.router().heartbeat_tick(), vec![1], "tcp={tcp}");
            assert_eq!(fabric.router().health(1), HealthState::Evicted);
            assert_eq!(fabric.router().live_shards(), vec![0, 2]);

            // heal -> admit_shard -> Alive.
            fabric.partition(1, false);
            assert!(fabric.router().admit_shard(1), "tcp={tcp}");
            assert_eq!(fabric.router().health(1), HealthState::Alive);
            assert_eq!(fabric.router().live_shards(), vec![0, 1, 2]);

            // A late joiner serves the keys the ring hands it.
            let joiner = Arc::new(ShardNode::start(7, small_config()));
            fabric.join(Arc::clone(&joiner));
            assert!(fabric.router().admit_shard(7), "tcp={tcp}");
            let ring = HashRing::new(&[0, 1, 2, 7], DEFAULT_VNODES);
            let for_joiner = (0..200)
                .map(|i| request(6, &format!("Late{i}")))
                .find(|r| ring.route(r.fingerprint()) == Some(7))
                .expect("some module routes to the joiner");
            assert!(fabric.router().serve(&for_joiner).outcome().is_some());
            assert_eq!(
                joiner.stats().compiles,
                1,
                "tcp={tcp}: the joiner compiled it"
            );

            // Cutting conduit A leaves conduit B answering.
            let b = fabric.open_conduit();
            let router_b = FabricRouter::new(b.transport());
            for shard in [0, 1, 2, 7] {
                fabric.partition(shard, true);
            }
            let probe = request(8, "AcrossB");
            assert!(
                fabric.router().serve(&probe).outcome().is_none(),
                "tcp={tcp}: conduit A is cut from every shard"
            );
            assert!(
                router_b.serve(&probe).outcome().expect("served over B").ok,
                "tcp={tcp}"
            );

            // Dropping the fleet stops its servers: no port listens and
            // no connection thread still holds a shard.
            let addrs: Vec<_> = fabric.servers.iter().map(TcpShardServer::addr).collect();
            assert_eq!(addrs.len(), if tcp { 4 } else { 0 });
            drop((fabric, router_b, b));
            for addr in addrs {
                assert!(
                    std::net::TcpStream::connect(addr).is_err(),
                    "a shard server outlived its fleet"
                );
            }
            assert_eq!(Arc::strong_count(&kept), 1, "tcp={tcp}: a shard leaked");
        }
    }
}
