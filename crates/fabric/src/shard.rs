//! A shard: one [`CompileService`] behind a `CCM2WIRE` frame handler,
//! plus the replicas of its peers' stores.
//!
//! A shard is deliberately passive — it answers frames and never
//! initiates traffic — but it says when it has something to ship: its
//! store queues every mutation ([`MemStore::retain_deltas`]), and every
//! [`Message::Outcome`] carries `unshipped`, the queue's length. The
//! leading router's shipper (see `crate::router`) answers a non-zero
//! count with a [`Message::Sync`], which drains the queue into one
//! `CCM2DELT` batch ([`MemStore::drain_deltas`]), and fans that batch
//! out to the surviving peers as [`Message::DeltaShip`] frames. Each
//! peer applies the batch to its replica of the origin's store, a
//! [`MemStore`] under the peer's own store budget
//! ([`MemStore::apply_delta`]). The origin queues its evictions before
//! each insert, so under equal budgets a replica that has seen every
//! batch holds exactly the origin's entries, and never more than one
//! store's worth of bytes. The replica is pure potential energy until
//! the origin dies, at which point [`Message::Absorb`] imports it into
//! the survivor's own store — the path a pushed [`Message::Image`] takes
//! — so re-routed requests warm-hit instead of recompiling.
//!
//! Replication is warmth, not truth: the store is content-addressed, so
//! an imported entry can never corrupt one (same fingerprint ⇒ same
//! bytes), and a lost batch merely costs a recompile. So a replica is a
//! cache of its origin's store, not a mirror of its history: a batch
//! carries no position, and a replica applies every batch that reaches
//! it — the first after a late start (a joiner warmed from images, a
//! survivor that absorbed an earlier replica, a restarted shard or a
//! restarted origin) like any other. Delivery is at-least-once, and a
//! batch applied twice leaves what one application leaves. An origin's
//! batches reach a peer in the order they were cut — one shipper per
//! router, and only the lease holder pulls — which is what lets a
//! replica hold exactly its origin's entries rather than a superset.
//!
//! With a durable directory attached ([`ShardNode::with_durable_replicas`])
//! each replica is kept as a `ccm2_serve::SnapshotStore` image
//! (`CCM2SNAP`) in a subdirectory per origin, rewritten after every
//! batch, so a crash between ship and absorb loses no replica entry.
//!
//! # The eviction lease
//!
//! A shard honors one lease, and the rules for it are [`crate::lease`]'s
//! (the table is there): [`Message::LeaseGrant`] is [`Lease::grant`],
//! [`Message::LeaseRenew`] and the `(router, epoch)` stamp on every
//! membership-changing frame (`Absorb`, a pushed `Image`, a `DeltaShip`
//! fan-out) are [`Lease::admit`], [`Message::Ping`] is
//! [`Lease::probed`]. A refused frame takes no effect and is answered
//! [`Message::EpochReject`]. What is left here is framing and counters.
//!
//! [`Message::Sync`] stays unleased: it only *exports* deltas, and
//! replication is warmth, not truth. Only a router that believes it
//! holds the lease sends one; if it is wrong, that costs one batch of
//! warmth (its fan-out of the batch is epoch-rejected, which is how it
//! learns to demote).

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ccm2_incr::{decode_delta, encode_delta, MemStore};
use ccm2_serve::{CompileService, ServeConfig, SnapshotStore};
use ccm2_support::hash::Fp128;
use parking_lot::Mutex;

use crate::lease::{Lease, LeaseView};
use crate::wire::{decode_frame, encode_frame, Message, WireOutcome, NO_ROUTER};

/// Counters for one shard's frame traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Compile frames rejected at admission (queue full).
    pub rejects: u64,
    /// Frames (or delta batches) that failed checksum/format validation.
    pub bad_frames: u64,
    /// Sync frames answered with a non-empty delta batch.
    pub ships: u64,
    /// Replica entries imported into the local store by `Absorb` frames.
    pub absorbed_entries: u64,
    /// Heartbeat probes answered.
    pub pings: u64,
    /// Entries imported from pushed `Image` frames (a joiner's warm-up).
    pub imported_entries: u64,
    /// Replica images written to the attached durable directory.
    pub replica_saves: u64,
    /// Lease grants honored ([`Message::LeaseGrant`] at a new epoch).
    pub lease_grants: u64,
    /// Lease renewals honored (age reset to zero).
    pub lease_renews: u64,
    /// Stale-stamped frames refused with [`Message::EpochReject`]
    /// (grants, renews, and membership-changing control frames).
    pub epoch_rejects: u64,
}

struct ShardState {
    /// Each peer's store as this shard holds it, by origin.
    replicas: HashMap<u32, Arc<MemStore>>,
    stats: ShardStats,
    /// The eviction lease this shard honors, with its grant ledger.
    lease: Lease,
}

/// One fleet member: a shard id, its compile service, and the
/// replication state described in the module docs.
pub struct ShardNode {
    id: u32,
    svc: CompileService,
    state: Mutex<ShardState>,
    /// The directory of replica images, one subdirectory per origin.
    durable: Option<PathBuf>,
    /// Serialises replica changes with their images: held from a
    /// batch's (or an absorb's) change until its image is written, so
    /// the newest image of an origin on disk is of its newest replica.
    replica_gate: Mutex<()>,
}

/// The image subdirectory of `origin`'s replica under `dir`.
fn replica_dir(dir: &Path, origin: u32) -> PathBuf {
    dir.join(format!("origin-{origin}"))
}

impl ShardNode {
    /// Starts a fresh shard with its own service.
    pub fn start(id: u32, config: ServeConfig) -> ShardNode {
        ShardNode::from_service(id, CompileService::start(config))
    }

    /// Wraps an existing service (e.g. one restored from a snapshot) as
    /// shard `id`. From here on the store queues its mutations for
    /// [`Message::Sync`] to drain: what it held before the wrap is the
    /// snapshot's business, not replication's.
    pub fn from_service(id: u32, svc: CompileService) -> ShardNode {
        svc.store().retain_deltas();
        ShardNode {
            id,
            svc,
            state: Mutex::new(ShardState {
                replicas: HashMap::new(),
                stats: ShardStats::default(),
                lease: Lease::default(),
            }),
            durable: None,
            replica_gate: Mutex::new(()),
        }
    }

    /// Keeps this shard's replicas under `dir`: each origin's newest
    /// valid image there becomes its replica (so a restarted shard comes
    /// back holding what it held for its peers), and from now on every
    /// batch and absorb rewrites the origin's image through the
    /// crash-atomic `CCM2SNAP` path.
    pub fn with_durable_replicas(mut self, dir: impl Into<PathBuf>) -> io::Result<ShardNode> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let budget = self.replica_budget();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let origin = name.to_str().and_then(|n| n.strip_prefix("origin-"));
            let Some(origin) = origin.and_then(|id| id.parse().ok()) else {
                continue;
            };
            if let Some(image) = SnapshotStore::new(entry.path())?.load_latest()?.image {
                let replica = MemStore::with_budget(budget);
                replica.import(image.entries);
                self.state
                    .get_mut()
                    .replicas
                    .insert(origin, Arc::new(replica));
            }
        }
        self.durable = Some(dir);
        Ok(self)
    }

    /// A replica's budget: this shard's own store budget.
    fn replica_budget(&self) -> u64 {
        self.svc.store().stats().budget
    }

    /// Writes `origin`'s replica image if a durable directory is
    /// attached, or removes it once the replica is gone. The caller holds
    /// the replica gate; the write happens outside the shard lock so
    /// frame traffic keeps flowing.
    fn persist(&self, origin: u32) {
        let Some(dir) = &self.durable else { return };
        let dir = replica_dir(dir, origin);
        let replica = self.state.lock().replicas.get(&origin).cloned();
        match replica {
            Some(store) => {
                let saved = SnapshotStore::new(&dir).and_then(|images| images.save(&store));
                if saved.is_ok() {
                    self.state.lock().stats.replica_saves += 1;
                }
            }
            None => {
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    /// This shard's fleet id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The underlying service (drills snapshot and inspect through this).
    pub fn service(&self) -> &CompileService {
        &self.svc
    }

    /// Frame-traffic counters.
    pub fn stats(&self) -> ShardStats {
        self.state.lock().stats
    }

    /// The fingerprints this shard holds for peer `origin`, sorted
    /// (drill assertions).
    pub fn replica_fingerprints(&self, origin: u32) -> Vec<Fp128> {
        let replica = self.state.lock().replicas.get(&origin).cloned();
        replica.map_or_else(Vec::new, |r| r.fingerprints())
    }

    /// This shard's current lease view.
    pub fn lease(&self) -> LeaseView {
        self.state.lock().lease.view()
    }

    /// Every `(epoch, router)` lease actually granted, in grant order.
    /// The split-brain drills assert no epoch appears twice.
    pub fn lease_grants(&self) -> Vec<(u64, u32)> {
        self.state.lock().lease.grants().to_vec()
    }

    /// One lease transition under the shard lock, counted either way:
    /// `honored` on acceptance, and on refusal the `Err` is the
    /// [`Message::EpochReject`] to answer with.
    fn lease_step(
        &self,
        step: impl FnOnce(&mut Lease) -> Result<(), LeaseView>,
        honored: impl FnOnce(&mut ShardStats),
    ) -> Result<(), Message> {
        let mut state = self.state.lock();
        match step(&mut state.lease) {
            Ok(()) => {
                honored(&mut state.stats);
                Ok(())
            }
            Err(held) => {
                state.stats.epoch_rejects += 1;
                Err(Message::EpochReject {
                    epoch: held.epoch,
                    router: held.holder,
                })
            }
        }
    }

    /// Checks a membership-changing frame's stamp before it takes effect.
    fn admit(&self, router: u32, epoch: u64) -> Result<(), Message> {
        self.lease_step(|lease| lease.admit(router, epoch), |_| {})
    }

    /// Handles one frame and returns the response frame. Never panics
    /// on wire input: anything malformed is answered with a
    /// [`Message::Reject`] so the router can retry or fail over.
    pub fn handle(&self, frame: &[u8]) -> Vec<u8> {
        let Some(msg) = decode_frame(frame) else {
            self.state.lock().stats.bad_frames += 1;
            return encode_frame(&Message::Reject {
                reason: "bad frame".into(),
                retry_after_ms: 0,
            });
        };
        encode_frame(&self.answer(msg).unwrap_or_else(|reject| reject))
    }

    /// The reply to `msg`; `Err` is the refusal of a stale stamp, sent
    /// in the reply's place.
    fn answer(&self, msg: Message) -> Result<Message, Message> {
        Ok(match msg {
            Message::Compile(wire_req) => self.compile(wire_req),
            Message::Sync => self.sync(),
            Message::DeltaShip {
                from_shard,
                batch,
                router,
                epoch,
            } => {
                self.admit(router, epoch)?;
                self.receive_ship(from_shard, &batch)
            }
            Message::Absorb {
                dead_shard,
                router,
                epoch,
            } => {
                self.admit(router, epoch)?;
                self.absorb(dead_shard)
            }
            Message::Ping { nonce } => {
                let mut state = self.state.lock();
                state.stats.pings += 1;
                let lease = state.lease.probed();
                Message::Pong {
                    shard: self.id,
                    nonce,
                    lease_epoch: lease.epoch,
                    lease_router: lease.holder,
                    lease_age: lease.age,
                }
            }
            Message::LeaseGrant { router, epoch } => {
                self.lease_step(|l| l.grant(router, epoch), |s| s.lease_grants += 1)?;
                Message::Ack
            }
            Message::LeaseRenew { router, epoch } => {
                self.lease_step(|l| l.admit(router, epoch), |s| s.lease_renews += 1)?;
                Message::Ack
            }
            Message::FetchImage => self.serve_image(),
            Message::Image {
                entries,
                router,
                epoch,
            } => {
                self.admit(router, epoch)?;
                self.import_image(entries)
            }
            Message::Outcome { .. }
            | Message::Reject { .. }
            | Message::Ack
            | Message::Pong { .. }
            | Message::AbsorbDone { .. }
            | Message::EpochReject { .. } => Message::Reject {
                reason: "unexpected message kind".into(),
                retry_after_ms: 0,
            },
        })
    }

    /// Submits once. A shed is answered at once with the service's hint;
    /// the caller that was shed owns the retry.
    fn compile(&self, wire_req: crate::wire::WireRequest) -> Message {
        let submission = self.svc.submit(wire_req.into_request());
        let Some(ticket) = submission.ticket() else {
            self.state.lock().stats.rejects += 1;
            return Message::Reject {
                reason: "not admitted: queue full".into(),
                retry_after_ms: self.svc.shed_hint_ms(),
            };
        };
        let out = ticket.wait();
        // Read after the compile's inserts: a delta this answer does not
        // count was drained by a sync, or a later answer counts it.
        Message::Outcome {
            outcome: WireOutcome::from_outcome(&out),
            unshipped: self.svc.store().pending_deltas() as u64,
        }
    }

    fn sync(&self) -> Message {
        let ops = self.svc.store().drain_deltas();
        if !ops.is_empty() {
            self.state.lock().stats.ships += 1;
        }
        // A sync *answer* carries no authority: the router re-stamps
        // the batch with its own lease before fanning it out.
        Message::DeltaShip {
            from_shard: self.id,
            batch: encode_delta(&ops),
            router: NO_ROUTER,
            epoch: 0,
        }
    }

    fn receive_ship(&self, from_shard: u32, batch: &[u8]) -> Message {
        let Some(ops) = decode_delta(batch) else {
            self.state.lock().stats.bad_frames += 1;
            return Message::Reject {
                reason: "bad delta batch".into(),
                retry_after_ms: 0,
            };
        };
        let budget = self.replica_budget();
        let _gate = self.replica_gate.lock();
        let replica = Arc::clone(
            (self.state.lock().replicas.entry(from_shard))
                .or_insert_with(|| Arc::new(MemStore::with_budget(budget))),
        );
        replica.apply_delta(ops);
        self.persist(from_shard);
        Message::Ack
    }

    fn absorb(&self, dead_shard: u32) -> Message {
        let _gate = self.replica_gate.lock();
        let replica = self.state.lock().replicas.remove(&dead_shard);
        let entries = replica.map_or_else(Vec::new, |replica| replica.export());
        let applied = entries.len() as u64;
        self.svc.store().import(entries);
        self.state.lock().stats.absorbed_entries += applied;
        self.persist(dead_shard);
        Message::AbsorbDone { applied }
    }

    fn serve_image(&self) -> Message {
        // Export under the store's own lock: a consistent cut of the
        // entries, coldest first. An image *answer* is data, not
        // authority (cf. sync answers).
        Message::Image {
            entries: self.svc.store().export(),
            router: NO_ROUTER,
            epoch: 0,
        }
    }

    fn import_image(&self, entries: Vec<(Fp128, Vec<u8>)>) -> Message {
        let imported = entries.len() as u64;
        self.svc.store().import(entries);
        self.state.lock().stats.imported_entries += imported;
        Message::Ack
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccm2_incr::DeltaOp;
    use ccm2_serve::CompileRequest;

    fn fp(n: u64) -> Fp128 {
        Fp128 { hi: n, lo: !n }
    }

    fn tiny_config() -> ServeConfig {
        ServeConfig {
            workers: 1,
            queue_capacity: 4,
            store_budget: 64 * 1024,
            ..ServeConfig::default()
        }
    }

    fn ship_frame(from_shard: u32, ops: &[DeltaOp]) -> Vec<u8> {
        encode_frame(&Message::DeltaShip {
            from_shard,
            batch: encode_delta(ops),
            router: 0,
            epoch: 0,
        })
    }

    fn absorb_frame(dead_shard: u32) -> Vec<u8> {
        encode_frame(&Message::Absorb {
            dead_shard,
            router: 0,
            epoch: 0,
        })
    }

    fn bad_frame_reject() -> Message {
        Message::Reject {
            reason: "bad frame".into(),
            retry_after_ms: 0,
        }
    }

    fn inserts(range: std::ops::Range<u64>) -> Vec<DeltaOp> {
        range
            .map(|i| DeltaOp::Insert {
                fp: fp(i),
                bytes: vec![i as u8; 4],
            })
            .collect()
    }

    fn reply(node: &ShardNode, frame: &[u8]) -> Message {
        decode_frame(&node.handle(frame)).expect("shard replies validly")
    }

    /// A store budget small enough that a run of rounds evicts: only
    /// then can a replica that applied its origin's batches out of order
    /// differ from the origin (an evicted entry comes back).
    fn fleet_config() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            store_budget: 4 << 10,
            ..ServeConfig::default()
        }
    }

    fn fleet(shards: u32) -> crate::Fabric {
        let nodes = (0..shards).map(|id| Arc::new(ShardNode::start(id, fleet_config())));
        crate::Fabric::start_over(nodes.collect())
    }

    fn module(client: u64, name: &str) -> CompileRequest {
        let source = format!("MODULE {name}; VAR x: INTEGER; BEGIN x := {client}; END {name}.");
        let mut req = CompileRequest::new(client, name, source, Arc::default());
        req.exec = ccm2_serve::ExecChoice::Sim(2);
        req
    }

    /// Eight distinct modules, served side by side.
    fn serve_eight(router: &crate::FabricRouter, round: usize) {
        let batch: Vec<CompileRequest> = (0..8)
            .map(|m| module(m, &format!("Order{round}x{m}")))
            .collect();
        for response in router.serve_batch(&batch) {
            assert!(response.outcome().expect("an idle fleet sheds nothing").ok);
        }
    }

    /// Every origin's queue is drained, and every peer's replica of it
    /// holds exactly the origin's entries: its fingerprints and its
    /// bytes. Returns the ops the origins' stores have queued since the
    /// fleet started (each an insertion, an eviction or a quarantine).
    fn assert_replicated_to_the_edge(nodes: &[Arc<ShardNode>], when: &str) -> u64 {
        let mut queued = 0;
        let held = |store: &MemStore| (store.fingerprints(), store.stats().bytes_in_use);
        for origin in nodes {
            let store = origin.service().store();
            let stats = store.stats();
            queued += stats.insertions + stats.evictions + stats.quarantined;
            assert_eq!(store.pending_deltas(), 0, "{when}: origin {}", origin.id);
            for peer in nodes.iter().filter(|peer| peer.id != origin.id) {
                let state = peer.state.lock();
                let seen = state.replicas.get(&origin.id).map(|r| held(r));
                let (peer, origin) = (peer.id, origin.id);
                assert_eq!(
                    seen.unwrap_or_default(),
                    held(store),
                    "{when}: shard {peer}'s replica of origin {origin}"
                );
            }
        }
        queued
    }

    /// Requests served side by side mark their shards dirty side by
    /// side; two batches of one origin must reach a peer in the order
    /// the origin cut them, or an entry the later batch evicts comes back
    /// with the earlier one and the replica is no longer its origin's
    /// store.
    #[test]
    fn batches_of_one_origin_reach_its_peers_in_order() {
        let fabric = fleet(3);
        for round in 0..40 {
            serve_eight(fabric.router(), round);
        }
        fabric.router().flush();
        assert_replicated_to_the_edge(fabric.nodes(), "after 40 rounds");
    }

    /// Order and completeness, searched: after every round of eight
    /// concurrent compiles and a `flush`, every delta of every origin has
    /// reached every peer's replica, once and in order — so the replica
    /// holds what its origin holds — and the router shipped exactly what
    /// the stores queued. Two shippers would reorder an
    /// origin's batches; a dirty mark cleared after its pull instead of
    /// before would lose the compile that landed mid-pull, and `flush`
    /// would return with that delta still in its origin's queue.
    #[test]
    fn every_delta_reaches_every_peer_once_and_in_order() {
        // A fresh fleet every so often searches the start-up again.
        const ROUNDS_PER_FLEET: usize = 100;
        let fleets = if cfg!(debug_assertions) { 1 } else { 20 };
        for _ in 0..fleets {
            let fabric = fleet(3);
            let mut queued = 0;
            for round in 0..ROUNDS_PER_FLEET {
                serve_eight(fabric.router(), round);
                fabric.router().flush();
                queued = assert_replicated_to_the_edge(fabric.nodes(), &format!("round {round}"));
            }
            assert_eq!(fabric.router().stats().shipped_ops, queued);
        }
    }

    /// A standby serves traffic — it is what a client falls back to when
    /// its router dies before the standby has promoted — but it must not
    /// pull: its stamp cannot deliver the batch, and the ops its sync
    /// drained would be lost to every peer's replica. What its requests
    /// leave behind goes out with the leader's next batch.
    #[test]
    fn a_standby_that_serves_traffic_leaves_its_deltas_to_the_leader() {
        let fabric = fleet(2);
        let leader = crate::FabricRouter::new(fabric.transport().clone()).with_identity(1);
        let standby = crate::FabricRouter::new(fabric.transport().clone())
            .with_identity(2)
            .as_standby();
        assert!(leader.acquire_lease());
        // Two modules for each shard in every phase, so that both origins
        // have queued deltas when the leader serves again.
        let ring = crate::HashRing::new(&[0, 1], crate::DEFAULT_VNODES);
        let phase = |tag: &str| -> Vec<CompileRequest> {
            let modules = (0..64).map(|i| module(1, &format!("{tag}{i}")));
            let (mut mine, mut theirs) = (Vec::new(), Vec::new());
            for req in modules {
                match ring.route(req.fingerprint()) {
                    Some(0) if mine.len() < 2 => mine.push(req),
                    Some(1) if theirs.len() < 2 => theirs.push(req),
                    _ => {}
                }
            }
            assert_eq!((mine.len(), theirs.len()), (2, 2));
            mine.into_iter().chain(theirs).collect()
        };
        for (router, tag) in [(&leader, "Lead"), (&standby, "Stand"), (&leader, "Again")] {
            for req in phase(tag) {
                assert!(router.serve(&req).outcome().expect("served").ok);
                router.flush();
            }
        }
        let stood = standby.stats();
        assert_eq!(standby.role(), crate::RouterRole::Standby);
        assert_eq!((stood.ships, stood.epoch_rejects), (0, 0), "it pulled");
        let queued = assert_replicated_to_the_edge(fabric.nodes(), "after the leader's last pull");
        assert_eq!(leader.stats().shipped_ops, queued);
    }

    /// Delivery is at-least-once: `TcpTransport` resends a frame whose
    /// kept stream failed, and the router resends after an error that
    /// may have come after delivery. So every frame that changes a
    /// shard's state, handled twice, must leave what handling it once
    /// leaves — replica entries, store entries and lease alike.
    #[test]
    fn every_state_changing_frame_handled_twice_leaves_what_once_leaves() {
        let (router, epoch) = (1, 2);
        let table: Vec<(&str, Message)> = vec![
            (
                "compile",
                Message::Compile(crate::wire::WireRequest::from_request(&module(3, "Twice"))),
            ),
            (
                "ship",
                Message::DeltaShip {
                    from_shard: 7,
                    batch: encode_delta(&inserts(4..6)),
                    router,
                    epoch,
                },
            ),
            (
                // Replayed again, the big entry would push one of the
                // replica's own out of its full budget before its evict.
                "ship that passes an entry through a full budget",
                Message::DeltaShip {
                    from_shard: 7,
                    batch: encode_delta(&[
                        DeltaOp::Evict { fp: fp(0) },
                        DeltaOp::Insert {
                            fp: fp(50),
                            bytes: vec![5; 64 * 1024 - 12],
                        },
                        DeltaOp::Evict { fp: fp(50) },
                        DeltaOp::Insert {
                            fp: fp(51),
                            bytes: vec![6; 4],
                        },
                    ]),
                    router,
                    epoch,
                },
            ),
            (
                "absorb",
                Message::Absorb {
                    dead_shard: 7,
                    router,
                    epoch,
                },
            ),
            (
                "image push",
                Message::Image {
                    entries: vec![(fp(100), b"one".to_vec()), (fp(101), b"two".to_vec())],
                    router,
                    epoch,
                },
            ),
            ("lease renew", Message::LeaseRenew { router, epoch }),
        ];
        // A shard with a lease and a replica of origin 7, aged by two
        // probes.
        let prepared = || {
            let node = ShardNode::start(1, tiny_config());
            let setup = [
                Message::LeaseGrant { router, epoch },
                Message::DeltaShip {
                    from_shard: 7,
                    batch: encode_delta(&inserts(0..4)),
                    router,
                    epoch,
                },
                Message::Ping { nonce: 1 },
                Message::Ping { nonce: 2 },
            ];
            for msg in &setup {
                assert!(!matches!(
                    reply(&node, &encode_frame(msg)),
                    Message::Reject { .. } | Message::EpochReject { .. }
                ));
            }
            node
        };
        let state = |node: &ShardNode| {
            let mut replicas: Vec<_> = (node.state.lock().replicas.iter())
                .map(|(origin, r)| (*origin, r.export()))
                .collect();
            replicas.sort_unstable_by_key(|r| r.0);
            (replicas, node.service().store().export(), node.lease())
        };
        for (row, msg) in &table {
            let frame = encode_frame(msg);
            let (once, twice) = (prepared(), prepared());
            let first = reply(&once, &frame);
            assert!(
                !matches!(first, Message::Reject { .. } | Message::EpochReject { .. }),
                "{row}: refused: {first:?}"
            );
            reply(&twice, &frame);
            reply(&twice, &frame);
            assert_eq!(state(&twice), state(&once), "{row}");
        }
    }

    /// A shed is answered once: one submission, one `Reject` carrying the
    /// service's hint, no resubmission on the shard.
    #[test]
    fn a_shed_compile_is_rejected_once_with_the_service_hint() {
        let node = ShardNode::start(
            1,
            ServeConfig {
                queue_capacity: 1,
                paused: true,
                ..tiny_config()
            },
        );
        let svc = node.service();
        assert!(matches!(
            svc.submit(module(1, "Queued")),
            ccm2_serve::Submission::Queued(_)
        ));
        let before = svc.stats();
        let frame = encode_frame(&Message::Compile(crate::wire::WireRequest::from_request(
            &module(2, "Shed"),
        )));
        let Message::Reject { retry_after_ms, .. } = reply(&node, &frame) else {
            panic!("a full queue must reject");
        };
        assert_eq!(retry_after_ms, svc.shed_hint_ms());
        let after = svc.stats();
        assert_eq!(
            (after.submitted - before.submitted, after.shed - before.shed),
            (1, 1),
            "the shard resubmitted a shed request"
        );
        assert_eq!(node.stats().rejects, 1);
        svc.resume();
    }

    #[test]
    fn ping_answers_pong_with_id_nonce_and_lease_view() {
        let node = ShardNode::start(4, tiny_config());
        let reply = reply(&node, &encode_frame(&Message::Ping { nonce: 99 }));
        assert_eq!(
            reply,
            Message::Pong {
                shard: 4,
                nonce: 99,
                lease_epoch: 0,
                lease_router: NO_ROUTER,
                lease_age: 1,
            }
        );
        assert_eq!(node.stats().pings, 1);
    }

    #[test]
    fn lease_grant_renew_and_stale_epoch_rejection() {
        let node = ShardNode::start(1, tiny_config());
        // First grant at epoch 1 from router 0.
        assert_eq!(
            reply(
                &node,
                &encode_frame(&Message::LeaseGrant {
                    router: 0,
                    epoch: 1
                })
            ),
            Message::Ack
        );
        assert_eq!(
            node.lease(),
            LeaseView {
                epoch: 1,
                holder: 0,
                age: 0
            }
        );
        // Re-granting the *same* epoch — even by the holder — is
        // refused: an epoch number is granted at most once.
        assert_eq!(
            reply(
                &node,
                &encode_frame(&Message::LeaseGrant {
                    router: 0,
                    epoch: 1
                })
            ),
            Message::EpochReject {
                epoch: 1,
                router: 0
            }
        );
        // Pings age the lease; the holder's renew resets it.
        for _ in 0..3 {
            reply(&node, &encode_frame(&Message::Ping { nonce: 5 }));
        }
        assert_eq!(node.lease().age, 3);
        assert_eq!(
            reply(
                &node,
                &encode_frame(&Message::LeaseRenew {
                    router: 0,
                    epoch: 1
                })
            ),
            Message::Ack
        );
        assert_eq!(node.lease().age, 0);
        // A stranger's renew at the current epoch bounces.
        assert_eq!(
            reply(
                &node,
                &encode_frame(&Message::LeaseRenew {
                    router: 9,
                    epoch: 1
                })
            ),
            Message::EpochReject {
                epoch: 1,
                router: 0
            }
        );
        // A newer epoch takes over (router 1 won a later election).
        assert_eq!(
            reply(
                &node,
                &encode_frame(&Message::LeaseGrant {
                    router: 1,
                    epoch: 2
                })
            ),
            Message::Ack
        );
        assert_eq!(node.lease().holder, 1);
        assert_eq!(node.lease_grants(), vec![(1, 0), (2, 1)]);
        let stats = node.stats();
        assert_eq!(stats.lease_grants, 2);
        assert_eq!(stats.lease_renews, 1);
        assert_eq!(stats.epoch_rejects, 2);
    }

    #[test]
    fn stale_epoch_control_frames_are_refused_without_effect() {
        let node = ShardNode::start(2, tiny_config());
        // Router 1 holds epoch 2.
        assert_eq!(
            reply(
                &node,
                &encode_frame(&Message::LeaseGrant {
                    router: 1,
                    epoch: 2
                })
            ),
            Message::Ack
        );
        // Replicate some entries under the live leader so a double-absorb
        // would have something to steal.
        let live_ship = encode_frame(&Message::DeltaShip {
            from_shard: 7,
            batch: encode_delta(&inserts(0..4)),
            router: 1,
            epoch: 2,
        });
        assert_eq!(reply(&node, &live_ship), Message::Ack);
        assert_eq!(node.replica_fingerprints(7).len(), 4);

        // The partitioned ex-leader (router 0, epoch 1) tries every
        // membership-changing frame it has. All bounce, nothing moves.
        let reject = Message::EpochReject {
            epoch: 2,
            router: 1,
        };
        assert_eq!(
            reply(
                &node,
                &encode_frame(&Message::Absorb {
                    dead_shard: 7,
                    router: 0,
                    epoch: 1
                })
            ),
            reject,
            "stale absorb must not import the replica"
        );
        assert_eq!(
            node.replica_fingerprints(7).len(),
            4,
            "the replica is untouched"
        );
        assert_eq!(
            reply(
                &node,
                &encode_frame(&Message::DeltaShip {
                    from_shard: 9,
                    batch: encode_delta(&inserts(0..2)),
                    router: 0,
                    epoch: 1,
                })
            ),
            reject,
            "stale fan-out must not replicate"
        );
        assert_eq!(node.replica_fingerprints(9).len(), 0);
        assert_eq!(
            reply(
                &node,
                &encode_frame(&Message::Image {
                    entries: vec![(fp(1), b"zombie".to_vec())],
                    router: 0,
                    epoch: 1,
                })
            ),
            reject,
            "stale image push must not resurrect store bytes"
        );
        assert!(node.service().store().export().is_empty());
        assert_eq!(node.stats().epoch_rejects, 3);
        // The live leader still works.
        assert_eq!(
            reply(
                &node,
                &encode_frame(&Message::Absorb {
                    dead_shard: 7,
                    router: 1,
                    epoch: 2
                })
            ),
            Message::AbsorbDone { applied: 4 }
        );
    }

    // Satellite of the version-skew suite: a *well-formed* frame from a
    // newer protocol generation (valid checksum, future version) must
    // yield a clean Reject — the version guard, not a decode panic.
    #[test]
    fn future_version_ping_yields_clean_reject() {
        let node = ShardNode::start(1, tiny_config());
        let next = ccm2_support::envelope::Format {
            version: crate::wire::WIRE_FORMAT.version + 1,
            ..crate::wire::WIRE_FORMAT
        };
        let future = next.seal(|w| {
            w.len_prefixed(|w| {
                w.u8(8); // Ping tag
                w.u64(7);
            })
        });
        let reply = reply(&node, &future);
        assert_eq!(reply, bad_frame_reject());
        assert_eq!(node.stats().bad_frames, 1);
    }

    // The other side of the skew, and the one a fleet meets when the
    // checksum kernel changes under every format at once: today's
    // `Compile` frame with its version field set back by one and its
    // trailer recomputed. The same bytes under today's version compile.
    #[test]
    fn previous_version_compile_yields_clean_reject() {
        let node = ShardNode::start(1, tiny_config());
        let request = crate::wire::WireRequest::from_request(&module(7, "Older"));
        let mut frame = encode_frame(&Message::Compile(request));
        assert!(matches!(reply(&node, &frame), Message::Outcome { .. }));

        let previous = crate::wire::WIRE_FORMAT.version - 1;
        let trailer = frame.len() - 16;
        frame[8..12].copy_from_slice(&previous.to_le_bytes());
        let sum = Fp128::of(&frame[..trailer]);
        frame[trailer..trailer + 8].copy_from_slice(&sum.hi.to_le_bytes());
        frame[trailer + 8..].copy_from_slice(&sum.lo.to_le_bytes());
        assert_eq!(
            crate::wire::WIRE_FORMAT.open(&frame).err(),
            Some(ccm2_support::envelope::OpenError::Version { found: previous })
        );
        assert_eq!(reply(&node, &frame), bad_frame_reject());
        assert_eq!(node.stats().bad_frames, 1);
    }

    #[test]
    fn truncated_and_flipped_pings_answered_with_reject_not_panic() {
        let node = ShardNode::start(2, tiny_config());
        let frame = encode_frame(&Message::Ping { nonce: 0xDEAD });
        let mut damaged = 0u64;
        for cut in 0..frame.len() {
            assert_eq!(
                reply(&node, &frame[..cut]),
                bad_frame_reject(),
                "torn at {cut}"
            );
            damaged += 1;
        }
        for at in 0..frame.len() {
            let mut bad = frame.clone();
            bad[at] ^= 0x80;
            assert_eq!(reply(&node, &bad), bad_frame_reject(), "flip at {at}");
            damaged += 1;
        }
        assert_eq!(node.stats().bad_frames, damaged);
    }

    /// A replica is a store, not a history: however many ops its origin
    /// ships — here more than a store's own delta log keeps (8 192), each
    /// entry big enough that the budget holds an eighth of them — it
    /// holds at most its budget's worth of entries, and absorb imports
    /// them.
    #[test]
    fn a_replica_shipped_past_any_op_count_still_absorbs_within_its_budget() {
        let node = ShardNode::start(5, tiny_config());
        let budget = tiny_config().store_budget;
        let ops: Vec<DeltaOp> = (0..8192 + 16)
            .map(|i| DeltaOp::Insert {
                fp: fp(i),
                bytes: vec![i as u8; 64],
            })
            .collect();
        for ops in ops.chunks(1000) {
            assert_eq!(reply(&node, &ship_frame(9, ops)), Message::Ack);
        }
        let held = node.replica_fingerprints(9).len() as u64;
        assert_eq!(held, budget / 64, "a full budget of the newest entries");
        assert_eq!(
            reply(&node, &absorb_frame(9)),
            Message::AbsorbDone { applied: held }
        );
        let store = node.service().store().stats();
        assert_eq!((store.entries as u64, store.bytes_in_use), (held, budget));
        assert!(store.peak_bytes <= budget);
    }

    #[test]
    fn clean_replica_absorbs_and_reports_applied_entries() {
        let node = ShardNode::start(6, tiny_config());
        assert_eq!(reply(&node, &ship_frame(2, &inserts(0..3))), Message::Ack);
        let evict_and_insert = [DeltaOp::Evict { fp: fp(0) }, inserts(3..4).remove(0)];
        assert_eq!(
            reply(&node, &ship_frame(2, &evict_and_insert)),
            Message::Ack
        );
        assert_eq!(
            reply(&node, &absorb_frame(2)),
            Message::AbsorbDone { applied: 3 }
        );
        assert_eq!(node.stats().absorbed_entries, 3);
        assert_eq!(
            node.service().store().fingerprints(),
            vec![fp(1), fp(2), fp(3)]
        );
    }

    #[test]
    fn fetch_image_and_import_round_trip_between_nodes() {
        let source = ShardNode::start(1, tiny_config());
        use ccm2_incr::ArtifactStore as _;
        source.service().store().store(fp(1), b"alpha");
        source.service().store().store(fp(2), b"beta");
        let Message::Image { entries, .. } = reply(&source, &encode_frame(&Message::FetchImage))
        else {
            panic!("FetchImage must answer Image");
        };
        assert_eq!(entries.len(), 2);
        let joiner = ShardNode::start(2, tiny_config());
        assert_eq!(
            reply(
                &joiner,
                &encode_frame(&Message::Image {
                    entries,
                    router: 0,
                    epoch: 0,
                })
            ),
            Message::Ack
        );
        assert_eq!(joiner.stats().imported_entries, 2);
        assert_eq!(
            joiner.service().store().export(),
            source.service().store().export(),
            "byte-identical stores after the image ship"
        );
    }

    /// A shard's store keeps what its peers are owed and nothing else:
    /// a sync drains every queued op, and the queue keeps only what came
    /// after.
    #[test]
    fn a_sync_ships_what_is_owed_and_the_log_keeps_only_the_rest() {
        use ccm2_incr::ArtifactStore as _;
        let node = ShardNode::start(1, tiny_config());
        let store = node.service().store();
        let sync = || {
            let Message::DeltaShip { batch, .. } = reply(&node, &encode_frame(&Message::Sync))
            else {
                panic!("Sync must answer DeltaShip");
            };
            decode_delta(&batch).expect("a valid batch")
        };
        store.store(fp(1), b"alpha");
        store.store(fp(2), b"beta");
        let shipped = vec![
            DeltaOp::Insert {
                fp: fp(1),
                bytes: b"alpha".to_vec(),
            },
            DeltaOp::Insert {
                fp: fp(2),
                bytes: b"beta".to_vec(),
            },
        ];
        assert_eq!(sync(), shipped);
        assert_eq!(store.pending_deltas(), 0, "shipped ops are dropped");
        store.store(fp(3), b"gamma");
        assert_eq!(sync().len(), 1);
        assert!(sync().is_empty());
        assert_eq!(node.stats().ships, 2);
    }

    #[test]
    fn durable_replicas_survive_a_node_restart() {
        let dir = std::env::temp_dir().join(format!(
            "ccm2-shard-durable-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let durable = || {
            ShardNode::start(1, tiny_config())
                .with_durable_replicas(&dir)
                .unwrap()
        };
        let node = durable();
        assert_eq!(reply(&node, &ship_frame(0, &inserts(0..4))), Message::Ack);
        assert_eq!(node.stats().replica_saves, 1, "the ship saved the replica");
        assert_eq!(node.replica_fingerprints(0).len(), 4);
        drop(node); // crash: the replica exists only on disk now

        let revived = durable();
        assert_eq!(
            revived.replica_fingerprints(0).len(),
            4,
            "restart reloads the replica"
        );
        // The next batch adds to the restored replica, whatever its
        // origin's store went through meanwhile.
        assert_eq!(
            reply(&revived, &ship_frame(0, &inserts(4..5))),
            Message::Ack
        );
        assert_eq!(
            reply(&revived, &absorb_frame(0)),
            Message::AbsorbDone { applied: 5 },
            "a restarted shard still covers its dead peer"
        );
        assert_eq!(revived.service().store().export().len(), 5);
        assert!(
            !replica_dir(&dir, 0).exists(),
            "an absorbed replica's image"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
