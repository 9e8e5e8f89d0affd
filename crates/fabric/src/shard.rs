//! A shard: one [`CompileService`] behind a `CCM2WIRE` frame handler,
//! plus the replicas of its peers' stores.
//!
//! A shard is deliberately passive — it answers frames and never
//! initiates traffic — but it says when it has something to ship: every
//! [`Message::Outcome`] carries `unshipped`, the number of store deltas
//! past this shard's ship cursor. The leading router's shipper (see
//! `crate::router`) answers a non-zero count with a [`Message::Sync`],
//! which hands back everything accumulated since the previous sync as
//! one `CCM2DELT` batch and moves the cursor, and fans that batch out to
//! the surviving peers as [`Message::DeltaShip`] frames. Each peer
//! replays the batch into its replica of the origin's store, a
//! [`MemStore`] under the peer's own store budget
//! ([`MemStore::apply_delta`]). The origin logs its evictions before
//! each insert, so under equal budgets a replica holds exactly the
//! origin's entries, and never more than one store's worth of bytes.
//! The replica is pure potential energy until the origin dies, at which
//! point [`Message::Absorb`] imports it into the survivor's own store —
//! the path a pushed [`Message::Image`] takes — so re-routed requests
//! warm-hit instead of recompiling.
//!
//! Replication is warmth, not truth: the store is content-addressed, so
//! an imported entry can never corrupt one (same fingerprint ⇒ same
//! bytes), and a lost batch merely costs a recompile. But a *hole* in
//! the stream must not be absorbed silently: a batch that begins past
//! the replica's sequence number marks the replica **gapped**. A gapped
//! replica drops its entries at once and keeps only its sequence number;
//! [`Message::Absorb`] answers `AbsorbDone { gapped: true }` and the
//! router reconciles with a full-image ship ([`Message::FetchImage`] /
//! [`Message::Image`]) from a healthy peer instead. Delivery is
//! at-least-once, so a batch can arrive again: only its ops past the
//! replica's sequence number are replayed.
//!
//! One start is not a hole: **a shard that holds no replica of an
//! origin and is handed a batch beginning past sequence 0 met that
//! origin late** — a joiner warmed from the origin's store image (§9.7:
//! the image covers what came before its cut), a survivor that has
//! already absorbed the origin's earlier replica, or a shard restarted
//! without an image of it. The replica starts at that batch, so
//! `receive_ship` counts a gap only against a replica it already holds.
//! The rule leans on the origin's batches reaching a peer in the order
//! they were cut — one shipper per router, and only the lease holder
//! pulls — because a batch that overtook the replica's first would be
//! taken for that late start.
//!
//! With a durable directory attached ([`ShardNode::with_durable_log`])
//! each clean replica is kept as a `ccm2_serve::SnapshotStore` image
//! (`CCM2SNAP`, whose `delta_seq` is the replica's sequence number) in
//! a subdirectory per origin, rewritten after every batch, so a crash
//! between ship and absorb loses no replica entry. A gapped replica
//! leaves no image.
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

/// What a shard holds for one peer: the peer's store, rebuilt from the
/// batches it shipped, as of the store's
/// [`delta_seq`](MemStore::delta_seq) (the origin's numbering).
struct Replica {
    store: Arc<MemStore>,
    /// Batches that arrived past a hole. The first makes the replica
    /// gapped: its entries go, and absorb refuses it.
    gaps: u64,
}

impl Replica {
    /// An empty replica whose next op is the origin's `seq + 1`.
    fn at(seq: u64, budget: u64) -> Replica {
        let store = MemStore::with_budget(budget);
        store.resume_delta_seq(seq);
        Replica {
            store: Arc::new(store),
            gaps: 0,
        }
    }
}

/// Counters for one shard's frame traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Compile frames answered with an outcome.
    pub compiles: u64,
    /// Compile frames rejected at admission (queue full).
    pub rejects: u64,
    /// Frames (or delta batches) that failed checksum/format validation.
    pub bad_frames: u64,
    /// Sync frames answered with a non-empty delta batch.
    pub ships: u64,
    /// Syncs that found the store's delta history trimmed and had to
    /// reset the cursor (the peers silently miss those ops).
    pub sync_resets: u64,
    /// Entries currently held across all replicas.
    pub replica_entries: u64,
    /// Batches, across all replicas, that arrived past a hole.
    pub replica_gaps: u64,
    /// Replica entries imported into the local store by `Absorb` frames.
    pub absorbed_entries: u64,
    /// Gapped replicas discarded (not imported) at absorb.
    pub gapped_discards: u64,
    /// Heartbeat probes answered.
    pub pings: u64,
    /// `FetchImage` frames answered with a full store image.
    pub images_served: u64,
    /// Entries imported from pushed `Image` frames (join warm-up /
    /// gapped-replica reconciliation).
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
    /// Store delta sequence number up to which peers have been shipped.
    ship_cursor: u64,
    replicas: HashMap<u32, Replica>,
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
    /// shard `id`. From here on the store keeps its delta ops for
    /// [`Message::Sync`], and each sync drops what it shipped. The ship
    /// cursor starts at the store's current delta sequence: history from
    /// before the wrap is the snapshot's business, not replication's.
    pub fn from_service(id: u32, svc: CompileService) -> ShardNode {
        svc.store().retain_deltas();
        let ship_cursor = svc.store().delta_seq();
        ShardNode {
            id,
            svc,
            state: Mutex::new(ShardState {
                ship_cursor,
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
    pub fn with_durable_log(mut self, dir: impl Into<PathBuf>) -> io::Result<ShardNode> {
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
                let replica = Replica::at(image.delta_seq, budget);
                replica.store.import(&image.entries);
                self.state.get_mut().replicas.insert(origin, replica);
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
    /// attached, or removes it once the replica is gone or gapped. The
    /// caller holds the replica gate; the write happens outside the
    /// shard lock so frame traffic keeps flowing.
    fn persist(&self, origin: u32) {
        let Some(dir) = &self.durable else { return };
        let dir = replica_dir(dir, origin);
        let clean = {
            let state = self.state.lock();
            let replica = state.replicas.get(&origin).filter(|r| r.gaps == 0);
            replica.map(|r| Arc::clone(&r.store))
        };
        match clean {
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
        let state = self.state.lock();
        let mut stats = state.stats;
        for replica in state.replicas.values() {
            stats.replica_entries += replica.store.stats().entries as u64;
            stats.replica_gaps += replica.gaps;
        }
        stats
    }

    /// The entries this shard holds for peer `origin` (drill
    /// assertions).
    pub fn replica_len(&self, origin: u32) -> usize {
        let state = self.state.lock();
        let replica = state.replicas.get(&origin);
        replica.map_or(0, |r| r.store.stats().entries)
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
                self.import_image(&entries)
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
        // Read after the compile's inserts and under the lock a sync
        // moves the cursor under: a delta this answer does not count was
        // shipped, or a later answer counts it.
        let mut state = self.state.lock();
        state.stats.compiles += 1;
        let edge = self.svc.store().delta_seq();
        Message::Outcome {
            outcome: WireOutcome::from_outcome(&out),
            unshipped: edge.saturating_sub(state.ship_cursor),
        }
    }

    fn sync(&self) -> Message {
        let store = self.svc.store();
        let mut state = self.state.lock();
        let base = state.ship_cursor;
        let batch = match store.deltas_since(base) {
            Some(ops) => {
                state.ship_cursor = base + ops.len() as u64;
                if !ops.is_empty() {
                    state.stats.ships += 1;
                }
                encode_delta(base, &ops)
            }
            None => {
                // The store's bounded log overflowed past our cursor.
                // Peers miss those ops — warmth, not truth — and the
                // cursor rejoins the live edge.
                state.stats.sync_resets += 1;
                state.ship_cursor = store.delta_seq();
                encode_delta(state.ship_cursor, &[])
            }
        };
        // Shipped ops are owed to nobody: the log keeps only the rest.
        store.truncate_deltas(state.ship_cursor);
        // A sync *answer* carries no authority: the router re-stamps
        // the batch with its own lease before fanning it out.
        Message::DeltaShip {
            from_shard: self.id,
            batch,
            router: NO_ROUTER,
            epoch: 0,
        }
    }

    fn receive_ship(&self, from_shard: u32, batch: &[u8]) -> Message {
        let Some((base, ops)) = decode_delta(batch) else {
            self.state.lock().stats.bad_frames += 1;
            return Message::Reject {
                reason: "bad delta batch".into(),
                retry_after_ms: 0,
            };
        };
        let end = base.saturating_add(ops.len() as u64);
        let budget = self.replica_budget();
        let _gate = self.replica_gate.lock();
        {
            let mut state = self.state.lock();
            let replica = state
                .replicas
                .entry(from_shard)
                .or_insert_with(|| Replica::at(base, budget));
            let seq = replica.store.delta_seq();
            if base > seq {
                // Ops are missing: what the replica holds is no longer
                // the origin's store, and absorb will refuse it.
                replica.gaps += 1;
                replica.store = Arc::new(MemStore::with_budget(budget));
            }
            if replica.gaps == 0 {
                // Ops up to `seq` were replayed when first delivered.
                let fresh = ops.into_iter().skip((seq - base) as usize);
                replica.store.apply_delta(fresh.collect());
            }
            replica.store.resume_delta_seq(seq.max(end));
        }
        self.persist(from_shard);
        Message::Ack
    }

    fn absorb(&self, dead_shard: u32) -> Message {
        let _gate = self.replica_gate.lock();
        let replica = self.state.lock().replicas.remove(&dead_shard);
        let (applied, gapped) = match replica {
            Some(replica) if replica.gaps > 0 => {
                // The hole would pass for the origin's whole store. Tell
                // the router, which reconciles with a full image.
                self.state.lock().stats.gapped_discards += 1;
                (0, true)
            }
            Some(replica) => {
                let entries = replica.store.export();
                self.svc.store().import(&entries);
                let applied = entries.len() as u64;
                self.state.lock().stats.absorbed_entries += applied;
                (applied, false)
            }
            None => (0, false),
        };
        self.persist(dead_shard);
        Message::AbsorbDone { applied, gapped }
    }

    fn serve_image(&self) -> Message {
        let store = self.svc.store();
        // Export under the store's own lock: a consistent cut of the
        // entries, coldest first.
        let entries = store.export();
        self.state.lock().stats.images_served += 1;
        // An image *answer* is data, not authority (cf. sync answers).
        Message::Image {
            entries,
            router: NO_ROUTER,
            epoch: 0,
        }
    }

    fn import_image(&self, entries: &[(Fp128, Vec<u8>)]) -> Message {
        self.svc.store().import(entries);
        self.state.lock().stats.imported_entries += entries.len() as u64;
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

    fn ship_frame(from_shard: u32, base: u64, ops: &[DeltaOp]) -> Vec<u8> {
        encode_frame(&Message::DeltaShip {
            from_shard,
            batch: encode_delta(base, ops),
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

    fn fleet_config() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            store_budget: 1 << 20,
            ..ServeConfig::default()
        }
    }

    fn fleet(tcp: bool, shards: u32) -> crate::Fabric {
        let nodes = (0..shards).map(|id| Arc::new(ShardNode::start(id, fleet_config())));
        crate::Fabric::start_over(tcp, nodes.collect())
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

    /// Every peer's replica of every origin has replayed every op the
    /// origin's store has logged since the fleet started, up to the
    /// store's edge, never saw a hole, and holds exactly the origin's
    /// entries: its fingerprints and its bytes. Returns the sum of those
    /// edges.
    fn assert_replicated_to_the_edge(nodes: &[Arc<ShardNode>], when: &str) -> u64 {
        let mut edges = 0;
        let held = |store: &MemStore| (store.fingerprints(), store.stats().bytes_in_use);
        for origin in nodes {
            let store = origin.service().store();
            let edge = store.delta_seq();
            edges += edge;
            for peer in nodes.iter().filter(|peer| peer.id != origin.id) {
                let state = peer.state.lock();
                let seen = state.replicas.get(&origin.id).map_or_else(
                    || (0, 0, (Vec::new(), 0)),
                    |r| (r.store.delta_seq(), r.gaps, held(&r.store)),
                );
                let (peer, origin) = (peer.id, origin.id);
                assert_eq!(
                    seen,
                    (edge, 0, held(store)),
                    "{when}: shard {peer}'s replica of origin {origin}"
                );
            }
        }
        edges
    }

    /// Requests served side by side mark their shards dirty side by
    /// side; two batches of one origin must reach a peer in the order
    /// the origin cut them, or the peer's replica reads the later one as
    /// a gap and is lost to failover.
    #[test]
    fn batches_of_one_origin_reach_its_peers_in_order() {
        let fabric = fleet(true, 3);
        for round in 0..40 {
            serve_eight(fabric.router(), round);
        }
        fabric.router().flush();
        assert_replicated_to_the_edge(fabric.nodes(), "tcp");
    }

    /// Order and completeness, searched: after every round of eight
    /// concurrent compiles and a `flush`, every delta of every origin has
    /// reached every peer's replica, once and in order — so the replica
    /// holds what its origin holds — and the router shipped exactly what
    /// the stores logged. Two shippers would reorder an
    /// origin's batches; a dirty mark cleared after its pull instead of
    /// before would lose the compile that landed mid-pull, and `flush`
    /// would return with that delta still behind the cursor.
    #[test]
    fn every_delta_reaches_every_peer_once_and_in_order() {
        // A fresh fleet every so often searches the start-up again.
        const ROUNDS_PER_FLEET: usize = 100;
        let fleets = if cfg!(debug_assertions) { 1 } else { 20 };
        for tcp in [false, true] {
            for _ in 0..fleets {
                let fabric = fleet(tcp, 3);
                let mut edges = 0;
                for round in 0..ROUNDS_PER_FLEET {
                    serve_eight(fabric.router(), round);
                    fabric.router().flush();
                    let when = format!("tcp={tcp}, round {round}");
                    edges = assert_replicated_to_the_edge(fabric.nodes(), &when);
                }
                assert_eq!(fabric.router().stats().shipped_ops, edges, "tcp={tcp}");
            }
        }
    }

    /// A standby serves traffic — it is what a client falls back to when
    /// its router dies before the standby has promoted — but it must not
    /// pull: its stamp cannot deliver the batch, and the cursor it moved
    /// would leave a hole in every peer's replica under the leader's next
    /// batch. What its requests leave behind goes out with that batch.
    #[test]
    fn a_standby_that_serves_traffic_leaves_its_deltas_to_the_leader() {
        let fabric = fleet(false, 2);
        let leader = crate::FabricRouter::new(fabric.conduit().transport()).with_identity(1);
        let standby = crate::FabricRouter::new(fabric.conduit().transport())
            .with_identity(2)
            .as_standby();
        assert!(leader.acquire_lease());
        // Two modules for each shard in every phase, so that both origins
        // have deltas past their cursors when the leader serves again.
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
        let edges = assert_replicated_to_the_edge(fabric.nodes(), "after the leader's last pull");
        assert_eq!(leader.stats().shipped_ops, edges);
    }

    /// Delivery is at-least-once: `TcpTransport` resends a frame whose
    /// kept stream failed, and the router resends after an error that
    /// may have come after delivery. So every frame that changes a
    /// shard's state, handled twice, must leave what handling it once
    /// leaves — replicas (sequence number, gaps and entries), store
    /// entries and lease alike.
    #[test]
    fn every_state_changing_frame_handled_twice_leaves_what_once_leaves() {
        let (router, epoch) = (1, 2);
        let table: Vec<(&str, Message)> = vec![
            (
                "compile",
                Message::Compile(crate::wire::WireRequest::from_request(&module(3, "Twice"))),
            ),
            (
                "contiguous ship",
                Message::DeltaShip {
                    from_shard: 7,
                    batch: encode_delta(4, &inserts(4..6)),
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
                    batch: encode_delta(
                        4,
                        &[
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
                        ],
                    ),
                    router,
                    epoch,
                },
            ),
            (
                "ship past a hole",
                Message::DeltaShip {
                    from_shard: 7,
                    batch: encode_delta(9, &inserts(9..11)),
                    router,
                    epoch,
                },
            ),
            (
                "absorb of a clean replica",
                Message::Absorb {
                    dead_shard: 7,
                    router,
                    epoch,
                },
            ),
            (
                "absorb of a gapped replica",
                Message::Absorb {
                    dead_shard: 8,
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
        // A shard with a lease, a clean replica of origin 7 and a gapped
        // one of origin 8, aged by two probes.
        let prepared = || {
            let node = ShardNode::start(1, tiny_config());
            let setup = [
                Message::LeaseGrant { router, epoch },
                Message::DeltaShip {
                    from_shard: 7,
                    batch: encode_delta(0, &inserts(0..4)),
                    router,
                    epoch,
                },
                Message::DeltaShip {
                    from_shard: 8,
                    batch: encode_delta(0, &inserts(20..22)),
                    router,
                    epoch,
                },
                Message::DeltaShip {
                    from_shard: 8,
                    batch: encode_delta(5, &inserts(25..26)),
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
                .map(|(origin, r)| (*origin, r.store.delta_seq(), r.gaps, r.store.export()))
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
            batch: encode_delta(0, &inserts(0..4)),
            router: 1,
            epoch: 2,
        });
        assert_eq!(reply(&node, &live_ship), Message::Ack);
        assert_eq!(node.replica_len(7), 4);

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
        assert_eq!(node.replica_len(7), 4, "the replica is untouched");
        assert_eq!(
            reply(
                &node,
                &encode_frame(&Message::DeltaShip {
                    from_shard: 9,
                    batch: encode_delta(0, &inserts(0..2)),
                    router: 0,
                    epoch: 1,
                })
            ),
            reject,
            "stale fan-out must not replicate"
        );
        assert_eq!(node.replica_len(9), 0);
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
            Message::AbsorbDone {
                applied: 4,
                gapped: false
            }
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

    #[test]
    fn sequence_gap_marks_the_replica_gapped_and_absorb_discards_it() {
        let node = ShardNode::start(3, tiny_config());
        assert_eq!(
            reply(&node, &ship_frame(7, 0, &inserts(0..4))),
            Message::Ack
        );
        // Sequence jumps from 4 to 50: ops 4..50 are missing.
        assert_eq!(
            reply(&node, &ship_frame(7, 50, &inserts(50..52))),
            Message::Ack
        );
        assert_eq!(node.replica_len(7), 0, "a gapped replica holds nothing");
        assert_eq!(node.stats().replica_gaps, 1);
        assert_eq!(
            reply(&node, &absorb_frame(7)),
            Message::AbsorbDone {
                applied: 0,
                gapped: true,
            },
            "a holey replica must not be absorbed"
        );
        let stats = node.stats();
        assert_eq!(stats.gapped_discards, 1);
        assert_eq!(stats.absorbed_entries, 0);
        assert!(
            node.service().store().export().is_empty(),
            "nothing was applied"
        );
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
        for (batch, ops) in ops.chunks(1000).enumerate() {
            let base = 1000 * batch as u64;
            assert_eq!(reply(&node, &ship_frame(9, base, ops)), Message::Ack);
        }
        let held = node.replica_len(9) as u64;
        assert_eq!(held, budget / 64, "a full budget of the newest entries");
        assert_eq!(
            reply(&node, &absorb_frame(9)),
            Message::AbsorbDone {
                applied: held,
                gapped: false,
            }
        );
        let store = node.service().store().stats();
        assert_eq!((store.entries as u64, store.bytes_in_use), (held, budget));
        assert!(store.peak_bytes <= budget);
        assert_eq!(node.stats().gapped_discards, 0);
    }

    #[test]
    fn clean_replica_absorbs_and_reports_applied_entries() {
        let node = ShardNode::start(6, tiny_config());
        assert_eq!(
            reply(&node, &ship_frame(2, 0, &inserts(0..3))),
            Message::Ack
        );
        let evict_and_insert = [DeltaOp::Evict { fp: fp(0) }, inserts(3..4).remove(0)];
        assert_eq!(
            reply(&node, &ship_frame(2, 3, &evict_and_insert)),
            Message::Ack
        );
        assert_eq!(
            reply(&node, &absorb_frame(2)),
            Message::AbsorbDone {
                applied: 3,
                gapped: false,
            }
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
    /// a sync ships every op past the cursor and the log drops them.
    #[test]
    fn a_sync_ships_what_is_owed_and_the_log_keeps_only_the_rest() {
        use ccm2_incr::ArtifactStore as _;
        let node = ShardNode::start(1, tiny_config());
        let store = node.service().store();
        store.store(fp(1), b"alpha");
        store.store(fp(2), b"beta");
        let Message::DeltaShip { batch, .. } = reply(&node, &encode_frame(&Message::Sync)) else {
            panic!("Sync must answer DeltaShip");
        };
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
        assert_eq!(decode_delta(&batch), Some((0, shipped)));
        assert!(store.deltas_since(0).is_none(), "shipped ops are dropped");
        assert_eq!(store.deltas_since(2), Some(Vec::new()));
        store.store(fp(3), b"gamma");
        assert_eq!(store.deltas_since(2).map(|ops| ops.len()), Some(1));
        assert_eq!(node.stats().ships, 1);
    }

    #[test]
    fn durable_replicas_survive_a_node_restart_and_a_gapped_one_leaves_no_image() {
        let dir = std::env::temp_dir().join(format!(
            "ccm2-shard-durable-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let durable = || {
            ShardNode::start(1, tiny_config())
                .with_durable_log(&dir)
                .unwrap()
        };
        let node = durable();
        assert_eq!(
            reply(&node, &ship_frame(0, 0, &inserts(0..4))),
            Message::Ack
        );
        assert_eq!(node.stats().replica_saves, 1, "the ship saved the replica");
        assert_eq!(node.replica_len(0), 4);
        // Origin 8's replica gaps: it holds nothing and its image goes.
        for base in [0, 5] {
            let ship = ship_frame(8, base, &inserts(20 + base..22 + base));
            assert_eq!(reply(&node, &ship), Message::Ack);
        }
        assert_eq!(node.replica_len(8), 0);
        assert!(!replica_dir(&dir, 8).exists(), "a gapped replica's image");
        drop(node); // crash: the replicas exist only on disk now

        let revived = durable();
        assert_eq!(revived.replica_len(0), 4, "restart reloads the replica");
        // Origin 8 is one the revived shard meets late: no gap.
        assert_eq!(
            reply(&revived, &ship_frame(8, 9, &inserts(9..10))),
            Message::Ack
        );
        assert_eq!(
            (revived.replica_len(8), revived.stats().replica_gaps),
            (1, 0)
        );
        // Origin 0's replica continues from the image's sequence number.
        assert_eq!(
            reply(&revived, &ship_frame(0, 4, &inserts(4..5))),
            Message::Ack
        );
        assert_eq!(
            reply(&revived, &absorb_frame(0)),
            Message::AbsorbDone {
                applied: 5,
                gapped: false,
            },
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
