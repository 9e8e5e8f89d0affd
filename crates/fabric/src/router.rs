//! The fleet's front door: consistent-hash routing, failover, and the
//! I/O of the control plane — whose rules are [`crate::lease`]'s.
//!
//! [`FabricRouter::serve`] takes an ordinary [`CompileRequest`] and
//! returns a [`FabricResponse`]:
//!
//! 1. **Route** — the request fingerprint (the same single-flight key
//!    the standalone service uses) lands on a shard via the
//!    [`HashRing`]. Identical requests therefore always hit the same
//!    shard, whose flights table is the fleet's one single-flight: it
//!    joins a copy while the compile runs and answers it by lookup once
//!    the compile has landed. The router joins nothing, so every
//!    request crosses the wire once.
//! 2. **Dispatch** — one `CCM2WIRE` compile frame. A response that
//!    fails frame validation is retried against the *same* shard (the
//!    checksum plane caught damage in transit; the shard is fine). A
//!    transport error is shard death.
//! 3. **Failover** — the dead shard leaves the ring (its key range
//!    spreads over the survivors — see the ring's minimal-disruption
//!    guarantee), every survivor is told to [`absorb`](crate::wire::Message::Absorb)
//!    the replica it holds of the dead shard's store, and the dispatch
//!    loop re-routes. An admitted request is therefore never lost to a
//!    shard death: it either completes on a survivor or (all shards
//!    dead / shed at admission) surfaces as [`FabricResponse::Retry`]
//!    with a back-off hint, the same contract as
//!    [`ccm2_serve::Response::Retry`].
//! 4. **Replicate, off the request's path** — the answer says how many
//!    store deltas its shard has queued. Zero, and the request
//!    sends no replication frame at all; otherwise the shard is marked
//!    dirty and the answer goes back at once. See *The shipper* below.
//!
//! A drill kills a shard at a scripted instant with
//! [`FabricRouter::kill_shard`] (or behind the router's back with
//! [`Transport::kill`], which the next dispatch finds).
//!
//! # The shipper
//!
//! One thread per router, started by [`FabricRouter::new`] and joined by
//! [`FabricRouter::shutdown`] or drop, is the only code that sends
//! [`Message::Sync`] and [`Message::DeltaShip`]. It takes a dirty shard,
//! clears the mark, *then* pulls — so a compile that lands mid-pull
//! marks the shard again and is shipped by the next one, and one batch
//! carries whatever accumulated while the shipper was busy — and fans
//! the batch to the peers under this router's stamp, through the same
//! `control` that hears a stale answer. One writer per router makes the
//! order of an origin's batches structural. Only the lease holder pulls:
//! a standby that pulled would drain the shard's queue into a batch its
//! stamp cannot deliver, so its marks are dropped, and a promotion marks
//! every member once — what a standby's requests left behind goes out
//! with the leader's next pull.
//!
//! The durability contract: *a request acknowledged before its delta
//! shipped may be recompiled after a failover, never lost and never
//! mismatched*. [`FabricRouter::flush`] is the barrier — it returns when
//! nothing is dirty and the shipper is idle. The hooks that inject a
//! fault at a scripted instant ([`FabricRouter::kill_shard`],
//! `Fabric::partition`) and [`FabricRouter::admit_shard`]'s catch-up
//! call it, so a script means the same thing on every run; a death that
//! `dispatch` or the heartbeat *finds* does not.
//!
//! # The failure detector
//!
//! Waiting for a blocking round-trip error is a *reactive* detector: a
//! partitioned shard is only discovered when a request happens to route
//! to it. The router also runs a **proactive** suspicion clock:
//! [`FabricRouter::heartbeat_tick`] probes every ring member with a
//! [`Message::Ping`] and tracks consecutive misses per shard. The first
//! miss marks the shard [`HealthState::Suspect`]; at the second the
//! shard is evicted — the same [`fail_over`](FabricRouter::kill_shard)
//! path as a detected death, so its replicas are absorbed and its
//! key range moves *before* a client request has to eat the error. A
//! later [`FabricRouter::admit_shard`] moves it through
//! [`HealthState::Rejoining`] (warm-up) back to [`HealthState::Alive`].
//!
//! Ticks are driven two ways: drills call `heartbeat_tick()` directly
//! (virtual time — deterministic), while a TCP deployment runs
//! [`start_heartbeats`] for a wall-clock cadence.
//!
//! # The eviction lease: who may run a failover
//!
//! With one router, eviction authority is implicit. With standbys (this
//! is what makes router loss survivable) it must be *exclusive*, or a
//! partitioned ex-leader can resurrect an evicted shard or double-
//! absorb a replica — split-brain. Authority is an **epoch lease**
//! granted by the shards, and every decision about it is answered by
//! the one [`Authority`] this router keeps under one lock (the table is
//! [`crate::lease`]'s module doc). What is here is the I/O around those
//! answers: the grant round ([`FabricRouter::acquire_lease`]), a
//! leader's tick (probe, renew on the members that answered, evict), a
//! standby's (reload the durable membership image — see
//! `crate::durable::MembershipStore` — probe, claim once the lease has
//! expired), and `control`, through which every frame but a compile
//! goes out and the only place an [`Message::EpochReject`] is heard:
//! the leader stands down and resyncs on the spot, and the operation
//! that sent the frame stops before its next membership effect.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

use ccm2_serve::CompileRequest;
use ccm2_support::hash::Fp128;
use parking_lot::{Condvar, Mutex};

use crate::durable::{MembershipImage, MembershipStore};
use crate::lease::{Asked, Authority, HealthState, LeaseView, RouterRole, Stale};
use crate::ring::{HashRing, DEFAULT_VNODES};
use crate::transport::Transport;
use crate::wire::{decode_frame, encode_frame, Message, WireOutcome, WireRequest, NO_ROUTER};

/// A full store image on the move: the entries, coldest first (the
/// payload of [`Message::Image`]).
type StoreImage = Vec<(Fp128, Vec<u8>)>;

/// Give up re-sending after this many consecutive invalid responses
/// from one shard and shed to the client's back-off protocol instead;
/// persistent damage at this density means the link is sick, not
/// unlucky.
pub(crate) const MAX_CHECKSUM_RETRIES: u32 = 8;

/// Back-off hint attached to a [`FabricResponse::Retry`] when no shard
/// supplied a better one (fleet-wide death, damaged conduit, router
/// shut down).
pub const DEFAULT_RETRY_AFTER_MS: u64 = 2;

/// The fabric's answer to one request. Mirrors
/// [`ccm2_serve::Response`], carrying the wire outcome.
#[derive(Clone, Debug)]
pub enum FabricResponse {
    /// Served by the shard that owns the request (a survivor, after a
    /// failover): compiled, joined onto an identical compile in flight
    /// there, or answered by lookup once that compile has landed.
    Done(WireOutcome),
    /// Shed — queue full, no live shards, or a conduit too
    /// damaged to trust. Back off for roughly `after_ms` and resubmit;
    /// the hint scales with the owning shard's queue depth, so a
    /// loaded fleet tells its clients to slow down instead of having
    /// them hammer the admission gate.
    Retry {
        /// Suggested back-off before resubmitting, in milliseconds.
        after_ms: u64,
    },
}

impl FabricResponse {
    /// The outcome, if served.
    pub fn outcome(&self) -> Option<&WireOutcome> {
        match self {
            FabricResponse::Done(out) => Some(out),
            FabricResponse::Retry { .. } => None,
        }
    }
}

/// Router counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// `serve` calls.
    pub dispatched: u64,
    /// Always 0 (the router joins nothing: repeats are the owning
    /// shard's, see [`ccm2_serve::ServiceStats::joined`]); kept because
    /// the benchmark package reads it.
    pub joined: u64,
    /// Compile frames actually sent.
    pub routed_calls: u64,
    /// Admission rejections relayed from shards (queue full).
    pub rejected: u64,
    /// Responses that failed frame validation, or shard-side reports of
    /// a damaged request frame; retried against the same shard.
    pub checksum_rejects: u64,
    /// Shards declared dead and removed from the ring.
    pub failovers: u64,
    /// Survivors that acknowledged an `Absorb` at failover.
    pub absorbs: u64,
    /// Non-empty delta batches fanned out to peers.
    pub ships: u64,
    /// Delta ops contained in those batches.
    pub shipped_ops: u64,
    /// Heartbeat probes sent.
    pub pings: u64,
    /// Valid heartbeat answers received.
    pub pongs: u64,
    /// Transitions into [`HealthState::Suspect`].
    pub suspects: u64,
    /// Shards evicted by the failure detector (subset of `failovers`).
    pub heartbeat_evictions: u64,
    /// Shards admitted through the join warm-up (image head-ship +
    /// delta catch-up before ring ownership).
    pub warm_joins: u64,
    /// Store entries shipped to joiners during warm-up.
    pub warmup_entries: u64,
    /// Lease grants acknowledged by shards during `acquire_lease`.
    pub lease_grants: u64,
    /// Lease renewals acknowledged by shards.
    pub lease_renews: u64,
    /// `EpochReject` answers received — evidence this router's
    /// authority is (or was) stale.
    pub epoch_rejects: u64,
    /// Successful `acquire_lease` rounds (promotions to leader).
    pub promotions: u64,
    /// Demotions to standby after an `EpochReject` or an observed
    /// newer epoch.
    pub demotions: u64,
    /// Membership reloads from the durable store.
    pub membership_resyncs: u64,
}

/// What the shipper has been asked to pull.
#[derive(Default)]
struct Dirty {
    /// Shards whose answers said they hold queued deltas, each
    /// with the peers off the ring (a joiner mid-warm-up) that its next
    /// batch must reach as well.
    shards: BTreeMap<u32, Vec<u32>>,
    /// The shipper has taken a shard and is not back yet.
    pulling: bool,
    /// The router is shut down or dropped: the shipper exits.
    stop: bool,
}

/// What the request threads and the shipper share: the conduit, the
/// ring, and the control plane.
struct Core {
    transport: Arc<dyn Transport>,
    ring: Mutex<HashRing>,
    stats: Mutex<FabricStats>,
    /// Identity, role, epochs, member health and their tuning: the whole
    /// control-plane state, behind one lock that is never held across a
    /// call on the transport or together with another lock.
    authority: Mutex<Authority>,
    membership: OnceLock<Arc<MembershipStore>>,
    dirty: Mutex<Dirty>,
    /// Signalled on every change of `dirty`: wakes the shipper on a
    /// mark, and [`FabricRouter::flush`] when the shipper goes idle.
    dirty_changed: Condvar,
}

/// See the module docs.
pub struct FabricRouter {
    core: Arc<Core>,
    down: AtomicBool,
    shipper: Mutex<Option<JoinHandle<()>>>,
}

impl FabricRouter {
    /// A router over every shard `transport` can currently reach, with
    /// the default vnode count. Identity defaults to router 0, leading
    /// at epoch 0, which vacant leases adopt without any grant round.
    pub fn new(transport: Arc<dyn Transport>) -> FabricRouter {
        let ring = HashRing::new(&transport.shards(), DEFAULT_VNODES);
        let core = Arc::new(Core {
            transport,
            ring: Mutex::new(ring),
            stats: Mutex::new(FabricStats::default()),
            authority: Mutex::new(Authority::default()),
            membership: OnceLock::new(),
            dirty: Mutex::new(Dirty::default()),
            dirty_changed: Condvar::new(),
        });
        let shipper = {
            let core = Arc::clone(&core);
            std::thread::Builder::new()
                .name("ccm2-shipper".into())
                .spawn(move || core.run_shipper())
                .expect("spawn the shipper thread")
        };
        FabricRouter {
            core,
            down: AtomicBool::new(false),
            shipper: Mutex::new(Some(shipper)),
        }
    }

    /// Names this router on the control plane. Stamps travel on every
    /// membership-changing frame, so two routers in one fleet must use
    /// distinct ids.
    pub fn with_identity(self, router_id: u32) -> FabricRouter {
        assert!(router_id != NO_ROUTER, "NO_ROUTER is reserved");
        self.core.authority.lock().id = router_id;
        self
    }

    /// Starts this router as a standby: it mirrors membership and the
    /// lease, serves traffic, and promotes itself only when the lease
    /// expires.
    pub fn as_standby(self) -> FabricRouter {
        self.core.authority.lock().stand_by();
        self
    }

    /// Attaches the durable membership store every router of a fleet
    /// shares: leaders persist membership changes into it, standbys
    /// mirror from it each tick and promoted leaders restore from it.
    pub fn with_membership_store(self, store: Arc<MembershipStore>) -> FabricRouter {
        let attached = self.core.membership.set(store);
        assert!(attached.is_ok(), "a router mirrors one membership store");
        self
    }

    /// Router counters.
    pub fn stats(&self) -> FabricStats {
        *self.core.stats.lock()
    }

    /// Live shards on the ring, ascending.
    pub fn live_shards(&self) -> Vec<u32> {
        self.core.ring.lock().shards()
    }

    /// This router's control-plane identity.
    pub fn router_id(&self) -> u32 {
        self.core.authority.lock().id
    }

    /// Current role.
    pub fn role(&self) -> RouterRole {
        self.core.authority.lock().role()
    }

    /// The epoch this router last led under.
    pub fn epoch(&self) -> u64 {
        self.core.authority.lock().stamp().1
    }

    /// Every epoch this router has ever acquired leadership for, in
    /// acquisition order. Drills assert these sets are disjoint across
    /// routers — the no-two-leaders-per-epoch invariant.
    pub fn leadership_epochs(&self) -> Vec<u64> {
        self.core.authority.lock().led().to_vec()
    }

    /// Models router death for drills: a shut-down router answers every
    /// `serve` with an immediate [`FabricResponse::Retry`] (clients
    /// fail over to another router), its ticks are no-ops and its
    /// shipper is stopped and joined — what it had not shipped yet dies
    /// with it.
    pub fn shutdown(&self) {
        self.down.store(true, Ordering::Relaxed);
        self.core.dirty.lock().stop = true;
        self.core.dirty_changed.notify_all();
        if let Some(shipper) = self.shipper.lock().take() {
            let _ = shipper.join();
        }
    }

    /// The replication barrier: returns when no shard is marked dirty
    /// and the shipper is idle (or stopped) — every delta that an answer
    /// returned before this call reported has been pulled and offered to
    /// the peers. See the module docs for who calls it and who does not.
    pub fn flush(&self) {
        let mut dirty = self.core.dirty.lock();
        while !dirty.stop && (dirty.pulling || !dirty.shards.is_empty()) {
            self.core.dirty_changed.wait(&mut dirty);
        }
    }

    /// Whether [`shutdown`](FabricRouter::shutdown) was called.
    pub fn is_shutdown(&self) -> bool {
        self.down.load(Ordering::Relaxed)
    }

    /// The failure detector's current verdict on `shard`.
    pub fn health(&self, shard: u32) -> HealthState {
        self.core.authority.lock().health(shard)
    }

    /// Claims leadership: fans [`Message::LeaseGrant`] at one past the
    /// highest epoch this router has seen, and promotes itself iff a
    /// **majority** of the membership grants. Quorum intersection makes
    /// two leaders in one epoch impossible. Returns whether leadership
    /// was acquired.
    pub fn acquire_lease(&self) -> bool {
        if self.is_shutdown() {
            return false;
        }
        self.resync_membership();
        let members = self.core.ring.lock().shards();
        if members.is_empty() {
            return false;
        }
        let (router, epoch) = self.core.authority.lock().claim();
        let grant = encode_frame(&Message::LeaseGrant { router, epoch });
        let mut granted = 0usize;
        for &shard in &members {
            // A refusal teaches the epoch to claim above next time; the
            // round still asks everyone.
            if let Ok(Some(Message::Ack)) = self.core.control(shard, Asked::Claim, &grant) {
                granted += 1;
                self.core.stats.lock().lease_grants += 1;
            }
        }
        let leads = self
            .core
            .authority
            .lock()
            .claimed(epoch, granted, members.len());
        if leads {
            self.core.stats.lock().promotions += 1;
            self.persist_membership();
            // What requests served while nobody here held the lease left
            // in the shards' queues is this router's to ship now.
            for &shard in &members {
                self.core.mark_dirty(shard, None);
            }
        }
        leads
    }

    /// Reloads ring membership from the shared durable store, if one is
    /// attached and holds a valid image. Public so drills can force a
    /// healed router to converge without waiting for its next tick.
    pub fn resync_membership(&self) {
        self.core.resync_membership();
    }

    /// Persists the current membership under this router's stamp.
    fn persist_membership(&self) {
        let Some(store) = self.core.membership.get() else {
            return;
        };
        let (leader, epoch) = self.core.authority.lock().stamp();
        let image = MembershipImage {
            epoch,
            leader,
            members: self.core.ring.lock().shards(),
        };
        let _ = store.save(&image);
    }

    /// Renews the lease on each of `members`: the leader's round, and
    /// the barrier that confirms the lease is still held *before* a
    /// membership change — closing the window where a partitioned
    /// ex-leader with no pending traffic would otherwise admit or evict
    /// on stale authority.
    fn renew(&self, members: &[u32]) -> Result<(), Stale> {
        let (router, epoch) = self.core.authority.lock().stamp();
        let renew = encode_frame(&Message::LeaseRenew { router, epoch });
        for &shard in members {
            if let Some(Message::Ack) = self.core.control(shard, Asked::Control, &renew)? {
                self.core.stats.lock().lease_renews += 1;
            }
        }
        Ok(())
    }

    /// One nonce'd probe of `shard`: the lease age it reports, or `None`
    /// for a miss — no answer, or one that does not echo this probe.
    /// [`Stale`] when the answer deposes this router.
    fn probe(&self, shard: u32) -> Result<Option<u32>, Stale> {
        let nonce = self.core.authority.lock().nonce();
        self.core.stats.lock().pings += 1;
        let ping = encode_frame(&Message::Ping { nonce });
        let Some(Message::Pong {
            shard: s,
            nonce: n,
            lease_epoch: epoch,
            lease_router: holder,
            lease_age: age,
        }) = self.core.control(shard, Asked::Control, &ping)?
        else {
            return Ok(None);
        };
        if s != shard || n != nonce {
            return Ok(None);
        }
        self.core.stats.lock().pongs += 1;
        let view = LeaseView { epoch, holder, age };
        let heard = self.core.authority.lock().pong(shard, view);
        if heard.is_err() {
            self.core.stood_down();
        }
        heard.map(|()| Some(age))
    }

    /// One failure-detector round, dispatched by role. Leaders probe,
    /// renew the lease, and evict (ids evicted this round are
    /// returned); standbys probe to mirror the lease view and promote
    /// themselves when it expires. Deterministic: drills drive it in
    /// virtual time, [`start_heartbeats`] drives it on the wall clock
    /// over TCP.
    pub fn heartbeat_tick(&self) -> Vec<u32> {
        if self.is_shutdown() {
            return Vec::new();
        }
        match self.role() {
            RouterRole::Leader => self.leader_tick(),
            RouterRole::Standby => {
                self.standby_tick();
                Vec::new()
            }
        }
    }

    /// The leading router's round: nonce'd pings advance the suspicion
    /// clock, renewals keep the lease fresh, and hearing of a newer
    /// leader — on a pong or on a refused renewal — ends the round
    /// *before* an eviction can run on stale authority.
    fn leader_tick(&self) -> Vec<u32> {
        if self.core.ring.lock().is_empty() {
            // A partitioned ex-leader can evict its whole view; the
            // durable image is the way back.
            self.resync_membership();
        }
        let members = self.core.ring.lock().shards();
        let mut answered = Vec::new();
        let mut to_evict = Vec::new();
        for shard in members {
            match self.probe(shard) {
                Err(Stale) => return Vec::new(),
                Ok(Some(_age)) => answered.push(shard),
                Ok(None) => {
                    let miss = self.core.authority.lock().miss(shard);
                    if miss.suspected {
                        self.core.stats.lock().suspects += 1;
                    }
                    if miss.evict {
                        to_evict.push(shard);
                    }
                }
            }
        }
        // Renew on every member that answered; a single refusal means
        // the lease moved on and the pending evictions are not ours to
        // run.
        if self.renew(&answered).is_err() {
            return Vec::new();
        }
        let mut evicted = Vec::new();
        for shard in to_evict {
            self.core.stats.lock().heartbeat_evictions += 1;
            let refused = self.fail_over(shard).is_err();
            evicted.push(shard);
            if refused {
                break;
            }
        }
        evicted
    }

    /// A standby's round: mirror the durable membership, ping members
    /// to mirror the lease view, and promote once a majority of the
    /// membership reports the lease expired.
    fn standby_tick(&self) {
        self.resync_membership();
        let members = self.core.ring.lock().shards();
        let ages: Vec<u32> = members
            .iter()
            .filter_map(|&shard| self.probe(shard).ok().flatten())
            .collect();
        if self.core.authority.lock().expired(&ages, members.len()) {
            self.acquire_lease();
        }
    }

    /// Adds a shard to the ring (it must already be reachable through
    /// the transport), warming it up first so its earliest requests hit
    /// instead of recompiling:
    ///
    /// 1. **Renew-barrier** — the lease is confirmed against every
    ///    member first; a stale router aborts (returns `false`) instead
    ///    of resurrecting a shard the live leader evicted.
    /// 2. **Head-ship** — a full store image is pulled from *every*
    ///    ring member that answers [`Message::FetchImage`] and pushed
    ///    to the joiner (`MemStore::import` merges, preserving LRU
    ///    order). The ring hands the joiner keys from all members, so
    ///    a single member's image would leave most of them cold.
    /// 3. **Catch-up** — the shipper is asked to pull every ring member
    ///    with the joiner as an extra peer, and [`flush`](FabricRouter::flush)
    ///    waits for it: deltas cut after the images reach the joiner too
    ///    (replayed into its replica of each origin).
    /// 4. Only then does the ring take the joiner — keys move to a
    ///    shard that can already serve them warm.
    ///
    /// The lease can move after the barrier as well: a refusal of any
    /// stamped frame of steps 2 and 3 aborts the same way, with the
    /// joiner off the ring and nothing persisted.
    pub fn admit_shard(&self, shard: u32) -> bool {
        if self.is_shutdown() {
            return false;
        }
        let sources: Vec<u32> = {
            let ring = self.core.ring.lock();
            if ring.contains(shard) {
                return true;
            }
            ring.shards()
        };
        let was = self.health(shard);
        if self.warm_up(shard, &sources).is_err() {
            // Refused: the joiner is where it was, off the ring.
            self.core.authority.lock().mark(shard, was);
            return false;
        }
        self.core.ring.lock().add(shard);
        self.core.authority.lock().mark(shard, HealthState::Alive);
        self.persist_membership();
        true
    }

    /// Steps 1–3 of [`admit_shard`](FabricRouter::admit_shard).
    fn warm_up(&self, shard: u32, sources: &[u32]) -> Result<(), Stale> {
        self.renew(sources)?;
        if sources.is_empty() {
            return Ok(());
        }
        self.core
            .authority
            .lock()
            .mark(shard, HealthState::Rejoining);
        let mut shipped = None;
        for &src in sources {
            if let Some(entries) = self.fetch_image(src)? {
                let n = entries.len() as u64;
                if self.push_image(shard, entries)? {
                    shipped = Some(shipped.unwrap_or(0) + n);
                }
            }
        }
        for &src in sources {
            self.core.mark_dirty(src, Some(shard));
        }
        self.flush();
        // A refusal of the catch-up is heard on the shipper's thread.
        if self.role() != RouterRole::Leader {
            return Err(Stale);
        }
        if let Some(n) = shipped {
            let mut stats = self.core.stats.lock();
            stats.warm_joins += 1;
            stats.warmup_entries += n;
        }
        Ok(())
    }

    /// Drill hook: kill `shard` now — [`flush`](FabricRouter::flush),
    /// so that what it leaves behind does not depend on how far the
    /// shipper had got, then drop its transport endpoint, remove it from
    /// the ring, and have the survivors absorb their replicas of it.
    /// Idempotent.
    pub fn kill_shard(&self, shard: u32) {
        self.flush();
        self.core.transport.kill(shard);
        let _ = self.fail_over(shard);
    }

    /// Serves one request through the fleet: a compile frame to the
    /// shard that owns it, sent again on damage and re-routed on the
    /// shard's death. Blocks until served or shed.
    pub fn serve(&self, req: &CompileRequest) -> FabricResponse {
        self.core.stats.lock().dispatched += 1;
        if self.is_shutdown() {
            return FabricResponse::Retry {
                after_ms: DEFAULT_RETRY_AFTER_MS,
            };
        }
        self.dispatch(req)
    }

    /// Serves a whole batch concurrently (one thread per request, the
    /// drill/test harness path) and returns responses in order.
    pub fn serve_batch(&self, requests: &[CompileRequest]) -> Vec<FabricResponse> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = requests
                .iter()
                .map(|req| scope.spawn(move || self.serve(req)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("serve thread panicked"))
                .collect()
        })
    }

    fn dispatch(&self, req: &CompileRequest) -> FabricResponse {
        let fp = req.fingerprint();
        let frame = encode_frame(&Message::Compile(WireRequest::from_request(req)));
        let mut checksum_retries = 0u32;
        loop {
            let Some(shard) = self.core.ring.lock().route(fp) else {
                return FabricResponse::Retry {
                    after_ms: DEFAULT_RETRY_AFTER_MS,
                }; // fleet-wide death
            };
            self.core.stats.lock().routed_calls += 1;
            let bytes = match self.core.transport.call(shard, &frame) {
                Ok(bytes) => bytes,
                Err(_) => {
                    let _ = self.fail_over(shard);
                    continue;
                }
            };
            match decode_frame(&bytes) {
                Some(Message::Outcome { outcome, unshipped }) => {
                    if unshipped > 0 {
                        self.core.mark_dirty(shard, None);
                    }
                    return FabricResponse::Done(outcome);
                }
                Some(Message::Reject { reason, .. }) if reason.starts_with("bad") => {
                    // The shard saw a damaged request frame; transit
                    // damage, not shard damage — same shard, try again.
                    self.core.stats.lock().checksum_rejects += 1;
                    checksum_retries += 1;
                    if checksum_retries > MAX_CHECKSUM_RETRIES {
                        return FabricResponse::Retry {
                            after_ms: DEFAULT_RETRY_AFTER_MS,
                        };
                    }
                }
                Some(Message::Reject { retry_after_ms, .. }) => {
                    self.core.stats.lock().rejected += 1;
                    return FabricResponse::Retry {
                        after_ms: retry_after_ms.max(1),
                    };
                }
                Some(_) | None => {
                    // Damaged or nonsensical response frame.
                    self.core.stats.lock().checksum_rejects += 1;
                    checksum_retries += 1;
                    if checksum_retries > MAX_CHECKSUM_RETRIES {
                        return FabricResponse::Retry {
                            after_ms: DEFAULT_RETRY_AFTER_MS,
                        };
                    }
                }
            }
        }
    }

    /// Pulls a full store image from `shard`.
    fn fetch_image(&self, shard: u32) -> Result<Option<StoreImage>, Stale> {
        let fetch = encode_frame(&Message::FetchImage);
        Ok(match self.core.control(shard, Asked::Control, &fetch)? {
            Some(Message::Image { entries, .. }) => Some(entries),
            _ => None,
        })
    }

    /// Pushes a full store image to `shard` under this router's stamp;
    /// `true` on its `Ack`.
    fn push_image(&self, shard: u32, entries: StoreImage) -> Result<bool, Stale> {
        let (router, epoch) = self.core.authority.lock().stamp();
        let image = encode_frame(&Message::Image {
            entries,
            router,
            epoch,
        });
        let reply = self.core.control(shard, Asked::Control, &image)?;
        Ok(matches!(reply, Some(Message::Ack)))
    }

    /// Declares `shard` dead: off the ring, survivors absorb their
    /// replicas of it. Idempotent under races — only the caller that
    /// actually removes the shard runs the absorb fan-out.
    ///
    /// Lease rules: the absorb fan-out is a membership change, so it
    /// carries this router's stamp, and a refusal aborts it with nothing
    /// persisted — the eviction was never this router's to run. A
    /// **standby** never fans out at all — it only routes around the
    /// unreachable shard locally (its next tick resyncs the membership
    /// the leader vouches for).
    fn fail_over(&self, shard: u32) -> Result<(), Stale> {
        let survivors = {
            let mut ring = self.core.ring.lock();
            if !ring.remove(shard) {
                return Ok(());
            }
            ring.shards()
        };
        self.core.stats.lock().failovers += 1;
        let (role, (router, epoch)) = {
            let mut authority = self.core.authority.lock();
            authority.mark(shard, HealthState::Evicted);
            (authority.role(), authority.stamp())
        };
        if role == RouterRole::Standby {
            return Ok(());
        }
        let absorb = encode_frame(&Message::Absorb {
            dead_shard: shard,
            router,
            epoch,
        });
        let mut witnessed = false;
        for &s in &survivors {
            if let Some(Message::AbsorbDone { .. }) =
                self.core.control(s, Asked::Control, &absorb)?
            {
                self.core.stats.lock().absorbs += 1;
                witnessed = true;
            }
        }
        // An eviction becomes durable only when a surviving shard
        // witnessed it. A fully partitioned ex-leader evicting its
        // whole (unreachable) view gets zero acknowledgements and must
        // not clobber the shared membership image the standby and the
        // next leader converge on.
        if witnessed {
            self.persist_membership();
        }
        Ok(())
    }
}

impl Core {
    /// One frame to `shard` and its decoded answer (`None`: unreachable,
    /// or an answer that is no frame). Every frame but a compile goes
    /// out through here, because here is where a stale answer is heard:
    /// the [`Authority`] notes the refusing epoch and decides whether
    /// this router stands down, and the caller gets [`Stale`] to stop on.
    fn control(&self, shard: u32, asked: Asked, frame: &[u8]) -> Result<Option<Message>, Stale> {
        let reply = self.transport.call(shard, frame).ok();
        let reply = reply.and_then(|bytes| decode_frame(&bytes));
        let Some(Message::EpochReject { epoch, .. }) = reply else {
            return Ok(reply);
        };
        let stood_down = self.authority.lock().refused(asked, epoch);
        self.stats.lock().epoch_rejects += 1;
        if stood_down {
            self.stood_down();
        }
        Err(Stale)
    }

    /// The [`Authority`] has just demoted this router: count it, and
    /// resync membership from the durable store — the ex-leader's local
    /// ring may carry evictions that were never its to make.
    fn stood_down(&self) {
        self.stats.lock().demotions += 1;
        self.resync_membership();
    }

    /// Reloads ring membership from the durable store, if one is
    /// attached and holds a valid image.
    fn resync_membership(&self) {
        let Some(store) = self.membership.get() else {
            return;
        };
        let Ok(loaded) = store.load_latest() else {
            return;
        };
        let Some(image) = loaded.image else {
            return;
        };
        *self.ring.lock() = HashRing::new(&image.members, DEFAULT_VNODES);
        self.authority.lock().mirrored(image.epoch, &image.members);
        self.stats.lock().membership_resyncs += 1;
    }

    /// Asks the shipper to pull `shard`, and to offer that batch to
    /// `extra_peer` (a joiner mid-warm-up, not yet on the ring) besides
    /// the ring peers.
    fn mark_dirty(&self, shard: u32, extra_peer: Option<u32>) {
        let mut dirty = self.dirty.lock();
        let extras = dirty.shards.entry(shard).or_default();
        extras.extend(extra_peer.filter(|peer| !extras.contains(peer)));
        self.dirty_changed.notify_all();
    }

    /// The shipper thread: pull whatever is dirty, sleep when nothing is.
    fn run_shipper(&self) {
        let mut dirty = self.dirty.lock();
        while !dirty.stop {
            // The mark goes before the pull: a compile that lands while
            // the pull is under way marks the shard again.
            let Some((shard, extra_peers)) = dirty.shards.pop_first() else {
                dirty.pulling = false;
                self.dirty_changed.notify_all();
                self.dirty_changed.wait(&mut dirty);
                continue;
            };
            dirty.pulling = true;
            drop(dirty);
            // Best-effort: replication is warmth (see `crate::shard`),
            // and a refusal has already stood this router down.
            let _ = self.ship(shard, &extra_peers);
            dirty = self.dirty.lock();
        }
    }

    /// One pull: sync `shard` for the deltas it has queued and fan the
    /// batch to every surviving peer and to `extra_peers`, under this
    /// router's `(router, epoch)` stamp. A peer holding a newer lease
    /// refuses it, which stands this router down on the spot
    /// (replication is how a partitioned dueling leader usually learns
    /// it lost) and ends the fan-out.
    fn ship(&self, shard: u32, extra_peers: &[u32]) -> Result<(), Stale> {
        // Only the lease holder pulls: a sync drains the shard's queue,
        // and a standby's stamp could not deliver what it took.
        if self.authority.lock().role() != RouterRole::Leader {
            return Ok(());
        }
        let sync = encode_frame(&Message::Sync);
        let Some(Message::DeltaShip {
            from_shard, batch, ..
        }) = self.control(shard, Asked::Control, &sync)?
        else {
            return Ok(());
        };
        let ops = match ccm2_incr::delta_op_count(&batch) {
            Some(n) if n > 0 => n as u64,
            _ => return Ok(()),
        };
        let mut peers = self.ring.lock().shards();
        peers.extend_from_slice(extra_peers);
        peers.sort_unstable();
        peers.dedup();
        peers.retain(|&peer| peer != shard);
        let (router, epoch) = self.authority.lock().stamp();
        let ship = encode_frame(&Message::DeltaShip {
            from_shard,
            batch,
            router,
            epoch,
        });
        for peer in peers {
            self.control(peer, Asked::Control, &ship)?;
        }
        let mut stats = self.stats.lock();
        stats.ships += 1;
        stats.shipped_ops += ops;
        Ok(())
    }
}

impl Drop for FabricRouter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A running wall-clock heartbeat driver (TCP deployments). Stops on
/// [`HeartbeatHandle::stop`] or drop.
pub struct HeartbeatHandle {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl HeartbeatHandle {
    /// Signals the driver thread and joins it.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for HeartbeatHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Runs [`FabricRouter::heartbeat_tick`] every `period` on a background
/// thread until the handle is stopped or dropped. The wall-clock
/// counterpart of a drill's virtual-time tick loop.
pub fn start_heartbeats(router: Arc<FabricRouter>, period: std::time::Duration) -> HeartbeatHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let thread = std::thread::spawn(move || {
        while !flag.load(Ordering::Relaxed) {
            router.heartbeat_tick();
            // Sleep in small slices so stop() never waits a full period.
            let mut left = period;
            let slice = std::time::Duration::from_millis(5);
            while !left.is_zero() && !flag.load(Ordering::Relaxed) {
                let d = left.min(slice);
                std::thread::sleep(d);
                left -= d;
            }
        }
    });
    HeartbeatHandle {
        stop,
        thread: Some(thread),
    }
}
