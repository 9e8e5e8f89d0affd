//! The fleet's front door: consistent-hash routing, router-level
//! single-flight, failover, and (since wire v3) the epoch lease that
//! makes eviction authority exclusive.
//!
//! [`FabricRouter::serve`] takes an ordinary [`CompileRequest`] and
//! returns a [`FabricResponse`]:
//!
//! 1. **Route** — the request fingerprint (the same single-flight key
//!    the standalone service uses) lands on a shard via the
//!    [`HashRing`]. Identical requests therefore always hit the same
//!    shard, so the shard-level single-flight keeps deduplicating
//!    across clients even in a fleet.
//! 2. **Single-flight at the router** — concurrent identical requests
//!    don't even cross the wire twice: later arrivals park on the
//!    in-flight entry and share the leader's response.
//! 3. **Dispatch** — one `CCM2WIRE` compile frame. A response that
//!    fails frame validation is retried against the *same* shard (the
//!    checksum plane caught damage in transit; the shard is fine). A
//!    transport error is shard death.
//! 4. **Failover** — the dead shard leaves the ring (its key range
//!    spreads over the survivors — see the ring's minimal-disruption
//!    guarantee), every survivor is told to [`absorb`](crate::wire::Message::Absorb)
//!    the replica log it holds for the dead shard, and the dispatch
//!    loop re-routes. An admitted request is therefore never lost to a
//!    shard death: it either completes on a survivor or (all shards
//!    dead / shed at admission) surfaces as [`FabricResponse::Retry`]
//!    with a back-off hint, the same contract as
//!    [`ccm2_serve::Response::Retry`].
//! 5. **Replicate** — after a served compile the router syncs the
//!    owning shard and fans the returned `CCM2DELT` batch to the
//!    surviving peers (see `crate::shard`).
//!
//! Shard deaths can also be *injected* deterministically: give the
//! router a [`FaultPlan`] and it queries site `shard:{id}#d{n}` before
//! dispatch `n` to shard `id`; a [`FaultKind::Panic`] there kills the
//! shard at exactly that dispatch — the chaos-drill analog of the
//! `task:`/`store:` sites inside a single compile.
//!
//! # The failure detector
//!
//! Waiting for a blocking round-trip error is a *reactive* detector: a
//! partitioned shard is only discovered when a request happens to route
//! to it. The router also runs a **proactive** suspicion clock:
//! [`FabricRouter::heartbeat_tick`] probes every ring member with a
//! [`Message::Ping`] and tracks consecutive misses per shard. Misses at
//! or past [`HeartbeatConfig::suspect_misses`] mark the shard
//! [`HealthState::Suspect`]; at [`HeartbeatConfig::evict_misses`] the
//! shard is evicted — the same [`fail_over`](FabricRouter::kill_shard)
//! path as a detected death, so its replica logs are absorbed and its
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
//! absorb a replica log — split-brain. Authority is an **epoch lease**:
//!
//! - [`FabricRouter::acquire_lease`] fans [`Message::LeaseGrant`] at
//!   `max(known epoch) + 1` to every member. A shard grants each epoch
//!   at most once; the router leads only with a **majority** of grants.
//!   Two leaders in one epoch would need two disjoint majorities —
//!   impossible — so every epoch has at most one leader.
//! - A leading router renews per heartbeat tick ([`Message::LeaseRenew`]);
//!   shards age the lease in *probe rounds answered* (deterministic
//!   virtual time, no wall clock). Control frames (`Absorb`,
//!   `DeltaShip` fan-out, pushed `Image`) carry the `(router, epoch)`
//!   stamp and shards refuse stale stamps with
//!   [`Message::EpochReject`] — the moment a partitioned ex-leader
//!   hears one it [demotes](RouterRole::Standby) and resyncs.
//! - A **standby** mirrors state instead of driving it: each tick it
//!   reloads the durable membership image (see
//!   `crate::durable::MembershipStore`), pings members (which also
//!   mirrors the lease view carried on [`Message::Pong`]) and promotes
//!   itself — one `acquire_lease` round — once a majority of answering
//!   shards report the lease older than [`LeaseConfig::expiry_ticks`].
//!
//! A single router with the default identity (`router 0`, epoch 0)
//! needs none of this machinery: shards start with a vacant lease and
//! adopt the first claimant, so the legacy standalone fabric works
//! unchanged.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use ccm2_faults::{FaultKind, FaultPlan};
use ccm2_serve::CompileRequest;
use ccm2_support::hash::Fp128;
use parking_lot::{Condvar, Mutex};

use crate::durable::{MembershipImage, MembershipStore};
use crate::ring::{HashRing, DEFAULT_VNODES};
use crate::transport::Transport;
use crate::wire::{decode_frame, encode_frame, Message, WireOutcome, WireRequest, NO_ROUTER};

/// A full store image on the move: the delta cursor at the cut plus the
/// entries, coldest first (the payload of [`Message::Image`]).
type StoreImage = (u64, Vec<(Fp128, Vec<u8>)>);

/// Give up re-sending after this many consecutive invalid responses
/// from one shard and shed to the client's back-off protocol instead;
/// persistent damage at this density means the conduit is sick, not
/// unlucky.
const MAX_CHECKSUM_RETRIES: u32 = 8;

/// Back-off hint attached to a [`FabricResponse::Retry`] when no shard
/// supplied a better one (fleet-wide death, damaged conduit, router
/// shut down).
pub const DEFAULT_RETRY_AFTER_MS: u64 = 2;

/// The fabric's answer to one request. Mirrors
/// [`ccm2_serve::Response`], carrying the wire outcome.
#[derive(Clone, Debug)]
pub enum FabricResponse {
    /// Served (possibly by a survivor after failover, possibly joined
    /// onto an identical in-flight request).
    Done(WireOutcome),
    /// Shed — queue full, over quota, no live shards, or a conduit too
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
    /// Requests that joined an identical in-flight one at the router
    /// (never crossed the wire).
    pub joined: u64,
    /// Compile frames actually sent.
    pub routed_calls: u64,
    /// Admission rejections relayed from shards (queue full / quota).
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
    /// Survivors whose gapped replica log was discarded at absorb and
    /// reconciled with a full store image from a healthy peer.
    pub gapped_reconciliations: u64,
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

/// Failure-detector tuning: consecutive heartbeat misses before a shard
/// is suspected, and before it is evicted from the ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeartbeatConfig {
    /// Misses at which the shard turns [`HealthState::Suspect`].
    pub suspect_misses: u32,
    /// Misses at which the shard is evicted (ring removal + absorb).
    /// Clamped to at least `suspect_misses`.
    pub evict_misses: u32,
}

impl Default for HeartbeatConfig {
    fn default() -> HeartbeatConfig {
        HeartbeatConfig {
            suspect_misses: 1,
            evict_misses: 3,
        }
    }
}

/// Which side of the lease a router is on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RouterRole {
    /// Holds (or, for the legacy single-router fabric, assumes) the
    /// eviction lease: runs the failure detector, evicts, admits,
    /// absorbs, fans out replication.
    #[default]
    Leader,
    /// Mirrors membership and the lease view; promotes itself when the
    /// lease expires. Serves client traffic (routing and dispatch need
    /// no authority) but never changes membership.
    Standby,
}

/// Lease tuning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeaseConfig {
    /// Probe rounds a shard may answer without seeing a renewal before
    /// a standby counts its lease as expired. Expiry is measured in
    /// the *shard's* virtual clock (its `lease_age` as mirrored on
    /// [`Message::Pong`]), so drills in virtual time and TCP
    /// deployments on the wall clock expire identically.
    pub expiry_ticks: u32,
}

impl Default for LeaseConfig {
    fn default() -> LeaseConfig {
        LeaseConfig { expiry_ticks: 3 }
    }
}

/// A shard's position in the failure-detector state machine
/// (alive → suspect → evicted → rejoining → alive).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum HealthState {
    /// Answering probes (or not yet probed).
    #[default]
    Alive,
    /// Missed probes, but below the eviction threshold; still on the
    /// ring and still serving whatever reaches it.
    Suspect,
    /// Evicted from the ring (by the detector, a transport error, or a
    /// drill kill). Not probed again until re-admitted.
    Evicted,
    /// Inside [`FabricRouter::admit_shard`]'s warm-up: reachable and
    /// catching up, but not yet owning keys.
    Rejoining,
}

#[derive(Clone, Copy, Debug, Default)]
struct Health {
    state: HealthState,
    misses: u32,
}

/// One shard's retry burn, as reported over [`Message::FetchStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardRetryBurn {
    /// Reporting shard.
    pub shard: u32,
    /// Compiles it has served.
    pub compiles: u64,
    /// Requests shed at admission (queue full).
    pub shed: u64,
    /// Requests shed by the fairness quota.
    pub quota_shed: u64,
    /// Admission-retry attempts its serve loop has burned.
    pub retry_attempts_used: u64,
    /// Requests that recovered within the budget.
    pub retry_recovered: u64,
    /// Requests that exhausted the budget.
    pub retry_exhausted: u64,
    /// The configured per-request retry budget.
    pub retry_budget: u32,
    /// Queue depth at report time.
    pub queue_len: u32,
}

impl ShardRetryBurn {
    /// Budget left for the *average* in-flight request: the configured
    /// per-request budget minus the mean attempts burned per request
    /// that needed any. Saturates at zero.
    pub fn budget_remaining(&self) -> u32 {
        let strained = self.retry_recovered + self.retry_exhausted;
        if strained == 0 {
            return self.retry_budget;
        }
        let mean = (self.retry_attempts_used / strained).min(u64::from(u32::MAX)) as u32;
        self.retry_budget.saturating_sub(mean)
    }
}

/// Fleet-level retry-burn view (see [`FabricRouter::retry_burn`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FleetRetryBurn {
    /// Per-shard reports, ascending by shard id.
    pub shards: Vec<ShardRetryBurn>,
}

impl FleetRetryBurn {
    /// Total admission-retry attempts burned across the fleet.
    pub fn attempts_used(&self) -> u64 {
        self.shards.iter().map(|s| s.retry_attempts_used).sum()
    }

    /// Total requests that recovered within their budget.
    pub fn recovered(&self) -> u64 {
        self.shards.iter().map(|s| s.retry_recovered).sum()
    }

    /// Total requests that exhausted their budget.
    pub fn exhausted(&self) -> u64 {
        self.shards.iter().map(|s| s.retry_exhausted).sum()
    }
}

type Flight = Arc<(Mutex<Option<FabricResponse>>, Condvar)>;

/// See the module docs.
pub struct FabricRouter {
    transport: Arc<dyn Transport>,
    ring: Mutex<HashRing>,
    inflight: Mutex<HashMap<Fp128, Flight>>,
    stats: Mutex<FabricStats>,
    faults: Option<Arc<FaultPlan>>,
    dispatch_seq: AtomicU64,
    /// One lock per origin shard, held for a whole replication epoch:
    /// the batches a shard cuts must reach each peer in the order it
    /// cut them, or the peer's replica log reads the later one as a
    /// sequence gap and is discarded at failover.
    replication: Mutex<HashMap<u32, Arc<Mutex<()>>>>,
    heartbeat: HeartbeatConfig,
    health: Mutex<HashMap<u32, Health>>,
    probe_seq: AtomicU64,
    router_id: u32,
    role: Mutex<RouterRole>,
    epoch: AtomicU64,
    known_epoch: AtomicU64,
    leadership_epochs: Mutex<Vec<u64>>,
    lease: LeaseConfig,
    membership: Option<Arc<MembershipStore>>,
    down: AtomicBool,
}

impl FabricRouter {
    /// A router over every shard `transport` can currently reach, with
    /// the default vnode count. Identity defaults to router 0, leading
    /// at epoch 0 — the legacy single-router configuration, which
    /// shards accept without any lease ceremony.
    pub fn new(transport: Arc<dyn Transport>) -> FabricRouter {
        let ring = HashRing::new(&transport.shards(), DEFAULT_VNODES);
        FabricRouter {
            transport,
            ring: Mutex::new(ring),
            inflight: Mutex::new(HashMap::new()),
            stats: Mutex::new(FabricStats::default()),
            faults: None,
            dispatch_seq: AtomicU64::new(0),
            replication: Mutex::new(HashMap::new()),
            heartbeat: HeartbeatConfig::default(),
            health: Mutex::new(HashMap::new()),
            probe_seq: AtomicU64::new(0),
            router_id: 0,
            role: Mutex::new(RouterRole::Leader),
            epoch: AtomicU64::new(0),
            known_epoch: AtomicU64::new(0),
            leadership_epochs: Mutex::new(Vec::new()),
            lease: LeaseConfig::default(),
            membership: None,
            down: AtomicBool::new(false),
        }
    }

    /// Arms deterministic shard-death injection (site
    /// `shard:{id}#d{n}`, kind [`FaultKind::Panic`]).
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> FabricRouter {
        self.faults = Some(plan);
        self
    }

    /// Overrides the failure-detector thresholds.
    pub fn with_heartbeat(mut self, config: HeartbeatConfig) -> FabricRouter {
        self.heartbeat = HeartbeatConfig {
            suspect_misses: config.suspect_misses,
            evict_misses: config.evict_misses.max(config.suspect_misses),
        };
        self
    }

    /// Names this router on the control plane. Stamps travel on every
    /// membership-changing frame, so two routers in one fleet must use
    /// distinct ids.
    pub fn with_identity(mut self, router_id: u32) -> FabricRouter {
        assert!(router_id != NO_ROUTER, "NO_ROUTER is reserved");
        self.router_id = router_id;
        self
    }

    /// Starts this router as a standby: it mirrors membership and the
    /// lease, serves traffic, and promotes itself only when the lease
    /// expires.
    pub fn as_standby(self) -> FabricRouter {
        *self.role.lock() = RouterRole::Standby;
        self
    }

    /// Overrides the lease tuning.
    pub fn with_lease(mut self, lease: LeaseConfig) -> FabricRouter {
        self.lease = LeaseConfig {
            expiry_ticks: lease.expiry_ticks.max(1),
        };
        self
    }

    /// Attaches the durable membership store every router of a fleet
    /// shares: leaders persist membership changes into it, standbys
    /// mirror from it each tick and promoted leaders restore from it.
    pub fn with_membership_store(mut self, store: Arc<MembershipStore>) -> FabricRouter {
        self.membership = Some(store);
        self
    }

    /// Router counters.
    pub fn stats(&self) -> FabricStats {
        *self.stats.lock()
    }

    /// Live shards on the ring, ascending.
    pub fn live_shards(&self) -> Vec<u32> {
        self.ring.lock().shards()
    }

    /// This router's control-plane identity.
    pub fn router_id(&self) -> u32 {
        self.router_id
    }

    /// Current role.
    pub fn role(&self) -> RouterRole {
        *self.role.lock()
    }

    /// The epoch this router last led under.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Every epoch this router has ever acquired leadership for, in
    /// acquisition order. Drills assert these sets are disjoint across
    /// routers — the no-two-leaders-per-epoch invariant.
    pub fn leadership_epochs(&self) -> Vec<u64> {
        self.leadership_epochs.lock().clone()
    }

    /// Models router death for drills: a shut-down router answers every
    /// `serve` with an immediate [`FabricResponse::Retry`] (clients
    /// fail over to another router) and its ticks are no-ops.
    pub fn shutdown(&self) {
        self.down.store(true, Ordering::Relaxed);
    }

    /// Whether [`shutdown`](FabricRouter::shutdown) was called.
    pub fn is_shutdown(&self) -> bool {
        self.down.load(Ordering::Relaxed)
    }

    /// The failure detector's current verdict on `shard`.
    pub fn health(&self, shard: u32) -> HealthState {
        self.health
            .lock()
            .get(&shard)
            .copied()
            .unwrap_or_default()
            .state
    }

    fn note_epoch(&self, seen: u64) {
        self.known_epoch.fetch_max(seen, Ordering::Relaxed);
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
        let members = self.ring.lock().shards();
        if members.is_empty() {
            return false;
        }
        let epoch = self
            .known_epoch
            .load(Ordering::Relaxed)
            .max(self.epoch.load(Ordering::Relaxed))
            + 1;
        let grant = encode_frame(&Message::LeaseGrant {
            router: self.router_id,
            epoch,
        });
        let mut granted = 0usize;
        for &shard in &members {
            match self.transport.call(shard, &grant).map(|b| decode_frame(&b)) {
                Ok(Some(Message::Ack)) => {
                    granted += 1;
                    self.stats.lock().lease_grants += 1;
                }
                Ok(Some(Message::EpochReject { epoch: seen, .. })) => {
                    self.note_epoch(seen);
                    self.stats.lock().epoch_rejects += 1;
                }
                _ => {}
            }
        }
        self.note_epoch(epoch);
        if granted * 2 > members.len() {
            self.epoch.store(epoch, Ordering::Relaxed);
            *self.role.lock() = RouterRole::Leader;
            self.leadership_epochs.lock().push(epoch);
            self.stats.lock().promotions += 1;
            self.persist_membership();
            true
        } else {
            false
        }
    }

    /// Demotes to standby (after an `EpochReject` or an observed newer
    /// epoch) and resyncs membership from the durable store — the
    /// ex-leader's local ring may carry unauthorized evictions.
    fn demote(&self) {
        *self.role.lock() = RouterRole::Standby;
        self.stats.lock().demotions += 1;
        self.resync_membership();
    }

    /// Reloads ring membership from the shared durable store, if one is
    /// attached and holds a valid image. Public so drills can force a
    /// healed router to converge without waiting for its next tick.
    pub fn resync_membership(&self) {
        let Some(store) = &self.membership else {
            return;
        };
        let Ok(loaded) = store.load_latest() else {
            return;
        };
        let Some(image) = loaded.image else {
            return;
        };
        self.note_epoch(image.epoch);
        *self.ring.lock() = HashRing::new(&image.members, DEFAULT_VNODES);
        let mut health = self.health.lock();
        for &m in &image.members {
            let h = health.entry(m).or_default();
            if h.state == HealthState::Evicted {
                h.state = HealthState::Alive;
                h.misses = 0;
            }
        }
        self.stats.lock().membership_resyncs += 1;
    }

    /// Persists the current membership under this router's epoch.
    fn persist_membership(&self) {
        let Some(store) = &self.membership else {
            return;
        };
        let image = MembershipImage {
            epoch: self.epoch.load(Ordering::Relaxed),
            leader: self.router_id,
            members: self.ring.lock().shards(),
        };
        let _ = store.save(&image);
    }

    /// Renew-barrier: confirms this router still holds the lease by
    /// renewing against every member *before* a membership change. Any
    /// `EpochReject` demotes and returns `false` — closing the window
    /// where a partitioned ex-leader with no pending traffic would
    /// otherwise admit or evict on stale authority.
    fn confirm_lease(&self) -> bool {
        let members = self.ring.lock().shards();
        let renew = encode_frame(&Message::LeaseRenew {
            router: self.router_id,
            epoch: self.epoch.load(Ordering::Relaxed),
        });
        for &shard in &members {
            match self.transport.call(shard, &renew).map(|b| decode_frame(&b)) {
                Ok(Some(Message::Ack)) => self.stats.lock().lease_renews += 1,
                Ok(Some(Message::EpochReject { epoch: seen, .. })) => {
                    self.note_epoch(seen);
                    self.stats.lock().epoch_rejects += 1;
                    self.demote();
                    return false;
                }
                _ => {}
            }
        }
        true
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
    /// clock, renewals keep the lease fresh, and any `EpochReject`
    /// demotes *before* an eviction can run on stale authority.
    fn leader_tick(&self) -> Vec<u32> {
        if self.ring.lock().is_empty() {
            // A partitioned ex-leader can evict its whole view; the
            // durable image is the way back.
            self.resync_membership();
        }
        let members = self.ring.lock().shards();
        let mut evicted = Vec::new();
        let mut answered = Vec::new();
        let mut to_evict = Vec::new();
        for shard in members {
            let nonce = self.probe_seq.fetch_add(1, Ordering::Relaxed);
            self.stats.lock().pings += 1;
            let ping = encode_frame(&Message::Ping { nonce });
            let pong = match self.transport.call(shard, &ping) {
                Ok(bytes) => match decode_frame(&bytes) {
                    Some(Message::Pong {
                        shard: s,
                        nonce: n,
                        lease_epoch,
                        lease_router,
                        lease_age: _,
                    }) if s == shard && n == nonce => Some((lease_epoch, lease_router)),
                    _ => None,
                },
                Err(_) => None,
            };
            if let Some((lease_epoch, lease_router)) = pong {
                self.stats.lock().pongs += 1;
                self.note_epoch(lease_epoch);
                if lease_epoch > self.epoch.load(Ordering::Relaxed)
                    && lease_router != self.router_id
                {
                    // Someone newer leads; stand down before touching
                    // membership.
                    self.demote();
                    return Vec::new();
                }
                let mut health = self.health.lock();
                let h = health.entry(shard).or_default();
                h.misses = 0;
                h.state = HealthState::Alive;
                answered.push(shard);
                continue;
            }
            let (suspect_transition, evict) = {
                let mut health = self.health.lock();
                let h = health.entry(shard).or_default();
                h.misses += 1;
                let evict = h.misses >= self.heartbeat.evict_misses;
                let suspect =
                    h.misses >= self.heartbeat.suspect_misses && h.state == HealthState::Alive;
                if suspect {
                    h.state = HealthState::Suspect;
                }
                (suspect, evict)
            };
            if suspect_transition {
                self.stats.lock().suspects += 1;
            }
            if evict {
                to_evict.push(shard);
            }
        }
        // Renew on every member that answered; a single EpochReject
        // means the lease moved on and the pending evictions are not
        // ours to run.
        let renew = encode_frame(&Message::LeaseRenew {
            router: self.router_id,
            epoch: self.epoch.load(Ordering::Relaxed),
        });
        for &shard in &answered {
            match self.transport.call(shard, &renew).map(|b| decode_frame(&b)) {
                Ok(Some(Message::Ack)) => self.stats.lock().lease_renews += 1,
                Ok(Some(Message::EpochReject { epoch: seen, .. })) => {
                    self.note_epoch(seen);
                    self.stats.lock().epoch_rejects += 1;
                    self.demote();
                    return Vec::new();
                }
                _ => {}
            }
        }
        for shard in to_evict {
            self.stats.lock().heartbeat_evictions += 1;
            self.fail_over(shard);
            evicted.push(shard);
        }
        evicted
    }

    /// A standby's round: mirror the durable membership, ping members
    /// to mirror the lease view, and promote once a majority of the
    /// answering shards report the lease expired.
    fn standby_tick(&self) {
        self.resync_membership();
        let members = self.ring.lock().shards();
        let mut answered = 0usize;
        let mut expired = 0usize;
        for &shard in &members {
            let nonce = self.probe_seq.fetch_add(1, Ordering::Relaxed);
            self.stats.lock().pings += 1;
            let ping = encode_frame(&Message::Ping { nonce });
            if let Ok(bytes) = self.transport.call(shard, &ping) {
                if let Some(Message::Pong {
                    shard: s,
                    nonce: n,
                    lease_epoch,
                    lease_router: _,
                    lease_age,
                }) = decode_frame(&bytes)
                {
                    if s == shard && n == nonce {
                        self.stats.lock().pongs += 1;
                        self.note_epoch(lease_epoch);
                        answered += 1;
                        if lease_age >= self.lease.expiry_ticks {
                            expired += 1;
                        }
                    }
                }
            }
        }
        if answered > 0 && expired * 2 > members.len() {
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
    ///    to the joiner (`SharedStore::import` merges, preserving LRU
    ///    order). The ring hands the joiner keys from all members, so
    ///    a single member's image would leave most of them cold.
    /// 3. **Catch-up** — every ring member is synced; the resulting
    ///    `CCM2DELT` batches fan out to the ordinary peers *and* the
    ///    joiner, so deltas pending since the last replication epoch
    ///    reach it too (parked in its replica logs, per origin).
    /// 4. Only then does the ring take the joiner — keys move to a
    ///    shard that can already serve them warm.
    pub fn admit_shard(&self, shard: u32) -> bool {
        if self.is_shutdown() {
            return false;
        }
        let sources: Vec<u32> = {
            let ring = self.ring.lock();
            if ring.contains(shard) {
                return true;
            }
            ring.shards()
        };
        if !self.confirm_lease() {
            return false;
        }
        if !sources.is_empty() {
            self.health.lock().entry(shard).or_default().state = HealthState::Rejoining;
            let mut shipped = None;
            for &src in &sources {
                if let Some((delta_seq, entries)) = self.fetch_image(src) {
                    let n = entries.len() as u64;
                    if self.push_image(shard, delta_seq, entries) {
                        shipped = Some(shipped.unwrap_or(0) + n);
                    }
                }
            }
            for &src in &sources {
                self.replication_epoch(src, Some(shard));
            }
            if let Some(n) = shipped {
                let mut stats = self.stats.lock();
                stats.warm_joins += 1;
                stats.warmup_entries += n;
            }
        }
        self.ring.lock().add(shard);
        {
            let mut health = self.health.lock();
            let h = health.entry(shard).or_default();
            h.state = HealthState::Alive;
            h.misses = 0;
        }
        self.persist_membership();
        true
    }

    /// Drill hook: kill `shard` now — drop its transport endpoint,
    /// remove it from the ring, and have the survivors absorb its
    /// replica logs. Idempotent.
    pub fn kill_shard(&self, shard: u32) {
        self.transport.kill(shard);
        self.fail_over(shard);
    }

    /// Serves one request through the fleet. Blocks until served, shed,
    /// or joined onto an identical in-flight request.
    pub fn serve(&self, req: &CompileRequest) -> FabricResponse {
        self.stats.lock().dispatched += 1;
        if self.is_shutdown() {
            return FabricResponse::Retry {
                after_ms: DEFAULT_RETRY_AFTER_MS,
            };
        }
        let fp = req.fingerprint();
        let flight: Flight = {
            let mut map = self.inflight.lock();
            if let Some(existing) = map.get(&fp) {
                let flight = Arc::clone(existing);
                drop(map);
                self.stats.lock().joined += 1;
                let mut slot = flight.0.lock();
                while slot.is_none() {
                    flight.1.wait(&mut slot);
                }
                return slot.clone().expect("flight published");
            }
            let flight: Flight = Arc::new((Mutex::new(None), Condvar::new()));
            map.insert(fp, Arc::clone(&flight));
            flight
        };

        let resp = self.dispatch(req, fp);
        // A `Retry` fans out to the joiners too: they are copies of the
        // same request, so whatever made the leader back off (shed,
        // fleet-wide death) applies to every one of them.
        *flight.0.lock() = Some(resp.clone());
        flight.1.notify_all();
        self.inflight.lock().remove(&fp);
        resp
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

    fn dispatch(&self, req: &CompileRequest, fp: Fp128) -> FabricResponse {
        let frame = encode_frame(&Message::Compile(WireRequest::from_request(req)));
        let mut checksum_retries = 0u32;
        loop {
            let Some(shard) = self.ring.lock().route(fp) else {
                return FabricResponse::Retry {
                    after_ms: DEFAULT_RETRY_AFTER_MS,
                }; // fleet-wide death
            };
            let n = self.dispatch_seq.fetch_add(1, Ordering::Relaxed);
            if let Some(plan) = &self.faults {
                if matches!(
                    plan.at(&format!("shard:{shard}#d{n}")),
                    Some(FaultKind::Panic)
                ) {
                    self.transport.kill(shard);
                    self.fail_over(shard);
                    continue;
                }
            }
            self.stats.lock().routed_calls += 1;
            let bytes = match self.transport.call(shard, &frame) {
                Ok(bytes) => bytes,
                Err(_) => {
                    self.fail_over(shard);
                    continue;
                }
            };
            match decode_frame(&bytes) {
                Some(Message::Outcome(out)) => {
                    self.replicate_from(shard);
                    return FabricResponse::Done(out);
                }
                Some(Message::Reject { reason, .. }) if reason.starts_with("bad") => {
                    // The shard saw a damaged request frame; transit
                    // damage, not shard damage — same shard, try again.
                    self.stats.lock().checksum_rejects += 1;
                    checksum_retries += 1;
                    if checksum_retries > MAX_CHECKSUM_RETRIES {
                        return FabricResponse::Retry {
                            after_ms: DEFAULT_RETRY_AFTER_MS,
                        };
                    }
                }
                Some(Message::Reject { retry_after_ms, .. }) => {
                    self.stats.lock().rejected += 1;
                    return FabricResponse::Retry {
                        after_ms: retry_after_ms.max(1),
                    };
                }
                Some(_) | None => {
                    // Damaged or nonsensical response frame.
                    self.stats.lock().checksum_rejects += 1;
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

    /// One replication epoch: sync `shard` for its pending deltas and
    /// fan the batch to every surviving peer. Best-effort — replication
    /// is warmth (see `crate::shard`), so errors are swallowed and cost
    /// at most a recompile after a later failover.
    fn replicate_from(&self, shard: u32) {
        self.replication_epoch(shard, None);
    }

    /// The epoch body: `extra_peer` (a joiner mid-warm-up, not yet on
    /// the ring) receives the fan-out alongside the ring peers. The
    /// fan-out carries this router's `(router, epoch)` stamp — a peer
    /// holding a newer lease answers `EpochReject`, which demotes this
    /// router on the spot (replication is how a partitioned dueling
    /// leader usually learns it lost).
    fn replication_epoch(&self, shard: u32, extra_peer: Option<u32>) {
        // Requests served side by side end here side by side; epochs of
        // one origin take turns, sync to last ship (see `replication`).
        let turn = Arc::clone(self.replication.lock().entry(shard).or_default());
        let _turn = turn.lock();
        let sync = encode_frame(&Message::Sync);
        let Ok(bytes) = self.transport.call(shard, &sync) else {
            return;
        };
        let Some(Message::DeltaShip {
            from_shard, batch, ..
        }) = decode_frame(&bytes)
        else {
            return;
        };
        let Some((_base, ops)) = ccm2_incr::decode_delta(&batch) else {
            return;
        };
        if ops.is_empty() {
            return;
        }
        let mut peers: Vec<u32> = self
            .ring
            .lock()
            .shards()
            .into_iter()
            .filter(|&s| s != shard)
            .collect();
        if let Some(extra) = extra_peer {
            if extra != shard && !peers.contains(&extra) {
                peers.push(extra);
            }
        }
        let ship = encode_frame(&Message::DeltaShip {
            from_shard,
            batch,
            router: self.router_id,
            epoch: self.epoch.load(Ordering::Relaxed),
        });
        for peer in peers {
            if let Ok(bytes) = self.transport.call(peer, &ship) {
                if let Some(Message::EpochReject { epoch: seen, .. }) = decode_frame(&bytes) {
                    self.note_epoch(seen);
                    self.stats.lock().epoch_rejects += 1;
                    self.demote();
                    return;
                }
            }
        }
        let mut stats = self.stats.lock();
        stats.ships += 1;
        stats.shipped_ops += ops.len() as u64;
    }

    /// Pulls a full store image from `shard`.
    fn fetch_image(&self, shard: u32) -> Option<StoreImage> {
        let fetch = encode_frame(&Message::FetchImage);
        let bytes = self.transport.call(shard, &fetch).ok()?;
        match decode_frame(&bytes) {
            Some(Message::Image {
                delta_seq, entries, ..
            }) => Some((delta_seq, entries)),
            _ => None,
        }
    }

    /// Pushes a full store image to `shard` under this router's stamp;
    /// `true` on its `Ack`.
    fn push_image(&self, shard: u32, delta_seq: u64, entries: Vec<(Fp128, Vec<u8>)>) -> bool {
        let image = encode_frame(&Message::Image {
            delta_seq,
            entries,
            router: self.router_id,
            epoch: self.epoch.load(Ordering::Relaxed),
        });
        match self.transport.call(shard, &image).map(|b| decode_frame(&b)) {
            Ok(Some(Message::Ack)) => true,
            Ok(Some(Message::EpochReject { epoch: seen, .. })) => {
                self.note_epoch(seen);
                self.stats.lock().epoch_rejects += 1;
                false
            }
            _ => false,
        }
    }

    /// Aggregates the fleet's retry burn: every ring member answers
    /// [`Message::FetchStats`] with its serve-loop retry counters and
    /// queue depth. Shards that fail to answer are simply absent.
    pub fn retry_burn(&self) -> FleetRetryBurn {
        let fetch = encode_frame(&Message::FetchStats);
        let mut shards = Vec::new();
        for shard in self.ring.lock().shards() {
            let Ok(bytes) = self.transport.call(shard, &fetch) else {
                continue;
            };
            if let Some(Message::StatsReport {
                shard: s,
                compiles,
                shed,
                quota_shed,
                retry_attempts_used,
                retry_recovered,
                retry_exhausted,
                retry_budget,
                queue_len,
            }) = decode_frame(&bytes)
            {
                shards.push(ShardRetryBurn {
                    shard: s,
                    compiles,
                    shed,
                    quota_shed,
                    retry_attempts_used,
                    retry_recovered,
                    retry_exhausted,
                    retry_budget,
                    queue_len,
                });
            }
        }
        shards.sort_by_key(|s| s.shard);
        FleetRetryBurn { shards }
    }

    /// Declares `shard` dead: off the ring, survivors absorb their
    /// replica logs for it. A survivor that reports its log *gapped*
    /// ([`Message::AbsorbDone`]) discarded it rather than replay a
    /// hole; the router reconciles it with a full store image pulled
    /// from a survivor that absorbed cleanly. Idempotent under races —
    /// only the caller that actually removes the shard runs the absorb
    /// fan-out.
    ///
    /// Lease rules: the absorb fan-out is a membership change, so it
    /// carries this router's stamp and any `EpochReject` demotes and
    /// aborts. A **standby** never fans out at all — it only routes
    /// around the unreachable shard locally (its next tick resyncs the
    /// membership the leader vouches for).
    fn fail_over(&self, shard: u32) {
        let survivors = {
            let mut ring = self.ring.lock();
            if !ring.remove(shard) {
                return;
            }
            ring.shards()
        };
        self.stats.lock().failovers += 1;
        self.health.lock().entry(shard).or_default().state = HealthState::Evicted;
        if self.role() == RouterRole::Standby {
            return;
        }
        let absorb = encode_frame(&Message::Absorb {
            dead_shard: shard,
            router: self.router_id,
            epoch: self.epoch.load(Ordering::Relaxed),
        });
        let mut gapped_survivors = Vec::new();
        let mut witnessed = 0usize;
        for &s in &survivors {
            if let Ok(bytes) = self.transport.call(s, &absorb) {
                match decode_frame(&bytes) {
                    Some(Message::AbsorbDone { gapped, .. }) => {
                        self.stats.lock().absorbs += 1;
                        witnessed += 1;
                        if gapped {
                            gapped_survivors.push(s);
                        }
                    }
                    // Pre-v2 shards answered a bare Ack; still a
                    // completed absorb.
                    Some(Message::Ack) => {
                        self.stats.lock().absorbs += 1;
                        witnessed += 1;
                    }
                    Some(Message::EpochReject { epoch: seen, .. }) => {
                        // Our authority is stale: this eviction was
                        // never ours to run. Stand down and converge
                        // on the durable membership.
                        self.note_epoch(seen);
                        self.stats.lock().epoch_rejects += 1;
                        self.demote();
                        return;
                    }
                    _ => {}
                }
            }
        }
        // An eviction becomes durable only when a surviving shard
        // witnessed it. A fully partitioned ex-leader evicting its
        // whole (unreachable) view gets zero acknowledgements and must
        // not clobber the shared membership image the standby and the
        // next leader converge on.
        if witnessed > 0 {
            self.persist_membership();
        }
        if gapped_survivors.is_empty() {
            return;
        }
        // Full-image reconciliation: a healthy survivor's store covers
        // everything the gapped logs lost (and more).
        let image = survivors
            .iter()
            .filter(|s| !gapped_survivors.contains(s))
            .find_map(|&s| self.fetch_image(s));
        let Some((delta_seq, entries)) = image else {
            return; // every survivor gapped: nothing authoritative left
        };
        for g in gapped_survivors {
            if self.push_image(g, delta_seq, entries.clone()) {
                self.stats.lock().gapped_reconciliations += 1;
            }
        }
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
