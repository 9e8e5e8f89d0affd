//! Fleet-equivalence properties: an N-shard fabric on TCP sockets is
//! observationally identical to a standalone service — every event of a
//! seeded serve load is answered with the bytes and rendered diagnostics
//! of a direct, storeless compile (`ccm2_bench::kit::Oracle`), which is
//! what a standalone service answers too (the contract's
//! `Path::Service` rows, `tests/contract/mod.rs`). The property is
//! also checked **across a mid-stream shard kill**: the seeded
//! failover (`ccm2_workload::shard_kill_schedule`) must change
//! *nothing* a client can observe — zero admitted requests lost, same
//! bytes, same diagnostics.
//!
//! The control plane's rows sit beside them: what a router does when a
//! shard refuses its stamp, wherever in an operation the refusal lands.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ccm2_bench::kit::{drive, requests, Oracle, Scratch};
use ccm2_fabric::{
    decode_frame, encode_frame, Fabric, FabricRouter, HashRing, MembershipStore, Message,
    RouterRole, ShardNode, Transport, DEFAULT_VNODES,
};
use ccm2_serve::{CompileRequest, ExecChoice};
use ccm2_support::within;
use ccm2_workload::{serve_load, shard_kill_schedule, ServeLoadParams};

pub mod contract;
use contract::config;

/// Serves every request on an N-shard fabric — each answer
/// clean and with the reference compile's bytes — optionally killing
/// one shard after `at` requests have been served.
fn serve_fabric(reqs: &[CompileRequest], shards: usize, kill: Option<(usize, u32)>) {
    let oracle = Oracle::of(reqs);
    let fabric = Fabric::start(shards, config());
    let at = kill.map_or(reqs.len(), |(at, _)| at.min(reqs.len()));
    drive(fabric.router(), &reqs[..at], &oracle);
    if let Some((_, victim)) = kill {
        if at < reqs.len() {
            fabric.router().kill_shard(victim);
        }
        drive(fabric.router(), &reqs[at..], &oracle);
        let live = fabric.router().live_shards();
        assert!(
            !live.contains(&victim),
            "killed shard {victim} still live: {live:?}"
        );
        assert_eq!(live.len(), shards - 1, "exactly one shard died");
    }
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
    let a = FabricRouter::new(fleet.transport().clone())
        .with_identity(1)
        .with_membership_store(Arc::clone(&store));
    let b = FabricRouter::new(fleet.transport().clone())
        .with_identity(2)
        .as_standby()
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

/// A transport that counts the replication frames it is handed and
/// forwards every frame, except that — while armed — a request frame the
/// script picks never reaches its shard and is answered
/// `EpochReject{epoch: 9, router: 2}`: the lease has moved to router 2
/// since this router last looked. Each refusal notes the newest
/// membership image on disk at that moment.
struct Scripted {
    inner: Arc<dyn Transport>,
    refuse: Mutex<Option<Refuse>>,
    mbrs: PathBuf,
    newest_at_refusal: Mutex<Vec<Option<String>>>,
    syncs: AtomicU64,
    ships: AtomicU64,
}

/// Picks the frames to refuse, by target shard and content.
type Refuse = fn(u32, &Message) -> bool;

impl Scripted {
    /// Over `inner`, unarmed; `mbrs` is the membership directory a
    /// refusal looks into.
    fn over(inner: Arc<dyn Transport>, mbrs: PathBuf) -> Arc<Scripted> {
        Arc::new(Scripted {
            inner,
            refuse: Mutex::new(None),
            mbrs,
            newest_at_refusal: Mutex::new(Vec::new()),
            syncs: AtomicU64::new(0),
            ships: AtomicU64::new(0),
        })
    }

    /// `(Sync, DeltaShip)` frames handed to this transport so far.
    fn replication_frames(&self) -> (u64, u64) {
        let read = |n: &AtomicU64| n.load(Ordering::Relaxed);
        (read(&self.syncs), read(&self.ships))
    }
}

impl Transport for Scripted {
    fn call(&self, shard: u32, frame: &[u8]) -> std::io::Result<Vec<u8>> {
        let msg = decode_frame(frame);
        let counted = match msg {
            Some(Message::Sync) => Some(&self.syncs),
            Some(Message::DeltaShip { .. }) => Some(&self.ships),
            _ => None,
        };
        if let Some(frames) = counted {
            frames.fetch_add(1, Ordering::Relaxed);
        }
        let refuse = *self.refuse.lock().unwrap();
        let refused = refuse.is_some_and(|refuse| msg.is_some_and(|msg| refuse(shard, &msg)));
        if refused {
            let newest = newest_image(&self.mbrs);
            self.newest_at_refusal.lock().unwrap().push(newest);
            return Ok(encode_frame(&Message::EpochReject {
                epoch: 9,
                router: 2,
            }));
        }
        self.inner.call(shard, frame)
    }

    fn shards(&self) -> Vec<u32> {
        self.inner.shards()
    }

    fn kill(&self, shard: u32) -> bool {
        self.inner.kill(shard)
    }
}

/// The newest `mbrs-{seq}.img` in `dir`: every save makes a new one.
fn newest_image(dir: &Path) -> Option<String> {
    let names = std::fs::read_dir(dir).expect("membership directory");
    names
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.starts_with("mbrs-") && name.ends_with(".img"))
        .max()
}

fn module(name: &str) -> CompileRequest {
    let source = format!("MODULE {name}; VAR x: INTEGER; BEGIN x := 3; END {name}.");
    let mut req = CompileRequest::new(1, name, source, Arc::default());
    req.exec = ExecChoice::Sim(2);
    req
}

/// The first generated module the three-shard ring routes to `shard`.
fn module_for(shard: u32) -> CompileRequest {
    let ring = HashRing::new(&[0, 1, 2], DEFAULT_VNODES);
    (0..64)
        .map(|i| module(&format!("Pick{i}")))
        .find(|req| ring.route(req.fingerprint()) == Some(shard))
        .expect("some module routes to the shard")
}

/// Shards 0, 1 and 2; router 1, leading at epoch 1 over a [`Scripted`]
/// transport, with a membership store of its own.
struct Drill {
    fleet: Fabric,
    wire: Arc<Scripted>,
    router: FabricRouter,
    store: Arc<MembershipStore>,
    _dir: Scratch,
}

const JOINER: u32 = 7;

impl Drill {
    fn start() -> Drill {
        let fleet = Fabric::start(3, config());
        let dir = Scratch::new("stale-answer");
        let mbrs = dir.join("mbrs");
        let store = Arc::new(MembershipStore::new(&mbrs).expect("membership store opens"));
        let wire = Scripted::over(fleet.transport().clone(), mbrs);
        let router = FabricRouter::new(Arc::clone(&wire) as Arc<dyn Transport>)
            .with_identity(1)
            .with_membership_store(Arc::clone(&store));
        assert!(router.acquire_lease(), "uncontested first grant");
        // A promotion has the shipper pull every member once; the
        // scripts start when it is back.
        router.flush();
        Drill {
            fleet,
            wire,
            router,
            store,
            _dir: dir,
        }
    }

    /// Serves `req` and waits for the shipper: what the request left to
    /// ship has been offered to the peers — or refused on the way.
    fn serve(&self, req: &CompileRequest) {
        assert!(self.router.serve(req).outcome().expect("served").ok);
        self.router.flush();
    }

    fn join(&mut self) {
        self.fleet
            .join(Arc::new(ShardNode::start(JOINER, config())));
    }

    fn members(&self) -> Vec<u32> {
        let loaded = self.store.load_latest().expect("membership readable");
        loaded.image.expect("membership persisted").members
    }
}

/// Where in an operation a leader can hear that its lease has moved.
#[derive(Clone, Copy, Debug)]
enum Hears {
    RenewInTheTick,
    RenewAtTheAdmitBarrier,
    ShipAfterAServedCompile,
    AbsorbAtFailover,
    ImageAtAdmit,
    ShipToTheJoinerAtAdmit,
}

/// One outcome wherever the refusal lands — on the thread that runs the
/// operation, or on the shipper's, behind a `flush` (the two ship rows:
/// after a served compile the test's own, at admit the catch-up
/// barrier's): the epoch is noted, the refusal counted once — the
/// operation sends nothing more on refused authority — and the leader
/// stands down, resyncs its ring from the durable image and persists
/// nothing from then on.
fn a_leader_stands_down_on(hears: Hears) {
    let mut drill = Drill::start();
    // What the fleet must hold for the frame to be sent at all.
    let refuse: Refuse = match hears {
        Hears::RenewInTheTick => |_, msg| matches!(msg, Message::LeaseRenew { .. }),
        Hears::RenewAtTheAdmitBarrier => {
            drill.join();
            |_, msg| matches!(msg, Message::LeaseRenew { .. })
        }
        Hears::ShipAfterAServedCompile => |_, msg| matches!(msg, Message::DeltaShip { .. }),
        Hears::AbsorbAtFailover => |_, msg| matches!(msg, Message::Absorb { .. }),
        Hears::ImageAtAdmit => {
            // So that the members have an image worth shipping.
            drill.serve(&module("Warm"));
            drill.join();
            |_, msg| matches!(msg, Message::Image { .. })
        }
        Hears::ShipToTheJoinerAtAdmit => {
            // Deltas no answer has told the router of: submitted to shard
            // 0's service behind its back, they wait for the catch-up.
            let direct = drill.fleet.nodes()[0].service();
            direct.serve_batch(vec![module("Behind")]);
            drill.join();
            |shard, msg| shard == JOINER && matches!(msg, Message::DeltaShip { .. })
        }
    };
    let before = drill.router.stats();

    *drill.wire.refuse.lock().unwrap() = Some(refuse);
    match hears {
        Hears::RenewInTheTick => assert!(drill.router.heartbeat_tick().is_empty()),
        Hears::ShipAfterAServedCompile => drill.serve(&module("Served")),
        Hears::AbsorbAtFailover => drill.router.kill_shard(1),
        Hears::RenewAtTheAdmitBarrier | Hears::ImageAtAdmit | Hears::ShipToTheJoinerAtAdmit => {
            assert!(
                !drill.router.admit_shard(JOINER),
                "{hears:?}: admitted on refused authority"
            );
        }
    }
    *drill.wire.refuse.lock().unwrap() = None;

    let after = drill.router.stats();
    let at_refusal = drill.wire.newest_at_refusal.lock().unwrap().clone();
    assert_eq!(at_refusal.len(), 1, "{hears:?}: sent on after the refusal");
    assert_eq!(after.epoch_rejects, before.epoch_rejects + 1, "{hears:?}");
    assert_eq!(after.demotions, before.demotions + 1, "{hears:?}");
    assert_eq!(drill.router.role(), RouterRole::Standby, "{hears:?}");
    assert!(
        after.membership_resyncs > before.membership_resyncs,
        "{hears:?}: no resync"
    );
    let members = drill.members();
    assert_eq!(drill.router.live_shards(), members, "{hears:?}");
    assert!(!members.contains(&JOINER), "{hears:?}: joiner persisted");
    assert_eq!(
        newest_image(&drill.wire.mbrs),
        at_refusal[0],
        "{hears:?}: persisted after the refusal"
    );
    // Epoch 9 was noted: the next claim goes one past it.
    assert!(drill.router.acquire_lease(), "{hears:?}");
    assert_eq!(drill.router.epoch(), 10, "{hears:?}");
}

#[test]
fn stale_renew_in_the_tick_stands_the_leader_down() {
    a_leader_stands_down_on(Hears::RenewInTheTick);
}

#[test]
fn stale_renew_at_the_admit_barrier_stands_the_leader_down() {
    a_leader_stands_down_on(Hears::RenewAtTheAdmitBarrier);
}

#[test]
fn stale_ship_after_a_served_compile_stands_the_leader_down() {
    a_leader_stands_down_on(Hears::ShipAfterAServedCompile);
}

#[test]
fn stale_absorb_at_failover_stands_the_leader_down() {
    a_leader_stands_down_on(Hears::AbsorbAtFailover);
}

#[test]
fn stale_image_at_admit_stands_the_leader_down() {
    a_leader_stands_down_on(Hears::ImageAtAdmit);
}

#[test]
fn stale_ship_to_the_joiner_at_admit_stands_the_leader_down() {
    a_leader_stands_down_on(Hears::ShipToTheJoinerAtAdmit);
}

/// A claimant holds nothing to stand down from: a refused `LeaseGrant`
/// teaches it the epoch to claim above, and that is all.
#[test]
fn a_refused_claim_only_teaches_the_epoch() {
    let drill = Drill::start();
    let before = drill.router.stats();
    let newest = newest_image(&drill.wire.mbrs);
    *drill.wire.refuse.lock().unwrap() = Some(|_, msg| matches!(msg, Message::LeaseGrant { .. }));
    assert!(!drill.router.acquire_lease(), "no grant, no majority");
    *drill.wire.refuse.lock().unwrap() = None;

    let after = drill.router.stats();
    assert_eq!(after.epoch_rejects, before.epoch_rejects + 3, "all asked");
    assert_eq!(after.demotions, before.demotions);
    assert_eq!(after.promotions, before.promotions);
    assert_eq!(drill.router.role(), RouterRole::Leader);
    assert_eq!(drill.router.epoch(), 1, "still leading under its own epoch");
    assert_eq!(drill.router.leadership_epochs(), vec![1]);
    assert_eq!(newest_image(&drill.wire.mbrs), newest, "nothing persisted");
    // The refused claim was for epoch 2; the next goes past both it and
    // the epoch 9 the refusals named.
    assert!(drill.router.acquire_lease());
    assert_eq!(drill.router.epoch(), 10);
}

/// A request the fleet has already answered costs the fleet a lookup:
/// the shard that owns it finds the flight landed. The router's own
/// single-flight plays no part — nothing was in flight — no shard
/// compiles, and since nothing new lies past the shard's ship cursor,
/// no replication frame moves either.
#[test]
fn the_owning_shard_answers_a_repeat_without_compiling() {
    let fleet = Fabric::start(3, config());
    let wire = Scripted::over(fleet.transport().clone(), PathBuf::new());
    let router = FabricRouter::new(Arc::clone(&wire) as Arc<dyn Transport>);
    let req = module_for(1);
    let want = Oracle::reference(&req);
    let mut frames = Vec::new();
    for _ in 0..2 {
        let answer = router.serve(&req);
        let out = answer.outcome().expect("served");
        assert_eq!((out.object.clone(), out.diagnostics.clone()), want);
        router.flush();
        frames.push(wire.replication_frames());
    }
    let shards = fleet.nodes().iter().map(|node| node.service().stats());
    let counted: Vec<(u64, u64)> = shards.map(|s| (s.compiled, s.replayed)).collect();
    assert_eq!(counted, [(0, 0), (1, 1), (0, 0)]);
    assert_eq!(router.stats().joined, 0);
    // The compile: one pull, one ship to each peer. The repeat: none.
    assert_eq!(frames, [(1, 2), (1, 2)]);
}

/// A transport on which `DeltaShip` frames wait at a gate, so that what
/// the shipper has pulled stays undelivered for as long as the test
/// likes; once the gate is open they fail, as on a cut link.
struct ShipsHeld {
    inner: Arc<dyn Transport>,
    open: Mutex<bool>,
    opened: Condvar,
}

impl ShipsHeld {
    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }
}

impl Transport for ShipsHeld {
    fn call(&self, shard: u32, frame: &[u8]) -> std::io::Result<Vec<u8>> {
        if matches!(decode_frame(frame), Some(Message::DeltaShip { .. })) {
            let mut open = self.open.lock().unwrap();
            while !*open {
                open = self.opened.wait(open).unwrap();
            }
            return Err(std::io::ErrorKind::ConnectionReset.into());
        }
        self.inner.call(shard, frame)
    }

    fn shards(&self) -> Vec<u32> {
        self.inner.shards()
    }

    fn kill(&self, shard: u32) -> bool {
        self.inner.kill(shard)
    }
}

/// Opens the gate when the test ends, however it ends: a router joins
/// its shipper when dropped, and the shipper may be waiting there.
struct OpenAtTheEnd(Arc<ShipsHeld>);

impl Drop for OpenAtTheEnd {
    fn drop(&mut self) {
        self.0.open();
    }
}

/// The durability contract: *a request acknowledged before its delta
/// shipped may be recompiled after a failover, never lost and never
/// mismatched*. The answers come back while every ship to a peer is
/// held at the gate; the owning shard dies with nothing of them
/// replicated and nobody flushes; the survivors have nothing to absorb,
/// compile the same requests again, and answer with the same bytes.
#[test]
fn a_request_acknowledged_before_its_delta_shipped_is_recompiled_not_lost() {
    let fleet = Fabric::start(3, config());
    let held = Arc::new(ShipsHeld {
        inner: fleet.transport().clone(),
        open: Mutex::new(false),
        opened: Condvar::new(),
    });
    let router = Arc::new(FabricRouter::new(Arc::clone(&held) as Arc<dyn Transport>));
    let _gate = OpenAtTheEnd(Arc::clone(&held));
    let ring = HashRing::new(&[0, 1, 2], DEFAULT_VNODES);
    let modules = (0..64).map(|i| module(&format!("Owned{i}")));
    let owned: Vec<CompileRequest> = modules
        .filter(|req| ring.route(req.fingerprint()) == Some(1))
        .take(3)
        .collect();
    let oracle = Arc::new(Oracle::of(&owned));

    // Acknowledged: an answer does not wait for a peer.
    let serve_all = || {
        let (router, owned, oracle) = (Arc::clone(&router), owned.clone(), Arc::clone(&oracle));
        within(Duration::from_secs(60), move || {
            drive(&*router, &owned, &oracle);
        });
    };
    serve_all();
    let replicated = |origin: u32| -> usize {
        let peers = fleet.nodes().iter().filter(|node| node.id() != origin);
        peers
            .map(|node| node.replica_fingerprints(origin).len())
            .sum()
    };
    assert_eq!(replicated(1), 0, "a ship got through the gate");

    // The origin dies unflushed; the next dispatch finds it dead.
    assert!(held.kill(1));
    serve_all();
    assert_eq!(router.live_shards(), [0, 2]);
    let survivors = [&fleet.nodes()[0], &fleet.nodes()[2]];
    let absorbed: u64 = survivors.iter().map(|n| n.stats().absorbed_entries).sum();
    let recompiled: u64 = survivors.iter().map(|n| n.service().stats().compiled).sum();
    assert_eq!(absorbed, 0, "nothing had been shipped");
    assert_eq!(recompiled, owned.len() as u64);
}

// N shards, no deaths: byte-identical to the reference compile.
#[test]
fn fabric_matches_standalone() {
    for case in 0..6 {
        let mut rng = SmallRng::seed_from_u64(case);
        let seed = rng.gen_range(0u64..1_000_000);
        let shards = rng.gen_range(3usize..6);
        let events = rng.gen_range(8usize..20);
        let edit_every = rng.gen_range(0usize..6);
        println!(
            "case {case}: seed {seed}, shards {shards}, events {events}, edit_every {edit_every}"
        );
        let params = ServeLoadParams {
            seed,
            projects: 2,
            clients: 3,
            events,
            edit_every,
            interface_every: 2,
        };
        serve_fabric(
            &requests(&serve_load(&params), ExecChoice::Sim(2)),
            shards,
            None,
        );
    }
}

// One seeded mid-stream shard kill: still byte-identical,
// zero admitted requests lost.
#[test]
fn fabric_survives_a_seeded_shard_kill_byte_identically() {
    for case in 0..6 {
        let mut rng = SmallRng::seed_from_u64(case);
        let seed = rng.gen_range(0u64..1_000_000);
        let shards = rng.gen_range(3usize..5);
        let events = rng.gen_range(10usize..18);
        println!("case {case}: seed {seed}, shards {shards}, events {events}");
        let params = ServeLoadParams {
            seed,
            projects: 2,
            clients: 3,
            events,
            edit_every: 4,
            interface_every: 3,
        };
        let load = requests(&serve_load(&params), ExecChoice::Sim(2));
        let schedule = shard_kill_schedule(&params, shards as u32, 1);
        assert_eq!(schedule.len(), 1);
        serve_fabric(&load, shards, Some(schedule[0]));
    }
}
