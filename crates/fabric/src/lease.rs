//! The eviction lease and the membership machine, as plain data.
//!
//! Who may change membership is one rule, and this module is the one
//! place it is written. Both halves are values (`Clone + Eq + Debug`)
//! that move no bytes, take no lock and read no clock: `shard.rs` keeps
//! a [`Lease`] under its state lock and turns each verdict into a frame,
//! `router.rs` keeps an [`Authority`] under one lock and does the I/O
//! its answers call for. DESIGN §9.9 describes the machine around it.
//!
//! ```text
//! shard half — Lease: (epoch, holder, age), starts (0, NO_ROUTER, 0),
//!              plus the ledger of grants
//!
//!   grant(r, e)    e > epoch                     → (e, r, 0), ledger += (e, r), Ok
//!                  else                          → Err(epoch, holder, age)
//!   admit(r, e)    e > epoch, or e == epoch and
//!                  holder is r or NO_ROUTER      → (e, r, 0), Ok
//!                  else                          → Err(epoch, holder, age)
//!   probed()       age += 1                      → the view a Pong carries
//!
//!   LeaseGrant is grant; LeaseRenew and the stamp on DeltaShip, Absorb
//!   and a pushed Image are admit; Ping is probed. An Err is answered
//!   EpochReject{epoch, holder} and the frame takes no effect.
//!
//! router half — Authority: (id, role, epoch, seen, ledger, health)
//!
//!   stamp()        (id, epoch) on every control frame
//!   claim()        (id, max(seen, epoch) + 1)
//!   claimed(e, granted, members)
//!                  seen ≥ e; granted·2 > members → Leader at e, ledger += e
//!   refused(asked, e)
//!                  seen ≥ e; Leader and asked is
//!                  not a claim                   → Standby: stood down
//!   pong(s, view)  seen ≥ view.epoch; Leader and view.epoch > epoch
//!                  and view.holder ≠ id          → Standby: Err(Stale)
//!                  Leader otherwise              → s Alive, misses 0
//!   miss(s)        misses += 1; ≥ SUSPECT_MISSES and Alive → Suspect;
//!                  ≥ EVICT_MISSES                → evict
//!   expired(ages, members)
//!                  |age ≥ EXPIRY_TICKS|·2 > members
//!
//!   SUSPECT_MISSES = 1, EVICT_MISSES = 2, EXPIRY_TICKS = 2
//! ```
//!
//! A shard grants each epoch at most once (strict `>`), and a router
//! leads only on a majority of grants, so two leaders of one epoch
//! would need two disjoint majorities: every epoch has at most one. A
//! router at identity 0, epoch 0 over vacant leases is simply the first
//! row: `admit` adopts the first claimant of the current epoch, and a
//! newer epoch too — the catch-up path of a shard partitioned during
//! the grant round. Accepted control traffic is proof the leader is
//! alive, so it resets the age; the age advances on answered probes,
//! not on wall time, so expiry is the same under a drill's virtual-time
//! ticks and under [`start_heartbeats`](crate::router::start_heartbeats).
//!
//! A router operation that hears [`Stale`] stops before its next
//! membership effect: nothing joins the ring, nothing is absorbed and
//! nothing is persisted on authority a shard has just refused.

use std::collections::BTreeMap;

use crate::wire::NO_ROUTER;

/// A shard's lease view: highest granted epoch, its holder, and the
/// probe-round age since the holder's last renewal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeaseView {
    /// Highest epoch this shard has granted (or adopted).
    pub epoch: u64,
    /// The router holding it ([`NO_ROUTER`] = none yet).
    pub holder: u32,
    /// Probe rounds answered since the last renewal.
    pub age: u32,
}

impl Default for LeaseView {
    fn default() -> LeaseView {
        LeaseView {
            epoch: 0,
            holder: NO_ROUTER,
            age: 0,
        }
    }
}

/// The shard half: the one lease a shard honors, and every grant it
/// ever made. A refusal is the view that outranks the refused stamp.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Lease {
    view: LeaseView,
    grants: Vec<(u64, u32)>,
}

impl Lease {
    /// The current view.
    pub fn view(&self) -> LeaseView {
        self.view
    }

    /// Every `(epoch, router)` actually *granted* (not adopted), in
    /// grant order: strictly increasing epochs.
    pub fn grants(&self) -> &[(u64, u32)] {
        &self.grants
    }

    /// `router` claims `epoch`.
    pub fn grant(&mut self, router: u32, epoch: u64) -> Result<(), LeaseView> {
        if epoch <= self.view.epoch {
            return Err(self.view);
        }
        self.grants.push((epoch, router));
        self.admit(router, epoch)
    }

    /// The admissibility rule, for a renewal and for the stamp on a
    /// membership-changing frame alike. Acceptance *adopts* the stamp.
    pub fn admit(&mut self, router: u32, epoch: u64) -> Result<(), LeaseView> {
        let held = self.view;
        if epoch > held.epoch
            || (epoch == held.epoch && (held.holder == router || held.holder == NO_ROUTER))
        {
            self.view = LeaseView {
                epoch,
                holder: router,
                age: 0,
            };
            Ok(())
        } else {
            Err(held)
        }
    }

    /// One probe answered.
    pub fn probed(&mut self) -> LeaseView {
        self.view.age = self.view.age.saturating_add(1);
        self.view
    }
}

/// Consecutive missed probes at which a shard turns
/// [`HealthState::Suspect`].
const SUSPECT_MISSES: u32 = 1;

/// Consecutive missed probes at which a shard is evicted (ring removal
/// and absorb).
const EVICT_MISSES: u32 = 2;

/// Probe rounds a shard may answer without seeing a renewal before a
/// standby counts its lease as expired. Expiry is measured in the
/// *shard's* virtual clock (the `age` of its [`LeaseView`], as mirrored
/// on a `Pong`), so drills in virtual time and TCP deployments on the
/// wall clock expire identically.
const EXPIRY_TICKS: u32 = 2;

/// Which side of the lease a router is on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RouterRole {
    /// Holds the eviction lease (or is the one router of a fleet whose
    /// leases are vacant): runs the failure detector, evicts, admits,
    /// absorbs, fans out replication.
    #[default]
    Leader,
    /// Mirrors membership and the lease view; promotes itself when the
    /// lease expires. Serves client traffic (routing and dispatch need
    /// no authority) but never changes membership and never pulls a
    /// shard's deltas: its stamp could not deliver them.
    Standby,
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
    /// Inside [`FabricRouter::admit_shard`](crate::router::FabricRouter::admit_shard)'s
    /// warm-up: reachable and catching up, but not yet owning keys.
    Rejoining,
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Health {
    state: HealthState,
    misses: u32,
}

/// What the frame that drew an answer asked of the shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Asked {
    /// A `LeaseGrant`: the claimant holds nothing yet.
    Claim,
    /// Anything sent on authority already held.
    Control,
}

/// What a missed probe means.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Miss {
    /// This miss turned the shard [`HealthState::Suspect`].
    pub suspected: bool,
    /// The shard is at or past the eviction threshold.
    pub evict: bool,
}

/// This router's authority is stale: a shard refused its stamp, or
/// answered a probe under another router's newer epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stale;

/// The router half: everything a router knows about its own authority
/// and its members' health. The default is router 0 leading at epoch 0,
/// which vacant leases adopt without any grant round.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Authority {
    /// The router's control-plane identity (never [`NO_ROUTER`]).
    pub id: u32,
    role: RouterRole,
    /// The epoch last led under — the stamp.
    epoch: u64,
    /// The highest epoch seen anywhere: claimed, refused at, mirrored
    /// from a pong or from the durable membership image.
    seen: u64,
    led: Vec<u64>,
    health: BTreeMap<u32, Health>,
    probes: u64,
}

impl Authority {
    /// Puts the router on the mirroring side.
    pub fn stand_by(&mut self) {
        self.role = RouterRole::Standby;
    }

    /// Current role.
    pub fn role(&self) -> RouterRole {
        self.role
    }

    /// Every epoch led, in acquisition order.
    pub fn led(&self) -> &[u64] {
        &self.led
    }

    /// The failure detector's verdict on `shard`.
    pub fn health(&self, shard: u32) -> HealthState {
        self.health.get(&shard).copied().unwrap_or_default().state
    }

    /// The `(router, epoch)` stamp of a control frame: the epoch is the
    /// one last led under.
    pub fn stamp(&self) -> (u32, u64) {
        (self.id, self.epoch)
    }

    /// The stamp of the next claim: one past every epoch seen.
    pub fn claim(&self) -> (u32, u64) {
        (self.id, self.seen.max(self.epoch) + 1)
    }

    /// The grant round for `epoch` is over: `granted` of `members`
    /// acked. The epoch is spent either way (the shards that granted it
    /// will not again); on a majority this router leads under it.
    pub fn claimed(&mut self, epoch: u64, granted: usize, members: usize) -> bool {
        self.seen = self.seen.max(epoch);
        let won = granted * 2 > members;
        if won {
            self.epoch = epoch;
            self.role = RouterRole::Leader;
            self.led.push(epoch);
        }
        won
    }

    /// A shard refused a frame of ours and named `epoch`: the one place
    /// a stale answer is acted on. A claimant's refusal only teaches it
    /// the epoch to claim above. Returns whether this stood a leader
    /// down.
    pub fn refused(&mut self, asked: Asked, epoch: u64) -> bool {
        self.seen = self.seen.max(epoch);
        let stands_down = asked == Asked::Control && self.role == RouterRole::Leader;
        if stands_down {
            self.role = RouterRole::Standby;
        }
        stands_down
    }

    /// The nonce of the next probe.
    pub fn nonce(&mut self) -> u64 {
        let nonce = self.probes;
        self.probes += 1;
        nonce
    }

    /// `shard` answered a probe with `view`. A standby only mirrors the
    /// epoch; a leader either learns someone newer leads — and stands
    /// down, before touching membership — or clears the shard's
    /// suspicion.
    pub fn pong(&mut self, shard: u32, view: LeaseView) -> Result<(), Stale> {
        self.seen = self.seen.max(view.epoch);
        if self.role == RouterRole::Leader {
            if view.epoch > self.epoch && view.holder != self.id {
                self.role = RouterRole::Standby;
                return Err(Stale);
            }
            self.mark(shard, HealthState::Alive);
        }
        Ok(())
    }

    /// `shard` missed a probe.
    pub fn miss(&mut self, shard: u32) -> Miss {
        let health = self.health.entry(shard).or_default();
        health.misses += 1;
        let suspected = health.misses >= SUSPECT_MISSES && health.state == HealthState::Alive;
        if suspected {
            health.state = HealthState::Suspect;
        }
        Miss {
            suspected,
            evict: health.misses >= EVICT_MISSES,
        }
    }

    /// Whether a standby's round saw the lease expire; `ages` has one
    /// entry per shard that answered.
    pub fn expired(&self, ages: &[u32], members: usize) -> bool {
        ages.iter().filter(|&&age| age >= EXPIRY_TICKS).count() * 2 > members
    }

    /// Moves `shard` to `state`; an `Alive` shard starts with no misses.
    pub fn mark(&mut self, shard: u32, state: HealthState) {
        let health = self.health.entry(shard).or_default();
        health.state = state;
        if state == HealthState::Alive {
            health.misses = 0;
        }
    }

    /// The durable membership image was mirrored: its epoch is noted,
    /// and members this router had evicted on its own are alive again —
    /// the image is what the leader vouches for.
    pub fn mirrored(&mut self, epoch: u64, members: &[u32]) {
        self.seen = self.seen.max(epoch);
        for &member in members {
            if self.health(member) == HealthState::Evicted {
                self.mark(member, HealthState::Alive);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(epoch: u64, holder: u32, age: u32) -> LeaseView {
        LeaseView { epoch, holder, age }
    }

    fn leader(id: u32, epoch: u64) -> Authority {
        let mut a = Authority {
            id,
            ..Authority::default()
        };
        assert!(a.claimed(epoch, 1, 1));
        a
    }

    #[test]
    fn grant_is_honored_only_above_every_epoch_before() {
        let mut lease = Lease::default();
        assert_eq!(lease.view(), view(0, NO_ROUTER, 0));
        assert_eq!(lease.grant(1, 5), Ok(()));
        assert_eq!(lease.view(), view(5, 1, 0));
        let held = view(5, 1, 0);
        assert_eq!(lease.grant(2, 4), Err(held), "epoch - 1");
        assert_eq!(lease.grant(2, 5), Err(held), "epoch, by another");
        assert_eq!(lease.grant(1, 5), Err(held), "epoch, by the holder");
        assert_eq!(lease.grant(2, 6), Ok(()), "epoch + 1");
        assert_eq!(lease.view(), view(6, 2, 0));
        assert_eq!(lease.grants(), [(5, 1), (6, 2)]);
        // Epoch 0 is never granted: a vacant lease is adopted, not won.
        assert!(Lease::default().grant(1, 0).is_err());
    }

    #[test]
    fn admit_takes_the_holder_a_newer_epoch_and_the_first_claimant_of_a_vacant_one() {
        let mut lease = Lease::default();
        // Vacant at epoch 0: the first stamp is adopted, the next
        // router's is refused.
        assert_eq!(lease.admit(0, 0), Ok(()));
        assert_eq!(lease.view(), view(0, 0, 0));
        let held = view(0, 0, 0);
        assert_eq!(lease.admit(1, 0), Err(held), "another router, same epoch");
        assert_eq!(lease.admit(0, 0), Ok(()), "the holder");

        lease.grant(1, 3).unwrap();
        let held = view(3, 1, 0);
        assert_eq!(lease.admit(1, 2), Err(held), "the holder's older epoch");
        assert_eq!(lease.admit(2, 3), Err(held), "another router");
        assert_eq!(lease.view(), view(3, 1, 0), "a refusal changes nothing");
        // A shard that missed the grant round catches up on the first
        // stamp of the newer epoch; adoption is not a grant.
        assert_eq!(lease.admit(2, 4), Ok(()));
        assert_eq!(lease.view(), view(4, 2, 0));
        assert_eq!(lease.grants(), [(3, 1)]);
    }

    #[test]
    fn the_lease_ages_on_probes_and_a_renewal_resets_it() {
        let mut lease = Lease::default();
        lease.grant(1, 1).unwrap();
        assert_eq!(lease.probed(), view(1, 1, 1));
        assert_eq!(lease.probed(), view(1, 1, 2));
        assert!(lease.admit(9, 1).is_err());
        assert_eq!(lease.view().age, 2, "a refused renewal resets nothing");
        assert_eq!(lease.admit(1, 1), Ok(()));
        assert_eq!(lease.view().age, 0);
        assert_eq!(lease.probed().age, 1);
        // A new grant starts a fresh clock.
        lease.grant(2, 2).unwrap();
        assert_eq!(lease.view().age, 0);
    }

    #[test]
    fn a_claim_goes_one_past_everything_seen_and_leads_on_a_majority_only() {
        let mut a = Authority {
            id: 1,
            ..Authority::default()
        };
        assert_eq!(a.stamp(), (1, 0));
        assert_eq!(a.claim(), (1, 1));
        // 1 of 2 is no majority: the epoch is spent, nothing else moves.
        a.stand_by();
        assert!(!a.claimed(1, 1, 2));
        assert_eq!((a.role(), a.stamp()), (RouterRole::Standby, (1, 0)));
        assert_eq!(a.claim(), (1, 2));
        assert!(a.claimed(2, 2, 3), "2 of 3");
        assert_eq!((a.role(), a.stamp()), (RouterRole::Leader, (1, 2)));
        assert!(a.claimed(3, 1, 1), "1 of 1");
        assert!(!a.claimed(4, 0, 0), "nobody to grant");
        assert!(!a.claimed(5, 2, 4), "half is not most");
        assert_eq!(a.led(), [2, 3]);
        // An epoch heard of anywhere pushes the next claim past it.
        a.mirrored(9, &[]);
        assert_eq!(a.claim(), (1, 10));
    }

    #[test]
    fn a_refusal_stands_a_leader_down_unless_it_was_only_claiming() {
        let mut a = leader(1, 1);
        assert!(!a.refused(Asked::Claim, 7), "a claimant only learns");
        assert_eq!(a.role(), RouterRole::Leader);
        assert_eq!(a.claim(), (1, 8));
        assert!(a.refused(Asked::Control, 9));
        assert_eq!(a.role(), RouterRole::Standby);
        assert_eq!(a.stamp(), (1, 1), "still the epoch it led under");
        assert_eq!(a.claim(), (1, 10));
        assert!(
            !a.refused(Asked::Control, 9),
            "a standby has nothing to lose"
        );
        assert_eq!(a.led(), [1]);
    }

    #[test]
    fn a_pong_clears_suspicion_or_deposes_the_leader() {
        let mut a = leader(1, 2);
        a.miss(4);
        assert_eq!(a.health(4), HealthState::Suspect);
        assert_eq!(a.pong(4, view(2, 1, 5)), Ok(()));
        assert_eq!(a.health(4), HealthState::Alive);
        // Our own newer epoch (a shard that adopted it) deposes nobody;
        // another router's equal epoch cannot exist; its newer one does.
        assert_eq!(a.pong(4, view(2, 7, 0)), Ok(()));
        a.miss(4);
        assert_eq!(a.pong(4, view(3, 2, 0)), Err(Stale));
        assert_eq!(a.role(), RouterRole::Standby);
        assert_eq!(a.health(4), HealthState::Suspect, "deposed before health");
        assert_eq!(a.claim(), (1, 4));
        // A standby mirrors the epoch and tracks no health.
        assert_eq!(a.pong(4, view(6, 2, 0)), Ok(()));
        assert_eq!(a.health(4), HealthState::Suspect);
        assert_eq!(a.claim(), (1, 7));
    }

    #[test]
    fn the_first_miss_suspects_and_the_second_evicts() {
        let mut a = Authority::default();
        let suspected = Miss {
            suspected: true,
            evict: false,
        };
        let evict = Miss {
            suspected: false,
            evict: true,
        };
        assert_eq!(a.miss(3), suspected);
        assert_eq!(a.health(3), HealthState::Suspect);
        assert_eq!(a.miss(3), evict, "suspected once");
        assert_eq!(a.miss(3), evict, "until somebody evicts it");
        assert_eq!(a.health(7), HealthState::Alive, "never probed");
        // An answered probe starts the count again.
        assert_eq!(a.pong(8, view(0, 0, 0)), Ok(()));
        assert_eq!(a.miss(8), suspected);
        assert_eq!(a.pong(8, view(0, 0, 0)), Ok(()));
        assert_eq!(a.health(8), HealthState::Alive);
        assert_eq!(a.miss(8), suspected, "one miss again, not the second");
    }

    #[test]
    fn the_lease_expires_when_most_members_report_it_old() {
        let a = Authority::default();
        assert!(!a.expired(&[], 3), "nobody answered");
        assert!(!a.expired(&[1, 1, 1], 3), "one tick below");
        assert!(!a.expired(&[2, 0, 1], 3), "1 of 3");
        assert!(a.expired(&[2, 3], 3), "2 of 3, the third silent");
        assert!(!a.expired(&[2], 2), "1 of 2");
        assert!(a.expired(&[5], 1), "1 of 1");
    }

    #[test]
    fn mirroring_revives_evicted_members_only() {
        let mut a = Authority::default();
        a.mark(1, HealthState::Evicted);
        a.mark(2, HealthState::Evicted);
        a.mark(3, HealthState::Rejoining);
        a.miss(4);
        a.mirrored(5, &[1, 3, 4]);
        assert_eq!(a.health(1), HealthState::Alive);
        assert_eq!(a.health(2), HealthState::Evicted, "not a member");
        assert_eq!(a.health(3), HealthState::Rejoining);
        assert_eq!(a.health(4), HealthState::Suspect);
        assert_eq!(a.claim(), (0, 6));
    }
}
