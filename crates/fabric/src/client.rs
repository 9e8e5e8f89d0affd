//! The fleet's client side: router-failover retry with back-off hints.
//!
//! A multi-router fleet (see `crate::router`) only survives router loss
//! if *somebody* moves the traffic: a [`FabricClient`] holds every
//! router of the fleet and retries a [`FabricResponse::Retry`] against
//! the next one, honoring the `after_ms` back-off hint the shard (or
//! router) attached. The client is deliberately dumb about roles — it
//! neither knows nor cares which router currently holds the eviction
//! lease, because *serving* needs no authority: any live router can
//! route and dispatch. It only needs a live one, and the rotation plus
//! the [`FabricRouter::is_shutdown`] check find it.
//!
//! This is the fleet's one retry loop: a shard answers a shed once, at
//! once, with a [`FabricResponse::Retry`] and its hint, and nothing
//! between the shard and this loop resubmits. The loop makes
//! [`CLIENT_MAX_ATTEMPTS`] attempts with hint-driven back-off, then
//! returns an honest [`FabricResponse::Retry`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ccm2_serve::CompileRequest;
use parking_lot::Mutex;

use crate::router::{FabricResponse, FabricRouter};

/// Attempts before the client gives up and surfaces the last `Retry`.
pub const CLIENT_MAX_ATTEMPTS: u32 = 8;

/// Cap on one honored back-off hint; a shard drowning in queue depth
/// may suggest more, but a client that sleeps unboundedly turns a shed
/// into a hang.
pub const CLIENT_MAX_SLEEP_MS: u64 = 16;

/// Client-side retry counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientRetryStats {
    /// Calls that ended in a [`FabricResponse::Done`].
    pub served: u64,
    /// `Retry` answers absorbed by the loop (each costs one attempt).
    pub retries: u64,
    /// Times the loop moved to a different router (shutdown skip or
    /// post-`Retry` rotation).
    pub router_rotations: u64,
    /// Calls that exhausted the attempt budget.
    pub exhausted: u64,
}

/// See the module docs.
pub struct FabricClient {
    routers: Vec<Arc<FabricRouter>>,
    preferred: AtomicUsize,
    stats: Mutex<ClientRetryStats>,
}

impl FabricClient {
    /// A client over `routers` (at least one), preferring the first.
    pub fn new(routers: Vec<Arc<FabricRouter>>) -> FabricClient {
        assert!(!routers.is_empty(), "a client needs at least one router");
        FabricClient {
            routers,
            preferred: AtomicUsize::new(0),
            stats: Mutex::new(ClientRetryStats::default()),
        }
    }

    /// Client counters.
    pub fn stats(&self) -> ClientRetryStats {
        *self.stats.lock()
    }

    /// The router index the next serve will try first.
    pub fn preferred(&self) -> usize {
        self.preferred.load(Ordering::Relaxed) % self.routers.len()
    }

    /// Picks the preferred router, skipping shut-down ones; sticky
    /// across calls so a healthy fleet keeps one router's caches hot.
    fn pick(&self) -> usize {
        let n = self.routers.len();
        let start = self.preferred.load(Ordering::Relaxed) % n;
        for off in 0..n {
            let i = (start + off) % n;
            if !self.routers[i].is_shutdown() {
                if off != 0 {
                    self.preferred.store(i, Ordering::Relaxed);
                    self.stats.lock().router_rotations += 1;
                }
                return i;
            }
        }
        start // every router down: let the Retry surface
    }

    /// Rotates away from router `i` after a `Retry` from it.
    fn rotate_from(&self, i: usize) {
        let n = self.routers.len();
        if n > 1 {
            self.preferred.store((i + 1) % n, Ordering::Relaxed);
            self.stats.lock().router_rotations += 1;
        }
    }

    /// Serves one request through the fleet, failing over across
    /// routers and honoring back-off hints, until served or the
    /// attempt budget is gone.
    pub fn serve(&self, req: &CompileRequest) -> FabricResponse {
        let mut last = FabricResponse::Retry {
            after_ms: crate::router::DEFAULT_RETRY_AFTER_MS,
        };
        for attempt in 0..CLIENT_MAX_ATTEMPTS {
            let i = self.pick();
            match self.routers[i].serve(req) {
                FabricResponse::Done(out) => {
                    self.stats.lock().served += 1;
                    return FabricResponse::Done(out);
                }
                FabricResponse::Retry { after_ms } => {
                    self.stats.lock().retries += 1;
                    last = FabricResponse::Retry { after_ms };
                    self.rotate_from(i);
                    if attempt + 1 < CLIENT_MAX_ATTEMPTS {
                        let sleep = after_ms.min(CLIENT_MAX_SLEEP_MS);
                        if sleep > 0 {
                            std::thread::sleep(std::time::Duration::from_millis(sleep));
                        }
                    }
                }
            }
        }
        self.stats.lock().exhausted += 1;
        last
    }
}
