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
//! The retry loop is the fleet-level mirror of the admission-retry
//! budget inside one service (`ccm2_serve::CompileService::serve_batch`):
//! bounded attempts, hint-driven back-off, and an honest
//! [`FabricResponse::Retry`] when the budget is gone.

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
    /// `serve` calls.
    pub serves: u64,
    /// Calls that ended in a [`FabricResponse::Done`].
    pub served: u64,
    /// `Retry` answers absorbed by the loop (each costs one attempt).
    pub retries: u64,
    /// Times the loop moved to a different router (shutdown skip or
    /// post-`Retry` rotation).
    pub router_rotations: u64,
    /// Milliseconds of back-off hints honored (after the per-hint cap).
    pub hint_ms_honored: u64,
    /// Calls that exhausted the attempt budget.
    pub exhausted: u64,
}

/// See the module docs.
pub struct FabricClient {
    routers: Vec<Arc<FabricRouter>>,
    preferred: AtomicUsize,
    max_attempts: u32,
    stats: Mutex<ClientRetryStats>,
}

impl FabricClient {
    /// A client over `routers` (at least one), preferring the first.
    pub fn new(routers: Vec<Arc<FabricRouter>>) -> FabricClient {
        assert!(!routers.is_empty(), "a client needs at least one router");
        FabricClient {
            routers,
            preferred: AtomicUsize::new(0),
            max_attempts: CLIENT_MAX_ATTEMPTS,
            stats: Mutex::new(ClientRetryStats::default()),
        }
    }

    /// Overrides the attempt budget (clamped to at least 1).
    pub fn with_max_attempts(mut self, attempts: u32) -> FabricClient {
        self.max_attempts = attempts.max(1);
        self
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
        self.stats.lock().serves += 1;
        let mut last = FabricResponse::Retry {
            after_ms: crate::router::DEFAULT_RETRY_AFTER_MS,
        };
        for attempt in 0..self.max_attempts {
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
                    if attempt + 1 < self.max_attempts {
                        let sleep = after_ms.min(CLIENT_MAX_SLEEP_MS);
                        self.stats.lock().hint_ms_honored += sleep;
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

    /// Serves a whole batch concurrently (one thread per request, the
    /// drill path) and returns responses in order.
    pub fn serve_batch(&self, requests: &[CompileRequest]) -> Vec<FabricResponse> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = requests
                .iter()
                .map(|req| scope.spawn(move || self.serve(req)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client serve thread panicked"))
                .collect()
        })
    }
}
