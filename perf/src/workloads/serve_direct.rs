//! `serve_direct`: `W` closed-loop clients, each `submit` then
//! `Ticket::wait`, into one `CompileService` whose 256 KiB store budget
//! makes the LRU evict. Serve (admission, single-flight, queue, shared
//! store under eviction) over small compiles; it bypasses the fabric,
//! so a wire, transport or replication change must not move it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ccm2_serve::{
    CompileOutcome, CompileRequest, CompileService, ServeConfig, ServiceStats, StoreStats,
};

use crate::harness::{Ctx, Layers, Tally, Window};
use crate::inputs::{ServeChunk, ServeStream, CHUNK_EVENTS};
use crate::span::Tracer;
use crate::stats::{self, percentile, sorted};
use crate::verify::matches;
use crate::workloads::scaled;

pub fn trace_ops(seconds: f64) -> u64 {
    scaled(600.0, seconds, 50)
}

/// The per-service configuration of this workload and of `fabric_tcp`'s
/// shards: a store small enough that the stream's working set does not
/// fit, so hits, misses and evictions all happen.
pub fn config(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        queue_capacity: 64,
        store_budget: 256 * 1024,
        ..ServeConfig::default()
    }
}

/// Resubmissions of a shed request before it counts as failed. With
/// `W` closed-loop clients and 64 queue slots nothing is shed today.
const SHED_RETRIES: u32 = 8;

fn serve(svc: &CompileService, req: &CompileRequest) -> Option<Arc<CompileOutcome>> {
    for _ in 0..=SHED_RETRIES {
        if let Some(ticket) = svc.submit(req.clone()).ticket() {
            return Some(ticket.wait());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    None
}

/// Name of the span around each client call.
pub const REQUEST: &str = "request";

/// What one client call returned, with its latency.
pub struct Served<O> {
    pub at: usize,
    pub lat_us: u64,
    pub outcome: Option<O>,
}

/// Runs `call` over `requests` from `clients` closed-loop threads that
/// share one cursor, each through a fork of `tally`. Results come back
/// in request order.
pub fn drive<O: Send>(
    requests: &[CompileRequest],
    clients: usize,
    tracer: Option<&Tracer>,
    first_op: u32,
    tally: &mut Tally,
    call: impl Fn(&CompileRequest) -> Option<O> + Sync,
) -> Vec<Served<O>> {
    let cursor = AtomicUsize::new(0);
    let mut served = Vec::new();
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..clients)
            .map(|_| {
                let mut tally = tally.fork();
                let (cursor, call) = (&cursor, &call);
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let at = cursor.fetch_add(1, Ordering::Relaxed);
                        if at >= requests.len() {
                            return (mine, tally);
                        }
                        let outcome = tally.op(|| match tracer {
                            Some(tr) => {
                                tr.span(REQUEST, first_op + at as u32, 0, || call(&requests[at]))
                            }
                            None => call(&requests[at]),
                        });
                        mine.push(Served {
                            at,
                            lat_us: tally.last_us(),
                            outcome,
                        });
                    }
                })
            })
            .collect();
        for client in clients {
            let (mine, theirs) = client.join().expect("client thread panicked");
            served.extend(mine);
            tally.merge(theirs);
        }
    });
    served.sort_by_key(|s| s.at);
    served
}

/// Sums of service and store counters (one service here, two shards in
/// `fabric_tcp`) turned into the `serve.*` layers.
pub fn serve_layers(services: &[(ServiceStats, StoreStats)], layers: &mut Layers) {
    let sum = |f: fn(&ServiceStats) -> u64| services.iter().map(|(s, _)| f(s)).sum::<u64>() as f64;
    let store = |f: fn(&StoreStats) -> u64| services.iter().map(|(_, s)| f(s)).sum::<u64>() as f64;
    let (submitted, joined) = (sum(|s| s.submitted), sum(|s| s.joined));
    layers.insert("serve.submitted", submitted);
    layers.insert("serve.joined", joined);
    layers.insert(
        "serve.shed",
        sum(|s| s.shed + s.quota_shed + s.deadline_shed),
    );
    layers.insert("serve.compiled", sum(|s| s.compiled));
    layers.insert("serve.dedup_ratio", joined / submitted.max(1.0));
    let (hits, misses) = (store(|s| s.hits), store(|s| s.misses));
    layers.insert("serve.store_hit_ratio", hits / (hits + misses).max(1.0));
    layers.insert("serve.store_evictions", store(|s| s.evictions));
    layers.insert("serve.store_peak_bytes", store(|s| s.peak_bytes));
}

pub fn round(ctx: &Ctx, win: &mut Window, layers: &mut Layers) -> f64 {
    let t0 = Instant::now();
    let svc = CompileService::start(config(ctx.w));
    let mut stream = ServeStream::new(ctx.seed, win.round, ctx.w);
    let mut chunk = stream.chunk(CHUNK_EVENTS.min(win.ops_left()));
    let setup = t0.elapsed().as_secs_f64();

    let tracer = win.tracer.clone();
    let (mut queue_wait_us, mut compile_us) = (Vec::new(), Vec::new());
    loop {
        let first_op = win.lat_us.len() as u32;
        let served = win.batch(ctx.w, |tally| {
            let tracer = tracer.as_deref();
            drive(&chunk.requests, ctx.w, tracer, first_op, tally, |req| {
                serve(&svc, req)
            })
        });
        let bad = check(&chunk, &served, |o| (&o.object, &o.diagnostics, o.ok));
        win.checked(served.len() as u64, bad);
        if tracer.is_some() {
            for s in &served {
                if let Some(o) = &s.outcome {
                    queue_wait_us.push(s.lat_us.saturating_sub(o.wall_micros));
                    compile_us.push(o.wall_micros);
                }
            }
        }
        if win.done() {
            break;
        }
        chunk = stream.chunk(CHUNK_EVENTS.min(win.ops_left()));
    }

    if tracer.is_some() {
        layers.insert("proc.mappings_end", stats::mappings() as f64);
        serve_layers(&[(svc.stats(), svc.store().stats())], layers);
        // What a ticket waited for beyond its compile: admission, the
        // queue, and the hand-back.
        layers.insert(
            "serve.queue_wait_us_p50",
            percentile(&sorted(queue_wait_us), 0.5) as f64,
        );
        layers.insert(
            "serve.compile_us_p50",
            percentile(&sorted(compile_us), 0.5) as f64,
        );
    }
    setup
}

/// Compares every answer of a chunk with the sequential compiler's;
/// returns how many were wrong, not ok, or missing.
pub fn check<O>(
    chunk: &ServeChunk,
    served: &[Served<O>],
    parts: impl Fn(&O) -> (&Option<Vec<u8>>, &Vec<String>, bool),
) -> u64 {
    served
        .iter()
        .filter(|s| {
            !s.outcome.as_ref().is_some_and(|o| {
                let (object, diagnostics, ok) = parts(o);
                ok && matches(object, diagnostics, &chunk.want[s.at])
            })
        })
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drive_serves_every_request_once_in_order_from_all_clients() {
        let chunk = ServeStream::new(0, 0, 3).chunk(40);
        let mut tally = Tally::new(true);
        let served = drive(&chunk.requests, 3, None, 0, &mut tally, |req| {
            Some(req.source.len())
        });
        assert_eq!(served.len(), 40);
        assert_eq!((tally.lat_us.len(), tally.slice_ns.len()), (40, 40));
        for (i, s) in served.iter().enumerate() {
            assert_eq!(s.at, i);
            assert_eq!(s.outcome, Some(chunk.requests[i].source.len()));
        }
    }

    #[test]
    fn check_counts_wrong_missing_and_not_ok_answers() {
        let chunk = ServeStream::new(0, 0, 1).chunk(4);
        let good = |at: usize| (*chunk.want[at]).clone();
        let served = vec![
            Served {
                at: 0,
                lat_us: 1,
                outcome: Some((good(0), true)),
            },
            Served {
                at: 1,
                lat_us: 1,
                outcome: Some(((None, Vec::new()), true)),
            },
            Served {
                at: 2,
                lat_us: 1,
                outcome: None,
            },
            Served {
                at: 3,
                lat_us: 1,
                outcome: Some((good(3), false)),
            },
        ];
        let bad = check(&chunk, &served, |(c, ok)| (&c.0, &c.1, *ok));
        assert_eq!(bad, 3);
    }
}
