//! `fabric_tcp`: the `serve_direct` request stream, sent by `W`
//! closed-loop clients through `FabricClient::serve` to one
//! `FabricRouter` and on to two single-worker `ShardNode`s behind
//! `TcpShardServer`/`TcpTransport` on 127.0.0.1, heartbeats off. On top
//! of serve this adds `CCM2WIRE` encode and decode, a TCP connect per
//! call, ring routing, router single-flight and the per-compile
//! Sync→DeltaShip fan-out.
//!
//! # The leak guard
//!
//! `TcpShardServer` keeps the `JoinHandle` of every connection thread
//! until `stop()`, so each request leaves about four memory mappings
//! behind (a thread stack and its guard page for each of its
//! connections) and a long run aborts when the process reaches
//! `vm.max_map_count`. Every round therefore starts a fresh fleet and
//! caps its ops so that 4.5 mappings per op stay under three quarters
//! of the limit; a round with room for fewer than [`MIN_ROUND_OPS`] is
//! skipped and reported as failed instead of aborting the run. The
//! change that makes the server reap its handles can drop the cap in a
//! follow-up benchmark change.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use ccm2_fabric::{
    decode_frame, encode_frame, FabricClient, FabricRouter, FrameHandler, ShardNode,
    TcpShardServer, TcpTransport, Transport, WireOutcome,
};
use ccm2_serve::{CompileService, ServeConfig};

use crate::decor::{
    tag_kind, FrameKind, MeteredHandler, MeteredTransport, FABRIC_CALL, FABRIC_HANDLE,
};
use crate::harness::{Ctx, Layers, Tally, Window};
use crate::inputs::{ServeStream, CHUNK_EVENTS};
use crate::span::{adopt, self_ns, Span, Tracer, NONE};
use crate::stats::{self, percentile, sorted};
use crate::workloads::scaled;
use crate::workloads::serve_direct::{self, check, drive, serve_layers, REQUEST};

pub fn trace_ops(seconds: f64) -> u64 {
    scaled(250.0, seconds, 50)
}

/// Mappings one request leaves behind, with head-room (measured: 4).
const MAPPINGS_PER_OP: f64 = 4.5;
/// Share of `vm.max_map_count` a round may grow the process to.
const MAP_SHARE: f64 = 0.75;
/// A round with room for fewer ops than this is skipped.
const MIN_ROUND_OPS: usize = 500;

/// Ops a fresh fleet may serve before the leak endangers the process.
fn leak_cap() -> usize {
    let room = MAP_SHARE * stats::max_map_count() as f64 - stats::mappings() as f64;
    (room / MAPPINGS_PER_OP).max(0.0) as usize
}

/// Two or more shards behind TCP, one router, one client.
pub struct Fleet {
    pub client: FabricClient,
    pub router: Arc<FabricRouter>,
    pub nodes: Vec<Arc<ShardNode>>,
    /// The transport decorator, in a traced round.
    pub wire: Option<Arc<MeteredTransport>>,
    // Dropped last: stopping a server joins its connection threads.
    _servers: Vec<TcpShardServer>,
}

impl Fleet {
    /// Starts `shards` nodes with `config` each on an ephemeral port.
    /// With a tracer, the transport and every handler are decorated.
    pub fn start(shards: u32, config: ServeConfig, tracer: Option<&Arc<Tracer>>) -> Fleet {
        let tcp = Arc::new(TcpTransport::new());
        let mut servers = Vec::new();
        let nodes: Vec<Arc<ShardNode>> = (0..shards)
            .map(|id| Arc::new(ShardNode::start(id, config)))
            .collect();
        for node in &nodes {
            let plain = Arc::clone(node) as Arc<dyn FrameHandler>;
            let handler = match tracer {
                Some(t) => Arc::new(MeteredHandler::new(plain, node.id(), Arc::clone(t))),
                None => plain,
            };
            let server = TcpShardServer::serve(handler).expect("bind 127.0.0.1:0");
            tcp.register(node.id(), server.addr());
            servers.push(server);
        }
        let wire = tracer.map(|t| {
            Arc::new(MeteredTransport::new(
                Arc::clone(&tcp) as Arc<dyn Transport>,
                Arc::clone(t),
            ))
        });
        let transport = match &wire {
            Some(w) => Arc::clone(w) as Arc<dyn Transport>,
            None => tcp as Arc<dyn Transport>,
        };
        let router = Arc::new(FabricRouter::new(transport));
        Fleet {
            client: FabricClient::new(vec![Arc::clone(&router)]),
            router,
            nodes,
            wire,
            _servers: servers,
        }
    }
}

pub fn round(ctx: &Ctx, win: &mut Window, layers: &mut Layers) -> f64 {
    let t0 = Instant::now();
    let tracer = win.tracer.clone();
    let fleet = Fleet::start(2, serve_direct::config(1), tracer.as_ref());
    let mut room = leak_cap();
    if room < MIN_ROUND_OPS {
        win.notes.push(format!(
            "fabric_tcp round skipped and counted as failed: {} mappings of {} leave room for \
             {room} requests at {MAPPINGS_PER_OP} mappings each (TcpShardServer keeps every \
             connection's JoinHandle until stop())",
            stats::mappings(),
            stats::max_map_count()
        ));
        win.checked(1, 1);
        return t0.elapsed().as_secs_f64();
    }
    let events = |win: &Window, room: usize| CHUNK_EVENTS.min(win.ops_left()).min(room);
    let mut stream = ServeStream::new(ctx.seed, win.round, ctx.w);
    let mut chunk = stream.chunk(events(win, room));
    let setup = t0.elapsed().as_secs_f64();

    let mut compile_us: Vec<(u32, u64)> = Vec::new();
    loop {
        let first_op = win.lat_us.len() as u32;
        let served = win.batch(ctx.w, |tally| {
            let tracer = tracer.as_deref();
            drive(&chunk.requests, ctx.w, tracer, first_op, tally, |req| {
                fleet.client.serve(req).outcome().cloned()
            })
        });
        let bad = check(&chunk, &served, |o: &WireOutcome| {
            (&o.object, &o.diagnostics, o.ok)
        });
        win.checked(served.len() as u64, bad);
        if tracer.is_some() {
            compile_us.extend(served.iter().filter_map(|s| {
                let o = s.outcome.as_ref()?;
                Some((first_op + s.at as u32, o.wall_micros))
            }));
        }
        room -= served.len().min(room);
        if win.done() {
            break;
        }
        if room == 0 {
            win.notes.push(format!(
                "fabric_tcp round ended early at the leak guard's op cap, {} requests",
                win.lat_us.len()
            ));
            break;
        }
        chunk = stream.chunk(events(win, room));
    }
    let failovers = fleet.router.stats().failovers;
    if failovers > 0 {
        win.notes.push(format!(
            "{failovers} shard failovers on a fault-free fleet, counted as failed"
        ));
        win.checked(0, failovers);
    }

    if let Some(t) = &tracer {
        layers.insert("proc.mappings_end", stats::mappings() as f64);
        let p50 = percentile(&sorted(win.lat_us.clone()), 0.5) as f64;
        t.with_spans(|spans| {
            adopt(spans, FABRIC_HANDLE, FABRIC_CALL);
            span_layers(spans, &compile_us, layers);
        });
        fleet_layers(&fleet, layers);
        // The same requests straight into one service, for the price of
        // the hop.
        let direct = CompileService::start(serve_direct::config(ctx.w));
        let first =
            ServeStream::new(ctx.seed, win.round, ctx.w).chunk(CHUNK_EVENTS.min(win.lat_us.len()));
        let served = drive(
            &first.requests,
            ctx.w,
            None,
            0,
            &mut Tally::new(false),
            |req| direct.submit(req.clone()).ticket().map(|t| t.wait()),
        );
        let direct_p50 = percentile(&sorted(served.iter().map(|s| s.lat_us).collect()), 0.5);
        layers.insert("fabric.hop_ratio_p50", p50 / direct_p50.max(1) as f64);
    }
    setup
}

fn p50_us(ns: Vec<u64>) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    percentile(&sorted(ns), 0.5) as f64 / 1e3
}

/// Where a request's time went, from the spans: the client call, the
/// router's own share (client span minus its `Transport::call`
/// children), the wire's share (call minus `FrameHandler::handle`:
/// connect, write, read), the shard's share (handle minus the compile),
/// and the replication calls per request.
fn span_layers(spans: &[Span], compile_us: &[(u32, u64)], layers: &mut Layers) {
    let own = self_ns(spans);
    let ops = spans
        .iter()
        .filter(|s| s.name == REQUEST)
        .map(|s| s.op + 1)
        .max()
        .unwrap_or(0) as usize;
    let mut wall_us = vec![None; ops];
    for &(op, us) in compile_us {
        wall_us[op as usize] = Some(us);
    }
    let (mut client, mut router) = (Vec::new(), Vec::new());
    let mut wire = vec![0u64; ops];
    let mut called = vec![false; ops];
    let (mut shard, mut replication_ns) = (Vec::new(), 0u64);
    for (s, &own_ns) in spans.iter().zip(&own) {
        match s.name {
            REQUEST => {
                client.push(s.dur_ns());
                router.push(own_ns);
            }
            FABRIC_CALL if s.op != NONE => {
                wire[s.op as usize] += own_ns;
                called[s.op as usize] = true;
                if matches!(tag_kind(s.tag), FrameKind::Sync | FrameKind::DeltaShip) {
                    replication_ns += s.dur_ns();
                }
            }
            FABRIC_HANDLE if s.op != NONE && tag_kind(s.tag) == FrameKind::Compile => {
                if let Some(us) = wall_us[s.op as usize] {
                    shard.push(s.dur_ns().saturating_sub(us * 1000));
                }
            }
            _ => {}
        }
    }
    let wire: Vec<u64> = wire
        .into_iter()
        .zip(called)
        .filter_map(|(ns, called)| called.then_some(ns))
        .collect();
    layers.insert(
        "fabric.replication_us_per_req",
        replication_ns as f64 / 1e3 / client.len().max(1) as f64,
    );
    layers.insert("fabric.client_us_p50", p50_us(client));
    layers.insert("fabric.router_self_us_p50", p50_us(router));
    layers.insert("fabric.wire_self_us_p50", p50_us(wire));
    // On a shard the time outside the compile is decode, admission,
    // queueing and encode: the service's queue wait as the fabric sees it.
    let shard_p50 = p50_us(shard);
    layers.insert("fabric.shard_self_us_p50", shard_p50);
    layers.insert("serve.queue_wait_us_p50", shard_p50);
    layers.insert(
        "serve.compile_us_p50",
        p50_us(compile_us.iter().map(|&(_, us)| us * 1000).collect()),
    );
}

/// Counters of the router, the client, the shards' services and the
/// transport decorator, and the codec timed alone on captured frames.
fn fleet_layers(fleet: &Fleet, layers: &mut Layers) {
    let router = fleet.router.stats();
    layers.insert("fabric.ships", router.ships as f64);
    layers.insert("fabric.shipped_ops", router.shipped_ops as f64);
    layers.insert("fabric.joined", router.joined as f64);
    layers.insert("fabric.client_retries", fleet.client.stats().retries as f64);

    let services: Vec<_> = fleet
        .nodes
        .iter()
        .map(|n| (n.service().stats(), n.service().store().stats()))
        .collect();
    serve_layers(&services, layers);

    let Some(wire) = &fleet.wire else { return };
    let c = &wire.counters;
    let frames = |kind: FrameKind| c.frames[kind as usize].load(Ordering::Relaxed) as f64;
    let mean_bytes = |kind: FrameKind| {
        c.frame_bytes[kind as usize].load(Ordering::Relaxed) as f64 / frames(kind).max(1.0)
    };
    layers.insert("fabric.frames.compile", frames(FrameKind::Compile));
    layers.insert("fabric.frames.sync", frames(FrameKind::Sync));
    layers.insert("fabric.frames.deltaship", frames(FrameKind::DeltaShip));
    layers.insert("fabric.frame_bytes.compile", mean_bytes(FrameKind::Compile));
    layers.insert(
        "fabric.frame_bytes.deltaship",
        mean_bytes(FrameKind::DeltaShip),
    );
    layers.insert(
        "fabric.frame_bytes.outcome",
        c.outcome_bytes.load(Ordering::Relaxed) as f64 / frames(FrameKind::Compile).max(1.0),
    );

    let samples = c.samples.lock().expect("sampler never panics");
    let mb = samples.iter().map(Vec::len).sum::<usize>() as f64 / 1e6;
    let t = Instant::now();
    let messages: Vec<_> = samples.iter().filter_map(|f| decode_frame(f)).collect();
    let decode_us = t.elapsed().as_secs_f64() * 1e6;
    let t = Instant::now();
    for m in &messages {
        std::hint::black_box(encode_frame(m));
    }
    let encode_us = t.elapsed().as_secs_f64() * 1e6;
    if mb > 0.0 {
        layers.insert("fabric.decode_us_per_mb", decode_us / mb);
        layers.insert("fabric.encode_us_per_mb", encode_us / mb);
    }
}
