//! How frames move: the [`Transport`] trait and its two
//! implementations.
//!
//! * [`LoopbackTransport`] — in-process, deterministic, seedable. The
//!   fleet drills and the equivalence proptests run on it: a call is a
//!   direct `handle()` on the target shard, an optional seeded
//!   corruptor flips one byte in a reproducible subset of frames (to
//!   prove the `CCM2WIRE` checksum actually gates), and
//!   [`LoopbackTransport::kill`] makes a shard vanish mid-fleet the
//!   way a crashed process would: every later call fails with an I/O
//!   error.
//!
//!   On top of that sits a per-link **fault plan**
//!   ([`LoopbackTransport::set_link_faults`]): before call `n` on the
//!   link to shard `id`, the plan is queried at site `link:{id}#c{n}`
//!   — the same named-site idiom as `ccm2-faults`' `task:`/`store:`
//!   sites, so one seeded plan drives compiler-level and network-level
//!   chaos. The kinds map to network faults: `Panic` drops the frame
//!   (caller sees an I/O error, shard sees nothing), `LoseSignal` is a
//!   one-way partition (the shard handles the frame but the response
//!   is lost), `Stall { units }` defers delivery until `units` later
//!   calls on that link have passed (delay/reorder; the caller still
//!   errors, modeling a client timeout before the late arrival),
//!   `Duplicate` delivers the frame twice (at-least-once conduits),
//!   and `Corrupt { byte }` flips one byte. An exact site
//!   (`link:2#c17`) is a transient hiccup; a glob (`link:2#c*`) is a
//!   standing partition of that link.
//! * [`TcpTransport`] / [`TcpShardServer`] — real sockets on
//!   `127.0.0.1` with ephemeral ports, one frame per connection. The
//!   integration test runs the same router code over TCP to show the
//!   loopback results are not an artifact of skipping serialization.
//!
//! Both speak the exact same frames; the router cannot tell them
//! apart. That symmetry is the point: everything proven on the
//! deterministic transport holds on the socket one because the only
//! difference is the byte conduit.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use ccm2_support::hash::StableHasher;
use parking_lot::Mutex;

use crate::shard::ShardNode;
use crate::wire::{frame_len, FRAME_OVERHEAD};

/// Stall-deferred frames per link: `(due link-call number, frame)`.
type DeferredFrames = HashMap<u32, Vec<(u64, Vec<u8>)>>;

/// Largest payload a reader will allocate for (64 MiB — comfortably
/// above any compile outcome, far below a garbage length prefix).
pub const MAX_PAYLOAD: usize = 64 << 20;

/// Anything that can answer one `CCM2WIRE` frame with another.
pub trait FrameHandler: Send + Sync {
    /// Handles one request frame, returning the response frame.
    fn handle(&self, frame: &[u8]) -> Vec<u8>;
}

impl FrameHandler for ShardNode {
    fn handle(&self, frame: &[u8]) -> Vec<u8> {
        ShardNode::handle(self, frame)
    }
}

/// A way to deliver one frame to a shard and get its answer.
///
/// `call` is synchronous request/response; an `Err` means the shard is
/// unreachable (dead, refused, or the conduit broke) and the router
/// treats it as shard death. A *successful* call whose response fails
/// frame validation is **not** a transport error — that is the
/// checksum plane's business and the router retries.
pub trait Transport: Send + Sync {
    /// Delivers `frame` to `shard`, returning the response frame.
    fn call(&self, shard: u32, frame: &[u8]) -> io::Result<Vec<u8>>;

    /// Shards this transport can currently reach, ascending.
    fn shards(&self) -> Vec<u32>;

    /// Makes `shard` unreachable (test/drill hook). Returns whether it
    /// was reachable before. Transports that cannot kill return false.
    fn kill(&self, _shard: u32) -> bool {
        false
    }
}

/// In-process transport: shard id → handler, with optional seeded
/// frame corruption. See the module docs.
#[derive(Default)]
pub struct LoopbackTransport {
    endpoints: Mutex<HashMap<u32, Arc<dyn FrameHandler>>>,
    /// `(seed, rate_ppm)`: frame `n` is corrupted iff the stable hash
    /// of `(seed, n)` lands under `rate_ppm` parts per million —
    /// deterministic for a given seed and call order.
    corrupt: Option<(u64, u32)>,
    calls: AtomicU64,
    corrupted: AtomicU64,
    /// Per-link fault plan (`link:{id}#c{n}` sites) — swappable
    /// mid-run so drills can open and heal partitions.
    link_faults: Mutex<Option<Arc<ccm2_faults::FaultPlan>>>,
    /// Per-link call counters: the `n` in `link:{id}#c{n}`.
    link_calls: Mutex<HashMap<u32, u64>>,
    /// Frames whose delivery a `Stall` deferred: per link, `(due
    /// link-call number, frame)`. Delivered (response discarded) when
    /// the link's counter passes `due`.
    deferred: Mutex<DeferredFrames>,
    link_faults_fired: AtomicU64,
}

impl LoopbackTransport {
    /// A clean loopback: no corruption, no endpoints.
    pub fn new() -> LoopbackTransport {
        LoopbackTransport::default()
    }

    /// A loopback that flips one byte in a seeded `rate_ppm` fraction
    /// of request frames before delivery.
    pub fn with_corruption(seed: u64, rate_ppm: u32) -> LoopbackTransport {
        LoopbackTransport {
            corrupt: Some((seed, rate_ppm)),
            ..LoopbackTransport::default()
        }
    }

    /// Registers (or replaces) the handler for `shard`.
    pub fn register(&self, shard: u32, handler: Arc<dyn FrameHandler>) {
        self.endpoints.lock().insert(shard, handler);
    }

    /// Total calls attempted (including to dead shards).
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Frames the corruptor actually damaged.
    pub fn corrupted(&self) -> u64 {
        self.corrupted.load(Ordering::Relaxed)
    }

    /// Installs (or with `None`, heals) the per-link fault plan. Takes
    /// effect on the next call; drills flip this mid-run to open and
    /// close partitions. See the module docs for the site namespace
    /// (`link:{id}#c{n}`) and the kind → network-fault mapping.
    pub fn set_link_faults(&self, plan: Option<Arc<ccm2_faults::FaultPlan>>) {
        *self.link_faults.lock() = plan;
    }

    /// Link faults that actually fired (dropped, one-way'd, deferred,
    /// duplicated, or corrupted a delivery).
    pub fn link_faults_fired(&self) -> u64 {
        self.link_faults_fired.load(Ordering::Relaxed)
    }

    /// Delivers frames a `Stall` parked on this link whose due call
    /// number has passed; their responses are discarded (the callers
    /// that sent them already saw an error — late arrival after a
    /// client timeout).
    fn flush_deferred(&self, shard: u32, now: u64, handler: &Arc<dyn FrameHandler>) {
        let due: Vec<Vec<u8>> = {
            let mut deferred = self.deferred.lock();
            let Some(queue) = deferred.get_mut(&shard) else {
                return;
            };
            let mut ready = Vec::new();
            queue.retain(|(at, frame)| {
                if *at <= now {
                    ready.push(frame.clone());
                    false
                } else {
                    true
                }
            });
            ready
        };
        for frame in due {
            let _ = handler.handle(&frame);
        }
    }
}

impl Transport for LoopbackTransport {
    fn call(&self, shard: u32, frame: &[u8]) -> io::Result<Vec<u8>> {
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        let handler = self.endpoints.lock().get(&shard).cloned().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("shard {shard} is down"),
            )
        })?;
        let link_n = {
            let mut counts = self.link_calls.lock();
            let c = counts.entry(shard).or_insert(0);
            let n = *c;
            *c += 1;
            n
        };
        // Anything a Stall parked earlier on this link arrives now,
        // before the current frame — late delivery reorders the link.
        self.flush_deferred(shard, link_n, &handler);
        let link_fault = self
            .link_faults
            .lock()
            .as_ref()
            .and_then(|plan| plan.at(&format!("link:{shard}#c{link_n}")));
        let mut frame = std::borrow::Cow::Borrowed(frame);
        if let Some(kind) = link_fault {
            self.link_faults_fired.fetch_add(1, Ordering::Relaxed);
            match kind {
                ccm2_faults::FaultKind::Panic => {
                    // Dropped on the floor: the shard never sees it.
                    return Err(io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        format!("link to shard {shard} dropped the frame"),
                    ));
                }
                ccm2_faults::FaultKind::LoseSignal => {
                    // One-way partition: delivered, answer lost.
                    let _ = handler.handle(&frame);
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("response from shard {shard} lost"),
                    ));
                }
                ccm2_faults::FaultKind::Stall { units } => {
                    // Deferred delivery: the frame arrives `units`
                    // link-calls from now; the caller times out today.
                    self.deferred
                        .lock()
                        .entry(shard)
                        .or_default()
                        .push((link_n.saturating_add(units.max(1)), frame.into_owned()));
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("delivery to shard {shard} delayed past the call"),
                    ));
                }
                ccm2_faults::FaultKind::Duplicate => {
                    // At-least-once conduit: same frame, twice. The
                    // first response is discarded (the duplicate's
                    // answer is the one "this" call observes).
                    let _ = handler.handle(&frame);
                }
                ccm2_faults::FaultKind::Corrupt { byte } => {
                    if !frame.is_empty() {
                        let mut bad = frame.into_owned();
                        let at = byte % bad.len();
                        bad[at] ^= 0x55;
                        frame = std::borrow::Cow::Owned(bad);
                    }
                }
            }
        }
        if let Some((seed, rate_ppm)) = self.corrupt {
            let mut h = StableHasher::new();
            h.write_str("ccm2-fabric/loopback-corrupt");
            h.write_u64(seed);
            h.write_u64(n);
            let roll = h.finish().fold64();
            if !frame.is_empty() && roll % 1_000_000 < u64::from(rate_ppm) {
                self.corrupted.fetch_add(1, Ordering::Relaxed);
                let mut bad = frame.into_owned();
                let at = (roll / 1_000_000) as usize % bad.len();
                bad[at] ^= 0x55;
                return Ok(handler.handle(&bad));
            }
        }
        Ok(handler.handle(&frame))
    }

    fn shards(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.endpoints.lock().keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    fn kill(&self, shard: u32) -> bool {
        self.endpoints.lock().remove(&shard).is_some()
    }
}

/// Reads one complete frame off `r`: 16 header bytes, then exactly the
/// length the (not-yet-trusted) header announces. Validation of the
/// checksum happens later in `decode_frame`; this only bounds the read.
pub fn read_frame(r: &mut impl Read, max_payload: usize) -> io::Result<Vec<u8>> {
    let mut header = [0u8; 16];
    r.read_exact(&mut header)?;
    let total = frame_len(&header, max_payload).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "bad frame header (magic/version/length)",
        )
    })?;
    let mut frame = vec![0u8; total];
    frame[..16].copy_from_slice(&header);
    r.read_exact(&mut frame[16..])?;
    Ok(frame)
}

/// Socket transport: shard id → `127.0.0.1` address, one frame per
/// connection. Drill hooks mirror the loopback's link faults at the
/// granularity sockets allow: a **full partition** fails the call
/// before connecting (the shard sees nothing), a **one-way partition**
/// delivers the frame but abandons the response.
#[derive(Default)]
pub struct TcpTransport {
    peers: Mutex<HashMap<u32, SocketAddr>>,
    partitioned: Mutex<std::collections::HashSet<u32>>,
    one_way: Mutex<std::collections::HashSet<u32>>,
}

impl TcpTransport {
    /// An empty peer table.
    pub fn new() -> TcpTransport {
        TcpTransport::default()
    }

    /// Registers shard `id` at `addr` (a [`TcpShardServer::addr`]).
    pub fn register(&self, shard: u32, addr: SocketAddr) {
        self.peers.lock().insert(shard, addr);
    }

    /// Opens (`true`) or heals (`false`) a full partition of the link
    /// to `shard`: calls fail without touching the socket.
    pub fn set_partitioned(&self, shard: u32, cut: bool) {
        let mut p = self.partitioned.lock();
        if cut {
            p.insert(shard);
        } else {
            p.remove(&shard);
        }
    }

    /// Opens (`true`) or heals (`false`) a one-way partition: the
    /// frame is written and the shard handles it, but the caller
    /// abandons the connection instead of reading the answer.
    pub fn set_one_way(&self, shard: u32, cut: bool) {
        let mut p = self.one_way.lock();
        if cut {
            p.insert(shard);
        } else {
            p.remove(&shard);
        }
    }
}

impl Transport for TcpTransport {
    fn call(&self, shard: u32, frame: &[u8]) -> io::Result<Vec<u8>> {
        if self.partitioned.lock().contains(&shard) {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("link to shard {shard} partitioned"),
            ));
        }
        let addr = self.peers.lock().get(&shard).copied().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("shard {shard} is down"),
            )
        })?;
        let mut stream = TcpStream::connect(addr)?;
        stream.write_all(frame)?;
        stream.flush()?;
        if self.one_way.lock().contains(&shard) {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("response from shard {shard} lost"),
            ));
        }
        read_frame(&mut stream, MAX_PAYLOAD)
    }

    fn shards(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.peers.lock().keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Forgets the peer (later calls fail). The server process itself
    /// is stopped by whoever owns it — see [`TcpShardServer::stop`].
    fn kill(&self, shard: u32) -> bool {
        self.peers.lock().remove(&shard).is_some()
    }
}

/// An accept loop serving one [`FrameHandler`] on an ephemeral
/// `127.0.0.1` port; each connection is one frame in, one frame out,
/// handled on its own thread so slow compiles do not serialize the
/// fleet.
pub struct TcpShardServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    held: Arc<AtomicUsize>,
    accept_thread: Option<JoinHandle<()>>,
}

impl TcpShardServer {
    /// Binds an ephemeral port and starts accepting.
    pub fn serve(handler: Arc<dyn FrameHandler>) -> io::Result<TcpShardServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let held = Arc::new(AtomicUsize::new(0));
        let held_now = Arc::clone(&held);
        let accept_thread = std::thread::spawn(move || {
            let mut workers: Vec<JoinHandle<()>> = Vec::new();
            for stream in listener.incoming() {
                if stop_flag.load(Ordering::SeqCst) {
                    break;
                }
                // Reap as we go: an unjoined thread keeps its stack
                // mapped, and a long-lived server would run the process
                // into `vm.max_map_count`.
                for done in workers.extract_if(.., |w| w.is_finished()) {
                    let _ = done.join();
                }
                let Ok(stream) = stream else { continue };
                let handler = Arc::clone(&handler);
                workers.push(std::thread::spawn(move || {
                    serve_connection(stream, &*handler);
                }));
                held_now.store(workers.len(), Ordering::Relaxed);
            }
            for w in workers {
                let _ = w.join();
            }
        });
        Ok(TcpShardServer {
            addr,
            stop,
            held,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address, for [`TcpTransport::register`].
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connection threads the accept loop held unjoined after its last
    /// accept: the running ones, plus any that finished since. Bounded by
    /// the connections in flight, not by the requests served.
    pub fn held_threads(&self) -> usize {
        self.held.load(Ordering::Relaxed)
    }

    /// Stops accepting and joins the accept loop (a self-connection
    /// unblocks the blocking `accept`). In-flight connections finish.
    pub fn stop(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for TcpShardServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn serve_connection(mut stream: TcpStream, handler: &dyn FrameHandler) {
    let Ok(frame) = read_frame(&mut stream, MAX_PAYLOAD) else {
        return;
    };
    let response = handler.handle(&frame);
    let _ = stream.write_all(&response);
    let _ = stream.flush();
}

/// Frame overhead re-exported for size accounting in the drills.
pub const fn frame_overhead() -> usize {
    FRAME_OVERHEAD
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_frame, encode_frame, Message};

    /// Echoes `Ack` for any valid frame, `Reject` otherwise.
    struct AckHandler;

    impl FrameHandler for AckHandler {
        fn handle(&self, frame: &[u8]) -> Vec<u8> {
            match decode_frame(frame) {
                Some(_) => encode_frame(&Message::Ack),
                None => encode_frame(&Message::Reject {
                    reason: "bad frame".into(),
                    retry_after_ms: 0,
                }),
            }
        }
    }

    #[test]
    fn loopback_routes_kills_and_refuses_dead_shards() {
        let t = LoopbackTransport::new();
        t.register(1, Arc::new(AckHandler));
        t.register(2, Arc::new(AckHandler));
        assert_eq!(t.shards(), vec![1, 2]);

        let frame = encode_frame(&Message::Sync);
        let resp = t.call(1, &frame).unwrap();
        assert_eq!(decode_frame(&resp), Some(Message::Ack));

        assert!(t.kill(1));
        assert!(!t.kill(1), "already dead");
        let err = t.call(1, &frame).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
        assert_eq!(t.shards(), vec![2]);
        assert_eq!(t.calls(), 2);
    }

    #[test]
    fn seeded_corruption_is_deterministic_and_caught_by_the_checksum() {
        // A high rate so a small call count definitely hits corruption.
        let make = || {
            let t = LoopbackTransport::with_corruption(0xC0FF, 400_000);
            t.register(7, Arc::new(AckHandler));
            t
        };
        let frame = encode_frame(&Message::Sync);
        let observe = |t: &LoopbackTransport| {
            (0..64)
                .map(|_| {
                    let resp = t.call(7, &frame).unwrap();
                    matches!(decode_frame(&resp), Some(Message::Ack))
                })
                .collect::<Vec<bool>>()
        };
        let (a, b) = (make(), make());
        let (run_a, run_b) = (observe(&a), observe(&b));
        assert_eq!(run_a, run_b, "same seed, same call order, same damage");
        assert!(a.corrupted() > 0, "rate 40% never fired in 64 calls");
        assert!(
            run_a.iter().any(|ok| !ok),
            "every corrupted frame still decoded — checksum is dead"
        );
        assert!(run_a.iter().any(|ok| *ok), "every frame was corrupted");
    }

    #[test]
    fn tcp_round_trips_frames_and_stops_cleanly() {
        let mut server = TcpShardServer::serve(Arc::new(AckHandler)).unwrap();
        let t = TcpTransport::new();
        t.register(3, server.addr());
        assert_eq!(t.shards(), vec![3]);

        let frame = encode_frame(&Message::Sync);
        for _ in 0..4 {
            let resp = t.call(3, &frame).unwrap();
            assert_eq!(decode_frame(&resp), Some(Message::Ack));
        }

        server.stop();
        server.stop(); // idempotent
        assert!(t.kill(3));
        assert!(t.call(3, &frame).is_err(), "dead peer refuses");
    }

    #[test]
    fn finished_connection_threads_are_reaped_while_serving() {
        let server = TcpShardServer::serve(Arc::new(AckHandler)).unwrap();
        let t = TcpTransport::new();
        t.register(3, server.addr());
        let frame = encode_frame(&Message::Sync);
        let mut most = 0;
        for _ in 0..3000 {
            let resp = t.call(3, &frame).unwrap();
            assert_eq!(decode_frame(&resp), Some(Message::Ack));
            most = most.max(server.held_threads());
        }
        // One closed-loop client: a handful of threads may be between
        // answering and exiting, never one per request served.
        assert!(most <= 64, "accept loop held {most} connection threads");
    }

    #[test]
    fn read_frame_rejects_garbage_headers_before_allocating() {
        let mut garbage: &[u8] = &[0xFFu8; 64];
        let err = read_frame(&mut garbage, MAX_PAYLOAD).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let mut short: &[u8] = &[0u8; 3];
        assert!(read_frame(&mut short, MAX_PAYLOAD).is_err());
    }
}
