//! How frames move: the [`Transport`] trait, and the one fleet
//! transport, [`TcpTransport`] / [`TcpShardServer`] — real sockets on
//! `127.0.0.1` with ephemeral ports.
//!
//! Connections are kept alive: the transport holds idle streams per
//! shard and a call reuses one, the server answers frame after frame on
//! a connection until its client closes it, so neither a socket nor a
//! thread is made per call. A call that fails on a reused stream is
//! retried once on a fresh connection — the shard may have closed the
//! idle stream — which can deliver a frame twice, as the router's own
//! resend after an error already can: delivery is at-least-once either
//! way. [`TcpShardServer::stop`] half-closes the connections it holds,
//! so idle ones end at once and a frame in hand is still answered.
//!
//! The drill switch is [`TcpTransport::set_partitioned`]: a **full
//! partition** of the link to a shard, under which a call fails before
//! touching a socket and the shard sees nothing. Whatever else a test
//! needs of the wire — a held frame, a refused stamp, a damaged byte —
//! it builds as a [`Transport`] wrapping this one or as a
//! [`FrameHandler`] in front of a shard.

use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;

use crate::shard::ShardNode;
use crate::wire::frame_len;

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
    /// was reachable before.
    fn kill(&self, shard: u32) -> bool;
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

/// Socket transport: shard id → `127.0.0.1` address, over connections
/// that are kept: a call takes an idle stream to the shard (or connects),
/// writes its frame, reads the answer and puts the stream back, so calls
/// that follow one another open no socket and as many streams exist as
/// calls overlapped at the peak. A stream goes back only after a whole
/// answer was read from it — any error drops it, so no later call can
/// read an earlier call's answer.
///
/// An idle stream may have been closed by the shard meanwhile, which the
/// caller only learns by using it: a call that fails on a *reused*
/// stream is sent once more on a fresh connection. The shard may then
/// see the frame twice — which the router's own resend after an `Err`
/// ("maybe delivered") already allows, so delivery stays at-least-once.
/// A failure on a fresh connection is the shard's and is returned.
///
/// The drill hook is a **full partition**, under which the call fails
/// before touching a socket and the shard sees nothing.
#[derive(Default)]
pub struct TcpTransport {
    peers: Mutex<HashMap<u32, Peer>>,
    /// The links cut by [`TcpTransport::set_partitioned`].
    partitioned: Mutex<HashSet<u32>>,
}

/// Where a shard listens, and the idle streams connected there (most
/// recently used on top).
struct Peer {
    addr: SocketAddr,
    idle: Vec<TcpStream>,
}

impl TcpTransport {
    /// An empty peer table.
    pub fn new() -> TcpTransport {
        TcpTransport::default()
    }

    /// Registers shard `id` at `addr` (a [`TcpShardServer::addr`]).
    /// Streams kept to an earlier registration of `id` are closed.
    pub fn register(&self, shard: u32, addr: SocketAddr) {
        let fresh = Peer {
            addr,
            idle: Vec::new(),
        };
        self.peers.lock().insert(shard, fresh);
    }

    /// Opens (`true`) or heals (`false`) a full partition of the link
    /// to `shard`: calls fail without touching the socket.
    pub fn set_partitioned(&self, shard: u32, cut: bool) {
        let mut cut_links = self.partitioned.lock();
        if cut {
            cut_links.insert(shard);
        } else {
            cut_links.remove(&shard);
        }
    }

    /// One frame out and one frame back, on `kept` or on a fresh
    /// connection to `addr`. The stream is put back when the answer is
    /// complete and `shard` is still registered at `addr`.
    fn exchange(
        &self,
        shard: u32,
        addr: SocketAddr,
        kept: Option<TcpStream>,
        frame: &[u8],
    ) -> io::Result<Vec<u8>> {
        let mut stream = match kept {
            Some(stream) => stream,
            None => {
                let stream = TcpStream::connect(addr)?;
                // A frame is one write and the next thing this side does
                // is wait for the answer: nothing to coalesce it with.
                stream.set_nodelay(true)?;
                stream
            }
        };
        stream.write_all(frame)?;
        let answer = read_frame(&mut stream, MAX_PAYLOAD)?;
        if let Some(peer) = self.peers.lock().get_mut(&shard) {
            if peer.addr == addr {
                peer.idle.push(stream);
            }
        }
        Ok(answer)
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
        let (addr, kept) = match self.peers.lock().get_mut(&shard) {
            Some(peer) => (peer.addr, peer.idle.pop()),
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    format!("shard {shard} is down"),
                ))
            }
        };
        let reused = kept.is_some();
        match self.exchange(shard, addr, kept, frame) {
            Err(_) if reused => self.exchange(shard, addr, None, frame),
            result => result,
        }
    }

    fn shards(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.peers.lock().keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Forgets the peer and closes the streams kept to it (later calls
    /// fail). The server process itself is stopped by whoever owns it —
    /// see [`TcpShardServer::stop`].
    fn kill(&self, shard: u32) -> bool {
        self.peers.lock().remove(&shard).is_some()
    }
}

/// An accept loop serving one [`FrameHandler`] on an ephemeral
/// `127.0.0.1` port. A connection carries frame after frame — one in,
/// one out — until its client closes it, and has a thread of its own so
/// slow compiles do not serialize the fleet: threads number the
/// connections open, not the frames served.
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
            // Each connection's thread, and a handle on its socket to
            // end it with.
            let mut connections: Vec<(TcpStream, JoinHandle<()>)> = Vec::new();
            for stream in listener.incoming() {
                if stop_flag.load(Ordering::SeqCst) {
                    break;
                }
                // Reap as we go: an unjoined thread keeps its stack
                // mapped, and a long-lived server would run the process
                // into `vm.max_map_count`.
                for (_, done) in connections.extract_if(.., |(_, w)| w.is_finished()) {
                    let _ = done.join();
                }
                let Ok(stream) = stream else { continue };
                let Ok(ours) = stream.try_clone() else {
                    continue;
                };
                let handler = Arc::clone(&handler);
                let worker = std::thread::spawn(move || serve_connection(stream, &*handler));
                connections.push((ours, worker));
                held_now.store(connections.len(), Ordering::Relaxed);
            }
            // Stopping: a connection waiting for its next frame reads
            // end-of-stream at once; one whose frame is being handled
            // still writes the answer, then reads end-of-stream.
            for (ours, _) in &connections {
                let _ = ours.shutdown(Shutdown::Read);
            }
            for (_, worker) in connections {
                let _ = worker.join();
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
    /// the connections open, not by the requests served.
    pub fn held_threads(&self) -> usize {
        self.held.load(Ordering::Relaxed)
    }

    /// Stops accepting, ends the connections and joins their threads (a
    /// self-connection unblocks the blocking `accept`). Connections are
    /// half-closed on the reading side only: idle ones end at once, and
    /// a frame already being handled is still answered.
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

/// Frame in, frame out, until the client closes the connection (or
/// [`TcpShardServer::stop`] half-closes it) or sends what is no frame.
fn serve_connection(mut stream: TcpStream, handler: &dyn FrameHandler) {
    // Answers are one write each, with nothing to coalesce them with.
    let _ = stream.set_nodelay(true);
    while let Ok(frame) = read_frame(&mut stream, MAX_PAYLOAD) {
        let response = handler.handle(&frame);
        if stream.write_all(&response).is_err() {
            return;
        }
    }
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
    fn tcp_routes_kills_and_refuses_dead_shards() {
        let (one, two) = (
            TcpShardServer::serve(Arc::new(AckHandler)).unwrap(),
            TcpShardServer::serve(Arc::new(AckHandler)).unwrap(),
        );
        let t = TcpTransport::new();
        t.register(1, one.addr());
        t.register(2, two.addr());
        assert_eq!(t.shards(), vec![1, 2]);

        let frame = encode_frame(&Message::Sync);
        let resp = t.call(1, &frame).unwrap();
        assert_eq!(decode_frame(&resp), Some(Message::Ack));

        assert!(t.kill(1));
        assert!(!t.kill(1), "already dead");
        let err = t.call(1, &frame).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
        assert_eq!(t.shards(), vec![2]);

        t.set_partitioned(2, true);
        let err = t.call(2, &frame).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert_eq!(t.shards(), vec![2], "a cut link is not a dead shard");
        t.set_partitioned(2, false);
        assert!(t.call(2, &frame).is_ok(), "healed");
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
        let frame = encode_frame(&Message::Sync);
        let mut most = 0;
        // A client that comes, calls and goes, 3000 times over: each
        // leaves a connection thread behind that has ended.
        for _ in 0..3000 {
            let t = TcpTransport::new();
            t.register(3, server.addr());
            let resp = t.call(3, &frame).unwrap();
            assert_eq!(decode_frame(&resp), Some(Message::Ack));
            most = most.max(server.held_threads());
        }
        // A handful of threads may be between end-of-stream and exiting,
        // never one per client served.
        assert!(most <= 64, "accept loop held {most} connection threads");
    }

    /// Answers every frame with itself, and notes the frames' nonces in
    /// arrival order and the threads that handled them — a connection
    /// has one thread, so the threads count the connections.
    #[derive(Default)]
    struct EchoHandler {
        nonces: Mutex<Vec<u64>>,
        threads: Mutex<std::collections::HashSet<std::thread::ThreadId>>,
    }

    impl FrameHandler for EchoHandler {
        fn handle(&self, frame: &[u8]) -> Vec<u8> {
            if let Some(Message::Ping { nonce }) = decode_frame(frame) {
                self.nonces.lock().push(nonce);
            }
            self.threads.lock().insert(std::thread::current().id());
            frame.to_vec()
        }
    }

    fn ping(nonce: u64) -> Vec<u8> {
        encode_frame(&Message::Ping { nonce })
    }

    #[test]
    fn overlapping_callers_share_few_streams_and_each_reads_its_own_answer() {
        const CALLERS: u64 = 4;
        let handler = Arc::new(EchoHandler::default());
        let server = TcpShardServer::serve(Arc::clone(&handler) as Arc<dyn FrameHandler>).unwrap();
        let t = TcpTransport::new();
        t.register(3, server.addr());
        std::thread::scope(|scope| {
            for caller in 0..CALLERS {
                let t = &t;
                scope.spawn(move || {
                    for i in 0..750 {
                        let frame = ping(caller << 32 | i);
                        assert_eq!(t.call(3, &frame).unwrap(), frame, "another call's answer");
                    }
                });
            }
        });
        // 3000 calls, and no more connections than callers at once.
        let connections = handler.threads.lock().len();
        assert!(connections <= CALLERS as usize, "{connections} connections");
        assert!(server.held_threads() <= connections);
        assert_eq!(handler.nonces.lock().len(), 3000);
    }

    #[test]
    fn re_registering_at_a_new_address_closes_the_streams_to_the_old_one() {
        let mut old = TcpShardServer::serve(Arc::new(AckHandler)).unwrap();
        let t = TcpTransport::new();
        t.register(3, old.addr());
        let frame = ping(1);
        assert_eq!(
            decode_frame(&t.call(3, &frame).unwrap()),
            Some(Message::Ack)
        );
        assert_eq!(t.peers.lock()[&3].idle.len(), 1);
        // Bound while the old one still is: another port for certain.
        let new = TcpShardServer::serve(Arc::new(EchoHandler::default())).unwrap();
        old.stop();
        t.register(3, new.addr());
        assert!(t.peers.lock()[&3].idle.is_empty(), "stale stream kept");
        assert_eq!(
            t.call(3, &frame).unwrap(),
            frame,
            "answered by the new server"
        );
        let peers = t.peers.lock();
        let kept: Vec<SocketAddr> = peers[&3]
            .idle
            .iter()
            .map(|s| s.peer_addr().unwrap())
            .collect();
        assert_eq!(kept, vec![new.addr()]);
    }

    #[test]
    fn stop_ends_idle_connections_at_once_and_later_calls_are_refused() {
        let mut server = TcpShardServer::serve(Arc::new(EchoHandler::default())).unwrap();
        let t = TcpTransport::new();
        t.register(3, server.addr());
        assert_eq!(t.call(3, &ping(1)).unwrap(), ping(1));
        assert_eq!(t.peers.lock()[&3].idle.len(), 1);

        let stopping = std::time::Instant::now();
        server.stop();
        let took = stopping.elapsed();
        assert!(
            took.as_secs() < 1,
            "stop() waited {took:?} on an idle stream"
        );
        // The kept stream is dead and nobody listens any more: an error,
        // not a wait for an answer that cannot come.
        let limit = std::time::Duration::from_secs(30);
        let err = ccm2_support::within(limit, move || t.call(3, &ping(2))).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
    }

    /// Accepts `connections` connections, one after the other; answers
    /// one frame on each (with itself) if `answer`, and closes it. The
    /// thread returns who connected, in order.
    fn closing_server(
        connections: usize,
        answer: bool,
    ) -> (SocketAddr, JoinHandle<Vec<SocketAddr>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut clients = Vec::new();
            for stream in listener.incoming().take(connections) {
                let mut stream = stream.unwrap();
                clients.push(stream.peer_addr().unwrap());
                if answer {
                    let frame = read_frame(&mut stream, MAX_PAYLOAD).unwrap();
                    stream.write_all(&frame).unwrap();
                }
            }
            clients
        });
        (addr, server)
    }

    #[test]
    fn a_stream_the_shard_closed_costs_one_reconnect_and_a_fresh_failure_none() {
        let t = TcpTransport::new();
        // Every kept stream is dead by the next call, and the shard
        // takes three connections in all: each call after the first
        // fails on the kept stream and succeeds on exactly one new one.
        let (addr, server) = closing_server(3, true);
        t.register(3, addr);
        for nonce in 1..=3 {
            assert_eq!(t.call(3, &ping(nonce)).unwrap(), ping(nonce));
        }
        assert_eq!(server.join().unwrap().len(), 3);

        // A shard that hangs up on a fresh connection has failed the
        // call: the next to connect is this test, not a second attempt.
        let (addr, server) = closing_server(2, false);
        t.register(4, addr);
        assert!(t.call(4, &ping(1)).is_err());
        let next = TcpStream::connect(addr).unwrap();
        assert_eq!(server.join().unwrap()[1], next.local_addr().unwrap());
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
