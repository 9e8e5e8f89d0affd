//! Decorators over the public traits `ArtifactStore`, `Transport` and
//! `FrameHandler`: each forwards the call unchanged and records a span
//! around it. They are installed in traced runs only, so the untraced
//! run measures the plain objects.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ccm2_fabric::{encode_frame, FrameHandler, Message, Transport, WireRequest};
use ccm2_incr::ArtifactStore;
use ccm2_serve::CompileRequest;
use ccm2_support::defs::DefLibrary;
use ccm2_support::hash::Fp128;

use crate::span::{Tracer, NONE};

/// Span names the decorators emit.
pub const STORE_LOAD: &str = "store.load";
pub const STORE_STORE: &str = "store.store";
pub const FABRIC_CALL: &str = "fabric.call";
pub const FABRIC_HANDLE: &str = "fabric.handle";

/// An [`ArtifactStore`] that records a `store.load` / `store.store`
/// span per call; the span's tag is the number of bytes moved (0 for a
/// load that missed — a stored entry is never empty).
pub struct MeteredStore {
    inner: Arc<dyn ArtifactStore>,
    tracer: Arc<Tracer>,
}

impl MeteredStore {
    pub fn new(inner: Arc<dyn ArtifactStore>, tracer: Arc<Tracer>) -> MeteredStore {
        MeteredStore { inner, tracer }
    }
}

impl std::fmt::Debug for MeteredStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MeteredStore({:?})", self.inner)
    }
}

impl ArtifactStore for MeteredStore {
    fn load(&self, fp: Fp128) -> Option<Vec<u8>> {
        self.tracer.span_sized(STORE_LOAD, || {
            let got = self.inner.load(fp);
            let bytes = got.as_ref().map_or(0, |b| b.len() as u32);
            (got, bytes)
        })
    }

    fn store(&self, fp: Fp128, bytes: &[u8]) {
        self.tracer.span(STORE_STORE, NONE, bytes.len() as u32, || {
            self.inner.store(fp, bytes)
        });
    }

    fn quarantine(&self, fp: Fp128) {
        self.inner.quarantine(fp);
    }
}

/// The frame kinds the fabric workload tells apart.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FrameKind {
    Compile = 0,
    Sync = 1,
    DeltaShip = 2,
    Other = 3,
}

/// Classifies frames by the payload's kind tag (byte 16 of a frame, per
/// the `CCM2WIRE` layout in `ccm2_fabric::wire`). The tag values are
/// private to the wire module, so they are learnt from frames the
/// public encoder produces.
#[derive(Clone, Copy, Debug)]
pub struct FrameKinds {
    compile: u8,
    sync: u8,
    deltaship: u8,
}

const KIND_TAG_AT: usize = 16;

impl FrameKinds {
    pub fn learn() -> FrameKinds {
        let probe = CompileRequest::new(0, "P", "MODULE P; END P.", Arc::new(DefLibrary::new()));
        let tag = |m: &Message| encode_frame(m)[KIND_TAG_AT];
        FrameKinds {
            compile: tag(&Message::Compile(WireRequest::from_request(&probe))),
            sync: tag(&Message::Sync),
            deltaship: tag(&Message::DeltaShip {
                from_shard: 0,
                batch: Vec::new(),
                router: 0,
                epoch: 0,
            }),
        }
    }

    pub fn of(&self, frame: &[u8]) -> FrameKind {
        match frame.get(KIND_TAG_AT) {
            Some(&t) if t == self.compile => FrameKind::Compile,
            Some(&t) if t == self.sync => FrameKind::Sync,
            Some(&t) if t == self.deltaship => FrameKind::DeltaShip,
            _ => FrameKind::Other,
        }
    }
}

/// Span tag shared by a call and the handling of its frame.
pub fn fabric_tag(shard: u32, kind: FrameKind) -> u32 {
    shard << 8 | kind as u32
}

/// The frame kind packed into a fabric span tag.
pub fn tag_kind(tag: u32) -> FrameKind {
    match tag & 0xff {
        0 => FrameKind::Compile,
        1 => FrameKind::Sync,
        2 => FrameKind::DeltaShip,
        _ => FrameKind::Other,
    }
}

/// How many frames of each direction are kept for the codec timing.
const FRAME_SAMPLES: usize = 96;

/// Byte counters and frame samples of a [`MeteredTransport`].
#[derive(Default)]
pub struct WireCounters {
    /// Request frames and their bytes, by [`FrameKind`].
    pub frames: [AtomicU64; 4],
    pub frame_bytes: [AtomicU64; 4],
    /// Response bytes of `Compile` calls (`Outcome` frames).
    pub outcome_bytes: AtomicU64,
    /// The first few request and response frames, for timing
    /// `encode_frame` / `decode_frame` on real traffic afterwards.
    pub samples: Mutex<Vec<Vec<u8>>>,
}

/// A [`Transport`] that records a `fabric.call` span per call (tag:
/// shard and frame kind) and counts frames and bytes.
pub struct MeteredTransport {
    inner: Arc<dyn Transport>,
    tracer: Arc<Tracer>,
    kinds: FrameKinds,
    pub counters: WireCounters,
}

impl MeteredTransport {
    pub fn new(inner: Arc<dyn Transport>, tracer: Arc<Tracer>) -> MeteredTransport {
        MeteredTransport {
            inner,
            tracer,
            kinds: FrameKinds::learn(),
            counters: WireCounters::default(),
        }
    }

    fn sample(&self, frame: &[u8]) {
        let mut samples = self.counters.samples.lock().expect("sampler never panics");
        if samples.len() < FRAME_SAMPLES {
            samples.push(frame.to_vec());
        }
    }
}

impl Transport for MeteredTransport {
    fn call(&self, shard: u32, frame: &[u8]) -> io::Result<Vec<u8>> {
        let kind = self.kinds.of(frame);
        let c = &self.counters;
        c.frames[kind as usize].fetch_add(1, Ordering::Relaxed);
        c.frame_bytes[kind as usize].fetch_add(frame.len() as u64, Ordering::Relaxed);
        let out = self
            .tracer
            .span(FABRIC_CALL, NONE, fabric_tag(shard, kind), || {
                self.inner.call(shard, frame)
            });
        if let Ok(response) = &out {
            if kind == FrameKind::Compile {
                c.outcome_bytes
                    .fetch_add(response.len() as u64, Ordering::Relaxed);
            }
            self.sample(frame);
            self.sample(response);
        }
        out
    }

    fn shards(&self) -> Vec<u32> {
        self.inner.shards()
    }

    fn kill(&self, shard: u32) -> bool {
        self.inner.kill(shard)
    }
}

/// A [`FrameHandler`] that records a `fabric.handle` span per frame on
/// the server's connection thread.
pub struct MeteredHandler {
    inner: Arc<dyn FrameHandler>,
    tracer: Arc<Tracer>,
    shard: u32,
    kinds: FrameKinds,
}

impl MeteredHandler {
    pub fn new(inner: Arc<dyn FrameHandler>, shard: u32, tracer: Arc<Tracer>) -> MeteredHandler {
        MeteredHandler {
            inner,
            tracer,
            shard,
            kinds: FrameKinds::learn(),
        }
    }
}

impl FrameHandler for MeteredHandler {
    fn handle(&self, frame: &[u8]) -> Vec<u8> {
        let tag = fabric_tag(self.shard, self.kinds.of(frame));
        self.tracer
            .span(FABRIC_HANDLE, NONE, tag, || self.inner.handle(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccm2_incr::MemStore;

    #[test]
    fn store_decorator_passes_bytes_through_and_tags_sizes() {
        let tracer = Arc::new(Tracer::new());
        let inner = Arc::new(MemStore::new());
        let store = MeteredStore::new(
            Arc::clone(&inner) as Arc<dyn ArtifactStore>,
            Arc::clone(&tracer),
        );
        let fp = Fp128::of(b"key");
        assert_eq!(store.load(fp), None);
        store.store(fp, b"payload bytes");
        assert_eq!(store.load(fp).as_deref(), Some(&b"payload bytes"[..]));
        assert_eq!(inner.load(fp).as_deref(), Some(&b"payload bytes"[..]));
        store.quarantine(fp);
        assert_eq!(inner.quarantined(), 1);
        let spans = tracer.finish();
        let seen: Vec<(&str, u32)> = spans.iter().map(|s| (s.name, s.tag)).collect();
        assert_eq!(
            seen,
            vec![(STORE_LOAD, 0), (STORE_STORE, 13), (STORE_LOAD, 13)]
        );
    }

    struct Echo;
    impl FrameHandler for Echo {
        fn handle(&self, frame: &[u8]) -> Vec<u8> {
            let mut out = frame.to_vec();
            out.reverse();
            out
        }
    }

    struct Direct(Arc<dyn FrameHandler>);
    impl Transport for Direct {
        fn call(&self, shard: u32, frame: &[u8]) -> io::Result<Vec<u8>> {
            if shard == 9 {
                return Err(io::Error::new(io::ErrorKind::ConnectionRefused, "down"));
            }
            Ok(self.0.handle(frame))
        }
        fn shards(&self) -> Vec<u32> {
            vec![0, 1]
        }
        fn kill(&self, shard: u32) -> bool {
            shard == 1
        }
    }

    #[test]
    fn transport_and_handler_decorators_pass_frames_through() {
        let tracer = Arc::new(Tracer::new());
        let handler = Arc::new(MeteredHandler::new(Arc::new(Echo), 1, Arc::clone(&tracer)));
        let transport = MeteredTransport::new(
            Arc::new(Direct(handler as Arc<dyn FrameHandler>)),
            Arc::clone(&tracer),
        );
        let sync = encode_frame(&Message::Sync);
        let mut reversed = sync.clone();
        reversed.reverse();
        assert_eq!(transport.call(1, &sync).expect("reachable"), reversed);
        assert!(transport.call(9, &sync).is_err(), "errors pass through too");
        assert_eq!(transport.shards(), vec![0, 1]);
        assert!(transport.kill(1) && !transport.kill(0));

        let c = &transport.counters;
        assert_eq!(
            c.frames[FrameKind::Sync as usize].load(Ordering::Relaxed),
            2
        );
        assert_eq!(
            c.frame_bytes[FrameKind::Sync as usize].load(Ordering::Relaxed),
            2 * sync.len() as u64
        );
        assert_eq!(c.samples.lock().expect("sampler").len(), 2);

        let spans = tracer.finish();
        let tag = fabric_tag(1, FrameKind::Sync);
        assert_eq!(tag_kind(tag), FrameKind::Sync);
        assert_eq!(spans[0].name, FABRIC_CALL);
        assert_eq!(spans[0].tag, tag);
        assert_eq!(
            (spans[1].name, spans[1].tag, spans[1].parent),
            (FABRIC_HANDLE, tag, 0),
            "same thread here, so the handler nests directly"
        );
    }

    #[test]
    fn frame_kinds_are_learnt_from_the_public_encoder() {
        let kinds = FrameKinds::learn();
        assert_eq!(kinds.of(&encode_frame(&Message::Sync)), FrameKind::Sync);
        assert_eq!(kinds.of(&encode_frame(&Message::Ack)), FrameKind::Other);
        assert_eq!(kinds.of(b"short"), FrameKind::Other);
        let ship = encode_frame(&Message::DeltaShip {
            from_shard: 3,
            batch: vec![1, 2, 3],
            router: 1,
            epoch: 9,
        });
        assert_eq!(kinds.of(&ship), FrameKind::DeltaShip);
    }
}
