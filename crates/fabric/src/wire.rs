//! `CCM2WIRE` — the fabric's frame format.
//!
//! Every message between the router and a shard travels as one frame,
//! sealed in the same [`ccm2_support::envelope`] as the on-disk
//! formats. A frame that fails *any* of its checks decodes to `None`
//! and the caller treats the call as a transport fault (retry /
//! failover) — never as data.
//!
//! # Payload
//!
//! ```text
//! payload_len  u32       length of everything after this field
//! kind         u8        message kind tag
//! body         bytes     kind-specific
//! ```
//!
//! The length leads the payload so that a frame's first 16 bytes —
//! magic, version, `payload_len` — tell a socket reader how much more
//! to read ([`frame_len`]); the kind tag therefore sits at frame
//! offset 16.
//!
//! The payload kinds mirror the fabric's planes:
//!
//! * compile plane — [`Message::Compile`] / [`Message::Outcome`] /
//!   [`Message::Reject`] (carries a `Retry-After`-style backoff hint
//!   in milliseconds, derived from the shard's queue pressure);
//! * replication plane — an [`Message::Outcome`] says how many store
//!   deltas its shard has not shipped yet; [`Message::Sync`] (the
//!   router's shipper asks a shard that has some for them),
//!   [`Message::DeltaShip`] (an encoded `CCM2DELT` batch on its way to
//!   a peer), [`Message::Absorb`] (failover: apply the replica log of a
//!   dead shard, answered by [`Message::AbsorbDone`]);
//! * control plane — [`Message::Ping`] /
//!   [`Message::Pong`] heartbeats for the router's failure detector,
//!   and [`Message::FetchImage`] / [`Message::Image`] full-store
//!   shipment for join warm-up and gapped-log reconciliation;
//! * lease plane — [`Message::LeaseGrant`] /
//!   [`Message::LeaseRenew`] carry the **epoch-numbered eviction
//!   lease**: every membership-changing message (`Absorb`, pushed
//!   `Image`s, `DeltaShip` fan-out) is stamped with the sending
//!   router's id and lease epoch, and a shard that has granted a newer
//!   epoch answers [`Message::EpochReject`] naming the current holder
//!   instead of obeying — a partitioned ex-leader cannot resurrect an
//!   evicted shard or double-absorb a replica log (the rule itself
//!   is [`crate::lease`]'s);
//! * plain [`Message::Ack`].
//!
//! Fault plans are deliberately **not** wire-encodable: a
//! [`FaultPlan`](ccm2_faults::FaultPlan) is an in-process test fixture
//! (it accumulates a fired-log), so [`WireRequest::from_request`]
//! drops it and fabric-level chaos is injected at the *transport and
//! shard* level instead (`shard:{id}` fault sites, seeded frame
//! corruption in the loopback transport).

use std::sync::Arc;

use ccm2_serve::{CompileOutcome, CompileRequest, ExecChoice};
use ccm2_support::defs::{DefLibrary, DefProvider as _};
use ccm2_support::envelope::{Format, OpenError, Reader, Writer, OVERHEAD};
use ccm2_support::hash::Fp128;

use ccm2_sema::symtab::DkyStrategy;

/// The frame envelope. Bump the version on any change to the payload
/// encodings; mixed-version fleets must fail closed (decode failure ⇒
/// retry elsewhere), never misdecode.
pub const WIRE_FORMAT: Format = Format {
    magic: *b"CCM2WIRE",
    version: 7,
};
/// The "no router" sentinel for lease-holder fields: a shard that has
/// not yet granted any lease reports this as the holder.
pub const NO_ROUTER: u32 = u32::MAX;
/// Frame overhead outside the kind tag and body: envelope + length
/// prefix.
pub const FRAME_OVERHEAD: usize = OVERHEAD + 4;

/// A compile request in wire form: everything
/// [`CompileRequest::fingerprint`] covers except the fault plan (see
/// the module docs), plus the client id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireRequest {
    /// Opaque client identifier (reporting only; it is not part of the
    /// fingerprint and no shard decision reads it).
    pub client: u64,
    /// Module name (reporting only).
    pub module: String,
    /// Module source text.
    pub source: String,
    /// The interface library as sorted `(name, text)` pairs.
    pub defs: Vec<(String, String)>,
    /// DKY strategy (§2.2).
    pub strategy: DkyStrategy,
    /// Executor choice.
    pub exec: ExecChoice,
    /// Run the dataflow lints.
    pub analyze: bool,
    /// Per-task watchdog deadline.
    pub task_deadline: Option<u64>,
    /// Supervised-retry budget per stream task.
    pub max_stream_retries: u32,
}

impl WireRequest {
    /// Lowers a service request to wire form. The fault plan (if any)
    /// does not travel; the reconstructed request compiles clean.
    pub fn from_request(req: &CompileRequest) -> WireRequest {
        WireRequest {
            client: req.client,
            module: req.module.clone(),
            source: req.source.clone(),
            defs: req.defs.all_definitions().unwrap_or_default(),
            strategy: req.strategy,
            exec: req.exec,
            analyze: req.analyze,
            task_deadline: req.task_deadline,
            max_stream_retries: req.max_stream_retries,
        }
    }

    /// The service request a shard will actually run. Consumes the
    /// frame's strings: the source and every interface move, uncopied,
    /// from where the decoder put them.
    pub fn into_request(self) -> CompileRequest {
        let mut lib = DefLibrary::new();
        for (name, text) in self.defs {
            lib.insert(name, text);
        }
        CompileRequest {
            client: self.client,
            module: self.module,
            source: self.source,
            defs: Arc::new(lib),
            strategy: self.strategy,
            exec: self.exec,
            analyze: self.analyze,
            faults: None,
            task_deadline: self.task_deadline,
            max_stream_retries: self.max_stream_retries,
        }
    }
}

/// A compile outcome in wire form. The fields the equivalence suite
/// compares (object bytes in the interner-independent encoding,
/// rendered diagnostics) travel verbatim; process-local counters
/// (`incr`, `virtual_cost`) do not — they describe the *shard's* cache
/// and simulator, not the request, and routing must not change a
/// client-visible answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireOutcome {
    /// Request fingerprint this outcome answers.
    pub request_fp: Fp128,
    /// Compilation produced an image with no errors.
    pub ok: bool,
    /// Merged object image ([`ccm2_incr::encode_image`] encoding).
    pub object: Option<Vec<u8>>,
    /// Diagnostics rendered with stable file names.
    pub diagnostics: Vec<String>,
    /// Wall-clock microseconds the owning shard spent.
    pub wall_micros: u64,
    /// Streams compiled.
    pub streams: u64,
    /// A stream degraded after a caught fault.
    pub degraded: bool,
    /// A watchdog diagnosis fired.
    pub stalled: bool,
}

impl WireOutcome {
    /// Lowers a shard-local outcome to wire form.
    pub fn from_outcome(out: &CompileOutcome) -> WireOutcome {
        WireOutcome {
            request_fp: out.request_fp,
            ok: out.ok,
            object: out.object.clone(),
            diagnostics: out.diagnostics.clone(),
            wall_micros: out.wall_micros,
            streams: out.streams as u64,
            degraded: out.degraded,
            stalled: out.stalled,
        }
    }
}

/// One fabric message (the payload of one frame).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// Router → shard: compile this.
    Compile(WireRequest),
    /// Shard → router: the answer to a [`Message::Compile`].
    Outcome {
        /// What the client gets.
        outcome: WireOutcome,
        /// Store deltas past the shard's ship cursor as it answered:
        /// non-zero tells the router this shard has something to
        /// [`Message::Sync`]. For the router only — routing must not
        /// change a client-visible answer.
        unshipped: u64,
    },
    /// Shard → router: the request was not admitted (queue full). The
    /// router relays it as a `Retry` and the caller that was shed backs
    /// off and resubmits — same protocol as
    /// [`ccm2_serve::Response::Retry`], with the reason attached for
    /// the stats log and a `Retry-After`-style hint (milliseconds the
    /// shard suggests waiting before resubmitting, from its queue
    /// pressure; `0` = no hint).
    Reject {
        /// Human-readable rejection reason (stats log only).
        reason: String,
        /// Suggested client backoff in milliseconds (0 = no hint).
        retry_after_ms: u64,
    },
    /// Router → shard: hand over the store deltas accumulated since the
    /// last sync (the shard answers [`Message::DeltaShip`], possibly
    /// with an empty batch).
    Sync,
    /// An encoded `CCM2DELT` batch from `from_shard`, forwarded by the
    /// router to each surviving peer (which answers [`Message::Ack`] —
    /// or [`Message::EpochReject`] when the stamp is stale).
    DeltaShip {
        /// Shard the deltas originate from.
        from_shard: u32,
        /// `ccm2_incr::encode_delta` output, validated on receipt.
        batch: Vec<u8>,
        /// Sending router (lease stamp; [`NO_ROUTER`] on shard→router
        /// sync answers, which carry no authority).
        router: u32,
        /// The sender's lease epoch at send time.
        epoch: u64,
    },
    /// Router → shard at failover: apply the replica log you hold for
    /// `dead_shard` into your own store, then discard it. Stamped with
    /// the router's lease epoch: a stale-epoch absorb is refused with
    /// [`Message::EpochReject`], so an ex-leader cannot double-absorb.
    Absorb {
        /// The shard that died.
        dead_shard: u32,
        /// Sending router (lease stamp).
        router: u32,
        /// The sender's lease epoch at send time.
        epoch: u64,
    },
    /// Generic success reply for replication-plane messages.
    Ack,
    /// Router → shard: heartbeat probe from the failure detector. The
    /// nonce ties the reply to the probe — a stale or duplicated
    /// [`Message::Pong`] (delayed delivery, at-least-once links) must
    /// not clear a newer suspicion.
    Ping {
        /// Echo-me token chosen by the router per probe round.
        nonce: u64,
    },
    /// Shard → router: heartbeat answer, echoing the probe nonce. The
    /// pong also reports the shard's lease view, which is how standby
    /// routers observe leadership and its expiry without a dedicated
    /// polling plane.
    Pong {
        /// The responding shard's id (guards cross-wired transports).
        shard: u32,
        /// The nonce of the [`Message::Ping`] being answered.
        nonce: u64,
        /// The highest lease epoch this shard has granted.
        lease_epoch: u64,
        /// The router holding that epoch ([`NO_ROUTER`] = none yet).
        lease_router: u32,
        /// Probe rounds answered since the holder last renewed — the
        /// shard-side expiry clock (deterministic: it advances on pings,
        /// not on wall time).
        lease_age: u32,
    },
    /// Router → shard: export your full store image (join warm-up and
    /// gapped-log reconciliation; answered by [`Message::Image`]).
    FetchImage,
    /// A full store image in LRU order (coldest first, so importing in
    /// order reproduces the source's eviction order). Travels in both
    /// directions: a shard answers [`Message::FetchImage`] with it, and
    /// the router pushes one to a joiner or a gapped survivor (which
    /// imports it and answers [`Message::Ack`]).
    Image {
        /// The source store's delta cursor at export time.
        delta_seq: u64,
        /// `(fingerprint, encoded unit)` pairs, coldest first.
        entries: Vec<(Fp128, Vec<u8>)>,
        /// Sending router (lease stamp; [`NO_ROUTER`] on shard→router
        /// answers, which carry no authority).
        router: u32,
        /// The sender's lease epoch at send time. Only checked on
        /// *pushed* images — an `Image` answering a fetch is data, not
        /// a membership action.
        epoch: u64,
    },
    /// Shard → router: the answer to [`Message::Absorb`]. More than an
    /// [`Message::Ack`] so the router can see whether the replica log
    /// replayed cleanly or had been *gapped* by cap overflow and
    /// discarded — the trigger for a full-image reconciliation instead
    /// of a silent hole.
    AbsorbDone {
        /// Delta ops actually replayed into the survivor's store.
        applied_ops: u64,
        /// The log had lost ops (cap overflow / sequence gap) and was
        /// discarded without replay.
        gapped: bool,
    },
    /// Router → shard: claim the eviction lease at `epoch`
    /// ([`Lease::grant`](crate::lease::Lease::grant)); granted with
    /// [`Message::Ack`].
    LeaseGrant {
        /// The claiming router's id.
        router: u32,
        /// The epoch being claimed (must exceed every epoch the shard
        /// has granted).
        epoch: u64,
    },
    /// Router → shard: the current holder refreshing its lease
    /// ([`Lease::admit`](crate::lease::Lease::admit)); resets the
    /// shard's expiry clock ([`Message::Pong`]'s `lease_age`).
    LeaseRenew {
        /// The renewing router's id.
        router: u32,
        /// The epoch being renewed.
        epoch: u64,
    },
    /// Shard → router: the message's lease stamp was stale. Carries the
    /// shard's current lease view so the rejected router can catch up
    /// (demote, resync membership) instead of retrying blind.
    EpochReject {
        /// The highest epoch this shard has granted.
        epoch: u64,
        /// The holder of that epoch ([`NO_ROUTER`] = none).
        router: u32,
    },
}

/// Encodes a message as one checksummed frame.
pub fn encode_frame(msg: &Message) -> Vec<u8> {
    WIRE_FORMAT.seal(|w| w.len_prefixed(|w| encode_message(w, msg)))
}

/// Decodes one frame. Strict: the envelope, exact length accounting
/// and the payload grammar must all hold, else `None`.
pub fn decode_frame(buf: &[u8]) -> Option<Message> {
    let mut r = WIRE_FORMAT.open(buf).ok()?;
    if r.u32().ok()? as usize != r.remaining() {
        return None;
    }
    let msg = decode_message(&mut r).ok()?;
    r.done().ok()?;
    Some(msg)
}

/// Splits the frame header and returns the *total* frame length it
/// announces, for streaming reads off a socket. The header alone is not
/// yet trusted (the checksum spans the whole frame); the transport
/// reads `total` bytes and hands them to [`decode_frame`]. Rejects
/// bad magic, version skew, and payloads above `max_payload`
/// immediately so a garbage header cannot make the reader allocate or
/// block for gigabytes.
pub fn frame_len(header: &[u8; 16], max_payload: usize) -> Option<usize> {
    let (magic, rest) = header.split_at(8);
    let (version, len) = rest.split_at(4);
    if magic != WIRE_FORMAT.magic || version != WIRE_FORMAT.version.to_le_bytes() {
        return None;
    }
    let len = u32::from_le_bytes(len.try_into().ok()?) as usize;
    (len <= max_payload).then_some(FRAME_OVERHEAD + len)
}

fn encode_message(w: &mut Writer, msg: &Message) {
    match msg {
        Message::Compile(req) => {
            w.u8(1);
            w.u64(req.client);
            w.str(&req.module);
            w.str(&req.source);
            w.seq(&req.defs, |w, (name, text)| {
                w.str(name);
                w.str(text);
            });
            w.u8(match req.strategy {
                DkyStrategy::Avoidance => 0,
                DkyStrategy::Pessimistic => 1,
                DkyStrategy::Skeptical => 2,
                DkyStrategy::Optimistic => 3,
            });
            match req.exec {
                ExecChoice::Sim(n) => {
                    w.u8(1);
                    w.u32(n);
                }
                ExecChoice::Threads(n) => {
                    w.u8(2);
                    w.u64(n as u64);
                }
            }
            w.bool(req.analyze);
            // Option<u64> as 0 = None, v + 1 = Some(v) — the same
            // convention the request fingerprint uses.
            w.u64(req.task_deadline.map_or(0, |d| d + 1));
            w.u32(req.max_stream_retries);
        }
        Message::Outcome {
            outcome: out,
            unshipped,
        } => {
            w.u8(2);
            w.fp(out.request_fp);
            w.bool(out.ok);
            w.bool(out.object.is_some());
            if let Some(bytes) = &out.object {
                w.bytes(bytes);
            }
            w.seq(&out.diagnostics, |w, d| w.str(d));
            w.u64(out.wall_micros);
            w.u64(out.streams);
            w.bool(out.degraded);
            w.bool(out.stalled);
            w.u64(*unshipped);
        }
        Message::Reject {
            reason,
            retry_after_ms,
        } => {
            w.u8(3);
            w.str(reason);
            w.u64(*retry_after_ms);
        }
        Message::Sync => w.u8(4),
        Message::DeltaShip {
            from_shard,
            batch,
            router,
            epoch,
        } => {
            w.u8(5);
            w.u32(*from_shard);
            w.bytes(batch);
            w.u32(*router);
            w.u64(*epoch);
        }
        Message::Absorb {
            dead_shard,
            router,
            epoch,
        } => {
            w.u8(6);
            w.u32(*dead_shard);
            w.u32(*router);
            w.u64(*epoch);
        }
        Message::Ack => w.u8(7),
        Message::Ping { nonce } => {
            w.u8(8);
            w.u64(*nonce);
        }
        Message::Pong {
            shard,
            nonce,
            lease_epoch,
            lease_router,
            lease_age,
        } => {
            w.u8(9);
            w.u32(*shard);
            w.u64(*nonce);
            w.u64(*lease_epoch);
            w.u32(*lease_router);
            w.u32(*lease_age);
        }
        Message::FetchImage => w.u8(10),
        Message::Image {
            delta_seq,
            entries,
            router,
            epoch,
        } => {
            w.u8(11);
            w.u64(*delta_seq);
            w.seq(entries, |w, (fp, bytes)| {
                w.fp(*fp);
                w.bytes(bytes);
            });
            w.u32(*router);
            w.u64(*epoch);
        }
        Message::AbsorbDone {
            applied_ops,
            gapped,
        } => {
            w.u8(12);
            w.u64(*applied_ops);
            w.bool(*gapped);
        }
        Message::LeaseGrant { router, epoch } => {
            w.u8(13);
            w.u32(*router);
            w.u64(*epoch);
        }
        Message::LeaseRenew { router, epoch } => {
            w.u8(14);
            w.u32(*router);
            w.u64(*epoch);
        }
        Message::EpochReject { epoch, router } => {
            w.u8(15);
            w.u64(*epoch);
            w.u32(*router);
        }
    }
}

fn decode_message(r: &mut Reader<'_>) -> Result<Message, OpenError> {
    Ok(match r.u8()? {
        1 => Message::Compile(WireRequest {
            client: r.u64()?,
            module: r.str()?.to_owned(),
            source: r.str()?.to_owned(),
            defs: r.seq(8, |r| Ok((r.str()?.to_owned(), r.str()?.to_owned())))?,
            strategy: match r.u8()? {
                0 => DkyStrategy::Avoidance,
                1 => DkyStrategy::Pessimistic,
                2 => DkyStrategy::Skeptical,
                3 => DkyStrategy::Optimistic,
                _ => return Err(OpenError::Malformed("strategy")),
            },
            exec: match r.u8()? {
                1 => ExecChoice::Sim(r.u32()?),
                2 => ExecChoice::Threads(r.u64()? as usize),
                _ => return Err(OpenError::Malformed("executor")),
            },
            analyze: r.bool()?,
            task_deadline: match r.u64()? {
                0 => None,
                d => Some(d - 1),
            },
            max_stream_retries: r.u32()?,
        }),
        2 => Message::Outcome {
            outcome: WireOutcome {
                request_fp: r.fp()?,
                ok: r.bool()?,
                object: match r.bool()? {
                    false => None,
                    true => Some(r.bytes()?.to_vec()),
                },
                diagnostics: r.seq(4, |r| Ok(r.str()?.to_owned()))?,
                wall_micros: r.u64()?,
                streams: r.u64()?,
                degraded: r.bool()?,
                stalled: r.bool()?,
            },
            unshipped: r.u64()?,
        },
        3 => Message::Reject {
            reason: r.str()?.to_owned(),
            retry_after_ms: r.u64()?,
        },
        4 => Message::Sync,
        5 => Message::DeltaShip {
            from_shard: r.u32()?,
            batch: r.bytes()?.to_vec(),
            router: r.u32()?,
            epoch: r.u64()?,
        },
        6 => Message::Absorb {
            dead_shard: r.u32()?,
            router: r.u32()?,
            epoch: r.u64()?,
        },
        7 => Message::Ack,
        8 => Message::Ping { nonce: r.u64()? },
        9 => Message::Pong {
            shard: r.u32()?,
            nonce: r.u64()?,
            lease_epoch: r.u64()?,
            lease_router: r.u32()?,
            lease_age: r.u32()?,
        },
        10 => Message::FetchImage,
        11 => Message::Image {
            delta_seq: r.u64()?,
            entries: r.seq(20, |r| Ok((r.fp()?, r.bytes()?.to_vec())))?,
            router: r.u32()?,
            epoch: r.u64()?,
        },
        12 => Message::AbsorbDone {
            applied_ops: r.u64()?,
            gapped: r.bool()?,
        },
        13 => Message::LeaseGrant {
            router: r.u32()?,
            epoch: r.u64()?,
        },
        14 => Message::LeaseRenew {
            router: r.u32()?,
            epoch: r.u64()?,
        },
        15 => Message::EpochReject {
            epoch: r.u64()?,
            router: r.u32()?,
        },
        _ => return Err(OpenError::Malformed("message kind")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> WireRequest {
        WireRequest {
            client: 7,
            module: "Main".into(),
            source: "MODULE Main; BEGIN END Main.".into(),
            defs: vec![
                ("IO".into(), "DEFINITION MODULE IO; END IO.".into()),
                ("Str".into(), "DEFINITION MODULE Str; END Str.".into()),
            ],
            strategy: DkyStrategy::Optimistic,
            exec: ExecChoice::Sim(4),
            analyze: true,
            task_deadline: Some(0),
            max_stream_retries: 3,
        }
    }

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Compile(sample_request()),
            Message::Outcome {
                outcome: WireOutcome {
                    request_fp: Fp128 { hi: 1, lo: 2 },
                    ok: true,
                    object: Some(b"image".to_vec()),
                    diagnostics: vec!["warning: x".into()],
                    wall_micros: 1234,
                    streams: 5,
                    degraded: false,
                    stalled: true,
                },
                unshipped: 3,
            },
            Message::Outcome {
                outcome: WireOutcome {
                    request_fp: Fp128 { hi: 3, lo: 4 },
                    ok: false,
                    object: None,
                    diagnostics: Vec::new(),
                    wall_micros: 0,
                    streams: 0,
                    degraded: true,
                    stalled: false,
                },
                unshipped: 0,
            },
            Message::Reject {
                reason: "queue full".into(),
                retry_after_ms: 12,
            },
            Message::Sync,
            Message::DeltaShip {
                from_shard: 2,
                batch: ccm2_incr::encode_delta(9, &[]),
                router: 0,
                epoch: 4,
            },
            Message::Absorb {
                dead_shard: 1,
                router: 1,
                epoch: 9,
            },
            Message::Ack,
            Message::Ping { nonce: 0xC0FFEE },
            Message::Pong {
                shard: 3,
                nonce: 0xC0FFEE,
                lease_epoch: 5,
                lease_router: 1,
                lease_age: 2,
            },
            Message::Pong {
                shard: 0,
                nonce: 1,
                lease_epoch: 0,
                lease_router: NO_ROUTER,
                lease_age: 0,
            },
            Message::FetchImage,
            Message::Image {
                delta_seq: 42,
                entries: vec![
                    (Fp128 { hi: 5, lo: 6 }, b"cold".to_vec()),
                    (Fp128 { hi: 7, lo: 8 }, b"warm".to_vec()),
                ],
                router: 0,
                epoch: 3,
            },
            Message::Image {
                delta_seq: 0,
                entries: Vec::new(),
                router: NO_ROUTER,
                epoch: 0,
            },
            Message::AbsorbDone {
                applied_ops: 17,
                gapped: false,
            },
            Message::AbsorbDone {
                applied_ops: 0,
                gapped: true,
            },
            Message::LeaseGrant {
                router: 2,
                epoch: 11,
            },
            Message::LeaseRenew {
                router: 2,
                epoch: 11,
            },
            Message::EpochReject {
                epoch: 11,
                router: 2,
            },
        ]
    }

    #[test]
    fn every_message_kind_round_trips() {
        for msg in sample_messages() {
            let frame = encode_frame(&msg);
            assert_eq!(decode_frame(&frame).as_ref(), Some(&msg), "{msg:?}");
            let header: [u8; 16] = frame[..16].try_into().unwrap();
            assert_eq!(
                frame_len(&header, 1 << 20),
                Some(frame.len()),
                "header length agrees for {msg:?}"
            );
        }
    }

    // Envelope-level damage (truncation, bit flips, version skew under
    // a valid checksum) is `tests/envelopes.rs`'s; these are the checks
    // that belong to this format alone.
    #[test]
    fn frame_len_refuses_skew_and_oversized_payloads_from_the_header_alone() {
        let frame = encode_frame(&Message::Sync);
        let header: [u8; 16] = frame[..16].try_into().unwrap();
        assert_eq!(frame_len(&header, 1 << 20), Some(frame.len()));
        assert_eq!(
            frame_len(&header, 0),
            None,
            "payload above the cap is refused before allocation"
        );
        let mut skew = header;
        skew[8] = 99; // version byte
        assert_eq!(frame_len(&skew, 1 << 20), None, "header rejects skew");
        let mut foreign = header;
        foreign[0] ^= 1;
        assert_eq!(frame_len(&foreign, 1 << 20), None, "header rejects magic");
    }

    // Bodies of an older protocol generation presented under today's
    // version with a valid checksum: the payload grammar, not the
    // envelope, has to refuse them.
    #[test]
    fn short_bodies_of_older_generations_do_not_decode() {
        let frame = |body: &dyn Fn(&mut Writer)| WIRE_FORMAT.seal(|w| w.len_prefixed(|w| body(w)));
        let v2_pong = frame(&|w| {
            w.u8(9);
            w.u32(3);
            w.u64(0xC0FFEE);
        });
        assert!(
            decode_frame(&v2_pong).is_none(),
            "a Pong with no lease view"
        );
        let v2_absorb = frame(&|w| {
            w.u8(6);
            w.u32(1);
        });
        assert!(decode_frame(&v2_absorb).is_none(), "a stampless Absorb");
        let lying_length = WIRE_FORMAT.seal(|w| {
            w.u32(2);
            w.u8(4);
        });
        assert!(
            decode_frame(&lying_length).is_none(),
            "payload_len off by one"
        );
    }

    // Lease-plane damage: truncated or bit-flipped LeaseGrant /
    // LeaseRenew / EpochReject frames never decode — a corrupted lease
    // frame can neither grant, renew, nor revoke authority. Stale
    // epochs are *valid* frames (the shard answers EpochReject at the
    // protocol layer, exercised in the shard tests); here the claim is
    // that damage is indistinguishable from silence.
    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig {
            cases: 64,
            ..proptest::ProptestConfig::default()
        })]

        #[test]
        fn damaged_lease_frames_never_decode(
            router in 0u32..=u32::MAX,
            epoch in 0u64..=u64::MAX,
            cut in 0usize..64,
            at in 0usize..64,
            mask in 1u8..=255,
        ) {
            for msg in [
                Message::LeaseGrant { router, epoch },
                Message::LeaseRenew { router, epoch },
                Message::EpochReject { epoch, router },
            ] {
                let frame = encode_frame(&msg);
                proptest::prop_assert_eq!(decode_frame(&frame).as_ref(), Some(&msg));
                let cut = cut.min(frame.len() - 1);
                proptest::prop_assert!(decode_frame(&frame[..cut]).is_none(), "torn at {}", cut);
                let mut flipped = frame.clone();
                let at = at % flipped.len();
                flipped[at] ^= mask;
                proptest::prop_assert!(decode_frame(&flipped).is_none(), "flip at {}", at);
            }
        }
    }

    // Any truncation or byte-damage of a heartbeat frame decodes to
    // `None` (never panics, never misdecodes): the failure detector's
    // suspicion clock only ever advances on genuine silence or genuine
    // answers.
    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig {
            cases: 64,
            ..proptest::ProptestConfig::default()
        })]

        #[test]
        fn damaged_heartbeat_frames_never_decode(
            nonce in 0u64..=u64::MAX,
            shard in 0u32..=u32::MAX,
            cut in 0usize..64,
            at in 0usize..64,
            mask in 1u8..=255,
        ) {
            for msg in [
                Message::Ping { nonce },
                Message::Pong {
                    shard,
                    nonce,
                    lease_epoch: nonce ^ 0x5EED,
                    lease_router: shard.wrapping_add(1),
                    lease_age: shard % 7,
                },
            ] {
                let frame = encode_frame(&msg);
                proptest::prop_assert_eq!(decode_frame(&frame).as_ref(), Some(&msg));
                let cut = cut.min(frame.len() - 1);
                proptest::prop_assert!(decode_frame(&frame[..cut]).is_none(), "torn at {}", cut);
                let mut flipped = frame.clone();
                let at = at % flipped.len();
                flipped[at] ^= mask;
                proptest::prop_assert!(decode_frame(&flipped).is_none(), "flip at {}", at);
            }
        }
    }

    #[test]
    fn wire_request_round_trips_through_a_service_request() {
        let wire = sample_request();
        let req = wire.clone().into_request();
        assert_eq!(WireRequest::from_request(&req), wire);
        // The reconstructed request fingerprints identically to a
        // locally built one with the same inputs — the routing key and
        // the shard's single-flight key agree.
        let again = wire.into_request();
        assert_eq!(req.fingerprint(), again.fingerprint());
    }

    #[test]
    fn fault_plans_do_not_travel() {
        let mut req = sample_request().into_request();
        req.faults = Some(std::sync::Arc::new(ccm2_faults::FaultPlan::new()));
        let wire = WireRequest::from_request(&req);
        assert!(wire.into_request().faults.is_none());
    }
}
