//! One table for every `CCM2*` format: each row names a [`Format`],
//! sample images and the format's decoder; every check below runs over
//! every row. Adding a format = one `Format` const + one `Row` here
//! (`ci.sh` counts both).
//!
//! A decoder is exercised as `recode` — decode, then encode what came
//! out. `None` means refused; a decoder that accepts an image must hand
//! back a value whose encoding is exactly that image, or it has read
//! something other than what was written.

use std::sync::{Arc, OnceLock};

use ccm2::{compile_concurrent, Options};
use ccm2_analysis::{
    decode_summary, encode_summary, CallSite, LockAcquire, UnitSummary, SUMMARY_FORMAT,
};
use ccm2_codegen::ir::{CodeUnit, Instr, Shape};
use ccm2_fabric::{
    decode_frame, decode_membership, encode_frame, encode_membership, MembershipImage, Message,
    ShardNode, TcpShardServer, TcpTransport, Transport, WireOutcome, WireRequest, MBRS_FORMAT,
    NO_ROUTER, WIRE_FORMAT,
};
use ccm2_incr::{
    decode_delta, decode_entry, decode_interface, encode_delta, encode_entry, encode_interface,
    ArtifactStore, CacheEntryData, CachedDiag, DeltaOp, MemStore, DELTA_FORMAT, ENTRY_FORMAT,
    IFACE_FORMAT,
};
use ccm2_sema::builtins::Builtin;
use ccm2_sema::symtab::DkyStrategy;
use ccm2_serve::{decode_snapshot, encode_snapshot, ExecChoice, ServeConfig, SNAPSHOT_FORMAT};
use ccm2_support::defs::DefLibrary;
use ccm2_support::envelope::{Format, OpenError};
use ccm2_support::hash::Fp128;
use ccm2_support::source::Span;
use ccm2_support::{Interner, Severity};
use ccm2_workload::{generate_suite, GeneratedModule};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

struct Row {
    format: Format,
    /// Sealed sample images; the first is the golden sample.
    samples: fn() -> Vec<Vec<u8>>,
    /// Decode, then encode again; `None` when the decoder refuses.
    recode: fn(&[u8]) -> Option<Vec<u8>>,
    /// `Fp128::of(samples()[0])` under `format.version`. The rows above
    /// `IFACE_FORMAT`'s were re-taken together when the checksum kernel
    /// changed (every version went up by one that day): compared with the
    /// commit before, every byte of every sample that differs is a version
    /// field or a trailer, its own or a nested image's. `WIRE_FORMAT`'s
    /// has moved since, with its version, when its payload changed.
    golden: Fp128,
}

#[rustfmt::skip]
const ROWS: &[Row] = &[
    Row { format: ENTRY_FORMAT, samples: entry_samples, recode: recode_entry, golden: Fp128 { hi: 17000951365270120202, lo: 18017450649145557381 } },
    Row { format: SUMMARY_FORMAT, samples: summary_samples, recode: recode_summary, golden: Fp128 { hi: 12128200687570000696, lo: 5635358363366766373 } },
    Row { format: DELTA_FORMAT, samples: delta_samples, recode: recode_delta, golden: Fp128 { hi: 17739559436524324548, lo: 6287946018326715261 } },
    Row { format: SNAPSHOT_FORMAT, samples: snapshot_samples, recode: recode_snapshot, golden: Fp128 { hi: 9201726763506789448, lo: 5662373810602702523 } },
    Row { format: MBRS_FORMAT, samples: mbrs_samples, recode: recode_mbrs, golden: Fp128 { hi: 11138832128959987642, lo: 3544610466040948425 } },
    Row { format: WIRE_FORMAT, samples: wire_samples, recode: recode_wire, golden: Fp128 { hi: 6172791915042815559, lo: 6515604005990220805 } },
    Row { format: IFACE_FORMAT, samples: iface_samples, recode: recode_iface, golden: Fp128 { hi: 5711969592137939276, lo: 11867040397517232289 } },
];

fn fp(n: u64) -> Fp128 {
    Fp128 { hi: n, lo: !n }
}

fn entry_samples() -> Vec<Vec<u8>> {
    let interner = Interner::new();
    let unit = CodeUnit {
        name: interner.intern("M.P"),
        level: 1,
        param_count: 2,
        frame: vec![
            Shape::Int,
            Shape::Addr,
            Shape::Array(Box::new(Shape::Record(vec![Shape::Int, Shape::Real])), 4),
        ],
        shapes: vec![Shape::Record(vec![Shape::Ptr])],
        code: vec![
            Instr::PushInt(-7),
            Instr::PushBool(true),
            Instr::PushStr(interner.intern("hello")),
            Instr::PushGlobalAddr {
                module: interner.intern("Lib0"),
                slot: 3,
            },
            Instr::Call {
                target: interner.intern("M.Q"),
                argc: 2,
                link_up: u32::MAX,
            },
            Instr::CallBuiltin {
                builtin: Builtin::Abs,
                argc: 1,
            },
            Instr::NewCell { shape: 0 },
            Instr::ReturnValue,
        ],
    };
    let entry = CacheEntryData {
        unit,
        diags: vec![CachedDiag {
            severity: Severity::Warning,
            rel_lo: 10,
            rel_hi: 14,
            message: "local variable `l9` is never used".into(),
        }],
        used: vec!["Lib0".into(), "Q".into()],
        findings: 1,
        summary: summary_samples().remove(0),
    };
    let mut samples = vec![encode_entry(&entry, &interner)];
    samples.extend(real_entries().iter().cloned());
    samples
}

/// Every artifact a cold compile of `source` stores, in fingerprint
/// order: cache entries and interfaces.
fn stored(name: &str, source: &str, defs: &DefLibrary) -> Vec<Vec<u8>> {
    let store = Arc::new(MemStore::new());
    let out = compile_concurrent(
        source,
        Arc::new(defs.clone()),
        Arc::new(Interner::new()),
        Options {
            analyze: true,
            incremental: Some(Arc::clone(&store) as Arc<dyn ArtifactStore>),
            ..Options::threads(2)
        },
    );
    assert!(out.is_ok(), "{name}: {:?}", out.diagnostics);
    let fps = store.fingerprints();
    fps.into_iter().filter_map(|fp| store.load(fp)).collect()
}

/// The artifacts of `format` among `blobs`.
fn of_format(blobs: Vec<Vec<u8>>, format: Format) -> Vec<Vec<u8>> {
    blobs
        .into_iter()
        .filter(|b| b.starts_with(&format.magic))
        .collect()
}

/// Every entry a cold compile of `m` stores, in fingerprint order.
fn stored_entries(m: &GeneratedModule) -> Vec<Vec<u8>> {
    of_format(stored(&m.name, &m.source, &m.defs), ENTRY_FORMAT)
}

/// Entries a real suite module stores: in the smallest module that has
/// all four, for each of `Call`, `CallBuiltin`, `PushGlobalAddr` and a
/// shape that holds shapes (the suite's records), the shortest entry
/// that has one.
fn real_entries() -> &'static [Vec<u8>] {
    static CHOSEN: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    CHOSEN.get_or_init(|| {
        fn has_instr(e: &CacheEntryData, what: fn(&Instr) -> bool) -> bool {
            e.unit.code.iter().any(what)
        }
        let features: [fn(&CacheEntryData) -> bool; 4] = [
            |e| has_instr(e, |i| matches!(i, Instr::Call { .. })),
            |e| has_instr(e, |i| matches!(i, Instr::CallBuiltin { .. })),
            |e| has_instr(e, |i| matches!(i, Instr::PushGlobalAddr { .. })),
            |e| {
                let mut shapes = e.unit.frame.iter().chain(&e.unit.shapes);
                shapes.any(|s| matches!(s, Shape::Array(..) | Shape::Record(_)))
            },
        ];
        let mut suite = generate_suite();
        suite.sort_by_key(|m| m.source.len());
        for m in &suite {
            let mut stored = stored_entries(m);
            stored.sort_by_key(|b| (b.len(), b.clone()));
            let interner = Interner::new();
            let decoded: Vec<CacheEntryData> = stored
                .iter()
                .map(|b| decode_entry(b, &interner).expect("a stored entry decodes"))
                .collect();
            let shortest: Option<Vec<usize>> = features
                .iter()
                .map(|has| decoded.iter().position(has))
                .collect();
            if let Some(mut at) = shortest {
                at.sort_unstable();
                at.dedup();
                return at.into_iter().map(|i| stored[i].clone()).collect();
            }
        }
        panic!("no suite module stores all four kinds of entry");
    })
}

fn recode_entry(bytes: &[u8]) -> Option<Vec<u8>> {
    let interner = Interner::new();
    let entry = decode_entry(bytes, &interner).ok()?;
    Some(encode_entry(&entry, &interner))
}

// The decoders on every payload the compiler writes, not only on the
// samples: one cold pass over the suite, every cache entry and every
// interface it stores decoded and re-encoded to its own bytes.
#[test]
fn every_entry_a_suite_pass_stores_recodes_to_itself() {
    let (mut entries, mut interfaces) = (0, 0);
    for m in generate_suite() {
        for bytes in stored(&m.name, &m.source, &m.defs) {
            if bytes.starts_with(&IFACE_FORMAT.magic) {
                assert_eq!(recode_iface(&bytes), Some(bytes), "{}", m.name);
                interfaces += 1;
            } else {
                assert_eq!(recode_entry(&bytes), Some(bytes), "{}", m.name);
                entries += 1;
            }
        }
    }
    assert!(entries > 1000, "{entries} entries");
    assert!(interfaces > 500, "{interfaces} interfaces");
}

/// Interfaces as the compiler stores them: those of the hand-written
/// chain program (links into another interface's table, a forward
/// pointer, an enumeration, a procedure type, an open array, a
/// variable), longest first, then the shortest and the longest of the
/// smallest suite module.
fn iface_samples() -> Vec<Vec<u8>> {
    static CHOSEN: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    CHOSEN
        .get_or_init(|| {
            let mut defs = DefLibrary::new();
            for (name, text) in CHAIN_DEFS {
                defs.insert(name, text);
            }
            let mut chain = of_format(stored("Main", CHAIN_MAIN, &defs), IFACE_FORMAT);
            assert_eq!(chain.len(), 3, "Base, Colors and Shapes are recorded");
            chain.sort_by_key(|b| std::cmp::Reverse((b.len(), b.clone())));
            let mut suite = generate_suite();
            suite.sort_by_key(|m| m.source.len());
            let smallest = &suite[0];
            let mut real = of_format(
                stored(&smallest.name, &smallest.source, &smallest.defs),
                IFACE_FORMAT,
            );
            real.sort_by_key(|b| (b.len(), b.clone()));
            chain.push(real.first().expect("suite interfaces are recorded").clone());
            chain.push(real.last().expect("suite interfaces are recorded").clone());
            chain
        })
        .clone()
}

const CHAIN_MAIN: &str = include_str!("programs/chain/Main.mod");
const CHAIN_DEFS: [(&str, &str); 3] = [
    ("Base", include_str!("programs/chain/Base.def")),
    ("Colors", include_str!("programs/chain/Colors.def")),
    ("Shapes", include_str!("programs/chain/Shapes.def")),
];

fn recode_iface(bytes: &[u8]) -> Option<Vec<u8>> {
    let interner = Interner::new();
    let iface = decode_interface(bytes, &interner).ok()?;
    Some(encode_interface(&iface, &interner))
}

fn summary_samples() -> Vec<Vec<u8>> {
    let summary = UnitSummary {
        unit: "M.P".into(),
        acquires: vec![LockAcquire {
            held: vec!["muA".into()],
            lock: "muB".into(),
            span: Span::new(110, 140),
        }],
        calls: vec![CallSite {
            held: vec!["muA".into(), "muB".into()],
            callee: "Q".into(),
            span: Span::new(120, 121),
        }],
        from_cache: false,
    };
    vec![
        encode_summary(&summary, 0),
        encode_summary(&UnitSummary::new("M"), 0),
    ]
}

fn recode_summary(bytes: &[u8]) -> Option<Vec<u8>> {
    Some(encode_summary(&decode_summary(bytes, 0).ok()?, 0))
}

fn delta_ops() -> Vec<DeltaOp> {
    vec![
        DeltaOp::Insert {
            fp: fp(1),
            bytes: b"one".to_vec(),
        },
        DeltaOp::Evict { fp: fp(9) },
        DeltaOp::Insert {
            fp: fp(3),
            bytes: Vec::new(),
        },
    ]
}

fn delta_samples() -> Vec<Vec<u8>> {
    vec![encode_delta(&delta_ops()), encode_delta(&[])]
}

fn recode_delta(bytes: &[u8]) -> Option<Vec<u8>> {
    Some(encode_delta(&decode_delta(bytes)?))
}

fn snapshot_samples() -> Vec<Vec<u8>> {
    let entries = [(fp(2), b"two".to_vec()), (fp(1), b"one".to_vec())];
    vec![encode_snapshot(&entries), encode_snapshot(&[])]
}

fn recode_snapshot(bytes: &[u8]) -> Option<Vec<u8>> {
    Some(encode_snapshot(&decode_snapshot(bytes)?.entries))
}

fn mbrs_samples() -> Vec<Vec<u8>> {
    vec![encode_membership(&MembershipImage {
        epoch: 7,
        leader: 2,
        members: vec![0, 1, 4],
    })]
}

fn recode_mbrs(bytes: &[u8]) -> Option<Vec<u8>> {
    Some(encode_membership(&decode_membership(bytes)?))
}

fn compile_message(module: &str) -> Message {
    Message::Compile(WireRequest {
        client: 7,
        module: module.into(),
        source: format!("MODULE {module}; BEGIN END {module}."),
        defs: vec![("IO".into(), "DEFINITION MODULE IO; END IO.".into())],
        strategy: DkyStrategy::Optimistic,
        exec: ExecChoice::Sim(2),
        analyze: true,
    })
}

fn wire_samples() -> Vec<Vec<u8>> {
    let messages = [
        compile_message("Main"),
        Message::Outcome {
            outcome: WireOutcome {
                request_fp: fp(1),
                ok: true,
                object: Some(b"image".to_vec()),
                diagnostics: vec!["warning: x".into()],
                wall_micros: 1234,
                streams: 5,
            },
            unshipped: 3,
        },
        Message::DeltaShip {
            from_shard: 2,
            batch: encode_delta(&delta_ops()),
            router: 0,
            epoch: 4,
        },
        Message::Image {
            entries: vec![(fp(5), b"cold".to_vec()), (fp(7), b"warm".to_vec())],
            router: NO_ROUTER,
            epoch: 3,
        },
        Message::LeaseGrant {
            router: 2,
            epoch: 11,
        },
        Message::Sync,
    ];
    messages.iter().map(encode_frame).collect()
}

fn recode_wire(bytes: &[u8]) -> Option<Vec<u8>> {
    Some(encode_frame(&decode_frame(bytes)?))
}

/// What `seal` wrapped: the bytes between the version and the trailer.
fn payload(sealed: &[u8]) -> &[u8] {
    &sealed[12..sealed.len() - 16]
}

/// `payload` under `format`, with a valid checksum.
fn reseal(format: Format, payload: &[u8]) -> Vec<u8> {
    format.seal(|w| payload.iter().for_each(|&b| w.u8(b)))
}

fn name(row: &Row) -> String {
    String::from_utf8_lossy(&row.format.magic).into_owned()
}

/// An accepted image must re-encode to itself.
fn assert_refused_or_canonical(row: &Row, image: &[u8], what: &str) {
    if let Some(again) = (row.recode)(image) {
        assert!(again == image, "{}: {what} misdecoded", name(row));
    }
}

#[test]
fn samples_round_trip_and_match_their_golden_digests() {
    let mut changed = Vec::new();
    for row in ROWS {
        let samples = (row.samples)();
        for sample in &samples {
            assert_eq!(&sample[..8], row.format.magic, "{}", name(row));
            assert_eq!(sample[8..12], row.format.version.to_le_bytes());
            assert_eq!((row.recode)(sample).as_ref(), Some(sample), "{}", name(row));
        }
        let digest = Fp128::of(&samples[0]);
        if digest != row.golden {
            changed.push(format!(
                "{} v{} is now {digest:?}",
                name(row),
                row.format.version
            ));
        }
    }
    assert!(
        changed.is_empty(),
        "encoding changed: bump the version and re-pin — {changed:#?}"
    );
}

#[test]
fn every_truncation_and_every_single_bit_flip_is_refused() {
    for row in ROWS {
        for sample in (row.samples)() {
            for len in 0..sample.len() {
                assert!(
                    (row.recode)(&sample[..len]).is_none(),
                    "{}: truncation to {len} decoded",
                    name(row)
                );
            }
            for bit in 0..sample.len() * 8 {
                let mut bad = sample.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                assert!(
                    (row.recode)(&bad).is_none(),
                    "{}: flip of bit {bit} decoded",
                    name(row)
                );
            }
        }
    }
}

#[test]
fn foreign_magic_version_skew_and_trailing_bytes_are_refused_under_a_valid_checksum() {
    for row in ROWS {
        let Format { magic, version } = row.format;
        for sample in (row.samples)() {
            let body = payload(&sample);
            let foreign = Format {
                magic: *b"CCM2NOPE",
                ..row.format
            };
            assert_eq!(
                row.format.open(&reseal(foreign, body)).err(),
                Some(OpenError::BadMagic)
            );
            for found in [version - 1, version + 1] {
                let skewed = reseal(
                    Format {
                        magic,
                        version: found,
                    },
                    body,
                );
                assert_eq!(
                    row.format.open(&skewed).err(),
                    Some(OpenError::Version { found }),
                    "{}",
                    name(row)
                );
                assert!((row.recode)(&skewed).is_none(), "{} v{found}", name(row));
            }
            let mut longer = body.to_vec();
            longer.push(0);
            assert!(
                (row.recode)(&reseal(row.format, &longer)).is_none(),
                "{}: trailing byte accepted",
                name(row)
            );
        }
    }
}

// What the version field is there for. The skew above re-seals a
// payload; this one is the golden sample itself, untouched but for the
// version field set back by one and the trailer recomputed: the previous
// version's image of the same value, intact. A bump that forgot a format
// would leave its row reading `Version` of the wrong number, or decoding.
#[test]
fn the_golden_sample_one_version_back_is_refused_as_that_version() {
    for row in ROWS {
        let mut image = (row.samples)().remove(0);
        let previous = row.format.version - 1;
        let trailer = image.len() - 16;
        image[8..12].copy_from_slice(&previous.to_le_bytes());
        let sum = Fp128::of(&image[..trailer]);
        image[trailer..trailer + 8].copy_from_slice(&sum.hi.to_le_bytes());
        image[trailer + 8..].copy_from_slice(&sum.lo.to_le_bytes());
        assert_eq!(
            row.format.open(&image).err(),
            Some(OpenError::Version { found: previous }),
            "{}",
            name(row)
        );
        assert!((row.recode)(&image).is_none(), "{}", name(row));
    }
}

// A decoder that sizes a `Vec` from the count it read aborts the
// process on a 40-byte batch announcing `u32::MAX` ops (a 171 GB
// allocation). The sweep overwrites every payload position, so it hits
// every count and length field of every format without knowing where
// they are.
#[test]
fn forged_counts_are_refused_without_allocating_for_them() {
    for row in ROWS {
        for sample in (row.samples)() {
            let body = payload(&sample);
            for at in 0..body.len().saturating_sub(3) {
                let mut forged = body.to_vec();
                forged[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
                let image = reseal(row.format, &forged);
                assert_refused_or_canonical(row, &image, &format!("u32::MAX at {at}"));
            }
        }
    }
    let announced = DELTA_FORMAT.seal(|w| w.u32(u32::MAX));
    assert_eq!(announced.len(), 32);
    assert_eq!(decode_delta(&announced), None);
}

// The flips above only ever meet the checksum. These reach the payload
// grammars: every mutant carries a valid trailer.
#[test]
fn resealed_payload_mutations_never_panic_and_never_misdecode() {
    const EDGES: [u32; 6] = [0, 1, 2, 0x7fff_ffff, 0x8000_0000, u32::MAX];
    for row in ROWS {
        let samples = (row.samples)();
        let mut rng = SmallRng::seed_from_u64(0xE7E1_09E5);
        for case in 0..2000 {
            let mut body = payload(&samples[case % samples.len()]).to_vec();
            for _ in 0..rng.gen_range(1..=3) {
                if body.is_empty() {
                    break;
                }
                let at = rng.gen_range(0..body.len());
                match rng.gen_range(0..5) {
                    0 => body[at] = rng.gen_range(0..=255),
                    1 => body[at] ^= 1 << rng.gen_range(0..8),
                    2 => {
                        let edge = EDGES[rng.gen_range(0..EDGES.len())].to_le_bytes();
                        let n = edge.len().min(body.len() - at);
                        body[at..at + n].copy_from_slice(&edge[..n]);
                    }
                    3 => {
                        let end = rng.gen_range(at..=body.len().min(at + 24));
                        body.drain(at..end);
                    }
                    _ => {
                        let end = rng.gen_range(at..=body.len().min(at + 24));
                        let dup = body[at..end].to_vec();
                        body.splice(at..at, dup);
                    }
                }
            }
            let image = reseal(row.format, &body);
            assert_refused_or_canonical(row, &image, &format!("mutant {case}"));
        }
    }
}

// The forged batch as it arrives in production: inside a `DeltaShip`
// frame, off a socket. The shard must answer `Reject` — and still be
// there for the next request.
#[test]
fn a_shard_handed_a_forged_delta_ship_rejects_it_and_keeps_serving() {
    let config = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let server =
        TcpShardServer::serve(Arc::new(ShardNode::start(0, config))).expect("bind a shard server");
    let transport = TcpTransport::new();
    transport.register(0, server.addr());
    let call = |msg: &Message| {
        let answer = transport.call(0, &encode_frame(msg)).expect("reachable");
        decode_frame(&answer).expect("shard replies validly")
    };
    let forged = Message::DeltaShip {
        from_shard: 1,
        batch: DELTA_FORMAT.seal(|w| {
            w.u64(0);
            w.u32(u32::MAX);
        }),
        router: NO_ROUTER,
        epoch: 0,
    };
    let Message::Reject { reason, .. } = call(&forged) else {
        panic!("forged batch must be rejected");
    };
    assert_eq!(reason, "bad delta batch");
    let Message::Outcome { outcome, .. } = call(&compile_message("After")) else {
        panic!("the shard must still compile");
    };
    assert!(outcome.ok, "{:?}", outcome.diagnostics);
}
