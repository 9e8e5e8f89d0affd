//! Interner-independent cache-entry encoding (`CCM2INCR`), sealed in
//! the shared [`ccm2_support::envelope`].
//!
//! [`ccm2_support::Symbol`]s are run-local indices, so an on-disk entry
//! must never contain one: every symbol is written as its resolved string
//! and re-interned into the *current* run's interner at decode time.
//!
//! A truncated, damaged or differently-versioned entry fails
//! [`decode_entry`] before any field is trusted; the driver degrades
//! such entries to cache misses. Bump [`FORMAT_VERSION`] whenever the
//! payload layout changes (`tests/envelopes.rs` pins the encoding of a
//! sample and fails until the version moves with it).

use ccm2_codegen::ir::{CodeUnit, Instr, Shape};
use ccm2_codegen::merge::ModuleImage;
use ccm2_sema::builtins::Builtin;
use ccm2_support::envelope::{Format, OpenError, Reader, Writer};
use ccm2_support::intern::{Miss, SpanTable};
use ccm2_support::{Interner, Severity, Symbol};

/// On-disk format version. See the module docs before touching this.
/// v2: added the opaque interprocedural lock-summary blob (`summary`).
/// v3: same layout; the trailer (and every fingerprint keyed under this
/// number) is the word-at-a-time kernel's.
pub const FORMAT_VERSION: u32 = 3;

/// The cache-entry envelope.
pub const ENTRY_FORMAT: Format = Format {
    magic: *b"CCM2INCR",
    version: FORMAT_VERSION,
};

/// A diagnostic recorded for replay, with spans relative to the stream's
/// carve start (offsets shift between edits; content does not).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CachedDiag {
    /// Severity class.
    pub severity: Severity,
    /// `span.lo - carve.lo` at record time.
    pub rel_lo: u32,
    /// `span.hi - carve.lo` at record time.
    pub rel_hi: u32,
    /// The message, verbatim.
    pub message: String,
}

/// Everything a cache hit must reproduce for one stream: the code unit,
/// the diagnostics its tasks would have reported, and the lint data (the
/// unit's used-name set feeds the whole-module unused-import check, and
/// `findings` keeps lint counts exact in reports).
#[derive(Clone, Debug, PartialEq)]
pub struct CacheEntryData {
    /// The compiled unit.
    pub unit: CodeUnit,
    /// Diagnostics to replay, carve-relative.
    pub diags: Vec<CachedDiag>,
    /// Resolved names the unit's analysis marked as used (sorted).
    pub used: Vec<String>,
    /// Lint findings the unit's analysis reported.
    pub findings: u32,
    /// The unit's interprocedural lock summary, in the self-validating
    /// `ccm2-analysis` wire format (`summary::encode_summary`, spans
    /// carve-relative). Opaque here: this crate never interprets it, the
    /// driver decodes it at splice time. Empty when analysis was off.
    pub summary: Vec<u8>,
}

fn put_sym(w: &mut Writer, s: Symbol, interner: &Interner) {
    w.str(&interner.resolve(s));
}

fn write_shape(w: &mut Writer, shape: &Shape) {
    match shape {
        Shape::Int => w.u8(0),
        Shape::Real => w.u8(1),
        Shape::Bool => w.u8(2),
        Shape::Char => w.u8(3),
        Shape::Set => w.u8(4),
        Shape::Ptr => w.u8(5),
        Shape::ProcVal => w.u8(6),
        Shape::Str => w.u8(7),
        Shape::Addr => w.u8(8),
        Shape::Array(elem, len) => {
            w.u8(9);
            write_shape(w, elem);
            w.u32(*len);
        }
        Shape::Record(fields) => {
            w.u8(10);
            w.seq(fields, write_shape);
        }
    }
}

fn read_shape(r: &mut Reader<'_>, depth: u32) -> Result<Shape, OpenError> {
    if depth > 64 {
        return Err(OpenError::Malformed("shape nesting"));
    }
    Ok(match r.u8()? {
        0 => Shape::Int,
        1 => Shape::Real,
        2 => Shape::Bool,
        3 => Shape::Char,
        4 => Shape::Set,
        5 => Shape::Ptr,
        6 => Shape::ProcVal,
        7 => Shape::Str,
        8 => Shape::Addr,
        9 => {
            let elem = read_shape(r, depth + 1)?;
            Shape::Array(Box::new(elem), r.u32()?)
        }
        10 => Shape::Record(r.seq(1, |r| read_shape(r, depth + 1))?),
        _ => return Err(OpenError::Malformed("shape tag")),
    })
}

/// A builtin's name on the wire: `Builtin::ALL` lists the builtins in
/// discriminant order, so the discriminant is the index.
fn builtin_name(b: Builtin) -> &'static str {
    Builtin::ALL[b as usize].0
}

/// The builtin named `name` on the wire, matched as bytes: no UTF-8
/// check, no string.
fn builtin_by_name(name: &[u8]) -> Option<Builtin> {
    use Builtin::*;
    Some(match name {
        b"ABS" => Abs,
        b"CAP" => Cap,
        b"CHR" => Chr,
        b"DEC" => Dec,
        b"DISPOSE" => Dispose,
        b"EXCL" => Excl,
        b"FLOAT" => Float,
        b"HALT" => Halt,
        b"HIGH" => High,
        b"INC" => Inc,
        b"INCL" => Incl,
        b"MAX" => Max,
        b"MIN" => Min,
        b"NEW" => New,
        b"ODD" => Odd,
        b"ORD" => Ord,
        b"TRUNC" => Trunc,
        b"VAL" => Val,
        b"WriteInt" => WriteInt,
        b"WriteCard" => WriteCard,
        b"WriteChar" => WriteChar,
        b"WriteString" => WriteString,
        b"WriteLn" => WriteLn,
        b"WriteReal" => WriteReal,
        b"sin" => Sin,
        b"cos" => Cos,
        b"sqrt" => Sqrt,
        b"exp" => Exp,
        b"ln" => Ln,
        _ => return None,
    })
}

fn write_instr(w: &mut Writer, instr: &Instr, interner: &Interner) {
    match instr {
        Instr::PushInt(v) => {
            w.u8(0);
            w.i64(*v);
        }
        Instr::PushReal(bits) => {
            w.u8(1);
            w.u64(*bits);
        }
        Instr::PushBool(v) => {
            w.u8(2);
            w.bool(*v);
        }
        Instr::PushChar(c) => {
            w.u8(3);
            w.u8(*c);
        }
        Instr::PushStr(s) => {
            w.u8(4);
            put_sym(w, *s, interner);
        }
        Instr::PushNil => w.u8(5),
        Instr::PushSet(bits) => {
            w.u8(6);
            w.u64(*bits);
        }
        Instr::PushProc(s) => {
            w.u8(7);
            put_sym(w, *s, interner);
        }
        Instr::PushAddr { level_up, slot } => {
            w.u8(8);
            w.u32(*level_up);
            w.u32(*slot);
        }
        Instr::PushGlobalAddr { module, slot } => {
            w.u8(9);
            put_sym(w, *module, interner);
            w.u32(*slot);
        }
        Instr::AddrField(ix) => {
            w.u8(10);
            w.u32(*ix);
        }
        Instr::AddrIndex { lo, len } => {
            w.u8(11);
            w.i64(*lo);
            w.i64(*len);
        }
        Instr::AddrDeref => w.u8(12),
        Instr::Load => w.u8(13),
        Instr::Store => w.u8(14),
        Instr::Dup => w.u8(15),
        Instr::Pop => w.u8(16),
        Instr::Add => w.u8(17),
        Instr::Sub => w.u8(18),
        Instr::Mul => w.u8(19),
        Instr::DivInt => w.u8(20),
        Instr::ModInt => w.u8(21),
        Instr::DivReal => w.u8(22),
        Instr::Neg => w.u8(23),
        Instr::Not => w.u8(24),
        Instr::CmpEq => w.u8(25),
        Instr::CmpNe => w.u8(26),
        Instr::CmpLt => w.u8(27),
        Instr::CmpLe => w.u8(28),
        Instr::CmpGt => w.u8(29),
        Instr::CmpGe => w.u8(30),
        Instr::InSet => w.u8(31),
        Instr::SetIncl => w.u8(32),
        Instr::SetInclRange => w.u8(33),
        Instr::Jump(t) => {
            w.u8(34);
            w.u32(*t);
        }
        Instr::JumpIfFalse(t) => {
            w.u8(35);
            w.u32(*t);
        }
        Instr::JumpIfTrue(t) => {
            w.u8(36);
            w.u32(*t);
        }
        Instr::Call {
            target,
            argc,
            link_up,
        } => {
            w.u8(37);
            put_sym(w, *target, interner);
            w.u32(*argc);
            w.u32(*link_up);
        }
        Instr::CallIndirect { argc } => {
            w.u8(38);
            w.u32(*argc);
        }
        Instr::CallBuiltin { builtin, argc } => {
            w.u8(39);
            w.str(builtin_name(*builtin));
            w.u32(*argc);
        }
        Instr::Return => w.u8(40),
        Instr::ReturnValue => w.u8(41),
        Instr::Halt => w.u8(42),
        Instr::NewCell { shape } => {
            w.u8(43);
            w.u32(*shape);
        }
        Instr::DisposeCell => w.u8(44),
        Instr::Nop => w.u8(45),
    }
}

fn write_unit(w: &mut Writer, unit: &CodeUnit, interner: &Interner) {
    put_sym(w, unit.name, interner);
    w.u32(unit.level);
    w.u32(unit.param_count);
    w.seq(&unit.frame, write_shape);
    w.seq(&unit.shapes, write_shape);
    w.seq(&unit.code, |w, i| write_instr(w, i, interner));
}

/// Serializes a cache entry.
pub fn encode_entry(entry: &CacheEntryData, interner: &Interner) -> Vec<u8> {
    ENTRY_FORMAT.seal(|w| {
        write_unit(w, &entry.unit, interner);
        w.seq(&entry.diags, |w, d| {
            w.u8(match d.severity {
                Severity::Note => 0,
                Severity::Warning => 1,
                Severity::Error => 2,
            });
            w.u32(d.rel_lo);
            w.u32(d.rel_hi);
            w.str(&d.message);
        });
        w.seq(&entry.used, |w, name| w.str(name));
        w.u32(entry.findings);
        w.bytes(&entry.summary);
    })
}

/// Deserializes a cache entry, validating magic, version and checksum
/// before trusting any field. Symbols are interned into `interner`.
pub fn decode_entry(bytes: &[u8], interner: &Interner) -> Result<CacheEntryData, OpenError> {
    EntryDecoder::new(interner).decode(bytes)
}

/// Decodes cache entries one after another into one interner. Its name
/// table hands the interner each distinct string once, at its first
/// occurrence, however many instructions and entries name it — which is
/// when interning every occurrence would have numbered a new symbol, so
/// numbering is unchanged.
pub struct EntryDecoder<'i> {
    interner: &'i Interner,
    /// Every distinct name decoded so far, end to end: the buffer
    /// `names` keys are spans of.
    seen: Vec<u8>,
    names: SpanTable<Symbol>,
}

/// `u32` at byte `at` of a fixed-width field array.
#[inline]
fn u32_at<const N: usize>(b: &[u8; N], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().expect("four bytes"))
}

/// `i64` at byte `at` of a fixed-width field array.
#[inline]
fn i64_at<const N: usize>(b: &[u8; N], at: usize) -> i64 {
    i64::from_le_bytes(b[at..at + 8].try_into().expect("eight bytes"))
}

impl<'i> EntryDecoder<'i> {
    /// A decoder interning into `interner`.
    pub fn new(interner: &'i Interner) -> EntryDecoder<'i> {
        EntryDecoder {
            interner,
            seen: Vec::new(),
            names: SpanTable::new(),
        }
    }

    /// [`decode_entry`], through this decoder's name table.
    pub fn decode(&mut self, bytes: &[u8]) -> Result<CacheEntryData, OpenError> {
        let mut r = ENTRY_FORMAT.open(bytes)?;
        let entry = CacheEntryData {
            unit: self.read_unit(&mut r)?,
            diags: r.seq(13, |r| {
                let severity = match r.u8()? {
                    0 => Severity::Note,
                    1 => Severity::Warning,
                    2 => Severity::Error,
                    _ => return Err(OpenError::Malformed("severity")),
                };
                Ok(CachedDiag {
                    severity,
                    rel_lo: r.u32()?,
                    rel_hi: r.u32()?,
                    message: r.str()?.to_owned(),
                })
            })?,
            used: r.seq(4, |r| Ok(r.str()?.to_owned()))?,
            findings: r.u32()?,
            summary: r.bytes()?.to_vec(),
        };
        r.done()?;
        Ok(entry)
    }

    #[inline]
    fn sym(&mut self, r: &mut Reader<'_>) -> Result<Symbol, OpenError> {
        let bytes = r.bytes()?;
        match self.names.find(&self.seen, bytes) {
            Ok(sym) => Ok(sym),
            Err(miss) => self.first_sym(bytes, miss),
        }
    }

    /// A name this decoder has not met: the one question it asks the
    /// interner about it.
    #[cold]
    fn first_sym(&mut self, bytes: &[u8], miss: Miss) -> Result<Symbol, OpenError> {
        let name = std::str::from_utf8(bytes).map_err(|_| OpenError::Malformed("utf-8 string"))?;
        let sym = self.interner.intern(name);
        self.names.fill(miss, self.seen.len(), sym);
        self.seen.extend_from_slice(bytes);
        Ok(sym)
    }

    fn read_unit(&mut self, r: &mut Reader<'_>) -> Result<CodeUnit, OpenError> {
        let name = self.sym(r)?;
        let level = r.u32()?;
        let param_count = r.u32()?;
        Ok(CodeUnit {
            name,
            level,
            param_count,
            frame: r.seq(1, |r| read_shape(r, 0))?,
            shapes: r.seq(1, |r| read_shape(r, 0))?,
            code: r.seq(1, |r| self.read_instr(r))?,
        })
    }

    /// One instruction: its tag, the symbol string of the four that name
    /// one, then its fixed-width operands, read as one array.
    #[inline(always)] // into `seq`'s loop: the instruction is built in place
    fn read_instr(&mut self, r: &mut Reader<'_>) -> Result<Instr, OpenError> {
        Ok(match r.u8()? {
            0 => Instr::PushInt(i64::from_le_bytes(r.array()?)),
            1 => Instr::PushReal(u64::from_le_bytes(r.array()?)),
            2 => Instr::PushBool(r.bool()?),
            3 => Instr::PushChar(r.u8()?),
            4 => Instr::PushStr(self.sym(r)?),
            5 => Instr::PushNil,
            6 => Instr::PushSet(u64::from_le_bytes(r.array()?)),
            7 => Instr::PushProc(self.sym(r)?),
            8 => {
                let b: [u8; 8] = r.array()?;
                Instr::PushAddr {
                    level_up: u32_at(&b, 0),
                    slot: u32_at(&b, 4),
                }
            }
            9 => Instr::PushGlobalAddr {
                module: self.sym(r)?,
                slot: r.u32()?,
            },
            10 => Instr::AddrField(r.u32()?),
            11 => {
                let b: [u8; 16] = r.array()?;
                Instr::AddrIndex {
                    lo: i64_at(&b, 0),
                    len: i64_at(&b, 8),
                }
            }
            12 => Instr::AddrDeref,
            13 => Instr::Load,
            14 => Instr::Store,
            15 => Instr::Dup,
            16 => Instr::Pop,
            17 => Instr::Add,
            18 => Instr::Sub,
            19 => Instr::Mul,
            20 => Instr::DivInt,
            21 => Instr::ModInt,
            22 => Instr::DivReal,
            23 => Instr::Neg,
            24 => Instr::Not,
            25 => Instr::CmpEq,
            26 => Instr::CmpNe,
            27 => Instr::CmpLt,
            28 => Instr::CmpLe,
            29 => Instr::CmpGt,
            30 => Instr::CmpGe,
            31 => Instr::InSet,
            32 => Instr::SetIncl,
            33 => Instr::SetInclRange,
            34 => Instr::Jump(r.u32()?),
            35 => Instr::JumpIfFalse(r.u32()?),
            36 => Instr::JumpIfTrue(r.u32()?),
            37 => {
                let target = self.sym(r)?;
                let b: [u8; 8] = r.array()?;
                Instr::Call {
                    target,
                    argc: u32_at(&b, 0),
                    link_up: u32_at(&b, 4),
                }
            }
            38 => Instr::CallIndirect { argc: r.u32()? },
            39 => Instr::CallBuiltin {
                builtin: builtin_by_name(r.bytes()?).ok_or(OpenError::Malformed("builtin name"))?,
                argc: r.u32()?,
            },
            40 => Instr::Return,
            41 => Instr::ReturnValue,
            42 => Instr::Halt,
            43 => Instr::NewCell { shape: r.u32()? },
            44 => Instr::DisposeCell,
            45 => Instr::Nop,
            _ => return Err(OpenError::Malformed("instruction tag")),
        })
    }
}

/// Encodes a whole [`ModuleImage`] with the same interner-independent
/// conventions as cache entries. Two images encode to the same bytes iff
/// they are semantically identical, regardless of which interner (or
/// symbol-registration order) produced them — the basis of the
/// warm-vs-cold byte-identity tests.
pub fn encode_image(image: &ModuleImage, interner: &Interner) -> Vec<u8> {
    let mut w = Writer::default();
    put_sym(&mut w, image.name, interner);
    put_sym(&mut w, image.entry, interner);
    w.seq(&image.units, |w, unit| write_unit(w, unit, interner));
    w.seq(&image.globals, |w, g| {
        put_sym(w, g.module, interner);
        w.seq(&g.slots, write_shape);
    });
    w.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entry(interner: &Interner) -> CacheEntryData {
        let name = interner.intern("M.P");
        let callee = interner.intern("M.Q");
        let unit = CodeUnit {
            name,
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
                Instr::PushStr(interner.intern("hello")),
                Instr::PushGlobalAddr {
                    module: interner.intern("Lib0"),
                    slot: 3,
                },
                Instr::Call {
                    target: callee,
                    argc: 2,
                    link_up: u32::MAX,
                },
                Instr::CallBuiltin {
                    builtin: Builtin::WriteLn,
                    argc: 0,
                },
                Instr::NewCell { shape: 0 },
                Instr::ReturnValue,
            ],
        };
        CacheEntryData {
            unit,
            diags: vec![CachedDiag {
                severity: Severity::Warning,
                rel_lo: 10,
                rel_hi: 14,
                message: "local variable `l9` is never used".into(),
            }],
            used: vec!["Lib0".into(), "Q".into()],
            findings: 1,
            // Opaque to this crate; any bytes round-trip.
            summary: vec![0xCC, 0x4D, 0x32, 0x4C],
        }
    }

    #[test]
    fn round_trip_through_a_fresh_interner() {
        let a = Interner::new();
        let entry = sample_entry(&a);
        let bytes = encode_entry(&entry, &a);

        // Decode into a *different* interner whose indices cannot match.
        let b = Interner::new();
        b.intern("decoy0");
        b.intern("decoy1");
        let back = decode_entry(&bytes, &b).expect("round trip");
        assert_eq!(back.diags, entry.diags);
        assert_eq!(back.used, entry.used);
        assert_eq!(back.findings, entry.findings);
        assert_eq!(back.summary, entry.summary);
        assert_eq!(b.resolve(back.unit.name), "M.P");
        assert_eq!(back.unit.frame, entry.unit.frame);
        assert_eq!(back.unit.code.len(), entry.unit.code.len());
        match &back.unit.code[3] {
            Instr::Call {
                target,
                argc,
                link_up,
            } => {
                assert_eq!(b.resolve(*target), "M.Q");
                assert_eq!((*argc, *link_up), (2, u32::MAX));
            }
            other => panic!("expected Call, got {other:?}"),
        }
    }

    /// Every instruction and every shape, with operands no two fields
    /// share, through the encoder and back: a decoder that reads a field
    /// from the wrong offset, or builds the wrong variant, misdecodes.
    #[test]
    fn every_instruction_and_shape_round_trips() {
        let i = Interner::new();
        let mut entry = sample_entry(&i);
        entry.unit.frame = vec![
            Shape::Int,
            Shape::Real,
            Shape::Bool,
            Shape::Char,
            Shape::Set,
            Shape::Ptr,
            Shape::ProcVal,
            Shape::Str,
            Shape::Addr,
            Shape::Array(Box::new(Shape::Array(Box::new(Shape::Set), 3)), 7),
            Shape::Record(vec![
                Shape::Record(vec![]),
                Shape::Array(Box::new(Shape::Int), 2),
            ]),
        ];
        entry.unit.code = vec![
            Instr::PushInt(-0x0102_0304_0506_0708),
            Instr::PushReal(1.5f64.to_bits()),
            Instr::PushBool(false),
            Instr::PushBool(true),
            Instr::PushChar(b'q'),
            Instr::PushStr(i.intern("")),
            Instr::PushNil,
            Instr::PushSet(0x8000_0000_0000_0001),
            Instr::PushProc(i.intern("M.R")),
            Instr::PushAddr {
                level_up: 11,
                slot: 12,
            },
            Instr::PushGlobalAddr {
                module: i.intern("Lib1"),
                slot: 13,
            },
            Instr::AddrField(14),
            Instr::AddrIndex { lo: -15, len: 16 },
            Instr::AddrDeref,
            Instr::Load,
            Instr::Store,
            Instr::Dup,
            Instr::Pop,
            Instr::Add,
            Instr::Sub,
            Instr::Mul,
            Instr::DivInt,
            Instr::ModInt,
            Instr::DivReal,
            Instr::Neg,
            Instr::Not,
            Instr::CmpEq,
            Instr::CmpNe,
            Instr::CmpLt,
            Instr::CmpLe,
            Instr::CmpGt,
            Instr::CmpGe,
            Instr::InSet,
            Instr::SetIncl,
            Instr::SetInclRange,
            Instr::Jump(17),
            Instr::JumpIfFalse(18),
            Instr::JumpIfTrue(19),
            Instr::Call {
                target: i.intern("M.P"),
                argc: 20,
                link_up: 21,
            },
            Instr::CallIndirect { argc: 22 },
            Instr::CallBuiltin {
                builtin: Builtin::Sqrt,
                argc: 23,
            },
            Instr::Return,
            Instr::ReturnValue,
            Instr::Halt,
            Instr::NewCell { shape: 24 },
            Instr::DisposeCell,
            Instr::Nop,
        ];
        let bytes = encode_entry(&entry, &i);
        assert_eq!(decode_entry(&bytes, &i), Ok(entry));
    }

    #[test]
    fn every_builtin_is_named_by_its_discriminant_and_decoded_by_its_name() {
        for (i, &(name, b)) in Builtin::ALL.iter().enumerate() {
            assert_eq!(b as usize, i, "Builtin::ALL out of discriminant order");
            assert_eq!(builtin_name(b), name);
            assert_eq!(builtin_by_name(name.as_bytes()), Some(b));
        }
        assert_eq!(builtin_by_name(b"abs"), None);
    }

    #[test]
    fn image_encoding_is_interner_independent() {
        let a = Interner::new();
        let entry = sample_entry(&a);
        let image_a = ModuleImage {
            name: a.intern("M"),
            units: vec![entry.unit.clone()],
            globals: vec![],
            entry: a.intern("M"),
        };
        let enc_a = encode_image(&image_a, &a);

        let b = Interner::new();
        b.intern("shift");
        b.intern("the");
        b.intern("indices");
        let rebuilt = decode_entry(&encode_entry(&entry, &a), &b).expect("decode");
        let image_b = ModuleImage {
            name: b.intern("M"),
            units: vec![rebuilt.unit],
            globals: vec![],
            entry: b.intern("M"),
        };
        assert_eq!(enc_a, encode_image(&image_b, &b));
    }
}
