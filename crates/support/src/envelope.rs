//! The one checksummed envelope every `CCM2*` format is sealed in, and
//! the one bounds-checked cursor pair that writes and reads payloads.
//!
//! ```text
//! magic 8 bytes · version u32 LE · payload · Fp128 (hi u64 LE, lo u64 LE)
//! ```
//!
//! The trailer is [`Fp128::of`] everything before it. The magic is
//! inside the checksummed bytes, so one format's image never validates
//! as another's and no per-format seed is needed; there is no length
//! field because the envelope is always handed a whole file or frame
//! and the trailer sits at its end (`CCM2WIRE`, read off a socket,
//! carries its length as the first field of its own payload).
//!
//! [`Format::open`] trusts nothing before the checksum has passed, and
//! the [`Reader`] it returns trusts nothing after: every read is
//! bounds-checked, and [`Reader::count`] refuses an element count the
//! remaining bytes cannot hold, so a decoder never sizes an allocation
//! from a number it merely read. Integers are little-endian; byte
//! strings and UTF-8 strings carry a `u32` length prefix.
//!
//! # Examples
//!
//! ```
//! use ccm2_support::envelope::{Format, OpenError};
//!
//! const DEMO: Format = Format { magic: *b"CCM2DEMO", version: 1 };
//! let sealed = DEMO.seal(|w| w.seq(&["a", "b"], |w, s| w.str(s)));
//! let mut r = DEMO.open(&sealed)?;
//! let names = r.seq(4, |r| r.str())?;
//! r.done()?;
//! assert_eq!(names, ["a", "b"]);
//!
//! let newer = Format { version: 2, ..DEMO };
//! assert_eq!(newer.open(&sealed).err(), Some(OpenError::Version { found: 1 }));
//! # Ok::<(), OpenError>(())
//! ```

use crate::hash::Fp128;

/// Bytes an envelope adds around its payload: magic, version, trailer.
pub const OVERHEAD: usize = 8 + 4 + 16;

/// One format's identity. Bump `version` on any change to the payload
/// layout: older images then open as [`OpenError::Version`] instead of
/// misdecoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Format {
    /// Leading magic bytes.
    pub magic: [u8; 8],
    /// Payload layout version.
    pub version: u32,
}

/// Why an image was refused. Callers treat every variant alike (cache
/// miss, quarantine, transport fault); they are told apart for tests
/// and diagnostics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpenError {
    /// Shorter than magic + version + checksum.
    TooShort,
    /// Leading bytes are not this format's magic.
    BadMagic,
    /// Intact, but written under a different layout version.
    Version {
        /// The version found in the image.
        found: u32,
    },
    /// Trailer mismatch: truncated or damaged.
    Checksum,
    /// The checksum passed but the payload is not a valid encoding.
    Malformed(&'static str),
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpenError::TooShort => write!(f, "too short"),
            OpenError::BadMagic => write!(f, "bad magic"),
            OpenError::Version { found } => write!(f, "format version {found}"),
            OpenError::Checksum => write!(f, "checksum mismatch"),
            OpenError::Malformed(what) => write!(f, "malformed {what}"),
        }
    }
}

impl std::error::Error for OpenError {}

impl Format {
    /// Writes magic and version, lets `payload` append the body, and
    /// closes the image with the checksum trailer.
    pub fn seal(&self, payload: impl FnOnce(&mut Writer)) -> Vec<u8> {
        let mut w = Writer::default();
        w.buf.extend_from_slice(&self.magic);
        w.u32(self.version);
        payload(&mut w);
        w.fp(Fp128::of(&w.buf));
        w.buf
    }

    /// Validates length, magic, checksum and version — in that order,
    /// so only an intact image of this format can report a version —
    /// and returns a cursor over the payload.
    pub fn open<'a>(&self, bytes: &'a [u8]) -> Result<Reader<'a>, OpenError> {
        if bytes.len() < OVERHEAD {
            return Err(OpenError::TooShort);
        }
        if bytes[..8] != self.magic {
            return Err(OpenError::BadMagic);
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 16);
        let mut t = Reader { buf: trailer };
        if t.fp()? != Fp128::of(body) {
            return Err(OpenError::Checksum);
        }
        let mut r = Reader { buf: &body[8..] };
        match r.u32()? {
            found if found == self.version => Ok(r),
            found => Err(OpenError::Version { found }),
        }
    }
}

/// Append-only payload writer. Also usable bare (no envelope) through
/// `Writer::default()` and [`Writer::into_bytes`].
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Reserves room for `additional` more bytes — a capacity hint for
    /// encoders that know their size up front.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A boolean as `0` or `1`.
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// A `u32`, little-endian. Also the encoding of element counts.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A `u64`, little-endian.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// An `i64`, little-endian two's complement.
    #[inline]
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A fingerprint: `hi` then `lo`.
    #[inline]
    pub fn fp(&mut self, fp: Fp128) {
        self.u64(fp.hi);
        self.u64(fp.lo);
    }

    /// A byte string: `u32` length, then the bytes.
    #[inline]
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// A UTF-8 string, encoded as its bytes.
    #[inline]
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// A counted sequence, as [`Reader::seq`] reads it: the `u32`
    /// element count, then `item` for each element.
    #[inline]
    pub fn seq<T>(&mut self, items: &[T], mut item: impl FnMut(&mut Writer, &T)) {
        self.u32(items.len() as u32);
        for it in items {
            item(self, it);
        }
    }

    /// Writes a `u32` length, runs `body`, then patches the length to
    /// the number of bytes `body` appended.
    pub fn len_prefixed(&mut self, body: impl FnOnce(&mut Writer)) {
        let at = self.buf.len();
        self.u32(0);
        body(self);
        let len = (self.buf.len() - at - 4) as u32;
        self.buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked payload cursor; every method fails with
/// [`OpenError::Malformed`] rather than reading past the end.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], OpenError> {
        if n > self.buf.len() {
            return Err(OpenError::Malformed("length"));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// The next `N` bytes, after one length check: a decoder reads a
    /// record's fixed-width fields out of the array.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], OpenError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// Payload bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, OpenError> {
        Ok(self.array::<1>()?[0])
    }

    /// A boolean; any byte other than `0` or `1` is malformed.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, OpenError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(OpenError::Malformed("boolean")),
        }
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, OpenError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, OpenError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A little-endian `i64`.
    #[inline]
    pub fn i64(&mut self) -> Result<i64, OpenError> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// A fingerprint: `hi` then `lo`.
    #[inline]
    pub fn fp(&mut self) -> Result<Fp128, OpenError> {
        Ok(Fp128 {
            hi: self.u64()?,
            lo: self.u64()?,
        })
    }

    /// A length-prefixed byte string, borrowed from the image.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], OpenError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// A length-prefixed UTF-8 string, borrowed from the image.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str, OpenError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| OpenError::Malformed("utf-8 string"))
    }

    /// An element count, refused unless the bytes left could hold that
    /// many elements of at least `min_item_bytes` (≥ 1) each. What it
    /// returns is therefore bounded by the image's own length and safe
    /// to pre-allocate from.
    pub fn count(&mut self, min_item_bytes: usize) -> Result<usize, OpenError> {
        let n = self.u32()? as usize;
        if n > self.buf.len() / min_item_bytes.max(1) {
            return Err(OpenError::Malformed("count"));
        }
        Ok(n)
    }

    /// A counted sequence: [`Reader::count`], then `item` that many
    /// times.
    pub fn seq<T>(
        &mut self,
        min_item_bytes: usize,
        mut item: impl FnMut(&mut Reader<'a>) -> Result<T, OpenError>,
    ) -> Result<Vec<T>, OpenError> {
        let n = self.count(min_item_bytes)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(item(self)?);
        }
        Ok(v)
    }

    /// Succeeds only when the whole payload has been consumed: trailing
    /// bytes mean a framing bug or tampering, not a shorter value.
    pub fn done(&self) -> Result<(), OpenError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(OpenError::Malformed("trailing bytes"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMO: Format = Format {
        magic: *b"CCM2DEMO",
        version: 3,
    };

    #[test]
    fn every_primitive_round_trips_and_done_is_exact() {
        let fp = Fp128 { hi: 7, lo: !7 };
        let sealed = DEMO.seal(|w| {
            w.u8(0xAB);
            w.bool(true);
            w.u32(u32::MAX);
            w.u64(1 << 40);
            w.i64(-9);
            w.fp(fp);
            w.bytes(b"\x00\xff");
            w.str("héllo");
            w.len_prefixed(|w| w.u64(5));
        });
        let mut r = DEMO.open(&sealed).expect("opens");
        assert_eq!(r.u8(), Ok(0xAB));
        assert_eq!(r.bool(), Ok(true));
        assert_eq!(r.u32(), Ok(u32::MAX));
        assert_eq!(r.u64(), Ok(1 << 40));
        assert_eq!(r.i64(), Ok(-9));
        assert_eq!(r.fp(), Ok(fp));
        assert_eq!(r.bytes(), Ok(&b"\x00\xff"[..]));
        assert_eq!(r.str(), Ok("héllo"));
        assert_eq!(r.done(), Err(OpenError::Malformed("trailing bytes")));
        assert_eq!(r.u32(), Ok(8), "len_prefixed wrote the body's length");
        assert_eq!(r.remaining(), 8);
        assert_eq!(r.u64(), Ok(5));
        assert_eq!(r.done(), Ok(()));
        assert_eq!(r.u8(), Err(OpenError::Malformed("length")));
    }

    #[test]
    fn layout_is_magic_version_payload_trailer() {
        let sealed = DEMO.seal(|w| w.u8(9));
        assert_eq!(sealed.len(), OVERHEAD + 1);
        assert_eq!(&sealed[..8], b"CCM2DEMO");
        assert_eq!(sealed[8..12], 3u32.to_le_bytes());
        assert_eq!(sealed[12], 9);
        let sum = Fp128::of(&sealed[..13]);
        assert_eq!(sealed[13..21], sum.hi.to_le_bytes());
        assert_eq!(sealed[21..], sum.lo.to_le_bytes());
    }

    #[test]
    fn open_reports_the_first_failed_check() {
        let sealed = DEMO.seal(|w| w.u32(1));
        assert_eq!(
            DEMO.open(&sealed[..OVERHEAD - 1]).err(),
            Some(OpenError::TooShort)
        );
        let other = Format {
            magic: *b"CCM2OTHR",
            ..DEMO
        };
        assert_eq!(other.open(&sealed).err(), Some(OpenError::BadMagic));
        let mut flipped = sealed.clone();
        flipped[9] ^= 1; // inside the version field: damage, not skew
        assert_eq!(DEMO.open(&flipped).err(), Some(OpenError::Checksum));
        let older = Format { version: 2, ..DEMO };
        assert_eq!(
            DEMO.open(&older.seal(|w| w.u32(1))).err(),
            Some(OpenError::Version { found: 2 })
        );
    }

    #[test]
    fn count_is_bounded_by_the_bytes_that_remain() {
        let sealed = DEMO.seal(|w| {
            w.u32(u32::MAX);
            w.u32(2);
            w.u64(0);
        });
        let mut r = DEMO.open(&sealed).unwrap();
        assert_eq!(r.count(1), Err(OpenError::Malformed("count")));
        assert_eq!(r.count(4), Ok(2), "two 4-byte items fit in 8 bytes");
        let mut r = DEMO.open(&sealed).unwrap();
        assert!(r.seq(1, |r| r.u8()).is_err(), "seq checks its count first");
        assert_eq!(r.seq(4, |r| r.u32()), Ok(vec![0, 0]));
        let mut r = DEMO.open(&sealed).unwrap();
        r.u32().unwrap();
        assert_eq!(r.count(5), Err(OpenError::Malformed("count")));
    }

    #[test]
    fn strict_scalars_refuse_non_canonical_bytes() {
        let sealed = DEMO.seal(|w| {
            w.u8(2);
            w.bytes(&[0xff, 0xfe]);
        });
        let mut r = DEMO.open(&sealed).unwrap();
        assert_eq!(r.bool(), Err(OpenError::Malformed("boolean")));
        assert_eq!(r.str(), Err(OpenError::Malformed("utf-8 string")));
    }
}
