//! Encoding of [`UnitSummary`] (`CCM2LOCK`) — the per-procedure digest
//! cached through `ccm2-incr`.
//!
//! The bytes ride inside an incremental cache entry as an *opaque*
//! field, so they are sealed in a [`ccm2_support::envelope`] of their
//! own and guard themselves exactly like the outer entry does.
//!
//! Spans are encoded **relative to a caller-supplied base** (the
//! stream's carve start), mirroring how cached diagnostics store
//! carve-relative offsets: a cached summary stays valid when unrelated
//! edits shift the procedure inside the file, and the driver rebases it
//! at splice time via the same `carve.lo` it uses for diagnostics.
//!
//! Bumping [`SUMMARY_FORMAT_VERSION`] invalidates every cached summary:
//! the driver treats an undecodable summary as a cache miss for the
//! whole entry and recompiles that stream (`tests/envelopes.rs` pins
//! the encoding of a sample and fails until the version moves with it).

use ccm2_support::envelope::{Format, OpenError, Reader, Writer};
use ccm2_support::source::Span;

use crate::callgraph::{CallSite, LockAcquire, UnitSummary};

/// Bump on ANY change to the summary encoding below — or, as for v2,
/// to the checksum kernel that seals it.
pub const SUMMARY_FORMAT_VERSION: u32 = 2;

/// The lock-summary envelope.
pub const SUMMARY_FORMAT: Format = Format {
    magic: *b"CCM2LOCK",
    version: SUMMARY_FORMAT_VERSION,
};

/// `held` set, then a name, then a span: the shape acquires and calls
/// share.
fn put_site(w: &mut Writer, held: &[String], name: &str, span: Span, base: u32) {
    w.seq(held, |w, s| w.str(s));
    w.str(name);
    w.u32(span.lo.saturating_sub(base));
    w.u32(span.hi.saturating_sub(base));
}

fn get_string(r: &mut Reader<'_>) -> Result<String, OpenError> {
    Ok(r.str()?.to_owned())
}

fn get_span(r: &mut Reader<'_>, base: u32) -> Result<Span, OpenError> {
    let rebase = |rel: u32| base.checked_add(rel).ok_or(OpenError::Malformed("span"));
    let (lo, hi) = (rebase(r.u32()?)?, rebase(r.u32()?)?);
    if hi < lo {
        return Err(OpenError::Malformed("span"));
    }
    Ok(Span::new(lo, hi))
}

fn get_site(r: &mut Reader<'_>, base: u32) -> Result<(Vec<String>, String, Span), OpenError> {
    Ok((r.seq(4, get_string)?, get_string(r)?, get_span(r, base)?))
}

/// Serializes one unit summary with spans stored relative to `base`
/// (the stream's carve start; pass 0 for absolute spans).
pub fn encode_summary(s: &UnitSummary, base: u32) -> Vec<u8> {
    SUMMARY_FORMAT.seal(|w| {
        w.str(&s.unit);
        w.seq(&s.acquires, |w, a| {
            put_site(w, &a.held, &a.lock, a.span, base)
        });
        w.seq(&s.calls, |w, c| {
            put_site(w, &c.held, &c.callee, c.span, base)
        });
    })
}

/// Deserializes a summary, validating magic, checksum and version, and
/// rebasing every span onto `base`. Never panics on malformed input.
pub fn decode_summary(bytes: &[u8], base: u32) -> Result<UnitSummary, OpenError> {
    let mut r = SUMMARY_FORMAT.open(bytes)?;
    let summary = UnitSummary {
        unit: get_string(&mut r)?,
        acquires: r.seq(16, |r| {
            let (held, lock, span) = get_site(r, base)?;
            Ok(LockAcquire { held, lock, span })
        })?,
        calls: r.seq(16, |r| {
            let (held, callee, span) = get_site(r, base)?;
            Ok(CallSite { held, callee, span })
        })?,
        from_cache: false,
    };
    r.done()?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> UnitSummary {
        UnitSummary {
            unit: String::from("M.P"),
            acquires: vec![LockAcquire {
                held: vec![String::from("muA")],
                lock: String::from("muB"),
                span: Span::new(110, 140),
            }],
            calls: vec![CallSite {
                held: vec![String::from("muA"), String::from("muB")],
                callee: String::from("Q"),
                span: Span::new(120, 121),
            }],
            from_cache: false,
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let s = sample();
        let bytes = encode_summary(&s, 0);
        let back = decode_summary(&bytes, 0).expect("roundtrip");
        assert_eq!(back, s);
    }

    #[test]
    fn spans_rebase_through_base() {
        // Encode relative to carve start 100, splice back at 250.
        let s = sample();
        let bytes = encode_summary(&s, 100);
        let back = decode_summary(&bytes, 250).expect("roundtrip");
        assert_eq!(back.acquires[0].span, Span::new(260, 290));
        assert_eq!(back.calls[0].span, Span::new(270, 271));
    }

    #[test]
    fn empty_summary_roundtrips() {
        let s = UnitSummary::new("M");
        let back = decode_summary(&encode_summary(&s, 0), 0).expect("roundtrip");
        assert_eq!(back, s);
    }
}
