//! A stable 128-bit content hasher: every fingerprint, envelope
//! checksum and ring point in the workspace is one of its digests.
//!
//! `std::hash` is explicitly *not* stable across runs, platforms or
//! compiler versions (SipHash is randomly keyed), so cache keys that live
//! on disk need their own hasher. [`StableHasher`] reads its input eight
//! bytes a step — little-endian words, whatever the host — into two
//! 64-bit lanes with different constants, and concatenates the lanes
//! into an [`Fp128`]. The constants are fixed, so the digest is a pure
//! function of the input bytes, forever.
//!
//! ```text
//! per word w:   a = rotl(a ^ w·K2, 31) · K1      b = rotl(b ^ w·K3, 29) · K4
//! at the end:   the pending 1–7 bytes, zero-padded, as one more word;
//!               hi = avalanche(a ^ len)          lo = avalanche(b ^ len)
//! ```
//!
//! What callers may rely on:
//!
//! * **Chunking does not show.** Bytes that do not fill a word wait in
//!   the hasher, so any split of a stream over [`StableHasher::write`]
//!   calls gives the digest of the whole; the byte count folded in at
//!   the end tells a zero-padded tail from real zero bytes.
//! * **Damage confined to one aligned 8-byte word always shows, in both
//!   lanes.** For a fixed lane a step is a bijection of the word (`K2`,
//!   `K3` are odd), for a fixed word a bijection of the lane, and the
//!   end is a bijection of each lane: two streams of one length that
//!   differ in one word leave it with different lanes and keep them
//!   different. Every single-bit flip is such damage. (The word is
//!   multiplied *before* it meets the lane so that no fixed pair of bit
//!   flips in neighbouring words cancels in a lane whatever the text;
//!   the multiply is off the lane's dependency chain and costs no time.)
//! * **Every output bit is usable.** The end is an avalanche, so
//!   [`Fp128::fold64`] can place ring points and [`FixedState`] can feed
//!   a hash map, which reads a digest's lowest and highest bits.
//!
//! This is a *fingerprint*, not a cryptographic hash: damage to several
//! words, or two different texts, collide with probability 2⁻¹²⁸ when
//! nobody is trying, and no resistance to someone who tries is claimed
//! (a forged image with a matching trailer is one `seal` call away).
//!
//! # Examples
//!
//! ```
//! use ccm2_support::hash::{Fp128, StableHasher};
//!
//! let mut h = StableHasher::new();
//! h.write(b"PROCEDURE ");
//! h.write(b"P();");
//! let fp = h.finish();
//! assert_eq!(fp, Fp128::of(b"PROCEDURE P();"));
//! assert_eq!(Fp128::from_hex(&fp.to_hex()), Some(fp));
//! ```

use std::hash::{BuildHasher, Hasher};

/// A 128-bit stable fingerprint (two independent 64-bit lanes).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Fp128 {
    /// First lane.
    pub hi: u64,
    /// Second lane.
    pub lo: u64,
}

impl Fp128 {
    /// Fingerprints a byte slice in one shot.
    pub fn of(bytes: &[u8]) -> Fp128 {
        let mut h = StableHasher::new();
        h.write(bytes);
        h.finish()
    }

    /// Renders the fingerprint as 32 lowercase hex digits (usable as a
    /// file name in the on-disk artifact store).
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// Folds the fingerprint into a single stable `u64` — the placement
    /// key for consistent-hash rings (`ccm2-fabric`). The rotation mixes
    /// both lanes so the fold keeps their independence instead of
    /// degenerating to one lane.
    pub fn fold64(self) -> u64 {
        self.hi ^ self.lo.rotate_left(32)
    }

    /// Parses the output of [`Fp128::to_hex`].
    pub fn from_hex(s: &str) -> Option<Fp128> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(Fp128 { hi, lo })
    }
}

// Four odd multipliers (the xxHash64 primes) and two lane seeds (the
// first fractional bits of pi). Fixed forever: see the module docs.
const K1: u64 = 0x9e37_79b1_85eb_ca87;
const K2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const K3: u64 = 0x1656_67b1_9e37_79f9;
const K4: u64 = 0x85eb_ca77_c2b2_ae63;
const SEED_A: u64 = 0x243f_6a88_85a3_08d3;
const SEED_B: u64 = 0x1319_8a2e_0370_7344;

/// The first `bytes.len()` (< 8) bytes of a little-endian word, the
/// rest zero. Two overlapping fixed-size reads, not a copy of variable
/// length: short keys (identifiers, a `u32`) are all tail.
#[inline]
pub(crate) fn le_partial(bytes: &[u8]) -> u64 {
    let n = bytes.len();
    debug_assert!(n < 8);
    if n >= 4 {
        let head = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"));
        let tail = u32::from_le_bytes(bytes[n - 4..].try_into().expect("4 bytes"));
        u64::from(head) | u64::from(tail) << (8 * (n - 4))
    } else if n > 0 {
        // n = 1: the same byte thrice; 2: first, last, last; 3: each once.
        u64::from(bytes[0])
            | u64::from(bytes[n / 2]) << (8 * (n / 2))
            | u64::from(bytes[n - 1]) << (8 * (n - 1))
    } else {
        0
    }
}

/// A bijection of `u64` that brings every input bit to every output
/// bit (the MurmurHash3 finalizer).
#[inline]
fn avalanche(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// Streaming stable hasher; see the module docs.
#[derive(Clone, Debug)]
pub struct StableHasher {
    a: u64,
    b: u64,
    /// The `len % 8` bytes not yet absorbed, as the low bytes of a
    /// little-endian word; zero above them.
    pending: u64,
    /// Bytes written so far.
    len: u64,
}

impl Default for StableHasher {
    fn default() -> StableHasher {
        StableHasher::new()
    }
}

impl StableHasher {
    /// Creates a hasher in the fixed initial state.
    pub fn new() -> StableHasher {
        StableHasher {
            a: SEED_A,
            b: SEED_B,
            pending: 0,
            len: 0,
        }
    }

    /// One step of both lanes. For a fixed word it is a bijection of
    /// each lane, and for a fixed lane a bijection of the word: that is
    /// what the one-word-damage guarantee in the module docs rests on.
    #[inline]
    fn absorb(&mut self, word: u64) {
        self.a = (self.a ^ word.wrapping_mul(K2))
            .rotate_left(31)
            .wrapping_mul(K1);
        self.b = (self.b ^ word.wrapping_mul(K3))
            .rotate_left(29)
            .wrapping_mul(K4);
    }

    /// Feeds raw bytes.
    #[inline]
    pub fn write(&mut self, mut bytes: &[u8]) {
        let have = (self.len % 8) as usize;
        self.len = self.len.wrapping_add(bytes.len() as u64);
        if have != 0 {
            let take = bytes.len().min(8 - have);
            self.pending |= le_partial(&bytes[..take]) << (8 * have);
            if have + take < 8 {
                return;
            }
            self.absorb(self.pending);
            bytes = &bytes[take..];
        }
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.absorb(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        self.pending = le_partial(words.remainder());
    }

    /// Feeds a `u32` in a fixed (little-endian) encoding.
    pub fn write_u32(&mut self, value: u32) {
        self.write(&value.to_le_bytes());
    }

    /// Feeds a `u64` in a fixed (little-endian) encoding.
    pub fn write_u64(&mut self, value: u64) {
        self.write(&value.to_le_bytes());
    }

    /// Feeds a string, length-prefixed so `("ab", "c")` and `("a", "bc")`
    /// hash differently.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// Feeds a previously computed fingerprint (for chaining digests).
    pub fn write_fp(&mut self, fp: Fp128) {
        self.write_u64(fp.hi);
        self.write_u64(fp.lo);
    }

    /// Extracts the fingerprint.
    #[inline]
    pub fn finish(&self) -> Fp128 {
        let mut end = self.clone();
        if !self.len.is_multiple_of(8) {
            end.absorb(self.pending);
        }
        // The length tells a zero-padded tail from real zero bytes; the
        // avalanche brings high bits down for `fold64` and hash maps.
        Fp128 {
            hi: avalanche(end.a ^ self.len),
            lo: avalanche(end.b ^ self.len),
        }
    }
}

/// A [`BuildHasher`] over the same kernel with a fixed seed, for the
/// compiler's in-memory maps of identifiers and
/// [`Symbol`](crate::intern::Symbol)s: a map's iteration order is then
/// the same in every run, and a lookup costs no more than under
/// `RandomState` (measured: a `u32` key 10 ns against 12, a ten-byte
/// name 18 against 18). It gives up `RandomState`'s protection against
/// keys crafted to collide, so it is not for keys a peer sends.
#[derive(Clone, Copy, Debug, Default)]
pub struct FixedState;

/// [`FixedState`]'s hasher: a [`StableHasher`] read out as
/// [`Fp128::fold64`].
#[derive(Clone, Debug, Default)]
pub struct FixedHasher(StableHasher);

impl BuildHasher for FixedState {
    type Hasher = FixedHasher;

    fn build_hasher(&self) -> FixedHasher {
        FixedHasher::default()
    }
}

impl Hasher for FixedHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.finish().fold64()
    }
}

/// One step of SplitMix64: adds the golden-ratio gamma to `state` and
/// returns its mix. The contract's mutants, the edit sessions and the
/// seeded tests of crates without `rand` draw from it, so a change here
/// moves all their draws.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` bytes of a fixed pattern with no period a word could hide.
    fn pattern(n: usize) -> Vec<u8> {
        (0..n as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect()
    }

    /// [`splitmix64`]: the tests' own source of repeatable random numbers.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            splitmix64(&mut self.0)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn bytes(&mut self, n: usize) -> Vec<u8> {
            (0..n).map(|_| self.next() as u8).collect()
        }
    }

    // The published SplitMix64 reference values from state 0: a change
    // to the generator fails here, by name, before it moves the draws of
    // the mutants, the edit sessions and the seeded tests.
    #[test]
    fn splitmix64_from_zero_gives_the_reference_values() {
        let mut state = 0;
        let draws = [(); 3].map(|_| splitmix64(&mut state));
        assert_eq!(
            draws,
            [0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f]
        );
    }

    // Known answers, cross-checked against a second implementation
    // written from the module docs alone. If one changes, every image on
    // disk, every frame on a wire and every cache key changes with it:
    // bump all seven `Format` versions and re-pin `tests/envelopes.rs`.
    #[test]
    fn digests_of_a_fixed_pattern_are_pinned_at_every_word_boundary() {
        const KNOWN: [(usize, &str); 12] = [
            (0, "7acdbb98b134421372dee428a469f6fd"),
            (1, "a853ed3fa0605afb22e39a6e22cee6b9"),
            (7, "46835fec1ffec29acc417aa5943fd8a3"),
            (8, "859efe07ce37c7418bc65bd71e299ac5"),
            (9, "56eab40f26e5b907804f5bdd8272eee5"),
            (15, "ecc489a49243d070675612edc483ca3c"),
            (16, "f6726be13c4a634c011533a85bb1edc2"),
            (17, "cf22a620fd2ecc2a15bcd8ba27865f74"),
            (63, "629f9c6f295f829d9217e032289c2588"),
            (64, "3a159710be210ebfc203a2662d5b0b21"),
            (65, "949066a1f25e7c2a72ef5de987986d47"),
            (1 << 20, "efe86141c4c2726d9508061b6abd26f1"),
        ];
        for (n, hex) in KNOWN {
            assert_eq!(Fp128::of(&pattern(n)).to_hex(), hex, "{n} bytes");
        }
    }

    #[test]
    fn any_chunking_and_any_typed_write_equal_the_one_shot_digest() {
        let mut rng = Rng(1);
        for _ in 0..500 {
            // The stream is built piece by piece, each piece written by
            // the method that encodes it, and compared with one `write`
            // of the bytes those encodings concatenate to.
            let mut h = StableHasher::new();
            let mut flat = Vec::new();
            for _ in 0..rng.below(12) {
                match rng.below(6) {
                    0 => {
                        let v = rng.next() as u32;
                        h.write_u32(v);
                        flat.extend_from_slice(&v.to_le_bytes());
                    }
                    1 => {
                        let v = rng.next();
                        h.write_u64(v);
                        flat.extend_from_slice(&v.to_le_bytes());
                    }
                    2 => {
                        let s = "x".repeat(rng.below(20));
                        h.write_str(&s);
                        flat.extend_from_slice(&(s.len() as u64).to_le_bytes());
                        flat.extend_from_slice(s.as_bytes());
                    }
                    3 => {
                        let fp = Fp128 {
                            hi: rng.next(),
                            lo: rng.next(),
                        };
                        h.write_fp(fp);
                        flat.extend_from_slice(&fp.hi.to_le_bytes());
                        flat.extend_from_slice(&fp.lo.to_le_bytes());
                    }
                    // Pieces of 0 and 1 bytes as often as longer ones.
                    kind => {
                        let n = rng.below(if kind == 4 { 2 } else { 40 });
                        let piece = rng.bytes(n);
                        h.write(&piece);
                        flat.extend_from_slice(&piece);
                    }
                }
            }
            assert_eq!(h.finish(), Fp128::of(&flat), "{} bytes", flat.len());
            let mut bytewise = StableHasher::new();
            flat.iter().for_each(|b| bytewise.write(&[*b]));
            assert_eq!(bytewise.finish(), Fp128::of(&flat));
        }
    }

    #[test]
    fn zero_padding_is_not_mistaken_for_zero_bytes() {
        let mut seen = std::collections::HashSet::new();
        for n in 0..=24 {
            assert!(seen.insert(Fp128::of(&vec![0; n])), "{n} zero bytes");
        }
    }

    #[test]
    fn overwriting_one_aligned_word_changes_both_lanes() {
        let mut rng = Rng(2);
        for _ in 0..2_000 {
            let len = 1 + rng.below(200);
            let good = rng.bytes(len);
            let at = rng.below(len.div_ceil(8)) * 8;
            let word = at..len.min(at + 8);
            let mut bad = good.clone();
            // Edge values and random ones; the last word may be short.
            let fill = match rng.below(4) {
                0 => vec![0x00; 8],
                1 => vec![0xff; 8],
                2 => {
                    let mut w = good[word.clone()].to_vec();
                    let bit = rng.below(w.len() * 8);
                    w[bit / 8] ^= 1 << (bit % 8);
                    w
                }
                _ => rng.bytes(8),
            };
            bad[word.clone()].copy_from_slice(&fill[..word.len()]);
            if bad == good {
                continue;
            }
            let (g, b) = (Fp128::of(&good), Fp128::of(&bad));
            assert_ne!(g.hi, b.hi, "word at {at} of {len}");
            assert_ne!(g.lo, b.lo, "word at {at} of {len}");
        }
    }

    #[test]
    fn one_flipped_input_bit_flips_about_half_of_each_lane() {
        const TRIALS: u32 = 4_096;
        let mut rng = Rng(3);
        let (mut hi, mut lo) = (0, 0);
        for _ in 0..TRIALS {
            let len = 1 + rng.below(96);
            let mut bytes = rng.bytes(len);
            let before = Fp128::of(&bytes);
            let bit = rng.below(bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            let after = Fp128::of(&bytes);
            for (flipped, total) in [
                ((before.hi ^ after.hi).count_ones(), &mut hi),
                ((before.lo ^ after.lo).count_ones(), &mut lo),
            ] {
                assert!((8..=56).contains(&flipped), "{flipped} bits of a lane");
                *total += flipped;
            }
        }
        for mean in [hi / TRIALS, lo / TRIALS] {
            assert!((30..=34).contains(&mean), "mean {mean} of 64 bits");
        }
    }

    #[test]
    fn short_identifiers_neither_collide_nor_crowd_a_shard() {
        // Every string of one to three letters and digits (`id0`…`id9`
        // among them), then `id10`…: what a lexer interns and what a
        // ring or a sharded map divides.
        const KEYS: usize = 200_000;
        let alphabet = b"abcdefghijklmnopqrstuvwxyz0123456789";
        let mut keys: Vec<Vec<u8>> = Vec::with_capacity(KEYS);
        for &a in alphabet {
            keys.push(vec![a]);
            for &b in alphabet {
                keys.push(vec![a, b]);
                keys.extend(alphabet.iter().map(|&c| vec![a, b, c]));
            }
        }
        let named = KEYS - keys.len();
        keys.extend((10..10 + named).map(|i| format!("id{i}").into_bytes()));

        let digests: std::collections::HashSet<Fp128> = keys.iter().map(|k| Fp128::of(k)).collect();
        assert_eq!(digests.len(), KEYS);
        let mut shards = [0usize; 16];
        for fp in &digests {
            shards[(fp.fold64() % 16) as usize] += 1;
        }
        let even = KEYS / 16;
        for (i, &n) in shards.iter().enumerate() {
            assert!(n.abs_diff(even) * 10 <= even, "shard {i} holds {n}");
        }
    }

    #[test]
    fn fixed_state_hashes_like_the_kernel_and_orders_a_map_the_same_every_time() {
        use std::collections::HashMap;
        let mut h = FixedState.build_hasher();
        Hasher::write(&mut h, b"WriteInt");
        assert_eq!(Hasher::finish(&h), Fp128::of(b"WriteInt").fold64());
        let order = || {
            let mut map = HashMap::with_hasher(FixedState);
            map.extend((0..100u32).map(|i| (i, ())));
            map.into_keys().collect::<Vec<u32>>()
        };
        assert_eq!(order(), order());
    }

    #[test]
    fn lanes_are_independent() {
        let a = Fp128::of(b"x");
        let b = Fp128::of(b"y");
        assert_ne!(a, b);
        assert_ne!(a.hi, a.lo);
    }

    #[test]
    fn length_prefix_separates_strings() {
        let mut h1 = StableHasher::new();
        h1.write_str("ab");
        h1.write_str("c");
        let mut h2 = StableHasher::new();
        h2.write_str("a");
        h2.write_str("bc");
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn hex_round_trip() {
        let fp = Fp128::of(b"round trip me");
        let hex = fp.to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(Fp128::from_hex(&hex), Some(fp));
        assert_eq!(Fp128::from_hex("zz"), None);
        assert_eq!(Fp128::from_hex(&hex[..31]), None);
    }

    #[test]
    fn fold64_is_stable_and_lane_sensitive() {
        let fp = Fp128::of(b"ring point");
        assert_eq!(fp.fold64(), fp.fold64(), "pure function");
        let hi_only = Fp128 {
            hi: fp.hi ^ 1,
            lo: fp.lo,
        };
        let lo_only = Fp128 {
            hi: fp.hi,
            lo: fp.lo ^ 1,
        };
        assert_ne!(fp.fold64(), hi_only.fold64());
        assert_ne!(fp.fold64(), lo_only.fold64());
    }

    #[test]
    fn empty_input_has_nontrivial_digest() {
        let fp = StableHasher::new().finish();
        assert_ne!(fp.hi, SEED_A);
        assert_ne!(fp.lo, SEED_B);
    }
}
