//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so the workspace vendors
//! the slice of proptest used by its tests: the `proptest!` macro,
//! `ProptestConfig { cases }`, `prop_assert!` / `prop_assert_eq!`,
//! integer-range strategies, a regex-subset string strategy, and
//! `collection::vec`.
//!
//! Cases are generated (not shrunk) from an rng seeded by the test name,
//! so a failure reproduces deterministically on every run.

use std::fmt;
use std::ops::Range;

use rand::rngs::SmallRng;
use rand::Rng;

pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy, TestCaseError,
    };
}

/// Knobs for a `proptest!` block. Only `cases` is honoured.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 32 }
    }
}

/// A failed property within a generated case.
#[derive(Debug)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// Builds a failure carrying `message`.
    pub fn fail(message: impl Into<String>) -> TestCaseError {
        TestCaseError {
            message: message.into(),
        }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// Value generators usable on the left of `in` inside `proptest!`.
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Produces one value.
    fn generate(&self, rng: &mut SmallRng) -> Self::Value;
}

macro_rules! impl_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut SmallRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut SmallRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_int_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

/// String literals act as regex-subset strategies, as in real proptest.
impl Strategy for &str {
    type Value = String;

    fn generate(&self, rng: &mut SmallRng) -> String {
        regex::generate(self, rng)
    }
}

mod regex {
    //! A small regex *generator*: char classes, literals, escapes, and the
    //! quantifiers `{m}`, `{m,n}`, `?`, `*`, `+`. Enough for patterns like
    //! `"[ -~\n]{0,400}"` and `"[A-Za-z][A-Za-z0-9]{0,8}"`.

    use rand::rngs::SmallRng;
    use rand::Rng;

    struct Atom {
        choices: Vec<char>,
        min: usize,
        max: usize,
    }

    pub fn generate(pattern: &str, rng: &mut SmallRng) -> String {
        let atoms = parse(pattern);
        let mut out = String::new();
        for a in &atoms {
            let n = rng.gen_range(a.min..=a.max);
            for _ in 0..n {
                out.push(a.choices[rng.gen_range(0..a.choices.len())]);
            }
        }
        out
    }

    fn parse(pattern: &str) -> Vec<Atom> {
        let chars: Vec<char> = pattern.chars().collect();
        let mut atoms = Vec::new();
        let mut i = 0;
        while i < chars.len() {
            let choices = match chars[i] {
                '[' => {
                    let (set, next) = parse_class(&chars, i + 1);
                    i = next;
                    set
                }
                '\\' => {
                    i += 2;
                    vec![unescape(chars[i - 1])]
                }
                c => {
                    assert!(
                        !matches!(c, '(' | ')' | '|' | '.'),
                        "regex shim: unsupported metachar {c:?} in {pattern:?}"
                    );
                    i += 1;
                    vec![c]
                }
            };
            let (min, max) = parse_quantifier(&chars, &mut i);
            atoms.push(Atom { choices, min, max });
        }
        atoms
    }

    fn parse_class(chars: &[char], mut i: usize) -> (Vec<char>, usize) {
        let mut set = Vec::new();
        while chars[i] != ']' {
            let lo = if chars[i] == '\\' {
                i += 2;
                unescape(chars[i - 1])
            } else {
                i += 1;
                chars[i - 1]
            };
            if chars[i] == '-' && chars[i + 1] != ']' {
                let hi = if chars[i + 1] == '\\' {
                    i += 3;
                    unescape(chars[i - 1])
                } else {
                    i += 2;
                    chars[i - 1]
                };
                set.extend(lo..=hi);
            } else {
                set.push(lo);
            }
        }
        (set, i + 1)
    }

    fn unescape(c: char) -> char {
        match c {
            'n' => '\n',
            't' => '\t',
            'r' => '\r',
            other => other,
        }
    }

    fn parse_quantifier(chars: &[char], i: &mut usize) -> (usize, usize) {
        match chars.get(*i) {
            Some('{') => {
                let close = chars[*i..]
                    .iter()
                    .position(|&c| c == '}')
                    .expect("regex shim: unterminated {quantifier}")
                    + *i;
                let body: String = chars[*i + 1..close].iter().collect();
                *i = close + 1;
                match body.split_once(',') {
                    Some((lo, hi)) => (
                        lo.parse().expect("quantifier lo"),
                        hi.parse().expect("quantifier hi"),
                    ),
                    None => {
                        let n = body.parse().expect("quantifier");
                        (n, n)
                    }
                }
            }
            Some('?') => {
                *i += 1;
                (0, 1)
            }
            Some('*') => {
                *i += 1;
                (0, 8)
            }
            Some('+') => {
                *i += 1;
                (1, 8)
            }
            _ => (1, 1),
        }
    }
}

pub mod collection {
    use super::Strategy;
    use rand::rngs::SmallRng;
    use rand::Rng;
    use std::ops::Range;

    /// Size bound for [`vec`].
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            SizeRange {
                lo: r.start,
                hi: r.end.saturating_sub(1),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n }
        }
    }

    /// Strategy producing `Vec`s of another strategy's values.
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// Generates vectors with lengths drawn from `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut SmallRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.size.lo..=self.size.hi);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

pub mod test_runner {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Drives one `proptest!`-declared test: owns the case rng.
    pub struct TestRunner {
        /// Rng shared by all strategies within the test.
        pub rng: SmallRng,
    }

    impl TestRunner {
        /// Seeds the runner from the test's name, so each test has a
        /// stable, independent value stream.
        pub fn new_for_test(name: &str) -> TestRunner {
            let mut h: u64 = 0xcbf29ce484222325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            TestRunner {
                rng: SmallRng::seed_from_u64(h),
            }
        }
    }
}

/// Re-exported so `$crate` paths in the macros resolve.
pub use rand as __rand;

/// Declares property tests. Supports the subset of the real grammar used
/// here: an optional `#![proptest_config(..)]` header followed by
/// `#[test] fn name(arg in strategy, ..) { .. }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr); $( #[test] fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )*) => {
        $(
            #[test]
            fn $name() {
                let cfg: $crate::ProptestConfig = $cfg;
                let mut runner =
                    $crate::test_runner::TestRunner::new_for_test(stringify!($name));
                for case in 0..cfg.cases {
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut runner.rng);)+
                    let outcome: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                    if let ::std::result::Result::Err(e) = outcome {
                        panic!(
                            "proptest {} failed at case {case}/{}: {e}\n  inputs: {}",
                            stringify!($name),
                            cfg.cases,
                            [$(format!("{} = {:?}", stringify!($arg), &$arg)),+].join(", "),
                        );
                    }
                }
            }
        )*
    };
}

/// Asserts within a `proptest!` body, failing the case (not the process).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {{
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    }};
}

/// Equality assertion within a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        match (&$left, &$right) {
            (l, r) => {
                if !(*l == *r) {
                    return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                        "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                        stringify!($left),
                        stringify!($right),
                        l,
                        r
                    )));
                }
            }
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        match (&$left, &$right) {
            (l, r) => {
                if !(*l == *r) {
                    return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                        "assertion failed: `{} == {}` ({})\n  left: {:?}\n right: {:?}",
                        stringify!($left),
                        stringify!($right),
                        format!($($fmt)*),
                        l,
                        r
                    )));
                }
            }
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16 })]

        #[test]
        fn int_ranges_in_bounds(a in 0u64..100, b in -5i64..5) {
            prop_assert!(a < 100);
            prop_assert!((-5..5).contains(&b));
        }

        #[test]
        fn regex_identifier_shape(w in "[A-Za-z][A-Za-z0-9]{0,8}") {
            prop_assert!(!w.is_empty() && w.len() <= 9, "bad length {}", w.len());
            prop_assert!(w.chars().next().expect("nonempty").is_ascii_alphabetic());
            prop_assert!(w.chars().all(|c| c.is_ascii_alphanumeric()));
        }

        #[test]
        fn regex_printable_class(s in "[ -~\n]{0,40}") {
            prop_assert!(s.len() <= 40);
            prop_assert!(s.chars().all(|c| c == '\n' || (' '..='~').contains(&c)));
        }

        #[test]
        fn vec_strategy_sizes(v in crate::collection::vec(0u8..4, 1..9)) {
            prop_assert!(!v.is_empty() && v.len() < 9);
            prop_assert!(v.iter().all(|&x| x < 4));
        }
    }

    #[test]
    fn same_name_gives_same_stream() {
        use crate::Strategy;
        let mut a = crate::test_runner::TestRunner::new_for_test("t");
        let mut b = crate::test_runner::TestRunner::new_for_test("t");
        for _ in 0..32 {
            assert_eq!(
                (0u64..1000).generate(&mut a.rng),
                (0u64..1000).generate(&mut b.rng)
            );
        }
    }
}
