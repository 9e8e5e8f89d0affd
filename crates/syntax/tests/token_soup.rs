//! Token soups: seeded runs of reserved words, names, literals and
//! punctuation, wrapped as a module and as a procedure stream, through
//! the parser's stages (`parse_implementation` runs `StreamingImpl`'s
//! stages to the end, so the module goes through those directly). No
//! parse may panic or loop — each reads fewer than 64 × (length + 8)
//! tokens — and every diagnostic span lies inside the input.
//!
//! A debug build runs 2 000 soups; an optimized one (`ci.sh`'s release
//! block) runs 100 000.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use ccm2_support::diag::DiagnosticSink;
use ccm2_support::hash::splitmix64;
use ccm2_support::intern::Interner;
use ccm2_support::source::SourceMap;
use ccm2_syntax::lexer::lex_file;
use ccm2_syntax::parser::{StreamingImpl, StreamingProc, TokenSource};
use ccm2_syntax::token::Token;

const SOUPS: u64 = if cfg!(debug_assertions) {
    2_000
} else {
    100_000
};

/// What a soup is made of: every reserved word, a few names and
/// literals, and every operator and delimiter.
const WORDS: &str = "AND ARRAY BEGIN BY CASE CONST DEFINITION DIV DO ELSE ELSIF END EXIT EXPORT \
    FOR FROM IF IMPLEMENTATION IMPORT IN LOOP MOD MODULE NOT OF OR POINTER PROCEDURE QUALIFIED \
    RECORD REPEAT RETURN SET THEN TO TYPE UNTIL VAR WHILE WITH LOCK TRY EXCEPT FINALLY RAISE \
    x y P M 7 2.5 'c' \"s\" + - * / := & = # < <= > >= ~ ^ . .. , ; : ( ) [ ] { } |";

/// A token source that counts its reads and panics past `limit`, so a
/// parse that loops ends as a failure instead of a hang.
struct Counting<'a> {
    tokens: &'a [Token],
    reads: Cell<usize>,
    limit: usize,
}

impl TokenSource for Counting<'_> {
    fn get(&self, i: usize) -> Option<Token> {
        self.reads.set(self.reads.get() + 1);
        assert!(self.reads.get() < self.limit, "{} reads", self.limit);
        self.tokens.get(i).copied()
    }
}

/// Parses `src` (a module, or else a procedure stream) through every
/// stage; `Err` says what went wrong.
fn parse(src: &str) -> Result<(), String> {
    let interner = Interner::new();
    let map = SourceMap::new();
    let file = map.add("soup.mod", src);
    let sink = DiagnosticSink::new();
    let tokens = lex_file(&file, &interner, &sink);
    let source = Counting {
        tokens: &tokens,
        reads: Cell::new(0),
        limit: 64 * (tokens.len() + 8),
    };
    if src.starts_with("MODULE") {
        if let Some(mut m) = StreamingImpl::begin(&source, &interner, &sink) {
            while m.next_decls().is_some() {}
            m.finish();
        }
    } else if let Some(mut p) = StreamingProc::begin(&source, &interner, &sink) {
        while p.next_decls().is_some() {}
        p.finish();
    }
    match sink
        .take()
        .into_iter()
        .find(|d| d.span.hi as usize > src.len())
    {
        Some(d) => Err(format!(
            "span {:?} outside the input: {}",
            d.span, d.message
        )),
        None => Ok(()),
    }
}

#[test]
fn token_soups_never_panic_loop_or_point_outside_the_input() {
    let words: Vec<&str> = WORDS.split_whitespace().collect();
    let mut state = 0x15_u64;
    let mut failures = Vec::new();
    for case in 0..SOUPS {
        let len = splitmix64(&mut state) % 48;
        let soup: Vec<&str> = (0..len)
            .map(|_| words[(splitmix64(&mut state) % words.len() as u64) as usize])
            .collect();
        let soup = soup.join(" ");
        for src in [
            format!("MODULE M; {soup} END M."),
            format!("PROCEDURE P; {soup} END P;"),
        ] {
            match catch_unwind(AssertUnwindSafe(|| parse(&src))) {
                Ok(Ok(())) => {}
                Ok(Err(e)) => failures.push(format!("case {case}: {src}\n{e}")),
                Err(_) => failures.push(format!("case {case}: {src}\npanicked")),
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {SOUPS} soups failed\n{}",
        failures.len(),
        failures[..failures.len().min(5)].join("\n\n")
    );
}
