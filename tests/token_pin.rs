//! The suite's token stream, pinned. Every module of the 37-module suite
//! and then each of its interfaces (by name) is lexed into a fresh
//! interner per module; one digest covers every token's kind, span and
//! file, then the interner's strings in index order. The value was
//! recorded before the lexer went table-driven and must not move: a
//! change to how the lexer scans, classifies or interns that alters a
//! token, or the order symbols are numbered in, changes it.
//!
//! (The suite generator lives in `ccm2-workload`, which `ccm2-syntax`
//! does not depend on; the lexer's own differential is
//! `crates/syntax/tests/lexer_oracle.rs`.)

use ccm2_support::hash::{Fp128, StableHasher};
use ccm2_support::{DiagnosticSink, Interner, SourceMap, Symbol};
use ccm2_syntax::lex_file;
use ccm2_workload::generate_suite;

fn suite_token_digest() -> (Fp128, usize) {
    let mut h = StableHasher::new();
    let mut tokens = 0;
    for m in generate_suite() {
        let interner = Interner::new();
        let sink = DiagnosticSink::new();
        let map = SourceMap::new();
        let mut files = vec![map.add(format!("{}.mod", m.name), m.source.clone())];
        let mut defs: Vec<(&str, &str)> = m.defs.iter().collect();
        defs.sort_unstable();
        for (name, text) in defs {
            files.push(map.add(format!("{name}.def"), text));
        }
        for file in &files {
            for t in lex_file(file, &interner, &sink) {
                h.write_str(&format!(
                    "{:?} {} {} {}",
                    t.kind, t.span.lo, t.span.hi, t.file.0
                ));
                tokens += 1;
            }
        }
        assert!(sink.is_empty(), "{}: {:?}", m.name, sink.take());
        for i in 0..interner.len() {
            h.write_str(&interner.resolve(Symbol::from_index(i)));
        }
    }
    (h.finish(), tokens)
}

#[test]
fn the_suite_lexes_to_its_pinned_token_stream() {
    let (digest, tokens) = suite_token_digest();
    assert_eq!(
        (digest.to_hex(), tokens),
        ("bc0902a34d077fba32e2a4b0206d9229".to_string(), 761_106),
        "the suite's tokens or their symbol numbering changed"
    );
}
