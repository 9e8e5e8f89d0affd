//! The Importer task (paper §3).
//!
//! Searches a stream's tokens for `IMPORT` declarations and starts a new
//! stream for each imported definition module it discovers — the
//! compiler "optimistically anticipates" interfaces so their lexing and
//! analysis begin as early as possible. The token stream of each imported
//! definition module is fed to *its own* importer task to detect
//! indirectly imported interfaces; a **once-only table** (owned by the
//! driver, behind [`ImportSink`]) guarantees each definition module is
//! processed exactly once per compilation.

use ccm2_support::intern::Symbol;
use ccm2_syntax::parser::TokenSource;
use ccm2_syntax::token::TokenKind;

/// Receives discovered imports (the driver's once-only table).
pub trait ImportSink: Send + Sync {
    /// `module` is imported at `depth` links from the main module;
    /// ensure its stream exists (idempotent).
    fn import_found(&self, module: Symbol, depth: usize);
}

/// Scans the import section of a module's token stream, reporting every
/// imported module to `sink`. Stops at the first token that ends the
/// import section (any declaration keyword, `BEGIN`, or `END`). Returns
/// the number of tokens inspected.
pub fn run_importer(input: &dyn TokenSource, depth: usize, sink: &dyn ImportSink) -> usize {
    let mut pos = 0usize;
    let mut inspected = 0usize;
    while let Some(t) = input.get(pos) {
        pos += 1;
        inspected += 1;
        match t.kind {
            TokenKind::From => {
                // FROM Ident IMPORT … ;
                if let Some(m) = input.get(pos) {
                    if let TokenKind::Ident(name) = m.kind {
                        sink.import_found(name, depth);
                    }
                }
            }
            TokenKind::Import => {
                // IMPORT A, B, … ;  (also consumes the FROM form's name
                // list, which contains no module names — harmless since
                // the FROM arm above already reported the module, and the
                // names after a FROM's IMPORT are *not* reported because
                // we skip until the semicolon only for plain IMPORTs that
                // follow a module-position ident.)
                // Distinguish: in `FROM A IMPORT x, y;` the IMPORT token
                // is preceded by the module ident; the names after it are
                // not modules. We detect that by remembering whether the
                // previous non-comma token was consumed by the FROM arm.
                // Simpler and equally correct: plain IMPORT lists follow
                // either the module header `;` or another import's `;`,
                // never an identifier. Check the previous token.
                let prev_is_ident = pos >= 2
                    && matches!(
                        input.get(pos - 2).map(|p| p.kind),
                        Some(TokenKind::Ident(_))
                    );
                if !prev_is_ident {
                    while let Some(n) = input.get(pos) {
                        pos += 1;
                        inspected += 1;
                        match n.kind {
                            TokenKind::Ident(name) => sink.import_found(name, depth),
                            TokenKind::Comma => {}
                            _ => break, // `;` or anything unexpected
                        }
                    }
                }
            }
            // End of the import section: no IMPORT can follow these.
            TokenKind::Const
            | TokenKind::Type
            | TokenKind::Var
            | TokenKind::Procedure
            | TokenKind::Begin
            | TokenKind::End => break,
            _ => {}
        }
    }
    inspected
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccm2_support::intern::Interner;
    use ccm2_support::source::SourceMap;
    use ccm2_support::DiagnosticSink;
    use ccm2_syntax::lexer::lex_file;
    use parking_lot::Mutex;

    struct Collect {
        found: Mutex<Vec<(String, usize)>>,
        interner: std::sync::Arc<Interner>,
    }

    impl ImportSink for Collect {
        fn import_found(&self, module: Symbol, depth: usize) {
            self.found
                .lock()
                .push((self.interner.resolve(module), depth));
        }
    }

    fn scan(src: &str) -> Vec<(String, usize)> {
        let interner = std::sync::Arc::new(Interner::new());
        let map = SourceMap::new();
        let file = map.add("t.mod", src);
        let sink = DiagnosticSink::new();
        let tokens = lex_file(&file, &interner, &sink);
        let collect = Collect {
            found: Mutex::new(vec![]),
            interner,
        };
        run_importer(&tokens, 1, &collect);
        collect.found.into_inner()
    }

    #[test]
    fn plain_imports() {
        let found = scan("MODULE M; IMPORT A, B, C; BEGIN END M.");
        assert_eq!(
            found,
            vec![
                ("A".to_string(), 1),
                ("B".to_string(), 1),
                ("C".to_string(), 1)
            ]
        );
    }

    #[test]
    fn from_imports_report_module_not_names() {
        let found = scan("MODULE M; FROM Lists IMPORT List, Append; BEGIN END M.");
        assert_eq!(found, vec![("Lists".to_string(), 1)]);
    }

    #[test]
    fn mixed_imports() {
        let found = scan("DEFINITION MODULE M; IMPORT X; FROM Y IMPORT a; IMPORT Z; END M.");
        assert_eq!(
            found,
            vec![
                ("X".to_string(), 1),
                ("Y".to_string(), 1),
                ("Z".to_string(), 1)
            ]
        );
    }

    #[test]
    fn scan_stops_at_declarations() {
        // An identifier named IMPORT cannot exist (reserved), but make
        // sure we never scan past the declaration section.
        let inspected = {
            let interner = std::sync::Arc::new(Interner::new());
            let map = SourceMap::new();
            let file = map.add(
                "t.mod",
                "MODULE M; IMPORT A; VAR x : INTEGER; BEGIN x := 1; x := 2; x := 3 END M.",
            );
            let sink = DiagnosticSink::new();
            let tokens = lex_file(&file, &interner, &sink);
            let collect = Collect {
                found: Mutex::new(vec![]),
                interner,
            };
            run_importer(&tokens, 1, &collect)
        };
        assert!(inspected < 12, "stopped early, inspected {inspected}");
    }

    #[test]
    fn no_imports() {
        let found = scan("MODULE M; BEGIN END M.");
        assert!(found.is_empty());
    }
}
