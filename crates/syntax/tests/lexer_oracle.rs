//! The lexer against its predecessor. [`Lexer`] below is the byte-at-a-
//! time lexer that `ccm2_syntax::lexer` replaced, kept verbatim as the
//! oracle: it asked the shared interner for every identifier and tested
//! every word against the reserved words. Seeded inputs built from the
//! lexical grammar's corners go through both, and the two must agree on
//! every token (kind, span, file), every diagnostic (message and span)
//! and the interner's strings in index order.
//!
//! A debug build runs 20 000 inputs; an optimized one (`ci.sh`'s release
//! block) runs 200 000.

use ccm2_support::diag::{Diagnostic, DiagnosticSink};
use ccm2_support::hash::splitmix64;
use ccm2_support::intern::{Interner, Symbol};
use ccm2_support::source::{FileId, SourceFile, SourceMap, Span};
use ccm2_syntax::token::{Token, TokenKind};

const INPUTS: u64 = if cfg!(debug_assertions) {
    20_000
} else {
    200_000
};

/// The replaced lexer, verbatim.
pub struct Lexer<'a> {
    text: &'a [u8],
    pos: usize,
    file: FileId,
    interner: &'a Interner,
    sink: &'a DiagnosticSink,
    done: bool,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `file`'s text.
    pub fn new(
        file: &'a SourceFile,
        interner: &'a Interner,
        sink: &'a DiagnosticSink,
    ) -> Lexer<'a> {
        Lexer {
            text: file.text().as_bytes(),
            pos: 0,
            file: file.id(),
            interner,
            sink,
            done: false,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.text.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.pos += 1;
                }
                Some(b'(') if self.peek2() == Some(b'*') => {
                    let start = self.pos as u32;
                    self.pos += 2;
                    let mut depth = 1usize;
                    loop {
                        match (self.peek(), self.peek2()) {
                            (Some(b'('), Some(b'*')) => {
                                depth += 1;
                                self.pos += 2;
                            }
                            (Some(b'*'), Some(b')')) => {
                                depth -= 1;
                                self.pos += 2;
                                if depth == 0 {
                                    break;
                                }
                            }
                            (Some(_), _) => self.pos += 1,
                            (None, _) => {
                                self.sink.report(Diagnostic::error(
                                    self.file,
                                    Span::new(start, self.pos as u32),
                                    "unterminated comment",
                                ));
                                break;
                            }
                        }
                    }
                }
                _ => break,
            }
        }
    }

    fn lex_ident(&mut self) -> TokenKind {
        let start = self.pos;
        while matches!(self.peek(), Some(b) if b.is_ascii_alphanumeric()) {
            self.pos += 1;
        }
        let word = std::str::from_utf8(&self.text[start..self.pos]).expect("ascii identifier");
        TokenKind::reserved(word).unwrap_or_else(|| TokenKind::Ident(self.interner.intern(word)))
    }

    fn lex_number(&mut self) -> TokenKind {
        let start = self.pos;
        // Consume digits plus hex letters; decide the base by the suffix.
        while matches!(self.peek(), Some(b) if b.is_ascii_digit() || (b'A'..=b'F').contains(&b)) {
            self.pos += 1;
        }
        // Real literal: digits '.' digits [E [sign] digits]. Careful: `..`
        // after a number is a range, not a decimal point.
        if self.peek() == Some(b'.') && self.peek2() != Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.peek() == Some(b'E') {
                self.pos += 1;
                if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                    self.pos += 1;
                }
                while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            let s = std::str::from_utf8(&self.text[start..self.pos]).expect("ascii number");
            return match s.parse::<f64>() {
                Ok(v) => TokenKind::Real(v.to_bits()),
                Err(_) => {
                    self.sink.report(Diagnostic::error(
                        self.file,
                        Span::new(start as u32, self.pos as u32),
                        format!("malformed real literal `{s}`"),
                    ));
                    TokenKind::Real(0f64.to_bits())
                }
            };
        }
        let body = std::str::from_utf8(&self.text[start..self.pos]).expect("ascii number");
        // Suffix determines the base: `H` = hex; otherwise a trailing `B`
        // (octal) or `C` (octal char) was already consumed by the digit
        // scan above, since B and C are valid hex letters.
        let (base, digits, is_char) = if self.peek() == Some(b'H') {
            self.pos += 1;
            (16, body, false)
        } else if let Some(digits) = body.strip_suffix('B') {
            (8, digits, false)
        } else if let Some(digits) = body.strip_suffix('C') {
            (8, digits, true)
        } else {
            (10, body, false)
        };
        match i64::from_str_radix(digits, base) {
            Ok(v) if is_char => {
                if (0..=255).contains(&v) {
                    TokenKind::CharLit(v as u8)
                } else {
                    self.sink.report(Diagnostic::error(
                        self.file,
                        Span::new(start as u32, self.pos as u32),
                        format!("character code {v} out of range"),
                    ));
                    TokenKind::CharLit(0)
                }
            }
            Ok(v) => TokenKind::Int(v),
            Err(_) => {
                self.sink.report(Diagnostic::error(
                    self.file,
                    Span::new(start as u32, self.pos as u32),
                    format!("malformed integer literal `{digits}` (base {base})"),
                ));
                TokenKind::Int(0)
            }
        }
    }

    fn lex_string(&mut self, quote: u8) -> TokenKind {
        let start = self.pos;
        self.pos += 1; // opening quote
        let body_start = self.pos;
        loop {
            match self.peek() {
                Some(b) if b == quote => break,
                Some(b'\n') | None => {
                    self.sink.report(Diagnostic::error(
                        self.file,
                        Span::new(start as u32, self.pos as u32),
                        "unterminated string literal",
                    ));
                    break;
                }
                Some(_) => self.pos += 1,
            }
        }
        let body = std::str::from_utf8(&self.text[body_start..self.pos]).unwrap_or("");
        if self.peek() == Some(quote) {
            self.pos += 1;
        }
        // A single-character string in quotes is a CHAR literal in Modula-2
        // when used in char context; we keep it as Str and let sema adapt,
        // except for the canonical single-char case which becomes CharLit.
        if body.len() == 1 {
            TokenKind::CharLit(body.as_bytes()[0])
        } else {
            TokenKind::Str(self.interner.intern(body))
        }
    }
}

impl<'a> Iterator for Lexer<'a> {
    type Item = Token;

    fn next(&mut self) -> Option<Token> {
        if self.done {
            return None;
        }
        self.skip_trivia();
        let start = self.pos as u32;
        let Some(b) = self.peek() else {
            self.done = true;
            return None;
        };
        use TokenKind::*;
        let kind = match b {
            b'A'..=b'Z' | b'a'..=b'z' => self.lex_ident(),
            b'0'..=b'9' => self.lex_number(),
            b'\'' | b'"' => self.lex_string(b),
            b'+' => {
                self.pos += 1;
                Plus
            }
            b'-' => {
                self.pos += 1;
                Minus
            }
            b'*' => {
                self.pos += 1;
                Star
            }
            b'/' => {
                self.pos += 1;
                Slash
            }
            b'&' => {
                self.pos += 1;
                Amp
            }
            b'=' => {
                self.pos += 1;
                Eq
            }
            b'#' => {
                self.pos += 1;
                Neq
            }
            b'~' => {
                self.pos += 1;
                Tilde
            }
            b'^' => {
                self.pos += 1;
                Caret
            }
            b',' => {
                self.pos += 1;
                Comma
            }
            b';' => {
                self.pos += 1;
                Semi
            }
            b'|' => {
                self.pos += 1;
                Bar
            }
            b'(' => {
                self.pos += 1;
                LParen
            }
            b')' => {
                self.pos += 1;
                RParen
            }
            b'[' => {
                self.pos += 1;
                LBracket
            }
            b']' => {
                self.pos += 1;
                RBracket
            }
            b'{' => {
                self.pos += 1;
                LBrace
            }
            b'}' => {
                self.pos += 1;
                RBrace
            }
            b':' => {
                self.pos += 1;
                if self.peek() == Some(b'=') {
                    self.pos += 1;
                    Assign
                } else {
                    Colon
                }
            }
            b'<' => {
                self.pos += 1;
                match self.peek() {
                    Some(b'=') => {
                        self.pos += 1;
                        Le
                    }
                    Some(b'>') => {
                        self.pos += 1;
                        Neq
                    }
                    _ => Lt,
                }
            }
            b'>' => {
                self.pos += 1;
                if self.peek() == Some(b'=') {
                    self.pos += 1;
                    Ge
                } else {
                    Gt
                }
            }
            b'.' => {
                self.pos += 1;
                if self.peek() == Some(b'.') {
                    self.pos += 1;
                    DotDot
                } else {
                    Dot
                }
            }
            other => {
                self.bump();
                self.sink.report(Diagnostic::error(
                    self.file,
                    Span::new(start, self.pos as u32),
                    format!("unexpected character `{}`", other as char),
                ));
                return self.next();
            }
        };
        Some(Token::new(
            kind,
            Span::new(start, self.pos as u32),
            self.file,
        ))
    }
}

/// [`splitmix64`] draws from one seed, enough for choosing pieces.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        splitmix64(&mut self.0)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'p>(&mut self, from: &[&'p str]) -> &'p str {
        from[self.below(from.len())]
    }
}

const RESERVED: &[&str] = &[
    "AND",
    "ARRAY",
    "BEGIN",
    "BY",
    "CASE",
    "CONST",
    "DEFINITION",
    "DIV",
    "DO",
    "ELSE",
    "ELSIF",
    "END",
    "EXIT",
    "EXPORT",
    "FOR",
    "FROM",
    "IF",
    "IMPLEMENTATION",
    "IMPORT",
    "IN",
    "LOOP",
    "MOD",
    "MODULE",
    "NOT",
    "OF",
    "OR",
    "POINTER",
    "PROCEDURE",
    "QUALIFIED",
    "RECORD",
    "REPEAT",
    "RETURN",
    "SET",
    "THEN",
    "TO",
    "TYPE",
    "UNTIL",
    "VAR",
    "WHILE",
    "WITH",
    "LOCK",
    "TRY",
    "EXCEPT",
    "FINALLY",
    "RAISE",
];

/// Words with the reserved shape that are not reserved, and names that
/// agree in their first and last eight bytes.
const NEAR_MISSES: &[&str] = &[
    "Begin",
    "BEGINS",
    "ENDx",
    "IN1",
    "INTEGER",
    "BOOLEAN",
    "ABS",
    "MODULEX",
    "IMPLEMENTATIONS",
    "X",
    "Xy",
    "xY",
    "AB",
    "ZZ",
    "I9",
    "TRUE",
    "NIL",
    "procedureAlphaTail",
    "procedureBetaTail",
    "procedureAlpha2Tail",
    "longNameWithMiddleAAAAxEnd",
    "longNameWithMiddleBBBBxEnd",
];

const NUMBERS: &[&str] = &[
    "0",
    "7",
    "10",
    "123",
    "0FFH",
    "17B",
    "101C",
    "1.5E+3",
    "1..10",
    "2.0E-3",
    "7.25",
    "1.",
    "1.E",
    "1.5E",
    "3.E+",
    "0FFFFFFFFFFFFFFFFFFFFH",
    "99999999999999999999",
    "9999999999999999999",
    "123456789012345678",
    "1234567890123456789",
    "400C",
    "377C",
    "08B",
    "12AB",
    "1F.5",
    "0AH",
    "9ABCDEFH",
    "1BC",
    "00",
    "0C",
    "0B",
    "7FFFFFFFFFFFFFFFH",
    "8000000000000000H",
];

const PUNCT: &[&str] = &[
    "+", "-", "*", "/", ":=", "&", "=", "#", "<>", "<", "<=", ">", ">=", "~", "^", ".", "..", ",",
    ";", ":", "(", ")", "[", "]", "{", "}", "|", "(*", "*)", "<>>", ":==", "...",
];

const STRINGS: &[&str] = &[
    "'x'",
    "\"y\"",
    "''",
    "\"\"",
    "'ab'",
    "\"hello world\"",
    "'it''s'",
    "\"a'b\"",
    "'a\"b'",
    "'broken\nline'",
    "\"open",
    "'é'",
    "\"λx\"",
    "'\t'",
];

const COMMENTS: &[&str] = &[
    "(* plain *)",
    "(**)",
    "(* (* nested *) still *)",
    "(* (* (* deep *) *) *)",
    "(*)",
    "(* never closed",
    "(* ( * *)",
    "(* ** *)",
    "(* *( *)",
    "(* multi\nline *)",
];

const SPACE: &[&str] = &[" ", "  ", "\n", "\t", "\r\n", "\u{c}", "\u{b}", ""];

const ODD: &[&str] = &[
    "?", "!", "@", "$", "%", "\\", "`", "_", "é", "λ", "日本", "🦀", "\u{0}", "\u{7f}", "\u{80}",
];

fn input(d: &mut Draws) -> String {
    let mut s = String::new();
    for _ in 0..1 + d.below(24) {
        let piece = match d.below(16) {
            0..=3 => d.pick(RESERVED).to_string(),
            4..=5 => d.pick(NEAR_MISSES).to_string(),
            6..=7 => {
                // A fresh name: letters, then letters and digits.
                let longest = if d.below(8) == 0 { 24 } else { 6 };
                let len = 1 + d.below(longest);
                (0..len)
                    .map(|i| {
                        let alphabet: &[u8] = if i == 0 {
                            b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                        } else {
                            b"abcxyzABCXYZ0189"
                        };
                        alphabet[d.below(alphabet.len())] as char
                    })
                    .collect()
            }
            8..=9 => d.pick(NUMBERS).to_string(),
            10..=11 => d.pick(PUNCT).to_string(),
            12 => d.pick(STRINGS).to_string(),
            13 => d.pick(COMMENTS).to_string(),
            14 => d.pick(ODD).to_string(),
            _ => d.pick(SPACE).to_string(),
        };
        s.push_str(&piece);
        if d.below(4) != 0 {
            s.push_str(d.pick(SPACE));
        }
    }
    s
}

struct Lexed {
    tokens: Vec<Token>,
    diagnostics: Vec<Diagnostic>,
    strings: Vec<String>,
}

/// Lexes `file` with `lex` into a fresh interner that already holds
/// `preinterned`.
fn lexed(
    preinterned: &[&str],
    lex: impl FnOnce(&Interner, &DiagnosticSink) -> Vec<Token>,
) -> Lexed {
    let interner = Interner::new();
    for s in preinterned {
        interner.intern(s);
    }
    let sink = DiagnosticSink::new();
    let tokens = lex(&interner, &sink);
    Lexed {
        tokens,
        diagnostics: sink.take(),
        strings: (0..interner.len())
            .map(|i| interner.resolve(Symbol::from_index(i)))
            .collect(),
    }
}

/// Checks that both lexers agree on `file`; returns how many tokens and
/// diagnostics they produced.
fn agree(file: &SourceFile, preinterned: &[&str], case: u64) -> (usize, usize) {
    let fast = lexed(preinterned, |i, s| ccm2_syntax::lex_file(file, i, s));
    let oracle = lexed(preinterned, |i, s| Lexer::new(file, i, s).collect());
    let text = file.text();
    assert_eq!(
        fast.tokens, oracle.tokens,
        "case {case}: tokens of {text:?}"
    );
    assert_eq!(
        fast.diagnostics, oracle.diagnostics,
        "case {case}: diagnostics of {text:?}"
    );
    assert_eq!(
        fast.strings, oracle.strings,
        "case {case}: interner of {text:?}"
    );
    (oracle.tokens.len(), oracle.diagnostics.len())
}

#[test]
fn the_lexer_agrees_with_its_predecessor_on_seeded_inputs() {
    let map = SourceMap::new();
    let mut d = Draws(0x1E_C5E7);
    let (mut tokens, mut diagnosed) = (0, 0);
    for case in 0..INPUTS {
        let file = map.add(format!("case{case}.mod"), input(&mut d));
        // Half the cases start from an interner that already holds some
        // of the names: a name new to the lexer need not be new to it.
        let preinterned: Vec<&str> = match d.below(2) {
            0 => vec![],
            _ => (0..d.below(6)).map(|_| d.pick(NEAR_MISSES)).collect(),
        };
        let (lexed, diagnostics) = agree(&file, &preinterned, case);
        tokens += lexed;
        diagnosed += usize::from(diagnostics > 0);
    }
    // The mix reaches both sides of the grammar.
    let inputs = INPUTS as usize;
    assert!(tokens > 5 * inputs, "{tokens} tokens");
    assert!(diagnosed > inputs / 10, "{diagnosed} inputs diagnosed");
    assert!(diagnosed < inputs * 19 / 20, "{diagnosed} inputs diagnosed");
}

#[test]
fn the_lexer_agrees_with_its_predecessor_on_the_grammar_corners() {
    let map = SourceMap::new();
    let corners = [
        "",
        " ",
        "x",
        "0FFH 17B 101C 1.5E+3 1..10 <>",
        "a<>b<=c>=d:=e..f.g",
        "'a' \"bc\" 'unterminated\n' \"x",
        "(* a (* b *) c *) d (* e",
        "(*",
        "(*)",
        "*)",
        "é\u{80}日本🦀",
        "x\u{b}y",
        "1.5E+",
        "9223372036854775807 9223372036854775808",
        "0FFFFFFFFFFFFFFFH 7FFFFFFFFFFFFFFFH",
        "255C 256C 377C 400C",
        "BEGIN Begin BEGINX IMPLEMENTATION IMPLEMENTATIONX",
    ];
    for (case, text) in corners.into_iter().enumerate() {
        let file = map.add(format!("corner{case}.mod"), text);
        agree(&file, &[], case as u64);
    }
}
