//! The Modula-2+ lexer.
//!
//! The lexer is a plain iterator over [`Token`]s; in the concurrent
//! compiler it runs as a *Lexor task* that fills fixed-size token blocks
//! whose completion events are the barrier events of paper §2.3.3 (the
//! blocking queue itself lives in the `ccm2` core crate — this module is
//! pure tokenization and is shared with the sequential compiler).
//!
//! Lexical syntax implemented (PIM Modula-2 plus Modula-2+ words):
//!
//! * nested `(* ... *)` comments;
//! * identifiers `[A-Za-z][A-Za-z0-9]*`, with reserved words recognized
//!   case-sensitively;
//! * integer literals: decimal `123`, octal `17B`, octal char `101C`
//!   (lexes to a [`TokenKind::CharLit`]), hexadecimal `0FFH`;
//! * real literals `1.5`, `2.0E+3`;
//! * string literals in single or double quotes (single line);
//! * the operator/delimiter set, with `<>` lexing to the same token as `#`.
//!
//! # How it scans
//!
//! Lexing is up to three steps: *scan*, *skim* and *name*. [`Lexer`]
//! scans: it yields every token with its exact kind and span, but an
//! identifier or string is not yet named — its payload is a placeholder
//! (see [`Lexer`]). [`Names`] names: it turns a scanned token into the
//! token the parser reads, in token order. [`lex_file`] does both to a
//! whole file, and the concurrent compiler's Lexor does both a token at a
//! time as it streams. [`Lexer::skim`] steps over a run of tokens up to
//! the next reserved word that opens or closes a block (`MODULE`, `END`,
//! `PROCEDURE`, and the words of [`TokenKind::opens_end_block`]) and
//! returns only the run's token count and span. An incremental compile's
//! main Lexor needs the structure of a whole file before it knows which
//! procedure bodies it will publish: it scans and names the module
//! level and the headings, skims every body, and scans again, from its
//! span, only a body it publishes.
//!
//! Scan and skim share one dispatch (`step`): the same trivia, numbers,
//! strings and operators, so a skim counts every token a scan would and
//! reports every lexical error a scan would. Only the word step differs:
//! a skimmed word that has the reserved words' shape is tested for being
//! one of the words the skim stops before, and nothing more; it is not
//! looked up, kept or numbered.
//!
//! Every run of bytes — white space, an identifier, the digits of a
//! number, the inside of a comment — is measured through one 256-entry
//! byte-class table (`CLASS`), not through per-byte predicates. Every
//! scanned word is looked up first in a table the scanner owns (a
//! [`SpanTable`]):
//! open addressing, keyed by a one-multiply hash of the word's bytes and
//! by the span of its first occurrence in the text, so the table holds
//! no string. Only a word the table lacks is classified: tested against
//! the reserved words if it has their shape (2–14 letters, the first two
//! upper-case), otherwise numbered as the scanner's next distinct name.
//! [`Names`] asks the shared [`Interner`] for a name's symbol — its hash,
//! its lock, its map — once per distinct name, at the first token it
//! names that carries it. Naming every token in order (as [`lex_file`]
//! and the streaming Lexor do) hands the interner each name at its first
//! occurrence in the text, which is exactly when interning every
//! occurrence would have numbered it (interning is idempotent), so
//! symbol numbering is what it would be if every occurrence were
//! interned.

use ccm2_support::diag::{Diagnostic, DiagnosticSink};
use ccm2_support::intern::{Interner, SpanTable, Symbol};
use ccm2_support::source::{FileId, SourceFile, Span};

use crate::token::{Token, TokenKind};

/// White space: what [`u8::is_ascii_whitespace`] accepts.
const SPACE: u8 = 1;
/// `A`–`Z`, `a`–`z`.
const LETTER: u8 = 2;
/// `0`–`9`.
const DIGIT: u8 = 4;
/// `A`–`F`: the letters a number literal's digit run takes in.
const HEX: u8 = 8;
/// `A`–`Z`.
const UPPER: u8 = 16;

/// The class bits of every byte value.
static CLASS: [u8; 256] = classes();

const fn classes() -> [u8; 256] {
    let mut table = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        let b = i as u8;
        let mut class = 0;
        if b.is_ascii_whitespace() {
            class |= SPACE;
        }
        if b.is_ascii_alphabetic() {
            class |= LETTER;
        }
        if b.is_ascii_digit() {
            class |= DIGIT;
        }
        if matches!(b, b'A'..=b'F') {
            class |= HEX;
        }
        if b.is_ascii_uppercase() {
            class |= UPPER;
        }
        table[i] = class;
        i += 1;
    }
    table
}

#[inline]
fn class(b: u8) -> u8 {
    CLASS[b as usize]
}

/// The length of the run at the start of `bytes` whose every byte has a
/// bit of `mask`.
#[inline]
fn run(bytes: &[u8], mask: u8) -> usize {
    bytes
        .iter()
        .position(|&b| class(b) & mask == 0)
        .unwrap_or(bytes.len())
}

/// The scanner: an iterator over a source file's *scanned* tokens.
///
/// A scanned token has its exact kind and span, but an identifier's or a
/// string's payload is a placeholder: an `Ident`'s symbol is the
/// scanner's number for the name (0, 1, … in order of first occurrence),
/// not the interner's, and a `Str`'s is 0. Only [`Names::name`] makes
/// them the interner's. Kinds are otherwise final, so the token
/// structure (reserved words, `PROCEDURE` headings, `END`s) can be read
/// off scanned tokens. Lexical errors are reported as they are scanned.
///
/// # Examples
///
/// ```
/// use ccm2_support::{Interner, SourceMap, DiagnosticSink};
/// use ccm2_syntax::lexer::{Lexer, Names};
/// use ccm2_syntax::token::TokenKind;
///
/// let interner = Interner::new();
/// let map = SourceMap::new();
/// let file = map.add("x.mod", "VAR x : INTEGER;");
/// let sink = DiagnosticSink::new();
/// let scanned: Vec<_> = Lexer::new(&file, &sink).collect();
/// assert_eq!(scanned[0].kind, TokenKind::Var);
/// assert_eq!(scanned.last().map(|t| t.kind), Some(TokenKind::Semi));
/// assert_eq!(interner.len(), 0, "scanning names nothing");
/// let mut names = Names::new(&file, &interner);
/// let x = names.name(scanned[1]);
/// assert_eq!(x.kind, TokenKind::Ident(interner.intern("x")));
/// ```
pub struct Lexer<'a> {
    text: &'a [u8],
    pos: usize,
    file: FileId,
    /// What each word met so far scans to, keyed by its first span.
    words: SpanTable<TokenKind>,
    /// Distinct names met so far: the next name's number.
    names: usize,
    sink: &'a DiagnosticSink,
}

impl<'a> Lexer<'a> {
    /// Creates a scanner over `file`'s text.
    pub fn new(file: &'a SourceFile, sink: &'a DiagnosticSink) -> Lexer<'a> {
        Lexer {
            text: file.text().as_bytes(),
            pos: 0,
            file: file.id(),
            words: SpanTable::new(),
            names: 0,
            sink,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.text.get(self.pos + 1).copied()
    }

    /// Bytes from the cursor on.
    fn rest(&self) -> &'a [u8] {
        &self.text[self.pos..]
    }

    fn error(&self, lo: usize, message: impl Into<String>) {
        self.sink.report(Diagnostic::error(
            self.file,
            Span::new(lo as u32, self.pos as u32),
            message,
        ));
    }

    // Inlined: called once per token, it is a quarter of a skim's time
    // as a call of its own.
    #[inline(always)]
    fn skip_trivia(&mut self) {
        loop {
            self.pos += run(self.rest(), SPACE);
            if !self.rest().starts_with(b"(*") {
                return;
            }
            self.skip_comment();
        }
    }

    /// Skips a comment, nested ones included, from its `(*`.
    fn skip_comment(&mut self) {
        let start = self.pos;
        let text = self.text;
        let mut at = self.pos + 2;
        let mut depth = 1usize;
        while let Some(k) = text[at..].iter().position(|&b| b == b'(' || b == b'*') {
            at += k;
            match (text[at], text.get(at + 1)) {
                (b'(', Some(b'*')) => {
                    depth += 1;
                    at += 2;
                }
                (b'*', Some(b')')) => {
                    depth -= 1;
                    at += 2;
                    if depth == 0 {
                        self.pos = at;
                        return;
                    }
                }
                _ => at += 1,
            }
        }
        self.pos = text.len();
        self.error(start, "unterminated comment");
    }

    fn lex_word(&mut self) -> TokenKind {
        let start = self.pos;
        self.pos += run(self.rest(), LETTER | DIGIT);
        let word = &self.text[start..self.pos];
        match self.words.find(self.text, word) {
            Ok(kind) => kind,
            Err(miss) => {
                let kind = self.classify(word);
                self.words.fill(miss, start, kind);
                kind
            }
        }
    }

    /// What a word this scanner has not met before scans to: a reserved
    /// word, if it has their shape and is one, else an identifier under
    /// the next name number.
    fn classify(&mut self, word: &[u8]) -> TokenKind {
        let reserved = shaped(word)
            .then(|| TokenKind::reserved(std::str::from_utf8(word).expect("ascii identifier")))
            .flatten();
        reserved.unwrap_or_else(|| {
            self.names += 1;
            TokenKind::Ident(Symbol::from_index(self.names - 1))
        })
    }

    fn lex_number(&mut self) -> TokenKind {
        let start = self.pos;
        // Consume digits plus hex letters; decide the base by the suffix.
        self.pos += run(self.rest(), DIGIT | HEX);
        // Real literal: digits '.' digits [E [sign] digits]. Careful: `..`
        // after a number is a range, not a decimal point.
        if self.peek() == Some(b'.') && self.peek2() != Some(b'.') {
            self.pos += 1;
            self.pos += run(self.rest(), DIGIT);
            if self.peek() == Some(b'E') {
                self.pos += 1;
                if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                    self.pos += 1;
                }
                self.pos += run(self.rest(), DIGIT);
            }
            let s = std::str::from_utf8(&self.text[start..self.pos]).expect("ascii number");
            return match s.parse::<f64>() {
                Ok(v) => TokenKind::Real(v.to_bits()),
                Err(_) => {
                    self.error(start, format!("malformed real literal `{s}`"));
                    TokenKind::Real(0f64.to_bits())
                }
            };
        }
        let body = &self.text[start..self.pos];
        if body.len() <= 18
            && self.peek() != Some(b'H')
            && body.iter().all(|&b| class(b) & DIGIT != 0)
        {
            // Plain decimal that cannot overflow: what `from_str_radix`
            // below would answer, without the string.
            let v = body.iter().fold(0i64, |v, &d| v * 10 + i64::from(d - b'0'));
            return TokenKind::Int(v);
        }
        let body = std::str::from_utf8(body).expect("ascii number");
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
                    self.error(start, format!("character code {v} out of range"));
                    TokenKind::CharLit(0)
                }
            }
            Ok(v) => TokenKind::Int(v),
            Err(_) => {
                self.error(
                    start,
                    format!("malformed integer literal `{digits}` (base {base})"),
                );
                TokenKind::Int(0)
            }
        }
    }

    fn lex_string(&mut self, quote: u8) -> TokenKind {
        let start = self.pos;
        self.pos += 1; // opening quote
        let body_start = self.pos;
        match self.rest().iter().position(|&b| b == quote || b == b'\n') {
            Some(k) if self.rest()[k] == quote => self.pos += k,
            ended => {
                self.pos = ended.map_or(self.text.len(), |k| self.pos + k);
                self.error(start, "unterminated string literal");
            }
        }
        let body = &self.text[body_start..self.pos];
        if self.peek() == Some(quote) {
            self.pos += 1;
        }
        // A single-character string in quotes is a CHAR literal in Modula-2
        // when used in char context; we keep it as Str and let sema adapt,
        // except for the canonical single-char case which becomes CharLit.
        // A string is named from its span ([`Names::name`]).
        if body.len() == 1 {
            TokenKind::CharLit(body[0])
        } else {
            TokenKind::Str(Symbol::from_index(0))
        }
    }

    /// Scans the next token, its words by `word`: its kind and where it
    /// starts, or `None` at the end of the text. Both [`Lexer::next`] and
    /// [`Lexer::skim`] step through here, so they read the same tokens and
    /// report the same errors.
    #[inline(always)]
    fn step(&mut self, word: impl Fn(&mut Self) -> TokenKind) -> Option<(TokenKind, usize)> {
        use TokenKind::*;
        loop {
            self.skip_trivia();
            let start = self.pos;
            let b = self.peek()?;
            let kind = match b {
                b'A'..=b'Z' | b'a'..=b'z' => word(self),
                b'0'..=b'9' => self.lex_number(),
                b'\'' | b'"' => self.lex_string(b),
                b':' => self.one_or_two(b'=', Assign, Colon),
                b'>' => self.one_or_two(b'=', Ge, Gt),
                b'.' => self.one_or_two(b'.', DotDot, Dot),
                b'<' if self.peek2() == Some(b'>') => self.one_or_two(b'>', Neq, Lt),
                b'<' => self.one_or_two(b'=', Le, Lt),
                other => match single(other) {
                    Some(kind) => {
                        self.pos += 1;
                        kind
                    }
                    None => {
                        self.pos += 1;
                        self.error(start, format!("unexpected character `{}`", other as char));
                        continue;
                    }
                },
            };
            return Some((kind, start));
        }
    }

    /// Steps over the run of tokens from the cursor to the next `MODULE`,
    /// `END`, `PROCEDURE` or other reserved word that opens an `END`
    /// block ([`TokenKind::opens_end_block`]), or to the end of the text,
    /// and stops before it. Returns how many tokens the run holds and its
    /// span, from its first token's start to its last token's end (empty,
    /// at the cursor, when the run is).
    ///
    /// The run's tokens are counted and its lexical errors reported
    /// exactly as [`Lexer::next`] would, but its words are only told
    /// apart from the words it stops before: a skimmed name is not
    /// numbered and not kept, so a later scan of the same text numbers
    /// names as if the run had not been read.
    ///
    /// # Examples
    ///
    /// ```
    /// use ccm2_support::{SourceMap, DiagnosticSink};
    /// use ccm2_syntax::lexer::Lexer;
    /// use ccm2_syntax::token::TokenKind;
    ///
    /// let map = SourceMap::new();
    /// let file = map.add("x.mod", "x := y + 1; IF x > 0 THEN");
    /// let sink = DiagnosticSink::new();
    /// let mut lexer = Lexer::new(&file, &sink);
    /// let (count, span) = lexer.skim();
    /// assert_eq!((count, span.lo, span.hi), (6, 0, 11));
    /// assert_eq!(lexer.next().map(|t| t.kind), Some(TokenKind::If));
    /// ```
    pub fn skim(&mut self) -> (usize, Span) {
        let (mut count, mut span) = (0, Span::new(self.pos as u32, self.pos as u32));
        while let Some((kind, start)) = self.step(Self::skim_word) {
            if kind.opens_end_block() || matches!(kind, TokenKind::End | TokenKind::Procedure) {
                self.pos = start;
                break;
            }
            if count == 0 {
                span.lo = start as u32;
            }
            span.hi = self.pos as u32;
            count += 1;
        }
        (count, span)
    }

    /// A word as [`Lexer::skim`] reads it: its kind if it is a word the
    /// skim stops before (tested only if it has the reserved words'
    /// shape), else an identifier that carries no name.
    fn skim_word(&mut self) -> TokenKind {
        let start = self.pos;
        self.pos += run(self.rest(), LETTER | DIGIT);
        let word = &self.text[start..self.pos];
        if shaped(word) {
            if let Some(kind) = stops_skim(word) {
                return kind;
            }
        }
        TokenKind::Ident(UNNAMED)
    }

    /// Reports the lexical errors of what it scans from now on to `sink`.
    pub fn report_to(&mut self, sink: &'a DiagnosticSink) {
        self.sink = sink;
    }

    /// Moves the cursor to byte `pos` of the text, which must be where a
    /// token or trivia starts: the scan goes on from there, numbering
    /// names as it has so far.
    pub fn seek(&mut self, pos: usize) {
        self.pos = pos;
    }

    /// The file this scanner reads.
    pub fn file(&self) -> FileId {
        self.file
    }

    /// A one-byte token, or the two-byte one when `second` follows.
    fn one_or_two(&mut self, second: u8, two: TokenKind, one: TokenKind) -> TokenKind {
        if self.peek2() == Some(second) {
            self.pos += 2;
            two
        } else {
            self.pos += 1;
            one
        }
    }
}

/// Whether `word` has the reserved words' shape: 2–14 letters, the
/// first two upper-case.
#[inline]
fn shaped(word: &[u8]) -> bool {
    (2..=14).contains(&word.len()) && class(word[0]) & class(word[1]) & UPPER != 0
}

/// The reserved word `word` spells if it is one that [`Lexer::skim`]
/// stops before: `END`, `PROCEDURE`, or one that opens an `END` block
/// (`MODULE` among them). A match on bytes, which compiles to a test of
/// the length and then of a few bytes, where [`TokenKind::reserved`]
/// compares the word with each reserved word in turn. A unit test holds
/// it to [`TokenKind::opens_end_block`] over every word of
/// [`RESERVED`](crate::token::RESERVED).
#[inline]
fn stops_skim(word: &[u8]) -> Option<TokenKind> {
    use TokenKind::*;
    Some(match word {
        b"END" => End,
        b"PROCEDURE" => Procedure,
        b"IF" => If,
        b"CASE" => Case,
        b"WHILE" => While,
        b"FOR" => For,
        b"WITH" => With,
        b"LOOP" => Loop,
        b"RECORD" => Record,
        b"LOCK" => Lock,
        b"TRY" => Try,
        b"MODULE" => Module,
        _ => return None,
    })
}

/// The token a byte is on its own, for bytes that never start a longer
/// one.
fn single(b: u8) -> Option<TokenKind> {
    use TokenKind::*;
    Some(match b {
        b'+' => Plus,
        b'-' => Minus,
        b'*' => Star,
        b'/' => Slash,
        b'&' => Amp,
        b'=' => Eq,
        b'#' => Neq,
        b'~' => Tilde,
        b'^' => Caret,
        b',' => Comma,
        b';' => Semi,
        b'|' => Bar,
        b'(' => LParen,
        b')' => RParen,
        b'[' => LBracket,
        b']' => RBracket,
        b'{' => LBrace,
        b'}' => RBrace,
        _ => return None,
    })
}

impl<'a> Iterator for Lexer<'a> {
    type Item = Token;

    #[inline]
    fn next(&mut self) -> Option<Token> {
        let (kind, start) = self.step(Self::lex_word)?;
        let span = Span {
            lo: start as u32,
            hi: self.pos as u32,
        };
        Some(Token::new(kind, span, self.file))
    }
}

/// A name [`Names`] has not named yet. No interner numbers this many.
const UNNAMED: Symbol = Symbol::from_index(u32::MAX as usize);

/// The naming step: turns the scanned tokens of one file into the tokens
/// the parser reads, by giving each identifier and string its interned
/// symbol. Every other token is returned as it was scanned.
pub struct Names<'a> {
    text: &'a [u8],
    interner: &'a Interner,
    /// The interner's symbol of each name the scanner numbered, once a
    /// token carrying it has been named ([`UNNAMED`] until then).
    symbols: Vec<Symbol>,
}

impl<'a> Names<'a> {
    /// Names the scanned tokens of `file` through `interner`.
    pub fn new(file: &'a SourceFile, interner: &'a Interner) -> Names<'a> {
        Names {
            text: file.text().as_bytes(),
            interner,
            symbols: Vec::new(),
        }
    }

    /// The named form of scanned token `t`, which must come from a
    /// [`Lexer`] over this file.
    #[inline(always)]
    pub fn name(&mut self, mut t: Token) -> Token {
        match t.kind {
            TokenKind::Ident(number) => {
                let symbol = match self.symbols.get(number.index()) {
                    Some(&symbol) if symbol != UNNAMED => symbol,
                    _ => self.first_ident(number.index(), t.span),
                };
                t.kind = TokenKind::Ident(symbol);
            }
            TokenKind::Str(_) => t.kind = TokenKind::Str(self.string(t.span)),
            _ => {}
        }
        t
    }

    /// The interner's symbol of the name the scanner numbered `number`,
    /// spelled at `span`, which no token named so far carried.
    #[cold]
    fn first_ident(&mut self, number: usize, span: Span) -> Symbol {
        if number >= self.symbols.len() {
            self.symbols.resize(number + 1, UNNAMED);
        }
        let word = &self.text[span.lo as usize..span.hi as usize];
        let symbol = self
            .interner
            .intern(std::str::from_utf8(word).expect("ascii identifier"));
        self.symbols[number] = symbol;
        symbol
    }

    /// The interner's symbol of the body of the string literal at `span`,
    /// which runs from the opening quote through the closing one, if the
    /// string was terminated.
    #[inline(never)]
    fn string(&self, span: Span) -> Symbol {
        let quoted = &self.text[span.lo as usize..span.hi as usize];
        let body = &quoted[1..];
        let body = match body.split_last() {
            Some((&last, inner)) if last == quoted[0] => inner,
            _ => body,
        };
        self.interner
            .intern(std::str::from_utf8(body).unwrap_or(""))
    }
}

/// Lexes an entire file into a vector of tokens (no trailing `Eof` token —
/// the parser treats slice exhaustion as end of input): every token
/// scanned, then named, in order.
pub fn lex_file(file: &SourceFile, interner: &Interner, sink: &DiagnosticSink) -> Vec<Token> {
    // Sized for three bytes a token, a little under what dense code
    // averages, so the vector is seldom copied while it grows. Capacity
    // past the last token is never written, so it is never paged in.
    let mut tokens = Vec::with_capacity(file.text().len() / 3);
    let mut names = Names::new(file, interner);
    tokens.extend(Lexer::new(file, sink).map(|t| names.name(t)));
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccm2_support::source::SourceMap;

    fn kinds(src: &str) -> (Vec<TokenKind>, DiagnosticSink) {
        let interner = Interner::new();
        let map = SourceMap::new();
        let file = map.add("t.mod", src);
        let sink = DiagnosticSink::new();
        let toks = lex_file(&file, &interner, &sink);
        (toks.into_iter().map(|t| t.kind).collect(), sink)
    }

    #[test]
    fn reserved_vs_identifier() {
        let interner = Interner::new();
        let map = SourceMap::new();
        let file = map.add("t.mod", "MODULE Module modulE");
        let sink = DiagnosticSink::new();
        let toks = lex_file(&file, &interner, &sink);
        assert_eq!(toks[0].kind, TokenKind::Module);
        assert!(matches!(toks[1].kind, TokenKind::Ident(_)));
        assert!(matches!(toks[2].kind, TokenKind::Ident(_)));
        assert!(sink.is_empty());
    }

    #[test]
    fn integer_bases() {
        let (k, sink) = kinds("10 17B 0FFH 101C");
        assert_eq!(
            k,
            vec![
                TokenKind::Int(10),
                TokenKind::Int(0o17),
                TokenKind::Int(0xFF),
                TokenKind::CharLit(0o101),
            ]
        );
        assert!(sink.is_empty());
    }

    #[test]
    fn real_literals() {
        let (k, sink) = kinds("1.5 2.0E+3 7.25E-1");
        assert_eq!(
            k,
            vec![
                TokenKind::Real(1.5f64.to_bits()),
                TokenKind::Real(2000.0f64.to_bits()),
                TokenKind::Real(0.725f64.to_bits()),
            ]
        );
        assert!(sink.is_empty());
    }

    #[test]
    fn range_after_number_is_not_a_real() {
        let (k, _) = kinds("1..10");
        assert_eq!(
            k,
            vec![TokenKind::Int(1), TokenKind::DotDot, TokenKind::Int(10)]
        );
    }

    #[test]
    fn strings_and_chars() {
        let interner = Interner::new();
        let map = SourceMap::new();
        let file = map.add("t.mod", "\"hello\" 'x' ''");
        let sink = DiagnosticSink::new();
        let toks = lex_file(&file, &interner, &sink);
        match toks[0].kind {
            TokenKind::Str(s) => assert_eq!(interner.resolve(s), "hello"),
            other => panic!("expected string, got {other:?}"),
        }
        assert_eq!(toks[1].kind, TokenKind::CharLit(b'x'));
        assert!(
            matches!(toks[2].kind, TokenKind::Str(_)),
            "empty string stays Str"
        );
    }

    #[test]
    fn two_char_operators() {
        let (k, _) = kinds(":= <= >= <> .. # < >");
        assert_eq!(
            k,
            vec![
                TokenKind::Assign,
                TokenKind::Le,
                TokenKind::Ge,
                TokenKind::Neq,
                TokenKind::DotDot,
                TokenKind::Neq,
                TokenKind::Lt,
                TokenKind::Gt,
            ]
        );
    }

    #[test]
    fn nested_comments_skipped() {
        let (k, sink) = kinds("BEGIN (* outer (* inner *) still outer *) END");
        assert_eq!(k, vec![TokenKind::Begin, TokenKind::End]);
        assert!(sink.is_empty());
    }

    #[test]
    fn unterminated_comment_reports() {
        let (_, sink) = kinds("(* never closed");
        assert!(sink.has_errors());
    }

    #[test]
    fn unterminated_string_reports() {
        let (_, sink) = kinds("\"oops\nVAR");
        assert!(sink.has_errors());
    }

    #[test]
    fn unexpected_character_reports_and_continues() {
        let (k, sink) = kinds("VAR ? x");
        assert!(sink.has_errors());
        assert_eq!(k.len(), 2, "lexing continues past the bad character");
        assert_eq!(k[0], TokenKind::Var);
    }

    #[test]
    fn spans_tile_the_nontrivia_input() {
        let interner = Interner::new();
        let map = SourceMap::new();
        let src = "IF a1 >= 10 THEN x := 'c' END;";
        let file = map.add("t.mod", src);
        let sink = DiagnosticSink::new();
        let toks = lex_file(&file, &interner, &sink);
        for w in toks.windows(2) {
            assert!(w[0].span.hi <= w[1].span.lo, "tokens out of order");
        }
        for t in &toks {
            assert!(!t.span.is_empty());
            assert!(t.span.hi as usize <= src.len());
        }
    }

    // A scan names nothing; naming only some of its tokens asks the
    // interner for just their names and strings, each once.
    #[test]
    fn naming_a_subset_interns_only_its_names() {
        let interner = Interner::new();
        let map = SourceMap::new();
        let file = map.add(
            "t.mod",
            "skipped 'not this' kept \"kept too\" skipped kept 'x'",
        );
        let sink = DiagnosticSink::new();
        let scanned: Vec<Token> = Lexer::new(&file, &sink).collect();
        assert_eq!(interner.len(), 0);
        let mut names = Names::new(&file, &interner);
        let named: Vec<TokenKind> = [2, 3, 5, 6].map(|i| names.name(scanned[i]).kind).to_vec();
        let kept = interner.intern("kept");
        let too = interner.intern("kept too");
        assert_eq!(
            named,
            [
                TokenKind::Ident(kept),
                TokenKind::Str(too),
                TokenKind::Ident(kept),
                TokenKind::CharLit(b'x'),
            ]
        );
        assert_eq!(interner.len(), 2);
        let spans = |tokens: &[Token]| tokens.iter().map(|t| t.span).collect::<Vec<_>>();
        assert_eq!(spans(&scanned), spans(&lex_file(&file, &interner, &sink)));
    }

    #[test]
    fn empty_input_lexes_to_nothing() {
        let (k, sink) = kinds("");
        assert!(k.is_empty());
        assert!(sink.is_empty());
    }

    // The words the skim stops before are exactly the reserved words
    // that open or close a block: every reserved word is checked, so a
    // word that joins `opens_end_block` fails here until the skim stops
    // before it too.
    #[test]
    fn the_skim_stops_before_the_words_that_open_or_close_a_block() {
        for (word, kind) in crate::token::RESERVED {
            let stops =
                kind.opens_end_block() || matches!(kind, TokenKind::End | TokenKind::Procedure);
            assert_eq!(stops_skim(word.as_bytes()), stops.then_some(kind), "{word}");
        }
        for word in ["ENDE", "End", "If", "PROC", "X"] {
            assert_eq!(stops_skim(word.as_bytes()), None, "{word}");
        }
    }

    #[test]
    fn the_byte_classes_are_the_ascii_predicates() {
        for b in 0..=255u8 {
            let c = class(b);
            assert_eq!(c & SPACE != 0, b.is_ascii_whitespace(), "{b}");
            assert_eq!(c & LETTER != 0, b.is_ascii_alphabetic(), "{b}");
            assert_eq!(c & DIGIT != 0, b.is_ascii_digit(), "{b}");
            assert_eq!(c & HEX != 0, (b'A'..=b'F').contains(&b), "{b}");
            assert_eq!(c & UPPER != 0, b.is_ascii_uppercase(), "{b}");
        }
    }

    // Past the initial 256 slots, through several doublings, with names
    // that share their first and last eight bytes (so they collide in the
    // hash and are told apart by their bytes): each distinct name reaches
    // the interner once, in order of first occurrence.
    #[test]
    fn the_name_table_interns_each_name_once_in_first_occurrence_order() {
        let names: Vec<String> = (0..2000)
            .map(|i| format!("prefixAB{i}x{}suffixYZ", i % 7))
            .collect();
        let mut src = String::new();
        for round in 0..3 {
            for (i, n) in names.iter().enumerate() {
                if round == 0 || i % (round + 1) == 0 {
                    src.push_str(n);
                    src.push(' ');
                }
            }
        }
        let interner = Interner::new();
        let map = SourceMap::new();
        let file = map.add("t.mod", src);
        let sink = DiagnosticSink::new();
        let toks = lex_file(&file, &interner, &sink);
        assert_eq!(interner.len(), names.len());
        for (i, n) in names.iter().enumerate() {
            assert_eq!(interner.resolve(Symbol::from_index(i)), *n);
        }
        for t in &toks {
            let TokenKind::Ident(sym) = t.kind else {
                panic!("{t:?}");
            };
            let text = &file.text()[t.span.lo as usize..t.span.hi as usize];
            assert_eq!(interner.resolve(sym), text);
        }
    }
}
