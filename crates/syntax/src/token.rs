//! The Modula-2+ token model.
//!
//! Reserved words (not keywords — paper §1 is explicit that reserved words
//! must determine program structure for early splitting to be possible) are
//! enumerated as distinct [`TokenKind`] variants. The table includes the
//! Modula-2 core plus the Modula-2+ extensions `LOCK`, `TRY`, `EXCEPT`,
//! `FINALLY` and `RAISE`.

use ccm2_support::ids::StreamId;
use ccm2_support::intern::Symbol;
use ccm2_support::source::{FileId, Span};
use std::fmt;

/// The kind (and payload) of one lexical token.
///
/// All payloads are `Copy`: identifiers and strings carry interned
/// [`Symbol`]s, reals carry their IEEE bit pattern (so the type can be
/// `Eq`/`Hash`, which the splitter's once-only table and the property tests
/// rely on).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TokenKind {
    // ----- payload-carrying tokens -----
    /// An identifier.
    Ident(Symbol),
    /// An integer literal (decimal, `0..7`+`B` octal, or hex+`H`).
    Int(i64),
    /// A real literal, stored as IEEE-754 bits.
    Real(u64),
    /// A string literal (contents interned, quotes stripped).
    Str(Symbol),
    /// A single-character literal.
    CharLit(u8),
    /// Marker left by the splitter in a parent stream where a procedure
    /// body was diverted to the stream with the given id (paper §3: the
    /// main module body is "stripped of all embedded streams").
    ProcStub(StreamId),
    /// Marker an incremental compile's main Lexor publishes in place of a
    /// stretch of a procedure body it holds until the cache has decided;
    /// the stream it is routed into receives the stretch's tokens in its
    /// place, so no parser reads one.
    Placeholder(u32),

    // ----- reserved words (Modula-2) -----
    /// `AND`
    And,
    /// `ARRAY`
    Array,
    /// `BEGIN`
    Begin,
    /// `BY`
    By,
    /// `CASE`
    Case,
    /// `CONST`
    Const,
    /// `DEFINITION`
    Definition,
    /// `DIV`
    Div,
    /// `DO`
    Do,
    /// `ELSE`
    Else,
    /// `ELSIF`
    Elsif,
    /// `END`
    End,
    /// `EXIT`
    Exit,
    /// `EXPORT`
    Export,
    /// `FOR`
    For,
    /// `FROM`
    From,
    /// `IF`
    If,
    /// `IMPLEMENTATION`
    Implementation,
    /// `IMPORT`
    Import,
    /// `IN`
    In,
    /// `LOOP`
    Loop,
    /// `MOD`
    Mod,
    /// `MODULE`
    Module,
    /// `NOT`
    Not,
    /// `OF`
    Of,
    /// `OR`
    Or,
    /// `POINTER`
    Pointer,
    /// `PROCEDURE`
    Procedure,
    /// `QUALIFIED`
    Qualified,
    /// `RECORD`
    Record,
    /// `REPEAT`
    Repeat,
    /// `RETURN`
    Return,
    /// `SET`
    Set,
    /// `THEN`
    Then,
    /// `TO`
    To,
    /// `TYPE`
    Type,
    /// `UNTIL`
    Until,
    /// `VAR`
    Var,
    /// `WHILE`
    While,
    /// `WITH`
    With,

    // ----- reserved words (Modula-2+ extensions) -----
    /// `LOCK` (Modula-2+ mutual exclusion statement)
    Lock,
    /// `TRY` (Modula-2+ exception handling)
    Try,
    /// `EXCEPT`
    Except,
    /// `FINALLY`
    Finally,
    /// `RAISE`
    Raise,

    // ----- operators and delimiters -----
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `:=`
    Assign,
    /// `&` (synonym for `AND`)
    Amp,
    /// `=`
    Eq,
    /// `#` (not-equal; `<>` lexes to the same token)
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `~` (synonym for `NOT`)
    Tilde,
    /// `^`
    Caret,
    /// `.`
    Dot,
    /// `..`
    DotDot,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `|`
    Bar,
    /// End of the token stream.
    Eof,
}

/// Every reserved word, spelled, with its token: the one list that
/// [`TokenKind::reserved`] looks words up in and that tests enumerate.
pub const RESERVED: [(&str, TokenKind); 45] = [
    ("AND", TokenKind::And),
    ("ARRAY", TokenKind::Array),
    ("BEGIN", TokenKind::Begin),
    ("BY", TokenKind::By),
    ("CASE", TokenKind::Case),
    ("CONST", TokenKind::Const),
    ("DEFINITION", TokenKind::Definition),
    ("DIV", TokenKind::Div),
    ("DO", TokenKind::Do),
    ("ELSE", TokenKind::Else),
    ("ELSIF", TokenKind::Elsif),
    ("END", TokenKind::End),
    ("EXIT", TokenKind::Exit),
    ("EXPORT", TokenKind::Export),
    ("FOR", TokenKind::For),
    ("FROM", TokenKind::From),
    ("IF", TokenKind::If),
    ("IMPLEMENTATION", TokenKind::Implementation),
    ("IMPORT", TokenKind::Import),
    ("IN", TokenKind::In),
    ("LOOP", TokenKind::Loop),
    ("MOD", TokenKind::Mod),
    ("MODULE", TokenKind::Module),
    ("NOT", TokenKind::Not),
    ("OF", TokenKind::Of),
    ("OR", TokenKind::Or),
    ("POINTER", TokenKind::Pointer),
    ("PROCEDURE", TokenKind::Procedure),
    ("QUALIFIED", TokenKind::Qualified),
    ("RECORD", TokenKind::Record),
    ("REPEAT", TokenKind::Repeat),
    ("RETURN", TokenKind::Return),
    ("SET", TokenKind::Set),
    ("THEN", TokenKind::Then),
    ("TO", TokenKind::To),
    ("TYPE", TokenKind::Type),
    ("UNTIL", TokenKind::Until),
    ("VAR", TokenKind::Var),
    ("WHILE", TokenKind::While),
    ("WITH", TokenKind::With),
    ("LOCK", TokenKind::Lock),
    ("TRY", TokenKind::Try),
    ("EXCEPT", TokenKind::Except),
    ("FINALLY", TokenKind::Finally),
    ("RAISE", TokenKind::Raise),
];

impl TokenKind {
    /// Looks up a reserved word; returns `None` for ordinary identifiers.
    pub fn reserved(word: &str) -> Option<TokenKind> {
        RESERVED
            .iter()
            .find(|(spelled, _)| *spelled == word)
            .map(|&(_, kind)| kind)
    }

    /// Returns `true` for reserved-word tokens.
    pub fn is_reserved_word(&self) -> bool {
        use TokenKind::*;
        matches!(
            self,
            And | Array
                | Begin
                | By
                | Case
                | Const
                | Definition
                | Div
                | Do
                | Else
                | Elsif
                | End
                | Exit
                | Export
                | For
                | From
                | If
                | Implementation
                | Import
                | In
                | Loop
                | Mod
                | Module
                | Not
                | Of
                | Or
                | Pointer
                | Procedure
                | Qualified
                | Record
                | Repeat
                | Return
                | Set
                | Then
                | To
                | Type
                | Until
                | Var
                | While
                | With
                | Lock
                | Try
                | Except
                | Finally
                | Raise
        )
    }

    /// Reserved words that open a construct terminated by `END`.
    ///
    /// This is the heart of the splitter's finite-state recognizer: to find
    /// where a procedure ends it must balance every `END`-consuming opener.
    /// (`REPEAT` closes with `UNTIL`, not `END`, so it is absent; `BEGIN`
    /// does not open its own `END` — it belongs to the enclosing
    /// procedure/module.)
    pub fn opens_end_block(&self) -> bool {
        use TokenKind::*;
        matches!(
            self,
            If | Case | While | For | With | Loop | Record | Lock | Try | Module
        )
    }

    /// Whether a statement begins with this token, which commits the
    /// parser to one: a name, `REPEAT`, `EXIT`, `RETURN`, `RAISE`, or a
    /// reserved word that opens an `END`-closed statement.
    pub fn starts_statement(&self) -> bool {
        use TokenKind::*;
        match self {
            Ident(_) | Repeat | Exit | Return | Raise => true,
            Record | Module => false,
            _ => self.opens_end_block(),
        }
    }

    /// Whether this token ends every statement sequence that meets it: a
    /// reserved word that closes or divides a statement part, or the end
    /// of the stream.
    pub fn closes_sequence(&self) -> bool {
        use TokenKind::*;
        matches!(
            self,
            End | Elsif | Else | Until | Bar | Except | Finally | Eof
        )
    }

    /// Whether this token ends a procedure heading that lacks its closing
    /// `;` (`parens` deep in its parameter list): a reserved word no
    /// heading contains, a splitter stub or a placeholder. `VAR` occurs inside a
    /// parameter list, and so may `PROCEDURE` (a procedure type, which the
    /// parser reports there), so they end a heading only outside one.
    /// `RECORD` ends one only inside a parameter list: a formal type is
    /// `[ARRAY OF] qualident`, and the carve of the declaration then holds
    /// the record's `END`, which would otherwise end the heading.
    ///
    /// The splitter's heading scan stops here, and so does the parser
    /// when it skips a heading that failed to parse: both carve the same
    /// heading, so a broken one swallows nothing past it on any path.
    pub fn ends_heading(&self, parens: i64) -> bool {
        use TokenKind::*;
        match self {
            Begin | End | Const | Type | ProcStub(_) | Placeholder(_) => true,
            Var | Procedure => parens <= 0,
            Record => parens > 0,
            _ => false,
        }
    }

    /// A short human-readable rendering for diagnostics.
    pub fn describe(&self) -> &'static str {
        use TokenKind::*;
        match self {
            Ident(_) => "identifier",
            Int(_) => "integer literal",
            Real(_) => "real literal",
            Str(_) => "string literal",
            CharLit(_) => "character literal",
            ProcStub(_) => "<procedure stub>",
            Placeholder(_) => "<placeholder>",
            And => "AND",
            Array => "ARRAY",
            Begin => "BEGIN",
            By => "BY",
            Case => "CASE",
            Const => "CONST",
            Definition => "DEFINITION",
            Div => "DIV",
            Do => "DO",
            Else => "ELSE",
            Elsif => "ELSIF",
            End => "END",
            Exit => "EXIT",
            Export => "EXPORT",
            For => "FOR",
            From => "FROM",
            If => "IF",
            Implementation => "IMPLEMENTATION",
            Import => "IMPORT",
            In => "IN",
            Loop => "LOOP",
            Mod => "MOD",
            Module => "MODULE",
            Not => "NOT",
            Of => "OF",
            Or => "OR",
            Pointer => "POINTER",
            Procedure => "PROCEDURE",
            Qualified => "QUALIFIED",
            Record => "RECORD",
            Repeat => "REPEAT",
            Return => "RETURN",
            Set => "SET",
            Then => "THEN",
            To => "TO",
            Type => "TYPE",
            Until => "UNTIL",
            Var => "VAR",
            While => "WHILE",
            With => "WITH",
            Lock => "LOCK",
            Try => "TRY",
            Except => "EXCEPT",
            Finally => "FINALLY",
            Raise => "RAISE",
            Plus => "+",
            Minus => "-",
            Star => "*",
            Slash => "/",
            Assign => ":=",
            Amp => "&",
            Eq => "=",
            Neq => "#",
            Lt => "<",
            Le => "<=",
            Gt => ">",
            Ge => ">=",
            Tilde => "~",
            Caret => "^",
            Dot => ".",
            DotDot => "..",
            Comma => ",",
            Semi => ";",
            Colon => ":",
            LParen => "(",
            RParen => ")",
            LBracket => "[",
            RBracket => "]",
            LBrace => "{",
            RBrace => "}",
            Bar => "|",
            Eof => "<eof>",
        }
    }
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.describe())
    }
}

/// One lexical token: kind plus provenance.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Token {
    /// The token's kind and payload.
    pub kind: TokenKind,
    /// Byte range within `file`.
    pub span: Span,
    /// The file the token was lexed from.
    pub file: FileId,
}

impl Token {
    /// Creates a token.
    pub fn new(kind: TokenKind, span: Span, file: FileId) -> Token {
        Token { kind, span, file }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserved_word_lookup() {
        assert_eq!(TokenKind::reserved("MODULE"), Some(TokenKind::Module));
        assert_eq!(TokenKind::reserved("LOCK"), Some(TokenKind::Lock));
        assert_eq!(TokenKind::reserved("module"), None, "case-sensitive");
        assert_eq!(TokenKind::reserved("Foo"), None);
    }

    #[test]
    fn reserved_words_classified() {
        assert!(TokenKind::Procedure.is_reserved_word());
        assert!(!TokenKind::Plus.is_reserved_word());
        assert!(!TokenKind::Ident(Symbol::from_index(0)).is_reserved_word());
    }

    #[test]
    fn end_block_openers() {
        assert!(TokenKind::If.opens_end_block());
        assert!(TokenKind::Record.opens_end_block());
        assert!(TokenKind::Lock.opens_end_block());
        assert!(
            !TokenKind::Repeat.opens_end_block(),
            "REPEAT ends with UNTIL"
        );
        assert!(!TokenKind::Begin.opens_end_block());
        assert!(
            !TokenKind::Procedure.opens_end_block(),
            "handled separately"
        );
    }

    #[test]
    fn every_reserved_word_round_trips_through_describe() {
        for (word, kind) in RESERVED {
            assert_eq!(TokenKind::reserved(word), Some(kind));
            assert!(kind.is_reserved_word(), "{word}");
            assert_eq!(kind.describe(), word);
        }
    }
}
