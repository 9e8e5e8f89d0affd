//! Recursive-descent parser for Modula-2+.
//!
//! The parser operates on *token slices*, not text, because in the
//! concurrent compiler the tokens of one stream arrive from the splitter
//! (main module, procedures) or from a dedicated Lexor task (definition
//! modules). Its entry points correspond to the three stream kinds of
//! paper §2.1:
//!
//! * [`parse_definition`] — a definition-module stream;
//! * [`StreamingImpl`] — the main-module stream (which, in the concurrent
//!   compiler, contains [`TokenKind::ProcStub`] markers where procedure
//!   bodies were diverted); [`parse_implementation`] runs it to the end;
//! * [`StreamingProc`] — one procedure stream.
//!
//! There is one driver: a procedure parsed in place (the sequential
//! compiler, the no-early-split ablation) runs the code its stream would,
//! and reads exactly the heading and `END name ;` the splitter carves, so
//! every compile path recovers from a syntax error the same way.
//!
//! Recovery has one rule, the commitment model: a construct is committed
//! once it consumes its first token, so one token decides it
//! ([`TokenKind::starts_statement`]). A token nothing here starts with is
//! reported once and skipped. A committed statement, declaration entry or
//! import that fails resumes at the end of its *extent*, which the
//! splitter's balance of `END`-closed blocks finds from its first token,
//! never before the failure: its first `;` at depth 0, or the first token
//! at depth 0 that closes a statement sequence
//! ([`TokenKind::closes_sequence`]) or ends a heading. The same scan finds
//! a procedure's carve. Diagnostics gather in the parser and reach the
//! sink as each stage returns; a body that gathered one is *poisoned*.
//!
//! A parse builds its stream's tree into one arena ([`Ast`]), which the
//! stream's parser owns until it hands it on: [`StreamingImpl::finish`]
//! and [`StreamingProc::finish`] return it with the body ([`Body`]). A
//! list is collected on a scratch stack that lives as long as the parse
//! and moves into the arena in one piece when it closes; a construct that
//! fails leaves neither scratch nor arena entries behind.
//!
//! Grammar follows PIM Modula-2 with the Modula-2+ statement extensions
//! (`LOCK`, `TRY`/`EXCEPT`/`FINALLY`, `RAISE`). Local (nested) modules and
//! `FORWARD` declarations are not supported; the paper likewise ignores
//! rare forms (§3, footnote 3).

use std::iter::from_fn;
use std::mem::take;
use std::sync::Arc;

use ccm2_support::diag::{Diagnostic, DiagnosticSink};
use ccm2_support::intern::Interner;
use ccm2_support::source::{FileId, Span};

use crate::ast::*;
use crate::token::{Token, TokenKind};

/// A source of tokens addressed by index.
///
/// The sequential compiler parses plain slices; the concurrent compiler
/// parses *live streams*: its implementation blocks on the token-block
/// barrier events of paper §2.3.3 until the requested token has been
/// produced, which is how parsing overlaps lexical analysis and
/// splitting.
pub trait TokenSource {
    /// Returns the `i`-th token, or `None` once the stream has ended
    /// before `i`. May block (stream implementations).
    fn get(&self, i: usize) -> Option<Token>;
}

impl TokenSource for &[Token] {
    fn get(&self, i: usize) -> Option<Token> {
        <[Token]>::get(self, i).copied()
    }
}

impl TokenSource for Vec<Token> {
    fn get(&self, i: usize) -> Option<Token> {
        self.as_slice().get(i).copied()
    }
}

/// Parses a definition module from its complete token stream.
///
/// Returns `None` (after reporting diagnostics) if the module header is
/// unusable; partial parses with recoverable errors still return a module.
pub fn parse_definition(
    tokens: &[Token],
    interner: &Interner,
    sink: &DiagnosticSink,
) -> Option<DefinitionModule> {
    parse_definition_from(&tokens, interner, sink)
}

/// Streaming variant of [`parse_definition`] over any [`TokenSource`].
pub fn parse_definition_from(
    source: &dyn TokenSource,
    interner: &Interner,
    sink: &DiagnosticSink,
) -> Option<DefinitionModule> {
    Parser::new(source, interner, sink).definition_module()
}

/// Parses an implementation (or program) module from a token stream: the
/// stages of [`StreamingImpl`], run to the end, into one arena.
///
/// The stream may contain [`TokenKind::ProcStub`] markers left by the
/// splitter; the resulting [`ProcDecl`]s then have [`ProcBody::Remote`]
/// bodies.
pub fn parse_implementation(
    tokens: &[Token],
    interner: &Interner,
    sink: &DiagnosticSink,
) -> Option<ImplementationModule> {
    let lo = tokens.first().map(|t| t.span).unwrap_or_default();
    let mut s = StreamingImpl::begin(&tokens, interner, sink)?;
    let decls = from_fn(|| s.next_decls()).flatten().collect();
    let (stmts, poisoned) = s.p.finish(s.name, true);
    Some(ImplementationModule {
        name: s.name,
        imports: s.imports,
        decls,
        body: Body {
            ast: Arc::new(take(&mut s.p.ast)),
            stmts,
            poisoned,
        },
        span: lo.to(s.p.last),
    })
}

/// Parses a standalone (constant) expression — used by constant-evaluation
/// tests and tools. Returns the arena and the expression in it.
pub fn parse_const_expr(
    tokens: &[Token],
    interner: &Interner,
    sink: &DiagnosticSink,
) -> Option<(Ast, ExprId)> {
    let mut p = Parser::new(&tokens, interner, sink);
    let expr = p.expression()?;
    Some((take(&mut p.ast), expr))
}

struct Parser<'a> {
    tokens: &'a dyn TokenSource,
    pos: usize,
    interner: &'a Interner,
    sink: &'a DiagnosticSink,
    /// The file of the stream's tokens.
    file: FileId,
    /// The span of the last token consumed. What the enclosing stream
    /// reads of a procedure ends with its heading, so skipping a carve
    /// leaves it alone.
    last: Span,
    /// Syntax errors not yet handed to the sink: a stage hands them over
    /// as it returns ([`Parser::flush`]), a parse as it ends.
    diags: Vec<Diagnostic>,
    /// The stream's arena.
    ast: Ast,
    /// The lists still open, innermost last in each pool.
    scratch: Ast,
}

impl Drop for Parser<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

impl<'a> Parser<'a> {
    fn new(
        tokens: &'a dyn TokenSource,
        interner: &'a Interner,
        sink: &'a DiagnosticSink,
    ) -> Parser<'a> {
        Parser {
            tokens,
            pos: 0,
            interner,
            sink,
            file: tokens.get(0).map_or(FileId(0), |t| t.file),
            last: Span::default(),
            diags: Vec::new(),
            ast: Ast::default(),
            scratch: Ast::default(),
        }
    }

    // ----- primitives ---------------------------------------------------

    fn peek(&self) -> TokenKind {
        self.kind(self.pos).unwrap_or(TokenKind::Eof)
    }

    fn kind(&self, i: usize) -> Option<TokenKind> {
        self.tokens.get(i).map(|t| t.kind)
    }

    /// The current token's span, or the point after the last token
    /// consumed at the end of the stream.
    fn span(&self) -> Span {
        let at_end = Span::point(self.last.hi);
        self.tokens.get(self.pos).map_or(at_end, |t| t.span)
    }

    fn bump(&mut self) -> TokenKind {
        let Some(t) = self.tokens.get(self.pos) else {
            return TokenKind::Eof;
        };
        self.pos += 1;
        self.last = t.span;
        t.kind
    }

    fn at(&self, kind: TokenKind) -> bool {
        self.peek() == kind
    }

    fn eat(&mut self, kind: TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn error_at(&mut self, span: Span, msg: impl Into<String>) {
        self.diags.push(Diagnostic::error(self.file, span, msg));
    }

    fn error(&mut self, msg: impl Into<String>) {
        self.error_at(self.span(), msg);
    }

    fn flush(&mut self) {
        for d in self.diags.drain(..) {
            self.sink.report(d);
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Option<()> {
        if self.eat(kind) {
            Some(())
        } else {
            let found = self.peek();
            self.error(format!("expected `{kind}`, found `{found}`"));
            None
        }
    }

    /// Expects `kind` to close `what`, whose next token may sit in another
    /// stream: a miss is reported after the last token read.
    fn expect_after(&mut self, kind: TokenKind, what: &str) -> bool {
        if self.eat(kind) {
            return true;
        }
        let at = Span::point(self.last.hi);
        self.error_at(at, format!("expected `{kind}` after {what}"));
        false
    }

    fn ident(&mut self) -> Option<Ident> {
        match self.peek() {
            TokenKind::Ident(name) => {
                let span = self.span();
                self.bump();
                Some(Ident { name, span })
            }
            other => {
                self.error(format!("expected identifier, found `{other}`"));
                None
            }
        }
    }

    fn add(&mut self, kind: ExprKind, span: Span) -> ExprId {
        self.ast.add(Expr { kind, span })
    }

    /// Closes the list of `T`s opened when the scratch pool was at `mark`.
    fn close<T: Listed>(&mut self, mark: usize) -> List<T> {
        self.ast.close(&mut self.scratch, mark)
    }

    /// Where the arena and the open lists stand, for [`Parser::reset`].
    fn checkpoint(&self) -> [[usize; 6]; 2] {
        [self.ast.lens(), self.scratch.lens()]
    }

    /// Drops what was built since `at`: a construct that failed.
    fn reset(&mut self, at: [[usize; 6]; 2]) {
        self.ast.truncate(at[0]);
        self.scratch.truncate(at[1]);
    }

    fn ident_list(&mut self) -> Vec<Ident> {
        let mut ids = Vec::new();
        while let Some(id) = self.ident() {
            ids.push(id);
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        ids
    }

    // ----- recovery --------------------------------------------------------

    /// Resumes after the committed construct that began at `start` and
    /// failed at the current token: at the end of its extent (see the
    /// module docs), past its `;` if it ends with one.
    fn recover(&mut self, start: usize) {
        self.pos = self.balance(start, self.pos, |k| {
            k == TokenKind::Semi || k.closes_sequence() || k.ends_heading(0)
        });
        self.eat(TokenKind::Semi);
    }

    /// Reports the current token as one nothing in `part` starts with,
    /// and skips it — with the whole carve, if it declares a procedure.
    fn unexpected(&mut self, part: &str) {
        let found = self.peek();
        self.error(format!("unexpected `{found}` in {part}"));
        self.pos = if self.declares_procedure(self.pos) {
            self.carve_end(self.pos)
        } else {
            self.pos + 1
        };
    }

    /// An import or declaration entry, committed from its first token:
    /// `parse` reads it up to its `;`, which must follow.
    fn entry<T>(&mut self, parse: impl FnOnce(&mut Self) -> Option<T>) -> Option<T> {
        let (start, at) = (self.pos, self.checkpoint());
        let entry = parse(self);
        if entry.is_some() {
            self.expect(TokenKind::Semi);
        } else {
            self.reset(at);
            self.recover(start);
        }
        entry
    }

    /// The balance scan the splitter carves by: walks from `i`, keeping
    /// the depth of `END`-closed blocks and stepping over each nested
    /// procedure declaration whole, to the first token at depth 0, at or
    /// after `from`, that `stop` accepts (or the end of the stream).
    fn balance(&self, mut i: usize, from: usize, stop: impl Fn(TokenKind) -> bool) -> usize {
        let mut depth = 0u32;
        while let Some(k) = self.kind(i) {
            if depth == 0 && i >= from && stop(k) {
                break;
            }
            if self.declares_procedure(i) {
                i = self.carve_end(i);
                continue;
            }
            match k {
                TokenKind::End => depth = depth.saturating_sub(1),
                k if k.opens_end_block() => depth += 1,
                _ => {}
            }
            i += 1;
        }
        i
    }

    /// Whether a procedure declaration, which the splitter carves into a
    /// stream of its own, begins at `i`: `PROCEDURE` and a name.
    fn declares_procedure(&self, i: usize) -> bool {
        self.kind(i) == Some(TokenKind::Procedure)
            && matches!(self.kind(i + 1), Some(TokenKind::Ident(_)))
    }

    // ----- modules -------------------------------------------------------

    /// `MODULE name [priority] ;` and the imports after it.
    fn module_header(&mut self) -> Option<(Ident, Vec<Import>)> {
        self.expect(TokenKind::Module)?;
        let name = self.ident()?;
        // Optional module priority `[const]` — parsed and discarded.
        if self.eat(TokenKind::LBracket) {
            let at = self.checkpoint();
            let _ = self.expression();
            self.reset(at);
            self.expect(TokenKind::RBracket);
        }
        self.expect(TokenKind::Semi)?;
        Some((name, self.imports()))
    }

    fn imports(&mut self) -> Vec<Import> {
        let mut imports = Vec::new();
        while matches!(self.peek(), TokenKind::From | TokenKind::Import) {
            let entry = self.entry(|p| {
                if p.bump() == TokenKind::Import {
                    let modules = p.ident_list().into_iter();
                    return Some(modules.map(|module| Import::Whole { module }).collect());
                }
                let module = p.ident()?;
                p.expect(TokenKind::Import)?;
                let names = p.ident_list();
                Some(vec![Import::From { module, names }])
            });
            imports.extend(entry.into_iter().flatten());
        }
        imports
    }

    fn definition_module(&mut self) -> Option<DefinitionModule> {
        self.expect(TokenKind::Definition)?;
        let (name, imports) = self.module_header()?;
        let mut exports = Vec::new();
        if self.eat(TokenKind::Export) {
            self.eat(TokenKind::Qualified);
            exports = self.ident_list();
            self.expect(TokenKind::Semi);
        }
        let decls = from_fn(|| self.next_decls(true)).flatten().collect();
        self.end(name, true);
        Some(DefinitionModule {
            name,
            imports,
            exports,
            decls,
            ast: take(&mut self.ast),
        })
    }

    /// A module's or procedure's optional `BEGIN` statement part and the
    /// [`end`](Self::end) closing it. Returns the statements and whether
    /// the body is *poisoned*: a syntax error inside it was recovered
    /// from, so it must not reach code generation. A token that closes
    /// other statement sequences than a body's is unexpected here.
    fn finish(&mut self, name: Ident, module: bool) -> (List<Stmt>, bool) {
        let before = self.diags.len();
        let mark = self.scratch.mark::<Stmt>();
        if self.eat(TokenKind::Begin) {
            self.statements();
            while !matches!(self.peek(), TokenKind::End | TokenKind::Eof) {
                self.unexpected("statement sequence");
                self.statements();
            }
        }
        let body = self.close(mark);
        let poisoned = self.diags.len() > before;
        self.end(name, module);
        (body, poisoned)
    }

    /// `END name`, then `.` after a module or `;` after a procedure. A
    /// procedure's trailer is read as the splitter copies it into the
    /// procedure's stream — a name, then a `;`, either possibly missing —
    /// so a procedure parsed in place reports what its stream would.
    fn end(&mut self, name: Ident, module: bool) {
        if self.expect(TokenKind::End).is_none() && !module {
            return;
        }
        let name_str = self.interner.as_str(name.name);
        let end_name = if module || matches!(self.peek(), TokenKind::Ident(_)) {
            self.ident()
        } else {
            let at = Span::point(self.last.hi);
            self.error_at(at, format!("expected `{name_str}` after `END`"));
            None
        };
        if let Some(end) = end_name.filter(|end| end.name != name.name) {
            let found = self.interner.resolve(end.name);
            let msg = if module {
                format!("module ends with `{found}` but is named `{name_str}`")
            } else {
                format!("procedure ends with `{found}` but is named `{name_str}`")
            };
            self.error_at(end.span, msg);
        }
        if module {
            self.expect(TokenKind::Dot);
        } else {
            self.expect_after(TokenKind::Semi, &format!("procedure `{name_str}`"));
        }
    }

    // ----- declarations --------------------------------------------------

    /// The next group of a declaration part: one CONST, TYPE or VAR
    /// section, or one procedure (a heading only, in a definition
    /// module). `None` at the part's end: `END`, the end of the stream or
    /// — outside a definition module — `BEGIN`. A token no declaration
    /// starts with is reported and skipped.
    fn next_decls(&mut self, definition: bool) -> Option<Vec<Decl>> {
        let mut out = Vec::new();
        while out.is_empty() {
            match self.peek() {
                TokenKind::End | TokenKind::Eof => break,
                TokenKind::Begin if !definition => break,
                TokenKind::Const | TokenKind::Type | TokenKind::Var => self.section(&mut out),
                TokenKind::Procedure => {
                    let start = self.pos;
                    self.bump();
                    out.extend(self.procedure(start, definition).map(Decl::Procedure));
                }
                _ if definition => self.unexpected("definition module"),
                _ => self.unexpected("declarations"),
            }
        }
        self.flush();
        (!out.is_empty()).then_some(out)
    }

    /// A CONST, TYPE or VAR section: its reserved word, then an entry for
    /// each name that starts one. An entry that fails declares nothing.
    fn section(&mut self, out: &mut Vec<Decl>) {
        let keyword = self.bump();
        while let TokenKind::Ident(_) = self.peek() {
            out.extend(self.entry(|p| {
                Some(match keyword {
                    TokenKind::Const => {
                        let name = p.ident()?;
                        p.expect(TokenKind::Eq)?;
                        let value = p.expression()?;
                        Decl::Const { name, value }
                    }
                    TokenKind::Type => {
                        let name = p.ident()?;
                        let ty = if p.at(TokenKind::Semi) {
                            None // `TYPE T;` declares an opaque type.
                        } else {
                            p.expect(TokenKind::Eq)?;
                            Some(p.type_expr()?)
                        };
                        Decl::Type { name, ty }
                    }
                    _ => {
                        let names = p.ident_list();
                        p.expect(TokenKind::Colon)?;
                        let ty = p.type_expr()?;
                        Decl::Var { names, ty }
                    }
                })
            }));
        }
    }

    fn proc_heading(&mut self) -> Option<ProcHeading> {
        let lo = self.last;
        let name = self.ident()?;
        let mut params = Vec::new();
        if self.eat(TokenKind::LParen) {
            if !self.at(TokenKind::RParen) {
                loop {
                    let is_var = self.eat(TokenKind::Var);
                    let names = self.ident_list();
                    self.expect(TokenKind::Colon)?;
                    let ty = self.formal_type()?;
                    params.push(FormalParam { is_var, names, ty });
                    if !self.eat(TokenKind::Semi) {
                        break;
                    }
                }
            }
            self.expect(TokenKind::RParen)?;
        }
        let ret = if self.eat(TokenKind::Colon) {
            Some(self.type_name()?)
        } else {
            None
        };
        let span = lo.to(self.last);
        Some(ProcHeading {
            name,
            params,
            ret,
            span,
        })
    }

    /// Index just past the heading the splitter carves for the
    /// `PROCEDURE` at `start`: through its first `;` outside parentheses,
    /// or up to a token no heading contains ([`TokenKind::ends_heading`]).
    fn heading_end(&self, start: usize) -> usize {
        let (mut i, mut parens) = (start + 1, 0i64);
        while let Some(k) = self.kind(i) {
            if k.ends_heading(parens) {
                break;
            }
            i += 1;
            match k {
                TokenKind::LParen => parens += 1,
                TokenKind::RParen => parens -= 1,
                TokenKind::Semi if parens <= 0 => break,
                _ => {}
            }
        }
        i
    }

    /// A procedure declaration after its `PROCEDURE` (at `start`): the
    /// heading, then — outside a definition module — the splitter's stub
    /// or a local body. The parse ends where the splitter's carve does: a
    /// heading that fails to parse loses the whole declaration, and what a
    /// local body's parse left unread is never read by its procedure
    /// stream either.
    fn procedure(&mut self, start: usize, heading_only: bool) -> Option<ProcDecl> {
        let heading = self.proc_heading();
        if heading.is_none() || !self.expect_after(TokenKind::Semi, "a procedure heading") {
            self.pos = self.pos.max(self.heading_end(start));
        }
        if heading_only {
            let body = ProcBody::HeadingOnly;
            return heading.map(|heading| ProcDecl { heading, body });
        }
        let heading_last = self.last;
        let body = heading.as_ref().map(|heading| match self.peek() {
            TokenKind::ProcStub(stream) => ProcBody::Remote(stream),
            _ => {
                let decls = from_fn(|| self.next_decls(false)).flatten().collect();
                let (body, poisoned) = self.finish(heading.name, false);
                ProcBody::Local(Box::new(ProcLocal {
                    decls,
                    body,
                    poisoned,
                }))
            }
        });
        self.pos = self.pos.max(self.carve_end(start));
        self.last = heading_last;
        Some(ProcDecl {
            heading: heading?,
            body: body?,
        })
    }

    /// Index just past the declaration the splitter carves for the
    /// `PROCEDURE` at `start`: the heading, then the splitter's stub and
    /// its `;`, or else the body (nested procedures carved alike) through
    /// the `END` that balances it, and the name and `;` after that.
    fn carve_end(&self, start: usize) -> usize {
        let mut i = self.heading_end(start);
        if let Some(TokenKind::ProcStub(_)) = self.kind(i) {
            return i + 1 + usize::from(self.kind(i + 1) == Some(TokenKind::Semi));
        }
        i = self.balance(i, i, |k| k == TokenKind::End);
        if self.kind(i).is_none() {
            return i;
        }
        i += 1;
        if let Some(TokenKind::Ident(_)) = self.kind(i) {
            i += 1;
        }
        i + usize::from(self.kind(i) == Some(TokenKind::Semi))
    }

    // ----- types ----------------------------------------------------------

    /// A formal parameter's type, `[ARRAY OF] qualident` as PIM has it.
    fn formal_type(&mut self) -> Option<TypeExpr> {
        let lo = self.span();
        if !self.eat(TokenKind::Array) {
            return self.type_name();
        }
        self.expect(TokenKind::Of)?;
        let elem = Box::new(self.type_name()?);
        Some(TypeExpr {
            kind: TypeExprKind::OpenArray { elem },
            span: lo.to(self.last),
        })
    }

    /// A type named by a qualident: all a procedure heading holds besides
    /// `ARRAY OF`. A heading has no type constructor — no `RECORD`, whose
    /// `END` would end the heading ([`TokenKind::ends_heading`]).
    fn type_name(&mut self) -> Option<TypeExpr> {
        match self.peek() {
            TokenKind::Ident(_) => self.type_expr(),
            // A token the heading ends at sits in another stream on the
            // concurrent paths: the miss is reported after the last token
            // read.
            found if found.ends_heading(0) || found.ends_heading(1) => {
                self.error_at(Span::point(self.last.hi), "expected type name");
                None
            }
            found => {
                self.error(format!("expected type name, found `{found}`"));
                None
            }
        }
    }

    fn type_expr(&mut self) -> Option<TypeExpr> {
        let lo = self.span();
        let kind = match self.peek() {
            TokenKind::Ident(_) => {
                let first = self.ident()?;
                if self.at(TokenKind::Dot)
                    && matches!(self.kind(self.pos + 1), Some(TokenKind::Ident(_)))
                {
                    self.bump();
                    let name = self.ident()?;
                    TypeExprKind::Named {
                        module: Some(first),
                        name,
                    }
                } else {
                    TypeExprKind::Named {
                        module: None,
                        name: first,
                    }
                }
            }
            TokenKind::Array => {
                self.bump();
                if self.eat(TokenKind::Of) {
                    let elem = Box::new(self.type_expr()?);
                    TypeExprKind::OpenArray { elem }
                } else {
                    let index = Box::new(self.type_expr()?);
                    // Multi-dimensional sugar: ARRAY a, b OF t.
                    if self.eat(TokenKind::Comma) {
                        let rest_lo = self.span();
                        let mut indices = vec![self.type_expr()?];
                        while self.eat(TokenKind::Comma) {
                            indices.push(self.type_expr()?);
                        }
                        self.expect(TokenKind::Of)?;
                        let mut elem = self.type_expr()?;
                        while let Some(ix) = indices.pop() {
                            elem = TypeExpr {
                                span: rest_lo.to(elem.span),
                                kind: TypeExprKind::Array {
                                    index: Box::new(ix),
                                    elem: Box::new(elem),
                                },
                            };
                        }
                        TypeExprKind::Array {
                            index,
                            elem: Box::new(elem),
                        }
                    } else {
                        self.expect(TokenKind::Of)?;
                        let elem = Box::new(self.type_expr()?);
                        TypeExprKind::Array { index, elem }
                    }
                }
            }
            TokenKind::Record => {
                self.bump();
                let mut fields = Vec::new();
                while let TokenKind::Ident(_) = self.peek() {
                    let names = self.ident_list();
                    self.expect(TokenKind::Colon)?;
                    let ty = self.type_expr()?;
                    fields.push(FieldSection { names, ty });
                    if !self.eat(TokenKind::Semi) {
                        break;
                    }
                }
                self.expect(TokenKind::End)?;
                TypeExprKind::Record { fields }
            }
            TokenKind::Pointer => {
                self.bump();
                self.expect(TokenKind::To)?;
                let to = Box::new(self.type_expr()?);
                TypeExprKind::Pointer { to }
            }
            TokenKind::Set => {
                self.bump();
                self.expect(TokenKind::Of)?;
                let of = Box::new(self.type_expr()?);
                TypeExprKind::Set { of }
            }
            TokenKind::LParen => {
                self.bump();
                let members = self.ident_list();
                self.expect(TokenKind::RParen)?;
                TypeExprKind::Enumeration { members }
            }
            TokenKind::LBracket => {
                self.bump();
                let lo_e = self.expression()?;
                self.expect(TokenKind::DotDot)?;
                let hi_e = self.expression()?;
                self.expect(TokenKind::RBracket)?;
                TypeExprKind::Subrange { lo: lo_e, hi: hi_e }
            }
            // A name after `PROCEDURE` declares a procedure, which the
            // splitter carves as a whole: it is never a procedure type.
            TokenKind::Procedure if !self.declares_procedure(self.pos) => {
                self.bump();
                let mut params = Vec::new();
                if self.eat(TokenKind::LParen) {
                    if !self.at(TokenKind::RParen) {
                        loop {
                            let is_var = self.eat(TokenKind::Var);
                            let ty = Box::new(self.type_expr()?);
                            params.push((is_var, ty));
                            if !self.eat(TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(TokenKind::RParen)?;
                }
                let ret = if self.eat(TokenKind::Colon) {
                    Some(Box::new(self.type_expr()?))
                } else {
                    None
                };
                TypeExprKind::ProcType { params, ret }
            }
            other => {
                self.error(format!("expected type, found `{other}`"));
                return None;
            }
        };
        Some(TypeExpr {
            kind,
            span: lo.to(self.last),
        })
    }

    // ----- statements -----------------------------------------------------

    /// A statement sequence, up to the token that closes it
    /// ([`TokenKind::closes_sequence`]), which it leaves unread.
    fn statement_sequence(&mut self) -> List<Stmt> {
        let mark = self.scratch.mark::<Stmt>();
        self.statements();
        self.close(mark)
    }

    /// The statements of a sequence, onto the scratch stack, up to the
    /// token that closes it. A token no statement starts with is
    /// unexpected; a statement that fails resumes at the end of its
    /// extent.
    fn statements(&mut self) {
        loop {
            let next = self.peek();
            if next.closes_sequence() {
                break;
            }
            if !next.starts_statement() {
                if !self.eat(TokenKind::Semi) {
                    self.unexpected("statement sequence");
                }
                continue;
            }
            let (start, at) = (self.pos, self.checkpoint());
            let Some(stmt) = self.statement() else {
                self.reset(at);
                self.recover(start);
                continue;
            };
            self.scratch.push(stmt);
            let found = self.peek();
            if !self.eat(TokenKind::Semi) && found.starts_statement() {
                self.error(format!("expected `;`, found `{found}`"));
            }
        }
    }

    /// The statement sequence after `keyword`, if it comes next.
    fn part(&mut self, keyword: TokenKind) -> Option<List<Stmt>> {
        self.eat(keyword).then(|| self.statement_sequence())
    }

    /// `cond THEN statements`: an IF's or an ELSIF's arm, onto the
    /// scratch stack.
    fn if_arm(&mut self) -> Option<()> {
        let cond = self.expression()?;
        self.expect(TokenKind::Then)?;
        let body = self.statement_sequence();
        self.scratch.push(IfArm { cond, body });
        Some(())
    }

    /// A CASE label or a set constructor's element, `e` or `lo .. hi`,
    /// onto the scratch stack.
    fn label(&mut self) -> Option<()> {
        let e = self.expression()?;
        let label = if self.eat(TokenKind::DotDot) {
            Label::Range(e, self.expression()?)
        } else {
            Label::Single(e)
        };
        self.scratch.push(label);
        Some(())
    }

    fn statement(&mut self) -> Option<Stmt> {
        let lo = self.span();
        let kind = match self.peek() {
            TokenKind::Ident(_) => {
                let target = self.designator()?;
                if self.eat(TokenKind::Assign) {
                    let rhs = self.expression()?;
                    StmtKind::Assign { lhs: target, rhs }
                } else {
                    StmtKind::Call { call: target }
                }
            }
            TokenKind::If => {
                self.bump();
                let mark = self.scratch.mark::<IfArm>();
                self.if_arm()?;
                while self.eat(TokenKind::Elsif) {
                    self.if_arm()?;
                }
                let arms = self.close(mark);
                let else_body = self.part(TokenKind::Else);
                self.expect(TokenKind::End)?;
                StmtKind::If { arms, else_body }
            }
            TokenKind::While => {
                self.bump();
                let cond = self.expression()?;
                self.expect(TokenKind::Do)?;
                let body = self.statement_sequence();
                self.expect(TokenKind::End)?;
                StmtKind::While { cond, body }
            }
            TokenKind::Repeat => {
                self.bump();
                let body = self.statement_sequence();
                self.expect(TokenKind::Until)?;
                let until = self.expression()?;
                StmtKind::Repeat { body, until }
            }
            TokenKind::For => {
                self.bump();
                let var = self.ident()?;
                self.expect(TokenKind::Assign)?;
                let from = self.expression()?;
                self.expect(TokenKind::To)?;
                let to = self.expression()?;
                let by = if self.eat(TokenKind::By) {
                    Some(self.expression()?)
                } else {
                    None
                };
                self.expect(TokenKind::Do)?;
                let body = self.statement_sequence();
                self.expect(TokenKind::End)?;
                StmtKind::For {
                    var,
                    from,
                    to,
                    by,
                    body,
                }
            }
            TokenKind::Loop => {
                self.bump();
                let body = self.statement_sequence();
                self.expect(TokenKind::End)?;
                StmtKind::Loop { body }
            }
            TokenKind::Exit => {
                self.bump();
                StmtKind::Exit
            }
            TokenKind::Case => {
                self.bump();
                let scrutinee = self.expression()?;
                self.expect(TokenKind::Of)?;
                let mark = self.scratch.mark::<CaseArm>();
                loop {
                    // Arms are separated by `|`; an arm may be empty.
                    if matches!(self.peek(), TokenKind::Else | TokenKind::End) {
                        break;
                    }
                    if self.eat(TokenKind::Bar) {
                        continue;
                    }
                    let labels_mark = self.scratch.mark::<Label>();
                    self.label()?;
                    while self.eat(TokenKind::Comma) {
                        self.label()?;
                    }
                    let labels = self.close(labels_mark);
                    self.expect(TokenKind::Colon)?;
                    let body = self.statement_sequence();
                    self.scratch.push(CaseArm { labels, body });
                }
                let arms = self.close(mark);
                let else_body = self.part(TokenKind::Else);
                self.expect(TokenKind::End)?;
                StmtKind::Case {
                    scrutinee,
                    arms,
                    else_body,
                }
            }
            TokenKind::With => {
                self.bump();
                let designator = self.designator()?;
                self.expect(TokenKind::Do)?;
                let body = self.statement_sequence();
                self.expect(TokenKind::End)?;
                StmtKind::With { designator, body }
            }
            TokenKind::Return | TokenKind::Raise => {
                let keyword = self.bump();
                let next = self.peek();
                let value = if next == TokenKind::Semi || next.closes_sequence() {
                    None
                } else {
                    Some(self.expression()?)
                };
                match keyword {
                    TokenKind::Return => StmtKind::Return(value),
                    _ => StmtKind::Raise(value),
                }
            }
            TokenKind::Lock => {
                self.bump();
                let designator = self.designator()?;
                self.expect(TokenKind::Do)?;
                let body = self.statement_sequence();
                self.expect(TokenKind::End)?;
                StmtKind::LockStmt { designator, body }
            }
            TokenKind::Try => {
                self.bump();
                let body = self.statement_sequence();
                let except = self.part(TokenKind::Except);
                let finally = self.part(TokenKind::Finally);
                self.expect(TokenKind::End)?;
                StmtKind::TryStmt {
                    body,
                    except,
                    finally,
                }
            }
            other => unreachable!("`{other}` starts no statement"),
        };
        Some(Stmt {
            kind,
            span: lo.to(self.last),
        })
    }

    // ----- expressions ----------------------------------------------------

    fn expression(&mut self) -> Option<ExprId> {
        let lo = self.span();
        let lhs = self.simple_expr()?;
        let op = match self.peek() {
            TokenKind::Eq => BinOp::Eq,
            TokenKind::Neq => BinOp::Neq,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Ge => BinOp::Ge,
            TokenKind::In => BinOp::In,
            _ => return Some(lhs),
        };
        self.bump();
        let rhs = self.simple_expr()?;
        Some(self.binary(lo, op, lhs, rhs))
    }

    /// `lhs op rhs`, spanning from `lo` through the last token read.
    fn binary(&mut self, lo: Span, op: BinOp, lhs: ExprId, rhs: ExprId) -> ExprId {
        self.add(ExprKind::Binary { op, lhs, rhs }, lo.to(self.last))
    }

    /// `op operand`, spanning from `lo` through the last token read.
    fn unary(&mut self, lo: Span, op: UnOp, operand: ExprId) -> ExprId {
        self.add(ExprKind::Unary { op, operand }, lo.to(self.last))
    }

    fn simple_expr(&mut self) -> Option<ExprId> {
        let lo = self.span();
        let mut expr = match self.peek() {
            TokenKind::Plus => {
                self.bump();
                let operand = self.term()?;
                self.unary(lo, UnOp::Pos, operand)
            }
            TokenKind::Minus => {
                self.bump();
                let operand = self.term()?;
                self.unary(lo, UnOp::Neg, operand)
            }
            _ => self.term()?,
        };
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                TokenKind::Or => BinOp::Or,
                _ => break,
            };
            self.bump();
            let rhs = self.term()?;
            expr = self.binary(lo, op, expr, rhs);
        }
        Some(expr)
    }

    fn term(&mut self) -> Option<ExprId> {
        let lo = self.span();
        let mut expr = self.factor()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::RealDiv,
                TokenKind::Div => BinOp::IntDiv,
                TokenKind::Mod => BinOp::Modulo,
                TokenKind::And | TokenKind::Amp => BinOp::And,
                _ => break,
            };
            self.bump();
            let rhs = self.factor()?;
            expr = self.binary(lo, op, expr, rhs);
        }
        Some(expr)
    }

    fn factor(&mut self) -> Option<ExprId> {
        let lo = self.span();
        let literal = match self.peek() {
            TokenKind::Int(v) => Some(ExprKind::IntLit(v)),
            TokenKind::Real(bits) => Some(ExprKind::RealLit(bits)),
            TokenKind::CharLit(c) => Some(ExprKind::CharLit(c)),
            TokenKind::Str(s) => Some(ExprKind::StrLit(s)),
            _ => None,
        };
        if let Some(kind) = literal {
            self.bump();
            return Some(self.add(kind, lo));
        }
        let expr = match self.peek() {
            TokenKind::LParen => {
                self.bump();
                let inner = self.expression()?;
                self.expect(TokenKind::RParen)?;
                inner
            }
            TokenKind::Not | TokenKind::Tilde => {
                self.bump();
                let operand = self.factor()?;
                self.unary(lo, UnOp::Not, operand)
            }
            TokenKind::LBrace => {
                // Untyped set constructor `{…}` (BITSET).
                self.set_constructor(None, lo)?
            }
            TokenKind::Ident(_) => {
                // `T{…}` is a typed set constructor; anything else is a
                // designator (possibly with calls).
                if self.kind(self.pos + 1) == Some(TokenKind::LBrace) {
                    let name = self.ident()?;
                    let brace_lo = self.span();
                    return self.set_constructor(Some(name), brace_lo.to(lo));
                }
                self.designator()?
            }
            other => {
                self.error(format!("expected expression, found `{other}`"));
                return None;
            }
        };
        Some(expr)
    }

    fn set_constructor(&mut self, of_type: Option<Ident>, lo: Span) -> Option<ExprId> {
        self.expect(TokenKind::LBrace)?;
        let mark = self.scratch.mark::<Label>();
        if !self.at(TokenKind::RBrace) {
            self.label()?;
            while self.eat(TokenKind::Comma) {
                self.label()?;
            }
        }
        self.expect(TokenKind::RBrace)?;
        let elems = self.close(mark);
        Some(self.add(ExprKind::SetCons { of_type, elems }, lo.to(self.last)))
    }

    /// One or more expressions separated by commas, then `closer`.
    fn expression_list(&mut self, closer: TokenKind) -> Option<List<ExprId>> {
        let mark = self.scratch.mark::<ExprId>();
        loop {
            let e = self.expression()?;
            self.scratch.push(e);
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        self.expect(closer)?;
        Some(self.close(mark))
    }

    /// Parses a designator with postfix selectors and calls:
    /// `ident { .field | [exprs] | ^ | (args) }`.
    fn designator(&mut self) -> Option<ExprId> {
        let lo = self.span();
        let first = self.ident()?;
        let mut expr = self.add(ExprKind::Name(first), lo);
        loop {
            let kind = match self.peek() {
                TokenKind::Dot => {
                    self.bump();
                    let field = self.ident()?;
                    ExprKind::Field { base: expr, field }
                }
                TokenKind::LBracket => {
                    self.bump();
                    let indices = self.expression_list(TokenKind::RBracket)?;
                    ExprKind::Index {
                        base: expr,
                        indices,
                    }
                }
                TokenKind::Caret => {
                    self.bump();
                    ExprKind::Deref { base: expr }
                }
                TokenKind::LParen => {
                    self.bump();
                    let args = if self.eat(TokenKind::RParen) {
                        List::default()
                    } else {
                        self.expression_list(TokenKind::RParen)?
                    };
                    ExprKind::Call { callee: expr, args }
                }
                _ => break,
            };
            expr = self.add(kind, lo.to(self.last));
        }
        Some(expr)
    }
}

// ----- streaming (incremental) parsing --------------------------------
//
// The concurrent compiler's fused Parser/DeclAnalyzer tasks (paper §3)
// interleave parsing with declaration analysis: a procedure heading is
// declared — and its stream's avoided event fired — the moment it is
// parsed. These drivers expose the grammar in stages.

/// Incremental parser for an implementation (or program) module.
///
/// Stages: [`StreamingImpl::begin`] (header + imports) →
/// repeated [`StreamingImpl::next_decls`] → [`StreamingImpl::finish`]
/// (body + trailer).
pub struct StreamingImpl<'a> {
    p: Parser<'a>,
    name: Ident,
    imports: Vec<Import>,
}

impl<'a> StreamingImpl<'a> {
    /// Parses the module header and import section.
    pub fn begin(
        source: &'a dyn TokenSource,
        interner: &'a Interner,
        sink: &'a DiagnosticSink,
    ) -> Option<StreamingImpl<'a>> {
        let mut p = Parser::new(source, interner, sink);
        p.eat(TokenKind::Implementation);
        let header = p.module_header();
        p.flush();
        let (name, imports) = header?;
        Some(StreamingImpl { p, name, imports })
    }

    /// The module's name.
    pub fn name(&self) -> Ident {
        self.name
    }

    /// The parsed import list.
    pub fn imports(&self) -> &[Import] {
        &self.imports
    }

    /// Parses the next declaration group (one CONST/TYPE/VAR section or
    /// one PROCEDURE); `None` once the body (or module end) is reached.
    /// Its expressions are in [`StreamingImpl::ast`].
    pub fn next_decls(&mut self) -> Option<Vec<Decl>> {
        self.p.next_decls(false)
    }

    /// The stream's arena so far.
    pub fn ast(&self) -> &Ast {
        &self.p.ast
    }

    /// Shares the stream's arena as it stands, declarations and local
    /// procedure bodies included; the parse goes on in a continuation of
    /// it (see [`Ast`]).
    pub fn share_ast(&mut self) -> Arc<Ast> {
        self.p.ast.share()
    }

    /// Parses the optional module body and the `END name .` trailer, and
    /// hands on the arena with the body in it.
    pub fn finish(mut self) -> Body {
        let (stmts, poisoned) = self.p.finish(self.name, true);
        let ast = Arc::new(take(&mut self.p.ast));
        Body {
            ast,
            stmts,
            poisoned,
        }
    }
}

/// Incremental parser for one procedure stream
/// (`PROCEDURE … END name ;`).
///
/// The splitter copies a procedure's heading into the enclosing stream
/// too, and that stream's parse reports the heading's syntax errors; this
/// one drops them.
pub struct StreamingProc<'a> {
    p: Parser<'a>,
    heading: ProcHeading,
}

impl<'a> StreamingProc<'a> {
    /// Parses `PROCEDURE` and the heading.
    pub fn begin(
        source: &'a dyn TokenSource,
        interner: &'a Interner,
        sink: &'a DiagnosticSink,
    ) -> Option<StreamingProc<'a>> {
        let mut p = Parser::new(source, interner, sink);
        let heading = p
            .expect(TokenKind::Procedure)
            .and_then(|()| p.proc_heading());
        if heading.is_some() && !p.eat(TokenKind::Semi) {
            p.pos = p.pos.max(p.heading_end(0));
        }
        p.diags.clear();
        Some(StreamingProc {
            p,
            heading: heading?,
        })
    }

    /// The parsed heading.
    pub fn heading(&self) -> &ProcHeading {
        &self.heading
    }

    /// Parses the next local declaration group; `None` at the body. Its
    /// expressions are in [`StreamingProc::ast`].
    pub fn next_decls(&mut self) -> Option<Vec<Decl>> {
        self.p.next_decls(false)
    }

    /// The stream's arena so far.
    pub fn ast(&self) -> &Ast {
        &self.p.ast
    }

    /// Parses the body and the `END name ;` trailer, and hands on the
    /// arena with the body in it.
    pub fn finish(mut self) -> Body {
        let (stmts, poisoned) = self.p.finish(self.heading.name, false);
        let ast = Arc::new(take(&mut self.p.ast));
        Body {
            ast,
            stmts,
            poisoned,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex_file;
    use ccm2_support::source::SourceMap;

    fn parse_impl(src: &str) -> (Option<ImplementationModule>, DiagnosticSink, Interner) {
        let interner = Interner::new();
        let map = SourceMap::new();
        let file = map.add("M.mod", src);
        let sink = DiagnosticSink::new();
        let tokens = lex_file(&file, &interner, &sink);
        let m = parse_implementation(&tokens, &interner, &sink);
        (m, sink, interner)
    }

    fn parse_def(src: &str) -> (Option<DefinitionModule>, DiagnosticSink, Interner) {
        let interner = Interner::new();
        let map = SourceMap::new();
        let file = map.add("M.def", src);
        let sink = DiagnosticSink::new();
        let tokens = lex_file(&file, &interner, &sink);
        let m = parse_definition(&tokens, &interner, &sink);
        (m, sink, interner)
    }

    #[test]
    fn minimal_implementation_module() {
        let (m, sink, i) = parse_impl("IMPLEMENTATION MODULE M; BEGIN END M.");
        let m = m.expect("parses");
        assert!(!sink.has_errors(), "{:?}", sink.snapshot());
        assert_eq!(i.resolve(m.name.name), "M");
        assert!(m.body.stmts.is_empty());
    }

    #[test]
    fn program_module_without_implementation_keyword() {
        let (m, sink, _) = parse_impl("MODULE Main; BEGIN END Main.");
        assert!(m.is_some());
        assert!(!sink.has_errors());
    }

    #[test]
    fn imports_both_forms() {
        let (m, sink, i) =
            parse_impl("IMPLEMENTATION MODULE M; IMPORT A, B; FROM C IMPORT x, y; END M.");
        let m = m.expect("parses");
        assert!(!sink.has_errors());
        assert_eq!(m.imports.len(), 3);
        assert_eq!(i.resolve(m.imports[0].module().name), "A");
        assert_eq!(i.resolve(m.imports[2].module().name), "C");
        match &m.imports[2] {
            Import::From { names, .. } => assert_eq!(names.len(), 2),
            _ => panic!("expected FROM import"),
        }
    }

    #[test]
    fn const_type_var_sections() {
        let (m, sink, _) = parse_impl(
            "IMPLEMENTATION MODULE M;\
             CONST n = 10; pi = 3.14;\
             TYPE Vec = ARRAY [1..n] OF REAL; P = POINTER TO Vec;\
             Color = (red, green, blue); Flags = SET OF Color;\
             R = RECORD x, y : REAL; tag : Color END;\
             F = PROCEDURE (INTEGER, VAR REAL) : BOOLEAN;\
             VAR a, b : INTEGER; v : Vec;\
             BEGIN END M.",
        );
        let m = m.expect("parses");
        assert!(!sink.has_errors(), "{:?}", sink.snapshot());
        assert_eq!(m.decls.len(), 2 + 6 + 2);
    }

    #[test]
    fn full_procedure_with_nesting() {
        let (m, sink, i) = parse_impl(
            "IMPLEMENTATION MODULE M;\
             PROCEDURE Outer(a : INTEGER; VAR b : REAL) : INTEGER;\
               VAR t : INTEGER;\
               PROCEDURE Inner() : INTEGER;\
               BEGIN RETURN 1 END Inner;\
             BEGIN RETURN Inner() + a END Outer;\
             BEGIN END M.",
        );
        let m = m.expect("parses");
        assert!(!sink.has_errors(), "{:?}", sink.snapshot());
        let Decl::Procedure(p) = &m.decls[0] else {
            panic!("expected procedure")
        };
        assert_eq!(i.resolve(p.heading.name.name), "Outer");
        assert_eq!(p.heading.param_count(), 2);
        assert!(p.heading.ret.is_some());
        let ProcBody::Local(local) = &p.body else {
            panic!("expected local body")
        };
        assert_eq!(local.decls.len(), 2, "VAR t and Inner");
    }

    #[test]
    fn all_statement_forms_parse() {
        let (m, sink, _) = parse_impl(
            "IMPLEMENTATION MODULE M; \
             VAR i, n : INTEGER; done : BOOLEAN; r : RECORD f : INTEGER END; mu : INTEGER; \
             BEGIN \
               i := 0; \
               IF i = 0 THEN n := 1 ELSIF i > 2 THEN n := 2 ELSE n := 3 END; \
               WHILE i < 10 DO i := i + 1 END; \
               REPEAT i := i - 1 UNTIL i <= 0; \
               FOR i := 1 TO 10 BY 2 DO n := n + i END; \
               LOOP EXIT END; \
               CASE i OF 1 : n := 1 | 2, 3 : n := 2 | 4..6 : n := 3 ELSE n := 0 END; \
               WITH r DO f := 1 END; \
               LOCK mu DO n := 0 END; \
               TRY n := 1 EXCEPT n := 2 FINALLY n := 3 END; \
               RAISE; \
               RETURN \
             END M.",
        );
        let m = m.expect("parses");
        assert!(!sink.has_errors(), "{:?}", sink.snapshot());
        assert_eq!(m.body.stmts.len(), 12);
    }

    #[test]
    fn expression_precedence() {
        let (m, sink, _) = parse_impl(
            "IMPLEMENTATION MODULE M; VAR a, b, c, d : INTEGER; p : BOOLEAN;\
             BEGIN a := b + c * d; p := (a < b) OR (c >= d) AND NOT p END M.",
        );
        let m = m.expect("parses");
        assert!(!sink.has_errors());
        let StmtKind::Assign { rhs, .. } = m.body.ast[m.body.stmts][0].kind else {
            panic!("expected assign")
        };
        // b + (c * d): top is Add.
        let ExprKind::Binary { op, rhs: mul, .. } = m.body.ast[rhs].kind else {
            panic!("expected binary")
        };
        assert_eq!(op, BinOp::Add);
        assert!(matches!(
            m.body.ast[mul].kind,
            ExprKind::Binary { op: BinOp::Mul, .. }
        ));
    }

    #[test]
    fn designators_and_calls() {
        let (m, sink, _) = parse_impl(
            "IMPLEMENTATION MODULE M;\
             VAR a : ARRAY [0..9] OF INTEGER; p : POINTER TO INTEGER;\
             BEGIN a[1] := p^; IO.WriteInt(a[2], 4); Proc() END M.",
        );
        let m = m.expect("parses");
        assert!(!sink.has_errors(), "{:?}", sink.snapshot());
        assert_eq!(m.body.stmts.len(), 3);
        let StmtKind::Call { call } = m.body.ast[m.body.stmts][1].kind else {
            panic!("expected call")
        };
        let ExprKind::Call { callee, args } = m.body.ast[call].kind else {
            panic!("expected call expr")
        };
        assert_eq!(args.len(), 2);
        assert!(matches!(m.body.ast[callee].kind, ExprKind::Field { .. }));
    }

    #[test]
    fn set_constructors() {
        let (m, sink, _) = parse_impl(
            "IMPLEMENTATION MODULE M; TYPE S = SET OF [0..15]; VAR s : S; t : BITSET;\
             BEGIN s := S{1, 3..5}; t := {0, 2} END M.",
        );
        assert!(m.is_some());
        assert!(!sink.has_errors(), "{:?}", sink.snapshot());
    }

    #[test]
    fn definition_module_headings() {
        let (d, sink, i) = parse_def(
            "DEFINITION MODULE Text;\
             FROM Streams IMPORT Stream;\
             EXPORT QUALIFIED Open, Close, MaxLen;\
             CONST MaxLen = 128;\
             TYPE T; Mode = (readOnly, writeOnly);\
             PROCEDURE Open(name : ARRAY OF CHAR; m : Mode) : T;\
             PROCEDURE Close(VAR t : T);\
             END Text.",
        );
        let d = d.expect("parses");
        assert!(!sink.has_errors(), "{:?}", sink.snapshot());
        assert_eq!(i.resolve(d.name.name), "Text");
        assert_eq!(d.exports.len(), 3);
        assert_eq!(d.decls.len(), 5, "MaxLen, T, Mode, Open, Close");
        let Decl::Procedure(p) = &d.decls[3] else {
            panic!()
        };
        assert!(matches!(p.body, ProcBody::HeadingOnly));
        let Decl::Type { ty, .. } = &d.decls[1] else {
            panic!()
        };
        assert!(ty.is_none(), "opaque type");
    }

    #[test]
    fn procedure_stream_parses_standalone() {
        let interner = Interner::new();
        let map = SourceMap::new();
        let file = map.add(
            "p.frag",
            "PROCEDURE Add(a, b : INTEGER) : INTEGER; BEGIN RETURN a + b END Add;",
        );
        let sink = DiagnosticSink::new();
        let tokens = lex_file(&file, &interner, &sink);
        let src: &[Token] = &tokens;
        let mut p = StreamingProc::begin(&src, &interner, &sink).expect("parses");
        let name = p.heading().name.name;
        while p.next_decls().is_some() {}
        p.finish();
        assert!(!sink.has_errors());
        assert_eq!(interner.resolve(name), "Add");
    }

    #[test]
    fn proc_stub_produces_remote_body() {
        use ccm2_support::ids::StreamId;
        let interner = Interner::new();
        let map = SourceMap::new();
        let file = map.add(
            "m.frag",
            "IMPLEMENTATION MODULE M; PROCEDURE P(x : INTEGER); BEGIN END M.",
        );
        let sink = DiagnosticSink::new();
        let mut tokens = lex_file(&file, &interner, &sink);
        // Splice a stub after the heading's `;` the way the splitter does:
        // find the first `;` after the param list close paren.
        let semi_idx = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind == TokenKind::Semi)
            .map(|(ix, _)| ix)
            .nth(1)
            .expect("heading semicolon");
        let file_id = tokens[semi_idx].file;
        let at = tokens[semi_idx].span;
        tokens.insert(
            semi_idx + 1,
            Token::new(TokenKind::ProcStub(StreamId(7)), at, file_id),
        );
        tokens.insert(semi_idx + 2, Token::new(TokenKind::Semi, at, file_id));
        let m = parse_implementation(&tokens, &interner, &sink).expect("parses");
        assert!(!sink.has_errors(), "{:?}", sink.snapshot());
        let Decl::Procedure(p) = &m.decls[0] else {
            panic!()
        };
        assert_eq!(p.body, ProcBody::Remote(StreamId(7)));
    }

    #[test]
    fn mismatched_end_name_reports() {
        let (_, sink, _) = parse_impl("IMPLEMENTATION MODULE M; BEGIN END Wrong.");
        assert!(sink.has_errors());
    }

    #[test]
    fn missing_semicolon_recovers() {
        let (m, sink, _) =
            parse_impl("IMPLEMENTATION MODULE M; VAR a : INTEGER; BEGIN a := 1 a := 2 END M.");
        assert!(sink.has_errors());
        let m = m.expect("still produces a module");
        assert_eq!(m.body.stmts.len(), 2);
    }

    #[test]
    fn garbage_declaration_recovers() {
        let (m, sink, _) =
            parse_impl("IMPLEMENTATION MODULE M; CONST bad = ; good = 2; BEGIN END M.");
        assert!(sink.has_errors());
        assert!(m.is_some());
    }

    #[test]
    fn multidim_array_sugar() {
        let (m, sink, _) = parse_impl(
            "IMPLEMENTATION MODULE M; VAR g : ARRAY [0..3], [0..4] OF INTEGER; BEGIN END M.",
        );
        let m = m.expect("parses");
        assert!(!sink.has_errors(), "{:?}", sink.snapshot());
        let Decl::Var { ty, .. } = &m.decls[0] else {
            panic!()
        };
        let TypeExprKind::Array { elem, .. } = &ty.kind else {
            panic!("outer array")
        };
        assert!(
            matches!(elem.kind, TypeExprKind::Array { .. }),
            "inner array"
        );
    }

    #[test]
    fn module_priority_is_accepted() {
        let (m, sink, _) = parse_impl("MODULE M [4]; BEGIN END M.");
        assert!(m.is_some());
        assert!(!sink.has_errors());
    }

    #[test]
    fn qualified_type_name() {
        let (m, sink, _) =
            parse_impl("IMPLEMENTATION MODULE M; IMPORT Lists; VAR l : Lists.List; BEGIN END M.");
        let m = m.expect("parses");
        assert!(!sink.has_errors());
        let Decl::Var { ty, .. } = &m.decls[0] else {
            panic!()
        };
        assert!(matches!(
            ty.kind,
            TypeExprKind::Named {
                module: Some(_),
                ..
            }
        ));
    }
}

#[cfg(test)]
mod streaming_tests {
    use super::*;
    use crate::lexer::lex_file;
    use ccm2_support::source::SourceMap;

    fn tokens(src: &str) -> (Vec<Token>, Interner, DiagnosticSink) {
        let interner = Interner::new();
        let map = SourceMap::new();
        let file = map.add("s.mod", src);
        let sink = DiagnosticSink::new();
        let toks = lex_file(&file, &interner, &sink);
        (toks, interner, sink)
    }

    #[test]
    fn streaming_impl_stages() {
        let (toks, interner, sink) = tokens(
            "IMPLEMENTATION MODULE M; IMPORT A; \
             CONST k = 1; c2 = 2; \
             VAR v : INTEGER; \
             PROCEDURE P; BEGIN END P; \
             BEGIN v := k END M.",
        );
        let src: &[Token] = &toks;
        let mut s = StreamingImpl::begin(&src, &interner, &sink).expect("begins");
        assert_eq!(interner.resolve(s.name().name), "M");
        assert_eq!(s.imports().len(), 1);
        // Group 1: the CONST section (two items).
        let g1 = s.next_decls().expect("const section");
        assert_eq!(g1.len(), 2);
        assert!(matches!(g1[0], Decl::Const { .. }));
        // Group 2: VAR.
        let g2 = s.next_decls().expect("var section");
        assert!(matches!(g2[0], Decl::Var { .. }));
        // Group 3: the procedure (exactly one per call).
        let g3 = s.next_decls().expect("procedure");
        assert_eq!(g3.len(), 1);
        assert!(matches!(g3[0], Decl::Procedure(_)));
        assert!(s.next_decls().is_none(), "BEGIN reached");
        let body = s.finish();
        assert_eq!(body.stmts.len(), 1);
        assert!(!body.poisoned);
        assert!(!sink.has_errors(), "{:?}", sink.snapshot());
    }

    #[test]
    fn streaming_impl_without_body() {
        let (toks, interner, sink) = tokens("MODULE M; VAR v : INTEGER; END M.");
        let src: &[Token] = &toks;
        let mut s = StreamingImpl::begin(&src, &interner, &sink).expect("begins");
        assert!(s.next_decls().is_some());
        assert!(s.next_decls().is_none());
        assert!(s.finish().stmts.is_empty());
        assert!(!sink.has_errors());
    }

    #[test]
    fn streaming_proc_stages() {
        let (toks, interner, sink) = tokens(
            "PROCEDURE Outer(a : INTEGER) : INTEGER; \
             VAR t : INTEGER; \
             BEGIN t := a; RETURN t END Outer;",
        );
        let src: &[Token] = &toks;
        let mut s = StreamingProc::begin(&src, &interner, &sink).expect("begins");
        assert_eq!(interner.resolve(s.heading().name.name), "Outer");
        assert_eq!(s.heading().param_count(), 1);
        assert!(s.heading().ret.is_some());
        assert!(s.next_decls().is_some(), "VAR t");
        assert!(s.next_decls().is_none());
        let body = s.finish();
        assert_eq!(body.stmts.len(), 2);
        assert!(!body.poisoned);
        assert!(!sink.has_errors(), "{:?}", sink.snapshot());
    }

    #[test]
    fn streaming_proc_end_name_mismatch_reports() {
        let (toks, interner, sink) = tokens("PROCEDURE P; BEGIN END Wrong;");
        let src: &[Token] = &toks;
        let s = StreamingProc::begin(&src, &interner, &sink).expect("begins");
        let _ = {
            let mut s = s;
            while s.next_decls().is_some() {}
            s.finish()
        };
        assert!(sink.has_errors());
    }
}
