//! Abstract syntax for Modula-2+ modules, declarations, statements and
//! expressions.
//!
//! Two aspects are specific to the *concurrent* compiler:
//!
//! * a procedure body may be [`ProcBody::Remote`] — the splitter diverted
//!   its tokens to another stream and left a stub; the parent scope still
//!   sees (and semantically processes) the heading, which is exactly the
//!   §2.4 "alternative 1" information flow;
//! * qualified names `A.b` are parsed as field selection on a name and
//!   disambiguated during semantic analysis, which is where the paper's
//!   *qualified identifier* lookup statistics (Table 2) are collected.
//!
//! Expressions and statements live in one arena per parsed stream, an
//! [`Ast`]: a child expression is an [`ExprId`], and a statement sequence,
//! an argument list or a CASE arm's labels is a [`List`] of consecutive
//! entries. The parser collects a list on a scratch stack and moves it
//! into the arena when it closes; nested lists close first, so every
//! list is contiguous. The tree is read through the arena (`ast[id]`,
//! `&ast[list]`) and dropped with it, in a few large frees.

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Index, Range};
use std::sync::Arc;

use ccm2_support::ids::StreamId;
use ccm2_support::intern::Symbol;
use ccm2_support::source::Span;

/// An identifier with its source span.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Ident {
    /// Interned name.
    pub name: Symbol,
    /// Where it appeared.
    pub span: Span,
}

/// One import declaration.
#[derive(Clone, PartialEq, Debug)]
pub enum Import {
    /// `IMPORT A, B;` — one entry per module named.
    Whole {
        /// The imported module.
        module: Ident,
    },
    /// `FROM A IMPORT x, y;`
    From {
        /// The module exporting the names.
        module: Ident,
        /// The unqualified names made visible.
        names: Vec<Ident>,
    },
}

impl Import {
    /// The module this import refers to.
    pub fn module(&self) -> Ident {
        match self {
            Import::Whole { module } | Import::From { module, .. } => *module,
        }
    }
}

/// A definition module (`M.def`): the interface between a module and its
/// clients.
#[derive(Clone, PartialEq, Debug)]
pub struct DefinitionModule {
    /// Module name.
    pub name: Ident,
    /// Imports (directly nested imports drive the import tree of §4.4).
    pub imports: Vec<Import>,
    /// `EXPORT QUALIFIED` list (PIM2 compatibility; may be empty).
    pub exports: Vec<Ident>,
    /// Interface declarations (constants, types, variables, procedure
    /// headings).
    pub decls: Vec<Decl>,
    /// The arena the declarations' expressions live in.
    pub ast: Ast,
}

/// An implementation module (`M.mod`).
#[derive(Clone, PartialEq, Debug)]
pub struct ImplementationModule {
    /// Module name.
    pub name: Ident,
    /// Imports.
    pub imports: Vec<Import>,
    /// Module-level declarations.
    pub decls: Vec<Decl>,
    /// The module body (its statements may be empty), in the arena of the
    /// whole module: declarations and local procedure bodies included.
    pub body: Body,
    /// Span of the whole module.
    pub span: Span,
}

/// What a stream's parse hands on once it is over: its arena and its
/// body's statements in it.
#[derive(Clone, PartialEq, Debug)]
pub struct Body {
    /// The stream's arena: its declarations' expressions and its body.
    /// The tasks that read it share it, and the last of them frees it.
    pub ast: Arc<Ast>,
    /// The body's statements.
    pub stmts: List<Stmt>,
    /// Whether the body is *poisoned*: the parser recovered from a syntax
    /// error inside it, so its statements are structurally sound but must
    /// not be fed to code generation (emit an error unit instead).
    pub poisoned: bool,
}

/// One declaration.
#[derive(Clone, PartialEq, Debug)]
pub enum Decl {
    /// `CONST name = expr;`
    Const {
        /// Declared name.
        name: Ident,
        /// Constant value expression.
        value: ExprId,
    },
    /// `TYPE name = type;` (in definition modules, `TYPE name;` declares an
    /// opaque type, represented with `ty: None`).
    Type {
        /// Declared name.
        name: Ident,
        /// The right-hand side; `None` for opaque types.
        ty: Option<TypeExpr>,
    },
    /// `VAR a, b : T;`
    Var {
        /// Declared names.
        names: Vec<Ident>,
        /// Their common type.
        ty: TypeExpr,
    },
    /// A procedure declaration (full, remote-bodied, or heading-only).
    Procedure(ProcDecl),
}

impl Decl {
    /// The names this declaration introduces, in source order.
    pub fn declared_names(&self) -> Vec<Ident> {
        match self {
            Decl::Const { name, .. } | Decl::Type { name, .. } => vec![*name],
            Decl::Var { names, .. } => names.clone(),
            Decl::Procedure(p) => vec![p.heading.name],
        }
    }
}

/// A procedure heading: name, formal parameters, optional return type.
///
/// This is the §2.4 shared information: the parent scope uses it to check
/// calls, the child scope to access parameters.
#[derive(Clone, PartialEq, Debug)]
pub struct ProcHeading {
    /// Procedure name.
    pub name: Ident,
    /// Formal parameter sections.
    pub params: Vec<FormalParam>,
    /// Return type for function procedures.
    pub ret: Option<TypeExpr>,
    /// Span of the heading.
    pub span: Span,
}

impl ProcHeading {
    /// Total number of formal parameter *names* (a section `a, b: T`
    /// counts as two).
    pub fn param_count(&self) -> usize {
        self.params.iter().map(|p| p.names.len()).sum()
    }
}

/// One formal parameter section `VAR a, b : T`.
#[derive(Clone, PartialEq, Debug)]
pub struct FormalParam {
    /// `true` for `VAR` (reference) parameters.
    pub is_var: bool,
    /// Names in this section.
    pub names: Vec<Ident>,
    /// The section's type.
    pub ty: TypeExpr,
}

/// Where a procedure's body lives.
#[derive(Clone, PartialEq, Debug)]
pub enum ProcBody {
    /// The body is right here, in the enclosing stream's arena
    /// (sequential compiler, or a definition parsed from an unsplit
    /// stream).
    Local(Box<ProcLocal>),
    /// The splitter diverted the body to the stream with this id; the
    /// parent sees only the heading (paper §3).
    Remote(StreamId),
    /// Heading only — definition-module procedure declarations.
    HeadingOnly,
}

/// Local declarations and statements of a procedure.
#[derive(Clone, PartialEq, Debug)]
pub struct ProcLocal {
    /// Nested declarations (may contain nested procedures).
    pub decls: Vec<Decl>,
    /// Body statements.
    pub body: List<Stmt>,
    /// `true` when the parser recovered from a syntax error inside this
    /// body (not in nested procedures): statements are structurally
    /// sound but must not be fed to code generation.
    pub poisoned: bool,
}

impl ProcLocal {
    /// This procedure's body, in `ast`: the arena of the stream that holds
    /// the declaration.
    pub fn body_in(&self, ast: &Arc<Ast>) -> Body {
        Body {
            ast: Arc::clone(ast),
            stmts: self.body,
            poisoned: self.poisoned,
        }
    }
}

/// A full procedure declaration.
#[derive(Clone, PartialEq, Debug)]
pub struct ProcDecl {
    /// The heading.
    pub heading: ProcHeading,
    /// The body (local, remote, or absent).
    pub body: ProcBody,
}

/// A type expression with its span.
#[derive(Clone, PartialEq, Debug)]
pub struct TypeExpr {
    /// The structural kind.
    pub kind: TypeExprKind,
    /// Source location.
    pub span: Span,
}

/// Structural kinds of type expressions.
#[derive(Clone, PartialEq, Debug)]
pub enum TypeExprKind {
    /// A (possibly qualified) type name: `T` or `M.T`.
    Named {
        /// Qualifying module, if any.
        module: Option<Ident>,
        /// The type name.
        name: Ident,
    },
    /// `ARRAY index OF elem`.
    Array {
        /// Index type (subrange or ordinal type name).
        index: Box<TypeExpr>,
        /// Element type.
        elem: Box<TypeExpr>,
    },
    /// Open array formal type `ARRAY OF T`.
    OpenArray {
        /// Element type.
        elem: Box<TypeExpr>,
    },
    /// `RECORD fields END`.
    Record {
        /// Field sections.
        fields: Vec<FieldSection>,
    },
    /// `POINTER TO T`.
    Pointer {
        /// Pointee type.
        to: Box<TypeExpr>,
    },
    /// `SET OF T`.
    Set {
        /// Base ordinal type.
        of: Box<TypeExpr>,
    },
    /// `(red, green, blue)`.
    Enumeration {
        /// Enumeration constants in declaration order.
        members: Vec<Ident>,
    },
    /// `[lo .. hi]`.
    Subrange {
        /// Lower bound (constant expression).
        lo: ExprId,
        /// Upper bound (constant expression).
        hi: ExprId,
    },
    /// `PROCEDURE (params) : ret`.
    ProcType {
        /// Parameter types with their VAR-ness.
        params: Vec<(bool, Box<TypeExpr>)>,
        /// Optional return type.
        ret: Option<Box<TypeExpr>>,
    },
}

/// One record field section `a, b : T`.
#[derive(Clone, PartialEq, Debug)]
pub struct FieldSection {
    /// Field names.
    pub names: Vec<Ident>,
    /// Their type.
    pub ty: TypeExpr,
}

/// A statement with its span.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Stmt {
    /// The statement kind.
    pub kind: StmtKind,
    /// Source location.
    pub span: Span,
}

/// Statement kinds (Modula-2 plus the Modula-2+ `LOCK`/`TRY`/`RAISE`).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum StmtKind {
    /// `lhs := rhs`.
    Assign {
        /// Target designator.
        lhs: ExprId,
        /// Source expression.
        rhs: ExprId,
    },
    /// A procedure call used as a statement.
    Call {
        /// The call expression (an [`ExprKind::Call`] or a bare
        /// designator for parameterless procedures).
        call: ExprId,
    },
    /// `IF … THEN … ELSIF … ELSE … END`.
    If {
        /// The IF and each ELSIF, in order.
        arms: List<IfArm>,
        /// The ELSE body, if present.
        else_body: Option<List<Stmt>>,
    },
    /// `WHILE cond DO body END`.
    While {
        /// Loop condition.
        cond: ExprId,
        /// Loop body.
        body: List<Stmt>,
    },
    /// `REPEAT body UNTIL cond`.
    Repeat {
        /// Loop body.
        body: List<Stmt>,
        /// Termination condition.
        until: ExprId,
    },
    /// `FOR v := from TO to BY by DO body END`.
    For {
        /// Control variable.
        var: Ident,
        /// Initial value.
        from: ExprId,
        /// Final value.
        to: ExprId,
        /// Step (constant); `None` means 1.
        by: Option<ExprId>,
        /// Loop body.
        body: List<Stmt>,
    },
    /// `LOOP body END`.
    Loop {
        /// Loop body.
        body: List<Stmt>,
    },
    /// `EXIT`.
    Exit,
    /// `CASE e OF arms ELSE … END`.
    Case {
        /// Scrutinee.
        scrutinee: ExprId,
        /// Case arms.
        arms: List<CaseArm>,
        /// ELSE body, if present.
        else_body: Option<List<Stmt>>,
    },
    /// `WITH designator DO body END` — opens a field scope (the paper's
    /// Table 2 has a dedicated "WITH" scope row).
    With {
        /// The record designator.
        designator: ExprId,
        /// Body statements.
        body: List<Stmt>,
    },
    /// `RETURN [expr]`.
    Return(Option<ExprId>),
    /// Modula-2+ `LOCK designator DO body END`.
    LockStmt {
        /// The mutex designator.
        designator: ExprId,
        /// Body statements.
        body: List<Stmt>,
    },
    /// Modula-2+ `TRY body EXCEPT handler FINALLY cleanup END`.
    TryStmt {
        /// Protected body.
        body: List<Stmt>,
        /// Exception handler, if present.
        except: Option<List<Stmt>>,
        /// Finalization body, if present.
        finally: Option<List<Stmt>>,
    },
    /// Modula-2+ `RAISE [expr]`.
    Raise(Option<ExprId>),
    /// The empty statement (stray `;`).
    Empty,
}

/// The IF or one ELSIF of an IF statement.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct IfArm {
    /// The condition.
    pub cond: ExprId,
    /// The statements it guards.
    pub body: List<Stmt>,
}

/// One arm of a CASE statement.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CaseArm {
    /// The labels selecting this arm.
    pub labels: List<Label>,
    /// The arm's body.
    pub body: List<Stmt>,
}

/// A CASE label or an element of a set constructor: one value, or an
/// inclusive range of values.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Label {
    /// `c`
    Single(ExprId),
    /// `lo .. hi`
    Range(ExprId, ExprId),
}

/// An expression with its span.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Expr {
    /// The expression kind.
    pub kind: ExprKind,
    /// Source location.
    pub span: Span,
}

/// Expression kinds.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ExprKind {
    /// Integer literal.
    IntLit(i64),
    /// Real literal (IEEE bits).
    RealLit(u64),
    /// Character literal.
    CharLit(u8),
    /// String literal.
    StrLit(Symbol),
    /// A simple name. Resolution (local, outer scope, imported module,
    /// builtin) happens in sema.
    Name(Ident),
    /// `base.field` — either record field selection or a qualified name
    /// `Module.ident`; sema disambiguates.
    Field {
        /// The selected-from expression.
        base: ExprId,
        /// The field or member name.
        field: Ident,
    },
    /// `base[e1, e2]` — array indexing (multi-index sugar for nested
    /// arrays).
    Index {
        /// The indexed expression.
        base: ExprId,
        /// Index expressions.
        indices: List<ExprId>,
    },
    /// `base^` — pointer dereference.
    Deref {
        /// The pointer expression.
        base: ExprId,
    },
    /// `callee(args)` — procedure/function call or type conversion.
    Call {
        /// The called designator.
        callee: ExprId,
        /// Actual arguments.
        args: List<ExprId>,
    },
    /// Unary operation.
    Unary {
        /// The operator.
        op: UnOp,
        /// Operand.
        operand: ExprId,
    },
    /// Binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: ExprId,
        /// Right operand.
        rhs: ExprId,
    },
    /// Set constructor `{1, 3..5}` or `BITSET{…}`.
    SetCons {
        /// Optional set type name.
        of_type: Option<Ident>,
        /// Elements.
        elems: List<Label>,
    },
}

/// Unary operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UnOp {
    /// Arithmetic negation `-`.
    Neg,
    /// Identity `+`.
    Pos,
    /// Boolean negation `NOT` / `~`.
    Not,
}

/// Binary operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BinOp {
    /// `+` (numeric add or set union).
    Add,
    /// `-` (numeric subtract or set difference).
    Sub,
    /// `*` (numeric multiply or set intersection).
    Mul,
    /// `/` (real divide or symmetric set difference).
    RealDiv,
    /// `DIV`.
    IntDiv,
    /// `MOD`.
    Modulo,
    /// `AND` / `&` (short-circuit).
    And,
    /// `OR` (short-circuit).
    Or,
    /// `=`.
    Eq,
    /// `#` / `<>`.
    Neq,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// `IN` (set membership).
    In,
}

// ----- the arena ------------------------------------------------------------

/// The index of an expression in its stream's [`Ast`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ExprId(u32);

/// A run of consecutive `T`s in an [`Ast`]: a statement sequence, an
/// argument or index list, the arms of an IF or a CASE, a CASE arm's
/// labels, the elements of a set constructor.
pub struct List<T> {
    start: u32,
    len: u32,
    of: PhantomData<fn() -> T>,
}

impl<T> List<T> {
    /// The number of entries.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// Whether the list has no entries.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    fn range(self) -> Range<usize> {
        let start = self.start as usize;
        start..start + self.len as usize
    }
}

impl<T> Clone for List<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for List<T> {}

impl<T> PartialEq for List<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.start, self.len) == (other.start, other.len)
    }
}

impl<T> Eq for List<T> {}

impl<T> Default for List<T> {
    fn default() -> Self {
        List {
            start: 0,
            len: 0,
            of: PhantomData,
        }
    }
}

impl<T> fmt::Debug for List<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "List({:?})", self.range())
    }
}

/// One stream's syntax tree: every expression, statement and list its
/// parse built, each kind in a pool of its own.
///
/// An arena may continue a shared one
/// ([`StreamingImpl::share_ast`](crate::parser::StreamingImpl::share_ast)):
/// an index under its `base` is the shared arena's, so what was handed
/// out before the share reads the same through either.
#[derive(Clone, Default, PartialEq, Debug)]
pub struct Ast {
    /// The arena this one continues, if any.
    below: Option<Arc<Ast>>,
    /// Where this arena's pools start: where `below`'s end.
    base: [u32; 6],
    exprs: Vec<Expr>,
    stmts: Vec<Stmt>,
    ids: Vec<ExprId>,
    labels: Vec<Label>,
    if_arms: Vec<IfArm>,
    case_arms: Vec<CaseArm>,
}

mod sealed {
    /// The pool of an [`Ast`](super::Ast) that holds a list's entries.
    pub trait Pool: Sized {
        /// The pool's place in [`Ast::lens`](super::Ast::lens).
        const KIND: usize;
        fn pool(ast: &super::Ast) -> &Vec<Self>;
        fn pool_mut(ast: &mut super::Ast) -> &mut Vec<Self>;
    }
}

/// A kind of entry an [`Ast`] keeps in [`List`]s.
pub trait Listed: sealed::Pool {}

macro_rules! listed {
    ($($t:ty => $pool:ident: $kind:literal),* $(,)?) => {$(
        impl sealed::Pool for $t {
            const KIND: usize = $kind;
            fn pool(ast: &Ast) -> &Vec<Self> {
                &ast.$pool
            }
            fn pool_mut(ast: &mut Ast) -> &mut Vec<Self> {
                &mut ast.$pool
            }
        }
        impl Listed for $t {}
    )*};
}

listed!(
    Stmt => stmts: 1,
    ExprId => ids: 2,
    Label => labels: 3,
    IfArm => if_arms: 4,
    CaseArm => case_arms: 5,
);

impl Index<ExprId> for Ast {
    type Output = Expr;

    fn index(&self, id: ExprId) -> &Expr {
        match id.0.checked_sub(self.base[0]) {
            Some(at) => &self.exprs[at as usize],
            None => &self.below()[id],
        }
    }
}

impl<T: Listed> Index<List<T>> for Ast {
    type Output = [T];

    fn index(&self, list: List<T>) -> &[T] {
        match list.start.checked_sub(self.base[T::KIND]) {
            Some(at) => &T::pool(self)[at as usize..][..list.len()],
            None => &self.below()[list],
        }
    }
}

/// A position in a pool, which the arena's `u32` indices must reach.
fn position(at: usize) -> u32 {
    u32::try_from(at).expect("a stream's tree holds fewer than 2^32 nodes of a kind")
}

impl Ast {
    /// The arena this one continues, which holds every index under its
    /// base.
    fn below(&self) -> &Ast {
        self.below
            .as_deref()
            .expect("an index under an arena's base is in the arena it continues")
    }

    /// Adds an expression whose children are already in the arena.
    pub(crate) fn add(&mut self, expr: Expr) -> ExprId {
        self.exprs.push(expr);
        ExprId(position(self.base[0] as usize + self.exprs.len() - 1))
    }

    /// Shares what this arena holds and goes on as its continuation: what
    /// is added from now on lands in the continuation alone, and every id
    /// and list handed out so far reads the same through both. The module
    /// stream shares its declarations this way with the local procedures
    /// that compile while its body is still being parsed, without copying
    /// them.
    pub(crate) fn share(&mut self) -> Arc<Ast> {
        let shared = Arc::new(std::mem::take(self));
        let lens = shared.lens();
        self.base = std::array::from_fn(|k| position(shared.base[k] as usize + lens[k]));
        self.below = Some(Arc::clone(&shared));
        shared
    }

    /// The length of the pool of `T`s: where a list of them opens.
    pub(crate) fn mark<T: Listed>(&self) -> usize {
        T::pool(self).len()
    }

    /// Adds `entry` to the pool of its kind.
    pub(crate) fn push<T: Listed>(&mut self, entry: T) {
        T::pool_mut(self).push(entry);
    }

    /// Moves the entries of `scratch`'s pool from `mark` on to the end of
    /// this arena's, as one list.
    pub(crate) fn close<T: Listed>(&mut self, scratch: &mut Ast, mark: usize) -> List<T> {
        let base = self.base[T::KIND];
        let to = T::pool_mut(self);
        let at = to.len();
        to.extend(T::pool_mut(scratch).drain(mark..));
        List {
            start: position(base as usize + at),
            len: position(to.len() - at),
            of: PhantomData,
        }
    }

    /// The length of each pool: what [`Ast::truncate`] goes back to.
    pub(crate) fn lens(&self) -> [usize; 6] {
        [
            self.exprs.len(),
            self.stmts.len(),
            self.ids.len(),
            self.labels.len(),
            self.if_arms.len(),
            self.case_arms.len(),
        ]
    }

    /// Drops whatever was added since [`Ast::lens`] read `lens`.
    pub(crate) fn truncate(&mut self, lens: [usize; 6]) {
        let [e, s, i, l, a, c] = lens;
        self.exprs.truncate(e);
        self.stmts.truncate(s);
        self.ids.truncate(i);
        self.labels.truncate(l);
        self.if_arms.truncate(a);
        self.case_arms.truncate(c);
    }

    /// Counts the nodes of the expression tree rooted at `id`, `id`
    /// itself included.
    pub fn node_count(&self, id: ExprId) -> usize {
        let labels = |elems: List<Label>| -> usize {
            self[elems]
                .iter()
                .map(|e| match *e {
                    Label::Single(x) => self.node_count(x),
                    Label::Range(a, b) => self.node_count(a) + self.node_count(b),
                })
                .sum()
        };
        let list =
            |ids: List<ExprId>| -> usize { self[ids].iter().map(|&x| self.node_count(x)).sum() };
        1 + match self[id].kind {
            ExprKind::IntLit(_)
            | ExprKind::RealLit(_)
            | ExprKind::CharLit(_)
            | ExprKind::StrLit(_)
            | ExprKind::Name(_) => 0,
            ExprKind::Field { base, .. } | ExprKind::Deref { base } => self.node_count(base),
            ExprKind::Index { base, indices } => self.node_count(base) + list(indices),
            ExprKind::Call { callee, args } => self.node_count(callee) + list(args),
            ExprKind::Unary { operand, .. } => self.node_count(operand),
            ExprKind::Binary { lhs, rhs, .. } => self.node_count(lhs) + self.node_count(rhs),
            ExprKind::SetCons { elems, .. } => labels(elems),
        }
    }

    /// Counts the statements of `seq`, nested ones included: the weight
    /// of a stream's CodeGen and Analyze tasks ("long procedures first",
    /// §2.3.4).
    pub fn stmt_count(&self, seq: List<Stmt>) -> usize {
        let count = |body: Option<List<Stmt>>| body.map_or(0, |b| self.stmt_count(b));
        self[seq]
            .iter()
            .map(|s| {
                1 + match s.kind {
                    StmtKind::If { arms, else_body } => {
                        self[arms]
                            .iter()
                            .map(|a| self.stmt_count(a.body))
                            .sum::<usize>()
                            + count(else_body)
                    }
                    StmtKind::While { body, .. }
                    | StmtKind::Loop { body }
                    | StmtKind::For { body, .. }
                    | StmtKind::With { body, .. }
                    | StmtKind::LockStmt { body, .. }
                    | StmtKind::Repeat { body, .. } => self.stmt_count(body),
                    StmtKind::Case {
                        arms, else_body, ..
                    } => {
                        self[arms]
                            .iter()
                            .map(|a| self.stmt_count(a.body))
                            .sum::<usize>()
                            + count(else_body)
                    }
                    StmtKind::TryStmt {
                        body,
                        except,
                        finally,
                    } => self.stmt_count(body) + count(except) + count(finally),
                    _ => 0,
                }
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ident(n: u32) -> Ident {
        Ident {
            name: Symbol::from_index(n as usize),
            span: Span::default(),
        }
    }

    #[test]
    fn declared_names_cover_all_decl_kinds() {
        let c = Decl::Const {
            name: ident(1),
            value: Ast::default().add(Expr {
                kind: ExprKind::Name(ident(2)),
                span: Span::default(),
            }),
        };
        assert_eq!(c.declared_names().len(), 1);
        let v = Decl::Var {
            names: vec![ident(1), ident(2)],
            ty: TypeExpr {
                kind: TypeExprKind::Named {
                    module: None,
                    name: ident(3),
                },
                span: Span::default(),
            },
        };
        assert_eq!(v.declared_names().len(), 2);
    }

    #[test]
    fn import_module_accessor() {
        let w = Import::Whole { module: ident(5) };
        let f = Import::From {
            module: ident(6),
            names: vec![ident(7)],
        };
        assert_eq!(w.module().name, Symbol::from_index(5));
        assert_eq!(f.module().name, Symbol::from_index(6));
    }

    #[test]
    fn heading_param_count_sums_sections() {
        let ty = TypeExpr {
            kind: TypeExprKind::Named {
                module: None,
                name: ident(9),
            },
            span: Span::default(),
        };
        let h = ProcHeading {
            name: ident(0),
            params: vec![
                FormalParam {
                    is_var: false,
                    names: vec![ident(1), ident(2)],
                    ty: ty.clone(),
                },
                FormalParam {
                    is_var: true,
                    names: vec![ident(3)],
                    ty,
                },
            ],
            ret: None,
            span: Span::default(),
        };
        assert_eq!(h.param_count(), 3);
    }

    #[test]
    fn node_count_counts_subtrees() {
        let (mut ast, mut scratch) = (Ast::default(), Ast::default());
        let name = |ast: &mut Ast, n| {
            ast.add(Expr {
                kind: ExprKind::Name(ident(n)),
                span: Span::default(),
            })
        };
        let (lhs, callee) = (name(&mut ast, 0), name(&mut ast, 1));
        let args = [name(&mut ast, 2), name(&mut ast, 3)];
        scratch.ids.extend(args);
        let args = ast.close(&mut scratch, 0);
        let rhs = ast.add(Expr {
            kind: ExprKind::Call { callee, args },
            span: Span::default(),
        });
        let sum = ast.add(Expr {
            kind: ExprKind::Binary {
                op: BinOp::Add,
                lhs,
                rhs,
            },
            span: Span::default(),
        });
        assert_eq!(ast.node_count(sum), 6);
        assert_eq!(ast.node_count(rhs), 4);
        assert_eq!(ast.node_count(lhs), 1);
    }

    #[test]
    fn nested_sequences_land_as_contiguous_lists() {
        use ccm2_support::diag::DiagnosticSink;
        use ccm2_support::intern::Interner;
        use ccm2_support::source::SourceMap;
        let (interner, map, sink) = (Interner::new(), SourceMap::new(), DiagnosticSink::new());
        let file = map.add(
            "M.mod",
            "MODULE M; VAR i, n : INTEGER; \
             BEGIN \
               CASE i OF \
                 1 : WHILE i < n DO \
                       IF i = 2 THEN n := 1; i := 2 ELSE EXIT END; \
                       i := i + 1 \
                     END \
               | 2, 3 : n := 0 \
               END; \
               n := 5 \
             END M.",
        );
        let tokens = crate::lexer::lex_file(&file, &interner, &sink);
        let m = crate::parser::parse_implementation(&tokens, &interner, &sink).expect("parses");
        assert!(!sink.has_errors(), "{:?}", sink.snapshot());
        let (ast, body) = (&m.body.ast, m.body.stmts);
        // CASE, WHILE, IF, `n := 1`, `i := 2`, EXIT, `i := i + 1`,
        // `n := 0`, `n := 5`.
        assert_eq!(ast.stmt_count(body), 9);
        let StmtKind::Case { arms, .. } = ast[body][0].kind else {
            panic!("CASE first")
        };
        let [one, two_three] = ast[arms] else {
            panic!("two arms")
        };
        assert_eq!(ast[two_three.labels].len(), 2);
        let StmtKind::While {
            body: loop_body, ..
        } = ast[one.body][0].kind
        else {
            panic!("WHILE in the first arm")
        };
        let StmtKind::If {
            arms: if_arms,
            else_body: Some(else_body),
        } = ast[loop_body][0].kind
        else {
            panic!("IF in the loop")
        };
        let then_body = ast[if_arms][0].body;
        // Each sequence closes before the one holding it, into the next
        // stretch of the pool: innermost first, the module body last.
        let order = [
            then_body,
            else_body,
            loop_body,
            one.body,
            two_three.body,
            body,
        ];
        let mut at = 0;
        for seq in order {
            assert_eq!(
                seq.start, at,
                "{seq:?} follows the sequence closed before it"
            );
            at += seq.len;
        }
        assert_eq!(at as usize, ast.stmts.len());
        assert_eq!(ast.stmt_count(body), ast.stmts.len());
    }

    #[test]
    fn close_moves_a_scratch_run_into_one_list() {
        let (mut ast, mut scratch) = (Ast::default(), Ast::default());
        let exit = Stmt {
            kind: StmtKind::Exit,
            span: Span::default(),
        };
        scratch.stmts.extend([exit, exit, exit]);
        let inner: List<Stmt> = ast.close(&mut scratch, 1);
        assert_eq!((inner.len(), scratch.stmts.len()), (2, 1));
        let body = Stmt {
            kind: StmtKind::Loop { body: inner },
            span: Span::default(),
        };
        scratch.stmts.push(body);
        let outer: List<Stmt> = ast.close(&mut scratch, 0);
        assert_eq!(&ast[outer], &[exit, body]);
        assert_eq!(ast.stmt_count(outer), 4);
        let lens = ast.lens();
        ast.add(Expr {
            kind: ExprKind::IntLit(1),
            span: Span::default(),
        });
        ast.truncate(lens);
        assert_eq!(ast.lens(), lens);
    }

    #[test]
    fn a_continuation_reads_what_it_shared_without_a_copy() {
        let (mut ast, mut scratch) = (Ast::default(), Ast::default());
        let int = |n| Expr {
            kind: ExprKind::IntLit(n),
            span: Span::default(),
        };
        let one = ast.add(int(1));
        scratch.ids.extend([one, one]);
        let pair: List<ExprId> = ast.close(&mut scratch, 0);
        let shared = ast.share();
        assert_eq!(ast.lens(), [0; 6], "the continuation starts empty");
        let two = ast.add(int(2));
        scratch.ids.extend([two, one]);
        let mixed: List<ExprId> = ast.close(&mut scratch, 0);
        for tree in [&*shared, &ast] {
            assert_eq!(tree[one], int(1));
            assert_eq!(&tree[pair], &[one, one]);
        }
        assert_eq!(ast[two], int(2));
        assert_eq!(&ast[mixed], &[two, one]);
        assert_eq!(ast.node_count(two), 1);
        assert!(Arc::ptr_eq(ast.below.as_ref().expect("continues"), &shared));
        assert_eq!(
            shared.lens(),
            [1, 0, 2, 0, 0, 0],
            "the shared arena is not added to"
        );
        // A second share stacks on the first.
        let again = ast.share();
        let three = ast.add(int(3));
        assert_eq!((ast[three], again[two], ast[one]), (int(3), int(2), int(1)));
    }
}
