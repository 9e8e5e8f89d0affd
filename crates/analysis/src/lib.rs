//! Source-level dataflow lints over the parsed AST — the *analysis*
//! phase added on top of the paper's Figure-5 task structure.
//!
//! The same per-unit pass ([`analyze_unit`]) runs in both compilers:
//!
//! * the **sequential** baseline runs it in phase order, once per unit
//!   (the module body plus every procedure), after declaration analysis;
//! * the **concurrent** driver spawns one `Analyze` task per unit
//!   (priority between statement analysis and code generation, §2.3.4)
//!   and merges the per-unit used-name sets through an [`AnalysisHub`].
//!
//! Diagnostics must be byte-identical between the two drivers under
//! every DKY strategy and worker count. Three rules make that hold:
//!
//! 1. **Units are identical.** Both compilers analyze exactly the main
//!    implementation module plus one unit per procedure; definition
//!    modules are never linted (their `FileId` registration order is
//!    scheduling-dependent in the concurrent driver, while every unit of
//!    `Main.mod` has `FileId` 0 in both).
//! 2. **Nested procedure bodies are opaque.** The concurrent splitter
//!    diverts procedure bodies to their own streams, so a parent unit
//!    sees [`ProcBody::Remote`](ccm2_syntax::ast::ProcBody) where the
//!    sequential parser sees `Local`. The walk therefore never descends
//!    into a nested procedure's body — only its heading's parameter and
//!    return types — and each body is linted by its own unit instead.
//! 3. **No diagnostic is emitted from unordered iteration.** Findings
//!    are produced by walking declarations, statements and imports in
//!    source order; hash sets are only ever *queried*.
//!
//! The lints:
//!
//! * **use-before-initialization** — a `VAR` local read on a path where
//!   no assignment is guaranteed to have happened;
//! * **unreachable code** — a statement following `RETURN`, `EXIT` or
//!   `RAISE` in the same statement list;
//! * **unused local declarations** — procedure-unit declarations whose
//!   name is never mentioned in the unit;
//! * **unused imports** — `IMPORT M` / `FROM M IMPORT x` in the main
//!   module where the name is mentioned in *no* unit (checked once, at
//!   the end, against the union of per-unit used sets);
//! * **LOCK discipline** — re-`LOCK` of a mutex designator already held,
//!   and a call into module `M` while holding a mutex `M.…` (the
//!   Modula-2+ self-deadlock pattern).
//!
//! On top of the per-unit lints, the walk records each unit's lock/call
//! events as a [`UnitSummary`] ([`callgraph`]); the drivers collect the
//! summaries through the [`AnalysisHub`] and run the interprocedural
//! lock-order pass ([`lockorder`]) once, after every unit. Summaries
//! cache through `ccm2-incr` in the [`summary`] wire format.

use std::collections::{BTreeSet, HashMap, HashSet};

use parking_lot::Mutex;

use ccm2_support::diag::{Diagnostic, DiagnosticSink};
use ccm2_support::intern::{Interner, Symbol};
use ccm2_support::source::FileId;
use ccm2_syntax::ast::{
    Ast, Body, Decl, Expr, ExprKind, Import, Label, ProcHeading, Stmt, StmtKind, TypeExpr,
    TypeExprKind,
};

pub mod callgraph;
pub mod lockorder;
pub mod summary;

pub use callgraph::{CallSite, LockAcquire, UnitSummary};
pub use lockorder::{lock_order_pass, LockStats};
pub use summary::{decode_summary, encode_summary, SUMMARY_FORMAT, SUMMARY_FORMAT_VERSION};

/// What kind of compilation unit a lint pass covers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UnitKind {
    /// The main module's own declarations and body. Module-level
    /// declarations may be used from any procedure, so the unused-local
    /// lint is skipped (it would need cross-unit reasoning).
    Module,
    /// One procedure's declarations and body.
    Procedure,
}

/// The result of analyzing one unit.
#[derive(Debug, Default)]
pub struct UnitAnalysis {
    /// Every name mentioned in the unit (for the unused-import union and
    /// the unused-local check).
    pub used: HashSet<Symbol>,
    /// The unit's lock/call events for the interprocedural pass.
    pub summary: UnitSummary,
    /// Diagnostics reported.
    pub findings: usize,
    /// AST nodes visited (the `Work::Analyze` charge).
    pub work: u64,
}

/// Order-independent accumulator for the per-unit used-name sets and
/// unit summaries; the concurrent driver's `Analyze` tasks absorb into
/// it in whatever order they finish. Set union is commutative, and the
/// lock-order pass sorts the summaries by unit name before use, so the
/// absorption order never shows in the output.
#[derive(Debug, Default)]
pub struct AnalysisHub {
    used: Mutex<HashSet<Symbol>>,
    summaries: Mutex<Vec<UnitSummary>>,
}

impl AnalysisHub {
    /// Creates an empty hub.
    pub fn new() -> AnalysisHub {
        AnalysisHub::default()
    }

    /// Merges one unit's used-name set.
    pub fn absorb(&self, used: HashSet<Symbol>) {
        self.used.lock().extend(used);
    }

    /// Takes the union (call once, after every unit's task completed).
    pub fn take_used(&self) -> HashSet<Symbol> {
        std::mem::take(&mut self.used.lock())
    }

    /// Deposits one unit's lock/call summary (live or cache-replayed).
    pub fn absorb_summary(&self, summary: UnitSummary) {
        self.summaries.lock().push(summary);
    }

    /// Takes every deposited summary (call once, for the lock-order
    /// pass). Order is absorption order; the pass sorts internally.
    pub fn take_summaries(&self) -> Vec<UnitSummary> {
        std::mem::take(&mut self.summaries.lock())
    }
}

/// Runs every per-unit lint over one unit and reports findings to
/// `sink`. `decls` and `body` are the unit's *own* declarations and
/// statements, both in `body`'s arena; nested procedures among `decls` are
/// analyzed as separate units by the caller and treated as opaque here.
/// `unit` is the unit's dotted code name (`M`, `M.P.Q`), recorded on the
/// summary for the interprocedural lock-order pass.
pub fn analyze_unit(
    interner: &Interner,
    file: FileId,
    unit: &str,
    kind: UnitKind,
    decls: &[Decl],
    body: &Body,
    sink: &DiagnosticSink,
) -> UnitAnalysis {
    let ast = &*body.ast;
    let mut l = Linter {
        interner,
        ast,
        file,
        sink,
        used: HashSet::new(),
        findings: 0,
        work: 0,
        tracked: HashMap::new(),
        reported_uninit: HashSet::new(),
        locks: Vec::new(),
        lock_reports: BTreeSet::new(),
        summary: UnitSummary::new(unit),
    };
    // Track the unit's own scalar VAR locals for use-before-init.
    for d in decls {
        if let Decl::Var { names, .. } = d {
            for n in names {
                l.tracked.insert(n.name, ());
            }
        }
    }
    for d in decls {
        l.walk_decl(d);
    }
    let mut assigned: HashSet<Symbol> = HashSet::new();
    l.walk_stmts(&ast[body.stmts], &mut assigned);
    // Unused locals: procedure units only (module-level names are
    // visible to every procedure unit, which this pass cannot see).
    if kind == UnitKind::Procedure {
        for d in decls {
            for ident in d.declared_names() {
                if !l.used.contains(&ident.name) {
                    let name = interner.resolve(ident.name);
                    l.report(ident.span, format!("unused local declaration `{name}`"));
                }
            }
        }
    }
    // Lock-discipline findings flush once, deduplicated and sorted by
    // (span, message): a site reached twice by the walk (branch arms are
    // walked in cloned states) still reports exactly once.
    let lock_reports = std::mem::take(&mut l.lock_reports);
    for (lo, hi, message) in lock_reports {
        l.report(ccm2_support::source::Span::new(lo, hi), message);
    }
    UnitAnalysis {
        used: l.used,
        summary: l.summary,
        findings: l.findings,
        work: l.work,
    }
}

/// Checks the main module's import list against the union of every
/// unit's used-name set. Runs once per compilation, after all units.
/// Returns the number of findings.
pub fn check_unused_imports(
    interner: &Interner,
    file: FileId,
    imports: &[Import],
    used: &HashSet<Symbol>,
    sink: &DiagnosticSink,
) -> usize {
    let mut findings = 0;
    for imp in imports {
        match imp {
            Import::Whole { module } => {
                if !used.contains(&module.name) {
                    let m = interner.resolve(module.name);
                    sink.report(Diagnostic::warning(
                        file,
                        module.span,
                        format!("unused import of module `{m}`"),
                    ));
                    findings += 1;
                }
            }
            Import::From { module, names } => {
                for n in names {
                    if !used.contains(&n.name) {
                        let name = interner.resolve(n.name);
                        let m = interner.resolve(module.name);
                        sink.report(Diagnostic::warning(
                            file,
                            n.span,
                            format!("unused import `{name}` from `{m}`"),
                        ));
                        findings += 1;
                    }
                }
            }
        }
    }
    findings
}

// ---- the walker --------------------------------------------------------

struct Linter<'a> {
    interner: &'a Interner,
    /// The arena of the unit's tree.
    ast: &'a Ast,
    file: FileId,
    sink: &'a DiagnosticSink,
    used: HashSet<Symbol>,
    findings: usize,
    work: u64,
    /// VAR locals of this unit, tracked for use-before-init.
    tracked: HashMap<Symbol, ()>,
    /// Reported-once set for use-before-init.
    reported_uninit: HashSet<Symbol>,
    /// Stack of held mutex designators (canonical strings).
    locks: Vec<String>,
    /// Lock-discipline findings, deduplicated and sorted by
    /// `(span.lo, span.hi, message)`; flushed once at end of unit.
    lock_reports: BTreeSet<(u32, u32, String)>,
    /// Lock/call events recorded for the interprocedural pass.
    summary: UnitSummary,
}

impl<'a> Linter<'a> {
    fn report(&mut self, span: ccm2_support::source::Span, message: String) {
        self.sink
            .report(Diagnostic::warning(self.file, span, message));
        self.findings += 1;
    }

    /// Records a mention (for the unused lints) without an init check.
    fn mention(&mut self, name: Symbol) {
        self.used.insert(name);
    }

    /// Records a *read* of a name: a mention plus the init check.
    fn read(&mut self, ident: &ccm2_syntax::ast::Ident, assigned: &HashSet<Symbol>) {
        self.mention(ident.name);
        if self.tracked.contains_key(&ident.name)
            && !assigned.contains(&ident.name)
            && self.reported_uninit.insert(ident.name)
        {
            let name = self.interner.resolve(ident.name);
            self.report(
                ident.span,
                format!("possible use of `{name}` before initialization"),
            );
        }
    }

    // ---- declarations (headings of nested procedures are opaque) ------

    fn walk_decl(&mut self, decl: &Decl) {
        self.work += 1;
        match decl {
            Decl::Const { value, .. } => self.walk_expr_mentions(&self.ast[*value]),
            Decl::Type { ty, .. } => {
                if let Some(ty) = ty {
                    self.walk_type(ty);
                }
            }
            Decl::Var { ty, .. } => self.walk_type(ty),
            // Opaque: the body (Local or Remote) is another unit's job.
            Decl::Procedure(p) => self.walk_heading(&p.heading),
        }
    }

    fn walk_heading(&mut self, heading: &ProcHeading) {
        self.work += 1;
        for param in &heading.params {
            self.walk_type(&param.ty);
        }
        if let Some(ret) = &heading.ret {
            self.walk_type(ret);
        }
    }

    fn walk_type(&mut self, ty: &TypeExpr) {
        self.work += 1;
        match &ty.kind {
            TypeExprKind::Named { module, name } => {
                if let Some(m) = module {
                    self.mention(m.name);
                }
                self.mention(name.name);
            }
            TypeExprKind::Array { index, elem } => {
                self.walk_type(index);
                self.walk_type(elem);
            }
            TypeExprKind::OpenArray { elem } => self.walk_type(elem),
            TypeExprKind::Record { fields } => {
                for f in fields {
                    self.walk_type(&f.ty);
                }
            }
            TypeExprKind::Pointer { to } => self.walk_type(to),
            TypeExprKind::Set { of } => self.walk_type(of),
            TypeExprKind::Enumeration { .. } => {}
            TypeExprKind::Subrange { lo, hi } => {
                self.walk_expr_mentions(&self.ast[*lo]);
                self.walk_expr_mentions(&self.ast[*hi]);
            }
            TypeExprKind::ProcType { params, ret } => {
                for (_, ty) in params {
                    self.walk_type(ty);
                }
                if let Some(ret) = ret {
                    self.walk_type(ret);
                }
            }
        }
    }

    /// Walks an expression recording mentions only (no init checks):
    /// declaration initializers and constant expressions.
    fn walk_expr_mentions(&mut self, expr: &Expr) {
        let empty = HashSet::new();
        // `tracked` locals cannot legally appear in constant expressions,
        // and `read` would misfire on them; mention-walk via a shim that
        // suppresses the init check.
        let saved = std::mem::take(&mut self.tracked);
        self.walk_expr(expr, &empty);
        self.tracked = saved;
    }

    // ---- statements ---------------------------------------------------

    /// Walks a statement list, threading the assigned-set through it and
    /// reporting unreachable code after RETURN / EXIT / RAISE.
    fn walk_stmts(&mut self, stmts: &[Stmt], assigned: &mut HashSet<Symbol>) {
        let mut terminated: Option<&'static str> = None;
        for stmt in stmts {
            if let Some(kw) = terminated.take() {
                self.report(stmt.span, format!("unreachable code after {kw}"));
                // Keep walking so the used-set stays complete; later
                // statements in the same list report only once.
            }
            self.walk_stmt(stmt, assigned);
            terminated = match &stmt.kind {
                StmtKind::Return(_) => Some("RETURN"),
                StmtKind::Exit => Some("EXIT"),
                StmtKind::Raise(_) => Some("RAISE"),
                _ => None,
            };
        }
    }

    fn walk_stmt(&mut self, stmt: &Stmt, assigned: &mut HashSet<Symbol>) {
        self.work += 1;
        let ast = self.ast;
        match stmt.kind {
            StmtKind::Assign { lhs, rhs } => {
                self.walk_expr(&ast[rhs], assigned);
                self.walk_assign_target(&ast[lhs], assigned);
            }
            StmtKind::Call { call } => self.walk_call(&ast[call], assigned),
            StmtKind::If { arms, else_body } => {
                for arm in &ast[arms] {
                    self.walk_expr(&ast[arm.cond], assigned);
                }
                let mut branches: Vec<&[Stmt]> = ast[arms].iter().map(|a| &ast[a.body]).collect();
                if let Some(e) = else_body {
                    branches.push(&ast[e]);
                }
                self.walk_branches(&branches, else_body.is_some(), assigned);
            }
            StmtKind::While { cond, body } => {
                self.walk_expr(&ast[cond], assigned);
                self.walk_unpropagated(&ast[body], assigned);
            }
            StmtKind::Repeat { body, until } => {
                // Runs at least once: assignments propagate.
                self.walk_stmts(&ast[body], assigned);
                self.walk_expr(&ast[until], assigned);
            }
            StmtKind::For {
                var,
                from,
                to,
                by,
                body,
            } => {
                self.walk_expr(&ast[from], assigned);
                self.walk_expr(&ast[to], assigned);
                if let Some(by) = by {
                    self.walk_expr(&ast[by], assigned);
                }
                self.mention(var.name);
                assigned.insert(var.name);
                self.walk_unpropagated(&ast[body], assigned);
            }
            StmtKind::Loop { body } => self.walk_unpropagated(&ast[body], assigned),
            StmtKind::Case {
                scrutinee,
                arms,
                else_body,
            } => {
                self.walk_expr(&ast[scrutinee], assigned);
                for arm in &ast[arms] {
                    for &label in &ast[arm.labels] {
                        match label {
                            Label::Single(e) => self.walk_expr_mentions(&ast[e]),
                            Label::Range(a, b) => {
                                self.walk_expr_mentions(&ast[a]);
                                self.walk_expr_mentions(&ast[b]);
                            }
                        }
                    }
                }
                let mut branches: Vec<&[Stmt]> = ast[arms].iter().map(|a| &ast[a.body]).collect();
                if let Some(e) = else_body {
                    branches.push(&ast[e]);
                }
                self.walk_branches(&branches, else_body.is_some(), assigned);
            }
            StmtKind::With { designator, body } => {
                self.walk_expr(&ast[designator], assigned);
                self.walk_stmts(&ast[body], assigned);
            }
            StmtKind::Return(e) | StmtKind::Raise(e) => {
                if let Some(e) = e {
                    self.walk_expr(&ast[e], assigned);
                }
            }
            StmtKind::LockStmt { designator, body } => {
                let designator = &ast[designator];
                self.walk_expr(designator, assigned);
                self.lock_discipline(designator, stmt, &ast[body], assigned);
            }
            StmtKind::TryStmt {
                body,
                except,
                finally,
            } => {
                // The body may be cut short by an exception and the
                // except-arm may not run at all: neither propagates.
                self.walk_unpropagated(&ast[body], assigned);
                if let Some(except) = except {
                    self.walk_unpropagated(&ast[except], assigned);
                }
                if let Some(finally) = finally {
                    // FINALLY always runs.
                    self.walk_stmts(&ast[finally], assigned);
                }
            }
            StmtKind::Exit | StmtKind::Empty => {}
        }
    }

    /// Branch bodies: each walked in a copy of the entry state; the
    /// intersection of their assigned-sets propagates only when the
    /// branching is exhaustive (an ELSE exists).
    fn walk_branches(
        &mut self,
        branches: &[&[Stmt]],
        exhaustive: bool,
        assigned: &mut HashSet<Symbol>,
    ) {
        let mut out: Option<HashSet<Symbol>> = None;
        for body in branches {
            let mut branch_assigned = assigned.clone();
            self.walk_stmts(body, &mut branch_assigned);
            out = Some(match out {
                None => branch_assigned,
                Some(prev) => prev.intersection(&branch_assigned).copied().collect(),
            });
        }
        if exhaustive {
            if let Some(out) = out {
                assigned.extend(out);
            }
        }
    }

    /// Loop bodies that may execute zero times: walked for reports and
    /// mentions, assignments discarded.
    fn walk_unpropagated(&mut self, body: &[Stmt], assigned: &HashSet<Symbol>) {
        let mut copy = assigned.clone();
        self.walk_stmts(body, &mut copy);
    }

    /// LOCK discipline: nested re-LOCK of a held designator, and calls
    /// into the locking module while its mutex is held.
    fn lock_discipline(
        &mut self,
        designator: &Expr,
        stmt: &Stmt,
        body: &[Stmt],
        assigned: &mut HashSet<Symbol>,
    ) {
        let canon = self.canonical(designator);
        if self.locks.contains(&canon) {
            self.lock_reports.insert((
                stmt.span.lo,
                stmt.span.hi,
                format!("LOCK of `{canon}` while it is already held (nested re-LOCK)"),
            ));
        }
        self.summary.acquires.push(callgraph::LockAcquire {
            held: self.locks.clone(),
            lock: canon.clone(),
            span: stmt.span,
        });
        self.locks.push(canon);
        // The body runs exactly once: assignments propagate.
        self.walk_stmts(body, assigned);
        self.locks.pop();
    }

    /// Canonical display string for a mutex designator.
    fn canonical(&self, expr: &Expr) -> String {
        match expr.kind {
            ExprKind::Name(id) => self.interner.resolve(id.name),
            ExprKind::Field { base, field } => {
                format!(
                    "{}.{}",
                    self.canonical(&self.ast[base]),
                    self.interner.resolve(field.name)
                )
            }
            ExprKind::Index { base, .. } => format!("{}[]", self.canonical(&self.ast[base])),
            ExprKind::Deref { base } => format!("{}^", self.canonical(&self.ast[base])),
            _ => String::from("<expr>"),
        }
    }

    // ---- expressions --------------------------------------------------

    /// An assignment target: `x :=` assigns `x`; `a[i] :=` uses the
    /// indices and conservatively counts as assigning `a`; `r.f :=`
    /// assigns `r`; `p^ :=` *reads* `p`.
    fn walk_assign_target(&mut self, lhs: &Expr, assigned: &mut HashSet<Symbol>) {
        self.work += 1;
        let ast = self.ast;
        match lhs.kind {
            ExprKind::Name(id) => {
                self.mention(id.name);
                assigned.insert(id.name);
            }
            ExprKind::Index { base, indices } => {
                for &ix in &ast[indices] {
                    self.walk_expr(&ast[ix], assigned);
                }
                self.walk_assign_target(&ast[base], assigned);
            }
            ExprKind::Field { base, field } => {
                self.mention(field.name);
                self.walk_assign_target(&ast[base], assigned);
            }
            ExprKind::Deref { base } => self.walk_expr(&ast[base], assigned),
            _ => self.walk_expr(lhs, assigned),
        }
    }

    /// A call: the callee and non-name arguments are reads; a bare-name
    /// argument may be a VAR (out) parameter, so it is mentioned but not
    /// init-checked, and counts as assigned afterwards.
    fn walk_call(&mut self, call: &Expr, assigned: &mut HashSet<Symbol>) {
        self.work += 1;
        let ast = self.ast;
        if let ExprKind::Call { callee, args } = call.kind {
            let callee = &ast[callee];
            self.walk_expr(callee, assigned);
            self.check_lock_reentry(callee);
            self.record_call(callee);
            let mut out_params: Vec<Symbol> = Vec::new();
            for &arg in &ast[args] {
                let arg = &ast[arg];
                if let ExprKind::Name(id) = &arg.kind {
                    self.work += 1;
                    self.mention(id.name);
                    out_params.push(id.name);
                } else {
                    self.walk_expr(arg, assigned);
                }
            }
            assigned.extend(out_params);
        } else {
            self.walk_expr(call, assigned);
        }
    }

    /// While holding `M.mu`, a call whose callee is qualified `M.proc`
    /// may re-enter the locking module: the Modula-2+ self-deadlock
    /// pattern.
    fn check_lock_reentry(&mut self, callee: &Expr) {
        let ExprKind::Field { base, field } = &callee.kind else {
            return;
        };
        let ExprKind::Name(module) = &self.ast[*base].kind else {
            return;
        };
        let module_str = self.interner.resolve(module.name);
        let prefix = format!("{module_str}.");
        let Some(held) = self
            .locks
            .iter()
            .find(|held| held.starts_with(&prefix))
            .cloned()
        else {
            return;
        };
        let proc = self.interner.resolve(field.name);
        self.lock_reports.insert((
            callee.span.lo,
            callee.span.hi,
            format!(
                "call to `{module_str}.{proc}` while holding `{held}` may re-enter the locking module"
            ),
        ));
    }

    /// Records a call site (callee designator + held locks) on the
    /// unit's summary for the interprocedural pass.
    fn record_call(&mut self, callee: &Expr) {
        self.summary.calls.push(callgraph::CallSite {
            held: self.locks.clone(),
            callee: self.canonical(callee),
            span: callee.span,
        });
    }

    fn walk_expr(&mut self, expr: &Expr, assigned: &HashSet<Symbol>) {
        self.work += 1;
        let ast = self.ast;
        match expr.kind {
            ExprKind::IntLit(_)
            | ExprKind::RealLit(_)
            | ExprKind::CharLit(_)
            | ExprKind::StrLit(_) => {}
            ExprKind::Name(id) => self.read(&id, assigned),
            ExprKind::Field { base, field } => {
                self.mention(field.name);
                self.walk_expr(&ast[base], assigned);
            }
            ExprKind::Index { base, indices } => {
                self.walk_expr(&ast[base], assigned);
                for &ix in &ast[indices] {
                    self.walk_expr(&ast[ix], assigned);
                }
            }
            ExprKind::Deref { base } => self.walk_expr(&ast[base], assigned),
            ExprKind::Call { callee, args } => {
                let callee = &ast[callee];
                // Expression (function) calls: same VAR-argument
                // conservatism as statement calls, but results feed into
                // the surrounding expression, so `assigned` is immutable
                // here; out-name arguments are simply not init-checked.
                self.walk_expr(callee, assigned);
                self.check_lock_reentry(callee);
                self.record_call(callee);
                for &arg in &ast[args] {
                    let arg = &ast[arg];
                    if let ExprKind::Name(id) = &arg.kind {
                        self.work += 1;
                        self.mention(id.name);
                    } else {
                        self.walk_expr(arg, assigned);
                    }
                }
            }
            ExprKind::Unary { operand, .. } => self.walk_expr(&ast[operand], assigned),
            ExprKind::Binary { lhs, rhs, .. } => {
                self.walk_expr(&ast[lhs], assigned);
                self.walk_expr(&ast[rhs], assigned);
            }
            ExprKind::SetCons { of_type, elems } => {
                if let Some(t) = of_type {
                    self.mention(t.name);
                }
                for &e in &ast[elems] {
                    match e {
                        Label::Single(x) => self.walk_expr(&ast[x], assigned),
                        Label::Range(a, b) => {
                            self.walk_expr(&ast[a], assigned);
                            self.walk_expr(&ast[b], assigned);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccm2_support::diag::Severity;
    use ccm2_support::source::SourceMap;
    use ccm2_syntax::lexer::lex_file;
    use ccm2_syntax::parser::parse_implementation;

    /// Parses a module and runs the module-unit lints plus one
    /// procedure unit per Local procedure, then the interprocedural
    /// lock-order pass — mirroring the drivers.
    fn lint(source: &str) -> (Vec<String>, usize) {
        let interner = Interner::new();
        let sources = SourceMap::new();
        let file = sources.add("Main.mod", source);
        let sink = DiagnosticSink::new();
        let tokens = lex_file(&file, &interner, &sink);
        let module = parse_implementation(&tokens, &interner, &sink).expect("test module parses");
        assert!(!sink.has_errors(), "test module must be clean Modula-2+");
        let module_name = interner.resolve(module.name.name);
        let mut used = HashSet::new();
        let mut findings = 0;
        let mut summaries = Vec::new();
        let ua = analyze_unit(
            &interner,
            file.id(),
            &module_name,
            UnitKind::Module,
            &module.decls,
            &module.body,
            &sink,
        );
        findings += ua.findings;
        used.extend(ua.used);
        summaries.push(ua.summary);
        // Walk procedures (recursively) as separate units.
        let mut queue: Vec<(String, &Decl)> = module
            .decls
            .iter()
            .map(|d| (module_name.clone(), d))
            .collect();
        while let Some((prefix, d)) = queue.pop() {
            if let Decl::Procedure(p) = d {
                if let ccm2_syntax::ast::ProcBody::Local(local) = &p.body {
                    let name = format!("{prefix}.{}", interner.resolve(p.heading.name.name));
                    let ua = analyze_unit(
                        &interner,
                        file.id(),
                        &name,
                        UnitKind::Procedure,
                        &local.decls,
                        &local.body_in(&module.body.ast),
                        &sink,
                    );
                    findings += ua.findings;
                    used.extend(ua.used);
                    summaries.push(ua.summary);
                    queue.extend(local.decls.iter().map(|d| (name.clone(), d)));
                }
            }
        }
        findings += check_unused_imports(&interner, file.id(), &module.imports, &used, &sink);
        let (lock_diags, _) = lock_order_pass(&summaries, file.id());
        for d in lock_diags {
            sink.report(d);
        }
        let msgs = sink
            .take()
            .into_iter()
            .inspect(|d| assert_eq!(d.severity, Severity::Warning))
            .map(|d| d.message)
            .collect();
        (msgs, findings)
    }

    #[test]
    fn use_before_init_reported_once() {
        let (msgs, _) = lint(
            "IMPLEMENTATION MODULE T;
             PROCEDURE P(): INTEGER;
             VAR x: INTEGER;
             BEGIN
               RETURN x + x
             END P;
             BEGIN END T.",
        );
        assert_eq!(
            msgs.iter()
                .filter(|m| m.contains("use of `x` before initialization"))
                .count(),
            1
        );
    }

    #[test]
    fn assignment_silences_use_before_init() {
        let (msgs, _) = lint(
            "IMPLEMENTATION MODULE T;
             PROCEDURE P(): INTEGER;
             VAR x: INTEGER;
             BEGIN
               x := 1;
               RETURN x
             END P;
             BEGIN END T.",
        );
        assert!(
            msgs.iter().all(|m| !m.contains("before initialization")),
            "{msgs:?}"
        );
    }

    #[test]
    fn if_without_else_does_not_guarantee_assignment() {
        let (msgs, _) = lint(
            "IMPLEMENTATION MODULE T;
             PROCEDURE P(c: INTEGER): INTEGER;
             VAR x: INTEGER;
             BEGIN
               IF c > 0 THEN x := 1 END;
               RETURN x
             END P;
             BEGIN END T.",
        );
        assert_eq!(
            msgs.iter()
                .filter(|m| m.contains("use of `x` before initialization"))
                .count(),
            1,
            "{msgs:?}"
        );
    }

    #[test]
    fn if_with_else_assigning_both_arms_is_clean() {
        let (msgs, _) = lint(
            "IMPLEMENTATION MODULE T;
             PROCEDURE P(c: INTEGER): INTEGER;
             VAR x: INTEGER;
             BEGIN
               IF c > 0 THEN x := 1 ELSE x := 2 END;
               RETURN x
             END P;
             BEGIN END T.",
        );
        assert!(
            msgs.iter().all(|m| !m.contains("before initialization")),
            "{msgs:?}"
        );
    }

    #[test]
    fn unreachable_after_return() {
        let (msgs, _) = lint(
            "IMPLEMENTATION MODULE T;
             PROCEDURE P(): INTEGER;
             VAR x: INTEGER;
             BEGIN
               x := 1;
               RETURN x;
               x := 2
             END P;
             BEGIN END T.",
        );
        assert_eq!(
            msgs.iter()
                .filter(|m| m.contains("unreachable code after RETURN"))
                .count(),
            1,
            "{msgs:?}"
        );
    }

    #[test]
    fn unused_local_reported_for_procedure_units_only() {
        let (msgs, _) = lint(
            "IMPLEMENTATION MODULE T;
             VAR g: INTEGER;
             PROCEDURE P();
             VAR dead: INTEGER;
             BEGIN
             END P;
             BEGIN g := 0 END T.",
        );
        assert_eq!(
            msgs.iter()
                .filter(|m| m.contains("unused local declaration `dead`"))
                .count(),
            1,
            "{msgs:?}"
        );
        assert!(msgs.iter().all(|m| !m.contains("`g`")), "{msgs:?}");
    }

    #[test]
    fn unused_import_reported() {
        let (msgs, _) = lint(
            "IMPLEMENTATION MODULE T;
             IMPORT Dead;
             FROM Alive IMPORT f;
             VAR x: INTEGER;
             BEGIN
               f(x)
             END T.",
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("unused import of module `Dead`")),
            "{msgs:?}"
        );
        assert!(msgs.iter().all(|m| !m.contains("`f`")), "{msgs:?}");
    }

    #[test]
    fn nested_relock_and_reentry_reported() {
        let (msgs, _) = lint(
            "IMPLEMENTATION MODULE T;
             IMPORT Mu;
             BEGIN
               LOCK Mu.m DO
                 LOCK Mu.m DO
                   Mu.Touch()
                 END
               END
             END T.",
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("LOCK of `Mu.m` while it is already held")),
            "{msgs:?}"
        );
        assert_eq!(
            msgs.iter()
                .filter(|m| m.contains("may re-enter the locking module"))
                .count(),
            1,
            "{msgs:?}"
        );
    }

    #[test]
    fn nested_procedure_bodies_are_opaque() {
        // The mention of `h` happens inside Q's body: the outer unit must
        // not see it (the concurrent parent sees a Remote body there), so
        // both drivers must agree `h` is used — via Q's own unit.
        let (msgs, _) = lint(
            "IMPLEMENTATION MODULE T;
             PROCEDURE P();
             VAR h: INTEGER;
               PROCEDURE Q();
               BEGIN
                 h := 1
               END Q;
             BEGIN
               Q()
             END P;
             BEGIN END T.",
        );
        // Known conservatism: `h` is reported unused in P's unit (the
        // nested body is opaque) — deterministically in both compilers.
        assert_eq!(
            msgs.iter()
                .filter(|m| m.contains("unused local declaration `h`"))
                .count(),
            1,
            "{msgs:?}"
        );
    }

    #[test]
    fn repeat_body_propagates_assignment() {
        let (msgs, _) = lint(
            "IMPLEMENTATION MODULE T;
             PROCEDURE P(): INTEGER;
             VAR x: INTEGER;
             BEGIN
               REPEAT x := 1 UNTIL x > 0;
               RETURN x
             END P;
             BEGIN END T.",
        );
        assert!(
            msgs.iter().all(|m| !m.contains("before initialization")),
            "{msgs:?}"
        );
    }

    #[test]
    fn while_body_does_not_propagate_assignment() {
        let (msgs, _) = lint(
            "IMPLEMENTATION MODULE T;
             PROCEDURE P(c: INTEGER): INTEGER;
             VAR x: INTEGER;
             BEGIN
               WHILE c > 0 DO x := 1 END;
               RETURN x
             END P;
             BEGIN END T.",
        );
        assert_eq!(
            msgs.iter()
                .filter(|m| m.contains("use of `x` before initialization"))
                .count(),
            1,
            "{msgs:?}"
        );
    }

    #[test]
    fn var_argument_counts_as_assignment() {
        let (msgs, _) = lint(
            "IMPLEMENTATION MODULE T;
             FROM IO IMPORT ReadInt;
             PROCEDURE P(): INTEGER;
             VAR x: INTEGER;
             BEGIN
               ReadInt(x);
               RETURN x
             END P;
             BEGIN END T.",
        );
        assert!(
            msgs.iter().all(|m| !m.contains("before initialization")),
            "{msgs:?}"
        );
    }

    #[test]
    fn relock_through_else_arm_reported() {
        let (msgs, _) = lint(
            "IMPLEMENTATION MODULE T;
             VAR gR: INTEGER;
             PROCEDURE P(c: INTEGER);
             VAR x: INTEGER;
             BEGIN
               LOCK gR DO
                 IF c > 0 THEN x := 1
                 ELSE LOCK gR DO x := 2 END
                 END
               END
             END P;
             BEGIN gR := 0 END T.",
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("LOCK of `gR` while it is already held")),
            "{msgs:?}"
        );
    }

    #[test]
    fn relock_through_loop_arm_reported() {
        let (msgs, _) = lint(
            "IMPLEMENTATION MODULE T;
             VAR gR: INTEGER;
             PROCEDURE P(c: INTEGER);
             VAR x: INTEGER;
             BEGIN
               LOCK gR DO
                 WHILE c > 0 DO LOCK gR DO x := 1 END END
               END
             END P;
             BEGIN gR := 0 END T.",
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("LOCK of `gR` while it is already held")),
            "{msgs:?}"
        );
    }

    #[test]
    fn lock_diagnostics_report_once_per_site() {
        // Two distinct re-LOCK sites under the same outer LOCK: one
        // report each, and the dedupe set must not merge them.
        let (msgs, _) = lint(
            "IMPLEMENTATION MODULE T;
             VAR gR: INTEGER;
             PROCEDURE P(c: INTEGER);
             VAR x: INTEGER;
             BEGIN
               LOCK gR DO
                 IF c > 0 THEN LOCK gR DO x := 1 END
                 ELSE LOCK gR DO x := 2 END
                 END
               END
             END P;
             BEGIN gR := 0 END T.",
        );
        assert_eq!(
            msgs.iter()
                .filter(|m| m.contains("LOCK of `gR` while it is already held"))
                .count(),
            2,
            "{msgs:?}"
        );
    }

    #[test]
    fn cross_procedure_relock_detected_from_source() {
        let (msgs, _) = lint(
            "IMPLEMENTATION MODULE T;
             VAR mu: INTEGER;
             PROCEDURE Grab();
             BEGIN
               LOCK mu DO mu := mu + 1 END
             END Grab;
             PROCEDURE P();
             BEGIN
               LOCK mu DO Grab() END
             END P;
             BEGIN END T.",
        );
        assert!(
            msgs.iter().any(
                |m| m.contains("call to `T.Grab` while holding `mu` may re-LOCK it")
                    && m.contains("chain: T.P -> T.Grab, LOCK `mu` in T.Grab")
            ),
            "{msgs:?}"
        );
    }

    #[test]
    fn lock_order_cycle_detected_from_source() {
        let (msgs, _) = lint(
            "IMPLEMENTATION MODULE T;
             VAR a, b: INTEGER;
             PROCEDURE GrabA();
             BEGIN LOCK a DO a := 1 END END GrabA;
             PROCEDURE GrabB();
             BEGIN LOCK b DO b := 1 END END GrabB;
             PROCEDURE P();
             BEGIN LOCK a DO GrabB() END END P;
             PROCEDURE Q();
             BEGIN LOCK b DO GrabA() END END Q;
             BEGIN P(); Q() END T.",
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("potential deadlock: lock-order cycle among `a`, `b`")),
            "{msgs:?}"
        );
    }

    #[test]
    fn consistent_lock_order_from_source_is_silent() {
        let (msgs, _) = lint(
            "IMPLEMENTATION MODULE T;
             VAR a, b: INTEGER;
             PROCEDURE GrabB();
             BEGIN LOCK b DO b := 1 END END GrabB;
             PROCEDURE P();
             BEGIN LOCK a DO GrabB() END END P;
             PROCEDURE Q();
             BEGIN LOCK a DO LOCK b DO b := 2 END END END Q;
             BEGIN P(); Q() END T.",
        );
        assert!(
            msgs.iter()
                .all(|m| !m.contains("deadlock") && !m.contains("re-LOCK")),
            "{msgs:?}"
        );
    }

    #[test]
    fn analysis_is_deterministic() {
        let src = "IMPLEMENTATION MODULE T;
             IMPORT Dead;
             PROCEDURE P(c: INTEGER): INTEGER;
             VAR x, unused: INTEGER;
             BEGIN
               IF c > 0 THEN x := 1 END;
               RETURN x;
               x := 2
             END P;
             BEGIN END T.";
        let (a, fa) = lint(src);
        let (b, fb) = lint(src);
        assert_eq!(a, b);
        assert_eq!(fa, fb);
        assert!(fa >= 4, "{a:?}");
    }
}
