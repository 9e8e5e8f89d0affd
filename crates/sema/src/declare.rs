//! Declaration semantic analysis.
//!
//! One invocation of [`declare_decls`] processes the declaration part of a
//! single scope — exactly the work of the paper's *Parser/Declarations
//! Analyzer* task (§3): constants are evaluated, types elaborated,
//! variables given frame slots, and procedure headings processed.
//!
//! Procedure headings implement the §2.4 information-flow alternatives:
//!
//! * [`HeadingMode::CopyToChild`] (alternative 1, the paper's choice): the
//!   parent elaborates the heading and *copies* the parameter entries into
//!   the child scope, then fires the `heading_done` hook — the avoided
//!   event that releases the child stream's tasks;
//! * [`HeadingMode::Reprocess`] (alternative 3, the ~3% slower ablation):
//!   the parent only inserts the procedure entry; the child re-elaborates
//!   the heading itself via [`declare_own_params`], producing identical
//!   entries by construction.
//!
//! (Alternative 2 — child processes the heading and copies to the parent —
//! is rejected by the paper as deadlock-prone and is not implemented.)

use ccm2_support::diag::Diagnostic;
use ccm2_support::ids::{ScopeId, StreamId};
use ccm2_support::source::Span;
use ccm2_support::work::Work;

use ccm2_syntax::ast::{Ast, Decl, ProcBody, ProcHeading, TypeExpr, TypeExprKind};

use crate::builtins::BuiltinDef;
use crate::consteval::eval_const;
use crate::symtab::{
    LookupResult, ParamSig, ProcInfo, ProcSig, ScopeKind, SymbolEntry, SymbolKind, VarInfo,
};
use crate::types::{Type, TypeId};
use crate::Sema;

/// Which §2.4 procedure-heading information flow to use.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum HeadingMode {
    /// Alternative 1: parent processes the heading, copies entries into
    /// the child scope (the paper's choice).
    #[default]
    CopyToChild,
    /// Alternative 3: parent and child each process the heading.
    Reprocess,
}

impl HeadingMode {
    /// Stable tag mixed into the incremental environment digest so
    /// cache entries recorded under one heading mode are never spliced
    /// into a compile running another (the child-side work each mode
    /// does — none, or re-declare — differs in metering and diagnostics
    /// even when entries agree).
    pub fn cache_tag(self) -> u8 {
        match self {
            HeadingMode::CopyToChild => 0,
            HeadingMode::Reprocess => 1,
        }
    }
}

/// A procedure discovered during declaration analysis of a scope, ready
/// for its own declaration analysis and, later, statement analysis /
/// code generation.
#[derive(Clone, Debug)]
pub struct PendingProc {
    /// The heading as written.
    pub heading: ProcHeading,
    /// Where the body lives.
    pub body: ProcBody,
    /// The procedure's own scope.
    pub scope: ScopeId,
    /// The dotted code-unit name (`M.P.Q`).
    pub code_name: ccm2_support::intern::Symbol,
    /// The elaborated signature.
    pub sig: ProcSig,
}

/// Hooks connecting declaration analysis to the execution environment.
pub trait DeclareHooks {
    /// Maps a splitter stream id to the scope pre-created for it.
    fn scope_for_stream(&self, stream: StreamId) -> ScopeId;
    /// Called when a procedure's heading has been fully processed in the
    /// parent scope (the child's avoided event, §2.4). Receives the
    /// elaborated signature and code name so the child stream's
    /// code-generation task can use them without re-elaborating.
    fn heading_done(&self, scope: ScopeId, code_name: ccm2_support::intern::Symbol, sig: &ProcSig);
}

/// Hooks for sequential compilation: child scopes are created on demand
/// and nothing is signaled.
pub struct LocalHooks<'a> {
    sema: &'a Sema,
}

impl<'a> LocalHooks<'a> {
    /// Creates hooks over `sema`.
    pub fn new(sema: &'a Sema) -> LocalHooks<'a> {
        LocalHooks { sema }
    }
}

impl DeclareHooks for LocalHooks<'_> {
    fn scope_for_stream(&self, stream: StreamId) -> ScopeId {
        // A sequential compilation never sees remote bodies.
        unreachable!("sequential compilation has no stream {stream}");
    }
    fn heading_done(
        &self,
        _scope: ScopeId,
        _code_name: ccm2_support::intern::Symbol,
        _sig: &ProcSig,
    ) {
    }
}

impl std::fmt::Debug for LocalHooks<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LocalHooks(tables = {:?})", self.sema.tables)
    }
}

/// Elaborates a type expression of `ast` in `scope`.
///
/// `forward` lists type names declared *later* in the same declaration
/// part; `POINTER TO`-references to them are created with a pending
/// pointee and patched by [`declare_decls`] once the target exists (the
/// only forward reference Modula-2 allows).
pub fn elaborate_type(
    sema: &Sema,
    scope: ScopeId,
    ast: &Ast,
    texpr: &TypeExpr,
    forward: &mut ForwardRefs,
) -> TypeId {
    sema.meter.charge(Work::DeclAnalyze, 1);
    let file = sema.tables.scope(scope).file();
    let err = |span: Span, msg: String| {
        sema.sink.report(Diagnostic::error(file, span, msg));
        TypeId::ERROR
    };
    match &texpr.kind {
        TypeExprKind::Named { module, name } => {
            if let Some(m) = module {
                // Qualified type name `Mod.T`.
                match sema.resolver.lookup(scope, m.name) {
                    Some(LookupResult::Entry(e)) => match e.kind {
                        SymbolKind::Module { scope: mscope } => {
                            match sema.resolver.lookup_qualified(mscope, name.name) {
                                Some(e) => match e.kind {
                                    SymbolKind::TypeName { ty } => ty,
                                    _ => err(
                                        name.span,
                                        format!(
                                            "`{}` is not a type",
                                            sema.interner.resolve(name.name)
                                        ),
                                    ),
                                },
                                None => err(
                                    name.span,
                                    format!(
                                        "`{}` is not exported by `{}`",
                                        sema.interner.resolve(name.name),
                                        sema.interner.resolve(m.name)
                                    ),
                                ),
                            }
                        }
                        _ => err(
                            m.span,
                            format!("`{}` is not a module", sema.interner.resolve(m.name)),
                        ),
                    },
                    _ => err(
                        m.span,
                        format!("undeclared module `{}`", sema.interner.resolve(m.name)),
                    ),
                }
            } else {
                match sema.resolver.lookup(scope, name.name) {
                    Some(LookupResult::Entry(e)) => match e.kind {
                        SymbolKind::TypeName { ty } => ty,
                        _ => err(
                            name.span,
                            format!("`{}` is not a type", sema.interner.resolve(name.name)),
                        ),
                    },
                    Some(LookupResult::Builtin(BuiltinDef::Type(ty))) => ty,
                    Some(LookupResult::Builtin(_)) => err(
                        name.span,
                        format!("`{}` is not a type", sema.interner.resolve(name.name)),
                    ),
                    None => err(
                        name.span,
                        format!("undeclared type `{}`", sema.interner.resolve(name.name)),
                    ),
                }
            }
        }
        TypeExprKind::Array { index, elem } => {
            let index = elaborate_type(sema, scope, ast, index, forward);
            let elem = elaborate_type(sema, scope, ast, elem, forward);
            if !sema.types.is_ordinal(index) {
                return err(texpr.span, "array index type must be ordinal".into());
            }
            sema.types.add(Type::Array { index, elem })
        }
        TypeExprKind::OpenArray { elem } => {
            let elem = elaborate_type(sema, scope, ast, elem, forward);
            sema.types.add(Type::OpenArray { elem })
        }
        TypeExprKind::Record { fields } => {
            let mut out = Vec::new();
            for section in fields {
                let ty = elaborate_type(sema, scope, ast, &section.ty, forward);
                for n in &section.names {
                    if out.iter().any(|(f, _)| *f == n.name) {
                        sema.sink.report(Diagnostic::error(
                            file,
                            n.span,
                            format!("duplicate record field `{}`", sema.interner.resolve(n.name)),
                        ));
                        continue;
                    }
                    out.push((n.name, ty));
                }
            }
            sema.types.add(Type::Record { fields: out })
        }
        TypeExprKind::Pointer { to } => {
            // `POINTER TO Name` may forward-reference a type declared
            // later in the same declaration part (the one forward
            // reference Modula-2 allows). With incremental declaration
            // the later names are unknowable, so every unqualified named
            // pointee is deferred: the pointer is created pending and
            // patched when the declaration part finishes.
            if let TypeExprKind::Named { module: None, name } = &to.kind {
                let ptr = sema.types.add_forward_pointer(scope);
                forward.add_patch(*name, ptr);
                return ptr;
            }
            let to = elaborate_type(sema, scope, ast, to, forward);
            sema.types.add(Type::Pointer { to })
        }
        TypeExprKind::Set { of } => {
            let of_id = elaborate_type(sema, scope, ast, of, forward);
            match sema.types.ordinal_bounds(of_id) {
                Some((lo, hi)) if lo >= 0 && hi <= 63 => sema.types.add(Type::Set { of: of_id }),
                Some(_) => err(texpr.span, "set base ordinals must lie in 0..63".into()),
                None => err(texpr.span, "set base type must be ordinal".into()),
            }
        }
        TypeExprKind::Enumeration { members } => {
            let ty = sema.types.add(Type::Enumeration {
                members: members.iter().map(|m| m.name).collect(),
            });
            // Enumeration constants are declared in the enclosing scope.
            for (ord, m) in members.iter().enumerate() {
                let entry = SymbolEntry {
                    name: m.name,
                    kind: SymbolKind::EnumConst {
                        ty,
                        value: ord as i64,
                    },
                    span: m.span,
                };
                if let Err(prev) = sema.tables.insert(scope, entry) {
                    report_redeclaration(sema, file, m.span, m.name, &prev);
                }
            }
            ty
        }
        TypeExprKind::Subrange { lo, hi } => {
            let lo_v = eval_const(sema, scope, ast, *lo);
            let hi_v = eval_const(sema, scope, ast, *hi);
            match (lo_v, hi_v) {
                (Some((lv, lt)), Some((hv, _))) => {
                    let (Some(l), Some(h)) = (lv.ordinal(), hv.ordinal()) else {
                        return err(texpr.span, "subrange bounds must be ordinal".into());
                    };
                    if l > h {
                        return err(texpr.span, "empty subrange".into());
                    }
                    let base = sema.types.strip_subrange(lt);
                    sema.types.add(Type::Subrange { base, lo: l, hi: h })
                }
                _ => TypeId::ERROR,
            }
        }
        TypeExprKind::ProcType { params, ret } => {
            let params = params
                .iter()
                .map(|(is_var, t)| (*is_var, elaborate_type(sema, scope, ast, t, forward)))
                .collect();
            let ret = ret
                .as_ref()
                .map(|t| elaborate_type(sema, scope, ast, t, forward));
            sema.types.add(Type::Proc { params, ret })
        }
    }
}

/// Deferred pointer-pointee patches: every `POINTER TO Name` with an
/// unqualified pointee is created pending and resolved when its
/// declaration part finishes (Modula-2's one legal forward reference).
#[derive(Debug, Default)]
pub struct ForwardRefs {
    patches: Vec<(ccm2_syntax::ast::Ident, TypeId)>,
}

impl ForwardRefs {
    fn add_patch(&mut self, name: ccm2_syntax::ast::Ident, ptr: TypeId) {
        self.patches.push((name, ptr));
    }
}

/// Resolves every deferred pointer patch in `forward` by looking the
/// pointee names up from `scope` (the table now holds everything the
/// declaration part declared). Reports undeclared pointees.
pub fn resolve_patches(sema: &Sema, scope: ScopeId, forward: &mut ForwardRefs) {
    let file = sema.tables.scope(scope).file();
    for (name, ptr) in forward.patches.drain(..) {
        let target = match sema.resolver.lookup(scope, name.name) {
            Some(LookupResult::Entry(e)) => match e.kind {
                SymbolKind::TypeName { ty } => Some(ty),
                _ => None,
            },
            Some(LookupResult::Builtin(BuiltinDef::Type(ty))) => Some(ty),
            _ => None,
        };
        match target {
            Some(ty) => sema.types.patch_pointer(ptr, ty),
            None => {
                sema.types.patch_pointer(ptr, TypeId::ERROR);
                sema.sink.report(Diagnostic::error(
                    file,
                    name.span,
                    format!(
                        "undeclared pointer target type `{}`",
                        sema.interner.resolve(name.name)
                    ),
                ));
            }
        }
    }
}

fn report_redeclaration(
    sema: &Sema,
    file: ccm2_support::source::FileId,
    span: Span,
    name: ccm2_support::intern::Symbol,
    _prev: &SymbolEntry,
) {
    sema.sink.report(Diagnostic::error(
        file,
        span,
        format!(
            "`{}` is already declared in this scope",
            sema.interner.resolve(name)
        ),
    ));
}

/// Elaborates a procedure heading of `ast` in `resolve_scope` (the
/// parent), giving its signature.
pub fn elaborate_heading(
    sema: &Sema,
    resolve_scope: ScopeId,
    ast: &Ast,
    heading: &ProcHeading,
) -> ProcSig {
    let mut forward = ForwardRefs::default();
    let mut params = Vec::new();
    for section in &heading.params {
        let ty = elaborate_type(sema, resolve_scope, ast, &section.ty, &mut forward);
        for _ in &section.names {
            params.push(ParamSig {
                is_var: section.is_var,
                ty,
            });
        }
    }
    let ret = heading
        .ret
        .as_ref()
        .map(|t| elaborate_type(sema, resolve_scope, ast, t, &mut forward));
    resolve_patches(sema, resolve_scope, &mut forward);
    ProcSig { params, ret }
}

/// Inserts the formal-parameter entries of `heading`, a heading of `ast`,
/// into `proc_scope`, with types resolved in `resolve_scope`.
///
/// Under [`HeadingMode::CopyToChild`] the parent calls this with
/// `resolve_scope` = parent; under [`HeadingMode::Reprocess`] the child
/// calls [`declare_own_params`], which resolves through its own chain —
/// producing identical entries because parameter slots are assigned in
/// declaration order either way.
pub fn declare_params_into(
    sema: &Sema,
    proc_scope: ScopeId,
    resolve_scope: ScopeId,
    ast: &Ast,
    heading: &ProcHeading,
) -> ProcSig {
    let table = sema.tables.scope(proc_scope);
    let file = table.file();
    let level = table.level();
    let mut forward = ForwardRefs::default();
    let mut params = Vec::new();
    for section in &heading.params {
        let ty = elaborate_type(sema, resolve_scope, ast, &section.ty, &mut forward);
        for n in &section.names {
            let slot = table.alloc_slot();
            params.push(ParamSig {
                is_var: section.is_var,
                ty,
            });
            let entry = SymbolEntry {
                name: n.name,
                kind: SymbolKind::Var(VarInfo {
                    ty,
                    slot,
                    level,
                    is_var_param: section.is_var,
                    module: None,
                }),
                span: n.span,
            };
            if let Err(prev) = sema.tables.insert(proc_scope, entry) {
                report_redeclaration(sema, file, n.span, n.name, &prev);
            }
        }
    }
    let ret = heading
        .ret
        .as_ref()
        .map(|t| elaborate_type(sema, resolve_scope, ast, t, &mut forward));
    resolve_patches(sema, resolve_scope, &mut forward);
    ProcSig { params, ret }
}

/// Child-side heading re-processing for [`HeadingMode::Reprocess`]
/// (§2.4 alternative 3): parameter types resolve through the child's own
/// ancestry chain.
pub fn declare_own_params(
    sema: &Sema,
    proc_scope: ScopeId,
    ast: &Ast,
    heading: &ProcHeading,
) -> ProcSig {
    // Resolving from the child's chain visits parent scopes — identical
    // results, duplicated effort (the paper measured ~3%).
    sema.meter
        .charge(Work::DeclAnalyze, 1 + heading.param_count() as u64);
    declare_params_into(sema, proc_scope, proc_scope, ast, heading)
}

/// The child's side of the §2.4 heading flow, run by a procedure's own
/// declaration analysis before its declarations: nothing under
/// [`HeadingMode::CopyToChild`], [`declare_own_params`] under
/// [`HeadingMode::Reprocess`].
pub fn child_heading(
    sema: &Sema,
    mode: HeadingMode,
    proc_scope: ScopeId,
    ast: &Ast,
    heading: &ProcHeading,
) {
    if mode == HeadingMode::Reprocess {
        declare_own_params(sema, proc_scope, ast, heading);
    }
}

/// Incremental declaration analysis for one scope: feed declarations as
/// they are parsed ([`Declarer::declare`], with the arena their
/// expressions are in), then [`Declarer::finish`].
/// This is what lets the concurrent compiler fire a procedure heading's
/// avoided event the moment the heading is parsed, long before the rest
/// of the enclosing scope has been (paper §3: fast processing of
/// declaration parts helps resolve DKY blockages early).
pub struct Declarer<'a> {
    sema: &'a Sema,
    scope: ScopeId,
    mode: HeadingMode,
    hooks: &'a dyn DeclareHooks,
    forward: ForwardRefs,
    pending: Vec<PendingProc>,
    code_prefix: String,
    scope_is_module: bool,
}

impl<'a> Declarer<'a> {
    /// Starts declaration analysis of `scope`.
    pub fn new(
        sema: &'a Sema,
        scope: ScopeId,
        mode: HeadingMode,
        hooks: &'a dyn DeclareHooks,
    ) -> Declarer<'a> {
        let table = sema.tables.scope(scope);
        Declarer {
            sema,
            scope,
            mode,
            hooks,
            forward: ForwardRefs::default(),
            pending: Vec::new(),
            code_prefix: code_prefix_of(sema, scope),
            scope_is_module: table.kind() != ScopeKind::Procedure,
        }
    }

    /// Processes one declaration of `ast`.
    pub fn declare(&mut self, ast: &Ast, decl: &Decl) {
        let sema = self.sema;
        let scope = self.scope;
        let table = sema.tables.scope(scope);
        let file = table.file();
        let module_name = table.name();
        sema.meter.charge(Work::DeclAnalyze, 1);
        match decl {
            Decl::Const { name, value } => {
                let entry = match eval_const(sema, scope, ast, *value) {
                    Some((v, ty)) => SymbolEntry {
                        name: name.name,
                        kind: SymbolKind::Const { value: v, ty },
                        span: name.span,
                    },
                    None => SymbolEntry {
                        name: name.name,
                        kind: SymbolKind::Const {
                            value: crate::value::ConstValue::Int(0),
                            ty: TypeId::ERROR,
                        },
                        span: name.span,
                    },
                };
                if let Err(prev) = sema.tables.insert(scope, entry) {
                    report_redeclaration(sema, file, name.span, name.name, &prev);
                }
            }
            Decl::Type { name, ty } => {
                let tid = match ty {
                    Some(texpr) => elaborate_type(sema, scope, ast, texpr, &mut self.forward),
                    None => sema.types.add(Type::Opaque { name: name.name }),
                };
                let entry = SymbolEntry {
                    name: name.name,
                    kind: SymbolKind::TypeName { ty: tid },
                    span: name.span,
                };
                if let Err(prev) = sema.tables.insert(scope, entry) {
                    report_redeclaration(sema, file, name.span, name.name, &prev);
                }
            }
            Decl::Var { names, ty } => {
                let tid = elaborate_type(sema, scope, ast, ty, &mut self.forward);
                for n in names {
                    let slot = table.alloc_slot();
                    let entry = SymbolEntry {
                        name: n.name,
                        kind: SymbolKind::Var(VarInfo {
                            ty: tid,
                            slot,
                            level: table.level(),
                            is_var_param: false,
                            module: self.scope_is_module.then_some(module_name),
                        }),
                        span: n.span,
                    };
                    if let Err(prev) = sema.tables.insert(scope, entry) {
                        report_redeclaration(sema, file, n.span, n.name, &prev);
                    }
                }
            }
            Decl::Procedure(p) => {
                let name = p.heading.name;
                let code_name = sema.interner.intern(&format!(
                    "{}.{}",
                    self.code_prefix,
                    sema.interner.as_str(name.name)
                ));
                // Identify / create the child scope.
                let child = match &p.body {
                    ProcBody::Remote(stream) => Some(self.hooks.scope_for_stream(*stream)),
                    ProcBody::Local(_) => Some(sema.tables.new_scope(
                        ScopeKind::Procedure,
                        name.name,
                        Some(scope),
                        file,
                    )),
                    ProcBody::HeadingOnly => None,
                };
                // Elaborate the heading in the parent scope; under
                // CopyToChild also populate the child's parameter entries.
                let sig = match (child, self.mode) {
                    (Some(child), HeadingMode::CopyToChild) => {
                        declare_params_into(sema, child, scope, ast, &p.heading)
                    }
                    _ => elaborate_heading(sema, scope, ast, &p.heading),
                };
                let level = child.map(|c| sema.tables.scope(c).level()).unwrap_or(1);
                let entry = SymbolEntry {
                    name: name.name,
                    kind: SymbolKind::Proc(ProcInfo {
                        sig: sig.clone(),
                        code_name,
                        level,
                    }),
                    span: name.span,
                };
                if let Err(prev) = sema.tables.insert(scope, entry) {
                    report_redeclaration(sema, file, name.span, name.name, &prev);
                }
                if let Some(child) = child {
                    // The child's avoided event: its tasks may now start
                    // (§2.4 — "delay processing the child scope until the
                    // parent scope had completely processed the heading").
                    self.hooks.heading_done(child, code_name, &sig);
                    self.pending.push(PendingProc {
                        heading: p.heading.clone(),
                        body: p.body.clone(),
                        scope: child,
                        code_name,
                        sig,
                    });
                }
            }
        }
    }

    /// Finishes the declaration part: resolves deferred pointer patches
    /// and returns the procedures found (in declaration order). Does
    /// **not** mark the scope complete — the caller does that.
    pub fn finish(mut self) -> Vec<PendingProc> {
        resolve_patches(self.sema, self.scope, &mut self.forward);
        self.pending
    }
}

/// Batch form of [`Declarer`]: processes a complete declaration list of
/// `ast`.
pub fn declare_decls(
    sema: &Sema,
    scope: ScopeId,
    ast: &Ast,
    decls: &[Decl],
    mode: HeadingMode,
    hooks: &dyn DeclareHooks,
) -> Vec<PendingProc> {
    let mut d = Declarer::new(sema, scope, mode, hooks);
    for decl in decls {
        d.declare(ast, decl);
    }
    d.finish()
}

/// Binds a module's import list into its scope: `IMPORT A;` inserts a
/// [`SymbolKind::Module`] entry, `FROM A IMPORT x;` inserts
/// [`SymbolKind::Alias`] entries (searched in the exporting scope as an
/// "other" initial scope, per Table 2).
///
/// `module_scope_of` maps a module name to its interface scope — the
/// driver's once-only table (§3) backs this in the concurrent compiler.
pub fn bind_imports(
    sema: &Sema,
    scope: ScopeId,
    imports: &[ccm2_syntax::ast::Import],
    module_scope_of: &dyn Fn(ccm2_support::intern::Symbol) -> Option<ScopeId>,
) {
    let file = sema.tables.scope(scope).file();
    for imp in imports {
        let module = imp.module();
        let Some(mscope) = module_scope_of(module.name) else {
            sema.sink.report(Diagnostic::error(
                file,
                module.span,
                format!(
                    "cannot find definition module `{}`",
                    sema.interner.resolve(module.name)
                ),
            ));
            continue;
        };
        match imp {
            ccm2_syntax::ast::Import::Whole { module } => {
                let entry = SymbolEntry {
                    name: module.name,
                    kind: SymbolKind::Module { scope: mscope },
                    span: module.span,
                };
                if let Err(prev) = sema.tables.insert(scope, entry) {
                    // Importing the same module twice is tolerated.
                    if !matches!(prev.kind, SymbolKind::Module { .. }) {
                        report_redeclaration(sema, file, module.span, module.name, &prev);
                    }
                }
            }
            ccm2_syntax::ast::Import::From { names, .. } => {
                for n in names {
                    let entry = SymbolEntry {
                        name: n.name,
                        kind: SymbolKind::Alias {
                            from_scope: mscope,
                            name: n.name,
                        },
                        span: n.span,
                    };
                    if let Err(prev) = sema.tables.insert(scope, entry) {
                        if !matches!(prev.kind, SymbolKind::Alias { .. }) {
                            report_redeclaration(sema, file, n.span, n.name, &prev);
                        }
                    }
                }
            }
        }
    }
}

/// The dotted code-name prefix for procedures declared in `scope`
/// (the scope's own dotted path).
pub fn code_prefix_of(sema: &Sema, scope: ScopeId) -> String {
    let chain = sema.tables.ancestry(scope);
    let mut parts: Vec<&str> = chain
        .iter()
        .map(|s| sema.interner.as_str(sema.tables.scope(*s).name()))
        .collect();
    parts.reverse();
    parts.join(".")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symtab::{DkyStrategy, NullWaiter};
    use ccm2_support::diag::DiagnosticSink;
    use ccm2_support::intern::Interner;
    use ccm2_support::source::{FileId, SourceMap};
    use ccm2_support::work::NullMeter;
    use ccm2_syntax::lexer::lex_file;
    use ccm2_syntax::parser::parse_implementation;
    use std::sync::Arc;

    fn setup(src: &str) -> (Sema, ScopeId, Arc<Ast>, Vec<Decl>, Arc<DiagnosticSink>) {
        let interner = Arc::new(Interner::new());
        let sink = Arc::new(DiagnosticSink::new());
        let sema = Sema::new(
            Arc::clone(&interner),
            Arc::clone(&sink),
            DkyStrategy::Skeptical,
            Arc::new(NullWaiter),
            Arc::new(NullMeter),
        );
        let map = SourceMap::new();
        let f = map.add("M.mod", src);
        let toks = lex_file(&f, &interner, &sink);
        let m = parse_implementation(&toks, &interner, &sink).expect("parses");
        let scope = sema
            .tables
            .new_scope(ScopeKind::MainModule, m.name.name, None, FileId(0));
        (sema, scope, m.body.ast, m.decls, sink)
    }

    fn lookup_kind(sema: &Sema, scope: ScopeId, name: &str) -> SymbolKind {
        let sym = sema.interner.intern(name);
        match sema.resolver.lookup(scope, sym) {
            Some(LookupResult::Entry(e)) => e.kind,
            other => panic!("lookup {name}: {other:?}"),
        }
    }

    #[test]
    fn consts_types_vars_declared() {
        let (sema, scope, ast, decls, sink) = setup(
            "IMPLEMENTATION MODULE M; \
             CONST n = 3; \
             TYPE Vec = ARRAY [1..n] OF REAL; \
             VAR v : Vec; k : INTEGER; \
             BEGIN END M.",
        );
        let hooks = LocalHooks::new(&sema);
        let pending = declare_decls(&sema, scope, &ast, &decls, HeadingMode::CopyToChild, &hooks);
        sema.tables.mark_complete(scope);
        assert!(pending.is_empty());
        assert!(!sink.has_errors(), "{:?}", sink.snapshot());
        assert!(matches!(
            lookup_kind(&sema, scope, "n"),
            SymbolKind::Const { .. }
        ));
        let SymbolKind::TypeName { ty } = lookup_kind(&sema, scope, "Vec") else {
            panic!()
        };
        let Type::Array { index, .. } = *sema.types.get(ty) else {
            panic!()
        };
        assert_eq!(sema.types.ordinal_bounds(index), Some((1, 3)));
        let SymbolKind::Var(v) = lookup_kind(&sema, scope, "k") else {
            panic!()
        };
        assert_eq!(v.slot, 1, "v got slot 0, k slot 1");
        assert!(v.module.is_some(), "module-level var is global");
    }

    #[test]
    fn enumeration_members_enter_scope() {
        let (sema, scope, ast, decls, sink) =
            setup("IMPLEMENTATION MODULE M; TYPE Color = (red, green, blue); BEGIN END M.");
        let hooks = LocalHooks::new(&sema);
        declare_decls(&sema, scope, &ast, &decls, HeadingMode::CopyToChild, &hooks);
        sema.tables.mark_complete(scope);
        assert!(!sink.has_errors());
        let SymbolKind::EnumConst { value, .. } = lookup_kind(&sema, scope, "green") else {
            panic!()
        };
        assert_eq!(value, 1);
    }

    #[test]
    fn forward_pointer_patched() {
        let (sema, scope, ast, decls, sink) = setup(
            "IMPLEMENTATION MODULE M; \
             TYPE P = POINTER TO Node; \
                  Node = RECORD next : P; val : INTEGER END; \
             BEGIN END M.",
        );
        let hooks = LocalHooks::new(&sema);
        declare_decls(&sema, scope, &ast, &decls, HeadingMode::CopyToChild, &hooks);
        sema.tables.mark_complete(scope);
        assert!(!sink.has_errors(), "{:?}", sink.snapshot());
        let SymbolKind::TypeName { ty: p } = lookup_kind(&sema, scope, "P") else {
            panic!()
        };
        let Type::Pointer { to } = *sema.types.get(p) else {
            panic!()
        };
        assert!(matches!(*sema.types.get(to), Type::Record { .. }));
    }

    #[test]
    fn never_declared_forward_pointer_reports() {
        let (sema, scope, ast, decls, sink) =
            setup("IMPLEMENTATION MODULE M; TYPE P = POINTER TO Ghost; BEGIN END M.");
        // `Ghost` is not in the forward set (no TYPE Ghost), so this is an
        // undeclared-type error rather than a patch failure.
        let hooks = LocalHooks::new(&sema);
        declare_decls(&sema, scope, &ast, &decls, HeadingMode::CopyToChild, &hooks);
        assert!(sink.has_errors());
    }

    #[test]
    fn procedure_headings_copy_params_to_child() {
        let (sema, scope, ast, decls, sink) = setup(
            "IMPLEMENTATION MODULE M; \
             PROCEDURE Add(a, b : INTEGER; VAR out : INTEGER); \
             BEGIN out := a + b END Add; \
             BEGIN END M.",
        );
        let hooks = LocalHooks::new(&sema);
        let pending = declare_decls(&sema, scope, &ast, &decls, HeadingMode::CopyToChild, &hooks);
        sema.tables.mark_complete(scope);
        assert!(!sink.has_errors(), "{:?}", sink.snapshot());
        assert_eq!(pending.len(), 1);
        let p = &pending[0];
        assert_eq!(sema.interner.resolve(p.code_name), "M.Add");
        assert_eq!(p.sig.params.len(), 3);
        assert!(p.sig.params[2].is_var);
        // Child scope already holds the parameters (alternative 1).
        let child = sema.tables.scope(p.scope);
        assert_eq!(child.len(), 3);
        assert_eq!(child.slot_count(), 3);
        let SymbolKind::Var(a) = lookup_kind(&sema, p.scope, "a") else {
            panic!()
        };
        assert_eq!(a.slot, 0);
        assert_eq!(a.level, 1);
        assert!(!a.is_var_param);
    }

    #[test]
    fn reprocess_mode_defers_param_entry_to_child() {
        let (sema, scope, ast, decls, sink) = setup(
            "IMPLEMENTATION MODULE M; \
             PROCEDURE Inc(VAR x : INTEGER); BEGIN x := x + 1 END Inc; \
             BEGIN END M.",
        );
        let hooks = LocalHooks::new(&sema);
        let pending = declare_decls(&sema, scope, &ast, &decls, HeadingMode::Reprocess, &hooks);
        assert!(!sink.has_errors());
        let p = &pending[0];
        assert!(
            sema.tables.scope(p.scope).is_empty(),
            "child empty before reprocess"
        );
        // Child side re-elaborates (alternative 3).
        let sig = declare_own_params(&sema, p.scope, &ast, &p.heading);
        assert_eq!(sig, p.sig);
        assert_eq!(sema.tables.scope(p.scope).len(), 1);
    }

    #[test]
    fn heading_mode_cache_tags_are_distinct_and_stable() {
        assert_eq!(HeadingMode::CopyToChild.cache_tag(), 0);
        assert_eq!(HeadingMode::Reprocess.cache_tag(), 1);
    }

    #[test]
    fn nested_procedure_code_names_are_dotted() {
        let (sema, scope, ast, decls, sink) = setup(
            "IMPLEMENTATION MODULE M; \
             PROCEDURE Outer; \
               PROCEDURE Inner; BEGIN END Inner; \
             BEGIN END Outer; \
             BEGIN END M.",
        );
        let hooks = LocalHooks::new(&sema);
        let pending = declare_decls(&sema, scope, &ast, &decls, HeadingMode::CopyToChild, &hooks);
        assert!(!sink.has_errors());
        let outer = &pending[0];
        let ccm2_syntax::ast::ProcBody::Local(local) = &outer.body else {
            panic!()
        };
        let inner_pending = declare_decls(
            &sema,
            outer.scope,
            &ast,
            &local.decls,
            HeadingMode::CopyToChild,
            &hooks,
        );
        assert_eq!(
            sema.interner.resolve(inner_pending[0].code_name),
            "M.Outer.Inner"
        );
        assert_eq!(sema.tables.scope(inner_pending[0].scope).level(), 2);
    }

    #[test]
    fn redeclaration_reports_error() {
        let (sema, scope, ast, decls, sink) =
            setup("IMPLEMENTATION MODULE M; CONST x = 1; VAR x : INTEGER; BEGIN END M.");
        let hooks = LocalHooks::new(&sema);
        declare_decls(&sema, scope, &ast, &decls, HeadingMode::CopyToChild, &hooks);
        assert!(sink.has_errors());
    }

    #[test]
    fn set_of_out_of_range_base_reports() {
        let (sema, scope, ast, decls, sink) =
            setup("IMPLEMENTATION MODULE M; TYPE S = SET OF [0..100]; BEGIN END M.");
        let hooks = LocalHooks::new(&sema);
        declare_decls(&sema, scope, &ast, &decls, HeadingMode::CopyToChild, &hooks);
        assert!(sink.has_errors());
    }

    #[test]
    fn opaque_types_from_definition_modules() {
        let (sema, scope, ast, _, _) = setup("IMPLEMENTATION MODULE M; BEGIN END M.");
        let name = sema.interner.intern("T");
        let decls = vec![Decl::Type {
            name: ccm2_syntax::ast::Ident {
                name,
                span: Span::default(),
            },
            ty: None,
        }];
        let hooks = LocalHooks::new(&sema);
        declare_decls(&sema, scope, &ast, &decls, HeadingMode::CopyToChild, &hooks);
        let SymbolKind::TypeName { ty } = lookup_kind(&sema, scope, "T") else {
            panic!()
        };
        assert!(matches!(*sema.types.get(ty), Type::Opaque { .. }));
    }
}
