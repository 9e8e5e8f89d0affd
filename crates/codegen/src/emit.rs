//! Statement semantic analysis + code generation.
//!
//! Paper §3 uses an unorthodox task division: one task parses a stream and
//! analyzes *declarations*; a second task performs semantic analysis of
//! *statements* and then generates code, fused, because by the time
//! statement work is ready there are plenty of parallel tasks. This module
//! is that second task's body: it walks statement ASTs, resolves names
//! through the concurrent symbol tables (participating in DKY handling and
//! the Table 2 statistics), type-checks, and emits M-code. Each
//! identifier of a statement is looked up once: a designator's leading
//! name — or `Module.name` — is classified into a `Head`, and its
//! address, its value or the call it names is emitted from that.
//!
//! The same code serves the sequential compiler — symbol tables are simply
//! always complete there.

use ccm2_support::diag::Diagnostic;
use ccm2_support::ids::ScopeId;
use ccm2_support::intern::Symbol;
use ccm2_support::source::Span;
use ccm2_support::work::Work;

use ccm2_sema::builtins::{Builtin, BuiltinDef};
use ccm2_sema::consteval::{eval_const, min_max};
use ccm2_sema::symtab::{
    LookupResult, ProcInfo, ProcSig, ScopeTable, SymbolEntry, SymbolKind, VarInfo,
};
use ccm2_sema::types::{Type, TypeId};
use ccm2_sema::value::ConstValue;
use ccm2_sema::Sema;
use ccm2_syntax::ast::{
    Ast, BinOp, Body, CaseArm, Expr, ExprId, ExprKind, Ident, Label, List, Stmt, StmtKind, UnOp,
};

use crate::ir::{CodeUnit, Instr, Shape};
use crate::shape::shape_of;

/// Generates the code unit for one procedure whose scope has already been
/// fully declared (parameters and locals present in the symbol table).
pub fn gen_procedure(
    sema: &Sema,
    scope: ScopeId,
    code_name: Symbol,
    sig: &ProcSig,
    body: &Body,
) -> CodeUnit {
    let table = sema.tables.scope(scope);
    let mut e = Emitter::new(sema, &body.ast, scope, code_name, table.level(), sig.ret);
    e.init_frame_from_scope(table);
    e.unit.param_count = sig.params.len() as u32;
    e.stmts(body.stmts);
    // Fall-off-the-end: functions return a default value, proper
    // procedures just return.
    match sig.ret {
        Some(_) => {
            e.emit(Instr::PushInt(0));
            e.emit(Instr::ReturnValue);
        }
        None => {
            e.emit(Instr::Return);
        }
    }
    e.finish()
}

/// Generates the module-body code unit. Module-level variables live in
/// the global area, so the unit's frame holds only compiler temporaries.
pub fn gen_module_body(sema: &Sema, scope: ScopeId, module_name: Symbol, body: &Body) -> CodeUnit {
    let mut e = Emitter::new(sema, &body.ast, scope, module_name, 0, None);
    e.stmts(body.stmts);
    e.emit(Instr::Halt);
    e.finish()
}

/// Generates the deterministic *error unit* standing in for a stream
/// whose body the parser had to recover (a poisoned body): same shape as
/// the fault-degradation stub, so downstream merge/splice treat it like
/// any other unit. Never cached — the clean-compile gate keeps error
/// diagnostics (and therefore these units) out of the incremental store.
pub fn gen_error_unit(
    interner: &ccm2_support::intern::Interner,
    code_name: Symbol,
    level: u32,
) -> CodeUnit {
    let mut unit = CodeUnit::new(code_name, level);
    let msg = interner.intern(&format!(
        "degraded: unit `{}` has syntax errors",
        interner.resolve(code_name)
    ));
    unit.code = vec![Instr::PushStr(msg), Instr::Return];
    unit
}

/// Whether `unit` is an error unit produced by [`gen_error_unit`].
pub fn is_error_unit(unit: &CodeUnit, interner: &ccm2_support::intern::Interner) -> bool {
    matches!(
        unit.code.as_slice(),
        [Instr::PushStr(msg), Instr::Return]
            if interner.as_str(*msg).starts_with("degraded: unit `")
    )
}

/// The shapes of a module scope's global-variable area, in slot order
/// (input to [`crate::merge::Merger::add_globals`]).
pub fn global_shapes(sema: &Sema, scope: ScopeId) -> Vec<Shape> {
    let table = sema.tables.scope(scope);
    let mut slots: Vec<(u32, Shape)> = table
        .entries_sorted()
        .into_iter()
        .filter_map(|e| match e.kind {
            SymbolKind::Var(v) if v.module.is_some() => Some((v.slot, shape_of(&sema.types, v.ty))),
            _ => None,
        })
        .collect();
    slots.sort_by_key(|(s, _)| *s);
    slots.into_iter().map(|(_, s)| s).collect()
}

struct WithBinding {
    record_ty: TypeId,
    slot: u32,
}

/// What the one lookup of a designator's leading name found — or, when
/// that name is a module and `.name` follows, what the lookup of `name`
/// in the module found.
enum Head {
    /// A field of an active WITH record, reached through its binding's
    /// address temp.
    With { slot: u32, field: u32, ty: TypeId },
    /// A declared entry; `qualified` if it was named as `Module.name`.
    Entry { entry: SymbolEntry, qualified: bool },
    /// A pervasive builtin.
    Builtin(BuiltinDef),
    /// Nothing: an undeclared name, or (`qualified`) one its module does
    /// not export. Reported where it is used.
    Missing { name: Symbol, qualified: bool },
}

struct Emitter<'a> {
    sema: &'a Sema,
    /// The arena of the statements emitted.
    ast: &'a Ast,
    scope: ScopeId,
    level: u32,
    ret_ty: Option<TypeId>,
    unit: CodeUnit,
    next_slot: u32,
    with_stack: Vec<WithBinding>,
    loop_exits: Vec<Vec<usize>>,
    file: ccm2_support::source::FileId,
}

impl<'a> Emitter<'a> {
    fn new(
        sema: &'a Sema,
        ast: &'a Ast,
        scope: ScopeId,
        code_name: Symbol,
        level: u32,
        ret_ty: Option<TypeId>,
    ) -> Emitter<'a> {
        let file = sema.tables.scope(scope).file();
        Emitter {
            sema,
            ast,
            scope,
            level,
            ret_ty,
            unit: CodeUnit::new(code_name, level),
            next_slot: 0,
            with_stack: Vec::new(),
            loop_exits: Vec::new(),
            file,
        }
    }

    /// Builds the frame layout from the scope's variable entries
    /// (parameters and locals, in slot order).
    fn init_frame_from_scope(&mut self, table: &ScopeTable) {
        let mut slots: Vec<(u32, Shape)> = table
            .entries_sorted()
            .into_iter()
            .filter_map(|e| match e.kind {
                SymbolKind::Var(v) if v.module.is_none() && v.level == self.level => {
                    let shape = if v.is_var_param {
                        Shape::Addr
                    } else {
                        shape_of(&self.sema.types, v.ty)
                    };
                    Some((v.slot, shape))
                }
                _ => None,
            })
            .collect();
        slots.sort_by_key(|(s, _)| *s);
        self.unit.frame = slots.into_iter().map(|(_, s)| s).collect();
        self.next_slot = self.unit.frame.len() as u32;
    }

    fn finish(self) -> CodeUnit {
        self.unit
    }

    // ----- low-level helpers ---------------------------------------------

    fn emit(&mut self, ins: Instr) -> usize {
        self.sema.meter.charge(Work::CodeGen, 1);
        self.unit.code.push(ins);
        self.unit.code.len() - 1
    }

    fn here(&self) -> u32 {
        self.unit.code.len() as u32
    }

    fn patch_jump(&mut self, at: usize, target: u32) {
        match self.unit.code.get_mut(at) {
            Some(Instr::Jump(t)) | Some(Instr::JumpIfFalse(t)) | Some(Instr::JumpIfTrue(t)) => {
                *t = target
            }
            other => {
                // An emitter bug, not a user error — but a diagnostic (and
                // a suppressed image) beats tearing down the whole
                // concurrent compile from one codegen task.
                let what = format!("internal error: patching non-jump instruction {other:?}");
                self.error(Span { lo: 0, hi: 0 }, what);
            }
        }
    }

    fn alloc_temp(&mut self, shape: Shape) -> u32 {
        let slot = self.next_slot;
        self.next_slot += 1;
        self.unit.frame.push(shape);
        slot
    }

    fn error(&self, span: Span, msg: impl Into<String>) {
        self.sema
            .sink
            .report(Diagnostic::error(self.file, span, msg));
    }

    fn resolve(&self, name: Symbol) -> Option<LookupResult> {
        self.sema.resolver.lookup(self.scope, name)
    }

    /// Field index and type within a record type.
    fn field_of(&self, record: TypeId, name: Symbol) -> Option<(u32, TypeId)> {
        match *self.sema.types.get(record) {
            Type::Record { ref fields } => fields
                .iter()
                .position(|(f, _)| *f == name)
                .map(|ix| (ix as u32, fields[ix].1)),
            _ => None,
        }
    }

    // ----- designators ----------------------------------------------------

    /// The one lookup of `name`: a field of an active WITH binding — the
    /// innermost wins, as the language requires, and counts in Table 2's
    /// WITH row — before the scope chain.
    fn head(&self, name: Symbol) -> Head {
        for b in self.with_stack.iter().rev() {
            if let Some((field, ty)) = self.field_of(b.record_ty, name) {
                self.sema.resolver.record_with_hit();
                return Head::With {
                    slot: b.slot,
                    field,
                    ty,
                };
            }
        }
        self.scope_head(name)
    }

    /// The lookup of `name` in the scope chain alone.
    fn scope_head(&self, name: Symbol) -> Head {
        match self.resolve(name) {
            Some(LookupResult::Entry(entry)) => Head::Entry {
                entry,
                qualified: false,
            },
            Some(LookupResult::Builtin(def)) => Head::Builtin(def),
            None => Head::Missing {
                name,
                qualified: false,
            },
        }
    }

    /// The step from `Module` to `Module.field`: if `head` is a module,
    /// the lookup of `field` in it; `None`, with nothing looked up, if it
    /// is not.
    fn qualified(&self, head: &Head, field: Ident) -> Option<Head> {
        let Head::Entry {
            entry:
                SymbolEntry {
                    kind: SymbolKind::Module { scope },
                    ..
                },
            ..
        } = head
        else {
            return None;
        };
        Some(
            match self.sema.resolver.lookup_qualified(*scope, field.name) {
                Some(entry) => Head::Entry {
                    entry,
                    qualified: true,
                },
                None => Head::Missing {
                    name: field.name,
                    qualified: true,
                },
            },
        )
    }

    /// Reports a [`Head::Missing`] name at `span`.
    fn missing(&self, name: Symbol, qualified: bool, span: Span) -> TypeId {
        let name = self.sema.interner.resolve(name);
        self.error(
            span,
            if qualified {
                format!("`{name}` is not exported")
            } else {
                format!("undeclared identifier `{name}`")
            },
        );
        TypeId::ERROR
    }

    /// Emits the address of variable `v`.
    fn var_addr(&mut self, v: &VarInfo) -> TypeId {
        if let Some(module) = v.module {
            self.emit(Instr::PushGlobalAddr {
                module,
                slot: v.slot,
            });
        } else {
            let level_up = self.level.saturating_sub(v.level);
            self.emit(Instr::PushAddr {
                level_up,
                slot: v.slot,
            });
            if v.is_var_param {
                // The slot holds the caller-supplied address.
                self.emit(Instr::Load);
            }
        }
        v.ty
    }

    /// Emits what `head` denotes — its address, or with `value` its value
    /// — and returns its type. A head that has no such thing is reported
    /// at `span`.
    fn emit_head(&mut self, head: &Head, span: Span, value: bool) -> TypeId {
        let msg = match head {
            Head::With { slot, field, ty } => {
                self.emit(Instr::PushAddr {
                    level_up: 0,
                    slot: *slot,
                });
                self.emit(Instr::Load);
                self.emit(Instr::AddrField(*field));
                if value {
                    self.emit(Instr::Load);
                }
                return *ty;
            }
            Head::Entry { entry, qualified } => match (&entry.kind, value) {
                (SymbolKind::Var(v), _) => {
                    let ty = self.var_addr(v);
                    if value {
                        self.emit(Instr::Load);
                    }
                    return ty;
                }
                (SymbolKind::Const { value, ty }, true) => {
                    self.push_const(*value);
                    return *ty;
                }
                (SymbolKind::EnumConst { ty, value }, true) => {
                    self.emit(Instr::PushInt(*value));
                    return *ty;
                }
                (SymbolKind::Proc(p), true) => {
                    // A procedure used as a value.
                    let ty = self.sema.types.add(Type::Proc {
                        params: p.sig.params.iter().map(|q| (q.is_var, q.ty)).collect(),
                        ret: p.sig.ret,
                    });
                    self.emit(Instr::PushProc(p.code_name));
                    return ty;
                }
                (_, true) if *qualified => "qualified name is not a value".to_string(),
                (_, true) => "name is not a value".to_string(),
                (_, false) if *qualified => "qualified name is not a variable".to_string(),
                (_, false) => format!(
                    "`{}` is not a variable",
                    self.sema.interner.resolve(entry.name)
                ),
            },
            Head::Builtin(BuiltinDef::Const(v, ty)) if value => {
                self.push_const(*v);
                return *ty;
            }
            Head::Builtin(_) if value => "builtin needs a call or type context".to_string(),
            Head::Builtin(_) => "builtin is not a variable".to_string(),
            Head::Missing { name, qualified } => return self.missing(*name, *qualified, span),
        };
        self.error(span, msg);
        TypeId::ERROR
    }

    /// Emits code leaving the *address* of a designator on the stack;
    /// returns the designated type.
    fn designator_addr(&mut self, e: &Expr) -> TypeId {
        self.designator(e, None, false)
    }

    /// Emits the address of designator `e` — or, with `value`, its value —
    /// and returns its type. Its leading name is looked up once: here, or
    /// by the caller, who passes what it found as `head`.
    fn designator(&mut self, e: &Expr, head: Option<Head>, value: bool) -> TypeId {
        self.sema.meter.charge(Work::StmtAnalyze, 1);
        let ast = self.ast;
        let ty = match e.kind {
            ExprKind::Name(id) => {
                let head = head.unwrap_or_else(|| self.head(id.name));
                return self.emit_head(&head, e.span, value);
            }
            ExprKind::Field { base, field } => {
                let base = &ast[base];
                let base_ty = match base.kind {
                    ExprKind::Name(id) => {
                        let head = head.unwrap_or_else(|| self.head(id.name));
                        if let Some(qualified) = self.qualified(&head, field) {
                            return self.emit_head(&qualified, e.span, value);
                        }
                        self.emit_head(&head, base.span, false)
                    }
                    _ => self.designator_addr(base),
                };
                match self.field_of(base_ty, field.name) {
                    Some((ix, fty)) => {
                        self.emit(Instr::AddrField(ix));
                        fty
                    }
                    None if base_ty == TypeId::ERROR => TypeId::ERROR,
                    None => {
                        self.error(
                            field.span,
                            format!(
                                "no field `{}` in this record",
                                self.sema.interner.resolve(field.name)
                            ),
                        );
                        TypeId::ERROR
                    }
                }
            }
            ExprKind::Index { base, indices } => self.index_addr(&ast[base], &ast[indices]),
            ExprKind::Deref { base } => {
                let base = &ast[base];
                let ty = self.sema.types.strip_subrange(self.designator_addr(base));
                match self.sema.pointee(ty) {
                    Some(to) => {
                        self.emit(Instr::AddrDeref);
                        to
                    }
                    None => {
                        if *self.sema.types.get(ty) != Type::Error {
                            self.error(base.span, "dereferencing a non-pointer");
                        }
                        TypeId::ERROR
                    }
                }
            }
            _ => {
                self.error(e.span, "expression is not a designator");
                return TypeId::ERROR;
            }
        };
        // A selected component's value is loaded even when selecting it
        // failed.
        if value {
            self.emit(Instr::Load);
        }
        ty
    }

    /// Emits the address of `base[indices]`; returns the element type.
    fn index_addr(&mut self, base: &Expr, indices: &[ExprId]) -> TypeId {
        let mut ty = self.designator_addr(base);
        for &ix in indices {
            let ix_expr = &self.ast[ix];
            match *self.sema.types.get(self.sema.types.strip_subrange(ty)) {
                Type::Array { index, elem } => {
                    let ixt = self.expr(ix_expr);
                    if !self.sema.types.same_type(
                        self.sema.types.strip_subrange(ixt),
                        self.sema.types.strip_subrange(index),
                    ) {
                        self.error(ix_expr.span, "index type mismatch");
                    }
                    let (lo, hi) = self.sema.types.ordinal_bounds(index).unwrap_or((0, -1));
                    self.emit(Instr::AddrIndex {
                        lo,
                        len: hi - lo + 1,
                    });
                    ty = elem;
                }
                Type::OpenArray { elem } => {
                    let _ = self.expr(ix_expr);
                    // Dynamic extent: the VM checks against the actual
                    // array length.
                    self.emit(Instr::AddrIndex { lo: 0, len: -1 });
                    ty = elem;
                }
                Type::Error => return TypeId::ERROR,
                _ => {
                    self.error(base.span, "indexing a non-array");
                    return TypeId::ERROR;
                }
            }
        }
        ty
    }

    // ----- expressions -----------------------------------------------------

    fn push_const(&mut self, v: ConstValue) {
        match v {
            ConstValue::Int(x) => self.emit(Instr::PushInt(x)),
            ConstValue::Real(bits) => self.emit(Instr::PushReal(bits)),
            ConstValue::Bool(b) => self.emit(Instr::PushBool(b)),
            ConstValue::Char(c) => self.emit(Instr::PushChar(c)),
            ConstValue::Str(s) => self.emit(Instr::PushStr(s)),
            ConstValue::Set(m) => self.emit(Instr::PushSet(m)),
            ConstValue::Nil => self.emit(Instr::PushNil),
        };
    }

    /// Emits code leaving the expression's *value* on the stack; returns
    /// its type.
    fn expr(&mut self, e: &Expr) -> TypeId {
        self.sema.meter.charge(Work::StmtAnalyze, 1);
        let ast = self.ast;
        match e.kind {
            ExprKind::IntLit(v) => {
                self.emit(Instr::PushInt(v));
                TypeId::INTEGER
            }
            ExprKind::RealLit(bits) => {
                self.emit(Instr::PushReal(bits));
                TypeId::REAL
            }
            ExprKind::CharLit(c) => {
                self.emit(Instr::PushChar(c));
                TypeId::CHAR
            }
            ExprKind::StrLit(s) => {
                self.emit(Instr::PushStr(s));
                TypeId::STRING
            }
            ExprKind::Name(_)
            | ExprKind::Field { .. }
            | ExprKind::Index { .. }
            | ExprKind::Deref { .. } => self.designator(e, None, true),
            ExprKind::Call { callee, args } => self.call(&ast[callee], &ast[args], e.span, false),
            ExprKind::Unary { op, operand } => {
                let ty = self.expr(&ast[operand]);
                match op {
                    UnOp::Neg => {
                        if !(self.sema.types.is_integerlike(ty) || ty == TypeId::REAL) {
                            self.error(e.span, "negation needs a numeric operand");
                        }
                        self.emit(Instr::Neg);
                        ty
                    }
                    UnOp::Pos => ty,
                    UnOp::Not => {
                        if self.sema.types.strip_subrange(ty) != TypeId::BOOLEAN
                            && ty != TypeId::ERROR
                        {
                            self.error(e.span, "NOT needs a BOOLEAN operand");
                        }
                        self.emit(Instr::Not);
                        TypeId::BOOLEAN
                    }
                }
            }
            ExprKind::Binary { op, lhs, rhs } => self.binary(op, &ast[lhs], &ast[rhs], e.span),
            ExprKind::SetCons { of_type, elems } => self.set_cons(of_type, &ast[elems], e.span),
        }
    }

    fn binary(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr, span: Span) -> TypeId {
        // Short-circuit forms first.
        match op {
            BinOp::And => {
                let lt = self.expr(lhs);
                self.check_bool(lt, lhs.span);
                let jf = self.emit(Instr::JumpIfFalse(0));
                let rt = self.expr(rhs);
                self.check_bool(rt, rhs.span);
                let jend = self.emit(Instr::Jump(0));
                let f = self.here();
                self.emit(Instr::PushBool(false));
                let end = self.here();
                self.patch_jump(jf, f);
                self.patch_jump(jend, end);
                return TypeId::BOOLEAN;
            }
            BinOp::Or => {
                let lt = self.expr(lhs);
                self.check_bool(lt, lhs.span);
                let jt = self.emit(Instr::JumpIfTrue(0));
                let rt = self.expr(rhs);
                self.check_bool(rt, rhs.span);
                let jend = self.emit(Instr::Jump(0));
                let t = self.here();
                self.emit(Instr::PushBool(true));
                let end = self.here();
                self.patch_jump(jt, t);
                self.patch_jump(jend, end);
                return TypeId::BOOLEAN;
            }
            _ => {}
        }
        let lt = self.expr(lhs);
        let rt = self.expr(rhs);
        let types = &self.sema.types;
        let l = types.strip_subrange(lt);
        let is_set = matches!(*types.get(l), Type::Bitset | Type::Set { .. });
        match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul => {
                if !types.same_type(lt, rt) {
                    self.error(span, "operand types differ");
                }
                if !(types.is_integerlike(l) || l == TypeId::REAL || is_set) {
                    self.error(span, "arithmetic needs numeric or set operands");
                }
                self.emit(match op {
                    BinOp::Add => Instr::Add,
                    BinOp::Sub => Instr::Sub,
                    _ => Instr::Mul,
                });
                lt
            }
            BinOp::RealDiv => {
                if !types.same_type(lt, rt) {
                    self.error(span, "operand types differ");
                }
                if !(l == TypeId::REAL || is_set || l == TypeId::ERROR) {
                    self.error(span, "`/` needs REAL or set operands");
                }
                self.emit(Instr::DivReal);
                lt
            }
            BinOp::IntDiv | BinOp::Modulo => {
                if !(types.is_integerlike(l) && types.is_integerlike(types.strip_subrange(rt))) {
                    self.error(span, "DIV/MOD need integer operands");
                }
                self.emit(if op == BinOp::IntDiv {
                    Instr::DivInt
                } else {
                    Instr::ModInt
                });
                TypeId::INTEGER
            }
            BinOp::Eq | BinOp::Neq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                if !(types.same_type(lt, rt)
                    || types.assignable(lt, rt)
                    || types.assignable(rt, lt))
                {
                    self.error(span, "incomparable operand types");
                }
                self.emit(match op {
                    BinOp::Eq => Instr::CmpEq,
                    BinOp::Neq => Instr::CmpNe,
                    BinOp::Lt => Instr::CmpLt,
                    BinOp::Le => Instr::CmpLe,
                    BinOp::Gt => Instr::CmpGt,
                    _ => Instr::CmpGe,
                });
                TypeId::BOOLEAN
            }
            BinOp::In => {
                if !types.is_ordinal(lt) {
                    self.error(span, "IN needs an ordinal left operand");
                }
                let rs = types.strip_subrange(rt);
                if !matches!(
                    *types.get(rs),
                    Type::Bitset | Type::Set { .. } | Type::Error
                ) {
                    self.error(span, "IN needs a set right operand");
                }
                self.emit(Instr::InSet);
                TypeId::BOOLEAN
            }
            BinOp::And | BinOp::Or => unreachable!("handled above"),
        }
    }

    fn check_bool(&mut self, ty: TypeId, span: Span) {
        if self.sema.types.strip_subrange(ty) != TypeId::BOOLEAN && ty != TypeId::ERROR {
            self.error(span, "condition must be BOOLEAN");
        }
    }

    fn set_cons(&mut self, of_type: Option<Ident>, elems: &[Label], span: Span) -> TypeId {
        let set_ty = match of_type {
            None => TypeId::BITSET,
            Some(id) => match self.resolve(id.name) {
                Some(LookupResult::Entry(e)) => match e.kind {
                    SymbolKind::TypeName { ty } => {
                        let s = self.sema.types.strip_subrange(ty);
                        if !matches!(*self.sema.types.get(s), Type::Set { .. } | Type::Bitset) {
                            self.error(span, "set constructor type is not a set type");
                        }
                        ty
                    }
                    _ => {
                        self.error(span, "set constructor needs a type name");
                        TypeId::ERROR
                    }
                },
                Some(LookupResult::Builtin(BuiltinDef::Type(t))) => t,
                _ => {
                    self.error(span, "unknown set type");
                    TypeId::ERROR
                }
            },
        };
        self.emit(Instr::PushSet(0));
        for &el in elems {
            match el {
                Label::Single(x) => {
                    let x = &self.ast[x];
                    let t = self.expr(x);
                    if !self.sema.types.is_ordinal(t) {
                        self.error(x.span, "set element must be ordinal");
                    }
                    self.emit(Instr::SetIncl);
                }
                Label::Range(lo, hi) => {
                    let lo = &self.ast[lo];
                    let t1 = self.expr(lo);
                    let t2 = self.expr(&self.ast[hi]);
                    if !self.sema.types.is_ordinal(t1) || !self.sema.types.is_ordinal(t2) {
                        self.error(lo.span, "set range must be ordinal");
                    }
                    self.emit(Instr::SetInclRange);
                }
            }
        }
        set_ty
    }

    // ----- calls -----------------------------------------------------------

    /// Emits a call. `as_stmt` is true in statement position (the callee
    /// must be a proper procedure there; in expression position it must be
    /// a function).
    fn call(&mut self, callee: &Expr, args: &[ExprId], span: Span, as_stmt: bool) -> TypeId {
        // Builtins and direct procedure calls need the callee's identity.
        let head = match &callee.kind {
            // A called name is looked up past the fields of active WITH
            // records.
            ExprKind::Name(id) => match self.scope_head(id.name) {
                Head::Builtin(BuiltinDef::Proc(b)) => {
                    return self.builtin_call(b, args, span, as_stmt)
                }
                // No other builtin is called by its name.
                Head::Builtin(_) => Head::Missing {
                    name: id.name,
                    qualified: false,
                },
                head => head,
            },
            ExprKind::Field { base, field } => {
                let ExprKind::Name(id) = &self.ast[*base].kind else {
                    return self.indirect_call_dyn(callee, None, args, span, as_stmt);
                };
                let head = self.head(id.name);
                match self.qualified(&head, *field) {
                    Some(qualified) => qualified,
                    // A record field holding a procedure value.
                    None => return self.indirect_call_dyn(callee, Some(head), args, span, as_stmt),
                }
            }
            _ => return self.indirect_call_dyn(callee, None, args, span, as_stmt),
        };
        let msg = match &head {
            Head::Entry {
                entry:
                    SymbolEntry {
                        kind: SymbolKind::Proc(p),
                        ..
                    },
                ..
            } => return self.direct_call(p, args, span, as_stmt),
            Head::Entry {
                qualified: true, ..
            } => "qualified name is not a procedure",
            Head::Entry {
                entry:
                    SymbolEntry {
                        kind: SymbolKind::Var(v),
                        ..
                    },
                ..
            } => match *self.sema.types.get(self.sema.types.strip_subrange(v.ty)) {
                Type::Proc { ref params, ret } => {
                    self.check_ret_position(ret, span, as_stmt);
                    self.push_args(params, |&param| param, args, span);
                    // The procedure value, above the args.
                    let _ = self.emit_head(&head, callee.span, true);
                    self.emit(Instr::CallIndirect {
                        argc: args.len() as u32,
                    });
                    return ret.unwrap_or(TypeId::ERROR);
                }
                _ => "called variable is not a procedure value",
            },
            Head::Missing { name, qualified } => return self.missing(*name, *qualified, span),
            _ => "name is not callable",
        };
        self.error(span, msg);
        TypeId::ERROR
    }

    fn check_ret_position(&mut self, ret: Option<TypeId>, span: Span, as_stmt: bool) {
        match (ret, as_stmt) {
            (Some(_), true) => self.error(span, "function result ignored (call used as statement)"),
            (None, false) => self.error(span, "proper procedure used in an expression"),
            _ => {}
        }
    }

    /// Emits `args` against `params`, whose entries `mode` reads as
    /// (is VAR, type).
    fn push_args<P>(
        &mut self,
        params: &[P],
        mode: fn(&P) -> (bool, TypeId),
        args: &[ExprId],
        span: Span,
    ) {
        if params.len() != args.len() {
            self.error(
                span,
                format!("expected {} arguments, found {}", params.len(), args.len()),
            );
        }
        for (ix, &arg) in args.iter().enumerate() {
            let arg = &self.ast[arg];
            match params.get(ix).map(mode) {
                Some((true, pty)) => {
                    // VAR parameter: pass the address.
                    let at = self.designator_addr(arg);
                    if !self.sema.types.same_type(at, pty) {
                        self.error(arg.span, "VAR argument type mismatch");
                    }
                }
                Some((false, pty)) => {
                    let at = self.expr(arg);
                    if !self.sema.types.assignable(pty, at) {
                        self.error(arg.span, "argument type mismatch");
                    }
                }
                None => {
                    let _ = self.expr(arg);
                }
            }
        }
    }

    fn direct_call(&mut self, p: &ProcInfo, args: &[ExprId], span: Span, as_stmt: bool) -> TypeId {
        self.check_ret_position(p.sig.ret, span, as_stmt);
        self.push_args(&p.sig.params, |p| (p.is_var, p.ty), args, span);
        // Static link: hops from the caller's frame to the callee's
        // lexical parent frame. Top-level procedures need none.
        let link_up = if p.level <= 1 {
            u32::MAX
        } else {
            self.level + 1 - p.level
        };
        self.emit(Instr::Call {
            target: p.code_name,
            argc: args.len() as u32,
            link_up,
        });
        p.sig.ret.unwrap_or(TypeId::ERROR)
    }

    /// Calls the procedure value `callee` holds; `head` is what the lookup
    /// of its leading name found, if the caller made it.
    fn indirect_call_dyn(
        &mut self,
        callee: &Expr,
        head: Option<Head>,
        args: &[ExprId],
        span: Span,
        as_stmt: bool,
    ) -> TypeId {
        // Type the callee first (without emitting) is not possible in a
        // single pass; evaluate args untyped, then the value, then call.
        // The callee's type is checked to be a procedure type.
        for &a in args {
            let _ = self.expr(&self.ast[a]);
        }
        let ct = match head {
            Some(head) => self.designator(callee, Some(head), true),
            None => self.expr(callee),
        };
        let cs = self.sema.types.strip_subrange(ct);
        let ret = match *self.sema.types.get(cs) {
            Type::Proc { ret, .. } => ret,
            Type::Error => None,
            _ => {
                self.error(span, "called expression is not a procedure value");
                None
            }
        };
        self.check_ret_position(ret, span, as_stmt);
        self.emit(Instr::CallIndirect {
            argc: args.len() as u32,
        });
        ret.unwrap_or(TypeId::ERROR)
    }

    // ----- builtins ---------------------------------------------------------

    fn builtin_call(&mut self, b: Builtin, args: &[ExprId], span: Span, as_stmt: bool) -> TypeId {
        use Builtin::*;
        let ast = self.ast;
        let expr_result = |this: &mut Self, ty: TypeId| {
            if as_stmt {
                this.error(span, "builtin function result ignored");
            }
            ty
        };
        match b {
            Halt => {
                self.emit(Instr::Halt);
                TypeId::ERROR
            }
            New | Dispose => {
                let &[arg] = args else {
                    self.error(span, "NEW/DISPOSE take one pointer variable");
                    return TypeId::ERROR;
                };
                let pt = self.designator_addr(&ast[arg]);
                let ps = self.sema.types.strip_subrange(pt);
                match self.sema.pointee(ps) {
                    Some(to) if b == New => {
                        let shape = shape_of(&self.sema.types, to);
                        let ix = self.unit.add_shape(shape);
                        self.emit(Instr::NewCell { shape: ix });
                    }
                    Some(_) => {
                        self.emit(Instr::DisposeCell);
                    }
                    None if *self.sema.types.get(ps) == Type::Error => {}
                    None => self.error(span, "NEW/DISPOSE need a pointer variable"),
                }
                TypeId::ERROR
            }
            Inc | Dec => {
                if args.is_empty() || args.len() > 2 {
                    self.error(span, "INC/DEC take one or two arguments");
                    return TypeId::ERROR;
                }
                let var = &ast[args[0]];
                let vt = self.designator_addr(var);
                if !self.sema.types.is_ordinal(vt) {
                    self.error(var.span, "INC/DEC need an ordinal variable");
                }
                if let Some(&amount) = args.get(1) {
                    let amount = &ast[amount];
                    let at = self.expr(amount);
                    if !self.sema.types.is_integerlike(at) {
                        self.error(amount.span, "INC/DEC amount must be integer");
                    }
                }
                self.emit(Instr::CallBuiltin {
                    builtin: b,
                    argc: args.len() as u32,
                });
                TypeId::ERROR
            }
            Incl | Excl => {
                let &[set, elem] = args else {
                    self.error(span, "INCL/EXCL take a set variable and an element");
                    return TypeId::ERROR;
                };
                let (set, elem) = (&ast[set], &ast[elem]);
                let st = self.designator_addr(set);
                let ss = self.sema.types.strip_subrange(st);
                if !matches!(
                    *self.sema.types.get(ss),
                    Type::Bitset | Type::Set { .. } | Type::Error
                ) {
                    self.error(set.span, "INCL/EXCL need a set variable");
                }
                let et = self.expr(elem);
                if !self.sema.types.is_ordinal(et) {
                    self.error(elem.span, "set element must be ordinal");
                }
                self.emit(Instr::CallBuiltin {
                    builtin: b,
                    argc: 2,
                });
                TypeId::ERROR
            }
            // Compile-time: the constant evaluator's MIN/MAX.
            Min | Max => match min_max(self.sema, self.scope, ast, b, args, span) {
                Some((v, ty)) => {
                    self.push_const(v);
                    expr_result(self, ty)
                }
                None => TypeId::ERROR,
            },
            Val => {
                let &[tname, x] = args else {
                    self.error(span, "VAL takes a type and a value");
                    return TypeId::ERROR;
                };
                let x = &ast[x];
                let ExprKind::Name(tn) = &ast[tname].kind else {
                    self.error(span, "VAL's first argument must be a type name");
                    return TypeId::ERROR;
                };
                let target = match self.resolve(tn.name) {
                    Some(LookupResult::Builtin(BuiltinDef::Type(t))) => t,
                    Some(LookupResult::Entry(e)) => match e.kind {
                        SymbolKind::TypeName { ty } => ty,
                        _ => {
                            self.error(span, "VAL's first argument must be a type name");
                            return TypeId::ERROR;
                        }
                    },
                    _ => {
                        self.error(span, "VAL's first argument must be a type name");
                        return TypeId::ERROR;
                    }
                };
                let xt = self.expr(x);
                if !self.sema.types.is_ordinal(xt) {
                    self.error(x.span, "VAL needs an ordinal value");
                }
                // Representation conversion: to CHAR via Chr, to numeric /
                // enum via Ord.
                let stripped = self.sema.types.strip_subrange(target);
                if stripped == TypeId::CHAR {
                    self.emit(Instr::CallBuiltin {
                        builtin: Chr,
                        argc: 1,
                    });
                } else {
                    self.emit(Instr::CallBuiltin {
                        builtin: Ord,
                        argc: 1,
                    });
                }
                expr_result(self, target)
            }
            High => {
                let &[arg] = args else {
                    self.error(span, "HIGH takes one open-array argument");
                    return TypeId::ERROR;
                };
                let arg = &ast[arg];
                let t = self.expr(arg);
                let s = self.sema.types.strip_subrange(t);
                if !matches!(
                    *self.sema.types.get(s),
                    Type::OpenArray { .. } | Type::Array { .. } | Type::Error
                ) {
                    self.error(arg.span, "HIGH needs an array");
                }
                self.emit(Instr::CallBuiltin {
                    builtin: High,
                    argc: 1,
                });
                expr_result(self, TypeId::CARDINAL)
            }
            WriteLn => {
                if !args.is_empty() {
                    self.error(span, "WriteLn takes no arguments");
                }
                self.emit(Instr::CallBuiltin {
                    builtin: WriteLn,
                    argc: 0,
                });
                TypeId::ERROR
            }
            WriteInt | WriteCard | WriteReal => {
                if args.len() != 2 {
                    self.error(span, "write builtins take a value and a width");
                }
                for &a in args {
                    let _ = self.expr(&ast[a]);
                }
                self.emit(Instr::CallBuiltin {
                    builtin: b,
                    argc: args.len() as u32,
                });
                TypeId::ERROR
            }
            WriteChar | WriteString => {
                if args.len() != 1 {
                    self.error(span, "write builtins take one argument");
                }
                for &a in args {
                    let _ = self.expr(&ast[a]);
                }
                self.emit(Instr::CallBuiltin {
                    builtin: b,
                    argc: args.len() as u32,
                });
                TypeId::ERROR
            }
            // One-argument value functions.
            Abs | Cap | Chr | Odd | Ord | Trunc | Float | Sin | Cos | Sqrt | Exp | Ln => {
                let &[arg] = args else {
                    self.error(span, "builtin takes one argument");
                    return TypeId::ERROR;
                };
                let at = self.expr(&ast[arg]);
                self.emit(Instr::CallBuiltin {
                    builtin: b,
                    argc: 1,
                });
                let ret = match b {
                    Abs => at,
                    Cap | Chr => TypeId::CHAR,
                    Odd => TypeId::BOOLEAN,
                    Ord | Trunc => TypeId::CARDINAL,
                    Float | Sin | Cos | Sqrt | Exp | Ln => TypeId::REAL,
                    _ => unreachable!(),
                };
                expr_result(self, ret)
            }
        }
    }

    // ----- statements --------------------------------------------------------

    fn stmts(&mut self, body: List<Stmt>) {
        for s in &self.ast[body] {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        self.sema.meter.charge(Work::StmtAnalyze, 1);
        let ast = self.ast;
        match s.kind {
            StmtKind::Empty => {}
            StmtKind::Assign { lhs, rhs } => {
                let lt = self.designator_addr(&ast[lhs]);
                let rt = self.expr(&ast[rhs]);
                if !self.sema.types.assignable(lt, rt) {
                    self.error(s.span, "assignment type mismatch");
                }
                self.emit(Instr::Store);
            }
            StmtKind::Call { call } => match ast[call].kind {
                ExprKind::Call { callee, args } => {
                    let _ = self.call(&ast[callee], &ast[args], s.span, true);
                }
                _ => {
                    // Parameterless call written without parentheses.
                    let _ = self.call(&ast[call], &[], s.span, true);
                }
            },
            StmtKind::If { arms, else_body } => {
                let mut end_jumps = Vec::new();
                for arm in &ast[arms] {
                    let cond = &ast[arm.cond];
                    let ct = self.expr(cond);
                    self.check_bool(ct, cond.span);
                    let jf = self.emit(Instr::JumpIfFalse(0));
                    self.stmts(arm.body);
                    end_jumps.push(self.emit(Instr::Jump(0)));
                    let next = self.here();
                    self.patch_jump(jf, next);
                }
                if let Some(body) = else_body {
                    self.stmts(body);
                }
                let end = self.here();
                for j in end_jumps {
                    self.patch_jump(j, end);
                }
            }
            StmtKind::While { cond, body } => {
                let top = self.here();
                let cond = &ast[cond];
                let ct = self.expr(cond);
                self.check_bool(ct, cond.span);
                let jf = self.emit(Instr::JumpIfFalse(0));
                self.stmts(body);
                self.emit(Instr::Jump(top));
                let end = self.here();
                self.patch_jump(jf, end);
            }
            StmtKind::Repeat { body, until } => {
                let top = self.here();
                self.stmts(body);
                let until = &ast[until];
                let ct = self.expr(until);
                self.check_bool(ct, until.span);
                self.emit(Instr::JumpIfFalse(top));
            }
            StmtKind::For {
                var,
                from,
                to,
                by,
                body,
            } => self.for_stmt(var, &ast[from], &ast[to], by, body, s.span),
            StmtKind::Loop { body } => {
                self.loop_exits.push(Vec::new());
                let top = self.here();
                self.stmts(body);
                self.emit(Instr::Jump(top));
                let end = self.here();
                match self.loop_exits.pop() {
                    Some(exits) => {
                        for j in exits {
                            self.patch_jump(j, end);
                        }
                    }
                    None => self.error(s.span, "internal error: unbalanced LOOP nesting"),
                }
            }
            StmtKind::Exit => {
                let j = self.emit(Instr::Jump(0));
                match self.loop_exits.last_mut() {
                    Some(exits) => exits.push(j),
                    None => self.error(s.span, "EXIT outside LOOP"),
                }
            }
            StmtKind::Case {
                scrutinee,
                arms,
                else_body,
            } => self.case_stmt(&ast[scrutinee], &ast[arms], else_body),
            StmtKind::With { designator, body } => {
                // The record's address is evaluated once into an address
                // temp; field references inside the body load it.
                let slot = self.alloc_temp(Shape::Addr);
                self.emit(Instr::PushAddr { level_up: 0, slot });
                let designator = &ast[designator];
                let rt = self.designator_addr(designator);
                let rs = self.sema.types.strip_subrange(rt);
                if !matches!(*self.sema.types.get(rs), Type::Record { .. } | Type::Error) {
                    self.error(designator.span, "WITH needs a record designator");
                }
                self.emit(Instr::Store);
                self.with_stack.push(WithBinding {
                    record_ty: rs,
                    slot,
                });
                self.stmts(body);
                self.with_stack.pop();
            }
            StmtKind::Return(value) => match (self.ret_ty, value.map(|v| &ast[v])) {
                (Some(rt), Some(v)) => {
                    let vt = self.expr(v);
                    if !self.sema.types.assignable(rt, vt) {
                        self.error(v.span, "RETURN value type mismatch");
                    }
                    self.emit(Instr::ReturnValue);
                }
                (Some(_), None) => {
                    self.error(s.span, "function must return a value");
                    self.emit(Instr::Return);
                }
                (None, Some(v)) => {
                    self.error(v.span, "proper procedure cannot return a value");
                    let _ = self.expr(v);
                    self.emit(Instr::Pop);
                    self.emit(Instr::Return);
                }
                (None, None) => {
                    self.emit(Instr::Return);
                }
            },
            StmtKind::LockStmt { designator, body } => {
                // Modula-2+ LOCK: evaluate the mutex designator (the VM is
                // single-threaded per image, so acquisition is a no-op);
                // the body runs bracketed.
                let _ = self.designator_addr(&ast[designator]);
                self.emit(Instr::Pop);
                self.stmts(body);
            }
            StmtKind::TryStmt {
                body,
                except,
                finally,
            } => {
                // Structural lowering: the protected body runs; the EXCEPT
                // handler is only reachable via RAISE (which halts in this
                // reproduction), so it is emitted but jumped over.
                self.stmts(body);
                if let Some(handler) = except {
                    let skip = self.emit(Instr::Jump(0));
                    self.stmts(handler);
                    let after = self.here();
                    self.patch_jump(skip, after);
                }
                if let Some(fin) = finally {
                    self.stmts(fin);
                }
            }
            StmtKind::Raise(value) => {
                if let Some(v) = value {
                    let _ = self.expr(&ast[v]);
                    self.emit(Instr::Pop);
                }
                self.emit(Instr::Halt);
            }
        }
    }

    fn for_stmt(
        &mut self,
        var: Ident,
        from: &Expr,
        to: &Expr,
        by: Option<ExprId>,
        body: List<Stmt>,
        span: Span,
    ) {
        let step = match by {
            None => 1,
            Some(e) => match eval_const(self.sema, self.scope, self.ast, e) {
                Some((v, _)) => v.ordinal().unwrap_or(1),
                None => 1,
            },
        };
        if step == 0 {
            self.error(span, "FOR step cannot be zero");
        }
        // The control variable is looked up once; its address is emitted
        // four times. v := from
        let v = self.head(var.name);
        let vt = self.emit_head(&v, var.span, false);
        if !self.sema.types.is_ordinal(vt) {
            self.error(var.span, "FOR control variable must be ordinal");
        }
        let ft = self.expr(from);
        if !self.sema.types.assignable(vt, ft) {
            self.error(from.span, "FOR initial value type mismatch");
        }
        self.emit(Instr::Store);
        // limit := to (evaluated once)
        let limit = self.alloc_temp(Shape::Int);
        self.emit(Instr::PushAddr {
            level_up: 0,
            slot: limit,
        });
        let tt = self.expr(to);
        if !self.sema.types.assignable(vt, tt) {
            self.error(to.span, "FOR final value type mismatch");
        }
        self.emit(Instr::Store);
        // top: if NOT (v <= limit) goto end
        let top = self.here();
        let _ = self.emit_head(&v, var.span, false);
        self.emit(Instr::Load);
        self.emit(Instr::PushAddr {
            level_up: 0,
            slot: limit,
        });
        self.emit(Instr::Load);
        self.emit(if step > 0 { Instr::CmpLe } else { Instr::CmpGe });
        let jf = self.emit(Instr::JumpIfFalse(0));
        self.stmts(body);
        // v := v + step
        let _ = self.emit_head(&v, var.span, false);
        let _ = self.emit_head(&v, var.span, false);
        self.emit(Instr::Load);
        self.emit(Instr::PushInt(step));
        self.emit(Instr::Add);
        self.emit(Instr::Store);
        self.emit(Instr::Jump(top));
        let end = self.here();
        self.patch_jump(jf, end);
    }

    fn case_stmt(&mut self, scrutinee: &Expr, arms: &[CaseArm], else_body: Option<List<Stmt>>) {
        // The scrutinee is evaluated once into a temp (addr pushed below
        // the value so Store's (addr, value) order holds).
        let tmp = self.alloc_temp(Shape::Int);
        self.emit(Instr::PushAddr {
            level_up: 0,
            slot: tmp,
        });
        let st = self.expr(scrutinee);
        if !self.sema.types.is_ordinal(st) {
            self.error(scrutinee.span, "CASE scrutinee must be ordinal");
        }
        self.emit(Instr::Store);
        let load_tmp = |this: &mut Self| {
            this.emit(Instr::PushAddr {
                level_up: 0,
                slot: tmp,
            });
            this.emit(Instr::Load);
        };
        // Emit tests; record (arm, jump-site) pairs to patch to bodies.
        let mut body_jumps: Vec<(usize, usize)> = Vec::new();
        let ast = self.ast;
        for (arm_ix, arm) in arms.iter().enumerate() {
            for &label in &ast[arm.labels] {
                match label {
                    Label::Single(e) => {
                        let Some((v, _)) = eval_const(self.sema, self.scope, ast, e) else {
                            continue;
                        };
                        let Some(ord) = v.ordinal() else {
                            self.error(ast[e].span, "case label must be ordinal");
                            continue;
                        };
                        load_tmp(self);
                        self.emit(Instr::PushInt(ord));
                        self.emit(Instr::CmpEq);
                        let j = self.emit(Instr::JumpIfTrue(0));
                        body_jumps.push((arm_ix, j));
                    }
                    Label::Range(lo, hi) => {
                        let (Some((lv, _)), Some((hv, _))) = (
                            eval_const(self.sema, self.scope, ast, lo),
                            eval_const(self.sema, self.scope, ast, hi),
                        ) else {
                            continue;
                        };
                        let (Some(l), Some(h)) = (lv.ordinal(), hv.ordinal()) else {
                            self.error(ast[lo].span, "case label must be ordinal");
                            continue;
                        };
                        load_tmp(self);
                        self.emit(Instr::PushInt(l));
                        self.emit(Instr::CmpGe);
                        let skip = self.emit(Instr::JumpIfFalse(0));
                        load_tmp(self);
                        self.emit(Instr::PushInt(h));
                        self.emit(Instr::CmpLe);
                        let j = self.emit(Instr::JumpIfTrue(0));
                        body_jumps.push((arm_ix, j));
                        let after = self.here();
                        self.patch_jump(skip, after);
                    }
                }
            }
        }
        // No label matched: ELSE (or fall through — PIM says error; we
        // fall through, documented deviation).
        let mut end_jumps = Vec::new();
        if let Some(eb) = else_body {
            self.stmts(eb);
        }
        end_jumps.push(self.emit(Instr::Jump(0)));
        // Bodies.
        let mut arm_starts = vec![0u32; arms.len()];
        for (arm_ix, arm) in arms.iter().enumerate() {
            arm_starts[arm_ix] = self.here();
            self.stmts(arm.body);
            end_jumps.push(self.emit(Instr::Jump(0)));
        }
        let end = self.here();
        for (arm_ix, site) in body_jumps {
            let target = arm_starts[arm_ix];
            self.patch_jump(site, target);
        }
        for j in end_jumps {
            self.patch_jump(j, end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccm2_sema::declare::{declare_decls, HeadingMode, LocalHooks};
    use ccm2_sema::symtab::{DkyStrategy, NullWaiter, ScopeKind};
    use ccm2_support::diag::DiagnosticSink;
    use ccm2_support::intern::Interner;
    use ccm2_support::source::{FileId, SourceMap};
    use ccm2_support::work::NullMeter;
    use ccm2_syntax::lexer::lex_file;
    use ccm2_syntax::parser::parse_implementation;
    use std::sync::Arc;

    /// Compiles a module's body + procedures through declare + emit and
    /// returns (units incl. module body, sema, sink).
    fn emit_module(src: &str) -> (Vec<CodeUnit>, Sema, Arc<DiagnosticSink>) {
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
        let file = map.add("M.mod", src);
        let tokens = lex_file(&file, &interner, &sink);
        let module = parse_implementation(&tokens, &interner, &sink).expect("parses");
        let scope = sema
            .tables
            .new_scope(ScopeKind::MainModule, module.name.name, None, FileId(0));
        let hooks = LocalHooks::new(&sema);
        let ast = &module.body.ast;
        let mut queue = declare_decls(
            &sema,
            scope,
            ast,
            &module.decls,
            HeadingMode::CopyToChild,
            &hooks,
        );
        sema.tables.mark_complete(scope);
        let mut all = Vec::new();
        while let Some(p) = queue.pop() {
            if let ccm2_syntax::ast::ProcBody::Local(local) = &p.body {
                let nested = declare_decls(
                    &sema,
                    p.scope,
                    ast,
                    &local.decls,
                    HeadingMode::CopyToChild,
                    &hooks,
                );
                sema.tables.mark_complete(p.scope);
                queue.extend(nested);
                all.push((p.clone(), local.body_in(ast)));
            }
        }
        let mut units = Vec::new();
        for (p, body) in all {
            units.push(gen_procedure(&sema, p.scope, p.code_name, &p.sig, &body));
        }
        units.push(gen_module_body(
            &sema,
            scope,
            module.name.name,
            &module.body,
        ));
        (units, sema, sink)
    }

    fn body_unit<'a>(units: &'a [CodeUnit], sema: &Sema, name: &str) -> &'a CodeUnit {
        let sym = sema.interner.intern(name);
        units.iter().find(|u| u.name == sym).expect("unit exists")
    }

    #[test]
    fn assignment_emits_addr_value_store() {
        let (units, sema, sink) = emit_module("MODULE M; VAR x : INTEGER; BEGIN x := 7 END M.");
        assert!(!sink.has_errors(), "{:?}", sink.snapshot());
        let u = body_unit(&units, &sema, "M");
        // Module globals: PushGlobalAddr, PushInt, Store, Halt.
        assert!(matches!(u.code[0], Instr::PushGlobalAddr { slot: 0, .. }));
        assert_eq!(u.code[1], Instr::PushInt(7));
        assert_eq!(u.code[2], Instr::Store);
        assert_eq!(*u.code.last().expect("nonempty"), Instr::Halt);
    }

    #[test]
    fn short_circuit_and_uses_jumps() {
        let (units, sema, sink) =
            emit_module("MODULE M; VAR p, q, r : BOOLEAN; BEGIN r := p AND q END M.");
        assert!(!sink.has_errors());
        let u = body_unit(&units, &sema, "M");
        assert!(
            u.code.iter().any(|i| matches!(i, Instr::JumpIfFalse(_))),
            "AND must short-circuit, got {:?}",
            u.code
        );
        // No generic And instruction exists; ensure nothing unexpected.
        assert!(u.code.iter().any(|i| matches!(i, Instr::PushBool(false))));
    }

    #[test]
    fn while_loop_shape() {
        let (units, sema, sink) =
            emit_module("MODULE M; VAR i : INTEGER; BEGIN WHILE i > 0 DO i := i - 1 END END M.");
        assert!(!sink.has_errors());
        let u = body_unit(&units, &sema, "M");
        // A backward jump must exist (loop), plus a forward conditional.
        let back = u.code.iter().enumerate().any(|(ix, i)| match i {
            Instr::Jump(t) => (*t as usize) < ix,
            _ => false,
        });
        assert!(back, "expected backward jump: {:?}", u.code);
        assert!(u.code.iter().any(|i| matches!(i, Instr::JumpIfFalse(_))));
    }

    #[test]
    fn procedure_unit_has_params_and_returns() {
        let (units, sema, sink) = emit_module(
            "MODULE M; \
             PROCEDURE Add(a, b : INTEGER) : INTEGER; BEGIN RETURN a + b END Add; \
             BEGIN END M.",
        );
        assert!(!sink.has_errors());
        let u = body_unit(&units, &sema, "M.Add");
        assert_eq!(u.param_count, 2);
        assert_eq!(u.level, 1);
        assert_eq!(u.frame.len(), 2);
        assert!(u.code.iter().any(|i| matches!(i, Instr::ReturnValue)));
        assert!(u.code.contains(&Instr::Add));
    }

    #[test]
    fn call_carries_symbolic_target_and_static_link() {
        let (units, sema, sink) = emit_module(
            "MODULE M; \
             PROCEDURE Outer; \
               PROCEDURE Inner; BEGIN END Inner; \
             BEGIN Inner END Outer; \
             BEGIN Outer END M.",
        );
        assert!(!sink.has_errors());
        let outer = body_unit(&units, &sema, "M.Outer");
        let inner_sym = sema.interner.intern("M.Outer.Inner");
        let call = outer
            .code
            .iter()
            .find_map(|i| match i {
                Instr::Call {
                    target,
                    argc,
                    link_up,
                } if *target == inner_sym => Some((*argc, *link_up)),
                _ => None,
            })
            .expect("call to Inner");
        assert_eq!(call.0, 0);
        // Inner is at level 2; its lexical parent is Outer's frame, 0 hops
        // up from Outer.
        assert_eq!(call.1, 0);
        let body = body_unit(&units, &sema, "M");
        let outer_sym = sema.interner.intern("M.Outer");
        assert!(body.code.iter().any(|i| matches!(
            i,
            Instr::Call { target, link_up: u32::MAX, .. } if *target == outer_sym
        )));
    }

    #[test]
    fn var_param_passes_address() {
        let (units, sema, sink) = emit_module(
            "MODULE M; VAR g : INTEGER; \
             PROCEDURE Bump(VAR x : INTEGER); BEGIN x := x + 1 END Bump; \
             BEGIN Bump(g) END M.",
        );
        assert!(!sink.has_errors());
        let body = body_unit(&units, &sema, "M");
        // The argument is the *address* of g: PushGlobalAddr directly
        // followed by Call (no Load).
        let ix = body
            .code
            .iter()
            .position(|i| matches!(i, Instr::PushGlobalAddr { .. }))
            .expect("address push");
        assert!(
            matches!(body.code[ix + 1], Instr::Call { .. }),
            "expected Call right after address push: {:?}",
            &body.code[ix..ix + 2]
        );
        // Inside Bump, the VAR param slot holds an address: loads go
        // PushAddr, Load (the stored address), then Load again for the
        // value.
        let bump = body_unit(&units, &sema, "M.Bump");
        assert_eq!(bump.frame[0], Shape::Addr);
    }

    #[test]
    fn for_loop_evaluates_limit_once_into_temp() {
        let (units, sema, sink) = emit_module(
            "MODULE M; VAR i, n : INTEGER; \
             BEGIN FOR i := 1 TO n DO END END M.",
        );
        assert!(!sink.has_errors());
        let u = body_unit(&units, &sema, "M");
        // Module body frame holds the limit temp.
        assert_eq!(u.frame, vec![Shape::Int]);
        assert!(u.code.iter().any(|i| matches!(i, Instr::CmpLe)));
    }

    #[test]
    fn downward_for_uses_cmpge() {
        let (units, sema, sink) =
            emit_module("MODULE M; VAR i : INTEGER; BEGIN FOR i := 10 TO 1 BY -1 DO END END M.");
        assert!(!sink.has_errors());
        let u = body_unit(&units, &sema, "M");
        assert!(u.code.iter().any(|i| matches!(i, Instr::CmpGe)));
        assert!(u.code.contains(&Instr::PushInt(-1)));
    }

    #[test]
    fn new_records_pointee_shape() {
        let (units, sema, sink) = emit_module(
            "MODULE M; \
             TYPE R = RECORD a, b : INTEGER END; P = POINTER TO R; \
             VAR p : P; \
             BEGIN NEW(p) END M.",
        );
        assert!(!sink.has_errors());
        let u = body_unit(&units, &sema, "M");
        let shape_ix = u
            .code
            .iter()
            .find_map(|i| match i {
                Instr::NewCell { shape } => Some(*shape),
                _ => None,
            })
            .expect("NewCell");
        assert_eq!(
            u.shapes[shape_ix as usize],
            Shape::Record(vec![Shape::Int, Shape::Int])
        );
    }

    #[test]
    fn with_binds_record_address_to_temp() {
        let (units, sema, sink) = emit_module(
            "MODULE M; VAR r : RECORD x, y : INTEGER END; \
             BEGIN WITH r DO x := y END END M.",
        );
        assert!(!sink.has_errors());
        let u = body_unit(&units, &sema, "M");
        assert_eq!(u.frame, vec![Shape::Addr], "WITH temp in frame");
        // Field accesses go through the temp: PushAddr{0,0}, Load,
        // AddrField.
        let pattern = u.code.windows(3).any(|w| {
            matches!(
                w[0],
                Instr::PushAddr {
                    level_up: 0,
                    slot: 0
                }
            ) && matches!(w[1], Instr::Load)
                && matches!(w[2], Instr::AddrField(_))
        });
        assert!(pattern, "{:?}", u.code);
    }

    #[test]
    fn case_emits_compare_chain() {
        let (units, sema, sink) = emit_module(
            "MODULE M; VAR i, n : INTEGER; \
             BEGIN CASE i OF 1 : n := 1 | 5..7 : n := 2 ELSE n := 0 END END M.",
        );
        assert!(!sink.has_errors());
        let u = body_unit(&units, &sema, "M");
        assert!(u.code.contains(&Instr::PushInt(5)));
        assert!(u.code.contains(&Instr::PushInt(7)));
        assert!(u.code.iter().any(|i| matches!(i, Instr::CmpGe)));
        assert!(u.code.iter().any(|i| matches!(i, Instr::JumpIfTrue(_))));
    }

    #[test]
    fn type_errors_are_reported() {
        let (_, _, sink) =
            emit_module("MODULE M; VAR b : BOOLEAN; i : INTEGER; BEGIN b := i END M.");
        assert!(sink.has_errors());
        assert!(sink
            .snapshot()
            .iter()
            .any(|d| d.message.contains("assignment type mismatch")));
    }

    #[test]
    fn condition_must_be_boolean() {
        let (_, _, sink) = emit_module("MODULE M; VAR i : INTEGER; BEGIN IF i THEN END END M.");
        assert!(sink.has_errors());
        assert!(sink
            .snapshot()
            .iter()
            .any(|d| d.message.contains("condition must be BOOLEAN")));
    }

    #[test]
    fn function_result_cannot_be_discarded() {
        let (_, _, sink) = emit_module(
            "MODULE M; \
             PROCEDURE F() : INTEGER; BEGIN RETURN 1 END F; \
             BEGIN F() END M.",
        );
        assert!(sink.has_errors());
        assert!(sink
            .snapshot()
            .iter()
            .any(|d| d.message.contains("result ignored")));
    }

    #[test]
    fn exit_outside_loop_reports() {
        let (_, _, sink) = emit_module("MODULE M; BEGIN EXIT END M.");
        assert!(sink.has_errors());
        assert!(sink
            .snapshot()
            .iter()
            .any(|d| d.message.contains("EXIT outside LOOP")));
    }

    #[test]
    fn global_shapes_follow_slot_order() {
        let (_, sema, sink) =
            emit_module("MODULE M; VAR a : INTEGER; b : REAL; c : BOOLEAN; BEGIN END M.");
        assert!(!sink.has_errors());
        // Scope 0 is the module scope created by emit_module.
        let shapes = global_shapes(&sema, ccm2_support::ids::ScopeId(0));
        assert_eq!(shapes, vec![Shape::Int, Shape::Real, Shape::Bool]);
    }

    /// The lookups that emitting the module body `body` records: every
    /// simple one (Table 2's simple side, its WITH row included), the
    /// qualified ones, and the WITH row alone. The module imports `M` and
    /// declares the names the bodies use.
    fn lookups_in(body: &str) -> (u64, u64, u64) {
        use ccm2_sema::declare::bind_imports;
        use ccm2_sema::stats::{Completeness, FoundWhen, ScopeClass};
        use ccm2_syntax::parser::parse_definition;
        let interner = Arc::new(Interner::new());
        let sink = Arc::new(DiagnosticSink::new());
        let sema = Sema::new(
            Arc::clone(&interner),
            Arc::clone(&sink),
            DkyStrategy::Skeptical,
            Arc::new(NullWaiter),
            Arc::new(NullMeter),
        );
        let hooks = LocalHooks::new(&sema);
        let map = SourceMap::new();
        let def = map.add(
            "M.def",
            "DEFINITION MODULE M; CONST c = 3; VAR v : INTEGER; \
             PROCEDURE P(a : INTEGER); END M.",
        );
        let def =
            parse_definition(&lex_file(&def, &interner, &sink), &interner, &sink).expect("parses");
        let m = sema
            .tables
            .new_scope(ScopeKind::DefModule, def.name.name, None, FileId(1));
        declare_decls(
            &sema,
            m,
            &def.ast,
            &def.decls,
            HeadingMode::CopyToChild,
            &hooks,
        );
        sema.tables.mark_complete(m);
        let main = map.add(
            "T.mod",
            format!(
                "MODULE T; IMPORT M; \
                 VAR x, y, i, n : INTEGER; c : CHAR; a : ARRAY [0..3] OF INTEGER; \
                 r : RECORD f : INTEGER END; p : POINTER TO RECORD f : INTEGER END; \
                 pv : PROCEDURE (INTEGER); \
                 PROCEDURE P(v : INTEGER); BEGIN END P; \
                 BEGIN {body} END T."
            ),
        );
        let module = parse_implementation(&lex_file(&main, &interner, &sink), &interner, &sink)
            .expect("parses");
        let t = sema
            .tables
            .new_scope(ScopeKind::MainModule, module.name.name, None, FileId(0));
        bind_imports(&sema, t, &module.imports, &|name| {
            (name == def.name.name).then_some(m)
        });
        declare_decls(
            &sema,
            t,
            &module.body.ast,
            &module.decls,
            HeadingMode::CopyToChild,
            &hooks,
        );
        sema.tables.mark_complete(t);
        let stats = sema.stats();
        let with = || {
            stats.simple_count(
                FoundWhen::FirstTry,
                ScopeClass::With,
                Completeness::Complete,
            )
        };
        let before = (stats.simple_total(), stats.qualified_total(), with());
        gen_module_body(&sema, t, module.name.name, &module.body);
        assert!(!sink.has_errors(), "{body}: {:?}", sink.snapshot());
        (
            stats.simple_total() - before.0,
            stats.qualified_total() - before.1,
            with() - before.2,
        )
    }

    /// Statement analysis looks each identifier of a statement up once,
    /// however many addresses and values it emits from what it found.
    #[test]
    fn each_identifier_is_looked_up_once() {
        let rows: [(&str, (u64, u64, u64)); 16] = [
            ("x := y", (2, 0, 0)),
            ("x := r.f", (2, 0, 0)),
            ("r.f := x", (2, 0, 0)),
            ("x := a[i]", (3, 0, 0)),
            ("p^.f := 1", (1, 0, 0)),
            ("FOR i := 1 TO n DO END", (2, 0, 0)),
            ("P(x)", (2, 0, 0)),
            ("pv(x)", (2, 0, 0)),
            ("M.v := 1", (1, 1, 0)),
            ("x := M.c", (2, 1, 0)),
            ("M.P(x)", (2, 1, 0)),
            ("WITH r DO f := 1 END", (2, 0, 1)),
            ("INC(x)", (2, 0, 0)),
            ("x := MAX(INTEGER)", (3, 0, 0)),
            ("x := VAL(INTEGER, c)", (4, 0, 0)),
            ("x := ABS(y)", (3, 0, 0)),
        ];
        let wrong: Vec<String> = rows
            .iter()
            .filter(|(body, want)| lookups_in(body) != *want)
            .map(|(body, want)| format!("{body}: want {want:?}, got {:?}", lookups_in(body)))
            .collect();
        assert!(wrong.is_empty(), "{wrong:#?}");
    }

    #[test]
    fn identical_source_emits_identical_units() {
        let src = "MODULE M; \
             PROCEDURE P(x : INTEGER) : INTEGER; \
             VAR t : INTEGER; \
             BEGIN t := x * 2; RETURN t END P; \
             BEGIN END M.";
        let (a, sema_a, _) = emit_module(src);
        let (b, sema_b, _) = emit_module(src);
        // Different interners ⇒ compare disassembly text.
        let da: Vec<String> = a.iter().map(|u| format!("{:?}", u.code)).collect();
        let db: Vec<String> = b.iter().map(|u| format!("{:?}", u.code)).collect();
        assert_eq!(da, db);
        let _ = (sema_a, sema_b);
    }
}
