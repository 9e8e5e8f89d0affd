//! Compile-time evaluation of constant expressions.
//!
//! Constant expressions appear in `CONST` declarations, subrange/array
//! bounds, case labels and `FOR` steps. Evaluation resolves names through
//! the concurrent symbol tables, so it participates fully in the DKY
//! machinery — an imported constant may force a DKY wait on the exporting
//! definition module's table, which is precisely the declaration-phase
//! information flow the paper describes in §4.4.

use ccm2_support::diag::Diagnostic;
use ccm2_support::ids::ScopeId;
use ccm2_support::source::Span;

use ccm2_syntax::ast::{Ast, BinOp, Expr, ExprId, ExprKind, Label, UnOp};

use crate::builtins::{Builtin, BuiltinDef};
use crate::symtab::{LookupResult, SymbolKind};
use crate::types::{Type, TypeId};
use crate::value::ConstValue;
use crate::Sema;

/// Evaluates the constant expression `expr` of `ast` in `scope`.
///
/// Returns the value and its type, or `None` after reporting a diagnostic.
pub fn eval_const(
    sema: &Sema,
    scope: ScopeId,
    ast: &Ast,
    expr: ExprId,
) -> Option<(ConstValue, TypeId)> {
    Evaluator { sema, scope, ast }.eval(&ast[expr])
}

/// Evaluates `MIN(args)` or `MAX(args)` — `b` says which, already
/// resolved by the caller — in `scope`: the one type argument's least or
/// greatest value, and its type.
///
/// Returns `None` after reporting a diagnostic at `span`.
pub fn min_max(
    sema: &Sema,
    scope: ScopeId,
    ast: &Ast,
    b: Builtin,
    args: &[ExprId],
    span: Span,
) -> Option<(ConstValue, TypeId)> {
    Evaluator { sema, scope, ast }.min_max(b, args, span)
}

struct Evaluator<'a> {
    sema: &'a Sema,
    scope: ScopeId,
    ast: &'a Ast,
}

impl<'a> Evaluator<'a> {
    fn err(&self, span: Span, msg: impl Into<String>) -> Option<(ConstValue, TypeId)> {
        let file = self.sema.tables.scope(self.scope).file();
        self.sema.sink.report(Diagnostic::error(file, span, msg));
        None
    }

    fn eval(&self, expr: &Expr) -> Option<(ConstValue, TypeId)> {
        match &expr.kind {
            ExprKind::IntLit(v) => Some((ConstValue::Int(*v), TypeId::INTEGER)),
            ExprKind::RealLit(bits) => Some((ConstValue::Real(*bits), TypeId::REAL)),
            ExprKind::CharLit(c) => Some((ConstValue::Char(*c), TypeId::CHAR)),
            ExprKind::StrLit(s) => Some((ConstValue::Str(*s), TypeId::STRING)),
            ExprKind::Name(id) => match self.sema.resolver.lookup(self.scope, id.name) {
                Some(LookupResult::Entry(e)) => self.entry_value(&e, expr.span),
                Some(LookupResult::Builtin(BuiltinDef::Const(v, ty))) => Some((v, ty)),
                Some(LookupResult::Builtin(_)) => self.err(expr.span, "builtin is not a constant"),
                None => self.err(
                    expr.span,
                    format!(
                        "undeclared identifier `{}` in constant expression",
                        self.sema.interner.resolve(id.name)
                    ),
                ),
            },
            ExprKind::Field { base, field } => {
                // Qualified constant `Module.c`.
                let ExprKind::Name(mod_id) = &self.ast[*base].kind else {
                    return self.err(expr.span, "constant expression too complex");
                };
                match self.sema.resolver.lookup(self.scope, mod_id.name) {
                    Some(LookupResult::Entry(e)) => match e.kind {
                        SymbolKind::Module { scope } => {
                            match self.sema.resolver.lookup_qualified(scope, field.name) {
                                Some(e) => self.entry_value(&e, expr.span),
                                None => self.err(
                                    expr.span,
                                    format!(
                                        "`{}` is not exported by `{}`",
                                        self.sema.interner.resolve(field.name),
                                        self.sema.interner.resolve(mod_id.name)
                                    ),
                                ),
                            }
                        }
                        _ => self.err(expr.span, "constant expression too complex"),
                    },
                    _ => self.err(
                        expr.span,
                        format!(
                            "undeclared identifier `{}`",
                            self.sema.interner.resolve(mod_id.name)
                        ),
                    ),
                }
            }
            ExprKind::Unary { op, operand } => {
                let (v, ty) = self.eval(&self.ast[*operand])?;
                match (op, v) {
                    (UnOp::Neg, ConstValue::Int(x)) => {
                        Some((ConstValue::Int(x.wrapping_neg()), ty))
                    }
                    (UnOp::Neg, ConstValue::Real(_)) => {
                        Some((ConstValue::from_real(-v.as_real().expect("real")), ty))
                    }
                    (UnOp::Pos, ConstValue::Int(_) | ConstValue::Real(_)) => Some((v, ty)),
                    (UnOp::Not, ConstValue::Bool(b)) => {
                        Some((ConstValue::Bool(!b), TypeId::BOOLEAN))
                    }
                    _ => self.err(expr.span, "invalid operand in constant expression"),
                }
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let (a, ta) = self.eval(&self.ast[*lhs])?;
                let (b, _tb) = self.eval(&self.ast[*rhs])?;
                self.binary(*op, a, b, ta, expr.span)
            }
            ExprKind::SetCons { elems, .. } => {
                let mut mask: u64 = 0;
                for &el in &self.ast[*elems] {
                    match el {
                        Label::Single(e) => {
                            let e = &self.ast[e];
                            let (v, _) = self.eval(e)?;
                            let Some(o) = v.ordinal() else {
                                return self.err(e.span, "set element must be ordinal");
                            };
                            if !(0..64).contains(&o) {
                                return self.err(e.span, "set element out of range 0..63");
                            }
                            mask |= 1 << o;
                        }
                        Label::Range(lo, hi) => {
                            let (lo, hi) = (&self.ast[lo], &self.ast[hi]);
                            let (lv, _) = self.eval(lo)?;
                            let (hv, _) = self.eval(hi)?;
                            let (Some(l), Some(h)) = (lv.ordinal(), hv.ordinal()) else {
                                return self.err(lo.span, "set range must be ordinal");
                            };
                            if !(0..64).contains(&l) || !(0..64).contains(&h) || l > h {
                                return self.err(lo.span, "bad set range");
                            }
                            for k in l..=h {
                                mask |= 1 << k;
                            }
                        }
                    }
                }
                Some((ConstValue::Set(mask), TypeId::BITSET))
            }
            ExprKind::Call { callee, args } => {
                self.builtin_call(&self.ast[*callee], &self.ast[*args], expr.span)
            }
            _ => self.err(expr.span, "expression is not constant"),
        }
    }

    fn entry_value(
        &self,
        e: &crate::symtab::SymbolEntry,
        span: Span,
    ) -> Option<(ConstValue, TypeId)> {
        match &e.kind {
            SymbolKind::Const { value, ty } => Some((*value, *ty)),
            SymbolKind::EnumConst { ty, value } => Some((ConstValue::Int(*value), *ty)),
            _ => self.err(
                span,
                format!("`{}` is not a constant", self.sema.interner.resolve(e.name)),
            ),
        }
    }

    fn binary(
        &self,
        op: BinOp,
        a: ConstValue,
        b: ConstValue,
        ta: TypeId,
        span: Span,
    ) -> Option<(ConstValue, TypeId)> {
        use ConstValue::*;
        let out = match (op, a, b) {
            (BinOp::Add, Int(x), Int(y)) => (Int(x.wrapping_add(y)), ta),
            (BinOp::Sub, Int(x), Int(y)) => (Int(x.wrapping_sub(y)), ta),
            (BinOp::Mul, Int(x), Int(y)) => (Int(x.wrapping_mul(y)), ta),
            (BinOp::IntDiv, Int(x), Int(y)) => {
                if y == 0 {
                    return self.err(span, "division by zero in constant expression");
                }
                (Int(x.div_euclid(y)), ta)
            }
            (BinOp::Modulo, Int(x), Int(y)) => {
                if y == 0 {
                    return self.err(span, "division by zero in constant expression");
                }
                (Int(x.rem_euclid(y)), ta)
            }
            (BinOp::Add, Real(_), Real(_)) => (
                ConstValue::from_real(a.as_real().expect("real") + b.as_real().expect("real")),
                TypeId::REAL,
            ),
            (BinOp::Sub, Real(_), Real(_)) => (
                ConstValue::from_real(a.as_real().expect("real") - b.as_real().expect("real")),
                TypeId::REAL,
            ),
            (BinOp::Mul, Real(_), Real(_)) => (
                ConstValue::from_real(a.as_real().expect("real") * b.as_real().expect("real")),
                TypeId::REAL,
            ),
            (BinOp::RealDiv, Real(_), Real(_)) => {
                let d = b.as_real().expect("real");
                if d == 0.0 {
                    return self.err(span, "division by zero in constant expression");
                }
                (
                    ConstValue::from_real(a.as_real().expect("real") / d),
                    TypeId::REAL,
                )
            }
            (BinOp::And, Bool(x), Bool(y)) => (Bool(x && y), TypeId::BOOLEAN),
            (BinOp::Or, Bool(x), Bool(y)) => (Bool(x || y), TypeId::BOOLEAN),
            (BinOp::Add, Set(x), Set(y)) => (Set(x | y), ta),
            (BinOp::Sub, Set(x), Set(y)) => (Set(x & !y), ta),
            (BinOp::Mul, Set(x), Set(y)) => (Set(x & y), ta),
            (BinOp::RealDiv, Set(x), Set(y)) => (Set(x ^ y), ta),
            (BinOp::In, _, Set(y)) => {
                let Some(o) = a.ordinal() else {
                    return self.err(span, "IN requires an ordinal");
                };
                (
                    Bool((0..64).contains(&o) && (y >> o) & 1 == 1),
                    TypeId::BOOLEAN,
                )
            }
            (BinOp::Eq, _, _) => (Bool(a == b), TypeId::BOOLEAN),
            (BinOp::Neq, _, _) => (Bool(a != b), TypeId::BOOLEAN),
            (BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge, _, _) => {
                let cmp = match (a, b) {
                    (Int(x), Int(y)) => x.partial_cmp(&y),
                    (Char(x), Char(y)) => x.partial_cmp(&y),
                    (Bool(x), Bool(y)) => x.partial_cmp(&y),
                    (Real(_), Real(_)) => a
                        .as_real()
                        .expect("real")
                        .partial_cmp(&b.as_real().expect("real")),
                    _ => None,
                };
                let Some(ord) = cmp else {
                    return self.err(span, "incomparable constant operands");
                };
                let r = match op {
                    BinOp::Lt => ord.is_lt(),
                    BinOp::Le => ord.is_le(),
                    BinOp::Gt => ord.is_gt(),
                    _ => ord.is_ge(),
                };
                (Bool(r), TypeId::BOOLEAN)
            }
            _ => return self.err(span, "invalid operands in constant expression"),
        };
        Some(out)
    }

    fn builtin_call(
        &self,
        callee: &Expr,
        args: &[ExprId],
        span: Span,
    ) -> Option<(ConstValue, TypeId)> {
        let ExprKind::Name(id) = &callee.kind else {
            return self.err(span, "expression is not constant");
        };
        let Some(LookupResult::Builtin(BuiltinDef::Proc(b))) =
            self.sema.resolver.lookup(self.scope, id.name)
        else {
            return self.err(span, "only builtin functions are allowed in constants");
        };
        if matches!(b, Builtin::Min | Builtin::Max) {
            return self.min_max(b, args, span);
        }
        let [arg] = args else {
            return self.err(span, "builtin takes one argument in constants");
        };
        let (v, vt) = self.eval(&self.ast[*arg])?;
        let out = match (b, v) {
            (Builtin::Abs, ConstValue::Int(x)) => (ConstValue::Int(x.abs()), vt),
            (Builtin::Abs, ConstValue::Real(_)) => (
                ConstValue::from_real(v.as_real().expect("real").abs()),
                TypeId::REAL,
            ),
            (Builtin::Ord, _) => match v.ordinal() {
                Some(o) => (ConstValue::Int(o), TypeId::CARDINAL),
                None => return self.err(span, "ORD requires an ordinal"),
            },
            (Builtin::Chr, ConstValue::Int(x)) if (0..=255).contains(&x) => {
                (ConstValue::Char(x as u8), TypeId::CHAR)
            }
            (Builtin::Cap, ConstValue::Char(c)) => {
                (ConstValue::Char(c.to_ascii_uppercase()), TypeId::CHAR)
            }
            (Builtin::Odd, ConstValue::Int(x)) => {
                (ConstValue::Bool(x.rem_euclid(2) == 1), TypeId::BOOLEAN)
            }
            (Builtin::Trunc, ConstValue::Real(_)) => (
                ConstValue::Int(v.as_real().expect("real") as i64),
                TypeId::CARDINAL,
            ),
            (Builtin::Float, ConstValue::Int(x)) => (ConstValue::from_real(x as f64), TypeId::REAL),
            _ => return self.err(span, "builtin not usable in constant expression"),
        };
        Some(out)
    }

    /// MIN/MAX take a *type* argument.
    fn min_max(&self, b: Builtin, args: &[ExprId], span: Span) -> Option<(ConstValue, TypeId)> {
        let [arg] = args else {
            return self.err(span, "MIN/MAX take one type argument");
        };
        let ExprKind::Name(tn) = &self.ast[*arg].kind else {
            return self.err(span, "MIN/MAX take a type name");
        };
        let ty = match self.sema.resolver.lookup(self.scope, tn.name) {
            Some(LookupResult::Builtin(BuiltinDef::Type(t))) => t,
            Some(LookupResult::Entry(e)) => match e.kind {
                SymbolKind::TypeName { ty } => ty,
                _ => return self.err(span, "MIN/MAX take a type name"),
            },
            _ => return self.err(span, "MIN/MAX take a type name"),
        };
        let Some((lo, hi)) = self.sema.types.ordinal_bounds(ty) else {
            return self.err(span, "MIN/MAX require an ordinal type");
        };
        let v = if b == Builtin::Min { lo } else { hi };
        let out_ty = self.sema.types.strip_subrange(ty);
        Some(match *self.sema.types.get(out_ty) {
            Type::Char => (ConstValue::Char(v as u8), TypeId::CHAR),
            Type::Boolean => (ConstValue::Bool(v != 0), TypeId::BOOLEAN),
            _ => (ConstValue::Int(v), out_ty),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symtab::{DkyStrategy, NullWaiter, ScopeKind};
    use crate::Sema;
    use ccm2_support::diag::DiagnosticSink;
    use ccm2_support::intern::Interner;
    use ccm2_support::source::{FileId, SourceMap};
    use ccm2_support::work::NullMeter;
    use ccm2_syntax::lexer::lex_file;
    use std::sync::Arc;

    fn eval_src(src: &str) -> (Option<(ConstValue, TypeId)>, Arc<DiagnosticSink>) {
        let interner = Arc::new(Interner::new());
        let sink = Arc::new(DiagnosticSink::new());
        let sema = Sema::new(
            Arc::clone(&interner),
            Arc::clone(&sink),
            DkyStrategy::Skeptical,
            Arc::new(NullWaiter),
            Arc::new(NullMeter),
        );
        let scope =
            sema.tables
                .new_scope(ScopeKind::MainModule, interner.intern("M"), None, FileId(0));
        sema.tables.mark_complete(scope);
        let map = SourceMap::new();
        let f = map.add("c.frag", src);
        let toks = lex_file(&f, &interner, &sink);
        let (ast, expr) = ccm2_syntax::parser::parse_const_expr(&toks, &interner, &sink)
            .expect("const expr parses");
        (eval_const(&sema, scope, &ast, expr), sink)
    }

    #[test]
    fn arithmetic() {
        let (v, sink) = eval_src("2 + 3 * 4");
        assert_eq!(v, Some((ConstValue::Int(14), TypeId::INTEGER)));
        assert!(!sink.has_errors());
    }

    #[test]
    fn div_and_mod() {
        let (v, _) = eval_src("17 DIV 5");
        assert_eq!(v.map(|x| x.0), Some(ConstValue::Int(3)));
        let (v, _) = eval_src("17 MOD 5");
        assert_eq!(v.map(|x| x.0), Some(ConstValue::Int(2)));
    }

    #[test]
    fn division_by_zero_reports() {
        let (v, sink) = eval_src("1 DIV 0");
        assert!(v.is_none());
        assert!(sink.has_errors());
    }

    #[test]
    fn reals() {
        let (v, _) = eval_src("1.5 * 2.0");
        assert_eq!(v.map(|x| x.0), Some(ConstValue::from_real(3.0)));
    }

    #[test]
    fn booleans_and_comparisons() {
        let (v, _) = eval_src("(1 < 2) AND NOT FALSE");
        assert_eq!(v, Some((ConstValue::Bool(true), TypeId::BOOLEAN)));
        let (v, _) = eval_src("3 # 3");
        assert_eq!(v.map(|x| x.0), Some(ConstValue::Bool(false)));
    }

    #[test]
    fn sets() {
        let (v, _) = eval_src("{1, 3..5}");
        assert_eq!(v, Some((ConstValue::Set(0b111010), TypeId::BITSET)));
        let (v, _) = eval_src("3 IN {1, 3}");
        assert_eq!(v.map(|x| x.0), Some(ConstValue::Bool(true)));
    }

    #[test]
    fn builtin_functions() {
        let (v, _) = eval_src("ABS(-4)");
        assert_eq!(v.map(|x| x.0), Some(ConstValue::Int(4)));
        let (v, _) = eval_src("ORD('A')");
        assert_eq!(v.map(|x| x.0), Some(ConstValue::Int(65)));
        let (v, _) = eval_src("CHR(66)");
        assert_eq!(v.map(|x| x.0), Some(ConstValue::Char(b'B')));
        let (v, _) = eval_src("MAX(CHAR)");
        assert_eq!(v.map(|x| x.0), Some(ConstValue::Char(255)));
        let (v, _) = eval_src("TRUNC(2.9)");
        assert_eq!(v.map(|x| x.0), Some(ConstValue::Int(2)));
    }

    #[test]
    fn non_constant_reports() {
        let (v, sink) = eval_src("undeclaredThing + 1");
        assert!(v.is_none());
        assert!(sink.has_errors());
    }
}
