//! Pretty-printing of the AST back to Modula-2+ source.
//!
//! Used by tooling (the `ccm2c --emit ast` mode) and by the round-trip
//! property tests: parse → print → parse must reach a fixed point, which
//! pins down the parser and printer against each other.

use ccm2_support::intern::Interner;

use crate::ast::*;

/// Pretty-prints an implementation module.
pub fn print_implementation(m: &ImplementationModule, interner: &Interner) -> String {
    let mut p = Printer::new(interner);
    p.line(&format!("IMPLEMENTATION MODULE {};", p.id(m.name)));
    p.imports(&m.imports);
    for d in &m.decls {
        p.decl(d);
    }
    if !m.body.is_empty() {
        p.line("BEGIN");
        p.indent += 1;
        p.stmts(&m.body);
        p.indent -= 1;
    }
    p.line(&format!("END {}.", p.id(m.name)));
    p.out
}

struct Printer<'a> {
    interner: &'a Interner,
    out: String,
    indent: usize,
}

impl<'a> Printer<'a> {
    fn new(interner: &'a Interner) -> Printer<'a> {
        Printer {
            interner,
            out: String::new(),
            indent: 0,
        }
    }

    fn id(&self, id: Ident) -> String {
        self.interner.resolve(id.name)
    }

    fn line(&mut self, text: &str) {
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    fn imports(&mut self, imports: &[Import]) {
        for imp in imports {
            match imp {
                Import::Whole { module } => self.line(&format!("IMPORT {};", self.id(*module))),
                Import::From { module, names } => {
                    let names: Vec<String> = names.iter().map(|n| self.id(*n)).collect();
                    self.line(&format!(
                        "FROM {} IMPORT {};",
                        self.id(*module),
                        names.join(", ")
                    ));
                }
            }
        }
    }

    fn decl(&mut self, d: &Decl) {
        match d {
            Decl::Const { name, value } => {
                let v = self.expr(value);
                self.line(&format!("CONST {} = {};", self.id(*name), v));
            }
            Decl::Type { name, ty } => match ty {
                Some(t) => {
                    let t = self.ty(t);
                    self.line(&format!("TYPE {} = {};", self.id(*name), t));
                }
                None => self.line(&format!("TYPE {};", self.id(*name))),
            },
            Decl::Var { names, ty } => {
                let names: Vec<String> = names.iter().map(|n| self.id(*n)).collect();
                let t = self.ty(ty);
                self.line(&format!("VAR {} : {};", names.join(", "), t));
            }
            Decl::Procedure(p) => self.procedure(p),
        }
    }

    fn heading_text(&self, h: &ProcHeading) -> String {
        let mut s = format!("PROCEDURE {}", self.id(h.name));
        if !h.params.is_empty() || h.ret.is_some() {
            s.push('(');
            let sections: Vec<String> = h
                .params
                .iter()
                .map(|sec| {
                    let names: Vec<String> = sec.names.iter().map(|n| self.id(*n)).collect();
                    format!(
                        "{}{} : {}",
                        if sec.is_var { "VAR " } else { "" },
                        names.join(", "),
                        self.ty(&sec.ty)
                    )
                })
                .collect();
            s.push_str(&sections.join("; "));
            s.push(')');
        }
        if let Some(ret) = &h.ret {
            s.push_str(&format!(" : {}", self.ty(ret)));
        }
        s
    }

    fn procedure(&mut self, p: &ProcDecl) {
        let head = self.heading_text(&p.heading);
        match &p.body {
            ProcBody::HeadingOnly => self.line(&format!("{head};")),
            ProcBody::Remote(stream) => {
                self.line(&format!("{head};"));
                self.line(&format!("(* body in {stream} *);"));
            }
            ProcBody::Local(local) => {
                self.line(&format!("{head};"));
                self.indent += 1;
                for d in &local.decls {
                    self.decl(d);
                }
                self.indent -= 1;
                if !local.body.is_empty() {
                    self.line("BEGIN");
                    self.indent += 1;
                    self.stmts(&local.body);
                    self.indent -= 1;
                }
                self.line(&format!("END {};", self.id(p.heading.name)));
            }
        }
    }

    fn ty(&self, t: &TypeExpr) -> String {
        match &t.kind {
            TypeExprKind::Named { module, name } => match module {
                Some(m) => format!("{}.{}", self.id(*m), self.id(*name)),
                None => self.id(*name),
            },
            TypeExprKind::Array { index, elem } => {
                format!("ARRAY {} OF {}", self.ty(index), self.ty(elem))
            }
            TypeExprKind::OpenArray { elem } => format!("ARRAY OF {}", self.ty(elem)),
            TypeExprKind::Record { fields } => {
                let fs: Vec<String> = fields
                    .iter()
                    .map(|f| {
                        let names: Vec<String> = f.names.iter().map(|n| self.id(*n)).collect();
                        format!("{} : {}", names.join(", "), self.ty(&f.ty))
                    })
                    .collect();
                format!("RECORD {} END", fs.join("; "))
            }
            TypeExprKind::Pointer { to } => format!("POINTER TO {}", self.ty(to)),
            TypeExprKind::Set { of } => format!("SET OF {}", self.ty(of)),
            TypeExprKind::Enumeration { members } => {
                let ms: Vec<String> = members.iter().map(|m| self.id(*m)).collect();
                format!("({})", ms.join(", "))
            }
            TypeExprKind::Subrange { lo, hi } => {
                format!("[{} .. {}]", self.expr(lo), self.expr(hi))
            }
            TypeExprKind::ProcType { params, ret } => {
                let mut s = String::from("PROCEDURE");
                if !params.is_empty() || ret.is_some() {
                    let ps: Vec<String> = params
                        .iter()
                        .map(|(v, t)| format!("{}{}", if *v { "VAR " } else { "" }, self.ty(t)))
                        .collect();
                    s.push_str(&format!("({})", ps.join(", ")));
                }
                if let Some(r) = ret {
                    s.push_str(&format!(" : {}", self.ty(r)));
                }
                s
            }
        }
    }

    fn stmts(&mut self, stmts: &[Stmt]) {
        for (ix, s) in stmts.iter().enumerate() {
            let sep = ix + 1 < stmts.len();
            self.stmt(s, sep);
        }
    }

    fn stmt(&mut self, s: &Stmt, sep: bool) {
        let semi = if sep { ";" } else { "" };
        match &s.kind {
            StmtKind::Empty => {}
            StmtKind::Assign { lhs, rhs } => {
                let l = self.expr(lhs);
                let r = self.expr(rhs);
                self.line(&format!("{l} := {r}{semi}"));
            }
            StmtKind::Call { call } => {
                let c = self.expr(call);
                self.line(&format!("{c}{semi}"));
            }
            StmtKind::If { arms, else_body } => {
                for (ix, (cond, body)) in arms.iter().enumerate() {
                    let kw = if ix == 0 { "IF" } else { "ELSIF" };
                    let c = self.expr(cond);
                    self.line(&format!("{kw} {c} THEN"));
                    self.indent += 1;
                    self.stmts(body);
                    self.indent -= 1;
                }
                if let Some(e) = else_body {
                    self.line("ELSE");
                    self.indent += 1;
                    self.stmts(e);
                    self.indent -= 1;
                }
                self.line(&format!("END{semi}"));
            }
            StmtKind::While { cond, body } => {
                let c = self.expr(cond);
                self.line(&format!("WHILE {c} DO"));
                self.indent += 1;
                self.stmts(body);
                self.indent -= 1;
                self.line(&format!("END{semi}"));
            }
            StmtKind::Repeat { body, until } => {
                self.line("REPEAT");
                self.indent += 1;
                self.stmts(body);
                self.indent -= 1;
                let u = self.expr(until);
                self.line(&format!("UNTIL {u}{semi}"));
            }
            StmtKind::For {
                var,
                from,
                to,
                by,
                body,
            } => {
                let f = self.expr(from);
                let t = self.expr(to);
                let by_txt = by
                    .as_ref()
                    .map(|b| format!(" BY {}", self.expr(b)))
                    .unwrap_or_default();
                self.line(&format!("FOR {} := {f} TO {t}{by_txt} DO", self.id(*var)));
                self.indent += 1;
                self.stmts(body);
                self.indent -= 1;
                self.line(&format!("END{semi}"));
            }
            StmtKind::Loop { body } => {
                self.line("LOOP");
                self.indent += 1;
                self.stmts(body);
                self.indent -= 1;
                self.line(&format!("END{semi}"));
            }
            StmtKind::Exit => self.line(&format!("EXIT{semi}")),
            StmtKind::Case {
                scrutinee,
                arms,
                else_body,
            } => {
                let sc = self.expr(scrutinee);
                self.line(&format!("CASE {sc} OF"));
                for (ix, arm) in arms.iter().enumerate() {
                    let labels: Vec<String> = arm
                        .labels
                        .iter()
                        .map(|l| match l {
                            CaseLabel::Single(e) => self.expr(e),
                            CaseLabel::Range(a, b) => {
                                format!("{} .. {}", self.expr(a), self.expr(b))
                            }
                        })
                        .collect();
                    let bar = if ix == 0 { "" } else { "| " };
                    self.line(&format!("{bar}{} :", labels.join(", ")));
                    self.indent += 1;
                    self.stmts(&arm.body);
                    self.indent -= 1;
                }
                if let Some(e) = else_body {
                    self.line("ELSE");
                    self.indent += 1;
                    self.stmts(e);
                    self.indent -= 1;
                }
                self.line(&format!("END{semi}"));
            }
            StmtKind::With { designator, body } => {
                let d = self.expr(designator);
                self.line(&format!("WITH {d} DO"));
                self.indent += 1;
                self.stmts(body);
                self.indent -= 1;
                self.line(&format!("END{semi}"));
            }
            StmtKind::Return(value) => match value {
                Some(v) => {
                    let v = self.expr(v);
                    self.line(&format!("RETURN {v}{semi}"));
                }
                None => self.line(&format!("RETURN{semi}")),
            },
            StmtKind::LockStmt { designator, body } => {
                let d = self.expr(designator);
                self.line(&format!("LOCK {d} DO"));
                self.indent += 1;
                self.stmts(body);
                self.indent -= 1;
                self.line(&format!("END{semi}"));
            }
            StmtKind::TryStmt {
                body,
                except,
                finally,
            } => {
                self.line("TRY");
                self.indent += 1;
                self.stmts(body);
                self.indent -= 1;
                if let Some(h) = except {
                    self.line("EXCEPT");
                    self.indent += 1;
                    self.stmts(h);
                    self.indent -= 1;
                }
                if let Some(f) = finally {
                    self.line("FINALLY");
                    self.indent += 1;
                    self.stmts(f);
                    self.indent -= 1;
                }
                self.line(&format!("END{semi}"));
            }
            StmtKind::Raise(value) => match value {
                Some(v) => {
                    let v = self.expr(v);
                    self.line(&format!("RAISE {v}{semi}"));
                }
                None => self.line(&format!("RAISE{semi}")),
            },
        }
    }

    fn expr(&self, e: &Expr) -> String {
        match &e.kind {
            ExprKind::IntLit(v) => format!("{v}"),
            ExprKind::RealLit(bits) => {
                let v = f64::from_bits(*bits);
                // Ensure a decimal point so it re-lexes as a real.
                let s = format!("{v}");
                if s.contains('.') || s.contains('E') || s.contains('e') {
                    s.replace('e', "E")
                } else {
                    format!("{s}.0")
                }
            }
            ExprKind::CharLit(c) => {
                let ch = *c as char;
                if ch.is_ascii_graphic() || ch == ' ' {
                    if ch == '\'' {
                        format!("\"{ch}\"")
                    } else {
                        format!("'{ch}'")
                    }
                } else {
                    format!("{}C", u32::from(*c)) // numeric char literal
                }
            }
            ExprKind::StrLit(s) => {
                let text = self.interner.resolve(*s);
                if text.contains('\'') {
                    format!("\"{text}\"")
                } else {
                    format!("'{text}'")
                }
            }
            ExprKind::Name(id) => self.id(*id),
            ExprKind::Field { base, field } => {
                format!("{}.{}", self.expr(base), self.id(*field))
            }
            ExprKind::Index { base, indices } => {
                let ix: Vec<String> = indices.iter().map(|i| self.expr(i)).collect();
                format!("{}[{}]", self.expr(base), ix.join(", "))
            }
            ExprKind::Deref { base } => format!("{}^", self.expr(base)),
            ExprKind::Call { callee, args } => {
                let a: Vec<String> = args.iter().map(|x| self.expr(x)).collect();
                format!("{}({})", self.expr(callee), a.join(", "))
            }
            ExprKind::Unary { op, operand } => {
                let o = self.expr(operand);
                match op {
                    UnOp::Neg => format!("(-{o})"),
                    UnOp::Pos => format!("(+{o})"),
                    UnOp::Not => format!("(NOT {o})"),
                }
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let op_txt = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::RealDiv => "/",
                    BinOp::IntDiv => "DIV",
                    BinOp::Modulo => "MOD",
                    BinOp::And => "AND",
                    BinOp::Or => "OR",
                    BinOp::Eq => "=",
                    BinOp::Neq => "#",
                    BinOp::Lt => "<",
                    BinOp::Le => "<=",
                    BinOp::Gt => ">",
                    BinOp::Ge => ">=",
                    BinOp::In => "IN",
                };
                format!("({} {op_txt} {})", self.expr(lhs), self.expr(rhs))
            }
            ExprKind::SetCons { of_type, elems } => {
                let es: Vec<String> = elems
                    .iter()
                    .map(|el| match el {
                        SetElem::Single(x) => self.expr(x),
                        SetElem::Range(a, b) => format!("{} .. {}", self.expr(a), self.expr(b)),
                    })
                    .collect();
                let prefix = of_type.map(|t| self.id(t)).unwrap_or_default();
                format!("{prefix}{{{}}}", es.join(", "))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex_file;
    use crate::parser::parse_implementation;
    use ccm2_support::source::SourceMap;
    use ccm2_support::{DiagnosticSink, Interner};

    fn roundtrip(src: &str) {
        let interner = Interner::new();
        let map = SourceMap::new();
        let sink = DiagnosticSink::new();
        let f1 = map.add("a.mod", src);
        let t1 = lex_file(&f1, &interner, &sink);
        let m1 = parse_implementation(&t1, &interner, &sink).expect("first parse");
        assert!(!sink.has_errors(), "{:?}", sink.snapshot());
        let printed = print_implementation(&m1, &interner);
        let f2 = map.add("b.mod", printed.clone());
        let t2 = lex_file(&f2, &interner, &sink);
        let m2 = parse_implementation(&t2, &interner, &sink)
            .unwrap_or_else(|| panic!("reparse failed for:\n{printed}"));
        assert!(
            !sink.has_errors(),
            "printed:\n{printed}\n{:?}",
            sink.snapshot()
        );
        // Compare via a second print (spans differ; text must agree).
        let printed2 = print_implementation(&m2, &interner);
        assert_eq!(printed, printed2, "print not a fixed point");
    }

    #[test]
    fn roundtrip_simple_module() {
        roundtrip("MODULE M; VAR x : INTEGER; BEGIN x := 1 END M.");
    }

    #[test]
    fn roundtrip_procedures_and_types() {
        roundtrip(
            "IMPLEMENTATION MODULE M; \
             IMPORT A; FROM B IMPORT c, d; \
             CONST N = 3 * 4; \
             TYPE P = POINTER TO R; R = RECORD x, y : INTEGER; t : CHAR END; \
             E = (red, green); S = SET OF [0 .. 7]; \
             F = PROCEDURE(INTEGER, VAR REAL) : BOOLEAN; \
             VAR v : ARRAY [1 .. N] OF R; \
             PROCEDURE Go(a : INTEGER; VAR out : REAL) : BOOLEAN; \
             VAR t : INTEGER; \
             BEGIN t := a; RETURN t > 0 END Go; \
             BEGIN END M.",
        );
    }

    #[test]
    fn roundtrip_all_statements() {
        roundtrip(
            "MODULE M; VAR i, n : INTEGER; r : RECORD f : INTEGER END; b : BITSET; \
             BEGIN \
               i := 0; \
               IF i = 0 THEN n := 1 ELSIF i > 2 THEN n := 2 ELSE n := 3 END; \
               WHILE i < 10 DO INC(i) END; \
               REPEAT DEC(i) UNTIL i <= 0; \
               FOR i := 1 TO 10 BY 2 DO n := n + i END; \
               LOOP EXIT END; \
               CASE i OF 1 : n := 1 | 2, 3 : n := 2 | 4 .. 6 : n := 3 ELSE n := 0 END; \
               WITH r DO f := 1 END; \
               LOCK n DO n := 0 END; \
               TRY n := 1 EXCEPT n := 2 FINALLY n := 3 END; \
               b := {1, 3 .. 5}; \
               RETURN \
             END M.",
        );
    }

    #[test]
    fn roundtrip_expressions() {
        roundtrip(
            "MODULE M; VAR a, b : INTEGER; p : BOOLEAN; r : REAL; c : CHAR; \
             BEGIN \
               a := (a + b) * (a - b) DIV 2 MOD 3; \
               p := (NOT p) OR ((a < b) AND (a # b)) OR (3 IN {1, 3}); \
               r := 2.5 / 0.5; \
               c := 'x'; \
               a := ABS(-a) \
             END M.",
        );
    }

    #[test]
    fn roundtrip_generated_modules() {
        // The pretty-printer must survive generator output too.
        let interner = Interner::new();
        let map = SourceMap::new();
        let sink = DiagnosticSink::new();
        let src = "IMPLEMENTATION MODULE G; \
             PROCEDURE A(p0 : INTEGER) : INTEGER; \
               PROCEDURE B(q : INTEGER) : INTEGER; BEGIN RETURN q + p0 END B; \
             BEGIN RETURN B(1) END A; \
             BEGIN END G.";
        let f = map.add("g.mod", src);
        let t = lex_file(&f, &interner, &sink);
        let m = parse_implementation(&t, &interner, &sink).expect("parses");
        let printed = print_implementation(&m, &interner);
        assert!(printed.contains("PROCEDURE B(q : INTEGER) : INTEGER;"));
    }
}
