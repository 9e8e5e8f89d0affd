//! Builtin ("pervasive") names.
//!
//! Paper §2.2: in a conventional compiler, builtins live in a global scope
//! that is the logical parent of the module being compiled; in a concurrent
//! compiler that design would make the *first* reference to a builtin incur
//! DKY waits on every scope out to the global one. Because builtin names
//! cannot be redefined in Modula-2+, the paper instead treats them *as if
//! declared local to every scope* via a modification of the search — no
//! entry replication.
//!
//! [`BuiltinTable`] is that mechanism: one immutable map consulted by the
//! symbol-table search (see [`crate::symtab`]) before it chains outward.

use std::collections::HashMap;

use ccm2_support::hash::FixedState;
use ccm2_support::intern::{Interner, Symbol};

use crate::types::TypeId;
use crate::value::ConstValue;

/// Builtin procedures and functions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Builtin {
    /// `ABS(x)`.
    Abs,
    /// `CAP(ch)`.
    Cap,
    /// `CHR(x)`.
    Chr,
    /// `DEC(v [, n])`.
    Dec,
    /// `DISPOSE(p)`.
    Dispose,
    /// `EXCL(s, x)`.
    Excl,
    /// `FLOAT(x)`.
    Float,
    /// `HALT`.
    Halt,
    /// `HIGH(a)` — high index of an open array.
    High,
    /// `INC(v [, n])`.
    Inc,
    /// `INCL(s, x)`.
    Incl,
    /// `MAX(T)`.
    Max,
    /// `MIN(T)`.
    Min,
    /// `NEW(p)`.
    New,
    /// `ODD(x)`.
    Odd,
    /// `ORD(x)`.
    Ord,
    /// `TRUNC(r)`.
    Trunc,
    /// `VAL(T, x)`.
    Val,
    /// `WriteInt(x, w)` — environment I/O, provided pervasively by the
    /// Modula-2+ runtime in this reproduction.
    WriteInt,
    /// `WriteCard(x, w)`.
    WriteCard,
    /// `WriteChar(c)`.
    WriteChar,
    /// `WriteString(s)`.
    WriteString,
    /// `WriteLn`.
    WriteLn,
    /// `WriteReal(r, w)`.
    WriteReal,
    /// `sin(x)` — builtin math, the paper's own example of a builtin name.
    Sin,
    /// `cos(x)`.
    Cos,
    /// `sqrt(x)` — the paper's other example.
    Sqrt,
    /// `exp(x)`.
    Exp,
    /// `ln(x)`.
    Ln,
}

impl Builtin {
    /// All builtins with their source-level names.
    pub const ALL: &'static [(&'static str, Builtin)] = &[
        ("ABS", Builtin::Abs),
        ("CAP", Builtin::Cap),
        ("CHR", Builtin::Chr),
        ("DEC", Builtin::Dec),
        ("DISPOSE", Builtin::Dispose),
        ("EXCL", Builtin::Excl),
        ("FLOAT", Builtin::Float),
        ("HALT", Builtin::Halt),
        ("HIGH", Builtin::High),
        ("INC", Builtin::Inc),
        ("INCL", Builtin::Incl),
        ("MAX", Builtin::Max),
        ("MIN", Builtin::Min),
        ("NEW", Builtin::New),
        ("ODD", Builtin::Odd),
        ("ORD", Builtin::Ord),
        ("TRUNC", Builtin::Trunc),
        ("VAL", Builtin::Val),
        ("WriteInt", Builtin::WriteInt),
        ("WriteCard", Builtin::WriteCard),
        ("WriteChar", Builtin::WriteChar),
        ("WriteString", Builtin::WriteString),
        ("WriteLn", Builtin::WriteLn),
        ("WriteReal", Builtin::WriteReal),
        ("sin", Builtin::Sin),
        ("cos", Builtin::Cos),
        ("sqrt", Builtin::Sqrt),
        ("exp", Builtin::Exp),
        ("ln", Builtin::Ln),
    ];
}

/// What a builtin name denotes.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum BuiltinDef {
    /// A pervasive constant (`TRUE`, `FALSE`, `NIL`).
    Const(ConstValue, TypeId),
    /// A pervasive type name (`INTEGER`, `REAL`, …).
    Type(TypeId),
    /// A builtin procedure/function.
    Proc(Builtin),
}

/// The pervasive-name table consulted by symbol search at every scope.
///
/// # Examples
///
/// ```
/// use ccm2_support::Interner;
/// use ccm2_sema::builtins::{BuiltinDef, BuiltinTable};
/// use ccm2_sema::types::TypeId;
///
/// let interner = Interner::new();
/// let table = BuiltinTable::new(&interner);
/// let sym = interner.intern("INTEGER");
/// assert_eq!(table.lookup(sym), Some(BuiltinDef::Type(TypeId::INTEGER)));
/// assert!(table.lookup(interner.intern("NotABuiltin")).is_none());
/// ```
#[derive(Debug)]
pub struct BuiltinTable {
    map: HashMap<Symbol, BuiltinDef, FixedState>,
}

impl BuiltinTable {
    /// Builds the table, interning every pervasive name in `interner`.
    pub fn new(interner: &Interner) -> BuiltinTable {
        let mut map = HashMap::with_hasher(FixedState);
        map.insert(
            interner.intern("TRUE"),
            BuiltinDef::Const(ConstValue::Bool(true), TypeId::BOOLEAN),
        );
        map.insert(
            interner.intern("FALSE"),
            BuiltinDef::Const(ConstValue::Bool(false), TypeId::BOOLEAN),
        );
        map.insert(
            interner.intern("NIL"),
            BuiltinDef::Const(ConstValue::Nil, TypeId::NILTYPE),
        );
        for (name, id) in [
            ("INTEGER", TypeId::INTEGER),
            ("CARDINAL", TypeId::CARDINAL),
            ("BOOLEAN", TypeId::BOOLEAN),
            ("CHAR", TypeId::CHAR),
            ("REAL", TypeId::REAL),
            ("BITSET", TypeId::BITSET),
            ("PROC", TypeId::PROC),
            ("ADDRESS", TypeId::ADDRESS),
        ] {
            map.insert(interner.intern(name), BuiltinDef::Type(id));
        }
        for &(name, b) in Builtin::ALL {
            map.insert(interner.intern(name), BuiltinDef::Proc(b));
        }
        BuiltinTable { map }
    }

    /// Looks up a pervasive name.
    pub fn lookup(&self, name: Symbol) -> Option<BuiltinDef> {
        self.map.get(&name).copied()
    }

    /// Returns `true` if `name` is pervasive (and therefore cannot be
    /// redeclared — checked during declaration analysis).
    pub fn contains(&self, name: Symbol) -> bool {
        self.map.contains_key(&name)
    }

    /// Number of pervasive names.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Never true.
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_and_types_present() {
        let i = Interner::new();
        let t = BuiltinTable::new(&i);
        assert_eq!(
            t.lookup(i.intern("TRUE")),
            Some(BuiltinDef::Const(ConstValue::Bool(true), TypeId::BOOLEAN))
        );
        assert_eq!(
            t.lookup(i.intern("NIL")),
            Some(BuiltinDef::Const(ConstValue::Nil, TypeId::NILTYPE))
        );
        assert_eq!(
            t.lookup(i.intern("REAL")),
            Some(BuiltinDef::Type(TypeId::REAL))
        );
    }

    #[test]
    fn paper_examples_sin_and_sqrt_are_builtin() {
        let i = Interner::new();
        let t = BuiltinTable::new(&i);
        assert_eq!(
            t.lookup(i.intern("sin")),
            Some(BuiltinDef::Proc(Builtin::Sin))
        );
        assert_eq!(
            t.lookup(i.intern("sqrt")),
            Some(BuiltinDef::Proc(Builtin::Sqrt))
        );
    }

    #[test]
    fn case_sensitive() {
        let i = Interner::new();
        let t = BuiltinTable::new(&i);
        assert!(t.contains(i.intern("ORD")));
        assert!(!t.contains(i.intern("ord")));
    }

    #[test]
    fn all_proc_names_resolve() {
        let i = Interner::new();
        let t = BuiltinTable::new(&i);
        for &(name, b) in Builtin::ALL {
            assert_eq!(t.lookup(i.intern(name)), Some(BuiltinDef::Proc(b)));
        }
    }
}
