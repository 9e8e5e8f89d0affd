//! A definition module's completed interface as data.
//!
//! Per §3 every imported definition module is a stream of its own whose
//! Parser/DeclAnalyzer fills one scope table. [`capture`] turns that
//! completed table into an [`Interface`]: its entries and every type they
//! reach. [`install_types`] and [`install_entries`] rebuild it in another
//! compile's tables, so that compile never lexes, imports or parses the
//! module again (the incremental cache keeps interfaces keyed by the
//! module's text and its imports' keys).
//!
//! # Type numbering
//!
//! An interface numbers the types it names in a space of its own. Ids
//! below [`TypeId::FIRST_DYNAMIC`] are the builtins, as everywhere. The
//! next `types.len()` ids are the types the module's own declarations
//! created, in table order. The ids after those are `links`: each is a
//! type another interface owns, named by its place in that interface's
//! table. A type declared in `Y` and used by `X` is therefore stored once,
//! in `Y`, and keeps its identity (Modula-2 types are equal by name) in
//! every compile that installs both.
//!
//! A table is built front to back: a type refers only to earlier ids,
//! except that a pointer may refer forward (a forward-declared
//! `POINTER TO`) and is patched once the table is built.

use std::collections::{HashMap, HashSet};

use ccm2_support::ids::ScopeId;
use ccm2_support::intern::Symbol;
pub use ccm2_syntax::ast::{Ident, Import};

use crate::symtab::{ParamSig, ProcInfo, ProcSig, SymbolEntry, SymbolKind, VarInfo};
use crate::types::{Type, TypeId};
use crate::Sema;

/// A definition module's completed scope, in its own type numbering.
#[derive(Clone, Debug, PartialEq)]
pub struct Interface {
    /// The module's imports as the parser read them. Installing binds
    /// them again, against the importing compile's scopes.
    pub imports: Vec<Import>,
    /// The interfaces `links` point into, by module name.
    pub deps: Vec<Symbol>,
    /// Types other interfaces own: (index into `deps`, index into that
    /// interface's `types`).
    pub links: Vec<(u32, u32)>,
    /// The types the module's declarations created, in table order.
    pub types: Vec<Type>,
    /// The scope's entries sorted by name, without the module and alias
    /// entries its imports make.
    pub entries: Vec<SymbolEntry>,
    /// Variable slots allocated in the scope.
    pub slots: u32,
}

impl Interface {
    /// Whether [`install_types`] and [`install_entries`] can build this
    /// interface: every id is one the numbering defines (never the
    /// pending placeholder), every link names a dep, every own type is one
    /// a declaration creates, only a pointer refers forward, and no entry
    /// is an import binding. [`capture`] makes only such interfaces; a
    /// decoder checks the ones it reads.
    pub fn is_well_formed(&self) -> bool {
        let own_end = TypeId::FIRST_DYNAMIC + self.types.len() as u32;
        let end = own_end + self.links.len() as u32;
        let defined = |t: TypeId| t != TypeId::PENDING && t.0 < end;
        let types_ok = self.types.iter().enumerate().all(|(i, ty)| {
            let later = TypeId::FIRST_DYNAMIC + i as u32..own_end;
            let pointer = matches!(ty, Type::Pointer { .. });
            let mut ok = is_declared(ty);
            map_type(ty, &mut |t| {
                ok &= defined(t) && (pointer || !later.contains(&t.0));
                t
            });
            ok
        });
        let entries_ok = self.entries.iter().all(|e| {
            let mut ok = !is_binding(&e.kind);
            map_kind(&e.kind, &mut |t| {
                ok &= defined(t);
                t
            });
            ok
        });
        let deps = self.deps.len() as u32;
        types_ok && entries_ok && self.links.iter().all(|&(dep, _)| dep < deps)
    }
}

/// The entries `bind_imports` makes: installing makes them again.
fn is_binding(kind: &SymbolKind) -> bool {
    matches!(kind, SymbolKind::Module { .. } | SymbolKind::Alias { .. })
}

/// Whether a declaration creates types of this shape; the builtin shapes
/// exist once, under their fixed ids.
fn is_declared(ty: &Type) -> bool {
    matches!(
        ty,
        Type::Enumeration { .. }
            | Type::Subrange { .. }
            | Type::Array { .. }
            | Type::OpenArray { .. }
            | Type::Record { .. }
            | Type::Pointer { .. }
            | Type::Set { .. }
            | Type::Proc { .. }
            | Type::Opaque { .. }
    )
}

/// `ty` with every type id it names passed through `f`, in the order
/// they are written.
fn map_type(ty: &Type, f: &mut impl FnMut(TypeId) -> TypeId) -> Type {
    match ty {
        Type::Subrange { base, lo, hi } => Type::Subrange {
            base: f(*base),
            lo: *lo,
            hi: *hi,
        },
        Type::Array { index, elem } => Type::Array {
            index: f(*index),
            elem: f(*elem),
        },
        Type::OpenArray { elem } => Type::OpenArray { elem: f(*elem) },
        Type::Record { fields } => Type::Record {
            fields: fields.iter().map(|&(name, t)| (name, f(t))).collect(),
        },
        Type::Pointer { to } => Type::Pointer { to: f(*to) },
        Type::Set { of } => Type::Set { of: f(*of) },
        Type::Proc { params, ret } => Type::Proc {
            params: params.iter().map(|&(var, t)| (var, f(t))).collect(),
            ret: ret.map(&mut *f),
        },
        other => other.clone(),
    }
}

/// `kind` with every type id it names passed through `f`.
fn map_kind(kind: &SymbolKind, f: &mut impl FnMut(TypeId) -> TypeId) -> SymbolKind {
    match kind {
        SymbolKind::Const { value, ty } => SymbolKind::Const {
            value: *value,
            ty: f(*ty),
        },
        SymbolKind::TypeName { ty } => SymbolKind::TypeName { ty: f(*ty) },
        SymbolKind::Var(v) => SymbolKind::Var(VarInfo { ty: f(v.ty), ..*v }),
        SymbolKind::Proc(p) => SymbolKind::Proc(ProcInfo {
            sig: ProcSig {
                params: p
                    .sig
                    .params
                    .iter()
                    .map(|q| ParamSig {
                        is_var: q.is_var,
                        ty: f(q.ty),
                    })
                    .collect(),
                ret: p.sig.ret.map(&mut *f),
            },
            code_name: p.code_name,
            level: p.level,
        }),
        SymbolKind::EnumConst { ty, value } => SymbolKind::EnumConst {
            ty: f(*ty),
            value: *value,
        },
        SymbolKind::Module { .. } | SymbolKind::Alias { .. } => kind.clone(),
    }
}

/// Where a type reached by a capture sits in the interface's numbering.
#[derive(Clone, Copy)]
enum Slot {
    Own(u32),
    Link(u32),
}

/// The depth-first walk that orders an interface's own types.
struct Walk<'a> {
    sema: &'a Sema,
    owner: &'a dyn Fn(TypeId) -> Option<(Symbol, u32)>,
    slots: HashMap<TypeId, Slot>,
    /// Own types, in table order, by their ids in this compile.
    own: Vec<TypeId>,
    links: Vec<(Symbol, u32)>,
    /// Types whose components are being walked.
    open: HashSet<TypeId>,
}

impl Walk<'_> {
    /// Gives `t` and everything it reaches a slot; false for a type the
    /// numbering cannot name.
    fn visit(&mut self, t: TypeId) -> bool {
        if t.0 < TypeId::FIRST_DYNAMIC {
            return t != TypeId::PENDING;
        }
        if self.slots.contains_key(&t) {
            return true;
        }
        if let Some(link) = (self.owner)(t) {
            self.slots.insert(t, Slot::Link(self.links.len() as u32));
            self.links.push(link);
            return true;
        }
        let ty = self.sema.types.get(t);
        if !is_declared(&ty) || !self.open.insert(t) {
            return false;
        }
        // A pointer takes its place before its pointee: the one edge of
        // a table that may point forward.
        let pointer = matches!(*ty, Type::Pointer { .. });
        if pointer {
            self.place(t);
        }
        let mut ok = true;
        map_type(&ty, &mut |c| {
            ok &= self.visit(c);
            c
        });
        if !pointer {
            self.place(t);
        }
        ok
    }

    fn place(&mut self, t: TypeId) {
        self.slots.insert(t, Slot::Own(self.own.len() as u32));
        self.own.push(t);
    }
}

/// Captures `scope`, a completed definition-module table, as an
/// interface. `owner` names the earlier interface that owns a type this
/// scope's declarations did not create: `(module, index in its table)`.
/// Every other type an entry reaches becomes one of the interface's own.
///
/// Returns the interface and the ids of its own types in table order
/// (what a later capture's `owner` answers with), or `None` when an entry
/// reaches a type the numbering cannot name.
pub fn capture(
    sema: &Sema,
    scope: ScopeId,
    imports: Vec<Import>,
    owner: &dyn Fn(TypeId) -> Option<(Symbol, u32)>,
) -> Option<(Interface, Vec<TypeId>)> {
    let table = sema.tables.scope(scope);
    let mut entries: Vec<(&str, SymbolEntry)> = table
        .entries_sorted()
        .into_iter()
        .filter(|e| !is_binding(&e.kind))
        .map(|e| (sema.interner.as_str(e.name), e))
        .collect();
    entries.sort_by(|a, b| a.0.cmp(b.0));
    let mut walk = Walk {
        sema,
        owner,
        slots: HashMap::new(),
        own: Vec::new(),
        links: Vec::new(),
        open: HashSet::new(),
    };
    for (_, e) in &entries {
        let mut ok = true;
        map_kind(&e.kind, &mut |t| {
            ok &= walk.visit(t);
            t
        });
        if !ok {
            return None;
        }
    }
    let own_len = walk.own.len() as u32;
    let mut local = |t: TypeId| match walk.slots.get(&t) {
        None => t,
        Some(Slot::Own(i)) => TypeId(TypeId::FIRST_DYNAMIC + i),
        Some(Slot::Link(j)) => TypeId(TypeId::FIRST_DYNAMIC + own_len + j),
    };
    let types = walk
        .own
        .iter()
        .map(|&t| map_type(&sema.types.get(t), &mut local))
        .collect();
    let entries = entries
        .into_iter()
        .map(|(_, e)| SymbolEntry {
            kind: map_kind(&e.kind, &mut local),
            ..e
        })
        .collect();
    let mut deps: Vec<Symbol> = Vec::new();
    let links = walk
        .links
        .iter()
        .map(|&(module, index)| {
            let dep = deps.iter().position(|&d| d == module).unwrap_or_else(|| {
                deps.push(module);
                deps.len() - 1
            });
            (dep as u32, index)
        })
        .collect();
    let iface = Interface {
        imports,
        deps,
        links,
        types,
        entries,
        slots: table.slot_count(),
    };
    Some((iface, walk.own))
}

/// The id in this compile of `t`, an id in `iface`'s numbering.
fn global(iface: &Interface, t: TypeId, own: &[TypeId], deps: &[&[TypeId]]) -> TypeId {
    let Some(at) = t.0.checked_sub(TypeId::FIRST_DYNAMIC) else {
        return t;
    };
    let at = at as usize;
    if at < iface.types.len() {
        return own[at];
    }
    let (dep, index) = iface.links[at - iface.types.len()];
    deps[dep as usize][index as usize]
}

/// Creates `iface`'s own types in this compile's store, in table order,
/// and returns their ids. `deps[k]` holds what this returned for
/// `iface.deps[k]`, and each link must index into it. A pointer that
/// refers forward is created pending, owned by `scope`, and patched
/// before this returns, so no reader ever waits on that owner.
pub fn install_types(
    sema: &Sema,
    iface: &Interface,
    deps: &[&[TypeId]],
    scope: ScopeId,
) -> Vec<TypeId> {
    let own_end = TypeId::FIRST_DYNAMIC + iface.types.len() as u32;
    let mut own: Vec<TypeId> = Vec::with_capacity(iface.types.len());
    let mut forward = Vec::new();
    for ty in &iface.types {
        let unbuilt = TypeId::FIRST_DYNAMIC + own.len() as u32..own_end;
        let id = match *ty {
            Type::Pointer { to } if unbuilt.contains(&to.0) => {
                let ptr = sema.types.add_forward_pointer(scope);
                forward.push((ptr, to));
                ptr
            }
            _ => sema
                .types
                .add(map_type(ty, &mut |t| global(iface, t, &own, deps))),
        };
        own.push(id);
    }
    for (ptr, to) in forward {
        sema.types.patch_pointer(ptr, global(iface, to, &own, deps));
    }
    own
}

/// Inserts `iface`'s entries into `scope` and allocates its slots. `own`
/// is what [`install_types`] returned for it. The caller binds the
/// imports before and completes the scope after.
pub fn install_entries(
    sema: &Sema,
    iface: &Interface,
    scope: ScopeId,
    own: &[TypeId],
    deps: &[&[TypeId]],
) {
    sema.tables.scope(scope).alloc_slots(iface.slots);
    for e in &iface.entries {
        let entry = SymbolEntry {
            name: e.name,
            kind: map_kind(&e.kind, &mut |t| global(iface, t, own, deps)),
            span: e.span,
        };
        // A clash with an import binding is a redeclaration the live
        // parse reported, and a module with a diagnostic is never
        // captured: only a forged interface gets here.
        let _ = sema.tables.insert(scope, entry);
    }
}
