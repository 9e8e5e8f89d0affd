//! The Modula-2+ type representation.
//!
//! Types live in a process-wide append-only [`TypeStore`] so that
//! concurrently running declaration-analysis tasks can create types without
//! coordination beyond an internal writer lock, and read them with none.
//! Types are referred to by
//! [`TypeId`]; the well-known builtin types have fixed ids so every task
//! agrees on them without synchronization.
//!
//! Type identity follows Modula-2 name equivalence: every elaborated type
//! expression gets a fresh `TypeId`, and compatibility is decided by the
//! rules in [`TypeStore::assignable`] / [`TypeStore::same_type`].

use ccm2_support::ids::ScopeId;
use ccm2_support::intern::Symbol;
use ccm2_support::AppendArena;
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::HashMap;

/// Identifies a type in a [`TypeStore`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TypeId(pub u32);

impl TypeId {
    /// The error ("poison") type: produced when elaboration fails, silently
    /// compatible with everything to avoid error cascades.
    pub const ERROR: TypeId = TypeId(0);
    /// `INTEGER`.
    pub const INTEGER: TypeId = TypeId(1);
    /// `CARDINAL`.
    pub const CARDINAL: TypeId = TypeId(2);
    /// `BOOLEAN`.
    pub const BOOLEAN: TypeId = TypeId(3);
    /// `CHAR`.
    pub const CHAR: TypeId = TypeId(4);
    /// `REAL`.
    pub const REAL: TypeId = TypeId(5);
    /// `BITSET`.
    pub const BITSET: TypeId = TypeId(6);
    /// The type of `NIL`.
    pub const NILTYPE: TypeId = TypeId(7);
    /// The type of string literals.
    pub const STRING: TypeId = TypeId(8);
    /// `PROC` (parameterless procedure type).
    pub const PROC: TypeId = TypeId(9);
    /// Placeholder for not-yet-patched forward pointer targets.
    pub const PENDING: TypeId = TypeId(10);
    /// `ADDRESS` (SYSTEM-ish; used by Modula-2+ LOCK designators).
    pub const ADDRESS: TypeId = TypeId(11);

    /// The first id a type added after the builtins gets.
    pub const FIRST_DYNAMIC: u32 = 12;
}

/// Structural description of a type.
#[derive(Clone, PartialEq, Debug)]
pub enum Type {
    /// The poison type.
    Error,
    /// `INTEGER`.
    Integer,
    /// `CARDINAL`.
    Cardinal,
    /// `BOOLEAN`.
    Boolean,
    /// `CHAR`.
    Char,
    /// `REAL`.
    Real,
    /// `BITSET` (set of 0..63 here; see crate docs).
    Bitset,
    /// The type of the literal `NIL`.
    Nil,
    /// The type of string literals.
    StringLit,
    /// Pending forward-pointer target (patched during declaration
    /// analysis).
    Pending,
    /// `ADDRESS`.
    Address,
    /// An enumeration; members are also entered in the declaring scope.
    Enumeration {
        /// Member names in declaration order (member k has ordinal k).
        members: Vec<Symbol>,
    },
    /// A subrange `[lo .. hi]` of an ordinal base type.
    Subrange {
        /// The base ordinal type.
        base: TypeId,
        /// Lower bound (as an ordinal value).
        lo: i64,
        /// Upper bound (as an ordinal value).
        hi: i64,
    },
    /// `ARRAY index OF elem`.
    Array {
        /// Index type (ordinal; gives the bounds).
        index: TypeId,
        /// Element type.
        elem: TypeId,
    },
    /// Open array formal `ARRAY OF elem`.
    OpenArray {
        /// Element type.
        elem: TypeId,
    },
    /// A record with named fields.
    Record {
        /// Fields in declaration order.
        fields: Vec<(Symbol, TypeId)>,
    },
    /// `POINTER TO to`.
    Pointer {
        /// Pointee (may start as [`TypeId::PENDING`] for forward refs).
        to: TypeId,
    },
    /// `SET OF of` (base must be ordinal with ordinals in 0..63).
    Set {
        /// Base ordinal type.
        of: TypeId,
    },
    /// A procedure type.
    Proc {
        /// Parameters: (is-VAR, type).
        params: Vec<(bool, TypeId)>,
        /// Return type, if a function procedure.
        ret: Option<TypeId>,
    },
    /// An opaque type from a definition module (`TYPE T;`).
    Opaque {
        /// The declared name (for diagnostics).
        name: Symbol,
    },
}

/// What the store knows of a forward pointer beyond its arena slot (which
/// keeps reading [`TypeId::PENDING`]).
#[derive(Clone, Copy, Debug)]
enum Forward {
    /// Not patched yet; the scope whose declaration part will patch it.
    Owner(ScopeId),
    /// Patched to this pointee.
    Patched(TypeId),
}

/// Append-only, thread-safe arena of [`Type`]s.
///
/// A stored type is never written again, so reading one takes no lock.
/// The one mutation the language needs — filling in a forward pointer's
/// pointee — is kept in a side table that only a `Pointer` still reading
/// `PENDING` consults.
///
/// # Examples
///
/// ```
/// use ccm2_sema::types::{Type, TypeId, TypeStore};
/// let store = TypeStore::new();
/// let t = store.add(Type::Pointer { to: TypeId::INTEGER });
/// assert!(matches!(*store.get(t), Type::Pointer { .. }));
/// assert!(store.assignable(TypeId::INTEGER, TypeId::CARDINAL));
/// ```
#[derive(Debug)]
pub struct TypeStore {
    types: AppendArena<Type>,
    /// One map for owner and patch, so that a reader sees a forward
    /// pointer as either still owned or patched, never as neither.
    forward: Mutex<HashMap<TypeId, Forward>>,
}

impl TypeStore {
    /// Creates a store pre-populated with the builtin types at their fixed
    /// ids.
    pub fn new() -> TypeStore {
        let store = TypeStore {
            types: AppendArena::new(),
            forward: Mutex::default(),
        };
        for ty in [
            Type::Error,
            Type::Integer,
            Type::Cardinal,
            Type::Boolean,
            Type::Char,
            Type::Real,
            Type::Bitset,
            Type::Nil,
            Type::StringLit,
            Type::Proc {
                params: Vec::new(),
                ret: None,
            },
            Type::Pending,
            Type::Address,
        ] {
            store.add(ty);
        }
        debug_assert_eq!(store.len() as u32, TypeId::FIRST_DYNAMIC);
        store
    }

    /// Adds a type, returning its id.
    pub fn add(&self, ty: Type) -> TypeId {
        TypeId(self.types.push(ty) as u32)
    }

    /// The type as stored: a forward pointer reads `PENDING` here even
    /// after it was patched, so this serves only callers that do not look
    /// at a pointee.
    fn stored(&self, id: TypeId) -> &Type {
        self.types
            .get(id.0 as usize)
            .expect("type id from another store")
    }

    /// Returns the type under `id`, borrowed from the store; only a
    /// patched forward pointer is built.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this store.
    pub fn get(&self, id: TypeId) -> Cow<'_, Type> {
        let ty = self.stored(id);
        if matches!(ty, Type::Pointer { to } if *to == TypeId::PENDING) {
            if let Some(&Forward::Patched(to)) = self.forward.lock().get(&id) {
                return Cow::Owned(Type::Pointer { to });
            }
        }
        Cow::Borrowed(ty)
    }

    /// Adds a pointer whose pointee is named but may be declared later in
    /// `owner`'s declaration part: it points to [`TypeId::PENDING`] until
    /// that part ends and [`TypeStore::patch_pointer`] fills it in.
    pub fn add_forward_pointer(&self, owner: ScopeId) -> TypeId {
        let ptr = self.add(Type::Pointer {
            to: TypeId::PENDING,
        });
        self.forward.lock().insert(ptr, Forward::Owner(owner));
        ptr
    }

    /// Patches the pointee of a forward-declared pointer type.
    ///
    /// # Panics
    ///
    /// Panics if `ptr` is not a pointer type still pending.
    pub fn patch_pointer(&self, ptr: TypeId, target: TypeId) {
        match self.stored(ptr) {
            Type::Pointer {
                to: TypeId::PENDING,
            } => {}
            other => panic!("patch_pointer on {other:?}, not a pending pointer"),
        }
        self.forward.lock().insert(ptr, Forward::Patched(target));
    }

    /// The scope that will patch forward pointer `ptr`, while it is still
    /// unpatched.
    pub fn pending_owner(&self, ptr: TypeId) -> Option<ScopeId> {
        match self.forward.lock().get(&ptr) {
            Some(&Forward::Owner(scope)) => Some(scope),
            _ => None,
        }
    }

    /// Number of types in the store (builtin + dynamic).
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Always false: the store is born with the builtin types.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Strips subranges down to their base type.
    pub fn strip_subrange(&self, id: TypeId) -> TypeId {
        match self.stored(id) {
            Type::Subrange { base, .. } => self.strip_subrange(*base),
            _ => id,
        }
    }

    /// Returns `true` for ordinal types (valid array indices, set bases,
    /// CASE scrutinees, FOR control variables).
    pub fn is_ordinal(&self, id: TypeId) -> bool {
        matches!(
            self.stored(self.strip_subrange(id)),
            Type::Integer | Type::Cardinal | Type::Boolean | Type::Char | Type::Enumeration { .. }
        ) || id == TypeId::ERROR
    }

    /// Returns `true` if the type is numeric (INTEGER/CARDINAL/subranges).
    pub fn is_integerlike(&self, id: TypeId) -> bool {
        matches!(
            self.stored(self.strip_subrange(id)),
            Type::Integer | Type::Cardinal
        ) || id == TypeId::ERROR
    }

    /// The inclusive ordinal bounds of an ordinal type, if known.
    pub fn ordinal_bounds(&self, id: TypeId) -> Option<(i64, i64)> {
        match self.stored(id) {
            Type::Subrange { lo, hi, .. } => Some((*lo, *hi)),
            Type::Boolean => Some((0, 1)),
            Type::Char => Some((0, 255)),
            Type::Enumeration { members } => Some((0, members.len() as i64 - 1)),
            Type::Integer => Some((i64::MIN / 2, i64::MAX / 2)),
            Type::Cardinal => Some((0, i64::MAX / 2)),
            _ => None,
        }
    }

    /// Name-equivalence with poison tolerance: two types are "the same"
    /// if they have equal ids, either is `ERROR`, or both are the same
    /// builtin class after subrange stripping.
    pub fn same_type(&self, a: TypeId, b: TypeId) -> bool {
        if a == b || a == TypeId::ERROR || b == TypeId::ERROR {
            return true;
        }
        let sa = self.strip_subrange(a);
        let sb = self.strip_subrange(b);
        if sa == sb {
            return true;
        }
        // INTEGER and CARDINAL are mutually compatible in expressions.
        self.is_integerlike(sa) && self.is_integerlike(sb)
    }

    /// Assignment compatibility (`dst := src`), per PIM with the usual
    /// relaxations: INTEGER/CARDINAL/subranges inter-assign, CHAR accepts
    /// char literals, any pointer or procedure type accepts NIL, arrays of
    /// CHAR accept string literals, ADDRESS accepts any pointer.
    pub fn assignable(&self, dst: TypeId, src: TypeId) -> bool {
        if self.same_type(dst, src) {
            return true;
        }
        let d = self.stored(self.strip_subrange(dst));
        let s = self.stored(self.strip_subrange(src));
        match (d, s) {
            (Type::Pointer { .. }, Type::Nil) | (Type::Proc { .. }, Type::Nil) => true,
            (Type::Address, Type::Pointer { .. }) | (Type::Address, Type::Nil) => true,
            (Type::Char, Type::StringLit) => true,
            (Type::Array { elem, .. }, Type::StringLit) => {
                self.strip_subrange(*elem) == TypeId::CHAR
            }
            (Type::OpenArray { elem }, Type::Array { elem: se, .. }) => self.same_type(*elem, *se),
            (Type::OpenArray { elem }, Type::StringLit) => {
                self.strip_subrange(*elem) == TypeId::CHAR
            }
            // Structural tolerance for procedure values.
            (
                Type::Proc {
                    params: dp,
                    ret: dr,
                },
                Type::Proc {
                    params: sp,
                    ret: sr,
                },
            ) => {
                dp.len() == sp.len()
                    && dp
                        .iter()
                        .zip(sp)
                        .all(|((dv, dt), (sv, st))| dv == sv && self.same_type(*dt, *st))
                    && match (dr, sr) {
                        (None, None) => true,
                        (Some(a), Some(b)) => self.same_type(*a, *b),
                        _ => false,
                    }
            }
            _ => false,
        }
    }

    /// Number of elements of a (closed) array type.
    pub fn array_len(&self, index: TypeId) -> Option<i64> {
        let (lo, hi) = self.ordinal_bounds(index)?;
        Some(hi - lo + 1)
    }
}

impl Default for TypeStore {
    fn default() -> Self {
        TypeStore::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccm2_support::intern::Interner;

    #[test]
    fn builtin_ids_are_fixed() {
        let s = TypeStore::new();
        assert_eq!(*s.get(TypeId::INTEGER), Type::Integer);
        assert_eq!(*s.get(TypeId::BOOLEAN), Type::Boolean);
        assert_eq!(*s.get(TypeId::ERROR), Type::Error);
    }

    #[test]
    fn add_and_get_round_trip() {
        let s = TypeStore::new();
        let t = s.add(Type::Set { of: TypeId::CHAR });
        assert_eq!(*s.get(t), Type::Set { of: TypeId::CHAR });
    }

    #[test]
    fn subrange_stripping_recurses() {
        let s = TypeStore::new();
        let r1 = s.add(Type::Subrange {
            base: TypeId::INTEGER,
            lo: 0,
            hi: 10,
        });
        let r2 = s.add(Type::Subrange {
            base: r1,
            lo: 0,
            hi: 5,
        });
        assert_eq!(s.strip_subrange(r2), TypeId::INTEGER);
        assert!(s.is_ordinal(r2));
        assert!(s.is_integerlike(r2));
    }

    #[test]
    fn integer_cardinal_compatible() {
        let s = TypeStore::new();
        assert!(s.same_type(TypeId::INTEGER, TypeId::CARDINAL));
        assert!(s.assignable(TypeId::CARDINAL, TypeId::INTEGER));
        assert!(!s.same_type(TypeId::INTEGER, TypeId::REAL));
    }

    #[test]
    fn nil_assignable_to_pointers_and_procs() {
        let s = TypeStore::new();
        let p = s.add(Type::Pointer { to: TypeId::REAL });
        assert!(s.assignable(p, TypeId::NILTYPE));
        assert!(s.assignable(TypeId::PROC, TypeId::NILTYPE));
        assert!(!s.assignable(TypeId::INTEGER, TypeId::NILTYPE));
        assert!(s.assignable(TypeId::ADDRESS, p));
    }

    #[test]
    fn string_literal_assigns_to_char_arrays() {
        let s = TypeStore::new();
        let ix = s.add(Type::Subrange {
            base: TypeId::INTEGER,
            lo: 0,
            hi: 9,
        });
        let arr = s.add(Type::Array {
            index: ix,
            elem: TypeId::CHAR,
        });
        assert!(s.assignable(arr, TypeId::STRING));
        assert!(s.assignable(TypeId::CHAR, TypeId::STRING));
        let int_arr = s.add(Type::Array {
            index: ix,
            elem: TypeId::INTEGER,
        });
        assert!(!s.assignable(int_arr, TypeId::STRING));
    }

    #[test]
    fn open_array_accepts_matching_arrays() {
        let s = TypeStore::new();
        let ix = s.add(Type::Subrange {
            base: TypeId::INTEGER,
            lo: 1,
            hi: 4,
        });
        let arr = s.add(Type::Array {
            index: ix,
            elem: TypeId::REAL,
        });
        let open = s.add(Type::OpenArray { elem: TypeId::REAL });
        assert!(s.assignable(open, arr));
        assert_eq!(s.array_len(ix), Some(4));
    }

    #[test]
    fn proc_types_structurally_compatible() {
        let s = TypeStore::new();
        let a = s.add(Type::Proc {
            params: vec![(false, TypeId::INTEGER)],
            ret: Some(TypeId::BOOLEAN),
        });
        let b = s.add(Type::Proc {
            params: vec![(false, TypeId::INTEGER)],
            ret: Some(TypeId::BOOLEAN),
        });
        let c = s.add(Type::Proc {
            params: vec![(true, TypeId::INTEGER)],
            ret: Some(TypeId::BOOLEAN),
        });
        assert!(s.assignable(a, b));
        assert!(!s.assignable(a, c), "VAR-ness matters");
    }

    #[test]
    fn pointer_patching() {
        let s = TypeStore::new();
        let p = s.add(Type::Pointer {
            to: TypeId::PENDING,
        });
        let r = s.add(Type::Record { fields: vec![] });
        s.patch_pointer(p, r);
        assert_eq!(*s.get(p), Type::Pointer { to: r });
    }

    #[test]
    fn forward_pointer_is_owned_until_patched() {
        let s = TypeStore::new();
        let p = s.add_forward_pointer(ScopeId(3));
        assert_eq!(s.pending_owner(p), Some(ScopeId(3)));
        assert_eq!(
            *s.get(p),
            Type::Pointer {
                to: TypeId::PENDING
            }
        );
        s.patch_pointer(p, TypeId::REAL);
        assert_eq!(s.pending_owner(p), None);
        assert_eq!(*s.get(p), Type::Pointer { to: TypeId::REAL });
        assert!(s.assignable(p, TypeId::NILTYPE));
    }

    #[test]
    #[should_panic(expected = "not a pending pointer")]
    fn patching_a_resolved_pointer_panics() {
        let s = TypeStore::new();
        let p = s.add(Type::Pointer { to: TypeId::REAL });
        s.patch_pointer(p, TypeId::INTEGER);
    }

    #[test]
    fn enumeration_bounds() {
        let s = TypeStore::new();
        let i = Interner::new();
        let e = s.add(Type::Enumeration {
            members: vec![i.intern("red"), i.intern("green"), i.intern("blue")],
        });
        assert_eq!(s.ordinal_bounds(e), Some((0, 2)));
        assert!(s.is_ordinal(e));
        assert!(!s.is_integerlike(e));
    }

    #[test]
    fn error_is_compatible_with_everything() {
        let s = TypeStore::new();
        assert!(s.same_type(TypeId::ERROR, TypeId::REAL));
        assert!(s.assignable(TypeId::REAL, TypeId::ERROR));
        assert!(s.is_ordinal(TypeId::ERROR));
    }
}
