//! Mapping semantic types to runtime [`Shape`]s.

use ccm2_sema::types::{Type, TypeId, TypeStore};

use crate::ir::Shape;

/// Computes the runtime shape of a type (used for frame layout, variable
/// zero-initialization and `NEW` allocation).
///
/// Opaque types are pointer-sized, as in every classic Modula-2
/// implementation; the error type degrades to an integer slot so that
/// poisoned programs still lay out deterministically.
pub fn shape_of(types: &TypeStore, ty: TypeId) -> Shape {
    match *types.get(ty) {
        Type::Integer | Type::Cardinal => Shape::Int,
        Type::Real => Shape::Real,
        Type::Boolean => Shape::Bool,
        Type::Char => Shape::Char,
        Type::Bitset | Type::Set { .. } => Shape::Set,
        Type::Pointer { .. } | Type::Nil | Type::Opaque { .. } | Type::Address => Shape::Ptr,
        Type::Proc { .. } => Shape::ProcVal,
        Type::StringLit => Shape::Str,
        Type::Enumeration { .. } => Shape::Int,
        Type::Subrange { base, .. } => shape_of(types, base),
        Type::Array { index, elem } => {
            let len = types.array_len(index).unwrap_or(0).max(0) as u32;
            Shape::Array(Box::new(shape_of(types, elem)), len)
        }
        // Open arrays receive their actual extent from the caller; the
        // static shape records only the element layout.
        Type::OpenArray { elem } => Shape::Array(Box::new(shape_of(types, elem)), 0),
        Type::Record { ref fields } => {
            Shape::Record(fields.iter().map(|(_, t)| shape_of(types, *t)).collect())
        }
        Type::Error | Type::Pending => Shape::Int,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        let s = TypeStore::new();
        assert_eq!(shape_of(&s, TypeId::INTEGER), Shape::Int);
        assert_eq!(shape_of(&s, TypeId::REAL), Shape::Real);
        assert_eq!(shape_of(&s, TypeId::BITSET), Shape::Set);
        assert_eq!(shape_of(&s, TypeId::PROC), Shape::ProcVal);
    }

    #[test]
    fn arrays_and_records() {
        let s = TypeStore::new();
        let ix = s.add(Type::Subrange {
            base: TypeId::INTEGER,
            lo: 1,
            hi: 5,
        });
        let arr = s.add(Type::Array {
            index: ix,
            elem: TypeId::CHAR,
        });
        assert_eq!(shape_of(&s, arr), Shape::Array(Box::new(Shape::Char), 5));
        let i = ccm2_support::intern::Interner::new();
        let rec = s.add(Type::Record {
            fields: vec![(i.intern("x"), TypeId::REAL), (i.intern("y"), arr)],
        });
        assert_eq!(
            shape_of(&s, rec),
            Shape::Record(vec![Shape::Real, Shape::Array(Box::new(Shape::Char), 5)])
        );
    }

    #[test]
    fn subranges_use_base_shape() {
        let s = TypeStore::new();
        let r = s.add(Type::Subrange {
            base: TypeId::CHAR,
            lo: 65,
            hi: 90,
        });
        assert_eq!(shape_of(&s, r), Shape::Char);
    }

    #[test]
    fn pointers_and_opaque_are_ptr_sized() {
        let s = TypeStore::new();
        let i = ccm2_support::intern::Interner::new();
        let p = s.add(Type::Pointer { to: TypeId::REAL });
        let o = s.add(Type::Opaque {
            name: i.intern("T"),
        });
        assert_eq!(shape_of(&s, p), Shape::Ptr);
        assert_eq!(shape_of(&s, o), Shape::Ptr);
    }
}
