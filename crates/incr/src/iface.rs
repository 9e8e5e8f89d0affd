//! Interface artifacts (`CCM2IFCE`): a definition module's completed
//! scope ([`Interface`]), sealed in the shared
//! [`ccm2_support::envelope`] and stored under the module's interface key
//! ([`crate::ImportGraph::keys`]).
//!
//! Like a cache entry, an artifact holds no run-local number: names are
//! strings, interned on load into the compile's interner, and type ids
//! are the interface's own numbering. The decoder accepts only what the
//! encoder writes — entries in strictly ascending name order, a
//! well-formed numbering ([`Interface::is_well_formed`]) — so an image it
//! accepts re-encodes to itself, and an installed artifact cannot index
//! outside its own tables.

use ccm2_sema::interface::{Ident, Import, Interface};
use ccm2_sema::symtab::{ParamSig, ProcInfo, ProcSig, SymbolEntry, SymbolKind, VarInfo};
use ccm2_sema::types::{Type, TypeId};
use ccm2_sema::value::ConstValue;
use ccm2_support::envelope::{Format, OpenError, Reader, Writer};
use ccm2_support::source::Span;
use ccm2_support::{Interner, Symbol};

/// The interface-artifact envelope. Bump the version whenever the
/// payload layout changes (`tests/envelopes.rs` pins a sample).
pub const IFACE_FORMAT: Format = Format {
    magic: *b"CCM2IFCE",
    version: 1,
};

fn put_sym(w: &mut Writer, s: Symbol, interner: &Interner) {
    w.str(&interner.resolve(s));
}

fn put_ident(w: &mut Writer, id: &Ident, interner: &Interner) {
    put_sym(w, id.name, interner);
    w.u32(id.span.lo);
    w.u32(id.span.hi);
}

fn put_ty(w: &mut Writer, t: TypeId) {
    w.u32(t.0);
}

fn put_opt_ty(w: &mut Writer, t: Option<TypeId>) {
    w.bool(t.is_some());
    if let Some(t) = t {
        put_ty(w, t);
    }
}

fn write_type(w: &mut Writer, ty: &Type, interner: &Interner) {
    match ty {
        Type::Enumeration { members } => {
            w.u8(0);
            w.seq(members, |w, &m| put_sym(w, m, interner));
        }
        Type::Subrange { base, lo, hi } => {
            w.u8(1);
            put_ty(w, *base);
            w.i64(*lo);
            w.i64(*hi);
        }
        Type::Array { index, elem } => {
            w.u8(2);
            put_ty(w, *index);
            put_ty(w, *elem);
        }
        Type::OpenArray { elem } => {
            w.u8(3);
            put_ty(w, *elem);
        }
        Type::Record { fields } => {
            w.u8(4);
            w.seq(fields, |w, &(name, t)| {
                put_sym(w, name, interner);
                put_ty(w, t);
            });
        }
        Type::Pointer { to } => {
            w.u8(5);
            put_ty(w, *to);
        }
        Type::Set { of } => {
            w.u8(6);
            put_ty(w, *of);
        }
        Type::Proc { params, ret } => {
            w.u8(7);
            w.seq(params, |w, &(var, t)| {
                w.bool(var);
                put_ty(w, t);
            });
            put_opt_ty(w, *ret);
        }
        Type::Opaque { name } => {
            w.u8(8);
            put_sym(w, *name, interner);
        }
        builtin => unreachable!("a captured table holds no builtin shape: {builtin:?}"),
    }
}

fn write_value(w: &mut Writer, value: &ConstValue, interner: &Interner) {
    match *value {
        ConstValue::Int(v) => {
            w.u8(0);
            w.i64(v);
        }
        ConstValue::Real(bits) => {
            w.u8(1);
            w.u64(bits);
        }
        ConstValue::Bool(v) => {
            w.u8(2);
            w.bool(v);
        }
        ConstValue::Char(c) => {
            w.u8(3);
            w.u8(c);
        }
        ConstValue::Str(s) => {
            w.u8(4);
            put_sym(w, s, interner);
        }
        ConstValue::Set(bits) => {
            w.u8(5);
            w.u64(bits);
        }
        ConstValue::Nil => w.u8(6),
    }
}

fn write_entry(w: &mut Writer, e: &SymbolEntry, interner: &Interner) {
    put_sym(w, e.name, interner);
    w.u32(e.span.lo);
    w.u32(e.span.hi);
    match &e.kind {
        SymbolKind::Const { value, ty } => {
            w.u8(0);
            write_value(w, value, interner);
            put_ty(w, *ty);
        }
        SymbolKind::TypeName { ty } => {
            w.u8(1);
            put_ty(w, *ty);
        }
        SymbolKind::Var(v) => {
            w.u8(2);
            put_ty(w, v.ty);
            w.u32(v.slot);
            w.u32(v.level);
            w.bool(v.is_var_param);
            w.bool(v.module.is_some());
            if let Some(m) = v.module {
                put_sym(w, m, interner);
            }
        }
        SymbolKind::Proc(p) => {
            w.u8(3);
            w.seq(&p.sig.params, |w, q| {
                w.bool(q.is_var);
                put_ty(w, q.ty);
            });
            put_opt_ty(w, p.sig.ret);
            put_sym(w, p.code_name, interner);
            w.u32(p.level);
        }
        SymbolKind::EnumConst { ty, value } => {
            w.u8(4);
            put_ty(w, *ty);
            w.i64(*value);
        }
        binding => unreachable!("an interface holds no import binding: {binding:?}"),
    }
}

/// Serializes an interface artifact.
pub fn encode_interface(iface: &Interface, interner: &Interner) -> Vec<u8> {
    IFACE_FORMAT.seal(|w| {
        w.seq(&iface.imports, |w, imp| match imp {
            Import::Whole { module } => {
                w.u8(0);
                put_ident(w, module, interner);
            }
            Import::From { module, names } => {
                w.u8(1);
                put_ident(w, module, interner);
                w.seq(names, |w, n| put_ident(w, n, interner));
            }
        });
        w.seq(&iface.deps, |w, &d| put_sym(w, d, interner));
        w.seq(&iface.links, |w, &(dep, index)| {
            w.u32(dep);
            w.u32(index);
        });
        w.seq(&iface.types, |w, ty| write_type(w, ty, interner));
        w.seq(&iface.entries, |w, e| write_entry(w, e, interner));
        w.u32(iface.slots);
    })
}

/// Reads interface artifacts into one interner.
struct Decoder<'i> {
    interner: &'i Interner,
}

impl Decoder<'_> {
    fn sym(&self, r: &mut Reader<'_>) -> Result<Symbol, OpenError> {
        Ok(self.interner.intern(r.str()?))
    }

    fn ident(&self, r: &mut Reader<'_>) -> Result<Ident, OpenError> {
        Ok(Ident {
            name: self.sym(r)?,
            span: span(r)?,
        })
    }

    fn import(&self, r: &mut Reader<'_>) -> Result<Import, OpenError> {
        Ok(match r.u8()? {
            0 => Import::Whole {
                module: self.ident(r)?,
            },
            1 => Import::From {
                module: self.ident(r)?,
                names: r.seq(12, |r| self.ident(r))?,
            },
            _ => return Err(OpenError::Malformed("import tag")),
        })
    }

    fn decode_type(&self, r: &mut Reader<'_>) -> Result<Type, OpenError> {
        Ok(match r.u8()? {
            0 => Type::Enumeration {
                members: r.seq(4, |r| self.sym(r))?,
            },
            1 => Type::Subrange {
                base: ty(r)?,
                lo: r.i64()?,
                hi: r.i64()?,
            },
            2 => Type::Array {
                index: ty(r)?,
                elem: ty(r)?,
            },
            3 => Type::OpenArray { elem: ty(r)? },
            4 => Type::Record {
                fields: r.seq(8, |r| Ok((self.sym(r)?, ty(r)?)))?,
            },
            5 => Type::Pointer { to: ty(r)? },
            6 => Type::Set { of: ty(r)? },
            7 => Type::Proc {
                params: r.seq(5, |r| Ok((r.bool()?, ty(r)?)))?,
                ret: opt_ty(r)?,
            },
            8 => Type::Opaque { name: self.sym(r)? },
            _ => return Err(OpenError::Malformed("type tag")),
        })
    }

    fn value(&self, r: &mut Reader<'_>) -> Result<ConstValue, OpenError> {
        Ok(match r.u8()? {
            0 => ConstValue::Int(r.i64()?),
            1 => ConstValue::Real(r.u64()?),
            2 => ConstValue::Bool(r.bool()?),
            3 => ConstValue::Char(r.u8()?),
            4 => ConstValue::Str(self.sym(r)?),
            5 => ConstValue::Set(r.u64()?),
            6 => ConstValue::Nil,
            _ => return Err(OpenError::Malformed("constant tag")),
        })
    }

    fn kind(&self, r: &mut Reader<'_>) -> Result<SymbolKind, OpenError> {
        Ok(match r.u8()? {
            0 => SymbolKind::Const {
                value: self.value(r)?,
                ty: ty(r)?,
            },
            1 => SymbolKind::TypeName { ty: ty(r)? },
            2 => SymbolKind::Var(VarInfo {
                ty: ty(r)?,
                slot: r.u32()?,
                level: r.u32()?,
                is_var_param: r.bool()?,
                module: if r.bool()? { Some(self.sym(r)?) } else { None },
            }),
            3 => SymbolKind::Proc(ProcInfo {
                sig: ProcSig {
                    params: r.seq(5, |r| {
                        Ok(ParamSig {
                            is_var: r.bool()?,
                            ty: ty(r)?,
                        })
                    })?,
                    ret: opt_ty(r)?,
                },
                code_name: self.sym(r)?,
                level: r.u32()?,
            }),
            4 => SymbolKind::EnumConst {
                ty: ty(r)?,
                value: r.i64()?,
            },
            _ => return Err(OpenError::Malformed("entry tag")),
        })
    }

    fn decode(&self, bytes: &[u8]) -> Result<Interface, OpenError> {
        let mut r = IFACE_FORMAT.open(bytes)?;
        let imports = r.seq(13, |r| self.import(r))?;
        let deps = r.seq(4, |r| self.sym(r))?;
        let links = r.seq(8, |r| Ok((r.u32()?, r.u32()?)))?;
        let types = r.seq(5, |r| self.decode_type(r))?;
        let mut last: Option<&str> = None;
        let entries = r.seq(17, |r| {
            let name = r.str()?;
            if last.is_some_and(|last| last >= name) {
                return Err(OpenError::Malformed("entry order"));
            }
            last = Some(name);
            Ok(SymbolEntry {
                name: self.interner.intern(name),
                span: span(r)?,
                kind: self.kind(r)?,
            })
        })?;
        let iface = Interface {
            imports,
            deps,
            links,
            types,
            entries,
            slots: r.u32()?,
        };
        r.done()?;
        if !iface.is_well_formed() {
            return Err(OpenError::Malformed("type numbering"));
        }
        Ok(iface)
    }
}

fn span(r: &mut Reader<'_>) -> Result<Span, OpenError> {
    Ok(Span {
        lo: r.u32()?,
        hi: r.u32()?,
    })
}

fn ty(r: &mut Reader<'_>) -> Result<TypeId, OpenError> {
    Ok(TypeId(r.u32()?))
}

fn opt_ty(r: &mut Reader<'_>) -> Result<Option<TypeId>, OpenError> {
    Ok(if r.bool()? { Some(ty(r)?) } else { None })
}

/// Deserializes an interface artifact, validating magic, version and
/// checksum before trusting any field, and the payload's order and
/// numbering after. Names are interned into `interner`.
pub fn decode_interface(bytes: &[u8], interner: &Interner) -> Result<Interface, OpenError> {
    Decoder { interner }.decode(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccm2_sema::types::TypeId;

    /// An interface with one of everything, in a well-formed numbering:
    /// own types 12.., one link after them.
    fn sample(i: &Interner) -> Interface {
        let at = |lo, hi| Span { lo, hi };
        let ident = |name: &str, lo| Ident {
            name: i.intern(name),
            span: at(lo, lo + name.len() as u32),
        };
        let entry = |name: &str, kind| SymbolEntry {
            name: i.intern(name),
            kind,
            span: at(40, 41),
        };
        // 12 a pointer to 14, 13 an enumeration, 14 a record, 15 an opaque
        // type, 16 an open array of the link 18, 17 a procedure type.
        Interface {
            imports: vec![
                Import::Whole {
                    module: ident("Base", 30),
                },
                Import::From {
                    module: ident("Colors", 45),
                    names: vec![ident("red", 64)],
                },
            ],
            deps: vec![i.intern("Base")],
            links: vec![(0, 3)],
            types: vec![
                Type::Pointer { to: TypeId(14) },
                Type::Enumeration {
                    members: vec![i.intern("red"), i.intern("green")],
                },
                Type::Record {
                    fields: vec![(i.intern("next"), TypeId(12)), (i.intern("c"), TypeId(13))],
                },
                Type::Opaque {
                    name: i.intern("T"),
                },
                Type::OpenArray { elem: TypeId(18) },
                Type::Proc {
                    params: vec![(true, TypeId(16))],
                    ret: Some(TypeId::INTEGER),
                },
            ],
            entries: vec![
                entry(
                    "Greeting",
                    SymbolKind::Const {
                        value: ConstValue::Str(i.intern("hi")),
                        ty: TypeId::STRING,
                    },
                ),
                entry("Node", SymbolKind::TypeName { ty: TypeId(12) }),
                entry(
                    "Sum",
                    SymbolKind::Proc(ProcInfo {
                        sig: ProcSig {
                            params: vec![ParamSig {
                                is_var: false,
                                ty: TypeId(16),
                            }],
                            ret: Some(TypeId(18)),
                        },
                        code_name: i.intern("Shapes.Sum"),
                        level: 1,
                    }),
                ),
                entry("T", SymbolKind::TypeName { ty: TypeId(15) }),
                entry("Visit", SymbolKind::TypeName { ty: TypeId(17) }),
                entry(
                    "green",
                    SymbolKind::EnumConst {
                        ty: TypeId(13),
                        value: 1,
                    },
                ),
                entry(
                    "head",
                    SymbolKind::Var(VarInfo {
                        ty: TypeId(12),
                        slot: 0,
                        level: 0,
                        is_var_param: false,
                        module: Some(i.intern("Shapes")),
                    }),
                ),
            ],
            slots: 1,
        }
    }

    #[test]
    fn round_trip_through_a_fresh_interner() {
        let a = Interner::new();
        let iface = sample(&a);
        assert!(iface.is_well_formed());
        let bytes = encode_interface(&iface, &a);
        let b = Interner::new();
        b.intern("decoy");
        let back = decode_interface(&bytes, &b).expect("round trip");
        assert_eq!(encode_interface(&back, &b), bytes);
        assert_eq!(back.entries.len(), iface.entries.len());
        assert_eq!(b.resolve(back.deps[0]), "Base");
        let Type::Opaque { name } = back.types[3] else {
            panic!("opaque type decoded as {:?}", back.types[3]);
        };
        assert_eq!(b.resolve(name), "T");
    }

    #[test]
    fn a_numbering_install_could_not_build_is_refused() {
        let i = Interner::new();
        let refused = |edit: &dyn Fn(&mut Interface)| {
            let mut iface = sample(&i);
            edit(&mut iface);
            decode_interface(&encode_interface(&iface, &i), &i)
        };
        let numbering = Err(OpenError::Malformed("type numbering"));
        // A record may not refer forward: only a pointer does.
        assert_eq!(
            refused(&|f| f.types[2] = Type::Array {
                index: TypeId::BOOLEAN,
                elem: TypeId(15)
            }),
            numbering
        );
        assert_eq!(refused(&|f| f.links[0].0 = 1), numbering);
        assert_eq!(
            refused(&|f| f.entries[1].kind = SymbolKind::TypeName { ty: TypeId(19) }),
            numbering
        );
        assert_eq!(
            refused(&|f| f.entries[1].kind = SymbolKind::TypeName {
                ty: TypeId::PENDING
            }),
            numbering
        );
        assert_eq!(
            refused(&|f| f.entries.swap(0, 1)),
            Err(OpenError::Malformed("entry order"))
        );
    }
}
