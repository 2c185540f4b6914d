//! MiniC semantic types: sizes, alignment, struct layout.
//!
//! MiniC uses an ILP64-flavoured model: `int`, `long` and pointers are all
//! 8 bytes (the simalpha word), `short` is 2 and `char` is 1. Struct
//! fields are aligned to their natural alignment, structs to their widest
//! field.
//!
//! A [`CType`] is `Copy`: the pointee of a pointer and the element of an
//! array are interned in the [`TypeTable`] and named by a [`CTypeId`], so
//! typing an expression never clones a chain of boxes.

use crate::ast::{BaseType, TypeName};
use crate::names::{Names, Sym};
use dyncomp_ir::fxhash::FxHashMap;
use std::fmt;

/// An interned [`CType`]: an index into its [`TypeTable`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CTypeId(u32);

/// A resolved MiniC type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CType {
    /// `void` (function returns only).
    Void,
    /// Integer with width and signedness.
    Int {
        /// Width in bytes.
        size: u8,
        /// Signed?
        signed: bool,
    },
    /// `double`.
    Double,
    /// Pointer to a pointee type.
    Ptr(CTypeId),
    /// Fixed-size array.
    Array(CTypeId, u64),
    /// Struct by index into the [`TypeTable`].
    Struct(usize),
}

impl CType {
    /// The canonical `int`.
    pub fn int() -> CType {
        CType::Int {
            size: 8,
            signed: true,
        }
    }

    /// The canonical `unsigned`.
    pub fn unsigned() -> CType {
        CType::Int {
            size: 8,
            signed: false,
        }
    }

    /// Whether this is any integer type.
    pub fn is_integer(self) -> bool {
        matches!(self, CType::Int { .. })
    }

    /// Whether this is a signed integer.
    pub fn is_signed(self) -> bool {
        matches!(self, CType::Int { signed: true, .. })
    }

    /// Whether this is a pointer (or array, which decays).
    pub fn is_pointer_like(self) -> bool {
        matches!(self, CType::Ptr(_) | CType::Array(..))
    }

    /// The interned pointee of a pointer, or element type of an array.
    pub fn pointee_id(self) -> Option<CTypeId> {
        match self {
            CType::Ptr(t) | CType::Array(t, _) => Some(t),
            _ => None,
        }
    }

    /// Array-to-pointer decay.
    pub fn decay(self) -> CType {
        match self {
            CType::Array(t, _) => CType::Ptr(t),
            other => other,
        }
    }
}

/// A [`CType`] printed with the [`TypeTable`] that interned its parts.
pub struct Shown<'t> {
    table: &'t TypeTable,
    ty: CType,
}

impl fmt::Display for Shown<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = |id| self.table.show(self.table.get(id));
        match self.ty {
            CType::Void => write!(f, "void"),
            CType::Int { size, signed } => {
                write!(f, "{}int{}", if signed { "" } else { "u" }, size * 8)
            }
            CType::Double => write!(f, "double"),
            CType::Ptr(t) => write!(f, "{}*", inner(t)),
            CType::Array(t, n) => write!(f, "{}[{n}]", inner(t)),
            CType::Struct(i) => write!(f, "struct#{i}"),
        }
    }
}

/// A struct's layout.
#[derive(Clone, Debug, PartialEq)]
pub struct StructLayout {
    /// Tag name.
    pub name: String,
    /// Fields in order: name, type, byte offset.
    pub fields: Vec<(String, CType, u64)>,
    /// Total size (padded to alignment).
    pub size: u64,
    /// Alignment.
    pub align: u64,
}

/// Registry of struct definitions and interned types.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TypeTable {
    structs: Vec<StructLayout>,
    /// Struct index by its tag's symbol in the parse that declared it.
    by_sym: FxHashMap<Sym, usize>,
    /// Interned types by [`CTypeId`], and the id of each.
    interned: Vec<CType>,
    ids: FxHashMap<CType, CTypeId>,
}

/// Type-resolution error.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeError(pub String);

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type error: {}", self.0)
    }
}

impl std::error::Error for TypeError {}

impl TypeTable {
    /// Empty table.
    pub fn new() -> Self {
        TypeTable::default()
    }

    /// The id of `t`, interning it on first sight.
    pub fn intern(&mut self, t: CType) -> CTypeId {
        *self.ids.entry(t).or_insert_with(|| {
            self.interned.push(t);
            CTypeId(self.interned.len() as u32 - 1)
        })
    }

    /// The type `id` names.
    pub fn get(&self, id: CTypeId) -> CType {
        self.interned[id.0 as usize]
    }

    /// A pointer to `t`.
    pub fn ptr_to(&mut self, t: CType) -> CType {
        CType::Ptr(self.intern(t))
    }

    /// The pointee of a pointer, or element type of an array.
    pub fn pointee(&self, t: CType) -> Option<CType> {
        t.pointee_id().map(|id| self.get(id))
    }

    /// `t`, printable.
    pub fn show(&self, ty: CType) -> Shown<'_> {
        Shown { table: self, ty }
    }

    /// Resolve a syntactic [`TypeName`] (plus optional array suffix) of
    /// the parse whose names are `names`.
    ///
    /// # Errors
    /// Fails on references to undefined structs.
    pub fn resolve(
        &mut self,
        t: &TypeName,
        array: Option<u64>,
        names: &Names<'_>,
    ) -> Result<CType, TypeError> {
        let mut ty = match t.base {
            BaseType::Void => CType::Void,
            BaseType::Int { size, signed } => CType::Int { size, signed },
            BaseType::Double => CType::Double,
            BaseType::Struct(tag) => {
                let idx = self
                    .by_sym
                    .get(&tag)
                    .ok_or_else(|| TypeError(format!("undefined struct `{}`", names.name(tag))))?;
                CType::Struct(*idx)
            }
        };
        for _ in 0..t.ptrs {
            ty = self.ptr_to(ty);
        }
        if let Some(n) = array {
            ty = CType::Array(self.intern(ty), n);
        }
        Ok(ty)
    }

    /// Pre-declare a struct tag (size unknown until
    /// [`TypeTable::define_struct`]), so pointer fields may reference
    /// structs defined later (or themselves).
    pub fn declare_struct(&mut self, tag: Sym, name: &str) -> usize {
        if let Some(&i) = self.by_sym.get(&tag) {
            return i;
        }
        let idx = self.structs.len();
        self.structs.push(StructLayout {
            name: name.to_string(),
            fields: Vec::new(),
            size: 0, // 0 marks "declared but not defined"
            align: 1,
        });
        self.by_sym.insert(tag, idx);
        idx
    }

    /// Define a struct; fields are laid out with natural alignment.
    ///
    /// # Errors
    /// Fails on duplicate tags or unsized fields.
    pub fn define_struct(
        &mut self,
        tag: Sym,
        name: &str,
        fields: Vec<(String, CType)>,
    ) -> Result<usize, TypeError> {
        if let Some(&i) = self.by_sym.get(&tag) {
            if self.structs[i].size != 0 || !self.structs[i].fields.is_empty() {
                return Err(TypeError(format!("duplicate struct `{name}`")));
            }
            // Fill in a pre-declared tag.
            let mut laid = Vec::new();
            let mut offset = 0u64;
            let mut align = 1u64;
            for (fname, fty) in fields {
                let fa = self.align_of(fty)?;
                let fs = self.size_of(fty)?;
                offset = (offset + fa - 1) & !(fa - 1);
                laid.push((fname, fty, offset));
                offset += fs;
                align = align.max(fa);
            }
            let size = (offset + align - 1) & !(align - 1);
            self.structs[i] = StructLayout {
                name: name.to_string(),
                fields: laid,
                size: size.max(1),
                align,
            };
            return Ok(i);
        }
        let mut laid = Vec::new();
        let mut offset = 0u64;
        let mut align = 1u64;
        for (fname, fty) in fields {
            let fa = self.align_of(fty)?;
            let fs = self.size_of(fty)?;
            offset = (offset + fa - 1) & !(fa - 1);
            laid.push((fname, fty, offset));
            offset += fs;
            align = align.max(fa);
        }
        let size = (offset + align - 1) & !(align - 1);
        let idx = self.structs.len();
        self.structs.push(StructLayout {
            name: name.to_string(),
            fields: laid,
            size: size.max(1),
            align,
        });
        self.by_sym.insert(tag, idx);
        Ok(idx)
    }

    /// Size in bytes.
    ///
    /// # Errors
    /// Fails for `void`.
    pub fn size_of(&self, t: CType) -> Result<u64, TypeError> {
        Ok(match t {
            CType::Void => return Err(TypeError("sizeof(void)".into())),
            CType::Int { size, .. } => u64::from(size),
            CType::Double | CType::Ptr(_) => 8,
            CType::Array(e, n) => self.size_of(self.get(e))? * n,
            CType::Struct(i) => {
                let s = &self.structs[i];
                if s.size == 0 {
                    return Err(TypeError(format!(
                        "struct `{}` used by value before its definition",
                        s.name
                    )));
                }
                s.size
            }
        })
    }

    /// Alignment in bytes.
    ///
    /// # Errors
    /// Fails for `void`.
    pub fn align_of(&self, t: CType) -> Result<u64, TypeError> {
        Ok(match t {
            CType::Void => return Err(TypeError("alignof(void)".into())),
            CType::Int { size, .. } => u64::from(size),
            CType::Double | CType::Ptr(_) => 8,
            CType::Array(e, _) => self.align_of(self.get(e))?,
            CType::Struct(i) => self.structs[i].align,
        })
    }

    /// Look up a field: returns `(offset, type)`.
    ///
    /// # Errors
    /// Fails when `t` is not a struct or lacks the field.
    pub fn field(&self, t: CType, name: &str) -> Result<(u64, CType), TypeError> {
        let CType::Struct(i) = t else {
            return Err(TypeError(format!(
                "member access on non-struct {}",
                self.show(t)
            )));
        };
        let s = &self.structs[i];
        s.fields
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, ty, off)| (*off, *ty))
            .ok_or_else(|| TypeError(format!("struct `{}` has no field `{name}`", s.name)))
    }

    /// Struct layout by index.
    pub fn layout(&self, i: usize) -> &StructLayout {
        &self.structs[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn struct_layout_natural_alignment() {
        let mut tt = TypeTable::new();
        let mix = Names::default().intern("mix");
        let s = tt
            .define_struct(
                mix,
                "mix",
                vec![
                    (
                        "c".into(),
                        CType::Int {
                            size: 1,
                            signed: true,
                        },
                    ),
                    (
                        "x".into(),
                        CType::Int {
                            size: 8,
                            signed: true,
                        },
                    ),
                    (
                        "w".into(),
                        CType::Int {
                            size: 2,
                            signed: false,
                        },
                    ),
                ],
            )
            .unwrap();
        let l = tt.layout(s);
        assert_eq!(l.fields[0].2, 0);
        assert_eq!(l.fields[1].2, 8, "8-byte field aligns to 8");
        assert_eq!(l.fields[2].2, 16);
        assert_eq!(l.size, 24, "struct padded to 8-byte alignment");
        assert_eq!(l.align, 8);
    }

    #[test]
    fn nested_struct_and_field_lookup() {
        let mut tt = TypeTable::new();
        let mut names = Names::default();
        let inner = tt
            .define_struct(
                names.intern("inner"),
                "inner",
                vec![("a".into(), CType::int()), ("b".into(), CType::int())],
            )
            .unwrap();
        let outer = tt
            .define_struct(
                names.intern("outer"),
                "outer",
                vec![
                    (
                        "pre".into(),
                        CType::Int {
                            size: 4,
                            signed: true,
                        },
                    ),
                    ("in".into(), CType::Struct(inner)),
                ],
            )
            .unwrap();
        let (off, ty) = tt.field(CType::Struct(outer), "in").unwrap();
        assert_eq!(off, 8);
        assert_eq!(ty, CType::Struct(inner));
        assert_eq!(tt.size_of(CType::Struct(outer)).unwrap(), 24);
        assert!(tt.field(CType::Struct(outer), "nope").is_err());
    }

    #[test]
    fn array_sizes_and_decay() {
        let mut tt = TypeTable::new();
        let a = CType::Array(tt.intern(CType::Double), 10);
        assert_eq!(tt.size_of(a).unwrap(), 80);
        assert_eq!(a.decay(), tt.ptr_to(CType::Double));
        assert!(a.is_pointer_like());
        assert_eq!(tt.show(a).to_string(), "double[10]");
    }

    #[test]
    fn resolve_pointers_and_structs() {
        let mut tt = TypeTable::new();
        let mut names = Names::default();
        let s = names.intern("s");
        tt.define_struct(s, "s", vec![("x".into(), CType::int())])
            .unwrap();
        let tn = TypeName {
            base: BaseType::Struct(s),
            ptrs: 2,
        };
        let t = tt.resolve(&tn, None, &names).unwrap();
        let inner = tt.ptr_to(CType::Struct(0));
        assert_eq!(t, tt.ptr_to(inner));
        assert_eq!(tt.pointee(t), Some(inner));
        assert_eq!(tt.show(t).to_string(), "struct#0**");
        let arr = tt.resolve(&tn, Some(3), &names).unwrap();
        assert_eq!(tt.show(arr).to_string(), "struct#0**[3]");
        assert!(tt
            .resolve(
                &TypeName {
                    base: BaseType::Struct(names.intern("nope")),
                    ptrs: 0
                },
                None,
                &names
            )
            .is_err());
    }

    #[test]
    fn duplicate_struct_rejected() {
        let mut tt = TypeTable::new();
        let s = Names::default().intern("s");
        tt.define_struct(s, "s", vec![]).unwrap();
        assert!(tt.define_struct(s, "s", vec![]).is_err());
    }
}
