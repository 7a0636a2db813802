//! Semantic tables for a parsed program: struct layout, sizes, and
//! name canonicalization (typedef aliases).
//!
//! MiniC's unit of storage is the *cell* (one machine word). Every
//! scalar, pointer, mutex, and cond occupies one cell; a struct is its
//! fields laid out consecutively; an array of `n` elements of size `s`
//! occupies `n * s` cells. This mirrors the paper's treatment of an
//! array "like a single object of the array's base type".

use crate::ast::{Program, StructDef, Type, TypeKind};
use crate::diag::Diagnostic;
use std::collections::HashMap;

/// A resolved struct identifier (index into the struct table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StructId(pub usize);

/// Rewrites every `TypeKind::Named` that uses a typedef alias to the
/// struct's canonical name, so name comparisons are by identity.
///
/// Run this once on a freshly parsed program, before analysis.
pub fn canonicalize_struct_names(program: &mut Program) {
    let aliases: HashMap<String, String> = program
        .structs
        .iter()
        .filter_map(|sd| {
            sd.alias
                .as_ref()
                .filter(|a| **a != sd.name)
                .map(|a| (a.clone(), sd.name.clone()))
        })
        .collect();
    if aliases.is_empty() {
        return;
    }
    program.for_each_type_mut(&mut |ty, _| {
        ty.for_each_level_mut(&mut |l| {
            if let TypeKind::Named(n) = &mut l.kind {
                if let Some(canon) = aliases.get(n) {
                    *n = canon.clone();
                }
            }
        });
    });
}

/// Layout information for one struct.
#[derive(Debug, Clone)]
pub struct StructLayout {
    /// Cell offset of each field, in declaration order.
    pub offsets: Vec<usize>,
    /// Total size in cells.
    pub size: usize,
}

/// Struct definitions with layouts and alias resolution.
#[derive(Debug, Clone)]
pub struct StructTable {
    defs: Vec<StructDef>,
    layouts: Vec<StructLayout>,
    by_name: HashMap<String, StructId>,
}

impl StructTable {
    /// Builds the table from a program, computing layouts.
    ///
    /// # Errors
    ///
    /// Reports duplicate struct names, unknown field types, and
    /// structs containing themselves by value (infinite size).
    pub fn build(program: &Program) -> Result<StructTable, Diagnostic> {
        let mut by_name = HashMap::new();
        for (i, sd) in program.structs.iter().enumerate() {
            let id = StructId(i);
            if by_name.insert(sd.name.clone(), id).is_some() {
                return Err(Diagnostic::error(
                    format!("duplicate struct name `{}`", sd.name),
                    sd.span,
                ));
            }
            if let Some(alias) = &sd.alias {
                if alias != &sd.name && by_name.insert(alias.clone(), id).is_some() {
                    return Err(Diagnostic::error(
                        format!("duplicate type name `{alias}`"),
                        sd.span,
                    ));
                }
            }
        }
        let mut table = StructTable {
            defs: program.structs.clone(),
            layouts: Vec::new(),
            by_name,
        };
        // Compute layouts with cycle detection.
        let mut sizes: Vec<Option<usize>> = vec![None; table.defs.len()];
        let mut in_progress = vec![false; table.defs.len()];
        for i in 0..table.defs.len() {
            table.size_of_struct(StructId(i), &mut sizes, &mut in_progress)?;
        }
        fn field_size(table: &StructTable, sizes: &[Option<usize>], ty: &Type) -> usize {
            match &ty.kind {
                TypeKind::Named(name) => {
                    let id = table.lookup(name).expect("checked during size pass");
                    sizes[id.0].expect("size computed")
                }
                TypeKind::Array(elem, n) => field_size(table, sizes, elem) * n,
                _ => 1,
            }
        }
        for i in 0..table.defs.len() {
            let mut offsets = Vec::with_capacity(table.defs[i].fields.len());
            let mut off = 0usize;
            for f in &table.defs[i].fields {
                offsets.push(off);
                off += field_size(&table, &sizes, &f.ty);
            }
            table.layouts.push(StructLayout {
                offsets,
                size: sizes[i].expect("size computed"),
            });
        }
        Ok(table)
    }

    fn size_of_struct(
        &self,
        id: StructId,
        sizes: &mut Vec<Option<usize>>,
        in_progress: &mut Vec<bool>,
    ) -> Result<usize, Diagnostic> {
        if let Some(s) = sizes[id.0] {
            return Ok(s);
        }
        let def = &self.defs[id.0];
        if in_progress[id.0] {
            return Err(Diagnostic::error(
                format!("struct `{}` contains itself by value", def.name),
                def.span,
            ));
        }
        in_progress[id.0] = true;
        let mut total = 0usize;
        for f in &def.fields {
            total += self.size_of_inner(&f.ty, sizes, in_progress, f.span)?;
        }
        in_progress[id.0] = false;
        // A struct with no fields still occupies one cell so it has an
        // address distinct from its neighbors.
        let total = total.max(1);
        sizes[id.0] = Some(total);
        Ok(total)
    }

    fn size_of_inner(
        &self,
        ty: &Type,
        sizes: &mut Vec<Option<usize>>,
        in_progress: &mut Vec<bool>,
        span: crate::span::Span,
    ) -> Result<usize, Diagnostic> {
        Ok(match &ty.kind {
            TypeKind::Named(name) => {
                let sid = self.lookup(name).ok_or_else(|| {
                    Diagnostic::error(format!("unknown struct type `{name}`"), span)
                })?;
                self.size_of_struct(sid, sizes, in_progress)?
            }
            TypeKind::Array(elem, n) => self.size_of_inner(elem, sizes, in_progress, span)? * n,
            TypeKind::Void => {
                return Err(Diagnostic::error("field of type void", span));
            }
            _ => 1,
        })
    }

    /// Resolves a struct name or typedef alias to its id.
    pub fn lookup(&self, name: &str) -> Option<StructId> {
        self.by_name.get(name).copied()
    }

    /// The definition of a struct.
    pub fn def(&self, id: StructId) -> &StructDef {
        &self.defs[id.0]
    }

    /// The layout of a struct.
    pub fn layout(&self, id: StructId) -> &StructLayout {
        &self.layouts[id.0]
    }

    /// Number of structs in the table.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// Returns true if no structs are defined.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// Iterates over `(id, def)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (StructId, &StructDef)> {
        self.defs.iter().enumerate().map(|(i, d)| (StructId(i), d))
    }

    /// Size of a type in cells.
    ///
    /// # Panics
    ///
    /// Panics if `ty` names an unknown struct (the table is built from
    /// the same program, so checked code never hits this).
    pub fn size_of(&self, ty: &Type) -> usize {
        match &ty.kind {
            TypeKind::Named(name) => {
                let id = self.lookup(name).expect("unknown struct in size_of");
                self.layouts[id.0].size
            }
            TypeKind::Array(elem, n) => self.size_of(elem) * n,
            _ => 1,
        }
    }

    /// Cell offset of `field` within struct `id`, with the field index.
    pub fn field_offset(&self, id: StructId, field: &str) -> Option<(usize, usize)> {
        let def = &self.defs[id.0];
        let idx = def.fields.iter().position(|f| f.name == field)?;
        Some((idx, self.layouts[id.0].offsets[idx]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn layout_of_simple_struct() {
        let p = parse("struct pair { int a; int b; };").unwrap();
        let t = StructTable::build(&p).unwrap();
        let id = t.lookup("pair").unwrap();
        assert_eq!(t.layout(id).size, 2);
        assert_eq!(t.field_offset(id, "a"), Some((0, 0)));
        assert_eq!(t.field_offset(id, "b"), Some((1, 1)));
    }

    #[test]
    fn nested_struct_layout() {
        let p = parse("struct inner { int x; int y; }; struct outer { struct inner i; int z; };")
            .unwrap();
        let t = StructTable::build(&p).unwrap();
        let id = t.lookup("outer").unwrap();
        assert_eq!(t.layout(id).size, 3);
        assert_eq!(t.field_offset(id, "z"), Some((1, 2)));
    }

    #[test]
    fn array_field_layout() {
        let p = parse("struct buf { int data[8]; int len; };").unwrap();
        let t = StructTable::build(&p).unwrap();
        let id = t.lookup("buf").unwrap();
        assert_eq!(t.layout(id).size, 9);
        assert_eq!(t.field_offset(id, "len"), Some((1, 8)));
    }

    #[test]
    fn self_reference_by_pointer_is_fine() {
        let p = parse("struct node { struct node * next; int v; };").unwrap();
        let t = StructTable::build(&p).unwrap();
        assert_eq!(t.layout(t.lookup("node").unwrap()).size, 2);
    }

    #[test]
    fn self_reference_by_value_is_error() {
        let p = parse("struct bad { struct bad inner; };").unwrap();
        assert!(StructTable::build(&p).is_err());
    }

    #[test]
    fn alias_resolves() {
        let p = parse("typedef struct stage { int x; } stage_t;").unwrap();
        let t = StructTable::build(&p).unwrap();
        assert_eq!(t.lookup("stage"), t.lookup("stage_t"));
    }

    #[test]
    fn size_of_types() {
        let p = parse("struct pair { int a; int b; };").unwrap();
        let t = StructTable::build(&p).unwrap();
        use crate::ast::Qual;
        assert_eq!(t.size_of(&Type::int(Qual::Infer)), 1);
        assert_eq!(
            t.size_of(&Type::ptr(Type::int(Qual::Infer), Qual::Infer)),
            1
        );
        let pair = Type::unqual(TypeKind::Named("pair".into()));
        assert_eq!(t.size_of(&pair), 2);
        let arr = Type::unqual(TypeKind::Array(Box::new(pair), 3));
        assert_eq!(t.size_of(&arr), 6);
    }
}
