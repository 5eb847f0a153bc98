//! Codecs for the kernel term language: [`Expr`], [`Ty`], [`Signature`],
//! and every node they reach.
//!
//! The encoding is a straightforward tagged pre-order walk. Symbols are
//! written as their interned *strings*, not their `u32` handles — handle
//! numbering depends on interning order inside one process, so an
//! on-disk entry must carry names and re-intern on decode. `PrimOp` is
//! written as its index into [`ALL_PRIMS`], which is append-only (a
//! reordering would be caught by the crate-version stamp in the entry
//! header before any codec runs).
//!
//! Decoders mirror encoders exactly and reject unknown tags with
//! [`DecodeError::Malformed`]; nothing here panics on garbage input.

use std::sync::Arc;

use units_kernel::{
    AliasDefn, Binding, CompoundExpr, DataDefn, DataOp, DataRole, DataVariant, Depend, Expr,
    InvokeExpr, Kind, LetrecExpr, LexAddr, LinkClause, LinkRenames, Lit, Loc, Param, Ports,
    PrimOp, SigEquation, Signature, Symbol, Ty, TyPort, TypeDefn, UnitExpr, ValDefn, ValPort,
    VariantVal, ALL_PRIMS,
};

use crate::wire::{DecodeError, Reader, Writer};

// ---------------------------------------------------------------- leaves

pub fn write_symbol(w: &mut Writer, sym: &Symbol) {
    w.str(sym.as_str());
}

pub fn read_symbol(r: &mut Reader) -> Result<Symbol, DecodeError> {
    Ok(Symbol::new(r.str()?))
}

pub fn write_prim(w: &mut Writer, op: PrimOp) {
    let index = ALL_PRIMS.iter().position(|&p| p == op).expect("PrimOp missing from ALL_PRIMS");
    w.u8(u8::try_from(index).expect("ALL_PRIMS outgrew u8"));
}

pub fn read_prim(r: &mut Reader) -> Result<PrimOp, DecodeError> {
    let index = usize::from(r.u8()?);
    ALL_PRIMS.get(index).copied().ok_or(DecodeError::Malformed("bad prim index"))
}

fn write_option<T>(w: &mut Writer, v: &Option<T>, mut f: impl FnMut(&mut Writer, &T)) {
    match v {
        None => w.u8(0),
        Some(inner) => {
            w.u8(1);
            f(w, inner);
        }
    }
}

fn read_option<T>(
    r: &mut Reader,
    mut f: impl FnMut(&mut Reader) -> Result<T, DecodeError>,
) -> Result<Option<T>, DecodeError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(f(r)?)),
        _ => Err(DecodeError::Malformed("bad option tag")),
    }
}

fn write_seq<T>(w: &mut Writer, items: &[T], mut f: impl FnMut(&mut Writer, &T)) {
    w.len_of(items.len());
    for item in items {
        f(w, item);
    }
}

fn read_seq<T>(
    r: &mut Reader,
    mut f: impl FnMut(&mut Reader) -> Result<T, DecodeError>,
) -> Result<Vec<T>, DecodeError> {
    let len = r.len_of()?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(f(r)?);
    }
    Ok(out)
}

fn write_pairs(w: &mut Writer, pairs: &[(Symbol, Symbol)]) {
    write_seq(w, pairs, |w, (a, b)| {
        write_symbol(w, a);
        write_symbol(w, b);
    });
}

fn read_pairs(r: &mut Reader) -> Result<Vec<(Symbol, Symbol)>, DecodeError> {
    read_seq(r, |r| Ok((read_symbol(r)?, read_symbol(r)?)))
}

// ----------------------------------------------------------------- kinds

pub fn write_kind(w: &mut Writer, kind: &Kind) {
    match kind {
        Kind::Star => w.u8(0),
        Kind::Arrow(from, to) => {
            w.u8(1);
            write_kind(w, from);
            write_kind(w, to);
        }
    }
}

pub fn read_kind(r: &mut Reader) -> Result<Kind, DecodeError> {
    match r.u8()? {
        0 => Ok(Kind::Star),
        1 => Ok(Kind::Arrow(Box::new(read_kind(r)?), Box::new(read_kind(r)?))),
        _ => Err(DecodeError::Malformed("bad kind tag")),
    }
}

// ----------------------------------------------------------------- types

pub fn write_ty(w: &mut Writer, ty: &Ty) {
    match ty {
        Ty::Var(name) => {
            w.u8(0);
            write_symbol(w, name);
        }
        Ty::Int => w.u8(1),
        Ty::Bool => w.u8(2),
        Ty::Str => w.u8(3),
        Ty::Void => w.u8(4),
        Ty::Arrow(params, ret) => {
            w.u8(5);
            write_seq(w, params, write_ty);
            write_ty(w, ret);
        }
        Ty::Tuple(items) => {
            w.u8(6);
            write_seq(w, items, write_ty);
        }
        Ty::Hash(elem) => {
            w.u8(7);
            write_ty(w, elem);
        }
        Ty::Sig(sig) => {
            w.u8(8);
            write_signature(w, sig);
        }
    }
}

pub fn read_ty(r: &mut Reader) -> Result<Ty, DecodeError> {
    match r.u8()? {
        0 => Ok(Ty::Var(read_symbol(r)?)),
        1 => Ok(Ty::Int),
        2 => Ok(Ty::Bool),
        3 => Ok(Ty::Str),
        4 => Ok(Ty::Void),
        5 => Ok(Ty::Arrow(read_seq(r, read_ty)?, Box::new(read_ty(r)?))),
        6 => Ok(Ty::Tuple(read_seq(r, read_ty)?)),
        7 => Ok(Ty::Hash(Box::new(read_ty(r)?))),
        8 => Ok(Ty::Sig(Box::new(read_signature(r)?))),
        _ => Err(DecodeError::Malformed("bad ty tag")),
    }
}

fn write_opt_ty(w: &mut Writer, ty: &Option<Ty>) {
    write_option(w, ty, write_ty);
}

fn read_opt_ty(r: &mut Reader) -> Result<Option<Ty>, DecodeError> {
    read_option(r, read_ty)
}

// ------------------------------------------------------------ signatures

fn write_ty_port(w: &mut Writer, port: &TyPort) {
    write_symbol(w, &port.name);
    write_kind(w, &port.kind);
}

fn read_ty_port(r: &mut Reader) -> Result<TyPort, DecodeError> {
    Ok(TyPort { name: read_symbol(r)?, kind: read_kind(r)? })
}

fn write_val_port(w: &mut Writer, port: &ValPort) {
    write_symbol(w, &port.name);
    write_opt_ty(w, &port.ty);
}

fn read_val_port(r: &mut Reader) -> Result<ValPort, DecodeError> {
    Ok(ValPort { name: read_symbol(r)?, ty: read_opt_ty(r)? })
}

fn write_ports(w: &mut Writer, ports: &Ports) {
    write_seq(w, &ports.types, write_ty_port);
    write_seq(w, &ports.vals, write_val_port);
}

fn read_ports(r: &mut Reader) -> Result<Ports, DecodeError> {
    Ok(Ports { types: read_seq(r, read_ty_port)?, vals: read_seq(r, read_val_port)? })
}

pub fn write_signature(w: &mut Writer, sig: &Signature) {
    write_ports(w, &sig.imports);
    write_ports(w, &sig.exports);
    write_seq(w, &sig.depends, |w, d: &Depend| {
        write_symbol(w, &d.export);
        write_symbol(w, &d.import);
    });
    write_seq(w, &sig.equations, |w, eq: &SigEquation| {
        write_symbol(w, &eq.name);
        write_kind(w, &eq.kind);
        write_ty(w, &eq.body);
    });
    write_ty(w, &sig.init_ty);
}

pub fn read_signature(r: &mut Reader) -> Result<Signature, DecodeError> {
    Ok(Signature {
        imports: read_ports(r)?,
        exports: read_ports(r)?,
        depends: read_seq(r, |r| {
            Ok(Depend { export: read_symbol(r)?, import: read_symbol(r)? })
        })?,
        equations: read_seq(r, |r| {
            Ok(SigEquation { name: read_symbol(r)?, kind: read_kind(r)?, body: read_ty(r)? })
        })?,
        init_ty: read_ty(r)?,
    })
}

// ------------------------------------------------------------ definitions

fn write_param(w: &mut Writer, param: &Param) {
    write_symbol(w, &param.name);
    write_opt_ty(w, &param.ty);
}

fn read_param(r: &mut Reader) -> Result<Param, DecodeError> {
    Ok(Param { name: read_symbol(r)?, ty: read_opt_ty(r)? })
}

fn write_type_defn(w: &mut Writer, defn: &TypeDefn) {
    match defn {
        TypeDefn::Data(data) => {
            w.u8(0);
            write_symbol(w, &data.name);
            write_seq(w, &data.variants, |w, v: &DataVariant| {
                write_symbol(w, &v.ctor);
                write_symbol(w, &v.dtor);
                write_ty(w, &v.payload);
            });
            write_symbol(w, &data.predicate);
        }
        TypeDefn::Alias(alias) => {
            w.u8(1);
            write_symbol(w, &alias.name);
            write_kind(w, &alias.kind);
            write_ty(w, &alias.body);
        }
    }
}

fn read_type_defn(r: &mut Reader) -> Result<TypeDefn, DecodeError> {
    match r.u8()? {
        0 => Ok(TypeDefn::Data(DataDefn {
            name: read_symbol(r)?,
            variants: read_seq(r, |r| {
                Ok(DataVariant {
                    ctor: read_symbol(r)?,
                    dtor: read_symbol(r)?,
                    payload: read_ty(r)?,
                })
            })?,
            predicate: read_symbol(r)?,
        })),
        1 => Ok(TypeDefn::Alias(AliasDefn {
            name: read_symbol(r)?,
            kind: read_kind(r)?,
            body: read_ty(r)?,
        })),
        _ => Err(DecodeError::Malformed("bad type-defn tag")),
    }
}

fn write_val_defn(w: &mut Writer, defn: &ValDefn) {
    write_symbol(w, &defn.name);
    write_opt_ty(w, &defn.ty);
    write_expr(w, &defn.body);
}

fn read_val_defn(r: &mut Reader) -> Result<ValDefn, DecodeError> {
    Ok(ValDefn { name: read_symbol(r)?, ty: read_opt_ty(r)?, body: read_expr(r)? })
}

pub fn write_unit(w: &mut Writer, unit: &UnitExpr) {
    write_ports(w, &unit.imports);
    write_ports(w, &unit.exports);
    write_seq(w, &unit.types, write_type_defn);
    write_seq(w, &unit.vals, write_val_defn);
    write_expr(w, &unit.init);
}

pub fn read_unit(r: &mut Reader) -> Result<UnitExpr, DecodeError> {
    Ok(UnitExpr {
        imports: read_ports(r)?,
        exports: read_ports(r)?,
        types: read_seq(r, read_type_defn)?,
        vals: read_seq(r, read_val_defn)?,
        init: read_expr(r)?,
    })
}

pub fn write_letrec(w: &mut Writer, letrec: &LetrecExpr) {
    write_seq(w, &letrec.types, write_type_defn);
    write_seq(w, &letrec.vals, write_val_defn);
    write_expr(w, &letrec.body);
}

pub fn read_letrec(r: &mut Reader) -> Result<LetrecExpr, DecodeError> {
    Ok(LetrecExpr {
        types: read_seq(r, read_type_defn)?,
        vals: read_seq(r, read_val_defn)?,
        body: read_expr(r)?,
    })
}

pub fn write_compound(w: &mut Writer, compound: &CompoundExpr) {
    write_ports(w, &compound.imports);
    write_ports(w, &compound.exports);
    write_seq(w, &compound.links, |w, link: &LinkClause| {
        write_expr(w, &link.expr);
        write_ports(w, &link.with);
        write_ports(w, &link.provides);
        write_pairs(w, &link.renames.import_vals);
        write_pairs(w, &link.renames.import_tys);
        write_pairs(w, &link.renames.export_vals);
        write_pairs(w, &link.renames.export_tys);
    });
}

pub fn read_compound(r: &mut Reader) -> Result<CompoundExpr, DecodeError> {
    let imports = read_ports(r)?;
    let exports = read_ports(r)?;
    let links = read_seq(r, |r| {
        Ok(LinkClause {
            expr: read_expr(r)?,
            with: read_ports(r)?,
            provides: read_ports(r)?,
            renames: LinkRenames {
                import_vals: read_pairs(r)?,
                import_tys: read_pairs(r)?,
                export_vals: read_pairs(r)?,
                export_tys: read_pairs(r)?,
            },
        })
    })?;
    Ok(CompoundExpr::new(imports, exports, links))
}

pub fn write_invoke(w: &mut Writer, invoke: &InvokeExpr) {
    write_expr(w, &invoke.target);
    write_seq(w, &invoke.ty_links, |w, (name, ty)| {
        write_symbol(w, name);
        write_ty(w, ty);
    });
    write_seq(w, &invoke.val_links, |w, (name, expr)| {
        write_symbol(w, name);
        write_expr(w, expr);
    });
}

pub fn read_invoke(r: &mut Reader) -> Result<InvokeExpr, DecodeError> {
    Ok(InvokeExpr {
        target: read_expr(r)?,
        ty_links: read_seq(r, |r| Ok((read_symbol(r)?, read_ty(r)?)))?,
        val_links: read_seq(r, |r| Ok((read_symbol(r)?, read_expr(r)?)))?,
    })
}

pub fn write_lambda(w: &mut Writer, lambda: &units_kernel::Lambda) {
    write_seq(w, &lambda.params, write_param);
    write_opt_ty(w, &lambda.ret_ty);
    write_expr(w, &lambda.body);
}

pub fn read_lambda(r: &mut Reader) -> Result<units_kernel::Lambda, DecodeError> {
    Ok(units_kernel::Lambda {
        params: read_seq(r, read_param)?,
        ret_ty: read_opt_ty(r)?,
        body: read_expr(r)?,
    })
}

// ----------------------------------------------------------- expressions

pub fn write_expr(w: &mut Writer, expr: &Expr) {
    match expr {
        Expr::Var(name) => {
            w.u8(0);
            write_symbol(w, name);
        }
        Expr::Lit(lit) => {
            w.u8(1);
            match lit {
                Lit::Int(n) => {
                    w.u8(0);
                    w.i64(*n);
                }
                Lit::Bool(b) => {
                    w.u8(1);
                    w.bool(*b);
                }
                Lit::Str(s) => {
                    w.u8(2);
                    w.str(s);
                }
                Lit::Void => w.u8(3),
            }
        }
        Expr::Prim(op, ty_args) => {
            w.u8(2);
            write_prim(w, *op);
            write_seq(w, ty_args, write_ty);
        }
        Expr::Lambda(lambda) => {
            w.u8(3);
            write_lambda(w, lambda);
        }
        Expr::App(func, args) => {
            w.u8(4);
            write_expr(w, func);
            write_seq(w, args, write_expr);
        }
        Expr::If(cond, then, els) => {
            w.u8(5);
            write_expr(w, cond);
            write_expr(w, then);
            write_expr(w, els);
        }
        Expr::Seq(exprs) => {
            w.u8(6);
            write_seq(w, exprs, write_expr);
        }
        Expr::Let(bindings, body) => {
            w.u8(7);
            write_seq(w, bindings, |w, b: &Binding| {
                write_symbol(w, &b.name);
                write_expr(w, &b.expr);
            });
            write_expr(w, body);
        }
        Expr::Letrec(letrec) => {
            w.u8(8);
            write_letrec(w, letrec);
        }
        Expr::Set(target, value) => {
            w.u8(9);
            write_expr(w, target);
            write_expr(w, value);
        }
        Expr::Tuple(items) => {
            w.u8(10);
            write_seq(w, items, write_expr);
        }
        Expr::Proj(index, tuple) => {
            w.u8(11);
            w.usize(*index);
            write_expr(w, tuple);
        }
        Expr::Unit(unit) => {
            w.u8(12);
            write_unit(w, unit);
        }
        Expr::Compound(compound) => {
            w.u8(13);
            write_compound(w, compound);
        }
        Expr::Invoke(invoke) => {
            w.u8(14);
            write_invoke(w, invoke);
        }
        Expr::Seal(target, sig) => {
            w.u8(15);
            write_expr(w, target);
            write_signature(w, sig);
        }
        Expr::Loc(loc) => {
            w.u8(16);
            w.usize(loc.0);
        }
        Expr::CellRef(loc) => {
            w.u8(17);
            w.usize(loc.0);
        }
        Expr::Data(op) => {
            w.u8(18);
            write_symbol(w, &op.ty_name);
            w.u64(op.instance);
            match op.role {
                DataRole::Construct(tag) => {
                    w.u8(0);
                    w.usize(tag);
                }
                DataRole::Deconstruct(tag) => {
                    w.u8(1);
                    w.usize(tag);
                }
                DataRole::Predicate => w.u8(2),
            }
        }
        Expr::Variant(variant) => {
            w.u8(19);
            write_symbol(w, &variant.ty_name);
            w.u64(variant.instance);
            w.usize(variant.tag);
            write_expr(w, &variant.payload);
        }
        Expr::VarAt(name, addr) => {
            w.u8(20);
            write_symbol(w, name);
            w.u32(addr.depth);
            w.u32(addr.slot);
        }
    }
}

pub fn read_expr(r: &mut Reader) -> Result<Expr, DecodeError> {
    match r.u8()? {
        0 => Ok(Expr::Var(read_symbol(r)?)),
        1 => match r.u8()? {
            0 => Ok(Expr::Lit(Lit::Int(r.i64()?))),
            1 => Ok(Expr::Lit(Lit::Bool(r.bool()?))),
            2 => Ok(Expr::Lit(Lit::Str(Arc::from(r.str()?)))),
            3 => Ok(Expr::Lit(Lit::Void)),
            _ => Err(DecodeError::Malformed("bad lit tag")),
        },
        2 => Ok(Expr::Prim(read_prim(r)?, read_seq(r, read_ty)?)),
        3 => Ok(Expr::Lambda(Arc::new(read_lambda(r)?))),
        4 => Ok(Expr::App(Box::new(read_expr(r)?), read_seq(r, read_expr)?)),
        5 => Ok(Expr::If(
            Box::new(read_expr(r)?),
            Box::new(read_expr(r)?),
            Box::new(read_expr(r)?),
        )),
        6 => Ok(Expr::Seq(read_seq(r, read_expr)?)),
        7 => Ok(Expr::Let(
            read_seq(r, |r| Ok(Binding { name: read_symbol(r)?, expr: read_expr(r)? }))?,
            Box::new(read_expr(r)?),
        )),
        8 => Ok(Expr::Letrec(Arc::new(read_letrec(r)?))),
        9 => Ok(Expr::Set(Box::new(read_expr(r)?), Box::new(read_expr(r)?))),
        10 => Ok(Expr::Tuple(read_seq(r, read_expr)?)),
        11 => Ok(Expr::Proj(r.usize()?, Box::new(read_expr(r)?))),
        12 => Ok(Expr::Unit(Arc::new(read_unit(r)?))),
        13 => Ok(Expr::Compound(Arc::new(read_compound(r)?))),
        14 => Ok(Expr::Invoke(Arc::new(read_invoke(r)?))),
        15 => Ok(Expr::Seal(Box::new(read_expr(r)?), Box::new(read_signature(r)?))),
        16 => Ok(Expr::Loc(Loc(r.usize()?))),
        17 => Ok(Expr::CellRef(Loc(r.usize()?))),
        18 => {
            let ty_name = read_symbol(r)?;
            let instance = r.u64()?;
            let role = match r.u8()? {
                0 => DataRole::Construct(r.usize()?),
                1 => DataRole::Deconstruct(r.usize()?),
                2 => DataRole::Predicate,
                _ => return Err(DecodeError::Malformed("bad data-role tag")),
            };
            Ok(Expr::Data(Arc::new(DataOp { ty_name, instance, role })))
        }
        19 => Ok(Expr::Variant(Arc::new(VariantVal {
            ty_name: read_symbol(r)?,
            instance: r.u64()?,
            tag: r.usize()?,
            payload: read_expr(r)?,
        }))),
        20 => {
            let name = read_symbol(r)?;
            let addr = LexAddr { depth: r.u32()?, slot: r.u32()? };
            Ok(Expr::VarAt(name, addr))
        }
        _ => Err(DecodeError::Malformed("bad expr tag")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(expr: &Expr) -> Expr {
        let mut w = Writer::new();
        write_expr(&mut w, expr);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = read_expr(&mut r).expect("decode");
        r.finish().expect("fully consumed");
        back
    }

    #[test]
    fn parsed_programs_round_trip_structurally_equal() {
        let sources = [
            "(+ 1 2)",
            "(invoke (unit (import) (export) (init (lambda (n) (* n n)))))",
            "(let ((x 1) (y \"two\")) (begin (set! x 3) (tuple x y)))",
            "(if (< 1 2) void (proj 0 (tuple 1)))",
        ];
        for src in sources {
            let expr = units_syntax::parse_expr(src).unwrap_or_else(|e| panic!("{src}: {e}"));
            assert_eq!(round_trip(&expr), expr, "round trip changed {src}");
        }
    }

    #[test]
    fn compound_and_seal_nodes_round_trip() {
        let unit = units_syntax::parse_expr(
            "(unit (import) (export f) (define f (lambda (n) n)) (init void))",
        )
        .unwrap();
        let compound = Expr::Compound(Arc::new(CompoundExpr::new(
            Ports::new(),
            Ports::new(),
            vec![LinkClause::by_name(
                unit.clone(),
                Ports::new(),
                Ports::untyped(Vec::<&str>::new(), vec!["f"]),
            )],
        )));
        assert_eq!(round_trip(&compound), compound);
        let sealed = Expr::Seal(Box::new(unit), Box::new(Signature::empty()));
        assert_eq!(round_trip(&sealed), sealed);
    }

    #[test]
    fn machine_internal_forms_round_trip() {
        let exprs = [
            Expr::Loc(Loc(7)),
            Expr::CellRef(Loc(0)),
            Expr::VarAt(Symbol::new("x"), LexAddr { depth: 3, slot: 1 }),
            Expr::Data(Arc::new(DataOp {
                ty_name: Symbol::new("list"),
                instance: 42,
                role: DataRole::Deconstruct(1),
            })),
            Expr::Variant(Arc::new(VariantVal {
                ty_name: Symbol::new("list"),
                instance: 42,
                tag: 0,
                payload: Expr::int(5),
            })),
        ];
        for expr in exprs {
            assert_eq!(round_trip(&expr), expr);
        }
    }

    #[test]
    fn every_prim_survives_the_index_encoding() {
        for &op in ALL_PRIMS {
            let mut w = Writer::new();
            write_prim(&mut w, op);
            let bytes = w.into_bytes();
            assert_eq!(read_prim(&mut Reader::new(&bytes)).unwrap(), op);
        }
    }

    #[test]
    fn garbage_never_panics_the_expr_decoder() {
        // A cheap deterministic fuzz: decode every suffix of a real
        // encoding plus mutated copies; all outcomes must be Ok or a
        // typed error, enforced by the type system — this test exists
        // to catch panics.
        let expr = units_syntax::parse_expr(
            "(invoke (unit (import) (export) (init (lambda (n) (* n n)))))",
        )
        .unwrap();
        let mut w = Writer::new();
        write_expr(&mut w, &expr);
        let bytes = w.into_bytes();
        for start in 0..bytes.len() {
            let _ = read_expr(&mut Reader::new(&bytes[start..]));
        }
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0xff;
            let _ = read_expr(&mut Reader::new(&mutated));
        }
    }
}
