//! Codec for lowered bytecode: [`Chunk`], its [`Op`] array, and the
//! pooled side tables.
//!
//! Ops are one tag byte plus fixed-width operands in declaration order.
//! Tag 8 is unassigned.
//! The two ops carrying `&'static str` operands ([`Op::AsUnit`],
//! [`Op::Unsupported`]) write the string and re-intern it through the
//! kernel's leaked symbol table on decode — the lowerer only ever emits
//! a small fixed set of these, so the leak is bounded the same way
//! symbol interning is.
//!
//! The decoded chunk's [`OpProfile`] is freshly sized in `trace` builds
//! and empty otherwise, mirroring `units-compile`'s lowering: profile
//! counters are process-local observability state, never persisted.

use std::sync::Arc;

use units_kernel::Symbol;
use units_runtime::{Chunk, Op, OpProfile, Proto, UnitProto};

use crate::term::{
    read_compound, read_invoke, read_lambda, read_letrec, read_prim, read_signature, read_symbol,
    read_unit, write_compound, write_invoke, write_lambda, write_letrec, write_prim,
    write_signature, write_symbol, write_unit,
};
use crate::wire::{DecodeError, Reader, Writer};

/// Re-interns a decoded string as `&'static str` via the kernel's
/// leaked symbol table (the operand set is small and fixed).
fn static_str(s: &str) -> &'static str {
    Symbol::new(s).as_str()
}

fn write_op(w: &mut Writer, op: &Op) {
    match op {
        Op::Int(n) => {
            w.u8(0);
            w.i64(*n);
        }
        Op::Bool(b) => {
            w.u8(1);
            w.bool(*b);
        }
        Op::Void => w.u8(2),
        Op::Const(i) => {
            w.u8(3);
            w.u32(*i);
        }
        Op::PrimVal(op) => {
            w.u8(4);
            write_prim(w, *op);
        }
        Op::Load { depth, slot, name } => {
            w.u8(5);
            w.u32(*depth);
            w.u32(*slot);
            write_symbol(w, name);
        }
        Op::Unbound(name) => {
            w.u8(6);
            write_symbol(w, name);
        }
        Op::Store { depth, slot, name } => {
            w.u8(7);
            w.u32(*depth);
            w.u32(*slot);
            write_symbol(w, name);
        }
        Op::Bind(i) => {
            w.u8(9);
            w.u32(*i);
        }
        Op::BindRec(i) => {
            w.u8(10);
            w.u32(*i);
        }
        Op::InitCell(slot) => {
            w.u8(11);
            w.u32(*slot);
        }
        Op::PopFrame => w.u8(12),
        Op::Jump(offset) => {
            w.u8(13);
            w.i32(*offset);
        }
        Op::JumpIfFalse(offset) => {
            w.u8(14);
            w.i32(*offset);
        }
        Op::MakeClosure(i) => {
            w.u8(15);
            w.u32(*i);
        }
        Op::Call(argc) => {
            w.u8(16);
            w.u32(*argc);
        }
        Op::TailCall(argc) => {
            w.u8(17);
            w.u32(*argc);
        }
        Op::CallPrim { op, argc } => {
            w.u8(18);
            write_prim(w, *op);
            w.u32(*argc);
        }
        Op::CallPrimImm { op, imm, rev } => {
            w.u8(19);
            write_prim(w, *op);
            w.i32(*imm);
            w.bool(*rev);
        }
        Op::Return => w.u8(20),
        Op::MakeTuple(n) => {
            w.u8(21);
            w.u32(*n);
        }
        Op::Proj(i) => {
            w.u8(22);
            w.usize(*i);
        }
        Op::Pop => w.u8(23),
        Op::MakeUnit(i) => {
            w.u8(24);
            w.u32(*i);
        }
        Op::AsUnit(rule) => {
            w.u8(25);
            w.str(rule);
        }
        Op::CheckLink { compound, link } => {
            w.u8(26);
            w.u32(*compound);
            w.u32(*link);
        }
        Op::MakeCompound(i) => {
            w.u8(27);
            w.u32(*i);
        }
        Op::Invoke(i) => {
            w.u8(28);
            w.u32(*i);
        }
        Op::InvokeUnit(i) => {
            w.u8(29);
            w.u32(*i);
        }
        Op::Seal(i) => {
            w.u8(30);
            w.u32(*i);
        }
        Op::Unsupported(what) => {
            w.u8(31);
            w.str(what);
        }
    }
}

fn read_op(r: &mut Reader) -> Result<Op, DecodeError> {
    Ok(match r.u8()? {
        0 => Op::Int(r.i64()?),
        1 => Op::Bool(r.bool()?),
        2 => Op::Void,
        3 => Op::Const(r.u32()?),
        4 => Op::PrimVal(read_prim(r)?),
        5 => Op::Load { depth: r.u32()?, slot: r.u32()?, name: read_symbol(r)? },
        6 => Op::Unbound(read_symbol(r)?),
        7 => Op::Store { depth: r.u32()?, slot: r.u32()?, name: read_symbol(r)? },
        9 => Op::Bind(r.u32()?),
        10 => Op::BindRec(r.u32()?),
        11 => Op::InitCell(r.u32()?),
        12 => Op::PopFrame,
        13 => Op::Jump(r.i32()?),
        14 => Op::JumpIfFalse(r.i32()?),
        15 => Op::MakeClosure(r.u32()?),
        16 => Op::Call(r.u32()?),
        17 => Op::TailCall(r.u32()?),
        18 => Op::CallPrim { op: read_prim(r)?, argc: r.u32()? },
        19 => Op::CallPrimImm { op: read_prim(r)?, imm: r.i32()?, rev: r.bool()? },
        20 => Op::Return,
        21 => Op::MakeTuple(r.u32()?),
        22 => Op::Proj(r.usize()?),
        23 => Op::Pop,
        24 => Op::MakeUnit(r.u32()?),
        25 => Op::AsUnit(static_str(r.str()?)),
        26 => Op::CheckLink { compound: r.u32()?, link: r.u32()? },
        27 => Op::MakeCompound(r.u32()?),
        28 => Op::Invoke(r.u32()?),
        29 => Op::InvokeUnit(r.u32()?),
        30 => Op::Seal(r.u32()?),
        31 => Op::Unsupported(static_str(r.str()?)),
        _ => return Err(DecodeError::Malformed("bad op tag")),
    })
}

/// Encodes a lowered chunk (without its transient profile).
pub fn write_chunk(w: &mut Writer, chunk: &Chunk) {
    w.len_of(chunk.code.len());
    for op in &chunk.code {
        write_op(w, op);
    }
    w.len_of(chunk.consts.len());
    for s in &chunk.consts {
        w.str(s);
    }
    w.len_of(chunk.protos.len());
    for proto in &chunk.protos {
        write_lambda(w, &proto.lambda);
        w.u32(proto.entry);
    }
    w.len_of(chunk.units.len());
    for unit in &chunk.units {
        write_unit(w, &unit.source);
        w.len_of(unit.def_entries.len());
        for &entry in &unit.def_entries {
            w.u32(entry);
        }
        w.u32(unit.init_entry);
    }
    w.len_of(chunk.recs.len());
    for rec in &chunk.recs {
        write_letrec(w, rec);
    }
    w.len_of(chunk.compounds.len());
    for compound in &chunk.compounds {
        write_compound(w, compound);
    }
    w.len_of(chunk.invokes.len());
    for invoke in &chunk.invokes {
        write_invoke(w, invoke);
    }
    w.len_of(chunk.sigs.len());
    for sig in &chunk.sigs {
        write_signature(w, sig);
    }
    w.u32(chunk.entry);
}

/// Decodes a chunk; the profile is rebuilt fresh (sized in `trace`
/// builds, disabled otherwise), exactly as lowering would.
pub fn read_chunk(r: &mut Reader) -> Result<Chunk, DecodeError> {
    let code = {
        let len = r.len_of()?;
        let mut code = Vec::with_capacity(len);
        for _ in 0..len {
            code.push(read_op(r)?);
        }
        code
    };
    let consts = {
        let len = r.len_of()?;
        let mut consts: Vec<Arc<str>> = Vec::with_capacity(len);
        for _ in 0..len {
            consts.push(Arc::from(r.str()?));
        }
        consts
    };
    let protos = {
        let len = r.len_of()?;
        let mut protos = Vec::with_capacity(len);
        for _ in 0..len {
            protos.push(Proto { lambda: Arc::new(read_lambda(r)?), entry: r.u32()? });
        }
        protos
    };
    let units = {
        let len = r.len_of()?;
        let mut units = Vec::with_capacity(len);
        for _ in 0..len {
            let source = Arc::new(read_unit(r)?);
            let elen = r.len_of()?;
            let mut def_entries = Vec::with_capacity(elen);
            for _ in 0..elen {
                def_entries.push(r.u32()?);
            }
            units.push(UnitProto { source, def_entries, init_entry: r.u32()? });
        }
        units
    };
    let recs = {
        let len = r.len_of()?;
        let mut recs = Vec::with_capacity(len);
        for _ in 0..len {
            recs.push(Arc::new(read_letrec(r)?));
        }
        recs
    };
    let compounds = {
        let len = r.len_of()?;
        let mut compounds = Vec::with_capacity(len);
        for _ in 0..len {
            compounds.push(Arc::new(read_compound(r)?));
        }
        compounds
    };
    let invokes = {
        let len = r.len_of()?;
        let mut invokes = Vec::with_capacity(len);
        for _ in 0..len {
            invokes.push(Arc::new(read_invoke(r)?));
        }
        invokes
    };
    let sigs = {
        let len = r.len_of()?;
        let mut sigs = Vec::with_capacity(len);
        for _ in 0..len {
            sigs.push(Arc::new(read_signature(r)?));
        }
        sigs
    };
    let entry = r.u32()?;
    let profile =
        if units_trace::COMPILED { OpProfile::sized(code.len()) } else { OpProfile::default() };
    Ok(Chunk { code, consts, protos, units, recs, compounds, invokes, sigs, entry, profile })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse, check, resolve, and lower a source program — the same
    /// shape the engine persists.
    fn lowered(source: &str) -> Arc<Chunk> {
        let expr = units_syntax::parse_expr(source).expect("parse");
        units_check::check_program(
            &expr,
            units_check::CheckOptions {
                level: units_check::Level::Untyped,
                strictness: units_check::Strictness::Paper,
            },
        )
        .expect("check");
        let resolved = units_compile::resolve_program(&expr);
        units_compile::lower_program(&resolved)
    }

    fn round_trip(chunk: &Chunk) -> Chunk {
        let mut w = Writer::new();
        write_chunk(&mut w, chunk);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = read_chunk(&mut r).expect("decode");
        r.finish().expect("fully consumed");
        back
    }

    fn assert_chunks_equal(a: &Chunk, b: &Chunk) {
        assert_eq!(a.code, b.code);
        assert_eq!(a.consts, b.consts);
        assert_eq!(a.entry, b.entry);
        assert_eq!(a.protos.len(), b.protos.len());
        for (x, y) in a.protos.iter().zip(&b.protos) {
            assert_eq!((&*x.lambda, x.entry), (&*y.lambda, y.entry));
        }
        assert_eq!(a.units.len(), b.units.len());
        for (x, y) in a.units.iter().zip(&b.units) {
            assert_eq!(&*x.source, &*y.source);
            assert_eq!((&x.def_entries, x.init_entry), (&y.def_entries, y.init_entry));
        }
        let pairwise = |xs: usize, ys: usize| assert_eq!(xs, ys);
        pairwise(a.recs.len(), b.recs.len());
        a.recs.iter().zip(&b.recs).for_each(|(x, y)| assert_eq!(&**x, &**y));
        pairwise(a.compounds.len(), b.compounds.len());
        a.compounds.iter().zip(&b.compounds).for_each(|(x, y)| assert_eq!(&**x, &**y));
        pairwise(a.invokes.len(), b.invokes.len());
        a.invokes.iter().zip(&b.invokes).for_each(|(x, y)| assert_eq!(&**x, &**y));
        pairwise(a.sigs.len(), b.sigs.len());
        a.sigs.iter().zip(&b.sigs).for_each(|(x, y)| assert_eq!(&**x, &**y));
    }

    #[test]
    fn lowered_programs_round_trip() {
        let sources = [
            "(invoke (unit (import) (export) (init ((lambda (n) (* n n)) 7))))",
            r#"(invoke (unit (import) (export)
                 (define fact (lambda (n) (if (< n 2) 1 (* n (fact (- n 1))))))
                 (init (fact 10))))"#,
            "(let ((x 1)) (begin (display \"hi\") (+ x 41)))",
        ];
        for src in sources {
            let chunk = lowered(src);
            let back = round_trip(&chunk);
            assert_chunks_equal(&chunk, &back);
        }
    }

    #[test]
    fn decoded_chunks_execute_identically() {
        let src = r#"(invoke (unit (import) (export)
             (define even (lambda (n) (if (= n 0) true (odd (- n 1)))))
             (define odd (lambda (n) (if (= n 0) false (even (- n 1)))))
             (init (even 64))))"#;
        let chunk = lowered(src);
        let back = Arc::new(round_trip(&chunk));
        let mut m1 = units_runtime::Machine::new();
        let mut m2 = units_runtime::Machine::new();
        let v1 = units_runtime::execute(&chunk, &mut m1).expect("original runs");
        let v2 = units_runtime::execute(&back, &mut m2).expect("decoded runs");
        assert!(v1.observably_eq(&v2), "decoded chunk diverged: {v1:?} vs {v2:?}");
    }

    #[test]
    fn garbage_never_panics_the_chunk_decoder() {
        let chunk = lowered("(invoke (unit (import) (export) (init (+ 1 2))))");
        let mut w = Writer::new();
        write_chunk(&mut w, &chunk);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            assert!(read_chunk(&mut Reader::new(&bytes[..cut])).is_err(), "prefix decoded");
        }
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0x01;
            let _ = read_chunk(&mut Reader::new(&mutated));
        }
    }
}
