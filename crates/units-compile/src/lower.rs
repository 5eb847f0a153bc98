//! Lowering resolved terms to flat bytecode (the third backend).
//!
//! The input is the output of [`crate::resolve_program`]: every bound
//! variable occurrence a `VarAt` carrying its `(depth, slot)` lexical
//! address under the frame discipline both compiled backends share.
//! Lowering flattens that term into one [`Chunk`]: a single `Op` array
//! holding the top-level segment, every λ-body segment, and every unit
//! definition/init segment, plus pooled constants and shared side
//! tables (letrec descriptors, compound/invoke/signature nodes). The VM
//! in `units-runtime` executes the chunk with a dispatch loop; values
//! created there carry a [`VmCode`](units_runtime::VmCode) handle back
//! into the chunk, preserving §4.1.6's single-copy-of-code invariant in
//! flat form.
//!
//! Lowering invariants (checked by the three-way differential suite):
//!
//! * **Evaluation order is the tree-walker's.** Operands lower left to
//!   right; `compound` emits a `CheckLink` after *each* constituent so
//!   the Fig. 11 side conditions interleave with constituent evaluation
//!   exactly as in `eval`; an `invoke` target is narrowed to a unit
//!   (`AsUnit`) before any link expression runs.
//! * **Tail positions compile to `TailCall`.** An application in tail
//!   position — the application itself, `if` branches, the last `begin`
//!   expression, `let`/`letrec` bodies — replaces the running activation,
//!   so tail loops run in constant space like the tree-walker's
//!   trampoline.
//! * **Free variables fail.** A `Var` the resolver left unaddressed is
//!   free; reading it lowers to `Unbound`, and so does assigning it,
//!   after the assigned value, which is the tree-walker's order.
//! * **Machine-internal forms** (`Loc`, `CellRef`, instantiated
//!   `Data`/`Variant` nodes) lower to `Unsupported`, failing at run time
//!   with the tree-walker's exact error class.

use std::collections::VecDeque;
use std::sync::Arc;

use units_kernel::{Expr, Lit, TypeDefn};
use units_runtime::vm::{Chunk, Op, Proto, UnitProto};

/// Compiles [`crate::resolve_program`]'s output to a chunk ready for
/// [`units_runtime::execute`].
///
/// # Examples
///
/// ```
/// use units_compile::{lower_program, resolve_program};
/// use units_runtime::{execute, Machine, Value};
/// use units_syntax::parse_expr;
///
/// let program = parse_expr("(invoke (unit (import) (export) (init (* 6 7))))").unwrap();
/// let chunk = lower_program(&resolve_program(&program));
/// let v = execute(&chunk, &mut Machine::new()).unwrap();
/// assert!(v.observably_eq(&Value::Int(42)));
/// ```
pub fn lower_program(expr: &Expr) -> Arc<Chunk> {
    let mut lw = Lowerer::default();
    lw.chunk.entry = 0;
    lw.lower(expr, true);
    lw.emit(Op::Return);
    // λ-bodies and unit segments queue up while the enclosing segment is
    // still flat; drain until every reserved entry point is patched.
    while let Some(work) = lw.work.pop_front() {
        match work {
            Work::Proto(i) => {
                let body = lw.chunk.protos[i].lambda.clone();
                lw.chunk.protos[i].entry = lw.here();
                lw.lower(&body.body, true);
                lw.emit(Op::Return);
            }
            Work::Unit(i) => {
                let source = lw.chunk.units[i].source.clone();
                for (j, defn) in source.vals.iter().enumerate() {
                    lw.chunk.units[i].def_entries[j] = lw.here();
                    lw.lower(&defn.body, true);
                    lw.emit(Op::Return);
                }
                lw.chunk.units[i].init_entry = lw.here();
                lw.lower(&source.init, true);
                lw.emit(Op::Return);
            }
        }
    }
    // In trace builds every chunk gets profiler storage so the dispatch
    // loop can count op executions; default builds leave it empty and
    // the counting code compiles out.
    if units_trace::COMPILED {
        lw.chunk.profile = units_runtime::OpProfile::sized(lw.chunk.code.len());
    }
    Arc::new(lw.chunk)
}

/// A segment whose entry point is reserved but not yet compiled.
enum Work {
    Proto(usize),
    Unit(usize),
}

/// A literal integer operand small enough for the fused immediate field.
fn int_imm(e: &Expr) -> Option<i32> {
    match e {
        Expr::Lit(Lit::Int(n)) => i32::try_from(*n).ok(),
        _ => None,
    }
}

#[derive(Default)]
struct Lowerer {
    chunk: Chunk,
    work: VecDeque<Work>,
}

impl Lowerer {
    fn emit(&mut self, op: Op) {
        self.chunk.code.push(op);
    }

    fn here(&self) -> u32 {
        self.chunk.code.len() as u32
    }

    /// Emits a forward jump with a placeholder offset; pair with `patch`.
    fn jump(&mut self, op: Op) -> usize {
        let at = self.chunk.code.len();
        self.emit(op);
        at
    }

    /// Points the jump at `at` to the current end of code.
    fn patch(&mut self, at: usize) {
        let off = (self.chunk.code.len() - at - 1) as i32;
        match &mut self.chunk.code[at] {
            Op::Jump(o) | Op::JumpIfFalse(o) => *o = off,
            other => unreachable!("patching a non-jump {other:?}"),
        }
    }

    /// Interns a string literal in the constant pool (deduplicated — the
    /// pool is small, so a linear scan beats hashing).
    fn pool_str(&mut self, s: &str) -> u32 {
        let found = self.chunk.consts.iter().position(|existing| &**existing == s);
        match found {
            Some(i) => i as u32,
            None => {
                self.chunk.consts.push(Arc::from(s));
                (self.chunk.consts.len() - 1) as u32
            }
        }
    }

    /// Reserves a λ prototype and queues its body segment.
    fn add_proto(&mut self, lam: &Arc<units_kernel::Lambda>) -> u32 {
        self.chunk.protos.push(Proto { lambda: lam.clone(), entry: u32::MAX });
        let i = self.chunk.protos.len() - 1;
        self.work.push_back(Work::Proto(i));
        i as u32
    }

    /// Reserves a unit prototype and queues its definition/init segments.
    fn add_unit(&mut self, u: &Arc<units_kernel::UnitExpr>) -> u32 {
        self.chunk.units.push(UnitProto {
            source: u.clone(),
            def_entries: vec![u32::MAX; u.vals.len()],
            init_entry: u32::MAX,
        });
        let i = self.chunk.units.len() - 1;
        self.work.push_back(Work::Unit(i));
        i as u32
    }

    fn lower(&mut self, expr: &Expr, tail: bool) {
        match expr {
            Expr::Var(x) => self.emit(Op::Unbound(x.clone())),
            Expr::VarAt(x, addr) => {
                self.emit(Op::Load { depth: addr.depth, slot: addr.slot, name: x.clone() });
            }
            Expr::Lit(lit) => match lit {
                Lit::Int(n) => self.emit(Op::Int(*n)),
                Lit::Bool(b) => self.emit(Op::Bool(*b)),
                Lit::Str(s) => {
                    let i = self.pool_str(s);
                    self.emit(Op::Const(i));
                }
                Lit::Void => self.emit(Op::Void),
            },
            Expr::Prim(op, _tys) => self.emit(Op::PrimVal(*op)),
            Expr::Lambda(lam) => {
                let i = self.add_proto(lam);
                self.emit(Op::MakeClosure(i));
            }
            Expr::App(f, args) => {
                let argc = args.len() as u32;
                // Fuse `prim(args…)` — the hot Fig. 11 shape — into one
                // opcode; a `prim` expression has no effects, so skipping
                // its push preserves evaluation order.
                if let Expr::Prim(op, _) = &**f {
                    // A binary prim with a small literal operand fuses it
                    // as an immediate — counting and comparison patterns
                    // like `(- n 1)` and `(= n 0)` become one opcode.
                    // Literals have no effects, so the order stands.
                    if let [x, y] = &args[..] {
                        if let Some(imm) = int_imm(y) {
                            self.lower(x, false);
                            self.emit(Op::CallPrimImm { op: *op, imm, rev: false });
                            return;
                        }
                        if let Some(imm) = int_imm(x) {
                            self.lower(y, false);
                            self.emit(Op::CallPrimImm { op: *op, imm, rev: true });
                            return;
                        }
                    }
                    for a in args {
                        self.lower(a, false);
                    }
                    self.emit(Op::CallPrim { op: *op, argc });
                } else {
                    self.lower(f, false);
                    for a in args {
                        self.lower(a, false);
                    }
                    self.emit(if tail { Op::TailCall(argc) } else { Op::Call(argc) });
                }
            }
            Expr::If(c, t, e) => {
                self.lower(c, false);
                let to_else = self.jump(Op::JumpIfFalse(0));
                self.lower(t, tail);
                let to_end = self.jump(Op::Jump(0));
                self.patch(to_else);
                self.lower(e, tail);
                self.patch(to_end);
            }
            Expr::Seq(es) => match es.split_last() {
                None => self.emit(Op::Void),
                Some((last, init)) => {
                    for e in init {
                        self.lower(e, false);
                        self.emit(Op::Pop);
                    }
                    self.lower(last, tail);
                }
            },
            Expr::Let(bindings, body) => {
                // Right-hand sides evaluate in the outer scope (parallel
                // let) — no frame exists until `Bind`.
                for b in bindings {
                    self.lower(&b.expr, false);
                }
                self.emit(Op::Bind(bindings.len() as u32));
                self.lower(body, tail);
                if !tail {
                    self.emit(Op::PopFrame);
                }
            }
            Expr::Letrec(lr) => {
                self.chunk.recs.push(lr.clone());
                self.emit(Op::BindRec((self.chunk.recs.len() - 1) as u32));
                // Slot layout of the recursive frame: the datatype
                // operations first (ctor/dtor per variant, then the
                // predicate, per datatype), then one cell per definition
                // — the order `bind_letrec_frame` builds and the
                // resolver mirrors.
                let data_ops: usize = lr
                    .types
                    .iter()
                    .map(|td| match td {
                        TypeDefn::Data(d) => 2 * d.variants.len() + 1,
                        TypeDefn::Alias(_) => 0,
                    })
                    .sum();
                for (i, defn) in lr.vals.iter().enumerate() {
                    self.lower(&defn.body, false);
                    self.emit(Op::InitCell((data_ops + i) as u32));
                }
                self.lower(&lr.body, tail);
                if !tail {
                    self.emit(Op::PopFrame);
                }
            }
            Expr::Set(target, value) => match &**target {
                Expr::Var(x) => {
                    self.lower(value, false);
                    self.emit(Op::Unbound(x.clone()));
                }
                Expr::VarAt(x, addr) => {
                    self.lower(value, false);
                    self.emit(Op::Store { depth: addr.depth, slot: addr.slot, name: x.clone() });
                }
                // The tree-walker rejects a non-variable target before
                // evaluating the value; so does the lowered form.
                _ => self.emit(Op::Unsupported("an assignable variable")),
            },
            Expr::Tuple(items) => {
                for i in items {
                    self.lower(i, false);
                }
                self.emit(Op::MakeTuple(items.len() as u32));
            }
            Expr::Proj(i, e) => {
                self.lower(e, false);
                self.emit(Op::Proj(*i));
            }
            Expr::Unit(u) => {
                let i = self.add_unit(u);
                self.emit(Op::MakeUnit(i));
            }
            Expr::Compound(c) => {
                self.chunk.compounds.push(c.clone());
                let ci = (self.chunk.compounds.len() - 1) as u32;
                for (li, link) in c.links.iter().enumerate() {
                    self.lower(&link.expr, false);
                    // Side conditions fire after *this* constituent
                    // evaluates, before the next one runs — the
                    // tree-walker's interleaving.
                    self.emit(Op::CheckLink { compound: ci, link: li as u32 });
                }
                self.emit(Op::MakeCompound(ci));
            }
            Expr::Invoke(inv) => {
                // `(invoke (unit …))` with no links — the hot benchmark
                // shape — fuses unit creation and invocation.
                if inv.val_links.is_empty() {
                    if let Expr::Unit(u) = &inv.target {
                        let i = self.add_unit(u);
                        self.emit(Op::InvokeUnit(i));
                        return;
                    }
                }
                self.lower(&inv.target, false);
                // Narrow to a unit before any link expression runs, like
                // the tree-walker.
                self.emit(Op::AsUnit("invoke"));
                for (_, e) in &inv.val_links {
                    self.lower(e, false);
                }
                self.chunk.invokes.push(inv.clone());
                self.emit(Op::Invoke((self.chunk.invokes.len() - 1) as u32));
            }
            Expr::Seal(e, sig) => {
                self.lower(e, false);
                self.chunk.sigs.push(Arc::new((**sig).clone()));
                self.emit(Op::Seal((self.chunk.sigs.len() - 1) as u32));
            }
            Expr::Loc(_) | Expr::CellRef(_) | Expr::Data(_) | Expr::Variant(_) => {
                self.emit(Op::Unsupported("a source expression"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve_program;
    use units_runtime::{disassemble, execute, Limits, Machine, RuntimeError, Value};
    use units_syntax::{parse_expr, parse_file};

    fn chunk_for(src: &str) -> Arc<Chunk> {
        let e = parse_file(src)
            .or_else(|_| parse_expr(src))
            .unwrap_or_else(|err| panic!("parse: {err}"));
        lower_program(&resolve_program(&e))
    }

    fn run(src: &str) -> Result<Value, RuntimeError> {
        execute(&chunk_for(src), &mut Machine::new())
    }

    fn run_int(src: &str) -> i64 {
        match run(src) {
            Ok(Value::Int(n)) => n,
            other => panic!("expected an int, got {other:?}"),
        }
    }

    #[test]
    fn core_forms_round_trip() {
        assert_eq!(run_int("(+ 40 2)"), 42);
        assert_eq!(run_int("(let ((x 6) (y 7)) (* x y))"), 42);
        assert_eq!(run_int("(if (< 1 2) 1 2)"), 1);
        assert_eq!(run_int("((lambda (n) (* n n)) 9)"), 81);
        assert_eq!(run_int("(proj 1 (tuple 1 2 3))"), 2);
        assert_eq!(run_int("(begin 1 2 3)"), 3);
        match run("(string-append \"a\" \"b\")") {
            Ok(Value::Str(s)) => assert_eq!(&*s, "ab"),
            other => panic!("expected string, got {other:?}"),
        }
    }

    #[test]
    fn letrec_and_units_round_trip() {
        assert_eq!(
            run_int("(letrec ((define f (lambda (n) (if (= n 0) 1 (* n (f (- n 1))))))) (f 5))"),
            120
        );
        assert_eq!(run_int("(invoke (unit (import) (export) (init (* 6 7))))"), 42);
        assert_eq!(
            run_int(
                "(invoke (unit (import base) (export) (init (+ base 2))) (val base 40))"
            ),
            42
        );
    }

    #[test]
    fn string_constants_are_pooled_once() {
        let chunk = chunk_for("(tuple \"a\" \"b\" \"a\" \"a\")");
        assert_eq!(chunk.consts.len(), 2);
    }

    #[test]
    fn tail_calls_run_in_constant_depth() {
        // 10_000 iterations under a depth budget of 50: only `TailCall`
        // (no activation growth) can pass, mirroring the tree-walker's
        // trampoline.
        let chunk = chunk_for(
            "(letrec ((define loop (lambda (n) (if (= n 0) 0 (loop (- n 1)))))) (loop 10000))",
        );
        let mut m = Machine::with_limits(Limits::none().max_depth(50));
        let v = execute(&chunk, &mut m).unwrap();
        assert!(v.observably_eq(&Value::Int(0)));
    }

    #[test]
    fn fuel_exhaustion_reports_the_same_text_as_the_tree_walker() {
        let src = "(letrec ((define loop (lambda (n) (loop (+ n 1))))) (loop 0))";
        let chunk = chunk_for(src);
        let vm_err = execute(&chunk, &mut Machine::with_fuel(5_000)).unwrap_err();
        let e = parse_file(src).unwrap();
        let tw_err =
            crate::evaluate_program(&crate::resolve_program(&e), &mut Machine::with_fuel(5_000))
                .unwrap_err();
        assert_eq!(vm_err.to_string(), tw_err.to_string());
        assert_eq!(vm_err.to_string(), "evaluation exceeded its fuel budget of 5000");
    }

    #[test]
    fn superinstructions_are_selected() {
        let chunk =
            chunk_for("(invoke (unit (import) (export) (define x 3) (init (+ x x) (+ x 2))))");
        assert!(chunk.code.iter().any(|op| matches!(op, Op::InvokeUnit(_))));
        assert!(chunk.code.iter().any(|op| matches!(op, Op::CallPrim { .. })));
        assert!(chunk.code.iter().any(|op| matches!(op, Op::CallPrimImm { .. })));
        // The fused forms replace the generic ones entirely here.
        assert!(!chunk.code.iter().any(|op| matches!(op, Op::Invoke(_) | Op::Call(_))));
    }

    #[test]
    fn immediate_prims_fuse_both_operand_orders() {
        // Right literal, left literal, and a non-fusible wide literal.
        assert_eq!(run_int("(- 10 1)"), 9);
        assert_eq!(run_int("(- 1 10)"), -9);
        assert_eq!(run_int("(* 3 (+ 1 2))"), 9);
        let chunk = chunk_for("(< 1 x)");
        assert!(chunk
            .code
            .iter()
            .any(|op| matches!(op, Op::CallPrimImm { rev: true, .. })));
        let wide = chunk_for("(+ x 5000000000)");
        assert!(wide.code.iter().any(|op| matches!(op, Op::CallPrim { .. })));
        // The fused comparison agrees with the unfused semantics.
        let mut m = Machine::new();
        let v = execute(&chunk_for("(< 2 1)"), &mut m).unwrap();
        assert!(v.observably_eq(&Value::Bool(false)));
    }

    #[test]
    fn disassembly_names_every_opcode() {
        let text = disassemble(&chunk_for(
            "(define f (lambda (x) (if x \"yes\" \"no\")))
             (invoke (unit (import) (export) (init 1)))",
        ));
        for needle in ["make-closure", "jump-if-false", "invoke-unit", "const", "consts:"] {
            assert!(text.contains(needle), "disassembly missing {needle}:\n{text}");
        }
    }

    #[test]
    fn error_classes_match_the_tree_walker() {
        for (src, expect) in [
            ("(1 2)", "application of a non-function"),
            ("(if 1 2 3)", "expected a boolean"),
            ("(proj 5 (tuple 1))", "projection 5 out of range"),
            ("(invoke 3)", "`invoke` rule applied to a non-unit"),
            ("(invoke (unit (import x) (export) (init x)))", "does not supply import `x`"),
            ("(set! nope 1)", "unbound variable"),
        ] {
            let err = run(src).unwrap_err().to_string();
            assert!(err.contains(expect), "{src}: {err}");
        }
    }

    #[test]
    fn set_targets_definition_cells() {
        assert_eq!(
            run_int(
                "(invoke (unit (import) (export)
                   (define counter 0)
                   (init (set! counter (+ counter 1)) counter)))"
            ),
            1
        );
    }

    #[test]
    fn compound_linking_round_trips() {
        let src = "(invoke (compound (import) (export)
            (link ((unit (import odd) (export even)
                     (define even (lambda (n) (if (= n 0) true (odd (- n 1)))))
                     (init void))
                   (with odd) (provides even))
                  ((unit (import even) (export odd)
                     (define odd (lambda (n) (if (= n 0) false (even (- n 1)))))
                     (init (odd 13)))
                   (with even) (provides odd)))))";
        // Both constituents are closed unit literals: resolution merged
        // the compound, so the chunk invokes one unit.
        assert!(chunk_for(src).compounds.is_empty());
        match run(src) {
            Ok(Value::Bool(true)) => {}
            other => panic!("odd(13) should be true, got {other:?}"),
        }
    }

    #[test]
    fn let_bound_compound_linking_round_trips() {
        // `let`-bound constituents are not literals, so the compound
        // stays: a `CheckLink` after each constituent, then the
        // compound.
        let src = "(invoke (let ((e (unit (import odd) (export even)
                                    (define even (lambda (n) (if (= n 0) true (odd (- n 1)))))
                                    (init void)))
                                 (o (unit (import even) (export odd)
                                    (define odd (lambda (n) (if (= n 0) false (even (- n 1)))))
                                    (init (odd 13)))))
                     (compound (import) (export)
                       (link (e (with odd) (provides even))
                             (o (with even) (provides odd))))))";
        let chunk = chunk_for(src);
        let checks = chunk.code.iter().filter(|op| matches!(op, Op::CheckLink { .. })).count();
        assert_eq!(checks, 2);
        assert!(chunk.code.iter().any(|op| matches!(op, Op::MakeCompound(_))));
        match run(src) {
            Ok(Value::Bool(true)) => {}
            other => panic!("odd(13) should be true, got {other:?}"),
        }
    }
}
