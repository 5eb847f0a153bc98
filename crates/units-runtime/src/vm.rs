//! The bytecode backend's dispatch loop.
//!
//! `units-compile::lower` flattens a resolved program into a [`Chunk`] —
//! one linear [`Op`] array holding every λ-body and unit definition/init
//! segment, plus pooled constants and the shared side tables. This module
//! executes chunks: a stack machine whose environment register reuses the
//! tree-walker's persistent [`Env`] frames, so closures and unit values
//! flow between the two compiled backends unchanged and the resolver's
//! `(depth, slot)` addresses mean the same thing under both.
//!
//! Design points:
//!
//! * **Budget parity.** Fuel is charged through [`Machine::charge`],
//!   batched per basic block and flushed at back-edges, call sites, and
//!   returns — a diverging program cannot outrun its budget, and the
//!   error is the same typed [`RuntimeError::ResourceExhausted`] the
//!   tree-walkers raise. Depth is charged per non-tail activation and per
//!   nested invocation; store cells go through the shared
//!   [`crate::wiring`] layer, so cell counts are identical by
//!   construction.
//! * **Tail calls.** [`Op::TailCall`] replaces the running activation
//!   instead of pushing one, so mutual tail recursion (Fig. 12's
//!   even/odd units) runs in constant space, like the tree-walker's
//!   trampoline.
//! * **Invocation.** [`Op::Invoke`] wires cells with the shared
//!   [`wiring::wire`](crate::wiring::wire), then executes the lowered
//!   definition segments in link order followed by the init segments —
//!   the Fig. 11 protocol, byte-for-byte the tree-walker's observable
//!   behaviour.
//! * **Faults.** The `vm/dispatch` site trips once per chunk entry and
//!   once per invocation, mirroring `compile/eval` / `compile/instantiate`
//!   on the tree-walking backend, so the chaos harness covers the VM.
//! * **Tracing.** Each dispatched opcode bumps a `vm/op/...` counter
//!   (free in non-`trace` builds, where `units_trace::count` is a no-op).
//! * **Profiling.** In `trace` builds every chunk carries an
//!   [`OpProfile`] — per-op execution counts plus batched-fuel
//!   attribution, filled by the dispatch loop and rendered by
//!   [`disassemble_profiled`]. In default builds the profile is an
//!   empty vector and the counting code is removed by constant folding
//!   on [`units_trace::COMPILED`].

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use units_kernel::{
    CompoundExpr, InvokeExpr, LetrecExpr, LexAddr, PrimOp, Signature, Symbol, UnitExpr,
};

use crate::env::{read_binding, Binding, Env};
use crate::error::RuntimeError;
use crate::machine::Machine;
use crate::prim::apply_prim;
use crate::value::{AtomicUnit, Closure, LinkedUnit, UnitValue, Value};
use crate::wiring::{
    apply_data, as_unit, check_link, emit_invoke_event, import_cells, seal_unit, wire,
};

/// One instruction of the flat bytecode ISA.
///
/// The machine is stack-based; variables are read through their resolved
/// addresses in the environment register, which holds the same
/// persistent frames the tree-walker builds. Symbols are the interned
/// `u32` handles of `units-kernel`, so operands stay compact. `CallPrim`
/// and `InvokeUnit` are superinstructions fusing the hot Fig. 11
/// sequences (primitive application, and `(invoke (unit …))` with no
/// links).
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Push an integer immediate.
    Int(i64),
    /// Push a boolean immediate.
    Bool(bool),
    /// Push void.
    Void,
    /// Push `consts[i]` (pooled string literals).
    Const(u32),
    /// Push a first-class primitive.
    PrimVal(PrimOp),
    /// Push a variable through its resolved lexical address.
    Load {
        /// Frames to walk outward.
        depth: u32,
        /// Slot within the frame.
        slot: u32,
        /// The variable (for error messages).
        name: Symbol,
    },
    /// `set!` through a resolved address; pushes void.
    Store {
        /// Frames to walk outward.
        depth: u32,
        /// Slot within the frame.
        slot: u32,
        /// The variable being assigned.
        name: Symbol,
    },
    /// A free variable, read or assigned: fails with
    /// [`RuntimeError::Unbound`].
    Unbound(Symbol),
    /// Pop this many values into a new `let` frame.
    Bind(u32),
    /// Push the recursive frame of `recs[i]` (datatype operations, then
    /// one empty cell per definition) — the shared
    /// [`wiring::bind_letrec_frame`](crate::wiring::bind_letrec_frame).
    BindRec(u32),
    /// Pop a value into the cell at `slot` of the innermost frame (a
    /// `letrec` definition result).
    InitCell(u32),
    /// Rewind the environment register one frame.
    PopFrame,
    /// Relative jump (offset from the next instruction).
    Jump(i32),
    /// Pop a boolean; jump when false.
    JumpIfFalse(i32),
    /// Push a closure over `protos[i]` and the current environment.
    MakeClosure(u32),
    /// Pop `argc` arguments and a callee; push an activation and enter
    /// the callee (or apply a primitive/datatype operation in place).
    Call(u32),
    /// Like [`Op::Call`] but replaces the running activation — constant
    /// space for tail recursion.
    TailCall(u32),
    /// Superinstruction: apply a known primitive to the top `argc`
    /// values without materializing the callee.
    CallPrim {
        /// The primitive.
        op: PrimOp,
        /// Argument count.
        argc: u32,
    },
    /// Superinstruction: apply a binary primitive to the top of the
    /// stack and a small integer immediate in place — the fused
    /// `…; Int k; CallPrim` sequence (a literal operand has no effects,
    /// so fusing preserves evaluation order).
    CallPrimImm {
        /// The primitive.
        op: PrimOp,
        /// The literal operand, fused when it fits 32 bits.
        imm: i32,
        /// Whether the immediate is the *left* operand (`(op k x)`).
        rev: bool,
    },
    /// Leave the current segment, restoring the caller's activation.
    Return,
    /// Pop `n` values into a tuple.
    MakeTuple(u32),
    /// Project field `i` of a tuple.
    Proj(usize),
    /// Discard the top of stack (non-final `begin` expressions).
    Pop,
    /// Push an atomic unit value over `units[i]` and the current
    /// environment.
    MakeUnit(u32),
    /// Assert the top of stack is a unit, naming the Fig. 11 rule.
    AsUnit(&'static str),
    /// Check the Fig. 11 side conditions of link `link` of
    /// `compounds[compound]` against the unit on top of the stack.
    CheckLink {
        /// Index into the compound table.
        compound: u32,
        /// Which link clause.
        link: u32,
    },
    /// Pop the (checked) constituent units and push the linked compound.
    MakeCompound(u32),
    /// Pop the link values and target of `invokes[i]`; wire and run it.
    Invoke(u32),
    /// Superinstruction: `(invoke (unit …))` with no links — build and
    /// invoke `units[i]` without touching the stack.
    InvokeUnit(u32),
    /// Seal the unit on top of the stack against `sigs[i]`.
    Seal(u32),
    /// A machine-internal form reached evaluation; fails like the
    /// tree-walker's `WrongType` with this expectation.
    Unsupported(&'static str),
}

impl Op {
    /// The opcode's mnemonic, doubling as its per-opcode trace-counter
    /// key (`vm/op/…`).
    pub fn name(&self) -> &'static str {
        match self {
            Op::Int(_) => "vm/op/int",
            Op::Bool(_) => "vm/op/bool",
            Op::Void => "vm/op/void",
            Op::Const(_) => "vm/op/const",
            Op::PrimVal(_) => "vm/op/primval",
            Op::Load { .. } => "vm/op/load",
            Op::Store { .. } => "vm/op/store",
            Op::Unbound(_) => "vm/op/unbound",
            Op::Bind(_) => "vm/op/bind",
            Op::BindRec(_) => "vm/op/bind-rec",
            Op::InitCell(_) => "vm/op/init-cell",
            Op::PopFrame => "vm/op/pop-frame",
            Op::Jump(_) => "vm/op/jump",
            Op::JumpIfFalse(_) => "vm/op/jump-if-false",
            Op::MakeClosure(_) => "vm/op/make-closure",
            Op::Call(_) => "vm/op/call",
            Op::TailCall(_) => "vm/op/tail-call",
            Op::CallPrim { .. } => "vm/op/call-prim",
            Op::CallPrimImm { .. } => "vm/op/call-prim-imm",
            Op::Return => "vm/op/return",
            Op::MakeTuple(_) => "vm/op/make-tuple",
            Op::Proj(_) => "vm/op/proj",
            Op::Pop => "vm/op/pop",
            Op::MakeUnit(_) => "vm/op/make-unit",
            Op::AsUnit(_) => "vm/op/as-unit",
            Op::CheckLink { .. } => "vm/op/check-link",
            Op::MakeCompound(_) => "vm/op/make-compound",
            Op::Invoke(_) => "vm/op/invoke",
            Op::InvokeUnit(_) => "vm/op/invoke-unit",
            Op::Seal(_) => "vm/op/seal",
            Op::Unsupported(_) => "vm/op/unsupported",
        }
    }
}

/// A lowered λ-abstraction: the source node (arity, parameter names, and
/// inspectability) plus where its body segment starts.
#[derive(Debug, Clone)]
pub struct Proto {
    /// The shared source λ.
    pub lambda: Arc<units_kernel::Lambda>,
    /// Entry of the body segment.
    pub entry: u32,
}

/// A lowered unit: the shared source plus one segment per definition and
/// one for the init expression.
#[derive(Debug, Clone)]
pub struct UnitProto {
    /// The shared unit source (interfaces, definition order).
    pub source: Arc<UnitExpr>,
    /// Entry of each definition-body segment, in definition order.
    pub def_entries: Vec<u32>,
    /// Entry of the init segment.
    pub init_entry: u32,
}

/// A compiled program: flat code plus the pooled constants and side
/// tables every segment shares. One chunk holds *all* segments of a
/// program — the single-copy-of-the-code invariant of §4.1.6, in flat
/// form.
#[derive(Debug, Clone, Default)]
pub struct Chunk {
    /// The instruction stream (all segments, each ending in `Return`).
    pub code: Vec<Op>,
    /// Pooled literal constants (deduplicated strings).
    pub consts: Vec<Arc<str>>,
    /// λ prototypes for [`Op::MakeClosure`].
    pub protos: Vec<Proto>,
    /// Unit prototypes for [`Op::MakeUnit`] / [`Op::InvokeUnit`].
    pub units: Vec<UnitProto>,
    /// `letrec` descriptors for [`Op::BindRec`].
    pub recs: Vec<Arc<LetrecExpr>>,
    /// Compound descriptors for [`Op::CheckLink`] / [`Op::MakeCompound`].
    pub compounds: Vec<Arc<CompoundExpr>>,
    /// Invoke descriptors (link names) for [`Op::Invoke`].
    pub invokes: Vec<Arc<InvokeExpr>>,
    /// Signatures for [`Op::Seal`].
    pub sigs: Vec<Arc<Signature>>,
    /// Entry of the program's top-level segment.
    pub entry: u32,
    /// Per-op execution counters (empty unless allocated by the
    /// lowerer in `trace` builds — see [`OpProfile::sized`]).
    pub profile: OpProfile,
}

/// The bytecode profiler's raw storage: one execution counter per op in
/// the owning [`Chunk`], plus how much batched fuel the dispatch loop
/// attributed to this chunk at flush points. Relaxed atomics let the
/// dispatch loop count through the shared `Arc<Chunk>` without
/// threading `&mut` through every activation — and let concurrent
/// bytecode runs of one cached chunk count without tearing.
///
/// A default-constructed profile is *disabled* (no counter storage);
/// counting only happens when the lowerer allocated counters, which it
/// does exactly when `units_trace::COMPILED` — so default builds pay
/// nothing.
#[derive(Debug, Default)]
pub struct OpProfile {
    counts: Vec<AtomicU64>,
    fuel: AtomicU64,
}

impl Clone for OpProfile {
    fn clone(&self) -> OpProfile {
        OpProfile {
            counts: self.counts.iter().map(|c| AtomicU64::new(c.load(Relaxed))).collect(),
            fuel: AtomicU64::new(self.fuel.load(Relaxed)),
        }
    }
}

impl OpProfile {
    /// A profile with one counter per op of a `len`-op chunk.
    pub fn sized(len: usize) -> OpProfile {
        OpProfile { counts: (0..len).map(|_| AtomicU64::new(0)).collect(), fuel: AtomicU64::new(0) }
    }

    /// Whether this profile has counter storage.
    pub fn enabled(&self) -> bool {
        !self.counts.is_empty()
    }

    /// Bumps the counter for op `i` (no-op when disabled).
    #[inline]
    pub fn hit(&self, i: usize) {
        if let Some(c) = self.counts.get(i) {
            c.fetch_add(1, Relaxed);
        }
    }

    /// Attributes `n` units of batched fuel to this chunk.
    #[inline]
    pub fn add_fuel(&self, n: u64) {
        if self.enabled() {
            self.fuel.fetch_add(n, Relaxed);
        }
    }

    /// All per-op counts, in instruction order (empty when disabled).
    pub fn counts(&self) -> Vec<u64> {
        self.counts.iter().map(|c| c.load(Relaxed)).collect()
    }

    /// Fuel attributed to this chunk at flush points so far.
    pub fn fuel(&self) -> u64 {
        self.fuel.load(Relaxed)
    }

    /// Total ops executed (the sum of all counters).
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Relaxed)).sum()
    }

    /// Zeroes every counter, keeping the storage.
    pub fn reset(&self) {
        for c in &self.counts {
            c.store(0, Relaxed);
        }
        self.fuel.store(0, Relaxed);
    }
}

/// A handle from a run-time value back into its chunk: the closure's
/// proto or the atomic unit's unit proto.
#[derive(Debug, Clone)]
pub struct VmCode {
    /// The owning chunk (shared — one copy of the code).
    pub chunk: Arc<Chunk>,
    /// Index into [`Chunk::protos`] (closures) or [`Chunk::units`]
    /// (atomic units).
    pub index: u32,
}

/// A suspended caller: where to resume when the callee returns.
struct Activation {
    chunk: Arc<Chunk>,
    ip: usize,
    env: Env,
}

/// Addresses at least this deep go through the frame display instead of
/// walking parent links. Shallow walks (the common case: parameters and
/// the enclosing unit frame) are one or two pointer hops and never pay
/// the display's build cost.
const DEEP_LOAD: u32 = 4;

/// A cache of the running activation's static chain, innermost
/// environment last, so a resolved `(depth, slot)` address indexes its
/// frame in O(1) instead of walking `depth` parent links. Built lazily
/// on the first deep load, kept in sync by `Bind`/`BindRec`/`PopFrame`,
/// and invalidated whenever the chain changes wholesale (calls, tail
/// calls, returns). The tree-walker has no analogue — its variable
/// references always walk — which is most of the VM's advantage on
/// deeply nested scopes.
struct Display {
    chain: Vec<Env>,
    built: bool,
}

impl Display {
    fn new() -> Display {
        Display { chain: Vec::new(), built: false }
    }

    fn invalidate(&mut self) {
        if self.built {
            self.chain.clear();
            self.built = false;
        }
    }

    fn ensure(&mut self, env: &Env) {
        if self.built {
            return;
        }
        let mut e = env.clone();
        while !e.is_empty() {
            let parent = e.parent();
            self.chain.push(e);
            e = parent;
        }
        self.chain.reverse();
        self.built = true;
    }

    fn pushed(&mut self, env: &Env) {
        if self.built {
            self.chain.push(env.clone());
        }
    }

    fn popped(&mut self) {
        if self.built {
            self.chain.pop();
        }
    }

    fn get(&self, depth: u32, slot: u32) -> Option<&Binding> {
        let i = self.chain.len().checked_sub(1 + depth as usize)?;
        self.chain[i].top_binding(slot as usize)
    }
}

/// Applies a hot binary integer primitive inline, unless tracing is
/// compiled in or a fault plane is armed — `apply_prim` is observably
/// identical on these operands but pays the event and fault-site
/// plumbing. Traced builds and armed runs always take the shared path,
/// so their `prim` event streams and `runtime/prim` fault site stay
/// aligned with the tree-walker's. Returns `None` for any operator
/// outside the fast set; the caller falls through.
#[inline(always)]
fn fast_int(op: PrimOp, a: i64, b: i64) -> Option<Value> {
    if units_trace::COMPILED || units_trace::faults::armed() {
        return None;
    }
    Some(match op {
        PrimOp::Add => Value::Int(a.wrapping_add(b)),
        PrimOp::Sub => Value::Int(a.wrapping_sub(b)),
        PrimOp::Mul => Value::Int(a.wrapping_mul(b)),
        PrimOp::Lt => Value::Bool(a < b),
        PrimOp::Le => Value::Bool(a <= b),
        PrimOp::NumEq => Value::Bool(a == b),
        _ => return None,
    })
}

/// [`fast_int`] on an argument slice: `None` unless it holds two integers.
#[inline(always)]
fn fast_prim(op: PrimOp, args: &[Value]) -> Option<Value> {
    match args {
        [Value::Int(a), Value::Int(b)] => fast_int(op, *a, *b),
        _ => None,
    }
}

/// Finds a resolved variable's binding: shallow addresses walk the
/// environment directly ([`Env::lookup_at`]), deep addresses index the
/// frame display. `None` when the address points past the environment.
fn addressed<'a>(
    display: &'a mut Display,
    env: &'a Env,
    depth: u32,
    slot: u32,
) -> Option<&'a Binding> {
    if depth >= DEEP_LOAD {
        display.ensure(env);
        return display.get(depth, slot);
    }
    env.lookup_at(LexAddr { depth, slot })
}

/// Executes a chunk's top-level segment in the empty environment. The
/// chunk is `units_compile::lower_program`'s output for a term
/// `units_compile::resolve_program` produced.
///
/// # Errors
///
/// Any [`RuntimeError`] the program signals, including budget exhaustion
/// from the machine's [`Limits`](crate::machine::Limits).
pub fn execute(chunk: &Arc<Chunk>, machine: &mut Machine) -> Result<Value, RuntimeError> {
    units_trace::faults::trip("vm/dispatch")?;
    run(chunk.clone(), chunk.entry, Env::new(), machine)
}

/// Wires and runs an invocation whose constituents carry lowered code —
/// the VM counterpart of the tree-walker's `invoke_unit`, sharing its
/// cell protocol through [`crate::wiring`].
fn vm_invoke(
    unit: &UnitValue,
    supplied: &HashMap<Symbol, Value>,
    machine: &mut Machine,
) -> Result<Value, RuntimeError> {
    let _timer = units_trace::time("link");
    units_trace::faults::trip("vm/dispatch")?;
    let cells = import_cells(unit, supplied, machine)?;
    let mut wired = Vec::new();
    wire(unit, &cells, &[], machine, &mut wired)?;
    emit_invoke_event(unit, wired.len());
    // All definitions in link order, then all inits in link order; the
    // last init value is the result (Fig. 11's merged letrec).
    for w in &wired {
        let code = w.code.as_ref().ok_or(RuntimeError::WrongType {
            expected: "a bytecode-compiled unit",
            found: String::from("a unit without lowered code"),
        })?;
        let proto = &code.chunk.units[code.index as usize];
        for (i, entry) in proto.def_entries.iter().enumerate() {
            let v = run(code.chunk.clone(), *entry, w.env.clone(), machine)?;
            w.define(i, v);
        }
    }
    let mut result = Value::Void;
    for w in &wired {
        let code = w.code.as_ref().expect("checked while running definitions");
        let proto = &code.chunk.units[code.index as usize];
        result = run(code.chunk.clone(), proto.init_entry, w.env.clone(), machine)?;
    }
    Ok(result)
}

/// Runs one segment to its final `Return`. Calls stay inside the loop on
/// an explicit activation stack; only nested invocations recurse in Rust
/// (guarded by the machine's depth budget, like the tree-walker).
fn run(
    chunk: Arc<Chunk>,
    entry: u32,
    env: Env,
    machine: &mut Machine,
) -> Result<Value, RuntimeError> {
    machine.enter()?;
    let result = dispatch(chunk, entry, env, machine);
    machine.exit();
    result
}

fn dispatch(
    mut chunk: Arc<Chunk>,
    entry: u32,
    mut env: Env,
    machine: &mut Machine,
) -> Result<Value, RuntimeError> {
    let mut ip = entry as usize;
    let mut stack: Vec<Value> = Vec::with_capacity(16);
    let mut calls: Vec<Activation> = Vec::new();
    let mut display = Display::new();
    // Fuel accumulates locally and flushes at back-edges, call sites, and
    // returns — every loop a program can write passes a flush point.
    let mut pending: u64 = 0;
    macro_rules! flush {
        () => {
            if pending > 0 {
                if units_trace::COMPILED {
                    // Attribute the batch to the chunk it ran in — at a
                    // flush point `pending` belongs entirely to the
                    // chunk in the register.
                    chunk.profile.add_fuel(pending);
                }
                machine.charge(pending)?;
                pending = 0;
            }
        };
    }
    macro_rules! pop {
        () => {
            stack.pop().expect("the lowerer balances the value stack")
        };
    }
    loop {
        // Dispatch on a borrow of the instruction — no per-op clone. The
        // arms copy the scalar operands they need, which frees the arms
        // that swap chunks (calls, returns) to reassign the register.
        let op = &chunk.code[ip];
        ip += 1;
        pending += 1;
        units_trace::count(op.name(), 1);
        if units_trace::COMPILED {
            chunk.profile.hit(ip - 1);
        }
        match op {
            Op::Int(n) => stack.push(Value::Int(*n)),
            Op::Bool(b) => stack.push(Value::Bool(*b)),
            Op::Void => stack.push(Value::Void),
            Op::Const(i) => stack.push(Value::Str(chunk.consts[*i as usize].clone())),
            Op::PrimVal(p) => stack.push(Value::Prim(*p)),
            Op::Load { depth, slot, name } => {
                let v = read_binding(addressed(&mut display, &env, *depth, *slot), name)?;
                stack.push(v);
            }
            Op::Store { depth, slot, name } => {
                let v = pop!();
                store(addressed(&mut display, &env, *depth, *slot), name, v)?;
                stack.push(Value::Void);
            }
            Op::Unbound(name) => return Err(RuntimeError::Unbound { name: name.clone() }),
            Op::Bind(n) => {
                let at = stack.len() - *n as usize;
                env = env.extend(stack.drain(at..).map(Binding::Val).collect());
                display.pushed(&env);
            }
            Op::BindRec(i) => {
                let lr = chunk.recs[*i as usize].clone();
                let (inner, _cells) =
                    crate::wiring::bind_letrec_frame(&lr.types, &lr.vals, &env, machine)?;
                env = inner;
                display.pushed(&env);
            }
            Op::InitCell(slot) => {
                let v = pop!();
                match env.top_binding(*slot as usize) {
                    Some(Binding::Cell(c)) => *c.borrow_mut() = Some(v),
                    _ => {
                        return Err(RuntimeError::WrongType {
                            expected: "a definition cell",
                            found: String::from("a machine-internal form"),
                        })
                    }
                }
            }
            Op::PopFrame => {
                env = env.parent();
                display.popped();
            }
            Op::Jump(off) => {
                let off = *off;
                if off < 0 {
                    flush!();
                }
                ip = (ip as i64 + i64::from(off)) as usize;
            }
            Op::JumpIfFalse(off) => {
                let off = *off;
                match pop!() {
                    Value::Bool(true) => {}
                    Value::Bool(false) => {
                        if off < 0 {
                            flush!();
                        }
                        ip = (ip as i64 + i64::from(off)) as usize;
                    }
                    other => {
                        return Err(RuntimeError::WrongType {
                            expected: "a boolean",
                            found: other.to_string(),
                        })
                    }
                }
            }
            Op::MakeClosure(i) => {
                let i = *i;
                let proto = &chunk.protos[i as usize];
                stack.push(Value::Closure(Rc::new(Closure {
                    lambda: proto.lambda.clone(),
                    env: env.clone(),
                    code: Some(VmCode { chunk: chunk.clone(), index: i }),
                })));
            }
            Op::Call(argc) | Op::TailCall(argc) => {
                flush!();
                let argc = *argc as usize;
                let tail = matches!(op, Op::TailCall(_));
                let callee = stack.remove(stack.len() - 1 - argc);
                match callee {
                    Value::Closure(closure) => {
                        let code = closure_code(&closure, argc)?;
                        let callee_env = callee_env(&closure, &mut stack, argc);
                        let callee_entry = code.chunk.protos[code.index as usize].entry as usize;
                        display.invalidate();
                        if tail {
                            // Replace the running activation: constant
                            // space for tail recursion, like the
                            // tree-walker's trampoline.
                            if !Arc::ptr_eq(&chunk, &code.chunk) {
                                chunk = code.chunk.clone();
                            }
                            env = callee_env;
                        } else {
                            machine.enter()?;
                            calls.push(Activation {
                                chunk: std::mem::replace(&mut chunk, code.chunk.clone()),
                                ip,
                                env: std::mem::replace(&mut env, callee_env),
                            });
                        }
                        ip = callee_entry;
                    }
                    Value::Prim(p) => {
                        let at = stack.len() - argc;
                        let v = match fast_prim(p, &stack[at..]) {
                            Some(v) => v,
                            None => apply_prim(p, &stack[at..], machine)?,
                        };
                        stack.truncate(at);
                        stack.push(v);
                    }
                    Value::Data(d) => {
                        let args = stack.split_off(stack.len() - argc);
                        stack.push(apply_data(&d, args)?);
                    }
                    other => return Err(RuntimeError::NotAFunction { found: other.to_string() }),
                }
            }
            Op::CallPrim { op: p, argc } => {
                // Applied to a slice of the value stack in place — the
                // superinstruction allocates nothing. No flush: a prim
                // cannot form a loop, so back-edges and calls still
                // bound the pending fuel.
                let at = stack.len() - *argc as usize;
                let v = match fast_prim(*p, &stack[at..]) {
                    Some(v) => v,
                    None => apply_prim(*p, &stack[at..], machine)?,
                };
                stack.truncate(at);
                stack.push(v);
            }
            Op::CallPrimImm { op: p, imm, rev } => {
                let (p, imm, rev) = (*p, i64::from(*imm), *rev);
                let fast = match stack.last() {
                    Some(Value::Int(a)) if rev => fast_int(p, imm, *a),
                    Some(Value::Int(a)) => fast_int(p, *a, imm),
                    _ => None,
                };
                match fast {
                    Some(v) => {
                        *stack.last_mut().expect("fast path saw the operand") = v;
                    }
                    None => {
                        // Materialize the immediate and run the shared
                        // path — observably identical to the unfused
                        // `Int; CallPrim` sequence, errors included.
                        let at = stack.len() - 1;
                        if rev {
                            stack.insert(at, Value::Int(imm));
                        } else {
                            stack.push(Value::Int(imm));
                        }
                        let v = apply_prim(p, &stack[at..], machine)?;
                        stack.truncate(at);
                        stack.push(v);
                    }
                }
            }
            Op::Return => {
                flush!();
                match calls.pop() {
                    Some(a) => {
                        machine.exit();
                        chunk = a.chunk;
                        ip = a.ip;
                        env = a.env;
                        display.invalidate();
                    }
                    None => return Ok(pop!()),
                }
            }
            Op::MakeTuple(n) => {
                let vals = stack.split_off(stack.len() - *n as usize);
                stack.push(Value::tuple(vals));
            }
            Op::Proj(i) => {
                match pop!() {
                    Value::Tuple(items) => {
                        stack.push(items.get(*i).cloned().ok_or(RuntimeError::BadProjection {
                            index: *i,
                            width: items.len(),
                        })?);
                    }
                    other => {
                        return Err(RuntimeError::WrongType {
                            expected: "a tuple",
                            found: other.to_string(),
                        })
                    }
                }
            }
            Op::Pop => {
                pop!();
            }
            Op::MakeUnit(i) => {
                let i = *i;
                let proto = &chunk.units[i as usize];
                stack.push(Value::Unit(Rc::new(UnitValue::Atomic(AtomicUnit {
                    source: proto.source.clone(),
                    env: env.clone(),
                    code: Some(VmCode { chunk: chunk.clone(), index: i }),
                }))));
            }
            Op::AsUnit(rule) => {
                let u = as_unit(pop!(), rule)?;
                stack.push(Value::Unit(u));
            }
            Op::CheckLink { compound, link } => {
                let u = as_unit(pop!(), "compound")?;
                let lc = &chunk.compounds[*compound as usize].links[*link as usize];
                check_link(&u, &lc.with, &lc.provides)?;
                stack.push(Value::Unit(u));
            }
            Op::MakeCompound(i) => {
                let compound = chunk.compounds[*i as usize].clone();
                let units = stack
                    .split_off(stack.len() - compound.links.len())
                    .into_iter()
                    .map(|v| {
                        let Value::Unit(unit) = v else {
                            unreachable!("CheckLink verified every constituent")
                        };
                        unit
                    })
                    .collect();
                stack.push(Value::Unit(Rc::new(UnitValue::Linked(LinkedUnit { compound, units }))));
            }
            Op::Invoke(i) => {
                flush!();
                let inv = chunk.invokes[*i as usize].clone();
                let vals = stack.split_off(stack.len() - inv.val_links.len());
                let unit = as_unit(pop!(), "invoke")?;
                let mut supplied = HashMap::with_capacity(inv.val_links.len());
                for ((name, _), v) in inv.val_links.iter().zip(vals) {
                    supplied.insert(name.clone(), v);
                }
                stack.push(vm_invoke(&unit, &supplied, machine)?);
            }
            Op::InvokeUnit(i) => {
                flush!();
                let i = *i;
                let proto = &chunk.units[i as usize];
                let unit = UnitValue::Atomic(AtomicUnit {
                    source: proto.source.clone(),
                    env: env.clone(),
                    code: Some(VmCode { chunk: chunk.clone(), index: i }),
                });
                stack.push(vm_invoke(&unit, &HashMap::new(), machine)?);
            }
            Op::Seal(i) => {
                let u = as_unit(pop!(), "seal")?;
                let sealed = seal_unit(u, &chunk.sigs[*i as usize])?;
                stack.push(Value::Unit(Rc::new(sealed)));
            }
            Op::Unsupported(expected) => {
                return Err(RuntimeError::WrongType {
                    expected,
                    found: String::from("a machine-internal form"),
                })
            }
        }
    }
}

/// Applies a procedure value to arguments from outside any chunk — the
/// host-side counterpart of [`Op::Call`], for calling a procedure a
/// program returned. A closure runs its lowered body segment in a fresh
/// activation, charged to the depth budget like a non-tail call; a
/// primitive or datatype operation applies in place.
///
/// # Errors
///
/// The errors [`Op::Call`] raises — arity mismatch, a closure without
/// lowered code, a non-procedure callee — plus any [`RuntimeError`] the
/// body signals.
pub fn apply(
    func: Value,
    mut args: Vec<Value>,
    machine: &mut Machine,
) -> Result<Value, RuntimeError> {
    match func {
        Value::Closure(closure) => {
            let argc = args.len();
            let code = closure_code(&closure, argc)?;
            let entry = code.chunk.protos[code.index as usize].entry;
            let env = callee_env(&closure, &mut args, argc);
            run(code.chunk.clone(), entry, env, machine)
        }
        Value::Prim(p) => match fast_prim(p, &args) {
            Some(v) => Ok(v),
            None => apply_prim(p, &args, machine),
        },
        Value::Data(d) => apply_data(&d, args),
        other => Err(RuntimeError::NotAFunction { found: other.to_string() }),
    }
}

/// The checks a call makes before entering a closure: its arity, then
/// its lowered code (the body segment to enter).
#[inline]
fn closure_code(closure: &Closure, argc: usize) -> Result<&VmCode, RuntimeError> {
    if closure.arity() != argc {
        return Err(RuntimeError::Arity { expected: closure.arity(), found: argc });
    }
    closure.code.as_ref().ok_or_else(|| RuntimeError::WrongType {
        expected: "a bytecode-compiled procedure",
        found: String::from("a closure without lowered code"),
    })
}

/// The closure's environment extended with its parameters bound to the
/// top `argc` values of `stack`, which move straight into the frame (no
/// intermediate vector; a unary frame is stored inline).
#[inline]
fn callee_env(closure: &Closure, stack: &mut Vec<Value>, argc: usize) -> Env {
    if argc == 1 {
        let v = stack.pop().expect("the caller pushed the argument");
        closure.env.extend1(Binding::Val(v))
    } else {
        let at = stack.len() - argc;
        closure.env.extend(stack.drain(at..).map(Binding::Val).collect())
    }
}

/// The `set!` store half: `binding` is the addressed slot, `None` past
/// the environment.
fn store(binding: Option<&Binding>, name: &Symbol, v: Value) -> Result<(), RuntimeError> {
    match binding {
        Some(Binding::Cell(c)) => {
            *c.borrow_mut() = Some(v);
            Ok(())
        }
        Some(Binding::Val(_)) => Err(RuntimeError::WrongType {
            expected: "an assignable (definition) variable",
            found: format!("immutable binding `{name}`"),
        }),
        None => Err(RuntimeError::Unbound { name: name.clone() }),
    }
}

/// Pretty-prints a chunk — one line per instruction with resolved
/// operands, followed by the constant pool and segment tables. Backs the
/// REPL's `:disasm`.
pub fn disassemble(chunk: &Chunk) -> String {
    render(chunk, false)
}

/// Like [`disassemble`], but prefixes every instruction with its
/// execution count from the chunk's [`OpProfile`] and reports the
/// totals — the REPL's `:disasm --profile`. Counts are only collected
/// in `trace` builds; elsewhere (or before any bytecode run) the
/// header says so instead of printing a column of zeros.
pub fn disassemble_profiled(chunk: &Chunk) -> String {
    render(chunk, true)
}

fn render(chunk: &Chunk, profiled: bool) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "chunk: {} ops, entry @{}", chunk.code.len(), chunk.entry);
    let counts = if profiled {
        if !chunk.profile.enabled() {
            let _ = writeln!(
                out,
                "profile: unavailable — per-op counters need a build with --features trace"
            );
            None
        } else if chunk.profile.total() == 0 {
            let _ = writeln!(out, "profile: no bytecode run recorded yet (all counts zero)");
            None
        } else {
            let _ = writeln!(
                out,
                "profile: {} ops executed, {} fuel attributed",
                chunk.profile.total(),
                chunk.profile.fuel()
            );
            Some(chunk.profile.counts())
        }
    } else {
        None
    };
    for (i, op) in chunk.code.iter().enumerate() {
        let mnemonic = op.name().trim_start_matches("vm/op/");
        let operands = match op {
            Op::Int(n) => format!("{n}"),
            Op::Bool(b) => format!("{b}"),
            Op::Const(c) => format!("#{c} = {:?}", chunk.consts[*c as usize]),
            Op::PrimVal(p) | Op::CallPrim { op: p, argc: 0 } => format!("{p}"),
            Op::CallPrim { op: p, argc } => format!("{p} argc={argc}"),
            Op::CallPrimImm { op: p, imm, rev: false } => format!("{p} _ {imm}"),
            Op::CallPrimImm { op: p, imm, rev: true } => format!("{p} {imm} _"),
            Op::Load { depth, slot, name } | Op::Store { depth, slot, name } => {
                format!("{name} @({depth},{slot})")
            }
            Op::Unbound(n) => format!("{n}"),
            Op::BindRec(r) => {
                let lr = &chunk.recs[*r as usize];
                format!("{} defs", lr.vals.len())
            }
            Op::InitCell(s) => format!("slot {s}"),
            Op::Jump(off) | Op::JumpIfFalse(off) => {
                format!("→ {}", i as i64 + 1 + i64::from(*off))
            }
            Op::MakeClosure(p) => {
                let proto = &chunk.protos[*p as usize];
                format!("proto {p} (arity {}) @{}", proto.lambda.params.len(), proto.entry)
            }
            Op::Call(n) | Op::TailCall(n) | Op::MakeTuple(n) | Op::Bind(n) => format!("{n}"),
            Op::Proj(i) => format!("{i}"),
            Op::MakeUnit(u) | Op::InvokeUnit(u) => {
                let proto = &chunk.units[*u as usize];
                let entries: Vec<String> =
                    proto.def_entries.iter().map(|e| format!("@{e}")).collect();
                format!("unit {u} defs[{}] init @{}", entries.join(" "), proto.init_entry)
            }
            Op::AsUnit(rule) | Op::Unsupported(rule) => format!("{rule:?}"),
            Op::CheckLink { compound, link } => format!("compound {compound} link {link}"),
            Op::MakeCompound(c) => {
                format!("{} links", chunk.compounds[*c as usize].links.len())
            }
            Op::Invoke(v) => {
                let inv = &chunk.invokes[*v as usize];
                format!("{} links", inv.val_links.len())
            }
            Op::Seal(s) => {
                format!("{} exports", chunk.sigs[*s as usize].exports.vals.len())
            }
            Op::Void | Op::PopFrame | Op::Return | Op::Pop => String::new(),
        };
        if let Some(counts) = &counts {
            let _ = write!(out, "{:>9}× ", counts.get(i).copied().unwrap_or(0));
        }
        if operands.is_empty() {
            let _ = writeln!(out, "{i:>5}  {mnemonic}");
        } else {
            let _ = writeln!(out, "{i:>5}  {mnemonic:<14} {operands}");
        }
    }
    if !chunk.consts.is_empty() {
        let _ = writeln!(out, "consts:");
        for (i, v) in chunk.consts.iter().enumerate() {
            let _ = writeln!(out, "{i:>5}  {v:?}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_stay_three_words() {
        assert!(std::mem::size_of::<Op>() <= 24, "{}", std::mem::size_of::<Op>());
    }
}
