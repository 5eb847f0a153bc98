//! The backend-neutral half of unit instantiation (§4.1.6).
//!
//! Wiring — creating the reference cells of an invocation and handing
//! each constituent the cells its ports name — is pure runtime logic: it
//! never evaluates an expression. Both evaluators that *do* evaluate (the
//! tree-walking cells backend in `units-compile` and the bytecode VM in
//! [`crate::vm`]) share this module, so cell accounting, link-error
//! ordering, and frame discipline cannot drift between them.
//!
//! The shared pieces are:
//!
//! * [`bind_letrec_frame`] — the recursive frame for a `letrec` body:
//!   freshly instantiated datatype operations, then one cell per value
//!   definition (the slot order the resolver mirrors);
//! * [`apply_data`] — first-class datatype operations (§5.3);
//! * [`check_link`] / [`seal_unit`] — the Fig. 11 side conditions and the
//!   §5.2 signature-ascription checks, with their exact error strings;
//! * [`wire`] — wiring from link plans: a compound fills one slot vector
//!   laid out by its cached [`LinkPlan`](units_kernel::LinkPlan) and
//!   hands each constituent the slots its clause names; an atomic
//!   constituent gets one frame of import cells, datatype operations and
//!   definition cells. The result is one [`WiredUnit`] per atomic
//!   constituent, in initialization order.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use units_kernel::{DataRole, Ports, Signature, Symbol, TypeDefn, UnitExpr, ValDefn, ValPort};

use crate::env::{Binding, Env};
use crate::error::RuntimeError;
use crate::machine::Machine;
use crate::value::{
    AtomicUnit, CellRef, DataOpValue, LinkedUnit, UnitValue, Value, VariantValue,
};
use crate::vm::VmCode;

/// Builds the recursive frame for a `letrec` body: freshly instantiated
/// datatype operations, then fresh cells for value definitions.
/// Returns the extended environment and the definition cells in order.
///
/// # Errors
///
/// Returns [`RuntimeError::ResourceExhausted`] when allocating the
/// definition cells would exceed the machine's store-cell budget.
pub fn bind_letrec_frame(
    types: &[TypeDefn],
    vals: &[ValDefn],
    env: &Env,
    machine: &mut Machine,
) -> Result<(Env, Vec<CellRef>), RuntimeError> {
    machine.alloc_cells(vals.len() as u64)?;
    let mut frame = Vec::new();
    push_data_ops(types, &mut frame, machine);
    let mut cells = Vec::with_capacity(vals.len());
    for defn in vals {
        let cell = machine.cell(None);
        frame.push((defn.name.clone(), Binding::Cell(cell.clone())));
        cells.push(cell);
    }
    Ok((env.extend(frame), cells))
}

/// Appends a fresh instance of each datatype's operations to `frame`:
/// per datatype, each variant's constructor then deconstructor, then the
/// predicate.
fn push_data_ops(types: &[TypeDefn], frame: &mut Vec<(Symbol, Binding)>, machine: &mut Machine) {
    for td in types {
        if let TypeDefn::Data(d) = td {
            let instance = machine.fresh_instance();
            let op = |role| {
                Binding::Val(Value::Data(Rc::new(DataOpValue {
                    ty_name: d.name.clone(),
                    instance,
                    role,
                })))
            };
            for (tag, v) in d.variants.iter().enumerate() {
                frame.push((v.ctor.clone(), op(DataRole::Construct(tag))));
                frame.push((v.dtor.clone(), op(DataRole::Deconstruct(tag))));
            }
            frame.push((d.predicate.clone(), op(DataRole::Predicate)));
        }
    }
}

/// Applies a first-class datatype operation (§5.3): construct, deconstruct,
/// or discriminate a variant of the operation's own instance.
///
/// # Errors
///
/// [`RuntimeError::Arity`] off one argument;
/// [`RuntimeError::WrongVariant`] / [`RuntimeError::ForeignInstance`] /
/// [`RuntimeError::WrongType`] when the argument is not the operation's.
pub fn apply_data(op: &DataOpValue, mut args: Vec<Value>) -> Result<Value, RuntimeError> {
    if args.len() != 1 {
        return Err(RuntimeError::Arity { expected: 1, found: args.len() });
    }
    let Some(arg) = args.pop() else {
        return Err(RuntimeError::Arity { expected: 1, found: 0 });
    };
    match op.role {
        DataRole::Construct(tag) => Ok(Value::Variant(Rc::new(VariantValue {
            ty_name: op.ty_name.clone(),
            instance: op.instance,
            tag,
            payload: arg,
        }))),
        DataRole::Deconstruct(tag) => {
            let v = expect_own_variant(op, arg)?;
            if v.tag != tag {
                return Err(RuntimeError::WrongVariant {
                    ty_name: op.ty_name.clone(),
                    expected: tag,
                    found: v.tag,
                });
            }
            Ok(v.payload.clone())
        }
        DataRole::Predicate => {
            let v = expect_own_variant(op, arg)?;
            Ok(Value::Bool(v.tag == 0))
        }
    }
}

fn expect_own_variant(
    op: &DataOpValue,
    arg: Value,
) -> Result<Rc<VariantValue>, RuntimeError> {
    match arg {
        Value::Variant(v) if v.ty_name == op.ty_name && v.instance == op.instance => Ok(v),
        Value::Variant(v) if v.ty_name == op.ty_name => {
            Err(RuntimeError::ForeignInstance { ty_name: op.ty_name.clone() })
        }
        other => Err(RuntimeError::WrongType {
            expected: "a datatype value of the defining instance",
            found: other.to_string(),
        }),
    }
}

/// Narrows to a unit value, or reports which Fig. 11 rule was applied to a
/// non-unit — the same variant the reference reducer raises, so all three
/// backends agree on the error class.
///
/// # Errors
///
/// [`RuntimeError::NotAUnit`] naming `rule`.
pub fn as_unit(v: Value, rule: &'static str) -> Result<Rc<UnitValue>, RuntimeError> {
    match v {
        Value::Unit(u) => Ok(u),
        other => Err(RuntimeError::NotAUnit { rule, found: other.to_string() }),
    }
}

/// The Fig. 11 side conditions for one `compound` link clause: the
/// constituent needs no more than the `with` clause grants, and provides
/// at least what the clause promises.
///
/// # Errors
///
/// [`RuntimeError::ExcessImport`] / [`RuntimeError::MissingProvide`],
/// imports checked first — the order both backends must agree on.
pub fn check_link(
    unit: &UnitValue,
    with: &Ports,
    provides: &Ports,
) -> Result<(), RuntimeError> {
    for name in unit.imports().vals.iter().map(|p| &p.name) {
        if with.val_port(name).is_none() {
            return Err(RuntimeError::ExcessImport { name: name.clone() });
        }
    }
    for name in provides.vals.iter().map(|p| &p.name) {
        if unit.exports().val_port(name).is_none() {
            return Err(RuntimeError::MissingProvide { name: name.clone() });
        }
    }
    Ok(())
}

/// The run-time effect of §5.2 signature ascription: imports may only be
/// narrowed, exports only restricted. Returns the sealed view.
///
/// # Errors
///
/// [`RuntimeError::SealFailure`] naming the offending port, imports
/// checked first.
pub fn seal_unit(unit: Rc<UnitValue>, sig: &Signature) -> Result<UnitValue, RuntimeError> {
    for port in &unit.imports().vals {
        if sig.imports.val_port(&port.name).is_none() {
            return Err(RuntimeError::SealFailure {
                reason: format!("unit imports `{}`, signature does not", port.name),
            });
        }
    }
    for port in &sig.exports.vals {
        if unit.exports().val_port(&port.name).is_none() {
            return Err(RuntimeError::SealFailure {
                reason: format!("signature exports `{}`, unit does not", port.name),
            });
        }
    }
    Ok(UnitValue::Restricted { inner: unit, exports: sig.exports.clone() })
}

/// One atomic constituent, wired and awaiting its definition/init phases.
/// The evaluator that triggered the invocation decides *how* the phases
/// run: the tree-walker evaluates `source.vals[i].body` / `source.init`,
/// the VM executes the segments behind `code`. Either stores each
/// definition's value with [`WiredUnit::define`].
pub struct WiredUnit {
    /// The constituent's environment: the captured environment plus one
    /// frame holding the import cells, then the datatype operations,
    /// then one cell per value definition (the layout `resolve_program`
    /// mirrors). An exported definition's slot holds the cell its
    /// consumers read.
    pub env: Env,
    /// The shared unit source.
    pub source: Arc<UnitExpr>,
    /// The lowered segments, when the unit value came from the VM.
    pub code: Option<VmCode>,
    /// The frame slot of the first value definition.
    first_def: usize,
}

impl WiredUnit {
    /// Stores `value` in the cell of the unit's `i`-th value definition.
    ///
    /// # Panics
    ///
    /// When `i` is not a definition of the unit.
    pub fn define(&self, i: usize, value: Value) {
        match self.env.top_binding(self.first_def + i) {
            Some(Binding::Cell(cell)) => *cell.borrow_mut() = Some(value),
            _ => panic!("definition {i} has no cell in the unit's frame"),
        }
    }
}

/// Creates the import cells for an invocation: one filled cell per
/// import, in the unit's import order.
///
/// # Errors
///
/// [`RuntimeError::UnsatisfiedImport`] when `supplied` misses an import;
/// [`RuntimeError::ResourceExhausted`] on the cell budget.
pub fn import_cells(
    unit: &UnitValue,
    supplied: &HashMap<Symbol, Value>,
    machine: &mut Machine,
) -> Result<Vec<CellRef>, RuntimeError> {
    let ports = &unit.imports().vals;
    machine.alloc_cells(ports.len() as u64)?;
    ports
        .iter()
        .map(|port| match supplied.get(&port.name) {
            Some(v) => Ok(machine.cell(Some(v.clone()))),
            None => Err(RuntimeError::UnsatisfiedImport { name: port.name.clone() }),
        })
        .collect()
}

/// Emits the per-invocation trace event (sorted export names, invocation
/// and constituent counters) — shared so both backends' traces line up.
pub fn emit_invoke_event(unit: &UnitValue, constituents: usize) {
    units_trace::emit(
        units_trace::Phase::Link,
        "link/invoke",
        None,
        || {
            let mut names: Vec<&str> =
                unit.exports().vals.iter().map(|p| p.name.as_str()).collect();
            names.sort_unstable();
            names.join(" ")
        },
        &[("link/invocations", 1), ("link/constituents", constituents as u64)],
    );
}

/// Wires a unit for one invocation. `imports` holds a cell for each of
/// the unit's value imports, and `exports` the caller's cell for each of
/// its value exports, both in the unit's own port order; an export
/// without a cell (or past the end of `exports`) is not wanted. Appends
/// the atomic constituents to `out` in initialization order.
///
/// # Errors
///
/// [`RuntimeError::UnsatisfiedImport`] / [`RuntimeError::MissingProvide`]
/// when the link graph does not satisfy an interface;
/// [`RuntimeError::ResourceExhausted`] on the cell budget.
pub fn wire(
    unit: &UnitValue,
    imports: &[CellRef],
    exports: &[Option<CellRef>],
    machine: &mut Machine,
    out: &mut Vec<WiredUnit>,
) -> Result<(), RuntimeError> {
    match unit {
        UnitValue::Atomic(atomic) => wire_atomic(atomic, imports, exports, machine, out),
        UnitValue::Linked(linked) => wire_linked(linked, imports, exports, machine, out),
        UnitValue::Restricted { inner, exports: visible } => {
            // The sealed interface orders its exports its own way.
            let inner_ports = &inner.exports().vals;
            let mut inner_exports = Vec::new();
            for (port, cell) in visible.vals.iter().zip(exports) {
                let Some(cell) = cell else { continue };
                let Some(i) = inner_ports.iter().position(|p| p.name == port.name) else {
                    return Err(RuntimeError::MissingProvide { name: port.name.clone() });
                };
                inner_exports.resize(inner_ports.len(), None);
                inner_exports[i] = Some(cell.clone());
            }
            wire(inner, imports, &inner_exports, machine, out)
        }
    }
}

/// Fails with [`RuntimeError::UnsatisfiedImport`] naming the first of
/// `ports` that `imports` holds no cell for.
fn unsatisfied(ports: &Ports, imports: &[CellRef]) -> Result<(), RuntimeError> {
    match ports.vals.get(imports.len()) {
        Some(port) => Err(RuntimeError::UnsatisfiedImport { name: port.name.clone() }),
        None => Ok(()),
    }
}

/// An atomic unit gets one frame: its import cells, fresh datatype
/// operations, then a cell per value definition — the caller's cell for
/// a wanted export, else a fresh one.
fn wire_atomic(
    atomic: &AtomicUnit,
    imports: &[CellRef],
    exports: &[Option<CellRef>],
    machine: &mut Machine,
    out: &mut Vec<WiredUnit>,
) -> Result<(), RuntimeError> {
    let source = &atomic.source;
    unsatisfied(&source.imports, imports)?;
    machine.alloc_cells(source.vals.len() as u64)?;
    let mut frame = Vec::with_capacity(imports.len() + source.vals.len());
    for (port, cell) in source.imports.vals.iter().zip(imports) {
        frame.push((port.name.clone(), Binding::Cell(cell.clone())));
    }
    let first_op = frame.len();
    push_data_ops(&source.types, &mut frame, machine);
    let first_def = frame.len();
    let mut shared = 0;
    for defn in &source.vals {
        let wanted = source
            .exports
            .vals
            .iter()
            .position(|p| p.name == defn.name)
            .and_then(|j| exports.get(j).cloned().flatten());
        shared += usize::from(wanted.is_some());
        let cell = wanted.unwrap_or_else(|| machine.cell(None));
        frame.push((defn.name.clone(), Binding::Cell(cell)));
    }
    // Any other wanted export is a datatype operation, whose value
    // exists already.
    if shared < exports.iter().flatten().count() {
        for (port, cell) in source.exports.vals.iter().zip(exports) {
            let Some(cell) = cell else { continue };
            if source.vals.iter().any(|d| d.name == port.name) {
                continue;
            }
            match frame[first_op..first_def].iter().rfind(|(n, _)| *n == port.name) {
                Some((_, Binding::Val(v))) => *cell.borrow_mut() = Some(v.clone()),
                _ => return Err(RuntimeError::MissingProvide { name: port.name.clone() }),
            }
        }
    }
    out.push(WiredUnit {
        env: atomic.env.extend(frame),
        source: source.clone(),
        code: atomic.code.clone(),
        first_def,
    });
    Ok(())
}

/// A compound fills its linking namespace as its plan lays it out — the
/// imports, then per provided name the caller's cell for a wanted export
/// or a fresh cell the compound hides — and wires each constituent with
/// the slots its clause names.
fn wire_linked(
    linked: &LinkedUnit,
    imports: &[CellRef],
    exports: &[Option<CellRef>],
    machine: &mut Machine,
    out: &mut Vec<WiredUnit>,
) -> Result<(), RuntimeError> {
    let compound = &linked.compound;
    unsatisfied(&compound.imports, imports)?;
    let plan = compound.plan();
    let mut slots: Vec<Option<CellRef>> = Vec::with_capacity(plan.slots());
    slots.extend(imports.iter().take(plan.imports()).cloned().map(Some));
    slots.resize(plan.slots(), None);
    let mut unprovided = None;
    for ((port, slot), cell) in compound.exports.vals.iter().zip(plan.exports()).zip(exports) {
        match (slot, cell) {
            (Some(slot), Some(cell)) => slots[*slot] = Some(cell.clone()),
            (None, Some(_)) => unprovided = unprovided.or(Some(port)),
            (_, None) => {}
        }
    }
    for slot in &mut slots[plan.imports()..] {
        if slot.is_none() {
            machine.alloc_cells(1)?;
            *slot = Some(machine.cell(None));
        }
    }
    if let Some(port) = unprovided {
        return Err(RuntimeError::MissingProvide { name: port.name.clone() });
    }
    let cell = |slot: usize| slots[slot].clone().expect("every slot is filled above");
    for ((clause, clause_plan), unit) in
        compound.links.iter().zip(plan.clauses()).zip(&linked.units)
    {
        if let Some(name) = clause_plan.unsatisfied() {
            return Err(RuntimeError::UnsatisfiedImport { name: name.clone() });
        }
        let imports = matched(&unit.imports().vals, &clause.with.vals, clause_plan.with())
            .map(|(port, slot)| {
                slot.map(cell)
                    .ok_or_else(|| RuntimeError::UnsatisfiedImport { name: port.name.clone() })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let exports: Vec<Option<CellRef>> =
            matched(&unit.exports().vals, &clause.provides.vals, clause_plan.provides())
                .map(|(_, slot)| slot.map(cell))
                .collect();
        wire(unit, &imports, &exports, machine, out)?;
    }
    Ok(())
}

/// Pairs each of a constituent's own `ports` with the namespace slot its
/// clause gives the port of that name: the clause lists `clause_ports`
/// at `slots`. A constituent is a run-time value (first-class, sealed,
/// or compound), so its ports need not come in the clause's order: each
/// matches by position first, then by name.
fn matched<'a>(
    ports: &'a [ValPort],
    clause_ports: &'a [ValPort],
    slots: &'a [usize],
) -> impl Iterator<Item = (&'a ValPort, Option<usize>)> + 'a {
    ports.iter().enumerate().map(move |(i, port)| {
        let at = match clause_ports.get(i) {
            Some(p) if p.name == port.name => Some(i),
            _ => clause_ports.iter().position(|p| p.name == port.name),
        };
        (port, at.and_then(|at| slots.get(at).copied()))
    })
}
