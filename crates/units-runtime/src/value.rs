//! Run-time values of the cells-based backend (§4.1.6).
//!
//! A unit value is *unevaluated code*: either an atomic unit (shared
//! source plus its captured lexical environment) or a linked compound of
//! other unit values. "There exists a single copy of the definition and
//! initialization code regardless of how many times the unit is linked or
//! invoked" — instances share the [`AtomicUnit::source`] `Arc`; only the
//! import/export *cells* created at invocation differ.
//!
//! Values form deep structures — lists, closure chains, nested tables —
//! so no value drops its children recursively: the last owner of a node
//! moves every child it solely owns onto a [`Garbage`] worklist, and one
//! loop frees them. Freeing a million-deep list takes a loop, not a
//! million stack frames.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::mem;
use std::ops::{Deref, DerefMut};
use std::rc::Rc;
use std::sync::Arc;

use units_kernel::{CompoundExpr, DataRole, Ports, PrimOp, Symbol, UnitExpr};

use crate::env::{Binding, Env};

/// A mutable definition cell. `None` means "not yet initialized" — reading
/// it is the MzScheme-strictness run-time error of §4.1.1. Only the
/// [`Machine`](crate::Machine) makes cells, and it registers each one in
/// its run's store.
pub type CellRef = Rc<RefCell<Option<Value>>>;

/// A closure: the shared λ-node plus its captured environment.
#[derive(Debug, Clone)]
pub struct Closure {
    /// The λ-abstraction (shared with the source AST — evaluating the same
    /// λ twice allocates no new code).
    pub lambda: Arc<units_kernel::Lambda>,
    /// The captured lexical environment.
    pub env: Env,
    /// The lowered body, when the closure was created by the bytecode VM
    /// (`None` for tree-walker closures). Both evaluators keep the
    /// `lambda` source, so the value is inspectable either way.
    pub code: Option<crate::vm::VmCode>,
}

impl Closure {
    /// A tree-walker closure: source λ plus captured environment.
    pub fn new(lambda: Arc<units_kernel::Lambda>, env: Env) -> Closure {
        Closure { lambda, env, code: None }
    }

    /// Number of parameters.
    pub fn arity(&self) -> usize {
        self.lambda.params.len()
    }
}

impl Drop for Closure {
    fn drop(&mut self) {
        if self.env.owns_frame() {
            Garbage::free(|garbage| garbage.env(mem::take(&mut self.env)));
        }
    }
}

/// A first-class datatype operation (constructor/deconstructor/predicate).
#[derive(Debug, Clone, PartialEq)]
pub struct DataOpValue {
    /// The datatype's source name (for error messages).
    pub ty_name: Symbol,
    /// Instance nonce: each evaluation of the defining `letrec`/unit body
    /// generates fresh operations (§5.3 behaviour).
    pub instance: u64,
    /// What the operation does.
    pub role: DataRole,
}

/// A constructed datatype value.
#[derive(Debug, Clone)]
pub struct VariantValue {
    /// The datatype's source name.
    pub ty_name: Symbol,
    /// The instance nonce of the constructor that made it.
    pub instance: u64,
    /// Which variant.
    pub tag: usize,
    /// The payload.
    pub payload: Value,
}

impl Drop for VariantValue {
    fn drop(&mut self) {
        if self.payload.owns_node() {
            Garbage::free(|garbage| garbage.value(mem::replace(&mut self.payload, Value::Void)));
        }
    }
}

/// A tuple's components, in order.
#[derive(Debug, Default)]
pub struct TupleValue(Vec<Value>);

impl Deref for TupleValue {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        &self.0
    }
}

impl Drop for TupleValue {
    fn drop(&mut self) {
        if self.0.iter().any(Value::owns_node) {
            Garbage::free(|garbage| garbage.values(mem::take(&mut self.0)));
        }
    }
}

/// A mutable string-keyed hash table's entries.
#[derive(Debug, Default)]
pub struct HashTable(HashMap<String, Value>);

impl Deref for HashTable {
    type Target = HashMap<String, Value>;

    fn deref(&self) -> &HashMap<String, Value> {
        &self.0
    }
}

impl DerefMut for HashTable {
    fn deref_mut(&mut self) -> &mut HashMap<String, Value> {
        &mut self.0
    }
}

impl Drop for HashTable {
    fn drop(&mut self) {
        if self.0.values().any(Value::owns_node) {
            Garbage::free(|garbage| garbage.values(mem::take(&mut self.0).into_values()));
        }
    }
}

/// An atomic unit value: shared, compiled-once code plus its captured
/// environment.
#[derive(Debug, Clone)]
pub struct AtomicUnit {
    /// The unit's source — one copy shared by every link and invocation.
    pub source: Arc<UnitExpr>,
    /// The lexical environment the unit expression was evaluated in.
    pub env: Env,
    /// Lowered definition/init segments, when the unit value was created
    /// by the bytecode VM (`None` for tree-walker units).
    pub code: Option<crate::vm::VmCode>,
}

impl AtomicUnit {
    /// A tree-walker unit value: shared source plus captured environment.
    pub fn new(source: Arc<UnitExpr>, env: Env) -> AtomicUnit {
        AtomicUnit { source, env, code: None }
    }
}

/// A compound unit value produced by `compound` linking: the shared
/// `compound` node, whose ports, clauses and cached
/// [`LinkPlan`](units_kernel::LinkPlan) say how to wire it, plus the
/// constituent values, which only evaluation can supply.
#[derive(Debug, Clone)]
pub struct LinkedUnit {
    /// The `compound` expression this value was linked from.
    pub compound: Arc<CompoundExpr>,
    /// The constituent unit values, in clause (initialization) order.
    pub units: Vec<Rc<UnitValue>>,
}

impl Drop for LinkedUnit {
    fn drop(&mut self) {
        if self.units.iter().any(|u| Rc::strong_count(u) == 1) {
            Garbage::free(|garbage| {
                garbage.values(mem::take(&mut self.units).into_iter().map(Value::Unit));
            });
        }
    }
}

/// A unit value.
#[derive(Debug, Clone)]
pub enum UnitValue {
    /// An atomic unit.
    Atomic(AtomicUnit),
    /// A linked compound.
    Linked(LinkedUnit),
    /// A sealed view of another unit: exports outside the retained set are
    /// hidden (run-time effect of §5.2's signature ascription).
    Restricted {
        /// The underlying unit.
        inner: Rc<UnitValue>,
        /// The retained interface.
        exports: Ports,
    },
}

impl UnitValue {
    /// The unit's import ports (names).
    pub fn imports(&self) -> &Ports {
        match self {
            UnitValue::Atomic(a) => &a.source.imports,
            UnitValue::Linked(l) => &l.compound.imports,
            UnitValue::Restricted { inner, .. } => inner.imports(),
        }
    }

    /// The unit's export ports (names).
    pub fn exports(&self) -> &Ports {
        match self {
            UnitValue::Atomic(a) => &a.source.exports,
            UnitValue::Linked(l) => &l.compound.exports,
            UnitValue::Restricted { exports, .. } => exports,
        }
    }

    /// True when the unit needs no imports (a complete program).
    pub fn is_program(&self) -> bool {
        self.imports().is_empty()
    }

    /// The shared code behind this unit, if atomic — used by tests that
    /// pin the §4.1.6 code-sharing claim.
    pub fn atomic_source(&self) -> Option<&Arc<UnitExpr>> {
        match self {
            UnitValue::Atomic(a) => Some(&a.source),
            UnitValue::Restricted { inner, .. } => inner.atomic_source(),
            UnitValue::Linked(_) => None,
        }
    }
}

/// A run-time value.
#[derive(Debug, Clone)]
pub enum Value {
    /// A machine integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// An immutable string.
    Str(Arc<str>),
    /// The void value.
    Void,
    /// A tuple.
    Tuple(Rc<TupleValue>),
    /// A closure.
    Closure(Rc<Closure>),
    /// A primitive operation value.
    Prim(PrimOp),
    /// A mutable string-keyed hash table.
    Hash(Rc<RefCell<HashTable>>),
    /// A datatype operation.
    Data(Rc<DataOpValue>),
    /// A constructed datatype value.
    Variant(Rc<VariantValue>),
    /// A first-class unit.
    Unit(Rc<UnitValue>),
}

impl Value {
    /// A new string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// A tuple of `items`.
    pub fn tuple(items: Vec<Value>) -> Value {
        Value::Tuple(Rc::new(TupleValue(items)))
    }

    /// A fresh empty hash table (the `makeStringHashTable()` of Fig. 1)
    /// owned by the host, not by any run: no machine empties it. A
    /// program's `hash-new` table is registered in its machine's store
    /// instead.
    pub fn new_hash() -> Value {
        Value::Hash(Rc::default())
    }

    /// Whether dropping this value would free a node that has children:
    /// it holds the last reference to a tuple, closure, table, variant
    /// or unit. Scalars, strings, primitives and datatype operations own
    /// nothing that could recurse.
    pub(crate) fn owns_node(&self) -> bool {
        match self {
            Value::Tuple(t) => Rc::strong_count(t) == 1,
            Value::Closure(c) => Rc::strong_count(c) == 1,
            Value::Hash(h) => Rc::strong_count(h) == 1,
            Value::Variant(v) => Rc::strong_count(v) == 1,
            Value::Unit(u) => Rc::strong_count(u) == 1,
            Value::Int(_)
            | Value::Bool(_)
            | Value::Str(_)
            | Value::Void
            | Value::Prim(_)
            | Value::Data(_) => false,
        }
    }

    /// A short description of the value's shape, for error messages.
    pub fn shape(&self) -> &'static str {
        match self {
            Value::Int(_) => "an integer",
            Value::Bool(_) => "a boolean",
            Value::Str(_) => "a string",
            Value::Void => "void",
            Value::Tuple(_) => "a tuple",
            Value::Closure(_) => "a function",
            Value::Prim(_) => "a primitive",
            Value::Hash(_) => "a hash table",
            Value::Data(_) => "a datatype operation",
            Value::Variant(_) => "a datatype value",
            Value::Unit(_) => "a unit",
        }
    }

    /// Structural equality for observable (first-order) values; functions,
    /// hashes, and units compare by identity. Used by tests and the
    /// differential harness.
    pub fn observably_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Void, Value::Void) => true,
            (Value::Tuple(a), Value::Tuple(b)) => {
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.observably_eq(y))
            }
            (Value::Variant(a), Value::Variant(b)) => {
                a.ty_name == b.ty_name && a.tag == b.tag && a.payload.observably_eq(&b.payload)
            }
            (Value::Closure(a), Value::Closure(b)) => Rc::ptr_eq(a, b),
            (Value::Prim(a), Value::Prim(b)) => a == b,
            (Value::Hash(a), Value::Hash(b)) => Rc::ptr_eq(a, b),
            (Value::Data(a), Value::Data(b)) => a == b,
            (Value::Unit(a), Value::Unit(b)) => Rc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Void => f.write_str("void"),
            Value::Tuple(items) => {
                f.write_str("⟨")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("⟩")
            }
            Value::Closure(c) => write!(f, "#⟨procedure/{}⟩", c.arity()),
            Value::Prim(op) => write!(f, "#⟨prim {op}⟩"),
            Value::Hash(h) => write!(f, "#⟨hash·{}⟩", h.borrow().len()),
            Value::Data(d) => write!(f, "#⟨{:?} of {}⟩", d.role, d.ty_name),
            Value::Variant(v) => write!(f, "({}·{} {})", v.ty_name, v.tag, v.payload),
            Value::Unit(u) => write!(
                f,
                "#⟨unit imports:{} exports:{}⟩",
                u.imports().len(),
                u.exports().len()
            ),
        }
    }
}

/// A node is released once, by its last owner, and only after its
/// children have moved out, so releasing never recurses.
enum Node {
    Value(Value),
    Env(Env),
}

/// The worklist of bounded-stack drops: nodes whose last reference is
/// going away, waiting to hand over their children. Only nodes that would
/// actually be freed are kept; a shared child is just let go, which
/// decrements its count.
#[derive(Default)]
pub(crate) struct Garbage(Vec<Node>);

impl Garbage {
    /// The slow path of every `Drop` that would free a node with
    /// children: `take` moves the dropping node's children here, and one
    /// loop frees them. Each `Drop` first checks that it solely owns some
    /// child, so the common drop, which frees nothing below it, skips
    /// this.
    pub(crate) fn free(take: impl FnOnce(&mut Garbage)) {
        let mut garbage = Garbage::default();
        take(&mut garbage);
        garbage.run();
    }

    /// Takes `value`, keeping it for release if this was its last owner.
    pub(crate) fn value(&mut self, value: Value) {
        if value.owns_node() {
            self.0.push(Node::Value(value));
        }
    }

    /// Takes every value of `values`.
    pub(crate) fn values(&mut self, values: impl IntoIterator<Item = Value>) {
        for value in values {
            self.value(value);
        }
    }

    /// Takes `env`, keeping its innermost frame for release if this was
    /// the frame's last owner.
    pub(crate) fn env(&mut self, env: Env) {
        if env.owns_frame() {
            self.0.push(Node::Env(env));
        }
    }

    /// Takes a binding: a direct value, or a cell whose content is taken
    /// when this was the cell's last owner.
    pub(crate) fn binding(&mut self, binding: Binding) {
        match binding {
            Binding::Val(value) => self.value(value),
            Binding::Cell(cell) => {
                if let Ok(cell) = Rc::try_unwrap(cell) {
                    if let Some(value) = cell.into_inner() {
                        self.value(value);
                    }
                }
            }
        }
    }

    /// Releases every kept node, and the nodes that releasing frees in
    /// turn, in one loop.
    pub(crate) fn run(mut self) {
        while let Some(node) = self.0.pop() {
            match node {
                Node::Env(env) => env.release(&mut self),
                Node::Value(value) => self.release(value),
            }
        }
    }

    /// Moves the children of a value's node here if this was its last
    /// reference; the emptied node then drops without recursing.
    fn release(&mut self, value: Value) {
        match value {
            Value::Tuple(t) => {
                if let Ok(mut t) = Rc::try_unwrap(t) {
                    self.values(mem::take(&mut t.0));
                }
            }
            Value::Closure(c) => {
                if let Ok(mut c) = Rc::try_unwrap(c) {
                    self.env(mem::take(&mut c.env));
                }
            }
            Value::Hash(h) => {
                if let Ok(h) = Rc::try_unwrap(h) {
                    self.values(mem::take(&mut h.into_inner().0).into_values());
                }
            }
            Value::Variant(v) => {
                if let Ok(mut v) = Rc::try_unwrap(v) {
                    self.value(mem::replace(&mut v.payload, Value::Void));
                }
            }
            Value::Unit(u) => {
                if let Ok(u) = Rc::try_unwrap(u) {
                    match u {
                        UnitValue::Atomic(atomic) => self.env(atomic.env),
                        UnitValue::Linked(mut linked) => {
                            self.values(mem::take(&mut linked.units).into_iter().map(Value::Unit));
                        }
                        UnitValue::Restricted { inner, .. } => self.value(Value::Unit(inner)),
                    }
                }
            }
            Value::Int(_)
            | Value::Bool(_)
            | Value::Str(_)
            | Value::Void
            | Value::Prim(_)
            | Value::Data(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observable_equality_is_structural_for_data() {
        let a = Value::tuple(vec![Value::Int(1), Value::str("x")]);
        let b = Value::tuple(vec![Value::Int(1), Value::str("x")]);
        assert!(a.observably_eq(&b));
        assert!(!a.observably_eq(&Value::Int(1)));
    }

    #[test]
    fn hash_equality_is_identity() {
        let a = Value::new_hash();
        let b = Value::new_hash();
        assert!(a.observably_eq(&a));
        assert!(!a.observably_eq(&b));
    }

    #[test]
    fn display_is_nonempty_for_everything() {
        for v in [
            Value::Int(0),
            Value::Bool(false),
            Value::str(""),
            Value::Void,
            Value::tuple(vec![]),
            Value::Prim(PrimOp::Add),
            Value::new_hash(),
        ] {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn cells_start_empty() {
        let c = crate::Machine::new().cell(None);
        assert!(c.borrow().is_none());
        *c.borrow_mut() = Some(Value::Int(3));
        assert!(c.borrow().is_some());
    }
}
