//! Run-time values of the cells-based backend (§4.1.6).
//!
//! A unit value is *unevaluated code*: either an atomic unit (shared
//! source plus its captured lexical environment) or a linked compound of
//! other unit values. "There exists a single copy of the definition and
//! initialization code regardless of how many times the unit is linked or
//! invoked" — instances share the [`AtomicUnit::source`] `Arc`; only the
//! import/export *cells* created at invocation differ.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use units_kernel::{CompoundExpr, DataRole, Ports, PrimOp, Symbol, UnitExpr};

use crate::env::Env;

/// A mutable definition cell. `None` means "not yet initialized" — reading
/// it is the MzScheme-strictness run-time error of §4.1.1.
pub type CellRef = Rc<RefCell<Option<Value>>>;

/// Creates a fresh, uninitialized cell.
pub fn new_cell() -> CellRef {
    units_trace::count("runtime/cells", 1);
    Rc::new(RefCell::new(None))
}

/// Creates a cell already holding a value.
pub fn filled_cell(value: Value) -> CellRef {
    Rc::new(RefCell::new(Some(value)))
}

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
    Tuple(Rc<Vec<Value>>),
    /// A closure.
    Closure(Rc<Closure>),
    /// A primitive operation value.
    Prim(PrimOp),
    /// A mutable string-keyed hash table.
    Hash(Rc<RefCell<HashMap<String, Value>>>),
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

    /// A fresh empty hash table (the `makeStringHashTable()` of Fig. 1).
    pub fn new_hash() -> Value {
        Value::Hash(Rc::new(RefCell::new(HashMap::new())))
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observable_equality_is_structural_for_data() {
        let a = Value::Tuple(Rc::new(vec![Value::Int(1), Value::str("x")]));
        let b = Value::Tuple(Rc::new(vec![Value::Int(1), Value::str("x")]));
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
            Value::Tuple(Rc::new(vec![])),
            Value::Prim(PrimOp::Add),
            Value::new_hash(),
        ] {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn cells_start_empty() {
        let c = new_cell();
        assert!(c.borrow().is_none());
        *c.borrow_mut() = Some(Value::Int(3));
        assert!(c.borrow().is_some());
    }
}
