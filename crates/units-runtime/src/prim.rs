//! Application of primitive operations to run-time values.
//!
//! Primitives perform full dynamic checking, which is what makes the
//! untyped calculus UNITd safe; in well-typed UNITc/UNITe programs the
//! shape checks never fire (types are erased before evaluation).

use std::cell::RefCell;
use std::rc::Rc;

use units_kernel::PrimOp;

use crate::error::RuntimeError;
use crate::machine::Machine;
use crate::value::{HashTable, Value};

fn int(v: &Value) -> Result<i64, RuntimeError> {
    match v {
        Value::Int(n) => Ok(*n),
        other => Err(RuntimeError::WrongType { expected: "an integer", found: other.to_string() }),
    }
}

fn boolean(v: &Value) -> Result<bool, RuntimeError> {
    match v {
        Value::Bool(b) => Ok(*b),
        other => Err(RuntimeError::WrongType { expected: "a boolean", found: other.to_string() }),
    }
}

fn string(v: &Value) -> Result<&str, RuntimeError> {
    match v {
        Value::Str(s) => Ok(s),
        other => Err(RuntimeError::WrongType { expected: "a string", found: other.to_string() }),
    }
}

fn hash(v: &Value) -> Result<&Rc<RefCell<HashTable>>, RuntimeError> {
    match v {
        Value::Hash(h) => Ok(h),
        other => {
            Err(RuntimeError::WrongType { expected: "a hash table", found: other.to_string() })
        }
    }
}

/// Applies a primitive to fully evaluated arguments.
///
/// # Errors
///
/// Returns a [`RuntimeError`] on arity or shape violations, division by
/// zero, missing hash keys, or an explicit `fail`.
///
/// # Examples
///
/// ```
/// use units_kernel::PrimOp;
/// use units_runtime::{apply_prim, Machine, Value};
/// let mut m = Machine::new();
/// let v = apply_prim(PrimOp::Add, &[Value::Int(2), Value::Int(3)], &mut m)?;
/// assert!(v.observably_eq(&Value::Int(5)));
/// # Ok::<(), units_runtime::RuntimeError>(())
/// ```
pub fn apply_prim(
    op: PrimOp,
    args: &[Value],
    machine: &mut Machine,
) -> Result<Value, RuntimeError> {
    units_trace::faults::trip("runtime/prim")?;
    let result = prim_result(op, args, machine)?;
    units_trace::emit(
        units_trace::Phase::Eval,
        "prim",
        None,
        || render_prim_call(op, args.iter().map(ground_value), &ground_value(&result)),
        &[("prim/calls", 1), (prim_counter(op), 1)],
    );
    Ok(result)
}

/// Renders a prim call as `(op arg…) -> result` from already-ground
/// pieces. The reducer's delta events use the same renderer, so the two
/// backends' `"prim"` event streams are directly comparable — that
/// alignment is what lets divergence diagnosis name the first
/// disagreeing step.
pub fn render_prim_call(
    op: PrimOp,
    args: impl Iterator<Item = String>,
    result: &str,
) -> String {
    let mut out = String::from("(");
    out.push_str(op.name());
    for arg in args {
        out.push(' ');
        out.push_str(&arg);
    }
    out.push_str(") -> ");
    out.push_str(result);
    out
}

/// Ground rendering of a value for prim events: literals print
/// canonically, anything higher-order is an opaque `·` (both backends
/// agree on that by construction).
fn ground_value(v: &Value) -> String {
    match v {
        Value::Int(n) => n.to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Str(s) => format!("{s:?}"),
        Value::Void => "void".to_string(),
        _ => "·".to_string(),
    }
}

/// The per-operation counter name (`"prim/<surface name>"`).
fn prim_counter(op: PrimOp) -> &'static str {
    match op {
        PrimOp::Add => "prim/+",
        PrimOp::Sub => "prim/-",
        PrimOp::Mul => "prim/*",
        PrimOp::Div => "prim//",
        PrimOp::Rem => "prim/rem",
        PrimOp::Lt => "prim/<",
        PrimOp::Le => "prim/<=",
        PrimOp::NumEq => "prim/=",
        PrimOp::Not => "prim/not",
        PrimOp::BoolEq => "prim/bool=?",
        PrimOp::StrAppend => "prim/string-append",
        PrimOp::StrEq => "prim/string=?",
        PrimOp::StrLen => "prim/string-length",
        PrimOp::IntToStr => "prim/int->string",
        PrimOp::Display => "prim/display",
        PrimOp::Fail => "prim/fail",
        PrimOp::HashNew => "prim/hash-new",
        PrimOp::HashSet => "prim/hash-set!",
        PrimOp::HashGet => "prim/hash-get",
        PrimOp::HashHas => "prim/hash-has?",
        PrimOp::HashRemove => "prim/hash-remove!",
        PrimOp::HashCount => "prim/hash-count",
    }
}

fn prim_result(
    op: PrimOp,
    args: &[Value],
    machine: &mut Machine,
) -> Result<Value, RuntimeError> {
    if args.len() != op.arity() {
        return Err(RuntimeError::Arity { expected: op.arity(), found: args.len() });
    }
    Ok(match op {
        PrimOp::Add => Value::Int(int(&args[0])?.wrapping_add(int(&args[1])?)),
        PrimOp::Sub => Value::Int(int(&args[0])?.wrapping_sub(int(&args[1])?)),
        PrimOp::Mul => Value::Int(int(&args[0])?.wrapping_mul(int(&args[1])?)),
        PrimOp::Div => {
            let (a, b) = (int(&args[0])?, int(&args[1])?);
            if b == 0 {
                return Err(RuntimeError::DivisionByZero);
            }
            Value::Int(a.wrapping_div(b))
        }
        PrimOp::Rem => {
            let (a, b) = (int(&args[0])?, int(&args[1])?);
            if b == 0 {
                return Err(RuntimeError::DivisionByZero);
            }
            Value::Int(a.wrapping_rem(b))
        }
        PrimOp::Lt => Value::Bool(int(&args[0])? < int(&args[1])?),
        PrimOp::Le => Value::Bool(int(&args[0])? <= int(&args[1])?),
        PrimOp::NumEq => Value::Bool(int(&args[0])? == int(&args[1])?),
        PrimOp::Not => Value::Bool(!boolean(&args[0])?),
        PrimOp::BoolEq => Value::Bool(boolean(&args[0])? == boolean(&args[1])?),
        PrimOp::StrAppend => {
            let mut s = string(&args[0])?.to_string();
            s.push_str(string(&args[1])?);
            Value::str(s)
        }
        PrimOp::StrEq => Value::Bool(string(&args[0])? == string(&args[1])?),
        PrimOp::StrLen => Value::Int(string(&args[0])?.chars().count() as i64),
        PrimOp::IntToStr => Value::str(int(&args[0])?.to_string()),
        PrimOp::Display => {
            machine.write(string(&args[0])?);
            Value::Void
        }
        PrimOp::Fail => {
            return Err(RuntimeError::User { message: string(&args[0])?.to_string() })
        }
        PrimOp::HashNew => machine.hash_table(),
        PrimOp::HashSet => {
            let table = hash(&args[0])?;
            let key = string(&args[1])?.to_string();
            table.borrow_mut().insert(key, args[2].clone());
            Value::Void
        }
        PrimOp::HashGet => {
            let table = hash(&args[0])?;
            let key = string(&args[1])?;
            let found = table.borrow().get(key).cloned();
            found.ok_or_else(|| RuntimeError::MissingKey { key: key.to_string() })?
        }
        PrimOp::HashHas => {
            let table = hash(&args[0])?;
            Value::Bool(table.borrow().contains_key(string(&args[1])?))
        }
        PrimOp::HashRemove => {
            let table = hash(&args[0])?;
            let key = string(&args[1])?;
            table.borrow_mut().remove(key);
            Value::Void
        }
        PrimOp::HashCount => Value::Int(hash(&args[0])?.borrow().len() as i64),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(op: PrimOp, args: &[Value]) -> Result<Value, RuntimeError> {
        apply_prim(op, args, &mut Machine::new())
    }

    #[test]
    fn arithmetic_and_comparison() {
        assert!(run(PrimOp::Mul, &[Value::Int(6), Value::Int(7)])
            .unwrap()
            .observably_eq(&Value::Int(42)));
        assert!(run(PrimOp::Lt, &[Value::Int(1), Value::Int(2)])
            .unwrap()
            .observably_eq(&Value::Bool(true)));
        assert!(matches!(
            run(PrimOp::Div, &[Value::Int(1), Value::Int(0)]),
            Err(RuntimeError::DivisionByZero)
        ));
        assert!(matches!(
            run(PrimOp::Rem, &[Value::Int(1), Value::Int(0)]),
            Err(RuntimeError::DivisionByZero)
        ));
    }

    #[test]
    fn dynamic_type_checks_fire() {
        assert!(matches!(
            run(PrimOp::Add, &[Value::Int(1), Value::Bool(true)]),
            Err(RuntimeError::WrongType { .. })
        ));
        assert!(matches!(
            run(PrimOp::Add, &[Value::Int(1)]),
            Err(RuntimeError::Arity { expected: 2, found: 1 })
        ));
    }

    #[test]
    fn strings() {
        let v = run(PrimOp::StrAppend, &[Value::str("ph"), Value::str("one")]).unwrap();
        assert!(v.observably_eq(&Value::str("phone")));
        assert!(run(PrimOp::StrLen, &[Value::str("abc")])
            .unwrap()
            .observably_eq(&Value::Int(3)));
        assert!(run(PrimOp::IntToStr, &[Value::Int(-4)])
            .unwrap()
            .observably_eq(&Value::str("-4")));
    }

    #[test]
    fn hash_tables_store_and_miss() {
        let mut m = Machine::new();
        let table = apply_prim(PrimOp::HashNew, &[], &mut m).unwrap();
        apply_prim(
            PrimOp::HashSet,
            &[table.clone(), Value::str("alice"), Value::Int(41)],
            &mut m,
        )
        .unwrap();
        let got =
            apply_prim(PrimOp::HashGet, &[table.clone(), Value::str("alice")], &mut m).unwrap();
        assert!(got.observably_eq(&Value::Int(41)));
        assert!(apply_prim(PrimOp::HashHas, &[table.clone(), Value::str("bob")], &mut m)
            .unwrap()
            .observably_eq(&Value::Bool(false)));
        assert!(matches!(
            apply_prim(PrimOp::HashGet, &[table.clone(), Value::str("bob")], &mut m),
            Err(RuntimeError::MissingKey { key }) if key == "bob"
        ));
        apply_prim(PrimOp::HashRemove, &[table.clone(), Value::str("alice")], &mut m).unwrap();
        assert!(apply_prim(PrimOp::HashCount, &[table], &mut m)
            .unwrap()
            .observably_eq(&Value::Int(0)));
    }

    #[test]
    fn display_writes_fail_raises() {
        let mut m = Machine::new();
        apply_prim(PrimOp::Display, &[Value::str("hello")], &mut m).unwrap();
        assert_eq!(m.output(), ["hello"]);
        assert!(matches!(
            apply_prim(PrimOp::Fail, &[Value::str("nope")], &mut m),
            Err(RuntimeError::User { message }) if message == "nope"
        ));
    }
}
