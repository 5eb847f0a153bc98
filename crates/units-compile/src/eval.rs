//! The production evaluator: environment-based, with units compiled to
//! shared code over reference cells (paper §4.1.6).
//!
//! "Units are compiled by transforming them into functions. The unit's
//! imported and exported variables are implemented as first-class
//! reference cells that are externally created and passed to the function
//! when the unit is invoked. … there exists a single copy of the
//! definition and initialization code regardless of how many times the
//! unit is linked or invoked."
//!
//! Evaluating `unit …` captures the (shared) source and the lexical
//! environment; `compound` evaluates its constituents and, after checking
//! the Fig. 11 side conditions, pairs them with the `compound` node, whose
//! cached link plan says how to wire them; `invoke` wires cells through
//! the whole link graph (see [`crate::instantiate`]), runs
//! every definition in order, then every initialization expression, and
//! returns the last initialization value.

use std::collections::HashMap;
use std::rc::Rc;

use units_kernel::Expr;
use units_runtime::{
    apply_data, apply_prim, as_unit, bind_letrec_frame, check_link, read_binding, seal_unit,
    AtomicUnit, Binding, Closure, Env, LinkedUnit, Machine, RuntimeError, UnitValue, Value,
};

use crate::instantiate::invoke_unit;

/// Evaluates a closed program in the empty environment.
///
/// # Errors
///
/// Returns any [`RuntimeError`] the program signals.
///
/// # Examples
///
/// ```
/// use units_compile::evaluate_program;
/// use units_runtime::{Machine, Value};
/// use units_syntax::parse_expr;
///
/// let program = parse_expr("(invoke (unit (import) (export) (init (* 6 7))))").unwrap();
/// let v = evaluate_program(&program, &mut Machine::new()).unwrap();
/// assert!(v.observably_eq(&Value::Int(42)));
/// ```
pub fn evaluate_program(expr: &Expr, machine: &mut Machine) -> Result<Value, RuntimeError> {
    units_trace::faults::trip("compile/eval")?;
    eval(expr, &Env::new(), machine)
}

/// Evaluates an expression in an environment.
///
/// # Errors
///
/// Returns any [`RuntimeError`] the expression signals, including
/// [`RuntimeError::ResourceExhausted`] when the machine's
/// [`units_runtime::Limits`] deem the evaluation too deep, too long, or
/// too allocation-hungry.
pub fn eval(expr: &Expr, env: &Env, machine: &mut Machine) -> Result<Value, RuntimeError> {
    // Rust-stack recursion in this evaluator tracks term depth, so the
    // depth budget is charged here (and in `eval_tail`): a hostile
    // program hits `ResourceExhausted` before it can overflow the stack.
    machine.enter()?;
    let result = eval_inner(expr, env, machine);
    machine.exit();
    result
}

fn eval_inner(expr: &Expr, env: &Env, machine: &mut Machine) -> Result<Value, RuntimeError> {
    machine.step()?;
    match expr {
        Expr::Var(x) => read_binding(env.lookup(x), x),
        // The resolver's fast path: direct frame/slot access, verified
        // against the name and degrading to the by-name scan on mismatch.
        Expr::VarAt(x, addr) => read_binding(env.lookup_at(x, *addr), x),
        Expr::Lit(lit) => Ok(match lit {
            units_kernel::Lit::Int(n) => Value::Int(*n),
            units_kernel::Lit::Bool(b) => Value::Bool(*b),
            units_kernel::Lit::Str(s) => Value::Str(s.clone()),
            units_kernel::Lit::Void => Value::Void,
        }),
        Expr::Prim(op, _tys) => Ok(Value::Prim(*op)),
        Expr::Lambda(lam) => {
            Ok(Value::Closure(Rc::new(Closure::new(lam.clone(), env.clone()))))
        }
        Expr::App(f, args) => {
            let func = eval(f, env, machine)?;
            let mut arg_vals = Vec::with_capacity(args.len());
            for a in args {
                arg_vals.push(eval(a, env, machine)?);
            }
            apply(func, arg_vals, machine)
        }
        Expr::If(c, t, e) => match eval(c, env, machine)? {
            Value::Bool(true) => eval(t, env, machine),
            Value::Bool(false) => eval(e, env, machine),
            other => Err(RuntimeError::WrongType {
                expected: "a boolean",
                found: other.to_string(),
            }),
        },
        Expr::Seq(es) => {
            let mut last = Value::Void;
            for e in es {
                last = eval(e, env, machine)?;
            }
            Ok(last)
        }
        Expr::Let(bindings, body) => {
            let mut frame = Vec::with_capacity(bindings.len());
            for b in bindings {
                frame.push((b.name.clone(), Binding::Val(eval(&b.expr, env, machine)?)));
            }
            eval(body, &env.extend(frame), machine)
        }
        Expr::Letrec(lr) => {
            let (inner, cells) = bind_letrec_frame(&lr.types, &lr.vals, env, machine)?;
            for (defn, cell) in lr.vals.iter().zip(&cells) {
                let v = eval(&defn.body, &inner, machine)?;
                *cell.borrow_mut() = Some(v);
            }
            eval(&lr.body, &inner, machine)
        }
        Expr::Set(target, value) => {
            let (x, binding) = match &**target {
                Expr::Var(x) => (x, env.lookup(x)),
                Expr::VarAt(x, addr) => (x, env.lookup_at(x, *addr)),
                _ => {
                    return Err(RuntimeError::WrongType {
                        expected: "an assignable variable",
                        found: "a machine-internal form".to_string(),
                    });
                }
            };
            let v = eval(value, env, machine)?;
            match binding {
                Some(Binding::Cell(c)) => {
                    *c.borrow_mut() = Some(v);
                    Ok(Value::Void)
                }
                Some(Binding::Val(_)) => Err(RuntimeError::WrongType {
                    expected: "an assignable (definition) variable",
                    found: format!("immutable binding `{x}`"),
                }),
                None => Err(RuntimeError::Unbound { name: x.clone() }),
            }
        }
        Expr::Tuple(items) => {
            let mut vs = Vec::with_capacity(items.len());
            for i in items {
                vs.push(eval(i, env, machine)?);
            }
            Ok(Value::tuple(vs))
        }
        Expr::Proj(i, e) => match eval(e, env, machine)? {
            Value::Tuple(items) => items
                .get(*i)
                .cloned()
                .ok_or(RuntimeError::BadProjection { index: *i, width: items.len() }),
            other => {
                Err(RuntimeError::WrongType { expected: "a tuple", found: other.to_string() })
            }
        },
        Expr::Unit(u) => {
            Ok(Value::Unit(Rc::new(UnitValue::Atomic(AtomicUnit::new(u.clone(), env.clone())))))
        }
        Expr::Compound(c) => {
            let mut units = Vec::with_capacity(c.links.len());
            for link in &c.links {
                let unit = as_unit(eval(&link.expr, env, machine)?, "compound")?;
                // Fig. 11 side conditions, checked at link time (shared
                // with the reducer and the bytecode VM through
                // `units_runtime::wiring`).
                check_link(&unit, &link.with, &link.provides)?;
                units.push(unit);
            }
            Ok(Value::Unit(Rc::new(UnitValue::Linked(LinkedUnit { compound: c.clone(), units }))))
        }
        Expr::Invoke(inv) => {
            let unit = as_unit(eval(&inv.target, env, machine)?, "invoke")?;
            let mut supplied = HashMap::with_capacity(inv.val_links.len());
            for (name, e) in &inv.val_links {
                supplied.insert(name.clone(), eval(e, env, machine)?);
            }
            invoke_unit(&unit, &supplied, machine)
        }
        Expr::Seal(e, sig) => {
            let unit = as_unit(eval(e, env, machine)?, "seal")?;
            Ok(Value::Unit(Rc::new(seal_unit(unit, sig)?)))
        }
        Expr::Loc(_) | Expr::CellRef(_) | Expr::Data(_) | Expr::Variant(_) => {
            Err(RuntimeError::WrongType {
                expected: "a source expression",
                found: "a machine-internal form".to_string(),
            })
        }
    }
}

/// What a body evaluation steps to: a final value, or a call in tail
/// position (bounced on [`apply`]'s trampoline so that loops written as
/// tail recursion — the only loops the language has — run in constant
/// Rust stack).
enum Tail {
    Done(Value),
    Call(Value, Vec<Value>),
}

/// Evaluates an expression, returning a tail call unbounced when the
/// expression ends in one. Tail positions: an application itself, `if`
/// branches, the last expression of a `begin`, and `let`/`letrec` bodies.
fn eval_tail(expr: &Expr, env: &Env, machine: &mut Machine) -> Result<Tail, RuntimeError> {
    machine.enter()?;
    let result = eval_tail_inner(expr, env, machine);
    machine.exit();
    result
}

fn eval_tail_inner(expr: &Expr, env: &Env, machine: &mut Machine) -> Result<Tail, RuntimeError> {
    machine.step()?;
    match expr {
        Expr::App(f, args) => {
            let func = eval(f, env, machine)?;
            let mut arg_vals = Vec::with_capacity(args.len());
            for a in args {
                arg_vals.push(eval(a, env, machine)?);
            }
            Ok(Tail::Call(func, arg_vals))
        }
        Expr::If(c, t, e) => match eval(c, env, machine)? {
            Value::Bool(true) => eval_tail(t, env, machine),
            Value::Bool(false) => eval_tail(e, env, machine),
            other => Err(RuntimeError::WrongType {
                expected: "a boolean",
                found: other.to_string(),
            }),
        },
        Expr::Seq(es) => match es.split_last() {
            None => Ok(Tail::Done(Value::Void)),
            Some((last, init)) => {
                for e in init {
                    eval(e, env, machine)?;
                }
                eval_tail(last, env, machine)
            }
        },
        Expr::Let(bindings, body) => {
            let mut frame = Vec::with_capacity(bindings.len());
            for b in bindings {
                frame.push((b.name.clone(), Binding::Val(eval(&b.expr, env, machine)?)));
            }
            eval_tail(body, &env.extend(frame), machine)
        }
        Expr::Letrec(lr) => {
            let (inner, cells) = bind_letrec_frame(&lr.types, &lr.vals, env, machine)?;
            for (defn, cell) in lr.vals.iter().zip(&cells) {
                let v = eval(&defn.body, &inner, machine)?;
                *cell.borrow_mut() = Some(v);
            }
            eval_tail(&lr.body, &inner, machine)
        }
        other => Ok(Tail::Done(eval(other, env, machine)?)),
    }
}

/// Applies a value to arguments (shared by `App` evaluation and the
/// dynamic-linking machinery). Closure applications run on a trampoline,
/// so mutual tail recursion — e.g. Fig. 12's even/odd units — consumes no
/// Rust stack.
///
/// # Errors
///
/// Returns a [`RuntimeError`] if the callee is not applicable or the
/// application violates its contract.
pub fn apply(
    mut func: Value,
    mut args: Vec<Value>,
    machine: &mut Machine,
) -> Result<Value, RuntimeError> {
    loop {
        match func {
            Value::Closure(closure) => {
                if closure.arity() != args.len() {
                    return Err(RuntimeError::Arity {
                        expected: closure.arity(),
                        found: args.len(),
                    });
                }
                let env = if args.len() == 1 {
                    let v = args.pop().expect("arity checked above");
                    closure
                        .env
                        .extend1(closure.lambda.params[0].name.clone(), Binding::Val(v))
                } else {
                    let frame = closure
                        .lambda
                        .params
                        .iter()
                        .zip(args)
                        .map(|(p, v)| (p.name.clone(), Binding::Val(v)))
                        .collect();
                    closure.env.extend(frame)
                };
                match eval_tail(&closure.lambda.body, &env, machine)? {
                    Tail::Done(v) => return Ok(v),
                    Tail::Call(f, a) => {
                        func = f;
                        args = a;
                    }
                }
            }
            Value::Prim(op) => return apply_prim(op, &args, machine),
            Value::Data(op) => return apply_data(&op, args),
            other => return Err(RuntimeError::NotAFunction { found: other.to_string() }),
        }
    }
}
