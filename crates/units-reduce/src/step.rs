//! The small-step reduction relation (paper Fig. 11 plus the standard
//! rules for functions, assignments, and state).
//!
//! [`Reducer::step`] performs exactly one leftmost-outermost reduction,
//! rebuilding the evaluation-context spine around the contractum. The
//! rules:
//!
//! * `invoke (unit …) with x=v…  ⟶  [v̄/x̄](letrec … in e_b)`;
//! * `compound … link v₁ … v₂ …  ⟶  unit …` (merged, α-renamed);
//! * `letrec` allocates one store cell per definition, replaces each
//!   defined variable with a cell reference, and sequences the cell
//!   initializations before the body;
//! * the usual β, δ, `if`, `let`, sequencing, projection, and assignment
//!   rules, with hash tables living in the store.

use std::collections::HashMap;
use std::sync::Arc;

use units_kernel::{
    check_ports, merge_compound, subst_vals, DataOp, DataRole, Expr, Lit, NameGen, PrimOp, Symbol,
    TypeDefn, VariantVal,
};
use units_runtime::{Limits, Machine, RuntimeError};

use crate::store::Store;

/// The result of one reduction attempt.
#[derive(Debug)]
pub enum Step {
    /// The expression was already a value.
    Value,
    /// One reduction was performed; here is the new expression.
    Reduced(Expr),
}

/// The rewriting machine: store, fresh names, fuel, and output.
#[derive(Debug)]
pub struct Reducer {
    /// The store σ.
    pub store: Store,
    /// Fresh-name supply for α-renaming.
    pub gen: NameGen,
    /// Fuel and output buffer (shared type with the cells backend).
    pub machine: Machine,
    /// Reductions performed so far (monotonic over the reducer's life).
    steps: u64,
    /// Which redex the in-flight step contracted — the Reduce-phase
    /// event kind, set at each contraction site.
    last_redex: &'static str,
}

impl Reducer {
    /// A reducer with no step limit.
    pub fn new() -> Reducer {
        Reducer::with_machine(Machine::new())
    }

    /// A reducer that gives up with [`RuntimeError::ResourceExhausted`]
    /// after `fuel` steps.
    pub fn with_fuel(fuel: u64) -> Reducer {
        Reducer::with_machine(Machine::with_fuel(fuel))
    }

    /// A reducer governed by the full [`Limits`] budget set: fuel,
    /// spine depth, and store cells.
    pub fn with_limits(limits: Limits) -> Reducer {
        Reducer::with_machine(Machine::with_limits(limits))
    }

    fn with_machine(machine: Machine) -> Reducer {
        Reducer {
            store: Store::new(),
            gen: NameGen::new(),
            machine,
            steps: 0,
            last_redex: "step/context",
        }
    }

    /// How many reduction steps this reducer has performed — the
    /// Fig. 11 step count reported by `:profile` and checked against
    /// the Reduce-phase event stream in `tests/tracing.rs`.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Reduces an expression all the way to a value.
    ///
    /// Clones `expr` up front (a recursive operation on the term):
    /// callers reducing terms deeper than the Rust stack should build
    /// the term by value and use [`Reducer::reduce_owned`].
    ///
    /// # Errors
    ///
    /// Any [`RuntimeError`] a reduction rule signals, including
    /// [`RuntimeError::ResourceExhausted`] when a [`Limits`] budget runs
    /// out.
    pub fn reduce_to_value(&mut self, expr: &Expr) -> Result<Expr, RuntimeError> {
        self.reduce_owned(expr.clone())
    }

    /// Reduces an owned expression all the way to a value.
    ///
    /// The leftmost-outermost redex search keeps the evaluation-context
    /// spine as an explicit worklist (a `Vec` of parent frames with the
    /// active child hole punched out), so term depth never translates
    /// into Rust-stack depth: the only depth limit is the
    /// `Limits::max_depth` budget, and a 50 000-deep `let` chain reduces
    /// in constant stack space.
    ///
    /// # Errors
    ///
    /// As for [`Reducer::reduce_to_value`].
    pub fn reduce_owned(&mut self, expr: Expr) -> Result<Expr, RuntimeError> {
        let _timer = units_trace::time("reduce");
        // Parent frames above the current focus; `usize` is the child
        // index the focus was taken from (see `child_slot`). Each frame
        // holds a void placeholder in that slot, so dropping the spine
        // on an error never recurses deeply either.
        let mut spine: Vec<(Expr, usize)> = Vec::new();
        let mut current = expr;
        loop {
            if current.is_value() {
                match spine.pop() {
                    None => return Ok(current),
                    Some((mut parent, idx)) => {
                        put_child(&mut parent, idx, current);
                        current = parent;
                    }
                }
            } else if let Some(idx) = search_child(&current) {
                self.machine.check_depth(spine.len() as u64 + 1)?;
                let child = take_child(&mut current, idx);
                spine.push((current, idx));
                current = child;
            } else {
                // `current` is the leftmost-outermost redex. Everything
                // left of the hole is already a value, so contracting
                // here and resuming in place is the same reduction
                // sequence a from-the-root search would produce.
                units_trace::faults::trip("reduce/step")?;
                self.machine.step()?;
                current = self.contract(current)?;
                self.steps += 1;
                units_trace::emit(
                    units_trace::Phase::Reduce,
                    self.last_redex,
                    None,
                    || self.steps.to_string(),
                    &[("reduce/steps", 1), ("reduce/store_size", self.store.len() as u64)],
                );
            }
        }
    }

    /// Reduces, recording every intermediate expression (the reduction
    /// sequence, for traces and tests). The first element is the input;
    /// the last is the value.
    ///
    /// # Errors
    ///
    /// As for [`Reducer::reduce_to_value`].
    pub fn trace(&mut self, expr: &Expr) -> Result<Vec<Expr>, RuntimeError> {
        let mut states = vec![expr.clone()];
        loop {
            let last = states.last().expect("non-empty");
            match self.step(last)? {
                Step::Value => return Ok(states),
                Step::Reduced(next) => states.push(next),
            }
        }
    }

    /// Performs one reduction step, if the expression is not a value.
    ///
    /// Runs the same worklist search as [`Reducer::reduce_owned`] (the
    /// spine is a `Vec`, never Rust recursion) on a clone of `expr` and
    /// rebuilds the whole expression around the contractum.
    ///
    /// # Errors
    ///
    /// Any [`RuntimeError`] the contracted redex signals.
    pub fn step(&mut self, expr: &Expr) -> Result<Step, RuntimeError> {
        if expr.is_value() {
            return Ok(Step::Value);
        }
        units_trace::faults::trip("reduce/step")?;
        self.machine.step()?;
        let mut spine: Vec<(Expr, usize)> = Vec::new();
        let mut current = expr.clone();
        while let Some(idx) = search_child(&current) {
            self.machine.check_depth(spine.len() as u64 + 1)?;
            let child = take_child(&mut current, idx);
            spine.push((current, idx));
            current = child;
        }
        current = self.contract(current)?;
        self.steps += 1;
        units_trace::emit(
            units_trace::Phase::Reduce,
            self.last_redex,
            None,
            || self.steps.to_string(),
            &[("reduce/steps", 1), ("reduce/store_size", self.store.len() as u64)],
        );
        while let Some((mut parent, idx)) = spine.pop() {
            put_child(&mut parent, idx, current);
            current = parent;
        }
        Ok(Step::Reduced(current))
    }

    /// Contracts the leftmost-outermost redex, which [`search_child`]
    /// has located: every proper subterm left of the focus is a value.
    fn contract(&mut self, expr: Expr) -> Result<Expr, RuntimeError> {
        debug_assert!(!expr.is_value());
        match expr {
            Expr::App(f, args) => self.apply(*f, args),
            Expr::If(c, t, e) => {
                self.last_redex = "step/if";
                match *c {
                    Expr::Lit(Lit::Bool(true)) => Ok(*t),
                    Expr::Lit(Lit::Bool(false)) => Ok(*e),
                    ref other => Err(RuntimeError::WrongType {
                        expected: "a boolean",
                        found: crate::render(other),
                    }),
                }
            }
            Expr::Seq(mut es) => {
                self.last_redex = "step/seq";
                match es.len() {
                    0 => Ok(Expr::void()),
                    1 => Ok(es.pop().expect("non-empty")),
                    _ => {
                        es.remove(0);
                        Ok(Expr::seq(es))
                    }
                }
            }
            Expr::Let(bindings, body) => {
                self.last_redex = "step/let";
                let map: HashMap<Symbol, Expr> =
                    bindings.into_iter().map(|b| (b.name, b.expr)).collect();
                Ok(subst_vals(&body, &map, &mut self.gen))
            }
            Expr::Letrec(lr) => self.reduce_letrec(&lr),
            Expr::Set(target, value) => match *target {
                Expr::CellRef(loc) => {
                    self.last_redex = "step/set";
                    units_trace::faults::trip("reduce/store")?;
                    self.store.write_cell(loc, *value)?;
                    Ok(Expr::void())
                }
                Expr::Var(x) | Expr::VarAt(x, _) => Err(RuntimeError::Unbound { name: x }),
                ref other => Err(RuntimeError::WrongType {
                    expected: "an assignable cell",
                    found: crate::render(other),
                }),
            },
            Expr::Proj(i, e) => {
                self.last_redex = "step/proj";
                match *e {
                    Expr::Tuple(mut items) => {
                        if i < items.len() {
                            Ok(items.swap_remove(i))
                        } else {
                            Err(RuntimeError::BadProjection { index: i, width: items.len() })
                        }
                    }
                    ref other => Err(RuntimeError::WrongType {
                        expected: "a tuple",
                        found: crate::render(other),
                    }),
                }
            }
            Expr::CellRef(loc) => {
                self.last_redex = "step/cell-read";
                units_trace::faults::trip("reduce/store")?;
                Ok(self.store.read_cell(loc)?.clone())
            }
            Expr::Compound(c) => {
                units_trace::faults::trip("reduce/merge")?;
                let units = crate::merge::constituent_units(&c)?;
                self.last_redex = "step/compound";
                let merged = merge_compound(&c, &units, &mut self.gen)?;
                Ok(Expr::Unit(Arc::new(merged)))
            }
            Expr::Invoke(inv) => self.reduce_invoke(&inv),
            Expr::Seal(e, sig) => {
                self.last_redex = "step/seal";
                match *e {
                    Expr::Unit(ref u) => {
                        check_ports(&u.imports, &u.exports, &sig.imports, &sig.exports).map_err(
                            |mismatch| RuntimeError::SealFailure { reason: mismatch.to_string() },
                        )?;
                        let mut narrowed = (**u).clone();
                        narrowed.exports = sig.exports.clone();
                        Ok(Expr::Unit(Arc::new(narrowed)))
                    }
                    ref other => {
                        Err(RuntimeError::NotAUnit { rule: "seal", found: crate::render(other) })
                    }
                }
            }
            Expr::Var(x) | Expr::VarAt(x, _) => Err(RuntimeError::Unbound { name: x }),
            // A non-value Tuple/Variant always has a non-value child, so
            // the search never stops on one; values never reach here.
            Expr::Tuple(_)
            | Expr::Variant(_)
            | Expr::Lit(_)
            | Expr::Lambda(_)
            | Expr::Prim(..)
            | Expr::Unit(_)
            | Expr::Loc(_)
            | Expr::Data(_) => unreachable!("not a redex"),
        }
    }

    /// `letrec` allocates cells, rewrites defined variables to cell
    /// references, and sequences the initializations before the body
    /// (Fig. 11's `invoke` rule reduces to exactly this form).
    fn reduce_letrec(&mut self, lr: &units_kernel::LetrecExpr) -> Result<Expr, RuntimeError> {
        self.last_redex = "step/letrec";
        let mut map: HashMap<Symbol, Expr> = HashMap::new();
        // Datatype definitions: fresh instance, operations become values.
        for td in &lr.types {
            if let TypeDefn::Data(d) = td {
                let instance = self.machine.fresh_instance();
                for (tag, v) in d.variants.iter().enumerate() {
                    map.insert(
                        v.ctor.clone(),
                        Expr::Data(Arc::new(DataOp {
                            ty_name: d.name.clone(),
                            instance,
                            role: DataRole::Construct(tag),
                        })),
                    );
                    map.insert(
                        v.dtor.clone(),
                        Expr::Data(Arc::new(DataOp {
                            ty_name: d.name.clone(),
                            instance,
                            role: DataRole::Deconstruct(tag),
                        })),
                    );
                }
                map.insert(
                    d.predicate.clone(),
                    Expr::Data(Arc::new(DataOp {
                        ty_name: d.name.clone(),
                        instance,
                        role: DataRole::Predicate,
                    })),
                );
            }
        }
        // Value definitions: one cell each.
        units_trace::faults::trip("reduce/store")?;
        self.machine.alloc_cells(lr.vals.len() as u64)?;
        let mut cells = Vec::with_capacity(lr.vals.len());
        for defn in &lr.vals {
            let loc = self.store.alloc_cell(defn.name.clone());
            cells.push(loc);
            map.insert(defn.name.clone(), Expr::CellRef(loc));
        }
        // Cell initializations in definition order, then the body.
        let mut steps = Vec::with_capacity(lr.vals.len() + 1);
        for (defn, loc) in lr.vals.iter().zip(&cells) {
            let body = subst_vals(&defn.body, &map, &mut self.gen);
            steps.push(Expr::Set(Box::new(Expr::CellRef(*loc)), Box::new(body)));
        }
        steps.push(subst_vals(&lr.body, &map, &mut self.gen));
        Ok(Expr::seq(steps))
    }

    /// The `invoke` reduction of Fig. 11.
    fn reduce_invoke(&mut self, inv: &units_kernel::InvokeExpr) -> Result<Expr, RuntimeError> {
        let Expr::Unit(unit) = &inv.target else {
            return Err(RuntimeError::NotAUnit {
                rule: "invoke",
                found: crate::render(&inv.target),
            });
        };
        self.last_redex = "step/invoke";
        // The with clause must cover the unit's imports.
        let mut map: HashMap<Symbol, Expr> = HashMap::new();
        for port in &unit.imports.vals {
            match inv.val_links.iter().find(|(n, _)| n == &port.name) {
                Some((_, v)) => {
                    map.insert(port.name.clone(), v.clone());
                }
                None => return Err(RuntimeError::UnsatisfiedImport { name: port.name.clone() }),
            }
        }
        // [v̄/x̄](letrec defns in init)
        let letrec = Expr::Letrec(Arc::new(units_kernel::LetrecExpr {
            types: unit.types.clone(),
            vals: unit.vals.clone(),
            body: unit.init.clone(),
        }));
        Ok(subst_vals(&letrec, &map, &mut self.gen))
    }

    /// Function application redexes: β, δ, datatype operations.
    fn apply(&mut self, f: Expr, args: Vec<Expr>) -> Result<Expr, RuntimeError> {
        match f {
            Expr::Lambda(lam) => {
                if lam.params.len() != args.len() {
                    return Err(RuntimeError::Arity {
                        expected: lam.params.len(),
                        found: args.len(),
                    });
                }
                self.last_redex = "step/beta";
                let map: HashMap<Symbol, Expr> =
                    lam.params.iter().zip(args).map(|(p, a)| (p.name.clone(), a)).collect();
                Ok(subst_vals(&lam.body, &map, &mut self.gen))
            }
            Expr::Prim(op, _) => self.delta(op, &args),
            Expr::Data(ref op) => self.apply_data(op, &args),
            ref other => Err(RuntimeError::NotAFunction { found: crate::render(other) }),
        }
    }

    fn apply_data(&mut self, op: &DataOp, args: &[Expr]) -> Result<Expr, RuntimeError> {
        self.last_redex = "step/data";
        let [arg] = args else {
            return Err(RuntimeError::Arity { expected: 1, found: args.len() });
        };
        match op.role {
            DataRole::Construct(tag) => Ok(Expr::Variant(Arc::new(VariantVal {
                ty_name: op.ty_name.clone(),
                instance: op.instance,
                tag,
                payload: arg.clone(),
            }))),
            DataRole::Deconstruct(tag) => {
                let v = self.expect_own_variant(op, arg)?;
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
                let v = self.expect_own_variant(op, arg)?;
                Ok(Expr::bool(v.tag == 0))
            }
        }
    }

    fn expect_own_variant<'a>(
        &self,
        op: &DataOp,
        arg: &'a Expr,
    ) -> Result<&'a VariantVal, RuntimeError> {
        match arg {
            Expr::Variant(v) if v.ty_name == op.ty_name && v.instance == op.instance => Ok(v),
            Expr::Variant(v) if v.ty_name == op.ty_name => {
                Err(RuntimeError::ForeignInstance { ty_name: op.ty_name.clone() })
            }
            other => Err(RuntimeError::WrongType {
                expected: "a datatype value of the defining instance",
                found: crate::render(other),
            }),
        }
    }

    /// δ-rules for primitives. Hash tables live in the store, so this is
    /// the only place the substitution semantics touches σ apart from
    /// definition cells.
    fn delta(&mut self, op: PrimOp, args: &[Expr]) -> Result<Expr, RuntimeError> {
        self.last_redex = "step/delta";
        units_trace::faults::trip("reduce/prim")?;
        let result = self.delta_result(op, args)?;
        units_trace::emit(
            units_trace::Phase::Reduce,
            "prim",
            None,
            || {
                units_runtime::render_prim_call(
                    op,
                    args.iter().map(ground_expr),
                    &ground_expr(&result),
                )
            },
            &[("reduce/prim_calls", 1)],
        );
        Ok(result)
    }

    /// The δ-function proper: the table of primitive contractions.
    fn delta_result(&mut self, op: PrimOp, args: &[Expr]) -> Result<Expr, RuntimeError> {
        use Expr::Lit as L;
        if args.len() != op.arity() {
            return Err(RuntimeError::Arity { expected: op.arity(), found: args.len() });
        }
        let int = |e: &Expr| match e {
            L(Lit::Int(n)) => Ok(*n),
            other => {
                Err(RuntimeError::WrongType { expected: "an integer", found: crate::render(other) })
            }
        };
        let boolean = |e: &Expr| match e {
            L(Lit::Bool(b)) => Ok(*b),
            other => {
                Err(RuntimeError::WrongType { expected: "a boolean", found: crate::render(other) })
            }
        };
        let string = |e: &Expr| match e {
            L(Lit::Str(s)) => Ok(s.clone()),
            other => {
                Err(RuntimeError::WrongType { expected: "a string", found: crate::render(other) })
            }
        };
        let loc = |e: &Expr| match e {
            Expr::Loc(l) => Ok(*l),
            other => Err(RuntimeError::WrongType {
                expected: "a hash table",
                found: crate::render(other),
            }),
        };
        Ok(match op {
            PrimOp::Add => Expr::int(int(&args[0])?.wrapping_add(int(&args[1])?)),
            PrimOp::Sub => Expr::int(int(&args[0])?.wrapping_sub(int(&args[1])?)),
            PrimOp::Mul => Expr::int(int(&args[0])?.wrapping_mul(int(&args[1])?)),
            PrimOp::Div => {
                let (a, b) = (int(&args[0])?, int(&args[1])?);
                if b == 0 {
                    return Err(RuntimeError::DivisionByZero);
                }
                Expr::int(a.wrapping_div(b))
            }
            PrimOp::Rem => {
                let (a, b) = (int(&args[0])?, int(&args[1])?);
                if b == 0 {
                    return Err(RuntimeError::DivisionByZero);
                }
                Expr::int(a.wrapping_rem(b))
            }
            PrimOp::Lt => Expr::bool(int(&args[0])? < int(&args[1])?),
            PrimOp::Le => Expr::bool(int(&args[0])? <= int(&args[1])?),
            PrimOp::NumEq => Expr::bool(int(&args[0])? == int(&args[1])?),
            PrimOp::Not => Expr::bool(!boolean(&args[0])?),
            PrimOp::BoolEq => Expr::bool(boolean(&args[0])? == boolean(&args[1])?),
            PrimOp::StrAppend => Expr::str(format!("{}{}", string(&args[0])?, string(&args[1])?)),
            PrimOp::StrEq => Expr::bool(string(&args[0])? == string(&args[1])?),
            PrimOp::StrLen => Expr::int(string(&args[0])?.chars().count() as i64),
            PrimOp::IntToStr => Expr::str(int(&args[0])?.to_string()),
            PrimOp::Display => {
                self.machine.write(&*string(&args[0])?);
                Expr::void()
            }
            PrimOp::Fail => {
                return Err(RuntimeError::User { message: string(&args[0])?.to_string() })
            }
            PrimOp::HashNew => {
                self.machine.alloc_cells(1)?;
                Expr::Loc(self.store.alloc_hash())
            }
            PrimOp::HashSet => {
                let l = loc(&args[0])?;
                let key = string(&args[1])?.to_string();
                self.store.hash_mut(l)?.insert(key, args[2].clone());
                Expr::void()
            }
            PrimOp::HashGet => {
                let l = loc(&args[0])?;
                let key = string(&args[1])?;
                self.store
                    .hash(l)?
                    .get(&*key)
                    .cloned()
                    .ok_or_else(|| RuntimeError::MissingKey { key: key.to_string() })?
            }
            PrimOp::HashHas => {
                let l = loc(&args[0])?;
                Expr::bool(self.store.hash(l)?.contains_key(&*string(&args[1])?))
            }
            PrimOp::HashRemove => {
                let l = loc(&args[0])?;
                let key = string(&args[1])?;
                self.store.hash_mut(l)?.remove(&*key);
                Expr::void()
            }
            PrimOp::HashCount => {
                let l = loc(&args[0])?;
                Expr::int(self.store.hash(l)?.len() as i64)
            }
        })
    }
}

impl Default for Reducer {
    fn default() -> Self {
        Reducer::new()
    }
}

/// The child index the leftmost-outermost search must descend into, or
/// `None` when `expr` is itself the redex. `expr` must not be a value.
/// Indices follow [`child_slot`]'s numbering.
fn search_child(expr: &Expr) -> Option<usize> {
    match expr {
        Expr::App(f, args) => {
            if !f.is_value() {
                return Some(0);
            }
            args.iter().position(|a| !a.is_value()).map(|i| i + 1)
        }
        Expr::If(c, ..) => (!c.is_value()).then_some(0),
        Expr::Seq(es) => match es.first() {
            Some(e) if !e.is_value() => Some(0),
            _ => None,
        },
        Expr::Let(bindings, _) => bindings.iter().position(|b| !b.expr.is_value()),
        // Assignment evaluates its right-hand side first, as both
        // compiled backends do; a target that is not a cell is an error
        // the contraction then reports.
        Expr::Set(_, value) => (!value.is_value()).then_some(1),
        Expr::Tuple(items) => items.iter().position(|e| !e.is_value()),
        Expr::Proj(_, e) => (!e.is_value()).then_some(0),
        // A non-value Variant's payload is still reducing (transient).
        Expr::Variant(_) => Some(0),
        Expr::Compound(c) => c.links.iter().position(|l| !l.expr.is_value()),
        Expr::Invoke(inv) => {
            if !inv.target.is_value() {
                return Some(0);
            }
            inv.val_links.iter().position(|(_, e)| !e.is_value()).map(|i| i + 1)
        }
        Expr::Seal(e, _) => (!e.is_value()).then_some(0),
        Expr::Letrec(_) | Expr::CellRef(_) | Expr::Var(_) | Expr::VarAt(..) => None,
        // Values never enter the search.
        Expr::Lit(_)
        | Expr::Lambda(_)
        | Expr::Prim(..)
        | Expr::Unit(_)
        | Expr::Loc(_)
        | Expr::Data(_) => None,
    }
}

/// The mutable slot for child `idx` of `parent`, in [`search_child`]'s
/// numbering: slot 0 is the head position (function, condition,
/// target…), slots `1 + i` the i-th element of the trailing vector
/// where one exists.
fn child_slot(parent: &mut Expr, idx: usize) -> &mut Expr {
    match parent {
        Expr::App(f, args) => {
            if idx == 0 {
                f
            } else {
                &mut args[idx - 1]
            }
        }
        Expr::If(c, ..) => c,
        Expr::Seq(es) | Expr::Tuple(es) => &mut es[idx],
        Expr::Let(bindings, _) => &mut bindings[idx].expr,
        Expr::Set(_, value) => value,
        Expr::Proj(_, e) => e,
        Expr::Variant(v) => &mut Arc::make_mut(v).payload,
        Expr::Compound(c) => &mut Arc::make_mut(c).links[idx].expr,
        Expr::Invoke(inv) => {
            let inv = Arc::make_mut(inv);
            if idx == 0 {
                &mut inv.target
            } else {
                &mut inv.val_links[idx - 1].1
            }
        }
        Expr::Seal(e, _) => e,
        _ => unreachable!("node has no reducible children"),
    }
}

/// Removes child `idx` from `parent`, leaving a void placeholder. The
/// placeholder keeps every spine frame shallow: cloning or dropping a
/// frame never traverses the term below the hole.
fn take_child(parent: &mut Expr, idx: usize) -> Expr {
    std::mem::replace(child_slot(parent, idx), Expr::void())
}

/// Restores child `idx` of `parent` (undoes [`take_child`]).
fn put_child(parent: &mut Expr, idx: usize, child: Expr) {
    *child_slot(parent, idx) = child;
}

/// Ground rendering of a reducer expression for prim events — formats
/// match `units-runtime`'s value rendering exactly so the two backends'
/// `"prim"` payload streams are comparable.
fn ground_expr(e: &Expr) -> String {
    match e {
        Expr::Lit(Lit::Int(n)) => n.to_string(),
        Expr::Lit(Lit::Bool(b)) => b.to_string(),
        Expr::Lit(Lit::Str(s)) => format!("{s:?}"),
        Expr::Lit(Lit::Void) => "void".to_string(),
        _ => "·".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use units_syntax::parse_expr;

    fn run(src: &str) -> Result<Expr, RuntimeError> {
        let e = parse_expr(src).unwrap_or_else(|err| panic!("parse: {err}"));
        Reducer::new().reduce_to_value(&e)
    }

    fn run_ok(src: &str) -> Expr {
        run(src).unwrap_or_else(|err| panic!("runtime: {err}"))
    }

    #[test]
    fn arithmetic_reduces() {
        assert_eq!(run_ok("(+ (* 2 3) 4)"), Expr::int(10));
        assert_eq!(run_ok("(if (< 1 2) \"a\" \"b\")"), Expr::str("a"));
    }

    #[test]
    fn beta_reduction_is_capture_avoiding() {
        assert_eq!(run_ok("(((lambda (x) (lambda (y) x)) 5) 6)"), Expr::int(5));
    }

    #[test]
    fn let_is_parallel() {
        assert_eq!(run_ok("(let ((x 1)) (let ((x 2) (y x)) y))"), Expr::int(1));
    }

    #[test]
    fn letrec_supports_mutual_recursion() {
        let src = "(letrec ((define even (lambda (n) (if (= n 0) true (odd (- n 1)))))
                            (define odd (lambda (n) (if (= n 0) false (even (- n 1))))))
                     (odd 11))";
        assert_eq!(run_ok(src), Expr::bool(true));
    }

    #[test]
    fn set_mutates_definition_cells() {
        let src = "(letrec ((define counter 0))
                     (set! counter (+ counter 1))
                     (set! counter (+ counter 10))
                     counter)";
        assert_eq!(run_ok(src), Expr::int(11));
    }

    #[test]
    fn hash_tables_work_in_the_store() {
        let src = "(let ((t (hash-new)))
                     (hash-set! t \"a\" 1)
                     (hash-set! t \"b\" 2)
                     (+ (hash-get t \"a\") (hash-count t)))";
        assert_eq!(run_ok(src), Expr::int(3));
    }

    #[test]
    fn invoke_reduces_to_letrec_per_fig11() {
        // One step of `invoke (unit …) with x=v` yields a letrec with the
        // import substituted.
        let e = parse_expr(
            "(invoke (unit (import base) (export) (define f (lambda () base)) (init (f)))
                     (val base 42))",
        )
        .unwrap();
        let mut r = Reducer::new();
        let stepped = match r.step(&e).unwrap() {
            Step::Reduced(e) => e,
            Step::Value => panic!("should step"),
        };
        assert!(matches!(stepped, Expr::Letrec(_)), "got {stepped:?}");
        // And all the way: 42.
        assert_eq!(r.reduce_to_value(&stepped).unwrap(), Expr::int(42));
    }

    #[test]
    fn invoke_missing_import_errors() {
        let err = run("(invoke (unit (import x) (export) (init x)))").unwrap_err();
        assert!(matches!(err, RuntimeError::UnsatisfiedImport { name } if name.as_str() == "x"));
    }

    #[test]
    fn compound_reduces_to_merged_unit_then_invokes() {
        let src = "(invoke (compound (import) (export)
            (link ((unit (import odd) (export even)
                     (define even (lambda (n) (if (= n 0) true (odd (- n 1))))))
                   (with odd) (provides even))
                  ((unit (import even) (export odd)
                     (define odd (lambda (n) (if (= n 0) false (even (- n 1)))))
                     (init (odd 13)))
                   (with even) (provides odd)))))";
        assert_eq!(run_ok(src), Expr::bool(true));
    }

    #[test]
    fn defs_run_before_inits_across_constituents() {
        let src = "(invoke (compound (import) (export)
            (link ((unit (import later) (export)
                     (init (display \"first\") (later)))
                   (with later) (provides))
                  ((unit (import) (export later)
                     (define later (lambda () (display \"from-later\") void))
                     (init (display \"second\")))
                   (with) (provides later)))))";
        let e = parse_expr(src).unwrap();
        let mut r = Reducer::new();
        r.reduce_to_value(&e).unwrap();
        assert_eq!(r.machine.output(), ["first", "from-later", "second"]);
    }

    #[test]
    fn datatype_round_trip_and_wrong_variant() {
        let src = "(letrec ((datatype t (mk unmk int) (no unno void) t?))
                     (unmk (mk 7)))";
        assert_eq!(run_ok(src), Expr::int(7));
        let src = "(letrec ((datatype t (mk unmk int) (no unno void) t?))
                     (unno (mk 7)))";
        assert!(matches!(run(src).unwrap_err(), RuntimeError::WrongVariant { .. }));
        let src = "(letrec ((datatype t (mk unmk int) (no unno void) t?))
                     (tuple (t? (mk 7)) (t? (no void))))";
        assert_eq!(run_ok(src), Expr::Tuple(vec![Expr::bool(true), Expr::bool(false)]));
    }

    #[test]
    fn two_instances_of_a_datatype_do_not_mix() {
        let src = "(let ((make (lambda ()
                       (invoke (unit (import) (export)
                         (datatype sym (mk unmk str) sym?)
                         (init (tuple mk unmk)))))))
                     (let ((a (make)) (b (make)))
                       ((proj 1 b) ((proj 0 a) \"x\"))))";
        assert!(matches!(
            run(src).unwrap_err(),
            RuntimeError::ForeignInstance { ty_name } if ty_name.as_str() == "sym"
        ));
    }

    #[test]
    fn seal_narrows_exports() {
        let err = run("(invoke (compound (import) (export)
               (link ((seal (unit (import) (export a) (define a 1))
                            (sig (import) (export) (init void)))
                      (with) (provides a)))))")
        .unwrap_err();
        assert!(matches!(err, RuntimeError::MissingProvide { name } if name.as_str() == "a"));
    }

    #[test]
    fn fuel_prevents_divergence() {
        let src = "(letrec ((define loop (lambda () (loop)))) (loop))";
        let e = parse_expr(src).unwrap();
        let err = Reducer::with_fuel(10_000).reduce_to_value(&e).unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::ResourceExhausted {
                resource: units_runtime::Resource::Fuel,
                limit: 10_000
            }
        ));
    }

    /// Regression test for the recursive redex search: a ~50k-deep `let`
    /// chain in binding position used to overflow the Rust stack before
    /// the search became an explicit worklist. The term is built (and
    /// reduced) without ever recursing on its depth.
    #[test]
    fn deep_let_chains_reduce_in_constant_stack() {
        let mut e = Expr::int(1);
        for _ in 0..50_000 {
            e = Expr::Let(
                vec![units_kernel::Binding { name: "x".into(), expr: e }],
                Box::new(Expr::var("x")),
            );
        }
        let mut r = Reducer::new();
        assert_eq!(r.reduce_owned(e).unwrap(), Expr::int(1));
        assert_eq!(r.steps(), 50_000);
    }

    #[test]
    fn max_depth_is_the_only_depth_limit() {
        let mut e = Expr::int(1);
        for _ in 0..100 {
            e = Expr::Let(
                vec![units_kernel::Binding { name: "x".into(), expr: e }],
                Box::new(Expr::var("x")),
            );
        }
        let mut r = Reducer::with_limits(Limits::none().max_depth(10));
        let err = r.reduce_owned(e).unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::ResourceExhausted { resource: units_runtime::Resource::Depth, limit: 10 }
        ));
    }

    #[test]
    fn store_cell_budget_bounds_letrec_allocation() {
        let src = "(letrec ((define a 1) (define b 2) (define c 3)) a)";
        let e = parse_expr(src).unwrap();
        let err = Reducer::with_limits(Limits::none().max_store_cells(2))
            .reduce_to_value(&e)
            .unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::ResourceExhausted {
                resource: units_runtime::Resource::StoreCells,
                limit: 2
            }
        ));
    }

    #[test]
    fn traces_record_every_state() {
        let e = parse_expr("(+ 1 (+ 2 3))").unwrap();
        let mut r = Reducer::new();
        let states = r.trace(&e).unwrap();
        assert_eq!(states.first().unwrap(), &e);
        assert_eq!(states.last().unwrap(), &Expr::int(6));
        // (+ 1 (+ 2 3)) → (+ 1 5) → 6
        assert_eq!(states.len(), 3);
    }

    #[test]
    fn multiple_invocations_get_fresh_cells() {
        let src = "(let ((u (unit (import) (export)
                      (define counter 0)
                      (init (set! counter (+ counter 1)) counter))))
                     (tuple (invoke u) (invoke u)))";
        assert_eq!(run_ok(src), Expr::Tuple(vec![Expr::int(1), Expr::int(1)]));
    }

    #[test]
    fn undefined_reads_are_runtime_errors() {
        // MzScheme-strictness behaviour: reading a definition before its
        // expression has run (the reducer always detects this; the paper
        // level forbids it statically instead).
        let src = "(letrec ((define a b) (define b 1)) a)";
        let err = run(src).unwrap_err();
        assert!(matches!(err, RuntimeError::UndefinedRead { .. }));
    }
}
