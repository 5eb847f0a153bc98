//! The reference semantics: a substitution-based, small-step rewriting
//! machine for the unit calculi (paper Fig. 11, with a Felleisen–Hieb
//! store for mutable state).
//!
//! This crate is the executable counterpart of the paper's formal
//! semantics; the cells-based backend in `units-compile` is the
//! production implementation. The two are differentially tested against
//! each other in the workspace's integration suite.
//!
//! # Example
//!
//! ```
//! use units_reduce::Reducer;
//! use units_syntax::parse_expr;
//! use units_kernel::Expr;
//!
//! let program = parse_expr(
//!     "(invoke (unit (import) (export) (init (* 6 7))))").unwrap();
//! let mut reducer = Reducer::new();
//! let value = reducer.reduce_to_value(&program).unwrap();
//! assert_eq!(value, Expr::int(42));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod merge;
mod step;
mod store;

pub use merge::constituent_units;
pub use step::{Reducer, Step};
pub use store::{Store, StoreEntry};

/// A short, human-readable description of an expression's shape, used in
/// dynamic-error messages.
pub(crate) fn render(expr: &units_kernel::Expr) -> String {
    use units_kernel::Expr;
    match expr {
        Expr::Lit(l) => l.to_string(),
        Expr::Lambda(lam) => format!("#⟨procedure/{}⟩", lam.params.len()),
        Expr::Prim(op, _) => format!("#⟨prim {op}⟩"),
        Expr::Unit(_) => "#⟨unit⟩".to_string(),
        Expr::Loc(l) => format!("#⟨{l}⟩"),
        Expr::Data(d) => format!("#⟨{:?} of {}⟩", d.role, d.ty_name),
        Expr::Variant(v) => format!("#⟨{} variant {}⟩", v.ty_name, v.tag),
        Expr::Tuple(items) => format!("#⟨tuple/{}⟩", items.len()),
        Expr::Var(x) | Expr::VarAt(x, _) => format!("variable `{x}`"),
        other => format!("a non-value ({})", kind_name(other)),
    }
}

fn kind_name(expr: &units_kernel::Expr) -> &'static str {
    use units_kernel::Expr;
    match expr {
        Expr::Var(_) | Expr::VarAt(..) => "variable",
        Expr::Lit(_) => "literal",
        Expr::Prim(..) => "primitive",
        Expr::Lambda(_) => "lambda",
        Expr::App(..) => "application",
        Expr::If(..) => "conditional",
        Expr::Seq(_) => "sequence",
        Expr::Let(..) => "let",
        Expr::Letrec(_) => "letrec",
        Expr::Set(..) => "assignment",
        Expr::Tuple(_) => "tuple",
        Expr::Proj(..) => "projection",
        Expr::Unit(_) => "unit",
        Expr::Compound(_) => "compound",
        Expr::Invoke(_) => "invoke",
        Expr::Seal(..) => "seal",
        Expr::Loc(_) => "location",
        Expr::CellRef(_) => "cell reference",
        Expr::Data(_) => "datatype operation",
        Expr::Variant(_) => "variant",
    }
}
