//! Kernel data structures of the *program units* language from
//! Flatt & Felleisen, **"Units: Cool Modules for HOT Languages"**
//! (PLDI 1998).
//!
//! This crate defines the abstract syntax shared by every other crate in
//! the workspace:
//!
//! * [`Symbol`] and [`NameGen`] — identifiers and fresh-name generation;
//! * [`Kind`], [`Ty`], [`Signature`] — the type sub-language of UNITc and
//!   UNITe (paper Figs. 13/16);
//! * [`Expr`] and friends — terms of all three calculi (Figs. 9/13/16),
//!   including the machine-internal value forms used by the substitution
//!   reducer;
//! * [`free_val_vars`], [`subst_vals`], [`subst_ty`], [`alpha_eq`] — the
//!   binding-aware operations the semantics is built from.
//!
//! # Example
//!
//! Build the even/odd unit of paper Fig. 12 programmatically:
//!
//! ```
//! use units_kernel::*;
//!
//! let even_odd = Expr::unit(UnitExpr {
//!     imports: Ports::untyped(Vec::<&str>::new(), ["even"]),
//!     exports: Ports::untyped(Vec::<&str>::new(), ["odd"]),
//!     types: vec![],
//!     vals: vec![ValDefn {
//!         name: "odd".into(),
//!         ty: None,
//!         body: Expr::lambda(
//!             vec![Param::untyped("n")],
//!             Expr::if_(
//!                 Expr::prim2(PrimOp::NumEq, Expr::var("n"), Expr::int(0)),
//!                 Expr::bool(false),
//!                 Expr::app(
//!                     Expr::var("even"),
//!                     vec![Expr::prim2(PrimOp::Sub, Expr::var("n"), Expr::int(1))],
//!                 ),
//!             ),
//!         ),
//!     }],
//!     init: Expr::app(Expr::var("odd"), vec![Expr::int(13)]),
//! });
//! assert!(even_odd.is_value());
//! assert!(free_val_vars(&even_odd).is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alpha;
mod free;
mod hash;
mod kind;
mod plan;
mod sig;
mod subst;
mod symbol;
mod term;
mod ty;

pub use alpha::{alpha_eq, alpha_eq_ty};
pub use hash::alpha_hash;
pub use free::{free_ty_vars_expr, free_val_vars};
pub use kind::Kind;
pub use plan::{ClausePlan, LinkPlan};
pub use sig::{Depend, Ports, SigEquation, Signature, TyPort, ValPort};
pub use subst::{subst_ty, subst_ty_in_sig, subst_vals, CaptureError, ValSubst};
pub use symbol::{NameGen, Symbol};
pub use term::{
    AliasDefn, Binding, CompoundExpr, DataDefn, DataOp, DataRole, DataVariant, Expr, InvokeExpr,
    Lambda, LetrecExpr, LexAddr, LinkClause, LinkRenames, Lit, Loc, Param, PrimOp, TypeDefn,
    UnitExpr, ValDefn, VariantVal, ALL_PRIMS,
};
pub use ty::Ty;
