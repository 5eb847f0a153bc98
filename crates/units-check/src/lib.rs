//! Static checking for the unit calculi of Flatt & Felleisen, *Units:
//! Cool Modules for HOT Languages* (PLDI 1998).
//!
//! * [`context_check`] — the context-sensitive conditions of Fig. 10,
//!   applied at every level (distinctness, exports-defined, link coverage,
//!   valuability under [`Strictness::Paper`]); [`compound_link_errors`]
//!   applies its linking conditions to one `compound`;
//! * [`type_of`] — the typing rules of Fig. 15 (UNITc) and Fig. 19
//!   (UNITe), selected by [`Level`];
//! * [`subtype`] — signature subtyping (Figs. 14/17) with the §5.2
//!   hiding extension;
//! * [`expand_ty`] / [`Equations`] — abbreviation expansion (Fig. 18) and
//!   the depends-on relation.
//!
//! # Example
//!
//! ```
//! use units_check::{check_program, CheckOptions, Level, Strictness};
//! use units_syntax::parse_expr;
//!
//! let unit = parse_expr(
//!     "(unit (import) (export (one int))
//!        (define one int 1)
//!        (init one))",
//! ).unwrap();
//! let ty = check_program(&unit, CheckOptions::typed(Level::Constructed)).unwrap();
//! assert!(ty.unwrap().as_sig().is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diag;
mod env;
mod expand;
mod subtype;
mod typed;
mod unitd;
mod valuable;

pub use diag::CheckError;
pub use env::{Env, Mark};
pub use expand::{expand_sig, expand_ty, reachable_tys, Equations};
pub use subtype::{subtype, ty_equal, SubtypeError};
pub use typed::{type_of, type_of_in, Level};
pub use unitd::{compound_link_errors, context_check, Strictness};
pub use valuable::is_valuable;

/// How a program should be checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CheckOptions {
    /// Which calculus to check against.
    pub level: Level,
    /// Whether to enforce the paper's valuability restriction.
    pub strictness: Strictness,
}

impl CheckOptions {
    /// UNITd with the paper's valuability restriction.
    pub fn untyped() -> CheckOptions {
        CheckOptions { level: Level::Untyped, strictness: Strictness::Paper }
    }

    /// A typed level with the paper's valuability restriction.
    pub fn typed(level: Level) -> CheckOptions {
        CheckOptions { level, strictness: Strictness::Paper }
    }
}

/// Checks a whole program: context conditions always, typing when the
/// level is static. Returns the program's type for typed levels.
///
/// # Errors
///
/// Returns every context violation found, or the first type error.
pub fn check_program(
    expr: &units_kernel::Expr,
    opts: CheckOptions,
) -> Result<Option<units_kernel::Ty>, Vec<CheckError>> {
    let _timer = units_trace::time("check");
    units_trace::faults::trip("check/program")
        .map_err(|f| vec![CheckError::Injected { site: f.site, hit: f.hit }])?;
    context_check(expr, opts.strictness)?;
    let result = match opts.level {
        Level::Untyped => Ok(None),
        level => type_of(expr, level).map(Some).map_err(|e| vec![e]),
    };
    units_trace::emit(
        units_trace::Phase::Check,
        "check/program",
        None,
        || opts.level.name().to_string(),
        &[("check/programs", 1)],
    );
    result
}
