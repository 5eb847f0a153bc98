//! Surface syntax for the unit language: an S-expression reader, a parser
//! into the [`units_kernel`] AST, and a round-tripping pretty-printer.
//!
//! The paper presents units in a semi-graphical notation backed by the
//! textual grammars of Figs. 9/13/16; this crate is the textual front end
//! (the substitution is documented in DESIGN.md §6).
//!
//! # Example
//!
//! ```
//! use units_syntax::{parse_expr, pretty_expr};
//!
//! let src = "(unit (import even) (export odd)
//!              (define odd (lambda (n) (if (= n 0) false (even (- n 1)))))
//!              (init (odd 13)))";
//! let unit = parse_expr(src)?;
//! assert!(unit.is_value());
//! let printed = pretty_expr(&unit);
//! assert_eq!(parse_expr(&printed)?, unit);
//! # Ok::<(), units_syntax::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod parser;
mod pretty;
mod sexpr;
mod span;

pub use error::ParseError;
pub use parser::{parse_expr, parse_file, parse_signature, parse_ty};
pub use pretty::{pretty_expr, pretty_expr_indent, pretty_signature, pretty_ty};
pub use sexpr::{read_all, read_one, SExpr, MAX_NESTING};
pub use span::Span;
