//! The production backend for program units: the cells-based evaluator of
//! §4.1.6, and the one link check that §2's separate-compilation artifacts
//! and §3.4's dynamic-linking archive share.
//!
//! Units evaluate to values carrying *shared, unevaluated* code;
//! `compound` records wiring after checking the Fig. 11 side conditions;
//! `invoke` threads reference cells through the link graph, runs all
//! definitions, then all initialization expressions. Both compiled
//! backends run [`resolve_program`]'s output.
//!
//! # Example
//!
//! ```
//! use units_compile::{evaluate_program, resolve_program};
//! use units_runtime::{Machine, Value};
//! use units_syntax::parse_file;
//!
//! let program = parse_file(
//!     "(define u (unit (import base) (export) (init (* base 2))))
//!      (invoke u (val base 21))",
//! ).unwrap();
//! let v = evaluate_program(&resolve_program(&program), &mut Machine::new()).unwrap();
//! assert!(v.observably_eq(&Value::Int(42)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dynlink;
mod eval;
mod instantiate;
mod lower;
mod profile;
mod resolve;

pub use dynlink::{
    check_unit, load_interface, load_unit, publish_unit, satisfies, Archive, DynlinkError,
    Published,
};
pub use eval::{apply, eval, evaluate_program};
pub use instantiate::invoke_unit;
pub use lower::lower_program;
pub use profile::ChunkProfile;
pub use resolve::{resolve_program, RESOLVED_FORM};
