//! The production backend for program units: the cells-based evaluator of
//! §4.1.6 and the dynamic-linking archive of §3.4.
//!
//! Units evaluate to values carrying *shared, unevaluated* code;
//! `compound` records wiring after checking the Fig. 11 side conditions;
//! `invoke` threads reference cells through the link graph, runs all
//! definitions, then all initialization expressions.
//!
//! # Example
//!
//! ```
//! use units_compile::evaluate_program;
//! use units_runtime::{Machine, Value};
//! use units_syntax::parse_file;
//!
//! let program = parse_file(
//!     "(define u (unit (import base) (export) (init (* base 2))))
//!      (invoke u (val base 21))",
//! ).unwrap();
//! let v = evaluate_program(&program, &mut Machine::new()).unwrap();
//! assert!(v.observably_eq(&Value::Int(42)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod artifact;
mod dynlink;
mod eval;
mod instantiate;
mod lower;
mod profile;
mod resolve;

pub use artifact::{load_interface, load_unit, publish_unit, ArtifactError, Published};
pub use dynlink::{Archive, DynlinkError};
pub use eval::{apply, eval, evaluate_program};
pub use instantiate::invoke_unit;
pub use lower::lower_program;
pub use profile::ChunkProfile;
pub use resolve::{resolve_program, FRAME_LAYOUT};
