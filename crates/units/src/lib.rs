//! # units — Cool Modules for HOT Languages
//!
//! A complete Rust implementation of the *program units* module system of
//! Matthew Flatt and Matthias Felleisen, **"Units: Cool Modules for HOT
//! Languages"** (PLDI 1998): separate compilation, externally specified
//! linking, hierarchical structuring, cyclic (mutually recursive) links,
//! first-class units, and type-safe dynamic linking.
//!
//! ## The pieces
//!
//! | Crate | Paper artifact |
//! |---|---|
//! | [`units_syntax`] | the textual grammars of Figs. 9/13/16 |
//! | [`units_kernel`] | terms, types, signatures, binding operations |
//! | [`units_check`] | Fig. 10 context checks; Fig. 14/17 subtyping; Fig. 15/19 typing; Fig. 18 expansion |
//! | [`units_reduce`] | the Fig. 11 rewriting semantics (reference) |
//! | [`units_compile`] | the §4.1.6 cells backend (production) + the §2/§3.4 link check |
//! | this crate | the pipeline, the paper's running examples, differential testing |
//!
//! ## Engine quick start
//!
//! An [`Engine`] is a session: it checks programs, caches the
//! checked/resolved artifacts by source text, and runs them under
//! resource budgets.
//!
//! ```
//! use units::{Engine, Observation};
//!
//! let engine = Engine::builder().build();
//! // Fig. 12's even/odd units, linked cyclically and invoked.
//! let outcome = engine.invoke(
//!     "(invoke (compound (import) (export)
//!        (link ((unit (import odd) (export even)
//!                 (define even (lambda (n) (if (= n 0) true (odd (- n 1))))))
//!               (with odd) (provides even))
//!              ((unit (import even) (export odd)
//!                 (define odd (lambda (n) (if (= n 0) false (even (- n 1)))))
//!                 (init (odd 13)))
//!               (with even) (provides odd)))))",
//! )?;
//! assert_eq!(outcome.value, Observation::Bool(true));
//! // Loading the same source text again skips parsing, checking and
//! // resolution entirely:
//! assert_eq!(engine.metrics_snapshot().cache.misses, 1);
//! # Ok::<(), units::Error>(())
//! ```
//!
//! The paper's full interactive phone book (Figs. 1–7) ships in
//! [`stdlib`]; `examples/` contains runnable binaries for each scenario.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diagram;
mod engine;
mod error;
mod metrics;
mod observe;
mod outcome;
pub mod stdlib;
pub mod typed_stdlib;

pub use engine::{Engine, EngineBuilder, FallbackPolicy, Loaded, PIPELINE_STACK_SIZE};
pub use error::Error;
pub use metrics::{
    CacheMetrics, FlightMetrics, LatencyStats, MetricsSnapshot, RunMetrics, StoreMetrics,
};
pub use observe::{observe_expr, observe_value, Observation};
pub use outcome::{Backend, Outcome};

/// The tracing substrate, re-exported so downstream users can install
/// sinks and read metrics without naming the `units-trace` crate. With
/// the `trace` cargo feature off every hook is a no-op.
pub use units_trace as trace;

// Re-export the pieces a downstream user needs without naming every crate.
pub use units_check::{
    check_program, expand_sig, expand_ty, reachable_tys, subtype, ty_equal, type_of, CheckError,
    CheckOptions, Equations, Level, Strictness,
};
pub use units_compile::{
    check_unit, evaluate_program, invoke_unit, load_interface, load_unit, publish_unit,
    resolve_program, satisfies, Archive, ChunkProfile, DynlinkError, Published,
};
pub use units_kernel::{
    alpha_eq, free_val_vars, merge_compound, CompoundExpr, Depend, Expr, InvokeExpr, Kind,
    MergeError, Param, Ports, Signature, Symbol, Ty, TyPort, UnitExpr, ValPort,
};
pub use units_reduce::{Reducer, Step};
pub use units_runtime::{Limits, Machine, Resource, RuntimeError, UnitValue, Value};
pub use units_syntax::{
    parse_expr, parse_file, parse_signature, parse_ty, pretty_expr, pretty_expr_indent,
    pretty_signature, pretty_ty, ParseError, MAX_NESTING,
};
pub use units_trace::FlightDump;
