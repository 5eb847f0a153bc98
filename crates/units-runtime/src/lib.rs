//! Run-time substrate for the unit language: values, environments,
//! primitives, and machine state.
//!
//! This crate is the dynamic half of the paper's implementation story
//! (§4.1.6): unit values carry *unevaluated, shared* code; definitions and
//! imports live in externally created reference cells. The evaluators —
//! the cells-based backend in `units-compile` and the substitution
//! reducer in `units-reduce` — both build on these types. A [`Machine`]
//! owns the cells and hash tables its run makes and empties them when the
//! run ends ([`Machine::reclaim`]), and values drop in bounded stack.
//!
//! # Example
//!
//! ```
//! use units_kernel::PrimOp;
//! use units_runtime::{apply_prim, Machine, Value};
//!
//! let mut machine = Machine::new();
//! let table = apply_prim(PrimOp::HashNew, &[], &mut machine)?;
//! apply_prim(PrimOp::HashSet, &[table.clone(), Value::str("bob"), Value::Int(555)], &mut machine)?;
//! let n = apply_prim(PrimOp::HashGet, &[table, Value::str("bob")], &mut machine)?;
//! assert!(n.observably_eq(&Value::Int(555)));
//! # Ok::<(), units_runtime::RuntimeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod env;
mod error;
mod machine;
mod prim;
mod value;
pub mod vm;
pub mod wiring;

pub use env::{read_binding, Binding, Env};
pub use error::{Resource, RuntimeError};
pub use machine::{Limits, Machine};
pub use prim::{apply_prim, render_prim_call};
pub use value::{
    AtomicUnit, CellRef, Closure, DataOpValue, HashTable, LinkedUnit, TupleValue, UnitValue,
    Value, VariantValue,
};
pub use vm::{disassemble, disassemble_profiled, execute, Chunk, Op, OpProfile, Proto, UnitProto, VmCode};
pub use wiring::{
    apply_data, as_unit, bind_letrec_frame, check_link, emit_invoke_event, import_cells,
    seal_unit, wire, WiredUnit,
};
