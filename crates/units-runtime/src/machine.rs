//! Shared machine state: instance nonces, the output buffer, resource
//! budgets, and the run's store.
//!
//! Both evaluators (the cells backend and the substitution reducer) thread
//! a [`Machine`] through evaluation. It is deliberately small: datatype
//! instantiation needs fresh nonces (§5.3), `display` needs somewhere to
//! write, and callers want [`Limits`] so a hostile or merely deep program
//! fails with a typed [`RuntimeError::ResourceExhausted`] instead of
//! hanging or overflowing the stack.
//!
//! The store is the set of cells and hash tables the run allocated. A
//! recursive definition's closure lives in a cell of the frame it
//! captures, and a table can hold a closure over itself, so reference
//! counting alone never frees them. The machine registers each one as it
//! is made and empties them all when the run ends
//! ([`Machine::reclaim`]), which breaks every such cycle.

use std::cell::RefCell;
use std::mem;
use std::rc::{Rc, Weak};

use crate::error::{Resource, RuntimeError};
use crate::value::{CellRef, Garbage, HashTable, Value};

/// Resource budgets for one evaluation.
///
/// Every field defaults to `None` (unlimited). Exhausting a budget
/// surfaces as [`RuntimeError::ResourceExhausted`] naming the
/// [`Resource`] that ran out — never a panic or a stack overflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Limits {
    /// Maximum evaluation steps.
    pub fuel: Option<u64>,
    /// Maximum term-nesting depth the evaluator will descend.
    pub max_depth: Option<u64>,
    /// Maximum mutable store cells allocated over the run.
    pub max_store_cells: Option<u64>,
}

impl Limits {
    /// No budgets at all (the default).
    pub fn none() -> Limits {
        Limits::default()
    }

    /// Bounds evaluation steps.
    pub fn fuel(mut self, fuel: u64) -> Limits {
        self.fuel = Some(fuel);
        self
    }

    /// Bounds evaluation depth.
    pub fn max_depth(mut self, depth: u64) -> Limits {
        self.max_depth = Some(depth);
        self
    }

    /// Bounds store-cell allocation.
    pub fn max_store_cells(mut self, cells: u64) -> Limits {
        self.max_store_cells = Some(cells);
        self
    }
}

/// Weak references to the cells or tables of one run. Entries whose
/// referent has died are dropped whenever the vector would grow, so a
/// run that makes many short-lived cells holds only the live ones.
#[derive(Debug)]
struct Registry<T>(Vec<Weak<RefCell<T>>>);

impl<T> Default for Registry<T> {
    fn default() -> Self {
        Registry(Vec::new())
    }
}

impl<T> Registry<T> {
    fn register(&mut self, node: &Rc<RefCell<T>>) {
        if self.0.len() == self.0.capacity() {
            self.0.retain(|w| w.strong_count() > 0);
            // Room for at least as many again as survive, so a sweep
            // costs O(1) per registration however many stay alive.
            self.0.reserve(self.0.len().max(16));
        }
        self.0.push(Rc::downgrade(node));
    }

    /// The registered nodes still alive.
    fn live(&self) -> impl Iterator<Item = Rc<RefCell<T>>> + '_ {
        self.0.iter().filter_map(Weak::upgrade)
    }
}

/// Mutable machine-wide state.
///
/// The machine owns its run's store: every cell the evaluators allocate
/// and every table `hash-new` makes. [`Machine::reclaim`] empties them,
/// and dropping the machine reclaims. A caller of an evaluator may keep
/// using the returned value while its machine lives; afterwards a closure
/// whose definition cells were emptied fails with
/// [`RuntimeError::UndefinedRead`] when called, and a run-made table
/// reads as empty. Tables made with [`Value::new_hash`] belong to the
/// host and outlive every machine.
#[derive(Debug)]
pub struct Machine {
    next_instance: u64,
    /// Everything `display` wrote, in order.
    output: Vec<String>,
    limits: Limits,
    fuel_left: Option<u64>,
    steps_taken: u64,
    depth: u64,
    cells_allocated: u64,
    cells: Registry<Option<Value>>,
    tables: Registry<HashTable>,
}

impl Machine {
    /// A machine with no budgets.
    pub fn new() -> Machine {
        Machine::with_limits(Limits::none())
    }

    /// A machine that fails with [`RuntimeError::ResourceExhausted`]
    /// (fuel) after `fuel` steps.
    pub fn with_fuel(fuel: u64) -> Machine {
        Machine::with_limits(Limits::none().fuel(fuel))
    }

    /// A machine governed by `limits`.
    pub fn with_limits(limits: Limits) -> Machine {
        Machine {
            next_instance: 0,
            output: Vec::new(),
            limits,
            fuel_left: limits.fuel,
            steps_taken: 0,
            depth: 0,
            cells_allocated: 0,
            cells: Registry::default(),
            tables: Registry::default(),
        }
    }

    /// The budgets this machine enforces.
    pub fn limits(&self) -> Limits {
        self.limits
    }

    /// Draws a fresh datatype-instance nonce (never zero — zero marks
    /// uninstantiated source operations).
    pub fn fresh_instance(&mut self) -> u64 {
        self.next_instance += 1;
        self.next_instance
    }

    /// Records one evaluation step against the fuel budget.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::ResourceExhausted`] when the budget is
    /// exhausted.
    pub fn step(&mut self) -> Result<(), RuntimeError> {
        if let Some(fuel) = &mut self.fuel_left {
            if *fuel == 0 {
                return Err(RuntimeError::ResourceExhausted {
                    resource: Resource::Fuel,
                    limit: self.limits.fuel.unwrap_or(0),
                });
            }
            *fuel -= 1;
        }
        self.steps_taken += 1;
        Ok(())
    }

    /// Records `n` evaluation steps at once against the fuel budget — the
    /// batched form of [`Machine::step`] used by the bytecode VM, which
    /// accumulates a local opcode count and flushes it at back-edges and
    /// call sites instead of paying a budget check per instruction.
    ///
    /// # Errors
    ///
    /// Returns the same [`RuntimeError::ResourceExhausted`] (fuel) as
    /// [`Machine::step`], carrying the configured limit.
    pub fn charge(&mut self, n: u64) -> Result<(), RuntimeError> {
        if let Some(fuel) = &mut self.fuel_left {
            if *fuel < n {
                self.steps_taken += *fuel;
                *fuel = 0;
                return Err(RuntimeError::ResourceExhausted {
                    resource: Resource::Fuel,
                    limit: self.limits.fuel.unwrap_or(0),
                });
            }
            *fuel -= n;
        }
        self.steps_taken += n;
        Ok(())
    }

    /// Steps taken so far (fuel consumed, whether or not a limit is set).
    pub fn steps_taken(&self) -> u64 {
        self.steps_taken
    }

    /// Store cells allocated so far, counted by [`Machine::alloc_cells`].
    /// This counts allocations: a cell freed during the run, or emptied
    /// by [`Machine::reclaim`], still counts.
    pub fn cells_allocated(&self) -> u64 {
        self.cells_allocated
    }

    /// Makes a cell holding `value` (`None`: not yet initialized) and
    /// registers it in the run's store. Every cell an evaluator uses is
    /// made here; the budget is charged separately, by
    /// [`Machine::alloc_cells`], before a group of cells is made.
    pub(crate) fn cell(&mut self, value: Option<Value>) -> CellRef {
        units_trace::count("runtime/cells", 1);
        let cell = Rc::new(RefCell::new(value));
        self.cells.register(&cell);
        cell
    }

    /// Makes an empty hash table (the `hash-new` primitive) registered in
    /// the run's store.
    pub(crate) fn hash_table(&mut self) -> Value {
        let table = Rc::default();
        self.tables.register(&table);
        Value::Hash(table)
    }

    /// Empties every live cell and table this machine made, then frees
    /// whatever that leaves unreferenced. Emptying breaks every cycle
    /// between a closure and a cell, or between a table and a closure.
    /// A cell that is borrowed at the time is skipped, so reclaiming
    /// never panics, even while a caught panic unwinds.
    ///
    /// Returns how many of the registered cells are still referenced
    /// from outside the store afterwards: zero once the run's values are
    /// gone. The store is empty after the call, so reclaiming twice is
    /// harmless.
    pub fn reclaim(&mut self) -> u64 {
        let mut garbage = Garbage::default();
        for cell in self.cells.live() {
            if let Ok(mut content) = cell.try_borrow_mut() {
                if let Some(value) = content.take() {
                    garbage.value(value);
                }
            }
        }
        for table in self.tables.live() {
            if let Ok(mut entries) = table.try_borrow_mut() {
                garbage.values(mem::take(&mut **entries).into_values());
            }
        }
        garbage.run();
        self.tables.0.clear();
        self.cells.0.drain(..).filter(|cell| cell.strong_count() > 0).count() as u64
    }

    /// Enters one level of term nesting; pair with [`Machine::exit`].
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::ResourceExhausted`] when descending would
    /// exceed the depth budget.
    pub fn enter(&mut self) -> Result<(), RuntimeError> {
        self.depth += 1;
        self.check_depth(self.depth)
    }

    /// Leaves one level of term nesting.
    pub fn exit(&mut self) {
        self.depth = self.depth.saturating_sub(1);
    }

    /// Checks an externally tracked nesting depth against the budget
    /// (used by the reducer, whose spine is an explicit worklist rather
    /// than Rust recursion).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::ResourceExhausted`] when `depth` exceeds
    /// the budget.
    pub fn check_depth(&self, depth: u64) -> Result<(), RuntimeError> {
        match self.limits.max_depth {
            Some(max) if depth > max => {
                Err(RuntimeError::ResourceExhausted { resource: Resource::Depth, limit: max })
            }
            _ => Ok(()),
        }
    }

    /// Records `n` store-cell allocations against the budget.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::ResourceExhausted`] when the allocation
    /// would exceed the cell budget.
    pub fn alloc_cells(&mut self, n: u64) -> Result<(), RuntimeError> {
        self.cells_allocated += n;
        match self.limits.max_store_cells {
            Some(max) if self.cells_allocated > max => {
                Err(RuntimeError::ResourceExhausted { resource: Resource::StoreCells, limit: max })
            }
            _ => Ok(()),
        }
    }

    /// Appends a line to the output buffer (the `display` primitive).
    pub fn write(&mut self, text: impl Into<String>) {
        self.output.push(text.into());
    }

    /// Everything displayed so far.
    pub fn output(&self) -> &[String] {
        &self.output
    }

    /// Drains and returns the output buffer.
    pub fn take_output(&mut self) -> Vec<String> {
        std::mem::take(&mut self.output)
    }
}

impl Default for Machine {
    fn default() -> Self {
        Machine::new()
    }
}

impl Drop for Machine {
    fn drop(&mut self) {
        self.reclaim();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instances_are_fresh_and_nonzero() {
        let mut m = Machine::new();
        let a = m.fresh_instance();
        let b = m.fresh_instance();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn fuel_runs_out() {
        let mut m = Machine::with_fuel(2);
        m.step().unwrap();
        m.step().unwrap();
        assert_eq!(
            m.step(),
            Err(RuntimeError::ResourceExhausted { resource: Resource::Fuel, limit: 2 })
        );
        assert_eq!(m.steps_taken(), 2);
    }

    #[test]
    fn charge_batches_fuel_and_reports_the_configured_limit() {
        let mut m = Machine::with_fuel(10);
        m.charge(4).unwrap();
        m.charge(6).unwrap();
        assert_eq!(
            m.charge(1),
            Err(RuntimeError::ResourceExhausted { resource: Resource::Fuel, limit: 10 })
        );
        assert_eq!(m.steps_taken(), 10);
        // Overshooting consumes only the remaining fuel.
        let mut m = Machine::with_fuel(3);
        assert!(m.charge(100).is_err());
        assert_eq!(m.steps_taken(), 3);
    }

    #[test]
    fn unlimited_machines_never_tire() {
        let mut m = Machine::new();
        for _ in 0..10_000 {
            m.step().unwrap();
        }
        assert_eq!(m.steps_taken(), 10_000);
    }

    #[test]
    fn depth_budget_trips_on_entry() {
        let mut m = Machine::with_limits(Limits::none().max_depth(2));
        m.enter().unwrap();
        m.enter().unwrap();
        assert_eq!(
            m.enter(),
            Err(RuntimeError::ResourceExhausted { resource: Resource::Depth, limit: 2 })
        );
        m.exit();
        m.exit();
        m.exit();
        m.enter().unwrap();
    }

    #[test]
    fn cell_budget_counts_cumulatively() {
        let mut m = Machine::with_limits(Limits::none().max_store_cells(3));
        m.alloc_cells(2).unwrap();
        m.alloc_cells(1).unwrap();
        assert_eq!(
            m.alloc_cells(1),
            Err(RuntimeError::ResourceExhausted { resource: Resource::StoreCells, limit: 3 })
        );
    }

    #[test]
    fn dead_cells_leave_the_store_before_it_grows() {
        let mut m = Machine::new();
        for _ in 0..1_000_000 {
            m.cell(None);
        }
        assert!(m.cells.0.len() <= 16, "{} entries for no live cell", m.cells.0.len());
        // Live cells stay registered among the dead.
        let live: Vec<CellRef> = (0..1_000).map(|_| m.cell(None)).collect();
        for _ in 0..1_000_000 {
            m.cell(None);
        }
        assert!(m.cells.0.len() <= 4 * live.len(), "{} entries", m.cells.0.len());
        assert_eq!(m.cells.live().count(), live.len());
    }

    #[test]
    fn reclaim_empties_the_store_and_counts_cells_still_referenced() {
        let mut m = Machine::new();
        let kept = m.cell(Some(Value::Int(1)));
        m.cell(Some(Value::Int(2)));
        let borrowed = m.cell(Some(Value::Int(3)));
        let table = m.hash_table();
        let Value::Hash(entries) = &table else { unreachable!() };
        entries.borrow_mut().insert("self".to_string(), table.clone());
        let weak_table = Rc::downgrade(entries);
        drop(table);
        {
            let _reading = borrowed.borrow();
            // The borrowed cell is skipped, and it and `kept` are still
            // referenced from here.
            assert_eq!(m.reclaim(), 2);
        }
        assert!(kept.borrow().is_none());
        assert!(matches!(*borrowed.borrow(), Some(Value::Int(3))));
        assert!(weak_table.upgrade().is_none(), "the table's cycle was broken");
        assert_eq!(m.reclaim(), 0, "the store is empty after a reclaim");
    }

    #[test]
    fn output_accumulates_and_drains() {
        let mut m = Machine::new();
        m.write("a");
        m.write("b");
        assert_eq!(m.output(), ["a", "b"]);
        assert_eq!(m.take_output(), vec!["a".to_string(), "b".to_string()]);
        assert!(m.output().is_empty());
    }
}
