//! The store of the rewriting semantics.
//!
//! Following Felleisen–Hieb (the paper's cited technique for state), a
//! program state is a pair of an expression and a store. Locations hold
//! either a *definition cell* — created by the `letrec` reduction, filled
//! when the definition's expression reaches a value — or a hash table
//! (the substrate's only compound mutable data).

use std::collections::HashMap;

use units_kernel::{Expr, Loc, Symbol};
use units_runtime::RuntimeError;

/// What a location holds.
#[derive(Debug, Clone)]
pub enum StoreEntry {
    /// The cell of the named definition; `None` until initialized.
    Cell(Symbol, Option<Expr>),
    /// A mutable string-keyed table of values.
    Hash(HashMap<String, Expr>),
}

/// The store σ.
#[derive(Debug, Default, Clone)]
pub struct Store {
    entries: Vec<StoreEntry>,
}

impl Store {
    /// An empty store.
    pub fn new() -> Store {
        Store::default()
    }

    /// Allocates an uninitialized cell for the definition `name`.
    pub fn alloc_cell(&mut self, name: Symbol) -> Loc {
        self.entries.push(StoreEntry::Cell(name, None));
        Loc(self.entries.len() - 1)
    }

    /// Allocates a fresh, empty hash table.
    pub fn alloc_hash(&mut self) -> Loc {
        self.entries.push(StoreEntry::Hash(HashMap::new()));
        Loc(self.entries.len() - 1)
    }

    /// Reads a definition cell.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UndefinedRead`] if the cell is uninitialized,
    /// naming the definition by its [`Symbol::base`] as the compiled
    /// backends do, so a merged name like `g#m1` reads as `g`.
    pub fn read_cell(&self, loc: Loc) -> Result<&Expr, RuntimeError> {
        match self.entries.get(loc.0) {
            Some(StoreEntry::Cell(_, Some(v))) => Ok(v),
            Some(StoreEntry::Cell(name, None)) => {
                Err(RuntimeError::UndefinedRead { name: Symbol::new(name.base()) })
            }
            _ => Err(RuntimeError::Unbound { name: format!("{loc}").into() }),
        }
    }

    /// Writes a definition cell.
    ///
    /// # Errors
    ///
    /// Returns an error if the location is not a cell.
    pub fn write_cell(&mut self, loc: Loc, value: Expr) -> Result<(), RuntimeError> {
        match self.entries.get_mut(loc.0) {
            Some(StoreEntry::Cell(_, slot)) => {
                *slot = Some(value);
                Ok(())
            }
            _ => Err(RuntimeError::Unbound { name: format!("{loc}").into() }),
        }
    }

    /// Accesses a hash table.
    ///
    /// # Errors
    ///
    /// Returns an error if the location is not a hash table.
    pub fn hash(&self, loc: Loc) -> Result<&HashMap<String, Expr>, RuntimeError> {
        match self.entries.get(loc.0) {
            Some(StoreEntry::Hash(h)) => Ok(h),
            _ => Err(RuntimeError::WrongType { expected: "a hash table", found: format!("{loc}") }),
        }
    }

    /// Mutably accesses a hash table.
    ///
    /// # Errors
    ///
    /// Returns an error if the location is not a hash table.
    pub fn hash_mut(&mut self, loc: Loc) -> Result<&mut HashMap<String, Expr>, RuntimeError> {
        match self.entries.get_mut(loc.0) {
            Some(StoreEntry::Hash(h)) => Ok(h),
            _ => Err(RuntimeError::WrongType { expected: "a hash table", found: format!("{loc}") }),
        }
    }

    /// Number of allocated locations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been allocated.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_error_until_written() {
        let mut s = Store::new();
        let l = s.alloc_cell(Symbol::new("g#m1"));
        let err = s.read_cell(l).unwrap_err();
        assert_eq!(err.to_string(), RuntimeError::UndefinedRead { name: "g".into() }.to_string());
        s.write_cell(l, Expr::int(5)).unwrap();
        assert_eq!(s.read_cell(l).unwrap(), &Expr::int(5));
    }

    #[test]
    fn hash_entries_are_distinct_from_cells() {
        let mut s = Store::new();
        let h = s.alloc_hash();
        let c = s.alloc_cell(Symbol::new("c"));
        assert!(s.hash(h).is_ok());
        assert!(s.hash(c).is_err());
        assert!(s.read_cell(h).is_err());
        s.hash_mut(h).unwrap().insert("k".into(), Expr::int(1));
        assert_eq!(s.hash(h).unwrap().len(), 1);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }
}
