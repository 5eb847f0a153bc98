//! Run-time environments.
//!
//! A persistent association structure: extending an environment creates a
//! new frame sharing the parent, so closures capture their environment in
//! O(1). Bindings are either direct values (λ-parameters, `let`) or
//! [`CellRef`]s (`letrec`/unit definitions and unit imports — the paper's
//! "first-class reference cells that are externally created and passed to
//! the function when the unit is invoked").
//!
//! A frame that is the last owner of its parent or of a binding's node
//! hands them to the [`Garbage`] worklist when it drops, so a long chain
//! of frames and closures frees in bounded stack.

use std::mem;
use std::rc::Rc;

use units_kernel::{LexAddr, Symbol};

use crate::error::RuntimeError;
use crate::value::{CellRef, Garbage, Value};

/// Reads a variable's value out of a binding lookup result: direct
/// bindings clone, cells dereference (an empty cell is the
/// MzScheme-strictness [`RuntimeError::UndefinedRead`]), and a missing
/// binding is [`RuntimeError::Unbound`]. Shared by the tree-walker and
/// the bytecode VM so both report the same error classes.
///
/// An empty cell is reported under the name's [`Symbol::base`]: a
/// flattened compound reads a hidden link name through a generated
/// `x#mN`, and source syntax cannot spell `#`.
pub fn read_binding(binding: Option<&Binding>, name: &Symbol) -> Result<Value, RuntimeError> {
    match binding {
        Some(Binding::Val(v)) => Ok(v.clone()),
        Some(Binding::Cell(c)) => match &*c.borrow() {
            Some(v) => Ok(v.clone()),
            None => Err(RuntimeError::UndefinedRead { name: Symbol::new(name.base()) }),
        },
        None => Err(RuntimeError::Unbound { name: name.clone() }),
    }
}

/// A binding: immediate or through a cell.
#[derive(Debug, Clone)]
pub enum Binding {
    /// A direct, immutable binding.
    Val(Value),
    /// A mutable definition/import cell.
    Cell(CellRef),
}

impl Binding {
    /// Whether dropping the binding would free a node: a value's, or the
    /// cell itself.
    fn owns_node(&self) -> bool {
        match self {
            Binding::Val(v) => v.owns_node(),
            Binding::Cell(c) => Rc::strong_count(c) == 1,
        }
    }
}

/// Frame storage. Most frames bind exactly one name — λ-parameters in
/// curried and accumulator-style code — so that case lives inline in the
/// frame and skips the vector's heap block; both backends' call paths
/// build it through [`Env::extend1`].
#[derive(Debug)]
enum Bindings {
    One([(Symbol, Binding); 1]),
    Many(Vec<(Symbol, Binding)>),
}

impl std::ops::Deref for Bindings {
    type Target = [(Symbol, Binding)];

    fn deref(&self) -> &Self::Target {
        match self {
            Bindings::One(b) => b,
            Bindings::Many(v) => v,
        }
    }
}

#[derive(Debug)]
struct Frame {
    bindings: Bindings,
    parent: Env,
}

impl Frame {
    /// Moves the bindings and the parent into `garbage`, leaving the
    /// frame empty.
    fn give_up(&mut self, garbage: &mut Garbage) {
        match mem::replace(&mut self.bindings, Bindings::Many(Vec::new())) {
            Bindings::One([(_, binding)]) => garbage.binding(binding),
            Bindings::Many(bindings) => {
                for (_, binding) in bindings {
                    garbage.binding(binding);
                }
            }
        }
        garbage.env(mem::take(&mut self.parent));
    }
}

impl Drop for Frame {
    fn drop(&mut self) {
        // The common case — a call frame over a shared parent binding
        // scalars — frees no node below it, so it takes no worklist.
        if self.parent.owns_frame() || self.bindings.iter().any(|(_, b)| b.owns_node()) {
            Garbage::free(|garbage| self.give_up(garbage));
        }
    }
}

/// A persistent run-time environment.
#[derive(Debug, Clone, Default)]
pub struct Env(Option<Rc<Frame>>);

impl Env {
    /// The empty environment.
    pub fn new() -> Env {
        Env(None)
    }

    /// A new environment with one extra frame of bindings.
    pub fn extend(&self, bindings: Vec<(Symbol, Binding)>) -> Env {
        units_trace::count("runtime/frames", 1);
        Env(Some(Rc::new(Frame { bindings: Bindings::Many(bindings), parent: self.clone() })))
    }

    /// A new environment with a single-binding frame, stored inline — the
    /// unary λ application case, with no vector allocation.
    pub fn extend1(&self, name: Symbol, binding: Binding) -> Env {
        units_trace::count("runtime/frames", 1);
        Env(Some(Rc::new(Frame {
            bindings: Bindings::One([(name, binding)]),
            parent: self.clone(),
        })))
    }

    /// Looks a name up, innermost frame first.
    pub fn lookup(&self, name: &Symbol) -> Option<&Binding> {
        let mut frame = self.0.as_deref();
        while let Some(f) = frame {
            // Within a frame, later bindings shadow earlier ones.
            if let Some((_, b)) = f.bindings.iter().rev().find(|(n, _)| n == name) {
                return Some(b);
            }
            frame = f.parent.0.as_deref();
        }
        None
    }

    /// Looks a resolved variable up by its lexical address: walk
    /// `addr.depth` frames outward, index `addr.slot` directly — no
    /// per-frame scanning. The slot's recorded name is verified with a
    /// single interned-symbol compare; on any mismatch (an address
    /// computed against a different frame discipline than the one that
    /// built this environment) the lookup degrades to the by-name scan,
    /// so a stale address can cost time but never return a wrong binding.
    pub fn lookup_at(&self, name: &Symbol, addr: LexAddr) -> Option<&Binding> {
        let mut frame = self.0.as_deref();
        for _ in 0..addr.depth {
            match frame {
                Some(f) => frame = f.parent.0.as_deref(),
                None => {
                    units_trace::count("runtime/lookup_at/miss", 1);
                    return self.lookup(name);
                }
            }
        }
        match frame.and_then(|f| f.bindings.get(addr.slot as usize)) {
            Some((n, b)) if n == name => {
                units_trace::count("runtime/lookup_at/hit", 1);
                Some(b)
            }
            _ => {
                units_trace::count("runtime/lookup_at/miss", 1);
                self.lookup(name)
            }
        }
    }

    /// The environment one frame out (the empty environment when there is
    /// no frame to pop). The VM's `PopFrame` uses this to rewind the
    /// environment register after a balanced `let`/`letrec` region.
    pub(crate) fn parent(&self) -> Env {
        match self.0.as_deref() {
            Some(f) => f.parent.clone(),
            None => Env::new(),
        }
    }

    /// Whether the environment has no frames at all.
    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    /// The verified binding at `slot` of the innermost frame: the slot's
    /// recorded name must match, mirroring the verify half of
    /// [`Env::lookup_at`]. The VM's frame display resolves deep addresses
    /// through this; on `None` the caller degrades to the by-name scan,
    /// preserving the stale-address contract.
    pub(crate) fn slot_binding(&self, slot: usize, name: &Symbol) -> Option<&Binding> {
        match self.0.as_deref()?.bindings.get(slot) {
            Some((n, b)) if n == name => {
                units_trace::count("runtime/lookup_at/hit", 1);
                Some(b)
            }
            _ => None,
        }
    }

    /// The binding at `slot` of the innermost frame, if any — the VM's
    /// `InitCell` writes `letrec` definition results through this without
    /// re-scanning by name.
    pub(crate) fn top_binding(&self, slot: usize) -> Option<&Binding> {
        self.0.as_deref().and_then(|f| f.bindings.get(slot)).map(|(_, b)| b)
    }

    /// Whether this environment holds the last reference to its
    /// innermost frame, so dropping it would free the frame.
    pub(crate) fn owns_frame(&self) -> bool {
        matches!(&self.0, Some(frame) if Rc::strong_count(frame) == 1)
    }

    /// Frees the innermost frame if this was its last reference, moving
    /// its bindings and parent into `garbage` first.
    pub(crate) fn release(self, garbage: &mut Garbage) {
        if let Some(Ok(mut frame)) = self.0.map(Rc::try_unwrap) {
            frame.give_up(garbage);
        }
    }

    /// Number of frames (for diagnostics and tests).
    pub fn depth(&self) -> usize {
        let mut n = 0;
        let mut frame = self.0.as_deref();
        while let Some(f) = frame {
            n += 1;
            frame = f.parent.0.as_deref();
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Machine;

    fn val(env: &Env, name: &str) -> Option<Value> {
        match env.lookup(&Symbol::new(name))? {
            Binding::Val(v) => Some(v.clone()),
            Binding::Cell(c) => c.borrow().clone(),
        }
    }

    #[test]
    fn extension_shadows_lexically() {
        let base = Env::new().extend(vec![("x".into(), Binding::Val(Value::Int(1)))]);
        let inner = base.extend(vec![("x".into(), Binding::Val(Value::Int(2)))]);
        assert!(matches!(val(&inner, "x"), Some(Value::Int(2))));
        assert!(matches!(val(&base, "x"), Some(Value::Int(1))));
        assert!(val(&base, "y").is_none());
    }

    #[test]
    fn same_frame_shadowing_prefers_later_bindings() {
        let env = Env::new().extend(vec![
            ("x".into(), Binding::Val(Value::Int(1))),
            ("x".into(), Binding::Val(Value::Int(2))),
        ]);
        assert!(matches!(val(&env, "x"), Some(Value::Int(2))));
    }

    #[test]
    fn cells_are_shared_between_environments() {
        let mut machine = Machine::new();
        let cell = machine.cell(Some(Value::Int(10)));
        let a = Env::new().extend(vec![("c".into(), Binding::Cell(cell.clone()))]);
        let b = a.extend(vec![("unrelated".into(), Binding::Val(Value::Void))]);
        *cell.borrow_mut() = Some(Value::Int(99));
        assert!(matches!(val(&a, "c"), Some(Value::Int(99))));
        assert!(matches!(val(&b, "c"), Some(Value::Int(99))));
    }

    #[test]
    fn lookup_at_indexes_directly_and_falls_back() {
        let base = Env::new().extend(vec![
            ("x".into(), Binding::Val(Value::Int(1))),
            ("y".into(), Binding::Val(Value::Int(2))),
        ]);
        let inner = base.extend(vec![("z".into(), Binding::Val(Value::Int(3)))]);
        let at = |d, s| LexAddr { depth: d, slot: s };
        assert!(matches!(
            inner.lookup_at(&"z".into(), at(0, 0)),
            Some(Binding::Val(Value::Int(3)))
        ));
        assert!(matches!(
            inner.lookup_at(&"y".into(), at(1, 1)),
            Some(Binding::Val(Value::Int(2)))
        ));
        // Out-of-range slot, wrong name at the slot, or excessive depth
        // all degrade to the by-name scan.
        assert!(matches!(
            inner.lookup_at(&"y".into(), at(0, 5)),
            Some(Binding::Val(Value::Int(2)))
        ));
        assert!(matches!(
            inner.lookup_at(&"x".into(), at(1, 1)),
            Some(Binding::Val(Value::Int(1)))
        ));
        assert!(matches!(
            inner.lookup_at(&"x".into(), at(7, 0)),
            Some(Binding::Val(Value::Int(1)))
        ));
        assert!(inner.lookup_at(&"w".into(), at(9, 9)).is_none());
    }

    #[test]
    fn depth_counts_frames() {
        let e = Env::new().extend(vec![]).extend(vec![]);
        assert_eq!(e.depth(), 2);
        assert_eq!(Env::new().depth(), 0);
    }
}
