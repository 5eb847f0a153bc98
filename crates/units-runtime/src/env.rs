//! Run-time environments.
//!
//! A persistent association structure: extending an environment creates a
//! new frame sharing the parent, so closures capture their environment in
//! O(1). Bindings are either direct values (λ-parameters, `let`) or
//! [`CellRef`]s (`letrec`/unit definitions and unit imports — the paper's
//! "first-class reference cells that are externally created and passed to
//! the function when the unit is invoked").
//!
//! Frames hold no names. `units-compile`'s resolver fixes every bound
//! variable's `(depth, slot)` from the binder structure before either
//! compiled backend runs, and each frame stores its bindings in the
//! resolver's slot order, so a variable is read by walking `depth` frames
//! and indexing `slot` ([`Env::lookup_at`]).
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
/// binding — an address past the environment — is
/// [`RuntimeError::Unbound`]. Shared by the tree-walker and the bytecode
/// VM so both report the same error classes.
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

/// Frame storage, in the resolver's slot order. Most frames bind exactly
/// one variable — λ-parameters in curried and accumulator-style code — so
/// that case lives inline in the frame and skips the vector's heap block;
/// both backends' call paths build it through [`Env::extend1`].
#[derive(Debug)]
enum Bindings {
    One([Binding; 1]),
    Many(Vec<Binding>),
}

impl std::ops::Deref for Bindings {
    type Target = [Binding];

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
            Bindings::One([binding]) => garbage.binding(binding),
            Bindings::Many(bindings) => {
                for binding in bindings {
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
        if self.parent.owns_frame() || self.bindings.iter().any(Binding::owns_node) {
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

    /// A new environment with one extra frame of bindings, in slot order.
    pub fn extend(&self, bindings: Vec<Binding>) -> Env {
        units_trace::count("runtime/frames", 1);
        Env(Some(Rc::new(Frame { bindings: Bindings::Many(bindings), parent: self.clone() })))
    }

    /// A new environment with a single-binding frame, stored inline — the
    /// unary λ application case, with no vector allocation.
    pub fn extend1(&self, binding: Binding) -> Env {
        units_trace::count("runtime/frames", 1);
        Env(Some(Rc::new(Frame { bindings: Bindings::One([binding]), parent: self.clone() })))
    }

    /// The binding at a lexical address: walk `addr.depth` frames
    /// outward, then index `addr.slot`. `None` when the address points
    /// past the last slot of its frame or past the outermost frame.
    pub fn lookup_at(&self, addr: LexAddr) -> Option<&Binding> {
        let mut frame = self.0.as_deref()?;
        for _ in 0..addr.depth {
            frame = frame.parent.0.as_deref()?;
        }
        frame.bindings.get(addr.slot as usize)
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

    /// The binding at `slot` of the innermost frame, if any — the VM's
    /// frame display reads deep addresses through this, and `InitCell`
    /// writes `letrec` definition results.
    pub(crate) fn top_binding(&self, slot: usize) -> Option<&Binding> {
        self.0.as_deref()?.bindings.get(slot)
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

    fn at(depth: u32, slot: u32) -> LexAddr {
        LexAddr { depth, slot }
    }

    fn val(env: &Env, addr: LexAddr) -> Option<Value> {
        match env.lookup_at(addr)? {
            Binding::Val(v) => Some(v.clone()),
            Binding::Cell(c) => c.borrow().clone(),
        }
    }

    #[test]
    fn cells_are_shared_between_environments() {
        let mut machine = Machine::new();
        let cell = machine.cell(Some(Value::Int(10)));
        let a = Env::new().extend(vec![Binding::Cell(cell.clone())]);
        let b = a.extend1(Binding::Val(Value::Void));
        *cell.borrow_mut() = Some(Value::Int(99));
        assert!(matches!(val(&a, at(0, 0)), Some(Value::Int(99))));
        assert!(matches!(val(&b, at(1, 0)), Some(Value::Int(99))));
    }

    /// Direct indexing; an address past the environment falls back to
    /// `None`, which readers report as unbound.
    #[test]
    fn lookup_at_indexes_directly_and_falls_back() {
        let base =
            Env::new().extend(vec![Binding::Val(Value::Int(1)), Binding::Val(Value::Int(2))]);
        let inner = base.extend1(Binding::Val(Value::Int(3)));
        assert!(matches!(val(&inner, at(0, 0)), Some(Value::Int(3))));
        assert!(matches!(val(&inner, at(1, 0)), Some(Value::Int(1))));
        assert!(matches!(val(&inner, at(1, 1)), Some(Value::Int(2))));
        // Past the last slot of a frame, and past the outermost frame.
        assert!(inner.lookup_at(at(0, 1)).is_none());
        assert!(inner.lookup_at(at(1, 2)).is_none());
        assert!(inner.lookup_at(at(2, 0)).is_none());
        assert!(Env::new().lookup_at(at(0, 0)).is_none());
    }

    #[test]
    fn depth_counts_frames() {
        let e = Env::new().extend(vec![]).extend(vec![]);
        assert_eq!(e.depth(), 2);
        assert_eq!(Env::new().depth(), 0);
    }
}
