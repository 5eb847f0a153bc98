//! Observations: a common, comparable view of results from the two
//! backends.
//!
//! The cells backend yields [`units_runtime::Value`]s; the substitution
//! reducer yields value [`Expr`]s. An [`Observation`] projects both onto
//! the observable (first-order) fragment so the differential test suite
//! can assert that the two semantics agree — the executable version of
//! the paper's claim that the Fig. 12 compilation implements the Fig. 11
//! rules.
//!
//! With the `trace` feature, [`diagnose_divergence`] replays a program on
//! both backends with event capture on and names the exact reduction step
//! at which their primitive-call streams part ways.

use std::fmt;

use units_kernel::{Expr, Lit, Ports};
use units_runtime::Value;

/// The observable part of a result value.
///
/// Equality is *shape* equality on the opaque fragment: two opaque
/// observations with the same shape compare equal even when their
/// `exports` details differ. The detail exists so mismatch reports on
/// higher-order results say *which* unit came back, not just "a unit".
#[derive(Debug, Clone)]
pub enum Observation {
    /// An integer result.
    Int(i64),
    /// A boolean result.
    Bool(bool),
    /// A string result.
    Str(String),
    /// The void result.
    Void,
    /// A tuple of observations.
    Tuple(Vec<Observation>),
    /// A datatype value: type name, variant index, payload.
    Variant(String, usize, Box<Observation>),
    /// A higher-order or stateful result, summarized by its shape
    /// ("procedure", "unit", "hash", …). For units, `exports` lists the
    /// value-export names (sorted); equality ignores it.
    Opaque {
        /// The value's shape.
        shape: &'static str,
        /// For units, the sorted value-export names; empty otherwise.
        exports: Vec<String>,
    },
}

impl Observation {
    /// An opaque observation with no detail.
    pub fn opaque(shape: &'static str) -> Observation {
        Observation::Opaque { shape, exports: Vec::new() }
    }
}

impl PartialEq for Observation {
    fn eq(&self, other: &Observation) -> bool {
        match (self, other) {
            (Observation::Int(a), Observation::Int(b)) => a == b,
            (Observation::Bool(a), Observation::Bool(b)) => a == b,
            (Observation::Str(a), Observation::Str(b)) => a == b,
            (Observation::Void, Observation::Void) => true,
            (Observation::Tuple(a), Observation::Tuple(b)) => a == b,
            (Observation::Variant(ta, ia, pa), Observation::Variant(tb, ib, pb)) => {
                ta == tb && ia == ib && pa == pb
            }
            // Shape-only: export details are informational.
            (
                Observation::Opaque { shape: a, .. },
                Observation::Opaque { shape: b, .. },
            ) => a == b,
            _ => false,
        }
    }
}

impl Eq for Observation {}

impl fmt::Display for Observation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Observation::Int(n) => write!(f, "{n}"),
            Observation::Bool(b) => write!(f, "{b}"),
            Observation::Str(s) => write!(f, "{s:?}"),
            Observation::Void => f.write_str("void"),
            Observation::Tuple(items) => {
                f.write_str("⟨")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("⟩")
            }
            Observation::Variant(ty, tag, payload) => write!(f, "({ty}·{tag} {payload})"),
            Observation::Opaque { shape, exports } => {
                if exports.is_empty() {
                    write!(f, "#⟨{shape}⟩")
                } else {
                    write!(f, "#⟨{shape} exports: {}⟩", exports.join(" "))
                }
            }
        }
    }
}

/// The sorted value-export names of a unit interface.
fn export_names(exports: &Ports) -> Vec<String> {
    let mut names: Vec<String> =
        exports.vals.iter().map(|p| p.name.as_str().to_string()).collect();
    names.sort_unstable();
    names
}

/// Projects a runtime value (cells backend) onto its observation.
pub fn observe_value(value: &Value) -> Observation {
    match value {
        Value::Int(n) => Observation::Int(*n),
        Value::Bool(b) => Observation::Bool(*b),
        Value::Str(s) => Observation::Str(s.to_string()),
        Value::Void => Observation::Void,
        Value::Tuple(items) => Observation::Tuple(items.iter().map(observe_value).collect()),
        Value::Variant(v) => Observation::Variant(
            v.ty_name.as_str().to_string(),
            v.tag,
            Box::new(observe_value(&v.payload)),
        ),
        Value::Closure(_) => Observation::opaque("procedure"),
        Value::Prim(_) => Observation::opaque("procedure"),
        Value::Data(_) => Observation::opaque("procedure"),
        Value::Hash(_) => Observation::opaque("hash"),
        Value::Unit(u) => {
            Observation::Opaque { shape: "unit", exports: export_names(u.exports()) }
        }
    }
}

/// Projects a value expression (substitution reducer) onto its
/// observation.
///
/// # Panics
///
/// Panics when given a non-value expression — callers observe only the
/// results of complete reductions.
pub fn observe_expr(expr: &Expr) -> Observation {
    assert!(expr.is_value(), "observe_expr requires a value, got a non-value");
    match expr {
        Expr::Lit(Lit::Int(n)) => Observation::Int(*n),
        Expr::Lit(Lit::Bool(b)) => Observation::Bool(*b),
        Expr::Lit(Lit::Str(s)) => Observation::Str(s.to_string()),
        Expr::Lit(Lit::Void) => Observation::Void,
        Expr::Tuple(items) => Observation::Tuple(items.iter().map(observe_expr).collect()),
        Expr::Variant(v) => Observation::Variant(
            v.ty_name.as_str().to_string(),
            v.tag,
            Box::new(observe_expr(&v.payload)),
        ),
        Expr::Lambda(_) | Expr::Prim(..) | Expr::Data(_) => Observation::opaque("procedure"),
        Expr::Loc(_) => Observation::opaque("hash"),
        Expr::Unit(u) => {
            Observation::Opaque { shape: "unit", exports: export_names(&u.exports) }
        }
        _ => unreachable!("is_value covers all value forms"),
    }
}

/// Divergence diagnosis: replay a program on both semantics with event
/// capture on and pinpoint the first primitive call where they disagree.
#[cfg(feature = "trace")]
mod divergence {
    use std::fmt;

    use units_trace::Event;

    use crate::outcome::Backend;

    /// Where (and whether) the two backends' primitive-call streams
    /// diverge, as reported by [`diagnose_divergence`].
    #[derive(Debug, Clone)]
    pub struct DivergenceReport {
        /// The compiled backend's outcome, rendered.
        pub compiled_outcome: String,
        /// The reducer's outcome, rendered.
        pub reduced_outcome: String,
        /// Total primitive calls each backend made.
        pub prim_calls: (usize, usize),
        /// Index of the first differing primitive call, if any.
        pub diverging_call: Option<usize>,
        /// The Fig. 11 step during which the diverging primitive fired
        /// (1-based, from the reducer's event stream).
        pub diverging_step: Option<u64>,
        /// The compiled backend's rendering of the diverging call.
        pub compiled_call: Option<String>,
        /// The reducer's rendering of the diverging call.
        pub reduced_call: Option<String>,
    }

    impl fmt::Display for DivergenceReport {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            writeln!(f, "divergence report:")?;
            writeln!(f, "  compiled outcome: {}", self.compiled_outcome)?;
            writeln!(f, "  reduced  outcome: {}", self.reduced_outcome)?;
            match self.diverging_call {
                Some(i) => {
                    write!(f, "  first diverging prim call: #{}", i + 1)?;
                    if let Some(step) = self.diverging_step {
                        write!(f, " (during Fig. 11 step {step})")?;
                    }
                    writeln!(f)?;
                    writeln!(
                        f,
                        "    compiled: {}",
                        self.compiled_call.as_deref().unwrap_or("⟨stream ended⟩")
                    )?;
                    write!(
                        f,
                        "    reduced:  {}",
                        self.reduced_call.as_deref().unwrap_or("⟨stream ended⟩")
                    )
                }
                None => write!(
                    f,
                    "  prim call streams agree ({} calls each); \
                     divergence is outside the primitives",
                    self.prim_calls.0
                ),
            }
        }
    }

    fn render_outcome(result: &Result<crate::Outcome, crate::Error>) -> String {
        match result {
            Ok(o) => format!("{} (output: {:?})", o.value, o.output),
            Err(e) => format!("error: {e}"),
        }
    }

    /// Payloads of the `"prim"` events, in order. Both backends emit them
    /// through [`units_runtime::render_prim_call`], so the strings are
    /// directly comparable.
    fn prim_payloads(events: &[Event]) -> Vec<&str> {
        events
            .iter()
            .filter(|e| e.kind == "prim")
            .map(|e| e.payload.as_str())
            .collect()
    }

    /// The 1-based Fig. 11 step during which the `idx`-th prim call (0-based)
    /// fired. Prim events are emitted while a step is being contracted,
    /// *before* that step's own `step/…` event, so the enclosing step is
    /// one past the number of step events already seen.
    fn step_of_prim(events: &[Event], idx: usize) -> Option<u64> {
        let mut prims = 0usize;
        let mut steps = 0u64;
        for e in events {
            if e.kind.starts_with("step/") {
                steps += 1;
            } else if e.kind == "prim" {
                if prims == idx {
                    return Some(steps + 1);
                }
                prims += 1;
            }
        }
        // The stream ended early: the missing call would have been in the
        // step after the last one recorded.
        Some(steps + 1)
    }

    /// Runs a program on both semantics — production (`against`, the
    /// compiled tree-walker or the bytecode VM) vs the Fig. 11
    /// reference reducer — with event capture on and reports where
    /// their primitive-call streams first disagree. `run` is whatever
    /// executes the program on a given backend — typically
    /// [`Loaded::run_on`] closed over a loaded artifact.
    ///
    /// The streams are comparable because the backends render every
    /// primitive application with the same
    /// [`units_runtime::render_prim_call`] ground formatter. When the
    /// streams agree but the outcomes differ, the divergence is outside
    /// the primitives (e.g. in a final higher-order value) and the report
    /// says so.
    ///
    /// [`Loaded::run_on`]: crate::Loaded::run_on
    pub fn diagnose_divergence_with<F>(against: Backend, run: F) -> DivergenceReport
    where
        F: Fn(Backend) -> Result<crate::Outcome, crate::Error>,
    {
        diagnose_divergence_between(against, Backend::Reducer, run)
    }

    /// [`diagnose_divergence_with`] generalized to any backend pair:
    /// `left` plays the "compiled" role of the report, `right` the
    /// "reduced" role (the field names keep their historical spelling —
    /// read them as left/right). Pass `right = Backend::Reducer` to get
    /// exactly [`diagnose_divergence_with`]; pass
    /// `(Compiled, Bytecode)` to compare the two production backends
    /// against each other. The Fig. 11 step attribution comes from the
    /// right-hand stream, so it names reducer steps only when the right
    /// backend is the reducer — for other pairs `diverging_step` is the
    /// step count of whatever `step/…` events the right backend emitted
    /// (none for the compiled backends, making it step 1).
    pub fn diagnose_divergence_between<F>(
        left: Backend,
        right: Backend,
        run: F,
    ) -> DivergenceReport
    where
        F: Fn(Backend) -> Result<crate::Outcome, crate::Error>,
    {
        let (compiled, compiled_events) = units_trace::capture(|| run(left));
        let (reduced, reduced_events) = units_trace::capture(|| run(right));
        let cp = prim_payloads(&compiled_events);
        let rp = prim_payloads(&reduced_events);
        let diverging_call = cp
            .iter()
            .zip(rp.iter())
            .position(|(a, b)| a != b)
            .or_else(|| (cp.len() != rp.len()).then(|| cp.len().min(rp.len())));
        DivergenceReport {
            compiled_outcome: render_outcome(&compiled),
            reduced_outcome: render_outcome(&reduced),
            prim_calls: (cp.len(), rp.len()),
            diverging_call,
            diverging_step: diverging_call
                .and_then(|i| step_of_prim(&reduced_events, i)),
            compiled_call: diverging_call.and_then(|i| cp.get(i).map(|s| s.to_string())),
            reduced_call: diverging_call.and_then(|i| rp.get(i).map(|s| s.to_string())),
        }
    }

    /// [`diagnose_divergence_with`] over a loaded artifact: compares
    /// the compiled tree-walker against the Fig. 11 reference reducer
    /// under the handle's session limits.
    ///
    /// [`Loaded`]: crate::Loaded
    pub fn diagnose_divergence(loaded: &crate::Loaded) -> DivergenceReport {
        diagnose_divergence_with(Backend::Compiled, |backend| loaded.run_on(backend))
    }
}

#[cfg(feature = "trace")]
pub use divergence::{
    diagnose_divergence, diagnose_divergence_between, diagnose_divergence_with, DivergenceReport,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_projections_agree_on_ground_values() {
        assert_eq!(observe_value(&Value::Int(3)), observe_expr(&Expr::int(3)));
        assert_eq!(observe_value(&Value::str("x")), observe_expr(&Expr::str("x")));
        assert_eq!(observe_value(&Value::Void), observe_expr(&Expr::void()));
        assert_eq!(
            observe_value(&Value::tuple(vec![Value::Bool(true)])),
            observe_expr(&Expr::Tuple(vec![Expr::bool(true)]))
        );
    }

    #[test]
    fn higher_order_results_are_opaque_by_shape() {
        let lam = Expr::lambda(vec![], Expr::void());
        assert_eq!(observe_expr(&lam), Observation::opaque("procedure"));
    }

    #[test]
    fn opaque_equality_ignores_export_detail() {
        let a = Observation::Opaque { shape: "unit", exports: vec!["x".into()] };
        let b = Observation::Opaque { shape: "unit", exports: vec!["y".into(), "z".into()] };
        assert_eq!(a, b);
        assert_ne!(a, Observation::opaque("procedure"));
        assert_eq!(a.to_string(), "#⟨unit exports: x⟩");
        assert_eq!(Observation::opaque("hash").to_string(), "#⟨hash⟩");
    }

    #[test]
    #[should_panic(expected = "requires a value")]
    fn non_values_panic() {
        let _ = observe_expr(&Expr::var("x"));
    }

    #[test]
    fn display_is_readable() {
        let o = Observation::Tuple(vec![
            Observation::Int(1),
            Observation::Variant("db".into(), 0, Box::new(Observation::Void)),
        ]);
        assert_eq!(o.to_string(), "⟨1, (db·0 void)⟩");
    }
}
