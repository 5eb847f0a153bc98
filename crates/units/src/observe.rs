//! Observations: a common, comparable view of results from the two
//! backends.
//!
//! The cells backend yields [`units_runtime::Value`]s; the substitution
//! reducer yields value [`Expr`]s. An [`Observation`] projects both onto
//! the observable (first-order) fragment so the differential test suite
//! can assert that the two semantics agree — the executable version of
//! the paper's claim that the Fig. 12 compilation implements the Fig. 11
//! rules.

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
            (Observation::Opaque { shape: a, .. }, Observation::Opaque { shape: b, .. }) => a == b,
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
    let mut names: Vec<String> = exports.vals.iter().map(|p| p.name.as_str().to_string()).collect();
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
        Value::Unit(u) => Observation::Opaque { shape: "unit", exports: export_names(u.exports()) },
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
        Expr::Unit(u) => Observation::Opaque { shape: "unit", exports: export_names(&u.exports) },
        _ => unreachable!("is_value covers all value forms"),
    }
}

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
