//! Link plans: the static half of a `compound`'s wiring (§4.1.6).
//!
//! "A compound unit is compiled into a closure that propagates import and
//! export cells to the constituent units, creating new cells … for
//! variables … hidden by the compound unit." Which cell reaches which
//! port is fixed by the compound's syntax — its imports, each clause's
//! `with`/`provides` ports and rename pairs, and its exports — so it is
//! worked out once per `compound` node, as a [`LinkPlan`], and every
//! invocation of the node (on either compiled backend) wires from it.
//!
//! The plan numbers the compound's *linking namespace*: the compound's
//! value imports take slots `0..imports`, then each distinct outer name a
//! clause provides takes the next slot. A `with` port resolves to the
//! import of its outer name if there is one, else to the provided name;
//! an outer name provided twice (which the checkers reject) shares one
//! slot. Types are erased at run time, so only value ports are planned.

use std::collections::HashMap;

use crate::symbol::Symbol;
use crate::term::CompoundExpr;

/// Where each value port of a `compound` lives in its linking namespace.
///
/// Built by [`CompoundExpr::plan`] on first use and cached on the node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkPlan {
    slots: usize,
    imports: usize,
    clauses: Vec<ClausePlan>,
    exports: Vec<Option<usize>>,
}

/// One link clause's value ports in the linking namespace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClausePlan {
    with: Vec<usize>,
    provides: Vec<usize>,
    unsatisfied: Option<Symbol>,
}

impl LinkPlan {
    /// Plans `compound`'s value ports.
    pub(crate) fn build(compound: &CompoundExpr) -> LinkPlan {
        let imports = compound.imports.vals.len();
        let mut import_slot: HashMap<&Symbol, usize> = HashMap::with_capacity(imports);
        for (slot, port) in compound.imports.vals.iter().enumerate() {
            import_slot.entry(&port.name).or_insert(slot);
        }
        let mut provided_slot: HashMap<&Symbol, usize> = HashMap::new();
        let mut slots = imports;
        let provides: Vec<Vec<usize>> = compound
            .links
            .iter()
            .map(|link| {
                link.provides
                    .vals
                    .iter()
                    .map(|port| {
                        let outer = link.renames.outer_export_val(&port.name);
                        *provided_slot.entry(outer).or_insert_with(|| {
                            slots += 1;
                            slots - 1
                        })
                    })
                    .collect()
            })
            .collect();
        let clauses = compound
            .links
            .iter()
            .zip(provides)
            .map(|(link, provides)| {
                let mut with = Vec::with_capacity(link.with.vals.len());
                let mut unsatisfied = None;
                for port in &link.with.vals {
                    let outer = link.renames.outer_import_val(&port.name);
                    match import_slot.get(outer).or_else(|| provided_slot.get(outer)) {
                        Some(&slot) => with.push(slot),
                        None => {
                            unsatisfied = Some(outer.clone());
                            break;
                        }
                    }
                }
                ClausePlan { with, provides, unsatisfied }
            })
            .collect();
        let exports = compound
            .exports
            .vals
            .iter()
            .map(|port| provided_slot.get(&port.name).copied())
            .collect();
        LinkPlan { slots, imports, clauses, exports }
    }

    /// The size of the linking namespace: the compound's value imports,
    /// then one slot per distinct provided outer name.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// How many leading slots hold the compound's value imports.
    pub fn imports(&self) -> usize {
        self.imports
    }

    /// One plan per link clause, in initialization order.
    pub fn clauses(&self) -> &[ClausePlan] {
        &self.clauses
    }

    /// The slot of each compound value export, in export order; `None`
    /// when no clause provides the name.
    pub fn exports(&self) -> &[Option<usize>] {
        &self.exports
    }
}

impl ClausePlan {
    /// The slot of each `with` value port, in the clause's order. When
    /// [`ClausePlan::unsatisfied`] is set this stops short of that port.
    pub fn with(&self) -> &[usize] {
        &self.with
    }

    /// The slot of each `provides` value port, in the clause's order.
    pub fn provides(&self) -> &[usize] {
        &self.provides
    }

    /// The outer name of the clause's first `with` port that neither a
    /// compound import nor any clause's provides supplies.
    pub fn unsatisfied(&self) -> Option<&Symbol> {
        self.unsatisfied.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sig::Ports;
    use crate::term::{Expr, LinkClause, LinkRenames};

    fn names(ns: &[&str]) -> Ports {
        Ports::untyped(Vec::<&str>::new(), ns.iter().copied())
    }

    fn pairs(ps: &[(&str, &str)]) -> Vec<(Symbol, Symbol)> {
        ps.iter().map(|(i, o)| (Symbol::new(i), Symbol::new(o))).collect()
    }

    #[test]
    fn imports_come_first_then_one_slot_per_provided_name() {
        // (compound (import x) (export b)
        //   (link (A (with (as y b)) (provides a))
        //         (B (with x a) (provides (as c b)))))
        let c = CompoundExpr::new(
            names(&["x"]),
            names(&["b"]),
            vec![
                LinkClause {
                    expr: Expr::var("A"),
                    with: names(&["y"]),
                    provides: names(&["a"]),
                    renames: LinkRenames {
                        import_vals: pairs(&[("y", "b")]),
                        ..Default::default()
                    },
                },
                LinkClause {
                    expr: Expr::var("B"),
                    with: names(&["x", "a"]),
                    provides: names(&["c"]),
                    renames: LinkRenames {
                        export_vals: pairs(&[("c", "b")]),
                        ..Default::default()
                    },
                },
            ],
        );
        let plan = c.plan();
        assert_eq!((plan.slots(), plan.imports()), (3, 1));
        assert_eq!(plan.clauses()[0].with(), [2]);
        assert_eq!(plan.clauses()[0].provides(), [1]);
        assert_eq!(plan.clauses()[1].with(), [0, 1]);
        assert_eq!(plan.clauses()[1].provides(), [2]);
        assert_eq!(plan.exports(), [Some(2)]);
        assert!(plan.clauses().iter().all(|c| c.unsatisfied().is_none()));
    }

    #[test]
    fn an_unsupplied_with_port_is_recorded_by_its_outer_name() {
        let c = CompoundExpr::new(
            Ports::new(),
            names(&["ghost"]),
            vec![LinkClause {
                expr: Expr::var("A"),
                with: names(&["p", "q"]),
                provides: names(&["p"]),
                renames: LinkRenames {
                    import_vals: pairs(&[("q", "nowhere")]),
                    ..Default::default()
                },
            }],
        );
        let plan = c.plan();
        assert_eq!(plan.clauses()[0].with(), [0]);
        assert_eq!(plan.clauses()[0].unsatisfied().map(Symbol::as_str), Some("nowhere"));
        assert_eq!(plan.exports(), [None]);
    }

    #[test]
    fn the_plan_is_built_once_and_ignored_by_equality() {
        let c = CompoundExpr::new(names(&["x"]), Ports::new(), vec![]);
        assert!(c.plan_if_built().is_none());
        let first = c.plan().clone();
        assert!(std::sync::Arc::ptr_eq(&first, c.plan()));
        assert_eq!(c, CompoundExpr::new(names(&["x"]), Ports::new(), vec![]));
        assert!(std::sync::Arc::ptr_eq(&first, c.clone().plan()));
    }
}
