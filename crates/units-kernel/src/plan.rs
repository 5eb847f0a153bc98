//! A `compound`'s linking namespace and its link plan (§4.1.2, §4.1.6).
//!
//! Figs. 10, 11, 15 and 19 and §4.1.6's cells read one linking graph,
//! which [`LinkPlan`] resolves once per node for values and types: every
//! [`Binder`] of each outer name in binding order (the compound's
//! imports, then each clause's `provides` through its rename pairs) and
//! the names bound twice. [`CompoundExpr::plan`] builds it for the first
//! reader (a checker, flattening or wiring) and caches it. *Statically* a
//! `with` port is supplied by an import, else by another clause's first
//! provide ([`LinkNames::supplier`]); *at run time* it is wired to the
//! first binder, its own clause's included. Only unchecked terms tell
//! them apart. Wiring lays out the value half alone ([`SlotLayout`]).

use std::collections::HashSet;
use std::sync::OnceLock;

use crate::sig::ValPort;
use crate::symbol::{Symbol, SymbolHash};
use crate::term::{CompoundExpr, LinkClause};

/// What binds an outer name; indices count the ports of the name's kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Binder {
    /// The compound's import at this index.
    Import(usize),
    /// `Provide(clause, port)`: a port of a link clause's `provides`.
    Provide(usize, usize),
}

/// One half, values or types, of a compound's linking namespace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkNames {
    /// Every binder with its outer name, sorted by the name's interner
    /// index, so a name's binders are adjacent and in binding order. A
    /// sorted slice holds a kept plan in less memory than a hash table.
    bound: Box<[(Symbol, Binder)]>,
    twice: Vec<Symbol>,
}

impl LinkNames {
    /// The namespace of `bound`, every binder in binding order.
    fn new(mut bound: Vec<(Symbol, Binder)>) -> LinkNames {
        let mut seen: HashSet<&Symbol, SymbolHash> = HashSet::default();
        let twice = bound.iter().filter(|(name, _)| !seen.insert(name));
        let twice = twice.map(|(name, _)| name.clone()).collect();
        bound.sort_by_key(|(name, _)| name.index()); // stable
        LinkNames { bound: bound.into_boxed_slice(), twice }
    }

    /// Every binder of `outer`, in binding order.
    pub(crate) fn binders(&self, outer: &Symbol) -> impl Iterator<Item = Binder> + '_ {
        let outer = outer.clone();
        let from = self.bound.partition_point(|(name, _)| name.index() < outer.index());
        self.bound[from..].iter().take_while(move |(name, _)| *name == outer).map(|&(_, b)| b)
    }

    /// Whether anything binds `outer`.
    pub(crate) fn is_bound(&self, outer: &Symbol) -> bool {
        self.binders(outer).next().is_some()
    }

    /// What statically supplies a `with` port of clause `clause` whose
    /// outer name is `outer`: a compound import, else the first provide
    /// of another clause.
    pub fn supplier(&self, outer: &Symbol, clause: usize) -> Option<Binder> {
        self.binders(outer).find(|b| !matches!(*b, Binder::Provide(other, _) if other == clause))
    }

    /// The first provide of `outer`, as `(clause, port)`: what a compound
    /// export of that name re-exports.
    pub fn provider(&self, outer: &Symbol) -> Option<(usize, usize)> {
        self.binders(outer).find_map(|b| match b {
            Binder::Provide(clause, port) => Some((clause, port)),
            Binder::Import(_) => None,
        })
    }

    /// The outer name of every binder after its name's first, in binding
    /// order: a name bound three times is listed twice.
    pub fn twice(&self) -> &[Symbol] {
        &self.twice
    }
}

/// A compound's linking namespace.
///
/// Built by [`CompoundExpr::plan`] on first use and cached on the node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkPlan {
    /// The value half of the linking namespace.
    pub vals: LinkNames,
    /// The type half of the linking namespace.
    pub tys: LinkNames,
    layout: OnceLock<SlotLayout>,
}

impl LinkPlan {
    /// Resolves `c`'s linking namespace.
    pub(crate) fn build(c: &CompoundExpr) -> LinkPlan {
        let import = |(k, name): (usize, &Symbol)| (name.clone(), Binder::Import(k));
        let mut vals: Vec<_> =
            c.imports.vals.iter().map(|p| &p.name).enumerate().map(import).collect();
        let mut tys: Vec<_> =
            c.imports.types.iter().map(|p| &p.name).enumerate().map(import).collect();
        for (clause, link) in c.links.iter().enumerate() {
            let r = &link.renames;
            for (port, p) in link.provides.vals.iter().enumerate() {
                vals.push((r.outer_export_val(&p.name).clone(), Binder::Provide(clause, port)));
            }
            for (port, p) in link.provides.types.iter().enumerate() {
                tys.push((r.outer_export_ty(&p.name).clone(), Binder::Provide(clause, port)));
            }
        }
        LinkPlan { vals: LinkNames::new(vals), tys: LinkNames::new(tys), layout: OnceLock::new() }
    }

    /// `c`'s value slots, laid out on the first call; `c` is the node
    /// this plan was built for.
    pub(crate) fn layout(&self, c: &CompoundExpr) -> &SlotLayout {
        self.layout.get_or_init(|| SlotLayout::build(c, &self.vals))
    }
}

/// Where each value port of a `compound` lives at run time: the slots
/// §4.1.6's wiring fills and hands to the constituents. The compound's
/// value imports take slots `0..imports`, then each distinct provided
/// outer name the next slot, shared by its later provides. A checked
/// term kept for the reducer is never wired and carries no layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotLayout {
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

impl SlotLayout {
    fn build(c: &CompoundExpr, vals: &LinkNames) -> SlotLayout {
        let mut slots = c.imports.vals.len();
        let mut provides: Vec<Vec<usize>> = Vec::with_capacity(c.links.len());
        for (clause, link) in c.links.iter().enumerate() {
            let mut own = Vec::with_capacity(link.provides.vals.len());
            for (port, p) in link.provides.vals.iter().enumerate() {
                // An outer name's first provide takes the next slot, and
                // a later provide of the name shares it.
                own.push(match vals.provider(link.renames.outer_export_val(&p.name)) {
                    Some((first, at)) if first < clause => provides[first][at],
                    Some((_, at)) if at < port => own[at],
                    _ => {
                        slots += 1;
                        slots - 1
                    }
                });
            }
            provides.push(own);
        }
        let slot = |binder: Binder| match binder {
            Binder::Import(k) => k,
            Binder::Provide(clause, port) => provides[clause][port],
        };
        // At run time a `with` port is wired to its outer name's first
        // binder, up to the clause's first port that nothing binds.
        let with = |link: &LinkClause| -> Vec<usize> {
            let outers = link.with.vals.iter().map(|p| link.renames.outer_import_val(&p.name));
            outers.map_while(|outer| vals.binders(outer).next().map(slot)).collect()
        };
        let withs: Vec<Vec<usize>> = c.links.iter().map(with).collect();
        let export = |p: &ValPort| vals.provider(&p.name).map(|(clause, at)| provides[clause][at]);
        let exports = c.exports.vals.iter().map(export).collect();
        let mut clauses = Vec::with_capacity(c.links.len());
        for ((link, with), provides) in c.links.iter().zip(withs).zip(provides) {
            let unsatisfied = link.with.vals.get(with.len());
            let unsatisfied = unsatisfied.map(|p| link.renames.outer_import_val(&p.name).clone());
            clauses.push(ClausePlan { with, provides, unsatisfied });
        }
        SlotLayout { slots, imports: c.imports.vals.len(), clauses, exports }
    }

    /// The number of value slots: the compound's value imports, then one
    /// slot per distinct provided outer name.
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
        let layout = c.layout();
        assert_eq!((layout.slots(), layout.imports()), (3, 1));
        assert_eq!(layout.clauses()[0].with(), [2]);
        assert_eq!(layout.clauses()[0].provides(), [1]);
        assert_eq!(layout.clauses()[1].with(), [0, 1]);
        assert_eq!(layout.clauses()[1].provides(), [2]);
        assert_eq!(layout.exports(), [Some(2)]);
        assert!(layout.clauses().iter().all(|c| c.unsatisfied().is_none()));
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
        let layout = c.layout();
        assert_eq!(layout.clauses()[0].with(), [0]);
        assert_eq!(layout.clauses()[0].unsatisfied().map(Symbol::as_str), Some("nowhere"));
        assert_eq!(layout.exports(), [None]);
    }

    /// A clause over type ports `tys` and value ports `vals` on each side.
    fn clause(with: (&[&str], &[&str]), provides: (&[&str], &[&str])) -> LinkClause {
        let ports = |(tys, vals): (&[&str], &[&str])| Ports::untyped(tys.to_vec(), vals.to_vec());
        LinkClause::by_name(Expr::var("U"), ports(with), ports(provides))
    }

    #[test]
    fn binders_are_listed_in_binding_order_through_rename_pairs() {
        // (compound (import (type t) b) (export)
        //   (link (A (with) (provides (as a b) (as-type s t)))
        //         (B (with) (provides c b (type t)))))
        let mut a = clause((&[], &[]), (&["s"], &["a"]));
        a.renames.export_vals = pairs(&[("a", "b")]);
        a.renames.export_tys = pairs(&[("s", "t")]);
        let b = clause((&[], &[]), (&["t"], &["c", "b"]));
        let c = CompoundExpr::new(Ports::untyped(["t"], ["b"]), Ports::new(), vec![a, b]);
        let plan = c.plan();
        let binders =
            |names: &LinkNames, outer: &str| names.binders(&outer.into()).collect::<Vec<_>>();
        assert_eq!(
            binders(&plan.vals, "b"),
            [Binder::Import(0), Binder::Provide(0, 0), Binder::Provide(1, 1)]
        );
        assert_eq!(binders(&plan.vals, "c"), [Binder::Provide(1, 0)]);
        assert_eq!(
            binders(&plan.tys, "t"),
            [Binder::Import(0), Binder::Provide(0, 0), Binder::Provide(1, 0)]
        );
        // Inner names a rename pair carries elsewhere bind nothing outside.
        assert!(!plan.vals.is_bound(&"a".into()) && !plan.tys.is_bound(&"s".into()));
        assert!(binders(&plan.vals, "s").is_empty());
    }

    #[test]
    fn an_import_comes_before_every_provide_of_its_name() {
        // (compound (import x (type t)) (export x)
        //   (link (A (with) (provides x (type t))) (B (with x (type t)) (provides))))
        let c = CompoundExpr::new(
            Ports::untyped(["t"], ["x"]),
            names(&["x"]),
            vec![clause((&[], &[]), (&["t"], &["x"])), clause((&["t"], &["x"]), (&[], &[]))],
        );
        let plan = c.plan();
        let (x, t) = (Symbol::new("x"), Symbol::new("t"));
        assert_eq!(plan.vals.supplier(&x, 1), Some(Binder::Import(0)));
        assert_eq!(plan.tys.supplier(&t, 1), Some(Binder::Import(0)));
        // At run time too: clause 1's port is wired to the import's slot.
        assert_eq!(c.layout().clauses()[1].with(), [0]);
        // An export re-exports a provide, never an import.
        assert_eq!(plan.vals.provider(&x), Some((0, 0)));
        assert_eq!(c.layout().exports(), [Some(1)]);
    }

    #[test]
    fn a_clause_does_not_statically_supply_its_own_with_port() {
        // (compound (import) (export)
        //   (link (A (with (as w own) (as-type u own-t))
        //            (provides (as p own) (as-type s own-t)))
        //         (B (with own (type own-t)) (provides))))
        let mut a = clause((&["u"], &["w"]), (&["s"], &["p"]));
        a.renames = LinkRenames {
            import_vals: pairs(&[("w", "own")]),
            import_tys: pairs(&[("u", "own-t")]),
            export_vals: pairs(&[("p", "own")]),
            export_tys: pairs(&[("s", "own-t")]),
        };
        let b = clause((&["own-t"], &["own"]), (&[], &[]));
        let c = CompoundExpr::new(Ports::new(), Ports::new(), vec![a, b]);
        let plan = c.plan();
        let (own, own_t) = (Symbol::new("own"), Symbol::new("own-t"));
        // Statically, clause 0's ports are unsupplied; clause 1's are
        // supplied by clause 0.
        assert_eq!(plan.vals.supplier(&own, 0), None);
        assert_eq!(plan.tys.supplier(&own_t, 0), None);
        assert_eq!(plan.vals.supplier(&own, 1), Some(Binder::Provide(0, 0)));
        assert_eq!(plan.tys.supplier(&own_t, 1), Some(Binder::Provide(0, 0)));
        // At run time the first binder wires it, the clause's own provide.
        assert_eq!(c.layout().clauses()[0].with(), [0]);
        assert_eq!(c.layout().clauses()[0].provides(), [0]);
        assert!(c.layout().clauses()[0].unsatisfied().is_none());
    }

    #[test]
    fn names_bound_twice_are_listed_in_reporting_order() {
        // (compound (import x y (type t)) (export)
        //   (link (A (with) (provides x z (as-type s t)))
        //         (B (with) (provides (as w z) x))))
        let mut a = clause((&[], &[]), (&["s"], &["x", "z"]));
        a.renames.export_tys = pairs(&[("s", "t")]);
        let mut b = clause((&[], &[]), (&[], &["w", "x"]));
        b.renames.export_vals = pairs(&[("w", "z")]);
        let c = CompoundExpr::new(Ports::untyped(["t"], ["x", "y"]), Ports::new(), vec![a, b]);
        let plan = c.plan();
        let twice =
            |names: &LinkNames| -> Vec<&str> { names.twice().iter().map(Symbol::as_str).collect() };
        assert_eq!(twice(&plan.vals), ["x", "z", "x"]);
        assert_eq!(twice(&plan.tys), ["t"]);
        // A name provided twice shares one slot; its import keeps its own.
        assert_eq!((c.layout().slots(), c.layout().imports()), (4, 2));
        assert_eq!(c.layout().clauses()[0].provides(), [2, 3]);
        assert_eq!(c.layout().clauses()[1].provides(), [3, 2]);
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
