//! The `compound` rule of Fig. 11: merging constituent units into one
//! (illustrated graphically in Fig. 8).
//!
//! "The second rule defines how a compound expression combines two units:
//! their definitions are merged and their initialization expressions are
//! sequenced. … all bindings introduced by definitions in the two units
//! must be appropriately α-renamed to avoid collisions."
//!
//! Linking is by name: a constituent's import either carries the name of a
//! compound import or the name of another constituent's provided export,
//! so linked names are simply *kept*, and only non-provided internal
//! definitions are freshened. A rename pair substitutes the outer name for
//! the inner one. A unit nested in a constituent may bind that outer name,
//! so an outer name the compound hides is freshened when a rename pair
//! targets it: no source binder can capture a generated name.
//!
//! One implementation serves both places the rule fires: the reducer
//! (`units-reduce`) merges every compound it reaches, and the compiler
//! (`units-compile`'s resolver) merges compounds of closed unit literals
//! once per artifact.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use crate::sig::{check_ports, PortMismatch};
use crate::subst::ValSubst;
use crate::symbol::{NameGen, Symbol, SymbolHash};
use crate::term::{CompoundExpr, DataDefn, DataVariant, Expr, TypeDefn, UnitExpr, ValDefn};

/// Why [`merge_compound`] left a compound alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// A constituent imports a value its clause's `with` does not grant
    /// (a Fig. 11 side condition).
    ExcessImport {
        /// The undeclared import.
        name: Symbol,
    },
    /// A constituent does not export a value its clause's `provides`
    /// promises (a Fig. 11 side condition; types are erased at run time,
    /// so a provided type port is not compared).
    MissingProvide {
        /// The promised name.
        name: Symbol,
    },
    /// A rename pair links a constituent to `name`, a unit nested in the
    /// constituent binds `name`, and `name` is one of the compound's own
    /// imports or exports, so it cannot be freshened: one unit cannot
    /// express the link.
    Capture {
        /// The interface name the nested unit binds.
        name: Symbol,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::ExcessImport { name } => {
                write!(f, "constituent imports `{name}`, which its link clause does not declare")
            }
            MergeError::MissingProvide { name } => {
                write!(f, "constituent does not export promised name `{name}`")
            }
            MergeError::Capture { name } => write!(
                f,
                "compound cannot be merged into one unit: a unit nested in a constituent binds \
                 the link name `{name}`"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// A clause's `with` grants and its `provides` requires, so a port
/// mismatch is one of the two side conditions.
impl From<PortMismatch> for MergeError {
    fn from(mismatch: PortMismatch) -> MergeError {
        match mismatch {
            PortMismatch::Import(name) => MergeError::ExcessImport { name },
            PortMismatch::Export(name) => MergeError::MissingProvide { name },
        }
    }
}

/// Merges a compound's constituents into one atomic unit.
///
/// `units[i]` is the unit value of `compound.links[i]`. The result
/// imports and exports what the compound does; its definitions are the
/// constituents' in link order, and its initialization expression runs
/// theirs in link order.
///
/// The compound's linking must pass the checkers' conditions (Fig. 10):
/// every `with` port supplied by a compound import or another clause's
/// provide, names distinct, exports provided. Given a compound that
/// fails them the merge still returns, but the merged unit may not mean
/// what the linked compound means. The linked names it keeps are read
/// from the compound's linking namespace ([`CompoundExpr::plan`]), which
/// the merge builds if no reader has yet.
///
/// # Errors
///
/// [`MergeError::ExcessImport`] and [`MergeError::MissingProvide`] for
/// the first constituent that breaks a side condition, imports checked
/// first; [`MergeError::Capture`] when a rename pair's outer name would be
/// captured.
pub fn merge_compound(
    compound: &CompoundExpr,
    units: &[Arc<UnitExpr>],
    gen: &mut NameGen,
) -> Result<UnitExpr, MergeError> {
    debug_assert_eq!(units.len(), compound.links.len());
    // Side conditions first (Fig. 11's ⊆ requirements).
    for (link, unit) in compound.links.iter().zip(units) {
        check_ports(&unit.imports, &unit.exports, &link.with, &link.provides)?;
    }

    // Every name the merged unit binds, to freshen against: the value
    // half of the compound's linking namespace (its imports and every
    // provided outer name), then each name the merge keeps below.
    let linked = &compound.plan().vals;
    let mut used: HashSet<Symbol, SymbolHash> = HashSet::default();
    let mut claim = |name: &Symbol| !linked.is_bound(name) && used.insert(name.clone());
    // A provided outer name the compound hides gets a fresh name when a
    // rename pair targets it.
    let mut hidden: HashMap<Symbol, Symbol, SymbolHash> = HashMap::default();
    for link in &compound.links {
        for (_, outer) in link.renames.import_vals.iter().chain(&link.renames.export_vals) {
            let interface = compound.imports.val_port(outer).is_some()
                || compound.exports.val_port(outer).is_some();
            if !interface && linked.is_bound(outer) && !hidden.contains_key(outer) {
                hidden.insert(outer.clone(), gen.fresh(outer));
            }
        }
    }
    let link_name = |outer: &Symbol| hidden.get(outer).unwrap_or(outer).clone();

    let mut merged_types = Vec::new();
    let mut merged_vals = Vec::with_capacity(units.iter().map(|u| u.vals.len()).sum());
    let mut inits = Vec::with_capacity(units.len());
    for (link, unit) in compound.links.iter().zip(units) {
        // A provided definition takes its link name; any other is kept
        // unless it collides with a name already bound, then freshened.
        let mut renames: HashMap<Symbol, Symbol, SymbolHash> = HashMap::default();
        let mut bind = |name: &Symbol, renames: &mut HashMap<Symbol, Symbol, SymbolHash>| {
            let new = match link.provides.val_port(name) {
                Some(_) => link_name(link.renames.outer_export_val(name)),
                None if claim(name) => return,
                None => loop {
                    let fresh = gen.fresh(name);
                    if claim(&fresh) {
                        break fresh;
                    }
                },
            };
            if &new != name {
                renames.insert(name.clone(), new);
            }
        };
        for defn in &unit.vals {
            bind(&defn.name, &mut renames);
        }
        for td in &unit.types {
            if let TypeDefn::Data(d) = td {
                for name in d.bound_val_names() {
                    bind(&name, &mut renames);
                }
            }
        }
        // Imports link by outer name: a renamed import is substituted to
        // its outer name's link name in this constituent's bodies.
        for port in &unit.imports.vals {
            let outer = link_name(link.renames.outer_import_val(&port.name));
            if outer != port.name {
                renames.insert(port.name.clone(), outer);
            }
        }

        let subst = (!renames.is_empty()).then(|| {
            ValSubst::new(
                &renames.iter().map(|(old, new)| (old.clone(), Expr::Var(new.clone()))).collect(),
            )
        });
        let mut apply = |e: &Expr| match &subst {
            None => Ok(e.clone()),
            Some(subst) => subst
                .try_apply(e, gen)
                .map_err(|capture| MergeError::Capture { name: capture.binder }),
        };
        let renamed = |name: &Symbol| renames.get(name).unwrap_or(name).clone();

        for td in &unit.types {
            merged_types.push(match td {
                TypeDefn::Data(d) => TypeDefn::Data(DataDefn {
                    name: d.name.clone(),
                    variants: d
                        .variants
                        .iter()
                        .map(|v| DataVariant {
                            ctor: renamed(&v.ctor),
                            dtor: renamed(&v.dtor),
                            payload: v.payload.clone(),
                        })
                        .collect(),
                    predicate: renamed(&d.predicate),
                }),
                TypeDefn::Alias(a) => TypeDefn::Alias(a.clone()),
            });
        }
        for defn in &unit.vals {
            merged_vals.push(ValDefn {
                name: renamed(&defn.name),
                ty: defn.ty.clone(),
                body: apply(&defn.body)?,
            });
        }
        inits.push(apply(&unit.init)?);
    }

    if inits.is_empty() {
        inits.push(Expr::void());
    }
    Ok(UnitExpr {
        imports: compound.imports.clone(),
        exports: compound.exports.clone(),
        types: merged_types,
        vals: merged_vals,
        init: Expr::seq(inits),
    })
}
