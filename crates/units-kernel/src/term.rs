//! Terms of the unit calculi (paper Figs. 9, 13, 16).
//!
//! One expression type covers all three languages:
//!
//! * **UNITd** programs use no type annotations (every [`ValPort::ty`] and
//!   [`Param::ty`] is `None`, no [`TypeDefn`]s appear);
//! * **UNITc** programs add datatype definitions ([`TypeDefn::Data`]) and
//!   fully annotated ports;
//! * **UNITe** programs additionally use type equations
//!   ([`TypeDefn::Alias`]) and `depends` clauses in signatures.
//!
//! The checkers in `units-check` enforce which forms are legal at which
//! level. A handful of variants ([`Expr::Loc`], [`Expr::Data`],
//! [`Expr::Variant`]) are *machine-internal* value forms produced only by
//! the small-step reducer; the parser never builds them.
//!
//! [`ValPort::ty`]: crate::sig::ValPort

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::kind::Kind;
use crate::plan::{LinkPlan, SlotLayout};
use crate::sig::{Ports, Signature};
use crate::symbol::Symbol;
use crate::ty::Ty;

/// A literal constant.
#[derive(Debug, Clone, PartialEq)]
pub enum Lit {
    /// A machine integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// An immutable string.
    Str(Arc<str>),
    /// The sole value of type `void`.
    Void,
}

impl Lit {
    /// The (closed) type of the literal.
    pub fn ty(&self) -> Ty {
        match self {
            Lit::Int(_) => Ty::Int,
            Lit::Bool(_) => Ty::Bool,
            Lit::Str(_) => Ty::Str,
            Lit::Void => Ty::Void,
        }
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lit::Int(n) => write!(f, "{n}"),
            Lit::Bool(b) => write!(f, "{b}"),
            Lit::Str(s) => write!(f, "{s:?}"),
            Lit::Void => f.write_str("void"),
        }
    }
}

/// Built-in operations of the core language substrate.
///
/// Primitives that would need polymorphic types in the static calculi carry
/// explicit type instantiations at each occurrence ([`Expr::Prim`]'s type
/// arguments); see [`PrimOp::ty_arity`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrimOp {
    /// `int×int→int`
    Add,
    /// `int×int→int`
    Sub,
    /// `int×int→int`
    Mul,
    /// `int×int→int`; division by zero is a run-time error.
    Div,
    /// `int×int→int`; modulo by zero is a run-time error.
    Rem,
    /// `int×int→bool`
    Lt,
    /// `int×int→bool`
    Le,
    /// `int×int→bool`
    NumEq,
    /// `bool→bool`
    Not,
    /// `bool×bool→bool`
    BoolEq,
    /// `str×str→str`
    StrAppend,
    /// `str×str→bool`
    StrEq,
    /// `str→int`
    StrLen,
    /// `int→str`
    IntToStr,
    /// `str→void`; writes to the runtime's output buffer.
    Display,
    /// `str→τ` (1 type argument); signals a run-time error carrying the
    /// message. Models the paper's error-handling imports.
    Fail,
    /// `void→hash τ` (1 type argument); a fresh mutable string-keyed table.
    /// Models `makeStringHashTable()` from Fig. 1.
    HashNew,
    /// `hash τ × str × τ → void` (1 type argument)
    HashSet,
    /// `hash τ × str → τ` (1 type argument); error if the key is absent.
    HashGet,
    /// `hash τ × str → bool` (1 type argument)
    HashHas,
    /// `hash τ × str → void` (1 type argument); removes a key if present.
    HashRemove,
    /// `hash τ → int` (1 type argument)
    HashCount,
}

impl PrimOp {
    /// The number of explicit type arguments the primitive requires in a
    /// statically typed program (0 for monomorphic primitives).
    pub fn ty_arity(self) -> usize {
        match self {
            PrimOp::Fail
            | PrimOp::HashNew
            | PrimOp::HashSet
            | PrimOp::HashGet
            | PrimOp::HashHas
            | PrimOp::HashRemove
            | PrimOp::HashCount => 1,
            _ => 0,
        }
    }

    /// The number of value arguments the primitive consumes.
    pub fn arity(self) -> usize {
        match self {
            PrimOp::Not
            | PrimOp::StrLen
            | PrimOp::IntToStr
            | PrimOp::Display
            | PrimOp::Fail
            | PrimOp::HashCount => 1,
            PrimOp::HashNew => 0,
            PrimOp::HashSet => 3,
            _ => 2,
        }
    }

    /// The surface-syntax name of the primitive.
    pub fn name(self) -> &'static str {
        match self {
            PrimOp::Add => "+",
            PrimOp::Sub => "-",
            PrimOp::Mul => "*",
            PrimOp::Div => "/",
            PrimOp::Rem => "rem",
            PrimOp::Lt => "<",
            PrimOp::Le => "<=",
            PrimOp::NumEq => "=",
            PrimOp::Not => "not",
            PrimOp::BoolEq => "bool=?",
            PrimOp::StrAppend => "string-append",
            PrimOp::StrEq => "string=?",
            PrimOp::StrLen => "string-length",
            PrimOp::IntToStr => "int->string",
            PrimOp::Display => "display",
            PrimOp::Fail => "fail",
            PrimOp::HashNew => "hash-new",
            PrimOp::HashSet => "hash-set!",
            PrimOp::HashGet => "hash-get",
            PrimOp::HashHas => "hash-has?",
            PrimOp::HashRemove => "hash-remove!",
            PrimOp::HashCount => "hash-count",
        }
    }

    /// Looks a primitive up by surface name.
    pub fn from_name(name: &str) -> Option<PrimOp> {
        Some(match name {
            "+" => PrimOp::Add,
            "-" => PrimOp::Sub,
            "*" => PrimOp::Mul,
            "/" => PrimOp::Div,
            "rem" => PrimOp::Rem,
            "<" => PrimOp::Lt,
            "<=" => PrimOp::Le,
            "=" => PrimOp::NumEq,
            "not" => PrimOp::Not,
            "bool=?" => PrimOp::BoolEq,
            "string-append" => PrimOp::StrAppend,
            "string=?" => PrimOp::StrEq,
            "string-length" => PrimOp::StrLen,
            "int->string" => PrimOp::IntToStr,
            "display" => PrimOp::Display,
            "fail" => PrimOp::Fail,
            "hash-new" => PrimOp::HashNew,
            "hash-set!" => PrimOp::HashSet,
            "hash-get" => PrimOp::HashGet,
            "hash-has?" => PrimOp::HashHas,
            "hash-remove!" => PrimOp::HashRemove,
            "hash-count" => PrimOp::HashCount,
            _ => return None,
        })
    }

    /// Instantiates the primitive's type at the given type arguments,
    /// returning its parameter types and result type.
    ///
    /// Returns `None` when the number of type arguments does not match
    /// [`PrimOp::ty_arity`].
    ///
    /// # Examples
    ///
    /// ```
    /// use units_kernel::{PrimOp, Ty};
    /// let (params, ret) = PrimOp::HashGet.instantiate(&[Ty::Int]).unwrap();
    /// assert_eq!(params, vec![Ty::hash(Ty::Int), Ty::Str]);
    /// assert_eq!(ret, Ty::Int);
    /// ```
    pub fn instantiate(self, ty_args: &[Ty]) -> Option<(Vec<Ty>, Ty)> {
        if ty_args.len() != self.ty_arity() {
            return None;
        }
        let a = || ty_args[0].clone();
        Some(match self {
            PrimOp::Add | PrimOp::Sub | PrimOp::Mul | PrimOp::Div | PrimOp::Rem => {
                (vec![Ty::Int, Ty::Int], Ty::Int)
            }
            PrimOp::Lt | PrimOp::Le | PrimOp::NumEq => (vec![Ty::Int, Ty::Int], Ty::Bool),
            PrimOp::Not => (vec![Ty::Bool], Ty::Bool),
            PrimOp::BoolEq => (vec![Ty::Bool, Ty::Bool], Ty::Bool),
            PrimOp::StrAppend => (vec![Ty::Str, Ty::Str], Ty::Str),
            PrimOp::StrEq => (vec![Ty::Str, Ty::Str], Ty::Bool),
            PrimOp::StrLen => (vec![Ty::Str], Ty::Int),
            PrimOp::IntToStr => (vec![Ty::Int], Ty::Str),
            PrimOp::Display => (vec![Ty::Str], Ty::Void),
            PrimOp::Fail => (vec![Ty::Str], a()),
            PrimOp::HashNew => (vec![], Ty::hash(a())),
            PrimOp::HashSet => (vec![Ty::hash(a()), Ty::Str, a()], Ty::Void),
            PrimOp::HashGet => (vec![Ty::hash(a()), Ty::Str], a()),
            PrimOp::HashHas => (vec![Ty::hash(a()), Ty::Str], Ty::Bool),
            PrimOp::HashRemove => (vec![Ty::hash(a()), Ty::Str], Ty::Void),
            PrimOp::HashCount => (vec![Ty::hash(a())], Ty::Int),
        })
    }
}

/// Every primitive, for table-driven lookup and exhaustive tests.
pub const ALL_PRIMS: &[PrimOp] = &[
    PrimOp::Add,
    PrimOp::Sub,
    PrimOp::Mul,
    PrimOp::Div,
    PrimOp::Rem,
    PrimOp::Lt,
    PrimOp::Le,
    PrimOp::NumEq,
    PrimOp::Not,
    PrimOp::BoolEq,
    PrimOp::StrAppend,
    PrimOp::StrEq,
    PrimOp::StrLen,
    PrimOp::IntToStr,
    PrimOp::Display,
    PrimOp::Fail,
    PrimOp::HashNew,
    PrimOp::HashSet,
    PrimOp::HashGet,
    PrimOp::HashHas,
    PrimOp::HashRemove,
    PrimOp::HashCount,
];

impl fmt::Display for PrimOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A λ-parameter, optionally annotated (`None` in UNITd programs).
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// The parameter name.
    pub name: Symbol,
    /// Its declared type, if the program is statically typed.
    pub ty: Option<Ty>,
}

impl Param {
    /// An unannotated parameter.
    pub fn untyped(name: impl Into<Symbol>) -> Param {
        Param { name: name.into(), ty: None }
    }

    /// An annotated parameter.
    pub fn typed(name: impl Into<Symbol>, ty: Ty) -> Param {
        Param { name: name.into(), ty: Some(ty) }
    }
}

/// A λ-abstraction `fn (x…) ⇒ e`.
#[derive(Debug, Clone, PartialEq)]
pub struct Lambda {
    /// Parameters (possibly empty: a thunk).
    pub params: Vec<Param>,
    /// Declared result type, if any (used for recursive definitions).
    pub ret_ty: Option<Ty>,
    /// The body.
    pub body: Expr,
}

/// A `let` binding `x = e`.
#[derive(Debug, Clone, PartialEq)]
pub struct Binding {
    /// The bound name.
    pub name: Symbol,
    /// The bound expression.
    pub expr: Expr,
}

/// One variant of a constructed type: constructor, deconstructor, payload.
///
/// Paper Fig. 13: `type t = x_c1,x_d1 τ1 | x_cr,x_dr τr ▷ x_t` — the
/// constructor `x_c : τ → t`, the deconstructor `x_d : t → τ`. The paper
/// fixes exactly two variants "for simplicity"; we allow any positive
/// number, with the two-variant form as the canonical, tested case.
#[derive(Debug, Clone, PartialEq)]
pub struct DataVariant {
    /// Constructor name (`x_c`).
    pub ctor: Symbol,
    /// Deconstructor name (`x_d`); applying it to the wrong variant is a
    /// run-time error.
    pub dtor: Symbol,
    /// The payload type `τ`.
    pub payload: Ty,
}

/// A constructed-type definition (UNITc, Fig. 13).
#[derive(Debug, Clone, PartialEq)]
pub struct DataDefn {
    /// The defined type's name `t`.
    pub name: Symbol,
    /// The variants.
    pub variants: Vec<DataVariant>,
    /// The discriminator `x_t : t → bool`, returning `true` exactly for
    /// instances of the *first* variant.
    pub predicate: Symbol,
}

impl DataDefn {
    /// All value names the definition binds: constructors, deconstructors,
    /// and the predicate, in declaration order.
    pub fn bound_val_names(&self) -> Vec<Symbol> {
        let mut names = Vec::with_capacity(self.variants.len() * 2 + 1);
        for v in &self.variants {
            names.push(v.ctor.clone());
            names.push(v.dtor.clone());
        }
        names.push(self.predicate.clone());
        names
    }
}

/// A type equation `type t :: κ = τ` (UNITe, Fig. 16).
#[derive(Debug, Clone, PartialEq)]
pub struct AliasDefn {
    /// The abbreviation's name `t`.
    pub name: Symbol,
    /// Its kind.
    pub kind: Kind,
    /// The abbreviated type `τ`.
    pub body: Ty,
}

/// A type definition inside a `letrec` or `unit` body.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeDefn {
    /// A constructed type (UNITc).
    Data(DataDefn),
    /// A type equation (UNITe).
    Alias(AliasDefn),
}

impl TypeDefn {
    /// The defined type's name.
    pub fn name(&self) -> &Symbol {
        match self {
            TypeDefn::Data(d) => &d.name,
            TypeDefn::Alias(a) => &a.name,
        }
    }
}

/// A value definition `val x : τ = e` (the annotation is absent in UNITd).
#[derive(Debug, Clone, PartialEq)]
pub struct ValDefn {
    /// The defined name.
    pub name: Symbol,
    /// The declared type, if statically typed.
    pub ty: Option<Ty>,
    /// The definition's right-hand side (must be *valuable*, §4.1.1).
    pub body: Expr,
}

/// A `letrec` block: mutually recursive type and value definitions.
#[derive(Debug, Clone, PartialEq)]
pub struct LetrecExpr {
    /// Type definitions, in scope throughout the block.
    pub types: Vec<TypeDefn>,
    /// Value definitions; every definition sees every other.
    pub vals: Vec<ValDefn>,
    /// The block's body.
    pub body: Expr,
}

/// An atomic unit expression (paper §4.1.1).
#[derive(Debug, Clone, PartialEq)]
pub struct UnitExpr {
    /// Imported type and value ports.
    pub imports: Ports,
    /// Exported type and value ports. Every exported value must be defined
    /// in `vals`; every exported type in `types`.
    pub exports: Ports,
    /// Internal type definitions.
    pub types: Vec<TypeDefn>,
    /// Internal value definitions (mutually recursive, valuable).
    pub vals: Vec<ValDefn>,
    /// The initialization expression, run at invocation.
    pub init: Expr,
}

impl UnitExpr {
    /// All value names defined inside the unit: `val` definitions plus the
    /// constructors/deconstructors/predicates of its datatypes.
    pub fn defined_val_names(&self) -> Vec<Symbol> {
        let mut names: Vec<Symbol> = self.vals.iter().map(|d| d.name.clone()).collect();
        for td in &self.types {
            if let TypeDefn::Data(d) = td {
                names.extend(d.bound_val_names());
            }
        }
        names
    }

    /// All type names defined inside the unit.
    pub fn defined_ty_names(&self) -> Vec<Symbol> {
        self.types.iter().map(|t| t.name().clone()).collect()
    }
}

/// Source/destination name pairs for one link clause.
///
/// The paper's core calculus links strictly by name; "MzScheme's syntax is
/// less restrictive … and links imports and exports via source and
/// destination name pairs, rather than requiring the same name at both
/// ends of a linkage" (§4.1.2). Each entry maps a constituent's *inner*
/// interface name to the *outer* name used in the enclosing compound's
/// linking namespace; names without an entry link to themselves.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LinkRenames {
    /// Inner import value name → outer source name.
    pub import_vals: Vec<(Symbol, Symbol)>,
    /// Inner import type name → outer source name.
    pub import_tys: Vec<(Symbol, Symbol)>,
    /// Inner export value name → outer provided name.
    pub export_vals: Vec<(Symbol, Symbol)>,
    /// Inner export type name → outer provided name.
    pub export_tys: Vec<(Symbol, Symbol)>,
}

impl LinkRenames {
    /// True when every link is by name (the paper's core form).
    pub fn is_empty(&self) -> bool {
        self.import_vals.is_empty()
            && self.import_tys.is_empty()
            && self.export_vals.is_empty()
            && self.export_tys.is_empty()
    }

    fn outer<'a>(pairs: &'a [(Symbol, Symbol)], inner: &'a Symbol) -> &'a Symbol {
        pairs.iter().find(|(i, _)| i == inner).map(|(_, o)| o).unwrap_or(inner)
    }

    /// The outer source name feeding the given inner import value.
    pub fn outer_import_val<'a>(&'a self, inner: &'a Symbol) -> &'a Symbol {
        Self::outer(&self.import_vals, inner)
    }

    /// The outer source name feeding the given inner import type.
    pub fn outer_import_ty<'a>(&'a self, inner: &'a Symbol) -> &'a Symbol {
        Self::outer(&self.import_tys, inner)
    }

    /// The outer name under which the given inner export value is provided.
    pub fn outer_export_val<'a>(&'a self, inner: &'a Symbol) -> &'a Symbol {
        Self::outer(&self.export_vals, inner)
    }

    /// The outer name under which the given inner export type is provided.
    pub fn outer_export_ty<'a>(&'a self, inner: &'a Symbol) -> &'a Symbol {
        Self::outer(&self.export_tys, inner)
    }
}

/// One constituent of a `compound` expression: the unit expression plus its
/// expected interface (`with` = imports it will receive, `provides` =
/// exports it must supply).
#[derive(Debug, Clone, PartialEq)]
pub struct LinkClause {
    /// The constituent unit expression.
    pub expr: Expr,
    /// Names (and, when typed, types) this constituent is expected to
    /// import, under the constituent's *inner* names. Each must be
    /// satisfied — through `renames` — by a compound import or another
    /// constituent's `provides`.
    pub with: Ports,
    /// Names this constituent is expected to export (inner names).
    pub provides: Ports,
    /// Source/destination pairs translating inner names to the compound's
    /// linking namespace (empty in the paper's by-name core form).
    pub renames: LinkRenames,
}

impl LinkClause {
    /// A by-name clause (the paper's core form).
    pub fn by_name(expr: Expr, with: Ports, provides: Ports) -> LinkClause {
        LinkClause { expr, with, provides, renames: LinkRenames::default() }
    }
}

/// A `compound` linking expression (paper §4.1.2).
///
/// The paper's core form links exactly two units; MzScheme generalizes to
/// any number, and so do we — all paper rules are stated for two
/// constituents and tested in that form, with n-ary linking exercised
/// separately.
///
/// The node caches its [`LinkPlan`], its linking namespace, built from
/// the ports and rename pairs by the first reader (a checker, flattening
/// or wiring), so those must not change once the node has been read;
/// constituent expressions may. Equality and `Debug` ignore the plan.
#[derive(Clone)]
pub struct CompoundExpr {
    /// The compound unit's imports.
    pub imports: Ports,
    /// The compound unit's exports (a subset of the constituents'
    /// `provides`; everything else is hidden).
    pub exports: Ports,
    /// The constituents, in initialization order.
    pub links: Vec<LinkClause>,
    plan: OnceLock<Arc<LinkPlan>>,
}

impl CompoundExpr {
    /// A compound whose link plan is built on first use.
    pub fn new(imports: Ports, exports: Ports, links: Vec<LinkClause>) -> CompoundExpr {
        CompoundExpr { imports, exports, links, plan: OnceLock::new() }
    }

    /// The link plan, built on the first call and shared by every later
    /// call and by clones of the node made after it.
    pub fn plan(&self) -> &Arc<LinkPlan> {
        self.plan.get_or_init(|| Arc::new(LinkPlan::build(self)))
    }

    /// The link plan if some reader has built it already.
    pub fn plan_if_built(&self) -> Option<&Arc<LinkPlan>> {
        self.plan.get()
    }

    /// Where each value port lives at run time, laid out from the link
    /// plan by the first call (wiring's) and shared by every later one.
    pub fn layout(&self) -> &SlotLayout {
        self.plan().layout(self)
    }
}

impl PartialEq for CompoundExpr {
    fn eq(&self, other: &CompoundExpr) -> bool {
        self.imports == other.imports && self.exports == other.exports && self.links == other.links
    }
}

impl fmt::Debug for CompoundExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompoundExpr")
            .field("imports", &self.imports)
            .field("exports", &self.exports)
            .field("links", &self.links)
            .finish()
    }
}

/// An `invoke` expression (paper §4.1.3 / §3.4).
///
/// For a complete program both link vectors are empty; for dynamic linking
/// the invoking context satisfies the unit's imports explicitly.
#[derive(Debug, Clone, PartialEq)]
pub struct InvokeExpr {
    /// The expression producing the unit to invoke.
    pub target: Expr,
    /// Type imports supplied by the invoker: `t::κ = τ` (UNITc, Fig. 13).
    pub ty_links: Vec<(Symbol, Ty)>,
    /// Value imports supplied by the invoker: `x = e`.
    pub val_links: Vec<(Symbol, Expr)>,
}

/// Which datatype operation a [`DataOp`] value performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataRole {
    /// Constructor for the variant with the given index.
    Construct(usize),
    /// Deconstructor for the variant with the given index.
    Deconstruct(usize),
    /// The discriminator: `true` iff the argument is the first variant.
    Predicate,
}

/// A first-class datatype operation value (machine-internal).
///
/// Reducing a `letrec`/`invoke` that defines `type t = …` substitutes the
/// constructor/deconstructor/predicate names with these values. `instance`
/// is a nonce chosen at reduction time, so operations from two instances of
/// the same unit never confuse their variants — the behaviour §5.3 pins
/// down ("symbol is instantiated twice and there is no way to unify the two
/// sym types").
#[derive(Debug, Clone, PartialEq)]
pub struct DataOp {
    /// The defined type's source name (for error messages).
    pub ty_name: Symbol,
    /// Instantiation nonce; `0` until a reduction step freshens it.
    pub instance: u64,
    /// What the operation does.
    pub role: DataRole,
}

/// A constructed datatype value (machine-internal).
#[derive(Debug, Clone, PartialEq)]
pub struct VariantVal {
    /// The type's source name.
    pub ty_name: Symbol,
    /// The instantiation nonce of the constructor that built it.
    pub instance: u64,
    /// The variant index.
    pub tag: usize,
    /// The carried payload (always a value).
    pub payload: Expr,
}

/// A store location (machine-internal; Felleisen–Hieb style store for
/// mutable variables and hash tables in the substitution reducer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Loc(pub usize);

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ℓ{}", self.0)
    }
}

/// A lexical address: the static coordinate of a variable's binding,
/// `depth` environment frames outward from the occurrence and `slot`
/// positions into that frame. Computed by `units-compile`'s resolution
/// pass; consumed by the runtime's slot-indexed environment fast path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LexAddr {
    /// How many frames to walk outward (0 = innermost).
    pub depth: u32,
    /// Index into the frame's binding vector.
    pub slot: u32,
}

impl fmt::Display for LexAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.depth, self.slot)
    }
}

/// An expression of the unit language.
///
/// # Examples
///
/// Building `(fn (n) ⇒ n + 1) 41` programmatically:
///
/// ```
/// use units_kernel::{Expr, Param, PrimOp};
/// let succ = Expr::lambda(
///     vec![Param::untyped("n")],
///     Expr::prim2(PrimOp::Add, Expr::var("n"), Expr::int(1)),
/// );
/// let call = Expr::app(succ, vec![Expr::int(41)]);
/// assert!(!call.is_value());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A variable occurrence.
    Var(Symbol),
    /// A literal constant.
    Lit(Lit),
    /// A primitive with its explicit type instantiation (empty for
    /// monomorphic primitives).
    Prim(PrimOp, Vec<Ty>),
    /// A λ-abstraction.
    Lambda(Arc<Lambda>),
    /// Application `e(e…)`.
    App(Box<Expr>, Vec<Expr>),
    /// Conditional.
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Sequencing `e ; e ; …` (non-empty); value of the last expression.
    Seq(Vec<Expr>),
    /// Parallel `let`.
    Let(Vec<Binding>, Box<Expr>),
    /// Mutually recursive definitions.
    Letrec(Arc<LetrecExpr>),
    /// Assignment `x := e` to a definition-bound variable.
    ///
    /// The parser only ever produces a [`Expr::Var`] target; the
    /// substitution-based reducer may rewrite that variable to a
    /// [`Expr::CellRef`], which is the form the assignment rule fires on.
    Set(Box<Expr>, Box<Expr>),
    /// Tuple construction.
    Tuple(Vec<Expr>),
    /// Tuple projection (0-based).
    Proj(usize, Box<Expr>),
    /// An atomic unit (a value: "an atomic unit expression … is a value").
    Unit(Arc<UnitExpr>),
    /// A linking expression (not a value: it evaluates to a unit).
    Compound(Arc<CompoundExpr>),
    /// Unit invocation, possibly with dynamic links.
    Invoke(Arc<InvokeExpr>),
    /// Signature ascription (§5.2): restricts the view of a unit to the
    /// given (super)signature, hiding type information after linking.
    Seal(Box<Expr>, Box<Signature>),
    /// Machine-internal: a store location *value* (hash tables and other
    /// store-allocated data are passed around as locations).
    Loc(Loc),
    /// Machine-internal: a dereference of a definition cell. `letrec` and
    /// `invoke` reduction replace each definition-bound variable with
    /// `CellRef` of a fresh location; a `CellRef` is *not* a value — it
    /// reduces to the cell's contents (or errors if the cell is not yet
    /// initialized, MzScheme-style).
    CellRef(Loc),
    /// Machine-internal: a datatype operation value.
    Data(Arc<DataOp>),
    /// Machine-internal: a constructed datatype value.
    Variant(Arc<VariantVal>),
    /// Machine-internal: a variable occurrence annotated with the lexical
    /// address computed by the production backend's resolution pass
    /// (`units-compile`). Both compiled backends read the binding by
    /// direct frame/slot indexing; the symbol is kept for error
    /// messages. The parser never builds it, and a variable the resolver
    /// finds no binder for stays a plain, free [`Expr::Var`].
    VarAt(Symbol, LexAddr),
}

impl Expr {
    /// A variable occurrence.
    pub fn var(name: impl Into<Symbol>) -> Expr {
        Expr::Var(name.into())
    }

    /// An integer literal.
    pub fn int(n: i64) -> Expr {
        Expr::Lit(Lit::Int(n))
    }

    /// A boolean literal.
    pub fn bool(b: bool) -> Expr {
        Expr::Lit(Lit::Bool(b))
    }

    /// A string literal.
    pub fn str(s: impl AsRef<str>) -> Expr {
        Expr::Lit(Lit::Str(Arc::from(s.as_ref())))
    }

    /// The void literal.
    pub fn void() -> Expr {
        Expr::Lit(Lit::Void)
    }

    /// A λ-abstraction.
    pub fn lambda(params: Vec<Param>, body: Expr) -> Expr {
        Expr::Lambda(Arc::new(Lambda { params, ret_ty: None, body }))
    }

    /// A λ-abstraction with a declared result type.
    pub fn lambda_ret(params: Vec<Param>, ret_ty: Ty, body: Expr) -> Expr {
        Expr::Lambda(Arc::new(Lambda { params, ret_ty: Some(ret_ty), body }))
    }

    /// A thunk (nullary λ).
    pub fn thunk(body: Expr) -> Expr {
        Expr::lambda(Vec::new(), body)
    }

    /// Application.
    pub fn app(func: Expr, args: Vec<Expr>) -> Expr {
        Expr::App(Box::new(func), args)
    }

    /// A monomorphic primitive constant.
    pub fn prim(op: PrimOp) -> Expr {
        Expr::Prim(op, Vec::new())
    }

    /// Fully applied unary primitive.
    pub fn prim1(op: PrimOp, a: Expr) -> Expr {
        Expr::app(Expr::prim(op), vec![a])
    }

    /// Fully applied binary primitive.
    pub fn prim2(op: PrimOp, a: Expr, b: Expr) -> Expr {
        Expr::app(Expr::prim(op), vec![a, b])
    }

    /// Conditional.
    pub fn if_(cond: Expr, then: Expr, els: Expr) -> Expr {
        Expr::If(Box::new(cond), Box::new(then), Box::new(els))
    }

    /// Sequencing; panics if `exprs` is empty.
    ///
    /// # Panics
    ///
    /// Panics when given no expressions — `Seq` is non-empty by grammar.
    pub fn seq(exprs: Vec<Expr>) -> Expr {
        assert!(!exprs.is_empty(), "Seq requires at least one expression");
        if exprs.len() == 1 {
            exprs.into_iter().next().expect("len checked")
        } else {
            Expr::Seq(exprs)
        }
    }

    /// Assignment to a named variable.
    pub fn set(name: impl Into<Symbol>, value: Expr) -> Expr {
        Expr::Set(Box::new(Expr::Var(name.into())), Box::new(value))
    }

    /// An atomic unit expression.
    pub fn unit(unit: UnitExpr) -> Expr {
        Expr::Unit(Arc::new(unit))
    }

    /// A compound linking expression.
    pub fn compound(compound: CompoundExpr) -> Expr {
        Expr::Compound(Arc::new(compound))
    }

    /// An invocation.
    pub fn invoke(invoke: InvokeExpr) -> Expr {
        Expr::Invoke(Arc::new(invoke))
    }

    /// Invocation of a complete program (no links).
    pub fn invoke_program(target: Expr) -> Expr {
        Expr::invoke(InvokeExpr { target, ty_links: Vec::new(), val_links: Vec::new() })
    }

    /// Signature ascription.
    pub fn seal(target: Expr, sig: Signature) -> Expr {
        Expr::Seal(Box::new(target), Box::new(sig))
    }

    /// Syntactic value judgment of the rewriting semantics: literals,
    /// λ-abstractions, primitives, atomic units, locations, datatype
    /// operations, and tuples/variants of values.
    pub fn is_value(&self) -> bool {
        match self {
            Expr::Lit(_)
            | Expr::Lambda(_)
            | Expr::Prim(..)
            | Expr::Unit(_)
            | Expr::Loc(_)
            | Expr::Data(_) => true,
            Expr::Tuple(items) => items.iter().all(Expr::is_value),
            Expr::Variant(v) => v.payload.is_value(),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_types() {
        assert_eq!(Lit::Int(3).ty(), Ty::Int);
        assert_eq!(Lit::Bool(true).ty(), Ty::Bool);
        assert_eq!(Lit::Str("x".into()).ty(), Ty::Str);
        assert_eq!(Lit::Void.ty(), Ty::Void);
    }

    #[test]
    fn prim_names_round_trip() {
        for &p in ALL_PRIMS {
            assert_eq!(PrimOp::from_name(p.name()), Some(p), "{p}");
        }
        assert_eq!(PrimOp::from_name("no-such-prim"), None);
    }

    #[test]
    fn prim_arities_are_consistent() {
        assert_eq!(PrimOp::HashSet.arity(), 3);
        assert_eq!(PrimOp::HashNew.arity(), 0);
        assert_eq!(PrimOp::Add.arity(), 2);
        assert_eq!(PrimOp::Add.ty_arity(), 0);
        assert_eq!(PrimOp::HashGet.ty_arity(), 1);
    }

    #[test]
    fn values_are_recognized() {
        assert!(Expr::int(1).is_value());
        assert!(Expr::lambda(vec![], Expr::var("x")).is_value());
        assert!(Expr::Tuple(vec![Expr::int(1), Expr::bool(false)]).is_value());
        assert!(!Expr::Tuple(vec![Expr::var("x")]).is_value());
        assert!(!Expr::app(Expr::prim(PrimOp::Add), vec![Expr::int(1), Expr::int(2)]).is_value());
        assert!(!Expr::var("x").is_value());
    }

    #[test]
    fn unit_expression_is_a_value_but_compound_is_not() {
        let u = Expr::unit(UnitExpr {
            imports: Ports::new(),
            exports: Ports::new(),
            types: vec![],
            vals: vec![],
            init: Expr::void(),
        });
        assert!(u.is_value());
        let c = Expr::compound(CompoundExpr::new(Ports::new(), Ports::new(), vec![]));
        assert!(!c.is_value());
    }

    #[test]
    fn seq_flattens_singletons() {
        assert_eq!(Expr::seq(vec![Expr::int(1)]), Expr::int(1));
        assert!(matches!(Expr::seq(vec![Expr::int(1), Expr::int(2)]), Expr::Seq(_)));
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn seq_rejects_empty() {
        let _ = Expr::seq(vec![]);
    }

    #[test]
    fn data_defn_binds_all_operation_names() {
        let d = DataDefn {
            name: "db".into(),
            variants: vec![
                DataVariant { ctor: "mk".into(), dtor: "unmk".into(), payload: Ty::Int },
                DataVariant { ctor: "none".into(), dtor: "unnone".into(), payload: Ty::Void },
            ],
            predicate: "db?".into(),
        };
        let names: Vec<String> =
            d.bound_val_names().iter().map(|s| s.as_str().to_string()).collect();
        assert_eq!(names, vec!["mk", "unmk", "none", "unnone", "db?"]);
    }
}
