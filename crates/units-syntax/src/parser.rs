//! Elaboration of S-expressions into the kernel AST.
//!
//! The surface grammar (all forms fully parenthesized):
//!
//! ```text
//! expr  ::= int | "string" | true | false | void | x | prim
//!         | (lambda (param…) expr…)        param ::= x | (x τ)
//!         | (let ((x expr)…) expr…)
//!         | (letrec (defn…) expr…)
//!         | (if expr expr expr)
//!         | (begin expr…)
//!         | (set! x expr)
//!         | (tuple expr…) | (proj i expr)
//!         | (inst prim τ…)
//!         | (unit (import port…) (export port…) defn… [(init expr…)])
//!         | (compound (import port…) (export port…) (link clause…))
//!         | (invoke expr link…)            link ::= (type t τ) | (val x expr)
//!         | (seal expr τ)
//!         | (expr expr…)                   — application
//!
//! defn  ::= (define x expr) | (define x τ expr)
//!         | (defun (f param…) expr…)
//!         | (datatype t (ctor dtor τ)… pred)
//!         | (alias t τ) | (alias t κ τ)
//!
//! port  ::= (type t) | (type t κ) | x | (x τ)
//! clause ::= (expr [(with port…)] [(provides port…)])
//!
//! τ     ::= int | bool | str | void | t | (-> τ… τ) | (tuple τ…)
//!         | (hash τ) | (sig (import port…) (export port…)
//!                          [(init τ)] [(depends (t t)…)] [(where (t τ)…)])
//! κ     ::= * | (=> κ… κ)
//! ```

use units_kernel::{
    AliasDefn, Binding, CompoundExpr, DataDefn, DataVariant, Depend, Expr, InvokeExpr, Kind,
    LetrecExpr, LinkClause, LinkRenames, Param, Ports, PrimOp, SigEquation, Signature, Symbol, TyPort,
    TypeDefn, Ty, UnitExpr, ValDefn, ValPort,
};

use crate::error::ParseError;
use crate::sexpr::{read_all, read_one, SExpr};
use crate::span::Span;

/// Whether `word` is a keyword, which cannot be used as a variable or
/// port name.
fn is_reserved(word: &str) -> bool {
    matches!(
        word,
        "lambda" | "let" | "letrec" | "if" | "begin" | "set!" | "tuple" | "proj" | "inst"
            | "unit" | "compound" | "invoke" | "seal" | "define" | "defun" | "datatype"
            | "alias" | "import" | "export" | "link" | "with" | "provides" | "init" | "val"
            | "type" | "true" | "false" | "void" | "sig" | "depends" | "where" | "->" | "as"
            | "as-type" | "=>" | "*" | "hash" | "int" | "bool" | "str"
    )
}

/// Parses one expression from source text.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntax problem.
///
/// # Examples
///
/// ```
/// use units_syntax::parse_expr;
/// let e = parse_expr("(if (< 1 2) \"yes\" \"no\")")?;
/// assert!(!e.is_value());
/// # Ok::<(), units_syntax::ParseError>(())
/// ```
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let _timer = units_trace::time("parse");
    let form = read_one(src)?;
    trace_forms("parse/expr", src, std::slice::from_ref(&form));
    expr(&form)
}

/// Parses a type expression from source text.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input.
pub fn parse_ty(src: &str) -> Result<Ty, ParseError> {
    ty(&read_one(src)?)
}

/// Parses a signature (the body of a `sig` type) from source text.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input, or if the type is not a
/// signature.
pub fn parse_signature(src: &str) -> Result<Signature, ParseError> {
    let sx = read_one(src)?;
    match ty(&sx)? {
        Ty::Sig(sig) => Ok(*sig),
        _ => Err(ParseError::new(sx.span(), "expected a signature type")),
    }
}

/// Parses a whole source file: any number of top-level definitions
/// followed by expressions. The result is a `letrec` over the definitions
/// whose body sequences the expressions (defaulting to `void` when there
/// are none).
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input.
///
/// # Examples
///
/// ```
/// use units_syntax::parse_file;
/// let program = parse_file(
///     "(define u (unit (import) (export) (init 42)))
///      (invoke u)",
/// )?;
/// # Ok::<(), units_syntax::ParseError>(())
/// ```
pub fn parse_file(src: &str) -> Result<Expr, ParseError> {
    let _timer = units_trace::time("parse");
    units_trace::faults::trip("parse/read")
        .map_err(|f| ParseError::new(Span::new(0, src.len()), f.to_string()))?;
    let forms = read_all(src)?;
    trace_forms("parse/file", src, &forms);
    let mut types = Vec::new();
    let mut vals = Vec::new();
    let mut exprs = Vec::new();
    for form in &forms {
        if is_defn(form) {
            match defn(form)? {
                Defn::Ty(t) => types.push(t),
                Defn::Val(v) => vals.push(v),
            }
        } else {
            exprs.push(expr(form)?);
        }
    }
    let body = if exprs.is_empty() { Expr::void() } else { Expr::seq(exprs) };
    if types.is_empty() && vals.is_empty() {
        Ok(body)
    } else {
        Ok(Expr::Letrec(std::sync::Arc::new(LetrecExpr { types, vals, body })))
    }
}

/// Emits one Parse-phase event summarizing a successful read: how many
/// top-level forms, leaf atoms, and source bytes, with the whole-input
/// span. Without the `trace` feature it returns before counting atoms.
fn trace_forms(kind: &'static str, src: &str, forms: &[SExpr]) {
    if !units_trace::COMPILED {
        return;
    }
    fn atoms(sx: &SExpr) -> u64 {
        match sx.as_list() {
            Some(items) => items.iter().map(atoms).sum(),
            None => 1,
        }
    }
    units_trace::emit(
        units_trace::Phase::Parse,
        kind,
        Some(units_trace::Span::new(0, src.len() as u32)),
        String::new,
        &[
            ("parse/forms", forms.len() as u64),
            ("parse/atoms", forms.iter().map(atoms).sum()),
            ("parse/bytes", src.len() as u64),
        ],
    );
}

fn is_defn(sx: &SExpr) -> bool {
    matches!(
        sx.as_list().and_then(|items| items.first()).and_then(SExpr::as_atom),
        Some("define" | "defun" | "datatype" | "alias")
    )
}

fn err(span: Span, msg: impl Into<String>) -> ParseError {
    ParseError::new(span, msg)
}

fn name(sx: &SExpr, what: &str) -> Result<Symbol, ParseError> {
    match sx {
        SExpr::Atom(a, span) => {
            if is_reserved(a) {
                Err(err(*span, format!("`{a}` is a reserved word and cannot name a {what}")))
            } else if PrimOp::from_name(a).is_some() {
                Err(err(*span, format!("`{a}` is a primitive and cannot name a {what}")))
            } else {
                Ok(Symbol::new(a))
            }
        }
        other => Err(err(other.span(), format!("expected a {what} name"))),
    }
}

// ---------------------------------------------------------------------------
// Kinds and types
// ---------------------------------------------------------------------------

fn kind(sx: &SExpr) -> Result<Kind, ParseError> {
    match sx {
        SExpr::Atom("*", _) => Ok(Kind::Star),
        SExpr::List(items, span) => {
            let Some(rest) = sx.as_tagged("=>") else {
                return Err(err(*span, "expected a kind: `*` or `(=> κ… κ)`"));
            };
            if rest.len() < 2 {
                return Err(err(*span, "`=>` kind needs at least two components"));
            }
            let mut parts: Vec<Kind> = rest.iter().map(kind).collect::<Result<_, _>>()?;
            let mut out = parts
                .pop()
                .ok_or_else(|| err(*span, "`=>` kind needs at least two components"))?;
            while let Some(k) = parts.pop() {
                out = Kind::arrow(k, out);
            }
            let _ = items;
            Ok(out)
        }
        other => Err(err(other.span(), "expected a kind: `*` or `(=> κ… κ)`")),
    }
}

fn ty(sx: &SExpr) -> Result<Ty, ParseError> {
    match sx {
        SExpr::Atom(a, span) => match *a {
            "int" => Ok(Ty::Int),
            "bool" => Ok(Ty::Bool),
            "str" => Ok(Ty::Str),
            "void" => Ok(Ty::Void),
            _ if is_reserved(a) => {
                Err(err(*span, format!("`{a}` is reserved and cannot be a type name")))
            }
            _ => Ok(Ty::Var(Symbol::new(a))),
        },
        SExpr::List(items, span) => {
            let head = items
                .first()
                .ok_or_else(|| err(*span, "empty list is not a type"))?;
            match head.as_atom() {
                Some("->") => {
                    if items.len() < 2 {
                        return Err(err(*span, "`->` type needs a result type"));
                    }
                    let mut parts: Vec<Ty> =
                        items[1..].iter().map(ty).collect::<Result<_, _>>()?;
                    let ret = parts
                        .pop()
                        .ok_or_else(|| err(*span, "`->` type needs a result type"))?;
                    Ok(Ty::arrow(parts, ret))
                }
                Some("tuple") => {
                    Ok(Ty::Tuple(items[1..].iter().map(ty).collect::<Result<_, _>>()?))
                }
                Some("hash") => {
                    if items.len() != 2 {
                        return Err(err(*span, "`hash` type takes exactly one element type"));
                    }
                    Ok(Ty::hash(ty(&items[1])?))
                }
                Some("sig") => Ok(Ty::sig(signature(&items[1..], *span)?)),
                _ => Err(err(*span, "expected a type")),
            }
        }
        other => Err(err(other.span(), "expected a type")),
    }
}

fn signature(clauses: &[SExpr], span: Span) -> Result<Signature, ParseError> {
    let mut imports = None;
    let mut exports = None;
    let mut init_ty = None;
    let mut depends = Vec::new();
    let mut equations = Vec::new();
    for clause in clauses {
        let cspan = clause.span();
        if let Some(rest) = clause.as_tagged("import") {
            if imports.replace(ports(rest)?).is_some() {
                return Err(err(cspan, "duplicate `import` clause"));
            }
        } else if let Some(rest) = clause.as_tagged("export") {
            if exports.replace(ports(rest)?).is_some() {
                return Err(err(cspan, "duplicate `export` clause"));
            }
        } else if let Some(rest) = clause.as_tagged("init") {
            match rest {
                [t] => {
                    if init_ty.replace(ty(t)?).is_some() {
                        return Err(err(cspan, "duplicate `init` clause"));
                    }
                }
                _ => return Err(err(cspan, "`init` takes exactly one type")),
            }
        } else if let Some(rest) = clause.as_tagged("depends") {
            for pair in rest {
                match pair.as_list() {
                    Some([e, i]) => depends.push(Depend {
                        export: name(e, "type")?,
                        import: name(i, "type")?,
                    }),
                    _ => return Err(err(pair.span(), "`depends` entries are `(t_e t_i)` pairs")),
                }
            }
        } else if let Some(rest) = clause.as_tagged("where") {
            for eq in rest {
                match eq.as_list() {
                    Some([t, body]) => equations.push(SigEquation {
                        name: name(t, "type")?,
                        kind: Kind::Star,
                        body: ty(body)?,
                    }),
                    Some([t, k, body]) => equations.push(SigEquation {
                        name: name(t, "type")?,
                        kind: kind(k)?,
                        body: ty(body)?,
                    }),
                    _ => return Err(err(eq.span(), "`where` entries are `(t [κ] τ)`")),
                }
            }
        } else {
            return Err(err(cspan, "unknown signature clause"));
        }
    }
    Ok(Signature {
        imports: imports.ok_or_else(|| err(span, "signature needs an `import` clause"))?,
        exports: exports.ok_or_else(|| err(span, "signature needs an `export` clause"))?,
        depends,
        equations,
        init_ty: init_ty.unwrap_or(Ty::Void),
    })
}

fn ports(items: &[SExpr]) -> Result<Ports, ParseError> {
    let mut out = Ports::new();
    for item in items {
        port(item, &mut out)?;
    }
    Ok(out)
}

/// Parses one port declaration into `out`.
fn port(item: &SExpr, out: &mut Ports) -> Result<(), ParseError> {
    match item {
        SExpr::Atom(..) => out.vals.push(ValPort::untyped(name(item, "port")?)),
        SExpr::List(inner, span) => match inner.first().and_then(SExpr::as_atom) {
            Some("type") => match &inner[1..] {
                [t] => out.types.push(TyPort::star(name(t, "type port")?)),
                [t, k] => out.types.push(TyPort { name: name(t, "type port")?, kind: kind(k)? }),
                _ => return Err(err(*span, "`(type t [κ])` expected")),
            },
            _ => match &inner[..] {
                [x, t] => out.vals.push(ValPort::typed(name(x, "port")?, ty(t)?)),
                _ => return Err(err(*span, "value ports are `x` or `(x τ)`")),
            },
        },
        other => return Err(err(other.span(), "expected a port declaration")),
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Definitions
// ---------------------------------------------------------------------------

enum Defn {
    Ty(TypeDefn),
    Val(ValDefn),
}

fn defn(sx: &SExpr) -> Result<Defn, ParseError> {
    let span = sx.span();
    if let Some(rest) = sx.as_tagged("define") {
        return match rest {
            [x, e] => Ok(Defn::Val(ValDefn { name: name(x, "definition")?, ty: None, body: expr(e)? })),
            [x, t, e] => Ok(Defn::Val(ValDefn {
                name: name(x, "definition")?,
                ty: Some(ty(t)?),
                body: expr(e)?,
            })),
            _ => Err(err(span, "`define` is `(define x [τ] expr)`")),
        };
    }
    if let Some(rest) = sx.as_tagged("defun") {
        let [header, body @ ..] = rest else {
            return Err(err(span, "`defun` is `(defun (f param…) expr…)`"));
        };
        let Some([f, params @ ..]) = header.as_list() else {
            return Err(err(header.span(), "`defun` header must be `(f param…)`"));
        };
        if body.is_empty() {
            return Err(err(span, "`defun` needs a body"));
        }
        let params = params.iter().map(param).collect::<Result<Vec<_>, _>>()?;
        let body = Expr::seq(body.iter().map(expr).collect::<Result<Vec<_>, _>>()?);
        return Ok(Defn::Val(ValDefn {
            name: name(f, "function")?,
            ty: None,
            body: Expr::lambda(params, body),
        }));
    }
    if let Some(rest) = sx.as_tagged("datatype") {
        let [t, middle @ .., pred] = rest else {
            return Err(err(span, "`datatype` is `(datatype t (ctor dtor τ)… pred)`"));
        };
        if middle.is_empty() {
            return Err(err(span, "`datatype` needs at least one variant"));
        }
        let variants = middle
            .iter()
            .map(|v| match v.as_list() {
                Some([c, d, payload]) => Ok(DataVariant {
                    ctor: name(c, "constructor")?,
                    dtor: name(d, "deconstructor")?,
                    payload: ty(payload)?,
                }),
                _ => Err(err(v.span(), "variants are `(ctor dtor τ)`")),
            })
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(Defn::Ty(TypeDefn::Data(DataDefn {
            name: name(t, "datatype")?,
            variants,
            predicate: name(pred, "predicate")?,
        })));
    }
    if let Some(rest) = sx.as_tagged("alias") {
        return match rest {
            [t, body] => Ok(Defn::Ty(TypeDefn::Alias(AliasDefn {
                name: name(t, "alias")?,
                kind: Kind::Star,
                body: ty(body)?,
            }))),
            [t, k, body] => Ok(Defn::Ty(TypeDefn::Alias(AliasDefn {
                name: name(t, "alias")?,
                kind: kind(k)?,
                body: ty(body)?,
            }))),
            _ => Err(err(span, "`alias` is `(alias t [κ] τ)`")),
        };
    }
    Err(err(span, "expected a definition"))
}

fn param(sx: &SExpr) -> Result<Param, ParseError> {
    match sx {
        SExpr::Atom(..) => Ok(Param { name: name(sx, "parameter")?, ty: None }),
        SExpr::List(inner, span) => match &inner[..] {
            [x, t] => Ok(Param { name: name(x, "parameter")?, ty: Some(ty(t)?) }),
            _ => Err(err(*span, "parameters are `x` or `(x τ)`")),
        },
        other => Err(err(other.span(), "expected a parameter")),
    }
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

fn expr(sx: &SExpr) -> Result<Expr, ParseError> {
    match sx {
        SExpr::Int(n, _) => Ok(Expr::int(*n)),
        SExpr::Str(s, _) => Ok(Expr::str(s)),
        SExpr::Atom(a, span) => match *a {
            "true" => Ok(Expr::bool(true)),
            "false" => Ok(Expr::bool(false)),
            "void" => Ok(Expr::void()),
            _ => {
                if let Some(op) = PrimOp::from_name(a) {
                    Ok(Expr::prim(op))
                } else if is_reserved(a) {
                    Err(err(*span, format!("`{a}` is a reserved word, not an expression")))
                } else {
                    Ok(Expr::var(Symbol::new(a)))
                }
            }
        },
        SExpr::List(items, span) => {
            let head = items.first().ok_or_else(|| err(*span, "empty application"))?;
            match head.as_atom() {
                Some("lambda") => {
                    let [params_sx, body @ ..] = &items[1..] else {
                        return Err(err(*span, "`lambda` is `(lambda (param…) expr…)`"));
                    };
                    let Some(params_list) = params_sx.as_list() else {
                        return Err(err(params_sx.span(), "`lambda` parameters must be a list"));
                    };
                    if body.is_empty() {
                        return Err(err(*span, "`lambda` needs a body"));
                    }
                    let params =
                        params_list.iter().map(param).collect::<Result<Vec<_>, _>>()?;
                    let body = Expr::seq(body.iter().map(expr).collect::<Result<Vec<_>, _>>()?);
                    Ok(Expr::lambda(params, body))
                }
                Some("let") => {
                    let [bindings_sx, body @ ..] = &items[1..] else {
                        return Err(err(*span, "`let` is `(let ((x expr)…) expr…)`"));
                    };
                    let Some(binding_list) = bindings_sx.as_list() else {
                        return Err(err(bindings_sx.span(), "`let` bindings must be a list"));
                    };
                    if body.is_empty() {
                        return Err(err(*span, "`let` needs a body"));
                    }
                    let bindings = binding_list
                        .iter()
                        .map(|b| match b.as_list() {
                            Some([x, e]) => {
                                Ok(Binding { name: name(x, "binding")?, expr: expr(e)? })
                            }
                            _ => Err(err(b.span(), "bindings are `(x expr)`")),
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    let body = Expr::seq(body.iter().map(expr).collect::<Result<Vec<_>, _>>()?);
                    Ok(Expr::Let(bindings, Box::new(body)))
                }
                Some("letrec") => {
                    let [defns_sx, body @ ..] = &items[1..] else {
                        return Err(err(*span, "`letrec` is `(letrec (defn…) expr…)`"));
                    };
                    let Some(defn_list) = defns_sx.as_list() else {
                        return Err(err(defns_sx.span(), "`letrec` definitions must be a list"));
                    };
                    if body.is_empty() {
                        return Err(err(*span, "`letrec` needs a body"));
                    }
                    let mut types = Vec::new();
                    let mut vals = Vec::new();
                    for d in defn_list {
                        match defn(d)? {
                            Defn::Ty(t) => types.push(t),
                            Defn::Val(v) => vals.push(v),
                        }
                    }
                    let body = Expr::seq(body.iter().map(expr).collect::<Result<Vec<_>, _>>()?);
                    Ok(Expr::Letrec(std::sync::Arc::new(LetrecExpr { types, vals, body })))
                }
                Some("if") => match &items[1..] {
                    [c, t, e] => Ok(Expr::if_(expr(c)?, expr(t)?, expr(e)?)),
                    _ => Err(err(*span, "`if` is `(if expr expr expr)`")),
                },
                Some("begin") => {
                    if items.len() < 2 {
                        return Err(err(*span, "`begin` needs at least one expression"));
                    }
                    Ok(Expr::seq(items[1..].iter().map(expr).collect::<Result<Vec<_>, _>>()?))
                }
                Some("set!") => match &items[1..] {
                    [x, e] => Ok(Expr::set(name(x, "assignment target")?, expr(e)?)),
                    _ => Err(err(*span, "`set!` is `(set! x expr)`")),
                },
                Some("tuple") => {
                    Ok(Expr::Tuple(items[1..].iter().map(expr).collect::<Result<Vec<_>, _>>()?))
                }
                Some("proj") => match &items[1..] {
                    [SExpr::Int(i, ispan), e] => {
                        let i = usize::try_from(*i)
                            .map_err(|_| err(*ispan, "projection index must be non-negative"))?;
                        Ok(Expr::Proj(i, Box::new(expr(e)?)))
                    }
                    _ => Err(err(*span, "`proj` is `(proj i expr)`")),
                },
                Some("inst") => {
                    let [p, ty_args @ ..] = &items[1..] else {
                        return Err(err(*span, "`inst` is `(inst prim τ…)`"));
                    };
                    let Some(op) = p.as_atom().and_then(PrimOp::from_name) else {
                        return Err(err(p.span(), "`inst` expects a primitive name"));
                    };
                    let ty_args = ty_args.iter().map(ty).collect::<Result<Vec<_>, _>>()?;
                    if ty_args.len() != op.ty_arity() {
                        return Err(err(
                            *span,
                            format!(
                                "`{op}` takes {} type argument(s), found {}",
                                op.ty_arity(),
                                ty_args.len()
                            ),
                        ));
                    }
                    Ok(Expr::Prim(op, ty_args))
                }
                Some("unit") => unit_expr(&items[1..], *span),
                Some("compound") => compound_expr(&items[1..], *span),
                Some("invoke") => invoke_expr(&items[1..], *span),
                Some("seal") => match &items[1..] {
                    [e, t] => {
                        let sig = match ty(t)? {
                            Ty::Sig(sig) => *sig,
                            _ => return Err(err(t.span(), "`seal` expects a signature type")),
                        };
                        Ok(Expr::seal(expr(e)?, sig))
                    }
                    _ => Err(err(*span, "`seal` is `(seal expr sig-type)`")),
                },
                Some(word)
                    if is_reserved(word)
                        && PrimOp::from_name(word).is_none()
                        && !matches!(word, "true" | "false" | "void") =>
                {
                    Err(err(head.span(), format!("`{word}` form is malformed or misplaced")))
                }
                _ => {
                    let func = expr(head)?;
                    let args =
                        items[1..].iter().map(expr).collect::<Result<Vec<_>, _>>()?;
                    Ok(Expr::App(Box::new(func), args))
                }
            }
        }
    }
}

fn unit_expr(clauses: &[SExpr], span: Span) -> Result<Expr, ParseError> {
    let [imports_sx, exports_sx, rest @ ..] = clauses else {
        return Err(err(span, "`unit` needs `(import …)` and `(export …)` clauses"));
    };
    let imports = ports(
        imports_sx
            .as_tagged("import")
            .ok_or_else(|| err(imports_sx.span(), "expected `(import port…)`"))?,
    )?;
    let exports = ports(
        exports_sx
            .as_tagged("export")
            .ok_or_else(|| err(exports_sx.span(), "expected `(export port…)`"))?,
    )?;
    let mut types = Vec::new();
    let mut vals = Vec::new();
    let mut init = None;
    for (i, form) in rest.iter().enumerate() {
        if let Some(init_body) = form.as_tagged("init") {
            if i + 1 != rest.len() {
                return Err(err(form.span(), "`init` must be the last clause of a unit"));
            }
            if init_body.is_empty() {
                return Err(err(form.span(), "`init` needs at least one expression"));
            }
            init =
                Some(Expr::seq(init_body.iter().map(expr).collect::<Result<Vec<_>, _>>()?));
        } else {
            match defn(form)? {
                Defn::Ty(t) => types.push(t),
                Defn::Val(v) => vals.push(v),
            }
        }
    }
    Ok(Expr::unit(UnitExpr {
        imports,
        exports,
        types,
        vals,
        init: init.unwrap_or_else(Expr::void),
    }))
}

fn compound_expr(clauses: &[SExpr], span: Span) -> Result<Expr, ParseError> {
    let [imports_sx, exports_sx, link_sx] = clauses else {
        return Err(err(span, "`compound` is `(compound (import …) (export …) (link clause…))`"));
    };
    let imports = ports(
        imports_sx
            .as_tagged("import")
            .ok_or_else(|| err(imports_sx.span(), "expected `(import port…)`"))?,
    )?;
    let exports = ports(
        exports_sx
            .as_tagged("export")
            .ok_or_else(|| err(exports_sx.span(), "expected `(export port…)`"))?,
    )?;
    let link_items = link_sx
        .as_tagged("link")
        .ok_or_else(|| err(link_sx.span(), "expected `(link clause…)`"))?;
    let links = link_items
        .iter()
        .map(|clause| {
            let Some([e, opts @ ..]) = clause.as_list() else {
                return Err(err(clause.span(), "link clauses are `(expr [(with …)] [(provides …)])`"));
            };
            let mut with = Ports::new();
            let mut provides = Ports::new();
            let mut renames = LinkRenames::default();
            for opt in opts {
                if let Some(w) = opt.as_tagged("with") {
                    let (p, val_pairs, ty_pairs) = link_ports(w)?;
                    with = p;
                    renames.import_vals = val_pairs;
                    renames.import_tys = ty_pairs;
                } else if let Some(p) = opt.as_tagged("provides") {
                    let (ps, val_pairs, ty_pairs) = link_ports(p)?;
                    provides = ps;
                    renames.export_vals = val_pairs;
                    renames.export_tys = ty_pairs;
                } else {
                    return Err(err(opt.span(), "expected `(with …)` or `(provides …)`"));
                }
            }
            Ok(LinkClause { expr: expr(e)?, with, provides, renames })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Expr::compound(CompoundExpr::new(imports, exports, links)))
}

/// Ports in `with`/`provides` clauses, which additionally allow MzScheme's
/// source/destination pairs: `(as inner outer [τ])` for value ports and
/// `(as-type inner outer [κ])` for type ports. Returns the ports (under
/// their inner names) plus the value and type rename pairs.
#[allow(clippy::type_complexity)]
fn link_ports(
    items: &[SExpr],
) -> Result<(Ports, Vec<(Symbol, Symbol)>, Vec<(Symbol, Symbol)>), ParseError> {
    let mut plain = Vec::new();
    let mut out = Ports::new();
    let mut val_pairs = Vec::new();
    let mut ty_pairs = Vec::new();
    for item in items {
        if let Some(rest) = item.as_tagged("as") {
            match rest {
                [inner, outer] => {
                    let inner = name(inner, "port")?;
                    val_pairs.push((inner.clone(), name(outer, "port")?));
                    out.vals.push(ValPort::untyped(inner));
                }
                [inner, outer, t] => {
                    let inner = name(inner, "port")?;
                    val_pairs.push((inner.clone(), name(outer, "port")?));
                    out.vals.push(ValPort::typed(inner, ty(t)?));
                }
                _ => return Err(err(item.span(), "`as` links are `(as inner outer [τ])`")),
            }
        } else if let Some(rest) = item.as_tagged("as-type") {
            match rest {
                [inner, outer] => {
                    let inner = name(inner, "type port")?;
                    ty_pairs.push((inner.clone(), name(outer, "type port")?));
                    out.types.push(TyPort::star(inner));
                }
                [inner, outer, k] => {
                    let inner = name(inner, "type port")?;
                    ty_pairs.push((inner.clone(), name(outer, "type port")?));
                    out.types.push(TyPort { name: inner, kind: kind(k)? });
                }
                _ => {
                    return Err(err(
                        item.span(),
                        "`as-type` links are `(as-type inner outer [κ])`",
                    ))
                }
            }
        } else {
            plain.push(item);
        }
    }
    let mut plain_ports = Ports::new();
    for item in plain {
        port(item, &mut plain_ports)?;
    }
    out.types.extend(plain_ports.types);
    out.vals.extend(plain_ports.vals);
    Ok((out, val_pairs, ty_pairs))
}

fn invoke_expr(clauses: &[SExpr], span: Span) -> Result<Expr, ParseError> {
    let [target, links @ ..] = clauses else {
        return Err(err(span, "`invoke` is `(invoke expr link…)`"));
    };
    let mut ty_links = Vec::new();
    let mut val_links = Vec::new();
    for link in links {
        if let Some(rest) = link.as_tagged("type") {
            match rest {
                [t, t_actual] => ty_links.push((name(t, "type link")?, ty(t_actual)?)),
                _ => return Err(err(link.span(), "type links are `(type t τ)`")),
            }
        } else if let Some(rest) = link.as_tagged("val") {
            match rest {
                [x, e] => val_links.push((name(x, "value link")?, expr(e)?)),
                _ => return Err(err(link.span(), "value links are `(val x expr)`")),
            }
        } else {
            return Err(err(link.span(), "invoke links are `(type t τ)` or `(val x expr)`"));
        }
    }
    Ok(Expr::invoke(InvokeExpr { target: expr(target)?, ty_links, val_links }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_literals_and_vars() {
        assert_eq!(parse_expr("42").unwrap(), Expr::int(42));
        assert_eq!(parse_expr("true").unwrap(), Expr::bool(true));
        assert_eq!(parse_expr("void").unwrap(), Expr::void());
        assert_eq!(parse_expr("\"hi\"").unwrap(), Expr::str("hi"));
        assert_eq!(parse_expr("x").unwrap(), Expr::var("x"));
    }

    #[test]
    fn prims_parse_as_prims_not_vars() {
        assert_eq!(parse_expr("+").unwrap(), Expr::prim(PrimOp::Add));
        assert_eq!(
            parse_expr("(+ 1 2)").unwrap(),
            Expr::prim2(PrimOp::Add, Expr::int(1), Expr::int(2))
        );
    }

    #[test]
    fn inst_carries_type_arguments() {
        match parse_expr("(inst hash-new int)").unwrap() {
            Expr::Prim(PrimOp::HashNew, tys) => assert_eq!(tys, vec![Ty::Int]),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_expr("(inst hash-new)").is_err());
        assert!(parse_expr("(inst + int)").is_err());
    }

    #[test]
    fn lambda_bodies_sequence() {
        match parse_expr("(lambda (x (y int)) (display \"a\") x)").unwrap() {
            Expr::Lambda(lam) => {
                assert_eq!(lam.params.len(), 2);
                assert_eq!(lam.params[1].ty, Some(Ty::Int));
                assert!(matches!(lam.body, Expr::Seq(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn reserved_words_cannot_bind() {
        assert!(parse_expr("(lambda (unit) unit)").is_err());
        assert!(parse_expr("(let ((+ 1)) 2)").is_err());
        assert!(parse_expr("(set! define 1)").is_err());
    }

    #[test]
    fn parses_unit_with_defns_and_init() {
        let src = "(unit (import (type info) (error (-> str void)))
                         (export (new (-> db)))
                         (datatype db (mk unmk (hash info)) (no unno void) db?)
                         (define new (-> db) (lambda () (mk (inst hash-new info))))
                         (init (display \"up\")))";
        match parse_expr(src).unwrap() {
            Expr::Unit(u) => {
                assert_eq!(u.imports.types.len(), 1);
                assert_eq!(u.imports.vals.len(), 1);
                assert_eq!(u.types.len(), 1);
                assert_eq!(u.vals.len(), 1);
                assert!(matches!(u.init, Expr::App(..)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unit_init_defaults_to_void_and_must_be_last() {
        match parse_expr("(unit (import) (export))").unwrap() {
            Expr::Unit(u) => assert_eq!(u.init, Expr::void()),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_expr("(unit (import) (export) (init 1) (define x 2))").is_err());
    }

    #[test]
    fn parses_compound_links() {
        let src = "(compound (import a) (export b)
                      (link (u1 (with a) (provides c))
                            (u2 (with c) (provides b))))";
        match parse_expr(src).unwrap() {
            Expr::Compound(c) => {
                assert_eq!(c.links.len(), 2);
                assert_eq!(c.links[0].provides.vals[0].name.as_str(), "c");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_invoke_links() {
        let src = "(invoke u (type info int) (val error (lambda (s) void)))";
        match parse_expr(src).unwrap() {
            Expr::Invoke(inv) => {
                assert_eq!(inv.ty_links.len(), 1);
                assert_eq!(inv.ty_links[0].1, Ty::Int);
                assert_eq!(inv.val_links.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_types() {
        assert_eq!(parse_ty("(-> int bool)").unwrap(), Ty::arrow(vec![Ty::Int], Ty::Bool));
        assert_eq!(parse_ty("(-> str)").unwrap(), Ty::thunk(Ty::Str));
        assert_eq!(parse_ty("(hash info)").unwrap(), Ty::hash(Ty::var("info")));
        assert_eq!(
            parse_ty("(tuple int str)").unwrap(),
            Ty::Tuple(vec![Ty::Int, Ty::Str])
        );
    }

    #[test]
    fn parses_signatures_with_depends_and_where() {
        let sig = parse_signature(
            "(sig (import (type a)) (export (type b) (f (-> a b)))
                  (init void) (depends (b a)) (where (c (-> a a))))",
        )
        .unwrap();
        assert_eq!(sig.depends, vec![Depend::new("b", "a")]);
        assert_eq!(sig.equations.len(), 1);
        assert_eq!(sig.init_ty, Ty::Void);
    }

    #[test]
    fn parse_file_wraps_defns_in_letrec() {
        let e = parse_file("(define x 1) (define y 2) (+ x y)").unwrap();
        match e {
            Expr::Letrec(lr) => {
                assert_eq!(lr.vals.len(), 2);
                assert!(matches!(lr.body, Expr::App(..)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_file_without_defns_is_plain_expr() {
        assert_eq!(parse_file("(+ 1 2)").unwrap(), parse_expr("(+ 1 2)").unwrap());
        assert_eq!(parse_file("").unwrap(), Expr::void());
    }

    #[test]
    fn defun_sugar_builds_lambda() {
        let e = parse_file("(defun (id x) x) (id 3)").unwrap();
        match e {
            Expr::Letrec(lr) => assert!(matches!(lr.vals[0].body, Expr::Lambda(_))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn alias_and_kinds() {
        let e = parse_file("(alias env (-> str int)) void").unwrap();
        match e {
            Expr::Letrec(lr) => match &lr.types[0] {
                TypeDefn::Alias(a) => {
                    assert_eq!(a.kind, Kind::Star);
                    assert_eq!(a.body, Ty::arrow(vec![Ty::Str], Ty::Int));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
        // explicit kind
        let e = parse_file("(alias t (=> * * *) (-> int int)) void").unwrap();
        match e {
            Expr::Letrec(lr) => match &lr.types[0] {
                TypeDefn::Alias(a) => assert_eq!(a.kind.arity(), 2),
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn seal_requires_signature_type() {
        assert!(parse_expr("(seal u (sig (import) (export)))").is_ok());
        assert!(parse_expr("(seal u int)").is_err());
    }

    /// `n` copies of `open`, then `leaf`, then `n` copies of `close`.
    fn nest(open: &str, leaf: &str, close: &str, n: usize) -> String {
        format!("{}{leaf}{}", open.repeat(n), close.repeat(n))
    }

    #[test]
    fn nesting_is_capped_at_every_entry_point() {
        use crate::sexpr::MAX_NESTING as CAP;
        // A signature's port sits three lists deep, so its kind's arrows
        // (one per component after the first) fill the rest.
        let stars = |n: usize| vec!["*"; n].join(" ");
        let kinded = |n: usize| format!("(sig (import (type t (=> {}))) (export))", stars(n));
        type Entry = fn(&str) -> Result<(), ParseError>;
        let rows: [(&str, Entry, String, String); 5] = [
            (
                "parse_file",
                |s| parse_file(s).map(drop),
                nest("(begin ", "1", ")", CAP),
                nest("(begin ", "1", ")", CAP + 1),
            ),
            (
                "parse_expr",
                |s| parse_expr(s).map(drop),
                nest("(proj 0 (tuple ", "1", "))", CAP / 2),
                format!("(begin {})", nest("(proj 0 (tuple ", "1", "))", CAP / 2)),
            ),
            (
                "parse_ty",
                |s| parse_ty(s).map(drop),
                nest("(-> ", "int", ")", CAP),
                nest("(-> ", "int", ")", CAP + 1),
            ),
            (
                "parse_signature",
                |s| parse_signature(s).map(drop),
                format!("(sig (import) (export (f {})))", nest("(-> ", "int", ")", CAP - 3)),
                format!("(sig (import) (export (f {})))", nest("(-> ", "int", ")", CAP - 2)),
            ),
            ("parse_signature (kind)", |s| parse_signature(s).map(drop), kinded(CAP - 2), kinded(CAP - 1)),
        ];
        // Unoptimized, the parser alone outgrows a 2 MiB test thread
        // before the cap; pipeline threads get 8 MiB (see
        // `units::PIPELINE_STACK_SIZE`).
        let check = move || {
            for (entry, parse, at_cap, past_cap) in rows {
                parse(&at_cap).unwrap_or_else(|e| panic!("{entry} at the cap: {e}"));
                let e = parse(&past_cap).expect_err(entry);
                assert_eq!(e.message, format!("forms nest deeper than {CAP} levels"), "{entry}");
            }
        };
        std::thread::Builder::new().stack_size(8 << 20).spawn(check).unwrap().join().unwrap();
    }

    #[test]
    fn error_positions_are_reported() {
        let src = "(lambda (x)\n  (set! if 1))";
        let e = parse_expr(src).unwrap_err();
        let (line, _) = e.span.line_col(src);
        assert_eq!(line, 2);
    }
}
