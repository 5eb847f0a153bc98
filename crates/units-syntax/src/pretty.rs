//! Pretty-printer: kernel AST → surface syntax.
//!
//! Output is guaranteed to re-parse to an equal term (round-trip property,
//! round-trip tested here and in `tests/properties.rs`) for every form
//! the parser can produce. Machine-internal forms (locations, cell
//! references, datatype operations, variants) are printed as `#⟨…⟩`
//! pseudo-syntax for debugging and do not re-parse.

use std::fmt::Write as _;

use units_kernel::{Expr, Kind, Lit, Ports, Signature, Ty, TypeDefn, UnitExpr, ValDefn};

/// Renders an expression as parseable surface syntax.
///
/// # Examples
///
/// ```
/// use units_syntax::{parse_expr, pretty_expr};
/// let e = parse_expr("(if (< 1 2) \"yes\" \"no\")")?;
/// assert_eq!(pretty_expr(&e), "(if (< 1 2) \"yes\" \"no\")");
/// # Ok::<(), units_syntax::ParseError>(())
/// ```
pub fn pretty_expr(expr: &Expr) -> String {
    let mut out = String::new();
    write_expr(&mut out, expr);
    out
}

/// Renders a type as parseable surface syntax.
pub fn pretty_ty(ty: &Ty) -> String {
    let mut out = String::new();
    write_ty(&mut out, ty);
    out
}

/// Renders a signature as a parseable `(sig …)` type.
pub fn pretty_signature(sig: &Signature) -> String {
    let mut out = String::new();
    write_sig(&mut out, sig);
    out
}

fn write_str_lit(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            other => out.push(other),
        }
    }
    out.push('"');
}

fn write_kind(out: &mut String, kind: &Kind) {
    match kind {
        Kind::Star => out.push('*'),
        Kind::Arrow(from, to) => {
            out.push_str("(=> ");
            write_kind(out, from);
            out.push(' ');
            write_kind(out, to);
            out.push(')');
        }
    }
}

fn write_ty(out: &mut String, ty: &Ty) {
    match ty {
        Ty::Var(t) => out.push_str(t.as_str()),
        Ty::Int => out.push_str("int"),
        Ty::Bool => out.push_str("bool"),
        Ty::Str => out.push_str("str"),
        Ty::Void => out.push_str("void"),
        Ty::Arrow(params, ret) => {
            out.push_str("(->");
            for p in params {
                out.push(' ');
                write_ty(out, p);
            }
            out.push(' ');
            write_ty(out, ret);
            out.push(')');
        }
        Ty::Tuple(items) => {
            out.push_str("(tuple");
            for i in items {
                out.push(' ');
                write_ty(out, i);
            }
            out.push(')');
        }
        Ty::Hash(elem) => {
            out.push_str("(hash ");
            write_ty(out, elem);
            out.push(')');
        }
        Ty::Sig(sig) => write_sig(out, sig),
    }
}

fn write_sig(out: &mut String, sig: &Signature) {
    out.push_str("(sig ");
    write_ports(out, "import", &sig.imports);
    out.push(' ');
    write_ports(out, "export", &sig.exports);
    out.push_str(" (init ");
    write_ty(out, &sig.init_ty);
    out.push(')');
    if !sig.depends.is_empty() {
        out.push_str(" (depends");
        for d in &sig.depends {
            let _ = write!(out, " ({} {})", d.export, d.import);
        }
        out.push(')');
    }
    if !sig.equations.is_empty() {
        out.push_str(" (where");
        for eq in &sig.equations {
            let _ = write!(out, " ({} ", eq.name);
            write_kind(out, &eq.kind);
            out.push(' ');
            write_ty(out, &eq.body);
            out.push(')');
        }
        out.push(')');
    }
    out.push(')');
}

fn write_ports(out: &mut String, label: &str, ports: &Ports) {
    out.push('(');
    out.push_str(label);
    for t in &ports.types {
        if t.kind.is_star() {
            let _ = write!(out, " (type {})", t.name);
        } else {
            let _ = write!(out, " (type {} ", t.name);
            write_kind(out, &t.kind);
            out.push(')');
        }
    }
    for v in &ports.vals {
        match &v.ty {
            None => {
                let _ = write!(out, " {}", v.name);
            }
            Some(ty) => {
                let _ = write!(out, " ({} ", v.name);
                write_ty(out, ty);
                out.push(')');
            }
        }
    }
    out.push(')');
}

/// Ports of a `with`/`provides` clause: renamed ports print as
/// `(as inner outer [τ])` / `(as-type inner outer [κ])`.
fn write_link_ports(
    out: &mut String,
    label: &str,
    ports: &Ports,
    renames: &units_kernel::LinkRenames,
    importing: bool,
) {
    out.push('(');
    out.push_str(label);
    for t in &ports.types {
        let outer = if importing {
            renames.outer_import_ty(&t.name)
        } else {
            renames.outer_export_ty(&t.name)
        };
        if outer != &t.name {
            let _ = write!(out, " (as-type {} {}", t.name, outer);
            if !t.kind.is_star() {
                out.push(' ');
                write_kind(out, &t.kind);
            }
            out.push(')');
        } else if t.kind.is_star() {
            let _ = write!(out, " (type {})", t.name);
        } else {
            let _ = write!(out, " (type {} ", t.name);
            write_kind(out, &t.kind);
            out.push(')');
        }
    }
    for v in &ports.vals {
        let outer = if importing {
            renames.outer_import_val(&v.name)
        } else {
            renames.outer_export_val(&v.name)
        };
        if outer != &v.name {
            let _ = write!(out, " (as {} {}", v.name, outer);
            if let Some(ty) = &v.ty {
                out.push(' ');
                write_ty(out, ty);
            }
            out.push(')');
        } else {
            match &v.ty {
                None => {
                    let _ = write!(out, " {}", v.name);
                }
                Some(ty) => {
                    let _ = write!(out, " ({} ", v.name);
                    write_ty(out, ty);
                    out.push(')');
                }
            }
        }
    }
    out.push(')');
}

fn write_typedefn(out: &mut String, td: &TypeDefn) {
    match td {
        TypeDefn::Data(d) => {
            let _ = write!(out, "(datatype {}", d.name);
            for v in &d.variants {
                let _ = write!(out, " ({} {} ", v.ctor, v.dtor);
                write_ty(out, &v.payload);
                out.push(')');
            }
            let _ = write!(out, " {})", d.predicate);
        }
        TypeDefn::Alias(a) => {
            let _ = write!(out, "(alias {} ", a.name);
            write_kind(out, &a.kind);
            out.push(' ');
            write_ty(out, &a.body);
            out.push(')');
        }
    }
}

fn write_valdefn(out: &mut String, vd: &ValDefn) {
    let _ = write!(out, "(define {} ", vd.name);
    if let Some(ty) = &vd.ty {
        write_ty(out, ty);
        out.push(' ');
    }
    write_expr(out, &vd.body);
    out.push(')');
}

/// Writes a body expression, splicing top-level `Seq` into several forms.
fn write_body(out: &mut String, body: &Expr) {
    match body {
        Expr::Seq(items) => {
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                write_expr(out, item);
            }
        }
        other => write_expr(out, other),
    }
}

fn write_unit(out: &mut String, u: &UnitExpr) {
    out.push_str("(unit ");
    write_ports(out, "import", &u.imports);
    out.push(' ');
    write_ports(out, "export", &u.exports);
    for td in &u.types {
        out.push(' ');
        write_typedefn(out, td);
    }
    for vd in &u.vals {
        out.push(' ');
        write_valdefn(out, vd);
    }
    out.push_str(" (init ");
    write_body(out, &u.init);
    out.push_str("))");
}

fn write_expr(out: &mut String, expr: &Expr) {
    match expr {
        // A resolved variable prints as its plain name: the address is
        // derived data, and the result stays re-parseable.
        Expr::Var(x) | Expr::VarAt(x, _) => out.push_str(x.as_str()),
        Expr::Lit(Lit::Int(n)) => {
            let _ = write!(out, "{n}");
        }
        Expr::Lit(Lit::Bool(b)) => out.push_str(if *b { "true" } else { "false" }),
        Expr::Lit(Lit::Str(s)) => write_str_lit(out, s),
        Expr::Lit(Lit::Void) => out.push_str("void"),
        Expr::Prim(op, tys) => {
            if tys.is_empty() {
                out.push_str(op.name());
            } else {
                let _ = write!(out, "(inst {}", op.name());
                for t in tys {
                    out.push(' ');
                    write_ty(out, t);
                }
                out.push(')');
            }
        }
        Expr::Lambda(lam) => {
            out.push_str("(lambda (");
            for (i, p) in lam.params.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                match &p.ty {
                    None => out.push_str(p.name.as_str()),
                    Some(ty) => {
                        let _ = write!(out, "({} ", p.name);
                        write_ty(out, ty);
                        out.push(')');
                    }
                }
            }
            out.push_str(") ");
            write_body(out, &lam.body);
            out.push(')');
        }
        Expr::App(f, args) => {
            out.push('(');
            write_expr(out, f);
            for a in args {
                out.push(' ');
                write_expr(out, a);
            }
            out.push(')');
        }
        Expr::If(c, t, e) => {
            out.push_str("(if ");
            write_expr(out, c);
            out.push(' ');
            write_expr(out, t);
            out.push(' ');
            write_expr(out, e);
            out.push(')');
        }
        Expr::Seq(items) => {
            out.push_str("(begin");
            for i in items {
                out.push(' ');
                write_expr(out, i);
            }
            out.push(')');
        }
        Expr::Let(bindings, body) => {
            out.push_str("(let (");
            for (i, b) in bindings.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                let _ = write!(out, "({} ", b.name);
                write_expr(out, &b.expr);
                out.push(')');
            }
            out.push_str(") ");
            write_body(out, body);
            out.push(')');
        }
        Expr::Letrec(lr) => {
            out.push_str("(letrec (");
            let mut first = true;
            for td in &lr.types {
                if !first {
                    out.push(' ');
                }
                first = false;
                write_typedefn(out, td);
            }
            for vd in &lr.vals {
                if !first {
                    out.push(' ');
                }
                first = false;
                write_valdefn(out, vd);
            }
            out.push_str(") ");
            write_body(out, &lr.body);
            out.push(')');
        }
        Expr::Set(target, value) => match &**target {
            Expr::Var(x) | Expr::VarAt(x, _) => {
                let _ = write!(out, "(set! {x} ");
                write_expr(out, value);
                out.push(')');
            }
            other => {
                out.push_str("#⟨set ");
                write_expr(out, other);
                out.push(' ');
                write_expr(out, value);
                out.push('⟩');
            }
        },
        Expr::Tuple(items) => {
            out.push_str("(tuple");
            for i in items {
                out.push(' ');
                write_expr(out, i);
            }
            out.push(')');
        }
        Expr::Proj(i, e) => {
            let _ = write!(out, "(proj {i} ");
            write_expr(out, e);
            out.push(')');
        }
        Expr::Unit(u) => write_unit(out, u),
        Expr::Compound(c) => {
            out.push_str("(compound ");
            write_ports(out, "import", &c.imports);
            out.push(' ');
            write_ports(out, "export", &c.exports);
            out.push_str(" (link");
            for link in &c.links {
                out.push_str(" (");
                write_expr(out, &link.expr);
                out.push(' ');
                write_link_ports(out, "with", &link.with, &link.renames, true);
                out.push(' ');
                write_link_ports(out, "provides", &link.provides, &link.renames, false);
                out.push(')');
            }
            out.push_str("))");
        }
        Expr::Invoke(inv) => {
            out.push_str("(invoke ");
            write_expr(out, &inv.target);
            for (t, ty) in &inv.ty_links {
                let _ = write!(out, " (type {t} ");
                write_ty(out, ty);
                out.push(')');
            }
            for (x, e) in &inv.val_links {
                let _ = write!(out, " (val {x} ");
                write_expr(out, e);
                out.push(')');
            }
            out.push(')');
        }
        Expr::Seal(e, sig) => {
            out.push_str("(seal ");
            write_expr(out, e);
            out.push(' ');
            write_sig(out, sig);
            out.push(')');
        }
        Expr::Loc(l) => {
            let _ = write!(out, "#⟨{l}⟩");
        }
        Expr::CellRef(l) => {
            let _ = write!(out, "#⟨cell {l}⟩");
        }
        Expr::Data(d) => {
            let _ = write!(out, "#⟨data {} {:?}@{}⟩", d.ty_name, d.role, d.instance);
        }
        Expr::Variant(v) => {
            let _ = write!(out, "#⟨{}@{}·{} ", v.ty_name, v.instance, v.tag);
            write_expr(out, &v.payload);
            out.push('⟩');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_ty};

    fn round_trip(src: &str) {
        let e = parse_expr(src).unwrap();
        let printed = pretty_expr(&e);
        let reparsed =
            parse_expr(&printed).unwrap_or_else(|err| panic!("reparse `{printed}`: {err}"));
        assert_eq!(e, reparsed, "round-trip changed term for `{src}` → `{printed}`");
    }

    #[test]
    fn round_trips_core_forms() {
        round_trip("42");
        round_trip("(lambda (x) x)");
        round_trip("(lambda ((x int) y) (begin x y))");
        round_trip("(let ((x 1) (y 2)) (+ x y))");
        round_trip("(letrec ((define f (lambda (n) (f n)))) (f 1))");
        round_trip("(if true \"a\\n\" \"b\")");
        round_trip("(set! cell (tuple 1 2))");
        round_trip("(proj 1 (tuple 1 2))");
        round_trip("(inst hash-new (hash int))");
    }

    #[test]
    fn round_trips_unit_forms() {
        round_trip(
            "(unit (import (type info) (error (-> str void)))
                   (export (new (-> db)))
                   (datatype db (mk unmk (hash info)) (no unno void) db?)
                   (define new (-> db) (lambda () (mk (inst hash-new info))))
                   (init (display \"up\") void))",
        );
        round_trip(
            "(compound (import a) (export b)
               (link (u1 (with a) (provides c)) (u2 (with c) (provides b))))",
        );
        round_trip("(invoke u (type info int) (val error f))");
        round_trip("(seal u (sig (import (type t)) (export) (init void) (depends (t t))))");
        round_trip("(letrec ((alias env (=> * *) (-> str int))) void)");
    }

    #[test]
    fn pretty_ty_round_trips() {
        for src in [
            "int",
            "(-> int bool)",
            "(hash (tuple int str))",
            "(sig (import (type t) (x t)) (export (y (-> t t))) (init int))",
        ] {
            let t = parse_ty(src).unwrap();
            assert_eq!(parse_ty(&pretty_ty(&t)).unwrap(), t, "src: {src}");
        }
    }

    #[test]
    fn machine_forms_print_as_pseudo_syntax() {
        let printed = pretty_expr(&Expr::Loc(units_kernel::Loc(3)));
        assert!(printed.contains("ℓ3"));
        assert!(parse_expr(&printed).is_err());
    }
}

/// Renders an expression as indented, line-wrapped surface syntax.
///
/// Output re-parses to the same term (it is the flat printer's output,
/// re-broken at S-expression boundaries). Lists that fit within `width`
/// columns stay on one line; longer ones break with two-space indents.
///
/// # Examples
///
/// ```
/// use units_syntax::{parse_expr, pretty_expr_indent};
/// let e = parse_expr("(unit (import a b c) (export d)
///                       (define d (lambda () (+ a (+ b c)))))").unwrap();
/// let text = pretty_expr_indent(&e, 40);
/// assert!(text.lines().count() > 1);
/// assert_eq!(parse_expr(&text).unwrap(), e);
/// ```
pub fn pretty_expr_indent(expr: &Expr, width: usize) -> String {
    let flat = pretty_expr(expr);
    match crate::sexpr::read_one(&flat) {
        Ok(sx) => {
            let mut out = String::new();
            write_sexpr_indent(&mut out, &sx, 0, width);
            out
        }
        // Machine-internal forms don't re-parse; fall back to flat text.
        Err(_) => flat,
    }
}

fn sexpr_flat_len(sx: &crate::sexpr::SExpr) -> usize {
    sx.to_string().chars().count()
}

fn write_sexpr_indent(out: &mut String, sx: &crate::sexpr::SExpr, indent: usize, width: usize) {
    use crate::sexpr::SExpr;
    let budget = width.saturating_sub(indent);
    if sexpr_flat_len(sx) <= budget {
        let _ = write!(out, "{sx}");
        return;
    }
    match sx {
        SExpr::List(items, _) if !items.is_empty() => {
            out.push('(');
            // Keep the head (and a short second element, e.g. a name after
            // `define`) on the opening line.
            write_sexpr_indent(out, &items[0], indent + 1, width);
            let mut rest = &items[1..];
            if let (Some(second), true) = (rest.first(), rest.len() > 1) {
                if matches!(second, SExpr::Atom(..)) {
                    out.push(' ');
                    let _ = write!(out, "{second}");
                    rest = &rest[1..];
                }
            }
            for item in rest {
                out.push('\n');
                for _ in 0..indent + 2 {
                    out.push(' ');
                }
                write_sexpr_indent(out, item, indent + 2, width);
            }
            out.push(')');
        }
        other => {
            let _ = write!(out, "{other}");
        }
    }
}

#[cfg(test)]
mod indent_tests {
    use super::*;
    use crate::parser::parse_expr;

    #[test]
    fn indented_output_reparses_to_the_same_term() {
        let srcs = [
            "(unit (import error) (export new insert delete)
               (define new (lambda () 1))
               (define insert (lambda (d k v) void))
               (define delete (lambda (d k) void))
               (init (display \"a long initialization message here\")))",
            "(compound (import a) (export b)
               (link ((unit (import a) (export b) (define b (lambda () a)))
                      (with a) (provides b))))",
        ];
        for src in srcs {
            let e = parse_expr(src).unwrap();
            for width in [20, 40, 60, 100] {
                let text = pretty_expr_indent(&e, width);
                assert_eq!(parse_expr(&text).unwrap(), e, "width {width}:\n{text}");
            }
        }
    }

    #[test]
    fn short_terms_stay_on_one_line() {
        let e = parse_expr("(+ 1 2)").unwrap();
        assert_eq!(pretty_expr_indent(&e, 80), "(+ 1 2)");
    }

    #[test]
    fn long_lines_are_broken_within_width_mostly() {
        let e = parse_expr("(lambda (a b c) (begin (display \"x\") (+ a (+ b (+ c 1)))))").unwrap();
        let text = pretty_expr_indent(&e, 30);
        assert!(text.lines().count() >= 3, "{text}");
    }
}
