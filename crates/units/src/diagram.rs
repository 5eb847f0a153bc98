//! ASCII rendering of the paper's semi-graphical notation.
//!
//! The paper draws a unit as a box with three sections — imports on top,
//! definitions and the initialization expression in the middle, exports
//! at the bottom (Fig. 1) — and draws linking by connecting boxes
//! (Figs. 2/3). [`render`] produces the textual equivalent, which the
//! `units-repl --diagram` flag prints. (The graphical editor the paper
//! mentions is substituted by this renderer; DESIGN.md §6.)

use std::fmt::Write as _;

use units_kernel::{Expr, Ports, TypeDefn, UnitExpr};

/// Renders a unit or compound expression as a box diagram; other
/// expressions render as a one-line summary.
///
/// # Examples
///
/// ```
/// use units::{diagram, parse_expr};
/// let unit = parse_expr(
///     "(unit (import error) (export new) (define new (lambda () 1)))",
/// ).unwrap();
/// let picture = diagram::render(&unit);
/// assert!(picture.contains("error"));
/// assert!(picture.contains("new"));
/// assert!(picture.starts_with('┌'));
/// ```
pub fn render(expr: &Expr) -> String {
    match expr {
        Expr::Unit(u) => render_lines(&unit_lines(u)).join("\n"),
        Expr::Compound(c) => {
            let mut out = String::new();
            let _ = writeln!(out, "compound");
            let _ = writeln!(out, "  imports: {}", ports_line(&c.imports));
            let _ = writeln!(out, "  exports: {}", ports_line(&c.exports));
            for (i, link) in c.links.iter().enumerate() {
                let _ = writeln!(out, "  constituent {i}:");
                let inner = match &link.expr {
                    Expr::Unit(u) => render_lines(&unit_lines(u)),
                    other => vec![format!("⟨{}⟩", summary(other))],
                };
                for line in inner {
                    let _ = writeln!(out, "    {line}");
                }
                for port in &link.with.vals {
                    let outer = link.renames.outer_import_val(&port.name);
                    let _ = writeln!(out, "      ◀── {} (from {outer})", port.name);
                }
                for port in &link.provides.vals {
                    let outer = link.renames.outer_export_val(&port.name);
                    let _ = writeln!(out, "      ──▶ {} (as {outer})", port.name);
                }
            }
            out.pop();
            out
        }
        other => summary(other),
    }
}

fn summary(expr: &Expr) -> String {
    match expr {
        Expr::Var(x) => format!("unit variable `{x}`"),
        Expr::Invoke(_) => "invoke expression".to_string(),
        Expr::Seal(inner, _) => format!("sealed {}", summary(inner)),
        _ => "expression".to_string(),
    }
}

fn ports_line(ports: &Ports) -> String {
    let mut parts = Vec::new();
    for t in &ports.types {
        parts.push(format!("{}::{}", t.name, t.kind));
    }
    for v in &ports.vals {
        match &v.ty {
            Some(ty) => parts.push(format!("{}:{}", v.name, ty)),
            None => parts.push(v.name.as_str().to_string()),
        }
    }
    if parts.is_empty() {
        "(none)".to_string()
    } else {
        parts.join("  ")
    }
}

/// The three box sections of Fig. 1, as raw lines.
fn unit_lines(u: &UnitExpr) -> Vec<Section> {
    let mut imports = Vec::new();
    for t in &u.imports.types {
        imports.push(format!("{}::{}", t.name, t.kind));
    }
    for v in &u.imports.vals {
        match &v.ty {
            Some(ty) => imports.push(format!("{}:{}", v.name, ty)),
            None => imports.push(v.name.as_str().to_string()),
        }
    }
    let mut middle = Vec::new();
    for td in &u.types {
        match td {
            TypeDefn::Data(d) => middle.push(format!(
                "type {} = {}",
                d.name,
                d.variants
                    .iter()
                    .map(|v| format!("{} {}", v.ctor, &v.payload))
                    .collect::<Vec<_>>()
                    .join(" | ")
            )),
            TypeDefn::Alias(a) => middle.push(format!("type {} = {}", a.name, &a.body)),
        }
    }
    for d in &u.vals {
        match &d.ty {
            Some(ty) => middle.push(format!("val {} : {}", d.name, ty)),
            None => middle.push(format!("val {} = …", d.name)),
        }
    }
    if u.init != Expr::void() {
        middle.push("⟨initialization expression⟩".to_string());
    }
    let mut exports = Vec::new();
    for t in &u.exports.types {
        exports.push(format!("{}::{}", t.name, t.kind));
    }
    for v in &u.exports.vals {
        match &v.ty {
            Some(ty) => exports.push(format!("{}:{}", v.name, ty)),
            None => exports.push(v.name.as_str().to_string()),
        }
    }
    vec![imports, middle, exports]
}

type Section = Vec<String>;

/// Draws the three sections as a single box with separators.
fn render_lines(sections: &[Section]) -> Vec<String> {
    let width = sections.iter().flatten().map(|l| l.chars().count()).max().unwrap_or(0).max(8);
    let horiz = |l: char, m: char, r: char| {
        let mut s = String::new();
        s.push(l);
        for _ in 0..width + 2 {
            s.push(m);
        }
        s.push(r);
        s
    };
    let mut out = vec![horiz('┌', '─', '┐')];
    for (i, section) in sections.iter().enumerate() {
        if i > 0 {
            out.push(horiz('├', '─', '┤'));
        }
        if section.is_empty() {
            out.push(format!("│ {:<width$} │", "", width = width));
        }
        for line in section {
            let pad = width - line.chars().count();
            out.push(format!("│ {line}{} │", " ".repeat(pad)));
        }
    }
    out.push(horiz('└', '─', '┘'));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use units_syntax::parse_expr;

    #[test]
    fn unit_boxes_have_three_sections() {
        let u = parse_expr(
            "(unit (import (type info) (error (-> str void)))
                   (export (new (-> db)))
               (datatype db (mk unmk int) db?)
               (define new (-> db) (lambda () (mk 1)))
               (init (display \"up\")))",
        )
        .unwrap();
        let picture = render(&u);
        // Three sections → two separators.
        assert_eq!(picture.matches('├').count(), 2);
        assert!(picture.contains("info::Ω"));
        assert!(picture.contains("error:str→void"));
        assert!(picture.contains("type db"));
        assert!(picture.contains("new:"));
        assert!(picture.contains("initialization"));
        // All lines align.
        let widths: Vec<usize> = picture.lines().map(|l| l.chars().count()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{picture}");
    }

    #[test]
    fn compounds_list_constituents_and_links() {
        let c = parse_expr(
            "(compound (import error) (export new)
               (link ((unit (import error) (export new)
                        (define new (lambda () 1)))
                      (with error) (provides (as new make)))))",
        )
        .unwrap();
        let picture = render(&c);
        assert!(picture.contains("compound"));
        assert!(picture.contains("constituent 0"));
        assert!(picture.contains("◀── error"));
        assert!(picture.contains("──▶ new (as make)"));
    }

    #[test]
    fn non_units_render_a_summary() {
        assert_eq!(render(&Expr::var("u")), "unit variable `u`");
        assert!(render(&parse_expr("(invoke u)").unwrap()).contains("invoke"));
    }
}
