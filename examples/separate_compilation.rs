//! Assembly-line programming with on-disk artifacts: "standardized parts
//! can be independently manufactured, tested, and replaced" (the paper's
//! opening Henry Ford analogy, backed by its separate-compilation
//! requirement: "a unit's interface provides enough information for the
//! separate compilation of the unit").
//!
//! Run with: `cargo run --example separate_compilation`
//!
//! Three roles, three moments in time:
//! 1. the **provider** publishes `mathlib.unit` + `mathlib.usig`;
//! 2. the **client team** develops and checks its unit against the
//!    `.usig` alone — the provider's source is not on their machine;
//! 3. the **integrator** links the two, re-verifying the provider still
//!    satisfies its published interface (it may have been swapped for a
//!    newer build in the meantime).

use units::{
    load_interface, load_unit, parse_expr, publish_unit, CheckOptions, Engine, Level, Observation,
};
use units_kernel::{CompoundExpr, Expr, LinkClause, Ports, ValPort};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("units-assembly-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let opts = CheckOptions::typed(Level::Constructed);

    // -- 1. provider ----------------------------------------------------
    let published = publish_unit(
        &dir,
        "mathlib",
        "(unit (import) (export (add (-> int int int)) (mul (-> int int int)))
           (define add (-> int int int) (lambda ((a int) (b int)) (+ a b)))
           (define mul (-> int int int) (lambda ((a int) (b int)) (* a b))))",
        opts,
    )?;
    println!("provider published:");
    println!("  {}", published.unit_path.display());
    println!("  {}", published.interface_path.display());
    println!("  interface: {}\n", std::fs::read_to_string(&published.interface_path)?);

    // -- 2. client team -------------------------------------------------
    // They have only the .usig. Their unit imports the published ports.
    let interface = load_interface(&published.interface_path)?;
    let mut imports = String::new();
    for port in &interface.exports.vals {
        let ty = port.ty.as_ref().expect("published interfaces are typed");
        imports.push_str(&format!("({} {}) ", port.name, units::pretty_ty(ty)));
    }
    let client_src = format!(
        "(unit (import {imports}) (export (sum-of-squares (-> int int int)))
           (define sum-of-squares (-> int int int)
             (lambda ((a int) (b int)) (add (mul a a) (mul b b)))))"
    );
    let client = parse_expr(&client_src)?;
    units::check_program(&client, opts).map_err(units::Error::Check)?;
    println!("client checked against the interface alone ✓\n");

    // -- 3. integrator ---------------------------------------------------
    // Re-verify the provider against its published interface, then link.
    let provider = load_unit(&published, opts)?;
    let with_ports = Ports { types: vec![], vals: interface.exports.vals.clone() };
    let program = Expr::invoke_program(Expr::compound(CompoundExpr::new(
        Ports::new(),
        Ports::new(),
        vec![
            LinkClause::by_name(provider, Ports::new(), with_ports.clone()),
            LinkClause::by_name(
                client,
                with_ports,
                Ports {
                    types: vec![],
                    vals: vec![ValPort::typed(
                        "sum-of-squares",
                        units::Ty::arrow(vec![units::Ty::Int, units::Ty::Int], units::Ty::Int),
                    )],
                },
            ),
            LinkClause::by_name(
                parse_expr(
                    "(unit (import (sum-of-squares (-> int int int))) (export)
                       (init (sum-of-squares 3 4)))",
                )?,
                Ports {
                    types: vec![],
                    vals: vec![ValPort::typed(
                        "sum-of-squares",
                        units::Ty::arrow(vec![units::Ty::Int, units::Ty::Int], units::Ty::Int),
                    )],
                },
                Ports::new(),
            ),
        ],
    )));
    let outcome = Engine::builder().level(Level::Constructed).build().load_expr(program)?.run()?;
    println!("integrated program: sum-of-squares(3, 4) = {}", outcome.value);
    assert_eq!(outcome.value, Observation::Int(25));

    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
