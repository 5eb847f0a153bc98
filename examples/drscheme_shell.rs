//! DrScheme as an operating system (paper §7): "DrScheme also acts as an
//! operating system for client programs that are being developed,
//! launching client programs by dynamically linking them into the system
//! while maintaining the boundaries between clients."
//!
//! Run with: `cargo run --example drscheme_shell`
//!
//! The host publishes a small system interface (console output, a
//! persistent key–value store), retrieves student programs from an
//! archive with a signature check, and launches each by `invoke`-ing it
//! with the system's imports — under a fuel limit, so a runaway client
//! cannot hang the host. Client state is isolated: each launch gets a
//! fresh instance; only the host-provided store is shared deliberately.

use std::collections::HashMap;

use units::{invoke_unit, Archive, CheckOptions, Level, Machine, RuntimeError, Value};
use units_compile::{evaluate_program, resolve_program};
use units_kernel::{Expr, PrimOp};
use units_runtime::apply_prim;
use units_syntax::parse_signature;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The system interface every client must program against.
    let system_sig = parse_signature(
        "(sig (import (println (-> str void))
                      (store-put (-> str int void))
                      (store-get (-> str int)))
              (export)
              (init int))",
    )?;

    // The archive of student programs.
    let mut archive = Archive::new();
    archive.publish(
        "fibonacci",
        "(unit (import (println (-> str void))
                       (store-put (-> str int void))
                       (store-get (-> str int)))
               (export)
           (define fib (-> int int)
             (lambda ((n int)) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))))
           (init (println \"computing fib(12)\")
                 (store-put \"fib\" (fib 12))
                 (store-get \"fib\")))",
    );
    archive.publish(
        "runaway",
        "(unit (import (println (-> str void))
                       (store-put (-> str int void))
                       (store-get (-> str int)))
               (export)
           (define spin (-> int int) (lambda ((n int)) (spin n)))
           (init (println \"entering infinite loop…\") (spin 0)))",
    );
    archive.publish(
        "imposter",
        // Wrong init type: refused before it can run at all.
        "(unit (import (println (-> str void))
                       (store-put (-> str int void))
                       (store-get (-> str int)))
               (export)
           (init \"not an int\"))",
    );

    // The host's shared store, implemented with host closures built from
    // the runtime's own primitives.
    let store = Value::new_hash();

    for name in ["fibonacci", "imposter", "runaway", "missing"] {
        println!("launching `{name}`…");
        let unit_expr =
            match archive.load(name, &system_sig, CheckOptions::typed(Level::Constructed)) {
                Ok(e) => e,
                Err(e) => {
                    println!("  REFUSED: {e}\n");
                    continue;
                }
            };
        // Each launch gets a bounded machine — the client boundary. The
        // evaluator runs resolved terms.
        let mut machine = Machine::with_fuel(2_000_000);
        let unit_value = match evaluate_program(&resolve_program(&unit_expr), &mut machine)? {
            Value::Unit(u) => u,
            other => {
                println!("  not a unit: {other}\n");
                continue;
            }
        };
        let imports = system_imports(&store, &mut machine)?;
        match invoke_unit(&unit_value, &imports, &mut machine) {
            Ok(v) => {
                for line in machine.output() {
                    println!("  client | {line}");
                }
                println!("  exited with {v}\n");
            }
            Err(RuntimeError::ResourceExhausted { .. }) => {
                for line in machine.output() {
                    println!("  client | {line}");
                }
                println!("  KILLED: exceeded its fuel budget (host stays up)\n");
            }
            Err(e) => println!("  crashed: {e}\n"),
        }
    }

    // The store outlived every client.
    let mut m = Machine::new();
    let fib = apply_prim(PrimOp::HashGet, &[store, Value::str("fib")], &mut m)?;
    println!("host store survives the clients: fib = {fib}");
    assert!(fib.observably_eq(&Value::Int(144)));
    Ok(())
}

/// Builds the system-call closures the host lends to a client. They are
/// ordinary unit-language closures compiled from source, closing over the
/// host's store through the import mechanism itself.
fn system_imports(
    store: &Value,
    machine: &mut Machine,
) -> Result<HashMap<units::Symbol, Value>, Box<dyn std::error::Error>> {
    // A tiny "kernel unit" whose init returns the three system calls.
    let kernel = units_syntax::parse_expr(
        "(invoke (unit (import table) (export)
            (init (tuple
              (lambda (s) (display s))
              (lambda (k v) (hash-set! table k v))
              (lambda (k) (hash-get table k)))))
          (val table table-value))",
    )?;
    // Splice the host's hash table in for `table-value`.
    let Expr::Invoke(inv) = &kernel else { unreachable!() };
    let mut inv = (**inv).clone();
    inv.val_links.clear();
    let unit_value = match evaluate_program(&resolve_program(&inv.target), machine)? {
        Value::Unit(u) => u,
        _ => unreachable!(),
    };
    let supplied = HashMap::from([(units::Symbol::new("table"), store.clone())]);
    let Value::Tuple(calls) = invoke_unit(&unit_value, &supplied, machine)? else { unreachable!() };
    Ok(HashMap::from([
        (units::Symbol::new("println"), calls[0].clone()),
        (units::Symbol::new("store-put"), calls[1].clone()),
        (units::Symbol::new("store-get"), calls[2].clone()),
    ]))
}
