//! Fig. 12: the even/odd unit and its compilation, observed directly.
//!
//! Run with: `cargo run --example even_odd`
//!
//! This example drives both semantics on the same program:
//!
//! * the **reference reducer** shows the first few Fig. 11 rewriting
//!   steps — `invoke` turning into a `letrec`, the `letrec` allocating
//!   cells;
//! * the **cells backend** demonstrates the §4.1.6 claims: imports and
//!   exports are reference cells, and one shared copy of the code serves
//!   every instance.

use units::{parse_expr, pretty_expr, Backend, Engine, Limits, Observation, Reducer, Step};

fn main() -> Result<(), units::Error> {
    let source = "(invoke (unit (import even) (export odd)
        (define odd (lambda (n) (if (= n 0) false (even (- n 1)))))
        (init (odd 13)))
      (val even (lambda (n) (= (rem n 2) 0))))";

    // `even` is supplied as a plain closure: dynamic linking of a single
    // import (the paper's §3.4 generalized invoke).
    let expr = parse_expr(source)?;

    println!("== the Fig. 11 reduction sequence (first steps) ==========");
    let mut reducer = Reducer::new();
    let mut current = expr.clone();
    for i in 0..4 {
        match reducer.step(&current).map_err(units::Error::Runtime)? {
            Step::Value => break,
            Step::Reduced(next) => {
                let shown: String = pretty_expr(&next).chars().take(120).collect();
                println!("step {}: {shown}…", i + 1);
                current = next;
            }
        }
    }
    let value = reducer.reduce_to_value(&current).map_err(units::Error::Runtime)?;
    println!("…reference value: {}", pretty_expr(&value));

    println!("\n== the §4.1.6 cells backend ==============================");
    let outcome = Engine::new().load(source)?.run_on(Backend::Compiled)?;
    println!("compiled value: {}", outcome.value);
    assert_eq!(outcome.value, Observation::Bool(true));

    // Fuel comparison: how many machine steps does each backend take?
    for (name, backend) in [("compiled", Backend::Compiled), ("reducer", Backend::Reducer)] {
        let mut lo = 1u64;
        let mut hi = 1_000_000u64;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let engine = Engine::builder().limits(Limits::none().fuel(mid)).build();
            let ok = engine.load(source)?.run_on(backend).is_ok();
            if ok {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        println!("{name} backend needs {lo} machine steps for odd(13)");
    }
    Ok(())
}
