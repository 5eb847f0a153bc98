//! Quickstart: define two units, link them externally, invoke the result.
//!
//! Run with: `cargo run --example quickstart`
//!
//! This is the paper's elevator pitch in twenty lines: units declare
//! imports and exports but name no other unit; a separate `compound`
//! expression wires them — here cyclically, which no functor-style module
//! system can do — and `invoke` runs the linked program.

use units::{Backend, Engine, Observation};

fn main() -> Result<(), units::Error> {
    // Fig. 12's even/odd pair: each unit imports the other's export.
    let source = "
        (define even-unit
          (unit (import odd) (export even)
            (define even (lambda (n) (if (= n 0) true (odd (- n 1)))))))

        (define odd-unit
          (unit (import even) (export odd)
            (define odd (lambda (n) (if (= n 0) false (even (- n 1)))))
            (init (display \"odd unit initialized\"))))

        (define program
          (compound (import) (export even odd)
            (link (even-unit (with odd)  (provides even))
                  (odd-unit  (with even) (provides odd)))))

        (invoke (compound (import) (export)
          (link (program (with) (provides even odd))
                ((unit (import even odd) (export)
                   (init (tuple (even 10) (odd 10))))
                 (with even odd) (provides)))))";

    let engine = Engine::new();
    let outcome = engine.invoke(source)?;

    println!("program output:");
    for line in &outcome.output {
        println!("  | {line}");
    }
    println!("result: {}", outcome.value);
    assert_eq!(
        outcome.value,
        Observation::Tuple(vec![Observation::Bool(true), Observation::Bool(false)])
    );

    // The same program under the reference semantics (Fig. 11's rules);
    // the engine's cache hands back the already-checked artifact.
    let steps = engine.load(source)?.run_on(Backend::Reducer)?;
    assert_eq!(steps.value, outcome.value);
    println!("reference reducer agrees: {}", steps.value);
    assert_eq!(engine.metrics_snapshot().cache.source_hits, 1);
    Ok(())
}
