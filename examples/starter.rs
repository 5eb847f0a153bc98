//! First-class units: `MakeIPB` and `Starter` (paper Figs. 5 and 6).
//!
//! Run with: `cargo run --example starter`
//!
//! Because units are core-language values and `compound`/`invoke` are
//! core expression forms, abstracting a program over one of its
//! constituents is just a λ: `MakeIPB` consumes *any* GUI unit with the
//! right interface and returns a complete program unit, which `Starter`
//! selects and launches at run time — "programs that link and invoke
//! other programs".

use units::stdlib;
use units::{Engine, Observation};

fn main() -> Result<(), units::Error> {
    let engine = Engine::new();
    for expert_mode in [true, false] {
        let source = stdlib::make_ipb_program(expert_mode);
        let outcome = engine.invoke(&source)?;
        println!("expertMode() = {expert_mode:<5} → GUI chosen at run time:");
        for line in &outcome.output {
            println!("  | {line}");
        }
        assert_eq!(outcome.value, Observation::Bool(true));
        println!();
    }

    // The same abstraction, built programmatically: MakeIPB applied to a
    // GUI that logs differently.
    let custom = format!(
        "(define make-ipb (lambda (a-gui)
           (compound (import) (export)
             (link ({phonebook}
                    (with error)
                    (provides new insert lookup has numInfo infoToString))
                   (a-gui
                    (with new insert lookup has numInfo infoToString)
                    (provides openBook error))
                   ({main}
                    (with new openBook)
                    (provides))))))
         (define quiet-gui
           (unit (import new insert lookup has numInfo infoToString)
                 (export openBook error)
             (define error (lambda (m) void))
             (define openBook (lambda (pb) (insert pb \"x\" (numInfo 1)) (has pb \"x\")))))
         (invoke (make-ipb quiet-gui))",
        phonebook = stdlib::phonebook_compound(),
        main = stdlib::main_unit(),
    );
    let outcome = engine.invoke(&custom)?;
    println!("a third, quiet GUI works through the same MakeIPB: {}", outcome.value);
    assert_eq!(outcome.value, Observation::Bool(true));
    Ok(())
}
