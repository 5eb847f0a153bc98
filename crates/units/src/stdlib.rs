//! The paper's running examples (§3, Figs. 1–7) as reusable sources.
//!
//! The interactive phone book is built exactly as the paper draws it:
//!
//! * [`database_unit`] — Fig. 1's atomic `Database` unit (datatype `db`,
//!   string-keyed table, imported `error` handler);
//! * [`number_info_unit`] — the `NumberInfo` unit implementing the info
//!   values;
//! * [`phonebook_compound`] — Fig. 2's `PhoneBook`: links the two,
//!   passes `error` through, hides `delete`, re-exports the rest;
//! * [`gui_unit`] / [`expert_gui_unit`] / [`novice_gui_unit`] — Fig. 3/6
//!   GUIs, simulated as text UIs writing to the output buffer (the
//!   substitution for DrScheme's graphical toolbox, see DESIGN.md §6);
//! * [`main_unit`], [`ipb_program`] — Fig. 3's complete `IPB` program
//!   with its cyclic PhoneBook ⇄ Gui links;
//! * [`make_ipb_program`] — Figs. 5/6: `MakeIPB` as a core-language
//!   function over a first-class GUI unit, selected at run time;
//! * [`plugin_program`] / [`sample_loader_plugin`] — Fig. 7: dynamic
//!   linking of loader plug-ins via `invoke … (val …)`.
//!
//! All sources are UNITd (dynamically typed) programs; the typed variants
//! used by the UNITc/UNITe test suites live in `tests/figures.rs`.

/// Fig. 1: the atomic `Database` unit.
///
/// Exports `new`, `insert`, `delete`, `lookup`, `has`; imports the
/// `error` handler. Entries are keyed by strings; the table is created by
/// the initialization expression, mirroring the figure's
/// `strTable := makeStringHashTable()`.
pub fn database_unit() -> String {
    r#"(unit (import error)
          (export new insert delete lookup has)
      (datatype db (mkdb undb void) db?)
      (define new (lambda () (mkdb (hash-new))))
      (define insert (lambda (d key v)
        (if (hash-has? (undb d) key)
            (error (string-append "duplicate key: " key))
            (hash-set! (undb d) key v))))
      (define delete (lambda (d key) (hash-remove! (undb d) key)))
      (define lookup (lambda (d key)
        (if (hash-has? (undb d) key)
            (hash-get (undb d) key)
            (error (string-append "no entry: " key)))))
      (define has (lambda (d key) (hash-has? (undb d) key)))
      (init (display "database ready")))"#
        .to_string()
}

/// The `NumberInfo` unit: implements the info values stored in the
/// database (phone numbers).
pub fn number_info_unit() -> String {
    r#"(unit (import)
          (export numInfo infoToString)
      (datatype info (mkinfo uninfo void) info?)
      (define numInfo (lambda (n) (mkinfo n)))
      (define infoToString (lambda (i) (int->string (uninfo i)))))"#
        .to_string()
}

/// Fig. 2: the `PhoneBook` compound — `Database` linked with
/// `NumberInfo`, with `error` passed through from the outside and
/// `delete` hidden.
pub fn phonebook_compound() -> String {
    format!(
        "(compound (import error)
                   (export new insert lookup has numInfo infoToString)
           (link ({database}
                  (with error)
                  (provides new insert delete lookup has))
                 ({number_info}
                  (with)
                  (provides numInfo infoToString))))",
        database = database_unit(),
        number_info = number_info_unit(),
    )
}

/// A GUI unit with the Fig. 3 interface: imports the phone book
/// operations, exports `openBook` and `error`. `banner` customizes the
/// displayed text (used for the expert/novice variants of Fig. 6).
fn gui_unit_with_banner(banner: &str) -> String {
    format!(
        r#"(unit (import new insert lookup has numInfo infoToString)
          (export openBook error)
      (define error (lambda (msg) (display (string-append "ERROR: " msg))))
      (define openBook (lambda (pb)
        (insert pb "pat" (numInfo 5551234))
        (insert pb "chris" (numInfo 5559876))
        (display (string-append "pat -> " (infoToString (lookup pb "pat"))))
        (display (string-append "chris -> " (infoToString (lookup pb "chris"))))
        (has pb "pat")))
      (init (display "{banner}")))"#
    )
}

/// Fig. 3: the standard GUI unit (a simulated text UI).
pub fn gui_unit() -> String {
    gui_unit_with_banner("gui ready")
}

/// Fig. 6: the expert GUI variant.
pub fn expert_gui_unit() -> String {
    gui_unit_with_banner("expert gui ready")
}

/// Fig. 6: the novice GUI variant.
pub fn novice_gui_unit() -> String {
    gui_unit_with_banner("novice gui ready (hints on)")
}

/// Fig. 3: the `Main` unit — creates a database and opens the book. Its
/// initialization value (a boolean) is the program's result.
pub fn main_unit() -> String {
    "(unit (import new openBook) (export)
       (init (openBook (new))))"
        .to_string()
}

/// Fig. 3: the complete interactive phone book `IPB` — `PhoneBook`,
/// `Gui`, and `Main` linked together, with links flowing both from
/// PhoneBook to Gui and from Gui back to PhoneBook (`error`).
pub fn ipb_compound() -> String {
    format!(
        "(compound (import) (export)
           (link ({phonebook}
                  (with error)
                  (provides new insert lookup has numInfo infoToString))
                 ({gui}
                  (with new insert lookup has numInfo infoToString)
                  (provides openBook error))
                 ({main}
                  (with new openBook)
                  (provides))))",
        phonebook = phonebook_compound(),
        gui = gui_unit(),
        main = main_unit(),
    )
}

/// Fig. 3, invoked: the whole program.
pub fn ipb_program() -> String {
    format!("(invoke {})", ipb_compound())
}

/// Figs. 5/6: `MakeIPB` as a core function over a first-class GUI unit,
/// plus the `Starter` logic that picks a GUI at run time and invokes the
/// linked result.
pub fn make_ipb_program(expert_mode: bool) -> String {
    format!(
        "(define expert-mode {mode})
         (define expert-gui {expert})
         (define novice-gui {novice})
         (define make-ipb (lambda (a-gui)
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
         (invoke (make-ipb (if expert-mode expert-gui novice-gui)))",
        mode = expert_mode,
        expert = expert_gui_unit(),
        novice = novice_gui_unit(),
        phonebook = phonebook_compound(),
        main = main_unit(),
    )
}

/// Fig. 7: a loader plug-in — a unit whose initialization expression
/// evaluates to a `db → void` function, importing the database operations
/// it needs from the host.
pub fn sample_loader_plugin() -> String {
    r#"(unit (import insert numInfo error) (export)
      (init (lambda (pb)
        (insert pb "imported-carol" (numInfo 5550000))
        (display "loader ran"))))"#
        .to_string()
}

/// Fig. 7: the phone book with a plug-in-capable GUI. The `plugin` source
/// is linked *dynamically*: the GUI's `add-loader` invokes it at run
/// time, satisfying its imports from the host's own imports and
/// definitions.
pub fn plugin_program(plugin: &str) -> String {
    format!(
        r#"(define plugin {plugin})
         (invoke (compound (import) (export)
           (link ({phonebook}
                  (with error)
                  (provides new insert lookup has numInfo infoToString))
                 ((unit (import new insert lookup has numInfo infoToString)
                        (export openBook error add-loader)
                    (define error (lambda (msg) (display (string-append "ERROR: " msg))))
                    (define add-loader (lambda (pb ext)
                      (let ((loader (invoke ext (val insert insert)
                                                (val numInfo numInfo)
                                                (val error error))))
                        (loader pb))))
                    (define openBook (lambda (pb)
                      (display (string-append "carol -> "
                        (infoToString (lookup pb "imported-carol")))))))
                  (with new insert lookup has numInfo infoToString)
                  (provides openBook error add-loader))
                 ((unit (import new openBook add-loader) (export)
                    (init (let ((pb (new)))
                      (add-loader pb plugin)
                      (openBook pb))))
                  (with new openBook add-loader)
                  (provides)))))"#,
        plugin = plugin,
        phonebook = phonebook_compound(),
    )
}

/// §5.3's diamond: a `Symbol` unit linked *once* and shared by both a
/// lexer and a parser, so the `sym` values they exchange belong to one
/// instance — "the diamond import problem is solved by linking lexer,
/// parser, and symbol together at once".
pub fn compiler_pipeline() -> String {
    r#"(invoke (compound (import) (export)
      (link ((unit (import) (export intern symToString)
               (datatype sym (mksym unsym str) sym?)
               (define table void)
               (define intern (lambda (name)
                 (if (hash-has? table name)
                     (hash-get table name)
                     (begin
                       (hash-set! table name (mksym name))
                       (hash-get table name)))))
               (define symToString (lambda (s) (unsym s)))
               (init (set! table (hash-new)) (display "symbol table up")))
             (with) (provides intern symToString))
            ((unit (import intern) (export lex)
               (define lex (lambda (sourceText) (intern sourceText))))
             (with intern) (provides lex))
            ((unit (import intern symToString) (export parse)
               (define parse (lambda (tok)
                 (string-append "ast:" (symToString tok)))))
             (with intern symToString) (provides parse))
            ((unit (import lex parse intern) (export)
               (init
                 (display (parse (lex "lambda")))
                 ;; interning is idempotent: same instance, same cell
                 (tuple (parse (lex "x")) (parse (lex "x")))))
             (with lex parse intern) (provides)))))"#
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::observe::Observation;

    #[test]
    fn fig3_ipb_runs_and_reports_both_entries() {
        let outcome = Engine::new().load(&ipb_program()).unwrap().run_differential().unwrap();
        assert_eq!(outcome.value, Observation::Bool(true));
        assert_eq!(
            outcome.output,
            vec!["database ready", "gui ready", "pat -> 5551234", "chris -> 5559876",]
        );
    }

    #[test]
    fn fig2_phonebook_hides_delete() {
        // Linking a client against `delete` must fail: PhoneBook hides it.
        let bad = format!(
            "(invoke (compound (import) (export)
               (link ({phonebook}
                      (with error)
                      (provides new delete))
                     ((unit (import new delete) (export error)
                        (define error (lambda (m) void)))
                      (with new delete) (provides error)))))",
            phonebook = phonebook_compound()
        );
        // `delete` is not among PhoneBook's exports: the context check
        // rejects the provides clause outright? No — provides is checked
        // at run time (Fig. 11 side condition): MissingProvide.
        let err = Engine::new().invoke(&bad).unwrap_err();
        match err.as_runtime() {
            Some(units_runtime::RuntimeError::MissingProvide { name }) => {
                assert_eq!(name.as_str(), "delete");
            }
            other => panic!("expected MissingProvide, got {other:?} / {err}"),
        }
    }

    #[test]
    fn fig6_starter_picks_a_gui_at_runtime() {
        let engine = Engine::new();
        let expert = engine.invoke(&make_ipb_program(true)).unwrap();
        assert!(expert.output.iter().any(|l| l.contains("expert gui ready")));
        let novice = engine.invoke(&make_ipb_program(false)).unwrap();
        assert!(novice.output.iter().any(|l| l.contains("novice gui ready")));
        assert_eq!(expert.value, Observation::Bool(true));
        assert_eq!(novice.value, expert.value);
    }

    #[test]
    fn fig7_plugin_is_dynamically_linked_and_runs() {
        let outcome = Engine::new()
            .load(&plugin_program(&sample_loader_plugin()))
            .unwrap()
            .run_differential()
            .unwrap();
        assert!(outcome.output.iter().any(|l| l == "loader ran"));
        assert!(outcome.output.iter().any(|l| l.contains("carol -> 5550000")));
    }

    #[test]
    fn sec53_diamond_shares_one_symbol_instance() {
        let outcome = Engine::new().load(&compiler_pipeline()).unwrap().run_differential().unwrap();
        assert_eq!(
            outcome.value,
            Observation::Tuple(vec![
                Observation::Str("ast:x".into()),
                Observation::Str("ast:x".into()),
            ])
        );
        assert_eq!(outcome.output, vec!["symbol table up", "ast:lambda"]);
    }

    #[test]
    fn database_rejects_duplicate_keys_via_imported_error_handler() {
        let src = format!(
            r#"(invoke (compound (import) (export)
               (link ({database}
                      (with error)
                      (provides new insert delete lookup has))
                     ((unit (import new insert) (export error)
                        (define error (lambda (m) (display m) void))
                        (init (let ((d (new)))
                          (insert d "k" 1)
                          (insert d "k" 2))))
                      (with new insert) (provides error)))))"#,
            database = database_unit()
        );
        let outcome = Engine::new().load(&src).unwrap().run_differential().unwrap();
        assert!(outcome.output.iter().any(|l| l.contains("duplicate key: k")));
    }
}
