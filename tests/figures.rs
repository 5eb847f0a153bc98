//! The per-figure experiment index (see DESIGN.md §3 and EXPERIMENTS.md).
//!
//! Every figure of the paper has a test here that regenerates its
//! content: the §3 examples run end to end (on both backends where
//! observable), the Fig. 4 rejection fires, the formal figures (9–19) are
//! exercised through their crates, and the §5 extensions (Figs. 20/21)
//! run as full programs at the UNITe level.

use units::{
    alpha_eq, parse_expr, stdlib, Backend, CheckOptions, Depend, Engine, Level, Observation,
    Reducer, Strictness, Ty,
};

fn at(level: Level) -> Engine {
    Engine::builder().level(level).build()
}

/// The checked type of `source` at `level` (None for untyped levels).
fn ty_of(source: &str, level: Level) -> Result<Option<Ty>, units::Error> {
    Ok(at(level).load(source)?.ty().cloned())
}

fn run_both(source: &str) -> units::Outcome {
    Engine::new()
        .load(source)
        .unwrap_or_else(|e| panic!("load: {e}"))
        .run_differential()
        .unwrap_or_else(|e| panic!("run: {e}"))
}

// ---------------------------------------------------------------------
// Figures 1–3: the phone book (untyped runtime behaviour + typed sigs)
// ---------------------------------------------------------------------

#[test]
fn fig1_database_unit() {
    // The atomic Database unit links against a trivial error handler and
    // services insert/lookup requests; its initialization expression runs
    // at invocation ("strTable := makeStringHashTable()").
    let source = format!(
        r#"(invoke (compound (import) (export)
           (link ({db} (with error) (provides new insert delete lookup has))
                 ((unit (import new insert delete lookup has) (export error)
                    (define error (lambda (m) (display m) void))
                    (init (let ((d (new)))
                      (insert d "pat" 5551234)
                      (delete d "nobody")
                      (tuple (lookup d "pat") (has d "ghost")))))
                  (with new insert delete lookup has) (provides error)))))"#,
        db = stdlib::database_unit()
    );
    let outcome = run_both(&source);
    assert_eq!(
        outcome.value,
        Observation::Tuple(vec![Observation::Int(5551234), Observation::Bool(false)])
    );
    assert_eq!(outcome.output, vec!["database ready"]);
}

/// Fig. 1, statically typed (UNITc): the declared signature is derived,
/// with `info` imported and `db` exported.
#[test]
fn fig1_database_unit_typed() {
    let source = r#"(unit (import (type info) (error (-> str void)))
          (export (type db)
                  (new (-> db))
                  (insert (-> db str info void))
                  (delete (-> db str void)))
      (datatype db (mkdb undb (hash info)) db?)
      (define new (-> db) (lambda () (mkdb ((inst hash-new info)))))
      (define insert (-> db str info void)
        (lambda ((d db) (key str) (v info))
          (if ((inst hash-has? info) (undb d) key)
              (error (string-append "duplicate key: " key))
              ((inst hash-set! info) (undb d) key v))))
      (define delete (-> db str void)
        (lambda ((d db) (key str)) ((inst hash-remove! info) (undb d) key)))
      (init (display "database ready")))"#;
    let ty = ty_of(source, Level::Constructed).unwrap().unwrap();
    let sig = ty.as_sig().expect("a unit has a signature type");
    assert!(sig.imports.ty_port(&"info".into()).is_some());
    assert!(sig.exports.ty_port(&"db".into()).is_some());
    assert_eq!(
        sig.exports.val_port(&"insert".into()).unwrap().ty,
        Some(Ty::arrow(vec![Ty::var("db"), Ty::Str, Ty::var("info")], Ty::Void))
    );
    assert_eq!(sig.init_ty, Ty::Void);
}

#[test]
fn fig2_phonebook_hides_delete_and_reexports() {
    // Linking against the re-exported names works; `delete` is gone.
    let ok = format!(
        r#"(invoke (compound (import) (export)
           (link ({pb} (with error)
                       (provides new insert lookup has numInfo infoToString))
                 ((unit (import new insert lookup numInfo infoToString) (export error)
                    (define error (lambda (m) void))
                    (init (let ((d (new)))
                      (insert d "chris" (numInfo 5559876))
                      (infoToString (lookup d "chris")))))
                  (with new insert lookup numInfo infoToString)
                  (provides error)))))"#,
        pb = stdlib::phonebook_compound()
    );
    assert_eq!(run_both(&ok).value, Observation::Str("5559876".into()));

    let hidden = format!(
        "(invoke (compound (import) (export)
           (link ({pb} (with error) (provides delete))
                 ((unit (import delete) (export error)
                    (define error (lambda (m) void)))
                  (with delete) (provides error)))))",
        pb = stdlib::phonebook_compound()
    );
    let err = Engine::new().invoke(&hidden).unwrap_err();
    assert!(
        matches!(err.as_runtime(), Some(units::RuntimeError::MissingProvide { name }) if name.as_str() == "delete")
    );
}

#[test]
fn fig3_ipb_cyclic_link_and_invoke() {
    let outcome = run_both(&stdlib::ipb_program());
    assert_eq!(outcome.value, Observation::Bool(true));
    assert_eq!(
        outcome.output,
        vec!["database ready", "gui ready", "pat -> 5551234", "chris -> 5559876"]
    );
}

/// Fig. 3, statically typed: the `db` type flows from PhoneBook to both
/// Gui and Main through the link graph; `error` flows backwards from Gui
/// into PhoneBook — the mutually recursive linking the paper emphasizes.
#[test]
fn fig3_ipb_typed() {
    let source = typed_ipb_with_gui_db(false);
    let ty = ty_of(&source, Level::Constructed).unwrap().unwrap();
    assert_eq!(ty, Ty::Bool);
}

/// Builds the typed IPB program; with `bad` the Gui unit exports its own
/// `db2` type and Main's `openBook` expectation mismatches — Fig. 4.
fn typed_ipb_with_gui_db(bad: bool) -> String {
    let database = r#"(unit (import (type info) (error (-> str void)))
          (export (type db) (new (-> db)) (insert (-> db str info void)))
      (datatype db (mkdb undb (hash info)) db?)
      (define new (-> db) (lambda () (mkdb ((inst hash-new info)))))
      (define insert (-> db str info void)
        (lambda ((d db) (key str) (v info))
          ((inst hash-set! info) (undb d) key v))))"#;
    let number_info = r#"(unit (import) (export (type info) (numInfo (-> int info)))
      (datatype info (mkinfo uninfo int) info?)
      (define numInfo (-> int info) (lambda ((n int)) (mkinfo n))))"#;
    let (gui, gui_provides, main_with) = if bad {
        (
            // Gui over its own database type db2: openBook's type does not
            // match Main's expectation over PhoneBook's db.
            r#"(unit (import) (export (type db2) (openBook (-> db2 bool)) (error (-> str void)))
          (datatype db2 (mk2 un2 int) db2?)
          (define error (-> str void) (lambda ((m str)) void))
          (define openBook (-> db2 bool) (lambda ((d db2)) true)))"#,
            "(provides (type db2) (openBook (-> db2 bool)) (error (-> str void)))",
            "(with (type db) (new (-> db)) (openBook (-> db bool)))",
        )
    } else {
        (
            r#"(unit (import (type db) (insert (-> db str info void)) (type info) (numInfo (-> int info)))
              (export (openBook (-> db bool)) (error (-> str void)))
          (define error (-> str void) (lambda ((m str)) void))
          (define openBook (-> db bool)
            (lambda ((d db)) (insert d "pat" (numInfo 5551234)) true)))"#,
            "(provides (openBook (-> db bool)) (error (-> str void)))",
            "(with (type db) (new (-> db)) (openBook (-> db bool)))",
        )
    };
    let main = r#"(unit (import (type db) (new (-> db)) (openBook (-> db bool))) (export)
      (init (openBook (new))))"#;
    format!(
        "(invoke (compound (import) (export)
           (link ((compound (import (error (-> str void)))
                            (export (type db) (type info) (new (-> db))
                                    (insert (-> db str info void)) (numInfo (-> int info)))
                    (link ({database}
                           (with (type info) (error (-> str void)))
                           (provides (type db) (new (-> db)) (insert (-> db str info void))))
                          ({number_info}
                           (with)
                           (provides (type info) (numInfo (-> int info))))))
                  (with (error (-> str void)))
                  (provides (type db) (type info) (new (-> db))
                            (insert (-> db str info void)) (numInfo (-> int info))))
                 ({gui}
                  (with (type db) (insert (-> db str info void)) (type info) (numInfo (-> int info)))
                  {gui_provides})
                 ({main}
                  {main_with}
                  (provides)))))"
    )
}

#[test]
fn fig4_bad_rejected_by_type_checker() {
    let source = typed_ipb_with_gui_db(true);
    let err = ty_of(&source, Level::Constructed).unwrap_err();
    let errs = err.as_check().expect("a check error");
    // "The type checker correctly rejects Bad due to this mismatch."
    assert!(
        errs.iter().any(|e| matches!(
            e,
            units::CheckError::Mismatch { .. }
                | units::CheckError::NotSubsignature { .. }
                | units::CheckError::UnsatisfiedLink { .. }
        )),
        "got {errs:?}"
    );
}

// ---------------------------------------------------------------------
// Figures 5–7: first-class units and dynamic linking
// ---------------------------------------------------------------------

#[test]
fn fig5_make_ipb_abstraction() {
    // MakeIPB is an ordinary core function over a unit value; applying it
    // to two different GUIs yields two different programs.
    let expert = run_both(&stdlib::make_ipb_program(true));
    assert!(expert.output.iter().any(|l| l.contains("expert gui ready")));
    assert_eq!(expert.value, Observation::Bool(true));
}

#[test]
fn fig6_starter_selects_gui() {
    let novice = run_both(&stdlib::make_ipb_program(false));
    assert!(novice.output.iter().any(|l| l.contains("novice gui ready")));
    assert!(!novice.output.iter().any(|l| l.contains("expert")));
}

#[test]
fn fig7_dynamic_plugin_loader() {
    let outcome = run_both(&stdlib::plugin_program(&stdlib::sample_loader_plugin()));
    assert!(outcome.output.iter().any(|l| l == "loader ran"));
    assert!(outcome.output.iter().any(|l| l.contains("carol -> 5550000")));
}

#[test]
fn fig7_plugin_archive_checks_signatures() {
    use units::Archive;
    let mut archive = Archive::new();
    archive.publish(
        "good",
        "(unit (import (type db) (insert (-> db str void)))
               (export)
           (init (lambda ((pb db)) (insert pb \"k\"))))",
    );
    archive.publish(
        "bad-init",
        "(unit (import (type db) (insert (-> db str void)))
               (export)
           (init true))",
    );
    let expected = units::parse_signature(
        "(sig (import (type db) (insert (-> db str void))) (export) (init (-> db void)))",
    )
    .unwrap();
    let opts = CheckOptions::typed(Level::Constructed);
    assert!(archive.load("good", &expected, opts).is_ok());
    assert!(archive.load("bad-init", &expected, opts).is_err());
}

// ---------------------------------------------------------------------
// Figure 8: the graphical reduction (compound merging)
// ---------------------------------------------------------------------

#[test]
fn fig8_compound_merge_equivalence() {
    // One reduction step turns the compound into an atomic unit that is
    // α-equivalent to the hand-merged one.
    let compound = parse_expr(
        r#"(compound (import error) (export new numInfo)
             (link ((unit (import numInfo error) (export new)
                      (define new (lambda () (numInfo 0)))
                      (init (display "db")))
                    (with numInfo error) (provides new))
                   ((unit (import) (export numInfo)
                      (define numInfo (lambda (n) n)))
                    (with) (provides numInfo))))"#,
    )
    .unwrap();
    let mut reducer = Reducer::new();
    let merged = match reducer.step(&compound).unwrap() {
        units::Step::Reduced(e) => e,
        units::Step::Value => panic!("compound must step"),
    };
    let expected = parse_expr(
        r#"(unit (import error) (export new numInfo)
             (define new (lambda () (numInfo 0)))
             (define numInfo (lambda (n) n))
             (init (begin (display "db") void)))"#,
    )
    .unwrap();
    assert!(alpha_eq(&merged, &expected), "merged:\n{merged:#?}");
    // The merged unit is a value — exactly one step, as in Fig. 8.
    assert!(merged.is_value());
}

// ---------------------------------------------------------------------
// Figure 12: even/odd and the cells compilation
// ---------------------------------------------------------------------

#[test]
fn fig12_even_odd_compilation() {
    let source = "(invoke (compound (import) (export)
        (link ((unit (import odd) (export even)
                 (define even (lambda (n) (if (= n 0) true (odd (- n 1))))))
               (with odd) (provides even))
              ((unit (import even) (export odd)
                 (define odd (lambda (n) (if (= n 0) false (even (- n 1)))))
                 (init (tuple (odd 9) (even 9))))
               (with even) (provides odd)))))";
    let outcome = run_both(source);
    assert_eq!(
        outcome.value,
        Observation::Tuple(vec![Observation::Bool(true), Observation::Bool(false)])
    );
}

#[test]
fn fig12_deep_mutual_recursion_runs_in_constant_stack() {
    // The cells backend trampolines tail calls; 200k alternations between
    // the two units must not overflow the Rust stack.
    let source = "(invoke (compound (import) (export)
        (link ((unit (import odd) (export even)
                 (define even (lambda (n) (if (= n 0) true (odd (- n 1))))))
               (with odd) (provides even))
              ((unit (import even) (export odd)
                 (define odd (lambda (n) (if (= n 0) false (even (- n 1)))))
                 (init (odd 200001)))
               (with even) (provides odd)))))";
    let outcome = Engine::new().load(source).unwrap().run_on(Backend::Compiled).unwrap();
    assert_eq!(outcome.value, Observation::Bool(true));
}

// ---------------------------------------------------------------------
// Figures 20/21 and §5.3: translucency, hiding, sharing
// ---------------------------------------------------------------------

fn environment_unit() -> &'static str {
    r#"(unit (import (type name) (type value)
                 (name=? (-> name name bool)) (default value))
         (export (extend (-> (-> name value) name value (-> name value)))
                 (empty (-> name value)))
     (alias env (-> name value))
     (define empty env (lambda ((n name)) default))
     (define extend (-> env name value env)
       (lambda ((e env) (n name) (v value))
         (lambda ((m name)) (if (name=? m n) v (e m)))))
     (init extend))"#
}

#[test]
fn fig20_translucent_env() {
    // The derived signature expands the abbreviation away; sealing to the
    // translucent signature (extend typed over `env`, with a `where`
    // clause) is accepted — §5.1's equivalence.
    let sealed = format!(
        "(seal {env_unit}
           (sig (import (type name) (type value)
                        (name=? (-> name name bool)) (default value))
                (export (extend (-> env name value env))
                        (empty env))
                (init (-> env name value env))
                (where (env (-> name value)))))",
        env_unit = environment_unit()
    );
    let ty = ty_of(&sealed, Level::Equations).unwrap().unwrap();
    let sig = ty.as_sig().unwrap();
    assert_eq!(sig.equations.len(), 1);
    assert_eq!(sig.equations[0].name.as_str(), "env");
}

#[test]
fn fig21_opaque_env_hiding() {
    // Sealing the translucent signature further, to an *opaque* exported
    // env, requires declaring the dependencies the hidden body induces —
    // and then succeeds.
    let translucent_sig = "(sig (import (type name) (type value)
                        (name=? (-> name name bool)) (default value))
                (export (extend (-> env name value env))
                        (empty env))
                (init (-> env name value env))
                (where (env (-> name value))))";
    // The opaque signatures' initialization type cannot mention the
    // now-opaque `env` (the Fig. 15 init-type condition), so it states
    // the expanded arrow.
    let opaque_sig_missing = "(sig (import (type name) (type value)
                        (name=? (-> name name bool)) (default value))
                (export (type env)
                        (extend (-> env name value env))
                        (empty env))
                (init (-> (-> name value) name value (-> name value))))";
    let opaque_sig = "(sig (import (type name) (type value)
                        (name=? (-> name name bool)) (default value))
                (export (type env)
                        (extend (-> env name value env))
                        (empty env))
                (init (-> (-> name value) name value (-> name value)))
                (depends (env name) (env value)))";
    let base = environment_unit();
    let chain = |outer: &str| format!("(seal (seal {base} {translucent_sig}) {outer})");

    // Without the induced dependencies: rejected.
    let err = ty_of(&chain(opaque_sig_missing), Level::Equations).unwrap_err();
    assert!(err.as_check().is_some(), "{err}");

    // With them: accepted, and env is now opaque with declared depends.
    let ty = ty_of(&chain(opaque_sig), Level::Equations).unwrap().unwrap();
    let sig = ty.as_sig().unwrap();
    assert!(sig.exports.ty_port(&"env".into()).is_some());
    assert!(sig.depend_set().contains(&Depend::new("env", "name")));
    assert!(sig.equations.is_empty());
}

#[test]
fn fig20_21_sealed_environment_still_runs() {
    // The whole chain invokes with concrete name/value types and behaves
    // like an association list.
    let base = environment_unit();
    let source = format!(
        r#"(let ((extend-fn (invoke {base}
                 (type name str) (type value int)
                 (val name=? (lambda ((a str) (b str)) (string=? a b)))
                 (val default 0))))
           (let ((e2 (extend-fn (lambda ((n str)) 0) "answer" 42)))
             (tuple (e2 "answer") (e2 "missing"))))"#
    );
    let outcome = at(Level::Equations).invoke(&source).unwrap();
    assert_eq!(outcome.value, Observation::Tuple(vec![Observation::Int(42), Observation::Int(0)]));
}

#[test]
fn sec53_sharing_limitation_two_symbol_instances() {
    // §5.3: "symbol is instantiated twice and there is no way to unify
    // the two sym types" — runtime pin of the limitation.
    let source = "(define symbol (unit (import) (export mk unmk)
          (datatype sym (mk unmk str) sym?)
          (init (tuple mk unmk))))
        (let ((lexer-sym (invoke symbol)) (parser-sym (invoke symbol)))
          ((proj 1 parser-sym) ((proj 0 lexer-sym) \"id\")))";
    let engine = Engine::builder().strictness(Strictness::MzScheme).build();
    let p = engine.load(source).unwrap();
    for backend in [Backend::Compiled, Backend::Reducer, Backend::Bytecode] {
        let err = p.run_on(backend).unwrap_err();
        assert!(
            matches!(err.as_runtime(), Some(units::RuntimeError::ForeignInstance { .. })),
            "{backend:?}: {err}"
        );
    }
    // Linking lexer, parser, and symbol together at once — the paper's
    // solution — shares one instance and works.
    let shared = "(invoke (compound (import) (export)
        (link ((unit (import) (export mk unmk) (datatype sym (mk unmk str) sym?))
               (with) (provides mk unmk))
              ((unit (import mk) (export lex)
                 (define lex (lambda (s) (mk s))))
               (with mk) (provides lex))
              ((unit (import unmk lex) (export)
                 (init (unmk (lex \"id\"))))
               (with unmk lex) (provides)))))";
    assert_eq!(run_both(shared).value, Observation::Str("id".into()));
}

// ---------------------------------------------------------------------
// §4.1.6: code sharing across instances
// ---------------------------------------------------------------------

#[test]
fn compiled_code_shared_across_instances() {
    use std::sync::Arc;
    use units::{evaluate_program, resolve_program, Machine, Value};
    let unit_expr = resolve_program(
        &parse_expr("(unit (import) (export) (define f (lambda (n) (* n n))) (init (f 4)))")
            .unwrap(),
    );
    let mut machine = Machine::new();
    let instances: Vec<Value> =
        (0..10).map(|_| evaluate_program(&unit_expr, &mut machine).unwrap()).collect();
    let sources: Vec<_> = instances
        .iter()
        .map(|v| match v {
            Value::Unit(u) => u.atomic_source().unwrap().clone(),
            other => panic!("expected unit, got {other}"),
        })
        .collect();
    for pair in sources.windows(2) {
        assert!(Arc::ptr_eq(&pair[0], &pair[1]), "code must be shared");
    }
}

// ---------------------------------------------------------------------
// Fig. 5, statically: MakeIPB's argument carries a *signature* type
// ---------------------------------------------------------------------

#[test]
fn fig5_signature_typed_unit_argument() {
    // "The type associated with MakeIPB's argument is a unit type, a
    // signature, that contains all of the information needed to verify
    // its linkage in MakeIPB." — §3.3.
    let gui_sig = "(sig (import (ping (-> int int)))
                        (export (openBook (-> int bool)))
                        (init void))";
    let src = format!(
        "(let ((make-app (lambda ((a-gui {gui_sig}))
             (compound (import) (export)
               (link ((unit (import) (export (ping (-> int int)))
                        (define ping (-> int int) (lambda ((n int)) (+ n 1))))
                      (with) (provides (ping (-> int int))))
                     (a-gui
                      (with (ping (-> int int)))
                      (provides (openBook (-> int bool))))
                     ((unit (import (openBook (-> int bool))) (export)
                        (init (openBook 3)))
                      (with (openBook (-> int bool)))
                      (provides)))))))
           (invoke (make-app
             (unit (import (ping (-> int int)))
                   (export (openBook (-> int bool)))
               (define openBook (-> int bool)
                 (lambda ((n int)) (= (ping n) 4)))))))"
    );
    let outcome = at(Level::Constructed).invoke(&src).unwrap();
    assert_eq!(outcome.value, Observation::Bool(true));

    // Passing a unit that does not satisfy the signature is a type error
    // at the call site — exactly the check the signature buys.
    let bad = format!(
        "(let ((make-app (lambda ((a-gui {gui_sig})) 0)))
           (make-app (unit (import) (export))))"
    );
    let err = ty_of(&bad, Level::Constructed).unwrap_err();
    assert!(err.as_check().is_some());
}

#[test]
fn separate_compilation_units_check_in_isolation() {
    // Assembly-line programming: each unit checks against nothing but
    // its own interface — no partner unit needs to exist yet.
    let database = "(unit (import (type info) (error (-> str void)))
          (export (type db) (new (-> db)))
      (datatype db (mkdb undb (hash info)) db?)
      (define new (-> db) (lambda () (mkdb ((inst hash-new info))))))";
    let gui = "(unit (import (type db) (new (-> db)))
          (export (openBook (-> db bool)))
      (define openBook (-> db bool) (lambda ((d db)) true)))";
    // Both check independently…
    let db_ty = ty_of(database, Level::Constructed).unwrap();
    let gui_ty = ty_of(gui, Level::Constructed).unwrap();
    assert!(db_ty.unwrap().as_sig().is_some());
    assert!(gui_ty.unwrap().as_sig().is_some());
    // …and the assembly step is a separate program, written later —
    // the full assembly is exercised by fig3_ipb_typed.
}
