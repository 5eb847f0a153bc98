//! The phone book of §3, fully statically typed (UNITc) — the paper's
//! figures as they are actually drawn, with every port annotated.
//!
//! The `info` type flows from [`number_info`] into [`database`] through
//! the linking graph (Fig. 2 links a *type* across units), `db` flows
//! from the phone book into the GUI and `Main`, and `error` flows
//! backwards from the GUI into the phone book — the cyclic, typed link
//! structure of Fig. 3.

/// Fig. 1: the `Database` unit with its full interface types.
pub fn database() -> String {
    r#"(unit (import (type info) (error (-> str void)))
          (export (type db)
                  (new (-> db))
                  (insert (-> db str info void))
                  (delete (-> db str void))
                  (lookup (-> db str info))
                  (has (-> db str bool)))
      (datatype db (mkdb undb (hash info)) db?)
      (define new (-> db) (lambda () (mkdb ((inst hash-new info)))))
      (define insert (-> db str info void)
        (lambda ((d db) (key str) (v info))
          (if ((inst hash-has? info) (undb d) key)
              (error (string-append "duplicate key: " key))
              ((inst hash-set! info) (undb d) key v))))
      (define delete (-> db str void)
        (lambda ((d db) (key str)) ((inst hash-remove! info) (undb d) key)))
      (define lookup (-> db str info)
        (lambda ((d db) (key str)) ((inst hash-get info) (undb d) key)))
      (define has (-> db str bool)
        (lambda ((d db) (key str)) ((inst hash-has? info) (undb d) key)))
      (init (display "database ready")))"#
        .to_string()
}

/// The `NumberInfo` unit: defines and exports the `info` type.
pub fn number_info() -> String {
    r#"(unit (import)
          (export (type info) (numInfo (-> int info)) (infoToString (-> info str)))
      (datatype info (mkinfo uninfo int) info?)
      (define numInfo (-> int info) (lambda ((n int)) (mkinfo n)))
      (define infoToString (-> info str)
        (lambda ((i info)) (int->string (uninfo i)))))"#
        .to_string()
}

/// Fig. 2: the typed `PhoneBook` compound. `info` links from
/// `NumberInfo` into `Database`; `error` passes through from the
/// outside; `delete` is hidden.
pub fn phonebook() -> String {
    format!(
        "(compound (import (error (-> str void)))
                   (export (type db) (type info)
                           (new (-> db)) (insert (-> db str info void))
                           (lookup (-> db str info)) (has (-> db str bool))
                           (numInfo (-> int info)) (infoToString (-> info str)))
           (link ({database}
                  (with (type info) (error (-> str void)))
                  (provides (type db) (new (-> db)) (insert (-> db str info void))
                            (delete (-> db str void)) (lookup (-> db str info))
                            (has (-> db str bool))))
                 ({number_info}
                  (with)
                  (provides (type info) (numInfo (-> int info))
                            (infoToString (-> info str))))))",
        database = database(),
        number_info = number_info(),
    )
}

/// Fig. 3: the typed GUI — exports `openBook : db→bool` and the `error`
/// handler the phone book calls back into.
pub fn gui() -> String {
    r#"(unit (import (type db) (type info)
                 (new (-> db)) (insert (-> db str info void))
                 (lookup (-> db str info)) (has (-> db str bool))
                 (numInfo (-> int info)) (infoToString (-> info str)))
          (export (openBook (-> db bool)) (error (-> str void)))
      (define error (-> str void)
        (lambda ((msg str)) (display (string-append "ERROR: " msg))))
      (define openBook (-> db bool)
        (lambda ((pb db))
          (insert pb "pat" (numInfo 5551234))
          (insert pb "chris" (numInfo 5559876))
          (display (string-append "pat -> " (infoToString (lookup pb "pat"))))
          (has pb "chris")))
      (init (display "typed gui ready")))"#
        .to_string()
}

/// Fig. 3: the typed `Main` unit; its `bool` initialization value is the
/// program's result.
pub fn main_unit() -> String {
    "(unit (import (type db) (new (-> db)) (openBook (-> db bool))) (export)
       (init (openBook (new))))"
        .to_string()
}

/// Fig. 3: the complete, typed `IPB` program, ready to `invoke`.
pub fn ipb_program() -> String {
    format!(
        "(invoke (compound (import) (export)
           (link ({phonebook}
                  (with (error (-> str void)))
                  (provides (type db) (type info)
                            (new (-> db)) (insert (-> db str info void))
                            (lookup (-> db str info)) (has (-> db str bool))
                            (numInfo (-> int info)) (infoToString (-> info str))))
                 ({gui}
                  (with (type db) (type info)
                        (new (-> db)) (insert (-> db str info void))
                        (lookup (-> db str info)) (has (-> db str bool))
                        (numInfo (-> int info)) (infoToString (-> info str)))
                  (provides (openBook (-> db bool)) (error (-> str void))))
                 ({main}
                  (with (type db) (new (-> db)) (openBook (-> db bool)))
                  (provides)))))",
        phonebook = phonebook(),
        gui = gui(),
        main = main_unit(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, Level, Observation, Ty};

    fn typed() -> Engine {
        Engine::builder().level(Level::Constructed).build()
    }

    #[test]
    fn typed_ipb_checks_at_bool_and_runs() {
        let engine = typed();
        let p = engine.load(&ipb_program()).unwrap();
        assert_eq!(p.ty(), Some(&Ty::Bool));
        let outcome = p.run_differential().unwrap();
        assert_eq!(outcome.value, Observation::Bool(true));
        assert_eq!(outcome.output, vec!["database ready", "typed gui ready", "pat -> 5551234"]);
    }

    #[test]
    fn typed_phonebook_signature_hides_delete() {
        let engine = typed();
        let p = engine.load(&phonebook()).unwrap();
        let ty = p.ty().cloned().unwrap();
        let sig = ty.as_sig().unwrap();
        assert!(sig.exports.val_port(&"insert".into()).is_some());
        assert!(sig.exports.val_port(&"delete".into()).is_none());
        assert!(sig.exports.ty_port(&"db".into()).is_some());
        assert!(sig.imports.val_port(&"error".into()).is_some());
    }

    #[test]
    fn typed_units_check_in_isolation() {
        let engine = typed();
        for src in [database(), number_info(), gui(), main_unit()] {
            engine.load(&src).unwrap_or_else(|e| panic!("{src}\n{e}"));
        }
    }
}
