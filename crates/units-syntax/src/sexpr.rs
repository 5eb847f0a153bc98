//! The S-expression reader.
//!
//! The surface language is fully parenthesized, Scheme style. The reader
//! produces a small [`SExpr`] tree that the parser then elaborates into the
//! kernel AST. Comments run from `;` to end of line. String literals use
//! double quotes with `\n`, `\t`, `\\`, and `\"` escapes. The character
//! `#` is reserved for machine-generated names and rejected in source
//! identifiers.
//!
//! Atoms borrow their text from the source, as do string literals
//! without escapes, so reading allocates little beyond the list vectors.
//! Forms may nest at most [`MAX_NESTING`] lists deep: every later pass
//! over the tree, and over the terms built from it, recurses once per
//! level, and a bounded depth keeps them within a thread's stack.

use std::borrow::Cow;
use std::fmt;

use crate::error::ParseError;
use crate::span::Span;

/// The deepest nesting of lists the reader accepts. A `(=> κ… κ)` kind
/// with `n` components counts as `n − 1` nested levels, because the
/// parser right-nests its components into kind arrows.
pub const MAX_NESTING: usize = 256;

/// A read S-expression, borrowing from the source text `'src`.
#[derive(Debug, Clone, PartialEq)]
pub enum SExpr<'src> {
    /// An identifier or operator atom.
    Atom(&'src str, Span),
    /// An integer literal.
    Int(i64, Span),
    /// A string literal (escapes already decoded).
    Str(Cow<'src, str>, Span),
    /// A parenthesized list.
    List(Vec<SExpr<'src>>, Span),
}

impl<'src> SExpr<'src> {
    /// The source span of this S-expression.
    pub fn span(&self) -> Span {
        match self {
            SExpr::Atom(_, s) | SExpr::Int(_, s) | SExpr::Str(_, s) | SExpr::List(_, s) => *s,
        }
    }

    /// Returns the atom text if this is an atom.
    pub fn as_atom(&self) -> Option<&'src str> {
        match self {
            SExpr::Atom(a, _) => Some(a),
            _ => None,
        }
    }

    /// Returns the elements if this is a list.
    pub fn as_list(&self) -> Option<&[SExpr<'src>]> {
        match self {
            SExpr::List(items, _) => Some(items),
            _ => None,
        }
    }

    /// True when this is the atom `word`.
    pub fn is_atom(&self, word: &str) -> bool {
        self.as_atom() == Some(word)
    }

    /// Returns the elements of a list whose head is the atom `word`.
    pub fn as_tagged(&self, word: &str) -> Option<&[SExpr<'src>]> {
        let items = self.as_list()?;
        if items.first()?.is_atom(word) {
            Some(&items[1..])
        } else {
            None
        }
    }
}

impl fmt::Display for SExpr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SExpr::Atom(a, _) => f.write_str(a),
            SExpr::Int(n, _) => write!(f, "{n}"),
            SExpr::Str(s, _) => write!(f, "{s:?}"),
            SExpr::List(items, _) => {
                f.write_str("(")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str(")")
            }
        }
    }
}

/// Reads every top-level S-expression from `src`.
///
/// # Errors
///
/// Returns a [`ParseError`] on unbalanced parentheses, unterminated
/// strings, malformed numbers, reserved characters, or lists nested
/// deeper than [`MAX_NESTING`].
///
/// # Examples
///
/// ```
/// use units_syntax::read_all;
/// let forms = read_all("(+ 1 2) ; comment\n\"hi\"").unwrap();
/// assert_eq!(forms.len(), 2);
/// ```
pub fn read_all(src: &str) -> Result<Vec<SExpr<'_>>, ParseError> {
    let mut reader = Reader { src, bytes: src.as_bytes(), pos: 0 };
    let mut out = Vec::new();
    loop {
        reader.skip_trivia();
        if reader.at_end() {
            return Ok(out);
        }
        out.push(reader.read(0)?.0);
    }
}

/// Reads exactly one S-expression, requiring the whole input be consumed.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input or trailing forms.
pub fn read_one(src: &str) -> Result<SExpr<'_>, ParseError> {
    let forms = read_all(src)?;
    match <[SExpr; 1]>::try_from(forms) {
        Ok([form]) => Ok(form),
        Err(forms) => Err(ParseError::new(
            Span::new(0, src.len()),
            format!("expected exactly one form, found {}", forms.len()),
        )),
    }
}

struct Reader<'s> {
    src: &'s str,
    bytes: &'s [u8],
    pos: usize,
}

impl<'s> Reader<'s> {
    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_trivia(&mut self) {
        while let Some(b) = self.peek() {
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => self.pos += 1,
                b';' => {
                    while let Some(b) = self.peek() {
                        self.pos += 1;
                        if b == b'\n' {
                            break;
                        }
                    }
                }
                _ => break,
            }
        }
    }

    /// Reads one form that `depth` lists enclose, and returns it with the
    /// number of levels it occupies (0 for an atom).
    fn read(&mut self, depth: usize) -> Result<(SExpr<'s>, usize), ParseError> {
        self.skip_trivia();
        let start = self.pos;
        match self.peek() {
            None => Err(ParseError::new(Span::new(start, start), "unexpected end of input")),
            Some(b'(') | Some(b'[') => self.read_list(depth + 1),
            Some(b')') | Some(b']') => {
                Err(ParseError::new(Span::new(start, start + 1), "unexpected closing bracket"))
            }
            Some(b'"') => Ok((self.read_string()?, 0)),
            Some(_) => Ok((self.read_atom()?, 0)),
        }
    }

    /// Reads a list at nesting level `depth` and returns it with its
    /// height: one more than its highest element's, except for a kind.
    /// The parser right-nests the `n` components of `(=> κ1 … κn)` into
    /// `n − 1` arrows, so there component `κi` sits under `min(i, n − 1)`
    /// levels.
    fn read_list(&mut self, depth: usize) -> Result<(SExpr<'s>, usize), ParseError> {
        let start = self.pos;
        if depth > MAX_NESTING {
            return Err(too_deep(Span::new(start, start + 1)));
        }
        let close = if self.peek() == Some(b'(') { b')' } else { b']' };
        self.pos += 1;
        let mut items = Vec::new();
        let mut highest = 0;
        let mut kind_heights = Vec::new();
        loop {
            self.skip_trivia();
            match self.peek() {
                None => {
                    return Err(ParseError::new(Span::new(start, self.pos), "unterminated list"))
                }
                Some(b) if b == close => {
                    self.pos += 1;
                    let span = Span::new(start, self.pos);
                    let n = kind_heights.len();
                    let height = if n >= 2 {
                        kind_heights
                            .iter()
                            .enumerate()
                            .map(|(i, h)| (i + 1).min(n - 1) + h)
                            .fold(0, usize::max)
                    } else {
                        1 + highest
                    };
                    if depth - 1 + height > MAX_NESTING {
                        return Err(too_deep(span));
                    }
                    return Ok((SExpr::List(items, span), height));
                }
                Some(b')') | Some(b']') => {
                    return Err(ParseError::new(
                        Span::new(self.pos, self.pos + 1),
                        "mismatched closing bracket",
                    ))
                }
                Some(_) => {
                    let (item, height) = self.read(depth)?;
                    if items.first().is_some_and(|head| head.is_atom("=>")) {
                        kind_heights.push(height);
                    }
                    highest = highest.max(height);
                    items.push(item);
                }
            }
        }
    }

    fn read_string(&mut self) -> Result<SExpr<'s>, ParseError> {
        // Borrow the literal unless an escape forces a decoded copy.
        let mut decoded: Option<String> = None;
        let start = self.pos;
        self.pos += 1; // opening quote
        loop {
            match self.peek() {
                None => {
                    return Err(ParseError::new(
                        Span::new(start, self.pos),
                        "unterminated string literal",
                    ))
                }
                Some(b'"') => {
                    let text = match decoded {
                        Some(text) => Cow::Owned(text),
                        None => Cow::Borrowed(&self.src[start + 1..self.pos]),
                    };
                    self.pos += 1;
                    return Ok(SExpr::Str(text, Span::new(start, self.pos)));
                }
                Some(b'\\') => {
                    let out =
                        decoded.get_or_insert_with(|| self.src[start + 1..self.pos].to_string());
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| {
                        ParseError::new(Span::new(start, self.pos), "unterminated escape")
                    })?;
                    let ch = match esc {
                        b'n' => '\n',
                        b't' => '\t',
                        b'\\' => '\\',
                        b'"' => '"',
                        other => {
                            return Err(ParseError::new(
                                Span::new(self.pos - 1, self.pos + 1),
                                format!("unknown escape `\\{}`", other as char),
                            ))
                        }
                    };
                    out.push(ch);
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one full UTF-8 character.
                    let rest = &self.src[self.pos..];
                    let Some(ch) = rest.chars().next() else {
                        return Err(ParseError::new(
                            Span::new(start, self.pos),
                            "unterminated string literal",
                        ));
                    };
                    if let Some(out) = &mut decoded {
                        out.push(ch);
                    }
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn read_atom(&mut self) -> Result<SExpr<'s>, ParseError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b' ' | b'\t' | b'\r' | b'\n' | b'(' | b')' | b'[' | b']' | b'"' | b';')
            {
                break;
            }
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        let span = Span::new(start, self.pos);
        debug_assert!(!text.is_empty());
        if text.contains('#') {
            return Err(ParseError::new(
                span,
                "`#` is reserved for machine-generated names".to_string(),
            ));
        }
        let numeric = text.bytes().next().is_some_and(|b| b.is_ascii_digit())
            || (text.len() > 1
                && text.starts_with('-')
                && text.as_bytes()[1].is_ascii_digit());
        if numeric {
            match text.parse::<i64>() {
                Ok(n) => Ok(SExpr::Int(n, span)),
                Err(_) => Err(ParseError::new(span, format!("malformed number `{text}`"))),
            }
        } else {
            Ok(SExpr::Atom(text, span))
        }
    }
}

fn too_deep(span: Span) -> ParseError {
    ParseError::new(span, format!("forms nest deeper than {MAX_NESTING} levels"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_nested_lists() {
        let e = read_one("(a (b c) d)").unwrap();
        let items = e.as_list().unwrap();
        assert_eq!(items.len(), 3);
        assert!(items[0].is_atom("a"));
        assert_eq!(items[1].as_list().unwrap().len(), 2);
    }

    #[test]
    fn reads_square_brackets_as_lists() {
        let e = read_one("(let [(x 1)] x)").unwrap();
        assert_eq!(e.as_list().unwrap().len(), 3);
    }

    #[test]
    fn rejects_mismatched_brackets() {
        assert!(read_one("(a]").is_err());
        assert!(read_one("(a").is_err());
        assert!(read_one(")").is_err());
    }

    #[test]
    fn reads_integers_including_negative() {
        assert!(matches!(read_one("42").unwrap(), SExpr::Int(42, _)));
        assert!(matches!(read_one("-7").unwrap(), SExpr::Int(-7, _)));
        // `-` alone is an operator atom, not a number.
        assert!(matches!(read_one("-").unwrap(), SExpr::Atom("-", _)));
    }

    #[test]
    fn reads_strings_with_escapes() {
        match read_one(r#""a\n\"b\"""#).unwrap() {
            SExpr::Str(s, _) => assert_eq!(s, "a\n\"b\""),
            other => panic!("expected string, got {other:?}"),
        }
        assert!(read_one("\"open").is_err());
    }

    #[test]
    fn comments_are_skipped() {
        let forms = read_all("; leading\n(a) ; trailing\n(b)").unwrap();
        assert_eq!(forms.len(), 2);
    }

    #[test]
    fn hash_is_reserved() {
        let err = read_one("x#1").unwrap_err();
        assert!(err.to_string().contains("reserved"));
    }

    #[test]
    fn display_round_trips() {
        let src = "(unit (import a) (export b) (define b 1))";
        let e = read_one(src).unwrap();
        assert_eq!(e.to_string(), src);
    }

    #[test]
    fn read_one_rejects_trailing_forms() {
        assert!(read_one("(a) (b)").is_err());
        assert!(read_one("").is_err());
    }

    #[test]
    fn kinds_count_the_arrows_the_parser_builds() {
        // `(=> κ1 … κn)` right-nests into n − 1 arrows, and κi sits
        // under min(i, n − 1) of them: each row is accepted when its
        // arrows just reach the cap and refused one level further in.
        let rows = [
            ("(=> * *)", 1),
            ("(=> * * *)", 2),
            ("(=> (=> * *) *)", 2),
            ("(=> * (=> * *))", 2),
            ("(=> * (=> * *) *)", 3),
        ];
        for (kind, height) in rows {
            let wrapped = |n: usize| format!("{}{kind}{}", "(".repeat(n), ")".repeat(n));
            assert!(read_one(&wrapped(MAX_NESTING - height)).is_ok(), "{kind}");
            assert!(read_one(&wrapped(MAX_NESTING - height + 1)).is_err(), "{kind}");
        }
    }

    #[test]
    fn tagged_access() {
        let e = read_one("(import x y)").unwrap();
        let rest = e.as_tagged("import").unwrap();
        assert_eq!(rest.len(), 2);
        assert!(e.as_tagged("export").is_none());
    }
}
