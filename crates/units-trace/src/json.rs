//! The workspace's one JSON codec: a [`Json`] value, its printer, the
//! string [`escape`]r, and a depth-capped [`parse`]r — zero
//! dependencies, so every crate can read and write JSON without serde.
//!
//! Writers either build a [`Json`] tree and render it (the `unitsd`
//! wire protocol, the engine's metrics snapshot) or assemble text by
//! hand around [`escape`] (trace events, the bench summary). Readers
//! and self-checks all go through [`parse`], which follows RFC 8259
//! exactly: it rejects what a strict consumer would (`01`, `1.`,
//! `-.5`, lone surrogates, raw control characters), decodes string
//! escapes in the same pass, and refuses containers nested more than
//! 64 deep because it reads attacker-controlled socket bytes.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A parsed JSON value.
///
/// Numbers are split into [`Json::Int`] and [`Json::Float`]: the
/// protocol itself only uses integers (versions, limits, arguments),
/// but stats payloads may carry derived averages. An integer literal
/// outside `i64` parses as a `Float`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer number.
    Int(i64),
    /// A non-integer number. NaN and the infinities render as `null`,
    /// since JSON has no spelling for them.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` keeps rendering deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// The value at `key`, when this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The string at `key`, when present.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer at `key`, when present.
    pub fn get_int(&self, key: &str) -> Option<i64> {
        match self.get(key)? {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean at `key`, when present.
    pub fn get_bool(&self, key: &str) -> Option<bool> {
        match self.get(key)? {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Renders this value as compact JSON text.
    pub fn render(&self) -> String {
        self.to_string()
    }
}

/// A count as a number: an `Int` when it fits `i64`, else the `Float`
/// that [`parse`] would read its digits back as.
impl From<u64> for Json {
    fn from(n: u64) -> Json {
        i64::try_from(n).map_or(Json::Float(n as f64), Json::Int)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Float(x) if !x.is_finite() => f.write_str("null"),
            // `{}` on an integral f64 prints no decimal point, which
            // would reparse as Int; force one so round-trips hold.
            Json::Float(x) if x.fract() == 0.0 => write!(f, "{x:.1}"),
            Json::Float(x) => write!(f, "{x}"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Json::Obj(map) => {
                f.write_char('{')?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Escapes `s` as a JSON string literal, including the quotes. Every
/// control character is escaped (`\u00XX` unless it has a short form).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_escaped(&mut out, s).expect("writing to a String cannot fail");
    out
}

fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    // Every byte that needs escaping is ASCII, so each run between
    // two of them is whole UTF-8.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        if short.is_empty() {
            write!(out, "\\u{b:04x}")?;
        } else {
            out.write_str(short)?;
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

/// Where and why a parse failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Arrays and objects nested deeper than this are refused.
const MAX_DEPTH: usize = 64;

/// Parses exactly one JSON value, with optional surrounding
/// whitespace.
///
/// # Errors
///
/// Returns a [`JsonError`] locating the first violation of RFC 8259,
/// or the first container nested more than 64 deep.
pub fn parse(src: &str) -> Result<Json, JsonError> {
    let mut p = Parser { src, pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != src.len() {
        return Err(p.err("trailing characters after the JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        self.err_at(self.pos, message)
    }

    fn err_at(&self, offset: usize, message: &str) -> JsonError {
        JsonError { offset, message: message.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn skip_digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    /// `depth` counts the containers already open around this value.
    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("expected a JSON value")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.src[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    /// Opens a container, refusing one nested past `MAX_DEPTH`.
    fn open(&mut self, depth: usize) -> Result<(), JsonError> {
        if depth >= MAX_DEPTH {
            return Err(self.err("value nested too deeply"));
        }
        self.pos += 1;
        self.skip_ws();
        Ok(())
    }

    /// After an element: `true` at the closing `close`, `false` after a
    /// `,` (with whitespace skipped on both sides).
    fn next_or_close(&mut self, close: u8) -> Result<bool, JsonError> {
        self.skip_ws();
        if self.eat(close) {
            return Ok(true);
        }
        if !self.eat(b',') {
            return Err(self.err(&format!("expected `,` or `{}`", close as char)));
        }
        self.skip_ws();
        Ok(false)
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.open(depth)?;
        let mut items = Vec::new();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            if self.next_or_close(b']')? {
                return Ok(Json::Arr(items));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.open(depth)?;
        let mut map = BTreeMap::new();
        if self.eat(b'}') {
            return Ok(Json::Obj(map));
        }
        loop {
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.err("expected `:`"));
            }
            self.skip_ws();
            map.insert(key, self.value(depth + 1)?);
            if self.next_or_close(b'}')? {
                return Ok(Json::Obj(map));
            }
        }
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        if self.eat(b'0') {
            if matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("leading zeros are not allowed"));
            }
        } else if !self.skip_digits() {
            return Err(self.err("expected a digit"));
        }
        let mut integral = true;
        if self.eat(b'.') {
            integral = false;
            if !self.skip_digits() {
                return Err(self.err("expected a digit after `.`"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            if !self.skip_digits() {
                return Err(self.err("expected a digit in the exponent"));
            }
        }
        let text = &self.src[start..self.pos];
        if integral {
            if let Ok(n) = text.parse() {
                return Ok(Json::Int(n));
            }
        }
        // The grammar above is a subset of what `f64::from_str` reads.
        Ok(Json::Float(text.parse().expect("RFC 8259 numbers parse as f64")))
    }

    /// Reads a string literal, decoding its escapes as it goes.
    fn string(&mut self) -> Result<String, JsonError> {
        let start = self.pos;
        self.pos += 1; // the opening quote
        let mut out = String::new();
        loop {
            // Copy the run up to the next byte that needs attention;
            // those are all ASCII, so the run is whole UTF-8.
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.src[run..self.pos]);
            match self.peek() {
                None => return Err(self.err_at(start, "unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => out.push(self.escape_sequence()?),
                Some(_) => return Err(self.err("unescaped control character in string")),
            }
        }
    }

    /// Decodes one escape sequence; `self.pos` is at its backslash.
    fn escape_sequence(&mut self) -> Result<char, JsonError> {
        let at = self.pos;
        self.pos += 2;
        let decoded = match self.src.as_bytes().get(at + 1) {
            None => return Err(self.err_at(at, "truncated escape")),
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let unit = self.hex4(at)?;
                match unit {
                    0xD800..=0xDBFF => {
                        // A high surrogate: a `\uDC00`–`\uDFFF` low half
                        // must follow immediately.
                        if !self.src[self.pos..].starts_with("\\u") {
                            return Err(self.err_at(at, "lone high surrogate"));
                        }
                        self.pos += 2;
                        let low = self.hex4(at)?;
                        if !(0xDC00..=0xDFFF).contains(&low) {
                            return Err(self.err_at(at, "invalid low surrogate"));
                        }
                        let scalar = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                        char::from_u32(scalar).expect("a surrogate pair is a scalar value")
                    }
                    0xDC00..=0xDFFF => return Err(self.err_at(at, "lone low surrogate")),
                    _ => char::from_u32(unit).expect("a non-surrogate BMP unit is a char"),
                }
            }
            Some(_) => return Err(self.err_at(at, "invalid escape character")),
        };
        Ok(decoded)
    }

    /// Reads the four hex digits of a `\u` escape starting at `at`.
    fn hex4(&mut self, at: usize) -> Result<u32, JsonError> {
        let digits = self
            .src
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err_at(at, "truncated \\u escape"))?;
        let mut unit = 0;
        for &d in digits {
            let digit =
                char::from(d).to_digit(16).ok_or_else(|| self.err_at(at, "invalid \\u escape"))?;
            unit = unit << 4 | digit;
        }
        self.pos += 4;
        Ok(unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` arrays nested inside one another, as text and as a value.
    fn nested(n: usize) -> (String, Json) {
        let text = format!("{}{}", "[".repeat(n), "]".repeat(n));
        let value = (1..n).fold(Json::Arr(Vec::new()), |inner, _| Json::Arr(vec![inner]));
        (text, value)
    }

    /// The grammar, one row per input: what [`parse`] must make of it,
    /// or `None` where it must refuse.
    fn grammar() -> Vec<(String, Option<Json>)> {
        let arr = Json::Arr;
        let mut rows: Vec<(String, Option<Json>)> = [
            ("null", Some(Json::Null)),
            ("true", Some(Json::Bool(true))),
            (" false ", Some(Json::Bool(false))),
            ("0", Some(Json::Int(0))),
            ("-0", Some(Json::Int(0))),
            ("-12.5e+3", Some(Json::Float(-12_500.0))),
            ("1E-3", Some(Json::Float(0.001))),
            ("9223372036854775807", Some(Json::Int(i64::MAX))),
            ("-9223372036854775808", Some(Json::Int(i64::MIN))),
            // Integers outside i64 read as floats, not as errors.
            ("9223372036854775808", Some(Json::Float(9_223_372_036_854_775_808.0))),
            ("100000000000000000000", Some(Json::Float(1e20))),
            ("\"a\\n\\u00e9\"", Some(Json::str("a\n\u{e9}"))),
            ("[]", Some(arr(vec![]))),
            (
                "[1, [2, {\"k\": null}]]",
                Some(arr(vec![
                    Json::Int(1),
                    arr(vec![Json::Int(2), Json::obj([("k", Json::Null)])]),
                ])),
            ),
            (
                "{\"a\": 1, \"b\": [true, \"x\"]}",
                Some(Json::obj([
                    ("a", Json::Int(1)),
                    ("b", arr(vec![Json::Bool(true), Json::str("x")])),
                ])),
            ),
            ("", None),
            ("{", None),
            ("[1,]", None),
            ("{\"a\":}", None),
            ("{\"a\" 1}", None),
            ("{a: 1}", None),
            ("{'a':1}", None),
            ("{} {}", None),
            ("1 2", None),
            ("tru", None),
            ("x", None),
            ("01", None),
            ("-01", None),
            ("1.", None),
            ("-.5", None),
            ("1e", None),
            ("+1", None),
            ("-", None),
        ]
        .into_iter()
        .map(|(src, value)| (src.to_string(), value))
        .collect();
        let (deepest, value) = nested(MAX_DEPTH);
        rows.push((deepest, Some(value)));
        rows.push((nested(MAX_DEPTH + 1).0, None));
        rows.push((format!("{}1{}", "[".repeat(100), "]".repeat(100)), None));
        rows
    }

    #[test]
    fn accepts_the_grammar() {
        for (src, expected) in grammar() {
            if let Some(value) = expected {
                assert_eq!(parse(&src), Ok(value), "{src:?}");
            }
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for (src, expected) in grammar() {
            if expected.is_none() {
                assert!(parse(&src).is_err(), "accepted: {src:?}");
            }
        }
    }

    /// A frame cut anywhere — inside a key, an escape, a surrogate
    /// pair, a number — is an error, never a panic or a partial value.
    #[test]
    fn every_truncation_of_a_document_is_refused() {
        let doc = r#"{"kéy":[-12.5e+3,0,true,null,"𝄞\n\"x\""],"n":{"m":[]}}"#;
        assert!(parse(doc).is_ok());
        for (end, _) in doc.char_indices() {
            assert!(parse(&doc[..end]).is_err(), "accepted a prefix: {:?}", &doc[..end]);
        }
    }

    #[test]
    fn round_trips_the_protocol_shapes() {
        let cases = [
            r#"{"op":"hello","tenant":"a"}"#,
            r#"{"arg":7,"fuel":1000,"name":"sq","op":"invoke"}"#,
            r#"{"items":[1,-2,true,null,"x\n\"y\""],"nested":{"k":[{}]}}"#,
            "[1.5,2.0,-0.25]",
        ];
        for src in cases {
            let value = parse(src).unwrap();
            assert_eq!(value.render(), src, "canonical text must round-trip");
            assert_eq!(parse(&value.render()).unwrap(), value);
        }
    }

    #[test]
    fn accessors_pick_typed_fields() {
        let v = parse(r#"{"op":"invoke","arg":7,"deep":{"x":1},"on":true}"#).unwrap();
        assert_eq!(v.get_str("op"), Some("invoke"));
        assert_eq!(v.get_int("arg"), Some(7));
        assert_eq!(v.get_bool("on"), Some(true));
        assert_eq!(v.get_str("arg"), None, "wrong type reads as absent");
        assert_eq!(v.get("deep").and_then(|d| d.get_int("x")), Some(1));
    }

    #[test]
    fn integral_floats_stay_floats_across_a_round_trip() {
        // (value, its rendering, what that rendering parses back to)
        let rows = [
            (Json::Float(2.0), "2.0", Json::Float(2.0)),
            (Json::Float(-0.25), "-0.25", Json::Float(-0.25)),
            (Json::Float(1e20), "100000000000000000000.0", Json::Float(1e20)),
            // JSON cannot spell these; they render as the one value
            // every reader accepts.
            (Json::Float(f64::NAN), "null", Json::Null),
            (Json::Float(f64::INFINITY), "null", Json::Null),
            (Json::Float(f64::NEG_INFINITY), "null", Json::Null),
            (Json::from(u64::MAX), "18446744073709551616.0", Json::from(u64::MAX)),
        ];
        for (value, text, back) in rows {
            assert_eq!(value.render(), text);
            assert_eq!(parse(text), Ok(back), "{text}");
        }
    }

    /// Adversarial payloads: every control character, the quoting
    /// characters, DEL, line/paragraph separators, astral-plane text.
    fn adversarial_payloads() -> Vec<String> {
        let all_controls: String = (0u8..0x20).map(char::from).collect();
        let mut payloads = vec![all_controls];
        payloads.extend(
            [
                "\u{0}embedded\u{0}nuls\u{0}",
                "quotes \" and \\ backslashes \\\" mixed",
                "\\u0000 (a literal escape sequence, not a control)",
                "a\"b\\c\nd\te\u{1}f — π",
                "\u{7f}\u{80}\u{9f}", // DEL and C1 controls pass through raw
                "\u{2028}line sep\u{2029}paragraph sep",
                "π ≠ 𝄞 😀 — astral pairs",
                "",
            ]
            .map(String::from),
        );
        payloads
    }

    /// [`parse`] is the validator: every payload `escape`s to text that
    /// is a valid document, alone and as a key and a value of a
    /// rendered tree, and that tree parses back unchanged.
    #[test]
    fn escape_round_trips_through_validate() {
        for payload in adversarial_payloads() {
            let literal = escape(&payload);
            parse(&literal).unwrap_or_else(|e| panic!("{payload:?}: {e}"));
            let tree = Json::Obj(BTreeMap::from([(
                payload.clone(),
                Json::Arr(vec![Json::str(&payload)]),
            )]));
            assert_eq!(parse(&tree.render()), Ok(tree), "{payload:?}");
        }
    }

    /// [`parse`] is the decoder: `escape` must produce a literal that
    /// decodes back to the original, byte for byte.
    #[test]
    fn escape_unescape_round_trips_adversarial_payloads() {
        for payload in adversarial_payloads() {
            assert_eq!(parse(&escape(&payload)), Ok(Json::str(&payload)), "mangled {payload:?}");
        }
    }

    #[test]
    fn unescape_decodes_foreign_escapes() {
        // Escapes `escape` never emits but other producers do.
        let rows = [
            (r#""\/\b\f""#, "/\u{8}\u{c}"),
            ("\"\\ud834\\udd1e\"", "\u{1d11e}"), // surrogate pair
            ("\"\\u00e9\\u2028\"", "\u{e9}\u{2028}"),
        ];
        for (literal, text) in rows {
            assert_eq!(parse(literal), Ok(Json::str(text)), "{literal}");
        }
    }

    #[test]
    fn unescape_rejects_malformed_literals() {
        for bad in [
            "",
            "x",
            "\"unterminated",
            "\"trailing\" x",
            r#""\q""#,
            r#""\u12""#,
            r#""\uZZZZ""#,
            r#""\ud834""#,  // lone high surrogate
            r#""\ud834A""#, // high surrogate followed by a non-surrogate
            r#""\udd1e""#,  // lone low surrogate
            "\"raw\u{1}control\"",
        ] {
            assert!(parse(bad).is_err(), "accepted: {bad:?}");
        }
    }
}
