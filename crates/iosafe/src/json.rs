//! The workspace's one JSON codec: a string escape, a compact writer, and
//! a parser to a [`Json`] value (there is no serde in this workspace).
//!
//! - [`write_str`] is the only JSON string escape: `"`, `\`, `\n`, `\r`
//!   and `\t` get their short escapes, every other character below U+0020
//!   becomes `\u00xx` (lowercase hex), and everything else passes through
//!   as UTF-8. [`quoted`] returns the same literal as a new `String`, for
//!   emitters that keep a hand-laid line layout.
//! - [`Writer`] appends to one `String` in call order and places the
//!   commas; key order is the caller's. It builds no value tree, so a
//!   checkpoint dump of a 1.4M-candidate frontier costs one buffer.
//! - [`parse`] reads a whole document. Numbers keep their literal text,
//!   so `u64::MAX` survives exactly, [`Json::as_u64`] refuses signs,
//!   fractions and exponents, and [`Json::as_f64`] still reads decimal
//!   report fields. Containers nest at most [`MAX_DEPTH`] deep, and every
//!   syntax error names its byte offset.
//!
//! Reading a document goes through [`Json::field`] (a required member,
//! converted by one of the `as_*` accessors) and [`Json::get`] (an
//! optional member); writing a member goes through [`Writer::key`]. The
//! `schema-parity` rule of `ocdd-lint` reads a format's key sets off
//! exactly these three call forms.

use std::fmt::{self, Write as _};

/// Deepest container nesting [`parse`] accepts: 64 nested arrays or
/// objects parse, 65 are refused.
pub const MAX_DEPTH: usize = 64;

/// Append `s` to `out` as a JSON string literal, quotes included.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `s` as a JSON string literal, quotes included (see [`write_str`]).
pub fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_str(&mut out, s);
    out
}

/// A compact JSON writer: no whitespace, members and elements in call
/// order. Every method returns the writer, so a member reads
/// `w.key("rows").u64(n)`.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    /// The next key or element follows a sibling and needs a comma.
    comma: bool,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The text written so far.
    pub fn finish(self) -> String {
        self.out
    }

    /// Separate a new key or element from the sibling before it.
    fn sep(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    fn open(&mut self, bracket: char) -> &mut Writer {
        self.sep();
        self.out.push(bracket);
        self.comma = false;
        self
    }

    fn close(&mut self, bracket: char) -> &mut Writer {
        self.out.push(bracket);
        self.comma = true;
        self
    }

    /// Open an object.
    pub fn begin_object(&mut self) -> &mut Writer {
        self.open('{')
    }

    /// Close the innermost object.
    pub fn end_object(&mut self) -> &mut Writer {
        self.close('}')
    }

    /// Open an array.
    pub fn begin_array(&mut self) -> &mut Writer {
        self.open('[')
    }

    /// Close the innermost array.
    pub fn end_array(&mut self) -> &mut Writer {
        self.close(']')
    }

    /// Write a member key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Writer {
        self.sep();
        write_str(&mut self.out, key);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// Write an unsigned integer.
    pub fn u64(&mut self, v: u64) -> &mut Writer {
        self.sep();
        let _ = write!(self.out, "{v}");
        self
    }

    /// Write `true` or `false`.
    pub fn bool(&mut self, v: bool) -> &mut Writer {
        self.sep();
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// Write `null`.
    pub fn null(&mut self) -> &mut Writer {
        self.sep();
        self.out.push_str("null");
        self
    }

    /// Write a string (see [`write_str`]).
    pub fn str(&mut self, s: &str) -> &mut Writer {
        self.sep();
        write_str(&mut self.out, s);
        self
    }

    /// Write a finite `v` with exactly `decimals` digits after the point,
    /// as `format!("{v:.decimals$}")` does.
    pub fn fixed(&mut self, v: f64, decimals: usize) -> &mut Writer {
        self.sep();
        let _ = write!(self.out, "{v:.decimals$}");
        self
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, kept as its literal text (already checked against the
    /// JSON number grammar).
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object's members in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The member `key` of an object (the first, if the key repeats);
    /// `None` when absent or when `self` is not an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The required member `key`, converted by `read` (one of the `as_*`
    /// accessors, or `Some` for the raw value). The error names the key
    /// when the member is absent or `read` refuses it.
    pub fn field<'a, T>(
        &'a self,
        key: &str,
        read: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, JsonError> {
        let value = self.get(key).ok_or_else(|| JsonError {
            offset: None,
            message: format!("missing field `{key}`"),
        })?;
        read(value).ok_or_else(|| JsonError {
            offset: None,
            message: format!("field `{key}` has the wrong type"),
        })
    }

    /// An unsigned integer that fits `u64`: digits only, no sign,
    /// fraction or exponent.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(text) if text.bytes().all(|b| b.is_ascii_digit()) => text.parse().ok(),
            _ => None,
        }
    }

    /// [`Json::as_u64`] narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// Any number, read as the nearest `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// A boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// A string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// An array's elements.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// An object's members.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

/// Why a document could not be parsed, or a field not read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of a syntax error in the parsed text; `None` for a
    /// missing or mistyped field.
    pub offset: Option<usize>,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(at) => write!(f, "{} at byte {at}", self.message),
            None => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for JsonError {}

/// Parse one JSON document; whitespace may surround it, nothing else.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser { text, i: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.i < text.len() {
        return Err(p.err("trailing data after the document"));
    }
    Ok(value)
}

/// Recursive-descent reader over `text`; `i` is the next byte.
struct Parser<'a> {
    text: &'a str,
    i: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        self.err_at(self.i, message)
    }

    fn err_at(&self, offset: usize, message: &str) -> JsonError {
        JsonError {
            offset: Some(offset),
            message: message.to_owned(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.i).copied()
    }

    /// Consume `c` if it is the next byte.
    fn eat(&mut self, c: u8) -> bool {
        let hit = self.peek() == Some(c);
        if hit {
            self.i += 1;
        }
        hit
    }

    fn rest(&self) -> &str {
        self.text.get(self.i..).unwrap_or_default()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.skip_ws();
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

    /// Consume an opening bracket at `depth`; the depth of its contents.
    fn open(&mut self, depth: usize) -> Result<usize, JsonError> {
        if depth >= MAX_DEPTH {
            return Err(self.err("containers nested too deep"));
        }
        self.i += 1;
        self.skip_ws();
        Ok(depth + 1)
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        let inner = self.open(depth)?;
        let mut fields = Vec::new();
        if self.eat(b'}') {
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.err("expected `:`"));
            }
            fields.push((key, self.value(inner)?));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Json::Obj(fields));
            }
            if !self.eat(b',') {
                return Err(self.err("expected `,` or `}`"));
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        let inner = self.open(depth)?;
        let mut items = Vec::new();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(inner)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.err("expected `,` or `]`"));
            }
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if !self.rest().starts_with(word) {
            return Err(self.err("expected a JSON value"));
        }
        self.i += word.len();
        Ok(value)
    }

    /// Consume one or more digits, or fail naming `what`.
    fn digits(&mut self, what: &str) -> Result<(), JsonError> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err(what));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        Ok(())
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.i;
        self.eat(b'-');
        if self.eat(b'0') {
            if matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err_at(start, "number with a leading zero"));
            }
        } else {
            self.digits("expected a digit")?;
        }
        if self.eat(b'.') {
            self.digits("expected a digit after the decimal point")?;
        }
        if self.eat(b'e') || self.eat(b'E') {
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            self.digits("expected a digit in the exponent")?;
        }
        let text = self.text.get(start..self.i).unwrap_or_default();
        Ok(Json::Num(text.to_owned()))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.i += 1; // the opening quote
        let mut out = String::new();
        loop {
            let run = self.i;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.i += 1;
            }
            // The run stops at an ASCII byte or the end: a char boundary.
            out.push_str(self.text.get(run..self.i).unwrap_or_default());
            match self.peek() {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => self.escape(&mut out)?,
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Decode the escape at the backslash under `i` into `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let at = self.i;
        self.i += 1;
        let short = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.i += 1;
                let unit = self.hex4()?;
                let code = if (0xD800..=0xDBFF).contains(&unit) {
                    if !self.rest().starts_with("\\u") {
                        return Err(self.err_at(at, "unpaired high surrogate"));
                    }
                    self.i += 2;
                    let low = self.hex4()?;
                    if !(0xDC00..=0xDFFF).contains(&low) {
                        return Err(self.err_at(at, "high surrogate without a low surrogate"));
                    }
                    0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                } else {
                    unit
                };
                // Every code left invalid is a lone low surrogate.
                let c =
                    char::from_u32(code).ok_or_else(|| self.err_at(at, "lone low surrogate"))?;
                out.push(c);
                return Ok(());
            }
            _ => return Err(self.err("bad escape")),
        };
        self.i += 1;
        out.push(short);
        Ok(())
    }

    /// Four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut unit = 0;
        for _ in 0..4 {
            let digit = self.peek().and_then(|c| char::from(c).to_digit(16));
            let Some(digit) = digit else {
                return Err(self.err("expected a hex digit"));
            };
            unit = unit * 16 + digit;
            self.i += 1;
        }
        Ok(unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;

    /// Drive `w` through `v` (numbers must be `u64` literals).
    fn write_value(w: &mut Writer, v: &Json) {
        match v {
            Json::Null => {
                w.null();
            }
            Json::Bool(b) => {
                w.bool(*b);
            }
            Json::Num(text) => {
                w.u64(text.parse().expect("u64 literal"));
            }
            Json::Str(s) => {
                w.str(s);
            }
            Json::Arr(items) => {
                w.begin_array();
                for item in items {
                    write_value(w, item);
                }
                w.end_array();
            }
            Json::Obj(fields) => {
                w.begin_object();
                for (k, item) in fields {
                    w.key(k);
                    write_value(w, item);
                }
                w.end_object();
            }
        }
    }

    fn write(v: &Json) -> String {
        let mut w = Writer::new();
        write_value(&mut w, v);
        w.finish()
    }

    /// Characters that exercise every escape class and multi-byte UTF-8.
    const ALPHABET: &[char] = &[
        'a',
        'Z',
        '0',
        ' ',
        '"',
        '\\',
        '/',
        '\n',
        '\r',
        '\t',
        '\u{0}',
        '\u{1}',
        '\u{1f}',
        '\u{7f}',
        'é',
        '\u{2028}',
        '\u{FFFF}',
        '🦀',
        '\u{10FFFF}',
    ];

    /// Random [`Json`] values of bounded depth and width.
    struct ArbJson {
        depth: usize,
    }

    fn pick(rng: &mut TestRng, n: usize) -> usize {
        (rng.next_u64() % n as u64) as usize
    }

    fn arb_string(rng: &mut TestRng) -> String {
        let len = pick(rng, 8);
        (0..len)
            .map(|_| ALPHABET[pick(rng, ALPHABET.len())])
            .collect()
    }

    impl Strategy for ArbJson {
        type Value = Json;
        fn generate(&self, rng: &mut TestRng) -> Json {
            let kinds = if self.depth == 0 { 4 } else { 6 };
            let inner = ArbJson {
                depth: self.depth.saturating_sub(1),
            };
            match pick(rng, kinds) {
                0 => Json::Null,
                1 => Json::Bool(rng.next_u64().is_multiple_of(2)),
                2 => {
                    let n = match pick(rng, 4) {
                        0 => 0,
                        1 => u64::MAX,
                        2 => rng.next_u64() % 1000,
                        _ => rng.next_u64(),
                    };
                    Json::Num(n.to_string())
                }
                3 => Json::Str(arb_string(rng)),
                4 => Json::Arr((0..pick(rng, 4)).map(|_| inner.generate(rng)).collect()),
                _ => Json::Obj(
                    (0..pick(rng, 4))
                        .map(|_| (arb_string(rng), inner.generate(rng)))
                        .collect(),
                ),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn parse_inverts_write(v in ArbJson { depth: 4 }) {
            let text = write(&v);
            prop_assert_eq!(parse(&text), Ok(v.clone()), "{}", text);
        }
    }

    fn nested(depth: usize) -> String {
        format!("{}{}", "[".repeat(depth), "]".repeat(depth))
    }

    #[test]
    fn deep_nesting_round_trips_up_to_the_cap() {
        let mut v = Json::Arr(vec![Json::Num(u64::MAX.to_string())]);
        for _ in 1..MAX_DEPTH {
            v = Json::Obj(vec![("k".to_owned(), v)]);
        }
        assert_eq!(parse(&write(&v)), Ok(v));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
    }

    #[test]
    fn writer_places_commas_and_escapes() {
        let mut w = Writer::new();
        w.begin_object().key("a").u64(1).key("b").begin_array();
        w.str("x\"y").bool(true).null().fixed(1.5, 3).fixed(0.25, 0);
        w.end_array().key("c").begin_object().end_object();
        w.end_object();
        assert_eq!(
            w.finish(),
            r#"{"a":1,"b":["x\"y",true,null,1.500,0],"c":{}}"#
        );
        assert_eq!(quoted("a\u{1}\u{1F980}"), "\"a\\u0001\u{1F980}\"");
    }

    #[test]
    fn numbers_keep_their_text() {
        let v = parse("[18446744073709551615,18446744073709551616,-3,1.5,1e5,0]").expect("parse");
        let nums: Vec<(Option<u64>, Option<f64>)> = v
            .as_array()
            .expect("array")
            .iter()
            .map(|n| (n.as_u64(), n.as_f64()))
            .collect();
        assert_eq!(
            nums,
            [
                (Some(u64::MAX), Some(1.8446744073709552e19)),
                (None, Some(1.8446744073709552e19)),
                (None, Some(-3.0)),
                (None, Some(1.5)),
                (None, Some(1e5)),
                (Some(0), Some(0.0)),
            ]
        );
    }

    #[test]
    fn fields_name_the_missing_or_mistyped_key() {
        let v = parse(r#"{"n":7,"s":"x","z":null}"#).expect("parse");
        assert_eq!(v.field("n", Json::as_u64), Ok(7));
        assert_eq!(v.field("s", Json::as_str), Ok("x"));
        assert!(v.field("z", Some).is_ok_and(Json::is_null));
        assert_eq!(v.get("absent"), None);
        let missing = v.field("absent", Json::as_u64).unwrap_err();
        assert_eq!(missing.to_string(), "missing field `absent`");
        let mistyped = v.field("s", Json::as_u64).unwrap_err();
        assert_eq!(mistyped.to_string(), "field `s` has the wrong type");
    }

    /// Every malformed document is refused with the byte offset where
    /// parsing failed. The first eight rows are the snapshot parser's old
    /// rejection cases; `{"a":-3}` among them is valid JSON, refused where
    /// it is read as a `u64`.
    #[test]
    fn malformed_documents_are_refused_at_their_offset() {
        let deep = nested(MAX_DEPTH + 1);
        let cases: &[(&str, usize, &str)] = &[
            ("", 0, "unexpected end of input"),
            ("{", 1, "expected a string key"),
            ("{\"format\":\"ocdd-snapshot\"", 25, "expected `,` or `}`"),
            ("[1,2,]", 5, "expected a JSON value"),
            ("{\"a\":01e5}", 5, "number with a leading zero"),
            ("nullx", 4, "trailing data after the document"),
            ("{\"a\":\"unterminated", 18, "unterminated string"),
            (&deep, MAX_DEPTH, "containers nested too deep"),
            ("\"\\ud800\"", 1, "unpaired high surrogate"),
            ("\"\\ud800x\"", 1, "unpaired high surrogate"),
            (
                "\"\\ud800\\u0041\"",
                1,
                "high surrogate without a low surrogate",
            ),
            ("\"\\udc00\"", 1, "lone low surrogate"),
            ("[00]", 1, "number with a leading zero"),
            ("-01", 0, "number with a leading zero"),
            ("\"\\x\"", 2, "bad escape"),
            ("\"\\u12g4\"", 5, "expected a hex digit"),
            ("\"a\u{1}b\"", 2, "unescaped control character in string"),
            ("{} {}", 3, "trailing data after the document"),
            ("[1] x", 4, "trailing data after the document"),
            ("-", 1, "expected a digit"),
            ("1.", 2, "expected a digit after the decimal point"),
            ("1e+", 3, "expected a digit in the exponent"),
            ("{\"a\" 1}", 5, "expected `:`"),
            ("{1:2}", 1, "expected a string key"),
            ("[1 2]", 3, "expected `,` or `]`"),
            ("tru", 0, "expected a JSON value"),
        ];
        for &(doc, offset, message) in cases {
            let err = parse(doc).expect_err(doc);
            assert_eq!(
                (err.offset, err.message.as_str()),
                (Some(offset), message),
                "{doc:?}"
            );
            assert!(err.to_string().ends_with(&format!("at byte {offset}")));
        }
        let signed = parse("{\"a\":-3}").expect("valid JSON");
        assert_eq!(
            signed.field("a", Json::as_u64).map_err(|e| e.offset),
            Err(None)
        );
    }
}
