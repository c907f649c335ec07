//! The workspace's one JSON codec: a strict RFC 8259 reader and the
//! string escaper every JSON writer uses.
//!
//! Tower snapshots, shard snapshots, the service's line protocol, the
//! shard wire and the `BENCH_*.json` reports all decode through
//! [`parse`] and write strings through [`push_string`]. The crate is a
//! zero-dependency leaf, so every consumer already links it.
//!
//! * **Borrowed values in document order.** [`Value::Obj`] keeps its
//!   entries as a vector, so a report diff walks stages in the order the
//!   document lists them, and duplicate keys stay visible to decoders
//!   that must reject them. A string without escapes borrows from the
//!   input; only escaped strings allocate.
//! * **Raw number text.** [`Value::Num`] is the number's source
//!   spelling (`"1.50"` stays `"1.50"`), so counters compare
//!   bit-exactly as text and integer decoders see overflow instead of a
//!   rounded float.
//! * **Strict grammar.** No leading zeros, signs other than a leading
//!   `-`, bare fractions, raw control characters, unknown escapes, or
//!   unpaired `\u` surrogates. Nesting deeper than [`MAX_DEPTH`] is an
//!   [`Error`], not a stack overflow.
//!
//! ```
//! use lcl_obs::json::{self, Value};
//!
//! let doc = json::parse(r#"{"stage": "a\tb", "rounds": 3}"#)?;
//! assert_eq!(doc.get("rounds").and_then(Value::as_u64), Some(3));
//! let stage = doc.get("stage").and_then(Value::as_str);
//! assert_eq!(stage, Some("a\tb"));
//! let mut out = String::new();
//! json::push_string(&mut out, "a\tb");
//! assert_eq!(out, r#""a\tb""#);
//! # Ok::<(), json::Error>(())
//! ```

use std::borrow::Cow;
use std::fmt;

/// The deepest array/object nesting [`parse`] accepts. Every document
/// the workspace writes nests fewer than ten levels.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value, borrowing from the input text.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Value<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw source text (e.g. `"0.4419"`, `"127"`).
    Num(&'a str),
    /// A string, unescaped.
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Value<'a>>),
    /// An object, in document order (duplicate keys kept).
    Obj(Vec<(Cow<'a, str>, Value<'a>)>),
}

impl<'a> Value<'a> {
    /// The value of the first `key` entry of an object; `None` for a
    /// missing key or another variant.
    pub fn get(&self, key: &str) -> Option<&Value<'a>> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The number's raw text, if this is a number.
    pub fn as_num(&self) -> Option<&'a str> {
        match self {
            Self::Num(raw) => Some(raw),
            _ => None,
        }
    }

    /// The number as a `u64`, if it is a non-negative integer (no
    /// fraction or exponent) that fits.
    pub fn as_u64(&self) -> Option<u64> {
        let raw = self.as_num()?;
        if raw.len() >= 20 {
            // Only this long can overflow: the checked parser decides.
            return raw.parse().ok();
        }
        raw.bytes().try_fold(0, |n, b| {
            b.is_ascii_digit().then(|| n * 10 + u64::from(b - b'0'))
        })
    }

    /// The number parsed as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        self.as_num()?.parse().ok()
    }

    /// The boolean, if this is `true` or `false`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Self::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value<'a>]> {
        match self {
            Self::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object entries in document order, if this is an object.
    pub fn as_obj(&self) -> Option<&[(Cow<'a, str>, Value<'a>)]> {
        match self {
            Self::Obj(entries) => Some(entries),
            _ => None,
        }
    }

    /// A short name for the variant, for diagnostics.
    pub fn type_name(&self) -> &'static str {
        match self {
            Self::Null => "null",
            Self::Bool(_) => "bool",
            Self::Num(_) => "number",
            Self::Str(_) => "string",
            Self::Arr(_) => "array",
            Self::Obj(_) => "object",
        }
    }
}

/// Why a document is not JSON: the byte offset the reader stopped at
/// and what it expected there.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Error {
    /// Byte offset into the input.
    pub pos: usize,
    /// What the reader expected at `pos`.
    pub what: &'static str,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON at byte {}: expected {}", self.pos, self.what)
    }
}

impl std::error::Error for Error {}

/// Parses one complete JSON document; whitespace may surround it,
/// nothing else may follow it.
///
/// # Errors
///
/// [`Error`] at the first byte that breaks the grammar, or where the
/// nesting exceeds [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value<'_>, Error> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        items: Vec::new(),
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("end of document"));
    }
    Ok(value)
}

/// Appends `s` as a quoted JSON string: `"` `\` newline, carriage
/// return and tab get their short escapes, every other character below
/// `0x20` becomes a lowercase `\u00xx`, and everything else is copied.
/// The output never contains a raw newline, so it is safe inside
/// line-delimited JSON.
pub fn push_string(out: &mut String, s: &str) {
    out.push('"');
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
        out.push_str(&s[run..i]);
        if short.is_empty() {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        } else {
            out.push_str(short);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// [`push_string`] into a fresh `String`, for `format!` call sites.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_string(&mut out, s);
    out
}

const HEX: &[u8; 16] = b"0123456789abcdef";

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Elements of the arrays being read, innermost last: an array is
    /// moved out in one exact-size allocation when it closes.
    items: Vec<Value<'a>>,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &'static str) -> Error {
        Error {
            pos: self.pos,
            what,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value<'a>, Error> {
        match self.peek() {
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            _ => Err(self.err("a JSON value")),
        }
    }

    fn literal(&mut self, word: &'static str, value: Value<'a>) -> Result<Value<'a>, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("true, false or null"))
        }
    }

    /// Consumes `[0-9]+`; `false` when there is no digit.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    fn number(&mut self) -> Result<Value<'a>, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(self.err("a digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !self.digits() {
                return Err(self.err("a digit after the decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.digits() {
                return Err(self.err("a digit in the exponent"));
            }
        }
        Ok(Value::Num(&self.text[start..self.pos]))
    }

    /// Reads a string at the opening quote. Escape-free strings borrow
    /// from the input; the first escape switches to an owned buffer.
    fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        if self.peek() != Some(b'"') {
            return Err(self.err("a string"));
        }
        self.pos += 1;
        let start = self.pos;
        self.plain_run()?;
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        let mut out = String::from(&self.text[start..self.pos]);
        loop {
            // `plain_run` stopped at a quote or a backslash.
            if self.peek() == Some(b'"') {
                self.pos += 1;
                return Ok(Cow::Owned(out));
            }
            self.pos += 1;
            let escape = self.peek();
            self.pos += 1;
            match escape {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'u') => out.push(self.unicode_escape()?),
                _ => {
                    self.pos -= 1;
                    return Err(self.err("a valid escape character"));
                }
            }
            let run = self.pos;
            self.plain_run()?;
            out.push_str(&self.text[run..self.pos]);
        }
    }

    /// Advances over string bytes that need no decoding, stopping at a
    /// quote or a backslash. The input is a `&str`, so multi-byte
    /// characters are valid and every stop is a character boundary.
    fn plain_run(&mut self) -> Result<(), Error> {
        loop {
            match self.peek() {
                Some(b'"' | b'\\') => return Ok(()),
                Some(0..=0x1f) => return Err(self.err("an escaped control character")),
                Some(_) => self.pos += 1,
                None => return Err(self.err("a closing quote")),
            }
        }
    }

    /// Decodes the hex digits after `\u` (already consumed), joining a
    /// high surrogate with the `\u` low surrogate that must follow it.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let high = self.hex4()?;
        let code = match high {
            0xd800..=0xdbff => {
                if !self.bytes[self.pos..].starts_with(b"\\u") {
                    return Err(self.err("a \\u low surrogate completing the pair"));
                }
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xdc00..=0xdfff).contains(&low) {
                    self.pos -= 4;
                    return Err(self.err("a \\u low surrogate completing the pair"));
                }
                0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00)
            }
            0xdc00..=0xdfff => {
                self.pos -= 4;
                return Err(self.err("a \\u high surrogate before a low surrogate"));
            }
            _ => high,
        };
        Ok(char::from_u32(code).expect("why: non-surrogate code points below 0x110000 are chars"))
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(b @ b'0'..=b'9') => b - b'0',
                Some(b @ b'a'..=b'f') => b - b'a' + 10,
                Some(b @ b'A'..=b'F') => b - b'A' + 10,
                _ => return Err(self.err("four hex digits after \\u")),
            };
            code = code * 16 + u32::from(digit);
            self.pos += 1;
        }
        Ok(code)
    }

    fn array(&mut self, depth: usize) -> Result<Value<'a>, Error> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting no deeper than MAX_DEPTH"));
        }
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(Vec::new()));
        }
        let start = self.items.len();
        loop {
            self.skip_ws();
            let item = self.value(depth)?;
            self.items.push(item);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(self.items.split_off(start)));
                }
                _ => return Err(self.err("a `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value<'a>, Error> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting no deeper than MAX_DEPTH"));
        }
        self.pos += 1;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("a `:` after the key"));
            }
            self.pos += 1;
            self.skip_ws();
            entries.push((key, self.value(depth)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(entries));
                }
                _ => return Err(self.err("a `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_structure() {
        let v = parse(r#" {"a": 1, "b": [true, null, "x\ny"], "c": -0.25e-3} "#).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_num), Some("1"));
        let arr = v.get("b").and_then(Value::as_arr).unwrap();
        assert_eq!(arr[0], Value::Bool(true));
        assert_eq!(arr[1], Value::Null);
        assert_eq!(arr[2].as_str(), Some("x\ny"));
        assert_eq!(v.get("c").and_then(Value::as_f64), Some(-0.25e-3));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn preserves_object_order_and_raw_number_text() {
        let v = parse(r#"{"z": 1.50, "a": 2}"#).unwrap();
        let keys: Vec<&str> = v.as_obj().unwrap().iter().map(|(k, _)| &**k).collect();
        assert_eq!(keys, ["z", "a"]);
        // "1.50" is not normalized to "1.5".
        assert_eq!(v.get("z").and_then(Value::as_num), Some("1.50"));
    }

    #[test]
    fn escape_free_strings_borrow_and_escaped_ones_decode() {
        let v = parse(r#"["plain π", "a\"b\\c\/d\b\f\n\r\té😀"]"#).unwrap();
        let items = v.as_arr().unwrap();
        assert!(matches!(&items[0], Value::Str(Cow::Borrowed("plain π"))));
        assert_eq!(
            items[1].as_str(),
            Some("a\"b\\c/d\u{8}\u{c}\n\r\t\u{e9}\u{1f600}")
        );
    }

    #[test]
    fn as_u64_takes_only_fitting_non_negative_integers() {
        for (text, want) in [
            ("0", Some(0)),
            ("18446744073709551615", Some(u64::MAX)),
            ("18446744073709551616", None),
            ("-1", None),
            ("1.0", None),
            ("1e2", None),
        ] {
            assert_eq!(parse(text).unwrap().as_u64(), want, "{text}");
        }
        assert_eq!(parse("\"1\"").unwrap().as_u64(), None);
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_input() {
        for (text, pos) in [
            ("", 0),
            ("{} x", 3),
            (r#"{"a": }"#, 6),
            ("[1, 2", 5),
            ("nope", 0),
            ("[01]", 2),
            (r#""\q""#, 2),
            ("\"a\nb\"", 2),
        ] {
            assert_eq!(parse(text).unwrap_err().pos, pos, "{text:?}");
        }
        let err = parse("[1,]").unwrap_err();
        assert_eq!(err.to_string(), "JSON at byte 3: expected a JSON value");
    }

    #[test]
    fn round_trips_the_committed_baselines() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut seen = 0;
        for entry in std::fs::read_dir(root).expect("repository root") {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                let text = std::fs::read_to_string(&path).expect("baseline reads");
                let v = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
                assert!(!v.as_obj().expect("top-level object").is_empty(), "{name}");
                seen += 1;
            }
        }
        assert!(seen >= 2, "found {seen} BENCH_*.json baselines");
    }

    #[test]
    fn nesting_beyond_the_limit_is_an_error_not_a_stack_overflow() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert_eq!(parse(&deep).unwrap_err().pos, MAX_DEPTH);
        let err = parse(&"[{\"a\":".repeat(1_000_000)).unwrap_err();
        assert_eq!(err.what, "nesting no deeper than MAX_DEPTH");
    }

    #[test]
    fn push_string_escapes_exactly_what_json_requires() {
        let mut out = String::new();
        push_string(
            &mut out,
            "q\" b\\ n\n r\r t\t bell\u{7} us\u{1f} del\u{7f} π/",
        );
        assert_eq!(
            out,
            r#""q\" b\\ n\n r\r t\t bell\u0007 us\u001f del π/""#.replace("del ", "del\u{7f} ")
        );
        for s in ["", "plain", "\u{0}\u{1e}\u{1f}", "mixed \"\t\u{1}π\\"] {
            assert_eq!(parse(&quote(s)).unwrap().as_str(), Some(s), "{s:?}");
        }
    }
}
