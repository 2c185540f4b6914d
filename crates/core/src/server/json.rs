//! A minimal, zero-dependency JSON value parser for the wire protocol.
//!
//! Scope-matched to `dynccd`: requests are small objects of strings,
//! integers, booleans and flat arrays. The parser is a bounded
//! recursive-descent over bytes — bounded input size (the framing layer
//! caps frames) **and** bounded nesting depth, so adversarial input from
//! the protocol fuzzer can never overflow the stack. Responses are
//! rendered with [`escape`] + `format!` (the same hand-rolled idiom the
//! bench crate uses), so nothing here allocates a DOM on the send path.

use std::fmt::{self, Write as _};

/// Maximum nesting depth accepted by [`Json::parse`]. Deeper input is a
/// typed parse error, not a stack overflow.
const MAX_DEPTH: u32 = 64;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number that is an exact integer in `i64` range (the common case
    /// on this protocol: args, budgets, counts).
    Int(i64),
    /// Any other number (fraction, exponent, out of `i64` range).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys keep the last).
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset and message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl Json {
    /// Parse one JSON value spanning the whole input.
    ///
    /// # Errors
    /// [`JsonError`] on malformed input, trailing bytes, or nesting
    /// deeper than the fixed bound.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            src: input,
            bytes: input.as_bytes(),
            at: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(p.err("trailing bytes after value"));
        }
        Ok(v)
    }

    /// Object field lookup (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer value, if this is an exact integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    /// The input; `bytes` is its byte view (what the scanner walks).
    src: &'a str,
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            at: self.at,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: u32) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected byte")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: u32) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: u32) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.at += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: accept, combine when well
                            // formed, replace lone halves.
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.at..].starts_with(b"\\u") {
                                    self.at += 2;
                                    let lo = self.hex4()?;
                                    if (0xDC00..0xE000).contains(&lo) {
                                        let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                        char::from_u32(c).unwrap_or('\u{FFFD}')
                                    } else {
                                        '\u{FFFD}'
                                    }
                                } else {
                                    '\u{FFFD}'
                                }
                            } else {
                                char::from_u32(cp).unwrap_or('\u{FFFD}')
                            };
                            out.push(ch);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.at += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("control byte in string")),
                Some(_) => {
                    // Copy the whole run up to the next quote, escape or
                    // control byte in one push. Those delimiters are
                    // ASCII, so both ends of the run are char boundaries
                    // of the (already valid UTF-8) input.
                    let start = self.at;
                    while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                        self.at += 1;
                    }
                    let run = self.src.get(start..self.at);
                    out.push_str(run.ok_or_else(|| self.err("invalid utf-8"))?);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.at.checked_add(4).ok_or_else(|| self.err("overflow"))?;
        let chunk = self
            .bytes
            .get(self.at..end)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(chunk).map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.at = end;
        Ok(v)
    }

    /// RFC 8259 `number`: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    /// — stricter than Rust's own parsers, which also take `01` and `1.`.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        if self.peek() == Some(b'0') {
            self.at += 1;
        } else {
            self.digits()?;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.at += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            self.digits()?;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at])
            .map_err(|_| self.err("invalid number"))?;
        if integral {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }

    /// One or more ASCII digits.
    fn digits(&mut self) -> Result<(), JsonError> {
        let start = self.at;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        if self.at == start {
            return Err(self.err("invalid number"));
        }
        Ok(())
    }
}

/// Render `s` as a quoted JSON string (escaping quotes, backslashes and
/// control bytes) — the response-side companion to [`Json::parse`].
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

/// Append `s` to `out` escaped as the inside of a JSON string (no
/// quotes), so a large string can be escaped piecewise into the buffer
/// it is sent from. Every byte that needs escaping is ASCII, so the runs
/// between them are copied whole.
pub(super) fn escape_into(out: &mut String, s: &str) {
    let mut copied = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[copied..i]);
        copied = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[copied..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_requests() {
        let v = Json::parse(r#"{"op":"call","session":"s1","args":[3,-10,true,null]}"#).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("call"));
        let args = v.get("args").and_then(Json::as_arr).unwrap();
        assert_eq!(args[0].as_int(), Some(3));
        assert_eq!(args[1].as_int(), Some(-10));
        assert_eq!(args[2].as_bool(), Some(true));
        assert_eq!(args[3], Json::Null);
    }

    #[test]
    fn integers_keep_exact_precision() {
        let v = Json::parse("9223372036854775807").unwrap();
        assert_eq!(v.as_int(), Some(i64::MAX));
        let v = Json::parse("-9223372036854775808").unwrap();
        assert_eq!(v.as_int(), Some(i64::MIN));
        assert!(matches!(Json::parse("1.5").unwrap(), Json::Num(_)));
    }

    #[test]
    fn escape_round_trips() {
        let s = "a\"b\\c\nd\u{1}e";
        let v = Json::parse(&escape(s)).unwrap();
        assert_eq!(v.as_str(), Some(s));
    }

    #[test]
    fn malformed_inputs_error_not_panic() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"\\q\"",
            "\u{1}",
            "1e",
            "--1",
            "nul",
            "{\"a\" 1}",
            "\"\\u12\"",
            "[1]]",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    /// The strict-grammar cases the bench harnesses' retired standalone
    /// validator pinned (they now validate through this parser).
    #[test]
    fn accepts_well_formed_values() {
        for ok in [
            "{}",
            "[]",
            "null",
            "-12.5e+3",
            "0",
            "-0.0E-7",
            r#"{"a": [1, 2, {"b": "x\ny"}], "c": true}"#,
            r#"  {"displayTimeUnit": "ns", "traceEvents": []}  "#,
        ] {
            Json::parse(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
    }

    #[test]
    fn rejects_malformed_values() {
        for bad in [
            "{",
            "[1,]",
            "{\"a\" 1}",
            "01",
            "-01",
            "1.",
            ".5",
            "1e+",
            "1.5.2",
            "\"unterminated",
            "{} {}",
            "nul",
            "\"bad\\q\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    /// Regression: string parsing re-validated the rest of the input per
    /// character, so one `MAX_FRAME` `upload` pinned a worker for minutes.
    #[test]
    fn frame_sized_string_parses_in_linear_time() {
        let unit = "aé€😀\n\"\\\t";
        let mut want = String::with_capacity(crate::server::proto::MAX_FRAME);
        while want.len() + unit.len() <= crate::server::proto::MAX_FRAME {
            want.push_str(unit);
        }
        let doc = escape(&want);
        assert!(doc.len() > crate::server::proto::MAX_FRAME);
        let start = std::time::Instant::now();
        let got = Json::parse(&doc).unwrap();
        let took = start.elapsed();
        assert_eq!(got.as_str(), Some(want.as_str()));
        assert!(
            took < std::time::Duration::from_secs(2),
            "parse took {took:?}"
        );
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(1000) + &"]".repeat(1000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.message.contains("deep"), "{err}");
    }

    #[test]
    fn duplicate_keys_keep_last() {
        let v = Json::parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_int), Some(2));
    }
}
