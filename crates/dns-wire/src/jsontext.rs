//! A minimal JSON text codec, implemented in-tree.
//!
//! The workspace must build on offline machines with an empty registry
//! cache, so it cannot depend on `serde`/`serde_json`. This module supplies
//! the small subset of JSON the figure reports need: a parsed [`JsonValue`]
//! tree, a recursive-descent parser, and string escaping for the writer
//! side.
//!
//! Objects preserve insertion order (they are association lists, not maps),
//! so a report reads back in the order it was written.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`, like JavaScript).
    Number(f64),
    /// A string, already unescaped.
    String(String),
    /// An array of values.
    Array(Vec<JsonValue>),
    /// An object as an ordered list of key/value pairs.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up `key` in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is an integral number.
    ///
    /// Numbers are stored as `f64`, so integers above 2^53 have already
    /// lost precision at parse time; values at or past 2^64 are rejected.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // `u64::MAX as f64` rounds up to 2^64 exactly, so the
            // comparison must be strict to reject out-of-range values.
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// A parse failure, with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonParseError {}

/// Parses a complete JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<JsonValue, JsonParseError> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(v)
}

/// Appends `s` to `out` as a JSON string literal, with escaping.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Nesting depth guard: the reports nest a few levels deep; anything past
/// this is hostile input.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonParseError {
        JsonParseError { offset: self.pos, message: message.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("bad escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("raw control character in string"));
                }
                Some(_) => {
                    // Consume one full UTF-8 scalar (input is valid UTF-8:
                    // it came from a &str).
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        // from_str_radix tolerates a leading '+', so check digits directly.
        if !self.bytes[self.pos..end].iter().all(u8::is_ascii_hexdigit) {
            return Err(self.err("bad \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    /// Decodes `XXXX` (and a following low surrogate, if needed) after `\u`.
    fn unicode_escape(&mut self) -> Result<char, JsonParseError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: a `\uXXXX` low surrogate must follow.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if (0xDC00..0xE000).contains(&lo) {
                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return char::from_u32(c).ok_or_else(|| self.err("bad surrogate pair"));
                }
            }
            Err(self.err("unpaired surrogate"))
        } else if (0xDC00..0xE000).contains(&hi) {
            Err(self.err("unpaired surrogate"))
        } else {
            char::from_u32(hi).ok_or_else(|| self.err("bad \\u escape"))
        }
    }

    /// Consumes a digit run, erroring if there is not at least one digit.
    fn digits(&mut self, context: &str) -> Result<(), JsonParseError> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err(context));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        Ok(())
    }

    /// Parses a number per the RFC 8259 grammar: no leading zeros, and a
    /// fraction or exponent must contain digits.
    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: "0" or a nonzero digit followed by more digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            _ => self.digits("expected digits in number")?,
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits("expected digits after decimal point")?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits("expected digits in exponent")?;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| JsonParseError { offset: start, message: "bad number".to_string() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse(" false ").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("42").unwrap(), JsonValue::Number(42.0));
        assert_eq!(parse("-1.5e2").unwrap(), JsonValue::Number(-150.0));
        assert_eq!(parse("\"hi\"").unwrap(), JsonValue::String("hi".into()));
    }

    #[test]
    fn parses_nested_structures_in_order() {
        let v = parse(r#"{"b": [1, {"c": null}], "a": "x"}"#).unwrap();
        let JsonValue::Object(pairs) = &v else { panic!("not an object") };
        assert_eq!(pairs[0].0, "b");
        assert_eq!(pairs[1].0, "a");
        let arr = v.get("b").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].get("c"), Some(&JsonValue::Null));
    }

    #[test]
    fn string_escapes_round_trip() {
        for original in ["plain", "q\"uote", "back\\slash", "tab\there", "new\nline", "uni\u{263A}"]
        {
            let mut text = String::new();
            write_escaped(&mut text, original);
            assert_eq!(parse(&text).unwrap().as_str(), Some(original));
        }
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(parse(r#""A""#).unwrap().as_str(), Some("A"));
        // An escaped surrogate pair and the literal character: both U+1F600.
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap().as_str(), Some("\u{1F600}"));
        assert_eq!(parse(r#""😀""#).unwrap().as_str(), Some("\u{1F600}"));
        assert_eq!(parse("\"\u{1F600}\"").unwrap().as_str(), Some("\u{1F600}"));
        assert!(parse(r#""\ud83d""#).is_err(), "unpaired high surrogate");
        // from_str_radix quirks must not leak: '+' is not a hex digit.
        assert!(parse(r#""\u+041""#).is_err());
        assert!(parse(r#""\u004""#).is_err());
    }

    #[test]
    fn surrogate_pair_edge_cases() {
        // The writer emits supplementary-plane characters literally; the
        // parser accepts both the literal and the escaped-pair spelling.
        let mut text = String::new();
        write_escaped(&mut text, "😀");
        assert_eq!(text, "\"😀\"");
        assert_eq!(parse(&text).unwrap().as_str(), Some("😀"));
        assert_eq!(parse(r#""😀""#).unwrap().as_str(), Some("😀"));
        // The extremes of the surrogate-addressable range.
        assert_eq!(parse(r#""𐀀""#).unwrap().as_str(), Some("\u{10000}"));
        assert_eq!(parse(r#""􏿿""#).unwrap().as_str(), Some("\u{10FFFF}"));
        // Lone or mismatched surrogates are unrepresentable in UTF-8 and
        // must be rejected, not replaced.
        for bad in [
            r#""\ud83d""#,       // lone high, end of string
            r#""\ud83dx""#,      // lone high, literal follows
            r#""\ud83d\u0041""#, // high + non-surrogate escape
            r#""\ud83d\ud83d""#, // high + high
            r#""\udc00""#,       // lone low
            r#""\ude00\ud83d""#, // pair in the wrong order
            r#""\ud83d\ud""#,    // truncated second escape
        ] {
            assert!(parse(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in
            ["", "{", "{\"a\"}", "[1,]", "{\"a\":1,}", "tru", "1 2", "\"unterminated", "{\"a\": }"]
        {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn number_grammar_is_rfc8259_strict() {
        // Leading zeros, bare decimal points and empty exponents are all
        // invalid JSON even though f64::parse would accept some of them.
        for bad in ["01", "-01", "1.", "-.5", ".5", "1.e3", "1e", "1e+", "-", "[01]"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        for good in ["0", "-0", "0.5", "-0.5", "10", "1e3", "1E-2", "1.25e+2"] {
            assert!(parse(good).is_ok(), "rejected {good:?}");
        }
    }

    #[test]
    fn as_u64_rejects_non_integers() {
        assert_eq!(parse("3.5").unwrap().as_u64(), None);
        assert_eq!(parse("-2").unwrap().as_u64(), None);
        assert_eq!(parse("300").unwrap().as_u64(), Some(300));
        assert_eq!(parse("\"300\"").unwrap().as_u64(), None);
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
    }
}
