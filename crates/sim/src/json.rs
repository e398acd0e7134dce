//! A minimal JSON value parser — just enough for the repo's spec files
//! (fault plans, workload scenarios), written in-crate to keep the
//! workspace dependency-free.
//!
//! The grammar is standard JSON, `\uXXXX` escapes and surrogate pairs
//! included, so it reads everything the trace exporters write. Objects
//! keep their entries in source order so callers can reject unknown
//! keys with a deterministic "first offender" error.
//!
//! # Examples
//!
//! ```
//! use microfaas_sim::json;
//!
//! let value = json::parse(r#"{"name": "steady", "rate": 1.5}"#).unwrap();
//! let object = value.as_object().unwrap();
//! assert_eq!(object[0].0, "name");
//! assert_eq!(object[1].1.as_f64(), Some(1.5));
//! ```

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string (escape sequences resolved).
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in source order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The object's entries in source order, or `None` for any other
    /// value kind.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// The array's items, or `None` for any other value kind.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string's contents, or `None` for any other value kind.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number as `f64`, or `None` for any other value kind.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer, or `None` if it is
    /// negative, fractional, out of `u64` range, or not a number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }
}

/// Parses `text` as a single JSON value.
///
/// # Errors
///
/// Returns a message naming the first offending byte position on
/// malformed input, unsupported escapes, or trailing content.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    parser.skip_whitespace();
    let value = parser.value()?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing input at byte {}", parser.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("malformed literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match escaped {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => out.push(self.unicode_escape()?),
                        other => {
                            return Err(format!(
                                "unsupported escape '\\{}' at byte {}",
                                other as char, self.pos
                            ))
                        }
                    }
                }
                Some(_) => {
                    // Copy the full UTF-8 code point.
                    let rest = &self.bytes[self.pos..];
                    let text = std::str::from_utf8(rest)
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    let ch = text.chars().next().expect("non-empty");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    /// The character a `\uXXXX` escape names, reading past its four
    /// hex digits; a high surrogate must be followed by a `\uXXXX` low
    /// one, and the pair names one character.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let at = self.pos;
        let high = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&high) {
            let mut low = 0;
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                low = self.hex4()?;
            }
            if !(0xDC00..0xE000).contains(&low) {
                return Err(format!("lone surrogate \\u{high:04x} at byte {at}"));
            }
            0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
        } else {
            high
        };
        char::from_u32(code).ok_or_else(|| format!("lone surrogate \\u{code:04x} at byte {at}"))
    }

    /// Four hex digits.
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self.bytes.get(self.pos..self.pos + 4).unwrap_or_default();
        if digits.len() < 4 || !digits.iter().all(u8::is_ascii_hexdigit) {
            return Err(format!("malformed \\u escape at byte {}", self.pos));
        }
        self.pos += 4;
        let digits = std::str::from_utf8(digits).expect("ascii hex digits");
        Ok(u32::from_str_radix(digits, 16).expect("four hex digits"))
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-')
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| format!("malformed number \"{text}\" at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_structure() {
        let value = parse(r#"{"a": [1, 2.5, "x"], "b": {"c": true, "d": null}}"#).unwrap();
        let object = value.as_object().unwrap();
        assert_eq!(object.len(), 2);
        let items = object[0].1.as_array().unwrap();
        assert_eq!(items[0].as_u64(), Some(1));
        assert_eq!(items[1].as_f64(), Some(2.5));
        assert_eq!(items[2].as_str(), Some("x"));
        let inner = object[1].1.as_object().unwrap();
        assert_eq!(inner[0].1, Value::Bool(true));
        assert_eq!(inner[1].1, Value::Null);
    }

    #[test]
    fn rejects_trailing_input() {
        assert!(parse("{} x").unwrap_err().contains("trailing"));
    }

    #[test]
    fn rejects_negative_as_u64() {
        assert_eq!(parse("-3").unwrap().as_u64(), None);
        assert_eq!(parse("-3").unwrap().as_f64(), Some(-3.0));
    }

    #[test]
    fn resolves_escapes() {
        assert_eq!(
            parse(r#""a\n\t\"b\"""#).unwrap().as_str(),
            Some("a\n\t\"b\"")
        );
        assert_eq!(
            parse(r#""\/\b\f\r\\""#).unwrap().as_str(),
            Some("/\u{8}\u{c}\r\\")
        );
    }

    #[test]
    fn handles_scalars_escapes_and_nesting() {
        let doc = r#"{"a": [1, -2.5, 1e3], "b": {"c": "x\"\nA"}, "d": null, "e": true}"#;
        let value = parse(doc).unwrap();
        let object = value.as_object().unwrap();
        let a = object[0].1.as_array().unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[1].as_f64(), Some(-2.5));
        assert_eq!(a[2].as_f64(), Some(1000.0));
        let b = object[1].1.as_object().unwrap();
        assert_eq!(b[0].1.as_str(), Some("x\"\nA"));
        assert_eq!(object[2].1, Value::Null);
        assert_eq!(object[3].1, Value::Bool(true));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{",
            "[1,]",
            "{\"a\" 1}",
            "\"unterminated",
            "nulL",
            "{}trailing",
            "{\"a\": 1e}",
            r#""\x""#,
            r#""\u12""#,
            r#""\u+123""#,
            r#""\ud83d""#,
            r#""\ud83d\u0041""#,
            r#""\ude00""#,
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn decodes_unicode_escapes_and_surrogate_pairs() {
        assert_eq!(
            parse(r#""\u00e9\u0041""#).unwrap().as_str(),
            Some("\u{e9}A")
        );
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap().as_str(),
            Some("\u{1f600}")
        );
        assert_eq!(parse(r#""\uFFFF""#).unwrap().as_str(), Some("\u{ffff}"));
    }

    #[test]
    fn every_control_character_round_trips_its_escape() {
        for code in 0..0x20u32 {
            let escaped = format!("\"\\u{code:04x}\"");
            let expected = char::from_u32(code).unwrap().to_string();
            assert_eq!(
                parse(&escaped).unwrap().as_str(),
                Some(&*expected),
                "{escaped}"
            );
        }
    }
}
