//! A strict JSON reader (RFC 8259) for checking every server body.
//!
//! Strict means: one value and nothing after it, no duplicate keys, no
//! leading zeros, no raw control characters inside strings, only the
//! escapes the grammar allows, and surrogate escapes only in pairs. Strings
//! without escapes borrow from the input, which keeps a 7 MB scan body
//! cheap to check.

use std::borrow::Cow;

#[derive(Debug, Clone, PartialEq)]
pub enum Json<'a> {
    Null,
    Bool(bool),
    Num(f64),
    Str(Cow<'a, str>),
    Arr(Vec<Json<'a>>),
    Obj(Vec<(Cow<'a, str>, Json<'a>)>),
}

impl<'a> Json<'a> {
    pub fn get(&self, key: &str) -> Option<&Json<'a>> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Num(n) if n >= 0.0 && n.fract() == 0.0 && n < 9.0e15 => Some(n as u64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json<'a>]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses exactly one JSON value spanning the whole of `text`.
pub fn parse(text: &str) -> Result<Json<'_>, String> {
    let mut p = Parser { text, pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.fail("trailing bytes after the value"));
    }
    Ok(value)
}

/// Nesting deeper than this is refused rather than recursed into.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn fail(&self, what: &str) -> String {
        format!("invalid JSON at byte {}: {what}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.fail(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json<'a>) -> Result<Json<'a>, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.fail("unknown literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json<'a>, String> {
        if depth > MAX_DEPTH {
            return Err(self.fail("nested too deeply"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.fail("expected a value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json<'a>, String> {
        self.pos += 1;
        let mut fields: Vec<(Cow<'a, str>, Json<'a>)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.fail("duplicate key"));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value(depth + 1)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.fail("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json<'a>, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.fail("expected `,` or `]`")),
            }
        }
    }

    fn number(&mut self) -> Result<Json<'a>, String> {
        let start = self.pos;
        let digits = |p: &mut Self| {
            let from = p.pos;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            p.pos - from
        };
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let leading_zero = self.peek() == Some(b'0');
        let int_digits = digits(self);
        if int_digits == 0 || (leading_zero && int_digits > 1) {
            return Err(self.fail("malformed number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if digits(self) == 0 {
                return Err(self.fail("digits must follow `.`"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if digits(self) == 0 {
                return Err(self.fail("digits must follow the exponent"));
            }
        }
        let parsed = self.text[start..self.pos].parse::<f64>();
        parsed
            .map(Json::Num)
            .map_err(|_| self.fail("malformed number"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self.text.as_bytes().get(self.pos..self.pos + 4);
        let digits = digits.filter(|d| d.iter().all(u8::is_ascii_hexdigit));
        let Some(digits) = digits else {
            return Err(self.fail("`\\u` needs four hex digits"));
        };
        self.pos += 4;
        let text = std::str::from_utf8(digits).expect("hex digits are ASCII");
        Ok(u32::from_str_radix(text, 16).expect("four hex digits fit a u32"))
    }

    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let start = self.pos;
        // Fast path: no escapes, so the value is a slice of the input.
        loop {
            match self.peek() {
                Some(b'"') => {
                    let slice = &self.text[start..self.pos];
                    self.pos += 1;
                    return Ok(Cow::Borrowed(slice));
                }
                Some(b'\\') => break,
                Some(0..=0x1F) => return Err(self.fail("raw control character in string")),
                Some(_) => self.pos += 1,
                None => return Err(self.fail("unterminated string")),
            }
        }
        let mut owned = String::from(&self.text[start..self.pos]);
        loop {
            let run = self.pos;
            while !matches!(self.peek(), Some(b'"' | b'\\' | 0..=0x1F) | None) {
                self.pos += 1;
            }
            owned.push_str(&self.text[run..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(owned));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| self.fail("unterminated escape"))?;
                    self.pos += 1;
                    owned.push(match escape {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        _ => return Err(self.fail("unknown escape")),
                    });
                }
                Some(_) => return Err(self.fail("raw control character in string")),
                None => return Err(self.fail("unterminated string")),
            }
        }
    }

    /// The character for a `\uXXXX` escape whose `\u` was just consumed,
    /// reading the low half too when `XXXX` is a high surrogate.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let unit = self.hex4()?;
        let code = match unit {
            0xD800..=0xDBFF => {
                if !self.text[self.pos..].starts_with("\\u") {
                    return Err(self.fail("high surrogate without a low one"));
                }
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&low) {
                    return Err(self.fail("high surrogate without a low one"));
                }
                0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
            }
            0xDC00..=0xDFFF => return Err(self.fail("lone low surrogate")),
            _ => unit,
        };
        char::from_u32(code).ok_or_else(|| self.fail("escape is not a character"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_shapes_the_server_writes() {
        let body = r#"{"store":"dblp","epoch":3,"cached":false,"result":{"count":2,"truncated":false,"triples":[["a","p","b"],["x \"y\" \\\\ \u0001 \u2028 \ud83c\udf93","p","é"]]}}"#;
        let doc = parse(body).unwrap();
        assert_eq!(doc.get("epoch").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("cached").and_then(Json::as_bool), Some(false));
        let rows = doc
            .get("result")
            .unwrap()
            .get("triples")
            .unwrap()
            .as_arr()
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert!(matches!(
            &rows[0].as_arr().unwrap()[0],
            Json::Str(Cow::Borrowed("a"))
        ));
        assert_eq!(
            rows[1].as_arr().unwrap()[0].as_str(),
            Some("x \"y\" \\\\ \u{1} \u{2028} \u{1f393}")
        );
        assert_eq!(
            parse(" [1, -2.5e3, 0, true, null] ")
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            5
        );
    }

    #[test]
    fn refuses_what_the_grammar_refuses() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":1,}",
            "{\"a\":1 \"b\":2}",
            "{\"a\":1,\"a\":2}",
            "[1] x",
            "01",
            "1.",
            "-",
            "\"abc",
            "\"tab\there\"",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "nul",
            "{'a':1}",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        assert!(parse(&"[".repeat(1000)).is_err());
    }
}
