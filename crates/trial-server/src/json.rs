//! A hand-rolled JSON *emitter* (no parser).
//!
//! The server's request bodies are plain text — a TriAL query for `/query`
//! and `/explain`, an N-Triples document for `/load` — and request options
//! travel in the URL query string, so the crate only ever needs to *produce*
//! JSON. Emission is append-only string building with correct escaping; the
//! [`JsonObject`] builder keeps commas and braces right by construction.
//!
//! Result rows take the cheapest path: [`write_row`] appends `["s","p","o"]`
//! to the caller's buffer through [`push_string`], which copies a name in
//! one `push_str` whenever no byte of it can need escaping. Nothing is
//! allocated per row.

use std::fmt::Write;
use trial_core::{Triple, Triplestore};

/// `true` when no byte of `s` can need escaping, so it may be copied into a
/// JSON string verbatim: every byte is at least 0x20 and none is `"`, `\`,
/// DEL or 0xE2. 0xE2 is the lead byte of U+2028/U+2029 (and of every other
/// character from U+2000 to U+2FFF), so the test is conservative: a string
/// holding `€` takes the per-char path and comes out unchanged.
fn is_verbatim(s: &str) -> bool {
    s.bytes()
        .all(|b| b >= 0x20 && b != b'"' && b != b'\\' && b != 0x7f && b != 0xe2)
}

/// Appends the escaped contents of `s` (without quotes) to `out`, by the
/// rules of [`push_string`].
fn push_escaped(out: &mut String, s: &str) {
    if is_verbatim(s) {
        out.push_str(s);
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 || c == '\u{7f}' || c == '\u{2028}' || c == '\u{2029}' => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to String cannot fail");
            }
            c => out.push(c),
        }
    }
}

/// Appends `s` to `out` as a JSON string literal, quotes included.
///
/// Handles the two mandatory classes: `"` / `\` and the C0 control range
/// (emitted as `\uXXXX`, with the usual short forms for `\n`, `\r`, `\t`),
/// plus three characters that are legal raw JSON but hostile downstream:
/// DEL (U+007F, a control character many terminals mangle) and the line
/// separators U+2028 / U+2029, which are valid JSON but *not* valid
/// JavaScript string content — a raw pass-through breaks any consumer that
/// feeds the response to `eval`/JSONP or embeds it in a `<script>` block.
/// Everything else — including non-ASCII — passes through verbatim, which is
/// valid JSON as long as the transport is UTF-8 (ours is). A string none
/// of whose bytes can need escaping is copied in one `push_str`.
pub fn push_string(out: &mut String, s: &str) {
    out.push('"');
    push_escaped(out, s);
    out.push('"');
}

/// Escapes `s` as the contents of a JSON string (without the quotes); see
/// [`push_string`] for the rules.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s);
    out
}

/// Renders a JSON string literal, quotes included.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_string(&mut out, s);
    out
}

/// Renders a JSON array of string literals.
pub fn string_array<I, S>(items: I) -> String
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_string(&mut out, item.as_ref());
    }
    out.push(']');
    out
}

/// Appends one result row to `out` as a `["s","p","o"]` array of the
/// triple's names in `store`.
pub fn write_row(out: &mut String, store: &Triplestore, t: &Triple) {
    out.push('[');
    push_string(out, store.object_name(t.s()));
    out.push(',');
    push_string(out, store.object_name(t.p()));
    out.push(',');
    push_string(out, store.object_name(t.o()));
    out.push(']');
}

/// Renders a JSON array of pre-rendered JSON fragments.
pub fn array<I, S>(items: I) -> String
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(item.as_ref());
    }
    out.push(']');
    out
}

/// An append-only JSON object builder.
///
/// ```
/// use trial_server::json::JsonObject;
///
/// let body = JsonObject::new()
///     .str("status", "ok")
///     .num("stores", 2)
///     .boolean("cached", false)
///     .finish();
/// assert_eq!(body, r#"{"status":"ok","stores":2,"cached":false}"#);
/// ```
#[derive(Debug, Clone)]
pub struct JsonObject {
    buf: String,
    first: bool,
}

impl Default for JsonObject {
    fn default() -> Self {
        JsonObject::new()
    }
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject::with_capacity(0)
    }

    /// Starts an empty object whose buffer holds `capacity` bytes before it
    /// grows — for objects that embed a large pre-rendered fragment.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut buf = String::with_capacity(capacity.max(1));
        buf.push('{');
        JsonObject { buf, first: true }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        push_string(&mut self.buf, key);
        self.buf.push(':');
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        push_string(&mut self.buf, value);
        self
    }

    /// Adds an unsigned integer field.
    pub fn num(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        write!(self.buf, "{value}").expect("writing to String cannot fail");
        self
    }

    /// Adds a boolean field.
    pub fn boolean(mut self, key: &str, value: bool) -> Self {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds an array field from its already-rendered elements,
    /// comma-separated (the caller guarantees validity).
    pub fn raw_array(mut self, key: &str, elements: &str) -> Self {
        self.key(key);
        self.buf.push('[');
        self.buf.push_str(elements);
        self.buf.push(']');
        self
    }

    /// Adds a field whose value is an already-rendered JSON fragment
    /// (object, array, number — the caller guarantees validity).
    pub fn raw(mut self, key: &str, fragment: &str) -> Self {
        self.key(key);
        self.buf.push_str(fragment);
        self
    }

    /// Adds an object field that `fill` builds in this object's buffer, so
    /// a nested object is never rendered apart and copied in.
    pub fn object(mut self, key: &str, fill: impl FnOnce(JsonObject) -> JsonObject) -> Self {
        self.key(key);
        let mut buf = std::mem::take(&mut self.buf);
        buf.push('{');
        self.buf = fill(JsonObject { buf, first: true }).finish();
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-char escaper every string took before the verbatim fast path
    /// existed: the oracle [`push_string`] must match byte for byte.
    fn escape_old(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 || c == '\u{7f}' || c == '\u{2028}' || c == '\u{2029}' => {
                    write!(out, "\\u{:04x}", c as u32).expect("writing to String cannot fail");
                }
                c => out.push(c),
            }
        }
        out
    }

    fn assert_matches_oracle(s: &str) {
        let mut pushed = String::new();
        push_string(&mut pushed, s);
        assert_eq!(pushed, format!("\"{}\"", escape_old(s)), "{s:?}");
        assert_eq!(escape(s), escape_old(s), "{s:?}");
    }

    #[test]
    fn push_string_matches_the_per_char_oracle_on_fixed_cases() {
        let mut cases: Vec<String> = (0u32..0x20)
            .map(|c| {
                char::from_u32(c)
                    .expect("C0 controls are chars")
                    .to_string()
            })
            .collect();
        cases.extend(
            [
                "",
                "\"",
                "\\",
                "\u{7f}",
                "\u{2028}",
                "\u{2029}",
                // E2-led characters that need no escaping: the fast path
                // declines them, the slow path copies them unchanged.
                "€",
                "\u{2027}",
                "\u{202a}",
                "price: 5€",
                // 4-byte characters.
                "𝔘𝔫𝔦𝔠𝔬𝔡𝔢",
                "emoji 🦀 crab",
                "http://example.org/plain",
                "a\"b\\c\nd\u{2028}e€f\u{7f}",
            ]
            .map(str::to_owned),
        );
        for case in &cases {
            assert_matches_oracle(case);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Strings drawn from an alphabet dense in the characters each rule
        /// is about, mixed with plain ASCII so most samples are long runs.
        #[test]
        fn push_string_matches_the_per_char_oracle(
            chars in prop::collection::vec(
                prop::sample::select(vec![
                    'a', 'Z', '0', ' ', '~', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}',
                    '\u{7f}', '\u{80}', 'é', '\u{2027}', '\u{2028}', '\u{2029}', '\u{202a}',
                    '€', '\u{2fff}', '\u{3000}', '\u{fffd}', '🦀', '\u{10ffff}',
                ]),
                0..24,
            ),
        ) {
            let s: String = chars.into_iter().collect();
            assert_matches_oracle(&s);
        }
    }

    #[test]
    fn escaping_covers_quotes_backslashes_and_controls() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("a\\b"), "a\\\\b");
        assert_eq!(escape("line1\nline2\ttab\r"), "line1\\nline2\\ttab\\r");
        assert_eq!(escape("\u{01}"), "\\u0001");
        assert_eq!(escape("héllo✶"), "héllo✶"); // non-ASCII passes through
    }

    #[test]
    fn escaping_covers_del_and_unicode_line_separators() {
        // U+2028/U+2029 are valid JSON but not valid JavaScript string
        // content; DEL is a control character. All three must be escaped.
        assert_eq!(escape("a\u{2028}b"), "a\\u2028b");
        assert_eq!(escape("a\u{2029}b"), "a\\u2029b");
        assert_eq!(escape("a\u{7f}b"), "a\\u007fb");
        // The neighbouring characters are untouched.
        assert_eq!(escape("\u{2027}\u{202a}\u{7e}"), "\u{2027}\u{202a}\u{7e}");
    }

    #[test]
    fn builders_produce_valid_shapes() {
        assert_eq!(string("x\"y"), "\"x\\\"y\"");
        assert_eq!(string_array(["a", "b\""]), "[\"a\",\"b\\\"\"]");
        assert_eq!(string_array(Vec::<String>::new()), "[]");
        assert_eq!(array(["1", "[2]"]), "[1,[2]]");
        let obj = JsonObject::new()
            .str("k", "v")
            .num("n", 7)
            .boolean("t", true)
            .raw("a", "[1,2]")
            .raw_array("r", "[\"x\"],[\"y\"]")
            .raw_array("e", "")
            .finish();
        assert_eq!(
            obj,
            r#"{"k":"v","n":7,"t":true,"a":[1,2],"r":[["x"],["y"]],"e":[]}"#
        );
        assert_eq!(JsonObject::new().finish(), "{}");
    }
}
