//! JSON for the workspace: one pull reader ([`Scanner`]) and one string
//! escaper ([`push_json_str`]).
//!
//! Canonical trace JSONL is decoded straight into typed records by reading
//! its tokens from a [`Scanner`], with no value tree in between. Every
//! string the workspace writes into JSON (trace lines, analysis reports,
//! Galaxy `.ga` workflows) goes through [`push_json_str`]; each writer puts
//! its keys, numbers and punctuation in place itself.
//!
//! # Examples
//!
//! ```
//! use sim_kernel::json::{push_json_str, Scanner};
//!
//! let mut doc = String::from("{\"tool\":");
//! push_json_str(&mut doc, "fast\"qc");
//! doc.push('}');
//! assert_eq!(doc, r#"{"tool":"fast\"qc"}"#);
//!
//! let mut r = Scanner::new(&doc);
//! r.begin_object()?;
//! assert_eq!(r.next_key()?.as_deref(), Some("tool"));
//! assert_eq!(r.read_str()?, "fast\"qc");
//! assert_eq!(r.next_key()?, None);
//! r.finish()?;
//! # Ok::<(), String>(())
//! ```

use std::borrow::Cow;
use std::fmt::Write as _;

/// The deepest nesting of objects and arrays [`Scanner::skip_value`]
/// reads. Canonical trace lines nest 3 deep; the bound stops a hostile
/// line from exhausting the stack, which the skip descends one frame per
/// level.
const MAX_DEPTH: usize = 128;

/// A pull reader over one JSON document: the one tokenizer behind the
/// typed trace decoders.
///
/// Each read skips leading whitespace, checks the grammar of the token it
/// reads and leaves the reader just past it. Objects and arrays are read
/// entry by entry: [`begin_object`](Self::begin_object) then
/// [`next_key`](Self::next_key) until it returns `None`, reading one value
/// after each key; [`begin_array`](Self::begin_array) then
/// [`next_item`](Self::next_item) until it returns `false`, reading one
/// value after each `true`. Errors end with the byte offset they were
/// found at.
///
/// ```
/// use sim_kernel::json::Scanner;
///
/// let mut r = Scanner::new(r#"{"id": 7, "tags": ["a", "b"]}"#);
/// r.begin_object()?;
/// assert_eq!(r.next_key()?.as_deref(), Some("id"));
/// assert_eq!(r.read_u64()?, 7);
/// assert_eq!(r.next_key()?.as_deref(), Some("tags"));
/// r.begin_array()?;
/// while r.next_item()? {
///     r.read_str()?;
/// }
/// assert_eq!(r.next_key()?, None);
/// r.finish()?;
/// # Ok::<(), String>(())
/// ```
///
/// The reader does not track keys: a caller that reads an object into
/// typed slots rejects a repeated key itself. A clone reads on from the
/// same position without moving the original, e.g. to look ahead.
#[derive(Debug, Clone)]
pub struct Scanner<'a> {
    src: &'a str,
    pos: usize,
    /// Whether a container was just opened, so its first entry needs no
    /// `,` before it. The next `next_key` or `next_item` clears it, before
    /// any nested container can open, so one flag serves every level.
    open: bool,
}

/// The kind of the value a reader is at, from its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Null,
    Bool,
    Num,
    Str,
    Arr,
    Obj,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Null => "null",
            Kind::Bool => "bool",
            Kind::Num => "number",
            Kind::Str => "string",
            Kind::Arr => "array",
            Kind::Obj => "object",
        }
    }
}

impl<'a> Scanner<'a> {
    /// A reader at the start of `src`.
    #[must_use]
    #[inline]
    pub fn new(src: &'a str) -> Self {
        Scanner { src, pos: 0, open: false }
    }

    /// Checks that only whitespace follows the value read.
    pub fn finish(mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.src.len() {
            Ok(())
        } else {
            Err(format!("trailing garbage at byte {}", self.pos))
        }
    }

    /// Reads the `{` that opens an object.
    #[inline]
    pub fn begin_object(&mut self) -> Result<(), String> {
        self.expect_kind(Kind::Obj, "an object")?;
        self.pos += 1;
        self.open = true;
        Ok(())
    }

    /// Reads the next key of the object being read and the `:` after it,
    /// or its closing `}` and returns `None`.
    #[inline]
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        if !self.more(b'}')? {
            return Ok(None);
        }
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Reads the next key if it is `key` spelled the way a canonical
    /// writer spells it: no whitespace around it and no escapes in it.
    /// Otherwise reads nothing and returns `false`, so the caller reads the
    /// key with [`next_key`](Self::next_key). A decoder that knows the
    /// order its writer uses tries each key this way first, which skips
    /// tokenizing the keys of canonical input. `key` must need no escaping.
    #[inline]
    pub fn next_key_is(&mut self, key: &str) -> bool {
        debug_assert!(!key.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20));
        let comma = usize::from(!self.open);
        let rest = &self.src.as_bytes()[self.pos..];
        let len = comma + key.len() + 3;
        let matched = rest.len() >= len
            && (self.open || rest[0] == b',')
            && rest[comma] == b'"'
            && rest[comma + 1..len - 2] == *key.as_bytes()
            && rest[len - 2..len] == *b"\":";
        if matched {
            self.pos += len;
            self.open = false;
        }
        matched
    }

    /// Reads the `[` that opens an array.
    #[inline]
    pub fn begin_array(&mut self) -> Result<(), String> {
        self.expect_kind(Kind::Arr, "an array")?;
        self.pos += 1;
        self.open = true;
        Ok(())
    }

    /// Whether the array being read has another item; reads its closing
    /// `]` when not.
    #[inline]
    pub fn next_item(&mut self) -> Result<bool, String> {
        self.more(b']')
    }

    /// Reads a string, borrowed from the input unless it has escapes.
    #[inline]
    pub fn read_str(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect_kind(Kind::Str, "a string")?;
        self.string()
    }

    /// Reads an unsigned integer; fractions, exponents and negatives fail.
    #[inline]
    pub fn read_u64(&mut self) -> Result<u64, String> {
        self.expect_kind(Kind::Num, "an integer")?;
        // Plain digits are summed as they are scanned; anything else (a
        // sign, fraction, exponent, leading zero or overflow) is scanned
        // again as a whole number, to fail with the grammar's message or
        // as a number that is not an unsigned integer.
        let start = self.pos;
        let mut n: u64 = 0;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            let leading_zero = n == 0 && self.pos > start;
            match n.checked_mul(10).and_then(|n| n.checked_add(u64::from(d - b'0'))) {
                Some(next) if !leading_zero => n = next,
                _ => break,
            }
            self.pos += 1;
        }
        if self.pos > start && !matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E')) {
            return Ok(n);
        }
        self.pos = start;
        let raw = self.number()?;
        raw.parse().map_err(|_| format!("`{raw}` is not an unsigned integer"))
    }

    /// Reads a number as an `f64`.
    #[inline]
    pub fn read_f64(&mut self) -> Result<f64, String> {
        self.expect_kind(Kind::Num, "a number")?;
        let raw = self.number()?;
        raw.parse().map_err(|_| format!("`{raw}` is not a number"))
    }

    /// Reads `true` or `false`.
    #[inline]
    pub fn read_bool(&mut self) -> Result<bool, String> {
        self.expect_kind(Kind::Bool, "a bool")?;
        if self.peek() == Some(b't') {
            self.keyword("true").map(|()| true)
        } else {
            self.keyword("false").map(|()| false)
        }
    }

    /// Reads any one value under the full grammar, building nothing, and
    /// returns its source text. Keys are not checked for repeats: the
    /// text is meant to be read again by a typed reader. Objects and
    /// arrays nested more than 128 deep are an error.
    pub fn skip_value(&mut self) -> Result<&'a str, String> {
        self.skip_ws();
        let start = self.pos;
        self.skip_nested(MAX_DEPTH)?;
        Ok(&self.src[start..self.pos])
    }

    /// [`skip_value`](Self::skip_value) with `levels` more objects or
    /// arrays allowed to open.
    fn skip_nested(&mut self, levels: usize) -> Result<(), String> {
        let kind = self.kind()?;
        if levels == 0 && matches!(kind, Kind::Obj | Kind::Arr) {
            return self.err(format!("nested deeper than {MAX_DEPTH} levels"));
        }
        match kind {
            Kind::Obj => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip_nested(levels - 1)?;
                }
            }
            Kind::Arr => {
                self.begin_array()?;
                while self.next_item()? {
                    self.skip_nested(levels - 1)?;
                }
            }
            Kind::Str => {
                self.string()?;
            }
            Kind::Num => {
                self.number()?;
            }
            Kind::Bool => {
                self.read_bool()?;
            }
            Kind::Null => self.keyword("null")?,
        }
        Ok(())
    }

    #[cold]
    #[inline(never)]
    fn err<T>(&self, message: impl Into<String>) -> Result<T, String> {
        Err(format!("{} (byte {})", message.into(), self.pos))
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn eat(&mut self, b: u8) -> bool {
        let found = self.peek() == Some(b);
        if found {
            self.pos += 1;
        }
        found
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            self.err(format!("expected `{}`", b as char))
        }
    }

    /// Skips whitespace and names the kind of value that starts there.
    #[inline]
    fn kind(&mut self) -> Result<Kind, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => Ok(Kind::Obj),
            Some(b'[') => Ok(Kind::Arr),
            Some(b'"') => Ok(Kind::Str),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'n') => Ok(Kind::Null),
            Some(b'-' | b'0'..=b'9') => Ok(Kind::Num),
            _ => self.not_a_value(),
        }
    }

    #[cold]
    #[inline(never)]
    fn not_a_value<T>(&self) -> Result<T, String> {
        match self.peek() {
            Some(b) => self.err(format!("unexpected byte `{}`", b as char)),
            None => self.err("unexpected end of input"),
        }
    }

    /// [`kind`](Self::kind), failing unless it is `want`.
    #[inline]
    fn expect_kind(&mut self, want: Kind, what: &str) -> Result<(), String> {
        match self.kind()? {
            kind if kind == want => Ok(()),
            kind => self.mismatch(what, kind),
        }
    }

    /// The error for a value of the wrong kind. [`kind`](Self::kind)
    /// names a literal by its first byte, so one is named here only when
    /// it is whole: `not json` is an unexpected byte, not a null.
    #[cold]
    #[inline(never)]
    fn mismatch<T>(&self, what: &str, found: Kind) -> Result<T, String> {
        let rest = &self.src[self.pos..];
        if matches!(found, Kind::Null | Kind::Bool)
            && !["null", "true", "false"].iter().any(|word| rest.starts_with(word))
        {
            return self.not_a_value();
        }
        Err(format!("expected {what}, found {}", found.name()))
    }

    /// After an entry of the container being read, reads the `,` before
    /// the next one (true) or the `close` that ends it (false).
    #[inline]
    fn more(&mut self, close: u8) -> Result<bool, String> {
        self.skip_ws();
        if std::mem::take(&mut self.open) {
            return Ok(!self.eat(close));
        }
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b) if b == close => {
                self.pos += 1;
                Ok(false)
            }
            _ => self.err(format!("expected `,` or `{}`", close as char)),
        }
    }

    #[inline]
    fn keyword(&mut self, word: &str) -> Result<(), String> {
        if self.src.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            self.err(format!("expected `{word}`"))
        }
    }

    /// Skips ASCII digits and returns how many there were.
    #[inline]
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, finite.
    #[inline]
    fn number(&mut self) -> Result<&'a str, String> {
        let start = self.pos;
        self.eat(b'-');
        let int_digits = match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if self.peek().is_some_and(|b| b.is_ascii_digit()) {
                    return self.err("invalid number: leading zero");
                }
                1
            }
            Some(b'1'..=b'9') => self.digits(),
            _ => return self.err("invalid number: expected a digit"),
        };
        if self.eat(b'.') && self.digits() == 0 {
            return self.err("invalid number: expected a digit after `.`");
        }
        let exponent = matches!(self.peek(), Some(b'e' | b'E'));
        if exponent {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return self.err("invalid number: expected an exponent digit");
            }
        }
        let raw = &self.src[start..self.pos];
        // Below 10^300 with no exponent a number is finite, so only the
        // rest pay for a float parse.
        if (exponent || int_digits > 300) && !raw.parse::<f64>().is_ok_and(f64::is_finite) {
            return self.err(format!("invalid number `{raw}`"));
        }
        Ok(raw)
    }

    /// Advances to the next `"` or `\` and returns it. Both are ASCII, so
    /// they always fall on character boundaries and the bytes skipped are
    /// whole characters.
    #[inline]
    fn run(&mut self) -> Result<u8, String> {
        let rest = &self.src.as_bytes()[self.pos..];
        match rest.iter().position(|&b| b == b'"' || b == b'\\' || b < 0x20) {
            Some(i) => {
                self.pos += i;
                match rest[i] {
                    b if b < 0x20 => self.err("unescaped control character in string"),
                    b => Ok(b),
                }
            }
            None => {
                self.pos += rest.len();
                self.err("unterminated string")
            }
        }
    }

    /// A string without escapes is borrowed from the input; only one with
    /// escapes is copied.
    #[inline]
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let start = self.pos;
        let rest = &self.src.as_bytes()[start..];
        match rest.iter().position(|&b| b == b'"' || b == b'\\' || b < 0x20) {
            Some(len) if rest[len] == b'"' => {
                self.pos += len + 1;
                Ok(Cow::Borrowed(&self.src[start..start + len]))
            }
            _ => self.escaped_string(start),
        }
    }

    /// The rest of a string that opened at `start`, past its first
    /// escape or up to the error that ends it.
    #[inline(never)]
    fn escaped_string(&mut self, start: usize) -> Result<Cow<'a, str>, String> {
        self.pos = start;
        self.run()?;
        let mut out = String::from(&self.src[start..self.pos]);
        loop {
            self.escape(&mut out)?;
            let start = self.pos;
            let stop = self.run()?;
            out.push_str(&self.src[start..self.pos]);
            if stop == b'"' {
                self.pos += 1;
                return Ok(Cow::Owned(out));
            }
        }
    }

    /// Decodes the escape at `pos` (a `\`) onto `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        self.pos += 1;
        let ch = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000C}',
            Some(b'u') => {
                self.pos += 1;
                return self.unicode_escape(out);
            }
            _ => return self.err("bad escape"),
        };
        self.pos += 1;
        out.push(ch);
        Ok(())
    }

    /// Decodes `XXXX` after `\u`, joining a UTF-16 surrogate pair written
    /// as two escapes into one character.
    fn unicode_escape(&mut self, out: &mut String) -> Result<(), String> {
        let high = self.hex4()?;
        let code = match high {
            0xD800..=0xDBFF => {
                if !self.src.as_bytes()[self.pos..].starts_with(b"\\u") {
                    return self.err(format!("unpaired surrogate \\u{high:04x}"));
                }
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&low) {
                    return self.err(format!("unpaired surrogate \\u{high:04x}"));
                }
                0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
            }
            0xDC00..=0xDFFF => return self.err(format!("unpaired surrogate \\u{high:04x}")),
            code => code,
        };
        out.push(char::from_u32(code).expect("a non-surrogate below U+110000 is a char"));
        Ok(())
    }

    /// Exactly four hex digits.
    fn hex4(&mut self) -> Result<u32, String> {
        let Some(digits) = self.src.as_bytes().get(self.pos..self.pos + 4) else {
            return self.err("truncated \\u escape");
        };
        let mut code = 0;
        for &b in digits {
            match char::from(b).to_digit(16) {
                Some(d) => code = code * 16 + d,
                None => return self.err("\\u escape needs four hex digits"),
            }
        }
        self.pos += 4;
        Ok(code)
    }
}

/// Appends `s` as a quoted JSON string: `"`, `\` and control characters
/// are escaped, everything else is copied as is.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    let mut start = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escaped = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            b if b < 0x20 => "",
            _ => continue,
        };
        // `b` is ASCII, so `i` is a character boundary.
        out.push_str(&s[start..i]);
        if escaped.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escaped);
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads one string document the way a typed reader would.
    fn str_of(doc: &str) -> Result<String, String> {
        let mut r = Scanner::new(doc);
        let s = r.read_str()?.into_owned();
        r.finish().map(|()| s)
    }

    /// Reads one document of any shape under the full grammar.
    fn check(doc: &str) -> Result<&str, String> {
        let mut r = Scanner::new(doc);
        let text = r.skip_value()?;
        r.finish().map(|()| text)
    }

    #[test]
    fn raw_number_text_survives() {
        for raw in ["2", "2.5", "0.05460761339122153", "-3", "1e3", "0", "-0.5", "1E+2"] {
            let doc = format!("{{\"x\":{raw}}}");
            let mut r = Scanner::new(&doc);
            r.begin_object().unwrap();
            r.next_key().unwrap();
            assert_eq!(r.skip_value(), Ok(raw), "raw number `{raw}` must survive");
        }
    }

    #[test]
    fn key_order_is_preserved() {
        let mut r = Scanner::new("{\"z\":1,\"a\":2,\"m\":[true,null]}");
        r.begin_object().unwrap();
        let mut keys = Vec::new();
        while let Some(key) = r.next_key().unwrap() {
            keys.push(key);
            r.skip_value().unwrap();
        }
        r.finish().unwrap();
        assert_eq!(keys, ["z", "a", "m"]);
    }

    #[test]
    fn empty_containers() {
        assert_eq!(check("[]"), Ok("[]"));
        assert_eq!(check("{ }"), Ok("{ }"));
        let mut r = Scanner::new("{\"a\":[],\"b\":{}}");
        r.begin_object().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("a"));
        r.begin_array().unwrap();
        assert!(!r.next_item().unwrap());
        assert_eq!(r.next_key().unwrap().as_deref(), Some("b"));
        r.begin_object().unwrap();
        assert_eq!(r.next_key().unwrap(), None);
        assert_eq!(r.next_key().unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn errors_carry_offsets() {
        let err = check("{\"a\": }").unwrap_err();
        assert!(err.ends_with("(byte 6)"), "{err}");
        assert!(check("tru").is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(check("{\"a\":}").is_err());
        assert!(check("[1, 2").is_err());
        assert!(check("{} trailing").is_err());
        assert!(check("\"open").is_err());
        assert!(check("1e999").is_err(), "non-finite numbers rejected");
        assert!(check(&"9".repeat(400)).is_err(), "non-finite numbers rejected");
        assert!(check("\"tab\there\"").is_err(), "raw control characters rejected");
    }

    #[test]
    fn rejects_numbers_outside_the_json_grammar() {
        for raw in ["01", "-01", "1.", "-.5", ".5", "1e", "1e+", "-", "1.e3", "+1"] {
            let err = check(raw).unwrap_err();
            assert!(err.contains("byte"), "`{raw}`: {err}");
            assert!(check(&format!("[{raw}]")).is_err(), "`{raw}` inside an array");
        }
    }

    #[test]
    fn strings_without_escapes_are_borrowed() {
        let mut r = Scanner::new("{\"key\":\"plain ü\",\"esc\":\"a\\nb\"}");
        r.begin_object().unwrap();
        assert!(matches!(r.next_key().unwrap(), Some(Cow::Borrowed("key"))));
        assert!(matches!(r.read_str().unwrap(), Cow::Borrowed("plain ü")));
        assert!(matches!(r.next_key().unwrap(), Some(Cow::Borrowed("esc"))));
        assert!(matches!(r.read_str().unwrap(), Cow::Owned(s) if s == "a\nb"));
        assert_eq!(r.next_key().unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn string_escapes() {
        assert_eq!(str_of(r#""line\nbreak\ttab A""#).unwrap(), "line\nbreak\ttab A");
        let mut out = String::new();
        push_json_str(&mut out, "a\"b\\c\nd\r\t\u{1}é");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\r\\t\\u0001é\"");
        assert_eq!(str_of(&out).unwrap(), "a\"b\\c\nd\r\t\u{1}é");
    }

    #[test]
    fn unicode_passthrough() {
        assert_eq!(str_of("\"héllo 🌍\"").unwrap(), "héllo 🌍");
    }

    #[test]
    fn multibyte_text_around_escapes() {
        assert_eq!(str_of("\"é\\\"ß\\\\€\"").unwrap(), "é\"ß\\€");
        assert_eq!(str_of("\"\\u00e9x\\u20ac\"").unwrap(), "éx€");
    }

    #[test]
    fn unicode_escape_needs_exactly_four_hex_digits() {
        for bad in ["\"\\u+041\"", "\"\\u-041\"", "\"\\u 041\"", "\"\\u04\"", "\"\\u004g\"", "\"\\u00"] {
            assert!(check(bad).is_err(), "{bad} must be rejected");
        }
        assert_eq!(str_of("\"\\u0041\\u004a\\u004A\"").unwrap(), "AJJ");
    }

    #[test]
    fn surrogate_pair_decodes_to_one_char() {
        assert_eq!(str_of("\"\\ud83d\\ude00\"").unwrap(), "\u{1F600}");
        assert_eq!(str_of("\"x\\uD83D\\uDE00y\"").unwrap(), "x\u{1F600}y");
    }

    #[test]
    fn lone_surrogates_are_rejected() {
        for bad in [
            "\"\\ud83d\"",
            "\"\\ud83dx\"",
            "\"\\ud83d\\u0041\"",
            "\"\\ude00\"",
            "\"\\ude00\\ud83d\"",
            "\"\\ud83d\\n\"",
        ] {
            let err = check(bad).unwrap_err();
            assert!(err.contains("surrogate"), "{bad}: {err}");
        }
    }

    #[test]
    fn pull_reads_walk_a_document() {
        let mut r = Scanner::new(" { \"n\" : 18446744073709551615 , \"xs\":[ 0.5 ,true,\"\\u00e9\" ], \"o\":{}} ");
        r.begin_object().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("n"));
        assert_eq!(r.read_u64().unwrap(), u64::MAX);
        assert_eq!(r.next_key().unwrap().as_deref(), Some("xs"));
        r.begin_array().unwrap();
        assert!(r.next_item().unwrap());
        assert_eq!(r.read_f64().unwrap(), 0.5);
        assert!(r.next_item().unwrap());
        assert!(r.read_bool().unwrap());
        assert!(r.next_item().unwrap());
        assert!(matches!(r.read_str().unwrap(), Cow::Owned(s) if s == "é"));
        assert!(!r.next_item().unwrap());
        assert_eq!(r.next_key().unwrap().as_deref(), Some("o"));
        r.begin_object().unwrap();
        assert_eq!(r.next_key().unwrap(), None);
        assert_eq!(r.next_key().unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn typed_reads_keep_the_grammar() {
        let read = |doc: &str| {
            let mut r = Scanner::new(doc);
            let n = r.read_u64()?;
            r.finish().map(|()| n)
        };
        assert_eq!(read("0"), Ok(0));
        assert_eq!(read(" 42 "), Ok(42));
        for bad in ["01", "-0", "-1", "1.0", "1e2", "18446744073709551616", "\"1\"", "1 2", ""] {
            assert!(read(bad).is_err(), "`{bad}` read as an unsigned integer");
        }
        assert!(read("\"1\"").unwrap_err().contains("found string"));
        assert!(Scanner::new("1e999").read_f64().is_err(), "non-finite numbers rejected");
        assert!(Scanner::new("null").read_bool().unwrap_err().contains("found null"));
        assert!(Scanner::new("[1]").begin_object().unwrap_err().contains("found array"));
        assert!(Scanner::new("\"a\tb\"").read_str().is_err(), "raw control characters rejected");
    }

    #[test]
    fn a_literal_is_named_only_when_it_is_whole() {
        let object = |doc: &str| Scanner::new(doc).begin_object().unwrap_err();
        assert!(object("null").contains("found null"));
        assert!(object(" true").contains("found bool"));
        assert!(object("false").contains("found bool"));
        assert_eq!(object("not json"), "unexpected byte `n` (byte 0)");
        assert_eq!(object("nul"), "unexpected byte `n` (byte 0)");
        assert_eq!(object(" tru"), "unexpected byte `t` (byte 1)");
        assert_eq!(object("fals"), "unexpected byte `f` (byte 0)");
        assert!(Scanner::new("[1]").read_bool().unwrap_err().contains("found array"));
    }

    #[test]
    fn next_key_is_matches_only_the_canonical_spelling() {
        let mut r = Scanner::new("{\"a\":1, \"b\":2,\"c\\u0064\":3,\"e\" :4}");
        r.begin_object().unwrap();
        assert!(!r.next_key_is("b"), "another key");
        assert!(r.next_key_is("a"));
        r.read_u64().unwrap();
        assert!(!r.next_key_is("b"), "whitespace before the key");
        assert_eq!(r.next_key().unwrap().as_deref(), Some("b"));
        r.read_u64().unwrap();
        assert!(!r.next_key_is("cd"), "an escape in the key");
        assert_eq!(r.next_key().unwrap().as_deref(), Some("cd"));
        r.read_u64().unwrap();
        assert!(!r.next_key_is("e"), "whitespace before the `:`");
        assert_eq!(r.next_key().unwrap().as_deref(), Some("e"));
        r.read_u64().unwrap();
        assert!(!r.next_key_is("e"), "the end of the object");
        assert_eq!(r.next_key().unwrap(), None);
    }

    #[test]
    fn skip_value_returns_the_value_text() {
        let doc = "[{\"k\":[1,{}],\"s\":\"x\\\"y\"}, -2.5e3 ,null]";
        let mut r = Scanner::new(doc);
        assert_eq!(r.skip_value(), Ok(doc));
        let mut r = Scanner::new(doc);
        r.begin_array().unwrap();
        assert!(r.next_item().unwrap());
        assert_eq!(r.skip_value(), Ok("{\"k\":[1,{}],\"s\":\"x\\\"y\"}"));
        assert!(r.next_item().unwrap());
        assert_eq!(r.skip_value(), Ok("-2.5e3"));
        for bad in ["{\"a\" 1}", "[1,]", "\"open", "01", "nul"] {
            assert!(Scanner::new(bad).skip_value().is_err(), "`{bad}` skipped");
        }
    }

    #[test]
    fn skip_value_bounds_the_nesting() {
        let nested = |open: &str, close: &str, levels: usize| {
            format!("{}{}", open.repeat(levels), close.repeat(levels))
        };
        assert!(check(&nested("[", "]", MAX_DEPTH)).is_ok());
        assert!(check(&nested("{\"k\":[", "]}", MAX_DEPTH / 2)).is_ok());
        let err = check(&nested("[", "]", MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err, format!("nested deeper than {MAX_DEPTH} levels (byte {MAX_DEPTH})"));
        // Far past the bound the skip stops at the bound, one frame per
        // level, instead of exhausting the stack.
        let doc = format!("{{\"x\":{}}}", nested("[", "]", 50_000));
        let mut r = Scanner::new(&doc);
        r.begin_object().unwrap();
        r.next_key().unwrap();
        let err = r.skip_value().unwrap_err();
        assert!(err.ends_with(&format!("(byte {})", 5 + MAX_DEPTH)), "{err}");
    }
}
