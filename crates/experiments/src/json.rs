//! The workspace's one JSON codec, behind every wire format: the
//! [`SweepSpec::encode_spec`](crate::SweepSpec::encode_spec) encoding, the
//! service's and the fabric's frames, and the strings of the `sweep
//! --json` artifact ([`quote`]). The workspace has no network access to
//! crates.io (see `vendor/README.md`), so this is a small
//! recursive-descent parser and encoder instead of serde. Two properties
//! matter for every format and are pinned by tests:
//!
//! - **Losslessness.** Numbers are kept as their source literal
//!   ([`Json::Num`] holds the text, not an `f64`), so `u64` seeds above
//!   2^53 round-trip bit-exactly through encode → parse → encode.
//! - **Totality.** Parsing never panics on malformed input: every failure
//!   is an `Err` with a position, and nesting depth is bounded (a frame of
//!   ten thousand `[` must not overflow the stack).
//!
//! Every parser reads members through one set of accessors
//! ([`Json::str_field`], [`Json::opt_u64`], [`Json::check_fields`], …), so
//! a field has the same error text in every format.

use std::fmt::Write as _;

use crate::metrics::CounterSet;

/// Maximum nesting depth [`parse`] accepts. Protocol frames are at most
/// three levels deep; the bound exists so adversarial input fails with an
/// error instead of exhausting the stack.
const MAX_DEPTH: usize = 64;

/// One JSON value. Object member order is preserved (encoding is
/// deterministic), and number literals are stored verbatim.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its source literal (lossless round-trip).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in member order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A number value from anything displayable as a JSON number literal
    /// (`u64`, `usize`, `f64` via `{}` formatting).
    pub fn num(v: impl std::fmt::Display) -> Json {
        Json::Num(v.to_string())
    }

    /// The member of an object by key (first match), `None` otherwise.
    #[inline]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[inline]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if this is an unsigned integer literal.
    #[inline]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as a `usize`, if this is an unsigned integer literal.
    #[inline]
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// The member `key`, or an error naming the missing field.
    #[inline]
    pub fn required(&self, key: &str) -> Result<&Json, String> {
        self.get(key).ok_or_else(|| missing(key))
    }

    /// The member `key` read by `read`, `None` when absent; a present
    /// member that `read` rejects is an error saying what it `must` be.
    fn typed<'a, T>(
        &'a self,
        key: &str,
        read: impl FnOnce(&'a Json) -> Option<T>,
        must: &str,
    ) -> Result<Option<T>, String> {
        self.get(key)
            .map(|m| read(m).ok_or_else(|| format!("field {key:?} must be {must}")))
            .transpose()
    }

    /// The optional string member `key`.
    #[inline]
    pub fn opt_str(&self, key: &str) -> Result<Option<&str>, String> {
        self.typed(key, Json::as_str, "a string")
    }

    /// The optional unsigned integer member `key`.
    #[inline]
    pub fn opt_u64(&self, key: &str) -> Result<Option<u64>, String> {
        self.typed(key, Json::as_u64, "an unsigned integer")
    }

    /// The optional array member `key`.
    pub fn opt_array(&self, key: &str) -> Result<Option<&[Json]>, String> {
        self.typed(key, Json::as_array, "an array")
    }

    /// The required string member `key`.
    #[inline]
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        self.opt_str(key)?.ok_or_else(|| missing(key))
    }

    /// The required unsigned integer member `key`.
    #[inline]
    pub fn u64_field(&self, key: &str) -> Result<u64, String> {
        self.opt_u64(key)?.ok_or_else(|| missing(key))
    }

    /// The required unsigned integer member `key`, as a `usize`.
    #[inline]
    pub fn usize_field(&self, key: &str) -> Result<usize, String> {
        (self.typed(key, Json::as_usize, "an unsigned integer")?).ok_or_else(|| missing(key))
    }

    /// The required array member `key`.
    pub fn array_field(&self, key: &str) -> Result<&[Json], String> {
        self.opt_array(key)?.ok_or_else(|| missing(key))
    }

    /// Checks that this is an object whose members all appear in
    /// `allowed`, each at most once: a typoed member must not silently
    /// pick a default, and a repeated one must not be read as whichever
    /// copy an accessor finds first.
    #[inline]
    pub fn check_fields(&self, allowed: &[&str]) -> Result<(), String> {
        let members = self.as_object().ok_or("expected a JSON object")?;
        if let Some((key, _)) = members
            .iter()
            .find(|(key, _)| !allowed.contains(&key.as_str()))
        {
            return Err(format!(
                "unknown field {key:?} (allowed: {})",
                allowed.join(", ")
            ));
        }
        // Frames have a handful of members, so a quadratic scan is cheap.
        match members
            .iter()
            .enumerate()
            .find(|(i, (key, _))| members[..*i].iter().any(|(k, _)| k == key))
        {
            Some((_, (key, _))) => Err(format!("repeated field {key:?}")),
            None => Ok(()),
        }
    }

    /// Appends one number member per metric of a counter set: the JSON
    /// rendering of every [`crate::metrics`] set.
    pub fn push_counters(members: &mut Vec<(String, Json)>, set: &impl CounterSet) {
        set.visit(&mut |name, value| members.push((name.to_string(), Json::num(value))));
    }

    /// Reads a counter set back out of this object's members (see
    /// [`CounterSet::parse`]).
    pub fn counters<S: CounterSet>(&self) -> Option<S> {
        S::parse(&|name| self.get(name)?.as_u64())
    }

    fn encode_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(literal) => out.push_str(literal),
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.encode_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.encode_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl std::fmt::Display for Json {
    /// Renders compact JSON (no whitespace), deterministically: members in
    /// stored order, numbers as their stored literal.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.encode_into(&mut out);
        f.write_str(&out)
    }
}

/// The error text of an absent required member.
fn missing(key: &str) -> String {
    format!("missing required field {key:?}")
}

/// `s` as a JSON string literal, quoted and escaped as [`Json::Str`]
/// renders it.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(s, &mut out);
    out
}

/// Appends `s` as a JSON string literal: the runs between characters
/// that need an escape are copied whole.
fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..0x20 => None,
            _ => continue,
        };
        // `i` is an ASCII byte, so both slices end on char boundaries.
        out.push_str(&s[run..i]);
        match escape {
            Some(escape) => out.push_str(escape),
            None => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    msg: String,
    at: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON value; trailing content (other than
/// whitespace) is an error. Never panics; nesting is bounded to 64
/// levels.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            msg: msg.to_string(),
            at: self.pos,
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
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
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control byte
            // whole. The input is a `&str` and runs end at an ASCII byte
            // (or the end), so every run is whole UTF-8.
            let rest = &self.bytes[self.pos..];
            let len = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            if len > 0 {
                let run =
                    std::str::from_utf8(&rest[..len]).map_err(|_| self.err("invalid UTF-8"))?;
                out.push_str(run);
                self.pos += len;
            }
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hex4 = |p: &mut Self| -> Result<u32, JsonError> {
            let end = p.pos + 4;
            if end > p.bytes.len() {
                return Err(p.err("truncated \\u escape"));
            }
            let text = std::str::from_utf8(&p.bytes[p.pos..end])
                .map_err(|_| p.err("invalid \\u escape"))?;
            let v = u32::from_str_radix(text, 16).map_err(|_| p.err("invalid \\u escape"))?;
            p.pos = end;
            Ok(v)
        };
        let hi = hex4(self)?;
        // Surrogate pairs: a high surrogate must be followed by \uDC00..
        if (0xD800..0xDC00).contains(&hi) {
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = hex4(self)?;
                if (0xDC00..0xE000).contains(&lo) {
                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"));
                }
            }
            return Err(self.err("unpaired surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("expected exponent digits"));
            }
        }
        let literal = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number literals are ASCII")
            .to_string();
        Ok(Json::Num(literal))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_values() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-7",
            "18446744073709551615", // u64::MAX survives verbatim
            "3.25",
            "1e-9",
            "\"hello\"",
            "[1,2,[3]]",
            "{\"a\":1,\"b\":[true,null],\"c\":{\"d\":\"x\"}}",
        ] {
            let v = parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(v.to_string(), text, "{text}");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = Json::Str("line\nquote\" back\\ tab\t nul\u{1} é 🚀".to_string());
        let encoded = original.to_string();
        assert_eq!(parse(&encoded).unwrap(), original);
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("😀".to_string())
        );
        assert!(parse("\"\\ud83d\"").is_err());
    }

    #[test]
    fn malformed_inputs_error_without_panicking() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "nul",
            "tru",
            "01x",
            "1.",
            "1e",
            "-",
            "\"unterminated",
            "\"bad \\q escape\"",
            "{\"a\":1} trailing",
            "\u{1}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn depth_is_bounded() {
        let deep = "[".repeat(10_000);
        assert!(parse(&deep).is_err());
        let ok = format!("{}1{}", "[".repeat(60), "]".repeat(60));
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn check_fields_refuses_unknown_and_repeated_members() {
        let allowed = ["id", "pes"];
        let check = |text: &str| parse(text).unwrap().check_fields(&allowed);
        assert_eq!(check("{\"id\":1,\"pes\":4}"), Ok(()));
        assert_eq!(
            check("{\"pes\":4,\"id\":1,\"pes\":0}"),
            Err("repeated field \"pes\"".to_string())
        );
        let err = check("{\"pes\":4,\"pes\":0,\"pse\":1}").unwrap_err();
        assert!(err.starts_with("unknown field \"pse\""), "{err}");
        assert!(check("[1]").is_err());
    }

    #[test]
    fn string_runs_and_escapes_round_trip() {
        // Long runs between escapes, multi-byte characters at run edges,
        // and every control character.
        let text: String = (0u8..0x20)
            .map(char::from)
            .chain("é\"🚀\\".chars())
            .chain(std::iter::repeat_n('x', 1000))
            .chain("日本\u{7f}".chars())
            .collect();
        let encoded = quote(&text);
        assert!(encoded.contains("\\u001f") && encoded.contains("\\n"));
        assert_eq!(parse(&encoded).unwrap(), Json::Str(text));
        assert!(parse("\"run\u{1}run\"").is_err(), "raw control character");
    }

    #[test]
    fn accessors() {
        let v = parse("{\"id\":7,\"name\":\"x\",\"on\":true,\"pes\":[2,4]}").unwrap();
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("name").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("on"), Some(&Json::Bool(true)));
        assert_eq!(
            v.get("pes").and_then(Json::as_array).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(v.get("missing"), None);
    }
}
