//! A minimal JSON reader **and writer** for the workspace's artifacts.
//!
//! The workspace carries no serialization dependency. This module is the
//! shared JSON layer: a strict recursive-descent reader — just enough of
//! RFC 8259 to parse what we emit plus anything Chrome/Perfetto would
//! accept, used by the trace validator (`streamlin-runtime::telemetry`)
//! and the trace-shape tests — and the matching writer, used by the
//! `streamlind` wire protocol. Trailing garbage, unterminated strings
//! and malformed numbers are parse errors, not best-effort results;
//! everything [`Json::dump`] emits parses back to an equal value (finite
//! numbers round-trip bit-exactly).
//!
//! Numbers are written by [`crate::fmt_f64`], not by `std::fmt`. Its
//! contract is byte identity with `format!("{v}")` — the shortest digits
//! that parse back to the same bits, never an exponent — so which of the
//! two printed a number cannot be told from the output, and the writer's
//! own tests hold it to that over millions of values.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::fmt_f64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`, like JavaScript).
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Later duplicate keys win, like `JSON.parse`.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on objects; `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
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

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
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

    /// Builds an object from key/value pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from values.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Serializes to a compact single-line document that [`parse`]
    /// accepts and maps back to an equal value.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Serializes to a multi-line document with two-space indentation,
    /// for committed artifacts meant to be read (and diffed) by humans.
    pub fn dump_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_num(out, *v),
            Json::Str(s) => write_string(out, s),
            Json::Arr(v) => {
                if v.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in v.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent.map(|d| d + 1));
                    item.write(out, indent.map(|d| d + 1));
                }
                newline(out, indent);
                out.push(']');
            }
            Json::Obj(m) => {
                if m.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent.map(|d| d + 1));
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent.map(|d| d + 1));
                }
                newline(out, indent);
                out.push('}');
            }
        }
    }
}

fn newline(out: &mut String, depth: Option<usize>) {
    if let Some(d) = depth {
        out.push('\n');
        for _ in 0..d {
            out.push_str("  ");
        }
    }
}

/// Appends `s` as a JSON string literal (quotes included), escaping
/// quotes, backslashes and control characters. This is the one escaper
/// in the workspace; `probe::json_string` delegates here.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a number. Finite values go through [`fmt_f64::write`]: the
/// bytes `format!("{v}")` would produce (so `parse` recovers the exact
/// bits) without the `std::fmt` machinery; JSON has no NaN/Infinity, so
/// non-finite values serialize as `null`.
pub fn write_num(out: &mut String, v: f64) {
    if v.is_finite() {
        fmt_f64::write(out, v);
    } else {
        out.push_str("null");
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

/// Deepest container nesting [`parse`] accepts. The reader is recursive
/// descent and its input arrives from the network: without a budget one
/// line of `[[[[…` is a stack overflow, which no handler can catch.
/// Nothing the workspace emits nests deeper than a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error, or
/// of the container that nests deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    /// `text`'s bytes.
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err<T>(&self, msg: &str) -> Result<T, String> {
        Err(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected `{}`", b as char))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            self.err("invalid literal")
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => {
                self.err(&format!("nesting deeper than {MAX_DEPTH} levels"))
            }
            Some(open @ (b'{' | b'[')) => {
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => self.err("expected a value"),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let v = self.value()?;
            m.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(m));
                }
                _ => return self.err("expected `,` or `}`"),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            self.skip_ws();
            v.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return self.err("expected `,` or `]`"),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| format!("truncated \\u at byte {}", self.pos))?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            // Surrogates are not paired (we never emit
                            // them); replace to stay lossless-enough.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // The run up to the next quote or backslash, copied
                    // whole. Both are ASCII, so the run ends on a character
                    // boundary of the input.
                    let len = run_len(&self.bytes[self.pos..]);
                    s.push_str(&self.text[self.pos..self.pos + len]);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

/// How many bytes of `bytes` come before its first quote or backslash
/// (all of them if it has neither), tested 8 bytes at a time: a byte of
/// `w ^ c·0x0101…` is zero where `w` holds `c`, and the lowest set bit of
/// `(x - 0x0101…) & !x & 0x8080…` marks the first zero byte of `x`.
fn run_len(bytes: &[u8]) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    let zeros = |x: u64| x.wrapping_sub(ONES) & !x & (ONES << 7);
    let mut words = bytes.chunks_exact(8);
    let mut len = 0;
    for word in &mut words {
        let w = u64::from_le_bytes(word.try_into().expect("8 bytes"));
        let hits = zeros(w ^ (ONES * u64::from(b'"'))) | zeros(w ^ (ONES * u64::from(b'\\')));
        if hits != 0 {
            return len + hits.trailing_zeros() as usize / 8;
        }
        len += 8;
    }
    let rest = words.remainder();
    len + rest
        .iter()
        .position(|&b| b == b'"' || b == b'\\')
        .unwrap_or(rest.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_emitted_shapes() {
        let v = parse(r#"{"traceEvents":[{"ph":"X","ts":1.5,"args":{"n":3}},true,null]}"#)
            .expect("parses");
        let events = v.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].get("ts").and_then(Json::as_num), Some(1.5));
    }

    #[test]
    fn escapes_resolve() {
        let v = parse(r#""a\"b\\c\nA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nA"));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("01x").is_err());
    }

    #[test]
    fn nesting_is_budgeted_not_a_stack_overflow() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err, "nesting deeper than 128 levels at byte 128");
        // The line that used to abort the daemon, and its object twin.
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(200_000)).is_err());
        // Depth is what is open around a value, not how many were seen.
        let wide = format!("[{}]", vec!["[[]]"; 1000].join(","));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn numbers_cover_the_emitted_formats() {
        assert_eq!(parse("-3.25").unwrap().as_num(), Some(-3.25));
        assert_eq!(parse("1e3").unwrap().as_num(), Some(1000.0));
    }

    #[test]
    fn parses_our_own_escaper() {
        let s = crate::probe::json_string("weird \"x\"\n\\ \u{1} text");
        let v = parse(&s).unwrap();
        assert_eq!(v.as_str(), Some("weird \"x\"\n\\ \u{1} text"));
    }

    #[test]
    fn writer_round_trips_nested_documents() {
        let doc = Json::obj([
            ("name", Json::from("fir — \"edge\" \\ \n\t\u{1}")),
            ("n", Json::from(64usize)),
            (
                "values",
                Json::arr([Json::from(0.1 + 0.2), Json::from(-0.0), Json::Null]),
            ),
            ("nested", Json::obj([("ok", Json::from(true))])),
            ("empty_arr", Json::arr([])),
            ("empty_obj", Json::obj::<String>([])),
        ]);
        assert_eq!(parse(&doc.dump()).unwrap(), doc);
        assert_eq!(parse(&doc.dump_pretty()).unwrap(), doc);
    }

    #[test]
    fn writer_round_trips_floats_bit_exactly() {
        for v in [
            0.1 + 0.2,
            -1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            1e300,
            -2.5e-8,
            123_456_789.123_456_78,
            -0.0,
        ] {
            let mut s = String::new();
            write_num(&mut s, v);
            let back = parse(&s).unwrap().as_num().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} reprinted as {s}");
        }
    }

    #[test]
    fn writer_maps_nonfinite_to_null() {
        assert_eq!(Json::from(f64::NAN).dump(), "null");
        assert_eq!(Json::from(f64::INFINITY).dump(), "null");
    }

    /// SplitMix64, seeded, so a failure names a reproducible string.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<T: Copy>(&mut self, from: &[T]) -> T {
            from[self.below(from.len())]
        }
    }

    /// Two-, three- and four-byte characters.
    const WIDE: [char; 6] = ['é', 'ß', '—', '€', '𝄞', '😀'];

    /// A random string of up to about `max` bytes: runs of printable ASCII,
    /// every character with a short escape, other control characters, and
    /// wide characters, often right beside a quote or a backslash.
    fn random_text(rng: &mut Rng, max: usize) -> String {
        let len = rng.below(max + 1);
        let mut s = String::new();
        while s.len() < len {
            match rng.below(5) {
                0 => {
                    for _ in 0..rng.below(64) {
                        s.push(char::from(b' ' + rng.below(95) as u8));
                    }
                }
                1 => s.push(rng.pick(&['"', '\\', '/', '\u{8}', '\u{c}', '\n', '\r', '\t'])),
                2 => s.push(char::from(rng.below(0x20) as u8)),
                3 => s.push(rng.pick(&WIDE)),
                _ => {
                    let (wide, delim) = (rng.pick(&WIDE), rng.pick(&['"', '\\']));
                    if rng.below(2) == 0 {
                        s.extend([wide, delim]);
                    } else {
                        s.extend([delim, wide]);
                    }
                }
            }
        }
        s
    }

    /// `s` as a JSON literal in which each character is spelled at random
    /// by any spelling the reader accepts: raw where JSON allows it, its
    /// short escape (`\/`, `\b` and `\f` included) or a `\u` escape in
    /// either case.
    fn spell_every_way(rng: &mut Rng, s: &str) -> String {
        let mut out = String::from('"');
        for c in s.chars() {
            let short = match c {
                '"' | '\\' | '/' => Some(c),
                '\u{8}' => Some('b'),
                '\u{c}' => Some('f'),
                '\n' => Some('n'),
                '\r' => Some('r'),
                '\t' => Some('t'),
                _ => None,
            };
            let must_escape = c == '"' || c == '\\' || (c as u32) < 0x20;
            match (short, rng.below(3)) {
                (Some(e), 0) => {
                    out.push('\\');
                    out.push(e);
                }
                (_, 1) | (None, 0) if must_escape || (c as u32) < 0x1_0000 => {
                    if rng.below(2) == 0 {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    } else {
                        let _ = write!(out, "\\u{:04X}", c as u32);
                    }
                }
                (Some(e), _) if must_escape => {
                    out.push('\\');
                    out.push(e);
                }
                _ if must_escape => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                _ => out.push(c),
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn random_strings_round_trip() {
        let mut rng = Rng(0x0a5c_11e5);
        for round in 0..400 {
            let s = random_text(&mut rng, 16 << 10);
            let mut written = String::new();
            write_string(&mut written, &s);
            assert_eq!(
                parse(&written).unwrap().as_str(),
                Some(&s[..]),
                "round {round}"
            );
            let spelled = spell_every_way(&mut rng, &s);
            assert_eq!(
                parse(&spelled).unwrap().as_str(),
                Some(&s[..]),
                "round {round}: {spelled}"
            );
            // As a key and a member, the way request lines carry text.
            let doc = Json::obj([(s.clone(), Json::from(&s[..]))]);
            assert_eq!(parse(&doc.dump()).unwrap(), doc, "round {round}");
        }
    }

    #[test]
    fn string_errors_name_their_byte() {
        for (text, err) in [
            ("\"abc", "unterminated string at byte 4"),
            ("\"é😀", "unterminated string at byte 7"),
            ("{\"a\":\"b", "unterminated string at byte 7"),
            ("\"ab\\", "bad escape at byte 4"),
            (r#""a\x""#, "bad escape at byte 3"),
            (r#"["é\q"]"#, "bad escape at byte 5"),
            (r#""\u12""#, "truncated \\u at byte 2"),
            (r#""é\u1"#, "truncated \\u at byte 4"),
            (r#""\uzz12""#, "bad \\u escape at byte 2"),
            (r#""ab\u12g4""#, "bad \\u escape at byte 4"),
        ] {
            assert_eq!(parse(text).unwrap_err(), err, "{text}");
        }
    }

    #[test]
    fn compact_dump_is_single_line_and_key_sorted() {
        let doc = Json::obj([("b", Json::from(1.0)), ("a", Json::from(2.0))]);
        assert_eq!(doc.dump(), r#"{"a":2,"b":1}"#);
    }
}
