//! A minimal JSON value, serializer and parser.
//!
//! The bench harnesses emit machine-readable `BENCH_*.json` baselines and
//! the build must stay registry-free, so this module implements the small
//! JSON subset the reports need: objects preserve insertion order, numbers
//! are emitted as integers when exact and as shortest-round-trip floats
//! otherwise, and the parser exists mainly so tests can prove every emitted
//! report re-parses.

use std::fmt;

/// A JSON document node. Object keys keep insertion order so reports diff
/// cleanly between runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; integers up to 2^53 round-trip exactly.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Looks up a key in an object node.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this node is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this node is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this node is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders with two-space indentation and a trailing newline — the
    /// format of every `BENCH_*.json` file.
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders on a single line with no indentation — one frame of a
    /// line-delimited JSON protocol. Strings escape embedded control
    /// characters, so the output never contains a raw newline.
    #[must_use]
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null | Json::Bool(_) | Json::Num(_) | Json::Str(_) => self.write(out, 0),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent + 1);
                    v.write(out, indent + 1);
                }
                newline(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                newline(out, indent);
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s, 0);
        f.write_str(&s)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
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

fn newline(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_num(out: &mut String, n: f64) {
    use fmt::Write as _;
    if !n.is_finite() {
        // JSON has no NaN/Inf; reports must not silently corrupt.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A JSON parse error with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses once
/// per level, so the bound keeps hostile input (a corrupt store entry, an
/// edited checkpoint) from overflowing the stack; the deepest document the
/// simulator writes, a CPU checkpoint, nests 8 levels.
const MAX_DEPTH: usize = 128;

/// Parses a JSON document (strict enough for round-tripping our own output
/// and hand-written configs; no comments, no trailing commas).
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input, trailing garbage, numbers
/// outside `f64`'s finite range (the renderer writes a non-finite number as
/// `null`, so accepting one would change the document on a round trip), or
/// arrays and objects nested more than 128 levels deep.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let b = text.as_bytes();
    let mut pos = 0;
    let v = parse_value(text, &mut pos, 0)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(ParseError { at: pos, msg: "trailing characters" });
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), ParseError> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(ParseError { at: *pos, msg: "unexpected character" })
    }
}

/// Parses the value at `pos`, which sits inside `depth` enclosing arrays
/// and objects.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    let b = text.as_bytes();
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(ParseError { at: *pos, msg: "unexpected end of input" }),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(text, pos).map(Json::Str),
        Some(b'[' | b'{') if depth == MAX_DEPTH => {
            Err(ParseError { at: *pos, msg: "nesting too deep" })
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(ParseError { at: *pos, msg: "expected ',' or ']'" }),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(text, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let val = parse_value(text, pos, depth + 1)?;
                pairs.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(ParseError { at: *pos, msg: "expected ',' or '}'" }),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, ParseError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(ParseError { at: *pos, msg: "invalid literal" })
    }
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, ParseError> {
    let b = text.as_bytes();
    expect(b, pos, b'"')?;
    let mut s = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(ParseError { at: *pos, msg: "unterminated string" }),
            Some(b'"') => {
                *pos += 1;
                return Ok(s);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = b.get(*pos).ok_or(ParseError { at: *pos, msg: "bad escape" })?;
                match esc {
                    b'"' => s.push('"'),
                    b'\\' => s.push('\\'),
                    b'/' => s.push('/'),
                    b'n' => s.push('\n'),
                    b'r' => s.push('\r'),
                    b't' => s.push('\t'),
                    b'b' => s.push('\u{8}'),
                    b'f' => s.push('\u{c}'),
                    b'u' => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or(ParseError { at: *pos, msg: "bad \\u escape" })?;
                        // Surrogate pairs are not needed for our reports.
                        s.push(
                            char::from_u32(hex)
                                .ok_or(ParseError { at: *pos, msg: "bad \\u escape" })?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(ParseError { at: *pos, msg: "bad escape" }),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one scalar. Every step of the parser advances over
                // whole characters, so `pos` is a char boundary.
                let ch = text
                    .get(*pos..)
                    .and_then(|rest| rest.chars().next())
                    .ok_or(ParseError { at: *pos, msg: "invalid UTF-8" })?;
                s.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let n = std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|t| t.parse::<f64>().ok())
        .ok_or(ParseError { at: start, msg: "invalid number" })?;
    if n.is_finite() {
        Ok(Json::Num(n))
    } else {
        Err(ParseError { at: start, msg: "number out of range" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_structures() {
        let v = Json::obj([
            ("name", Json::from("fig2")),
            ("n", Json::from(3u64)),
            ("ratio", Json::from(1.25)),
            ("tags", Json::arr([Json::from("a"), Json::Null, Json::Bool(true)])),
        ]);
        let s = v.pretty();
        assert!(s.contains("\"name\": \"fig2\""));
        assert!(s.contains("\"n\": 3"));
        assert!(s.contains("\"ratio\": 1.25"));
        assert!(s.ends_with("}\n"));
    }

    #[test]
    fn integers_render_without_fraction() {
        let mut s = String::new();
        write_num(&mut s, 1_000_000.0);
        assert_eq!(s, "1000000");
    }

    #[test]
    fn escapes_round_trip() {
        let v = Json::Str("a\"b\\c\nd\te\u{1}".to_string());
        let parsed = parse(&v.pretty()).unwrap();
        assert_eq!(parsed, v);
    }

    #[test]
    fn pretty_output_reparses_identically() {
        let v = Json::obj([
            ("rows", Json::arr([Json::obj([("x", Json::from(0.5)), ("y", Json::from(7u64))])])),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        assert_eq!(parse(&v.pretty()).unwrap(), v);
    }

    #[test]
    fn compact_is_single_line_and_reparses() {
        let v = Json::obj([
            ("s", Json::from("a\nb")),
            ("rows", Json::arr([Json::from(1u64), Json::Null, Json::Bool(true)])),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        let line = v.compact();
        assert!(!line.contains('\n'), "one protocol frame per line: {line}");
        assert_eq!(line, r#"{"s":"a\nb","rows":[1,null,true],"empty_arr":[],"empty_obj":{}}"#);
        assert_eq!(parse(&line).unwrap(), v);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("{} x").is_err());
        assert!(parse("\"abc").is_err());
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.at, MAX_DEPTH, "the first bracket past the limit");
        // Objects count toward the same limit.
        let objs = format!("{}1{}", "{\"k\":".repeat(MAX_DEPTH + 1), "}".repeat(MAX_DEPTH + 1));
        assert!(parse(&objs).is_err());
        // Far past the limit is a typed error, not a stack overflow.
        assert!(parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn multi_byte_strings_round_trip() {
        let v = Json::obj([("é€", Json::from("aé€😀z".repeat(64))), ("k", Json::from("€"))]);
        assert_eq!(parse(&v.pretty()).unwrap(), v);
        assert_eq!(parse(&v.compact()).unwrap(), v);
    }

    #[test]
    fn get_and_accessors() {
        let v = parse(r#"{"a": [1, 2.5], "b": "s"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(v.get("b").unwrap().as_str(), Some("s"));
        assert!(v.get("c").is_none());
    }

    #[test]
    fn non_finite_numbers_become_null() {
        let mut s = String::new();
        write_num(&mut s, f64::NAN);
        assert_eq!(s, "null");
    }

    #[test]
    fn overflowing_numbers_are_rejected() {
        assert_eq!(parse("1.7976931348623157e308"), Ok(Json::Num(f64::MAX)));
        for text in ["1e400", "-2E+309", "[0, 1.8e308]"] {
            assert_eq!(parse(text).unwrap_err().msg, "number out of range", "{text}");
        }
    }

    /// Seeded mutation sweep: every single-byte replace, insert or delete of
    /// a document either fails to parse or parses to a value that renders
    /// to text parsing back equal, and none panics.
    #[test]
    fn mutants_fail_or_round_trip() {
        let small = r#"{"a": [1, -2.5, 1.7976931348623157e308, 4.9e-324], "s": "x\"\u00e9€", "t": true, "n": null}"#;
        let rows = (0..12).map(|i| {
            Json::obj([
                ("app", Json::from(format!("app{i}-é"))),
                ("cycles", Json::from(1_000_003u64 * i)),
                ("ratio", Json::from(1.0 + i as f64 / 7.0)),
                ("flags", Json::arr([Json::Bool(i % 2 == 0), Json::Null])),
            ])
        });
        let payload = Json::obj([("data", Json::arr(rows)), ("note", Json::from("tab\there"))]);
        let large = format!("[{}, 2.5e300, -1E-300]", payload.pretty());
        let alphabet: Vec<char> = "{}[]:,\"\\-+.eE0123456789 tnu€".chars().collect();
        let mut rng = crate::rng::SmallRng::seed_from_u64(0x150_1996);
        let (mut parsed, mut tried) = (0, 0);
        for doc in [small, large.as_str()] {
            for _ in 0..3_000 {
                let mut bytes = doc.as_bytes().to_vec();
                let at = rng.gen_range(0..bytes.len());
                let mut buf = [0; 4];
                let with = alphabet[rng.gen_range(0..alphabet.len())].encode_utf8(&mut buf);
                let with = with.as_bytes();
                match rng.gen_range(0..3u32) {
                    0 => drop(bytes.splice(at..at + 1, with.iter().copied())),
                    1 => drop(bytes.splice(at..at, with.iter().copied())),
                    _ => drop(bytes.remove(at)),
                }
                let Ok(text) = String::from_utf8(bytes) else { continue };
                tried += 1;
                if let Ok(v) = parse(&text) {
                    parsed += 1;
                    assert_eq!(parse(&v.compact()).as_ref(), Ok(&v), "mutant {text}");
                    assert_eq!(parse(&v.pretty()).as_ref(), Ok(&v), "mutant {text}");
                }
            }
        }
        assert!(parsed > 100 && parsed < tried, "{parsed} of {tried} mutants parsed");
    }
}
