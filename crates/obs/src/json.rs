//! A minimal JSON value, writer and strict parser.
//!
//! This crate is deliberately dependency-free, so a ~100-line writer and
//! a recursive-descent parser into the same [`JsonValue`] tree replace
//! `serde_json` for the sinks, the run report, the daemon's request
//! bodies and the cluster manifest. The writer emits strict JSON — the
//! integration tests read every emitted document back through
//! [`parse`] to prove it. The parser is strict by design — no comments,
//! no trailing commas, no unquoted keys — and depth-limited so a
//! hostile body cannot blow a worker stack.

use std::fmt::Write as _;

/// A JSON value tree.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (kept exact, unlike `F64`).
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float; non-finite values are emitted as `null` (JSON has no
    /// NaN/Infinity).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: Vec<(K, JsonValue)>) -> JsonValue {
        JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Pretty rendering with two-space indentation — the format of the
    /// run-report files, stable enough to diff across runs.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::U64(n) => {
                let _ = write!(out, "{n}");
            }
            JsonValue::I64(n) => {
                let _ = write!(out, "{n}");
            }
            JsonValue::F64(x) => write_f64(out, *x),
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            JsonValue::Arr(items) if !items.is_empty() => {
                // Scalar-only arrays stay on one line (objective
                // trajectories would otherwise take a line per epoch).
                if items
                    .iter()
                    .all(|i| !matches!(i, JsonValue::Arr(_) | JsonValue::Obj(_)))
                {
                    self.write(out);
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            JsonValue::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        // Rust's shortest round-trip float formatting is valid JSON
        // (digits, optional '.', optional 'e' exponent).
        let _ = write!(out, "{x}");
        // `{}` prints integral floats without a decimal point; that is
        // still valid JSON and parses back as a number.
    } else {
        out.push_str("null");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::U64(v)
    }
}

impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::U64(v as u64)
    }
}

impl From<i64> for JsonValue {
    fn from(v: i64) -> Self {
        JsonValue::I64(v)
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::F64(v)
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}

impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(v: Vec<T>) -> Self {
        JsonValue::Arr(v.into_iter().map(Into::into).collect())
    }
}

/// Nesting depth past which parsing aborts (a flat request body for this
/// API nests 4 levels; 64 leaves two orders of magnitude of headroom).
const MAX_DEPTH: usize = 64;

/// Parses a complete JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => parse_string(bytes, pos).map(JsonValue::Str),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected byte {:?} at {}", *c as char, *pos)),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("malformed literal at byte {pos}"))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    *pos += 1; // '{'
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}"));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth + 1)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(pairs));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    *pos += 1; // opening '"'
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape digits")?;
                        // Surrogate pairs are rejected rather than
                        // combined; the API never emits them.
                        let c = char::from_u32(code)
                            .ok_or_else(|| format!("\\u{hex} is not a scalar value"))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(&c) if c < 0x20 => {
                return Err(format!("raw control byte 0x{c:02x} in string"));
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is &str, so boundaries
                // are valid by construction).
                let rest =
                    std::str::from_utf8(&bytes[*pos..]).map_err(|_| "invalid UTF-8 in string")?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut fractional = false;
    while let Some(&c) = bytes.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                fractional = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "bad number")?;
    if !fractional {
        if let Ok(n) = text.parse::<u64>() {
            return Ok(JsonValue::U64(n));
        }
        if let Ok(n) = text.parse::<i64>() {
            return Ok(JsonValue::I64(n));
        }
    }
    let x: f64 = text
        .parse()
        .map_err(|_| format!("malformed number {text:?}"))?;
    if !x.is_finite() {
        return Err(format!("number {text:?} overflows f64"));
    }
    Ok(JsonValue::F64(x))
}

/// The value under `key` in an object, if present.
pub fn get<'a>(value: &'a JsonValue, key: &str) -> Option<&'a JsonValue> {
    match value {
        JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Numeric coercion across the integer/float variants.
pub fn as_f64(value: &JsonValue) -> Option<f64> {
    match value {
        JsonValue::U64(n) => Some(*n as f64),
        JsonValue::I64(n) => Some(*n as f64),
        JsonValue::F64(x) => Some(*x),
        _ => None,
    }
}

/// A non-negative integer (rejects floats with fractional parts).
pub fn as_u64(value: &JsonValue) -> Option<u64> {
    match value {
        JsonValue::U64(n) => Some(*n),
        JsonValue::I64(n) if *n >= 0 => Some(*n as u64),
        JsonValue::F64(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
            Some(*x as u64)
        }
        _ => None,
    }
}

/// The array items, if `value` is an array.
pub fn as_arr(value: &JsonValue) -> Option<&[JsonValue]> {
    match value {
        JsonValue::Arr(items) => Some(items),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(JsonValue::Null.render(), "null");
        assert_eq!(JsonValue::Bool(true).render(), "true");
        assert_eq!(JsonValue::U64(42).render(), "42");
        assert_eq!(JsonValue::I64(-7).render(), "-7");
        assert_eq!(JsonValue::F64(1.5).render(), "1.5");
        assert_eq!(JsonValue::F64(f64::NAN).render(), "null");
        assert_eq!(JsonValue::F64(f64::INFINITY).render(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        let v = JsonValue::Str("a\"b\\c\nd\u{1}".to_string());
        assert_eq!(v.render(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn nested_structures_render() {
        let v = JsonValue::obj(vec![
            ("xs", JsonValue::from(vec![1u64, 2])),
            ("name", JsonValue::from("slpa")),
        ]);
        assert_eq!(v.render(), "{\"xs\":[1,2],\"name\":\"slpa\"}");
    }

    #[test]
    fn pretty_keeps_scalar_arrays_inline() {
        let v = JsonValue::obj(vec![("xs", JsonValue::from(vec![1.0, 2.5]))]);
        let pretty = v.render_pretty();
        assert!(pretty.contains("\"xs\": [1,2.5]"), "{pretty}");
    }

    #[test]
    fn empty_containers() {
        assert_eq!(JsonValue::Arr(vec![]).render_pretty(), "[]");
        assert_eq!(JsonValue::Obj(vec![]).render_pretty(), "{}");
    }

    #[test]
    fn scalars_parse() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse(" 42 ").unwrap(), JsonValue::U64(42));
        assert_eq!(parse("-7").unwrap(), JsonValue::I64(-7));
        assert_eq!(parse("1.5e2").unwrap(), JsonValue::F64(150.0));
        assert_eq!(parse("\"hi\"").unwrap(), JsonValue::Str("hi".into()));
    }

    #[test]
    fn structures_parse() {
        let v = parse(r#"{"pairs":[[0,1],[2,3]],"dt":0.5}"#).unwrap();
        let pairs = as_arr(get(&v, "pairs").unwrap()).unwrap();
        assert_eq!(pairs.len(), 2);
        assert_eq!(as_u64(&as_arr(&pairs[1]).unwrap()[0]), Some(2));
        assert_eq!(as_f64(get(&v, "dt").unwrap()), Some(0.5));
    }

    #[test]
    fn escapes_decode() {
        assert_eq!(
            parse(r#""a\"b\\c\ndA""#).unwrap(),
            JsonValue::Str("a\"b\\c\ndA".into())
        );
    }

    #[test]
    fn round_trips_through_the_writer() {
        let text = r#"{"a":[1,2.5,"x",null,true],"b":{"c":-3}}"#;
        let v = parse(text).unwrap();
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{a:1}",
            "\"unterminated",
            "01x",
            "nul",
            "[1] trailing",
            "{\"a\":1,}",
            "\u{1}",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn depth_limit_holds() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(20) + &"]".repeat(20);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn integer_widths() {
        assert_eq!(
            parse("18446744073709551615").unwrap(),
            JsonValue::U64(u64::MAX)
        );
        assert_eq!(
            parse("-9223372036854775808").unwrap(),
            JsonValue::I64(i64::MIN)
        );
        assert!(parse("1e400").is_err());
    }

    #[test]
    fn accessors_coerce() {
        assert_eq!(as_f64(&JsonValue::U64(3)), Some(3.0));
        assert_eq!(as_u64(&JsonValue::F64(4.0)), Some(4));
        assert_eq!(as_u64(&JsonValue::F64(4.5)), None);
        assert_eq!(as_u64(&JsonValue::I64(-1)), None);
        assert!(get(&JsonValue::Null, "k").is_none());
    }
}
