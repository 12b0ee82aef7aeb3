//! The workspace's one JSON reader and writer: a value type, a
//! recursive-descent parser, a compact emitter and an indented one.
//!
//! The workspace is offline (no serde), and everything a run can be checked
//! against is JSON — the `sjoind` wire, the reconciled metrics report, the
//! trace, the bench corpus, the conformance repros. Every one of them is built as a [`Json`] value and spelled by
//! [`Display`](fmt::Display) (one line: protocol and JSON-Lines rows) or
//! [`Json::pretty`] (indented: files people read), and read back by
//! [`Json::parse`]. Numbers are `f64`: integers stay exact up to 2^53, far
//! beyond any counter the suite produces, and every finite `f64` is written
//! in its shortest form that parses back to the same bits.

use std::fmt;

/// Deepest container nesting [`Json::parse`] accepts. The parser recurses
/// once per level, so without a bound one line of `[` overflows the stack —
/// an abort no `catch_unwind` contains. A constant, not a setting: the
/// deepest document the suite writes nests four levels.
pub const MAX_DEPTH: usize = 128;

/// A JSON value. Object keys keep insertion order (the emitters are
/// deterministic), duplicate keys keep the last occurrence on lookup.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document, requiring it to consume the whole input.
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// An object of `members`, in the order given.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of `items`.
    pub fn arr<V: Into<Json>>(items: impl IntoIterator<Item = V>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// Object member lookup (last occurrence wins); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The indented form, newline-terminated: a container that holds another
    /// container puts one member per line, a container of scalars stays on
    /// one line (`[0.25, 0.5, 0.25, 0.75]`). Parses back to `self`.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        // Writing into a `String` cannot fail.
        let _ = self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// `indent` is `None` for the compact form, else the column the value
    /// starts its lines at.
    fn write(&self, out: &mut impl fmt::Write, indent: Option<usize>) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(b) => write!(out, "{b}"),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_quoted(out, s),
            Json::Arr(items) => {
                write_members(out, indent, ['[', ']'], items.iter().map(|v| (None, v)))
            }
            Json::Obj(members) => write_members(
                out,
                indent,
                ['{', '}'],
                members.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

impl fmt::Display for Json {
    /// Compact single-line emission — exactly what a protocol line needs.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, None)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

macro_rules! from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Num(v as f64)
            }
        }
    )*};
}

from_number!(f64, u64, u32, usize);

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_owned())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

fn write_members<'a>(
    out: &mut impl fmt::Write,
    indent: Option<usize>,
    [open, close]: [char; 2],
    members: impl Iterator<Item = (Option<&'a str>, &'a Json)> + Clone,
) -> fmt::Result {
    // The column of the members when each gets its own line: only in the
    // indented form, and only around a member that is itself a container.
    let mut scan = members.clone();
    let column = indent
        .filter(|_| scan.any(|(_, v)| matches!(v, Json::Arr(_) | Json::Obj(_))))
        .map(|n| n + 2);
    let (comma, colon) = match (indent, column) {
        (None, _) => (",", ":"),
        (Some(_), None) => (", ", ": "),
        (Some(_), Some(_)) => (",", ": "),
    };
    out.write_char(open)?;
    for (i, (key, v)) in members.enumerate() {
        if i > 0 {
            out.write_str(comma)?;
        }
        if let Some(n) = column {
            write!(out, "\n{:n$}", "")?;
        }
        if let Some(key) = key {
            write_quoted(out, key)?;
            out.write_str(colon)?;
        }
        v.write(out, column.or(indent))?;
    }
    if let (Some(n), Some(_)) = (indent, column) {
        write!(out, "\n{:n$}", "")?;
    }
    out.write_char(close)
}

/// Integers without a fraction, everything else via `{:?}` — the shortest
/// form that parses back to the same bits (`-0.0` included). Non-finite
/// values, which JSON cannot express, are written `null`: the one case
/// where a value does not survive a round trip.
fn write_num(out: &mut impl fmt::Write, n: f64) -> fmt::Result {
    if !n.is_finite() {
        out.write_str("null")
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 && !(n == 0.0 && n.is_sign_negative()) {
        write!(out, "{}", n as i64)
    } else {
        write!(out, "{n:?}")
    }
}

fn write_quoted(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    write_escaped(out, s)?;
    out.write_char('"')
}

fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    Ok(())
}

/// Escapes a string for embedding between JSON quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    // Writing into a `String` cannot fail.
    let _ = write_escaped(&mut out, s);
    out
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// `depth` counts the containers this value sits inside.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[' | b'{') if depth >= MAX_DEPTH => Err(format!(
                "nested deeper than {MAX_DEPTH} containers at byte {}",
                self.pos
            )),
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-utf8 number".to_owned())?;
        match text.parse::<f64>() {
            // `1e999` reads as infinity, which no writer here can spell.
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            Ok(_) => Err(format!("number {text:?} is out of range")),
            Err(e) => Err(format!("bad number {text:?}: {e}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".to_owned());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".to_owned());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => out.push(self.unicode_escape()?),
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                b if b < 0x80 => out.push(b as char),
                _ => {
                    // Multi-byte UTF-8: re-borrow the source slice so the
                    // bytes are validated as a unit.
                    let start = self.pos - 1;
                    let len = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let end = (start + len).min(self.bytes.len());
                    let chunk = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| "invalid utf8 in string".to_owned())?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, String> {
        let hex4 = |p: &mut Self| -> Result<u32, String> {
            if p.pos + 4 > p.bytes.len() {
                return Err("truncated \\u escape".to_owned());
            }
            let text = std::str::from_utf8(&p.bytes[p.pos..p.pos + 4])
                .map_err(|_| "non-utf8 \\u escape".to_owned())?;
            let v = u32::from_str_radix(text, 16).map_err(|_| format!("bad \\u{text}"))?;
            p.pos += 4;
            Ok(v)
        };
        let hi = hex4(self)?;
        // Surrogate pair: a high surrogate must be followed by \uDCxx.
        if (0xD800..0xDC00).contains(&hi) {
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = hex4(self)?;
                if (0xDC00..0xE000).contains(&lo) {
                    let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return Ok(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                }
            }
            return Ok('\u{FFFD}');
        }
        Ok(char::from_u32(hi).unwrap_or('\u{FFFD}'))
    }

    /// `depth` is the depth of the members.
    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    /// `depth` is the depth of the members.
    fn object(&mut self, depth: usize) -> Result<Json, String> {
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
            let v = self.value(depth)?;
            members.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trips_protocol_shapes() {
        for line in [
            r#"{"cmd":"join","left":"a","right":"b","mem_mb":1.5,"reuse":true}"#,
            r#"{"pairs":[[1,2],[3,4]]}"#,
            r#"{"done":{"results":10,"first_result_seconds":null}}"#,
            r#"[]"#,
            r#"{}"#,
            r#""tab\tquote\"backslash\\""#,
        ] {
            let v = Json::parse(line).expect(line);
            let emitted = v.to_string();
            assert_eq!(Json::parse(&emitted).expect(&emitted), v, "{line}");
        }
    }

    #[test]
    fn lookup_and_scalars() {
        let v = Json::parse(r#"{"a":1,"b":"x","c":true,"d":null,"a":2}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(2)); // last wins
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("c").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::parse("-2.5").unwrap().as_f64(), Some(-2.5));
        assert_eq!(Json::parse("2.5").unwrap().as_u64(), None);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "",
            "1e999",
            "-",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn unicode_escapes_and_multibyte() {
        assert_eq!(
            Json::parse(r#""é café 😀""#).unwrap(),
            Json::Str("é café 😀".to_owned())
        );
        let v = Json::parse("\"héllo 世界\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo 世界"));
        let emitted = v.to_string();
        assert_eq!(Json::parse(&emitted).unwrap(), v);
    }

    #[test]
    fn integers_emit_without_fraction() {
        assert_eq!(Json::Num(10.0).to_string(), "10");
        assert_eq!(Json::Num(0.5).to_string(), "0.5");
        assert_eq!(Json::Num(-0.0).to_string(), "-0.0");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::from(Some(f64::INFINITY)).to_string(), "null");
    }

    #[test]
    fn nesting_is_refused_one_past_the_bound() {
        let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let objects = |depth: usize| format!("{}0{}", "{\"k\":".repeat(depth), "}".repeat(depth));
        for nested in [&arrays as &dyn Fn(usize) -> String, &objects] {
            assert!(Json::parse(&nested(MAX_DEPTH)).is_ok(), "{}", nested(2));
            let err = Json::parse(&nested(MAX_DEPTH + 1)).expect_err("one level too many");
            assert!(err.contains("nested deeper"), "{err}");
        }
        // What used to abort the process: no closing bracket ever comes.
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn builders_and_the_two_forms() {
        let v = Json::obj([
            ("name", "a\"b".into()),
            ("n", 3u64.into()),
            ("none", Option::<f64>::None.into()),
            ("rect", Json::arr([0.25, 0.5])),
            (
                "rows",
                Json::arr([
                    Json::obj([("k", true.into())]),
                    Json::arr(Vec::<f64>::new()),
                ]),
            ),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"name":"a\"b","n":3,"none":null,"rect":[0.25,0.5],"rows":[{"k":true},[]]}"#
        );
        assert_eq!(
            v.pretty(),
            "{\n  \"name\": \"a\\\"b\",\n  \"n\": 3,\n  \"none\": null,\n  \"rect\": [0.25, 0.5],\n  \
             \"rows\": [\n    {\"k\": true},\n    []\n  ]\n}\n"
        );
        assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
        assert_eq!(Json::arr(Vec::<f64>::new()).pretty(), "[]\n");
    }

    /// Values the writers can spell: finite numbers of every awkward kind,
    /// strings with escapes, controls and non-ASCII, containers up to a
    /// few levels.
    struct Values {
        depth: u32,
    }

    impl Strategy for Values {
        type Value = Json;

        fn generate(&self, rng: &mut TestRng) -> Json {
            let pick = |rng: &mut TestRng, n: u64| rng.next_u64() % n;
            let string = |rng: &mut TestRng| -> String {
                let alphabet = [
                    'a', '"', '\\', '/', '\n', '\r', '\t', '\u{1}', '\u{1f}', ' ', 'é', '世', '😀',
                    '\u{7f}',
                ];
                (0..pick(rng, 8))
                    .map(|_| alphabet[pick(rng, alphabet.len() as u64) as usize])
                    .collect()
            };
            let kinds = if self.depth == 0 { 4 } else { 6 };
            match pick(rng, kinds) {
                0 => Json::Null,
                1 => Json::Bool(pick(rng, 2) == 1),
                2 => Json::Num(match pick(rng, 8) {
                    0 => -0.0,
                    1 => f64::from_bits(pick(rng, 1 << 52)), // subnormal
                    2 => (pick(rng, (1 << 53) + 1)) as f64,
                    3 => -((pick(rng, (1 << 53) + 1)) as f64),
                    4 => f64::MAX,
                    5 => f64::MIN_POSITIVE,
                    _ => {
                        let x = f64::from_bits(rng.next_u64());
                        if x.is_finite() {
                            x
                        } else {
                            0.1
                        }
                    }
                }),
                3 => Json::Str(string(rng)),
                4 => {
                    let inner = Values {
                        depth: self.depth - 1,
                    };
                    Json::Arr((0..pick(rng, 4)).map(|_| inner.generate(rng)).collect())
                }
                _ => {
                    let inner = Values {
                        depth: self.depth - 1,
                    };
                    Json::Obj(
                        (0..pick(rng, 4))
                            .map(|_| (string(rng), inner.generate(rng)))
                            .collect(),
                    )
                }
            }
        }
    }

    /// Bit-level equality: `PartialEq` would let `-0.0` pass for `0.0`.
    fn same(a: &Json, b: &Json) -> bool {
        match (a, b) {
            (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
            (Json::Arr(x), Json::Arr(y)) => {
                x.len() == y.len() && x.iter().zip(y).all(|(x, y)| same(x, y))
            }
            (Json::Obj(x), Json::Obj(y)) => {
                x.len() == y.len()
                    && x.iter()
                        .zip(y)
                        .all(|((kx, x), (ky, y))| kx == ky && same(x, y))
            }
            _ => a == b,
        }
    }

    fn depth_of(v: &Json) -> usize {
        match v {
            Json::Arr(items) => 1 + items.iter().map(depth_of).max().unwrap_or(0),
            Json::Obj(members) => 1 + members.iter().map(|(_, v)| depth_of(v)).max().unwrap_or(0),
            _ => 0,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn both_forms_parse_back_to_the_same_bits(v in Values { depth: 4 }) {
            let compact = v.to_string();
            prop_assert!(!compact.contains('\n'), "{compact:?}");
            let back = Json::parse(&compact);
            prop_assert!(back.as_ref().is_ok_and(|b| same(b, &v)), "{compact} -> {back:?}");
            let pretty = v.pretty();
            let back = Json::parse(&pretty);
            prop_assert!(back.as_ref().is_ok_and(|b| same(b, &v)), "{pretty} -> {back:?}");
        }

        #[test]
        fn arbitrary_bytes_never_panic_nor_nest_past_the_bound(
            bytes in prop::collection::vec(any::<u8>(), 0..64),
            brackets in prop::collection::vec(0u8..6, 0..400),
        ) {
            // Raw bytes (lossily decoded: `parse` takes a `&str`), then a
            // soup of the bytes that drive the recursion.
            let soup: String = brackets.iter().map(|&b| ['[', ']', '{', '}', ',', '1'][b as usize]).collect();
            for text in [String::from_utf8_lossy(&bytes).into_owned(), soup] {
                if let Ok(v) = Json::parse(&text) {
                    prop_assert!(depth_of(&v) <= MAX_DEPTH);
                    prop_assert!(Json::parse(&v.to_string()).is_ok_and(|b| same(&b, &v)), "{text:?}");
                }
            }
        }
    }
}
