//! A minimal JSON reader and writer helpers.
//!
//! The workspace is offline (the vendored `serde` is a compile-surface stub
//! that does not serialize), so the exporters hand-render JSON and this
//! module provides the recursive-descent parser the schema validator and
//! tests use to read it back. It supports the full JSON grammar, including
//! `\u` surrogate pairs (lone surrogates decode to U+FFFD, as lenient JSON
//! readers do).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (key order preserved by sorting — duplicate keys keep the
    /// last value, as most JSON readers do).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The value as an object map.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses one JSON document (trailing whitespace allowed, nothing else).
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error.
pub fn parse(src: &str) -> Result<Json, String> {
    let bytes = src.as_bytes();
    let mut p = Parser { src, bytes, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'s> {
    src: &'s str,
    bytes: &'s [u8],
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
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn keyword(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad keyword at byte {}", self.pos))
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number `{text}` at byte {start}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of unescaped bytes up to the next quote or
            // backslash as one slice. Both delimiters are ASCII, so the run
            // ends on a char boundary of the (already valid UTF-8) source.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - self.pos);
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    // The run stopped at a backslash: decode one escape.
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            out.push(self.unicode_escape(hi)?);
                        }
                        other => {
                            return Err(format!("bad escape `\\{}`", char::from(other)));
                        }
                    }
                }
            }
        }
    }

    /// Four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or("truncated \\u escape")?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape `{hex}`"))?;
        self.pos += 4;
        Ok(code)
    }

    /// Resolves the scalar of a `\u` escape whose first unit is `hi`:
    /// a high surrogate consumes the following `\uXXXX` low surrogate to
    /// form the astral scalar; lone surrogates become U+FFFD.
    fn unicode_escape(&mut self, hi: u32) -> Result<char, String> {
        if !(0xD800..=0xDBFF).contains(&hi) {
            // BMP scalar, or a lone low surrogate (→ U+FFFD).
            return Ok(char::from_u32(hi).unwrap_or('\u{fffd}'));
        }
        if self.bytes.get(self.pos) != Some(&b'\\') || self.bytes.get(self.pos + 1) != Some(&b'u') {
            return Ok('\u{fffd}');
        }
        let save = self.pos;
        self.pos += 2;
        let lo = self.hex4()?;
        if (0xDC00..=0xDFFF).contains(&lo) {
            let code = 0x1_0000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
            Ok(char::from_u32(code).unwrap_or('\u{fffd}'))
        } else {
            // The next escape is not the matching half: the high surrogate
            // is lone; leave the escape for the main loop to re-read.
            self.pos = save;
            Ok('\u{fffd}')
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

/// Appends a JSON string literal (with escaping) to `out`.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

/// Appends `v` as a valid JSON number (non-finite values render as 0).
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 1e15 {
            let _ = write!(out, "{}", v as i64);
        } else {
            let _ = write!(out, "{v:.6}");
        }
    } else {
        out.push('0');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\n\"y\""}, "t": true, "n": null}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_num(),
            Some(-300.0)
        );
        assert_eq!(
            v.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\n\"y\"")
        );
        assert_eq!(v.get("t"), Some(&Json::Bool(true)));
        assert_eq!(v.get("n"), Some(&Json::Null));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} x").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn write_roundtrips_through_parse() {
        let mut s = String::new();
        write_str(&mut s, "a\"b\\c\nd\u{1}");
        let back = parse(&s).unwrap();
        assert_eq!(back.as_str(), Some("a\"b\\c\nd\u{1}"));

        let mut n = String::new();
        write_f64(&mut n, 2.5);
        assert_eq!(parse(&n).unwrap().as_num(), Some(2.5));
        let mut n2 = String::new();
        write_f64(&mut n2, f64::NAN);
        assert_eq!(parse(&n2).unwrap().as_num(), Some(0.0));
        let mut n3 = String::new();
        write_f64(&mut n3, 42.0);
        assert_eq!(n3, "42");
    }

    #[test]
    fn surrogate_pairs_decode_to_astral_scalars() {
        // U+1F600 = D83D DE00.
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap().as_str(),
            Some("\u{1F600}")
        );
        // U+10437 = D801 DC37, in the middle of other content.
        assert_eq!(
            parse("\"a\\uD801\\uDC37b\"").unwrap().as_str(),
            Some("a\u{10437}b")
        );
        // Raw (unescaped) astral scalars pass straight through too.
        assert_eq!(parse("\"\u{1F600}\"").unwrap().as_str(), Some("\u{1F600}"));
    }

    #[test]
    fn lone_surrogates_decode_to_replacement() {
        // Lone high surrogate at end of string.
        assert_eq!(parse(r#""\ud83dx""#).unwrap().as_str(), Some("\u{fffd}x"));
        // Lone low surrogate.
        assert_eq!(parse(r#""\ude00""#).unwrap().as_str(), Some("\u{fffd}"));
        // High surrogate followed by a non-surrogate escape: the second
        // escape still decodes on its own.
        assert_eq!(parse(r#""\ud83dA""#).unwrap().as_str(), Some("\u{fffd}A"));
        // Truncated pair is still a syntax error.
        assert!(parse(r#""\ud83d\u12""#).is_err());
    }

    /// One SplitMix64 step: advances `x` and returns the next output.
    fn splitmix64(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `(seed, len)` for each of 64 cases: `seed` spans all of `u64`,
    /// `len` is drawn from `lens`.
    fn cases(lens: std::ops::Range<usize>) -> impl Iterator<Item = (u64, usize)> {
        let mut x = 0;
        (0..64).map(move |_| {
            let seed = splitmix64(&mut x);
            let len = lens.start + (splitmix64(&mut x) % lens.len() as u64) as usize;
            (seed, len)
        })
    }

    /// Deterministically expands a seed into a string mixing ASCII,
    /// control characters, BMP scalars, and astral scalars.
    fn seed_to_string(seed: u64, len: usize) -> String {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                let z = splitmix64(&mut x);
                match z % 4 {
                    0 => char::from_u32((z as u32) % 0x80).unwrap_or('a'),
                    1 => char::from_u32((z as u32) % 0x20).unwrap_or('\u{1}'),
                    2 => char::from_u32(0x1_0000 + (z as u32) % 0xF_0000).unwrap_or('\u{1F600}'),
                    _ => char::from_u32((z as u32) % 0xD800).unwrap_or('\u{fffd}'),
                }
            })
            .collect()
    }

    /// Renders `s` as a JSON string literal choosing, per character and
    /// from `seed`, among every encoding JSON allows: the raw character
    /// where legal, its short escape (`\"`, `\\`, `\/`, `\b`, `\f`, `\n`,
    /// `\r`, `\t`), or a `\u` escape in either hex case, as a surrogate
    /// pair above the BMP.
    fn escape_randomly(s: &str, seed: u64) -> String {
        let mut x = seed;
        let mut out = String::from("\"");
        for ch in s.chars() {
            x = x
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(0x1405_7B7E_F767_814F);
            let pick = (x >> 33) % 3;
            let short = match ch {
                '"' => Some("\\\""),
                '\\' => Some("\\\\"),
                '/' => Some("\\/"),
                '\u{8}' => Some("\\b"),
                '\u{c}' => Some("\\f"),
                '\n' => Some("\\n"),
                '\r' => Some("\\r"),
                '\t' => Some("\\t"),
                _ => None,
            };
            let raw_ok = !matches!(ch, '"' | '\\') && (ch as u32) >= 0x20;
            match (pick, short) {
                (0, _) if raw_ok => out.push(ch),
                (1, Some(esc)) => out.push_str(esc),
                _ => {
                    let mut units = [0u16; 2];
                    for unit in ch.encode_utf16(&mut units) {
                        if (x >> 40) & 1 == 0 {
                            let _ = write!(out, "\\u{unit:04x}");
                        } else {
                            let _ = write!(out, "\\u{unit:04X}");
                        }
                    }
                }
            }
        }
        out.push('"');
        out
    }

    /// Seeded round trips over strings mixing ASCII, control characters,
    /// BMP and astral scalars: `write_str` output and every other legal
    /// encoding of the same text parse back to it exactly.
    #[test]
    fn every_encoding_round_trips() {
        for seed in 0..256u64 {
            let original = seed_to_string(seed, (seed as usize * 7) % 600);
            let mut rendered = String::new();
            write_str(&mut rendered, &original);
            assert_eq!(parse(&rendered).unwrap().as_str(), Some(original.as_str()));
            let escaped = escape_randomly(&original, seed);
            assert_eq!(
                parse(&escaped).unwrap().as_str(),
                Some(original.as_str()),
                "seed {seed}: {escaped}"
            );
        }
    }

    /// String parsing is linear: a body at the server's 4 MiB limit, made
    /// of multi-byte characters and escapes, parses well within a second.
    #[test]
    fn four_mib_string_parses_quickly() {
        let unit = "ab\u{e9}\u{20ac}\u{1F600}\\n\\\"";
        let mut body = String::from("{\"s\": \"");
        while body.len() < 4 << 20 {
            body.push_str(unit);
        }
        body.push_str("\"}");
        let start = std::time::Instant::now();
        let doc = parse(&body).unwrap();
        let elapsed = start.elapsed();
        let s = doc.get("s").and_then(Json::as_str).unwrap();
        assert!(s.starts_with("ab\u{e9}\u{20ac}\u{1F600}\n\""));
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "4 MiB string took {elapsed:?}"
        );
    }

    /// write_str output always parses back to the exact input, covering
    /// control characters and astral scalars.
    #[test]
    fn write_str_round_trips() {
        for (seed, len) in cases(0..64) {
            let original = seed_to_string(seed, len);
            let mut rendered = String::new();
            write_str(&mut rendered, &original);
            let back = parse(&rendered).expect("rendered string parses");
            assert_eq!(back.as_str(), Some(original.as_str()), "seed {seed}");
        }
    }

    /// Escaped-at-the-source round-trip: rendering a parsed document again
    /// yields the same value (write → parse → write fixpoint).
    #[test]
    fn write_parse_write_is_fixpoint() {
        for (seed, len) in cases(1..48) {
            let original = seed_to_string(seed, len);
            let mut first = String::new();
            write_str(&mut first, &original);
            let parsed = parse(&first).expect("parses");
            let mut second = String::new();
            write_str(&mut second, parsed.as_str().expect("string"));
            assert_eq!(first, second, "seed {seed}");
        }
    }
}
