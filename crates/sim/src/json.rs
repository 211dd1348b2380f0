//! The one JSON reader for artifacts read back from disk.
//!
//! Telemetry JSONL records ([`crate::telemetry::parse_jsonl`]) and every
//! document `vapres diff` compares (sweep and fleet trajectories, cost
//! models) are read through [`parse`]. The writers are hand-rolled, so the
//! reader is strict: a corrupt artifact is a typed error, never a quietly
//! different value or a crash.
//!
//! * A number keeps its literal text. [`Json::as_u64`] reads an integer
//!   exactly (no `f64` round trip) and [`Json::as_f64`] rejects a value
//!   that overflows to infinity. `NaN` and `inf` tokens are rejected as
//!   non-finite.
//! * Bytes after the value are an error.
//! * Arrays and objects nest at most [`MAX_DEPTH`] deep, so the recursive
//!   descent runs on a bounded stack whatever the input.
//!
//! Object members stay an ordered list. A name may repeat (older fleet
//! trajectories repeat `partition_shard`); callers that need each name
//! once check with [`unique`].
//!
//! # Examples
//!
//! ```
//! use vapres_sim::json::parse;
//!
//! let v = parse(r#"{"value": 9007199254740993, "ok": true}"#)?;
//! assert_eq!(v.get("value").unwrap().as_u64()?, 9_007_199_254_740_993);
//! assert!(parse(r#"{"value": 1}{"junk"#).is_err());
//! assert!(parse(&"[".repeat(200_000)).is_err());
//! # Ok::<(), String>(())
//! ```

use std::collections::BTreeSet;

/// The deepest nesting of arrays and objects [`parse`] accepts. Every
/// artifact the simulator writes nests at most three deep.
pub const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its literal text.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: members in document order, repeats kept.
    Obj(Vec<(String, Json)>),
}

/// Parses `text` as exactly one JSON value (surrounding whitespace
/// allowed).
///
/// # Errors
///
/// A message naming what is wrong and, for syntax errors, the byte.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.value(0)?;
    if p.peek().is_some() {
        return Err(format!("trailing bytes at byte {}", p.pos));
    }
    Ok(value)
}

/// Rejects an object that names a member twice, naming the member.
///
/// # Errors
///
/// `repeated field "<name>"`.
pub fn unique(members: &[(String, Json)]) -> Result<(), String> {
    let mut seen = BTreeSet::new();
    match members.iter().find(|(k, _)| !seen.insert(k.as_str())) {
        Some((k, _)) => Err(format!("repeated field {k:?}")),
        None => Ok(()),
    }
}

impl Json {
    /// The first member named `key` of an object; `None` for anything
    /// else.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The members of an object.
    ///
    /// # Errors
    ///
    /// When the value is not an object.
    pub fn members(&self) -> Result<&[(String, Json)], String> {
        match self {
            Json::Obj(members) => Ok(members),
            other => Err(format!("expected an object, found {}", other.kind())),
        }
    }

    /// The items of an array.
    ///
    /// # Errors
    ///
    /// When the value is not an array.
    pub fn items(&self) -> Result<&[Json], String> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(format!("expected an array, found {}", other.kind())),
        }
    }

    /// The text of a string.
    ///
    /// # Errors
    ///
    /// When the value is not a string.
    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("expected a string, found {}", other.kind())),
        }
    }

    /// An unsigned integer, read exactly from the literal text.
    ///
    /// # Errors
    ///
    /// When the value is not a number written as an integer in `u64`.
    pub fn as_u64(&self) -> Result<u64, String> {
        match self {
            Json::Num(text) => text
                .parse()
                .map_err(|_| format!("expected an unsigned integer, found {text}")),
            other => Err(format!(
                "expected an unsigned integer, found {}",
                other.kind()
            )),
        }
    }

    /// A finite `f64`.
    ///
    /// # Errors
    ///
    /// When the value is not a number, or overflows to infinity.
    pub fn as_f64(&self) -> Result<f64, String> {
        match self {
            Json::Num(text) => match text.parse::<f64>() {
                Ok(v) if v.is_finite() => Ok(v),
                _ => Err(format!("non-finite value {text:?}")),
            },
            other => Err(format!("expected a number, found {}", other.kind())),
        }
    }

    /// What kind of value this is, for error messages.
    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "a boolean",
            Json::Num(_) => "a number",
            Json::Str(_) => "a string",
            Json::Arr(_) => "an array",
            Json::Obj(_) => "an object",
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    /// Skips JSON whitespace and returns the next byte, if any.
    fn peek(&mut self) -> Option<u8> {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    /// One value at nesting `depth` (the number of open containers).
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        match self.peek() {
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(c) if c == b'-' || c.is_ascii_alphanumeric() => self.word(),
            Some(c) => Err(format!("unexpected {:?} at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    /// A bare token: `true`, `false`, `null` or a number.
    fn word(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_alphanumeric() || matches!(b, b'+' | b'-' | b'.'))
        {
            self.pos += 1;
        }
        // Only ASCII bytes were consumed.
        let word = String::from_utf8_lossy(&self.bytes[start..self.pos]);
        match &*word {
            "true" => Ok(Json::Bool(true)),
            "false" => Ok(Json::Bool(false)),
            "null" => Ok(Json::Null),
            w if is_number(w.as_bytes()) => Ok(Json::Num(w.to_string())),
            w if w.parse::<f64>().is_ok_and(|v| !v.is_finite()) => {
                Err(format!("non-finite value {w:?}"))
            }
            w => Err(format!("bad token {w:?} at byte {start}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|&b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            // The run ends at an ASCII byte, so it is whole UTF-8.
            out.push_str(&String::from_utf8_lossy(&self.bytes[start..self.pos]));
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err("dangling escape".into());
                    };
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
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .ok_or("bad \\u escape")?;
                            self.pos += 4;
                            let code = hex.iter().fold(0, |acc, &h| {
                                acc * 16 + (h as char).to_digit(16).unwrap_or(0)
                            });
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                _ => return Err(format!("control byte {b:#04x} in string")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        while self.peek() != Some(b']') {
            if !out.is_empty() {
                self.expect(b',')?;
            }
            out.push(self.value(depth)?);
        }
        self.pos += 1;
        Ok(Json::Arr(out))
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut out = Vec::new();
        while self.peek() != Some(b'}') {
            if !out.is_empty() {
                self.expect(b',')?;
            }
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value(depth).map_err(|e| format!("field {key}: {e}"))?;
            out.push((key, value));
        }
        self.pos += 1;
        Ok(Json::Obj(out))
    }
}

/// Whether `t` is a JSON number: `-?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?`.
fn is_number(t: &[u8]) -> bool {
    let digits = |i: &mut usize| {
        let start = *i;
        while t.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
        }
        *i > start
    };
    let mut i = usize::from(t.first() == Some(&b'-'));
    if t.get(i) == Some(&b'0') {
        i += 1;
    } else if !digits(&mut i) {
        return false;
    }
    if t.get(i) == Some(&b'.') {
        i += 1;
        if !digits(&mut i) {
            return false;
        }
    }
    if matches!(t.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(t.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        if !digits(&mut i) {
            return false;
        }
    }
    i == t.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_every_value_kind() {
        let v = parse(" {\"a\": [1, -2.5e3, true, false, null], \"s\": \"x\\\"\\u00e9\\n\"} ")
            .expect("valid");
        let items = v.get("a").unwrap().items().unwrap();
        assert_eq!(items[0].as_u64(), Ok(1));
        assert_eq!(items[1].as_f64(), Ok(-2500.0));
        assert_eq!(
            &items[2..],
            &[Json::Bool(true), Json::Bool(false), Json::Null]
        );
        assert_eq!(v.get("s").unwrap().as_str(), Ok("x\"é\n"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn integers_read_exactly_and_non_integers_do_not() {
        let big = (1u64 << 53) + 1;
        assert_eq!(parse(&big.to_string()).unwrap().as_u64(), Ok(big));
        assert_eq!(
            parse("18446744073709551615").unwrap().as_u64(),
            Ok(u64::MAX)
        );
        for bad in ["7.9", "1e300", "-1", "18446744073709551616", "1.0"] {
            let err = parse(bad).unwrap().as_u64().unwrap_err();
            assert!(err.contains("unsigned integer"), "{bad}: {err}");
        }
        assert!(parse("\"7\"").unwrap().as_u64().is_err());
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        for bad in ["1e999", "-1e999"] {
            let err = parse(bad).unwrap().as_f64().unwrap_err();
            assert!(err.contains("non-finite"), "{bad}: {err}");
        }
        for bad in ["NaN", "inf", "-inf", "infinity"] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains("non-finite"), "{bad}: {err}");
        }
        let err = parse("{\"p99\": NaN}").unwrap_err();
        assert!(err.contains("field p99: non-finite"), "{err}");
    }

    #[test]
    fn malformed_text_is_rejected() {
        for bad in [
            "",
            "{\"value\":1}{\"junk",
            "{\"value\":1} x",
            "[1,]",
            "{\"a\":1,}",
            "{a:1}",
            "01",
            "+1",
            ".5",
            "1.",
            "tru",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\u+abc\"",
            "\"a\tb\"",
            "\"open",
            "[1 2]",
            "\u{c}1",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&deep).unwrap_err().contains("nesting deeper"));
        let err = parse(&format!("{{\"labels\":{}", "[".repeat(200_000))).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
    }

    #[test]
    fn repeated_members_are_kept_in_order_and_unique_names_them() {
        let v = parse("{\"p\": 1, \"q\": 2, \"p\": 3}").unwrap();
        let members = v.members().unwrap();
        assert_eq!(members.len(), 3);
        assert_eq!(v.get("p").unwrap().as_u64(), Ok(1));
        assert_eq!(unique(members), Err("repeated field \"p\"".into()));
        assert_eq!(unique(&members[..2]), Ok(()));
    }
}
