//! Offline stand-in for the subset of `serde_json` this workspace uses:
//! [`to_string`], [`to_string_pretty`], [`to_value`] and [`from_str`]
//! over the vendored `serde`.
//!
//! [`to_string`] is the one serialization path: it hands an output
//! buffer to [`Serialize::write_json`], which writes compact text
//! directly. [`from_str`] parses text into the [`Value`] tree and reads
//! the target type out of it. [`to_string_pretty`] and [`to_value`] are
//! built from those two: they parse the compact text back into a tree,
//! which is cheap enough for reports and recordings and keeps a single
//! writer per type.
//!
//! Numbers are written losslessly: integers keep full 64-bit precision and
//! floats use Rust's shortest-round-trip formatting, so
//! `from_str(&to_string(x))` reproduces every finite float exactly (`-0`
//! included). Non-finite floats serialize as `null` (JSON has no
//! representation) and deserialize back as NaN. Maps with non-string keys
//! are arrays of `[key, value]` pairs (see the `serde` stand-in's docs).

#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize};
use std::fmt;

pub use serde::Value as JsonValue;

/// The value tree, under the name real `serde_json` exports it as.
pub use serde::Value;

/// Serialization or parse error.
#[derive(Clone, Debug)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Self {
        Error(e.to_string())
    }
}

/// Serialize `value` to compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.write_json(&mut out);
    Ok(out)
}

/// Serialize `value` to 2-space-indented JSON text.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_pretty(&to_value(value)?, &mut out, 0);
    Ok(out)
}

/// Serialize `value` into a [`Value`] tree, by reading its compact text
/// back.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    parse(&to_string(value)?)
}

/// Parse JSON text into any deserializable type.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    Ok(T::from_value(&parse(s)?)?)
}

/// Parse one JSON document into a tree.
fn parse(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// Pretty writing
// ---------------------------------------------------------------------------

fn newline_indent(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..2 * depth {
        out.push(' ');
    }
}

/// Write `v` with each array element and object entry on its own line,
/// indented two spaces per level; scalars are written as in compact text.
fn write_pretty(v: &Value, out: &mut String, depth: usize) {
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, depth + 1);
                write_pretty(item, out, depth + 1);
            }
            newline_indent(out, depth);
            out.push(']');
        }
        Value::Object(fields) if !fields.is_empty() => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, depth + 1);
                k.write_json(out);
                out.push_str(": ");
                write_pretty(item, out, depth + 1);
            }
            newline_indent(out, depth);
            out.push('}');
        }
        scalar_or_empty => scalar_or_empty.write_json(out),
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            other => Err(Error(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error(format!("expected ',' or ']' at byte {}", self.pos))),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(Error(format!("expected ',' or '}}' at byte {}", self.pos))),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error("invalid UTF-8 in string".into()))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error("unterminated escape".into()))?;
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
                            let hi = self.parse_hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if self.eat_literal("\\u") {
                                    let lo = self.parse_hex4()?;
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    0xFFFD
                                }
                            } else {
                                hi
                            };
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => return Err(Error(format!("bad escape '\\{}'", other as char))),
                    }
                }
                _ => return Err(Error("unterminated string".into())),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(Error("truncated \\u escape".into()));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| Error("bad \\u escape".into()))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| Error("bad \\u escape".into()))?;
        self.pos = end;
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("bad number".into()))?;
        if !is_float {
            if text.starts_with('-') {
                // `-0` is the float negative zero (no integer writes it),
                // as upstream parses it.
                match text.parse::<i64>() {
                    Ok(0) => return Ok(Value::Float(-0.0)),
                    Ok(n) => return Ok(Value::Int(n)),
                    Err(_) => {}
                }
            } else if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error(format!("bad number {text:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        assert_eq!(
            from_str::<u64>(&to_string(&u64::MAX).unwrap()).unwrap(),
            u64::MAX
        );
        assert_eq!(from_str::<i64>(&to_string(&-42i64).unwrap()).unwrap(), -42);
        let f = std::f64::consts::PI / 25.5;
        assert_eq!(from_str::<f64>(&to_string(&f).unwrap()).unwrap(), f);
        assert!(from_str::<f64>(&to_string(&f64::NAN).unwrap())
            .unwrap()
            .is_nan());
        let s = "a \"quoted\" line\nwith\ttabs and \u{1F600}".to_string();
        assert_eq!(from_str::<String>(&to_string(&s).unwrap()).unwrap(), s);
    }

    #[test]
    fn containers_round_trip() {
        let v: Vec<Option<(u32, String)>> =
            vec![Some((1, "one".into())), None, Some((2, "two".into()))];
        let json = to_string(&v).unwrap();
        assert_eq!(from_str::<Vec<Option<(u32, String)>>>(&json).unwrap(), v);

        let mut m = std::collections::HashMap::new();
        m.insert((1u32, 2u32), 0.5f64);
        m.insert((3, 4), 1.5);
        let json = to_string_pretty(&m).unwrap();
        let back: std::collections::HashMap<(u32, u32), f64> = from_str(&json).unwrap();
        assert_eq!(back, m);
    }

    #[derive(Serialize)]
    struct Point {
        x: i32,
        label: Option<String>,
    }

    #[derive(Serialize)]
    struct Unit;

    #[derive(Serialize)]
    struct Empty {}

    #[derive(Serialize)]
    struct Meters(f64);

    #[derive(Serialize)]
    enum Shape {
        Nothing,
        Radius(f64),
        Pair(u8, String),
        Rect { w: u32, h: Option<u32> },
    }

    fn compact<T: Serialize + ?Sized>(v: &T) -> String {
        to_string(v).unwrap()
    }

    #[test]
    fn writes_escapes_and_control_characters() {
        assert_eq!(compact("plain"), r#""plain""#);
        assert_eq!(compact("a\"b\\c/d"), r#""a\"b\\c/d""#);
        assert_eq!(compact("\n\r\t"), r#""\n\r\t""#);
        assert_eq!(
            compact("\u{0}\u{1}\u{8}\u{b}\u{c}\u{1f}"),
            r#""\u0000\u0001\u0008\u000b\u000c\u001f""#
        );
        // DEL and everything above U+001F pass through unescaped.
        assert_eq!(compact("\u{7f}é😀"), "\"\u{7f}é😀\"");
        assert_eq!(compact(&'"'), r#""\"""#);
        assert_eq!(compact(&String::new()), r#""""#);
    }

    #[test]
    fn writes_numbers_exactly() {
        assert_eq!(compact(&u64::MAX), "18446744073709551615");
        assert_eq!(compact(&i64::MIN), "-9223372036854775808");
        assert_eq!(compact(&i64::MAX), "9223372036854775807");
        assert_eq!(compact(&0u8), "0");
        assert_eq!(compact(&-7i8), "-7");
        assert_eq!(compact(&usize::MAX), usize::MAX.to_string());
        // f32 is widened to f64 before formatting.
        assert_eq!(compact(&0.1f32), "0.10000000149011612");
        assert_eq!(compact(&1.5f32), "1.5");
        assert_eq!(compact(&3.0f32), "3");
        assert_eq!(
            compact(&f32::MAX),
            "340282346638528860000000000000000000000"
        );
        assert_eq!(compact(&0.1f64), "0.1");
        assert_eq!(compact(&(0.1f64 + 0.2)), "0.30000000000000004");
        assert_eq!(compact(&-2.0f64), "-2");
        assert_eq!(compact(&-0.0f64), "-0");
        assert_eq!(compact(&1e21f64), "1000000000000000000000");
        assert_eq!(compact(&1e-7f64), "0.0000001");
        assert_eq!(
            compact(&f64::MIN_POSITIVE),
            format!("0.{}22250738585072014", "0".repeat(307))
        );
        assert_eq!(compact(&true), "true");
    }

    #[test]
    fn writes_non_finite_floats_as_null() {
        assert_eq!(compact(&f64::NAN), "null");
        assert_eq!(compact(&f64::INFINITY), "null");
        assert_eq!(compact(&f64::NEG_INFINITY), "null");
        assert_eq!(compact(&f32::NAN), "null");
        assert_eq!(compact(&vec![1.0, f64::NAN]), "[1,null]");
    }

    #[test]
    fn writes_empty_containers() {
        assert_eq!(compact(&Vec::<u8>::new()), "[]");
        assert_eq!(compact(&Vec::<Vec<u8>>::new()), "[]");
        assert_eq!(compact(&vec![Vec::<u8>::new()]), "[[]]");
        assert_eq!(compact(&std::collections::HashMap::<u32, u32>::new()), "[]");
        assert_eq!(compact(&Value::Object(Vec::new())), "{}");
        assert_eq!(compact(&Value::Array(Vec::new())), "[]");
        assert_eq!(compact(&Empty {}), "{}");
        assert_eq!(compact(&Unit), "null");
        assert_eq!(to_string_pretty(&Empty {}).unwrap(), "{}");
        assert_eq!(to_string_pretty(&Vec::<u8>::new()).unwrap(), "[]");
    }

    #[test]
    fn writes_structs_options_and_tuples() {
        let p = Point {
            x: -3,
            label: Some("a\tb".into()),
        };
        assert_eq!(compact(&p), r#"{"x":-3,"label":"a\tb"}"#);
        let p = Point { x: 0, label: None };
        assert_eq!(compact(&p), r#"{"x":0,"label":null}"#);
        assert_eq!(compact(&Meters(2.5)), "2.5");
        assert_eq!(compact(&(1u8, "a", 2.5f64)), r#"[1,"a",2.5]"#);
        assert_eq!(compact(&Some(Some(4u8))), "4");
        assert_eq!(compact(&None::<u8>), "null");
        let shared: std::sync::Arc<[u16]> = vec![1, 2].into();
        assert_eq!(compact(&shared), "[1,2]");
        assert_eq!(compact(&&[7u8][..]), "[7]");
    }

    #[test]
    fn writes_every_enum_variant_shape() {
        assert_eq!(compact(&Shape::Nothing), r#""Nothing""#);
        assert_eq!(compact(&Shape::Radius(0.5)), r#"{"Radius":0.5}"#);
        assert_eq!(
            compact(&Shape::Pair(9, "q\"".into())),
            r#"{"Pair":[9,"q\""]}"#
        );
        assert_eq!(
            compact(&Shape::Rect { w: 4, h: None }),
            r#"{"Rect":{"w":4,"h":null}}"#
        );
        assert_eq!(
            compact(&vec![Shape::Nothing, Shape::Radius(f64::NAN)]),
            r#"["Nothing",{"Radius":null}]"#
        );
    }

    #[test]
    fn writes_maps_as_key_value_pair_arrays() {
        let mut m = std::collections::BTreeMap::new();
        m.insert((1u32, 2u32), "a".to_string());
        m.insert((0, 5), "b".to_string());
        assert_eq!(compact(&m), r#"[[[0,5],"b"],[[1,2],"a"]]"#);
        let mut h = std::collections::HashMap::new();
        h.insert("k".to_string(), vec![1.25f64]);
        assert_eq!(compact(&h), r#"[["k",[1.25]]]"#);
    }

    #[test]
    fn writes_value_trees() {
        let v = Value::Object(vec![
            ("n".into(), Value::Null),
            ("b".into(), Value::Bool(false)),
            ("i".into(), Value::Int(-1)),
            ("u".into(), Value::UInt(2)),
            ("f".into(), Value::Float(0.5)),
            ("s".into(), Value::Str("\u{2}".into())),
            ("a\"".into(), Value::Array(vec![Value::Float(f64::NAN)])),
        ]);
        assert_eq!(
            compact(&v),
            r#"{"n":null,"b":false,"i":-1,"u":2,"f":0.5,"s":"\u0002","a\"":[null]}"#
        );
    }

    #[test]
    fn pretty_output_is_pinned() {
        let p = vec![
            Point { x: 1, label: None },
            Point {
                x: -2,
                label: Some("z".into()),
            },
        ];
        assert_eq!(
            to_string_pretty(&p).unwrap(),
            "[\n  {\n    \"x\": 1,\n    \"label\": null\n  },\n  {\n    \"x\": -2,\n    \"label\": \"z\"\n  }\n]"
        );
        assert_eq!(
            to_string_pretty(&(Shape::Nothing, vec![-0.0f64, 1e21, f64::NAN])).unwrap(),
            "[\n  \"Nothing\",\n  [\n    -0,\n    1000000000000000000000,\n    null\n  ]\n]"
        );
    }

    #[test]
    fn pretty_output_parses() {
        let v: Vec<Vec<u8>> = vec![vec![1, 2], vec![], vec![3]];
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains('\n'));
        assert_eq!(from_str::<Vec<Vec<u8>>>(&pretty).unwrap(), v);
    }
}
