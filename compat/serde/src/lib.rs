//! Offline stand-in for the subset of `serde` this workspace uses.
//!
//! The build environment has no registry access, so instead of the real
//! serde (trait + visitor machinery + proc-macro stack) the workspace
//! vendors a much smaller model with one path each way:
//!
//! - **Writing** goes straight to text. [`Serialize::write_json`] appends
//!   a type's compact JSON to an output `String`: no intermediate tree,
//!   no per-key allocation. Integers are formatted from a stack buffer,
//!   floats through `fmt::Write` (shortest round-trip; non-finite values
//!   become `null`), strings with a fast path for text that needs no
//!   escaping.
//! - **Reading** goes through [`Value`], a JSON-shaped tree that
//!   `serde_json` parses text into and [`Deserialize::from_value`] reads
//!   typed data out of.
//!
//! [`Value`] is itself a type that serializes like any other; the few
//! cold paths that need a tree of a `Serialize` type (pretty-printing,
//! embedding an opaque object) read the compact text back with
//! `serde_json`. `#[derive(Serialize, Deserialize)]` is provided by the
//! sibling `serde_derive` proc-macro (enabled by the `derive` feature,
//! like upstream).
//!
//! The wire format is self-consistent (everything the workspace writes it
//! can read back) but intentionally *not* byte-compatible with upstream
//! serde_json: maps of any key type are `[key, value]` pair arrays.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, HashMap};
use std::fmt::{self, Write as _};
use std::hash::{BuildHasher, Hash};

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// The JSON-shaped tree that decoding reads from.
///
/// Integers keep their signedness ([`Value::Int`] / [`Value::UInt`]) so
/// `u64::MAX` survives a round trip exactly; floats are stored as `f64`
/// and written with Rust's shortest-round-trip formatting, so they also
/// survive exactly.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Unsigned integer.
    UInt(u64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object, as insertion-ordered key/value pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The object's pairs, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(f) => Some(f),
            _ => None,
        }
    }

    /// The array's elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Field lookup by name on an object value.
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.as_object()
            .and_then(|f| f.iter().find(|(k, _)| k == name))
            .map(|(_, v)| v)
    }
}

/// Deserialization error: a human-readable path/expectation mismatch.
#[derive(Clone, Debug)]
pub struct DeError(String);

impl DeError {
    /// Build an error from any displayable message.
    pub fn msg(m: impl fmt::Display) -> Self {
        DeError(m.to_string())
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deserialization error: {}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Writing a value as compact JSON text.
pub trait Serialize {
    /// Append `self` as compact JSON to `out`.
    fn write_json(&self, out: &mut String);
}

/// Reading a value back from the [`Value`] tree.
pub trait Deserialize: Sized {
    /// Rebuild `Self` from a value tree.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

// ---------------------------------------------------------------------------
// Text writers shared by the impls below
// ---------------------------------------------------------------------------

/// Append `n` in decimal.
fn write_u64(n: u64, out: &mut String) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    let mut n = n;
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    for &b in &buf[i..] {
        out.push(b as char);
    }
}

/// Append `n` in decimal, with a leading `-` when negative.
fn write_i64(n: i64, out: &mut String) {
    if n < 0 {
        out.push('-');
    }
    write_u64(n.unsigned_abs(), out);
}

/// Append `f` as the shortest decimal that parses back to the same bits
/// (`f64`'s `Display`), or `null` when it is not finite: JSON has no
/// representation for NaN or the infinities.
fn write_f64(f: f64, out: &mut String) {
    if f.is_finite() {
        write!(out, "{f}").expect("writing to a String cannot fail");
    } else {
        out.push_str("null");
    }
}

/// Append `s` as a quoted JSON string. Quote, backslash, `\n`, `\r` and
/// `\t` get their short escapes, other control characters `\u00XX`;
/// everything else, non-ASCII included, is copied as is. Text with
/// nothing to escape is copied in one piece.
fn write_str(s: &str, out: &mut String) {
    out.push('"');
    let bytes = s.as_bytes();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        // Every escaped byte is ASCII, so `start..i` ends on a char
        // boundary.
        out.push_str(&s[start..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push_str("\\u00");
                out.push(HEX[(b >> 4) as usize] as char);
                out.push(HEX[(b & 0xf) as usize] as char);
            }
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// Append `items` as a JSON array.
fn write_seq<'a, T: Serialize + 'a>(items: impl IntoIterator<Item = &'a T>, out: &mut String) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write_json(out);
    }
    out.push(']');
}

/// Append map entries as an array of `[key, value]` pairs, so keys of
/// any type (e.g. `Link`) work without a string-key convention.
fn write_pairs<'a, K: Serialize + 'a, V: Serialize + 'a>(
    entries: impl IntoIterator<Item = (&'a K, &'a V)>,
    out: &mut String,
) {
    out.push('[');
    for (i, (k, v)) in entries.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        k.write_json(out);
        out.push(',');
        v.write_json(out);
        out.push(']');
    }
    out.push(']');
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

impl Serialize for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::msg(format!("expected bool, got {other:?}"))),
        }
    }
}

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut String) {
                write_u64(*self as u64, out);
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n = match v {
                    Value::UInt(n) => *n,
                    Value::Int(n) if *n >= 0 => *n as u64,
                    other => {
                        return Err(DeError::msg(format!(
                            "expected unsigned integer, got {other:?}"
                        )))
                    }
                };
                <$t>::try_from(n)
                    .map_err(|_| DeError::msg(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut String) {
                write_i64(*self as i64, out);
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n = match v {
                    Value::Int(n) => *n,
                    Value::UInt(n) => i64::try_from(*n)
                        .map_err(|_| DeError::msg(format!("{n} out of i64 range")))?,
                    other => {
                        return Err(DeError::msg(format!(
                            "expected integer, got {other:?}"
                        )))
                    }
                };
                <$t>::try_from(n)
                    .map_err(|_| DeError::msg(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_uint!(u8, u16, u32, u64, usize);
impl_int!(i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut String) {
                // `f32` widens to `f64` first, so it prints the digits of
                // the exact widened value.
                write_f64(*self as f64, out);
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Float(f) => Ok(*f as $t),
                    Value::Int(n) => Ok(*n as $t),
                    Value::UInt(n) => Ok(*n as $t),
                    // JSON cannot carry non-finite floats; they are
                    // written as null and come back as NaN.
                    Value::Null => Ok(<$t>::NAN),
                    other => Err(DeError::msg(format!("expected number, got {other:?}"))),
                }
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for String {
    fn write_json(&self, out: &mut String) {
        write_str(self, out);
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::msg(format!("expected string, got {other:?}"))),
        }
    }
}

impl Serialize for str {
    fn write_json(&self, out: &mut String) {
        write_str(self, out);
    }
}

impl Serialize for char {
    fn write_json(&self, out: &mut String) {
        write_str(self.encode_utf8(&mut [0; 4]), out);
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let s = String::from_value(v)?;
        let mut it = s.chars();
        match (it.next(), it.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(DeError::msg(format!("expected single char, got {s:?}"))),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

// ---------------------------------------------------------------------------
// Containers
// ---------------------------------------------------------------------------

impl<T: Serialize> Serialize for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn write_json(&self, out: &mut String) {
        write_seq(self, out);
    }
}

impl<T: Serialize> Serialize for [T] {
    fn write_json(&self, out: &mut String) {
        write_seq(self, out);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_array()
            .ok_or_else(|| DeError::msg(format!("expected array, got {v:?}")))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

// Shared slices serialize like the sequences they deref to (upstream
// serde's `rc` feature). Hot-path packet payloads use `Arc<[T]>` so a
// fan-out clone is a refcount bump, not an allocation.
impl<T: Serialize> Serialize for std::sync::Arc<[T]> {
    fn write_json(&self, out: &mut String) {
        write_seq(self.iter(), out);
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<[T]> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Vec::<T>::from_value(v).map(Into::into)
    }
}

macro_rules! impl_tuple {
    ($(($first:ident : $first_idx:tt $(, $name:ident : $idx:tt)*))*) => {$(
        impl<$first: Serialize $(, $name: Serialize)*> Serialize for ($first, $($name,)*) {
            fn write_json(&self, out: &mut String) {
                out.push('[');
                self.$first_idx.write_json(out);
                $(
                    out.push(',');
                    self.$idx.write_json(out);
                )*
                out.push(']');
            }
        }
        impl<$first: Deserialize $(, $name: Deserialize)*> Deserialize for ($first, $($name,)*) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let a = v
                    .as_array()
                    .ok_or_else(|| DeError::msg(format!("expected tuple array, got {v:?}")))?;
                let expect = [$first_idx $(, $idx)*].len();
                if a.len() != expect {
                    return Err(DeError::msg(format!(
                        "expected {expect}-tuple, got {} elements",
                        a.len()
                    )));
                }
                Ok(($first::from_value(&a[$first_idx])?, $($name::from_value(&a[$idx])?,)*))
            }
        }
    )*};
}

impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

impl<K: Serialize, V: Serialize, S: BuildHasher> Serialize for HashMap<K, V, S> {
    fn write_json(&self, out: &mut String) {
        write_pairs(self, out);
    }
}

impl<K, V, S> Deserialize for HashMap<K, V, S>
where
    K: Deserialize + Eq + Hash,
    V: Deserialize,
    S: BuildHasher + Default,
{
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let pairs = v
            .as_array()
            .ok_or_else(|| DeError::msg(format!("expected map pair array, got {v:?}")))?;
        let mut map = HashMap::with_capacity_and_hasher(pairs.len(), S::default());
        for p in pairs {
            let (k, v) = <(K, V)>::from_value(p)?;
            map.insert(k, v);
        }
        Ok(map)
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn write_json(&self, out: &mut String) {
        write_pairs(self, out);
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let pairs = v
            .as_array()
            .ok_or_else(|| DeError::msg(format!("expected map pair array, got {v:?}")))?;
        let mut map = BTreeMap::new();
        for p in pairs {
            let (k, v) = <(K, V)>::from_value(p)?;
            map.insert(k, v);
        }
        Ok(map)
    }
}

impl Serialize for Value {
    fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => b.write_json(out),
            Value::Int(n) => write_i64(*n, out),
            Value::UInt(n) => write_u64(*n, out),
            Value::Float(f) => write_f64(*f, out),
            Value::Str(s) => write_str(s, out),
            Value::Array(items) => write_seq(items, out),
            Value::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write_json(out);
                }
                out.push('}');
            }
        }
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}
