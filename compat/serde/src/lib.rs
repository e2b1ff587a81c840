//! Offline stand-in for `serde` (see `compat/README.md`).
//!
//! Unlike real serde there is no `Serializer`/`Deserializer` abstraction:
//! [`Serialize`] renders straight into an owned JSON-shaped [`Value`] tree
//! and [`Deserialize`] reads back out of one. The derive macros (from the
//! sibling `serde_derive` stand-in) generate impls of these traits, and
//! the `serde_json` stand-in converts [`Value`] to and from text. The
//! scalars' JSON text comes from [`text`], which writers that skip the
//! tree call too.

#![warn(missing_docs)]

pub use serde_derive::{Deserialize, Serialize};

/// JSON text of the scalar values, appended to a `String`.
///
/// The one formatter: the `serde_json` stand-in writes every [`Value`]
/// scalar and object key through it, and writers that emit JSON without
/// building a [`Value`] first call the same functions, so both produce
/// the same bytes by construction.
pub mod text {
    /// Appends `n` in decimal.
    pub fn write_u64(out: &mut String, mut n: u64) {
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
    }

    /// Appends `n` in decimal.
    pub fn write_i64(out: &mut String, n: i64) {
        if n < 0 {
            out.push('-');
        }
        write_u64(out, n.unsigned_abs());
    }

    /// Appends `x` in Rust's shortest representation that parses back to
    /// the same bits (`{:?}`), which always has a `.` or an exponent, so
    /// floats stay distinguishable from integers. JSON has no NaN or
    /// infinity: those are written as `null`, as serde_json does.
    pub fn write_f64(out: &mut String, x: f64) {
        if x.is_finite() {
            use std::fmt::Write;
            write!(out, "{x:?}").expect("writing to a String cannot fail");
        } else {
            out.push_str("null");
        }
    }

    /// Appends `s` as a quoted JSON string: `"`, `\` and the control
    /// characters are escaped (`\n`, `\r`, `\t` by name, the rest as
    /// `\u00xx`); everything else is copied as is.
    pub fn write_str(out: &mut String, s: &str) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        out.push('"');
        let mut copied = 0;
        for (i, b) in s.bytes().enumerate() {
            let named = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            // Escaped bytes are ASCII, so `i` is a char boundary.
            out.push_str(&s[copied..i]);
            copied = i + 1;
            if named.is_empty() {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            } else {
                out.push_str(named);
            }
        }
        out.push_str(&s[copied..]);
        out.push('"');
    }
}

/// A JSON-shaped data tree.
///
/// Integers keep their exact 64-bit representation (separately from
/// floats) so that byte counts and token counts round-trip losslessly.
/// Objects preserve insertion order for deterministic output.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Non-negative integer.
    U64(u64),
    /// Negative integer.
    I64(i64),
    /// Floating-point number.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object, as ordered key/value pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up `key` in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Short type label used in error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::U64(_) | Value::I64(_) => "integer",
            Value::F64(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// A (de)serialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// Creates an error from any message.
    pub fn custom(msg: impl std::fmt::Display) -> Self {
        Error(msg.to_string())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Types that can render themselves into a [`Value`].
pub trait Serialize {
    /// Renders `self` as a data tree.
    fn to_value(&self) -> Value;
}

/// Types that can be reconstructed from a [`Value`].
pub trait Deserialize: Sized {
    /// Reads an instance out of `v`.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

fn wrong_type<T>(want: &str, got: &Value) -> Result<T, Error> {
    Err(Error::custom(format!(
        "expected {want}, got {}",
        got.kind()
    )))
}

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::U64(n) => <$t>::try_from(*n)
                        .map_err(|_| Error::custom("integer out of range")),
                    Value::I64(n) => <$t>::try_from(*n)
                        .map_err(|_| Error::custom("integer out of range")),
                    _ => wrong_type("integer", v),
                }
            }
        }
    )*};
}

impl_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let n = *self as i64;
                if n < 0 { Value::I64(n) } else { Value::U64(n as u64) }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::U64(n) => <$t>::try_from(*n)
                        .map_err(|_| Error::custom("integer out of range")),
                    Value::I64(n) => <$t>::try_from(*n)
                        .map_err(|_| Error::custom("integer out of range")),
                    _ => wrong_type("integer", v),
                }
            }
        }
    )*};
}

impl_int!(i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::F64(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::F64(x) => Ok(*x as $t),
                    Value::U64(n) => Ok(*n as $t),
                    Value::I64(n) => Ok(*n as $t),
                    _ => wrong_type("number", v),
                }
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => wrong_type("bool", v),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => wrong_type("string", v),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(xs) => xs.iter().map(T::from_value).collect(),
            _ => wrong_type("array", v),
        }
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(xs) if xs.len() == 2 => {
                Ok((A::from_value(&xs[0])?, B::from_value(&xs[1])?))
            }
            _ => wrong_type("2-element array", v),
        }
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_round_trip_exactly() {
        let big: u64 = u64::MAX - 3;
        assert_eq!(u64::from_value(&big.to_value()).unwrap(), big);
        let neg: i64 = -42;
        assert_eq!(i64::from_value(&neg.to_value()).unwrap(), neg);
        assert!(u32::from_value(&Value::U64(1 << 40)).is_err());
    }

    #[test]
    fn options_map_to_null() {
        let none: Option<u64> = None;
        assert_eq!(none.to_value(), Value::Null);
        assert_eq!(Option::<u64>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(
            Option::<u64>::from_value(&Value::U64(5)).unwrap(),
            Some(5u64)
        );
    }

    fn text_of(write: impl FnOnce(&mut String)) -> String {
        let mut out = String::new();
        write(&mut out);
        out
    }

    #[test]
    fn text_writes_scalars_as_display_and_debug_would() {
        for n in [0, 7, 10, 99, 1_000_000, u64::MAX] {
            assert_eq!(text_of(|o| text::write_u64(o, n)), n.to_string());
        }
        for n in [0, -1, 42, i64::MIN, i64::MAX] {
            assert_eq!(text_of(|o| text::write_i64(o, n)), n.to_string());
        }
        for x in [0.0, -0.0, 1.0, 0.1, 1.0 / 3.0, 1e21, 5e-324, -2.5e-7] {
            assert_eq!(text_of(|o| text::write_f64(o, x)), format!("{x:?}"));
        }
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(text_of(|o| text::write_f64(o, x)), "null");
        }
    }

    #[test]
    fn text_escapes_quotes_backslashes_and_control_characters() {
        assert_eq!(
            text_of(|o| text::write_str(o, "a\"b\\c\nd\re\tf\u{1}g\u{1f}h\u{7f}é")),
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\\u001fh\u{7f}é\""
        );
        assert_eq!(text_of(|o| text::write_str(o, "")), "\"\"");
    }

    #[test]
    fn object_get_finds_keys() {
        let v = Value::Object(vec![("a".into(), Value::U64(1))]);
        assert_eq!(v.get("a"), Some(&Value::U64(1)));
        assert_eq!(v.get("b"), None);
    }
}
