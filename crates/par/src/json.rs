//! Minimal JSON value builder and emitter.
//!
//! The workspace emits machine-readable artifacts (`BENCH_sim.json`,
//! report exports) but must build offline without `serde`. This module is
//! the small honest subset we actually need: building a [`Json`] tree and
//! rendering it; numbers render with enough precision to round-trip `f64`.

use std::fmt::Write as _;

use sudc_errors::SudcError;

/// Largest integer (2^53) that `f64` represents exactly; counters above
/// this cannot round-trip through a JSON number without losing precision.
pub const MAX_EXACT_JSON_INT: u64 = 1 << 53;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values render as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Creates an empty object.
    #[must_use]
    pub fn object() -> Self {
        Self::Obj(Vec::new())
    }

    /// Adds or replaces a key on an object, builder-style.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object (see [`Json::try_with`]).
    #[must_use]
    pub fn with(self, key: &str, value: impl Into<Json>) -> Self {
        match self.try_with(key, value) {
            Ok(obj) => obj,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`Json::with`].
    ///
    /// # Errors
    ///
    /// Returns a structured error if `self` is not an object.
    pub fn try_with(mut self, key: &str, value: impl Into<Json>) -> Result<Self, SudcError> {
        let Self::Obj(entries) = &mut self else {
            return Err(SudcError::single(
                "Json::with",
                "self",
                format!("{self:?}"),
                "an object receiver (non-object values cannot take keys)",
            ));
        };
        let value = value.into();
        if let Some(slot) = entries.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            entries.push((key.to_string(), value));
        }
        Ok(self)
    }

    /// Renders compact JSON.
    #[must_use]
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, None, 0);
        out
    }

    /// Renders pretty-printed JSON with two-space indentation.
    #[must_use]
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, Some(2), 0);
        out
    }

    fn render(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Self::Null => out.push_str("null"),
            Self::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Self::Num(n) => {
                if n.is_finite() {
                    // Shortest representation that round-trips an f64.
                    let _ = write!(out, "{n}");
                    // `{}` on a whole f64 prints no decimal point; that is
                    // still valid JSON, so leave it.
                } else {
                    out.push_str("null");
                }
            }
            Self::Str(s) => escape_into(out, s),
            Self::Arr(items) => {
                render_seq(out, indent, depth, items.len(), '[', ']', |out, i| {
                    items[i].render(out, indent, depth + 1);
                });
            }
            Self::Obj(entries) => {
                render_seq(out, indent, depth, entries.len(), '{', '}', |out, i| {
                    let (k, v) = &entries[i];
                    escape_into(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.render(out, indent, depth + 1);
                });
            }
        }
    }
}

fn render_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    len: usize,
    open: char,
    close: char,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
    out.push(close);
}

fn escape_into(out: &mut String, s: &str) {
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

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Self::Num(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Self::Num(f64::from(v))
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        // f64 represents integers exactly up to 2^53 — far beyond any
        // count this workspace produces.
        Self::Num(v as f64)
    }
}
impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Self::Bool(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Self::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Self::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Self::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl TryFrom<u64> for Json {
    type Error = SudcError;

    /// Checked integer conversion: counters above 2^53
    /// ([`MAX_EXACT_JSON_INT`]) would silently lose precision through the
    /// `f64` JSON number representation, so they error instead.
    fn try_from(v: u64) -> Result<Self, SudcError> {
        if v <= MAX_EXACT_JSON_INT {
            #[allow(clippy::cast_precision_loss)] // exact below 2^53, checked above
            Ok(Self::Num(v as f64))
        } else {
            Err(SudcError::single(
                "Json counter",
                "u64",
                v,
                format!("at most 2^53 = {MAX_EXACT_JSON_INT} (exactly representable as f64)"),
            ))
        }
    }
}

/// Types that can render themselves as a [`Json`] value (the workspace's
/// offline stand-in for `serde::Serialize`).
pub trait ToJson {
    /// Builds the JSON representation.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_object_renders_in_insertion_order() {
        let j = Json::object()
            .with("b", 2.0)
            .with("a", Json::Arr(vec![Json::Num(1.0), Json::Null]));
        assert_eq!(j.to_string_compact(), r#"{"b":2,"a":[1,null]}"#);
    }

    #[test]
    fn with_replaces_existing_keys() {
        let j = Json::object().with("x", 1.0).with("x", 2.0);
        assert_eq!(j.to_string_compact(), r#"{"x":2}"#);
    }

    #[test]
    fn strings_are_escaped() {
        let j = Json::Str("a\"b\\c\nd\u{1}".to_string());
        assert_eq!(j.to_string_compact(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn floats_round_trip_their_value() {
        let j = Json::Num(123.5);
        assert_eq!(j.to_string_compact(), "123.5");
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
    }

    #[test]
    fn pretty_print_is_indented_and_parsable_shape() {
        let j = Json::object().with("k", Json::from(vec![1.0, 2.0]));
        let s = j.to_string_pretty();
        assert!(s.contains("\n  \"k\": [\n"));
        assert!(s.ends_with('}'));
    }

    #[test]
    #[should_panic(expected = "non-object")]
    fn with_on_array_panics() {
        let _ = Json::Arr(vec![]).with("k", 1.0);
    }

    #[test]
    fn try_with_matches_with_on_objects_and_errors_elsewhere() {
        let ok = Json::object().try_with("x", 1.0).unwrap();
        assert_eq!(ok, Json::object().with("x", 1.0));
        let err = Json::Num(1.0).try_with("k", 2.0).unwrap_err();
        assert!(err.to_string().contains("non-object"));
    }

    #[test]
    fn u64_conversion_is_exact_up_to_2_pow_53() {
        assert_eq!(Json::try_from(0u64).unwrap(), Json::Num(0.0));
        let max = Json::try_from(MAX_EXACT_JSON_INT).unwrap();
        assert_eq!(max.to_string_compact(), "9007199254740992");
        let err = Json::try_from(MAX_EXACT_JSON_INT + 1).unwrap_err();
        assert!(err.to_string().contains("9007199254740993"), "{err}");
        assert!(Json::try_from(u64::MAX).is_err());
    }
}
