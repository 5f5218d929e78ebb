//! A minimal JSON value and serializer.
//!
//! The workspace builds fully offline with zero external dependencies, so
//! instead of `serde_json` the load generator hand-rolls the tiny subset
//! of JSON it emits: objects, arrays, strings, booleans and numbers,
//! pretty printed deterministically (insertion order preserved) so diffs
//! between load reports stay readable.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    /// Integers get their own variant so counters serialize without a
    /// floating-point detour (`12345`, never `12345.0`).
    Int(u64),
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key/value pairs in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object builder seeded empty; chain [`Json::field`].
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends a field to an object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("field() on non-object {other:?}"),
        }
        self
    }

    fn write(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Float(x) => {
                // JSON has no NaN/Inf; the generator never produces them, but
                // degrade to null rather than emit invalid output.
                if x.is_finite() {
                    write!(f, "{x}")
                } else {
                    write!(f, "null")
                }
            }
            Json::Str(s) => {
                write!(f, "\"")?;
                for ch in s.chars() {
                    match ch {
                        '"' => write!(f, "\\\"")?,
                        '\\' => write!(f, "\\\\")?,
                        '\n' => write!(f, "\\n")?,
                        '\t' => write!(f, "\\t")?,
                        '\r' => write!(f, "\\r")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => write!(f, "{c}")?,
                    }
                }
                write!(f, "\"")
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    return write!(f, "[]");
                }
                writeln!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    write!(f, "{pad}  ")?;
                    item.write(f, indent + 1)?;
                    writeln!(f, "{}", if i + 1 < items.len() { "," } else { "" })?;
                }
                write!(f, "{pad}]")
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    return write!(f, "{{}}");
                }
                writeln!(f, "{{")?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    write!(f, "{pad}  ")?;
                    Json::Str(key.clone()).write(f, indent + 1)?;
                    write!(f, ": ")?;
                    value.write(f, indent + 1)?;
                    writeln!(f, "{}", if i + 1 < fields.len() { "," } else { "" })?;
                }
                write!(f, "{pad}}}")
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Int(n)
    }
}
impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Int(n as u64)
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Float(x)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Int(42).to_string(), "42");
        assert_eq!(Json::Float(1.5).to_string(), "1.5");
        assert_eq!(Json::Bool(true).to_string(), "true");
        assert_eq!(
            Json::Str("a\"b\\c\n".into()).to_string(),
            "\"a\\\"b\\\\c\\n\""
        );
    }

    #[test]
    fn nested_structure_is_valid_and_ordered() {
        let doc = Json::obj()
            .field("mode", "smoke")
            .field("n", 3u64)
            .field("items", vec![Json::Int(1), Json::obj().field("x", 2u64)]);
        let text = doc.to_string();
        assert!(text.starts_with("{\n  \"mode\": \"smoke\""));
        assert!(text.contains("\"items\": [\n    1,\n    {\n      \"x\": 2\n    }\n  ]"));
        // Balanced braces/brackets (a cheap well-formedness check without a
        // parser dependency).
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                text.matches(open).count(),
                text.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
    }

    #[test]
    fn empty_containers_render_compact() {
        assert_eq!(Json::Arr(Vec::new()).to_string(), "[]");
        assert_eq!(Json::obj().to_string(), "{}");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
    }
}
