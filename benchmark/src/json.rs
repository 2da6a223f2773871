//! A JSON value and its renderer; the benchmark writes JSON and never
//! reads it.

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Compact rendering on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Rendering for files people read: an object or array that holds
    /// another is broken over lines, one entry each; the innermost ones
    /// stay on one line.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(0, &mut out);
        out.push('\n');
        out
    }

    fn write_pretty(&self, depth: usize, out: &mut String) {
        let nested = |v: &Json| matches!(v, Json::Obj(_) | Json::Arr(_));
        let (open, close, entries): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Obj(fields) if fields.iter().any(|(_, v)| nested(v)) => (
                '{',
                '}',
                fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            ),
            Json::Arr(items) if items.iter().any(nested) => {
                ('[', ']', items.iter().map(|v| (None, v)).collect())
            }
            flat => return flat.write(out),
        };
        out.push(open);
        out.push('\n');
        for (i, (key, value)) in entries.iter().enumerate() {
            out.push_str(&"  ".repeat(depth + 1));
            if let Some(key) = key {
                write_str(key, out);
                out.push_str(": ");
            }
            value.write_pretty(depth + 1, out);
            out.push_str(if i + 1 == entries.len() { "\n" } else { ",\n" });
        }
        out.push_str(&"  ".repeat(depth));
        out.push(close);
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            // JSON has no NaN or infinity; a metric that is not finite is
            // a bug upstream, shown as null instead of as invalid JSON.
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            Json::Num(x) => {
                let _ = write!(out, "{x}");
            }
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values_and_escapes() {
        let v = Json::obj([
            (
                "a",
                Json::Arr(vec![Json::Int(1), Json::Num(0.5), Json::Bool(true)]),
            ),
            ("s", Json::str("q\"\\\n")),
            ("nan", Json::Num(f64::NAN)),
        ]);
        assert_eq!(
            v.render(),
            r#"{"a": [1, 0.5, true], "s": "q\"\\\n", "nan": null}"#
        );
    }

    #[test]
    fn pretty_rendering_breaks_only_what_holds_objects_or_arrays() {
        let v = Json::obj([
            ("m", Json::Arr(vec![Json::obj([("unit", Json::str("ms"))])])),
            ("n", Json::Arr(vec![Json::Int(2), Json::Int(3)])),
        ]);
        assert_eq!(
            v.render_pretty(),
            "{\n  \"m\": [\n    {\"unit\": \"ms\"}\n  ],\n  \"n\": [2, 3]\n}\n"
        );
    }
}
