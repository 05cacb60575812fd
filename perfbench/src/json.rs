//! A minimal JSON writer (the benchmark depends on nothing outside the
//! repository, so no serde).

/// Builds one JSON object, keys in insertion order.
#[derive(Default)]
pub struct Obj {
    fields: Vec<(String, String)>,
}

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Adds a field whose value is already JSON text.
    pub fn raw(mut self, key: &str, json: String) -> Obj {
        self.fields.push((key.to_string(), json));
        self
    }

    /// Adds a string field.
    pub fn str(self, key: &str, value: &str) -> Obj {
        self.raw(key, string(value))
    }

    /// Adds a number field.
    pub fn num(self, key: &str, value: f64) -> Obj {
        self.raw(key, number(value))
    }

    /// Adds an integer field.
    pub fn int(self, key: &str, value: u64) -> Obj {
        self.raw(key, value.to_string())
    }

    /// Adds a boolean field.
    pub fn bool(self, key: &str, value: bool) -> Obj {
        self.raw(key, value.to_string())
    }

    /// Adds a nested object.
    pub fn obj(self, key: &str, value: Obj) -> Obj {
        self.raw(key, value.finish())
    }

    /// The object's JSON text.
    pub fn finish(self) -> String {
        let body: Vec<String> = self
            .fields
            .into_iter()
            .map(|(k, v)| format!("{}: {v}", string(&k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; non-finite values (which JSON cannot hold) become `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// A JSON array of already-encoded values.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_nested_objects() {
        let o = Obj::new()
            .bool("correct", true)
            .int("attempted", 3)
            .obj("m", Obj::new().num("value", 1.25).str("unit", "ms"));
        assert_eq!(
            o.finish(),
            r#"{"correct": true, "attempted": 3, "m": {"value": 1.25, "unit": "ms"}}"#
        );
        assert_eq!(string("a\"b\\c\n"), r#""a\"b\\c\n""#);
        assert_eq!(number(2.0), "2.0");
        assert_eq!(number(f64::NAN), "null");
    }
}
