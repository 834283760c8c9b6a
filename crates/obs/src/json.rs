//! Minimal hand-rolled JSON writer used by the JSONL and Chrome-trace
//! exporters. Comma placement is tracked with a container stack, string
//! escaping matches `serde_json`'s, and non-finite floats render as
//! `null` (as `serde_json` does) so the output always parses.

use crate::FieldValue;

/// Append `s` to `out` as the *contents* of a JSON string (no quotes).
pub(crate) fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Append `v` as a JSON number: the shortest round-tripping digits, in
/// plain decimal for `1e-15 <= |v| < 1e21` (every histogram bucket
/// bound, from 1e-12 up, lies inside) and in exponent notation outside
/// it, where plain decimal would spell out up to ~300 zeros.
fn push_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    if v != 0.0 && !(1e-15..1e21).contains(&v.abs()) {
        out.push_str(&format!("{v:e}"));
        return;
    }
    let s = v.to_string();
    out.push_str(&s);
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// A single-buffer JSON builder. Call `begin_*`/`end_*`/`field_*` in
/// document order; commas are inserted automatically.
pub struct JsonWriter {
    out: String,
    /// One entry per open container: whether it already has an element.
    stack: Vec<bool>,
}

impl JsonWriter {
    pub fn new() -> JsonWriter {
        JsonWriter {
            out: String::new(),
            stack: Vec::new(),
        }
    }

    fn elem_prefix(&mut self) {
        if let Some(has) = self.stack.last_mut() {
            if *has {
                self.out.push(',');
            }
            *has = true;
        }
    }

    fn key(&mut self, name: &str) {
        self.elem_prefix();
        self.out.push('"');
        escape_into(name, &mut self.out);
        self.out.push_str("\":");
    }

    /// Open a top-level or array-element object.
    pub fn begin_object(&mut self) {
        self.elem_prefix();
        self.out.push('{');
        self.stack.push(false);
    }

    /// Open an object-valued field.
    pub fn begin_field_object(&mut self, name: &str) {
        self.key(name);
        self.out.push('{');
        self.stack.push(false);
    }

    pub fn end_object(&mut self) {
        self.stack.pop();
        self.out.push('}');
    }

    /// Open an array-valued field.
    pub fn begin_field_array(&mut self, name: &str) {
        self.key(name);
        self.out.push('[');
        self.stack.push(false);
    }

    /// Open a top-level or array-element array.
    pub fn begin_array(&mut self) {
        self.elem_prefix();
        self.out.push('[');
        self.stack.push(false);
    }

    /// A bare unsigned array element.
    pub fn elem_u64(&mut self, v: u64) {
        self.elem_prefix();
        self.out.push_str(&v.to_string());
    }

    pub fn end_array(&mut self) {
        self.stack.pop();
        self.out.push(']');
    }

    pub fn field_str(&mut self, name: &str, v: &str) {
        self.key(name);
        self.out.push('"');
        escape_into(v, &mut self.out);
        self.out.push('"');
    }

    pub fn field_u64(&mut self, name: &str, v: u64) {
        self.key(name);
        self.out.push_str(&v.to_string());
    }

    pub fn field_i64(&mut self, name: &str, v: i64) {
        self.key(name);
        self.out.push_str(&v.to_string());
    }

    pub fn field_f64(&mut self, name: &str, v: f64) {
        self.key(name);
        push_f64(&mut self.out, v);
    }

    pub fn field_bool(&mut self, name: &str, v: bool) {
        self.key(name);
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// A field from a telemetry [`FieldValue`].
    pub fn field_value(&mut self, name: &str, v: &FieldValue) {
        match v {
            FieldValue::U64(x) => self.field_u64(name, *x),
            FieldValue::I64(x) => self.field_i64(name, *x),
            FieldValue::F64(x) => self.field_f64(name, *x),
            FieldValue::Bool(x) => self.field_bool(name, *x),
            FieldValue::Str(x) => self.field_str(name, x),
        }
    }

    /// The accumulated JSON text.
    pub fn finish(self) -> String {
        debug_assert!(self.stack.is_empty(), "unclosed JSON container");
        self.out
    }
}

impl Default for JsonWriter {
    fn default() -> Self {
        JsonWriter::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_objects_and_arrays_get_commas_right() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("a", "x");
        w.begin_field_array("list");
        w.begin_object();
        w.field_u64("i", 1);
        w.end_object();
        w.begin_object();
        w.field_u64("i", 2);
        w.end_object();
        w.end_array();
        w.begin_field_object("o");
        w.field_bool("b", true);
        w.end_object();
        w.end_object();
        assert_eq!(
            w.finish(),
            r#"{"a":"x","list":[{"i":1},{"i":2}],"o":{"b":true}}"#
        );
    }

    #[test]
    fn floats_stay_numbers_and_nan_is_null() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_f64("x", 2.0);
        w.field_f64("y", f64::NAN);
        w.end_object();
        assert_eq!(w.finish(), r#"{"x":2.0,"y":null}"#);
    }

    #[test]
    fn tiny_and_huge_floats_use_exponents_and_round_trip() {
        let cases = [
            (1e-300, "1e-300"),
            (-2.5e-20, "-2.5e-20"),
            (5e-324, "5e-324"),
            (1e300, "1e300"),
            (-1.5e21, "-1.5e21"),
            (f64::MAX, "1.7976931348623157e308"),
            // The ordinary range keeps its plain spelling.
            (1e-15, "0.000000000000001"),
            (2.5e-9, "0.0000000025"),
            (0.0, "0.0"),
            (-0.0, "-0.0"),
            (50002.5, "50002.5"),
            (1e20, "100000000000000000000.0"),
        ];
        for (v, want) in cases {
            let mut out = String::new();
            push_f64(&mut out, v);
            assert_eq!(out, want);
            assert_eq!(out.parse::<f64>().unwrap().to_bits(), v.to_bits(), "{want}");
        }
    }

    #[test]
    fn control_chars_escape() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("s", "a\"\\\n\u{1}");
        w.end_object();
        assert_eq!(w.finish(), "{\"s\":\"a\\\"\\\\\\n\\u0001\"}");
    }
}
