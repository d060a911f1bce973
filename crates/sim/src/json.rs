//! The one JSON document writer.
//!
//! Reports, flight dumps, histograms and the Chrome-trace timeline are
//! rendered by hand (the workspace has no serialization dependency) with a
//! stable field order, so that identical data is identical bytes.
//! [`JsonWriter`] owns the two things every such emitter otherwise
//! re-invents: where the commas go and how a string is escaped. The
//! per-event renderer ([`crate::Event::write_json_fields`]) stays separate
//! — it is the `fmt`-free hot path — and is embedded through
//! [`JsonWriter::raw`]: a flight dump's tail and each timeline entry's
//! `args` are an event's fields inside an object this writer opened.

use std::fmt::Write as _;

/// Appends JSON to a `String`, one call per token: `begin_*`/`end_*` nest,
/// [`key`](Self::key) names the next value inside an object, and the value
/// methods write scalars. Separating commas are inserted automatically.
/// Every method returns the writer, so short runs chain.
///
/// The writer does not check that the calls form a document (a key outside
/// an object, an unclosed array); the emitters' tests do.
#[derive(Debug)]
pub struct JsonWriter<'a> {
    out: &'a mut String,
    /// Whether a `,` goes before the next key or value: set after a value
    /// or a closed container, cleared after a key or an opened container.
    need_comma: bool,
}

impl<'a> JsonWriter<'a> {
    /// A writer appending one value to `out` (which may already hold the
    /// text that value continues, e.g. an enclosing document's `"key":`).
    pub fn new(out: &'a mut String) -> Self {
        JsonWriter {
            out,
            need_comma: false,
        }
    }

    /// The output, positioned for a value: separator written, and the
    /// next token marked as needing one.
    fn value(&mut self) -> &mut String {
        if self.need_comma {
            self.out.push(',');
        }
        self.need_comma = true;
        self.out
    }

    fn open(&mut self, bracket: char) -> &mut Self {
        self.value().push(bracket);
        self.need_comma = false;
        self
    }

    fn close(&mut self, bracket: char) -> &mut Self {
        self.out.push(bracket);
        self.need_comma = true;
        self
    }

    /// Opens an object.
    pub fn begin_object(&mut self) -> &mut Self {
        self.open('{')
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.close('}')
    }

    /// Opens an array.
    pub fn begin_array(&mut self) -> &mut Self {
        self.open('[')
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.close(']')
    }

    /// Writes `"name":`; the next call writes that member's value.
    pub fn key(&mut self, name: &str) -> &mut Self {
        self.string(name);
        self.out.push(':');
        self.need_comma = false;
        self
    }

    /// Writes `v` as a string: `"` and `\` escaped, newline and tab as
    /// `\n` / `\t`, every other control character as `\u00XX`.
    pub fn string(&mut self, v: &str) -> &mut Self {
        let out = self.value();
        out.push('"');
        for c in v.chars() {
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
        self
    }

    /// Writes an unsigned integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        let _ = write!(self.value(), "{v}");
        self
    }

    /// Writes `v` in Rust's shortest round-trip form, or `null` when it is
    /// not finite (JSON has no NaN or infinity).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        if !v.is_finite() {
            return self.null();
        }
        let _ = write!(self.value(), "{v}");
        self
    }

    /// Writes `v` with exactly `decimals` digits after the point, or
    /// `null` when it is not finite.
    pub fn fixed(&mut self, v: f64, decimals: usize) -> &mut Self {
        if !v.is_finite() {
            return self.null();
        }
        let _ = write!(self.value(), "{v:.decimals$}");
        self
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.value().push_str(if v { "true" } else { "false" });
        self
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.value().push_str("null");
        self
    }

    /// Lets `render` append text verbatim where a value (or, inside an
    /// object, a run of members) goes: another emitter's complete value,
    /// or [`crate::Event::write_json_fields`]'s members.
    pub fn raw(&mut self, render: impl FnOnce(&mut String)) -> &mut Self {
        render(self.value());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(build: impl FnOnce(&mut JsonWriter<'_>)) -> String {
        let mut out = String::new();
        build(&mut JsonWriter::new(&mut out));
        out
    }

    #[test]
    fn commas_follow_the_nesting() {
        let doc = render(|w| {
            w.begin_object();
            w.key("a").u64(1);
            w.key("b").begin_array().u64(2).begin_array().end_array();
            w.begin_object().key("c").null().end_object().end_array();
            w.key("d").begin_object().end_object();
            w.key("e").bool(true).key("f").bool(false);
            w.end_object();
        });
        assert_eq!(
            doc,
            r#"{"a":1,"b":[2,[],{"c":null}],"d":{},"e":true,"f":false}"#
        );
    }

    #[test]
    fn empty_containers_and_bare_scalars() {
        assert_eq!(
            render(|w| {
                w.begin_object().end_object();
            }),
            "{}"
        );
        assert_eq!(
            render(|w| {
                w.begin_array().end_array();
            }),
            "[]"
        );
        assert_eq!(
            render(|w| {
                w.u64(u64::MAX);
            }),
            "18446744073709551615"
        );
        assert_eq!(
            render(|w| {
                w.begin_array().string("").string("x").end_array();
            }),
            r#"["","x"]"#
        );
    }

    #[test]
    fn a_writer_continues_text_already_in_the_buffer() {
        let mut out = String::from("{\"k\":");
        JsonWriter::new(&mut out).begin_array().u64(1).end_array();
        assert_eq!(out, "{\"k\":[1]");
    }

    #[test]
    fn strings_and_keys_escape_by_the_table() {
        for (input, expected) in [
            ("plain ≤ text", "\"plain ≤ text\""),
            ("a\"b", r#""a\"b""#),
            ("a\\b", r#""a\\b""#),
            ("a\nb", r#""a\nb""#),
            ("a\tb", r#""a\tb""#),
            ("a\rb", r#""a\u000db""#),
            ("\u{1}\u{1f}", r#""\u0001\u001f""#),
            ("\u{7f}", "\"\u{7f}\""),
        ] {
            assert_eq!(
                render(|w| {
                    w.string(input);
                }),
                expected,
                "{input:?}"
            );
            assert_eq!(
                render(|w| {
                    w.begin_object().key(input).null().end_object();
                }),
                format!("{{{expected}:null}}"),
                "keys take the same escaper"
            );
        }
    }

    #[test]
    fn floats_render_finite_or_null() {
        let doc = render(|w| {
            w.begin_array();
            w.f64(0.1).f64(3.0).f64(-1e-7).f64(1e21);
            w.f64(f64::NAN).f64(f64::INFINITY);
            w.fixed(1.0 / 3.0, 6)
                .fixed(2.0, 3)
                .fixed(0.0005, 3)
                .fixed(7.9, 0);
            w.fixed(f64::NEG_INFINITY, 6);
            w.end_array();
        });
        assert_eq!(
            doc,
            "[0.1,3,-0.0000001,1000000000000000000000,null,null,\
             0.333333,2.000,0.001,8,null]"
        );
    }

    #[test]
    fn raw_embeds_a_value_or_a_run_of_members() {
        let doc = render(|w| {
            w.begin_array();
            w.raw(|out| out.push_str("{\"x\":1}"));
            w.begin_object()
                .raw(|out| out.push_str("\"at\":5,\"kind\":\"k\""))
                .end_object();
            w.end_array();
        });
        assert_eq!(doc, r#"[{"x":1},{"at":5,"kind":"k"}]"#);
    }
}
