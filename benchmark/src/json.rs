//! The benchmark's one JSON writer and one JSON reader (the package has no
//! dependencies outside this repository).
//!
//! The writer produces the result line and the span files; the reader
//! loads `BENCHMARK.json` (bounds, metric lists) and `pins.json`.

use std::fmt::Write as _;

/// Streaming writer: values are appended in call order, commas are
/// inserted by the writer.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// One entry per open container: whether it already holds a value.
    open: Vec<bool>,
    /// The next value completes a `"key":` and needs no comma.
    after_key: bool,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    fn before_value(&mut self) {
        if self.after_key {
            self.after_key = false;
        } else if let Some(has_value) = self.open.last_mut() {
            if *has_value {
                self.out.push(',');
            }
            *has_value = true;
        }
    }

    /// Opens an object.
    pub fn begin_object(&mut self) -> &mut Self {
        self.before_value();
        self.out.push('{');
        self.open.push(false);
        self
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.open.pop();
        self.out.push('}');
        self
    }

    /// Opens an array.
    pub fn begin_array(&mut self) -> &mut Self {
        self.before_value();
        self.out.push('[');
        self.open.push(false);
        self
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.open.pop();
        self.out.push(']');
        self
    }

    /// Writes an object key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.before_value();
        write_escaped(&mut self.out, key);
        self.out.push(':');
        self.after_key = true;
        self
    }

    /// Writes a string value.
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.before_value();
        write_escaped(&mut self.out, s);
        self
    }

    /// Writes a float with every digit needed to read it back exactly.
    /// JSON has no NaN or infinity; those become `null`.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.before_value();
        if v.is_finite() {
            let _ = write!(self.out, "{v}");
        } else {
            self.out.push_str("null");
        }
        self
    }

    /// Writes an unsigned integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.before_value();
        let _ = write!(self.out, "{v}");
        self
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.before_value();
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.before_value();
        self.out.push_str("null");
        self
    }

    /// The finished text.
    pub fn finish(self) -> String {
        debug_assert!(self.open.is_empty(), "unclosed container");
        self.out
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

/// A parsed JSON value. Objects keep their keys in file order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array (empty for any other value).
    pub fn items(&self) -> &[Value] {
        match self {
            Value::Arr(items) => items,
            _ => &[],
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parses one JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        src: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self.src.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        if self.src.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.src[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("unknown literal"))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.src.get(self.pos) {
            None => Err(self.err("unexpected end")),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => self.number(),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.src.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            members.push((key, self.value()?));
            self.skip_ws();
            match self.src.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.src.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.src.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while self
                .src
                .get(self.pos)
                .is_some_and(|&b| b != b'"' && b != b'\\')
            {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.src[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8"))?,
            );
            match self.src.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = *self
                        .src
                        .get(self.pos)
                        .ok_or_else(|| self.err("unexpected end"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .src
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs never occur in the files this
                            // reads; a lone surrogate is replaced.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self
            .src
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.src[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_places_commas_and_escapes() {
        let mut w = JsonWriter::new();
        w.begin_object()
            .key("a")
            .u64(1)
            .key("b")
            .begin_array()
            .f64(0.5)
            .string("x\"y\n")
            .bool(true)
            .null()
            .begin_object()
            .end_object()
            .end_array()
            .key("c")
            .f64(f64::NAN)
            .end_object();
        assert_eq!(
            w.finish(),
            r#"{"a":1,"b":[0.5,"x\"y\n",true,null,{}],"c":null}"#
        );
    }

    #[test]
    fn floats_keep_every_digit() {
        for v in [1.2034_f64, 1e-7, 123_456_789.125, 0.1 + 0.2, 2.0] {
            let mut w = JsonWriter::new();
            w.f64(v);
            let text = w.finish();
            assert_eq!(parse(&text).unwrap().as_f64(), Some(v), "{text}");
        }
    }

    #[test]
    fn reader_round_trips_the_writer() {
        let mut w = JsonWriter::new();
        w.begin_object()
            .key("name")
            .string("tab\there \u{1} é")
            .key("list")
            .begin_array()
            .u64(3)
            .f64(-2.5e-3)
            .end_array()
            .key("nested")
            .begin_object()
            .key("ok")
            .bool(false)
            .end_object()
            .end_object();
        let v = parse(&w.finish()).unwrap();
        assert_eq!(
            v.get("name").and_then(Value::as_str),
            Some("tab\there \u{1} é")
        );
        assert_eq!(v.get("list").unwrap().items().len(), 2);
        assert_eq!(v.get("list").unwrap().items()[1].as_f64(), Some(-2.5e-3));
        assert_eq!(
            v.get("nested").and_then(|n| n.get("ok")),
            Some(&Value::Bool(false))
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn reader_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "\"open",
            "1 2",
            "{\"a\":1,}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn reader_accepts_whitespace_and_empty_containers() {
        let v = parse(" { \"a\" : [ ] , \"b\" : { } }\n").unwrap();
        assert_eq!(v.get("a"), Some(&Value::Arr(vec![])));
        assert_eq!(v.get("b"), Some(&Value::Obj(vec![])));
    }
}
