//! A small JSON value with a parser and an emitter: enough to read
//! what `dist_train` writes and `BENCHMARK.json`, and to write result
//! lines and the results file. Objects keep insertion order so emitted
//! files diff cleanly.

use std::fmt::{self, Write as _};

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parse one JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), at: 0 };
        let v = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(p.fail("trailing bytes after the document"));
        }
        Ok(v)
    }

    /// Multi-line rendering (two-space indent) for files people read.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Shortest representation that reads back as the same f64:
            // every digit measured, none invented. JSON has no NaN/inf.
            Json::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                let scalars = items.iter().all(Json::is_scalar);
                write_seq(out, indent, ['[', ']'], scalars, items.len(), |out, i, indent| {
                    items[i].write(out, indent)
                });
            }
            Json::Obj(fields) => {
                let scalars = fields.iter().all(|(_, v)| v.is_scalar());
                write_seq(out, indent, ['{', '}'], scalars, fields.len(), |out, i, indent| {
                    write_str(out, &fields[i].0);
                    out.push_str(": ");
                    fields[i].1.write(out, indent)
                });
            }
        }
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }
}

/// Single-line rendering.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

/// `n` items between `brackets`. With an `indent` depth, one item per
/// line — except that a container of scalars stays on one line even
/// then: a metric row reads best unbroken.
fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    brackets: [char; 2],
    all_scalar: bool,
    n: usize,
    item: impl Fn(&mut String, usize, Option<usize>),
) {
    let depth = indent.filter(|_| !all_scalar);
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    };
    out.push(brackets[0]);
    for i in 0..n {
        if i > 0 {
            out.push(',');
        }
        match depth {
            Some(d) => newline(out, d + 1),
            None if i > 0 => out.push(' '),
            None => {}
        }
        item(out, i, depth.map(|d| d + 1));
    }
    if let Some(d) = depth {
        newline(out, d);
    }
    out.push(brackets[1]);
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn fail(&self, what: &str) -> String {
        format!("JSON byte {}: {what}", self.at)
    }

    fn skip_ws(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.bytes[self.at..].starts_with(lit.as_bytes());
        if hit {
            self.at += lit.len();
        }
        hit
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.at) {
            None => Err(self.fail("unexpected end")),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => self.number(),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.at += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.at])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| self.fail("not a value"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.at += 1; // opening quote
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.at) {
                None => return Err(self.fail("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|_| self.fail("string is not UTF-8"));
                }
                Some(b'\\') => {
                    let esc =
                        *self.bytes.get(self.at + 1).ok_or_else(|| self.fail("bad escape"))?;
                    self.at += 2;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.fail("bad \\u escape"))?;
                            self.at += 4;
                            let c = char::from_u32(hex).unwrap_or(char::REPLACEMENT_CHARACTER);
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other), // \" \\ \/
                    }
                }
                Some(&b) => {
                    out.push(b);
                    self.at += 1;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.at += 1;
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            if self.eat("]") {
                return Ok(Json::Arr(items));
            }
            if !items.is_empty() && !self.eat(",") {
                return Err(self.fail("expected , or ]"));
            }
            items.push(self.value()?);
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.at += 1;
        let mut fields = Vec::new();
        loop {
            self.skip_ws();
            if self.eat("}") {
                return Ok(Json::Obj(fields));
            }
            if !fields.is_empty() {
                if !self.eat(",") {
                    return Err(self.fail("expected , or }"));
                }
                self.skip_ws();
            }
            if self.bytes.get(self.at) != Some(&b'"') {
                return Err(self.fail("expected a key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(":") {
                return Err(self.fail("expected :"));
            }
            fields.push((key, self.value()?));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_then_read_round_trips() {
        let doc = Json::obj(vec![
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(1000.0)),
            ("name", Json::str("wire \"bw\"\n4m")),
            ("nothing", Json::Null),
            (
                "metrics",
                Json::obj(vec![(
                    "steps_per_s",
                    Json::obj(vec![
                        ("value", Json::Num(761.234_567_890_12)),
                        ("unit", Json::str("1/s")),
                    ]),
                )]),
            ),
            ("list", Json::Arr(vec![Json::Num(-1.5e-7), Json::Arr(vec![]), Json::obj(vec![])])),
        ]);
        assert_eq!(Json::parse(&doc.to_string()), Ok(doc.clone()));
        assert_eq!(Json::parse(&doc.pretty()), Ok(doc.clone()));
        assert!(!doc.to_string().contains('\n'));
        let value =
            doc.get("metrics").and_then(|m| m.get("steps_per_s")).and_then(|m| m.get("value"));
        assert_eq!(value.and_then(Json::as_f64), Some(761.234_567_890_12));
    }

    #[test]
    fn numbers_keep_every_digit() {
        let x = 0.1 + 0.2;
        let text = Json::Num(x).to_string();
        assert_eq!(text, "0.30000000000000004");
        assert_eq!(Json::parse(&text).unwrap().as_f64(), Some(x));
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn reads_what_dist_train_writes() {
        let v = Json::parse("{\n  \"survivors\": [0, 1],\n  \"degrades\": []\n}\n").unwrap();
        let ids: Vec<f64> = v
            .get("survivors")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(Json::as_f64)
            .collect();
        assert_eq!(ids, [0.0, 1.0]);
        assert_eq!(v.get("degrades").and_then(Json::as_arr).map(<[Json]>::len), Some(0));
        let losses = Json::parse("{\"losses\": [1.38629436111989057e0, 2.5e-1]}").unwrap();
        assert_eq!(
            losses.get("losses").unwrap().as_arr().unwrap()[0].as_f64(),
            Some(1.386_294_361_119_890_6)
        );
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "\"open", "tru", "[1] x", "{\"a\":}"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
