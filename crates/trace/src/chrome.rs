//! Chrome-trace JSON: the shared emitter every trace producer funnels
//! through, plus a small in-repo parser for round-trip tests.
//!
//! The format is the flat-array flavor of the Trace Event Format:
//! complete spans are `"ph":"X"` objects with `ts`/`dur` in
//! microseconds, and lane naming travels as `"ph":"M"` metadata events
//! (`process_name` / `thread_name`) — which is what makes a
//! multi-rank trace render as one row group per rank instead of
//! collapsing onto `pid:0,tid:0`. JSON is emitted and parsed by hand;
//! the crate stays dependency-free.

use std::fmt;
use std::fmt::Write as _;

/// One event of a Chrome trace, covering the two phases we emit:
/// complete spans (`ph == 'X'`) and metadata (`ph == 'M'`).
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeEvent {
    pub name: String,
    pub cat: String,
    pub ph: char,
    pub ts_us: f64,
    pub dur_us: f64,
    pub pid: u32,
    pub tid: u32,
    /// For `'M'` events: the `args.name` payload (the lane label).
    pub meta_name: Option<String>,
    /// For `'X'` events: numeric args rendered as `"args":{...}`.
    pub args: Vec<(&'static str, u64)>,
}

impl ChromeEvent {
    /// A complete ("X") span.
    pub fn complete(name: &str, cat: &str, ts_us: f64, dur_us: f64, pid: u32, tid: u32) -> Self {
        ChromeEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ph: 'X',
            ts_us,
            dur_us,
            pid,
            tid,
            meta_name: None,
            args: Vec::new(),
        }
    }
}

/// A `process_name` metadata event: names the `pid` row group.
pub fn metadata_process_name(pid: u32, name: &str) -> ChromeEvent {
    ChromeEvent {
        name: "process_name".to_string(),
        cat: String::new(),
        ph: 'M',
        ts_us: 0.0,
        dur_us: 0.0,
        pid,
        tid: 0,
        meta_name: Some(name.to_string()),
        args: Vec::new(),
    }
}

/// A `thread_name` metadata event: names the `(pid, tid)` lane.
pub fn metadata_thread_name(pid: u32, tid: u32, name: &str) -> ChromeEvent {
    ChromeEvent {
        name: "thread_name".to_string(),
        cat: String::new(),
        ph: 'M',
        ts_us: 0.0,
        dur_us: 0.0,
        pid,
        tid,
        meta_name: Some(name.to_string()),
        args: Vec::new(),
    }
}

/// Serialize events into the flat-array Chrome-trace JSON.
pub fn write_trace(events: &[ChromeEvent]) -> String {
    let mut out = String::from("[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match e.ph {
            'M' => {
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                    escape(&e.name),
                    e.pid,
                    e.tid,
                    escape(e.meta_name.as_deref().unwrap_or("")),
                );
            }
            _ => {
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":{}",
                    escape(&e.name),
                    escape(&e.cat),
                    e.ph,
                    e.ts_us,
                    e.dur_us,
                    e.pid,
                    e.tid,
                );
                if !e.args.is_empty() {
                    out.push_str(",\"args\":{");
                    for (j, (k, v)) in e.args.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "\"{k}\":{v}");
                    }
                    out.push('}');
                }
                out.push('}');
            }
        }
    }
    out.push(']');
    out
}

/// `s` as the body of a JSON string: quotes and backslashes escaped,
/// control characters as `\u00XX`, everything else as it is.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Why a trace failed to parse.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub at: usize,
    pub what: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chrome trace parse error at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for ParseError {}

/// A minimal JSON value — just enough for flat trace events.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, what: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError { at: self.at, what: what.into() })
    }

    fn skip_ws(&mut self) {
        while self.at < self.bytes.len() && self.bytes[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.at).copied()
    }

    fn consume(&mut self, c: u8) -> Result<(), ParseError> {
        if self.peek() == Some(c) {
            self.at += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", c as char))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => self.err("unexpected end of input"),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.at..].starts_with(text.as_bytes()) {
            self.at += text.len();
            Ok(value)
        } else {
            self.err(format!("expected `{text}`"))
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.at;
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).unwrap_or("");
        match text.parse::<f64>() {
            Ok(n) => Ok(Json::Num(n)),
            Err(_) => self.err(format!("bad number `{text}`")),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.consume(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.at).copied() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.bytes.get(self.at).copied() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self.bytes.get(self.at + 1..self.at + 5);
                            let code = hex
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32);
                            match code {
                                Some(c) => {
                                    out.push(c);
                                    self.at += 4;
                                }
                                None => return self.err("bad \\u escape"),
                            }
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.at += 1;
                }
                Some(b) => {
                    // Multi-byte UTF-8: copy the full scalar.
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    match std::str::from_utf8(self.bytes.get(self.at..self.at + len).unwrap_or(b""))
                    {
                        Ok(s) => out.push_str(s),
                        Err(_) => return self.err("bad utf-8 in string"),
                    }
                    self.at += len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.consume(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.consume(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.consume(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

/// Parse a flat-array Chrome trace back into events. Only the fields
/// this repo emits are interpreted; unknown fields are ignored, so the
/// parser also accepts traces written by other tools as long as they
/// use the flat-array form.
pub fn parse_trace(json: &str) -> Result<Vec<ChromeEvent>, ParseError> {
    let mut p = Parser { bytes: json.as_bytes(), at: 0 };
    let root = p.value()?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return p.err("trailing bytes after the event array");
    }
    let Json::Arr(items) = root else {
        return Err(ParseError { at: 0, what: "top level is not an array".to_string() });
    };
    let mut events = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let field_str = |key: &str| {
            item.get(key).and_then(Json::as_str).map(str::to_string).unwrap_or_default()
        };
        let field_num = |key: &str| item.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let ph_text = field_str("ph");
        let ph = ph_text.chars().next().unwrap_or(' ');
        if !matches!(ph, 'X' | 'M' | 'i' | 'I' | 'B' | 'E') {
            return Err(ParseError {
                at: 0,
                what: format!("event {i}: unsupported ph `{ph_text}`"),
            });
        }
        let meta_name =
            item.get("args").and_then(|a| a.get("name")).and_then(Json::as_str).map(str::to_string);
        events.push(ChromeEvent {
            name: field_str("name"),
            cat: field_str("cat"),
            ph,
            ts_us: field_num("ts"),
            dur_us: field_num("dur"),
            pid: field_num("pid") as u32,
            tid: field_num("tid") as u32,
            meta_name,
            args: Vec::new(),
        });
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_spans_and_metadata() {
        let events =
            vec![metadata_process_name(2, "rank 2"), metadata_thread_name(2, 1, "comm"), {
                let mut e = ChromeEvent::complete("send \"x\"", "SEND", 12.5, 3.25, 2, 1);
                e.args = vec![("a0", 7), ("a1", 4096)];
                e
            }];
        let json = write_trace(&events);
        let parsed = parse_trace(&json).expect("parses");
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0].ph, 'M');
        assert_eq!(parsed[0].meta_name.as_deref(), Some("rank 2"));
        assert_eq!(parsed[1].tid, 1);
        let span = &parsed[2];
        assert_eq!(span.name, "send \"x\"");
        assert_eq!(span.cat, "SEND");
        assert_eq!((span.pid, span.tid), (2, 1));
        assert!((span.ts_us - 12.5).abs() < 1e-9);
        assert!((span.dur_us - 3.25).abs() < 1e-9);
    }

    #[test]
    fn writer_formats_match_the_legacy_timeline_shape() {
        let json =
            write_trace(&[ChromeEvent::complete("cycle", "NEGOTIATE_ALLREDUCE", 0.0, 10.0, 0, 0)]);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":10.000"), "{json}");
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_trace("not json").is_err());
        assert!(parse_trace("{}").is_err(), "top level must be an array");
        assert!(parse_trace("[{\"ph\":\"Q\"}]").is_err(), "unknown phase");
        assert!(parse_trace("[] trailing").is_err());
    }

    #[test]
    fn parser_handles_escapes_and_unicode() {
        let json = r#"[{"name":"a\"b\\cA","ph":"X","ts":1,"dur":2,"pid":0,"tid":0}]"#;
        let events = parse_trace(json).expect("parses");
        assert_eq!(events[0].name, "a\"b\\cA");
    }

    #[test]
    fn control_chars_round_trip_as_unicode_escapes() {
        let name = "a\nb\tc\u{1}d\"e\\f";
        let json = write_trace(&[ChromeEvent::complete(name, "C\n", 0.0, 1.0, 0, 0)]);
        let escaped = "a\\u000ab\\u0009c\\u0001d\\\"e\\\\f";
        assert!(json.contains(escaped), "{json}");
        let back = parse_trace(&json).map(|e| (e[0].name.clone(), e[0].cat.clone()));
        assert_eq!(back, Ok((name.to_string(), "C\n".to_string())));
    }
}
