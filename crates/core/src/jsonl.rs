//! A minimal, exact JSON codec: one emitter, one lexer, and a value
//! model built on both.
//!
//! The control-plane trace (see [`crate::control::plane`]) must round-
//! trip **bit-exactly**: a replayed slot has to feed the pipeline the
//! same `f64`s the simulator recorded, or sim/live parity dies in the
//! last ulp. This codec guarantees that by construction:
//!
//! * floats are emitted with Rust's shortest-roundtrip formatting
//!   (`{:?}`), which `str::parse::<f64>` inverts exactly;
//! * integers are emitted as decimal `u64`/`i64` and re-parsed with the
//!   integer parsers, never through an `f64` (no 2^53 cliff);
//! * a number travels as its raw token ([`Json::Num`] stores it), so it
//!   is committed to a width and signedness only when the schema asks.
//!
//! Two streaming halves do all the work:
//!
//! * `Writer` appends keys, floats, integers, bools, `null` and
//!   escaped strings straight into a `String`, placing the commas
//!   itself;
//! * `Cursor` borrows a `&str` and yields object keys, number tokens,
//!   strings, `null`, and array and object boundaries, enforcing the
//!   nesting limit (128 levels) as it opens containers. A key or string
//!   with no `\` comes back borrowed from the input; only one holding an
//!   escape is unescaped into an owned copy.
//!
//! [`Json::render`] walks a tree into a `Writer`, and [`Json::parse`]
//! builds one from a `Cursor`, so the tree and a schema codec that
//! streams (the trace's per-slot records, which never build a tree)
//! share the same whitespace rules, number-token grammar (with `NaN`
//! and `inf`), string escapes and depth limit. A tree is the convenient
//! form for one-off lines such as the trace header; a record written
//! once per slot goes through the halves directly.
//!
//! Decoding is linear in the line length. The invariant that makes it
//! so: the input is a `&str`, already valid UTF-8, and the lexer walks
//! its bytes. A string's plain characters run up to the next `"` or
//! `\`, both ASCII bytes, which never occur inside a multi-byte
//! sequence; so every run starts and ends on a char boundary and is
//! borrowed or copied in one step, without re-validating anything.

use std::borrow::Cow;
use std::fmt::Write as _;

/// Deepest array/object nesting a [`Cursor`] accepts. [`Json::parse`]
/// recurses once per level, so an unbounded depth lets a hostile line
/// overflow the stack; the trace schema nests far less than this.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value. Numbers keep their raw source token.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, as its raw literal token.
    Num(String),
    /// A string (already unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Integer value.
    pub fn u64(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    /// Float value, shortest-roundtrip formatted.
    pub fn f64(v: f64) -> Json {
        Json::Num(format!("{v:?}"))
    }

    /// String value.
    pub fn str(v: &str) -> Json {
        Json::Str(v.to_string())
    }

    /// `Some(v)` → `f(v)`, `None` → `null`.
    pub fn opt<T>(v: &Option<T>, f: impl Fn(&T) -> Json) -> Json {
        match v {
            Some(x) => f(x),
            None => Json::Null,
        }
    }

    // -- extraction (all return a message naming what was expected) --

    /// This value as a bool.
    pub fn as_bool(&self) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(format!("expected bool, got {other:?}")),
        }
    }

    /// This value as a `u64` (exact integer parse).
    pub fn as_u64(&self) -> Result<u64, String> {
        match self {
            Json::Num(raw) => parse_u64(raw),
            other => Err(format!("expected number, got {other:?}")),
        }
    }

    /// This value as a `usize`.
    pub fn as_usize(&self) -> Result<usize, String> {
        self.as_u64().map(|v| v as usize)
    }

    /// This value as a `u32`.
    pub(crate) fn as_u32(&self) -> Result<u32, String> {
        narrow(self.as_u64()?)
    }

    /// This value as a `u8`.
    pub(crate) fn as_u8(&self) -> Result<u8, String> {
        narrow(self.as_u64()?)
    }

    /// This value as an `f64` (exact shortest-roundtrip inverse).
    pub fn as_f64(&self) -> Result<f64, String> {
        match self {
            Json::Num(raw) => parse_f64(raw),
            other => Err(format!("expected number, got {other:?}")),
        }
    }

    /// This value as a string slice.
    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("expected string, got {other:?}")),
        }
    }

    /// This value as an array.
    pub fn as_arr(&self) -> Result<&[Json], String> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(format!("expected array, got {other:?}")),
        }
    }

    /// This value as an object.
    pub fn as_obj(&self) -> Result<&[(String, Json)], String> {
        match self {
            Json::Obj(fields) => Ok(fields),
            other => Err(format!("expected object, got {other:?}")),
        }
    }

    /// Required object field.
    pub fn get(&self, key: &str) -> Result<&Json, String> {
        for (k, v) in self.as_obj()? {
            if k == key {
                return Ok(v);
            }
        }
        Err(missing(key))
    }

    /// Optional object field: absent or `null` both read as `None`.
    pub(crate) fn get_opt(&self, key: &str) -> Result<Option<&Json>, String> {
        for (k, v) in self.as_obj()? {
            if k == key {
                return Ok(if matches!(v, Json::Null) { None } else { Some(v) });
            }
        }
        Ok(None)
    }

    // -- rendering --

    /// Render to a compact single-line JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut Writer::new(&mut out));
        out
    }

    /// Emit this value through `w`.
    pub(crate) fn write(&self, w: &mut Writer<'_>) {
        match self {
            Json::Null => w.null(),
            Json::Bool(b) => w.bool(*b),
            Json::Num(raw) => w.raw(raw),
            Json::Str(s) => w.str(s),
            Json::Arr(items) => {
                w.open_arr();
                for item in items {
                    item.write(w);
                }
                w.close_arr();
            }
            Json::Obj(fields) => {
                w.open_obj();
                for (k, v) in fields {
                    w.key(k);
                    v.write(w);
                }
                w.close_obj();
            }
        }
    }

    /// Parse one JSON document from `src` (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(src: &str) -> Result<Json, String> {
        Cursor::new(src).document()
    }
}

/// The "missing field" error of a required object field.
pub(crate) fn missing(key: &str) -> String {
    format!("missing field {key:?}")
}

fn parse_u64(raw: &str) -> Result<u64, String> {
    raw.parse::<u64>()
        .map_err(|e| format!("bad u64 {raw:?}: {e}"))
}

fn parse_f64(raw: &str) -> Result<f64, String> {
    raw.parse::<f64>()
        .map_err(|e| format!("bad f64 {raw:?}: {e}"))
}

/// `v` as a narrower unsigned integer.
fn narrow<T: TryFrom<u64>>(v: u64) -> Result<T, String> {
    T::try_from(v).map_err(|_| format!("{v} out of {} range", std::any::type_name::<T>()))
}

/// Streaming JSON emitter: appends compact JSON to a `String`, placing
/// the commas between keys and items itself. Open and close containers
/// and name keys in document order; the caller owns the nesting.
pub(crate) struct Writer<'a> {
    out: &'a mut String,
    /// A value was just completed, so the next key or item at this
    /// level needs a comma first.
    sep: bool,
}

impl<'a> Writer<'a> {
    /// An emitter appending to `out`.
    pub(crate) fn new(out: &'a mut String) -> Self {
        Writer { out, sep: false }
    }

    /// Start a value: a comma if one precedes it at this level.
    fn value(&mut self) -> &mut String {
        if std::mem::replace(&mut self.sep, true) {
            self.out.push(',');
        }
        &mut *self.out
    }

    /// An object key; its value comes next.
    pub(crate) fn key(&mut self, k: &str) -> &mut Self {
        self.value();
        push_str_escaped(k, self.out);
        self.out.push(':');
        self.sep = false;
        self
    }

    pub(crate) fn open_obj(&mut self) {
        self.value().push('{');
        self.sep = false;
    }

    pub(crate) fn close_obj(&mut self) {
        self.out.push('}');
        self.sep = true;
    }

    pub(crate) fn open_arr(&mut self) {
        self.value().push('[');
        self.sep = false;
    }

    pub(crate) fn close_arr(&mut self) {
        self.out.push(']');
        self.sep = true;
    }

    pub(crate) fn null(&mut self) {
        self.value().push_str("null");
    }

    pub(crate) fn bool(&mut self, b: bool) {
        self.value().push_str(if b { "true" } else { "false" });
    }

    /// A decimal integer.
    pub(crate) fn u64(&mut self, v: u64) {
        let _ = write!(self.value(), "{v}");
    }

    /// A float, shortest-roundtrip formatted.
    pub(crate) fn f64(&mut self, v: f64) {
        let _ = write!(self.value(), "{v:?}");
    }

    /// `Some(v)` as a float, `None` as `null`.
    pub(crate) fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(v) => self.f64(v),
            None => self.null(),
        }
    }

    /// A number, as its raw token.
    fn raw(&mut self, token: &str) {
        self.value().push_str(token);
    }

    /// A string, escaped.
    pub(crate) fn str(&mut self, s: &str) {
        push_str_escaped(s, self.value());
    }
}

fn push_str_escaped(s: &str, out: &mut String) {
    out.push('"');
    if !s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        out.push_str(s);
    } else {
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
    }
    out.push('"');
}

/// Streaming JSON lexer over a borrowed line. Each call skips the
/// whitespace before its token. Containers are walked with
/// [`Cursor::open_obj`] + [`Cursor::key`] and [`Cursor::open_arr`] +
/// [`Cursor::item`], which check the commas and the closing bracket;
/// scalars with the typed readers; and anything a schema does not
/// know with [`Cursor::skip`], which validates it as [`Json::parse`]
/// would. Errors name the byte offset where the input went wrong.
pub(crate) struct Cursor<'a> {
    /// The input, which keys, strings and number tokens borrow from.
    text: &'a str,
    /// `text`'s bytes, which every scan walks.
    src: &'a [u8],
    at: usize,
    /// Arrays and objects currently open.
    depth: usize,
    /// A container was just opened: its first key or item comes without
    /// a comma, and it may close at once.
    fresh: bool,
    /// Decode strings with [`Cursor::reference_string`] instead.
    #[cfg(test)]
    reference: bool,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `text`.
    pub(crate) fn new(text: &'a str) -> Self {
        Cursor {
            text,
            src: text.as_bytes(),
            at: 0,
            depth: 0,
            fresh: false,
            #[cfg(test)]
            reference: false,
        }
    }

    /// One value, surrounded by optional whitespace, and nothing else.
    fn document(mut self) -> Result<Json, String> {
        let v = self.tree()?;
        self.finish()?;
        Ok(v)
    }

    /// Only whitespace may follow.
    pub(crate) fn finish(&mut self) -> Result<(), String> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(format!("trailing data at byte {}", self.at)),
        }
    }

    /// The next byte after whitespace, not consumed.
    fn peek(&mut self) -> Option<u8> {
        while let Some(&b) = self.src.get(self.at) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.at += 1;
            } else {
                return Some(b);
            }
        }
        None
    }

    fn eat(&mut self, token: &str) -> bool {
        if self.src[self.at..].starts_with(token.as_bytes()) {
            self.at += token.len();
            true
        } else {
            false
        }
    }

    fn expected(&self, what: &str) -> String {
        format!("expected {what} at byte {}", self.at)
    }

    /// Enter the array or object whose bracket is next, rejecting it
    /// past [`MAX_DEPTH`].
    fn open(&mut self) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.at
            ));
        }
        self.depth += 1;
        self.at += 1;
        self.fresh = true;
        Ok(())
    }

    fn close(&mut self) {
        self.depth -= 1;
        self.at += 1;
    }

    /// Open the object that must come next.
    pub(crate) fn open_obj(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => self.open(),
            _ => Err(self.expected("object")),
        }
    }

    /// Open the array that must come next.
    pub(crate) fn open_arr(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'[') => self.open(),
            _ => Err(self.expected("array")),
        }
    }

    /// The open object's next key, its `:` consumed so the value comes
    /// next; `None` once the object closes.
    pub(crate) fn key(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        let fresh = std::mem::take(&mut self.fresh);
        match self.peek() {
            Some(b'}') => {
                self.close();
                return Ok(None);
            }
            Some(b',') if !fresh => self.at += 1,
            _ if !fresh => return Err(self.expected("',' or '}'")),
            _ => {}
        }
        if self.peek() != Some(b'"') {
            return Err(self.expected("object key"));
        }
        let key = self.string()?;
        if self.peek() != Some(b':') {
            return Err(self.expected("':'"));
        }
        self.at += 1;
        Ok(Some(key))
    }

    /// Whether the open array has another item, which comes next;
    /// `false` once the array closes.
    pub(crate) fn item(&mut self) -> Result<bool, String> {
        let fresh = std::mem::take(&mut self.fresh);
        match self.peek() {
            Some(b']') => {
                self.close();
                Ok(false)
            }
            Some(b',') if !fresh => {
                self.at += 1;
                Ok(true)
            }
            _ if !fresh => Err(self.expected("',' or ']'")),
            _ => Ok(true),
        }
    }

    /// Consume a `null` if one comes next.
    fn null(&mut self) -> bool {
        self.peek() == Some(b'n') && self.eat("null")
    }

    /// The bool that must come next.
    pub(crate) fn bool(&mut self) -> Result<bool, String> {
        match self.peek() {
            Some(b't') if self.eat("true") => Ok(true),
            Some(b'f') if self.eat("false") => Ok(false),
            _ => Err(self.expected("bool")),
        }
    }

    /// The string that must come next, borrowed unless it holds an
    /// escape.
    pub(crate) fn str(&mut self) -> Result<Cow<'a, str>, String> {
        match self.peek() {
            Some(b'"') => self.string(),
            _ => Err(self.expected("string")),
        }
    }

    /// The number token that must come next, not yet validated: sign,
    /// digits, `.` and exponent characters, or `NaN`, `inf`, `-inf`.
    /// (Non-finite tokens appear only if someone recorded a non-finite
    /// float; they are accepted so that the error surfaces at the schema
    /// layer, "power was NaN", instead of as a parse failure.)
    fn number_token(&mut self) -> Result<&'a str, String> {
        let start = match self.peek() {
            None => return Err("unexpected end of input".to_string()),
            Some(_) => self.at,
        };
        let special = match self.src[start] {
            b'N' => self.eat("NaN"),
            b'i' => self.eat("inf"),
            b'-' => {
                self.at += 1;
                self.eat("inf")
            }
            _ => false,
        };
        if !special {
            while let Some(&b) = self.src.get(self.at) {
                match b {
                    b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-' => self.at += 1,
                    _ => break,
                }
            }
            if self.at == start {
                return Err(format!("expected a value at byte {start}"));
            }
        }
        // Every byte of the token is ASCII: a char boundary either side.
        Ok(&self.text[start..self.at])
    }

    /// The number token that must come next, validated as a float.
    fn number(&mut self) -> Result<&'a str, String> {
        let raw = self.number_token()?;
        raw.parse::<f64>().map_err(|e| format!("bad number {raw:?}: {e}"))?;
        Ok(raw)
    }

    /// The float that must come next (exact shortest-roundtrip inverse).
    pub(crate) fn f64(&mut self) -> Result<f64, String> {
        let raw = self.number_token()?;
        parse_f64(raw)
    }

    /// The unsigned integer that must come next, parsed exactly.
    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        let raw = self.number_token()?;
        parse_u64(raw)
    }

    pub(crate) fn usize(&mut self) -> Result<usize, String> {
        self.u64().map(|v| v as usize)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, String> {
        narrow(self.u64()?)
    }

    pub(crate) fn u16(&mut self) -> Result<u16, String> {
        narrow(self.u64()?)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, String> {
        narrow(self.u64()?)
    }

    /// `null` as `None`, anything else through `read`.
    pub(crate) fn opt<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        if self.null() {
            Ok(None)
        } else {
            read(self).map(Some)
        }
    }

    /// The array that must come next, each item read by `read`.
    pub(crate) fn array<T>(
        &mut self,
        mut read: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.open_arr()?;
        let mut items = Vec::new();
        while self.item()? {
            items.push(read(self)?);
        }
        Ok(items)
    }

    /// The object that must come next: `field` is handed each key with
    /// the cursor at its value, which it must read or [`Cursor::skip`].
    pub(crate) fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, &str) -> Result<(), String>,
    ) -> Result<(), String> {
        self.open_obj()?;
        while let Some(key) = self.key()? {
            field(self, &key)?;
        }
        Ok(())
    }

    /// Pass over the next value, validating it as [`Json::parse`] does.
    pub(crate) fn skip(&mut self) -> Result<(), String> {
        self.tree().map(drop)
    }

    /// The next value as a tree.
    fn tree(&mut self) -> Result<Json, String> {
        Ok(match self.peek() {
            None => return Err("unexpected end of input".to_string()),
            Some(b'n') if self.eat("null") => Json::Null,
            Some(b't') if self.eat("true") => Json::Bool(true),
            Some(b'f') if self.eat("false") => Json::Bool(false),
            Some(b'"') => Json::Str(self.string()?.into_owned()),
            Some(b'[') => Json::Arr(self.array(Self::tree)?),
            Some(b'{') => {
                let mut fields = Vec::new();
                self.object(|c, key| {
                    fields.push((key.to_string(), c.tree()?));
                    Ok(())
                })?;
                Json::Obj(fields)
            }
            Some(_) => Json::Num(self.number()?.to_string()),
        })
    }

    /// The string whose opening quote is next. Plain characters run up
    /// to the next quote or backslash, or to the end of input, which is
    /// reported as unterminated; both bytes are ASCII, which never
    /// occurs inside a multi-byte sequence, so a run starts and ends on
    /// char boundaries. A string with no escape is borrowed whole; one
    /// with an escape is copied run by run, so the scan is linear in the
    /// string's length either way.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        #[cfg(test)]
        if self.reference {
            return self.reference_string().map(Cow::Owned);
        }
        self.at += 1; // opening quote
        let start = self.at;
        let run = self.run_end();
        match self.src.get(run) {
            Some(b'"') => {
                self.at = run + 1;
                return Ok(Cow::Borrowed(&self.text[start..run]));
            }
            Some(_) => {}
            None => return Err("unterminated string".to_string()),
        }
        let mut out = String::from(&self.text[start..run]);
        self.at = run;
        loop {
            match self.src.get(self.at) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => self.escape(&mut out)?,
                Some(_) => {
                    let run = self.run_end();
                    out.push_str(&self.text[self.at..run]);
                    self.at = run;
                }
            }
        }
    }

    /// Where the run of plain string characters from here ends: the
    /// next `"` or `\`, or the end of input.
    fn run_end(&self) -> usize {
        self.src[self.at..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .map_or(self.src.len(), |n| self.at + n)
    }

    /// One backslash escape, appended to `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        self.at += 1; // backslash
        let Some(&esc) = self.src.get(self.at) else {
            return Err("unterminated escape".to_string());
        };
        self.at += 1;
        match esc {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    if !self.eat("\\u") {
                        return Err("lone high surrogate".to_string());
                    }
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err("bad low surrogate".to_string());
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                out.push(char::from_u32(code).ok_or_else(|| format!("bad codepoint {code:#x}"))?);
            }
            other => return Err(format!("bad escape \\{}", other as char)),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.at + 4;
        let hex = self
            .src
            .get(self.at..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or("truncated \\u escape")?;
        let v = u32::from_str_radix(hex, 16).map_err(|e| format!("bad \\u escape: {e}"))?;
        self.at = end;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;

    impl Cursor<'_> {
        /// The char-at-a-time decoder the linear scan replaced, kept as
        /// the property's reference: it re-validates the rest of the
        /// input for every plain character, so it is quadratic.
        pub(super) fn reference_string(&mut self) -> Result<String, String> {
            self.at += 1; // opening quote
            let mut out = String::new();
            loop {
                let Some(&b) = self.src.get(self.at) else {
                    return Err("unterminated string".to_string());
                };
                match b {
                    b'"' => {
                        self.at += 1;
                        return Ok(out);
                    }
                    b'\\' => self.escape(&mut out)?,
                    _ => {
                        // Consume one UTF-8 character.
                        let rest = std::str::from_utf8(&self.src[self.at..])
                            .map_err(|_| "non-utf8 string".to_string())?;
                        let c = rest.chars().next().ok_or("unterminated string")?;
                        out.push(c);
                        self.at += c.len_utf8();
                    }
                }
            }
        }
    }

    /// [`Json::parse`] with the reference string decoder.
    fn reference_parse(src: &str) -> Result<Json, String> {
        Cursor {
            reference: true,
            ..Cursor::new(src)
        }
        .document()
    }

    /// String contents: plain ASCII, multi-byte UTF-8, every escape the
    /// parser knows (surrogate pairs included), then broken escapes.
    const PIECES: [&str; 23] = [
        "a", "key", " ", "\u{e9}", "\u{20ac}", "\u{1f600}", "\u{7ff}", "\\\"", "\\\\", "\\/",
        "\\b", "\\f", "\\n", "\\r", "\\t", "\\u0041", "\\u00e9", "\\ud83d\\ude00",
        // Broken: drawn one time in eight.
        "\\ud83d", "\\udc00x", "\\u12", "\\q", "\\",
    ];
    const GOOD_PIECES: usize = 18;

    fn below(rng: &mut TestRng, n: usize) -> usize {
        (rng.next_u64() % n as u64) as usize
    }

    fn push_string(rng: &mut TestRng, out: &mut String) {
        out.push('"');
        for _ in 0..below(rng, 8) {
            let piece = if rng.next_u64().is_multiple_of(8) {
                GOOD_PIECES + below(rng, PIECES.len() - GOOD_PIECES)
            } else {
                below(rng, GOOD_PIECES)
            };
            out.push_str(PIECES[piece]);
        }
        out.push('"');
    }

    fn push_value(rng: &mut TestRng, depth: usize, out: &mut String) {
        const SCALARS: [&str; 10] = [
            "null", "true", "false", "NaN", "-inf",
            "0", "-1", "2.5e-3", "18446744073709551615", "1e",
        ];
        match below(rng, if depth >= 3 { 3 } else { 5 }) {
            0 => out.push_str(SCALARS[below(rng, SCALARS.len())]),
            1 => push_string(rng, out),
            2 => {
                // A number token glued to whitespace, as the emitter never does.
                out.push_str(SCALARS[5 + below(rng, 4)]);
                out.push_str([" ", "\t", "\r\n", ""][below(rng, 4)]);
            }
            3 => {
                out.push('[');
                for i in 0..below(rng, 4) {
                    if i > 0 {
                        out.push(',');
                    }
                    push_value(rng, depth + 1, out);
                }
                out.push(']');
            }
            _ => {
                out.push('{');
                for i in 0..below(rng, 4) {
                    if i > 0 {
                        out.push(',');
                    }
                    push_string(rng, out);
                    out.push(':');
                    push_value(rng, depth + 1, out);
                }
                out.push('}');
            }
        }
    }

    /// Byte offsets of `s`'s char boundaries, its end included.
    fn cuts(s: &str) -> Vec<usize> {
        s.char_indices().map(|(i, _)| i).chain([s.len()]).collect()
    }

    /// A random document, as written or truncated, or with a slice of a
    /// second document spliced in (all cuts on char boundaries).
    struct Docs;

    impl Strategy for Docs {
        type Value = String;
        fn sample(&self, rng: &mut TestRng) -> String {
            let mut doc = String::new();
            push_value(rng, 0, &mut doc);
            let cut = cuts(&doc);
            match below(rng, 3) {
                0 => doc,
                1 => doc[..cut[below(rng, cut.len())]].to_string(),
                _ => {
                    let mut other = String::new();
                    push_value(rng, 0, &mut other);
                    let from = cuts(&other);
                    let (a, b) = (from[below(rng, from.len())], from[below(rng, from.len())]);
                    let at = cut[below(rng, cut.len())];
                    format!("{}{}{}", &doc[..at], &other[a.min(b)..a.max(b)], &doc[at..])
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2048 })]

        /// The linear string scan decodes exactly what the char-at-a-time
        /// reference does: the same value, or the same error text.
        #[test]
        fn prop_linear_parse_matches_reference(doc in Docs) {
            prop_assert_eq!(Json::parse(&doc), reference_parse(&doc));
        }
    }

    #[test]
    fn megabyte_line_round_trips_byte_identically() {
        // Every character the emitter escapes, `/`, and multi-byte UTF-8.
        let unit = "plain é😀 \" \\ \n \r \t \u{8} \u{c} \u{1} \u{1f} / ";
        let numbers = (0..40_000u32)
            .map(|i| {
                if i % 2 == 0 {
                    Json::u64(u64::from(i) * 7919)
                } else {
                    Json::f64(f64::from(i) / 3.0)
                }
            })
            .collect();
        let doc = Json::Obj(vec![
            ("text".to_string(), Json::Str(unit.repeat(20_000))),
            ("numbers".to_string(), Json::Arr(numbers)),
        ]);
        let line = doc.render();
        assert!(line.len() >= 1 << 20, "only {} bytes", line.len());
        assert!(!line.contains('\n'), "one line");
        let back = Json::parse(&line).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.render(), line);
    }

    #[test]
    fn surrogate_pairs_decode_and_re_render() {
        let v = Json::parse("\"\\ud83d\\ude00|\\ud800\\udc00|\\udbff\\udfff\"").unwrap();
        assert_eq!(v, Json::str("😀|\u{10000}|\u{10ffff}"));
        let text = v.render();
        assert_eq!(text, "\"😀|\u{10000}|\u{10ffff}\"");
        assert_eq!(Json::parse(&text).unwrap(), v);
        // The escapes the emitter never writes decode too.
        let v = Json::parse("\"\\/\\b\\f\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "/\u{8}\u{c}");
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn floats_round_trip_exactly() {
        for v in [
            0.0,
            -0.0,
            0.1,
            1.0 / 3.0,
            123_456.789_012_345,
            f64::MIN_POSITIVE,
            f64::MAX,
            1e-300,
            -2.5e17,
        ] {
            let j = Json::f64(v);
            let text = j.render();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "{v} mangled via {text}");
        }
    }

    #[test]
    fn u64_round_trips_exactly_beyond_2_53() {
        let v = u64::MAX - 12345;
        let text = Json::u64(v).render();
        assert_eq!(Json::parse(&text).unwrap().as_u64().unwrap(), v);
    }

    #[test]
    fn nested_document_round_trips() {
        let doc = Json::Obj(vec![
            ("label".to_string(), Json::str("Token@Low-PB \"quoted\" \\ line\nbreak")),
            ("flag".to_string(), Json::Bool(true)),
            ("nothing".to_string(), Json::Null),
            (
                "items".to_string(),
                Json::Arr(vec![Json::u64(1), Json::f64(2.5), Json::Arr(vec![])]),
            ),
        ]);
        let text = doc.render();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("not json").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,2").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn unicode_escapes_parse() {
        let v = Json::parse("\"\\u0041\\u00e9\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "Aé😀");
    }

    #[test]
    fn malformed_strings_keep_their_errors() {
        let err = |src: &str| Json::parse(src).unwrap_err();
        assert_eq!(err("\"abc"), "unterminated string");
        assert_eq!(err(&format!("\"{}", "é😀".repeat(64))), "unterminated string");
        assert_eq!(err("\"abc\\"), "unterminated escape");
        assert_eq!(err("\"\\q\""), "bad escape \\q");
        assert_eq!(err("\"\\u12"), "truncated \\u escape");
        assert_eq!(err("\"\\u123é\""), "truncated \\u escape");
        assert_eq!(err("\"\\ud83d\""), "lone high surrogate");
        assert_eq!(err("\"\\ud83d\\u0041\""), "bad low surrogate");
        assert!(err("\"\\uzzzz\"").starts_with("bad \\u escape"));
        assert_eq!(err("[\"a\"\"b\"]"), "expected ',' or ']' at byte 4");
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let err = |src: &str| Json::parse(src).unwrap_err();
        let limit = |at: usize| format!("nesting deeper than {MAX_DEPTH} at byte {at}");
        assert_eq!(err(&"[".repeat(1 << 20)), limit(MAX_DEPTH));
        assert_eq!(err(&"{\"k\":".repeat(1 << 18)), limit(5 * MAX_DEPTH));
        assert_eq!(err(&"{".repeat(1 << 20)), "expected object key at byte 1");
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&deep(MAX_DEPTH)).is_ok());
        assert_eq!(err(&deep(MAX_DEPTH + 1)), limit(MAX_DEPTH));
    }

    #[test]
    fn get_opt_treats_null_and_absent_alike() {
        let v = Json::parse("{\"a\":null,\"b\":1}").unwrap();
        assert!(v.get_opt("a").unwrap().is_none());
        assert!(v.get_opt("c").unwrap().is_none());
        assert_eq!(v.get_opt("b").unwrap().unwrap().as_u64().unwrap(), 1);
    }
}
