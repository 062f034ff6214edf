//! The on-disk JSON dialect: a minimal object writer, its reader, and the
//! one place a JSON key meets a Rust type.
//!
//! The journal and report serializers need exactly one shape — a flat-ish
//! object with string/number/bool/array fields written in a fixed order —
//! so a small writer ([`Obj`]) and reader ([`parse`], [`Fields`]) beat a
//! serde dependency. Field order is the insertion order, which keeps
//! serialized output deterministic.
//!
//! Every type that appears in a journal line, a span line or a report
//! implements [`Json`]: one `write` and one `read`, side by side. A field is
//! required when its Rust type is `T` and optional when it is `Option<T>`
//! ([`Field`]): an absent optional key reads as `None`; a missing required
//! key, a value of the wrong type and a number out of range are
//! [`ReadError`]s that name the key.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::time::Duration;

/// Escape a string for inclusion in a JSON document (without quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

fn escape_into(out: &mut String, s: &str) {
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

/// Append `s` as a quoted, escaped JSON string.
pub(crate) fn quote_into(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Format an `f64` as a JSON number (JSON has no NaN/Infinity; those
/// serialize as `null`).
pub fn number(value: f64) -> String {
    if value.is_finite() {
        // `{:?}` round-trips f64 exactly while keeping short decimals short.
        format!("{value:?}")
    } else {
        "null".to_owned()
    }
}

/// Incremental writer for one JSON object.
#[derive(Debug)]
pub struct Obj {
    buf: String,
    first: bool,
}

impl Obj {
    /// Start a new object (`{`).
    pub fn new() -> Self {
        Obj { buf: String::from("{"), first: true }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        quote_into(&mut self.buf, key);
        self.buf.push(':');
    }

    /// Add a field of any schema type; `None` is omitted entirely so absent
    /// and zero stay distinguishable.
    pub fn field<T: Field>(self, key: &str, value: &T) -> Self {
        value.put(self, key)
    }

    /// Add a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        quote_into(&mut self.buf, value);
        self
    }

    /// Add an unsigned integer field (`u64`, or anything that widens to it).
    pub fn u64(self, key: &str, value: u64) -> Self {
        self.field(key, &value)
    }

    /// Add a float field.
    pub fn f64(self, key: &str, value: f64) -> Self {
        self.field(key, &value)
    }

    /// Add a boolean field.
    pub fn bool(self, key: &str, value: bool) -> Self {
        self.field(key, &value)
    }

    /// Add an array-of-unsigned field.
    pub fn u64_array(self, key: &str, values: impl IntoIterator<Item = u64>) -> Self {
        self.field(key, &values.into_iter().collect::<Vec<u64>>())
    }

    /// Add a field whose value is already-serialized JSON.
    pub fn raw(mut self, key: &str, json: &str) -> Self {
        self.key(key);
        self.buf.push_str(json);
        self
    }

    /// Add an optional unsigned field; `None` is omitted entirely so absent
    /// and zero stay distinguishable.
    pub fn opt_u64(self, key: &str, value: Option<u64>) -> Self {
        self.field(key, &value)
    }

    /// Close the object (`}`) and return the serialized string.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for Obj {
    fn default() -> Self {
        Obj::new()
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null` (what the writer produces for non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal (no fraction, no exponent), kept
    /// exact: journal counters are `u64` and must not travel through `f64`.
    Int(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, fields in document order.
    Obj(Vec<(String, Value)>),
}

/// A JSON syntax error with its byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Deepest nesting [`parse`] accepts. The dialect needs four levels (a
/// histogram inside `histograms` inside `metrics` inside the report
/// wrapper); the bound keeps a hostile line from overflowing the stack.
const MAX_DEPTH: usize = 16;

/// Parse one JSON document; trailing whitespace is allowed, trailing
/// content is an error.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing content"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> ParseError {
        ParseError { message: message.to_string(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{text}'")))
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            // Journal writers only emit BMP escapes for
                            // control characters; surrogates are rejected.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 code point.
                    let start = self.pos;
                    let rest = &self.bytes[start..];
                    let len = match rest[0] {
                        b if b < 0x80 => 1,
                        b if b >= 0xf0 => 4,
                        b if b >= 0xe0 => 3,
                        _ => 2,
                    };
                    let chunk = rest
                        .get(..len)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or_else(|| self.error("invalid UTF-8"))?;
                    out.push_str(chunk);
                    self.pos += len;
                }
            }
        }
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        let mut integer = self.peek() != Some(b'-');
        if !integer {
            self.pos += 1;
        }
        self.digits();
        if self.peek() == Some(b'.') {
            integer = false;
            self.pos += 1;
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integer = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits();
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if integer {
            // Exact, and rejected rather than saturated when it does not fit.
            text.parse().map(Value::Int).map_err(|_| self.error("integer does not fit u64"))
        } else {
            text.parse().map(Value::Num).map_err(|_| self.error("bad number"))
        }
    }
}

/// Why a document could not be read back into its Rust type: JSON syntax,
/// or a key that is missing, of the wrong type, or out of range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadError(pub String);

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ReadError {}

impl From<ParseError> for ReadError {
    fn from(e: ParseError) -> Self {
        ReadError(e.to_string())
    }
}

/// A Rust type with exactly one JSON spelling. `write` and `read` are each
/// other's inverse, and these impls are the only code that knows how a
/// Rust type looks on disk.
pub trait Json: Sized {
    /// Append the value's JSON text.
    fn write(&self, out: &mut String);
    /// Read the value back; wrong type and out-of-range are errors.
    fn read(value: &Value) -> Result<Self, ReadError>;
}

fn expected<T>(what: &str) -> Result<T, ReadError> {
    Err(ReadError(format!("expected {what}")))
}

macro_rules! json_unsigned {
    ($($t:ty),*) => {$(
        impl Json for $t {
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
            fn read(value: &Value) -> Result<Self, ReadError> {
                match value {
                    Value::Int(n) => <$t>::try_from(*n).or_else(|_| expected(stringify!($t))),
                    _ => expected(stringify!($t)),
                }
            }
        }
    )*};
}
json_unsigned!(u32, u64, usize);

impl Json for bool {
    fn write(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
    fn read(value: &Value) -> Result<Self, ReadError> {
        match value {
            Value::Bool(b) => Ok(*b),
            _ => expected("a bool"),
        }
    }
}

/// Non-finite floats are written as `null` and read back as NaN: the one
/// lossy spelling in the dialect (an infinity does not survive).
impl Json for f64 {
    fn write(&self, out: &mut String) {
        out.push_str(&number(*self));
    }
    fn read(value: &Value) -> Result<Self, ReadError> {
        match value {
            Value::Num(n) => Ok(*n),
            Value::Int(n) => Ok(*n as f64),
            Value::Null => Ok(f64::NAN),
            _ => expected("a number"),
        }
    }
}

impl Json for String {
    fn write(&self, out: &mut String) {
        quote_into(out, self);
    }
    fn read(value: &Value) -> Result<Self, ReadError> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            _ => expected("a string"),
        }
    }
}

impl<T: Json> Json for Vec<T> {
    fn write(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write(out);
        }
        out.push(']');
    }
    fn read(value: &Value) -> Result<Self, ReadError> {
        match value {
            Value::Arr(items) => items.iter().map(T::read).collect(),
            _ => expected("an array"),
        }
    }
}

/// A name-keyed table (event counts, counters, gauges, histograms): an
/// object whose keys are data, in the map's sorted order.
impl<T: Json> Json for BTreeMap<String, T> {
    fn write(&self, out: &mut String) {
        let mut obj = Obj::new();
        for (name, value) in self {
            obj = obj.field(name, value);
        }
        out.push_str(&obj.finish());
    }
    fn read(value: &Value) -> Result<Self, ReadError> {
        let Value::Obj(fields) = value else { return expected("an object") };
        fields
            .iter()
            .map(|(name, v)| match T::read(v) {
                Ok(v) => Ok((name.clone(), v)),
                Err(e) => Err(ReadError(format!("key {name:?}: {e}"))),
            })
            .collect()
    }
}

/// Wall-clock totals by label: each key carries an `_ns` suffix and each
/// value is integer nanoseconds.
impl Json for BTreeMap<String, Duration> {
    fn write(&self, out: &mut String) {
        let nanos: BTreeMap<String, u64> =
            self.iter().map(|(label, d)| (format!("{label}_ns"), d.as_nanos() as u64)).collect();
        nanos.write(out);
    }
    fn read(value: &Value) -> Result<Self, ReadError> {
        BTreeMap::<String, u64>::read(value)?
            .into_iter()
            .map(|(key, ns)| match key.strip_suffix("_ns") {
                Some(label) => Ok((label.to_owned(), Duration::from_nanos(ns))),
                None => Err(ReadError(format!("key {key:?}: expected an `_ns` suffix"))),
            })
            .collect()
    }
}

/// One field of an object: required when the type is `T`, optional when it
/// is `Option<T>`.
pub trait Field: Sized {
    /// Append `key: self` to `obj`.
    fn put(&self, obj: Obj, key: &str) -> Obj;
    /// Take `key` out of `fields`.
    fn take(fields: &mut Fields<'_>, key: &str) -> Result<Self, ReadError>;
}

fn read_key<T: Json>(value: &Value, key: &str) -> Result<T, ReadError> {
    T::read(value).map_err(|e| ReadError(format!("key {key:?}: {e}")))
}

impl<T: Json> Field for T {
    fn put(&self, mut obj: Obj, key: &str) -> Obj {
        obj.key(key);
        self.write(&mut obj.buf);
        obj
    }
    fn take(fields: &mut Fields<'_>, key: &str) -> Result<Self, ReadError> {
        match fields.get(key) {
            Some(value) => read_key(value, key),
            None => Err(ReadError(format!("missing required key {key:?}"))),
        }
    }
}

impl<T: Json> Field for Option<T> {
    fn put(&self, obj: Obj, key: &str) -> Obj {
        match self {
            Some(value) => value.put(obj, key),
            None => obj,
        }
    }
    fn take(fields: &mut Fields<'_>, key: &str) -> Result<Self, ReadError> {
        fields.get(key).map(|value| read_key(value, key)).transpose()
    }
}

/// The reading counterpart of [`Obj`]: the keys of one parsed object, taken
/// by name. Keys nobody takes are counted, not fatal — that is how a
/// reader tolerates a newer writer.
#[derive(Debug)]
pub struct Fields<'a> {
    fields: &'a [(String, Value)],
    taken: usize,
}

impl<'a> Fields<'a> {
    /// Open a parsed value, which must be an object.
    pub fn of(value: &'a Value) -> Result<Self, ReadError> {
        match value {
            Value::Obj(fields) => Ok(Fields { fields, taken: 0 }),
            _ => expected("an object"),
        }
    }

    fn get(&mut self, key: &str) -> Option<&'a Value> {
        let (_, value) = self.fields.iter().find(|(k, _)| k == key)?;
        self.taken += 1;
        Some(value)
    }

    /// Take the field named `key` as a `T` (or `Option<T>`).
    pub fn take<T: Field>(&mut self, key: &str) -> Result<T, ReadError> {
        T::take(self, key)
    }

    /// Keys present in the object that nothing took.
    pub fn unread(&self) -> usize {
        self.fields.len().saturating_sub(self.taken)
    }
}

/// Declare a struct whose JSON form is an object with one key per field,
/// named after the field, in declaration order. The struct, its writer and
/// its reader all come from the one field list, so they cannot drift apart.
macro_rules! json_record {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* pub $field:ident: $ty:ty, )*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$fmeta])* pub $field: $ty, )*
        }

        impl $crate::json::Json for $name {
            fn write(&self, out: &mut String) {
                let obj = $crate::json::Obj::new()
                    $( .field(stringify!($field), &self.$field) )*;
                out.push_str(&obj.finish());
            }
            fn read(value: &$crate::json::Value) -> Result<Self, $crate::json::ReadError> {
                let mut fields = $crate::json::Fields::of(value)?;
                Ok($name { $( $field: fields.take(stringify!($field))?, )* })
            }
        }

        #[cfg(test)]
        impl $crate::json::arb::Arb for $name {
            fn arb(runner: &mut proptest::test_runner::TestRunner) -> Self {
                $name { $( $field: $crate::json::arb::Arb::arb(runner), )* }
            }
        }

        impl $name {
            /// Serialize as one JSON object (no trailing newline), keys in
            /// declaration order.
            pub fn to_json(&self) -> String {
                let mut out = String::new();
                $crate::json::Json::write(self, &mut out);
                out
            }

            /// Read back what [`Self::to_json`] wrote. Unknown extra keys
            /// are ignored; a missing, mistyped or out-of-range key is an
            /// error naming it.
            pub fn from_json(text: &str) -> Result<Self, $crate::json::ReadError> {
                $crate::json::Json::read(&$crate::json::parse(text)?)
            }
        }
    };
}
pub(crate) use json_record;

#[cfg(test)]
/// Test-only generators for every type the schema can hold.
///
/// The vendored `proptest` generates integers, floats and vectors but not
/// strings, options or maps, and the schema's own types need generators
/// anyway. One [`Arb`](arb::Arb) impl per field type mirrors the one
/// [`Json`] impl per field type, so the generated record and
/// `arbitrary_each` generators cover a new field or variant without a test
/// being edited.
pub(crate) mod arb {
    use std::collections::BTreeMap;
    use std::marker::PhantomData;
    use std::time::Duration;

    use proptest::prelude::*;
    use proptest::test_runner::TestRunner;

    /// A type with a test-value generator.
    pub(crate) trait Arb: Sized {
        /// Draw one value, biased towards the edges of the type.
        fn arb(runner: &mut TestRunner) -> Self;
    }

    /// A generator function as a proptest strategy.
    pub(crate) struct FromFn<T>(fn(&mut TestRunner) -> T, PhantomData<T>);

    /// Use `generate` as the strategy of a `proptest!` argument.
    pub(crate) fn from_fn<T>(generate: fn(&mut TestRunner) -> T) -> FromFn<T> {
        FromFn(generate, PhantomData)
    }

    impl<T> Strategy for FromFn<T> {
        type Value = T;
        fn generate(&self, runner: &mut TestRunner) -> T {
            (self.0)(runner)
        }
    }

    /// A uniform index below `n`.
    pub(crate) fn below(runner: &mut TestRunner, n: usize) -> usize {
        (0..n).generate(runner)
    }

    /// An unsigned value in `0..=max` (`max` is all-ones): one draw in three is
    /// an edge of the range or straddles 2^53, where an `f64` detour would round.
    fn unsigned(runner: &mut TestRunner, max: u64) -> u64 {
        const EDGES: [u64; 6] = [0, 1, (1 << 53) + 1, u64::MAX - 1, u64::MAX, u32::MAX as u64];
        match below(runner, 3) {
            0 => EDGES[below(runner, EDGES.len())].min(max),
            _ => (any::<u64>().generate(runner) >> below(runner, 64)) & max,
        }
    }

    impl Arb for u32 {
        fn arb(runner: &mut TestRunner) -> Self {
            unsigned(runner, u64::from(u32::MAX)) as u32
        }
    }

    impl Arb for u64 {
        fn arb(runner: &mut TestRunner) -> Self {
            unsigned(runner, u64::MAX)
        }
    }

    impl Arb for usize {
        fn arb(runner: &mut TestRunner) -> Self {
            unsigned(runner, usize::MAX as u64) as usize
        }
    }

    impl Arb for bool {
        fn arb(runner: &mut TestRunner) -> Self {
            any::<bool>().generate(runner)
        }
    }

    /// Any bit pattern — subnormals, −0.0, huge and tiny magnitudes — except
    /// that the non-finite ones collapse to the canonical NaN: the writer
    /// spells them all `null`, so that is the only one that can come back.
    impl Arb for f64 {
        fn arb(runner: &mut TestRunner) -> Self {
            let value = any::<f64>().generate(runner);
            if value.is_finite() {
                value
            } else {
                f64::NAN
            }
        }
    }

    /// Short strings over an alphabet that needs every escape the writer has,
    /// plus multi-byte UTF-8.
    impl Arb for String {
        fn arb(runner: &mut TestRunner) -> Self {
            const ALPHABET: [char; 14] =
                ['a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'é', '𝄞'];
            (0..below(runner, 9)).map(|_| ALPHABET[below(runner, ALPHABET.len())]).collect()
        }
    }

    impl<T: Arb> Arb for Vec<T> {
        fn arb(runner: &mut TestRunner) -> Self {
            (0..below(runner, 5)).map(|_| T::arb(runner)).collect()
        }
    }

    impl<T: Arb> Arb for Option<T> {
        fn arb(runner: &mut TestRunner) -> Self {
            bool::arb(runner).then(|| T::arb(runner))
        }
    }

    impl<T: Arb> Arb for BTreeMap<String, T> {
        fn arb(runner: &mut TestRunner) -> Self {
            (0..below(runner, 4)).map(|_| (String::arb(runner), T::arb(runner))).collect()
        }
    }

    impl Arb for Duration {
        fn arb(runner: &mut TestRunner) -> Self {
            Duration::from_nanos(u64::arb(runner))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_control_and_quote_characters() {
        assert_eq!(escape("a\"b\\c\nd\te\u{1}"), "a\\\"b\\\\c\\nd\\te\\u0001");
    }

    #[test]
    fn builds_objects_in_insertion_order() {
        let json = Obj::new()
            .str("event", "Test")
            .u64("n", 3)
            .bool("ok", true)
            .u64_array("ids", [1u64, 2])
            .opt_u64("absent", None)
            .opt_u64("present", Some(9))
            .f64("x", 0.5)
            .finish();
        assert_eq!(
            json,
            "{\"event\":\"Test\",\"n\":3,\"ok\":true,\"ids\":[1,2],\"present\":9,\"x\":0.5}"
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(number(1.25), "1.25");
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        let Value::Obj(fields) = v else { panic!("not an object: {v:?}") };
        &fields.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no {key:?}")).1
    }

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a":[1,2.5,-3],"b":{"c":"x\ny"},"d":true,"e":null}"#).unwrap();
        assert_eq!(
            field(&v, "a"),
            &Value::Arr(vec![Value::Int(1), Value::Num(2.5), Value::Num(-3.0)])
        );
        assert_eq!(field(field(&v, "b"), "c"), &Value::Str("x\ny".into()));
        assert_eq!(field(&v, "d"), &Value::Bool(true));
        assert_eq!(field(&v, "e"), &Value::Null);
    }

    #[test]
    fn reads_back_what_the_writer_wrote() {
        let json = Obj::new()
            .str("event", "Test \"quoted\"")
            .u64("n", 12345)
            .f64("x", 0.125)
            .u64_array("ids", [7u64, 8])
            .bool("ok", false)
            .finish();
        let v = parse(&json).unwrap();
        let mut fields = Fields::of(&v).unwrap();
        assert_eq!(fields.take::<String>("event").unwrap(), "Test \"quoted\"");
        assert_eq!(fields.take::<u64>("n").unwrap(), 12345);
        assert_eq!(fields.take::<f64>("x").unwrap(), 0.125);
        assert_eq!(fields.take::<Vec<u64>>("ids").unwrap(), [7, 8]);
        assert_eq!(fields.take::<Option<u64>>("absent").unwrap(), None);
        assert_eq!(fields.unread(), 1, "nobody took \"ok\"");
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"open").is_err());
    }

    #[test]
    fn field_order_is_preserved() {
        let Value::Obj(fields) = parse(r#"{"z":1,"a":2}"#).unwrap() else { panic!() };
        let keys: Vec<_> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "a"]);
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        // 200 KB of '[' used to recurse once per byte and abort the process.
        let err = parse(&"[".repeat(200_000)).unwrap_err();
        assert_eq!(err.message, "nesting too deep");
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(parse(&"{\"a\":".repeat(200_000)).is_err());
        // The dialect's own depth (report > metrics > histograms > one) fits.
        assert!(parse(&format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH))).is_ok());
    }

    #[test]
    fn integers_stay_exact_above_two_to_the_53() {
        assert_eq!(parse("9007199254740993").unwrap(), Value::Int(9_007_199_254_740_993));
        assert_eq!(parse("18446744073709551614").unwrap(), Value::Int(u64::MAX - 1));
        assert_eq!(parse("18446744073709551615").unwrap(), Value::Int(u64::MAX));
        // One past u64::MAX is rejected, not saturated.
        let err = parse("18446744073709551616").unwrap_err();
        assert_eq!(err.message, "integer does not fit u64");
        // A fraction or exponent makes it a float; a float is not a u64.
        assert_eq!(parse("1e3").unwrap(), Value::Num(1000.0));
        assert!(u64::read(&parse("3.0").unwrap()).is_err());
        assert!(u64::read(&parse("-3").unwrap()).is_err());
        assert!(u32::read(&Value::Int(u64::from(u32::MAX) + 1)).is_err());
    }

    #[test]
    fn field_errors_name_the_key() {
        let v = parse(r#"{"n":"seven","m":{"x":true}}"#).unwrap();
        let mut fields = Fields::of(&v).unwrap();
        assert_eq!(fields.take::<u64>("n").unwrap_err().0, "key \"n\": expected u64");
        assert_eq!(
            fields.take::<Option<u64>>("n").unwrap_err().0,
            "key \"n\": expected u64",
            "present-but-mistyped is an error even for an optional key"
        );
        assert_eq!(fields.take::<u64>("absent").unwrap_err().0, "missing required key \"absent\"");
        assert_eq!(
            fields.take::<BTreeMap<String, u64>>("m").unwrap_err().0,
            "key \"m\": key \"x\": expected u64"
        );
        assert!(Fields::of(&Value::Int(1)).is_err());
    }
}
