//! The one text codec behind every recorded artifact.
//!
//! `dex-prof`'s span, series and what-if files, the [`ScheduleLog`] and
//! [`FaultPlan`] replay formats and `dex-bench`'s `BENCH_*.json` results
//! all read and write through this module. Each format keeps only its
//! field mapping; the structural rules live here once:
//!
//! * **Fields.** [`escape_field`] writes free-form text reversibly: `\\`,
//!   `\t`, `\n` and `\r` for the structural characters, `\-` for a literal
//!   `-` (so it cannot be mistaken for a "no value" sentinel) and `\e` for
//!   the empty string (so an empty last field stays visible).
//!   [`unescape_field`] borrows when the field holds no backslash.
//! * **Lines.** A [`Reader`] checks the header line, strips only a CR from
//!   each line end (trailing spaces are content), skips blank lines and
//!   splits rows into fields (on tabs, or on whitespace for the
//!   hand-edited [`FaultPlan`] format). A line that starts with `#` and
//!   holds no raw tab is a [`Meta`] line. An escaped field never holds a
//!   raw tab, so a row whose first field starts with `#` stays a row.
//!   Typed accessors report `line N: bad <what>`.
//! * **JSON.** [`escape_json`] writes a JSON string literal and
//!   [`parse_json`] reads the one shape the results use: an object of
//!   string keys whose values are strings, `u64`s or flat objects of
//!   `u64`s. The reader is strict: it rejects a missing comma, a
//!   duplicate key and anything after the closing brace.
//!
//! [`ScheduleLog`]: crate::ScheduleLog
//! [`FaultPlan`]: crate::FaultPlan

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::{Display, Write as _};
use std::str::FromStr;
use std::sync::Mutex;

/// Appends `s` to `out`, escaped so it survives a tab-separated,
/// line-oriented container losslessly.
pub fn escape_field(out: &mut String, s: &str) {
    match s {
        "" => out.push_str("\\e"),
        "-" => out.push_str("\\-"),
        _ => {
            let mut rest = s;
            while let Some(i) = rest.find(['\\', '\t', '\n', '\r']) {
                out.push_str(&rest[..i]);
                out.push_str(match rest.as_bytes()[i] {
                    b'\\' => "\\\\",
                    b'\t' => "\\t",
                    b'\n' => "\\n",
                    _ => "\\r",
                });
                rest = &rest[i + 1..];
            }
            out.push_str(rest);
        }
    }
}

/// Reverses [`escape_field`]. Errors on truncated or unknown escapes.
pub fn unescape_field(s: &str) -> Result<Cow<'_, str>, String> {
    match s {
        // The two whole-field sentinels, without an allocation.
        "\\e" => return Ok(Cow::Borrowed("")),
        "\\-" => return Ok(Cow::Borrowed("-")),
        _ if !s.contains('\\') => return Ok(Cow::Borrowed(s)),
        _ => {}
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('-') => out.push('-'),
            Some('e') => {} // the empty-string sentinel expands to nothing
            Some(other) => return Err(format!("unknown escape `\\{other}`")),
            None => return Err("truncated escape at end of field".to_string()),
        }
    }
    Ok(Cow::Owned(out))
}

/// `s` made fit for a free-form meta line: tabs, newlines and CRs become
/// spaces, so the line can neither split nor turn into a row.
pub fn meta_text(s: &str) -> Cow<'_, str> {
    if s.contains(['\t', '\n', '\r']) {
        Cow::Owned(s.replace(['\t', '\n', '\r'], " "))
    } else {
        Cow::Borrowed(s)
    }
}

/// Interns a decoded label, returning a `'static` reference (span labels
/// are `&'static str` on the live path).
///
/// Distinct labels are bounded by the number of annotated code sites, so
/// the leak is bounded and shared process-wide.
pub fn intern(label: &str) -> &'static str {
    if label.is_empty() {
        return "";
    }
    static INTERNED: Mutex<Option<HashMap<String, &'static str>>> = Mutex::new(None);
    let mut guard = INTERNED.lock().unwrap_or_else(|e| e.into_inner());
    let map = guard.get_or_insert_with(HashMap::new);
    if let Some(&s) = map.get(label) {
        return s;
    }
    let leaked: &'static str = Box::leak(label.to_string().into_boxed_str());
    map.insert(label.to_string(), leaked);
    leaked
}

/// A line-oriented artifact, read one line at a time (see the module docs
/// for the rules). Rows borrow one field buffer that every row reuses.
pub struct Reader<'a> {
    lines: std::str::Lines<'a>,
    lineno: usize,
    words: bool,
    fields: Vec<&'a str>,
}

/// One non-blank line of an artifact.
pub enum Line<'r, 'a> {
    /// A `#` line with no raw tab: a `# <key> <value>` directive, a
    /// header or a comment.
    Meta(Meta<'a>),
    /// A data row.
    Row(Row<'r, 'a>),
}

/// A meta line.
#[derive(Clone, Copy)]
pub struct Meta<'a> {
    /// The whole line, `#` included.
    pub text: &'a str,
    lineno: usize,
}

/// A data row, split into fields.
pub struct Row<'r, 'a> {
    fields: &'r [&'a str],
    lineno: usize,
}

/// One field of a line, located for error messages.
#[derive(Clone, Copy)]
pub struct Field<'a> {
    /// The field as written.
    pub raw: &'a str,
    lineno: usize,
}

impl<'a> Reader<'a> {
    /// Reads rows separated by tabs.
    pub fn tabs(text: &'a str) -> Self {
        Reader {
            lines: text.lines(),
            lineno: 0,
            words: false,
            fields: Vec::new(),
        }
    }

    /// Reads rows separated by runs of whitespace, with each line trimmed
    /// first (the hand-edited format).
    pub fn words(text: &'a str) -> Self {
        Reader {
            words: true,
            ..Reader::tabs(text)
        }
    }

    /// Consumes the first line, which must be `header` (surrounding
    /// whitespace aside). `what` names the format in errors.
    pub fn header(mut self, header: &str, what: &str) -> Result<Self, String> {
        match self.lines.next() {
            Some(first) if first.trim() == header => {
                self.lineno = 1;
                Ok(self)
            }
            Some(first) => Err(format!(
                "unrecognized {what} header {first:?} (expected {header:?})"
            )),
            None => Err(format!("empty {what} file")),
        }
    }

    /// The next non-blank line.
    pub fn next_line(&mut self) -> Option<Line<'_, 'a>> {
        let line = loop {
            let line = self.lines.next()?;
            self.lineno += 1;
            let line = if self.words {
                line.trim()
            } else {
                line.trim_end_matches('\r')
            };
            if !line.is_empty() {
                break line;
            }
        };
        let lineno = self.lineno;
        if line.starts_with('#') && !line.contains('\t') {
            return Some(Line::Meta(Meta { text: line, lineno }));
        }
        self.fields.clear();
        if self.words {
            self.fields.extend(line.split_whitespace());
        } else {
            self.fields.extend(line.split('\t'));
        }
        let fields = &self.fields;
        Some(Line::Row(Row { fields, lineno }))
    }
}

impl<'a> Meta<'a> {
    /// The value of a `# <key> <value>` line, if this is one.
    pub fn value(&self, key: &str) -> Option<Field<'a>> {
        let raw = self.text.strip_prefix("# ")?.strip_prefix(key)?;
        let lineno = self.lineno;
        raw.strip_prefix(' ').map(|raw| Field { raw, lineno })
    }
}

impl<'a> Row<'_, 'a> {
    /// Fails unless the row has exactly `n` fields.
    pub fn expect(&self, n: usize) -> Result<(), String> {
        match self.fields.len() {
            len if len == n => Ok(()),
            len => Err(self.err(format!("expected {n} fields, got {len}"))),
        }
    }

    /// Field `i`. Field 0 always exists; check [`Row::expect`] before
    /// reading past it.
    pub fn get(&self, i: usize) -> Field<'a> {
        Field {
            raw: self.fields[i],
            lineno: self.lineno,
        }
    }

    /// An error message located at this row.
    pub fn err(&self, msg: impl Display) -> String {
        format!("line {}: {msg}", self.lineno)
    }
}

impl<'a> Field<'a> {
    /// Parses the field as a number (`u64`, `u16`, `f64`, ...), surrounding
    /// whitespace aside.
    pub fn parse<T: FromStr>(self, what: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        let lineno = self.lineno;
        (self.raw.trim().parse()).map_err(|e| format!("line {lineno}: bad {what}: {e}"))
    }

    /// Unescapes the field, written by [`escape_field`].
    pub fn text(self, what: &str) -> Result<Cow<'a, str>, String> {
        let lineno = self.lineno;
        unescape_field(self.raw).map_err(|e| format!("line {lineno}: bad {what}: {e}"))
    }
}

/// Appends `s` to `out` as a quoted JSON string literal.
pub fn escape_json(out: &mut String, s: &str) {
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

/// One value of a [`parse_json`] object.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Json {
    /// A string.
    Str(String),
    /// An unsigned integer.
    U64(u64),
    /// A flat object of unsigned integers, in document order.
    Object(Vec<(String, u64)>),
}

/// Parses one JSON object of string keys whose values are strings, `u64`s
/// or flat objects of `u64`s, returning its fields in document order.
pub fn parse_json(text: &str) -> Result<Vec<(String, Json)>, String> {
    let mut p = JsonCursor { src: text, pos: 0 };
    let fields = p.object(|p| match p.peek() {
        Some(b'"') => p.string().map(Json::Str),
        Some(b'{') => p.object(JsonCursor::number).map(Json::Object),
        _ => p.number().map(Json::U64),
    })?;
    if p.peek().is_some() {
        return Err(format!(
            "unexpected bytes after the closing `}}` at byte {}",
            p.pos
        ));
    }
    Ok(fields)
}

struct JsonCursor<'a> {
    src: &'a str,
    pos: usize,
}

impl JsonCursor<'_> {
    /// The next non-whitespace byte, not consumed.
    fn peek(&mut self) -> Option<u8> {
        let bytes = self.src.as_bytes();
        while bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
        bytes.get(self.pos).copied()
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        if self.peek() != Some(want) {
            return Err(format!("expected `{}` at byte {}", want as char, self.pos));
        }
        self.pos += 1;
        Ok(())
    }

    /// `{ "key": value, ... }` with no duplicate key.
    fn object<T>(
        &mut self,
        mut value: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<(String, T)>, String> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, T)> = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(fields);
        }
        loop {
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key {key:?}"));
            }
            self.expect(b':')?;
            let v = value(self)?;
            fields.push((key, v));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(fields);
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        let mut chars = self.src[self.pos..].char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    self.pos += i + 1;
                    return Ok(out);
                }
                '\\' => match chars.next().map(|(_, e)| e) {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('u') => {
                        let hex: String = chars.by_ref().take(4).map(|(_, h)| h).collect();
                        let code = u32::from_str_radix(&hex, 16)
                            .ok()
                            .filter(|_| hex.len() == 4)
                            .and_then(char::from_u32)
                            .ok_or_else(|| format!("bad \\u escape {hex:?}"))?;
                        out.push(code);
                    }
                    other => return Err(format!("unknown string escape {other:?}")),
                },
                c => out.push(c),
            }
        }
        Err("unterminated string".to_string())
    }

    fn number(&mut self) -> Result<u64, String> {
        self.peek();
        let start = self.pos;
        self.pos += self.src[start..]
            .bytes()
            .take_while(u8::is_ascii_digit)
            .count();
        self.src[start..self.pos]
            .parse()
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn escaped(s: &str) -> String {
        let mut out = String::new();
        escape_field(&mut out, s);
        out
    }

    #[test]
    fn escaping_is_reversible_and_unambiguous() {
        assert_eq!(escaped("-"), "\\-");
        assert_eq!(escaped(""), "\\e");
        assert_eq!(escaped("a\tb\\c\nd\re-"), "a\\tb\\\\c\\nd\\re-");
        assert_eq!(unescape_field("\\e").unwrap(), "");
        assert_eq!(unescape_field("\\-").unwrap(), "-");
        assert!(matches!(
            unescape_field("plain"),
            Ok(Cow::Borrowed("plain"))
        ));
        assert!(unescape_field("bad\\q").is_err());
        assert!(unescape_field("trailing\\").is_err());
    }

    #[test]
    fn round_trip_preserves_all_fields() {
        let fields = ["", "-", "tab\there", "# hash", " spaced ", "back\\slash"];
        let mut text = String::from("# v1\n");
        for (i, f) in fields.iter().enumerate() {
            if i > 0 {
                text.push('\t');
            }
            escape_field(&mut text, f);
        }
        text.push('\n');
        let mut reader = Reader::tabs(&text).header("# v1", "test").unwrap();
        let Some(Line::Row(row)) = reader.next_line() else {
            panic!("one row")
        };
        row.expect(fields.len()).unwrap();
        for (i, f) in fields.iter().enumerate() {
            assert_eq!(row.get(i).text("field").unwrap(), *f);
        }
        assert!(reader.next_line().is_none());
    }

    fn next_row<'r, 'a>(reader: &'r mut Reader<'a>) -> Row<'r, 'a> {
        match reader.next_line() {
            Some(Line::Row(row)) => row,
            _ => panic!("expected a row"),
        }
    }

    #[test]
    fn rejects_bad_header_and_malformed_lines() {
        let err = |r: Result<Reader, String>| r.err().unwrap();
        assert_eq!(err(Reader::tabs("").header("# v1", "t")), "empty t file");
        assert!(err(Reader::tabs("# v2\n").header("# v1", "t")).contains("unrecognized"));
        let mut r = Reader::tabs("# v1\r\n\n7\tx\n")
            .header("# v1", "t")
            .unwrap();
        let row = next_row(&mut r);
        let short = row.expect(3).unwrap_err();
        assert_eq!(short, "line 3: expected 3 fields, got 2");
        let bad = row.get(1).parse::<u64>("count").unwrap_err();
        assert!(bad.starts_with("line 3: bad count"), "{bad}");
        let mut r = Reader::tabs("70000");
        let wide = next_row(&mut r).get(0).parse::<u16>("node").unwrap_err();
        assert!(wide.starts_with("line 1: bad node"), "{wide}");
    }

    #[test]
    fn meta_lines_are_hash_lines_without_a_raw_tab() {
        let text = "# window 5\r\n#\tfirst field\t2\n  \n# dropped 3\n";
        let mut r = Reader::tabs(text);
        let Some(Line::Meta(m)) = r.next_line() else {
            panic!("a # line is meta")
        };
        assert_eq!(m.value("window").unwrap().parse::<u64>("w"), Ok(5));
        assert!(m.value("windows").is_none());
        let row = next_row(&mut r);
        assert_eq!((row.expect(3), row.get(0).raw), (Ok(()), "#"));
        // Whitespace is content in a tab-separated file, not a blank line.
        assert!(matches!(r.next_line(), Some(Line::Row(_))));
        assert!(matches!(r.next_line(), Some(Line::Meta(_))));
        assert!(r.next_line().is_none());
        // The whitespace-separated reader trims and splits on runs.
        let mut w = Reader::words("  crash  2\t400 \n   \n");
        let row = next_row(&mut w);
        assert_eq!((row.expect(3), row.get(2).raw), (Ok(()), "400"));
        assert!(w.next_line().is_none());
    }

    #[test]
    fn interning_returns_the_same_pointer() {
        let a = intern("same.site");
        let b = intern(&String::from("same.site"));
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn json_reader_is_strict() {
        let ok = parse_json("{\"s\": \"a\\nb\\u0001\", \"n\": 7, \"o\": {\"k\": 1}}\n").unwrap();
        assert_eq!(
            ok,
            vec![
                ("s".to_string(), Json::Str("a\nb\u{1}".into())),
                ("n".to_string(), Json::U64(7)),
                ("o".to_string(), Json::Object(vec![("k".to_string(), 1)])),
            ]
        );
        assert_eq!(parse_json("{}"), Ok(vec![]));
        for bad in [
            "",
            "{\"a\": 1 \"b\": 2}",
            "{\"a\": 1}{\"a\": 1}",
            "{\"a\": 1} x",
            "{\"a\": 1, \"a\": 2}",
            "{\"o\": {\"k\": 1, \"k\": 1}}",
            "{\"a\": 1,}",
            "{\"a\": -1}",
            "{\"a\": \"open}",
            "{\"a\": \"\\q\"}",
        ] {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
    }
}
