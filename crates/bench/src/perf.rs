//! The machine-readable perf-regression schema.
//!
//! Every bench binary distills its run into one [`BenchResult`] and
//! writes it as `BENCH_<name>.json` (see [`BenchResult::write`]), all in
//! one stable schema so `dex-check perf` can diff any run against the
//! committed baselines:
//!
//! ```json
//! {
//!   "schema": "dex-bench v1",
//!   "name": "table2",
//!   "virtual_time_ns": 2913000,
//!   "read_faults": 3,
//!   "write_faults": 10,
//!   "retried_faults": 0,
//!   "msgs_sent": 40,
//!   "bytes_sent": 42440,
//!   "fault_p50_ns": 19300,
//!   "fault_p99_ns": 158800,
//!   "extra": { "forward_migrations": 10 }
//! }
//! ```
//!
//! The simulator is deterministic, so the numbers are exact per commit
//! and `dex-check perf` requires every field to match its baseline; an
//! intentional change to the cost model or protocol is re-baselined with
//! `dex-check perf --update`. The JSON is
//! hand-rolled (no serde in the offline build): all values are `u64`
//! except `schema`/`name`, and `extra` is a flat string→u64 object.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dex_core::RunReport;

/// Schema identifier carried by every result file.
pub const BENCH_SCHEMA: &str = "dex-bench v1";

/// One bench binary's distilled, machine-comparable result.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BenchResult {
    /// Bench binary name (`table2`, `fig2`, ...).
    pub name: String,
    /// Virtual time of the representative run, nanoseconds.
    pub virtual_time_ns: u64,
    /// Read faults entering the protocol.
    pub read_faults: u64,
    /// Write faults entering the protocol.
    pub write_faults: u64,
    /// Fault rounds retried after conflicting transactions.
    pub retried_faults: u64,
    /// Messages sent on the fabric.
    pub msgs_sent: u64,
    /// Total bytes sent on the fabric.
    pub bytes_sent: u64,
    /// Median protocol-fault handling latency, nanoseconds.
    pub fault_p50_ns: u64,
    /// 99th-percentile protocol-fault handling latency, nanoseconds.
    pub fault_p99_ns: u64,
    /// Bench-specific scalars (loop counts, ablation deltas, ...).
    pub extra: BTreeMap<String, u64>,
}

impl BenchResult {
    /// Distills `report` into the common schema under `name`.
    pub fn from_report(name: &str, report: &RunReport) -> Self {
        BenchResult {
            name: name.to_string(),
            virtual_time_ns: report.virtual_time.as_nanos(),
            read_faults: report.stats.read_faults,
            write_faults: report.stats.write_faults,
            retried_faults: report.stats.retried_faults,
            msgs_sent: report.stats.msgs_sent,
            bytes_sent: report.stats.bytes_sent,
            fault_p50_ns: report.fault_hist.percentile(50.0).as_nanos(),
            fault_p99_ns: report.fault_hist.percentile(99.0).as_nanos(),
            extra: BTreeMap::new(),
        }
    }

    /// Adds a bench-specific scalar.
    #[must_use]
    pub fn with_extra(mut self, key: &str, value: u64) -> Self {
        self.extra.insert(key.to_string(), value);
        self
    }

    /// All numeric fields as `(label, value)` pairs — the comparison
    /// surface of `dex-check perf`. Extras are prefixed `extra.`.
    pub fn numeric_fields(&self) -> Vec<(String, u64)> {
        let mut fields = vec![
            ("virtual_time_ns".to_string(), self.virtual_time_ns),
            ("read_faults".to_string(), self.read_faults),
            ("write_faults".to_string(), self.write_faults),
            ("retried_faults".to_string(), self.retried_faults),
            ("msgs_sent".to_string(), self.msgs_sent),
            ("bytes_sent".to_string(), self.bytes_sent),
            ("fault_p50_ns".to_string(), self.fault_p50_ns),
            ("fault_p99_ns".to_string(), self.fault_p99_ns),
        ];
        for (k, v) in &self.extra {
            fields.push((format!("extra.{k}"), *v));
        }
        fields
    }

    /// Serializes into the stable JSON schema (keys in fixed order).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{BENCH_SCHEMA}\",");
        let _ = writeln!(out, "  \"name\": \"{}\",", json_escape(&self.name));
        for (key, value) in [
            ("virtual_time_ns", self.virtual_time_ns),
            ("read_faults", self.read_faults),
            ("write_faults", self.write_faults),
            ("retried_faults", self.retried_faults),
            ("msgs_sent", self.msgs_sent),
            ("bytes_sent", self.bytes_sent),
            ("fault_p50_ns", self.fault_p50_ns),
            ("fault_p99_ns", self.fault_p99_ns),
        ] {
            let _ = writeln!(out, "  \"{key}\": {value},");
        }
        out.push_str("  \"extra\": {");
        for (i, (k, v)) in self.extra.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\": {v}", json_escape(k));
        }
        if !self.extra.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Parses the JSON written by [`BenchResult::to_json`]. Rejects
    /// files with a missing or different `schema`.
    pub fn parse_json(text: &str) -> Result<Self, String> {
        let mut p = Parser {
            src: text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        let mut result = BenchResult::default();
        let mut saw_schema = false;
        p.expect(b'{')?;
        loop {
            if p.peek()? == b'}' {
                p.expect(b'}')?;
                break;
            }
            let key = p.string()?;
            p.expect(b':')?;
            match key.as_str() {
                "schema" => {
                    let v = p.string()?;
                    if v != BENCH_SCHEMA {
                        return Err(format!(
                            "unrecognized schema {v:?} (expected {BENCH_SCHEMA:?})"
                        ));
                    }
                    saw_schema = true;
                }
                "name" => result.name = p.string()?,
                "virtual_time_ns" => result.virtual_time_ns = p.number()?,
                "read_faults" => result.read_faults = p.number()?,
                "write_faults" => result.write_faults = p.number()?,
                "retried_faults" => result.retried_faults = p.number()?,
                "msgs_sent" => result.msgs_sent = p.number()?,
                "bytes_sent" => result.bytes_sent = p.number()?,
                "fault_p50_ns" => result.fault_p50_ns = p.number()?,
                "fault_p99_ns" => result.fault_p99_ns = p.number()?,
                "extra" => {
                    p.expect(b'{')?;
                    loop {
                        if p.peek()? == b'}' {
                            p.pos += 1;
                            break;
                        }
                        let k = p.string()?;
                        p.expect(b':')?;
                        let v = p.number()?;
                        result.extra.insert(k, v);
                        if p.peek()? == b',' {
                            p.pos += 1;
                        }
                    }
                }
                other => return Err(format!("unknown field {other:?}")),
            }
            if p.peek()? == b',' {
                p.pos += 1;
            }
        }
        if !saw_schema {
            return Err("missing `schema` field".to_string());
        }
        if result.name.is_empty() {
            return Err("missing `name` field".to_string());
        }
        Ok(result)
    }

    /// The conventional file name, `BENCH_<name>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }

    /// Writes the result into the directory named by `DEX_BENCH_OUT`
    /// (default: current directory) and notes the path on stderr.
    pub fn write(&self) -> std::io::Result<std::path::PathBuf> {
        let dir = std::env::var("DEX_BENCH_OUT").unwrap_or_else(|_| ".".to_string());
        let dir = std::path::Path::new(&dir);
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_json())?;
        eprintln!("wrote {}", path.display());
        Ok(path)
    }
}

/// `true` when the bench should run its reduced smoke configuration:
/// `--smoke` on the command line or `DEX_BENCH_SMOKE` set (non-`0`).
pub fn smoke() -> bool {
    crate::arg_flag("--smoke") || std::env::var("DEX_BENCH_SMOKE").is_ok_and(|v| v != "0")
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Minimal scanner for the subset of JSON the schema uses: one object
/// of string keys mapping to strings, unsigned integers, or one nested
/// flat object.
struct Parser<'a> {
    src: &'a str,
    /// `src.as_bytes()`.
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        let got = self.peek()?;
        if got != b {
            return Err(format!(
                "expected `{}` at byte {}, found `{}`",
                b as char, self.pos, got as char
            ));
        }
        self.pos += 1;
        Ok(())
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| format!("bad \\u escape: {e}"))?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("unknown string escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. `pos` only ever moves past
                    // whole scalars; off a boundary this slice would panic.
                    let c = self.src[self.pos..].chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected a number at byte {start}"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .unwrap()
            .parse()
            .map_err(|e| format!("bad number: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchResult {
        BenchResult {
            name: "table2".into(),
            virtual_time_ns: 2_913_000,
            read_faults: 3,
            write_faults: 10,
            retried_faults: 0,
            msgs_sent: 40,
            bytes_sent: 42_440,
            fault_p50_ns: 19_300,
            fault_p99_ns: 158_800,
            extra: [("forward_migrations".to_string(), 10)].into(),
        }
    }

    #[test]
    fn json_round_trips() {
        let r = sample();
        let parsed = BenchResult::parse_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
        // Empty extras too.
        let mut bare = sample();
        bare.extra.clear();
        assert_eq!(BenchResult::parse_json(&bare.to_json()).unwrap(), bare);
    }

    #[test]
    fn schema_and_shape_are_enforced() {
        assert!(BenchResult::parse_json("").is_err());
        assert!(BenchResult::parse_json("{}").is_err(), "schema required");
        let wrong = sample().to_json().replace("dex-bench v1", "dex-bench v9");
        assert!(BenchResult::parse_json(&wrong).is_err());
        let unknown = sample().to_json().replace("msgs_sent", "zap_zap");
        assert!(BenchResult::parse_json(&unknown).is_err());
        assert!(BenchResult::parse_json("{\"schema\": \"dex-bench v1\"}").is_err());
    }

    #[test]
    fn numeric_fields_cover_extras() {
        let fields = sample().numeric_fields();
        assert_eq!(fields.len(), 9);
        assert!(fields
            .iter()
            .any(|(k, v)| k == "extra.forward_migrations" && *v == 10));
    }

    #[test]
    fn hostile_names_survive() {
        let mut r = sample();
        r.name = "we\"ird\\name\n".into();
        r.extra.insert("k\ty".into(), 7);
        let parsed = BenchResult::parse_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }
}
