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
//! `dex-check perf --update`. The JSON is written and read by the one
//! strict reader in [`dex_sim::codec`] (no serde in the offline build): all
//! values are `u64` except `schema`/`name`, and `extra` is a flat
//! string→u64 object. A missing comma, a duplicate key or bytes after the
//! closing brace are errors, so a hand-merged baseline cannot pass the gate
//! on whichever value came last.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dex_core::RunReport;
use dex_sim::codec::{escape_json, parse_json, Json};

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

    /// The fixed counters in schema order.
    fn counts(&self) -> [(&'static str, u64); 8] {
        [
            ("virtual_time_ns", self.virtual_time_ns),
            ("read_faults", self.read_faults),
            ("write_faults", self.write_faults),
            ("retried_faults", self.retried_faults),
            ("msgs_sent", self.msgs_sent),
            ("bytes_sent", self.bytes_sent),
            ("fault_p50_ns", self.fault_p50_ns),
            ("fault_p99_ns", self.fault_p99_ns),
        ]
    }

    /// The fixed counter named `key`, for parsing.
    fn count_mut(&mut self, key: &str) -> Option<&mut u64> {
        Some(match key {
            "virtual_time_ns" => &mut self.virtual_time_ns,
            "read_faults" => &mut self.read_faults,
            "write_faults" => &mut self.write_faults,
            "retried_faults" => &mut self.retried_faults,
            "msgs_sent" => &mut self.msgs_sent,
            "bytes_sent" => &mut self.bytes_sent,
            "fault_p50_ns" => &mut self.fault_p50_ns,
            "fault_p99_ns" => &mut self.fault_p99_ns,
            _ => return None,
        })
    }

    /// All numeric fields as `(label, value)` pairs — the comparison
    /// surface of `dex-check perf`. Extras are prefixed `extra.`.
    pub fn numeric_fields(&self) -> Vec<(String, u64)> {
        let counts = self.counts().map(|(k, v)| (k.to_string(), v));
        let extras = self.extra.iter().map(|(k, v)| (format!("extra.{k}"), *v));
        counts.into_iter().chain(extras).collect()
    }

    /// Serializes into the stable JSON schema (keys in fixed order).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        let _ = write!(out, "{{\n  \"schema\": \"{BENCH_SCHEMA}\",\n  \"name\": ");
        escape_json(&mut out, &self.name);
        out.push_str(",\n");
        for (key, value) in self.counts() {
            let _ = writeln!(out, "  \"{key}\": {value},");
        }
        out.push_str("  \"extra\": {");
        for (i, (k, v)) in self.extra.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            escape_json(&mut out, k);
            let _ = write!(out, ": {v}");
        }
        if !self.extra.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Parses the JSON written by [`BenchResult::to_json`]. Rejects
    /// files with a missing or different `schema`, unknown or mistyped
    /// fields, and anything the strict reader rejects.
    pub fn parse_json(text: &str) -> Result<Self, String> {
        let mut result = BenchResult::default();
        let mut saw_schema = false;
        for (key, value) in parse_json(text)? {
            match (key.as_str(), value) {
                ("schema", Json::Str(v)) if v == BENCH_SCHEMA => saw_schema = true,
                ("schema", v) => {
                    return Err(format!(
                        "unrecognized schema {v:?} (expected {BENCH_SCHEMA:?})"
                    ))
                }
                ("name", Json::Str(v)) => result.name = v,
                ("extra", Json::Object(fields)) => result.extra = fields.into_iter().collect(),
                (key, value) => match (result.count_mut(key), value) {
                    (Some(slot), Json::U64(v)) => *slot = v,
                    _ => return Err(format!("unknown or mistyped field {key:?}")),
                },
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
    fn a_missing_comma_is_rejected() {
        let text = sample().to_json().replacen("0,\n", "0\n", 1);
        let err = BenchResult::parse_json(&text).unwrap_err();
        assert!(err.contains("expected `,`"), "{err}");
    }

    #[test]
    fn bytes_after_the_closing_brace_are_rejected() {
        let one = sample().to_json();
        let err = BenchResult::parse_json(&format!("{one}{one}")).unwrap_err();
        assert!(err.contains("after the closing"), "{err}");
        assert!(BenchResult::parse_json(&format!("{one}x")).is_err());
    }

    #[test]
    fn a_duplicate_key_is_rejected() {
        let text = sample().to_json().replace(
            "\"read_faults\": 3",
            "\"read_faults\": 3,\n  \"read_faults\": 4",
        );
        let err = BenchResult::parse_json(&text).unwrap_err();
        assert!(err.contains("duplicate key \"read_faults\""), "{err}");
        let extra = sample().to_json().replace(
            "\"forward_migrations\": 10",
            "\"forward_migrations\": 10, \"forward_migrations\": 11",
        );
        assert!(BenchResult::parse_json(&extra).is_err());
    }
}
