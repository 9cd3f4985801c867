//! Cross-run regression differ.
//!
//! When the perf gate flags a drifted `BENCH_*.json`, this module turns
//! "the number moved" into "where the virtual time went": it aligns two
//! runs' artifacts — span traces (`# dex-spans v2`), telemetry series
//! (`# dex-series v1`), or bench results (`dex-bench v1` JSON) — and
//! reports the movement per span kind, per node, per link, and along the
//! slowest fault's critical path. Spans are matched by (kind, node,
//! label) group and causal position (start order within the group), so
//! "forwarded grants got 2.1× slower on node 2" falls straight out of
//! the aggregates.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dex_core::{Span, SpanKind};
use dex_net::TimeSeries;
use dex_sim::codec::{parse_json, Json};

use crate::critical_path::index_forest;
use crate::series_codec::{decode_series, SERIES_HEADER};
use crate::span_codec::{decode_spans, SPANS_HEADER};

/// One aligned row of a diff: the same key measured in both runs.
#[derive(Clone, Debug, PartialEq)]
pub struct DiffRow {
    /// What moved (a span kind, `kind @ node N`, a counter, a bench field).
    pub key: String,
    /// Occurrences in the baseline run (span count / counter total).
    pub base_count: u64,
    /// Occurrences in the candidate run.
    pub cand_count: u64,
    /// Total nanoseconds (or unit value) in the baseline run.
    pub base_ns: u64,
    /// Total nanoseconds (or unit value) in the candidate run.
    pub cand_ns: u64,
}

impl DiffRow {
    /// Signed movement, candidate minus baseline.
    pub fn delta_ns(&self) -> i64 {
        self.cand_ns as i64 - self.base_ns as i64
    }

    /// Candidate-over-baseline ratio (`2.0` = twice as slow). `None`
    /// when the baseline is zero (the ratio would be meaningless).
    pub fn ratio(&self) -> Option<f64> {
        (self.base_ns > 0).then(|| self.cand_ns as f64 / self.base_ns as f64)
    }
}

/// The aligned comparison of two runs' span forests.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanDiff {
    /// Total time per span kind, both runs — sorted by |delta| descending
    /// (ties broken by key), so `per_kind[0]` names the top mover.
    pub per_kind: Vec<DiffRow>,
    /// Total time per (span kind, node) — same order.
    pub per_kind_node: Vec<DiffRow>,
    /// Per-kind attribution inside the slowest fault's causal subtree of
    /// each run (the measured critical path), plus a `fault (total)` row.
    pub critical_path: Vec<DiffRow>,
}

fn sort_rows(rows: &mut [DiffRow]) {
    rows.sort_by(|a, b| {
        b.delta_ns()
            .abs()
            .cmp(&a.delta_ns().abs())
            .then_with(|| a.key.cmp(&b.key))
    });
}

fn accumulate<K: Ord>(
    map: &mut BTreeMap<K, (u64, u64, u64, u64)>,
    key: K,
    count: u64,
    ns: u64,
    candidate: bool,
) {
    let e = map.entry(key).or_insert((0, 0, 0, 0));
    if candidate {
        e.1 += count;
        e.3 += ns;
    } else {
        e.0 += count;
        e.2 += ns;
    }
}

fn rows_from<K: Ord>(
    map: BTreeMap<K, (u64, u64, u64, u64)>,
    render_key: impl Fn(&K) -> String,
) -> Vec<DiffRow> {
    let mut rows: Vec<DiffRow> = map
        .iter()
        .map(|(k, &(bc, cc, bns, cns))| DiffRow {
            key: render_key(k),
            base_count: bc,
            cand_count: cc,
            base_ns: bns,
            cand_ns: cns,
        })
        .collect();
    sort_rows(&mut rows);
    rows
}

/// The spans in the causal subtree of the slowest `Fault` span
/// (children recorded on any node — causality crosses machine
/// boundaries), or none when the run recorded no faults.
fn slowest_fault_subtree(spans: &[Span]) -> Vec<&Span> {
    let forest = index_forest(spans);
    let root = (0..spans.len())
        .filter(|&i| spans[i].kind == SpanKind::Fault)
        .max_by_key(|&i| {
            (
                spans[i].duration().as_nanos(),
                std::cmp::Reverse(spans[i].id.0),
            )
        });
    // The seen marks stop a walk of a (hostile, decoded) parent cycle.
    let mut seen = vec![false; spans.len()];
    let mut stack: Vec<usize> = root.into_iter().collect();
    let mut members = Vec::new();
    while let Some(i) = stack.pop() {
        if !std::mem::replace(&mut seen[i], true) {
            members.push(&spans[i]);
            stack.extend(&forest[i].children);
        }
    }
    members
}

/// Aligns two span forests and aggregates where the virtual time moved.
pub fn diff_spans(base: &[Span], cand: &[Span]) -> SpanDiff {
    let mut by_kind: BTreeMap<&'static str, (u64, u64, u64, u64)> = BTreeMap::new();
    let mut by_kind_node: BTreeMap<(&'static str, u16), (u64, u64, u64, u64)> = BTreeMap::new();
    for (spans, candidate) in [(base, false), (cand, true)] {
        for s in spans {
            let ns = s.duration().as_nanos();
            accumulate(&mut by_kind, s.kind.as_str(), 1, ns, candidate);
            accumulate(
                &mut by_kind_node,
                (s.kind.as_str(), s.node.0),
                1,
                ns,
                candidate,
            );
        }
    }

    let mut critical: BTreeMap<String, (u64, u64, u64, u64)> = BTreeMap::new();
    for (spans, candidate) in [(base, false), (cand, true)] {
        for s in slowest_fault_subtree(spans) {
            let key = if s.kind == SpanKind::Fault {
                "fault (total)".to_string()
            } else {
                s.kind.as_str().to_string()
            };
            accumulate(&mut critical, key, 1, s.duration().as_nanos(), candidate);
        }
    }

    SpanDiff {
        per_kind: rows_from(by_kind, |k| k.to_string()),
        per_kind_node: rows_from(by_kind_node, |(k, n)| format!("{k} @ node {n}")),
        critical_path: rows_from(critical, |k| k.clone()),
    }
}

/// Aligns two telemetry series by (scope, counter name) — per-node and
/// per-link movement — summing each counter's deltas over all windows.
pub fn diff_series(base: &TimeSeries, cand: &TimeSeries) -> Vec<DiffRow> {
    let mut map: BTreeMap<(String, String), (u64, u64, u64, u64)> = BTreeMap::new();
    for (series, candidate) in [(base, false), (cand, true)] {
        for p in &series.counters {
            accumulate(
                &mut map,
                (p.scope.to_string(), p.name.clone()),
                1,
                p.delta,
                candidate,
            );
        }
    }
    rows_from(map, |(scope, name)| format!("{scope} {name}"))
}

/// Aligns two `dex-bench v1` results field by field.
pub fn diff_bench(base: &[(String, u64)], cand: &[(String, u64)]) -> Vec<DiffRow> {
    let mut map: BTreeMap<String, (u64, u64, u64, u64)> = BTreeMap::new();
    for (fields, candidate) in [(base, false), (cand, true)] {
        for (name, value) in fields {
            accumulate(&mut map, name.clone(), 1, *value, candidate);
        }
    }
    rows_from(map, |k| k.clone())
}

/// The numeric fields of a `dex-bench v1` JSON file, in document order,
/// read by the one strict JSON reader ([`dex_sim::codec::parse_json`]).
/// A nested object's fields are named `<object>.<key>` (`extra.<key>`),
/// the names `dex-check perf` reports.
pub fn bench_numeric_fields(text: &str) -> Result<Vec<(String, u64)>, String> {
    let mut fields = Vec::new();
    for (key, value) in parse_json(text)? {
        match value {
            Json::U64(v) => fields.push((key, v)),
            Json::Object(inner) => {
                fields.extend(inner.into_iter().map(|(k, v)| (format!("{key}.{k}"), v)));
            }
            Json::Str(_) => {}
        }
    }
    if fields.is_empty() {
        return Err("no numeric fields found (is this a dex-bench v1 file?)".into());
    }
    Ok(fields)
}

/// One decoded diffable artifact, sniffed by its header.
pub enum DiffInput {
    /// A `# dex-spans v2` span trace.
    Spans(Vec<Span>),
    /// A `# dex-series v1` telemetry series.
    Series(Box<TimeSeries>),
    /// A `dex-bench v1` JSON result, reduced to its numeric fields.
    Bench(Vec<(String, u64)>),
}

impl DiffInput {
    /// What kind of artifact this is, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            DiffInput::Spans(_) => "span trace",
            DiffInput::Series(_) => "telemetry series",
            DiffInput::Bench(_) => "bench result",
        }
    }
}

/// Decodes a diffable artifact, deciding the format from its first line.
pub fn sniff_and_decode(text: &str) -> Result<DiffInput, String> {
    let first = text.lines().next().unwrap_or("").trim();
    if first == SPANS_HEADER {
        return decode_spans(text).map(DiffInput::Spans);
    }
    if first == SERIES_HEADER {
        return decode_series(text).map(|s| DiffInput::Series(Box::new(s)));
    }
    if first.starts_with('{') {
        return bench_numeric_fields(text).map(DiffInput::Bench);
    }
    Err(format!(
        "unrecognized artifact (first line {first:?}); expected {SPANS_HEADER:?}, {SERIES_HEADER:?}, or dex-bench v1 JSON"
    ))
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

fn render_rows(out: &mut String, rows: &[DiffRow], unit_ns: bool, top: usize) {
    if rows.is_empty() {
        let _ = writeln!(out, "  (nothing recorded on either side)");
        return;
    }
    for row in rows.iter().take(top) {
        let ratio = match row.ratio() {
            Some(r) if (r - 1.0).abs() < 0.005 => "  ~same".to_string(),
            Some(r) if r >= 1.0 => format!("{r:>5.2}x slower"),
            Some(r) if r > 0.0 => format!("{:>5.2}x faster", 1.0 / r),
            Some(_) => "  gone".to_string(),
            None if row.cand_ns == 0 => "  ~same".to_string(),
            None => "   new".to_string(),
        };
        if unit_ns {
            let _ = writeln!(
                out,
                "  {:<34} {:>9.1} us -> {:>9.1} us  {:>+10.1} us  {ratio}   ({} -> {} span(s))",
                row.key,
                us(row.base_ns),
                us(row.cand_ns),
                us(row.cand_ns) - us(row.base_ns),
                row.base_count,
                row.cand_count,
            );
        } else {
            let _ = writeln!(
                out,
                "  {:<34} {:>12} -> {:>12}  {:>+12}  {ratio}",
                row.key,
                row.base_ns,
                row.cand_ns,
                row.delta_ns(),
            );
        }
    }
    if rows.len() > top {
        let _ = writeln!(out, "  ... {} more row(s) elided", rows.len() - top);
    }
}

/// Renders the human diff report for two artifacts of the same kind.
/// `top` bounds how many rows each section shows.
pub fn render_diff(base: &DiffInput, cand: &DiffInput, top: usize) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(out, "=== DEX cross-run diff (baseline -> candidate) ===");
    match (base, cand) {
        (DiffInput::Spans(b), DiffInput::Spans(c)) => {
            let diff = diff_spans(b, c);
            let _ = writeln!(out, "{} -> {} span(s)\n", b.len(), c.len());
            let _ = writeln!(out, "-- movement per span kind (top movers first) --");
            render_rows(&mut out, &diff.per_kind, true, top);
            let _ = writeln!(out, "\n-- movement per span kind and node --");
            render_rows(&mut out, &diff.per_kind_node, true, top);
            let _ = writeln!(out, "\n-- slowest fault, critical-path attribution --");
            render_rows(&mut out, &diff.critical_path, true, top);
        }
        (DiffInput::Series(b), DiffInput::Series(c)) => {
            let rows = diff_series(b, c);
            let _ = writeln!(out, "{} -> {} window(s)\n", b.windows, c.windows);
            let _ = writeln!(out, "-- counter movement per node and link --");
            render_rows(&mut out, &rows, false, top);
        }
        (DiffInput::Bench(b), DiffInput::Bench(c)) => {
            let rows = diff_bench(b, c);
            let _ = writeln!(out, "{} numeric field(s)\n", rows.len());
            let _ = writeln!(out, "-- bench field movement --");
            render_rows(&mut out, &rows, false, top);
        }
        (b, c) => return Err(format!("cannot diff a {} against a {}", b.kind(), c.kind())),
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_core::SpanId;
    use dex_net::{CounterPoint, NodeId, SeriesScope};
    use dex_os::Tid;
    use dex_sim::SimTime;

    fn span(id: u64, parent: u64, kind: SpanKind, node: u16, start: u64, end: u64) -> Span {
        Span {
            id: SpanId(id),
            parent: SpanId(parent),
            kind,
            node: NodeId(node),
            task: Tid(1),
            start: SimTime::from_nanos(start),
            end: SimTime::from_nanos(end),
            label: "t",
            tag: None,
            site: "",
            addr: None,
        }
    }

    #[test]
    fn top_mover_is_the_slowed_kind() {
        let base = vec![
            span(1, 0, SpanKind::Fault, 1, 0, 20_000),
            span(2, 1, SpanKind::OwnerForward, 2, 5_000, 7_500),
            span(3, 1, SpanKind::PageFixup, 1, 18_000, 19_000),
        ];
        let mut cand = base.clone();
        // The forwarded grant got 4x slower on node 2; the fault grew.
        cand[1].end = SimTime::from_nanos(15_000);
        cand[0].end = SimTime::from_nanos(27_500);
        let diff = diff_spans(&base, &cand);
        assert_eq!(diff.per_kind[0].key, "fault");
        assert_eq!(diff.per_kind[1].key, "owner_forward");
        assert_eq!(diff.per_kind[1].ratio(), Some(4.0));
        assert_eq!(diff.per_kind_node[1].key, "owner_forward @ node 2");
        // The critical-path section attributes inside the slowest fault.
        assert!(diff
            .critical_path
            .iter()
            .any(|r| r.key == "owner_forward" && r.delta_ns() == 7_500));
    }

    #[test]
    fn critical_path_follows_causality_to_fixed_point() {
        // Child recorded before parent, grandchild on another node.
        let base = vec![
            span(3, 2, SpanKind::PageFixup, 1, 8, 9),
            span(2, 1, SpanKind::DirectoryHandling, 0, 2, 4),
            span(1, 0, SpanKind::Fault, 1, 0, 10),
            span(9, 0, SpanKind::Fault, 1, 0, 2), // faster fault, excluded
        ];
        let diff = diff_spans(&base, &base);
        let keys: Vec<&str> = diff.critical_path.iter().map(|r| r.key.as_str()).collect();
        assert!(keys.contains(&"fault (total)"));
        assert!(keys.contains(&"directory_handling"));
        assert!(keys.contains(&"page_fixup"));
        let total = diff
            .critical_path
            .iter()
            .find(|r| r.key == "fault (total)")
            .unwrap();
        assert_eq!(total.base_ns, 10, "only the slowest fault counts");
    }

    #[test]
    fn series_diff_keys_by_scope_and_name() {
        let mk = |delta| TimeSeries {
            counters: vec![
                CounterPoint {
                    window: 0,
                    scope: SeriesScope::Node(2),
                    name: "protocol.forwards".into(),
                    delta,
                },
                CounterPoint {
                    window: 1,
                    scope: SeriesScope::Link(0, 1),
                    name: "bytes".into(),
                    delta: 100,
                },
            ],
            ..TimeSeries::default()
        };
        let rows = diff_series(&mk(5), &mk(9));
        assert_eq!(rows[0].key, "node2 protocol.forwards");
        assert_eq!(rows[0].delta_ns(), 4);
        assert!(rows.iter().any(|r| r.key == "link0>1 bytes"));
    }

    #[test]
    fn bench_json_fields_parse_and_diff() {
        let base = r#"{"schema": "dex-bench v1", "name": "shard", "virtual_time_ns": 1000, "msgs_sent": 42}"#;
        let cand = r#"{"schema": "dex-bench v1", "name": "shard", "virtual_time_ns": 2200, "msgs_sent": 42}"#;
        let b = bench_numeric_fields(base).unwrap();
        assert_eq!(
            b,
            vec![("virtual_time_ns".into(), 1000), ("msgs_sent".into(), 42)]
        );
        let rows = diff_bench(&b, &bench_numeric_fields(cand).unwrap());
        assert_eq!(rows[0].key, "virtual_time_ns");
        assert_eq!(rows[0].ratio(), Some(2.2));
    }

    #[test]
    fn bench_extras_are_named_as_the_perf_gate_names_them() {
        let bench = |fwd: u64| {
            format!(
                "{{\n  \"schema\": \"dex-bench v1\",\n  \"name\": \"table2\",\n  \
                 \"virtual_time_ns\": 100,\n  \"extra\": {{\n    \
                 \"backward_migrations\": 10,\n    \"forward_migrations\": {fwd}\n  }}\n}}\n"
            )
        };
        let (base, cand) = (bench(10), bench(12));
        let rows = render_diff(
            &sniff_and_decode(&base).unwrap(),
            &sniff_and_decode(&cand).unwrap(),
            10,
        )
        .unwrap();
        assert!(rows.contains("extra.backward_migrations"), "{rows}");
        let fields = bench_numeric_fields(&cand).unwrap();
        let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            names,
            [
                "virtual_time_ns",
                "extra.backward_migrations",
                "extra.forward_migrations"
            ]
        );
        let rows = diff_bench(&bench_numeric_fields(&base).unwrap(), &fields);
        assert_eq!(rows[0].key, "extra.forward_migrations");
        assert_eq!(rows[0].delta_ns(), 2);
        // An escaped `\n` in a name decodes to a newline, not the letter.
        let escaped = bench_numeric_fields("{\"a\\nb\": 1, \"extra\": {\"c\\nd\": 2}}").unwrap();
        assert_eq!(
            escaped,
            vec![("a\nb".to_string(), 1), ("extra.c\nd".to_string(), 2)]
        );
    }

    #[test]
    fn sniffing_dispatches_on_header() {
        assert!(matches!(
            sniff_and_decode("# dex-spans v2\n"),
            Ok(DiffInput::Spans(_))
        ));
        assert!(matches!(
            sniff_and_decode("# dex-series v1\n"),
            Ok(DiffInput::Series(_))
        ));
        assert!(matches!(
            sniff_and_decode("{\"schema\": \"dex-bench v1\", \"x\": 3}"),
            Ok(DiffInput::Bench(_))
        ));
        assert!(sniff_and_decode("hello").is_err());
        let err = render_diff(
            &sniff_and_decode("# dex-spans v2\n").unwrap(),
            &sniff_and_decode("# dex-series v1\n").unwrap(),
            10,
        )
        .unwrap_err();
        assert!(err.contains("cannot diff"), "{err}");
    }

    #[test]
    fn render_names_the_mover_and_elides_long_tails() {
        let base = vec![
            span(1, 0, SpanKind::Fault, 1, 0, 10_000),
            span(2, 1, SpanKind::OwnerForward, 2, 2_000, 4_000),
        ];
        let mut cand = base.clone();
        cand[1].end = SimTime::from_nanos(6_200);
        let text = render_diff(&DiffInput::Spans(base), &DiffInput::Spans(cand), 10).unwrap();
        assert!(text.contains("owner_forward @ node 2"), "{text}");
        assert!(text.contains("2.10x slower"), "{text}");
    }

    #[test]
    fn vanished_and_new_kinds_render_without_infinities() {
        let base = vec![span(1, 0, SpanKind::Invalidation, 0, 0, 1_000)];
        let cand = vec![span(1, 0, SpanKind::InvalidateBatch, 0, 0, 800)];
        let text = render_diff(&DiffInput::Spans(base), &DiffInput::Spans(cand), 10).unwrap();
        assert!(text.contains("gone"), "{text}");
        assert!(text.contains("new"), "{text}");
        assert!(!text.contains("inf"), "{text}");
    }
}
