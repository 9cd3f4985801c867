//! Text serialization of windowed telemetry time-series.
//!
//! Line-oriented, tab-separated, versioned by a header line; the header
//! check, the line rules and the free-form field escaping are
//! [`dex_sim::codec`]'s. The series preamble is carried in `#` meta lines
//! so the body stays uniform:
//!
//! ```text
//! # dex-series v1
//! # window <ns>
//! # windows <n>
//! # end <ns>
//! c\t<window>\t<scope>\t<name>\t<delta>
//! h\t<window>\t<node>\t<name>\t<count>\t<p50_ns>\t<p95_ns>\t<p99_ns>
//! ```
//!
//! `<scope>` is `node<N>` or `link<SRC>><DST>` (the
//! [`SeriesScope`] display form). Counter and histogram rows may
//! interleave; decoding preserves their original order within each kind.

use std::fmt::Write as _;

use dex_net::{CounterPoint, HistPoint, SeriesScope, TimeSeries};
use dex_sim::codec::{escape_field, Line, Reader};
use dex_sim::{SimDuration, SimTime};

/// Magic header identifying the series format.
pub const SERIES_HEADER: &str = "# dex-series v1";

fn decode_scope(s: &str) -> Option<SeriesScope> {
    if let Some(n) = s.strip_prefix("node") {
        return n.parse().ok().map(SeriesScope::Node);
    }
    let rest = s.strip_prefix("link")?;
    let (src, dst) = rest.split_once('>')?;
    Some(SeriesScope::Link(src.parse().ok()?, dst.parse().ok()?))
}

/// Serializes `series` into the versioned text format.
pub fn encode_series(series: &TimeSeries) -> String {
    let mut out = String::with_capacity(
        (series.counters.len() + series.hists.len()) * 48 + SERIES_HEADER.len() + 64,
    );
    let _ = writeln!(
        out,
        "{SERIES_HEADER}\n# window {}\n# windows {}\n# end {}",
        series.window.as_nanos(),
        series.windows,
        series.end.as_nanos()
    );
    for p in &series.counters {
        let _ = write!(out, "c\t{}\t{}\t", p.window, p.scope);
        escape_field(&mut out, &p.name);
        let _ = writeln!(out, "\t{}", p.delta);
    }
    for p in &series.hists {
        let _ = write!(out, "h\t{}\t{}\t", p.window, p.node);
        escape_field(&mut out, &p.name);
        let _ = writeln!(
            out,
            "\t{}\t{}\t{}\t{}",
            p.count,
            p.p50.as_nanos(),
            p.p95.as_nanos(),
            p.p99.as_nanos()
        );
    }
    out
}

/// Parses the text format produced by [`encode_series`].
pub fn decode_series(text: &str) -> Result<TimeSeries, String> {
    let mut lines = Reader::tabs(text).header(SERIES_HEADER, "series")?;
    let mut series = TimeSeries::default();
    while let Some(line) = lines.next_line() {
        let row = match line {
            Line::Meta(meta) => {
                if let Some(v) = meta.value("window") {
                    series.window = SimDuration::from_nanos(v.parse("window width")?);
                } else if let Some(v) = meta.value("windows") {
                    series.windows = v.parse("window count")?;
                } else if let Some(v) = meta.value("end") {
                    series.end = SimTime::from_nanos(v.parse("end time")?);
                }
                continue;
            }
            Line::Row(row) => row,
        };
        match row.get(0).raw {
            "c" => {
                row.expect(5)?;
                let scope = decode_scope(row.get(2).raw)
                    .ok_or_else(|| row.err(format_args!("bad scope {:?}", row.get(2).raw)))?;
                series.counters.push(CounterPoint {
                    window: row.get(1).parse("window")?,
                    scope,
                    name: row.get(3).text("name")?.into_owned(),
                    delta: row.get(4).parse("delta")?,
                });
            }
            "h" => {
                row.expect(8)?;
                series.hists.push(HistPoint {
                    window: row.get(1).parse("window")?,
                    node: row.get(2).parse("node")?,
                    name: row.get(3).text("name")?.into_owned(),
                    count: row.get(4).parse("count")?,
                    p50: SimDuration::from_nanos(row.get(5).parse("p50")?),
                    p95: SimDuration::from_nanos(row.get(6).parse("p95")?),
                    p99: SimDuration::from_nanos(row.get(7).parse("p99")?),
                });
            }
            other => {
                return Err(row.err(format_args!(
                    "unknown row kind {other:?} (expected `c` or `h`)"
                )))
            }
        }
    }
    Ok(series)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TimeSeries {
        TimeSeries {
            window: SimDuration::from_micros(50),
            windows: 3,
            end: SimTime::from_nanos(123_456),
            counters: vec![
                CounterPoint {
                    window: 0,
                    scope: SeriesScope::Node(1),
                    name: "faults.write".into(),
                    delta: 4,
                },
                CounterPoint {
                    window: 2,
                    scope: SeriesScope::Link(0, 1),
                    name: "bytes".into(),
                    delta: 8_192,
                },
            ],
            hists: vec![HistPoint {
                window: 1,
                node: 0,
                name: "net.send_pool_wait".into(),
                count: 12,
                p50: SimDuration::from_nanos(900),
                p95: SimDuration::from_nanos(2_400),
                p99: SimDuration::from_nanos(2_500),
            }],
        }
    }

    #[test]
    fn round_trip_preserves_all_fields() {
        let series = sample();
        let decoded = decode_series(&encode_series(&series)).unwrap();
        assert_eq!(decoded.window, series.window);
        assert_eq!(decoded.windows, series.windows);
        assert_eq!(decoded.end, series.end);
        assert_eq!(decoded.counters, series.counters);
        assert_eq!(decoded.hists, series.hists);
    }

    #[test]
    fn rejects_bad_header_and_malformed_lines() {
        assert!(decode_series("").is_err());
        assert!(decode_series("# dex-spans v2\n").is_err());
        assert!(decode_series("# dex-series v2\n").is_err());
        let bad_kind = format!("{SERIES_HEADER}\nz\t0\tnode0\tx\t1\n");
        assert!(decode_series(&bad_kind).is_err());
        let short = format!("{SERIES_HEADER}\nc\t0\tnode0\n");
        assert!(decode_series(&short).is_err());
        let bad_scope = format!("{SERIES_HEADER}\nc\t0\tzone3\tx\t1\n");
        assert!(decode_series(&bad_scope).is_err());
    }

    #[test]
    fn empty_series_round_trips() {
        let decoded = decode_series(&encode_series(&TimeSeries::default())).unwrap();
        assert_eq!(decoded.windows, 0);
        assert!(decoded.counters.is_empty() && decoded.hists.is_empty());
    }
}
