//! Text serialization of causal span forests.
//!
//! Line-oriented, tab-separated, versioned by a header line. The header
//! check, the line rules and the free-form field escaping are
//! [`dex_sim::codec`]'s; this module only maps a [`Span`] onto a row:
//!
//! ```text
//! # dex-spans v2
//! <id>\t<parent>\t<kind>\t<node>\t<task>\t<start_ns>\t<end_ns>\t<label>\t<tag-or-->\t<site>\t<addr-or-->
//! ```
//!
//! `site` and `addr` carry the fault record (§IV-A) of fault and
//! invalidation spans; a v1 file, which lacks them, is rejected.
//!
//! Spans are written in completion order, so children may precede their
//! parents; consumers must index by id before walking the forest. Other
//! `#` lines (older files carry a `# dropped N` line) are ignored.

use std::fmt::Write as _;

use dex_core::{Span, SpanId, SpanKind};
use dex_net::NodeId;
use dex_os::{Tid, VirtAddr};
use dex_sim::codec::{escape_field, intern, Line, Reader};
use dex_sim::SimTime;

/// Magic header identifying the span format.
pub const SPANS_HEADER: &str = "# dex-spans v2";

/// Serializes `spans` into the versioned text format.
pub fn encode_spans(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 64 + SPANS_HEADER.len() + 1);
    out.push_str(SPANS_HEADER);
    out.push('\n');
    for s in spans {
        let _ = write!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t",
            s.id.0,
            s.parent.0,
            s.kind,
            s.node.0,
            s.task.0,
            s.start.as_nanos(),
            s.end.as_nanos(),
        );
        escape_field(&mut out, s.label);
        out.push('\t');
        match s.tag {
            Some(tag) => escape_field(&mut out, tag),
            None => out.push('-'),
        }
        out.push('\t');
        escape_field(&mut out, s.site);
        match s.addr {
            Some(addr) => {
                let _ = writeln!(out, "\t{}", addr.as_u64());
            }
            None => out.push_str("\t-\n"),
        }
    }
    out
}

/// Parses the text format produced by [`encode_spans`].
pub fn decode_spans(text: &str) -> Result<Vec<Span>, String> {
    let mut lines = Reader::tabs(text).header(SPANS_HEADER, "span")?;
    let mut spans = Vec::new();
    while let Some(line) = lines.next_line() {
        let Line::Row(row) = line else { continue };
        row.expect(11)?;
        let kind = row.get(2).raw;
        let kind = SpanKind::parse(kind)
            .ok_or_else(|| row.err(format_args!("unknown span kind {kind:?}")))?;
        let tag = match row.get(8).raw {
            "-" => None,
            _ => Some(intern(&row.get(8).text("tag")?)),
        };
        let addr = match row.get(10).raw {
            "-" => None,
            _ => Some(VirtAddr::new(row.get(10).parse("addr")?)),
        };
        spans.push(Span {
            id: SpanId(row.get(0).parse("id")?),
            parent: SpanId(row.get(1).parse("parent")?),
            kind,
            node: NodeId(row.get(3).parse("node")?),
            task: Tid(row.get(4).parse("task")?),
            start: SimTime::from_nanos(row.get(5).parse("start")?),
            end: SimTime::from_nanos(row.get(6).parse("end")?),
            label: intern(&row.get(7).text("label")?),
            tag,
            site: intern(&row.get(9).text("site")?),
            addr,
        });
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Span> {
        vec![
            Span {
                id: SpanId(2),
                parent: SpanId(1),
                kind: SpanKind::DirectoryHandling,
                node: NodeId(0),
                task: Tid(u64::MAX),
                start: SimTime::from_nanos(1_000),
                end: SimTime::from_nanos(3_000),
                label: "page_request_write",
                tag: None,
                site: "",
                addr: None,
            },
            Span {
                id: SpanId(1),
                parent: SpanId::NONE,
                kind: SpanKind::Fault,
                node: NodeId(1),
                task: Tid(3),
                start: SimTime::ZERO,
                end: SimTime::from_nanos(158_800),
                label: "write_fault",
                tag: Some("centroids"),
                site: "kmeans.update",
                addr: Some(VirtAddr::new(0x1000_0040)),
            },
        ]
    }

    #[test]
    fn round_trip_preserves_all_fields() {
        let spans = sample();
        let decoded = decode_spans(&encode_spans(&spans)).unwrap();
        assert_eq!(decoded.len(), 2);
        for (a, b) in spans.iter().zip(&decoded) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.parent, b.parent);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.node, b.node);
            assert_eq!(a.task, b.task);
            assert_eq!(a.start, b.start);
            assert_eq!(a.end, b.end);
            assert_eq!(a.label, b.label);
            assert_eq!(a.tag, b.tag);
            assert_eq!(a.site, b.site);
            assert_eq!(a.addr, b.addr);
        }
    }

    #[test]
    fn rejects_bad_header_and_malformed_lines() {
        assert!(decode_spans("").is_err());
        assert!(decode_spans("# dex-trace v1\n").is_err());
        let short = format!("{SPANS_HEADER}\n1\t0\tfault\n");
        assert!(decode_spans(&short).is_err());
        let bad_kind = format!("{SPANS_HEADER}\n1\t0\tzap\t0\t0\t0\t1\tx\t-\t\\e\t-\n");
        assert!(decode_spans(&bad_kind).is_err());
        let bad_addr = format!("{SPANS_HEADER}\n1\t0\tfault\t0\t0\t0\t1\tx\t-\ts\t0x10\n");
        assert!(decode_spans(&bad_addr).is_err());
        // A v1 file lacks the fault-record columns: refused by its header.
        let v1 = "# dex-spans v1\n1\t0\tfault\t0\t0\t0\t1\tx\t-\n";
        assert!(decode_spans(v1).is_err());
    }

    /// The empty forest round-trips, and the `# dropped N` count an older
    /// file may carry decodes as an ignored meta line.
    #[test]
    fn empty_forest_and_dropped_count_round_trip() {
        assert!(decode_spans(&encode_spans(&[])).unwrap().is_empty());
        let text = encode_spans(&sample()).replacen('\n', "\n# dropped 7\n", 1);
        let decoded = decode_spans(&text).unwrap();
        assert_eq!(encode_spans(&decoded), encode_spans(&sample()));
    }
}
