//! Chrome trace-event JSON export for Perfetto / `chrome://tracing`.
//!
//! Renders a span forest as complete (`ph:"X"`) slices — one track per
//! `(node, task)` pair, nodes as processes, tasks as threads — plus flow
//! arrows (`ph:"s"` / `ph:"f"`) for every parent link that crosses a
//! track, so a remote fault draws as requester-fault → origin
//! directory-handling → requester-fixup with explicit causality arrows.
//!
//! The output loads directly in [Perfetto](https://ui.perfetto.dev) or
//! `chrome://tracing`. Timestamps are microseconds of virtual time.
//!
//! With a telemetry [`TimeSeries`] attached
//! ([`export_chrome_trace_with_series`]), the trace additionally carries
//! counter tracks (`ph:"C"`): per-node counter deltas and per-window
//! latency quantiles draw as stepped graphs above each node's slices.

use dex_core::Span;
use dex_net::{SeriesScope, TimeSeries};
use dex_sim::codec::escape_json;

/// The display thread id used for protocol-handler spans
/// (`Tid(u64::MAX)` on the wire; JSON tids must stay small integers).
const PROTOCOL_TID: u64 = 0;

fn display_tid(task: dex_os::Tid) -> u64 {
    if task.0 == u64::MAX {
        PROTOCOL_TID
    } else {
        task.0
    }
}

fn micros(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// Renders `spans` as a Chrome trace-event JSON document.
///
/// # Examples
///
/// ```
/// use dex_core::{Cluster, ClusterConfig};
/// use dex_prof::export_chrome_trace;
///
/// let cluster = Cluster::new(ClusterConfig::new(2).with_spans());
/// let report = cluster.run(|p| {
///     let cell = p.alloc_cell::<u64>(0);
///     p.spawn(move |ctx| {
///         ctx.migrate(1).unwrap();
///         cell.set(ctx, 7);
///     });
/// });
/// let json = export_chrome_trace(&report.spans);
/// assert!(json.contains("\"traceEvents\""));
/// assert!(json.contains("directory_handling"));
/// ```
pub fn export_chrome_trace(spans: &[Span]) -> String {
    export_chrome_trace_with_series(spans, None)
}

/// Like [`export_chrome_trace`], additionally rendering a telemetry
/// [`TimeSeries`] as Perfetto counter tracks (`ph:"C"`).
///
/// Every counter that ever moved gets one track per node (link counters
/// land on the source node, named after the link), stepped at each
/// window boundary — idle windows draw as explicit zeros so gaps are
/// visible. Per-window histogram quantiles become `<name> p50/p99 (ns)`
/// tracks.
pub fn export_chrome_trace_with_series(spans: &[Span], series: Option<&TimeSeries>) -> String {
    let mut out = String::with_capacity(spans.len() * 160 + 64);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    let push = |event: String, out: &mut String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push('\n');
        out.push_str(&event);
    };

    // Process/thread naming metadata: one process per node, tid 0 is the
    // protocol dispatcher.
    let mut named: std::collections::BTreeSet<(u64, u64)> = std::collections::BTreeSet::new();
    for s in spans {
        let key = (u64::from(s.node.0), display_tid(s.task));
        if named.insert(key) {
            if named.iter().filter(|(pid, _)| *pid == key.0).count() == 1 {
                push(
                    format!(
                        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
                         \"args\":{{\"name\":\"node {}\"}}}}",
                        key.0, key.0
                    ),
                    &mut out,
                    &mut first,
                );
            }
            let tname = if key.1 == PROTOCOL_TID {
                "protocol".to_string()
            } else {
                format!("thread {}", key.1)
            };
            push(
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\
                     \"args\":{{\"name\":\"{tname}\"}}}}",
                    key.0, key.1
                ),
                &mut out,
                &mut first,
            );
        }
    }

    let by_id: std::collections::HashMap<u64, &Span> = spans.iter().map(|s| (s.id.0, s)).collect();

    for s in spans {
        let pid = u64::from(s.node.0);
        let tid = display_tid(s.task);
        let mut name = String::new();
        escape_json(&mut name, &format!("{}:{}", s.kind, s.label));
        let mut tag = String::new();
        if let Some(t) = &s.tag {
            tag.push_str(",\"tag\":");
            escape_json(&mut tag, t);
        }
        push(
            format!(
                "{{\"name\":{name},\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\
                 \"dur\":{:.3},\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"span\":{},\"parent\":{}{tag}}}}}",
                s.kind,
                micros(s.start.as_nanos()),
                micros(s.end.as_nanos().saturating_sub(s.start.as_nanos())),
                s.id.0,
                s.parent.0,
            ),
            &mut out,
            &mut first,
        );
        // A parent on a different (node, task) track gets a flow arrow.
        if let Some(parent) = by_id.get(&s.parent.0) {
            let ppid = u64::from(parent.node.0);
            let ptid = display_tid(parent.task);
            if (ppid, ptid) != (pid, tid) {
                push(
                    format!(
                        "{{\"name\":\"causal\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":{},\
                         \"ts\":{:.3},\"pid\":{ppid},\"tid\":{ptid}}}",
                        s.id.0,
                        micros(parent.start.as_nanos()),
                    ),
                    &mut out,
                    &mut first,
                );
                push(
                    format!(
                        "{{\"name\":\"causal\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\
                         \"id\":{},\"ts\":{:.3},\"pid\":{pid},\"tid\":{tid}}}",
                        s.id.0,
                        micros(s.start.as_nanos()),
                    ),
                    &mut out,
                    &mut first,
                );
            }
        }
    }

    if let Some(series) = series {
        // One counter track per (pid, name); values stepped per window,
        // with explicit zeros at idle windows so drops are visible.
        let width_us = micros(series.window.as_nanos());
        let mut tracks: std::collections::BTreeMap<
            (u64, String),
            std::collections::BTreeMap<u64, u64>,
        > = std::collections::BTreeMap::new();
        for p in &series.counters {
            let (pid, name) = match p.scope {
                SeriesScope::Node(n) => (u64::from(n), p.name.clone()),
                SeriesScope::Link(s, d) => (u64::from(s), format!("link{s}>{d} {}", p.name)),
            };
            *tracks
                .entry((pid, name))
                .or_default()
                .entry(p.window)
                .or_insert(0) += p.delta;
        }
        for p in &series.hists {
            let pid = u64::from(p.node);
            for (q, v) in [("p50", p.p50), ("p99", p.p99)] {
                tracks
                    .entry((pid, format!("{} {q} (ns)", p.name)))
                    .or_default()
                    .insert(p.window, v.as_nanos());
            }
        }
        for ((pid, name), values) in &tracks {
            let mut quoted = String::new();
            escape_json(&mut quoted, name);
            for window in 0..series.windows {
                let value = values.get(&window).copied().unwrap_or(0);
                push(
                    format!(
                        "{{\"name\":{quoted},\"cat\":\"telemetry\",\"ph\":\"C\",\
                         \"ts\":{:.3},\"pid\":{pid},\"args\":{{\"value\":{value}}}}}",
                        window as f64 * width_us,
                    ),
                    &mut out,
                    &mut first,
                );
            }
        }
    }

    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_core::{SpanId, SpanKind};
    use dex_net::NodeId;
    use dex_os::Tid;
    use dex_sim::SimTime;

    fn span(id: u64, parent: u64, node: u16, task: u64) -> Span {
        Span {
            id: SpanId(id),
            parent: SpanId(parent),
            kind: SpanKind::Fault,
            node: NodeId(node),
            task: Tid(task),
            start: SimTime::from_nanos(1_000),
            end: SimTime::from_nanos(2_500),
            label: "write_fault",
            tag: Some("data\"quote"),
            site: "",
            addr: None,
        }
    }

    #[test]
    fn emits_complete_events_and_metadata(// (json validity is covered by the proptest in tests/)
    ) {
        let json = export_chrome_trace(&[span(1, 0, 1, 3)]);
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("data\\\"quote"), "tags are JSON-escaped");
        assert!(json.contains("\"ts\":1.000"), "timestamps are microseconds");
    }

    #[test]
    fn cross_track_parents_get_flow_arrows() {
        let parent = span(1, 0, 1, 3);
        let mut child = span(2, 1, 0, u64::MAX);
        child.kind = SpanKind::DirectoryHandling;
        let json = export_chrome_trace(&[parent, child]);
        assert!(
            json.contains("\"ph\":\"s\""),
            "flow start on the parent track"
        );
        assert!(
            json.contains("\"ph\":\"f\""),
            "flow finish on the child track"
        );
        // Same-track parent: no flow events.
        let json2 = export_chrome_trace(&[span(1, 0, 1, 3), span(2, 1, 1, 3)]);
        assert!(!json2.contains("\"cat\":\"flow\""));
    }

    #[test]
    fn series_renders_as_counter_tracks() {
        use dex_net::{CounterPoint, HistPoint, SeriesScope, TimeSeries};
        use dex_sim::SimDuration;
        let series = TimeSeries {
            window: SimDuration::from_micros(50),
            windows: 2,
            end: SimTime::from_nanos(100_000),
            counters: vec![
                CounterPoint {
                    window: 1,
                    scope: SeriesScope::Node(0),
                    name: "faults.write".into(),
                    delta: 4,
                },
                CounterPoint {
                    window: 0,
                    scope: SeriesScope::Link(0, 1),
                    name: "bytes".into(),
                    delta: 4_096,
                },
            ],
            hists: vec![HistPoint {
                window: 0,
                node: 1,
                name: "net.send_pool_wait".into(),
                count: 3,
                p50: SimDuration::from_nanos(900),
                p95: SimDuration::from_nanos(950),
                p99: SimDuration::from_nanos(990),
            }],
        };
        let json = export_chrome_trace_with_series(&[span(1, 0, 0, 3)], Some(&series));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"name\":\"faults.write\""));
        assert!(json.contains("\"name\":\"link0>1 bytes\""));
        assert!(json.contains("\"name\":\"net.send_pool_wait p99 (ns)\""));
        // Window 0 of the node counter is an explicit zero; window 1 at
        // the 50µs boundary carries the delta.
        assert!(json.contains("\"ts\":0.000,\"pid\":0,\"args\":{\"value\":0}"));
        assert!(json.contains("\"ts\":50.000,\"pid\":0,\"args\":{\"value\":4}"));
        // Without a series nothing changes.
        assert!(!export_chrome_trace(&[span(1, 0, 0, 3)]).contains("\"ph\":\"C\""));
    }
}
