//! Continuous telemetry: the window collector and online health
//! monitors.
//!
//! With [`ClusterConfig::with_telemetry`](crate::ClusterConfig::with_telemetry)
//! enabled, the cluster installs a virtual-time sampler on the engine
//! (see `dex_sim::Engine::set_sampler`). At every window boundary the
//! sampler closes one window of the [`TimeSeries`] (counter deltas from
//! the [`MetricsRegistry`](dex_net::MetricsRegistry), latency quantiles
//! from its window tap) and hands the fresh window — plus the spans that
//! completed inside it — to the **health monitors**, which emit
//! structured [`HealthEvent`]s:
//!
//! * **page ping-pong** — faults on one allocation tag from several
//!   nodes within one window (the §IV-B false-sharing signature);
//! * **retry storm** — a burst of fault retries on one node
//!   (conflicting directory transactions);
//! * **stalled request** — a protocol operation whose span exceeded a
//!   deadline;
//! * **fabric queue buildup** — a link carrying an outsized message
//!   burst in one window.
//!
//! Each event carries the causal [`SpanId`] that triggered it (the
//! offending span, or the window's longest span on the node for
//! metric-derived events), so a health alarm links straight into the
//! span timeline / Perfetto export.
//!
//! Like spans and metrics, telemetry is pure bookkeeping: the sampler
//! runs inside the engine between events and never advances time,
//! parks, or sends, so a telemetry-enabled run takes byte-for-byte the
//! same schedule as a bare one (enforced by
//! `crates/core/tests/telemetry.rs`).

use dex_net::{NodeId, SeriesBuilder, SeriesScope, TimeSeries, WindowPoints};
use dex_sim::{SimDuration, SimTime};

use crate::span::{Span, SpanBuffer, SpanId, SpanKind};

/// Telemetry configuration: window width plus monitor thresholds.
#[derive(Clone, Debug)]
pub struct TelemetryConfig {
    /// Virtual-time window width for the time-series and monitors.
    pub window: SimDuration,
    /// Health-monitor thresholds.
    pub monitors: MonitorConfig,
}

/// Thresholds of the online health monitors. The defaults are tuned for
/// the calibrated cost model (microsecond-scale protocol operations).
#[derive(Clone, Debug)]
pub struct MonitorConfig {
    /// Page ping-pong: fault spans carrying the same allocation tag,
    /// from at least two distinct nodes, totalling at least this many in
    /// one window.
    pub pingpong_faults: u64,
    /// Retry storm: at least this many fault retries on one node in one
    /// window.
    pub retry_storm: u64,
    /// Stalled request: any protocol span (futex waits excluded — an
    /// application is allowed to block on purpose) lasting at least this
    /// long.
    pub stall_deadline: SimDuration,
    /// Fabric queue buildup: at least this many messages on one directed
    /// link in one window.
    pub link_msgs_buildup: u64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            pingpong_faults: 8,
            retry_storm: 8,
            stall_deadline: SimDuration::from_millis(1),
            link_msgs_buildup: 64,
        }
    }
}

/// What a [`HealthEvent`] reports.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum HealthEventKind {
    /// One allocation tag faulted from several nodes in one window.
    PagePingPong,
    /// A burst of fault retries on one node in one window.
    RetryStorm,
    /// A protocol operation exceeded the stall deadline.
    StalledRequest,
    /// A directed link carried an outsized message burst in one window.
    FabricQueueBuildup,
}

impl HealthEventKind {
    /// Stable lowercase name (used by exporters).
    pub fn as_str(self) -> &'static str {
        match self {
            HealthEventKind::PagePingPong => "page_ping_pong",
            HealthEventKind::RetryStorm => "retry_storm",
            HealthEventKind::StalledRequest => "stalled_request",
            HealthEventKind::FabricQueueBuildup => "fabric_queue_buildup",
        }
    }

    /// Parses the name produced by [`HealthEventKind::as_str`].
    pub fn parse(name: &str) -> Option<HealthEventKind> {
        Some(match name {
            "page_ping_pong" => HealthEventKind::PagePingPong,
            "retry_storm" => HealthEventKind::RetryStorm,
            "stalled_request" => HealthEventKind::StalledRequest,
            "fabric_queue_buildup" => HealthEventKind::FabricQueueBuildup,
            _ => return None,
        })
    }
}

impl std::fmt::Display for HealthEventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured alarm from the online health monitors.
#[derive(Clone, Debug)]
pub struct HealthEvent {
    /// The window the condition was detected in.
    pub window: u64,
    /// The virtual instant of detection (the window's closing boundary,
    /// or the end of the run for a partial tail window).
    pub at: SimTime,
    /// What was detected.
    pub kind: HealthEventKind,
    /// The node the condition is attributed to (the `src` side for link
    /// conditions).
    pub node: NodeId,
    /// The causal span that triggered the alarm: the offending span
    /// itself, or — for purely metric-derived conditions — the longest
    /// span that completed on `node` in the window ([`SpanId::NONE`]
    /// when spans are disabled or none completed).
    pub span: SpanId,
    /// Human-readable specifics (tag names, counts, durations).
    pub detail: String,
}

impl std::fmt::Display for HealthEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[w{} {}] {} node{}: {} ({})",
            self.window, self.at, self.kind, self.node.0, self.detail, self.span
        )
    }
}

/// The per-run telemetry state driven by the engine sampler: one series
/// builder plus the monitors, behind a single lock.
pub(crate) struct Telemetry {
    builder: SeriesBuilder,
    monitors: HealthMonitors,
}

impl Telemetry {
    pub(crate) fn new(
        registry: std::sync::Arc<dex_net::MetricsRegistry>,
        config: &TelemetryConfig,
        span_buffers: Vec<SpanBuffer>,
    ) -> Self {
        Telemetry {
            builder: SeriesBuilder::new(registry, config.window),
            monitors: HealthMonitors::new(config.monitors.clone(), span_buffers),
        }
    }

    /// One sampler tick: closes the current window and runs the monitors
    /// over it.
    pub(crate) fn on_boundary(&mut self, boundary: SimTime) {
        let points = self.builder.sample();
        self.monitors.process(boundary, &points);
    }

    /// Closes the partial tail window (if it saw activity) and returns
    /// the finished series and every health event.
    pub(crate) fn finish(mut self, end: SimTime) -> (TimeSeries, Vec<HealthEvent>) {
        let (series, tail) = self.builder.finish(end);
        if let Some(points) = tail {
            self.monitors.process(end, &points);
        }
        (series, self.monitors.events)
    }
}

/// The four online monitors, fed one window at a time.
struct HealthMonitors {
    cfg: MonitorConfig,
    /// Every process's span buffer with a drain cursor (spans recorded
    /// since the previous boundary belong to the window being closed —
    /// spans are recorded at completion, and the sampler fires before
    /// the boundary event runs).
    spans: Vec<(SpanBuffer, usize)>,
    events: Vec<HealthEvent>,
}

impl HealthMonitors {
    fn new(cfg: MonitorConfig, span_buffers: Vec<SpanBuffer>) -> Self {
        HealthMonitors {
            cfg,
            spans: span_buffers.into_iter().map(|b| (b, 0)).collect(),
            events: Vec::new(),
        }
    }

    fn process(&mut self, at: SimTime, points: &WindowPoints) {
        let window = points.window;
        let mut completed: Vec<Span> = Vec::new();
        for (buffer, cursor) in &mut self.spans {
            let (batch, next) = buffer.snapshot_since(*cursor);
            *cursor = next;
            completed.extend(batch);
        }

        // The fallback causal anchor for metric-derived alarms: the
        // longest span that completed on each node this window.
        let longest_on = |node: NodeId| {
            completed
                .iter()
                .filter(|s| s.node == node)
                .max_by_key(|s| s.duration())
                .map(|s| s.id)
                .unwrap_or(SpanId::NONE)
        };

        // Page ping-pong: same tag faulted from >= 2 nodes, enough times.
        let mut by_tag: std::collections::BTreeMap<&str, Vec<&Span>> =
            std::collections::BTreeMap::new();
        for s in completed.iter().filter(|s| s.kind == SpanKind::Fault) {
            if let Some(tag) = &s.tag {
                by_tag.entry(tag.as_str()).or_default().push(s);
            }
        }
        for (tag, faults) in by_tag {
            let nodes: std::collections::BTreeSet<u16> = faults.iter().map(|s| s.node.0).collect();
            if faults.len() as u64 >= self.cfg.pingpong_faults && nodes.len() >= 2 {
                let last = faults.last().expect("non-empty group");
                self.events.push(HealthEvent {
                    window,
                    at,
                    kind: HealthEventKind::PagePingPong,
                    node: last.node,
                    span: last.id,
                    detail: format!(
                        "tag '{tag}' faulted {}x across {} nodes",
                        faults.len(),
                        nodes.len()
                    ),
                });
            }
        }

        // Retry storm: too many fault retries on one node.
        let mut retries: std::collections::BTreeMap<u16, Vec<&Span>> =
            std::collections::BTreeMap::new();
        for s in completed.iter().filter(|s| s.kind == SpanKind::FaultRetry) {
            retries.entry(s.node.0).or_default().push(s);
        }
        for (node, batch) in retries {
            if batch.len() as u64 >= self.cfg.retry_storm {
                let last = batch.last().expect("non-empty group");
                self.events.push(HealthEvent {
                    window,
                    at,
                    kind: HealthEventKind::RetryStorm,
                    node: NodeId(node),
                    span: last.id,
                    detail: format!("{} fault retries", batch.len()),
                });
            }
        }

        // Stalled requests: any protocol span past the deadline. Futex
        // waits are excluded — blocking there is application intent.
        for s in &completed {
            if matches!(s.kind, SpanKind::FutexWait | SpanKind::FutexWake) {
                continue;
            }
            let d = s.duration();
            if d >= self.cfg.stall_deadline {
                self.events.push(HealthEvent {
                    window,
                    at,
                    kind: HealthEventKind::StalledRequest,
                    node: s.node,
                    span: s.id,
                    detail: format!(
                        "{} '{}' took {} (deadline {})",
                        s.kind, s.label, d, self.cfg.stall_deadline
                    ),
                });
            }
        }

        // Fabric queue buildup: an outsized per-window message burst on
        // one directed link.
        for p in &points.counters {
            if let SeriesScope::Link(src, dst) = p.scope {
                if p.name == "msgs" && p.delta >= self.cfg.link_msgs_buildup {
                    self.events.push(HealthEvent {
                        window,
                        at,
                        kind: HealthEventKind::FabricQueueBuildup,
                        node: NodeId(src),
                        span: longest_on(NodeId(src)),
                        detail: format!("link {src}->{dst} carried {} msgs", p.delta),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_net::{LinkCounter, MetricsRegistry};
    use dex_os::Tid;
    use std::sync::Arc;

    fn span(id: u64, kind: SpanKind, node: u16, dur_us: u64, tag: Option<&str>) -> Span {
        Span {
            id: SpanId(id),
            parent: SpanId::NONE,
            kind,
            node: NodeId(node),
            task: Tid(0),
            start: SimTime::ZERO,
            end: SimTime::ZERO + SimDuration::from_micros(dur_us),
            label: "test",
            tag: tag.map(str::to_string),
            site: "",
            addr: None,
        }
    }

    fn telemetry_with(cfg: MonitorConfig, spans: &SpanBuffer) -> Telemetry {
        Telemetry::new(
            MetricsRegistry::new(2),
            &TelemetryConfig {
                window: SimDuration::from_micros(10),
                monitors: cfg,
            },
            vec![spans.clone()],
        )
    }

    #[test]
    fn pingpong_needs_two_nodes_and_enough_faults() {
        let spans = SpanBuffer::enabled();
        let mut t = telemetry_with(
            MonitorConfig {
                pingpong_faults: 3,
                ..MonitorConfig::default()
            },
            &spans,
        );
        // Three faults on the same tag, but all on one node: no alarm.
        for i in 1..=3 {
            spans.record(span(i, SpanKind::Fault, 0, 1, Some("hot")));
        }
        t.on_boundary(SimTime::from_nanos(10_000));
        // Three more, now split across nodes: alarm.
        spans.record(span(4, SpanKind::Fault, 0, 1, Some("hot")));
        spans.record(span(5, SpanKind::Fault, 1, 1, Some("hot")));
        spans.record(span(6, SpanKind::Fault, 1, 1, Some("hot")));
        t.on_boundary(SimTime::from_nanos(20_000));
        let (_, events) = t.finish(SimTime::from_nanos(20_000));
        assert_eq!(events.len(), 1, "{events:?}");
        let e = &events[0];
        assert_eq!(e.kind, HealthEventKind::PagePingPong);
        assert_eq!(e.window, 1);
        assert_eq!(e.span, SpanId(6), "anchored to the last offending fault");
        assert!(e.detail.contains("'hot'"), "{}", e.detail);
    }

    #[test]
    fn retry_storm_and_stall_fire_per_span_conditions() {
        let spans = SpanBuffer::enabled();
        let mut t = telemetry_with(
            MonitorConfig {
                retry_storm: 2,
                stall_deadline: SimDuration::from_micros(100),
                ..MonitorConfig::default()
            },
            &spans,
        );
        spans.record(span(1, SpanKind::FaultRetry, 1, 1, None));
        spans.record(span(2, SpanKind::FaultRetry, 1, 1, None));
        spans.record(span(3, SpanKind::Delegation, 0, 500, None)); // stalled
        spans.record(span(4, SpanKind::FutexWait, 0, 900, None)); // exempt
        t.on_boundary(SimTime::from_nanos(10_000));
        let (_, events) = t.finish(SimTime::from_nanos(10_000));
        let kinds: Vec<_> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![HealthEventKind::RetryStorm, HealthEventKind::StalledRequest],
            "{events:?}"
        );
        assert_eq!(events[0].node, NodeId(1));
        assert_eq!(events[1].span, SpanId(3));
    }

    #[test]
    fn fabric_buildup_uses_link_deltas_and_anchors_a_span() {
        let registry = MetricsRegistry::new(2);
        let spans = SpanBuffer::enabled();
        let mut t = Telemetry::new(
            Arc::clone(&registry),
            &TelemetryConfig {
                window: SimDuration::from_micros(10),
                monitors: MonitorConfig {
                    link_msgs_buildup: 5,
                    ..MonitorConfig::default()
                },
            },
            vec![spans.clone()],
        );
        registry.count_link(NodeId(0), NodeId(1), LinkCounter::Msgs, 6);
        spans.record(span(1, SpanKind::DirectoryHandling, 0, 3, None));
        spans.record(span(2, SpanKind::Fault, 0, 9, None)); // longest on node 0
        t.on_boundary(SimTime::from_nanos(10_000));
        // Below threshold in the next window: no second alarm.
        registry.count_link(NodeId(0), NodeId(1), LinkCounter::Msgs, 2);
        t.on_boundary(SimTime::from_nanos(20_000));
        let (series, events) = t.finish(SimTime::from_nanos(20_000));
        assert_eq!(events.len(), 1, "{events:?}");
        let e = &events[0];
        assert_eq!(e.kind, HealthEventKind::FabricQueueBuildup);
        assert_eq!(e.node, NodeId(0));
        assert_eq!(e.span, SpanId(2), "anchored to the window's longest span");
        assert!(e.detail.contains("0->1"), "{}", e.detail);
        assert_eq!(series.windows, 2);
    }
}
