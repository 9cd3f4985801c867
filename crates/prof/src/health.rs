//! Health alarms, derived after the run from a telemetry series and the
//! run's spans.
//!
//! [`health`] buckets the spans by the window they completed in and
//! judges each window of the [`TimeSeries`] with four rules, emitting
//! structured [`HealthEvent`]s:
//!
//! * **page ping-pong** — fault spans on one allocation tag, from at
//!   least two nodes, at least [`MonitorConfig::pingpong_faults`] of them
//!   in one window (the §IV-B false-sharing signature);
//! * **retry storm** — at least [`MonitorConfig::retry_storm`] fault
//!   retries on one node in one window (conflicting directory
//!   transactions);
//! * **stalled request** — any span other than a futex wait or wake that
//!   lasted at least [`MonitorConfig::stall_deadline`];
//! * **fabric queue buildup** — at least
//!   [`MonitorConfig::link_msgs_buildup`] messages on one directed link
//!   in one window.
//!
//! Each event carries the causal [`SpanId`] that triggered it (the
//! offending span, or the window's longest span on the node for the
//! link rule), so an alarm links straight into the span timeline and
//! the Perfetto export.

use std::collections::{BTreeMap, BTreeSet};

use dex_core::{Span, SpanId, SpanKind};
use dex_net::{NodeId, SeriesScope, TimeSeries};
use dex_sim::{SimDuration, SimTime};

/// Thresholds of the four health rules. The defaults are tuned for the
/// calibrated cost model (microsecond-scale protocol operations).
#[derive(Clone, Debug)]
pub struct MonitorConfig {
    /// Page ping-pong: fault spans carrying the same allocation tag,
    /// from at least two distinct nodes, totalling at least this many in
    /// one window.
    pub pingpong_faults: u64,
    /// Retry storm: at least this many fault retries on one node in one
    /// window.
    pub retry_storm: u64,
    /// Stalled request: any span (futex waits and wakes excluded — an
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
    /// An operation exceeded the stall deadline.
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
}

impl std::fmt::Display for HealthEventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured alarm of the health rules.
#[derive(Clone, Debug)]
pub struct HealthEvent {
    /// The window the condition was detected in.
    pub window: u64,
    /// The window's closing boundary, or the end of the run for a
    /// partial tail window.
    pub at: SimTime,
    /// What was detected.
    pub kind: HealthEventKind,
    /// The node the condition is attributed to (the `src` side for link
    /// conditions).
    pub node: NodeId,
    /// The causal span that triggered the alarm: the offending span
    /// itself, or — for the link rule — the longest span that completed
    /// on `node` in the window ([`SpanId::NONE`] when none did).
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

/// Judges every window `0..series.windows` of a telemetry run.
///
/// A span belongs to window `span.end / series.window`: spans are
/// recorded at completion and the engine closes each window before the
/// first event at or past its boundary runs, so this is the window that
/// was open when the span was recorded. Within a window, spans keep the
/// order of `spans`; for a multi-process run, pass every process's spans
/// in process creation order. Events come out by window, and within a
/// window by rule in the order of the module docs.
///
/// # Examples
///
/// ```
/// use dex_core::{Cluster, ClusterConfig};
/// use dex_prof::{health, MonitorConfig};
/// use dex_sim::SimDuration;
///
/// let config = ClusterConfig::new(2).with_telemetry(SimDuration::from_micros(100));
/// let report = Cluster::new(config).run(|p| {
///     p.spawn(|ctx| ctx.compute_ops(50_000));
/// });
/// let series = report.series.expect("telemetry on");
/// assert!(health(&series, &report.spans, &MonitorConfig::default()).is_empty());
/// ```
pub fn health(series: &TimeSeries, spans: &[Span], cfg: &MonitorConfig) -> Vec<HealthEvent> {
    if series.windows == 0 || series.window.is_zero() {
        return Vec::new();
    }
    // Per window: the spans that completed in it, and its links' message
    // bursts at or past the threshold as `(src, dst, msgs)`.
    type Window<'a> = (Vec<&'a Span>, Vec<(u16, u16, u64)>);
    let mut by_window: BTreeMap<u64, Window> = BTreeMap::new();
    for s in spans {
        let window = s.end.as_nanos() / series.window.as_nanos();
        if window < series.windows {
            by_window.entry(window).or_default().0.push(s);
        }
    }
    for p in &series.counters {
        if let SeriesScope::Link(src, dst) = p.scope {
            if p.name == "msgs" && p.delta >= cfg.link_msgs_buildup {
                let bursts = &mut by_window.entry(p.window).or_default().1;
                bursts.push((src, dst, p.delta));
            }
        }
    }
    let mut events = Vec::new();
    for (window, (completed, links)) in by_window {
        let at = (SimTime::ZERO + series.window * (window + 1)).min(series.end);
        let mut raise = |kind, node, span, detail| {
            events.push(HealthEvent {
                window,
                at,
                kind,
                node,
                span,
                detail,
            })
        };

        // Page ping-pong: same tag faulted from >= 2 nodes, enough times.
        let mut by_tag: BTreeMap<&str, Vec<&Span>> = BTreeMap::new();
        for s in completed.iter().filter(|s| s.kind == SpanKind::Fault) {
            if let Some(tag) = s.tag {
                by_tag.entry(tag).or_default().push(s);
            }
        }
        for (tag, faults) in by_tag {
            let nodes: BTreeSet<u16> = faults.iter().map(|s| s.node.0).collect();
            if faults.len() as u64 >= cfg.pingpong_faults && nodes.len() >= 2 {
                let last = faults.last().expect("non-empty group");
                let detail = format!(
                    "tag '{tag}' faulted {}x across {} nodes",
                    faults.len(),
                    nodes.len()
                );
                raise(HealthEventKind::PagePingPong, last.node, last.id, detail);
            }
        }

        // Retry storm: too many fault retries on one node.
        let mut retries: BTreeMap<u16, Vec<&Span>> = BTreeMap::new();
        for s in completed.iter().filter(|s| s.kind == SpanKind::FaultRetry) {
            retries.entry(s.node.0).or_default().push(s);
        }
        for (node, batch) in retries {
            if batch.len() as u64 >= cfg.retry_storm {
                let last = batch.last().expect("non-empty group");
                let detail = format!("{} fault retries", batch.len());
                raise(HealthEventKind::RetryStorm, NodeId(node), last.id, detail);
            }
        }

        // Stalled requests: any span past the deadline. Futex waits and
        // wakes are excluded — blocking there is application intent.
        for s in &completed {
            if matches!(s.kind, SpanKind::FutexWait | SpanKind::FutexWake) {
                continue;
            }
            let d = s.duration();
            if d >= cfg.stall_deadline {
                let detail = format!(
                    "{} '{}' took {} (deadline {})",
                    s.kind, s.label, d, cfg.stall_deadline
                );
                raise(HealthEventKind::StalledRequest, s.node, s.id, detail);
            }
        }

        // Fabric queue buildup: an outsized per-window message burst on
        // one directed link, anchored to the longest span of the window
        // on the sending node.
        for (src, dst, msgs) in links {
            let on_src = completed.iter().filter(|s| s.node == NodeId(src));
            let span = on_src
                .max_by_key(|s| s.duration())
                .map_or(SpanId::NONE, |s| s.id);
            let detail = format!("link {src}->{dst} carried {msgs} msgs");
            raise(
                HealthEventKind::FabricQueueBuildup,
                NodeId(src),
                span,
                detail,
            );
        }
    }
    events
}
