//! Windowed time-series built from a [`MetricsRegistry`] by the
//! continuous-telemetry sampler.
//!
//! The registry's counters are cumulative; a [`SeriesBuilder`] turns them
//! into per-window *deltas* by diffing successive snapshots at each
//! window boundary, and turns the registry's window tap (raw samples
//! since the last boundary) into per-window latency quantiles. Windows
//! are half-open `[k*w, (k+1)*w)` in virtual time; window `k` covers
//! exactly the events with `k*w <= t < (k+1)*w`.
//!
//! Everything here is pure bookkeeping over data the registry already
//! collects: building a series never advances virtual time, parks, or
//! sends, so a run with telemetry enabled takes exactly the same event
//! schedule as one without (enforced by test in `dex-core`).

use std::collections::BTreeMap;
use std::sync::Arc;

use dex_sim::{SimDuration, SimTime};

use crate::metrics::MetricsRegistry;

/// What a [`CounterPoint`] is dimensioned by: one node, or one directed
/// link.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SeriesScope {
    /// A per-node counter.
    Node(u16),
    /// A per-link counter (`src`, `dst`).
    Link(u16, u16),
}

impl std::fmt::Display for SeriesScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SeriesScope::Node(n) => write!(f, "node{n}"),
            SeriesScope::Link(s, d) => write!(f, "link{s}>{d}"),
        }
    }
}

/// One counter's increment over one window. Zero deltas are not stored:
/// absence of a point means the counter did not move in that window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterPoint {
    /// Window index (window `k` covers `[k*w, (k+1)*w)`).
    pub window: u64,
    /// The node or link the counter belongs to.
    pub scope: SeriesScope,
    /// Counter name (e.g. `faults.write`, `bytes`).
    pub name: String,
    /// Increment over this window.
    pub delta: u64,
}

/// One histogram's per-window quantiles, computed over exactly the
/// samples recorded inside the window (not the cumulative reservoir).
/// Only windows with at least one sample produce a point, so `count` is
/// always positive — "no samples" is the absence of the point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistPoint {
    /// Window index.
    pub window: u64,
    /// The node the samples belong to.
    pub node: u16,
    /// Histogram name.
    pub name: String,
    /// Samples inside this window (always > 0).
    pub count: u64,
    /// Median of the window's samples.
    pub p50: SimDuration,
    /// 95th percentile of the window's samples.
    pub p95: SimDuration,
    /// 99th percentile of the window's samples.
    pub p99: SimDuration,
}

/// A complete windowed time-series for one run.
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    /// Window width in virtual time.
    pub window: SimDuration,
    /// Number of windows recorded, including a trailing partial window
    /// if the run ended mid-window with activity in it.
    pub windows: u64,
    /// The virtual instant the series ends (final simulation clock).
    pub end: SimTime,
    /// Per-window counter deltas, ordered by `(window, scope, name)`.
    pub counters: Vec<CounterPoint>,
    /// Per-window histogram quantiles, ordered by `(window, name, node)`.
    pub hists: Vec<HistPoint>,
}

impl TimeSeries {
    /// All counter points of window `k`, in order.
    pub fn counters_in(&self, window: u64) -> impl Iterator<Item = &CounterPoint> {
        self.counters.iter().filter(move |p| p.window == window)
    }

    /// All histogram points of window `k`, in order.
    pub fn hists_in(&self, window: u64) -> impl Iterator<Item = &HistPoint> {
        self.hists.iter().filter(move |p| p.window == window)
    }
}

/// The points one sampler invocation appended — handed to health
/// monitors so they can judge the freshest window without re-scanning
/// the whole series.
#[derive(Clone, Debug, Default)]
pub struct WindowPoints {
    /// The window these points cover.
    pub window: u64,
    /// Counter deltas of this window.
    pub counters: Vec<CounterPoint>,
    /// Histogram quantiles of this window.
    pub hists: Vec<HistPoint>,
}

/// Accumulates a [`TimeSeries`] by sampling a registry at successive
/// window boundaries.
///
/// Constructing the builder attaches the registry's window tap; each
/// [`SeriesBuilder::sample`] call closes one window (diffing counters,
/// draining the tap); [`SeriesBuilder::finish`] closes a trailing
/// partial window if the run ended mid-window.
pub struct SeriesBuilder {
    registry: Arc<MetricsRegistry>,
    window: SimDuration,
    next_window: u64,
    /// Each counter's value at the last boundary.
    prev: BTreeMap<(SeriesScope, &'static str), u64>,
    counters: Vec<CounterPoint>,
    hists: Vec<HistPoint>,
}

impl SeriesBuilder {
    /// Creates a builder over `registry` with the given window width and
    /// attaches the registry's window tap.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(registry: Arc<MetricsRegistry>, window: SimDuration) -> Self {
        assert!(!window.is_zero(), "series window must be positive");
        registry.enable_window_tap();
        SeriesBuilder {
            registry,
            window,
            next_window: 0,
            prev: BTreeMap::new(),
            counters: Vec::new(),
            hists: Vec::new(),
        }
    }

    /// Closes the current window: every counter that moved since the
    /// last boundary becomes a [`CounterPoint`], every histogram with
    /// tapped samples becomes a [`HistPoint`]. Returns the new points
    /// (also retained internally for the final series).
    pub fn sample(&mut self) -> WindowPoints {
        let window = self.next_window;
        self.next_window += 1;
        let mut points = WindowPoints {
            window,
            counters: Vec::new(),
            hists: Vec::new(),
        };

        let nodes = self.registry.nodes() as u16;
        let links = (0..nodes).flat_map(|s| (0..nodes).map(move |d| SeriesScope::Link(s, d)));
        for scope in (0..nodes).map(SeriesScope::Node).chain(links) {
            for (name, value) in self.registry.counts(scope) {
                let prev = self.prev.insert((scope, name), value).unwrap_or(0);
                if value > prev {
                    points.counters.push(CounterPoint {
                        window,
                        scope,
                        name: name.to_string(),
                        delta: value - prev,
                    });
                }
            }
        }

        for ((name, node), mut samples) in self.registry.drain_window_samples() {
            if samples.is_empty() {
                continue;
            }
            samples.sort_unstable();
            let q = |p: f64| {
                let rank = ((p / 100.0) * (samples.len() - 1) as f64).round() as usize;
                SimDuration::from_nanos(samples[rank.min(samples.len() - 1)])
            };
            points.hists.push(HistPoint {
                window,
                node,
                name,
                count: samples.len() as u64,
                p50: q(50.0),
                p95: q(95.0),
                p99: q(99.0),
            });
        }

        self.counters.extend(points.counters.iter().cloned());
        self.hists.extend(points.hists.iter().cloned());
        points
    }

    /// Closes a trailing partial window if anything moved since the last
    /// boundary, and returns the finished series ending at `end` (the
    /// final simulation clock). The partial window's points, if any, are
    /// also returned so monitors can judge it.
    pub fn finish(mut self, end: SimTime) -> (TimeSeries, Option<WindowPoints>) {
        let tail = self.sample();
        let tail_nonempty = !tail.counters.is_empty() || !tail.hists.is_empty();
        let windows = if tail_nonempty {
            self.next_window
        } else {
            self.next_window - 1
        };
        let series = TimeSeries {
            window: self.window,
            windows,
            end,
            counters: self.counters,
            hists: self.hists,
        };
        (series, tail_nonempty.then_some(tail))
    }
}

impl std::fmt::Debug for SeriesBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeriesBuilder")
            .field("window", &self.window)
            .field("next_window", &self.next_window)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinkCounter, NodeCounter, NodeId};

    #[test]
    fn counter_deltas_are_per_window() {
        let m = MetricsRegistry::new(2);
        let mut b = SeriesBuilder::new(Arc::clone(&m), SimDuration::from_micros(10));
        m.count(NodeId(0), NodeCounter::MsgsSent, 3);
        let w0 = b.sample();
        m.count(NodeId(0), NodeCounter::MsgsSent, 2);
        m.count_link(NodeId(0), NodeId(1), LinkCounter::Bytes, 100);
        let w1 = b.sample();
        assert_eq!(w0.counters.len(), 1);
        assert_eq!(w0.counters[0].delta, 3);
        assert_eq!(w1.counters.len(), 2);
        let sent = w1.counters.iter().find(|p| p.name == "msgs.sent").unwrap();
        assert_eq!(sent.delta, 2, "window 1 sees only the increment");
        let bytes = w1.counters.iter().find(|p| p.name == "bytes").unwrap();
        assert_eq!(bytes.scope, SeriesScope::Link(0, 1));
        assert_eq!(bytes.delta, 100);
    }

    #[test]
    fn idle_windows_produce_no_points() {
        let m = MetricsRegistry::new(1);
        let mut b = SeriesBuilder::new(Arc::clone(&m), SimDuration::from_micros(10));
        m.count(NodeId(0), NodeCounter::MsgsSent, 1);
        b.sample();
        let idle = b.sample();
        assert!(idle.counters.is_empty() && idle.hists.is_empty());
    }

    #[test]
    fn hist_points_cover_only_the_window() {
        let m = MetricsRegistry::new(1);
        let mut b = SeriesBuilder::new(Arc::clone(&m), SimDuration::from_micros(10));
        m.observe("wait", NodeId(0), SimDuration::from_micros(100));
        b.sample();
        for us in [1u64, 2, 3] {
            m.observe("wait", NodeId(0), SimDuration::from_micros(us));
        }
        let w1 = b.sample();
        assert_eq!(w1.hists.len(), 1);
        let h = &w1.hists[0];
        assert_eq!(h.count, 3);
        // The 100µs sample of window 0 must not leak into window 1.
        assert_eq!(h.p50, SimDuration::from_micros(2));
        assert_eq!(h.p99, SimDuration::from_micros(3));
    }

    #[test]
    fn finish_closes_a_partial_tail_window() {
        let m = MetricsRegistry::new(1);
        let mut b = SeriesBuilder::new(Arc::clone(&m), SimDuration::from_micros(10));
        m.count(NodeId(0), NodeCounter::MsgsSent, 1);
        b.sample();
        m.count(NodeId(0), NodeCounter::MsgsSent, 1);
        let end = SimTime::from_nanos(15_000);
        let (series, tail) = b.finish(end);
        assert_eq!(series.windows, 2, "full window 0 plus partial window 1");
        assert_eq!(series.end, end);
        let tail = tail.expect("the tail window saw an increment");
        assert_eq!(tail.window, 1);
        assert_eq!(series.counters_in(1).count(), 1);

        // An empty tail is not counted as a window.
        let m = MetricsRegistry::new(1);
        let mut b = SeriesBuilder::new(Arc::clone(&m), SimDuration::from_micros(10));
        m.count(NodeId(0), NodeCounter::MsgsSent, 1);
        b.sample();
        let (series, tail) = b.finish(SimTime::from_nanos(10_000));
        assert_eq!(series.windows, 1);
        assert!(tail.is_none());
    }
}
