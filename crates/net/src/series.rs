//! Windowed time-series built from a [`MetricsRegistry`] by the
//! continuous-telemetry sampler.
//!
//! The registry's counters are cumulative; a [`SeriesBuilder`] turns them
//! into per-window *deltas* by diffing successive snapshots at each
//! window boundary, and turns each histogram's samples of the window
//! (see [`MetricsRegistry::close_window`]) into per-window latency
//! quantiles. Windows
//! are half-open `[k*w, (k+1)*w)` in virtual time; window `k` covers
//! exactly the events with `k*w <= t < (k+1)*w`.
//!
//! Everything here is pure bookkeeping over data the registry already
//! collects: building a series never advances virtual time, parks, or
//! sends, so a run with telemetry enabled takes exactly the same event
//! schedule as one without (enforced by test in `dex-core`).

use std::collections::BTreeMap;
use std::rc::Rc;

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

/// Accumulates a [`TimeSeries`] by sampling a registry at successive
/// window boundaries.
///
/// Constructing the builder opens the registry's histogram windows; each
/// [`SeriesBuilder::sample`] call closes one window (diffing counters,
/// closing the histogram window); [`SeriesBuilder::finish`] closes a
/// trailing partial window if the run ended mid-window.
pub struct SeriesBuilder {
    registry: Rc<MetricsRegistry>,
    window: SimDuration,
    next_window: u64,
    /// Each counter's value at the last boundary.
    prev: BTreeMap<(SeriesScope, &'static str), u64>,
    counters: Vec<CounterPoint>,
    hists: Vec<HistPoint>,
}

impl SeriesBuilder {
    /// Creates a builder over `registry` with the given window width and
    /// opens the registry's histogram windows.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(registry: Rc<MetricsRegistry>, window: SimDuration) -> Self {
        assert!(!window.is_zero(), "series window must be positive");
        registry.open_windows();
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
    /// last boundary becomes a [`CounterPoint`], every histogram that
    /// recorded samples in the window a [`HistPoint`].
    pub fn sample(&mut self) {
        let window = self.next_window;
        self.next_window += 1;

        let nodes = self.registry.nodes() as u16;
        let links = (0..nodes).flat_map(|s| (0..nodes).map(move |d| SeriesScope::Link(s, d)));
        for scope in (0..nodes).map(SeriesScope::Node).chain(links) {
            for (name, value) in self.registry.counts(scope) {
                let prev = self.prev.insert((scope, name), value).unwrap_or(0);
                if value > prev {
                    self.counters.push(CounterPoint {
                        window,
                        scope,
                        name: name.to_string(),
                        delta: value - prev,
                    });
                }
            }
        }

        for ((name, node), mut samples) in self.registry.close_window() {
            samples.sort_unstable();
            let q = |p: f64| {
                let rank = ((p / 100.0) * (samples.len() - 1) as f64).round() as usize;
                SimDuration::from_nanos(samples[rank.min(samples.len() - 1)])
            };
            self.hists.push(HistPoint {
                window,
                node,
                name: name.to_string(),
                count: samples.len() as u64,
                p50: q(50.0),
                p95: q(95.0),
                p99: q(99.0),
            });
        }
    }

    /// Closes a trailing partial window, counted only if anything moved
    /// since the last boundary, and returns the finished series ending at
    /// `end` (the final simulation clock).
    pub fn finish(mut self, end: SimTime) -> TimeSeries {
        let before = (self.counters.len(), self.hists.len());
        self.sample();
        let tail_moved = (self.counters.len(), self.hists.len()) != before;
        TimeSeries {
            window: self.window,
            windows: self.next_window - u64::from(!tail_moved),
            end,
            counters: self.counters,
            hists: self.hists,
        }
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

    fn builder(m: &Rc<MetricsRegistry>) -> SeriesBuilder {
        SeriesBuilder::new(Rc::clone(m), SimDuration::from_micros(10))
    }

    #[test]
    fn counter_deltas_are_per_window() {
        let m = MetricsRegistry::new(2);
        let mut b = builder(&m);
        m.count(NodeId(0), NodeCounter::MsgsSent, 3);
        b.sample();
        m.count(NodeId(0), NodeCounter::MsgsSent, 2);
        m.count_link(NodeId(0), NodeId(1), LinkCounter::Bytes, 100);
        b.sample();
        let series = b.finish(SimTime::from_nanos(20_000));
        let w0: Vec<_> = series.counters_in(0).collect();
        let w1: Vec<_> = series.counters_in(1).collect();
        assert_eq!(w0.len(), 1);
        assert_eq!(w0[0].delta, 3);
        assert_eq!(w1.len(), 2);
        let sent = w1.iter().find(|p| p.name == "msgs.sent").unwrap();
        assert_eq!(sent.delta, 2, "window 1 sees only the increment");
        let bytes = w1.iter().find(|p| p.name == "bytes").unwrap();
        assert_eq!(bytes.scope, SeriesScope::Link(0, 1));
        assert_eq!(bytes.delta, 100);
    }

    #[test]
    fn idle_windows_produce_no_points() {
        let m = MetricsRegistry::new(1);
        let mut b = builder(&m);
        m.count(NodeId(0), NodeCounter::MsgsSent, 1);
        b.sample();
        b.sample();
        let series = b.finish(SimTime::from_nanos(20_000));
        assert_eq!(series.windows, 2);
        assert_eq!(
            series.counters_in(1).count() + series.hists_in(1).count(),
            0
        );
    }

    #[test]
    fn hist_points_cover_only_the_window() {
        let m = MetricsRegistry::new(1);
        let mut b = builder(&m);
        m.observe("wait", NodeId(0), SimDuration::from_micros(100));
        b.sample();
        for us in [1u64, 2, 3] {
            m.observe("wait", NodeId(0), SimDuration::from_micros(us));
        }
        b.sample();
        let series = b.finish(SimTime::from_nanos(20_000));
        let w1: Vec<_> = series.hists_in(1).collect();
        assert_eq!(w1.len(), 1);
        let h = w1[0];
        assert_eq!(h.count, 3);
        // The 100µs sample of window 0 must not leak into window 1.
        assert_eq!(h.p50, SimDuration::from_micros(2));
        assert_eq!(h.p99, SimDuration::from_micros(3));
        // Every sample reached the run-wide histogram, once.
        let snap = m.snapshot();
        assert_eq!(snap.histograms[0].count, 4);
        let stats = snap.histograms[0].stats.expect("four samples");
        assert_eq!(stats.max, SimDuration::from_micros(100));
    }

    #[test]
    fn finish_closes_a_partial_tail_window() {
        let m = MetricsRegistry::new(1);
        let mut b = builder(&m);
        m.count(NodeId(0), NodeCounter::MsgsSent, 1);
        b.sample();
        m.count(NodeId(0), NodeCounter::MsgsSent, 1);
        let end = SimTime::from_nanos(15_000);
        let series = b.finish(end);
        assert_eq!(series.windows, 2, "full window 0 plus partial window 1");
        assert_eq!(series.end, end);
        assert_eq!(series.counters_in(1).count(), 1);

        // An empty tail is not counted as a window.
        let m = MetricsRegistry::new(1);
        let mut b = builder(&m);
        m.count(NodeId(0), NodeCounter::MsgsSent, 1);
        b.sample();
        let series = b.finish(SimTime::from_nanos(10_000));
        assert_eq!(series.windows, 1);
    }
}
