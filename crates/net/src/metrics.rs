//! Per-cluster metrics: node- and link-dimensioned counters plus named
//! latency histograms.
//!
//! The fabric's built-in [`Counters`](dex_sim::Counters) aggregate over
//! the whole cluster; the paper's profiling workflow (§IV) needs the
//! *distribution* — which node retries, which link stalls on credits,
//! where page traffic concentrates. A [`MetricsRegistry`] is attached to
//! a run explicitly (`ClusterConfig::with_metrics` in `dex-core`) and is
//! pure bookkeeping: recording into it never advances virtual time,
//! parks, or sends, so an instrumented run takes exactly the same
//! schedule as a bare one.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use dex_sim::{Counters, Histogram, SimDuration};

use crate::fabric::NodeId;

/// Node- and link-dimensioned counters and histograms for one cluster.
///
/// # Examples
///
/// ```
/// use dex_net::{MetricsRegistry, NodeId};
/// use dex_sim::SimDuration;
///
/// let m = MetricsRegistry::new(2);
/// m.node(NodeId(1)).incr("faults");
/// m.link(NodeId(0), NodeId(1)).add("bytes", 4096);
/// m.observe("net.send_pool_wait", NodeId(0), SimDuration::from_micros(3));
/// let snap = m.snapshot();
/// assert_eq!(snap.per_node[1], vec![("faults".to_string(), 1)]);
/// ```
pub struct MetricsRegistry {
    nodes: usize,
    per_node: Vec<Counters>,
    /// Row-major `src * nodes + dst`; the diagonal exists but stays
    /// empty (loopback never touches the fabric).
    per_link: Vec<Counters>,
    hists: Mutex<HistTable>,
    /// Maximum number of distinct `(name, node)` histogram keys. A buggy
    /// caller interpolating identifiers into histogram names cannot grow
    /// the registry without bound: past the cap, `observe` counts the
    /// sample into [`HistTable::dropped`] and discards it.
    hist_cap: usize,
}

/// Default bound on distinct histogram keys; generous for legitimate
/// metric names, tiny next to an unbounded per-request blowup.
pub const DEFAULT_HIST_CAP: usize = 1024;

struct HistTable {
    map: BTreeMap<(String, u16), Histogram>,
    /// Samples discarded because creating their key would exceed the cap.
    dropped: u64,
    /// When attached (continuous telemetry), every observed sample is
    /// also appended here, keyed like `map`; the sampler drains it at
    /// each window boundary to compute per-window quantiles.
    tap: Option<BTreeMap<(String, u16), Vec<u64>>>,
}

impl MetricsRegistry {
    /// Creates a registry for a cluster of `nodes` nodes, with the
    /// default histogram-cardinality cap ([`DEFAULT_HIST_CAP`]).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: usize) -> Arc<Self> {
        Self::with_histogram_cap(nodes, DEFAULT_HIST_CAP)
    }

    /// Creates a registry whose histogram table holds at most `cap`
    /// distinct `(name, node)` keys.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn with_histogram_cap(nodes: usize, cap: usize) -> Arc<Self> {
        assert!(nodes > 0, "metrics registry needs at least one node");
        Arc::new(MetricsRegistry {
            nodes,
            per_node: (0..nodes).map(|_| Counters::new()).collect(),
            per_link: (0..nodes * nodes).map(|_| Counters::new()).collect(),
            hists: Mutex::new(HistTable {
                map: BTreeMap::new(),
                dropped: 0,
                tap: None,
            }),
            hist_cap: cap,
        })
    }

    /// Number of nodes the registry covers.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The counter set of one node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the cluster.
    pub fn node(&self, node: NodeId) -> &Counters {
        &self.per_node[node.0 as usize]
    }

    /// The counter set of the directed link `src → dst`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is outside the cluster.
    pub fn link(&self, src: NodeId, dst: NodeId) -> &Counters {
        &self.per_link[src.0 as usize * self.nodes + dst.0 as usize]
    }

    /// Records one duration sample into the histogram `name` at `node`
    /// (created on first use, subject to the cardinality cap: once the
    /// table holds `hist_cap` distinct keys, samples for *new* keys are
    /// counted into [`MetricsRegistry::histograms_dropped`] and
    /// discarded; existing keys keep recording).
    pub fn observe(&self, name: &str, node: NodeId, d: SimDuration) {
        let hist = {
            let mut t = self.hists.lock();
            let key = (name.to_string(), node.0);
            let hist = match t.map.get(&key) {
                Some(h) => h.clone(),
                None => {
                    if t.map.len() >= self.hist_cap {
                        t.dropped += 1;
                        return;
                    }
                    t.map.entry(key.clone()).or_default().clone()
                }
            };
            if let Some(tap) = t.tap.as_mut() {
                tap.entry(key).or_default().push(d.as_nanos());
            }
            hist
        };
        hist.record(d);
    }

    /// Samples discarded by [`MetricsRegistry::observe`] because their
    /// `(name, node)` key would have exceeded the cardinality cap.
    pub fn histograms_dropped(&self) -> u64 {
        self.hists.lock().dropped
    }

    /// Attaches the window tap: from now on every `observe`d sample is
    /// additionally buffered for [`MetricsRegistry::drain_window_samples`].
    /// Used by the continuous-telemetry sampler; pure bookkeeping, like
    /// the rest of the registry.
    pub fn enable_window_tap(&self) {
        let mut t = self.hists.lock();
        if t.tap.is_none() {
            t.tap = Some(BTreeMap::new());
        }
    }

    /// Takes every sample buffered since the last drain (or since
    /// [`MetricsRegistry::enable_window_tap`]), keyed by `(name, node)`,
    /// values in nanoseconds in recording order. Returns an empty map if
    /// the tap was never enabled.
    pub fn drain_window_samples(&self) -> BTreeMap<(String, u16), Vec<u64>> {
        let mut t = self.hists.lock();
        match t.tap.as_mut() {
            Some(tap) => std::mem::take(tap),
            None => BTreeMap::new(),
        }
    }

    /// A point-in-time copy of every counter and histogram summary.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let summarize = |name: &str, node: u16, h: &Histogram| HistogramSummary {
            name: name.to_string(),
            node,
            count: h.count(),
            stats: (h.count() > 0).then(|| HistogramStats {
                min: h.min(),
                max: h.max(),
                mean: h.mean(),
                p50: h.percentile(50.0),
                p95: h.percentile(95.0),
                p99: h.percentile(99.0),
            }),
        };
        let t = self.hists.lock();
        MetricsSnapshot {
            nodes: self.nodes,
            per_node: self.per_node.iter().map(Counters::snapshot).collect(),
            per_link: (0..self.nodes as u16)
                .flat_map(|src| (0..self.nodes as u16).map(move |dst| (src, dst)))
                .filter_map(|(src, dst)| {
                    let counters = self.link(NodeId(src), NodeId(dst)).snapshot();
                    (!counters.is_empty()).then_some(LinkMetrics { src, dst, counters })
                })
                .collect(),
            histograms: t
                .map
                .iter()
                .map(|((name, node), h)| summarize(name, *node, h))
                .collect(),
            histograms_dropped: t.dropped,
        }
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("nodes", &self.nodes)
            .finish()
    }
}

/// Counters of one directed link that saw traffic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkMetrics {
    /// Sending node.
    pub src: u16,
    /// Receiving node.
    pub dst: u16,
    /// Counter snapshot, sorted by name.
    pub counters: Vec<(String, u64)>,
}

/// Summary statistics of one `(name, node)` histogram.
///
/// `stats` is `None` exactly when `count` is zero: an empty histogram and
/// one whose latencies are genuinely zero are distinct states — the old
/// flat representation reported `p50 = 0` for both, which hid missing
/// instrumentation behind a perfect latency.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Histogram name (e.g. `net.send_pool_wait`).
    pub name: String,
    /// The node the samples belong to.
    pub node: u16,
    /// Number of samples.
    pub count: u64,
    /// Summary statistics; present iff at least one sample was recorded.
    pub stats: Option<HistogramStats>,
}

/// The summary statistics of a *non-empty* histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramStats {
    /// Smallest sample.
    pub min: SimDuration,
    /// Largest sample.
    pub max: SimDuration,
    /// Arithmetic mean.
    pub mean: SimDuration,
    /// Median over retained samples.
    pub p50: SimDuration,
    /// 95th percentile over retained samples.
    pub p95: SimDuration,
    /// 99th percentile over retained samples.
    pub p99: SimDuration,
}

/// A frozen copy of a registry, safe to inspect after the run ends.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Number of nodes covered.
    pub nodes: usize,
    /// Per-node counter snapshots, indexed by node id.
    pub per_node: Vec<Vec<(String, u64)>>,
    /// Per-link counters for links that saw traffic.
    pub per_link: Vec<LinkMetrics>,
    /// Histogram summaries, sorted by `(name, node)`.
    pub histograms: Vec<HistogramSummary>,
    /// Samples discarded because their key would have exceeded the
    /// registry's histogram-cardinality cap.
    pub histograms_dropped: u64,
}

impl MetricsSnapshot {
    /// Renders the snapshot as an indented text report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("metrics: {} nodes\n", self.nodes));
        for (node, counters) in self.per_node.iter().enumerate() {
            if counters.is_empty() {
                continue;
            }
            out.push_str(&format!("  node {node}\n"));
            for (name, v) in counters {
                out.push_str(&format!("    {name:<28} {v}\n"));
            }
        }
        for link in &self.per_link {
            out.push_str(&format!("  link {} -> {}\n", link.src, link.dst));
            for (name, v) in &link.counters {
                out.push_str(&format!("    {name:<28} {v}\n"));
            }
        }
        for h in &self.histograms {
            match &h.stats {
                Some(s) => out.push_str(&format!(
                    "  hist {}@node{}: n={} mean={} p50={} p95={} p99={} max={}\n",
                    h.name, h.node, h.count, s.mean, s.p50, s.p95, s.p99, s.max
                )),
                None => out.push_str(&format!("  hist {}@node{}: no samples\n", h.name, h.node)),
            }
        }
        if self.histograms_dropped > 0 {
            out.push_str(&format!(
                "  hist cardinality cap hit: {} samples dropped\n",
                self.histograms_dropped
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_dimensioned_by_node_and_link() {
        let m = MetricsRegistry::new(3);
        m.node(NodeId(0)).incr("faults");
        m.node(NodeId(2)).add("faults", 2);
        m.link(NodeId(0), NodeId(2)).add("bytes", 100);
        m.link(NodeId(2), NodeId(0)).add("bytes", 7);
        let snap = m.snapshot();
        assert_eq!(snap.per_node[0], vec![("faults".to_string(), 1)]);
        assert!(snap.per_node[1].is_empty());
        assert_eq!(snap.per_node[2], vec![("faults".to_string(), 2)]);
        assert_eq!(snap.per_link.len(), 2, "only links with traffic");
        assert_eq!(snap.per_link[0].src, 0);
        assert_eq!(snap.per_link[0].dst, 2);
        assert_eq!(snap.per_link[1].counters, vec![("bytes".to_string(), 7)]);
    }

    #[test]
    fn histograms_summarize_per_node() {
        let m = MetricsRegistry::new(2);
        for us in [10u64, 20, 30] {
            m.observe("wait", NodeId(1), SimDuration::from_micros(us));
        }
        let snap = m.snapshot();
        assert_eq!(snap.histograms.len(), 1);
        let h = &snap.histograms[0];
        assert_eq!((h.name.as_str(), h.node, h.count), ("wait", 1, 3));
        let s = h.stats.expect("three samples were recorded");
        assert_eq!(s.mean, SimDuration::from_micros(20));
        assert_eq!(s.p50, SimDuration::from_micros(20));
        let text = snap.render();
        assert!(text.contains("hist wait@node1"), "{text}");
    }

    #[test]
    fn empty_histogram_is_distinct_from_zero_latency() {
        // Regression: the old flat summary reported p50 = 0 both for "no
        // samples" and for genuinely-zero latency. The type now separates
        // them, and so does the rendered report.
        let m = MetricsRegistry::new(1);
        m.observe("instant", NodeId(0), SimDuration::ZERO);
        let snap = m.snapshot();
        let h = &snap.histograms[0];
        assert_eq!(h.count, 1);
        let s = h.stats.expect("a zero-latency sample is still a sample");
        assert_eq!(s.p50, SimDuration::ZERO);
        assert!(snap.render().contains("p50=0ns"), "{}", snap.render());

        let empty = HistogramSummary {
            name: "ghost".to_string(),
            node: 0,
            count: 0,
            stats: None,
        };
        let snap = MetricsSnapshot {
            nodes: 1,
            histograms: vec![empty],
            ..MetricsSnapshot::default()
        };
        let text = snap.render();
        assert!(text.contains("hist ghost@node0: no samples"), "{text}");
        assert!(!text.contains("p50=0ns"), "{text}");
    }

    #[test]
    fn histogram_cardinality_is_capped() {
        let m = MetricsRegistry::with_histogram_cap(1, 2);
        m.observe("a", NodeId(0), SimDuration::from_micros(1));
        m.observe("b", NodeId(0), SimDuration::from_micros(2));
        // Third distinct key: dropped, not created.
        m.observe("c", NodeId(0), SimDuration::from_micros(3));
        m.observe("c", NodeId(0), SimDuration::from_micros(4));
        // Existing keys keep recording past the cap.
        m.observe("a", NodeId(0), SimDuration::from_micros(5));
        assert_eq!(m.histograms_dropped(), 2);
        let snap = m.snapshot();
        assert_eq!(snap.histograms.len(), 2);
        assert_eq!(snap.histograms[0].count, 2, "key `a` kept recording");
        assert_eq!(snap.histograms_dropped, 2);
        assert!(
            snap.render().contains("cardinality cap hit: 2 samples"),
            "{}",
            snap.render()
        );
    }

    #[test]
    fn window_tap_buffers_and_drains() {
        let m = MetricsRegistry::new(2);
        m.observe("wait", NodeId(0), SimDuration::from_micros(1));
        m.enable_window_tap();
        m.observe("wait", NodeId(0), SimDuration::from_micros(2));
        m.observe("wait", NodeId(1), SimDuration::from_micros(3));
        let win = m.drain_window_samples();
        assert_eq!(win.len(), 2, "pre-tap sample not included");
        assert_eq!(win[&("wait".to_string(), 0)], vec![2_000]);
        assert_eq!(win[&("wait".to_string(), 1)], vec![3_000]);
        assert!(m.drain_window_samples().is_empty(), "drain empties the tap");
        m.observe("wait", NodeId(0), SimDuration::from_micros(4));
        assert_eq!(m.drain_window_samples().len(), 1, "tap stays attached");
        // The cumulative histogram saw everything regardless of the tap.
        assert_eq!(m.snapshot().histograms[0].count, 3);
    }
}
