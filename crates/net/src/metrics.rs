//! The run's one counter store, plus named latency histograms.
//!
//! Every count is recorded once, at a node (or on a directed link), under
//! one name spelled in a [`counter_set!`] enum; a cluster total is the sum
//! of its per-node cells. Cells are fixed lock-free atomics, so a count
//! is one relaxed add and no name lookup. Every run has a registry; the
//! histograms are kept only on request (`ClusterConfig::with_metrics` in
//! `dex-core`). Recording is pure bookkeeping: it never advances virtual
//! time, parks, or sends, so an instrumented run takes exactly the same
//! schedule as a bare one.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use dex_sim::{Histogram, SimDuration};

use crate::fabric::NodeId;
use crate::series::SeriesScope;

/// Declares a set of counters: an enum whose variants index the cells of
/// a [`CounterTable`], each with its name (also its first doc line), as
/// `Variant = "name",`.
#[macro_export]
macro_rules! counter_set {
    ($(#[$meta:meta])* $vis:vis enum $set:ident {
        $($(#[$vmeta:meta])* $variant:ident = $name:literal,)*
    }) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        $vis enum $set {
            $(#[doc = concat!("`", $name, "`")] $(#[$vmeta])* $variant,)*
        }

        impl $set {
            /// Every counter, in declaration order.
            pub const ALL: &'static [Self] = &[$($set::$variant),*];
            /// Their names, in the same order: a table's column names.
            pub const NAMES: &'static [&'static str] = &[$($name),*];
            /// The counter's name in snapshots, series and totals.
            pub fn name(self) -> &'static str {
                Self::NAMES[self as usize]
            }
        }
    };
}

counter_set! {
    /// What the fabric counts per node: the sender's, for a send.
    pub enum NodeCounter {
        MsgsSent = "msgs.sent",
        /// Header and page payload included.
        BytesSent = "bytes.sent",
        PagesSent = "pages.sent",
        MsgsReceived = "msgs.received",
        /// Dropped because an endpoint had crashed.
        MsgsDropped = "faults.msgs_dropped",
        MrRegistrations = "mr.registrations",
        /// Pool chunks DMA-mapped at boot for the node's outgoing links.
        SetupDmaMappings = "setup.dma_mappings",
        SetupMrRegistrations = "setup.mr_registrations",
    }
}

counter_set! {
    /// What the fabric counts per directed link.
    pub enum LinkCounter {
        Msgs = "msgs",
        Bytes = "bytes",
        VerbSends = "verb.sends",
        RdmaPages = "rdma.pages",
    }
}

/// One lock-free cell per counter of a [`counter_set!`] and row (a node,
/// or a directed link). A counter that never moved is in no view.
pub struct CounterTable {
    names: &'static [&'static str],
    /// Row-major `row * names.len() + counter`.
    cells: Box<[AtomicU64]>,
}

impl CounterTable {
    /// `rows` rows of the counters `names` (a set's `NAMES`), all zero.
    pub fn new(names: &'static [&'static str], rows: usize) -> Self {
        let cells = (0..rows * names.len()).map(|_| AtomicU64::new(0)).collect();
        CounterTable { names, cells }
    }

    /// Adds `n` to counter number `counter` (`Variant as usize`) in `row`.
    pub fn add(&self, row: usize, counter: usize, n: u64) {
        let cell = &self.cells[row * self.names.len() + counter];
        cell.fetch_add(n, Ordering::Relaxed);
    }

    /// The counters of `row` that moved, as `(name, value)`.
    pub fn row(&self, row: usize) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        let width = self.names.len();
        let cells = self.cells[row * width..(row + 1) * width].iter();
        let named = self.names.iter().copied().zip(cells);
        named
            .map(|(n, c)| (n, c.load(Ordering::Relaxed)))
            .filter(|c| c.1 > 0)
    }

    /// The counter `name` summed over the rows (zero if it never moved).
    pub fn get(&self, name: &str) -> u64 {
        let rows = self.totals().into_iter();
        rows.filter(|(n, _)| *n == name).map(|(_, v)| v).sum()
    }

    /// Every counter that moved, summed over the rows, sorted by name.
    pub fn totals(&self) -> Vec<(&'static str, u64)> {
        let rows = self.cells.len() / self.names.len();
        sum_by_name((0..rows).flat_map(|r| self.row(r)))
    }
}

/// Sums `(name, value)` pairs by name, sorted by name.
fn sum_by_name(pairs: impl Iterator<Item = (&'static str, u64)>) -> Vec<(&'static str, u64)> {
    let mut by_name = BTreeMap::new();
    for (name, v) in pairs {
        *by_name.entry(name).or_default() += v;
    }
    by_name.into_iter().collect()
}

/// The run's counters and histograms, dimensioned by node and link.
///
/// # Examples
///
/// ```
/// use dex_net::{LinkCounter, MetricsRegistry, NodeCounter, NodeId};
/// use dex_sim::SimDuration;
///
/// let m = MetricsRegistry::new(2);
/// m.count(NodeId(1), NodeCounter::MsgsSent, 1);
/// m.count_link(NodeId(0), NodeId(1), LinkCounter::Bytes, 4096);
/// m.observe("net.send_pool_wait", NodeId(0), SimDuration::from_micros(3));
/// let snap = m.snapshot();
/// assert_eq!(snap.per_node[1], vec![("msgs.sent".to_string(), 1)]);
/// ```
pub struct MetricsRegistry {
    nodes: usize,
    /// The fabric's per-node counters.
    pub(crate) node: CounterTable,
    /// The fabric's per-link counters, row-major `src * nodes + dst`.
    link: CounterTable,
    /// Each process's per-node table, merged into the per-node views.
    tables: Mutex<Vec<Arc<CounterTable>>>,
    hists: Mutex<HistTable>,
    /// Maximum number of distinct `(name, node)` histogram keys; zero
    /// keeps no histograms. A buggy caller interpolating identifiers into
    /// histogram names cannot grow the registry without bound: past the
    /// cap, `observe` counts the sample into [`HistTable::dropped`] and
    /// discards it.
    hist_cap: usize,
}

/// Default bound on distinct histogram keys; generous for legitimate
/// metric names, tiny next to an unbounded per-request blowup.
pub const DEFAULT_HIST_CAP: usize = 1024;

struct HistTable {
    map: BTreeMap<(&'static str, u16), Histogram>,
    /// Samples discarded because creating their key would exceed the cap.
    dropped: u64,
    /// When attached (continuous telemetry), every observed sample is
    /// also appended here, keyed like `map`; the sampler drains it at
    /// each window boundary to compute per-window quantiles.
    tap: Option<BTreeMap<(&'static str, u16), Vec<u64>>>,
}

impl MetricsRegistry {
    /// A registry for `nodes` nodes keeping histograms under the default
    /// cardinality cap ([`DEFAULT_HIST_CAP`]).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: usize) -> Arc<Self> {
        Self::with_histogram_cap(nodes, DEFAULT_HIST_CAP)
    }

    /// A registry whose histogram table holds at most `cap` distinct
    /// `(name, node)` keys; a zero cap keeps no histograms.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn with_histogram_cap(nodes: usize, cap: usize) -> Arc<Self> {
        assert!(nodes > 0, "metrics registry needs at least one node");
        Arc::new(MetricsRegistry {
            nodes,
            node: CounterTable::new(NodeCounter::NAMES, nodes),
            link: CounterTable::new(LinkCounter::NAMES, nodes * nodes),
            tables: Mutex::new(Vec::new()),
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

    /// Whether [`MetricsRegistry::observe`] keeps samples.
    pub fn records_histograms(&self) -> bool {
        self.hist_cap > 0
    }

    /// Adds `n` to the fabric's `counter` at `node`.
    pub fn count(&self, node: NodeId, counter: NodeCounter, n: u64) {
        self.node.add(node.0 as usize, counter as usize, n);
    }

    /// Adds `n` to the fabric's `counter` on the link `src → dst`.
    pub fn count_link(&self, src: NodeId, dst: NodeId, counter: LinkCounter, n: u64) {
        self.link.add(self.link_row(src, dst), counter as usize, n);
    }

    fn link_row(&self, src: NodeId, dst: NodeId) -> usize {
        assert!((dst.0 as usize) < self.nodes, "link outside the cluster");
        src.0 as usize * self.nodes + dst.0 as usize
    }

    /// Adds a per-node table of the counters `names` (one process's)
    /// whose rows join the per-node views.
    pub fn add_node_table(&self, names: &'static [&'static str]) -> Arc<CounterTable> {
        let table = Arc::new(CounterTable::new(names, self.nodes));
        self.tables.lock().push(Arc::clone(&table));
        table
    }

    /// Every counter of `scope` that moved; a node's are the fabric's and
    /// every added table's, same names summed.
    pub fn counts(&self, scope: SeriesScope) -> Vec<(&'static str, u64)> {
        match scope {
            SeriesScope::Node(n) => {
                let tables = self.tables.lock();
                let added = tables.iter().flat_map(|t| t.row(n as usize));
                sum_by_name(self.node.row(n as usize).chain(added))
            }
            SeriesScope::Link(s, d) => {
                sum_by_name(self.link.row(self.link_row(NodeId(s), NodeId(d))))
            }
        }
    }

    /// Records one duration sample into the histogram `name` at `node`
    /// (created on first use, subject to the cardinality cap: once the
    /// table holds `hist_cap` distinct keys, samples for *new* keys are
    /// counted into [`MetricsSnapshot::histograms_dropped`] and
    /// discarded; existing keys keep recording). Without histograms the
    /// sample is discarded uncounted.
    pub fn observe(&self, name: &'static str, node: NodeId, d: SimDuration) {
        if !self.records_histograms() {
            return;
        }
        let hist = {
            let mut t = self.hists.lock();
            let key = (name, node.0);
            let hist = match t.map.get(&key) {
                Some(h) => h.clone(),
                None => {
                    if t.map.len() >= self.hist_cap {
                        t.dropped += 1;
                        return;
                    }
                    t.map.entry(key).or_default().clone()
                }
            };
            if let Some(tap) = t.tap.as_mut() {
                tap.entry(key).or_default().push(d.as_nanos());
            }
            hist
        };
        hist.record(d);
    }

    /// Attaches the window tap: from now on every `observe`d sample is
    /// additionally buffered for [`MetricsRegistry::drain_window_samples`].
    /// Used by the continuous-telemetry sampler; pure bookkeeping, like
    /// the rest of the registry.
    pub fn enable_window_tap(&self) {
        self.hists.lock().tap.get_or_insert_with(BTreeMap::new);
    }

    /// Takes every sample buffered since the last drain (or since
    /// [`MetricsRegistry::enable_window_tap`]), keyed by `(name, node)`,
    /// values in nanoseconds in recording order. Returns an empty map if
    /// the tap was never enabled.
    pub fn drain_window_samples(&self) -> BTreeMap<(String, u16), Vec<u64>> {
        let mut t = self.hists.lock();
        let samples = t.tap.as_mut().map(std::mem::take).unwrap_or_default();
        samples
            .into_iter()
            .map(|((name, node), v)| ((name.to_string(), node), v))
            .collect()
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
        let owned = |counts: Vec<(&str, u64)>| -> Vec<(String, u64)> {
            counts
                .into_iter()
                .map(|(n, v)| (n.to_string(), v))
                .collect()
        };
        let t = self.hists.lock();
        let histograms = t
            .map
            .iter()
            .map(|((name, node), h)| summarize(name, *node, h));
        MetricsSnapshot {
            nodes: self.nodes,
            per_node: (0..self.nodes as u16)
                .map(|n| owned(self.counts(SeriesScope::Node(n))))
                .collect(),
            per_link: (0..self.nodes as u16)
                .flat_map(|src| (0..self.nodes as u16).map(move |dst| (src, dst)))
                .filter_map(|(src, dst)| {
                    let counters = owned(self.counts(SeriesScope::Link(src, dst)));
                    (!counters.is_empty()).then_some(LinkMetrics { src, dst, counters })
                })
                .collect(),
            histograms: histograms.collect(),
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
        let nodes = self.per_node.iter().enumerate();
        let nodes = nodes.map(|(node, counters)| (format!("node {node}"), counters));
        let links = self.per_link.iter();
        let links = links.map(|l| (format!("link {} -> {}", l.src, l.dst), &l.counters));
        for (scope, counters) in nodes.chain(links).filter(|(_, c)| !c.is_empty()) {
            out.push_str(&format!("  {scope}\n"));
            for (name, v) in counters {
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
        m.count(NodeId(0), NodeCounter::MsgsSent, 1);
        m.count(NodeId(2), NodeCounter::MsgsSent, 2);
        m.count_link(NodeId(0), NodeId(2), LinkCounter::Bytes, 100);
        m.count_link(NodeId(2), NodeId(0), LinkCounter::Bytes, 7);
        let snap = m.snapshot();
        assert_eq!(snap.per_node[0], vec![("msgs.sent".to_string(), 1)]);
        assert!(snap.per_node[1].is_empty());
        assert_eq!(snap.per_node[2], vec![("msgs.sent".to_string(), 2)]);
        assert_eq!(snap.per_link.len(), 2, "only links with traffic");
        assert_eq!(snap.per_link[0].src, 0);
        assert_eq!(snap.per_link[0].dst, 2);
        assert_eq!(snap.per_link[1].counters, vec![("bytes".to_string(), 7)]);
        assert_eq!(m.node.get("msgs.sent"), 3, "totals are sums");
    }

    #[test]
    fn counters_accumulate_independently() {
        let t = CounterTable::new(LinkCounter::NAMES, 1);
        t.add(0, LinkCounter::Msgs as usize, 1);
        t.add(0, LinkCounter::Msgs as usize, 2);
        t.add(0, LinkCounter::Bytes as usize, 1);
        t.add(0, LinkCounter::RdmaPages as usize, 0);
        assert_eq!(
            t.totals(),
            [("bytes", 1), ("msgs", 3)],
            "adding zero: no row"
        );
        assert_eq!((t.get("msgs"), t.get("rdma.pages")), (3, 0));
    }

    #[test]
    fn added_tables_join_the_per_node_view() {
        let m = MetricsRegistry::with_histogram_cap(2, 0);
        let a = m.add_node_table(NodeCounter::NAMES);
        let b = m.add_node_table(NodeCounter::NAMES);
        a.add(1, NodeCounter::PagesSent as usize, 2);
        b.add(1, NodeCounter::PagesSent as usize, 3);
        m.count(NodeId(1), NodeCounter::MsgsSent, 1);
        let node1 = m.counts(SeriesScope::Node(1));
        assert_eq!(node1, [("msgs.sent", 1), ("pages.sent", 5)], "names sum");
        assert!(m.counts(SeriesScope::Node(0)).is_empty());
        assert_eq!(m.node.get("pages.sent"), 0, "the fabric's own table");
        m.observe("wait", NodeId(0), SimDuration::from_micros(1));
        assert!(!m.records_histograms());
        assert!(m.snapshot().histograms.is_empty(), "counters-only registry");
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
