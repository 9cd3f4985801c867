//! Post-processing of the page-fault record.
//!
//! The paper's workflow (§IV-A): run the application under tracing, then
//! analyze the six-tuple fault record offline to find the program objects and
//! code locations that cause cross-node traffic — hot pages, hot sites,
//! per-thread access patterns, fault rates over time, and above all
//! *false-sharing suspects*: pages carrying more than one object with
//! conflicting access from multiple nodes.

use std::collections::{BTreeMap, BTreeSet};

use dex_core::{Span, SpanKind};
use dex_net::NodeId;
use dex_os::{Tid, VirtAddr, Vpn};
use dex_sim::SimDuration;

/// Per-page aggregate statistics.
#[derive(Clone, Debug, Default)]
pub struct PageStat {
    /// Read faults on the page.
    pub reads: u64,
    /// Write faults on the page.
    pub writes: u64,
    /// Invalidations applied to the page.
    pub invalidations: u64,
    /// Nodes that faulted on the page.
    pub nodes: BTreeSet<NodeId>,
    /// Distinct object/VMA tags attributed to faults on the page.
    pub tags: BTreeSet<String>,
    /// Distinct code sites that faulted on the page.
    pub sites: BTreeSet<&'static str>,
}

impl PageStat {
    /// Total protocol events on the page.
    pub fn total(&self) -> u64 {
        self.reads + self.writes + self.invalidations
    }
}

/// Per-code-site aggregate statistics.
#[derive(Clone, Debug, Default)]
pub struct SiteStat {
    /// Read faults attributed to the site.
    pub reads: u64,
    /// Write faults attributed to the site.
    pub writes: u64,
    /// Distinct pages the site faulted on.
    pub pages: BTreeSet<u64>,
}

impl SiteStat {
    /// Total faults from the site.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }
}

/// A page flagged as a likely false-sharing victim, with the evidence.
#[derive(Clone, Debug)]
pub struct FalseSharingSuspect {
    /// The suspect page.
    pub vpn: Vpn,
    /// Protocol events observed on it.
    pub events: u64,
    /// Nodes contending for it.
    pub nodes: Vec<NodeId>,
    /// The distinct objects co-located on it — more than one object with
    /// cross-node conflicting access is the false-sharing signature.
    pub tags: Vec<String>,
    /// Write faults (the conflicting half).
    pub writes: u64,
}

/// The result of analyzing the fault record of a run: its fault and
/// invalidation spans.
///
/// # Examples
///
/// ```
/// use dex_core::{Cluster, ClusterConfig};
/// use dex_prof::Profile;
///
/// let cluster = Cluster::new(ClusterConfig::new(2).with_spans());
/// let report = cluster.run(|p| {
///     let a = p.alloc_cell_tagged::<u64>(0, "obj_a"); // packed together:
///     let b = p.alloc_cell_tagged::<u64>(0, "obj_b"); // same page
///     let barrier = p.new_barrier(2, "start");
///     p.spawn(move |ctx| {
///         ctx.migrate(1).unwrap();
///         barrier.wait(ctx);
///         for _ in 0..100 {
///             a.rmw(ctx, |v| v + 1);
///             ctx.compute_ops(10_000);
///         }
///     });
///     p.spawn(move |ctx| {
///         barrier.wait(ctx);
///         for _ in 0..100 {
///             b.rmw(ctx, |v| v + 1);
///             ctx.compute_ops(10_000);
///         }
///     });
/// });
/// let profile = Profile::from_spans(&report.spans);
/// let suspects = profile.false_sharing_suspects();
/// assert!(!suspects.is_empty(), "obj_a and obj_b share a page");
/// assert!(suspects[0].tags.len() >= 2);
/// ```
#[derive(Debug, Default)]
pub struct Profile {
    pages: BTreeMap<u64, PageStat>,
    sites: BTreeMap<&'static str, SiteStat>,
    tasks: BTreeMap<Tid, u64>,
    times: Vec<u64>,
    nodes: BTreeMap<NodeId, NodeTraffic>,
    events: usize,
}

/// One entry of the §IV-A fault record.
#[derive(Clone, Copy, PartialEq)]
enum Event {
    Read,
    Write,
    Invalidate,
}

impl Event {
    /// Reads the fault record off a span: a protocol fault is a `Fault`
    /// span that is not a minor fault, an invalidation is a revocation
    /// span carrying the page it revoked. Other spans record no fault.
    fn of(span: &Span) -> Option<(Event, VirtAddr)> {
        let addr = span.addr?;
        let event = match (span.kind, span.label) {
            (SpanKind::Fault, "minor_fault") => return None,
            (SpanKind::Fault, "write_fault") => Event::Write,
            (SpanKind::Fault, _) => Event::Read,
            (SpanKind::Invalidation | SpanKind::InvalidateBatch, _) => Event::Invalidate,
            _ => return None,
        };
        Some((event, addr))
    }
}

/// Protocol traffic one node generated (a row of
/// [`Profile::node_matrix`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeTraffic {
    /// Read faults raised on the node.
    pub reads: u64,
    /// Write faults raised on the node.
    pub writes: u64,
    /// Invalidations applied to the node.
    pub invalidations: u64,
}

impl Profile {
    /// Builds a profile from the spans of a run (recorded with
    /// [`ClusterConfig::with_spans`](dex_core::ClusterConfig::with_spans)
    /// or decoded from a `# dex-spans v2` file). Each event is dated at
    /// its span's start.
    pub fn from_spans(spans: &[Span]) -> Self {
        let mut profile = Profile::default();
        for span in spans {
            let Some((event, addr)) = Event::of(span) else {
                continue;
            };
            let vpn = addr.vpn().index();
            profile.events += 1;
            profile.times.push(span.start.as_nanos());

            let page = profile.pages.entry(vpn).or_default();
            let node = profile.nodes.entry(span.node).or_default();
            let (on_page, on_node) = match event {
                Event::Read => (&mut page.reads, &mut node.reads),
                Event::Write => (&mut page.writes, &mut node.writes),
                Event::Invalidate => (&mut page.invalidations, &mut node.invalidations),
            };
            *on_page += 1;
            *on_node += 1;
            page.nodes.insert(span.node);
            page.tags.extend(span.tag.map(String::from));
            page.sites.insert(span.site);

            if event != Event::Invalidate {
                let site = profile.sites.entry(span.site).or_default();
                if event == Event::Write {
                    site.writes += 1;
                } else {
                    site.reads += 1;
                }
                site.pages.insert(vpn);
                *profile.tasks.entry(span.task).or_default() += 1;
            }
        }
        profile
    }

    /// Number of fault-record events analyzed.
    pub fn events(&self) -> usize {
        self.events
    }

    /// Pages ranked by total protocol events, hottest first.
    pub fn hot_pages(&self) -> Vec<(Vpn, &PageStat)> {
        let mut pages: Vec<_> = self.pages.iter().map(|(k, v)| (Vpn::new(*k), v)).collect();
        pages.sort_by(|a, b| b.1.total().cmp(&a.1.total()).then(a.0.cmp(&b.0)));
        pages
    }

    /// Code sites ranked by fault count, hottest first.
    pub fn hot_sites(&self) -> Vec<(&'static str, &SiteStat)> {
        let mut sites: Vec<_> = self.sites.iter().map(|(k, v)| (*k, v)).collect();
        sites.sort_by(|a, b| b.1.total().cmp(&a.1.total()).then(a.0.cmp(b.0)));
        sites
    }

    /// Fault counts per task (per-thread access pattern summary).
    pub fn per_task(&self) -> Vec<(Tid, u64)> {
        self.tasks.iter().map(|(k, v)| (*k, *v)).collect()
    }

    /// Fault counts over time in `bucket`-sized windows from the start of
    /// the run (the paper's "page fault frequency over time" analysis).
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is zero.
    pub fn timeline(&self, bucket: SimDuration) -> Vec<(SimDuration, u64)> {
        assert!(!bucket.is_zero(), "timeline bucket must be non-zero");
        if self.times.is_empty() {
            return Vec::new();
        }
        let width = bucket.as_nanos();
        let mut counts: BTreeMap<u64, u64> = BTreeMap::new();
        for &t in &self.times {
            *counts.entry(t / width).or_default() += 1;
        }
        let last_bucket = *counts.keys().next_back().expect("non-empty");
        (0..=last_bucket)
            .map(|b| {
                (
                    SimDuration::from_nanos(b * width),
                    counts.get(&b).copied().unwrap_or(0),
                )
            })
            .collect()
    }

    /// Pages whose fault pattern matches the false-sharing signature:
    /// contended from more than one node, written at least once, and
    /// (most damning) carrying more than one distinct object.
    pub fn false_sharing_suspects(&self) -> Vec<FalseSharingSuspect> {
        let mut suspects: Vec<FalseSharingSuspect> = self
            .pages
            .iter()
            .filter(|(_, s)| s.nodes.len() >= 2 && s.writes > 0 && s.tags.len() >= 2)
            .map(|(vpn, s)| FalseSharingSuspect {
                vpn: Vpn::new(*vpn),
                events: s.total(),
                nodes: s.nodes.iter().copied().collect(),
                tags: s.tags.iter().cloned().collect(),
                writes: s.writes,
            })
            .collect();
        suspects.sort_by_key(|s| std::cmp::Reverse(s.events));
        suspects
    }

    /// Per-node fault counts as a matrix row per node: how much of the
    /// protocol traffic each node generates, per fault kind — the
    /// node-level view of "which components caused the most cross-node
    /// traffic" (§IV-A).
    pub fn node_matrix(&self) -> Vec<(NodeId, NodeTraffic)> {
        self.nodes.iter().map(|(node, t)| (*node, *t)).collect()
    }

    /// Exports the per-page statistics as CSV
    /// (`vpn,reads,writes,invalidations,nodes,tags`), for spreadsheet or
    /// plotting pipelines — the paper's toolchain hands analysts exactly
    /// this kind of flattened table.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("vpn,reads,writes,invalidations,nodes,tags\n");
        for (vpn, stat) in self.hot_pages() {
            let tags: Vec<&str> = stat.tags.iter().map(String::as_str).collect();
            out.push_str(&format!(
                "{:#x},{},{},{},{},\"{}\"\n",
                vpn.index(),
                stat.reads,
                stat.writes,
                stat.invalidations,
                stat.nodes.len(),
                tags.join(";"),
            ));
        }
        out
    }

    /// Pages with heavy multi-node read/write conflict on a *single*
    /// object — true sharing that needs algorithmic staging rather than
    /// padding (§IV-C's global-flag pattern).
    pub fn contended_objects(&self) -> Vec<(Vpn, &PageStat)> {
        let mut pages: Vec<_> = self
            .pages
            .iter()
            .filter(|(_, s)| s.nodes.len() >= 2 && s.writes > 0 && s.tags.len() <= 1)
            .map(|(k, v)| (Vpn::new(*k), v))
            .collect();
        pages.sort_by_key(|(_, s)| std::cmp::Reverse(s.total()));
        pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_core::SpanId;
    use dex_sim::SimTime;

    /// The (kind, label) of a read fault, a write fault and an
    /// invalidation span.
    type Kind = (SpanKind, &'static str);
    const READ: Kind = (SpanKind::Fault, "read_fault");
    const WRITE: Kind = (SpanKind::Fault, "write_fault");
    const INVALIDATE: Kind = (SpanKind::InvalidateBatch, "invalidate_batch_drop");

    fn event(
        t: u64,
        node: u16,
        task: u64,
        (kind, label): Kind,
        site: &'static str,
        addr: u64,
        tag: &'static str,
    ) -> Span {
        Span {
            id: SpanId(t + 1),
            parent: SpanId::NONE,
            kind,
            node: NodeId(node),
            task: Tid(task),
            start: SimTime::from_nanos(t),
            end: SimTime::from_nanos(t + 1),
            label,
            tag: Some(tag),
            site,
            addr: Some(VirtAddr::new(addr)),
        }
    }

    #[test]
    fn empty_trace_profiles_cleanly() {
        let p = Profile::from_spans(&[]);
        assert_eq!(p.events(), 0);
        assert!(p.hot_pages().is_empty());
        assert!(p.hot_sites().is_empty());
        assert!(p.false_sharing_suspects().is_empty());
        assert!(p.timeline(SimDuration::from_millis(1)).is_empty());
    }

    #[test]
    fn hot_pages_rank_by_total_events() {
        let trace = vec![
            event(0, 1, 0, WRITE, "s", 0x1000, "a"),
            event(1, 1, 0, WRITE, "s", 0x2000, "b"),
            event(2, 1, 0, READ, "s", 0x2000, "b"),
            event(3, 2, 1, INVALIDATE, "s", 0x2000, "b"),
        ];
        let p = Profile::from_spans(&trace);
        let pages = p.hot_pages();
        assert_eq!(pages[0].0, Vpn::new(2));
        assert_eq!(pages[0].1.total(), 3);
        assert_eq!(pages[1].0, Vpn::new(1));
    }

    #[test]
    fn false_sharing_requires_two_tags_two_nodes_and_writes() {
        // Single tag: true sharing, not false sharing.
        let single = vec![
            event(0, 1, 0, WRITE, "s", 0x1000, "only"),
            event(1, 2, 1, WRITE, "s", 0x1008, "only"),
        ];
        let p = Profile::from_spans(&single);
        assert!(p.false_sharing_suspects().is_empty());
        assert_eq!(p.contended_objects().len(), 1);

        // Two tags, two nodes, writes: the signature.
        let double = vec![
            event(0, 1, 0, WRITE, "s", 0x1000, "a"),
            event(1, 2, 1, WRITE, "s", 0x1008, "b"),
        ];
        let p = Profile::from_spans(&double);
        let suspects = p.false_sharing_suspects();
        assert_eq!(suspects.len(), 1);
        assert_eq!(suspects[0].tags, vec!["a".to_string(), "b".to_string()]);

        // Two tags but one node: local sharing is harmless.
        let one_node = vec![
            event(0, 1, 0, WRITE, "s", 0x1000, "a"),
            event(1, 1, 1, WRITE, "s", 0x1008, "b"),
        ];
        assert!(Profile::from_spans(&one_node)
            .false_sharing_suspects()
            .is_empty());

        // Two tags, two nodes, reads only: replication handles it.
        let read_only = vec![
            event(0, 1, 0, READ, "s", 0x1000, "a"),
            event(1, 2, 1, READ, "s", 0x1008, "b"),
        ];
        assert!(Profile::from_spans(&read_only)
            .false_sharing_suspects()
            .is_empty());
    }

    #[test]
    fn sites_aggregate_reads_and_writes() {
        let trace = vec![
            event(0, 1, 0, WRITE, "kernel.update", 0x1000, "a"),
            event(1, 1, 0, WRITE, "kernel.update", 0x2000, "a"),
            event(2, 1, 0, READ, "kernel.scan", 0x3000, "b"),
        ];
        let p = Profile::from_spans(&trace);
        let sites = p.hot_sites();
        assert_eq!(sites[0].0, "kernel.update");
        assert_eq!(sites[0].1.writes, 2);
        assert_eq!(sites[0].1.pages.len(), 2);
        assert_eq!(sites[1].0, "kernel.scan");
        assert_eq!(sites[1].1.reads, 1);
    }

    #[test]
    fn timeline_buckets_events() {
        let trace = vec![
            event(100, 1, 0, WRITE, "s", 0x1000, "a"),
            event(900, 1, 0, WRITE, "s", 0x1000, "a"),
            event(2_500, 1, 0, WRITE, "s", 0x1000, "a"),
        ];
        let p = Profile::from_spans(&trace);
        let tl = p.timeline(SimDuration::from_nanos(1_000));
        assert_eq!(
            tl,
            vec![
                (SimDuration::from_nanos(0), 2),
                (SimDuration::from_nanos(1_000), 0),
                (SimDuration::from_nanos(2_000), 1),
            ]
        );
    }

    #[test]
    fn node_matrix_sums_per_node_traffic() {
        let trace = vec![
            event(0, 1, 0, WRITE, "s", 0x1000, "a"),
            event(1, 1, 0, READ, "s", 0x2000, "a"),
            event(2, 2, 1, WRITE, "s", 0x1000, "a"),
            event(3, 1, u64::MAX, INVALIDATE, "s", 0x1000, "a"),
        ];
        let p = Profile::from_spans(&trace);
        let matrix = p.node_matrix();
        assert_eq!(
            matrix,
            vec![
                (
                    NodeId(1),
                    NodeTraffic {
                        reads: 1,
                        writes: 1,
                        invalidations: 1
                    }
                ),
                (
                    NodeId(2),
                    NodeTraffic {
                        reads: 0,
                        writes: 1,
                        invalidations: 0
                    }
                ),
            ]
        );
    }

    #[test]
    fn csv_export_has_one_row_per_page() {
        let trace = vec![
            event(0, 1, 0, WRITE, "s", 0x1000, "a"),
            event(1, 2, 1, READ, "s", 0x2000, "b"),
        ];
        let csv = Profile::from_spans(&trace).to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 pages: {csv}");
        assert_eq!(lines[0], "vpn,reads,writes,invalidations,nodes,tags");
        assert!(csv.contains("0x1,0,1,0,1,\"a\""));
        assert!(csv.contains("0x2,1,0,0,1,\"b\""));
    }

    #[test]
    fn per_task_counts_faulting_threads() {
        let trace = vec![
            event(0, 1, 7, WRITE, "s", 0x1000, "a"),
            event(1, 1, 7, READ, "s", 0x2000, "a"),
            event(2, 2, 9, WRITE, "s", 0x1000, "a"),
            // Invalidations are protocol activity, not thread activity.
            event(3, 2, u64::MAX, INVALIDATE, "s", 0x1000, "a"),
        ];
        let p = Profile::from_spans(&trace);
        assert_eq!(p.per_task(), vec![(Tid(7), 2), (Tid(9), 1)]);
    }

    #[test]
    fn only_protocol_faults_and_revocations_are_fault_records() {
        let mut minor = event(0, 0, 1, (SpanKind::Fault, "minor_fault"), "s", 0x1000, "a");
        let mut forward = event(
            1,
            1,
            2,
            (SpanKind::OwnerForward, "owner_forward_write"),
            "",
            0,
            "a",
        );
        forward.addr = None;
        let p = Profile::from_spans(&[minor.clone(), forward]);
        assert_eq!(p.events(), 0, "minor faults and forwards are not faults");
        minor.label = "read_fault";
        let revoked = event(
            2,
            1,
            u64::MAX,
            (SpanKind::Invalidation, "invalidate_drop"),
            "s",
            0x1000,
            "a",
        );
        let p = Profile::from_spans(&[minor, revoked]);
        assert_eq!(p.events(), 2);
        assert_eq!(p.hot_pages()[0].1.reads, 1);
        assert_eq!(p.hot_pages()[0].1.invalidations, 1);
    }
}
