//! End-to-end checks of the observability subsystem: cross-node span
//! stitching, metrics surfacing, and — the load-bearing guarantee —
//! that enabling spans/metrics changes *nothing* about execution (the
//! recorded schedule stays byte-identical).

use dex_core::{Access, Cluster, ClusterConfig, Counter, RunReport, SpanId, SpanKind};
use dex_net::NodeId;
use dex_sim::{FaultPlan, SimDuration, SimTime};

/// A deterministic workload exercising every instrumented path: forward
/// migration, remote write faults, invalidation fan-out, futex
/// wake, and backward migration.
fn run_workload(cfg: ClusterConfig) -> RunReport {
    let cluster = Cluster::new(cfg);
    cluster.run(|p| {
        let data = p.alloc_vec::<u64>(64, "data");
        let flag = p.alloc_cell_tagged::<u32>(0, "flag");
        p.spawn(move |ctx| {
            ctx.set_site("observability.writer");
            ctx.migrate(1).expect("node 1 exists");
            for i in 0..8 {
                data.set(ctx, i, i as u64 * 3);
            }
            flag.set(ctx, 1);
            ctx.migrate_back().expect("return home");
        });
        p.spawn(move |ctx| {
            ctx.set_site("observability.reader");
            while flag.get(ctx) == 0 {
                ctx.compute_ops(10_000);
            }
            assert_eq!(data.get(ctx, 7), 21);
        });
    })
}

#[test]
fn schedule_is_bit_identical_with_and_without_instrumentation() {
    let base = run_workload(ClusterConfig::new(2).with_schedule_recording());
    let instrumented = run_workload(
        ClusterConfig::new(2)
            .with_schedule_recording()
            .with_spans()
            .with_metrics(),
    );
    let plain = base.schedule.expect("schedule recorded");
    let traced = instrumented.schedule.expect("schedule recorded");
    assert!(!plain.is_empty());
    assert_eq!(
        plain, traced,
        "enabling spans+metrics must not perturb the schedule by one byte"
    );
    assert!(base.spans.is_empty(), "spans off records nothing");
    assert!(
        !instrumented.spans.is_empty(),
        "spans on records the timeline"
    );
    assert_eq!(base.virtual_time, instrumented.virtual_time);
}

#[test]
fn remote_fault_spans_stitch_across_nodes() {
    let report = run_workload(ClusterConfig::new(2).with_spans());
    let spans = &report.spans;

    // A remote write fault on node 1 …
    let fault = spans
        .iter()
        .find(|s| s.kind == SpanKind::Fault && s.node == NodeId(1) && s.label == "write_fault")
        .expect("a remote write fault span");
    assert_eq!(fault.parent, SpanId::NONE, "faults are roots");
    assert_eq!(
        fault.tag,
        Some("data"),
        "fault spans carry the faulted object's tag"
    );

    // … whose directory handling ran on the origin (node 0) …
    let handling = spans
        .iter()
        .find(|s| s.kind == SpanKind::DirectoryHandling && s.parent == fault.id)
        .expect("origin-side directory handling parented to the fault");
    assert_eq!(handling.node, NodeId(0), "directory lives on the origin");

    // … and whose fixup ran back on the requester, parented to the
    // directory transaction: requester -> origin -> requester.
    let fixup = spans
        .iter()
        .find(|s| s.kind == SpanKind::PageFixup && s.parent == handling.id)
        .expect("requester-side fixup parented to the directory handling");
    assert_eq!(fixup.node, NodeId(1));
    assert!(fault.start <= handling.start && handling.start <= fixup.start);
    assert!(fixup.end <= fault.end, "the fault span covers its children");
}

#[test]
fn migration_spans_cover_the_paper_phases() {
    let report = run_workload(ClusterConfig::new(2).with_spans());
    let spans = &report.spans;
    let phase_labels: Vec<&str> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::MigrationPhase)
        .map(|s| s.label)
        .collect();
    for phase in ["remote_worker", "thread_fork", "context_install"] {
        assert!(
            phase_labels.contains(&phase),
            "first forward migration must record {phase}, got {phase_labels:?}"
        );
    }
    let forward = spans
        .iter()
        .find(|s| s.kind == SpanKind::MigrationForward)
        .expect("forward migration span");
    assert_eq!(forward.label, "first_on_node");
    // Each remote phase is parented to the forward migration span.
    let phases: Vec<_> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::MigrationPhase && s.parent == forward.id)
        .collect();
    assert!(
        phases.len() >= 3,
        "remote phases stitch to the origin-side migration span"
    );
    assert!(spans.iter().any(|s| s.kind == SpanKind::MigrationBack));
}

#[test]
fn metrics_capture_faults_and_link_traffic() {
    let report = run_workload(ClusterConfig::new(2).with_metrics());
    let snap = report.metrics.expect("metrics attached");
    assert_eq!(snap.nodes, 2);
    let node1: std::collections::BTreeMap<&str, u64> = snap.per_node[1]
        .iter()
        .map(|(k, v)| (k.as_str(), *v))
        .collect();
    assert!(
        node1.get("faults.write").copied().unwrap_or(0) > 0,
        "remote write faults counted on node 1: {node1:?}"
    );
    assert!(
        snap.per_link
            .iter()
            .any(|l| (l.src, l.dst) == (1, 0) || (l.src, l.dst) == (0, 1)),
        "traffic on the 0<->1 links"
    );
    let rendered = snap.render();
    assert!(rendered.contains("faults.write"));

    // Metrics off: the report carries none.
    assert!(run_workload(ClusterConfig::new(2)).metrics.is_none());
}

/// Asserts that each counter is recorded once, per node: every protocol
/// and fabric total, and every `DexStats` field, is the sum of its
/// per-node cells in the metrics snapshot, and per-link traffic sums to
/// what the senders counted.
fn assert_totals_are_per_node_sums(report: &RunReport) {
    let snap = report.metrics.as_ref().expect("metrics on");
    let node_sum = |name: &str| -> u64 {
        let cells = snap.per_node.iter().flatten();
        cells.filter(|(n, _)| n == name).map(|(_, v)| *v).sum()
    };
    let link_sum = |name: &str| -> u64 {
        let cells = snap.per_link.iter().flat_map(|l| &l.counters);
        cells.filter(|(n, _)| n == name).map(|(_, v)| *v).sum()
    };
    let shared = report.process();
    let (process, fabric) = (shared.counters(), shared.fabric.counters());
    for (name, total) in process.totals().into_iter().chain(fabric.totals()) {
        assert_eq!(node_sum(name), total, "{name}: per-node cells vs total");
    }
    for (node, row) in snap.per_node.iter().enumerate() {
        for (name, v) in row {
            assert!(*v > 0, "{name}@node{node}: a zero row");
            let total = process.get(name) + fabric.get(name);
            assert!(
                total >= *v,
                "{name}@node{node} = {v} but the total is {total}"
            );
        }
    }
    for &counter in Counter::ALL {
        let name = counter.name();
        assert_eq!(node_sum(name), process.get(name), "{counter:?}");
    }
    for (name, field) in report.stats.by_counter() {
        assert_eq!(node_sum(name), field, "DexStats field of {name}");
    }
    assert_eq!(link_sum("msgs"), report.stats.msgs_sent);
    assert_eq!(link_sum("bytes"), report.stats.bytes_sent);
    assert_eq!(
        link_sum("verb.sends") + link_sum("rdma.pages"),
        report.stats.msgs_sent
    );
    assert_eq!(link_sum("rdma.pages"), report.stats.pages_sent);
    assert!(report.stats.write_faults > 0, "the run faulted");
}

/// Every non-origin node's thread migrates out, writes its slice of a
/// shared vector, reads its neighbour's, takes a lock and comes home.
fn spread_workload(cfg: ClusterConfig) -> RunReport {
    let nodes = cfg.nodes;
    Cluster::new(cfg).run(|p| {
        let data = p.alloc_vec::<u64>(nodes * 512, "data");
        let lock = p.new_mutex("lock");
        for node in 1..nodes {
            p.spawn(move |ctx| {
                ctx.migrate(node as u16).expect("node exists");
                for i in node * 512..(node + 1) * 512 {
                    data.set(ctx, i, i as u64);
                }
                let _ = data.get(ctx, ((node + 1) % nodes) * 512);
                lock.lock(ctx);
                data.set(ctx, 0, data.get(ctx, 0) + 1);
                lock.unlock(ctx);
                ctx.migrate_back().expect("return home");
            });
        }
    })
}

#[test]
fn per_node_counts_sum_to_cluster_totals() {
    let classic = spread_workload(ClusterConfig::new(3).with_metrics());
    assert_totals_are_per_node_sums(&classic);
    assert_eq!(classic.stats.forward_migrations, 2);
    assert!(classic.stats.invalidations > 0);

    let sharded = spread_workload(
        ClusterConfig::new(4)
            .with_directory_shards(4)
            .with_metrics(),
    );
    assert_totals_are_per_node_sums(&sharded);
    assert_eq!(sharded.stats.forward_migrations, 3);

    // Node 2 dies at 3 ms while a thread works there; it re-homes. A
    // second thread then tries to migrate there, and the fabric drops its
    // request.
    let mut plan = FaultPlan::default();
    plan.crash(2, SimTime::ZERO + SimDuration::from_millis(3));
    let crashed =
        Cluster::new(ClusterConfig::new(3).with_fault_plan(plan).with_metrics()).run(|p| {
            let data = p.alloc_vec_aligned::<u64>(4 * 512, "data");
            p.spawn(move |ctx| {
                ctx.migrate(2).expect("node 2 is up");
                for i in 0..512 {
                    data.set(ctx, i, 7);
                }
                ctx.compute_ops(16_000_000); // ~8 ms, spans the crash
                for i in 0..data.len() {
                    data.set(ctx, i, i as u64);
                }
                assert_eq!(ctx.node(), NodeId(0), "crashed off node 2, now home");
            });
            p.spawn(|ctx| {
                ctx.compute_ops(16_000_000);
                assert!(ctx.migrate(2).is_err(), "node 2 is down");
            });
        });
    assert_totals_are_per_node_sums(&crashed);
    let counters = crashed.process().counters();
    assert_eq!(counters.get("faults.crashes_handled"), 1);
    assert_eq!(counters.get("migrations.crash_rehomed"), 1);
    assert!(
        crashed
            .process()
            .fabric
            .counters()
            .get("faults.msgs_dropped")
            > 0
    );
}

#[test]
fn a_counter_that_never_moved_has_no_row() {
    let report = spread_workload(ClusterConfig::new(3).with_metrics());
    let snap = report.metrics.as_ref().expect("metrics on");
    let names = || snap.per_node.iter().flatten().map(|(n, _)| n.as_str());
    assert!(
        names().all(|n| !n.starts_with("prefetch.")),
        "no prefetch ran: {:?}",
        names().collect::<Vec<_>>()
    );
    assert_eq!(report.process().counters().get("prefetch.pages"), 0);

    // A prefetch whose every page is granted denies nothing: no row.
    let report = Cluster::new(ClusterConfig::new(2).with_metrics()).run(|p| {
        let data = p.alloc_vec_aligned::<u64>(8 * 512, "data");
        p.spawn(move |ctx| {
            ctx.migrate(1).expect("node 1 exists");
            ctx.prefetch(data.addr(), (data.len() * 8) as u64, Access::Read);
        });
    });
    let counters = report.process().counters().totals();
    assert!(counters.iter().any(|(n, _)| *n == "prefetch.pages"));
    assert!(
        counters.iter().all(|(n, _)| *n != "prefetch.denied"),
        "{counters:?}"
    );
}
