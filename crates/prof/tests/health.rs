//! Health alarms, judged after the run from the series and the spans.
//!
//! The pinned lists are the exact alarms the four workloads below raised
//! when the rules still ran inside the engine's sampler, one window at a
//! time; judging after the run must reproduce them line for line.

use std::rc::Rc;

use dex_core::{Cluster, ClusterConfig, DsmCell, RunReport, Span, SpanId, SpanKind};
use dex_net::{LinkCounter, MetricsRegistry, NodeId, SeriesBuilder, TimeSeries};
use dex_os::Tid;
use dex_prof::{health, HealthEventKind, MonitorConfig};
use dex_sim::{SimDuration, SimTime};

/// The alarms of `report` as their display lines.
fn lines_of(report: &RunReport, spans: &[Span], cfg: &MonitorConfig) -> Vec<String> {
    let series = report.series.as_ref().expect("telemetry was on");
    let alarms = health(series, spans, cfg);
    alarms.iter().map(ToString::to_string).collect()
}

/// `dex-prof top`'s live demo: the final window (the partial tail, so
/// stamped at the end of the run) and the window before it.
#[test]
fn top_demo_raises_the_pinned_alarm() {
    let top = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_dex-prof"))
            .arg("top")
            .args(args)
            .output()
            .expect("dex-prof runs");
        let text = String::from_utf8(out.stdout).expect("utf-8");
        let health = text.lines().skip_while(|l| !l.starts_with("health:"));
        let health: Vec<String> = health.map(str::to_string).collect();
        (out.status.code(), health)
    };
    let (status, last) = top(&[]);
    assert_eq!(status, Some(1), "alarms raised: the documented exit status");
    assert_eq!(
        last,
        [
            "health: 1 alarm(s)",
            "  [w2 t+2.913ms] page_ping_pong node0: tag 'shared_counter' faulted 10x across 2 nodes (span-73)",
        ]
    );
    assert_eq!(
        top(&["--window", "1"]).1,
        [
            "health: 1 alarm(s)",
            "  [w1 t+2.000ms] page_ping_pong node0: tag 'shared_counter' faulted 12x across 2 nodes (span-48)",
        ]
    );
}

/// `examples/profiling_workflow.rs`: two counters, packed on one page or
/// page-aligned, each hammered from its own node.
fn counters_workload(aligned: bool) -> RunReport {
    let config = ClusterConfig::new(2).with_telemetry(SimDuration::from_millis(1));
    Cluster::new(config).run(|p| {
        let (red, blue): (DsmCell<u64>, DsmCell<u64>) = if aligned {
            (
                p.alloc_cell_aligned(0, "red_counter"),
                p.alloc_cell_aligned(0, "blue_counter"),
            )
        } else {
            (
                p.alloc_cell_tagged(0, "red_counter"),
                p.alloc_cell_tagged(0, "blue_counter"),
            )
        };
        let barrier = p.new_barrier(2, "start");
        p.spawn(move |ctx| {
            ctx.set_site("app.red_loop");
            barrier.wait(ctx);
            for _ in 0..300 {
                red.rmw(ctx, |v| v + 1);
                ctx.compute_ops(4_000);
            }
        });
        p.spawn(move |ctx| {
            ctx.set_site("app.blue_loop");
            ctx.migrate(1).expect("node 1 exists");
            barrier.wait(ctx);
            for _ in 0..300 {
                blue.rmw(ctx, |v| v + 1);
                ctx.compute_ops(4_000);
            }
        });
    })
}

#[test]
fn profiling_workflow_alarms_are_pinned() {
    let cfg = MonitorConfig::default();
    let packed = counters_workload(false);
    assert_eq!(
        lines_of(&packed, &packed.spans, &cfg),
        [
            "[w1 t+2.000ms] fabric_queue_buildup node0: link 0->1 carried 82 msgs (span-25)",
            "[w1 t+2.000ms] fabric_queue_buildup node1: link 1->0 carried 81 msgs (span-18)",
            "[w2 t+3.000ms] fabric_queue_buildup node0: link 0->1 carried 82 msgs (span-425)",
            "[w2 t+3.000ms] fabric_queue_buildup node1: link 1->0 carried 84 msgs (span-428)",
            "[w3 t+3.940ms] fabric_queue_buildup node0: link 0->1 carried 67 msgs (span-595)",
            "[w3 t+3.940ms] fabric_queue_buildup node1: link 1->0 carried 66 msgs (span-598)",
        ]
    );
    let aligned = counters_workload(true);
    assert!(lines_of(&aligned, &aligned.spans, &cfg).is_empty());
}

#[test]
fn pingpong_workload_raises_a_page_pingpong_alarm() {
    // Two nodes alternately write the same cell: the page bounces and
    // the fault spans — all tagged with the cell's allocation tag — come
    // from both nodes within a window.
    let config = ClusterConfig::new(2).with_telemetry(SimDuration::from_millis(2));
    let report = Cluster::new(config).run(|p| {
        let cell: DsmCell<u64> = p.alloc_cell_tagged(0, "bouncer");
        let barrier = p.new_barrier(2, "start");
        for node in [0u16, 1u16] {
            p.spawn(move |ctx| {
                if node != 0 {
                    ctx.migrate(node).expect("node exists");
                }
                barrier.wait(ctx);
                // Each iteration computes for roughly as long as a
                // remote fault takes to resolve (~150µs), so both
                // threads stay in the loop together and every rmw
                // finds the page stolen by the other node.
                for _ in 0..20 {
                    cell.rmw(ctx, |v| v + 1);
                    ctx.compute_ops(300_000);
                }
            });
        }
    });
    let cfg = MonitorConfig {
        pingpong_faults: 4,
        ..MonitorConfig::default()
    };
    assert_eq!(
        lines_of(&report, &report.spans, &cfg),
        [
            "[w0 t+2.000ms] page_ping_pong node0: tag 'bouncer' faulted 13x across 2 nodes (span-48)",
            "[w1 t+4.000ms] page_ping_pong node0: tag 'bouncer' faulted 24x across 2 nodes (span-108)",
        ]
    );
    // The causal span really exists in the recorded span forest.
    let series = report.series.as_ref().expect("series present");
    for e in health(series, &report.spans, &cfg) {
        assert!(report.spans.iter().any(|s| s.id == e.span), "{e}");
    }
    // Telemetry implies metrics + spans; the series saw fault traffic.
    assert!(series
        .counters
        .iter()
        .any(|p| p.name == "faults.write" && p.delta > 0));
}

/// Two processes share the rack and bounce a cell each, both tagged
/// `shared`: one tag group holds both processes' faults, the first
/// process's spans before the second's.
#[test]
fn two_process_run_alarms_are_pinned() {
    let config = ClusterConfig::new(3).with_telemetry(SimDuration::from_millis(1));
    let reports = Cluster::new(config).run_multi(|c| {
        for (origin, away) in [(0u16, 1u16), (2, 1)] {
            let p = c.create_process(NodeId(origin));
            let cell: DsmCell<u64> = p.alloc_cell_tagged(0, "shared");
            let barrier = p.new_barrier(2, "start");
            for node in [origin, away] {
                p.spawn(move |ctx| {
                    if node != origin {
                        ctx.migrate(node).expect("node exists");
                    }
                    barrier.wait(ctx);
                    for _ in 0..12 {
                        cell.rmw(ctx, |v| v + 1);
                        ctx.compute_ops(200_000);
                    }
                });
            }
        }
    });
    let cfg = MonitorConfig {
        pingpong_faults: 4,
        retry_storm: 2,
        link_msgs_buildup: 16,
        ..MonitorConfig::default()
    };
    let spans: Vec<Span> = reports.iter().flat_map(|r| r.spans.clone()).collect();
    assert_eq!(
        lines_of(&reports[0], &spans, &cfg),
        [
            "[w1 t+2.000ms] page_ping_pong node2: tag 'shared' faulted 11x across 3 nodes (span-28)",
            "[w1 t+2.000ms] page_ping_pong node2: tag 'start.generation' faulted 4x across 3 nodes (span-17)",
            "[w1 t+2.000ms] stalled_request node2: migration_forward 'first_on_node' took 1.618ms (deadline 1.000ms) (span-2)",
            "[w2 t+3.000ms] page_ping_pong node1: tag 'shared' faulted 33x across 3 nodes (span-70)",
            "[w2 t+3.000ms] fabric_queue_buildup node0: link 0->1 carried 17 msgs (span-68)",
            "[w2 t+3.000ms] fabric_queue_buildup node1: link 1->0 carried 17 msgs (span-70)",
            "[w2 t+3.000ms] fabric_queue_buildup node1: link 1->2 carried 16 msgs (span-70)",
            "[w2 t+3.000ms] fabric_queue_buildup node2: link 2->1 carried 18 msgs (span-68)",
        ]
    );
}

#[test]
fn quiet_run_raises_no_alarms() {
    let report = Cluster::new(ClusterConfig::new(2).with_telemetry(SimDuration::from_micros(100)))
        .run(|p| {
            p.spawn(|ctx| ctx.compute_ops(50_000));
        });
    let alarms = lines_of(&report, &report.spans, &MonitorConfig::default());
    assert!(
        alarms.is_empty(),
        "a compute-only run is healthy: {alarms:?}"
    );
}

/// A span that ends `end_us` into the run after lasting `dur_us`.
fn span(
    id: u64,
    kind: SpanKind,
    node: u16,
    end_us: u64,
    dur_us: u64,
    tag: Option<&'static str>,
) -> Span {
    Span {
        id: SpanId(id),
        parent: SpanId::NONE,
        kind,
        node: NodeId(node),
        task: Tid(0),
        start: SimTime::from_nanos((end_us - dur_us) * 1_000),
        end: SimTime::from_nanos(end_us * 1_000),
        label: "test",
        tag,
        site: "",
        addr: None,
    }
}

/// A series of `windows` idle windows of `width`, ending at the last
/// boundary.
fn idle_series(width: SimDuration, windows: u64) -> TimeSeries {
    TimeSeries {
        window: width,
        windows,
        end: SimTime::ZERO + width * windows,
        ..TimeSeries::default()
    }
}

#[test]
fn pingpong_needs_two_nodes_and_enough_faults() {
    let series = idle_series(SimDuration::from_micros(10), 2);
    let spans = [
        // Three faults on the same tag in window 0, all on one node: no
        // alarm.
        span(1, SpanKind::Fault, 0, 1, 1, Some("hot")),
        span(2, SpanKind::Fault, 0, 2, 1, Some("hot")),
        span(3, SpanKind::Fault, 0, 9, 1, Some("hot")),
        // Three more in window 1 (a span ending on the boundary belongs
        // to the window it opens), now split across nodes: alarm.
        span(4, SpanKind::Fault, 0, 10, 1, Some("hot")),
        span(5, SpanKind::Fault, 1, 12, 1, Some("hot")),
        span(6, SpanKind::Fault, 1, 19, 1, Some("hot")),
        // Past the last window: not judged.
        span(7, SpanKind::Fault, 1, 20, 1, Some("hot")),
    ];
    let cfg = MonitorConfig {
        pingpong_faults: 3,
        ..MonitorConfig::default()
    };
    let events = health(&series, &spans, &cfg);
    assert_eq!(events.len(), 1, "{events:?}");
    let e = &events[0];
    assert_eq!(e.kind, HealthEventKind::PagePingPong);
    assert_eq!((e.window, e.at), (1, SimTime::from_nanos(20_000)));
    assert_eq!(e.span, SpanId(6), "anchored to the last offending fault");
    assert!(e.detail.contains("'hot'"), "{}", e.detail);
}

#[test]
fn retry_storm_and_stall_fire_per_span_conditions() {
    let mut series = idle_series(SimDuration::from_millis(1), 1);
    series.end = SimTime::from_nanos(950_000);
    let spans = [
        span(1, SpanKind::FaultRetry, 1, 100, 1, None),
        span(2, SpanKind::FaultRetry, 1, 200, 1, None),
        span(3, SpanKind::Delegation, 0, 600, 500, None), // stalled
        span(4, SpanKind::FutexWait, 0, 900, 900, None),  // exempt
    ];
    let cfg = MonitorConfig {
        retry_storm: 2,
        stall_deadline: SimDuration::from_micros(100),
        ..MonitorConfig::default()
    };
    let events = health(&series, &spans, &cfg);
    let kinds: Vec<_> = events.iter().map(|e| e.kind).collect();
    assert_eq!(
        kinds,
        vec![HealthEventKind::RetryStorm, HealthEventKind::StalledRequest],
        "{events:?}"
    );
    assert_eq!(events[0].node, NodeId(1));
    assert_eq!(events[1].span, SpanId(3));
    assert_eq!(
        events[0].at, series.end,
        "a partial tail is stamped at the end"
    );
}

#[test]
fn fabric_buildup_uses_link_deltas_and_anchors_a_span() {
    let registry = MetricsRegistry::new(2);
    let mut builder = SeriesBuilder::new(Rc::clone(&registry), SimDuration::from_micros(10));
    registry.count_link(NodeId(0), NodeId(1), LinkCounter::Msgs, 6);
    builder.sample();
    // Below threshold in the next window: no second alarm.
    registry.count_link(NodeId(0), NodeId(1), LinkCounter::Msgs, 2);
    builder.sample();
    let series = builder.finish(SimTime::from_nanos(20_000));
    assert_eq!(series.windows, 2);
    let spans = [
        span(1, SpanKind::DirectoryHandling, 0, 5, 3, None),
        span(2, SpanKind::Fault, 0, 9, 9, None), // longest on node 0
        span(3, SpanKind::Fault, 1, 9, 9, None), // longest, but on node 1
    ];
    let cfg = MonitorConfig {
        link_msgs_buildup: 5,
        ..MonitorConfig::default()
    };
    let events = health(&series, &spans, &cfg);
    assert_eq!(events.len(), 1, "{events:?}");
    let e = &events[0];
    assert_eq!(e.kind, HealthEventKind::FabricQueueBuildup);
    assert_eq!(e.node, NodeId(0));
    assert_eq!(e.span, SpanId(2), "anchored to the window's longest span");
    assert!(e.detail.contains("0->1"), "{}", e.detail);
}
