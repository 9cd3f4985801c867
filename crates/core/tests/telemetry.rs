//! Continuous-telemetry regression tests.
//!
//! The load-bearing guarantee mirrors `schedule_policy.rs`: telemetry is
//! pure observation. A run with the sampler installed must produce a
//! byte-identical event schedule to a run without it (and both must
//! match the uninstrumented schedule) — the sampler fires on the driver
//! thread between events and adds nothing to the event queue.

use dex_core::{Cluster, ClusterConfig, DsmCell, HealthEventKind, MonitorConfig, TelemetryConfig};
use dex_net::SeriesScope;
use dex_sim::SimDuration;

/// The Table II workload: ten forward/backward migration round trips.
fn table2_workload(p: &dex_core::DexProcess<'_>) {
    p.spawn(|ctx| {
        for _ in 0..10 {
            ctx.migrate(1).expect("node 1 exists");
            ctx.migrate_back().expect("origin exists");
        }
    });
}

/// Runs the workload and returns the recorded schedule text.
fn schedule_of(configure: impl FnOnce(ClusterConfig) -> ClusterConfig) -> String {
    let config = configure(ClusterConfig::new(2).with_schedule_recording());
    let report = Cluster::new(config).run(table2_workload);
    report.schedule.expect("schedule recording was enabled")
}

#[test]
fn telemetry_is_schedule_invisible() {
    // Sampler-off vs sampler-on, both against the bare uninstrumented
    // run: all three byte-identical.
    let bare = schedule_of(|c| c);
    let instrumented = schedule_of(|c| c.with_spans().with_metrics());
    let telemetry = schedule_of(|c| c.with_telemetry(SimDuration::from_micros(50)));
    assert_eq!(
        instrumented, telemetry,
        "the sampler must not perturb the schedule"
    );
    assert_eq!(bare, telemetry, "telemetry-on must match the bare run");
    assert!(!bare.is_empty());
}

#[test]
fn series_deltas_sum_to_cumulative_totals() {
    let window = SimDuration::from_micros(50);
    let report = Cluster::new(ClusterConfig::new(2).with_telemetry(window)).run(table2_workload);
    let series = report.series.as_ref().expect("telemetry was enabled");
    assert_eq!(series.window, window);
    assert!(series.windows > 1, "the run spans several windows");
    assert_eq!(
        series.end.saturating_since(dex_sim::SimTime::ZERO),
        report.virtual_time
    );

    // Per-window deltas reassemble the cumulative counters exactly.
    let metrics = report.metrics.as_ref().expect("metrics implied");
    for (node, counters) in metrics.per_node.iter().enumerate() {
        for (name, total) in counters {
            let sum: u64 = series
                .counters
                .iter()
                .filter(|p| p.scope == SeriesScope::Node(node as u16) && &p.name == name)
                .map(|p| p.delta)
                .sum();
            assert_eq!(sum, *total, "{name}@node{node} deltas must sum to total");
        }
    }
    for link in &metrics.per_link {
        for (name, total) in &link.counters {
            let sum: u64 = series
                .counters
                .iter()
                .filter(|p| p.scope == SeriesScope::Link(link.src, link.dst) && &p.name == name)
                .map(|p| p.delta)
                .sum();
            assert_eq!(
                sum, *total,
                "{name}@link{}-{} deltas must sum to total",
                link.src, link.dst
            );
        }
    }

    // Windows are ordered and in range.
    assert!(series
        .counters
        .windows(2)
        .all(|w| w[0].window <= w[1].window));
    assert!(series.counters.iter().all(|p| p.window < series.windows));
}

#[test]
fn telemetry_itself_is_deterministic() {
    let run = || {
        let report =
            Cluster::new(ClusterConfig::new(2).with_telemetry(SimDuration::from_micros(50)))
                .run(table2_workload);
        let series = report.series.expect("telemetry on");
        (
            series.windows,
            series.counters,
            series.hists,
            report.health.len(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn pingpong_workload_raises_a_page_pingpong_alarm() {
    // Two nodes alternately write the same cell: the page bounces and
    // the fault spans — all tagged with the cell's allocation tag — come
    // from both nodes within a window.
    let config = ClusterConfig::new(2).with_telemetry_config(TelemetryConfig {
        window: SimDuration::from_millis(2),
        monitors: MonitorConfig {
            pingpong_faults: 4,
            ..MonitorConfig::default()
        },
    });
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
    let pingpong: Vec<_> = report
        .health
        .iter()
        .filter(|e| e.kind == HealthEventKind::PagePingPong)
        .collect();
    assert!(
        !pingpong.is_empty(),
        "the bouncing page must raise an alarm; health = {:?}",
        report.health
    );
    let e = pingpong[0];
    assert!(e.detail.contains("'bouncer'"), "{}", e.detail);
    assert!(!e.span.is_none(), "the alarm carries its causal span");
    // The causal span really exists in the recorded span forest.
    assert!(
        report.spans.iter().any(|s| s.id == e.span),
        "span {} not found",
        e.span
    );
    // Telemetry implies metrics + spans; the series saw fault traffic.
    let series = report.series.expect("series present");
    assert!(series
        .counters
        .iter()
        .any(|p| p.name == "faults.write" && p.delta > 0));
}

#[test]
fn quiet_run_raises_no_alarms() {
    let report = Cluster::new(ClusterConfig::new(2).with_telemetry(SimDuration::from_micros(100)))
        .run(|p| {
            p.spawn(|ctx| ctx.compute_ops(50_000));
        });
    assert!(
        report.health.is_empty(),
        "a compute-only run is healthy: {:?}",
        report.health
    );
}

#[test]
fn per_window_hist_points_cover_the_run() {
    // Migration round trips exercise the fabric wait histograms; with
    // telemetry on, their per-window quantiles land in the series.
    let report = Cluster::new(ClusterConfig::new(2).with_telemetry(SimDuration::from_micros(50)))
        .run(table2_workload);
    let series = report.series.expect("telemetry on");
    let metrics = report.metrics.expect("metrics implied");
    for h in metrics.histograms.iter().filter(|h| h.count > 0) {
        let windowed: u64 = series
            .hists
            .iter()
            .filter(|p| p.name == h.name && p.node == h.node)
            .map(|p| p.count)
            .sum();
        assert_eq!(
            windowed, h.count,
            "per-window sample counts of {}@node{} must sum to the total",
            h.name, h.node
        );
    }
}
