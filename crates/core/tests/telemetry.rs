//! Continuous-telemetry regression tests (the health alarms judged from
//! the series are tested in `dex-prof`).
//!
//! The load-bearing guarantee mirrors `schedule_policy.rs`: telemetry is
//! pure observation. A run with the sampler installed must produce a
//! byte-identical event schedule to a run without it (and both must
//! match the uninstrumented schedule) — the sampler fires on the driver
//! thread between events and adds nothing to the event queue.

use dex_core::{Cluster, ClusterConfig};
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
            report.spans.len(),
        )
    };
    assert_eq!(run(), run());
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
