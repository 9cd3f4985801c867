//! The false-sharing hunt, end to end, on a tiny synthetic program.
//!
//! Two unrelated counters end up on one page (the allocator packed them);
//! threads on different nodes each hammer their own counter, and the page
//! bounces. The profiler's report names both objects on the suspect page
//! and suggests the fix; applying it (page-aligned allocation) removes the
//! interference. This is §IV-B in miniature.
//!
//! The profile reads the fault record off the run's causal *spans*,
//! which also show where each fault's latency went, stitched across
//! nodes. The run collects cluster *metrics* as well (per-node and per-link
//! counters), and *continuous telemetry* — a virtual-time series
//! sampled every millisecond. Judged with the spans after the run, the
//! series raises a fabric-queue alarm on the packed run (the bouncing
//! page saturates the links) that goes quiet once the counters are
//! pulled apart. The spans and the counter tracks export together as one
//! Chrome trace-event JSON for Perfetto.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example profiling_workflow
//! ```

use dex::core::{Cluster, ClusterConfig, DsmCell, RunReport};
use dex::prof::{
    export_chrome_trace_with_series, health, render_critical_path, render_report, render_top,
    HealthEvent, HealthEventKind, MonitorConfig, Profile, ReportOptions,
};
use dex_sim::SimDuration;

fn run_workload(aligned: bool) -> RunReport {
    let cluster = Cluster::new(
        ClusterConfig::new(2)
            .with_spans()
            .with_metrics()
            .with_telemetry(SimDuration::from_millis(1)),
    );
    cluster.run(|p| {
        // Two per-node counters. Packed: same page. Aligned: own pages.
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

/// The health alarms of a telemetry run, at the default thresholds.
fn health_of(report: &RunReport) -> Vec<HealthEvent> {
    let series = report.series.as_ref().expect("telemetry was on");
    health(series, &report.spans, &MonitorConfig::default())
}

fn main() {
    println!("step 1: run with the default (packed) allocation under tracing\n");
    let packed = run_workload(false);
    let packed_time = packed.virtual_time;
    let profile = Profile::from_spans(&packed.spans);

    let suspects = profile.false_sharing_suspects();
    println!(
        "{}",
        render_report(
            &profile,
            &ReportOptions {
                top_pages: 3,
                top_sites: 3,
                timeline_bucket: SimDuration::from_millis(2),
            }
        )
    );
    assert!(
        !suspects.is_empty(),
        "the profiler must flag the shared page"
    );
    println!(
        "=> suspect page {} carries {:?} — pad them apart\n",
        suspects[0].vpn, suspects[0].tags
    );

    println!("step 2: ask the spans where the fault latency went\n");
    // The same run recorded causal spans: each fault's time decomposed
    // into origin-side directory handling, invalidation fan-out, and
    // requester-side fixup — stitched across node boundaries.
    let critical = render_critical_path(&packed.spans, 2);
    for line in critical.lines().take(16) {
        println!("{line}");
    }
    // Spans and the sampled counter tracks export as ONE Perfetto
    // trace: the ping-pong shows up as a sawtooth in faults.write
    // right under the span timeline.
    let chrome = export_chrome_trace_with_series(&packed.spans, packed.series.as_ref());
    let trace_path = std::env::temp_dir().join("dex-profiling-workflow.json");
    if std::fs::write(&trace_path, &chrome).is_ok() {
        println!(
            "\nfull timeline written to {} — open in ui.perfetto.dev\n",
            trace_path.display()
        );
    }

    // And the counter store saw every count once, per node and per
    // link: the traffic and the protocol's faults and invalidations.
    if let Some(metrics) = &packed.metrics {
        println!("step 3: cluster metrics of the packed run\n");
        for line in metrics.render().lines().take(32) {
            println!("{line}");
        }
        println!();
    }

    println!("step 4: the telemetry series raises the alarm\n");
    // The 1 ms sampler cut the run into windows; judged with the spans,
    // they show what false sharing does to the fabric. The page bounces
    // on every other access, so the links carry an invalidation+transfer
    // storm: the fabric-queue rule fires window after window, and each
    // alarm carries the causal span id of an exemplar operation — the
    // entry point into the timeline exported above. (The page-ping-pong
    // rule is tag-based and names *truly* shared objects; here the two
    // counters are distinct tags, which is exactly why it takes the
    // offline profiler to name the packed page.)
    let alarms = health_of(&packed);
    for event in &alarms {
        println!("  {event}");
    }
    assert!(
        alarms
            .iter()
            .any(|e| e.kind == HealthEventKind::FabricQueueBuildup),
        "the packed run must trip the fabric-queue rule"
    );
    let series = packed.series.as_ref().expect("telemetry was on");
    println!("\n…and the dashboard view of the hottest window:\n");
    for line in render_top(series, Some(&alarms), None).lines().take(20) {
        println!("{line}");
    }
    println!();

    println!("step 5: apply the fix (posix_memalign-style page alignment)\n");
    let aligned = run_workload(true);
    let aligned_time = aligned.virtual_time;
    let aligned_profile = Profile::from_spans(&aligned.spans);
    // The counters must be off the suspect list. (The barrier's own two
    // words still share a page — synchronization objects are *true*
    // sharing and padding them apart would not help.)
    assert!(
        aligned_profile
            .false_sharing_suspects()
            .iter()
            .all(|s| !s.tags.iter().any(|t| t.contains("counter"))),
        "aligned counters must not be flagged"
    );
    // The fix also silences the alarms: no page bounces, no alarm.
    let quiet = health_of(&aligned);
    assert!(
        quiet.is_empty(),
        "the aligned run must raise no health alarms: {quiet:?}"
    );

    println!("packed  : {packed_time}");
    println!("aligned : {aligned_time}");
    let gain = packed_time.as_secs_f64() / aligned_time.as_secs_f64();
    println!("speedup : {gain:.1}x from one allocation change");
    assert!(
        gain > 2.0,
        "removing false sharing should pay off: {gain:.2}"
    );
}
