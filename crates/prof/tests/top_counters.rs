//! `dex-prof top` must surface the sharded-directory protocol counters
//! (owner-forwarded grants, batched invalidations, denied prefetches) in
//! its per-node panes — both from a hand-built series and end to end
//! from a live sharded run with telemetry on.

use dex_core::{Cluster, ClusterConfig};
use dex_net::{CounterPoint, SeriesScope, TimeSeries};
use dex_prof::render_top;
use dex_sim::SimDuration;

#[test]
fn sharded_protocol_counters_render_in_node_panes() {
    let point = |name: &str, node: u16, delta: u64| CounterPoint {
        window: 0,
        scope: SeriesScope::Node(node),
        name: name.into(),
        delta,
    };
    let series = TimeSeries {
        window: SimDuration::from_millis(1),
        windows: 1,
        counters: vec![
            point("protocol.forwards", 0, 4),
            point("protocol.forwards_serviced", 1, 4),
            point("protocol.invalidate_batches", 0, 2),
            point("prefetch.denied", 2, 3),
        ],
        ..TimeSeries::default()
    };
    let text = render_top(&series, None, None);
    for name in [
        "protocol.forwards",
        "protocol.forwards_serviced",
        "protocol.invalidate_batches",
        "prefetch.denied",
    ] {
        assert!(text.contains(name), "missing {name} pane:\n{text}");
    }
}

#[test]
fn live_sharded_run_feeds_forward_counters_into_top() {
    let config = ClusterConfig::new(4)
        .with_directory_shards(4)
        .with_telemetry(SimDuration::from_millis(1));
    let report = Cluster::new(config).run(|p| {
        let v = p.alloc_vec_aligned::<u64>(4 * 512, "pingpong");
        p.spawn(move |ctx| {
            ctx.migrate(1).expect("node 1 exists");
            for page in 0..4 {
                v.set(ctx, page * 512, page as u64);
            }
            for round in 0..3usize {
                ctx.migrate(3).expect("node 3 exists");
                for page in 0..4 {
                    let _ = v.get(ctx, page * 512);
                }
                let writer = if round % 2 == 0 { 2 } else { 1 };
                ctx.migrate(writer).expect("writer node exists");
                for page in 0..4 {
                    v.set(ctx, page * 512, round as u64);
                }
            }
        });
    });
    let series = report.series.expect("telemetry was enabled");
    // The forwarded-grant counters must flow through the registry into
    // the series, attributed to real nodes.
    for name in ["protocol.forwards", "protocol.forwards_serviced"] {
        assert!(
            series
                .counters
                .iter()
                .any(|p| p.name == name && matches!(p.scope, SeriesScope::Node(_)) && p.delta > 0),
            "{name} never moved in the series"
        );
    }
    // ...and render in whichever window they moved.
    let rendered: String = (0..series.windows)
        .map(|w| render_top(&series, None, Some(w)))
        .collect();
    assert!(rendered.contains("protocol.forwards"), "{rendered}");
}
