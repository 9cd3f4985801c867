//! Sharded-directory ablation: single-origin homes vs two-hop
//! owner-forwarded grants.
//!
//! The workload ping-pongs exclusive ownership of an 8-page region
//! between two remote nodes while a third node keeps pulling read
//! replicas, so almost every fault is a three-party affair: the
//! requester, the page's home, and the current owner are all distinct.
//! Under the classic single-origin directory every such fault pays four
//! message legs (requester → origin → owner → origin → requester); with
//! sharded homes and owner forwarding the grant takes the two-hop path
//! (requester → home → owner → requester) and the read replicas are
//! revoked with batched invalidations, so the remote-fault critical
//! path — and the whole run — must come out shorter.

use dex_bench::render_table;
use dex_core::{Cluster, ClusterConfig, RunReport};

const PAGES: usize = 8;

fn pingpong(config: ClusterConfig, rounds: usize) -> RunReport {
    let cluster = Cluster::new(dex_bench::with_spans_if_requested(config));
    cluster.run(|p| {
        let v = p.alloc_vec_aligned::<u64>(PAGES * 512, "shard_pingpong");
        p.spawn(move |ctx| {
            ctx.set_site("shard.pingpong");
            ctx.migrate(1).expect("node 1 exists");
            for page in 0..PAGES {
                v.set(ctx, page * 512, page as u64);
            }
            for round in 0..rounds {
                // Spread read replicas from a third node...
                ctx.migrate(3).expect("node 3 exists");
                for page in 0..PAGES {
                    let _ = v.get(ctx, page * 512);
                }
                // ...then revoke them with an exclusive pass from the
                // other writer, bouncing ownership 1 <-> 2.
                let writer = if round % 2 == 0 { 2 } else { 1 };
                ctx.migrate(writer).expect("writer node exists");
                for page in 0..PAGES {
                    v.set(ctx, page * 512, round as u64);
                }
            }
        });
    })
}

fn main() {
    println!("sharded-directory ablation: classic vs two-hop grants\n");
    let rounds = if dex_bench::smoke() { 4 } else { 32 };

    let classic = pingpong(ClusterConfig::new(4), rounds);
    let sharded = pingpong(ClusterConfig::new(4).with_directory_shards(4), rounds);
    dex_bench::write_spans("shard_classic", &classic).expect("write span dump");
    dex_bench::write_spans("shard", &sharded).expect("write span dump");

    let row = |name: &str, r: &RunReport| {
        let c = r.process().counters();
        vec![
            name.to_string(),
            format!("{:.2}", r.virtual_time.as_micros_f64() / 1_000.0),
            format!("{:.1}", r.fault_hist.percentile(50.0).as_micros_f64()),
            format!("{:.1}", r.fault_hist.percentile(99.0).as_micros_f64()),
            format!("{}", r.stats.msgs_sent),
            format!("{}", c.get("protocol.forwards")),
            format!("{}", c.get("protocol.invalidate_batches")),
        ]
    };
    println!(
        "{}",
        render_table(
            &[
                "directory",
                "vtime(ms)",
                "fault p50(us)",
                "fault p99(us)",
                "msgs",
                "forwards",
                "inv batches"
            ],
            &[
                row("single-origin", &classic),
                row("sharded 2-hop", &sharded)
            ],
        )
    );

    // Shape checks: the forwarded path must actually run, and it must
    // shorten the remote-fault critical path end to end.
    let counters = sharded.process().counters();
    assert!(counters.get("protocol.forwards") >= 1, "grants forwarded");
    assert!(
        counters.get("protocol.invalidate_batches") >= 1,
        "replica revocation batched"
    );
    assert_eq!(
        classic.process().counters().get("protocol.forwards"),
        0,
        "classic directory never forwards"
    );
    assert!(
        sharded.fault_hist.percentile(50.0) < classic.fault_hist.percentile(50.0),
        "two-hop grants shorten the median remote fault"
    );
    assert!(
        sharded.virtual_time < classic.virtual_time,
        "sharded run finishes sooner end to end"
    );
    let speedup = classic.virtual_time.as_nanos() as f64 / sharded.virtual_time.as_nanos() as f64;
    println!("\nshape checks passed: two-hop path is {speedup:.2}x faster end to end");

    dex_bench::BenchResult::from_report("shard", &sharded)
        .with_extra("classic_virtual_time_ns", classic.virtual_time.as_nanos())
        .with_extra(
            "classic_fault_p50_ns",
            classic.fault_hist.percentile(50.0).as_nanos(),
        )
        .with_extra("forwards", counters.get("protocol.forwards"))
        .with_extra(
            "forwards_serviced",
            counters.get("protocol.forwards_serviced"),
        )
        .with_extra(
            "invalidate_batches",
            counters.get("protocol.invalidate_batches"),
        )
        .write()
        .expect("write bench result");
}
