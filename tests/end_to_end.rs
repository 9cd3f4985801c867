//! Cross-crate integration tests through the `dex` facade: simulator +
//! fabric + OS substrate + protocol + profiler + applications together.

use dex::apps::{reference_checksum, run_app, run_app_with_config, AppParams, Variant, ALL_APPS};
use dex::core::{Cluster, ClusterConfig, NodeId};
use dex::prof::Profile;
use dex::sim::SimDuration;

#[test]
fn every_application_is_correct_on_three_nodes() {
    // The headline correctness claim: all eight applications compute the
    // same answers distributed as the sequential reference, in both
    // variants. (Test scale keeps this fast.)
    for app in ALL_APPS {
        for variant in [Variant::Initial, Variant::Optimized] {
            let params = AppParams::test(3, variant);
            let result = run_app(app, &params);
            assert_eq!(
                result.checksum,
                reference_checksum(app, &params),
                "{app} {variant} diverged from the sequential reference"
            );
        }
    }
}

#[test]
fn every_application_is_correct_with_sharded_directories() {
    // One directory shard per node: every page is homed off the origin
    // somewhere, so write grants from a home's own replica and batched
    // revocations are on every application's path.
    for app in ALL_APPS {
        for variant in [Variant::Initial, Variant::Optimized] {
            let params = AppParams::test(4, variant);
            let config = params.cluster_config().with_directory_shards(4);
            let result = run_app_with_config(app, &params, config);
            assert_eq!(
                result.checksum,
                reference_checksum(app, &params),
                "{app} {variant} with 4 shards diverged from the sequential reference"
            );
        }
    }
}

#[test]
fn the_span_profile_counts_every_fault_and_invalidation() {
    // The fault record lives in the spans: the profile built from them
    // must see exactly the faults and invalidations the protocol counted,
    // including revocations parked behind an in-flight grant.
    for app in ALL_APPS {
        for variant in [Variant::Initial, Variant::Optimized] {
            for shards in [1, 2] {
                let params = AppParams::test(2, variant);
                let config = params
                    .cluster_config()
                    .with_spans()
                    .with_directory_shards(shards);
                let result = run_app_with_config(app, &params, config);
                let (mut reads, mut writes, mut invalidations) = (0, 0, 0);
                for (_, t) in Profile::from_spans(&result.report.spans).node_matrix() {
                    reads += t.reads;
                    writes += t.writes;
                    invalidations += t.invalidations;
                }
                let stats = &result.stats;
                let cell = format!("{app} {variant} with {shards} shard(s)");
                assert_eq!(reads, stats.read_faults, "{cell}: read faults");
                assert_eq!(writes, stats.write_faults, "{cell}: write faults");
                assert_eq!(invalidations, stats.invalidations, "{cell}: invalidations");
            }
        }
    }
}

#[test]
fn applications_are_deterministic_across_runs() {
    for app in ["GRP", "BP"] {
        let params = AppParams::test(2, Variant::Optimized);
        let a = run_app(app, &params);
        let b = run_app(app, &params);
        assert_eq!(a.elapsed, b.elapsed, "{app} virtual time must repeat");
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.stats, b.stats, "{app} protocol stats must repeat");
    }
}

#[test]
fn profiler_attributes_app_traffic_to_objects() {
    let params = AppParams::test(2, Variant::Initial);
    let result = run_app_with_config("KMN", &params, params.cluster_config().with_spans());
    let profile = Profile::from_spans(&result.report.spans);
    assert!(profile.events() > 0, "KMN initial must fault");
    // The shared accumulators must surface in the hot pages.
    let hot_tags: Vec<String> = profile
        .hot_pages()
        .into_iter()
        .take(3)
        .flat_map(|(_, s)| s.tags.iter().cloned().collect::<Vec<_>>())
        .collect();
    assert!(
        hot_tags
            .iter()
            .any(|t| t.contains("centroid") || t.contains("changed")),
        "hot pages should name the accumulators: {hot_tags:?}"
    );
}

#[test]
fn migration_and_memory_compose_across_all_nodes() {
    // One thread walks the whole rack, carrying a counter through every
    // node's memory system.
    let cluster = Cluster::new(ClusterConfig::new(8));
    let mut cell = None;
    let report = cluster.run(|p| {
        let c = p.alloc_cell_tagged::<u64>(0, "walker");
        cell = Some(c);
        p.spawn(move |ctx| {
            for hop in 0..8u16 {
                ctx.migrate(hop).expect("node exists");
                assert_eq!(ctx.node(), NodeId(hop));
                c.rmw(ctx, |v| v + 1);
            }
            ctx.migrate_back().expect("home");
        });
    });
    assert_eq!(cell.unwrap().snapshot(&report), 8);
    // 7 forward hops (node 0 is home); remote-to-remote goes home first.
    assert_eq!(report.stats.forward_migrations, 7);
}

#[test]
fn delegated_synchronization_spans_the_facade() {
    // Producer/consumer across nodes using only mutex + condvar.
    let cluster = Cluster::new(ClusterConfig::new(3));
    let mut out = None;
    let report = cluster.run(|p| {
        let queue = p.alloc_vec_aligned::<u64>(16, "queue");
        let head = p.alloc_cell_tagged::<u32>(0, "head");
        let consumed = p.alloc_cell_tagged::<u64>(0, "consumed_sum");
        out = Some(consumed);
        let mutex = p.new_mutex("queue_lock");
        let cv = p.new_condvar("queue_cv");
        p.spawn(move |ctx| {
            ctx.migrate(1).expect("node 1");
            for i in 0..16u64 {
                mutex.lock(ctx);
                let h = head.get(ctx);
                queue.set(ctx, h as usize, i * i);
                head.set(ctx, h + 1);
                cv.notify_one(ctx);
                mutex.unlock(ctx);
                ctx.compute_ops(10_000);
            }
        });
        p.spawn(move |ctx| {
            ctx.migrate(2).expect("node 2");
            let mut taken = 0u32;
            let mut sum = 0u64;
            while taken < 16 {
                mutex.lock(ctx);
                while head.get(ctx) <= taken {
                    cv.wait(ctx, &mutex);
                }
                sum += queue.get(ctx, taken as usize);
                taken += 1;
                mutex.unlock(ctx);
            }
            consumed.set(ctx, sum);
        });
    });
    let expected: u64 = (0..16u64).map(|i| i * i).sum();
    assert_eq!(out.unwrap().snapshot(&report), expected);
    assert!(report.stats.delegations > 0, "futexes were delegated");
}

#[test]
fn fault_histogram_reaches_report_consumers() {
    let cluster = Cluster::new(ClusterConfig::new(2));
    let report = cluster.run(|p| {
        let v = p.alloc_vec::<u64>(4096, "data");
        p.spawn(move |ctx| {
            ctx.migrate(1).expect("node 1");
            for i in 0..v.len() {
                v.set(ctx, i, 1);
            }
        });
    });
    assert!(report.fault_hist.count() >= 8, "one fault per page");
    assert!(report.fault_hist.mean() > SimDuration::from_micros(5));
    assert!(report.fault_hist.mean() < SimDuration::from_micros(60));
}
