//! End-to-end tests for the sharded ownership directory: shards off is
//! bit-identical to the seed behaviour, shards on runs the two-hop
//! (owner-forwarded) protocol with batched invalidation fan-out, and
//! both replay deterministically with consistent directories.

use std::sync::{Arc, Mutex};

use dex_core::{Cluster, ClusterConfig, RunReport};

/// The fault-suite fingerprint: virtual time, the full counter set, and
/// the spans (which carry the fault record).
fn fingerprint(report: &RunReport) -> (u64, Vec<(&'static str, u64)>, String) {
    (
        report.virtual_time.as_nanos(),
        report.process().counters().totals(),
        format!("{:?}", report.spans),
    )
}

/// A migration-heavy workload touching the same region from three nodes:
/// ownership ping-pongs, reads build up sharers, and the final write
/// revokes them all — exercising grants, forwards, and invalidation
/// fan-out under any shard count.
fn pingpong_workload(config: ClusterConfig) -> (RunReport, dex_core::DsmVec<u64>) {
    let cluster = Cluster::new(config);
    let mut handle = None;
    let report = cluster.run(|p| {
        let v = p.alloc_vec_aligned::<u64>(8 * 512, "pingpong");
        handle = Some(v);
        p.spawn(move |ctx| {
            ctx.migrate(1).unwrap();
            for i in 0..v.len() {
                v.set(ctx, i, i as u64 + 1);
            }
            // Spread read replicas over the other nodes...
            ctx.migrate(2).unwrap();
            for page in 0..8 {
                let _ = v.get(ctx, page * 512);
            }
            ctx.migrate_back().unwrap();
            for page in 0..8 {
                let _ = v.get(ctx, page * 512);
            }
            // ...then revoke them all with a second ownership pass.
            ctx.migrate(2).unwrap();
            for i in 0..v.len() {
                v.set(ctx, i, i as u64 * 2);
            }
            ctx.migrate_back().unwrap();
        });
    });
    (report, handle.expect("allocated"))
}

#[test]
fn one_shard_is_bit_identical_to_the_classic_directory() {
    let (classic, _) = pingpong_workload(ClusterConfig::new(3).with_spans());
    let (one_shard, _) =
        pingpong_workload(ClusterConfig::new(3).with_spans().with_directory_shards(1));
    assert_eq!(fingerprint(&classic), fingerprint(&one_shard));
    assert_eq!(classic.stats, one_shard.stats);
}

#[test]
fn sharded_pingpong_is_deterministic_and_correct() {
    let config = || ClusterConfig::new(3).with_directory_shards(3);
    let (first, v) = pingpong_workload(config());
    let (second, _) = pingpong_workload(config());
    assert_eq!(fingerprint(&first), fingerprint(&second));

    let data = v.snapshot(&first);
    for (i, value) in data.iter().enumerate() {
        assert_eq!(*value, i as u64 * 2, "element {i}");
    }
    for dir in &first.process().directories {
        dir.lock()
            .check_invariants()
            .expect("every shard quiesces consistent");
    }
}

#[test]
fn sharded_pingpong_takes_the_two_hop_path() {
    let (report, _) = pingpong_workload(ClusterConfig::new(3).with_directory_shards(3));
    let counters = report.process().counters();
    assert!(
        counters.get("protocol.forwards") >= 1,
        "pages homed off-owner must be granted via owner forwarding"
    );
    assert_eq!(
        counters.get("protocol.forwards"),
        counters.get("protocol.forwards_serviced"),
        "every forward the homes issued was serviced by an owner"
    );
    assert!(
        counters.get("protocol.invalidate_batches") >= 1,
        "revoking the read replicas must fan out as batches"
    );
    // The classic run never touches any of the forwarded machinery.
    let (classic, _) = pingpong_workload(ClusterConfig::new(3));
    let classic_counters = classic.process().counters();
    assert_eq!(classic_counters.get("protocol.forwards"), 0);
    assert_eq!(classic_counters.get("protocol.invalidate_batches"), 0);
}

#[test]
fn sharded_prefetch_grants_across_homes() {
    let cluster = Cluster::new(ClusterConfig::new(3).with_directory_shards(3));
    let report = cluster.run(|p| {
        let data = p.alloc_vec_aligned::<u64>(12 * 512, "stream");
        p.spawn(move |ctx| {
            for i in 0..data.len() {
                data.set(ctx, i, i as u64 + 5);
            }
            ctx.migrate(1).unwrap();
            ctx.prefetch(data.addr(), (data.len() * 8) as u64, dex_core::Access::Read);
            let mut buf = vec![0u64; 512];
            for page in 0..12 {
                data.read_slice(ctx, page * 512, &mut buf);
                assert_eq!(buf[0], (page * 512) as u64 + 5);
            }
        });
    });
    let counters = report.process().counters();
    // Pages homed on node 1 are excluded from the hint (the local fault
    // path serves them); the rest resolve exactly once.
    assert!(
        counters.get("prefetch.pages") >= 1,
        "remote-homed pages must be granted by the hint"
    );
    for dir in &report.process().directories {
        dir.lock().check_invariants().expect("shards consistent");
    }
}

#[test]
fn batched_write_grant_ships_the_homes_staged_copy() {
    // Node 1 writes each page, the origin reads it back: the page is
    // shared by node 1 and the origin. Node 2's write then revokes both.
    // Where the home holds a replica, the directory elects the home's copy
    // as the data source, drops it, and grants only after the other
    // owner's batch ack. The grant must carry the copy it staged, not the
    // zero page the unmapped frame leaves behind.
    let cluster = Cluster::new(ClusterConfig::new(3).with_directory_shards(3));
    let mut handle = None;
    let report = cluster.run(|p| {
        let v = p.alloc_vec_aligned::<u64>(8 * 512, "pages");
        handle = Some(v);
        p.spawn(move |ctx| {
            ctx.migrate(1).unwrap();
            for page in 0..8 {
                v.set(ctx, page * 512 + 1, page as u64 + 100);
            }
            ctx.migrate_back().unwrap();
            for page in 0..8 {
                let _ = v.get(ctx, page * 512);
            }
            ctx.migrate(2).unwrap();
            for page in 0..8 {
                v.set(ctx, page * 512, 7);
            }
            ctx.migrate_back().unwrap();
        });
    });
    let data = handle.expect("allocated").snapshot(&report);
    for page in 0..8 {
        assert_eq!(data[page * 512], 7, "page {page} word 0");
        assert_eq!(
            data[page * 512 + 1],
            page as u64 + 100,
            "page {page} word 1"
        );
    }
    for dir in &report.process().directories {
        dir.lock().check_invariants().expect("shards consistent");
    }
}

/// Node 2 writes eight pages, node 3 reads them after a barrier; the
/// snapshot must return what the reader saw. Afterwards both nodes hold
/// read replicas and nobody a writable mapping, so the snapshot has to
/// source each page from a replica: under sharding the origin's frame is
/// stale (a home other than the origin granted without staging there).
fn snapshot_after_read_sharing(config: ClusterConfig) {
    let cluster = Cluster::new(config);
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut handle = None;
    let report = cluster.run(|p| {
        let v = p.alloc_vec_aligned::<u64>(8 * 512, "shared");
        handle = Some(v);
        let barrier = p.new_barrier(2, "written");
        p.spawn(move |ctx| {
            ctx.migrate(2).unwrap();
            for i in 0..v.len() {
                v.set(ctx, i, 8000 + i as u64);
            }
            barrier.wait(ctx);
        });
        let seen = Arc::clone(&seen);
        p.spawn(move |ctx| {
            ctx.migrate(3).unwrap();
            barrier.wait(ctx);
            let mut out = vec![0; v.len()];
            v.read_slice(ctx, 0, &mut out);
            *seen.lock().unwrap() = out;
        });
    });
    let seen = seen.lock().unwrap().clone();
    assert_eq!(seen[28], 8028, "the reader saw the writer's data");
    assert_eq!(handle.expect("allocated").snapshot(&report), seen);
}

#[test]
fn snapshot_reads_a_replica_when_nobody_writes_classic() {
    snapshot_after_read_sharing(ClusterConfig::new(4));
}

#[test]
fn snapshot_reads_a_replica_when_nobody_writes_sharded() {
    snapshot_after_read_sharing(ClusterConfig::new(4).with_directory_shards(4));
}
