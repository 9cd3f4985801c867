//! The library's memory is flat across runs: a process that stands up
//! cluster after cluster keeps nothing of the finished ones. This is its
//! own test binary because tests in one binary run on parallel threads,
//! and their allocations would move `VmRSS`.

use dex_core::{Cluster, ClusterConfig};

/// One small run: two threads on a 2-node cluster each migrate to node 1,
/// write the one shared page under a `DexMutex`, and migrate back.
fn one_run() {
    let report = Cluster::new(ClusterConfig::new(2)).run(|p| {
        let page = p.alloc_vec_aligned::<u64>(512, "page");
        let lock = p.new_mutex("lock");
        for t in 0..2 {
            p.spawn(move |ctx| {
                ctx.migrate(1).expect("node 1 exists");
                lock.lock(ctx);
                page.set(ctx, t, t as u64 + 1);
                lock.unlock(ctx);
                ctx.migrate_back().expect("home is reachable");
            });
        }
    });
    assert_eq!(report.stats.forward_migrations, 2);
    assert_eq!(report.stats.backward_migrations, 2);
}

/// The resident set size of this process, in KiB.
fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("a VmRSS line in KiB")
}

#[test]
fn rss_is_flat_across_a_thousand_runs() {
    // Warm-up: allocator pools, lazily built statics and interned strings
    // reach their steady state.
    for _ in 0..100 {
        one_run();
    }
    let before = vm_rss_kib();
    for _ in 0..1_000 {
        one_run();
    }
    let after = vm_rss_kib();
    assert!(
        after <= before + 256,
        "VmRSS grew from {before} to {after} KiB over 1000 runs"
    );
}
