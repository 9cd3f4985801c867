//! Read replicas share their home's bytes: three nodes that read every
//! page of a 4 MiB input hold it about once, not four times. This is its
//! own test binary because tests in one binary run on parallel threads,
//! and their allocations would move the peak resident set (see `rss.rs`).

use std::sync::{Arc, Mutex};

use dex_core::{Cluster, ClusterConfig};
use dex_os::PAGE_SIZE;

const PAGES: usize = 1_024;
const WORDS: usize = PAGE_SIZE / 8;
const READERS: usize = 3;

/// The peak resident set size of this process so far, in KiB.
fn vm_hwm_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("a VmHWM line in KiB")
}

#[test]
fn read_replicas_share_their_homes_frames() {
    let values: Vec<u64> = (0..(PAGES * WORDS) as u64).collect();
    let want = values.iter().fold(0u64, |a, &v| a.wrapping_add(v));
    let data_kib = (PAGES * PAGE_SIZE / 1024) as u64;
    let sums = Arc::new(Mutex::new(vec![0u64; READERS]));

    let before = vm_hwm_kib();
    Cluster::new(ClusterConfig::new(1 + READERS)).run(|p| {
        let data = p.alloc_vec_aligned::<u64>(PAGES * WORDS, "data");
        data.init(p, &values);
        for r in 0..READERS {
            let got = Arc::clone(&sums);
            p.spawn(move |ctx| {
                ctx.migrate(1 + r).expect("reader node exists");
                let mut page = vec![0u64; WORDS];
                let mut sum = 0u64;
                for i in 0..PAGES {
                    data.read_slice(ctx, i * WORDS, &mut page);
                    sum = page.iter().fold(sum, |a, &v| a.wrapping_add(v));
                }
                got.lock().unwrap()[r] = sum;
                ctx.migrate_back().expect("home is reachable");
            });
        }
    });
    let grown = vm_hwm_kib().saturating_sub(before);

    for (r, &sum) in sums.lock().unwrap().iter().enumerate() {
        assert_eq!(sum, want, "reader {r} sum");
    }
    assert!(
        grown < 2 * data_kib,
        "peak RSS grew by {grown} KiB for {data_kib} KiB of data read on {READERS} nodes"
    );
}
