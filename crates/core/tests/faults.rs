//! End-to-end fault-injection tests: empty plans leave runs untouched,
//! seeded plans replay deterministically, and node crashes degrade
//! gracefully (threads re-home, the directory reclaims ownership).

use dex_core::{
    Cluster, ClusterConfig, MigrateError, NodeId, Prot, RunReport, ThreadCtx, VirtAddr, PAGE_SIZE,
};
use dex_sim::{FaultPlan, SimDuration, SimTime};

/// A workload that exercises migration, remote faults, and futex-based
/// synchronization on three nodes; returns the run report.
fn mixed_workload(config: ClusterConfig) -> RunReport {
    let cluster = Cluster::new(config);
    cluster.run(|p| {
        let a = p.alloc_vec_aligned::<u64>(8 * 512, "region_a");
        let b = p.alloc_vec_aligned::<u64>(8 * 512, "region_b");
        let mutex = p.new_mutex("lock");
        p.spawn(move |ctx| {
            ctx.migrate(1).unwrap();
            for i in 0..a.len() {
                a.set(ctx, i, i as u64);
            }
            mutex.lock(ctx);
            mutex.unlock(ctx);
            ctx.migrate_back().unwrap();
        });
        p.spawn(move |ctx| {
            ctx.migrate(2).unwrap();
            for i in 0..b.len() {
                b.set(ctx, i, i as u64 * 3);
            }
            mutex.lock(ctx);
            mutex.unlock(ctx);
            ctx.migrate_back().unwrap();
        });
    })
}

/// A fingerprint of everything observable about a run: virtual time, the
/// full counter set, and the spans (which carry the fault record).
fn fingerprint(report: &RunReport) -> (u64, Vec<(&'static str, u64)>, String) {
    (
        report.virtual_time.as_nanos(),
        report.process().counters().totals(),
        format!("{:?}", report.spans),
    )
}

#[test]
fn empty_fault_plan_is_bit_identical_to_no_plan() {
    let plain = mixed_workload(ClusterConfig::new(3).with_spans());
    let with_empty = mixed_workload(
        ClusterConfig::new(3)
            .with_spans()
            .with_fault_plan(FaultPlan::default()),
    );
    assert_eq!(fingerprint(&plain), fingerprint(&with_empty));
    assert_eq!(plain.stats, with_empty.stats);
}

#[test]
fn delay_spikes_replay_deterministically() {
    let mut plan = FaultPlan::default();
    plan.delay(
        0,
        1,
        SimTime::ZERO,
        SimTime::ZERO + SimDuration::from_millis(50),
        SimDuration::from_micros(300),
    );
    let clean = mixed_workload(ClusterConfig::new(3));
    let first = mixed_workload(ClusterConfig::new(3).with_fault_plan(plan.clone()));
    let second = mixed_workload(ClusterConfig::new(3).with_fault_plan(plan));
    assert_eq!(fingerprint(&first), fingerprint(&second));
    assert!(
        first.virtual_time > clean.virtual_time,
        "a 300µs delay spike on a used link must slow the run \
         ({:?} vs {:?})",
        first.virtual_time,
        clean.virtual_time
    );
}

#[test]
fn stalled_replies_complete_instead_of_hanging() {
    // Stall the remote→origin direction while the remote threads are
    // faulting: their requests sit in the window and deliver when it
    // closes; the run must still finish, and do so deterministically.
    let mut plan = FaultPlan::default();
    plan.stall(
        1,
        0,
        SimTime::ZERO + SimDuration::from_micros(900),
        SimTime::ZERO + SimDuration::from_millis(4),
    );
    let first = mixed_workload(ClusterConfig::new(3).with_fault_plan(plan.clone()));
    let second = mixed_workload(ClusterConfig::new(3).with_fault_plan(plan));
    assert_eq!(fingerprint(&first), fingerprint(&second));
    for dir in &first.process().directories {
        dir.lock()
            .check_invariants()
            .expect("directory consistent after stalls");
    }
}

/// The crash scenario: node 2 dies at 3 ms while one thread works there.
/// The thread must re-home to the origin and finish; the directory must
/// reclaim every page the dead node owned; a later migration attempt to
/// the dead node must fail cleanly. Returns the report and the handle of
/// the region rewritten after the crash.
fn crash_workload() -> (RunReport, dex_core::DsmVec<u64>) {
    let mut plan = FaultPlan::default();
    plan.crash(2, SimTime::ZERO + SimDuration::from_millis(3));
    let cluster = Cluster::new(ClusterConfig::new(3).with_fault_plan(plan));
    let mut late_handle = None;
    let report = cluster.run(|p| {
        let survivor = p.alloc_vec_aligned::<u64>(8 * 512, "survivor");
        let late = p.alloc_vec_aligned::<u64>(8 * 512, "late");
        late_handle = Some(late);
        p.spawn(move |ctx| {
            ctx.migrate(1).unwrap();
            for i in 0..survivor.len() {
                survivor.set(ctx, i, i as u64 + 1);
            }
            ctx.compute_ops(16_000_000); // ~8 ms, spans the crash
            ctx.migrate_back().unwrap();
            assert_eq!(ctx.node(), NodeId(0));
        });
        p.spawn(move |ctx| {
            ctx.migrate(2).unwrap();
            // Touch a few pages on the doomed node, then compute past the
            // crash; the next fault times out and re-homes the thread.
            for i in 0..1024 {
                late.set(ctx, i, 7);
            }
            ctx.compute_ops(16_000_000); // ~8 ms, spans the crash
            for i in 0..late.len() {
                late.set(ctx, i, i as u64 * 5);
            }
            assert_eq!(ctx.node(), NodeId(0), "crashed off node 2, now home");
            ctx.migrate_back().unwrap();
        });
        p.spawn(move |ctx| {
            ctx.compute_ops(16_000_000); // wait out the crash at the origin
            match ctx.migrate(2) {
                Err(MigrateError::NodeCrashed { node }) => assert_eq!(node, NodeId(2)),
                other => panic!("migrating to a dead node returned {other:?}"),
            }
            assert_eq!(ctx.node(), NodeId(0), "failed migration leaves it home");
        });
    });
    (report, late_handle.expect("allocated"))
}

#[test]
fn node_crash_rehomes_threads_and_reclaims_pages() {
    let (report, late) = crash_workload();
    let shared = report.process();
    let counters = shared.counters();
    assert!(
        counters.get("migrations.crash_rehomed") >= 1,
        "the node-2 thread must have re-homed"
    );
    assert_eq!(counters.get("faults.crashes_handled"), 1);
    assert!(counters.get("migrations.dest_crashed") >= 1);
    // A migration counts once acknowledged: the attempt on the dead node
    // is neither a sample nor a migration.
    let forward = report.migrations.iter().filter(|m| m.forward).count() as u64;
    let backward = report.migrations.len() as u64 - forward;
    assert_eq!(report.stats.forward_migrations, forward);
    assert_eq!(report.stats.backward_migrations, backward);
    assert!(
        counters.get("faults.pages_reclaimed") >= 1,
        "node 2 owned pages when it died"
    );

    for dir in &shared.directories {
        let directory = dir.lock();
        directory
            .check_invariants()
            .expect("no dead node may linger in any owner set");
        assert!(directory.dead_nodes().contains(NodeId(2)));
    }

    // Post-crash writes were served by the origin; the data survives.
    let data = late.snapshot(&report);
    for (i, v) in data.iter().enumerate() {
        assert_eq!(*v, i as u64 * 5);
    }
}

/// Fail-stop means stopped: a thread on node 2 after its crash instant
/// writes only a page it still holds writable, so nothing on the wire
/// would stop it. Its first access must trap, re-home it and re-run the
/// write at the origin, and no snapshot may see that node's copy.
#[test]
fn a_thread_on_a_crashed_node_traps_on_its_next_access() {
    let mut plan = FaultPlan::default();
    plan.crash(2, SimTime::ZERO + SimDuration::from_millis(3));
    let cluster = Cluster::new(ClusterConfig::new(3).with_fault_plan(plan));
    let mut handle = None;
    let report = cluster.run(|p| {
        let page = p.alloc_vec_aligned::<u64>(512, "page");
        handle = Some(page);
        p.spawn(move |ctx| {
            ctx.migrate(2).unwrap();
            page.set(ctx, 0, 1); // takes the page writable on node 2
            ctx.compute_ops(16_000_000); // ~8 ms, past the crash
            page.set(ctx, 1, 2);
            assert_eq!(ctx.node(), NodeId(0), "the write trapped and re-homed");
        });
    });
    let counters = report.process().counters();
    assert_eq!(counters.get("migrations.crash_rehomed"), 1);
    let data = handle.expect("allocated").snapshot(&report);
    assert_eq!(data[0], 0, "the pre-crash write died with node 2");
    assert_eq!(data[1], 2, "the post-crash write ran at the origin");
}

#[test]
fn node_crash_recovery_is_deterministic() {
    let (first, _) = crash_workload();
    let (second, _) = crash_workload();
    assert_eq!(fingerprint(&first), fingerprint(&second));
}

/// A prefetch workload under a stalled reply link: the origin's grants
/// sit in the stall window mid-prefetch; the hint must simply wait the
/// window out (advisory, never a protocol error) and still install every
/// page.
fn stalled_prefetch_workload() -> RunReport {
    let mut plan = FaultPlan::default();
    plan.stall(
        0,
        1,
        SimTime::ZERO + SimDuration::from_micros(50),
        SimTime::ZERO + SimDuration::from_millis(3),
    );
    let cluster = Cluster::new(ClusterConfig::new(2).with_fault_plan(plan));
    cluster.run(|p| {
        let data = p.alloc_vec_aligned::<u64>(16 * 512, "stream"); // 16 pages
        p.spawn(move |ctx| {
            for i in 0..data.len() {
                data.set(ctx, i, i as u64 + 9);
            }
            ctx.migrate(1).unwrap();
            ctx.prefetch(data.addr(), (data.len() * 8) as u64, dex_core::Access::Read);
            let mut buf = vec![0u64; 512];
            for page in 0..16 {
                data.read_slice(ctx, page * 512, &mut buf);
                assert_eq!(buf[0], (page * 512) as u64 + 9);
            }
        });
    })
}

#[test]
fn prefetch_waits_out_stalled_replies() {
    let first = stalled_prefetch_workload();
    let second = stalled_prefetch_workload();
    assert_eq!(fingerprint(&first), fingerprint(&second));
    let counters = first.process().counters();
    // The VMA sync demand-faults the first page, so 15 pages are hinted.
    assert_eq!(
        counters.get("prefetch.pages") + counters.get("prefetch.denied"),
        15,
        "every hinted page resolves exactly once"
    );
    assert!(
        counters.get("prefetch.pages") >= 1,
        "stalls delay grants, they do not deny them"
    );
    assert_eq!(first.stats.read_faults, 16 - counters.get("prefetch.pages"));
}

/// The prefetching thread's own node fail-stops while its hint replies
/// are stalled in flight: the advisory path must abandon the outstanding
/// slots, re-home the thread, and let the regular fault path (now at the
/// origin) serve the data.
fn crashed_prefetch_workload() -> RunReport {
    let mut plan = FaultPlan::default();
    // Grant replies from the origin stall once the prefetch is underway
    // (migration and the first demand fault finish well before 1 ms)...
    plan.stall(
        0,
        2,
        SimTime::ZERO + SimDuration::from_millis(1),
        SimTime::ZERO + SimDuration::from_millis(6),
    );
    // ...and node 2 dies with the whole prefetch outstanding.
    plan.crash(2, SimTime::ZERO + SimDuration::from_millis(3));
    let cluster = Cluster::new(ClusterConfig::new(3).with_fault_plan(plan));
    cluster.run(|p| {
        let data = p.alloc_vec_aligned::<u64>(8 * 512, "doomed");
        p.spawn(move |ctx| {
            ctx.migrate(2).unwrap();
            // Take write ownership of the first page now, so the hint's
            // VMA sync below needs no protocol traffic of its own.
            data.set(ctx, 0, 1);
            ctx.compute_ops(3_000_000); // ~1.5 ms: into the stall window
            ctx.prefetch(
                data.addr(),
                (data.len() * 8) as u64,
                dex_core::Access::Write,
            );
            // The crash re-homed us; the fault path serves writes from
            // the origin as if the hint never happened.
            assert_eq!(ctx.node(), NodeId(0), "crashed off node 2, now home");
            for i in 0..data.len() {
                data.set(ctx, i, i as u64 * 11);
            }
        });
    })
}

#[test]
fn prefetch_survives_own_node_crash_and_rehomes() {
    let first = crashed_prefetch_workload();
    let second = crashed_prefetch_workload();
    assert_eq!(fingerprint(&first), fingerprint(&second));
    let shared = first.process();
    let counters = shared.counters();
    assert!(
        counters.get("migrations.crash_rehomed") >= 1,
        "the prefetching thread must have re-homed"
    );
    assert_eq!(
        counters.get("prefetch.denied"),
        7,
        "every outstanding hint slot is abandoned, none granted \
         (page 0 was demand-faulted before the hint)"
    );
    assert_eq!(counters.get("prefetch.pages"), 0);
    for dir in &shared.directories {
        dir.lock()
            .check_invariants()
            .expect("directory consistent after the crash");
    }
}

/// Pipelined prefetches contending for write ownership of the same
/// pages: whoever hits an open transaction is answered with a retry,
/// which the advisory path counts as a denial and leaves to first touch
/// — never a panic, never a lost page. A thread on node 1 takes the
/// whole region first; a stalled ack link from node 1 then holds every
/// revocation transaction open while nodes 2 and 3 prefetch the same
/// pages simultaneously, so one of each request pair must be denied.
fn contended_prefetch_workload() -> RunReport {
    let mut plan = FaultPlan::default();
    // The stall opens after node 1 owns the region (setup finishes near
    // 1 ms) and holds its invalidation acks — and with them every
    // revocation transaction — until 6 ms.
    plan.stall(
        1,
        0,
        SimTime::ZERO + SimDuration::from_micros(1_500),
        SimTime::ZERO + SimDuration::from_millis(6),
    );
    let cluster = Cluster::new(ClusterConfig::new(4).with_fault_plan(plan));
    cluster.run(|p| {
        let data = p.alloc_vec_aligned::<u64>(8 * 512, "contended");
        p.spawn(move |ctx| {
            ctx.migrate(1).unwrap();
            data.set(ctx, 0, 1);
            ctx.prefetch(
                data.addr(),
                (data.len() * 8) as u64,
                dex_core::Access::Write,
            );
        });
        for n in 2..=3u16 {
            p.spawn(move |ctx| {
                ctx.migrate(n).unwrap();
                data.set(ctx, 0, n as u64); // VMA + page-0 ownership
                ctx.compute_ops(6_000_000); // ~3 ms: into the stall window
                ctx.prefetch(
                    data.addr(),
                    (data.len() * 8) as u64,
                    dex_core::Access::Write,
                );
                // Disjoint halves, so the data outcome is schedule-free.
                let half = data.len() / 2;
                let base = (n as usize - 2) * half;
                for i in 0..half {
                    data.set(ctx, base + i, (base + i) as u64 + 3);
                }
            });
        }
    })
}

#[test]
fn contended_prefetch_denials_fall_back_to_faulting() {
    let first = contended_prefetch_workload();
    let second = contended_prefetch_workload();
    assert_eq!(fingerprint(&first), fingerprint(&second));
    let counters = first.process().counters();
    // Each of the three threads demand-faults page 0 up front and hints
    // the remaining 7 pages.
    assert_eq!(
        counters.get("prefetch.pages") + counters.get("prefetch.denied"),
        21,
        "every hint resolves exactly once"
    );
    assert!(
        counters.get("prefetch.denied") >= 1,
        "simultaneous write prefetches over one region must collide"
    );
    for dir in &first.process().directories {
        dir.lock()
            .check_invariants()
            .expect("directory consistent after contention");
    }
}

/// A thread waits on a futex from node 2, node 2 crashes under the wait,
/// and the thread re-homes and waits again at the origin until an origin
/// thread wakes it. The re-run is the same wait, so it counts once.
#[test]
fn a_futex_wait_cut_short_by_a_crash_counts_once() {
    let mut plan = FaultPlan::default();
    plan.crash(2, SimTime::ZERO + SimDuration::from_millis(3));
    let cluster = Cluster::new(ClusterConfig::new(3).with_fault_plan(plan));
    let report = cluster.run(|p| {
        let word = p.alloc_cell_tagged::<u32>(0, "futex.word");
        p.spawn(move |ctx| {
            ctx.migrate(2).unwrap();
            assert_eq!(ctx.futex_wait(word.addr(), 0), 0, "woken, not EAGAIN");
            assert_eq!(ctx.node(), NodeId(0), "crashed off node 2, now home");
        });
        p.spawn(move |ctx| {
            ctx.compute_ops(16_000_000); // ~8 ms, spans the crash
            word.set(ctx, 1);
            while ctx.futex_wake(word.addr(), 1) == 0 {
                ctx.compute(SimDuration::from_micros(100));
            }
        });
    });
    assert_eq!(report.stats.futex_waits, 1);
    assert_eq!(report.stats.futex_wakes, 1);
    let counters = report.process().counters();
    assert_eq!(counters.get("migrations.crash_rehomed"), 1);
}

/// Runs `setup` on a two-node cluster whose node 1 dies mid-delegation:
/// every origin→node-1 message sent from 1 ms on is held until 10 ms, and
/// node 1 crashes at 3 ms. A delegation issued from node 1 inside the
/// stall (see [`into_the_stall`]) runs at the origin, but its reply never
/// arrives: the thread re-homes and runs the op again at the origin.
fn crash_mid_delegation(setup: impl FnOnce(&dex_core::DexProcess<'_>)) -> RunReport {
    let ms = |n| SimTime::ZERO + SimDuration::from_millis(n);
    let mut plan = FaultPlan::default();
    plan.stall(0, 1, ms(1), ms(10));
    plan.crash(1, ms(3));
    let report = Cluster::new(ClusterConfig::new(2).with_fault_plan(plan)).run(setup);
    let counters = report.process().counters();
    assert_eq!(counters.get("delegations"), 1, "one remote attempt");
    assert_eq!(counters.get("migrations.crash_rehomed"), 1);
    report
}

/// Waits on node 1 until 1.5 ms: inside the stall, before the crash.
fn into_the_stall(ctx: &ThreadCtx<'_>) {
    assert_eq!(ctx.node(), NodeId(1));
    let at = SimTime::ZERO + SimDuration::from_micros(1_500);
    ctx.compute(at - ctx.sim().now());
}

/// Maps two read-write pages at the origin and reads them from node 1.
fn mapped_then_migrated(ctx: &ThreadCtx<'_>) -> VirtAddr {
    let addr = ctx.mmap(2 * PAGE_SIZE as u64, Prot::RW);
    ctx.write_u32(addr, 5);
    ctx.migrate(1).unwrap();
    assert_eq!(ctx.read_u32(addr), 5);
    addr
}

#[test]
fn a_crash_mid_mmap_still_returns_a_usable_mapping() {
    crash_mid_delegation(|p| {
        p.spawn(|ctx| {
            ctx.migrate(1).unwrap();
            into_the_stall(ctx);
            let addr = ctx.mmap(PAGE_SIZE as u64, Prot::RW);
            assert_eq!(ctx.node(), NodeId(0), "crashed off node 1, now home");
            ctx.write_u32(addr, 7);
            assert_eq!(ctx.read_u32(addr), 7);
        });
    });
}

#[test]
fn a_crash_mid_munmap_still_unmaps_at_the_origin() {
    crash_mid_delegation(|p| {
        p.spawn(|ctx| {
            let addr = mapped_then_migrated(ctx);
            into_the_stall(ctx);
            ctx.munmap(addr, 2 * PAGE_SIZE as u64);
            assert_eq!(ctx.node(), NodeId(0), "crashed off node 1, now home");
            let space = ctx.process().space(ctx.origin()).lock();
            assert!(space.vmas.find(addr).is_none(), "the origin VMA is gone");
        });
    });
}

#[test]
fn a_crash_mid_mprotect_still_downgrades_at_the_origin() {
    crash_mid_delegation(|p| {
        p.spawn(|ctx| {
            let addr = mapped_then_migrated(ctx);
            into_the_stall(ctx);
            ctx.mprotect(addr, 2 * PAGE_SIZE as u64, Prot::RO);
            assert_eq!(ctx.node(), NodeId(0), "crashed off node 1, now home");
            let space = ctx.process().space(ctx.origin()).lock();
            let vma = space.vmas.find(addr).expect("still mapped");
            assert_eq!(vma.prot, Prot::RO, "the origin VMA is downgraded");
        });
    });
}

#[test]
fn a_crash_mid_owner_query_answers_like_the_origin() {
    crash_mid_delegation(|p| {
        let data = p.alloc_vec_aligned::<u64>(512, "owned");
        p.spawn(move |ctx| {
            ctx.migrate(1).unwrap();
            data.set(ctx, 0, 1); // node 1 owns the page exclusively
            into_the_stall(ctx);
            let home = ctx.data_home(data.addr());
            assert_eq!(ctx.node(), NodeId(0), "crashed off node 1, now home");
            assert_eq!(home, ctx.data_home(data.addr()), "an origin-resident query");
            assert_eq!(home, NodeId(0), "the dead node's page was reclaimed");
        });
    });
}

#[test]
fn a_crash_mid_syscall_still_returns() {
    crash_mid_delegation(|p| {
        p.spawn(|ctx| {
            ctx.migrate(1).unwrap();
            into_the_stall(ctx);
            let t0 = ctx.sim().now();
            let busy = SimDuration::from_micros(500);
            ctx.syscall(busy);
            assert_eq!(ctx.node(), NodeId(0), "crashed off node 1, now home");
            assert!(ctx.sim().now() - t0 >= busy);
        });
    });
}

#[test]
fn a_crash_mid_futex_wake_reissues_the_wake_at_the_origin() {
    let report = crash_mid_delegation(|p| {
        let word = p.alloc_cell_tagged::<u32>(0, "futex.word");
        p.spawn(move |ctx| {
            assert_eq!(ctx.futex_wait(word.addr(), 0), 0, "woken, not EAGAIN");
        });
        p.spawn(move |ctx| {
            ctx.migrate(1).unwrap();
            into_the_stall(ctx);
            let woken = ctx.futex_wake(word.addr(), 1);
            assert_eq!(ctx.node(), NodeId(0), "crashed off node 1, now home");
            // The lost first run woke the waiter; the re-run finds none.
            assert_eq!(woken, 0);
        });
    });
    assert_eq!(report.stats.futex_waits, 1);
}
