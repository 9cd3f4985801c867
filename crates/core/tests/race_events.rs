//! Recording discipline of the race-detection instrumentation
//! (`ClusterConfig::with_race_detection`).

use dex_core::{Cluster, ClusterConfig, RaceEventKind, Tid};
use dex_sim::SimDuration;

#[test]
fn disabled_by_default_records_nothing() {
    let cluster = Cluster::new(ClusterConfig::new(2));
    let report = cluster.run(|p| {
        let cell = p.alloc_cell_tagged::<u32>(0, "c");
        p.spawn(move |ctx| {
            cell.set(ctx, 7);
        });
    });
    assert!(report.race_events.is_empty());
}

#[test]
fn mutex_sections_emit_semantic_events_and_suppress_word_traffic() {
    let cluster = Cluster::new(ClusterConfig::new(2).with_race_detection());
    let report = cluster.run(|p| {
        let mutex = p.new_mutex("m");
        let cell = p.alloc_cell_tagged::<u64>(0, "counter");
        for i in 0..2u16 {
            p.spawn(move |ctx| {
                ctx.migrate(i).unwrap();
                mutex.lock(ctx);
                let v = cell.get(ctx);
                cell.set(ctx, v + 1);
                mutex.unlock(ctx);
            });
        }
    });
    let word = {
        // Recover the lock word from the recorded events themselves.
        report
            .race_events
            .iter()
            .find_map(|e| match e.kind {
                RaceEventKind::LockAcquire { lock } => Some(lock),
                _ => None,
            })
            .expect("lock acquisitions recorded")
    };
    let acquires = report
        .race_events
        .iter()
        .filter(|e| matches!(e.kind, RaceEventKind::LockAcquire { .. }))
        .count();
    let releases = report
        .race_events
        .iter()
        .filter(|e| matches!(e.kind, RaceEventKind::LockRelease { .. }))
        .count();
    assert_eq!(acquires, 2);
    assert_eq!(releases, 2);
    // No raw access to the futex word itself may appear: the primitive's
    // internal CAS/swap traffic is suppressed.
    for e in &report.race_events {
        if let RaceEventKind::Access { addr, len, .. } = e.kind {
            let end = addr.as_u64() + len as u64;
            assert!(
                word.as_u64() >= end || word.as_u64() + 4 <= addr.as_u64(),
                "raw access overlapping the lock word leaked into the trace: {e:?}"
            );
        }
    }
    // The counter accesses themselves are recorded (get is a plain read,
    // set a plain write).
    let accesses = report
        .race_events
        .iter()
        .filter(|e| matches!(e.kind, RaceEventKind::Access { .. }))
        .count();
    assert!(accesses >= 4, "counter accesses recorded: {accesses}");
}

#[test]
fn barrier_rounds_and_spawns_are_recorded() {
    let cluster = Cluster::new(ClusterConfig::new(2).with_race_detection());
    let report = cluster.run(|p| {
        let barrier = p.new_barrier(2, "b");
        p.spawn(move |ctx| {
            let peer = ctx.spawn_thread("peer", move |ctx2| {
                ctx2.migrate(1).unwrap();
                barrier.wait(ctx2);
            });
            barrier.wait(ctx);
            peer.join(ctx);
        });
    });
    let enters = report
        .race_events
        .iter()
        .filter(|e| matches!(e.kind, RaceEventKind::BarrierEnter { generation: 0, .. }))
        .count();
    let leaves = report
        .race_events
        .iter()
        .filter(|e| matches!(e.kind, RaceEventKind::BarrierLeave { generation: 0, .. }))
        .count();
    assert_eq!(enters, 2);
    assert_eq!(leaves, 2);
    assert!(report
        .race_events
        .iter()
        .any(|e| matches!(e.kind, RaceEventKind::Spawn { .. })));
}

#[test]
fn atomic_rmw_accesses_are_flagged_atomic() {
    let cluster = Cluster::new(ClusterConfig::new(1).with_race_detection());
    let report = cluster.run(|p| {
        let cell = p.alloc_cell_tagged::<u32>(0, "c");
        p.spawn(move |ctx| {
            cell.rmw(ctx, |v| v + 1);
        });
    });
    assert!(report.race_events.iter().any(|e| matches!(
        e.kind,
        RaceEventKind::Access {
            atomic: true,
            is_write: true,
            ..
        }
    )));
}

#[test]
fn a_wait_return_names_the_thread_whose_wake_woke_it() {
    let cluster = Cluster::new(ClusterConfig::new(2).with_race_detection());
    let report = cluster.run(|p| {
        let m = p.new_mutex("m");
        let (cv, cv2) = (p.new_condvar("cv"), p.new_condvar("cv2"));
        // tid-0 waits at the origin and tid-1 wakes it from node 1 (the
        // wake is delegated to tid-1's original thread); tid-2 waits on
        // node 1 and tid-3 wakes it from the origin.
        let wait = move |ctx: &dex_core::ThreadCtx<'_>, cv: dex_core::DexCondvar, node| {
            ctx.migrate(node).unwrap();
            m.lock(ctx);
            cv.wait(ctx, &m);
            m.unlock(ctx);
        };
        let wake = move |ctx: &dex_core::ThreadCtx<'_>, cv: dex_core::DexCondvar, node| {
            ctx.migrate(node).unwrap();
            // Long enough for the waiter to be asleep (no predicate here).
            ctx.compute(SimDuration::from_millis(10));
            cv.notify_one(ctx);
        };
        p.spawn(move |ctx| wait(ctx, cv, 0));
        p.spawn(move |ctx| wake(ctx, cv, 1));
        p.spawn(move |ctx| wait(ctx, cv2, 1));
        p.spawn(move |ctx| wake(ctx, cv2, 0));
    });
    let mut returns: Vec<(Tid, Tid)> = report
        .race_events
        .iter()
        .filter_map(|e| match e.kind {
            RaceEventKind::FutexWaitReturn { waker, .. } => Some((e.task, waker)),
            _ => None,
        })
        .collect();
    returns.sort_by_key(|(t, _)| t.0);
    assert_eq!(returns, [(Tid(0), Tid(1)), (Tid(2), Tid(3))]);
}

#[test]
fn multi_page_slices_record_their_first_eight_bytes() {
    // A `u32` slice starting one element before a page boundary: its first
    // eight bytes come from two pages, and from a remote node the second
    // one faults between them. A `[f64; 3]` slice whose first element
    // straddles the boundary records that element's first eight bytes.
    let cluster = Cluster::new(ClusterConfig::new(2).with_race_detection());
    let report = cluster.run(|p| {
        let words = p.alloc_vec_aligned::<u32>(2048, "words");
        let points = p.alloc_vec_aligned::<[f64; 3]>(512, "points");
        p.spawn(move |ctx| {
            ctx.migrate(1).unwrap();
            ctx.set_site("words");
            let fresh = [0x1111_1111, 0x2222_2222, 0x3333_3333];
            words.write_slice(ctx, 1023, &fresh);
            let mut back = [0u32; 3];
            words.read_slice(ctx, 1023, &mut back);
            assert_eq!(back, fresh);
            ctx.set_site("points");
            points.write_slice(ctx, 170, &[[1.5, 2.5, 3.5], [4.5, 5.5, 6.5]]);
            let mut out = [[0.0; 3]; 2];
            points.read_slice(ctx, 170, &mut out);
            assert_eq!(out[1], [4.5, 5.5, 6.5]);
        });
    });
    let accesses: Vec<(&str, bool, u32, u64)> = report
        .race_events
        .iter()
        .filter_map(|e| match e.kind {
            RaceEventKind::Access {
                len,
                is_write,
                value,
                ..
            } => Some((e.site, is_write, len, value)),
            _ => None,
        })
        .collect();
    assert_eq!(
        accesses,
        vec![
            ("words", true, 12, 0x2222_2222_1111_1111),
            ("words", false, 12, 0x2222_2222_1111_1111),
            ("points", true, 48, 1.5f64.to_bits()),
            ("points", false, 48, 1.5f64.to_bits()),
        ]
    );
}
