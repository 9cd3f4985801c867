//! End-to-end protocol tests: correctness of the consistency protocol,
//! migration timing, delegation, and synchronization across nodes.

use dex_core::{Cluster, ClusterConfig, DexStats, NodeId, SpanKind};
use dex_sim::SimDuration;

fn two_nodes() -> Cluster {
    Cluster::new(ClusterConfig::new(2))
}

#[test]
fn single_node_run_needs_no_protocol() {
    let cluster = Cluster::new(ClusterConfig::new(1));
    let mut cell = None;
    let report = cluster.run(|p| {
        let c = p.alloc_cell::<u64>(7);
        cell = Some(c);
        p.spawn(move |ctx| {
            let v = c.get(ctx);
            c.set(ctx, v + 1);
        });
    });
    assert_eq!(cell.unwrap().snapshot(&report), 8);
    assert_eq!(report.stats.total_faults(), 0, "origin owns everything");
    assert_eq!(report.stats.msgs_sent, 0);
}

#[test]
fn remote_write_roundtrips_data() {
    let cluster = two_nodes();
    let mut handle = None;
    let report = cluster.run(|p| {
        let v = p.alloc_vec::<u64>(2048, "data"); // spans 4 pages
        handle = Some(v);
        p.spawn(move |ctx| {
            ctx.migrate(1).unwrap();
            for i in 0..v.len() {
                v.set(ctx, i, (i as u64).wrapping_mul(2654435761));
            }
        });
    });
    let data = handle.unwrap().snapshot(&report);
    for (i, v) in data.iter().enumerate() {
        assert_eq!(*v, (i as u64).wrapping_mul(2654435761));
    }
    assert!(report.stats.write_faults >= 4, "one fault per page");
}

#[test]
fn read_replication_then_write_invalidation() {
    // Thread A on node 1 reads a page; thread B on node 2 then writes it;
    // A's subsequent read must observe B's value.
    let cluster = Cluster::new(ClusterConfig::new(3));
    let report = cluster.run(|p| {
        let cell = p.alloc_cell_tagged::<u64>(100, "shared");
        let barrier = p.new_barrier(2, "sync");
        p.spawn(move |ctx| {
            ctx.migrate(1).unwrap();
            assert_eq!(cell.get(ctx), 100); // replicate read copy
            barrier.wait(ctx);
            barrier.wait(ctx);
            // After B's write our copy must have been invalidated.
            assert_eq!(cell.get(ctx), 777);
        });
        p.spawn(move |ctx| {
            ctx.migrate(2).unwrap();
            barrier.wait(ctx);
            cell.set(ctx, 777); // revokes node 1's read copy
            barrier.wait(ctx);
        });
    });
    assert!(report.stats.invalidations >= 1);
}

#[test]
fn write_write_pingpong_counts_faults_and_invalidations() {
    let cluster = two_nodes();
    let rounds = 50u64;
    let mut cell = None;
    let report = cluster.run(|p| {
        let c = p.alloc_cell_tagged::<u64>(0, "pingpong");
        cell = Some(c);
        let barrier = p.new_barrier(2, "turns");
        for node in 0..2u16 {
            p.spawn(move |ctx| {
                ctx.migrate(node).unwrap();
                for _ in 0..rounds {
                    c.rmw(ctx, |v| v + 1);
                    barrier.wait(ctx);
                }
            });
        }
    });
    assert_eq!(cell.unwrap().snapshot(&report), rounds * 2);
    // Every round transfers page ownership at least once: whichever
    // thread updates second must fault.
    assert!(
        report.stats.write_faults >= rounds,
        "write faults: {}",
        report.stats.write_faults
    );
    assert!(
        report.stats.invalidations >= rounds / 2,
        "invalidations: {}",
        report.stats.invalidations
    );
}

#[test]
fn mutex_protects_cross_node_counter() {
    let cluster = Cluster::new(ClusterConfig::new(4));
    let increments = 25u64;
    let mut cell = None;
    let report = cluster.run(|p| {
        let c = p.alloc_cell_tagged::<u64>(0, "counter");
        cell = Some(c);
        let mutex = p.new_mutex("lock");
        for node in 0..4u16 {
            p.spawn(move |ctx| {
                ctx.migrate(node).unwrap();
                for _ in 0..increments {
                    mutex.lock(ctx);
                    let v = c.get(ctx);
                    ctx.compute_ops(40_000); // ~20 µs critical section
                    c.set(ctx, v + 1);
                    mutex.unlock(ctx);
                }
            });
        }
    });
    assert_eq!(cell.unwrap().snapshot(&report), 4 * increments);
    let s: DexStats = report.stats;
    assert!(s.futex_waits + s.futex_wakes > 0, "contention used futexes");
}

#[test]
fn barrier_releases_all_parties_each_round() {
    let cluster = Cluster::new(ClusterConfig::new(4));
    let mut progress = None;
    let report = cluster.run(|p| {
        let counts = p.alloc_vec_aligned::<u64>(4, "progress");
        progress = Some(counts);
        let barrier = p.new_barrier(4, "rounds");
        for t in 0..4u16 {
            p.spawn(move |ctx| {
                ctx.migrate(t).unwrap();
                for round in 0..10u64 {
                    counts.set(ctx, t as usize, round + 1);
                    barrier.wait(ctx);
                    // Everyone must observe everyone's progress.
                    for peer in 0..4 {
                        assert_eq!(counts.get(ctx, peer), round + 1);
                    }
                    barrier.wait(ctx);
                }
            });
        }
    });
    let final_counts = progress.unwrap().snapshot(&report);
    assert_eq!(final_counts, vec![10, 10, 10, 10]);
}

#[test]
fn leader_follower_coalesces_same_page_faults() {
    // 8 threads on one remote node read the same fresh page at the same
    // time: one leader performs the protocol, 7 ride along.
    let cluster = two_nodes();
    let report = cluster.run(|p| {
        let v = p.alloc_vec::<u64>(8, "hot");
        let barrier = p.new_barrier(8, "go");
        for t in 0..8 {
            p.spawn(move |ctx| {
                ctx.migrate(1).unwrap();
                barrier.wait(ctx);
                let _ = v.get(ctx, t % 8);
            });
        }
    });
    assert!(
        report.stats.coalesced_faults >= 4,
        "coalesced: {} (stats {:?})",
        report.stats.coalesced_faults,
        report.stats
    );
}

#[test]
fn migration_latencies_match_table_two() {
    let cluster = two_nodes();
    let report = cluster.run(|p| {
        p.spawn(|ctx| {
            for _ in 0..3 {
                ctx.migrate(1).unwrap();
                ctx.migrate_back().unwrap();
            }
        });
    });
    let fwd: Vec<_> = report.migrations.iter().filter(|m| m.forward).collect();
    let bwd: Vec<_> = report.migrations.iter().filter(|m| !m.forward).collect();
    assert_eq!(fwd.len(), 3);
    assert_eq!(bwd.len(), 3);

    // First forward migration: ~812 µs total, remote side 800 µs.
    assert!(fwd[0].first_on_node);
    assert_eq!(fwd[0].remote_side, SimDuration::from_micros(800));
    let t0 = fwd[0].total.as_micros_f64();
    assert!((805.0..835.0).contains(&t0), "first forward total {t0} µs");

    // Second forward migration: ~237 µs total, remote side 230 µs.
    assert!(!fwd[1].first_on_node);
    assert_eq!(fwd[1].remote_side, SimDuration::from_micros(230));
    let t1 = fwd[1].total.as_micros_f64();
    assert!((232.0..260.0).contains(&t1), "second forward total {t1} µs");

    // Backward migrations: ~25 µs.
    for b in &bwd {
        let t = b.total.as_micros_f64();
        assert!((23.0..32.0).contains(&t), "backward total {t} µs");
    }
}

#[test]
fn remote_worker_created_once_per_node() {
    let cluster = Cluster::new(ClusterConfig::new(3));
    let report = cluster.run(|p| {
        // Two threads to node 1, one to node 2, with repeats.
        for (t, node) in [(0u16, 1u16), (1, 1), (2, 2)] {
            let _ = t;
            p.spawn(move |ctx| {
                ctx.migrate(node).unwrap();
                ctx.migrate_back().unwrap();
                ctx.migrate(node).unwrap();
            });
        }
    });
    let firsts = report
        .migrations
        .iter()
        .filter(|m| m.forward && m.first_on_node)
        .count();
    assert_eq!(firsts, 2, "one remote-worker creation per node");
}

#[test]
fn delegation_services_syscalls_at_origin() {
    let cluster = two_nodes();
    let report = cluster.run(|p| {
        p.spawn(|ctx| {
            ctx.migrate(1).unwrap();
            ctx.syscall(SimDuration::from_micros(50));
            ctx.syscall(SimDuration::from_micros(50));
        });
    });
    assert_eq!(report.stats.delegations, 2);
}

#[test]
fn vma_sync_pulls_mappings_on_demand() {
    let cluster = two_nodes();
    let report = cluster.run(|p| {
        let v = p.alloc_vec::<u64>(4, "lazy");
        p.spawn(move |ctx| {
            ctx.migrate(1).unwrap();
            // First touch on the remote node misses the VMA and pulls it.
            v.set(ctx, 0, 9);
            assert_eq!(v.get(ctx, 0), 9);
        });
    });
    assert!(report.stats.vma_syncs >= 1);
}

#[test]
fn munmap_broadcasts_and_invalidates_remote_state() {
    let cluster = two_nodes();
    let report = cluster.run(|p| {
        p.spawn(move |ctx| {
            let addr = ctx.mmap(4096, dex_core::Prot::RW);
            ctx.write_bytes(addr, &[1, 2, 3]);
            let t = ctx.spawn_thread("toucher", move |ctx| {
                ctx.migrate(1).unwrap();
                let mut buf = [0u8; 3];
                ctx.read_bytes(addr, &mut buf);
                assert_eq!(buf, [1, 2, 3]);
            });
            t.join(ctx);
            ctx.munmap(addr, 4096);
        });
    });
    assert!(report.stats.vma_broadcasts >= 1);
}

#[test]
#[should_panic(expected = "segmentation fault")]
fn illegal_remote_access_terminates_thread() {
    let cluster = two_nodes();
    let _ = cluster.run(|p| {
        p.spawn(|ctx| {
            ctx.migrate(1).unwrap();
            let mut buf = [0u8; 4];
            // Far outside any mapping.
            ctx.read_bytes(dex_core::VirtAddr::new(0xdead_0000_0000), &mut buf);
        });
    });
}

#[test]
fn migrate_to_unknown_node_errors() {
    let cluster = two_nodes();
    cluster.run(|p| {
        p.spawn(|ctx| {
            let err = ctx.migrate(NodeId(9)).unwrap_err();
            assert!(matches!(err, dex_core::MigrateError::NoSuchNode { .. }));
            assert_eq!(ctx.node(), NodeId(0), "thread did not move");
        });
    });
}

#[test]
fn trace_records_six_tuples_when_enabled() {
    // The fault span is the §IV-A record: time, node, task, kind, code
    // site, address, plus the object tag.
    let cluster = Cluster::new(ClusterConfig::new(2).with_spans());
    let mut cell = None;
    let report = cluster.run(|p| {
        let c = p.alloc_cell_tagged::<u64>(0, "hot_counter");
        cell = Some(c);
        p.spawn(move |ctx| {
            ctx.set_site("test.write_loop");
            ctx.migrate(1).unwrap();
            c.set(ctx, 1);
        });
    });
    let addr = cell.expect("allocated").addr();
    let writes: Vec<_> = report
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Fault && s.label == "write_fault")
        .filter(|s| s.site == "test.write_loop")
        .collect();
    assert!(!writes.is_empty(), "spans: {:?}", report.spans);
    assert_eq!(writes[0].node, NodeId(1));
    assert_eq!(writes[0].addr, Some(addr));
    assert_eq!(writes[0].tag, Some("hot_counter"));
}

#[test]
fn retry_path_produces_slow_mode_faults() {
    // Three remote nodes hammer the same page with writes: a request that
    // arrives while another node's revocation transaction is in flight is
    // refused with a retry (§V-D's 158.8 µs mode).
    let cluster = Cluster::new(ClusterConfig::new(4));
    let report = cluster.run(|p| {
        let c = p.alloc_cell_tagged::<u64>(0, "contended");
        for node in 1..4u16 {
            p.spawn(move |ctx| {
                ctx.migrate(node).unwrap();
                for _ in 0..200 {
                    c.rmw(ctx, |v| v + 1);
                }
            });
        }
    });
    assert!(
        report.stats.retried_faults > 0,
        "expected retries under write-write contention: {:?}",
        report.stats
    );
    // The fault histogram is bimodal: fast grants vs. backoff retries.
    let (fast, fast_mean, slow, slow_mean) =
        report.fault_hist.split_at(SimDuration::from_micros(60));
    assert!(fast > 0 && slow > 0, "fast {fast} slow {slow}");
    assert!(fast_mean < SimDuration::from_micros(40));
    assert!(slow_mean > SimDuration::from_micros(100), "{slow_mean}");
}

#[test]
fn deterministic_virtual_time_across_runs() {
    fn run_once() -> (u64, DexStats) {
        let cluster = Cluster::new(ClusterConfig::new(4));
        let report = cluster.run(|p| {
            let v = p.alloc_vec::<u64>(1024, "data");
            let barrier = p.new_barrier(4, "b");
            for t in 0..4u16 {
                p.spawn(move |ctx| {
                    ctx.migrate(t).unwrap();
                    barrier.wait(ctx);
                    for i in (t as usize * 256)..((t as usize + 1) * 256) {
                        v.set(ctx, i, i as u64);
                    }
                    barrier.wait(ctx);
                });
            }
        });
        (report.virtual_time.as_nanos(), report.stats)
    }
    let (t1, s1) = run_once();
    let (t2, s2) = run_once();
    assert_eq!(t1, t2, "virtual time must be deterministic");
    assert_eq!(s1, s2, "protocol statistics must be deterministic");
}

#[test]
fn migrate_to_data_follows_the_writer() {
    let cluster = Cluster::new(ClusterConfig::new(3));
    let report = cluster.run(|p| {
        // The cell gets its own page: the barrier words must not share it
        // (they would drag ownership to whoever synchronizes last).
        let cell = p.alloc_cell_aligned::<u64>(0, "hot_data");
        let ready = p.new_barrier(2, "ready");
        p.spawn(move |ctx| {
            ctx.migrate(2).unwrap();
            cell.set(ctx, 41); // node 2 becomes the exclusive writer
            ready.wait(ctx);
            ready.wait(ctx);
        });
        p.spawn(move |ctx| {
            ctx.migrate(1).unwrap();
            ready.wait(ctx);
            // Follow the data instead of pulling the page.
            let dest = ctx.migrate_to_data(cell.addr()).unwrap();
            assert_eq!(dest, NodeId(2));
            assert_eq!(ctx.node(), NodeId(2));
            // The read is now node-local: no new protocol fault.
            let before = ctx.process().counters().get("faults.read");
            assert_eq!(cell.get(ctx), 41);
            let after = ctx.process().counters().get("faults.read");
            assert_eq!(before, after, "access after relocation must be local");
            ready.wait(ctx);
        });
    });
    assert!(report.stats.delegations >= 1, "remote query was delegated");
}

#[test]
fn migrate_least_loaded_spreads_threads() {
    let cluster = Cluster::new(ClusterConfig::new(4));
    let seen = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
    let seen2 = std::sync::Arc::clone(&seen);
    cluster.run(move |p| {
        // Threads start staggered so each sees the loads left by the
        // previous ones; the policy should spread them over empty nodes.
        for i in 0..3 {
            let seen = std::sync::Arc::clone(&seen2);
            p.spawn(move |ctx| {
                ctx.compute_ops(i * 4_000_000); // stagger arrivals by ~2 ms
                let dest = ctx.migrate_least_loaded().unwrap();
                seen.lock().push(dest);
                ctx.compute_ops(40_000_000); // stay busy (~20 ms)
            });
        }
    });
    let mut nodes = seen.lock().clone();
    nodes.sort();
    nodes.dedup();
    assert_eq!(
        nodes.len(),
        3,
        "three threads spread to three nodes: {nodes:?}"
    );
}

#[test]
fn prefetch_amortizes_fault_round_trips() {
    fn run(prefetch: bool) -> (u64, dex_sim::SimDuration) {
        let cluster = Cluster::new(ClusterConfig::new(2));
        let report = cluster.run(|p| {
            let data = p.alloc_vec::<u64>(64 * 512, "stream"); // 64 pages
            p.spawn(move |ctx| {
                ctx.migrate(1).unwrap();
                let t0 = ctx.sim().now();
                if prefetch {
                    ctx.prefetch(data.addr(), (data.len() * 8) as u64, dex_core::Access::Read);
                }
                let mut buf = vec![0u64; 512];
                for page in 0..64 {
                    data.read_slice(ctx, page * 512, &mut buf);
                }
                let _ = t0;
            });
        });
        (report.stats.read_faults, report.virtual_time)
    }
    let (faults_demand, t_demand) = run(false);
    let (faults_prefetch, t_prefetch) = run(true);
    assert_eq!(faults_demand, 64, "demand paging faults once per page");
    assert!(
        faults_prefetch < 8,
        "prefetched pages must not fault: {faults_prefetch}"
    );
    assert!(
        t_prefetch < t_demand,
        "pipelined prefetch beats one-at-a-time faults: {t_prefetch} vs {t_demand}"
    );
}

#[test]
fn rwlock_allows_concurrent_readers_excludes_writers() {
    let cluster = Cluster::new(ClusterConfig::new(3));
    let mut log_handle = None;
    let report = cluster.run(|p| {
        let lock = p.new_rwlock("shared_lock");
        let value = p.alloc_cell_aligned::<u64>(0, "guarded");
        let log = p.alloc_vec_aligned::<u64>(8, "reader_observations");
        log_handle = Some(log);
        // A writer bumps the value 20 times under the write lock.
        p.spawn(move |ctx| {
            ctx.migrate(1).unwrap();
            for _ in 0..20 {
                lock.write_lock(ctx);
                let v = value.get(ctx);
                ctx.compute_ops(20_000); // hold the lock ~10 us
                value.set(ctx, v + 1);
                lock.write_unlock(ctx);
                ctx.compute_ops(10_000);
            }
        });
        // Readers on two nodes observe monotone values, never mid-update.
        for (slot, node) in [(0usize, 0u16), (1, 2)] {
            p.spawn(move |ctx| {
                ctx.migrate(node).unwrap();
                let mut last = 0u64;
                for _ in 0..30 {
                    lock.with_read(ctx, || ());
                    lock.read_lock(ctx);
                    let observed = value.get(ctx);
                    lock.read_unlock(ctx);
                    assert!(observed >= last, "reads must be monotone");
                    assert!(observed <= 20);
                    last = observed;
                    ctx.compute_ops(8_000);
                }
                log.set(ctx, slot, last);
            });
        }
    });
    let finals = log_handle.unwrap().snapshot(&report);
    assert!(finals[0] <= 20 && finals[1] <= 20);
}

#[test]
fn matrix_rows_roundtrip_and_align() {
    let cluster = Cluster::new(ClusterConfig::new(2));
    let mut handle = None;
    let report = cluster.run(|p| {
        let m = p.alloc_matrix_row_aligned::<u64>(4, 100, "grid");
        handle = Some(m);
        // Row-aligned: different rows never share a page.
        assert_ne!(m.addr_of(0, 99).vpn(), m.addr_of(1, 0).vpn());
        m.init(p, &(0..400).map(|i| i as u64).collect::<Vec<_>>());
        p.spawn(move |ctx| {
            ctx.migrate(1).unwrap();
            let mut row = vec![0u64; 100];
            m.read_row(ctx, 2, &mut row);
            assert_eq!(row[0], 200);
            for v in row.iter_mut() {
                *v *= 3;
            }
            m.write_row(ctx, 2, &row);
            assert_eq!(m.get(ctx, 2, 50), 750);
            m.set(ctx, 3, 0, 9999);
        });
    });
    let snap = handle.unwrap().snapshot(&report);
    assert_eq!(snap[2 * 100], 600);
    assert_eq!(snap[3 * 100], 9999);
    assert_eq!(snap[0], 0);
}

#[test]
fn multiple_processes_are_isolated() {
    // Two processes with different origins share the rack; their address
    // spaces, directories, and futexes must not interact.
    let cluster = Cluster::new(ClusterConfig::new(4));
    let mut cells = Vec::new();
    let reports = cluster.run_multi(|cl| {
        for (origin, target, value) in [(0u16, 2u16, 111u64), (3, 1, 222)] {
            let p = cl.create_process(NodeId(origin));
            let cell = p.alloc_cell_tagged::<u64>(0, "private");
            cells.push((cell, value));
            let mutex = p.new_mutex("private_lock");
            p.spawn(move |ctx| {
                assert_eq!(ctx.origin(), NodeId(origin));
                ctx.migrate(target).unwrap();
                mutex.lock(ctx);
                cell.set(ctx, value);
                mutex.unlock(ctx);
                ctx.migrate_back().unwrap();
            });
        }
    });
    assert_eq!(reports.len(), 2);
    for ((cell, value), report) in cells.iter().zip(&reports) {
        assert_eq!(cell.snapshot(report), *value);
        assert_eq!(report.stats.forward_migrations, 1);
    }
    // Same heap layout in both processes, yet no cross-talk: the two
    // cells share a virtual address but live in different processes.
    assert_eq!(cells[0].0.addr(), cells[1].0.addr());
}

#[test]
fn process_origin_need_not_be_node_zero() {
    let cluster = Cluster::new(ClusterConfig::new(3));
    let reports = cluster.run_multi(|cl| {
        let p = cl.create_process(NodeId(2));
        let data = p.alloc_vec::<u64>(512, "data");
        p.spawn(move |ctx| {
            assert_eq!(ctx.node(), NodeId(2), "threads start at the origin");
            ctx.migrate(0).unwrap(); // node 0 is remote for this process
            for i in 0..data.len() {
                data.set(ctx, i, i as u64);
            }
        });
    });
    assert!(reports[0].stats.write_faults >= 1);
    assert_eq!(reports[0].stats.forward_migrations, 1);
}

#[test]
fn condvar_wakes_waiters() {
    let cluster = two_nodes();
    let mut result = None;
    let report = cluster.run(|p| {
        let flag = p.alloc_cell_tagged::<u32>(0, "ready");
        let value = p.alloc_cell_tagged::<u64>(0, "value");
        result = Some(value);
        let mutex = p.new_mutex("m");
        let cv = p.new_condvar("cv");
        p.spawn(move |ctx| {
            ctx.migrate(1).unwrap();
            mutex.lock(ctx);
            while flag.get(ctx) == 0 {
                cv.wait(ctx, &mutex);
            }
            value.set(ctx, 42);
            mutex.unlock(ctx);
        });
        p.spawn(move |ctx| {
            ctx.compute_ops(10_000); // let the waiter block first
            mutex.lock(ctx);
            flag.set(ctx, 1);
            cv.notify_all(ctx);
            mutex.unlock(ctx);
        });
    });
    assert_eq!(result.unwrap().snapshot(&report), 42);
}

#[test]
fn degenerate_read_grant_keeps_the_writers_mapping_writable() {
    // Same node, one page: a write leader and, 8 µs later (inside the
    // write's round trip), a read leader — different access classes do not
    // coalesce. The home answers the write first, so the read gets the
    // degenerate "requester is the writer" grant. That grant used to
    // demote the mapping to read-only while the directory went on
    // recording the node as writer — the state the model's owner-set/PTE
    // agreement invariant forbids.
    let observed = std::sync::Arc::new(std::sync::Mutex::new(None));
    let seen = std::sync::Arc::clone(&observed);
    let start_at = |ctx: &dex_core::ThreadCtx<'_>, us| {
        ctx.migrate(1).unwrap();
        let start = dex_sim::SimTime::ZERO + SimDuration::from_micros(us);
        ctx.compute(start - ctx.sim().now());
    };
    let report = two_nodes().run(|p| {
        let cell = p.alloc_cell_aligned::<u64>(1, "x");
        p.spawn(move |ctx| {
            start_at(ctx, 2_000);
            cell.set(ctx, 2);
        });
        p.spawn(move |ctx| {
            start_at(ctx, 2_008);
            let _ = cell.get(ctx);
            let vpn = cell.addr().vpn();
            let shared = ctx.process();
            let writer = shared.directory_for(vpn).lock().current_writer(vpn);
            let pte = shared.space(NodeId(1)).lock().page_table.entry(vpn);
            *seen.lock().unwrap() = Some((writer, pte.writable));
        });
    });
    assert_eq!(report.stats.write_faults, 1);
    assert_eq!(
        report.stats.read_faults, 1,
        "the read led a fault of its own"
    );
    let (writer, writable) = observed.lock().unwrap().expect("reader ran");
    assert_eq!(writer, Some(NodeId(1)), "the write was granted first");
    assert!(
        writable,
        "the directory's writer must still map the page writable"
    );
}
