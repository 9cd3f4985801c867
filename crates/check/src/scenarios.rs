//! Built-in workloads for `dex-check races`.
//!
//! Each scenario runs a small cluster with race-event recording enabled
//! and returns the event stream for [`crate::analyze_races`], together
//! with the expected verdict. The clean scenarios (`kmeans`, `sort`,
//! `kmn-app`) follow the paper's synchronization discipline — partition
//! privately, merge under a mutex, phase with barriers — and must report
//! zero violations. The dirty fixtures (`racy`, `lock-order`,
//! `notify-nobody`) seed a data race, a lock-order inversion, and a data
//! race that a notify which woke nobody must not hide, validating that
//! the detector has teeth.

use dex_apps::{run_app, AppParams, Variant};
use dex_core::{Cluster, ClusterConfig, RaceEvent};
use dex_sim::SimDuration;

/// Description of one built-in scenario.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    /// CLI name.
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Whether the analysis must find nothing.
    pub expect_clean: bool,
}

/// All built-in scenarios.
pub const SCENARIOS: [Scenario; 6] = [
    Scenario {
        name: "kmeans",
        description: "reduced k-means: private staging, mutex merge, barrier phases (clean)",
        expect_clean: true,
    },
    Scenario {
        name: "sort",
        description: "parallel sort: disjoint partitions, barrier, serial merge (clean)",
        expect_clean: true,
    },
    Scenario {
        name: "kmn-app",
        description: "the full KMN application at test scale, optimized variant (clean)",
        expect_clean: true,
    },
    Scenario {
        name: "racy",
        description: "two nodes increment a shared counter with no lock (1+ data race)",
        expect_clean: false,
    },
    Scenario {
        name: "lock-order",
        description: "two mutexes acquired in opposite nest orders (deadlock potential)",
        expect_clean: false,
    },
    Scenario {
        name: "notify-nobody",
        description: "a write, then a notify that wakes nobody; another thread's notify wakes the reader (1 data race)",
        expect_clean: false,
    },
];

/// The CLI names of every built-in scenario.
pub fn scenario_names() -> Vec<&'static str> {
    SCENARIOS.iter().map(|s| s.name).collect()
}

/// Runs the named scenario, returning its descriptor and recorded
/// events. `None` for an unknown name.
pub fn run_scenario(name: &str) -> Option<(Scenario, Vec<RaceEvent>)> {
    let scenario = *SCENARIOS.iter().find(|s| s.name == name)?;
    let events = match name {
        "kmeans" => kmeans_events(),
        "sort" => sort_events(),
        "kmn-app" => kmn_app_events(),
        "racy" => racy_events(),
        "lock-order" => lock_order_events(),
        "notify-nobody" => notify_nobody_events(),
        _ => unreachable!("scenario table covers all names"),
    };
    Some((scenario, events))
}

/// Reduced k-means mirroring the optimized KMN port: each worker scans
/// its own partition, stages sums locally, merges once per iteration
/// under a mutex, and phases with barriers. The serial barrier thread
/// recomputes centroids between iterations.
fn kmeans_events() -> Vec<RaceEvent> {
    const WORKERS: usize = 4;
    const NODES: usize = 2;
    const POINTS: usize = 64;
    const K: usize = 4;
    const ITERS: usize = 2;

    let cluster = Cluster::new(ClusterConfig::new(NODES).with_race_detection());
    let report = cluster.run(|p| {
        let points = p.alloc_vec_aligned::<u64>(POINTS, "points");
        let centroids = p.alloc_vec_aligned::<u64>(K, "centroids");
        let sums = p.alloc_vec_aligned::<u64>(K, "sums");
        let counts = p.alloc_vec_aligned::<u64>(K, "counts");
        points.init(
            p,
            &(0..POINTS as u64).map(|i| i * 7 % 101).collect::<Vec<_>>(),
        );
        centroids.init(p, &(0..K as u64).map(|c| c * 25).collect::<Vec<_>>());
        sums.init(p, &[0; K]);
        counts.init(p, &[0; K]);
        let merge = p.new_mutex("kmeans.merge");
        let barrier = p.new_barrier(WORKERS as u32, "kmeans.barrier");
        let chunk = POINTS / WORKERS;
        for w in 0..WORKERS {
            p.spawn(move |ctx| {
                ctx.migrate((w % NODES) as u16).unwrap();
                for _ in 0..ITERS {
                    ctx.set_site("kmeans.assign");
                    let mut local_sum = [0u64; K];
                    let mut local_count = [0u64; K];
                    for i in w * chunk..(w + 1) * chunk {
                        let x = points.get(ctx, i);
                        let mut best = 0usize;
                        let mut best_d = u64::MAX;
                        for c in 0..K {
                            let d = x.abs_diff(centroids.get(ctx, c));
                            if d < best_d {
                                best_d = d;
                                best = c;
                            }
                        }
                        local_sum[best] += x;
                        local_count[best] += 1;
                    }
                    ctx.set_site("kmeans.merge");
                    merge.with(ctx, || {
                        for c in 0..K {
                            let s = sums.get(ctx, c);
                            sums.set(ctx, c, s + local_sum[c]);
                            let n = counts.get(ctx, c);
                            counts.set(ctx, c, n + local_count[c]);
                        }
                    });
                    ctx.set_site("kmeans.recompute");
                    if barrier.wait(ctx) {
                        for c in 0..K {
                            let n = counts.get(ctx, c);
                            if let Some(mean) = sums.get(ctx, c).checked_div(n) {
                                centroids.set(ctx, c, mean);
                            }
                            sums.set(ctx, c, 0);
                            counts.set(ctx, c, 0);
                        }
                    }
                    barrier.wait(ctx);
                }
            });
        }
    });
    report.race_events
}

/// Parallel sort: each worker sorts its own page-aligned quarter, a
/// barrier ends the partition phase, then the serial thread merges.
fn sort_events() -> Vec<RaceEvent> {
    const WORKERS: usize = 4;
    const N: usize = 128;

    let cluster = Cluster::new(ClusterConfig::new(2).with_race_detection());
    let report = cluster.run(|p| {
        let data = p.alloc_vec_aligned::<u64>(N, "sort.data");
        let out = p.alloc_vec_aligned::<u64>(N, "sort.out");
        data.init(
            p,
            &(0..N as u64)
                .map(|i| (i * 2_654_435_761) % 1_000)
                .collect::<Vec<_>>(),
        );
        out.init(p, &vec![0; N]);
        let barrier = p.new_barrier(WORKERS as u32, "sort.barrier");
        let chunk = N / WORKERS;
        for w in 0..WORKERS {
            p.spawn(move |ctx| {
                ctx.migrate((w % 2) as u16).unwrap();
                ctx.set_site("sort.partition");
                let mut part = vec![0u64; chunk];
                data.read_slice(ctx, w * chunk, &mut part);
                part.sort_unstable();
                data.write_slice(ctx, w * chunk, &part);
                ctx.set_site("sort.merge");
                if barrier.wait(ctx) {
                    // Serial k-way merge into the output array.
                    let mut heads = [0usize; WORKERS];
                    for i in 0..N {
                        let mut best: Option<(usize, u64)> = None;
                        for (q, &h) in heads.iter().enumerate() {
                            if h < chunk {
                                let v = data.get(ctx, q * chunk + h);
                                if best.is_none_or(|(_, b)| v < b) {
                                    best = Some((q, v));
                                }
                            }
                        }
                        let (q, v) = best.expect("elements remain");
                        heads[q] += 1;
                        out.set(ctx, i, v);
                    }
                }
                barrier.wait(ctx);
            });
        }
    });
    report.race_events
}

/// The real KMN application (optimized variant, test scale) under race
/// recording — exercises the full fault/migration/delegation machinery.
fn kmn_app_events() -> Vec<RaceEvent> {
    let params = AppParams::test(2, Variant::Optimized).with_race_detection();
    let result = run_app("KMN", &params);
    result.report.race_events
}

/// The intentionally racy fixture: two threads on different nodes
/// read-modify-write one plain shared counter with no synchronization.
fn racy_events() -> Vec<RaceEvent> {
    let cluster = Cluster::new(ClusterConfig::new(2).with_race_detection());
    let report = cluster.run(|p| {
        let counter = p.alloc_cell_tagged::<u64>(0, "racy.counter");
        for w in 0..2u16 {
            p.spawn(move |ctx| {
                ctx.migrate(w).unwrap();
                ctx.set_site(if w == 0 { "racy.home" } else { "racy.remote" });
                for _ in 0..4 {
                    let v = counter.get(ctx);
                    counter.set(ctx, v + 1);
                }
            });
        }
    });
    report.race_events
}

/// The deadlock-potential fixture: the parent nests A→B, the child
/// (strictly afterwards, so the run itself cannot hang) nests B→A.
fn lock_order_events() -> Vec<RaceEvent> {
    let cluster = Cluster::new(ClusterConfig::new(2).with_race_detection());
    let report = cluster.run(|p| {
        let a = p.new_mutex("lock.a");
        let b = p.new_mutex("lock.b");
        p.spawn(move |ctx| {
            ctx.set_site("order.forward");
            a.lock(ctx);
            b.lock(ctx);
            b.unlock(ctx);
            a.unlock(ctx);
            let child = ctx.spawn_thread("inverted", move |ctx2| {
                ctx2.migrate(1).unwrap();
                ctx2.set_site("order.inverted");
                b.lock(ctx2);
                a.lock(ctx2);
                a.unlock(ctx2);
                b.unlock(ctx2);
            });
            child.join(ctx);
        });
    });
    report.race_events
}

/// The futex-edge fixture on one node: tid-0 writes `x` with no lock and
/// notifies a condvar nobody waits on yet; tid-1 then waits and is woken
/// by tid-2's notify, and reads `x`. Only the wake that woke tid-1 orders
/// it, so tid-0's write and tid-1's read race.
fn notify_nobody_events() -> Vec<RaceEvent> {
    let cluster = Cluster::new(ClusterConfig::new(1).with_race_detection());
    let report = cluster.run(|p| {
        let x = p.alloc_cell_tagged::<u64>(0, "notify.x");
        let m = p.new_mutex("notify.m");
        let cv = p.new_condvar("notify.cv");
        p.spawn(move |ctx| {
            ctx.set_site("notify.writer");
            x.set(ctx, 1);
            cv.notify_one(ctx);
        });
        p.spawn(move |ctx| {
            ctx.compute(SimDuration::from_micros(100));
            ctx.set_site("notify.reader");
            m.lock(ctx);
            cv.wait(ctx, &m);
            m.unlock(ctx);
            let _ = x.get(ctx);
        });
        p.spawn(move |ctx| {
            ctx.compute(SimDuration::from_millis(1));
            ctx.set_site("notify.waker");
            cv.notify_one(ctx);
        });
    });
    report.race_events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::races::analyze_races;

    #[test]
    fn clean_scenarios_report_nothing() {
        for name in ["kmeans", "sort"] {
            let (scenario, events) = run_scenario(name).unwrap();
            assert!(scenario.expect_clean);
            assert!(!events.is_empty(), "{name} records events");
            let report = analyze_races(&events);
            assert!(
                report.is_clean(),
                "{name} must be clean:\n{}",
                crate::races::render_race_report(&report)
            );
        }
    }

    #[test]
    fn racy_fixture_reports_a_conflict_with_both_sites() {
        let (scenario, events) = run_scenario("racy").unwrap();
        assert!(!scenario.expect_clean);
        let report = analyze_races(&events);
        assert!(!report.conflicts.is_empty(), "racy fixture must be caught");
        let c = &report.conflicts[0];
        let sites = [c.first.site, c.second.site];
        assert!(sites.contains(&"racy.home") && sites.contains(&"racy.remote"));
        assert_ne!(c.first.node, c.second.node, "cross-node race attributed");
    }

    #[test]
    fn lock_order_fixture_reports_a_cycle() {
        let (_, events) = run_scenario("lock-order").unwrap();
        let report = analyze_races(&events);
        assert_eq!(report.cycles.len(), 1, "{report:?}");
        let sites: Vec<&str> = report.cycles[0].edges.iter().map(|e| e.site).collect();
        assert!(sites.contains(&"order.forward") && sites.contains(&"order.inverted"));
    }

    #[test]
    fn kmn_application_is_race_free() {
        let (_, events) = run_scenario("kmn-app").unwrap();
        let report = analyze_races(&events);
        assert!(
            report.is_clean(),
            "KMN must be clean:\n{}",
            crate::races::render_race_report(&report)
        );
    }

    #[test]
    fn a_notify_that_woke_nobody_orders_nothing() {
        let (_, events) = run_scenario("notify-nobody").unwrap();
        let report = analyze_races(&events);
        assert_eq!(report.conflicts.len(), 1, "{report:?}");
        let c = &report.conflicts[0];
        assert_eq!((c.first.task.0, c.first.is_write), (0, true));
        assert_eq!((c.second.task.0, c.second.is_write), (1, false));
    }
}
