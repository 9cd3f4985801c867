//! The thread-join edge of happens-before: a thread's exit happens-before
//! the return of every `join` of it, so fork-join programs are judged
//! race-free where they are.

use dex_apps::{run_app, AppParams, Variant};
use dex_check::{analyze_races, render_race_report};
use dex_core::{Cluster, ClusterConfig, RaceEvent};
use dex_sim::SimDuration;

/// A child on node 1 writes `x`; the parent writes `x` after the child
/// has finished, having joined it first when `join` is set, or having
/// only waited long enough in virtual time otherwise.
fn child_then_parent_writes(join: bool) -> Vec<RaceEvent> {
    let cluster = Cluster::new(ClusterConfig::new(2).with_race_detection());
    let report = cluster.run(|p| {
        let x = p.alloc_cell_tagged::<u64>(0, "join.x");
        p.spawn(move |ctx| {
            let child = ctx.spawn_thread("child", move |ctx| {
                ctx.migrate(1).unwrap();
                ctx.set_site("join.child");
                x.set(ctx, 1);
            });
            if join {
                child.join(ctx);
            } else {
                ctx.compute(SimDuration::from_millis(5));
                assert!(child.is_done(), "the child finished first");
            }
            ctx.set_site("join.parent");
            x.set(ctx, 2);
        });
    });
    report.race_events
}

#[test]
fn a_join_orders_the_childs_writes_before_the_parents() {
    let report = analyze_races(&child_then_parent_writes(true));
    assert!(
        report.conflicts.is_empty(),
        "{}",
        render_race_report(&report)
    );
}

#[test]
fn without_the_join_the_same_writes_race() {
    let report = analyze_races(&child_then_parent_writes(false));
    assert_eq!(report.conflicts.len(), 1, "{}", render_race_report(&report));
    let c = &report.conflicts[0];
    assert_eq!([c.first.site, c.second.site], ["join.child", "join.parent"]);
}

/// BT forks and joins a team per region; with the join edge both of its
/// variants are race-free.
#[test]
fn bt_reports_no_conflicts() {
    for variant in [Variant::Initial, Variant::Optimized] {
        let params = AppParams::test(2, variant).with_race_detection();
        let events = run_app("BT", &params).report.race_events;
        let report = analyze_races(&events);
        assert!(
            report.conflicts.is_empty(),
            "BT {variant:?}:\n{}",
            render_race_report(&report)
        );
    }
}
