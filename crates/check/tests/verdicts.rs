//! Pins the checkers' verdicts on the built-in workloads: explore
//! execution and pruning counts, the scenario catching each seeded
//! mutation, and the race detector's event/conflict/cycle counts. Any
//! change to happens-before, footprints or signatures that moves one of
//! these numbers shows up here.

use dex_check::{analyze_races, explore, run_scenario, ExploreConfig, EXPLORE_SCENARIOS};

#[test]
fn explore_counts_are_pinned() {
    let expected = [
        ("mp", 19, 18, 1),
        ("invalidate", 8, 7, 1),
        ("atomics", 19, 18, 1),
        ("crash", 10, 9, 3),
        ("mp-fwd", 22, 21, 2),
        ("invalidate-fwd", 12, 11, 4),
        ("republish", 9, 8, 1),
    ];
    let config = ExploreConfig {
        budget: 300,
        ..ExploreConfig::default()
    };
    let measured: Vec<_> = EXPLORE_SCENARIOS
        .iter()
        .map(|scenario| {
            let o = explore::explore(scenario, &config);
            assert!(o.complete && o.counterexample.is_none(), "{}", o.scenario);
            (
                scenario.name,
                o.executions,
                o.pruned_equivalent,
                o.pruned_independent,
            )
        })
        .collect();
    assert_eq!(measured, expected);
}

#[test]
fn every_mutation_is_caught_where_it_was() {
    let expected = [
        ("skip-invalidate", "invalidate", 20),
        ("keep-origin-pte", "mp", 1),
        ("drop-ack", "invalidate", 20),
        ("skip-downgrade", "republish", 81),
        ("drop-wakeup", "mp", 1),
        ("follower-bypass", "mp-fwd", 47),
        ("lose-invalidate-data", "invalidate", 20),
        ("stale-grant-data", "mp", 1),
    ];
    let measured: Vec<_> = explore::mutation_sweep(60)
        .iter()
        .map(|e| {
            (
                e.mutation.name(),
                e.caught_by.unwrap_or("MISSED"),
                e.executions,
            )
        })
        .collect();
    assert_eq!(measured, expected);
}

#[test]
fn race_counts_are_pinned() {
    let expected = [
        ("kmeans", 860, 0, 0),
        ("sort", 661, 0, 0),
        ("kmn-app", 1058, 0, 0),
        ("racy", 18, 2, 0),
        ("lock-order", 12, 0, 1),
    ];
    for (name, events, conflicts, cycles) in expected {
        let (_, stream) = run_scenario(name).expect("built-in scenario");
        let report = analyze_races(&stream);
        assert_eq!(
            (report.events, report.conflicts.len(), report.cycles.len()),
            (events, conflicts, cycles),
            "{name}"
        );
    }
}
