//! # dex-check — static and dynamic verification of the DEX protocol
//!
//! Three complementary passes over the reproduction:
//!
//! * [`model_check`] — exhaustive explicit-state exploration of the
//!   directory protocol over a closed finite world (2–4 nodes, 1–2
//!   pages, read/write/evict from every thread at any time). Checks
//!   single-writer exclusivity, owner-set/PTE agreement, no lost
//!   invalidations, leader-before-follower grant order, and quiescence
//!   co-reachability (transactions drain; retry never livelocks under
//!   fairness). Prints a *minimal* counterexample on violation and
//!   writes it in the [`dex_sim::ScheduleLog`] replay format.
//! * [`races`] — offline dynamic race and deadlock detection over the
//!   synchronization/access event stream a run records under
//!   [`dex_core::ClusterConfig::with_race_detection`]: conflicting
//!   unordered accesses and lock-order-graph cycles. Happens-before comes
//!   from the crate-private `hb.rs`, one pass shared with the SC oracle
//!   and DPOR (lock release → acquire, the waker's latest futex wake →
//!   the wait-return it caused, barrier rounds, spawn).
//! * [`lint`] — source-level invariant lints (raw `NodeSet`
//!   construction, PTE mutation outside the protocol allowlist,
//!   non-exhaustive `DirAction` consumers, `unwrap()` on fabric paths).
//! * [`explore`] — systematic schedule exploration over the *real*
//!   simulator through the engine's [`dex_sim::SchedulePolicy`] hook:
//!   exhaustive DFS with dynamic partial-order reduction ([`dpor`]),
//!   bounded-preemption search, and a seeded random walk, judged by an
//!   offline sequential-consistency oracle ([`sc`]) over the
//!   value-carrying access stream. Violations are minimized and emitted
//!   as replayable [`dex_sim::ScheduleLog`]s; a mutation sweep seeds
//!   protocol bugs in the real fault path and proves each is caught.
//! * [`faults`] — deterministic fault-injection scenarios: empty plans
//!   are byte-identical to no plan, seeded delay/stall/crash plans
//!   replay bit-for-bit, and node crashes quiesce with threads re-homed
//!   and no page ownership leaked to the dead node.
//! * [`observe`] — the sample traced workload behind `dex-check
//!   timeline` / `dex-check metrics`: runs with spans and metrics on,
//!   exports the Chrome trace-event JSON and the critical-path report,
//!   and verifies cross-node span stitching.
//! * [`perf`] — the perf-regression gate: diffs fresh `BENCH_*.json`
//!   results from the bench binaries against committed baselines
//!   exactly, and self-tests that a one-unit change in any field is
//!   caught.
//! * [`whatif`] — the causal what-if profiler: per-component virtual
//!   speedups (exact under deterministic rerun) swept over named
//!   workloads, ranked into an attribution report, with a self-test
//!   that a seeded-dominant component must win the ranking.
//!
//! The `dex-check` binary wires all of them into CI:
//!
//! ```text
//! dex-check model --nodes 3 --pages 1
//! dex-check races
//! dex-check faults
//! dex-check lint
//! dex-check timeline --out trace.json
//! dex-check metrics
//! dex-check perf --results target/bench
//! dex-check all
//! ```

#![warn(missing_docs)]

pub mod dpor;
pub mod explore;
pub mod faults;
mod hb;
pub mod lint;
pub mod model_check;
pub mod observe;
pub mod perf;
pub mod races;
pub mod sc;
pub mod scenarios;
pub mod whatif;

pub use dpor::{footprints_after, rf_signature, worth_exploring, Footprint};
pub use explore::{
    explore_scenario_names, find_explore_scenario, looks_like_explore_log, replay_explore_log,
    ExploreConfig, ExploreOutcome, ExploreScenario, EXPLORE_SCENARIOS,
};
pub use faults::{
    fault_scenario_names, replay_plan, run_fault_scenario, FaultOutcome, FaultScenario,
    FAULT_SCENARIOS,
};
pub use lint::{run_lint, LintHit};
pub use model_check::{
    check_model, counterexample_to_log, mutation_sweep, render_counterexample, replay_log,
    CheckOptions, CheckOutcome, Counterexample, PassReport, ReplayOutcome, SweepRow,
};
pub use observe::{metric_sum_violations, run_observed_workload, ObserveOutcome};
pub use perf::{compare_dirs, compare_results, load_results, self_test, PerfViolation};
pub use races::{analyze_races, render_race_report, Conflict, LockCycle, RaceReport};
pub use sc::{check_sequential_consistency, render_sc_report, ScReport, ScViolation};
pub use scenarios::{run_scenario, scenario_names, Scenario, SCENARIOS};
pub use whatif::{
    find_whatif_workload, full_component_registry, run_whatif, whatif_self_test,
    whatif_workload_names, WhatIfRun, WhatIfWorkload, WHATIF_WORKLOADS,
};
