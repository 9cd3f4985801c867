//! Fault-injection scenarios for `dex-check faults`.
//!
//! Each scenario runs a canonical multi-node workload under a
//! [`dex_sim::FaultPlan`] and checks the fault layer's contract:
//!
//! * an **empty plan** leaves the run byte-identical to a run with no
//!   plan at all (virtual time, every counter, the fault trace);
//! * **seeded plans replay**: two runs of the same plan produce the
//!   same fingerprint;
//! * **stalled links** delay but never hang a run, and the ownership
//!   directory stays consistent;
//! * a **node crash** quiesces gracefully — the marooned thread
//!   re-homes to the origin, the directory reclaims every page the dead
//!   node owned, and migrating *to* the dead node fails cleanly.
//!
//! [`replay_plan`] applies the same determinism-and-invariants check to
//! a user-supplied plan file (`dex-check replay <plan>`).

use dex_core::{Cluster, ClusterConfig, NodeId, RunReport};
use dex_sim::{FaultPlan, SimDuration, SimTime};

/// Description of one built-in fault scenario.
#[derive(Clone, Copy, Debug)]
pub struct FaultScenario {
    /// CLI name.
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
}

/// All built-in fault scenarios.
pub const FAULT_SCENARIOS: [FaultScenario; 4] = [
    FaultScenario {
        name: "empty-plan",
        description: "an empty fault plan is byte-identical to no plan",
    },
    FaultScenario {
        name: "seeded-delays",
        description: "a generated delay/stall plan replays deterministically",
    },
    FaultScenario {
        name: "stall-window",
        description: "a stalled reply link delays but never hangs the run",
    },
    FaultScenario {
        name: "crash-mid-run",
        description: "a node crash re-homes its thread and reclaims its pages",
    },
];

/// The CLI names of every built-in fault scenario.
pub fn fault_scenario_names() -> Vec<&'static str> {
    FAULT_SCENARIOS.iter().map(|s| s.name).collect()
}

/// Everything observable about a run, for determinism comparisons.
fn fingerprint(report: &RunReport) -> (u64, Vec<(&'static str, u64)>) {
    (
        report.virtual_time.as_nanos(),
        report.process().counters().totals(),
    )
}

/// The canonical workload: one thread per non-origin node migrates out
/// (tolerating dead destinations), fills a page-aligned region, computes
/// past any crash window, rewrites a slice of the region (forcing fresh
/// faults that notice a crash), merges under a futex mutex, and returns
/// home.
fn canonical_workload(nodes: usize, plan: Option<FaultPlan>) -> RunReport {
    let mut config = ClusterConfig::new(nodes);
    if let Some(plan) = plan {
        config = config.with_fault_plan(plan);
    }
    let cluster = Cluster::new(config);
    cluster.run(|p| {
        let mutex = p.new_mutex("merge");
        let total = p.alloc_cell_tagged::<u64>(0, "total");
        for n in 1..nodes as u16 {
            let region = p.alloc_vec_aligned::<u64>(4 * 512, &format!("region{n}"));
            p.spawn(move |ctx| {
                let _ = ctx.migrate(n); // a dead destination declines
                for j in 0..region.len() {
                    region.set(ctx, j, j as u64 ^ ((n as u64) << 32));
                }
                ctx.compute_ops(16_000_000); // ~8 ms, spans crash windows
                for j in 0..64 {
                    region.set(ctx, j, j as u64 + n as u64);
                }
                mutex.lock(ctx);
                let t = total.get(ctx);
                total.set(ctx, t + 1);
                mutex.unlock(ctx);
                ctx.migrate_back().unwrap();
            });
        }
    })
}

/// Outcome of one scenario: pass/fail plus human-readable detail lines.
pub struct FaultOutcome {
    /// Whether every check of the scenario held.
    pub ok: bool,
    /// Detail lines for the CLI report.
    pub detail: Vec<String>,
}

/// Runs the named fault scenario. `None` for an unknown name.
pub fn run_fault_scenario(name: &str) -> Option<(FaultScenario, FaultOutcome)> {
    let scenario = *FAULT_SCENARIOS.iter().find(|s| s.name == name)?;
    let outcome = match name {
        "empty-plan" => empty_plan(),
        "seeded-delays" => seeded_delays(),
        "stall-window" => stall_window(),
        "crash-mid-run" => crash_mid_run(),
        _ => unreachable!("scenario table covers all names"),
    };
    Some((scenario, outcome))
}

fn empty_plan() -> FaultOutcome {
    let plain = canonical_workload(3, None);
    let with_empty = canonical_workload(3, Some(FaultPlan::default()));
    let identical = fingerprint(&plain) == fingerprint(&with_empty);
    FaultOutcome {
        ok: identical,
        detail: vec![if identical {
            format!(
                "fingerprints identical ({} counters, {} ns)",
                plain.process().counters().totals().len(),
                plain.virtual_time.as_nanos()
            )
        } else {
            "** empty plan changed the run **".to_string()
        }],
    }
}

fn seeded_delays() -> FaultOutcome {
    let horizon = SimTime::ZERO + SimDuration::from_millis(20);
    let plan = FaultPlan::generate(0xD5, 3, horizon, false);
    let clean = canonical_workload(3, None);
    let first = canonical_workload(3, Some(plan.clone()));
    let second = canonical_workload(3, Some(plan));
    let deterministic = fingerprint(&first) == fingerprint(&second);
    FaultOutcome {
        ok: deterministic,
        detail: vec![format!(
            "replay {}; clean run {} µs, faulty run {} µs",
            if deterministic {
                "deterministic"
            } else {
                "** DIVERGED **"
            },
            clean.virtual_time.as_micros_f64(),
            first.virtual_time.as_micros_f64()
        )],
    }
}

fn stall_window() -> FaultOutcome {
    let mut plan = FaultPlan::default();
    plan.stall(
        1,
        0,
        SimTime::ZERO + SimDuration::from_micros(900),
        SimTime::ZERO + SimDuration::from_millis(4),
    );
    let first = canonical_workload(3, Some(plan.clone()));
    let second = canonical_workload(3, Some(plan));
    let deterministic = fingerprint(&first) == fingerprint(&second);
    let invariants = first
        .process()
        .directories
        .iter()
        .try_for_each(|dir| dir.lock().check_invariants());
    let ok = deterministic && invariants.is_ok();
    let mut detail = vec![format!(
        "completed in {} µs, replay {}",
        first.virtual_time.as_micros_f64(),
        if deterministic {
            "deterministic"
        } else {
            "** DIVERGED **"
        }
    )];
    if let Err(e) = invariants {
        detail.push(format!("** directory invariant violated: {e} **"));
    }
    FaultOutcome { ok, detail }
}

fn crash_mid_run() -> FaultOutcome {
    let mut plan = FaultPlan::default();
    plan.crash(2, SimTime::ZERO + SimDuration::from_millis(3));
    let first = canonical_workload(3, Some(plan.clone()));
    let second = canonical_workload(3, Some(plan));

    let deterministic = fingerprint(&first) == fingerprint(&second);
    let shared = first.process();
    let counters = shared.counters();
    let rehomed = counters.get("migrations.crash_rehomed");
    let handled = counters.get("faults.crashes_handled");
    let reclaimed = counters.get("faults.pages_reclaimed");
    let mut detail = vec![format!(
        "completed in {} µs, {rehomed} thread(s) re-homed, {reclaimed} pages reclaimed, replay {}",
        first.virtual_time.as_micros_f64(),
        if deterministic {
            "deterministic"
        } else {
            "** DIVERGED **"
        }
    )];
    let mut ok = deterministic;
    if rehomed < 1 {
        ok = false;
        detail.push("** the node-2 thread never re-homed **".to_string());
    }
    if handled != 1 {
        ok = false;
        detail.push(format!("** crash handled {handled} times, expected 1 **"));
    }
    for dir in &shared.directories {
        let directory = dir.lock();
        if let Err(e) = directory.check_invariants() {
            ok = false;
            detail.push(format!("** directory invariant violated: {e} **"));
        }
        if !directory.dead_nodes().contains(NodeId(2)) {
            ok = false;
            detail.push("** directory never learned of the crash **".to_string());
        }
    }
    FaultOutcome { ok, detail }
}

/// Replays a user-supplied fault plan (`dex-check replay <plan-file>`):
/// runs the canonical workload under it twice and checks determinism and
/// directory consistency. Crash detection is lazy, so plans whose faults
/// never intersect live traffic pass trivially — the check is that
/// nothing hangs, diverges, or corrupts ownership.
pub fn replay_plan(plan: &FaultPlan) -> FaultOutcome {
    let nodes = 3.max(plan.crashes().iter().map(|c| c.node + 1).max().unwrap_or(0) as usize);
    let first = canonical_workload(nodes, Some(plan.clone()));
    let second = canonical_workload(nodes, Some(plan.clone()));
    let deterministic = fingerprint(&first) == fingerprint(&second);
    let invariants = first
        .process()
        .directories
        .iter()
        .try_for_each(|dir| dir.lock().check_invariants());
    let ok = deterministic && invariants.is_ok();
    let mut detail = vec![format!(
        "{} nodes, completed in {} µs, replay {}",
        nodes,
        first.virtual_time.as_micros_f64(),
        if deterministic {
            "deterministic"
        } else {
            "** DIVERGED **"
        }
    )];
    let counters = first.process().counters();
    let handled = counters.get("faults.crashes_handled");
    if handled > 0 {
        detail.push(format!(
            "{handled} crash(es) recovered, {} page(s) reclaimed, {} thread(s) re-homed",
            counters.get("faults.pages_reclaimed"),
            counters.get("migrations.crash_rehomed"),
        ));
    }
    if let Err(e) = invariants {
        detail.push(format!("** directory invariant violated: {e} **"));
    }
    FaultOutcome { ok, detail }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_scenario_passes() {
        for scenario in FAULT_SCENARIOS {
            let (_, outcome) = run_fault_scenario(scenario.name).expect("scenario name resolves");
            assert!(
                outcome.ok,
                "scenario {} failed: {:?}",
                scenario.name, outcome.detail
            );
        }
    }

    #[test]
    fn generated_crash_plan_replays() {
        let horizon = SimTime::ZERO + SimDuration::from_millis(10);
        let plan = FaultPlan::generate(42, 3, horizon, true);
        assert!(!plan.crashes().is_empty());
        let outcome = replay_plan(&plan);
        assert!(outcome.ok, "{:?}", outcome.detail);
    }
}
