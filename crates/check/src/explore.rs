//! `dex-check explore` — systematic schedule exploration over the real
//! simulator, with a sequential-consistency oracle.
//!
//! The engine's [`dex_sim::SchedulePolicy`] hook routes every
//! nondeterministic choice point — same-instant runnable ties,
//! park-timeout races, and same-arrival fabric deliveries — through a
//! policy object. The explorer exploits that: it runs a scenario under a
//! recording policy, then forces *alternative* picks at recorded choice
//! points, enumerating genuinely different interleavings depth-first.
//! Every execution's value-carrying access stream is judged by the
//! offline SC oracle ([`crate::check_sequential_consistency`]).
//!
//! Reductions (see [`crate::dpor`]): persistent-set style independence
//! pruning on thread footprints, plus reads-from-signature memoization
//! so equivalent interleavings are never expanded twice. Two dispatcher
//! daemons are treated as independent at a tie: each only dequeues from
//! its own inbox, virtual time does not advance between same-instant
//! steps, and any downstream effect of their mutual order (same-instant
//! sends racing into one inbox) resurfaces as a later delivery tie that
//! is itself a choice point.
//!
//! Search modes:
//!
//! * **exhaustive DFS** (default) — complete up to the execution budget;
//!   when the frontier drains the scenario is *verified* over the
//!   DPOR-reduced schedule space;
//! * **bounded-preemption** (`--preemptions N`) — only prefixes with at
//!   most `N` non-default picks are expanded (most protocol bugs need
//!   very few preemptions);
//! * **seeded random walk** (`--seed S`) — PCT-style sampling for
//!   budgets too small to be exhaustive.
//!
//! A violating execution is **minimized** (non-default picks are
//! re-zeroed greedily while the failure reproduces) and emitted as a
//! replayable [`ScheduleLog`] that `dex-check replay` re-executes and
//! re-judges.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use dex_core::{Cluster, ClusterConfig, DexProcess, ProtocolMutation, RaceEvent, ALL_MUTATIONS};
use dex_sim::{
    FaultPlan, ScheduleChoice, ScheduleLog, SchedulePolicy, SchedulePolicyHandle, SimRng, SimTime,
};

use crate::dpor::{rf_signature, worth_exploring};
use crate::sc::{check_sequential_consistency, render_sc_report};

/// Cap on simulator events per explored execution (livelock guard for
/// mutated protocols).
const EXEC_EVENT_BUDGET: u64 = 200_000;

// ---------------------------------------------------------------------
// Recording / forcing policy
// ---------------------------------------------------------------------

/// One decision point the policy resolved (only points with more than
/// one option are recorded — singleton frontiers cannot branch).
#[derive(Clone, Debug)]
pub struct ChoiceRecord {
    /// Virtual time of the decision.
    pub time: SimTime,
    /// Choice-point kind (`event` for scheduler ties, else the
    /// `SimCtx::choose` tag, e.g. `fabric.recv`).
    pub tag: String,
    /// Number of options.
    pub n: usize,
    /// The option taken.
    pub picked: usize,
    /// Human-readable option labels (thread names for `event`).
    pub labels: Vec<String>,
}

enum Mode {
    /// Force `forced[k]` at decision point `k`, default pick beyond.
    Dfs { forced: Vec<usize> },
    /// Seeded uniform pick at every decision point.
    Random { rng: SimRng },
}

struct PolicyState {
    mode: Mode,
    taken: Vec<ChoiceRecord>,
}

/// The policy installed on the engine for one explored execution.
#[derive(Clone)]
struct ExplorePolicy {
    state: Arc<Mutex<PolicyState>>,
}

impl ExplorePolicy {
    fn new(mode: Mode) -> Self {
        ExplorePolicy {
            state: Arc::new(Mutex::new(PolicyState {
                mode,
                taken: Vec::new(),
            })),
        }
    }

    fn pick(&self, time: SimTime, tag: &str, labels: Vec<String>) -> usize {
        let mut st = self.state.lock().expect("policy state poisoned");
        let k = st.taken.len();
        let n = labels.len();
        let picked = match &mut st.mode {
            Mode::Dfs { forced } => forced.get(k).copied().unwrap_or(0).min(n - 1),
            Mode::Random { rng } => rng.gen_range(0..n as u64) as usize,
        };
        st.taken.push(ChoiceRecord {
            time,
            tag: tag.to_string(),
            n,
            picked,
            labels,
        });
        picked
    }

    fn taken(&self) -> Vec<ChoiceRecord> {
        self.state
            .lock()
            .expect("policy state poisoned")
            .taken
            .clone()
    }
}

impl SchedulePolicy for ExplorePolicy {
    fn choose_event(&mut self, now: SimTime, candidates: &[ScheduleChoice]) -> usize {
        if candidates.len() <= 1 {
            return 0;
        }
        let labels = candidates
            .iter()
            .map(|c| {
                if c.is_timer {
                    format!("{}(timeout)", c.name)
                } else {
                    c.name.clone()
                }
            })
            .collect();
        self.pick(now, "event", labels)
    }

    fn choose_value(&mut self, tag: &str, n: usize) -> usize {
        if n <= 1 {
            return 0;
        }
        // `choose` carries no timestamp; attribute to the latest decision
        // time (ZERO first), which only widens footprints — conservative.
        let time = {
            let st = self.state.lock().expect("policy state poisoned");
            st.taken.last().map_or(SimTime::ZERO, |c| c.time)
        };
        let labels = (0..n).map(|i| format!("{tag}#{i}")).collect();
        self.pick(time, tag, labels)
    }
}

// ---------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------

/// A small DSM workload for schedule exploration. Workloads never assert
/// on shared values — the oracle is the judge, so a protocol bug
/// surfaces as an SC violation, not an opaque panic.
#[derive(Clone, Copy)]
pub struct ExploreScenario {
    /// CLI name.
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Cluster size.
    pub nodes: usize,
    /// Application threads spawned.
    pub threads: usize,
    /// Whether a deterministic crash plan is composed in.
    pub with_faults: bool,
    /// Directory shard count (1 — classic single-origin directory;
    /// &gt;1 — sharded homes with owner-forwarded two-hop grants).
    pub dir_shards: usize,
    setup: fn(&DexProcess<'_>),
}

impl std::fmt::Debug for ExploreScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExploreScenario")
            .field("name", &self.name)
            .field("nodes", &self.nodes)
            .field("threads", &self.threads)
            .finish()
    }
}

/// All built-in exploration workloads.
pub const EXPLORE_SCENARIOS: [ExploreScenario; 7] = [
    ExploreScenario {
        name: "mp",
        description: "message passing: origin writes, barrier, two nodes read (2 nodes, 3 threads)",
        nodes: 2,
        threads: 3,
        with_faults: false,
        dir_shards: 1,
        setup: mp_setup,
    },
    ExploreScenario {
        name: "invalidate",
        description: "ownership ping-pong on one shared page: remote write, origin write-back, \
                      cross reads (2 nodes, 2 threads)",
        nodes: 2,
        threads: 2,
        with_faults: false,
        dir_shards: 1,
        setup: invalidate_setup,
    },
    ExploreScenario {
        name: "atomics",
        description:
            "cluster-wide fetch-add from two nodes, barrier, final read (2 nodes, 3 threads)",
        nodes: 2,
        threads: 3,
        with_faults: false,
        dir_shards: 1,
        setup: atomics_setup,
    },
    ExploreScenario {
        name: "crash",
        description:
            "message passing on nodes 0-1 while node 2 fail-stops mid-run (3 nodes, 2 threads)",
        nodes: 3,
        threads: 2,
        with_faults: true,
        dir_shards: 1,
        setup: crash_setup,
    },
    ExploreScenario {
        name: "mp-fwd",
        description: "message passing under sharded directory homes: pages hash across both \
                      nodes, so faults route via a non-origin home and grants are \
                      owner-forwarded (2 nodes, 3 threads, 2 shards)",
        nodes: 2,
        threads: 3,
        with_faults: false,
        dir_shards: 2,
        setup: mp_setup,
    },
    ExploreScenario {
        name: "invalidate-fwd",
        description: "ownership ping-pong under sharded homes: two-hop forwarded grants race \
                      batched invalidation fan-out (2 nodes, 2 threads, 2 shards)",
        nodes: 2,
        threads: 2,
        with_faults: false,
        dir_shards: 2,
        setup: invalidate_setup,
    },
    ExploreScenario {
        name: "republish",
        description: "origin publishes, a remote reader replicates, origin publishes again, \
                      reader re-reads: the second write must revoke the replica \
                      (2 nodes, 2 threads)",
        nodes: 2,
        threads: 2,
        with_faults: false,
        dir_shards: 1,
        setup: republish_setup,
    },
];

/// The CLI names of every exploration workload.
pub fn explore_scenario_names() -> Vec<&'static str> {
    EXPLORE_SCENARIOS.iter().map(|s| s.name).collect()
}

/// Looks up a workload by CLI name.
pub fn find_explore_scenario(name: &str) -> Option<ExploreScenario> {
    EXPLORE_SCENARIOS.iter().find(|s| s.name == name).copied()
}

/// Writer publishes, barrier, readers on both nodes observe. A stale or
/// zeroed grant makes a reader observe 0 after the write is ordered
/// before it.
fn mp_setup(p: &DexProcess<'_>) {
    let x = p.alloc_cell_aligned::<u64>(0, "mp.x");
    let b = p.new_barrier(3, "mp.barrier");
    p.spawn(move |ctx| {
        ctx.set_site("mp.writer");
        x.set(ctx, 42);
        b.wait(ctx);
    });
    p.spawn(move |ctx| {
        ctx.migrate(1).unwrap();
        ctx.set_site("mp.remote-reader");
        b.wait(ctx);
        let _ = x.get(ctx);
    });
    p.spawn(move |ctx| {
        ctx.set_site("mp.local-reader");
        b.wait(ctx);
        let _ = x.get(ctx);
    });
}

/// Two u64 slots on one page of their own (page-aligned so the barrier
/// word never shares it — barrier traffic would flush the page early and
/// mask the interesting transitions). The remote thread takes exclusive
/// ownership (invalidating the origin), then the origin writes the page
/// back (revoking the remote writer with `needs_data`), then both sides
/// read what the other wrote. Exercises origin-PTE clearing and
/// dirty-data hand-off on ownership transfer.
fn invalidate_setup(p: &DexProcess<'_>) {
    let v = p.alloc_vec_aligned::<u64>(2, "inv.page");
    let b = p.new_barrier(2, "inv.barrier");
    p.spawn(move |ctx| {
        ctx.set_site("inv.origin");
        b.wait(ctx); // A: remote write done
        v.set(ctx, 1, 5);
        b.wait(ctx); // B: origin write done
        let _ = v.get(ctx, 0);
    });
    p.spawn(move |ctx| {
        ctx.migrate(1).unwrap();
        ctx.set_site("inv.remote");
        v.set(ctx, 0, 2);
        b.wait(ctx); // A
        b.wait(ctx); // B
        let _ = v.get(ctx, 1);
        let _ = v.get(ctx, 0);
    });
}

/// Write, remote read, write again, remote read again. The first read
/// replicates the page, so the origin must downgrade its own mapping to
/// shared; had it stayed writable, the second write would take no fault,
/// revoke nothing, and leave the reader's replica stale.
fn republish_setup(p: &DexProcess<'_>) {
    let x = p.alloc_cell_aligned::<u64>(0, "republish.x");
    let b = p.new_barrier(2, "republish.barrier");
    p.spawn(move |ctx| {
        ctx.set_site("republish.writer");
        x.set(ctx, 1);
        b.wait(ctx); // A: first value published
        b.wait(ctx); // B: the reader holds a replica
        x.set(ctx, 2);
        b.wait(ctx); // C: second value published
    });
    p.spawn(move |ctx| {
        ctx.migrate(1).unwrap();
        ctx.set_site("republish.reader");
        b.wait(ctx); // A
        let _ = x.get(ctx);
        b.wait(ctx); // B
        b.wait(ctx); // C
        let _ = x.get(ctx);
    });
}

/// Two nodes hammer one cluster-atomic counter; a final reader (ordered
/// by the barrier) observes the sum. Lost updates surface as a read of a
/// value that is either never deposited or provably overwritten.
fn atomics_setup(p: &DexProcess<'_>) {
    let counter = p.alloc_cell_aligned::<u64>(0, "atomics.counter");
    let b = p.new_barrier(3, "atomics.barrier");
    for w in 0..2u16 {
        p.spawn(move |ctx| {
            ctx.migrate(w).unwrap();
            ctx.set_site(if w == 0 {
                "atomics.home"
            } else {
                "atomics.remote"
            });
            for _ in 0..3 {
                counter.rmw(ctx, |v| v + 1);
            }
            b.wait(ctx);
        });
    }
    p.spawn(move |ctx| {
        ctx.set_site("atomics.reader");
        b.wait(ctx);
        let _ = counter.get(ctx);
    });
}

/// Message passing between nodes 0 and 1 while node 2 — which holds no
/// data — fail-stops mid-run. Crash handling (directory reclaim and
/// broadcast) injects extra protocol events whose ordering the explorer
/// walks; the oracle must stay clean in every interleaving.
fn crash_setup(p: &DexProcess<'_>) {
    let x = p.alloc_cell_aligned::<u64>(0, "crash.x");
    let b = p.new_barrier(2, "crash.barrier");
    p.spawn(move |ctx| {
        ctx.set_site("crash.writer");
        x.set(ctx, 7);
        b.wait(ctx);
    });
    p.spawn(move |ctx| {
        ctx.migrate(1).unwrap();
        ctx.set_site("crash.reader");
        b.wait(ctx);
        let _ = x.get(ctx);
    });
}

/// The fault plan composed into the `crash` scenario: node 2 fail-stops
/// at t = 30 µs, mid-way through the migration/fault traffic.
fn crash_plan() -> FaultPlan {
    let mut plan = FaultPlan::new();
    plan.crash(2, SimTime::ZERO + dex_sim::SimDuration::from_micros(30));
    plan
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

/// One explored execution.
#[derive(Debug)]
struct Execution {
    taken: Vec<ChoiceRecord>,
    events: Vec<RaceEvent>,
    panic: Option<String>,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `scenario` once under `mode`, recording every decision point and
/// the value-carrying access stream. Panics (deadlock, event-budget
/// blowout, simulated segfault) are caught and reported as part of the
/// execution — under a mutated protocol they count as a detection.
fn run_once(scenario: &ExploreScenario, mutation: ProtocolMutation, mode: Mode) -> Execution {
    let policy = ExplorePolicy::new(mode);
    let handle = SchedulePolicyHandle::new(policy.clone());
    let setup = scenario.setup;
    let mut config = ClusterConfig::new(scenario.nodes)
        .with_race_detection()
        .with_event_budget(EXEC_EVENT_BUDGET)
        .with_mutation(mutation)
        .with_directory_shards(scenario.dir_shards)
        .with_schedule_policy(handle);
    if scenario.with_faults {
        config = config.with_fault_plan(crash_plan());
    }
    // Panics here are expected outcomes (deadlock detection, event-budget
    // livelock guards under mutated protocols) and are reported through
    // the judge — silence the default hook's backtrace spew for the
    // guarded window.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = catch_unwind(AssertUnwindSafe(|| {
        Cluster::new(config).run(setup).race_events
    }));
    std::panic::set_hook(prev_hook);
    match result {
        Ok(events) => Execution {
            taken: policy.taken(),
            events,
            panic: None,
        },
        Err(payload) => Execution {
            taken: policy.taken(),
            events: Vec::new(),
            panic: Some(panic_message(payload)),
        },
    }
}

/// Judges one execution: a panic or an SC violation is a failure.
fn judge(exec: &Execution) -> Option<String> {
    if let Some(msg) = &exec.panic {
        return Some(format!("execution panicked: {msg}"));
    }
    let report = check_sequential_consistency(&exec.events);
    if report.is_clean() {
        None
    } else {
        Some(render_sc_report(&report).trim_end().to_string())
    }
}

// ---------------------------------------------------------------------
// The explorer
// ---------------------------------------------------------------------

/// Knobs for one exploration run.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Maximum executions (DFS frontier or random samples).
    pub budget: usize,
    /// Bounded-preemption search: expand only prefixes with at most this
    /// many non-default picks. `None` — unbounded (full DFS).
    pub preemptions: Option<usize>,
    /// Switch to a seeded random walk instead of DFS.
    pub seed: Option<u64>,
    /// Protocol mutation to inject (mutation testing of the checker).
    pub mutation: ProtocolMutation,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            budget: 2000,
            preemptions: None,
            seed: None,
            mutation: ProtocolMutation::None,
        }
    }
}

/// A minimized, replayable failing schedule.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The forced picks that reproduce the failure.
    pub forced: Vec<usize>,
    /// Why the execution failed (oracle verdict or panic).
    pub reason: String,
    /// Replayable schedule (see `dex-check replay`).
    pub log: ScheduleLog,
}

/// What one exploration run found.
#[derive(Clone, Debug)]
pub struct ExploreOutcome {
    /// The scenario explored.
    pub scenario: &'static str,
    /// The injected mutation (`none` for a verification run).
    pub mutation: ProtocolMutation,
    /// Executions actually run.
    pub executions: usize,
    /// Prefixes skipped because the execution was equivalent to an
    /// already-expanded one (reads-from signature).
    pub pruned_equivalent: usize,
    /// Alternatives skipped by independence (persistent-set) pruning.
    pub pruned_independent: usize,
    /// `true` when the DFS frontier drained within budget: the scenario
    /// is verified over the DPOR-reduced schedule space.
    pub complete: bool,
    /// The failure, if one was found.
    pub counterexample: Option<Counterexample>,
}

fn build_log(
    scenario: &ExploreScenario,
    mutation: ProtocolMutation,
    taken: &[ChoiceRecord],
    reason: &str,
) -> ScheduleLog {
    let summary = reason.lines().last().unwrap_or(reason).trim();
    let mut log = ScheduleLog::new(format!(
        "dex-explore scenario={} mutation={} decisions={} | {}",
        scenario.name,
        mutation.name(),
        taken.len(),
        summary,
    ));
    for c in taken {
        log.push(
            c.picked as u64,
            format!("{} n={} -> {}", c.tag, c.n, c.labels[c.picked]),
        );
    }
    log
}

/// Greedily re-zeroes non-default picks (last to first) while the
/// failure still reproduces, then drops trailing defaults. Each attempt
/// is one execution; capped at `max_runs`.
fn minimize(
    scenario: &ExploreScenario,
    mutation: ProtocolMutation,
    mut forced: Vec<usize>,
    max_runs: usize,
) -> (Vec<usize>, Execution, String) {
    while forced.last() == Some(&0) {
        forced.pop();
    }
    let mut runs = 0usize;
    let mut i = forced.len();
    while i > 0 && runs < max_runs {
        i -= 1;
        if forced[i] == 0 {
            continue;
        }
        let mut candidate = forced.clone();
        candidate[i] = 0;
        while candidate.last() == Some(&0) {
            candidate.pop();
        }
        let exec = run_once(
            scenario,
            mutation,
            Mode::Dfs {
                forced: candidate.clone(),
            },
        );
        runs += 1;
        if judge(&exec).is_some() {
            forced = candidate;
            i = i.min(forced.len());
        }
    }
    // One final run of the minimized prefix for the definitive record.
    let exec = run_once(
        scenario,
        mutation,
        Mode::Dfs {
            forced: forced.clone(),
        },
    );
    let reason = judge(&exec).unwrap_or_else(|| "failure did not reproduce".to_string());
    (forced, exec, reason)
}

/// Explores `scenario` under `config`. DFS unless `config.seed` selects
/// the random walk.
pub fn explore(scenario: &ExploreScenario, config: &ExploreConfig) -> ExploreOutcome {
    let mut outcome = ExploreOutcome {
        scenario: scenario.name,
        mutation: config.mutation,
        executions: 0,
        pruned_equivalent: 0,
        pruned_independent: 0,
        complete: false,
        counterexample: None,
    };

    if let Some(seed) = config.seed {
        // Seeded random walk: `budget` independent samples.
        for i in 0..config.budget {
            let exec = run_once(
                scenario,
                config.mutation,
                Mode::Random {
                    rng: SimRng::new(seed.wrapping_add(i as u64)),
                },
            );
            outcome.executions += 1;
            if judge(&exec).is_some() {
                let forced: Vec<usize> = exec.taken.iter().map(|c| c.picked).collect();
                let budget = config.budget.saturating_sub(outcome.executions).max(8);
                let (forced, exec, reason) = minimize(scenario, config.mutation, forced, budget);
                outcome.counterexample = Some(Counterexample {
                    log: build_log(scenario, config.mutation, &exec.taken, &reason),
                    forced,
                    reason,
                });
                return outcome;
            }
        }
        return outcome;
    }

    // Exhaustive DFS with DPOR.
    let mut stack: Vec<Vec<usize>> = vec![Vec::new()];
    let mut seen: HashSet<u64> = HashSet::new();
    while let Some(forced) = stack.pop() {
        if outcome.executions >= config.budget {
            return outcome; // budget exhausted with frontier remaining
        }
        let exec = run_once(
            scenario,
            config.mutation,
            Mode::Dfs {
                forced: forced.clone(),
            },
        );
        outcome.executions += 1;

        if judge(&exec).is_some() {
            let budget = config.budget.saturating_sub(outcome.executions).max(8);
            let (forced, exec, reason) = minimize(scenario, config.mutation, forced, budget);
            outcome.counterexample = Some(Counterexample {
                log: build_log(scenario, config.mutation, &exec.taken, &reason),
                forced,
                reason,
            });
            return outcome;
        }

        // Sleep-set analogue: expand each equivalence class once.
        if !seen.insert(rf_signature(&exec.events)) {
            outcome.pruned_equivalent += 1;
            continue;
        }

        // Expand alternatives at decision points past the forced prefix.
        for k in forced.len()..exec.taken.len() {
            let cp = &exec.taken[k];
            let mut prefix: Vec<usize> = exec.taken[..k].iter().map(|c| c.picked).collect();
            for alt in 1..cp.n {
                if cp.tag == "event"
                    && !worth_exploring(
                        &exec.events,
                        cp.time,
                        &cp.labels[cp.picked],
                        &cp.labels[alt],
                    )
                {
                    outcome.pruned_independent += 1;
                    continue;
                }
                if cp.tag == "event" && both_dispatchers(&cp.labels[cp.picked], &cp.labels[alt]) {
                    outcome.pruned_independent += 1;
                    continue;
                }
                if let Some(bound) = config.preemptions {
                    let nonzero = prefix.iter().filter(|&&x| x != 0).count() + 1;
                    if nonzero > bound {
                        continue;
                    }
                }
                prefix.push(alt);
                stack.push(prefix.clone());
                prefix.pop();
            }
        }
    }
    outcome.complete = true;
    outcome
}

/// Two distinct dispatcher daemons at a same-instant tie commute: each
/// only dequeues from its own inbox, and their same-instant sends racing
/// into a common inbox resurface as a delivery choice point.
fn both_dispatchers(a: &str, b: &str) -> bool {
    a != b && a.starts_with("dispatcher-") && b.starts_with("dispatcher-")
}

/// Renders an outcome for the terminal.
pub fn render_outcome(o: &ExploreOutcome) -> String {
    let mut out = format!(
        "scenario `{}` (mutation {}): {} execution(s), {} equivalent + {} independent pruned — ",
        o.scenario, o.mutation, o.executions, o.pruned_equivalent, o.pruned_independent,
    );
    match (&o.counterexample, o.complete) {
        (Some(cx), _) => {
            out.push_str(&format!(
                "FAILED ({} forced pick(s) after minimization)\n  {}\n",
                cx.forced.len(),
                cx.reason.replace('\n', "\n  "),
            ));
        }
        (None, true) => out.push_str("VERIFIED (schedule space exhausted)\n"),
        (None, false) => out.push_str("no violation found (budget exhausted)\n"),
    }
    out
}

// ---------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------

/// `true` when a schedule-log header was produced by the explorer.
pub fn looks_like_explore_log(header: &str) -> bool {
    header.contains("dex-explore")
}

/// Re-executes a counterexample `ScheduleLog`: forces the recorded picks,
/// verifies each decision point matches the recording, and re-judges the
/// execution. Returns the verdict text; `Err` on divergence or if the
/// recorded failure no longer reproduces.
pub fn replay_explore_log(log: &ScheduleLog) -> Result<String, String> {
    let header = log.header.clone();
    let field = |key: &str| -> Option<String> {
        header
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix(key).map(|v| v.to_string()))
    };
    let scenario_name = field("scenario=").ok_or("explore log header missing `scenario=`")?;
    let scenario = find_explore_scenario(&scenario_name)
        .ok_or_else(|| format!("unknown explore scenario `{scenario_name}`"))?;
    let mutation = match field("mutation=") {
        Some(m) => ProtocolMutation::parse(&m)
            .ok_or_else(|| format!("unknown mutation `{m}` in explore log"))?,
        None => ProtocolMutation::None,
    };

    let forced: Vec<usize> = log.steps().iter().map(|s| s.actor as usize).collect();
    let exec = run_once(&scenario, mutation, Mode::Dfs { forced });

    // Verify the replayed run resolved every decision as recorded.
    let mut cursor = dex_sim::ReplayCursor::new(log.clone());
    for c in &exec.taken {
        cursor.advance_checked_named(c.picked as u64, &c.labels[c.picked])?;
    }
    if !cursor.is_finished() {
        return Err(format!(
            "replay stopped early: {} of {} recorded decisions reached",
            cursor.position(),
            log.len()
        ));
    }

    match judge(&exec) {
        Some(reason) => Ok(format!(
            "replayed {} decision(s) on scenario `{}` (mutation {}): failure reproduced\n{}",
            log.len(),
            scenario.name,
            mutation,
            reason
        )),
        None => Err(format!(
            "replayed {} decision(s) on scenario `{}` (mutation {}) but the recorded \
             failure did not reproduce",
            log.len(),
            scenario.name,
            mutation
        )),
    }
}

// ---------------------------------------------------------------------
// Mutation sweep
// ---------------------------------------------------------------------

/// Result of hunting one mutation.
#[derive(Clone, Debug)]
pub struct SweepEntry {
    /// The injected mutation.
    pub mutation: ProtocolMutation,
    /// The scenario that caught it, if any.
    pub caught_by: Option<&'static str>,
    /// Executions spent across scenarios until the catch.
    pub executions: usize,
    /// The minimized counterexample.
    pub counterexample: Option<Counterexample>,
}

/// Runs every seeded protocol mutation against the exploration workloads
/// and reports which scenario caught each one. A mutation the explorer
/// + oracle cannot catch is a hole in the checker.
pub fn mutation_sweep(budget_per_scenario: usize) -> Vec<SweepEntry> {
    ALL_MUTATIONS
        .iter()
        .map(|&mutation| {
            let mut executions = 0usize;
            for scenario in EXPLORE_SCENARIOS.iter().filter(|s| !s.with_faults) {
                let config = ExploreConfig {
                    budget: budget_per_scenario,
                    mutation,
                    ..ExploreConfig::default()
                };
                let outcome = explore(scenario, &config);
                executions += outcome.executions;
                if let Some(cx) = outcome.counterexample {
                    return SweepEntry {
                        mutation,
                        caught_by: Some(scenario.name),
                        executions,
                        counterexample: Some(cx),
                    };
                }
            }
            SweepEntry {
                mutation,
                caught_by: None,
                executions,
                counterexample: None,
            }
        })
        .collect()
}

/// Renders the sweep table.
pub fn render_sweep(entries: &[SweepEntry]) -> String {
    let mut out = String::new();
    for e in entries {
        match (&e.caught_by, &e.counterexample) {
            (Some(name), Some(cx)) => out.push_str(&format!(
                "  mutation {:<22} CAUGHT by `{}` after {} execution(s), \
                 {} forced pick(s) minimized\n",
                e.mutation.name(),
                name,
                e.executions,
                cx.forced.len(),
            )),
            _ => out.push_str(&format!(
                "  mutation {:<22} MISSED after {} execution(s)\n",
                e.mutation.name(),
                e.executions,
            )),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(budget: usize, mutation: ProtocolMutation) -> ExploreConfig {
        ExploreConfig {
            budget,
            mutation,
            ..ExploreConfig::default()
        }
    }

    #[test]
    fn default_schedule_of_every_scenario_is_clean() {
        for scenario in &EXPLORE_SCENARIOS {
            let exec = run_once(
                scenario,
                ProtocolMutation::None,
                Mode::Dfs { forced: vec![] },
            );
            assert!(exec.panic.is_none(), "{}: {:?}", scenario.name, exec.panic);
            assert!(!exec.events.is_empty(), "{} records events", scenario.name);
            assert_eq!(
                judge(&exec),
                None,
                "{} default schedule clean",
                scenario.name
            );
            assert!(
                exec.taken.iter().any(|c| c.n > 1),
                "{} has at least one real choice point",
                scenario.name
            );
        }
    }

    #[test]
    fn exploration_verifies_mp_exhaustively() {
        let outcome = explore(&EXPLORE_SCENARIOS[0], &small(2000, ProtocolMutation::None));
        assert!(outcome.counterexample.is_none(), "{outcome:?}");
        assert!(outcome.complete, "mp must be exhaustible: {outcome:?}");
        assert!(
            outcome.executions > 1,
            "more than one interleaving explored"
        );
    }

    /// The `explore --mutation all` sweep at CI's budget, run once.
    fn ci_sweep() -> &'static [SweepEntry] {
        static SWEEP: std::sync::OnceLock<Vec<SweepEntry>> = std::sync::OnceLock::new();
        SWEEP.get_or_init(|| mutation_sweep(60))
    }

    #[test]
    fn the_three_sweeps_cover_every_mutation_and_catch_each() {
        // What CI runs: `model --mutation all`, `model --sharded --mutation
        // all` (coalescing worlds) and `explore --mutation all`.
        use crate::model_check::{mutation_sweep as model_sweep, CheckOptions};
        use dex_core::model::ModelConfig;
        let world = ModelConfig::new(2, 1).with_extra_thread(1);
        let opts = CheckOptions::default();
        let classic = model_sweep(&world, &opts).unwrap();
        let sharded = model_sweep(&world.with_sharding(), &opts).unwrap();
        for m in ALL_MUTATIONS {
            let model_rows = classic.iter().chain(&sharded).filter(|r| r.mutation == m);
            let mut verdicts: Vec<Option<bool>> = model_rows.map(|r| r.caught).collect();
            assert_eq!(verdicts.len(), 2, "{m}: a row in each model sweep");
            let explored = ci_sweep().iter().filter(|e| e.mutation == m);
            verdicts.extend(explored.map(|e| Some(e.caught_by.is_some())));
            assert_eq!(verdicts.len(), 3, "{m}: a row in the explore sweep");
            // Every sweep that can exercise the variant catches it...
            assert!(!verdicts.contains(&Some(false)), "{m} missed: {verdicts:?}");
            // ...and only page contents are beyond the model's reach.
            let modelled = verdicts[..2].iter().all(|v| *v == Some(true));
            assert_eq!(modelled, !m.corrupts_payload_only(), "{m}: {verdicts:?}");
        }
    }

    #[test]
    fn every_mutation_is_caught_with_a_replayable_counterexample() {
        let entries = ci_sweep();
        assert_eq!(entries.len(), ALL_MUTATIONS.len());
        for e in entries {
            let cx = e.counterexample.as_ref().unwrap_or_else(|| {
                panic!("mutation {} missed:\n{}", e.mutation, render_sweep(entries))
            });
            // The counterexample round-trips through text and replays.
            let text = cx.log.to_text();
            let parsed = ScheduleLog::parse(&text).expect("counterexample parses");
            assert!(looks_like_explore_log(&parsed.header));
            let verdict = replay_explore_log(&parsed).expect("replay reproduces");
            assert!(verdict.contains("reproduced"), "{verdict}");
        }
    }

    #[test]
    fn forwarded_scenarios_explore_clean() {
        for name in ["mp-fwd", "invalidate-fwd"] {
            let scenario = find_explore_scenario(name).expect("scenario registered");
            let outcome = explore(&scenario, &small(2000, ProtocolMutation::None));
            assert!(outcome.counterexample.is_none(), "{name}: {outcome:?}");
            assert!(
                outcome.executions > 1,
                "{name} explored more than one interleaving"
            );
        }
    }

    #[test]
    fn keep_origin_pte_is_caught_under_sharding() {
        // The owner-side seeding of keep-origin-pte only fires on the
        // forwarded path; the sharded scenarios must expose it as an SC
        // violation (or a protocol panic) without any classic fallback.
        let caught = ["invalidate-fwd", "mp-fwd"].iter().any(|name| {
            let scenario = find_explore_scenario(name).expect("scenario registered");
            let outcome = explore(&scenario, &small(2000, ProtocolMutation::KeepOriginPte));
            outcome.counterexample.is_some()
        });
        assert!(caught, "keep-origin-pte escaped both sharded scenarios");
    }

    #[test]
    fn random_walk_mode_runs_within_budget() {
        let config = ExploreConfig {
            budget: 3,
            seed: Some(7),
            ..ExploreConfig::default()
        };
        let outcome = explore(&EXPLORE_SCENARIOS[1], &config);
        assert!(outcome.counterexample.is_none(), "{outcome:?}");
        assert_eq!(outcome.executions, 3);
        assert!(!outcome.complete, "sampling never claims completeness");
    }

    #[test]
    fn bounded_preemption_search_is_a_subset_of_full_dfs() {
        let full = explore(&EXPLORE_SCENARIOS[0], &small(2000, ProtocolMutation::None));
        let bounded = explore(
            &EXPLORE_SCENARIOS[0],
            &ExploreConfig {
                budget: 2000,
                preemptions: Some(1),
                ..ExploreConfig::default()
            },
        );
        assert!(bounded.counterexample.is_none());
        assert!(bounded.complete);
        assert!(
            bounded.executions <= full.executions,
            "bound {} > full {}",
            bounded.executions,
            full.executions
        );
    }
}
