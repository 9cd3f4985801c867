//! Exhaustive explicit-state exploration of the directory protocol.
//!
//! The model ([`dex_core::model`]) is a *closed finite world*: a handful
//! of nodes and pages, one or two threads per node, every thread free to
//! issue any operation whenever it is idle, every in-flight message free
//! to arrive in any order. Breadth-first search over canonicalized states
//! therefore covers **all interleavings of all operation sequences** the
//! world can produce, and BFS predecessor pointers give a *minimal*
//! counterexample when an invariant breaks.
//!
//! Two classes of property are checked:
//!
//! * **Safety** — checked on every transition by
//!   [`ModelState::apply`]/[`ModelState::check_safety`]: single-writer
//!   exclusivity, owner-set/PTE agreement, no lost invalidations, and
//!   leader–follower coalescing never granting a follower before its
//!   leader.
//! * **Liveness** — after the reachable graph is built: from every
//!   reachable state a quiescent state (no in-flight message, no open
//!   transaction, all threads idle) must be *co-reachable*. This single
//!   check subsumes "every transaction drains" and "retry never livelocks
//!   under fairness": a retry loop that can never exit shows up as a
//!   strongly connected region with no path to quiescence.
//!
//! Counterexamples serialize to the deterministic-replay format of
//! [`dex_sim::ScheduleLog`]; `dex-check replay <file>` re-executes them
//! step by step with divergence checking.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

use dex_core::model::{ModelConfig, ModelEvent, ModelKey, ModelState, Op, Violation};
use dex_core::{ProtocolMutation, ALL_MUTATIONS};
use dex_os::Vpn;
use dex_sim::{ReplayCursor, ScheduleLog};

/// Exploration limits.
#[derive(Clone, Debug)]
pub struct CheckOptions {
    /// Abort (with an honest error) after this many distinct states.
    pub max_states: usize,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            max_states: 4_000_000,
        }
    }
}

/// Statistics of a successful exploration.
#[derive(Clone, Copy, Debug)]
pub struct PassReport {
    /// Distinct canonical states reached.
    pub states: usize,
    /// Transitions examined.
    pub transitions: u64,
    /// Reachable states that are quiescent.
    pub quiescent: usize,
}

/// A minimal event sequence exposing an invariant violation.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The model configuration explored.
    pub config: ModelConfig,
    /// "safety" or "liveness".
    pub kind: &'static str,
    /// The events from the initial state, in order.
    pub events: Vec<ModelEvent>,
    /// The violated invariants.
    pub violations: Vec<Violation>,
    /// Rendering of the violating state.
    pub final_state: String,
}

/// Result of exhaustively exploring one configuration.
#[derive(Clone, Debug)]
pub enum CheckOutcome {
    /// All invariants hold on the full reachable graph.
    Pass(PassReport),
    /// An invariant broke; the counterexample is minimal (BFS depth).
    Fail(Box<Counterexample>),
}

impl CheckOutcome {
    /// Whether the exploration found no violation.
    pub fn is_pass(&self) -> bool {
        matches!(self, CheckOutcome::Pass(_))
    }
}

/// Collapses duplicate violations (the same broken invariant is often
/// reported both while applying the offending event and by the final
/// state check).
fn dedup_violations(violations: &mut Vec<Violation>) {
    let mut seen = std::collections::HashSet::new();
    violations.retain(|v| seen.insert((v.invariant, v.detail.clone())));
}

/// Exhaustively explores `config`, checking safety on every transition
/// and quiescence co-reachability on the final graph.
///
/// # Errors
///
/// Returns an error when the state space exceeds
/// [`CheckOptions::max_states`] — an honest "too big" rather than a
/// false "verified".
pub fn check_model(config: &ModelConfig, opts: &CheckOptions) -> Result<CheckOutcome, String> {
    let init = ModelState::new(config.clone());
    {
        let mut violations = Vec::new();
        init.check_safety(&mut violations);
        if !violations.is_empty() {
            return Ok(CheckOutcome::Fail(Box::new(Counterexample {
                config: config.clone(),
                kind: "safety",
                events: Vec::new(),
                final_state: init.describe(),
                violations,
            })));
        }
    }

    let mut states: Vec<ModelState> = vec![init];
    let mut keys: HashMap<ModelKey, u32> = HashMap::new();
    keys.insert(states[0].canonical_key(), 0);
    // Discovery edge into each state (None for the root).
    let mut preds: Vec<Option<(u32, ModelEvent)>> = vec![None];
    // Every edge of the reachable graph (for co-reachability).
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut queue: VecDeque<u32> = VecDeque::from([0]);
    let mut transitions: u64 = 0;

    while let Some(idx) = queue.pop_front() {
        let enabled = states[idx as usize].enabled_events();
        for event in enabled {
            let mut next = states[idx as usize].clone();
            let mut violations = next.apply(event);
            next.check_safety(&mut violations);
            dedup_violations(&mut violations);
            transitions += 1;
            if !violations.is_empty() {
                let mut events = path_to(&preds, idx);
                events.push(event);
                return Ok(CheckOutcome::Fail(Box::new(Counterexample {
                    config: config.clone(),
                    kind: "safety",
                    events,
                    final_state: next.describe(),
                    violations,
                })));
            }
            match keys.entry(next.canonical_key()) {
                Entry::Occupied(e) => edges.push((idx, *e.get())),
                Entry::Vacant(e) => {
                    if states.len() >= opts.max_states {
                        return Err(format!(
                            "state space exceeds {} states; refusing to claim verification \
                             (shrink the configuration or raise --max-states)",
                            opts.max_states
                        ));
                    }
                    let id = states.len() as u32;
                    e.insert(id);
                    states.push(next);
                    preds.push(Some((idx, event)));
                    edges.push((idx, id));
                    queue.push_back(id);
                }
            }
        }
    }

    // Liveness: every reachable state must be able to drain back to some
    // quiescent state. Mark quiescent states, then walk edges backwards.
    let n = states.len();
    let mut rev: Vec<Vec<u32>> = vec![Vec::new(); n];
    for &(a, b) in &edges {
        rev[b as usize].push(a);
    }
    let mut drains = vec![false; n];
    let mut work: VecDeque<u32> = VecDeque::new();
    let mut quiescent = 0usize;
    for (i, s) in states.iter().enumerate() {
        if s.is_quiescent() {
            drains[i] = true;
            quiescent += 1;
            work.push_back(i as u32);
        }
    }
    while let Some(i) = work.pop_front() {
        for &p in &rev[i as usize] {
            if !drains[p as usize] {
                drains[p as usize] = true;
                work.push_back(p);
            }
        }
    }
    // States were discovered in BFS order, so the first stuck state found
    // is at minimal depth.
    if let Some(stuck) = (0..n).find(|&i| !drains[i]) {
        let events = path_to(&preds, stuck as u32);
        return Ok(CheckOutcome::Fail(Box::new(Counterexample {
            config: config.clone(),
            kind: "liveness",
            events,
            final_state: states[stuck].describe(),
            violations: vec![Violation {
                invariant: "liveness.drains",
                detail: format!(
                    "no quiescent state is reachable from here \
                     (in-flight work can never complete; {} of {} reachable states drain)",
                    n - 1,
                    n
                ),
            }],
        })));
    }

    Ok(CheckOutcome::Pass(PassReport {
        states: n,
        transitions,
        quiescent,
    }))
}

/// Reconstructs the event path from the root to `idx` via the BFS
/// discovery edges.
fn path_to(preds: &[Option<(u32, ModelEvent)>], mut idx: u32) -> Vec<ModelEvent> {
    let mut events = Vec::new();
    while let Some((parent, event)) = preds[idx as usize] {
        events.push(event);
        idx = parent;
    }
    events.reverse();
    events
}

// ---- stable event encoding (replay substrate) ----

const TAG_ISSUE: u64 = 1 << 56;
const TAG_REISSUE: u64 = 2 << 56;
const TAG_DELIVER: u64 = 3 << 56;
const TAG_MASK: u64 = 0xff << 56;

/// Encodes a model event as a stable `u64` actor for [`ScheduleLog`].
pub fn encode_event(event: ModelEvent) -> u64 {
    match event {
        ModelEvent::Issue { thread, op } => {
            let (kind, vpn) = match op {
                Op::Read(v) => (0u64, v.index()),
                Op::Write(v) => (1, v.index()),
                Op::Evict(v) => (2, v.index()),
            };
            TAG_ISSUE | (thread as u64) << 32 | kind << 24 | vpn
        }
        ModelEvent::ReIssue { thread } => TAG_REISSUE | thread as u64,
        ModelEvent::Deliver { msg } => TAG_DELIVER | msg as u64,
    }
}

/// Decodes an actor written by [`encode_event`].
pub fn decode_event(actor: u64) -> Option<ModelEvent> {
    match actor & TAG_MASK {
        TAG_ISSUE => {
            let thread = ((actor >> 32) & 0xffff) as usize;
            let vpn = Vpn::new(actor & 0xff_ffff);
            let op = match (actor >> 24) & 0xff {
                0 => Op::Read(vpn),
                1 => Op::Write(vpn),
                2 => Op::Evict(vpn),
                _ => return None,
            };
            Some(ModelEvent::Issue { thread, op })
        }
        TAG_REISSUE => Some(ModelEvent::ReIssue {
            thread: (actor & 0xffff) as usize,
        }),
        TAG_DELIVER => Some(ModelEvent::Deliver {
            msg: (actor & 0xffff_ffff) as usize,
        }),
        _ => None,
    }
}

/// Serializes a counterexample as a replayable [`ScheduleLog`].
pub fn counterexample_to_log(cex: &Counterexample) -> ScheduleLog {
    let threads: Vec<String> = cex.config.threads.iter().map(|n| n.to_string()).collect();
    let mut log = ScheduleLog::new(format!(
        "dex-check model nodes={} pages={} threads={} mutation={} sharded={} kind={}",
        cex.config.nodes,
        cex.config.pages,
        threads.join(","),
        cex.config.mutation.name(),
        cex.config.sharded,
        cex.kind,
    ));
    for &event in &cex.events {
        log.push(encode_event(event), format!("{event}"));
    }
    log
}

/// Outcome of replaying a recorded counterexample.
#[derive(Clone, Debug)]
pub struct ReplayOutcome {
    /// The configuration recovered from the log header.
    pub config: ModelConfig,
    /// Steps applied.
    pub steps: usize,
    /// Violations the replayed run exposed (safety only; liveness
    /// counterexamples end in a stuck-but-not-yet-wrong state).
    pub violations: Vec<Violation>,
    /// Rendering of the final state.
    pub final_state: String,
}

/// Re-executes a `dex-check model` counterexample step by step,
/// verifying the replay does not diverge from the recording.
///
/// # Errors
///
/// Returns an error for malformed logs, undecodable actors, events that
/// are not enabled in the replayed state (divergence), or cursor
/// mismatches.
pub fn replay_log(text: &str) -> Result<ReplayOutcome, String> {
    let log = ScheduleLog::parse(text)?;
    let config = config_from_header(&log.header)?;
    let mut cursor = ReplayCursor::new(log);
    let mut state = ModelState::new(config.clone());
    let mut violations = Vec::new();
    let mut steps = 0usize;
    while let Some(step) = cursor.peek() {
        let actor = step.actor;
        let event = decode_event(actor)
            .ok_or_else(|| format!("step {steps}: undecodable actor {actor:#x}"))?;
        if !state.enabled_events().contains(&event) {
            return Err(format!(
                "replay diverged at step {steps}: event `{event}` is not enabled\n{}",
                state.describe()
            ));
        }
        cursor.advance_checked(actor)?;
        violations.extend(state.apply(event));
        state.check_safety(&mut violations);
        dedup_violations(&mut violations);
        steps += 1;
        if !violations.is_empty() {
            break;
        }
    }
    Ok(ReplayOutcome {
        config,
        steps,
        violations,
        final_state: state.describe(),
    })
}

fn config_from_header(header: &str) -> Result<ModelConfig, String> {
    let mut nodes: Option<u16> = None;
    let mut pages: Option<u64> = None;
    let mut threads: Option<Vec<u16>> = None;
    let mut mutation = ProtocolMutation::None;
    let mut sharded = false;
    for token in header.split_whitespace() {
        let Some((key, value)) = token.split_once('=') else {
            continue;
        };
        match key {
            "nodes" => nodes = Some(value.parse().map_err(|e| format!("bad nodes: {e}"))?),
            "pages" => pages = Some(value.parse().map_err(|e| format!("bad pages: {e}"))?),
            "threads" => {
                let parsed: Result<Vec<u16>, _> =
                    value.split(',').map(|s| s.parse::<u16>()).collect();
                threads = Some(parsed.map_err(|e| format!("bad threads: {e}"))?);
            }
            "mutation" => {
                mutation = ProtocolMutation::parse(value)
                    .ok_or_else(|| format!("unknown mutation {value:?}"))?;
            }
            "sharded" => {
                sharded = value
                    .parse()
                    .map_err(|e| format!("bad sharded flag: {e}"))?;
            }
            _ => {}
        }
    }
    let nodes = nodes.ok_or("log header missing nodes=")?;
    let pages = pages.ok_or("log header missing pages=")?;
    let mut config = ModelConfig::new(nodes, pages).with_mutation(mutation);
    if sharded {
        config = config.with_sharding();
    }
    if let Some(threads) = threads {
        config.threads = threads;
    }
    Ok(config)
}

/// Renders a counterexample for the terminal.
pub fn render_counterexample(cex: &Counterexample) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{} violation in {} steps (nodes={} pages={} threads={:?} mutation={} sharded={}):\n",
        cex.kind,
        cex.events.len(),
        cex.config.nodes,
        cex.config.pages,
        cex.config.threads,
        cex.config.mutation.name(),
        cex.config.sharded,
    ));
    for v in &cex.violations {
        out.push_str(&format!("  violated: {v}\n"));
    }
    out.push_str("minimal counterexample:\n");
    for (i, event) in cex.events.iter().enumerate() {
        out.push_str(&format!("  step {i:>3}: {event}\n"));
    }
    out.push_str("final state:\n");
    for line in cex.final_state.lines() {
        out.push_str(&format!("  {line}\n"));
    }
    out
}

/// Why `mutation` cannot fire in `config`, if it cannot — a sweep must
/// not count a trivial pass as a missed bug. Payload mutations corrupt
/// page contents the model does not carry (`dex-check explore` hunts
/// those over real frames); the coalescing mutations need a node hosting
/// two threads, else no leader–follower pair ever forms.
pub fn not_exercisable(mutation: ProtocolMutation, config: &ModelConfig) -> Option<&'static str> {
    let mut nodes = config.threads.clone();
    nodes.sort_unstable();
    let coalesces = nodes.windows(2).any(|w| w[0] == w[1]);
    if mutation.corrupts_payload_only() {
        Some("corrupts page contents only (hunted by `explore`)")
    } else if mutation.needs_coalescing() && !coalesces {
        Some("needs two same-node threads (use --coalesce)")
    } else {
        None
    }
}

/// One row of a model mutation sweep.
#[derive(Clone, Debug)]
pub struct SweepRow {
    /// The protocol explored ([`ProtocolMutation::None`]: the faithful one).
    pub mutation: ProtocolMutation,
    /// Whether a violation was found; `None` when the world cannot
    /// exercise the mutation (listed as `n/a`, never counted as a miss).
    pub caught: Option<bool>,
    /// Human-readable outcome.
    pub line: String,
}

impl SweepRow {
    /// The row is as it should be: the faithful protocol passes, an
    /// exercisable mutation is caught.
    pub fn ok(&self) -> bool {
        self.caught
            .is_none_or(|caught| caught == (self.mutation != ProtocolMutation::None))
    }
}

/// Explores `base` unmutated, then once per seeded mutation, verifying
/// the faithful protocol passes and every mutation the world can
/// exercise is caught (the rest are listed as `n/a` with the reason).
pub fn mutation_sweep(base: &ModelConfig, opts: &CheckOptions) -> Result<Vec<SweepRow>, String> {
    let mut rows = Vec::new();
    for mutation in std::iter::once(ProtocolMutation::None).chain(ALL_MUTATIONS) {
        let config = base.clone().with_mutation(mutation);
        if let Some(why) = not_exercisable(mutation, &config) {
            let line = format!("mutation {:<20} n/a: {why}", mutation.name());
            rows.push(SweepRow {
                mutation,
                caught: None,
                line,
            });
            continue;
        }
        let outcome = check_model(&config, opts)?;
        let expected_pass = mutation == ProtocolMutation::None;
        let line = match &outcome {
            CheckOutcome::Pass(r) => format!(
                "mutation {:<20} pass: {} states, {} transitions, {} quiescent{}",
                mutation.name(),
                r.states,
                r.transitions,
                r.quiescent,
                if expected_pass { "" } else { "  ** MISSED **" },
            ),
            CheckOutcome::Fail(cex) => format!(
                "mutation {:<20} caught: {} violation `{}` in {} steps{}",
                mutation.name(),
                cex.kind,
                cex.violations
                    .first()
                    .map(|v| v.invariant)
                    .unwrap_or("unknown"),
                cex.events.len(),
                if expected_pass {
                    "  ** FALSE POSITIVE **"
                } else {
                    ""
                },
            ),
        };
        rows.push(SweepRow {
            mutation,
            caught: Some(!outcome.is_pass()),
            line,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> CheckOptions {
        CheckOptions::default()
    }

    #[test]
    fn faithful_two_node_world_verifies() {
        let config = ModelConfig::new(2, 1);
        match check_model(&config, &opts()).unwrap() {
            CheckOutcome::Pass(r) => {
                assert!(r.states > 10, "explored {} states", r.states);
                assert!(r.quiescent >= 1);
            }
            CheckOutcome::Fail(cex) => panic!("{}", render_counterexample(&cex)),
        }
    }

    #[test]
    fn faithful_world_with_coalescing_verifies() {
        let config = ModelConfig::new(2, 1).with_extra_thread(1);
        let outcome = check_model(&config, &opts()).unwrap();
        assert!(outcome.is_pass(), "coalescing world must verify");
    }

    #[test]
    fn every_mutation_is_caught_with_minimal_counterexample() {
        for mutation in ALL_MUTATIONS {
            let config = ModelConfig::new(2, 1)
                .with_extra_thread(1)
                .with_mutation(mutation);
            if not_exercisable(mutation, &config).is_some() {
                continue;
            }
            match check_model(&config, &opts()).unwrap() {
                CheckOutcome::Pass(_) => {
                    panic!("mutation {} escaped the checker", mutation.name())
                }
                CheckOutcome::Fail(cex) => {
                    assert!(!cex.events.is_empty(), "counterexample has steps");
                    // The rendering includes every step.
                    let text = render_counterexample(&cex);
                    assert!(text.contains("step"), "{text}");
                }
            }
        }
    }

    #[test]
    fn sharded_three_node_world_verifies() {
        // Three nodes with sharding puts the directory home on node 1:
        // every remote fault is a two-hop forwarded transaction, and node
        // 2's requests exercise home != origin != requester.
        let config = ModelConfig::new(3, 1).with_sharding();
        match check_model(&config, &opts()).unwrap() {
            CheckOutcome::Pass(r) => {
                assert!(r.states > 10, "explored {} states", r.states);
                assert!(r.quiescent >= 1);
            }
            CheckOutcome::Fail(cex) => panic!("{}", render_counterexample(&cex)),
        }
    }

    #[test]
    fn sharded_mutations_are_caught_and_round_trip_through_replay() {
        // The sharded world must keep its teeth: keep-origin-pte (the
        // owner/home skipping the PTE clear on an ownership transfer)
        // breaks owner-PTE agreement on the forwarded path, and the
        // counterexample replays from its serialized log, sharded flag
        // included.
        let config = ModelConfig::new(2, 1)
            .with_sharding()
            .with_mutation(ProtocolMutation::KeepOriginPte);
        let cex = match check_model(&config, &opts()).unwrap() {
            CheckOutcome::Fail(cex) => cex,
            CheckOutcome::Pass(_) => panic!("keep-origin-pte escaped the sharded checker"),
        };
        assert_eq!(cex.kind, "safety");
        let text = counterexample_to_log(&cex).to_text();
        assert!(text.contains("sharded=true"), "{text}");
        let replayed = replay_log(&text).unwrap();
        assert!(replayed.config.sharded);
        assert_eq!(replayed.steps, cex.events.len());
        assert!(
            !replayed.violations.is_empty(),
            "replay reproduces the violation"
        );
    }

    #[test]
    fn counterexample_round_trips_through_replay() {
        let config = ModelConfig::new(2, 1)
            .with_extra_thread(1)
            .with_mutation(ProtocolMutation::SkipInvalidate);
        let cex = match check_model(&config, &opts()).unwrap() {
            CheckOutcome::Fail(cex) => cex,
            CheckOutcome::Pass(_) => panic!("mutation must be caught"),
        };
        assert_eq!(cex.kind, "safety");
        let text = counterexample_to_log(&cex).to_text();
        let replayed = replay_log(&text).unwrap();
        assert_eq!(replayed.steps, cex.events.len());
        assert!(
            !replayed.violations.is_empty(),
            "replay reproduces the violation"
        );
        assert_eq!(
            replayed.violations[0].invariant,
            cex.violations[0].invariant
        );
    }

    #[test]
    fn liveness_counterexample_replays_to_a_clean_but_stuck_state() {
        let config = ModelConfig::new(2, 1)
            .with_extra_thread(1)
            .with_mutation(ProtocolMutation::DropAck);
        let cex = match check_model(&config, &opts()).unwrap() {
            CheckOutcome::Fail(cex) => cex,
            CheckOutcome::Pass(_) => panic!("drop-ack must be caught"),
        };
        assert_eq!(cex.kind, "liveness");
        let text = counterexample_to_log(&cex).to_text();
        let replayed = replay_log(&text).unwrap();
        assert_eq!(replayed.steps, cex.events.len());
        assert!(replayed.violations.is_empty());
    }

    #[test]
    fn event_encoding_round_trips() {
        let events = [
            ModelEvent::Issue {
                thread: 3,
                op: Op::Write(Vpn::new(7)),
            },
            ModelEvent::Issue {
                thread: 0,
                op: Op::Evict(Vpn::new(0)),
            },
            ModelEvent::ReIssue { thread: 12 },
            ModelEvent::Deliver { msg: 5 },
        ];
        for e in events {
            assert_eq!(decode_event(encode_event(e)), Some(e));
        }
    }

    #[test]
    fn max_states_cap_reports_an_honest_error() {
        let config = ModelConfig::new(3, 2);
        let err = check_model(&config, &CheckOptions { max_states: 100 }).unwrap_err();
        assert!(err.contains("state space exceeds"), "{err}");
    }
}
