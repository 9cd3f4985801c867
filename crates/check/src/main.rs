//! `dex-check` — the verification driver for the DEX reproduction.
//!
//! ```text
//! dex-check model  [--nodes N] [--pages P] [--coalesce] [--sharded]
//!                  [--mutation NAME|all] [--max-states N] [--write-trace FILE]
//! dex-check explore [--scenario NAME|all] [--budget N] [--preemptions N]
//!                   [--seed S] [--mutation NAME|all] [--write-trace FILE]
//! dex-check replay FILE
//! dex-check races  [--scenario NAME]
//! dex-check faults [--scenario NAME]
//! dex-check lint   [--root DIR]
//! dex-check timeline [--out FILE] [--spans-out FILE]
//! dex-check metrics
//! dex-check perf [--results DIR] [--baselines DIR] [--update] [--self-test]
//! dex-check whatif [--workload NAME] [--factor F] [--component NAME]...
//!                  [--out FILE] [--smoke] [--self-test]
//! dex-check all
//! ```
//!
//! Exit status: `0` when every requested check passes, `1` when a check
//! finds a violation (or a mutation sweep misses one), `2` on usage or
//! I/O errors.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use dex_check::{
    check_model, counterexample_to_log, mutation_sweep, render_counterexample, render_race_report,
    replay_log, replay_plan, run_fault_scenario, run_lint, run_observed_workload, run_scenario,
    CheckOptions, CheckOutcome, FAULT_SCENARIOS, SCENARIOS,
};
use dex_core::model::ModelConfig;
use dex_core::ProtocolMutation;

/// One-line description of a model world for status output.
fn describe_world(config: &ModelConfig) -> String {
    format!(
        "nodes={} pages={} threads={:?} mutation={} sharded={}",
        config.nodes,
        config.pages,
        config.threads,
        config.mutation.name(),
        config.sharded,
    )
}

const USAGE: &str = "\
dex-check — protocol model checker, race/deadlock analysis, and lints

USAGE:
  dex-check model  [--nodes N] [--pages P] [--coalesce] [--sharded]
                   [--mutation NAME|all] [--max-states N] [--write-trace FILE]
  dex-check explore [--scenario NAME|all] [--budget N] [--preemptions N]
                    [--seed S] [--mutation NAME|all] [--write-trace FILE]
  dex-check replay FILE
  dex-check races  [--scenario NAME]
  dex-check faults [--scenario NAME]
  dex-check lint   [--root DIR]
  dex-check timeline [--out FILE] [--spans-out FILE]
  dex-check metrics
  dex-check perf [--results DIR] [--baselines DIR] [--update] [--self-test]
  dex-check whatif [--workload NAME] [--factor F] [--component NAME]...
                   [--out FILE] [--smoke] [--self-test]
  dex-check all

SUBCOMMANDS:
  model    exhaustively explore the directory protocol over a closed
           finite world and check its safety and liveness invariants
  explore  systematic schedule exploration over the *real* simulator:
           DFS with dynamic partial-order reduction over every engine
           choice point, judged by an offline sequential-consistency
           oracle; violations are minimized into replayable schedule
           logs. `--mutation all` seeds protocol bugs in the real fault
           path and expects the explorer + oracle to catch each one
  replay   re-execute a counterexample trace written by `model`, a
           schedule log written by `explore` (header `dex-explore ...`:
           the scenario re-runs under the forced schedule, every
           decision is verified against the recording, and the failure
           must reproduce), or — when FILE starts with `# faultplan` —
           re-run the canonical workload under that fault plan twice
           and verify it completes deterministically with a consistent
           directory
  races    run the built-in workloads and analyze their recorded event
           streams for data races and lock-order cycles
  faults   run the deterministic fault-injection scenarios (empty-plan
           identity, seeded replay, stall completion, crash recovery)
  lint     run the source-level invariant lints over the workspace
  timeline run the sample traced workload, print its critical-path
           report, and (with --out) write the Chrome trace-event JSON
           for Perfetto / chrome://tracing; --spans-out writes the
           `# dex-spans v2` text form. Fails unless at least one fault
           stitches requester -> origin -> requester across nodes.
  metrics  run the sample workload with metrics on, print the per-node /
           per-link counter and histogram snapshot; fails unless every
           DexStats field is the sum of its per-node counter and the
           per-link msgs/bytes sum to msgs.sent/bytes.sent
  perf     diff fresh BENCH_*.json results (written by the crates/bench
           binaries, see DEX_BENCH_OUT) against the committed baselines
           in baselines/perf: the simulator is deterministic, so every
           field must match exactly; --update rewrites the baselines
           from the results dir; --self-test changes each field of each
           committed baseline by one unit and verifies the comparison
           fails (proves the gate has teeth)
  whatif   causal what-if profiler: sweep virtual speedups/slowdowns
           over the named CostModel/NetConfig components for a chosen
           workload — the deterministic simulator makes each virtual
           speedup exact, not sampled — and print the ranked causal
           attribution report (`dex-prof` renders the same data from
           the `# dex-whatif v1` file written by --out). --self-test
           requires the known-dominant component of a retry-bound
           scenario to rank first and an irrelevant one to rank last
  all      lint + races + faults + explore (small budget + mutation
           sweep) + timeline + metrics + perf self-test + whatif
           self-test + model (2 nodes x 2 pages, the 3-node coalescing
           world, and the 3-node sharded two-hop world, each with a
           full mutation sweep)

MODEL OPTIONS:
  --nodes N          number of nodes, 2..=4 (default 2)
  --pages P          number of pages, 1..=2 (default 1)
  --coalesce         add a second thread on node 1 (leader-follower paths)
  --sharded          move the directory home to node 1 (two-hop forwarded
                     grants, batched invalidations, home != origin paths)
  --mutation NAME    inject a protocol bug; `all` sweeps every mutation
                     the world can exercise and expects each to be caught
                     (payload corruption is `explore`'s; default none)
  --max-states N     state-count safety valve (default 4000000)
  --write-trace F    on violation, write the counterexample replay log to F

EXPLORE OPTIONS:
  --scenario NAME    one of the exploration workloads, or `all` (default)
  --budget N         max executions per scenario (default 2000)
  --preemptions N    bounded-preemption search: expand only schedules
                     with at most N non-default picks (default unbounded)
  --seed S           switch from exhaustive DFS to a seeded random walk
                     of `--budget` samples
  --mutation NAME    inject a seeded protocol bug and expect the explorer
                     to catch it; `all` sweeps every mutation
  --write-trace F    write minimized counterexample schedule log(s) to F
                     (sweep mode appends `.<mutation>`)

PERF OPTIONS:
  --results DIR      directory with fresh BENCH_*.json files (default
                     $DEX_BENCH_OUT, then the current directory)
  --baselines DIR    committed baselines (default <workspace>/baselines/perf)
  --update           rewrite the baselines from the results directory
  --self-test        skip the comparison; verify a one-unit change in any
                     field of each committed baseline is caught

WHATIF OPTIONS:
  --workload NAME    workload to sweep: pingpong (retry-bound), migrate
                     (migration-bound), or shard (two-hop grants)
                     (default pingpong)
  --factor F         cost scale per experiment; 0.5 = virtual speedup,
                     2.0 = virtual slowdown (default 0.5)
  --component NAME   sweep only this component (repeatable; default:
                     the full CostModel + net.* registry)
  --out FILE         also write the `# dex-whatif v1` report to FILE
  --smoke            small fixed sweep (3 components) for CI smoke
  --self-test        run the ranked-attribution self-test instead
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => {
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match cmd {
        "model" => cmd_model(rest),
        "explore" => cmd_explore(rest),
        "replay" => cmd_replay(rest),
        "races" => cmd_races(rest),
        "faults" => cmd_faults(rest),
        "lint" => cmd_lint(rest),
        "timeline" => cmd_timeline(rest),
        "metrics" => cmd_metrics(rest),
        "perf" => cmd_perf(rest),
        "whatif" => cmd_whatif(rest),
        "all" => cmd_all(rest),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown subcommand `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("dex-check: {message}");
            ExitCode::from(2)
        }
    }
}

/// Parsed `model` arguments.
struct ModelArgs {
    nodes: u16,
    pages: u64,
    coalesce: bool,
    sharded: bool,
    mutation: Option<String>,
    max_states: usize,
    write_trace: Option<PathBuf>,
}

fn parse_model_args(args: &[String]) -> Result<ModelArgs, String> {
    let mut parsed = ModelArgs {
        nodes: 2,
        pages: 1,
        coalesce: false,
        sharded: false,
        mutation: None,
        max_states: CheckOptions::default().max_states,
        write_trace: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--nodes" => parsed.nodes = parse_num(value("--nodes")?, 2, 4)? as u16,
            "--pages" => parsed.pages = parse_num(value("--pages")?, 1, 2)?,
            "--coalesce" => parsed.coalesce = true,
            "--sharded" => parsed.sharded = true,
            "--mutation" => parsed.mutation = Some(value("--mutation")?.clone()),
            "--max-states" => {
                parsed.max_states = parse_num(value("--max-states")?, 1, u64::MAX)? as usize
            }
            "--write-trace" => parsed.write_trace = Some(PathBuf::from(value("--write-trace")?)),
            other => return Err(format!("unknown flag `{other}` for `model`\n\n{USAGE}")),
        }
    }
    Ok(parsed)
}

fn parse_num(text: &str, min: u64, max: u64) -> Result<u64, String> {
    let n: u64 = text
        .parse()
        .map_err(|_| format!("`{text}` is not a number"))?;
    if n < min || n > max {
        return Err(format!("`{text}` out of range {min}..={max}"));
    }
    Ok(n)
}

fn cmd_model(args: &[String]) -> Result<bool, String> {
    let parsed = parse_model_args(args)?;
    let mut config = ModelConfig::new(parsed.nodes, parsed.pages);
    if parsed.coalesce {
        config = config.with_extra_thread(1);
    }
    if parsed.sharded {
        config = config.with_sharding();
    }
    let opts = CheckOptions {
        max_states: parsed.max_states,
    };

    if parsed.mutation.as_deref() == Some("all") {
        let started = std::time::Instant::now();
        let rows = mutation_sweep(&config, &opts)?;
        for row in &rows {
            println!("{}", row.line);
        }
        let all_ok = rows.iter().all(|row| row.ok());
        println!(
            "mutation sweep: {} in {:.2?}",
            if all_ok { "PASS" } else { "FAIL" },
            started.elapsed()
        );
        return Ok(all_ok);
    }

    if let Some(name) = &parsed.mutation {
        let mutation = ProtocolMutation::parse(name)
            .ok_or_else(|| format!("unknown mutation `{name}` (try `--mutation all`)"))?;
        config = config.with_mutation(mutation);
    }

    let started = std::time::Instant::now();
    let outcome = check_model(&config, &opts)?;
    match outcome {
        CheckOutcome::Pass(report) => {
            println!(
                "model PASS ({}): {} states, {} transitions, {} quiescent, {:.2?}",
                describe_world(&config),
                report.states,
                report.transitions,
                report.quiescent,
                started.elapsed()
            );
            Ok(true)
        }
        CheckOutcome::Fail(cex) => {
            println!("{}", render_counterexample(&cex));
            if let Some(path) = &parsed.write_trace {
                let log = counterexample_to_log(&cex);
                std::fs::write(path, log.to_text())
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
                println!("counterexample trace written to {}", path.display());
            }
            Ok(false)
        }
    }
}

/// Parsed `explore` arguments.
struct ExploreArgs {
    scenario: Option<String>,
    budget: usize,
    preemptions: Option<usize>,
    seed: Option<u64>,
    mutation: Option<String>,
    write_trace: Option<PathBuf>,
}

fn parse_explore_args(args: &[String]) -> Result<ExploreArgs, String> {
    let mut parsed = ExploreArgs {
        scenario: None,
        budget: 2000,
        preemptions: None,
        seed: None,
        mutation: None,
        write_trace: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--scenario" => parsed.scenario = Some(value("--scenario")?.clone()),
            "--budget" => parsed.budget = parse_num(value("--budget")?, 1, u64::MAX)? as usize,
            "--preemptions" => {
                parsed.preemptions = Some(parse_num(value("--preemptions")?, 0, 64)? as usize)
            }
            "--seed" => parsed.seed = Some(parse_num(value("--seed")?, 0, u64::MAX)?),
            "--mutation" => parsed.mutation = Some(value("--mutation")?.clone()),
            "--write-trace" => parsed.write_trace = Some(PathBuf::from(value("--write-trace")?)),
            other => return Err(format!("unknown flag `{other}` for `explore`\n\n{USAGE}")),
        }
    }
    Ok(parsed)
}

fn cmd_explore(args: &[String]) -> Result<bool, String> {
    use dex_check::explore;
    let parsed = parse_explore_args(args)?;
    let started = std::time::Instant::now();

    if parsed.mutation.as_deref() == Some("all") {
        let entries = explore::mutation_sweep(parsed.budget);
        print!("{}", explore::render_sweep(&entries));
        if let Some(path) = &parsed.write_trace {
            for e in &entries {
                if let Some(cx) = &e.counterexample {
                    let file = PathBuf::from(format!("{}.{}", path.display(), e.mutation.name()));
                    std::fs::write(&file, cx.log.to_text())
                        .map_err(|err| format!("writing {}: {err}", file.display()))?;
                    println!("counterexample schedule written to {}", file.display());
                }
            }
        }
        let all_caught = entries.iter().all(|e| e.caught_by.is_some());
        println!(
            "explore mutation sweep: {} in {:.2?}",
            if all_caught { "PASS" } else { "FAIL" },
            started.elapsed()
        );
        return Ok(all_caught);
    }

    let mutation = match &parsed.mutation {
        Some(name) => ProtocolMutation::parse(name)
            .ok_or_else(|| format!("unknown mutation `{name}` (try `--mutation all`)"))?,
        None => ProtocolMutation::None,
    };
    let scenarios: Vec<dex_check::ExploreScenario> = match parsed.scenario.as_deref() {
        Some(name) if name != "all" => {
            vec![dex_check::find_explore_scenario(name).ok_or_else(|| {
                format!(
                    "unknown explore scenario `{name}` (expected one of {:?})",
                    dex_check::explore_scenario_names()
                )
            })?]
        }
        _ => dex_check::EXPLORE_SCENARIOS.to_vec(),
    };

    let config = dex_check::ExploreConfig {
        budget: parsed.budget,
        preemptions: parsed.preemptions,
        seed: parsed.seed,
        mutation,
    };
    // A seeded mutation is a checker self-test: finding the bug is the
    // pass condition. Without one, clean exploration is the pass.
    let expect_violation = mutation != ProtocolMutation::None;
    let mut all_ok = true;
    let mut caught_any = false;
    for scenario in &scenarios {
        let outcome = explore::explore(scenario, &config);
        print!("explore {}", explore::render_outcome(&outcome));
        if let Some(cx) = &outcome.counterexample {
            caught_any = true;
            if let Some(path) = &parsed.write_trace {
                std::fs::write(path, cx.log.to_text())
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
                println!("counterexample schedule written to {}", path.display());
            }
        }
        if !expect_violation {
            all_ok &= outcome.counterexample.is_none();
        }
    }
    if expect_violation {
        all_ok = caught_any;
    }
    println!(
        "explore: {} in {:.2?}",
        if all_ok { "PASS" } else { "FAIL" },
        started.elapsed()
    );
    Ok(all_ok)
}

fn cmd_replay(args: &[String]) -> Result<bool, String> {
    let [path] = args else {
        return Err(format!("`replay` takes exactly one trace file\n\n{USAGE}"));
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    if dex_sim::FaultPlan::looks_like_plan(&text) {
        let plan = dex_sim::FaultPlan::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
        if plan.crashes().iter().any(|c| c.node == 0) {
            return Err(format!(
                "{path}: plan crashes node 0 (the origin); an origin crash is \
                 process death and cannot be recovered from (see DESIGN.md, fault model)"
            ));
        }
        let outcome = replay_plan(&plan);
        println!(
            "fault plan {path}: {} link fault(s), {} crash(es)",
            plan.link_faults().len(),
            plan.crashes().len()
        );
        for line in &outcome.detail {
            println!("  {line}");
        }
        println!("replay {}", if outcome.ok { "PASS" } else { "FAIL" });
        return Ok(outcome.ok);
    }
    if let Ok(log) = dex_sim::ScheduleLog::parse(&text) {
        if dex_check::looks_like_explore_log(&log.header) {
            return match dex_check::replay_explore_log(&log) {
                Ok(report) => {
                    println!("{report}");
                    println!("replay PASS");
                    Ok(true)
                }
                Err(e) => {
                    println!("replay FAIL: {e}");
                    Ok(false)
                }
            };
        }
    }
    let outcome = replay_log(&text)?;
    println!(
        "replayed {} steps ({})",
        outcome.steps,
        describe_world(&outcome.config)
    );
    println!("final state:\n{}", outcome.final_state);
    if outcome.violations.is_empty() {
        println!("replay reproduced no safety violation (liveness trace ends stuck-but-clean)");
    } else {
        for v in &outcome.violations {
            println!("violated: {v}");
        }
    }
    // Replaying a counterexample *successfully reproduces* it; the replay
    // itself succeeds either way.
    Ok(true)
}

/// Parses the one flag `races` and `faults` take: `--scenario NAME`.
fn parse_scenario_flag(cmd: &str, args: &[String]) -> Result<Option<String>, String> {
    let mut scenario = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--scenario" => scenario = Some(it.next().ok_or("--scenario needs a value")?.clone()),
            other => return Err(format!("unknown flag `{other}` for `{cmd}`\n\n{USAGE}")),
        }
    }
    Ok(scenario)
}

fn cmd_races(args: &[String]) -> Result<bool, String> {
    let scenario_filter = parse_scenario_flag("races", args)?;

    let names: Vec<&str> = match &scenario_filter {
        Some(name) if name != "all" => vec![name.as_str()],
        _ => SCENARIOS.iter().map(|s| s.name).collect(),
    };

    let mut all_ok = true;
    for name in names {
        let (scenario, events) = run_scenario(name).ok_or_else(|| {
            let known: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
            format!("unknown scenario `{name}` (expected one of {known:?})")
        })?;
        let report = dex_check::analyze_races(&events);
        let clean = report.is_clean();
        let ok = clean == scenario.expect_clean;
        all_ok &= ok;
        println!(
            "races {:<10} {:>6} events  {} conflicts  {} lock cycles  {}",
            scenario.name,
            report.events,
            report.conflicts.len(),
            report.cycles.len(),
            match (ok, scenario.expect_clean) {
                (true, true) => "clean (as expected)",
                (true, false) => "caught (as expected)",
                (false, true) => "** UNEXPECTED VIOLATIONS **",
                (false, false) => "** FIXTURE NOT CAUGHT **",
            }
        );
        if !clean {
            for line in render_race_report(&report).lines() {
                println!("    {line}");
            }
        }
    }
    Ok(all_ok)
}

fn cmd_faults(args: &[String]) -> Result<bool, String> {
    let scenario_filter = parse_scenario_flag("faults", args)?;

    let names: Vec<&str> = match &scenario_filter {
        Some(name) if name != "all" => vec![name.as_str()],
        _ => FAULT_SCENARIOS.iter().map(|s| s.name).collect(),
    };

    let mut all_ok = true;
    for name in names {
        let (scenario, outcome) = run_fault_scenario(name).ok_or_else(|| {
            let known: Vec<&str> = FAULT_SCENARIOS.iter().map(|s| s.name).collect();
            format!("unknown fault scenario `{name}` (expected one of {known:?})")
        })?;
        all_ok &= outcome.ok;
        println!(
            "faults {:<14} {}  {}",
            scenario.name,
            if outcome.ok { "PASS" } else { "FAIL" },
            scenario.description
        );
        for line in &outcome.detail {
            println!("    {line}");
        }
    }
    Ok(all_ok)
}

fn cmd_lint(args: &[String]) -> Result<bool, String> {
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--root" => {
                root = Some(PathBuf::from(
                    it.next()
                        .ok_or_else(|| "--root needs a value".to_string())?,
                ))
            }
            other => return Err(format!("unknown flag `{other}` for `lint`\n\n{USAGE}")),
        }
    }
    let root = match root {
        Some(r) => r,
        None => workspace_root()?,
    };
    let hits = run_lint(&root).map_err(|e| format!("linting {}: {e}", root.display()))?;
    if hits.is_empty() {
        println!("lint PASS ({})", root.display());
        return Ok(true);
    }
    for hit in &hits {
        println!("{hit}");
    }
    println!("lint FAIL: {} violation(s)", hits.len());
    Ok(false)
}

fn cmd_timeline(args: &[String]) -> Result<bool, String> {
    let mut out: Option<PathBuf> = None;
    let mut spans_out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--spans-out" => spans_out = Some(PathBuf::from(value("--spans-out")?)),
            other => return Err(format!("unknown flag `{other}` for `timeline`\n\n{USAGE}")),
        }
    }
    let outcome = run_observed_workload();
    print!("{}", outcome.critical_path);
    println!(
        "\n{} span(s) recorded; cross-node stitching {}",
        outcome.spans,
        if outcome.stitched_cross_node {
            "OK (requester -> origin -> requester)"
        } else {
            "MISSING"
        }
    );
    if let Some(path) = &out {
        std::fs::write(path, &outcome.chrome_json)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "chrome trace-event JSON written to {} (load in ui.perfetto.dev)",
            path.display()
        );
    }
    if let Some(path) = &spans_out {
        std::fs::write(path, &outcome.spans_text)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("span text (# dex-spans v2) written to {}", path.display());
    }
    println!(
        "timeline {}",
        if outcome.stitched_cross_node {
            "PASS"
        } else {
            "FAIL"
        }
    );
    Ok(outcome.stitched_cross_node)
}

fn cmd_metrics(args: &[String]) -> Result<bool, String> {
    if !args.is_empty() {
        return Err(format!("`metrics` takes no flags\n\n{USAGE}"));
    }
    let outcome = run_observed_workload();
    print!("{}", outcome.metrics_text);
    for violation in &outcome.metrics_violations {
        println!("violation: {violation}");
    }
    let ok = outcome.metrics_violations.is_empty();
    println!(
        "metrics {}: every total is the sum of its per-node counters, and per-node fault counts match the fault spans",
        if ok { "PASS" } else { "FAIL" }
    );
    Ok(ok)
}

fn cmd_perf(args: &[String]) -> Result<bool, String> {
    let mut results: Option<PathBuf> = None;
    let mut baselines: Option<PathBuf> = None;
    let mut update = false;
    let mut self_test = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--results" => results = Some(PathBuf::from(value("--results")?)),
            "--baselines" => baselines = Some(PathBuf::from(value("--baselines")?)),
            "--update" => update = true,
            "--self-test" => self_test = true,
            other => return Err(format!("unknown flag `{other}` for `perf`\n\n{USAGE}")),
        }
    }
    let baseline_dir = match baselines {
        Some(dir) => dir,
        None => workspace_root()?.join("baselines/perf"),
    };

    if self_test {
        println!(
            "perf self-test: seeding a ±1 change in each field of each baseline in {}",
            baseline_dir.display()
        );
        let lines = dex_check::self_test(&baseline_dir)?;
        for line in &lines {
            println!("  {line}");
        }
        println!(
            "perf self-test PASS ({} baseline(s) have teeth)",
            lines.len()
        );
        return Ok(true);
    }

    let results_dir = results.unwrap_or_else(|| {
        PathBuf::from(std::env::var("DEX_BENCH_OUT").unwrap_or_else(|_| ".".to_string()))
    });

    if update {
        let fresh = dex_check::load_results(&results_dir)?;
        if fresh.is_empty() {
            return Err(format!(
                "no BENCH_*.json results in {} to baseline",
                results_dir.display()
            ));
        }
        std::fs::create_dir_all(&baseline_dir)
            .map_err(|e| format!("{}: {e}", baseline_dir.display()))?;
        for result in fresh.values() {
            let path = baseline_dir.join(result.file_name());
            std::fs::write(&path, result.to_json())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            println!("baselined {}", path.display());
        }
        println!("perf baselines updated ({})", fresh.len());
        return Ok(true);
    }

    println!(
        "perf gate: {} vs baselines in {} (exact)",
        results_dir.display(),
        baseline_dir.display(),
    );
    let (lines, violations) = dex_check::compare_dirs(&baseline_dir, &results_dir)?;
    for line in &lines {
        println!("  {line}");
    }
    for violation in &violations {
        println!("  VIOLATION {violation}");
    }
    let ok = violations.is_empty();
    if !ok {
        println!(
            "  hint: explain the drift with\n    \
             dex-prof diff {}/BENCH_<name>.json {}/BENCH_<name>.json\n  \
             and rank what to optimize with `dex-check whatif --workload <name>`",
            baseline_dir.display(),
            results_dir.display()
        );
    }
    println!("perf {}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}

fn cmd_whatif(args: &[String]) -> Result<bool, String> {
    let mut workload = "pingpong".to_string();
    let mut factor = 0.5f64;
    let mut components: Vec<String> = Vec::new();
    let mut out: Option<PathBuf> = None;
    let mut smoke = false;
    let mut self_test = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = value("--workload")?.clone(),
            "--factor" => {
                let v = value("--factor")?;
                factor = v.parse().map_err(|_| format!("`{v}` is not a number"))?;
            }
            "--component" => components.push(value("--component")?.clone()),
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--smoke" => smoke = true,
            "--self-test" => self_test = true,
            other => return Err(format!("unknown flag `{other}` for `whatif`\n\n{USAGE}")),
        }
    }

    if self_test {
        let started = std::time::Instant::now();
        match dex_check::whatif_self_test() {
            Ok(lines) => {
                for line in &lines {
                    println!("  {line}");
                }
                println!(
                    "whatif self-test PASS (dominant component ranks first, \
                     irrelevant one last) in {:.2?}",
                    started.elapsed()
                );
                return Ok(true);
            }
            Err(e) => {
                println!("whatif self-test FAIL: {e}");
                return Ok(false);
            }
        }
    }

    if components.is_empty() {
        components = if smoke {
            ["retry_backoff", "protocol_handling", "net.verb_latency"]
                .iter()
                .map(|s| s.to_string())
                .collect()
        } else {
            dex_check::full_component_registry()
        };
    }

    let started = std::time::Instant::now();
    let run = dex_check::run_whatif(&workload, &components, factor)?;
    print!("{}", dex_prof::render_whatif(&run.report));
    if let Some(path) = &out {
        std::fs::write(path, dex_prof::encode_whatif(&run.report))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("\n`# dex-whatif v1` report written to {}", path.display());
    }
    println!(
        "\nwhatif {} ({} experiment(s), baseline rerun {}) in {:.2?}",
        if run.deterministic { "PASS" } else { "FAIL" },
        run.report.entries.len(),
        if run.deterministic {
            "bit-identical"
        } else {
            "DIVERGED — virtual speedups unsound"
        },
        started.elapsed()
    );
    Ok(run.deterministic)
}

fn cmd_all(args: &[String]) -> Result<bool, String> {
    if !args.is_empty() {
        return Err(format!("`all` takes no flags\n\n{USAGE}"));
    }
    let mut ok = true;

    println!("== lint ==");
    ok &= cmd_lint(&[])?;

    println!("\n== races ==");
    ok &= cmd_races(&[])?;

    println!("\n== faults ==");
    ok &= cmd_faults(&[])?;

    println!("\n== explore: schedule exploration, small budget ==");
    ok &= cmd_explore(&["--budget".into(), "300".into()])?;

    println!("\n== explore: mutation sweep ==");
    ok &= cmd_explore(&[
        "--budget".into(),
        "60".into(),
        "--mutation".into(),
        "all".into(),
    ])?;

    println!("\n== timeline ==");
    ok &= cmd_timeline(&[])?;

    println!("\n== metrics ==");
    ok &= cmd_metrics(&[])?;

    println!("\n== perf: baseline self-test ==");
    ok &= cmd_perf(&["--self-test".into()])?;

    println!("\n== whatif: causal-attribution self-test ==");
    ok &= cmd_whatif(&["--self-test".into()])?;

    println!("\n== model: 2 nodes x 2 pages, mutation sweep ==");
    ok &= cmd_model(&[
        "--nodes".into(),
        "2".into(),
        "--pages".into(),
        "2".into(),
        "--mutation".into(),
        "all".into(),
    ])?;

    println!("\n== model: 3 nodes x 1 page with coalescing, mutation sweep ==");
    ok &= cmd_model(&[
        "--nodes".into(),
        "3".into(),
        "--pages".into(),
        "1".into(),
        "--coalesce".into(),
        "--mutation".into(),
        "all".into(),
    ])?;

    println!("\n== model: 3 nodes x 1 page, sharded two-hop directory, mutation sweep ==");
    ok &= cmd_model(&[
        "--nodes".into(),
        "3".into(),
        "--pages".into(),
        "1".into(),
        "--sharded".into(),
        "--mutation".into(),
        "all".into(),
    ])?;

    println!("\noverall: {}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}

/// Locates the workspace root: walk up from the current directory to the
/// first `Cargo.toml` containing a `[workspace]` table, falling back to
/// the manifest directory baked in at compile time.
fn workspace_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("getcwd: {e}"))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            break;
        }
    }
    let fallback = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf);
    fallback.ok_or_else(|| "cannot locate the workspace root (use --root)".to_string())
}
